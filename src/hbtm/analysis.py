"""Downstream analysis of fitted trait mixtures.

Clusters traces into two groups on their trait mixtures alone, compares the
groups' grades with unequal-variance t-tests, correlates each trait with each
grade type, and exports per-trait distribution profiles as plot-ready tables.
Reports use 1-based trait and event numbering; everything internal stays
0-based.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import sampler
from .core import Posterior, skip_bom

GRADE_TYPES = ("SA", "SFE", "FE")
GRADE_RANGES = {"SA": (0.0, 5.0), "SFE": (0.0, 100.0), "FE": (0.0, 100.0)}


class TTestResult(NamedTuple):
    t: float
    df: float
    p: float


class PearsonResult(NamedTuple):
    r: float
    p: float
    n: int


@dataclass(frozen=True)
class KMeansResult:
    labels: np.ndarray
    centroids: np.ndarray
    wcss: float


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t via the regularized incomplete beta."""
    from scipy.special import betainc  # on use: only analyze needs scipy
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return float(betainc(df / 2.0, 0.5, x))


def welch_t_test(a, b) -> TTestResult:
    """Unequal-variance two-sample t-test with Welch-Satterthwaite df.

    Both samples need at least two values. When both variances are zero the
    statistic is degenerate: equal means give (0, pooled df, 1) and unequal
    means give a signed infinite t with p = 0 by convention.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError("each group needs at least 2 observations")
    ma = math.fsum(a) / na
    mb = math.fsum(b) / nb
    # ``** 2`` is libm's pow, not a multiply: v ** 2 != v * v for 1,614-1,742
    # of 2M standard normal draws (six numpy seeds, x86-64 glibc), and
    # np.power with an array exponent differs from ** on 54,019-54,450 of
    # them. So these squares stay Python floats: a numpy rewrite would change
    # reported t-tests, and they cost about 3 ms a run.
    va = math.fsum((v - ma) ** 2 for v in a) / (na - 1)
    vb = math.fsum((v - mb) ** 2 for v in b) / (nb - 1)
    sa, sb = va / na, vb / nb
    se2 = sa + sb
    if se2 == 0.0:
        pooled_df = float(na + nb - 2)
        if ma == mb:
            return TTestResult(0.0, pooled_df, 1.0)
        return TTestResult(math.copysign(math.inf, ma - mb), pooled_df, 0.0)
    t = (ma - mb) / math.sqrt(se2)
    df = se2 * se2 / (sa * sa / (na - 1) + sb * sb / (nb - 1))
    return TTestResult(t, df, student_t_two_sided_p(t, df))


def pearson(x, y) -> PearsonResult:
    """Sample correlation with a two-sided p from the exact t transform.

    Needs n >= 3 paired values and non-constant inputs; |r| = 1 gives p = 0.
    The sums are exact (``math.fsum``'s), taken over float64 arrays.
    """
    x, y = _floats(x), _floats(y)
    n = len(x)
    if len(y) != n:
        raise ValueError("x and y must have equal lengths")
    if n < 3:
        raise ValueError("need at least 3 pairs")
    dx = x - math.fsum(x.tolist()) / n
    dy = y - math.fsum(y.tolist()) / n
    vx = math.fsum((dx * dx).tolist())
    vy = math.fsum((dy * dy).tolist())
    if vx == 0.0 or vy == 0.0:
        raise ValueError("correlation undefined for a constant input")
    r = math.fsum((dx * dy).tolist()) / math.sqrt(vx * vy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return PearsonResult(r, 0.0, n)
    df = n - 2
    t = r * math.sqrt(df / (1.0 - r * r))
    return PearsonResult(r, student_t_two_sided_p(t, df), n)


def _floats(values) -> np.ndarray:
    """``float()`` of each of ``values``, as a float64 array.

    A 1-d float64 array already holds those floats and is taken as it is:
    ``run_analysis`` passes its columns so, and converting 4,000 numpy
    scalars one by one would cost more than the correlation.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
        return values
    return np.array([float(v) for v in values], dtype=float)


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _wcss(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    return float(((points - centroids[labels]) ** 2).sum())


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            u = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), u, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = int(rng.integers(n))  # duplicate points: any choice is equivalent
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _reference_lloyd(points: np.ndarray, centroids: np.ndarray,
                     max_iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations in numpy: the oracle ``hbtm_lloyd`` must match, and its fallback.

    Returns the labels and centroids after assigning the points to
    ``centroids``, then up to ``max_iters`` times moving each centroid to its
    members' mean and reassigning, until the labels repeat. A cluster emptied
    by reassignment is reseeded with the point farthest from its centroid.
    """
    labels = _assign(points, centroids)
    for _ in range(max_iters):
        new_centroids = centroids.copy()
        for j in range(len(centroids)):
            members = points[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
            else:
                farthest = int(np.argmax(((points - centroids[labels]) ** 2).sum(axis=1)))
                new_centroids[j] = points[farthest]
        new_labels = _assign(points, new_centroids)
        converged = bool(np.array_equal(new_labels, labels))
        centroids, labels = new_centroids, new_labels
        if converged:
            break
    return labels, centroids


def kmeans(points, k: int, seed: int = 0, max_iters: int = 100, restarts: int = 10) -> KMeansResult:
    """Lloyd iterations from seeded k-means++ starts; best of ``restarts`` kept.

    Runs to an assignment fixpoint or max_iters; within-cluster sum of
    squares never increases across iterations. A cluster emptied by
    reassignment is reseeded with the point farthest from its centroid.
    Deterministic given the seed. The iterations run in the compiled
    library's ``hbtm_lloyd``, or in ``_reference_lloyd`` when the library
    is missing; both give the same labels and the same centroid floats.
    """
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    n, d = points.shape
    if not 1 <= k <= n:
        raise ValueError(f"cluster count must satisfy 1 <= k <= {n}, got {k}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    rng = np.random.default_rng(seed)
    library = sampler._library()
    # the kernel's scratch: next centroids, next labels, cluster sizes, a member column
    scratch = (np.empty((k, d)), np.empty(n, np.int64), np.empty(k, np.int64), np.empty(n))

    best: KMeansResult | None = None
    for _ in range(max(1, restarts)):
        centroids = _kmeans_pp_init(points, k, rng)
        if library is None:
            labels, centroids = _reference_lloyd(points, centroids, max_iters)
        else:
            labels = np.empty(n, np.int64)
            library.hbtm_lloyd(n, d, k, max_iters, points.ctypes.data, centroids.ctypes.data,
                               labels.ctypes.data, *(a.ctypes.data for a in scratch))
        candidate = KMeansResult(labels, centroids, _wcss(points, centroids, labels))
        if best is None or candidate.wcss < best.wcss:
            best = candidate
    return best


@dataclass(frozen=True)
class GradeTable:
    """Per-trace grades; a missing score is stored as None.

    SA is the session assessment (0-5), SFE the session-aligned final-exam
    problem score, FE the total final exam (0-100).
    """

    scores: dict[str, dict[str, float | None]]

    def __post_init__(self):
        for trace_id, row in self.scores.items():
            for grade_type in GRADE_TYPES:
                value = row.get(grade_type)
                if value is None:
                    continue
                if not math.isfinite(value):
                    raise ValueError(
                        f"{grade_type} for '{trace_id}' is {value}, not a finite number"
                    )
                bounds = GRADE_RANGES[grade_type]
                if not bounds[0] <= value <= bounds[1]:
                    raise ValueError(
                        f"{grade_type} for '{trace_id}' is {value}, outside {bounds}"
                    )

    def get(self, trace_id: str, grade_type: str) -> float | None:
        row = self.scores.get(trace_id)
        return None if row is None else row.get(grade_type)

    @classmethod
    def from_csv(cls, path) -> "GradeTable":
        """Load ``trace_id,SA,SFE,FE`` rows; blank cells mean missing."""
        scores: dict[str, dict[str, float | None]] = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(skip_bom(fh))
            needed = {"trace_id", *GRADE_TYPES}
            if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
                raise ValueError(f"grades CSV must have columns {sorted(needed)}")
            for row in reader:
                trace_id = row["trace_id"].strip()
                if trace_id in scores:
                    raise ValueError(f"duplicate trace_id '{trace_id}' in grades CSV")
                scores[trace_id] = {
                    g: (float(row[g]) if row[g] is not None and row[g].strip() else None)
                    for g in GRADE_TYPES
                }
        return cls(scores)


@dataclass(frozen=True)
class AnalysisReport:
    """Cluster labels, grade-group t-tests and per-trait correlations."""

    threshold: float
    cluster_sizes: list[int]
    cluster_labels: dict[str, int]
    ttests: dict[str, dict]
    correlations: list[dict]

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "cluster_sizes": list(self.cluster_sizes),
            "cluster_labels": dict(self.cluster_labels),
            "ttests": self.ttests,
            "correlations": self.correlations,
        }


def _canonical_cluster_order(labels: np.ndarray, centroids: np.ndarray, k: int) -> list[int]:
    """Order clusters by descending size, ties by lexicographic centroid."""
    sizes = [int((labels == j).sum()) for j in range(k)]
    return sorted(range(k), key=lambda j: (-sizes[j], tuple(centroids[j])))


def run_analysis(fit, grades: GradeTable, threshold: float = 0.05, seed: int = 0) -> AnalysisReport:
    """Cluster trait mixtures into two groups and relate them to grades.

    All traces are clustered on their theta rows; each grade comparison then
    uses the traces that carry that grade. Cluster ids are reported largest
    first so output is stable under label swaps. Correlation entries carry
    1-based trait numbers and the sign of r; entries that cannot be computed
    (too few scores, constant inputs) are kept with a skip reason. The
    significance threshold must lie in [0, 1], and a repeated trace id is
    an error.
    """
    if not 0.0 <= threshold <= 1.0:  # NaN fails this too
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    theta = fit.posterior.theta
    trace_ids = list(fit.trace_ids)
    if len(trace_ids) != theta.shape[0]:
        raise ValueError("fit trace_ids do not match theta rows")
    seen: set[str] = set()
    for tid in trace_ids:
        if tid in seen:
            raise ValueError(f"fit trace_id '{tid}' is repeated")
        seen.add(tid)
    joined = [tid for tid in trace_ids if tid in grades.scores]
    if not joined:
        raise ValueError("empty join: no fitted trace_id appears in the grade table")

    km = kmeans(theta, 2, seed=seed)
    order = _canonical_cluster_order(km.labels, km.centroids, 2)
    relabel = {old: new for new, old in enumerate(order)}
    labels = [relabel[v] for v in km.labels.tolist()]
    cluster_labels = dict(zip(trace_ids, labels))
    cluster_sizes = [labels.count(0), labels.count(1)]

    # each grade's scored traces in trace order, as (position, score) pairs
    scored = {
        grade_type: [(m, value) for m, tid in enumerate(trace_ids)
                     if (value := grades.get(tid, grade_type)) is not None]
        for grade_type in GRADE_TYPES
    }

    ttests: dict[str, dict] = {}
    for grade_type in GRADE_TYPES:
        groups: tuple[list[float], list[float]] = ([], [])
        for m, value in scored[grade_type]:
            groups[labels[m]].append(value)
        sizes = [len(groups[0]), len(groups[1])]
        if min(sizes) < 2:
            ttests[grade_type] = {
                "group_sizes": sizes,
                "skipped": "fewer than 2 scored traces in a cluster",
            }
            continue
        result = welch_t_test(groups[0], groups[1])
        degenerate = not math.isfinite(result.t)
        ttests[grade_type] = {
            "group_sizes": sizes,
            "group_means": [
                math.fsum(groups[0]) / sizes[0],
                math.fsum(groups[1]) / sizes[1],
            ],
            "t": None if degenerate else result.t,
            "df": result.df,
            "p": result.p,
            "significant": result.p < threshold,
            **({"degenerate": True} if degenerate else {}),
        }

    correlations: list[dict] = []
    rows = {grade_type: np.array([m for m, _ in pairs], dtype=np.intp)
            for grade_type, pairs in scored.items()}
    # each grade's scores as one array, not converted again for every trait
    scores = {grade_type: _floats([value for _, value in pairs])
              for grade_type, pairs in scored.items()}
    for k in range(theta.shape[1]):
        for grade_type in GRADE_TYPES:
            xs = theta[rows[grade_type], k]
            entry = {"trait": k + 1, "grade": grade_type, "n": len(xs)}
            if len(xs) < 3:
                entry["skipped"] = "fewer than 3 scored traces"
            else:
                try:
                    result = pearson(xs, scores[grade_type])
                except ValueError as exc:
                    entry["skipped"] = str(exc)
                else:
                    entry.update(
                        r=result.r,
                        p=result.p,
                        significant=result.p < threshold,
                        sign="+" if result.r > 0 else "-",
                    )
            correlations.append(entry)

    return AnalysisReport(
        threshold=threshold,
        cluster_sizes=cluster_sizes,
        cluster_labels=cluster_labels,
        ttests=ttests,
        correlations=correlations,
    )


def export_trait(posterior: Posterior, k: int, event_labels=None,
                 header_comment: str | None = None) -> str:
    """Plot-ready distributions for trait k (0-based) as CSV text.

    Rows are kind,event_label,bin_index,probability: the trait's event
    distribution, then every event's time-bin rows, then every event's
    interaction-level rows, after an optional ``# header_comment`` line.
    Bin indices are 1-based. Probabilities are written with full float
    precision so parsing the text recovers the source values exactly.
    """
    if not 0 <= k < posterior.num_traits:
        raise ValueError(f"trait index {k} outside [0, {posterior.num_traits})")
    num_events = posterior.phi.shape[1]
    if event_labels is None:
        event_labels = tuple(f"event {e + 1}" for e in range(num_events))
    event_labels = tuple(event_labels)
    if len(event_labels) != num_events:
        raise ValueError("event_labels length must match the event count")
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "event_label", "bin_index", "probability"])
    writer.writerows(["event", label, e + 1, repr(p)]
                     for e, (label, p) in enumerate(zip(event_labels, posterior.phi[k].tolist())))
    for kind, table in (("time", posterior.psi[k]), ("interaction", posterior.tau[k])):
        writer.writerows([kind, label, b + 1, repr(p)]
                         for label, row in zip(event_labels, table.tolist())
                         for b, p in enumerate(row))
    return buf.getvalue()
