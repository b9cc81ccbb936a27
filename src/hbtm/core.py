"""Core domain types and shared arithmetic for trait-mixture event-log models.

A corpus holds one trace per student-session; each trace is an ordered list of
tokens, where a token is the triple (event type, time-span bin,
interaction-intensity level). Posterior point estimates are Dirichlet
posterior means over the sampler's count tables.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROW_SUM_TOL = 1e-12

DEFAULT_EVENT_LABELS = (
    "Exercise content study",
    "Deeds exercise work",
    "Deeds unclear exercise",
    "Deeds other activity",
    "Text editor exercise work",
    "Text editor unclear exercise",
    "Text editor other use",
    "Simulation timing diagram",
    "Component properties setup",
    "Course material study",
    "FSM exercise work",
    "FSM component handling",
    "Aulaweb LMS use",
    "Blank page title",
    "Other off-task activity",
)

# Duration bins are left-open/right-closed (lo, hi] in seconds.
DEFAULT_TIME_BIN_EDGES = (0.0, 9.0, 15.0, 30.0, 60.0, 600.0, 1200.0, 14000.0)

# Interaction bins are left-closed/right-open [lo, hi) in total input counts.
DEFAULT_INTERACTION_BIN_EDGES = (0.0, 2.0, 3.0, 6.0, 16.0, 4779.0)


def to_one_based(index: int) -> int:
    """Convert an internal 0-based trait/event index to its display number."""
    if index < 0:
        raise ValueError(f"negative index {index}")
    return index + 1


def from_one_based(number: int) -> int:
    """Convert a display (1-based) trait/event number to the internal index."""
    if number < 1:
        raise ValueError(f"display numbers start at 1, got {number}")
    return number - 1


def _check_edges(name: str, edges: tuple[float, ...]) -> None:
    if len(edges) < 2:
        raise ValueError(f"{name} needs at least 2 edges, got {len(edges)}")
    for lo, hi in zip(edges, edges[1:]):
        if not hi > lo:
            raise ValueError(f"{name} must be strictly increasing, got {edges}")


@dataclass(frozen=True)
class Schema:
    """Fixed alphabets for the three token components.

    ``time_bin_edges`` bound left-open/right-closed duration bins in seconds;
    ``interaction_bin_edges`` bound left-closed/right-open bins over total
    mouse-plus-keyboard counts. Immutable and safe to share.
    """

    event_labels: tuple[str, ...]
    time_bin_edges: tuple[float, ...]
    interaction_bin_edges: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "event_labels", tuple(self.event_labels))
        object.__setattr__(self, "time_bin_edges", tuple(float(x) for x in self.time_bin_edges))
        object.__setattr__(
            self, "interaction_bin_edges", tuple(float(x) for x in self.interaction_bin_edges)
        )
        if len(self.event_labels) < 1:
            raise ValueError("schema needs at least one event label")
        _check_edges("time_bin_edges", self.time_bin_edges)
        _check_edges("interaction_bin_edges", self.interaction_bin_edges)

    @property
    def num_events(self) -> int:
        return len(self.event_labels)

    @property
    def num_time_bins(self) -> int:
        return len(self.time_bin_edges) - 1

    @property
    def num_interaction_levels(self) -> int:
        return len(self.interaction_bin_edges) - 1

    @classmethod
    def default(cls) -> "Schema":
        """The 15-event / 7-time-bin / 5-interaction-level schema."""
        return cls(DEFAULT_EVENT_LABELS, DEFAULT_TIME_BIN_EDGES, DEFAULT_INTERACTION_BIN_EDGES)

    def to_dict(self) -> dict:
        return {
            "event_labels": list(self.event_labels),
            "time_bin_edges": list(self.time_bin_edges),
            "interaction_bin_edges": list(self.interaction_bin_edges),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Schema":
        return cls(
            tuple(d["event_labels"]),
            tuple(d["time_bin_edges"]),
            tuple(d["interaction_bin_edges"]),
        )


class Token(NamedTuple):
    """One preprocessed log event: (event, time_bin, interaction_level) indices.

    A plain tuple underneath, so it compares equal to ``(event, time_bin,
    interaction_level)`` and is written to corpus files as a JSON list.
    """

    event: int
    time_bin: int
    interaction_level: int


@dataclass(frozen=True)
class Trace:
    """One student's token sequence within one session."""

    trace_id: str
    tokens: tuple[Token, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    """A schema plus the traces observed under it; at least one trace."""

    schema: Schema
    traces: tuple[Trace, ...]

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))
        if not self.traces:
            raise ValueError("a corpus needs at least one trace")

    @property
    def num_traces(self) -> int:
        return len(self.traces)

    @property
    def num_tokens(self) -> int:
        return sum(len(t) for t in self.traces)

    @property
    def trace_ids(self) -> list[str]:
        return [t.trace_id for t in self.traces]


@dataclass(frozen=True)
class Hyperparams:
    """Symmetric Dirichlet concentrations for the four parameter families.

    alpha smooths per-trace trait mixtures, beta the per-trait event
    distributions, gamma the per-(trait, event) time-bin distributions and
    delta the per-(trait, event) interaction-level distributions.
    """

    alpha: float = 1.0
    beta: float = 0.1
    gamma: float = 0.1
    delta: float = 0.1

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"{name} must be strictly positive, got {v}")


def _check_stochastic(name: str, arr: np.ndarray) -> None:
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError(f"{name} has entries outside [0, 1]")
    sums = arr.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise ValueError(f"{name} rows must sum to 1 within {ROW_SUM_TOL:g} (off by {worst:g})")


@dataclass(frozen=True)
class Posterior:
    """The four parameter families: a fit's point estimates or a generator's truth.

    theta is traces x traits, phi is traits x events, psi is traits x events x
    time bins and tau is traits x events x interaction levels; each is
    stochastic over its last axis.
    """

    theta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        for name in ("theta", "phi", "psi", "tau"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False  # shared across readers
            object.__setattr__(self, name, arr)
        k = self.phi.shape[0]
        if self.theta.ndim != 2 or self.theta.shape[1] != k:
            raise ValueError("theta must be traces x traits")
        e = self.phi.shape[1]
        if self.psi.shape[:2] != (k, e) or self.tau.shape[:2] != (k, e):
            raise ValueError("psi/tau must be traits x events x bins")
        _check_stochastic("theta", self.theta)
        _check_stochastic("phi", self.phi)
        _check_stochastic("psi", self.psi)
        _check_stochastic("tau", self.tau)

    @property
    def num_traits(self) -> int:
        return self.phi.shape[0]

    def to_dict(self) -> dict:
        return {
            "theta": self.theta.tolist(),
            "phi": self.phi.tolist(),
            "psi": self.psi.tolist(),
            "tau": self.tau.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Posterior":
        return cls(d["theta"], d["phi"], d["psi"], d["tau"])


def validate_corpus(corpus: Corpus) -> list[str]:
    """Report every duplicate trace id, empty trace and out-of-range token index.

    Messages follow trace order; within a trace the duplicate id comes first,
    then the empty trace or each offending token's components in token order.
    Returns an empty list iff the corpus is admissible for fitting.
    """
    schema = corpus.schema
    limits = (
        ("event", schema.num_events),
        ("time_bin", schema.num_time_bins),
        ("interaction_level", schema.num_interaction_levels),
    )
    # a corpus repeats few distinct tokens, so each distinct one is checked once
    bad = {
        tok for tok in set(chain.from_iterable(t.tokens for t in corpus.traces))
        if not all(0 <= value < limit for value, (_, limit) in zip(tok, limits))
    }
    violations = []
    seen: set[str] = set()
    for trace in corpus.traces:
        if trace.trace_id in seen:
            violations.append(f"trace '{trace.trace_id}': duplicate trace_id")
        seen.add(trace.trace_id)
        if len(trace.tokens) == 0:
            violations.append(f"trace '{trace.trace_id}': empty trace")
        elif bad and not bad.isdisjoint(trace.tokens):
            violations.extend(
                f"trace '{trace.trace_id}' token {pos}: {name} {value} outside [0, {limit})"
                for pos, tok in enumerate(trace.tokens) if tok in bad
                for (name, limit), value in zip(limits, tok) if not 0 <= value < limit
            )
    return violations


def estimate_posterior(state, hyper: Hyperparams) -> Posterior:
    """Smoothed point estimates from a sampler state's count tables.

    Every estimate is the Dirichlet posterior mean of the corresponding
    counts:

        theta[m, k] = (N_mk + alpha) / (N_m + K * alpha)
        phi[k, e]   = (N_ke + beta)  / (N_k + E * beta)
        psi[k, e, t] = (N_ket + gamma) / (N_ke + T * gamma)
        tau[k, e, i] = (N_kei + delta) / (N_ke + I * delta)

    A pure function of the counts: states with equal tables give identical
    results. Raises ValueError if the tables are mutually inconsistent.
    """
    n_mk = np.asarray(state.n_mk, dtype=float)
    n_ke = np.asarray(state.n_ke, dtype=float)
    n_ket = np.asarray(state.n_ket, dtype=float)
    n_kei = np.asarray(state.n_kei, dtype=float)
    n_m = np.asarray(state.n_m, dtype=float)
    n_k = np.asarray(state.n_k, dtype=float)

    if np.any(n_mk < 0) or np.any(n_ket < 0) or np.any(n_kei < 0):
        raise ValueError("negative counts in sampler state")
    if not np.array_equal(n_mk.sum(axis=1), n_m):
        raise ValueError("trace totals inconsistent with per-trait counts")
    if not np.array_equal(n_ke.sum(axis=1), n_k):
        raise ValueError("trait totals inconsistent with per-event counts")
    if not np.array_equal(n_ket.sum(axis=2), n_ke) or not np.array_equal(n_kei.sum(axis=2), n_ke):
        raise ValueError("time/interaction tables inconsistent with event counts")

    num_k = n_mk.shape[1]
    num_e = n_ke.shape[1]
    num_t = n_ket.shape[2]
    num_i = n_kei.shape[2]

    theta = (n_mk + hyper.alpha) / (n_m + num_k * hyper.alpha)[:, None]
    phi = (n_ke + hyper.beta) / (n_k + num_e * hyper.beta)[:, None]
    psi = (n_ket + hyper.gamma) / (n_ke + num_t * hyper.gamma)[..., None]
    tau = (n_kei + hyper.delta) / (n_ke + num_i * hyper.delta)[..., None]
    return Posterior(theta, phi, psi, tau)


def total_variation(p, q) -> float:
    """Total variation distance between two categorical distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * float(np.abs(p - q).sum())


def greedy_match_traits(phi_fit: np.ndarray, phi_true: np.ndarray) -> list[int]:
    """Greedily pair fitted trait rows with reference rows by TV distance.

    Returns ``perm`` with ``perm[j] = fitted row matched to reference row j``;
    repeatedly takes the globally closest unmatched pair. Used to undo label
    switching before comparing fits.
    """
    phi_fit = np.asarray(phi_fit, dtype=float)
    phi_true = np.asarray(phi_true, dtype=float)
    if phi_fit.shape != phi_true.shape:
        raise ValueError("trait matrices must have equal shapes")
    k = phi_fit.shape[0]
    dist = 0.5 * np.abs(phi_fit[None, :, :] - phi_true[:, None, :]).sum(axis=2)
    perm = [-1] * k
    free_fit = set(range(k))
    free_true = set(range(k))
    for _ in range(k):
        best = None
        for j in sorted(free_true):
            for i in sorted(free_fit):
                d = dist[j, i]
                if best is None or d < best[0]:
                    best = (d, j, i)
        _, j, i = best
        perm[j] = i
        free_true.remove(j)
        free_fit.remove(i)
    return perm


# ---------------------------------------------------------------------------
# Output files, and corpus files: one JSON object per trace, schema in a
# sidecar header file.
# ---------------------------------------------------------------------------


def write_atomic(path, text: str) -> None:
    """Replace ``path`` with ``text`` so readers see the old file or all of the new one.

    The text goes to a fresh temp file in the target's directory, which then
    takes the target's name in one ``os.replace``; on any failure the temp
    file is removed and the old file keeps its bytes. There is no fsync: the
    rename protects against a failing or interrupted writer, not a host crash.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x")  # "x": a fresh name, created with the umask's usual mode
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_json(payload, path) -> None:
    """Write ``payload`` atomically as sorted, indented JSON with a final newline."""
    write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def save_schema(schema: Schema, path) -> None:
    save_json(schema.to_dict(), path)


def load_schema(path) -> Schema:
    return Schema.from_dict(json.loads(Path(path).read_text()))


def save_corpus(corpus: Corpus, path) -> None:
    """Write one trace per line: {"trace_id": ..., "tokens": [[e, t, i], ...]}."""
    write_atomic(path, "".join(
        json.dumps(
            {"trace_id": trace.trace_id, "tokens": trace.tokens},
            sort_keys=True, separators=(",", ":"),
        ) + "\n"
        for trace in corpus.traces
    ))


def load_corpus(path, schema: Schema) -> Corpus:
    """Read a corpus file; every token component must be a plain JSON integer."""
    traces = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                trace_id = rec["trace_id"]
                tokens = tuple(map(Token._make, rec["tokens"]))
                kinds = set(map(type, chain.from_iterable(tokens))) - {int}
                if kinds:  # bool, float and str are not coerced
                    names = ", ".join(sorted(k.__name__ for k in kinds))
                    raise TypeError(f"token components must be integers, got {names}")
                trace = Trace(trace_id, tokens)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed trace record: {exc}") from exc
            traces.append(trace)
    if not traces:
        raise ValueError(f"{path}: corpus has no traces")
    return Corpus(schema, tuple(traces))
