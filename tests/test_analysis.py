import csv
import io
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hbtm import (
    GradeTable,
    Posterior,
    export_trait,
    kmeans,
    pearson,
    run_analysis,
    welch_t_test,
)
from hbtm import analysis, core, generator, sampler
from hbtm.analysis import student_t_two_sided_p


def fake_fit(theta, trace_ids=None):
    theta = np.asarray(theta, dtype=float)
    m, k = theta.shape
    posterior = Posterior(
        theta,
        np.full((k, 3), 1 / 3),
        np.full((k, 3, 2), 0.5),
        np.full((k, 3, 2), 0.5),
    )
    ids = trace_ids or [f"s{i}" for i in range(m)]
    return SimpleNamespace(posterior=posterior, trace_ids=ids)


def grade_table(ids, **columns):
    rows = {}
    for i, tid in enumerate(ids):
        rows[tid] = {g: (vals[i] if vals is not None else None)
                     for g, vals in (("SA", columns.get("SA")),
                                     ("SFE", columns.get("SFE")),
                                     ("FE", columns.get("FE")))}
    return GradeTable(rows)


# --- t distribution --------------------------------------------------------


def test_t_two_sided_p_matches_scipy():
    for t, df in [(0.5, 3), (1.8856, 2.0), (3.6742, 4.0), (-2.2, 17.5), (10.0, 1.0)]:
        want = 2 * stats.t.sf(abs(t), df)
        assert student_t_two_sided_p(t, df) == pytest.approx(want, abs=1e-12)


# --- Welch -----------------------------------------------------------------


def test_welch_identical_groups():
    result = welch_t_test([1, 2, 3], [1, 2, 3])
    assert result.t == 0.0
    assert result.p == 1.0


def test_welch_worked_example():
    result = welch_t_test([1, 2, 3], [4, 5, 6])
    assert result.t == pytest.approx(-3.6742346141747673, abs=1e-9)
    assert result.df == pytest.approx(4.0, abs=1e-12)
    assert result.p == pytest.approx(0.0213116411, abs=1e-4)


def test_welch_antisymmetric():
    a, b = [1.0, 2.5, 3.5, 2.2], [4.1, 5.0, 3.9]
    fwd = welch_t_test(a, b)
    rev = welch_t_test(b, a)
    assert fwd.t == -rev.t
    assert fwd.p == rev.p
    assert fwd.df == rev.df


def test_welch_matches_scipy_reference(rng):
    for _ in range(25):
        a = rng.normal(0.0, 1.0, size=int(rng.integers(2, 30)))
        b = rng.normal(0.3, 2.0, size=int(rng.integers(2, 30)))
        mine = welch_t_test(a, b)
        ref_t, ref_p = stats.ttest_ind(a, b, equal_var=False)
        assert mine.t == pytest.approx(float(ref_t), abs=1e-10)
        assert mine.p == pytest.approx(float(ref_p), abs=1e-10)


def test_welch_shift_invariance(rng):
    a = rng.normal(size=9)
    b = rng.normal(0.4, 1.3, size=7)
    base = welch_t_test(a, b)
    shifted = welch_t_test(a + 100.0, b + 100.0)
    assert shifted.t == pytest.approx(base.t, abs=1e-9)
    assert shifted.p == pytest.approx(base.p, abs=1e-9)


def test_welch_rejects_small_groups():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [1.0, 2.0])


def test_welch_zero_variance_unequal_means():
    result = welch_t_test([2.0, 2.0], [5.0, 5.0])
    assert result.t == -math.inf
    assert result.p == 0.0


def _welch_with(square, a, b):
    """``welch_t_test``'s formula with each squared deviation taken as ``square(d)``."""
    na, nb = len(a), len(b)
    ma, mb = math.fsum(a) / na, math.fsum(b) / nb
    sa = math.fsum(square(v - ma) for v in a) / (na - 1) / na
    sb = math.fsum(square(v - mb) for v in b) / (nb - 1) / nb
    se2 = sa + sb
    t = (ma - mb) / math.sqrt(se2)
    df = se2 * se2 / (sa * sa / (na - 1) + sb * sb / (nb - 1))
    return analysis.TTestResult(t, df, student_t_two_sided_p(t, df))


def test_welch_squares_deviations_with_pow_not_a_multiply():
    # ``** 2`` is libm's pow, which is not always the correctly rounded d * d;
    # a numpy rewrite of the squares would change reported t-tests
    draws = np.random.default_rng(27).normal(size=20_000).tolist()
    odd = [d for d in draws if d ** 2 != d * d]
    a = [v for d in odd[:2] for v in (d, -d)]  # mean exactly 0: each deviation is a draw
    b = [3.0 + v for d in odd[2:4] for v in (d, -d)]
    assert math.fsum(a) == 0.0 and all(d ** 2 != d * d for d in a)
    result = welch_t_test(a, b)
    assert result == _welch_with(lambda d: d ** 2, a, b)
    assert result != _welch_with(lambda d: d * d, a, b)


# --- Pearson ---------------------------------------------------------------


def test_pearson_perfect_line():
    result = pearson([1, 2, 3], [2, 4, 6])
    assert result.r == 1.0
    assert result.p == 0.0


def test_pearson_perfect_negative():
    result = pearson([1, 2, 3], [-1, -2, -3])
    assert result.r == -1.0
    assert result.p == 0.0


def test_pearson_worked_example():
    result = pearson([1, 2, 3, 4], [1, 3, 2, 4])
    assert result.r == pytest.approx(0.8, abs=1e-9)
    assert result.p == pytest.approx(0.2, abs=1e-4)
    assert result.n == 4


def test_pearson_matches_scipy_reference(rng):
    for _ in range(25):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = 0.5 * x + rng.normal(size=n)
        mine = pearson(x, y)
        ref = stats.pearsonr(x, y)
        assert mine.r == pytest.approx(float(ref.statistic), abs=1e-10)
        assert mine.p == pytest.approx(float(ref.pvalue), abs=1e-10)


def test_pearson_affine_invariance(rng):
    x = rng.normal(size=12)
    y = rng.normal(size=12)
    base = pearson(x, y)
    scaled = pearson(3.5 * x + 2.0, y)
    assert scaled.r == pytest.approx(base.r, abs=1e-12)
    assert scaled.p == pytest.approx(base.p, abs=1e-12)
    flipped = pearson(-2.0 * x + 1.0, y)
    assert flipped.r == pytest.approx(-base.r, abs=1e-12)


def test_pearson_input_validation():
    with pytest.raises(ValueError):
        pearson([1, 2], [3, 4])
    with pytest.raises(ValueError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1, 2, 3], [1, 2])


def _pearson_r_with(total, x, y):
    """``pearson``'s r with each sum taken as ``total(array)``."""
    n = len(x)
    dx, dy = x - total(x) / n, y - total(y) / n
    r = float(total(dx * dy)) / math.sqrt(total(dx * dx) * total(dy * dy))
    return max(-1.0, min(1.0, r))


def test_pearson_sums_exactly_not_with_a_float_accumulator():
    # math.fsum's exact sums, not np.sum's pairwise ones: the two give
    # different r for most draws of 50 pairs, so a rewrite would change reports
    x, y = np.random.default_rng(0).normal(size=(2, 50))
    exact = _pearson_r_with(lambda a: math.fsum(a.tolist()), x, y)
    assert pearson(x, y).r == exact
    assert exact != _pearson_r_with(np.sum, x, y)


# --- k-means ---------------------------------------------------------------


def test_kmeans_separates_two_clouds(rng):
    a = rng.normal(0, 0.05, size=(20, 4)) + np.array([1.0, 0.0, 0.0, 0.0])
    b = rng.normal(0, 0.05, size=(15, 4)) + np.array([0.0, 0.0, 0.0, 1.0])
    points = np.vstack([a, b])
    result = kmeans(points, 2, seed=0)
    labels = result.labels
    assert len(set(labels[:20])) == 1
    assert len(set(labels[20:])) == 1
    assert labels[0] != labels[-1]


def test_kmeans_single_cluster(rng):
    points = rng.normal(size=(10, 3))
    result = kmeans(points, 1, seed=0)
    assert set(result.labels.tolist()) == {0}
    np.testing.assert_allclose(result.centroids[0], points.mean(axis=0), atol=1e-12)


def test_kmeans_k_equals_n(rng):
    points = rng.normal(size=(6, 2))
    result = kmeans(points, 6, seed=0)
    assert sorted(result.labels.tolist()) == list(range(6))
    assert result.wcss == pytest.approx(0.0, abs=1e-20)


def test_kmeans_rejects_bad_k(rng):
    points = rng.normal(size=(3, 2))
    with pytest.raises(ValueError):
        kmeans(points, 4, seed=0)
    with pytest.raises(ValueError):
        kmeans(points, 0, seed=0)


def test_kmeans_deterministic(rng):
    points = rng.normal(size=(40, 5))
    a = kmeans(points, 3, seed=9)
    b = kmeans(points, 3, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert a.wcss == b.wcss


def test_kmeans_wcss_nonincreasing_in_iterations(rng):
    # same seed and a single restart: longer runs extend the same trajectory
    points = rng.normal(size=(60, 4))
    wcss = [
        kmeans(points, 4, seed=3, max_iters=i, restarts=1).wcss for i in range(1, 8)
    ]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(wcss, wcss[1:]))


@st.composite
def lloyd_cases(draw):
    """Points, k, seed and max_iters; a third of the cases have fewer distinct
    points than clusters, so a cluster empties and is reseeded."""
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 140))
    k = draw(st.integers(1, min(n, 6)))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["simplex", "spread", "duplicates"]))
    if kind == "simplex":  # rows like theta's trait mixtures
        points = data.dirichlet(np.ones(d), size=n)
    elif kind == "spread":
        points = data.normal(size=(n, d)) * 10.0 ** data.integers(-6, 7, size=d)
    else:
        pool = data.integers(0, 3, size=(draw(st.integers(1, max(1, k - 1))), d)).astype(float)
        points = pool[data.integers(len(pool), size=n)]
    max_iters = draw(st.sampled_from([0, 1, 2, 100]))
    return points, k, draw(st.integers(0, 2**16)), max_iters


def kmeans_without_library(*args, **kwargs):
    with mock.patch.object(sampler, "_library", lambda: None):
        return kmeans(*args, **kwargs)


@settings(max_examples=150, deadline=None)
@given(case=lloyd_cases())
@example(case=(np.linspace(0.0, 1.0, 300)[:, None] ** 3, 2, 0, 100))  # d = 1: summed pairwise
@example(case=(np.eye(140)[:9], 6, 1, 100))  # d > 128: the pairwise sum splits in halves
@example(case=(np.arange(10.0).reshape(5, 2), 5, 2, 100))  # k = n
@example(case=(np.ones((8, 3)), 4, 3, 1))  # one distinct point: three clusters reseeded
def test_compiled_lloyd_matches_the_numpy_reference(case):
    points, k, seed, max_iters = case
    if sampler._library() is None:
        pytest.skip("no compiled library")
    got = kmeans(points, k, seed=seed, max_iters=max_iters, restarts=2)
    want = kmeans_without_library(points, k, seed=seed, max_iters=max_iters, restarts=2)
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tolist() == want.labels.tolist()
    assert got.centroids.shape == want.centroids.shape
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.wcss == want.wcss


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 140), seed=st.integers(0, 2**32 - 1), max_iters=st.sampled_from([0, 1]))
@example(d=140, seed=0, max_iters=0)
def test_compiled_lloyd_breaks_near_ties_as_numpy_does(d, seed, max_iters):
    # from starts v and a shuffle of v, each point a * (1, ..., 1) is equally
    # far from both in exact arithmetic: which one wins depends only on the
    # order the squares are summed in, so a label shows any order change
    if sampler._library() is None:
        pytest.skip("no compiled library")
    data = np.random.default_rng(seed)
    v = data.random(d)
    starts = np.stack([v, data.permutation(v)])
    points = np.vstack([starts, np.outer(data.random(200), np.ones(d))])
    with mock.patch.object(analysis, "_kmeans_pp_init", lambda *_: starts.copy()):
        got = kmeans(points, 2, max_iters=max_iters, restarts=1)
        want = kmeans_without_library(points, 2, max_iters=max_iters, restarts=1)
    assert got.labels.tolist() == want.labels.tolist()
    assert got.centroids.tobytes() == want.centroids.tobytes()


def test_kmeans_runs_the_compiled_loop_when_the_library_loads(rng, monkeypatch):
    if sampler._library() is None:
        pytest.skip("no compiled library")
    points = rng.random((50, 4))
    want = kmeans_without_library(points, 2, seed=5)
    monkeypatch.setattr(analysis, "_reference_lloyd",
                        lambda *_: pytest.fail("numpy Lloyd loop ran beside the library"))
    got = kmeans(points, 2, seed=5)
    assert got.labels.tolist() == want.labels.tolist() and got.wcss == want.wcss


def test_kmeans_reads_a_non_contiguous_array_as_its_copy(rng):
    points = np.asfortranarray(rng.random((30, 5)))
    got, want = kmeans(points, 3, seed=4), kmeans(points.copy(order="C"), 3, seed=4)
    assert got.labels.tolist() == want.labels.tolist()
    assert got.centroids.tobytes() == want.centroids.tobytes()


# --- grades ----------------------------------------------------------------


def test_grade_table_from_csv(tmp_path):
    path = tmp_path / "grades.csv"
    path.write_text("trace_id,SA,SFE,FE\ns1,4,2.5,88\ns2,,1.0, \n")
    table = GradeTable.from_csv(path)
    assert table.get("s1", "SA") == 4.0
    assert table.get("s2", "SA") is None
    assert table.get("s2", "SFE") == 1.0
    assert table.get("s2", "FE") is None  # whitespace-only cell is missing too


def test_grade_table_reads_a_quoted_first_header_field_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "grades.csv"
    path.write_text('\ufeff"trace_id",SA,SFE,FE\ns1,4,2.5,88\n', encoding="utf-8")
    assert GradeTable.from_csv(path).scores == {"s1": {"SA": 4.0, "SFE": 2.5, "FE": 88.0}}


def test_grade_table_range_validation(tmp_path):
    path = tmp_path / "grades.csv"
    path.write_text("trace_id,SA,SFE,FE\ns1,9,1,50\n")
    with pytest.raises(ValueError, match="SA"):
        GradeTable.from_csv(path)


def test_grade_table_accepts_each_grade_at_its_bounds(tmp_path):
    path = tmp_path / "grades.csv"
    path.write_text("trace_id,SA,SFE,FE\ns1,5,100,100\ns2,0,0,0\n")
    table = GradeTable.from_csv(path)
    assert [table.get(t, "SFE") for t in ("s1", "s2")] == [100.0, 0.0]


def test_grade_table_duplicate_ids(tmp_path):
    path = tmp_path / "grades.csv"
    path.write_text("trace_id,SA,SFE,FE\ns1,1,1,50\ns1,2,2,60\n")
    with pytest.raises(ValueError, match="duplicate"):
        GradeTable.from_csv(path)


def _grade_table_with_dict_reader(path):
    """``GradeTable.from_csv`` as first written, over ``csv.DictReader``: the oracle."""
    scores = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(core.skip_bom(fh))
        needed = {"trace_id", *analysis.GRADE_TYPES}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise ValueError(f"grades CSV must have columns {sorted(needed)}")
        for row in reader:
            if row["trace_id"] is None:  # where DictReader's own code met an AttributeError
                raise ValueError(
                    f"grades CSV line {reader.line_num} ends before its trace_id column")
            trace_id = row["trace_id"].strip()
            if trace_id in scores:
                raise ValueError(f"duplicate trace_id '{trace_id}' in grades CSV")
            scores[trace_id] = {
                g: (float(row[g]) if row[g] is not None and row[g].strip() else None)
                for g in analysis.GRADE_TYPES
            }
    return GradeTable(scores)


def _grade_outcome(read, path):
    """The scores ``read(path)`` returns, or the type and message of what it raises."""
    try:
        return read(path).scores
    except Exception as exc:
        return type(exc), str(exc)


def _grades(sa, sfe, fe):
    return {"SA": sa, "SFE": sfe, "FE": fe}


@pytest.mark.parametrize("text, want", [
    pytest.param("trace_id,SA,SFE,FE\n\ns1,1,2,3\n\n\r\ns2,,50,\n",
                 {"s1": _grades(1.0, 2.0, 3.0), "s2": _grades(None, 50.0, None)},
                 id="blank lines are skipped"),
    pytest.param("\ufefftrace_id,SA,SFE,FE\ns1,1,2,3\n", {"s1": _grades(1.0, 2.0, 3.0)},
                 id="a byte-order mark is dropped"),
    pytest.param("trace_id,SA,SFE,FE,SA\ns1,1,2,3,4\ns2,1,2,3\n",
                 {"s1": _grades(4.0, 2.0, 3.0), "s2": _grades(None, 2.0, 3.0)},
                 id="a repeated name reads its last column"),
    pytest.param("trace_id,SA,SFE,FE\ns1,1\ns2\n",
                 {"s1": _grades(1.0, None, None), "s2": _grades(None, None, None)},
                 id="a short row's missing cells are missing grades"),
    pytest.param("trace_id,SA,SFE,FE\ns1,1,2,3,junk,\"x,y\"\n", {"s1": _grades(1.0, 2.0, 3.0)},
                 id="extra cells are ignored"),
    pytest.param("FE,note,trace_id,SFE,SA\r\n3,a,s1,2,1\r\n", {"s1": _grades(1.0, 2.0, 3.0)},
                 id="columns in any order"),
])
def test_grade_table_reads_as_dict_reader_does(tmp_path, text, want):
    path = tmp_path / "grades.csv"
    path.write_bytes(text.encode())
    assert GradeTable.from_csv(path).scores == want
    assert _grade_outcome(_grade_table_with_dict_reader, path) == want


@pytest.mark.parametrize("text", [
    pytest.param("", id="empty file"),
    pytest.param("\ntrace_id,SA,SFE,FE\ns1,1,2,3\n", id="blank header line"),
    pytest.param("trace_id,SA,SFE\ns1,1,2\n", id="missing column"),
    pytest.param("trace_id,SA,SFE,FE\ns1,1,2,3\n s1 ,,,\n", id="duplicate id"),
    pytest.param("trace_id,SA,SFE,FE\ns1,4,x,3\n", id="not a number"),
    pytest.param("trace_id,SA,SFE,FE\ns1,4,2,nan\n", id="not finite"),
    pytest.param("trace_id,SA,SFE,FE\ns1,6,2,3\n", id="out of range"),
    pytest.param("SA,SFE,FE,trace_id\n1,2\n", id="short row without its trace id"),
    pytest.param("trace_id,SA,SFE,FE\ns1,1,2,3\ns2,\x00,2,3\n", id="NUL byte"),
    pytest.param('trace_id,SA,SFE,FE\ns1,"1,2,3\n', id="unclosed quote"),
])
def test_grade_table_raises_what_dict_reader_raised(tmp_path, text):
    path = tmp_path / "grades.csv"
    path.write_bytes(text.encode())
    outcome = _grade_outcome(GradeTable.from_csv, path)
    assert isinstance(outcome, tuple)
    assert outcome == _grade_outcome(_grade_table_with_dict_reader, path)


@pytest.mark.parametrize("text, line", [
    ("SA,SFE,FE,trace_id\n1,2\n", 2),
    ("trace_id,SA,SFE,FE,trace_id\ns1,1,2,3,s1\n\ns2,1,2,3\n", 4),
    ('SA,SFE,FE,trace_id\n1,2,3,s1\n"4\n5",6\n', 4),
])
def test_a_row_that_ends_before_its_trace_id_is_a_value_error_naming_its_line(tmp_path, text,
                                                                                line):
    path = tmp_path / "grades.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        GradeTable.from_csv(path)
    assert str(excinfo.value) == f"grades CSV line {line} ends before its trace_id column"


_GRADE_CELLS = st.sampled_from(["trace_id", "SA", "SFE", "FE", "s1", "s2", " s1", "1", "2.5",
                                "99", "-1", "x", "", " ", '"4"', '"a,b"', '"a\nb"'])


@settings(max_examples=200, deadline=None)
@given(header=st.lists(_GRADE_CELLS, max_size=7),
       rows=st.lists(st.lists(_GRADE_CELLS, max_size=7), max_size=6),
       bom=st.booleans(), newline=st.sampled_from(["\n", "\r\n"]))
@example(header=["trace_id", "SA", "SFE", "FE"], rows=[["s1", "1", "2.5", "99"], [], ["s2"]],
         bom=True, newline="\r\n")
def test_grade_table_reads_any_text_as_dict_reader_does(tmp_path_factory, header, rows, bom,
                                                        newline):
    lines = [",".join(header), *(",".join(row) for row in rows)]
    path = tmp_path_factory.mktemp("grades") / "grades.csv"
    path.write_bytes((("\ufeff" if bom else "") + newline.join(lines) + newline).encode())
    assert (_grade_outcome(GradeTable.from_csv, path)
            == _grade_outcome(_grade_table_with_dict_reader, path))


# --- full analysis ---------------------------------------------------------


def test_run_analysis_empty_join():
    fit = fake_fit(np.full((4, 2), 0.5))
    grades = grade_table(["unknown1", "unknown2"], SA=[1.0, 2.0])
    with pytest.raises(ValueError, match="empty join"):
        run_analysis(fit, grades)


def test_run_analysis_identical_grades_never_significant(rng):
    theta = rng.dirichlet([1.0, 1.0, 1.0], size=12)
    fit = fake_fit(theta)
    grades = grade_table(fit.trace_ids, SA=[3.0] * 12, SFE=[1.0] * 12, FE=[70.0] * 12)
    report = run_analysis(fit, grades)
    assert [c for c in report.correlations if c.get("significant")] == []
    for entry in report.ttests.values():
        assert entry.get("significant") is not True
    for entry in report.correlations:
        assert "skipped" in entry  # constant grades are rejected, not tested


def test_run_analysis_vacuous_threshold(rng):
    theta = rng.dirichlet([1.0] * 2, size=16)
    fit = fake_fit(theta)
    grades = grade_table(fit.trace_ids, SA=list(rng.uniform(0, 5, 16)))
    report = run_analysis(fit, grades, threshold=1.0)
    computed = [c for c in report.correlations if "r" in c]
    assert computed and all(c["significant"] for c in computed)


def test_run_analysis_constructed_signal(rng):
    # grade driven by trait 0 weight: trait 1 (1-based) must flag (+)
    theta = rng.dirichlet([1.0, 1.0, 1.0], size=40)
    fit = fake_fit(theta)
    sa = 10.0 * theta[:, 0] * 0.5 + rng.normal(0, 0.05, 40)
    sa = np.clip(sa, 0.0, 5.0)
    grades = grade_table(fit.trace_ids, SA=list(sa))
    report = run_analysis(fit, grades)
    entry = next(c for c in report.correlations if c["trait"] == 1 and c["grade"] == "SA")
    assert entry["significant"] and entry["sign"] == "+"


def test_run_analysis_cluster_labels_ordered_by_size(rng):
    a = rng.dirichlet([8.0, 1.0], size=30)
    b = rng.dirichlet([1.0, 8.0], size=10)
    theta = np.vstack([a, b])
    fit = fake_fit(theta)
    grades = grade_table(fit.trace_ids, SA=list(rng.uniform(0, 5, 40)))
    report = run_analysis(fit, grades)
    assert report.cluster_sizes[0] >= report.cluster_sizes[1]
    assert sum(report.cluster_sizes) == 40
    assert set(report.cluster_labels.values()) == {0, 1}


def test_run_analysis_skips_thin_clusters(rng):
    theta = rng.dirichlet([1.0, 1.0], size=8)
    fit = fake_fit(theta)
    sa = [1.0, 2.0] + [None] * 6
    grades = grade_table(fit.trace_ids, SA=sa, SFE=list(rng.uniform(0, 3, 8)))
    report = run_analysis(fit, grades)
    assert "skipped" in report.ttests["SA"] or report.ttests["SA"]["group_sizes"][1] >= 2


def test_run_analysis_missing_grade_type_skipped(rng):
    theta = rng.dirichlet([1.0, 1.0], size=10)
    fit = fake_fit(theta)
    grades = grade_table(fit.trace_ids, SFE=list(rng.uniform(0, 3, 10)))
    report = run_analysis(fit, grades)
    assert report.ttests["SA"] == {
        "group_sizes": [0, 0],
        "skipped": "fewer than 2 scored traces in a cluster",
    }
    sa_corrs = [c for c in report.correlations if c["grade"] == "SA"]
    assert all("skipped" in c for c in sa_corrs)


def test_run_analysis_tests_each_grade_over_its_scored_traces(rng):
    theta = rng.dirichlet([1.0, 1.0, 1.0], size=30)
    fit = fake_fit(theta)
    sa = [None if m % 4 == 0 else float(v) for m, v in enumerate(rng.uniform(0, 5, 30))]
    fe = [None if m % 3 == 1 else float(v) for m, v in enumerate(rng.uniform(0, 100, 30))]
    grades = grade_table(fit.trace_ids[:-2], SA=sa[:-2], FE=fe[:-2])  # two traces ungraded
    report = run_analysis(fit, grades)
    columns = {"SA": sa[:-2], "SFE": [None] * 28, "FE": fe[:-2]}
    for entry in report.correlations:
        column = columns[entry["grade"]]
        pairs = [(float(theta[m, entry["trait"] - 1]), v) for m, v in enumerate(column) if v is not None]
        assert entry["n"] == len(pairs)
        if "r" in entry:
            assert (entry["r"], entry["p"]) == tuple(pearson(*zip(*pairs)))[:2]
    for grade_type in ("SA", "FE"):
        groups = ([], [])
        for tid, v in zip(fit.trace_ids, columns[grade_type]):
            if v is not None:
                groups[report.cluster_labels[tid]].append(v)
        assert report.ttests[grade_type]["group_sizes"] == [len(groups[0]), len(groups[1])]
        assert report.ttests[grade_type]["t"] == welch_t_test(*groups).t


@st.composite
def correlation_cases(draw):
    """The arguments of ``_correlation_case``: any count of scored traces per grade."""
    traces = draw(st.integers(4, 40))
    return dict(seed=draw(st.integers(0, 2**32 - 1)), traces=traces,
                traits=draw(st.integers(1, 5)),
                counts={g: draw(st.integers(0, traces - 1)) for g in analysis.GRADE_TYPES},
                constant_trait=draw(st.booleans()),
                constant_grade=draw(st.sampled_from([None, *analysis.GRADE_TYPES])))


def _correlation_case(seed, traces, traits, counts, constant_trait, constant_grade):
    """A fit and grades: grade g scored on ``counts[g]`` traces of its own, the last ungraded.

    With ``constant_trait``, trait 1 is 0.25 in every trace (with one trait,
    it is 1 anyway); ``constant_grade`` gives one score to all its traces.
    """
    data = np.random.default_rng(seed)
    theta = data.dirichlet(np.ones(traits), size=traces)
    if constant_trait and traits > 1:
        theta[:, 0] = 0.25
        theta[:, 1:] *= 0.75 / theta[:, 1:].sum(axis=1, keepdims=True)
    fit = fake_fit(theta)
    scores = {tid: dict.fromkeys(analysis.GRADE_TYPES) for tid in fit.trace_ids[:-1]}
    for g, count in counts.items():
        low, high = analysis.GRADE_RANGES[g]
        values = data.uniform(low, high, size=count)
        if g == constant_grade:
            values[:] = high / 2
        for m, value in zip(data.permutation(traces - 1)[:count], values.tolist()):
            scores[fit.trace_ids[m]][g] = value
    return fit, GradeTable(scores)


@settings(max_examples=150, deadline=None)
@given(case=correlation_cases())
@example(case=dict(seed=0, traces=12, traits=3, counts={"SA": 0, "SFE": 1, "FE": 2},
                   constant_trait=True, constant_grade=None))  # too few scores for each grade
@example(case=dict(seed=1, traces=12, traits=3, counts={"SA": 3, "SFE": 11, "FE": 7},
                   constant_trait=True, constant_grade="FE"))  # a constant trait and grade
@example(case=dict(seed=2, traces=10, traits=4, counts={"SA": 9, "SFE": 9, "FE": 9},
                   constant_trait=False, constant_grade=None))  # one row set for every grade
def test_run_analysis_correlates_each_pair_as_pearson_does(case):
    fit, grades = _correlation_case(**case)
    theta, ids = fit.posterior.theta, fit.trace_ids
    report = run_analysis(fit, grades, threshold=0.3)
    want = []
    for k in range(theta.shape[1]):
        for g in analysis.GRADE_TYPES:
            rows = [m for m, tid in enumerate(ids) if grades.get(tid, g) is not None]
            entry = {"trait": k + 1, "grade": g, "n": len(rows)}
            try:
                result = pearson(theta[rows, k], [grades.get(ids[m], g) for m in rows])
            except ValueError as exc:
                entry["skipped"] = "fewer than 3 scored traces" if len(rows) < 3 else str(exc)
            else:
                entry.update(r=result.r, p=result.p, significant=result.p < 0.3,
                             sign="+" if result.r > 0 else "-")
            want.append(entry)
    assert report.correlations == want


@pytest.fixture(scope="module")
def generated_fit():
    """A K=5 fit of 4,000 generated traces of 10 tokens."""
    schema, hyper = generator.synthetic_schema(6, 3, 2), core.Hyperparams()
    params = generator.sample_params(4, 4000, schema, hyper, seed=27)
    corpus = generator.generate(params, [10] * 4000, seed=27).corpus
    return sampler.fit(corpus, sampler.FitConfig(num_traits=5, sweeps=4, burn_in=2,
                                                 sample_stride=1, seed=27))


def test_run_analysis_report_is_the_same_without_the_library(generated_fit, tmp_path):
    ids = generated_fit.trace_ids
    rng = np.random.default_rng(27)
    scores = {tid: {"SA": None if m % 7 == 3 else float(rng.uniform(0, 5)),  # its own blanks
                    "SFE": None if m % 2 else 2.5,  # constant: the correlations skip it
                    "FE": float(rng.uniform(0, 100)) if m in (5, 900) else None}  # 2 scored
              for m, tid in enumerate(ids[:-100])}  # the last 100 traces ungraded
    grades = GradeTable(scores)

    def analyze(name):
        report = run_analysis(generated_fit, grades).to_json_dict()
        core.save_json(report, tmp_path / name)
        return report, (tmp_path / name).read_bytes()

    with_library = analyze("with.json")
    with mock.patch.object(sampler, "_library", lambda: None):
        without = analyze("without.json")
    assert with_library == without
    skips = {(c["grade"], c.get("skipped")) for c in with_library[0]["correlations"]}
    assert skips == {("SA", None), ("SFE", "correlation undefined for a constant input"),
                     ("FE", "fewer than 3 scored traces")}


# --- trait profiles --------------------------------------------------------


def _profile_tables(text):
    """Each kind's probabilities in ``export_trait``'s CSV, one row per event label."""
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    assert rows[0] == ["kind", "event_label", "bin_index", "probability"]
    tables = {"event": {}, "time": {}, "interaction": {}}
    for kind, label, _bin, p in rows[1:]:
        tables[kind].setdefault(label, []).append(float(p))
    return {kind: np.array(list(table.values())) for kind, table in tables.items()}


def test_export_trait_uniform_rows():
    posterior = Posterior(
        np.full((2, 3), 1 / 3),
        np.full((3, 4), 0.25),
        np.full((3, 4, 2), 0.5),
        np.full((3, 4, 5), 0.2),
    )
    tables = _profile_tables(export_trait(posterior, 1))
    np.testing.assert_array_equal(tables["event"].ravel(), np.full(4, 0.25))
    assert tables["time"].shape == (4, 2)
    assert tables["interaction"].shape == (4, 5)


def test_export_trait_rows_sum_to_one(rng):
    k, e, t, i = 3, 5, 4, 2
    posterior = Posterior(
        rng.dirichlet(np.ones(k), size=6),
        rng.dirichlet(np.ones(e), size=k),
        rng.dirichlet(np.ones(t), size=(k, e)),
        rng.dirichlet(np.ones(i), size=(k, e)),
    )
    tables = _profile_tables(export_trait(posterior, 2))
    assert tables["event"].sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(tables["time"].sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(tables["interaction"].sum(axis=1), 1.0, atol=1e-12)


def test_export_trait_out_of_range():
    posterior = Posterior(
        np.full((1, 2), 0.5),
        np.full((2, 2), 0.5),
        np.full((2, 2, 2), 0.5),
        np.full((2, 2, 2), 0.5),
    )
    with pytest.raises(ValueError):
        export_trait(posterior, 2)


def test_trait_profile_csv_round_trip(rng):
    k, e, t, i = 2, 4, 3, 2
    posterior = Posterior(
        rng.dirichlet(np.ones(k), size=5),
        rng.dirichlet(np.ones(e), size=k),
        rng.dirichlet(np.ones(t), size=(k, e)),
        rng.dirichlet(np.ones(i), size=(k, e)),
    )
    labels = ("a", "b, with comma", "c", "d")
    text = export_trait(posterior, 0, event_labels=labels, header_comment="config: {}")
    assert text.startswith("# config: {}\n")
    rows = list(csv.reader(text.splitlines()[1:]))
    assert rows[0] == ["kind", "event_label", "bin_index", "probability"]
    by_kind = {kind: [row for row in rows[1:] if row[0] == kind]
               for kind in ("event", "time", "interaction")}
    assert len(rows) == 1 + sum(map(len, by_kind.values()))
    assert tuple(row[1] for row in by_kind["event"]) == labels
    for kind, table in (("event", posterior.phi[0]), ("time", posterior.psi[0]),
                        ("interaction", posterior.tau[0])):
        assert [float(row[3]) for row in by_kind[kind]] == table.ravel().tolist()


def test_trait_profile_csv_is_one_based():
    posterior = Posterior(
        np.full((1, 1), 1.0),
        np.full((1, 2), 0.5),
        np.full((1, 2, 3), 1 / 3),
        np.full((1, 2, 2), 0.5),
    )
    text = export_trait(posterior, 0)
    lines = text.splitlines()
    assert lines[0] == "kind,event_label,bin_index,probability"
    assert lines[1].startswith("event,event 1,1,")
    time_rows = [ln for ln in lines if ln.startswith("time,")]
    assert time_rows[0].split(",")[2] == "1"
    assert time_rows[-1].split(",")[2] == "3"


def _export_trait_with_csv_writer(posterior, k, event_labels=None, header_comment=None):
    """``export_trait`` as first written, one ``csv.writer`` row per line: the oracle."""
    if event_labels is None:
        event_labels = tuple(f"event {e + 1}" for e in range(posterior.phi.shape[1]))
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


def _random_posterior(seed, events, traits=2):
    data = np.random.default_rng(seed)
    return Posterior(data.dirichlet(np.ones(traits), size=3),
                     data.dirichlet(np.ones(events), size=traits),
                     data.dirichlet(np.ones(4), size=(traits, events)),
                     data.dirichlet(np.ones(3), size=(traits, events)))


AWKWARD_LABELS = ("", ",", '"', "a\nb", "a\rb", " padded ", "Übung 練習")


@pytest.mark.parametrize("header_comment", [None, "", "model_k20.json, seed 1"])
@pytest.mark.parametrize("labels", [AWKWARD_LABELS, None], ids=["awkward labels", "default labels"])
def test_export_trait_writes_what_csv_writer_wrote(header_comment, labels):
    posterior = _random_posterior(35, len(AWKWARD_LABELS))
    for k in range(posterior.num_traits):
        want = _export_trait_with_csv_writer(posterior, k, labels, header_comment)
        assert export_trait(posterior, k, labels, header_comment) == want


@settings(max_examples=100, deadline=None)
@given(labels=st.lists(st.text(max_size=6), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_export_trait_spells_any_label_as_csv_writer_does(labels, seed):
    posterior = _random_posterior(seed, len(labels), traits=1)
    assert export_trait(posterior, 0, labels) == _export_trait_with_csv_writer(posterior, 0, labels)
