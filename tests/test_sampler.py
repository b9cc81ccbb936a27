import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from hbtm import (
    Corpus,
    CountConsistencyError,
    FitConfig,
    Hyperparams,
    ModelState,
    Token,
    Trace,
    collapsed_log_joint,
    estimate_posterior,
    fit,
    generate,
    gibbs_sweep,
    init_state,
    load_fit_result,
    reference_sweep,
    sample_params,
    save_corpus,
    save_schema,
    synthetic_schema,
)
from hbtm import sampler
from hbtm.cli import main
from hbtm.core import save_json
from hbtm.sampler import _TABLES, _dm_log_marginal

from conftest import greedy_match_traits, leave_one_out_weights, random_corpus, total_variation

HYPER1 = Hyperparams(1.0, 1.0, 1.0, 1.0)


def state_of(corpus, num_traits, flat_z):
    """A state with known assignments, in trace order, then token order."""
    return ModelState(corpus, num_traits, flat_z, np.random.default_rng(0))


def enumerate_exact_posterior(corpus, num_traits, hyper):
    """Brute-force assignment posterior over all num_traits**N configurations."""
    configs = list(itertools.product(range(num_traits), repeat=corpus.num_tokens))
    log_weights = [collapsed_log_joint(state_of(corpus, num_traits, flat), hyper)
                   for flat in configs]
    lw = np.array(log_weights)
    w = np.exp(lw - lw.max())
    return configs, w / w.sum()


# --- configuration ---------------------------------------------------------


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(num_traits=0)
    with pytest.raises(ValueError):
        FitConfig(num_traits=2, sweeps=10, burn_in=10)
    with pytest.raises(ValueError):
        FitConfig(num_traits=2, sweeps=10, burn_in=9, sample_stride=5)  # nothing retained
    FitConfig(num_traits=2, sweeps=10, burn_in=9, sample_stride=1)


# --- initialization --------------------------------------------------------


def test_init_state_single_trait(rng):
    corpus = random_corpus(rng)
    state = init_state(corpus, FitConfig(num_traits=1, sweeps=2, burn_in=1, sample_stride=1))
    assert all(z == 0 for z in state.z)
    assert state.n_k == [corpus.num_tokens]
    assert state.count_violations() == []


def test_init_state_deterministic(rng):
    corpus = random_corpus(rng)
    cfg = FitConfig(num_traits=3, sweeps=2, burn_in=1, sample_stride=1, seed=42)
    a = init_state(corpus, cfg)
    b = init_state(corpus, cfg)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.n_mk, b.n_mk) and np.array_equal(a.n_ket, b.n_ket)


def test_init_state_rejects_invalid_corpus():
    corpus = Corpus(synthetic_schema(2, 2, 2), (Trace("a", ()),))
    with pytest.raises(ValueError, match="empty trace"):
        init_state(corpus, FitConfig(num_traits=2, sweeps=2, burn_in=1, sample_stride=1))


def test_audit_detects_corruption(rng):
    corpus = random_corpus(rng)
    state = ModelState.random_init(corpus, 2, seed=0)
    state.n_k[0] += 1
    assert state.count_violations() != []
    with pytest.raises(CountConsistencyError):
        state.audit()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 3),
       st.sampled_from(_TABLES), st.integers(0, 2**20),
       st.integers(-40, 40).filter(bool))
def test_audit_flags_one_corrupted_cell_of_any_table(seed, num_traits, sweeps, name, cell, shift):
    rng = np.random.default_rng(seed)
    state = ModelState.random_init(random_corpus(rng), num_traits, seed)
    for _ in range(sweeps):
        gibbs_sweep(state, Hyperparams())
    assert state.count_violations() == []
    state.audit()
    flat = getattr(state, name).reshape(-1)  # a view: writes reach the table
    cell %= flat.size
    flat[cell] += shift  # negative whenever shift is below minus the count
    assert state.count_violations() != []
    with pytest.raises(CountConsistencyError):
        state.audit()


# --- conditional weights ---------------------------------------------------


def test_conditional_weights_hand_example():
    # K=2, E=2, T=1, I=1 so the time/interaction factors collapse to 1;
    # decremented counts: n_mk=(1,0), n_0e=1, n_0=2, n_1e=0, n_1=0
    schema = synthetic_schema(2, 1, 1)
    corpus = Corpus(
        schema,
        (
            Trace("t0", (Token(0, 0, 0), Token(0, 0, 0))),
            Trace("t1", (Token(1, 0, 0),)),
        ),
    )
    weights = leave_one_out_weights(state_of(corpus, 2, [0, 0, 0]), 1, HYPER1).tolist()
    assert weights == [1.0, 0.5]
    total = sum(weights)
    assert [w / total for w in weights] == pytest.approx([2 / 3, 1 / 3], abs=1e-15)


def test_conditional_weights_uniform_on_empty_tables():
    corpus = Corpus(synthetic_schema(3, 2, 2), (Trace("a", (Token(1, 0, 1),)),))
    weights = leave_one_out_weights(state_of(corpus, 4, [2]), 0, Hyperparams(0.7, 0.3, 0.9, 0.4))
    assert max(weights) == pytest.approx(min(weights), rel=1e-15)


def test_conditional_weights_single_trait(rng):
    corpus = random_corpus(rng)
    state = ModelState.random_init(corpus, 1, seed=0)
    assert len(leave_one_out_weights(state, 0, HYPER1)) == 1


def test_conditional_weights_match_enumerated_conditionals(rng):
    # normalized weights must equal the conditional implied by the collapsed
    # joint itself: p(z_j = k | rest) over the two full configurations
    corpus = random_corpus(rng, num_traces=2, tokens_range=(2, 4))
    num_traits = 3
    hyper = Hyperparams(0.8, 0.25, 0.5, 1.3)
    for trial in range(10):
        z = [int(v) for v in rng.integers(0, num_traits, corpus.num_tokens)]
        j = int(rng.integers(corpus.num_tokens))

        log_joint = []
        for k in range(num_traits):
            zz = list(z)
            zz[j] = k
            log_joint.append(collapsed_log_joint(state_of(corpus, num_traits, zz), hyper))
        ref = np.exp(np.array(log_joint) - max(log_joint))
        ref /= ref.sum()

        weights = leave_one_out_weights(state_of(corpus, num_traits, z), j, hyper)
        weights /= weights.sum()
        np.testing.assert_allclose(weights, ref, atol=1e-12)


# --- sweeps ----------------------------------------------------------------


def test_sweep_single_trait_leaves_the_state_unchanged(rng):
    corpus = random_corpus(rng)
    state = ModelState.random_init(corpus, 1, seed=0)
    before = [state.z.tolist(), state.n_mk.tolist()]
    gibbs_sweep(state, HYPER1)
    assert state.z.tolist() == before[0]
    assert state.n_mk.tolist() == before[1]


def test_sweep_deterministic_from_cloned_state(rng):
    corpus = random_corpus(rng)
    state = ModelState.random_init(corpus, 3, seed=9)
    twin = ModelState.random_init(corpus, 3, seed=9)
    for _ in range(3):
        gibbs_sweep(state, HYPER1)
        gibbs_sweep(twin, HYPER1)
    assert np.array_equal(state.z, twin.z)
    assert np.array_equal(state.n_ket, twin.n_ket)


def test_sweep_preserves_count_invariants(rng):
    corpus = random_corpus(rng, num_traces=6, tokens_range=(2, 12))
    state = ModelState.random_init(corpus, 4, seed=1)
    for _ in range(5):
        gibbs_sweep(state, Hyperparams())
        assert state.count_violations() == []


def test_sweep_equals_manual_replay(rng):
    # the sweep must be exactly: per token in flat order, the full conditional
    # from the other tokens' counts, then a cumulative pick with one uniform
    corpus = random_corpus(rng)
    hyper = Hyperparams(0.9, 0.2, 0.4, 0.7)
    state = ModelState.random_init(corpus, 3, seed=31)
    replay = ModelState.random_init(corpus, 3, seed=31)

    gibbs_sweep(state, hyper)

    uniforms = replay.rng.random(replay.token_count).tolist()
    for j in range(replay.token_count):
        cum = list(accumulate(leave_one_out_weights(replay, j, hyper).tolist()))
        k = bisect_right(cum, uniforms[j] * cum[-1])
        replay.z[j] = min(k, replay.num_traits - 1)
    assert np.array_equal(replay.z, state.z)


def _sweep_outcome(sweep, state, hyper, sweeps=3):
    """Run sweeps; the ValueError message that stopped them, or None."""
    try:
        for _ in range(sweeps):
            sweep(state, hyper)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def sweep_cases(draw):
    num_events = draw(st.integers(1, 4))
    num_time_bins = draw(st.integers(1, 3))
    num_levels = draw(st.integers(1, 3))
    traces = tuple(
        Trace(f"t{m}", tuple(
            Token(draw(st.integers(0, num_events - 1)), draw(st.integers(0, num_time_bins - 1)),
                  draw(st.integers(0, num_levels - 1)))
            for _ in range(draw(st.integers(1, 6)))
        ))
        for m in range(draw(st.integers(1, 5)))
    )
    corpus = Corpus(synthetic_schema(num_events, num_time_bins, num_levels), traces)
    concentration = st.one_of(st.floats(1e-3, 10.0), st.just(1e-120))
    hyper = Hyperparams(*(draw(concentration) for _ in range(4)))
    return corpus, draw(st.integers(1, 6)), hyper, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(sweep_cases())
def test_compiled_sweep_matches_reference_sweep(case):
    corpus, num_traits, hyper, seed = case
    state = ModelState.random_init(corpus, num_traits, seed)
    twin = ModelState.random_init(corpus, num_traits, seed)
    compiled = _sweep_outcome(gibbs_sweep, state, hyper)
    reference = _sweep_outcome(reference_sweep, twin, hyper)
    assert compiled == reference
    assert np.array_equal(state.z, twin.z)
    for name in _TABLES:
        assert np.array_equal(getattr(state, name), getattr(twin, name)), name
    assert state.rng.bit_generator.state == twin.rng.bit_generator.state
    assert state.count_violations() == []


def _encodings_by_token(corpus):
    """The per-token encoding build, kept as the reference for ``ModelState``."""
    codes = [
        (m, tok.event, tok.time_bin, tok.interaction_level)
        for m, trace in enumerate(corpus.traces)
        for tok in trace.tokens
    ]
    return np.array(codes, dtype=np.int64).reshape(-1, 4).T.copy()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_state_encodings_match_the_per_token_build(num_traces, seed):
    rng = np.random.default_rng(seed)
    corpus = random_corpus(rng, num_traces=num_traces, tokens_range=(0, 6))  # empty traces too
    state = ModelState.random_init(corpus, 3, seed)
    expected = _encodings_by_token(corpus)
    for name, want in zip(("_m_idx", "_e_idx", "_t_idx", "_i_idx"), expected):
        got = getattr(state, name)
        assert got.dtype == np.int64 and got.flags.c_contiguous, name
        assert np.array_equal(got, want), name
    assert state.num_traces == num_traces
    assert state.count_violations() == []


def test_underflowing_weights_raise_the_same_error_on_both_paths(rng):
    corpus = random_corpus(rng)
    tiny = Hyperparams(1e-120, 1e-120, 1e-120, 1e-120)
    # more traits than tokens: an empty trait's denominator underflows to 0
    state = ModelState.random_init(corpus, corpus.num_tokens + 1, seed=0)
    twin = ModelState.random_init(corpus, corpus.num_tokens + 1, seed=0)
    with pytest.raises(ValueError, match="flat token 0 .* hyperparameters are too small") as fast:
        gibbs_sweep(state, tiny)
    with pytest.raises(ValueError) as slow:
        reference_sweep(twin, tiny)
    assert str(fast.value) == str(slow.value)
    assert np.array_equal(state.z, twin.z)
    assert state.count_violations() == [] and twin.count_violations() == []


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("sweep", [gibbs_sweep, reference_sweep],
                         ids=["gibbs_sweep", "reference_sweep"])
def test_both_sweeps_reject_an_out_of_range_assignment_before_writing_it(rng, sweep, bad):
    # tokens 0 and 1 are resampled and written back; nothing is written for token 2
    corpus = random_corpus(rng)
    state = ModelState.random_init(corpus, 3, seed=0)
    replay = ModelState.random_init(corpus, 3, seed=0)
    state.z[2] = bad
    with pytest.raises(ValueError) as raised:
        sweep(state, HYPER1)
    assert str(raised.value) == "trait assignment of flat token 2 outside [0, num_traits)"
    uniforms = replay.rng.random(replay.token_count).tolist()
    for j in range(2):
        cum = list(accumulate(leave_one_out_weights(replay, j, HYPER1).tolist()))
        replay.z[j] = min(bisect_right(cum, uniforms[j] * cum[-1]), 2)
    # the tables still count token 2 under the trait it had before z was corrupted
    for name, want in zip(_TABLES, replay._recount()):
        assert np.array_equal(getattr(state, name), want), name
    replay.z[2] = bad
    assert np.array_equal(state.z, replay.z)
    assert state.rng.bit_generator.state == replay.rng.bit_generator.state


def test_sweep_rejects_corrupted_state_before_the_kernel_writes(rng):
    corpus = random_corpus(rng)
    state = ModelState.random_init(corpus, 3, seed=0)
    state.n_k = state.n_k.tolist()
    with pytest.raises(ValueError, match="n_k must be a C-contiguous int64 array"):
        gibbs_sweep(state, HYPER1)


def test_fit_without_kernel_matches_kernel_fit_byte_for_byte(tmp_path, rng, monkeypatch):
    corpus = random_corpus(rng, num_traces=6)
    save_schema(corpus.schema, tmp_path / "schema.json")
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    model = tmp_path / "model.json"
    argv = ["fit", "--corpus", str(tmp_path / "corpus.jsonl"), "--traits", "3",
            "--sweeps", "30", "--burn-in", "10", "--stride", "5", "--seed", "3",
            "--audit-every", "1", "--out", str(model)]
    assert main(argv) == 0
    with_kernel = model.read_bytes()
    assert sampler._scan_fit(with_kernel) is not None
    scanned = load_fit_result(model)
    monkeypatch.setattr(sampler, "_library", lambda: None)
    model.unlink()
    assert main(argv) == 0
    assert model.read_bytes() == with_kernel
    assert_same_fit(load_fit_result(model), scanned)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_built_once_into_a_fresh_cache_then_reused(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert sampler._load_kernel() is not None
    built = sorted((tmp_path / "hbtm").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
    stamp = built[0].stat().st_mtime_ns
    monkeypatch.setattr(sampler, "_build_kernel", lambda *_: pytest.fail("cached kernel rebuilt"))
    assert sampler._load_kernel() is not None
    assert sorted((tmp_path / "hbtm").iterdir()) == built
    assert built[0].stat().st_mtime_ns == stamp



@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_a_truncated_cached_kernel_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "good"))
    assert sampler._load_kernel() is not None
    (good,) = (tmp_path / "good" / "hbtm").iterdir()
    # a fresh cache holding a truncated copy; the loaded library itself stays intact
    library = tmp_path / "bad" / "hbtm" / good.name
    library.parent.mkdir(parents=True)
    library.write_bytes(good.read_bytes()[:100])
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "bad"))
    assert sampler._load_kernel() is not None
    assert list(library.parent.iterdir()) == [library]
    assert library.stat().st_size > 100

FAKE_COMPILERS = [  # (the shell script run as cc, or None for no cc; the reason stated)
    (None, "(no C compiler: cc is not on the PATH)"),
    ("echo 'kernel.c:1: error: first line' >&2\necho 'second line' >&2\nexit 3\n",
     "(cc exited with status 3: kernel.c:1: error: first line)"),
    # writes a file that is no shared library to the -o path
    ('while [ $# -gt 0 ]; do [ "$1" = -o ] && echo junk > "$2"; shift; done\n', "/hbtm/_sweep-"),
]


@pytest.mark.skipif(os.name != "posix", reason="fake compilers are shell scripts")
@pytest.mark.parametrize("script, reason", FAKE_COMPILERS,
                         ids=["no cc", "cc fails", "unloadable library"])
def test_a_missing_library_is_reported_in_one_stderr_line(tmp_path, monkeypatch, capsys,
                                                          script, reason):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if script is not None:
        (bin_dir / "cc").write_text("#!/bin/sh\n" + script)
        (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert sampler._load_kernel() is None
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("hbtm: compiled library unavailable (")
    assert line.endswith("); falling back to the slower Python code")
    assert reason in line
    assert [p.name for p in (tmp_path / "cache" / "hbtm").iterdir()
            if p.name.startswith(".build-")] == []


@pytest.mark.skipif(shutil.which("cc") is None or os.name != "posix",
                    reason="no C compiler to compare with")
def test_a_process_without_a_compiler_writes_the_same_files_and_says_so_once(tmp_path, rng):
    corpus = random_corpus(rng, num_traces=6)
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    save_schema(corpus.schema, tmp_path / "schema.json")
    grades = tmp_path / "grades.csv"
    grades.write_text("trace_id,SA,SFE,FE\n" + "".join(f"t{m},{m % 5},{m},{50 + m}\n"
                                                      for m in range(6)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(sampler.__file__).parents[1]), os.environ.get("PYTHONPATH")])))

    def pipeline(**overrides):
        out = tmp_path / "out"  # one path for both runs: the model records it
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        steps = (["fit", "--corpus", str(tmp_path / "corpus.jsonl"), "--traits", "3",
                  "--sweeps", "8", "--burn-in", "2", "--stride", "2", "--out", str(out / "m.json")],
                 ["analyze", "--model", str(out / "m.json"), "--grades", str(grades),
                  "--out", str(out / "report.json")],
                 ["export-trait", "--model", str(out / "m.json"), "--trait", "9",
                  "--out", str(out / "trait.csv")])
        runs = [subprocess.run([sys.executable, "-m", "hbtm.cli", *argv], capture_output=True,
                               text=True, timeout=300, env=dict(env, **overrides))
                for argv in steps]
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return ([(r.returncode, r.stdout) for r in runs], [r.stderr.splitlines() for r in runs],
                files)

    (tmp_path / "no-cc").mkdir()
    # an empty cache: a library cached there would load without a compiler
    codes, errs, files = pipeline(PATH=str(tmp_path / "no-cc"),
                                  XDG_CACHE_HOME=str(tmp_path / "cache"))
    kernel_codes, kernel_errs, kernel_files = pipeline()
    assert (codes, files) == (kernel_codes, kernel_files)
    assert kernel_errs[:2] == [[], []]
    assert [code for code, _ in codes] == [0, 0, 1]
    notice = ("hbtm: compiled library unavailable (no C compiler: cc is not on the PATH); "
              "falling back to the slower Python code")
    assert errs[:2] == [[notice], [notice]]
    assert errs[2][0] == notice and len(errs[2]) == 2
    assert json.loads(errs[2][1])["error"] == "ValueError"


def test_compiled_kernel_loads_when_a_compiler_exists():
    # a silent fallback to the Python sweep would hide a large slowdown
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    assert sampler._library() is not None


# --- collapsed log joint ---------------------------------------------------


@pytest.mark.parametrize("traits", [1, 3])
def test_a_concentration_that_overflows_the_log_joint_stops_the_fit(rng, traits):
    # the sweep's weights stay finite; log-gamma of alpha and traits * alpha does not
    with pytest.raises(ValueError, match="collapsed log joint after sweep 1 is nan"):
        fit(random_corpus(rng), FitConfig(num_traits=traits, sweeps=2, burn_in=0,
                                          sample_stride=1, hyper=Hyperparams(alpha=1e306)))


def test_collapsed_log_joint_single_token():
    corpus = Corpus(synthetic_schema(15, 7, 5), (Trace("a", (Token(0, 0, 0),)),))
    state = state_of(corpus, 1, [0])
    assert collapsed_log_joint(state, HYPER1) == pytest.approx(-math.log(525), abs=1e-12)


def test_dm_marginal_zero_counts_is_zero():
    # log Beta(prior)/Beta(prior): the normalizers cancel for any shape
    for shape, conc in [((3, 4), 1.0), ((2, 5), 0.3), ((4, 2, 3), 2.0)]:
        assert _dm_log_marginal(np.zeros(shape), conc) == pytest.approx(0.0, abs=1e-12)


def test_dm_marginal_matches_log_beta_identity(rng):
    # independent oracle: straight log-gamma evaluation row by row
    counts = rng.integers(0, 7, size=(5, 4))
    conc = 0.6
    expected = 0.0
    for row in counts:
        expected += gammaln(4 * conc) - 4 * gammaln(conc)
        expected += sum(gammaln(v + conc) for v in row)
        expected -= gammaln(row.sum() + 4 * conc)
    assert _dm_log_marginal(counts, conc) == pytest.approx(float(expected), rel=1e-12)


def direct_dm_log_marginal(counts, concentration):
    """Oracle: the Dirichlet-multinomial term with every log-gamma evaluated directly."""
    rows = np.asarray(counts, dtype=float)
    rows = rows.reshape(-1, rows.shape[-1])
    dim = rows.shape[1]
    value = rows.shape[0] * (gammaln(dim * concentration) - dim * gammaln(concentration))
    value += gammaln(rows + concentration).sum()
    value -= gammaln(rows.sum(axis=1) + dim * concentration).sum()
    return float(value)


concentrations = st.floats(1e-3, 1e3) | st.sampled_from([1e-3, 0.1, 1.0, 1e3])


@st.composite
def log_joint_cases(draw):
    """A state with K = 1-5, empty traces, and one token that may fill a trace
    (so a count can reach the token count), with four concentrations."""
    dims = [draw(st.integers(1, 4)) for _ in range(3)]
    token = st.builds(Token, *(st.integers(0, d - 1) for d in dims))
    repeated = draw(token)
    traces = tuple(
        Trace(f"t{m}", tuple(draw(st.lists(token | st.just(repeated), max_size=12))))
        for m in range(draw(st.integers(1, 6)))
    )
    corpus = Corpus(synthetic_schema(*dims), traces)
    num_traits = draw(st.integers(1, 5))
    n = corpus.num_tokens
    z = draw(st.lists(st.integers(0, num_traits - 1), min_size=n, max_size=n) | st.just([0] * n))
    return state_of(corpus, num_traits, z), Hyperparams(*(draw(concentrations) for _ in range(4)))


@settings(max_examples=300, deadline=None)
@given(log_joint_cases())
def test_log_joint_equals_the_direct_log_gamma_oracle(case):
    state, hyper = case
    terms = [(state.n_mk, hyper.alpha), (state.n_ke, hyper.beta),
             (state.n_ket, hyper.gamma), (state.n_kei, hyper.delta)]
    for counts, concentration in terms:
        assert _dm_log_marginal(counts, concentration) == direct_dm_log_marginal(counts, concentration)
        # 600 copies of the rows are large enough for the log-gamma table
        tiled = np.tile(counts.reshape(-1, counts.shape[-1]), (600, 1))
        assert _dm_log_marginal(tiled, concentration) == direct_dm_log_marginal(tiled, concentration)
    expected = sum(direct_dm_log_marginal(c, conc) for c, conc in terms)
    assert collapsed_log_joint(state, hyper) == expected


@pytest.mark.parametrize("concentration", [1e-3, 0.05, 1.0, 7.5, 1e3])
@pytest.mark.parametrize("shape, top", [((4000, 20), 10), ((40, 15, 7), 2000), ((300, 5), 40000)])
def test_dm_marginal_of_large_tables_equals_the_oracle(rng, concentration, shape, top):
    # the first two arrays are larger than their count range and take the table
    # path, the last one is not; one count is the maximum
    counts = rng.integers(0, 4, size=shape)
    counts.flat[rng.integers(counts.size)] = top
    counts[0] = 0  # a zero row
    assert _dm_log_marginal(counts, concentration) == direct_dm_log_marginal(counts, concentration)


def test_dm_marginal_reads_negative_counts_directly(rng):
    # a negative count (never a sampler state's) must not index the table from its end
    counts = rng.integers(0, 4, size=(200, 6))
    counts[3, 2] = -1
    assert _dm_log_marginal(counts, 0.4) == direct_dm_log_marginal(counts, 0.4)


def test_collapsed_log_joint_invariant_under_relabeling(rng):
    corpus = random_corpus(rng)
    num_traits = 3
    hyper = Hyperparams(1.2, 0.4, 0.6, 0.9)
    z = [int(v) for v in rng.integers(0, num_traits, corpus.num_tokens)]
    base = collapsed_log_joint(state_of(corpus, num_traits, z), hyper)
    perm = [2, 0, 1]
    relabeled = [perm[v] for v in z]
    swapped = collapsed_log_joint(state_of(corpus, num_traits, relabeled), hyper)
    assert swapped == pytest.approx(base, abs=1e-9)


# --- fit -------------------------------------------------------------------


def replay_chain(corpus, cfg):
    """The state a fit with ``cfg`` ends in: the same seed, the same sweeps."""
    state = init_state(corpus, cfg)
    for _ in range(cfg.sweeps):
        gibbs_sweep(state, cfg.hyper)
    return state


def test_fit_single_retained_sample_equals_snapshot(rng):
    corpus = random_corpus(rng)
    cfg = FitConfig(num_traits=2, sweeps=10, burn_in=9, sample_stride=1, seed=4)
    result = fit(corpus, cfg)
    assert result.diagnostics["retained_samples"] == 1
    snapshot = estimate_posterior(replay_chain(corpus, cfg), cfg.hyper)
    assert np.array_equal(result.posterior.theta, snapshot.theta)
    assert np.array_equal(result.posterior.phi, snapshot.phi)
    assert len(result.log_joint_trace) == 10


def test_fit_deterministic(rng):
    corpus = random_corpus(rng)
    cfg = FitConfig(num_traits=3, sweeps=30, burn_in=10, sample_stride=5, seed=17)
    a = fit(corpus, cfg)
    b = fit(corpus, cfg)
    assert np.array_equal(a.posterior.theta, b.posterior.theta)
    assert np.array_equal(a.posterior.tau, b.posterior.tau)
    assert a.log_joint_trace == b.log_joint_trace
    assert a.trace_ids == b.trace_ids


def test_fit_audit_every_sweep(rng):
    corpus = random_corpus(rng)
    cfg = FitConfig(num_traits=2, sweeps=20, burn_in=10, sample_stride=2, seed=0, audit_every=1)
    result = fit(corpus, cfg)
    assert result.diagnostics["audits_passed"] == 20


def test_fit_bookkeeping_matches_recount(rng):
    corpus = random_corpus(rng, num_traces=5)
    cfg = FitConfig(num_traits=3, sweeps=40, burn_in=20, sample_stride=4, seed=2)
    result = fit(corpus, cfg)
    state = replay_chain(corpus, cfg)
    assert collapsed_log_joint(state, cfg.hyper) == result.log_joint_trace[-1]
    rebuilt = state_of(corpus, 3, state.z)
    assert np.array_equal(rebuilt.n_mk, state.n_mk)
    assert np.array_equal(rebuilt.n_ke, state.n_ke)
    assert np.array_equal(rebuilt.n_ket, state.n_ket)
    assert np.array_equal(rebuilt.n_kei, state.n_kei)
    assert collapsed_log_joint(rebuilt, cfg.hyper) == result.log_joint_trace[-1]


@pytest.mark.parametrize("sweeps, burn_in, stride, audit_every", [
    (12, 5, 2, 5), (10, 3, 4, 0), (17, 0, 3, 4), (11, 2, 4, 3), (8, 1, 5, 7),
])
def test_fit_counts_retained_snapshots_and_audits_by_hand(rng, sweeps, burn_in, stride,
                                                           audit_every):
    # neither the stride nor audit_every divides its span evenly
    cfg = FitConfig(num_traits=2, sweeps=sweeps, burn_in=burn_in, sample_stride=stride,
                    audit_every=audit_every)
    diagnostics = fit(random_corpus(rng), cfg).diagnostics
    retained = [s for s in range(1, sweeps + 1) if s > burn_in and (s - burn_in) % stride == 0]
    audited = [s for s in range(1, sweeps + 1) if audit_every and s % audit_every == 0]
    assert diagnostics["retained_samples"] == len(retained)
    assert diagnostics["audits_passed"] == len(audited)


def test_fit_calls_each_traced_layer_through_the_module(rng, monkeypatch):
    # perfbench/tracer.py times these by replacing the attributes by name
    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("init_state", "validate_corpus", "gibbs_sweep", "collapsed_log_joint",
                 "estimate_posterior"):
        counting(sampler, name)
    counting(sampler.ModelState, "count_violations")
    cfg = FitConfig(num_traits=3, sweeps=14, burn_in=3, sample_stride=4, audit_every=4)
    fit(random_corpus(rng), cfg)
    assert calls == {"init_state": 1, "validate_corpus": 1, "gibbs_sweep": 14,
                     "collapsed_log_joint": 14, "estimate_posterior": 2, "count_violations": 3}


def test_run_chain_yields_every_sweep_with_the_one_state_and_fits_log_joints(rng):
    corpus = random_corpus(rng)
    cfg = FitConfig(num_traits=3, sweeps=9, burn_in=4, sample_stride=2, seed=5)
    items = list(sampler.run_chain(corpus, cfg))
    assert [sweep_no for sweep_no, _, _ in items] == list(range(1, 10))
    assert all(state is items[0][1] for _, state, _ in items)
    assert [log_joint for _, _, log_joint in items] == fit(corpus, cfg).log_joint_trace
    assert np.array_equal(items[0][1].z, replay_chain(corpus, cfg).z)


def test_a_consumer_that_stops_early_leaves_nothing_to_clean_up(rng):
    corpus = random_corpus(rng)
    cfg = FitConfig(num_traits=2, sweeps=30, burn_in=10, sample_stride=5, seed=1, audit_every=1)
    before = fit(corpus, cfg)
    chain = sampler.run_chain(corpus, cfg)
    for sweep_no, state, _ in chain:
        if sweep_no == 3:
            break
    chain.close()
    assert chain.gi_frame is None
    state.audit()
    three = FitConfig(num_traits=2, sweeps=3, burn_in=0, sample_stride=1, seed=1)
    assert np.array_equal(state.z, replay_chain(corpus, three).z)
    after = fit(corpus, cfg)
    assert after.log_joint_trace == before.log_joint_trace
    assert np.array_equal(after.posterior.phi, before.posterior.phi)


def test_run_chain_stops_at_the_sweep_whose_log_joint_overflows(rng):
    cfg = FitConfig(num_traits=3, sweeps=2, burn_in=0, sample_stride=1,
                    hyper=Hyperparams(alpha=1e306))
    with pytest.raises(ValueError, match="collapsed log joint after sweep 1 is nan"):
        next(sampler.run_chain(random_corpus(rng), cfg))


def test_a_table_corrupted_between_items_fails_the_next_audit(rng):
    cfg = FitConfig(num_traits=3, sweeps=9, burn_in=0, sample_stride=1, audit_every=3)
    chain = sampler.run_chain(random_corpus(rng), cfg)
    _, state, _ = next(chain)
    state.n_k[0] += 1
    assert next(chain)[0] == 2
    with pytest.raises(CountConsistencyError, match="n_k differs from a from-scratch recount"):
        next(chain)


def test_fit_result_round_trip(tmp_path, rng):
    corpus = random_corpus(rng)
    cfg = FitConfig(num_traits=2, sweeps=10, burn_in=5, sample_stride=1, seed=0)
    result = fit(corpus, cfg)
    path = tmp_path / "fit.json"
    save_json(result.to_json_dict(), path)
    back = load_fit_result(path)
    assert back.trace_ids == result.trace_ids
    assert back.log_joint_trace == result.log_joint_trace
    np.testing.assert_array_equal(back.posterior.theta, result.posterior.theta)
    assert back.diagnostics["config"] == cfg.to_dict()


def assert_chain_matches_enumeration(corpus, hyper, seed, sweeps=60_000):
    """A K=2 chain's frequency of each assignment configuration, after 500
    burn-in sweeps, is within 0.01 of the exact collapsed posterior."""
    configs, exact = enumerate_exact_posterior(corpus, 2, hyper)
    index = {cfg: i for i, cfg in enumerate(configs)}
    state = init_state(corpus, FitConfig(num_traits=2, sweeps=2, burn_in=1, sample_stride=1, seed=seed))
    for _ in range(500):
        gibbs_sweep(state, hyper)
    hits = np.zeros(len(configs))
    for _ in range(sweeps):
        gibbs_sweep(state, hyper)
        hits[index[tuple(state.z)]] += 1
    np.testing.assert_allclose(hits / sweeps, exact, atol=0.01)


def test_small_chain_matches_enumerated_configuration_distribution():
    # 4 tokens, K=2: empirical frequency of each of the 16 assignment
    # configurations matches the exact collapsed posterior
    schema = synthetic_schema(2, 2, 2)
    corpus = Corpus(
        schema,
        (
            Trace("a", (Token(0, 0, 0), Token(1, 1, 0))),
            Trace("b", (Token(0, 1, 1), Token(1, 0, 1))),
        ),
    )
    assert_chain_matches_enumeration(corpus, HYPER1, seed=7)


def test_recovery_on_small_synthetic():
    schema = synthetic_schema(10, 4, 3)
    hyper = Hyperparams(1.0, 0.1, 0.2, 0.2)
    params = sample_params(2, 60, schema, hyper, seed=5)
    labeled = generate(params, [50] * 60, seed=6)
    cfg = FitConfig(num_traits=2, sweeps=150, burn_in=100, sample_stride=5, seed=7, hyper=hyper)
    result = fit(labeled.corpus, cfg)
    perm = greedy_match_traits(result.posterior.phi, params.phi)
    tv = np.mean(
        [total_variation(result.posterior.phi[perm[j]], params.phi[j]) for j in range(2)]
    )
    assert tv < 0.1


def test_small_chain_matches_enumeration_at_distinct_hyperparameters():
    # four distinct concentrations, T != I and time bins that do not follow the
    # interaction levels: a weight formula that swaps two hyperparameters (say
    # gamma and delta) samples a distribution about 0.18 away from this one
    schema = synthetic_schema(2, 3, 2)
    corpus = Corpus(
        schema,
        (
            Trace("a", (Token(0, 0, 0), Token(0, 0, 1))),
            Trace("b", (Token(0, 1, 0), Token(1, 2, 1))),
        ),
    )
    assert_chain_matches_enumeration(corpus, Hyperparams(0.7, 0.3, 2.5, 0.15), seed=11)


# --- model file reading ------------------------------------------------------


def assert_same_fit(got, want):
    """Equal FitResults: every posterior float bit for bit (sign of zero included)."""
    for name in ("theta", "phi", "psi", "tau"):
        a, b = getattr(got.posterior, name), getattr(want.posterior, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
    assert np.array_equal(np.array(got.log_joint_trace).view(np.int64),
                          np.array(want.log_joint_trace).view(np.int64))
    assert got.diagnostics == want.diagnostics
    assert got.trace_ids == want.trace_ids


def scan(text):
    library = sampler._library()
    if library is None:
        pytest.skip("no compiled library")
    raw = text.encode()
    return sampler._scan_array(library.hbtm_scan, raw, 0, len(raw))


def assert_scans_like_json(text):
    got, want = scan(text), np.array(json.loads(text), dtype=float)
    assert got is not None, text
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), text


PINNED_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-07,
    0.1, 1e16, 1e22, 1e23, 1.7976931348623157e+308, -1.7976931348623157e+308,
    0.11333333333333333, 0.12345678901234568, 1.2345678901234567e-05,
    0.9007199254740991, 0.9007199254740992, 0.9007199254740993, 0.9007199254740994,
    9007199254740991.0, 9007199254740993.0, 1234567890123456.7, 8.881784197001252e-16,
]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(PINNED_FLOATS))


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scan")


def assert_save_json_scans_like_json(values, directory):
    path = directory / "values.json"
    save_json(values, path)
    text = path.read_text()
    assert_scans_like_json(text)
    assert np.array_equal(scan(text).view(np.int64), np.array(values, dtype=float).view(np.int64))


def test_pinned_floats_scan_bit_for_bit(json_dir):
    assert_save_json_scans_like_json(PINNED_FLOATS, json_dir)
    for value in PINNED_FLOATS:
        assert_save_json_scans_like_json([value], json_dir)


@given(values=st.lists(FINITE, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_saved_float_lists_scan_like_json(json_dir, values):
    assert_save_json_scans_like_json(values, json_dir)


@given(rows=st.integers(1, 6).flatmap(
    lambda width: st.lists(st.lists(FINITE, min_size=width, max_size=width),
                           min_size=1, max_size=6)))
@settings(max_examples=200, deadline=None)
def test_saved_float_matrices_scan_like_json(json_dir, rows):
    assert_save_json_scans_like_json(rows, json_dir)


@pytest.mark.parametrize("text", [
    # mantissas on both sides of 2^53 = 9007199254740992, and past 64 bits
    "[9007199254740991e-16, 9007199254740992e-16, 9007199254740993e-16]",
    "[0.9007199254740993, 9.007199254740993, 90071992547409.93]",
    "[0.10000000000000000555, 123456789012345678901234567890.0, 1e-400]",
    "[1E5, 1e+5, 1.5E-5, -0e0, 0.0e-999]",
    " [ [1.0 ,2.5e-3\t] ,\r\n[-0.0, 3.0]]\n",
    "[" * 32 + "0.5" + "]" * 32,
])
def test_scanner_reads_any_json_number_layout_like_json(text):
    assert_scans_like_json(text)


@pytest.mark.parametrize("text", [
    "[NaN]", "[Infinity]", "[-Infinity]", "[1e400]", "[-1e400]",
    "[1]", "[0]", "[-3]", "[1.0, 2]", "[01.5]", "[-01.5]", "[00.5]", "[.5]", "[5.]",
    "[+1.0]", "[--1.0]", "[1.0e]", "[1.0e+]", "[1.0e5e5]", "[0x1p3]", "[1_0.0]",
    "[1.0,]", "[,1.0]", "[1.0 2.0]", '["1.0"]', "[1.0}", "{1.0}", "[1.0]]", "[[1.0]",
    "[1.0] x", "1.0", "", " ", "[]", "[[]]", "[[1.0], []]",
    "[[1.0], [2.0, 3.0]]", "[[1.0], 2.0]", "[1.0, [2.0]]", "[[[1.0]], [2.0]]",
    "[1.0\v]", "[1.0 ]", "[1.0\x00]", "[" * 33 + "0.5" + "]" * 33,
])
def test_scanner_declines_what_it_does_not_read_exactly(text):
    assert scan(text) is None


LOCALE_SOURCE = """LC_NUMERIC
decimal_point ","
thousands_sep ""
grouping -1
END LC_NUMERIC
"""

COMMA_LOCALE_SCAN = """
import json, locale, sys
locale.setlocale(locale.LC_NUMERIC, "comma")
assert locale.localeconv()["decimal_point"] == ","
from hbtm import sampler
library = sampler._library()
def scan(text):
    return sampler._scan_array(library.hbtm_scan, text.encode(), 0, len(text))
# strtod stops at the '.' of a number the fast path leaves to it
assert scan("[0.11333333333333333]") is None
assert scan("[0.5, 1.5e-400]") is None
# the fast path and numbers without a '.' do not depend on the locale
assert scan("[0.5, 1e23, 1e-400]").tolist() == [0.5, 1e23, 0.0]
fit = sampler.load_fit_result(sys.argv[1])
print(json.dumps(fit.posterior.to_dict()))
"""


@pytest.mark.skipif(shutil.which("localedef") is None or shutil.which("cc") is None,
                    reason="no localedef or no C compiler")
def test_a_comma_decimal_locale_declines_every_number_strtod_reads(tmp_path, rng):
    source = tmp_path / "comma.src"
    source.write_text(LOCALE_SOURCE)
    (tmp_path / "locales").mkdir()
    subprocess.run(["localedef", "-c", "-i", str(source), "-f", "ANSI_X3.4-1968",
                    str(tmp_path / "locales" / "comma")], capture_output=True)
    if not (tmp_path / "locales" / "comma" / "LC_NUMERIC").exists():
        pytest.skip("localedef could not build a locale")
    result = fit(random_corpus(rng), FitConfig(num_traits=3, sweeps=6, burn_in=3,
                                               sample_stride=1, seed=1))
    model = tmp_path / "model.json"
    save_json(result.to_json_dict(), model)
    script = tmp_path / "scan.py"
    script.write_text(COMMA_LOCALE_SCAN)
    env = dict(os.environ, LOCPATH=str(tmp_path / "locales"),
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(sampler.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(script), str(model)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == result.posterior.to_dict()
