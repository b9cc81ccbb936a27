import json
import os
import stat
from types import SimpleNamespace

import numpy as np
import pytest

from hbtm import (
    ActivityMapping,
    Corpus,
    FitConfig,
    Hyperparams,
    ModelState,
    Posterior,
    RejectedRow,
    Schema,
    Token,
    Trace,
    estimate_posterior,
    fit,
    from_one_based,
    greedy_match_traits,
    load_corpus,
    load_schema,
    save_corpus,
    save_fit_result,
    save_schema,
    to_one_based,
    total_variation,
    validate_corpus,
)
from hbtm.core import save_json, write_atomic
from hbtm.ingest import write_rejects_csv

from conftest import random_corpus


def make_counts(n_mk, n_ke, n_ket, n_kei):
    n_mk = np.asarray(n_mk)
    n_ke = np.asarray(n_ke)
    return SimpleNamespace(
        n_mk=n_mk,
        n_ke=n_ke,
        n_ket=np.asarray(n_ket),
        n_kei=np.asarray(n_kei),
        n_m=n_mk.sum(axis=1),
        n_k=n_ke.sum(axis=1),
    )


def test_default_schema_dimensions():
    schema = Schema.default()
    assert schema.num_events == 15
    assert schema.num_time_bins == 7
    assert schema.num_interaction_levels == 5
    assert schema.time_bin_edges[0] == 0.0
    assert schema.time_bin_edges[-1] == 14000.0
    assert schema.interaction_bin_edges[-1] == 4779.0


def test_schema_rejects_bad_edges():
    with pytest.raises(ValueError):
        Schema(("a",), (0.0, 5.0, 5.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        Schema((), (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        Schema(("a",), (0.0,), (0.0, 1.0))


def test_one_based_round_trip():
    for p in range(1, 16):
        assert to_one_based(from_one_based(p)) == p
    assert from_one_based(1) == 0
    with pytest.raises(ValueError):
        from_one_based(0)
    with pytest.raises(ValueError):
        to_one_based(-1)


def test_hyperparams_positive():
    with pytest.raises(ValueError):
        Hyperparams(alpha=0.0)
    with pytest.raises(ValueError):
        Hyperparams(delta=-1.0)


def test_validate_corpus_accepts_valid(rng):
    assert validate_corpus(random_corpus(rng)) == []


def test_validate_corpus_event_off_by_one():
    schema = Schema.default()
    corpus = Corpus(schema, (Trace("a", (Token(15, 0, 0),)),))
    problems = validate_corpus(corpus)
    assert len(problems) == 1
    assert "event 15" in problems[0]
    assert "'a'" in problems[0]


def test_validate_corpus_empty_trace():
    schema = Schema.default()
    corpus = Corpus(schema, (Trace("solo", ()),))
    problems = validate_corpus(corpus)
    assert problems == ["trace 'solo': empty trace"]


def test_validate_corpus_duplicate_trace_ids():
    schema = Schema.default()
    corpus = Corpus(
        schema,
        (Trace("dup", (Token(0, 0, 0),)), Trace("dup", (Token(1, 1, 1),))),
    )
    problems = validate_corpus(corpus)
    assert problems == ["trace 'dup': duplicate trace_id"]


def test_validate_corpus_reports_every_axis():
    schema = Schema.default()
    corpus = Corpus(schema, (Trace("a", (Token(0, 7, 0), Token(0, 0, 5))),))
    problems = validate_corpus(corpus)
    assert len(problems) == 2
    assert any("time_bin 7" in p for p in problems)
    assert any("interaction_level 5" in p for p in problems)


def test_posterior_mean_matches_hand_value():
    # one trace with counts (3, 1) over two traits, alpha = 1
    state = make_counts(
        [[3, 1]],
        [[2, 2], [1, 0]],
        [[[2], [2]], [[1], [0]]],
        [[[2], [2]], [[1], [0]]],
    )
    post = estimate_posterior(state, Hyperparams(alpha=1.0))
    np.testing.assert_allclose(post.theta[0], [4 / 6, 2 / 6], rtol=0, atol=1e-15)


def test_posterior_mean_cross_checked_by_dirichlet_sampling():
    # posterior mean of Dirichlet(3 + 1, 1 + 1) should match the closed form
    draws = np.random.default_rng(99).dirichlet([4.0, 2.0], size=200_000)
    mc = draws.mean(axis=0)
    np.testing.assert_allclose(mc, [4 / 6, 2 / 6], atol=2e-3)


def test_posterior_uniform_for_zero_count_trace():
    state = make_counts(
        [[2, 1], [0, 0]],
        [[2, 1], [1, 0]],
        [[[2], [1]], [[1], [0]]],
        [[[2], [1]], [[1], [0]]],
    )
    post = estimate_posterior(state, Hyperparams(alpha=1.0))
    np.testing.assert_allclose(post.theta[1], [0.5, 0.5], atol=1e-15)


def test_posterior_single_trait_is_degenerate():
    state = make_counts(
        [[4], [2]],
        [[3, 3]],
        [[[3], [3]]],
        [[[3], [3]]],
    )
    post = estimate_posterior(state, Hyperparams())
    np.testing.assert_array_equal(post.theta, [[1.0], [1.0]])


def test_posterior_rows_sum_to_one(rng):
    corpus = random_corpus(rng, num_traces=6)
    state = ModelState.random_init(corpus, 4, seed=3)
    post = estimate_posterior(state, Hyperparams())
    for arr in (post.theta, post.phi, post.psi, post.tau):
        np.testing.assert_allclose(arr.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_posterior_is_pure_function_of_counts(rng):
    corpus = random_corpus(rng)
    a = ModelState.random_init(corpus, 3, seed=5)
    b = a.clone()
    b.rng = np.random.default_rng(999)  # rng state must not matter
    pa = estimate_posterior(a, Hyperparams())
    pb = estimate_posterior(b, Hyperparams())
    assert np.array_equal(pa.theta, pb.theta)
    assert np.array_equal(pa.phi, pb.phi)
    assert np.array_equal(pa.psi, pb.psi)
    assert np.array_equal(pa.tau, pb.tau)


def test_posterior_rejects_inconsistent_counts():
    state = make_counts(
        [[3, 1]],
        [[2, 2], [1, 0]],
        [[[2], [2]], [[1], [0]]],
        [[[2], [2]], [[1], [0]]],
    )
    state.n_m = np.array([99])
    with pytest.raises(ValueError):
        estimate_posterior(state, Hyperparams())


def test_posterior_type_rejects_broken_rows():
    good = np.full((2, 2), 0.5)
    bad = np.array([[0.6, 0.6], [0.5, 0.5]])
    with pytest.raises(ValueError):
        Posterior(bad, good, np.full((2, 2, 2), 0.5), np.full((2, 2, 2), 0.5))


def test_total_variation():
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation([0.7, 0.3], [0.3, 0.7]) == pytest.approx(0.4)


def test_greedy_match_recovers_permutation(rng):
    base = rng.dirichlet(np.full(6, 0.3), size=4)
    perm = [2, 0, 3, 1]
    shuffled = base[perm]
    # shuffled[i] == base[perm[i]]; match(shuffled -> base) should undo it
    match = greedy_match_traits(shuffled, base)
    recovered = shuffled[match]
    np.testing.assert_allclose(recovered, base, atol=1e-12)


def test_corpus_round_trip(tmp_path, rng):
    corpus = random_corpus(rng)
    schema_path = tmp_path / "schema.json"
    corpus_path = tmp_path / "corpus.jsonl"
    save_schema(corpus.schema, schema_path)
    save_corpus(corpus, corpus_path)
    back = load_corpus(corpus_path, load_schema(schema_path))
    assert back == corpus


def test_corpus_file_format(tmp_path, rng):
    corpus = random_corpus(rng, num_traces=2)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {"trace_id", "tokens"}
    assert all(len(t) == 3 for t in rec["tokens"])


def test_load_corpus_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"trace_id": "a"}\n')
    with pytest.raises(ValueError, match="malformed"):
        load_corpus(path, Schema.default())


# --- atomic output files -----------------------------------------------------


def _fit_result_writer():
    corpus = Corpus(Schema.default(), (Trace("a", (Token(0, 0, 0), Token(1, 2, 3))),))
    result = fit(corpus, FitConfig(num_traits=2, sweeps=2, burn_in=0, sample_stride=1))
    return lambda path: save_fit_result(result, path)


# each entry builds its payload, then returns the call that writes it to a path
OUTPUT_WRITERS = {
    "write_atomic": lambda: lambda path: write_atomic(path, "new text\n"),
    "save_json": lambda: lambda path: save_json({"new": [1, 2]}, path),
    "save_schema": lambda: lambda path: save_schema(Schema.default(), path),
    "save_corpus": lambda: lambda path: save_corpus(
        Corpus(Schema.default(), (Trace("a", (Token(0, 0, 0),)),)), path),
    "save_fit_result": _fit_result_writer,
    "ActivityMapping.save": lambda: ActivityMapping.default().save,
    "write_rejects_csv": lambda: lambda path: write_rejects_csv(
        [RejectedRow(3, "short row")], path),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_WRITERS))
def test_output_writer_keeps_the_old_file_when_the_rename_fails(tmp_path, monkeypatch, name):
    write = OUTPUT_WRITERS[name]()
    target = tmp_path / "out"
    target.write_bytes(b"old bytes\n")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write(target)
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no temp file left behind


@pytest.mark.parametrize("name", sorted(OUTPUT_WRITERS))
def test_output_writer_replaces_the_file_with_the_usual_mode(tmp_path, name):
    write = OUTPUT_WRITERS[name]()
    plain = tmp_path / "plain"
    plain.write_text("made by write_text\n")
    target = tmp_path / "out"
    target.write_bytes(b"old bytes\n")
    write(target)
    assert target.read_bytes() != b"old bytes\n"
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "plain"]
