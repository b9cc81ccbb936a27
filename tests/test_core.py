import itertools
import json
import os
import stat
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbtm import (
    ActivityMapping,
    Corpus,
    Hyperparams,
    ModelState,
    Posterior,
    RejectedRow,
    Schema,
    Token,
    Trace,
    estimate_posterior,
    from_one_based,
    greedy_match_traits,
    load_corpus,
    load_schema,
    save_corpus,
    save_schema,
    synthetic_schema,
    to_one_based,
    total_variation,
    validate_corpus,
)
from hbtm.core import _number_lists_chunks, save_json, write_atomic
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
    b = ModelState.random_init(corpus, 3, seed=5)
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
    state.n_k = np.array([4, 99])
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


def test_token_is_an_immutable_triple():
    tok = Token(event=1, time_bin=2, interaction_level=3)
    assert tok == Token(1, 2, 3) == (1, 2, 3)
    assert (tok.event, tok.time_bin, tok.interaction_level) == (1, 2, 3)
    with pytest.raises(AttributeError):
        tok.event = 0
    with pytest.raises(AttributeError):
        tok.weight = 1.0


@pytest.mark.parametrize("tokens", [
    '[[1.7, true, "3"]]', "[[1.0, 0, 0]]", "[[true, 0, 0]]", "[[0, false, 0]]",
    '[[0, 0, "1"]]', "[[0, 0, null]]", "[[0, 0]]", "[[0, 0, 0, 0]]", '["abc"]', "[0]",
])
def test_load_corpus_accepts_only_plain_integer_components(tmp_path, tokens):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"trace_id": "ok", "tokens": [[0, 0, 0]]}\n'
                    f'{{"trace_id": "a", "tokens": {tokens}}}\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: malformed trace record"):
        load_corpus(path, Schema.default())


def test_load_corpus_keeps_out_of_range_integers_for_validation(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(f'{{"trace_id": "a", "tokens": [[-1, 0, {2**70}]]}}\n')
    corpus = load_corpus(path, Schema.default())
    assert corpus.traces[0].tokens == (Token(-1, 0, 2**70),)
    assert validate_corpus(corpus) == [
        "trace 'a' token 0: event -1 outside [0, 15)",
        f"trace 'a' token 0: interaction_level {2**70} outside [0, 5)",
    ]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.text(max_size=4))
def test_corpus_file_round_trip_is_byte_identical(tmp_path_factory, seed, id_prefix):
    base = random_corpus(np.random.default_rng(seed), num_traces=3)
    corpus = Corpus(base.schema, tuple(Trace(id_prefix + t.trace_id, t.tokens) for t in base.traces))
    first, second = tmp_path_factory.mktemp("rt") / "a.jsonl", tmp_path_factory.mktemp("rt") / "b.jsonl"
    save_corpus(corpus, first)
    back = load_corpus(first, corpus.schema)
    save_corpus(back, second)
    assert back == corpus
    assert second.read_bytes() == first.read_bytes()
    # the lines the writer produced when tokens were written field by field
    assert first.read_text() == "".join(
        json.dumps({"trace_id": t.trace_id,
                    "tokens": [[k.event, k.time_bin, k.interaction_level] for k in t.tokens]},
                   sort_keys=True, separators=(",", ":")) + "\n"
        for t in corpus.traces
    )


def _load_corpus_by_json(path, schema):
    """The json-only corpus reader, kept as the reference for ``load_corpus``."""
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
                kinds = set(map(type, itertools.chain.from_iterable(tokens))) - {int}
                if kinds:
                    names = ", ".join(sorted(k.__name__ for k in kinds))
                    raise TypeError(f"token components must be integers, got {names}")
                trace = Trace(trace_id, tokens)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed trace record: {exc}") from exc
            traces.append(trace)
    if not traces:
        raise ValueError(f"{path}: corpus has no traces")
    return Corpus(schema, tuple(traces))


def _load_outcome(load, path):
    """A loader's traces with each component's type, or its error message."""
    try:
        corpus = load(path, Schema.default())
    except ValueError as exc:
        return "error", str(exc)
    return "ok", [(t.trace_id, [tuple(map(type, tok)) for tok in t.tokens], t.tokens)
                  for t in corpus.traces]


# JSON texts for one token component: every kind of integer or non-integer
# the reader must judge as ``json.loads`` does
_COMPONENT_TEXT = st.one_of(
    st.integers(0, 10**18 - 1).map(str),
    st.sampled_from([
        "-1", "-0", "00", "007", str(10**18), str(2**70), "1e2",
        "true", "false", "null", "1.0", '"3"', "١",
    ]),
)
_TOKEN_TEXT = st.one_of(
    st.lists(_COMPONENT_TEXT, min_size=3, max_size=3),
    st.lists(st.integers(0, 4).map(str), min_size=0, max_size=4),
).map(lambda parts: "[" + ",".join(parts) + "]")
_TRACE_ID = st.text(max_size=6) | st.sampled_from(["", "a\"b", "a\\b", "\x1f", "\x7f", "é", " "])


@st.composite
def _saved_line(draw):
    """A line as save_corpus writes it."""
    tokens = draw(st.lists(st.tuples(*[st.integers(0, 12)] * 3), min_size=1, max_size=4))
    trace_id = draw(st.text(alphabet="abc-_ é\"\\", max_size=4))
    return json.dumps({"trace_id": trace_id, "tokens": tokens}, sort_keys=True, separators=(",", ":"))


@st.composite
def _rewritten_line(draw):
    """A line save_corpus would not write, which JSON may or may not read."""
    tokens = draw(st.lists(_TOKEN_TEXT, max_size=4))
    trace_id = draw(_TRACE_ID)
    id_text = draw(st.sampled_from([
        json.dumps(trace_id),
        json.dumps(trace_id, ensure_ascii=False),
        '"' + "".join(f"\\u{ord(c):04x}" for c in trace_id) + '"',
        '"' + trace_id + '"',
    ]))
    style = draw(st.sampled_from(["compact", "spaces", "swapped", "padded", "no_id"]))
    if style == "spaces":
        return '{"tokens": [' + ", ".join(tokens) + '], "trace_id": ' + id_text + "}"
    token_list = "[" + ",".join(tokens) + "]"
    if style == "swapped":
        return '{"trace_id":' + id_text + ',"tokens":' + token_list + "}"
    if style == "no_id":
        return '{"tokens":' + token_list + "}"
    line = '{"tokens":' + token_list + ',"trace_id":' + id_text + "}"
    return " " + line + "\t" if style == "padded" else line


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.one_of(_saved_line(), _rewritten_line(), st.sampled_from(["", "  "])),
             min_size=1, max_size=5),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
)
@example(['{"tokens":[[1,2,3],[01,2,3]],"trace_id":"a"}'], "\n", True)
@example(['{"tokens":[[1,2,3]],"trace_id":"a\x01"}'], "\n", True)
@example(['{"tokens":[],"trace_id":"a"}'], "\r\n", True)
@example(['{"tokens":[[1,2,3]],"trace_id":"a"}', "", '{"tokens":[[4,5,6]]}'], "\n", False)
def test_load_corpus_equals_the_json_reader(tmp_path_factory, lines, newline, final_newline):
    path = tmp_path_factory.mktemp("lc") / "c.jsonl"
    path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode())
    assert _load_outcome(load_corpus, path) == _load_outcome(_load_corpus_by_json, path)


def test_load_corpus_shares_one_token_object_per_distinct_triple(tmp_path, rng):
    corpus = random_corpus(rng, num_traces=20)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    tokens = [tok for trace in load_corpus(path, corpus.schema).traces for tok in trace.tokens]
    assert len({id(tok) for tok in tokens}) == len(set(tokens)) < len(tokens)


@pytest.mark.parametrize("first, second, kind", [
    ("[0,0,0]", "[0,false,0]", "bool"),
    ("[1,0,0]", "[1.0,0,0]", "float"),
])
def test_load_corpus_keeps_equal_non_integers_apart_from_interned_tokens(
        tmp_path, first, second, kind):
    # False == 0 and 1.0 == 1: a token table keyed on decoded values would let these pass
    path = tmp_path / "c.jsonl"
    path.write_text(f'{{"tokens":[{first}],"trace_id":"a"}}\n'
                    f'{{"tokens":[{second}],"trace_id":"b"}}\n')
    with pytest.raises(ValueError, match=rf"c\.jsonl:2: malformed .* got {kind}$"):
        load_corpus(path, Schema.default())


def _validate_by_token(corpus):
    """The per-token validation loop, kept as the reference for ``validate_corpus``."""
    schema = corpus.schema
    e_max = schema.num_events
    t_max = schema.num_time_bins
    i_max = schema.num_interaction_levels
    violations = []
    seen = set()
    for trace in corpus.traces:
        if trace.trace_id in seen:
            violations.append(f"trace '{trace.trace_id}': duplicate trace_id")
        seen.add(trace.trace_id)
        if len(trace.tokens) == 0:
            violations.append(f"trace '{trace.trace_id}': empty trace")
            continue
        for pos, tok in enumerate(trace.tokens):
            if not 0 <= tok.event < e_max:
                violations.append(
                    f"trace '{trace.trace_id}' token {pos}: "
                    f"event {tok.event} outside [0, {e_max})"
                )
            if not 0 <= tok.time_bin < t_max:
                violations.append(
                    f"trace '{trace.trace_id}' token {pos}: "
                    f"time_bin {tok.time_bin} outside [0, {t_max})"
                )
            if not 0 <= tok.interaction_level < i_max:
                violations.append(
                    f"trace '{trace.trace_id}' token {pos}: "
                    f"interaction_level {tok.interaction_level} outside [0, {i_max})"
                )
    return violations


_components = st.integers(-2, 5) | st.booleans() | st.sampled_from(
    [-(2**63) - 1, -(2**63), 2**63 - 1, 2**63, 2**64 + 5])


@st.composite
def loose_corpora(draw):
    """Corpora with empty traces, repeated ids and components of any size or sign."""
    schema = synthetic_schema(*(draw(st.integers(1, 4)) for _ in range(3)))
    traces = tuple(
        Trace(draw(st.sampled_from("abc")), tuple(
            Token(draw(_components), draw(_components), draw(_components))
            for _ in range(draw(st.integers(0, 4)))
        ))
        for _ in range(draw(st.integers(1, 5)))
    )
    return Corpus(schema, traces)


@settings(max_examples=300, deadline=None)
@given(loose_corpora())
def test_validate_corpus_matches_the_per_token_loop(corpus):
    assert validate_corpus(corpus) == _validate_by_token(corpus)


def test_trace_is_frozen_and_stores_its_tokens_as_a_tuple():
    listed = Trace("a", [Token(0, 1, 2), Token(3, 4, 0)])
    assert type(listed.tokens) is tuple
    assert listed.tokens == (Token(0, 1, 2), Token(3, 4, 0))
    tokens = (Token(0, 0, 0),)
    assert Trace("b", tokens).tokens is tokens  # a tuple is kept as it is
    with pytest.raises(AttributeError):
        listed.tokens = ()
    with pytest.raises(AttributeError):
        listed.trace_id = "b"


# --- JSON output ---------------------------------------------------------------


_ODD_FLOATS = [-0.0, 0.0, 5e-324, 1e-300, 1e-05, 0.1, 1e16, 1e22, 2.0, -3.0]
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_ODD_FLOATS)
json_floats = finite_floats | st.sampled_from([float("nan"), float("inf"), float("-inf")])
odd_leaves = st.one_of(
    st.integers(-(10**20), 10**20), st.booleans(), st.none(),
    json_floats.map(np.float64), st.text(max_size=3),
)


@st.composite
def float_lists(draw):
    """Ragged nested lists of depth 1-5: finite floats, or now and then any leaf or an empty list."""
    depth = draw(st.integers(1, 5))
    leaves = draw(st.sampled_from([finite_floats, finite_floats | st.integers(),
                                   json_floats | odd_leaves]))
    min_size = draw(st.sampled_from([1, 1, 0]))
    lists = st.lists(leaves, min_size=min_size, max_size=5)
    for _ in range(depth - 1):
        lists = st.lists(lists, min_size=min_size, max_size=3)
    return draw(lists)


mixed_lists = st.recursive(json_floats | odd_leaves, lambda inner: st.lists(inner, max_size=3),
                           max_leaves=10)
json_keys = st.text(max_size=4) | st.sampled_from(["", "\"", "\\", "\n", "\u00e9t\u00e9", "\U0001f600", "\x00"])
json_payloads = st.recursive(
    st.one_of(float_lists(), float_lists(), float_lists(), mixed_lists, odd_leaves),
    lambda inner: st.dictionaries(json_keys, inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3) | st.floats(allow_nan=False) | st.booleans(), inner,
                      max_size=2)
    | st.lists(inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=500, deadline=None)
@given(float_lists() | json_payloads)
@example({"posterior": {"theta": [[0.25, 0.75], [1.0, 0.0]], "psi": [[[0.5, 0.5]], [[1.0, 0.0]]]},
          "trace_ids": ["a", "b"], "log_joint_trace": [-12.5, -11.0], "config": {"seed": 1}})
@example([[], [1.0], [[2.0]]])
@example({"\u00e9": [-0.0, 5e-324, 1e-05, 1e16, 3.0, float("nan"), float("inf")], "x": [[[]]]})
@example({"a": [1.0, 2, True, np.float64(0.5)], "b": [[1.0], []], 3: [1.0]})
def test_save_json_writes_what_json_dumps_writes(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "out.json"
    try:
        expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    except (TypeError, ValueError) as exc:  # mixed key types cannot be sorted
        with pytest.raises(type(exc)):
            save_json(payload, path)
        return
    save_json(payload, path)
    assert path.read_text() == expected


@pytest.mark.parametrize("value", [
    [0.5, -0.0, 5e-324, 1e16, 3],
    [[0.25, 0.75], [1e-05]],
    [[[1.0, 0.0], [0.5, 0.5]], [[1.0]]],
    [],
])
def test_number_lists_are_laid_out_from_their_repr(value):
    text = "".join(_number_lists_chunks(value, 1))
    assert text == json.dumps(value, indent=2).replace("\n", "\n  ")


@pytest.mark.parametrize("value", [
    [1.0, float("nan")], [float("inf")], [1.0, True], [np.float64(1.0)], [1.0, None],
    [[1.0], []], [[]], [1.0, [2.0]], [(1.0, 2.0)], ["1.0"],
])
def test_other_lists_are_left_to_json_dumps(value):
    assert _number_lists_chunks(value, 0) is None


def test_a_self_containing_payload_is_reported_as_json_dumps_does(tmp_path):
    loop = [1.0]
    loop.append(loop)
    cycle = {"a": [0.5]}
    cycle["b"] = cycle
    for payload in (loop, cycle, [[loop]]):
        with pytest.raises(ValueError, match="Circular reference"):
            save_json(payload, tmp_path / "out.json")


# --- atomic output files -----------------------------------------------------


# each entry builds its payload, then returns the call that writes it to a path
OUTPUT_WRITERS = {
    "write_atomic": lambda: lambda path: write_atomic(path, "new text\n"),
    "save_json": lambda: lambda path: save_json({"new": [1, 2]}, path),
    "save_schema": lambda: lambda path: save_schema(Schema.default(), path),
    "save_corpus": lambda: lambda path: save_corpus(
        Corpus(Schema.default(), (Trace("a", (Token(0, 0, 0),)),)), path),
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
