import copy
import gc
import itertools
import json
import os
import pickle
import stat
import sys
from dataclasses import FrozenInstanceError, fields
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hbtm import (
    Corpus,
    Hyperparams,
    ModelState,
    Posterior,
    RejectedRow,
    Schema,
    Token,
    Trace,
    estimate_posterior,
    generate,
    load_corpus,
    load_schema,
    sample_params,
    sampler,
    save_corpus,
    save_schema,
    synthetic_schema,
    validate_corpus,
)
from hbtm.core import NUMBER_LIST_STUB, _float_array_text, save_json, write_atomic
from hbtm.ingest import (ActivityMapping, FilterConfig, MappingRule, build_corpora,
                         write_rejects_csv)

from conftest import greedy_match_traits, random_corpus, raw_events, total_variation


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


def test_hyperparams_positive():
    with pytest.raises(ValueError):
        Hyperparams(alpha=0.0)
    with pytest.raises(ValueError):
        Hyperparams(delta=-1.0)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_hyperparams_refuse_non_finite_values(value):
    for name in ("alpha", "beta", "gamma", "delta"):
        with pytest.raises(ValueError, match=f"^{name} must be at least .* and finite"):
            Hyperparams(**{name: value})


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


def test_posterior_type_rejects_nan_entries():
    good = np.full((2, 2), 0.5)
    for bad in (np.array([[np.nan, 0.5], [0.5, 0.5]]), np.full((2, 2), np.nan)):
        with pytest.raises(ValueError, match="NaN"):
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


def _json_lines(corpus) -> bytes:
    """The corpus file as json.dumps spells each trace, one line each."""
    return "".join(
        json.dumps({"trace_id": t.trace_id, "tokens": t.tokens}, sort_keys=True,
                   separators=(",", ":")) + "\n"
        for t in corpus.traces
    ).encode()


_ODD_TRACE_IDS = ["", 'a"b', "back\\slash", '\\"', "tab\tnew\nline\x00\x1f\x7f", "ümlaut_日本",
                  "lone\ud800surrogate", "plain_1"]


def test_save_corpus_writes_json_lines_for_odd_ids_and_empty_token_lists(tmp_path):
    tokens = (Token(0, 1, 2), Token(14, 6, 4), Token(0, 1, 2), Token(10**20, 0, 0))
    corpus = Corpus(Schema.default(), tuple(Trace(trace_id, tokens[n % 3:] if n % 4 else ())
                                            for n, trace_id in enumerate(_ODD_TRACE_IDS)))
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    assert path.read_bytes() == _json_lines(corpus)
    assert load_corpus(path, corpus.schema) == corpus


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6),
       st.lists(st.integers(1, 12), min_size=1, max_size=8))
def test_save_corpus_writes_json_lines_for_generated_corpora(tmp_path_factory, seed, traits,
                                                              lengths):
    schema = synthetic_schema(6, 4, 3)
    params = sample_params(traits, len(lengths), schema, Hyperparams(), seed=seed)
    corpus = generate(params, lengths, seed=seed, schema=schema).corpus
    path = tmp_path_factory.mktemp("gen") / "c.jsonl"
    save_corpus(corpus, path)
    assert path.read_bytes() == _json_lines(corpus)
    assert load_corpus(path, schema) == corpus


@pytest.mark.parametrize("component, kind", [(True, "bool"), (1.0, "float")])
def test_save_corpus_refuses_a_component_that_is_not_an_int(tmp_path, component, kind):
    # equal to the int 1, so a writer that spells equal tokens alike would spell
    # trace b's int token as this one too; load_corpus refuses either spelling
    corpus = Corpus(Schema.default(), (Trace("a", (Token(component, 0, 0),)),
                                       Trace("b", (Token(1, 0, 0),))))
    assert validate_corpus(corpus) == []
    path = tmp_path / "c.jsonl"
    with pytest.raises(TypeError, match=rf"^trace 'a': token components must be integers, "
                                        rf"got {kind}$"):
        save_corpus(corpus, path)
    assert list(tmp_path.iterdir()) == []
    corpus = Corpus(Schema.default(), corpus.traces[::-1])
    with pytest.raises(TypeError, match=r"^trace 'a': "):
        save_corpus(corpus, path)
    assert list(tmp_path.iterdir()) == []


def test_save_corpus_refuses_a_trace_id_that_is_not_a_string(tmp_path):
    corpus = Corpus(Schema.default(), (Trace(5, (Token(0, 0, 0),)),))
    with pytest.raises(TypeError, match=r"^trace_id must be a string, got int$"):
        save_corpus(corpus, tmp_path / "c.jsonl")
    assert list(tmp_path.iterdir()) == []


_ID_PARTS = st.sampled_from(["s1", "a_1", "", 'q"', "back\\", "tab\t", "ü", "日本", "\x7f"])


@st.composite
def corpora_of_columns(draw):
    """A corpus of columns built by build_corpora from drawn events, or a file's text.

    Drawn events take student and session ids that need escapes or are not
    ASCII. A drawn file is in save_corpus's form, with plain ASCII ids and
    components of up to 18 digits, so the compiled reader loads it as columns.
    """
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(
            _ID_PARTS, _ID_PARTS, st.sampled_from(["Deeds", "Blank", "zzz"]),
            st.sampled_from([0.5, 1.0, 9.0, 30.0, 20000.0]), st.integers(0, 6000)), min_size=1,
            max_size=40))
        events = raw_events([(session, student, activity, 0.0, duration, count, 1)
                             for session, student, activity, duration, count in rows])
        corpora = build_corpora(events, ActivityMapping.default(), Schema.default(),
                                FilterConfig()).corpora
        assume(corpora)
        return list(corpora.values())[draw(st.integers(0, len(corpora) - 1))]
    component = st.integers(0, 10**18 - 1) | st.integers(0, 20)  # as hbtm_corpus reads them
    ids = draw(st.lists(st.text("ab_~ 9", max_size=4), min_size=1, max_size=6, unique=True))
    text = "".join(json.dumps({"tokens": draw(st.lists(st.lists(component, min_size=3, max_size=3),
                                                       min_size=1, max_size=5)),
                               "trace_id": trace_id}, sort_keys=True, separators=(",", ":")) + "\n"
                   for trace_id in ids)
    return text


@settings(max_examples=150, deadline=None)
@given(corpora_of_columns())
def test_save_corpus_writes_json_lines_for_corpora_of_columns(tmp_path_factory, drawn):
    directory = tmp_path_factory.mktemp("columns")
    if isinstance(drawn, Corpus):
        corpus = drawn
    else:
        (directory / "in.jsonl").write_text(drawn)
        corpus = load_corpus(directory / "in.jsonl", Schema.default())
    if sampler._library() is not None:
        assert "traces" not in vars(corpus)  # a corpus of columns
    written = []
    for library in (sampler._library, lambda: None):
        with mock.patch.object(sampler, "_library", library):
            save_corpus(corpus, directory / "out.jsonl")
        written.append((directory / "out.jsonl").read_bytes())
    assert written[0] == written[1] == _json_lines(corpus)
    if not isinstance(drawn, Corpus):
        assert written[0] == drawn.encode()


def test_building_and_saving_plain_rows_makes_no_python_object_per_token(tmp_path):
    if sampler._library() is None:
        pytest.skip("no compiled library")
    rows = 20_000
    events = raw_events([(str(n % 6 + 1), f"s{n % 13}", f"Deeds_Es_{n % 7}", 0.0,
                          float(n % 900 + 2), n % 9, n % 40) for n in range(rows)])
    args = (events, ActivityMapping.default(), Schema.default(), FilterConfig())

    def build_and_save():
        result = build_corpora(*args)
        for session, corpus in result.corpora.items():
            save_corpus(corpus, tmp_path / f"session_{session}.jsonl")
        return result

    build_and_save()  # the first call's one-off work
    gc.collect()
    before = sys.getallocatedblocks()
    result = build_and_save()
    gc.collect()
    grown = sys.getallocatedblocks() - before
    assert result.tokenized == rows
    assert not any("traces" in vars(corpus) for corpus in result.corpora.values())
    assert grown < rows / 20, f"{grown} blocks kept for {rows} tokens"


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


@pytest.mark.parametrize("library", [True, False])
@pytest.mark.parametrize("trace_id, kind", [
    ("1", "int"), ("null", "NoneType"), ("true", "bool"), ("1.5", "float"), ("[1]", "list"),
    ("{}", "dict"),
])
def test_load_corpus_accepts_only_string_trace_ids(tmp_path, monkeypatch, library, trace_id, kind):
    # an int id beside "1" would reach analyze, whose sorted report keys cannot order them
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"tokens":[[0,0,0],[1,1,1]],"trace_id":{trace_id}}}\n'
                    '{"tokens":[[0,0,0],[1,1,1]],"trace_id":"1"}\n')
    if not library:
        monkeypatch.setattr(sampler, "_library", lambda: None)
    with pytest.raises(ValueError, match=rf"bad\.jsonl:1: malformed trace record: "
                                         rf"trace_id must be a string, got {kind}$"):
        load_corpus(path, Schema.default())


@pytest.mark.parametrize("library", [True, False])
def test_load_corpus_names_the_line_nested_past_the_recursion_limit(tmp_path, monkeypatch,
                                                                    library):
    path = tmp_path / "deep.jsonl"
    path.write_text('{"tokens":[[0,0,0]],"trace_id":"a"}\n' + "[" * 200000 + "\n")
    if not library:
        monkeypatch.setattr(sampler, "_library", lambda: None)
    with pytest.raises(ValueError, match=r"deep\.jsonl:2: malformed trace record: maximum "
                                         r"recursion depth exceeded") as info:
        load_corpus(path, Schema.default())
    assert type(info.value.__cause__) is RecursionError


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
                if type(trace_id) is not str:
                    raise TypeError(f"trace_id must be a string, got {type(trace_id).__name__}")
                trace = Trace(trace_id, tokens)
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
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


_SAVED_A = '{"tokens":[[1,2,3],[0,14,6]],"trace_id":"a"}'
_SAVED_B = '{"tokens":[[999999999999999999,0,0]],"trace_id":"b"}'


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
# a file the compiled reader answers, then lines it could misread: wrong-width
# tokens, a list closed early, an empty token, 19 digits, a blank line, no
# final newline, CRLF, a BOM
@example(['{"tokens":[[1,2],[3,4,5,6]],"trace_id":"a"}'], "\n", True)
@example(['{"tokens":[[1,2,3]],[[4,5,6]],"trace_id":"a"}'], "\n", True)
@example(['{"tokens":[[1,2,3],[]],"trace_id":"a"}'], "\n", True)
@example(['{"tokens":[[1234567890123456789,0,0]],"trace_id":"a"}'], "\n", True)
@example([_SAVED_A, _SAVED_B], "\n", True)
@example([_SAVED_A, "", _SAVED_B], "\n", True)
@example([_SAVED_A, _SAVED_B], "\n", False)
@example([_SAVED_A, _SAVED_B], "\r\n", True)
@example(["\ufeff" + _SAVED_A, _SAVED_B], "\n", True)
def test_load_corpus_equals_the_json_reader(tmp_path_factory, lines, newline, final_newline):
    path = tmp_path_factory.mktemp("lc") / "c.jsonl"
    path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode())
    want = _load_outcome(_load_corpus_by_json, path)
    assert _load_outcome(load_corpus, path) == want
    with mock.patch.object(sampler, "_library", lambda: None):
        assert _load_outcome(load_corpus, path) == want


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
    want = _validate_by_token(corpus)
    assert validate_corpus(corpus) == want
    try:  # once a corpus of traces has made its columns, they are checked first
        corpus.codes
    except OverflowError:  # a component that no int64 holds
        return
    assert validate_corpus(corpus) == want


@st.composite
def saved_corpora(draw):
    """Corpora that a corpus file holds: half valid, half with empty traces and with
    components at each limit, past it, or of 18 and 19 digits.
    """
    dims = [draw(st.integers(1, 4)) for _ in range(3)]
    loose = draw(st.booleans())
    components = [st.integers(0, limit) | st.sampled_from([10**18 - 1, 10**18]) if loose
                  else st.integers(0, limit - 1) for limit in dims]
    traces = tuple(
        Trace(draw(st.sampled_from(["a", "b", "c", "d", "é"])), tuple(
            Token(*(draw(component) for component in components))
            for _ in range(draw(st.integers(0 if loose else 1, 4)))
        ))
        for _ in range(draw(st.integers(1, 5)))
    )
    return Corpus(synthetic_schema(*dims), traces)


@settings(max_examples=200, deadline=None)
@given(saved_corpora())
def test_validate_corpus_of_a_loaded_corpus_matches_the_per_token_loop(tmp_path_factory, corpus):
    # with the library, a file of nonempty traces with ASCII ids and no 19-digit
    # component loads as columns: a valid one passes on the columns alone, and
    # any other goes through the loop over the traces built from them
    path = tmp_path_factory.mktemp("vc") / "c.jsonl"
    save_corpus(corpus, path)
    want = _validate_by_token(corpus)
    for library in (sampler._library, lambda: None):
        with mock.patch.object(sampler, "_library", library):
            loaded = load_corpus(path, corpus.schema)
        assert validate_corpus(loaded) == want
        assert loaded == corpus


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


@pytest.mark.parametrize("record", [
    Trace("a", (Token(0, 1, 2),)), RejectedRow(3, "short row"), MappingRule("exact", "Blank", 13),
], ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_every_assignment_and_survive_copies(record):
    for name in (fields(record)[0].name, "weight"):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 1)
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record == copy.deepcopy(record)


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
@example({"a": [0.5, 1.5], "b": NUMBER_LIST_STUB, "c": [[2.5]], NUMBER_LIST_STUB: "x"})
@example({"z": [1.0], "m": {"y": [[2.0, 3.0]], "b": {"q": [4.0], "c": [5.0, 6.0]}, "a": "x"},
          "a": [7.0]})
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


def assert_saved_as_json_dumps(payload, tmp_path):
    save_json(payload, tmp_path / "out.json")
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "out.json").read_text() == expected


@pytest.mark.parametrize("value", [
    [0.5, -0.0, 5e-324, 1e16, 3],
    [[0.25, 0.75], [1e-05]],
    [[[1.0, 0.0], [0.5, 0.5]], [[1.0]]],
    [],
])
def test_number_lists_are_laid_out_from_their_repr(tmp_path, value):
    # json spells each number by its repr; the list sits one level deep
    assert_saved_as_json_dumps({"x": value}, tmp_path)


@pytest.mark.parametrize("value", [
    [1.0, float("nan")], [float("inf")], [1.0, True], [np.float64(1.0)], [1.0, None],
    [[1.0], []], [[]], [1.0, [2.0]], [(1.0, 2.0)], ["1.0"],
])
def test_other_lists_are_left_to_json_dumps(tmp_path, value):
    assert_saved_as_json_dumps([value], tmp_path)


def test_a_self_containing_payload_is_reported_as_json_dumps_does(tmp_path):
    loop = [1.0]
    loop.append(loop)
    cycle = {"a": [0.5]}
    cycle["b"] = cycle
    for payload in (loop, cycle, [[loop]]):
        with pytest.raises(ValueError, match="Circular reference"):
            save_json(payload, tmp_path / "out.json")


# --- float arrays written by the compiled library -----------------------------


def library_text(array: np.ndarray, level: int = 0) -> str | None:
    """The compiled library's text for ``array`` ``level`` deep; None if it declines the array."""
    if sampler._library() is None:
        pytest.skip("no compiled library")
    return _float_array_text(array, level)


def json_text(array: np.ndarray, level: int = 0) -> str:
    return json.dumps(array.tolist(), indent=2).replace("\n", "\n" + "  " * level)


def assert_written_as_repr_or_declined(array: np.ndarray, level: int = 0) -> bool:
    """Whether the library writes ``array``; if it does, its text is json's, byte for byte."""
    text = library_text(array, level)
    if text is not None:
        assert text == json_text(array, level)
    return text is not None


def powers_of_two_and_neighbours() -> list[float]:
    powers = [2.0 ** k for k in range(-1074, 1024)]
    return [float(x) for p in powers for x in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))]


SHORTEST_DIGITS = [  # the shortest round-trip forms have 15, 16 and 17 digits
    0.123456789012345, 1234567890.12345, 0.1234567890123456, 123456789012.3456,
    0.30000000000000004, 1.2345678901234567, 0.9007199254740993, 2.718281828459045,
]
HALFWAY = [  # exactly halfway between the two nearest shortest forms: the even one is written
    15853097491924.0625, 195482867757207.625, 1865872891979953.25, 772714597012530.25,
]
PINNED = [0.0, -0.0, 5e-324, sys.float_info.max, 1e-4, 1e-5, 9.999999999999999e-05,
          1e15, 1e16, 9999999999999998.0, 9007199254740993.0, *SHORTEST_DIGITS, *HALFWAY]


def test_pinned_floats_are_written_as_repr_or_declined():
    values = powers_of_two_and_neighbours() + PINNED
    written = {v for v in values if assert_written_as_repr_or_declined(np.array([v]))}
    # the documented range: zero, and 2^-49 <= |v| < 2^126
    assert written == {v for v in values if v == 0.0 or 2.0 ** -49 <= v < 2.0 ** 126}
    negated = np.array([-v for v in written])
    assert assert_written_as_repr_or_declined(negated)
    assert assert_written_as_repr_or_declined(negated.reshape(-1, 1), level=3)
    assert not assert_written_as_repr_or_declined(np.array(values))  # 5e-324 declines them all


def test_many_uniforms_and_sevenths_are_written_as_repr():
    rng = np.random.default_rng(18)
    for array in (rng.random(20000), np.arange(1, 20000) / 7, rng.dirichlet(np.ones(20), 500)):
        assert assert_written_as_repr_or_declined(array, level=2)


def in_range_bits(sign_exponent: int, fraction: int) -> int:
    return sign_exponent << 52 | fraction


shapes = array_shapes(min_dims=1, max_dims=3, max_side=4)
float_elements = (st.floats() | st.floats(-1e17, 1e17) | st.floats(1e-13, 1.0)
                  | st.sampled_from(PINNED))
bit_elements = st.integers(0, 2 ** 64 - 1) | st.builds(
    in_range_bits, st.integers(974, 1148) | st.integers(974 + 2048, 1148 + 2048),
    st.integers(0, 2 ** 52 - 1) | st.sampled_from([0, 1, 2 ** 52 - 1]))


@settings(max_examples=400, deadline=None)
@given(array=arrays(np.float64, shapes, elements=float_elements)
       | arrays(np.uint64, shapes, elements=bit_elements).map(lambda a: a.view(np.float64)),
       level=st.integers(0, 4))
def test_float_arrays_are_written_as_repr_or_declined_whole(array, level):
    written = assert_written_as_repr_or_declined(array, level)
    alone = [assert_written_as_repr_or_declined(np.array([v])) for v in array.flat]
    assert written == all(alone)


@pytest.mark.parametrize("array", [
    np.array([[0.25, 1e-300], [0.5, 0.5]]), np.array([[float("nan"), 1.0]]),
    np.array([1e200, -1.5]), np.zeros((2, 0)), np.zeros(0), np.array(0.5), np.arange(3),
    np.ones((2, 3), np.float32), np.array([0.1, 0.7])[::-1], np.asfortranarray(np.eye(3) / 3),
])
def test_declined_and_other_arrays_write_what_json_writes(tmp_path, monkeypatch, array):
    # kept from the library (a number outside its range, NaN, a length-0 axis,
    # another dtype or rank) or written by it (the strided and Fortran-ordered
    # ones): the bytes are the same wherever the array sits, beside any key or
    # the stub's own text, and the same without the library
    payloads = [
        {"posterior": {"theta": array, "x": [0.5]}, "y": array, "z": [1.0, array], "\u00e9": 1},
        array,
        [[array], [[1.0, array]]],
        {"ints": {3: array, -1: [array]}},
        {"  spaced": array, "new\nline": {"a": array}, 'say "hi"': array, "nul\0char": [array]},
        {"note": NUMBER_LIST_STUB, "y": array},
    ]
    for n, payload in enumerate(payloads):
        want = json.dumps(payload, sort_keys=True, indent=2, default=np.ndarray.tolist) + "\n"
        save_json(payload, tmp_path / f"kernel-{n}.json")
        assert (tmp_path / f"kernel-{n}.json").read_text() == want
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "_library", lambda: None)
            save_json(payload, tmp_path / f"python-{n}.json")
        assert (tmp_path / f"python-{n}.json").read_text() == want


def test_a_fit_writes_the_same_model_with_and_without_the_library(tmp_path, monkeypatch):
    corpus = random_corpus(np.random.default_rng(3), num_traces=6)
    payload = sampler.fit(corpus, sampler.FitConfig(num_traits=3, sweeps=6, burn_in=2,
                                                    sample_stride=2)).to_json_dict()
    assert all(type(a) is np.ndarray for a in payload["posterior"].values())
    listed = {**payload, "posterior": {k: a.tolist() for k, a in payload["posterior"].items()}}
    for name, stub in (("plain", {}), ("stub", {"note": NUMBER_LIST_STUB})):
        want = json.dumps({**listed, **stub}, sort_keys=True, indent=2) + "\n"
        save_json({**payload, **stub}, tmp_path / f"{name}.json")
        assert (tmp_path / f"{name}.json").read_text() == want
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "_library", lambda: None)
            save_json({**payload, **stub}, tmp_path / f"{name}-python.json")
        assert (tmp_path / f"{name}-python.json").read_text() == want


# --- atomic output files -----------------------------------------------------


# each entry builds its payload, then returns the call that writes it to a path
OUTPUT_WRITERS = {
    "write_atomic": lambda: lambda path: write_atomic(path, "new text\n"),
    "save_json": lambda: lambda path: save_json({"new": [1, 2]}, path),
    "save_schema": lambda: lambda path: save_schema(Schema.default(), path),
    "save_corpus": lambda: lambda path: save_corpus(
        Corpus(Schema.default(), (Trace("a", (Token(0, 0, 0),)),)), path),
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
