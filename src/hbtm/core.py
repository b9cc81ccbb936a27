"""Core domain types and shared arithmetic for trait-mixture event-log models.

A corpus holds one trace per student-session; each trace is an ordered list of
tokens, where a token is the triple (event type, time-span bin,
interaction-intensity level). A Posterior holds the four parameter families;
the sampler estimates them as Dirichlet posterior means of its count tables.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
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

# The default admissible duration window (ingest's FilterConfig and its flags):
# drop sub-second transients and anything beyond the top time-bin edge.
DEFAULT_MIN_DURATION_S = 1.0
DEFAULT_MAX_DURATION_S = DEFAULT_TIME_BIN_EDGES[-1]

# Interaction bins are left-closed/right-open [lo, hi) in total input counts.
DEFAULT_INTERACTION_BIN_EDGES = (0.0, 2.0, 3.0, 6.0, 16.0, 4779.0)


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


class FrozenSlots:
    """Base of the frozen dataclasses that name their fields in ``__slots__``.

    ``slots=True`` would re-create the class, and under CPython 3.11 the
    re-created class raises TypeError instead of FrozenInstanceError when a
    name that is not a field is assigned. Declared slots keep the class; this
    base gives back the pickling and copying that ``slots=True`` provides.
    """

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


@dataclass(frozen=True)
class Trace(FrozenSlots):
    """One student's token sequence within one session."""

    __slots__ = ("trace_id", "tokens")
    trace_id: str
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if type(self.tokens) is not tuple:
            object.__setattr__(self, "tokens", tuple(self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    """A schema plus the traces observed under it; at least one trace.

    A corpus holds one of two forms and derives the other once, on first use.
    One is ``traces``, the tuple of Trace objects that ``Corpus(schema,
    traces)`` takes. The other is three columns: ``trace_ids``, ``lengths``
    (an int64 array of tokens per trace) and ``codes`` (an (N, 3) int64 array
    of every token's event, time bin and interaction level, in trace order);
    both arrays are read-only. ``ingest.build_corpora`` builds corpora of
    columns, and ``load_corpus`` does when the compiled reader answers its
    file; it builds a corpus of traces from any other file. A corpus of
    columns builds its ``traces`` when first read, with one shared Token per
    distinct triple, shared too with the other corpora it was built with
    (``tokens`` of ``_of_columns``); only this form shares Tokens. The
    sampler and ``save_corpus`` read the columns, which a corpus of traces
    derives by flattening its tokens. Both forms compare equal when their
    traces do.
    """

    schema: Schema
    traces: tuple[Trace, ...]

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))
        if not self.traces:
            raise ValueError("a corpus needs at least one trace")

    @classmethod
    def _of_columns(cls, schema: Schema, trace_ids: tuple[str, ...], lengths: np.ndarray,
                    codes: np.ndarray, tokens: dict | None = None) -> "Corpus":
        """A corpus of columns; corpora given one ``tokens`` dict share their Tokens."""
        corpus = cls.__new__(cls)
        lengths.flags.writeable = codes.flags.writeable = False  # shared by every reader
        for name, value in (("schema", schema), ("trace_ids", trace_ids), ("lengths", lengths),
                            ("codes", codes), ("_tokens", {} if tokens is None else tokens)):
            object.__setattr__(corpus, name, value)
        return corpus

    def __getattr__(self, name):
        # called only for a name the instance lacks: a corpus of columns lacks
        # its traces until they are first read
        if name != "traces" or "codes" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        shared, index = np.unique(self.codes, axis=0, return_inverse=True)
        made = list(map(Token._make, shared.tolist()))
        token_of = np.fromiter(map(self._tokens.setdefault, made, made), object, len(shared))
        tokens = token_of[index.reshape(-1)].tolist()
        bounds = np.cumsum(self.lengths).tolist()
        traces = tuple(Trace(trace_id, tuple(tokens[lo:hi]))
                       for trace_id, lo, hi in zip(self.trace_ids, [0] + bounds, bounds))
        object.__setattr__(self, "traces", traces)
        return traces

    @functools.cached_property
    def trace_ids(self) -> tuple[str, ...]:
        return tuple(t.trace_id for t in self.traces)

    @functools.cached_property
    def lengths(self) -> np.ndarray:
        lengths = np.fromiter(map(len, self.traces), np.int64, len(self.traces))
        lengths.flags.writeable = False
        return lengths

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """Every token's three components, flattened in trace order."""
        components = chain.from_iterable(chain.from_iterable(t.tokens for t in self.traces))
        codes = np.fromiter(components, np.int64, 3 * self.num_tokens).reshape(-1, 3)
        codes.flags.writeable = False
        return codes

    @property
    def num_traces(self) -> int:
        return len(self.trace_ids)

    @property
    def num_tokens(self) -> int:
        return int(self.lengths.sum())


@dataclass(frozen=True)
class Hyperparams:
    """Symmetric Dirichlet concentrations for the four parameter families.

    alpha smooths per-trace trait mixtures, beta the per-trait event
    distributions, gamma the per-(trait, event) time-bin distributions and
    delta the per-(trait, event) interaction-level distributions. Each must
    be a finite normal float: log-gamma is infinite below the smallest one,
    and an infinite concentration gives NaN probabilities.
    """

    alpha: float = 1.0
    beta: float = 0.1
    gamma: float = 0.1
    delta: float = 0.1

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            v = getattr(self, name)
            if not sys.float_info.min <= v <= sys.float_info.max:
                raise ValueError(
                    f"{name} must be at least {sys.float_info.min!r}, the smallest normal float,"
                    f" and finite; got {v}"
                )


def _check_stochastic(name: str, arr: np.ndarray) -> None:
    if not np.all((arr >= 0) & (arr <= 1)):  # NaN fails both comparisons
        raise ValueError(f"{name} has entries that are NaN or outside [0, 1]")
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

    @classmethod
    def from_dict(cls, d: dict) -> "Posterior":
        return cls(d["theta"], d["phi"], d["psi"], d["tau"])


def validate_corpus(corpus: Corpus) -> list[str]:
    """Report every duplicate trace id, empty trace and out-of-range token index.

    Messages follow trace order; within a trace the duplicate id comes first,
    then the empty trace or each offending token's components in token order.
    Returns an empty list iff the corpus is admissible for fitting.

    A corpus that holds its columns is first checked on them, as whole
    arrays; the loop over its traces below runs only when that check fails,
    so it alone spells the messages.
    """
    schema = corpus.schema
    limits = (
        ("event", schema.num_events),
        ("time_bin", schema.num_time_bins),
        ("interaction_level", schema.num_interaction_levels),
    )
    if "codes" in vars(corpus):  # columns already made: never flatten traces for this
        codes = corpus.codes
        if (len(set(corpus.trace_ids)) == len(corpus.trace_ids) and corpus.lengths.all()
                and codes.min() >= 0
                and all(column.max() < limit for column, (_, limit) in zip(codes.T, limits))):
            return []
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


# ---------------------------------------------------------------------------
# Output files, and corpus files: one JSON object per trace, schema in a
# sidecar header file.
# ---------------------------------------------------------------------------


def skip_bom(lines):
    """The lines of an open text file, or of any iterable, minus a leading byte-order mark.

    A spreadsheet export may start with one. It has to go before ``csv``
    parses the header: otherwise a quoted first field reads as the mark, the
    quotes and the name, and does not match its column.
    """
    lines = iter(lines)
    first = next(lines, None)
    return lines if first is None else chain([first.removeprefix("\ufeff")], lines)


def write_atomic(path, text: str | list[str]) -> None:
    """Replace ``path`` with ``text`` so readers see the old file or all of the new one.

    ``text`` is a str, or a list of str pieces written in turn. It goes to a
    fresh temp file in the target's directory, which then takes the target's
    name in one ``os.replace``; on any failure the temp file is removed and
    the old file keeps its bytes. There is no fsync: the rename protects
    against a failing or interrupted writer, not a host crash.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x")  # "x": a fresh name, created with the umask's usual mode
    try:
        with fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


NUMBER_LIST_STUB = "\0"  # stands in for a float array while json writes or reads the rest


def _float_array_text(value: np.ndarray, level: int) -> str | None:
    """A float64 array as ``json.dumps(indent=2)`` lays out its list ``level`` deep; or None.

    The compiled library writes it (``hbtm_format`` in ``_sweep.c``) without
    making a float object per number. None when the library is missing or
    declines the array: a NaN or inf, a number it cannot spell exactly, a
    length-0 axis; also None for another dtype or a 0-d array.
    """
    from . import sampler  # sampler imports this module

    library = sampler._library()
    # a 0-d array is a float, which ascontiguousarray would make a list
    if library is None or value.dtype != np.float64 or value.ndim == 0:
        return None
    value = np.ascontiguousarray(value)
    # room for each number at its longest (24 bytes) and for each number's and
    # list's comma, newline and indent, and each list's closing line
    lists = sum(math.prod(value.shape[:d]) for d in range(value.ndim))
    capacity = (value.size + 2 * lists) * (2 * (level + value.ndim) + 28)
    out = np.empty(capacity, np.uint8)
    shape = np.array(value.shape, np.int64)
    written = library.hbtm_format(value.ctypes.data, value.ndim, shape.ctypes.data, level,
                                  out.ctypes.data, capacity)
    return out[:written].tobytes().decode("ascii") if written else None


def save_json(payload, path) -> None:
    """Write ``payload`` atomically as sorted, indented JSON with a final newline.

    The bytes are always ``json.dumps(payload, sort_keys=True, indent=2)``
    plus a newline, with each numpy array written as its ``tolist()``. json
    writes the payload with a stub in place of each float64 array (a model's
    posterior, a generator's truth), and each array's text replaces its stub
    at the depth of the stub's line: the compiled library's, or json's own
    for an array the library declines or when it is missing. A payload that
    holds the stub's text itself is written by json whole.
    """
    arrays: list[np.ndarray] = []

    def stub(value):
        if type(value) is np.ndarray and value.dtype == np.float64 and value.ndim:
            arrays.append(value)
            return NUMBER_LIST_STUB
        return np.ndarray.tolist(value)  # a TypeError for anything but an array

    dumps = functools.partial(json.dumps, sort_keys=True, indent=2)
    parts = dumps(payload, default=stub).split(json.dumps(NUMBER_LIST_STUB))
    if len(parts) != len(arrays) + 1:  # the payload holds the stub's text itself
        parts, arrays = [dumps(payload, default=np.ndarray.tolist)], []
    pieces = []
    for part, array in zip(parts, arrays):
        line = part[part.rfind("\n") + 1:]
        level = (len(line) - len(line.lstrip(" "))) // 2
        text = _float_array_text(array, level)
        if text is None:
            text = dumps(array.tolist()).replace("\n", "\n" + "  " * level)
        pieces += [part, text]
    write_atomic(path, [*pieces, parts[-1], "\n"])


def save_schema(schema: Schema, path) -> None:
    save_json(schema.to_dict(), path)


def load_schema(path) -> Schema:
    return Schema.from_dict(json.loads(Path(path).read_text()))


class _TokenTexts(dict):
    """Maps each token to its JSON text, spelled once per distinct token."""

    def __missing__(self, token) -> str:
        text = self[token] = json.dumps(token, separators=(",", ":"))
        return text


def _check_traces(traces: tuple[Trace, ...]) -> None:
    """Raise TypeError, naming the trace, for an id that is not a str or a component not an int."""
    for trace in traces:
        kinds = set(map(type, chain.from_iterable(trace.tokens))) - {int}
        if kinds:  # bool and float too: load_corpus would refuse them
            names = ", ".join(sorted(k.__name__ for k in kinds))
            raise TypeError(f"trace {trace.trace_id!r}: token components must be integers, "
                            f"got {names}")
        if type(trace.trace_id) is not str:
            raise TypeError(f"trace_id must be a string, got {type(trace.trace_id).__name__}")


def _token_lists(corpus: Corpus) -> list[str] | None:
    """Each trace's ``[e,t,i],...`` text, written from the corpus's columns; or None.

    The compiled library writes them (``hbtm_tokens`` in ``_sweep.c``); None
    when it is missing or declines, or when the lengths do not count the
    rows of ``codes``. The buffer, not zeroed, holds every token at the
    widest component's length: three components, two commas, two brackets
    and the comma after.
    """
    from . import sampler  # sampler imports this module

    library = sampler._library()
    lengths, codes = (np.ascontiguousarray(corpus.lengths, np.int64),
                      np.ascontiguousarray(corpus.codes, np.int64))
    if library is None or lengths.min() < 0 or lengths.sum() != len(codes):
        return None
    width = max(len(str(codes.min())), len(str(codes.max()))) if codes.size else 0
    capacity = len(codes) * (3 * width + 5)
    out, ends = np.empty(capacity, np.uint8), np.empty(len(lengths), np.int64)
    if not library.hbtm_tokens(len(lengths), lengths.ctypes.data, codes.ctypes.data,
                               out.ctypes.data, capacity, ends.ctypes.data):
        return None
    bounds = ends.tolist()
    text = out[:bounds[-1]].tobytes().decode("ascii")
    return [text[lo:hi] for lo, hi in zip([0] + bounds, bounds)]


def save_corpus(corpus: Corpus, path) -> None:
    """Write one trace per line: {"tokens": [[e, t, i], ...], "trace_id": ...}.

    Each line is ``json.dumps({"trace_id": ..., "tokens": ...}, sort_keys=True,
    separators=(",", ":"))``. A corpus that holds its columns has its token
    lists written from them by ``_token_lists``; any other corpus, or any
    corpus without the library, is written from its traces here, each
    distinct token spelled once. Every id must be a str and every token
    component an int, as ``load_corpus`` requires of the file: a trace that
    holds a bool, a float or any other component raises TypeError naming
    it, and no file is written.
    """
    if "traces" in vars(corpus):  # a corpus of columns makes only str ids and int components
        _check_traces(corpus.traces)
    lists = _token_lists(corpus) if "codes" in vars(corpus) else None
    if lists is None:
        text_of = _TokenTexts().__getitem__
        lists = [",".join(map(text_of, trace.tokens)) for trace in corpus.traces]
    write_atomic(path, [
        f'{{"tokens":[{tokens}],"trace_id":{quoted}}}\n'
        for tokens, quoted in zip(lists, map(encode_basestring_ascii, corpus.trace_ids))
    ])


def _read_columns(path, schema: Schema) -> Corpus | None:
    """The corpus of columns the compiled library reads from ``path``; None if declined.

    ``hbtm_corpus`` answers a file only when every line is in ``save_corpus``'s
    exact form with an ASCII id that needs no escape and at least one token,
    and every line, the last included, ends in ``\\n``. Such a line takes at
    least 35 bytes, and each of its tokens 8 (``[0,0,0]`` and a comma or
    bracket), so the buffers hold every line and token of a file it answers.
    """
    from . import sampler  # sampler imports this module

    library = sampler._library()
    if library is None:
        return None
    with open(path, "rb") as fh:
        raw = fh.read()
    max_lines, max_tokens = len(raw) // 35, len(raw) // 8
    lengths, ids = np.empty(max_lines, np.int64), np.empty(2 * max_lines, np.int64)
    codes = np.empty((max_tokens, 3), np.int64)
    lines = library.hbtm_corpus(np.frombuffer(raw, np.uint8).ctypes.data, len(raw), max_lines,
                                max_tokens, lengths.ctypes.data, ids.ctypes.data,
                                codes.ctypes.data)
    if not lines:
        return None
    text, bounds = raw.decode("ascii"), ids[:2 * lines].tolist()
    trace_ids = tuple(text[lo:hi] for lo, hi in zip(bounds[::2], bounds[1::2]))
    lengths = lengths[:lines]
    return Corpus._of_columns(schema, trace_ids, lengths, codes[:lengths.sum()])


def load_corpus(path, schema: Schema) -> Corpus:
    """Read a corpus file; each token component must be a plain JSON integer
    and each ``trace_id`` a string.

    A file the compiled library answers (see ``_read_columns``) becomes a
    corpus of columns. Any other file, or every file without the library, is
    read here with one ``json.loads`` per line, with the same traces and the
    same errors; each token of such a corpus is its own Token. A line that
    breaks these rules or that json cannot read (one nested past its
    recursion limit included) raises ValueError naming the file and line.
    """
    corpus = _read_columns(path, schema)
    if corpus is not None:
        return corpus
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
                if type(trace_id) is not str:
                    raise TypeError(f"trace_id must be a string, got {type(trace_id).__name__}")
                trace = Trace(trace_id, tokens)
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed trace record: {exc}") from exc
            traces.append(trace)
    if not traces:
        raise ValueError(f"{path}: corpus has no traces")
    return Corpus(schema, tuple(traces))
