"""Core domain types and shared arithmetic for trait-mixture event-log models.

A corpus holds one trace per student-session; each trace is an ordered list of
tokens, where a token is the triple (event type, time-span bin,
interaction-intensity level). A Posterior holds the four parameter families;
the sampler estimates them as Dirichlet posterior means of its count tables.
"""

from __future__ import annotations

import json
import os
import re
import sys
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


_INDENT = "  "
_MAX_DEPTH = 64  # deeper or self-containing values are left to json.dumps, which reports them
NUMBER_LIST_STUB = "\0"  # stands in for a number list while json writes or reads the rest


def _number_lists_chunks(value: list, level: int) -> list[str] | None:
    """``value`` as ``json.dumps(indent=2)`` lays it out ``level`` deep, in pieces; or None.

    Handles lists whose leaves are all finite ints and floats at one depth,
    with no empty inner list. Each innermost list is written from its C-level
    ``repr``, which spells every number as json does (``int.__repr__``,
    ``float.__repr__``), so only its ``, `` separators need line breaks. The
    types are checked one nesting level at a time, at C speed.
    """
    if not value:
        return ["[]"]
    items, depth = value, 1
    while (kinds := set(map(type, items))) == {list} and depth < _MAX_DEPTH:
        if not all(items):  # an empty inner list
            return None
        items, depth = list(chain.from_iterable(items)), depth + 1
    if not kinds or not kinds <= {float, int}:
        return None
    chunks: list[str] = []
    _lay_out(value, level, depth, chunks)
    # json writes nan and inf as NaN and Infinity
    return None if any("n" in chunk for chunk in chunks) else chunks


def _lay_out(value: list, level: int, depth: int, chunks: list[str]) -> None:
    """Append the pieces of a checked number list nested ``depth`` lists deep."""
    inner = "\n" + _INDENT * (level + 1)
    close = "\n" + _INDENT * level + "]"
    if depth == 1:
        chunks.append("[" + inner + repr(value)[1:-1].replace(", ", "," + inner) + close)
        return
    for n, item in enumerate(value):
        chunks.append(("," if n else "[") + inner)
        _lay_out(item, level + 1, depth - 1, chunks)
    chunks.append(close)


def _stub_number_lists(value, level: int, lists: list[list[str]]):
    """``value``, ``level`` deep in a payload, with each number list replaced by the stub.

    A list that ``_number_lists_chunks`` lays out becomes the stub and its
    pieces go on ``lists``. A dict with str keys and a list or dict value is
    rebuilt with its keys sorted, so the stubs come in the order
    ``json.dumps(sort_keys=True)`` writes them; every other value is kept.
    """
    if type(value) is list and (chunks := _number_lists_chunks(value, level)) is not None:
        lists.append(chunks)
        return NUMBER_LIST_STUB
    if (type(value) is not dict or level >= _MAX_DEPTH or any(type(k) is not str for k in value)
            or not any(type(item) in (list, dict) for item in value.values())):
        return value
    return {key: _stub_number_lists(item, level + 1, lists) for key, item in sorted(value.items())}


def save_json(payload, path) -> None:
    """Write ``payload`` atomically as sorted, indented JSON with a final newline.

    The bytes are always ``json.dumps(payload, sort_keys=True, indent=2)``
    plus a newline. json's pure-Python indenting encoder costs about twice
    what the numbers' ``repr`` does, so json writes the payload with a stub
    in place of each list of finite numbers (a model's posterior, its
    log-joint trace), and the lists, laid out from their ``repr``, replace
    the stubs.
    """
    lists: list[list[str]] = []
    stubbed = _stub_number_lists(payload, 0, lists)
    parts = json.dumps(stubbed, sort_keys=True, indent=2).split(json.dumps(NUMBER_LIST_STUB))
    if len(parts) != len(lists) + 1:  # the payload holds the stub's text itself
        parts, lists = [json.dumps(payload, sort_keys=True, indent=2)], []
    pieces = chain.from_iterable([part, *chunks] for part, chunks in zip(parts, lists))
    write_atomic(path, [*pieces, parts[-1], "\n"])


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


# The exact line ``save_corpus`` writes, with an id that needs no JSON escape
# (so the id is its own decoded value) and a token list made of digits, commas
# and brackets. Each distinct token text is then checked once against the
# canonical triple; a line that fails either check is decoded as JSON.
_CANONICAL_LINE = re.compile(
    r'\{"tokens":\[\[([0-9,\[\]]+)\]\],"trace_id":"([^"\\\x00-\x1f]*)"\}\n?'
)
_COMPONENT = "(?:0|[1-9][0-9]{0,17})"  # a JSON integer that an int64 holds
_CANONICAL_TOKEN = re.compile(f"{_COMPONENT},{_COMPONENT},{_COMPONENT}")


class _TokenTable(dict):
    """Maps each canonical ``e,t,i`` text to one shared Token; KeyError on any other text."""

    def __missing__(self, text: str) -> Token:
        if not _CANONICAL_TOKEN.fullmatch(text):
            raise KeyError(text)
        token = self[text] = Token._make(map(int, text.split(",")))
        return token


def _canonical_trace(line: str, tokens_of) -> Trace | None:
    """The trace on a line in ``save_corpus``'s exact form; None for any other line."""
    match = _CANONICAL_LINE.fullmatch(line)
    if match is None:
        return None
    body, trace_id = match.groups()
    try:
        return Trace(trace_id, tuple(map(tokens_of, body.split("],["))))
    except KeyError:
        return None


def load_corpus(path, schema: Schema) -> Corpus:
    """Read a corpus file; every token component must be a plain JSON integer.

    Lines in ``save_corpus``'s own form are read without ``json``, their equal
    tokens sharing one Token object; every other line is decoded as JSON.
    """
    traces = []
    tokens_of = _TokenTable().__getitem__
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            trace = _canonical_trace(line, tokens_of)
            if trace is not None:
                traces.append(trace)
                continue
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
