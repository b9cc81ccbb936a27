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


@dataclass(frozen=True, slots=True)
class Trace:
    """One student's token sequence within one session."""

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

    @property
    def trace_ids(self) -> list[str]:
        return [t.trace_id for t in self.traces]


@dataclass(frozen=True)
class Hyperparams:
    """Symmetric Dirichlet concentrations for the four parameter families.

    alpha smooths per-trace trait mixtures, beta the per-trait event
    distributions, gamma the per-(trait, event) time-bin distributions and
    delta the per-(trait, event) interaction-level distributions. Each must
    be a normal float: log-gamma is infinite below the smallest one.
    """

    alpha: float = 1.0
    beta: float = 0.1
    gamma: float = 0.1
    delta: float = 0.1

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            v = getattr(self, name)
            if not v >= sys.float_info.min:
                raise ValueError(
                    f"{name} must be at least {sys.float_info.min!r}, the smallest normal float;"
                    f" got {v}"
                )


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


def _json_text(value, level: int) -> str:
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + _INDENT * level)


def _fast_json_chunks(value, level: int) -> list[str] | None:
    """``value`` as ``json.dumps(sort_keys=True, indent=2)`` writes it ``level`` deep.

    Number lists take ``_number_lists_chunks``; a dict with str keys is laid
    out here when one of its values takes that path, its other values by
    ``json.dumps``. None for every other value: json.dumps then writes all of
    it in one call.
    """
    if type(value) is list:
        return _number_lists_chunks(value, level)
    if type(value) is not dict or level >= _MAX_DEPTH or any(type(k) is not str for k in value):
        return None
    fast = {key: chunks for key, item in value.items()
            if type(item) in (list, dict) and (chunks := _fast_json_chunks(item, level + 1)) is not None}
    if not fast:
        return None
    inner = "\n" + _INDENT * (level + 1)
    out: list[str] = []
    for key, item in sorted(value.items()):
        out.append(("," if out else "{") + inner + json.dumps(key) + ": ")
        out.extend(fast[key] if key in fast else [_json_text(item, level + 1)])
    out.append("\n" + _INDENT * level + "}")
    return out


def save_json(payload, path) -> None:
    """Write ``payload`` atomically as sorted, indented JSON with a final newline.

    The bytes are always ``json.dumps(payload, sort_keys=True, indent=2)``
    plus a newline. json's pure-Python indenting encoder costs about twice
    what the numbers' ``repr`` does, so lists of finite numbers (a model's
    posterior, its log-joint trace) are laid out from their ``repr`` instead,
    and the pieces are written in turn rather than joined into one string.
    """
    chunks = _fast_json_chunks(payload, 0)
    if chunks is None:
        chunks = [json.dumps(payload, sort_keys=True, indent=2)]
    write_atomic(path, chunks + ["\n"])


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
