"""Collapsed Gibbs inference over per-token trait assignments.

The Dirichlet-distributed parameters are integrated out analytically, leaving
a Markov chain over the discrete assignments alone. For token (m, n) with
observed (e, t, i) and all counts excluding that token, the full conditional
weight of trait k is

    (N_mk + alpha) * (N_ke + beta)  / (N_k + E*beta)
                   * (N_ket + gamma) / (N_ke + T*gamma)
                   * (N_kei + delta) / (N_ke + I*delta)

Sweeps visit tokens in trace order, then token order; this sequential scan is
part of the contract and makes runs with equal seeds bit-identical. One chain
owns its ModelState; concurrent chains need distinct states and seeds.
``run_chain`` runs a chain and yields its state after every sweep; that state
is valid only until the next item is requested. ``fit`` is its consumer that
averages the retained snapshots.

Assignments, token encodings and count tables are flat C-contiguous int64
numpy arrays. The per-token update loop dominates the cost of a fit, so
``gibbs_sweep`` runs it in a small C kernel (``_sweep.c``), compiled with the
system C compiler on first use and cached under ``$XDG_CACHE_HOME/hbtm``
(default ``~/.cache/hbtm``). ``reference_sweep`` is the same loop in plain
Python: it is the oracle the kernel must match bit for bit, and the fallback
when no compiler or cache directory is usable. The same library runs
``analysis.kmeans``' Lloyd iterations, reads the plain rows of
``ingest.parse_raw_log``, writes the float arrays of ``core.save_json`` and
evaluates the log-gamma terms of ``collapsed_log_joint`` (``hbtm_gammaln``,
equal to ``scipy.special.gammaln``, which stays its fallback, so a fit with
the library imports no scipy). A process that falls back says so once, in
one line on stderr. A new kernel takes a prototype in ``_sweep.c``, one row in
``_KERNELS`` and one driver in ``tests/test_tooling.py``'s sanitizer harness.

``load_fit_result`` reads the posterior of a model file in ``core.save_json``'s
layout through the same library's number scanner, and every other file, or
every file when the library is missing, through ``json``: both give the same
floats and the same errors.
"""

from __future__ import annotations

import ctypes
import functools
import io
import json
import math
import os
import sys
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .core import NUMBER_LIST_STUB, Corpus, Hyperparams, Posterior, validate_corpus


_TABLES = ("n_mk", "n_ke", "n_ket", "n_kei", "n_k")


class CountConsistencyError(RuntimeError):
    """Raised when a sampler state's count tables disagree with its assignments."""


@dataclass(frozen=True)
class FitConfig:
    """Chain length, thinning, seed and smoothing for one fit."""

    num_traits: int
    sweeps: int = 2000
    burn_in: int = 1000
    sample_stride: int = 10
    seed: int = 0
    hyper: Hyperparams = field(default_factory=Hyperparams)
    audit_every: int = 0  # 0 disables the per-sweep count audit

    def __post_init__(self):
        if self.num_traits < 1:
            raise ValueError("num_traits must be at least 1")
        if self.sweeps < 1:
            raise ValueError("sweeps must be at least 1")
        if not 0 <= self.burn_in < self.sweeps:
            raise ValueError("burn_in must satisfy 0 <= burn_in < sweeps")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be at least 1")
        if (self.sweeps - self.burn_in) // self.sample_stride < 1:
            raise ValueError("no retained samples: widen sweeps or shrink stride/burn_in")
        if self.audit_every < 0:
            raise ValueError("audit_every must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)


def _tally(z, encodings, dims) -> tuple[np.ndarray, ...]:
    """The five count tables, in ``_TABLES`` order, of flat assignments ``z``.

    ``encodings`` are the flat trace, event, time-bin and interaction-level
    index arrays; ``dims`` the trace, trait, event, time-bin and
    interaction-level counts.
    """
    m_idx, e_idx, t_idx, i_idx = encodings
    m_n, k_n, e_n, t_n, i_n = dims
    z = np.asarray(z)
    ke = z * e_n + e_idx
    return (
        np.bincount(m_idx * k_n + z, minlength=m_n * k_n).reshape(m_n, k_n),
        np.bincount(ke, minlength=k_n * e_n).reshape(k_n, e_n),
        np.bincount(ke * t_n + t_idx, minlength=k_n * e_n * t_n).reshape(k_n, e_n, t_n),
        np.bincount(ke * i_n + i_idx, minlength=k_n * e_n * i_n).reshape(k_n, e_n, i_n),
        np.bincount(z, minlength=k_n),
    )


def estimate_posterior(state, hyper: Hyperparams) -> Posterior:
    """Smoothed point estimates from a sampler state's count tables.

    Every estimate is the Dirichlet posterior mean of the corresponding
    counts, where N_m = sum_k N_mk is the length of trace m:

        theta[m, k] = (N_mk + alpha) / (N_m + K * alpha)
        phi[k, e]   = (N_ke + beta)  / (N_k + E * beta)
        psi[k, e, t] = (N_ket + gamma) / (N_ke + T * gamma)
        tau[k, e, i] = (N_kei + delta) / (N_ke + I * delta)

    A pure function of the counts: states with equal tables give identical
    results. Raises ValueError if the tables are mutually inconsistent.
    """
    n_mk, n_ke, n_ket, n_kei, n_k = (
        np.asarray(getattr(state, name), dtype=float) for name in _TABLES
    )
    if np.any(n_mk < 0) or np.any(n_ket < 0) or np.any(n_kei < 0):
        raise ValueError("negative counts in sampler state")
    if not np.array_equal(n_ke.sum(axis=1), n_k):
        raise ValueError("trait totals inconsistent with per-event counts")
    if not np.array_equal(n_ket.sum(axis=2), n_ke) or not np.array_equal(n_kei.sum(axis=2), n_ke):
        raise ValueError("time/interaction tables inconsistent with event counts")

    theta = (n_mk + hyper.alpha) / (n_mk.sum(axis=1) + n_mk.shape[1] * hyper.alpha)[:, None]
    phi = (n_ke + hyper.beta) / (n_k + n_ke.shape[1] * hyper.beta)[:, None]
    psi = (n_ket + hyper.gamma) / (n_ke + n_ket.shape[2] * hyper.gamma)[..., None]
    tau = (n_kei + hyper.delta) / (n_ke + n_kei.shape[2] * hyper.delta)[..., None]
    return Posterior(theta, phi, psi, tau)


class _Assignments(np.ndarray):
    """The flat int64 assignment array.

    Iterating it yields Python ints: perfbench's sweep probe counts changed
    assignments by comparing values taken from ``z`` and JSON-dumps the
    count, which numpy scalars would break.
    """

    def __iter__(self):
        return iter(self.tolist())


class ModelState:
    """Assignments plus the count tables that summarize them.

    Tables: n_mk (trace x trait), n_ke (trait x event), n_ket
    (trait x event x time bin), n_kei (trait x event x interaction level)
    and n_k (trait totals), all C-contiguous int64 arrays. The flat
    assignment array z follows token order within trace order. Exactly one
    writer may mutate a state at a time.
    """

    def __init__(self, corpus: Corpus, num_traits: int, z_flat, rng: np.random.Generator):
        if num_traits < 1:
            raise ValueError("num_traits must be at least 1")
        schema = corpus.schema
        self.num_traits = num_traits
        self.num_events = schema.num_events
        self.num_time_bins = schema.num_time_bins
        self.num_interaction_levels = schema.num_interaction_levels
        self.trace_ids = [t.trace_id for t in corpus.traces]
        self.rng = rng

        lengths = [len(t.tokens) for t in corpus.traces]
        components = chain.from_iterable(chain.from_iterable(t.tokens for t in corpus.traces))
        codes = np.fromiter(components, np.int64, count=3 * sum(lengths)).reshape(-1, 3)
        self._e_idx, self._t_idx, self._i_idx = codes.T.copy()
        self._m_idx = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)

        z = np.array(z_flat, dtype=np.int64)
        if z.shape != self._m_idx.shape:
            raise ValueError("assignment vector length must equal the corpus token count")
        if np.any((z < 0) | (z >= num_traits)):
            raise ValueError("trait assignment outside [0, num_traits)")
        self.z = z.view(_Assignments)
        self.n_mk, self.n_ke, self.n_ket, self.n_kei, self.n_k = self._recount()
        self._bound = None

    def _recount(self) -> tuple[np.ndarray, ...]:
        return _tally(
            self.z, (self._m_idx, self._e_idx, self._t_idx, self._i_idx),
            (self.num_traces, self.num_traits, self.num_events,
             self.num_time_bins, self.num_interaction_levels),
        )

    @classmethod
    def random_init(cls, corpus: Corpus, num_traits: int, seed: int) -> "ModelState":
        rng = np.random.default_rng(seed)
        z = rng.integers(0, num_traits, size=corpus.num_tokens)
        return cls(corpus, num_traits, z, rng)

    @property
    def token_count(self) -> int:
        return len(self.z)

    @property
    def num_traces(self) -> int:
        return len(self.trace_ids)

    def count_violations(self) -> list[str]:
        """Audit: the tables that differ from a from-scratch recount of z.

        A recount holds no negative count and meets every sum identity, so
        a table that breaks one also differs from its recount.
        """
        return [
            f"{name} differs from a from-scratch recount"
            for name, fresh in zip(_TABLES, self._recount())
            if not np.array_equal(getattr(self, name), fresh)
        ]

    def audit(self) -> None:
        problems = self.count_violations()
        if problems:
            raise CountConsistencyError("; ".join(problems))


@dataclass
class FitResult:
    """Posterior averaged over retained sweeps, plus the chain's diagnostics."""

    posterior: Posterior
    log_joint_trace: list[float]
    diagnostics: dict
    trace_ids: list[str]

    def to_json_dict(self) -> dict:
        return {
            "diagnostics": self.diagnostics,
            "log_joint_trace": self.log_joint_trace,
            "posterior": {name: getattr(self.posterior, name)
                          for name in ("theta", "phi", "psi", "tau")},
            "trace_ids": list(self.trace_ids),
        }


# core.save_json's layout of a fit's posterior: sorted keys, indent 2, after another key
_POSTERIOR_LAYOUT = (
    b',\n  "posterior": {\n    "phi": ', b',\n    "psi": ', b',\n    "tau": ',
    b',\n    "theta": ', b'\n  }',
)
_SCAN_MAX_NDIM = 32  # SCAN_MAX_NDIM in _sweep.c
_STUB_TEXT = json.dumps(NUMBER_LIST_STUB)


def _scan_array(scan, raw: bytes, lo: int, hi: int) -> np.ndarray | None:
    """``raw[lo:hi]``, one JSON array of numbers, as a float64 array; None if declined.

    An array the scanner accepts has one number more than it has commas, so
    the buffer holds exactly its numbers.
    """
    out = np.empty(raw.count(b",", lo, hi) + 1)
    shape = np.empty(_SCAN_MAX_NDIM, np.int64)
    address = np.frombuffer(raw, np.uint8).ctypes.data  # raw itself, not a copy
    ndim = scan(address + lo, hi - lo, shape.ctypes.data, out.ctypes.data, out.size)
    return out.reshape(shape[:ndim]) if ndim else None


def _read_text(raw: bytes) -> str:
    """``raw`` decoded as ``Path.read_text`` decodes a file: locale encoding, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(raw)).read()


def _scan_fit(raw: bytes) -> dict | None:
    """The model file ``raw`` as ``json.loads`` reads it, its posterior read by the scanner.

    ``json`` reads the file with each array in ``_POSTERIOR_LAYOUT`` replaced
    by ``core.save_json``'s stub. None when the library is missing, the layout
    or an array is declined, or json's ``posterior`` is not those four stubs.
    """
    library = _library()
    at = raw.find(_POSTERIOR_LAYOUT[0])
    if library is None or at < 0:
        return None
    bounds = []
    for mark in _POSTERIOR_LAYOUT:
        at = raw.find(mark, at)
        if at < 0:
            return None
        bounds.append((at, at + len(mark)))
        at += len(mark)
    arrays = {}
    for key, (_, lo), (hi, _) in zip(("phi", "psi", "tau", "theta"), bounds, bounds[1:]):
        arrays[key] = _scan_array(library.hbtm_scan, raw, lo, hi)
        if arrays[key] is None:
            return None
    kept = [raw[:bounds[0][1]], *(raw[lo:hi] for lo, hi in bounds[1:-1]), raw[bounds[-1][0]:]]
    try:  # undecodable bytes and bad JSON are reported by the json path
        text = _read_text(_STUB_TEXT.encode().join(kept))
        # an escaped NUL anywhere else could spell the stub
        data = json.loads(text) if text.count(_STUB_TEXT[1:-1]) == len(arrays) else None
    except (ValueError, RecursionError):
        return None
    if type(data) is not dict or data.get("posterior") != dict.fromkeys(arrays, NUMBER_LIST_STUB):
        return None
    data["posterior"] = arrays
    return data


def load_fit_result(path) -> FitResult:
    """Read a fit back; the in-memory chain state is not serialized.

    Equal to ``json.loads(Path(path).read_text())``, float for float and error
    for error; see ``_scan_fit`` for the faster path taken when it applies.
    """
    data = _scan_fit(Path(path).read_bytes())
    if data is None:
        data = json.loads(Path(path).read_text())
    return FitResult(
        posterior=Posterior.from_dict(data["posterior"]),
        log_joint_trace=list(data["log_joint_trace"]),
        diagnostics=data["diagnostics"],
        trace_ids=list(data["trace_ids"]),
    )


def init_state(corpus: Corpus, config: FitConfig) -> ModelState:
    """Uniform random assignments from the config seed, tables tallied to match."""
    problems = validate_corpus(corpus)
    if problems:
        raise ValueError("invalid corpus: " + "; ".join(problems[:5]))
    return ModelState.random_init(corpus, config.num_traits, config.seed)


def _weight_constants(state: ModelState, hyper: Hyperparams) -> tuple[float, ...]:
    """alpha, beta, E*beta, gamma, T*gamma, delta, I*delta, in the sweeps' order."""
    return (
        hyper.alpha, hyper.beta, state.num_events * hyper.beta,
        hyper.gamma, state.num_time_bins * hyper.gamma,
        hyper.delta, state.num_interaction_levels * hyper.delta,
    )


def _degenerate_weights(j: int) -> ValueError:
    return ValueError(
        f"conditional weights of flat token {j} underflow or overflow: "
        "the hyperparameters are too small (or too large) for this corpus"
    )


def _outside_traits(j: int) -> ValueError:
    return ValueError(f"trait assignment of flat token {j} outside [0, num_traits)")


def reference_sweep(state: ModelState, hyper: Hyperparams) -> ModelState:
    """One full scan in plain Python: the oracle the compiled sweep must match.

    Tokens are visited in flat (trace, position) order. The sweep draws one
    block of uniforms up front, one per token, from the state's generator;
    trait k is selected as the first index whose cumulative weight exceeds
    u * total. Each weight and the running total are computed in
    ``_sweep.c``'s operation order. Raises ValueError naming the flat token
    whose weights are degenerate (a zero denominator, or a total outside
    (0, inf)); that token keeps its trait and the tables stay consistent.
    Raises ValueError naming the first flat token whose trait is outside
    [0, num_traits), before anything is written for it. Either way the
    tokens before it keep their new traits.
    """
    z = state.z.tolist()
    m_idx, e_idx = state._m_idx.tolist(), state._e_idx.tolist()
    t_idx, i_idx = state._t_idx.tolist(), state._i_idx.tolist()
    n_mk, n_ke, n_ket, n_kei, n_k = (getattr(state, name).tolist() for name in _TABLES)
    num_k = state.num_traits
    alpha, beta, ebeta, gamma, tgamma, delta, idelta = _weight_constants(state, hyper)
    top = num_k - 1
    inf = math.inf
    cum = [0.0] * num_k
    error = None

    uniforms = state.rng.random(len(z)).tolist()
    for j in range(len(z)):
        m = m_idx[j]
        e = e_idx[j]
        t = t_idx[j]
        i = i_idx[j]
        k = z[j]
        if not 0 <= k < num_k:
            error = _outside_traits(j)
            break
        row_m = n_mk[m]
        row_m[k] -= 1
        n_ke[k][e] -= 1
        n_ket[k][e][t] -= 1
        n_kei[k][e][i] -= 1
        n_k[k] -= 1

        total = 0.0
        for c in range(num_k):
            cnt = n_ke[c][e]
            den = (n_k[c] + ebeta) * (cnt + tgamma) * (cnt + idelta)
            if den == 0.0:
                total = 0.0
                break
            total += ((row_m[c] + alpha) * (cnt + beta)
                      * (n_ket[c][e][t] + gamma) * (n_kei[c][e][i] + delta) / den)
            cum[c] = total
        if 0.0 < total < inf:
            k = bisect_right(cum, uniforms[j] * total)
            if k > top:
                k = top
        else:
            error = _degenerate_weights(j)  # k is still the old trait: put it back, then stop

        z[j] = k
        row_m[k] += 1
        n_ke[k][e] += 1
        n_ket[k][e][t] += 1
        n_kei[k][e][i] += 1
        n_k[k] += 1
        if error is not None:
            break

    state.z[:] = z
    for name, table in zip(_TABLES, (n_mk, n_ke, n_ket, n_kei, n_k)):
        getattr(state, name)[...] = table
    if error is not None:
        raise error
    return state


_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_KERNELS = (  # each kernel's parameters in _sweep.c's order; every kernel returns int64_t
    ("hbtm_sweep", [_I64] * 5 + [_F64] * 7 + [_PTR] * 12),
    ("hbtm_scan", [_PTR, _I64, _PTR, _PTR, _I64]),
    ("hbtm_lloyd", [_I64] * 4 + [_PTR] * 7),
    ("hbtm_rows", [_PTR, _I64, _I64, _I64, _PTR, _I64, _I64, _PTR, _I64, _PTR, _I64] + [_PTR] * 3),
    ("hbtm_format", [_PTR, _I64, _PTR, _I64, _PTR, _I64]),
    ("hbtm_gammaln", [_PTR, _I64, _PTR]),
)


def _cc(source, library, *flags) -> list[str]:
    """The command that compiles ``source`` into ``library``, ``flags`` added to ``_CFLAGS``."""
    return ["cc", *_CFLAGS, *flags, "-o", str(library), str(source), "-lm"]


def _build_kernel(source: Path, library: Path) -> None:
    """Compile the kernel, then publish it under its final name in one rename."""
    import subprocess
    import tempfile

    library.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=library.parent)
    os.close(fd)
    try:
        try:
            done = subprocess.run(_cc(source, tmp), capture_output=True, text=True)
        except FileNotFoundError:
            raise OSError("no C compiler: cc is not on the PATH") from None
        if done.returncode:
            first = done.stderr.strip().partition("\n")[0]
            raise OSError(f"cc exited with status {done.returncode}: {first}")
        os.replace(tmp, library)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(library):
    """The shared library at ``library``, each kernel typed by its row of ``_KERNELS``."""
    loaded = ctypes.CDLL(str(library))
    for name, argtypes in _KERNELS:
        function = getattr(loaded, name)
        function.restype, function.argtypes = _I64, argtypes
    return loaded


def _load_kernel():
    """The compiled library from the cache, built there on a miss; None if unusable.

    A cached library that does not load (truncated or corrupt) is rebuilt
    once, so one bad file does not slow every later process. When it returns
    None it writes one line to stderr naming the reason, since the fallbacks
    give the same results only much more slowly.
    """
    import hashlib

    source = Path(__file__).with_name("_sweep.c")
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "hbtm"
    try:
        key = hashlib.sha256(source.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()
        library = cache / f"_sweep-{key[:16]}.so"
        if not library.exists():
            _build_kernel(source, library)
        try:
            return _open(library)
        except OSError:
            _build_kernel(source, library)
            return _open(library)
    except OSError as exc:
        reason = " ".join(str(exc).split())
        print(f"hbtm: compiled library unavailable ({reason}); "
              "falling back to the slower Python code", file=sys.stderr)
        return None


_library = functools.cache(_load_kernel)  # the compiled library, loaded once per process


_KERNEL_ARRAYS = ("_m_idx", "_e_idx", "_t_idx", "_i_idx", "z") + _TABLES


def _bind(state: ModelState) -> tuple:
    """The state's arrays, the kernel's scratch buffers and their raw pointers.

    Shapes, dtypes and contiguity are checked, and the pointers taken, once
    per set of arrays; replacing any of the state's arrays re-binds.
    """
    arrays = tuple(getattr(state, name) for name in _KERNEL_ARRAYS)
    bound = state._bound
    if bound is not None and all(a is b for a, b in zip(arrays, bound[0])):
        return bound
    n, k_n, ke = state.token_count, state.num_traits, (state.num_traits, state.num_events)
    shapes = (
        (n,), (n,), (n,), (n,), (n,),
        (state.num_traces, k_n), ke, ke + (state.num_time_bins,),
        ke + (state.num_interaction_levels,), (k_n,),
    )
    for name, array, shape in zip(_KERNEL_ARRAYS, arrays, shapes):
        if not (isinstance(array, np.ndarray) and array.dtype == np.int64
                and array.shape == shape and array.flags.c_contiguous):
            raise ValueError(f"state.{name} must be a C-contiguous int64 array of shape {shape}")
    scratch = (np.empty(n), np.empty(k_n))  # the uniforms and cum; kept alive with the pointers
    state._bound = (arrays, scratch, [a.ctypes.data for a in arrays + scratch])
    return state._bound


def gibbs_sweep(state: ModelState, hyper: Hyperparams) -> ModelState:
    """One full scan: every token is decremented, resampled and re-added.

    Runs the compiled kernel, which gives results bit-identical to
    ``reference_sweep`` (same visiting order, uniforms, weights and trait
    selection, same ValueError on degenerate weights or an assignment
    outside [0, num_traits)); falls back to ``reference_sweep`` when the
    kernel cannot be built.
    """
    library = _library()
    if library is None:
        return reference_sweep(state, hyper)
    _arrays, (uniforms, _cum), pointers = _bind(state)
    state.rng.random(out=uniforms)
    failed = library.hbtm_sweep(
        state.token_count, state.num_traits, state.num_events,
        state.num_time_bins, state.num_interaction_levels,
        *_weight_constants(state, hyper), *pointers,
    )
    if failed > 0:
        raise _degenerate_weights(failed - 1)
    if failed < 0:
        raise _outside_traits(-failed - 1)
    return state


def _gammaln(x) -> np.ndarray:
    """``scipy.special.gammaln`` of ``x`` as a float64 array, element for element.

    The compiled library's ``hbtm_gammaln`` answers when every element is
    positive and finite; scipy, imported only then, answers every other array
    and every array when the library is missing.
    """
    library = _library()
    if library is not None:
        out = np.array(x, dtype=float)  # the library overwrites it in place
        address = out.ctypes.data
        if not library.hbtm_gammaln(address, out.size, address):
            return out
    from scipy.special import gammaln  # on use: analyze, and fit without the library
    return gammaln(x)


def _gammaln_shifted(counts: np.ndarray, shift: float) -> np.ndarray:
    """``gammaln(counts + shift)`` element by element, in the shape of ``counts``.

    Integer counts index a table ``gammaln(arange(max + 1) + shift)`` when it
    is smaller than the array: its entries are the same floats, so the result
    is equal element for element.
    """
    if counts.dtype.kind in "iu" and counts.size > 1:
        top = int(counts.max())
        if top + 1 < counts.size and counts.min() >= 0:
            return _gammaln(np.arange(top + 1) + shift)[counts]
    return _gammaln(counts + shift)


def _dm_log_marginal(counts, concentration: float) -> float:
    """Sum over rows of the log Dirichlet-multinomial marginal.

    Each row of counts contributes log Beta(counts + prior) - log Beta(prior)
    for the symmetric prior, written in log-gamma form. Zero-count rows
    contribute exactly 0.
    """
    arr = np.asarray(counts)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(float)
    rows = arr.reshape(-1, arr.shape[-1])
    dim = rows.shape[1]
    row_totals = rows.sum(axis=1)
    row_prior, cell_prior = _gammaln([dim * concentration, concentration])
    value = rows.shape[0] * (row_prior - dim * cell_prior)
    value += _gammaln_shifted(rows, concentration).sum()
    value -= _gammaln_shifted(row_totals, dim * concentration).sum()
    return float(value)


def collapsed_log_joint(state: ModelState, hyper: Hyperparams) -> float:
    """Log joint of assignments and observations with parameters integrated out.

    Infinite or NaN, without a warning, when a concentration is so large
    that its log-gamma terms overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            _dm_log_marginal(state.n_mk, hyper.alpha)
            + _dm_log_marginal(state.n_ke, hyper.beta)
            + _dm_log_marginal(state.n_ket, hyper.gamma)
            + _dm_log_marginal(state.n_kei, hyper.delta)
        )


def run_chain(corpus: Corpus, config: FitConfig):
    """Run one chain, yielding ``(sweep_no, state, log_joint)`` after sweeps 1..S.

    Raises if a log joint is not finite or an audit_every-th sweep's audit
    fails. ``state`` is the one ModelState the chain mutates, valid only until
    the next item is requested. A consumer may stop early at no cost.
    """
    state = init_state(corpus, config)
    hyper = config.hyper
    for sweep_no in range(1, config.sweeps + 1):
        gibbs_sweep(state, hyper)
        log_joint = collapsed_log_joint(state, hyper)
        if not math.isfinite(log_joint):
            raise ValueError(
                f"the collapsed log joint after sweep {sweep_no} is {log_joint}: "
                "the hyperparameters are too large for this corpus"
            )
        if config.audit_every and sweep_no % config.audit_every == 0:
            state.audit()
        yield sweep_no, state, log_joint


def fit(corpus: Corpus, config: FitConfig) -> FitResult:
    """Run the chain and average the retained posterior snapshots.

    After burn-in, every sample_stride-th sweep contributes one smoothed
    posterior estimate; the result is their element-wise mean. The collapsed
    log joint is recorded after every sweep. Deterministic given (corpus,
    config): identical inputs give bit-identical results.

    Snapshots keep their own labels: on perfbench's ``session-fit`` corpus at
    K=20, 29 of 99 retained snapshots match the first only under a
    non-identity permutation (ROADMAP item 6). Never average across chains.
    """
    log_joint_trace: list[float] = []
    sums = None
    for sweep_no, state, log_joint in run_chain(corpus, config):
        log_joint_trace.append(log_joint)
        if sweep_no > config.burn_in and (sweep_no - config.burn_in) % config.sample_stride == 0:
            snap = estimate_posterior(state, config.hyper)
            parts = (snap.theta, snap.phi, snap.psi, snap.tau)
            sums = parts if sums is None else [a + b for a, b in zip(sums, parts)]
    retained = (config.sweeps - config.burn_in) // config.sample_stride
    diagnostics = {
        "retained_samples": retained,
        "audits_passed": config.sweeps // config.audit_every if config.audit_every else 0,
        "config": config.to_dict(),
    }
    return FitResult(
        posterior=Posterior(*(a / retained for a in sums)),
        log_joint_trace=log_joint_trace,
        diagnostics=diagnostics,
        trace_ids=list(state.trace_ids),
    )
