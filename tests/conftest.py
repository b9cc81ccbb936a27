import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from hbtm import (
    Corpus,
    Hyperparams,
    IngestResult,
    LabeledCorpus,
    Posterior,
    RawEvents,
    Token,
    Trace,
    map_activity,
    synthetic_schema,
)
from hbtm.sampler import _tally

_NEG_INF = float("-inf")


def random_corpus(rng, num_traces=4, tokens_range=(3, 9), num_events=5,
                  num_time_bins=3, num_interaction_levels=2):
    """Small random but well-formed corpus for property tests."""
    schema = synthetic_schema(num_events, num_time_bins, num_interaction_levels)
    traces = []
    for m in range(num_traces):
        n = int(rng.integers(tokens_range[0], tokens_range[1] + 1))
        tokens = tuple(
            Token(
                int(rng.integers(num_events)),
                int(rng.integers(num_time_bins)),
                int(rng.integers(num_interaction_levels)),
            )
            for _ in range(n)
        )
        traces.append(Trace(f"t{m}", tokens))
    return Corpus(schema, tuple(traces))


def leave_one_out_weights(state, j, hyper):
    """Unnormalized full-conditional trait weights of flat token j.

    The counts come from a fresh tally of every other token; the arithmetic
    follows the sweeps' operation order, one trait per array element.
    """
    keep = np.arange(state.token_count) != j
    encodings = (state._m_idx, state._e_idx, state._t_idx, state._i_idx)
    dims = (state.num_traces, state.num_traits, state.num_events,
            state.num_time_bins, state.num_interaction_levels)
    n_mk, n_ke, n_ket, n_kei, n_k = _tally(
        np.asarray(state.z)[keep], [a[keep] for a in encodings], dims)
    m, e, t, i = (int(a[j]) for a in encodings)
    a, b, g, d = hyper.alpha, hyper.beta, hyper.gamma, hyper.delta
    ne = n_ke[:, e]
    return ((n_mk[m] + a) * (ne + b) * (n_ket[:, e, t] + g) * (n_kei[:, e, i] + d)
            / ((n_k + state.num_events * b) * (ne + state.num_time_bins * g)
               * (ne + state.num_interaction_levels * d)))


# The recovery oracles of acceptance criterion 2 and of the sampler's recovery
# test, and criterion 4's explicit joint likelihood.
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


def _symmetric_dirichlet_logpdf(row, concentration: float) -> float:
    """Log density of a symmetric Dirichlet at a point on the simplex.

    With concentration below 1 the density is unbounded at the boundary, so a
    zero coordinate there is an error rather than a signed infinity.
    """
    d = len(row)
    norm = math.lgamma(d * concentration) - d * math.lgamma(concentration)
    if concentration == 1.0:
        return norm
    smallest = min(row)
    if smallest <= 0.0:
        if concentration < 1.0:
            raise ValueError("Dirichlet density unbounded at a zero coordinate")
        return _NEG_INF
    return norm + (concentration - 1.0) * math.fsum(math.log(x) for x in row)


def joint_log_likelihood(params: Posterior, labeled: LabeledCorpus, hyper: Hyperparams) -> float:
    """Joint log density of parameters, assignments and observations.

    Sums the log Dirichlet densities of every parameter row with the
    per-token terms log theta[m, z] + log phi[z, e] + log psi[z, e, t] +
    log tau[z, e, i]. Any zero-probability token yields -inf. Accumulated
    with exact (order-independent) float summation, so a consistent trait
    relabeling leaves the value bit-identical.
    """
    theta, phi, psi, tau = params.theta, params.phi, params.psi, params.tau
    traces = labeled.corpus.traces
    if len(labeled.assignments) != len(traces):
        raise ValueError("assignments and corpus have different trace counts")
    if theta.shape[0] != len(traces):
        raise ValueError("theta row count does not match the corpus trace count")

    terms: list[float] = []
    for m, trace in enumerate(traces):
        zs = labeled.assignments[m]
        if len(zs) != len(trace.tokens):
            raise ValueError(f"assignment row {m} does not match trace length")
        theta_m = theta[m]
        for tok, z in zip(trace.tokens, zs):
            p_z = theta_m[z]
            p_e = phi[z, tok.event]
            p_t = psi[z, tok.event, tok.time_bin]
            p_i = tau[z, tok.event, tok.interaction_level]
            if p_z <= 0.0 or p_e <= 0.0 or p_t <= 0.0 or p_i <= 0.0:
                return _NEG_INF
            terms.append(math.log(p_z))
            terms.append(math.log(p_e))
            terms.append(math.log(p_t))
            terms.append(math.log(p_i))

    for m in range(theta.shape[0]):
        terms.append(_symmetric_dirichlet_logpdf(theta[m], hyper.alpha))
    for k in range(phi.shape[0]):
        terms.append(_symmetric_dirichlet_logpdf(phi[k], hyper.beta))
        for e in range(phi.shape[1]):
            terms.append(_symmetric_dirichlet_logpdf(psi[k, e], hyper.gamma))
            terms.append(_symmetric_dirichlet_logpdf(tau[k, e], hyper.delta))
    for value in terms:
        if value == _NEG_INF:
            return _NEG_INF
    return math.fsum(terms)


# The per-value binning rules and the per-row corpus builder: the oracles of
# ingest.build_corpora, which applies the same rules to whole columns.
def discretize_duration(seconds: float, schema, filt) -> int | None:
    """Time-bin index for an admitted duration, or None when filtered out.

    Bins are left-open/right-closed between consecutive schema edges. Returns
    None when the duration falls outside the filter window or outside the
    binned range (only possible when the window is wider than the edges).
    """
    if not seconds > 0:
        raise ValueError(f"duration must be positive, got {seconds}")
    if seconds < filt.min_duration_s or seconds > filt.max_duration_s:
        return None
    edges = schema.time_bin_edges
    idx = bisect_left(edges, seconds) - 1
    if idx < 0 or idx >= schema.num_time_bins:
        return None
    return idx


def discretize_interaction(total_count: int, schema) -> int:
    """Interaction-level index; counts at or above the top edge clamp to the top level.

    Bins are left-closed/right-open; the top edge reads as an observed
    maximum, not a cap, so larger totals land in the highest level.
    """
    if total_count < 0:
        raise ValueError(f"interaction count must be nonnegative, got {total_count}")
    edges = schema.interaction_bin_edges
    idx = bisect_right(edges, total_count) - 1
    top = schema.num_interaction_levels - 1
    if idx < 0:
        return 0
    return min(idx, top)


def raw_events(rows) -> RawEvents:
    """RawEvents of ``(session, student, activity, start, end, mouse, keys)`` rows."""
    codes: dict[str, int] = {}
    columns = [[] for _ in range(7)]
    for row in rows:
        for column, name in zip(columns[:3], row[:3]):
            column.append(codes.setdefault(name, len(codes)))
        for column, value in zip(columns[3:], row[3:]):
            column.append(value)
    return RawEvents(list(codes), *columns)


def reference_build_corpora(raw, mapping, schema, filt) -> IngestResult:
    """build_corpora one row at a time: bin, map and group each event in file order."""
    for rule in mapping.rules:
        if rule.event_index >= schema.num_events:
            raise ValueError(
                f"mapping rule {rule.pattern!r} targets event {rule.event_index}, "
                f"schema has only {schema.num_events}"
            )
    if mapping.default_index >= schema.num_events:
        raise ValueError("mapping default_index outside schema")

    # session -> student -> token list; insertion order is first appearance
    per_session: dict[str, dict[str, list[Token]]] = {}
    filtered = 0
    event_counts = [0] * schema.num_events
    time_counts = [0] * schema.num_time_bins
    level_counts = [0] * schema.num_interaction_levels
    token_of: dict[tuple, Token] = {}  # one shared Token per distinct triple
    for session, student_id, activity, start, end, mouse, keys in raw:
        bucket = per_session.setdefault(session, {}).setdefault(student_id, [])
        duration = end - start
        if duration < filt.min_duration_s or duration > filt.max_duration_s:
            filtered += 1
            continue
        t_bin = discretize_duration(duration, schema, filt)
        if t_bin is None:
            filtered += 1
            continue
        e_idx = map_activity(activity, mapping)
        i_lvl = discretize_interaction(mouse + keys, schema)
        triple = (e_idx, t_bin, i_lvl)
        bucket.append(token_of.setdefault(triple, Token._make(triple)))
        event_counts[e_idx] += 1
        time_counts[t_bin] += 1
        level_counts[i_lvl] += 1

    corpora: dict[str, Corpus] = {}
    dropped: list[str] = []
    tokenized = 0
    for session, traces in per_session.items():
        kept = []
        for student_id, tokens in traces.items():
            trace_id = f"{student_id}_{session}"
            if not tokens:
                dropped.append(trace_id)
                continue
            kept.append(Trace(trace_id, tuple(tokens)))
            tokenized += len(tokens)
        if kept:
            corpora[session] = Corpus(schema, tuple(kept))
    return IngestResult(
        corpora=corpora,
        tokenized=tokenized,
        filtered=filtered,
        dropped_traces=dropped,
        event_counts=event_counts,
        time_bin_counts=time_counts,
        interaction_counts=level_counts,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240731)
