"""Forward sampler for the trait-mixture generative process.

The generative story per token: a trait z is drawn from the trace's mixture,
an event e from the trait's event distribution, then a time bin t and an
interaction level i are drawn conditionally independently given (z, e). The
module also evaluates the explicit joint log likelihood of parameters plus a
labeled corpus, entirely in log space.

Random streams are derived from numpy SeedSequences keyed by
(seed, domain, m, n), so every token's draws are independent of generation
order and the whole procedure is reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Corpus, Hyperparams, Posterior, Schema, Token, Trace

_PARAMS_DOMAIN = 0
_TOKEN_DOMAIN = 1

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class LabeledCorpus:
    """A synthetic corpus together with the trait that produced each token."""

    corpus: Corpus
    assignments: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "assignments", tuple(tuple(int(z) for z in row) for row in self.assignments)
        )
        if len(self.assignments) != len(self.corpus.traces):
            raise ValueError("assignments and corpus have different trace counts")
        for row, trace in zip(self.assignments, self.corpus.traces):
            if len(row) != len(trace.tokens):
                raise ValueError(f"assignment row for '{trace.trace_id}' mismatches trace length")
            for z in row:
                if z < 0:
                    raise ValueError("trait assignments must be nonnegative")

    @property
    def num_tokens(self) -> int:
        return self.corpus.num_tokens


def synthetic_schema(num_events: int, num_time_bins: int, num_interaction_levels: int) -> Schema:
    """Generic schema for token-level synthesis; edges are consecutive integers."""
    return Schema(
        tuple(f"event {j + 1}" for j in range(num_events)),
        tuple(float(j) for j in range(num_time_bins + 1)),
        tuple(float(j) for j in range(num_interaction_levels + 1)),
    )


def _family_rng(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_PARAMS_DOMAIN, which)))


def sample_params(
    num_traits: int, num_traces: int, schema: Schema, hyper: Hyperparams, seed: int
) -> Posterior:
    """Draw every parameter row from its symmetric Dirichlet prior.

    Deterministic given the seed; each of the four families consumes its own
    derived stream, so changing one dimension does not disturb the others.
    """
    if num_traits < 1:
        raise ValueError("num_traits must be at least 1")
    if num_traces < 1:
        raise ValueError("num_traces must be at least 1")
    k, e = num_traits, schema.num_events
    t, i = schema.num_time_bins, schema.num_interaction_levels
    theta = _family_rng(seed, 0).dirichlet(np.full(k, hyper.alpha), size=num_traces)
    phi = _family_rng(seed, 1).dirichlet(np.full(e, hyper.beta), size=k)
    psi = _family_rng(seed, 2).dirichlet(np.full(t, hyper.gamma), size=(k, e))
    tau = _family_rng(seed, 3).dirichlet(np.full(i, hyper.delta), size=(k, e))
    return Posterior(theta, phi, psi, tau)


def _pick(cum_row: np.ndarray, u: float) -> int:
    idx = int(np.searchsorted(cum_row, u, side="right"))
    top = len(cum_row) - 1
    return idx if idx <= top else top


def generate(
    params: Posterior,
    tokens_per_trace: list[int],
    seed: int,
    schema: Schema | None = None,
) -> LabeledCorpus:
    """Synthesize a labeled corpus from known parameters.

    Per token (m, n): z ~ Cat(theta[m]), e ~ Cat(phi[z]), then t ~ Cat(psi[z, e])
    and i ~ Cat(tau[z, e]) drawn conditionally independently given (z, e).
    Each token consumes four inverse-CDF draws from its own
    (seed, m, n)-keyed stream, so traces may be produced in any order.
    """
    num_traces = params.theta.shape[0]
    if len(tokens_per_trace) != num_traces:
        raise ValueError("tokens_per_trace length must match the theta row count")
    if any(n < 1 for n in tokens_per_trace):
        raise ValueError("every trace needs at least one token")
    if schema is None:
        schema = synthetic_schema(
            params.phi.shape[1], params.psi.shape[2], params.tau.shape[2]
        )
    if (
        schema.num_events != params.phi.shape[1]
        or schema.num_time_bins != params.psi.shape[2]
        or schema.num_interaction_levels != params.tau.shape[2]
    ):
        raise ValueError("schema dimensions do not match parameter shapes")

    cum_theta = np.cumsum(params.theta, axis=1)
    cum_phi = np.cumsum(params.phi, axis=1)
    cum_psi = np.cumsum(params.psi, axis=2)
    cum_tau = np.cumsum(params.tau, axis=2)

    traces = []
    assignments = []
    for m, n_tokens in enumerate(tokens_per_trace):
        tokens = []
        zs = []
        for n in range(n_tokens):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(_TOKEN_DOMAIN, m, n))
            )
            u = rng.random(4)
            z = _pick(cum_theta[m], u[0])
            e = _pick(cum_phi[z], u[1])
            t = _pick(cum_psi[z, e], u[2])
            i = _pick(cum_tau[z, e], u[3])
            tokens.append(Token(e, t, i))
            zs.append(z)
        traces.append(Trace(f"trace_{m:04d}", tuple(tokens)))
        assignments.append(tuple(zs))
    corpus = Corpus(schema, tuple(traces))
    return LabeledCorpus(corpus, tuple(assignments))


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
