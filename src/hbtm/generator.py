"""Forward sampler for the trait-mixture generative process.

The generative story per token: a trait z is drawn from the trace's mixture,
an event e from the trait's event distribution, then a time bin t and an
interaction level i are drawn conditionally independently given (z, e).

Random streams are derived from numpy SeedSequences keyed by
(seed, domain, m, n), so every token's draws are independent of generation
order and the whole procedure is reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Corpus, Hyperparams, Posterior, Schema, Token, Trace

_PARAMS_DOMAIN = 0
_TOKEN_DOMAIN = 1


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
