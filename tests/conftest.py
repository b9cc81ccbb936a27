import numpy as np
import pytest

from hbtm import Corpus, Token, Trace, synthetic_schema
from hbtm.sampler import _tally


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240731)
