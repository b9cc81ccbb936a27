import math

import numpy as np
import pytest

from hbtm import (
    Corpus,
    Hyperparams,
    LabeledCorpus,
    Posterior,
    Token,
    Trace,
    generate,
    sample_params,
    synthetic_schema,
)

from conftest import joint_log_likelihood

HYPER1 = Hyperparams(1.0, 1.0, 1.0, 1.0)


def uniform_params(num_traits, num_traces, num_events, num_time_bins, num_levels):
    return Posterior(
        np.full((num_traces, num_traits), 1.0 / num_traits),
        np.full((num_traits, num_events), 1.0 / num_events),
        np.full((num_traits, num_events, num_time_bins), 1.0 / num_time_bins),
        np.full((num_traits, num_events, num_levels), 1.0 / num_levels),
    )


def test_sample_params_deterministic():
    schema = synthetic_schema(4, 3, 2)
    a = sample_params(3, 5, schema, Hyperparams(), seed=11)
    b = sample_params(3, 5, schema, Hyperparams(), seed=11)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.psi, b.psi)
    assert np.array_equal(a.tau, b.tau)
    c = sample_params(3, 5, schema, Hyperparams(), seed=12)
    assert not np.array_equal(a.theta, c.theta)


def test_sample_params_shapes():
    schema = synthetic_schema(6, 4, 3)
    p = sample_params(2, 7, schema, Hyperparams(), seed=0)
    assert p.theta.shape == (7, 2)
    assert p.phi.shape == (2, 6)
    assert p.psi.shape == (2, 6, 4)
    assert p.tau.shape == (2, 6, 3)


def test_sample_params_single_trait_degenerate():
    schema = synthetic_schema(3, 2, 2)
    p = sample_params(1, 4, schema, Hyperparams(), seed=1)
    np.testing.assert_array_equal(p.theta, np.ones((4, 1)))


def test_huge_concentration_approaches_uniform():
    # 1000 event-distribution draws at concentration 1e6 over 15 categories
    schema = synthetic_schema(15, 2, 2)
    hyper = Hyperparams(alpha=1e6, beta=1e6, gamma=1e6, delta=1e6)
    p = sample_params(1000, 2, schema, hyper, seed=5)
    assert np.abs(p.phi - 1.0 / 15).max() < 0.01


def test_sample_params_validates_counts():
    schema = synthetic_schema(3, 2, 2)
    with pytest.raises(ValueError):
        sample_params(0, 5, schema, Hyperparams(), seed=0)
    with pytest.raises(ValueError):
        sample_params(2, 0, schema, Hyperparams(), seed=0)


def test_generate_deterministic():
    schema = synthetic_schema(5, 3, 2)
    params = sample_params(2, 4, schema, Hyperparams(), seed=3)
    a = generate(params, [6, 3, 5, 4], seed=8)
    b = generate(params, [6, 3, 5, 4], seed=8)
    assert a == b
    c = generate(params, [6, 3, 5, 4], seed=9)
    assert a != c


def test_generate_point_mass_event():
    params = uniform_params(2, 3, 9, 2, 2)
    phi = np.zeros((2, 9))
    phi[:, 8] = 1.0
    params = Posterior(params.theta, phi, params.psi, params.tau)
    labeled = generate(params, [10, 10, 10], seed=0)
    assert all(tok.event == 8 for tr in labeled.corpus.traces for tok in tr.tokens)


def test_generate_point_mass_trait():
    params = uniform_params(3, 2, 4, 2, 2)
    theta = np.zeros((2, 3))
    theta[:, 0] = 1.0
    params = Posterior(theta, params.phi, params.psi, params.tau)
    labeled = generate(params, [20, 20], seed=1)
    assert all(z == 0 for row in labeled.assignments for z in row)


def test_generate_rejects_bad_lengths():
    params = uniform_params(2, 3, 4, 2, 2)
    with pytest.raises(ValueError):
        generate(params, [5, 5], seed=0)
    with pytest.raises(ValueError):
        generate(params, [5, 0, 5], seed=0)


def test_empirical_event_marginal_matches_analytic():
    # 100k tokens; event frequencies within 0.01 of the theta @ phi marginal
    schema = synthetic_schema(15, 7, 5)
    params = sample_params(3, 100, schema, Hyperparams(beta=0.5), seed=77)
    per_trace = 1000
    labeled = generate(params, [per_trace] * 100, seed=78)
    counts = np.zeros(15)
    for trace in labeled.corpus.traces:
        for tok in trace.tokens:
            counts[tok.event] += 1
    empirical = counts / counts.sum()
    analytic = (params.theta @ params.phi).mean(axis=0)
    assert np.abs(empirical - analytic).max() < 0.01


def test_joint_log_likelihood_uniform_closed_form():
    # data term -log(E*T*I); each Dirichlet(1) density at any point is
    # lgamma(d), the closed-form normalizer
    params = uniform_params(1, 1, 15, 7, 5)
    labeled = generate(params, [1], seed=0)
    got = joint_log_likelihood(params, labeled, HYPER1)
    expected = -math.log(15 * 7 * 5) + math.lgamma(15) + 15 * math.lgamma(7) + 15 * math.lgamma(5)
    assert got == pytest.approx(expected, abs=1e-12)


def test_joint_log_likelihood_zero_probability_token():
    base = uniform_params(1, 1, 3, 2, 2)
    params = Posterior(base.theta, np.array([[0.0, 0.5, 0.5]]), base.psi, base.tau)
    corpus = Corpus(synthetic_schema(3, 2, 2), (Trace("x", (Token(0, 0, 0),)),))
    labeled = LabeledCorpus(corpus, ((0,),))
    assert joint_log_likelihood(params, labeled, HYPER1) == float("-inf")


def test_joint_log_likelihood_trait_relabeling_exact():
    schema = synthetic_schema(6, 3, 2)
    hyper = Hyperparams(1.5, 0.8, 1.2, 2.0)
    for seed in range(5):
        params = sample_params(4, 6, schema, hyper, seed=seed)
        labeled = generate(params, [5, 8, 3, 6, 4, 7], seed=seed + 100)
        perm = np.random.default_rng(seed).permutation(4)
        permuted = Posterior(
            params.theta[:, perm], params.phi[perm], params.psi[perm], params.tau[perm]
        )
        inverse = np.argsort(perm)
        relabeled = tuple(
            tuple(int(inverse[z]) for z in row) for row in labeled.assignments
        )
        base = joint_log_likelihood(params, labeled, hyper)
        swapped = joint_log_likelihood(permuted, LabeledCorpus(labeled.corpus, relabeled), hyper)
        assert base == swapped  # exact, not approximate


def test_generating_params_beat_decoy():
    # true params score higher than an independent decoy on their own corpus
    schema = synthetic_schema(8, 4, 3)
    hyper = Hyperparams(1.0, 0.2, 0.3, 0.3)
    wins = 0
    for seed in range(20):
        params = sample_params(3, 15, schema, hyper, seed=seed)
        decoy = sample_params(3, 15, schema, hyper, seed=seed + 10_000)
        labeled = generate(params, [30] * 15, seed=seed + 20_000)

        def data_term(p):
            total = 0.0
            for m, trace in enumerate(labeled.corpus.traces):
                for tok, z in zip(trace.tokens, labeled.assignments[m]):
                    total += (
                        math.log(p.theta[m, z])
                        + math.log(p.phi[z, tok.event])
                        + math.log(p.psi[z, tok.event, tok.time_bin])
                        + math.log(p.tau[z, tok.event, tok.interaction_level])
                    )
            return total / labeled.corpus.num_tokens

        if data_term(params) > data_term(decoy):
            wins += 1
    assert wins == 20


def test_labeled_corpus_congruence_checked():
    params = uniform_params(2, 2, 3, 2, 2)
    labeled = generate(params, [3, 3], seed=0)
    with pytest.raises(ValueError):
        LabeledCorpus(labeled.corpus, ((0, 0),))  # wrong trace count
    with pytest.raises(ValueError):
        LabeledCorpus(labeled.corpus, ((0, 0), (0, 0, 0)))  # wrong token count
