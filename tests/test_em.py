import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdchain.em as em_module
import refdata
from conftest import build_model, random_sequence
from mtdchain import (
    Alphabet,
    AllRestartsFailed,
    DegenerateLikelihood,
    EmConfig,
    EmptyCorpus,
    MtdModel,
    Sequence,
    count_ngrams,
    e_step,
    em_fit,
    fit_with_restarts,
    full_transition_matrix,
    init_contingency,
    lag_contingency,
    loglik_from_counts,
    m_step,
    random_mtd,
    sample_sequence,
    word_to_index,
)


def q_function(phi, matrices, posteriors, counts, lag_order):
    """Expected complete-data log-likelihood, written as plain loops."""
    q = counts.alphabet.size
    total = 0.0
    for w, post in zip(counts.word_indices(), posteriors.T):
        n = counts[int(w)]
        i0 = int(w) % q
        for g, p_g in enumerate(post, start=1):
            block = (int(w) // q**g) % q**lag_order
            mat = matrices[0] if len(matrices) == 1 else matrices[g - 1]
            total += n * p_g * (np.log(phi[g - 1]) + np.log(mat[block, i0]))
    return total


def scan_posteriors(model, seq):
    """Position-by-position posterior oracle (no count pooling)."""
    q = model.alphabet.size
    m, l = model.order, model.lag_order
    data = list(seq.data)
    out = []
    for t in range(m, len(data)):
        comps = []
        for g in range(1, model.n_components + 1):
            block = data[t - g - l + 1 : t - g + 1]
            comps.append(
                model.phi[g - 1] * model.matrix_for_lag(g)[word_to_index(block, q), data[t]]
            )
        comps = np.array(comps)
        word = word_to_index(data[t - m : t + 1], q)
        out.append((word, comps / comps.sum()))
    return out


def column(posteriors, counts, word):
    """Posterior over lags of one observed word."""
    pos = int(np.searchsorted(counts.word_indices(), word))
    assert counts.word_indices()[pos] == word
    return posteriors[:, pos]


# Reference EM: the per-lag loops and np.add.at scatters that the cell-index
# kernel replaced.  em_fit must reproduce its iterates bit for bit.


def oracle_component_word_probs(model, ws):
    q = model.alphabet.size
    i0 = ws % q
    out = np.empty((model.n_components, ws.size))
    for g in range(1, model.n_components + 1):
        blocks = (ws // q**g) % q**model.lag_order
        out[g - 1] = model.phi[g - 1] * model.matrix_for_lag(g)[blocks, i0]
    return out


def oracle_loglik(model, counts):
    probs = oracle_component_word_probs(model, counts.word_indices()).sum(axis=0)
    if (probs <= 0.0).any():
        return float("-inf")
    return float(counts.values() @ np.log(probs))


def oracle_e_step(model, counts, floor=None):
    """Posteriors of shape (n_words, G)."""
    comps = oracle_component_word_probs(model, counts.word_indices())
    if floor is not None:
        comps = np.maximum(comps, floor)
    denom = comps.sum(axis=0)
    if (denom <= 0.0).any():
        raise DegenerateLikelihood("oracle: observed word with zero probability")
    return (comps / denom).T


def oracle_m_step(probs, counts, model):
    q = model.alphabet.size
    l = model.lag_order
    G = model.n_components
    ws = counts.word_indices()
    weighted = probs * counts.values()[:, None]
    phi = weighted.sum(axis=0) / counts.total
    i0 = ws % q
    groups = [range(1, G + 1)] if model.variant == "single_matrix" else [[g] for g in range(1, G + 1)]
    matrices = []
    for lags, previous in zip(groups, model.matrices):
        num = np.zeros((q**l, q))
        for g in lags:
            np.add.at(num, ((ws // q**g) % q**l, i0), weighted[:, g - 1])
        row_sums = num.sum(axis=1)
        safe = np.where(row_sums == 0.0, 1.0, row_sums)[:, None]
        matrices.append(np.where(row_sums[:, None] > 0.0, num / safe, previous))
    return phi, matrices


def oracle_em_fit(counts, init, config):
    """Returns ``(trace, model)``; a degenerate E-step raises with the trace attached."""
    model = init
    trace = [oracle_loglik(model, counts)]
    for _ in range(config.max_iters):
        try:
            probs = oracle_e_step(model, counts, config.floor)
        except DegenerateLikelihood as err:
            err.trace = np.asarray(trace)
            raise
        phi, matrices = oracle_m_step(probs, counts, model)
        model = MtdModel(
            model.alphabet, model.order, model.lag_order, phi, matrices, variant=model.variant
        )
        trace.append(oracle_loglik(model, counts))
        if trace[-1] - trace[-2] < config.epsilon:
            break
    return np.asarray(trace), model


def plain_em(counts, init, config):
    """The paper's EM through the public e_step/m_step, every step checked against the oracle.

    Posteriors, phi, matrices and log-likelihoods must agree bit for bit.
    Stops as oracle_em_fit does; returns ``(trace, model)``.
    """
    model = init
    trace = [loglik_from_counts(model, counts)]
    assert trace[0] == oracle_loglik(model, counts)
    for _ in range(config.max_iters):
        posteriors = e_step(model, counts, config.floor)
        assert np.array_equal(posteriors, oracle_e_step(model, counts, config.floor).T)
        phi, matrices = m_step(posteriors, counts, model)
        want_phi, want_matrices = oracle_m_step(posteriors.T, counts, model)
        assert np.array_equal(phi, want_phi)
        assert len(matrices) == len(want_matrices)
        for got, expected in zip(matrices, want_matrices):
            assert np.array_equal(got, expected)
        model = MtdModel(
            model.alphabet, model.order, model.lag_order, phi, matrices, variant=model.variant
        )
        trace.append(loglik_from_counts(model, counts))
        assert trace[-1] == oracle_loglik(model, counts)
        if trace[-1] - trace[-2] < config.epsilon:
            break
    return np.asarray(trace), model


def assert_first_maps_plain(counts, init, config, trace):
    """em_fit's two maps before its first extrapolation are the plain EM maps."""
    report = em_fit(counts, init, dataclasses.replace(config, max_iters=2))
    assert np.array_equal(report.loglik_trace, trace[:3])


class TestKernelMatchesOracle:
    @pytest.mark.parametrize(
        "q,m,l,variant",
        [(4, 5, 1, "general"), (3, 4, 2, "general"), (4, 4, 1, "single_matrix")],
    )
    def test_bit_identical(self, q, m, l, variant):
        truth = random_mtd(q, m, l, variant=variant, seed=q + m + l)
        counts = count_ngrams([sample_sequence(truth, 4000, seed=m)], m)
        config = EmConfig(epsilon=1e-6, max_iters=200)
        for init in (init_contingency(counts, l, variant), random_mtd(q, m, l, variant=variant, seed=5)):
            trace, _ = plain_em(counts, init, config)
            assert len(trace) > 6
            assert_first_maps_plain(counts, init, config, trace)

    def test_floor(self, song):
        counts = count_ngrams([random_sequence(song, 2000, 21)], 3)
        config = EmConfig(floor=1e-9, epsilon=1e-6)
        # pi_1 never emits the last letter: the floor keeps binding on its
        # components while the unfloored mixture stays positive
        rest = random_mtd(3, 3, 1, seed=22, alphabet=song)
        pi1 = np.array([[0.5, 0.5, 0.0]] * 3)
        init = MtdModel(song, 3, 1, rest.phi, [pi1, *rest.matrices[1:]])
        _, model = plain_em(counts, init, config)
        assert model.matrices[0][:, 2].min() < 1e-6
        # every word not ending in the first letter starts at zero
        # probability: the floor alone keeps the first E-step defined
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        init = MtdModel(song, 3, 1, [0.2, 0.3, 0.5], [pi, pi, pi])
        trace, _ = plain_em(counts, init, config)
        assert trace[0] == float("-inf")
        assert np.isfinite(trace[-1])
        assert_first_maps_plain(counts, init, config, trace)

    def test_degenerate_init(self, song):
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        init = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        counts = count_ngrams([Sequence(song, [0, 0, 1, 0])], 2)
        with pytest.raises(DegenerateLikelihood) as got:
            em_fit(counts, init, EmConfig())
        with pytest.raises(DegenerateLikelihood) as expected:
            oracle_em_fit(counts, init, EmConfig())
        assert np.array_equal(got.value.trace, expected.value.trace)
        assert list(got.value.trace) == [float("-inf")]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        q=st.integers(2, 4),
        m=st.integers(1, 4),
        l=st.integers(1, 4),
        single=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_property(self, q, m, l, single, seed):
        l = 1 if single else min(l, m)
        variant = "single_matrix" if single else "general"
        truth = random_mtd(q, m, l, variant=variant, seed=seed)
        counts = count_ngrams([sample_sequence(truth, 600, seed=seed + 1)], m)
        init = random_mtd(q, m, l, variant=variant, seed=seed + 2)
        config = EmConfig(epsilon=1e-6, max_iters=60)
        trace, _ = plain_em(counts, init, config)
        assert np.diff(trace).min() > -1e-9
        assert_first_maps_plain(counts, init, config, trace)


class TestEStep:
    def test_single_component(self, dna):
        counts = count_ngrams([random_sequence(dna, 60, 0)], 2)
        mat = np.full((16, 4), 0.25)
        model = MtdModel(dna, 2, 2, [1.0], [mat])
        post = e_step(model, counts)
        assert np.abs(post - 1.0).max() < 1e-15

    def test_indistinguishable_components_give_phi(self, dna):
        # identical matrices with identical rows: every component assigns the
        # same probability to each word, so the posterior is phi itself
        counts = count_ngrams([random_sequence(dna, 80, 1)], 2)
        rng = np.random.default_rng(2)
        row = rng.random(4)
        row /= row.sum()
        p = np.tile(row, (4, 1))
        model = MtdModel(dna, 2, 1, [0.3, 0.7], [p, p])
        post = e_step(model, counts)
        assert np.abs(post.T - np.array([0.3, 0.7])).max() < 1e-12

    def test_equal_matrices_do_not_collapse_in_general(self, dna):
        # sharing one matrix across lags is *not* enough: components stay
        # distinguishable through their different conditioning letters
        counts = count_ngrams([Sequence(dna, dna.encode("act"))], 2)
        rng = np.random.default_rng(2)
        p = rng.random((4, 4))
        p /= p.sum(axis=1, keepdims=True)
        model = MtdModel(dna, 2, 1, [0.3, 0.7], [p, p])
        post = e_step(model, counts)
        word = word_to_index(dna.encode("act"), 4)
        c1, c2 = 0.3 * p[1, 3], 0.7 * p[0, 3]
        assert column(post, counts, word)[0] == pytest.approx(c1 / (c1 + c2), abs=1e-12)

    def test_pewee_anchor(self, pewee_em, song):
        counts_stub = count_ngrams([Sequence(song, [0, 0, 0])], 2)
        post = e_step(pewee_em, counts_stub)
        value = column(post, counts_stub, word_to_index([0, 0, 0], 3))[0]
        assert value == pytest.approx(0.275 * 0.102 / 0.75305, abs=1e-12)
        assert round(value, 6) == 0.037249

    @pytest.mark.parametrize("seed", range(6))
    def test_normalization(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        l = int(rng.integers(1, m + 1))
        model = random_mtd(q, m, l, seed=seed)
        counts = count_ngrams([random_sequence(model.alphabet, 300, seed)], m)
        post = e_step(model, counts)
        assert np.abs(post.sum(axis=0) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("variant,l", [("general", 1), ("general", 2), ("single_matrix", 1)])
    def test_matches_position_scan(self, variant, l):
        model = random_mtd(3, 3, l, variant=variant, seed=11)
        seq = random_sequence(model.alphabet, 200, 12)
        counts = count_ngrams([seq], 3)
        post = e_step(model, counts)
        for word, expected in scan_posteriors(model, seq):
            assert np.abs(column(post, counts, word) - expected).max() < 1e-12

    def test_degenerate_word(self, song):
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        model = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        counts = count_ngrams([Sequence(song, [0, 0, 1])], 2)
        with pytest.raises(DegenerateLikelihood) as err:
            e_step(model, counts)
        assert err.value.word_index == word_to_index([0, 0, 1], 3)
        assert err.value.word == "112"

    def test_floor_avoids_degeneracy(self, song):
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        model = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        counts = count_ngrams([Sequence(song, [0, 0, 1])], 2)
        post = e_step(model, counts, floor=1e-9)
        assert np.abs(post.sum(axis=0) - 1.0).max() < 1e-12


class TestMStep:
    def test_point_mass_posteriors(self, dna):
        seq = random_sequence(dna, 120, 3)
        counts = count_ngrams([seq], 2)
        model = random_mtd(4, 2, 1, seed=4, alphabet=dna)
        probs = np.zeros((2, len(counts)))
        probs[0] = 1.0
        phi, mats = m_step(probs, counts, model)
        assert np.abs(phi - np.array([1.0, 0.0])).max() < 1e-15
        table = lag_contingency(counts, 1, 1).table.astype(float)
        observed = table.sum(axis=1) > 0
        expected = table[observed] / table[observed].sum(axis=1, keepdims=True)
        assert np.abs(mats[0][observed] - expected).max() < 1e-12
        # un-weighted rows keep their previous value
        assert np.array_equal(mats[0][~observed], model.matrices[0][~observed])
        assert np.array_equal(mats[1], model.matrices[1])

    def test_single_component_bigram_mle(self, dna):
        seq = random_sequence(dna, 200, 5)
        counts = count_ngrams([seq], 1)
        model = random_mtd(4, 1, 1, seed=6, alphabet=dna)
        post = e_step(model, counts)
        phi, mats = m_step(post, counts, model)
        table = lag_contingency(counts, 1, 1).table.astype(float)
        expected = table / table.sum(axis=1, keepdims=True)
        assert np.abs(mats[0] - expected).max() < 1e-12

    def test_posterior_equal_phi_fixed_point(self, dna):
        counts = count_ngrams([random_sequence(dna, 150, 7)], 2)
        model = random_mtd(4, 2, 1, seed=8, alphabet=dna)
        probs = np.tile(model.phi[:, None], (1, len(counts)))
        phi, _ = m_step(probs, counts, model)
        assert np.abs(phi - model.phi).max() < 1e-12

    @pytest.mark.parametrize("variant,l", [("general", 1), ("general", 2), ("single_matrix", 1)])
    @pytest.mark.parametrize("seed", range(3))
    def test_maximizes_q(self, variant, l, seed):
        model = random_mtd(3, 3, l, variant=variant, seed=seed)
        counts = count_ngrams([random_sequence(model.alphabet, 250, seed + 50)], 3)
        post = e_step(model, counts)
        phi, mats = m_step(post, counts, model)
        best = q_function(phi, mats, post, counts, l)
        rng = np.random.default_rng(seed + 99)
        for trial in range(200):
            other = random_mtd(3, 3, l, variant=variant, seed=rng.integers(2**31))
            value = q_function(other.phi, other.matrices, post, counts, l)
            assert value <= best + 1e-9

    def test_single_matrix_pools_lags(self, song):
        # shared-matrix update = pooled numerators/denominators of the tied general update
        seq = random_sequence(song, 150, 9)
        counts = count_ngrams([seq], 2)
        shared = random_mtd(3, 2, 1, variant="single_matrix", seed=10, alphabet=song)
        tied = MtdModel(song, 2, 1, shared.phi, [shared.matrices[0]] * 2)
        post_shared = e_step(shared, counts)
        post_tied = e_step(tied, counts)
        assert np.abs(post_shared - post_tied).max() < 1e-15
        phi_s, mats_s = m_step(post_shared, counts, shared)
        q = 3
        ws = counts.word_indices()
        N = counts.values().astype(float)
        num = np.zeros((3, 3))
        for g in (1, 2):
            np.add.at(num, ((ws // q**g) % q, ws % q), post_tied[g - 1] * N)
        expected = num / num.sum(axis=1, keepdims=True)
        assert np.abs(mats_s[0] - expected).max() < 1e-12
        phi_t, _ = m_step(post_tied, counts, tied)
        assert np.abs(phi_s - phi_t).max() < 1e-15


class TestInitContingency:
    def test_hand_example(self):
        ab = Alphabet(("a", "b"))
        counts = count_ngrams([Sequence(ab, ab.encode("aaaabbbb"))], 2)
        model = init_contingency(counts)
        # lag-1 pairs: (a,a) x2, (a,b) x1, (b,b) x3; +1 pseudocount each cell
        assert np.abs(model.matrices[0] - np.array([[0.6, 0.4], [0.2, 0.8]])).max() < 1e-12
        assert np.abs(model.phi - 0.5).max() < 1e-15

    def test_phi_uniform(self, dna):
        counts = count_ngrams([random_sequence(dna, 100, 1)], 3)
        model = init_contingency(counts, lag_order=2)
        assert np.abs(model.phi - 1.0 / 2).max() < 1e-15
        assert all(mat.min() > 0 for mat in model.matrices)

    def test_concentration_on_uniform_corpus(self, dna):
        counts = count_ngrams([random_sequence(dna, 10**5, 2)], 2)
        model = init_contingency(counts)
        for mat in model.matrices:
            assert np.abs(mat - 0.25).max() < 0.02

    def test_empty_counts(self, dna):
        from mtdchain import NGramCounts

        with pytest.raises(EmptyCorpus):
            init_contingency(NGramCounts(dna, 3))


class TestEmFit:
    def test_fixed_point_converges_fast(self, dna):
        seq = random_sequence(dna, 300, 3)
        counts = count_ngrams([seq], 2)
        table = lag_contingency(counts, 1, 2).table.astype(float)
        sums = table.sum(axis=1, keepdims=True)
        mle = np.where(sums > 0, table / np.where(sums == 0, 1.0, sums), 0.25)
        init = MtdModel(dna, 2, 2, [1.0], [mle])
        report = em_fit(counts, init, EmConfig())
        assert report.iterations <= 2
        assert report.converged
        assert abs(report.final_loglik - report.loglik_trace[0]) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_trace(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        l = int(rng.integers(1, 3))
        if l > m:
            l = m
        truth = random_mtd(q, m, l, seed=seed + 1000)
        seq = sample_sequence(truth, 1500, seed=seed)
        counts = count_ngrams([seq], m)
        report = em_fit(counts, init_contingency(counts, l), EmConfig(epsilon=1e-6))
        diffs = np.diff(report.loglik_trace)
        assert diffs.min() > -1e-9
        assert report.final_loglik == report.loglik_trace[-1]

    def test_recovery(self, dna):
        truth = random_mtd(3, 2, 1, seed=31)
        seq = sample_sequence(truth, 10**5, seed=32)
        counts = count_ngrams([seq], 2)
        report = fit_with_restarts(counts, EmConfig(seed=33, epsilon=1e-4))
        fitted = full_transition_matrix(report.model).table
        target = full_transition_matrix(truth).table
        assert np.abs(fitted - target).sum(axis=1).max() <= 0.05

    def test_degenerate_init_attaches_trace(self, song):
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        init = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        counts = count_ngrams([Sequence(song, [0, 0, 1, 0])], 2)
        with pytest.raises(DegenerateLikelihood) as err:
            em_fit(counts, init, EmConfig())
        assert err.value.trace is not None
        assert err.value.trace[0] == float("-inf")


class TestAccelerated:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        q=st.integers(2, 4),
        m=st.integers(1, 4),
        l=st.integers(1, 4),
        single=st.booleans(),
        seed=st.integers(0, 2**16),
        max_iters=st.integers(1, 60),
        floor=st.sampled_from([None, 1e-9]),
    )
    def test_monotone_and_valid(self, q, m, l, single, seed, max_iters, floor):
        l = 1 if single else min(l, m)
        variant = "single_matrix" if single else "general"
        truth = random_mtd(q, m, l, variant=variant, seed=seed)
        counts = count_ngrams([sample_sequence(truth, 600, seed=seed + 1)], m)
        init = random_mtd(q, m, l, variant=variant, seed=seed + 2)
        evaluated = []
        terms = em_module._component_terms

        def record(model, cells):
            evaluated.append(model)
            return terms(model, cells)

        config = EmConfig(epsilon=1e-6, max_iters=max_iters, floor=floor)
        with mock.patch.object(em_module, "_component_terms", record):
            report = em_fit(counts, init, config)
        assert np.diff(report.loglik_trace).min() > -1e-9
        assert report.iterations <= max_iters
        # every iterate, kept or tried, passes the model's validation anew
        for model in evaluated:
            again = MtdModel(
                model.alphabet, model.order, model.lag_order, model.phi, model.matrices,
                variant=model.variant,
            )
            assert again == model
        # the reported model is the one whose likelihood ends the trace
        assert report.final_loglik == loglik_from_counts(report.model, counts)

    def test_single_matrix_stall(self):
        # plain EM creeps here: it still gains >= epsilon per map after 300 maps
        truth = random_mtd(3, 5, 1, variant="single_matrix", seed=1)
        counts = count_ngrams([sample_sequence(truth, 20000, seed=2)], 5)
        init = init_contingency(counts, 1, "single_matrix")
        config = EmConfig(max_iters=300)
        plain, _ = oracle_em_fit(counts, init, config)
        fast = em_fit(counts, init, config)
        assert len(plain) == 301 and plain[-1] - plain[-2] >= config.epsilon
        assert fast.converged
        assert fast.final_loglik >= plain[-1]


class TestFitWithRestarts:
    def test_single_restart_equals_contingency_run(self, dna):
        counts = count_ngrams([random_sequence(dna, 400, 4)], 2)
        config = EmConfig(n_restarts=1, seed=5)
        best = fit_with_restarts(counts, config)
        direct = em_fit(counts, init_contingency(counts), config)
        assert best.final_loglik == direct.final_loglik
        assert best.model == direct.model
        assert best.restart_index == 0

    def test_best_of_all_restarts(self, dna):
        truth = random_mtd(4, 2, 1, seed=41, alphabet=dna)
        seq = sample_sequence(truth, 2000, seed=42)
        counts = count_ngrams([seq], 2)
        config = EmConfig(n_restarts=4, seed=43)
        best = fit_with_restarts(counts, config)
        seeds = np.random.SeedSequence(43).spawn(3)
        finals = [em_fit(counts, init_contingency(counts), config).final_loglik]
        for s in seeds:
            finals.append(
                em_fit(counts, random_mtd(4, 2, 1, seed=s, alphabet=dna), config).final_loglik
            )
        assert best.final_loglik == max(finals)

    def test_deterministic(self, dna):
        counts = count_ngrams([random_sequence(dna, 500, 6)], 2)
        config = EmConfig(seed=7)
        a = fit_with_restarts(counts, config)
        b = fit_with_restarts(counts, config)
        assert a.model == b.model
        assert np.array_equal(a.loglik_trace, b.loglik_trace)
        assert (a.final_loglik, a.iterations, a.converged, a.restart_index, a.bic) == (
            b.final_loglik,
            b.iterations,
            b.converged,
            b.restart_index,
            b.bic,
        )
        assert a.theta_u == b.theta_u

    def test_all_restarts_failed(self, song):
        # forcing failure requires a degenerate *initial* model, so feed the
        # fit a corpus whose contingency init is fine but patch randomness out
        counts = count_ngrams([Sequence(song, [0, 0, 1, 0])], 2)
        pi = np.array([[1.0, 0.0, 0.0]] * 3)

        original_cont = em_module.init_contingency
        original_rand = em_module.random_mtd
        degenerate = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        try:
            em_module.init_contingency = lambda *a, **k: degenerate
            em_module.random_mtd = lambda *a, **k: degenerate
            with pytest.raises(AllRestartsFailed) as err:
                em_module.fit_with_restarts(counts, EmConfig(n_restarts=3))
            assert len(err.value.failures) == 3
        finally:
            em_module.init_contingency = original_cont
            em_module.random_mtd = original_rand


class TestVariantAgainstGridSearch:
    def test_single_matrix_reaches_grid_maximum(self):
        ab = Alphabet(("a", "b"))
        truth = random_mtd(2, 2, 1, variant="single_matrix", seed=17, alphabet=ab)
        seq = sample_sequence(truth, 400, seed=18)
        counts = count_ngrams([seq], 2)
        report = fit_with_restarts(
            counts, EmConfig(variant="single_matrix", epsilon=1e-8, seed=19)
        )
        # brute-force grid over (phi_1, pi[0,0], pi[1,0]) with step 0.02
        ws = counts.word_indices()
        N = counts.values().astype(float)
        i0 = ws % 2
        i1 = (ws // 2) % 2
        i2 = (ws // 4) % 2
        grid = np.arange(0.0, 1.0 + 1e-12, 0.02)
        best = -np.inf
        for f in grid:
            for a in grid:
                for b in grid:
                    pi = np.array([[a, 1 - a], [b, 1 - b]])
                    p = f * pi[i1, i0] + (1 - f) * pi[i2, i0]
                    if (p <= 0).any():
                        continue
                    best = max(best, float(N @ np.log(p)))
        assert report.final_loglik >= best - 1e-9
