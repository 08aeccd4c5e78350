import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mtdchain.berchtold as berchtold_module
import mtdchain.em as em_module
import refdata
from conftest import build_model, lag_table, plus_one_rows, random_mtds, random_sequence
from mtdchain import (
    Alphabet,
    AlphabetMismatch,
    AllRestartsFailed,
    DegenerateLikelihood,
    EmConfig,
    EmptyCorpus,
    LagOutOfRange,
    MtdModel,
    Sequence,
    ShapeMismatch,
    berchtold_fit,
    count_ngrams,
    e_step,
    em_fit,
    fit_with_restarts,
    from_theta_u,
    full_transition_matrix,
    index_to_word,
    init_contingency,
    loglik_from_counts,
    loglik_gradient,
    m_step,
    random_mtd,
    sample_sequence,
    to_theta_u,
    word_to_index,
)
from mtdchain.model import history_rows


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


def oracle_e_step(model, counts):
    """Posteriors of shape (n_words, G)."""
    comps = oracle_component_word_probs(model, counts.word_indices())
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
            probs = oracle_e_step(model, counts)
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
        posteriors = e_step(model, counts)
        assert np.array_equal(posteriors, oracle_e_step(model, counts).T)
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


def oracle_fit_with_restarts(counts, config):
    """The restart rule before screening: every start runs em_fit to epsilon, best final wins.

    Starts, seeds and init order are fit_with_restarts's; a degenerate start is skipped.
    """
    q = counts.alphabet.size
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_restarts - 1)
    best = None
    for r in range(config.n_restarts):
        if r == 0:
            init = init_contingency(counts, config.lag_order, config.variant)
        else:
            init = random_mtd(q, counts.order, config.lag_order, variant=config.variant,
                              seed=seeds[r - 1], alphabet=counts.alphabet)
        try:
            report = em_fit(counts, init, config)
        except DegenerateLikelihood:
            continue
        if best is None or report.final_loglik > best.final_loglik:
            best = report
    return best


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

    @settings(max_examples=40)
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


def oracle_cells(counts, l, variant):
    """Each word's cell, read digit by digit: (g-1) q**(l+1) + block_g * q + i_0, shape (G, n).

    The single-matrix variant's lags share one matrix, so its cells have no lag offset.
    """
    q, m = counts.alphabet.size, counts.order
    rows = []
    for g in range(1, m - l + 2):
        offset = 0 if variant == "single_matrix" else (g - 1) * q ** (l + 1)
        row = []
        for w in counts.word_indices().tolist():
            word = index_to_word(w, m + 1, q)  # oldest letter first: lag k's letter is word[m - k]
            row.append(offset + word_to_index(word[m - g - l + 1 : m - g + 1], q) * q + word[m])
        rows.append(row)
    return np.array(rows, dtype=np.int64)


class TestOneEvaluator:
    """The model's evaluator, the dense table and the fit kernel give each word the same bits."""

    @settings(max_examples=60)
    @given(model=random_mtds(max_q=4, max_order=6), length=st.integers(1, 400),
           seed=st.integers(0, 2**16))
    @example(model=random_mtd(4, 6, 6, seed=1), length=400, seed=0)  # dense: l = m
    @example(model=random_mtd(4, 6, 3, seed=2), length=400, seed=1)
    @example(model=random_mtd(4, 6, 1, variant="single_matrix", seed=3), length=400, seed=2)
    def test_words_score_alike(self, model, length, seed):
        q, m, l = model.alphabet.size, model.order, model.lag_order
        counts = count_ngrams([sample_sequence(model, m + length, seed=seed)], m)
        words = counts.word_indices()
        probs = history_rows(model, words // q, words % q)
        table = full_transition_matrix(model).matrices[0]
        kernel, theta = em_module._Kernel.of(counts, model)
        point = kernel.gather(theta)
        assert np.array_equal(probs, table[words // q, words % q])
        assert np.array_equal(probs, point.probs)
        assert loglik_from_counts(model, counts) == point.loglik
        assert np.array_equal(kernel.cells, oracle_cells(counts, l, model.variant))
        assert np.array_equal(kernel.table_cells, oracle_cells(counts, l, "general"))


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
        counts = count_ngrams([Sequence(dna, dna.decode("act"))], 2)
        rng = np.random.default_rng(2)
        p = rng.random((4, 4))
        p /= p.sum(axis=1, keepdims=True)
        model = MtdModel(dna, 2, 1, [0.3, 0.7], [p, p])
        post = e_step(model, counts)
        word = word_to_index(dna.decode("act"), 4)
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

    def test_degenerate_word_spelled_with_separator(self):
        # '10,10,11', not the ambiguous '101011'
        song = Alphabet(("10", "11", "12"))
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        model = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        counts = count_ngrams([Sequence(song, [0, 0, 1])], 2)
        with pytest.raises(DegenerateLikelihood, match="'10,10,11'") as err:
            e_step(model, counts)
        assert err.value.word == "10,10,11"


class TestMStep:
    def test_point_mass_posteriors(self, dna):
        seq = random_sequence(dna, 120, 3)
        counts = count_ngrams([seq], 2)
        model = random_mtd(4, 2, 1, seed=4, alphabet=dna)
        probs = np.zeros((2, len(counts)))
        probs[0] = 1.0
        phi, mats = m_step(probs, counts, model)
        assert np.abs(phi - np.array([1.0, 0.0])).max() < 1e-15
        table = lag_table(seq, 2, 1).astype(float)
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
        table = lag_table(seq, 1, 1).astype(float)
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
        counts = count_ngrams([Sequence(ab, ab.decode("aaaabbbb"))], 2)
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

    @pytest.mark.parametrize("l, variant", [(1, "general"), (2, "general"), (3, "general"),
                                            (1, "single_matrix")])
    def test_rows_match_pseudocount_oracle(self, dna, l, variant):
        # each table's +1 normalization as init_contingency did it before the shared normalizer
        seq = random_sequence(dna, 300, 4)
        counts = count_ngrams([seq], 3)
        lags = range(1, 3 - l + 2)
        if variant == "single_matrix":
            expected = [plus_one_rows(sum(lag_table(seq, 3, g) for g in lags))]
        else:
            expected = [plus_one_rows(lag_table(seq, 3, g, l)) for g in lags]
        model = init_contingency(counts, l, variant)
        assert len(model.matrices) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(model.matrices, expected))

    def test_empty_counts(self, dna):
        from mtdchain import NGramCounts

        with pytest.raises(EmptyCorpus):
            init_contingency(NGramCounts(dna, 3))

    @pytest.mark.parametrize("lag_order", [0, 3, 4])
    def test_lag_order_outside_the_order(self, dna, lag_order):
        counts = count_ngrams([random_sequence(dna, 100, 1)], 2)
        with pytest.raises(LagOutOfRange):
            init_contingency(counts, lag_order)


class TestEmFit:
    def test_fixed_point_converges_fast(self, dna):
        seq = random_sequence(dna, 300, 3)
        counts = count_ngrams([seq], 2)
        table = lag_table(seq, 2, 1, 2).astype(float)
        sums = table.sum(axis=1, keepdims=True)
        mle = np.where(sums > 0, table / np.where(sums == 0, 1.0, sums), 0.25)
        init = MtdModel(dna, 2, 2, [1.0], [mle])
        report = em_fit(counts, init, EmConfig())
        assert report.iterations <= 2
        assert report.converged
        assert report.restarts == ()
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
        fitted = full_transition_matrix(report.model).matrices[0]
        target = full_transition_matrix(truth).matrices[0]
        assert np.abs(fitted - target).sum(axis=1).max() <= 0.05

    def test_budget_counts_maps_across_a_cycle(self):
        # budgets 1..6 span the first extrapolation, which the third map starts from
        truth = random_mtd(4, 3, 1, seed=8)
        counts = count_ngrams([sample_sequence(truth, 3000, seed=9)], 3)
        init = init_contingency(counts)
        longer = em_fit(counts, init, EmConfig(epsilon=1e-9, max_iters=12))
        plain, _ = oracle_em_fit(counts, init, EmConfig(epsilon=1e-9, max_iters=3))
        assert np.array_equal(longer.loglik_trace[:3], plain[:3])
        assert longer.loglik_trace[3] > plain[3]  # the extrapolation was kept
        for k in range(1, 7):
            report = em_fit(counts, init, EmConfig(epsilon=1e-9, max_iters=k))
            assert (report.iterations, report.converged) == (k, False)
            assert np.array_equal(report.loglik_trace, longer.loglik_trace[: k + 1])
            # the last map's output, not an extrapolation no map followed
            assert report.final_loglik == loglik_from_counts(report.model, counts)

    def test_degenerate_init_attaches_trace(self, song):
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        init = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        counts = count_ngrams([Sequence(song, [0, 0, 1, 0])], 2)
        with pytest.raises(DegenerateLikelihood) as err:
            em_fit(counts, init, EmConfig())
        assert err.value.trace is not None
        assert err.value.trace[0] == float("-inf")


# each public entry to the fit kernel, as a call of (counts, model)
_FIT_CALLS = {
    "em_fit": em_fit,
    "berchtold_fit": berchtold_fit,
    "e_step": lambda counts, model: e_step(model, counts),
    "m_step": lambda counts, model: m_step(
        np.full((model.n_components, len(counts)), 1.0 / model.n_components), counts, model
    ),
    "loglik_gradient": lambda counts, model: loglik_gradient(model, counts),
}


class TestCountsMatchTheModel:
    def test_loglik_needs_the_models_word_length(self):
        model = random_mtd(4, 2, 1, seed=1)
        counts = count_ngrams([sample_sequence(model, 300, seed=2)], 3)
        with pytest.raises(ShapeMismatch, match="4-words, model needs 3"):
            loglik_from_counts(model, counts)

    @pytest.mark.parametrize("symbols", [("a", "b"), ("a", "c", "g", "t")], ids=["ab", "acgt"])
    def test_loglik_needs_the_models_alphabet(self, symbols):
        seq = random_sequence(Alphabet(symbols), 300, 3)
        with pytest.raises(AlphabetMismatch):
            loglik_from_counts(random_mtd(4, 2, 1, seed=1), count_ngrams([seq], 2))

    @pytest.mark.parametrize("call", _FIT_CALLS)
    @pytest.mark.parametrize("symbols", [("a", "b"), ("a", "c", "g", "t")], ids=["ab", "acgt"])
    def test_fit_kernel_needs_the_models_alphabet(self, call, symbols):
        counts = count_ngrams([random_sequence(Alphabet(symbols), 300, 3)], 2)
        with pytest.raises(AlphabetMismatch):
            _FIT_CALLS[call](counts, random_mtd(4, 2, 1, seed=1))

    @pytest.mark.parametrize("call", ["em_fit", "berchtold_fit"])
    def test_fits_refuse_empty_counts(self, call):
        from mtdchain import NGramCounts

        model = random_mtd(4, 2, 1, seed=1)
        with pytest.raises(EmptyCorpus):
            _FIT_CALLS[call](NGramCounts(model.alphabet, 3), model)


class TestAccelerated:
    @settings(max_examples=40)
    @given(
        q=st.integers(2, 4),
        m=st.integers(1, 4),
        l=st.integers(1, 4),
        single=st.booleans(),
        seed=st.integers(0, 2**16),
        max_iters=st.integers(1, 60),
    )
    def test_monotone_and_valid(self, q, m, l, single, seed, max_iters):
        l = 1 if single else min(l, m)
        variant = "single_matrix" if single else "general"
        truth = random_mtd(q, m, l, variant=variant, seed=seed)
        counts = count_ngrams([sample_sequence(truth, 600, seed=seed + 1)], m)
        init = random_mtd(q, m, l, variant=variant, seed=seed + 2)
        tried = []
        gather = em_module._Kernel.gather

        def record(kernel, theta):
            tried.append(theta.copy())
            return gather(kernel, theta)

        config = EmConfig(epsilon=1e-6, max_iters=max_iters)
        with mock.patch.object(em_module._Kernel, "gather", record):
            report = em_fit(counts, init, config)
        assert np.diff(report.loglik_trace).min() > -1e-9
        assert report.iterations <= max_iters
        assert len(tried) >= len(report.loglik_trace)
        # every parameter vector the fit tried or kept validates as a model
        G = init.n_components
        for theta in tried:
            MtdModel(
                init.alphabet, m, l, theta[:G], list(theta[G:].reshape(len(init.matrices), -1, q)),
                variant=variant,
            )
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


def count_builds(monkeypatch):
    """Lists that grow by one per ``MtdModel.__init__`` and per ``_cell_index`` call."""
    built, indexed = [], []
    construct, cell_index = MtdModel.__init__, em_module._cell_index

    def counted_construct(self, *args, **kwargs):
        built.append(1)
        construct(self, *args, **kwargs)

    def counted_cell_index(*args):
        indexed.append(1)
        return cell_index(*args)

    monkeypatch.setattr(MtdModel, "__init__", counted_construct)
    monkeypatch.setattr(em_module, "_cell_index", counted_cell_index)
    return built, indexed


class TestOneKernel:
    @pytest.mark.parametrize("fit", [em_fit, berchtold_fit], ids=["em", "berchtold"])
    def test_cells_and_model_built_once(self, fit, monkeypatch):
        truth = random_mtd(3, 3, 2, seed=3)
        counts = count_ngrams([sample_sequence(truth, 2000, seed=4)], 3)
        init = init_contingency(counts, 2)
        built, indexed = count_builds(monkeypatch)
        report = fit(counts, init)
        assert report.iterations > 3
        assert (len(built), len(indexed)) == (1, 1)

    def test_restarts_share_one_kernel(self, monkeypatch):
        truth = random_mtd(3, 3, 1, seed=3)
        counts = count_ngrams([sample_sequence(truth, 2000, seed=4)], 3)
        built, indexed = count_builds(monkeypatch)
        init_contingency(counts)
        assert (len(built), len(indexed)) == (1, 1)
        config = EmConfig()
        report = fit_with_restarts(counts, config)
        assert report.iterations > 10  # the leader was polished
        # one cell index for the whole fit; a model for each random start and the report
        assert (len(built), len(indexed)) == (1 + config.n_restarts, 1 + 1)

    def test_every_fit_climbs_in_one_loop(self, song, monkeypatch):
        assert berchtold_module._climb is em_module._climb
        calls, maps = [], []  # (epsilon, budget) of each climb, and the maps it ran
        climb = em_module._climb

        def spy(point, step, epsilon, max_iters):
            calls.append((epsilon, max_iters))
            theta, trace, stop = climb(point, step, epsilon, max_iters)
            maps.append(len(trace) - 1)
            return theta, trace, stop

        for module in (em_module, berchtold_module):
            monkeypatch.setattr(module, "_climb", spy)
        truth = random_mtd(3, 3, 1, seed=3)
        counts = count_ngrams([sample_sequence(truth, 2000, seed=4)], 3)
        config = EmConfig()
        for fit in (em_fit, berchtold_fit):
            calls.clear()
            fit(counts, init_contingency(counts), config)
            assert calls == [(config.epsilon, config.max_iters)]
        # one climb per start, and the polish with the maps the leader's screen left
        for n_restarts, max_iters in [(1, 1000), (5, 1000), (5, 10), (5, 4)]:
            calls.clear()
            maps.clear()
            config = EmConfig(n_restarts=n_restarts, max_iters=max_iters)
            report = fit_with_restarts(counts, config)
            budget = max_iters if n_restarts == 1 else min(10, max_iters)
            assert calls[:n_restarts] == [(config.epsilon, budget)] * n_restarts
            left = max_iters - maps[report.restart_index]
            polished = n_restarts > 1 and left > 0
            assert calls[n_restarts:] == ([(config.epsilon / 100, left)] if polished else [])
            assert report.iterations == maps[report.restart_index] + sum(maps[n_restarts:])
        # a start that fails has climbed too
        calls.clear()
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        degenerate = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        counts = count_ngrams([Sequence(song, [0, 0, 1, 0])], 2)
        theta = np.concatenate([degenerate.phi, pi.ravel(), pi.ravel()])
        with (
            mock.patch.object(em_module._Kernel, "contingency", lambda kernel: theta.copy()),
            mock.patch.object(em_module, "random_mtd", lambda *a, **k: degenerate),
            pytest.raises(AllRestartsFailed),
        ):
            fit_with_restarts(counts, EmConfig(n_restarts=3))
        assert len(calls) == 3


def composed_fit_with_restarts(counts, config, starts):
    """fit_with_restarts as public calls, given its random starts.

    Every start runs em_fit for 10 maps, and em_fit from the leader's
    model runs on at epsilon / 100 with the maps left; one restart is
    em_fit of the contingency start.  Returns ``(trace, final, leader
    index, records)``: ``final`` is the last em_fit's report, records
    are (index, init, loglik, error text).
    """
    inits = [init_contingency(counts, config.lag_order, config.variant), *starts]
    if config.n_restarts == 1:
        report = em_fit(counts, inits[0], config)
        return report.loglik_trace, report, 0, [(0, "contingency", report.final_loglik, None)]
    screen = dataclasses.replace(config, max_iters=min(10, config.max_iters))
    lead, leader, records = None, None, []
    for r, init in enumerate(inits):
        kind = "random" if r else "contingency"
        try:
            report = em_fit(counts, init, screen)
        except DegenerateLikelihood as err:
            records.append((r, kind, None, str(err)))
            continue
        records.append((r, kind, report.final_loglik, None))
        if leader is None or report.final_loglik > leader.final_loglik:
            lead, leader = r, report
    polish = em_fit(counts, leader.model, dataclasses.replace(
        config, epsilon=config.epsilon / 100, max_iters=config.max_iters - leader.iterations))
    trace = np.concatenate([leader.loglik_trace, polish.loglik_trace[1:]])
    return trace, polish, lead, records


class TestRestartsEqualPublicCalls:
    @pytest.mark.parametrize("n_restarts", [1, 3])
    @pytest.mark.parametrize("l, variant", [(1, "general"), (2, "general"),
                                            (1, "single_matrix")])
    def test_bit_identical(self, l, variant, n_restarts):
        truth = random_mtd(3, 3, l, variant=variant, seed=60 + l)
        counts = count_ngrams([sample_sequence(truth, 3000, seed=61)], 3)
        config = EmConfig(n_restarts=n_restarts, seed=62, lag_order=l, variant=variant)
        starts, original = [], em_module.random_mtd

        def last_start_degenerate(*args, **kwargs):
            # every word not ending in the first letter has probability 0 under
            # the second random start, so it fails
            start = original(*args, **kwargs)
            if len(starts) == 1:
                mats = [np.zeros_like(mat) for mat in start.matrices]
                for mat in mats:
                    mat[:, 0] = 1.0
                start = MtdModel(start.alphabet, 3, l, start.phi, mats, variant)
            starts.append(start)
            return start

        with mock.patch.object(em_module, "random_mtd", last_start_degenerate):
            report = fit_with_restarts(counts, config)
        trace, final, lead, records = composed_fit_with_restarts(counts, config, starts)
        assert np.array_equal(report.loglik_trace, trace)
        assert report.model == final.model
        assert (report.final_loglik, report.iterations, report.converged, report.bic) == (
            final.final_loglik, len(trace) - 1, final.converged, final.bic
        )
        assert report.restart_index == lead
        got = [(rec.index, rec.init, rec.loglik, rec.error and str(rec.error))
               for rec in report.restarts]
        assert got == records
        assert len(starts) == n_restarts - 1
        if n_restarts == 3:
            assert isinstance(report.restarts[2].error, DegenerateLikelihood)


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
        assert best.final_loglik >= max(finals) - 1e-6

    def test_leader_is_screened_then_polished(self, dna):
        truth = random_mtd(4, 3, 1, seed=41, alphabet=dna)
        counts = count_ngrams([sample_sequence(truth, 3000, seed=42)], 3)
        config = EmConfig(n_restarts=4, seed=43, epsilon=1e-4)
        report = fit_with_restarts(counts, config)
        seeds = np.random.SeedSequence(43).spawn(3)
        inits = [init_contingency(counts)]
        inits += [random_mtd(4, 3, 1, seed=s, alphabet=dna) for s in seeds]
        screen = dataclasses.replace(config, max_iters=10)
        screens = [em_fit(counts, init, screen) for init in inits]
        assert [(rec.index, rec.init, rec.loglik, rec.error) for rec in report.restarts] == [
            (r, "contingency" if r == 0 else "random", s.final_loglik, None)
            for r, s in enumerate(screens)
        ]
        lead = int(np.argmax([s.final_loglik for s in screens]))
        leader = screens[lead]
        polish = em_fit(
            counts,
            leader.model,
            dataclasses.replace(config, epsilon=1e-6, max_iters=1000 - leader.iterations),
        )
        assert polish.loglik_trace[0] == leader.final_loglik
        trace = np.concatenate([leader.loglik_trace, polish.loglik_trace[1:]])
        assert np.array_equal(report.loglik_trace, trace)
        assert report.model == polish.model
        assert report.restart_index == lead
        assert (report.iterations, report.converged) == (len(trace) - 1, polish.converged)
        assert (report.final_loglik, report.bic) == (polish.final_loglik, polish.bic)

    @pytest.mark.parametrize("max_iters", [1, 3, 12])
    def test_max_iters_caps_screen_and_polish(self, dna, max_iters):
        truth = random_mtd(4, 3, 2, seed=51, alphabet=dna)
        counts = count_ngrams([sample_sequence(truth, 3000, seed=52)], 3)
        config = EmConfig(n_restarts=5, max_iters=max_iters, seed=53, lag_order=2, epsilon=1e-9)
        report = fit_with_restarts(counts, config)
        trace = report.loglik_trace
        assert report.iterations == len(trace) - 1 <= max_iters
        assert np.diff(trace).min() >= 0.0
        assert trace[-1] == report.final_loglik == loglik_from_counts(report.model, counts)
        assert len(report.restarts) == 5

    def test_degenerate_restart_is_recorded(self, song):
        counts = count_ngrams([random_sequence(song, 500, 8)], 2)
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        degenerate = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        random_mtd_original = em_module.random_mtd
        starts = []

        def second_random_start_degenerate(*args, **kwargs):
            starts.append(random_mtd_original(*args, **kwargs))
            return degenerate if len(starts) == 2 else starts[-1]

        config = EmConfig(n_restarts=3, seed=9)
        with mock.patch.object(em_module, "random_mtd", second_random_start_degenerate):
            report = em_module.fit_with_restarts(counts, config)
        inits = [init_contingency(counts), starts[0]]
        screened = [em_fit(counts, init, dataclasses.replace(config, max_iters=10))
                    for init in inits]
        kinds = [(rec.index, rec.init) for rec in report.restarts]
        assert kinds == [(0, "contingency"), (1, "random"), (2, "random")]
        assert isinstance(report.restarts[2].error, DegenerateLikelihood)
        assert report.restarts[2].loglik is None
        assert [rec.loglik for rec in report.restarts[:2]] == [s.final_loglik for s in screened]
        assert report.restart_index == int(np.argmax([s.final_loglik for s in screened]))

    @settings(max_examples=40)
    @given(
        source=st.sampled_from(["pewee", "crystallin", "mtd-l1", "mtd-l2"]),
        n=st.sampled_from([300, 1000, 3000]),
        seed=st.integers(0, 2**16),
    )
    def test_screened_at_least_full_restarts(self, source, n, seed):
        if source == "pewee":
            truth = build_model(Alphabet(refdata.SONG_SYMBOLS), refdata.PEWEE_EM_PARAMS)
        elif source == "crystallin":
            truth = build_model(Alphabet(refdata.DNA_SYMBOLS), refdata.CRYSTALLIN_EM_PARAMS)
        else:
            truth = random_mtd(4, 4, int(source[-1]), seed=seed)
        counts = count_ngrams([sample_sequence(truth, n, seed=seed + 1)], truth.order)
        config = EmConfig(seed=seed + 2, lag_order=truth.lag_order)
        report = fit_with_restarts(counts, config)
        assert report.final_loglik >= oracle_fit_with_restarts(counts, config).final_loglik - 1e-6
        assert np.diff(report.loglik_trace).min() >= 0.0
        assert report.iterations <= config.max_iters

    def test_unknown_variant_fails_before_any_map(self, dna, monkeypatch):
        counts = count_ngrams([random_sequence(dna, 300, 4)], 2)

        def no_map(*args):
            raise AssertionError("a map ran before the variant was checked")

        monkeypatch.setattr(em_module, "_climb", no_map)
        for n_restarts in (1, 3):
            with pytest.raises(ValueError, match="unknown variant 'pooled'"):
                fit_with_restarts(counts, EmConfig(variant="pooled", n_restarts=n_restarts))

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
        assert to_theta_u(a.model, 0) == to_theta_u(b.model, 0)

    def test_theta_u_of_a_fit_keeps_its_loglik(self, dna):
        counts = count_ngrams([random_sequence(dna, 500, 6)], 2)
        report = fit_with_restarts(counts, EmConfig(n_restarts=2, seed=7))
        assert not hasattr(report, "theta_u")
        theta = to_theta_u(report.model, 0)
        assert loglik_from_counts(from_theta_u(theta), counts) == pytest.approx(report.final_loglik)

    def test_all_restarts_failed(self, song):
        # forcing failure requires a degenerate *initial* model, so feed the
        # fit a corpus whose contingency init is fine but patch every start:
        # the contingency start is the fit kernel's, the others random_mtd's
        counts = count_ngrams([Sequence(song, [0, 0, 1, 0])], 2)
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        degenerate = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        theta = np.concatenate([degenerate.phi, pi.ravel(), pi.ravel()])
        with (
            mock.patch.object(em_module._Kernel, "contingency", lambda kernel: theta.copy()),
            mock.patch.object(em_module, "random_mtd", lambda *a, **k: degenerate),
            pytest.raises(AllRestartsFailed) as err,
        ):
            em_module.fit_with_restarts(counts, EmConfig(n_restarts=3))
        assert len(err.value.failures) == 3


class TestEveryMapKeepsWordsPositive:
    """The argument that no fit needs a floor on its components.

    Take one EM map from a point where every observed word w has p(w) > 0,
    over N = counts.total words and G components.  Some lag g has posterior
    at least 1/G for w, so the map gives phi_g >= N(w) / (G N) and lag g's
    entry at w's cell at least N(w) / (G N): p(w) >= (G N)**-2 after it.
    Every start of fit_with_restarts is strictly positive, so no start fails.
    """

    @staticmethod
    def assert_bound(model, counts):
        probs = oracle_component_word_probs(model, counts.word_indices()).sum(axis=0)
        assert probs.min() >= (model.n_components * counts.total) ** -2.0

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(2, 4),
        m=st.integers(1, 5),
        l=st.integers(1, 5),
        single=st.booleans(),
        extra=st.integers(2, 399),
        seed=st.integers(0, 2**16),
        maps=st.integers(1, 3),
    )
    def test_small_corpora(self, q, m, l, single, extra, seed, maps):
        l = 1 if single else min(l, m)
        variant = "single_matrix" if single else "general"
        truth = random_mtd(q, m, l, variant=variant, seed=seed)
        counts = count_ngrams([sample_sequence(truth, min(m + extra, 399), seed=seed + 1)], m)
        config = EmConfig(epsilon=1e-8, max_iters=300, seed=seed + 2, variant=variant,
                          lag_order=l)
        report = fit_with_restarts(counts, config)
        assert [rec.error for rec in report.restarts] == [None] * config.n_restarts
        self.assert_bound(report.model, counts)
        init = random_mtd(q, m, l, variant=variant, seed=seed + 3)
        report = em_fit(counts, init, dataclasses.replace(config, max_iters=maps))
        self.assert_bound(report.model, counts)


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
