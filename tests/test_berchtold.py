import numpy as np
import pytest

from conftest import random_sequence
from mtdchain import (
    BerchtoldConfig,
    DegenerateLikelihood,
    EmConfig,
    MtdModel,
    Sequence,
    berchtold_fit,
    berchtold_step,
    count_ngrams,
    em_fit,
    init_contingency,
    lag_contingency,
    loglik_gradient,
    loglik_from_counts,
    random_mtd,
    sample_sequence,
)


def raw_loglik(phi, matrices, counts, lag_order):
    """Unconstrained likelihood evaluation for finite differencing."""
    q = counts.alphabet.size
    total = 0.0
    for w, n in counts.items():
        i0 = int(w) % q
        p = 0.0
        for g in range(1, len(phi) + 1):
            block = (int(w) // q**g) % q**lag_order
            mat = matrices[0] if len(matrices) == 1 else matrices[g - 1]
            p += phi[g - 1] * mat[block, i0]
        total += n * np.log(p)
    return total


class TestGradient:
    def test_single_component_phi_gradient(self, dna):
        counts = count_ngrams([random_sequence(dna, 90, 0)], 2)
        mat = np.full((16, 4), 0.25)
        model = MtdModel(dna, 2, 2, [1.0], [mat])
        grads = loglik_gradient(model, counts)
        assert grads.d_phi[0] == pytest.approx(counts.total, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences(self, seed):
        model = random_mtd(3, 2, 1, seed=seed)
        counts = count_ngrams([random_sequence(model.alphabet, 300, seed + 10)], 2)
        grads = loglik_gradient(model, counts)
        h = 1e-6
        phi = model.phi.copy()
        mats = [m.copy() for m in model.matrices]
        for g in range(2):
            up, down = phi.copy(), phi.copy()
            up[g] += h
            down[g] -= h
            fd = (raw_loglik(up, mats, counts, 1) - raw_loglik(down, mats, counts, 1)) / (2 * h)
            assert fd == pytest.approx(grads.d_phi[g], rel=1e-4)
        for g in range(2):
            for b in range(3):
                for j in range(3):
                    up = [m.copy() for m in mats]
                    down = [m.copy() for m in mats]
                    up[g][b, j] += h
                    down[g][b, j] -= h
                    fd = (
                        raw_loglik(phi, up, counts, 1) - raw_loglik(phi, down, counts, 1)
                    ) / (2 * h)
                    assert fd == pytest.approx(grads.d_pi[g][b, j], rel=1e-4, abs=1e-6)

    def test_uniform_model_closed_form(self, dna):
        # with all-uniform matrices p(w) = 1/q, so d_pi(g)[i, j] = phi_g * q * #(i, j)
        counts = count_ngrams([random_sequence(dna, 200, 3)], 2)
        model = MtdModel(dna, 2, 1, [0.4, 0.6], [np.full((4, 4), 0.25)] * 2)
        grads = loglik_gradient(model, counts)
        for g in (1, 2):
            table = lag_contingency(counts, g, 1)
            expected = model.phi[g - 1] * 4.0 * table
            assert np.abs(grads.d_pi[g - 1] - expected).max() < 1e-9

    def test_degenerate(self, song):
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        model = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        counts = count_ngrams([Sequence(song, [0, 0, 1])], 2)
        with pytest.raises(DegenerateLikelihood):
            loglik_gradient(model, counts)


class TestStep:
    def test_constant_gradient_is_noop(self):
        v = np.array([0.2, 0.3, 0.5])
        out = berchtold_step(v, np.array([1.0, 1.0, 1.0]), 0.1)
        assert np.array_equal(out, v)

    def test_direct_rule(self):
        out = berchtold_step(np.array([0.2, 0.8]), np.array([1.0, 0.0]), 0.1)
        assert np.abs(out - np.array([0.3, 0.7])).max() < 1e-12

    def test_feasibility_clamp(self):
        out = berchtold_step(np.array([0.95, 0.05]), np.array([1.0, 0.0]), 0.1)
        assert np.abs(out - np.array([1.0, 0.0])).max() < 1e-12

    def test_clamped_by_source_mass(self):
        out = berchtold_step(np.array([0.5, 0.02, 0.48]), np.array([3.0, 1.0, 2.0]), 0.1)
        assert np.abs(out - np.array([0.52, 0.0, 0.48])).max() < 1e-12

    def test_tie_breaking_lowest_index(self):
        out = berchtold_step(np.array([0.25, 0.25, 0.25, 0.25]),
                             np.array([2.0, 2.0, 1.0, 1.0]), 0.1)
        assert np.abs(out - np.array([0.35, 0.25, 0.15, 0.25])).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_stays_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.random(5)
        v /= v.sum()
        out = berchtold_step(v, rng.normal(size=5), float(rng.random()))
        assert out.min() >= 0.0
        assert out.max() <= 1.0
        assert abs(out.sum() - 1.0) < 1e-12


class TestFit:
    def test_matches_bigram_mle(self, dna):
        seq = random_sequence(dna, 500, 5)
        counts = count_ngrams([seq], 1)
        init = init_contingency(counts)
        config = BerchtoldConfig(epsilon=1e-8, min_delta=1e-9, max_iters=5000)
        report = berchtold_fit(counts, init, config)
        table = lag_contingency(counts, 1, 1).astype(float)
        mle = table / table.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = np.where(table > 0, table * np.log(mle), 0.0)
        assert report.final_loglik >= contrib.sum() - 1e-3

    @pytest.mark.parametrize("seed", range(10))
    def test_accepted_trace_strictly_increasing(self, seed):
        model = random_mtd(3, 2, 1, seed=seed + 500)
        seq = sample_sequence(model, 400, seed=seed)
        counts = count_ngrams([seq], 2)
        report = berchtold_fit(counts, init_contingency(counts), BerchtoldConfig())
        diffs = np.diff(report.loglik_trace)
        assert (diffs > 0).all()

    def test_iterates_stay_feasible(self, dna):
        counts = count_ngrams([random_sequence(dna, 300, 6)], 2)
        report = berchtold_fit(counts, init_contingency(counts), BerchtoldConfig())
        model = report.model
        assert model.phi.min() >= 0
        assert abs(model.phi.sum() - 1.0) < 1e-12
        for mat in model.matrices:
            assert mat.min() >= 0
            assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_em_at_least_as_good(self, seed):
        truth = random_mtd(3, 2, 1, seed=seed + 900)
        seq = sample_sequence(truth, 1000, seed=seed + 20)
        counts = count_ngrams([seq], 2)
        init = init_contingency(counts)
        em_report = em_fit(counts, init, EmConfig(epsilon=1e-4))
        b_report = berchtold_fit(counts, init, BerchtoldConfig(epsilon=1e-4))
        assert em_report.final_loglik >= b_report.final_loglik - 0.5

    def test_rejects_degenerate_init(self, song):
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        init = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        counts = count_ngrams([Sequence(song, [0, 0, 1])], 2)
        with pytest.raises(DegenerateLikelihood):
            berchtold_fit(counts, init, BerchtoldConfig())

    def test_trace_starts_at_init_loglik(self, dna):
        counts = count_ngrams([random_sequence(dna, 200, 8)], 2)
        init = init_contingency(counts)
        report = berchtold_fit(counts, init, BerchtoldConfig())
        assert report.loglik_trace[0] == loglik_from_counts(init, counts)
