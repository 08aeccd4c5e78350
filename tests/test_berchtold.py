from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdchain.berchtold as berchtold_module
import mtdchain.em as em_module
from conftest import lag_table, random_sequence
from mtdchain import (
    DegenerateLikelihood,
    EmConfig,
    MtdModel,
    Sequence,
    berchtold_fit,
    berchtold_step,
    count_ngrams,
    em_fit,
    init_contingency,
    loglik_gradient,
    loglik_from_counts,
    random_mtd,
    sample_sequence,
    word_to_index,
)
from mtdchain.berchtold import _DELTA0, _DELTA_DECAY, _MIN_DELTA
from mtdchain.model import _cell_index


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


# Reference Berchtold fit: the per-row steps, the per-iteration cell index and
# the model built and validated at every iteration that the shared fit kernel
# replaced.  berchtold_fit must reproduce its iterates bit for bit.


def oracle_loglik_gradient(model, counts):
    ws = counts.word_indices()
    N = counts.values().astype(np.float64)
    q = model.alphabet.size
    cells = _cell_index(ws, q, model.lag_order, model.n_components)
    if model.variant == "single_matrix":
        cells %= q ** (model.lag_order + 1)
    flat = np.concatenate([mat.ravel() for mat in model.matrices])
    pi_vals = flat[cells]
    p = model.phi @ pi_vals
    if (p <= 0.0).any():
        raise DegenerateLikelihood("oracle: observed word with zero probability")
    ratio = N / p
    d_phi = pi_vals @ ratio
    d_pi = np.bincount(cells.ravel(), weights=(model.phi[:, None] * ratio).ravel(), minlength=flat.size)
    return d_phi, list(d_pi.reshape(np.shape(model.matrices)))


def oracle_step(vector, gradient, delta):
    a = int(np.argmax(gradient))
    b = int(np.argmin(gradient))
    out = np.array(vector, dtype=np.float64)
    if a == b:
        return out
    move = min(float(delta), float(out[b]), 1.0 - float(out[a]))
    out[b] -= move
    out[a] += move
    return np.clip(out, 0.0, 1.0)


def oracle_berchtold_fit(counts, init, config):
    """Returns ``(trace, model, converged)``."""
    model = init
    current = loglik_from_counts(model, counts)
    if current == float("-inf"):
        raise DegenerateLikelihood("oracle: initial model assigns zero probability")
    trace = [current]
    delta = _DELTA0
    converged = False
    for _ in range(config.max_iters):
        d_phi, d_pi = oracle_loglik_gradient(model, counts)
        phi = oracle_step(model.phi, d_phi, delta)
        mats = [
            np.stack([oracle_step(row, d_pi[i][r], delta) for r, row in enumerate(mat)])
            for i, mat in enumerate(model.matrices)
        ]
        candidate = MtdModel(
            model.alphabet, model.order, model.lag_order, phi, mats, variant=model.variant
        )
        cand_ll = loglik_from_counts(candidate, counts)
        if cand_ll > current:
            increase = cand_ll - current
            model, current = candidate, cand_ll
            trace.append(current)
            if increase < config.epsilon:
                converged = True
                break
        else:
            delta *= _DELTA_DECAY
            if delta < _MIN_DELTA:
                converged = True
                break
    return np.asarray(trace), model, converged


def assert_matches_oracle(counts, init, config):
    report = berchtold_fit(counts, init, config)
    trace, model, converged = oracle_berchtold_fit(counts, init, config)
    assert np.array_equal(report.loglik_trace, trace)
    assert report.model == model
    assert report.converged == converged
    assert report.iterations == len(trace) - 1
    return report


class TestMatchesOracle:
    @pytest.mark.parametrize("l,variant", [(1, "general"), (3, "general"), (1, "single_matrix")])
    def test_bit_identical(self, l, variant):
        truth = random_mtd(4, 6, l, variant=variant, seed=l + 60)
        counts = count_ngrams([sample_sequence(truth, 3000, seed=l)], 6)
        for init in (init_contingency(counts, l, variant), random_mtd(4, 6, l, variant=variant, seed=7)):
            report = assert_matches_oracle(counts, init, EmConfig(max_iters=120))
            assert report.iterations > 10

    @pytest.mark.parametrize("l,variant", [(1, "general"), (3, "general"), (1, "single_matrix")])
    def test_gradient_matches_oracle(self, l, variant):
        truth = random_mtd(4, 6, l, variant=variant, seed=l + 60)
        counts = count_ngrams([sample_sequence(truth, 3000, seed=l)], 6)
        models = (init_contingency(counts, l, variant), random_mtd(4, 6, l, variant=variant, seed=7))
        for model in models:
            d_phi, d_pi = loglik_gradient(model, counts)
            o_phi, o_pi = oracle_loglik_gradient(model, counts)
            np.testing.assert_allclose(d_phi, o_phi, rtol=1e-12, atol=0)
            np.testing.assert_allclose(d_pi, np.asarray(o_pi), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("l,variant", [(1, "general"), (3, "general"), (1, "single_matrix")])
    def test_gathers_each_iterate_once(self, l, variant):
        truth = random_mtd(4, 6, l, variant=variant, seed=l + 60)
        counts = count_ngrams([sample_sequence(truth, 3000, seed=l)], 6)
        init = random_mtd(4, 6, l, variant=variant, seed=7)
        config = EmConfig(max_iters=120)
        calls = {"gather": [], "feasible": [], "gradient": [], "cells": []}
        kernel = em_module._Kernel

        def spy(name, fn):
            def wrapper(*args):
                out = fn(*args)
                calls[name].append((args, out))
                return out

            return wrapper

        with (
            mock.patch.object(kernel, "gather", spy("gather", kernel.gather)),
            mock.patch.object(kernel, "feasible", spy("feasible", kernel.feasible)),
            mock.patch.object(kernel, "gradient", spy("gradient", kernel.gradient)),
            mock.patch.object(em_module, "_cell_index", spy("cells", em_module._cell_index)),
        ):
            report = berchtold_fit(counts, init, config)
        assert len(calls["cells"]) == 1
        # one gather for the start, then one per feasible candidate
        gathered = [point for _, point in calls["gather"]]
        assert len(gathered) == 1 + sum(ok for _, ok in calls["feasible"])
        # each gradient reads the gather of the start or of an accepted candidate
        points = [args[1] for args, _ in calls["gradient"]]
        assert all(any(point is g for g in gathered) for point in points)
        assert [point.loglik for point in points] == list(report.loglik_trace[: len(points)])
        assert report.iterations > 10
        trace, model, converged = oracle_berchtold_fit(counts, init, config)
        assert np.array_equal(report.loglik_trace, trace)
        assert report.model == model
        assert report.converged == converged

    @settings(max_examples=30)
    @given(
        q=st.integers(2, 4),
        m=st.integers(1, 4),
        l=st.integers(1, 4),
        single=st.booleans(),
        seed=st.integers(0, 2**16),
        max_iters=st.integers(1, 80),
    )
    def test_property(self, q, m, l, single, seed, max_iters):
        l = 1 if single else min(l, m)
        variant = "single_matrix" if single else "general"
        truth = random_mtd(q, m, l, variant=variant, seed=seed)
        counts = count_ngrams([sample_sequence(truth, 600, seed=seed + 1)], m)
        init = random_mtd(q, m, l, variant=variant, seed=seed + 2)
        assert_matches_oracle(counts, init, EmConfig(epsilon=1e-6, max_iters=max_iters))


class TestGradient:
    def test_single_component_phi_gradient(self, dna):
        counts = count_ngrams([random_sequence(dna, 90, 0)], 2)
        mat = np.full((16, 4), 0.25)
        model = MtdModel(dna, 2, 2, [1.0], [mat])
        d_phi, _ = loglik_gradient(model, counts)
        assert d_phi[0] == pytest.approx(counts.total, abs=1e-9)

    # explicit ids keep the general l = 1 cases at their earlier ids 0..4
    @pytest.mark.parametrize(
        "seed,l,variant",
        [pytest.param(seed, 1, "general", id=str(seed)) for seed in range(5)]
        + [pytest.param(seed, 1, "single_matrix", id=f"single-{seed}") for seed in range(3)]
        + [pytest.param(seed, 2, "general", id=f"l2-{seed}") for seed in range(3)],
    )
    def test_finite_differences(self, seed, l, variant):
        # order l + 1, so every variant has two lags
        model = random_mtd(3, l + 1, l, variant=variant, seed=seed)
        counts = count_ngrams([random_sequence(model.alphabet, 300, seed + 10)], l + 1)
        d_phi, d_pi = loglik_gradient(model, counts)
        h = 1e-6
        phi = model.phi.copy()
        mats = [m.copy() for m in model.matrices]
        for g in range(len(phi)):
            up, down = phi.copy(), phi.copy()
            up[g] += h
            down[g] -= h
            fd = (raw_loglik(up, mats, counts, l) - raw_loglik(down, mats, counts, l)) / (2 * h)
            assert fd == pytest.approx(d_phi[g], rel=1e-4)
        for i, mat in enumerate(mats):
            for b, j in np.ndindex(mat.shape):
                up = [m.copy() for m in mats]
                down = [m.copy() for m in mats]
                up[i][b, j] += h
                down[i][b, j] -= h
                fd = (raw_loglik(phi, up, counts, l) - raw_loglik(phi, down, counts, l)) / (2 * h)
                assert fd == pytest.approx(d_pi[i][b, j], rel=1e-4, abs=1e-6)

    def test_uniform_model_closed_form(self, dna):
        # with all-uniform matrices p(w) = 1/q, so d_pi(g)[i, j] = phi_g * q * #(i, j)
        seq = random_sequence(dna, 200, 3)
        counts = count_ngrams([seq], 2)
        model = MtdModel(dna, 2, 1, [0.4, 0.6], [np.full((4, 4), 0.25)] * 2)
        _, d_pi = loglik_gradient(model, counts)
        for g in (1, 2):
            table = lag_table(seq, 2, g)
            expected = model.phi[g - 1] * 4.0 * table
            assert np.abs(d_pi[g - 1] - expected).max() < 1e-9

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

    def test_rows_match_one_row_calls(self):
        rng = np.random.default_rng(5)
        vectors = rng.random((40, 4))
        vectors /= vectors.sum(axis=1, keepdims=True)
        gradients = rng.normal(size=(40, 4))
        vectors[0], gradients[0] = [0.25] * 4, [2.0, 2.0, 1.0, 1.0]  # ties
        vectors[1], gradients[1] = [0.2, 0.3, 0.5, 0.0], [1.0] * 4  # a == b
        vectors[2], gradients[2] = [0.5, 0.02, 0.38, 0.1], [3.0, 1.0, 2.0, 2.0]  # source clamp
        vectors[3], gradients[3] = [0.95, 0.05, 0.0, 0.0], [1.0, 0.5, 0.5, 0.5]  # both clamps
        vectors[4], gradients[4] = [0.9, 0.0, 0.0, 0.1], [3.0, 0.0, 1.0, 2.0]  # empty source
        # off the simplex: the target clamp alone, and a == b left unclipped
        vectors[5], gradients[5] = [0.97, 0.5, 0.2, 0.1], [1.0, 0.0, 0.5, 0.5]
        vectors[6], gradients[6] = [1.5, -0.5, 0.0, 0.0], [1.0] * 4
        out = berchtold_step(vectors, gradients, 0.1)
        assert out.shape == vectors.shape
        for row, vector, gradient in zip(out, vectors, gradients):
            assert np.array_equal(row, berchtold_step(vector, gradient, 0.1))
            assert np.array_equal(row, oracle_step(vector, gradient, 0.1))
        assert np.array_equal(out[[1, 4, 6]], vectors[[1, 4, 6]])
        assert (out[2, 1], out[3, 0], out[5, 0]) == (0.0, 1.0, 1.0)

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
        config = EmConfig(epsilon=1e-8, max_iters=5000)
        report = berchtold_fit(counts, init, config)
        table = lag_table(seq, 1, 1).astype(float)
        mle = table / table.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = np.where(table > 0, table * np.log(mle), 0.0)
        assert report.final_loglik >= contrib.sum() - 1e-3

    @pytest.mark.parametrize("seed", range(10))
    def test_accepted_trace_strictly_increasing(self, seed):
        model = random_mtd(3, 2, 1, seed=seed + 500)
        seq = sample_sequence(model, 400, seed=seed)
        counts = count_ngrams([seq], 2)
        report = berchtold_fit(counts, init_contingency(counts), EmConfig())
        diffs = np.diff(report.loglik_trace)
        assert (diffs > 0).all()

    def test_iterates_stay_feasible(self, dna):
        counts = count_ngrams([random_sequence(dna, 300, 6)], 2)
        report = berchtold_fit(counts, init_contingency(counts), EmConfig())
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
        b_report = berchtold_fit(counts, init, EmConfig(epsilon=1e-4))
        assert em_report.final_loglik >= b_report.final_loglik - 0.5

    def test_rejects_degenerate_init(self, song):
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        init = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        counts = count_ngrams([Sequence(song, [0, 0, 1])], 2)
        with pytest.raises(DegenerateLikelihood) as err:
            berchtold_fit(counts, init, EmConfig())
        assert err.value.word_index == word_to_index([0, 0, 1], 3)
        assert err.value.word == "112"

    def test_delta_floor_stop(self, monkeypatch):
        # epsilon lies below every gain this fit makes, so only the delta floor stops it
        truth = random_mtd(3, 2, 1, seed=1)
        counts = count_ngrams([sample_sequence(truth, 300, seed=2)], 2)
        config = EmConfig(epsilon=1e-9, max_iters=1000)
        steps = []
        step = berchtold_module.berchtold_step

        def counted(*args):
            steps.append(1)
            return step(*args)

        monkeypatch.setattr(berchtold_module, "berchtold_step", counted)
        report = berchtold_fit(counts, init_contingency(counts), config)
        gains = np.diff(report.loglik_trace)
        assert report.converged is True
        assert (gains > 0).all() and gains[-1] >= config.epsilon
        assert report.iterations < config.max_iters
        # two steps per attempt; the reverted attempts are those that took delta below its floor
        reverts = next(k for k in range(1, 100) if _DELTA0 * _DELTA_DECAY**k < _MIN_DELTA)
        assert len(steps) == 2 * (report.iterations + reverts)
        trace, model, converged = oracle_berchtold_fit(counts, init_contingency(counts), config)
        assert np.array_equal(report.loglik_trace, trace)
        assert (report.model, report.converged) == (model, converged)

    def test_budget_counts_reverted_attempts(self):
        truth = random_mtd(4, 3, 1, seed=0)
        counts = count_ngrams([sample_sequence(truth, 1000, seed=1)], 3)
        init = init_contingency(counts)
        longer = berchtold_fit(counts, init, EmConfig(epsilon=1e-9, max_iters=12))
        accepted = []
        for k in range(1, 7):
            report = berchtold_fit(counts, init, EmConfig(epsilon=1e-9, max_iters=k))
            trace = report.loglik_trace
            assert np.array_equal(trace, longer.loglik_trace[: len(trace)])
            assert report.final_loglik == loglik_from_counts(report.model, counts)
            assert report.converged is False
            accepted.append(report.iterations)
        # one more attempt accepts at most one more candidate, and a reverted one spends budget
        assert all(b - a in (0, 1) for a, b in zip([0, *accepted], accepted))
        assert accepted[-1] < 6

    def test_trace_starts_at_init_loglik(self, dna):
        counts = count_ngrams([random_sequence(dna, 200, 8)], 2)
        init = init_contingency(counts)
        report = berchtold_fit(counts, init, EmConfig())
        assert report.loglik_trace[0] == loglik_from_counts(init, counts)
