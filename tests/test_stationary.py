import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mtds
from mtdchain import (
    Alphabet,
    AlphabetMismatch,
    MtdModel,
    NonConvergentStationary,
    WordDistribution,
    full_transition_matrix,
    random_full_markov,
    random_mtd,
    stationary_histories,
    tv_distance,
    word_distribution,
)
from mtdchain import stationary
from mtdchain.model import history_rows


@pytest.fixture
def ab():
    return Alphabet(("a", "b"))


class TestStationaryHistories:
    def test_two_state_closed_form(self, ab):
        a, b = 0.3, 0.8
        chain = MtdModel(ab, 1, 1, [1.0], [[[1 - a, a], [b, 1 - b]]])
        mu = stationary_histories(chain)
        expected = np.array([b, a]) / (a + b)
        assert np.abs(mu - expected).max() < 1e-10

    def test_matches_eigenvector(self, dna):
        model = random_mtd(4, 2, 1, seed=5)
        table = full_transition_matrix(model).matrices[0]
        mu = stationary_histories(model)
        # one-step invariance of the history chain
        nxt = np.zeros(16)
        for h in range(16):
            for j in range(4):
                nxt[(h % 4) * 4 + j] += mu[h] * table[h, j]
        assert np.abs(nxt - mu).max() < 1e-10

    def test_periodic_chain_falls_back_to_lazy_chain(self):
        # the plain iteration from uniform oscillates forever; the lazy chain converges
        mu = stationary_histories(_bipartite_chain(1))
        assert np.abs(mu - [0.5, 0.25, 0.25]).max() < 1e-12

    def test_periodic_higher_order_chain(self):
        mu = stationary_histories(_bipartite_chain(2))
        # histories x_{t-2} * 3 + x_{t-1}: ab, ac, ba and ca
        expected = np.zeros(9)
        expected[[1, 2, 3, 6]] = 0.25
        assert np.abs(mu - expected).max() < 1e-12

    def test_flat_sweeps_of_an_aperiodic_chain_keep_the_plain_iteration(self):
        # a -> b -> c -> a or b has cycles of 3 and 2, so no period, yet the L1
        # change fails to shrink on 21 of its 80 sweeps
        abc = Alphabet(("a", "b", "c"))
        table = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
        chain = MtdModel(abc, 1, 1, [1.0], [table])
        assert np.array_equal(stationary_histories(chain), _bincount_stationary(chain))

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(stationary, "_MAX_SWEEPS", 5)
        with pytest.raises(NonConvergentStationary, match="in 5 sweeps"):
            stationary_histories(_bipartite_chain(1))


def _bipartite_chain(order):
    """a moves to b or c, each back to a: period 2, stationary law (1/2, 1/4, 1/4).

    At order 2 the chain reads its lag-1 letter alone.
    """
    abc = Alphabet(("a", "b", "c"))
    table = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    phi, mats = ([1.0], [table]) if order == 1 else ([1.0, 0.0], [table, np.full((3, 3), 1 / 3)])
    return MtdModel(abc, order, 1, phi, mats)


def _bincount_stationary(model) -> np.ndarray:
    """The power iteration as one bincount over each entry's successor history (oracle)."""
    q = model.alphabet.size
    m = model.order
    table = full_transition_matrix(model).matrices[0]
    n_hist = q**m
    # successor state of history h after letter j: (h mod q**(m-1)) * q + j
    targets = ((np.arange(n_hist) % q ** (m - 1))[:, None] * q + np.arange(q)[None, :]).ravel()
    mu = np.full(n_hist, 1.0 / n_hist)
    for _ in range(10**5):
        nxt = np.bincount(targets, weights=(mu[:, None] * table).ravel(), minlength=n_hist)
        if np.abs(nxt - mu).sum() <= 1e-12:
            return nxt
        mu = nxt
    raise AssertionError("oracle power iteration did not converge")


@pytest.mark.parametrize("q,m", [(2, 5), (3, 3), (4, 4), (12, 2)])
@pytest.mark.parametrize("kind", ["mtd-l1", "mtd-l2", "dense"])
def test_stationary_matches_bincount_oracle(q, m, kind):
    if kind == "dense":
        model = random_full_markov(q, m, seed=q + m)
    else:
        model = random_mtd(q, m, int(kind[-1]), seed=q + m)
    assert np.array_equal(stationary_histories(model), _bincount_stationary(model))


def _gather_word_distribution(model, k) -> np.ndarray:
    """Word probabilities by a ``bincount`` marginal up to order m and row gathers above (oracle)."""
    q, m = model.alphabet.size, model.order
    mu = stationary_histories(model)
    if k <= m:
        return np.bincount(np.arange(q**m) % q**k, weights=mu, minlength=q**k)
    table = history_rows(model, np.arange(q**m))
    probs = mu
    for j in range(m, k):
        probs = (probs[:, None] * table[np.arange(q**j) % q**m]).ravel()
    return probs


@settings(max_examples=60)
@given(model=random_mtds(), data=st.data())
def test_word_distribution_matches_gather_oracle(model, data):
    k = data.draw(st.integers(1, model.order + 2), label="k")
    expected = _gather_word_distribution(model, k)
    assert np.array_equal(word_distribution(model, k).probs, expected)


class TestWordDistribution:
    def test_iid_uniform(self, dna):
        model = MtdModel(dna, 2, 1, [0.5, 0.5], [np.full((4, 4), 0.25)] * 2)
        for k in (1, 2, 3):
            dist = word_distribution(model, k)
            assert np.abs(dist.probs - 4.0**-k).max() < 1e-12

    def test_k1_two_state(self, ab):
        a, b = 0.25, 0.4
        chain = MtdModel(ab, 1, 1, [1.0], [[[1 - a, a], [b, 1 - b]]])
        dist = word_distribution(chain, 1)
        assert np.abs(dist.probs - np.array([b, a]) / (a + b)).max() < 1e-10

    def test_marginalization_consistency(self, dna):
        model = random_mtd(4, 2, 1, seed=8)
        d3 = word_distribution(model, 3)
        d2 = word_distribution(model, 2)
        # dropping the most recent letter: sum over the last base-q digit
        marg = d3.probs.reshape(16, 4).sum(axis=1)
        assert np.abs(marg - d2.probs).max() < 1e-9

    def test_marginalization_from_below(self, dna):
        model = random_mtd(4, 3, 2, seed=9)
        d2 = word_distribution(model, 2)
        d1 = word_distribution(model, 1)
        assert np.abs(d2.probs.reshape(4, 4).sum(axis=1) - d1.probs).max() < 1e-9

    def test_invalid_distribution_rejected(self, ab):
        with pytest.raises(ValueError, match=r"^word distribution sums to 0\.8$"):
            WordDistribution(ab, 1, np.array([0.4, 0.4]))
        # 2**(10**12) is never taken: the length is checked first
        with pytest.raises(ValueError, match=r"expected 2\*\*1000000000000 probabilities"):
            WordDistribution(ab, 10**12, np.array([0.5, 0.5]))


class TestTvDistance:
    def test_zero_on_self(self, dna):
        dist = word_distribution(random_mtd(4, 2, 1, seed=1), 2)
        assert tv_distance(dist, dist) == 0.0

    def test_disjoint_point_masses(self, ab):
        p = WordDistribution(ab, 1, np.array([1.0, 0.0]))
        q = WordDistribution(ab, 1, np.array([0.0, 1.0]))
        assert tv_distance(p, q) == 2.0

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        ab = Alphabet(("a", "b"))
        p = WordDistribution(ab, 2, rng.dirichlet(np.ones(4)))
        q = WordDistribution(ab, 2, rng.dirichlet(np.ones(4)))
        assert tv_distance(p, q) == tv_distance(q, p)
        assert 0.0 <= tv_distance(p, q) <= 2.0

    def test_shape_mismatch(self, ab, dna):
        p = WordDistribution(ab, 1, np.array([0.5, 0.5]))
        q = WordDistribution(ab, 2, np.full(4, 0.25))
        with pytest.raises(AlphabetMismatch):
            tv_distance(p, q)
