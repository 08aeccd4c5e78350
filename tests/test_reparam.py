from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refdata
from conftest import random_mtds
from mtdchain import (
    Alphabet,
    MtdModel,
    NotAnMtdPoint,
    ThetaU,
    bic,
    count_ngrams,
    dim_raw_mtd,
    dim_theta_u,
    fit_full_markov,
    from_theta_u,
    full_transition_matrix,
    model_dimension,
    random_full_markov,
    random_mtd,
    sample_sequence,
    to_theta_u,
)


class TestToThetaU:
    def test_pewee_em_block(self, pewee_em):
        theta = to_theta_u(pewee_em, 0)
        for g, (printed, errata) in enumerate(
            zip(refdata.PEWEE_EM_THETA, refdata.PEWEE_EM_THETA_ERRATA)
        ):
            refdata.assert_matches_printed(
                theta.tables[g], printed, errata, 1e-6,
                context=f"em one-block table g={g + 1}",
            )
        assert theta.tables[0][1, 0] == pytest.approx(0.991475, abs=1e-6)

    def test_pewee_berchtold_block(self, pewee_berchtold):
        theta = to_theta_u(pewee_berchtold, 0)
        assert theta.tables[0][0, 0] == pytest.approx(0.754169, abs=1e-6)
        for g, (printed, errata) in enumerate(
            zip(refdata.PEWEE_BERCHTOLD_THETA, refdata.PEWEE_BERCHTOLD_THETA_ERRATA)
        ):
            refdata.assert_matches_printed(
                theta.tables[g], printed, errata, 1e-6,
                context=f"berchtold one-block table g={g + 1}",
            )

    def test_iid_model_rows_all_equal(self, dna):
        row = np.array([0.1, 0.2, 0.3, 0.4])
        p = np.tile(row, (4, 1))
        model = MtdModel(dna, 3, 1, [0.2, 0.3, 0.5], [p, p, p])
        theta = to_theta_u(model, 2)
        for table in theta.tables:
            assert np.abs(table - row).max() < 1e-12

    def test_base_row_shared_exactly(self):
        model = random_mtd(3, 4, 2, seed=3)
        theta = to_theta_u(model, 1)
        ub = ThetaU._u_block(1, 2, 3)
        for table in theta.tables[1:]:
            assert np.array_equal(table[ub], theta.tables[0][ub])
        assert np.array_equal(theta.base_row, theta.tables[0][ub])


def _moebius_from_theta_u(theta):
    """The per-history Moebius reconstruction ``from_theta_u`` used to run.

    Every row is the base row plus the interaction of each within-window
    set of its non-u positions; an interaction is the alternating sum of
    the stored rows over the subsets of its positions.  Kept as an
    independent oracle for the window-chain sum.
    """
    q, m, l, u = theta.alphabet.size, theta.order, theta.lag_order, theta.u
    cache = {}

    def stored_row(positions, letters):
        if not positions:
            return theta.base_row
        h = max(1, positions[-1] - l + 1)  # first window holding every position
        block = 0
        for p in range(h + l - 1, h - 1, -1):
            block = block * q + (letters[positions.index(p)] if p in positions else u)
        return theta.tables[h - 1][block]

    def interaction(positions, letters):
        key = (positions, letters)
        if key not in cache:
            k = len(positions)
            cache[key] = sum(
                (-1.0) ** (k - size) * stored_row(
                    tuple(positions[i] for i in keep), tuple(letters[i] for i in keep)
                )
                for size in range(k + 1)
                for keep in combinations(range(k), size)
            )
        return cache[key]

    table = np.tile(theta.base_row, (q**m, 1))
    for h in range(q**m):
        letters = [(h // q ** (p - 1)) % q for p in range(1, m + 1)]
        non_u = [p for p in range(1, m + 1) if letters[p - 1] != u]
        sets = {
            positions
            for g in range(1, m - l + 2)
            for size in range(1, l + 1)
            for positions in combinations([p for p in non_u if g <= p < g + l], size)
        }
        for positions in sets:
            table[h] = table[h] + interaction(
                positions, tuple(letters[p - 1] for p in positions)
            )
    table = np.clip(table, 0.0, 1.0)
    return table / table.sum(axis=1, keepdims=True)


def _gather_from_theta_u(theta):
    """``from_theta_u``'s table by one (q**m, q) gather per window and overlap (oracle)."""
    q = theta.alphabet.size
    m, l, u = theta.order, theta.lag_order, theta.u
    histories = np.arange(q**m)
    shared = q ** (l - 1)
    table = np.zeros((q**m, q))
    for g, t in enumerate(theta.tables, start=1):
        blocks = (histories // q ** (g - 1)) % q**l
        table += t[blocks]
        if g > 1:
            table -= t[u * shared + blocks % shared]
    table = np.clip(table, 0.0, 1.0)
    return table / table.sum(axis=1, keepdims=True)


def _two_letter_l2_tables(overlap_row):
    """q=2, m=3, l=2, u=0 tables; the lag-2 row at block 1 should equal lag-1 block 2."""
    base = [1.0, 0.0]
    t1 = np.array([base, [0.0, 1.0], [0.5, 0.5], [0.3, 0.7]])
    t2 = np.array([base, overlap_row, [0.0, 1.0], [0.2, 0.8]])
    return [t1, t2]


class TestFromThetaU:
    @pytest.mark.parametrize(
        "q, m, l, u",
        [(2, 1, 1, 1), (3, 3, 1, 2), (2, 4, 2, 0), (3, 3, 2, 1), (2, 5, 3, 1),
         (3, 4, 3, 0), (2, 4, 4, 1), (4, 4, 2, 3), (2, 6, 2, 1)],
    )
    def test_matches_moebius_oracle(self, q, m, l, u):
        theta = to_theta_u(random_mtd(q, m, l, seed=q * 100 + m * 10 + l), u)
        assert np.abs(from_theta_u(theta).matrices[0] - _moebius_from_theta_u(theta)).max() < 1e-13

    @settings(max_examples=60)
    @given(
        q=st.integers(2, 4),
        m=st.integers(1, 5),
        data=st.data(),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_property(self, q, m, data, seed):
        l = data.draw(st.integers(1, m), label="l")
        u = data.draw(st.integers(0, q - 1), label="u")
        model = random_mtd(q, m, l, seed=seed)
        back = from_theta_u(to_theta_u(model, u))
        assert np.abs(back.matrices[0] - full_transition_matrix(model).matrices[0]).max() < 1e-12

    @settings(max_examples=80)
    @given(model=random_mtds(variants=("general",)), data=st.data())
    def test_matches_gather_oracle(self, model, data):
        u = data.draw(st.integers(0, model.alphabet.size - 1), label="u")
        theta = to_theta_u(model, u)
        assert np.array_equal(from_theta_u(theta).matrices[0], _gather_from_theta_u(theta))
        # what the builders adopt unchecked passes the constructors' checks
        a, m = model.alphabet, model.order
        assert ThetaU(a, m, model.lag_order, u, theta.tables) == theta
        counts = count_ngrams([sample_sequence(model, 4 * m, seed=1)], m)
        for dense in (full_transition_matrix(model), fit_full_markov(counts), from_theta_u(theta)):
            assert MtdModel(a, m, m, [1.0], dense.matrices) == dense

    def test_overlap_mismatch_rejected(self):
        ab = Alphabet(("a", "b"))
        ThetaU(ab, 3, 2, 0, _two_letter_l2_tables([0.5, 0.5]))
        # same all-u row in both tables, but the shared position-2 row differs
        with pytest.raises(ValueError):
            ThetaU(ab, 3, 2, 0, _two_letter_l2_tables([0.4, 0.6]))

    def test_infeasible_point_rejected_l2(self):
        theta = ThetaU(Alphabet(("a", "b")), 3, 2, 0, _two_letter_l2_tables([0.5, 0.5]))
        # history "bab": t1[1] + t2[2] - t2[0] = [0, 1] + [0, 1] - [1, 0]
        with pytest.raises(NotAnMtdPoint):
            from_theta_u(theta)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_l1(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        u = int(rng.integers(0, q))
        model = random_mtd(q, m, 1, seed=seed + 40)
        dense = full_transition_matrix(model)
        back = from_theta_u(to_theta_u(model, u))
        assert np.abs(back.matrices[0] - dense.matrices[0]).max() < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_higher_lag(self, seed):
        rng = np.random.default_rng(seed + 1)
        q = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        l = int(rng.integers(2, m + 1))
        u = int(rng.integers(0, q))
        model = random_mtd(q, m, l, seed=seed + 80)
        dense = full_transition_matrix(model)
        back = from_theta_u(to_theta_u(model, u))
        assert np.abs(back.matrices[0] - dense.matrices[0]).max() < 1e-12

    def test_equivalent_pair(self, equiv_model_a, equiv_model_b):
        ta = to_theta_u(equiv_model_a, 0)
        tb = to_theta_u(equiv_model_b, 0)
        for x, y in zip(ta.tables, tb.tables):
            assert np.abs(x - y).max() < 1e-12
        back = from_theta_u(ta)
        assert np.abs(back.matrices[0] - refdata.EQUIV_TABLE).max() < 0.005

    def test_order_one_identity(self, dna):
        rng = np.random.default_rng(9)
        mat = rng.random((4, 4))
        mat /= mat.sum(axis=1, keepdims=True)
        model = MtdModel(dna, 1, 1, [1.0], [mat])
        theta = to_theta_u(model, 0)
        assert np.abs(theta.tables[0] - mat).max() < 1e-15
        assert np.abs(from_theta_u(theta).matrices[0] - mat).max() < 1e-12

    def test_infeasible_point_rejected(self):
        ab = Alphabet(("a", "b"))
        base = np.array([1.0, 0.0])
        t1 = np.array([base, [0.0, 1.0]])
        t2 = np.array([base, [0.0, 1.0]])
        theta = ThetaU(ab, 2, 1, 0, [t1, t2])
        # history "bb": 0 + 0 - 1 = -1 for the first letter
        with pytest.raises(NotAnMtdPoint):
            from_theta_u(theta)

    def test_reconstructed_rows_sum_to_one(self):
        # holds algebraically for any feasible table set, not just MTD images
        rng = np.random.default_rng(21)
        ab = Alphabet(("a", "b", "c"))
        base = rng.dirichlet(np.ones(3))
        tables = []
        for _ in range(2):
            t = rng.dirichlet(np.ones(3), size=3)
            t[0] = base
            tables.append(t)
        theta = ThetaU(ab, 2, 1, 0, tables)
        dense = from_theta_u(theta)
        assert np.abs(dense.matrices[0].sum(axis=1) - 1.0).max() < 1e-12

    def test_base_row_mismatch_rejected(self):
        ab = Alphabet(("a", "b"))
        t1 = np.array([[0.5, 0.5], [0.2, 0.8]])
        t2 = np.array([[0.6, 0.4], [0.2, 0.8]])
        with pytest.raises(ValueError):
            ThetaU(ab, 2, 1, 0, [t1, t2])


class TestIdentifiability:
    @pytest.mark.parametrize("seed", range(10))
    def test_separation(self, seed):
        a = random_mtd(3, 2, 1, seed=seed)
        b = random_mtd(3, 2, 1, seed=seed + 10_000)
        gap = np.abs(
            full_transition_matrix(a).matrices[0] - full_transition_matrix(b).matrices[0]
        ).max()
        if gap <= 1e-6:
            pytest.skip("expansion collision")
        ta = to_theta_u(a, 0)
        tb = to_theta_u(b, 0)
        theta_gap = max(np.abs(x - y).max() for x, y in zip(ta.tables, tb.tables))
        assert theta_gap > 1e-9

    def test_raw_parameters_not_identifiable(self, equiv_model_a, equiv_model_b):
        assert np.abs(equiv_model_a.phi - equiv_model_b.phi).max() > 1e-3
        ta = to_theta_u(equiv_model_a, 0)
        tb = to_theta_u(equiv_model_b, 0)
        assert max(np.abs(x - y).max() for x, y in zip(ta.tables, tb.tables)) < 1e-12


class TestDimensions:
    def test_printed_table(self):
        for m, full, raw1, theta1, raw2, theta2 in refdata.DIMENSION_TABLE:
            assert 4**m * (4 - 1) == full
            assert dim_theta_u(m, m, 4) == dim_raw_mtd(m, m, 4) == full
            assert dim_raw_mtd(m, 1, 4) == raw1
            assert dim_theta_u(m, 1, 4) == theta1
            if raw2 is not None:
                assert dim_raw_mtd(m, 2, 4) == raw2
                assert dim_theta_u(m, 2, 4) == theta2

    def test_trivial_cases(self):
        assert dim_theta_u(1, 1, 2) == dim_raw_mtd(1, 1, 2) == 2
        for q in (2, 3, 4):
            for m in (1, 2, 3):
                # at l = m both conventions count the free parameters of the dense model
                assert dim_theta_u(m, m, q) == dim_raw_mtd(m, m, q) == q**m * (q - 1)
                dense = random_full_markov(q, m, seed=q * 10 + m)
                assert model_dimension(dense) == model_dimension(dense, "raw") == q**m * (q - 1)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_gap_between_conventions(self, q, m):
        assert dim_theta_u(m, 1, q) == (q - 1) * (1 + m * (q - 1))
        assert dim_raw_mtd(m, 1, q) - dim_theta_u(m, 1, q) == q * (m - 1)

    def test_model_dimension_dispatch(self, dna):
        general = random_mtd(4, 3, 1, seed=0, alphabet=dna)
        assert model_dimension(general) == dim_theta_u(3, 1, 4)
        assert model_dimension(general, "raw") == dim_raw_mtd(3, 1, 4)
        shared = random_mtd(4, 3, 1, variant="single_matrix", seed=1, alphabet=dna)
        assert model_dimension(shared) == 2 + 4 * 3
        dense = full_transition_matrix(general)
        assert model_dimension(dense) == 4**3 * (4 - 1)
        theta = to_theta_u(general, 0)
        assert model_dimension(theta) == dim_theta_u(3, 1, 4)
        assert model_dimension(theta, "raw") == dim_raw_mtd(3, 1, 4)


class TestBic:
    def test_direct_arithmetic(self):
        assert bic(-100.0, 5, 1000) == pytest.approx(200 + 5 * np.log(1000), abs=1e-9)
        assert bic(-100.0, 5, 1000) == pytest.approx(234.5388, abs=1e-3)

    def test_zero_dimension(self):
        assert bic(-42.0, 0, 10) == 84.0

    def test_minus_inf_sentinel(self):
        assert bic(float("-inf"), 3, 100) == float("inf")

    def test_requires_terms(self):
        with pytest.raises(ValueError):
            bic(-1.0, 1, 0)
