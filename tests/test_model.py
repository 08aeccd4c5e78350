import hashlib
from bisect import bisect_right
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdchain.model
import refdata
from conftest import SYMBOL_SETS, build_model, random_mtds, random_sequence
from mtdchain import (
    DNA,
    Alphabet,
    InvalidSymbol,
    ModelTooLarge,
    MtdModel,
    NGramCounts,
    Sequence,
    ShapeMismatch,
    ThetaU,
    count_ngrams,
    fit_full_markov,
    from_theta_u,
    full_transition_matrix,
    index_to_word,
    random_full_markov,
    random_mtd,
    read_sequences,
    sample_sequence,
    sequence_loglik,
    spell_word,
    to_theta_u,
    transition_prob,
    word_to_index,
)
from mtdchain.model import _SAMPLE_PRECOMPUTE_LIMIT, history_rows
from mtdchain.reparam import dim_raw_mtd, dim_theta_u, model_dimension


def _validate_once_cases(tmp_path):
    """Each producer that adopts what it builds, with its inputs built beforehand."""
    model = random_mtd(3, 3, 2, seed=5)
    seq = sample_sequence(model, 300, seed=6)
    counts = count_ngrams([seq], 3)
    theta = to_theta_u(model, 1)
    path = tmp_path / "corpus.txt"
    path.write_text("012x21\n" * 5)
    return {
        "count_ngrams": (NGramCounts, lambda: count_ngrams([seq], 4)),
        "read_sequences": (Sequence, lambda: read_sequences(path, alphabet=model.alphabet)),
        "sample_sequence": (Sequence, lambda: sample_sequence(model, 300, seed=6)),
        "full_transition_matrix": (MtdModel, lambda: full_transition_matrix(model)),
        "fit_full_markov": (MtdModel, lambda: fit_full_markov(counts)),
        "from_theta_u": (MtdModel, lambda: from_theta_u(theta)),
        "to_theta_u": (ThetaU, lambda: to_theta_u(model, 2)),
    }


@pytest.mark.parametrize("producer", ["count_ngrams", "read_sequences", "sample_sequence",
                                      "full_transition_matrix", "fit_full_markov", "from_theta_u",
                                      "to_theta_u"])
def test_producers_never_enter_the_validating_constructor(producer, tmp_path, monkeypatch):
    kind, produce = _validate_once_cases(tmp_path)[producer]
    validating = "__post_init__" if kind is Sequence else "__init__"
    entered, construct = [], getattr(kind, validating)

    def counted(self, *args, **kwargs):
        entered.append(1)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(kind, validating, counted)
    result = produce()
    values = result if isinstance(result, list) else [result]
    assert len(values) >= 1 and all(type(v) is kind for v in values)
    assert entered == []


class TestAlphabet:
    def test_basic(self, dna):
        assert dna.size == 4
        assert dna.index("g") == 2
        assert list(dna.decode("cat")) == [1, 0, 3]

    def test_decode_and_index_share_one_table(self, dna):
        # a case variant reads as its symbol; a foreign letter decodes to -1
        assert dna.decode("CaTN").tolist() == [1, 0, 3, -1]
        assert dna.index("G") == 2
        song = Alphabet(("10", "11", "12"))
        assert song.decode("12,10,1,x").tolist() == [2, 0, -1, -1]
        assert song.index("11") == 1

    def test_spelled_words_are_unambiguous(self, dna):
        assert spell_word(5, 2, Alphabet(("10", "11", "12"))) == "11,12"
        assert spell_word(7, 2, dna) == "ct"

    def test_rejects_duplicates_and_tiny(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))
        with pytest.raises(ValueError):
            Alphabet(("a",))

    def test_rejects_empty_symbol(self):
        with pytest.raises(ValueError, match="cannot be written"):
            Alphabet(("", "a"))

    @pytest.mark.parametrize("symbols", [(" ", "a"), ("a ", "b"), (" a", "b"), ("a\x0b", "bb")])
    def test_rejects_symbol_that_strip_changes(self, symbols):
        with pytest.raises(ValueError, match="cannot be written"):
            Alphabet(symbols)

    @pytest.mark.parametrize("inner", ["\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_rejects_tab_or_line_break_inside_symbol(self, inner):
        with pytest.raises(ValueError, match="cannot be written"):
            Alphabet(("a" + inner + "b", "c"))

    def test_rejects_separator_inside_symbol(self):
        with pytest.raises(ValueError, match="cannot be written"):
            Alphabet(("a,b", "c"))
        # one-character symbols are written without a separator, so ',' is a letter
        assert Alphabet((",", "a")).decode(",a,").tolist() == [0, 1, 0]

    def test_unknown_symbol(self, dna):
        with pytest.raises(InvalidSymbol):
            dna.index("n")
        with pytest.raises(InvalidSymbol):
            dna.check_index(4)


class TestLetterBytes:
    @pytest.mark.parametrize("q,dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_sequence_data_is_the_narrowest_unsigned_dtype(self, q, dtype):
        alphabet = Alphabet(tuple(f"s{i}" for i in range(q)))
        for data in ([0, q - 1], np.array([0, q - 1], np.int64), np.array([0, q - 1], np.uint16)):
            seq = Sequence(alphabet, data)
            assert seq.data.dtype == dtype and seq.data.tolist() == [0, q - 1]
            assert not seq.data.flags.writeable

    @pytest.mark.parametrize(
        "data", [[-1], [4], np.array([-1], np.int8), np.array([255], np.uint8), [0, 2**40]]
    )
    def test_sequence_range_check_for_every_dtype(self, dna, data):
        with pytest.raises(InvalidSymbol):
            Sequence(dna, data)

    def test_signed_input_above_its_half_range(self):
        # q = 200: an int8 -56 read as uint8 would be 200 - 56 = 144, a valid letter
        alphabet = Alphabet(tuple(f"s{i}" for i in range(200)))
        with pytest.raises(InvalidSymbol):
            Sequence(alphabet, np.array([3, -56], np.int8))

    @SYMBOL_SETS
    def test_labels_match_the_symbol_join(self, symbols):
        alphabet = Alphabet(symbols)
        seq = random_sequence(alphabet, 500, 4)
        expected = alphabet.separator.join(symbols[i] for i in seq.data.tolist())
        assert seq.labels() == expected
        assert Sequence(alphabet, []).labels() == ""

    def test_decode_dtype_holds_minus_one_and_q_minus_1(self):
        assert DNA.decode("acgtN").dtype == np.int8
        assert Alphabet(tuple(f"s{i}" for i in range(12))).decode("s11,x").dtype == np.int8
        # above q = 128 the ASCII text takes the UTF-32 path and indices widen to int16
        wide = Alphabet(tuple(map(chr, [*range(33, 123), *range(256, 346)])))
        text = "".join(wide.symbols) + " \u0100"
        expected = list(range(180)) + [-1, 90]
        assert wide.decode(text).tolist() == expected
        assert wide.decode(text[:90]).dtype == np.int16


class TestWordIndex:
    def test_oldest_first_base_q(self):
        # "ac" over q=4 reads as the numeral 0*4 + 1
        assert word_to_index([0, 1], 4) == 1
        assert word_to_index([1, 0], 4) == 4
        assert index_to_word(4, 2, 4) == (1, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(2, 6))
        k = int(rng.integers(1, 8))
        for _ in range(50):
            word = tuple(int(x) for x in rng.integers(0, q, size=k))
            assert index_to_word(word_to_index(word, q), k, q) == word

    def test_out_of_range(self):
        with pytest.raises(InvalidSymbol):
            word_to_index([0, 4], 4)


class TestMtdModelValidation:
    def test_phi_must_be_simplex(self, dna):
        u = np.full((4, 4), 0.25)
        with pytest.raises(ValueError):
            MtdModel(dna, 2, 1, [0.6, 0.6], [u, u])
        with pytest.raises(ValueError):
            MtdModel(dna, 2, 1, [-0.1, 1.1], [u, u])
        with pytest.raises(ValueError):
            MtdModel(dna, 2, 1, [np.nan, np.nan], [u, u])

    def test_rows_must_be_stochastic(self, dna):
        bad = np.full((4, 4), 0.25)
        bad = bad.copy()
        bad[0, 0] = 0.5
        # the sum prints as a plain float, not as numpy's np.float64(1.25)
        with pytest.raises(ValueError, match=r"^pi_2 row 0 sums to 1\.25, expected 1$"):
            MtdModel(dna, 2, 1, [0.5, 0.5], [np.full((4, 4), 0.25), bad])

    def test_single_matrix_requires_l1(self, dna):
        with pytest.raises(ValueError):
            MtdModel(dna, 3, 2, [0.5, 0.5], [np.full((16, 4), 0.25)], variant="single_matrix")

    def test_matrix_count(self, dna):
        u = np.full((4, 4), 0.25)
        with pytest.raises(ShapeMismatch):
            MtdModel(dna, 2, 1, [0.5, 0.5], [u])


    @pytest.mark.parametrize("lag_order", [63, 10**30])
    def test_block_space_is_checked_before_any_power(self, dna, lag_order):
        # 4**(10**30) would never finish; the check needs no power at all
        with pytest.raises(ModelTooLarge):
            MtdModel(dna, lag_order, lag_order, [1.0], [np.eye(4)])
        with pytest.raises(ModelTooLarge):
            ThetaU(dna, lag_order, lag_order, 0, [np.eye(4)])


class TestTransitionProb:
    def test_printed_example(self, equiv_model_a):
        # history (a, a), next letter t: 0.3*0.4 + 0.7*0.7
        assert transition_prob(equiv_model_a, [0, 0], 3) == pytest.approx(0.61, abs=1e-12)

    def test_single_component_is_its_matrix(self, dna):
        rng = np.random.default_rng(3)
        mat = rng.random((16, 4))
        mat /= mat.sum(axis=1, keepdims=True)
        model = MtdModel(dna, 2, 2, [1.0], [mat])
        for h in range(16):
            hist = index_to_word(h, 2, 4)
            for j in range(4):
                assert transition_prob(model, hist, j) == pytest.approx(mat[h, j], abs=1e-15)

    def test_identical_components_collapse(self, dna):
        rng = np.random.default_rng(4)
        p = rng.random((4, 4))
        p /= p.sum(axis=1, keepdims=True)
        model = MtdModel(dna, 2, 1, [0.5, 0.5], [p, p])
        for i2 in range(4):
            for i1 in range(4):
                for j in range(4):
                    assert transition_prob(model, [i2, i1], j) == pytest.approx(
                        0.5 * p[i1, j] + 0.5 * p[i2, j], abs=1e-15
                    )

    def test_errors(self, equiv_model_a):
        with pytest.raises(ShapeMismatch):
            transition_prob(equiv_model_a, [0], 0)
        with pytest.raises(InvalidSymbol):
            transition_prob(equiv_model_a, [0, 4], 0)
        with pytest.raises(InvalidSymbol):
            transition_prob(equiv_model_a, [0, 0], 9)

    def test_history_whose_words_overflow_int64(self):
        # 3**39 histories fit 64-bit indices but their 3**40 successor words do not
        model = random_mtd(3, 39, 1, seed=2)
        random_history = [int(a) for a in np.random.default_rng(7).integers(0, 3, size=39)]
        for hist in ([2] * 39, random_history):
            h = word_to_index(hist, 3)
            for j in range(3):
                exact = sum(model.phi[g - 1] * model.matrix_for_lag(g)[h // 3 ** (g - 1) % 3, j]
                            for g in range(1, 40))
                assert transition_prob(model, hist, j) == exact

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_normalize(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        l = int(rng.integers(1, m + 1))
        model = random_mtd(q, m, l, seed=seed)
        for h in range(q**m):
            hist = index_to_word(h, m, q)
            total = sum(transition_prob(model, hist, j) for j in range(q))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestFullTransitionMatrix:
    def test_pewee_anchor(self, pewee_em):
        table = full_transition_matrix(pewee_em).matrices[0]
        assert table[word_to_index([0, 0], 3), 0] == pytest.approx(0.75305, abs=1e-12)

    def test_equivalent_pair_same_table(self, equiv_model_a, equiv_model_b):
        ta = full_transition_matrix(equiv_model_a).matrices[0]
        tb = full_transition_matrix(equiv_model_b).matrices[0]
        assert np.abs(ta - tb).max() < 1e-12
        assert np.abs(ta - refdata.EQUIV_TABLE).max() < 0.005

    def test_order_one_single_component(self, dna):
        rng = np.random.default_rng(5)
        mat = rng.random((4, 4))
        mat /= mat.sum(axis=1, keepdims=True)
        model = MtdModel(dna, 1, 1, [1.0], [mat])
        assert np.abs(full_transition_matrix(model).matrices[0] - mat).max() < 1e-15

    def test_size_guard(self):
        model = random_mtd(10, 8, 1, seed=0)
        with pytest.raises(ModelTooLarge):
            full_transition_matrix(model)

    @pytest.mark.parametrize("seed", range(6))
    def test_lag_difference_identity(self, seed):
        # changing only the lag-g letter moves the row by phi_g * matrix row gap
        rng = np.random.default_rng(seed)
        q = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        model = random_mtd(q, m, 1, seed=seed + 100)
        table = full_transition_matrix(model).matrices[0]
        for g in range(1, m + 1):
            for _ in range(10):
                h = int(rng.integers(0, q**m))
                ig = (h // q ** (g - 1)) % q
                ig2 = int(rng.integers(0, q))
                h2 = h + (ig2 - ig) * q ** (g - 1)
                expected = model.phi[g - 1] * (
                    model.matrices[g - 1][ig] - model.matrices[g - 1][ig2]
                )
                assert np.abs((table[h] - table[h2]) - expected).max() < 1e-12


class TestDenseBuilder:
    @settings(max_examples=80)
    @given(model=random_mtds())
    def test_matches_all_histories_gather(self, model):
        # the gather over every history index is how the table was built before broadcasting
        expected = history_rows(model, np.arange(model.alphabet.size**model.order))
        assert np.array_equal(full_transition_matrix(model).matrices[0], expected)

    def test_dense_model_returned_as_is(self):
        dense = random_full_markov(3, 2, seed=1)
        assert full_transition_matrix(dense) is dense


@st.composite
def random_dense(draw):
    """Random full Markov models with q in 2..5 and m in 1..5, some rows point masses."""
    q = draw(st.integers(2, 5), label="q")
    m = draw(st.integers(1, 5), label="m")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    table = rng.random((q**m, q))
    table /= table.sum(axis=1, keepdims=True)
    if draw(st.booleans(), label="zeros"):
        table = _with_point_masses(table, rng)
    return MtdModel(mtdchain.model.default_alphabet(q), m, m, [1.0], [table])


class TestDenseIsMtdWithLEqualsM:
    """A full Markov model takes the MTD path; the removed dense branches are the oracles."""

    @settings(max_examples=60)
    @given(model=random_dense(), data=st.data())
    def test_matches_dense_branches(self, model, data):
        q, m, table = model.alphabet.size, model.order, model.matrices[0]
        words = np.arange(q ** (m + 1))
        assert np.array_equal(history_rows(model, words // q, words % q),
                              table[words // q, words % q])
        histories = np.arange(q**m)
        assert np.array_equal(history_rows(model, histories), table[histories])
        h = data.draw(st.integers(0, q**m - 1), label="history")
        j = data.draw(st.integers(0, q - 1), label="letter")
        assert transition_prob(model, index_to_word(h, m, q), j) == table[h, j]
        assert dim_theta_u(m, m, q) == dim_raw_mtd(m, m, q) == q**m * (q - 1)
        for convention in ("theta_u", "raw"):
            assert model_dimension(model, convention) == q**m * (q - 1)
        assert model == MtdModel(model.alphabet, m, m, [1.0], [table])
        assert MtdModel(model.alphabet, m, m, [1.0], [table]) == model
        assert model.is_dense and full_transition_matrix(model) is model

    def test_dense_predicate(self, dna):
        dense = random_full_markov(4, 2, seed=3, alphabet=dna)
        assert type(dense) is MtdModel and dense.is_dense
        assert (dense.lag_order, dense.n_components, dense.phi.tolist()) == (2, 1, [1.0])
        assert repr(dense) == "MtdModel(q=4, m=2, l=2, variant='general')"
        assert dense != random_full_markov(4, 2, seed=4, alphabet=dna)
        table = dense.matrices[0]
        # phi a hair below 1 is not dense: it expands to phi * pi instead of being returned
        near = MtdModel(dna, 2, 2, [1 - 1e-13], [table])
        expanded = full_transition_matrix(near)
        assert not near.is_dense and expanded is not near and expanded.is_dense
        assert np.array_equal(expanded.matrices[0], (1 - 1e-13) * table)
        # one shared matrix at m = 1 keeps its variant, so it is not dense either
        single = MtdModel(dna, 1, 1, [1.0], [table[:4]], variant="single_matrix")
        assert not single.is_dense and full_transition_matrix(single).is_dense
        assert not random_mtd(4, 2, 1, seed=3, alphabet=dna).is_dense


class TestSequenceLoglik:
    def test_uniform_model(self, dna):
        model = MtdModel(dna, 2, 1, [0.4, 0.6], [np.full((4, 4), 0.25)] * 2)
        seq = random_sequence(dna, 100, 0)
        assert sequence_loglik(model, seq) == pytest.approx(-98 * np.log(4), abs=1e-9)

    def test_empty_sum_contract(self, equiv_model_a, dna):
        seq = Sequence(dna, [0, 1])
        with pytest.warns(RuntimeWarning, match="no scored position"):
            assert sequence_loglik(equiv_model_a, seq) == 0.0

    def test_equivalent_pair_same_loglik(self, equiv_model_a, equiv_model_b, dna):
        seq = random_sequence(dna, 200, 11)
        la = sequence_loglik(equiv_model_a, seq)
        lb = sequence_loglik(equiv_model_b, seq)
        assert la == pytest.approx(lb, abs=1e-9)
        # oracle: score with the expanded dense table
        dense = full_transition_matrix(equiv_model_a)
        assert la == pytest.approx(sequence_loglik(dense, seq), abs=1e-9)

    def test_zero_probability_sentinel(self, song):
        pi1 = np.array([[1.0, 0.0, 0.0]] * 3)
        pi2 = np.array([[1.0, 0.0, 0.0]] * 3)
        model = MtdModel(song, 2, 1, [0.5, 0.5], [pi1, pi2])
        seq = Sequence(song, [0, 0, 1])
        with pytest.warns(RuntimeWarning, match="zero transition probability"):
            assert sequence_loglik(model, seq) == float("-inf")

    def test_zero_probability_word_spelled_with_separator(self):
        song = Alphabet(("10", "11", "12"))
        pi = np.array([[1.0, 0.0, 0.0]] * 3)
        model = MtdModel(song, 2, 1, [0.5, 0.5], [pi, pi])
        with pytest.warns(RuntimeWarning, match="word '10,10,11'"):
            assert sequence_loglik(model, Sequence(song, [0, 0, 1])) == float("-inf")

    def test_full_markov_equivalence_at_l_equals_m(self, dna):
        rng = np.random.default_rng(21)
        mat = rng.random((16, 4))
        mat /= mat.sum(axis=1, keepdims=True)
        dense = MtdModel(dna, 2, 2, [1.0], [mat])
        for seed in range(5):
            seq = random_sequence(dna, 80, seed)
            y = seq.data.astype(np.int64)
            expected = np.log(mat[y[:-2] * 4 + y[1:-1], y[2:]]).sum()
            assert sequence_loglik(dense, seq) == pytest.approx(expected, abs=1e-12)


class TestSampleSequence:
    def test_deterministic(self, equiv_model_a):
        s1 = sample_sequence(equiv_model_a, 500, seed=9)
        s2 = sample_sequence(equiv_model_a, 500, seed=9)
        assert np.array_equal(s1.data, s2.data)

    def test_point_mass_rows(self, song):
        # every row sends mass to phrase (row index + 1) mod 3 via lag 1
        pi = np.zeros((3, 3))
        for i in range(3):
            pi[i, (i + 1) % 3] = 1.0
        model = MtdModel(song, 2, 1, [1.0, 0.0], [pi, pi])
        seq = sample_sequence(model, 10, seed=1, init=[0, 0])
        expected = [0, 0]
        while len(expected) < 10:
            expected.append((expected[-1] + 1) % 3)
        assert list(seq.data) == expected

    # sha256 digests of samples recorded before the sampler loop was reworked:
    # the same seed must keep drawing the same letters
    def test_golden_dense_table(self):
        seq = sample_sequence(random_mtd(4, 3, 1, seed=5), 20000, seed=11)
        digest = hashlib.sha256(seq.labels().encode()).hexdigest()
        assert digest == "8bee1b99151527c160cf48496d0e1024b1d49a0a70b9f92808aff1d28762656a"

    def test_golden_lazy_cache(self):
        assert 4**12 > _SAMPLE_PRECOMPUTE_LIMIT  # rows are computed per history, not tabled
        seq = sample_sequence(random_mtd(4, 11, 1, seed=2), 5000, seed=3)
        digest = hashlib.sha256(seq.data.astype("<i8").tobytes()).hexdigest()
        assert digest == "459a7d28f42a0027252abe8801c89b647aaef7d177aa7e3825f514c3786c7dec"

    def test_computed_rows_run_in_lockstep(self):
        # one history_rows call per lockstep step, not one per history the chain visits
        calls = []

        def counted(*args):
            calls.append(1)
            return history_rows(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mtdchain.model, "history_rows", counted)
            sample_sequence(random_mtd(4, 11, 1, seed=2), 20000, seed=3)
        assert len(calls) < 2000

    def test_golden_chunked(self):
        # a sample long enough to be drawn in many speculative chunks
        model = random_mtd(4, 8, 1, seed=8)
        assert 4**9 <= _SAMPLE_PRECOMPUTE_LIMIT
        seq = sample_sequence(model, 10**6, seed=1)
        digest = hashlib.sha256(seq.data.astype("<i8").tobytes()).hexdigest()
        assert digest == "9b78fc9a97c9c50b83a8258af352e671987b3e49fde26df1df16b128d3e0bacd"

    def test_too_long_to_allocate(self, equiv_model_a):
        # 10**20 letters exceed numpy's largest array shape, so nothing is allocated
        with pytest.raises(ModelTooLarge, match="cannot allocate"):
            sample_sequence(equiv_model_a, 10**20, seed=0)

    def test_length_equals_order(self, equiv_model_a):
        seq = sample_sequence(equiv_model_a, 2, seed=4)
        assert len(seq) == 2

    def test_prefix_validation(self, equiv_model_a):
        with pytest.raises(ShapeMismatch):
            sample_sequence(equiv_model_a, 10, seed=0, init=[0])
        with pytest.raises(ShapeMismatch):
            sample_sequence(equiv_model_a, 1, seed=0)

    def test_empirical_conditional_frequencies(self, equiv_model_a):
        # law of large numbers against the expanded table
        n = 10**6
        seq = sample_sequence(equiv_model_a, n, seed=13)
        table = full_transition_matrix(equiv_model_a).matrices[0]
        q = 4
        words = np.zeros(n - 2, dtype=np.int64)
        for off in range(3):
            words = words * q + seq.data[off : n - 2 + off]
        counts = np.zeros((16, 4))
        np.add.at(counts, (words // q, words % q), 1.0)
        visits = counts.sum(axis=1)
        assert (visits >= 10**4).all()
        rows = counts / visits[:, None]
        tv = np.abs(rows - table).sum(axis=1)
        assert tv.max() < 0.01


def _list_rows_oracle(model):
    """The row sampler before the flat table: per-history lists of numpy scalars."""
    q = model.alphabet.size
    n_hist = q**model.order
    if n_hist * q <= mtdchain.model._SAMPLE_PRECOMPUTE_LIMIT:
        cum = np.cumsum(history_rows(model, np.arange(n_hist)), axis=1)
        return [list(r) for r in cum[:, :-1]].__getitem__
    cache = {}

    def lookup(h):
        row = cache.get(h)
        if row is None:
            row = cache[h] = list(np.cumsum(history_rows(model, np.array([h]))[0])[:-1])
        return row

    return lookup


def _list_rows_sample(model, length, seed, init):
    """``sample_sequence`` before the flat table, for a valid ``init`` (oracle)."""
    m = model.order
    q = model.alphabet.size
    rng = np.random.default_rng(seed)
    prefix = rng.integers(0, q, size=m) if isinstance(init, str) else np.asarray(init)
    data = [int(s) for s in prefix]
    if length > m:
        row_for = _list_rows_oracle(model)
        h = word_to_index(prefix, q)
        base = q ** (m - 1)
        for u in memoryview(rng.random(length - m)):
            j = bisect_right(row_for(h), u)
            data.append(j)
            h = (h % base) * q + j
    return np.array(data, dtype=np.int64)


def _with_point_masses(rows, rng):
    """``rows`` with about half turned into point masses and the rest thinned to exact zeros."""
    rows = rows.copy()
    for row in rows:
        keep = rng.random(row.size) < 0.5
        if rng.random() < 0.5 or not keep.any():
            keep[:] = False
            keep[rng.integers(row.size)] = True
        row[~keep] = 0.0
        row /= row.sum()
    return rows


def _chunk_boundaries(span):
    """Draw counts n cut into chunks of ``span`` (isqrt(2 n) == span): k span and k span +- 1."""
    counts = range(span * span // 2, (span + 1) ** 2 // 2 + 1)
    found = [n for n in counts if isqrt(2 * n) == span and n % span in (0, 1, span - 1)]
    assert {n % span for n in found} == {0, 1, span - 1}
    return found


@st.composite
def sampler_cases(draw):
    q = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["general", "single_matrix", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.booleans())
    alphabet = mtdchain.model.default_alphabet(q)
    if kind == "dense":
        table = rng.random((q**m, q))
        table /= table.sum(axis=1, keepdims=True)
        table = _with_point_masses(table, rng) if zeros else table
        model = MtdModel(alphabet, m, m, [1.0], [table])
    else:
        l = 1 if kind == "single_matrix" else draw(st.integers(1, m))
        base = random_mtd(q, m, l, variant=kind, seed=int(rng.integers(2**32)))
        mats = [_with_point_masses(a, rng) if zeros else a for a in base.matrices]
        model = MtdModel(alphabet, m, l, base.phi, mats, variant=kind)
    extra = draw(st.sampled_from(["short", "many chunks", "chunk boundary"]))
    if extra == "short":
        length = m + draw(st.sampled_from([0, 1, 2, 300]))
    elif extra == "many chunks":
        length = m + 5000
    else:
        length = m + draw(st.sampled_from(_chunk_boundaries(draw(st.integers(2, 40)))))
    init = "uniform"
    if draw(st.booleans()):
        init = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    return model, length, init


class TestSamplerMatchesListOracle:
    @settings(max_examples=120)
    @given(
        case=sampler_cases(),
        seed=st.integers(0, 2**32 - 1),
        path=st.sampled_from(["default", "lazy"]),
    )
    def test_property(self, case, seed, path):
        model, length, init = case
        with pytest.MonkeyPatch.context() as mp:
            if path == "lazy":  # every table is over the limit, so rows are computed per history
                mp.setattr(mtdchain.model, "_SAMPLE_PRECOMPUTE_LIMIT", 0)
            got = sample_sequence(model, length, seed=seed, init=init)
            expected = _list_rows_sample(model, length, seed, init)
        assert np.array_equal(got.data, expected)

    @pytest.mark.parametrize("span", [2, 30, 31, 32, 33, 40])
    @pytest.mark.parametrize("m", [1, 2])
    def test_cycle_never_rejoins(self, song, span, m):
        # the next phrase is always (last + 1) mod 3, so two chains out of
        # phase never meet and every wrongly guessed chunk is re-drawn to its end
        pi = np.roll(np.eye(3), 1, axis=1)
        model = MtdModel(song, m, 1, [1.0] + [0.0] * (m - 1), [pi] * m)
        n = span * span // 2  # isqrt(2 n) == span
        prefix = [1, 2][:m]
        # the second limit puts the table over it, so rows are computed per history
        for limit in (_SAMPLE_PRECOMPUTE_LIMIT, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mtdchain.model, "_SAMPLE_PRECOMPUTE_LIMIT", limit)
                got = sample_sequence(model, m + n, seed=0, init=prefix)
                expected = _list_rows_sample(model, m + n, 0, prefix)
            assert np.array_equal(got.data, (np.arange(m + n) + 1) % 3)
            assert np.array_equal(got.data, expected)

    def test_draw_equal_to_a_partial_sum_picks_the_next_letter(self):
        # bisect_right: a draw equal to the partial sum P(0) gives letter 1, in
        # the lockstep chunks as in the scalar pass
        n = 400
        u = np.random.default_rng(7).random(n)  # an explicit init draws no prefix
        for t in (0, 1, n // 2, n - 1):
            model = MtdModel(Alphabet(("a", "b")), 1, 1, [1.0], [[[u[t], 1 - u[t]]] * 2])
            got = sample_sequence(model, 1 + n, seed=7, init=[0])
            assert got.data[1 + t] == 1
            assert np.array_equal(got.data, _list_rows_sample(model, 1 + n, 7, [0]))


# (q, m, dtype of q**m - 1): 255, 511, 65,535 and 131,071 at the edges of the history
# dtype; the last model's table is over _SAMPLE_PRECOMPUTE_LIMIT, so its rows are computed
# per history
_HISTORY_EDGES = [(2, 8, np.uint8), (4, 4, np.uint8), (2, 9, np.uint16), (4, 8, np.uint16),
                  (2, 16, np.uint16), (2, 17, np.uint32), (4, 11, np.uint32),
                  (256, 1, np.uint16)]  # q**m - 1 = 255, but the multiplier q needs 2 bytes


class TestSamplerAtHistoryDtypeEdges:
    @pytest.mark.parametrize("q, m, dtype", _HISTORY_EDGES,
                             ids=[f"q{q}-m{m}" for q, m, _ in _HISTORY_EDGES])
    @pytest.mark.parametrize("init", ["uniform", "last-letters"])
    def test_matches_list_oracle(self, q, m, dtype, init):
        model = random_mtd(q, m, 2 if 1 < m <= 8 else 1, seed=q * m)
        # a uniform prefix, or history q**m - 1 itself
        prefix = "uniform" if init == "uniform" else [q - 1] * m
        seen, real = [], mtdchain.model._speculate

        def speculate(rows, u, hist, *args):
            seen.append(hist.dtype)  # the dtype the histories run in
            return real(rows, u, hist, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mtdchain.model, "_speculate", speculate)
            for n in [0, 1, *_chunk_boundaries(12)]:
                got = sample_sequence(model, m + n, seed=n, init=prefix)
                assert got.data.dtype == model.alphabet.letter_dtype
                assert np.array_equal(got.data, _list_rows_sample(model, m + n, n, prefix))
        assert seen and set(seen) == {np.dtype(dtype)}
        assert (q**m * q > _SAMPLE_PRECOMPUTE_LIMIT) == (m == 11)


class TestRandomMtd:
    @pytest.mark.parametrize("variant,l", [("general", 1), ("general", 2), ("single_matrix", 1)])
    def test_invariants(self, variant, l):
        model = random_mtd(3, 3, l, variant=variant, seed=5)
        assert model.phi.min() > 0
        assert abs(model.phi.sum() - 1.0) < 1e-12
        for mat in model.matrices:
            assert mat.min() > 0
            assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-12

    def test_seed_determinism(self):
        a = random_mtd(4, 2, 1, seed=77)
        b = random_mtd(4, 2, 1, seed=77)
        assert a == b

    def test_seed_collisions(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s1, s2 = rng.integers(0, 2**31, size=2)
            if s1 == s2:
                continue
            a = random_mtd(3, 2, 1, seed=int(s1))
            b = random_mtd(3, 2, 1, seed=int(s2))
            gap = max(
                np.abs(a.phi - b.phi).max(),
                max(np.abs(x - y).max() for x, y in zip(a.matrices, b.matrices)),
            )
            assert gap > 1e-6

    def test_random_full_markov(self):
        model = random_full_markov(4, 3, seed=2)
        assert model.matrices[0].shape == (64, 4)
        assert model.matrices[0].min() > 0

    def test_table_size_is_checked_before_drawing(self, monkeypatch):
        # a (4**30, 4) table of draws cannot be allocated; 4**(10**30) would never finish
        with pytest.raises(ModelTooLarge):
            random_mtd(4, 30, 30)
        with pytest.raises(ModelTooLarge):
            random_mtd(4, 10**30, 10**30)
        with pytest.raises(ModelTooLarge):
            random_mtd(4, 31, 30, variant="general")
        with pytest.raises(ModelTooLarge):
            random_full_markov(4, 30)
        # nor can an alphabet of 10**11 symbols: the table size is refused before it is built
        monkeypatch.setattr(mtdchain.model, "default_alphabet", None)
        with pytest.raises(ModelTooLarge, match=r"100000000000\*\*2 entries"):
            random_mtd(10**11, 1, 1)
        with pytest.raises(ModelTooLarge, match=r"100000000000\*\*2 entries"):
            random_full_markov(10**11, 1)


class TestSamplingLoglikConsistency:
    def test_entropy_rate(self, equiv_model_a):
        # mean per-letter log-likelihood of samples ~ -(conditional entropy)
        from mtdchain import stationary_histories

        table = full_transition_matrix(equiv_model_a).matrices[0]
        mu = stationary_histories(equiv_model_a)
        entropy = -float((mu[:, None] * table * np.log(table)).sum())
        n = 10**4
        means = []
        for seed in range(50):
            seq = sample_sequence(equiv_model_a, n, seed=seed)
            means.append(sequence_loglik(equiv_model_a, seq) / (n - 2))
        means = np.array(means)
        sem = means.std(ddof=1) / np.sqrt(len(means))
        assert abs(means.mean() + entropy) < 3 * sem
