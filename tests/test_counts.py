import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sequence
from mtdchain import (
    Alphabet,
    AlphabetMismatch,
    IoError,
    LagOutOfRange,
    ModelTooLarge,
    NGramCounts,
    Sequence,
    count_ngrams,
    default_alphabet,
    lag_contingency,
    merge_counts,
    read_counts,
    word_to_index,
    write_counts,
)


def brute_force_counts(seqs, order):
    """Independent window-scan oracle over symbol tuples."""
    out = {}
    for seq in seqs:
        data = list(seq.data)
        for t in range(len(data) - order):
            key = tuple(data[t : t + order + 1])
            out[key] = out.get(key, 0) + 1
    return out


@pytest.fixture
def ab():
    return Alphabet(("a", "b"))


class TestCountNgrams:
    def test_tiny_example(self, ab):
        counts = count_ngrams([Sequence(ab, ab.encode("aab"))], 1)
        assert counts.total == 2
        assert counts[word_to_index([0, 0], 2)] == 1
        assert counts[word_to_index([0, 1], 2)] == 1
        assert len(counts) == 2

    def test_short_sequences_are_empty(self, ab):
        counts = count_ngrams([Sequence(ab, ab.encode("ab"))], 2)
        assert counts.total == 0
        assert len(counts) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_against_brute_force(self, dna, seed):
        seqs = [random_sequence(dna, int(n), seed * 10 + i) for i, n in enumerate([50, 7, 2, 33])]
        counts = count_ngrams(seqs, 2)
        oracle = brute_force_counts(seqs, 2)
        assert counts.total == sum(max(0, len(s) - 2) for s in seqs)
        assert len(counts) == len(oracle)
        for key, n in oracle.items():
            assert counts[word_to_index(key, 4)] == n

    def test_prefix_marginal_matches_bigrams(self, dna):
        seq = random_sequence(dna, 120, 3)
        tri = count_ngrams([seq], 2)
        n = len(seq)
        # summing over the final letter reproduces bigrams over positions 1..n-2
        bigrams = {}
        data = list(seq.data)
        for t in range(n - 2):
            key = (data[t], data[t + 1])
            bigrams[key] = bigrams.get(key, 0) + 1
        for (i2, i1), expected in bigrams.items():
            total = sum(tri[word_to_index([i2, i1, j], 4)] for j in range(4))
            assert total == expected

    def test_windows_do_not_span_sequences(self, ab):
        parts = [Sequence(ab, ab.encode("aa")), Sequence(ab, ab.encode("bb"))]
        counts = count_ngrams(parts, 1)
        assert counts[word_to_index([0, 1], 2)] == 0
        assert counts.total == 2

    def test_alphabet_mismatch(self, ab, dna):
        with pytest.raises(AlphabetMismatch):
            count_ngrams([Sequence(ab, [0, 1]), Sequence(dna, [0, 1])], 1)

    def test_no_zero_entries_stored(self, ab):
        counts = NGramCounts(ab, 2, [0, 1], [3, 0])
        assert len(counts) == 1
        assert counts[1] == 0


class TestContainer:
    @pytest.mark.parametrize("words", [[1, 0], [2, 2], [0, 3, 1]])
    def test_words_must_ascend_strictly(self, ab, words):
        with pytest.raises(ValueError, match="ascending"):
            NGramCounts(ab, 2, words, [1] * len(words))

    def test_negative_count(self, ab):
        with pytest.raises(ValueError, match="negative count for word 1"):
            NGramCounts(ab, 2, [0, 1], [2, -1])

    @pytest.mark.parametrize("word", [-1, 4])
    def test_word_out_of_range(self, ab, word):
        words = sorted([word, 2])
        with pytest.raises(ValueError, match=f"word index {word} outside"):
            NGramCounts(ab, 2, words, [1, 1])

    def test_misaligned(self, ab):
        with pytest.raises(ValueError, match="aligned"):
            NGramCounts(ab, 2, [0, 1], [1])

    def test_arrays_are_read_only_copies(self, ab):
        words, ns = np.array([0, 3]), np.array([2, 5])
        counts = NGramCounts(ab, 2, words, ns)
        assert words.flags.writeable and ns.flags.writeable
        assert not counts.word_indices().flags.writeable
        assert not counts.values().flags.writeable
        assert counts.total == 7
        assert (counts[0], counts[1], counts[3]) == (2, 0, 5)
        assert list(counts.items()) == [(0, 2), (3, 5)]


class TestMergeCounts:
    def test_identity(self, ab):
        x = count_ngrams([Sequence(ab, ab.encode("abab"))], 1)
        empty = NGramCounts(ab, 2)
        merged = merge_counts(x, empty)
        assert dict(merged.items()) == dict(x.items())
        assert len(merge_counts(empty, empty)) == 0

    def test_commutative(self, dna):
        a = count_ngrams([random_sequence(dna, 40, 1)], 2)
        b = count_ngrams([random_sequence(dna, 60, 2)], 2)
        assert dict(merge_counts(a, b).items()) == dict(merge_counts(b, a).items())

    @pytest.mark.parametrize("seed", range(5))
    def test_split_and_merge(self, dna, seed):
        rng = np.random.default_rng(seed)
        seqs = [random_sequence(dna, int(rng.integers(3, 80)), seed * 7 + i) for i in range(6)]
        whole = count_ngrams(seqs, 2)
        cut = int(rng.integers(0, len(seqs) + 1))
        left = count_ngrams(seqs[:cut], 2, alphabet=dna)
        right = count_ngrams(seqs[cut:], 2, alphabet=dna)
        assert dict(merge_counts(left, right).items()) == dict(whole.items())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        q=st.integers(2, 12),
        order=st.integers(1, 4),
        lengths=st.lists(st.integers(0, 40), min_size=1, max_size=6),
        cut=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    def test_split_merge_and_file_round_trip(self, tmp_path_factory, q, order, lengths, cut, seed):
        alphabet = default_alphabet(q)
        seqs = [random_sequence(alphabet, n, seed + i) for i, n in enumerate(lengths)]
        whole = count_ngrams(seqs, order)
        merged = merge_counts(
            count_ngrams(seqs[:cut], order, alphabet=alphabet),
            count_ngrams(seqs[cut:], order, alphabet=alphabet),
        )
        assert np.array_equal(merged.word_indices(), whole.word_indices())
        assert np.array_equal(merged.values(), whole.values())
        assert merged.total == whole.total
        if len(whole):
            path = tmp_path_factory.mktemp("counts") / "counts.tsv"
            write_counts(whole, path)
            again = read_counts(path, alphabet)
            assert list(again.items()) == list(whole.items())
            assert again.word_length == whole.word_length

    def test_mismatch(self, ab, dna):
        with pytest.raises(AlphabetMismatch):
            merge_counts(NGramCounts(ab, 2), NGramCounts(dna, 2))
        with pytest.raises(AlphabetMismatch):
            merge_counts(NGramCounts(ab, 2), NGramCounts(ab, 3))


class TestLagContingency:
    def test_order_one_is_bigram_matrix(self, ab):
        seq = Sequence(ab, ab.encode("abbab"))
        counts = count_ngrams([seq], 1)
        table = lag_contingency(counts, 1, 1).table
        data = list(seq.data)
        expected = np.zeros((2, 2), dtype=int)
        for t in range(4):
            expected[data[t], data[t + 1]] += 1
        assert np.array_equal(table, expected)

    def test_mass_conservation(self, dna):
        counts = count_ngrams([random_sequence(dna, 200, 5)], 3)
        for lag in (1, 2, 3):
            assert lag_contingency(counts, lag, 1).table.sum() == counts.total
        for lag in (1, 2):
            assert lag_contingency(counts, lag, 2).table.sum() == counts.total

    def test_hand_tally(self, ab):
        # "aabab", order 2: lag-2 pairs (y_{t-2}, y_t) for t = 3..5
        seq = Sequence(ab, ab.encode("aabab"))
        counts = count_ngrams([seq], 2)
        table = lag_contingency(counts, 2, 1).table
        expected = np.zeros((2, 2), dtype=int)
        data = list(seq.data)
        for t in range(2, 5):
            expected[data[t - 2], data[t]] += 1
        assert np.array_equal(table, expected)
        assert np.array_equal(expected, np.array([[1, 1], [0, 1]]))

    def test_lag_out_of_range(self, dna):
        counts = count_ngrams([random_sequence(dna, 50, 6)], 2)
        with pytest.raises(LagOutOfRange):
            lag_contingency(counts, 3, 1)
        with pytest.raises(LagOutOfRange):
            lag_contingency(counts, 2, 2)
        with pytest.raises(LagOutOfRange):
            lag_contingency(counts, 0, 1)

    @pytest.mark.parametrize("lag,block", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)])
    def test_against_direct_scan(self, dna, lag, block):
        seq = random_sequence(dna, 150, 8)
        counts = count_ngrams([seq], 3)
        table = lag_contingency(counts, lag, block).table
        data = list(seq.data)
        expected = np.zeros((4**block, 4), dtype=int)
        for t in range(3, len(data)):
            chunk = data[t - lag - block + 1 : t - lag + 1]
            expected[word_to_index(chunk, 4), data[t]] += 1
        assert np.array_equal(table, expected)


class TestSerialization:
    def test_round_trip(self, dna, tmp_path):
        counts = count_ngrams([random_sequence(dna, 90, 9)], 2)
        path = tmp_path / "counts.tsv"
        write_counts(counts, path)
        again = read_counts(path, dna)
        assert dict(again.items()) == dict(counts.items())
        assert again.word_length == counts.word_length

    def test_spelled_oldest_first(self, dna, tmp_path):
        counts = NGramCounts(dna, 2, [word_to_index([0, 3], 4)], [5])
        path = tmp_path / "counts.tsv"
        write_counts(counts, path)
        assert path.read_text() == "at\t5\n"

    def test_multi_character_symbols_round_trip(self, tmp_path):
        alphabet = default_alphabet(12)
        counts = count_ngrams([random_sequence(alphabet, 300, 4)], 2)
        path = tmp_path / "counts.tsv"
        write_counts(counts, path)
        words = [line.split("\t")[0] for line in path.read_text().splitlines()]
        assert all(word.count(",") == 2 for word in words)
        again = read_counts(path, alphabet)
        assert list(again.items()) == list(counts.items())
        assert again.word_length == 3

    def test_repeated_words_are_summed(self, dna, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("gt\t2\nac\t3\ngt\t4\n")
        counts = read_counts(path, dna)
        ac, gt = word_to_index([0, 1], 4), word_to_index([2, 3], 4)
        assert list(counts.items()) == [(ac, 3), (gt, 6)]

    def test_malformed_line(self, dna, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("ac\t3\ngt 4\n")
        with pytest.raises(IoError, match=":2:"):
            read_counts(path, dna)

    @pytest.mark.parametrize("count", ["-3", "99999999999999999999"])
    def test_count_outside_int64(self, count, dna, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text(f"gt\t4\nac\t{count}\n")
        with pytest.raises(IoError, match=f"{path}:2: count {count} outside"):
            read_counts(path, dna)

    def test_missing_file(self, dna, tmp_path):
        with pytest.raises(IoError):
            read_counts(tmp_path / "absent.tsv", dna)

    def test_word_index_overflow(self, tmp_path):
        ab = Alphabet(tuple("abcdefghijklmnopqrst"))
        path = tmp_path / "counts.tsv"
        path.write_text("b" * 15 + "\t2\n")
        with pytest.raises(ModelTooLarge):
            read_counts(path, ab)


class TestWordIndexRange:
    def test_overflow_raises(self):
        # 20**15 > 2**63 - 1: the int64 window index would wrap
        ab = default_alphabet(20)
        seq = Sequence(ab, np.arange(40) % 20)
        with pytest.raises(ModelTooLarge):
            count_ngrams([seq], 14)

    def test_largest_fitting_word(self):
        # 20**14 < 2**63 - 1: the top window index is exact
        ab = default_alphabet(20)
        seq = Sequence(ab, np.full(14, 19))
        counts = count_ngrams([seq], 13)
        assert list(counts.items()) == [(20**14 - 1, 1)]
