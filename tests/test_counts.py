import io
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import mtdchain.counts
from conftest import SYMBOL_SETS, lag_table, plus_one_rows, random_sequence
from mtdchain import (
    Alphabet,
    AlphabetMismatch,
    ModelTooLarge,
    NGramCounts,
    Sequence,
    count_ngrams,
    default_alphabet,
    fit_full_markov,
    init_contingency,
    random_mtd,
    read_sequences,
    sample_sequence,
    spell_word,
    word_to_index,
    write_counts,
)
from mtdchain.em import _Kernel
from mtdchain.model import _window_word_indices


def brute_force_counts(seqs, order):
    """Independent window-scan oracle over symbol tuples."""
    out = {}
    for seq in seqs:
        data = list(seq.data)
        for t in range(len(data) - order):
            key = tuple(data[t : t + order + 1])
            out[key] = out.get(key, 0) + 1
    return out


CASE_PAIR = Alphabet(("a", "A", "b"))  # 'A' is a symbol, not a variant of 'a'
ASTRAL = Alphabet(("\U0001F642", "x"))  # a code point outside the basic plane


@pytest.fixture
def ab():
    return Alphabet(("a", "b"))


class TestCountNgrams:
    def test_tiny_example(self, ab):
        counts = count_ngrams([Sequence(ab, ab.decode("aab"))], 1)
        assert counts.total == 2
        assert counts[word_to_index([0, 0], 2)] == 1
        assert counts[word_to_index([0, 1], 2)] == 1
        assert len(counts) == 2

    def test_short_sequences_are_empty(self, ab):
        counts = count_ngrams([Sequence(ab, ab.decode("ab"))], 2)
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
        parts = [Sequence(ab, ab.decode("aa")), Sequence(ab, ab.decode("bb"))]
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

    # q**k below, equal to and above the number of windows: both tallies are used
    @settings(max_examples=80)
    @given(
        q=st.integers(2, 5),
        order=st.integers(1, 4),
        lengths=st.lists(st.integers(0, 90), max_size=5),
        seed=st.integers(0, 2**16),
    )
    @example(q=2, order=1, lengths=[60, 0, 1], seed=1)
    @example(q=2, order=1, lengths=[5], seed=2)
    @example(q=3, order=2, lengths=[20, 13], seed=3)
    @example(q=5, order=4, lengths=[90, 4, 2], seed=4)
    @example(q=4, order=3, lengths=[], seed=5)
    def test_against_unique_of_windows(self, q, order, lengths, seed):
        alphabet = default_alphabet(q)
        seqs = [random_sequence(alphabet, n, seed + i) for i, n in enumerate(lengths)]
        k = order + 1
        powers = q ** np.arange(k - 1, -1, -1)
        windows = [np.empty(0, dtype=np.int64)]
        windows += [sliding_window_view(s.data, k) @ powers for s in seqs if len(s) >= k]
        words, ns = np.unique(np.concatenate(windows), return_counts=True)
        counts = count_ngrams(seqs, order, alphabet=alphabet)
        assert np.array_equal(counts.word_indices(), words)
        assert np.array_equal(counts.values(), ns)
        for array in (counts.word_indices(), counts.values()):
            assert array.dtype == np.int64 and not array.flags.writeable
        # the table count_ngrams adopts unchecked passes the constructor's checks
        again = NGramCounts(alphabet, counts.word_length, counts.word_indices(), counts.values())
        assert list(again.items()) == list(counts.items())
        assert (again.word_length, again.total) == (counts.word_length, counts.total)
        assert type(counts.total) is int


@pytest.mark.parametrize("q,k", [(2, 32), (2, 33), (4, 16), (4, 17), (300, 3), (300, 4)])
def test_window_indices_at_the_uint32_limit(q, k):
    alphabet = default_alphabet(q)
    # the all-(q - 1) word has the largest index, q**k - 1
    seqs = [
        Sequence(alphabet, [q - 1] * (k + 3)),
        random_sequence(alphabet, 300, k),
        Sequence(alphabet, [q - 1] * k + [0] * k),
    ]
    (chunk,) = _window_word_indices(seqs, k, q)
    assert chunk.dtype == (np.uint32 if q**k <= 2**32 else np.int64)
    expected = [word_to_index(s.data[t : t + k], q) for s in seqs for t in range(len(s) - k + 1)]
    assert max(expected) == q**k - 1
    assert chunk.tolist() == expected
    counts = count_ngrams(seqs, k - 1)
    assert list(counts.items()) == sorted(Counter(expected).items())
    assert type(counts.total) is int and counts.total == len(expected)


@pytest.fixture(scope="module")
def short_records():
    """1e5 records of 0 to 15 letters over q = 4, with their letters laid end to end."""
    rng = np.random.default_rng(2008)
    lengths = rng.integers(0, 16, size=100_000)
    letters = rng.integers(0, 4, size=int(lengths.sum()))
    alphabet = default_alphabet(4)
    seqs = [Sequence(alphabet, part) for part in np.split(letters, np.cumsum(lengths)[:-1])]
    return seqs, lengths, letters


# order 9 has more words (4**10) than windows: the np.unique path
@pytest.mark.parametrize("order", [1, 2, 6, 9])
def test_many_short_records_match_unique_of_windows(short_records, order):
    seqs, lengths, letters = short_records
    k = order + 1
    # a window is inside one record iff its first and last letters belong to the same one
    owner = np.repeat(np.arange(lengths.size), lengths)
    inside = owner[: owner.size - k + 1] == owner[k - 1 :]
    windows = sliding_window_view(letters, k) @ 4 ** np.arange(k - 1, -1, -1)
    words, ns = np.unique(windows[inside], return_counts=True)
    counts = count_ngrams(seqs, order)
    assert np.array_equal(counts.word_indices(), words)
    assert np.array_equal(counts.values(), ns)


def _peak(call):
    """``call()`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_and_count_stay_under_four_bytes_per_letter(tmp_path):
    n = 200_000
    text = sample_sequence(random_mtd(4, 6, 1, seed=16), n, seed=16).labels()
    path = tmp_path / "corpus.txt"
    path.write_text(text[: n // 2] + "\n" + text[n // 2 :] + "\n")
    seqs, read_peak = _peak(lambda: read_sequences(path, alphabet=default_alphabet(4)))
    counts, count_peak = _peak(lambda: count_ngrams(seqs, 6))
    assert counts.total == n - 2 * 6
    assert read_peak < 4 * n
    assert count_peak < 4 * n


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

    def test_total_above_int64(self, ab):
        assert NGramCounts(ab, 1, [0, 1], [2**62, 2**62 - 1]).total == 2**63 - 1
        with pytest.raises(ValueError, match="total count 9223372036854775808 exceeds"):
            NGramCounts(ab, 1, [0, 1], [2**62, 2**62])

    @pytest.mark.parametrize(
        "words,ns",
        [([0.5, 3.9], [1, 2]), ([0, 3], [1.7, 2.2]), ([0, 3], [2**63, 1]), ([0, 3], [2**64, 1])],
    )
    def test_values_must_be_int64_integers(self, ab, words, ns):
        with pytest.raises(ValueError, match="must be integers between"):
            NGramCounts(ab, 2, words, ns)

    def test_empty_default_and_integral_floats(self, ab):
        assert (len(NGramCounts(ab, 2)), NGramCounts(ab, 2).total) == (0, 0)
        counts = NGramCounts(ab, 2, np.array([0.0, 3.0]), [2, 5])
        assert list(counts.items()) == [(0, 2), (3, 5)]

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


def _summed(*tables):
    """(word index, count) pairs of count tables added word by word, ascending."""
    return sorted(sum((Counter(dict(t.items())) for t in tables), Counter()).items())


def _read_back(path, alphabet, k):
    """(word index, count) pairs of a counts file, each k-letter word decoded as a sequence line."""
    pairs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        word, n = line.split("\t")
        letters = alphabet.decode(word)
        assert letters.size == k
        pairs.append((word_to_index(letters, alphabet.size), int(n)))
    return pairs


class TestMergeCounts:
    """Windows never cross sequences, so the counts of a corpus split in two add up to its own."""

    @pytest.mark.parametrize("seed", range(5))
    def test_split_and_merge(self, dna, seed):
        rng = np.random.default_rng(seed)
        seqs = [random_sequence(dna, int(rng.integers(3, 80)), seed * 7 + i) for i in range(6)]
        whole = count_ngrams(seqs, 2)
        cut = int(rng.integers(0, len(seqs) + 1))
        left = count_ngrams(seqs[:cut], 2, alphabet=dna)
        right = count_ngrams(seqs[cut:], 2, alphabet=dna)
        assert _summed(left, right) == list(whole.items())

    @settings(max_examples=60)
    @given(
        alphabet=st.one_of(
            st.integers(2, 12).map(default_alphabet), st.sampled_from([CASE_PAIR, ASTRAL])
        ),
        order=st.integers(1, 4),
        lengths=st.lists(st.integers(0, 40), min_size=1, max_size=6),
        cut=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    @example(alphabet=CASE_PAIR, order=2, lengths=[40, 9], cut=1, seed=1)
    @example(alphabet=ASTRAL, order=3, lengths=[30], cut=0, seed=2)
    def test_split_merge_and_file_round_trip(
        self, tmp_path_factory, alphabet, order, lengths, cut, seed
    ):
        seqs = [random_sequence(alphabet, n, seed + i) for i, n in enumerate(lengths)]
        whole = count_ngrams(seqs, order)
        left = count_ngrams(seqs[:cut], order, alphabet=alphabet)
        right = count_ngrams(seqs[cut:], order, alphabet=alphabet)
        assert _summed(left, right) == list(whole.items())
        assert left.total + right.total == whole.total
        path = tmp_path_factory.mktemp("counts") / "counts.tsv"
        write_counts(whole, path)
        assert _read_back(path, alphabet, order + 1) == list(whole.items())


def ml_rows(table):
    """Rows of ``table`` normalized, uniform where a row is empty: the dense ML fit."""
    sums = table.sum(axis=1, keepdims=True)
    return np.where(sums > 0, table / np.where(sums == 0, 1, sums), 1.0 / table.shape[1])


class TestLagContingency:
    """The lag contingency tables the fits build from the counts, against direct scans.

    ``init_contingency`` starts EM from each lag's table plus 1, normalized
    (one table pooled over the lags in the single-matrix variant), and
    ``fit_full_markov`` normalizes the one table whose block is the whole history.
    """

    def test_order_one_is_bigram_matrix(self, ab):
        seq = Sequence(ab, ab.decode("abbab"))
        counts = count_ngrams([seq], 1)
        expected = lag_table(seq, 1, 1)
        assert np.array_equal(expected, np.array([[0, 2], [1, 1]]))
        assert np.array_equal(fit_full_markov(counts).matrices[0], ml_rows(expected))
        for variant in ("general", "single_matrix"):
            start = init_contingency(counts, 1, variant).matrices
            assert np.array_equal(start[0], plus_one_rows(expected))

    def test_mass_conservation(self, dna):
        # the fit kernel's scatter of N, the one lag tally, holds the whole corpus at every lag
        counts = count_ngrams([random_sequence(dna, 200, 5)], 3)
        for l, variant in ((1, "general"), (2, "general"), (1, "single_matrix")):
            kernel = _Kernel(counts, l, variant)
            tables = kernel.scatter(np.broadcast_to(kernel.N, kernel.cells.shape))
            assert tables.sum() == kernel.G * counts.total
            if variant == "general":
                assert np.array_equal(tables.reshape(kernel.G, -1).sum(axis=1),
                                      [counts.total] * kernel.G)

    def test_hand_tally(self, ab):
        # "aabab", order 2: lag-2 pairs (y_{t-2}, y_t) for t = 3..5
        seq = Sequence(ab, ab.decode("aabab"))
        counts = count_ngrams([seq], 2)
        expected = lag_table(seq, 2, 2)
        assert np.array_equal(expected, np.array([[1, 1], [0, 1]]))
        assert np.array_equal(init_contingency(counts).matrices[1], plus_one_rows(expected))

    @pytest.mark.parametrize("lag,block", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)])
    def test_against_direct_scan(self, dna, lag, block):
        seq = random_sequence(dna, 150, 8)
        counts = count_ngrams([seq], 3)
        expected = lag_table(seq, 3, lag, block)
        start = init_contingency(counts, block).matrices[lag - 1]
        assert np.array_equal(start, plus_one_rows(expected))
        if block == 1:
            pooled = sum(lag_table(seq, 3, g) for g in (1, 2, 3))
            start = init_contingency(counts, 1, "single_matrix").matrices[0]
            assert np.array_equal(start, plus_one_rows(pooled))
        # the dense fit of order lag + block - 1: its one block is the whole history
        m = lag + block - 1
        fitted = fit_full_markov(count_ngrams([seq], m)).matrices[0]
        assert np.array_equal(fitted, ml_rows(lag_table(seq, m, 1, m)))
        assert not fitted.flags.writeable


class TestSerialization:
    def test_round_trip(self, dna, tmp_path):
        counts = count_ngrams([random_sequence(dna, 90, 9)], 2)
        path = tmp_path / "counts.tsv"
        write_counts(counts, path)
        assert _read_back(path, dna, 3) == list(counts.items())

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
        assert _read_back(path, alphabet, 3) == list(counts.items())


def _oracle(counts):
    """The counts file spelled line by line, as its format defines it."""
    k, alphabet = counts.word_length, counts.alphabet
    return "".join(f"{spell_word(w, k, alphabet)}\t{n}\n" for w, n in counts.items())


def _written(counts, tmp_path):
    """What write_counts writes, which must be the same bytes through a path and a text stream."""
    path = tmp_path / "counts.tsv"
    write_counts(counts, path)
    stream = io.StringIO()
    write_counts(counts, stream)
    assert path.read_bytes() == stream.getvalue().encode()
    return stream.getvalue()


def _edge_count_tables():
    """1, 9, 10, 99, 100, each 10**j and 10**j - 1 up to 10**18, and 2**63 - 1, largest
    first, in as few tables as keep each total within int64."""
    edges = {1, 9, 10, 99, 100, 2**63 - 1, *(10**j for j in range(19))}
    tables = [[]]
    for n in sorted(edges | {10**j - 1 for j in range(1, 19)}, reverse=True):
        if sum(tables[-1]) + n > 2**63 - 1:
            tables.append([])
        tables[-1].append(n)
    return tables


class TestWriter:
    @SYMBOL_SETS
    def test_matches_the_per_line_oracle(self, symbols, tmp_path, monkeypatch):
        # 16 lines a chunk: the 37-count edge table crosses two chunk edges
        monkeypatch.setattr(mtdchain.counts, "_SPELL_CHUNK", 16)
        alphabet = Alphabet(symbols)
        q = alphabet.size
        tables = [count_ngrams([random_sequence(alphabet, 300, 3)], 2), NGramCounts(alphabet, 3)]
        for ns in _edge_count_tables():
            # words from the first to the last of the word space, evenly apart
            words = (q**6 - 1) * np.arange(len(ns)) // max(len(ns) - 1, 1)
            tables.append(NGramCounts(alphabet, 6, words, ns))
        assert max(map(len, tables)) > 2 * 16
        for counts in tables:
            assert _written(counts, tmp_path) == _oracle(counts)
        assert _written(tables[1], tmp_path) == ""

    def test_crosses_full_chunk_edges(self, dna, tmp_path):
        n = 2 * mtdchain.counts._SPELL_CHUNK + 1000
        rng = np.random.default_rng(7)
        # counts of 1 to 13 digits, so the lines of a chunk differ in length
        ns = rng.integers(1, 10 ** rng.integers(1, 14, n))
        counts = NGramCounts(dna, 10, 3 * np.arange(n), ns)
        assert _written(counts, tmp_path) == _oracle(counts)

    def test_memory_is_bounded_per_chunk(self, dna, tmp_path):
        chunk = mtdchain.counts._SPELL_CHUNK
        rng = np.random.default_rng(8)

        def peak(n):
            counts = NGramCounts(dna, 10, 3 * np.arange(n), rng.integers(1, 10**6, n))
            return _peak(lambda: write_counts(counts, tmp_path / "counts.tsv"))[1]

        assert peak(4 * chunk) <= 1.5 * peak(chunk)


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
