"""Corpus sufficient statistics: the (m+1)-gram count table and its file format.

A count table is two aligned read-only int64 arrays: the observed word
indices, strictly ascending, and their counts, all positive.
:func:`count_ngrams` is the one producer: it tallies the uint32 windows
of the letters' one-byte buffer a fixed-size chunk at a time, into one
table over the word space when the words are at least as many, else by
``np.unique``, and hands its fresh arrays to the table unchecked.  The
:class:`NGramCounts` constructor checks tables built elsewhere.  Fitting
code reads the two arrays directly.  The counts file format
(``word<TAB>count`` lines) is defined here and nowhere else;
:class:`Alphabet`, the single owner of the letter format, spells its
words as sequence file lines.  The writer spells them from the
alphabet's byte table and writes each count's decimal digits, building
one UTF-8 byte buffer per fixed-size chunk of lines.
"""

from __future__ import annotations

import numpy as np

from .errors import AlphabetMismatch, EmptyCorpus
from .model import _INT64_MAX, Alphabet, _check_word_space, _window_word_indices

_SPELL_CHUNK = 1 << 16  # lines per byte buffer of write_counts, which bounds its temporaries


def _int64_array(values, name: str) -> np.ndarray:
    """``values`` as an int64 array; ValueError unless each is an integer that int64 holds."""
    arr = np.asarray(values)
    if arr.dtype == np.int64:
        return arr
    try:
        with np.errstate(invalid="ignore"):
            ints = arr.astype(np.int64)
    except (OverflowError, TypeError, ValueError):
        ints = None  # Python ints beyond int64, or values that are not numbers
    # a truncated fraction, a wrapped uint64 or a cast NaN compares unequal to its source
    if ints is None or not np.array_equal(ints, arr):
        raise ValueError(f"{name} must be integers between -2**63 and 2**63 - 1")
    return ints


class NGramCounts:
    """Occurrence counts of the observed (m+1)-letter words of a corpus."""

    def __init__(self, alphabet: Alphabet, word_length: int, words=(), counts=()):
        word_length = int(word_length)
        if word_length < 1:
            raise ValueError("word_length must be >= 1")
        words, counts = _int64_array(words, "words"), _int64_array(counts, "counts")
        if words.ndim != 1 or words.shape != counts.shape:
            raise ValueError("words and counts must be aligned one-dimensional arrays")
        if words.size:
            if counts.min() < 0:
                raise ValueError(f"negative count for word {words[np.argmin(counts)]}")
            limit = alphabet.size**word_length
            lo, hi = int(words.min()), int(words.max())
            if lo < 0 or hi >= limit:
                raise ValueError(f"word index {lo if lo < 0 else hi} outside [0, {limit})")
            if (words[1:] <= words[:-1]).any():
                raise ValueError("word indices must be strictly ascending")
        # zero-count entries are never stored; the mask also copies, so the
        # caller's arrays are neither kept nor frozen
        keep = counts > 0
        words, counts = words[keep], counts[keep]
        # an int64 sum is exact while max * n stays below 2**63; Python ints otherwise
        exact = not counts.size or int(counts.max()) * counts.size <= _INT64_MAX
        total = int(counts.sum()) if exact else sum(counts.tolist())
        if total > _INT64_MAX:
            raise ValueError(f"total count {total} exceeds 2**63 - 1")
        self._adopt(alphabet, word_length, words, counts, total)

    def _adopt(self, alphabet, word_length, words, counts, total) -> NGramCounts:
        """Set the fields to a checked table, freezing its fresh int64 arrays in place."""
        words.flags.writeable = False
        counts.flags.writeable = False
        self.alphabet = alphabet
        self.word_length = word_length
        self.total = total
        self._words = words
        self._counts = counts
        return self

    @property
    def order(self) -> int:
        return self.word_length - 1

    def __len__(self) -> int:
        return self._words.size

    def __getitem__(self, word: int) -> int:
        i = np.searchsorted(self._words, word)
        return int(self._counts[i]) if i < self._words.size and self._words[i] == word else 0

    def items(self):
        """(word index, count) pairs as Python ints, ascending by word."""
        return zip(self._words.tolist(), self._counts.tolist())

    def word_indices(self) -> np.ndarray:
        """Observed word indices, ascending."""
        return self._words

    def values(self) -> np.ndarray:
        """Counts aligned with :meth:`word_indices`."""
        return self._counts

    def __repr__(self):
        return (
            f"NGramCounts(k={self.word_length}, distinct={len(self)}, total={self.total})"
        )


def count_ngrams(sequences, order: int, alphabet: Alphabet | None = None) -> NGramCounts:
    """Count every (order+1)-letter window fully inside one sequence.

    The windows come in fixed-size chunks.  They are added into one table
    over the word space (``np.add.at``) when it has no more entries than
    there are windows, and counted by one ``np.unique`` (a sort) of all
    chunks otherwise; both give the same table.  Besides the one-byte
    letter buffer and the table the temporaries stay a few hundred
    kilobytes, whatever the corpus size.
    """
    order = int(order)
    if order < 1:
        raise ValueError("order must be >= 1")
    sequences = list(sequences)
    if alphabet is None:
        if not sequences:
            raise EmptyCorpus("no sequences and no alphabet given")
        alphabet = sequences[0].alphabet
    for seq in sequences:
        if seq.alphabet != alphabet:
            raise AlphabetMismatch(f"sequence {seq.name!r} uses a different alphabet")
    q, k = alphabet.size, order + 1
    _check_word_space(q, k)
    n_words = sum(max(len(seq) - order, 0) for seq in sequences)
    chunks = _window_word_indices(sequences, k, q)
    if q**k <= n_words:
        table = np.zeros(q**k, dtype=np.int64)
        for words in chunks:
            np.add.at(table, words, 1)
        words = np.flatnonzero(table)
        counts = table[words]
    else:
        words = np.concatenate([np.empty(0, np.uint32), *chunks])
        words, counts = np.unique(words, return_counts=True)
        words = words.astype(np.int64, copy=False)
    # fresh, ascending, positive and in range: the table takes them unchecked
    return NGramCounts.__new__(NGramCounts)._adopt(alphabet, k, words, counts, n_words)


def _count_lines(counts: NGramCounts):
    """'word<TAB>count' lines in UTF-8, one byte buffer per ``_SPELL_CHUNK`` words.

    Each line is laid out in fixed columns: one field per letter as wide
    as the widest byte-table row, a tab, the count right-aligned in as
    many digits as the chunk's largest count has, and a newline.  A mask
    keeps each letter row's own bytes, drops the first separator and the
    count's leading zeros, and the kept bytes are the lines.
    """
    k, q = counts.word_length, counts.alphabet.size
    rows, own = counts.alphabet._byte_table
    w, ragged = rows.shape[1], not own.all()
    for lo in range(0, len(counts), _SPELL_CHUNK):
        rest = counts.word_indices()[lo : lo + _SPELL_CHUNK]
        values = counts.values()[lo : lo + _SPELL_CHUNK]
        digits = len(str(values.max()))
        cells = np.empty((rest.size, k * w + digits + 2), np.uint8)
        keep = np.ones(cells.shape, bool)
        # letters and digits come least significant first; an int64 // is much
        # faster than a % here, so the remainder is taken by subtraction
        for j in range(k - 1, -1, -1):
            quotient = rest // q
            letter = rest - quotient * q
            cells[:, j * w : (j + 1) * w] = rows.take(letter, axis=0)
            if ragged:
                keep[:, j * w : (j + 1) * w] = own.take(letter, axis=0)
            rest = quotient
        keep[:, : len(counts.alphabet.separator)] = False
        cells[:, k * w] = ord("\t")
        for c in range(k * w + digits, k * w, -1):
            quotient = values // 10
            cells[:, c] = values - quotient * 10 + ord("0")
            keep[:, c] = values > 0  # a count is positive, so its units digit is kept
            values = quotient
        cells[:, -1] = ord("\n")
        yield cells[keep].tobytes()


def write_counts(counts: NGramCounts, path) -> None:
    """Write counts as 'word<TAB>count' lines to a file path or an open text stream.

    Words are spelled oldest letter first, their letters joined by the
    alphabet's separator, as in a sequence file line.
    """
    if hasattr(path, "write"):
        path.writelines(chunk.decode("utf-8", "surrogatepass") for chunk in _count_lines(counts))
        return
    with open(path, "wb") as fh:
        fh.writelines(_count_lines(counts))
