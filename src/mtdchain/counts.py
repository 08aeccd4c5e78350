"""Corpus sufficient statistics: (m+1)-gram counts and lag contingency tables.

Counting windows never cross sequence boundaries, so a corpus may be
ingested per sequence (or per chunk of sequences) and combined with
:func:`merge_counts`.  A count table is two aligned read-only int64
arrays: the observed word indices, strictly ascending, and their
counts, all positive.  Every table is built the same way, by
``np.unique`` over word indices plus an exact int64 sum of their
weights, and fitting code reads the two arrays directly.  The counts
file format (``word<TAB>count`` lines) is defined here and nowhere else;
only its letter separator is shared with sequence files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatch, EmptyCorpus, IoError, LagOutOfRange
from .model import (
    _INT64_MAX,
    Alphabet,
    _check_word_space,
    _separator,
    _window_word_indices,
    word_to_index,
)

_SPELL_CHUNK = 1 << 16  # bounds the temporary string arrays of write_counts


class NGramCounts:
    """Occurrence counts of the observed (m+1)-letter words of a corpus."""

    def __init__(self, alphabet: Alphabet, word_length: int, words=(), counts=()):
        word_length = int(word_length)
        if word_length < 1:
            raise ValueError("word_length must be >= 1")
        words = np.asarray(words, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
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
        words.flags.writeable = False
        counts.flags.writeable = False
        self.alphabet = alphabet
        self.word_length = word_length
        self.total = int(counts.sum())
        self._words = words
        self._counts = counts

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


def _tally(alphabet: Alphabet, word_length: int, words: np.ndarray, weights=None) -> NGramCounts:
    """Count table of ``words``, each occurrence weighted 1 or by ``weights``.

    This is the one construction path of every producer below: the
    distinct words come from ``np.unique`` and the weights of a repeated
    word are summed exactly in int64.
    """
    if weights is None:
        distinct, sums = np.unique(words, return_counts=True)
    else:
        order = np.argsort(words)
        distinct, starts = np.unique(words[order], return_index=True)
        sums = np.add.reduceat(weights[order], starts)
    return NGramCounts(alphabet, word_length, distinct, sums)


def count_ngrams(sequences, order: int, alphabet: Alphabet | None = None) -> NGramCounts:
    """Count every (order+1)-letter window fully inside one sequence."""
    order = int(order)
    if order < 1:
        raise ValueError("order must be >= 1")
    sequences = list(sequences)
    if alphabet is None:
        if not sequences:
            raise EmptyCorpus("no sequences and no alphabet given")
        alphabet = sequences[0].alphabet
    q = alphabet.size
    chunks = [np.empty(0, dtype=np.int64)]
    for seq in sequences:
        if seq.alphabet != alphabet:
            raise AlphabetMismatch(f"sequence {seq.name!r} uses a different alphabet")
        chunks.append(_window_word_indices(seq.data, order + 1, q))
    return _tally(alphabet, order + 1, np.concatenate(chunks))


def merge_counts(a: NGramCounts, b: NGramCounts) -> NGramCounts:
    """Pointwise sum of two count tables (associative, commutative)."""
    if a.alphabet != b.alphabet or a.word_length != b.word_length:
        raise AlphabetMismatch("count tables have different alphabets or word lengths")
    words = np.concatenate([a.word_indices(), b.word_indices()])
    return _tally(a.alphabet, a.word_length, words, np.concatenate([a.values(), b.values()]))


@dataclass(frozen=True)
class ContingencyTable:
    """Co-occurrence counts between the lag-g block and the final letter."""

    lag: int
    block_length: int
    table: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)


def lag_contingency(counts: NGramCounts, lag: int, block_length: int = 1) -> ContingencyTable:
    """Tally N-weighted (lag-g block, final letter) pairs into a q**l x q table."""
    m = counts.order
    lag = int(lag)
    block_length = int(block_length)
    if not 1 <= block_length <= m:
        raise LagOutOfRange(f"block length {block_length} outside 1..{m}")
    if not 1 <= lag <= m - block_length + 1:
        raise LagOutOfRange(f"lag {lag} outside 1..{m - block_length + 1}")
    q = counts.alphabet.size
    ws = counts.word_indices()
    cells = (ws // q**lag) % q**block_length * q + ws % q
    # float64 sums of int64 counts are exact: corpus totals stay below 2**53
    table = np.bincount(cells, weights=counts.values(), minlength=q ** (block_length + 1))
    return ContingencyTable(lag, block_length, table.reshape(q**block_length, q).astype(np.int64))


def _count_lines(counts: NGramCounts):
    """'word<TAB>count' lines; numpy spells ``_SPELL_CHUNK`` words at a time."""
    q, k, sep = counts.alphabet.size, counts.word_length, _separator(counts.alphabet)
    first = np.array(counts.alphabet.symbols)
    later = np.char.add(sep, first)
    powers = q ** np.arange(k - 1, -1, -1)
    for lo in range(0, len(counts), _SPELL_CHUNK):
        part = slice(lo, lo + _SPELL_CHUNK)
        letters = counts.word_indices()[part, None] // powers % q
        spelled = first[letters[:, 0]]
        for j in range(1, k):
            spelled = np.char.add(spelled, later[letters[:, j]])
        yield from map("{}\t{}\n".format, spelled.tolist(), counts.values()[part].tolist())


def write_counts(counts: NGramCounts, path) -> None:
    """Write counts as 'word<TAB>count' lines to a file path or an open text stream.

    Words are spelled oldest letter first, their letters joined by ','
    when any symbol of the alphabet has several characters.
    """
    if hasattr(path, "write"):
        path.writelines(_count_lines(counts))
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_count_lines(counts))


def read_counts(path, alphabet: Alphabet) -> NGramCounts:
    """Read a counts file written by :func:`write_counts`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise IoError(f"cannot read counts file {path}: {err}") from err
    sep = _separator(alphabet)
    words, ns = [], []
    word_length = None
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            word, n = line.split("\t")
            n = int(n)
        except ValueError:
            raise IoError(f"{path}:{lineno}: expected 'word<TAB>count', got {line!r}") from None
        if not 0 <= n <= _INT64_MAX:
            raise IoError(f"{path}:{lineno}: count {n} outside [0, 2**63 - 1]")
        letters = alphabet.encode(word.split(sep) if sep else word)
        if word_length is None:
            word_length = len(letters)
            _check_word_space(alphabet.size, word_length)
        elif len(letters) != word_length:
            raise IoError(f"{path}:{lineno}: inconsistent word length: {word!r}")
        words.append(word_to_index(letters, alphabet.size))
        ns.append(n)
    if word_length is None:
        raise EmptyCorpus(f"no counts in {path}")
    return _tally(alphabet, word_length, np.array(words, np.int64), np.array(ns, np.int64))
