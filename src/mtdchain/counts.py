"""Corpus sufficient statistics: (m+1)-gram counts and lag contingency tables.

Counting windows never cross sequence boundaries, so a corpus may be
ingested per sequence (or per chunk of sequences) and combined with
:func:`merge_counts`.  Only observed words are stored; fitting loops
iterate the sparse map in ascending word-index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatch, EmptyCorpus, IoError, LagOutOfRange
from .model import Alphabet, _check_word_space, _window_word_indices, spell_word, word_to_index


class NGramCounts:
    """Sparse occurrence counts of the (m+1)-letter words of a corpus."""

    def __init__(self, alphabet: Alphabet, word_length: int, counts: dict[int, int] | None = None):
        word_length = int(word_length)
        if word_length < 1:
            raise ValueError("word_length must be >= 1")
        self.alphabet = alphabet
        self.word_length = word_length
        limit = alphabet.size**word_length
        clean: dict[int, int] = {}
        for w, n in (counts or {}).items():
            w, n = int(w), int(n)
            if n < 0:
                raise ValueError(f"negative count for word {w}")
            if not 0 <= w < limit:
                raise ValueError(f"word index {w} outside [0, {limit})")
            if n > 0:  # zero-count entries are never stored
                clean[w] = n
        self._counts = clean
        self._words = None
        self._values = None

    @property
    def order(self) -> int:
        return self.word_length - 1

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def __len__(self) -> int:
        return len(self._counts)

    def __getitem__(self, word: int) -> int:
        return self._counts.get(int(word), 0)

    def items(self):
        return ((w, self._counts[w]) for w in sorted(self._counts))

    def word_indices(self) -> np.ndarray:
        """Observed word indices, ascending."""
        if self._words is None:
            self._words = np.array(sorted(self._counts), dtype=np.int64)
            self._words.flags.writeable = False
        return self._words

    def values(self) -> np.ndarray:
        """Counts aligned with :meth:`word_indices`."""
        if self._values is None:
            ws = self.word_indices()
            self._values = np.array([self._counts[int(w)] for w in ws], dtype=np.int64)
            self._values.flags.writeable = False
        return self._values

    def __repr__(self):
        return (
            f"NGramCounts(k={self.word_length}, distinct={len(self)}, total={self.total})"
        )


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
    chunks = []
    for seq in sequences:
        if seq.alphabet != alphabet:
            raise AlphabetMismatch(f"sequence {seq.name!r} uses a different alphabet")
        chunks.append(_window_word_indices(seq.data, order + 1, q))
    counts: dict[int, int] = {}
    if chunks:
        words, reps = np.unique(np.concatenate(chunks), return_counts=True)
        counts = {int(w): int(n) for w, n in zip(words, reps)}
    return NGramCounts(alphabet, order + 1, counts)


def merge_counts(a: NGramCounts, b: NGramCounts) -> NGramCounts:
    """Pointwise sum of two count tables (associative, commutative)."""
    if a.alphabet != b.alphabet or a.word_length != b.word_length:
        raise AlphabetMismatch("count tables have different alphabets or word lengths")
    merged = dict(a._counts)
    for w, n in b._counts.items():
        merged[w] = merged.get(w, 0) + n
    return NGramCounts(a.alphabet, a.word_length, merged)


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


def write_counts(counts: NGramCounts, path) -> None:
    """Write counts as 'word<TAB>count' lines, words spelled oldest letter first."""
    with open(path, "w", encoding="utf-8") as fh:
        for w, n in counts.items():
            fh.write(f"{spell_word(w, counts.word_length, counts.alphabet)}\t{n}\n")


def read_counts(path, alphabet: Alphabet) -> NGramCounts:
    """Read a counts file written by :func:`write_counts`."""
    table: dict[int, int] = {}
    word_length = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise IoError(f"cannot read counts file {path}: {err}") from err
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            word, n = line.split("\t")
            n = int(n)
        except ValueError:
            raise IoError(f"{path}:{lineno}: expected 'word<TAB>count', got {line!r}") from None
        letters = alphabet.encode(word)
        if word_length is None:
            word_length = len(letters)
            _check_word_space(alphabet.size, word_length)
        elif len(letters) != word_length:
            raise IoError(f"{path}:{lineno}: inconsistent word length: {word!r}")
        idx = word_to_index(letters, alphabet.size)
        table[idx] = table.get(idx, 0) + n
    if word_length is None:
        raise EmptyCorpus(f"no counts in {path}")
    return NGramCounts(alphabet, word_length, table)
