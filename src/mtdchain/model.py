"""Core value types: alphabets, sequences and MTD models.

An order-m MTD model predicts the next letter as a convex mixture over
lags: each lag g carries a weight phi_g and a stochastic matrix pi_g
mapping the l-letter block ending at lag g to a distribution over the
next letter.  With l = 1 every lag looks at a single letter; the
``single_matrix`` variant shares one matrix across all lags.  With
l = m there is one component, phi = (1), whose matrix is the dense
q**m x q table: that is the full Markov model (:attr:`MtdModel.is_dense`).

Word-index convention (used everywhere, including file formats): a word
spelled oldest letter first is read as a base-q numeral, so the most
recent letter is the least significant digit.  A history (i_m, ..., i_1)
has index sum_g idx(i_g) * q**(g-1); appending the next letter i_0 gives
the (m+1)-word index sum_g idx(i_g) * q**g.

Letters in memory: a :class:`Sequence` holds one byte per letter (uint8
up to q = 256), and (m+1)-word windows are built a chunk at a time as
uint32 indices while q**(m+1) <= 2**32, int64 beyond.  Letters become
text through one byte table on :class:`Alphabet`: row i holds the
separator's and then symbol i's UTF-8 bytes, zero-padded to the longest
row, beside a mask of the row's own bytes (its byte length).  Sequence
lines and counts files gather rows and masks, keep the masked bytes and
drop the very first separator.

Checks live at the boundary: the public constructors of the value types
(:class:`Sequence`, :class:`MtdModel`, ``NGramCounts``, ``ThetaU``), the
file readers and the CLI flags check everything they are given.  Each
type's one ``_adopt`` method sets its fields, at the end of its
constructor, and a value the library builds from parts it has already
checked (a count table, a read sequence, a dense or one-block table) goes
through ``_adopt`` alone, on ``cls.__new__(cls)``.

Window layout: lag g's l-letter block sits at history digits
g-1 .. g+l-2.  :func:`_lag_blocks` reads it from listed history indices,
and :func:`_window` is the same layout for a dense (q**m, q) table: axis 1
of its (q**(m-g-l+1), q**l, q**(g-1), q) view.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from math import isqrt

import numpy as np

from .errors import AlphabetMismatch, InvalidSymbol, ModelTooLarge, ShapeMismatch

ROW_SUM_TOL = 1e-12
MAX_TABLE_ENTRIES = 10**8
_INT64_MAX = 2**63 - 1

# windows per chunk of _window_word_indices: its temporaries stay small and in cache
_WINDOW_CHUNK = 1 << 14
# words per chunk of _word_probs: its temporaries stay small and in cache
_SCORE_CHUNK = 1 << 14
# dense transition tables above this size are not precomputed for sampling
_SAMPLE_PRECOMPUTE_LIMIT = 4 * 10**6
# draws that run a guessed chunk start from history 0 before the chunk begins
_SAMPLE_BURN_IN = 32


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct symbol labels; a symbol's index is its position.

    The alphabet alone owns the text form of letters in files, flags and
    messages: symbols joined by ``separator`` (',' if any symbol has several
    characters, else nothing).  Read back, a symbol maps to its own index,
    and a case variant that is no symbol to the first symbol it comes from.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(str(s) for s in self.symbols))
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet labels must be distinct")
        separator = "," if max(map(len, self.symbols)) > 1 else ""
        for s in self.symbols:
            # files strip their lines and split them at line breaks, tabs and the separator
            if not s or s != s.strip() or len(s.splitlines()) > 1 or {"\t", separator} & set(s):
                raise ValueError(f"alphabet symbol {s!r} cannot be written to a file")
        lookup = {s: i for i, s in enumerate(self.symbols)}
        for i, s in enumerate(self.symbols):
            lookup.setdefault(s.lower(), i)
            lookup.setdefault(s.upper(), i)
        object.__setattr__(self, "_lookup", lookup)
        object.__setattr__(self, "separator", separator)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, label: str) -> int:
        try:
            return self._lookup[label]
        except KeyError:
            raise InvalidSymbol(f"symbol {label!r} not in alphabet {self.symbols}") from None

    @cached_property
    def letter_dtype(self) -> np.dtype:
        """A letter's dtype in memory: the narrowest unsigned one that holds q - 1."""
        return np.min_scalar_type(self.size - 1)

    @cached_property
    def _codes(self) -> np.ndarray:
        """Code point -> index, -1 off the lookup and in the entry past its largest key."""
        table = {ord(k): i for k, i in self._lookup.items() if len(k) == 1}
        dtype = np.min_scalar_type(-self.size)  # the narrowest that holds -1 and q - 1
        return np.array([table.get(c, -1) for c in range(max(table) + 2)], dtype)

    @cached_property
    def _ascii_codes(self) -> bytes:
        """``_codes`` at the bytes 0..255: a ``bytes.translate`` table when q <= 128."""
        return self._codes.take(np.arange(256), mode="clip").tobytes()

    @cached_property
    def _byte_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Each letter's separator and symbol in UTF-8, as the zero-padded rows of a
        (q, width) uint8 array, and a (q, width) mask of each row's own bytes.

        The mask is the row's byte length, kept in the form a gather wants.
        A lone surrogate (an undecodable byte of a command line) is kept as
        its three bytes, so in-memory text reads back as it was.
        """
        spelled = [(self.separator + s).encode("utf-8", "surrogatepass") for s in self.symbols]
        width = max(map(len, spelled))
        rows = np.frombuffer(b"".join(b.ljust(width, b"\0") for b in spelled), np.uint8)
        own = np.arange(width) < np.array(list(map(len, spelled)))[:, None]
        return rows.reshape(self.size, width), own

    def decode(self, text: str) -> np.ndarray:
        """Indices of the letters in ``text`` (split at the separator, if any), -1 if foreign.

        Their dtype is the narrowest signed one that holds -1 and q - 1: int8 up to q = 128.
        """
        if self.separator:
            tokens = text.split(self.separator)
            index = {t: self._lookup.get(t, -1) for t in dict.fromkeys(tokens)}
            dtype = np.min_scalar_type(-self.size)
            return np.fromiter(map(index.__getitem__, tokens), dtype, len(tokens))
        # ASCII text maps byte to byte, as a gather would first cast its codes to
        # 8-byte indices.  Other text is read as UTF-32: a lone surrogate (an
        # undecodable byte of a command line) is a code point like any other, and
        # a code point above the table clips to its last entry.
        if text.isascii() and self.size <= 128:
            return np.frombuffer(text.encode("ascii").translate(self._ascii_codes), np.int8)
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        return self._codes.take(codes, mode="clip")

    def check_index(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < self.size:
            raise InvalidSymbol(f"symbol index {i} outside [0, {self.size})")
        return i


def default_alphabet(q: int) -> Alphabet:
    """Digit-labelled alphabet of size q (generic test/experiment alphabet)."""
    if q <= 10:
        return Alphabet(tuple(str(i) for i in range(q)))
    return Alphabet(tuple(f"s{i}" for i in range(q)))


DNA = Alphabet(("a", "c", "g", "t"))


def word_to_index(letters, q: int) -> int:
    """Index of a word spelled oldest letter first (base-q numeral)."""
    idx = 0
    for s in letters:
        s = int(s)
        if not 0 <= s < q:
            raise InvalidSymbol(f"symbol index {s} outside [0, {q})")
        idx = idx * q + s
    return idx


def index_to_word(index: int, length: int, q: int) -> tuple[int, ...]:
    """Inverse of :func:`word_to_index`; returns letters oldest first."""
    out = []
    index = int(index)
    for _ in range(length):
        out.append(index % q)
        index //= q
    if index:
        raise InvalidSymbol(f"word index too large for length {length}")
    return tuple(reversed(out))


def spell_word(index: int, length: int, alphabet: Alphabet) -> str:
    """The word of index ``index`` spelled as in a counts file, oldest letter first."""
    return Sequence(alphabet, index_to_word(index, length, alphabet.size)).labels()


@dataclass(frozen=True)
class Sequence:
    """A sequence of symbol indices over an alphabet, read-only, of ``Alphabet.letter_dtype``."""

    alphabet: Alphabet
    data: np.ndarray
    name: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.data)
        arr = arr if arr.dtype.kind in "iu" else arr.astype(np.int64)
        if arr.ndim != 1:
            raise ShapeMismatch("sequence data must be one-dimensional")
        q = self.alphabet.size
        if arr.size and ((arr.dtype.kind == "i" and arr.min() < 0) or arr.max() >= q):
            raise InvalidSymbol("sequence contains indices outside the alphabet")
        self._adopt(self.alphabet, arr.astype(self.alphabet.letter_dtype, copy=False), self.name)

    def _adopt(self, alphabet, data, name) -> Sequence:
        """Set the fields to checked letters of ``alphabet.letter_dtype``, frozen in place."""
        data.flags.writeable = False
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "name", name)
        return self

    def __len__(self) -> int:
        return int(self.data.size)

    def labels(self) -> str:
        """The letters spelled in order, as a sequence file line."""
        rows, own = self.alphabet._byte_table
        if rows.shape[1] == 1:
            # one byte a symbol: a gather would first cast the letters to 8-byte indices
            return self.data.tobytes().translate(rows.tobytes().ljust(256, b"\0")).decode("ascii")
        letters = self.data.astype(np.intp)
        spelled = rows.take(letters, axis=0)[own.take(letters, axis=0)]
        return spelled.tobytes()[len(self.alphabet.separator) :].decode("utf-8", "surrogatepass")


def validate_stochastic(matrix: np.ndarray, rows: int, cols: int, what: str = "matrix"):
    """Check that ``matrix`` is a rows x cols stochastic matrix.

    Entries must lie in [0, 1] and every row must sum to 1 within 1e-12.
    """
    if matrix.shape != (rows, cols):
        raise ShapeMismatch(f"{what} has shape {matrix.shape}, expected {(rows, cols)}")
    if not np.isfinite(matrix).all():
        raise ValueError(f"{what} has non-finite entries")
    if matrix.min() < 0.0 or matrix.max() > 1.0:
        raise ValueError(f"{what} has entries outside [0, 1]")
    bad = np.abs(matrix.sum(axis=1) - 1.0) > ROW_SUM_TOL
    if bad.any():
        r = int(np.argmax(bad))
        raise ValueError(f"{what} row {r} sums to {float(matrix[r].sum())!r}, expected 1")


class MtdModel:
    """Mixture transition distribution model.

    Parameters
    ----------
    alphabet : Alphabet
    order : int
        Markov order m (history length).
    lag_order : int
        Block length l of each mixture component, 1 <= l <= m.  The model
        has G = m - l + 1 components.
    phi : array of shape (G,)
        Mixing weights, nonnegative, summing to 1 within 1e-12.
    matrices : list of arrays of shape (q**l, q)
        One stochastic matrix per component, or a single shared matrix for
        the ``single_matrix`` variant (which requires l = 1).
    variant : {"general", "single_matrix"}
    """

    def __init__(self, alphabet, order, lag_order, phi, matrices, variant="general"):
        if variant not in ("general", "single_matrix"):
            raise ValueError(f"unknown variant {variant!r}")
        order = int(order)
        lag_order = int(lag_order)
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 1 <= lag_order <= order:
            raise ValueError("lag_order must satisfy 1 <= l <= m")
        if variant == "single_matrix" and lag_order != 1:
            raise ValueError("single_matrix variant requires lag_order 1")
        q = alphabet.size
        _check_word_space(q, lag_order)
        G = order - lag_order + 1
        phi = np.array(phi, dtype=np.float64)
        if phi.shape != (G,):
            raise ShapeMismatch(f"phi has shape {phi.shape}, expected ({G},)")
        if not (phi >= 0.0).all() or abs(phi.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError("phi must be nonnegative and sum to 1")
        matrices = [np.array(mat, dtype=np.float64) for mat in matrices]
        expected = 1 if variant == "single_matrix" else G
        if len(matrices) != expected:
            raise ShapeMismatch(f"expected {expected} matrices, got {len(matrices)}")
        for i, mat in enumerate(matrices):
            validate_stochastic(mat, q**lag_order, q, what=f"pi_{i + 1}")
        self._adopt(alphabet, order, lag_order, phi, matrices, variant)

    def _adopt(self, alphabet, order, lag_order, phi, matrices, variant) -> MtdModel:
        """Set the fields to checked parameters, freezing their fresh float64 arrays in place."""
        for arr in (phi, *matrices):
            arr.flags.writeable = False
        self.alphabet = alphabet
        self.order = order
        self.lag_order = lag_order
        self.variant = variant
        self.phi = phi
        self.matrices = matrices
        return self

    @property
    def n_components(self) -> int:
        return self.order - self.lag_order + 1

    def matrix_for_lag(self, g: int) -> np.ndarray:
        """Stochastic matrix used by component g (1-based)."""
        if not 1 <= g <= self.n_components:
            raise ValueError(f"lag {g} outside 1..{self.n_components}")
        return self.matrices[0] if self.variant == "single_matrix" else self.matrices[g - 1]

    def __eq__(self, other):
        if not isinstance(other, MtdModel):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.order == other.order
            and self.lag_order == other.lag_order
            and self.variant == other.variant
            and np.array_equal(self.phi, other.phi)
            and len(self.matrices) == len(other.matrices)
            and all(np.array_equal(a, b) for a, b in zip(self.matrices, other.matrices))
        )

    @property
    def is_dense(self) -> bool:
        """Whether this is the full Markov model: l = m, the general variant and phi exactly (1)."""
        return self.lag_order == self.order and self.variant == "general" and self.phi[0] == 1.0

    def __repr__(self):
        return (
            f"MtdModel(q={self.alphabet.size}, m={self.order}, l={self.lag_order}, "
            f"variant={self.variant!r})"
        )


def _check_history(model, history, what: str = "history") -> np.ndarray:
    hist = np.asarray(history, dtype=np.int64)
    if hist.ndim != 1 or hist.size != model.order:
        raise ShapeMismatch(f"{what} length {hist.size}, expected {model.order}")
    q = model.alphabet.size
    if hist.size and (hist.min() < 0 or hist.max() >= q):
        raise InvalidSymbol(f"{what} contains indices outside the alphabet")
    return hist


def _lag_blocks(history_indices: np.ndarray, g: int, q: int, l: int) -> np.ndarray:
    """Lag g's l-letter block of each listed history index: its digits g-1 .. g+l-2."""
    return history_indices // q ** (g - 1) % q**l


def _cell_index(word_indices: np.ndarray, q: int, lag_order: int, n_components: int) -> np.ndarray:
    """Position of pi_g(block_g(w), i_0(w)) in G lag tables laid end to end, shape (G, n_words).

    Row g-1 is (g-1)*q**(l+1) plus lag g's block times q plus the word's
    last letter.  Where the lags share one matrix, these cells modulo
    q**(l+1) pool them into it.
    """
    histories, letters = np.divmod(np.asarray(word_indices, dtype=np.int64), q)
    cells = np.empty((n_components, letters.size), dtype=np.int64)
    for g, row in enumerate(cells, 1):
        np.multiply(_lag_blocks(histories, g, q, lag_order), q, out=row)
        row += letters + (g - 1) * q ** (lag_order + 1)
    return cells


def transition_prob(model: MtdModel, history, next_symbol: int) -> float:
    """Probability of ``next_symbol`` after the m-letter ``history``.

    ``history`` is given oldest letter first; for lag_order l the
    component at lag g conditions on the block (y_{t-g-l+1}, ..., y_{t-g}).
    """
    hist = _check_history(model, history)
    q = model.alphabet.size
    j = model.alphabet.check_index(next_symbol)
    # the history index fits int64 where the word index h*q + j may not
    _check_word_space(q, model.order)
    return float(history_rows(model, [word_to_index(hist, q)], j)[0])


def history_rows(model, history_indices: np.ndarray, letters=None) -> np.ndarray:
    """sum_g phi_g pi_g[block_g(h), letters] over listed histories h, one lag at a time.

    Left out, ``letters`` gives every history's row, shape (H, q)
    (to_theta_u, sampling).  One letter per history gives that letter's
    probability, shape (H,), as the words (h, j) of the log-likelihood
    want: one flat ``take`` of block * q + letter from each raveled table.
    """
    history_indices = np.asarray(history_indices, dtype=np.int64)
    q, l, G = model.alphabet.size, model.lag_order, model.n_components
    # one lag at a time: (G, H) arrays would set the peak memory of scoring large count tables
    rows = 0.0
    for g in range(1, G + 1):
        table = model.matrix_for_lag(g)
        # at G = 1 (l = m) the block is the history itself
        blocks = history_indices if G == 1 else _lag_blocks(history_indices, g, q, l)
        terms = table[blocks] if letters is None else table.ravel().take(blocks * q + letters)
        terms *= model.phi[g - 1]
        rows += terms
    return rows


def _check_dense_size(q: int, order: int) -> None:
    """Raise :class:`ModelTooLarge` if a table of q**(order + 1) entries is too large.

    That is a dense (order m) or block (order l) table, or the distribution
    of (order + 1)-letter words.
    """
    # q >= 2 and MAX_TABLE_ENTRIES < 2**64, so order >= 63 exceeds it with no power taken
    if order >= 63 or q ** (order + 1) > MAX_TABLE_ENTRIES:
        raise ModelTooLarge(f"a table of {q}**{order + 1} entries exceeds {MAX_TABLE_ENTRIES}")


def _window(table: np.ndarray, g: int, b: int) -> np.ndarray:
    """View of a dense (q**m, q) table whose axis 1 is the b-letter block at lag g."""
    q = table.shape[1]
    return table.reshape(-1, q**b, q ** (g - 1), q)


def _build_dense(q: int, order: int, terms) -> np.ndarray:
    """Zeros plus each (q**b, q) block table of ``terms`` added in turn along ``_window(g, b)``."""
    _check_dense_size(q, order)
    table = np.zeros((q**order, q))
    for g, b, block_table in terms:
        _window(table, g, b)[...] += block_table[:, None, :]
    return table


def full_transition_matrix(model) -> MtdModel:
    """The model as its dense q**m x q table sum_g phi_g pi_g; a dense model is returned as is."""
    if model.is_dense:
        return model
    return _adopt_dense(model.alphabet, model.order, _dense_table(model))


def _dense_table(model) -> np.ndarray:
    """The fresh, writable q**m x q table sum_g phi_g pi_g of a model that is not dense."""
    terms = [(g, model.lag_order, p * model.matrix_for_lag(g)) for g, p in enumerate(model.phi, 1)]
    return _renormalize_strays(_build_dense(model.alphabet.size, model.order, terms))


def _renormalize_strays(rows: np.ndarray) -> np.ndarray:
    """Divide by its sum, in place, each row that sums to 1 only beyond ``ROW_SUM_TOL`` or
    holds an entry above 1; the others keep their bits.

    A row that is a phi-weighted sum of checked rows strays from 1 by
    their tolerances together, and the model file of such a row would
    not read back.
    """
    sums = rows.sum(axis=1)
    stray = (np.abs(sums - 1.0) > ROW_SUM_TOL) | (rows.max(axis=1) > 1.0)
    if stray.any():
        rows[stray] /= sums[stray, None]
    return rows


def _adopt_dense(alphabet, order, table) -> MtdModel:
    """The full Markov model of ``table``, a fresh (q**m, q) table built from checked parts.

    The table is taken as it is, unchecked: its builder keeps every row
    stochastic within ``ROW_SUM_TOL``.
    """
    return MtdModel.__new__(MtdModel)._adopt(alphabet, order, order, np.ones(1), [table], "general")


def _check_word_space(q: int, k: int) -> None:
    """Raise :class:`ModelTooLarge` unless every k-letter word index fits in int64."""
    # q >= 2, so k >= 63 overflows; testing it first keeps q**k small
    if k >= 63 or q**k > _INT64_MAX:
        raise ModelTooLarge(f"{k}-letter words over {q} symbols overflow 64-bit word indices")


def _window_word_indices(sequences, k: int, q: int):
    """Indices of the length-k windows inside each sequence, in chunks of ``_WINDOW_CHUNK``.

    The windows are built over the letters of all sequences laid end to
    end, as uint32 indices (int64 when q**k exceeds 2**32), and those that
    cross from one sequence into the next are dropped.
    """
    _check_word_space(q, k)
    dtype = np.uint32 if q**k <= 2**32 else np.int64
    letters = np.concatenate([np.empty(0, np.uint8), *(seq.data for seq in sequences)])
    starts = np.cumsum([len(seq) for seq in sequences], dtype=np.int64)[:-1]
    n = max(letters.size - k + 1, 0)
    for lo in range(0, n, _WINDOW_CHUNK):
        hi = min(lo + _WINDOW_CHUNK, n)
        span = letters[lo : hi + k - 1].astype(dtype)
        words = span[: hi - lo].copy()
        for off in range(1, k):
            words *= q
            words += span[off : off + hi - lo]
        del span  # a generator's locals outlive the yield
        # a sequence starting at s is crossed by the windows at s - k + 1 .. s - 1
        a, b = np.searchsorted(starts, [lo, hi + k - 2], "right")
        if b > a:
            crossing = (starts[a:b, None] - np.arange(lo + 1, lo + k)).ravel()
            words = np.delete(words, crossing[(crossing >= 0) & (crossing < hi - lo)])
        yield words


def _word_probs(model, words: np.ndarray) -> np.ndarray:
    """p(w) of each listed (m+1)-word w, filled into one array ``_SCORE_CHUNK`` words at a time.

    A chunk's histories, letters and lag terms are its only temporaries, so
    beyond the words the call holds the result's 8 bytes a word.
    """
    q = model.alphabet.size
    probs = np.empty(words.size)
    for lo in range(0, words.size, _SCORE_CHUNK):
        chunk = words[lo : lo + _SCORE_CHUNK]
        probs[lo : lo + chunk.size] = history_rows(model, *np.divmod(chunk, q))
    return probs


def sequence_loglik(model, seq: Sequence) -> float:
    """Conditional log-likelihood of ``seq`` under ``model``.

    The first m letters are conditioned on; the returned value is
    sum_{t=m+1..n} log P(y_t | y_{t-m}, ..., y_{t-1}).  A sequence with no
    scored position returns 0.0 (empty sum) with a warning.  If any scored
    transition has probability zero the -inf sentinel is returned and a
    warning names the offending word.  As in ``loglik_from_counts``, the
    words are scored a fixed-size chunk at a time into one float64 array,
    whose logs are then summed at once.
    """
    if seq.alphabet != model.alphabet:
        raise AlphabetMismatch("sequence and model alphabets differ")
    m = model.order
    q = model.alphabet.size
    if len(seq) <= m:
        warnings.warn(
            f"sequence of length {len(seq)} has no scored position at order {m}",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    words = np.concatenate([*_window_word_indices([seq], m + 1, q)])
    probs = _word_probs(model, words)
    zero = probs <= 0.0
    if zero.any():
        t = int(np.argmax(zero))
        word = spell_word(int(words[t]), m + 1, model.alphabet)
        warnings.warn(
            f"zero transition probability at position {t + m} "
            f"(word {word!r}, {int(zero.sum())} offending positions); "
            "log-likelihood is -inf",
            RuntimeWarning,
            stacklevel=2,
        )
        return float("-inf")
    return float(np.log(probs, out=probs).sum())


def _partial_sums(model):
    """Each history's next-letter partial sums, read two ways: ``(rows, letter)``.

    ``rows(h)`` gives the cumulated rows of an array of histories, shape
    (len(h), q); ``letter(h, u)`` gives ``bisect_right`` of a draw u in
    the first q - 1 partial sums of one history h.  A row is
    non-decreasing, so that is the letter u picks, and also the count of
    those q - 1 sums <= u; either gives a letter in 0..q-1 even when the
    full sum falls short of 1.0 by rounding.  Up to
    ``_SAMPLE_PRECOMPUTE_LIMIT`` entries both read the cumulated dense
    table; above it ``rows`` computes the rows of the histories it is
    given, and ``letter`` a history's row on its first visit, which it keeps.
    """
    q = model.alphabet.size
    if q**model.order * q <= _SAMPLE_PRECOMPUTE_LIMIT:
        if model.is_dense:
            table = np.cumsum(model.matrices[0], axis=1)
        else:  # a fresh table, cumulated where it lies
            table = _dense_table(model)
            np.cumsum(table, axis=1, out=table)
        cells = memoryview(table.ravel())

        def letter(h, u):
            lo = h * q
            return bisect_right(cells, u, lo, lo + q - 1) - lo

        return lambda h: table.take(h, axis=0), letter

    def rows(h):
        return np.cumsum(history_rows(model, h), axis=1)

    @cache
    def row(h):
        return rows(np.array([h]))[0, :-1].tolist()

    return rows, lambda h, u: bisect_right(row(h), u)


def _step_histories(rows, h, u, q, base) -> None:
    """Move each history in ``h`` on, in place and in its dtype, by the letter its draw picks."""
    letters = np.zeros(h.size, dtype=h.dtype)
    for partial in rows(h).T[:-1]:  # partial sum k of each history; the full sum is left out
        letters += partial <= u
    h %= base
    h *= q
    h += letters


def _speculate(rows, u, hist, h0, span, q, base) -> None:
    """Guess ``hist[s]``, the history after draw s, by chunks of ``span`` draws in lockstep.

    Chunk 0 starts from ``h0`` and is exact.  Every later chunk starts from
    history 0 run over the ``_SAMPLE_BURN_IN`` draws before it, which is
    the right start unless the two chains have not yet met.  The histories
    run in ``hist``'s dtype.
    """
    chunks = -(-u.size // span)
    h = np.zeros(chunks, dtype=hist.dtype)
    burn_in = min(_SAMPLE_BURN_IN, span)
    for s in range(span - burn_in, span):
        _step_histories(rows, h[1:], u[s::span][: chunks - 1], q, base)
    h[0] = h0
    for s in range(span):
        draws = u[s::span]  # the chunks still running at step s are the first len(draws)
        running = h[: draws.size]
        _step_histories(rows, running, draws, q, base)
        hist[s::span] = running


def _sample_array(length: int, allocate):
    """``allocate()``, a buffer of a sample of ``length`` letters, or :class:`ModelTooLarge`."""
    try:
        return allocate()
    except (ValueError, MemoryError) as err:
        raise ModelTooLarge(f"cannot allocate a sample of {length} letters: {err}") from None


def sample_sequence(model, length: int, seed, init="uniform") -> Sequence:
    """Draw a length-n sequence from the model, deterministically per seed.

    ``init`` is either ``"uniform"`` (first m letters i.i.d. uniform) or an
    explicit m-letter prefix (symbol indices, oldest first).  The letters
    depend only on the model, ``length``, ``seed`` and ``init``, never on
    how the draws are chunked: the prefix (if uniform) comes from
    ``rng.integers``, and letter t > m is the row of the history before it
    bisected at the (t - m)-th value of one ``rng.random(length - m)`` call.

    The draws are cut into chunks of about sqrt(2 (n - m)) that run in
    numpy lockstep, each later chunk from a guessed start.  A scalar pass
    then walks the chunks in order and re-draws each from its true start
    only until its history meets the guessed one, after which the two
    share every letter.  Both read the rows of :func:`_partial_sums`,
    precomputed for a small model and computed per history for a large
    one.

    Memory: the rows are built first, cumulated in the dense table they
    come from, so one table is all the draws coexist with.  Then each
    letter costs its 8-byte draw plus its history after the draw, in the
    narrowest unsigned dtype that holds q**m - 1 and q (2 bytes at q = 4,
    m = 8); the one-byte letters are
    written once the draws are released.  Raises :class:`ModelTooLarge`
    when history indices overflow int64 or the draws or letters cannot be
    allocated.
    """
    m = model.order
    q = model.alphabet.size
    _check_word_space(q, m)
    length = int(length)
    if length < m:
        raise ShapeMismatch(f"length {length} shorter than order {m}")
    rng = np.random.default_rng(seed)
    if isinstance(init, str):
        if init != "uniform":
            raise ValueError(f"unknown init policy {init!r}")
        prefix = rng.integers(0, q, size=m)
    else:
        prefix = _check_history(model, init, "init prefix")
    n = length - m
    rows, letter = _partial_sums(model) if n else (None, None)
    # hist[s] is the history after draw s until the last step turns it into its letter
    # the dtype holds every history and the multiplier q, which at m = 1 exceeds q**m - 1
    hist = _sample_array(length, lambda: np.empty(n, np.min_scalar_type(max(q**m - 1, q))))
    u = _sample_array(length, lambda: rng.random(n))
    if n:
        base = q ** (m - 1)
        h = word_to_index(prefix, q)
        span = isqrt(2 * n)
        _speculate(rows, u, hist, h, span, q, base)
        with memoryview(u) as draws, memoryview(hist) as guess:
            for lo in range(0, n, span):
                hi = min(lo + span, n)
                for t in range(lo, hi):
                    h = (h % base) * q + letter(h, draws[t])
                    if guess[t] == h:
                        break  # the guessed chain from here on is the true one
                    guess[t] = h
                h = guess[hi - 1]
        hist %= q
    del u  # the letters take the draws' place
    letters = _sample_array(length, lambda: np.empty(length, model.alphabet.letter_dtype))
    letters[:m] = prefix
    letters[m:] = hist
    return Sequence.__new__(Sequence)._adopt(model.alphabet, letters, None)


def _normalize_rows(num: np.ndarray, empty) -> np.ndarray:
    """Each row of ``num`` over its sum; ``empty`` (broadcast to ``num``) where the sum is 0."""
    sums = num.sum(axis=1, keepdims=True)
    return np.where(sums > 0.0, num / np.where(sums == 0.0, 1.0, sums), empty)


def _positive_rows(rng, shape) -> np.ndarray:
    """Rows of strictly positive weights normalized to sum 1."""
    while True:
        raw = rng.random(shape)
        if (raw > 0.0).all():
            rows = raw / raw.sum(axis=-1, keepdims=True)
            if (rows > 0.0).all():
                return rows


def _resolve_alphabet(alphabet, q) -> Alphabet:
    alphabet = alphabet or default_alphabet(q)
    if alphabet.size != q:
        raise AlphabetMismatch(f"alphabet size {alphabet.size} != q = {q}")
    return alphabet


def random_mtd(q, order, lag_order, variant="general", seed=0, alphabet=None) -> MtdModel:
    """Random MTD model: phi and all matrix rows are normalized uniforms."""
    _check_dense_size(q, lag_order)  # before the alphabet, which has q symbols
    alphabet = _resolve_alphabet(alphabet, q)
    rng = np.random.default_rng(seed)
    G = order - lag_order + 1
    phi = _positive_rows(rng, (G,))
    n_mats = 1 if variant == "single_matrix" else G
    mats = [_positive_rows(rng, (q**lag_order, q)) for _ in range(n_mats)]
    return MtdModel(alphabet, order, lag_order, phi, mats, variant=variant)


def random_full_markov(q, order, seed=0, alphabet=None) -> MtdModel:
    """Random full Markov model (the MTD model with l = m): every row a normalized uniform draw."""
    _check_dense_size(q, order)
    alphabet = _resolve_alphabet(alphabet, q)
    rng = np.random.default_rng(seed)
    return MtdModel(alphabet, order, order, [1.0], [_positive_rows(rng, (q**order, q))])
