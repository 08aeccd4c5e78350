"""Core value types: alphabets, sequences, MTD and full Markov models.

An order-m MTD model predicts the next letter as a convex mixture over
lags: each lag g carries a weight phi_g and a stochastic matrix pi_g
mapping the l-letter block ending at lag g to a distribution over the
next letter.  With l = 1 every lag looks at a single letter; the
``single_matrix`` variant shares one matrix across all lags.

Word-index convention (used everywhere, including file formats): a word
spelled oldest letter first is read as a base-q numeral, so the most
recent letter is the least significant digit.  A history (i_m, ..., i_1)
has index sum_g idx(i_g) * q**(g-1); appending the next letter i_0 gives
the (m+1)-word index sum_g idx(i_g) * q**g.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatch, InvalidSymbol, ModelTooLarge, ShapeMismatch

ROW_SUM_TOL = 1e-12
MAX_TABLE_ENTRIES = 10**8
_INT64_MAX = 2**63 - 1

# dense transition tables above this size are not precomputed for sampling
_SAMPLE_PRECOMPUTE_LIMIT = 4 * 10**6


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct symbol labels; a symbol's index is its position."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(str(s) for s in self.symbols))
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet labels must be distinct")
        object.__setattr__(self, "_lookup", {s: i for i, s in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, label: str) -> int:
        try:
            return self._lookup[label]
        except KeyError:
            raise InvalidSymbol(f"symbol {label!r} not in alphabet {self.symbols}") from None

    def encode(self, labels) -> np.ndarray:
        return np.array([self.index(s) for s in labels], dtype=np.int64)

    def decode(self, indices) -> list[str]:
        return [self.symbols[self.check_index(i)] for i in indices]

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


def _separator(alphabet: Alphabet) -> str:
    """Letters in sequence and counts files are joined by ',' if any symbol is longer than one."""
    return "," if any(len(s) > 1 for s in alphabet.symbols) else ""


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
    return "".join(alphabet.symbols[i] for i in index_to_word(index, length, alphabet.size))


@dataclass(frozen=True)
class Sequence:
    """A sequence of symbol indices over an alphabet."""

    alphabet: Alphabet
    data: np.ndarray
    name: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.int64)
        if arr.ndim != 1:
            raise ShapeMismatch("sequence data must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.alphabet.size):
            raise InvalidSymbol("sequence contains indices outside the alphabet")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        return int(self.data.size)

    def labels(self) -> str:
        """The symbols spelled in order, joined by ',' if any symbol has several characters."""
        return _separator(self.alphabet).join(self.alphabet.symbols[i] for i in self.data)


def _freeze(a) -> np.ndarray:
    arr = np.array(a, dtype=np.float64)
    arr.flags.writeable = False
    return arr


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
        raise ValueError(f"{what} row {r} sums to {matrix[r].sum()!r}, expected 1")


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
        G = order - lag_order + 1
        phi = _freeze(phi)
        if phi.shape != (G,):
            raise ShapeMismatch(f"phi has shape {phi.shape}, expected ({G},)")
        if phi.min() < 0.0 or abs(phi.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError("phi must be nonnegative and sum to 1")
        matrices = [_freeze(mat) for mat in matrices]
        expected = 1 if variant == "single_matrix" else G
        if len(matrices) != expected:
            raise ShapeMismatch(f"expected {expected} matrices, got {len(matrices)}")
        for i, mat in enumerate(matrices):
            validate_stochastic(mat, q**lag_order, q, what=f"pi_{i + 1}")
        self.alphabet = alphabet
        self.order = order
        self.lag_order = lag_order
        self.variant = variant
        self.phi = phi
        self.matrices = matrices

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

    def __repr__(self):
        return (
            f"MtdModel(q={self.alphabet.size}, m={self.order}, l={self.lag_order}, "
            f"variant={self.variant!r})"
        )


class FullMarkovModel:
    """Unconstrained order-m Markov model as a dense q**m x q table."""

    def __init__(self, alphabet, order, table):
        order = int(order)
        if order < 1:
            raise ValueError("order must be >= 1")
        q = alphabet.size
        table = _freeze(table)
        validate_stochastic(table, q**order, q, what="transition table")
        self.alphabet = alphabet
        self.order = order
        self.table = table

    def __eq__(self, other):
        if not isinstance(other, FullMarkovModel):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.order == other.order
            and np.array_equal(self.table, other.table)
        )

    def __repr__(self):
        return f"FullMarkovModel(q={self.alphabet.size}, m={self.order})"


def _check_history(model, history) -> np.ndarray:
    hist = np.asarray(history, dtype=np.int64)
    if hist.ndim != 1 or hist.size != model.order:
        raise ShapeMismatch(f"history length {hist.size}, expected {model.order}")
    q = model.alphabet.size
    if hist.size and (hist.min() < 0 or hist.max() >= q):
        raise InvalidSymbol("history contains indices outside the alphabet")
    return hist


def _flat_matrices(model: MtdModel) -> np.ndarray:
    """The model's matrices laid end to end, row-major: the table :func:`_cell_index` indexes."""
    return np.concatenate([mat.ravel() for mat in model.matrices])


def _lag_cells(word_indices: np.ndarray, g: int, q: int, l: int) -> np.ndarray:
    """Position of pi_g(block_g(w), i_0(w)) in lag g's (q**l, q) matrix, row-major.

    block_g is the l-letter block whose most recent letter sits at lag g.
    """
    cells = word_indices // q**g
    cells %= q**l
    cells *= q
    cells += word_indices % q
    return cells


def _cell_index(model: MtdModel, word_indices: np.ndarray) -> np.ndarray:
    """Position of pi_g(block_g(w), i_0(w)) in :func:`_flat_matrices`, shape (G, n_words).

    Row g-1 is (g-1)*q**(l+1) plus the :func:`_lag_cells` of lag g.  The
    single-matrix variant drops the g offset, so every lag reads (and, in
    a ``bincount``, writes) the one shared matrix.
    """
    q = model.alphabet.size
    l = model.lag_order
    word_indices = np.asarray(word_indices, dtype=np.int64)
    stride = 0 if model.variant == "single_matrix" else q ** (l + 1)
    cells = np.empty((model.n_components, word_indices.size), dtype=np.int64)
    for g in range(1, model.n_components + 1):
        np.add(_lag_cells(word_indices, g, q, l), (g - 1) * stride, out=cells[g - 1])
    return cells


def _component_terms(model: MtdModel, cells: np.ndarray) -> np.ndarray:
    """phi_g * pi_g(block_g, i_0) gathered through a :func:`_cell_index` array."""
    terms = _flat_matrices(model)[cells]
    terms *= model.phi[:, None]
    return terms


def word_probabilities(model, word_indices: np.ndarray) -> np.ndarray:
    """Probability of each (m+1)-word's final letter given its history."""
    word_indices = np.asarray(word_indices, dtype=np.int64)
    q = model.alphabet.size
    if isinstance(model, FullMarkovModel):
        return model.table[word_indices // q, word_indices % q]
    # one lag at a time: (G, n_words) arrays would set the peak memory of
    # scoring large count tables
    probs = np.zeros(word_indices.size)
    for g in range(1, model.n_components + 1):
        terms = model.matrix_for_lag(g).ravel()[_lag_cells(word_indices, g, q, model.lag_order)]
        terms *= model.phi[g - 1]
        probs += terms
    return probs


def transition_prob(model: MtdModel, history, next_symbol: int) -> float:
    """Probability of ``next_symbol`` after the m-letter ``history``.

    ``history`` is given oldest letter first; for lag_order l the
    component at lag g conditions on the block (y_{t-g-l+1}, ..., y_{t-g}).
    """
    hist = _check_history(model, history)
    q = model.alphabet.size
    j = model.alphabet.check_index(next_symbol)
    if isinstance(model, FullMarkovModel):
        return float(model.table[word_to_index(hist, q), j])
    word = word_to_index(hist, q) * q + j
    return float(word_probabilities(model, np.array([word]))[0])


def history_rows(model, history_indices: np.ndarray) -> np.ndarray:
    """Next-letter distribution row for each history index; shape (H, q)."""
    history_indices = np.asarray(history_indices, dtype=np.int64)
    if isinstance(model, FullMarkovModel):
        return model.table[history_indices]
    q = model.alphabet.size
    rows = np.zeros((history_indices.size, q))
    for g in range(1, model.n_components + 1):
        # history digit positions g-1 .. g+l-2 hold the lag-g block
        blocks = (history_indices // q ** (g - 1)) % q**model.lag_order
        rows += model.phi[g - 1] * model.matrix_for_lag(g)[blocks]
    return rows


def full_transition_matrix(model: MtdModel) -> FullMarkovModel:
    """Expand an MTD model to its dense order-m transition table."""
    q = model.alphabet.size
    if q ** (model.order + 1) > MAX_TABLE_ENTRIES:
        raise ModelTooLarge(
            f"q**(m+1) = {q}**{model.order + 1} exceeds {MAX_TABLE_ENTRIES} entries"
        )
    rows = history_rows(model, np.arange(q**model.order))
    return FullMarkovModel(model.alphabet, model.order, rows)


def _check_word_space(q: int, k: int) -> None:
    """Raise :class:`ModelTooLarge` unless every k-letter word index fits in int64."""
    if q**k > _INT64_MAX:
        raise ModelTooLarge(f"{k}-letter words over {q} symbols overflow 64-bit word indices")


def _window_word_indices(data: np.ndarray, k: int, q: int) -> np.ndarray:
    """Indices of all length-k windows of ``data`` (empty if too short)."""
    _check_word_space(q, k)
    n = data.size
    if n < k:
        return np.empty(0, dtype=np.int64)
    idx = np.zeros(n - k + 1, dtype=np.int64)
    for off in range(k):
        idx = idx * q + data[off : n - k + 1 + off]
    return idx


def sequence_loglik(model, seq: Sequence) -> float:
    """Conditional log-likelihood of ``seq`` under ``model``.

    The first m letters are conditioned on; the returned value is
    sum_{t=m+1..n} log P(y_t | y_{t-m}, ..., y_{t-1}).  A sequence with no
    scored position returns 0.0 (empty sum) with a warning.  If any scored
    transition has probability zero the -inf sentinel is returned and a
    warning names the offending word.
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
    words = _window_word_indices(seq.data, m + 1, q)
    probs = word_probabilities(model, words)
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
    return float(np.log(probs).sum())


def _cumulative_rows(model):
    """Row sampler: history index -> cumulative next-letter distribution."""
    q = model.alphabet.size
    n_hist = q**model.order
    if n_hist * q <= _SAMPLE_PRECOMPUTE_LIMIT:
        cum = np.cumsum(history_rows(model, np.arange(n_hist)), axis=1)
        cum[:, -1] = 1.0
        rows = [list(r) for r in cum]
        return rows.__getitem__
    cache: dict[int, list] = {}

    def lookup(h: int) -> list:
        row = cache.get(h)
        if row is None:
            row = list(np.cumsum(history_rows(model, np.array([h]))[0]))
            row[-1] = 1.0
            cache[h] = row
        return row

    return lookup


def sample_sequence(model, length: int, seed, init="uniform") -> Sequence:
    """Draw a length-n sequence from the model, deterministically per seed.

    ``init`` is either ``"uniform"`` (first m letters i.i.d. uniform) or an
    explicit m-letter prefix (symbol indices, oldest first).
    """
    m = model.order
    q = model.alphabet.size
    length = int(length)
    if length < m:
        raise ShapeMismatch(f"length {length} shorter than order {m}")
    rng = np.random.default_rng(seed)
    if isinstance(init, str):
        if init != "uniform":
            raise ValueError(f"unknown init policy {init!r}")
        prefix = rng.integers(0, q, size=m)
    else:
        prefix = np.asarray(init, dtype=np.int64)
        if prefix.shape != (m,):
            raise ShapeMismatch(f"init prefix length {prefix.size}, expected {m}")
        if m and (prefix.min() < 0 or prefix.max() >= q):
            raise InvalidSymbol("init prefix contains indices outside the alphabet")
    data = list(int(s) for s in prefix)
    if length > m:
        row_for = _cumulative_rows(model)
        h = word_to_index(prefix, q)
        base = q ** (m - 1)
        draws = rng.random(length - m)
        for u in draws:
            j = bisect_right(row_for(h), u)
            if j >= q:  # cumulative row short of 1.0 by rounding
                j = q - 1
            data.append(j)
            h = (h % base) * q + j
    return Sequence(model.alphabet, np.array(data, dtype=np.int64))


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
    alphabet = _resolve_alphabet(alphabet, q)
    rng = np.random.default_rng(seed)
    G = order - lag_order + 1
    phi = _positive_rows(rng, (G,))
    n_mats = 1 if variant == "single_matrix" else G
    mats = [_positive_rows(rng, (q**lag_order, q)) for _ in range(n_mats)]
    return MtdModel(alphabet, order, lag_order, phi, mats, variant=variant)


def random_full_markov(q, order, seed=0, alphabet=None) -> FullMarkovModel:
    """Random dense order-m model: every row a normalized uniform draw."""
    alphabet = _resolve_alphabet(alphabet, q)
    rng = np.random.default_rng(seed)
    return FullMarkovModel(alphabet, order, _positive_rows(rng, (q**order, q)))
