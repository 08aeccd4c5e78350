"""Stationary word distributions and total variation distance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatch, NonConvergentStationary
from .model import Alphabet, _check_dense_size, full_transition_matrix

_POWER_TOL = 1e-12
_MAX_SWEEPS = 10**5
# sweeps between two checks that the plain power iteration still contracts
_STRETCH = 100


@dataclass(frozen=True)
class WordDistribution:
    """Dense distribution over all length-k words (word-index order)."""

    alphabet: Alphabet
    word_length: int
    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        q, k = self.alphabet.size, self.word_length
        # q >= 2, so no array holds q**k entries once k >= 63; testing it first keeps q**k small
        if k >= 63 or arr.shape != (q**k,):
            raise ValueError(f"expected {q}**{k} probabilities, got {arr.shape}")
        if abs(arr.sum() - 1.0) > 1e-9:
            raise ValueError(f"word distribution sums to {float(arr.sum())!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)


def stationary_histories(model) -> np.ndarray:
    """Stationary distribution over the q**m history states, by power iteration.

    Iterates mu <- mu T on the expanded chain until the L1 change drops
    to 1e-12 (at most 1e5 sweeps, else :class:`NonConvergentStationary`).
    A stochastic T never lengthens the change, and an aperiodic
    irreducible chain shrinks it strictly over any stretch of sweeps at
    least as long as its primitivity index (at most m when every m-step
    move has positive probability).  A change that has not shrunk over a
    stretch of 100 sweeps therefore marks a periodic chain (or one too
    slow to converge within the cap), and the iteration goes on with the
    lazy chain (I + T) / 2, which has the same stationary laws and no
    period.  A chain whose change shrinks over every stretch keeps the
    plain iteration and its bits.
    """
    table = full_transition_matrix(model).matrices[0]
    n_hist, q = table.shape
    mu = np.full(n_hist, 1.0 / n_hist)
    lazy, checked = False, np.inf  # checked: the change at the last stretch's end
    for sweep in range(1, _MAX_SWEEPS + 1):
        # history h = a * q**(m-1) + r moves to r * q + j after letter j, and
        # flat entry h * q + j is a * q**m + (r * q + j): summing the (q, n_hist)
        # view over a adds each successor's terms in increasing h
        nxt = (mu[:, None] * table).reshape(q, n_hist).sum(axis=0)
        if lazy:
            nxt += mu
            nxt *= 0.5
        change = np.abs(nxt - mu).sum()
        if change <= _POWER_TOL:
            return nxt
        mu = nxt
        if sweep % _STRETCH == 0:
            lazy = lazy or change >= checked
            checked = change
    raise NonConvergentStationary(
        f"power iteration did not reach tolerance {_POWER_TOL} in {_MAX_SWEEPS} sweeps"
    )


def word_distribution(model, word_length: int) -> WordDistribution:
    """Distribution of a length-k window under the model's stationary law."""
    q = model.alphabet.size
    m = model.order
    k = int(word_length)
    if k < 1:
        raise ValueError("word_length must be >= 1")
    _check_dense_size(q, k - 1)  # a table of q**k entries
    dense = full_transition_matrix(model)
    # marginal over the most recent min(k, m) letters (low digits of the history)
    probs = stationary_histories(dense).reshape(-1, q ** min(k, m)).sum(axis=0)
    for j in range(m, k):
        # the last m letters of a j-word, its low digits, are the history of its next letter
        probs = (probs.reshape(q ** (j - m), q**m, 1) * dense.matrices[0]).ravel()
    return WordDistribution(model.alphabet, k, probs)


def tv_distance(p: WordDistribution, q: WordDistribution) -> float:
    """Total variation distance sum_x |P(x) - Q(x)| (un-halved; range [0, 2])."""
    if p.alphabet != q.alphabet or p.word_length != q.word_length:
        raise AlphabetMismatch("word distributions have different alphabets or lengths")
    return float(np.abs(p.probs - q.probs).sum())
