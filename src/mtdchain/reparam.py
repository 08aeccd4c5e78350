"""Identifiable reparametrization, model dimensions, and BIC.

The raw (phi, pi) parametrization of a general MTD model is not
injective: distinct parameter vectors can expand to the same transition
table.  The tables here store, for a reference letter u, the transition
rows of all histories that equal u everywhere except for one l-letter
block.  These rows are genuine transition probabilities of the model, so
equal models give equal tables, and the table determines the full
transition law.  Its free-parameter count is also the model dimension
used for BIC.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import NotAnMtdPoint, ShapeMismatch
from .model import (
    ROW_SUM_TOL,
    Alphabet,
    FullMarkovModel,
    MtdModel,
    _freeze,
    history_rows,
    validate_stochastic,
)


class ThetaU:
    """One-block transition rows of an MTD model around reference letter u.

    ``tables[g-1][b]`` is the next-letter distribution after the history
    equal to u everywhere except that the block with index b occupies lag
    positions g..g+l-1.  The row at the all-u block is the same in every
    table (it is the transition row of the history u...u) and is exposed
    as :attr:`base_row`.
    """

    def __init__(self, alphabet: Alphabet, order, lag_order, u, tables):
        order = int(order)
        lag_order = int(lag_order)
        if not 1 <= lag_order <= order:
            raise ValueError("lag_order must satisfy 1 <= l <= m")
        q = alphabet.size
        u = alphabet.check_index(u)
        G = order - lag_order + 1
        tables = [_freeze(t) for t in tables]
        if len(tables) != G:
            raise ShapeMismatch(f"expected {G} tables, got {len(tables)}")
        for g, t in enumerate(tables, start=1):
            validate_stochastic(t, q**lag_order, q, what=f"p_u table for lag {g}")
        ub = self._u_block(u, lag_order, q)
        for g, t in enumerate(tables[1:], start=2):
            if not np.array_equal(t[ub], tables[0][ub]):
                raise ValueError(f"all-u row of lag-{g} table differs from the base row")
        self.alphabet = alphabet
        self.order = order
        self.lag_order = lag_order
        self.u = u
        self.tables = tables

    @staticmethod
    def _u_block(u: int, lag_order: int, q: int) -> int:
        b = 0
        for _ in range(lag_order):
            b = b * q + u
        return b

    @property
    def n_components(self) -> int:
        return self.order - self.lag_order + 1

    @property
    def base_row(self) -> np.ndarray:
        """Transition row of the all-u history."""
        return self.tables[0][self._u_block(self.u, self.lag_order, self.alphabet.size)]

    def __eq__(self, other):
        if not isinstance(other, ThetaU):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and (self.order, self.lag_order, self.u) == (other.order, other.lag_order, other.u)
            and all(np.array_equal(a, b) for a, b in zip(self.tables, other.tables))
        )

    def __repr__(self):
        return (
            f"ThetaU(q={self.alphabet.size}, m={self.order}, l={self.lag_order}, "
            f"u={self.alphabet.symbols[self.u]!r})"
        )


def to_theta_u(model: MtdModel, u) -> ThetaU:
    """Transition rows of all one-block perturbations of the u...u history.

    Computed directly from the model's components, without expanding the
    full q**m table.
    """
    q = model.alphabet.size
    u = model.alphabet.check_index(u)
    m, l = model.order, model.lag_order
    u_all = 0
    for _ in range(m):
        u_all = u_all * q + u
    u_block = ThetaU._u_block(u, l, q)
    tables = []
    for g in range(1, model.n_components + 1):
        # replace the l digits at positions g-1..g+l-2 of the all-u history
        shift = q ** (g - 1)
        hist = u_all + (np.arange(q**l) - u_block) * shift
        tables.append(history_rows(model, hist))
    return ThetaU(model.alphabet, m, l, u, tables)


def _interaction_rows(theta: ThetaU):
    """Memoized Moebius interaction terms over within-window position sets.

    For positions T = (p_1 < ... < p_k) spanning at most l and letters x_T,
    the interaction is sum over subsets R of T of (-1)**|T-R| times the
    stored row of the history that matches x on R and is u elsewhere.
    Rows of the full table are base_row + sum of interactions over all
    within-window subsets of the history's non-u positions.
    """
    q = theta.alphabet.size
    l = theta.lag_order
    u = theta.u
    base = theta.base_row
    cache: dict[tuple, np.ndarray] = {}

    def stored_row(positions, letters):
        if not positions:
            return base
        h = max(1, positions[-1] - l + 1)  # canonical window containing all positions
        block = 0
        for r in range(l - 1, -1, -1):  # block digits, oldest (highest position) first
            p = h + r
            block = block * q + (letters[positions.index(p)] if p in positions else u)
        return theta.tables[h - 1][block]

    def interaction(positions, letters):
        key = (positions, letters)
        row = cache.get(key)
        if row is None:
            row = np.zeros(q)
            k = len(positions)
            for size in range(k + 1):
                sign = -1.0 if (k - size) % 2 else 1.0
                for keep in combinations(range(k), size):
                    row = row + sign * stored_row(
                        tuple(positions[i] for i in keep),
                        tuple(letters[i] for i in keep),
                    )
            cache[key] = row
        return row

    return interaction


def from_theta_u(theta: ThetaU) -> FullMarkovModel:
    """Rebuild the dense transition table from one-block rows.

    Not every row-stochastic table with a shared all-u row is the image
    of an MTD model; reconstructed probabilities outside [-1e-9, 1+1e-9]
    raise :class:`NotAnMtdPoint`.
    """
    q = theta.alphabet.size
    m, l, u = theta.order, theta.lag_order, theta.u
    n_hist = q**m
    histories = np.arange(n_hist)
    if l == 1:
        # row(h) = sum_g table_g[i_g] - (m-1) * base_row
        table = np.tile(-(m - 1) * theta.base_row, (n_hist, 1))
        for g in range(1, m + 1):
            table += theta.tables[g - 1][(histories // q ** (g - 1)) % q]
    else:
        interaction = _interaction_rows(theta)
        table = np.tile(theta.base_row, (n_hist, 1))
        G = theta.n_components
        for h in histories:
            letters = [(int(h) // q ** (p - 1)) % q for p in range(1, m + 1)]
            non_u = [p for p in range(1, m + 1) if letters[p - 1] != u]
            if not non_u:
                continue
            seen = set()
            row = table[h]
            for g in range(1, G + 1):
                window = [p for p in non_u if g <= p <= g + l - 1]
                for size in range(1, len(window) + 1):
                    for positions in combinations(window, size):
                        if positions in seen:
                            continue
                        seen.add(positions)
                        row = row + interaction(
                            positions, tuple(letters[p - 1] for p in positions)
                        )
            table[h] = row
    low, high = table.min(), table.max()
    if low < -1e-9 or high > 1.0 + 1e-9:
        bad = np.unravel_index(
            int(np.argmax(np.maximum(-table, table - 1.0))), table.shape
        )
        raise NotAnMtdPoint(
            f"reconstructed probability {table[bad]!r} at history {bad[0]}, "
            f"letter {bad[1]} falls outside [0, 1]"
        )
    table = np.clip(table, 0.0, 1.0)
    table /= table.sum(axis=1, keepdims=True)
    return FullMarkovModel(theta.alphabet, m, table)


def dim_full_markov(order: int, q: int) -> int:
    """Free parameters of the unconstrained order-m model: q**m (q-1)."""
    return q**order * (q - 1)


def dim_raw_mtd(order: int, lag_order: int, q: int) -> int:
    """Free parameters of the raw (phi, pi) parametrization."""
    G = order - lag_order + 1
    return (G - 1) + G * q**lag_order * (q - 1)


def dim_theta_u(order: int, lag_order: int, q: int) -> int:
    """Free parameters of the one-block parametrization (model dimension bound)."""
    m, l = order, lag_order
    total = (1 + m * (q - 1)) * (q - 1)
    for k in range(2, l + 1):
        total += q ** (k - 2) * (q - 1) ** 3 * (m - k + 1)
    return total


def model_dimension(model, convention: str = "theta_u") -> int:
    """Dimension of a fitted model for BIC penalties.

    ``convention`` selects ``"theta_u"`` (identifiable bound, default) or
    ``"raw"`` for general MTD models and their :class:`ThetaU` tables.
    The single-matrix variant is bijectively parametrized, so both
    conventions agree on (m-1) + q(q-1); a full Markov model always
    counts q**m (q-1).
    """
    q = model.alphabet.size
    if isinstance(model, FullMarkovModel):
        return dim_full_markov(model.order, q)
    if isinstance(model, MtdModel) and model.variant == "single_matrix":
        return (model.order - 1) + q * (q - 1)
    if convention == "theta_u":
        return dim_theta_u(model.order, model.lag_order, q)
    if convention == "raw":
        return dim_raw_mtd(model.order, model.lag_order, q)
    raise ValueError(f"unknown dimension convention {convention!r}")


def bic(loglik: float, dim: int, n_terms: int) -> float:
    """Bayesian information criterion -2 loglik + dim ln(n); lower is better."""
    n_terms = int(n_terms)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if loglik == float("-inf"):
        return float("inf")
    return -2.0 * float(loglik) + dim * float(np.log(n_terms))
