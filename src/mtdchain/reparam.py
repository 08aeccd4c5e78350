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

import numpy as np

from .errors import NotAnMtdPoint, ShapeMismatch
from .model import (
    ROW_SUM_TOL,
    Alphabet,
    MtdModel,
    _adopt_dense,
    _build_dense,
    _check_word_space,
    _renormalize_strays,
    history_rows,
    validate_stochastic,
)


class ThetaU:
    """One-block transition rows of an MTD model around reference letter u.

    ``tables[g-1][b]`` is the next-letter distribution after the history
    equal to u everywhere except that the block with index b occupies lag
    positions g..g+l-1.  Windows g-1 and g share positions g..g+l-2, so
    the rows of table g whose top (oldest) letter is u equal the rows of
    table g-1 whose bottom letter is u: both are the transition rows of
    the histories that are u outside the shared positions.  The
    constructor checks this with exact equality.  The row at the all-u
    block is therefore the same in every table (it is the transition row
    of the history u...u) and is exposed as :attr:`base_row`.
    """

    def __init__(self, alphabet: Alphabet, order, lag_order, u, tables):
        order = int(order)
        lag_order = int(lag_order)
        if not 1 <= lag_order <= order:
            raise ValueError("lag_order must satisfy 1 <= l <= m")
        q = alphabet.size
        _check_word_space(q, lag_order)
        u = alphabet.check_index(u)
        G = order - lag_order + 1
        tables = [np.array(t, dtype=np.float64) for t in tables]
        if len(tables) != G:
            raise ShapeMismatch(f"expected {G} tables, got {len(tables)}")
        for g, t in enumerate(tables, start=1):
            validate_stochastic(t, q**lag_order, q, what=f"p_u table for lag {g}")
        shared = q ** (lag_order - 1)
        for g in range(1, G):
            if not np.array_equal(tables[g][u * shared : (u + 1) * shared], tables[g - 1][u::q]):
                raise ValueError(
                    f"lag-{g + 1} table differs from the lag-{g} table on their shared rows"
                )
        self._adopt(alphabet, order, lag_order, u, tables)

    def _adopt(self, alphabet, order, lag_order, u, tables) -> ThetaU:
        """Set the fields to checked tables, freezing their fresh float64 arrays in place."""
        for t in tables:
            t.flags.writeable = False
        self.alphabet = alphabet
        self.order = order
        self.lag_order = lag_order
        self.u = u
        self.tables = tables
        return self

    @staticmethod
    def _u_block(u: int, lag_order: int, q: int) -> int:
        """Index of the block that is u at each of its ``lag_order`` letters."""
        return u * (q**lag_order - 1) // (q - 1)

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
    full q**m table: :func:`history_rows`, with ``letters`` left out,
    gathers the whole rows of these histories.  They are rows of the
    checked model, renormalized where they stray from 1 beyond
    ``ROW_SUM_TOL``, and the rows two tables share are the same histories'
    rows, equal by construction, so the tables are adopted unchecked.
    """
    q = model.alphabet.size
    u = model.alphabet.check_index(u)
    m, l = model.order, model.lag_order
    _check_word_space(q, m)
    u_all = ThetaU._u_block(u, m, q)
    u_block = ThetaU._u_block(u, l, q)
    tables = []
    for g in range(1, model.n_components + 1):
        # replace the l digits at positions g-1..g+l-2 of the all-u history
        shift = q ** (g - 1)
        hist = u_all + (np.arange(q**l) - u_block) * shift
        tables.append(_renormalize_strays(history_rows(model, hist)))
    return ThetaU.__new__(ThetaU)._adopt(model.alphabet, m, l, u, tables)


def from_theta_u(theta: ThetaU) -> MtdModel:
    """Rebuild the dense transition table from one-block rows, as the MTD model with l = m.

    An MTD row is the sum of anchored interaction terms over position
    sets that fit in one window g..g+l-1.  Window g's table holds the sum
    of the terms inside it, and the overlap with window g-1 (window g's
    block with its top letter set to u) the sum of the terms inside
    both.  A set inside k consecutive windows is inside k-1 of their
    overlaps, so

        row(x) = sum_g T_g[x on window g] - sum_{g>=2} T_g[x on window g, top letter u]

    counts every interaction once, and the base row once; for l = 1 it is
    sum_g T_g[x_g] - (m-1) * base_row.  Each term is broadcast along a window
    of the dense table, the overlap negated at the (l-1)-letter block at lag g.

    Not every consistent table set is the image of an MTD model;
    reconstructed probabilities outside [-1e-9, 1+1e-9] raise
    :class:`NotAnMtdPoint`.
    """
    q = theta.alphabet.size
    m, l, u = theta.order, theta.lag_order, theta.u
    shared = q ** (l - 1)
    terms = []
    for g, t in enumerate(theta.tables, start=1):
        terms.append((g, l, t))
        if g > 1:
            terms.append((g, l - 1, -t[u * shared : (u + 1) * shared]))
    table = _build_dense(q, m, terms)
    low, high = table.min(), table.max()
    if low < -1e-9 or high > 1.0 + 1e-9:
        bad = np.unravel_index(
            int(np.argmax(np.maximum(-table, table - 1.0))), table.shape
        )
        raise NotAnMtdPoint(
            f"reconstructed probability {float(table[bad])!r} at history {bad[0]}, "
            f"letter {bad[1]} falls outside [0, 1]"
        )
    table = np.clip(table, 0.0, 1.0)
    table /= table.sum(axis=1, keepdims=True)
    return _adopt_dense(theta.alphabet, m, table)


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
    conventions agree on (m-1) + q(q-1).  A full Markov model is the MTD
    model with l = m, where both formulas give q**m (q-1).
    """
    q = model.alphabet.size
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
