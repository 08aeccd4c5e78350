"""Coordinate-ascent baseline optimizer for MTD likelihoods.

Treats phi and every matrix row as independent probability vectors.  One
iteration computes the gradient of the conditional log-likelihood once,
then moves delta of mass within each vector from its smallest-derivative
component to its largest-derivative one.  If the composite move fails to
increase the log-likelihood it is reverted and delta decays
geometrically.  Kept as a comparison baseline for the EM fitter, not as
a faithful reproduction of any published delta schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counts import NGramCounts
from .em import FitReport, _make_report, loglik_from_counts
from .errors import DegenerateLikelihood
from .model import MtdModel, _cell_index, _flat_matrices, spell_word


@dataclass
class BerchtoldConfig:
    """Step-size schedule and stopping rule for :func:`berchtold_fit`."""

    delta0: float = 0.1
    delta_decay: float = 0.5
    min_delta: float = 1e-6
    max_iters: int = 1000
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.delta0 <= 1.0:
            raise ValueError("delta0 must lie in (0, 1]")
        if not 0.0 < self.delta_decay < 1.0:
            raise ValueError("delta_decay must lie in (0, 1)")


@dataclass
class GradientSet:
    """Partial derivatives of the conditional log-likelihood.

    ``d_phi[g-1]`` is d L / d phi_g; ``d_pi[g-1][b, j]`` is
    d L / d pi_g(b, j).  For the single-matrix variant ``d_pi`` holds one
    matrix pooled over lags.
    """

    d_phi: np.ndarray
    d_pi: list[np.ndarray]


def loglik_gradient(model: MtdModel, counts: NGramCounts) -> GradientSet:
    """Gradient of sum_w N(w) log p(w) in the raw (phi, pi) coordinates.

    d L / d phi_g     = sum_w N(w) pi_g(block_g, i0) / p(w)
    d L / d pi_g(b,j) = sum over words with block_g = b, i0 = j of
                        N(w) phi_g / p(w)
    """
    ws = counts.word_indices()
    N = counts.values().astype(np.float64)
    cells = _cell_index(model, ws)
    flat = _flat_matrices(model)
    pi_vals = flat[cells]
    p = model.phi @ pi_vals
    if (p <= 0.0).any():
        pos = int(np.argmax(p <= 0.0))
        w = int(ws[pos])
        raise DegenerateLikelihood(
            f"observed word {spell_word(w, counts.word_length, counts.alphabet)!r} "
            "has zero probability; gradient undefined",
            word_index=w,
            word=spell_word(w, counts.word_length, counts.alphabet),
        )
    ratio = N / p
    d_phi = pi_vals @ ratio
    d_pi = np.bincount(cells.ravel(), weights=(model.phi[:, None] * ratio).ravel(), minlength=flat.size)
    return GradientSet(d_phi=d_phi, d_pi=list(d_pi.reshape(np.shape(model.matrices))))


def berchtold_step(vector: np.ndarray, gradient: np.ndarray, delta: float) -> np.ndarray:
    """Move mass delta within a simplex vector along the extreme derivatives.

    Adds to the largest-derivative component, subtracts from the smallest
    (ties resolved to the lowest index), clamped so the vector stays on
    the simplex.
    """
    a = int(np.argmax(gradient))
    b = int(np.argmin(gradient))
    out = np.array(vector, dtype=np.float64)
    if a == b:
        return out
    move = min(float(delta), float(out[b]), 1.0 - float(out[a]))
    out[b] -= move
    out[a] += move
    return np.clip(out, 0.0, 1.0)


def berchtold_fit(
    counts: NGramCounts, init: MtdModel, config: BerchtoldConfig | None = None
) -> FitReport:
    """Accept-or-revert coordinate ascent from ``init``.

    Gradients are recomputed once per iteration; phi is updated first,
    then every matrix row in ascending order.  The trace holds the
    initial log-likelihood followed by every accepted value, so it is
    strictly increasing.  Stops when an accepted increase falls below
    epsilon, when delta decays below min_delta, or at max_iters.
    """
    config = config or BerchtoldConfig()
    model = init
    current = loglik_from_counts(model, counts)
    if current == float("-inf"):
        raise DegenerateLikelihood("initial model assigns zero probability to an observed word")
    trace = [current]
    delta = config.delta0
    converged = False
    for _ in range(config.max_iters):
        grads = loglik_gradient(model, counts)
        phi = berchtold_step(model.phi, grads.d_phi, delta)
        mats = []
        for i, mat in enumerate(model.matrices):
            rows = np.stack(
                [berchtold_step(row, grads.d_pi[i][r], delta) for r, row in enumerate(mat)]
            )
            mats.append(rows)
        candidate = MtdModel(
            model.alphabet, model.order, model.lag_order, phi, mats, variant=model.variant
        )
        cand_ll = loglik_from_counts(candidate, counts)
        if cand_ll > current:
            increase = cand_ll - current
            model, current = candidate, cand_ll
            trace.append(current)
            if increase < config.epsilon:
                converged = True
                break
        else:
            delta *= config.delta_decay
            if delta < config.min_delta:
                converged = True
                break
    return _make_report(model, trace, converged, None, counts)
