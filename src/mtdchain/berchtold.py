"""Coordinate-ascent baseline optimizer for MTD likelihoods.

Treats phi and every matrix row as independent probability vectors.  One
iteration moves delta of mass within each vector from its
smallest-derivative component to its largest-derivative one, along the
gradient of the conditional log-likelihood at the current point: one
:func:`berchtold_step` for phi and one for all matrix rows at once.  If
the composite move fails to increase the log-likelihood it is reverted
and delta decays geometrically on one fixed schedule, so the baseline
has no step-size knob: of :class:`EmConfig` it reads only ``epsilon``
and ``max_iters``, the stopping rule :func:`em_fit` reads.  It climbs
in EM's one loop, ``em._climb``, which keeps the trace, the budget and
the stop: :func:`berchtold_fit` supplies only its step, one candidate
per attempt.  The fit runs on EM's kernel (``em._Kernel``) on the
parameter vector theta = (phi, every matrix entry): the same cells,
feasibility check and gather, whose p(w) and log-likelihood decide
whether a candidate is accepted.  The gradient then reads the accepted
point's gather, so each iterate is gathered once, both fitters share one
likelihood, and only the reported model is built as an
:class:`MtdModel`.  Kept as a comparison baseline for the EM fitter, not
as a faithful reproduction of any published delta schedule.
"""

from __future__ import annotations

import numpy as np

from .counts import NGramCounts
from .em import EmConfig, FitReport, _climb, _Kernel, _make_report
from .model import MtdModel


def loglik_gradient(model: MtdModel, counts: NGramCounts):
    """Gradient of sum_w N(w) log p(w) in the raw (phi, pi) coordinates.

    Returns arrays ``(d_phi, d_pi)``: ``d_phi[g-1]`` is d L / d phi_g and
    ``d_pi[g-1][b, j]`` is d L / d pi_g(b, j), shape (number of matrices,
    q**l, q); for the single-matrix variant ``d_pi`` holds one matrix
    pooled over lags.  It is the fit kernel's gradient:

    d L / d phi_g     = sum_w N(w) pi_g(block_g, i0) / p(w)
    d L / d pi_g(b,j) = sum over words with block_g = b, i0 = j of
                        N(w) phi_g / p(w)
    """
    kernel, theta = _Kernel.of(counts, model)
    point = kernel.gather(theta)
    kernel.check_positive(point.probs)
    return kernel.split(kernel.gradient(point))


# delta starts at _DELTA0, is multiplied by _DELTA_DECAY on each reverted move,
# and the fit stops once it falls below _MIN_DELTA
_DELTA0 = 0.1
_DELTA_DECAY = 0.5
_MIN_DELTA = 1e-6


def berchtold_step(vectors: np.ndarray, gradients: np.ndarray, delta: float) -> np.ndarray:
    """Move mass delta within each simplex row along its extreme derivatives.

    ``vectors`` is a (rows, k) array, or one row as a 1-D vector, and
    ``gradients`` has its shape.  Each row adds to its largest-derivative
    component and subtracts from its smallest (ties resolved to the
    lowest index), clamped so the row stays on the simplex; a row whose
    derivatives are all equal is returned unchanged.
    """
    out = np.array(vectors, dtype=np.float64)
    rows = out.reshape(-1, out.shape[-1])
    grads = np.reshape(gradients, rows.shape)
    i = np.arange(len(rows))
    a = grads.argmax(axis=1)
    b = grads.argmin(axis=1)
    moved = a != b
    move = np.where(moved, np.minimum(np.minimum(float(delta), rows[i, b]), 1.0 - rows[i, a]), 0.0)
    rows[i, b] -= move
    rows[i, a] += move
    rows[moved] = np.clip(rows[moved], 0.0, 1.0)
    return out


def berchtold_fit(
    counts: NGramCounts, init: MtdModel, config: EmConfig | None = None
) -> FitReport:
    """Accept-or-revert coordinate ascent from ``init``.

    The gradient is computed once per accepted point, from the gather
    that accepted it, when the next attempt starts there; phi and every
    matrix row then take one step each.
    A candidate is accepted only if it is a feasible model with a higher
    log-likelihood, so the trace, which holds the initial log-likelihood
    followed by every accepted value, is strictly increasing.  Stops when
    an accepted increase falls below ``config.epsilon``, when delta
    decays below 1e-6 (a stall, reported as converged), or after
    ``config.max_iters`` candidates, reverted ones included; the other
    fields of ``config`` are not read.  Its input is checked as
    :func:`em_fit`'s is.
    """
    config = config or EmConfig()
    kernel, theta = _Kernel.of(counts, init)
    G, delta, grad = kernel.G, _DELTA0, None  # no gradient is taken at the current point yet
    point = kernel.gather(theta)
    kernel.check_positive(point.probs)

    def step(point):
        nonlocal delta, grad
        if grad is None:
            grad = kernel.gradient(point)
        rows = berchtold_step(kernel.rows(point.theta), kernel.rows(grad), delta)
        candidate = np.concatenate([berchtold_step(point.theta[:G], grad[:G], delta), rows.ravel()])
        new = kernel.gather(candidate) if kernel.feasible(candidate) else None
        if new is not None and new.loglik > point.loglik:
            grad = None
            return point.loglik, new
        delta *= _DELTA_DECAY
        return (point.loglik if delta >= _MIN_DELTA else None), None

    theta, trace, stop = _climb(point, step, config.epsilon, config.max_iters)
    return _make_report(kernel, theta, trace, stop)
