"""EM estimation of MTD models from (m+1)-gram counts.

The model is treated as a mixture indexed by a hidden lag selector: the
selector picks component g with probability phi_g and the next letter is
then drawn from pi_g conditioned on the lag-g block alone.  The E-step
posterior of the selector given an observed (m+1)-word does not depend
on the word's position, so one pass over the distinct observed words
(weighted by their counts) is a full E-step, and the M-step is closed
form.  Each E+M pair cannot decrease the conditional log-likelihood.

Both steps run on one kernel, built once per fit: the (G, n_words) array
of flat cell indices (g-1)*q**(l+1) + block_g(w)*q + i_0(w) into the model's
matrices laid end to end (the single-matrix variant drops the g offset,
so its lags pool into one matrix).  An iteration is then one gather for
the weighted components phi_g * pi_g(w), whose sum over g is the E-step
denominator p(w) and also gives the log-likelihood of the current
iterate, and one ``bincount`` over the same cells for the M-step
numerators.

The EM map F runs in SQUAREM cycles (Varadhan & Roland 2008, Scand.
J. Stat. 35:335), scheme SqS3.  A cycle takes two EM maps
from theta_0, theta_1 = F(theta_0) and theta_2 = F(theta_1), over the
parameter vector theta = (phi, every matrix entry), and extrapolates to
theta' = theta_0 - 2 alpha r + alpha**2 v with r = theta_1 - theta_0,
v = theta_2 - 2 theta_1 + theta_0 and alpha = -|r|/|v| (at most -1).
theta' is kept only if it has no negative entry, validates as a model
once phi and each row are renormalized, and its log-likelihood, which
the gather for its next E-step yields, is at least that of theta_2;
otherwise alpha is halved towards -1, where theta' is theta_2 itself.
The cycle ends with one EM map from the kept point, so every kept
iterate is a validated model and the likelihood never goes down.  The
paper's plain EM, without extrapolation, is a loop over :func:`e_step`
and :func:`m_step`, which run the same map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .counts import NGramCounts, lag_contingency
from .errors import AllRestartsFailed, DegenerateLikelihood, EmptyCorpus, ShapeMismatch
from .model import (
    MtdModel,
    _cell_index,
    _component_terms,
    _flat_matrices,
    random_mtd,
    spell_word,
    word_probabilities,
)
from .reparam import ThetaU, bic, model_dimension, to_theta_u

# step halving stops short of alpha = -1, where the extrapolation is theta_2 itself
_ALPHA_FLOOR = -1.0 - 1.0 / 16


@dataclass
class EmConfig:
    """Knobs for :func:`em_fit` and :func:`fit_with_restarts`.

    ``epsilon`` is the stopping threshold on the absolute log-likelihood
    increase of one EM map over its input, and ``max_iters`` caps the
    number of EM maps; ``n_restarts`` counts one contingency-table
    initialization plus uniform-random ones; ``floor``, when set, bounds
    every mixture component weight below before posterior normalization
    instead of aborting on a degenerate word.
    """

    epsilon: float = 1e-3
    max_iters: int = 1000
    n_restarts: int = 5
    seed: int = 0
    floor: float | None = None
    variant: str = "general"
    lag_order: int = 1

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")


@dataclass
class FitReport:
    """Outcome of one fit: parameters, trace, and selection scores."""

    model: MtdModel
    loglik_trace: np.ndarray
    final_loglik: float
    iterations: int
    converged: bool
    restart_index: int | None
    theta_u: ThetaU
    bic: float


def _loglik(N: np.ndarray, probs: np.ndarray) -> float:
    if (probs <= 0.0).any():
        return float("-inf")
    return float(N @ np.log(probs))


def loglik_from_counts(model, counts: NGramCounts) -> float:
    """Conditional log-likelihood sum_w N(w) log p(w); -inf if any p(w) = 0."""
    return _loglik(counts.values(), word_probabilities(model, counts.word_indices()))


def _fit_cells(model: MtdModel, counts: NGramCounts) -> np.ndarray:
    if counts.word_length != model.order + 1:
        raise ShapeMismatch(
            f"counts are over {counts.word_length}-words, model needs {model.order + 1}"
        )
    return _cell_index(model, counts.word_indices())


def _posterior(comps, probs, counts: NGramCounts, floor: float | None) -> np.ndarray:
    """Normalize components by their sum ``probs``; floored components are summed anew."""
    if floor is not None:
        comps = np.maximum(comps, floor)
        probs = comps.sum(axis=0)
    if (probs <= 0.0).any():
        w = int(counts.word_indices()[np.argmax(probs <= 0.0)])
        word = spell_word(w, counts.word_length, counts.alphabet)
        raise DegenerateLikelihood(
            f"observed word {word!r} (index {w}) has zero probability under the current model",
            word_index=w,
            word=word,
        )
    return comps / probs


def _maximize(model: MtdModel, cells, posteriors, N, total):
    weighted = posteriors * N
    phi = weighted.sum(axis=1) / total
    previous = np.stack(model.matrices)
    num = np.bincount(cells.ravel(), weights=weighted.ravel(), minlength=previous.size)
    q = model.alphabet.size
    matrices = _normalize_rows(num.reshape(-1, q), previous.reshape(-1, q))
    return phi, list(matrices.reshape(previous.shape))


def e_step(model: MtdModel, counts: NGramCounts, floor: float | None = None) -> np.ndarray:
    """Posterior lag probabilities, shape (G, n_words), columns in word-index order.

    Raises :class:`DegenerateLikelihood` if an observed word has zero
    mixture probability, unless ``floor`` bounds the component weights
    below first.
    """
    comps = _component_terms(model, _fit_cells(model, counts))
    return _posterior(comps, comps.sum(axis=0), counts, floor)


def m_step(posteriors: np.ndarray, counts: NGramCounts, model: MtdModel):
    """Closed-form maximizer of the expected complete-data log-likelihood.

    ``posteriors`` is an :func:`e_step` array.  Returns ``(phi, matrices)``.
    A matrix row whose posterior-weighted block count is zero is copied
    from ``model`` unchanged: any stochastic row is optimal there, and
    keeping the previous iterate preserves determinism and monotonicity.
    """
    return _maximize(model, _fit_cells(model, counts), posteriors, counts.values(), counts.total)


def _normalize_rows(num: np.ndarray, previous: np.ndarray) -> np.ndarray:
    row_sums = num.sum(axis=1)
    out = np.where(row_sums[:, None] > 0.0, num / np.where(row_sums == 0.0, 1.0, row_sums)[:, None], previous)
    return out


def init_contingency(counts: NGramCounts, lag_order: int = 1, variant: str = "general") -> MtdModel:
    """Starting point from lag contingency tables with +1 pseudocounts.

    phi starts uniform; every matrix entry is strictly positive.
    """
    if len(counts) == 0:
        raise EmptyCorpus("cannot initialize from empty counts")
    m = counts.order
    G = m - lag_order + 1
    if variant == "single_matrix":
        pooled = sum(lag_contingency(counts, g, lag_order).table for g in range(1, G + 1))
        mats = [_pseudocount_rows(pooled)]
    else:
        mats = [
            _pseudocount_rows(lag_contingency(counts, g, lag_order).table)
            for g in range(1, G + 1)
        ]
    phi = np.full(G, 1.0 / G)
    return MtdModel(counts.alphabet, m, lag_order, phi, mats, variant=variant)


def _pseudocount_rows(table: np.ndarray) -> np.ndarray:
    smoothed = table.astype(np.float64) + 1.0
    return smoothed / smoothed.sum(axis=1, keepdims=True)


def _make_report(model, trace, converged, restart_index, counts) -> FitReport:
    trace = np.asarray(trace, dtype=np.float64)
    theta = to_theta_u(model, 0)
    return FitReport(
        model=model,
        loglik_trace=trace,
        final_loglik=float(trace[-1]),
        iterations=len(trace) - 1,
        converged=converged,
        restart_index=restart_index,
        theta_u=theta,
        bic=bic(float(trace[-1]), model_dimension(model), counts.total),
    )


class _Point(NamedTuple):
    """An iterate with its E-step gather: components, their sum p(w), log-likelihood."""

    model: MtdModel
    comps: np.ndarray
    probs: np.ndarray
    loglik: float


def _params(model: MtdModel) -> np.ndarray:
    return np.concatenate([model.phi, _flat_matrices(model)])


def _model_at(theta: np.ndarray, like: MtdModel) -> MtdModel | None:
    """The model at parameter vector ``theta`` after renormalizing; None if infeasible."""
    if not (theta >= 0.0).all():
        return None
    G, q = like.n_components, like.alphabet.size
    rows = theta[G:].reshape(-1, q)
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = theta[:G] / theta[:G].sum()
        rows = rows / rows.sum(axis=1, keepdims=True)
    try:
        return MtdModel(
            like.alphabet,
            like.order,
            like.lag_order,
            phi,
            list(rows.reshape(len(like.matrices), -1, q)),
            variant=like.variant,
        )
    except ValueError:
        return None


def _extrapolate(t0, t1, t2, p2: _Point, evaluate) -> _Point:
    """The SqS3 point of the cycle t0 -> t1 -> t2 (``p2`` is at t2), or ``p2`` if none is kept."""
    r = t1 - t0
    v = t2 - 2.0 * t1 + t0
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        return p2
    alpha = min(-np.linalg.norm(r) / norm_v, -1.0)
    while alpha < _ALPHA_FLOOR:
        model = _model_at(t0 - 2.0 * alpha * r + alpha**2 * v, p2.model)
        if model is not None:
            point = evaluate(model)
            if point.loglik > -np.inf and point.loglik >= p2.loglik:
                return point
        alpha = (alpha - 1.0) / 2.0
    return p2


def em_fit(counts: NGramCounts, init: MtdModel, config: EmConfig | None = None) -> FitReport:
    """EM maps from ``init`` until one gains less than epsilon over its input.

    The trace records the conditional log-likelihood of ``init`` and then
    of every EM map's output, so ``iterations`` counts EM maps.  The maps
    run in SQUAREM cycles: two maps, an extrapolation, one map from the
    kept point.  The map after a kept extrapolation starts from a better
    point than the trace's previous entry, so the trace jumps there; it
    never goes down.  A degenerate E-step aborts the run; the partial
    trace is attached to the raised error.
    """
    config = config or EmConfig()
    cells = _fit_cells(init, counts)
    N = counts.values()
    total = counts.total

    def evaluate(model: MtdModel) -> _Point:
        comps = _component_terms(model, cells)
        probs = comps.sum(axis=0)
        return _Point(model, comps, probs, _loglik(N, probs))

    point = evaluate(init)
    trace = [point.loglik]
    cycle = [_params(init)]  # parameter vectors of the current SQUAREM cycle
    converged = False
    while len(trace) <= config.max_iters:
        try:
            posteriors = _posterior(point.comps, point.probs, counts, config.floor)
        except DegenerateLikelihood as err:
            err.trace = np.asarray(trace)
            raise
        model = point.model
        phi, matrices = _maximize(model, cells, posteriors, N, total)
        model = MtdModel(
            model.alphabet, model.order, model.lag_order, phi, matrices, variant=model.variant
        )
        new = evaluate(model)
        trace.append(new.loglik)
        converged = new.loglik - point.loglik < config.epsilon
        point = new
        if converged:
            break
        cycle.append(_params(model))
        # extrapolate only when a map from the kept point still fits the budget
        if len(cycle) == 3 and len(trace) <= config.max_iters:
            point = _extrapolate(*cycle, point, evaluate)
            cycle = []
    return _make_report(point.model, trace, converged, None, counts)


def fit_with_restarts(counts: NGramCounts, config: EmConfig | None = None) -> FitReport:
    """Best of one contingency-initialized run plus random restarts.

    Restart 0 starts from :func:`init_contingency`; restarts 1..n-1 start
    from seeded uniform-random models.  Returns the report with the
    highest final log-likelihood (ties: lowest restart index).
    """
    config = config or EmConfig()
    q = counts.alphabet.size
    seeds = np.random.SeedSequence(config.seed).spawn(max(config.n_restarts - 1, 0))
    best = None
    failures = []
    for r in range(config.n_restarts):
        if r == 0:
            init = init_contingency(counts, config.lag_order, config.variant)
        else:
            init = random_mtd(
                q,
                counts.order,
                config.lag_order,
                variant=config.variant,
                seed=seeds[r - 1],
                alphabet=counts.alphabet,
            )
        try:
            report = em_fit(counts, init, config)
        except DegenerateLikelihood as err:
            failures.append((r, err))
            continue
        report.restart_index = r
        if best is None or report.final_loglik > best.final_loglik:
            best = report
    if best is None:
        raise AllRestartsFailed(
            f"all {config.n_restarts} restarts hit a degenerate likelihood",
            failures=failures,
        )
    return best
