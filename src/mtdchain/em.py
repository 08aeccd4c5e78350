"""EM estimation of MTD models from (m+1)-gram counts.

The model is treated as a mixture indexed by a hidden lag selector: the
selector picks component g with probability phi_g and the next letter is
then drawn from pi_g conditioned on the lag-g block alone.  The E-step
posterior of the selector given an observed (m+1)-word does not depend
on the word's position, so one pass over the distinct observed words
(weighted by their counts) is a full E-step, and the M-step is closed
form.  Each E+M pair cannot decrease the conditional log-likelihood.

Both steps run on one kernel, :class:`_Kernel`, which the Berchtold
baseline shares.  It works on the parameter vector theta = (phi, every
matrix entry) and holds the (G, n_words) array of flat cell indices
(g-1)*q**(l+1) + block_g(w)*q + i_0(w) into the matrix part of theta
(the single-matrix variant drops the g offset, so its lags pool into one
matrix).  An iteration is then one gather of the weighted components
phi_g * pi_g(w) from the small table phi_g times lag g's matrix, whose
sum over g is the E-step denominator p(w) and also gives the
log-likelihood of the current iterate; the components, divided by p(w)
and multiplied by N(w) in place, are the weights of one ``bincount``
over the same cells for the M-step numerators, which maps theta to
theta.  The same ``bincount`` of N alone gives the lag contingency
tables of the contingency start.  The gradient that the Berchtold
baseline climbs reads a gathered iterate too: one ``bincount`` per lag
sums the ratio N(w) / p(w) per cell, and the mixture form (Raftery
1985, JRSS B 47:528) factorises both partial derivatives over those
sums.  A fit builds its kernel once: :func:`fit_with_restarts` shares
one kernel between its contingency start, every restart's screen and
the polish, and only the reported model is built as an
:class:`MtdModel`.

The EM map F runs in SQUAREM cycles (Varadhan & Roland 2008, Scand.
J. Stat. 35:335), scheme SqS3.  A cycle takes two EM maps
from theta_0, theta_1 = F(theta_0) and theta_2 = F(theta_1), and
extrapolates to theta' = theta_0 - 2 alpha r + alpha**2 v with
r = theta_1 - theta_0, v = theta_2 - 2 theta_1 + theta_0 and
alpha = -|r|/|v| (at most -1).  theta' is kept only if it has no
negative entry, passes the kernel's feasibility check (the tests
:class:`MtdModel` makes) once phi and each row are renormalized, and its
log-likelihood, which the gather for its next E-step yields, is at least
that of theta_2; otherwise alpha is halved towards -1, where theta' is
theta_2 itself.  The cycle ends with one EM map from the kept point, so
every kept iterate is a feasible model and the likelihood never goes
down.  The paper's plain EM, without extrapolation, is a loop over
:func:`e_step` and :func:`m_step`, which run the same map.

:func:`fit_with_restarts` runs EM from several starts, as the paper does
against local optima, but screens them: each start gets 10 EM maps, and
only the one with the highest log-likelihood then (the leader) runs on,
down to a threshold 100 times below ``epsilon``.  Starts run to
``epsilon`` end within a few hundredths of a nat of each other, a spread
set by where each stops rather than by which optimum it climbs, so a
polished leader typically ends as high as the best of them, and most
maps of the losing starts are never run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .counts import NGramCounts
from .errors import (
    AllRestartsFailed,
    AlphabetMismatch,
    DegenerateLikelihood,
    EmptyCorpus,
    LagOutOfRange,
    ShapeMismatch,
)
from .model import (
    ROW_SUM_TOL,
    MtdModel,
    _cell_index,
    _check_dense_size,
    _normalize_rows,
    random_mtd,
    spell_word,
    word_probabilities,
)
from .reparam import bic, model_dimension

# step halving stops short of alpha = -1, where the extrapolation is theta_2 itself
_ALPHA_FLOOR = -1.0 - 1.0 / 16
# EM maps every restart runs before fit_with_restarts picks its leader
_SCREEN_MAPS = 10
# the leader's polish runs until a map gains less than epsilon / _POLISH_FACTOR
_POLISH_FACTOR = 100


@dataclass
class EmConfig:
    """Knobs for :func:`em_fit`, :func:`fit_with_restarts` and :func:`berchtold_fit`.

    ``epsilon`` is the stopping threshold on the absolute log-likelihood
    increase of one EM map over its input: :func:`em_fit` stops there,
    and :func:`fit_with_restarts` with several restarts polishes its
    leader down to ``epsilon / 100``.  ``max_iters`` caps the number of
    EM maps of one returned fit, a leader's screening and polish
    together.  ``n_restarts`` counts one contingency-table
    initialization plus uniform-random ones; with more than one, each
    is screened for 10 EM maps (at most ``max_iters``) and only the
    leader runs on.  ``floor``, when set, bounds every mixture component
    weight below before posterior normalization instead of aborting on a
    degenerate word; it lies in (0, 1), as a component weight is at most 1.

    :func:`fit_with_restarts` reads every field, :func:`em_fit` only
    ``epsilon``, ``max_iters`` and ``floor``, and the Berchtold baseline
    only ``epsilon`` and ``max_iters``.
    """

    epsilon: float = 1e-3
    max_iters: int = 1000
    n_restarts: int = 5
    seed: int = 0
    floor: float | None = None
    variant: str = "general"
    lag_order: int = 1

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if self.floor is not None and not 0.0 < self.floor < 1.0:
            raise ValueError(f"floor must lie in (0, 1), got {self.floor}")
        if self.variant == "single_matrix" and self.lag_order != 1:
            raise ValueError(f"single_matrix variant requires lag_order 1, got {self.lag_order}")


class RestartRecord(NamedTuple):
    """One start of :func:`fit_with_restarts`, in restart order.

    ``init`` is ``"contingency"`` or ``"random"``.  ``loglik`` is the
    log-likelihood the start reached when screened (with one restart,
    its whole run), or None if ``error`` says why it failed.
    """

    index: int
    init: str
    loglik: float | None
    error: DegenerateLikelihood | None


@dataclass
class FitReport:
    """Outcome of one fit: parameters, trace, and selection scores.

    ``restarts`` records every start of :func:`fit_with_restarts`; it is
    empty for a single run.
    """

    model: MtdModel
    loglik_trace: np.ndarray
    final_loglik: float
    iterations: int
    converged: bool
    restart_index: int | None
    bic: float
    restarts: tuple[RestartRecord, ...] = ()


def _loglik(N: np.ndarray, probs: np.ndarray) -> float:
    if (probs <= 0.0).any():
        return float("-inf")
    return float(N @ np.log(probs))


def _check_counts(counts: NGramCounts, model: MtdModel) -> None:
    """Raise unless ``counts`` hold (m+1)-words over ``model``'s alphabet."""
    if counts.word_length != model.order + 1:
        raise ShapeMismatch(
            f"counts are over {counts.word_length}-words, model needs {model.order + 1}"
        )
    if counts.alphabet != model.alphabet:
        raise AlphabetMismatch("counts and model alphabets differ")


def loglik_from_counts(model, counts: NGramCounts) -> float:
    """Conditional log-likelihood sum_w N(w) log p(w); -inf if any p(w) = 0.

    Raises :class:`ShapeMismatch` or :class:`AlphabetMismatch` unless the
    counts hold (m+1)-words over the model's alphabet.
    """
    _check_counts(counts, model)
    return _loglik(counts.values(), word_probabilities(model, counts.word_indices()))


class _Point(NamedTuple):
    """A parameter vector with its gather: components, their sum p(w), log-likelihood."""

    theta: np.ndarray
    comps: np.ndarray
    probs: np.ndarray
    loglik: float


def _theta(model: MtdModel) -> np.ndarray:
    """The parameter vector theta = (phi, every matrix entry) of ``model``."""
    return np.concatenate([model.phi, *(mat.ravel() for mat in model.matrices)])


class _Kernel:
    """The likelihood of ``counts`` as a function of theta = (phi, every matrix entry).

    One kernel serves every model of one shape over ``counts``: alphabet,
    lag order l and variant, at the counts' order.  It holds the
    :func:`_cell_index` cells of the observed words and their counts N as
    float64 (exact, as corpus totals stay below 2**53).  Both are built
    once, when the kernel is: :func:`fit_with_restarts` builds one kernel
    for its contingency start, every screen and the polish, and
    :func:`em_fit`, :func:`e_step`, :func:`m_step` and the Berchtold fit
    build one for the model they are given.  ``rows(theta)`` is the
    (rows, q) view of the matrix entries.  The constructor is the one
    place a fit's input is checked: it refuses empty counts and a shape
    the counts cannot hold, and :meth:`of` first refuses a model over
    another alphabet or order than the counts'.

    :meth:`gather` scales each lag's matrix by phi_g into a (G, q**(l+1))
    table and takes the components from it at ``table_cells``, the same
    IEEE products as scaling each gathered entry.  In the general variant
    these are the cells; the single-matrix variant's table has a row per
    lag, so its ``table_cells`` add the g offset its pooled cells drop.
    :meth:`scatter` adds per-word weights into the matrix entries at the
    cells: N for the lag contingency tables of :meth:`contingency` and
    the weighted posteriors for the M-step numerators.  :meth:`gradient`
    takes a gathered point and sums its N / p(w) at each lag's row of
    ``table_cells`` instead, from which both partial derivatives follow
    without a second p(w).
    """

    def __init__(self, counts: NGramCounts, lag_order: int, variant: str):
        if len(counts) == 0:
            raise EmptyCorpus("cannot fit from empty counts")
        if variant not in ("general", "single_matrix"):
            raise ValueError(f"unknown variant {variant!r}")
        lag_order = int(lag_order)
        if not 1 <= lag_order <= counts.order:
            raise LagOutOfRange(f"lag order {lag_order} outside 1..{counts.order}")
        _check_dense_size(counts.alphabet.size, lag_order)
        self.counts = counts
        self.alphabet, self.lag_order, self.variant = counts.alphabet, lag_order, variant
        self.G, self.q = counts.order - lag_order + 1, counts.alphabet.size
        self.n_matrices = 1 if variant == "single_matrix" else self.G
        self.width = self.q ** (lag_order + 1)
        self.cells = _cell_index(counts.word_indices(), self.q, lag_order, self.G, variant)
        self.table_cells = self.cells
        if variant == "single_matrix":
            self.table_cells = self.cells + self.width * np.arange(self.G)[:, None]
        self.N = counts.values().astype(np.float64)

    @classmethod
    def of(cls, counts: NGramCounts, model: MtdModel) -> tuple[_Kernel, np.ndarray]:
        """The kernel of ``model``'s shape over ``counts``, and the model's own theta."""
        _check_counts(counts, model)
        return cls(counts, model.lag_order, model.variant), _theta(model)

    def rows(self, theta: np.ndarray) -> np.ndarray:
        return theta[self.G :].reshape(-1, self.q)

    def split(self, theta: np.ndarray):
        """``(phi, matrices)`` of theta; matrices has shape (number of matrices, q**l, q)."""
        return theta[: self.G], self.rows(theta).reshape(self.n_matrices, -1, self.q)

    def model(self, theta: np.ndarray) -> MtdModel:
        phi, matrices = self.split(theta)
        return MtdModel(
            self.alphabet, self.counts.order, self.lag_order, phi, matrices, self.variant
        )

    def feasible(self, theta: np.ndarray) -> bool:
        """The tests :class:`MtdModel` makes: finite, in [0, 1], phi and every row summing to 1."""
        return bool(
            np.isfinite(theta).all()
            and theta.min() >= 0.0
            and theta.max() <= 1.0
            and abs(theta[: self.G].sum() - 1.0) <= ROW_SUM_TOL
            and (np.abs(self.rows(theta).sum(axis=1) - 1.0) <= ROW_SUM_TOL).all()
        )

    def gather(self, theta: np.ndarray) -> _Point:
        table = theta[: self.G, None] * theta[self.G :].reshape(-1, self.width)
        comps = table.take(self.table_cells)
        probs = comps.sum(axis=0)
        return _Point(theta, comps, probs, _loglik(self.N, probs))

    def scatter(self, weights: np.ndarray) -> np.ndarray:
        """Per-word ``weights``, shape (G, n_words), summed into the matrix entries: (rows, q)."""
        size = self.n_matrices * self.width
        flat = np.bincount(self.cells.ravel(), weights=weights.ravel(), minlength=size)
        return flat.reshape(-1, self.q)

    def contingency(self) -> np.ndarray:
        """theta of the contingency start: phi uniform, each lag's table of N plus 1, normalized.

        The tables are integer sums below 2**53, so the scatter is exact.
        """
        tables = self.scatter(np.broadcast_to(self.N, self.cells.shape))
        rows = _normalize_rows(tables + 1.0, 0.0)
        return np.concatenate([np.full(self.G, 1.0 / self.G), rows.ravel()])

    def check_positive(self, probs: np.ndarray) -> None:
        """Raise :class:`DegenerateLikelihood` naming the first observed word with p(w) <= 0."""
        if (probs <= 0.0).any():
            counts = self.counts
            w = int(counts.word_indices()[np.argmax(probs <= 0.0)])
            word = spell_word(w, counts.word_length, counts.alphabet)
            raise DegenerateLikelihood(
                f"observed word {word!r} (index {w}) has zero probability under the current model",
                word_index=w,
                word=word,
            )

    def posterior(self, point: _Point, floor: float | None) -> np.ndarray:
        """Normalize components by their sum, in place: ``point.comps`` is used up.

        Floored components are a copy, summed anew.
        """
        comps, probs = point.comps, point.probs
        if floor is not None:
            comps = np.maximum(comps, floor)
            probs = comps.sum(axis=0)
        self.check_positive(probs)
        comps /= probs
        return comps

    def weights(self, point: _Point, floor: float | None) -> np.ndarray:
        """N(w) times the posteriors, in place as in :meth:`posterior`: the M-step's input."""
        weighted = self.posterior(point, floor)
        weighted *= self.N
        return weighted

    def maximize(self, theta: np.ndarray, weighted: np.ndarray) -> np.ndarray:
        """The M-step from ``theta`` and :meth:`weights`: rows with no weight keep their value."""
        phi = weighted.sum(axis=1) / self.counts.total
        rows = _normalize_rows(self.scatter(weighted), self.rows(theta))
        return np.concatenate([phi, rows.ravel()])

    def gradient(self, point: _Point) -> np.ndarray:
        """d L / d theta at a gathered ``point`` whose every p(w) is positive.

        One ``bincount`` of N / p(w) per lag over its ``table_cells`` row
        sums the ratio per cell into S_g, a row of S, shape (G, q**(l+1));
        then d phi_g = sum_c pi_g(c) S_g(c) and d pi_g = phi_g S_g, summed
        over the lags that share one matrix.
        """
        phi, pi = point.theta[: self.G, None], point.theta[self.G :].reshape(-1, self.width)
        ratio, size = self.N / point.probs, self.G * self.width
        # the rows' cells lie in disjoint ranges of S, so the sum adds only exact zeros
        S = sum(np.bincount(cells, ratio, size) for cells in self.table_cells).reshape(self.G, -1)
        d_pi = (phi * S).reshape(self.n_matrices, -1, self.width).sum(axis=1)
        return np.concatenate([(pi * S).sum(axis=1), d_pi.ravel()])


def e_step(model: MtdModel, counts: NGramCounts, floor: float | None = None) -> np.ndarray:
    """Posterior lag probabilities, shape (G, n_words), columns in word-index order.

    Raises :class:`DegenerateLikelihood` if an observed word has zero
    mixture probability, unless ``floor`` bounds the component weights
    below first.
    """
    kernel, theta = _Kernel.of(counts, model)
    return kernel.posterior(kernel.gather(theta), floor)


def m_step(posteriors: np.ndarray, counts: NGramCounts, model: MtdModel):
    """Closed-form maximizer of the expected complete-data log-likelihood.

    ``posteriors`` is an :func:`e_step` array.  Returns ``(phi, matrices)``.
    A matrix row whose posterior-weighted block count is zero is copied
    from ``model`` unchanged: any stochastic row is optimal there, and
    keeping the previous iterate preserves determinism and monotonicity.
    """
    kernel, theta = _Kernel.of(counts, model)
    phi, matrices = kernel.split(kernel.maximize(theta, posteriors * kernel.N))
    return phi, list(matrices)


def init_contingency(counts: NGramCounts, lag_order: int = 1, variant: str = "general") -> MtdModel:
    """Starting point from lag contingency tables with +1 pseudocounts.

    phi starts uniform; every matrix entry is strictly positive.  Lag g's
    table tallies N over (lag-g block, final letter) pairs, as
    :func:`lag_contingency` does; the single-matrix variant pools all lags.
    """
    kernel = _Kernel(counts, lag_order, variant)
    return kernel.model(kernel.contingency())


def _make_report(model, trace, converged, restart_index, counts) -> FitReport:
    trace = np.asarray(trace, dtype=np.float64)
    return FitReport(
        model=model,
        loglik_trace=trace,
        final_loglik=float(trace[-1]),
        iterations=len(trace) - 1,
        converged=converged,
        restart_index=restart_index,
        bic=bic(float(trace[-1]), model_dimension(model), counts.total),
    )


def _extrapolate(t0, t1, t2, p2: _Point, kernel: _Kernel) -> _Point:
    """The SqS3 point of the cycle t0 -> t1 -> t2 (``p2`` is at t2), or ``p2`` if none is kept."""
    r = t1 - t0
    v = t2 - 2.0 * t1 + t0
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        return p2
    alpha = min(-np.linalg.norm(r) / norm_v, -1.0)
    while alpha < _ALPHA_FLOOR:
        theta = t0 - 2.0 * alpha * r + alpha**2 * v
        if (theta >= 0.0).all():
            with np.errstate(invalid="ignore", divide="ignore"):
                theta[: kernel.G] /= theta[: kernel.G].sum()
                rows = kernel.rows(theta)
                rows /= rows.sum(axis=1, keepdims=True)
            if kernel.feasible(theta):
                point = kernel.gather(theta)
                if point.loglik > -np.inf and point.loglik >= p2.loglik:
                    return point
        alpha = (alpha - 1.0) / 2.0
    return p2


def _run(kernel: _Kernel, theta: np.ndarray, config: EmConfig):
    """EM maps from ``theta`` until one gains less than epsilon: ``(theta, trace, converged)``.

    The map loop of :func:`em_fit`, returning the last map's theta; a
    degenerate E-step raises with the partial trace attached.
    """
    point = kernel.gather(theta)
    trace = [point.loglik]
    cycle = [point.theta]  # parameter vectors of the current SQUAREM cycle
    converged = False
    while len(trace) <= config.max_iters:
        try:
            weighted = kernel.weights(point, config.floor)
        except DegenerateLikelihood as err:
            err.trace = np.asarray(trace)
            raise
        new = kernel.gather(kernel.maximize(point.theta, weighted))
        trace.append(new.loglik)
        converged = new.loglik - point.loglik < config.epsilon
        point = new
        if converged:
            break
        cycle.append(point.theta)
        # extrapolate only when a map from the kept point still fits the budget
        if len(cycle) == 3 and len(trace) <= config.max_iters:
            point = _extrapolate(*cycle, point, kernel)
            cycle = []
    return point.theta, trace, converged


def em_fit(counts: NGramCounts, init: MtdModel, config: EmConfig | None = None) -> FitReport:
    """EM maps from ``init`` until one gains less than epsilon over its input.

    The trace records the conditional log-likelihood of ``init`` and then
    of every EM map's output, so ``iterations`` counts EM maps.  The maps
    run in SQUAREM cycles: two maps, an extrapolation, one map from the
    kept point.  The map after a kept extrapolation starts from a better
    point than the trace's previous entry, so the trace jumps there; it
    never goes down.  A degenerate E-step aborts the run; the partial
    trace is attached to the raised error.  Empty counts raise
    :class:`EmptyCorpus`, and counts of another alphabet or order than
    ``init``'s raise as in :func:`loglik_from_counts`.
    """
    config = config or EmConfig()
    kernel, theta = _Kernel.of(counts, init)
    theta, trace, converged = _run(kernel, theta, config)
    return _make_report(kernel.model(theta), trace, converged, None, counts)


def fit_with_restarts(counts: NGramCounts, config: EmConfig | None = None) -> FitReport:
    """Screen one contingency-initialized start plus random ones, then polish the leader.

    Restart 0 starts from :func:`init_contingency`; restarts 1..n-1 start
    from seeded uniform-random models.  Each runs the maps of
    :func:`em_fit` for at most 10 EM maps (never more than ``max_iters``);
    a start that hits a degenerate likelihood fails.  The leader is the
    screened run with the highest log-likelihood (ties: lowest restart
    index), and its maps continue from where its screen stopped at
    ``epsilon / 100`` with the maps left of ``max_iters``.  With one
    restart the fit is that start's :func:`em_fit` at ``epsilon``,
    unscreened.  Every start, screen and the polish share one kernel, and
    only the reported model is built.

    The report describes the leader: its trace is the screening trace
    followed by the polish's, without the repeated entry where they
    join, so it never goes down and holds at most ``max_iters`` maps;
    ``iterations``, ``converged``, ``restart_index`` and ``bic`` are
    those of that trace.  ``restarts`` records every start.
    """
    config = config or EmConfig()
    kernel = _Kernel(counts, config.lag_order, config.variant)
    seeds = np.random.SeedSequence(config.seed).spawn(max(config.n_restarts - 1, 0))
    screened = config.n_restarts > 1
    screen = replace(config, max_iters=min(_SCREEN_MAPS, config.max_iters)) if screened else config
    leader = None  # (restart index, theta, trace, converged) of the best screen so far
    records = []
    for r in range(config.n_restarts):
        if r == 0:
            kind, theta = "contingency", kernel.contingency()
        else:
            kind = "random"
            init = random_mtd(
                kernel.q,
                counts.order,
                config.lag_order,
                variant=config.variant,
                seed=seeds[r - 1],
                alphabet=counts.alphabet,
            )
            theta = _theta(init)
        try:
            theta, trace, converged = _run(kernel, theta, screen)
        except DegenerateLikelihood as err:
            records.append(RestartRecord(r, kind, None, err))
            continue
        records.append(RestartRecord(r, kind, trace[-1], None))
        if leader is None or trace[-1] > leader[2][-1]:
            leader = r, theta, trace, converged
    if leader is None:
        raise AllRestartsFailed(
            f"all {config.n_restarts} restarts hit a degenerate likelihood",
            failures=[(rec.index, rec.error) for rec in records],
        )
    r, theta, trace, converged = leader
    left = config.max_iters - (len(trace) - 1)
    if screened and left > 0:
        polish = replace(config, epsilon=config.epsilon / _POLISH_FACTOR, max_iters=left)
        theta, tail, converged = _run(kernel, theta, polish)
        trace = trace + tail[1:]
    report = _make_report(kernel.model(theta), trace, converged, r, counts)
    report.restarts = tuple(records)
    return report
