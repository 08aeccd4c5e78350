"""Experiment harnesses: order-vs-distance sweeps and BIC comparisons."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .counts import NGramCounts, count_ngrams
from .errors import EmptyCorpus
from .em import EmConfig, fit_with_restarts, loglik_from_counts
from .model import (
    Alphabet,
    MtdModel,
    _adopt_dense,
    _check_dense_size,
    _normalize_rows,
    random_full_markov,
    sample_sequence,
)
from .reparam import bic, model_dimension
from .stationary import tv_distance, word_distribution


def fit_full_markov(counts: NGramCounts) -> MtdModel:
    """ML full Markov model, as the MtdModel with l = m; unseen histories get uniform rows."""
    q, m = counts.alphabet.size, counts.order
    if len(counts) == 0:
        raise EmptyCorpus("cannot fit from empty counts")
    _check_dense_size(q, m)
    # a word's dense cell (history, next letter) is its own index; float64 sums of
    # int64 counts are exact, as corpus totals stay below 2**53
    table = np.bincount(counts.word_indices(), counts.values(), q ** (m + 1))
    return _adopt_dense(counts.alphabet, m, _normalize_rows(table.reshape(q**m, q), 1.0 / q))


def tv_experiment(
    gen_order: int = 5,
    q: int = 4,
    seq_len: int = 5000,
    fit_orders=(2, 3, 4, 5, 6),
    replicates: int = 20,
    word_len: int = 6,
    seed: int = 0,
):
    """Distance between fitted and generating word distributions, per order.

    One random dense order-``gen_order`` chain generates ``replicates``
    sequences of ``seq_len`` letters.  Each sequence is fitted with a
    dense maximum-likelihood model at every order in ``fit_orders`` and
    the total variation distance between the stationary length-
    ``word_len`` word distributions of the fit and of the generator is
    recorded.

    Returns ``(rows, generator)`` where rows are dicts with keys
    ``replicate``, ``fit_order``, ``tv``.
    """
    fit_orders = [int(m) for m in fit_orders]
    root = np.random.SeedSequence(seed)
    gen_seed, *rep_seeds = root.spawn(int(replicates) + 1)
    generator = random_full_markov(q, gen_order, seed=gen_seed)
    target = word_distribution(generator, word_len)
    rows = []
    for r, rep_seed in enumerate(rep_seeds):
        seq = sample_sequence(generator, seq_len, seed=rep_seed)
        for m in fit_orders:
            fitted = fit_full_markov(count_ngrams([seq], m))
            rows.append(
                {
                    "replicate": r,
                    "fit_order": m,
                    "tv": tv_distance(word_distribution(fitted, word_len), target),
                }
            )
    return rows, generator


def tv_experiment_summary(rows) -> dict[int, float]:
    """Mean distance per fitted order."""
    sums: dict[int, list[float]] = {}
    for row in rows:
        sums.setdefault(row["fit_order"], []).append(row["tv"])
    return {m: float(np.mean(v)) for m, v in sorted(sums.items())}


def bic_compare(
    sequences,
    orders,
    lag_orders=(1,),
    config: EmConfig | None = None,
    dim_convention: str = "theta_u",
    alphabet: Alphabet | None = None,
):
    """BIC of the dense model vs the mixture model, per order and lag order.

    Positive ``delta_bic`` (dense minus mixture) means the mixture model
    is preferred.  Counts (and therefore the number of likelihood terms)
    are rebuilt at each order, over ``alphabet`` when given, as in
    :func:`count_ngrams`: with it, no sequences raise :class:`EmptyCorpus`
    for having no word to score.  Raises ``ValueError`` before any work if
    no lag order is at most an order, or if ``config`` rejects a lag order.
    """
    if min(lag_orders) > max(orders):
        raise ValueError("no (order, lag order) pair has lag order <= order")
    base = config or EmConfig()
    configs = {l: replace(base, lag_order=l) for l in lag_orders}
    rows = []
    for m in orders:
        counts = count_ngrams(sequences, m, alphabet=alphabet)
        n_terms = counts.total
        if not n_terms:
            raise EmptyCorpus(f"no sequence is longer than order {m}: no word to score")
        full = fit_full_markov(counts)
        ll_full = loglik_from_counts(full, counts)
        dim_full = model_dimension(full)
        bic_full = bic(ll_full, dim_full, n_terms)
        for l in lag_orders:
            if l > m:
                continue
            report = fit_with_restarts(counts, configs[l])
            dim = model_dimension(report.model, dim_convention)
            bic_mtd = bic(report.final_loglik, dim, n_terms)
            rows.append(
                {
                    "order": m,
                    "lag_order": l,
                    "n_terms": n_terms,
                    "loglik_full": ll_full,
                    "dim_full": dim_full,
                    "bic_full": bic_full,
                    "loglik_mtd": report.final_loglik,
                    "dim_mtd": dim,
                    "bic_mtd": bic_mtd,
                    "delta_bic": bic_full - bic_mtd,
                }
            )
    return rows
