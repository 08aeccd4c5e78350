import numpy as np
import pytest

from mtdchain import (
    EmConfig,
    EmptyCorpus,
    ModelTooLarge,
    NGramCounts,
    bic,
    bic_compare,
    count_ngrams,
    fit_full_markov,
    fit_with_restarts,
    random_full_markov,
    random_mtd,
    sample_sequence,
    tv_experiment,
)


def test_bic_compare_single_matrix_dimension():
    q, m = 4, 3
    truth = random_mtd(q, m, 1, variant="single_matrix", seed=3)
    seqs = [sample_sequence(truth, 2000, seed=4)]
    config = EmConfig(n_restarts=1, max_iters=30, variant="single_matrix")
    (row,) = bic_compare(seqs, [m], [1], config=config)
    assert row["dim_mtd"] == (m - 1) + q * (q - 1)
    report = fit_with_restarts(count_ngrams(seqs, m), config)
    assert row["bic_mtd"] == report.bic == bic(row["loglik_mtd"], row["dim_mtd"], row["n_terms"])


@pytest.mark.parametrize(
    "orders, lag_orders, config",
    [([1], [2, 3], None), ([1, 2], [1, 2], EmConfig(variant="single_matrix"))],
    ids=["no-pair", "single-matrix-lag-order-2"],
)
def test_bic_compare_rejects_before_work(orders, lag_orders, config, monkeypatch):
    import mtdchain.experiments as experiments

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the pairs were checked")

    monkeypatch.setattr(experiments, "count_ngrams", forbidden)
    seqs = [sample_sequence(random_mtd(4, 2, 1, seed=5), 200, seed=6)]
    with pytest.raises(ValueError):
        bic_compare(seqs, orders, lag_orders, config)


def test_fit_full_markov_size_guard():
    # 4**31 table entries: the word indices fit in int64, the dense table does not fit in memory
    counts = count_ngrams([sample_sequence(random_mtd(4, 2, 1, seed=5), 40, seed=6)], 30)
    with pytest.raises(ModelTooLarge):
        fit_full_markov(counts)


def test_fit_full_markov_from_empty_counts():
    # a sample no longer than the order has no window: there is nothing to fit
    generator = random_full_markov(4, 3, seed=1)
    for counts in (count_ngrams([sample_sequence(generator, 5, seed=2)], 5),
                   NGramCounts(generator.alphabet, 4)):
        with pytest.raises(EmptyCorpus, match="cannot fit from empty counts"):
            fit_full_markov(counts)
    with pytest.raises(EmptyCorpus):
        tv_experiment(gen_order=3, seq_len=5, fit_orders=(5, 8), replicates=2, word_len=3)


@pytest.mark.parametrize("q, m, n", [(4, 3, 20000), (2, 5, 300), (3, 4, 50)])
def test_em_at_l_equals_m_is_the_dense_fit(q, m, n):
    # one component: every posterior is 1, so one M-step is the dense fit's row normalization;
    # histories never seen keep the contingency start's uniform rows
    counts = count_ngrams([sample_sequence(random_full_markov(q, m, seed=n), n, seed=q)], m)
    report = fit_with_restarts(counts, EmConfig(lag_order=m))
    assert np.array_equal(report.model.matrices[0], fit_full_markov(counts).matrices[0])
