import pytest

from mtdchain import (
    EmConfig,
    ModelTooLarge,
    bic,
    bic_compare,
    count_ngrams,
    fit_full_markov,
    fit_with_restarts,
    random_mtd,
    sample_sequence,
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


def test_fit_full_markov_size_guard():
    # 4**31 table entries: the word indices fit in int64, the dense table does not fit in memory
    counts = count_ngrams([sample_sequence(random_mtd(4, 2, 1, seed=5), 40, seed=6)], 30)
    with pytest.raises(ModelTooLarge):
        fit_full_markov(counts)
