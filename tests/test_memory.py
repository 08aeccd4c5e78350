"""Peak memory of the scan paths, measured by tracemalloc against a stated budget."""

import numpy as np

from conftest import traced_peak
from mtdchain import count_ngrams, loglik_from_counts, random_mtd, sample_sequence
from mtdchain.model import _SCORE_CHUNK

_Q, _M, _LENGTH = 4, 8, 200_000
# the lockstep chunks' histories and rows and the scalar pass's objects (about 20 KB)
# stay below this, and a byte more a letter (200 KB) does not
_SLACK = 1 << 16


def test_sample_holds_a_draw_and_a_narrow_history_per_letter():
    model = random_mtd(_Q, _M, 1, seed=8)
    n = _LENGTH - _M
    seq, peak = traced_peak(lambda: sample_sequence(model, _LENGTH, seed=1))
    assert seq.data.dtype == np.uint8
    history_bytes = np.min_scalar_type(_Q**_M - 1).itemsize  # 2: uint16
    table = _Q**_M * _Q * 8  # the cumulated dense table the rows are read from
    # the rows are built first, cumulated in the dense table itself (which with its
    # build's temporaries stays below the bound); then each letter holds its 8-byte draw
    # and its history beside that table, and the one-byte letters come after the draws
    assert peak <= (8 + history_bytes) * n + table + _SLACK


def test_loglik_holds_one_float_per_word_beyond_the_counts():
    model = random_mtd(_Q, _M, 1, seed=8)
    counts = count_ngrams([sample_sequence(model, _LENGTH, seed=1)], _M)
    words = len(counts)
    loglik, peak = traced_peak(lambda: loglik_from_counts(model, counts))
    assert loglik < 0.0 and words > 100_000
    # the p(w) array, the float64 copy of the counts that the dot product reads, and one
    # chunk's histories, letters, blocks, cells and lag terms (eight 8-byte arrays at most)
    assert peak <= 8 * words + counts.values().nbytes + 8 * 8 * _SCORE_CHUNK
