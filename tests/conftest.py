import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import refdata
from mtdchain import Alphabet, MtdModel, Sequence, random_mtd, word_to_index

# every property test runs the same examples each time, however long one takes;
# each test sets its own max_examples
settings.register_profile("mtdchain", deadline=None, derandomize=True)
settings.load_profile("mtdchain")


@pytest.fixture
def dna():
    return Alphabet(refdata.DNA_SYMBOLS)


@pytest.fixture
def song():
    return Alphabet(refdata.SONG_SYMBOLS)


def build_model(alphabet, params, variant="general"):
    return MtdModel(
        alphabet, 2, 1, params["phi"], [params["pi1"], params["pi2"]], variant=variant
    )


@pytest.fixture
def equiv_model_a(dna):
    return build_model(dna, refdata.EQUIV_A)


@pytest.fixture
def equiv_model_b(dna):
    return build_model(dna, refdata.EQUIV_B)


@pytest.fixture
def pewee_em(song):
    return build_model(song, refdata.PEWEE_EM_PARAMS)


@pytest.fixture
def pewee_berchtold(song):
    return build_model(song, refdata.PEWEE_BERCHTOLD_PARAMS)


@pytest.fixture
def crystallin_em(dna):
    return build_model(dna, refdata.CRYSTALLIN_EM_PARAMS)


# symbols of every text form: one ASCII byte, a case pair, two bytes, four bytes,
# several characters joined by ',' and one byte at q = 90
SYMBOL_SETS = pytest.mark.parametrize(
    "symbols",
    [tuple("acgt"), ("a", "A", "b"), ("ß", "a", "b"), ("\U0001F642", "x"),
     tuple(f"s{i}" for i in range(12)), tuple(chr(33 + i) for i in range(90))],
    ids=["dna", "case-pair", "sharp-s", "astral", "q12", "q90"],
)


def traced_peak(fn):
    """``(fn(), peak)``: the most bytes ``fn`` held at once that tracemalloc saw allocated
    during the call, numpy's array buffers included."""
    gc.collect()  # no garbage of an earlier test is freed inside the trace
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def random_sequence(alphabet, length, seed):
    rng = np.random.default_rng(seed)
    return Sequence(alphabet, rng.integers(0, alphabet.size, size=length))


def lag_table(seq, order, lag, block=1):
    """Direct-scan oracle: over the (order+1)-letter windows of ``seq``, the counts of each
    (block of ``block`` letters ending at lag ``lag``, final letter) pair, a q**block x q table."""
    q = seq.alphabet.size
    data = seq.data.tolist()
    table = np.zeros((q**block, q), dtype=np.int64)
    for t in range(order, len(data)):
        table[word_to_index(data[t - lag - block + 1 : t - lag + 1], q), data[t]] += 1
    return table


def plus_one_rows(table):
    """Rows of ``table`` plus 1, normalized: the contingency start of EM."""
    smoothed = table + 1.0
    return smoothed / smoothed.sum(axis=1, keepdims=True)


@st.composite
def random_mtds(draw, max_q=5, max_order=6, variants=("general", "single_matrix")):
    """Random MTD models with q in 2..max_q, m in 1..max_order, l in 1..m and any of ``variants``."""
    q = draw(st.integers(2, max_q), label="q")
    m = draw(st.integers(1, max_order), label="m")
    variant = draw(st.sampled_from(variants), label="variant")
    l = 1 if variant == "single_matrix" else draw(st.integers(1, m), label="l")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return random_mtd(q, m, l, variant=variant, seed=seed)
