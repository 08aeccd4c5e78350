"""Mixture transition distribution (MTD) models for high-order Markov chains.

Provides exact transition probabilities and likelihoods, EM estimation
with restarts, a coordinate-ascent baseline optimizer, an identifiable
one-block reparametrization with model-dimension formulas and BIC,
stationary word distributions, sampling, sequence/model file I/O, and a
CLI with experiment harnesses.
"""

from .berchtold import berchtold_fit, berchtold_step, loglik_gradient
from .counts import NGramCounts, count_ngrams, write_counts
from .em import (
    EmConfig,
    FitReport,
    RestartRecord,
    e_step,
    em_fit,
    fit_with_restarts,
    init_contingency,
    loglik_from_counts,
    m_step,
)
from .errors import (
    AllRestartsFailed,
    AlphabetMismatch,
    DegenerateLikelihood,
    EmptyCorpus,
    InvalidSymbol,
    IoError,
    LagOutOfRange,
    ModelTooLarge,
    MtdError,
    NonConvergentStationary,
    NotAnMtdPoint,
    ShapeMismatch,
)
from .experiments import bic_compare, fit_full_markov, tv_experiment
from .model import (
    DNA,
    Alphabet,
    MtdModel,
    Sequence,
    default_alphabet,
    full_transition_matrix,
    index_to_word,
    random_full_markov,
    random_mtd,
    sample_sequence,
    sequence_loglik,
    spell_word,
    transition_prob,
    word_to_index,
)
from .modelfile import read_model, write_model, write_trace
from .reparam import (
    ThetaU,
    bic,
    dim_raw_mtd,
    dim_theta_u,
    from_theta_u,
    model_dimension,
    to_theta_u,
)
from .seqio import read_sequences, write_sequences
from .stationary import WordDistribution, stationary_histories, tv_distance, word_distribution

__version__ = "0.1.0"
