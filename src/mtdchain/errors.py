"""Exception types raised by mtdchain."""


class MtdError(Exception):
    """Base class for all mtdchain errors."""


class InvalidSymbol(MtdError):
    """A symbol index or label is not part of the alphabet."""


class ShapeMismatch(MtdError):
    """An input has the wrong length or shape for the model order."""


class ModelTooLarge(MtdError):
    """A dense table, 64-bit word indices or a sample's buffers would be too large."""


class AlphabetMismatch(MtdError):
    """Operands were built over different alphabets (or word lengths)."""


class LagOutOfRange(MtdError):
    """Requested lag is outside 1..m-l+1 for the given counts."""


class EmptyCorpus(MtdError):
    """No counted words are available to initialize or fit from."""


class DegenerateLikelihood(MtdError):
    """An observed word has zero probability under the current model.

    Carries the offending word index (``word_index``), its spelled form
    (``word``), and, when raised out of a fit loop, the partial
    log-likelihood trace accumulated so far (``trace``).
    """

    def __init__(self, message, word_index=None, word=None, trace=None):
        super().__init__(message)
        self.word_index = word_index
        self.word = word
        self.trace = trace


class AllRestartsFailed(MtdError):
    """Every restart of a fit aborted with a degenerate likelihood."""

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = failures or []


class NotAnMtdPoint(MtdError):
    """A reconstructed transition probability falls outside [0, 1]."""


class NonConvergentStationary(MtdError):
    """Power iteration failed to reach the stationary distribution."""


class IoError(MtdError):
    """A file could not be read or parsed."""
