"""Exception hierarchy shared by every seqgp module.

The CLI maps these onto process exit codes (config 2, data 3, numerical 4),
so library code should raise the most specific class that applies.
"""


class SeqgpError(Exception):
    """Base class for all seqgp errors.  ``detail`` may carry a diagnostic payload:
    a block's row at fault (``linalg.run_blocks``), the last Newton iterate, or
    a condition-number estimate."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class ConfigurationError(SeqgpError):
    """Invalid model/hyperparameter configuration (bad value, missing key).

    ``param`` may name the library argument at fault, so that a caller can
    report the configuration key it read that argument from.
    """

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class DataError(SeqgpError):
    """Malformed or inconsistent input data (bad number, bad ordering)."""


class ShapeError(DataError):
    """Dimension mismatch between inputs and a model object."""


class UnsupportedKernelError(ConfigurationError):
    """Kernel family not supported by the requested representation."""


class NumericalError(SeqgpError):
    """A numerical routine failed (factorization, divergence)."""
