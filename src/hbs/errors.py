"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible or out-of-range dimensions."""


class NonFiniteError(ValueError):
    """An oracle product or a matrix handed to the compressor holds NaN or
    infinite entries."""


class ConfigurationError(ValueError):
    """A requested configuration cannot produce a valid compression run."""


class IllConditionedProbeError(RuntimeError):
    """A probe matrix lost full row rank, so its pseudoinverse action is
    unreliable.  The standard remedy is to increase the probe count.
    `index` is the failing matrix's position in a stacked solve."""

    def __init__(self, message, node_id=None, level=None, index=None):
        super().__init__(message)
        self.node_id = node_id
        self.level = level
        self.index = index


class ResourceLimitError(RuntimeError):
    """An operation would exceed a hard resource cap (e.g. densifying a
    matrix larger than the configured limit)."""


class FormatError(RuntimeError):
    """A serialized factorization file is malformed or truncated."""
