"""Exception types shared across the package, and its integer, seed and
real-array checks.

Every error the library raises is an `HbsError`.  Its class attributes
`kind` and `exit_code` are the label the command line prints in front of the
message and the status it exits with.  Each type also keeps a builtin base,
so callers that catch `ValueError` or `RuntimeError` still catch it."""

import numbers

import numpy as np


class HbsError(Exception):
    """Base of every library error; `kind` labels it and `exit_code` is the
    command line's exit status for it."""

    kind = "error"
    exit_code = 2


class DimensionError(HbsError, ValueError):
    """Operands have incompatible or out-of-range dimensions."""

    kind = "configuration error"


class NonFiniteError(HbsError, ValueError):
    """An oracle product or a matrix handed to the compressor holds NaN or
    infinite entries, or a norm the result divides by is zero."""

    kind = "non-finite data"


def raise_out_of_range(kind, flag=None):
    """numpy's floating-point error callback, for `np.errstate(call=...)`
    around arithmetic that finite input can push out of float64 range (the
    level sweep and the factorization's apply)."""
    raise NonFiniteError(f"{kind}: an operand or a product left the float64 range")


class ConfigurationError(HbsError, ValueError):
    """A requested configuration cannot produce a valid compression run."""

    kind = "configuration error"


def check_integer(name: str, value) -> int:
    """`value` as an int; anything but an integer (a numpy integer counts, a
    bool does not) raises ConfigurationError."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """`seed` as an int; a non-integer or negative seed raises ConfigurationError."""
    seed = check_integer("seed", seed)
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    return seed


def check_real(name: str, a) -> np.ndarray:
    """`a` as a float64 array; a ragged array-like, or a dtype other than
    bool, integer or float (complex, string, object), raises DimensionError.
    A dtype test only: no pass over the data."""
    try:
        a = np.asarray(a)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise DimensionError(f"{name} is ragged: {exc}") from exc
    if a.dtype.kind not in "biuf":
        raise DimensionError(f"{name} is {a.dtype}, not real")
    return a.astype(np.float64, copy=False)


class IllConditionedProbeError(HbsError, RuntimeError):
    """A probe matrix lost full row rank, so its pseudoinverse action is
    unreliable.  The standard remedy is to increase the probe count.
    `index` is the failing matrix's position in a stacked solve."""

    kind = "ill-conditioned probe"
    exit_code = 3

    def __init__(self, message, node_id=None, level=None, index=None):
        super().__init__(message)
        self.node_id = node_id
        self.level = level
        self.index = index


class ResourceLimitError(HbsError, RuntimeError):
    """An operation would exceed a hard resource cap (e.g. densifying a
    matrix larger than the configured limit)."""

    kind = "resource limit"


class FormatError(HbsError, ValueError):
    """A factorization, read from a file or held in memory, is malformed."""

    kind = "file error"
