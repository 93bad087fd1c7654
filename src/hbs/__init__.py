"""Black-box randomized compression of hierarchically block separable
operators: probe an n x n operator and its transpose with O(rank) random
vectors, rebuild a telescoping factorization level by level, then store,
apply, serialize, and benchmark the compressed form."""

from .compress import (
    CompressionConfig,
    SampleSet,
    compress_from_samples,
    compress_operator,
    draw_samples,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    HbsError,
    IllConditionedProbeError,
    NonFiniteError,
    ResourceLimitError,
)
from .factorization import (
    HbsFactorization,
    StorageReport,
    apply,
    apply_matrix,
    apply_transpose,
    random_hbs,
    storage,
    to_dense,
)
from .oracle import MatVecOracle
from .serialize import load_factorization, save_factorization
from .tree import ClusterTree, build_tree

__version__ = "0.1.0"

__all__ = [
    "ClusterTree",
    "CompressionConfig",
    "ConfigurationError",
    "DimensionError",
    "FormatError",
    "HbsError",
    "HbsFactorization",
    "IllConditionedProbeError",
    "MatVecOracle",
    "NonFiniteError",
    "ResourceLimitError",
    "SampleSet",
    "StorageReport",
    "apply",
    "apply_matrix",
    "apply_transpose",
    "build_tree",
    "compress_from_samples",
    "compress_operator",
    "draw_samples",
    "load_factorization",
    "random_hbs",
    "save_factorization",
    "storage",
    "to_dense",
]
