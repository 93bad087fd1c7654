"""Black-box access to a square operator through batched products only.

The compressor sees an operator exclusively through this interface: there
is no entrywise access path.  Every column pushed through either direction
is counted, and wall time spent inside the user-supplied product routines
is accumulated separately so harnesses can report black-box time apart
from compression arithmetic.
"""

import threading
import time

import numpy as np

from .errors import DimensionError, NonFiniteError


class MatVecOracle:
    """Wrap batched apply routines for an n x n operator and its transpose.

    `apply_batch_fn` and `apply_transpose_batch_fn` map an (n x c) ndarray
    to an (n x c) ndarray.  Counters update atomically by exactly c per
    batched call.
    """

    def __init__(self, n: int, apply_batch_fn, apply_transpose_batch_fn):
        self.n = n
        self._apply_fn = apply_batch_fn
        self._apply_t_fn = apply_transpose_batch_fn
        self._lock = threading.Lock()
        self._counts = {"forward": 0, "transpose": 0}
        self._seconds = 0.0

    def _run(self, fn, x, direction):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise DimensionError(f"oracle expects {self.n} x c input, got shape {x.shape}")
        start = time.perf_counter()
        y = np.asarray(fn(x))
        elapsed = time.perf_counter() - start
        if y.shape != x.shape:
            raise DimensionError(f"oracle product returned shape {y.shape}, expected {x.shape}")
        if np.iscomplexobj(y):
            raise DimensionError(f"oracle {direction} product is complex, not real")
        y = np.asarray(y, dtype=np.float64)
        if not np.isfinite(y).all():
            raise NonFiniteError(f"oracle {direction} product returned NaN or infinite entries")
        with self._lock:
            self._counts[direction] += x.shape[1]
            self._seconds += elapsed
        return y

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        """Product of the operator with the columns of x."""
        return self._run(self._apply_fn, x, "forward")

    def apply_transpose_batch(self, x: np.ndarray) -> np.ndarray:
        """Product of the transposed operator with the columns of x."""
        return self._run(self._apply_t_fn, x, "transpose")

    @property
    def matvec_count(self) -> tuple[int, int]:
        """(columns pushed through the operator, through its transpose)."""
        with self._lock:
            return self._counts["forward"], self._counts["transpose"]

    @property
    def seconds_in_products(self) -> float:
        """Wall time accumulated inside the black-box product routines."""
        with self._lock:
            return self._seconds
