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

from .errors import DimensionError, NonFiniteError, check_real


class MatVecOracle:
    """Wrap batched apply routines for an n x n operator and its transpose.

    `apply_batch_fn` and `apply_transpose_batch_fn` map an (n x c) ndarray
    to an (n x c) ndarray.  Counters update atomically by exactly c per
    batched call.  One lock serializes the calls into both routines, so a
    routine is never entered from two threads at once and need not be
    thread-safe (scipy's `lu_solve` on one shared factor is not); a
    single-threaded caller takes only an uncontended lock.
    """

    def __init__(self, n: int, apply_batch_fn, apply_transpose_batch_fn):
        self.n = n
        self._apply_fn = apply_batch_fn
        self._apply_t_fn = apply_transpose_batch_fn
        self._lock = threading.Lock()
        self._counts = {"forward": 0, "transpose": 0}
        self._seconds = 0.0

    def _run(self, fn, x, direction):
        x = check_real("oracle input", x)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise DimensionError(f"oracle expects {self.n} x c input, got shape {x.shape}")
        with self._lock:
            start = time.perf_counter()
            y = np.asarray(fn(x))
            elapsed = time.perf_counter() - start
        if y.shape != x.shape:
            raise DimensionError(f"oracle product returned shape {y.shape}, expected {x.shape}")
        y = check_real(f"oracle {direction} product", y)
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
