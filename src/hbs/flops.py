"""Multiply-add accounting for machine-independent cost checks.

Arithmetic cost is tracked as nominal scalar multiply-adds, derived from
operand shapes with textbook operation counts.  Counting is off unless a
`count_madds()` context is active, so production paths pay one context-var
lookup per tracked call.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass
class MaddCounter:
    madds: int = 0


_ACTIVE: ContextVar[MaddCounter | None] = ContextVar("hbs_madd_counter", default=None)


@contextmanager
def count_madds():
    """Activate a counter; yields it so callers can read `.madds` after."""
    counter = MaddCounter()
    token = _ACTIVE.set(counter)
    try:
        yield counter
    finally:
        _ACTIVE.reset(token)


def add_madds(n):
    counter = _ACTIVE.get()
    if counter is not None:
        counter.madds += int(n)


def matmul_madds(m, k, n):
    """(m x k) @ (k x n)."""
    return m * k * n


def qr_madds(m, n):
    """Householder QR of an m x n matrix with m >= n, including explicit
    formation of the reduced Q."""
    return 2 * m * n * n - n**3 // 3


def cholesky_madds(n):
    """Cholesky factor of an n x n symmetric positive definite matrix."""
    return n**3 // 6


def svd_madds(m, n):
    """Thin SVD of an m x n matrix with m >= n, with the m x n left and the
    n x n right singular vectors (Golub-Reinsch)."""
    return 7 * m * n * n + 4 * n**3


def trtri_madds(n):
    """Inverse of an n x n triangular matrix."""
    return n**3 // 6
