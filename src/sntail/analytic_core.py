"""Structured matrices and the criterion function behind the tail constants.

The curvature (anti-Hessian) matrix of the criterion function at the
all-ones point has a uniform diagonal and a uniform off-diagonal, so its
log-determinant has a closed form, the product of its two eigenvalues.
One independent route checks it: a pivoted LU factorization (`slogdet`) of
the dense matrix, up to order DET_FACTOR_LIMIT.  The two entries of the
matrix have closed forms too, and a central-difference oracle checks them
on seven evaluations of the criterion function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DET_FACTOR_LIMIT",
    "StructuredMatrix",
    "AntiHessianSpec",
    "structured_anti_hessian",
    "anti_hessian_entries",
    "anti_hessian_entries_fd",
    "exp_or_inf",
    "log_det_anti_hessian",
    "log_det_anti_hessian_factorized",
    "log_det_anti_hessian_published",
    "g_many",
]

# Largest order that is materialized and factorized densely: 8 MB and
# about 0.1 s at 1024.
DET_FACTOR_LIMIT = 1024

# Central second differences: eps**(1/4) balances truncation (h^2) against
# roundoff (eps/h^2).  The often-quoted eps**(1/3) step is tuned for first
# derivatives and loses ~2 digits here.
_FD_STEP = float(np.finfo(float).eps) ** 0.25


@dataclass(frozen=True)
class StructuredMatrix:
    """Symmetric m x m matrix with `diag` on the diagonal and `off` elsewhere.

    Its spectrum is known exactly: eigenvalue diag - off with multiplicity
    m - 1 (eigenvectors orthogonal to the all-ones vector) and the simple
    eigenvalue diag + (m - 1) * off (all-ones eigenvector).
    """

    m: int
    diag: float
    off: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"matrix order must be >= 1, got {self.m}")
        if not (np.isfinite(self.diag) and np.isfinite(self.off)):
            raise ValueError("matrix entries must be finite")

    def eigenvalues(self) -> tuple[float, float]:
        """Return (repeated eigenvalue, simple eigenvalue)."""
        return self.diag - self.off, self.diag + (self.m - 1) * self.off

    def materialize(self) -> np.ndarray:
        """The dense matrix, refused above order DET_FACTOR_LIMIT."""
        if self.m > DET_FACTOR_LIMIT:
            raise ValueError(
                f"dense materialization capped at order {DET_FACTOR_LIMIT}; "
                "use the closed-form determinant instead"
            )
        out = np.full((self.m, self.m), self.off, dtype=float)
        np.fill_diagonal(out, self.diag)
        return out


@dataclass(frozen=True)
class AntiHessianSpec:
    """Order and norm exponent for the curvature matrix at the all-ones point.

    The matrix is the negated Hessian of the criterion function, evaluated
    where the function attains its maximum; it has order n - 1.
    """

    n: int
    beta: float = 2.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not self.beta > 1.0:
            raise ValueError(f"beta must be > 1, got {self.beta}")


def anti_hessian_entries(spec: AntiHessianSpec) -> tuple[float, float]:
    """Return (diagonal, off-diagonal) entries of the curvature matrix.

    diagonal      (beta - 1) * (n**(-1/beta) - n**(-1 - 1/beta))
    off-diagonal  -(beta - 1) * n**(-1 - 1/beta)

    For beta = 2 these reduce to n**-0.5 - n**-1.5 and -n**-1.5.
    """
    n, beta = spec.n, spec.beta
    scale = beta - 1.0
    diag = scale * (n ** (-1.0 / beta) - n ** (-1.0 - 1.0 / beta))
    off = -scale * n ** (-1.0 - 1.0 / beta)
    return diag, off


def anti_hessian_entries_fd(spec: AntiHessianSpec) -> tuple[float, float | None]:
    """(diagonal, off-diagonal) of the negated central-difference Hessian of
    the criterion function at the all-ones point.

    By the permutation symmetry of g at that point the (0, 0) and (0, 1)
    entries are all the matrix holds, so only the points 1, 1 +- h e_1 and
    1 +- h e_1 +- h e_2 are evaluated, in one `g_many` call.  At n = 2 the
    matrix has no off-diagonal, and that slot is None.
    """
    d, h = spec.n - 1, _FD_STEP
    steps = np.array([[0, 0], [1, 0], [-1, 0], [1, 1], [1, -1], [-1, 1], [-1, -1]])
    if d == 1:
        steps = steps[:3, :1]
    points = np.ones((len(steps), d))
    points[:, : steps.shape[1]] += h * steps
    g = g_many(points, spec.beta)
    diag = -float((g[1] - 2.0 * g[0] + g[2]) / (h * h))
    if d == 1:
        return diag, None
    return diag, -float((g[3] - g[4] - g[5] + g[6]) / (4.0 * h * h))


def structured_anti_hessian(spec: AntiHessianSpec) -> StructuredMatrix:
    diag, off = anti_hessian_entries(spec)
    return StructuredMatrix(spec.n - 1, diag, off)


def log_det_anti_hessian(spec: AntiHessianSpec) -> float:
    """Log-determinant of the curvature matrix: its eigenvalue product.

    The eigenvalues are rep = (beta-1) * n**(-1/beta), n - 2 times, and
    simple = (beta-1) * n**(-1-1/beta), both positive for n >= 2, beta > 1,
    so the product is (beta-1)**(n-1) * n**(-(n-1)/beta - 1), taken here in
    the log domain.  Formed as diag + (n-2)*off from the entries, `simple`
    cancels to zero or below once n nears 1/ulp; this form stays finite at
    any n.  For beta = 2 it is -(n+1)/2 * log n.
    """
    n, beta = spec.n, spec.beta
    return (n - 1) * math.log(beta - 1.0) - ((n - 1) / beta + 1.0) * math.log(n)


def log_det_anti_hessian_factorized(spec: AntiHessianSpec) -> tuple[float, float]:
    """(sign, log |det|) of the dense curvature matrix by pivoted LU
    factorization (`np.linalg.slogdet`): the independent route.  Refused
    above order DET_FACTOR_LIMIT."""
    sign, log_abs = np.linalg.slogdet(structured_anti_hessian(spec).materialize())
    return float(sign), float(log_abs)


def exp_or_inf(log_value: float) -> float:
    """exp(log_value), or inf where it overflows a double instead of raising."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def log_det_anti_hessian_published(spec: AntiHessianSpec) -> float:
    """Log of the as-published determinant expression (kept for comparison).

    The published closed form reads
    (beta-1)**(n-1) * n**(-(n-2)/beta) * (2*n**(-1/beta) - 3*n**(-1-1/beta)),
    which disagrees with the eigenvalue product for every n >= 2.  It is
    retained verbatim so the discrepancy can be measured, not hidden.
    """
    n, beta = spec.n, spec.beta
    tail = 2.0 * n ** (-1.0 / beta) - 3.0 * n ** (-1.0 - 1.0 / beta)
    if tail <= 0.0:
        raise ValueError("published determinant expression is non-positive here")
    return (n - 1) * math.log(beta - 1.0) - (n - 2) / beta * math.log(n) + math.log(tail)


def g_many(vs: np.ndarray, beta: float = 2.0) -> np.ndarray:
    """Vectorized criterion function over points stacked in the last axis.

    g(v) = (1 + sum v_j) / (1 + sum |v_j|**beta)**(1/beta).  The maximum over
    the positive orthant is n**(1 - 1/beta), attained at the all-ones point.
    """
    arr = np.asarray(vs, dtype=float)
    num = 1.0 + arr.sum(axis=-1)
    den = (1.0 + (np.abs(arr) ** beta).sum(axis=-1)) ** (1.0 / beta)
    return num / den
