"""Structured matrices and the criterion function behind the tail constants.

The curvature (anti-Hessian) matrix of the criterion function at the
all-ones point has a uniform diagonal and a uniform off-diagonal, so its
log-determinant has a closed form, the product of its two eigenvalues.
One independent route checks it: a pivoted LU factorization (`slogdet`) of
the dense matrix, up to order DET_FACTOR_LIMIT.  The two entries of the
matrix have closed forms too, checked exactly, with no step, by one call of
the criterion function on hyper-dual numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DET_FACTOR_LIMIT",
    "StructuredMatrix",
    "AntiHessianSpec",
    "HyperDual",
    "structured_anti_hessian",
    "anti_hessian_entries",
    "anti_hessian_entries_hyperdual",
    "exp_or_inf",
    "log_det_anti_hessian",
    "log_det_anti_hessian_factorized",
    "log_det_anti_hessian_published",
    "g_many",
]

# Largest order that is materialized and factorized densely: 8 MB and
# about 0.1 s at 1024.
DET_FACTOR_LIMIT = 1024


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


def anti_hessian_entries_hyperdual(spec: AntiHessianSpec) -> tuple[float, float | None]:
    """(diagonal, off-diagonal) of the negated Hessian of the criterion
    function at the all-ones point, exact to rounding: by the permutation
    symmetry of g there, they are all the matrix holds.  One `g_many` call
    on the hyper-dual rows 1 + e1 u_0 + e2 u_j, j = 0 and 1 (u_j the unit
    vectors), carries d2g/dv0^2 and d2g/dv0 dv1 in its e1e2 parts.  At
    n = 2 there is one row, and the off-diagonal slot is None.
    """
    d, rows = spec.n - 1, min(spec.n - 1, 2)
    unit = np.eye(rows, d)
    point = HyperDual(np.ones((rows, d)), unit[[0] * rows], unit, np.zeros((rows, d)))
    hessian = -g_many(point, spec.beta).x12
    return float(hessian[0]), float(hessian[1]) if rows == 2 else None


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


class HyperDual:
    """x + x1 e1 + x2 e2 + x12 e1e2 with e1^2 = e2^2 = 0, each part an array
    (Fike & Alonso, AIAA 2011-886): f at x + e1 u + e2 w carries its second
    derivative along u and w in x12, exact to rounding.  Only what `g_many`
    uses is defined: sum, a scalar added, abs, a real power and a quotient."""

    def __init__(self, x: np.ndarray, x1: np.ndarray, x2: np.ndarray, x12: np.ndarray):
        self.x, self.x1, self.x2, self.x12 = x, x1, x2, x12

    def _chain(self, f, df, d2f) -> HyperDual:
        return HyperDual(f, df * self.x1, df * self.x2, df * self.x12 + d2f * self.x1 * self.x2)

    def sum(self, axis: int) -> HyperDual:
        return HyperDual(*(p.sum(axis=axis) for p in (self.x, self.x1, self.x2, self.x12)))

    def __radd__(self, other: float) -> HyperDual:
        return HyperDual(other + self.x, self.x1, self.x2, self.x12)

    def __abs__(self) -> HyperDual:
        return self._chain(np.abs(self.x), np.sign(self.x), 0.0)

    def __pow__(self, p: float) -> HyperDual:
        return self._chain(self.x**p, p * self.x ** (p - 1.0), p * (p - 1.0) * self.x ** (p - 2.0))

    def __truediv__(self, other: HyperDual) -> HyperDual:
        a, w = self, other ** -1.0
        return HyperDual(a.x * w.x, a.x * w.x1 + a.x1 * w.x, a.x * w.x2 + a.x2 * w.x,
                         a.x * w.x12 + a.x1 * w.x2 + a.x2 * w.x1 + a.x12 * w.x)


def g_many(vs: np.ndarray | HyperDual, beta: float = 2.0) -> np.ndarray | HyperDual:
    """Vectorized criterion function over points stacked in the last axis.

    g(v) = (1 + sum v_j) / (1 + sum |v_j|**beta)**(1/beta).  The maximum over
    the positive orthant is n**(1 - 1/beta), attained at the all-ones point.
    """
    arr = vs if isinstance(vs, HyperDual) else np.asarray(vs, dtype=float)
    num = 1.0 + arr.sum(axis=-1)
    den = (1.0 + (abs(arr) ** beta).sum(axis=-1)) ** (1.0 / beta)
    return num / den
