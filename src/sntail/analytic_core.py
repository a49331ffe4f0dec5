"""Structured matrices and the criterion function behind the tail constants.

Two exact determinant routes are kept deliberately separate so they can
cross-check each other: a closed form built from the eigenvalue structure of
the uniform-off-diagonal matrix, and plain LU factorization of the dense
matrix.  The curvature matrix of the criterion function at the all-ones
point has exactly that structure, which is what makes the closed forms
possible in the first place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DENSE_LIMIT",
    "StructuredMatrix",
    "AntiHessianSpec",
    "CriterionPoint",
    "det_eigen_closed",
    "det_published_structured",
    "det_numeric",
    "structured_anti_hessian",
    "build_anti_hessian",
    "anti_hessian_entries",
    "det_anti_hessian",
    "det_anti_hessian_published",
    "log_det_anti_hessian",
    "log_det_anti_hessian_published",
    "g_value",
    "g_many",
    "hessian_fd",
]

# Dense materialization cap: above this, callers must use the closed forms.
DENSE_LIMIT = 64

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

    def materialize(self, limit: int = DENSE_LIMIT) -> np.ndarray:
        """The dense matrix, refused above order `limit`."""
        if self.m > limit:
            raise ValueError(
                f"dense materialization capped at order {limit}; "
                "use the closed-form determinant instead"
            )
        out = np.full((self.m, self.m), self.off, dtype=float)
        np.fill_diagonal(out, self.diag)
        return out


def det_eigen_closed(m: int, diag: float, off: float) -> float:
    """Determinant of StructuredMatrix(m, diag, off) from its spectrum.

    det = (diag - off)**(m-1) * (diag + (m-1)*off).
    """
    rep, simple = StructuredMatrix(m, diag, off).eigenvalues()
    return rep ** (m - 1) * simple


def det_published_structured(m: int, diag: float, off: float) -> float:
    """As-published closed form for the structured determinant.

    The source derivation prints (diag - off)**(m-1) * (diag - (m-1)*off),
    with a minus where the eigenvalue product has a plus.  At m = 1 the two
    coincide; for m >= 2 and off != 0 they disagree.  Kept verbatim so the
    verification ledger can quantify the discrepancy.
    """
    StructuredMatrix(m, diag, off)
    return (diag - off) ** (m - 1) * (diag - (m - 1) * off)


def det_numeric(mat: np.ndarray) -> float:
    """Determinant by LU factorization; the independent route."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.det(arr))


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


def structured_anti_hessian(spec: AntiHessianSpec) -> StructuredMatrix:
    diag, off = anti_hessian_entries(spec)
    return StructuredMatrix(spec.n - 1, diag, off)


def build_anti_hessian(spec: AntiHessianSpec) -> np.ndarray:
    """Dense curvature matrix of order n - 1 (capped at DENSE_LIMIT)."""
    return structured_anti_hessian(spec).materialize()


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


def det_anti_hessian(spec: AntiHessianSpec) -> float:
    """Determinant of the curvature matrix, eigenvalue route."""
    return float(np.exp(log_det_anti_hessian(spec)))


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


def det_anti_hessian_published(spec: AntiHessianSpec) -> float:
    return float(np.exp(log_det_anti_hessian_published(spec)))


@dataclass(frozen=True)
class CriterionPoint:
    """Evaluation point for the criterion function.

    `v` collects the last n - 1 coordinates of the ray direction; the first
    coordinate is pinned to 1.  For beta != 2 the function lives on the
    closed positive orthant, so negative coordinates are rejected there.
    """

    v: np.ndarray
    beta: float = 2.0

    def __post_init__(self) -> None:
        arr = np.atleast_1d(np.asarray(self.v, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("v must be a non-empty vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("v has non-finite entries")
        if self.beta != 2.0 and np.any(arr < 0.0):
            raise ValueError("negative coordinates require beta = 2")
        if not self.beta > 1.0:
            raise ValueError(f"beta must be > 1, got {self.beta}")
        object.__setattr__(self, "v", arr)

    @property
    def n(self) -> int:
        return self.v.size + 1


def g_many(vs: np.ndarray, beta: float = 2.0) -> np.ndarray:
    """Vectorized criterion function over points stacked in the last axis.

    g(v) = (1 + sum v_j) / (1 + sum |v_j|**beta)**(1/beta).  The maximum over
    the positive orthant is n**(1 - 1/beta), attained at the all-ones point.
    """
    arr = np.asarray(vs, dtype=float)
    num = 1.0 + arr.sum(axis=-1)
    den = (1.0 + (np.abs(arr) ** beta).sum(axis=-1)) ** (1.0 / beta)
    return num / den


def g_value(point: CriterionPoint) -> float:
    return float(g_many(point.v, point.beta))


def hessian_fd(point: CriterionPoint) -> np.ndarray:
    """Central-difference Hessian of the criterion function at `point`.

    Step per coordinate: _FD_STEP * max(1, |v_j|).  Raises if the step
    underflows (v_j + h == v_j) or, for beta != 2, if stepping would leave
    the positive orthant where the function is defined.
    """
    v, beta = point.v, point.beta
    d = v.size
    h = _FD_STEP * np.maximum(1.0, np.abs(v))
    if np.any(v + h == v):
        raise ValueError("finite-difference step underflowed at this point")
    if beta != 2.0 and np.any(v - h < 0.0):
        raise ValueError(
            "point too close to the orthant boundary for finite differences"
        )

    def g(w: np.ndarray) -> float:
        return float(g_many(w, beta))

    g0 = g(v)
    out = np.empty((d, d), dtype=float)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        out[i, i] = (g(v + ei) - 2.0 * g0 + g(v - ei)) / (h[i] * h[i])
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            mixed = (
                g(v + ei + ej) - g(v + ei - ej) - g(v - ei + ej) + g(v - ei - ej)
            ) / (4.0 * h[i] * h[j])
            out[i, j] = mixed
            out[j, i] = mixed
    return out
