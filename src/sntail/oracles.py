"""Independent oracles for tail probabilities of self-normalized sums.

Every closed-form constant this package produces must survive comparison
against at least one of these routes, each built from first principles and
sharing no algebra with the formulas under test:

  tail_law                the one table of exact laws: for a centred normal
                          at beta = 2, the quadratic-form law (Ruben, 1962),
                          its small-eps limit c0 in log form, and, for an
                          iid normal, its isotropic case the sphere law
  sphere_tail_exact       regularized incomplete beta: the exact cap law of
                          a spherically symmetric model
  region_tail_integral    direct quadrature of the joint density over the
                          tail region, in ray coordinates
  rademacher_tail_exact   exhaustive enumeration of all sign vectors
  degenerate_component_check  exact reduction when one coordinate is pinned

Where `tail_law` has no law (the other models at n <= 4) the ledger reads
the region quadrature at one small eps.  `leading_coeff_fit` fits a power
law to any tail evaluator on an eps grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Mapping

import numpy as np

from .analytic_core import AntiHessianSpec, g_many, structured_anti_hessian
from .density import (
    DensityModel,
    QuadratureError,
    ZPlan,
    Z_PLAN_RTOL,
    build_z_plan,
    profile_batch,
)
from .density import h_profile  # noqa: F401  (perfbench hooks oracles.h_profile)

__all__ = [
    "OracleResult",
    "CoefficientFit",
    "TailLaw",
    "regularized_incomplete_beta",
    "sphere_tail_exact",
    "tail_law",
    "rademacher_tail_exact",
    "degenerate_component_check",
    "region_tail_integral",
    "tail_window",
    "leading_coeff_fit",
    "RADEMACHER_ENUMERATION_CAP",
]

RADEMACHER_ENUMERATION_CAP = 24

_CF_TOL = 1e-15
_CF_MAX_ITER = 400
_FPMIN = 1e-300


@dataclass(frozen=True)
class OracleResult:
    """One oracle route's value and own error estimate.  Region quadrature's
    metadata counts its per-axis ladder's "refinement_level" (steps after
    the first grid) and the "nodes" whose integrand it evaluated."""

    value: float
    method: str
    error_estimate: float
    metadata: Mapping[str, object]


@dataclass(frozen=True)
class CoefficientFit:
    """Power-law fit q(eps) ~ coefficient * eps**exponent on a grid.

    `conforming` is judged against `expected_exponent`, which is (n-1)/2:
    the log-log fit must be tight and the fitted exponent close to the
    expected one.  A flat tail (atom at the threshold) fits cleanly with
    exponent 0 and is flagged as non-conforming.
    """

    coefficient: float
    exponent: float
    epsilons: tuple[float, ...]
    residual: float
    expected_exponent: float
    conforming: bool


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    frac = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        frac *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return frac
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return float(x)
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def sphere_tail_exact(n: int, threshold: float) -> OracleResult:
    """P(T(n) > threshold) for any spherically symmetric model.

    For such models the normalized vector is uniform on the unit sphere and
    T(n)/sqrt(n) is its first coordinate, whose square is Beta-distributed.
    This closed form is exact for iid standard normals in particular, and
    depends on none of the constants under test.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    s = threshold / math.sqrt(n)
    return _sphere_tail(n, threshold, 1.0 - s * s)


def _sphere_tail(n: int, threshold: float, x: float) -> OracleResult:
    """P(T(n) > threshold) on the sphere law from x = 1 - threshold**2 / n,
    which the caller forms: `sphere_tail_exact` from the threshold, which
    cancels as it nears sqrt(n), the sphere law's `TailLaw.tail` from eps
    without cancelling."""
    root_n = math.sqrt(n)
    if abs(threshold) > root_n:
        raise ValueError(
            f"threshold {threshold} outside the attainable range [-{root_n}, {root_n}]"
        )
    upper_half = 0.5 * regularized_incomplete_beta(0.5 * (n - 1), 0.5, x)
    value = upper_half if threshold >= 0.0 else 1.0 - upper_half
    return OracleResult(
        value=float(value),
        method="sphere-exact",
        error_estimate=5e-15,
        metadata={"n": n, "threshold": float(threshold)},
    )


@dataclass(frozen=True, eq=False)
class TailLaw:
    """A model's exact law at beta = 2, from `tail_law`: the ledger's `name`
    and `note` for it, `tail(eps)` = P(T > sqrt(n) - eps) where a closed
    form exists (else None), and the factor L of the covariance L L^T
    (None for the sphere law, whose statistic is scale-free)."""

    n: int
    name: str
    note: str
    tail: Callable[[float], OracleResult] | None
    chol: np.ndarray | None = None

    @cached_property
    def log_c0(self) -> float:
        """Log of c0, the small-eps limit of P(T > sqrt(n) - eps) / eps^a
        with a = (n-1)/2, computed when first read.

        For X ~ N(0, L L^T) and c > 0, T > c exactly when the sum is positive
        and X^T (11^T - c^2 I) X > 0, so by X -> -X the tail is
        (1/2) P(Z^T B Z > 0) with Z standard normal and
        B = L^T (11^T - c^2 I) L (Ruben, Ann. Math. Stat. 33, 1962).  At
        c = sqrt(n), B = -M with M = L^T (n I - 11^T) L, whose eigenvalues are
        0 (unit eigenvector u0) and m = n - 1 positive mu_j.  B's one positive
        eigenvalue grows as kappa eps, kappa = 2 sqrt(n) |L u0|^2, and
        P(kappa eps Z0^2 > sum_j mu_j Zj^2)
            = (kappa eps)^a (prod_j mu_j)^(-1/2) / (a B(a, 1/2)) (1 + O(eps)),
        so log c0 = a log kappa - (1/2) sum_j log mu_j - log(2a B(a, 1/2)).
        It is formed as the sphere law's log c0 (Sigma = I: kappa = 2 sqrt(n),
        every mu_j = n) plus the terms by which Sigma departs from I, from one
        eigh.  The route shares only L with the prediction: no K, no
        anti-Hessian, no ray profile.
        """
        n = self.n
        a = 0.5 * (n - 1)
        log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
        log_c0 = 0.5 * a * math.log(4.0 / n) - math.log(2.0 * a) - log_beta
        if self.chol is None:
            return log_c0
        chol = self.chol
        col_sums = chol.sum(axis=0)
        mu, vecs = np.linalg.eigh(n * (chol.T @ chol) - np.outer(col_sums, col_sums))
        null_image = chol @ vecs[:, 0]
        return (log_c0 + 0.5 * (n - 1) * math.log(float(null_image @ null_image))
                - 0.5 * float(np.sum(np.log(mu[1:] / n))))


def tail_law(model: object, beta: float) -> TailLaw | None:
    """The exact law of `model` at `beta`, the one place that decides it: a
    centred normal at beta = 2 has one, every other model and beta None.

    A centred iid normal (any sigma) has the sphere law, whose tail at eps
    is 0.5 I_x((n-1)/2, 1/2) at x = delta / n, delta = eps (2 sqrt(n) - eps)
    formed as `_reach` forms it, so that nothing cancels at small eps.  A
    centred `gaussian` has the quadratic-form law with tail None, even an
    isotropic one, whose tail is the sphere law's too: the `oracle-n4`
    benchmark workload checks region quadrature on exactly that model, and
    `verify-n3-gauss` has no cross-oracle or Monte Carlo row.
    """
    if not (isinstance(model, DensityModel) and model.centred_normal and beta == 2.0):
        return None
    n = model.n
    if model.kind == "iid-normal":
        root_n = math.sqrt(n)
        # delta / n may round past 1 near eps = sqrt(n)
        return TailLaw(n, "sphere law", "closed-form limit c0 of the sphere law, "
                       "(2/sqrt(n))^a / (2a B(a, 1/2))",
                       lambda eps: _sphere_tail(n, root_n - eps,
                                                min(eps * (2.0 * root_n - eps) / n, 1.0)))
    return TailLaw(n, "quadratic-form law", "exact limit c0 of the quadratic-form "
                   "law, from the eigenvalues of L^T (n I - 11^T) L", None, model.chol)


def rademacher_tail_exact(n: int, epsilon: float) -> OracleResult:
    """P(T(n) > sqrt(n) - eps) for iid signs, by enumerating all 2**n vectors.

    Within the window 0 < eps < 1/(2 sqrt(n)) only the all-plus vector
    clears the threshold, so the tail is exactly 2**-n; the enumeration
    verifies rather than assumes that.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > RADEMACHER_ENUMERATION_CAP:
        raise ValueError(
            f"enumeration capped at n = {RADEMACHER_ENUMERATION_CAP}, got {n}"
        )
    window = 0.5 / math.sqrt(n)
    if not 0.0 < epsilon < window:
        raise ValueError(
            f"epsilon must lie in (0, {window:.6g}) for n = {n}, got {epsilon}"
        )
    codes = np.arange(2**n, dtype=np.uint32)
    minus_counts = np.bitwise_count(codes).astype(np.int64)
    sums = n - 2 * minus_counts
    stats = sums / math.sqrt(n)
    hits = int(np.count_nonzero(stats > math.sqrt(n) - epsilon))
    return OracleResult(
        value=hits / float(2**n),
        method="enumeration",
        error_estimate=0.0,
        metadata={"n": n, "epsilon": float(epsilon), "hits": hits, "total": 2**n},
    )


def degenerate_component_check(n: int, epsilon: float) -> OracleResult:
    """Exact tail when the first coordinate is identically zero.

    With the remaining n - 1 coordinates iid standard normal, both the sum
    and the norm ignore the pinned coordinate, so the statistic equals the
    (n-1)-dimensional one and the sphere formula applies at the original
    threshold.  The tail vanishes identically once sqrt(n) - eps exceeds
    sqrt(n - 1).
    """
    if n < 3:
        raise ValueError(f"n must be >= 3 so that n - 1 >= 2, got {n}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    threshold = math.sqrt(n) - epsilon
    if threshold > math.sqrt(n - 1):
        value, err = 0.0, 0.0
    else:
        inner = sphere_tail_exact(n - 1, threshold)
        value, err = inner.value, inner.error_estimate
    return OracleResult(
        value=value,
        method="exact-reduction",
        error_estimate=err,
        metadata={"n": n, "epsilon": float(epsilon), "threshold": threshold},
    )


def tail_window(n: int, beta: float = 2.0) -> float:
    """Width of the epsilon window on which the tail region stays bounded.

    The region {g > n**(1-1/beta) - eps} is a bounded convex neighborhood of
    the all-ones direction exactly when eps < n**(1-1/beta) - (n-1)**(1-1/beta).
    """
    return n ** (1.0 - 1.0 / beta) - (n - 1) ** (1.0 - 1.0 / beta)


def _reach(dirs: np.ndarray, n: int, beta: float, epsilon: float) -> np.ndarray:
    """Distance from the all-ones point to the boundary of the tail region
    {g > n**(1-1/beta) - eps} along each unit direction in `dirs` (k, n - 1).

    For beta = 2 the boundary is a quadric.  With a = sum(d), c = sqrt(n) - eps
    and delta = n - c**2 = eps * (2 sqrt(n) - eps), g(1 + r d) = c where
    (c**2 - a**2) r**2 - 2 a delta r - n delta = 0, whose one positive root is
    taken in the form free of cancellation for each sign of a.  Inside
    `tail_window`, c**2 - a**2 >= c**2 - (n - 1) > 0; it is formed as
    n - a**2 - delta, so that c itself is never rounded.

    Any other beta bisects g along each ray, bracketed by doubling from
    r = 1: the region is convex and holds the all-ones point, so each ray
    leaves it exactly once.
    """
    a = dirs.sum(axis=-1)
    if beta == 2.0:
        delta = epsilon * (2.0 * math.sqrt(n) - epsilon)
        lead = n - a * a - delta
        root = np.sqrt(delta * (a * a * delta + n * lead))
        return np.where(a >= 0.0, (a * delta + root) / lead, n * delta / (root - a * delta))
    level = n ** (1.0 - 1.0 / beta) - epsilon

    def inside(r: np.ndarray) -> np.ndarray:
        return g_many(1.0 + r[:, None] * dirs, beta) > level

    lo, hi = np.zeros(a.shape), np.ones(a.shape)
    for _ in range(60):
        out = ~inside(hi)
        if out.all():
            break
        lo = np.where(out, lo, hi)
        hi = np.where(out, hi, 2.0 * hi)
    else:
        raise QuadratureError("tail region extent not bracketed")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        kept = inside(mid)
        lo = np.where(kept, mid, lo)
        hi = np.where(kept, hi, mid)
    return 0.5 * (lo + hi)


def _region_integrand(
    model: DensityModel, pts: np.ndarray, integrand: str, plan: ZPlan
) -> np.ndarray:
    """Integrand at region points, all profiles on one z-plan."""
    variant = "weighted" if integrand == "weighted" else "paper"
    vals = profile_batch(model, pts, variant, plan)
    return vals if integrand == "weighted" else vals * np.prod(pts, axis=-1)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@cache
def _fejer2(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Fejer's second rule on [-1, 1]: nodes cos(k pi / count), k = 1..count-1.

    Exact for polynomials of degree count - 2, spectrally convergent for
    analytic integrands, and nested, which Gauss-Legendre is not: the rule
    for 2 * count holds these nodes at its odd (0-based) positions, bit for
    bit.  Weights after Waldvogel (BIT 46, 2006).  Each count's rule is
    built once per process, read-only.
    """
    theta = np.arange(1, count) * (math.pi / count)
    odd = np.arange(1, count // 2 + 1) * 2 - 1
    weights = np.sin(theta) * (np.sin(np.outer(theta, odd)) @ (1.0 / odd))
    return _read_only(np.cos(theta), (4.0 / count) * weights)


@cache
def _directions(dim: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on the unit sphere of R^dim: directions (..., dim), weights (...).

    dim 1: the two directions +1 and -1, each of weight 1.
    dim 2: the periodic trapezoid at angles 2 pi k / count, shape (count, 2).
    dim 3: Fejer-2 in the polar cosine crossed with the periodic trapezoid
           on 2 * count azimuths, shape (count - 1, 2 * count, 3).
    Doubling `count` keeps every direction; `_KEPT` says where.  Each rule
    is built once per process, read-only.
    """
    if dim == 1:
        return _read_only(np.array([[1.0], [-1.0]]), np.ones(2))
    if dim == 2:
        theta = np.arange(count) * (2.0 * math.pi / count)
        return _read_only(np.stack((np.cos(theta), np.sin(theta)), axis=-1),
                          np.full(count, 2.0 * math.pi / count))
    mu, w_mu = _fejer2(count)
    phi = np.arange(2 * count) * (math.pi / count)
    sin_theta = np.sqrt(1.0 - mu * mu)[:, None]
    dirs = np.stack(
        (
            sin_theta * np.cos(phi),
            sin_theta * np.sin(phi),
            np.broadcast_to(mu[:, None], (mu.size, phi.size)),
        ),
        axis=-1,
    )
    return _read_only(dirs, np.outer(w_mu, np.full(phi.size, math.pi / count)))


# Per region dimension: the first grid's direction count and Fejer-2 radial
# count (dim 2 starts at 16 directions by 11 radial nodes, dim 3 at 7 polar
# cosines by 16 azimuths by 11), and the node budget, the size of the
# finest grid the ladder may build.  The azimuth counts stay multiples of 8,
# so the exchangeable fold's mirror map keeps each level's parity.
_LADDER = {1: (1, 12, 2 * 831), 2: (16, 12, 1536 * 831), 3: (8, 12, 63 * 128 * 103)}
# Where a grid axis keeps the previous level's nodes: every direction for
# dim 1, even positions for the trapezoid, odd positions for Fejer-2.
_KEPT = {
    1: (slice(None), slice(1, None, 2)),
    2: (slice(None, None, 2), slice(1, None, 2)),
    3: (slice(1, None, 2), slice(None, None, 2), slice(1, None, 2)),
}


def region_tail_integral(
    model: DensityModel,
    epsilon: float,
    beta: float = 2.0,
    integrand: str = "weighted",
    rel_target: float = 1e-8,
) -> OracleResult:
    """Tail probability route via quadrature over the ray-coordinate region.

    The event {T > n**(1-1/beta) - eps} maps, in coordinates x = z*(1, v)
    with z > 0, to {g(v) > n**(1-1/beta) - eps}, a bounded convex
    neighborhood of the all-ones point when eps is inside `tail_window`.
    The weighted integrand z**(n-1) f(z, zv) makes the region integral equal
    the tail probability exactly; the paper integrand (prod v_j) * h(v)
    evaluates the as-published region expression instead.

    The region is integrated in polar coordinates about the all-ones point,
    taken in the metric of g's closed-form curvature there so that the
    region is nearly a ball: a rule over directions (`_directions`) times
    Fejer-2 in the radius out to the region boundary.  That boundary is
    `_reach`, exact for beta = 2, where the region is an ellipsoid and no
    root search runs; other beta bisect g.

    Both rules are nested, and the ladder keeps one level per axis
    (dimension-adaptive tensor quadrature; Gerstner & Griebel, Computing
    71, 2003).  From a small first grid (`_LADDER`) it reads two error
    indicators off sub-grids it already holds, at no evaluation cost: e_d
    and e_r, how far halving the direction or the radial count moves the
    value Q.  Once e_d + e_r <= rel_target * |Q| it returns Q; otherwise it
    doubles the axis with the larger indicator (the radius on a tie) and
    evaluates, in one `profile_batch` call, only that axis's fresh nodes,
    so an axis that has settled is not refined again.  The error estimate
    adds to e_d + e_r what the ladder cannot see: the z-plan's certified
    tolerance and the rounding of the boundary.  A density whose profiles
    defeat the z-plan's check (a user density with a support edge) raises
    QuadratureError, as does a step whose grid would pass the node budget.
    The ladder is the one deterministic route with a certified error
    estimate, which the Monte Carlo oracle cannot give.

    For an `exchangeable` model with n >= 3 the integrand is symmetric
    under swapping v1 and v2, which maps the grid onto itself.  Each step
    then profiles only its canonical nodes, those with v1 >= v2, and each
    mirror node copies its twin's value; the rule, its sums and the error
    estimate are unchanged.  metadata counts the "refinement_level", the
    steps after the first grid, and the "nodes" whose integrand the ladder
    evaluated: a mirror node copied from its twin is not counted.

    The model's dimension n is capped at 4 (one to three region dimensions).
    """
    if integrand not in ("paper", "weighted"):
        raise ValueError(f"integrand must be paper or weighted, got {integrand!r}")
    n = model.n
    if not 2 <= n <= 4:
        raise ValueError(f"region quadrature supports 2 <= n <= 4, got {n}")
    epsilon = float(epsilon)
    window = tail_window(n, beta)
    if not 0.0 < epsilon < window:
        raise ValueError(
            f"epsilon must lie in (0, {window:.6g}) for n = {n}, beta = {beta}"
        )
    rel_target = max(rel_target, 1e-12)
    dim = n - 1

    # Shared ray-parameter quadrature plan, built from boundary probes.
    probe_dirs = _directions(dim, 16 if dim == 2 else 4)[0].reshape(-1, dim)
    probe_r = _reach(probe_dirs, n, beta, epsilon)
    probes = np.vstack((np.ones((1, dim)), 1.0 + probe_r[:, None] * probe_dirs))
    plan = build_z_plan(model, probes)

    # Polar coordinates in the metric of the peak's curvature: v = 1 + rho*T*d
    # with T = A**(-1/2), A = -Hessian of g at the all-ones point, in which the
    # region is nearly a ball, so its boundary radius hardly varies with the
    # direction d.  Any invertible T gives the same integral; this one makes
    # the rules converge fast.  A has the simple eigenvalue along the ones
    # vector and the repeated one across it, both in closed form, so
    # T = P / sqrt(simple) + (I - P) / sqrt(rep) with P the projector on ones.
    rep, simple = structured_anti_hessian(AntiHessianSpec(n, beta)).eigenvalues()
    ones_proj = np.full((dim, dim), 1.0 / dim)
    shape = ones_proj / math.sqrt(simple) + (np.eye(dim) - ones_proj) / math.sqrt(rep)
    jacobian = simple**-0.5 * rep ** (-0.5 * (dim - 1))

    # Errors the ladder cannot see: the profiles' tolerance, and the
    # boundary's placement.  A bisection of g places it where g rounds to
    # the level: a shift of 2 ulp(level) in the threshold moves the measure
    # by dim/2 times as much relative to eps.  That bounds the bisection of
    # beta != 2; the closed-form reach of beta = 2 is far more accurate, so
    # there the term is conservative.
    level = n ** (1.0 - 1.0 / beta) - epsilon
    floor = Z_PLAN_RTOL + dim * np.finfo(float).eps * level / epsilon

    def quadrature(values, dir_w, scale, radial_count):
        x, w = _fejer2(radial_count)
        radial = (values * (0.5 * (x + 1.0)) ** (dim - 1)) @ (0.5 * w)
        return jacobian * float(np.sum(dir_w * scale * radial))

    fold = model.exchangeable and dim >= 2
    dir_count, radial_count, budget = _LADDER[dim]
    kept_dirs, kept_radii = _KEPT[dim][:-1], (Ellipsis, _KEPT[dim][-1])
    grid, kept, nodes_used = None, None, 0
    for step in itertools.count():
        dirs, dir_w = _directions(dim, dir_count)
        if kept is not kept_radii:  # the first grid, or new directions
            axes = dirs @ shape
            stretch = np.linalg.norm(axes, axis=-1)
            axes /= stretch[..., None]
            reach = _reach(axes.reshape(-1, dim), n, beta, epsilon).reshape(dir_w.shape)
            scale = (reach / stretch) ** dim
        s = 0.5 * (_fejer2(radial_count)[0] + 1.0)
        prev, grid = grid, np.empty(reach.shape + s.shape)
        fresh = np.ones(grid.shape, dtype=bool)
        if prev is not None:
            grid[kept] = prev
            fresh[kept] = False
        todo = fresh
        if fold:
            # Swapping v1 and v2 commutes with `shape` and keeps the region,
            # so it maps the grid onto itself: on the azimuth axis (0 in
            # dim 2, 1 in dim 3) k -> (count/4 - k) mod count.  count/4 is
            # even, so fresh nodes mirror onto fresh ones.  The canonical
            # half is the azimuths where v1 >= v2, the diagonal included.
            count = grid.shape[dim - 2]
            az = np.arange(count)
            twin = (count // 4 - az) % count
            canonical = ((az + 3 * count // 8) % count <= count // 2)[:, None]
            todo = fresh & canonical
        # Points only where the integrand is evaluated, in the mask's order.
        idx = np.nonzero(todo)
        pts = 1.0 + (reach[idx[:-1]] * s[idx[-1]])[:, None] * axes[idx[:-1]]
        grid[idx] = _region_integrand(model, pts, integrand, plan)
        if fold:
            mirrored = fresh & ~canonical
            grid[mirrored] = np.take(grid, twin, axis=dim - 2)[mirrored]
        nodes_used += idx[0].size
        # The indicators halve one axis of the grid; dim 1's two directions
        # never refine, so there e_d is 0.
        current = quadrature(grid, dir_w, scale, radial_count)
        e_d = abs(current - quadrature(grid[kept_dirs], _directions(dim, dir_count // 2)[1],
                                       scale[kept_dirs], radial_count))
        e_r = abs(current - quadrature(grid[kept_radii], dir_w, scale, radial_count // 2))
        if e_d + e_r <= rel_target * max(abs(current), 1e-300):
            return OracleResult(
                value=current,
                method="region-quadrature",
                error_estimate=float(e_d + e_r + floor * abs(current)),
                metadata={
                    "n": n,
                    "epsilon": epsilon,
                    "beta": float(beta),
                    "integrand": integrand,
                    "refinement_level": step,
                    "nodes": nodes_used,
                },
            )
        if e_d > e_r:
            dir_count, kept = 2 * dir_count, kept_dirs
        else:
            radial_count, kept = 2 * radial_count, kept_radii
        if _directions(dim, dir_count)[1].size * (radial_count - 1) > budget:
            raise QuadratureError(
                f"region quadrature missed relative target {rel_target:.1e}; last "
                f"refinement moved the value at eps = {epsilon:g} by "
                f"{(e_d + e_r) / max(abs(current), 1e-300):.3e} of itself"
            )


def leading_coeff_fit(
    evaluator: Callable[[np.ndarray], np.ndarray],
    n: int,
    eps_grid: np.ndarray,
) -> CoefficientFit:
    """Least-squares power-law fit of a tail evaluator on an epsilon grid.

    `evaluator` maps the ascending grid to its values in one call.  Fits
    log q against log eps.  The residual is the RMS misfit in log space.
    `conforming` requires it to be at most 1e-2 and the fitted exponent to
    lie within 0.1 of (n-1)/2, the generic small-epsilon exponent in the
    continuous case.
    """
    eps = np.array(sorted(float(e) for e in np.atleast_1d(eps_grid)))
    if eps.size < 3:
        raise ValueError("need at least 3 grid points for a meaningful fit")
    if np.any(eps <= 0.0):
        raise ValueError("epsilon grid must be positive")
    if np.any(np.diff(eps) == 0.0):
        raise ValueError("epsilon grid must not contain duplicates")
    values = np.broadcast_to(np.asarray(evaluator(eps), dtype=float), eps.shape)
    if np.any(values <= 0.0):
        raise ValueError("tail evaluator returned non-positive values; nothing to fit")
    log_e, log_q = np.log(eps), np.log(values)
    slope, intercept = np.polyfit(log_e, log_q, 1)
    resid = log_q - (slope * log_e + intercept)
    rms = float(np.sqrt(np.mean(resid * resid)))
    expected = 0.5 * (n - 1)
    conforming = rms <= 1e-2 and abs(slope - expected) <= 0.1
    # Grid is recorded largest-first, marching toward zero.
    return CoefficientFit(
        coefficient=float(np.exp(intercept)),
        exponent=float(slope),
        epsilons=tuple(eps[::-1]),
        residual=rms,
        expected_exponent=expected,
        conforming=bool(conforming),
    )
