"""Non-asymptotic tail envelopes from quadratic curvature bounds.

The criterion function g sits below its maximum by at least lam*r**2 and at
most mu*r**2 on the unit ball (r = distance to the all-ones point), where
lam and mu are the infimum and supremum of the normalized drop
(g(1) - g(v)) / ||v - 1||**2; for beta = 2 both are in closed form.
Trapping the localized tail region between the two balls of radius
sqrt(eps/mu) and sqrt(eps/lam) converts profile extrema over those balls
into explicit upper and lower tail bounds, valid at finite epsilon rather
than asymptotically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analytic_core import g_many  # noqa: F401  (perfbench counts bounds.g_many)
from .density import DensityModel, build_z_plan, profile_batch
from .density import h_profile  # noqa: F401  (perfbench hooks bounds.h_profile)
from .oracles import _directions, _reach, region_tail_integral

__all__ = [
    "BoundsCertificate",
    "SandwichReport",
    "curvature_functionals",
    "envelope_bounds",
    "validate_sandwich",
    "unit_ball_volume",
]

# Per ball dimension: the count passed to the sphere rule `_directions` and
# the number of radii.  Dim 1 has the two directions +-1; dim 2 the 32
# angles 2*pi*k/32; dim 3 a 3 x 8 polar-cosine by azimuth grid.  The grid
# only seeds `_ball_search`, which polishes its best point down to
# `_MIN_STEP`, so it needs to land in the extremum's basin, not on it.
_BALL_GRID = {1: (1, 65), 2: (32, 13), 3: (4, 13)}

# The ball search's last step, relative to the ball radius.
_MIN_STEP = 1e-13
# The scales at which each ball search step polls every move, in one call.
_POLL_SCALES = 2.0 ** -np.arange(4.0)


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^dim."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return math.pi ** (0.5 * dim) / math.gamma(0.5 * dim + 1.0)


def curvature_functionals(n: int) -> tuple[float, float]:
    """Infimum lam and supremum mu of (g(1) - g(v)) / ||v - 1||**2 on the unit ball.

    For beta = 2, with m = n - 1 and B = sqrt(n + 1 + 2*sqrt(m)):

        lam = 1 / (B * (sqrt(n)*B + n + sqrt(m))),   attained at v = 1 + 1/sqrt(m),
        mu  = 1 / (sqrt(n) + sqrt(m)) = sqrt(n) - sqrt(m),   attained at v = 1 - e_1.

    Proof sketch.  With d = v - 1, s = sum d_j and r = ||d|| in (0, 1],
    g = (n + s) / sqrt(Q) with Q = n + 2s + r**2, so the ratio R depends on
    (r, s) alone, over |s| <= r*sqrt(m).  Since n*Q - (n + s)**2 = n*r**2 - s**2,

        R = (n*r**2 - s**2) / (r**2 * sqrt(Q) * (sqrt(n)*sqrt(Q) + n + s)),

    a form free of cancellation.  For fixed r, R = (sqrt(n) - g) / r**2 is largest
    where g is least and least where g is largest; dg/ds = (s + r**2) / Q**1.5,
    so g falls to its minimum at s = -r**2 and rises toward both ends
    s = +-r*sqrt(m).
    mu: at s = -r**2, Q = n - r**2 and R = 1 / (sqrt(n) + sqrt(n - r**2)), which
    increases in r up to r = 1.  (For n = 2 only s = +-r exist; on s = -r,
    R = 1 / (B_r*(sqrt(2)*B_r + 2 - r)) with B_r = sqrt(1 + (1 - r)**2), which
    also increases to the same value at r = 1.)
    lam: g is largest at an end s = +-r*sqrt(m), where n*r**2 - s**2 = r**2 and
    R = 1 / (B_r*(sqrt(n)*B_r + n +- r*sqrt(m))), B_r = sqrt(n +- 2r*sqrt(m) + r**2).
    The minus end has the smaller B_r and the smaller n - r*sqrt(m) > 0, so the
    larger R; on the plus end B_r and n + r*sqrt(m) grow with r, so R is least
    at r = 1.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    root_n, root_m = math.sqrt(n), math.sqrt(n - 1)
    big = math.sqrt(n + 1.0 + 2.0 * root_m)
    lam = 1.0 / (big * (root_n * big + n + root_m))
    mu = 1.0 / (root_n + root_m)
    return lam, mu


@dataclass(frozen=True)
class BoundsCertificate:
    """Explicit finite-epsilon tail envelope.

    `evaluations` counts the points that the ball grids and the ball search
    passed to the objective.
    """

    n: int
    beta: float
    epsilon: float
    lam: float
    mu: float
    H: float
    G: float
    upper: float
    lower: float
    evaluations: int
    h_max_point: np.ndarray
    h_min_point: np.ndarray

    def to_record(self) -> dict[str, object]:
        return {
            "n": self.n,
            "beta": self.beta,
            "eps": self.epsilon,
            "lambda": self.lam,
            "mu": self.mu,
            "H": self.H,
            "G": self.G,
            "lower": self.lower,
            "upper": self.upper,
        }


def _ball_grid(dim: int, radius: float) -> np.ndarray:
    """Seed grid for the closed ball about the all-ones point, each point once."""
    count, radial = _BALL_GRID[dim]
    dirs = _directions(dim, count)[0].reshape(-1, dim)
    if dim == 3:
        # Exchangeable models take their ball extrema on the diagonal, which
        # the dim-3 rule misses by about 10 degrees.  The dim-1 rule is the
        # diagonal, and the dim-2 rule holds it (32 angles, a multiple of 8).
        diagonal = np.full((1, dim), 1.0 / math.sqrt(dim))
        dirs = np.vstack((dirs, diagonal, -diagonal))
    radii = np.linspace(0.0, radius, radial)[1:]
    pts = 1.0 + radii[None, :, None] * dirs[:, None, :]
    return np.vstack((np.ones((1, dim)), pts.reshape(-1, dim)))


def _ball_search(
    fn_many, start: np.ndarray, radius: float, minimize: bool
) -> tuple[np.ndarray, float, int]:
    """Batched pattern search over the closed ball of given radius about 1.

    `fn_many` maps points stacked in rows to their values.  Each step polls
    the 3**dim - 1 moves step * k * s, s in {-1, 0, 1}**dim except 0, at the
    four scales k in {1, 1/2, 1/4, 1/8}, each projected radially onto the
    ball so that the search slides along its sphere, in one `fn_many` call
    (32 points in dim 2, 104 in dim 3).  It moves to the best strictly
    better candidate and takes the scale that won as its next step; if none
    is better it divides the step by 16, so successive polls cover every
    halving of the step.  The step starts at the seed grid's radial spacing
    and stops once it reaches `_MIN_STEP` * radius (a compass search:
    Torczon, SIAM J. Optim. 7, 1997).  Returns the point, its value and the
    number of points evaluated.
    """
    dim = start.size
    sign = -1.0 if minimize else 1.0
    moves = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=dim)))
    moves = moves[np.any(moves != 0.0, axis=1)]
    poll = (_POLL_SCALES[:, None, None] * moves).reshape(-1, dim)
    v = np.asarray(start, dtype=float)
    best = sign * float(fn_many(v[None, :])[0])
    evals = 1
    step = radius / (_BALL_GRID[dim][1] - 1)
    while step > _MIN_STEP * radius:
        d = v - 1.0 + step * poll
        norms = np.linalg.norm(d, axis=1, keepdims=True)
        candidates = 1.0 + d * (radius / np.maximum(norms, radius))
        vals = sign * fn_many(candidates)
        evals += poll.shape[0]
        idx = int(np.argmax(vals))
        if vals[idx] > best:
            v, best = candidates[idx], float(vals[idx])
            step *= _POLL_SCALES[idx // moves.shape[0]]
        else:
            step /= 16.0
    return v, sign * best, evals


def envelope_bounds(model: DensityModel, epsilon: float) -> BoundsCertificate:
    """Upper and lower tail bounds from profile extrema over curvature balls.

    H is the supremum and G the infimum of prod|v_j| * h_paper(v) over the
    balls ||v - 1||**2 <= eps/lam and <= eps/mu respectively; then
    upper = H * V * (eps/lam)**((n-1)/2) and lower = G * V * (eps/mu)**((n-1)/2)
    with V the unit-ball volume in n - 1 dimensions and lam, mu the exact
    `curvature_functionals(n)`.  Requires 2 <= n <= 4, the range of the ball
    grid and of the region quadrature, and eps < lam so the localized region
    stays inside the unit ball.  The extrema are searched on one z-plan
    sized by `build_z_plan`'s embedded check; a density whose profiles
    defeat the check raises QuadratureError.
    """
    n = model.n
    if not 2 <= n <= 4:
        raise ValueError(f"envelope bounds need 2 <= n <= 4, got n = {n}")
    lam, mu = curvature_functionals(n)
    if not 0.0 < epsilon < lam:
        raise ValueError(
            f"epsilon must lie in (0, lambda) = (0, {lam:.6g}), got {epsilon}"
        )
    dim = n - 1
    r_big = math.sqrt(epsilon / lam)
    r_small = math.sqrt(epsilon / mu)

    probe_dirs = np.concatenate((np.eye(dim), -np.eye(dim), np.ones((1, dim)) / math.sqrt(dim)))
    probes = np.vstack((np.ones((1, dim)), 1.0 + r_big * probe_dirs))
    plan = build_z_plan(model, probes)

    def objective_many(vs: np.ndarray) -> np.ndarray:
        return profile_batch(model, vs, "paper", plan) * np.prod(np.abs(vs), axis=-1)

    def ball_extremum(radius: float, minimize: bool) -> tuple[np.ndarray, float, int]:
        grid = _ball_grid(dim, radius)
        vals = objective_many(grid)
        start = grid[int(np.argmin(vals) if minimize else np.argmax(vals))]
        point, val, evals = _ball_search(objective_many, start, radius, minimize)
        return point, val, grid.shape[0] + evals

    h_max_point, h_max, used_max = ball_extremum(r_big, minimize=False)
    h_min_point, h_min, used_min = ball_extremum(r_small, minimize=True)

    volume = unit_ball_volume(dim)
    upper = h_max * volume * (epsilon / lam) ** (0.5 * dim)
    lower = h_min * volume * (epsilon / mu) ** (0.5 * dim)
    return BoundsCertificate(
        n=n,
        beta=2.0,
        epsilon=epsilon,
        lam=float(lam),
        mu=float(mu),
        H=float(h_max),
        G=float(h_min),
        upper=float(upper),
        lower=float(lower),
        evaluations=used_max + used_min,
        h_max_point=np.asarray(h_max_point),
        h_min_point=np.asarray(h_min_point),
    )


@dataclass(frozen=True)
class SandwichReport:
    """Falsifiable comparison: lower <= region integral <= upper."""

    certificate: BoundsCertificate
    integral: float
    integral_error: float
    holds: bool
    region_contained: bool

    @property
    def lower(self) -> float:
        return self.certificate.lower

    @property
    def upper(self) -> float:
        return self.certificate.upper


def validate_sandwich(model: DensityModel, epsilon: float) -> SandwichReport:
    """Check the tail envelope against the region-integral oracle.

    The integral uses the as-published region integrand prod(v_j) * h_paper,
    matching what the envelope bounds actually bracket.  Also verifies that
    the localized region stays inside the ball of radius sqrt(eps/lambda)
    (it must, by the quadratic minorant, as long as eps < lambda), with
    lambda the exact value `envelope_bounds` takes from
    `curvature_functionals(model.n)`.
    """
    n = model.n
    cert = envelope_bounds(model, epsilon)
    oracle = region_tail_integral(model, epsilon, 2.0, integrand="paper")

    # Containment certificate: the region's farthest point from the all-ones
    # point lies on the diagonal.  With m = n - 1 and c = sqrt(n) - eps, a
    # boundary point 1 + p*1/sqrt(m) + q, q orthogonal to 1, lies at squared
    # distance (n + sqrt(m)*p)**2 / c**2 - n - 2*sqrt(m)*p from it.  That is
    # convex in p, so it peaks at an end of p's range, where q = 0: on one of
    # the two diagonal rays.  That extent either fits inside the
    # sqrt(eps/lam) ball outright, or at least inside the unit ball, where
    # the quadratic minorant g(1) - g(v) >= lam*r**2 itself forces every
    # region point below radius sqrt(eps/lam).
    diagonal = np.full((1, n - 1), 1.0 / math.sqrt(n - 1))
    max_extent = float(np.max(_reach(np.vstack((diagonal, -diagonal)), n, 2.0, epsilon)))
    contained = (
        max_extent <= math.sqrt(epsilon / cert.lam) * (1.0 + 1e-9)
        or max_extent <= 1.0 + 1e-12
    )

    slack = oracle.error_estimate + 1e-12 * max(1.0, abs(oracle.value))
    holds = cert.lower - slack <= oracle.value <= cert.upper + slack
    return SandwichReport(
        certificate=cert,
        integral=oracle.value,
        integral_error=oracle.error_estimate,
        holds=bool(holds),
        region_contained=bool(contained),
    )
