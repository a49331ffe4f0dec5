"""Non-asymptotic tail envelopes from quadratic curvature bounds.

The criterion function g sits below its maximum by at least lam*r**2 and at
most mu*r**2 on the unit ball (r = distance to the all-ones point), where
lam and mu are the infimum and supremum of the normalized drop
(g(1) - g(v)) / ||v - 1||**2.  Trapping the localized tail region between
the two balls of radius sqrt(eps/mu) and sqrt(eps/lam) converts profile
extrema over those balls into explicit upper and lower tail bounds, valid
at finite epsilon rather than asymptotically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic_core import AntiHessianSpec, structured_anti_hessian, g_many
from .density import DensityModel, RadialProfileQuery, build_z_plan, h_profile, profile_batch
from .oracles import region_tail_integral, tail_window

__all__ = [
    "CurvatureResult",
    "BoundsCertificate",
    "SandwichReport",
    "curvature_functionals",
    "envelope_bounds",
    "validate_sandwich",
    "unit_ball_volume",
]

_PUNCTURE = 1e-6
_GRID_AXIS = 401
_MULTISTART = 64


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^dim."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return math.pi ** (0.5 * dim) / math.gamma(0.5 * dim + 1.0)


@dataclass(frozen=True)
class CurvatureResult:
    """Curvature functionals with optimizer diagnostics."""

    lam: float
    mu: float
    lam_point: np.ndarray
    mu_point: np.ndarray
    evaluations: int
    certified: bool


def _ratio_many(vs: np.ndarray, n: int, beta: float, g_max: float) -> np.ndarray:
    dev = vs - 1.0
    r2 = np.sum(dev * dev, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (g_max - g_many(vs, beta)) / r2
    out[r2 <= _PUNCTURE * _PUNCTURE] = np.nan
    out[r2 > 1.0] = np.nan
    return out


def _slice_segments(v: np.ndarray, axis: int) -> list[tuple[float, float]]:
    """Feasible intervals for coordinate `axis` inside the punctured unit ball."""
    other = np.delete(v, axis) - 1.0
    r2_other = float(np.dot(other, other))
    if r2_other >= 1.0:
        return []
    half = math.sqrt(1.0 - r2_other)
    lo, hi = 1.0 - half, 1.0 + half
    if r2_other < _PUNCTURE * _PUNCTURE:
        gap = math.sqrt(_PUNCTURE * _PUNCTURE - r2_other)
        return [(lo, 1.0 - gap), (1.0 + gap, hi)]
    return [(lo, hi)]


def _line_optimize(
    fn, segments: list[tuple[float, float]], minimize: bool, samples: int = 65
) -> tuple[float, float, int]:
    """Dense sampling plus golden-section polish on each interval.

    Returns the best (t, value) and the number of `fn` calls made.
    """
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    best_t, best_val = math.nan, math.inf if minimize else -math.inf
    calls = 0

    def counted(t: float) -> float:
        nonlocal calls
        calls += 1
        return fn(t)

    for lo, hi in segments:
        if not hi > lo:
            continue
        ts = np.linspace(lo, hi, samples)
        vals = np.array([counted(t) for t in ts])
        idx = int(np.nanargmin(vals) if minimize else np.nanargmax(vals))
        a = ts[max(idx - 1, 0)]
        b = ts[min(idx + 1, samples - 1)]
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = counted(c), counted(d)
        for _ in range(60):
            take_left = (fc < fd) if minimize else (fc > fd)
            if take_left:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = counted(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = counted(d)
        t_star = 0.5 * (a + b)
        candidates = [
            (t_star, counted(t_star)),
            (ts[idx], vals[idx]),
            (lo, counted(lo)),
            (hi, counted(hi)),
        ]
        for t, val in candidates:
            if np.isnan(val):
                continue
            if (minimize and val < best_val) or (not minimize and val > best_val):
                best_t, best_val = t, val
    return best_t, best_val, calls


def _coordinate_descent(
    fn, start: np.ndarray, minimize: bool, max_sweeps: int = 60
) -> tuple[np.ndarray, float, int, bool]:
    """Cyclic coordinate optimization within the punctured unit ball."""
    v = start.astype(float).copy()
    current = fn(v)
    evals = 1
    converged = False
    for _ in range(max_sweeps):
        previous = current
        for axis in range(v.size):
            segments = _slice_segments(v, axis)
            if not segments:
                continue

            def line(t: float) -> float:
                w = v.copy()
                w[axis] = t
                return fn(w)

            t_best, val_best, calls = _line_optimize(line, segments, minimize)
            evals += calls
            better = (val_best < current) if minimize else (val_best > current)
            if not math.isnan(t_best) and better:
                v[axis] = t_best
                current = val_best
        if abs(previous - current) <= 1e-13 * max(1.0, abs(current)):
            converged = True
            break
    return v, current, evals, converged


def _grid_extrema(
    fn_many, dim: int, lo: float, hi: float, axis_points: int
) -> tuple[np.ndarray, float, np.ndarray, float, int]:
    """Chunked tensor-grid scan; returns argmin/argmax and evaluation count."""
    axis = np.linspace(lo, hi, axis_points)
    best_min, best_max = math.inf, -math.inf
    argmin = argmax = np.full(dim, (lo + hi) / 2.0)
    evals = 0
    if dim == 1:
        pts = axis[:, None]
        vals = fn_many(pts)
        evals = pts.shape[0]
        finite = ~np.isnan(vals)
        if np.any(finite):
            i_min = int(np.nanargmin(vals))
            i_max = int(np.nanargmax(vals))
            return pts[i_min], float(vals[i_min]), pts[i_max], float(vals[i_max]), evals
        return argmin, best_min, argmax, best_max, evals
    tail_grids = np.meshgrid(*([axis] * (dim - 1)), indexing="ij")
    tail = np.stack([t.ravel() for t in tail_grids], axis=1)
    for x0 in axis:
        pts = np.concatenate((np.full((tail.shape[0], 1), x0), tail), axis=1)
        vals = fn_many(pts)
        evals += pts.shape[0]
        if np.all(np.isnan(vals)):
            continue
        i_min = int(np.nanargmin(vals))
        i_max = int(np.nanargmax(vals))
        if vals[i_min] < best_min:
            best_min, argmin = float(vals[i_min]), pts[i_min].copy()
        if vals[i_max] > best_max:
            best_max, argmax = float(vals[i_max]), pts[i_max].copy()
    return argmin, best_min, argmax, best_max, evals


def _multistart_points(dim: int, count: int) -> np.ndarray:
    """Deterministic start set: axis extremes, diagonals, and seeded fills."""
    starts = []
    for radius in (0.98, 0.5, 1e-3):
        for axis in range(dim):
            for sign in (1.0, -1.0):
                e = np.zeros(dim)
                e[axis] = sign * radius
                starts.append(1.0 + e)
        starts.append(1.0 + np.full(dim, radius / math.sqrt(dim)))
        starts.append(1.0 - np.full(dim, radius / math.sqrt(dim)))
    rng = np.random.default_rng(np.random.Philox(key=20240817))
    while len(starts) < count:
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        radius = rng.random() ** (1.0 / dim)
        starts.append(1.0 + max(radius, 2.0 * _PUNCTURE) * direction)
    return np.asarray(starts[:count])


def curvature_functionals(
    n: int, beta: float = 2.0, detail: bool = False
) -> tuple[float, float] | CurvatureResult:
    """Infimum and supremum of (g(1) - g(v)) / ||v - 1||**2 on the unit ball.

    The ratio's limit set at v -> 1 is [lam_min(A)/2, lam_max(A)/2], so those
    eigenvalue brackets are always folded into the result: lam never exceeds
    lam_min(A)/2 and mu never falls below lam_max(A)/2.  With `detail`, the
    attained points (best sampled ratios), evaluation count, and a certified
    flag (all descents converged) come along.
    """
    spec = AntiHessianSpec(n, beta)
    dim = n - 1
    g_max = float(n ** (1.0 - 1.0 / beta))
    rep, simple = structured_anti_hessian(spec).eigenvalues()
    eig_lo, eig_hi = min(rep, simple), max(rep, simple)

    def fn_many(vs: np.ndarray) -> np.ndarray:
        return _ratio_many(vs, n, beta, g_max)

    def fn_one(v: np.ndarray) -> float:
        return float(fn_many(v[None, :])[0])

    evals = 0
    if dim <= 3:
        axis_points = _GRID_AXIS if dim < 3 else 201
        argmin, _, argmax, _, grid_evals = _grid_extrema(
            fn_many, dim, 0.0, 2.0, axis_points
        )
        evals += grid_evals
        seeds_min = [argmin]
        seeds_max = [argmax]
    else:
        starts = _multistart_points(dim, _MULTISTART)
        vals = fn_many(starts)
        evals += starts.shape[0]
        order = np.argsort(vals)
        finite = [i for i in order if not np.isnan(vals[i])]
        # Positivity of the fused output is structural (eigen bracket plus a
        # strict global max at the all-ones point), so a handful of polished
        # starts suffices in high dimension.
        seeds_min = [starts[i] for i in finite[:4]]
        seeds_max = [starts[i] for i in finite[-4:]]

    certified = True
    lam_val, lam_point = math.inf, seeds_min[0]
    for seed in seeds_min:
        point, val, used, ok = _coordinate_descent(fn_one, seed, minimize=True)
        evals += used
        certified &= ok
        if val < lam_val:
            lam_val, lam_point = val, point
    mu_val, mu_point = -math.inf, seeds_max[0]
    for seed in seeds_max:
        point, val, used, ok = _coordinate_descent(fn_one, seed, minimize=False)
        evals += used
        certified &= ok
        if val > mu_val:
            mu_val, mu_point = val, point

    lam = min(lam_val, 0.5 * eig_lo)
    mu = max(mu_val, 0.5 * eig_hi)
    result = CurvatureResult(
        lam=float(lam),
        mu=float(mu),
        lam_point=np.asarray(lam_point),
        mu_point=np.asarray(mu_point),
        evaluations=evals,
        certified=bool(certified),
    )
    return result if detail else (result.lam, result.mu)


@dataclass(frozen=True)
class BoundsCertificate:
    """Explicit finite-epsilon tail envelope with optimizer diagnostics."""

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
    certified: bool
    lam_point: np.ndarray
    mu_point: np.ndarray
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
            "certified": self.certified,
        }


def _ball_grid(dim: int, radius: float) -> np.ndarray:
    """Deterministic search grid for the closed ball around the all-ones point."""
    if dim == 1:
        return 1.0 + np.linspace(-radius, radius, 513)[:, None]
    if dim == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, 129)[:-1]
        dirs = np.stack((np.cos(theta), np.sin(theta)), axis=1)
    else:
        mu_nodes, _ = np.polynomial.legendre.leggauss(8)
        phi = np.linspace(0.0, 2.0 * math.pi, 17)[:-1]
        sin_t = np.sqrt(1.0 - mu_nodes**2)
        dirs = np.stack(
            (
                np.outer(sin_t, np.cos(phi)).ravel(),
                np.outer(sin_t, np.sin(phi)).ravel(),
                np.repeat(mu_nodes, phi.size),
            ),
            axis=1,
        )
    radii = np.linspace(0.0, radius, 49)
    pts = 1.0 + radii[None, :, None] * dirs[:, None, :]
    return pts.reshape(-1, dim)


def envelope_bounds(
    model: DensityModel,
    n: int,
    epsilon: float,
    lam: float | None = None,
    mu: float | None = None,
) -> BoundsCertificate:
    """Upper and lower tail bounds from profile extrema over curvature balls.

    H is the supremum and G the infimum of prod|v_j| * h_paper(v) over the
    balls ||v - 1||**2 <= eps/lam and <= eps/mu respectively; then
    upper = H * V * (eps/lam)**((n-1)/2) and lower = G * V * (eps/mu)**((n-1)/2)
    with V the unit-ball volume in n - 1 dimensions.  Requires eps < lam so
    the localized region stays inside the unit ball.
    """
    if model.n != n:
        raise ValueError(f"model dimension {model.n} does not match n = {n}")
    curvature_evals = 0
    curvature_certified = True
    lam_point = mu_point = np.empty(0)
    if lam is None or mu is None:
        detail = curvature_functionals(n, 2.0, detail=True)
        lam = detail.lam if lam is None else lam
        mu = detail.mu if mu is None else mu
        curvature_evals = detail.evaluations
        curvature_certified = detail.certified
        lam_point, mu_point = detail.lam_point, detail.mu_point
    if not 0.0 < lam <= mu:
        raise ValueError(f"need 0 < lambda <= mu, got {lam}, {mu}")
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

    def objective_one(v: np.ndarray) -> float:
        return float(objective_many(v[None, :])[0])

    def ball_extremum(radius: float, minimize: bool) -> tuple[np.ndarray, float, int]:
        grid = _ball_grid(dim, radius)
        vals = objective_many(grid)
        idx = int(np.argmin(vals) if minimize else np.argmax(vals))
        used = grid.shape[0]
        point, val, evals, _ = _coordinate_descent_ball(
            objective_one, grid[idx], radius, minimize
        )
        used += evals
        if (minimize and vals[idx] < val) or (not minimize and vals[idx] > val):
            point, val = grid[idx], float(vals[idx])
        return point, float(val), used

    h_max_point, h_max, used_max = ball_extremum(r_big, minimize=False)
    h_min_point, h_min, used_min = ball_extremum(r_small, minimize=True)

    # Certify the extrema with the adaptive scalar quadrature.
    def exact_objective(v: np.ndarray) -> float:
        h = h_profile(model, RadialProfileQuery(v, "paper"))
        return float(np.prod(np.abs(v))) * h

    h_max = max(h_max, exact_objective(h_max_point))
    h_min = min(h_min, exact_objective(h_min_point))

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
        evaluations=used_max + used_min + curvature_evals,
        certified=curvature_certified,
        lam_point=lam_point,
        mu_point=mu_point,
        h_max_point=np.asarray(h_max_point),
        h_min_point=np.asarray(h_min_point),
    )


def _coordinate_descent_ball(
    fn, start: np.ndarray, radius: float, minimize: bool, max_sweeps: int = 40
) -> tuple[np.ndarray, float, int, bool]:
    """Coordinate descent constrained to the closed ball of given radius."""
    v = start.astype(float).copy()
    current = fn(v)
    evals = 1
    converged = False
    for _ in range(max_sweeps):
        previous = current
        for axis in range(v.size):
            other = np.delete(v, axis) - 1.0
            r2_other = float(np.dot(other, other))
            if r2_other > radius * radius:
                continue
            half = math.sqrt(radius * radius - r2_other)

            def line(t: float) -> float:
                w = v.copy()
                w[axis] = t
                return fn(w)

            t_best, val_best, calls = _line_optimize(
                line, [(1.0 - half, 1.0 + half)], minimize
            )
            evals += calls
            better = (val_best < current) if minimize else (val_best > current)
            if not math.isnan(t_best) and better:
                v[axis] = t_best
                current = val_best
        if abs(previous - current) <= 1e-12 * max(1.0, abs(current)):
            converged = True
            break
    return v, current, evals, converged


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


def validate_sandwich(model: DensityModel, n: int, epsilon: float) -> SandwichReport:
    """Check the tail envelope against the region-integral oracle.

    The integral uses the as-published region integrand prod(v_j) * h_paper,
    matching what the envelope bounds actually bracket.  Also verifies that
    the localized region stays inside the ball of radius sqrt(eps/lambda)
    (it must, by the quadratic minorant, as long as eps < lambda).
    """
    if not 2 <= n <= 4:
        raise ValueError(f"sandwich validation needs 2 <= n <= 4, got {n}")
    window = tail_window(n, 2.0)
    if not 0.0 < epsilon < window:
        raise ValueError(f"epsilon must lie in (0, {window:.6g})")
    cert = envelope_bounds(model, n, epsilon)
    oracle = region_tail_integral(model, n, epsilon, 2.0, integrand="paper")

    from .oracles import _coordinate_range

    # Containment certificate: the coordinate box circumscribing the region
    # either fits inside the sqrt(eps/lam) ball outright, or at least inside
    # the unit ball, where the quadratic minorant g(1) - g(v) >= lam*r**2
    # itself forces every region point below radius sqrt(eps/lam).
    level = math.sqrt(n) - epsilon
    t_lo, t_hi = _coordinate_range(n, 2.0, level)
    max_extent = math.sqrt(n - 1) * max(t_hi - 1.0, 1.0 - t_lo)
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
