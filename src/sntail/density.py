"""Joint density models and radial profile integrals.

The tail constants are driven by line integrals of the joint density along
rays through the origin: direction (1, v) with v in R^(n-1), parameterized
by z.  Two variants are kept as first-class citizens:

  paper     integral of f(z, z*v) over all real z, no weight.  This is the
            profile exactly as printed in the source derivation.
  weighted  integral of z**(n-1) * f(z, z*v) over z > 0.  The weight is the
            Jacobian of the ray change of variables, which the printed
            derivation drops; this is the oracle-confirmed form.

`weighted_profile_mirror` covers the z < 0 branch of the same change of
variables (needed for left tails and total-mass checks).
Every profile integral runs on a z-plan (`build_z_plan`): a composite
Gauss-Legendre rule sized by one embedded check and evaluated by
`profile_batch`, whether it serves one ray or a whole region.  A normal
law centred at 0 and the folded normal (`DensityModel.closed_form_profiles`)
read their profiles in closed form instead, and their plan is the empty
one: no support scan, no check.  scipy loads only where sampling starts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DensityModel",
    "DiscreteModel",
    "RadialProfileQuery",
    "QuadratureError",
    "h_profile",
    "weighted_profile_mirror",
    "ZPlan",
    "Z_PLAN_RTOL",
    "build_z_plan",
    "profile_batch",
    "parse_model",
    "DISCRETE_MODELS",
    "UNIFORM_FLOOR",
    "MAGNITUDE_CELLS",
]

PROFILE_VARIANTS = ("paper", "weighted")

# Laws with no density, which only the Monte Carlo layer and the discrete
# oracles serve: they parse to a `DiscreteModel`.
DISCRETE_MODELS = ("rademacher", "degenerate-first-coordinate")

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

_IID_KINDS = ("iid-normal", "iid-student-t", "iid-folded-normal")

# Uniforms are clipped to [2^-53, 1 - 2^-53] before an inverse CDF.  Philox
# doubles are multiples of 2^-53 in [0, 1), so only u = 0 moves; 2^-53 keeps
# every quantile finite and the mirror image of the top end (1e-300 sent
# stdtrit(5, .) to +inf).
UNIFORM_FLOOR = 2.0**-53
# Equal cells of [1/2, 1) that the Monte Carlo screen sorts magnitudes into.
MAGNITUDE_CELLS = 2**12


class QuadratureError(RuntimeError):
    """Raised when a quadrature cannot reach its error budget."""


@dataclass(frozen=True, eq=False)
class DensityModel:
    """Continuous joint density on R^n.

    Construct through the classmethods; `kind` is one of iid-normal,
    iid-student-t, iid-folded-normal, gaussian, user.  `pdf` is vectorized
    over points stacked in the last axis.  `sign_symmetric` and
    `exchangeable` say which symmetries of f are known to hold; a user
    density claims neither.
    """

    n: int
    kind: str
    mu: float = 0.0
    sigma: float = 1.0
    nu: float = 0.0
    shift: float = 0.0
    mean: np.ndarray | None = None
    chol: np.ndarray | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    # gaussian only: equal mean entries and covariance alpha I + gamma 11^T,
    # decided once by `gaussian`.
    equicorrelated: bool = False

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")

    @classmethod
    def iid_normal(cls, n: int, mu: float = 0.0, sigma: float = 1.0) -> "DensityModel":
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {sigma}")
        return cls(n=n, kind="iid-normal", mu=mu, sigma=sigma)

    @classmethod
    def iid_student_t(cls, n: int, nu: float) -> "DensityModel":
        if not 2.0 < nu < math.inf:
            raise ValueError(
                f"nu must be finite and exceed 2 for a finite variance, got {nu}"
            )
        return cls(n=n, kind="iid-student-t", nu=nu)

    @classmethod
    def iid_folded_normal(cls, n: int, shift: float = 1.0) -> "DensityModel":
        if not 0.0 < shift < math.inf:
            raise ValueError(f"shift must be finite and positive, got {shift}")
        return cls(n=n, kind="iid-folded-normal", shift=shift)

    @classmethod
    def gaussian(cls, mean: np.ndarray, cov: np.ndarray) -> "DensityModel":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.asarray(cov, dtype=float)
        n = mean.size
        if cov.shape != (n, n):
            raise ValueError(f"cov shape {cov.shape} does not match mean size {n}")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        if not np.isfinite(cov).all():
            raise ValueError("cov must be finite")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("cov must be symmetric")
        try:
            chol_l = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("cov must be positive definite") from exc
        # Exact equality, no tolerance: a fold that copies one point's
        # density to its mirror image must not rest on a near-symmetry.
        off = cov[~np.eye(n, dtype=bool)]
        equicorrelated = all((v == v[:1]).all() for v in (mean, np.diag(cov), off))
        return cls(n=n, kind="gaussian", mean=mean, chol=chol_l,
                   equicorrelated=equicorrelated)

    @classmethod
    def user(cls, n: int, fn: Callable[[np.ndarray], np.ndarray]) -> "DensityModel":
        if not callable(fn):
            raise ValueError("fn must be callable")
        return cls(n=n, kind="user", fn=fn)

    @property
    def sign_symmetric(self) -> bool:
        """True when f(-x) = f(x) is known to hold."""
        return self.centred_normal or self.kind == "iid-student-t"

    @property
    def centred_normal(self) -> bool:
        """True for a normal law centred at 0: an iid normal with mu = 0, or
        a gaussian whose mean is all zeros.  Its ray profiles have closed
        forms (`ray_quadratic`), so it needs no z-plan."""
        if self.kind == "iid-normal":
            return self.mu == 0.0
        return self.kind == "gaussian" and bool(np.all(self.mean == 0.0))

    @property
    def closed_form_profiles(self) -> bool:
        """True when `profile_batch` reads the ray profiles in closed form
        and needs no z-plan: a `centred_normal`, or the folded normal."""
        return self.centred_normal or self.kind == "iid-folded-normal"

    @property
    def exchangeable(self) -> bool:
        """True when f is known to be invariant under every permutation of
        the coordinates: the iid kinds, and an equicorrelated gaussian."""
        return self.kind in _IID_KINDS or self.equicorrelated

    def _coordinate_log_pdf(self, x: np.ndarray) -> np.ndarray:
        # In place on fresh temporaries: same operations, fewer allocations.
        if self.kind == "iid-normal":
            z = x - self.mu
            z /= self.sigma
            out = -0.5 * z
            out *= z
            out -= math.log(self.sigma)
            out -= _LOG_SQRT_2PI
            return out
        if self.kind == "iid-folded-normal":
            y = x - self.shift
            out = -0.5 * y
            out *= y
            out += math.log(2.0)
            out -= _LOG_SQRT_2PI
            out[~(y >= 0.0)] = -np.inf
            return out
        raise ValueError(f"no coordinate density for kind {self.kind!r}")

    def _student_t_pdf(
        self,
        shape: tuple[int, ...],
        first: np.ndarray,
        column: Callable[[int, np.ndarray], object],
    ) -> np.ndarray:
        """Student-t joint density of shape `shape` in product form,
        f = C^n * prod_j (1 + x_j^2/nu)^(-(nu+1)/2): one `pow` per point.

        `first` is the first coordinate, in any shape that broadcasts to
        `shape` (a ray's z is squared once for every ray); `column(j, out)`
        writes coordinate j >= 1 into `out`.  The product runs left to right
        in place in two buffers, so `pdf` and `ray_pdf`, which pass the same
        coordinates, agree bit for bit.  The relative error is (nu+1)/2
        times the product's, about 1e-14 at n = 200, where a sum of logs
        loses |log f| ulps near underflow.  A product that overflows gives
        f = 0, its correctly rounded value: past 1.8e308 the power alone is
        below 1e-462, as (nu+1)/2 > 3/2 and C < 1.
        """
        nu = self.nu
        log_c = (
            math.lgamma(0.5 * (nu + 1.0))
            - math.lgamma(0.5 * nu)
            - 0.5 * math.log(nu * math.pi)
        )
        prod, term = np.empty(shape), np.empty(shape)
        lead = prod if np.shape(first) == shape else np.empty(np.shape(first))
        np.multiply(first, first, out=lead)
        lead /= nu
        lead += 1.0
        with np.errstate(over="ignore"):
            for j in range(1, self.n):
                column(j, term)
                term *= term
                term /= nu
                term += 1.0
                np.multiply(lead if j == 1 else prod, term, out=prod)
        np.power(prod, -0.5 * (nu + 1.0), out=prod)
        prod *= math.exp(self.n * log_c)
        return prod

    @functools.cached_property
    def _gaussian_log_norm(self) -> float:
        """Log c of the normalizer of a gaussian or an iid normal, which has
        covariance sigma^2 I, computed once per model."""
        if self.kind == "iid-normal":
            return -self.n * (_LOG_SQRT_2PI + math.log(self.sigma))
        return -self.n * _LOG_SQRT_2PI - float(np.sum(np.log(np.diag(self.chol))))

    @functools.cached_property
    def _chol_inv(self) -> np.ndarray:
        """L^-1 for the gaussian's Cholesky factor L, computed once per
        model, so each quadratic form is a product, not a solve.  Its upper
        triangle is exactly 0, whatever pivots the inversion took."""
        inv = np.tril(np.linalg.inv(self.chol))
        inv.flags.writeable = False
        return inv

    @functools.cached_property
    def cell_edges(self) -> np.ndarray:
        """The draws at the MAGNITUDE_CELLS + 1 cell edges of [1/2, 1), from
        one `draw_from_uniforms` call per model; they must not decrease."""
        edges = 0.5 + np.arange(MAGNITUDE_CELLS + 1) / (2 * MAGNITUDE_CELLS)
        rows = np.resize(edges, (-(-edges.size // self.n), self.n))
        x = self.draw_from_uniforms(rows).ravel()[: edges.size]
        if not np.all(x[1:] >= x[:-1]):
            raise RuntimeError(f"the {self.kind} inverse CDF decreases on [1/2, 1)")
        x.flags.writeable = False
        return x

    def ray_quadratic(self, rays: np.ndarray) -> np.ndarray | None:
        """q(r) for the rays r in the rows of `rays` when f(z r) =
        exp(c - q(r) z^2 / 2), c the log normalizer: a normal law centred
        at 0, where q(r) = |L^-1 r|^2 (|r|^2 / sigma^2 for an iid normal).
        None for every other law (`centred_normal`)."""
        if not self.centred_normal:
            return None
        if self.kind == "iid-normal":
            return np.sum(rays * rays, axis=1) / (self.sigma * self.sigma)
        y = self._chol_inv @ rays.T
        return np.sum(y * y, axis=0)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Joint density at points stacked in the last axis of `x`."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise ValueError(f"points must have last dimension {self.n}")
        if self.kind == "iid-student-t":
            return self._student_t_pdf(
                x.shape[:-1], x[..., 0], lambda j, out: np.copyto(out, x[..., j])
            )
        if self.kind in _IID_KINDS:
            with np.errstate(invalid="ignore"):
                logf = self._coordinate_log_pdf(x).sum(axis=-1)
            return np.exp(logf)
        if self.kind == "gaussian":
            dev = x - self.mean
            flat = dev.reshape(-1, self.n)
            y = self._chol_inv @ flat.T
            q = np.sum(y * y, axis=0).reshape(x.shape[:-1])
            return np.exp(self._gaussian_log_norm - 0.5 * q)
        if self.kind == "user":
            out = np.asarray(self.fn(x), dtype=float)
            if out.shape != x.shape[:-1]:
                raise ValueError("user density returned a mismatched shape")
            if np.any(out < 0.0):
                raise ValueError("user density returned negative values")
            return out
        raise ValueError(f"unknown model kind {self.kind!r}")

    def ray_pdf(self, rays: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Joint density along rays: out[r, i] = f(z[i] * rays[r]).

        `rays` holds directions (1, v) in its rows, shape (k, n); `z` is a
        1-D array of ray parameters shared by every ray, or one row of them
        per ray (then out[r, i] = f(z[r, i] * rays[r])).  Each kind uses its
        own structure, so the (k, len(z), n) array of points is formed only
        for user densities, which offer no other route:

          student-t the product kernel `pdf` runs too, fed the columns
                    z * w_j, so values agree with `pdf` bit for bit at every
                    n; the first column is z itself on every ray, so its
                    factor is computed once.
          iid       the coordinate log-densities summed one coordinate at
                    a time, left to right (the order of `pdf`'s axis sum up
                    to n = 7, so values agree bit for bit there); the first
                    coordinate's term is computed once.
          gaussian  one product with the inverse Cholesky factor L^-1
                    per ray, not per point.  With y = L^-1 ray, a = |y|^2,
                    c = L^-1 mean and b = y.c, the quadratic form is
                    a (z - b/a)^2 + |(b/a) y - c|^2; the residual is
                    formed as a vector, so nothing cancels.  A zero mean
                    gives c = 0 and a z^2 exactly, bit for bit.
        """
        rays = np.atleast_2d(np.asarray(rays, dtype=float))
        z = np.asarray(z, dtype=float)
        if rays.ndim != 2 or rays.shape[1] != self.n:
            raise ValueError(f"rays must have shape (k, {self.n})")
        if z.ndim != 1 and (z.ndim != 2 or z.shape[0] != rays.shape[0]):
            raise ValueError("ray parameters must be a 1-D array or one row per ray")
        if (rays[:, 0] != 1.0).any():
            raise ValueError("rays must have first coordinate 1")
        if self.kind == "iid-student-t":
            return self._student_t_pdf(
                (rays.shape[0], z.shape[-1]),
                z,
                lambda j, out: np.multiply(z, rays[:, j : j + 1], out=out),
            )
        if self.kind in _IID_KINDS:
            with np.errstate(invalid="ignore"):
                logf = self._coordinate_log_pdf(z)
                for j in range(1, self.n):
                    logf = logf + self._coordinate_log_pdf(z * rays[:, j : j + 1])
            return np.exp(logf, out=logf)
        if self.kind == "gaussian":
            y = self._chol_inv @ rays.T
            a = np.sum(y * y, axis=0)
            c = self._chol_inv @ self.mean
            shift = (c @ y) / a
            resid = shift * y - c[:, None]
            q = z - shift[:, None]
            q *= q
            q *= a[:, None]
            q += np.sum(resid * resid, axis=0)[:, None]
            q *= -0.5
            q += self._gaussian_log_norm
            return np.exp(q, out=q)
        return self.pdf(z[..., None] * rays[:, None, :])

    def draw_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map uniform(0,1) draws of shape (k, n) to model samples.

        Pure function of its input: the whole determinism contract of the
        Monte Carlo layer rests on this.  Uniforms are clipped away from the
        endpoints so inverse CDFs stay finite.  The inverse CDF runs in
        place in the array the clip allocates, so `u` itself is never
        written; IEEE `*` and `+` commute, so `z *= sigma; z += mu` is
        bit-identical to `mu + sigma * z`.
        """
        from scipy.special import ndtri, stdtrit

        u = np.clip(np.asarray(u, dtype=float), UNIFORM_FLOOR, 1.0 - UNIFORM_FLOOR)
        if u.ndim != 2 or u.shape[1] != self.n:
            raise ValueError(f"uniforms must have shape (k, {self.n})")
        if self.kind == "iid-normal":
            z = ndtri(u, out=u)
            z *= self.sigma
            z += self.mu
            return z
        if self.kind == "iid-student-t":
            return stdtrit(self.nu, u, out=u)
        if self.kind == "iid-folded-normal":
            z = np.abs(ndtri(u, out=u), out=u)
            z += self.shift
            return z
        if self.kind == "gaussian":
            x = ndtri(u, out=u) @ self.chol.T
            x += self.mean
            return x
        raise ValueError(f"cannot sample kind {self.kind!r} by inverse CDF")

    def signs_split_at_median(self) -> bool:
        """Whether `draw_from_uniforms` gives a negative coordinate exactly
        where its uniform is below the median 1/2, for a law symmetric
        about 0.

        True for iid laws symmetric about 0: ndtri and stdtrit are negative
        on (0, 1/2), and sigma > 0 and a zero mu keep the sign.  A nonzero
        mu, the folded normal and a gaussian with a covariance are False.
        The Monte Carlo layer then draws each coordinate as a random sign
        times the draw of a u in [1/2, 1), which has the model's law.
        """
        return self.sign_symmetric and self.kind in _IID_KINDS


@dataclass(frozen=True)
class DiscreteModel:
    """A law on R^n with no density: the Monte Carlo layer samples it, and
    the exact discrete oracles of `oracles` take its n.

    rademacher: iid signs.  degenerate-first-coordinate: the first
    coordinate identically zero, the rest iid standard normal.
    """

    n: int
    kind: str

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.kind not in DISCRETE_MODELS:
            raise ValueError(
                f"unknown discrete model {self.kind!r}; choose from {DISCRETE_MODELS}"
            )

    def draw_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map uniform(0,1) draws of shape (k, n) to model samples, a pure
        function of `u`: a sign is negative where its uniform is below 1/2."""
        if self.kind == "rademacher":
            return np.where(u >= 0.5, 1.0, -1.0)
        from scipy.special import ndtri

        x = ndtri(np.clip(u, UNIFORM_FLOOR, 1.0 - UNIFORM_FLOOR))
        x[:, 0] = 0.0
        return x

    def signs_split_at_median(self) -> bool:
        """False: both laws read the plain uniforms of stream 1."""
        return False


@dataclass(frozen=True)
class RadialProfileQuery:
    """Profile evaluation request: point v in R^(n-1) plus variant tag."""

    v: np.ndarray
    variant: str = "weighted"

    def __post_init__(self) -> None:
        arr = np.atleast_1d(np.asarray(self.v, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("v must be a non-empty vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("v has non-finite entries")
        if self.variant not in PROFILE_VARIANTS:
            raise ValueError(
                f"variant must be one of {PROFILE_VARIANTS}, got {self.variant!r}"
            )
        object.__setattr__(self, "v", arr)


def _rays(model: DensityModel, vs: np.ndarray) -> np.ndarray:
    """Directions (1, v) for the profile points in the rows of `vs`."""
    if vs.shape[1] != model.n - 1:
        raise ValueError(
            f"profile points have dimension {vs.shape[1]}, model needs {model.n - 1}"
        )
    return np.concatenate((np.ones((vs.shape[0], 1)), vs), axis=1)


def _scan_support(
    model: DensityModel, probe_vs: np.ndarray, variants: tuple[str, ...]
) -> tuple[float, float]:
    """Joint span (z_lo, z_hi), z_lo <= 0 <= z_hi, of every probe ray's integrand.

    The integrand is f along the ray for a plan that serves the paper
    variant, else z**(n-1) f, whose mass the weight moves outward by about
    sqrt(n - 1).  All rays are scanned in one `ray_pdf` call on one shared
    log-spaced grid over the half-lines the variants integrate.  Each ray's
    span runs from the node before its first value above its own
    peak * 1e-18 to the node after its last; ends still above it at the
    grid's edge are doubled until they fall to it, one call per step for
    all such rays.  Rays that vanish on the whole grid, or are live at
    z = 0 alone (steep rays, whose mass lies within its first node 1e-3),
    are scanned again on the grid scaled by 1e-3/512, toward z = 0 while
    that node stays a normal double.  Raises QuadratureError where the
    integrand is not finite (z**(n-1) overflowing at large n): a span cut
    short there would truncate it.
    """
    rays = _rays(model, probe_vs)
    weight_pow = 0 if "paper" in variants else model.n - 1
    scan_neg = bool({"paper", "mirror"} & set(variants))
    scan_pos = bool({"paper", "weighted"} & set(variants))

    def psi(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        base = model.ray_pdf(rays[rows], z)
        if not weight_pow:
            return base
        with np.errstate(over="ignore", invalid="ignore"):
            return base * np.abs(z) ** weight_pow

    pos = np.concatenate(([0.0], np.geomspace(1e-3, 512.0, 160)))
    zs = np.concatenate((-pos[::-1], pos[1:]))
    if not scan_neg:
        zs = zs[zs >= 0.0]
    if not scan_pos:
        zs = zs[zs <= 0.0]
    zero = int(np.flatnonzero(zs == 0.0)[0])
    z_lo, z_hi = 0.0, 0.0
    rows, scale = np.arange(rays.shape[0]), 1.0
    while rows.size and 1e-3 * scale >= np.finfo(float).tiny:
        grid = zs * scale
        vals = psi(rows, grid)
        if not np.isfinite(vals).all():
            raise QuadratureError("profile integrand is not finite on the scanned range")
        peak = vals.max(axis=1, initial=0.0)
        live = vals > peak[:, None] * 1e-18
        # A ray live only at z = 0 (a steep ray's paper profile) is as
        # unresolved as one that vanishes: its span is narrower than a node.
        found = live.sum(axis=1) > live[:, zero]
        thresh, live = peak[found] * 1e-18, live[found]
        first, edge = np.argmax(live, axis=1), grid.size - 1
        last = edge - np.argmax(live[:, ::-1], axis=1)
        # Lower ends, then upper ends; those still live at the grid's edge double.
        ends = grid[np.concatenate((np.maximum(first - 1, 0), np.minimum(last + 1, edge)))]
        grow = np.concatenate(((first == 0) & scan_neg, (last == edge) & scan_pos))
        owner, limit = np.tile(rows[found], 2), np.tile(thresh, 2)
        for _ in range(39):
            if not grow.any():
                break
            ends[grow] *= 2.0
            grow[grow] = ~(psi(owner[grow], ends[grow, None])[:, 0] <= limit[grow])
        if grow.any():
            raise QuadratureError("profile integrand does not decay on the scanned range")
        z_lo = min(z_lo, float(ends.min(initial=0.0)))
        z_hi = max(z_hi, float(ends.max(initial=0.0)))
        rows, scale = rows[~found], scale * (1e-3 / 512.0)
    return z_lo, z_hi


# Relative agreement every profile must reach between m and 2m Gauss
# nodes per panel; m is tried at each of _PANEL_NODES in turn.
Z_PLAN_RTOL = 1e-13
_PANEL_NODES = (6, 12, 24, 48)


def _panel_edges(z_max: float) -> np.ndarray:
    """Edges on [0, z_max]: a quarter, a half and one unit u = min(z_max, 1),
    then widths doubling out to z_max.  Empty when z_max is 0."""
    unit = min(z_max, 1.0)
    edges = [0.0, 0.25 * unit, 0.5 * unit, unit]
    while edges[-1] < z_max:
        edges.append(2.0 * edges[-1])
    return np.asarray([e for e in edges if e < z_max] + [z_max])


@functools.cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre rule on [-1, 1], built on first use."""
    rule = np.polynomial.legendre.leggauss(count)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _composite(edges: np.ndarray, per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre with `per_panel` nodes on each panel between `edges`;
    each node count's rule is built once per process (`_gauss_legendre`)."""
    x, w = _gauss_legendre(per_panel)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


@dataclass(frozen=True, eq=False)
class ZPlan:
    """Composite Gauss-Legendre rule along the ray parameter.

    `build_z_plan` sizes it for the probe directions and profile variants it
    serves, with an embedded check, so the plan carries its own error
    certificate: every probe profile of every served variant agrees with
    the rule of twice as many nodes per panel to `Z_PLAN_RTOL` relative.
    One plan serves a whole region's profiles; a plan for one ray serves
    `h_profile` and `weighted_profile_mirror`.  `profile_batch` evaluates
    the density at the nodes through `DensityModel.ray_pdf`, as does the
    support scan, so each model kind has one ray evaluator.  Both halves
    start at z = 0; a model with `closed_form_profiles` gets four empty
    arrays, with no certificate to carry.  `mirrored` is decided once, on
    construction: the negative half is the positive one negated and
    reversed, nodes and weights bit for bit, as it is for every plan whose
    scanned span is symmetric (a sign-symmetric model's paper plan).
    """

    pos_nodes: np.ndarray
    pos_weights: np.ndarray
    neg_nodes: np.ndarray
    neg_weights: np.ndarray
    mirrored: bool = field(init=False)

    def __post_init__(self) -> None:
        mirrored = np.array_equal(self.neg_nodes, -self.pos_nodes[::-1]) and np.array_equal(
            self.neg_weights, self.pos_weights[::-1]
        )
        object.__setattr__(self, "mirrored", mirrored)


def build_z_plan(
    model: DensityModel, probe_vs: np.ndarray, variants: tuple[str, ...] = PROFILE_VARIANTS
) -> ZPlan:
    """Composite rule covering the profile support of every probe direction.

    `variants` are the profile variants the plan serves (`profile_batch`'s
    paper, weighted and mirror).  A model with `closed_form_profiles` gets
    the empty plan at once, as `profile_batch` reads its profiles in closed
    form: no density is evaluated.  For every other model `_scan_support`
    finds the joint span of the probe rays' integrands in one batched scan.
    Panels double in width away from z = 0 out to twice that span; the
    twofold margin covers the weighted profiles of a shared region plan
    (n <= 4).  The node count per panel is the smallest m in _PANEL_NODES
    whose probe profiles, in every served variant, agree with those at 2m
    nodes per panel to Z_PLAN_RTOL; QuadratureError is raised when none does.
    """
    if model.closed_form_profiles:
        return ZPlan(*[np.empty(0)] * 4)
    probe_vs = np.atleast_2d(np.asarray(probe_vs, dtype=float))
    z_lo, z_hi = _scan_support(model, probe_vs, variants)
    # Margin: one extra octave on both sides.
    pos_edges = _panel_edges(2.0 * z_hi)
    neg_edges = -_panel_edges(-2.0 * z_lo)[::-1]

    previous, worst = None, math.inf
    for per_panel in (*_PANEL_NODES, 2 * _PANEL_NODES[-1]):
        plan = ZPlan(*_composite(pos_edges, per_panel), *_composite(neg_edges, per_panel))
        profiles = np.concatenate(
            [profile_batch(model, probe_vs, variant, plan) for variant in variants]
        )
        if previous is not None:
            gap = np.abs(profiles - previous[1])
            worst = float(np.max(gap / np.maximum(np.abs(profiles), 1e-300)))
            if np.all(gap <= Z_PLAN_RTOL * np.abs(profiles)):
                return previous[0]
        previous = (plan, profiles)
    raise QuadratureError(
        f"ray profiles did not settle at {_PANEL_NODES[-1]} nodes per panel: "
        f"relative change {worst:.3e} against {2 * _PANEL_NODES[-1]}"
    )


# Rays per ray_pdf call in profile_batch, which bounds its (rays x nodes)
# buffers.
_RAY_CHUNK = 256


def profile_batch(
    model: DensityModel, vs: np.ndarray, variant: str, plan: ZPlan
) -> np.ndarray:
    """Profiles of the points stacked in rows of `vs`, on one z-plan.

    A model with `closed_form_profiles` never reads the plan, which
    `build_z_plan` leaves empty for it.
    Every other law is integrated on the plan: paper takes the plan's
    negative and positive halves, weighted the positive half with weight
    z**(n-1), and mirror (the z < 0 branch of the weighted change of
    variables) the negative half with |z|**(n-1).  For a sign-symmetric
    model on a mirrored plan the two paper halves are equal node for node,
    so paper is twice the positive half, at half the density evaluations.
    """
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    n = model.n
    if variant == "paper" and plan.mirrored and model.sign_symmetric:
        # twice the positive half; doubling the weights is exact
        nodes, weights = plan.pos_nodes, 2.0 * plan.pos_weights
    elif variant == "paper":
        nodes = np.concatenate((plan.neg_nodes, plan.pos_nodes))
        weights = np.concatenate((plan.neg_weights, plan.pos_weights))
    elif variant == "weighted":
        nodes = plan.pos_nodes
        weights = plan.pos_weights * plan.pos_nodes ** (n - 1)
    elif variant == "mirror":
        nodes = plan.neg_nodes
        weights = plan.neg_weights * (-plan.neg_nodes) ** (n - 1)
    else:
        raise ValueError(f"unknown profile variant {variant!r}")
    out = np.empty(vs.shape[0])
    for first in range(0, vs.shape[0], _RAY_CHUNK):
        part = slice(first, first + _RAY_CHUNK)
        rays = _rays(model, vs[part])
        q = model.ray_quadratic(rays)
        if q is not None:
            out[part] = _centred_normal_profiles(model, q, variant)
        elif model.kind == "iid-folded-normal":
            out[part] = _folded_normal_profiles(model, rays, variant)
        else:
            out[part] = model.ray_pdf(rays, nodes) @ weights
    return out


def _centred_normal_profiles(model: DensityModel, q: np.ndarray, variant: str) -> np.ndarray:
    """Exact profiles of a normal law centred at 0, f(z r) = e^c exp(-q z^2/2),
    as Gamma integrals (DLMF 5.2.1): paper sqrt(2 pi / q) e^c, weighted and
    mirror 2^(n/2 - 1) Gamma(n/2) q^(-n/2) e^c.  Formed in log form, so
    neither Gamma(n/2) nor e^c overflows or underflows before the last exp."""
    if variant == "paper":
        power, log_k = 0.5, _LOG_SQRT_2PI
    else:
        power = 0.5 * model.n
        log_k = (power - 1.0) * math.log(2.0) + math.lgamma(power)
    log_h = np.log(q)
    log_h *= -power
    log_h += model._gaussian_log_norm + log_k
    return np.exp(log_h, out=log_h)


def _folded_normal_profiles(model: DensityModel, rays: np.ndarray, variant: str) -> np.ndarray:
    """Exact profiles of the folded normal, coordinates shift + |N(0, 1)|.

    Along w with min w > 0, f(z w) = C exp(-a (z - m)^2 / 2) from the edge
    z0 = shift / min w on, 0 before: a = |w|^2, m = shift sum(w) / a <= z0,
    log C = n log(2 / sqrt(2 pi)) - shift^2 |1 - (sum(w) / a) w|^2 / 2 with
    no cancelling.  Missed rays (min w <= 0) and mirrors read 0.  Paper is
    C J_0 and weighted C J_(n-1), J_k the integral of z^k exp(-a (z - m)^2 / 2)
    past z0: J_0 by erfc (DLMF 7.2) and, by parts, with no negative term,
    J_k = m J_(k-1) + (k - 1)/a J_(k-2) + z0^(k-1) exp(-a (z0 - m)^2 / 2) / a,
    run on R_k = J_k / (m^k 2^e_k) in [1/2, 1) (2^e_k exact); one exp at the end.
    """
    out, low = np.zeros(rays.shape[0]), rays.min(axis=1)
    hit = (low > 0.0) & (variant != "mirror")
    n, shift, w = model.n, model.shift, rays[hit]
    a = np.sum(w * w, axis=1)
    ratio = np.sum(w, axis=1) / a
    m, z0 = shift * ratio, shift / low[hit]
    resid = 1.0 - ratio[:, None] * w
    log_h = n * (math.log(2.0) - _LOG_SQRT_2PI) - 0.5 * shift**2 * np.sum(resid * resid, axis=1)
    erfc = np.frompyfunc(math.erfc, 1, 1)(np.sqrt(0.5 * a) * (z0 - m))
    r = np.sqrt(0.5 * math.pi / a) * erfc.astype(float)
    if variant == "weighted":
        log_step, half_gap = np.log(z0 / m), 0.5 * a * (z0 - m) ** 2
        r_prev, e = np.zeros_like(r), np.zeros_like(r)
        for k in range(1, n):
            edge = np.exp((k - 1) * log_step - half_gap - e * math.log(2.0)) / (a * m)
            r_next, step = np.frexp(r + (k - 1) / (a * m * m) * r_prev + edge)
            r_prev, r, e = np.ldexp(r, -step), r_next, e + step
        log_h += (n - 1) * np.log(m) + e * math.log(2.0)
    with np.errstate(divide="ignore", over="ignore"):
        out[hit] = np.exp(log_h + np.log(r))
    return out


def h_profile(model: DensityModel, query: RadialProfileQuery) -> float:
    """Radial profile of the joint density at direction (1, v).

    paper variant: integral over all real z of f(z, z*v).
    weighted variant: integral over z > 0 of z**(n-1) * f(z, z*v).
    Evaluated on a z-plan built for this one ray and variant.
    """
    plan = build_z_plan(model, query.v, (query.variant,))
    return float(profile_batch(model, query.v, query.variant, plan)[0])


def weighted_profile_mirror(model: DensityModel, v: np.ndarray) -> float:
    """z < 0 branch of the weighted profile: integral of |z|**(n-1) f(z, z*v)."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    plan = build_z_plan(model, v, ("mirror",))
    return float(profile_batch(model, v, "mirror", plan)[0])


def _parse_params(text: str) -> dict[str, str]:
    params: dict[str, str] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"model parameter {item!r} is not key=value")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def parse_model(text: str, n: int) -> DensityModel | DiscreteModel:
    """Parse a model spec string: family, optionally ':key=value,...'.

    Families: iid-normal (mu, sigma), iid-student-t (nu), iid-folded-normal
    (shift), gaussian (cov required, mean optional; vectors space-separated,
    cov row-major).  The discrete names rademacher and
    degenerate-first-coordinate give a `DiscreteModel`.
    """
    text = text.strip()
    family, _, rest = text.partition(":")
    family = family.strip()
    params = _parse_params(rest) if rest else {}
    if family in DISCRETE_MODELS:
        if params:
            raise ValueError(f"{family} takes no parameters")
        return DiscreteModel(n, family)

    def fparam(key: str, default: float | None = None) -> float:
        if key in params:
            return float(params.pop(key))
        if default is None:
            raise ValueError(f"model {family!r} requires parameter {key}")
        return default

    if family == "iid-normal":
        model = DensityModel.iid_normal(n, mu=fparam("mu", 0.0), sigma=fparam("sigma", 1.0))
    elif family == "iid-student-t":
        model = DensityModel.iid_student_t(n, nu=fparam("nu"))
    elif family == "iid-folded-normal":
        model = DensityModel.iid_folded_normal(n, shift=fparam("shift", 1.0))
    elif family == "gaussian":
        if "cov" not in params:
            raise ValueError("gaussian model requires cov")
        cov_flat = np.array([float(t) for t in params.pop("cov").split()])
        if cov_flat.size != n * n:
            raise ValueError(f"cov needs {n * n} entries for n = {n}")
        mean = np.zeros(n)
        if "mean" in params:
            mean = np.array([float(t) for t in params.pop("mean").split()])
            if mean.size != n:
                raise ValueError(f"mean needs {n} entries for n = {n}")
        model = DensityModel.gaussian(mean, cov_flat.reshape(n, n))
    else:
        raise ValueError(f"unknown model family {family!r}")
    if params:
        raise ValueError(f"unknown parameters for {family}: {sorted(params)}")
    return model
