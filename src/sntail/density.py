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
`profile_batch` serves one ray or a whole region.  Every normal law
(`DensityModel.closed_form_profiles`) reads its profiles in closed form
(`DensityModel.ray_gaussian`), on the empty plan: no support scan, no check.
Student-t and user densities are integrated on a z-plan (`build_z_plan`), a
composite Gauss-Legendre rule sized by one embedded check.  scipy loads
only where sampling starts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
_LN2 = math.log(2.0)

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

    @functools.cached_property
    def centred_normal(self) -> bool:
        """True for a normal law centred at 0: an iid normal with mu = 0, or
        a gaussian whose mean is all zeros, decided once per model.  Its ray
        profiles are Gamma integrals (`ray_gaussian` gives m = 0)."""
        if self.kind == "iid-normal":
            return self.mu == 0.0
        return self.kind == "gaussian" and bool(np.all(self.mean == 0.0))

    @property
    def closed_form_profiles(self) -> bool:
        """True when `profile_batch` reads the ray profiles in closed form
        (`ray_gaussian`) and needs no z-plan: every kind but student-t and
        user."""
        return self.kind not in ("iid-student-t", "user")

    @property
    def exchangeable(self) -> bool:
        """True when f is known to be invariant under every permutation of
        the coordinates: the iid kinds, and an equicorrelated gaussian."""
        return self.kind in _IID_KINDS or self.equicorrelated

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
        covariance sigma^2 I, computed once per model; the folded normal's is
        2^n times the unit normal's."""
        if self.kind == "iid-folded-normal":
            return self.n * (_LN2 - _LOG_SQRT_2PI)
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

    def ray_gaussian(self, rays: np.ndarray) -> tuple | None:
        """(log_c, a, m, z0) with f(z w) = exp(log_c - a (z - m)^2 / 2) along
        each ray w in the rows of `rays`: on the whole line (z0 None), or,
        for the folded normal, past the edge z0.  None for student-t and user.

        With y = L^-1 w and c = L^-1 mean (L = sigma I and mean mu 1 for an
        iid normal), a = |y|^2, m = y.c / a and log_c = log norm -
        |m y - c|^2 / 2, the residual formed as a vector, so nothing cancels.
        The folded normal is that law at mu = shift times 2^n, from
        z0 = shift / min w on; rays with min w <= 0 miss it: log_c = -inf.
        A `centred_normal` gives the scalars log_c = log norm and m = 0."""
        if not self.closed_form_profiles:
            return None
        if self.kind == "gaussian":
            y = self._chol_inv @ rays.T
            a = np.sum(y * y, axis=0)
        else:
            a = np.sum(rays * rays, axis=1) / (self.sigma * self.sigma)
        if self.centred_normal:
            return self._gaussian_log_norm, a, 0.0, None
        if self.kind == "gaussian":
            c = self._chol_inv @ self.mean
        else:  # L = sigma I; the centre is mu or shift, the other one being 0
            y, c = rays.T / self.sigma, np.full(self.n, (self.mu + self.shift) / self.sigma)
        m = (c @ y) / a
        resid = m * y - c[:, None]
        log_c = self._gaussian_log_norm - 0.5 * np.sum(resid * resid, axis=0)
        if self.kind != "iid-folded-normal":
            return log_c, a, m, None
        low = rays.min(axis=1)
        log_c[low <= 0.0] = -np.inf
        return log_c, a, m, np.divide(self.shift, low, out=np.full_like(low, np.inf), where=low > 0.0)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Joint density at points stacked in the last axis of `x`."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise ValueError(f"points must have last dimension {self.n}")
        if self.kind == "iid-student-t":
            return self._student_t_pdf(
                x.shape[:-1], x[..., 0], lambda j, out: np.copyto(out, x[..., j])
            )
        if self.kind == "iid-normal":
            z = (x - self.mu) / self.sigma
            return np.exp(np.sum(-0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI, axis=-1))
        if self.kind == "iid-folded-normal":
            y = x - self.shift
            logf = -0.5 * y * y + _LN2 - _LOG_SQRT_2PI
            logf[~(y >= 0.0)] = -np.inf
            return np.exp(logf.sum(axis=-1))
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
        per ray (then out[r, i] = f(z[r, i] * rays[r])).  Student-t runs
        `pdf`'s product kernel on the columns z * w_j, so the two agree bit
        for bit; the first column is z on every ray, computed once.  Every
        other kind takes `pdf` on the (k, len(z), n) array of points.
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
) -> float:
    """Extent z_max >= 0 of every probe ray's integrand, on both half-lines.

    The integrand is f along the ray for a plan that serves the paper
    variant, else z**(n-1) f, whose mass the weight moves outward by about
    sqrt(n - 1).  All rays are scanned in one `ray_pdf` call on one shared
    log-spaced grid over the half-line z >= 0.  Where a served variant
    integrates z < 0 (paper, mirror) each ray is read at z and at -z in
    that call and the larger value counts; a sign-symmetric model reads z
    alone.  Each ray's extent is the node after its last value above its
    own peak * 1e-18; extents still above it at the grid's edge are doubled
    until they fall to it, one call per step for all such rays.  Rays that
    vanish on the whole grid, or are live at z = 0 alone (steep rays, whose
    mass lies within its first node 1e-3), are scanned again on the grid
    scaled by 1e-3/512, toward z = 0 while that node stays a normal double.
    Raises QuadratureError where the integrand is not finite (z**(n-1)
    overflowing at large n): an extent cut short there would truncate it.
    """
    rays = _rays(model, probe_vs)
    weight_pow = 0 if "paper" in variants else model.n - 1
    both = not model.sign_symmetric and bool({"paper", "mirror"} & set(variants))

    def psi(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        if both:
            z = np.concatenate((z, -z), axis=-1)
        vals = model.ray_pdf(rays[rows], z)
        if weight_pow:
            with np.errstate(over="ignore", invalid="ignore"):
                vals = vals * np.abs(z) ** weight_pow
        return np.maximum(*np.split(vals, 2, axis=1)) if both else vals

    zs = np.concatenate(([0.0], np.geomspace(1e-3, 512.0, 160)))
    z_max = 0.0
    rows, scale = np.arange(rays.shape[0]), 1.0
    while rows.size and 1e-3 * scale >= np.finfo(float).tiny:
        grid = zs * scale
        vals = psi(rows, grid)
        if not np.isfinite(vals).all():
            raise QuadratureError("profile integrand is not finite on the scanned range")
        peak = vals.max(axis=1, initial=0.0)
        live = vals > peak[:, None] * 1e-18
        # A ray live only at z = 0 (a steep ray's paper profile) is as
        # unresolved as one that vanishes: its extent is narrower than a node.
        found = live[:, 1:].any(axis=1)
        limit, edge = peak[found] * 1e-18, grid.size - 1
        last = edge - np.argmax(live[found, ::-1], axis=1)
        ends = grid[np.minimum(last + 1, edge)]
        # Extents still live at the grid's edge double.
        grow, owner = last == edge, rows[found]
        for _ in range(39):
            if not grow.any():
                break
            ends[grow] *= 2.0
            grow[grow] = ~(psi(owner[grow], ends[grow, None])[:, 0] <= limit[grow])
        if grow.any():
            raise QuadratureError("profile integrand does not decay on the scanned range")
        z_max = max(z_max, float(ends.max(initial=0.0)))
        rows, scale = rows[~found], scale * (1e-3 / 512.0)
    return z_max


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
    `h_profile` and `weighted_profile_mirror`.  `profile_batch` evaluates a
    student-t or user density at the nodes through `DensityModel.ray_pdf`,
    as does the support scan.  The plan is symmetric about z = 0 by
    construction: the negative half is the positive one negated and
    reversed, nodes and weights bit for bit.  A normal law
    (`closed_form_profiles`) gets four empty arrays, with no certificate to
    carry.
    """

    pos_nodes: np.ndarray
    pos_weights: np.ndarray
    neg_nodes: np.ndarray
    neg_weights: np.ndarray


def build_z_plan(
    model: DensityModel, probe_vs: np.ndarray, variants: tuple[str, ...] = PROFILE_VARIANTS
) -> ZPlan:
    """Composite rule covering the profile support of every probe direction.

    `variants` are the profile variants the plan serves (`profile_batch`'s
    paper, weighted and mirror).  A normal law (`closed_form_profiles`) gets
    the empty plan at once, as `profile_batch` reads its profiles in closed
    form: no density is evaluated.  For student-t and user `_scan_support`
    finds the extent z_max of the probe rays' integrands on both half-lines
    in one batched scan.  Panels double in width away from z = 0 out to
    2 z_max, and the negative half mirrors the positive one; the twofold
    margin covers the weighted profiles of a shared region plan (n <= 4).
    The node count per panel is the smallest m in _PANEL_NODES whose probe
    profiles, in every served variant, agree with those at 2m nodes per
    panel to Z_PLAN_RTOL; QuadratureError is raised when none does.
    """
    if model.closed_form_profiles:
        return ZPlan(*[np.empty(0)] * 4)
    probe_vs = np.atleast_2d(np.asarray(probe_vs, dtype=float))
    # Margin: one extra octave.
    edges = _panel_edges(2.0 * _scan_support(model, probe_vs, variants))

    previous, worst = None, math.inf
    for per_panel in (*_PANEL_NODES, 2 * _PANEL_NODES[-1]):
        nodes, weights = _composite(edges, per_panel)
        plan = ZPlan(nodes, weights, -nodes[::-1], weights[::-1])
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

    A model with `closed_form_profiles` reads them in closed form
    (`_normal_profiles`) and never reads the plan, which `build_z_plan`
    leaves empty for it.  Student-t and user are integrated on the plan:
    paper takes the plan's negative and positive halves, weighted the
    positive half with weight z**(n-1), and mirror (the z < 0 branch of the
    weighted change of variables) the negative half with |z|**(n-1).  Every
    plan's halves mirror each other, so for a sign-symmetric model the two
    paper halves are equal node for node, and paper is twice the positive
    half, at half the density evaluations.
    """
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    n = model.n
    if variant == "paper" and model.sign_symmetric:
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
        if model.closed_form_profiles:
            out[part] = _normal_profiles(model, rays, variant)
        else:
            out[part] = model.ray_pdf(rays, nodes) @ weights
    return out


def _normal_profiles(model: DensityModel, rays: np.ndarray, variant: str) -> np.ndarray:
    """Exact profiles of a normal law from `DensityModel.ray_gaussian`, in
    logs up to one exp: paper e^log_c sqrt(2 pi / a), or e^log_c J_0 past an
    edge; weighted e^log_c J_(n-1) past max(z0, 0) (`_log_moment`); mirror
    the weighted profile at -m, or 0 past an edge (z0 > 0).  A centred law
    (m the scalar 0) takes Gamma integrals (DLMF 5.2.1): weighted and
    mirror 2^(n/2 - 1) Gamma(n/2) a^(-n/2) e^log_c."""
    log_c, a, m, z0 = model.ray_gaussian(rays)
    if variant == "mirror" and z0 is not None:
        return np.zeros(a.size)
    if np.isscalar(m) or (variant == "paper" and z0 is None):
        if variant == "paper":
            power, log_k = 0.5, _LOG_SQRT_2PI
        else:
            power = 0.5 * model.n
            log_k = (power - 1.0) * _LN2 + math.lgamma(power)
        log_h = np.log(a)
        log_h *= -power
        log_h += log_c + log_k
        return np.exp(log_h, out=log_h)
    live = log_c > -np.inf  # the folded normal's rays that miss its support
    edge = np.zeros(a.size) if z0 is None else z0
    centre = -m if variant == "mirror" else m
    k = 0 if variant == "paper" else model.n - 1
    log_c[live] += _log_moment(a[live], centre[live], edge[live], k)
    with np.errstate(over="ignore"):
        return np.exp(log_c, out=log_c)


def _log_moment(a: np.ndarray, m: np.ndarray, z0: np.ndarray, k: int) -> np.ndarray:
    """log J_k per ray, J_k the integral over z > z0 >= 0 of z^k exp(-a (z - m)^2 / 2).

    J_k = m J_(k-1) + (k - 1)/a J_(k-2) + z0^(k-1) e^(-a (z0 - m)^2 / 2) / a
    (by parts).  Where m sqrt(a (k + 1)) > -5 it runs forward from
    J_0 = sqrt(pi / 2a) erfc(sqrt(a/2) (z0 - m)) on mantissas whose
    exponents `frexp` keeps apart; a negative m cancels there by at most
    about e^10 ulps.  Below (z0 = 0: the folded normal has m > 0) J_k is
    the minimal solution, whose ratios rho_j = J_j / J_(j-1) Miller's
    backward run rho_(j-1) = (j - 1) / (a (rho_j - m)) gives with no
    cancelling (Gautschi, SIAM Review 9, 1967), from the asymptotic ratio at
    N = ceil((sqrt k + 20 / |m sqrt a|)^2) + 20, the largest over the rays;
    then J_0 = e^(-a m^2 / 2) / (a (rho_1 - m)), so no erfc underflows.
    Near m = 0- the backward run alone fails (9.7e-6 off at (3.3, -0.1, 2)).
    """
    out = np.empty(a.size)
    back = m * np.sqrt(a * (k + 1)) <= -5.0
    fwd = ~back
    if fwd.any():
        a_f, m_f, x = a[fwd], m[fwd], np.sqrt(0.5 * a[fwd]) * (z0[fwd] - m[fwd])
        r = np.sqrt(0.5 * math.pi / a_f) * np.frompyfunc(math.erfc, 1, 1)(x).astype(float)
        r_prev, e = np.zeros(x.size), np.zeros(x.size)
        with np.errstate(divide="ignore"):
            log_z0 = np.log(z0[fwd])
            for j in range(1, k + 1):
                lift = -x * x - e * _LN2 + ((j - 1) * log_z0 if j > 1 else 0.0)
                r_next, step = np.frexp(m_f * r + (j - 1) / a_f * r_prev + np.exp(lift) / a_f)
                r_prev, r, e = np.ldexp(r, -step), r_next, e + step
            out[fwd] = np.log(r) + e * _LN2
    if back.any():
        a_b, m_b = a[back], m[back]
        top = int(np.max(np.ceil((math.sqrt(k) + 20.0 / np.abs(m_b * np.sqrt(a_b))) ** 2))) + 20
        # the positive root of rho^2 - m rho - (N - 1)/a, with no cancelling
        rho = 2.0 * (top - 1) / a_b / (np.sqrt(m_b * m_b + 4.0 * (top - 1) / a_b) - m_b)
        log_ratios = np.zeros(a_b.size)
        for j in range(top, 1, -1):
            rho = (j - 1) / (a_b * (rho - m_b))
            if j - 1 <= k:
                log_ratios += np.log(rho)
        out[back] = log_ratios - 0.5 * a_b * m_b * m_b - np.log(a_b * (rho - m_b))
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
