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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.linalg import cholesky, solve_triangular
from scipy.special import ndtri, stdtrit

__all__ = [
    "DensityModel",
    "RadialProfileQuery",
    "QuadratureError",
    "h_profile",
    "weighted_profile_mirror",
    "ZPlan",
    "build_z_plan",
    "profile_batch",
    "parse_model",
    "DISCRETE_MODELS",
]

PROFILE_VARIANTS = ("paper", "weighted")

# Discrete sampler kinds understood by the Monte Carlo layer; they are not
# density models and parse to plain strings.
DISCRETE_MODELS = ("rademacher", "degenerate-first-coordinate")

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

_IID_KINDS = ("iid-normal", "iid-student-t", "iid-folded-normal")


class QuadratureError(RuntimeError):
    """Raised when a quadrature cannot reach its error budget."""


@dataclass(frozen=True, eq=False)
class DensityModel:
    """Continuous joint density on R^n.

    Construct through the classmethods; `kind` is one of iid-normal,
    iid-student-t, iid-folded-normal, gaussian, user.  `pdf` is vectorized
    over points stacked in the last axis.
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

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")

    @classmethod
    def iid_normal(cls, n: int, mu: float = 0.0, sigma: float = 1.0) -> "DensityModel":
        if sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        return cls(n=n, kind="iid-normal", mu=mu, sigma=sigma)

    @classmethod
    def iid_student_t(cls, n: int, nu: float) -> "DensityModel":
        if nu <= 2.0:
            raise ValueError(f"nu must exceed 2 for a finite variance, got {nu}")
        return cls(n=n, kind="iid-student-t", nu=nu)

    @classmethod
    def iid_folded_normal(cls, n: int, shift: float = 1.0) -> "DensityModel":
        if shift <= 0.0:
            raise ValueError(f"shift must be positive, got {shift}")
        return cls(n=n, kind="iid-folded-normal", shift=shift)

    @classmethod
    def gaussian(cls, mean: np.ndarray, cov: np.ndarray) -> "DensityModel":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.asarray(cov, dtype=float)
        n = mean.size
        if cov.shape != (n, n):
            raise ValueError(f"cov shape {cov.shape} does not match mean size {n}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("cov must be symmetric")
        try:
            chol_l = cholesky(cov, lower=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError("cov must be positive definite") from exc
        return cls(n=n, kind="gaussian", mean=mean, chol=chol_l)

    @classmethod
    def user(cls, n: int, fn: Callable[[np.ndarray], np.ndarray]) -> "DensityModel":
        if not callable(fn):
            raise ValueError("fn must be callable")
        return cls(n=n, kind="user", fn=fn)

    @property
    def sign_symmetric(self) -> bool:
        """True when f(-x) = f(x) is known to hold."""
        if self.kind == "iid-normal":
            return self.mu == 0.0
        if self.kind == "iid-student-t":
            return True
        if self.kind == "gaussian":
            return bool(np.all(self.mean == 0.0))
        return False

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
        if self.kind == "iid-student-t":
            nu = self.nu
            logc = (
                math.lgamma(0.5 * (nu + 1.0))
                - math.lgamma(0.5 * nu)
                - 0.5 * math.log(nu * math.pi)
            )
            out = x * x
            out /= nu
            np.log1p(out, out=out)
            out *= 0.5 * (nu + 1.0)
            return np.subtract(logc, out, out=out)
        if self.kind == "iid-folded-normal":
            y = x - self.shift
            out = -0.5 * y
            out *= y
            out += math.log(2.0)
            out -= _LOG_SQRT_2PI
            out[~(y >= 0.0)] = -np.inf
            return out
        raise ValueError(f"no coordinate density for kind {self.kind!r}")

    def _gaussian_log_norm(self) -> float:
        return -self.n * _LOG_SQRT_2PI - float(np.sum(np.log(np.diag(self.chol))))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Joint density at points stacked in the last axis of `x`."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise ValueError(f"points must have last dimension {self.n}")
        if self.kind in _IID_KINDS:
            with np.errstate(invalid="ignore"):
                logf = self._coordinate_log_pdf(x).sum(axis=-1)
            return np.exp(logf)
        if self.kind == "gaussian":
            dev = x - self.mean
            flat = dev.reshape(-1, self.n)
            y = solve_triangular(self.chol, flat.T, lower=True)
            q = np.sum(y * y, axis=0).reshape(x.shape[:-1])
            return np.exp(self._gaussian_log_norm() - 0.5 * q)
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
        1-D array of ray parameters.  Each kind uses its own structure, so
        the (k, len(z), n) array of points is formed only for user
        densities, which offer no other route:

          iid       the coordinate log-densities summed one coordinate at
                    a time, left to right (the order of `pdf`'s axis sum up
                    to n = 7, so values agree bit for bit there); the first
                    coordinate is z itself on every ray, so its term is
                    computed once.
          gaussian  one triangular solve per ray, not per point.  With
                    y = L^-1 ray, a = |y|^2, c = L^-1 mean and b = y.c, the
                    quadratic form is a (z - b/a)^2 + |(b/a) y - c|^2; the
                    residual is formed as a vector, so nothing cancels.
        """
        rays = np.atleast_2d(np.asarray(rays, dtype=float))
        z = np.asarray(z, dtype=float)
        if rays.ndim != 2 or rays.shape[1] != self.n:
            raise ValueError(f"rays must have shape (k, {self.n})")
        if z.ndim != 1:
            raise ValueError("ray parameters must be a 1-D array")
        if (rays[:, 0] != 1.0).any():
            raise ValueError("rays must have first coordinate 1")
        if self.kind in _IID_KINDS:
            with np.errstate(invalid="ignore"):
                logf = self._coordinate_log_pdf(z)
                for j in range(1, self.n):
                    logf = logf + self._coordinate_log_pdf(z * rays[:, j : j + 1])
            return np.exp(logf, out=logf)
        if self.kind == "gaussian":
            y = solve_triangular(self.chol, rays.T, lower=True)
            a = np.sum(y * y, axis=0)
            if np.any(self.mean):
                c = solve_triangular(self.chol, self.mean, lower=True)
                shift = (c @ y) / a
                resid = shift * y - c[:, None]
                q = z - shift[:, None]
                q *= q
                q *= a[:, None]
                q += np.sum(resid * resid, axis=0)[:, None]
            else:
                q = np.multiply.outer(a, z * z)
            q *= -0.5
            q += self._gaussian_log_norm()
            return np.exp(q, out=q)
        return self.pdf(z[None, :, None] * rays[:, None, :])

    def draw_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map uniform(0,1) draws of shape (k, n) to model samples.

        Pure function of its input: the whole determinism contract of the
        Monte Carlo layer rests on this.  Uniforms are clipped away from the
        endpoints so inverse CDFs stay finite.
        """
        u = np.clip(u, 1e-300, 1.0 - 1e-16)
        if u.ndim != 2 or u.shape[1] != self.n:
            raise ValueError(f"uniforms must have shape (k, {self.n})")
        if self.kind == "iid-normal":
            return self.mu + self.sigma * ndtri(u)
        if self.kind == "iid-student-t":
            return stdtrit(self.nu, u)
        if self.kind == "iid-folded-normal":
            return self.shift + np.abs(ndtri(u))
        if self.kind == "gaussian":
            return ndtri(u) @ self.chol.T + self.mean
        raise ValueError(f"cannot sample kind {self.kind!r} by inverse CDF")


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


def _ray_vector(model: DensityModel, v: np.ndarray) -> np.ndarray:
    if v.size != model.n - 1:
        raise ValueError(
            f"profile point has dimension {v.size}, model needs {model.n - 1}"
        )
    return np.concatenate(([1.0], v))


def _scan_support(
    psi: Callable[[np.ndarray], np.ndarray], lo_sign: float, hi_sign: float
) -> tuple[float, float, list[float]] | None:
    """Locate the support of psi by a log-spaced scan plus doubling.

    Returns (z_lo, z_hi, interior hint points) or None when psi vanishes on
    the whole scanned range.
    """
    pos = np.concatenate(([0.0], np.geomspace(1e-3, 512.0, 160)))
    zs = np.concatenate((-pos[::-1], pos[1:]))
    if lo_sign >= 0.0:
        zs = zs[zs >= 0.0]
    if hi_sign <= 0.0:
        zs = zs[zs <= 0.0]
    vals = psi(zs)
    peak = float(vals.max(initial=0.0))
    if peak <= 0.0:
        return None
    thresh = peak * 1e-18
    live = np.flatnonzero(vals > thresh)
    z_lo = float(zs[max(live[0] - 1, 0)])
    z_hi = float(zs[min(live[-1] + 1, zs.size - 1)])

    # Heavy tails: extend by doubling until the integrand is truly negligible.
    def extend(z: float) -> float:
        for _ in range(40):
            if float(psi(np.array([z]))[0]) <= thresh:
                return z
            z *= 2.0
        raise QuadratureError(
            "profile integrand does not decay on the scanned range"
        )

    if hi_sign > 0.0:
        z_hi = extend(z_hi)
    if lo_sign < 0.0:
        z_lo = extend(z_lo)
    top = zs[vals > 0.1 * peak]
    hints = [float(t) for t in (top[0], zs[int(np.argmax(vals))], top[-1])]
    return z_lo, z_hi, hints


def _profile_quad(
    model: DensityModel, v: np.ndarray, variant: str, mirror: bool = False
) -> float:
    ray = _ray_vector(model, v)[None, :]
    n = model.n

    if variant == "paper" and not mirror:
        weight_pow, lo_sign, hi_sign = 0, -1.0, 1.0
    elif variant == "weighted" and not mirror:
        weight_pow, lo_sign, hi_sign = n - 1, 0.0, 1.0
    else:
        weight_pow, lo_sign, hi_sign = n - 1, -1.0, 0.0

    def psi(z: np.ndarray) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        base = model.ray_pdf(ray, z)[0]
        if weight_pow:
            base = base * np.abs(z) ** weight_pow
        return base

    span = _scan_support(psi, lo_sign, hi_sign)
    if span is None:
        return 0.0
    z_lo, z_hi, hints = span
    points = [p for p in hints if z_lo < p < z_hi]
    value, abserr, *rest = integrate.quad(
        lambda z: float(psi(np.array([z]))[0]),
        z_lo,
        z_hi,
        points=points or None,
        epsabs=1e-14,
        epsrel=1e-11,
        limit=300,
        full_output=1,
    )
    if len(rest) > 1 and abserr > 100.0 * max(1e-14, 1e-9 * abs(value)):
        raise QuadratureError(
            f"profile quadrature stalled: estimated error {abserr:.3e}"
        )
    return float(value)


def h_profile(model: DensityModel, query: RadialProfileQuery) -> float:
    """Radial profile of the joint density at direction (1, v).

    paper variant: integral over all real z of f(z, z*v).
    weighted variant: integral over z > 0 of z**(n-1) * f(z, z*v).
    """
    return _profile_quad(model, query.v, query.variant)


def weighted_profile_mirror(model: DensityModel, v: np.ndarray) -> float:
    """z < 0 branch of the weighted profile: integral of |z|**(n-1) f(z, z*v)."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return _profile_quad(model, v, "weighted", mirror=True)


@dataclass(frozen=True, eq=False)
class ZPlan:
    """Fixed Gauss-Legendre composite rule along the ray parameter.

    Built once per region from probe directions, then reused for every
    profile in a batch.  `profile_batch` evaluates the density at the nodes
    through `DensityModel.ray_pdf`, as do the support scan and the adaptive
    scalar path, so each model kind has one ray evaluator.  Intended for
    smooth full-support densities; models with support edges should go
    through the adaptive scalar path.
    """

    pos_nodes: np.ndarray
    pos_weights: np.ndarray
    neg_nodes: np.ndarray
    neg_weights: np.ndarray


def _panel_edges(z_max: float) -> np.ndarray:
    edges = [0.0, 0.25, 0.5, 1.0]
    while edges[-1] < z_max:
        edges.append(2.0 * edges[-1])
    return np.asarray([e for e in edges if e < z_max] + [z_max])


def build_z_plan(
    model: DensityModel, probe_vs: np.ndarray, nodes_per_panel: int = 24
) -> ZPlan:
    """Composite rule covering the profile support of every probe direction."""
    probe_vs = np.atleast_2d(np.asarray(probe_vs, dtype=float))
    z_lo, z_hi = 0.0, 0.0
    for v in probe_vs:
        ray = _ray_vector(model, v)[None, :]

        def psi(z: np.ndarray) -> np.ndarray:
            return model.ray_pdf(ray, z)[0]

        span = _scan_support(psi, -1.0, 1.0)
        if span is None:
            continue
        lo, hi, _ = span
        z_lo = min(z_lo, lo)
        z_hi = max(z_hi, hi)
    # Margin: one extra octave on both sides.
    z_lo, z_hi = 2.0 * z_lo, 2.0 * z_hi
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)

    def composite(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nodes, weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            nodes.append(0.5 * (a + b) + half * x)
            weights.append(half * w)
        if not nodes:
            return np.zeros(0), np.zeros(0)
        return np.concatenate(nodes), np.concatenate(weights)

    pos_n, pos_w = composite(_panel_edges(max(z_hi, 1.0)))
    neg_n, neg_w = composite(-_panel_edges(max(-z_lo, 1.0))[::-1])
    return ZPlan(pos_n, pos_w, neg_n, neg_w)


def profile_batch(
    model: DensityModel,
    vs: np.ndarray,
    variant: str,
    plan: ZPlan,
    chunk: int = 256,
) -> np.ndarray:
    """Vectorized profiles for points stacked in rows of `vs`."""
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    if vs.shape[1] != model.n - 1:
        raise ValueError(
            f"profile points have dimension {vs.shape[1]}, need {model.n - 1}"
        )
    n = model.n
    if variant == "paper":
        nodes = np.concatenate((plan.neg_nodes, plan.pos_nodes))
        weights = np.concatenate((plan.neg_weights, plan.pos_weights))
    elif variant == "weighted":
        nodes = plan.pos_nodes
        weights = plan.pos_weights * plan.pos_nodes ** (n - 1)
    else:
        raise ValueError(f"unknown profile variant {variant!r}")
    out = np.empty(vs.shape[0])
    for start in range(0, vs.shape[0], chunk):
        block = vs[start : start + chunk]
        vecs = np.concatenate(
            (np.ones((block.shape[0], 1)), block), axis=1
        )
        out[start : start + chunk] = model.ray_pdf(vecs, nodes) @ weights
    return out


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


def parse_model(text: str, n: int) -> DensityModel | str:
    """Parse a model spec string: family, optionally ':key=value,...'.

    Families: iid-normal (mu, sigma), iid-student-t (nu), iid-folded-normal
    (shift), gaussian (cov required, mean optional; vectors space-separated,
    cov row-major).  The discrete names rademacher and degenerate-first-coordinate are
    returned as plain strings for the Monte Carlo layer.
    """
    text = text.strip()
    family, _, rest = text.partition(":")
    family = family.strip()
    params = _parse_params(rest) if rest else {}
    if family in DISCRETE_MODELS:
        if params:
            raise ValueError(f"{family} takes no parameters")
        return family

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
