"""Closed-form tail predictions and the constants in front of them.

Every constant carries a variant tag.  "paper" evaluates the published
closed forms exactly as printed, including their determinant; "corrected"
evaluates the oracle-confirmed assembly: the eigenvalue-product determinant
together with the volume of the ellipsoid {u : (Au, u) < 2*eps} that the
second-order expansion g(1) - g(v) ~ (A(v-1), (v-1))/2 actually produces.
Nothing here silently replaces a published value; the verification ledger
reports both variants side by side with their ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic_core import (
    AntiHessianSpec,
    exp_or_inf,
    log_det_anti_hessian,
    log_det_anti_hessian_published,
)
from .density import DensityModel, RadialProfileQuery, h_profile, weighted_profile_mirror
from .oracles import tail_window

__all__ = [
    "TailQuery",
    "GammaVariantQuery",
    "KConstant",
    "Prediction",
    "k_constant",
    "predict_tail",
    "predict_gamma_variant",
    "log_growth_check",
    "log_growth_limit",
    "PREDICTION_FIELDS",
]

VARIANTS = ("paper", "corrected")
SIDES = ("right", "left", "two-sided")

# Flat serialization order for Prediction records.
PREDICTION_FIELDS = (
    "n",
    "beta",
    "eps",
    "side",
    "variant",
    "K",
    "h",
    "constant",
    "exponent",
    "value",
)


@dataclass(frozen=True)
class TailQuery:
    """Right/left/two-sided tail request at P(T > n**(1-1/beta) - epsilon), n = model.n."""

    epsilon: float
    beta: float = 2.0
    side: str = "right"

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not self.beta > 1.0:
            raise ValueError(f"beta must be > 1, got {self.beta}")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.side != "right" and self.beta != 2.0:
            raise ValueError("left and two-sided tails are stated only for beta = 2")


@dataclass(frozen=True)
class GammaVariantQuery:
    """Query for the degenerate-profile variant with local exponent gamma."""

    n: int
    gamma: float
    epsilon: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not self.gamma > 1.0 - self.n:
            raise ValueError(
                f"gamma must exceed 1 - n = {1 - self.n}, got {self.gamma}"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class KConstant:
    """Leading constant with its component breakdown."""

    value: float
    log_value: float
    determinant: float
    n: int
    beta: float
    variant: str


def _log_k(n: int, beta: float, variant: str) -> tuple[float, float]:
    """(log K, log det) in the requested variant, safe for very large n."""
    spec = AntiHessianSpec(n, beta)
    if variant == "paper":
        log_det = log_det_anti_hessian_published(spec)
        sign = -1.0
    elif variant == "corrected":
        log_det = log_det_anti_hessian(spec)
        sign = 1.0
    else:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    log_k = (
        sign * 0.5 * (n - 1) * math.log(2.0)
        - 0.5 * log_det
        + 0.5 * (n - 1) * math.log(math.pi)
        - math.lgamma(0.5 * (n + 1))
    )
    return log_k, log_det


def k_constant(n: int, beta: float = 2.0, variant: str = "corrected") -> KConstant:
    """Leading constant of the tail power law, with component breakdown.

    paper:     2**(-(n-1)/2) * det_published**(-1/2) * pi**((n-1)/2) / Gamma((n+1)/2)
    corrected: 2**(+(n-1)/2) * det_eigen**(-1/2)     * pi**((n-1)/2) / Gamma((n+1)/2)

    The corrected prefactor is the volume of {u : (Au, u) < 2*eps} divided
    by eps**((n-1)/2); the published one uses the ellipsoid without the
    factor 2 from the second-order Taylor expansion.  A value that
    overflows a double (the corrected K at beta = 1.5 from n = 697) reads
    inf; `log_value` stays finite.
    """
    log_k, log_det = _log_k(n, beta, variant)
    return KConstant(
        value=exp_or_inf(log_k),
        log_value=log_k,
        determinant=exp_or_inf(log_det),
        n=n,
        beta=beta,
        variant=variant,
    )


@dataclass(frozen=True)
class Prediction:
    """Closed-form tail prediction constant * epsilon**exponent."""

    n: int
    beta: float
    epsilon: float
    side: str
    variant: str
    k_value: float
    h_value: float
    constant: float
    exponent: float
    value: float
    warnings: tuple[str, ...] = field(default=())

    def to_record(self) -> dict[str, object]:
        return {
            "n": self.n,
            "beta": self.beta,
            "eps": self.epsilon,
            "side": self.side,
            "variant": self.variant,
            "K": self.k_value,
            "h": self.h_value,
            "constant": self.constant,
            "exponent": self.exponent,
            "value": self.value,
            "warnings": list(self.warnings),
        }


def _profile_at(model: DensityModel, side: str, variant: str) -> float:
    """Profile value entering the prediction for the requested side.

    Right tails localize along the positive diagonal ray, left tails along
    the negative one.  The weighted form integrates the z < 0 branch through
    the all-ones direction: the reflected model's right profile, exact for
    any model.  The published convention evaluates the unweighted profile
    at v = -1, which is its value at v = 1 only where flipping coordinates
    2..n leaves f unchanged, as for iid laws symmetric about 0.
    """
    ones = np.ones(model.n - 1)
    if side == "right":
        profile_variant = "weighted" if variant == "corrected" else "paper"
        return h_profile(model, RadialProfileQuery(ones, profile_variant))
    if variant == "corrected":
        return weighted_profile_mirror(model, ones)
    return h_profile(model, RadialProfileQuery(-ones, "paper"))


def predict_tail(
    model: DensityModel, query: TailQuery, variant: str = "corrected"
) -> Prediction:
    """Leading-order tail prediction K * h * epsilon**((n-1)/2).

    The paper variant pairs the published K with the unweighted profile; the
    corrected variant pairs the corrected K with the weighted profile.  A
    right-side profile that vanishes, underflows (below the normal doubles,
    where it has lost its precision) or overflows raises ArithmeticError; a
    vanishing left-side profile is a legitimate exact zero.  A
    value above 1, eps at or beyond `tail_window`, or a paper left tail of a
    model that is not iid and symmetric about 0 carries a warning.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    n = model.n
    kc = k_constant(n, query.beta, variant)
    warnings: list[str] = []
    if query.epsilon > 0.5:
        warnings.append("epsilon > 0.5: asymptotic regime questionable")

    sides = ("right", "left") if query.side == "two-sided" else (query.side,)
    h_total = 0.0
    for side in sides:
        h_side = _profile_at(model, side, variant)
        if side == "right" and not np.finfo(float).tiny <= h_side < math.inf:
            fault = "overflows" if h_side == math.inf else "vanishes or underflows"
            raise ArithmeticError(
                f"profile {fault} a double (it reads {float(h_side)!r}) "
                "at the all-ones direction; no constant-order prediction is formed"
            )
        h_total += h_side
    if query.side != "right" and variant == "paper" and not model.signs_split_at_median():
        warnings.append(
            "left-tail profile convention is exact only for iid models symmetric about 0"
        )
    exponent = 0.5 * (n - 1)
    constant = kc.value * h_total
    value = constant * query.epsilon**exponent
    window = tail_window(n, query.beta)
    if query.epsilon >= window:
        warnings.append(
            f"epsilon {query.epsilon:g} is outside the window (0, {window:.6g}) "
            "in which the tail region is a bounded neighborhood of the peak; "
            "the power law does not apply"
        )
    if value > 1.0:
        warnings.append(f"predicted probability {value:.6g} exceeds 1")
    return Prediction(
        n=n,
        beta=query.beta,
        epsilon=query.epsilon,
        side=query.side,
        variant=variant,
        k_value=kc.value,
        h_value=h_total,
        constant=constant,
        exponent=exponent,
        value=value,
        warnings=tuple(warnings),
    )


def predict_gamma_variant(query: GammaVariantQuery) -> Prediction:
    """Published prediction when the profile vanishes with local exponent gamma.

    Evaluates the printed display verbatim:
    2**(-(n-3)/2) * det_published**(-1/2) * pi**((n-1)/2) / Gamma((n-1)/2)
    * epsilon**((n+gamma-1)/2) / (n+gamma-1).
    The density model enters only through the assumed local behavior of its
    profile, gamma, so the query alone determines the prediction.
    At gamma = 0 the constant reduces algebraically to the published K.
    """
    n, gamma, eps = query.n, query.gamma, query.epsilon
    spec = AntiHessianSpec(n, 2.0)
    log_det = log_det_anti_hessian_published(spec)
    log_constant = (
        -0.5 * (n - 3) * math.log(2.0)
        - 0.5 * log_det
        + 0.5 * (n - 1) * math.log(math.pi)
        - math.lgamma(0.5 * (n - 1))
        - math.log(n + gamma - 1.0)
    )
    constant = math.exp(log_constant)
    exponent = 0.5 * (n + gamma - 1.0)
    return Prediction(
        n=n,
        beta=2.0,
        epsilon=eps,
        side="right",
        variant="paper",
        k_value=k_constant(n, 2.0, "paper").value,
        h_value=float("nan"),
        constant=constant,
        exponent=exponent,
        value=constant * eps**exponent,
        warnings=(),
    )


def log_growth_limit(beta: float) -> float:
    """Claimed limit of log_n K(n) / n as n grows."""
    return (1.0 - beta) / (2.0 * beta)


def log_growth_check(beta: float, n_values: list[int]) -> list[tuple[int, float]]:
    """Ratio sequence log_n K(n) / n for the published constant.

    Evaluated entirely in log domain, so arbitrarily large n is fine.  The
    ratio approaches (1-beta)/(2*beta), but only at a 1/log(n) rate: the
    deviation is (1 + log(pi) - log(beta-1)) / (2 log n) + O(1/n), still
    about 0.14 at n = 2000 for beta = 2.
    """
    if not beta > 1.0:
        raise ValueError(f"beta must be > 1, got {beta}")
    out: list[tuple[int, float]] = []
    for n in n_values:
        if n < 2:
            raise ValueError(f"n values must be >= 2, got {n}")
        log_k, _ = _log_k(n, beta, "paper")
        out.append((n, log_k / (n * math.log(n))))
    return out

