"""Verification ledger: published formulas against independent oracles.

Every row compares an as-published value, its corrected counterpart, and
an oracle computed by an independent route.  Two kinds of disagreement
are kept strictly apart: a published value contradicting the oracle is a
*finding* (status "discrepant", reported, never fatal), while our own
routes contradicting each other is an *internal failure* (the pipeline
cannot be trusted; the verify command exits nonzero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic_core import (
    DET_FACTOR_LIMIT,
    AntiHessianSpec,
    anti_hessian_entries,
    anti_hessian_entries_hyperdual,
    exp_or_inf,
    log_det_anti_hessian,
    log_det_anti_hessian_factorized,
    log_det_anti_hessian_published,
)
from .asymptotics import TailQuery, k_constant, log_growth_check, log_growth_limit, predict_tail
from .bounds import validate_sandwich
from .density import DensityModel, QuadratureError, parse_model
from .montecarlo import MIN_EXPECTED_HITS, MIN_TRIALS, SamplerSpec, StatisticSpec, estimate_tail
from .oracles import (
    TailLaw,
    degenerate_component_check,
    rademacher_tail_exact,
    region_tail_integral,
    tail_law,
)
from .oracles import leading_coeff_fit  # noqa: F401  (perfbench hooks ledger.leading_coeff_fit)
from .oracles import sphere_tail_exact  # noqa: F401  (perfbench hooks ledger.sphere_tail_exact)

__all__ = ["LedgerEntry", "VerifyReport", "run_verify", "LEDGER_FIELDS"]

LEDGER_FIELDS = (
    "quantity",
    "paper_value",
    "corrected_value",
    "oracle_value",
    "ratio_paper_oracle",
    "ratio_corrected_oracle",
    "status",
    "note",
)

_STATUSES = ("confirmed", "discrepant", "untested")

# The one eps at which the tail-constant row reads q / eps^((n-1)/2) off
# the region oracle: off c0 by kappa_1 eps0 (at most 2e-8 on a smooth law)
# or a sqrt(eps0) kink term (5.1e-5 on the folded normal).  The oracle's
# boundary-rounding floor grows as 1/eps0: 3.3e-7 here, 1e-5 at 1e-10.
EPS0 = 1e-8


@dataclass(frozen=True)
class LedgerEntry:
    """One verified quantity.  Missing slots serialize as empty strings."""

    quantity: str
    paper_value: float | None
    corrected_value: float | None
    oracle_value: float | None
    status: str
    note: str = ""

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")
        if self.status == "discrepant" and (
            self.paper_value is None or self.corrected_value is None
        ):
            raise ValueError("a discrepant entry must carry both values")

    @property
    def ratio_paper_oracle(self) -> float | None:
        if self.paper_value is None or not self.oracle_value:
            return None
        return self.paper_value / self.oracle_value

    @property
    def ratio_corrected_oracle(self) -> float | None:
        if self.corrected_value is None or not self.oracle_value:
            return None
        return self.corrected_value / self.oracle_value

    def to_record(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in LEDGER_FIELDS}


@dataclass(frozen=True)
class VerifyReport:
    """All ledger rows plus any internal cross-check failures."""

    entries: tuple[LedgerEntry, ...]
    internal_failures: tuple[str, ...] = field(default=())

    @property
    def exit_code(self) -> int:
        return 1 if self.internal_failures else 0

    def to_records(self) -> list[dict[str, object]]:
        return [e.to_record() for e in self.entries]


def _status(paper: float, oracle: float, rel: float = 1e-6) -> str:
    if oracle == 0.0:
        return "confirmed" if paper == 0.0 else "discrepant"
    return "confirmed" if abs(paper / oracle - 1.0) <= rel else "discrepant"


def _untested(quantity: str, note: str) -> LedgerEntry:
    return LedgerEntry(quantity, None, None, None, "untested", note)


def _finding(
    quantity: str, paper: float, corrected: float, oracle: float, rel: float,
    note: str, failure: str, failures: list[str],
) -> LedgerEntry:
    """A published value judged against an independent oracle: the paper
    value off the oracle is a finding ("discrepant"), while the corrected
    value off it by the same gate is an internal failure."""
    if _status(corrected, oracle, rel) != "confirmed":
        failures.append(failure)
    return LedgerEntry(quantity, paper, corrected, oracle, _status(paper, oracle, rel), note)


def _own_check(
    quantity: str, paper: float | None, value: float, oracle: float, within: bool,
    note: str, failure: str, failures: list[str], resolved: bool = True,
) -> LedgerEntry:
    """The package's own routes against each other: a failed gate reads
    "untested" and is an internal failure; an estimate that cannot resolve
    the oracle reads "untested" without one."""
    if not within:
        failures.append(failure)
    status = "confirmed" if within and resolved else "untested"
    return LedgerEntry(quantity, paper, value, oracle, status, note)


def _determinant_row(spec: AntiHessianSpec, failures: list[str]) -> LedgerEntry:
    """Determinant of the anti-Hessian: the closed eigenvalue product is the
    canonical value, a pivoted LU factorization of the dense matrix
    (`np.linalg.slogdet`) is the independent oracle, and the published
    closed form is on trial.  Routes are compared in log space, so the row
    holds where the determinant underflows; above order DET_FACTOR_LIMIT
    no factorization is run and the row reads "untested"."""
    n = spec.n
    log_pub, log_corr = log_det_anti_hessian_published(spec), log_det_anti_hessian(spec)
    note = "published closed form vs eigenvalue product vs pivoted factorization"
    if n - 1 > DET_FACTOR_LIMIT:
        oracle, status = None, "untested"
        note = (
            f"no independent oracle: order {n - 1} exceeds the dense "
            f"factorization limit {DET_FACTOR_LIMIT}"
        )
    else:
        sign, log_orc = log_det_anti_hessian_factorized(spec)
        if not (sign > 0.0 and abs(log_orc - log_corr) <= 1e-8):
            failures.append(
                f"determinant routes disagree: log eigen {log_corr:.12g} vs "
                f"log pivoted {log_orc:.12g} (sign {sign:g})"
            )
        oracle = float(sign * math.exp(log_orc))
        agree = abs(log_pub - log_orc) <= 1e-6
        status = "confirmed" if agree else "discrepant"
    return LedgerEntry(
        quantity=f"det_anti_hessian(n={n}, beta={spec.beta:g})",
        paper_value=float(np.exp(log_pub)),
        corrected_value=float(np.exp(log_corr)),
        oracle_value=oracle,
        status=status,
        note=note,
    )


def run_verify(
    model_text: str = "iid-normal",
    n: int = 3,
    beta: float = 2.0,
    eps: tuple[float, ...] = (0.1,),
    seed: int = 42,
    trials: int = 10**6,
    workers: int = 1,
) -> VerifyReport:
    """Build the verification ledger for one (model, n, beta) setting.

    `oracles.tail_law` alone decides the model's exact law: the tail
    constant is judged against its c0, and the cross-oracle and Monte Carlo
    rows run where it has an exact tail.  Region-integral rows (the
    sandwich, the cross-oracle row, and the tail constant of a model with
    no law, read at EPS0) need 2 <= n <= 4.  A published value is judged by
    `_finding`, and our routes against each other by `_own_check` (see the
    module docstring).  `eps` must hold exactly one value.
    """
    if len(eps) != 1:
        raise ValueError(f"verify takes exactly one eps value, got {len(eps)}")
    entries: list[LedgerEntry] = []
    failures: list[str] = []
    model = parse_model(model_text, n)
    continuous = isinstance(model, DensityModel)
    epsilon = float(eps[0])
    # The Monte Carlo row's trial floor is checked before any row is built.
    law = tail_law(model, beta)
    exact_tail = law.tail if law is not None else None
    if exact_tail is not None and trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")

    spec = AntiHessianSpec(n, beta)
    entries.append(_determinant_row(spec, failures))

    # Anti-Hessian entries: the published entry formulas are correct, and the
    # oracle is the hyper-dual Hessian of g, exact to rounding at every n.
    diag, off = anti_hessian_entries(spec)
    hd_diag, hd_off = anti_hessian_entries_hyperdual(spec)
    checks = [("diag", "diagonal", diag, hd_diag)]
    if hd_off is not None:
        checks.append(("off", "off-diagonal", off, hd_off))
    for tag, name, closed, hd_value in checks:
        entries.append(_own_check(
            f"anti_hessian_{tag}(n={n}, beta={beta:g})", closed, closed, hd_value,
            _status(closed, hd_value, 1e-12) == "confirmed",
            "published entry formula (correct as printed) vs hyper-dual Hessian of g",
            f"anti-Hessian {name}: closed {closed:.12g} vs hyper-dual {hd_value:.12g}",
            failures,
        ))

    # K constant: paper vs corrected differ by construction; adjudication
    # happens through the tail-constant row below.  Where the ratio is not
    # normal (n >= 1018 at beta = 2) the note logs it, to 15 digits, and
    # where a K overflows (corrected, beta = 1.5, n >= 697) the note logs
    # that K, whose value prints as null.
    k_paper, k_corr = k_constant(n, beta, "paper"), k_constant(n, beta, "corrected")
    ratio = k_paper.value / k_corr.value if k_corr.value else 0.0
    ratio_text = f"paper/corrected = {ratio:.12g}"
    if not np.finfo(float).tiny <= ratio < math.inf:
        ratio_text = f"log(paper/corrected) = {k_paper.log_value - k_corr.log_value:.15g}"
    for k in (k_paper, k_corr):
        if math.isinf(k.value):
            ratio_text += f"; log({k.variant}) = {k.log_value:.15g}"
    entries.append(
        LedgerEntry(
            quantity=f"k_constant(n={n}, beta={beta:g})",
            paper_value=k_paper.value,
            corrected_value=k_corr.value,
            oracle_value=None,
            status="discrepant",
            note=f"{ratio_text}; adjudicated by the tail-constant row",
        )
    )

    if continuous and beta == 2.0:
        entries.append(_tail_constant_row(model, law, epsilon, failures))

    # Cross-oracle consistency: two independent integration routes.
    if exact_tail is not None and 2 <= n <= 4:
        exact_val = exact_tail(epsilon).value
        region_val = region_tail_integral(model, epsilon, 2.0, "weighted").value
        entries.append(_own_check(
            f"cross_oracle(n={n}, eps={epsilon:g})", None, region_val, exact_val,
            abs(region_val / exact_val - 1.0) <= 1e-5,
            f"region quadrature vs exact {law.name} (internal consistency)",
            f"region vs {law.name} oracle mismatch at eps={epsilon:g}: "
            f"{region_val:.12g} vs {exact_val:.12g}",
            failures,
        ))

    # Sandwich: non-asymptotic envelope brackets the region integral.
    if continuous and beta == 2.0 and 2 <= n <= 4:
        from .bounds import curvature_functionals

        lam, _ = curvature_functionals(n)
        eps_sw = min(epsilon, 0.5 * lam)
        quantity = f"sandwich(n={n}, eps={eps_sw:g})"
        try:
            report = validate_sandwich(model, eps_sw)
        except QuadratureError as exc:
            entries.append(_untested(quantity, f"region quadrature budget exhausted: {exc}"))
        else:
            if not report.holds:
                failures.append(
                    f"sandwich violated at eps={eps_sw:g}: "
                    f"{report.lower:.12g} !<= {report.integral:.12g} !<= {report.upper:.12g}"
                )
            if not report.region_contained:
                failures.append(
                    f"localized region escapes its curvature ball at eps={eps_sw:g}"
                )
            entries.append(
                LedgerEntry(
                    quantity=quantity,
                    paper_value=report.lower,
                    corrected_value=report.upper,
                    oracle_value=report.integral,
                    status="confirmed" if report.holds else "discrepant",
                    note="lower/upper envelope in the paper/corrected slots, region integral as oracle",
                )
            )

    # Monte Carlo vs the exact law's tail (5 sigma internal gate).
    if exact_tail is not None:
        est = estimate_tail(
            SamplerSpec(model, seed, trials, workers), StatisticSpec(2.0, "sum"),
            epsilon=epsilon,
        )
        p_exact = exact_tail(epsilon).value
        within, resolved, gate = est.judge(p_exact)
        note = f"{gate}; 95% CI [{est.ci_low:.6g}, {est.ci_high:.6g}], seed={seed}"
        if not resolved:
            note += (
                f"; {p_exact * trials:.3g} expected hits, below the {MIN_EXPECTED_HITS} "
                "an estimate needs to resolve the tail"
            )
        entries.append(_own_check(
            f"mc_tail(n={n}, eps={epsilon:g}, trials={trials})", None, est.p_hat, p_exact,
            within, note,
            f"MC estimate {est.p_hat:.12g} is outside the 5 sigma gate around "
            f"the exact tail {p_exact:.12g} ({gate}; eps={epsilon:g}, seed={seed})",
            failures, resolved,
        ))

    # Discrete counterexamples, at beta = 2 only, the statistic both oracles
    # compute: flat Rademacher tail and the degenerate first coordinate.
    if beta == 2.0:
        n_rad = min(n, 12)
        eps_rad = 0.4 / math.sqrt(n_rad)
        rad = rademacher_tail_exact(n_rad, eps_rad)
        rad_formula = 2.0 ** (-n_rad)
        entries.append(_finding(
            f"rademacher_tail(n={n_rad}, eps={eps_rad:.6g})", rad_formula, rad_formula,
            rad.value, 0.0,
            "flat tail in the window: exact enumeration over all sign patterns",
            f"rademacher enumeration {rad.value:.12g} differs from 2^-n = {rad_formula:.12g}",
            failures,
        ))
    if beta == 2.0 and n >= 3:
        eps_deg = 0.5 * (math.sqrt(n) - math.sqrt(n - 1))
        deg = degenerate_component_check(n, eps_deg)
        entries.append(_finding(
            f"degenerate_tail(n={n}, eps={eps_deg:.6g})", 0.0, 0.0, deg.value, 0.0,
            "one deterministic zero coordinate pins the tail at exactly zero",
            f"degenerate-coordinate oracle returned {deg.value:.12g}, expected exactly 0",
            failures,
        ))

    entries.append(_log_growth_entry(beta))
    return VerifyReport(entries=tuple(entries), internal_failures=tuple(failures))


def _tail_constant_row(
    model: DensityModel, law: TailLaw | None, epsilon: float, failures: list[str]
) -> LedgerEntry:
    """Tail constant (beta = 2) against the exact oracle's small-eps limit:
    where `oracles.tail_law` gives the model a law (a centred normal, at
    any n), that law's c0, note and name, met to 1e-9; else, for
    2 <= n <= 4, the region oracle's q / eps0^a at the one small
    eps0 = EPS0, met to 5e-3.  A limit that is not a normal double, a
    region oracle of 0.0 or out of budget, or a failed prediction reads
    "untested"."""
    n = model.n
    quantity = f"tail_constant(n={n})"
    if law is not None:
        log_c0 = law.log_c0
        oracle, rel = exp_or_inf(log_c0), 1e-9
        if not np.finfo(float).tiny <= oracle < math.inf:
            # an equicorrelated gaussian's c0 grows with n: 0.7 I + 0.3 11^T
            # overflows from about n = 490
            side = "overflows" if log_c0 > 0.0 else "underflows"
            return _untested(quantity, f"the {law.name}'s limit c0 {side} a double at this n")
        note = law.note
    elif 2 <= n <= 4:
        # 1e-6 is plenty under the 0.5% gate, and every model settles at
        # level 1 there; the folded normal's kinked profile would take
        # n = 4 to level 3 for 1e-8.
        try:
            region = region_tail_integral(model, EPS0, 2.0, "weighted", rel_target=1e-6)
        except QuadratureError as exc:
            return _untested(quantity, f"oracle quadrature budget exhausted: {exc}")
        if region.value == 0.0:
            return _untested(quantity, (
                f"region oracle is 0.0 at eps0 = {EPS0:g}: the weighted integrand "
                "underflows to 0.0 at every node"
            ))
        a = 0.5 * (n - 1)
        oracle, rel = region.value / EPS0**a, 5e-3
        meta = region.metadata
        note = (
            f"region oracle q / eps0^{a:g} at eps0 = {EPS0:g}: refinement level "
            f"{meta['refinement_level']}, {meta['nodes']} nodes profiled, relative "
            f"error estimate {region.error_estimate / region.value:.1e}"
        )
    else:
        return _untested(quantity, "no exact oracle for this model at this dimension")
    try:
        paper = predict_tail(model, TailQuery(epsilon), "paper").constant
        corrected = predict_tail(model, TailQuery(epsilon), "corrected").constant
    except (QuadratureError, ArithmeticError) as exc:
        # a profile whose quadrature fails, or whose closed form underflows
        # (the iid normal's leaves the normal doubles from n = 498)
        return _untested(quantity, f"prediction failed: {exc}")
    return _finding(
        quantity, paper, corrected, oracle, rel, note,
        f"corrected tail constant disagrees with the oracle: {corrected:.12g} vs {oracle:.12g}",
        failures,
    )


def _log_growth_entry(beta: float) -> LedgerEntry:
    """Log-growth limit of K: correct as a limit, approached at O(1/log n).

    Stirling on the printed K gives log_n K(n) / n = limit
    + c_beta / (2 log n) + O(1/n) with c_beta = 1 + log(pi) - log(beta - 1),
    so the reading at n = 1e19 is judged against that expansion, which it
    resolves at any beta, not against the bare limit.
    """
    far_n = int(1e19)
    limit = log_growth_limit(beta)
    far = log_growth_check(beta, [far_n])[0][1]
    near = log_growth_check(beta, [2000])[0][1]
    c_beta = 1.0 + math.log(math.pi) - math.log(beta - 1.0)
    expansion = limit + c_beta / (2.0 * math.log(far_n))
    return LedgerEntry(
        quantity=f"log_growth_limit(beta={beta:g})",
        paper_value=limit,
        corrected_value=limit,
        oracle_value=far,
        status=_status(expansion, far),
        note=(
            f"limit approached at O(1/log n): value {near:.6g} at n=2000 vs "
            f"{far:.6g} at n=1e19"
        ),
    )
