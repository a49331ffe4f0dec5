"""Command-line front end: parse experiment specs, orchestrate, emit.

All seven commands take one flag set, before or after the command.  Each
config key is declared once, in `_KEYS`; its value comes from the flag,
else the `--config` file (flat key = value lines), else the environment
(workers only), else the `ExperimentConfig` default, and a bad value reads
the same from a flag or a file.  JSON or CSV output carries the tool
version, a config hash, and the seed, so any run can be replayed.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .asymptotics import (
    PREDICTION_FIELDS,
    SIDES,
    VARIANTS,
    TailQuery,
    k_constant,
    predict_tail,
)
from .analytic_core import (
    DET_FACTOR_LIMIT,
    AntiHessianSpec,
    exp_or_inf,
    log_det_anti_hessian,
    log_det_anti_hessian_factorized,
    log_det_anti_hessian_published,
)
from .bounds import envelope_bounds, curvature_functionals
from .density import DensityModel, DiscreteModel, QuadratureError, parse_model
from .ledger import LEDGER_FIELDS, run_verify
from .montecarlo import (
    MIN_EXPECTED_HITS,
    STATISTICS,
    SamplerSpec,
    StatisticSpec,
    estimate_tail,
)
from .oracles import (
    TailLaw,
    degenerate_component_check,
    rademacher_tail_exact,
    region_tail_integral,
    tail_law,
    tail_window,
)
from .oracles import sphere_tail_exact  # noqa: F401  (perfbench hooks cli.sphere_tail_exact)

__all__ = [
    "ExperimentConfig",
    "UsageError",
    "EmitError",
    "parse_config",
    "config_to_text",
    "config_hash",
    "emit",
    "main",
    "COMMANDS",
]

COMMANDS = {
    "constants": "print the determinant and K constants for one (n, beta)",
    "predict": "closed-form tail predictions on an epsilon grid",
    "bounds": "non-asymptotic envelope certificates",
    "oracle": "independent exact/quadrature tail values",
    "mc": "Monte Carlo tail estimate with a 95% confidence interval",
    "verify": "cross-check every published constant and emit the ledger",
    "counterexample": "demonstrate the two discrete boundary cases",
}


class UsageError(ValueError):
    """Invalid arguments or configuration; maps to exit code 2."""


class EmitError(OSError):
    """Output could not be written; maps to exit code 3."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated experiment specification."""

    command: str
    model: str = "iid-normal"
    n: int = 3
    beta: float = 2.0
    eps: tuple[float, ...] = (0.1,)
    side: str = "right"
    variant: str = "corrected"
    statistic: str = "sum"
    seed: int = 42
    trials: int = 1_000_000
    workers: int = 1
    format: str = "json"
    output: str | None = None


def parse_eps(text: str) -> tuple[float, ...]:
    """Parse the epsilon argument: scalar, comma list, or grid spec."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 4:
            raise UsageError(
                f"bad eps grid {text!r}: expected start:end:spacing:count"
            )
        try:
            start, end = float(parts[0]), float(parts[1])
            count = int(parts[3])
        except ValueError as exc:
            raise UsageError(f"bad eps grid {text!r}: {exc}") from None
        spacing = parts[2]
        if spacing not in ("geometric", "linear"):
            raise UsageError(
                f"bad eps grid spacing {spacing!r}: use geometric or linear"
            )
        if count < 2:
            raise UsageError("eps grid count must be >= 2")
        if start <= 0.0 or end <= 0.0:
            raise UsageError("eps grid endpoints must be positive")
        if spacing == "geometric":
            grid = np.geomspace(start, end, count)
        else:
            grid = np.linspace(start, end, count)
        return tuple(float(e) for e in grid)
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise UsageError(f"bad eps value {text!r}: {exc}") from None
    if not values:
        raise UsageError("eps must not be empty")
    return values


def _text(key: str, text: str) -> str:
    return text


def _integer(low: int, high: float = math.inf, bound: str | None = None):
    """Reader of an integer in [low, high); `bound` words the range."""

    def read(key: str, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise UsageError(f"{key} must be an integer, got {text!r}") from None
        if not low <= value < high:
            raise UsageError(f"{key} must {bound or f'be >= {low}'}")
        return value

    return read


def _choice(options: tuple[str, ...]):
    def read(key: str, text: str) -> str:
        if text not in options:
            raise UsageError(f"{key} must be one of {options}, got {text!r}")
        return text

    return read


def _beta(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{key} must be a number, got {text!r}") from None
    if not 1.0 < value < math.inf:
        raise UsageError(f"{key} must be finite and exceed 1, got {value:g}")
    return value


def _eps(key: str, text: str) -> tuple[float, ...]:
    values = parse_eps(text)
    if not all(0.0 < e < math.inf for e in values):
        raise UsageError(f"every {key} must be finite and positive")
    return values


def _statistic(key: str, text: str) -> str:
    lowered = text.strip().lower()
    for name in STATISTICS:
        if lowered == name.lower():
            return name
    raise UsageError(f"unknown {key} {text!r}; choose from {', '.join(STATISTICS)}")


def _trials(key: str, text: str) -> int:
    """Plain or scientific notation, as long as it is an exact integer."""
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"bad {key} value {text!r}") from None
    if not value.is_integer() or value < 1:
        raise UsageError(f"{key} must be a positive integer, got {text!r}")
    return int(value)


class _Key(NamedTuple):
    """A config key's reader, help text, writer and environment variable."""

    read: Callable[[str, str], object]
    help: str
    write: Callable[[object], str] = str
    env: str | None = None


# Every config key but command, in the order config_to_text writes them.
# A reader maps (key, text) to the value or raises UsageError; floats are
# written with repr, which round-trips exactly.
_KEYS = {
    "model": _Key(_text, "model spec, e.g. iid-normal, iid-student-t:nu=5, "
                  "gaussian:mean=0 0,cov=1 0.3 0.3 1, rademacher"),
    "n": _Key(_integer(2), "dimension (number of summands)"),
    "beta": _Key(_beta, "norm exponent, > 1", lambda beta: repr(float(beta))),
    "eps": _Key(
        _eps,
        "epsilon: a number, a comma list, or a grid start:end:spacing:count "
        "with spacing geometric or linear, e.g. 1e-2:1e-5:geometric:7",
        lambda eps: ",".join(repr(float(e)) for e in eps),
    ),
    "side": _Key(_choice(SIDES), "tail side: right, left, or two-sided"),
    "variant": _Key(_choice(VARIANTS), "formula variant: paper or corrected"),
    "statistic": _Key(_statistic, "sum, max-over-Zn, or max-over-Zk"),
    "seed": _Key(_integer(0, 2**64, "fit in 64 unsigned bits"), "64-bit RNG seed"),
    "trials": _Key(_trials, "trial count; scientific notation ok"),
    "workers": _Key(_integer(1), "worker threads (default from SNTAIL_WORKERS)",
                    env="SNTAIL_WORKERS"),
    "format": _Key(_choice(("json", "csv")), "output format: json or csv"),
    "output": _Key(_text, "output path (default stdout)"),
}


def _read_config_file(path: str) -> dict[str, str]:
    """Flat INI-style key = value lines; comments and blanks ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if "=" not in stripped:
            raise UsageError(
                f"{path}:{lineno}: expected key = value, got {stripped!r}"
            )
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def config_to_text(config: ExperimentConfig) -> str:
    """Serialize a config as the flat key = value format parse_config reads."""
    lines = [f"command = {config.command}"]
    for key, spec in _KEYS.items():
        value = getattr(config, key)
        if value is not None:
            lines.append(f"{key} = {spec.write(value)}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the experiment identity.

    Execution details are excluded: the destination path and the worker
    count change neither the numbers nor their meaning, so replaying the
    same experiment into a different file, or on a different machine with
    a different thread count, must reproduce the recorded hash (and hence
    the payload bytes).
    """
    ident = dataclasses.replace(config, output=None, workers=1)
    return hashlib.sha256(config_to_text(ident).encode()).hexdigest()[:16]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sntail",
        description=(
            "Closed-form tail asymptotics and verified bounds for "
            "self-normalized sums."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"sntail {__version__}"
    )
    listing = "; ".join(f"{name}: {text}" for name, text in COMMANDS.items())
    parser.add_argument("command", choices=COMMANDS, help=listing.replace("%", "%%"))
    parser.add_argument("--config", help="flat key = value config file")
    for key, spec in _KEYS.items():
        parser.add_argument(f"--{key}", help=spec.help)
    return parser


def parse_config(argv: list[str] | None = None) -> ExperimentConfig:
    """Parse flags and optional config file into a validated config.

    Precedence: flags > file values > environment > defaults.  All
    violations are reported together.
    """
    ns = _build_parser().parse_args(argv)
    file_values = {} if ns.config is None else _read_config_file(ns.config)
    file_command = file_values.pop("command", ns.command)
    unknown = [f"unknown config key {key!r}" for key in file_values if key not in _KEYS]
    if unknown:
        raise UsageError("; ".join(unknown))
    if file_command != ns.command:
        raise UsageError(
            f"config file says command = {file_command!r} but the "
            f"command line says {ns.command!r}"
        )
    env = {key: os.environ[spec.env] for key, spec in _KEYS.items()
           if spec.env and spec.env in os.environ}
    flags = {key: text for key, text in vars(ns).items() if key in _KEYS and text is not None}
    texts = {**env, **file_values, **flags}

    values: dict[str, object] = {}
    problems: list[str] = []
    for key, spec in _KEYS.items():
        if key in texts:
            try:
                values[key] = spec.read(key, texts[key])
            except UsageError as exc:
                problems.append(str(exc))
    config = ExperimentConfig(ns.command, **values)
    # the model is checked against n, so only against an n that was read
    if "n" in values or "n" not in texts:
        try:
            parse_model(config.model, config.n)
        except ValueError as exc:
            problems.append(f"bad model spec: {exc}")
    if problems:
        raise UsageError("; ".join(problems))
    return config


def _fmt_value(value: object) -> object:
    """12 significant digits for floats, null for an infinite one (JSON has
    no infinity; the record carries its log where it has one); everything
    else verbatim."""
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return None
    return float(f"{value:.12g}")


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return "; ".join(str(v) for v in value)
    return str(value)


def emit(
    records: list[dict[str, object]],
    fieldnames: tuple[str, ...],
    config: ExperimentConfig,
) -> None:
    """Write records as CSV or JSON to the configured destination.

    Both formats carry the tool version, the config hash, and the seed.
    CSV puts them in leading comment lines so the header row stays exactly
    the documented schema; JSON puts them at the top level.  A single
    record is emitted as one JSON object rather than a list.
    """
    meta = {
        "version": __version__,
        "config_hash": config_hash(config),
        "seed": config.seed,
    }
    if config.format == "csv":
        buffer = io.StringIO()
        for key, value in meta.items():
            buffer.write(f"# {key}={value}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fieldnames)
        for record in records:
            writer.writerow([_csv_cell(record.get(f)) for f in fieldnames])
        text = buffer.getvalue()
    else:
        def clean(record: dict[str, object]) -> dict[str, object]:
            return {k: _fmt_value(v) for k, v in record.items()}

        if len(records) == 1:
            payload: dict[str, object] = {**meta, **clean(records[0])}
        else:
            payload = {**meta, "records": [clean(r) for r in records]}
        text = json.dumps(payload, indent=2) + "\n"
    if config.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise EmitError(f"cannot write output to {config.output}: {exc}") from None


def _require_continuous(config: ExperimentConfig) -> DensityModel:
    model = parse_model(config.model, config.n)
    if isinstance(model, DiscreteModel):
        raise UsageError(
            f"command {config.command!r} needs a continuous density model, "
            f"got {model.kind!r}"
        )
    return model


def _run_constants(config: ExperimentConfig):
    """Each row's value and its log; a value that is not a finite double
    (the corrected K at beta = 1.5 from n = 697) reads null."""
    spec = AntiHessianSpec(config.n, config.beta)
    logs = [
        ("det_anti_hessian", "paper", 1.0, log_det_anti_hessian_published(spec)),
        ("det_anti_hessian", "corrected", 1.0, log_det_anti_hessian(spec)),
    ]
    if config.n - 1 <= DET_FACTOR_LIMIT:
        logs.append(
            ("det_anti_hessian", "numeric", *log_det_anti_hessian_factorized(spec))
        )
    for variant in VARIANTS:
        logs.append(
            ("k_constant", variant, 1.0, k_constant(config.n, config.beta, variant).log_value)
        )
    rows = []
    for quantity, variant, sign, log_value in logs:
        value = sign * exp_or_inf(log_value)
        rows.append(
            {"quantity": quantity, "variant": variant, "n": config.n,
             "beta": config.beta, "value": value if math.isfinite(value) else None,
             "log_value": log_value}
        )
    return rows, ("quantity", "variant", "n", "beta", "value", "log_value"), 0


def _run_predict(config: ExperimentConfig):
    model = _require_continuous(config)
    records = []
    for eps in config.eps:
        query = TailQuery(eps, config.beta, config.side)
        pred = predict_tail(model, query, config.variant)
        for warning in pred.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        records.append(pred.to_record())
    return records, PREDICTION_FIELDS, 0


def _run_bounds(config: ExperimentConfig):
    model = _require_continuous(config)
    if config.beta != 2.0:
        raise UsageError("bounds are defined for beta = 2")
    if not 2 <= config.n <= 4:
        raise UsageError(f"bounds needs 2 <= n <= 4, got n = {config.n}")
    lam, _ = curvature_functionals(config.n)
    for eps in config.eps:
        if not 0.0 < eps < lam:
            raise UsageError(
                f"eps must lie in (0, lambda) = (0, {lam:.6g}) for "
                f"bounds, got {eps:g}"
            )
    records = [envelope_bounds(model, eps).to_record() for eps in config.eps]
    fieldnames = ("n", "beta", "eps", "lambda", "mu", "H", "G", "lower", "upper")
    return records, fieldnames, 0


def _run_oracle(config: ExperimentConfig):
    model = parse_model(config.model, config.n)
    law = tail_law(model, config.beta)
    if isinstance(model, DiscreteModel):
        # both discrete oracles compute the beta = 2 statistic
        if config.beta != 2.0:
            raise UsageError(f"the {model.kind} oracle is defined for beta = 2")
        exact = rademacher_tail_exact if model.kind == "rademacher" else degenerate_component_check
        route = functools.partial(exact, config.n)
    elif law is not None and law.tail is not None:
        route = law.tail
    elif 2 <= config.n <= 4:
        route = functools.partial(region_tail_integral, model, beta=config.beta)
    else:
        raise UsageError("no oracle for this model above n = 4; use mc instead")
    records = []
    for eps in config.eps:
        result = route(eps)
        records.append(
            {"n": config.n, "beta": config.beta, "eps": eps,
             "model": config.model, "method": result.method,
             "value": result.value, "error_estimate": result.error_estimate}
        )
    fieldnames = ("n", "beta", "eps", "model", "method", "value", "error_estimate")
    return records, fieldnames, 0


def _predicted_tail_for_warning(
    config: ExperimentConfig, model: DensityModel | DiscreteModel, law: TailLaw | None, eps: float
) -> float | None:
    """Cheap prediction of the tail size, used only for the rare-event
    warning; `law` is `tail_law(model, config.beta)`."""
    n = config.n
    if isinstance(model, DiscreteModel):
        if model.kind == "rademacher":
            # Only the all-plus vector clears the threshold while eps is
            # below the gap to the statistic's next value on sign vectors,
            # one minus sign placed last: n - 2 in the sum, n - 1 in a prefix.
            gap = {"sum": 2.0 * n ** (-1.0 / config.beta),
                   "max-over-Zn": 1.0 / math.sqrt(n),
                   "max-over-Zk": math.sqrt(n) - math.sqrt(n - 1)}[config.statistic]
            return 2.0 ** (-n) if eps < gap else None
        # The exact reduction is the beta = 2 sum law, for n >= 3 and eps < 1.
        if config.beta == 2.0 and config.statistic == "sum" and n >= 3 and eps < 1.0:
            return degenerate_component_check(n, eps).value
        return None
    if law is not None and law.tail is not None:
        return law.tail(eps).value
    if eps < tail_window(n, config.beta):
        try:
            return predict_tail(model, TailQuery(eps, config.beta), "corrected").value
        except (ValueError, ArithmeticError, QuadratureError):
            return None
    return None


def _run_mc(config: ExperimentConfig):
    model = parse_model(config.model, config.n)
    sampler = SamplerSpec(model, config.seed, config.trials, config.workers)
    stat = StatisticSpec(config.beta, config.statistic)
    law = tail_law(model, config.beta)
    records = []
    for eps in config.eps:
        est = estimate_tail(sampler, stat, epsilon=eps)
        record = est.to_payload()
        record["model"] = config.model
        record["n"] = config.n
        record["eps"] = eps
        predicted = _predicted_tail_for_warning(config, model, law, eps)
        if predicted is not None and predicted * config.trials < MIN_EXPECTED_HITS:
            warning = (
                f"rare event: predicted probability {predicted:.3g} times "
                f"{config.trials} trials is below {MIN_EXPECTED_HITS} expected "
                "hits; increase eps or trials"
            )
            record["warnings"] = list(record["warnings"]) + [warning]
            print(f"warning: {warning}", file=sys.stderr)
        records.append(record)
    fieldnames = (
        "n", "eps", "hits", "trials", "p_hat", "ci_low", "ci_high", "seed",
        "threshold", "statistic", "beta", "model", "spec_hash", "warnings",
    )
    return records, fieldnames, 0


def _run_verify(config: ExperimentConfig):
    report = run_verify(
        model_text=config.model,
        n=config.n,
        beta=config.beta,
        eps=config.eps,
        seed=config.seed,
        trials=config.trials,
        workers=config.workers,
    )
    for failure in report.internal_failures:
        print(f"internal failure: {failure}", file=sys.stderr)
    return report.to_records(), LEDGER_FIELDS, report.exit_code


def _run_counterexample(config: ExperimentConfig):
    if len(config.eps) != 1:
        raise UsageError(
            f"counterexample takes exactly one eps value, got {len(config.eps)}"
        )
    if config.beta != 2.0:
        raise UsageError("counterexample is defined for beta = 2")
    n = config.n
    records = []
    code = 0

    eps_deg = min(config.eps[0], 0.9 * (math.sqrt(n) - math.sqrt(n - 1)))
    deg_oracle = degenerate_component_check(n, eps_deg) if n >= 3 else None
    if deg_oracle is not None:
        sampler = SamplerSpec(
            DiscreteModel(n, "degenerate-first-coordinate"), config.seed,
            config.trials, config.workers,
        )
        est = estimate_tail(sampler, StatisticSpec(2.0, "sum"), epsilon=eps_deg)
        # the tail is exactly 0, so any hit refutes it
        ok = est.hits == 0 and deg_oracle.value == 0.0
        code = 0 if ok else 1
        records.append(
            {"model": "degenerate-first-coordinate", "n": n, "eps": eps_deg,
             "mc_hits": est.hits, "mc_trials": est.trials,
             "oracle_value": deg_oracle.value,
             "status": "confirmed" if ok else "discrepant"}
        )

    n_rad = min(n, 20)
    eps_rad = min(config.eps[0], 0.4 / math.sqrt(n_rad))
    rad_oracle = rademacher_tail_exact(n_rad, eps_rad)
    sampler = SamplerSpec(
        DiscreteModel(n_rad, "rademacher"), config.seed, config.trials, config.workers
    )
    est = estimate_tail(sampler, StatisticSpec(2.0, "sum"), epsilon=eps_rad)
    # the 5 sigma gate of the ledger's MC row; below MIN_EXPECTED_HITS
    # expected hits agreement confirms nothing
    within, resolved, _ = est.judge(rad_oracle.value)
    if rad_oracle.value != 2.0 ** (-n_rad) or not within:
        status, code = "discrepant", 1
    else:
        status = "confirmed" if resolved else "untested"
    records.append(
        {"model": "rademacher", "n": n_rad, "eps": eps_rad,
         "mc_hits": est.hits, "mc_trials": est.trials,
         "oracle_value": rad_oracle.value, "status": status}
    )
    fieldnames = ("model", "n", "eps", "mc_hits", "mc_trials",
                  "oracle_value", "status")
    return records, fieldnames, code


_RUNNERS = {
    "constants": _run_constants,
    "predict": _run_predict,
    "bounds": _run_bounds,
    "oracle": _run_oracle,
    "mc": _run_mc,
    "verify": _run_verify,
    "counterexample": _run_counterexample,
}


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # only predict reads the side; every other command serves the right tail
        if config.side != "right" and config.command != "predict":
            raise UsageError(
                f"{config.command} handles the right tail only (--side right), "
                f"got --side {config.side}"
            )
        records, fieldnames, code = _RUNNERS[config.command](config)
    except ValueError as exc:  # UsageError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, LookupError) as exc:
        # QuadratureError, a non-converging continued fraction, a division
        # or overflow in floating point, and an index past an empty result
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    try:
        emit(records, fieldnames, config)
    except EmitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())
