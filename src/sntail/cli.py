"""Command-line front end: parse experiment specs, orchestrate, emit.

Every command reads one flat configuration (flags, an INI-style file, or
both, flags winning), runs the relevant modules, and emits JSON or CSV
with the tool version, a config hash, and the seed stamped on every
output so any run can be replayed.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields as dataclass_fields

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
    AntiHessianSpec,
    build_anti_hessian,
    det_anti_hessian,
    det_anti_hessian_published,
    det_numeric,
)
from .bounds import envelope_bounds, curvature_functionals
from .density import DISCRETE_MODELS, DensityModel, QuadratureError, parse_model
from .ledger import LEDGER_FIELDS, run_verify
from .montecarlo import (
    STATISTICS,
    SamplerSpec,
    StatisticSpec,
    estimate_tail,
)
from .oracles import (
    degenerate_component_check,
    rademacher_tail_exact,
    region_tail_integral,
    sphere_tail_exact,
    tail_window,
)

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

COMMANDS = (
    "constants",
    "predict",
    "bounds",
    "oracle",
    "mc",
    "verify",
    "counterexample",
)

_FORMATS = ("json", "csv")

_EPS_HELP = (
    "epsilon: a number, a comma list, or a grid start:end:spacing:count "
    "with spacing geometric or linear, e.g. 1e-2:1e-5:geometric:7"
)


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


_CONFIG_DEFAULTS = {
    f.name: f.default for f in dataclass_fields(ExperimentConfig) if f.name != "command"
}
_CONFIG_DEFAULTS["eps"] = (0.1,)


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


def _parse_trials(text: str) -> int:
    """Accept plain or scientific notation as long as it is an exact integer."""
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"bad trials value {text!r}") from None
    if not value.is_integer() or value < 1:
        raise UsageError(f"trials must be a positive integer, got {text!r}")
    return int(value)


def _normalize_statistic(text: str) -> str:
    lowered = text.strip().lower()
    for name in STATISTICS:
        if lowered == name.lower():
            return name
    raise UsageError(
        f"unknown statistic {text!r}; choose from {', '.join(STATISTICS)}"
    )


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
    """Serialize a config as the flat key = value format parse_config reads.

    Floats use repr, which round-trips exactly.
    """
    lines = [f"command = {config.command}"]
    for name in (
        "model", "n", "beta", "eps", "side", "variant", "statistic",
        "seed", "trials", "workers", "format", "output",
    ):
        value = getattr(config, name)
        if value is None:
            continue
        if name == "eps":
            value = ",".join(repr(float(e)) for e in value)
        elif name == "beta":
            value = repr(float(value))
        lines.append(f"{name} = {value}")
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
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "constants": "print the determinant and K constants for one (n, beta)",
        "predict": "closed-form tail predictions on an epsilon grid",
        "bounds": "non-asymptotic envelope certificates",
        "oracle": "independent exact/quadrature tail values",
        "mc": "Monte Carlo tail estimate with a 95%% confidence interval",
        "verify": "cross-check every published constant and emit the ledger",
        "counterexample": "demonstrate the two discrete boundary cases",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--model", help="model spec, e.g. iid-normal, "
                       "iid-student-t:nu=5, gaussian:mean=0 0,cov=1 0.3 0.3 1, "
                       "rademacher")
        p.add_argument("--n", type=int, help="dimension (number of summands)")
        p.add_argument("--beta", type=float, help="norm exponent, > 1")
        p.add_argument("--eps", help=_EPS_HELP)
        p.add_argument("--side", choices=SIDES, help="tail side")
        p.add_argument("--variant", choices=VARIANTS, help="formula variant")
        p.add_argument("--statistic", help="sum, max-over-Zn, or max-over-Zk")
        p.add_argument("--seed", type=int, help="64-bit RNG seed")
        p.add_argument("--trials", help="trial count; scientific notation ok")
        p.add_argument("--workers", type=int,
                       help="worker threads (default from SNTAIL_WORKERS)")
        p.add_argument("--format", choices=_FORMATS, help="output format")
        p.add_argument("--output", help="output path (default stdout)")
    return parser


def parse_config(argv: list[str] | None = None) -> ExperimentConfig:
    """Parse flags and optional config file into a validated config.

    Precedence: flags > file values > defaults.  All violations are
    reported together.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    command = ns.command

    values: dict[str, object] = dict(_CONFIG_DEFAULTS)
    values["workers"] = None

    file_values: dict[str, str] = {}
    if ns.config is not None:
        file_values = _read_config_file(ns.config)
    problems: list[str] = []
    known = set(_CONFIG_DEFAULTS) | {"command"}
    for key in file_values:
        if key not in known:
            problems.append(f"unknown config key {key!r}")
    if problems:
        raise UsageError("; ".join(problems))
    if "command" in file_values and file_values["command"] != command:
        raise UsageError(
            f"config file says command = {file_values['command']!r} but the "
            f"command line says {command!r}"
        )

    def pick(name: str) -> object:
        flag = getattr(ns, name, None)
        if flag is not None:
            return flag
        if name in file_values:
            return file_values[name]
        return values[name]

    raw = {name: pick(name) for name in _CONFIG_DEFAULTS}

    def as_int(name: str) -> int:
        value = raw[name]
        try:
            return int(value)
        except (TypeError, ValueError):
            problems.append(f"{name} must be an integer, got {value!r}")
            return 0

    n = as_int("n")
    seed = as_int("seed") if raw["seed"] is not None else 42
    workers_raw = raw["workers"]
    if workers_raw is None:
        workers_raw = os.environ.get("SNTAIL_WORKERS", "1")
    try:
        workers = int(workers_raw)
    except (TypeError, ValueError):
        problems.append(f"workers must be an integer, got {workers_raw!r}")
        workers = 1
    try:
        beta = float(raw["beta"])
    except (TypeError, ValueError):
        problems.append(f"beta must be a number, got {raw['beta']!r}")
        beta = 2.0
    try:
        eps = raw["eps"] if isinstance(raw["eps"], tuple) else parse_eps(str(raw["eps"]))
    except UsageError as exc:
        problems.append(str(exc))
        eps = (0.1,)
    try:
        trials = (
            raw["trials"] if isinstance(raw["trials"], int)
            else _parse_trials(str(raw["trials"]))
        )
    except UsageError as exc:
        problems.append(str(exc))
        trials = 1
    try:
        statistic = _normalize_statistic(str(raw["statistic"]))
    except UsageError as exc:
        problems.append(str(exc))
        statistic = "sum"

    model = str(raw["model"])
    side = str(raw["side"])
    variant = str(raw["variant"])
    fmt = str(raw["format"])
    output = raw["output"] if raw["output"] is None else str(raw["output"])

    if n < 2:
        problems.append("n must be >= 2")
    if not beta > 1.0:
        problems.append(f"beta must exceed 1, got {beta:g}")
    if any(e <= 0.0 for e in eps):
        problems.append("every eps must be positive")
    if side not in SIDES:
        problems.append(f"side must be one of {SIDES}, got {side!r}")
    if variant not in VARIANTS:
        problems.append(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not 0 <= seed < 2**64:
        problems.append("seed must fit in 64 unsigned bits")
    if trials < 1:
        problems.append("trials must be positive")
    if workers < 1:
        problems.append("workers must be >= 1")
    if fmt not in _FORMATS:
        problems.append(f"format must be one of {_FORMATS}, got {fmt!r}")
    if n >= 2:
        try:
            parse_model(model, n)
        except ValueError as exc:
            problems.append(f"bad model spec: {exc}")

    if problems:
        raise UsageError("; ".join(problems))
    return ExperimentConfig(
        command=command,
        model=model,
        n=n,
        beta=beta,
        eps=tuple(eps),
        side=side,
        variant=variant,
        statistic=statistic,
        seed=seed,
        trials=trials,
        workers=workers,
        format=fmt,
        output=output,
    )


def _fmt_value(value: object) -> object:
    """12 significant digits for floats; everything else verbatim."""
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    if math.isnan(value):
        return "nan"
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
    if isinstance(model, str):
        raise UsageError(
            f"command {config.command!r} needs a continuous density model, "
            f"got {model!r}"
        )
    return model


def _run_constants(config: ExperimentConfig):
    spec = AntiHessianSpec(config.n, config.beta)
    det_pub = det_anti_hessian_published(spec)
    det_corr = det_anti_hessian(spec)
    rows = [
        {"quantity": "det_anti_hessian", "variant": "paper",
         "n": config.n, "beta": config.beta, "value": det_pub},
        {"quantity": "det_anti_hessian", "variant": "corrected",
         "n": config.n, "beta": config.beta, "value": det_corr},
    ]
    if config.n - 1 <= 64:
        rows.append(
            {"quantity": "det_anti_hessian", "variant": "numeric",
             "n": config.n, "beta": config.beta,
             "value": det_numeric(build_anti_hessian(spec))}
        )
    for variant in VARIANTS:
        rows.append(
            {"quantity": "k_constant", "variant": variant,
             "n": config.n, "beta": config.beta,
             "value": k_constant(config.n, config.beta, variant).value}
        )
    return rows, ("quantity", "variant", "n", "beta", "value"), 0


def _run_predict(config: ExperimentConfig):
    model = _require_continuous(config)
    records = []
    for eps in config.eps:
        query = TailQuery(config.n, eps, config.beta, config.side)
        pred = predict_tail(model, query, config.variant)
        for warning in pred.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        records.append(pred.to_record())
    return records, PREDICTION_FIELDS, 0


def _run_bounds(config: ExperimentConfig):
    model = _require_continuous(config)
    if config.beta != 2.0:
        raise UsageError("bounds are defined for beta = 2")
    lam, mu = curvature_functionals(config.n, 2.0)
    records = []
    for eps in config.eps:
        if not 0.0 < eps < lam:
            raise UsageError(
                f"eps must lie in (0, lambda) = (0, {lam:.6g}) for bounds, "
                f"got {eps:g}"
            )
        cert = envelope_bounds(model, config.n, eps, lam=lam, mu=mu)
        records.append(cert.to_record())
    fieldnames = ("n", "beta", "eps", "lambda", "mu", "H", "G",
                  "lower", "upper", "certified")
    return records, fieldnames, 0


def _run_oracle(config: ExperimentConfig):
    model = parse_model(config.model, config.n)
    records = []
    for eps in config.eps:
        if isinstance(model, str):
            if model == "rademacher":
                result = rademacher_tail_exact(config.n, eps)
            else:
                result = degenerate_component_check(config.n, eps)
        elif model.kind == "iid-normal" and config.beta == 2.0:
            result = sphere_tail_exact(config.n, math.sqrt(config.n) - eps)
        elif 2 <= config.n <= 4:
            result = region_tail_integral(
                model, config.n, eps, config.beta, "weighted"
            )
        else:
            raise UsageError(
                "no oracle for this model above n = 4; use mc instead"
            )
        records.append(
            {"n": config.n, "beta": config.beta, "eps": eps,
             "model": config.model, "method": result.method,
             "value": result.value, "error_estimate": result.error_estimate}
        )
    fieldnames = ("n", "beta", "eps", "model", "method", "value", "error_estimate")
    return records, fieldnames, 0


def _predicted_tail_for_warning(config: ExperimentConfig, eps: float) -> float | None:
    """Cheap prediction of the tail size, used only for the rare-event warning."""
    model = parse_model(config.model, config.n)
    if isinstance(model, str):
        if model == "rademacher":
            return 2.0 ** (-config.n) if eps < 0.5 / math.sqrt(config.n) else None
        return degenerate_component_check(config.n, eps).value
    if model.kind == "iid-normal" and config.beta == 2.0:
        return sphere_tail_exact(config.n, math.sqrt(config.n) - eps).value
    if eps < tail_window(config.n, config.beta):
        try:
            return predict_tail(
                model, TailQuery(config.n, eps, config.beta), "corrected"
            ).value
        except (ValueError, QuadratureError):
            return None
    return None


def _run_mc(config: ExperimentConfig):
    model = parse_model(config.model, config.n)
    sampler = SamplerSpec(
        model, config.n, config.seed, config.trials, config.workers
    )
    stat = StatisticSpec(config.beta, config.statistic)
    records = []
    for eps in config.eps:
        est = estimate_tail(sampler, stat, epsilon=eps)
        record = est.to_payload()
        record["n"] = config.n
        record["eps"] = eps
        predicted = _predicted_tail_for_warning(config, eps)
        if predicted is not None and predicted * config.trials < 50.0:
            warning = (
                f"rare event: predicted probability {predicted:.3g} times "
                f"{config.trials} trials is below 50 expected hits; increase "
                "eps or trials"
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
    n = config.n
    records = []
    code = 0

    eps_deg = min(config.eps[0], 0.9 * (math.sqrt(n) - math.sqrt(n - 1)))
    deg_oracle = degenerate_component_check(n, eps_deg) if n >= 3 else None
    if deg_oracle is not None:
        sampler = SamplerSpec(
            "degenerate-first-coordinate", n, config.seed, config.trials,
            config.workers,
        )
        est = estimate_tail(sampler, StatisticSpec(2.0, "sum"), epsilon=eps_deg)
        ok = est.hits == 0 and deg_oracle.value == 0.0
        code = code or (0 if ok else 1)
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
        "rademacher", n_rad, config.seed, config.trials, config.workers
    )
    est = estimate_tail(sampler, StatisticSpec(2.0, "sum"), epsilon=eps_rad)
    ok = rad_oracle.value == 2.0 ** (-n_rad) and est.covers(rad_oracle.value)
    code = code or (0 if ok else 1)
    records.append(
        {"model": "rademacher", "n": n_rad, "eps": eps_rad,
         "mc_hits": est.hits, "mc_trials": est.trials,
         "oracle_value": rad_oracle.value,
         "status": "confirmed" if ok else "discrepant"}
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
        records, fieldnames, code = _RUNNERS[config.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # QuadratureError and a non-converging continued fraction alike
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
