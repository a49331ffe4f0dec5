"""Benchmark of the sntail command line: time to a checked ledger or estimate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-n3-gauss --seed 1 --seconds 20 --trace 0

One process, one caller, one invocation at a time (a closed loop): the
workload's fixed argv goes to `sntail.cli.main` again and again until
`--seconds` have passed, at least once, and every output is checked.
`--seed` is passed through as the CLI's `--seed`.

With `--trace 0` the last line of stdout reports the end-to-end metrics
(wall_s, setup_s, peak_rss_mb).  With `--trace 1` an untraced warm-up call
is followed by alternating traced and untraced calls, and the last line
reports the per-layer metrics of `perfbench/tracing.py` plus the tracing
overhead.  Details (machine, every invocation's wall time and problems,
and with tracing every span) go to
`.bench_out/<workload>-seed<seed>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS  # noqa: E402


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric names and units by kind, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def machine() -> dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(argv: list[str]) -> list[float]:
    """Wall seconds for fresh interpreters to import sntail.cli and parse argv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = "import sys, sntail.cli; sntail.cli.parse_config(sys.argv[1:])"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, *argv], cwd=ROOT, env=env, check=True,
            timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def invoke(cli, argv: list[str]) -> tuple[float, int | None, str, str]:
    """One CLI call in this process: (wall seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    rc: int | None = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # a raise is a failed invocation, never a crash of the run
        err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "sntail" / "cli.py").is_file():
        print(f"error: no sntail sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    workload = WORKLOADS[args.workload]
    cli_argv = workload.command(args.seed)
    about = {"machine": machine(), "workload": workload.name, "argv": cli_argv,
             "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    setup = [] if args.trace else measure_setup(cli_argv)
    import sntail.cli as cli
    from tracing import Tracer, invocation_metrics, median_metrics

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: sntail imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    layer_metrics: list[dict[str, float]] = []
    invocations, first_stdout = [], None
    # A trace run starts with one untraced warm-up call, so that the
    # overhead ratio compares warm calls with warm calls.
    warmups = 0 if tracer is None else 1
    deadline = time.perf_counter() + args.seconds

    def wanted() -> bool:
        if time.perf_counter() < deadline:
            return True
        return not (walls[True] and walls[False]) if tracer else not invocations

    while wanted():
        index = len(invocations)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.invocation = index
            with tracer:
                wall, rc, stdout, stderr = invoke(cli, cli_argv)
        else:
            wall, rc, stdout, stderr = invoke(cli, cli_argv)
        if rc is None:
            problems = [f"raised: {stderr.strip().splitlines()[-1:]}"]
        else:
            problems = workload.check(stdout, stderr, rc, args.seed)
        if first_stdout is None:
            first_stdout = stdout
        elif stdout != first_stdout:
            problems.append("output differs from the run's first invocation")
        if index >= warmups:
            walls[traced].append(wall)
        if traced:
            spans = [s for s in tracer.spans if s.invocation == tracer.invocation]
            layer_metrics.append(invocation_metrics(
                spans, tracer.counters.get(tracer.invocation, {}), wall))
        invocations.append({"traced": traced, "wall_s": wall, "exit_code": rc,
                            "problems": problems})

    failed = sum(1 for inv in invocations if inv["problems"])
    if tracer is None:
        measured = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (measured[name], unit) for name, unit in declared["end_to_end"].items()}
    else:
        layer = median_metrics(layer_metrics)
        layer["trace.wall_s"] = statistics.median(walls[True])
        layer["trace.overhead"] = layer["trace.wall_s"] / statistics.median(walls[False])
        metrics = {name: (layer[name], unit) for name, unit in declared["per_layer"].items()}

    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        **about,
        "setup_s": setup,
        "invocations": invocations,
        "failed_frac": failed / len(invocations),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if tracer is not None:
        detail["missing_hooks"] = sorted(tracer.missing)
        detail["per_invocation"] = layer_metrics
        detail["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1))

    print(json.dumps({"machine": about["machine"], "samples": len(invocations),
                      "failed_frac": failed / len(invocations), "detail": str(path.relative_to(ROOT))}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
