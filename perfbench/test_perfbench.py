"""Tests of the benchmark itself: tracing, metric derivation and checks.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import HOOKS, Span, Tracer, invocation_metrics, self_times, union_length  # noqa: E402


def _target(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return getattr(owner, leaf)


def _traced(argv: list[str]):
    cli = importlib.import_module("sntail.cli")
    tracer = Tracer()
    with tracer:
        wall, rc, stdout, stderr = run.invoke(cli, argv)
    metrics = invocation_metrics(tracer.spans, tracer.counters.get(0, Counter()), wall)
    return tracer, metrics, rc, stdout


def test_every_hook_target_exists_and_is_restored():
    originals = {(m, a): _target(m, a) for m, a, _, _ in HOOKS}
    tracer = Tracer()
    tracer.install()
    assert not tracer.missing
    assert all(_target(m, a) is not originals[(m, a)] for m, a in originals)
    tracer.restore()
    assert all(_target(m, a) is originals[(m, a)] for m, a in originals)


def test_restored_after_a_raise():
    cli = importlib.import_module("sntail.cli")
    original = cli.run_verify
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert cli.run_verify is original


def test_tracing_leaves_output_unchanged_and_nests_worker_spans():
    argv = ["mc", "--n", "3", "--eps", "0.1", "--trials", "2e5", "--workers", "2",
            "--statistic", "max-over-Zk", "--seed", "7"]
    cli = importlib.import_module("sntail.cli")
    _, rc_plain, plain, _ = run.invoke(cli, argv)
    tracer, metrics, rc, traced = _traced(argv)
    assert rc == rc_plain == 0 and traced == plain
    chunks = math.ceil(2e5 / 65536)
    assert metrics["montecarlo.chunks"] == chunks
    (estimate,) = [s for s in tracer.spans if s.name == "montecarlo.estimate_tail"]
    stages = [s for s in tracer.spans if s.name == "montecarlo.uniforms"]
    assert len(stages) == chunks and all(s.parent == estimate.span_id for s in stages)
    assert 0.0 < metrics["montecarlo.worker_busy_frac"] <= 1.0
    assert metrics["oracles.region_calls"] == 0 and metrics["density.pdf_evals"] == 0


def test_region_counts_come_from_metadata_and_plans():
    argv = ["oracle", "--model", "iid-student-t:nu=5", "--n", "3", "--eps", "0.1"]
    tracer, metrics, rc, stdout = _traced(argv)
    assert rc == 0
    (region,) = [s for s in tracer.spans if s.name == "oracles.region_tail_integral"]
    batches = [s for s in tracer.spans if s.name == "density.profile_batch"]
    assert all(b.parent == region.span_id for b in batches)
    assert metrics["oracles.region_levels"] == len(batches) == region.attrs["levels"]
    (plan,) = [s for s in tracer.spans if s.name == "density.build_z_plan"]
    points = sum(b.attrs["points"] for b in batches)
    assert metrics["density.profile_points"] == points
    # The weighted integrand runs on the positive half of the plan only.
    assert batches[0].attrs["plan_nodes"] < plan.attrs["nodes"]
    assert metrics["density.pdf_evals"] == points * batches[0].attrs["plan_nodes"]
    levels = sum(metrics[f"oracles.region_level{k}_s"] for k in range(3))
    assert levels == pytest.approx(sum(b.duration for b in batches[:3]))


def test_union_and_self_time_with_parallel_children():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    spans = [
        Span(1, None, "parent", 0.0, 10.0, "main", 0),
        Span(2, 1, "child", 1.0, 5.0, "w1", 0),
        Span(3, 1, "child", 2.0, 6.0, "w2", 0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(4.0) and own[3] == pytest.approx(4.0)


def test_level_times_map_batches_in_order():
    spans = [
        Span(1, None, "oracles.region_tail_integral", 0.0, 10.0, "main", 0),
        Span(2, 1, "density.profile_batch", 1.0, 2.0, "main", 0),
        Span(3, 1, "density.profile_batch", 3.0, 6.0, "main", 0),
    ]
    metrics = invocation_metrics(spans, Counter(), 12.0)
    assert metrics["oracles.region_level0_s"] == pytest.approx(1.0)
    assert metrics["oracles.region_level1_s"] == pytest.approx(3.0)
    assert metrics["oracles.region_level2_s"] == 0.0
    assert metrics["oracles.region_self_s"] == pytest.approx(6.0)
    assert metrics["trace.untraced_s"] == pytest.approx(2.0)


def test_every_declared_per_layer_metric_is_derived():
    declared = run.declared_metrics()["per_layer"]
    derived = set(invocation_metrics([], Counter(), 1.0)) | {"trace.wall_s", "trace.overhead"}
    assert set(declared) <= derived


@pytest.fixture(scope="module")
def verify_n3_output():
    argv = workloads.WORKLOADS["verify-n3-gauss"].command(1)
    return run.invoke(importlib.import_module("sntail.cli"), argv)


def test_verify_check_accepts_the_ledger_and_rejects_tampering(verify_n3_output):
    check = workloads.WORKLOADS["verify-n3-gauss"].check
    _, rc, stdout, stderr = verify_n3_output
    assert check(stdout, stderr, rc, 1) == []
    assert check(stdout, stderr, rc, 2)  # seed not echoed
    assert check(stdout, stderr + "internal failure: x", rc, 1)
    payload = json.loads(stdout)
    for record in payload["records"]:
        if record["quantity"].startswith("sandwich"):
            record["status"] = "discrepant"
        if record["quantity"].startswith("det_anti_hessian"):
            record["ratio_paper_oracle"] = 1.0
    problems = check(json.dumps(payload), stderr, rc, 1)
    assert any("sandwich" in p for p in problems)
    assert any("det paper/oracle" in p for p in problems)
    payload["records"].pop()
    assert any("ledger rows" in p for p in check(json.dumps(payload), stderr, rc, 1))


def test_mc_check_uses_sigma_gate_and_recorded_hits():
    p = workloads.sphere_tail(3, 0.1)
    trials = 10_000_000
    hits = round(p * trials)
    record = {"n": 3, "eps": 0.1, "trials": trials, "statistic": "max-over-Zk",
              "warnings": [], "seed": 5, "hits": hits, "p_hat": hits / trials,
              "spec_hash": "abc"}
    args = (3, 0.1, trials, "max-over-Zk")
    assert workloads.check_mc(*args, json.dumps(record), "", 0, 5, recorded={}) == []
    assert workloads.check_mc(*args, json.dumps(record), "", 0, 5, recorded={"abc": hits + 1})
    far = dict(record, hits=hits + 4000, p_hat=(hits + 4000) / trials)  # 7.5 sigma
    assert workloads.check_mc(*args, json.dumps(far), "", 0, 5, recorded={})


def test_oracle_check_holds_region_value_to_the_sphere_law():
    exact = workloads.sphere_tail(4, 0.1)
    record = {"seed": 5, "n": 4, "beta": 2.0, "eps": 0.1,
              "method": "region-quadrature", "value": exact * (1 + 1e-9)}
    assert workloads.check_oracle(4, 0.1, json.dumps(record), "", 0, 5) == []
    off = dict(record, value=exact * (1 + 2e-5))
    assert workloads.check_oracle(4, 0.1, json.dumps(off), "", 0, 5)
    sphere = dict(record, method="sphere-exact")
    assert workloads.check_oracle(4, 0.1, json.dumps(sphere), "", 0, 5)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: on about 5% of seeds the iid-normal ledger's MC interval "
    "misses, LedgerEntry rejects the discrepant row without a paper value, "
    "and `sntail verify` exits 2; no workload runs this path until it is fixed"
))
def test_verify_iid_normal_survives_a_missed_mc_interval():
    argv = ["verify", "--n", "3", "--model", "iid-normal", "--trials", "1e6",
            "--workers", "1", "--seed", "3", "--format", "json"]
    _, rc, _, stderr = run.invoke(importlib.import_module("sntail.cli"), argv)
    assert rc == 0, stderr


def test_sphere_tail_matches_the_package_oracle():
    oracles = importlib.import_module("sntail.oracles")
    for n in (3, 4, 7):
        exact = oracles.sphere_tail_exact(n, math.sqrt(n) - 0.1).value
        assert workloads.sphere_tail(n, 0.1) == pytest.approx(exact, rel=1e-12)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-n3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
