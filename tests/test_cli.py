"""Command-line parsing, emission formats, and exit code contract."""

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sntail.cli as cli
import sntail.ledger
import sntail.oracles
from sntail.cli import (
    ExperimentConfig,
    UsageError,
    config_hash,
    config_to_text,
    main,
    parse_config,
    parse_eps,
)
from sntail.density import MAGNITUDE_CELLS, DensityModel, parse_model
from sntail.montecarlo import (
    SamplerSpec,
    StatisticSpec,
    _estimate,
    _row_cut,
    estimate_tail,
    statistic_batch,
)

SAMPLE_CONFIGS = [
    ExperimentConfig(command="predict"),
    ExperimentConfig(
        command="mc",
        model="iid-student-t:nu=5",
        n=4,
        beta=3.0,
        eps=(0.1, 0.03162277660168379, 0.05),
        side="left",
        variant="paper",
        statistic="max-over-Zk",
        seed=987654321,
        trials=250_000,
        workers=4,
        format="csv",
    ),
    ExperimentConfig(
        command="verify", model="gaussian:cov=1 0.3 0.3 1", n=2, eps=(0.01,)
    ),
]


def test_config_round_trip(tmp_path):
    for config in SAMPLE_CONFIGS:
        path = tmp_path / "replay.ini"
        path.write_text(config_to_text(config), encoding="utf-8")
        back = parse_config([config.command, "--config", str(path)])
        assert back == config
        assert config_hash(back) == config_hash(config)


def test_config_hash_ignores_execution_details():
    # worker count and destination never change the numbers, so they must
    # not change the experiment identity either; seed does
    base = SAMPLE_CONFIGS[1]
    rethreaded = dataclasses.replace(base, workers=9, output="/tmp/x.json")
    assert config_hash(rethreaded) == config_hash(base)
    assert config_hash(dataclasses.replace(base, seed=1)) != config_hash(base)


def test_flags_override_file(tmp_path):
    path = tmp_path / "base.ini"
    path.write_text(config_to_text(SAMPLE_CONFIGS[1]), encoding="utf-8")
    cfg = parse_config(["mc", "--config", str(path), "--seed", "7", "--eps", "0.2"])
    assert cfg.seed == 7
    assert cfg.eps == (0.2,)
    assert cfg.trials == 250_000


def test_parse_eps_forms():
    assert parse_eps("0.1") == (0.1,)
    assert parse_eps("0.1,0.05, 0.01") == (0.1, 0.05, 0.01)
    grid = parse_eps("1e-2:1e-5:geometric:7")
    assert len(grid) == 7
    assert grid[0] == pytest.approx(1e-2)
    assert grid[-1] == pytest.approx(1e-5)
    ratios = [a / b for a, b in zip(grid, grid[1:])]
    assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)
    lin = parse_eps("0.1:0.5:linear:5")
    assert lin == pytest.approx((0.1, 0.2, 0.3, 0.4, 0.5))
    for bad in ("1e-2:1e-5:geometric", "1e-2:1e-5:log:7", "a,b", "", "0:1:linear:4"):
        with pytest.raises(UsageError):
            parse_eps(bad)


def test_usage_violations_are_aggregated(capsys):
    code = main(["mc", "--n", "1", "--beta", "0.5", "--workers", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "n must be >= 2" in err
    assert "beta" in err
    assert "workers" in err


def test_spec_example_defaults():
    cfg = parse_config(
        ["predict", "--n", "3", "--eps", "0.1", "--variant", "corrected",
         "--model", "iid-normal"]
    )
    assert cfg.side == "right"
    assert cfg.beta == 2.0
    cfg = parse_config(
        ["mc", "--n", "3", "--eps", "0.3", "--trials", "1e7", "--seed", "42",
         "--workers", "8"]
    )
    assert cfg.trials == 10_000_000
    assert cfg.workers == 8


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("command = predict\nbogus = 1\n", encoding="utf-8")
    with pytest.raises(UsageError, match="bogus"):
        parse_config(["predict", "--config", str(path)])


def test_config_command_mismatch(tmp_path):
    path = tmp_path / "other.ini"
    path.write_text("command = verify\n", encoding="utf-8")
    with pytest.raises(UsageError, match="command"):
        parse_config(["predict", "--config", str(path)])


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("SNTAIL_WORKERS", "6")
    assert parse_config(["mc"]).workers == 6
    assert parse_config(["mc", "--workers", "2"]).workers == 2
    monkeypatch.delenv("SNTAIL_WORKERS")
    assert parse_config(["mc"]).workers == 1


def test_predict_csv_schema(capsys):
    code = main(["predict", "--n", "3", "--eps", "0.1,0.2", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# version=") for l in meta)
    assert any(l.startswith("# config_hash=") for l in meta)
    assert any(l.startswith("# seed=") for l in meta)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "n,beta,eps,side,variant,K,h,constant,exponent,value"
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    assert len(rows) == 2
    assert float(rows[0]["value"]) == pytest.approx(0.1 / (2.0 * 3.0**0.5), rel=1e-9)


def test_mc_json_schema(capsys):
    code = main(["mc", "--n", "3", "--eps", "0.3", "--trials", "2000",
                 "--seed", "5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("hits", "trials", "p_hat", "ci_low", "ci_high", "seed",
                "version", "config_hash"):
        assert key in payload
    assert payload["seed"] == 5
    assert payload["trials"] == 2000


def test_mc_rejects_sides_it_does_not_estimate(capsys):
    for side in ("left", "two-sided"):
        assert main(["mc", "--n", "3", "--eps", "0.1", "--trials", "1e5",
                     "--seed", "1", "--side", side]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "right tail only (--side right)" in captured.err


def test_oracle_rejects_sides_it_does_not_compute(capsys):
    for side in ("left", "two-sided"):
        assert main(["oracle", "--n", "3", "--eps", "0.1", "--model", "iid-normal:mu=0.3",
                     "--side", side]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "right tail only (--side right)" in captured.err


def test_every_command_but_predict_rejects_a_side_other_than_right(capsys):
    for argv in (["bounds", "--n", "3", "--eps", "0.01", "--side", "left"],
                 ["verify", "--n", "2", "--side", "left"],
                 ["counterexample", "--n", "3", "--side", "left"],
                 ["constants", "--n", "3", "--side", "two-sided"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "right tail only (--side right)" in captured.err


def test_counterexample_rejects_beta_other_than_2(capsys):
    assert main(["counterexample", "--n", "3", "--beta", "3", "--trials", "1e4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "counterexample is defined for beta = 2" in captured.err


def test_discrete_mc_hits_and_digests_are_pinned(capsys):
    # both discrete laws read stream 1; the digest holds on any worker count
    for argv, hits, digest in (
        (["--n", "3", "--model", "rademacher", "--eps", "0.2"], 12539, "6269b6fb0fd9d522"),
        (["--n", "4", "--model", "degenerate-first-coordinate", "--eps", "0.5",
          "--workers", "2"], 6738, "261dcc936606a972"),
    ):
        assert main(["mc", "--trials", "1e5", "--seed", "1", *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["hits"], payload["spec_hash"]) == (hits, digest)


@pytest.mark.parametrize("argv, cut", [
    (["--n", "3", "--eps", "0.1", "--statistic", "max-over-Zk", "--trials", "1e6"], 1),
    (["--n", "9", "--eps", "0.6", "--trials", "1e6"], 4),
    (["--n", "64", "--eps", "1.95", "--trials", "1e6"], 28),
    # stdtrit runs on the kept rows only
    (["--n", "4", "--model", "iid-student-t:nu=5", "--eps", "0.2", "--trials", "1e6"], 1),
    (["--n", "3", "--model", "rademacher", "--eps", "0.2", "--trials", "1e5"], None),
    (["--n", "4", "--model", "degenerate-first-coordinate", "--eps", "0.5",
      "--trials", "1e5"], None),
], ids=["n3-cut1", "n9-cut4", "n64-cut28", "student-t-n4", "rademacher", "degenerate"])
def test_mc_output_is_byte_identical_on_one_and_two_workers(argv, cut, capsys):
    # three workers too: the cell screen at cut 1 walks every third chunk
    argv = ["mc", "--seed", "1", "--format", "json", *argv]
    config = parse_config(argv)
    sampler = SamplerSpec(parse_model(config.model, config.n), 1, config.trials, 1)
    threshold = math.sqrt(config.n) - config.eps[0]
    assert _row_cut(sampler, StatisticSpec(2.0, config.statistic), threshold) == cut
    outputs = []
    for workers in ("1", "2", "3"):
        assert main([*argv, "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_small_mc_runs_build_no_cell_table(monkeypatch, capsys):
    # below MAGNITUDE_CELLS + 1 expected kept magnitudes the screen's table
    # would cost more inverse CDFs than it saves; 1e5 trials build it once
    edges = 0.5 + np.arange(MAGNITUDE_CELLS + 1) / (2 * MAGNITUDE_CELLS)
    draw = DensityModel.draw_from_uniforms
    tables = []

    def spy(self, u):
        flat = np.asarray(u).ravel()
        tables.append(flat.size >= edges.size and np.array_equal(flat[: edges.size], edges))
        return draw(self, u)

    monkeypatch.setattr(DensityModel, "draw_from_uniforms", spy)
    for argv, built in (
        (["--trials", "1000"], 0),
        (["--model", "iid-student-t:nu=5", "--trials", "1e4"], 0),
        (["--trials", "1e5"], 1),
        (["--model", "iid-student-t:nu=5", "--trials", "1e5"], 1),
    ):
        tables.clear()
        assert main(["mc", "--seed", "1", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["hits"] > 0
        assert tables and sum(tables) == built, argv


def test_mc_max_variant_at_beta_3_thresholds_below_sqrt_n(capsys):
    # the max statistics ignore beta, so --beta 3 reads the --beta 2 hits
    payloads = []
    for beta in ("3", "2"):
        assert main(["mc", "--n", "4", "--beta", beta, "--statistic",
                     "max-over-Zk", "--eps", "0.1", "--seed", "1"]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    assert payloads[0]["threshold"] == 2.0 - 0.1
    assert payloads[0]["hits"] == payloads[1]["hits"] > 0


def test_ledger_csv_has_status_column(capsys):
    code = main(["verify", "--n", "2", "--trials", "20000", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    header = next(l for l in out.splitlines() if not l.startswith("#"))
    assert "status" in header.split(",")
    assert "discrepant" in out
    assert "confirmed" in out


def test_replay_is_bit_identical(tmp_path):
    args = ["mc", "--n", "3", "--eps", "0.3", "--trials", "50000",
            "--seed", "42", "--workers", "4"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_zero_on_success(capsys):
    assert main(["constants", "--n", "3"]) == 0
    capsys.readouterr()


def test_exit_code_one_on_computation_failure(capsys):
    # z**(n-1) overflows where the n = 300 weighted profile is scanned (a
    # centred normal reads its profile in closed form and scans nothing)
    code = main(["predict", "--n", "300", "--eps", "1e-3", "--model", "iid-student-t:nu=5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "computation failed" in err and "Traceback" not in err


def test_support_edge_commands_succeed(capsys):
    # the folded normal's profiles are read in closed form from each ray's
    # support edge, so both commands run with no plan to check there
    assert main(["oracle", "--model", "iid-folded-normal", "--n", "2"]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert oracle["value"] == pytest.approx(0.941482218014, rel=1e-10)
    assert main(["bounds", "--model", "iid-folded-normal", "--n", "3",
                 "--eps", "0.01"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert 0.0 < cert["lower"] < cert["upper"]


def test_folded_normal_region_settles_within_the_node_budget(monkeypatch, capsys):
    # the profile is kinked along v_i = 1 and v_i = v_j, so the angles need
    # far more nodes than the radius; refining them alone settles the
    # value inside the 1536 x 831 dim-2 budget, and 1e7 Monte Carlo trials
    # agree with it within 5 sigma
    profiled = []
    original = sntail.oracles.profile_batch

    def counting(model, vs, variant, plan):
        profiled.append(len(vs))
        return original(model, vs, variant, plan)

    monkeypatch.setattr(sntail.oracles, "profile_batch", counting)
    assert main(["oracle", "--model", "iid-folded-normal", "--n", "3", "--eps", "0.1"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert sum(profiled) < 1536 * 831
    sampler = SamplerSpec(DensityModel.iid_folded_normal(3), seed=1, trials=10**7, workers=2)
    within, resolved, gate = estimate_tail(sampler, StatisticSpec(2.0, "sum"), 0.1).judge(value)
    assert within and resolved, gate


def test_folded_normal_predicts_at_n_200(capsys):
    # the closed-form weighted profile forms no z^(n-1) on a scanned range,
    # which overflowed here; 36868.40127831016 is a 50-digit quadrature
    assert main(["predict", "--n", "200", "--eps", "1e-3", "--model", "iid-folded-normal"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h"] == pytest.approx(36868.40127831016, rel=1e-10, abs=0.0)


def test_exit_code_one_on_runtime_error(monkeypatch, capsys):
    # a non-converging continued fraction raises a bare RuntimeError
    def stalled(config):
        raise RuntimeError("continued fraction did not converge")

    monkeypatch.setitem(cli._RUNNERS, "constants", stalled)
    assert main(["constants", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert "computation failed: continued fraction did not converge" in err
    assert "Traceback" not in err


def test_exit_code_one_on_arithmetic_error(monkeypatch, capsys):
    # a structured determinant ratio that underflows to 0 divides by zero
    def underflowed(config):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setitem(cli._RUNNERS, "verify", underflowed)
    assert main(["verify", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert "computation failed: float division by zero" in err
    assert "Traceback" not in err


def test_exit_code_one_on_lookup_error(monkeypatch, capsys):
    def empty_result(config):
        raise IndexError("index 0 is out of bounds for axis 0 with size 0")

    monkeypatch.setitem(cli._RUNNERS, "predict", empty_result)
    assert main(["predict", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert "computation failed: index 0 is out of bounds" in err
    assert "Traceback" not in err


def test_exit_code_two_on_usage_error(capsys):
    assert main(["predict", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert "n must be >= 2" in err
    assert main(["predict", "--model", "rademacher", "--n", "3"]) == 2
    capsys.readouterr()
    assert main(["bounds", "--n", "3", "--eps", "0.05"]) == 2
    capsys.readouterr()
    for n in ("5", "6"):
        assert main(["bounds", "--n", n, "--eps", "0.005"]) == 2
        captured = capsys.readouterr()
        assert f"bounds needs 2 <= n <= 4, got n = {n}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def test_bounds_at_another_beta_is_a_usage_error(capsys):
    assert main(["bounds", "--n", "3", "--beta", "3", "--eps", "0.01"]) == 2
    captured = capsys.readouterr()
    assert "bounds are defined for beta = 2" in captured.err and captured.out == ""


def test_argparse_exits_become_return_codes(capsys):
    # --version and an unknown command end argparse with SystemExit
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("sntail ")
    assert main(["bogus"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_exit_code_three_on_io_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.json"
    code = main(["predict", "--n", "3", "--output", str(target)])
    assert code == 3
    assert str(target) in capsys.readouterr().err


def test_counterexample_command(capsys):
    code = main(["counterexample", "--n", "3", "--trials", "20000"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    statuses = {rec["model"]: rec["status"] for rec in payload["records"]}
    assert statuses["rademacher"] == "confirmed"
    assert statuses["degenerate-first-coordinate"] == "confirmed"


@pytest.mark.parametrize("seed", [19, 24, 25])
def test_counterexample_judges_rademacher_by_the_5_sigma_gate(seed, capsys):
    # the 95% interval misses the exact 1/8 at these seeds, at z = +2.26,
    # +3.39 and +2.24; the 5 sigma gate of the ledger's MC row holds
    assert main(["counterexample", "--n", "3", "--seed", str(seed)]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    statuses = {rec["model"]: rec["status"] for rec in records}
    assert statuses["rademacher"] == "confirmed"


def test_counterexample_reads_discrepant_outside_the_5_sigma_gate(capsys, monkeypatch):
    true_estimate = cli.estimate_tail

    def shifted(sampler, stat, epsilon):
        est = true_estimate(sampler, stat, epsilon=epsilon)
        if sampler.model.kind != "rademacher":
            return est
        sigma = math.sqrt(0.125 * 0.875 / sampler.trials)
        hits = round((0.125 + 6.0 * sigma) * sampler.trials)
        return _estimate(sampler, stat, est.threshold, hits)

    monkeypatch.setattr(cli, "estimate_tail", shifted)
    assert main(["counterexample", "--n", "3", "--trials", "20000"]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    statuses = {rec["model"]: rec["status"] for rec in records}
    assert statuses == {"degenerate-first-coordinate": "confirmed", "rademacher": "discrepant"}


def test_counterexample_below_fifty_expected_hits_is_untested(capsys):
    # 2^-20 in 1e6 trials expects 0.95 hits: no count can confirm the tail
    assert main(["counterexample", "--n", "20", "--seed", "1"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    rademacher = next(rec for rec in records if rec["model"] == "rademacher")
    assert rademacher["oracle_value"] * rademacher["mc_trials"] < 1.0
    assert rademacher["status"] == "untested"


def test_rare_event_warning(capsys):
    code = main(["mc", "--n", "3", "--eps", "0.02", "--trials", "1000",
                 "--seed", "11"])
    assert code == 0
    captured = capsys.readouterr()
    assert "rare event" in captured.err
    payload = json.loads(captured.out)
    assert any("rare event" in w for w in payload["warnings"])


def test_rare_event_warning_for_the_degenerate_model_beyond_its_window(capsys):
    # the exact reduction predicts 0.0418 at eps = 0.33 (42 expected hits in
    # 1000 trials, below 50) and 0.163 at eps = 0.5
    argv = ["mc", "--model", "degenerate-first-coordinate", "--n", "3", "--trials", "1000",
            "--seed", "1", "--eps"]
    assert main(argv + ["0.33"]) == 0
    assert "rare event: predicted probability 0.0418 times 1000" in capsys.readouterr().err
    assert main(argv + ["0.5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["warnings"] == []


def test_no_rare_event_warning_beyond_the_window_without_an_exact_law(capsys):
    # student-t has no exact law, and at eps = 0.5, past the n = 3 window
    # 0.318, there is no prediction either: mc warns of nothing
    argv = ["mc", "--model", "iid-student-t:nu=5", "--n", "3", "--trials", "1000",
            "--seed", "1", "--eps", "0.5"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["warnings"] == []
    config = ExperimentConfig(command="mc", model="iid-student-t:nu=5", n=3)
    model = parse_model(config.model, 3)
    assert cli.tail_law(model, 2.0) is None
    assert cli._predicted_tail_for_warning(config, model, None, 0.5) is None
    assert cli._predicted_tail_for_warning(config, model, None, 0.01) > 0.0


def test_rare_event_warning_reads_the_degenerate_law_at_beta_2_with_sum_only(capsys):
    # the beta = 2 sum law's 0.0418 at eps = 0.33 is no prediction for
    # another beta or statistic, so neither warns
    argv = ["mc", "--model", "degenerate-first-coordinate", "--n", "3", "--trials", "1000",
            "--seed", "1", "--eps"]
    assert main(argv + ["0.33"]) == 0
    assert "predicted probability 0.0418 times 1000" in capsys.readouterr().err
    for extra in (["--beta", "3"], ["--statistic", "max-over-Zk"]):
        assert main(argv + ["0.33"] + extra) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["warnings"] == []
    # nor is there a law to read at n = 2 or from eps = 1: mc still runs
    assert main(argv + ["1.2"]) == 0
    assert main(["mc", "--model", "degenerate-first-coordinate", "--n", "2",
                 "--trials", "1000", "--eps", "0.1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n, beta, statistic, gap", [
    (30, 1.1, "sum", 2.0 * 30 ** (-1.0 / 1.1)),  # 0.0908, below 0.5 / sqrt(30)
    (5, 1.1, "sum", 2.0 * 5 ** (-1.0 / 1.1)),
    (3, 2.0, "sum", 2.0 / math.sqrt(3.0)),
    (4, 3.0, "max-over-Zn", 0.5),
    (4, 3.0, "max-over-Zk", 2.0 - math.sqrt(3.0)),
])
def test_rademacher_warning_predicts_2_to_the_minus_n_below_the_gap_only(
    n, beta, statistic, gap
):
    config = ExperimentConfig(command="mc", model="rademacher", n=n, beta=beta,
                              statistic=statistic)
    model = parse_model(config.model, n)
    law = cli.tail_law(model, beta)
    below, above = 0.999 * gap, 1.001 * gap
    assert cli._predicted_tail_for_warning(config, model, law, below) == 2.0 ** -n
    assert cli._predicted_tail_for_warning(config, model, law, above) is None
    if n < 10:
        # by enumeration: the all-plus vector alone clears the threshold
        # below the gap, and more vectors do above it
        values = statistic_batch(np.array(list(itertools.product((-1.0, 1.0), repeat=n))),
                                 StatisticSpec(beta, statistic))
        cap = n ** (1.0 - 1.0 / beta) if statistic == "sum" else math.sqrt(n)
        assert np.count_nonzero(values > cap - below) == 1
        assert np.count_nonzero(values > cap - above) > 1


def test_rare_event_warning_for_a_shifted_normal_comes_from_the_prediction(capsys):
    # the sphere law, 0.0289, would expect 289 hits in 1e4 trials; the
    # prediction for the normal shifted to -2 expects 0.019
    code = main(["mc", "--n", "3", "--eps", "0.1", "--trials", "1e4",
                 "--model", "iid-normal:mu=-2", "--seed", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert "predicted probability 1.87e-06" in captured.err
    payload = json.loads(captured.out)
    assert payload["model"] == "iid-normal:mu=-2"


@pytest.mark.parametrize("n", [115, 200])
@pytest.mark.parametrize("mu", ["0.3", "-0.3"])
def test_predict_reaches_shifted_normals_past_n_100(n, mu, capsys):
    # their profiles are closed-form moments, not a scan of z^(n-1) f,
    # which overflowed from n = 115
    for side in ("right", "two-sided"):
        assert main(["predict", "--n", str(n), "--eps", "1e-3", "--side", side,
                     "--model", f"iid-normal:mu={mu}"]) == 0
        record = json.loads(capsys.readouterr().out)
        # eps^99.5 underflows the value at n = 200, not the profile
        assert 0.0 < record["h"] < math.inf and 0.0 < record["constant"] < math.inf


def test_a_vanishing_profile_is_a_computation_result(capsys):
    # the arguments are valid, so the degenerate prediction exits 1, and
    # the mc warning that asks for it goes without one
    model = "gaussian:cov=1 0 0 1,mean=-40 -40"
    assert main(["predict", "--n", "2", "--model", model]) == 1
    captured = capsys.readouterr()
    assert "computation failed: profile vanishes" in captured.err
    assert main(["mc", "--n", "2", "--model", model, "--trials", "1000"]) == 0
    assert "rare event" not in capsys.readouterr().err


def test_the_left_tail_warning_prints_once_for_the_paper_convention_only(capsys):
    cov = "1 0.3 0.3 0.3 1 0.3 0.3 0.3 1"
    assert main(["predict", "--n", "3", "--side", "two-sided", "--model",
                 f"gaussian:mean=0.2 -0.1 0.1,cov={cov}"]) == 0
    assert "left-tail" not in capsys.readouterr().err
    assert main(["predict", "--n", "3", "--side", "left", "--variant", "paper",
                 "--model", f"gaussian:cov={cov}"]) == 0
    assert capsys.readouterr().err.count("left-tail") == 1
    assert main(["oracle", "--n", "3", "--side", "left"]) == 2
    assert "right tail only (--side right)" in capsys.readouterr().err


def test_predict_warns_out_of_regime(capsys):
    # eps = 0.5 is past the n = 3 window sqrt(3) - sqrt(2), and the power law
    # then predicts a "probability" of 7.81
    code = main(["predict", "--model", "iid-folded-normal", "--n", "3",
                 "--eps", "0.5"])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["value"] > 1.0
    assert any("outside the window" in w for w in payload["warnings"])
    assert any("exceeds 1" in w for w in payload["warnings"])
    assert "warning: epsilon 0.5 is outside the window" in captured.err
    assert main(["predict", "--n", "3", "--eps", "0.1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["warnings"] == [] and captured.err == ""


def test_verify_rejects_extra_epsilons(capsys):
    assert main(["verify", "--n", "2", "--eps", "0.1,0.05"]) == 2
    captured = capsys.readouterr()
    assert "exactly one eps value, got 2" in captured.err
    assert captured.out == ""


def test_counterexample_rejects_extra_epsilons(capsys):
    assert main(["counterexample", "--n", "3", "--eps", "0.1,0.05"]) == 2
    captured = capsys.readouterr()
    assert "counterexample takes exactly one eps value, got 2" in captured.err
    assert captured.out == ""


def test_oracle_routes(capsys):
    assert main(["oracle", "--model", "rademacher", "--n", "3",
                 "--eps", "0.2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 0.125
    assert main(["oracle", "--model", "degenerate-first-coordinate",
                 "--n", "3", "--eps", "0.15"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 0.0
    assert main(["oracle", "--n", "5", "--beta", "3", "--eps", "0.1"]) == 2
    capsys.readouterr()
    # a shifted normal is no sphere law: region quadrature up to n = 4
    assert main(["oracle", "--n", "3", "--eps", "0.1",
                 "--model", "iid-normal:mu=0.3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "region-quadrature"
    assert payload["value"] == pytest.approx(0.0599843286966, rel=1e-8)
    assert main(["oracle", "--n", "5", "--eps", "0.1",
                 "--model", "iid-normal:mu=0.3"]) == 2
    capsys.readouterr()
    assert main(["oracle", "--n", "3", "--eps", "0.1",
                 "--model", "iid-normal:sigma=2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "sphere-exact"
    assert payload["value"] == pytest.approx(0.0288675134595, rel=1e-10)


@pytest.mark.parametrize("model, n, beta, eps", [
    ("degenerate-first-coordinate", 3, 3.0, 0.6),
    ("rademacher", 20, 1.01, 0.11),
])
def test_discrete_oracle_refuses_a_beta_other_than_2(capsys, model, n, beta, eps):
    # both exact discrete oracles compute the beta = 2 statistic
    assert main(["oracle", "--model", model, "--n", str(n), "--beta", str(beta),
                 "--eps", str(eps)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the {model} oracle is defined for beta = 2" in captured.err


def test_only_reading_the_quadratic_form_constant_runs_eigh(capsys, monkeypatch):
    # the oracle and the sampler never read the law's c0, and the ledger
    # reads it once
    real = np.linalg.eigh
    calls = []

    class EighCalled(Exception):
        pass

    def refuse(*args, **kwargs):
        raise EighCalled

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    identity = " ".join("1" if i == j else "0" for i in range(4) for j in range(4))
    assert main(["oracle", "--n", "4", "--model", f"gaussian:cov={identity}",
                 "--eps", "0.1"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "region-quadrature"
    centred = "gaussian:cov=1 0.3 0.3 0.3 1 0.3 0.3 0.3 1"
    assert main(["mc", "--n", "3", "--model", centred, "--eps", "0.1",
                 "--trials", "1e4"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(np.linalg, "eigh", counting)
    assert main(["verify", "--n", "3", "--model", centred]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    row = next(r for r in records if r["quantity"] == "tail_constant(n=3)")
    assert row["status"] == "discrepant" and "quadratic-form law" in row["note"]
    assert len(calls) == 1


def test_twelve_digit_output(capsys):
    assert main(["constants", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    corrected = next(
        r for r in payload["records"]
        if r["quantity"] == "k_constant" and r["variant"] == "corrected"
    )
    assert corrected["value"] == pytest.approx(2.0**2.25, rel=1e-11)
    assert len(str(corrected["value"]).replace(".", "").lstrip("0")) <= 12


def test_verify_rare_mc_count_is_judged_by_the_exact_binomial_tail(capsys, monkeypatch):
    # 1000 trials at n = 8 expect 0.0132 hits and one hit is a 1.3% event:
    # z = +8.6 under the normal approximation, yet the exact binomial tail
    # is far above the 5 sigma level, so nothing failed
    def one_hit(sampler, stat, epsilon):
        return _estimate(sampler, stat, math.sqrt(sampler.model.n) - epsilon, 1)

    monkeypatch.setattr(sntail.ledger, "estimate_tail", one_hit)
    assert main(["verify", "--n", "8", "--trials", "1000", "--seed", "79"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    row = next(r for r in records if r["quantity"].startswith("mc_tail"))
    assert row["status"] == "untested"
    assert row["corrected_value"] == 0.001
    assert "exact binomial p = 0.0263" in row["note"]


def test_verify_checks_the_trial_floor_before_any_row(capsys, monkeypatch):
    built = []
    true_row = sntail.ledger._determinant_row

    def recorded(spec, failures):
        built.append(spec.n)
        return true_row(spec, failures)

    monkeypatch.setattr(sntail.ledger, "_determinant_row", recorded)
    assert main(["verify", "--n", "2000", "--trials", "100"]) == 2
    assert "need at least 1000 trials, got 100" in capsys.readouterr().err
    assert built == []
    # a ledger without a Monte Carlo row takes any trial count
    assert main(["verify", "--n", "5", "--model", "iid-student-t:nu=5",
                 "--trials", "100"]) == 0
    capsys.readouterr()
    assert built == [5]


def test_constants_numeric_row_past_order_64(capsys):
    # one dense factorization, capped at order DET_FACTOR_LIMIT, serves
    # this row as it serves the ledger's determinant row
    assert main(["constants", "--n", "100"]) == 0
    rows = {r["variant"]: r["value"] for r in json.loads(capsys.readouterr().out)["records"]
            if r["quantity"] == "det_anti_hessian"}
    assert rows["numeric"] == pytest.approx(rows["corrected"], rel=1e-8)
    assert main(["constants", "--n", "1026"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert "numeric" not in {r["variant"] for r in records}


def test_constants_give_a_log_where_the_value_overflows(capsys):
    # the corrected K overflows a double at beta = 1.5 from n = 697
    assert main(["constants", "--n", "1000", "--beta", "1.5", "--format", "json"]) == 0
    rows = {(r["quantity"], r["variant"]): r
            for r in json.loads(capsys.readouterr().out)["records"]}
    corrected = rows[("k_constant", "corrected")]
    assert corrected["value"] is None
    assert math.isfinite(corrected["log_value"]) and corrected["log_value"] > 709.0
    assert 0.0 < rows[("k_constant", "paper")]["value"] < math.inf


def test_verify_json_stays_valid_where_k_overflows(capsys):
    # the ledger's corrected K overflows too; JSON has no Infinity, so the
    # row reads null and its note keeps the log
    argv = ["verify", "--n", "1000", "--beta", "1.5", "--trials", "1000", "--format", "json"]
    assert main(argv) == 0

    def reject(name):
        raise ValueError(f"invalid JSON constant {name}")

    records = json.loads(capsys.readouterr().out, parse_constant=reject)["records"]
    k_row = next(r for r in records if r["quantity"].startswith("k_constant"))
    assert k_row["corrected_value"] is None and k_row["status"] == "discrepant"
    assert 0.0 < k_row["paper_value"] < math.inf
    log_k = float(k_row["note"].split("log(corrected) = ")[1].split(";")[0])
    assert log_k > 709.0


@pytest.mark.parametrize("n, beta", [
    (66, 2.0), (100, 2.0), (400, 2.0), (1000, 2.0), (2000, 2.0),
    (100, 1.5), (1000, 1.5), (100, 3.0), (1000, 3.0),
])
def test_verify_exits_0_across_the_dimension_sweep(capsys, n, beta):
    # every route of the ledger holds at these n: no internal failure, and
    # no traceback
    argv = ["verify", "--n", str(n), "--beta", str(beta), "--trials", "1000", "--seed", "1"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal failure" not in err


_SCIPY_PROBE = """
import contextlib, io, json, sys

import sntail.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


sntail.cli.parse_config(["verify", "--n", "3"])
report = {"import": scipy_modules()}
gauss = "gaussian:cov=" + " ".join("1" if i == j else "0" for i in range(4) for j in range(4))
for name, argv in (
    ("verify", ["verify", "--n", "3", "--model", "iid-student-t:nu=5", "--seed", "1"]),
    ("oracle", ["oracle", "--n", "4", "--model", gauss, "--eps", "0.1"]),
    ("mc", ["mc", "--n", "3", "--eps", "0.1", "--trials", "1e4", "--workers", "2"]),
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = sntail.cli.main(argv)
    report[name] = [code, scipy_modules()]
print(json.dumps(report))
"""


def _fresh_python(args, timeout):
    """Run `python *args` in a fresh interpreter that imports this sntail."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_scipy_loads_only_where_sampling_starts():
    # a fresh interpreter, so modules imported by other tests do not count
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout)
    assert report["import"] == []
    assert report["verify"] == [0, []]
    assert report["oracle"] == [0, []]
    code, loaded = report["mc"]
    assert code == 0 and "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.integrate", "scipy.linalg"))]


_STARTUP_PROBE = """
import contextlib, io, json, sys

import sntail.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


gauss = "gaussian:cov=" + " ".join("1" if i == j else "0.3" for i in range(6) for j in range(6))
report = {}
for name, n, model in (("student", "3", "iid-student-t:nu=5"), ("gaussian", "6", gauss)):
    sntail.cli.parse_config(["verify", "--n", n, "--model", model])
    report[name] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = sntail.cli.main(["verify", "--n", "6", "--model", gauss, "--seed", "1"])
report["verify"] = [code, scipy_modules()]
print(json.dumps(report))
"""


def test_the_cli_starts_without_scipy():
    # the workflow's start-up check on an installed CLI, in a fresh
    # interpreter: parsing a verify loads no scipy, and a centred gaussian's
    # ledger, whose exact tail constant takes math.lgamma, loads none either
    done = _fresh_python(["-c", _STARTUP_PROBE], timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report == {"student": [], "gaussian": [], "verify": [0, []]}


def test_the_dim3_region_ladder_serves_the_whole_fit_grid_in_a_minute():
    done = _fresh_python(["-m", "sntail.cli", "verify", "--n", "4",
                          "--model", "iid-student-t:nu=5", "--seed", "1"], timeout=60)
    assert done.returncode == 0, done.stderr


def test_a_shifted_normal_leaves_the_sphere_law_at_n_4_in_a_minute():
    # region quadrature at n <= 4 (`test_oracle_routes` checks the oracle's
    # method), and a ledger with no Monte Carlo row
    done = _fresh_python(["-m", "sntail.cli", "verify", "--n", "4",
                          "--model", "iid-normal:mu=0.3", "--seed", "1"], timeout=60)
    assert done.returncode == 0, done.stderr


def test_the_one_region_path_that_keeps_a_root_search(capsys):
    # beta != 2 bisects the region boundary along each ray
    assert main(["oracle", "--n", "3", "--beta", "3", "--model", "iid-student-t:nu=5",
                 "--eps", "0.05"]) == 0
    assert capsys.readouterr().err == ""


def test_the_dim3_ball_search_reaches_the_extremum_off_the_diagonal(capsys):
    # unequal variances at n = 4: a search that moves one coordinate at a
    # time stops at H = 0.0564441443923
    cov = "1 0.2 0 0.1 0.2 2 0.1 0 0 0.1 0.5 0.2 0.1 0 0.2 1.5"
    assert main(["bounds", "--n", "4", "--eps", "0.01", "--format", "json",
                 "--model", f"gaussian:cov={cov}"]) == 0
    assert json.loads(capsys.readouterr().out)["H"] >= 0.0569404205


@pytest.mark.parametrize(
    "argv, name",
    [
        (["oracle", "--n", "2", "--model", "iid-folded-normal:shift=nan"], "shift"),
        (["oracle", "--n", "2", "--model", "gaussian:cov=inf 0 0 1"], "cov"),
        (["mc", "--n", "3", "--trials", "1000", "--model", "iid-normal:sigma=inf"], "sigma"),
        (["mc", "--n", "3", "--trials", "1000", "--model", "iid-normal:mu=inf"], "mu"),
        (["mc", "--n", "2", "--trials", "1000", "--model",
          "gaussian:mean=nan 0,cov=1 0 0 1"], "mean"),
        (["predict", "--beta", "inf"], "beta"),
        (["predict", "--eps", "nan"], "eps"),
        (["predict", "--model", "iid-normal:sigma=nan"], "sigma"),
        (["predict", "--model", "iid-student-t:nu=nan"], "nu"),
        (["predict", "--model", "iid-student-t:nu=inf"], "nu"),
        (["predict", "--n", "2", "--model", "gaussian:mean=inf 0,cov=1 0 0 1"], "mean"),
    ],
)
def test_non_finite_parameters_are_usage_errors(argv, name, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} must be finite" in captured.err
    assert "Traceback" not in captured.err


# One bad value per key, in the order parse_config reports them.
BAD_VALUES = [
    ("n", "abc", "n must be an integer, got 'abc'"),
    ("n", "1", "n must be >= 2"),
    ("beta", "x", "beta must be a number, got 'x'"),
    ("beta", "0.5", "beta must be finite and exceed 1, got 0.5"),
    ("eps", "0", "every eps must be finite and positive"),
    ("side", "bogus", "side must be one of ('right', 'left', 'two-sided'), got 'bogus'"),
    ("variant", "bogus", "variant must be one of ('paper', 'corrected'), got 'bogus'"),
    ("statistic", "bogus",
     "unknown statistic 'bogus'; choose from sum, max-over-Zn, max-over-Zk"),
    ("seed", "-1", "seed must fit in 64 unsigned bits"),
    ("trials", "1.5", "trials must be a positive integer, got '1.5'"),
    ("workers", "0", "workers must be >= 1"),
    ("format", "xml", "format must be one of ('json', 'csv'), got 'xml'"),
]


def _flag_and_file_errors(tmp_path, pairs: list[tuple[str, str]]) -> list[str]:
    path = tmp_path / "bad.ini"
    path.write_text("".join(f"{key} = {text}\n" for key, text in pairs), encoding="utf-8")
    flags = [arg for key, text in pairs for arg in (f"--{key}", text)]
    errors = []
    for argv in (["predict", *flags], ["predict", "--config", str(path)]):
        with pytest.raises(UsageError) as info:
            parse_config(argv)
        errors.append(str(info.value))
    return errors


@pytest.mark.parametrize(
    "key, text, message", BAD_VALUES, ids=[f"{key}={text}" for key, text, _ in BAD_VALUES]
)
def test_a_bad_value_reads_the_same_from_a_flag_or_a_file(tmp_path, key, text, message):
    assert _flag_and_file_errors(tmp_path, [(key, text)]) == [message, message]


def test_every_bad_value_is_reported_once(tmp_path):
    first = {}
    for key, text, message in BAD_VALUES:
        first.setdefault(key, (text, message))
    expected = "; ".join(message for _, message in first.values())
    pairs = [(key, text) for key, (text, _) in first.items()]
    assert _flag_and_file_errors(tmp_path, pairs) == [expected, expected]


def _random_config(rng: np.random.Generator, command: str) -> ExperimentConfig:
    n = int(rng.integers(2, 65))
    pick = int(rng.integers(7))
    if pick == 0:
        model = "iid-normal"
    elif pick == 1:
        model = f"iid-normal:mu={rng.normal()!r},sigma={rng.uniform(0.1, 5.0)!r}"
    elif pick == 2:
        model = f"iid-student-t:nu={rng.uniform(2.1, 30.0)!r}"
    elif pick == 3:
        model = f"iid-folded-normal:shift={rng.uniform(0.1, 3.0)!r}"
    elif pick == 4:
        # a I + b 11^T is positive definite for a > 0, b >= 0
        a, b = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
        cov = a * np.eye(n) + b
        mean = " ".join(repr(float(m)) for m in rng.normal(size=n))
        model = f"gaussian:mean={mean},cov={' '.join(repr(float(c)) for c in cov.ravel())}"
    else:
        model = ("rademacher", "degenerate-first-coordinate")[pick - 5]
    beta = 2.0 if rng.random() < 0.3 else float(1.0 + rng.exponential())
    return ExperimentConfig(
        command=command,
        model=model,
        n=n,
        beta=beta,
        eps=tuple(float(e) for e in rng.uniform(1e-6, 1.0, int(rng.integers(1, 5)))),
        side=("right", "left", "two-sided")[int(rng.integers(3))],
        variant=("paper", "corrected")[int(rng.integers(2))],
        statistic=("sum", "max-over-Zn", "max-over-Zk")[int(rng.integers(3))],
        seed=int(rng.integers(0, 2**64, dtype=np.uint64, endpoint=False)),
        trials=int(rng.integers(1, 10**9)),
        workers=int(rng.integers(1, 17)),
        format=("json", "csv")[int(rng.integers(2))],
        output=None if rng.random() < 0.5 else f"out-{int(rng.integers(1000))}.json",
    )


def test_random_configs_round_trip_through_file_and_flags(tmp_path):
    rng = np.random.default_rng(20171)
    path = tmp_path / "replay.ini"
    commands = list(cli.COMMANDS)
    for i in range(200):
        config = _random_config(rng, commands[i % len(commands)])
        text = config_to_text(config)
        path.write_text(text, encoding="utf-8")
        from_file = parse_config([config.command, "--config", str(path)])
        assert from_file == config
        assert config_hash(from_file) == config_hash(config)
        flags = []
        for line in text.splitlines()[1:]:
            key, _, value = line.partition(" = ")
            flags += [f"--{key}", value]
        assert parse_config([config.command, *flags]) == config


def test_flags_may_come_before_the_command():
    after = parse_config(["mc", "--n", "4", "--eps", "0.2", "--seed", "7"])
    assert parse_config(["--n", "4", "--eps", "0.2", "mc", "--seed", "7"]) == after
    assert parse_config(["--n", "4", "--eps", "0.2", "--seed", "7", "mc"]) == after
