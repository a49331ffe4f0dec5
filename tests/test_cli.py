"""Command-line parsing, emission formats, and exit code contract."""

import csv
import dataclasses
import io
import json

import pytest

import sntail.cli as cli
from sntail.cli import (
    ExperimentConfig,
    UsageError,
    config_hash,
    config_to_text,
    main,
    parse_config,
    parse_eps,
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
    # the kinked folded density stalls the fixed-node region quadrature
    code = main(["oracle", "--model", "iid-folded-normal", "--n", "3",
                 "--eps", "0.1"])
    assert code == 1
    assert "computation failed" in capsys.readouterr().err


def test_exit_code_one_on_runtime_error(monkeypatch, capsys):
    # a non-converging continued fraction raises a bare RuntimeError
    def stalled(config):
        raise RuntimeError("continued fraction did not converge")

    monkeypatch.setitem(cli._RUNNERS, "constants", stalled)
    assert main(["constants", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert "computation failed: continued fraction did not converge" in err
    assert "Traceback" not in err


def test_exit_code_two_on_usage_error(capsys):
    assert main(["predict", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert "n must be >= 2" in err
    assert main(["predict", "--model", "rademacher", "--n", "3"]) == 2
    capsys.readouterr()
    assert main(["bounds", "--n", "3", "--eps", "0.05"]) == 2
    capsys.readouterr()


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


def test_rare_event_warning(capsys):
    code = main(["mc", "--n", "3", "--eps", "0.02", "--trials", "1000",
                 "--seed", "11"])
    assert code == 0
    captured = capsys.readouterr()
    assert "rare event" in captured.err
    payload = json.loads(captured.out)
    assert any("rare event" in w for w in payload["warnings"])


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


def test_twelve_digit_output(capsys):
    assert main(["constants", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    corrected = next(
        r for r in payload["records"]
        if r["quantity"] == "k_constant" and r["variant"] == "corrected"
    )
    assert corrected["value"] == pytest.approx(2.0**2.25, rel=1e-11)
    assert len(str(corrected["value"]).replace(".", "").lstrip("0")) <= 12
