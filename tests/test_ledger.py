"""Ledger entry contracts and the verification report."""

import dataclasses
import json
import math

import numpy as np
import pytest

import sntail.cli as cli
import sntail.ledger as ledger
from sntail.ledger import LEDGER_FIELDS, LedgerEntry, VerifyReport, run_verify
from sntail.montecarlo import MIN_EXPECTED_HITS, _binomial_p_value, _estimate


def test_entry_status_vocabulary():
    LedgerEntry("q", 1.0, 1.0, 1.0, "confirmed", "")
    LedgerEntry("q", None, None, None, "untested", "skipped")
    with pytest.raises(ValueError):
        LedgerEntry("q", 1.0, 1.0, 1.0, "passed", "")


def test_discrepant_requires_both_values():
    LedgerEntry("q", 1.0, 3.0, 3.0, "discrepant", "")
    with pytest.raises(ValueError):
        LedgerEntry("q", None, 3.0, 3.0, "discrepant", "")
    with pytest.raises(ValueError):
        LedgerEntry("q", 1.0, None, 3.0, "discrepant", "")


def test_ratios_guard_missing_oracle():
    entry = LedgerEntry("q", 2.0, 1.0, None, "discrepant", "")
    assert entry.ratio_paper_oracle is None
    assert entry.ratio_corrected_oracle is None
    entry = LedgerEntry("q", 2.0, 1.0, 0.0, "discrepant", "")
    assert entry.ratio_paper_oracle is None
    entry = LedgerEntry("q", 2.0, 1.0, 4.0, "discrepant", "")
    assert entry.ratio_paper_oracle == pytest.approx(0.5)
    assert entry.ratio_corrected_oracle == pytest.approx(0.25)


def test_report_exit_semantics():
    finding = LedgerEntry("q", 1.0, 3.0, 3.0, "discrepant", "")
    ok = VerifyReport(entries=(finding,), internal_failures=())
    assert ok.exit_code == 0
    bad = VerifyReport(entries=(finding,), internal_failures=("oracles disagree",))
    assert bad.exit_code == 1


def test_record_schema():
    entry = LedgerEntry("q", 1.0, 3.0, 3.0, "discrepant", "note")
    assert tuple(entry.to_record()) == LEDGER_FIELDS


def test_run_verify_n2_summary():
    report = run_verify(n=2, trials=50_000, eps=(0.1,))
    assert report.exit_code == 0
    rows = {e.quantity: e for e in report.entries}
    det = next(e for q, e in rows.items() if q.startswith("det_anti_hessian"))
    # the printed determinant formula only breaks for n >= 3
    assert det.status == "confirmed"
    tail = next(e for q, e in rows.items() if q.startswith("tail_constant"))
    assert tail.status == "discrepant"
    # published/oracle constant ratio at n = 2 is sqrt(pi), about 1.77
    assert tail.ratio_paper_oracle == pytest.approx(math.sqrt(math.pi), rel=5e-3)
    assert tail.ratio_corrected_oracle == pytest.approx(1.0, abs=1e-3)
    k_row = next(e for q, e in rows.items() if q.startswith("k_constant"))
    assert k_row.status == "discrepant"
    assert k_row.paper_value is not None and k_row.corrected_value is not None


def test_determinant_row_factorizes_past_the_dense_cap():
    # at order n - 1 = 69 the oracle is still a factorization, not the
    # eigenvalue product it checks
    spec = ledger.AntiHessianSpec(70, 2.0)
    failures: list[str] = []
    row = ledger._determinant_row(spec, failures)
    assert failures == [] and row.status == "discrepant"
    assert row.ratio_corrected_oracle == pytest.approx(1.0, rel=1e-8)
    assert "pivoted factorization" in row.note


def test_determinant_row_reports_a_wrong_closed_form(monkeypatch):
    exact = ledger.log_det_anti_hessian
    monkeypatch.setattr(ledger, "log_det_anti_hessian", lambda spec: exact(spec) + 1e-6)
    failures: list[str] = []
    ledger._determinant_row(ledger.AntiHessianSpec(70, 2.0), failures)
    assert len(failures) == 1 and "determinant routes disagree" in failures[0]


def test_determinant_row_in_log_space_and_above_the_limit():
    # det = n^(-(n+1)/2) underflows at n = 1000; the log-space routes still agree
    failures: list[str] = []
    row = ledger._determinant_row(ledger.AntiHessianSpec(1000, 2.0), failures)
    assert failures == [] and row.status == "discrepant" and row.oracle_value == 0.0
    n = ledger.DET_FACTOR_LIMIT + 2
    row = ledger._determinant_row(ledger.AntiHessianSpec(n, 2.0), failures)
    assert failures == [] and row.status == "untested" and row.oracle_value is None
    assert f"order {n - 1} exceeds" in row.note


def test_run_verify_rejects_bad_input():
    with pytest.raises(ValueError):
        run_verify(n=1)
    with pytest.raises(ValueError):
        run_verify(beta=1.0)
    with pytest.raises(ValueError, match="exactly one eps"):
        run_verify(n=2, eps=(0.1, 0.05))


def test_log_growth_row_judged_against_expansion(monkeypatch):
    # the n = 1e19 reading sits 5% to 20% off the bare limit for these betas;
    # against limit + c_beta / (2 log n) it is exact up to rounding
    for beta in (1.5, 2.0, 3.0):
        entry = ledger._log_growth_entry(beta)
        assert entry.status == "confirmed", entry
        assert entry.paper_value == pytest.approx((1.0 - beta) / (2.0 * beta))
    true_limit = ledger.log_growth_limit
    monkeypatch.setattr(ledger, "log_growth_limit", lambda beta: 1.01 * true_limit(beta))
    for beta in (1.5, 2.0, 3.0):
        assert ledger._log_growth_entry(beta).status == "discrepant"


def test_mc_row_survives_a_missed_interval(monkeypatch):
    # 28513 hits in 1e6 trials (what seed 3 drew on the uniform stream) put
    # the MC estimate outside its 95% interval (|z| > 1.96) but well inside
    # the 5 sigma gate that decides the internal failure
    def estimate(sampler, stat, epsilon):
        return _estimate(sampler, stat, math.sqrt(sampler.model.n) - epsilon, 28513)

    monkeypatch.setattr(ledger, "estimate_tail", estimate)
    report = run_verify(n=3, seed=3, trials=10**6)
    assert report.exit_code == 0, report.internal_failures
    row = next(e for e in report.entries if e.quantity.startswith("mc_tail"))
    p = row.oracle_value
    z = (row.corrected_value - p) / math.sqrt(p * (1.0 - p) / 10**6)
    assert 1.96 < abs(z) <= 5.0
    assert row.status == "confirmed"
    assert f"z = {z:+.3f}" in row.note and "95% CI [" in row.note


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_anti_hessian_row_reads_untested_when_its_hyperdual_gate_fails(monkeypatch, entry):
    # the hyper-dual oracle is the package's own: a failed gate is an
    # internal failure, and the row reads "untested", not "discrepant".  It
    # is exact to rounding, so the gate is 1e-12 and an entry off by 1e-9
    # fails it (a 1e-5 gate would pass it)
    true_route = ledger.anti_hessian_entries_hyperdual

    def perturbed(spec):
        entries = list(true_route(spec))
        entries[entry[1]] *= 1.0 + 1e-9
        return tuple(entries)

    monkeypatch.setattr(ledger, "anti_hessian_entries_hyperdual", perturbed)
    report = run_verify(n=3, trials=20_000)
    rows = {e.quantity.split("(")[0]: e for e in report.entries}
    bad, good = ("diag", "off") if entry == (0, 0) else ("off", "diag")
    assert rows[f"anti_hessian_{bad}"].status == "untested"
    assert rows[f"anti_hessian_{good}"].status == "confirmed"
    name = {"diag": "diagonal", "off": "off-diagonal"}[bad]
    assert report.exit_code == 1
    assert [f.split(":")[0] for f in report.internal_failures] == [f"anti-Hessian {name}"]


def test_mc_row_untested_below_fifty_expected_hits():
    # 1000 trials at n = 4 expect 6.66 hits: an estimate that close to zero
    # agrees with the exact tail whatever it reads, so it confirms nothing
    report = run_verify(n=4, seed=1, trials=1000)
    assert report.exit_code == 0, report.internal_failures
    row = next(e for e in report.entries if e.quantity.startswith("mc_tail"))
    assert row.oracle_value * 1000 < MIN_EXPECTED_HITS
    assert row.status == "untested"
    assert "expected hits, below the 50" in row.note


def test_verify_takes_the_region_oracle_for_a_shifted_normal():
    # a shifted normal is not rotation invariant: the sphere law gives
    # neither its tail-constant oracle nor an MC or cross-oracle row, so
    # no trial floor applies
    report = run_verify("iid-normal:mu=0.3", n=3, seed=1, trials=100)
    assert report.exit_code == 0, report.internal_failures
    rows = {e.quantity.split("(")[0]: e for e in report.entries}
    assert "mc_tail" not in rows and "cross_oracle" not in rows
    tail = rows["tail_constant"]
    assert "region oracle" in tail.note
    assert tail.ratio_corrected_oracle == pytest.approx(1.0, abs=5e-3)
    # above n = 4 no oracle resolves it
    report = run_verify("iid-normal:mu=0.3", n=5, trials=100)
    assert report.exit_code == 0, report.internal_failures
    rows = {e.quantity.split("(")[0]: e for e in report.entries}
    assert rows["tail_constant"].status == "untested"
    assert "mc_tail" not in rows


def _gaussian_text(cov, mean=None):
    text = "gaussian:cov=" + " ".join(repr(float(x)) for x in np.ravel(cov))
    if mean is not None:
        text += ",mean=" + " ".join(repr(float(x)) for x in mean)
    return text


_EQUICORRELATED_3 = "gaussian:cov=1 0.3 0.3 0.3 1 0.3 0.3 0.3 1"
_GAUSS_ROWS = (
    "det_anti_hessian", "anti_hessian_diag", "anti_hessian_off", "k_constant",
    "tail_constant", "sandwich", "rademacher_tail", "degenerate_tail",
    "log_growth_limit",
)


def test_a_centred_gaussian_ledger_keeps_its_nine_rows(capsys):
    # the exact tail constant changes no route: a centred gaussian has no
    # sphere law, so no MC or cross-oracle row, and its tail-constant row
    # is judged by the eigenvalue route
    argv = ["verify", "--n", "3", "--model", _EQUICORRELATED_3, "--workers", "1",
            "--seed", "1", "--format", "json"]
    assert cli.main(argv) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    kinds = [r["quantity"].split("(")[0] for r in records]
    assert sorted(kinds) == sorted(_GAUSS_ROWS)
    tail = next(r for r in records if r["quantity"].startswith("tail_constant"))
    assert "eigenvalues" in tail["note"]
    assert abs(tail["ratio_corrected_oracle"] - 1.0) <= 1e-9


def test_oracle_on_an_identity_gaussian_stays_on_region_quadrature(capsys):
    identity = _gaussian_text(np.eye(4))
    assert cli.main(["oracle", "--n", "4", "--model", identity, "--eps", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "region-quadrature"


@pytest.mark.parametrize("n", [5, 10, 48, 100])
def test_a_centred_gaussian_gets_an_exact_tail_constant_past_n_4(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    for cov in (0.7 * np.eye(n) + 0.3, a @ a.T / n + 0.5 * np.eye(n)):
        report = run_verify(_gaussian_text(cov), n=n, seed=1)
        assert report.exit_code == 0, report.internal_failures
        row = next(e for e in report.entries if e.quantity.startswith("tail_constant"))
        assert row.status == "discrepant"
        assert abs(row.ratio_corrected_oracle - 1.0) <= 1e-9
        assert "eigenvalues" in row.note


def test_a_gaussian_constant_past_the_doubles_reads_untested():
    # c0 of 0.7 I + 0.3 11^T grows with n and overflows from n = 490; the
    # row says so instead of raising, and the ledger holds no failure
    n = 490
    report = run_verify(_gaussian_text(0.7 * np.eye(n) + 0.3), n=n, seed=1)
    assert report.exit_code == 0, report.internal_failures
    row = next(e for e in report.entries if e.quantity.startswith("tail_constant"))
    assert row.status == "untested"
    assert row.note == "the quadratic-form law's limit c0 overflows a double at this n"


def test_a_shifted_gaussian_gets_a_region_verdict():
    # a non-zero mean has no quadratic-form law: the region oracle read at
    # eps0 at n = 3, nothing past n = 4
    cov3 = 0.7 * np.eye(3) + 0.3
    report = run_verify(_gaussian_text(cov3, np.full(3, 0.3)), n=3, seed=1)
    assert report.exit_code == 0, report.internal_failures
    row = next(e for e in report.entries if e.quantity.startswith("tail_constant"))
    assert row.status == "discrepant"
    assert abs(row.ratio_corrected_oracle - 1.0) <= 1e-6
    # settled on the first grid, 16 x 11 with the fold's 9 x 11 profiled
    assert row.note.startswith(
        "region oracle q / eps0^1 at eps0 = 1e-08: refinement level 0, 99 nodes profiled,"
    )
    cov5 = 0.7 * np.eye(5) + 0.3
    report = run_verify(_gaussian_text(cov5, np.full(5, 0.3)), n=5, seed=1)
    row = next(e for e in report.entries if e.quantity.startswith("tail_constant"))
    assert row.status == "untested"
    assert row.note == "no exact oracle for this model at this dimension"


def test_verify_n2_has_a_sandwich_row():
    report = run_verify(n=2, trials=20_000)
    assert report.exit_code == 0
    assert any(e.quantity.startswith("sandwich") for e in report.entries)


def test_verify_n2_resolves_a_support_edge():
    # the folded normal's region rows run on its closed-form profiles
    report = run_verify("iid-folded-normal", n=2)
    rows = {e.quantity.split("(")[0]: e for e in report.entries}
    assert rows["tail_constant"].status != "untested"
    assert rows["tail_constant"].oracle_value is not None
    assert rows["sandwich"].status == "confirmed"


def test_binomial_p_value_matches_scipy():
    from scipy.stats import binom

    cases = [(1, 1000, 1.32e-5), (0, 1000, 1.32e-5), (3, 1000, 0.00666),
             (0, 1000, 0.00666), (20, 1000, 0.00666), (100, 10**6, 1e-5),
             (5, 10**7, 1e-6), (45, 10**5, 4e-4), (0, 10**6, 4.9e-5)]
    for hits, trials, p in cases:
        if hits >= p * trials:
            tail = binom.sf(hits - 1, trials, p)
        else:
            tail = binom.cdf(hits, trials, p)
        got = _binomial_p_value(hits, trials, p)
        assert got == pytest.approx(min(1.0, 2.0 * tail), rel=1e-6)
    assert _binomial_p_value(0, 1000, 0.0) == 1.0
    assert _binomial_p_value(1, 1000, 0.0) == 0.0


def test_mc_row_gate_below_fifty_expected_hits_still_fails_a_wrong_count(monkeypatch):
    # 0.0132 hits are expected at n = 8 with 1000 trials; a count of 10 has
    # an exact two-sided tail near 1e-26, far below the 5 sigma level
    true_estimate = ledger.estimate_tail

    def miscounted(*args, **kwargs):
        est = true_estimate(*args, **kwargs)
        return dataclasses.replace(est, hits=10, p_hat=10 / est.trials)

    monkeypatch.setattr(ledger, "estimate_tail", miscounted)
    report = run_verify(n=8, seed=79, trials=1000)
    assert report.exit_code == 1
    assert any("exact binomial p" in f for f in report.internal_failures)
    row = next(e for e in report.entries if e.quantity.startswith("mc_tail"))
    assert row.status == "untested"


def test_verify_marks_an_underflowed_tail_constant_fit_untested():
    # at n = 1000 the sphere law's limit c0, about e^-1383, underflows; the
    # row says so and the rest of the ledger is still built
    report = run_verify(n=1000, trials=1000)
    assert len(report.entries) == 9
    row = next(e for e in report.entries if e.quantity.startswith("tail_constant"))
    assert row.status == "untested"
    assert row.note == "the sphere law's limit c0 underflows a double at this n"
    assert not any("tail constant" in f for f in report.internal_failures)


def test_tail_constant_note_names_a_failed_prediction():
    # at n = 560 c0 is a normal double, 2.02e-302, and the closed-form
    # weighted profile behind the prediction underflows to 0.0: the note
    # must name the prediction
    report = run_verify(n=560, trials=1000)
    row = next(e for e in report.entries if e.quantity.startswith("tail_constant"))
    assert row.status == "untested"
    assert row.note.startswith("prediction failed: profile vanishes")
    assert "underflows a double (it reads 0.0)" in row.note
    assert "c0" not in row.note and "oracle" not in row.note


@pytest.mark.parametrize("n", [498, 515, 523])
def test_a_subnormal_profile_fails_the_prediction_not_the_ledger(n):
    # from n = 498 the weighted profile at 1 is a subnormal double, which
    # keeps too few digits for the 1e-9 gate (at n = 515 the corrected
    # constant read 1 - 2.6e-6 of c0): the row reads "untested", and the
    # ledger holds no internal failure
    report = run_verify(n=n, trials=1000, seed=1)
    row = next(e for e in report.entries if e.quantity.startswith("tail_constant"))
    assert row.status == "untested"
    assert row.note.startswith("prediction failed: profile vanishes or underflows a double")
    assert report.exit_code == 0, report.internal_failures


@pytest.mark.parametrize("n", [2, 3, 5, 10, 48, 100, 120, 150, 400])
def test_tail_constant_meets_the_sphere_law_limit_at_every_n(n):
    # the corrected constant against the closed-form c0, not a fitted slope
    report = run_verify(n=n, trials=1000, seed=1)
    row = next(e for e in report.entries if e.quantity.startswith("tail_constant"))
    assert row.status == "discrepant"
    assert abs(row.ratio_corrected_oracle - 1.0) <= 1e-9
    assert report.exit_code == 0, report.internal_failures


def test_region_oracle_of_zero_reads_untested_and_says_why(capsys):
    # for a normal centred at -30 the weighted profile near the all-ones
    # ray is about e^-900: the region oracle reads 0.0 at eps0, the row
    # says so, and verify still exits 0
    model = "gaussian:cov=1 0 0 1,mean=-30 -30"
    assert cli.main(["verify", "--n", "2", "--model", model, "--trials", "1000"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    row = next(r for r in records if r["quantity"].startswith("tail_constant"))
    assert row["status"] == "untested"
    assert row["note"] == (
        "region oracle is 0.0 at eps0 = 1e-08: the weighted integrand "
        "underflows to 0.0 at every node"
    )


@pytest.mark.parametrize("mean", [-8.0, -20.0])
def test_region_oracle_judges_a_normal_centred_far_behind_the_origin(mean, capsys):
    # each weighted profile is a closed-form moment, so no plan sized on
    # the paper integrand can leave the weighted half empty
    model = f"gaussian:cov=1 0 0 1,mean={mean} {mean}"
    assert cli.main(["verify", "--n", "2", "--model", model, "--trials", "1000"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    row = next(r for r in records if r["quantity"].startswith("tail_constant"))
    assert row["status"] == "discrepant"
    assert row["ratio_corrected_oracle"] == pytest.approx(1.0, abs=1e-7)


def test_k_constant_note_gives_the_log_ratio_where_the_ratio_underflows():
    # the paper K underflows at n = 2000; the note carries log(paper/corrected)
    # = -(n-1) log 2 - log(2n - 3) / 2 instead of a ratio that reads 0
    n = 2000
    report = run_verify(n=n, trials=1000)
    row = next(e for e in report.entries if e.quantity.startswith("k_constant"))
    assert row.paper_value == 0.0
    head, _ = row.note.split(";", 1)
    label, value = head.split(" = ")
    assert label == "log(paper/corrected)"
    expected = -(n - 1) * math.log(2.0) - 0.5 * math.log(2 * n - 3)
    assert abs(float(value) - expected) <= 1e-9
    assert expected == pytest.approx(-1389.7478636, abs=1e-7)


def test_tail_constant_fit_runs_one_region_ladder(monkeypatch):
    # the row reaches the region oracle through ledger.region_tail_integral,
    # the name the tracer hooks, once, at the one float eps0
    calls = []
    original = ledger.region_tail_integral

    def recording(model, epsilon, *args, **kwargs):
        calls.append(epsilon)
        return original(model, epsilon, *args, **kwargs)

    monkeypatch.setattr(ledger, "region_tail_integral", recording)
    report = run_verify("iid-student-t:nu=5", n=3)
    row = next(e for e in report.entries if e.quantity.startswith("tail_constant"))
    assert row.oracle_value is not None
    assert calls == [ledger.EPS0]
    assert type(calls[0]) is float


@pytest.mark.parametrize("model, n, bound", [
    pytest.param(model, n, bound, id=f"{model}-{n}")
    for model, ns, bound in (
        ("iid-student-t:nu=5", (2, 3, 4), 1e-6),
        ("iid-normal:mu=0.3", (3, 4), 1e-6),
        # the folded normal's profile is kinked at the all-ones point, so
        # its tail carries a sqrt(eps) term: 4.3e-5 to 5.1e-5 at eps0
        ("iid-folded-normal", (2, 3, 4), 1e-4),
    )
    for n in ns
])
def test_region_read_meets_the_corrected_constant(model, n, bound):
    # one read of the region oracle at eps0 settles on its first grid
    # (2 x 11, 16 x 11 and 7 x 16 x 11 nodes, the fold's canonical half
    # profiled) and meets the corrected constant far inside the 5e-3 gate
    report = run_verify(model, n=n, seed=1)
    assert report.exit_code == 0, report.internal_failures
    row = next(e for e in report.entries if e.quantity.startswith("tail_constant"))
    assert row.status == "discrepant"
    assert abs(row.ratio_corrected_oracle - 1.0) <= bound
    nodes = {2: 22, 3: 99, 4: 693}[n]
    assert row.note.startswith(
        f"region oracle q / eps0^{0.5 * (n - 1):g} at eps0 = 1e-08: refinement level 0, "
        f"{nodes} nodes profiled,"
    )


def _row(report, prefix):
    return next(e for e in report.entries if e.quantity.startswith(prefix))


def test_a_wrong_rademacher_enumeration_is_a_finding_and_an_internal_failure(
    monkeypatch, capsys
):
    # the published 2^-n and its corrected twin both miss the oracle: the
    # row reads "discrepant", and the corrected miss fails the run
    true_tail = ledger.rademacher_tail_exact

    def off(n, eps):
        result = true_tail(n, eps)
        return dataclasses.replace(result, value=2.0 ** -n * (1.0 + 1e-3))

    monkeypatch.setattr(ledger, "rademacher_tail_exact", off)
    report = run_verify("iid-student-t:nu=5", n=5)
    assert _row(report, "rademacher_tail").status == "discrepant"
    assert [f.split(" ")[:2] for f in report.internal_failures] == [
        ["rademacher", "enumeration"]
    ]
    assert cli.main(["verify", "--n", "5", "--model", "iid-student-t:nu=5"]) == 1
    assert "internal failure: rademacher enumeration" in capsys.readouterr().err


def test_a_nonzero_degenerate_oracle_is_a_finding_and_an_internal_failure(monkeypatch):
    true_check = ledger.degenerate_component_check
    monkeypatch.setattr(
        ledger, "degenerate_component_check",
        lambda n, eps: dataclasses.replace(true_check(n, eps), value=1e-9),
    )
    report = run_verify("iid-student-t:nu=5", n=5)
    row = _row(report, "degenerate_tail")
    assert (row.status, row.oracle_value) == ("discrepant", 1e-9)
    assert report.internal_failures == (
        "degenerate-coordinate oracle returned 1e-09, expected exactly 0",
    )


def test_discrete_rows_stand_at_beta_2_only():
    # both discrete oracles compute the beta = 2 statistic, so a ledger at
    # beta = 3 must not report them as its own
    for beta, present in ((2.0, True), (3.0, False)):
        report = run_verify("iid-student-t:nu=5", n=5, beta=beta)
        kinds = [e.quantity.split("(")[0] for e in report.entries]
        assert ("rademacher_tail" in kinds) is present
        assert ("degenerate_tail" in kinds) is present
        assert "log_growth_limit" in kinds and report.exit_code == 0


def test_an_exhausted_region_oracle_leaves_the_tail_constant_untested(monkeypatch, capsys):
    true_region = ledger.region_tail_integral

    def exhausted(model, epsilon, *args, **kwargs):
        if epsilon == ledger.EPS0:
            raise ledger.QuadratureError("budget spent at eps0")
        return true_region(model, epsilon, *args, **kwargs)

    monkeypatch.setattr(ledger, "region_tail_integral", exhausted)
    report = run_verify("iid-student-t:nu=5", n=3)
    row = _row(report, "tail_constant")
    assert row.status == "untested"
    assert row.note == "oracle quadrature budget exhausted: budget spent at eps0"
    assert report.internal_failures == ()
    assert cli.main(["verify", "--n", "3", "--model", "iid-student-t:nu=5"]) == 0
    assert "oracle quadrature budget exhausted" in capsys.readouterr().out


def test_a_failed_sandwich_bracket_reads_discrepant(monkeypatch):
    true_sandwich = ledger.validate_sandwich

    def broken(model, eps):
        report = true_sandwich(model, eps)
        return dataclasses.replace(report, integral=2.0 * report.upper, holds=False)

    monkeypatch.setattr(ledger, "validate_sandwich", broken)
    report = run_verify("iid-student-t:nu=5", n=2)
    row = _row(report, "sandwich")
    assert row.status == "discrepant"
    assert row.oracle_value > row.corrected_value
    assert [f.split(" at ")[0] for f in report.internal_failures] == ["sandwich violated"]


def test_an_escaped_region_is_an_internal_failure_beside_a_held_bracket(monkeypatch):
    true_sandwich = ledger.validate_sandwich

    def escaped(model, eps):
        return dataclasses.replace(true_sandwich(model, eps), region_contained=False)

    monkeypatch.setattr(ledger, "validate_sandwich", escaped)
    report = run_verify("iid-student-t:nu=5", n=2)
    assert _row(report, "sandwich").status == "confirmed"
    assert len(report.internal_failures) == 1
    assert report.internal_failures[0].startswith("localized region escapes")
    assert report.exit_code == 1
