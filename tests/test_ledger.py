"""Ledger entry contracts and the verification report."""

import math

import pytest

import sntail.ledger as ledger
from sntail.ledger import LEDGER_FIELDS, LedgerEntry, VerifyReport, run_verify


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


def test_run_verify_rejects_bad_input():
    with pytest.raises(ValueError):
        run_verify(n=1)
    with pytest.raises(ValueError):
        run_verify(beta=1.0)


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
