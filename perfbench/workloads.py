"""The benchmark's workloads: fixed `sntail` argv and a check of each output.

The checks rest on facts that stay true under every planned fix of the
package: exit status, the published-formula finding that the determinant
is off by a fixed factor, the ledger's own gates, and an exact tail law
computed here with `scipy.special.betainc`, which shares no code with the
package's hand-written incomplete beta.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from scipy.special import betainc

MC_HITS_FILE = Path(__file__).resolve().parent / "mc_hits.json"


def sphere_tail(n: int, eps: float) -> float:
    """P(S/||X|| > sqrt(n) - eps) for iid normals: the uniform-sphere law."""
    s = (math.sqrt(n) - eps) / math.sqrt(n)
    return 0.5 * float(betainc(0.5 * (n - 1), 0.5, 1.0 - s * s))


def within_sigmas(p_hat: float, p: float, trials: int, sigmas: float = 5.0) -> bool:
    return abs(p_hat - p) <= sigmas * math.sqrt(p * (1.0 - p) / trials)


def _rel_close(value: object, expected: float, rel: float) -> bool:
    return isinstance(value, (int, float)) and abs(value / expected - 1.0) <= rel


def _parse(stdout: str, problems: list[str]) -> dict | None:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None
    if not isinstance(payload, dict):
        problems.append("output is not a JSON object")
        return None
    return payload


def _common(rc: int, stderr: str, payload: dict | None, seed: int, problems: list[str]) -> None:
    if rc != 0:
        problems.append(f"exit code {rc}: {stderr.strip()[:200]}")
    if "Traceback" in stderr or "internal failure" in stderr:
        problems.append(f"stderr reports a failure: {stderr.strip()[:300]}")
    if payload is not None and payload.get("seed") != seed:
        problems.append(f"output seed {payload.get('seed')!r} is not {seed}")


def check_verify(
    n: int, det_ratio: float, rows: tuple[str, ...],
    stdout: str, stderr: str, rc: int, seed: int,
) -> list[str]:
    """Problems with one `sntail verify` ledger at the default eps 0.1.

    Empty when the ledger is correct.
    """
    problems: list[str] = []
    payload = _parse(stdout, problems)
    _common(rc, stderr, payload, seed, problems)
    if payload is None:
        return problems
    by_kind = {}
    for record in payload.get("records", []):
        by_kind[str(record.get("quantity", "")).split("(")[0]] = record
    if tuple(sorted(by_kind)) != tuple(sorted(rows)):
        problems.append(f"ledger rows {sorted(by_kind)} are not {sorted(rows)}")
        return problems

    det = by_kind["det_anti_hessian"]
    if not _rel_close(det["ratio_paper_oracle"], det_ratio, 1e-9):
        problems.append(f"det paper/oracle {det['ratio_paper_oracle']} is not {det_ratio}")
    if not _rel_close(det["ratio_corrected_oracle"], 1.0, 1e-8):
        problems.append(f"det corrected/oracle {det['ratio_corrected_oracle']} is not 1")

    tail = by_kind["tail_constant"]
    if not _rel_close(tail["ratio_corrected_oracle"], 1.0, 5e-3):
        problems.append(
            f"tail constant corrected/oracle {tail['ratio_corrected_oracle']} "
            "is outside the ledger's 5e-3 gate"
        )

    # Findings are judged by the values above, not by their status.
    judged = {"det_anti_hessian", "k_constant", "tail_constant"}
    for kind, record in by_kind.items():
        if kind not in judged and record.get("status") != "confirmed":
            problems.append(f"row {record['quantity']} is {record.get('status')}")
    return problems


def recorded_mc_hits() -> dict[str, int]:
    """Hit counts recorded on the seed commit, keyed by the output's spec_hash."""
    table = json.loads(MC_HITS_FILE.read_text())
    return {key: int(entry["hits"]) for key, entry in table.items()}


def check_mc(
    n: int, eps: float, trials: int, statistic: str,
    stdout: str, stderr: str, rc: int, seed: int, recorded: dict[str, int] | None = None,
) -> list[str]:
    """Problems with one `sntail mc` estimate; empty when it is correct."""
    recorded = recorded_mc_hits() if recorded is None else recorded
    problems: list[str] = []
    payload = _parse(stdout, problems)
    _common(rc, stderr, payload, seed, problems)
    if payload is None:
        return problems
    expected = {"n": n, "eps": eps, "trials": trials, "statistic": statistic, "warnings": []}
    for key, value in expected.items():
        if payload.get(key) != value:
            problems.append(f"{key} is {payload.get(key)!r}, expected {value!r}")
    hits = payload.get("hits")
    if not isinstance(hits, int) or not 0 <= hits <= trials:
        problems.append(f"hits {hits!r} is not a count")
        return problems
    if not _rel_close(payload.get("p_hat"), hits / trials, 1e-11):
        problems.append(f"p_hat {payload.get('p_hat')} is not hits/trials")
    exact = sphere_tail(n, eps)
    if not within_sigmas(hits / trials, exact, trials):
        problems.append(f"p_hat {hits / trials} is beyond 5 sigma of the sphere law {exact}")
    key = payload.get("spec_hash")
    if key in recorded and recorded[key] != hits:
        problems.append(f"hits {hits} differ from the {recorded[key]} recorded for this seed")
    return problems


def check_oracle(
    n: int, eps: float, stdout: str, stderr: str, rc: int, seed: int,
) -> list[str]:
    """Problems with one `sntail oracle` value of a standard normal vector.

    The model is given as an identity-covariance `gaussian`, so the value
    comes from region quadrature; it must match the exact sphere law within
    the ledger's own 1e-5 cross-oracle gate.
    """
    problems: list[str] = []
    payload = _parse(stdout, problems)
    _common(rc, stderr, payload, seed, problems)
    if payload is None:
        return problems
    expected = {"n": n, "eps": eps, "beta": 2.0, "method": "region-quadrature"}
    for key, value in expected.items():
        if payload.get(key) != value:
            problems.append(f"{key} is {payload.get(key)!r}, expected {value!r}")
    exact = sphere_tail(n, eps)
    if not _rel_close(payload.get("value"), exact, 1e-5):
        problems.append(f"region value {payload.get('value')!r} is not the sphere law {exact}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str, str, int, int], list[str]]

    def command(self, seed: int) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--format", "json"]


_LEDGER_ROWS = (
    "det_anti_hessian", "anti_hessian_diag", "anti_hessian_off", "k_constant",
    "tail_constant", "sandwich", "rademacher_tail", "degenerate_tail",
    "log_growth_limit",
)
_EQUICORRELATED_3 = "1 0.3 0.3 0.3 1 0.3 0.3 0.3 1"
_IDENTITY_4 = " ".join("1" if i == j else "0" for i in range(4) for j in range(4))


# Why each workload is here, and which layer it isolates, is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-n3-gauss",
            ("verify", "--n", "3", "--model", f"gaussian:cov={_EQUICORRELATED_3}",
             "--workers", "1"),
            functools.partial(check_verify, 3, 3.0, _LEDGER_ROWS),
        ),
        Workload(
            "verify-n3-student",
            ("verify", "--n", "3", "--model", "iid-student-t:nu=5", "--workers", "1"),
            functools.partial(check_verify, 3, 3.0, _LEDGER_ROWS),
        ),
        Workload(
            "oracle-n4",
            ("oracle", "--n", "4", "--model", f"gaussian:cov={_IDENTITY_4}", "--eps", "0.1"),
            functools.partial(check_oracle, 4, 0.1),
        ),
        Workload(
            "mc-n3",
            ("mc", "--n", "3", "--model", "iid-normal", "--eps", "0.1", "--trials",
             "1e7", "--statistic", "max-over-Zk", "--workers", "2"),
            functools.partial(check_mc, 3, 0.1, 10_000_000, "max-over-Zk"),
        ),
    )
}
