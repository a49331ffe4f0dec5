"""Regenerate the golden CLI outputs and print what moved.

Each file `tests/golden/<name>.json` holds one command's argv, its exit
code and its JSON output, run in-process through `sntail.cli.main` with
`--seed 1`.  `tests/test_golden.py` reruns every file and compares:
numbers to 12 significant digits (relative 1e-12), strings and exit codes
exactly.

    PYTHONPATH=src python tests/golden/update.py            # every file
    PYTHONPATH=src python tests/golden/update.py bounds-n3-folded ...

Every field that moves is printed as `name: path: old -> new`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
REL = 1e-12

_EQUICORRELATED_3 = "1 0.3 0.3 0.3 1 0.3 0.3 0.3 1"
_IDENTITY_4 = " ".join("1" if i == j else "0" for i in range(4) for j in range(4))
# Unequal variances: envelope extrema off the diagonal of the ball grid.
_UNEQUAL_3 = "1 0.2 0 0.2 2 0.1 0 0.1 0.5"

COMMANDS: dict[str, list[str]] = {
    "verify-n2": ["verify", "--n", "2"],
    "verify-n3": ["verify", "--n", "3"],
    "verify-n3-gauss": ["verify", "--n", "3", "--model",
                        f"gaussian:cov={_EQUICORRELATED_3}", "--workers", "1"],
    "verify-n3-student": ["verify", "--n", "3", "--model", "iid-student-t:nu=5",
                          "--workers", "1"],
    "verify-n4": ["verify", "--n", "4", "--trials", "1e5"],
    "verify-n4-student": ["verify", "--n", "4", "--model", "iid-student-t:nu=5"],
    "verify-n3-beta3": ["verify", "--n", "3", "--beta", "3"],
    "verify-n2-folded": ["verify", "--n", "2", "--model", "iid-folded-normal"],
    # The ledger's other exits: no exact oracle, an unresolved MC row, the
    # sphere law's closed-form limit past the old fit's reach (n = 48, 120
    # and 150, each exit 0), and the region read at eps0 for a shifted
    # normal and a shifted equicorrelated gaussian.
    "verify-n5-student": ["verify", "--n", "5", "--model", "iid-student-t:nu=5"],
    "verify-n10": ["verify", "--n", "10", "--trials", "1000"],
    "verify-n48": ["verify", "--n", "48", "--trials", "1000"],
    "verify-n120": ["verify", "--n", "120", "--trials", "1000"],
    "verify-n150": ["verify", "--n", "150", "--trials", "1000"],
    "verify-n3-shifted": ["verify", "--n", "3", "--model", "iid-normal:mu=0.3"],
    "verify-n3-shifted-gauss": ["verify", "--n", "3", "--model",
                                f"gaussian:cov={_EQUICORRELATED_3},mean=0.3 0.3 0.3"],
    "oracle-n4": ["oracle", "--n", "4", "--model", f"gaussian:cov={_IDENTITY_4}",
                  "--eps", "0.1"],
    "oracle-n2-folded": ["oracle", "--n", "2", "--model", "iid-folded-normal"],
    "bounds-n3-student": ["bounds", "--n", "3", "--eps", "0.01", "--model",
                          "iid-student-t:nu=5"],
    "bounds-n4-student": ["bounds", "--n", "4", "--eps", "0.01", "--model",
                          "iid-student-t:nu=5"],
    "bounds-n3-folded": ["bounds", "--n", "3", "--eps", "0.01", "--model",
                         "iid-folded-normal"],
    "bounds-n3-gauss-unequal": ["bounds", "--n", "3", "--eps", "0.01", "--model",
                                f"gaussian:cov={_UNEQUAL_3}"],
    "predict-n3-student-two-sided": ["predict", "--n", "3", "--side", "two-sided",
                                     "--model", "iid-student-t:nu=5"],
    "predict-n3-gauss-two-sided": [
        "predict", "--n", "3", "--side", "two-sided", "--model",
        f"gaussian:mean=0.2 -0.1 0.1,cov={_EQUICORRELATED_3}",
    ],
    "predict-n100": ["predict", "--n", "100", "--eps", "1e-3"],
    "constants-n3": ["constants", "--n", "3"],
    "counterexample-n3": ["counterexample", "--n", "3"],
    "mc-n3": ["mc", "--n", "3", "--model", "iid-normal", "--eps", "0.1", "--trials",
              "1e7", "--statistic", "max-over-Zk", "--workers", "2"],
}


def invoke(argv: list[str]) -> dict[str, object]:
    """Exit code and parsed JSON output of one in-process CLI call."""
    from sntail.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit_code": code, "output": json.loads(out.getvalue())}


def diff(old: object, new: object, path: str = "") -> list[str]:
    """Every place where `new` differs from `old` beyond the golden tolerance."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = [f"{path}/{k}: only in one" for k in sorted(set(old) ^ set(new))]
        for key in old:
            if key in new:
                out += diff(old[key], new[key], f"{path}/{key}")
        return out
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path}: length {len(old)} -> {len(new)}"]
        out = []
        for i, (a, b) in enumerate(zip(old, new)):
            out += diff(a, b, f"{path}[{i}]")
        return out
    numbers = all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new)
    )
    if numbers and math.isclose(old, new, rel_tol=REL, abs_tol=0.0):
        return []
    if not numbers and type(old) is type(new) and old == new:
        return []
    return [f"{path}: {old!r} -> {new!r}"]


def main(names: list[str]) -> int:
    for name in names or list(COMMANDS):
        path = GOLDEN_DIR / f"{name}.json"
        new = invoke([*COMMANDS[name], "--seed", "1", "--format", "json"])
        if path.exists():
            for line in diff(json.loads(path.read_text()), new):
                print(f"{name}: {line}")
        path.write_text(json.dumps(new, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
