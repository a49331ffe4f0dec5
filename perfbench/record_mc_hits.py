"""Record the mc-n3 hit count for each seed, keyed by the output's spec_hash.

    python3 perfbench/record_mc_hits.py 0 100     # seeds 0..99

Writes perfbench/mc_hits.json.  The mc-n3 check compares every later run
against it; the sample stream is bit-identical by contract, so a changed
count under an unchanged spec_hash is a replay break.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import MC_HITS_FILE, WORKLOADS  # noqa: E402


def main(first: int, stop: int) -> None:
    import sntail.cli as cli

    workload = WORKLOADS["mc-n3"]
    table = {}
    for seed in range(first, stop):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(workload.command(seed))
        payload = json.loads(out.getvalue())
        problems = workload.check(out.getvalue(), "", rc, seed)
        if problems:
            raise SystemExit(f"seed {seed}: {problems}")
        table[payload["spec_hash"]] = {"seed": seed, "hits": payload["hits"]}
    MC_HITS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
