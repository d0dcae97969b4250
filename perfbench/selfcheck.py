"""Check that the traced runs reach every wrapped entry point.

Runs one traced run per workload (seed 1) and exits 1 if a run fails, an
output is wrong, or some entry point in ``spans.LAYERS`` is hit by none of
the three workloads.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import spans
from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    unhit = set(spans.entry_points())
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        if proc.returncode != 0 or not lines or not lines[-1]["correct"]:
            print(f"{workload}: traced run failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        missed = next(line["trace_entry_points_not_hit"] for line in lines if "trace_entry_points_not_hit" in line)
        unhit &= set(missed)
        print(f"{workload}: {len(missed)} entry points not hit")
    if unhit:
        print(f"entry points hit by no workload: {', '.join(sorted(unhit))}", file=sys.stderr)
    return 0 if ok and not unhit else 1


if __name__ == "__main__":
    sys.exit(main())
