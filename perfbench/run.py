"""Benchmark of adoforge's ``construct`` and ``verify`` commands.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graded|ungraded|verify --seed N --seconds S --trace 0|1

Each run starts one worker process (``worker.py``) that imports the package
from ``src/`` of the checkout, writes the seeded inputs (``inputs.py``) and
calls ``adoforge.cli.main`` in process, one call per input, single-threaded.
This process then checks every constructed representation with the
benchmark's own exact oracle (``oracle.py``), outside the timed region.

Output: one JSON line per input (its digest, output size, median measured
time, sample count and errors), with ``--trace 0`` a line with the unscaled
time sums, a summary line with ``failed_frac``, and as the last line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, times scaled for machine speed; with
``--trace 1`` they are the per-layer ones from a traced pass (see
METRICS.md).  A run on a tree without ``src/adoforge`` exits 2 without a
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("graded", "ungraded", "verify")
SETUP_SAMPLES = 5        # set-ups per untraced run; setup_s is their median
RUN_LIMIT_S = 175.0      # the whole run, set-up samples included
# Workers run under a fixed hash seed: on one 2-core machine a construct of
# free2_4 took 13.6-25.0 s across hash seeds 0-8 and 13.6-15.4 s in five
# runs with seed 0 close together in time.
HASH_SEED = "0"
# The speed of one shared 2-core machine drifted by up to 1.8x within
# minutes, moving every input of a run together.  The worker times short
# bursts of fixed work around and inside every call (worker.Calibration),
# and call times are scaled to the speed at which a burst takes CAL_REF_S,
# judged from the median of the bursts taken during the call and the
# CAL_WINDOW bursts on each side of it.
CAL_REF_S = 0.01
CAL_WINDOW = 5

END_TO_END = {
    "wall_s": "s",
    "geomean_input_s": "s",
    "peak_rss_mb": "MB",
    "space_dim_total": "dim",
    "output_bytes": "bytes",
    "setup_s": "s",
}
# per-layer metrics read from the certificates of the first pass
CERT_COUNTS = {
    "graded.current_dim": "dim",
    "graded.cocycle_dim": "dim",
    "graded.rep_dim": "dim",
    "engine.flag_steps": "count",
    "engine.kernel_search.count": "count",
    "engine.kernel_search.tensor_power_max": "count",
    "engine.kernel_search.rep_dim_max": "dim",
    "engine.kernel_submodule.carrier_dim_sum": "dim",
    "engine.kernel_submodule.compressed_dim_sum": "dim",
    "engine.glue.summands": "count",
    "engine.kernel_search.useful_ratio": "ratio",
    "engine.compress_ratio": "ratio",
}
TRACE_TOTALS = {"trace.wall_s": "s", "trace.counter_s": "s", "trace.unwrapped_s": "s", "trace_overhead_s": "s"}
PER_LAYER = {**spans.units(), **CERT_COUNTS, **TRACE_TOTALS}


def _worker(args, workdir: Path, result: Path, timeout: float, setup_only: bool) -> dict:
    workdir.mkdir()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
        "--result", str(result),
    ] + (["--setup-only"] if setup_only else [])
    # subprocess.run kills and reaps the worker when the timeout expires
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    proc = subprocess.run(cmd, timeout=timeout, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def cert_counts(certs: list[dict]) -> dict:
    out = dict.fromkeys(CERT_COUNTS, 0)
    powers_tried = 0
    for cert in certs:
        for step in cert["steps"]:
            kind = step["kind"]
            if kind == "graded_pipeline":
                for key in ("current_dim", "cocycle_dim", "rep_dim"):
                    out[f"graded.{key}"] += step.get(key, 0)
            elif kind == "flag_step":
                out["engine.flag_steps"] += 1
            elif kind == "kernel_search":
                out["engine.kernel_search.count"] += 1
                powers_tried += step["tensor_power"]
                for key, value in (("tensor_power_max", step["tensor_power"]), ("rep_dim_max", step["rep_dim"])):
                    out[f"engine.kernel_search.{key}"] = max(out[f"engine.kernel_search.{key}"], value)
            elif kind == "kernel_submodule":
                carrier = step["carrier_dim"]
                compressed = step["compressed_dim"]
                out["engine.kernel_submodule.carrier_dim_sum"] += carrier
                out["engine.kernel_submodule.compressed_dim_sum"] += carrier if compressed is None else compressed
            elif kind == "glue":
                out["engine.glue.summands"] += len(step["summand_dims"])
    # each search examines powers 1..k of the seed representation and keeps one
    if powers_tried:
        out["engine.kernel_search.useful_ratio"] = out["engine.kernel_search.count"] / powers_tried
    if out["engine.kernel_submodule.carrier_dim_sum"]:
        out["engine.compress_ratio"] = (
            out["engine.kernel_submodule.compressed_dim_sum"] / out["engine.kernel_submodule.carrier_dim_sum"]
        )
    return out


def _scaled(call: dict, bursts: list[float]) -> float:
    """A call's time at the calibration speed."""
    first, end = call["bursts"]
    return call["time_s"] * CAL_REF_S / statistics.median(bursts[max(0, first - CAL_WINDOW):end + CAL_WINDOW])


def _geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def evaluate(run: dict, workdir: Path, trace: bool) -> tuple[int, int, list[dict], dict]:
    """(attempted, failed, per-input lines, metrics) of one worker result."""
    attempted = failed = 0
    lines = []
    raw_medians = []  # per-input median call time, as measured
    medians = []      # the same, scaled to the calibration speed
    space_dims = []
    out_bytes = []
    certs = []
    for inp in run["inputs"]:
        calls = run["records"][inp["name"]]
        errors = [c["error"] for c in calls if c["error"] is not None]
        attempted += len(calls)
        failed += len(errors)
        ok = [c for c in calls if c["error"] is None]
        # traced runs: the untraced first pass only
        median = statistics.median(c["time_s"] for c in (calls[:1] if trace else calls))
        raw_medians.append(median)
        if not trace:
            medians.append(statistics.median(_scaled(c, run["bursts"]) for c in calls))
        space_dims.append(ok[0]["space_dim"] if ok else 0)
        out_bytes.append(ok[0]["output_bytes"] if ok else 0)
        line = {"input": inp["name"], "digest": inp["digest"], "space_dim": space_dims[-1], "median_s": median, "samples": len(calls)}
        if inp["out"] is not None:
            first = workdir / f"{inp['name']}.first.rep.json"
            attempted += 1
            if first.exists():
                certs.append(json.loads((workdir / f"{inp['name']}.first.cert.json").read_text()))
                failing = oracle.check(inp["algebra"], first.read_bytes())
                problem = failing and f"not {', '.join(failing)}"
            else:
                problem = "no output to check"
            if problem:
                failed += 1
                errors.append(f"oracle: {problem}")
        if errors:
            line["errors"] = sorted(set(errors))
        lines.append(line)
    metrics = {}
    if trace:
        untraced = sum(calls[0]["time_s"] for calls in run["records"].values())
        traced = sum(calls[1]["time_s"] for calls in run["records"].values())
        layers = run["trace"]["layers"]
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        unwrapped = traced - self_total - run["trace"]["counter_s"]
        if unwrapped < -1e-3:
            raise RuntimeError(f"layer self times exceed the traced wall time by {-unwrapped:.4f} s")
        metrics.update(layers)
        metrics.update(cert_counts(certs))
        metrics["trace.wall_s"] = traced
        metrics["trace.counter_s"] = run["trace"]["counter_s"]
        metrics["trace.unwrapped_s"] = unwrapped
        metrics["trace_overhead_s"] = traced - untraced
    else:
        lines.append({"raw_wall_s": sum(raw_medians), "raw_geomean_input_s": _geomean(raw_medians)})
        metrics["wall_s"] = sum(medians)
        metrics["geomean_input_s"] = _geomean(medians)
        metrics["peak_rss_mb"] = run["peak_rss_mb"]
        metrics["space_dim_total"] = sum(space_dims)
        metrics["output_bytes"] = sum(out_bytes)
    return attempted, failed, lines, metrics


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "adoforge" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'adoforge'}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        setups = []
        try:
            for k in range(0 if args.trace else SETUP_SAMPLES - 1):
                setups.append(_worker(args, tmp / f"setup{k}", tmp / f"setup{k}.json", 60, True)["setup_s"])
            remaining = RUN_LIMIT_S - (time.perf_counter() - started)
            run = _worker(args, tmp / "run", tmp / "run.json", remaining, False)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {args.workload} run failed: {exc}", file=sys.stderr)
            return 1
        attempted, failed, lines, metrics = evaluate(run, tmp / "run", bool(args.trace))
    if not args.trace:
        setups.append(run["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    for line in lines:
        print(json.dumps(line))
    if args.trace:
        unhit = sorted(set(spans.entry_points()) - set(run["trace"]["hits"]))
        print(json.dumps({"trace_entry_points_not_hit": unhit}))
    print(json.dumps({"summary": {"workload": args.workload, "seed": args.seed, "failed_frac": failed / attempted}}))
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
