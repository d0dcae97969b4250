"""One workload run in its own process.

Sets up (imports the package from ``src/`` of the checkout and writes the
seeded inputs), then calls ``adoforge.cli.main`` in process once per input
and writes the raw per-call records to ``--result`` as JSON.  Called by
``run.py``; not meant to be run by hand.

* untraced (``--trace 0``): one pass over every input, then further passes
  in which an input runs again only while its last time still fits before
  ``--seconds`` have passed since the first call;
* traced (``--trace 1``): one untraced pass, then one pass with ``spans.py``'s
  wrappers installed.

Each call runs under a time cap; a call that hits it is recorded as a
timeout and the run goes on.

Untraced runs also time short calibration bursts of fixed work: five before
the first call and after every call, and one per second of CPU time inside
a call (on SIGPROF; their time is taken off the call's).  Each call records
the range of bursts taken during it; ``run.py`` scales call times by the
bursts during and around them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

INPUT_CAP_S = 90.0     # per call
CALLS_LIMIT_S = 150.0  # no call may run past this many seconds after the first one starts


BURSTS_BETWEEN_CALLS = 5
SAMPLE_EVERY_S = 1.0   # CPU seconds between bursts inside a call

# A burst is about 10 ms of exact rational arithmetic shaped like the
# package's sparse matrix-vector products.
_CAL_ROW = {i: Fraction(i + 1, 7) for i in range(0, 64, 2)}
_CAL_VEC = [Fraction(3, i + 2) for i in range(64)]


def burst() -> float:
    start = time.perf_counter()
    for _ in range(80):
        acc = Fraction(0)
        for c, v in _CAL_ROW.items():
            acc += v * _CAL_VEC[c]
    return time.perf_counter() - start


class Calibration:
    """Burst times of one run, in the order they were taken."""

    def __init__(self):
        self.bursts: list[float] = []
        self.in_call_s = 0.0
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        t = burst()
        self.bursts.append(t)
        self.in_call_s += t

    def between_calls(self) -> None:
        self.bursts.extend(burst() for _ in range(BURSTS_BETWEEN_CALLS))

    @contextlib.contextmanager
    def during_call(self, call: dict):
        self.in_call_s = 0.0
        first = len(self.bursts)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            call["bursts"] = [first, len(self.bursts)]


class InputTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise InputTimeout()


def _call(main, inp, cap_s: float, cal: Calibration | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    record: dict = {}
    error = None
    code = None
    sampling = cal.during_call(record) if cal is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, max(cap_s, 0.001))
        try:
            with sampling, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(inp.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InputTimeout:
        error = "timeout"
    except SystemExit as exc:  # argparse rejecting the arguments
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start - (cal.in_call_s if cal is not None else 0.0)
    lines = err.getvalue().strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        report = {}
    record.update(code=code, error=error, time_s=elapsed, report=report, stdout=out.getvalue())
    return record


def _check(inp, call: dict, first: dict | None, workdir: Path) -> dict:
    """Fill in the output facts of one call and decide whether it failed."""
    if call["error"] is None and inp.out is not None:
        if call["code"] != 0:
            call["error"] = f"exit code {call['code']}"
        else:
            rep = Path(inp.out).read_bytes()
            cert = Path(inp.certificate).read_bytes()
            call["rep_digest"] = hashlib.sha256(rep).hexdigest()
            call["cert_digest"] = hashlib.sha256(cert).hexdigest()
            call["output_bytes"] = len(rep)
            call["space_dim"] = call["report"].get("output_dims", {}).get("space_dim")
            if first is None:
                # keep the first outputs for the oracle and the certificate counts
                Path(inp.out).rename(workdir / f"{inp.name}.first.rep.json")
                Path(inp.certificate).rename(workdir / f"{inp.name}.first.cert.json")
            elif (call["rep_digest"], call["cert_digest"]) != (first["rep_digest"], first["cert_digest"]):
                call["error"] = "output digest differs between repetitions"
    elif call["error"] is None:
        expected_code = 0 if all(inp.expect.values()) else 1
        got = call["report"].get("verification")
        call["output_bytes"] = len(call["stdout"].encode())
        call["space_dim"] = inp.space_dim
        if call["code"] != expected_code or got != inp.expect:
            call["error"] = f"verify gave exit {call['code']} and {got}, expected exit {expected_code} and {inp.expect}"
    del call["report"], call["stdout"]
    return call


def _run_pass(main, inputs, records, workdir, run_start, deadline=None, cal=None) -> bool:
    """One pass; with a deadline, skip inputs whose last time no longer fits.
    Returns whether any input ran."""
    ran = False
    for inp in inputs:
        calls = records[inp.name]
        now = time.perf_counter()
        if deadline is not None and now + calls[-1]["time_s"] > deadline:
            continue
        cap = min(INPUT_CAP_S, run_start + CALLS_LIMIT_S - now)
        first = next((c for c in calls if c["error"] is None), None)
        calls.append(_check(inp, _call(main, inp, cap, cal), first, workdir))
        if cal is not None:
            cal.between_calls()
        ran = True
    return ran


def main() -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    import adoforge.cli

    if not Path(adoforge.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported adoforge from {adoforge.__file__}, not from {src}")
    import inputs as input_gen

    workdir = Path(args.workdir)
    inputs = input_gen.build(args.workload, args.seed, workdir)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "inputs": [vars(inp) for inp in inputs]}
    if not args.setup_only:
        signal.signal(signal.SIGALRM, _alarm)
        main_fn = adoforge.cli.main
        records = {inp.name: [] for inp in inputs}
        cal = None
        if not args.trace:
            cal = Calibration()
            cal.between_calls()
        start = time.perf_counter()
        _run_pass(main_fn, inputs, records, workdir, start, cal=cal)
        if args.trace:
            import spans

            recorder = spans.Recorder()
            spans.install(recorder)
            _run_pass(main_fn, inputs, records, workdir, start)
            result["trace"] = {
                "layers": spans.layer_metrics(recorder),
                "counter_s": recorder.counter_s,
                "hits": dict(recorder.hits),
            }
        else:
            deadline = start + args.seconds
            while _run_pass(main_fn, inputs, records, workdir, start, deadline, cal):
                pass
            result["bursts"] = cal.bursts
        result["records"] = records
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
