"""Command-line front end.

Data goes to stdout (or --out); a machine-readable run report goes to stderr
on every invocation, a command line that does not parse included.  A
command returns, exit 0, or prints what it found and raises its typed error,
whose ``kind`` goes into the run report and whose class's ``exit_code`` is
the exit code: 1 validation/verification failure, 2 parse error (an unknown
flag such as ``--max-tensor-power``, a malformed one, a ``--method`` other
than ``auto`` or ``induction``, a bad ``ADO_FORGE_BUDGET``, an input file
that cannot be read or is not UTF-8 JSON, or an output path that cannot be
written), 3 not nilpotent, 4 budget exceeded.  An unexpected exception is
recorded as ``internal_error`` in the run report and then re-raised.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path

from .catalog import EXAMPLE_NAMES, example
from .engine import (
    EngineConfig,
    construct_faithful_nilpotent,
    verify_output,
)
from .errors import (
    AdoForgeError,
    AlgebraMismatch,
    BudgetExceeded,
    NotNilpotent,
    ParseError,
    ValidationFailed,
    VerificationFailed,
)
from .jsonio import (
    algebra_from_json,
    algebra_to_json,
    certificate_to_json,
    digest_bytes,
    dumps_canonical,
    load_json,
    representation_from_json,
    representation_to_json,
)
from .liealg import (
    center,
    minimal_generator_count,
    nilpotency_class,
    validate,
    verify_grading,
)
from .reps import Representation

class _Run:
    """Collects the per-invocation run report."""

    def __init__(self, command: str):
        self.report = {"command": command, "outcome": "ok", "timings": {}}
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time the block as timings[name], also when it raises."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.report["timings"][name] = round(time.perf_counter() - start, 6)

    def emit(self) -> None:
        self.report["timings"]["total"] = round(time.perf_counter() - self._t0, 6)
        print(json.dumps(self.report, sort_keys=True), file=sys.stderr)


def _read_json(path: str, run: _Run, digest_key: str):
    """The JSON document in the file at path; its SHA-256 goes into the run
    report under digest_key.  A file that cannot be read (missing, a
    directory, no permission) or is not UTF-8 is a ``ParseError``."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read input: {exc}") from exc
    run.report[digest_key] = digest_bytes(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from exc
    return load_json(text)


def _read_algebra(path: str, run: _Run):
    return algebra_from_json(_read_json(path, run, "input_digest"))


def _write_data(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write output: {exc}") from exc


def cmd_validate(args, run: _Run) -> None:
    with run.phase("parse"):
        algebra, name = _read_algebra(args.path, run)
    with run.phase("validate"):
        report = validate(algebra)
    violations = [[i, j, k] for i, j, k, _ in report.jacobi_violations]
    run.report["jacobi_violations"] = violations
    run.report["grading_ok"] = report.grading_ok
    if report.ok:
        print(f"{name or args.path}: valid (dim {algebra.dim})")
        return
    for i, j, k in violations:
        print(f"jacobi violation on basis triple ({i},{j},{k})")
    if report.grading_ok is False:
        print("grading is not respected by the brackets")
    raise ValidationFailed("algebra fails validation")


def cmd_info(args, run: _Run) -> None:
    with run.phase("parse"):
        algebra, name = _read_algebra(args.path, run)
    # the series and the center take memory in proportion to dim
    budget = _engine_config().dimension_budget
    if algebra.dim > budget:
        raise BudgetExceeded(f"algebra of dimension {algebra.dim} exceeds the dimension budget {budget}")
    with run.phase("validate"):
        report = validate(algebra)
    if not report.ok:
        print(f"{name or args.path}: invalid algebra")
        raise ValidationFailed("algebra fails validation")
    with run.phase("analyze"):
        try:
            nclass = nilpotency_class(algebra)
        except NotNilpotent:
            nclass = None
        center_dim = center(algebra).dim
        generators = minimal_generator_count(algebra)
        graded = verify_grading(algebra)
    info = {
        "name": name,
        "dim": algebra.dim,
        "nilpotency_class": nclass,
        "center_dim": center_dim,
        "min_generators": generators,
        "graded": graded,
    }
    run.report["info"] = info
    print(f"name: {name}")
    print(f"dim: {algebra.dim}")
    print(f"nilpotency class: {nclass if nclass is not None else 'not nilpotent'}")
    print(f"center dim: {center_dim}")
    print(f"minimal generators: {generators}")
    if graded:
        print(f"grading: {list(algebra.grading.degrees)}")
    else:
        print("grading: none")


def _engine_config(method: str = "auto") -> EngineConfig:
    budget = os.environ.get("ADO_FORGE_BUDGET") or str(EngineConfig().dimension_budget)
    try:
        # int() also reads "1_000", " 20000 ", "+50" and non-ASCII digits;
        # the budget, like a rational literal, is ASCII [0-9]+ only
        if not (budget.isascii() and budget.isdigit()):
            raise ValueError("must be written in the digits 0-9 alone")
        return EngineConfig(method=method, dimension_budget=int(budget))
    except ValueError as exc:
        raise ParseError(f"bad engine setting (ADO_FORGE_BUDGET={budget!r}): {exc}") from exc


def cmd_construct(args, run: _Run) -> None:
    with run.phase("parse"):
        algebra, name = _read_algebra(args.path, run)
    config = _engine_config(args.method)
    with run.phase("construct"):
        try:
            rep, cert = construct_faithful_nilpotent(algebra, config)
        except VerificationFailed as exc:
            run.report["verification"] = exc.report.as_dict()
            raise
    verified = cert.steps_of_kind("verified")[0]
    run.report["output_dims"] = {"algebra_dim": algebra.dim, "space_dim": rep.space_dim}
    run.report["verification"] = {k: v for k, v in verified.items() if k != "kind"}
    with run.phase("emit"):
        algebra_ref = name if name else algebra_to_json(algebra, name)
        _write_data(dumps_canonical(representation_to_json(rep, algebra_ref)), args.out)
        if args.certificate:
            _write_data(dumps_canonical(certificate_to_json(cert)), args.certificate)


def cmd_verify(args, run: _Run) -> None:
    with run.phase("parse"):
        algebra, name = _read_algebra(args.algebra, run)
        doc = _read_json(args.representation, run, "representation_digest")
        matrices, space_dim, _ref = representation_from_json(doc)
    if len(matrices) != algebra.dim:
        print(f"FAIL shape: {len(matrices)} matrices for a dim-{algebra.dim} algebra")
        raise AlgebraMismatch("matrix count differs from algebra dimension")
    rep = Representation(algebra, space_dim, matrices)
    with run.phase("verify"):
        outcome = verify_output(algebra, rep)
    run.report["verification"] = outcome.as_dict()
    if outcome.ok:
        print(f"{name or args.algebra}: representation verified (space dim {space_dim})")
        return
    for prop in outcome.failing():
        print(f"FAIL not {prop}" if prop != "homomorphism" else "FAIL not a homomorphism")
    raise VerificationFailed(outcome, None)


def cmd_examples(args, run: _Run) -> None:
    if args.list or args.name is None:
        for n in EXAMPLE_NAMES:
            print(n)
        return
    run.report["input_digest"] = digest_bytes(args.name.encode("utf-8"))
    algebra = example(args.name)
    run.report["output_dims"] = {"algebra_dim": algebra.dim}
    _write_data(dumps_canonical(algebra_to_json(algebra, args.name)), args.out)


class _ArgumentParser(argparse.ArgumentParser):
    """A bad command line raises ``ParseError``, so ``main`` still reports it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="adoforge",
        description="Construct and verify faithful nilpotent matrix representations "
        "of nilpotent Lie algebras over Q, with exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the Jacobi identity and grading of an algebra file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", help="print dimension, class, center, generators, grading")
    p.add_argument("path")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("construct", help="build a faithful nilpotent representation")
    p.add_argument("path")
    p.add_argument("--method", choices=("auto", "induction"), default="auto")
    p.add_argument("--out", default=None, help="representation JSON path (default stdout)")
    p.add_argument("--certificate", default=None, help="certificate JSON path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a representation file against an algebra file")
    p.add_argument("algebra")
    p.add_argument("representation")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("examples", help="emit a built-in example algebra as JSON")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_examples)

    return parser


_parser = functools.cache(build_parser)  # built at the first main call, then kept


def main(argv=None) -> int:
    run = _Run(None)  # the command is known once the command line parses
    try:
        args = _parser().parse_args(argv)
        run.report["command"] = args.command
        args.func(args, run)
    except AdoForgeError as exc:
        run.report["outcome"] = {"error": exc.kind, "message": str(exc)}
        return exc.exit_code
    except Exception as exc:
        run.report["outcome"] = {"error": "internal_error", "message": f"{type(exc).__name__}: {exc}"}
        raise
    finally:
        run.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
