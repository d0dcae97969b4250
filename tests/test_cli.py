import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import adoforge.cli as cli
import adoforge.engine as engine
import adoforge.freenilp as freenilp
from adoforge.catalog import heisenberg3
from adoforge.cli import main
from adoforge.errors import ParseError
from adoforge.jsonio import (
    algebra_from_json,
    algebra_to_json,
    certificate_from_json,
    certificate_to_json,
    dumps_canonical,
    load_json,
    matrix_from_json,
    matrix_to_json,
    parse_rational,
    representation_from_json,
    representation_to_json,
)
from adoforge.catalog import example
from adoforge.liealg import LieAlgebra
from adoforge.linalg import RationalMatrix, solve_multi
from adoforge.reps import Representation

from conftest import changes_of_basis


# the Jacobi identity fails on the basis triple (0, 1, 2)
BROKEN_JACOBI = {
    "name": "broken",
    "dim": 3,
    "brackets": [
        {"left": 0, "right": 1, "result": {"2": "1"}},
        {"left": 1, "right": 2, "result": {"0": "1"}},
        {"left": 0, "right": 2, "result": {"0": "1"}},
    ],
}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    report = json.loads(captured.err.strip().splitlines()[-1])
    return code, captured.out, report


def write_example(tmp_path, name, capsys):
    path = tmp_path / f"{name}.json"
    code, out, _ = run_cli(["examples", name, "--out", str(path)], capsys)
    assert code == 0
    return path


class TestJsonFormats:
    def test_matrix_round_trip(self):
        m = RationalMatrix.from_rows([[1, 0], ["1/2", -3]])
        again = matrix_from_json(matrix_to_json(m))
        assert again == m

    def test_matrix_entries_sorted_no_zeros(self):
        m = RationalMatrix.from_rows([[0, 2], [1, 0]])
        obj = matrix_to_json(m)
        assert obj["entries"] == [[0, 1, "2"], [1, 0, "1"]]

    def test_matrix_rejects_duplicates(self):
        with pytest.raises(ParseError):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [[0, 0, "1"], [0, 0, "2"]]})

    def test_algebra_round_trip(self):
        h3 = heisenberg3()
        obj = algebra_to_json(h3, "heisenberg3")
        back, name = algebra_from_json(obj)
        assert name == "heisenberg3"
        assert back.structurally_equal(h3)
        assert back.grading.degrees == h3.grading.degrees

    def test_algebra_rejects_wrong_order(self):
        with pytest.raises(ParseError):
            algebra_from_json(
                {"name": "x", "dim": 2, "brackets": [{"left": 1, "right": 0, "result": {"0": "1"}}]}
            )

    def test_certificate_round_trip(self):
        from adoforge.engine import construct_faithful_nilpotent

        rep, cert = construct_faithful_nilpotent(heisenberg3())
        obj = certificate_to_json(cert)
        assert obj["format_version"] == 2
        again = certificate_from_json(load_json(dumps_canonical(obj)))
        assert again.steps == cert.steps and again.config == cert.config
        assert again.format_version == 2


class TestExamples:
    def test_list_names(self, capsys):
        code, out, _ = run_cli(["examples", "--list"], capsys)
        assert code == 0
        names = out.strip().splitlines()
        assert len(names) == 9
        assert "heisenberg3" in names and "free{r}_{c}" in names
        assert "cn7a" in names and "cn7b" in names and "census7" in names

    def test_heisenberg3_payload(self, capsys):
        code, out, _ = run_cli(["examples", "heisenberg3"], capsys)
        assert code == 0
        algebra, name = algebra_from_json(json.loads(out))
        assert name == "heisenberg3" and algebra.dim == 3
        assert algebra.grading.degrees == (1, 1, 2)

    def test_free_2_3(self, capsys):
        code, out, _ = run_cli(["examples", "free2_3"], capsys)
        assert code == 0
        algebra, _ = algebra_from_json(json.loads(out))
        assert algebra.dim == 5

    def test_unknown_name(self, capsys):
        code, _, report = run_cli(["examples", "nonsense"], capsys)
        assert code == 2
        assert report["outcome"]["error"] == "unknown_example"


class TestValidateCommand:
    def test_valid_algebra(self, tmp_path, capsys):
        path = write_example(tmp_path, "heisenberg3", capsys)
        code, out, report = run_cli(["validate", str(path)], capsys)
        assert code == 0 and report["outcome"] == "ok"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, report = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert report["outcome"]["error"] == "parse_error"

    def test_phase_timings_recorded(self, tmp_path, capsys):
        """Each phase entered is timed, the parse phase also when it raises
        ``ParseError``, and so is the whole run."""
        good = write_example(tmp_path, "heisenberg3", capsys)
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        for path, expected, phases in ((good, 0, {"parse", "validate", "total"}), (bad, 2, {"parse", "total"})):
            code, _, report = run_cli(["validate", str(path)], capsys)
            assert code == expected
            assert set(report["timings"]) == phases
            assert all(seconds >= 0 for seconds in report["timings"].values())

    def test_jacobi_violation_listed(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BROKEN_JACOBI))
        code, out, report = run_cli(["validate", str(path)], capsys)
        assert code == 1
        assert report["jacobi_violations"] == [[0, 1, 2]]
        assert "jacobi violation" in out

    def test_missing_file(self, capsys):
        code, _, report = run_cli(["validate", "/does/not/exist.json"], capsys)
        assert code == 2
        assert report["outcome"]["error"] == "parse_error"
        assert report["outcome"]["message"].startswith("cannot read input:")


class TestInfoCommand:
    def test_heisenberg3(self, tmp_path, capsys):
        path = write_example(tmp_path, "heisenberg3", capsys)
        code, out, report = run_cli(["info", str(path)], capsys)
        assert code == 0
        assert report["info"] == {
            "name": "heisenberg3",
            "dim": 3,
            "nilpotency_class": 2,
            "center_dim": 1,
            "min_generators": 2,
            "graded": True,
        }

    def test_abelian2(self, tmp_path, capsys):
        path = write_example(tmp_path, "abelian2", capsys)
        code, _, report = run_cli(["info", str(path)], capsys)
        assert code == 0
        info = report["info"]
        assert info["dim"] == 2 and info["nilpotency_class"] == 1 and info["center_dim"] == 2

    def test_solvable_flagged(self, tmp_path, capsys):
        path = write_example(tmp_path, "solvable2", capsys)
        code, out, report = run_cli(["info", str(path)], capsys)
        assert code == 0
        assert report["info"]["nilpotency_class"] is None
        assert "not nilpotent" in out


class TestConstructCommand:
    def test_graded_method(self, tmp_path, capsys):
        """``auto`` takes the graded route on an input with a grading."""
        path = write_example(tmp_path, "heisenberg3", capsys)
        rep_path, cert_path = tmp_path / "rep.json", tmp_path / "cert.json"
        code, _, report = run_cli(
            ["construct", str(path), "--method", "auto", "--out", str(rep_path), "--certificate", str(cert_path)],
            capsys,
        )
        assert code == 0
        assert report["verification"] == {"homomorphism": True, "faithful": True, "nilpotent": True}
        assert report["output_dims"] == {"algebra_dim": 3, "space_dim": 4}
        cert = certificate_from_json(json.loads(cert_path.read_text()))
        assert cert.steps[0]["kind"] == "graded_pipeline"

    def test_induction_certificate_structure(self, tmp_path, capsys):
        path = write_example(tmp_path, "filiform4", capsys)
        rep_path, cert_path = tmp_path / "rep.json", tmp_path / "cert.json"
        code, _, _ = run_cli(
            [
                "construct",
                str(path),
                "--method",
                "induction",
                "--out",
                str(rep_path),
                "--certificate",
                str(cert_path),
            ],
            capsys,
        )
        assert code == 0
        cert = certificate_from_json(json.loads(cert_path.read_text()))
        kinds = [s["kind"] for s in cert.steps]
        assert kinds.count("flag_step") == 1
        assert kinds.count("kernel_search") == 1

    def test_solvable_exits_3(self, tmp_path, capsys):
        path = write_example(tmp_path, "solvable2", capsys)
        code, _, report = run_cli(["construct", str(path)], capsys)
        assert code == 3
        assert report["outcome"]["error"] == "not_nilpotent"

    def test_budget_env_exits_4(self, tmp_path, capsys, monkeypatch):
        path = write_example(tmp_path, "filiform4", capsys)
        monkeypatch.setenv("ADO_FORGE_BUDGET", "8")
        code, _, report = run_cli(["construct", str(path), "--method", "induction"], capsys)
        assert code == 4

    def test_graded_budget_exits_4_before_validating(self, tmp_path, capsys, monkeypatch):
        """dim + 1 = 20001 is over the default budget: the graded route
        raises before the O(n^3) Jacobi check, counted through the module
        bindings (the series walk is ``present``'s, through ``freenilp``).
        A call is counted and then refused, since the real check would not
        finish on this input."""
        calls = {"validate": 0, "nilpotency_class": 0}

        def refusing(name):
            def wrapper(*args):
                calls[name] += 1
                raise RuntimeError(f"{name} called before the budget check")
            return wrapper

        monkeypatch.setattr(engine, "validate", refusing("validate"))
        monkeypatch.setattr(cli, "validate", refusing("validate"))
        monkeypatch.setattr(freenilp, "nilpotency_class", refusing("nilpotency_class"))
        path = write_example(tmp_path, "abelian20000", capsys)
        code, _, report = run_cli(["construct", str(path)], capsys)
        assert code == 4
        assert report["outcome"]["error"] == "budget_exceeded"
        assert "20001" in report["outcome"]["message"]
        assert calls == {"validate": 0, "nilpotency_class": 0}

    def test_graded_budget_exits_4_before_building(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "graded_faithful_rep", lambda a: calls.append(a))
        path = write_example(tmp_path, "heisenberg3", capsys)
        monkeypatch.setenv("ADO_FORGE_BUDGET", "3")
        code, _, report = run_cli(["construct", str(path)], capsys)
        assert code == 4
        assert report["outcome"]["error"] == "budget_exceeded"
        assert calls == []

    @pytest.mark.parametrize("method", ["auto", "induction"])
    def test_large_ungraded_exits_4_before_validating(self, tmp_path, capsys, method):
        """dim 201 without a grading is over the free nilpotent cap of the
        induction route, which refuses it before ``validate``: the Jacobi
        failure on (0, 1, 2) goes unseen, so the exit is 4, not 1."""
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(BROKEN_JACOBI, dim=201)))
        code, _, report = run_cli(["construct", str(path), "--method", method], capsys)
        assert code == 4
        assert report["outcome"]["error"] == "budget_exceeded"
        assert "input dimension 201" in report["outcome"]["message"]

    @pytest.mark.parametrize(
        "budget,extra",
        [
            ("abc", []),
            ("0", []),
            (None, ["--max-tensor-power", "0"]),
            (None, ["--max-tensor-power", "abc"]),
            (None, ["--bogus"]),
            (None, ["--no-compress"]),
            (None, ["--method", "graded"]),
        ],
        ids=["budget-abc", "budget-0", "tensor-power-0", "tensor-power-abc", "bogus", "no-compress", "method-graded"],
    )
    def test_bad_setting_exits_2(self, tmp_path, capsys, monkeypatch, budget, extra):
        path = write_example(tmp_path, "heisenberg3", capsys)
        if budget is not None:
            monkeypatch.setenv("ADO_FORGE_BUDGET", budget)
        code, _, report = run_cli(["construct", str(path), *extra], capsys)
        assert code == 2
        assert report["outcome"]["error"] == "parse_error"
        assert all(word in report["outcome"]["message"] for word in extra or ["ADO_FORGE_BUDGET"])

    def test_crash_reported_as_internal_error(self, tmp_path, capsys, monkeypatch):
        def crash(*args):
            raise RuntimeError("boom")

        path = write_example(tmp_path, "heisenberg3", capsys)
        monkeypatch.setattr(cli, "construct_faithful_nilpotent", crash)
        with pytest.raises(RuntimeError):
            main(["construct", str(path)])
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["outcome"] == {"error": "internal_error", "message": "RuntimeError: boom"}

    def test_invalid_algebra_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BROKEN_JACOBI))
        code, _, report = run_cli(["construct", str(path)], capsys)
        assert code == 1
        assert report["outcome"]["error"] == "validation_failed"

    @pytest.mark.parametrize("method", ["auto", "induction"])
    def test_checks_run_once_per_construct(self, tmp_path, capsys, monkeypatch, method):
        """The input is validated and the output verified exactly once, in
        the library and through the CLI, whichever module binding is used."""
        calls = {"validate": 0, "verify_output": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            wrapped = counting(name, getattr(engine, name))
            monkeypatch.setattr(engine, name, wrapped)
            monkeypatch.setattr(cli, name, wrapped)
        engine.construct_faithful_nilpotent(heisenberg3(), engine.EngineConfig(method=method))
        assert calls == {"validate": 1, "verify_output": 1}
        path = write_example(tmp_path, "heisenberg3", capsys)
        calls.update(validate=0, verify_output=0)
        code, _, report = run_cli(["construct", str(path), "--method", method], capsys)
        assert code == 0 and calls == {"validate": 1, "verify_output": 1}
        assert report["verification"] == {"homomorphism": True, "faithful": True, "nilpotent": True}

    def test_round_trip_verify(self, tmp_path, capsys):
        for name in ("heisenberg3", "filiform4"):
            path = write_example(tmp_path, name, capsys)
            rep_path = tmp_path / f"{name}-rep.json"
            code, _, _ = run_cli(["construct", str(path), "--out", str(rep_path)], capsys)
            assert code == 0
            code, _, report = run_cli(["verify", str(path), str(rep_path)], capsys)
            assert code == 0 and report["outcome"] == "ok"

    def test_ungraded_input_falls_back_to_induction(self, tmp_path, capsys):
        obj = {
            "name": "bare-h3",
            "dim": 3,
            "brackets": [{"left": 0, "right": 1, "result": {"2": "1"}}],
        }
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(obj))
        rep_path = tmp_path / "bare-rep.json"
        code, _, report = run_cli(["construct", str(path), "--out", str(rep_path)], capsys)
        assert code == 0
        assert report["verification"]["faithful"] is True
        code, _, _ = run_cli(["verify", str(path), str(rep_path)], capsys)
        assert code == 0
        code, _, report = run_cli(["construct", str(path), "--method", "graded"], capsys)
        assert code == 2
        assert report["outcome"]["error"] == "parse_error"
        assert "'graded'" in report["outcome"]["message"]

    @pytest.mark.parametrize("name", ["cn7a", "cn7b"])
    def test_characteristically_nilpotent_by_induction(self, tmp_path, capsys, name):
        """No grading and no nonsingular derivation: the induction route
        builds and verifies a representation of dimension 54."""
        path = write_example(tmp_path, name, capsys)
        rep_path = tmp_path / "rep.json"
        code, _, report = run_cli(["construct", str(path), "--method", "induction", "--out", str(rep_path)], capsys)
        assert code == 0
        assert report["output_dims"] == {"algebra_dim": 7, "space_dim": 54}
        assert report["verification"] == {"homomorphism": True, "faithful": True, "nilpotent": True}
        code, _, report = run_cli(["verify", str(path), str(rep_path)], capsys)
        assert code == 0 and report["outcome"] == "ok"

    def test_cn7a_plus_heisenberg5_exits_4(self, tmp_path, capsys):
        """cn7a + heisenberg5 needs 2 + 4 generators and class 6, and F(6, 6)
        has dimension 9695, over the free nilpotent cap of 200."""
        a, b = example("cn7a"), example("heisenberg5")
        brackets = dict(a.brackets)
        for (i, j), coeffs in b.brackets.items():
            brackets[(a.dim + i, a.dim + j)] = {a.dim + k: v for k, v in coeffs.items()}
        path = tmp_path / "sum.json"
        path.write_text(dumps_canonical(algebra_to_json(LieAlgebra(a.dim + b.dim, brackets), "cn7a+heisenberg5")))
        code, _, report = run_cli(["construct", str(path)], capsys)
        assert code == 4
        assert report["outcome"]["error"] == "budget_exceeded"
        assert "rank 6 and class 6 has dimension 9695 > budget 200" in report["outcome"]["message"]


class TestVerifyCommand:
    def test_standard_rep_passes(self, tmp_path, capsys, h3, std_h3_rep):
        alg_path = write_example(tmp_path, "heisenberg3", capsys)
        rep_path = tmp_path / "std.json"
        rep_path.write_text(dumps_canonical(representation_to_json(std_h3_rep, "heisenberg3")))
        code, _, report = run_cli(["verify", str(alg_path), str(rep_path)], capsys)
        assert code == 0

    def test_adjoint_not_faithful(self, tmp_path, capsys, h3):
        from adoforge.reps import adjoint

        alg_path = write_example(tmp_path, "heisenberg3", capsys)
        rep_path = tmp_path / "adj.json"
        rep_path.write_text(dumps_canonical(representation_to_json(adjoint(h3), "heisenberg3")))
        code, out, report = run_cli(["verify", str(alg_path), str(rep_path)], capsys)
        assert code == 1
        assert report["verification"]["faithful"] is False
        assert "not faithful" in out

    def test_identity_not_nilpotent(self, tmp_path, capsys):
        alg_path = write_example(tmp_path, "abelian1", capsys)
        rep = {
            "algebra": "abelian1",
            "space_dim": 1,
            "matrices": [{"rows": 1, "cols": 1, "entries": [[0, 0, "1"]]}],
        }
        rep_path = tmp_path / "ident.json"
        rep_path.write_text(json.dumps(rep))
        code, out, report = run_cli(["verify", str(alg_path), str(rep_path)], capsys)
        assert code == 1
        assert report["verification"]["nilpotent"] is False
        assert "not nilpotent" in out



class TestStrictIntegers:
    """Every integer field is a JSON int: bool, float and str are parse
    errors (exit 2), and a bracket result key is a canonical decimal."""

    @pytest.fixture
    def h3_files(self, tmp_path, capsys):
        alg_path = write_example(tmp_path, "heisenberg3", capsys)
        rep_path = tmp_path / "rep.json"
        code, _, _ = run_cli(["construct", str(alg_path), "--out", str(rep_path)], capsys)
        assert code == 0
        return alg_path, rep_path

    def verify_tampered(self, h3_files, capsys, tamper):
        alg_path, rep_path = h3_files
        rep = json.loads(rep_path.read_text())
        tamper(rep)
        rep_path.write_text(json.dumps(rep))
        return run_cli(["verify", str(alg_path), str(rep_path)], capsys)

    def test_untampered_rep_verifies(self, h3_files, capsys):
        code, _, _ = self.verify_tampered(h3_files, capsys, lambda rep: None)
        assert code == 0

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda rep: rep["matrices"][0].update(rows=rep["space_dim"] + 0.9),
            lambda rep: rep["matrices"][0].update(cols=str(rep["space_dim"])),
            lambda rep: rep["matrices"][0]["entries"][0].__setitem__(0, True),
            lambda rep: rep["matrices"][0]["entries"][0].__setitem__(1, float(rep["matrices"][0]["entries"][0][1])),
            lambda rep: rep.update(space_dim=True),
            lambda rep: rep.update(space_dim=float(rep["space_dim"])),
        ],
        ids=["float-rows", "string-cols", "bool-row-index", "float-col-index", "bool-space-dim", "float-space-dim"],
    )
    def test_non_integer_rep_fields_exit_2(self, h3_files, capsys, tamper):
        code, _, report = self.verify_tampered(h3_files, capsys, tamper)
        assert code == 2
        assert report["outcome"]["error"] == "parse_error"

    @pytest.mark.parametrize(
        "field, value",
        [("dim", True), ("dim", 3.0), ("dim", "3"), ("left", False), ("right", True), ("right", 1.0), ("grading", [True, 1, 2])],
    )
    def test_non_integer_algebra_fields_exit_2(self, tmp_path, capsys, field, value):
        doc = {"name": "h3", "dim": 3, "brackets": [{"left": 0, "right": 1, "result": {"2": "1"}}]}
        if field in ("left", "right"):
            doc["brackets"][0][field] = value
        elif field == "dim":  # no bracket to fall out of range of a bool dim
            doc.update(dim=value, brackets=[])
        else:
            doc[field] = value
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        code, _, report = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert report["outcome"]["error"] == "parse_error"

    @pytest.mark.parametrize(
        "result",
        [{"2": "1", "02": "5"}, {"02": "1"}, {"+2": "1"}, {" 2": "1"}, {"2.0": "1"}, {"-0": "1"}, {"\u0662": "1"}],
        ids=["two-spellings", "leading-zero", "plus", "space", "decimal-point", "minus-zero", "arabic-digit"],
    )
    def test_non_canonical_result_keys_exit_2(self, tmp_path, capsys, result):
        doc = {"name": "h3", "dim": 3, "brackets": [{"left": 0, "right": 1, "result": result}]}
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        for command in (["validate"], ["construct"]):
            code, _, report = run_cli(command + [str(path)], capsys)
            assert code == 2
            assert report["outcome"]["error"] == "parse_error"

    @pytest.mark.parametrize("brackets", [None, 5, {}], ids=["null", "number", "object"])
    def test_brackets_not_a_list(self, tmp_path, capsys, brackets):
        doc = {"name": "a", "dim": 2, "brackets": brackets}
        with pytest.raises(ParseError, match="brackets must be a list"):
            algebra_from_json(doc)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        code, _, report = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert report["outcome"] == {"error": "parse_error", "message": "brackets must be a list"}

    def test_canonical_keys_and_zero_still_parse(self):
        doc = {"name": "a", "dim": 11, "brackets": [{"left": 0, "right": 10, "result": {"0": "1", "10": "-1/2"}}]}
        algebra, _ = algebra_from_json(doc)
        assert algebra.brackets == {(0, 10): {0: 1, 10: Fraction(-1, 2)}}
        assert matrix_from_json({"rows": 0, "cols": 0, "entries": []}) == RationalMatrix.zero(0, 0)

# Fraction's own string grammar accepts each of the first six on some or all
# supported Python versions ("1_0" from 3.11, "2 / 3" from 3.12)
BAD_LITERALS = ["1.5", "1e3", " 3 ", "\u0663", "1_0", "2 / 3", "1/0", "+3", "3/", "/3", "", "1/-2", "3\n", "0x10"]


class TestRationalLiterals:
    """A rational literal is ASCII ``-?[0-9]+(/[0-9]+)?`` with a nonzero
    denominator, or a JSON integer; anything else is a parse error (exit 2)."""

    @pytest.mark.parametrize(
        "value, expected",
        [("-3/4", Fraction(-3, 4)), ("7", Fraction(7)), ("-0", Fraction(0)), ("6/4", Fraction(3, 2)), ("007", Fraction(7)), (-5, Fraction(-5))],
    )
    def test_good_literals(self, value, expected):
        assert parse_rational(value) == expected
        assert type(parse_rational(value)) is Fraction

    @pytest.mark.parametrize("literal", BAD_LITERALS)
    def test_bad_literal_is_a_parse_error(self, literal):
        with pytest.raises(ParseError, match="bad rational literal"):
            parse_rational(literal)
        with pytest.raises(ParseError, match="bad rational literal"):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [[0, 0, literal]]})
        with pytest.raises(ParseError, match="bad rational literal"):
            algebra_from_json({"dim": 3, "brackets": [{"left": 0, "right": 1, "result": {"2": literal}}]})

    @pytest.mark.parametrize("literal", BAD_LITERALS)
    def test_bad_literal_exits_2(self, tmp_path, capsys, literal):
        alg_path = tmp_path / "alg.json"
        alg_path.write_text(json.dumps({"dim": 3, "brackets": [{"left": 0, "right": 1, "result": {"2": literal}}]}))
        code, _, report = run_cli(["validate", str(alg_path)], capsys)
        assert code == 2
        assert report["outcome"]["error"] == "parse_error"
        alg_path = write_example(tmp_path, "abelian1", capsys)
        rep_path = tmp_path / "rep.json"
        doc = {"algebra": "abelian1", "space_dim": 2, "matrices": [{"rows": 2, "cols": 2, "entries": [[0, 1, literal]]}]}
        rep_path.write_text(json.dumps(doc))
        code, _, report = run_cli(["verify", str(alg_path), str(rep_path)], capsys)
        assert code == 2
        assert report["outcome"]["error"] == "parse_error"


def rep_doc(*entry_lists):
    return {"algebra": "a", "space_dim": 2, "matrices": [{"rows": 2, "cols": 2, "entries": e} for e in entry_lists]}


class TestRepresentationReader:
    """One literal map per document, and row maps built in one pass: the
    checks of the entry-by-entry reader all still hold."""

    @pytest.mark.parametrize("literal, flag", [("1", True), ("0", False), ("1", False), ("0", True)])
    def test_bool_value_after_string_literal(self, literal, flag):
        for doc in (rep_doc([[0, 0, literal], [0, 1, flag]]), rep_doc([[0, 0, literal]], [[1, 1, flag]])):
            with pytest.raises(ParseError, match="expected a rational"):
                representation_from_json(doc)

    @pytest.mark.parametrize("second", ["1", "0", 2])
    def test_duplicate_after_zero(self, second):
        entries = [[0, 0, "0"], [0, 0, second]]
        with pytest.raises(ParseError, match="duplicate matrix entry at \\(0,0\\)"):
            matrix_from_json({"rows": 2, "cols": 2, "entries": entries})
        with pytest.raises(ParseError, match="duplicate matrix entry"):
            representation_from_json(rep_doc([[1, 1, "0"]], entries))

    def test_zeros_dropped(self):
        m = matrix_from_json({"rows": 3, "cols": 3, "entries": [[0, 0, "0"], [1, 1, "2/4"], [1, 0, 0], [2, 2, "-0"]]})
        assert m._data == {1: {1: Fraction(1, 2)}}
        assert m == RationalMatrix.from_entries(3, 3, [(1, 1, Fraction(1, 2))])
        assert matrix_to_json(m)["entries"] == [[1, 1, "1/2"]]

    def test_literals_shared_across_matrices(self):
        matrices, space_dim, ref = representation_from_json(rep_doc([[0, 0, "1/3"], [0, 1, 3]], [[1, 0, "1/3"]]))
        assert (space_dim, ref) == (2, "a")
        assert matrices[0]._data == {0: {0: Fraction(1, 3), 1: Fraction(3)}}
        assert matrices[1]._data == {1: {0: Fraction(1, 3)}}
        assert all(type(v) is Fraction for m in matrices for _, _, v in m.entries())

    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from(["heisenberg3", "filiform4", "free2_2", "abelian3"]), st.data())
    def test_representation_round_trip(self, name, data):
        from adoforge.engine import construct_faithful_nilpotent

        rep, _ = construct_faithful_nilpotent(example(name))
        n = rep.space_dim
        p = data.draw(changes_of_basis(n))
        q = solve_multi(p, RationalMatrix.identity(n))
        conjugated = Representation(rep.algebra, n, [q @ m @ p for m in rep.matrices])
        assume(any(v.denominator != 1 for m in conjugated.matrices for _, _, v in m.entries()))
        text = dumps_canonical(representation_to_json(conjugated, name))
        matrices, space_dim, ref = representation_from_json(load_json(text))
        assert list(matrices) == list(conjugated.matrices)
        assert (space_dim, ref) == (n, name)
        assert all(type(v) is Fraction for m in matrices for _, _, v in m.entries())


class TestDeterminism:
    def test_construct_twice_byte_identical(self, tmp_path, capsys):
        path = write_example(tmp_path, "heisenberg3", capsys)
        outs = []
        certs = []
        for tag in ("a", "b"):
            rep_path = tmp_path / f"rep-{tag}.json"
            cert_path = tmp_path / f"cert-{tag}.json"
            code, _, _ = run_cli(
                ["construct", str(path), "--out", str(rep_path), "--certificate", str(cert_path)],
                capsys,
            )
            assert code == 0
            outs.append(rep_path.read_bytes())
            certs.append(cert_path.read_bytes())
        assert outs[0] == outs[1]
        assert certs[0] == certs[1]


class TestFileErrors:
    """A file that cannot be read, decoded or written is a parse_error with
    exit 2, never an internal_error."""

    def test_non_utf8_representation(self, tmp_path, capsys):
        alg_path = write_example(tmp_path, "heisenberg3", capsys)
        rep_path = tmp_path / "rep.json"
        rep_path.write_bytes(b'{"space_dim": 1, "algebra": "\xff"}')
        code, _, report = run_cli(["verify", str(alg_path), str(rep_path)], capsys)
        assert code == 2
        assert report["outcome"]["error"] == "parse_error"
        assert report["outcome"]["message"].startswith("input is not UTF-8:")
        assert len(report["representation_digest"]) == 64

    @pytest.mark.parametrize("command", ["validate", "info", "construct", "verify-algebra", "verify-representation"])
    def test_directory_as_input(self, tmp_path, capsys, command):
        alg_path = write_example(tmp_path, "heisenberg3", capsys)
        argv = {
            "validate": ["validate", str(tmp_path)],
            "info": ["info", str(tmp_path)],
            "construct": ["construct", str(tmp_path)],
            "verify-algebra": ["verify", str(tmp_path), str(alg_path)],
            "verify-representation": ["verify", str(alg_path), str(tmp_path)],
        }[command]
        code, _, report = run_cli(argv, capsys)
        assert code == 2
        assert report["outcome"]["error"] == "parse_error"
        assert report["outcome"]["message"].startswith("cannot read input:")

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize("flag", ["--out", "--certificate"])
    def test_output_cannot_be_written(self, tmp_path, capsys, target, flag):
        alg_path = write_example(tmp_path, "heisenberg3", capsys)
        out = tmp_path if target == "directory" else tmp_path / "missing" / "r.json"
        code, _, report = run_cli(["construct", str(alg_path), flag, str(out)], capsys)
        assert code == 2
        assert report["outcome"]["error"] == "parse_error"
        assert report["outcome"]["message"].startswith("cannot write output:")

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, _, report = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert report["outcome"]["error"] == "parse_error"
        assert report["outcome"]["message"].startswith("invalid JSON:")

    def test_examples_out_cannot_be_written(self, tmp_path, capsys):
        code, _, report = run_cli(["examples", "heisenberg3", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert report["outcome"]["message"].startswith("cannot write output:")
