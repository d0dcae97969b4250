"""Golden digests of induction-route and graded-route output.

The sha256 of the canonical representation JSON and certificate JSON that
``construct --method induction`` and ``construct --method auto`` (the graded
route, on graded inputs) write are pinned in ``golden.sha256``, next to this
file, so a change meant only to make the construction faster fails if it
moves a single output byte.  That file is in ``sha256sum`` format, one line
per ``<method>/<name>/rep.json`` or ``.../cert.json``, so the CI can check
the same digests with ``sha256sum -c`` on files written under those paths.
"""

import hashlib
from pathlib import Path

import pytest

from adoforge.catalog import census7, cn7a, example, filiform4, heisenberg5
from adoforge.cli import main
from adoforge.jsonio import algebra_to_json, dumps_canonical
from adoforge.liealg import LieAlgebra
from adoforge.linalg import RationalMatrix

from conftest import rebase

# "<digest>  <method>/<name>/<file>" per line, as sha256sum writes it
LINES = Path(__file__).with_name("golden.sha256").read_text().splitlines()
DIGESTS = {path: digest for digest, path in (line.split("  ", 1) for line in LINES)}

# A unimodular change of basis f_a = sum_i P[i][a] e_i.
P = [
    [1, 1, 0, -1, 2],
    [1, 2, -2, -1, 3],
    [-1, 1, -3, 2, 0],
    [0, 1, -3, 0, 0],
    [2, 2, 1, 0, 4],
]


def rebased(algebra: LieAlgebra) -> LieAlgebra:
    """The same algebra written in the basis f_a, without a grading."""
    return rebase(algebra, RationalMatrix.from_rows(P))


CASES = {
    # the corpus input with 1/2 structure constants, so its rows are
    # scaled by the lcm of their denominators before elimination
    "census7": census7,
    # the deepest ladder in the catalog: class 6, output space_dim 54
    "cn7a": cn7a,
    "filiform4": filiform4,
    "heisenberg5": heisenberg5,
    "heisenberg5_rebased": lambda: rebased(heisenberg5()),
    # the one pinned input presented with I = 0 (kernel_dim 0): its output
    # is the seed, F(2,3)'s current algebra extended by its 97 cocycles,
    # whose Z^1 system holds mostly single-entry rows
    "free2_3_rebased": lambda: rebased(example("free2_3")),
    # [e0, ei] = e(i+1) without a grading: 14 kernel searches, 8 of them in
    # blocks of the tensor square of two or three glue summands
    "filiform6": lambda: LieAlgebra(6, {(0, i): {i + 1: 1} for i in range(1, 5)}),
}

GRADED_CASES = ("filiform4", "free2_3", "heisenberg3")


def assert_output_pinned(tmp_path, capsys, algebra, name, method):
    alg_path = tmp_path / "algebra.json"
    alg_path.write_text(dumps_canonical(algebra_to_json(algebra, name)))
    rep_path, cert_path = tmp_path / "rep.json", tmp_path / "cert.json"
    code = main([
        "construct", str(alg_path), "--method", method,
        "--out", str(rep_path), "--certificate", str(cert_path),
    ])
    capsys.readouterr()
    assert code == 0
    for path in (rep_path, cert_path):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[f"{method}/{name}/{path.name}"]


def test_every_digest_is_checked():
    cases = [("induction", name) for name in CASES] + [("auto", name) for name in GRADED_CASES]
    assert set(DIGESTS) == {f"{method}/{name}/{file}" for method, name in cases for file in ("rep.json", "cert.json")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_induction_output_bytes_pinned(tmp_path, capsys, name):
    assert_output_pinned(tmp_path, capsys, CASES[name](), name, "induction")


@pytest.mark.parametrize("name", GRADED_CASES)
def test_graded_output_bytes_pinned(tmp_path, capsys, name):
    assert_output_pinned(tmp_path, capsys, example(name), name, "auto")
