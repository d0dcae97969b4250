"""Golden digests of induction-route output.

The sha256 of the canonical representation JSON and certificate JSON that
``construct --method induction`` writes are pinned here, so a change meant
only to make the construction faster fails if it moves a single output byte.
"""

import hashlib
from fractions import Fraction

import pytest

from adoforge.catalog import filiform4, heisenberg5
from adoforge.cli import main
from adoforge.jsonio import algebra_to_json, dumps_canonical
from adoforge.liealg import LieAlgebra

# A unimodular change of basis f_a = sum_i P[i][a] e_i and its inverse Q.
P = [
    [1, 1, 0, -1, 2],
    [1, 2, -2, -1, 3],
    [-1, 1, -3, 2, 0],
    [0, 1, -3, 0, 0],
    [2, 2, 1, 0, 4],
]
Q = [
    [-10, 4, -3, 1, 2],
    [24, -12, 6, 1, -3],
    [8, -4, 2, 0, -1],
    [-5, 2, -1, 0, 1],
    [-9, 5, -2, -1, 1],
]


def rebased(algebra: LieAlgebra) -> LieAlgebra:
    """The same algebra written in the basis f_a, without a grading."""
    n = algebra.dim
    assert all(
        sum(P[i][k] * Q[k][j] for k in range(n)) == (i == j) for i in range(n) for j in range(n)
    )
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            in_e = [Fraction(0)] * n
            for i in range(n):
                for j in range(n):
                    c = P[i][a] * P[j][b]
                    if c:
                        for k, v in algebra.bracket_basis(i, j).items():
                            in_e[k] += c * v
            in_f = {k: sum(Q[k][i] * in_e[i] for i in range(n)) for k in range(n)}
            coeffs = {k: v for k, v in in_f.items() if v}
            if coeffs:
                brackets[(a, b)] = coeffs
    return LieAlgebra(n, brackets)


CASES = {
    "filiform4": (
        filiform4,
        "0b1bda994d376b45b956a72e722561f9c08ec46717ee9d2399c8ed7e8145f58a",
        "3768a4dfb42128ed7f367be93a7461ccfe81974ee6590f69eabc473d40240307",
    ),
    "heisenberg5": (
        heisenberg5,
        "b6073e3614567daaf970938c078fb124e0151a4343f8c9b5ee584440f3ad49ac",
        "3726da5f93f247ab7781bac0b23c7fe816976c4e566523d3f1b26949f55bb7a7",
    ),
    "heisenberg5_rebased": (
        lambda: rebased(heisenberg5()),
        "30802820a23502b538b89c021940fb4d8b85c0a25f41ead3c4671fe5a31765dd",
        "fbcc7539577809bcdea6682a03e89d2c4056585bed1285ce4ce282e9540c093b",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_induction_output_bytes_pinned(tmp_path, capsys, name):
    build, rep_digest, cert_digest = CASES[name]
    alg_path = tmp_path / "algebra.json"
    alg_path.write_text(dumps_canonical(algebra_to_json(build(), name)))
    rep_path, cert_path = tmp_path / "rep.json", tmp_path / "cert.json"
    code = main([
        "construct", str(alg_path), "--method", "induction",
        "--out", str(rep_path), "--certificate", str(cert_path),
    ])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(rep_path.read_bytes()).hexdigest() == rep_digest
    assert hashlib.sha256(cert_path.read_bytes()).hexdigest() == cert_digest
