"""Golden digests of induction-route and graded-route output.

The sha256 of the canonical representation JSON and certificate JSON that
``construct --method induction`` and ``construct --method auto`` (the graded
route, on graded inputs) write are pinned here, so a change meant only to
make the construction faster fails if it moves a single output byte.
"""

import hashlib

import pytest

from adoforge.catalog import example, filiform4, heisenberg5
from adoforge.cli import main
from adoforge.jsonio import algebra_to_json, dumps_canonical
from adoforge.liealg import LieAlgebra
from adoforge.linalg import RationalMatrix

from conftest import rebase

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
    "filiform4": (
        filiform4,
        "0b1bda994d376b45b956a72e722561f9c08ec46717ee9d2399c8ed7e8145f58a",
        "219316b5957e192bcf6ae1995d30334f1ca0d11d2c2fffcc81a0f3744bda5b11",
    ),
    "heisenberg5": (
        heisenberg5,
        "b6073e3614567daaf970938c078fb124e0151a4343f8c9b5ee584440f3ad49ac",
        "0c7b8069f9d42afed38bc49c53dc76a02444214f95b5f38d2c9bc3663417d990",
    ),
    "heisenberg5_rebased": (
        lambda: rebased(heisenberg5()),
        "30802820a23502b538b89c021940fb4d8b85c0a25f41ead3c4671fe5a31765dd",
        "d133cadeec74f42fb310368101eb61203b912461f6349841afbb6e1238d3e9a9",
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


GRADED_CASES = {
    "heisenberg3": (
        "61ad730dfb28534d1407527da50feff22415a46d526b79ea4489a9b0488f9c49",
        "b323ab5ebcd4d20057d172707a327f2499d6bae34a0b1a3b4095b01e6cd257d7",
    ),
    "filiform4": (
        "486b642b58394349751cb6497e5dc3ed3e298bc1db230d4b9d0894e6e579fb94",
        "10561aecc1c79ce778b0888853257773d129f0135d7212d24ca11a4d9833bb9f",
    ),
    "free2_3": (
        "cdbfccfa86eb760b099bdf724cb5a14bb99d2b61e39a3209d627f73593460806",
        "b9f0e475f3ec91140c609221918b444fc6a8f0b373263a23adecdeac80a9bf15",
    ),
}


@pytest.mark.parametrize("name", sorted(GRADED_CASES))
def test_graded_output_bytes_pinned(tmp_path, capsys, name):
    rep_digest, cert_digest = GRADED_CASES[name]
    alg_path = tmp_path / "algebra.json"
    alg_path.write_text(dumps_canonical(algebra_to_json(example(name), name)))
    rep_path, cert_path = tmp_path / "rep.json", tmp_path / "cert.json"
    code = main([
        "construct", str(alg_path), "--method", "auto",
        "--out", str(rep_path), "--certificate", str(cert_path),
    ])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(rep_path.read_bytes()).hexdigest() == rep_digest
    assert hashlib.sha256(cert_path.read_bytes()).hexdigest() == cert_digest
