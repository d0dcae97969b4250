"""The benchmark's own exact check of a constructed representation.

It reads the algebra and representation files and never calls into the
package.  Three properties are checked on the basis:

* the commutator identity rho([e_i, e_j]) = [rho(e_i), rho(e_j)] for i < j;
* faithfulness: the sd^2 x n matrix stacking the flattened rho(e_i) has rank n;
* rho(e_i)^sd = 0 for every i.  Once rho is a homomorphism and L is
  nilpotent this is enough: the weights of a nilpotent linear Lie algebra are
  linear, so every weight is zero when each basis element acts nilpotently.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import qmat


def _is_nilpotent(m: qmat.Rows, size: int) -> bool:
    """m^size = 0, found by multiplying until a power vanishes."""
    power = m
    for _ in range(size - 1):
        if not power:
            return True
        power = qmat.matmul(power, m)
    return not power


def _is_homomorphism(mats: list[qmat.Rows], brackets: dict) -> bool:
    n = len(mats)
    for i in range(n):
        for j in range(i + 1, n):
            image = qmat.combine([(Fraction(v), mats[int(k)]) for k, v in brackets.get((i, j), {}).items()])
            if image != qmat.commutator(mats[i], mats[j]):
                return False
    return True


def check(algebra_path: str, rep_raw: bytes) -> list[str]:
    """Names of the failing properties; empty when the representation is a
    faithful nilpotent representation of the algebra."""
    alg = json.loads(Path(algebra_path).read_text(encoding="utf-8"))
    rep = json.loads(rep_raw)
    n = alg["dim"]
    size = rep["space_dim"]
    parsed = [qmat.from_json(m) for m in rep["matrices"]]
    if len(parsed) != n or any(r != size or c != size for r, c, _ in parsed):
        return ["shape"]
    mats = [m for _, _, m in parsed]
    failing = []
    brackets = {(rec["left"], rec["right"]): rec["result"] for rec in alg["brackets"]}
    if not _is_homomorphism(mats, brackets):
        failing.append("homomorphism")
    flat = [{r * size + c: v for r, row in m.items() for c, v in row.items()} for m in mats]
    if qmat.rank(flat) != n:
        failing.append("faithful")
    if not all(_is_nilpotent(m, size) for m in mats):
        failing.append("nilpotent")
    return failing
