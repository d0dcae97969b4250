"""Seeded inputs for the three workloads.

Every input is a file the program reads, plus the command-line arguments of
one ``adoforge`` call on it.  The same seed gives byte-identical files.

* ``graded``: catalog algebras with their grading; ``construct`` takes the
  graded route on all of them.  They do not depend on the seed.
* ``ungraded``: filiform4 written as ``[e0, ei] = e(i+1)`` and catalog
  algebras after a seeded change of basis in GL_n(Q), all without a grading,
  so ``construct --method auto`` takes the induction route.
* ``verify``: representations produced by ``construct`` at the commit that
  defined this benchmark (``data/``, digest-pinned so their content does not
  depend on the construction code under test), conjugated by a seeded sparse
  rational change of basis of the representation space, plus two tampered
  copies that ``verify`` must reject.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import qmat

DATA = Path(__file__).resolve().parent / "data"

# free2_4 (graded) and filiform5 without a grading (whose free algebra is
# free2_4) each took one call of 15-25 s at the commit that defined this
# benchmark, and that time moved by up to 29% (interquartile range over
# median) between runs of the same code on a shared 2-core machine, more
# than any bound the benchmark may set.  They join the ladder, with
# filiform6 (more than 9 minutes), once a change makes the graded route fast.
GRADED = ("heisenberg3", "filiform4", "heisenberg5", "free3_2", "free2_3")
UNGRADED_FILIFORM = (4,)
REBASED = ("heisenberg5", "filiform4", "free2_3")
# Two changes of basis per algebra: the cost and output size of one rebased
# input depend on its change of basis (rebased heisenberg5 took 5.9-9.1 s and
# wrote 2.7-3.3 KB over eight seeds), and two halve what one seed moves.
REBASED_COPIES = 2

# sha256 of data/<name>.alg.json and data/<name>.rep.json
VERIFY_BASES = {
    "heisenberg3": (
        "3157fbda35c4a1be2413353a305edd836a43b367926c3a00383610aa098c6c8a",
        "b9ddafdf1563d83a1a4654564bb10d3c29754092fdd6be176adde7a2001a7f99",
    ),
    "filiform4": (
        "516e82c38f5d03348f7a9eb61f8d37afb0ec6c06398ee63db4a33f89684a9c01",
        "fcccf3f0ee2123895d75a568262afdb5db68d65afa820579a99dfd0f26ccd8c2",
    ),
    "heisenberg5": (
        "ae777efc0cbdc0b0d899614b81684072d4d641e4fe7814545ac5e0094cfa541f",
        "996e66032d5704acc1fafbeed1fe4e4da52044d624c99ed1e27fb63864c222e5",
    ),
    "free2_3": (
        "1ae58db2fef2bcce69c76b9a3fab144c225d53aa71adc6f7ac9fc84e4eb606b3",
        "eb22b776e99a5024b556448098727d78b52b05756835886dae9253cf35df71a7",
    ),
}
# Tampered verify inputs: base -> the property verify must report as failing.
TAMPERED = {"filiform4": "homomorphism", "heisenberg5": "faithful"}

CHANGE_OF_BASIS = [Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-1/3")]


@dataclass
class Input:
    name: str
    argv: list[str]               # arguments of one adoforge.cli.main call
    digest: str                   # sha256 over the bytes of every file the call reads
    algebra: str                  # path of the algebra file
    out: str | None = None        # construct: representation path
    certificate: str | None = None
    space_dim: int | None = None  # verify: dimension of the representation checked
    expect: dict | None = None    # verify: the verification booleans expected in the run report


def build(workload: str, seed: int, workdir: Path) -> list[Input]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "graded":
        return _graded(workdir)
    if workload == "ungraded":
        return _ungraded(workdir, rng)
    if workload == "verify":
        return _verify(workdir, rng)
    raise ValueError(f"unknown workload {workload!r}")


def _dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _algebra_doc(name: str, dim: int, brackets: dict, degrees=None, labels=None) -> dict:
    doc = {
        "name": name,
        "dim": dim,
        "brackets": [
            {"left": i, "right": j, "result": {str(k): str(v) for k, v in sorted(res.items())}}
            for (i, j), res in sorted(brackets.items())
        ],
    }
    if labels:
        doc["basis"] = list(labels)
    if degrees:
        doc["grading"] = list(degrees)
    return doc


def _construct_input(workdir: Path, doc: dict) -> Input:
    name = doc["name"]
    raw = _dump(doc)
    path = workdir / f"{name}.json"
    path.write_bytes(raw)
    out, cert = workdir / f"{name}.rep.json", workdir / f"{name}.cert.json"
    return Input(
        name=name,
        argv=["construct", str(path), "--method", "auto", "--out", str(out), "--certificate", str(cert)],
        digest=hashlib.sha256(raw).hexdigest(),
        algebra=str(path),
        out=str(out),
        certificate=str(cert),
    )


def _graded(workdir: Path) -> list[Input]:
    from adoforge.catalog import example

    inputs = []
    for name in GRADED:
        alg = example(name)
        labels = [alg.label(i) for i in range(alg.dim)]
        doc = _algebra_doc(name, alg.dim, alg.brackets, alg.grading.degrees, labels)
        inputs.append(_construct_input(workdir, doc))
    return inputs


def _ungraded(workdir: Path, rng: random.Random) -> list[Input]:
    from adoforge.catalog import example

    docs = []
    for n in UNGRADED_FILIFORM:
        brackets = {(0, i): {i + 1: Fraction(1)} for i in range(1, n - 1)}
        docs.append(_algebra_doc(f"filiform{n}_ungraded", n, brackets))
    for name in REBASED:
        alg = example(name)
        for copy in range(REBASED_COPIES):
            docs.append(_algebra_doc(f"{name}_rebased{copy}", alg.dim, _rebase(alg.dim, alg.brackets, rng)))
    for doc in docs:
        _check_ungraded(doc)
    return [_construct_input(workdir, doc) for doc in docs]


def _check_ungraded(doc: dict) -> None:
    from adoforge.jsonio import algebra_from_json
    from adoforge.liealg import validate

    algebra, _ = algebra_from_json(doc)
    if algebra.grading is not None or not validate(algebra).ok:
        raise ValueError(f"generated input {doc['name']} must validate and carry no grading")


def _inverse(p: list[list[int]]) -> list[list[Fraction]] | None:
    n = len(p)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(p)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return None
        a[c], a[pivot] = a[pivot], a[c]
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _rebase(dim: int, brackets: dict, rng: random.Random) -> dict:
    """Structure constants in the basis f_a = sum_i P[i][a] e_i for a seeded
    invertible integer matrix P with entries in [-2, 2]."""
    while True:
        p = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        q = _inverse(p)
        if q is not None:
            break

    def bracket(i, j):
        if i < j:
            return brackets.get((i, j), {})
        return {k: -v for k, v in brackets.get((j, i), {}).items()}

    out = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            acc = [Fraction(0)] * dim  # [f_a, f_b] in the e basis
            for i in range(dim):
                for j in range(dim):
                    f = p[i][a] * p[j][b]
                    if f and i != j:
                        for k, v in bracket(i, j).items():
                            acc[k] += f * v
            coeffs = {k: s for k in range(dim) if (s := sum(q[k][l] * acc[l] for l in range(dim)))}
            if coeffs:
                out[(a, b)] = coeffs
    return out


def _unit_triangular(size: int, structure: random.Random, values: random.Random, upper: bool) -> qmat.Rows:
    """Strictly triangular part with one entry per row (where there is room)."""
    part: qmat.Rows = {}
    for i in range(size):
        lo, hi = (i + 1, size) if upper else (0, i)
        if lo < hi:
            part[i] = {structure.randrange(lo, hi): values.choice(CHANGE_OF_BASIS)}
    return part


def _triangular_inverse(part: qmat.Rows, size: int, upper: bool) -> qmat.Rows:
    """(I + part)^-1 by substitution; part is strictly triangular."""
    inv: qmat.Rows = {}
    for i in reversed(range(size)) if upper else range(size):
        row = {i: Fraction(1)}
        for j, v in part.get(i, {}).items():
            for c, w in inv[j].items():
                row[c] = row.get(c, 0) - v * w
        inv[i] = {c: v for c, v in row.items() if v}
    return inv


def _conjugator(name: str, size: int, rng: random.Random):
    """x -> P^-1 x P for P = (I + upper)(I + lower).

    The positions of the entries are fixed per base representation and only
    their values come from the seed: the fill of P^-1, and with it the cost
    of verifying, varied fivefold between seeds when the positions were
    seeded too.
    """
    structure = random.Random(f"structure:{name}")
    identity = {i: {i: Fraction(1)} for i in range(size)}
    upper = _unit_triangular(size, structure, rng, True)
    lower = _unit_triangular(size, structure, rng, False)
    p = qmat.matmul(qmat.combine([(1, identity), (1, upper)]), qmat.combine([(1, identity), (1, lower)]))
    p_inv = qmat.matmul(_triangular_inverse(lower, size, False), _triangular_inverse(upper, size, True))
    return lambda m: qmat.matmul(qmat.matmul(p_inv, m), p)


def _read_pinned(path: Path, digest: str) -> bytes:
    raw = path.read_bytes()
    if hashlib.sha256(raw).hexdigest() != digest:
        raise ValueError(f"{path.name} does not match its pinned digest")
    return raw


def _verify_input(workdir: Path, base: str, variant: str, alg_path: Path, alg_raw: bytes, size: int, mats, expect) -> Input:
    name = f"{base}.{variant}"
    raw = _dump({"algebra": base, "space_dim": size, "matrices": [qmat.to_json(size, m) for m in mats]})
    path = workdir / f"{name}.rep.json"
    path.write_bytes(raw)
    return Input(
        name=name,
        argv=["verify", str(alg_path), str(path)],
        digest=hashlib.sha256(alg_raw + raw).hexdigest(),
        algebra=str(alg_path),
        space_dim=size,
        expect=expect,
    )


def _verify(workdir: Path, rng: random.Random) -> list[Input]:
    inputs = []
    for name, (alg_digest, rep_digest) in VERIFY_BASES.items():
        alg_path = DATA / f"{name}.alg.json"
        alg_raw = _read_pinned(alg_path, alg_digest)
        rep = json.loads(_read_pinned(DATA / f"{name}.rep.json", rep_digest))
        size = rep["space_dim"]
        mats = [qmat.from_json(m)[2] for m in rep["matrices"]]
        conjugate = _conjugator(name, size, rng)
        ok = {"homomorphism": True, "faithful": True, "nilpotent": True}
        inputs.append(_verify_input(workdir, name, "conjugated", alg_path, alg_raw, size, [conjugate(m) for m in mats], ok))
        prop = TAMPERED.get(name)
        if prop is None:
            continue
        alg = json.loads(alg_raw)
        if prop == "homomorphism":
            # Double rho(e_k) for the first bracket [e_i, e_j] = c e_k: the
            # image and its span stay the same, the commutator identity breaks.
            k = next(int(k) for rec in alg["brackets"] if len(rec["result"]) == 1 for k in rec["result"])
            bad = [qmat.combine([(2, m)]) if i == k else m for i, m in enumerate(mats)]
        else:
            # The adjoint action padded to the same space: a nilpotent
            # homomorphism whose kernel is the center.
            bad = [{} for _ in mats]
            for rec in alg["brackets"]:
                i, j = rec["left"], rec["right"]
                for k, v in rec["result"].items():
                    bad[i].setdefault(int(k), {})[j] = Fraction(v)
                    bad[j].setdefault(int(k), {})[i] = -Fraction(v)
        expect = dict(ok, **{prop: False})
        inputs.append(_verify_input(workdir, name, f"not_{prop}", alg_path, alg_raw, size, [conjugate(m) for m in bad], expect))
    return inputs
