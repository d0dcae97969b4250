"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact rational arithmetic; no tolerances anywhere.
Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from adoforge.catalog import example, filiform4, heisenberg3, solvable2
from adoforge.cli import main
from adoforge.engine import EngineConfig, construct_faithful_nilpotent, replay_certificate
from adoforge.errors import KernelNotContained
from adoforge.freenilp import hall_basis, witt_dimension
from adoforge.graded import (
    cocycle_extension_rep,
    cocycle_space,
    current_algebra,
    euler_derivation,
    graded_embedding,
)
from adoforge.liealg import center, codim1_refinement, is_ideal, verify_grading
from adoforge.linalg import (
    RationalMatrix,
    Subspace,
    factor_through,
    kernel_basis,
    nilpotency_index,
    unit_vector,
    vec_is_zero,
)
from adoforge.reps import (
    adjoint,
    element_action,
    is_nilpotent_rep,
    rep_kernel,
    tensor_product,
)

CORPUS = [
    "abelian1",
    "abelian2",
    "abelian3",
    "heisenberg3",
    "heisenberg5",
    "filiform4",
    "free2_2",
    "free2_3",
]


def corpus_algebras():
    return [(name, example(name)) for name in CORPUS]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    report = json.loads(captured.err.strip().splitlines()[-1])
    return code, captured.out, report


def test_criterion_1_end_to_end_corpus(tmp_path, capsys):
    """construct then verify exits 0 for the whole corpus, exactly."""
    for name in CORPUS:
        alg_path = tmp_path / f"{name}.json"
        rep_path = tmp_path / f"{name}-rep.json"
        code, _, _ = run_cli(["examples", name, "--out", str(alg_path)], capsys)
        assert code == 0
        start = time.perf_counter()
        code, _, report = run_cli(["construct", str(alg_path), "--out", str(rep_path)], capsys)
        elapsed = time.perf_counter() - start
        assert code == 0, f"construct failed for {name}"
        assert report["verification"] == {
            "homomorphism": True,
            "faithful": True,
            "nilpotent": True,
        }
        assert elapsed < 60, f"{name} took {elapsed:.1f}s"
        code, _, report = run_cli(["verify", str(alg_path), str(rep_path)], capsys)
        assert code == 0, f"verify failed for {name}"
    print("ACCEPTANCE 1 PASS: construct+verify exit 0 across the corpus (exact)")


def test_criterion_2_graded_embedding(capsys):
    """Injectivity, exact homomorphism identity, vanishing above the cutoff."""
    for name, algebra in corpus_algebras():
        assert algebra.grading is not None and verify_grading(algebra), name
        emb = graded_embedding(algebra)
        assert kernel_basis(emb.matrix).dim == 0, name
        target = emb.target
        cols = [emb.matrix.column(i) for i in range(algebra.dim)]
        cutoff = 1 + algebra.grading.max_degree
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                image_bracket = target.bracket(cols[i], cols[j])
                mapped = emb.matrix.apply(
                    algebra.bracket(unit_vector(algebra.dim, i), unit_vector(algebra.dim, j))
                )
                assert image_bracket == mapped, (name, i, j)
                if algebra.grading.degrees[i] + algebra.grading.degrees[j] >= cutoff:
                    assert vec_is_zero(image_bracket), (name, i, j)
    print("ACCEPTANCE 2 PASS: graded embeddings injective, exact, truncation-compatible")


def test_criterion_3_cocycle_extension(capsys):
    """Zero representation kernel and preserved nilpotency on every corpus run."""
    for name, algebra in corpus_algebras():
        current = current_algebra(algebra, 1 + algebra.grading.max_degree)
        phi = euler_derivation(current)
        extended = cocycle_extension_rep(phi)
        assert rep_kernel(extended).dim == 0, name
        assert is_nilpotent_rep(extended), name
    print("ACCEPTANCE 3 PASS: cocycle extensions faithful and nilpotent on the corpus")


def test_criterion_4_euler_kernel_zero(capsys):
    for name, algebra in corpus_algebras():
        current = current_algebra(algebra, 1 + algebra.grading.max_degree)
        phi = euler_derivation(current)
        assert kernel_basis(phi.map).dim == 0, name
        for i in range(current.product.dim):
            assert phi.map.entry(i, i) == i // algebra.dim + 1  # the t-degree of basis element i
    print("ACCEPTANCE 4 PASS: scaling-derivation kernels are zero on all corpus current algebras")


def test_criterion_5_glue_descent(capsys):
    traces = []
    for name, algebra in corpus_algebras():
        _, cert = construct_faithful_nilpotent(algebra, EngineConfig(method="induction"))
        traces.extend((name, step) for step in cert.steps_of_kind("glue"))
    assert traces, "induction over the corpus must exercise gluing"
    for name, step in traces:
        dims = step["kernel_dims"]
        assert all(a > b for a, b in zip(dims, dims[1:])), (name, dims)
        assert dims[-1] == 0, name
        assert len(step["summand_dims"]) <= step["algebra_dim"], name
    print(f"ACCEPTANCE 5 PASS: strict kernel descent in all {len(traces)} glue traces")


def _random_nonzero_ideal(algebra, rng):
    n = algebra.dim
    while True:
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        if any(v):
            break
    space = Subspace.from_vectors(n, [v])
    changed = True
    while changed:
        changed = False
        for w in list(space.basis_vectors()):
            for i in range(n):
                u = algebra.bracket(unit_vector(n, i), w)
                if not vec_is_zero(u) and not space.contains_vector(u):
                    space = space.add(Subspace.from_vectors(n, [u]))
                    changed = True
    return space


def test_criterion_6_codim1_refinement(capsys):
    rng = random.Random(60601)
    nilpotent_corpus = [(n, a) for n, a in corpus_algebras()]
    checked = 0
    i = 0
    while checked < 20:
        name, algebra = nilpotent_corpus[i % len(nilpotent_corpus)]
        i += 1
        ideal = _random_nonzero_ideal(algebra, rng)
        refined = codim1_refinement(algebra, ideal)
        assert is_ideal(algebra, refined), name
        assert refined.dim == ideal.dim - 1, name
        assert ideal.contains(refined), name
        # exhaustive bracket check: [L, I] <= J
        for w in ideal.basis_vectors():
            for b in range(algebra.dim):
                u = algebra.bracket(unit_vector(algebra.dim, b), w)
                assert refined.contains_vector(u), name
        checked += 1
    print("ACCEPTANCE 6 PASS: 20 random ideals refined with codimension exactly 1")


def test_criterion_7_factor_through(capsys):
    rng = random.Random(70707)

    def random_matrix(n):
        return RationalMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        )

    for _ in range(100):
        n = rng.randint(1, 4)
        f = random_matrix(n)
        g = random_matrix(n) @ f  # forces Ker f <= Ker g
        h = factor_through(f, g)
        assert h @ f == g
    fired = 0
    for _ in range(100):
        n = rng.randint(2, 4)
        f = random_matrix(n)
        # duplicate a column: guarantees a known nonzero kernel vector
        src, dst = rng.sample(range(n), 2)
        f = RationalMatrix.from_columns(
            n, [f.column(src) if j == dst else f.column(j) for j in range(n)]
        )
        witness = [Fraction(0)] * n
        witness[src], witness[dst] = Fraction(1), Fraction(-1)
        assert vec_is_zero(f.apply(tuple(witness)))
        g = RationalMatrix.identity(n)  # keeps the witness alive
        with pytest.raises(KernelNotContained):
            factor_through(f, g)
        fired += 1
    assert fired == 100
    print("ACCEPTANCE 7 PASS: 100 exact factorizations, 100 kernel violations rejected")


def test_criterion_8_tensor_square_nilpotency_index(std_h3_rep, capsys):
    budget = EngineConfig().dimension_budget
    x = unit_vector(3, 0)
    n = nilpotency_index(element_action(std_h3_rep, x))
    squared = tensor_product(std_h3_rep, std_h3_rep)
    assert n == 2
    assert nilpotency_index(element_action(squared, x)) == 2 * n - 1
    covered = ["std_h3"]
    for name, algebra in corpus_algebras():
        rep, _ = construct_faithful_nilpotent(algebra)
        if rep.space_dim**2 > budget:
            continue
        x = unit_vector(algebra.dim, 0)
        nx = nilpotency_index(element_action(rep, x))
        squared = tensor_product(rep, rep)
        assert nilpotency_index(element_action(squared, x)) == 2 * nx - 1, name
        covered.append(name)
    assert len(covered) >= 8
    print(f"ACCEPTANCE 8 PASS: tensor-square index 2n-1 on {', '.join(covered)}")


def _dense_rank(rows):
    """Plain dense Gaussian elimination over Fraction; independent of the
    package's sparse linear algebra."""
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _derivation_space_dim(algebra):
    """Brute-force: solve D([ei,ej]) = [D ei, ej] + [ei, D ej] densely."""
    n = algebra.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = algebra.bracket_basis(i, j)
            for q in range(n):
                row = [Fraction(0)] * (n * n)
                for k, v in cij.items():
                    row[q * n + k] += v
                for p in range(n):
                    cpj = algebra.bracket_basis(p, j)
                    if q in cpj:
                        row[p * n + i] -= cpj[q]
                    cip = algebra.bracket_basis(i, p)
                    if q in cip:
                        row[p * n + j] -= cip[q]
                if any(row):
                    rows.append(row)
    if not rows:
        return n * n
    return n * n - _dense_rank(rows)


def test_criterion_9_oracle_cross_checks(capsys):
    for r in (1, 2, 3):
        for c in range(1, 6):
            words = hall_basis(r, c)
            for d in range(1, c + 1):
                assert sum(1 for w in words if w.degree == d) == witt_dimension(r, d)
    h3, f4 = heisenberg3(), filiform4()
    assert _derivation_space_dim(h3) == 6
    assert len(cocycle_space(adjoint(h3))) == 6
    assert _derivation_space_dim(f4) == 7
    assert len(cocycle_space(adjoint(f4))) == 7
    fixtures = corpus_algebras() + [("solvable2", solvable2())]
    for name, algebra in fixtures:
        assert center(algebra) == rep_kernel(adjoint(algebra)), name
    print("ACCEPTANCE 9 PASS: Witt counts, derivation-space oracle (6, 7), center = Ker(ad)")


def test_criterion_10_determinism_and_replay(tmp_path, capsys):
    for name in ("heisenberg3", "filiform4", "free2_3"):
        alg_path = tmp_path / f"{name}.json"
        run_cli(["examples", name, "--out", str(alg_path)], capsys)
        blobs = []
        for tag in ("a", "b"):
            rep_path = tmp_path / f"{name}-{tag}.json"
            cert_path = tmp_path / f"{name}-{tag}-cert.json"
            code, _, _ = run_cli(
                [
                    "construct",
                    str(alg_path),
                    "--out",
                    str(rep_path),
                    "--certificate",
                    str(cert_path),
                ],
                capsys,
            )
            assert code == 0
            blobs.append((rep_path.read_bytes(), cert_path.read_bytes()))
        assert blobs[0] == blobs[1], name
    for name, algebra in corpus_algebras():
        rep, cert = construct_faithful_nilpotent(algebra)
        rep2, cert2 = replay_certificate(algebra, cert)
        assert rep2.matrices == rep.matrices, name
        assert cert2.steps == cert.steps, name
    rep, cert = construct_faithful_nilpotent(filiform4(), EngineConfig(method="induction"))
    rep2, _ = replay_certificate(filiform4(), cert)
    assert rep2.matrices == rep.matrices
    print("ACCEPTANCE 10 PASS: byte-identical reruns and exact certificate replay")
