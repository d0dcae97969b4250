import random
from fractions import Fraction
from functools import reduce
from math import gcd
from unittest import mock

import pytest
from hypothesis import strategies as st

from adoforge.catalog import abelian, example, filiform4, heisenberg3, heisenberg5, solvable2
from adoforge.freenilp import free_nilpotent
from adoforge.liealg import LieAlgebra, _bracket_span, quotient
from adoforge.linalg import RationalMatrix, Subspace, dense_vector, kernel_basis, solve, solve_multi
from adoforge.reps import Representation, cyclic_submodule, element_action


@pytest.fixture
def h3():
    return heisenberg3()


@pytest.fixture
def f4():
    return filiform4()


@pytest.fixture
def h5():
    return heisenberg5()


@pytest.fixture
def abelian2():
    return abelian(2)


@pytest.fixture
def solvable():
    return solvable2()


def single_entry(n, r, c, v=1):
    return RationalMatrix.from_entries(n, n, [(r, c, v)])


@pytest.fixture
def std_h3_rep(h3):
    """e0 -> E12, e1 -> E23, e2 -> E13: the faithful 3x3 strictly upper
    triangular representation of the Heisenberg algebra."""
    return Representation(
        h3,
        3,
        [single_entry(3, 0, 1), single_entry(3, 1, 2), single_entry(3, 0, 2)],
    )


def fraction_matrix(rows):
    return RationalMatrix.from_rows([[Fraction(v) for v in row] for row in rows])


def assert_integer_echelon(sub):
    """sub holds the eliminator's rows: increasing pivots inside
    [0, ambient_dim), one row per pivot, each a sparse map of nonzero ints
    with gcd 1, leading at its pivot with a positive entry and zero at the
    other pivots."""
    pivots = sub._pivots
    assert pivots == sorted(set(pivots)) and all(0 <= p < sub.ambient_dim for p in pivots)
    assert len(sub._rows) == len(pivots)
    pivot_set = set(pivots)
    for row, p in zip(sub._rows, pivots):
        assert all(type(v) is int and v for v in row.values())
        assert min(row) == p and row[p] > 0 and max(row) < sub.ambient_dim
        assert reduce(gcd, row.values()) == 1
        assert not (set(row) & pivot_set) - {p}


# --- corpus algebras, rebased algebras and sparse vectors for hypothesis ---

CORPUS = ("abelian1", "abelian3", "heisenberg3", "heisenberg5", "filiform4", "free2_2", "free2_3", "free3_2")

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
sparse_fractions = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_fractions)
nonzero_fractions = st.sampled_from([Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2, 3)])
mixed_fractions = st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(3, 2), Fraction(1), Fraction(-1)])


def sparse_vectors(n):
    return st.lists(sparse_fractions, min_size=n, max_size=n).map(tuple)


def rebase(algebra: LieAlgebra, p: RationalMatrix) -> LieAlgebra:
    """The algebra in the basis f_a = sum_i p[i, a] e_i (p invertible),
    without labels or grading."""
    n = algebra.dim
    q = solve_multi(p, RationalMatrix.identity(n))
    cols = [p.column(a) for a in range(n)]
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            in_e = [Fraction(0)] * n
            for i, x in enumerate(cols[a]):
                for j, y in enumerate(cols[b]):
                    if x and y:
                        for k, v in algebra.bracket_basis(i, j).items():
                            in_e[k] += x * y * v
            coeffs = {k: v for k, v in enumerate(q.apply(in_e)) if v}
            if coeffs:
                brackets[(a, b)] = coeffs
    return LieAlgebra(n, brackets)


@st.composite
def changes_of_basis(draw, n):
    """An invertible n x n rational matrix: unit lower times upper triangular
    with a nonzero diagonal."""
    lower = [[Fraction(int(i == j)) if i <= j else draw(sparse_fractions) for j in range(n)] for i in range(n)]
    upper = [
        [draw(nonzero_fractions) if i == j else (draw(sparse_fractions) if i < j else Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    return RationalMatrix.from_rows(lower) @ RationalMatrix.from_rows(upper)


@st.composite
def corpus_algebras(draw):
    """A corpus algebra, as listed or rebased by a random change of basis
    (dense structure constants, no grading)."""
    algebra = example(draw(st.sampled_from(CORPUS)))
    if draw(st.booleans()):
        algebra = rebase(algebra, draw(changes_of_basis(algebra.dim)))
    return algebra


# --- seeded ungraded quotients of a free nilpotent algebra ---


def random_quotient(rng: random.Random) -> LieAlgebra | None:
    """One draw of F(2, 4)/I without its grading, or None when I = 0 or the
    quotient has dim < 4.

    I is generated by 1-2 relations, each putting an entry in [-2, 2] with
    probability 0.35 on every basis element of degree >= 2, and closed
    under brackets with F.  A quotient of a free nilpotent algebra by an
    ideal is nilpotent and satisfies Jacobi by construction; relations of
    mixed degree leave it with no grading in general.
    """
    free = free_nilpotent(2, 4)
    relations = [
        [Fraction(rng.randint(-2, 2)) if d >= 2 and rng.random() < 0.35 else Fraction(0) for d in free.grading.degrees]
        for _ in range(rng.randint(1, 2))
    ]
    ideal = Subspace.from_vectors(free.dim, relations)
    while True:
        closed = Subspace.from_rows(free.dim, ideal._rows + _bracket_span(free, ideal)._rows)
        if closed == ideal:
            break
        ideal = closed
    quo, _ = quotient(free, ideal)
    return LieAlgebra(quo.dim, quo.brackets) if ideal.dim and quo.dim >= 4 else None


def ungraded_quotients():
    """``random_quotient`` on a drawn seed, keeping the proper quotients of
    dim >= 4."""
    return st.integers(0, 2**32 - 1).map(lambda seed: random_quotient(random.Random(seed))).filter(
        lambda algebra: algebra is not None
    )


# --- what the bracket spans hand to the eliminator ---


def recorded_rows(fn, *args):
    """fn(*args) and the (ambient, rows) of every Subspace.from_rows call it
    made."""
    calls = []
    original = Subspace.from_rows.__func__

    def recording(cls, ambient, rows):
        rows = list(rows)
        calls.append((ambient, rows))
        return original(cls, ambient, rows)

    with mock.patch.object(Subspace, "from_rows", classmethod(recording)):
        out = fn(*args)
    return out, calls


def positive_multiple(row, vector):
    """True when the sparse row is t * vector for a rational t > 0."""
    support = {k: x for k, x in enumerate(vector) if x}
    if set(row) != set(support):
        return False
    t = {Fraction(v) / support[k] for k, v in row.items()}
    return len(t) == 1 and t.pop() > 0


def integer_multiples(calls, ambient, vectors):
    """One recorded call on Q^ambient whose rows are int rows, each a
    positive multiple of the vector at its place."""
    ((dim, rows),) = calls
    return (
        dim == ambient
        and len(rows) == len(vectors)
        and all(positive_multiple(row, v) for row, v in zip(rows, vectors))
        and all(type(x) is int for row in rows for x in row.values())
    )


# --- the intersection through a kernel, as a reference ---


def reference_intersect(s, t):
    """The intersection as ``Subspace.intersect`` took it before Zassenhaus's
    one elimination, and before it returned the other operand when one is
    the whole space or stopped negating B: A applied to the first block of
    every vector of Ker [A | -B]."""
    if s.dim == 0 or t.dim == 0:
        return Subspace.zero(s.ambient_dim)
    a_cols, b_cols = s.basis_vectors(), t.basis_vectors()
    a = RationalMatrix.from_columns(s.ambient_dim, a_cols)
    null = kernel_basis(RationalMatrix.from_columns(s.ambient_dim, a_cols + [tuple(-x for x in v) for v in b_cols]))
    return Subspace.from_vectors(s.ambient_dim, [a.apply(w[: a.cols]) for w in null.basis_vectors()])


# --- the Fraction restricted action and the two-step carve, as references ---


def reference_restricted_action(sub, m):
    """``Subspace.restricted_action`` as it ran on Fractions, with its
    confirmation by the full product basis @ X: X read off the pivot rows
    of m @ basis, or None when m does not map sub into itself."""
    basis = RationalMatrix.from_columns(sub.ambient_dim, sub.basis_vectors())
    image = m @ basis
    x = RationalMatrix(sub.dim, sub.dim, {j: image._data[p] for j, p in enumerate(sub._pivots) if p in image._data})
    return x if basis @ x == image else None



def reference_carve(rep, z, quo, v):
    """Every rho(e_i) but the one at z's leading index restricted to all of
    Ker rho(z), then the cyclic submodule of v's coordinates there (a unit
    vector when v is a row of the kernel's echelon basis)."""
    carrier = kernel_basis(element_action(rep, z))
    lead = min(i for i, x in enumerate(z) if x)
    induced = [reference_restricted_action(carrier, m) for i, m in enumerate(rep.matrices) if i != lead]
    coords = solve(RationalMatrix.from_columns(carrier.ambient_dim, carrier.basis_vectors()), v)
    return cyclic_submodule(Representation(quo, carrier.dim, induced), coords)


# --- the table-sweep bracket and the dense homomorphism check, as references ---


def reference_bracket(algebra, u, v):
    """The table-sweep bracket: one pass over every stored pair (i, j)."""
    out = [Fraction(0)] * algebra.dim
    for (i, j), coeffs in algebra.brackets.items():
        c = u[i] * v[j] - u[j] * v[i]
        if c:
            for k, val in coeffs.items():
                out[k] += c * val
    return tuple(out)


def reference_is_hom(source, target, matrix):
    """[f(e_i), f(e_j)] = f([e_i, e_j]) on every source basis pair, with
    dense vectors: ``apply`` of a densified bracket against the table-sweep
    bracket of two columns."""
    cols = [matrix.column(i) for i in range(source.dim)]
    for i in range(source.dim):
        for j in range(i + 1, source.dim):
            lhs = matrix.apply(dense_vector(source.bracket_basis(i, j), source.dim))
            if lhs != reference_bracket(target, cols[i], cols[j]):
                return False
    return True


# --- the zero-adding sum and multiply-every-pair Kronecker product, as references ---


def reference_add(a, b):
    """RationalMatrix.__add__ as it copied every row of a and added each
    entry of b to F0 at a new position."""
    data = {r: dict(row) for r, row in a._data.items()}
    for r, row in b._data.items():
        target = data.setdefault(r, {})
        for c, v in row.items():
            nv = target.get(c, Fraction(0)) + v
            if nv:
                target[c] = nv
            else:
                del target[c]
        if not target:
            del data[r]
    return RationalMatrix(a.rows, a.cols, data)


def reference_kronecker(a, b):
    """The Kronecker product multiplying every pair of entries."""
    data = {}
    for i, arow in a._data.items():
        for k, brow in b._data.items():
            data[i * b.rows + k] = {j * b.cols + l: av * bv for j, av in arow.items() for l, bv in brow.items()}
    return RationalMatrix(a.rows * b.rows, a.cols * b.cols, data)


# --- the Fraction stacked kernel of a representation, as a reference ---


def reference_rep_kernel(rep):
    """``reps.rep_kernel`` as it stacked the sorted Fraction entries of every
    matrix through ``from_entries``: column i holds rho(e_i) flattened,
    entry (r, c) at row r * space_dim + c."""
    sd = rep.space_dim
    entries = [(r * sd + c, i, v) for i, m in enumerate(rep.matrices) for r, c, v in m.entries()]
    return kernel_basis(RationalMatrix.from_entries(sd * sd, rep.algebra.dim, entries))


# --- the Fraction span basis that linalg.SpanBasis replaced, as a reference ---


class FractionSpanBasis:
    """linalg.SpanBasis as it ran on Fractions: rows normalized to 1 at
    their lead.  Kept verbatim as the reference for the fraction-free one
    and for the reference checks that feed it Fractions."""

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: dict[int, dict[int, Fraction]] = {}  # pivot -> normalized row

    def reduce(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        vec = dict(vec)
        while vec:
            lead = min(vec)
            row = self._rows.get(lead)
            if row is None:
                return vec
            f = vec[lead]
            for k, v in row.items():
                old = vec.get(k)
                if old is None:
                    vec[k] = -(f * v)
                    continue
                nv = old - f * v
                if nv:
                    vec[k] = nv
                else:
                    del vec[k]
        return vec

    def add(self, vec: dict[int, Fraction]) -> bool:
        """Add a vector; True if it enlarged the span."""
        residual = self.reduce(vec)
        if not residual:
            return False
        lead = min(residual)
        inv = Fraction(1) / residual[lead]
        self._rows[lead] = {k: v * inv for k, v in residual.items()}
        return True

    @property
    def dim(self) -> int:
        return len(self._rows)
