from fractions import Fraction

import pytest
from hypothesis import strategies as st

from adoforge.catalog import abelian, example, filiform4, heisenberg3, heisenberg5, solvable2
from adoforge.liealg import LieAlgebra
from adoforge.linalg import RationalMatrix, dense_vector, solve_multi
from adoforge.reps import Representation


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


# --- corpus algebras, rebased algebras and sparse vectors for hypothesis ---

CORPUS = ("abelian1", "abelian3", "heisenberg3", "heisenberg5", "filiform4", "free2_2", "free2_3", "free3_2")

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
sparse_fractions = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_fractions)
nonzero_fractions = st.sampled_from([Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2, 3)])


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
