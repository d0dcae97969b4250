import copy
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from adoforge.errors import DimensionMismatch, KernelNotContained, NotNilpotent
import adoforge.linalg as linalg
from adoforge.linalg import (
    F1,
    RationalMatrix,
    Subspace,
    dense_vector,
    factor_through,
    kernel_basis,
    kronecker,
    mul_rowmaps,
    nilpotency_index,
    rank,
    restricted_actions,
    rref,
    solve,
    solve_multi,
)
from adoforge.catalog import example
from adoforge.freenilp import free_central_flag, free_nilpotent
from adoforge.reps import adjoint, element_action

from conftest import (
    FractionSpanBasis,
    assert_integer_echelon,
    corpus_algebras,
    fraction_matrix,
    nonzero_fractions,
    reference_add,
    reference_intersect,
    reference_kronecker,
    reference_restricted_action,
    small_fractions,
    sparse_fractions,
    sparse_vectors,
    ungraded_quotients,
)


class TestRref:
    def test_identity(self):
        m = RationalMatrix.identity(3)
        r, pivots, rk = rref(m)
        assert r == m and pivots == [0, 1, 2] and rk == 3

    def test_zero(self):
        m = RationalMatrix.zero(2, 3)
        r, pivots, rk = rref(m)
        assert r == m and pivots == [] and rk == 0

    def test_rank_one(self):
        # [[2,4],[1,2]] row-reduces to [[1,2],[0,0]] with a single pivot
        m = fraction_matrix([[2, 4], [1, 2]])
        r, pivots, rk = rref(m)
        assert r == fraction_matrix([[1, 2], [0, 0]])
        assert pivots == [0] and rk == 1


class TestKernel:
    def test_identity_trivial_kernel(self):
        assert kernel_basis(RationalMatrix.identity(4)).dim == 0

    def test_zero_full_kernel(self):
        k = kernel_basis(RationalMatrix.zero(2, 3))
        assert k == Subspace.full(3)

    def test_single_relation(self):
        k = kernel_basis(fraction_matrix([[1, 2]]))
        assert k == Subspace.from_vectors(2, [(Fraction(-2), Fraction(1))])
        assert k.dim == 1


class TestSolve:
    def test_identity(self):
        b = (Fraction(3), Fraction(-1, 2))
        assert solve(RationalMatrix.identity(2), b) == b

    def test_inconsistent(self):
        assert solve(RationalMatrix.zero(2, 2), (Fraction(1), Fraction(0))) is None

    def test_free_variables_zero(self):
        a = fraction_matrix([[2, 0], [0, 0]])
        assert solve(a, (Fraction(1), Fraction(0))) == (Fraction(1, 2), Fraction(0))

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            solve(RationalMatrix.identity(2), (Fraction(1),))


class TestKronecker:
    def test_identities(self):
        assert kronecker(RationalMatrix.identity(2), RationalMatrix.identity(3)) == RationalMatrix.identity(6)

    def test_zero_absorbs(self):
        a = fraction_matrix([[1, 2], [3, 4]])
        assert kronecker(a, RationalMatrix.zero(3, 3)) == RationalMatrix.zero(6, 6)

    def test_shape(self):
        a = RationalMatrix.zero(2, 2)
        b = RationalMatrix.identity(3)
        k = kronecker(a, b)
        assert (k.rows, k.cols) == (6, 6)

    def test_entry_layout(self):
        a = fraction_matrix([[0, 2], [0, 0]])
        b = fraction_matrix([[3]])
        k = kronecker(a, b)
        assert k.entry(0, 1) == 6


class TestFactorThrough:
    def test_identity_left(self):
        g = fraction_matrix([[1, 2], [3, 4]])
        assert factor_through(RationalMatrix.identity(2), g) == g

    def test_diagonal(self):
        f = fraction_matrix([[1, 0], [0, 0]])
        g = fraction_matrix([[2, 0], [0, 0]])
        h = factor_through(f, g)
        assert h @ f == g
        assert h == fraction_matrix([[2, 0], [0, 0]])  # complement of Im f killed

    def test_kernel_violation(self):
        f = fraction_matrix([[1, 0], [0, 0]])
        g = fraction_matrix([[0, 0], [0, 1]])
        with pytest.raises(KernelNotContained):
            factor_through(f, g)

    def test_singular_f_kills_the_complement_of_its_image(self):
        # Im f = span(e0 + e1) with pivot 0, so h kills e1 and sends
        # f(e0) = e0 + e1 to g(e0) = 3 e0
        f = fraction_matrix([[1, 2], [1, 2]])
        g = fraction_matrix([[3, 6], [0, 0]])
        h = factor_through(f, g)
        assert h == fraction_matrix([[3, 0], [0, 0]]) and h @ f == g
        assert h == reference_factor_through(f, g)


class TestNilpotencyIndex:
    def test_zero(self):
        assert nilpotency_index(RationalMatrix.zero(3, 3)) == 1

    def test_jordan_block(self):
        j = fraction_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert nilpotency_index(j) == 3

    def test_identity_raises(self):
        with pytest.raises(NotNilpotent):
            nilpotency_index(RationalMatrix.identity(2))


class TestSubspace:
    def test_canonical_equality(self):
        # different spanning sets of the same plane agree after reduction
        a = Subspace.from_vectors(3, [(1, 0, 1), (0, 1, 1)])
        b = Subspace.from_vectors(3, [(1, 1, 2), (2, -1, 1)])
        assert a == b
        assert a.basis_vectors() == b.basis_vectors()

    def test_membership_and_coordinates(self):
        s = Subspace.from_vectors(3, [(1, 0, 2), (0, 1, -1)])
        v = (Fraction(2), Fraction(3), Fraction(1))
        assert s.contains(Subspace.from_vectors(3, [v]))
        assert solve(RationalMatrix.from_columns(3, s.basis_vectors()), v) == (Fraction(2), Fraction(3))
        assert not s.contains(Subspace.from_vectors(3, [(1, 0, 0)]))
        # a zero spelled as a string is a zero, not an entry outside the span
        assert s.contains(Subspace.from_vectors(3, [("0/5", 1, -1)]))

    def test_intersection(self):
        xy = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        yz = Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
        assert xy.intersect(yz) == Subspace.from_vectors(3, [(0, 1, 0)])


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_every_builder_keeps_primitive_integer_echelon_rows(data):
    """from_rows, from_vectors, intersect, kernel_basis, full, zero and
    free_central_flag each hold primitive int rows, positive at their pivot
    and zero at the other pivots, and equal spans from different builders
    compare equal."""
    n = data.draw(st.integers(1, 6))
    spans = st.lists(st.lists(sparse_fractions, min_size=n, max_size=n), max_size=n + 1)
    vectors = data.draw(spans)
    s = Subspace.from_vectors(n, vectors)
    t = Subspace.from_vectors(n, data.draw(spans))
    # the annihilator of s, and the annihilator of that, which is s again
    annihilator = kernel_basis(RationalMatrix(len(s._rows), n, dict(enumerate(s._rows))))
    twice = kernel_basis(RationalMatrix(len(annihilator._rows), n, dict(enumerate(annihilator.basis_rows()))))
    equal_spans = [
        [
            s,
            Subspace.from_rows(n, [{i: x for i, x in enumerate(v) if x} for v in vectors]),
            Subspace.from_rows(n, s._rows),
            Subspace.from_rows(n, s.basis_rows()),
            Subspace.from_vectors(n, s.basis_vectors()),
            s.intersect(s),
            s.intersect(Subspace.full(n)),
            twice,
        ],
        [s.intersect(t), t.intersect(s), Subspace.from_rows(n, s.intersect(t).basis_rows())],
        [annihilator, Subspace.from_rows(n, annihilator._rows)],
        [Subspace.full(n), Subspace.from_vectors(n, [dense_vector({i: 1}, n) for i in range(n)]), kernel_basis(RationalMatrix.zero(1, n))],
        [Subspace.zero(n), Subspace.from_vectors(n, []), kernel_basis(RationalMatrix.identity(n))],
    ]
    for group in equal_spans:
        for sub in group:
            assert_integer_echelon(sub)
            assert sub == group[0]
    assert annihilator.dim + s.dim == n
    r, c = data.draw(st.sampled_from([(1, 1), (2, 2), (2, 3), (3, 2)]))
    free = free_nilpotent(r, c)
    for member in free_central_flag(free).ideals:
        assert_integer_echelon(member)
        assert member == Subspace.from_rows(free.dim, member.basis_rows())


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_intersect_matches_negated_stack(data):
    n = data.draw(st.integers(1, 5))
    spans = st.lists(st.lists(sparse_fractions, min_size=n, max_size=n), max_size=n + 1)
    s = Subspace.from_vectors(n, data.draw(spans))
    t = Subspace.from_vectors(n, data.draw(spans))
    full = Subspace.full(n)
    for x, y in ((s, t), (t, s), (full, s), (t, full), (full, full)):
        assert x.intersect(y) == reference_intersect(x, y)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_sparse_containment_matches_dense_membership(data):
    """``contains`` and ``residuals`` on echelon rows agree with the rank of
    the basis columns with each basis vector beside them, on general
    subspaces, on coordinate subspaces (where a residual is a support
    check) and on subspaces of one another; a residual is empty exactly
    when the basis columns solve for the row, and is a nonzero multiple of
    the row minus its coordinates times the basis, for an integer echelon
    row and for the same row in Fractions."""
    n = data.draw(st.integers(1, 6))
    spans = st.lists(st.lists(sparse_fractions, min_size=n, max_size=n), max_size=n + 1)
    s = Subspace.from_vectors(n, data.draw(spans))
    t = Subspace.from_vectors(n, data.draw(spans))
    units = data.draw(st.sets(st.integers(0, n - 1)))
    coordinate = Subspace.from_rows(n, [{i: 1} for i in units])
    spaces = [s, t, coordinate, Subspace.from_rows(n, s._rows + t._rows), s.intersect(t), Subspace.zero(n), Subspace.full(n)]
    for x in spaces:
        basis = x.basis_vectors()
        columns = RationalMatrix.from_columns(n, basis)
        for y in spaces:
            assert x.contains(y) == all(rank(RationalMatrix.from_columns(n, basis + [v])) == x.dim for v in y.basis_vectors())
            for row, res, res_fractions in zip(y.basis_rows(), x.residuals(y._rows), x.residuals(y.basis_rows())):
                assert all(type(e) is int and e for e in res.values())
                v = dense_vector(row, n)
                assert (not res) == (solve(columns, v) is not None)
                expected = list(v)
                for p, xrow in zip(x._pivots, x.basis_rows()):
                    for k, w in xrow.items():
                        expected[k] -= row.get(p, 0) * w
                exact = {k: e for k, e in enumerate(expected) if e}
                assert is_multiple(res, exact) and is_multiple(res_fractions, exact)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_fractions, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(RationalMatrix.from_rows)


square = st.integers(min_value=1, max_value=4).flatmap(lambda n: matrices(n, n))


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_rank_nullity(rows, cols, data):
    m = data.draw(matrices(rows, cols))
    assert kernel_basis(m).dim + rank(m) == cols


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_rref_idempotent(rows, cols, data):
    m = data.draw(matrices(rows, cols))
    r, pivots, rk = rref(m)
    r2, pivots2, rk2 = rref(r)
    assert r2 == r and pivots2 == pivots and rk2 == rk


@settings(deadline=None)
@given(st.data())
def test_kronecker_mixed_product(data):
    # (A (x) B)(C (x) D) = AC (x) BD whenever the shapes compose
    p, q, r = (data.draw(st.integers(min_value=1, max_value=3)) for _ in range(3))
    s, t, u = (data.draw(st.integers(min_value=1, max_value=3)) for _ in range(3))
    a = data.draw(matrices(p, q))
    c = data.draw(matrices(q, r))
    b = data.draw(matrices(s, t))
    d = data.draw(matrices(t, u))
    assert kronecker(a, b) @ kronecker(c, d) == kronecker(a @ c, b @ d)


@settings(deadline=None)
@given(st.data())
def test_factor_through_forced_inclusion(data):
    # g = m @ f guarantees Ker f <= Ker g; h must reproduce g exactly
    n = data.draw(st.integers(min_value=1, max_value=4))
    f = data.draw(matrices(n, n))
    m = data.draw(matrices(n, n))
    g = m @ f
    h = factor_through(f, g)
    assert h @ f == g


def reference_factor_through(f, g):
    """``factor_through`` as it ran before it became one solve: Ker f tested
    against g with dense ``apply``, then h solved on the pivot columns of f
    and the standard basis vectors off the pivots of Im f, a complement
    assembled by hand."""
    n = f.rows
    for v in kernel_basis(f).basis_vectors():
        if any(g.apply(v)):
            raise KernelNotContained("Ker f is not contained in Ker g")
    _, pivot_cols, _ = rref(f)
    image = Subspace.from_vectors(n, [f.column(j) for j in range(n)])
    complement = [i for i in range(n) if i not in set(image._pivots)]
    lhs = RationalMatrix.from_columns(n, [f.column(p) for p in pivot_cols] + [dense_vector({i: F1}, n) for i in complement])
    rhs = RationalMatrix.from_columns(n, [g.column(p) for p in pivot_cols] + [dense_vector({}, n) for _ in complement])
    return solve_multi(lhs.transpose(), rhs.transpose()).transpose()


def same_factorization(f, g):
    """factor_through and its reference give the same h, or both raise
    KernelNotContained; True when h exists."""
    try:
        expected = reference_factor_through(f, g)
    except KernelNotContained:
        with pytest.raises(KernelNotContained):
            factor_through(f, g)
        return False
    h = factor_through(f, g)
    assert h == expected and h @ f == g
    return True


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_factor_through_matches_reference(n, data):
    """On sparse f, mostly singular: g = m f always factors, and g = m f + e
    for a one-entry e factors exactly when e kills Ker f."""
    f = data.draw(sparse_matrices(n, n))
    g = data.draw(sparse_matrices(n, n)) @ f
    assert same_factorization(f, g)
    e = RationalMatrix.from_entries(n, n, [(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)), 1)])
    same_factorization(f, g + e)


@settings(deadline=None, max_examples=60)
@given(st.one_of(corpus_algebras(), ungraded_quotients(), st.sampled_from(["cn7a", "cn7b", "census7"]).map(example)), st.data())
def test_factor_through_matches_reference_on_adjoint_actions(algebra, data):
    """f = ad(x), singular since the algebra is nilpotent, against
    g = m ad(x), which factors, and g = ad(y), which factors only when
    Ker ad(x) lies in Ker ad(y)."""
    n = algebra.dim
    rep = adjoint(algebra)
    f = element_action(rep, data.draw(sparse_vectors(n)))
    assert same_factorization(f, data.draw(sparse_matrices(n, n)) @ f)
    same_factorization(f, element_action(rep, data.draw(sparse_vectors(n))))


@settings(deadline=None)
@given(st.data())
def test_solve_reproduces_known_solutions(data):
    rows = data.draw(st.integers(min_value=1, max_value=4))
    cols = data.draw(st.integers(min_value=1, max_value=4))
    a = data.draw(matrices(rows, cols))
    x = tuple(data.draw(st.lists(small_fractions, min_size=cols, max_size=cols)))
    b = a.apply(x)
    got = solve(a, b)
    assert got is not None
    assert a.apply(got) == b


def test_solve_multi_consistency():
    a = fraction_matrix([[1, 2], [0, 1]])
    b = fraction_matrix([[1, 0], [0, 1]])
    x = solve_multi(a, b)
    assert x is not None and a @ x == b


def test_determinism_bit_identical():
    m = fraction_matrix([[2, 4, 1], [1, 2, 0], [0, 3, 5]])
    first = rref(m)
    second = rref(m)
    assert list(first[0].entries()) == list(second[0].entries())
    assert first[1] == second[1]


# --- sparse subspaces: restricted actions and null spaces ---------------


def sparse_matrices(rows, cols):
    return st.lists(
        st.lists(sparse_fractions, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(RationalMatrix.from_rows)


def krylov_span(m, vectors):
    """Smallest m-invariant subspace containing the vectors."""
    span = Subspace.from_vectors(m.rows, vectors)
    while True:
        grown = Subspace.from_vectors(m.rows, span.basis_vectors() + [m.apply(v) for v in span.basis_vectors()])
        if grown == span:
            return span
        span = grown


def dense_kernel_basis(m):
    """Reference null space: one dense vector per free column of the RREF,
    fed through Subspace.from_vectors (how kernel_basis used to build it)."""
    r, pivots, _ = rref(m)
    vectors = []
    for free in range(m.cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for j, p in enumerate(pivots):
            coeff = r.entry(j, free)
            if coeff:
                vec[p] = -coeff
        vectors.append(vec)
    return Subspace.from_vectors(m.cols, vectors)


def sparse_rows(vectors):
    return [{i: Fraction(x) for i, x in enumerate(v) if x} for v in vectors]


def restricted_action(sub, m, spanning=None):
    """``restricted_actions`` of m alone on the integer RREF of rows that
    span the m-invariant sub: the given sparse rows, else sub's canonical
    rows."""
    rows, pivots = linalg._integer_rref(sub._rows if spanning is None else spanning)
    assert pivots == sub._pivots
    assert all(type(v) is int for row in rows for v in row.values())
    return restricted_actions([m], rows, pivots)[0]


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_restricted_action_matches_solve(n, data):
    m = data.draw(sparse_matrices(n, n))
    count = data.draw(st.integers(min_value=0, max_value=n))
    vectors = [data.draw(st.lists(sparse_fractions, min_size=n, max_size=n)) for _ in range(count)]
    sub = krylov_span(m, vectors)
    basis = RationalMatrix.from_columns(n, sub.basis_vectors())
    x = restricted_action(sub, m)
    assert x == solve_multi(basis, m @ basis)
    assert basis @ x == m @ basis
    # the same action from an echelon of spanning rows, which carries other
    # positive factors than the canonical rows: the vectors and the images
    # of the span span it
    spanning = sparse_rows(vectors + [m.apply(v) for v in sub.basis_vectors()])
    assert restricted_action(sub, m, spanning) == x
    # and on the null space of m, on its canonical rows
    kernel = kernel_basis(m)
    basis = RationalMatrix.from_columns(n, kernel.basis_vectors())
    assert restricted_action(kernel, m) == solve_multi(basis, m @ basis)


def test_restricted_action_not_invariant():
    # span{e0} is not invariant under the matrix sending e0 to e1: no X
    # solves basis @ X = m @ basis, and the orbit closure is all of Q^2
    sub = Subspace.from_vectors(2, [(1, 0)])
    m = fraction_matrix([[0, 0], [1, 0]])
    assert reference_restricted_action(sub, m) is None
    basis = RationalMatrix.from_columns(2, sub.basis_vectors())
    assert solve_multi(basis, m @ basis) is None
    closed = krylov_span(m, sub.basis_vectors())
    assert closed.dim == 2
    assert restricted_action(closed, m) == m


def test_restricted_action_not_invariant_with_kept_basis():
    # one echelon serves every matrix and is not written through
    rows, pivots = linalg._integer_rref([{0: 1}, {1: 1}])
    keeps = fraction_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    swaps = fraction_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert restricted_actions([keeps, swaps], rows, pivots) == [
        RationalMatrix.from_entries(2, 2, [(0, 1, 1)]),
        RationalMatrix.from_entries(2, 2, [(0, 1, 1), (1, 0, 1)]),
    ]
    assert rows == [{0: 1}, {1: 1}]
    # a matrix sending e1 out of span{e0, e1} is not handed over on that
    # span: the reference rejects it, and its orbit closure is e0, e1, e2
    leaves = fraction_matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    sub = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    assert reference_restricted_action(sub, leaves) is None
    closed = krylov_span(leaves, sub.basis_vectors())
    assert closed.dim == 3
    assert restricted_action(closed, leaves) == reference_restricted_action(closed, leaves)


def test_restricted_action_rejects_image_leaving_through_one_off_pivot_row():
    # span{(1, 0, 1), (0, 1, 0)} has pivots 0 and 1; m sends e1 to e2, so
    # the image is zero on both pivot rows and leaves only through row 2:
    # the reference rejects the span, and the orbit closure takes in e2
    sub = Subspace.from_vectors(3, [(1, 0, 1), (0, 1, 0)])
    assert sub._pivots == [0, 1]
    m = RationalMatrix.from_entries(3, 3, [(2, 1, 1)])
    assert reference_restricted_action(sub, m) is None
    closed = krylov_span(m, sub.basis_vectors())
    assert closed.dim == 3
    assert restricted_action(closed, m) == reference_restricted_action(closed, m)
    # the same image plus a matching pivot row stays inside: X is read there
    fixed = RationalMatrix.from_entries(3, 3, [(2, 1, 1), (0, 1, 1)])
    assert restricted_action(sub, fixed) == RationalMatrix.from_entries(2, 2, [(0, 1, 1)])


def test_restricted_action_shape_check():
    rows, pivots = linalg._integer_rref([{0: 1}, {1: 1}])
    with pytest.raises(DimensionMismatch):
        restricted_actions([RationalMatrix.zero(2, 3)], rows, pivots)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7), st.data())
def test_kernel_basis_matches_dense_construction(rows, cols, data):
    m = data.draw(sparse_matrices(rows, cols))
    kernel = kernel_basis(m)
    reference = dense_kernel_basis(m)
    assert kernel == reference
    assert kernel.basis_vectors() == reference.basis_vectors()


# --- integer numerators and the sparse product ---------------------------

def fraction_matmul_rowmaps(a, b):
    """The product loop RationalMatrix.__matmul__ ran on Fractions before it
    moved into mul_rowmaps, kept as the reference."""
    data = {}
    for r, row in a.items():
        accum = {}
        for k, x in row.items():
            brow = b.get(k)
            if not brow:
                continue
            for c, y in brow.items():
                nv = accum.get(c, Fraction(0)) + x * y
                if nv:
                    accum[c] = nv
                else:
                    del accum[c]
        if accum:
            data[r] = accum
    return data


def rowmap_items(data):
    """Rows and entries in storage order, so equal items mean equal dicts
    built in the same order."""
    return [(r, list(row.items())) for r, row in data.items()]


sizes = st.integers(min_value=1, max_value=5)


class TestIntegerForm:
    def test_lcm_denominator(self):
        m = fraction_matrix([[Fraction(1, 2), 0], [Fraction(-5, 4), Fraction(1, 3)]])
        numerators, d = m.integer_form()
        assert d == 12
        assert numerators == {0: {0: 6}, 1: {0: -15, 1: 4}}
        assert all(type(v) is int for row in numerators.values() for v in row.values())

    def test_built_once(self):
        m = fraction_matrix([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])
        form = m.integer_form()
        assert m.integer_form() is form
        assert form == ({0: {0: 3}, 1: {1: 4}}, 6)

    def test_zero_and_integer_matrices(self):
        assert RationalMatrix.zero(2, 3).integer_form() == ({}, 1)
        assert fraction_matrix([[2, 0], [0, -3]]).integer_form() == ({0: {0: 2}, 1: {1: -3}}, 1)


@given(sizes, sizes, st.data())
def test_integer_form_round_trip(rows, cols, data):
    m = data.draw(sparse_matrices(rows, cols))
    numerators, d = m.integer_form()
    denominators = [v.denominator for _, _, v in m.entries()]
    assert d == reduce(lambda x, y: x * y // gcd(x, y), denominators, 1)
    assert all(type(v) is int for row in numerators.values() for v in row.values())
    assert RationalMatrix(rows, cols, numerators).scale(Fraction(1, d)) == m


class TestMulRowmaps:
    def test_cancellation_drops_entries_and_rows(self):
        a = fraction_matrix([[1, 1], [1, 0]])
        b = fraction_matrix([[1, 2], [-1, 0]])
        # row 0: (1, 2) + (-1, 0) = (0, 2); row 1: (1, 2)
        assert mul_rowmaps(a._data, b._data) == {0: {1: 2}, 1: {0: 1, 1: 2}}
        c = fraction_matrix([[1, 0], [-1, 0]])
        # row 0 of a @ c cancels to zero and is dropped
        assert mul_rowmaps(a._data, c._data) == {1: {0: 1}}
        assert (a @ c)._data == {1: {0: 1}}

    def test_integer_entries(self):
        assert mul_rowmaps({0: {0: 2, 1: 3}}, {0: {0: 5}, 1: {0: -4}}) == {0: {0: -2}}


@given(sizes, sizes, sizes, st.data())
def test_mul_rowmaps_matches_fraction_loop(rows, inner, cols, data):
    a = data.draw(sparse_matrices(rows, inner))
    b = data.draw(sparse_matrices(inner, cols))
    reference = fraction_matmul_rowmaps(a._data, b._data)
    assert rowmap_items(mul_rowmaps(a._data, b._data)) == rowmap_items(reference)
    assert rowmap_items((a @ b)._data) == rowmap_items(reference)
    # on integer numerators the product is N_a N_b = d_a d_b (a @ b)
    (na, da), (nb, db) = a.integer_form(), b.integer_form()
    assert RationalMatrix(rows, cols, mul_rowmaps(na, nb)) == (a @ b).scale(da * db)


# --- the elimination against the row-scan reference ---------------------

def width(rowdicts):
    """One more than the highest column holding an entry: the columns a
    reference elimination scans for ``_integer_rref``, which takes none."""
    return 1 + max((c for row in rowdicts for c in row), default=-1)


def primitive_integer_row(row):
    """A canonical Fraction RREF row (1 at its pivot) as the eliminator
    keeps it: scaled by the lcm of its denominators, then over the gcd of
    its entries, so primitive and positive at the pivot."""
    d = lcm(*(Fraction(v).denominator for v in row.values()))
    ints = {k: int(v * d) for k, v in row.items()}
    g = reduce(gcd, ints.values())
    return {k: v // g for k, v in ints.items()}


def as_integer_rref(reference):
    """A Fraction reference elimination in place of ``_integer_rref``: its
    pivot rows made primitive integers, so it returns what the eliminator
    returns."""

    def eliminated(rowdicts):
        rows, pivots = reference(rowdicts, width(rowdicts))
        return [primitive_integer_row(row) for row in rows[: len(pivots)]], pivots

    return eliminated


def rref_rows(rowdicts, cols):
    """The canonical Fraction pivot rows and pivots of the rows, read off
    ``rref``, which divides the integer rows of ``_integer_rref``."""
    r, pivots, _ = rref(RationalMatrix(len(rowdicts), cols, {i: row for i, row in enumerate(rowdicts) if row}))
    return [r.row_map(i) for i in range(len(pivots))], pivots


def reference_rref_rowdicts(rowdicts, cols):
    """A Gauss-Jordan elimination in Fractions, kept as the reference: it
    scans every remaining row for each column's pivot and every row for
    each elimination, and returns all rows, zero rows last."""
    rows = [dict(r) for r in rowdicts]
    nrows = len(rows)
    pivots = []
    pr = 0
    for c in range(cols):
        pivot = -1
        for i in range(pr, nrows):
            if c in rows[i]:
                pivot = i
                break
        if pivot < 0:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        prow = rows[pr]
        pv = prow[c]
        if pv != 1:
            inv = Fraction(1) / pv
            prow = {k: v * inv for k, v in prow.items()}
            rows[pr] = prow
        for i in range(nrows):
            if i == pr:
                continue
            row = rows[i]
            f = row.get(c)
            if f is None:
                continue
            for k, v in prow.items():
                nv = row.get(k, Fraction(0)) - f * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


def reference_matrix_rowdicts(m):
    """One dict per row, zero rows included, as the reference received them."""
    return [dict(m._data.get(r, {})) for r in range(m.rows)]


@st.composite
def scattered_matrices(draw, rows, cols, max_entries):
    """A rows x cols matrix with at most max_entries scattered nonzeros."""
    if rows == 0 or cols == 0:
        return RationalMatrix.zero(rows, cols)
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), small_fractions)
    return RationalMatrix.from_entries(rows, cols, draw(st.lists(cell, max_size=max_entries)))


@st.composite
def dependent_matrices(draw):
    """Rows that are copies or small combinations of a few base rows."""
    cols = draw(st.integers(1, 7))
    base = [draw(st.lists(sparse_fractions, min_size=cols, max_size=cols)) for _ in range(draw(st.integers(1, 3)))]
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(base))))
        else:
            coeffs = [draw(sparse_fractions) for _ in base]
            rows.append([sum((a * b[j] for a, b in zip(coeffs, base)), Fraction(0)) for j in range(cols)])
    return RationalMatrix.from_rows(rows)


@st.composite
def single_entry_rows(draw):
    """Sparse rows, most of them with one entry, as ints and Fractions:
    single entries, repeats of earlier rows, single entries on columns that
    other rows share, chains in which each peeled column leaves a new
    single-entry row, and rows whose every column gets peeled; in shuffled
    order, with the number of columns."""
    cols = draw(st.integers(2, 9))
    column = st.integers(0, cols - 1)
    value = st.one_of(st.integers(-3, 3).filter(bool), nonzero_fractions)
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["single", "repeat", "shared", "chain", "emptied"]))
        if kind == "single" or not rows:
            rows.append({draw(column): draw(value)})
        elif kind == "repeat":
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "shared":
            # a wider row, and a single entry on one of its columns
            wide = {c: draw(value) for c in draw(st.lists(column, min_size=2, max_size=4, unique=True))}
            rows += [wide, {draw(st.sampled_from(sorted(wide))): draw(value)}]
        elif kind == "chain":
            # {c0}, {c0, c1}, {c1, c2}, ...: peeling c0 leaves {c1}, and so on
            chain = draw(st.lists(column, min_size=2, max_size=cols, unique=True))
            rows.append({chain[0]: draw(value)})
            rows += [{a: draw(value), b: draw(value)} for a, b in zip(chain, chain[1:])]
        else:
            # a row on columns that single entries already hold
            held = sorted({c for row in rows if len(row) == 1 for c in row})
            if held:
                rows.append({c: draw(value) for c in draw(st.lists(st.sampled_from(held), min_size=1, max_size=3, unique=True))})
    return draw(st.permutations(rows)), cols


def single_entry_matrices():
    """``single_entry_rows`` as a matrix whose rows keep their ints, as the
    integer systems of ``liealg.center`` and ``graded.cocycle_space`` do."""
    return single_entry_rows().map(lambda s: RationalMatrix(len(s[0]), s[1], dict(enumerate(s[0]))))


elimination_inputs = st.one_of(
    # any shape, 0 x n and n x 0 included
    st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(lambda s: scattered_matrices(s[0], s[1], 20)),
    # tall and mostly empty rows: the shape of rep_kernel's stacked matrix
    st.tuples(st.integers(10, 60), st.integers(1, 5)).flatmap(lambda s: scattered_matrices(s[0], s[1], 8)),
    # wide
    st.tuples(st.integers(1, 4), st.integers(6, 14)).flatmap(lambda s: scattered_matrices(s[0], s[1], 25)),
    dependent_matrices(),
    # mostly single-entry rows, which the eliminator peels first
    single_entry_matrices(),
)


def with_reference_elimination(fn, *args):
    """fn(*args) with the reference elimination (trimmed to its pivot rows,
    made primitive integers) and the reference one-dict-per-row input in
    place of the new ones."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_integer_rref", as_integer_rref(reference_rref_rowdicts))
        mp.setattr(linalg, "_matrix_rowdicts", reference_matrix_rowdicts)
        return fn(*args)


@settings(deadline=None, max_examples=300)
@given(elimination_inputs)
def test_elimination_matches_reference(m):
    rowdicts = reference_matrix_rowdicts(m)
    snapshot = copy.deepcopy(rowdicts)
    rows, pivots = linalg._integer_rref(rowdicts)
    assert rowdicts == snapshot
    ref_rows, ref_pivots = reference_rref_rowdicts(rowdicts, m.cols)
    assert pivots == ref_pivots
    assert rows == [primitive_integer_row(row) for row in ref_rows[: len(ref_pivots)]]
    assert not any(ref_rows[len(ref_pivots):])
    assert linalg._integer_rref(linalg._matrix_rowdicts(m)) == (rows, pivots)
    # rref divides those rows into the reference's Fraction rows
    assert rref(m) == (RationalMatrix(m.rows, m.cols, dict(enumerate(ref_rows[: len(ref_pivots)]))), pivots, len(pivots))


@settings(deadline=None, max_examples=200)
@given(elimination_inputs, st.integers(0, 3), st.data())
def test_entry_points_match_reference_and_keep_inputs(m, rhs_cols, data):
    b = data.draw(scattered_matrices(m.rows, rhs_cols, 6))
    vectors = [m.row_map(r) for r in range(m.rows)]
    dense_rows = [tuple(row.get(c, Fraction(0)) for c in range(m.cols)) for row in vectors]
    before_m, before_b = copy.deepcopy(m._data), copy.deepcopy(b._data)
    calls = [
        (rref, m),
        (rank, m),
        (kernel_basis, m),
        (solve_multi, m, b),
        (Subspace.from_vectors, m.cols, dense_rows),
    ]
    for fn, *args in calls:
        assert fn(*args) == with_reference_elimination(fn, *args)
        assert m._data == before_m and b._data == before_b


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (4, 4), (30, 2)])
def test_zero_matrices(rows, cols):
    m = RationalMatrix.zero(rows, cols)
    assert rref(m) == (m, [], 0)
    assert kernel_basis(m) == Subspace.full(cols)
    assert solve_multi(m, RationalMatrix.zero(rows, 2)) == RationalMatrix.zero(cols, 2)
    assert linalg._integer_rref([{}] * rows) == ([], [])
    assert solve(m, (Fraction(0),) * rows) == (Fraction(0),) * cols
    if rows:
        # any nonzero entry of B is a pivot in the B block
        b = RationalMatrix.from_entries(rows, 2, [(rows - 1, 1, 5)])
        assert solve_multi(m, b) is None
        assert solve(m, (Fraction(0),) * (rows - 1) + (Fraction(1),)) is None


# --- kernel_basis in one elimination against the two-pass reference ------

def reference_kernel_rows(m):
    """``kernel_basis`` as it was before its single elimination, kept as the
    reference: left-to-right elimination, then a second ``rref`` pass that
    puts the null vectors in canonical form; the canonical Fraction rows
    and their pivots."""
    rows, pivots = rref_rows(linalg._matrix_rowdicts(m), m.cols)
    pivot_set = set(pivots)
    # One null vector per free column: 1 there, minus that column of each
    # RREF row at the row's pivot.  RREF rows are zero at the other pivots.
    null = {free: {free: Fraction(1)} for free in range(m.cols) if free not in pivot_set}
    for row, p in zip(rows, pivots):
        for c, v in row.items():
            if c != p:
                null[c][p] = -v
    return rref_rows(list(null.values()), m.cols)


def reference_kernel_basis(m):
    return Subspace.from_rows(m.cols, reference_kernel_rows(m)[0])


def assert_canonical_rref(rows, pivots, cols):
    """Increasing pivots inside [0, cols); each row leads with 1 at its
    pivot, is zero at the other pivots, and stores no zero."""
    assert pivots == sorted(set(pivots)) and all(0 <= p < cols for p in pivots)
    assert len(rows) == len(pivots)
    pivot_set = set(pivots)
    for row, p in zip(rows, pivots):
        assert min(row) == p and row[p] == 1
        assert all(row.values()) and max(row) < cols
        assert not (set(row) & pivot_set) - {p}


@settings(deadline=None, max_examples=300)
@given(st.one_of(elimination_inputs, st.tuples(st.integers(0, 7), st.integers(0, 7)).map(lambda s: RationalMatrix.zero(*s))))
def test_kernel_basis_matches_two_pass_reference(m):
    before = copy.deepcopy(m._data)
    kernel = kernel_basis(m)
    assert m._data == before
    rows, pivots = reference_kernel_rows(m)
    assert list(kernel.basis_rows()) == rows
    assert kernel._pivots == pivots
    assert kernel.ambient_dim == m.cols
    assert_canonical_rref(list(kernel.basis_rows()), kernel._pivots, m.cols)
    assert_integer_echelon(kernel)
    assert m @ RationalMatrix.from_columns(m.cols, kernel.basis_vectors()) == RationalMatrix.zero(m.rows, kernel.dim)
    assert kernel.dim + rank(m) == m.cols


def test_kernel_basis_takes_one_elimination(monkeypatch):
    # the one eliminator that kernel_basis, rref, the solves and Subspace
    # all run, counted where kernel_basis reaches it
    calls = []
    real = linalg._integer_rref

    def counted(rowdicts):
        calls.append(width(rowdicts))
        return real(rowdicts)

    monkeypatch.setattr(linalg, "_integer_rref", counted)
    m = fraction_matrix([[1, 2, 0, 3], [0, 0, 1, -1], [2, 4, 1, 5]])
    kernel = kernel_basis(m)
    assert calls == [4]
    assert kernel == reference_kernel_basis(m)
    # right to left, columns 3 and 2 take the pivots; the free columns 0
    # and 1 lead the null vectors
    assert kernel._pivots == [0, 1]
    third = Fraction(1, 3)
    assert kernel.basis_vectors() == [(1, 0, -third, -third), (0, 1, -2 * third, -2 * third)]


def test_matrix_rowdicts_skips_zero_rows():
    # rep_kernel's stacked matrices are tall with few nonzero rows; no
    # empty dict is built for the others
    m = RationalMatrix.from_entries(10_000, 2, [(7, 1, 3), (2, 0, 1)])
    assert linalg._matrix_rowdicts(m) == [{0: Fraction(1)}, {1: Fraction(3)}]


# --- single-entry rows peeled before the elimination ---------------------

CASCADE = [{0: 2}, {0: 1, 1: 3}, {1: -1, 2: 5}, {2: 1, 3: 1, 4: 1}]


def test_cascade_peels_three_columns_and_keeps_its_inputs(monkeypatch):
    # {0: 2} makes 0 a pivot; deleting 0 leaves {1: 3}, then {2: 5}, and
    # {3: 1, 4: 1} is all that reaches the elimination
    rows = copy.deepcopy(CASCADE)
    units, rest = linalg._peel(rows)
    assert units == {0, 1, 2} and rest == [{3: 1, 4: 1}]
    assert rest[0] is not rows[3]
    assert linalg._integer_rref(rows) == ([{0: 1}, {1: 1}, {2: 1}, {3: 1, 4: 1}], [0, 1, 2, 3])
    m = RationalMatrix(4, 5, dict(enumerate(rows)))
    assert rref(m) == (RationalMatrix(4, 5, {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {3: 1, 4: 1}}), [0, 1, 2, 3], 4)
    # the flip copies only the row left, as columns 1 and 0
    seen = []
    real = linalg._integer_rref
    monkeypatch.setattr(linalg, "_integer_rref", lambda flipped: seen.append(copy.deepcopy(flipped)) or real(flipped))
    kernel = kernel_basis(m)
    assert seen == [[{1: 1, 0: 1}]]
    # right to left, column 4 takes the pivot and 3 is free: e3 - e4
    assert kernel._pivots == [3] and kernel.basis_vectors() == [(0, 0, 0, 1, -1)]
    assert kernel == reference_kernel_basis(m)
    assert rows == CASCADE and all(type(v) is int for row in rows for v in row.values())


def test_stored_zero_is_never_a_single_entry():
    # no caller stores a zero; if one did, {c: 0} would make c no pivot,
    # whether it came in that way or was left by the peel
    units, rest = linalg._peel([{2: 0}, {1: Fraction(1, 2)}, {1: 1, 3: 0}])
    assert units == {1} and rest == [{2: 0}, {3: 0}]
    assert linalg._peel([{0: 0}, {0: 5}]) == ({0}, [])


# --- fraction-free elimination against the Fraction one -----------------

def fraction_rref_rowdicts(rowdicts, cols):
    """A Gauss-Jordan elimination in Fractions, kept as the reference: a
    {col: row ids} index picks the lowest unused row holding each column
    as its pivot, each pivot row is normalized to 1 and every elimination
    step runs in Fractions."""
    rows = {}
    index = {}
    for i, r in enumerate(rowdicts):
        if r:
            rows[i] = {k: Fraction(v) for k, v in r.items()}
            for c in r:
                index.setdefault(c, set()).add(i)
    used = set()
    pivot_ids = []
    pivots = []
    for c in range(cols):
        holders = index.pop(c, ())
        p = min((i for i in holders if i not in used), default=None)
        if p is None:
            continue
        prow = rows[p]
        pv = prow[c]
        if pv != 1:
            inv = Fraction(1) / pv
            prow = rows[p] = {k: v * inv for k, v in prow.items()}
        for i in holders:
            if i == p:
                continue
            row = rows[i]
            f = row[c]
            for k, v in prow.items():
                old = row.get(k)
                if old is None:
                    row[k] = -f * v
                    index.setdefault(k, set()).add(i)
                    continue
                nv = old - f * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
                    if k != c:
                        index[k].discard(i)
        used.add(p)
        pivot_ids.append(p)
        pivots.append(c)
    return [rows[p] for p in pivot_ids], pivots


# small values, and numerators and denominators far past a machine word
wide_fractions = st.one_of(
    small_fractions,
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)
sparse_wide = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), wide_fractions)


@st.composite
def rational_systems(draw):
    """Dense rows over wide fractions: fresh rows, repeats of earlier rows,
    and combinations of earlier rows, which cancel to zero in elimination;
    0 rows and 0 columns included."""
    cols = draw(st.integers(0, 7))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "repeat", "combination"])) if rows else "fresh"
        if kind == "fresh":
            rows.append([draw(sparse_wide) for _ in range(cols)])
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            coeffs = [draw(wide_fractions) for _ in picked]
            rows.append([sum((a * r[j] for a, r in zip(coeffs, picked)), Fraction(0)) for j in range(cols)])
    return rows, cols


def spelled(x, form):
    """x as an int (where it is integral), a Fraction, or a "p/q" string;
    a zero is spelled "0" as a string, which is truthy."""
    if form == "int" and x.denominator == 1:
        return int(x)
    return str(x) if form == "str" else x


def with_fraction_elimination(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_integer_rref", as_integer_rref(fraction_rref_rowdicts))
        return fn(*args)


def all_fractions(rowdicts):
    return all(type(v) is Fraction for row in rowdicts for v in row.values())


def dense_rows(system):
    rows, cols = system
    return [[Fraction(row.get(c, 0)) for c in range(cols)] for row in rows], cols


@settings(deadline=None, max_examples=300)
@given(st.one_of(rational_systems(), single_entry_rows().map(dense_rows)), st.integers(0, 3), st.data())
def test_integer_elimination_matches_fraction_reference(system, rhs_cols, data):
    dense, cols = system
    m = RationalMatrix.from_entries(len(dense), cols, ((r, c, x) for r, row in enumerate(dense) for c, x in enumerate(row)))
    b = data.draw(scattered_matrices(m.rows, rhs_cols, 6))

    r, pivots, rk = rref(m)
    assert (r, pivots, rk) == with_fraction_elimination(rref, m)
    assert all_fractions(r._data.values())

    kernel = kernel_basis(m)
    assert (list(kernel.basis_rows()), kernel._pivots) == with_fraction_elimination(reference_kernel_rows, m)
    assert all_fractions(kernel.basis_rows())
    assert_integer_echelon(kernel)

    solution = solve_multi(m, b)
    assert solution == with_fraction_elimination(solve_multi, m, b)
    assert solution is None or all_fractions(solution._data.values())

    forms = data.draw(st.lists(st.sampled_from(["int", "fraction", "str"]), min_size=cols, max_size=cols))
    vectors = [tuple(spelled(x, form) for x, form in zip(row, forms)) for row in dense]
    span = Subspace.from_vectors(cols, vectors)
    ref = fraction_rref_rowdicts([{c: Fraction(x) for c, x in enumerate(v) if Fraction(x)} for v in vectors], cols)
    assert (list(span.basis_rows()), span._pivots) == ref
    assert all_fractions(span.basis_rows())
    assert_integer_echelon(span)


def test_integer_elimination_returns_fractions_for_integer_input():
    # every pivot is 1 and every entry an int; the eliminator keeps ints,
    # and rref's rows hold Fractions, since callers divide them with /
    system = [{0: 1, 1: 2}, {1: 1, 2: -3}, {0: 1, 1: 3, 2: -3}]
    assert linalg._integer_rref(system) == ([{0: 1, 2: 6}, {1: 1, 2: -3}], [0, 1])
    rows, pivots = rref_rows(system, 3)
    assert pivots == [0, 1]
    assert rows == [{0: 1, 2: 6}, {1: 1, 2: -3}]
    assert all_fractions(rows)
    # a Subspace keeps the primitive integer row; basis_rows divides it
    sub = Subspace.from_vectors(2, [(2, 4)])
    assert sub._rows == [{0: 1, 1: 2}]
    assert list(sub.basis_rows()) == [{0: 1, 1: 2}] and all_fractions(sub.basis_rows())
    assert sub.basis_vectors()[0][1] / 4 == Fraction(1, 2)
    sub = Subspace.from_vectors(3, [(6, 4, 0), (0, 0, "1/2")])
    assert sub._rows == [{0: 3, 1: 2}, {2: 1}]
    assert_integer_echelon(sub)
    assert list(sub.basis_rows()) == [{0: 1, 1: Fraction(2, 3)}, {2: 1}] and all_fractions(sub.basis_rows())


def test_from_vectors_converts_string_entries_before_dropping_zeros():
    # "0", "0/5" and "-0" are truthy strings that read as zero
    assert Subspace.from_vectors(2, [("0", "1")]) == Subspace.from_vectors(2, [(0, 1)])
    sub = Subspace.from_vectors(3, [("0/5", "2", "-0"), ("-0", "1/2", "3")])
    assert sub._pivots == [1, 2] and sub._rows == [{1: 1}, {2: 1}]
    assert_integer_echelon(sub)
    assert all_fractions(sub.basis_rows())


def test_row_reduction_never_calls_span_basis_add(monkeypatch):
    # the benchmark times SpanBasis.add as a layer of its own, so the row
    # reduction reaches the shared echelon map through the private helpers
    m = fraction_matrix([[1, Fraction(1, 2), 0, 3], [2, 1, Fraction(-1, 3), 0], [0, 0, 1, 2]])
    b = fraction_matrix([[1, 0], [0, 1], [1, 1]])
    vectors = [(1, Fraction(1, 2), 0, 3), (2, 1, "-1/3", 0), (3, Fraction(3, 2), "-1/3", 3)]
    expected = (rref(m), kernel_basis(m), solve_multi(m, b), Subspace.from_vectors(4, vectors))

    def refuse(self, vec):
        raise RuntimeError("SpanBasis.add reached from a row reduction")

    monkeypatch.setattr(linalg.SpanBasis, "add", refuse)
    assert (rref(m), kernel_basis(m), solve_multi(m, b), Subspace.from_vectors(4, vectors)) == expected
    assert expected[1].dim == 1 and expected[3].dim == 2


# --- SpanBasis.reduced() and the solves against the Fraction references ---

@settings(deadline=None, max_examples=300)
@given(st.one_of(single_entry_rows(), rational_systems().map(lambda s: (sparse_rows(s[0]), s[1]))), st.data())
def test_span_basis_reduced_matches_integer_rref_and_reference(system, data):
    rows, cols = system
    ints = [linalg._integer_row(row)[0] for row in rows]
    snapshot = copy.deepcopy(ints)
    span = linalg.SpanBasis()
    for row in ints:
        span.add(row)
    reduced = span.reduced()
    assert ints == snapshot
    assert reduced == linalg._integer_rref(rows)
    ref_rows, ref_pivots = reference_rref_rowdicts(rows, cols)
    assert reduced == ([primitive_integer_row(row) for row in ref_rows[: len(ref_pivots)]], ref_pivots)
    assert span.dim == len(ref_pivots)
    # a second pass changes nothing, and the span still takes rows
    assert span.reduced() == reduced
    if cols:
        columns = data.draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=3, unique=True))
        extra = {c: data.draw(st.integers(-3, 3).filter(bool)) for c in columns}
        span.add(extra)
        assert span.reduced() == linalg._integer_rref(rows + [extra])


def test_span_basis_reduced_of_single_entry_rows():
    # the rows _integer_rref peels reach the same RREF through reduced()
    span = linalg.SpanBasis()
    for row in CASCADE:
        span.add(row)
    assert span.reduced() == linalg._integer_rref(CASCADE) == ([{0: 1}, {1: 1}, {2: 1}, {3: 1, 4: 1}], [0, 1, 2, 3])
    assert linalg.SpanBasis().reduced() == ([], [])
    span = linalg.SpanBasis()
    span.add({2: -4})
    assert span.reduced() == ([{2: 1}], [2])


def reference_solve_multi(a, b):
    """``solve_multi`` by the Fraction Gauss-Jordan reference on the dense
    augmented rows (A | B), zero rows included: None when a pivot falls in
    B's columns, else X whose row at each pivot p is the B block of the
    pivot row of p and whose other rows are zero."""
    n, k = a.cols, b.cols
    augmented = [
        {c: v for c, v in enumerate([a.entry(r, c) for c in range(n)] + [b.entry(r, c) for c in range(k)]) if v}
        for r in range(a.rows)
    ]
    rows, pivots = reference_rref_rowdicts(augmented, n + k)
    if any(p >= n for p in pivots):
        return None
    return RationalMatrix.from_entries(n, k, [(p, c - n, v) for row, p in zip(rows, pivots) for c, v in row.items() if c >= n])


@st.composite
def linear_systems(draw):
    """(A, B, kind), A of any shape, 0 x n and n x 0 included.  B is A X for
    a drawn X ("consistent"), drawn on its own ("random", mostly
    inconsistent where A is rank-deficient), zero ("zero"), or nonzero on
    rows A leaves empty, appended to A ("outside", inconsistent)."""
    rows, cols, k = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 3))
    a = draw(scattered_matrices(rows, cols, 15))
    kind = draw(st.sampled_from(["consistent", "random", "zero", "outside"]))
    if kind == "consistent":
        b = a @ draw(scattered_matrices(cols, k, 8))
    elif kind == "random":
        b = draw(scattered_matrices(rows, k, 8))
    elif kind == "zero":
        b = RationalMatrix.zero(rows, k)
    else:
        extra, k = draw(st.integers(1, 3)), max(k, 1)
        a = RationalMatrix(rows + extra, cols, a._data)
        inside = list(draw(scattered_matrices(rows, k, 6)).entries())
        outside = (rows + draw(st.integers(0, extra - 1)), draw(st.integers(0, k - 1)), draw(nonzero_fractions))
        b = RationalMatrix.from_entries(rows + extra, k, inside + [outside])
    return a, b, kind


@settings(deadline=None, max_examples=300)
@given(linear_systems())
def test_solves_match_fraction_reference(system):
    a, b, kind = system
    before = copy.deepcopy((a._data, b._data))
    x = solve_multi(a, b)
    assert (a._data, b._data) == before
    assert x == reference_solve_multi(a, b)
    if kind == "outside":
        assert x is None
    if kind in ("consistent", "zero"):
        assert x is not None and a @ x == b
    if kind == "zero":
        assert x.is_zero()
    if x is not None:
        assert (x.rows, x.cols) == (a.cols, b.cols)
        assert all_fractions(x._data.values())
    # solve, one column at a time, agrees with the reference and with x
    columns = [b.column(j) for j in range(b.cols)] or [(Fraction(0),) * a.rows]
    for column in columns:
        y = solve(a, column)
        bj = RationalMatrix.from_columns(a.rows, [column])
        ref = reference_solve_multi(a, bj)
        assert y == (None if ref is None else ref.column(0))
        assert y is None or a.apply(y) == tuple(column)
    if x is not None:
        assert [x.column(j) for j in range(b.cols)] == [solve(a, b.column(j)) for j in range(b.cols)]
    else:
        assert any(solve(a, b.column(j)) is None for j in range(b.cols))


# --- no arithmetic that cannot change a value: the old kernels as references


def reference_from_entries(rows, cols, entries):
    """from_entries as it added every value to F0 at a new position."""
    data = {}
    for r, c, v in entries:
        fv = Fraction(v)
        if fv == 0:
            continue
        row = data.setdefault(r, {})
        nv = row.get(c, Fraction(0)) + fv
        if nv:
            row[c] = nv
        else:
            del row[c]
            if not row:
                del data[r]
    return RationalMatrix(rows, cols, data)


def reference_reduce(rows, vec):
    """SpanBasis.reduce as it computed F0 - f*w at a new position."""
    vec = dict(vec)
    while vec:
        lead = min(vec)
        row = rows.get(lead)
        if row is None:
            return vec
        f = vec[lead]
        for k, v in row.items():
            nv = vec.get(k, Fraction(0)) - f * v
            if nv:
                vec[k] = nv
            else:
                del vec[k]
    return vec


def reference_coordinates(sub, v):
    """The coordinates of v in sub's canonical basis by reduction against its
    echelon rows, computing F0 - c*w at a new position."""
    residual = {i: Fraction(x) for i, x in enumerate(v) if x}
    coords = []
    for p, row in zip(sub._pivots, sub.basis_rows()):
        c = residual.get(p, Fraction(0))
        coords.append(c)
        if c:
            for k, w in row.items():
                nv = residual.get(k, Fraction(0)) - c * w
                if nv:
                    residual[k] = nv
                else:
                    residual.pop(k, None)
    return None if residual else tuple(coords)


# the unit written three ways, so a check on the value, not the spelling,
# is what copies an entry
units = st.sampled_from([1, Fraction(1), Fraction(2, 2)])
unit_heavy = st.one_of(units, units, sparse_fractions)


@st.composite
def entry_lists(draw, rows, cols):
    """Entries with repeated positions, some of them cancelling."""
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), unit_heavy)
    entries = draw(st.lists(cells, max_size=2 * rows * cols))
    if entries:
        for r, c, v in draw(st.lists(st.sampled_from(entries), max_size=3)):
            entries.append((r, c, -Fraction(v)))
    return entries


@st.composite
def unit_matrices(draw, rows, cols):
    """An identity, a partial identity (diagonal ones with some dropped and
    some off-diagonal entries added), or a matrix heavy in unit entries."""
    kind = draw(st.sampled_from(["identity", "partial", "units"]))
    if kind == "identity" and rows == cols:
        return RationalMatrix.identity(rows)
    entries = []
    if kind != "units":
        entries = [(i, i, draw(units)) for i in range(min(rows, cols)) if draw(st.booleans())]
    return RationalMatrix.from_entries(rows, cols, entries + draw(entry_lists(rows, cols)))


def stored_fractions(m):
    return all(type(v) is Fraction and v for row in m._data.values() for v in row.values()) and all(m._data.values())


@settings(deadline=None, max_examples=100)
@given(sizes, sizes, st.data())
def test_from_entries_and_add_match_zero_adding_reference(rows, cols, data):
    entries = data.draw(entry_lists(rows, cols))
    m = RationalMatrix.from_entries(rows, cols, entries)
    assert m == reference_from_entries(rows, cols, entries) and stored_fractions(m)
    other = data.draw(st.one_of(unit_matrices(rows, cols), st.just(m.scale(-1)), sparse_matrices(rows, cols)))
    before = (copy.deepcopy(m._data), copy.deepcopy(other._data))
    total = m + other
    assert total == reference_add(m, other) and stored_fractions(total)
    assert m - other == reference_add(m, other.scale(-1))
    # rows are shared with the operands, never written through
    assert (m._data, other._data) == before


def test_add_of_cancelling_rows_drops_them():
    a = RationalMatrix.from_entries(2, 2, [(0, 0, 1), (1, 1, Fraction(2, 2))])
    b = RationalMatrix.from_entries(2, 2, [(0, 0, -1), (1, 0, 3)])
    assert (a + b)._data == {1: {1: Fraction(1), 0: Fraction(3)}}
    assert (a + a.scale(-1))._data == {}
    assert RationalMatrix.from_entries(2, 2, [(0, 1, 1), (0, 1, Fraction(-2, 2))])._data == {}


@settings(deadline=None, max_examples=100)
@given(sizes, sizes, sizes, sizes, st.data())
def test_kronecker_matches_multiply_every_pair(p, q, s, t, data):
    a = data.draw(st.one_of(unit_matrices(p, q), sparse_matrices(p, q)))
    b = data.draw(st.one_of(unit_matrices(s, t), sparse_matrices(s, t)))
    k = kronecker(a, b)
    assert k == reference_kronecker(a, b) and stored_fractions(k)
    assert (k.rows, k.cols) == (p * s, q * t)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_tensor_action_sum_matches_reference(n, m, data):
    # the shape tensor_product builds: A (x) I + I (x) B
    a = data.draw(st.one_of(unit_matrices(n, n), sparse_matrices(n, n)))
    b = data.draw(st.one_of(unit_matrices(m, m), sparse_matrices(m, m)))
    ia, ib = RationalMatrix.identity(n), RationalMatrix.identity(m)
    got = kronecker(a, ib) + kronecker(ia, b)
    assert got == reference_add(reference_kronecker(a, ib), reference_kronecker(ia, b))


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_restricted_action_matches_full_product_reference(n, data):
    m = data.draw(st.one_of(sparse_matrices(n, n), unit_matrices(n, n)))
    count = data.draw(st.integers(min_value=0, max_value=n))
    vectors = [data.draw(st.lists(sparse_fractions, min_size=n, max_size=n)) for _ in range(count)]
    sub = krylov_span(m, vectors)
    x = restricted_action(sub, m)
    assert x == reference_restricted_action(sub, m)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_reduce_and_coordinates_match_zero_subtracting_reference(n, data):
    vectors = [data.draw(st.lists(unit_heavy, min_size=n, max_size=n)) for _ in range(data.draw(st.integers(0, n)))]
    sub = Subspace.from_vectors(n, vectors)
    span = FractionSpanBasis()
    for v in vectors:
        span.add({i: Fraction(x) for i, x in enumerate(v) if x})
    for _ in range(3):
        v = data.draw(st.one_of(st.lists(unit_heavy, min_size=n, max_size=n), st.sampled_from(sub.basis_vectors() or [(0,) * n])))
        assert solve(RationalMatrix.from_columns(n, sub.basis_vectors()), v) == reference_coordinates(sub, v)
        sparse = {i: Fraction(x) for i, x in enumerate(v) if x}
        assert span.reduce(sparse) == reference_reduce(span._rows, sparse)
        # integer values, as the nilpotency chain hands over
        ints = {i: int(x * 6) for i, x in sparse.items() if int(x * 6)}
        assert span.reduce(ints) == reference_reduce(span._rows, ints)


# --- the fraction-free SpanBasis against the Fraction one it replaced ---

int_entries = st.one_of(st.just(0), st.just(0), st.integers(min_value=-6, max_value=6))


def residual_of(span, vec):
    """vec reduced against the span's rows, as ``SpanBasis.add`` reduces it
    before storing the residual (into a copy of the rows); vec and the span
    are left as they are."""
    residual = dict(vec)
    linalg._insert(dict(span._rows), residual)
    return residual


def is_multiple(a, b):
    """a = c b for a nonzero rational c (both sparse, possibly empty)."""
    if a.keys() != b.keys():
        return False
    if not a:
        return True
    k = min(a)
    return all(a[i] * b[k] == b[i] * a[k] for i in a)


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_integer_span_basis_spans_as_fraction_reference(n, data):
    vectors = data.draw(st.lists(st.lists(int_entries, min_size=n, max_size=n), max_size=n + 2))
    span, reference = linalg.SpanBasis(), FractionSpanBasis()
    for v in vectors:
        sparse = {i: x for i, x in enumerate(v) if x}
        assert span.add(sparse) == reference.add({i: Fraction(x) for i, x in sparse.items()})
        assert span.dim == reference.dim
    for lead, row in span._rows.items():
        assert min(row) == lead and row[lead] > 0
        assert all(type(x) is int for x in row.values())
        assert reduce(gcd, row.values()) == 1
        # the same echelon rows, each a positive multiple of the normalized one
        assert is_multiple(row, reference._rows[lead])
    dense = [tuple(row.get(i, 0) for i in range(n)) for row in span.rows()]
    assert Subspace.from_vectors(n, dense) == Subspace.from_vectors(n, vectors)
    for _ in range(3):
        v = data.draw(st.lists(int_entries, min_size=n, max_size=n))
        sparse = {i: x for i, x in enumerate(v) if x}
        residual = residual_of(span, sparse)
        assert all(type(x) is int for x in residual.values())
        assert is_multiple(residual, reference.reduce({i: Fraction(x) for i, x in sparse.items()}))
        assert (not residual) == Subspace.from_vectors(n, vectors).contains(Subspace.from_vectors(n, [v]))


def test_integer_span_basis_rejects_fractions():
    span = linalg.SpanBasis()
    with pytest.raises(TypeError):
        span.add({0: Fraction(1, 2)})
    with pytest.raises(TypeError):
        span.add({1: Fraction(2, 2), 2: Fraction(3)})
    assert span.add({0: 2, 1: -4}) and span.rows() == [{0: 1, 1: -2}]
    with pytest.raises(TypeError):
        span.add({0: Fraction(1), 1: Fraction(1)})
    assert span.add({0: -3, 2: 6}) and span.rows() == [{0: 1, 1: -2}, {1: 1, 2: -1}]


def test_integer_span_basis_cross_multiplies():
    span = linalg.SpanBasis()
    assert span.add({0: 4, 1: 6})
    assert span.rows() == [{0: 2, 1: 3}]
    # 2 (3, 1) - 3 (2, 3) = (0, -7): no division, then the primitive (0, 1)
    assert residual_of(span, {0: 3, 1: 1}) == {1: -7}
    assert span.add({0: 3, 1: 1}) and span.rows() == [{0: 2, 1: 3}, {1: 1}]
    assert not span.add({0: -6, 1: 5}) and span.dim == 2


def test_integer_span_basis_divides_wide_rows_at_each_step():
    span = linalg.SpanBasis()
    assert span.add({0: 3, 1: 1})
    # 3 (2, 4) - 2 (3, 1) = (0, 10): narrow, so the factor 10 stays
    assert residual_of(span, {0: 2, 1: 4}) == {1: 10}
    # 3 (w, 2w) - w (3, 1) = (0, 5w) with w = 2^600: a scaled row that wide
    # is divided by the gcd of its entries, 5w
    w = 2**600
    assert w.bit_length() > linalg._WIDE_BITS
    assert residual_of(span, {0: w, 1: 2 * w}) == {1: 1}
    assert span.add({0: w, 1: 2 * w}) and span.rows() == [{0: 3, 1: 1}, {1: 1}]
