import copy
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from adoforge.errors import DimensionMismatch, KernelNotContained, NotLinearlyIndependent, NotNilpotent
import adoforge.linalg as linalg
from adoforge.linalg import (
    RationalMatrix,
    Subspace,
    factor_through,
    hstack,
    kernel_basis,
    kronecker,
    mul_rowmaps,
    nilpotency_index,
    rank,
    rref,
    solve,
    solve_multi,
)

from conftest import FractionSpanBasis, fraction_matrix, reference_add, reference_kronecker, small_fractions, sparse_fractions


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

    def test_inconsistent_system_is_a_typed_error(self, monkeypatch):
        # cannot happen for a correct solver; must not rest on an assert
        monkeypatch.setattr(linalg, "solve_multi", lambda a, b: None)
        with pytest.raises(NotLinearlyIndependent):
            factor_through(RationalMatrix.identity(2), RationalMatrix.identity(2))


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
        assert a.basis == b.basis

    def test_membership_and_coordinates(self):
        s = Subspace.from_vectors(3, [(1, 0, 2), (0, 1, -1)])
        v = (Fraction(2), Fraction(3), Fraction(1))
        coords = s.coordinates_of(v)
        assert coords == (Fraction(2), Fraction(3))
        assert not s.contains_vector((1, 0, 0))

    def test_intersection(self):
        xy = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        yz = Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
        assert xy.intersect(yz) == Subspace.from_vectors(3, [(0, 1, 0)])


def reference_intersect(s, t):
    """The intersection as ``Subspace.intersect`` took it before it returned
    the other operand when one is the whole space and before it stopped
    negating B: A applied to the first block of every vector of Ker [A | -B]."""
    if s.dim == 0 or t.dim == 0:
        return Subspace.zero(s.ambient_dim)
    a, b = s.basis, t.basis
    null = kernel_basis(hstack([a, -b]))
    return Subspace.from_vectors(s.ambient_dim, [a.apply(w[: a.cols]) for w in null.basis_vectors()])


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


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=7), st.booleans(), st.data())
def test_restricted_action_matches_solve(n, invariant, data):
    m = data.draw(sparse_matrices(n, n))
    count = data.draw(st.integers(min_value=0, max_value=n))
    vectors = [data.draw(st.lists(sparse_fractions, min_size=n, max_size=n)) for _ in range(count)]
    sub = krylov_span(m, vectors) if invariant else Subspace.from_vectors(n, vectors)
    basis = sub.basis
    x = sub.restricted_action(m)
    assert x == solve_multi(basis, m @ basis)
    if invariant:
        assert x is not None and basis @ x == m @ basis


def test_restricted_action_not_invariant():
    # span{e0} is not invariant under the matrix sending e0 to e1
    sub = Subspace.from_vectors(2, [(1, 0)])
    m = fraction_matrix([[0, 0], [1, 0]])
    assert sub.restricted_action(m) is None
    assert solve_multi(sub.basis, m @ sub.basis) is None


def reference_basis(sub):
    """Subspace.basis as built on every read before it was kept."""
    data = {}
    for j, row in enumerate(sub._rows):
        for i, v in row.items():
            data.setdefault(i, {})[j] = v
    return RationalMatrix(sub.ambient_dim, sub.dim, data)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_basis_built_once_and_equal_to_a_fresh_build(n, data):
    m = data.draw(sparse_matrices(n, n))
    vectors = [data.draw(st.lists(sparse_fractions, min_size=n, max_size=n)) for _ in range(data.draw(st.integers(0, n)))]
    for sub in (krylov_span(m, vectors), Subspace.from_vectors(n, vectors), kernel_basis(m)):
        first = sub.basis
        assert sub.basis is first
        assert first == reference_basis(sub)
        x = sub.restricted_action(m)
        assert sub.basis is first and first == reference_basis(sub)
        assert x == solve_multi(first, m @ first)


def test_restricted_action_not_invariant_with_kept_basis():
    # the kept basis does not skip the confirmation product
    sub = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    basis = sub.basis
    assert sub.restricted_action(fraction_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])) is not None
    assert sub.restricted_action(fraction_matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])) is None
    assert sub.basis is basis


def test_restricted_action_shape_check():
    with pytest.raises(DimensionMismatch):
        Subspace.full(2).restricted_action(RationalMatrix.identity(3))


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7), st.data())
def test_kernel_basis_matches_dense_construction(rows, cols, data):
    m = data.draw(sparse_matrices(rows, cols))
    kernel = kernel_basis(m)
    reference = dense_kernel_basis(m)
    assert kernel == reference
    assert list(kernel.basis.entries()) == list(reference.basis.entries())


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
    reference elimination scans for ``_rref_rowdicts``, which takes none."""
    return 1 + max((c for row in rowdicts for c in row), default=-1)


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


elimination_inputs = st.one_of(
    # any shape, 0 x n and n x 0 included
    st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(lambda s: scattered_matrices(s[0], s[1], 20)),
    # tall and mostly empty rows: the shape of rep_kernel's stacked matrix
    st.tuples(st.integers(10, 60), st.integers(1, 5)).flatmap(lambda s: scattered_matrices(s[0], s[1], 8)),
    # wide
    st.tuples(st.integers(1, 4), st.integers(6, 14)).flatmap(lambda s: scattered_matrices(s[0], s[1], 25)),
    dependent_matrices(),
)


def with_reference_elimination(fn, *args):
    """fn(*args) with the reference elimination (trimmed to its pivot rows)
    and the reference one-dict-per-row input in place of the new ones."""

    def trimmed(rowdicts):
        rows, pivots = reference_rref_rowdicts(rowdicts, width(rowdicts))
        return rows[: len(pivots)], pivots

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_rref_rowdicts", trimmed)
        mp.setattr(linalg, "_matrix_rowdicts", reference_matrix_rowdicts)
        return fn(*args)


@settings(deadline=None, max_examples=300)
@given(elimination_inputs)
def test_elimination_matches_reference(m):
    rowdicts = reference_matrix_rowdicts(m)
    snapshot = copy.deepcopy(rowdicts)
    rows, pivots = linalg._rref_rowdicts(rowdicts)
    assert rowdicts == snapshot
    ref_rows, ref_pivots = reference_rref_rowdicts(rowdicts, m.cols)
    assert pivots == ref_pivots
    assert rows == ref_rows[: len(ref_pivots)]
    assert not any(ref_rows[len(ref_pivots):])
    assert linalg._rref_rowdicts(linalg._matrix_rowdicts(m)) == (rows, pivots)


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
    assert linalg._rref_rowdicts([{}] * rows) == ([], [])


# --- kernel_basis in one elimination against the two-pass reference ------

def reference_kernel_basis(m):
    """``kernel_basis`` as it was before its single elimination, kept as the
    reference: left-to-right elimination, then a second ``_rref_rowdicts``
    pass that puts the null vectors in canonical form."""
    rows, pivots = linalg._rref_rowdicts(linalg._matrix_rowdicts(m))
    pivot_set = set(pivots)
    # One null vector per free column: 1 there, minus that column of each
    # RREF row at the row's pivot.  RREF rows are zero at the other pivots.
    null = {free: {free: Fraction(1)} for free in range(m.cols) if free not in pivot_set}
    for row, p in zip(rows, pivots):
        for c, v in row.items():
            if c != p:
                null[c][p] = -v
    return Subspace(m.cols, *linalg._rref_rowdicts(list(null.values())))


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
    ref = reference_kernel_basis(m)
    assert kernel._rows == ref._rows
    assert kernel._pivots == ref._pivots
    assert kernel.ambient_dim == m.cols
    assert_canonical_rref(kernel._rows, kernel._pivots, m.cols)
    assert m @ kernel.basis == RationalMatrix.zero(m.rows, kernel.dim)
    assert kernel.dim + rank(m) == m.cols


def test_kernel_basis_takes_one_elimination(monkeypatch):
    calls = []
    real = linalg._rref_rowdicts

    def counted(rowdicts):
        calls.append(width(rowdicts))
        return real(rowdicts)

    monkeypatch.setattr(linalg, "_rref_rowdicts", counted)
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
        mp.setattr(linalg, "_rref_rowdicts", lambda rowdicts: fraction_rref_rowdicts(rowdicts, width(rowdicts)))
        return fn(*args)


def all_fractions(rowdicts):
    return all(type(v) is Fraction for row in rowdicts for v in row.values())


@settings(deadline=None, max_examples=300)
@given(rational_systems(), st.integers(0, 3), st.data())
def test_integer_elimination_matches_fraction_reference(system, rhs_cols, data):
    dense, cols = system
    m = RationalMatrix.from_entries(len(dense), cols, ((r, c, x) for r, row in enumerate(dense) for c, x in enumerate(row)))
    b = data.draw(scattered_matrices(m.rows, rhs_cols, 6))

    r, pivots, rk = rref(m)
    assert (r, pivots, rk) == with_fraction_elimination(rref, m)
    assert all_fractions(r._data.values())

    kernel = kernel_basis(m)
    ref = with_fraction_elimination(kernel_basis, m)
    assert (kernel._rows, kernel._pivots) == (ref._rows, ref._pivots)
    assert all_fractions(kernel._rows)

    solution = solve_multi(m, b)
    assert solution == with_fraction_elimination(solve_multi, m, b)
    assert solution is None or all_fractions(solution._data.values())

    forms = data.draw(st.lists(st.sampled_from(["int", "fraction", "str"]), min_size=cols, max_size=cols))
    vectors = [tuple(spelled(x, form) for x, form in zip(row, forms)) for row in dense]
    span = Subspace.from_vectors(cols, vectors)
    ref = with_fraction_elimination(Subspace.from_vectors, cols, [tuple(Fraction(x) for x in v) for v in vectors])
    assert (span._rows, span._pivots) == (ref._rows, ref._pivots)
    assert all_fractions(span._rows)


def test_integer_elimination_returns_fractions_for_integer_input():
    # every pivot is 1 and every entry an int; the rows still hold
    # Fractions, since callers divide them with /
    rows, pivots = linalg._rref_rowdicts([{0: 1, 1: 2}, {1: 1, 2: -3}, {0: 1, 1: 3, 2: -3}])
    assert pivots == [0, 1]
    assert rows == [{0: 1, 2: 6}, {1: 1, 2: -3}]
    assert all_fractions(rows)
    sub = Subspace.from_vectors(2, [(2, 4)])
    assert sub._rows == [{0: 1, 1: 2}] and all_fractions(sub._rows)
    assert sub.basis_vectors()[0][1] / 4 == Fraction(1, 2)


def test_from_vectors_converts_string_entries_before_dropping_zeros():
    # "0", "0/5" and "-0" are truthy strings that read as zero
    assert Subspace.from_vectors(2, [("0", "1")]) == Subspace.from_vectors(2, [(0, 1)])
    sub = Subspace.from_vectors(3, [("0/5", "2", "-0"), ("-0", "1/2", "3")])
    assert sub._pivots == [1, 2] and sub._rows == [{1: 1}, {2: 1}]
    assert all_fractions(sub._rows)


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


def reference_restricted_action(sub, m):
    """restricted_action confirmed by the full product basis @ X."""
    basis = sub.basis
    image = m @ basis
    x = RationalMatrix(sub.dim, sub.dim, {j: image._data[p] for j, p in enumerate(sub._pivots) if p in image._data})
    return x if basis @ x == image else None


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


def reference_coordinates_of(sub, v):
    """Subspace.coordinates_of as it computed F0 - c*w at a new position."""
    residual = {i: Fraction(x) for i, x in enumerate(v) if x}
    coords = []
    for p, row in zip(sub._pivots, sub._rows):
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
@given(st.integers(min_value=1, max_value=7), st.booleans(), st.data())
def test_restricted_action_matches_full_product_reference(n, invariant, data):
    m = data.draw(st.one_of(sparse_matrices(n, n), unit_matrices(n, n)))
    count = data.draw(st.integers(min_value=0, max_value=n))
    vectors = [data.draw(st.lists(sparse_fractions, min_size=n, max_size=n)) for _ in range(count)]
    sub = krylov_span(m, vectors) if invariant else Subspace.from_vectors(n, vectors)
    x = sub.restricted_action(m)
    assert x == reference_restricted_action(sub, m)
    assert sub.restricted_action(m) == x  # the kept off-pivot rows give the same verdict
    if invariant:
        assert x is not None


def test_restricted_action_rejects_image_leaving_through_one_off_pivot_row():
    # span{(1, 0, 1), (0, 1, 0)} has pivots 0 and 1; m sends e1 to e2, so
    # the image is zero on both pivot rows and leaves only through row 2
    sub = Subspace.from_vectors(3, [(1, 0, 1), (0, 1, 0)])
    assert sub._pivots == [0, 1]
    m = RationalMatrix.from_entries(3, 3, [(2, 1, 1)])
    assert sub.restricted_action(m) is None
    assert reference_restricted_action(sub, m) is None
    # the same image plus a matching pivot row stays inside: X is read there
    fixed = RationalMatrix.from_entries(3, 3, [(2, 1, 1), (0, 1, 1)])
    assert sub.restricted_action(fixed) == RationalMatrix.from_entries(2, 2, [(0, 1, 1)])


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_restricted_action_none_after_one_off_pivot_row_moves(n, data):
    # m + e_r w^T differs from an invariant m only on ambient row r, off the
    # pivots, where no vector of the subspace is a multiple of e_r
    m = data.draw(sparse_matrices(n, n))
    vectors = [data.draw(st.lists(sparse_fractions, min_size=n, max_size=n)) for _ in range(data.draw(st.integers(1, n)))]
    sub = krylov_span(m, vectors)
    free = [r for r in range(n) if r not in sub._pivots]
    if sub.dim == 0 or not free:
        return
    r = data.draw(st.sampled_from(free))
    w = data.draw(st.lists(sparse_fractions, min_size=n, max_size=n))
    moved = m + RationalMatrix.from_entries(n, n, [(r, c, v) for c, v in enumerate(w)])
    leaves = any(sum(w[i] * x for i, x in enumerate(col)) for col in sub.basis_vectors())
    assert (sub.restricted_action(moved) is None) == leaves
    assert reference_restricted_action(sub, moved) == sub.restricted_action(moved)


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
        assert sub.coordinates_of(v) == reference_coordinates_of(sub, v)
        sparse = {i: Fraction(x) for i, x in enumerate(v) if x}
        assert span.reduce(sparse) == reference_reduce(span._rows, sparse)
        # integer values, as the nilpotency chain hands over
        ints = {i: int(x * 6) for i, x in sparse.items() if int(x * 6)}
        assert span.reduce(ints) == reference_reduce(span._rows, ints)


# --- the fraction-free SpanBasis against the Fraction one it replaced ---

int_entries = st.one_of(st.just(0), st.just(0), st.integers(min_value=-6, max_value=6))


def residual_of(span, vec):
    """vec reduced against the span's rows, as ``SpanBasis.add`` reduces it
    before storing the residual; vec itself is left as it is."""
    return linalg._reduce(span._rows, dict(vec))


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
        assert (not residual) == Subspace.from_vectors(n, vectors).contains_vector(v)


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
