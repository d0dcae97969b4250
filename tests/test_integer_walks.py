"""The walks over the integer structure-constant table against the Fraction
walks they replaced.

Each reference below is the walk as it ran on Fractions: the dense
table-sweep bracket for bracket spans and ideal checks, ``from_entries``
systems for the center, the adjoint matrices and Z^1, and a dense ``apply``
of the projection for a quotient's table.  The integer walks must give
equal subspaces, tables and matrices, with every value a Fraction.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import adoforge.liealg as liealg
from adoforge.catalog import example
from adoforge.errors import NotAnIdeal
from adoforge.graded import Cocycle, cocycle_space, current_algebra, euler_derivation
from adoforge.liealg import (
    LieAlgebra,
    center,
    central_flag,
    codim1_refinement,
    derived_subalgebra,
    is_ideal,
    lower_central_series,
    nilpotency_class,
    quotient,
    validate,
)
from adoforge.linalg import F1, RationalMatrix, Subspace, dense_vector, kernel_basis, mul_rowmaps, solve, solve_multi
from adoforge.reps import Representation, adjoint, kernel_submodule

from conftest import (
    corpus_algebras,
    integer_multiples,
    mixed_fractions,
    rebase,
    recorded_rows,
    reference_bracket,
    small_fractions,
    sparse_vectors,
    ungraded_quotients,
)

# --- the Fraction walks, as references


def reference_span_vectors(algebra, space):
    """The dense table-sweep brackets of each e_i with each basis vector of
    space that are nonzero, in that order: the vectors [L, space] is
    spanned from."""
    n = algebra.dim
    vectors = []
    for col in space.basis_vectors():
        for i in range(n):
            v = reference_bracket(algebra, dense_vector({i: F1}, n), col)
            if any(v):
                vectors.append(v)
    return vectors


def reference_lower_central_series(algebra):
    terms = [Subspace.full(algebra.dim)]
    while True:
        nxt = Subspace.from_vectors(algebra.dim, reference_span_vectors(algebra, terms[-1]))
        if nxt == terms[-1]:
            break
        terms.append(nxt)
        if nxt.dim == 0:
            break
    return terms


def reference_derived(algebra):
    n = algebra.dim
    return Subspace.from_vectors(
        n, [reference_bracket(algebra, dense_vector({i: F1}, n), dense_vector({j: F1}, n)) for i in range(n) for j in range(i + 1, n)]
    )


def reference_is_ideal(algebra, space):
    n = algebra.dim
    basis = RationalMatrix.from_columns(n, space.basis_vectors())
    for col in space.basis_vectors():
        for i in range(n):
            v = reference_bracket(algebra, dense_vector({i: F1}, n), col)
            if any(v) and solve(basis, v) is None:
                return False
    return True


def reference_center(algebra):
    n = algebra.dim
    entries = []
    for (i, j), coeffs in algebra.brackets.items():
        for k, v in coeffs.items():
            entries.append((j * n + k, i, v))
            entries.append((i * n + k, j, -v))
    return kernel_basis(RationalMatrix.from_entries(n * n, n, entries))


def reference_quotient(algebra, ideal):
    """(table, projection) of the quotient on the complement coordinates,
    the table's brackets projected by a dense ``apply``."""
    n = algebra.dim
    pivot_set = set(ideal._pivots)
    complement = [i for i in range(n) if i not in pivot_set]
    position = {c: j for j, c in enumerate(complement)}
    entries = [(j, c, F1) for j, c in enumerate(complement)]
    for p, row in zip(ideal._pivots, ideal.basis_rows()):
        entries.extend((position[c], p, -v) for c, v in row.items() if c != p)
    proj = RationalMatrix.from_entries(len(complement), n, entries)
    table = {}
    for a in range(len(complement)):
        for b in range(a + 1, len(complement)):
            img = proj.apply(dense_vector(algebra.bracket_basis(complement[a], complement[b]), n))
            coeffs = {k: v for k, v in enumerate(img) if v}
            if coeffs:
                table[(a, b)] = coeffs
    return table, proj


def reference_adjoint(algebra):
    n = algebra.dim
    mats = []
    for i in range(n):
        entries = [(k, j, v) for j in range(n) for k, v in algebra.bracket_basis(i, j).items()]
        mats.append(RationalMatrix.from_entries(n, n, entries))
    return mats


def reference_cocycle_maps(rep):
    """The Z^1 builder on Fraction entries: the canonical basis of the
    kernel of one ``from_entries`` system, as space_dim x dim L maps."""
    algebra = rep.algebra
    n = algebra.dim
    vd = rep.space_dim
    entries = []
    row_index = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k, v in algebra.bracket_basis(i, j).items():
                entries.extend((row_index + r, k * vd + r, v) for r in range(vd))
            for r, s, v in rep.matrices[i].entries():
                entries.append((row_index + r, j * vd + s, -v))
            for r, s, v in rep.matrices[j].entries():
                entries.append((row_index + r, i * vd + s, v))
            row_index += vd
    solutions = kernel_basis(RationalMatrix.from_entries(row_index, n * vd, entries))
    return [
        RationalMatrix.from_entries(vd, n, [(idx % vd, idx // vd, v) for idx, v in w.items()]) for w in solutions.basis_rows()
    ]


def reference_satisfies_identity(cocycle):
    """``Cocycle.satisfies_identity`` on Fraction row maps: acts[i][j] =
    rho(e_i)phi(e_j) is column j of the Fraction product rho(e_i) phi, and
    each pair compares phi([e_i, e_j]) + rho(e_j)phi(e_i) with
    rho(e_i)phi(e_j)."""
    alg = cocycle.rep.algebra
    n = alg.dim
    cols = cocycle.map.transpose()._data
    acts = [
        RationalMatrix(cocycle.map.rows, n, mul_rowmaps(m._data, cocycle.map._data)).transpose()._data
        for m in cocycle.rep.matrices
    ]
    empty = {}
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = alg.brackets.get((i, j))
            lhs = mul_rowmaps({0: coeffs}, cols).get(0, empty) if coeffs else empty
            total = dict(lhs)
            for r, v in acts[j].get(i, empty).items():
                total[r] = total.get(r, 0) + v
            if {r: v for r, v in total.items() if v} != acts[i].get(j, empty):
                return False
    return True


# --- the algebras they run on


def scaled(algebra, factors):
    """The algebra in the basis f_a = factors[a] e_a: [f_a, f_b] holds
    c_k factors[a] factors[b] / factors[k] at f_k."""
    table = {
        (i, j): {k: v * factors[i] * factors[j] / factors[k] for k, v in coeffs.items()}
        for (i, j), coeffs in algebra.brackets.items()
    }
    return LieAlgebra(algebra.dim, table)


# odd numbers above 2^65: the scaled tables have denominators past 64 bits
BIG = [2**65 + 2 * a + 1 for a in range(8)]


@st.composite
def census7_algebras(draw):
    """census7 (structure constants 1/2), as listed or rebased."""
    algebra = example("census7")
    if draw(st.booleans()):
        return algebra
    entries = [(r, r, 1) for r in range(7)] + [(r, c, draw(st.sampled_from([0, 0, 1, -1]))) for r in range(7) for c in range(r + 1, 7)]
    return rebase(algebra, RationalMatrix.from_entries(7, 7, entries))


@st.composite
def big_denominator_algebras(draw):
    """A corpus or rebased algebra scaled by big factors and their inverses."""
    algebra = draw(corpus_algebras())
    factors = [Fraction(1, b) if draw(st.booleans()) else Fraction(b, 3) for b in draw(st.permutations(BIG))]
    return scaled(algebra, factors)


@st.composite
def mixed_tables(draw):
    """Up to four stored pairs with 1/2, 1/3, 2/3 and 3/2 entries; mostly not
    a Lie algebra, which no walk but validate looks at."""
    n = draw(st.integers(4, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))
    return LieAlgebra(
        n,
        {
            p: {k: draw(mixed_fractions) for k in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))}
            for p in chosen
        },
    )


tables = st.one_of(census7_algebras(), big_denominator_algebras(), mixed_tables(), corpus_algebras(), ungraded_quotients())


@st.composite
def tables_with_subspaces(draw):
    """A table with a lower central series term, its center, a flag member
    or a span of sparse vectors."""
    algebra = draw(tables)
    n = algebra.dim
    kind = draw(st.sampled_from(["series", "center", "flag", "random"]))
    if kind == "series":
        series = reference_lower_central_series(algebra)
        return algebra, series[draw(st.integers(0, len(series) - 1))]
    if kind == "center":
        return algebra, reference_center(algebra)
    if kind == "flag" and validate(algebra).ok and reference_lower_central_series(algebra)[-1].dim == 0:
        ideals = central_flag(algebra).ideals
        return algebra, ideals[draw(st.integers(0, len(ideals) - 1))]
    return algebra, Subspace.from_vectors(n, draw(st.lists(sparse_vectors(n), max_size=3)))


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


# --- the differential checks, on hypothesis draws and on fixed tables


def check_series_center_adjoint(algebra):
    series = lower_central_series(algebra)
    assert series == reference_lower_central_series(algebra)
    for term in series:
        # the integer brackets, handed over undivided: one row per nonzero
        # reference vector, in its order, an int multiple of it
        _, calls = recorded_rows(liealg._bracket_span, algebra, term)
        assert integer_multiples(calls, algebra.dim, reference_span_vectors(algebra, term))
    assert derived_subalgebra(algebra) == reference_derived(algebra)
    assert center(algebra) == reference_center(algebra)
    mats = adjoint(algebra).matrices
    assert list(mats) == reference_adjoint(algebra)
    assert all(all_fractions(v for *_, v in m.entries()) for m in mats)


def check_ideal_and_quotient(algebra, space):
    ideal = reference_is_ideal(algebra, space)
    assert is_ideal(algebra, space) == ideal
    if not ideal:
        with pytest.raises(NotAnIdeal):
            quotient(algebra, space)
        return
    quo, proj = quotient(algebra, space)
    if space.dim == 0:
        assert quo.brackets == algebra.brackets and proj.matrix == RationalMatrix.identity(algebra.dim)
        return
    table, reference_proj = reference_quotient(algebra, space)
    assert quo.brackets == table
    assert all(all_fractions(coeffs.values()) for coeffs in quo.brackets.values())
    assert proj.matrix == reference_proj


def check_cocycles(rep):
    maps = [c.map for c in cocycle_space(rep)]
    assert maps == reference_cocycle_maps(rep)
    assert all(all_fractions(v for *_, v in m.entries()) for m in maps)


def check_central(algebra, z):
    n = algebra.dim
    central = all(not any(reference_bracket(algebra, dense_vector({i: F1}, n), z)) for i in range(n))
    assert liealg.is_central(algebra, {i: x for i, x in enumerate(z) if x}) == central


def conjugated(rep, p):
    p_inv = solve_multi(p, RationalMatrix.identity(rep.space_dim))
    return Representation(rep.algebra, rep.space_dim, [p @ m @ p_inv for m in rep.matrices])


@settings(deadline=None, max_examples=80)
@given(tables)
def test_series_derived_center_and_adjoint_match(algebra):
    check_series_center_adjoint(algebra)


@settings(deadline=None, max_examples=100)
@given(tables_with_subspaces())
def test_is_ideal_and_quotient_match(pair):
    check_ideal_and_quotient(*pair)


@settings(deadline=None, max_examples=40)
@given(tables, st.data())
def test_cocycle_space_matches(algebra, data):
    """On the adjoint module, and on it conjugated by a unit upper
    triangular P, so that the rho(e_i) hold other denominators than the
    table."""
    rep = adjoint(algebra)
    if data.draw(st.booleans()):
        n = algebra.dim
        entries = [(r, r, 1) for r in range(n)]
        entries += [(r, c, data.draw(st.one_of(st.just(0), small_fractions))) for r in range(n) for c in range(r + 1, n)]
        rep = conjugated(rep, RationalMatrix.from_entries(n, n, entries))
    check_cocycles(rep)


@settings(deadline=None, max_examples=100)
@given(tables, st.data())
def test_centrality_matches(algebra, data):
    """kernel_submodule's centrality check agrees with the table-sweep
    bracket, on central vectors, basis vectors and sparse vectors."""
    n = algebra.dim
    cent = reference_center(algebra).basis_vectors()
    choices = [sparse_vectors(n), st.integers(0, n - 1).map(lambda i: dense_vector({i: F1}, n))]
    if cent:
        choices.append(st.sampled_from(cent))
    check_central(algebra, data.draw(st.one_of(choices)))


def check_identity(cocycle, data):
    """The integer and the Fraction identity give one verdict on the
    cocycle and on a copy with one entry, maybe zero, moved by 1/q."""
    assert cocycle.satisfies_identity() == reference_satisfies_identity(cocycle)
    m = cocycle.map
    r = data.draw(st.integers(0, m.rows - 1))
    i = data.draw(st.integers(0, m.cols - 1))
    q = data.draw(st.sampled_from([1, 2, 3, 7, 2**65 + 1]))
    moved = m + RationalMatrix.from_entries(m.rows, m.cols, [(r, i, Fraction(data.draw(st.sampled_from([1, -1])), q))])
    copy = Cocycle(cocycle.rep, moved)
    assert copy.satisfies_identity() == reference_satisfies_identity(copy)
    return copy.satisfies_identity()


@settings(deadline=None, max_examples=60)
@given(tables, st.data())
def test_cocycle_identity_matches(algebra, data):
    """On the Z^1 basis of the adjoint module, plain or conjugated by a unit
    upper triangular P, and on the Euler cocycle of a graded corpus
    algebra's current algebra; each a cocycle, and each moved copy judged
    alike by both."""
    rep = adjoint(algebra)
    n = algebra.dim
    if data.draw(st.booleans()):
        entries = [(r, r, 1) for r in range(n)]
        entries += [(r, c, data.draw(st.one_of(st.just(0), small_fractions))) for r in range(n) for c in range(r + 1, n)]
        rep = conjugated(rep, RationalMatrix.from_entries(n, n, entries))
    cocycles = cocycle_space(rep)
    if cocycles:
        cocycle = data.draw(st.sampled_from(cocycles))
        assert cocycle.satisfies_identity()
        check_identity(cocycle, data)


@pytest.mark.parametrize("name", ["heisenberg3", "filiform4", "free2_3", "free3_2"])
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_euler_cocycle_identity_matches(name, data):
    algebra = example(name)
    phi = euler_derivation(current_algebra(algebra, 1 + algebra.grading.max_degree))
    assert phi.satisfies_identity() and reference_satisfies_identity(phi)
    check_identity(phi, data)


# [e0, e1] = e2 / 2 and [e2, e3] = e0 / 3: D = 6, while ad(e0) and ad(e1)
# hold only halves, so the rows of the pair (0, 1) scale by 2, not by D
MIXED = LieAlgebra(4, {(0, 1): {2: "1/2"}, (2, 3): {0: "1/3"}})
FIXED = {
    "census7": example("census7"),
    "census7-big": scaled(example("census7"), [Fraction(1, b) if b % 4 == 1 else Fraction(b, 3) for b in BIG]),
    "heisenberg5-big": scaled(example("heisenberg5"), [Fraction(b, 5) for b in BIG]),
    "mixed": MIXED,
}


@pytest.mark.parametrize("name", FIXED)
def test_fixed_tables_match(name):
    algebra = FIXED[name]
    n = algebra.dim
    check_series_center_adjoint(algebra)
    for space in lower_central_series(algebra) + [center(algebra)]:
        check_ideal_and_quotient(algebra, space)
    for i in range(n):
        line = Subspace.from_vectors(n, [dense_vector({i: F1}, n)])
        check_ideal_and_quotient(algebra, line)
        check_central(algebra, dense_vector({i: F1}, n))
    rep = adjoint(algebra)
    upper = RationalMatrix.from_entries(n, n, [(r, r, 1) for r in range(n)] + [(r, r + 1, Fraction(1, 7)) for r in range(n - 1)])
    for module in (rep, conjugated(rep, upper)):
        check_cocycles(module)


def test_integer_table_is_built_once_and_shared():
    """Built on first use, and read as the same object by every walk over
    the table; a walk that built its own would leave the shared one unread."""
    algebra = example("census7")
    assert algebra._integer_form is None
    table, d = algebra.integer_form()
    assert d == 2 and algebra.integer_form()[0] is table
    assert table[0][3] == {6: 1} and table[3][0] == {6: -1} and table[0][1] == {2: -2}

    reads = []

    class Watched(dict):
        def get(self, *args):
            reads.append(args[0])
            return super().get(*args)

        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

        def items(self):
            reads.append(None)
            return super().items()

    watched = Watched(table)
    algebra._integer_form = (watched, d)
    z = reference_center(algebra).basis_vectors()[0]
    z_line = Subspace.from_vectors(7, [z])
    quo, _ = quotient(algebra, z_line)
    rep = adjoint(algebra)
    walks = {
        "validate": lambda: validate(algebra),
        "nilpotency_class": lambda: nilpotency_class(algebra),
        "is_ideal": lambda: is_ideal(algebra, z_line),
        "codim1_refinement": lambda: codim1_refinement(algebra, lower_central_series(algebra)[1]),
        "quotient": lambda: quotient(algebra, z_line),
        "center": lambda: center(algebra),
        "kernel_submodule": lambda: kernel_submodule(rep, z, quo, dense_vector({6: F1}, 7)),
        "cocycle_space": lambda: cocycle_space(rep),
    }
    for name, walk in walks.items():
        reads.clear()
        walk()
        assert reads, name
        assert algebra.integer_form()[0] is watched, name
