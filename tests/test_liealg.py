import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import adoforge.liealg as liealg
import adoforge.linalg as linalg
from adoforge.catalog import abelian, example
from adoforge.freenilp import free_central_flag, present
from adoforge.errors import AlgebraMismatch, DimensionMismatch, NotAnIdeal, NotNilpotent, ZeroIdeal
from adoforge.liealg import (
    Grading,
    IdealChain,
    LieAlgebra,
    LieHom,
    center,
    central_flag,
    codim1_refinement,
    derived_subalgebra,
    is_ideal,
    lower_central_series,
    minimal_generator_count,
    nilpotency_class,
    quotient,
    validate,
    verify_grading,
)
from adoforge.linalg import F1, RationalMatrix, Subspace, dense_vector, solve, solve_multi
from adoforge.reps import adjoint

from conftest import (
    CORPUS,
    changes_of_basis,
    corpus_algebras,
    integer_multiples,
    mixed_fractions,
    rebase,
    recorded_rows,
    reference_bracket,
    reference_intersect,
    reference_is_hom,
    sparse_fractions,
    sparse_vectors,
    ungraded_quotients,
)


def span(n, *vectors):
    return Subspace.from_vectors(n, vectors)


class TestValidate:
    def test_h3_valid(self, h3):
        assert validate(h3).ok

    def test_abelian_valid(self, abelian2):
        assert validate(abelian2).ok

    def test_jacobi_violation_reported(self):
        # [[e0,e1],e2] + [[e1,e2],e0] + [[e2,e0],e1] = 0 + 0 - e2 != 0
        bad = LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}})
        report = validate(bad)
        assert not report.ok
        assert (0, 1, 2) in [(i, j, k) for i, j, k, _ in report.jacobi_violations]


class TestIntegerIndices:
    """A pair or target index that is not an int, a bool or a float
    included, is refused by the constructor, never converted."""

    @pytest.mark.parametrize(
        "brackets",
        [
            {(0, 1): {2.7: 1}},
            {(0, 1): {2.0: 1}},
            {(0, 1): {True: 1}},
            {(0, 1): {"2": 1}},
            {(0.0, 1): {2: 1}},
            {(0, 1.0): {2: 1}},
            {(False, True): {2: 1}},
            {(0, True): {2: 1}},
        ],
        ids=["float-target", "integral-float-target", "bool-target", "string-target", "float-left", "float-right", "bool-pair", "bool-right"],
    )
    def test_non_int_index_is_refused(self, brackets):
        with pytest.raises(ValueError, match="must be (ints|an int)"):
            LieAlgebra(3, brackets)

    def test_int_indices_are_kept(self):
        algebra = LieAlgebra(3, {(0, 1): {2: 1}})
        assert algebra.brackets == {(0, 1): {2: Fraction(1)}}
        assert adjoint(algebra).matrices[0] == RationalMatrix.from_entries(3, 3, [(2, 1, 1)])

    def test_out_of_range_still_refused(self):
        for brackets in ({(1, 0): {2: 1}}, {(0, 3): {2: 1}}, {(0, 1): {3: 1}}, {(0, 1): {-1: 1}}):
            with pytest.raises(ValueError):
                LieAlgebra(3, brackets)


class TestBracket:
    def test_h3_generators(self, h3):
        e0, e1 = dense_vector({0: F1}, 3), dense_vector({1: F1}, 3)
        assert h3.bracket(e0, e1) == dense_vector({2: F1}, 3)

    def test_alternating(self, h3):
        u = (Fraction(2), Fraction(-1), Fraction(5))
        assert all(c == 0 for c in h3.bracket(u, u))

    def test_central_element(self, h3):
        assert all(c == 0 for c in h3.bracket(dense_vector({2: F1}, 3), dense_vector({0: F1}, 3)))


class TestCenter:
    def test_h3(self, h3):
        assert center(h3) == span(3, dense_vector({2: F1}, 3))

    def test_abelian(self):
        for n in (1, 2, 4):
            assert center(abelian(n)) == Subspace.full(n)

    def test_filiform(self, f4):
        assert center(f4) == span(4, dense_vector({3: F1}, 4))


class TestLowerCentralSeries:
    def test_h3(self, h3):
        dims = [s.dim for s in lower_central_series(h3)]
        assert dims == [3, 1, 0]
        assert lower_central_series(h3)[1] == span(3, dense_vector({2: F1}, 3))

    def test_abelian(self, abelian2):
        assert [s.dim for s in lower_central_series(abelian2)] == [2, 0]

    def test_filiform(self, f4):
        series = lower_central_series(f4)
        assert [s.dim for s in series] == [4, 2, 1, 0]
        assert series[1] == span(4, dense_vector({2: F1}, 4), dense_vector({3: F1}, 4))
        assert series[2] == span(4, dense_vector({3: F1}, 4))


class TestNilpotencyClass:
    def test_h3(self, h3):
        assert nilpotency_class(h3) == 2

    def test_solvable_not_nilpotent(self, solvable):
        with pytest.raises(NotNilpotent):
            nilpotency_class(solvable)

    def test_abelian_one(self):
        assert nilpotency_class(abelian(1)) == 1


class TestQuotient:
    def test_by_zero_ideal(self, h3):
        q, proj = quotient(h3, Subspace.zero(3))
        assert q.structurally_equal(h3)
        assert proj.matrix == RationalMatrix.identity(3)

    def test_h3_by_center(self, h3):
        q, proj = quotient(h3, span(3, dense_vector({2: F1}, 3)))
        assert q.dim == 2 and not q.brackets  # abelian
        assert proj.matrix.rows == 2

    def test_non_ideal_rejected(self, h3):
        with pytest.raises(NotAnIdeal):
            quotient(h3, span(3, dense_vector({0: F1}, 3)))

    def test_projection_is_homomorphism(self, f4):
        ideal = span(4, dense_vector({3: F1}, 4))
        q, proj = quotient(f4, ideal)
        assert q.dim == 3
        assert reference_is_hom(f4, q, proj.matrix)
        from adoforge.linalg import kernel_basis

        assert kernel_basis(proj.matrix) == ideal

    def test_projection_solves_no_system(self, f4, monkeypatch):
        # the projection is read off the ideal's echelon rows
        ideals = lower_central_series(f4) + central_flag(f4).ideals
        expected = [reference_projection(f4, ideal) for ideal in ideals]

        def refuse(*args):
            raise AssertionError("quotient solved a linear system")

        for module in (liealg, linalg):  # every binding quotient could reach
            for name in ("solve", "solve_multi"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert [quotient(f4, ideal)[1].matrix for ideal in ideals] == expected


def reference_projection(algebra, ideal):
    """The projection x -> b of x = B a + E_Q b (B the ideal's basis, E_Q the
    standard basis vectors off its pivots), solved through the inverse of
    [B | E_Q] as ``quotient`` did before it read b off the echelon rows."""
    n = algebra.dim
    complement = [i for i in range(n) if i not in set(ideal._pivots)]
    lhs = RationalMatrix.from_columns(n, ideal.basis_vectors() + [dense_vector({i: F1}, n) for i in complement])
    inv = solve_multi(lhs, RationalMatrix.identity(n))
    return RationalMatrix.from_entries(
        len(complement), n, ((r - ideal.dim, c, v) for r, c, v in inv.entries() if r >= ideal.dim)
    )


@st.composite
def algebra_ideals(draw):
    """A corpus algebra, rebased or not, with one of its ideals: a lower
    central series term, the center, or a member of its central flag."""
    algebra = draw(corpus_algebras())
    ideals = lower_central_series(algebra) + [center(algebra)] + central_flag(algebra).ideals
    return algebra, draw(st.sampled_from(ideals))


@settings(deadline=None, max_examples=120)
@given(algebra_ideals())
def test_quotient_projection_matches_inverse_solve(pair):
    algebra, ideal = pair
    quo, proj = quotient(algebra, ideal)
    reference = reference_projection(algebra, ideal)
    assert proj.matrix == reference
    assert quo.dim == algebra.dim - ideal.dim


class TestCentralFlag:
    def test_abelian2(self, abelian2):
        flag = central_flag(abelian2).ideals
        assert [s.dim for s in flag] == [0, 1, 2]
        assert flag[1] == span(2, dense_vector({0: F1}, 2))

    def test_h3_chain_properties(self, h3):
        flag = central_flag(h3).ideals
        assert [s.dim for s in flag] == [0, 1, 2, 3]
        assert flag[1] == span(3, dense_vector({2: F1}, 3))
        _assert_chain_properties(h3, flag)

    def test_f4_chain(self, f4):
        flag = central_flag(f4).ideals
        assert len(flag) == 5
        assert flag[1] == span(4, dense_vector({3: F1}, 4))
        assert flag[2] == span(4, dense_vector({2: F1}, 4), dense_vector({3: F1}, 4))
        _assert_chain_properties(f4, flag)

    def test_not_nilpotent(self, solvable):
        with pytest.raises(NotNilpotent):
            central_flag(solvable)


def _assert_chain_properties(algebra, flag):
    """codim-1 steps, every member an ideal, [L, I_i] <= I_{i-1}: checked by
    direct bracket enumeration."""
    for i in range(1, len(flag)):
        assert flag[i].dim == flag[i - 1].dim + 1
        assert flag[i].contains(flag[i - 1])
        assert is_ideal(algebra, flag[i])
        for v in flag[i].basis_vectors():
            for b in range(algebra.dim):
                w = algebra.bracket(dense_vector({b: F1}, algebra.dim), v)
                assert flag[i - 1].contains(Subspace.from_vectors(algebra.dim, [w]))


class TestCodim1Refinement:
    def test_one_dimensional_ideal(self, h3):
        j = codim1_refinement(h3, span(3, dense_vector({2: F1}, 3)))
        assert j.dim == 0

    def test_f4_two_dimensional(self, f4):
        i = span(4, dense_vector({2: F1}, 4), dense_vector({3: F1}, 4))
        j = codim1_refinement(f4, i)
        assert j == span(4, dense_vector({3: F1}, 4))
        for v in i.basis_vectors():
            for b in range(4):
                assert j.contains(Subspace.from_vectors(4, [f4.bracket(dense_vector({b: F1}, 4), v)]))

    def test_zero_ideal_rejected(self, h3):
        with pytest.raises(ZeroIdeal):
            codim1_refinement(h3, Subspace.zero(3))

    def test_non_ideal_rejected(self, h3):
        with pytest.raises(NotAnIdeal):
            codim1_refinement(h3, span(3, dense_vector({0: F1}, 3)))

    def test_flag_of_another_algebra_rejected(self, h3, f4):
        with pytest.raises(AlgebraMismatch, match="different algebra"):
            codim1_refinement(h3, span(3, dense_vector({2: F1}, 3)), central_flag(f4))

    def test_flag_without_the_full_space_rejected(self, h3):
        truncated = IdealChain(h3, central_flag(h3).ideals[:-1])
        with pytest.raises(AlgebraMismatch, match="not a full flag"):
            codim1_refinement(h3, Subspace.full(3), truncated)

    def test_codimension_two_step_rejected(self, h3):
        # the first member containing L sits two dimensions above the one below
        skipping = IdealChain(h3, [Subspace.zero(3), span(3, dense_vector({2: F1}, 3)), Subspace.full(3)])
        with pytest.raises(AlgebraMismatch, match="not a full flag"):
            codim1_refinement(h3, Subspace.full(3), skipping)
        with pytest.raises(AlgebraMismatch, match="not a full flag"):
            codim1_refinement(h3, span(3, dense_vector({2: F1}, 3)), IdealChain(h3, [Subspace.zero(3), Subspace.full(3)]))

    def test_chain_that_is_not_nested_rejected(self):
        # steps of codimension 1, but <e1, e2> does not contain <e0>: the
        # residuals of e1 and e2 modulo <e0> are not proportional
        a3 = abelian(3)
        e = [dense_vector({i: F1}, 3) for i in range(3)]
        chain = IdealChain(a3, [Subspace.zero(3), span(3, e[0]), span(3, e[1], e[2]), Subspace.full(3)])
        with pytest.raises(AlgebraMismatch, match="not a full flag"):
            codim1_refinement(a3, span(3, e[1], e[2]), chain)


def reference_refinement(algebra, ideal, flag):
    """I intersected with the member below the first one containing I,
    through a kernel (``reference_intersect``), with containment tested by
    a span of the member and I's dense basis vectors that is no larger."""
    members = flag.ideals
    k = next(idx for idx, member in enumerate(members) if spanned(member, ideal.basis_vectors()) == member)
    return reference_intersect(ideal, members[k - 1])


def spanned(space, vectors):
    """The span of space's dense basis vectors and the given ones."""
    return Subspace.from_vectors(space.ambient_dim, space.basis_vectors() + list(vectors))


def assert_cuts_match(algebra, ideal, flag):
    """Every refinement from ``ideal`` down to 0 against ``flag`` equals the
    intersection taken through a kernel; returns the number of steps."""
    steps = 0
    while ideal.dim:
        cut = codim1_refinement(algebra, ideal, flag)
        assert cut == reference_refinement(algebra, ideal, flag)
        assert cut.dim == ideal.dim - 1 and ideal.contains(cut)
        ideal = cut
        steps += 1
    return steps


class TestRefinementCut:
    """``codim1_refinement`` intersects I with one flag member in one
    elimination; it must give the intersection through a kernel, on the
    coordinate flags of free nilpotent algebras and on general flags."""

    @pytest.mark.parametrize("name", ["census7", "cn7a", "cn7b"])
    def test_corpus_flags(self, name):
        pres = present(example(name))
        assert assert_cuts_match(pres.F, pres.I, free_central_flag(pres.F)) == pres.I.dim > 0

    @settings(deadline=None, max_examples=25)
    @given(ungraded_quotients())
    def test_ungraded_quotient_flags(self, algebra):
        pres = present(algebra)
        assert assert_cuts_match(pres.F, pres.I, free_central_flag(pres.F)) == pres.I.dim

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_rebased_catalog_flags(self, data):
        # rebased, the central flag's members are no longer coordinate
        # subspaces, and the intersection eliminates general rows, not unit
        # rows that it peels
        base = example(data.draw(st.sampled_from(["heisenberg3", "heisenberg5", "filiform4", "free2_3", "free3_2"])))
        algebra = rebase(base, data.draw(changes_of_basis(base.dim)))
        flag = central_flag(algebra)
        ideals = lower_central_series(algebra) + [center(algebra)] + flag.ideals
        for ideal in ideals:
            assert_cuts_match(algebra, ideal, flag)


def regraded(algebra, degrees):
    return LieAlgebra(algebra.dim, algebra.brackets, grading=Grading(degrees))


class TestVerifyGrading:
    def test_h3_standard(self, h3):
        assert verify_grading(regraded(h3, (1, 1, 2)))

    def test_h3_flat_degrees_fail(self, h3):
        assert not verify_grading(regraded(h3, (1, 1, 1)))

    def test_abelian_any_degrees(self, abelian2):
        assert verify_grading(regraded(abelian2, (3, 1)))

    def test_no_grading_fails(self, h3):
        assert not verify_grading(LieAlgebra(3, h3.brackets))


class TestGradingDegrees:
    @pytest.mark.parametrize(
        "degrees",
        [(1.0, 1, 2.0), (1, 1, 2.0), (True, 1, 2), ("1",), (Fraction(1), 1, 2), (1, 0, 1), (1, -1, 2)],
        ids=["floats", "one-float", "bool", "string", "fraction", "zero", "negative"],
    )
    def test_refuses_a_degree_that_is_not_a_positive_int(self, degrees):
        # a float or a bool equals an int, so without the type check it
        # would reach the certificate's "derivation" as 1.0 or true
        with pytest.raises(ValueError, match="grading degrees must be positive ints"):
            Grading(degrees)

    def test_accepts_positive_ints(self):
        assert Grading((1, 1, 2)).degrees == (1, 1, 2) and Grading(()).max_degree == 0


class TestLieHom:
    def test_is_a_value_with_a_shape_check(self, h3, abelian2):
        # the builder promises the identity; only the shape is checked, so
        # a map that breaks [e0, e1] = e2 is held as given
        m = RationalMatrix.from_rows([[0, 0, 1], [0, 0, 0]])
        hom = LieHom(h3, abelian2, m)
        assert (hom.source, hom.target, hom.matrix) == (h3, abelian2, m)
        assert not reference_is_hom(h3, abelian2, m)
        with pytest.raises(DimensionMismatch, match="target.dim x source.dim"):
            LieHom(abelian2, h3, m)

    def test_quotient_projection_kernel(self, h3):
        ideal = span(3, dense_vector({2: F1}, 3))
        _, proj = quotient(h3, ideal)
        from adoforge.linalg import kernel_basis

        assert kernel_basis(proj.matrix) == ideal


def test_minimal_generator_count(h3, f4, abelian2):
    assert minimal_generator_count(h3) == 2
    assert minimal_generator_count(f4) == 2
    assert minimal_generator_count(abelian2) == 2


# --- [L, L] from the bracket table against the bracket span of L ---

def bracket_span_of_l(algebra):
    return liealg._bracket_span(algebra, Subspace.full(algebra.dim))


@pytest.mark.parametrize("name", CORPUS + ("cn7a", "cn7b", "census7", "solvable2", None))
def test_derived_subalgebra_on_the_corpus(name):
    algebra = example(name) if name else abelian(0)
    derived = derived_subalgebra(algebra)
    assert derived == bracket_span_of_l(algebra)
    assert derived.ambient_dim == algebra.dim


@settings(deadline=None, max_examples=60)
@given(corpus_algebras())
def test_derived_subalgebra_on_rebased_corpus(algebra):
    assert derived_subalgebra(algebra) == bracket_span_of_l(algebra)


@settings(deadline=None, max_examples=30)
@given(ungraded_quotients())
def test_derived_subalgebra_on_random_quotients(algebra):
    assert derived_subalgebra(algebra) == bracket_span_of_l(algebra)


# --- the sparse bracket against the table sweep, builders against the dense check ---


@settings(deadline=None, max_examples=150)
@given(corpus_algebras(), st.data())
def test_bracket_matches_table_sweep(algebra, data):
    n = algebra.dim
    u, v = data.draw(sparse_vectors(n)), data.draw(sparse_vectors(n))
    out = algebra.bracket(u, v)
    assert out == reference_bracket(algebra, u, v)
    assert all(type(x) is Fraction for x in out)
    su = {i: x for i, x in enumerate(u) if x}
    sv = {i: x for i, x in enumerate(v) if x}
    assert algebra.sparse_bracket(su, sv) == {k: x for k, x in enumerate(out) if x}


@st.composite
def homomorphisms(draw):
    """(source, target, matrix) of a true homomorphism: a quotient
    projection, a change of basis, or a presentation's F -> L."""
    algebra = draw(corpus_algebras())
    n = algebra.dim
    kind = draw(st.sampled_from(["quotient", "rebasing", "presentation"]))
    if kind == "quotient":
        series = lower_central_series(algebra)
        _, proj = quotient(algebra, series[draw(st.integers(0, len(series) - 1))])
        return algebra, proj.target, proj.matrix
    if kind == "rebasing":
        p = draw(changes_of_basis(n))
        return rebase(algebra, p), algebra, p
    pres = present(algebra)
    return pres.F, algebra, pres.pi.matrix


@settings(deadline=None, max_examples=120)
@given(homomorphisms())
def test_lie_hom_verdicts_match_dense_check(hom):
    """A quotient projection, a change of basis and a presentation's pi
    each pass the dense check."""
    source, target, matrix = hom
    assert reference_is_hom(source, target, matrix)


# --- sparse bracket spans and the sparse Jacobi residual against the dense ones


def reference_bracket_span_vectors(algebra, space):
    """The vectors the dense _bracket_span handed to Subspace.from_vectors:
    each basis vector made dense and bracketed with every dense e_i."""
    vectors = []
    for col in space.basis_vectors():
        for i in range(algebra.dim):
            v = algebra.bracket(dense_vector({i: F1}, algebra.dim), col)
            if any(v):
                vectors.append(v)
    return vectors


def reference_is_ideal(algebra, space):
    basis = RationalMatrix.from_columns(algebra.dim, space.basis_vectors())
    for col in space.basis_vectors():
        for i in range(algebra.dim):
            v = algebra.bracket(dense_vector({i: F1}, algebra.dim), col)
            if any(v) and solve(basis, v) is None:
                return False
    return True


def reference_jacobi_residual(algebra, i, j, k):
    acc = [Fraction(0)] * algebra.dim
    for (a, b), c in (((i, j), k), ((j, k), i), ((k, i), j)):
        for m, coeff in algebra.bracket_basis(a, b).items():
            for t, oc in algebra.bracket_basis(m, c).items():
                acc[t] += coeff * oc
    return tuple(acc) if any(acc) else None


def reference_violations(algebra):
    """Every basis triple i < j < k with its nonzero residual, in order."""
    n = algebra.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                residual = reference_jacobi_residual(algebra, i, j, k)
                if residual is not None:
                    out.append((i, j, k, residual))
    return out


@st.composite
def algebras_with_subspaces(draw):
    """A corpus or rebased algebra with a lower central series term, its
    center, or the span of a few sparse vectors."""
    algebra = draw(corpus_algebras())
    n = algebra.dim
    kind = draw(st.sampled_from(["series", "center", "random"]))
    if kind == "series":
        series = lower_central_series(algebra)
        return algebra, series[draw(st.integers(0, len(series) - 1))]
    if kind == "center":
        return algebra, center(algebra)
    vectors = draw(st.lists(sparse_vectors(n), max_size=3))
    return algebra, Subspace.from_vectors(n, vectors)


@settings(deadline=None, max_examples=100)
@given(algebras_with_subspaces())
def test_bracket_span_matches_dense_and_hands_over_the_same_vectors(pair):
    algebra, space = pair
    # the same vectors up to a positive factor each, handed over as the
    # integer rows the bracket walk summed, in one call
    reference = reference_bracket_span_vectors(algebra, space)
    span, calls = recorded_rows(liealg._bracket_span, algebra, space)
    assert integer_multiples(calls, algebra.dim, reference)
    assert span == Subspace.from_vectors(algebra.dim, reference)
    assert is_ideal(algebra, space) == reference_is_ideal(algebra, space)


@pytest.mark.parametrize("name", CORPUS)
def test_series_and_ideals_match_dense_on_corpus(name):
    algebra = example(name)
    for term in lower_central_series(algebra):
        span, calls = recorded_rows(liealg._bracket_span, algebra, term)
        reference = reference_bracket_span_vectors(algebra, term)
        assert integer_multiples(calls, algebra.dim, reference)
        assert span == Subspace.from_vectors(algebra.dim, reference)
        assert is_ideal(algebra, term) and reference_is_ideal(algebra, term)
    for i in range(algebra.dim):
        line = Subspace.from_vectors(algebra.dim, [dense_vector({i: F1}, algebra.dim)])
        assert is_ideal(algebra, line) == reference_is_ideal(algebra, line)


@settings(deadline=None, max_examples=60)
@given(st.integers(3, 5), st.data())
def test_jacobi_residual_matches_dense(n, data):
    # random structure constants mostly break the Jacobi identity
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = {p: {k: data.draw(sparse_fractions) for k in range(n)} for p in data.draw(st.lists(st.sampled_from(pairs), unique=True))}
    algebra = LieAlgebra(n, brackets)
    report = validate(algebra)
    assert report.jacobi_violations == reference_violations(algebra)
    assert all(type(x) is Fraction for *_, r in report.jacobi_violations for x in r)


@settings(deadline=None, max_examples=80)
@given(st.integers(4, 9), st.data())
def test_sparse_tables_with_mixed_denominators_match_dense(n, data):
    # few stored pairs among many, so most triples hold none of them
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))
    brackets = {
        p: {k: data.draw(mixed_fractions) for k in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))}
        for p in chosen
    }
    algebra = LieAlgebra(n, brackets)
    report = validate(algebra)
    assert report.jacobi_violations == reference_violations(algebra)
    assert all(type(x) is Fraction for *_, r in report.jacobi_violations for x in r)


def test_halves_and_thirds_give_the_exact_residual():
    # [e0, e1] = e0 / 2 and [e0, e2] = e1 / 3: [[e0, e1], e2] = e1 / 6, and
    # the other two terms vanish; the table is scaled by D = 6, so the
    # integer sum is 6 = 36 / 6
    algebra = LieAlgebra(3, {(0, 1): {0: "1/2"}, (0, 2): {1: "1/3"}})
    assert validate(algebra).jacobi_violations == [(0, 1, 2, (Fraction(0), Fraction(1, 6), Fraction(0)))]
    assert validate(algebra).jacobi_violations == reference_violations(algebra)


def test_one_violation_in_abelian300():
    # the same two brackets on e7, e150, e299 of Q^300: the one triple that
    # fails is (7, 150, 299), and the 4.5 million triples that hold no
    # stored pair are not visited (the full loop took seconds)
    brackets = {(7, 150): {7: "1/2"}, (7, 299): {150: "1/3"}}
    algebra = LieAlgebra(300, brackets)
    start = time.process_time()
    report = validate(algebra)
    assert time.process_time() - start < 1.0
    expected = [Fraction(0)] * 300
    expected[150] = Fraction(1, 6)
    assert report.jacobi_violations == [(7, 150, 299, tuple(expected))]
    assert validate(abelian(300)).ok


@settings(deadline=None, max_examples=100)
@given(corpus_algebras().filter(lambda algebra: algebra.dim >= 3), st.data())
def test_violations_match_brute_force_on_perturbed_tables(algebra, data):
    # a Lie algebra with one pair's bracket (stored or not) replaced by a
    # random result: the table breaks the Jacobi identity only in the
    # triples that reach that pair, or keeps it when the draw is consistent
    n = algebra.dim
    brackets = dict(algebra.brackets)
    pair = data.draw(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]))
    targets = data.draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    brackets[pair] = {k: data.draw(sparse_fractions) for k in targets}
    perturbed = LieAlgebra(n, brackets)
    assert validate(perturbed).jacobi_violations == reference_violations(perturbed)


def test_one_bracket_at_dim_1e8_is_fast():
    # the candidate triples come from the stored brackets, not from range(dim)
    start = time.process_time()
    report = validate(LieAlgebra(10**8, {(0, 1): {2: 1}}))
    assert time.process_time() - start < 1.0
    assert report.ok and report.dim == 10**8


@settings(deadline=None, max_examples=30)
@given(corpus_algebras())
def test_corpus_has_no_jacobi_residual(algebra):
    assert validate(algebra).jacobi_violations == []


# --- the flag and the ideal check on echelon rows against their old walks ---

CATALOG = CORPUS + ("cn7a", "cn7b", "census7")


def reference_central_flag(algebra):
    """``central_flag`` as it pivot-completed the lower central series on
    dense basis vectors: a vector that enlarges the span of the last member
    and itself gives the next member."""
    chain = [Subspace.zero(algebra.dim)]
    for layer in reversed(lower_central_series(algebra)):
        for v in layer.basis_vectors():
            grown = spanned(chain[-1], [v])
            if grown.dim > chain[-1].dim:
                chain.append(grown)
    return chain


def reference_reduced_is_ideal(algebra, space):
    """``is_ideal`` as it reduced each integer bracket of an echelon row
    with e_i by the echelon rows scaled to integers, one ``_eliminate`` step
    per leading pivot, before it took residuals."""
    echelon = {}
    for p, row in zip(space._pivots, space._rows):
        d = lcm(*(v.denominator for v in row.values()))
        echelon[p] = {k: v.numerator * (d // v.denominator) for k, v in row.items()}
    for row in space._rows:
        for b in liealg._basis_brackets(algebra, row):
            while b:
                lead = min(b)
                prow = echelon.get(lead)
                if prow is None:
                    return False
                linalg._eliminate(b, prow, lead)
    return True


def check_flag_and_ideal_verdicts(algebra, vectors=()):
    """The central flag equals the dense pivot completion, and is_ideal gives
    the reduced walk's verdict on the series, the center, the flag, every
    coordinate line and plane and the span of the vectors.  A coordinate
    line is not an ideal of an algebra that is not abelian; a plane can
    fail on a later bracket of a row whose first one stays inside."""
    n = algebra.dim
    flag = central_flag(algebra).ideals
    assert flag == reference_central_flag(algebra)
    ideals = lower_central_series(algebra) + [center(algebra)] + flag
    lines = [Subspace.from_vectors(n, [dense_vector({i: F1}, n)]) for i in range(n)]
    planes = [Subspace.from_vectors(n, [dense_vector({i: F1}, n), dense_vector({j: F1}, n)]) for i in range(n) for j in range(i + 1, n)]
    spaces = ideals + lines + planes + [Subspace.from_vectors(n, vectors)]
    verdicts = [is_ideal(algebra, space) for space in spaces]
    assert verdicts == [reference_reduced_is_ideal(algebra, space) for space in spaces]
    assert all(verdicts[: len(ideals)])
    assert all(verdicts[len(ideals) : len(ideals) + len(lines)]) == (not algebra.brackets)


@pytest.mark.parametrize("name", CATALOG)
def test_flag_and_ideal_verdicts_on_the_catalog(name):
    check_flag_and_ideal_verdicts(example(name))


@settings(deadline=None, max_examples=40)
@given(st.one_of(corpus_algebras(), ungraded_quotients()), st.data())
def test_flag_and_ideal_verdicts_on_rebased_and_ungraded_inputs(algebra, data):
    check_flag_and_ideal_verdicts(algebra, data.draw(st.lists(sparse_vectors(algebra.dim), max_size=2)))


def test_bracket_walks_visit_only_the_columns_a_row_holds(monkeypatch):
    """The brackets of a row with the basis read the integer table once per
    column the row holds, not once per basis index and row, and is_ideal
    takes one residual pass: heisenberg3 plus 1997 central directions walks
    its series, center and ideal checks in a few table reads per row."""
    n = 2000
    algebra = LieAlgebra(n, {(0, 1): {2: 1}})
    table, d = algebra.integer_form()
    reads = []

    class Counted(dict):
        def get(self, *args):
            reads.append(args[0])
            return super().get(*args)

    algebra._integer_form = (Counted(table), d)
    passes = []
    residuals = Subspace.residuals
    monkeypatch.setattr(Subspace, "residuals", lambda self, rows: passes.append(1) or residuals(self, rows))
    assert nilpotency_class(algebra) == 2
    full, z = Subspace.full(n), center(algebra)
    assert z.dim == n - 2
    for space in (full, z, lower_central_series(algebra)[1]):
        passes.clear()
        assert is_ideal(algebra, space)
        assert len(passes) == 1
    assert not is_ideal(algebra, Subspace.from_rows(n, [{0: 1}]))
    assert len(reads) < 10 * n
