from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import adoforge.liealg as liealg
import adoforge.linalg as linalg
from adoforge.catalog import abelian, example
from adoforge.freenilp import present
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
from adoforge.linalg import RationalMatrix, Subspace, solve_multi, unit_vector

from conftest import (
    CORPUS,
    changes_of_basis,
    corpus_algebras,
    rebase,
    reference_bracket,
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


class TestBracket:
    def test_h3_generators(self, h3):
        e0, e1 = unit_vector(3, 0), unit_vector(3, 1)
        assert h3.bracket(e0, e1) == unit_vector(3, 2)

    def test_alternating(self, h3):
        u = (Fraction(2), Fraction(-1), Fraction(5))
        assert all(c == 0 for c in h3.bracket(u, u))

    def test_central_element(self, h3):
        assert all(c == 0 for c in h3.bracket(unit_vector(3, 2), unit_vector(3, 0)))


class TestCenter:
    def test_h3(self, h3):
        assert center(h3) == span(3, unit_vector(3, 2))

    def test_abelian(self):
        for n in (1, 2, 4):
            assert center(abelian(n)) == Subspace.full(n)

    def test_filiform(self, f4):
        assert center(f4) == span(4, unit_vector(4, 3))


class TestLowerCentralSeries:
    def test_h3(self, h3):
        dims = [s.dim for s in lower_central_series(h3)]
        assert dims == [3, 1, 0]
        assert lower_central_series(h3)[1] == span(3, unit_vector(3, 2))

    def test_abelian(self, abelian2):
        assert [s.dim for s in lower_central_series(abelian2)] == [2, 0]

    def test_filiform(self, f4):
        series = lower_central_series(f4)
        assert [s.dim for s in series] == [4, 2, 1, 0]
        assert series[1] == span(4, unit_vector(4, 2), unit_vector(4, 3))
        assert series[2] == span(4, unit_vector(4, 3))


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
        q, proj = quotient(h3, span(3, unit_vector(3, 2)))
        assert q.dim == 2 and not q.brackets  # abelian
        assert proj.matrix.rows == 2

    def test_non_ideal_rejected(self, h3):
        with pytest.raises(NotAnIdeal):
            quotient(h3, span(3, unit_vector(3, 0)))

    def test_projection_is_homomorphism(self, f4):
        ideal = span(4, unit_vector(4, 3))
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
    lhs = RationalMatrix.from_columns(n, ideal.basis_vectors() + [unit_vector(n, i) for i in complement])
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
        assert flag[1] == span(2, unit_vector(2, 0))

    def test_h3_chain_properties(self, h3):
        flag = central_flag(h3).ideals
        assert [s.dim for s in flag] == [0, 1, 2, 3]
        assert flag[1] == span(3, unit_vector(3, 2))
        _assert_chain_properties(h3, flag)

    def test_f4_chain(self, f4):
        flag = central_flag(f4).ideals
        assert len(flag) == 5
        assert flag[1] == span(4, unit_vector(4, 3))
        assert flag[2] == span(4, unit_vector(4, 2), unit_vector(4, 3))
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
                w = algebra.bracket(unit_vector(algebra.dim, b), v)
                assert flag[i - 1].contains_vector(w)


class TestCodim1Refinement:
    def test_one_dimensional_ideal(self, h3):
        j = codim1_refinement(h3, span(3, unit_vector(3, 2)))
        assert j.dim == 0

    def test_f4_two_dimensional(self, f4):
        i = span(4, unit_vector(4, 2), unit_vector(4, 3))
        j = codim1_refinement(f4, i)
        assert j == span(4, unit_vector(4, 3))
        for v in i.basis_vectors():
            for b in range(4):
                assert j.contains_vector(f4.bracket(unit_vector(4, b), v))

    def test_zero_ideal_rejected(self, h3):
        with pytest.raises(ZeroIdeal):
            codim1_refinement(h3, Subspace.zero(3))

    def test_non_ideal_rejected(self, h3):
        with pytest.raises(NotAnIdeal):
            codim1_refinement(h3, span(3, unit_vector(3, 0)))

    def test_flag_of_another_algebra_rejected(self, h3, f4):
        with pytest.raises(AlgebraMismatch, match="different algebra"):
            codim1_refinement(h3, span(3, unit_vector(3, 2)), central_flag(f4))

    def test_flag_without_the_full_space_rejected(self, h3):
        truncated = IdealChain(h3, central_flag(h3).ideals[:-1])
        with pytest.raises(AlgebraMismatch, match="not a full flag"):
            codim1_refinement(h3, Subspace.full(3), truncated)


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
        ideal = span(3, unit_vector(3, 2))
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
            v = algebra.bracket(unit_vector(algebra.dim, i), col)
            if any(v):
                vectors.append(v)
    return vectors


def reference_is_ideal(algebra, space):
    for col in space.basis_vectors():
        for i in range(algebra.dim):
            v = algebra.bracket(unit_vector(algebra.dim, i), col)
            if any(v) and not space.contains_vector(v):
                return False
    return True


def reference_jacobi_residual(algebra, i, j, k):
    acc = [Fraction(0)] * algebra.dim
    for (a, b), c in (((i, j), k), ((j, k), i), ((k, i), j)):
        for m, coeff in algebra.bracket_basis(a, b).items():
            for t, oc in algebra.bracket_basis(m, c).items():
                acc[t] += coeff * oc
    return tuple(acc) if any(acc) else None


def recorded_from_vectors(fn, *args):
    """fn(*args) and the (ambient, vectors) of every Subspace.from_vectors
    call it made: what the benchmark's rref cells are counted from."""
    calls = []
    original = Subspace.from_vectors.__func__

    def recording(cls, ambient, vectors):
        vectors = list(vectors)
        calls.append((ambient, vectors))
        return original(cls, ambient, vectors)

    with mock.patch.object(Subspace, "from_vectors", classmethod(recording)):
        out = fn(*args)
    return out, calls


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
    reference = reference_bracket_span_vectors(algebra, space)
    span, calls = recorded_from_vectors(liealg._bracket_span, algebra, space)
    assert calls == [(algebra.dim, reference)]
    assert span == Subspace.from_vectors(algebra.dim, reference)
    assert is_ideal(algebra, space) == reference_is_ideal(algebra, space)


@pytest.mark.parametrize("name", CORPUS)
def test_series_and_ideals_match_dense_on_corpus(name):
    algebra = example(name)
    for term in lower_central_series(algebra):
        assert recorded_from_vectors(liealg._bracket_span, algebra, term)[1] == [
            (algebra.dim, reference_bracket_span_vectors(algebra, term))
        ]
        assert is_ideal(algebra, term) and reference_is_ideal(algebra, term)
    for i in range(algebra.dim):
        line = Subspace.from_vectors(algebra.dim, [unit_vector(algebra.dim, i)])
        assert is_ideal(algebra, line) == reference_is_ideal(algebra, line)


@settings(deadline=None, max_examples=60)
@given(st.integers(3, 5), st.data())
def test_jacobi_residual_matches_dense(n, data):
    # random structure constants mostly break the Jacobi identity
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = {p: {k: data.draw(sparse_fractions) for k in range(n)} for p in data.draw(st.lists(st.sampled_from(pairs), unique=True))}
    algebra = LieAlgebra(n, brackets)
    report = validate(algebra)
    expected = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                residual = reference_jacobi_residual(algebra, i, j, k)
                if residual is not None:
                    expected.append((i, j, k, residual))
    assert report.jacobi_violations == expected
    assert all(type(x) is Fraction for *_, r in report.jacobi_violations for x in r)


@settings(deadline=None, max_examples=30)
@given(corpus_algebras())
def test_corpus_has_no_jacobi_residual(algebra):
    assert validate(algebra).jacobi_violations == []
