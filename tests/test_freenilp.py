from fractions import Fraction

import pytest

import adoforge.freenilp as freenilp
from adoforge.catalog import abelian, filiform4, heisenberg3
from adoforge.errors import BudgetExceeded, NotNilpotent
from adoforge.freenilp import free_central_flag, free_nilpotent, hall_basis, present, witt_dimension
from adoforge.catalog import heisenberg5
from adoforge.catalog import example
from adoforge.liealg import LieHom, central_flag, is_ideal, nilpotency_class, validate, verify_grading
from adoforge.linalg import F1, RationalMatrix, Subspace, dense_vector, kernel_basis, rank
from hypothesis import given, settings, strategies as st
from test_golden import rebased

from conftest import CORPUS, assert_integer_echelon, corpus_algebras, reference_bracket, reference_is_hom, ungraded_quotients


class TestHallBasis:
    def test_rank2_class1(self):
        words = hall_basis(2, 1)
        assert [w.label() for w in words] == ["g1", "g2"]

    def test_rank2_class2(self):
        words = hall_basis(2, 2)
        assert [w.label() for w in words] == ["g1", "g2", "[g2,g1]"]

    def test_rank2_class3(self):
        words = hall_basis(2, 3)
        assert len(words) == 5
        degree3 = [w.label() for w in words if w.degree == 3]
        assert degree3 == ["[[g2,g1],g1]", "[[g2,g1],g2]"]

    def test_hall_condition_everywhere(self):
        for w in hall_basis(3, 4):
            if w.is_generator:
                continue
            assert w.left.index > w.right.index
            if not w.left.is_generator:
                assert w.left.right.index <= w.right.index

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
    def test_counts_match_witt(self, r, c):
        words = hall_basis(r, c)
        for d in range(1, c + 1):
            assert sum(1 for w in words if w.degree == d) == witt_dimension(r, d)


class TestWittDimension:
    def test_small_values(self):
        assert witt_dimension(2, 1) == 2
        assert witt_dimension(2, 2) == 1  # (2^2 - 2) / 2
        assert witt_dimension(2, 3) == 2
        assert witt_dimension(3, 2) == 3
        assert witt_dimension(2, 6) == 9  # moebius term at e = 6 contributes


# --- independent oracle: expand Hall words in the truncated word algebra ----

def _nc_mul(p, q, cutoff):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            if len(w1) + len(w2) > cutoff:
                continue
            w = w1 + w2
            v = out.get(w, 0) + c1 * c2
            if v:
                out[w] = v
            else:
                del out[w]
    return out


def _nc_sub(p, q):
    out = dict(p)
    for w, c in q.items():
        v = out.get(w, 0) - c
        if v:
            out[w] = v
        else:
            out.pop(w, None)
    return out


def _expand(word, cutoff):
    if word.is_generator:
        return {(word.gen,): Fraction(1)}
    left = _expand(word.left, cutoff)
    right = _expand(word.right, cutoff)
    return _nc_sub(_nc_mul(left, right, cutoff), _nc_mul(right, left, cutoff))


@pytest.mark.parametrize("r,c", [(2, 2), (2, 3), (3, 3), (2, 4)])
def test_structure_constants_against_tensor_algebra(r, c):
    """The Hall-rewriting structure constants must agree with commutators
    computed in the truncated free associative algebra."""
    algebra = free_nilpotent(r, c)
    words = hall_basis(r, c)
    expansions = [_expand(w, c) for w in words]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            direct = _nc_sub(
                _nc_mul(expansions[i], expansions[j], c),
                _nc_mul(expansions[j], expansions[i], c),
            )
            combo = {}
            for k, coeff in algebra.bracket_basis(i, j).items():
                for w, v in expansions[k].items():
                    nv = combo.get(w, 0) + coeff * v
                    if nv:
                        combo[w] = nv
                    else:
                        del combo[w]
            assert direct == combo, f"pair ({i},{j}) disagrees with the word-algebra oracle"


class TestFreeNilpotent:
    def test_rank2_class2_is_heisenberg(self):
        f = free_nilpotent(2, 2)
        h3 = heisenberg3()
        # e0 -> g2, e1 -> g1, e2 -> [g2,g1] is an isomorphism
        iso = LieHom(h3, f, RationalMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
        assert reference_is_hom(h3, f, iso.matrix)
        assert kernel_basis(iso.matrix).dim == 0

    def test_rank1_is_abelian(self, monkeypatch):
        # one generator brackets to nothing, so F(1, c) is F(1, 1): no Witt
        # number past degree 1 and no Hall word past the generator is sought
        line = free_nilpotent(1, 1)
        degrees = []
        real = freenilp.witt_dimension
        monkeypatch.setattr(freenilp, "witt_dimension", lambda r, d: degrees.append(d) or real(r, d))
        for c in (1, 2, 3, 10**6):
            f = free_nilpotent(1, c)
            assert f.dim == 1 and not f.brackets
            assert (f.labels, f.grading) == (line.labels, line.grading)
        assert degrees == [1] * 4

    def test_rank2_class3_shape(self):
        f = free_nilpotent(2, 3)
        assert f.dim == 5
        assert f.grading.degrees == (1, 1, 2, 3, 3)
        assert validate(f).ok and verify_grading(f)

    @pytest.mark.parametrize("r,c", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
    def test_jacobi_and_grading(self, r, c):
        f = free_nilpotent(r, c)
        assert validate(f).ok
        assert verify_grading(f)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            free_nilpotent(5, 4)  # dimension 205 over the default 200

    @pytest.mark.parametrize("r,c,stop,total", [(2, 10**6, 10, 226), (6, 6, 4, 406), (201, 3, 1, 201)])
    def test_budget_stops_at_the_first_degree_over(self, monkeypatch, r, c, stop, total):
        # the Witt numbers are summed degree by degree, and the sum stops at
        # the first degree where it passes the budget of 200
        degrees = []
        real = freenilp.witt_dimension
        monkeypatch.setattr(freenilp, "witt_dimension", lambda r, d: degrees.append(d) or real(r, d))
        with pytest.raises(BudgetExceeded, match=f"rank {r} and class {c} has dimension at least {total} > budget 200"):
            free_nilpotent(r, c)
        assert degrees == list(range(1, stop + 1))


# (rank, class) with dim F(rank, class) <= 32
FLAG_GRID = [(1, 1), (1, 3)] + [(2, c) for c in range(1, 7)] + [(3, c) for c in range(1, 5)] + [(4, 1), (4, 2), (5, 2)]


class TestFreeCentralFlag:
    """The flag read off the Hall grading is the one ``central_flag`` builds
    by walking F's lower central series and pivot-completing its terms."""

    @pytest.mark.parametrize("r,c", FLAG_GRID)
    def test_equals_the_walked_central_flag(self, r, c):
        f = free_nilpotent(r, c)
        flag = free_central_flag(f)
        assert flag.algebra is f
        assert flag.ideals == central_flag(f).ideals
        for member in flag.ideals:
            assert_integer_echelon(member)
            assert all(type(v) is Fraction for row in member.basis_rows() for v in row.values())

    def test_deepest_degree_first(self):
        # F(2, 3) has degrees (1, 1, 2, 3, 3): the words of degree 3 come
        # first in ascending index, then [g2, g1], then the generators
        flag = free_central_flag(free_nilpotent(2, 3)).ideals
        assert [member._pivots for member in flag] == [[], [3], [3, 4], [2, 3, 4], [0, 2, 3, 4], [0, 1, 2, 3, 4]]


def assert_presentation(pres):
    """pi: F -> L is an onto homomorphism and I = Ker pi is an ideal of F."""
    assert reference_is_hom(pres.F, pres.L, pres.pi.matrix)
    assert rank(pres.pi.matrix) == pres.L.dim
    assert is_ideal(pres.F, pres.I)


class TestPresent:
    def test_h3(self):
        pres = present(heisenberg3())
        assert pres.F.dim == 3
        assert pres.I.dim == 0
        assert kernel_basis(pres.pi.matrix).dim == 0
        assert_presentation(pres)

    def test_rebased_h5(self):
        pres = present(rebased(heisenberg5()))
        assert (pres.F.dim, pres.I.dim) == (10, 5)
        assert_presentation(pres)

    def test_abelian1(self):
        pres = present(abelian(1))
        assert pres.F.dim == 1 and pres.I.dim == 0

    def test_filiform4(self):
        pres = present(filiform4())
        assert pres.F.dim == 5
        assert pres.I.dim == 1
        assert kernel_basis(pres.pi.matrix) == pres.I
        assert_presentation(pres)

    def test_generators_span_modulo_derived(self):
        from adoforge.liealg import derived_subalgebra
        from adoforge.linalg import Subspace

        l = filiform4()
        pres = present(l)
        generator_images = [
            pres.pi.matrix.column(i)
            for i, d in enumerate(pres.F.grading.degrees)
            if d == 1
        ]
        derived = derived_subalgebra(l)
        total = Subspace.from_rows(l.dim, Subspace.from_vectors(l.dim, generator_images)._rows + derived._rows)
        assert total.dim == l.dim

    def test_not_nilpotent_rejected(self, solvable):
        with pytest.raises(NotNilpotent):
            present(solvable)

    @pytest.mark.parametrize("build", [heisenberg3, filiform4, lambda: rebased(heisenberg5())])
    def test_walks_lower_central_series_once(self, build, monkeypatch):
        # one walk of class c takes c bracket spans: L -> [L,L] -> ... -> 0;
        # the class is read off it, [L,L] off the bracket table
        import adoforge.liealg as liealg

        algebra = build()
        c = len(liealg.lower_central_series(algebra)) - 1
        spans = []
        real = liealg._bracket_span
        monkeypatch.setattr(liealg, "_bracket_span", lambda *args: spans.append(args) or real(*args))
        pres = present(algebra)
        assert len(spans) == c == pres.F.grading.max_degree


# --- the sparse Hall evaluation against the dense one ---


def reference_present(algebra):
    """(pi, I) as ``present`` built them with dense vectors: the complement
    of the span of the dense brackets [e_i, e_j], unit vectors on it for
    the generators, table-sweep brackets for the other Hall words, and pi
    from those columns."""
    n = algebra.dim
    derived = Subspace.from_vectors(
        n, [reference_bracket(algebra, dense_vector({i: F1}, n), dense_vector({j: F1}, n)) for i in range(n) for j in range(i + 1, n)]
    )
    complement = [i for i in range(n) if i not in set(derived._pivots)]
    words = hall_basis(len(complement), nilpotency_class(algebra))
    images = []
    for w in words:
        if w.is_generator:
            images.append(dense_vector({complement[w.gen]: F1}, n))
        else:
            images.append(reference_bracket(algebra, images[w.left.index], images[w.right.index]))
    matrix = RationalMatrix.from_columns(n, images)
    return matrix, kernel_basis(matrix)


def assert_present_matches(algebra):
    pres = present(algebra)
    matrix, ideal = reference_present(algebra)
    assert pres.pi.matrix == matrix and pres.I == ideal
    assert all(type(v) is Fraction for *_, v in pres.pi.matrix.entries())
    assert_presentation(pres)


@pytest.mark.parametrize("name", CORPUS + ("cn7a", "cn7b", "census7"))
def test_present_matches_dense_evaluation_on_the_catalog(name):
    assert_present_matches(example(name))


@settings(deadline=None, max_examples=40)
@given(st.one_of(corpus_algebras(), ungraded_quotients()))
def test_present_matches_dense_evaluation_on_rebased_and_ungraded_inputs(algebra):
    assert_present_matches(algebra)
