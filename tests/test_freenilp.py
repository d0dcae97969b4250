from fractions import Fraction

import pytest

from adoforge.catalog import abelian, filiform4, heisenberg3
from adoforge.errors import BudgetExceeded, NotNilpotent
from adoforge.freenilp import free_nilpotent, hall_basis, present, witt_dimension
from adoforge.catalog import heisenberg5
from adoforge.liealg import LieHom, is_ideal, validate, verify_grading
from adoforge.linalg import RationalMatrix, kernel_basis, rank
from test_golden import rebased

from conftest import reference_is_hom


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

    def test_rank1_is_abelian(self):
        for c in (1, 2, 3):
            f = free_nilpotent(1, c)
            assert f.dim == 1 and not f.brackets

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
        total = Subspace.from_vectors(l.dim, generator_images).add(derived)
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
