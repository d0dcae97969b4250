from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import adoforge.engine as engine
from adoforge.catalog import abelian, example, filiform4, heisenberg3
from adoforge.engine import verify_output
from adoforge.errors import (
    DegenerateCocycle,
    DimensionMismatch,
    InvalidGrading,
    NotACocycle,
)
from adoforge.freenilp import free_nilpotent
from adoforge.graded import (
    Cocycle,
    cocycle_extension,
    cocycle_extension_rep,
    cocycle_space,
    current_algebra,
    current_algebra_faithful_rep,
    derivation_rep,
    euler_derivation,
    graded_embedding,
    graded_faithful_rep,
)
from adoforge.liealg import LieAlgebra, center, lower_central_series, validate
from adoforge.linalg import RationalMatrix, dense_vector, kernel_basis, unit_vector, vec_is_zero
from adoforge.reps import (
    Representation,
    adjoint,
    is_homomorphism,
    is_nilpotent_rep,
    rep_kernel,
)

from conftest import CORPUS, corpus_algebras, reference_is_hom, small_fractions


class TestCurrentAlgebra:
    def test_abelian_base(self):
        c = current_algebra(abelian(1), 2)
        assert c.product.dim == 1 and not c.product.brackets

    def test_h3_truncation3(self, h3):
        c = current_algebra(h3, 3)
        assert c.product.dim == 6
        assert validate(c.product).ok
        # [e0 (x) t, e1 (x) t] = e2 (x) t^2
        lhs = c.product.bracket(
            unit_vector(6, c.flat_index(1, 0)), unit_vector(6, c.flat_index(1, 1))
        )
        expected = unit_vector(6, c.flat_index(2, 2))
        assert lhs == expected
        # degree 3 truncates: [e0 (x) t, e1 (x) t^2] = 0
        lhs = c.product.bracket(
            unit_vector(6, c.flat_index(1, 0)), unit_vector(6, c.flat_index(2, 1))
        )
        assert vec_is_zero(lhs)

    def test_h3_truncation2_abelian(self, h3):
        c = current_algebra(h3, 2)
        assert c.product.dim == 3 and not c.product.brackets

    @pytest.mark.parametrize("truncation", [1, 0])
    def test_truncation_below_two_is_typed(self, h3, truncation):
        with pytest.raises(DimensionMismatch, match="at least 2"):
            current_algebra(h3, truncation)

    def test_nilpotency_class_bounded(self, h3):
        c = current_algebra(h3, 3)
        series = lower_central_series(c.product)
        assert series[-1].dim == 0
        assert len(series) - 1 <= 2


class TestGradedEmbedding:
    def test_abelian1(self):
        emb = graded_embedding(abelian(1))
        assert emb.target.dim == 1
        assert emb.matrix == RationalMatrix.identity(1)

    def test_h3(self, h3):
        emb = graded_embedding(h3)
        assert emb.target.dim == 6  # truncation 3
        assert kernel_basis(emb.matrix).dim == 0
        assert reference_is_hom(h3, emb.target, emb.matrix)
        c = current_algebra(h3, 3)
        assert emb.matrix.column(0) == unit_vector(6, c.flat_index(1, 0))
        assert emb.matrix.column(2) == unit_vector(6, c.flat_index(2, 2))

    def test_f4_dimensions(self, f4):
        emb = graded_embedding(f4)
        assert emb.target.dim == 12  # truncation 4, base dim 4
        assert reference_is_hom(f4, emb.target, emb.matrix)

    def test_high_degree_brackets_vanish(self, h3, f4):
        for algebra in (h3, f4):
            emb = graded_embedding(algebra)
            target = emb.target
            n = 1 + algebra.grading.max_degree
            cols = [emb.matrix.column(i) for i in range(algebra.dim)]
            for i in range(algebra.dim):
                for j in range(algebra.dim):
                    if algebra.grading.degrees[i] + algebra.grading.degrees[j] >= n:
                        assert vec_is_zero(target.bracket(cols[i], cols[j]))

    def test_requires_grading(self, solvable):
        with pytest.raises(InvalidGrading):
            graded_embedding(solvable)


class TestEulerDerivation:
    def test_abelian1(self):
        phi = euler_derivation(current_algebra(abelian(1), 2))
        assert phi.map == RationalMatrix.identity(1)

    def test_h3_diagonal(self, h3):
        phi = euler_derivation(current_algebra(h3, 3))
        assert phi.map == RationalMatrix.from_entries(
            6, 6, [(i, i, 1) for i in range(3)] + [(i, i, 2) for i in range(3, 6)]
        )

    @pytest.mark.parametrize("build", [lambda: abelian(2), heisenberg3, filiform4])
    def test_zero_kernel(self, build):
        algebra = build()
        c = current_algebra(algebra, 1 + algebra.grading.max_degree)
        phi = euler_derivation(c)
        assert kernel_basis(phi.map).dim == 0
        assert phi.satisfies_identity()


class TestCocycleSpace:
    def test_abelian1_trivial_module(self):
        a1 = abelian(1)
        rep = Representation(a1, 1, [RationalMatrix.zero(1, 1)])
        assert len(cocycle_space(rep)) == 1

    def test_h3_trivial_module(self, h3):
        rep = Representation(h3, 1, [RationalMatrix.zero(1, 1)] * 3)
        space = cocycle_space(rep)
        assert len(space) == 2  # maps vanishing on [L,L] = span{e2}
        for psi in space:
            assert vec_is_zero(psi.map.column(2))

    def test_h3_adjoint_is_derivation_space(self, h3):
        assert len(cocycle_space(adjoint(h3))) == 6

    def test_every_basis_member_satisfies_identity(self, f4):
        space = cocycle_space(adjoint(f4))
        assert all(psi.satisfies_identity() for psi in space)


def reference_cocycle_basis(rep):
    """The canonical basis of Z^1(L, V) that ``cocycle_space`` returned as
    the ``.basis`` of a wrapper, solved from the identity evaluated densely: one
    column of the system per unknown phi(e_i)_r, in the order i * dim V + r,
    holding the identity's residuals on every basis pair for that unit map."""
    alg, vd, n = rep.algebra, rep.space_dim, rep.algebra.dim
    columns = []
    for i in range(n):
        for r in range(vd):
            unit = RationalMatrix.from_entries(vd, n, [(r, i, 1)])
            residual = []
            for a in range(n):
                for b in range(a + 1, n):
                    lhs = unit.apply(dense_vector(alg.bracket_basis(a, b), n))
                    mid = rep.matrices[a].apply(unit.column(b))
                    last = rep.matrices[b].apply(unit.column(a))
                    residual.extend(x - y + z for x, y, z in zip(lhs, mid, last))
            columns.append(residual)
    system = RationalMatrix.from_columns(vd * (n * (n - 1) // 2), columns)
    return [
        RationalMatrix.from_entries(vd, n, [(idx % vd, idx // vd, v) for idx, v in enumerate(w)])
        for w in kernel_basis(system).basis_vectors()
    ]


@pytest.mark.parametrize("name", CORPUS)
def test_cocycle_space_is_the_canonical_basis_in_order(name):
    algebra = example(name)
    trivial = Representation(algebra, 2, [RationalMatrix.zero(2, 2)] * algebra.dim)
    for rep in (adjoint(algebra), graded_faithful_rep(algebra), trivial):
        space = cocycle_space(rep)
        assert all(psi.rep is rep for psi in space)
        assert [psi.map for psi in space] == reference_cocycle_basis(rep)


class TestCocycleExtension:
    def test_abelian1_two_dim(self):
        a1 = abelian(1)
        rep = Representation(a1, 1, [RationalMatrix.zero(1, 1)])
        phi = Cocycle(rep, RationalMatrix.identity(1))
        extended = cocycle_extension_rep(phi)
        assert extended.space_dim == 2
        assert extended.matrices[0] == RationalMatrix.from_entries(2, 2, [(0, 1, 1)])
        assert rep_kernel(extended).dim == 0
        assert is_nilpotent_rep(extended)

    def test_degenerate_cocycle_rejected(self, h3):
        rep = Representation(h3, 1, [RationalMatrix.zero(1, 1)] * 3)
        zero_map = Cocycle(rep, RationalMatrix.zero(1, 3))
        with pytest.raises(DegenerateCocycle):
            cocycle_extension_rep(zero_map)

    def test_non_cocycle_rejected(self, h3):
        rep = Representation(h3, 1, [RationalMatrix.zero(1, 1)] * 3)
        # phi(e2) != 0 violates the identity since e2 = [e0,e1] and rho = 0
        bad = Cocycle(rep, RationalMatrix.from_entries(1, 3, [(0, 0, 1), (0, 1, 1), (0, 2, 1)]))
        with pytest.raises(NotACocycle):
            cocycle_extension_rep(bad)

    def test_full_pipeline_on_current_h3(self, h3):
        current = current_algebra(h3, 3)
        phi = euler_derivation(current)
        extended = cocycle_extension_rep(phi)
        assert extended.space_dim == 6 + len(cocycle_space(adjoint(current.product)))
        assert is_homomorphism(extended)
        assert rep_kernel(extended).dim == 0
        assert is_nilpotent_rep(extended)

    @pytest.mark.parametrize("build", [heisenberg3, filiform4], ids=["h3", "f4"])
    def test_matches_dense_column_construction(self, build):
        # the extension as it was built before reading psi's row maps: one
        # dense column() per cocycle and basis element
        current = current_algebra(build(), 3)
        product, ad = current.product, adjoint(current.product)
        extended = cocycle_extension_rep(euler_derivation(current))
        space = cocycle_space(ad)
        vd, total = ad.space_dim, extended.space_dim
        for i in range(product.dim):
            entries = list(ad.matrices[i].entries())
            for b, psi in enumerate(space):
                entries.extend((r, vd + b, v) for r, v in enumerate(psi.map.column(i)) if v)
            assert extended.matrices[i] == RationalMatrix.from_entries(total, total, entries)


def scaling_derivation(algebra):
    return RationalMatrix.from_entries(
        algebra.dim, algebra.dim, [(i, i, d) for i, d in enumerate(algebra.grading.degrees)]
    )


class TestCocycleExtensionBuilder:
    """``cocycle_extension`` is the one builder of the extension matrices;
    ``derivation_rep`` and ``cocycle_extension_rep`` call it."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_no_maps_returns_rep(self, name):
        algebra = example(name)
        for rep in (adjoint(algebra), graded_faithful_rep(algebra)):
            extended = cocycle_extension(rep, [])
            assert extended.algebra is rep.algebra
            assert extended.space_dim == rep.space_dim
            assert extended.matrices == rep.matrices

    @pytest.mark.parametrize("name", CORPUS)
    def test_derivation_rep_is_one_map_extension(self, name):
        algebra = example(name)
        n = algebra.dim
        ad = adjoint(algebra)
        for D in (scaling_derivation(algebra), RationalMatrix.identity(n), ad.matrices[0]):
            rep = derivation_rep(algebra, D)
            assert rep.matrices == cocycle_extension(ad, [D]).matrices
            # the block matrix written out: ad e_i, then D e_i in column n
            for i in range(n):
                entries = list(ad.matrices[i].entries())
                entries.extend((r, n, v) for r, v in enumerate(D.column(i)) if v)
                assert rep.matrices[i] == RationalMatrix.from_entries(n + 1, n + 1, entries)

    @pytest.mark.parametrize("name", CORPUS)
    def test_cocycle_extension_rep_extends_by_cocycle_basis(self, name):
        algebra = example(name)
        ad = adjoint(algebra)
        phi = Cocycle(ad, scaling_derivation(algebra))
        extended = cocycle_extension_rep(phi)
        space = cocycle_space(ad)
        assert extended.algebra is algebra
        assert extended.space_dim == algebra.dim + len(space)
        assert extended.matrices == cocycle_extension(ad, [psi.map for psi in space]).matrices
        assert verify_output(algebra, extended).ok

    def test_map_shape_checked(self, h3):
        ad = adjoint(h3)
        for shape in ((3, 2), (2, 3), (4, 3)):
            with pytest.raises(DimensionMismatch):
                cocycle_extension(ad, [RationalMatrix.zero(*shape)])


class TestGradedFaithfulRep:
    def test_abelian1(self):
        rep = graded_faithful_rep(abelian(1))
        assert rep.space_dim == 2
        assert rep_kernel(rep).dim == 0

    @pytest.mark.parametrize("build", [heisenberg3, filiform4, lambda: abelian(3)])
    def test_verified_faithful_nilpotent(self, build):
        algebra = build()
        rep = graded_faithful_rep(algebra)
        assert is_homomorphism(rep)
        assert rep_kernel(rep).dim == 0
        assert is_nilpotent_rep(rep)

    def test_ungraded_rejected(self, solvable):
        with pytest.raises(InvalidGrading):
            graded_faithful_rep(solvable)


# the acceptance corpus plus the two larger free algebras
DERIVATION_CORPUS = [
    "abelian1",
    "abelian2",
    "abelian3",
    "heisenberg3",
    "heisenberg5",
    "filiform4",
    "free2_2",
    "free2_3",
    "free2_4",
    "free3_3",
]


class TestDerivationRep:
    @pytest.mark.parametrize("name", DERIVATION_CORPUS)
    def test_scaling_derivation_rep(self, name):
        algebra = example(name)
        n = algebra.dim
        rep = graded_faithful_rep(algebra)
        assert rep.space_dim == n + 1
        assert verify_output(algebra, rep).ok
        for i, d in enumerate(algebra.grading.degrees):
            expected = [0] * (n + 1)
            expected[i] = d
            assert list(rep.matrices[i].column(n)) == expected

    def test_non_derivation_not_homomorphism(self, h3):
        # I[e0, e1] = e2 but [I e0, e1] + [e0, I e1] = 2 e2
        rep = derivation_rep(h3, RationalMatrix.identity(3))
        assert not is_homomorphism(rep)
        assert verify_output(h3, rep).failing() == ["homomorphism"]

    def test_zero_derivation_not_faithful(self, h3):
        rep = derivation_rep(h3, RationalMatrix.zero(3, 3))
        assert verify_output(h3, rep).failing() == ["faithful"]

    def test_inner_derivation_not_faithful(self, h3):
        # ad e0 kills the center e2, and so does rho
        rep = derivation_rep(h3, adjoint(h3).matrices[0])
        assert verify_output(h3, rep).failing() == ["faithful"]
        assert rep_kernel(rep).basis_vectors() == [unit_vector(3, 2)]

    def test_shape_checked(self, h3):
        with pytest.raises(DimensionMismatch):
            derivation_rep(h3, RationalMatrix.identity(2))


class TestCurrentAlgebraFaithfulRep:
    def test_h3_paper_route(self, h3):
        # adjoint of the 6-dim current algebra plus its 24-dim cocycle space
        rep = current_algebra_faithful_rep(h3)
        assert rep.space_dim == 30
        assert verify_output(h3, rep).ok

    def test_ungraded_rejected(self, solvable):
        with pytest.raises(InvalidGrading):
            current_algebra_faithful_rep(solvable)


class TestFreeNilpotentFaithfulRep:
    """``current_algebra_faithful_rep`` on free nilpotent algebras, which is
    how the engine seeds the induction route."""

    def test_free11(self):
        rep = current_algebra_faithful_rep(free_nilpotent(1, 1))
        assert rep.space_dim == 2

    def test_seeded_by_current_algebra_route(self, monkeypatch):
        seeds = []
        real = engine.current_algebra_faithful_rep

        def recording(algebra):
            seeds.append((algebra, real(algebra)))
            return seeds[-1][1]

        monkeypatch.setattr(engine, "current_algebra_faithful_rep", recording)
        f4 = filiform4()
        engine.construct_faithful_nilpotent(f4, engine.EngineConfig(method="induction"))
        ((free, rep),) = seeds
        assert free.structurally_equal(free_nilpotent(2, 3))
        assert rep.space_dim == 112

    @pytest.mark.parametrize("r,c", [(2, 2), (2, 3)])
    def test_faithful_nilpotent(self, r, c):
        f = free_nilpotent(r, c)
        rep = current_algebra_faithful_rep(f)
        assert is_homomorphism(rep)
        assert rep_kernel(rep).dim == 0
        assert is_nilpotent_rep(rep)

    def test_grading_required(self):
        bare = LieAlgebra(3, {(0, 1): {2: 1}})
        with pytest.raises(InvalidGrading):
            current_algebra_faithful_rep(bare)


class TestNoNonsingularDerivation:
    """The Dixmier-Lister algebras: no grading and no nonsingular derivation,
    so neither graded route applies (kept out of the construct corpus)."""

    @pytest.mark.parametrize("name", ["cn7a", "cn7b"])
    def test_facts(self, name):
        algebra = example(name)
        assert algebra.grading is None
        assert validate(algebra).ok
        assert [s.dim for s in lower_central_series(algebra)] == [7, 5, 4, 3, 2, 1, 0]
        assert center(algebra).dim == 1
        # Z^1(L, ad) = Der(L)
        der = cocycle_space(adjoint(algebra))
        assert len(der) == 10
        # the derivations generate a nilpotent associative algebra, so every
        # derivation is nilpotent and none is nonsingular
        maps = [psi.map for psi in der]
        assert is_nilpotent_rep(Representation(abelian(len(maps)), algebra.dim, maps))


# --- the sparse cocycle check against the old dense one ---


def reference_satisfies_identity(cocycle):
    """The dense check: three dense applies per basis pair."""
    alg = cocycle.rep.algebra
    n = alg.dim
    cols = [cocycle.map.column(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = cocycle.map.apply(dense_vector(alg.bracket_basis(i, j), n))
            mid = cocycle.rep.matrices[i].apply(cols[j])
            last = cocycle.rep.matrices[j].apply(cols[i])
            if any(a - b + c for a, b, c in zip(lhs, mid, last)):
                return False
    return True


@st.composite
def cocycles(draw):
    """A random combination of the cocycle space's basis for the adjoint
    module, the derivation representation (graded inputs) or a trivial
    module."""
    algebra = draw(corpus_algebras())
    kinds = ["adjoint", "trivial"] + (["derivation"] if algebra.grading is not None else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "adjoint":
        rep = adjoint(algebra)
    elif kind == "derivation":
        rep = graded_faithful_rep(algebra)
    else:
        rep = Representation(algebra, 2, [RationalMatrix.zero(2, 2)] * algebra.dim)
    total = RationalMatrix.zero(rep.space_dim, algebra.dim)
    for psi in cocycle_space(rep):
        total = total + psi.map.scale(draw(small_fractions))
    return Cocycle(rep, total)


@settings(deadline=None, max_examples=100)
@given(cocycles(), st.data())
def test_satisfies_identity_verdicts_match_dense_check(phi, data):
    assert reference_satisfies_identity(phi)
    assert phi.satisfies_identity()
    r = data.draw(st.integers(0, phi.map.rows - 1))
    c = data.draw(st.integers(0, phi.map.cols - 1))
    q = data.draw(st.integers(1, 5))
    moved = RationalMatrix.from_entries(
        phi.map.rows, phi.map.cols, list(phi.map.entries()) + [(r, c, Fraction(1, q))]
    )
    tampered = Cocycle(phi.rep, moved)
    assert tampered.satisfies_identity() == reference_satisfies_identity(tampered)


def test_satisfies_identity_rejects_moved_scaling_entry(h3):
    # the scaling derivation diag(1, 1, 2) of h3 with D(e2) moved to 3 e2:
    # D[e0, e1] = 3 e2 but [De0, e1] + [e0, De1] = 2 e2
    moved = RationalMatrix.from_entries(3, 3, [(0, 0, 1), (1, 1, 1), (2, 2, 3)])
    phi = Cocycle(adjoint(h3), moved)
    assert not reference_satisfies_identity(phi)
    assert not phi.satisfies_identity()
    with pytest.raises(NotACocycle):
        cocycle_extension_rep(phi)
