from fractions import Fraction

import pytest

from adoforge.catalog import abelian
from adoforge.errors import AlgebraMismatch, NotCentral, NotInvariant
from adoforge.liealg import LieHom, identity_hom
from adoforge.linalg import (
    RationalMatrix,
    Subspace,
    nilpotency_index,
    unit_vector,
    zero_vector,
)
from adoforge.reps import (
    Representation,
    adjoint,
    cyclic_submodule,
    direct_sum,
    element_action,
    is_homomorphism,
    is_nilpotent_rep,
    kernel_submodule,
    rep_kernel,
    restrict_along,
    tensor_product,
)

from conftest import single_entry


def zero_rep(algebra, space_dim):
    return Representation(algebra, space_dim, [RationalMatrix.zero(space_dim, space_dim)] * algebra.dim)


class TestAdjoint:
    def test_abelian_all_zero(self, abelian2):
        ad = adjoint(abelian2)
        assert all(m.is_zero() for m in ad.matrices)

    def test_h3_matrices(self, h3):
        ad = adjoint(h3)
        assert ad.matrices[0] == single_entry(3, 2, 1)  # [e0, e1] = e2
        assert ad.matrices[2].is_zero()

    def test_kernel_is_center(self, h3):
        from adoforge.liealg import center

        assert rep_kernel(adjoint(h3)) == center(h3)


class TestDirectSum:
    def test_zero_summand_keeps_kernel(self, h3):
        ad = adjoint(h3)
        combined = direct_sum(ad, zero_rep(h3, 2))
        assert rep_kernel(combined) == rep_kernel(ad)

    def test_dimensions_add(self, h3, std_h3_rep):
        assert direct_sum(adjoint(h3), std_h3_rep).space_dim == 6

    def test_kernel_intersection(self, h3, std_h3_rep):
        combined = direct_sum(adjoint(h3), std_h3_rep)
        assert rep_kernel(combined).dim == 0

    def test_algebra_mismatch(self, h3, abelian2):
        with pytest.raises(AlgebraMismatch):
            direct_sum(adjoint(h3), adjoint(abelian2))

    def test_kernel_is_exact_intersection(self, h3, std_h3_rep):
        ad = adjoint(h3)
        pairs = [
            (ad, std_h3_rep),
            (ad, zero_rep(h3, 2)),
            (zero_rep(h3, 1), std_h3_rep),
            (ad, ad),
        ]
        for rho, tau in pairs:
            combined = rep_kernel(direct_sum(rho, tau))
            assert combined == rep_kernel(rho).intersect(rep_kernel(tau))

    def test_nilpotency_preserved_by_combinators(self, h3, std_h3_rep):
        from adoforge.reps import is_nilpotent_rep, tensor_product

        ad = adjoint(h3)
        assert is_nilpotent_rep(direct_sum(ad, std_h3_rep))
        assert is_nilpotent_rep(tensor_product(ad, std_h3_rep))


class TestTensorProduct:
    def test_one_dim_trivial_factor_is_identity(self, std_h3_rep, h3):
        trivial = zero_rep(h3, 1)
        assert tensor_product(std_h3_rep, trivial).matrices == std_h3_rep.matrices

    def test_nilpotency_index_doubles(self, std_h3_rep):
        x = unit_vector(3, 0)
        n = nilpotency_index(element_action(std_h3_rep, x))
        squared = tensor_product(std_h3_rep, std_h3_rep)
        assert nilpotency_index(element_action(squared, x)) == 2 * n - 1

    def test_jordan_blocks_up_to_four(self):
        # single-matrix representations of the 1-dim abelian algebra
        a1 = abelian(1)
        for n in range(1, 5):
            block = RationalMatrix.from_entries(n, n, [(i, i + 1, 1) for i in range(n - 1)])
            rep = Representation(a1, n, [block])
            assert nilpotency_index(block) == n if n > 1 else True
            squared = tensor_product(rep, rep)
            assert nilpotency_index(squared.matrices[0]) == 2 * nilpotency_index(block) - 1

    def test_homomorphism_preserved(self, std_h3_rep):
        assert is_homomorphism(tensor_product(std_h3_rep, std_h3_rep))


class TestRestrictAlong:
    def test_identity(self, h3, std_h3_rep):
        again = restrict_along(std_h3_rep, identity_hom(h3))
        assert again.matrices == std_h3_rep.matrices

    def test_zero_map(self, h3, abelian2):
        m = RationalMatrix.zero(3, 2)
        phi = LieHom(abelian2, h3, m)
        restricted = restrict_along(adjoint(h3), phi)
        assert all(mat.is_zero() for mat in restricted.matrices)

    def test_faithful_through_injection(self, h3):
        from adoforge.graded import (
            cocycle_extension_rep,
            current_algebra,
            euler_derivation,
            graded_embedding,
        )

        current = current_algebra(h3, 3)
        embedding = graded_embedding(h3, current)
        phi = euler_derivation(current)
        big = cocycle_extension_rep(current.product, adjoint(current.product), phi)
        restricted = restrict_along(big, embedding)
        assert rep_kernel(restricted).dim == 0


class TestRepKernel:
    def test_zero_rep_full(self, h3):
        assert rep_kernel(zero_rep(h3, 2)) == Subspace.full(3)

    def test_standard_h3_faithful(self, std_h3_rep):
        assert rep_kernel(std_h3_rep).dim == 0

    def test_adjoint_kernel(self, h3):
        assert rep_kernel(adjoint(h3)) == Subspace.from_vectors(3, [unit_vector(3, 2)])


class TestIsHomomorphism:
    def test_adjoint(self, h3):
        assert is_homomorphism(adjoint(h3))

    def test_standard_rep(self, std_h3_rep):
        assert is_homomorphism(std_h3_rep)

    def test_scaled_center_fails(self, h3):
        bad = Representation(
            h3, 3, [single_entry(3, 0, 1), single_entry(3, 1, 2), single_entry(3, 0, 2, 2)]
        )
        assert not is_homomorphism(bad)


class TestIsNilpotentRep:
    def test_zero_rep(self, h3):
        assert is_nilpotent_rep(zero_rep(h3, 3))

    def test_standard_rep(self, std_h3_rep):
        assert is_nilpotent_rep(std_h3_rep)

    def test_identity_action_fails(self):
        rep = Representation(abelian(1), 1, [RationalMatrix.identity(1)])
        assert not is_nilpotent_rep(rep)

    def test_nilpotent_basis_non_nilpotent_span(self):
        # e, f, and e+h span sl2 by nilpotent matrices, yet the span contains
        # non-nilpotent elements; the associative chain must detect this.
        e = RationalMatrix.from_rows([[0, 1], [0, 0]])
        f = RationalMatrix.from_rows([[0, 0], [1, 0]])
        g = RationalMatrix.from_rows([[1, 1], [-1, -1]])
        sl2ish = abelian(3)  # container only; homomorphism not required here
        rep = Representation(sl2ish, 2, [e, f, g])
        assert not is_nilpotent_rep(rep)


class TestKernelSubmodule:
    def test_central_zero_action_keeps_space(self, h3):
        ad = adjoint(h3)  # rho(e2) = 0
        carrier, induced = kernel_submodule(ad, unit_vector(3, 2))
        assert carrier == Subspace.full(3)
        assert induced.algebra.dim == 2
        assert is_homomorphism(induced)

    def test_standard_rep_center_carve(self, std_h3_rep):
        carrier, induced = kernel_submodule(std_h3_rep, unit_vector(3, 2))
        # Ker E13 = span{e0, e1}
        assert carrier == Subspace.from_vectors(3, [unit_vector(3, 0), unit_vector(3, 1)])
        assert induced.space_dim == 2
        assert induced.algebra.dim == 2 and not induced.algebra.brackets
        assert is_homomorphism(induced)
        assert is_nilpotent_rep(induced)

    def test_non_central_rejected(self, std_h3_rep):
        with pytest.raises(NotCentral):
            kernel_submodule(std_h3_rep, unit_vector(3, 0))

    def test_given_carrier_used_as_is(self, std_h3_rep):
        z = unit_vector(3, 2)
        carrier, induced = kernel_submodule(std_h3_rep, z)
        given, induced_given = kernel_submodule(std_h3_rep, z, carrier)
        assert given is carrier
        assert induced_given.matrices == induced.matrices

    def test_non_invariant_carrier_rejected(self, std_h3_rep):
        # rho(e0) = E12 sends the second basis vector to the first
        line = Subspace.from_vectors(3, [unit_vector(3, 1)])
        with pytest.raises(NotCentral, match="does not stabilize"):
            kernel_submodule(std_h3_rep, unit_vector(3, 2), line)


class TestCyclicSubmodule:
    def test_zero_vector(self, std_h3_rep):
        sub = cyclic_submodule(std_h3_rep, zero_vector(3))
        assert sub.space_dim == 0

    def test_killed_vector(self, std_h3_rep):
        sub = cyclic_submodule(std_h3_rep, unit_vector(3, 0))
        assert sub.space_dim == 1
        assert all(m.is_zero() for m in sub.matrices)

    def test_generating_vector(self, std_h3_rep):
        sub = cyclic_submodule(std_h3_rep, unit_vector(3, 2))
        assert sub.space_dim == 3

    def test_non_invariant_closure_is_a_typed_error(self, std_h3_rep, monkeypatch):
        monkeypatch.setattr(Subspace, "restricted_action", lambda self, m: None)
        with pytest.raises(NotInvariant):
            cyclic_submodule(std_h3_rep, unit_vector(3, 2))


class TestElementAction:
    def test_basis_vector(self, std_h3_rep):
        assert element_action(std_h3_rep, unit_vector(3, 1)) == std_h3_rep.matrices[1]

    def test_zero(self, std_h3_rep):
        assert element_action(std_h3_rep, zero_vector(3)).is_zero()

    def test_sum(self, std_h3_rep):
        x = (Fraction(1), Fraction(1), Fraction(0))
        assert element_action(std_h3_rep, x) == single_entry(3, 0, 1) + single_entry(3, 1, 2)
