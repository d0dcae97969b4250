from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from adoforge.catalog import abelian, example
from adoforge.errors import AlgebraMismatch, DimensionMismatch, NotCentral
from adoforge.graded import graded_faithful_rep
from adoforge.liealg import LieAlgebra, LieHom, center, quotient
from adoforge.linalg import (
    F1,
    RationalMatrix,
    Subspace,
    block_diag,
    dense_vector,
    kernel_basis,
    mul_rowmaps,
    nilpotency_index,
    solve_multi,
)
from adoforge.reps import (
    Representation,
    adjoint,
    cyclic_submodule,
    direct_sum,
    element_action,
    is_faithful,
    is_homomorphism,
    is_nilpotent_rep,
    kernel_submodule,
    rep_kernel,
    restrict_along,
    tensor_product,
)
from adoforge.reps import _PACK_COLUMNS, _pack_rows, _packing_width, _scaled_brackets

from conftest import (
    FractionSpanBasis,
    corpus_algebras,
    nonzero_fractions,
    reference_add,
    reference_carve,
    reference_kronecker,
    reference_rep_kernel,
    reference_restricted_action,
    single_entry,
    sparse_fractions,
    sparse_vectors,
)


# e, f and e+h of sl2: three nilpotent matrices whose span is not
SL2_LIKE = [
    RationalMatrix.from_rows([[0, 1], [0, 0]]),
    RationalMatrix.from_rows([[0, 0], [1, 0]]),
    RationalMatrix.from_rows([[1, 1], [-1, -1]]),
]


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
        x = dense_vector({0: F1}, 3)
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
        again = restrict_along(std_h3_rep, LieHom(h3, h3, RationalMatrix.identity(3)))
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

        embedding = graded_embedding(h3)
        assert embedding.target.brackets == current_algebra(h3, 3).brackets
        phi = euler_derivation(embedding.target)
        big = cocycle_extension_rep(phi)
        restricted = restrict_along(big, embedding)
        assert rep_kernel(restricted).dim == 0


class TestRepKernel:
    def test_zero_rep_full(self, h3):
        assert rep_kernel(zero_rep(h3, 2)) == Subspace.full(3)

    def test_standard_h3_faithful(self, std_h3_rep):
        assert rep_kernel(std_h3_rep).dim == 0

    def test_adjoint_kernel(self, h3):
        assert rep_kernel(adjoint(h3)) == Subspace.from_vectors(3, [dense_vector({2: F1}, 3)])


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


class TestIntegerNumerators:
    def test_scaled_h3_rep(self, h3):
        # [E12/2, E23/3] = E13/6: d_0 d_1 rho(e2) = 6 E13/6 = N_0 N_1 - N_1 N_0
        halves_thirds = [single_entry(3, 0, 1, Fraction(1, 2)), single_entry(3, 1, 2, Fraction(1, 3))]
        good = Representation(h3, 3, [*halves_thirds, single_entry(3, 0, 2, Fraction(1, 6))])
        assert is_homomorphism(good) and fraction_is_homomorphism(good)
        bad = Representation(h3, 3, [*halves_thirds, single_entry(3, 0, 2, Fraction(1, 5))])
        assert not is_homomorphism(bad) and not fraction_is_homomorphism(bad)
        assert is_nilpotent_rep(good) and is_nilpotent_rep(bad)


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
        sl2ish = abelian(3)  # container only; homomorphism not required here
        rep = Representation(sl2ish, 2, SL2_LIKE)
        assert not is_nilpotent_rep(rep)


def carve(rep, z, row):
    """The kernel row ``row`` of Ker rho(z) and the representation of L/<z>
    that ``kernel_submodule`` takes on its cyclic submodule, with the
    quotient built the way the engine builds it."""
    n = rep.algebra.dim
    quo, _ = quotient(rep.algebra, Subspace.from_vectors(n, [z]))
    v = kernel_basis(element_action(rep, z)).basis_vectors()[row]
    return v, kernel_submodule(rep, z, quo, v)


class TestKernelSubmodule:
    def test_central_zero_action_takes_the_cyclic_submodule(self, h3):
        ad = adjoint(h3)  # rho(e2) = 0, so Ker rho(e2) is all of Q^3
        v, induced = carve(ad, dense_vector({2: F1}, 3), 0)
        assert v == dense_vector({0: F1}, 3)  # [e1, e0] = -e2, so the closure is <e0, e2>
        assert induced.space_dim == 2
        assert induced.algebra.dim == 2
        assert is_homomorphism(induced)

    def test_standard_rep_center_carve(self, std_h3_rep):
        # Ker E13 = span{e0, e1}; E12 sends its second row e1 to e0
        v, induced = carve(std_h3_rep, dense_vector({2: F1}, 3), 1)
        assert v == dense_vector({1: F1}, 3)
        assert induced.space_dim == 2
        assert induced.algebra.dim == 2 and not induced.algebra.brackets
        assert is_homomorphism(induced)
        assert is_nilpotent_rep(induced)
        _, killed = carve(std_h3_rep, dense_vector({2: F1}, 3), 0)
        assert killed.space_dim == 1

    def test_non_central_rejected(self, std_h3_rep):
        z = dense_vector({0: F1}, 3)  # its line is no ideal, so abelian(2) stands in for L/<z>
        v = kernel_basis(element_action(std_h3_rep, z)).basis_vectors()[0]
        with pytest.raises(NotCentral, match="not central in the algebra"):
            kernel_submodule(std_h3_rep, z, abelian(2), v)

    def test_cyclic_submodule_without_the_lead_action(self, std_h3_rep):
        # the cyclic submodule of v with the action of e2, the pivot that
        # the quotient drops, left out; the same as the two-step carve
        z = dense_vector({2: F1}, 3)
        v, induced = carve(std_h3_rep, z, 1)
        assert induced.matrices == cyclic_submodule(std_h3_rep, v).matrices[:2]
        assert induced.matrices == reference_carve(std_h3_rep, z, induced.algebra, v).matrices

    def test_induced_onto_the_given_quotient(self, h5):
        rep = graded_faithful_rep(h5)
        z = center(h5).basis_vectors()[0]
        quo, _ = quotient(h5, Subspace.from_vectors(5, [z]))
        for v in kernel_basis(element_action(rep, z)).basis_vectors():
            induced = kernel_submodule(rep, z, quo, v)
            assert induced.algebra is quo
            assert is_homomorphism(induced)

    def test_quotient_of_wrong_dim_rejected(self, std_h3_rep):
        z, v = dense_vector({2: F1}, 3), dense_vector({1: F1}, 3)
        for quo in (abelian(1), abelian(3), std_h3_rep.algebra):
            with pytest.raises(DimensionMismatch, match="dimension dim L - 1"):
                kernel_submodule(std_h3_rep, z, quo, v)
        # a zero z spans no line, so it has no quotient of dim L - 1
        with pytest.raises(DimensionMismatch, match="nonzero z"):
            kernel_submodule(std_h3_rep, dense_vector({}, 3), abelian(2), v)

    def test_witness_outside_the_kernel_rejected(self, std_h3_rep):
        # e2 is not in Ker E13: its cyclic submodule is all of Q^3, on
        # which rho(e2) = E13 does not vanish
        with pytest.raises(NotCentral, match="does not vanish"):
            kernel_submodule(std_h3_rep, dense_vector({2: F1}, 3), abelian(2), dense_vector({2: F1}, 3))


class TestCyclicSubmodule:
    def test_zero_vector(self, std_h3_rep):
        sub = cyclic_submodule(std_h3_rep, dense_vector({}, 3))
        assert sub.space_dim == 0

    def test_killed_vector(self, std_h3_rep):
        sub = cyclic_submodule(std_h3_rep, dense_vector({0: F1}, 3))
        assert sub.space_dim == 1
        assert all(m.is_zero() for m in sub.matrices)

    def test_generating_vector(self, std_h3_rep):
        sub = cyclic_submodule(std_h3_rep, dense_vector({2: F1}, 3))
        assert sub.space_dim == 3


class TestElementAction:
    def test_basis_vector(self, std_h3_rep):
        assert element_action(std_h3_rep, dense_vector({1: F1}, 3)) == std_h3_rep.matrices[1]

    def test_zero(self, std_h3_rep):
        assert element_action(std_h3_rep, dense_vector({}, 3)).is_zero()

    def test_sum(self, std_h3_rep):
        x = (Fraction(1), Fraction(1), Fraction(0))
        assert element_action(std_h3_rep, x) == single_entry(3, 0, 1) + single_entry(3, 1, 2)


# --- the integer-numerator checks against the Fraction ones they replaced --

def fraction_is_homomorphism(rep):
    """is_homomorphism as it ran before the integer path: every product on
    Fractions.  Kept as the reference for the integer-numerator version."""
    n = rep.algebra.dim
    for i in range(n):
        mi = rep.matrices[i]
        for j in range(i + 1, n):
            mj = rep.matrices[j]
            coeffs = rep.algebra.bracket_basis(i, j)
            lhs = element_action(rep, tuple(coeffs.get(k, Fraction(0)) for k in range(n)))
            if lhs != mi @ mj - mj @ mi:
                return False
    return True


def fraction_is_nilpotent_rep(rep):
    """is_nilpotent_rep as it ran before the integer path: the span chain on
    the Fraction matrices themselves."""
    sd = rep.space_dim
    if sd == 0:
        return True
    generators = [m for m in rep.matrices if not m.is_zero()]
    if not generators:
        return True

    def flat(m):
        return {r * sd + c: v for r, c, v in m.entries()}

    basis = FractionSpanBasis()
    current = [m for m in generators if basis.add(flat(m))]
    for _ in range(sd):
        if not current:
            return True
        nxt_basis = FractionSpanBasis()
        nxt = []
        for w in current:
            for g in generators:
                p = w @ g
                if not p.is_zero() and nxt_basis.add(flat(p)):
                    nxt.append(p)
        current = nxt
    return not current


def _corpus_reps():
    reps = []
    names = ("abelian1", "abelian2", "abelian3", "heisenberg3", "heisenberg5", "filiform4", "free2_2", "free2_3")
    for name in names:
        algebra = example(name)
        reps.append(adjoint(algebra))
        graded = graded_faithful_rep(algebra)
        if graded.space_dim <= 12:
            reps.append(graded)
    return reps


CORPUS_REPS = _corpus_reps()
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def conjugated_corpus_reps(draw, pool=CORPUS_REPS):
    """A representation from ``pool`` (by default the corpus) conjugated by
    a random rational unit upper triangular P: x acts as P rho(x) P^-1."""
    rep = draw(st.sampled_from(pool))
    sd = rep.space_dim
    entries = [(r, r, 1) for r in range(sd)]
    for r in range(sd):
        for c in range(r + 1, sd):
            entries.append((r, c, draw(st.one_of(st.just(0), small_fractions))))
    p = RationalMatrix.from_entries(sd, sd, entries)
    p_inv = solve_multi(p, RationalMatrix.identity(sd))
    return Representation(rep.algebra, sd, [p @ m @ p_inv for m in rep.matrices])


def assert_checks_agree(rep):
    assert is_homomorphism(rep) == fraction_is_homomorphism(rep)
    assert is_nilpotent_rep(rep) == fraction_is_nilpotent_rep(rep)


@settings(deadline=None, max_examples=40)
@given(conjugated_corpus_reps())
def test_integer_checks_agree_on_conjugated_corpus(rep):
    assert_checks_agree(rep)
    assert is_homomorphism(rep) and is_nilpotent_rep(rep)


@settings(deadline=None, max_examples=20)
@given(conjugated_corpus_reps())
def test_verify_output_transposes_no_matrix(rep):
    """The boundary check transposes the shared integer forms, never a
    Fraction matrix, and builds each integer form once."""
    from adoforge.engine import verify_output

    calls = []
    real = RationalMatrix.transpose

    def counting(self):
        calls.append(self)
        return real(self)

    RationalMatrix.transpose = counting
    try:
        report = verify_output(rep.algebra, rep)
    finally:
        RationalMatrix.transpose = real
    assert calls == []
    assert report.homomorphism and report.nilpotent
    forms = [m.integer_form() for m in rep.matrices]
    assert verify_output(rep.algebra, rep) == report
    assert all(m.integer_form() is f for m, f in zip(rep.matrices, forms))


@settings(deadline=None, max_examples=40)
@given(conjugated_corpus_reps(), st.data())
def test_integer_checks_agree_after_one_entry_moves(rep, data):
    i = data.draw(st.integers(min_value=0, max_value=rep.algebra.dim - 1))
    r = data.draw(st.integers(min_value=0, max_value=rep.space_dim - 1))
    c = data.draw(st.integers(min_value=0, max_value=rep.space_dim - 1))
    q = data.draw(st.integers(min_value=1, max_value=7))
    nudge = RationalMatrix.from_entries(rep.space_dim, rep.space_dim, [(r, c, Fraction(1, q))])
    matrices = list(rep.matrices)
    matrices[i] = matrices[i] + nudge
    assert_checks_agree(Representation(rep.algebra, rep.space_dim, matrices))


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["abelian1", "abelian2", "heisenberg3"]),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.data(),
)
def test_integer_checks_agree_on_random_matrices(name, sd, strictly_upper, data):
    # strictly upper triangular matrices are always nilpotent; unconstrained
    # ones usually are not
    algebra = example(name)
    cells = [(r, c) for r in range(sd) for c in range(sd) if c > r or not strictly_upper]
    matrices = [
        RationalMatrix.from_entries(
            sd, sd, [(r, c, data.draw(st.one_of(st.just(0), small_fractions))) for r, c in cells]
        )
        for _ in range(algebra.dim)
    ]
    assert_checks_agree(Representation(algebra, sd, matrices))


# --- the packed commutator identity against the Fraction reference ---


def assert_homomorphism_agrees(rep):
    verdict = is_homomorphism(rep)
    assert verdict == fraction_is_homomorphism(rep)
    return verdict


def packing_width(rep):
    """The width w that ``is_homomorphism`` packs rep's rows at."""
    forms = [m.integer_form() for m in rep.matrices]
    return _packing_width(forms, _scaled_brackets(rep.algebra, forms))


def integer_differences(rep):
    """D (N_i N_j - N_j N_i) - sum_l s_l N_l for each pair, by the sparse
    product, unpacked: the rows whose packed blocks the check tests."""
    forms = [m.integer_form() for m in rep.matrices]
    out = []
    for i, j, scale, terms in _scaled_brackets(rep.algebra, forms):
        diff = {}
        for sign, a, b in ((scale, i, j), (-scale, j, i)):
            for r, row in mul_rowmaps(forms[a][0], forms[b][0]).items():
                for c, v in row.items():
                    diff[(r, c)] = diff.get((r, c), 0) + sign * v
        for l, s in terms:
            for r, row in forms[l][0].items():
                for c, v in row.items():
                    diff[(r, c)] = diff.get((r, c), 0) - s * v
        out.append({rc: v for rc, v in diff.items() if v})
    return out


def with_entry_added(rep, i, r, c, v):
    matrices = list(rep.matrices)
    matrices[i] = matrices[i] + RationalMatrix.from_entries(rep.space_dim, rep.space_dim, [(r, c, v)])
    return Representation(rep.algebra, rep.space_dim, matrices)


def bracket_target(algebra):
    """(k, i, j) with e_k a term of [e_i, e_j] and k not i or j: an entry
    added to rho(e_k) changes the left side of that pair's identity alone."""
    return next((k, i, j) for (i, j), coeffs in algebra.brackets.items() for k in coeffs if k not in (i, j))


def stretched(rep, t):
    """x acts as T rho(x) T^-1 for T = diag(t^-r): entry (r, c) is scaled by
    t^(c - r), so the numerators of an upper triangular rho(x), or the
    denominators of a lower one, grow like powers of t."""
    return Representation(
        rep.algebra,
        rep.space_dim,
        [
            RationalMatrix.from_entries(rep.space_dim, rep.space_dim, [(r, c, v * Fraction(t) ** (c - r)) for r, c, v in m.entries()])
            for m in rep.matrices
        ],
    )


@pytest.mark.parametrize("bits", [65, 601])
@pytest.mark.parametrize("rep", CORPUS_REPS, ids=repr)
def test_homomorphism_agrees_on_wide_integers(rep, bits):
    t = (1 << bits) + 3
    wides = [stretched(rep, t), stretched(rep, Fraction(1, t))]
    for wide in wides:
        assert assert_homomorphism_agrees(wide)
        if rep.algebra.brackets:
            k, _, _ = bracket_target(rep.algebra)
            assert not assert_homomorphism_agrees(with_entry_added(wide, k, 0, rep.space_dim - 1, t))
    if any(r != c for m in rep.matrices for r, c, _ in m.entries()):
        numerators = [abs(v.numerator) for wide in wides for m in wide.matrices for _, _, v in m.entries()]
        assert max(numerators).bit_length() > bits


@settings(deadline=None, max_examples=40)
@given(conjugated_corpus_reps(), st.data())
def test_homomorphism_agrees_after_a_wide_entry_moves(rep, data):
    i = data.draw(st.integers(min_value=0, max_value=rep.algebra.dim - 1))
    r = data.draw(st.integers(min_value=0, max_value=rep.space_dim - 1))
    c = data.draw(st.integers(min_value=0, max_value=rep.space_dim - 1))
    num = data.draw(st.integers(min_value=-(1 << 700), max_value=1 << 700).filter(bool))
    den = data.draw(st.integers(min_value=1, max_value=1 << 40))
    assert_homomorphism_agrees(with_entry_added(rep, i, r, c, Fraction(num, den)))


@settings(deadline=None, max_examples=8)
@given(st.sampled_from(["heisenberg3", "heisenberg5", "filiform4", "free2_3"]), st.data())
def test_homomorphism_agrees_across_blocks(name, data):
    """A direct sum of conjugated corpus representations on more than two
    blocks of columns, with one entry added in a later block."""
    pool = [rep for rep in CORPUS_REPS if rep.algebra.structurally_equal(example(name))]
    total = data.draw(conjugated_corpus_reps(pool))
    while total.space_dim <= 2 * _PACK_COLUMNS:
        total = direct_sum(total, data.draw(conjugated_corpus_reps(pool)))
    assert assert_homomorphism_agrees(total)
    k, _, _ = bracket_target(total.algebra)
    sd = total.space_dim
    for r, c in [(sd - 1, sd - 1), (_PACK_COLUMNS + 1, sd - 2), (sd - 3, _PACK_COLUMNS), (0, sd - 1)]:
        assert c // _PACK_COLUMNS >= 1
        assert not assert_homomorphism_agrees(with_entry_added(total, k, r, c, Fraction(1, 3)))


CENSUS7_ADJOINT = adjoint(example("census7"))


@settings(deadline=None, max_examples=30)
@given(conjugated_corpus_reps([CENSUS7_ADJOINT]), st.data())
def test_homomorphism_agrees_on_half_brackets(rep, data):
    # census7 brackets with coefficients +-1/2, and conjugation gives every
    # rho(e_i) its own denominator
    assert assert_homomorphism_agrees(rep)
    i = data.draw(st.integers(min_value=0, max_value=rep.algebra.dim - 1))
    r = data.draw(st.integers(min_value=0, max_value=rep.space_dim - 1))
    c = data.draw(st.integers(min_value=0, max_value=rep.space_dim - 1))
    assert_homomorphism_agrees(with_entry_added(rep, i, r, c, Fraction(1, 2)))


@settings(deadline=None, max_examples=30)
@given(corpus_algebras(), st.data())
def test_homomorphism_agrees_on_rebased_algebras(algebra, data):
    # rebased structure constants are dense rationals
    rep = adjoint(algebra)
    assert assert_homomorphism_agrees(rep)
    i = data.draw(st.integers(min_value=0, max_value=algebra.dim - 1))
    r = data.draw(st.integers(min_value=0, max_value=algebra.dim - 1))
    c = data.draw(st.integers(min_value=0, max_value=algebra.dim - 1))
    q = data.draw(nonzero_fractions)
    assert_homomorphism_agrees(with_entry_added(rep, i, r, c, q))


@pytest.mark.parametrize("space_dim", [0, 1, 3])
@pytest.mark.parametrize("name", ["abelian1", "abelian2", "abelian3", "heisenberg3"])
def test_homomorphism_on_zero_matrices(name, space_dim):
    assert assert_homomorphism_agrees(zero_rep(example(name), space_dim))


@pytest.mark.parametrize("space_dim", [0, 2])
def test_homomorphism_on_zero_dimensional_algebra(space_dim):
    assert assert_homomorphism_agrees(Representation(LieAlgebra(0, {}), space_dim, []))


def test_homomorphism_on_one_matrix():
    # n = 1 has no pair, so any square matrix is a homomorphism
    rep = Representation(abelian(1), 2, [RationalMatrix.from_rows([[1, 2], [3, 4]])])
    assert assert_homomorphism_agrees(rep)


def test_homomorphism_on_abelian_algebra_without_brackets():
    # no bracket terms: the identity is that the matrices commute
    algebra = abelian(3)
    j = jordan_block(4)
    commuting = Representation(algebra, 4, [j, j @ j, j.scale(Fraction(-5, 7))])
    assert assert_homomorphism_agrees(commuting)
    swapped = Representation(algebra, 4, [j, j.transpose(), j @ j])
    assert not assert_homomorphism_agrees(swapped)


def ones_row_and_column(sd):
    """abelian2 acting by the all-ones first row and first column: an entry
    of their commutator sums sd products, which only the row sums bound."""
    row = RationalMatrix.from_entries(sd, sd, [(0, c, 1) for c in range(sd)])
    return Representation(abelian(2), sd, [row, row.transpose()])


@pytest.mark.parametrize(
    "rep",
    [with_entry_added(CENSUS7_ADJOINT, bracket_target(CENSUS7_ADJOINT.algebra)[0], 0, 6, Fraction(2, 3)), ones_row_and_column(100)],
    ids=["census7", "ones"],
)
def test_packing_width_is_pinned(rep):
    """Every entry of the difference lies below 2^(w - 1), and w is the
    narrowest width at which every row with entries below 2^w packs to a
    nonzero int: the row (-2^(w-1), 1) packs to 0 at w - 1 but not at w."""
    w = packing_width(rep)
    diffs = integer_differences(rep)
    assert any(diffs) and not is_homomorphism(rep)
    assert all(abs(v) < 1 << (w - 1) for diff in diffs for v in diff.values())
    row = {0: {0: -(1 << (w - 1)), 1: 1}}
    assert _pack_rows(row, w - 1) == {0: {0: 0}}
    assert _pack_rows(row, w) == {0: {0: 1 << (w - 1)}}


def test_wide_sparse_rows_stay_sparse():
    """abelian2 on Q^(10^9) with entries in columns 1 and 10^9 - 1: the check
    packs each row into no more blocks than it has entries."""
    sd = 10**9
    algebra = abelian(2)
    e01 = RationalMatrix.from_entries(sd, sd, [(0, 1, 1)])
    for far, verdict in (((1, sd - 1, 1), False), ((0, sd - 1, 3), True)):
        rep = Representation(algebra, sd, [e01, RationalMatrix.from_entries(sd, sd, [far])])
        assert assert_homomorphism_agrees(rep) is verdict
        w = packing_width(rep)
        for m in rep.matrices:
            rows = m.integer_form()[0]
            for r, blocks in _pack_rows(rows, w).items():
                assert len(blocks) <= len(rows[r])
                assert all(b.bit_length() <= _PACK_COLUMNS * w for b in blocks.values())


def test_jordan_block_agrees():
    j = jordan_block(2000)
    rep = Representation(abelian(2), 2000, [j, j @ j])
    assert assert_homomorphism_agrees(rep)
    assert not assert_homomorphism_agrees(with_entry_added(rep, 1, 1000, 1000, 1))


# --- the boundary check in V: faithfulness by rank, nilpotency by images ---


def padded(rep, extra):
    """rep on V + Q^extra, acting as zero on the added summand."""
    zero = RationalMatrix.zero(extra, extra)
    return Representation(rep.algebra, rep.space_dim + extra, [block_diag([m, zero]) for m in rep.matrices])


def assert_faithful_agrees(rep):
    assert is_faithful(rep) == (rep_kernel(rep).dim == 0)


@settings(deadline=None, max_examples=40)
@given(conjugated_corpus_reps())
def test_is_faithful_agrees_on_conjugated_corpus(rep):
    assert_faithful_agrees(rep)


@settings(deadline=None, max_examples=60)
@given(conjugated_corpus_reps(), st.data())
def test_is_faithful_agrees_after_one_entry_moves(rep, data):
    # one stored entry of one matrix moves to another position (or, on a
    # zero matrix, a new entry appears), which can make a kernel or close one
    i = data.draw(st.integers(min_value=0, max_value=rep.algebra.dim - 1))
    entries = list(rep.matrices[i].entries())
    r = data.draw(st.integers(min_value=0, max_value=rep.space_dim - 1))
    c = data.draw(st.integers(min_value=0, max_value=rep.space_dim - 1))
    if entries:
        r0, c0, v = data.draw(st.sampled_from(entries))
        entries.remove((r0, c0, v))
    else:
        v = Fraction(1, data.draw(st.integers(min_value=1, max_value=7)))
    matrices = list(rep.matrices)
    matrices[i] = RationalMatrix.from_entries(rep.space_dim, rep.space_dim, entries + [(r, c, v)])
    assert_faithful_agrees(Representation(rep.algebra, rep.space_dim, matrices))


@settings(deadline=None, max_examples=40)
@given(conjugated_corpus_reps(), st.data())
def test_is_faithful_agrees_when_one_matrix_copies_another(rep, data):
    n = rep.algebra.dim
    if n < 2:
        return
    i, j = data.draw(st.permutations(range(n)))[:2]
    q = data.draw(small_fractions.filter(bool))
    matrices = list(rep.matrices)
    matrices[j] = matrices[i].scale(q)
    moved = Representation(rep.algebra, rep.space_dim, matrices)
    assert not is_faithful(moved)
    assert_faithful_agrees(moved)


@pytest.mark.parametrize("rep", CORPUS_REPS, ids=repr)
def test_rep_kernel_matches_the_fraction_stack_on_the_corpus(rep):
    assert rep_kernel(rep) == reference_rep_kernel(rep)


@settings(deadline=None, max_examples=60)
@given(conjugated_corpus_reps(), st.data())
def test_rep_kernel_matches_the_fraction_stack_across_denominators(rep, data):
    # each matrix over its own denominator, and one a combination of two
    # others, so the integer forms are scaled to the lcm and the kernel can
    # be nonzero
    matrices = [m.scale(Fraction(1, data.draw(st.integers(1, 7)))) for m in rep.matrices]
    if len(matrices) >= 3:
        i, j, k = data.draw(st.permutations(range(len(matrices))))[:3]
        p, q = data.draw(small_fractions), data.draw(small_fractions)
        matrices[k] = matrices[i].scale(p) + matrices[j].scale(q)
    scaled = Representation(rep.algebra, rep.space_dim, matrices)
    assert rep_kernel(scaled) == reference_rep_kernel(scaled)
    assert_faithful_agrees(scaled)


@pytest.mark.parametrize("name", ["abelian1", "abelian3", "heisenberg3", "heisenberg5", "filiform4", "free2_3"])
@pytest.mark.parametrize("extra", [0, 1, 3])
def test_is_faithful_on_padded_adjoint(name, extra):
    # the adjoint's kernel is the center, nonzero for a nilpotent algebra
    algebra = example(name)
    rep = padded(adjoint(algebra), extra)
    assert rep_kernel(rep) == center(algebra)
    assert not is_faithful(rep)
    assert_faithful_agrees(rep)


@pytest.mark.parametrize("space_dim", [0, 1, 3])
@pytest.mark.parametrize("name", ["abelian1", "abelian2", "heisenberg3"])
def test_is_faithful_on_zero_matrices(name, space_dim):
    algebra = example(name)
    rep = zero_rep(algebra, space_dim)
    assert not is_faithful(rep)
    assert_faithful_agrees(rep)
    # one zero matrix among independent ones is still a kernel vector
    if space_dim >= 2 and algebra.dim >= 2:
        matrices = [single_entry(space_dim, 0, 1)] + list(rep.matrices[1:])
        assert not is_faithful(Representation(algebra, space_dim, matrices))


@pytest.mark.parametrize("space_dim", [0, 2])
def test_is_faithful_on_zero_dimensional_algebra(space_dim):
    rep = Representation(LieAlgebra(0, {}), space_dim, [])
    assert is_faithful(rep)
    assert_faithful_agrees(rep)
    assert is_nilpotent_rep(rep) == fraction_is_nilpotent_rep(rep)


def jordan_block(k, scale=1):
    return RationalMatrix.from_entries(k, k, [(r, r + 1, scale) for r in range(k - 1)])


def chain_dims(rep):
    """dim U_1, dim U_2, ... of the image chain, in dense Fractions, until
    it reaches 0 or keeps its dimension."""
    vectors = [m.column(c) for m in rep.matrices for c in range(rep.space_dim)]
    dims = []
    while True:
        sub = Subspace.from_vectors(rep.space_dim, vectors)
        if dims and sub.dim == dims[-1] or sub.dim == 0:
            return dims + [sub.dim]
        dims.append(sub.dim)
        vectors = [m.apply(u) for u in sub.basis_vectors() for m in rep.matrices]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [1, Fraction(-2, 3)])
def test_image_chain_shrinks_then_stalls(k, scale):
    # Jordan block (+) the sl2-like triple: the chain sheds the Jordan part
    # one dimension per step, then keeps the sl2 part for ever
    algebra = abelian(3)
    blocks = [jordan_block(k, scale), RationalMatrix.zero(k, k), jordan_block(k, 1)]
    rep = Representation(algebra, k + 2, [block_diag([b, m]) for b, m in zip(blocks, SL2_LIKE)])
    dims = chain_dims(rep)
    assert dims[-1] == dims[-2] == 2 and len(dims) == k + 1
    assert not is_nilpotent_rep(rep) and not fraction_is_nilpotent_rep(rep)
    # without the sl2 part the same Jordan blocks are nilpotent
    nil = Representation(algebra, k, blocks)
    assert is_nilpotent_rep(nil) and fraction_is_nilpotent_rep(nil)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_image_chain_stalls_on_one_invertible_block(k):
    # J_k (+) [[1/2]]: U_j = Im J_k^j (+) Q, so the chain stalls at dim 1
    algebra = abelian(1)
    m = block_diag([jordan_block(k), RationalMatrix.from_rows([[Fraction(1, 2)]])])
    rep = Representation(algebra, k + 1, [m])
    assert chain_dims(rep)[-2:] == [1, 1]
    assert not is_nilpotent_rep(rep) and not fraction_is_nilpotent_rep(rep)


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=2), st.data())
def test_nilpotency_agrees_on_nilpotent_block_plus_any_block(k, j, data):
    # a strictly upper triangular block shrinks the chain; the other block,
    # unconstrained, usually makes it stall
    algebra = example("heisenberg3")
    upper = [(r, c) for r in range(k) for c in range(r + 1, k)]
    cells = [(r, c) for r in range(j) for c in range(j)]
    draw = lambda: data.draw(st.one_of(st.just(0), small_fractions))
    matrices = [
        block_diag([
            RationalMatrix.from_entries(k, k, [(r, c, draw()) for r, c in upper]),
            RationalMatrix.from_entries(j, j, [(r, c, draw()) for r, c in cells]),
        ])
        for _ in range(algebra.dim)
    ]
    rep = Representation(algebra, k + j, matrices)
    assert is_nilpotent_rep(rep) == fraction_is_nilpotent_rep(rep)


# --- the sparse orbit closure against the dense one it replaced -----------

def dense_cyclic_submodule(rep, v):
    """cyclic_submodule as it ran before the sparse closure: a dense
    ``apply`` per image and a dict comprehension over it.  Kept as the
    reference."""
    span = FractionSpanBasis()
    frontier = []
    vd = {i: x for i, x in enumerate(v) if x}
    if vd and span.add(vd):
        frontier.append(tuple(v))
    vectors = list(frontier)
    while frontier:
        new_frontier = []
        for w in frontier:
            for m in rep.matrices:
                img = m.apply(w)
                d = {i: x for i, x in enumerate(img) if x}
                if d and span.add(d):
                    new_frontier.append(img)
                    vectors.append(img)
        frontier = new_frontier
    sub = Subspace.from_vectors(rep.space_dim, vectors)
    return Representation(rep.algebra, sub.dim, [reference_restricted_action(sub, m) for m in rep.matrices])


def assert_cyclic_matches_dense(rep, v):
    got = cyclic_submodule(rep, v)
    want = dense_cyclic_submodule(rep, v)
    assert got.space_dim == want.space_dim
    assert got.matrices == want.matrices


CYCLIC_REPS = CORPUS_REPS + [tensor_product(rep, rep) for rep in CORPUS_REPS if rep.space_dim <= 6]


@pytest.mark.parametrize("rep", CYCLIC_REPS, ids=lambda rep: f"{rep.algebra.dim}-on-{rep.space_dim}")
def test_cyclic_submodule_matches_dense_closure(rep):
    sd = rep.space_dim
    ones = tuple(Fraction(1) for _ in range(sd))
    alternating = tuple(Fraction((-1) ** i, i + 1) for i in range(sd))
    for v in [dense_vector({i: F1}, sd) for i in range(sd)] + [ones, alternating, dense_vector({}, sd)]:
        assert_cyclic_matches_dense(rep, v)


@settings(deadline=None, max_examples=40)
@given(conjugated_corpus_reps(), st.data())
def test_cyclic_submodule_matches_dense_on_conjugated_corpus(rep, data):
    v = data.draw(st.lists(st.one_of(st.just(Fraction(0)), small_fractions), min_size=rep.space_dim, max_size=rep.space_dim))
    assert_cyclic_matches_dense(rep, v)


# --- the one-pass element_action against the old repeated add ---


def reference_element_action(rep, x):
    """acc = acc + x_i rho(e_i), one new matrix per nonzero coefficient."""
    acc = RationalMatrix.zero(rep.space_dim, rep.space_dim)
    for xi, m in zip(x, rep.matrices):
        if xi:
            acc = acc + m.scale(xi)
    return acc


@st.composite
def representations(draw):
    """The adjoint, its tensor square, the derivation representation
    (graded inputs) or arbitrary sparse matrices, on a corpus algebra."""
    algebra = draw(corpus_algebras())
    kind = draw(st.sampled_from(["adjoint", "square", "derivation", "arbitrary"]))
    if kind == "adjoint":
        return adjoint(algebra)
    if kind == "square":
        return tensor_product(adjoint(algebra), adjoint(algebra))
    if kind == "derivation" and algebra.grading is not None:
        return graded_faithful_rep(algebra)
    sd = draw(st.integers(1, 5))
    cells = st.lists(sparse_fractions, min_size=sd, max_size=sd)
    mats = [RationalMatrix.from_rows(draw(st.lists(cells, min_size=sd, max_size=sd))) for _ in range(algebra.dim)]
    return Representation(algebra, sd, mats)


@settings(deadline=None, max_examples=150)
@given(representations(), st.data())
def test_element_action_matches_repeated_add(rep, data):
    x = data.draw(sparse_vectors(rep.algebra.dim))
    out = element_action(rep, x)
    assert out == reference_element_action(rep, x)
    assert all(out._data.values())  # no empty rows, so equality of maps stays equality of matrices


def test_element_action_cancels_to_zero_storage(h3):
    m = RationalMatrix.from_entries(2, 2, [(0, 1, Fraction(1, 2)), (1, 0, 3)])
    rep = Representation(h3, 2, [m, m.scale(2), single_entry(2, 0, 0)])
    out = element_action(rep, (Fraction(2), Fraction(-1), Fraction(0)))
    assert out._data == {} and out == RationalMatrix.zero(2, 2)
    partly = element_action(rep, (Fraction(2), Fraction(-1), Fraction(5)))
    assert partly._data == {0: {0: Fraction(5)}}


# --- copied unit entries and the sparse centrality check against the old ones


def reference_tensor_product(rho, tau):
    """rho(x) (x) I + I (x) tau(x) through the multiply-every-pair Kronecker
    product and the zero-adding sum."""
    iv, iw = RationalMatrix.identity(rho.space_dim), RationalMatrix.identity(tau.space_dim)
    mats = [reference_add(reference_kronecker(a, iw), reference_kronecker(iv, b)) for a, b in zip(rho.matrices, tau.matrices)]
    return Representation(rho.algebra, rho.space_dim * tau.space_dim, mats)


@settings(deadline=None, max_examples=60)
@given(representations(), representations(), st.data())
def test_tensor_product_matches_multiply_every_pair(rho, tau, data):
    if not rho.algebra.structurally_equal(tau.algebra) or rho.space_dim * tau.space_dim > 100:
        tau = data.draw(st.sampled_from([adjoint(rho.algebra), zero_rep(rho.algebra, 2)]))
    if rho.space_dim * tau.space_dim > 100:
        return
    out = tensor_product(rho, tau)
    assert out.matrices == reference_tensor_product(rho, tau).matrices


@pytest.mark.parametrize(
    "rep", [rep for rep in CORPUS_REPS if rep.space_dim <= 10], ids=lambda rep: f"{rep.algebra.dim}-on-{rep.space_dim}"
)
def test_tensor_square_of_corpus_rep_matches_reference(rep):
    assert tensor_product(rep, rep).matrices == reference_tensor_product(rep, rep).matrices


def reference_is_central(algebra, z):
    n = algebra.dim
    return all(not any(algebra.bracket(z, dense_vector({i: F1}, n))) for i in range(n))


@settings(deadline=None, max_examples=80)
@given(corpus_algebras(), st.data())
def test_kernel_submodule_centrality_matches_dense_check(algebra, data):
    n = algebra.dim
    cent = center(algebra).basis_vectors()
    z = data.draw(st.one_of(sparse_vectors(n), st.sampled_from(cent or [dense_vector({}, n)])))
    rep = adjoint(algebra)
    v = data.draw(sparse_vectors(n))
    if not any(z):  # no line, so no quotient of dim L - 1
        with pytest.raises(DimensionMismatch, match="nonzero z"):
            kernel_submodule(rep, z, abelian(n - 1), v)
    elif reference_is_central(algebra, z):
        quo, _ = quotient(algebra, Subspace.from_vectors(n, [z]))
        induced = kernel_submodule(rep, z, quo, v)  # ad(z) = 0: nothing to reject
        assert induced.matrices == reference_carve(rep, z, quo, v).matrices
    else:
        # the line of a non-central z is no ideal: abelian(n - 1) stands in for L/<z>
        with pytest.raises(NotCentral, match="not central in the algebra"):
            kernel_submodule(rep, z, abelian(n - 1), v)


@st.composite
def kernel_submodule_inputs(draw):
    """A homomorphism (the adjoint, its tensor square or the derivation
    representation) of a corpus algebra, a nonzero central z and a vector
    of Ker rho(z): a combination of its echelon rows, or one of them."""
    algebra = draw(corpus_algebras())
    kind = draw(st.sampled_from(["adjoint", "square", "derivation"]))
    if kind == "square" and algebra.dim <= 5:
        rep = tensor_product(adjoint(algebra), adjoint(algebra))
    elif kind == "derivation" and algebra.grading is not None:
        rep = graded_faithful_rep(algebra)
    else:
        rep = adjoint(algebra)
    cent = center(algebra).basis_vectors()
    coeffs = draw(st.lists(sparse_fractions, min_size=len(cent), max_size=len(cent)))
    coeffs[draw(st.integers(0, len(cent) - 1))] = draw(nonzero_fractions)  # the basis is independent
    z = [sum((c * u[i] for c, u in zip(coeffs, cent)), Fraction(0)) for i in range(algebra.dim)]
    rows = kernel_basis(element_action(rep, z)).basis_vectors()
    if draw(st.booleans()):
        return rep, tuple(z), draw(st.sampled_from(rows))
    coeffs = draw(st.lists(sparse_fractions, min_size=len(rows), max_size=len(rows)))
    v = tuple(sum((c * r[i] for c, r in zip(coeffs, rows)), Fraction(0)) for i in range(rep.space_dim))
    return rep, tuple(z), v


@settings(deadline=None, max_examples=60)
@given(kernel_submodule_inputs())
def test_kernel_submodule_matches_the_two_step_carve(inputs):
    rep, z, v = inputs
    n = rep.algebra.dim
    quo, _ = quotient(rep.algebra, Subspace.from_vectors(n, [z]))
    induced = kernel_submodule(rep, z, quo, v)
    reference = reference_carve(rep, z, quo, v)
    assert induced.algebra is quo and induced.space_dim == reference.space_dim
    assert induced.matrices == reference.matrices


@pytest.mark.parametrize("name", ["heisenberg3", "heisenberg5", "filiform4", "free2_3"])
def test_kernel_submodule_rejects_each_non_central_basis_vector(name):
    algebra = example(name)
    cent = center(algebra)
    rep = graded_faithful_rep(algebra)
    for i in range(algebra.dim):
        z = dense_vector({i: F1}, algebra.dim)
        if cent.contains(Subspace.from_vectors(algebra.dim, [z])):
            continue
        assert not reference_is_central(algebra, z)
        with pytest.raises(NotCentral, match="not central in the algebra"):
            kernel_submodule(rep, z, abelian(algebra.dim - 1), kernel_basis(element_action(rep, z)).basis_vectors()[0])


@settings(deadline=None, max_examples=60)
@given(conjugated_corpus_reps(), st.data())
def test_element_action_copies_rows_against_a_coefficient_of_one(rep, data):
    """Coefficients drawn mostly from 0 and 1: the sum equals the scaled
    matrices added one by one, and the input rows are copied, never
    modified."""
    n = rep.algebra.dim
    x = data.draw(st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(1), Fraction(-1), Fraction(1, 2)]), min_size=n, max_size=n))
    before = [{r: dict(row) for r, row in m._data.items()} for m in rep.matrices]
    expected = RationalMatrix.zero(rep.space_dim, rep.space_dim)
    for xi, m in zip(x, rep.matrices):
        expected = expected + m.scale(xi)
    assert element_action(rep, x) == expected
    assert [m._data for m in rep.matrices] == before
