import contextlib
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import adoforge
import adoforge.engine as engine
import adoforge.freenilp as freenilp
import adoforge.graded as graded
import adoforge.liealg as liealg
import adoforge.linalg as linalg
import adoforge.reps as reps
from adoforge.catalog import abelian, census7, example, filiform4, heisenberg3, heisenberg5
from adoforge.errors import (
    AdoForgeError,
    AlgebraMismatch,
    BudgetExceeded,
    DegenerateFlag,
    NotLinearlyIndependent,
    NotNilpotent,
    NotSurjective,
    ReplayFailed,
    SeparatorFailed,
    TensorBudgetExceeded,
    ValidationFailed,
    VerificationFailed,
)
from adoforge.engine import (
    Certificate,
    EngineConfig,
    VerificationReport,
    construct_faithful_nilpotent,
    distinguish_by_kernels,
    glue_local,
    replay_certificate,
    verify_output,
)
from adoforge.freenilp import present
from adoforge.graded import graded_faithful_rep
from adoforge.jsonio import certificate_from_json, certificate_to_json, dumps_canonical, representation_to_json
from adoforge.liealg import Grading, LieAlgebra, validate
from adoforge.linalg import F1, RationalMatrix, Subspace, dense_vector, kernel_basis
from adoforge.reps import Representation, adjoint, element_action, rep_kernel
from test_golden import rebased
from test_reps import CORPUS_REPS, conjugated_corpus_reps

from conftest import CORPUS, reference_carve, reference_is_hom, ungraded_quotients


class TestDistinguishByKernels:
    def test_standard_h3_center_vs_e0(self, h3, std_h3_rep):
        rep = distinguish_by_kernels(std_h3_rep, dense_vector({2: F1}, 3), dense_vector({0: F1}, 3))
        kz = kernel_basis(element_action(rep, dense_vector({2: F1}, 3)))
        mx = element_action(rep, dense_vector({0: F1}, 3))
        assert rep.space_dim == 3  # power 1 suffices
        assert any(any(mx.apply(v)) for v in kz.basis_vectors())

    def test_standard_h3_center_vs_e1(self, h3, std_h3_rep):
        # Ker E13 = Ker E23 = span{b1, b2}, so the first power cannot work;
        # the tensor square distinguishes (witness b3 (x) b1 - b1 (x) b3).
        z, x = dense_vector({2: F1}, 3), dense_vector({1: F1}, 3)
        kz = kernel_basis(element_action(std_h3_rep, z))
        kx = kernel_basis(element_action(std_h3_rep, x))
        assert kz == kx  # power 1 really is hopeless
        rep = distinguish_by_kernels(std_h3_rep, z, x)
        assert rep.space_dim == 9
        mx = element_action(rep, x)
        assert any(
            any(mx.apply(v))
            for v in kernel_basis(element_action(rep, z)).basis_vectors()
        )

    def test_dependent_elements_rejected(self, std_h3_rep):
        z = dense_vector({2: F1}, 3)
        with pytest.raises(NotLinearlyIndependent):
            distinguish_by_kernels(std_h3_rep, z, tuple(2 * v for v in z))

    def test_budget_failure_reported(self, h3, std_h3_rep):
        # kernels of dependent directions cannot be distinguished, but the
        # search treats any independent pair; force exhaustion on a pair
        # whose witness needs the cocycle part that this tiny representation
        # lacks.
        rep = Representation(
            h3,
            3,
            [RationalMatrix.zero(3, 3), std_h3_rep.matrices[1], std_h3_rep.matrices[2]],
        )
        # Ker rho(z) for z = e2 is inside Ker rho(e0) = everything here,
        # and tensor powers keep that inclusion, so the search must stop at
        # MAX_TENSOR_POWER (3^6 = 729 is inside the default budget).
        assert engine.MAX_TENSOR_POWER == 6
        with pytest.raises(TensorBudgetExceeded, match="within tensor power 6"):
            distinguish_by_kernels(rep, dense_vector({2: F1}, 3), dense_vector({0: F1}, 3))
        ladder = []
        with pytest.raises(TensorBudgetExceeded):
            engine._distinguish([rep], dense_vector({2: F1}, 3), dense_vector({0: F1}, 3), EngineConfig(), ladder)
        # one part, so one block per power, holding the whole power
        assert [len(level) for level in ladder] == [1] * 6
        assert [sum(b.rep.space_dim for b in level) for level in ladder] == [3, 9, 27, 81, 243, 729]


class TestTensorLadder:
    """Counts calls through the ``engine`` and ``reps`` module bindings."""

    def test_each_power_built_once_per_flag_step(self, h5, monkeypatch):
        blocks = []  # per flag step, the (block below, part) of each block of power >= 2
        represented = []  # per flag step, the (factor, part) of each tensor_product call
        landed = []  # per flag step, the (power, block index) of every kernel search
        landed_blocks = []  # per flag step, the blocks of power >= 2 searches land on, first landing first
        kernel_calls = []  # one entry per reps.kernel_basis call
        in_submodule = []  # kernel_basis calls made inside each kernel_submodule
        names = ("quotient", "tensor_product", "kernel_submodule", "_distinguish", "_Block")
        real = {name: getattr(engine, name) for name in names}
        real_kernel_basis = reps.kernel_basis

        quotients = []  # each flag step's quotient

        def quotient(*args):  # the engine takes one quotient per flag step
            for per_step in (blocks, represented, landed, landed_blocks):
                per_step.append([])
            quotients.append(real["quotient"](*args))
            return quotients[-1]

        class _Block(real["_Block"]):
            __slots__ = ()

            def __init__(self, z_action, coords, below, part):
                if below is not None:
                    blocks[-1].append((id(below), id(part)))
                super().__init__(z_action, coords, below, part)

        def tensor_product(rho, tau):
            represented[-1].append((id(rho), id(tau)))
            return real["tensor_product"](rho, tau)

        def _distinguish(parts, z, x, config, ladder):
            found = real["_distinguish"](parts, z, x, config, ladder)
            landed[-1].append(found[:2])
            block = ladder[found[0] - 1][found[1]]
            if found[0] >= 2 and block not in landed_blocks[-1]:
                landed_blocks[-1].append(block)
            return found

        def kernel_basis(*args):
            kernel_calls.append(args)
            return real_kernel_basis(*args)

        def kernel_submodule(rep, z, quo, v):
            assert quo is quotients[-1][0]  # induced onto this step's quotient
            before = len(kernel_calls)
            out = real["kernel_submodule"](rep, z, quo, v)
            in_submodule.append(len(kernel_calls) - before)
            return out

        for name, fn in (("quotient", quotient), ("tensor_product", tensor_product), ("_Block", _Block),
                         ("kernel_submodule", kernel_submodule), ("_distinguish", _distinguish)):
            monkeypatch.setattr(engine, name, fn)
        monkeypatch.setattr(reps, "kernel_basis", kernel_basis)
        _, cert = construct_faithful_nilpotent(h5, EngineConfig(method="induction"))

        top_power = []
        for step in cert.steps:
            if step["kind"] == "flag_step":
                top_power.append(1)
            elif step["kind"] == "kernel_search":
                top_power[-1] = max(top_power[-1], step["tensor_power"])
        # the first step's one part is the seed; every later step's parts
        # are the previous step's glue summands
        parts = [1] + [len(g["summand_dims"]) for g in cert.steps_of_kind("glue")][:-1]
        assert parts == [1, 3, 3, 3, 2]
        # power p of k parts has k^p blocks, and each block of a power >= 2
        # gets its rho(z) once per flag step, from the block below and a part
        expected = [sum(k**p for p in range(2, top + 1)) for k, top in zip(parts, top_power)]
        assert [len(b) for b in blocks] == expected == [0, 9, 9, 0, 4]
        assert all(len(set(b)) == len(b) for b in blocks)
        # eight searches, two in each of flag steps 0-2: in step 0 both land
        # on the one block of power 1, in steps 1 and 2 on two blocks of the
        # square; each takes its submodule with no kernel computation
        assert len(cert.steps_of_kind("kernel_search")) == 8
        assert [len(set(s)) for s in landed] == [1, 2, 2, 1, 1]
        assert in_submodule == [0] * 8
        # a full representation is built only for the blocks a search lands
        # on, once each, as (the part below, which is its own rep) (x) part
        assert represented == [[(id(b.below.rep), id(b.part)) for b in step] for step in landed_blocks]
        assert [len(r) for r in represented] == [0, 2, 2, 0, 1]

    def test_one_quotient_per_flag_step(self, h5, monkeypatch):
        # counted through every adoforge module that binds liealg.quotient,
        # so a second quotient of one step, in the engine or in reps, shows
        real = liealg.quotient
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        for name, module in list(sys.modules.items()):
            if name == "adoforge" or name.startswith("adoforge."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counted)
        _, cert = construct_faithful_nilpotent(h5, EngineConfig(method="induction"))
        assert len(calls) == len(cert.steps_of_kind("flag_step")) == 5

    def test_budget_checked_before_building(self, std_h3_rep, monkeypatch):
        built = []
        monkeypatch.setattr(engine, "tensor_product", lambda *a: built.append(a))
        monkeypatch.setattr(engine, "_kron_sum", lambda *a: built.append(a))
        # e1 needs the tensor square, of dimension 9
        with pytest.raises(TensorBudgetExceeded, match="tensor power 2 needs dimension 9 > budget 8"):
            distinguish_by_kernels(
                std_h3_rep, dense_vector({2: F1}, 3), dense_vector({1: F1}, 3), EngineConfig(dimension_budget=8)
            )
        assert built == []


# --- the block ladder against the assembled direct sum -------------------


def fraction_action(action):
    """An integer form (N, d, dim) of the ladder back as the RationalMatrix
    N / d."""
    numerators, d, dim = action
    return RationalMatrix(dim, dim, {r: {c: Fraction(v, d) for c, v in row.items()} for r, row in numerators.items()})


def assert_primitive_null_rows(rows, free):
    """Integer rows, each leading at its free column with a positive entry,
    with entries of gcd 1."""
    for row, f in zip(rows, free):
        assert all(type(v) is int for v in row.values())
        assert min(row) == f and row[f] > 0 and gcd(*row.values()) == 1


def block_kernel(block, z):
    """The block's null rows as a Subspace, its echelon rows as they are;
    that must be ``kernel_basis`` of rho(z) on the block, and the block's
    rho(z) must be ``element_action`` on its representation."""
    assert fraction_action(block.z_action) == element_action(block.rep, z)
    assert_primitive_null_rows(block.null, block.free)
    kernel = Subspace(len(block.coords), block.null, list(block.free))
    assert kernel == kernel_basis(element_action(block.rep, z))
    return kernel


def separator_output(block, z, quo, witness):
    """The engine's separator output for a search that landed on block,
    checked against the two-step carve and against the output on the
    canonical kernel vector the null row is a multiple of."""
    v = linalg.dense_vector(block.null[witness], block.rep.space_dim)
    out = reps.kernel_submodule(block.rep, z, quo, v)
    assert out.matrices == reference_carve(block.rep, z, quo, v).matrices
    canonical = block_kernel(block, z).basis_vectors()[witness]
    assert reps.kernel_submodule(block.rep, z, quo, canonical).matrices == out.matrices
    return out


def assert_blocks_match_sum(parts, z, x, config=EngineConfig()):
    """``_distinguish`` on the parts and on their assembled direct sum finds
    the same power, witness and carrier, and the same compressed
    representation; returns the power, or None when both run out."""
    algebra = parts[0].algebra
    quo, _ = liealg.quotient(algebra, Subspace.from_vectors(algebra.dim, [z]))
    whole = reps.direct_sum(parts[0], parts[1])
    for part in parts[2:]:
        whole = reps.direct_sum(whole, part)
    by_parts, by_sum = [], []
    outcomes = []
    for pieces, ladder in ((parts, by_parts), ([whole], by_sum)):
        try:
            outcomes.append(engine._distinguish(pieces, z, x, config, ladder))
        except TensorBudgetExceeded as exc:
            outcomes.append(str(exc))
    if isinstance(outcomes[0], str) or isinstance(outcomes[1], str):
        assert outcomes[0] == outcomes[1]
        assert [len(level) for level in by_parts] == [len(parts) ** p for p in range(1, len(by_sum) + 1)]
        return None
    (power, index, witness), (power_sum, index_sum, witness_sum) = outcomes
    assert power == power_sum and index_sum == 0
    level, (block_sum,) = by_parts[power - 1], by_sum[power - 1]
    assert len(level) == len(parts) ** power
    assert block_sum.rep.space_dim == whole.space_dim**power == sum(b.rep.space_dim for b in level)
    assert sorted(c for b in level for c in b.coords) == block_sum.coords == list(range(whole.space_dim**power))
    # the canonical kernel of the whole power is the union of the blocks'
    # canonical kernels, each embedded in order
    kernels = [block_kernel(b, z) for b in level]
    kernel_sum = block_kernel(block_sum, z)
    embedded = sorted(({b.coords[k]: v for k, v in row.items()} for b, kernel in zip(level, kernels) for row in kernel.basis_rows()), key=min)
    assert embedded == list(kernel_sum.basis_rows())
    assert [min(row) for row in embedded] == kernel_sum._pivots
    # the same witness at the same position, and the same carrier dim
    block = level[index]
    pivot = block.coords[kernels[index]._pivots[witness]]
    assert kernel_sum._pivots[witness_sum] == pivot
    assert sum(kernel.dim for kernel in kernels) == kernel_sum.dim
    compressed = separator_output(block, z, quo, witness)
    compressed_sum = separator_output(block_sum, z, quo, witness_sum)
    assert compressed.space_dim == compressed_sum.space_dim
    assert compressed.matrices == compressed_sum.matrices
    return power


class TestBlockLadder:
    def test_h3_pair_needs_the_square(self, h3, std_h3_rep):
        # Ker rho(e2) <= Ker rho(e1) on the standard rep, so a sum of its
        # copies finds its witness in a block of the tensor square
        z, x = dense_vector({2: F1}, 3), dense_vector({1: F1}, 3)
        assert assert_blocks_match_sum([std_h3_rep, std_h3_rep], z, x) == 2
        assert assert_blocks_match_sum([std_h3_rep, std_h3_rep, std_h3_rep], z, x) == 2
        # ad(e2) = 0 and ad(e1) != 0, and on the dual x -> -rho(x)^T the
        # kernels are not nested either: the witness is in a later block of
        # power 1, after the first block's kernel
        ad = adjoint(h3)
        dual = Representation(h3, 3, [-m.transpose() for m in std_h3_rep.matrices])
        assert reps.is_homomorphism(dual)
        assert assert_blocks_match_sum([std_h3_rep, ad], z, x) == 1
        assert assert_blocks_match_sum([std_h3_rep, std_h3_rep, dual], z, x) == 1

    def test_budget_checked_on_the_whole_power(self, std_h3_rep, monkeypatch):
        # two parts of dim 3: the square has dim 36, not the 9 of a block
        built = []
        monkeypatch.setattr(engine, "tensor_product", lambda *a: built.append(a))
        monkeypatch.setattr(engine, "_kron_sum", lambda *a: built.append(a))
        with pytest.raises(TensorBudgetExceeded, match="tensor power 2 needs dimension 36 > budget 35"):
            engine._distinguish(
                [std_h3_rep, std_h3_rep], dense_vector({2: F1}, 3), dense_vector({1: F1}, 3), EngineConfig(dimension_budget=35), []
            )
        assert built == []


ALGEBRA_POOLS = {}
for _rep in CORPUS_REPS:
    ALGEBRA_POOLS.setdefault(id(_rep.algebra), []).append(_rep)


@st.composite
def direct_sum_searches(draw):
    """2-3 representations of one corpus algebra, some conjugated, a
    nonzero central z and an x independent of it."""
    pool = draw(st.sampled_from(list(ALGEBRA_POOLS.values())))
    algebra = pool[0].algebra
    parts = [
        draw(st.one_of(st.sampled_from(pool), conjugated_corpus_reps(pool)))
        for _ in range(draw(st.integers(2, 3)))
    ]
    centre = liealg.center(algebra).basis_vectors()
    z = draw(st.sampled_from(centre))
    x = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)]), min_size=algebra.dim, max_size=algebra.dim))
    x = tuple(Fraction(v) for v in x)
    assume(linalg.rank(RationalMatrix.from_columns(algebra.dim, [z, x])) == 2)
    return parts, z, x


@settings(deadline=None, max_examples=60)
@given(direct_sum_searches())
def test_blocks_match_the_assembled_sum(search):
    parts, z, x = search
    # the budget keeps the whole-power side small; both sides must then
    # stop at the same power with the same message
    assert_blocks_match_sum(parts, z, x, EngineConfig(dimension_budget=400))


@st.composite
def ladder_searches(draw):
    """1-3 corpus adjoint or graded representations of one algebra, some
    conjugated, on at most 9 dimensions in all (729 at the cube), with a
    nonzero central z and an x independent of it."""
    count = draw(st.integers(1, 3))
    pool = [rep for rep in draw(st.sampled_from(list(ALGEBRA_POOLS.values()))) if rep.space_dim <= 9 // count]
    assume(pool)
    algebra = pool[0].algebra
    parts = [draw(st.one_of(st.sampled_from(pool), conjugated_corpus_reps(pool))) for _ in range(count)]
    z = draw(st.sampled_from(liealg.center(algebra).basis_vectors()))
    x = tuple(Fraction(v) for v in draw(st.lists(st.sampled_from([0, 0, 1, -1, Fraction(1, 2)]), min_size=algebra.dim, max_size=algebra.dim)))
    assume(linalg.rank(RationalMatrix.from_columns(algebra.dim, [z, x])) == 2)
    return parts, z, x


@settings(deadline=None, max_examples=60)
@given(ladder_searches())
def test_lazy_ladder_matches_the_eager_one(search):
    # each block's rho(z), rho(x)^T and full representation, built from its
    # factors on integer forms, equal element_action and the tensor_product
    # chain of an eager ladder at powers 1-3, and so does its kernel
    parts, z, x = search
    ladder = []
    eager = [list(parts)]
    on_parts = [(*element_action(part, x).integer_transpose(), part.space_dim) for part in parts]
    actions = on_parts
    for power in range(1, 4):
        ladder.append(engine._next_level(parts, z, ladder, EngineConfig()))
        if power > 1:
            eager.append([reps.tensor_product(rep, part) for rep in eager[-1] for part in parts])
            actions = [engine._kron_sum(a, b) for a in actions for b in on_parts]
        assert len(ladder[-1]) == len(eager[-1]) == len(actions) == len(parts) ** power
        for block, rep, action in zip(ladder[-1], eager[-1], actions):
            assert fraction_action(block.z_action) == element_action(rep, z)
            assert block_kernel(block, z) == kernel_basis(element_action(rep, z))
            assert fraction_action(action) == element_action(rep, x).transpose()
            assert block.rep.matrices == rep.matrices
    # and the search lands where the eager one does
    try:
        found = engine._distinguish(parts, z, x, EngineConfig(), [])
    except TensorBudgetExceeded:
        found = None
    reference = None
    for power, (level, built) in enumerate(zip(eager, ladder), start=1):
        candidates = []
        for index, (rep, block) in enumerate(zip(level, built)):
            kernel = kernel_basis(element_action(rep, z))
            image = element_action(rep, x) @ RationalMatrix.from_columns(kernel.ambient_dim, kernel.basis_vectors())
            witness = min((c for _, c, _ in image.entries()), default=None)
            if witness is not None:
                candidates.append((block.coords[kernel._pivots[witness]], index, witness))
        if candidates:
            reference = (power, *min(candidates)[1:])
            break
    if reference is not None:
        assert found == reference
    elif found is not None:
        assert found[0] > 3


class TestGlueLocal:
    def test_single_step(self):
        a1 = abelian(1)
        two_dim = graded_faithful_rep(a1)
        rep = glue_local(a1, lambda x: two_dim)
        assert rep.space_dim == two_dim.space_dim
        assert rep_kernel(rep).dim == 0

    def test_h3_adjoint_plus_standard(self, h3, std_h3_rep):
        ad = adjoint(h3)

        def separator(x):
            return ad if not element_action(ad, x).is_zero() else std_h3_rep

        rep = glue_local(h3, separator)
        assert rep_kernel(rep).dim == 0
        assert rep.space_dim <= ad.space_dim + std_h3_rep.space_dim

    def test_summands_returned_in_order(self, h3, std_h3_rep):
        ad = adjoint(h3)

        def separator(x):
            return ad if not element_action(ad, x).is_zero() else std_h3_rep

        summands, trace = engine._glue_traced(h3, separator)
        assert summands == [ad, std_h3_rep]
        assert trace["summand_dims"] == [s.space_dim for s in summands]
        rep = glue_local(h3, separator)
        assert rep.matrices == reps.direct_sum(*summands).matrices == reps.direct_sum(ad, std_h3_rep).matrices

    def test_zero_dim_algebra_needs_no_separator(self):
        calls = []
        summands, trace = engine._glue_traced(abelian(0), lambda x: calls.append(x))
        rep = glue_local(abelian(0), lambda x: calls.append(x))
        assert (rep.space_dim, rep.matrices, summands) == (0, (), [])
        assert trace == {"algebra_dim": 0, "summand_dims": [], "kernel_dims": []}
        assert calls == []

    def test_zero_separator_fails(self, h3):
        zero = Representation(h3, 2, [RationalMatrix.zero(2, 2)] * 3)
        with pytest.raises(SeparatorFailed):
            glue_local(h3, lambda x: zero)


def corpus_separator(pool, calls):
    """A separator that answers each x with the first representation of the
    pool that does not kill it; the pool holds a faithful one.  Each x is
    appended to ``calls``, and the call after dim L fails: the kernel drops
    at every summand, so a glue needs at most dim L of them."""

    def separator(x):
        calls.append(x)
        assert len(calls) <= len(x), "more glue summands than dim L"
        return next(rep for rep in pool if not element_action(rep, x).is_zero())

    return separator


@st.composite
def characters(draw, algebra):
    """x -> f(x) E_01 on Q^2 for a drawn functional f that vanishes on
    [L, L]: a representation, since its matrices commute, whose kernel is
    the hyperplane Ker f (all of L when f = 0)."""
    derived = liealg.derived_subalgebra(algebra).basis_vectors()
    annihilator = kernel_basis(RationalMatrix.from_columns(algebra.dim, derived).transpose()).basis_vectors()
    coeffs = draw(st.lists(st.sampled_from([0, 1, -1, 2]), min_size=len(annihilator), max_size=len(annihilator)))
    f = [sum(c * v[i] for c, v in zip(coeffs, annihilator)) for i in range(algebra.dim)]
    return Representation(algebra, 2, [RationalMatrix.from_entries(2, 2, [(0, 1, fi)] if fi else []) for fi in f])


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(list(ALGEBRA_POOLS.values())), st.data())
def test_glue_kernel_dims_match_the_running_direct_sum(pool, data):
    # the separator's pool mixes corpus representations of one algebra, some
    # conjugated, with characters, whose kernels are hyperplanes that need
    # not nest; a faithful one comes last
    algebra = pool[0].algebra
    drawn = st.one_of(st.sampled_from(pool), conjugated_corpus_reps(pool), characters(algebra))
    faithful = next(rep for rep in pool if rep_kernel(rep).dim == 0)
    calls = []
    separator = corpus_separator(data.draw(st.lists(drawn, max_size=4)) + [faithful], calls)
    summands, trace = engine._glue_traced(algebra, separator)
    # the old definition: the kernel of the direct sum built so far, whose
    # first canonical vector is the next one handed to the separator
    running = []
    kernel = Subspace.full(algebra.dim)
    for x, part, dim in zip(calls, summands, trace["kernel_dims"], strict=True):
        assert x == kernel.basis_vectors()[0]
        running.append(part)
        kernel = rep_kernel(reps.direct_sum(*running))
        assert kernel.dim == dim
    assert kernel.dim == 0 and trace["summand_dims"] == [part.space_dim for part in summands]


class TestDirectSum:
    def test_n_ary_equals_nested_binary_sums(self, h3, std_h3_rep):
        ad = adjoint(h3)
        dual = Representation(h3, 3, [-m.transpose() for m in std_h3_rep.matrices])
        one = reps.direct_sum(ad)
        assert (one.space_dim, one.matrices) == (ad.space_dim, ad.matrices)
        two = reps.direct_sum(ad, std_h3_rep)
        assert (two.space_dim, two.matrices) == (6, reps.direct_sum(one, std_h3_rep).matrices)
        three = reps.direct_sum(ad, std_h3_rep, dual)
        nested = reps.direct_sum(reps.direct_sum(ad, std_h3_rep), dual)
        assert (three.space_dim, three.matrices) == (nested.space_dim, nested.matrices)
        assert three.matrices == reps.direct_sum(ad, reps.direct_sum(std_h3_rep, dual)).matrices
        assert three.algebra is h3

    def test_any_later_part_of_another_algebra_is_refused(self, h3, std_h3_rep):
        other = adjoint(abelian(3))
        for parts in ([std_h3_rep, other], [std_h3_rep, std_h3_rep, other], [std_h3_rep, other, std_h3_rep]):
            with pytest.raises(AlgebraMismatch):
                reps.direct_sum(*parts)


class TestConstruct:
    def test_dim_zero(self):
        empty = LieAlgebra(0, {})
        rep, cert = construct_faithful_nilpotent(empty)
        assert rep.space_dim == 0
        assert [s["kind"] for s in cert.steps] == ["verified"]

    def test_h3_auto_uses_grading(self, h3):
        rep, cert = construct_faithful_nilpotent(h3)
        assert cert.steps[0]["kind"] == "graded_pipeline"
        assert verify_output(h3, rep).ok

    @pytest.mark.parametrize("method", ["auto", "induction"])
    def test_unrespected_grading_fails_validation(self, method, monkeypatch):
        # [e0, e1] = e2 needs deg e2 = 2; auto picks the graded route from
        # the grading alone, so validate must stop it before it is built
        built = []
        monkeypatch.setattr(engine, "graded_faithful_rep", built.append)
        wrong = LieAlgebra(3, {(0, 1): {2: 1}}, grading=Grading((1, 1, 1)))
        with pytest.raises(ValidationFailed):
            construct_faithful_nilpotent(wrong, EngineConfig(method=method))
        assert built == []

    def test_h3_induction_trivial_kernel(self, h3):
        rep, cert = construct_faithful_nilpotent(h3, EngineConfig(method="induction"))
        assert cert.steps_of_kind("presented")[0]["kernel_dim"] == 0
        assert not cert.steps_of_kind("flag_step")
        assert verify_output(h3, rep).ok

    def test_f4_induction_one_step(self, f4):
        rep, cert = construct_faithful_nilpotent(f4, EngineConfig(method="induction"))
        assert len(cert.steps_of_kind("flag_step")) == 1
        assert len(cert.steps_of_kind("kernel_search")) == 1
        assert verify_output(f4, rep).ok

    def test_h5_induction_full_flag(self, h5):
        rep, cert = construct_faithful_nilpotent(h5, EngineConfig(method="induction"))
        assert len(cert.steps_of_kind("flag_step")) == 5  # dim I = 10 - 5
        assert verify_output(h5, rep).ok
        # every kernel submodule is compressed to the witness's cyclic submodule
        for step in cert.steps_of_kind("kernel_submodule"):
            assert isinstance(step["compressed_dim"], int)
            assert 0 < step["compressed_dim"] <= step["carrier_dim"]

    @pytest.mark.parametrize("name", ["filiform4", "heisenberg5", "cn7a"])
    def test_a_closure_that_is_not_invariant_never_returns(self, name, monkeypatch):
        # the action on an orbit closure is read off its pivots, unchecked;
        # with the first echelon row of every closure dropped, the span is
        # no longer invariant, and a later check (the kernel submodule's,
        # the glue's or the final one) must refuse the construction.  Only
        # the closures in reps read a SpanBasis's reduced(), so no other
        # elimination loses a row.
        class Dropped(reps.SpanBasis):
            __slots__ = ()

            def reduced(self):
                rows, pivots = super().reduced()
                return rows[1:], pivots[1:]

        monkeypatch.setattr(reps, "SpanBasis", Dropped)
        with pytest.raises(AdoForgeError):
            construct_faithful_nilpotent(example(name), EngineConfig(method="induction"))

    def test_config_has_two_keys(self):
        assert [f.name for f in dataclasses.fields(EngineConfig)] == ["method", "dimension_budget"]
        assert EngineConfig().as_dict() == {"method": "auto", "dimension_budget": 20000}
        assert EngineConfig(method="induction").method == "induction"

    @pytest.mark.parametrize("method", ["graded", "fastest", "Auto"])
    def test_only_auto_and_induction_methods(self, method):
        with pytest.raises(ValueError, match=f"unknown method {method!r}"):
            EngineConfig(method=method)

    def test_not_nilpotent_rejected(self, solvable):
        with pytest.raises(NotNilpotent):
            construct_faithful_nilpotent(solvable)

    def test_invalid_algebra_rejected(self):
        # the Jacobi identity fails on the triple (e0, e1, e2)
        broken = LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}})
        with pytest.raises(ValidationFailed):
            construct_faithful_nilpotent(broken)

    def test_free2_4_auto(self):
        rep, cert = construct_faithful_nilpotent(example("free2_4"))
        assert rep.space_dim == 9
        assert cert.steps[-1] == {"kind": "verified", "homomorphism": True, "faithful": True, "nilpotent": True}

    def test_induction_seed_keeps_current_algebra_fields(self, f4):
        _, cert = construct_faithful_nilpotent(f4, EngineConfig(method="induction"))
        # F = free2_3: a 15-dim current algebra, 97 cocycles
        assert cert.steps_of_kind("graded_pipeline") == [
            {"kind": "graded_pipeline", "current_dim": 15, "cocycle_dim": 97, "rep_dim": 112}
        ]

    def test_graded_and_induction_agree_on_properties(self, f4):
        fast, fast_cert = construct_faithful_nilpotent(f4, EngineConfig(method="auto"))
        slow, _ = construct_faithful_nilpotent(f4, EngineConfig(method="induction"))
        assert fast_cert.steps_of_kind("graded_pipeline")[0]["derivation"] == [1, 1, 2, 3]
        assert verify_output(f4, fast).ok and verify_output(f4, slow).ok


def count_through_bindings(monkeypatch, fn, record):
    """Wrap fn in every ``adoforge`` module namespace that binds it; each
    call appends its first argument to ``record``."""

    def counted(*args):
        record.append(args[0])
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "adoforge" or name.startswith("adoforge."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


class TestOneSeriesWalk:
    """A graded construct walks no lower central series: a valid positive
    grading already makes L nilpotent.  An induction construct walks L's
    once, in ``present``, and F's not at all: F's central flag is read off
    its Hall grading (``freenilp.free_central_flag``)."""

    def test_engine_binds_no_series_walk(self):
        assert not hasattr(engine, "nilpotency_class")
        assert not hasattr(engine, "lower_central_series")
        assert not hasattr(engine, "central_flag")

    @pytest.mark.parametrize("name", CORPUS)
    def test_graded_construct_walks_no_series(self, name, monkeypatch):
        walked = []
        count_through_bindings(monkeypatch, liealg.lower_central_series, walked)
        count_through_bindings(monkeypatch, liealg.nilpotency_class, walked)
        _, cert = construct_faithful_nilpotent(example(name))
        assert cert.steps[0]["kind"] == "graded_pipeline"
        assert walked == []

    @pytest.mark.parametrize("name", ["heisenberg3", "filiform4", "census7"])
    def test_induction_construct_walks_the_input_series_once(self, name, monkeypatch):
        series, classes = [], []
        count_through_bindings(monkeypatch, liealg.lower_central_series, series)
        count_through_bindings(monkeypatch, liealg.nilpotency_class, classes)
        algebra = example(name)
        construct_faithful_nilpotent(algebra, EngineConfig(method="induction"))
        assert classes == [algebra]
        assert series == [algebra]

    @pytest.mark.parametrize("method", ["auto", "induction"])
    @pytest.mark.parametrize(
        "algebra",
        [
            LieAlgebra(2, {(0, 1): {1: 1}}),
            # heisenberg3 + the solvable algebra: the series stops at <e4>
            LieAlgebra(5, {(0, 1): {2: 1}, (3, 4): {4: 1}}),
        ],
    )
    def test_not_nilpotent_before_the_free_algebra(self, algebra, method, monkeypatch):
        built = []
        monkeypatch.setattr(freenilp, "free_nilpotent", lambda *args: built.append(args))
        with pytest.raises(NotNilpotent):
            construct_faithful_nilpotent(algebra, EngineConfig(method=method))
        assert built == []


def filiform_ungraded(n: int) -> LieAlgebra:
    """[e0, ei] = e(i+1) for 0 < i < n - 1, without a grading."""
    return LieAlgebra(n, {(0, i): {i + 1: 1} for i in range(1, n - 1)})


class TestFlagCentrality:
    """The engine does not re-check that each flag image is central in its
    quotient: ``_ideal_flag`` guarantees [F, J_(k+1)] <= J_k, pinned here by
    bracket enumeration on the flags the engine walks.  For heisenberg5 and
    filiform4, I lies in the center of F; filiform5's I reaches degree 3 of
    F = free2_4, where a flag in the wrong order is not central."""

    @pytest.mark.parametrize(
        "build",
        [
            heisenberg5,
            lambda: filiform_ungraded(4),
            lambda: rebased(heisenberg5()),
            lambda: filiform_ungraded(5),
        ],
        ids=["heisenberg5", "filiform4-ungraded", "heisenberg5-rebased", "filiform5-ungraded"],
    )
    def test_every_flag_image_is_central(self, build):
        pres = present(build())
        free = pres.F
        flag = engine._ideal_flag(free, pres.I)
        assert pres.I.dim > 0
        assert [j.dim for j in flag] == list(range(pres.I.dim + 1))
        assert flag[-1] == pres.I
        for lower, upper in zip(flag, flag[1:]):
            assert upper.contains(lower)
            for v in upper.basis_vectors():
                for b in range(free.dim):
                    assert lower.contains(Subspace.from_vectors(free.dim, [free.bracket(dense_vector({b: F1}, free.dim), v)]))


class TestKernelSubmoduleInputs:
    """``kernel_submodule`` does not re-prove that rho(z) commutes with every
    rho(e_i); the flag makes it so (z is central in the quotient and the
    separator's tensor powers are homomorphisms).  Pinned here on every call
    the induction route makes."""

    @pytest.mark.parametrize(
        "build", [heisenberg5, lambda: rebased(heisenberg5())], ids=["heisenberg5", "heisenberg5-rebased"]
    )
    def test_rho_z_commutes_on_every_call(self, build, monkeypatch):
        commutes = []
        real = engine.kernel_submodule

        def checked(rep, z, quo, v):
            mz = element_action(rep, z)
            commutes.append(all(mz @ m == m @ mz for m in rep.matrices))
            return real(rep, z, quo, v)

        monkeypatch.setattr(engine, "kernel_submodule", checked)
        construct_faithful_nilpotent(build(), EngineConfig(method="induction"))
        assert commutes and all(commutes)


@contextlib.contextmanager
def checked_against_the_carve():
    """Check each ``kernel_submodule`` call the engine makes: its v is a row
    of the block's canonical Ker rho(z), and its output is the two-step
    carve's.  Yields the space_dim of each checked output, in call order."""
    real = engine.kernel_submodule
    dims = []

    def checked(rep, z, quo, v):
        # a primitive integer multiple of a canonical kernel vector, positive
        # at its leading index
        sparse = {i: x for i, x in enumerate(v) if x}
        assert_primitive_null_rows([sparse], [min(sparse)])
        lead = sparse[min(sparse)]
        assert tuple(Fraction(x, lead) for x in v) in kernel_basis(element_action(rep, z)).basis_vectors()
        out = real(rep, z, quo, v)
        assert out.matrices == reference_carve(rep, z, quo, v).matrices
        dims.append(out.space_dim)
        return out

    engine.kernel_submodule = checked
    try:
        yield dims
    finally:
        engine.kernel_submodule = real


def output_bytes(algebra, config):
    """The canonical representation and certificate JSON of a construct and
    of the replay of its certificate, then that construct's output."""
    rep, cert = construct_faithful_nilpotent(algebra, config)
    runs = [
        (dumps_canonical(representation_to_json(r, "x")), dumps_canonical(certificate_to_json(c)))
        for r, c in ((rep, cert), replay_certificate(algebra, cert))
    ]
    return runs, rep, cert


class TestKernelSubmoduleMatchesTheCarve:
    @pytest.mark.parametrize(
        "build",
        [filiform4, heisenberg5, lambda: rebased(heisenberg5())],
        ids=["filiform4", "heisenberg5", "heisenberg5-rebased"],
    )
    def test_every_block_reached_by_induction(self, build):
        with checked_against_the_carve() as dims:
            _, cert = construct_faithful_nilpotent(build(), EngineConfig(method="induction"))
        assert dims and dims == [s["compressed_dim"] for s in cert.steps_of_kind("kernel_submodule")]


@settings(deadline=None, max_examples=16)
@given(ungraded_quotients())
def test_generated_quotients_verify_replay_and_match_the_carve(algebra):
    # every flag step separates its central element by a kernel search,
    # and a proper quotient has at least one flag step
    with checked_against_the_carve() as dims:
        (first, replayed), _, cert = output_bytes(algebra, EngineConfig(method="induction"))
    assert first == replayed
    assert cert.steps[-1] == {"kind": "verified", "homomorphism": True, "faithful": True, "nilpotent": True}
    assert len(dims) >= len(cert.steps_of_kind("flag_step")) >= 1


def reference_search(parts, z, x, config):
    """``_distinguish`` as it ran on Fractions: rho(z) and rho(x) on every
    block of each power as RationalMatrix sums a (x) I + I (x) b built by
    ``kronecker``, ``kernel_basis`` of rho(z) per block, and the witness the
    first column of rho(x) @ (the kernel's basis columns) holding an entry;
    among the blocks, the witness with the smallest pivot in the whole
    power."""
    z_parts = [element_action(part, z) for part in parts]
    x_parts = [element_action(part, x) for part in parts]
    offsets = [sum(part.space_dim for part in parts[:k]) for k in range(len(parts) + 1)]
    dim_v = offsets[-1]
    zs, xs = z_parts, x_parts
    coords = [list(range(offsets[k], offsets[k + 1])) for k in range(len(parts))]

    def level(below, on_parts):
        return [
            linalg.kronecker(a, RationalMatrix.identity(b.rows)) + linalg.kronecker(RationalMatrix.identity(a.rows), b)
            for a in below
            for b in on_parts
        ]

    for power in range(1, engine.MAX_TENSOR_POWER + 1):
        if power > 1:
            if dim_v**power > config.dimension_budget:
                return None
            zs, xs = level(zs, z_parts), level(xs, x_parts)
            coords = [[g * dim_v + offsets[k] + b for g in cs for b in range(parts[k].space_dim)] for cs in coords for k in range(len(parts))]
        found = None
        for index, (mz, mx, cs) in enumerate(zip(zs, xs, coords)):
            kernel = kernel_basis(mz)
            basis = RationalMatrix.from_columns(mz.cols, kernel.basis_vectors())
            witness = min((c for _, c, _ in (mx @ basis).entries()), default=None)
            if witness is not None and (found is None or cs[kernel._pivots[witness]] < found[0]):
                found = (cs[kernel._pivots[witness]], index, witness)
        if found is not None:
            return power, found[1], found[2]
    return None


def assert_searches_match_the_reference(algebra):
    """Every kernel search of a forced-induction construct lands on the
    (power, block, witness) of the Fraction search."""
    real = engine._distinguish
    searches = []

    def recorded(parts, z, x, config, ladder):
        found = real(parts, z, x, config, ladder)
        searches.append(found == reference_search(parts, z, x, config))
        return found

    engine._distinguish = recorded
    try:
        _, cert = construct_faithful_nilpotent(algebra, EngineConfig(method="induction"))
    finally:
        engine._distinguish = real
    assert searches and all(searches)
    assert len(searches) == len(cert.steps_of_kind("kernel_search"))


@settings(deadline=None, max_examples=12)
@given(ungraded_quotients())
def test_search_matches_the_fraction_reference(algebra):
    assert_searches_match_the_reference(algebra)


@pytest.mark.parametrize(
    "build", [lambda: rebased(heisenberg5()), census7], ids=["heisenberg5-rebased", "census7"]
)
def test_search_matches_the_fraction_reference_on_fixed_inputs(build):
    assert_searches_match_the_reference(build())


def exhaustive_search(parts, x, ladder):
    """``_distinguish`` on a built ladder as it ran before it tested unit
    null rows by membership and stopped at the best pivot: every null row
    of every block of each power goes through ``mul_rowmaps``.  Returns the
    (power, block index, witness) and whether a block past the witness's
    pivot was scanned, which the bounded search skips."""
    on_parts = [(*element_action(part, x).integer_transpose(), part.space_dim) for part in parts]
    actions = on_parts
    for power, level in enumerate(ladder, start=1):
        if power > 1:
            actions = [engine._kron_sum(a, b) for a in actions for b in on_parts]
        found = None
        for index, (block, (action, _, _)) in enumerate(zip(level, actions)):
            witness = next((w for w, row in enumerate(block.null) if linalg.mul_rowmaps({0: row}, action)), None)
            if witness is not None:
                pivot = block.coords[block.free[witness]]
                if found is None or pivot < found[0]:
                    found = (pivot, index, witness)
        if found is not None:
            skippable = any(block.coords[0] > found[0] for block in level)
            return (power, found[1], found[2]), skippable
    return None, False


def assert_bounded_search_matches_the_exhaustive_loop(algebra):
    """Every kernel search of a forced-induction construct lands on the
    (power, block, witness) of the exhaustive loop, run on the same ladder;
    returns how many searches could skip blocks."""
    real = engine._distinguish
    outcomes = []

    def recorded(parts, z, x, config, ladder):
        found = real(parts, z, x, config, ladder)
        outcomes.append((found,) + exhaustive_search(parts, x, ladder))
        return found

    engine._distinguish = recorded
    try:
        _, cert = construct_faithful_nilpotent(algebra, EngineConfig(method="induction"))
    finally:
        engine._distinguish = real
    assert len(outcomes) == len(cert.steps_of_kind("kernel_search")) > 0
    assert all(found == reference for found, reference, _ in outcomes)
    return sum(skippable for _, _, skippable in outcomes)


@pytest.mark.parametrize("name", ["census7", "cn7a", "cn7b"])
def test_bounded_search_matches_the_exhaustive_loop_on_the_corpus(name):
    assert assert_bounded_search_matches_the_exhaustive_loop(example(name)) > 0


@settings(deadline=None, max_examples=12)
@given(ungraded_quotients())
def test_bounded_search_matches_the_exhaustive_loop_on_draws(algebra):
    assert_bounded_search_matches_the_exhaustive_loop(algebra)


def test_bounded_search_scans_past_a_later_first_witness(monkeypatch):
    """On a hand-built ladder, the first block holding a witness is not the
    one with the smallest pivot, so the scan must go on past it and stop
    only at a block that starts past the best pivot.

    Two parts of abelian2 on Q^2 with rho(e1) = E_01.  Power 1: rho(z) is
    invertible on both blocks, so no witness.  Power 2: V^(x)2 has
    dim_v = 4, so block (0, 0) sits on {0, 1, 4, 5} and block (0, 1) on
    {2, 3, 6, 7}; block (0, 0) keeps null rows only at its local
    coordinates 2, 3 (pivots 4, 5), and its first witness has pivot 4,
    while block (0, 1) keeps every unit row and moves the one at local
    coordinate 1, pivot 3."""
    a2 = abelian(2)
    e01 = RationalMatrix.from_rows([[0, 1], [0, 0]])
    parts = [Representation(a2, 2, [RationalMatrix.zero(2, 2), e01]) for _ in range(2)]
    identity = ({0: {0: 1}, 1: {1: 1}}, 1, 2)
    ladder = [[engine._Block(identity, [0, 1], None, parts[0]), engine._Block(identity, [2, 3], None, parts[1])]]
    level = []
    for below in ladder[0]:
        for off, part in zip((0, 2), parts):
            coords = [g * 4 + off + b for g in below.coords for b in range(2)]
            z_action = ({0: {0: 1}, 1: {1: 1}}, 1, 4) if not level else ({}, 1, 4)
            level.append(engine._Block(z_action, coords, below, part))
    ladder.append(level)
    assert [b.free for b in level[:2]] == [[2, 3], [0, 1, 2, 3]]
    z, x = dense_vector({0: F1}, 2), dense_vector({1: F1}, 2)
    built = []
    real = engine._kron_sum
    monkeypatch.setattr(engine, "_kron_sum", lambda a, b: built.append(a) or real(a, b))
    found = engine._distinguish(parts, z, x, EngineConfig(), ladder)
    assert found == (2, 1, 1)
    # the scan stops at block (1, 0), which starts at 8 > 3: rho(x) is built
    # on the two blocks before it only
    assert len(built) == 2
    assert exhaustive_search(parts, x, ladder) == ((2, 1, 1), True)


def scanned_blocks(ladder, found):
    """How many rho(x) block actions a search that returned ``found`` reads
    past power 1: every block of the powers 2 to p - 1, each scanned whole,
    and at its power p the blocks that start at or before its witness
    pivot, the prefix the scan reaches."""
    power, index, witness = found
    block = ladder[power - 1][index]
    pivot = block.coords[block.free[witness]]
    if power == 1:
        return 0
    return sum(len(level) for level in ladder[1 : power - 1]) + sum(b.coords[0] <= pivot for b in ladder[power - 1])


def assert_x_actions_stop_with_the_scan(algebra, monkeypatch):
    """Every kernel search of a forced-induction construct builds rho(x)
    (``_kron_sum`` outside ``_next_level``, whose calls build rho(z)) on
    exactly the blocks its scan reaches; returns how many searches left a
    block of their landing power unbuilt."""
    real_distinguish, real_kron, real_next = engine._distinguish, engine._kron_sum, engine._next_level
    built, depth, outcomes = [], [0], []

    def kron(a, b):
        if not depth[0]:
            built.append(a)
        return real_kron(a, b)

    def next_level(*args):
        depth[0] += 1
        try:
            return real_next(*args)
        finally:
            depth[0] -= 1

    def recorded(parts, z, x, config, ladder):
        del built[:]
        found = real_distinguish(parts, z, x, config, ladder)
        whole = sum(len(level) for level in ladder[1 : found[0]])
        outcomes.append((len(built), scanned_blocks(ladder, found), whole))
        return found

    monkeypatch.setattr(engine, "_kron_sum", kron)
    monkeypatch.setattr(engine, "_next_level", next_level)
    monkeypatch.setattr(engine, "_distinguish", recorded)
    _, cert = construct_faithful_nilpotent(algebra, EngineConfig(method="induction"))
    assert len(outcomes) == len(cert.steps_of_kind("kernel_search")) > 0
    assert [count for count, _, _ in outcomes] == [expected for _, expected, _ in outcomes]
    return sum(expected < whole for _, expected, whole in outcomes)


@pytest.mark.parametrize(
    "build", [census7, lambda: example("cn7a"), lambda: rebased(heisenberg5())], ids=["census7", "cn7a", "heisenberg5-rebased"]
)
def test_x_actions_built_only_on_the_blocks_the_scan_reaches(build, monkeypatch):
    assert assert_x_actions_stop_with_the_scan(build(), monkeypatch) > 0


class TestCensus7:
    """census7 has no grading and no nonsingular derivation, so ``auto``
    takes the induction route on it."""

    def test_facts(self):
        algebra = census7()
        assert validate(algebra).ok
        assert algebra.grading is None
        assert liealg.nilpotency_class(algebra) == 5
        assert [s.dim for s in liealg.lower_central_series(algebra)] == [7, 5, 4, 2, 1, 0]
        assert liealg.center(algebra).dim == 1

    def test_construct_verifies_and_replays_byte_exact(self):
        (first, replayed), rep, cert = output_bytes(census7(), EngineConfig())
        assert first == replayed
        assert cert.steps[0]["kind"] == "presented"
        assert rep.space_dim == 34
        assert verify_output(census7(), rep).ok


class TestBudgetBeforeBuilding:
    def test_graded_budget_checked_before_building(self, h3, monkeypatch):
        calls = []
        real = engine.graded_faithful_rep
        monkeypatch.setattr(engine, "graded_faithful_rep", lambda a: calls.append(a) or real(a))
        with pytest.raises(BudgetExceeded, match="dimension 4 exceeds budget 3"):
            construct_faithful_nilpotent(h3, EngineConfig(dimension_budget=3))
        assert calls == []
        rep, _ = construct_faithful_nilpotent(h3, EngineConfig(dimension_budget=4))
        assert rep.space_dim == 4 and len(calls) == 1

    def test_induction_seed_bound_checked_before_building(self, f4, h5, monkeypatch):
        # the seed has at least dim F * class + 1 dimensions: 5 * 3 + 1 for
        # filiform4 (F = free2_3), 10 * 2 + 1 for heisenberg5 (F = free4_2)
        seeds = []
        real = engine.current_algebra_faithful_rep
        monkeypatch.setattr(engine, "current_algebra_faithful_rep", lambda f: seeds.append(real(f)) or seeds[-1])
        with pytest.raises(BudgetExceeded, match="dimension 16 exceeds budget 8"):
            construct_faithful_nilpotent(f4, EngineConfig(method="induction", dimension_budget=8))
        assert seeds == []
        with pytest.raises(BudgetExceeded, match="dimension 260 exceeds budget 50"):
            construct_faithful_nilpotent(h5, EngineConfig(method="induction", dimension_budget=50))
        assert [s.space_dim for s in seeds] == [260]


    @pytest.mark.parametrize("method", ["auto", "induction"])
    def test_induction_cap_checked_before_validate(self, method, monkeypatch):
        # F maps onto L, so dim L above the free nilpotent cap is refused
        # before the O(n^3) Jacobi loop; dim L at the cap reaches it
        def refusing(algebra):
            raise RuntimeError(f"validate called on dim {algebra.dim}")

        monkeypatch.setattr(engine, "validate", refusing)
        with pytest.raises(BudgetExceeded, match="input dimension 201 exceeds the free nilpotent budget 200"):
            construct_faithful_nilpotent(LieAlgebra(201, {}), EngineConfig(method=method))
        with pytest.raises(RuntimeError, match="validate called on dim 200"):
            construct_faithful_nilpotent(LieAlgebra(200, {}), EngineConfig(method=method))


class TestProvedOnceAtTheBoundary:
    """The maps of the induction route are ``LieHom`` values that nothing
    re-proves: ``verify_output`` catches a broken one, and the tests prove
    every one the route builds."""

    @pytest.mark.parametrize("which", [0, -1])
    @pytest.mark.parametrize("name", ["heisenberg3", "filiform4", "heisenberg5", "free2_3"])
    def test_broken_presentation_caught_at_the_boundary(self, name, which, monkeypatch):
        # pi with its first or last stored entry moved by 1/3, and I its kernel
        real = engine.present

        def present(algebra):
            pres = real(algebra)
            m = pres.pi.matrix
            r, c, _ = list(m.entries())[which]
            moved = RationalMatrix.from_entries(m.rows, m.cols, list(m.entries()) + [(r, c, Fraction(1, 3))])
            assert not reference_is_hom(pres.F, algebra, moved)
            return dataclasses.replace(pres, pi=liealg.LieHom(pres.F, algebra, moved), I=kernel_basis(moved))

        monkeypatch.setattr(engine, "present", present)
        with pytest.raises(VerificationFailed) as info:
            construct_faithful_nilpotent(example(name), EngineConfig(method="induction"))
        assert info.value.report.failing() == ["homomorphism"]

    @pytest.mark.parametrize("name", CORPUS)
    def test_every_interior_map_is_a_homomorphism(self, name, monkeypatch):
        # recorded through every module binding that builds one: pi, the
        # seed's graded embedding, each flag step's projection, the transport
        handed = []
        real = liealg.LieHom

        def recording(source, target, matrix):
            handed.append((source, target, matrix))
            return real(source, target, matrix)

        for module in (engine, liealg, freenilp, graded):
            monkeypatch.setattr(module, "LieHom", recording)
        _, cert = construct_faithful_nilpotent(example(name), EngineConfig(method="induction"))
        assert len(handed) == 3 + len(cert.steps_of_kind("flag_step"))
        for source, target, matrix in handed:
            assert reference_is_hom(source, target, matrix)


class TestTypedInteriorErrors:
    """Failures that the construction rules out still raise a typed error,
    under ``python -O`` too, when a step returns the impossible."""

    def test_flag_generator_needs_new_direction(self):
        line = Subspace.from_vectors(3, [dense_vector({2: F1}, 3)])
        with pytest.raises(DegenerateFlag):
            engine._flag_generator(line, line)

    def test_separator_lift(self, f4, monkeypatch):
        monkeypatch.setattr(engine, "solve", lambda a, b: None)
        with pytest.raises(NotSurjective, match="quotient projection"):
            construct_faithful_nilpotent(f4, EngineConfig(method="induction"))

    def test_transport_lift(self, h3, monkeypatch):
        # h3 presents with I = 0: no flag step, so the section of pi is the first solve
        monkeypatch.setattr(engine, "solve_multi", lambda a, b: None)
        with pytest.raises(NotSurjective, match="presentation map"):
            construct_faithful_nilpotent(h3, EngineConfig(method="induction"))


class TestGlueCertificates:
    def test_strict_kernel_descent(self, f4, h5):
        for algebra in (f4, h5):
            _, cert = construct_faithful_nilpotent(algebra, EngineConfig(method="induction"))
            glue_steps = cert.steps_of_kind("glue")
            assert glue_steps
            for step in glue_steps:
                dims = step["kernel_dims"]
                assert all(a > b for a, b in zip(dims, dims[1:]))
                assert dims[-1] == 0
                assert len(step["summand_dims"]) <= step["algebra_dim"]


class TestVerifyOutput:
    def test_standard_rep_all_true(self, h3, std_h3_rep):
        report = verify_output(h3, std_h3_rep)
        assert report.ok

    def test_adjoint_not_faithful(self, h3):
        report = verify_output(h3, adjoint(h3))
        assert report.homomorphism and not report.faithful
        assert report.failing() == ["faithful"]

    def test_identity_not_nilpotent(self):
        a1 = abelian(1)
        report = verify_output(a1, Representation(a1, 1, [RationalMatrix.identity(1)]))
        assert not report.nilpotent

    @pytest.mark.parametrize("flags", [(a, b, c) for a in (True, False) for b in (True, False) for c in (True, False)])
    def test_report_keys_in_field_order(self, flags):
        # the run report and the certificate's verified step list the
        # properties in this order
        names = ["homomorphism", "faithful", "nilpotent"]
        report = VerificationReport(*flags)
        assert list(report.as_dict().items()) == list(zip(names, flags))
        assert report.failing() == [name for name, good in zip(names, flags) if not good]
        assert report.ok is all(flags)


class TestReplay:
    @pytest.mark.parametrize("method", ["auto", "induction"])
    def test_replay_reproduces(self, f4, method):
        rep, cert = construct_faithful_nilpotent(f4, EngineConfig(method=method))
        rep2, cert2 = replay_certificate(f4, cert)
        assert rep2.matrices == rep.matrices
        assert cert2.steps == cert.steps

    def test_replay_reproduces_graded_step(self, h3):
        rep, cert = construct_faithful_nilpotent(h3)
        rep2, cert2 = replay_certificate(h3, cert)
        assert rep2.matrices == rep.matrices
        assert cert2.steps[0] == cert.steps[0] == {
            "kind": "graded_pipeline", "derivation": [1, 1, 2], "rep_dim": 4,
        }

    def test_replay_detects_tampered_derivation(self, h3):
        _, cert = construct_faithful_nilpotent(h3)
        tampered = Certificate(config=dict(cert.config), steps=list(cert.steps))
        tampered.steps[0] = dict(tampered.steps[0], derivation=[1, 1, 3])
        with pytest.raises(ReplayFailed, match="diverged at step 0"):
            replay_certificate(h3, tampered)

    def test_replay_detects_divergence(self, h3):
        rep, cert = construct_faithful_nilpotent(h3)
        tampered = Certificate(config=dict(cert.config), steps=list(cert.steps))
        tampered.steps[0] = dict(tampered.steps[0], rep_dim=999)
        with pytest.raises(ReplayFailed, match="diverged at step 0"):
            replay_certificate(h3, tampered)

    def test_replay_detects_missing_step(self, h3):
        _, cert = construct_faithful_nilpotent(h3)
        truncated = Certificate(config=dict(cert.config), steps=cert.steps[:-1])
        with pytest.raises(ReplayFailed, match="diverged at step 1"):
            replay_certificate(h3, truncated)

    def test_unversioned_certificate_rejected_by_version(self, h3):
        """A certificate written before ``format_version`` existed, with the
        five-key configuration of that time."""
        _, cert = construct_faithful_nilpotent(h3)
        old = {
            "config": dict(cert.config, free_dimension_budget=200, compress=True),
            "steps": cert.steps,
        }
        with pytest.raises(ReplayFailed, match="format_version None is not 2"):
            replay_certificate(h3, certificate_from_json(old))

    def test_version_1_certificate_rejected_by_version(self, h3):
        """A format-1 certificate, with the three-key configuration that
        still held ``max_tensor_power``."""
        _, cert = construct_faithful_nilpotent(h3)
        old = dict(certificate_to_json(cert), format_version=1, config=dict(cert.config, max_tensor_power=6))
        with pytest.raises(ReplayFailed, match="format_version 1 is not 2"):
            replay_certificate(h3, certificate_from_json(old))

    def test_max_tensor_power_key_rejected_by_name(self, h3):
        _, cert = construct_faithful_nilpotent(h3)
        old = Certificate(config=dict(cert.config, max_tensor_power=6), steps=cert.steps)
        with pytest.raises(ReplayFailed, match=r"unknown \['max_tensor_power'\], missing \[\]"):
            replay_certificate(h3, old)

    @pytest.mark.parametrize("version", [0, 1, "2", 1.0, 2.0, True])
    def test_other_version_rejected(self, h3, version):
        _, cert = construct_faithful_nilpotent(h3)
        obj = dict(certificate_to_json(cert), format_version=version)
        with pytest.raises(ReplayFailed, match=f"format_version {version!r} is not 2"):
            replay_certificate(h3, certificate_from_json(obj))

    def test_unknown_config_keys_named(self, h3):
        _, cert = construct_faithful_nilpotent(h3)
        extra = Certificate(config=dict(cert.config, compress=True), steps=cert.steps)
        with pytest.raises(ReplayFailed, match=r"unknown \['compress'\], missing \[\]"):
            replay_certificate(h3, extra)
        short = dict(cert.config)
        del short["dimension_budget"]
        with pytest.raises(ReplayFailed, match=r"unknown \[\], missing \['dimension_budget'\]"):
            replay_certificate(h3, Certificate(config=short, steps=cert.steps))

    @pytest.mark.parametrize(
        "change",
        [
            {"method": "fastest"},
            {"dimension_budget": 0},
            {"dimension_budget": "20000"},
            {"dimension_budget": 2.5},
            {"dimension_budget": True},
            {"method": "graded"},
        ],
    )
    def test_invalid_config_values_typed(self, h3, change):
        _, cert = construct_faithful_nilpotent(h3)
        bad = Certificate(config=dict(cert.config, **change), steps=cert.steps)
        with pytest.raises(ReplayFailed, match="not a valid engine configuration"):
            replay_certificate(h3, bad)


# Runs in a child interpreter: the graded route is replaced by one returning
# zero matrices, which form a homomorphism that is nilpotent but not faithful.
SABOTAGED_CONSTRUCT = r"""
import contextlib, io, json, sys
import adoforge.engine as engine
from adoforge import VerificationFailed
from adoforge.catalog import heisenberg3
from adoforge.cli import main
from adoforge.linalg import RationalMatrix
from adoforge.reps import Representation

engine.graded_faithful_rep = lambda algebra: Representation(
    algebra, 2, [RationalMatrix.zero(2, 2)] * algebra.dim
)
out = {}
try:
    engine.construct_faithful_nilpotent(heisenberg3())
except VerificationFailed as exc:
    out["report"] = exc.report.as_dict()
    out["last_step"] = exc.certificate.steps[-1]
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    out["cli_code"] = main(["construct", sys.argv[1]])
out["cli_report"] = json.loads(err.getvalue().strip().splitlines()[-1])
print(json.dumps(out))
"""


class TestBoundaryCheck:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
    def test_sabotaged_route_rejected(self, tmp_path, flags):
        from adoforge.jsonio import algebra_to_json, dumps_canonical

        alg_path = tmp_path / "h3.json"
        alg_path.write_text(dumps_canonical(algebra_to_json(heisenberg3(), "heisenberg3")))
        src = str(Path(adoforge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, *flags, "-c", SABOTAGED_CONSTRUCT, str(alg_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        verdict = {"homomorphism": True, "faithful": False, "nilpotent": True}
        assert out.get("report") == verdict
        assert out["last_step"] == {"kind": "verified", **verdict}
        assert out["cli_code"] == 1
        assert out["cli_report"]["outcome"]["error"] == "verification_failed"
        assert out["cli_report"]["verification"] == verdict


# --- the boundary check stays in V: no kernel of the stacked End(V) map ---


@contextlib.contextmanager
def counting_calls(*fns):
    """Count the calls of each fn through every adoforge module binding."""
    counts = {fn.__name__: 0 for fn in fns}
    modules = [m for name, m in sys.modules.items() if m is not None and name.split(".")[0] == "adoforge"]
    patched = []
    for fn in fns:
        def wrapper(*args, __fn=fn, **kwargs):
            counts[__fn.__name__] += 1
            return __fn(*args, **kwargs)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    patched.append((m, attr, value))
                    setattr(m, attr, wrapper)
    try:
        yield counts
    finally:
        for m, attr, value in patched:
            setattr(m, attr, value)


BOUNDARY_KERNELS = (reps.rep_kernel, linalg.kernel_basis)


@settings(deadline=None, max_examples=30)
@given(conjugated_corpus_reps())
def test_verify_output_builds_no_kernel(rep):
    with counting_calls(*BOUNDARY_KERNELS) as counts:
        report = verify_output(rep.algebra, rep)
    assert counts == {"rep_kernel": 0, "kernel_basis": 0}
    assert report.faithful == (rep_kernel(rep).dim == 0)


@pytest.mark.parametrize("method", ["auto", "induction"])
def test_construct_verifies_once_without_kernel(f4, method):
    calls = []
    original = engine.verify_output

    def recording(algebra, rep):
        with counting_calls(*BOUNDARY_KERNELS) as counts:
            report = original(algebra, rep)
        calls.append(dict(counts))
        return report

    engine.verify_output = recording
    try:
        rep, _ = construct_faithful_nilpotent(f4, EngineConfig(method=method))
    finally:
        engine.verify_output = original
    assert calls == [{"rep_kernel": 0, "kernel_basis": 0}]
    assert verify_output(f4, rep).ok
