"""Construction engine: presentation, ideal flag, kernel-distinguishing
search, gluing, transport back to the input algebra, and certificates.

The pipeline builds a faithful nilpotent representation for any validated
nilpotent algebra over Q.  Under ``auto``, algebras with a grading take the
direct graded route: the dim L + 1 representation of their scaling
derivation, whose size is checked against the budget before ``validate``
(which rejects a grading the brackets do not respect); a valid positive
grading makes L nilpotent, so no lower central series is walked there.
Everything else is presented as a quotient F/I of a free nilpotent algebra
and handled by walking a codimension-one ideal flag inside I, refined
against F's central flag as read off its Hall grading.  At each flag
step the previous algebra is a one-dimensional central extension of the next
one; non-central directions are separated by the adjoint representation,
central ones by searching tensor powers (up to ``MAX_TENSOR_POWER``) of the
previous faithful representation for a kernel non-inclusion witness: a
vector of Ker rho(z) that rho(x) does not kill, whose cyclic submodule, on
which z acts as zero, represents the step's one quotient L/<z>.  That
representation is the direct sum of the previous step's glue summands (the
seed at the first step), so each tensor power is searched block by block:
the products of one summand per factor, on disjoint coordinates, give the
same witness and the same cyclic submodule as the whole power.  The search
runs on integer row maps end to end.  A block holds rho(z) alone, as an
integer form N / d built from the forms on the block below and on its last
factor, and its kernel as primitive integer null rows; each search builds
the transpose of rho(x) on the blocks the same way and tests the null rows
against it (a unit row by one lookup, any other with ``mul_rowmaps``),
stopping at the first block that starts past the best pivot found.  A
block's full representation is built only when it is read, on the block a
search lands on, and the cyclic submodule of the witness row is taken on
integers too (``reps.cyclic_submodule``).  Only
the last quotient F/I gets its direct sum built; it is
transported back to L along proj after a section of pi, which is well
defined because Ker pi = I = Ker proj.
Two interior checks run: each flag step's ``quotient`` tests that the
line of its image z is an ideal, and each kernel search's
``kernel_submodule`` that z is central and that rho(z) vanishes on the
submodule.  Nothing else the construction guarantees is re-proved: not
that z is nonzero (its generator lies outside the kernel of the
projection), that an orbit closure is invariant, nor that pi, the
projections and the transport are homomorphisms.
``construct_faithful_nilpotent`` verifies its output exactly, once, and
raises ``VerificationFailed`` when that fails.
``EngineConfig`` has two keys: ``method`` and ``dimension_budget``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import Callable, Sequence

from .errors import (
    AlgebraMismatch,
    BudgetExceeded,
    DegenerateFlag,
    NotLinearlyIndependent,
    NotSurjective,
    ReplayFailed,
    SeparatorFailed,
    TensorBudgetExceeded,
    ValidationFailed,
    VerificationFailed,
)
from .linalg import (
    RationalMatrix,
    Subspace,
    _null_rows,
    dense_vector,
    frac,
    mul_rowmaps,
    rank,
    solve,
    solve_multi,
)
from .liealg import (
    LieAlgebra,
    LieHom,
    codim1_refinement,
    quotient,
    validate,
)
from .freenilp import DEFAULT_DIMENSION_BUDGET, free_central_flag, present
from .graded import current_algebra_faithful_rep, graded_faithful_rep
from .reps import (
    Representation,
    adjoint,
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

Separator = Callable[[Sequence[Fraction]], Representation]

# Bumped whenever the config keys or the fields of a step change, so a
# certificate of another format fails replay by name, not by divergence.
CERTIFICATE_FORMAT_VERSION = 2

MAX_TENSOR_POWER = 6  # highest tensor power the kernel search builds


@dataclass
class EngineConfig:
    method: str = "auto"              # auto | induction
    dimension_budget: int = 20000     # representation space cap

    def __post_init__(self):
        if self.method not in ("auto", "induction"):
            raise ValueError(f"unknown method {self.method!r}")
        if type(self.dimension_budget) is not int or self.dimension_budget < 1:
            raise ValueError("dimension_budget must be a positive integer")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Certificate:
    """Replayable audit trail; steps hold only JSON-compatible values."""

    config: dict
    steps: list[dict] = field(default_factory=list)
    format_version: object = CERTIFICATE_FORMAT_VERSION

    def add(self, kind: str, **fields) -> None:
        self.steps.append({"kind": kind, **fields})

    def steps_of_kind(self, kind: str) -> list[dict]:
        return [s for s in self.steps if s["kind"] == kind]


@dataclass
class VerificationReport:
    homomorphism: bool
    faithful: bool
    nilpotent: bool

    @property
    def ok(self) -> bool:
        return all(vars(self).values())

    def failing(self) -> list[str]:
        return [name for name, good in vars(self).items() if not good]

    def as_dict(self) -> dict:
        return dict(vars(self))


def verify_output(algebra: LieAlgebra, rep: Representation) -> VerificationReport:
    """Check everything the construction promises, with exact arithmetic."""
    if not rep.algebra.structurally_equal(algebra):
        raise AlgebraMismatch("representation belongs to a different algebra")
    return VerificationReport(
        homomorphism=is_homomorphism(rep),
        faithful=is_faithful(rep),
        nilpotent=is_nilpotent_rep(rep),
    )


def _coords_json(x: Sequence[Fraction]) -> list[str]:
    return [str(frac(v)) for v in x]


def _check_budget(space_dim: int, config: EngineConfig) -> None:
    if space_dim > config.dimension_budget:
        raise BudgetExceeded(
            f"representation space of dimension {space_dim} exceeds budget {config.dimension_budget}"
        )


# An element's action on a block as an integer form (N, d, dim): the
# matrix N / d on Q^dim, N a ``{row: {col: int}}`` map.
Action = tuple[dict[int, dict[int, int]], int, int]


def _kron_sum(a: Action, b: Action) -> Action:
    """a (x) I + I (x) b on integer forms, as in ``tensor_product``.

    With a = A / d_a on Q^m, b = B / d_b on Q^n and g = gcd(d_a, d_b), it
    is (A (d_b / g) (x) I + I (x) B (d_a / g)) / (d_a d_b / g).  Row
    i n + k holds row i of A at columns j n + k and row k of B at columns
    i n + l; the two meet only on the diagonal, where they are summed.
    """
    na, da, m = a
    nb, db, n = b
    g = gcd(da, db)
    fa, fb = db // g, da // g
    if fa != 1:
        na = {r: {c: v * fa for c, v in row.items()} for r, row in na.items()}
    if fb != 1:
        nb = {r: {c: v * fb for c, v in row.items()} for r, row in nb.items()}
    brows = [(k, nb.get(k)) for k in range(n)]
    data: dict[int, dict[int, int]] = {}
    for i in range(m):
        arow = na.get(i)
        base = i * n
        for k, brow in brows:
            if arow:
                row = {j * n + k: v for j, v in arow.items()}
                if brow:
                    for l, v in brow.items():
                        c = base + l
                        total = row.get(c, 0) + v
                        if total:
                            row[c] = total
                        else:
                            del row[c]
                    if not row:
                        continue
            elif brow:
                row = {base + l: v for l, v in brow.items()}
            else:
                continue
            data[base + k] = row
    return data, da * fa, m * n


class _Block:
    """One block P_(i1) (x) ... (x) P_(ip) of the tensor power V^(x)p of
    V = P_0 + ... + P_(k-1), built as ``below`` (x) ``part`` from the block
    P_(i1) (x) ... (x) P_(i(p-1)) of the power below (None at p = 1).

    It holds rho(z) on the block as an integer form (``z_action``), its
    kernel as the primitive integer null rows of that form (``null``, in
    canonical order; ``free`` holds their free columns, which are their
    pivots: they are the echelon rows of ``kernel_basis``), and the
    increasing map ``coords`` from its coordinates to those of V^(x)p.
    The block's full representation ``rep`` is built from the factors on
    the first read and kept: the search reads rho(z) and rho(x) alone, so
    only the blocks it lands on, and the blocks below those, ever get one.
    """

    __slots__ = ("z_action", "null", "free", "coords", "below", "part", "_rep")

    def __init__(self, z_action: Action, coords: list[int], below: "_Block | None", part: Representation):
        self.z_action = z_action
        self.null, self.free = _null_rows(z_action[0], z_action[2])
        self.coords = coords
        self.below = below
        self.part = part
        self._rep = None

    @property
    def rep(self) -> Representation:
        if self._rep is None:
            self._rep = self.part if self.below is None else tensor_product(self.below.rep, self.part)
        return self._rep


# One flag step's tensor ladder: for each power p, the blocks of V^(x)p in
# lexicographic order of their part indices (i1, ..., ip).
Ladder = list[list[_Block]]


def _next_level(
    parts: Sequence[Representation], z: Sequence[Fraction], ladder: Ladder, config: EngineConfig
) -> list[_Block]:
    """The blocks of the next tensor power of V = + parts, each built once as
    (block of the power below) (x) part, with rho(z) on it.

    V^(x)p = V^(x)(p-1) (x) V puts coordinate b of part k after coordinate g
    of V^(x)(p-1) at g * dim V + offset(k) + b, so each block's coordinate
    map stays increasing.  At p >= 2 rho(z) on a block is ``_kron_sum`` of
    rho(z) on the block below and on the part, which the ladder already
    holds.  The dimension budget is checked on (dim V)^p before the first
    block of that power is built.
    """
    offsets = list(accumulate((part.space_dim for part in parts), initial=0))
    dim_v = offsets[-1]
    power = len(ladder) + 1
    if not ladder:
        return [
            _Block(
                (*element_action(part, z).integer_form(), part.space_dim),
                list(range(off, off + part.space_dim)),
                None,
                part,
            )
            for part, off in zip(parts, offsets)
        ]
    if dim_v**power > config.dimension_budget:
        raise TensorBudgetExceeded(
            f"tensor power {power} needs dimension {dim_v**power} > budget {config.dimension_budget}"
        )
    return [
        _Block(
            _kron_sum(block.z_action, first.z_action),
            [g * dim_v + off + b for g in block.coords for b in range(part.space_dim)],
            block,
            part,
        )
        for block in ladder[-1]
        for first, part, off in zip(ladder[0], parts, offsets)
    ]


def _moved(row: dict[int, int], action: dict[int, dict[int, int]]) -> bool:
    """rho(x) does not kill the null row, for ``action`` the integer
    transpose of rho(x): a unit row {f: c} is moved exactly when column f
    of rho(x) holds an entry, and any other row when ``mul_rowmaps`` of it
    with ``action`` leaves one."""
    if len(row) == 1:
        return bool(action.get(next(iter(row))))
    return bool(mul_rowmaps({0: row}, action))


def _distinguish(
    parts: Sequence[Representation],
    z: Sequence[Fraction],
    x: Sequence[Fraction],
    config: EngineConfig,
    ladder: Ladder,
) -> tuple[int, int, int]:
    """Search V, V^(x)2, ... for Ker rho(z) not contained in Ker rho(x),
    where V is the direct sum of ``parts``.

    Returns (tensor power p, index of the witness block in ``ladder[p - 1]``,
    witness index into that block's null rows).  The family of tensor
    powers of a faithful nilpotent representation is closed under tensoring
    and contains a faithful member, which is exactly what makes some finite
    power succeed; ``MAX_TENSOR_POWER`` and the dimension budget turn
    "finite" into an explicit failure mode instead of an unbounded run.

    V^(x)p is the direct sum of its blocks, which sit on disjoint
    coordinates and are each invariant, so Ker rho(z) on V^(x)p is the sum
    of the blocks' kernels and its canonical echelon basis is the union of
    theirs, each embedded in order.  The first canonical kernel vector of
    V^(x)p that rho(x) does not kill is therefore, among the blocks' first
    such vectors, the one with the smallest pivot in V^(x)p.  ``ladder``
    holds the powers built so far (``[]`` for a fresh search) and is
    extended in place; searches that share the parts and z pass the same
    one, so each block and its null rows are built at most once.  rho(x) is
    built per search, as the transposes of the integer forms of
    ``element_action`` on the parts, and on a block of a higher power as
    ``_kron_sum`` of it on the block below and on the part (the transpose
    of a (x) I + I (x) b is a^T (x) I + I (x) b^T), only when the scan
    reaches the block: block ``index`` of power p is (block
    ``index // len(parts)`` of power p - 1) (x) (part ``index % len(parts)``),
    and a power without a witness is scanned whole, so the actions below
    are all built whenever the next power needs one.  ``mul_rowmaps`` of a
    null row with it is rho(x) applied to that row
    (``_moved``; a unit row {f: c} is moved exactly when column f of
    rho(x) holds an entry, one lookup); the rows are tried in order, and a
    block's first row with a nonzero image is its witness.  The blocks of
    a power come in increasing ``coords[0]``, and a block's witness pivot
    is at least its ``coords[0]``, so the scan of a power stops at the
    first block whose ``coords[0]`` exceeds the best pivot found.  Past
    ``element_action`` on the parts, the search builds no Fraction.
    """
    pair = RationalMatrix.from_columns(len(z), [tuple(z), tuple(x)])
    if rank(pair) != 2:
        raise NotLinearlyIndependent("z and x must be linearly independent")
    on_parts = [(*element_action(part, x).integer_transpose(), part.space_dim) for part in parts]
    below: list[Action] = []  # rho(x)^T on the blocks of the power below
    for power in range(1, MAX_TENSOR_POWER + 1):
        if len(ladder) < power:
            ladder.append(_next_level(parts, z, ladder, config))
        actions = []  # rho(x)^T on the blocks of this power scanned so far
        found = None  # (pivot in V^(x)p, block index, witness)
        for index, block in enumerate(ladder[power - 1]):
            if found is not None and block.coords[0] > found[0]:
                break  # this block's pivots, and those after it, are all larger
            if power == 1:
                action = on_parts[index]
            else:
                action = _kron_sum(below[index // len(parts)], on_parts[index % len(parts)])
            actions.append(action)
            # the first canonical vector of Ker rho(z) that rho(x) does not kill
            witness = next((w for w, row in enumerate(block.null) if _moved(row, action[0])), None)
            if witness is not None:
                pivot = block.coords[block.free[witness]]
                if found is None or pivot < found[0]:
                    found = (pivot, index, witness)
        if found is not None:
            return power, found[1], found[2]
        below = actions
    raise TensorBudgetExceeded(
        f"no kernel witness within tensor power {MAX_TENSOR_POWER}"
    )


def distinguish_by_kernels(
    rho0: Representation,
    z: Sequence[Fraction],
    x: Sequence[Fraction],
    config: EngineConfig | None = None,
) -> Representation:
    """A tensor power of rho0 whose z-action kernel is not inside the
    x-action kernel.  rho0 must be faithful and nilpotent (the engine
    guarantees this for its own calls)."""
    ladder: Ladder = []
    power, index, _ = _distinguish([rho0], z, x, config or EngineConfig(), ladder)
    return ladder[power - 1][index].rep


def _glue_traced(algebra: LieAlgebra, separator: Separator) -> tuple[list[Representation], dict]:
    """The glue summands in order, and the trace.  The kernel of their sum
    is the intersection of theirs, so no sum is built."""
    kernel = Subspace.full(algebra.dim)
    parts: list[Representation] = []
    kernels: list[int] = []
    while kernel.dim > 0:
        x = dense_vector(next(kernel.basis_rows()), algebra.dim)
        rho_x = separator(x)
        if element_action(rho_x, x).is_zero():
            raise SeparatorFailed("separator returned a representation vanishing on its element")
        kernel = kernel.intersect(rep_kernel(rho_x))
        parts.append(rho_x)
        kernels.append(kernel.dim)
    return parts, {"algebra_dim": algebra.dim, "summand_dims": [rho.space_dim for rho in parts], "kernel_dims": kernels}


def glue_local(algebra: LieAlgebra, separator: Separator) -> Representation:
    """Assemble a faithful nilpotent representation from a separator that
    maps any nonzero x to a nilpotent representation with rho_x(x) != 0.

    Starts from the kernel L and keeps direct-summing away the first
    canonical kernel vector (the first is e_0); the kernel dimension drops
    strictly every iteration, so at most dim L summands appear (none, and
    Q^0, for a zero algebra).
    """
    parts, _ = _glue_traced(algebra, separator)
    return direct_sum(*parts) if parts else Representation(algebra, 0, [])


def _flag_generator(upper: Subspace, lower: Subspace) -> Sequence[Fraction]:
    """The first canonical basis vector of ``upper`` outside ``lower``,
    found by the sparse residual of each echelon row."""
    for row, res in zip(upper.basis_rows(), lower.residuals(upper._rows)):
        if res:
            return dense_vector(row, upper.ambient_dim)
    raise DegenerateFlag("strictly larger ideal must contain a new basis vector")


def _ideal_flag(free: LieAlgebra, ideal: Subspace) -> list[Subspace]:
    """0 = J_0 < ... < J_m = ideal with codimension-one steps and
    [free, J_(k+1)] <= J_k: each J_(k+1) is central modulo J_k.

    ``free`` is the free nilpotent algebra of the presentation, so its
    central flag is read off its Hall grading (``free_central_flag``)
    without a series walk, and each refinement is one intersection with
    one flag member, in one elimination (``codim1_refinement``)."""
    central = free_central_flag(free)
    descending = [ideal]
    while descending[-1].dim > 0:
        descending.append(codim1_refinement(free, descending[-1], central))
    return list(reversed(descending))


def _induction_pipeline(
    algebra: LieAlgebra, config: EngineConfig, cert: Certificate
) -> Representation:
    pres = present(algebra)
    cert.add(
        "presented",
        free_rank=sum(1 for d in pres.F.grading.degrees if d == 1),
        free_dim=pres.F.dim,
        kernel_dim=pres.I.dim,
        nil_class=pres.F.grading.max_degree,
    )
    # the current algebra has dim F * class, and Z^1 holds the Euler cocycle
    current_dim = pres.F.dim * pres.F.grading.max_degree
    _check_budget(current_dim + 1, config)
    seed = current_algebra_faithful_rep(pres.F)
    _check_budget(seed.space_dim, config)
    cert.add(
        "graded_pipeline",
        current_dim=current_dim,
        cocycle_dim=seed.space_dim - current_dim,
        rep_dim=seed.space_dim,
    )

    flag = _ideal_flag(pres.F, pres.I)
    parts = [seed]  # the current representation is their direct sum
    current = pres.F
    proj = RationalMatrix.identity(pres.F.dim)  # F -> current
    for k in range(len(flag) - 1):
        g = _flag_generator(flag[k + 1], flag[k])
        z = proj.apply(g)  # nonzero: g lies outside J_k = Ker proj
        cert.add("flag_step", index=k, z=_coords_json(z))
        z_line = Subspace.from_vectors(current.dim, [z])
        quo, p = quotient(current, z_line)
        adj = adjoint(quo)
        dim_v = sum(part.space_dim for part in parts)
        ladder: Ladder = []

        # Called only by this step's glue, before parts is rebound to its summands.
        def separator(x):
            if not element_action(adj, x).is_zero():
                return adj
            lift = solve(p.matrix, x)
            if lift is None:
                raise NotSurjective("quotient projection must be surjective")
            power, index, witness = _distinguish(parts, z, lift, config, ladder)
            cert.add(
                "kernel_search",
                element=_coords_json(x),
                tensor_power=power,
                rep_dim=dim_v**power,
            )
            level = ladder[power - 1]
            block = level[index]
            # the witness's cyclic submodule lies in its block, and the
            # block's coordinates embed in order, so this is the same
            # submodule as inside the whole kernel of V^(x)power; a
            # positive multiple of the canonical kernel vector spans the
            # same one
            v = dense_vector(block.null[witness], block.rep.space_dim)
            compressed = kernel_submodule(block.rep, z, quo, v)
            cert.add(
                "kernel_submodule",
                carrier_dim=sum(len(b.null) for b in level),
                compressed_dim=compressed.space_dim,
            )
            return compressed

        parts, trace = _glue_traced(quo, separator)
        cert.add("glue", **trace)
        current = quo
        proj = p.matrix @ proj

    # Transport the representation of F/I back onto L: proj after any linear
    # section of pi is well defined, since Ker pi = I = Ker proj.
    section = solve_multi(pres.pi.matrix, RationalMatrix.identity(algebra.dim))
    if section is None:
        raise NotSurjective("presentation map onto the input must be surjective")
    iso = LieHom(algebra, current, proj @ section)
    return restrict_along(direct_sum(*parts), iso)


def construct_faithful_nilpotent(
    algebra: LieAlgebra, config: EngineConfig | None = None
) -> tuple[Representation, Certificate]:
    """Faithful nilpotent representation plus a replayable certificate.

    The output is verified exactly before it is returned; the certificate's
    last step, ``verified``, records that report.  Raises
    ``VerificationFailed`` when any of the three properties fails,
    ``BudgetExceeded`` before ``validate`` for an input over its route's cap,
    and ``NotNilpotent`` from ``present`` on the induction route.
    """
    config = config or EngineConfig()
    graded = config.method == "auto" and algebra.grading is not None
    if graded:
        _check_budget(algebra.dim + 1, config)
    elif algebra.dim > DEFAULT_DIMENSION_BUDGET:
        # pi: F -> L is onto, so dim F >= dim L, and present caps dim F
        raise BudgetExceeded(
            f"induction route: input dimension {algebra.dim} exceeds the free nilpotent budget {DEFAULT_DIMENSION_BUDGET}"
        )
    if not validate(algebra).ok:
        raise ValidationFailed("input algebra fails validation; run validate() for details")
    cert = Certificate(config=config.as_dict())
    if algebra.dim == 0:
        rep = Representation(algebra, 0, [])
    elif graded:
        rep = graded_faithful_rep(algebra)
        cert.add("graded_pipeline", derivation=list(algebra.grading.degrees), rep_dim=rep.space_dim)
    else:
        rep = _induction_pipeline(algebra, config, cert)
    outcome = verify_output(algebra, rep)
    cert.add("verified", **outcome.as_dict())
    if not outcome.ok:
        raise VerificationFailed(outcome, cert)
    return rep, cert


def replay_certificate(algebra: LieAlgebra, cert: Certificate) -> tuple[Representation, Certificate]:
    """Re-run the construction under the certificate's recorded configuration
    and check that every step reproduces; returns the rebuilt representation.

    Raises ``ReplayFailed`` for another format version, config keys or values
    that ``EngineConfig`` does not take, or a step that does not reproduce.
    """
    if type(cert.format_version) is not int or cert.format_version != CERTIFICATE_FORMAT_VERSION:
        raise ReplayFailed(f"certificate format_version {cert.format_version!r} is not {CERTIFICATE_FORMAT_VERSION}")
    keys, given = set(EngineConfig().as_dict()), set(cert.config)
    if given != keys:
        raise ReplayFailed(f"certificate config keys: unknown {sorted(given - keys)}, missing {sorted(keys - given)}")
    try:
        config = EngineConfig(**cert.config)
    except ValueError as exc:
        raise ReplayFailed(f"certificate config is not a valid engine configuration: {exc}") from exc
    rep, fresh = construct_faithful_nilpotent(algebra, config)
    if fresh.steps != cert.steps:
        # the sentinel makes a log that is a prefix of the other diverge at its end
        index = next(i for i, (a, b) in enumerate(zip(fresh.steps + [None], cert.steps + [None])) if a != b)
        raise ReplayFailed(f"certificate does not replay: step log diverged at step {index}")
    return rep, fresh
