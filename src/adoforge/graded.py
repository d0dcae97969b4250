"""Graded routes: one nonsingular derivation, and the paper's current-algebra
pipeline.  Both are cocycle extensions, which only ``cocycle_extension``
assembles: for 1-cocycles psi_b in Z^1(L, V), x acts on V + Q^k by
[[rho(x), psi_1(x) ... psi_k(x)], [0, 0]].

A derivation D of L is a 1-cocycle for the adjoint representation:
[x, Dy] - [y, Dx] = D[x, y].  When ker D = 0, letting x act on L + Q by
(v, s) -> ([x, v] + s*D(x), 0) is a faithful nilpotent representation of
dimension dim L + 1 (``derivation_rep``).  A positively graded algebra has
one: the scaling derivation D(x) = deg(x)*x, which is what the engine's
graded route (``graded_faithful_rep``) uses.

The paper's route is kept beside it and seeds the induction route's free
algebra (``current_algebra_faithful_rep``): for top degree n-1, the map
sending a degree-i basis element x to x(x)t^i embeds L into the current
algebra L(x)tQ[t]/(t^n) (``graded_embedding``), itself a ``LieAlgebra``
graded by t-degree (``current_algebra``).  The scaling derivation of that
grading (``euler_derivation``) is a 1-cocycle with zero kernel valued in the
adjoint module, and the cocycle extension of the current algebra on
V + Z^1(L,V) is faithful and nilpotent; restricting back along the embedding
yields a faithful nilpotent representation of L.

These properties hold by construction; the engine checks the final output
once, exactly, at its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DegenerateCocycle, DimensionMismatch, InvalidGrading, NotACocycle
from .linalg import F1, RationalMatrix, kernel_basis, mul_rowmaps
from .liealg import Grading, LieAlgebra, LieHom, verify_grading
from .reps import Representation, adjoint, restrict_along


def current_algebra(base: LieAlgebra, truncation: int) -> LieAlgebra:
    """base (x) tQ[t]/(t^truncation) as a Lie algebra graded by t-degree,
    with e_i (x) t^a (1 <= a < truncation) at index (a - 1) * dim base + i:
    [x(x)t^a, y(x)t^b] = [x,y](x)t^{a+b}, zero from t^truncation on."""
    if truncation < 2:
        raise DimensionMismatch("current algebra truncation must be at least 2")
    n = base.dim
    levels = range(1, truncation)
    table = {}
    for a in levels:
        for b in range(1, truncation - a):
            shift = (a + b - 1) * n
            for (i, j), coeffs in base.brackets.items():
                lo, hi = (a - 1) * n + i, (b - 1) * n + j
                # a pair with lo > hi is stored as (hi, lo), signs flipped
                sign = 1 if lo < hi else -1
                table[(min(lo, hi), max(lo, hi))] = {shift + k: sign * v for k, v in coeffs.items()}
    labels = tuple(f"{base.label(i)}*t^{a}" for a in levels for i in range(n))
    degrees = tuple(a for a in levels for _ in range(n))
    return LieAlgebra(n * len(levels), table, labels=labels, grading=Grading(degrees))


def graded_embedding(algebra: LieAlgebra) -> LieHom:
    """The injective homomorphism x -> x(x)t^deg(x) into the current algebra
    truncated at 1 + max degree (at least 2, so the zero algebra embeds into
    the zero algebra), one by construction for a checked grading."""
    if not verify_grading(algebra):
        raise InvalidGrading("graded_embedding requires a valid positive grading")
    current = current_algebra(algebra, max(2, 1 + algebra.grading.max_degree))
    entries = [((d - 1) * algebra.dim + i, i, F1) for i, d in enumerate(algebra.grading.degrees)]
    return LieHom(algebra, current, RationalMatrix.from_entries(current.dim, algebra.dim, entries))


@dataclass
class Cocycle:
    """A linear map phi: L -> V written columnwise against a representation."""

    rep: Representation
    map: RationalMatrix  # space_dim x algebra.dim; column i = phi(e_i)

    def __post_init__(self):
        if self.map.rows != self.rep.space_dim or self.map.cols != self.rep.algebra.dim:
            raise DimensionMismatch("cocycle map must be space_dim x algebra.dim")

    def satisfies_identity(self) -> bool:
        """phi([x,y]) - rho(x)phi(y) + rho(y)phi(x) = 0 on all basis pairs.

        Runs on integer forms: the structure constants N / D
        (``LieAlgebra.integer_form``), rho(e_i) = N_i / d_i and phi = M / m
        (``RationalMatrix.integer_transpose``).  Times c m, with c = lcm(D,
        d_i, d_j), the identity for the pair i < j reads
        (c / D) sum_k N[(i, j)]_k M e_k - (c / d_i) N_i M e_j
        + (c / d_j) N_j M e_i = 0, all in integers.  The columns M e_k are
        the rows of M^T, and acts[i][j] = N_i M e_j is one sparse product of
        them with N_i^T; pairs with no bracket and no action term are
        skipped.
        """
        alg = self.rep.algebra
        n = alg.dim
        table, scale = alg.integer_form()
        cols, _ = self.map.integer_transpose()
        # the row forms are the ones cocycle_space reads next; each
        # transpose is then read off them
        forms = [m.integer_form() for m in self.rep.matrices]
        acts = [mul_rowmaps(cols, m.integer_transpose()[0]) for m in self.rep.matrices]
        empty: dict[int, int] = {}
        for i in range(n):
            di = forms[i][1]
            for j in range(i + 1, n):
                coeffs = table.get(i, empty).get(j, empty)
                left = acts[i].get(j, empty)
                right = acts[j].get(i, empty)
                if not (coeffs or left or right):
                    continue
                dj = forms[j][1]
                common = lcm(scale, di, dj)
                total: dict[int, int] = {}
                get = total.get
                f = common // scale
                for k, c in coeffs.items():
                    c *= f
                    for r, v in cols.get(k, empty).items():
                        total[r] = get(r, 0) + c * v
                for column, f in ((left, -(common // di)), (right, common // dj)):
                    for r, v in column.items():
                        total[r] = get(r, 0) + f * v
                if any(total.values()):
                    return False
        return True


def cocycle_space(rep: Representation) -> list[Cocycle]:
    """Canonical echelon basis of Z^1(L, V), for L = rep.algebra and V its
    module, solved from the cocycle identity over all basis pairs as one
    linear system.

    Unknowns are the entries of the map, flattened column-major (column i =
    phi(e_i)); the kernel's canonical echelon basis makes downstream
    constructions deterministic.  The rows of each pair i < j are built on
    integers: from the structure constants N / D (``LieAlgebra.integer_form``)
    and rho(e_i) = N_i / d_i (``RationalMatrix.integer_form``), scaled by
    lcm(D, d_i, d_j).  Scaling a row changes no kernel, so the basis is the
    one the rational rows give.  The caller promises that rep is a
    homomorphism; that is not re-proved here.
    """
    algebra = rep.algebra
    n = algebra.dim
    vd = rep.space_dim
    table, scale = algebra.integer_form()
    forms = [m.integer_form() for m in rep.matrices]
    system: dict[int, dict[int, int]] = {}
    base = 0
    for i in range(n):
        ni, di = forms[i]
        for j in range(i + 1, n):
            nj, dj = forms[j]
            common = lcm(scale, di, dj)
            # row r of common * (phi([e_i, e_j]) - rho(e_i) phi(e_j) + rho(e_j) phi(e_i))
            rows: dict[int, dict[int, int]] = {}
            f = common // scale
            for k, v in table.get(i, {}).get(j, {}).items():
                v *= f
                for r in range(vd):
                    rows.setdefault(r, {})[k * vd + r] = v
            for m, offset, f in ((ni, j * vd, -(common // di)), (nj, i * vd, common // dj)):
                for r, row in m.items():
                    target = rows.setdefault(r, {})
                    get = target.get
                    for c, v in row.items():
                        target[offset + c] = get(offset + c, 0) + f * v
            for r, row in rows.items():
                if not all(row.values()):
                    row = {c: v for c, v in row.items() if v}
                if row:
                    system[base + r] = row
            base += vd
    solutions = kernel_basis(RationalMatrix(base, n * vd, system))
    basis = []
    for w in solutions.basis_rows():
        data: dict[int, dict[int, Fraction]] = {}
        for idx, v in w.items():
            i, r = divmod(idx, vd)
            data.setdefault(r, {})[i] = v
        basis.append(Cocycle(rep, RationalMatrix(vd, n, data)))
    return basis


def _scaling_derivation(algebra: LieAlgebra) -> RationalMatrix:
    """diag(degrees): D(x) = deg(x) * x on the basis of a graded algebra."""
    return RationalMatrix.from_entries(
        algebra.dim, algebra.dim, [(i, i, d) for i, d in enumerate(algebra.grading.degrees)]
    )


def euler_derivation(current: LieAlgebra) -> Cocycle:
    """The scaling cocycle phi(x(x)t^a) = a * x(x)t^a valued in the adjoint
    module: the scaling derivation of the current algebra's t-grading.  Its
    kernel is zero because every eigenvalue is a positive integer.  An
    algebra without a grading raises ``InvalidGrading``; a grading that is
    present is not re-proved, as ``current_algebra`` grades by construction."""
    if current.grading is None:
        raise InvalidGrading("euler_derivation requires a graded algebra")
    return Cocycle(adjoint(current), _scaling_derivation(current))


def cocycle_extension(rep: Representation, maps: list[RationalMatrix]) -> Representation:
    """[[rho(x), psi_1(x) ... psi_k(x)], [0, 0]] on V + Q^k, where column i of
    maps[b] (space_dim x algebra.dim) is psi_b(e_i).  A homomorphism when
    every psi_b is a 1-cocycle for rep, nilpotent whenever rep is; its
    kernel is Ker rho intersected with every Ker psi_b."""
    vd, n = rep.space_dim, rep.algebra.dim
    if any(m.rows != vd or m.cols != n for m in maps):
        raise DimensionMismatch("extension maps must be space_dim x algebra.dim")
    total = vd + len(maps)
    data = [{r: dict(row) for r, row in m._data.items()} for m in rep.matrices]
    for b, psi in enumerate(maps):
        for r, row in psi._data.items():
            for i, v in row.items():
                data[i].setdefault(r, {})[vd + b] = v
    return Representation(rep.algebra, total, [RationalMatrix(total, total, d) for d in data])


def cocycle_extension_rep(phi: Cocycle) -> Representation:
    """Faithful extension on V + Z^1(L, V) given a cocycle with zero kernel.

    V and L are phi's module ``phi.rep`` and its algebra.  x acts by
    (v, psi) -> (rho(x)v + psi(x), 0).  phi is checked here; the result is
    faithful because phi has zero kernel, and nilpotent whenever rho is.
    """
    if not phi.satisfies_identity():
        raise NotACocycle("map does not satisfy the cocycle identity")
    if kernel_basis(phi.map).dim != 0:
        raise DegenerateCocycle("cocycle has a nonzero kernel")
    return cocycle_extension(phi.rep, [psi.map for psi in cocycle_space(phi.rep)])


def derivation_rep(algebra: LieAlgebra, D: RationalMatrix) -> Representation:
    """rho(e_i) = [[ad e_i, D e_i], [0, 0]] on Q^(dim L + 1).

    The caller promises that D (dim L x dim L) is a derivation with zero
    kernel.  Then rho is a homomorphism because D is a 1-cocycle for ad,
    faithful because rho(x) = 0 forces D(x) = 0, and nilpotent because it is
    block upper triangular with ad x nilpotent on the diagonal.
    """
    return cocycle_extension(adjoint(algebra), [D])


def graded_faithful_rep(algebra: LieAlgebra) -> Representation:
    """Faithful nilpotent representation of dimension dim L + 1 of a validly
    graded algebra, from its scaling derivation diag(degrees)."""
    if not verify_grading(algebra):
        raise InvalidGrading("graded_faithful_rep requires a valid grading")
    return derivation_rep(algebra, _scaling_derivation(algebra))


def current_algebra_faithful_rep(algebra: LieAlgebra) -> Representation:
    """Faithful nilpotent representation of a validly graded algebra via the
    paper's embedding + scaling-cocycle extension + restriction pipeline."""
    emb = graded_embedding(algebra)
    return restrict_along(cocycle_extension_rep(euler_derivation(emb.target)), emb)
