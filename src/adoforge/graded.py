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
algebra L(x)tQ[t]/(t^n).  The scaling derivation of the current algebra
(eigenvalue = t-degree) is a 1-cocycle with zero kernel valued in the
adjoint module, and the cocycle extension of the current algebra on
V + Z^1(L,V) is faithful and nilpotent; restricting back along the embedding
yields a faithful nilpotent representation of L.

These properties hold by construction; the engine checks the final output
once, exactly, at its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateCocycle, DimensionMismatch, InvalidGrading, NotACocycle
from .linalg import (
    F1,
    RationalMatrix,
    kernel_basis,
    mul_rowmaps,
)
from .liealg import Grading, LieAlgebra, LieHom, verify_grading
from .reps import Representation, adjoint, restrict_along


@dataclass
class CurrentAlgebra:
    """base (x) tQ[t]/(t^truncation) on the basis {e_i (x) t^a : 1 <= a < n},
    ordered by t-degree then base index."""

    base: LieAlgebra
    truncation: int
    product: LieAlgebra

    def flat_index(self, a: int, i: int) -> int:
        """Index of e_i (x) t^a in the product basis."""
        if not (1 <= a < self.truncation and 0 <= i < self.base.dim):
            raise DimensionMismatch("current algebra coordinate out of range")
        return (a - 1) * self.base.dim + i


def current_algebra(base: LieAlgebra, truncation: int) -> CurrentAlgebra:
    """[x(x)t^a, y(x)t^b] = [x,y](x)t^{a+b}, truncated to zero at t^n."""
    if truncation < 2:
        raise DimensionMismatch("current algebra truncation must be at least 2")
    n = base.dim
    levels = truncation - 1
    dim = n * levels
    table = {}
    for a in range(1, levels + 1):
        for b in range(a, levels + 1):
            if a + b > levels:
                continue
            shift = (a + b - 1) * n
            for (i, j), coeffs in base.brackets.items():
                lo, hi = (a - 1) * n + i, (b - 1) * n + j
                out = {shift + k: v for k, v in coeffs.items()}
                if lo < hi:
                    table[(lo, hi)] = dict(out)
                if a != b:
                    # the (e_j (x) t^a, e_i (x) t^b) pair carries the sign flip
                    lo2, hi2 = (a - 1) * n + j, (b - 1) * n + i
                    table[(lo2, hi2)] = {k: -v for k, v in out.items()}
    labels = tuple(
        f"{base.label(i)}*t^{a}" for a in range(1, levels + 1) for i in range(n)
    )
    degrees = tuple(a for a in range(1, levels + 1) for _ in range(n))
    product = LieAlgebra(dim, table, labels=labels, grading=Grading(degrees))
    return CurrentAlgebra(base=base, truncation=truncation, product=product)


def graded_embedding(algebra: LieAlgebra, current: CurrentAlgebra | None = None) -> LieHom:
    """The injective homomorphism x -> x(x)t^deg(x) into the current algebra
    truncated at 1 + max degree, one by construction for a checked grading."""
    if not verify_grading(algebra):
        raise InvalidGrading("graded_embedding requires a valid positive grading")
    n = 1 + algebra.grading.max_degree
    if current is None:
        current = current_algebra(algebra, n)
    elif current.truncation != n or not current.base.structurally_equal(algebra):
        raise DimensionMismatch("provided current algebra does not match the grading")
    entries = []
    for i, d in enumerate(algebra.grading.degrees):
        entries.append((current.flat_index(d, i), i, F1))
    matrix = RationalMatrix.from_entries(current.product.dim, algebra.dim, entries)
    return LieHom(algebra, current.product, matrix)


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

        Runs on sparse columns: acts[i][j] = rho(e_i)phi(e_j) is column j of
        the product rho(e_i) phi, and phi([e_i, e_j]) combines phi's columns
        by the sparse structure constants; each pair compares
        phi([e_i, e_j]) + rho(e_j)phi(e_i) with rho(e_i)phi(e_j).
        """
        alg = self.rep.algebra
        n = alg.dim
        cols = self.map.transpose()._data
        acts = [
            RationalMatrix(self.map.rows, n, mul_rowmaps(m._data, self.map._data)).transpose()._data
            for m in self.rep.matrices
        ]
        empty: dict[int, Fraction] = {}
        for i in range(n):
            for j in range(i + 1, n):
                coeffs = alg.brackets.get((i, j))
                lhs = mul_rowmaps({0: coeffs}, cols).get(0, empty) if coeffs else empty
                total = dict(lhs)
                for r, v in acts[j].get(i, empty).items():
                    total[r] = total.get(r, 0) + v
                if {r: v for r, v in total.items() if v} != acts[i].get(j, empty):
                    return False
        return True


def cocycle_space(rep: Representation) -> list[Cocycle]:
    """Canonical echelon basis of Z^1(L, V), for L = rep.algebra and V its
    module, solved from the cocycle identity over all basis pairs as one
    linear system.

    Unknowns are the entries of the map, flattened column-major (column i =
    phi(e_i)); the kernel's canonical echelon basis makes downstream
    constructions deterministic.  The caller promises that rep is a
    homomorphism; that is not re-proved here.
    """
    algebra = rep.algebra
    n = algebra.dim
    vd = rep.space_dim
    unknown = lambda i, r: i * vd + r
    entries = []
    row_index = 0
    for i in range(n):
        mi = rep.matrices[i]
        for j in range(i + 1, n):
            mj = rep.matrices[j]
            base = row_index
            for k, v in algebra.bracket_basis(i, j).items():
                for r in range(vd):
                    entries.append((base + r, unknown(k, r), v))
            for r, row in mi._data.items():
                for s, v in row.items():
                    entries.append((base + r, unknown(j, s), -v))
            for r, row in mj._data.items():
                for s, v in row.items():
                    entries.append((base + r, unknown(i, s), v))
            row_index += vd
    system = RationalMatrix.from_entries(row_index, n * vd, entries)
    solutions = kernel_basis(system)
    basis = []
    for w in solutions._rows:
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


def euler_derivation(current: CurrentAlgebra) -> Cocycle:
    """The scaling cocycle phi(x(x)t^a) = a * x(x)t^a valued in the adjoint
    module: the scaling derivation of the current algebra's t-grading.  Its
    kernel is zero because every eigenvalue is a positive integer."""
    product = current.product
    return Cocycle(adjoint(product), _scaling_derivation(product))


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
    if not verify_grading(algebra):
        raise InvalidGrading("current_algebra_faithful_rep requires a valid grading")
    if algebra.dim == 0:
        return Representation(algebra, 0, [])
    n = 1 + algebra.grading.max_degree
    current = current_algebra(algebra, n)
    embedding = graded_embedding(algebra, current)
    phi = euler_derivation(current)
    extended = cocycle_extension_rep(phi)
    return restrict_along(extended, embedding)

