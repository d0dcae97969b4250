"""Structure-constant Lie algebras over Q.

A LieAlgebra stores brackets sparsely for index pairs i < j only, so
antisymmetry holds by construction; the Jacobi identity is checked by
``validate``.  Quotients, the center, central series, and the codimension-one
ideal refinement used by the construction engine all live here.  ``LieHom``
is a typed value; the engine proves the homomorphism identity once, on its
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    NotAnIdeal,
    NotNilpotent,
    ZeroIdeal,
)
from .linalg import (
    F1,
    RationalMatrix,
    Subspace,
    Vector,
    dense_vector,
    frac,
    kernel_basis,
)

BracketTable = dict[tuple[int, int], dict[int, Fraction]]


@dataclass(frozen=True)
class Grading:
    """Positive integer degree per basis index."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        if any(d < 1 for d in self.degrees):
            raise ValueError("grading degrees must be positive integers")

    @property
    def max_degree(self) -> int:
        return max(self.degrees) if self.degrees else 0


class LieAlgebra:
    """Finite-dimensional Lie algebra presented by structure constants."""

    __slots__ = ("dim", "labels", "brackets", "grading")

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, object]],
        labels: Sequence[str] | None = None,
        grading: Grading | None = None,
    ):
        self.dim = dim
        table: BracketTable = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket pair ({i},{j}) must satisfy 0 <= i < j < dim")
            row = {}
            for k, v in coeffs.items():
                k = int(k)
                if not 0 <= k < dim:
                    raise ValueError(f"bracket target index {k} out of range")
                fv = frac(v)
                if fv:
                    row[k] = fv
            if row:
                table[(i, j)] = row
        self.brackets = table
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("label count must equal dim")
        self.labels = labels
        if grading is not None and len(grading.degrees) != dim:
            raise ValueError("grading length must equal dim")
        self.grading = grading

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i}"

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a sparse coefficient dict."""
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        return {k: -v for k, v in self.brackets.get((j, i), {}).items()}

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        """Bilinear extension of the structure constants, on dense vectors.

        Only the nonzero coordinates of u and v are visited
        (``sparse_bracket``), so the cost follows their nonzero pairs, not
        the size of the structure-constant table.
        """
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("bracket operands must have length dim")
        su = {i: x for i, x in enumerate(u) if x}
        sv = {j: y for j, y in enumerate(v) if y}
        return dense_vector(self.sparse_bracket(su, sv), self.dim)

    def sparse_bracket(self, u: Mapping[int, Fraction], v: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """[u, v] for sparse ``{index: coefficient}`` operands, as a sparse
        dict without zeros: the sum over nonzero pairs u_i v_j of
        +-brackets[(min(i, j), max(i, j))]."""
        table = self.brackets
        out: dict[int, Fraction] = {}
        get = out.get
        for i, x in u.items():
            for j, y in v.items():
                if i < j:
                    coeffs = table.get((i, j))
                    if coeffs is None:
                        continue
                    c = x * y
                elif i > j:
                    coeffs = table.get((j, i))
                    if coeffs is None:
                        continue
                    c = -x * y
                else:
                    continue
                for k, val in coeffs.items():
                    old = get(k)
                    out[k] = c * val if old is None else old + c * val
        return {k: val for k, val in out.items() if val}

    def structurally_equal(self, other: "LieAlgebra") -> bool:
        """Same dimension and structure constants; labels and grading are ignored."""
        return self is other or (self.dim == other.dim and self.brackets == other.brackets)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.brackets)})"


@dataclass
class ValidationReport:
    """Jacobi violations as (i, j, k, residual) tuples; empty means valid."""

    dim: int
    jacobi_violations: list[tuple[int, int, int, Vector]]
    grading_ok: bool | None  # None when the algebra carries no grading

    @property
    def ok(self) -> bool:
        return not self.jacobi_violations and self.grading_ok is not False


def validate(algebra: LieAlgebra) -> ValidationReport:
    """Check the Jacobi identity on all basis triples (and grading if present)."""
    violations = []
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                residual = _jacobi_residual(algebra, i, j, k)
                if residual is not None:
                    violations.append((i, j, k, residual))
    grading_ok = verify_grading(algebra) if algebra.grading is not None else None
    return ValidationReport(n, violations, grading_ok)


def _jacobi_residual(algebra: LieAlgebra, i: int, j: int, k: int) -> Vector | None:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] as a dense vector,
    or None when it is zero; the sum runs on a sparse dict."""
    acc: dict[int, Fraction] = {}
    get = acc.get
    for (a, b), c in (((i, j), k), ((j, k), i), ((k, i), j)):
        for m, coeff in algebra.bracket_basis(a, b).items():
            for t, oc in algebra.bracket_basis(m, c).items():
                old = get(t)
                acc[t] = coeff * oc if old is None else old + coeff * oc
    residual = {t: v for t, v in acc.items() if v}
    return dense_vector(residual, algebra.dim) if residual else None


def verify_grading(algebra: LieAlgebra) -> bool:
    """True iff the algebra carries a grading and every bracket is
    degree-additive for it."""
    if algebra.grading is None:
        return False
    deg = algebra.grading.degrees
    for (i, j), coeffs in algebra.brackets.items():
        target = deg[i] + deg[j]
        if any(deg[k] != target for k in coeffs):
            return False
    return True


def center(algebra: LieAlgebra) -> Subspace:
    """{x : [x, L] = 0}, solved as the kernel of the stacked adjoint system."""
    n = algebra.dim
    entries = []
    for (i, j), coeffs in algebra.brackets.items():
        for k, v in coeffs.items():
            entries.append((j * n + k, i, v))   # x_i * [e_i, e_j]
            entries.append((i * n + k, j, -v))  # x_j * [e_j, e_i]
    return kernel_basis(RationalMatrix.from_entries(n * n, n, entries))


def _bracket_span(algebra: LieAlgebra, space: Subspace) -> Subspace:
    """[L, space] as a subspace.

    Each echelon row of ``space`` is bracketed sparsely with every basis
    vector e_i; only the nonzero brackets are made dense, for
    ``Subspace.from_vectors``.
    """
    n = algebra.dim
    vectors = []
    for row in space._rows:
        for i in range(n):
            v = algebra.sparse_bracket({i: F1}, row)
            if v:
                vectors.append(dense_vector(v, n))
    return Subspace.from_vectors(n, vectors)


def lower_central_series(algebra: LieAlgebra) -> list[Subspace]:
    """L >= [L,L] >= [L,[L,L]] >= ... up to (and including) stabilization."""
    terms = [Subspace.full(algebra.dim)]
    while True:
        nxt = _bracket_span(algebra, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
        if nxt.dim == 0:
            break
    return terms


def nilpotency_class(algebra: LieAlgebra) -> int:
    series = lower_central_series(algebra)
    if series[-1].dim != 0:
        raise NotNilpotent("lower central series stabilizes at a nonzero term")
    return len(series) - 1


def derived_subalgebra(algebra: LieAlgebra) -> Subspace:
    """[L, L], the span of the brackets [e_i, e_j] in the table."""
    n = algebra.dim
    return Subspace.from_vectors(n, [dense_vector(v, n) for v in algebra.brackets.values()])


def minimal_generator_count(algebra: LieAlgebra) -> int:
    return algebra.dim - derived_subalgebra(algebra).dim


def is_ideal(algebra: LieAlgebra, space: Subspace) -> bool:
    """[L, space] contained in space, checked basis vs basis: each echelon
    row is bracketed sparsely with every e_i, and only nonzero brackets are
    made dense for the membership test."""
    n = algebra.dim
    if space.ambient_dim != n:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    for row in space._rows:
        for i in range(n):
            v = algebra.sparse_bracket({i: F1}, row)
            if v and not space.contains_vector(dense_vector(v, n)):
                return False
    return True


class LieHom:
    """A linear map between Lie algebras (column i is the image of e_i)
    whose builder promises that it is a homomorphism, as for
    ``Representation``; only the shape is checked.  ``quotient``, ``present``,
    ``graded_embedding`` and the engine's transport build homomorphisms by
    construction, and the engine proves its output once, at its boundary.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: LieAlgebra, target: LieAlgebra, matrix: RationalMatrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise DimensionMismatch("LieHom matrix must be target.dim x source.dim")
        self.source = source
        self.target = target
        self.matrix = matrix

    def __repr__(self) -> str:
        return f"LieHom({self.source.dim} -> {self.target.dim})"


@dataclass
class IdealChain:
    """Ascending flag of ideals with codimension-1 steps and [L, I_i] <= I_{i-1}."""

    algebra: LieAlgebra
    ideals: list[Subspace]


def quotient(algebra: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, LieHom]:
    """Quotient algebra on the complement coordinates of the ideal's echelon
    basis, together with the surjective projection."""
    if not is_ideal(algebra, ideal):
        raise NotAnIdeal("quotient requires an ideal")
    n = algebra.dim
    pivot_set = set(ideal._pivots)
    complement = [i for i in range(n) if i not in pivot_set]
    q = len(complement)
    if ideal.dim == 0:
        proj_matrix = RationalMatrix.identity(n)
        quo = LieAlgebra(n, algebra.brackets, labels=algebra.labels, grading=algebra.grading)
        return quo, LieHom(algebra, quo, proj_matrix)
    # x = B a + E_Q b uniquely.  Each echelon row of B is 1 at its own pivot
    # and 0 at the others, so a = x at the pivots and b = x_Q - B_Q a: row j
    # of the projection is 1 at complement[j] and -B[complement[j], p] at
    # each pivot p.
    position = {c: j for j, c in enumerate(complement)}
    entries = [(j, c, F1) for j, c in enumerate(complement)]
    for p, row in zip(ideal._pivots, ideal._rows):
        entries.extend((position[c], p, -v) for c, v in row.items() if c != p)
    proj_matrix = RationalMatrix.from_entries(q, n, sorted(entries))
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(q):
        for b in range(a + 1, q):
            v = algebra.bracket_basis(complement[a], complement[b])
            img = proj_matrix.apply(dense_vector(v, n))
            coeffs = {k: val for k, val in enumerate(img) if val}
            if coeffs:
                table[(a, b)] = coeffs
    labels = tuple(algebra.label(i) for i in complement) if q else None
    quo = LieAlgebra(q, table, labels=labels)
    return quo, LieHom(algebra, quo, proj_matrix)


def central_flag(algebra: LieAlgebra) -> IdealChain:
    """Full flag 0 = I_0 < I_1 < ... < I_n = L with codim-1 steps and
    [L, I_i] <= I_{i-1}, built by pivot-completing the lower central series."""
    series = lower_central_series(algebra)
    if series[-1].dim != 0:
        raise NotNilpotent("algebra is not nilpotent")
    chain = [Subspace.zero(algebra.dim)]
    # Walk the series from the deepest nonzero term back up to L; every
    # intermediate subspace between consecutive terms is an ideal because the
    # layer quotients are central.
    for layer in reversed(series):
        current = chain[-1]
        for v in layer.basis_vectors():
            if not current.contains_vector(v):
                current = current.add(Subspace.from_vectors(algebra.dim, [v]))
                chain.append(current)
    return IdealChain(algebra, chain)


def codim1_refinement(
    algebra: LieAlgebra, ideal: Subspace, flag: IdealChain | None = None
) -> Subspace:
    """An ideal J < I with dim I - dim J = 1 and [L, I] <= J, obtained by
    intersecting I with the central flag just below the first flag member
    containing I.  ``flag`` is ``central_flag(algebra)``, computed here when
    the caller does not pass it; a flag that is not a full flag of
    ``algebra`` raises ``AlgebraMismatch``."""
    if ideal.dim == 0:
        raise ZeroIdeal("refinement requires a nonzero ideal")
    if not is_ideal(algebra, ideal):
        raise NotAnIdeal("refinement requires an ideal")
    if flag is None:
        flag = central_flag(algebra)
    elif not flag.algebra.structurally_equal(algebra):
        raise AlgebraMismatch("flag belongs to a different algebra")
    k = next((idx for idx, member in enumerate(flag.ideals) if member.contains(ideal)), None)
    if k is None or k == 0:
        raise AlgebraMismatch("flag is not a full flag 0 = I_0 < ... < I_n = L of the algebra")
    return ideal.intersect(flag.ideals[k - 1])
