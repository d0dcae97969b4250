"""Structure-constant Lie algebras over Q.

A LieAlgebra stores brackets sparsely for index pairs i < j only, so
antisymmetry holds by construction; the Jacobi identity is checked by
``validate``.  Quotients, the center, central series, and the codimension-one
ideal refinement used by the construction engine all live here.  Every walk
over the structure constants (``validate``, the bracket spans behind the
central series, ``is_ideal``, ``is_central``, ``center`` and ``quotient``'s
new table) runs on one integer form of the table, ``LieAlgebra.integer_form``,
built once per algebra and shared; only the values they hand on are Fractions.
``LieHom`` is a typed value; the engine proves the homomorphism identity
once, on its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    NotAnIdeal,
    NotNilpotent,
    ZeroIdeal,
    quoted,
)
from .linalg import (
    F1,
    RationalMatrix,
    Subspace,
    Vector,
    _integer_row,
    dense_vector,
    frac,
    kernel_basis,
)

BracketTable = dict[tuple[int, int], dict[int, Fraction]]


@dataclass(frozen=True)
class Grading:
    """Positive integer degree per basis index.  A degree must be an
    ``int`` itself: a bool, a float, a string or a Fraction is refused, as
    ``LieAlgebra`` refuses such an index."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        if any(type(d) is not int or d < 1 for d in self.degrees):
            raise ValueError("grading degrees must be positive ints")

    @property
    def max_degree(self) -> int:
        return max(self.degrees) if self.degrees else 0


class LieAlgebra:
    """Finite-dimensional Lie algebra presented by structure constants.

    ``brackets`` maps each pair i < j with a nonzero bracket to [e_i, e_j]
    as ``{k: Fraction}`` without zeros.  It is immutable after construction:
    ``integer_form`` is built from it once and shared by every later walk.
    """

    __slots__ = ("dim", "labels", "brackets", "grading", "_integer_form")

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
            if type(i) is not int or type(j) is not int or not (0 <= i < j < dim):
                raise ValueError(f"bracket pair ({quoted(i)},{quoted(j)}) must be ints with 0 <= i < j < dim")
            row = {}
            for k, v in coeffs.items():
                if type(k) is not int or not 0 <= k < dim:
                    raise ValueError(f"bracket target index {quoted(k)} must be an int in range")
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
        self._integer_form = None

    def integer_form(self) -> tuple[dict[int, dict[int, dict[int, int]]], int]:
        """(N, D) with brackets == N / D: D is the lcm of the denominators of
        the structure constants and N[i][j] the ``{k: int}`` numerators of
        [e_i, e_j] over D, for every stored pair in both orders ((j, i)
        negated), so a bracket with e_i is one lookup whatever the order,
        and N[i] holds just the stored brackets of e_i.

        Built on the first call and returned as the same object after that,
        like ``RationalMatrix.integer_form``; callers must not mutate it.
        """
        if self._integer_form is None:
            table = self.brackets
            d = lcm(*(v.denominator for coeffs in table.values() for v in coeffs.values()))
            numerators: dict[int, dict[int, dict[int, int]]] = {}
            for (i, j), coeffs in table.items():
                row = {k: v.numerator * (d // v.denominator) for k, v in coeffs.items()}
                numerators.setdefault(i, {})[j] = row
                numerators.setdefault(j, {})[i] = {k: -v for k, v in row.items()}
            self._integer_form = numerators, d
        return self._integer_form

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
    """Check the Jacobi identity on the basis triples (and grading if present).

    The sum for i < j < k, [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j],
    runs on the integer table N = D c (``LieAlgebra.integer_form``).  Its term
    [[e_a,e_b],e_c] is nonzero only if some m stored in [e_a,e_b] has c in
    N[m], so only those triples are visited, in (i, j, k) order.  The sum over
    N is D^2 times the rational one, and a nonzero residual is reported as
    Fraction(v, D^2), the same values the rational sum gives.
    """
    n = algebra.dim
    scaled, scale = algebra.integer_form()
    square = scale * scale
    empty: dict = {}
    violations = []
    triples = set()
    for (a, b), coeffs in algebra.brackets.items():
        reached = set().union(*(scaled.get(m, empty) for m in coeffs)) - {a, b}
        triples.update(tuple(sorted((a, b, c))) for c in reached)
    for i, j, k in sorted(triples):
        acc: dict[int, int] = {}
        get = acc.get
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, coeff in scaled.get(a, empty).get(b, empty).items():
                for t, oc in scaled.get(m, empty).get(c, empty).items():
                    acc[t] = get(t, 0) + coeff * oc
        residual = {t: Fraction(v, square) for t, v in acc.items() if v}
        if residual:
            violations.append((i, j, k, dense_vector(residual, n)))
    grading_ok = verify_grading(algebra) if algebra.grading is not None else None
    return ValidationReport(n, violations, grading_ok)


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
    """{x : [x, L] = 0}, solved as the kernel of the stacked adjoint system.

    Row j n + k holds the k-th coordinate of [x, e_j] = sum_i x_i [e_i, e_j],
    read off the integer table: scaling the system by D changes no kernel,
    and ``kernel_basis`` eliminates integer rows as they are.
    """
    n = algebra.dim
    rows: dict[int, dict[int, int]] = {}
    for i, brackets in algebra.integer_form()[0].items():
        for j, coeffs in brackets.items():
            for k, v in coeffs.items():
                rows.setdefault(j * n + k, {})[i] = v
    return kernel_basis(RationalMatrix(n * n, n, rows))


def _basis_brackets(algebra: LieAlgebra, row: Mapping[int, object]) -> list[dict[int, int]]:
    """The nonzero brackets [e_i, row], in order of i, each as its integer
    numerators B_i = -sum_j R_j N[j][i] on the integer table (N, D), for R
    the integer numerators of row (``_integer_row``): a positive multiple
    of the bracket, since [e_i, e_j] = -[e_j, e_i].  Only the stored
    brackets N[j] of the columns j that row holds are visited, so the cost
    follows those, not the dimension."""
    table = algebra.integer_form()[0]
    acc: dict[int, dict[int, int]] = {}
    for j, x in _integer_row(row)[0].items():
        for i, coeffs in table.get(j, {}).items():
            target = acc.setdefault(i, {})
            for k, c in coeffs.items():
                target[k] = target.get(k, 0) - x * c
    return [bracket for i in sorted(acc) if (bracket := {k: v for k, v in acc[i].items() if v})]


def is_central(algebra: LieAlgebra, x: Mapping[int, Fraction]) -> bool:
    """[e_i, x] = 0 for every i, for x as a sparse ``{index: coefficient}``."""
    return not _basis_brackets(algebra, x)


def _bracket_span(algebra: LieAlgebra, space: Subspace) -> Subspace:
    """[L, space] as a subspace.

    Each echelon row of ``space`` is bracketed with the basis vectors on
    the integer table (``_basis_brackets``), and the nonzero integer
    brackets go to ``Subspace.from_rows`` as they are: a multiple of a
    bracket spans the same line.
    """
    rows = []
    for row in space._rows:
        rows.extend(_basis_brackets(algebra, row))
    return Subspace.from_rows(algebra.dim, rows)


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
    """[L, L], the span of the sparse brackets [e_i, e_j] in the table."""
    return Subspace.from_rows(algebra.dim, algebra.brackets.values())


def minimal_generator_count(algebra: LieAlgebra) -> int:
    return algebra.dim - derived_subalgebra(algebra).dim


def is_ideal(algebra: LieAlgebra, space: Subspace) -> bool:
    """[L, space] contained in space, checked basis vs basis: each echelon
    row is bracketed with every e_i on the integer table
    (``_basis_brackets``), and each nonzero bracket, an integer multiple of
    the true one, must leave no residual against the echelon rows, in one
    pass of ``Subspace.residuals`` that stops at the first."""
    if space.ambient_dim != algebra.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    return not any(space.residuals(b for row in space._rows for b in _basis_brackets(algebra, row)))


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
    basis, together with the surjective projection.

    The new table is the projection of each stored bracket between
    complement coordinates, summed on integers: with P = M / d, read by
    columns (``integer_transpose``), and the table N / D, the image of
    N[(c_a, c_b)] under M over d D gives one Fraction per stored entry."""
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
    for p, row in zip(ideal._pivots, ideal.basis_rows()):
        entries.extend((position[c], p, -v) for c, v in row.items() if c != p)
    proj_matrix = RationalMatrix.from_entries(q, n, sorted(entries))
    columns, d = proj_matrix.integer_transpose()
    integer_table, scale = algebra.integer_form()
    denominator = d * scale
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j in sorted(pair for pair in algebra.brackets if pair[0] in position and pair[1] in position):
        acc: dict[int, int] = {}
        get = acc.get
        for k, x in integer_table[i][j].items():
            for r, y in columns.get(k, {}).items():
                acc[r] = get(r, 0) + x * y
        coeffs = {r: Fraction(v, denominator) for r, v in sorted(acc.items()) if v}
        if coeffs:
            table[(position[i], position[j])] = coeffs
    labels = tuple(algebra.label(i) for i in complement) if q else None
    quo = LieAlgebra(q, table, labels=labels)
    return quo, LieHom(algebra, quo, proj_matrix)


def central_flag(algebra: LieAlgebra) -> IdealChain:
    """Full flag 0 = I_0 < I_1 < ... < I_n = L with codim-1 steps and
    [L, I_i] <= I_{i-1}, built by pivot-completing the lower central series
    on its sparse echelon rows (``Subspace.residuals``, ``from_rows``)."""
    series = lower_central_series(algebra)
    if series[-1].dim != 0:
        raise NotNilpotent("algebra is not nilpotent")
    chain = [Subspace.zero(algebra.dim)]
    # Walk the series from the deepest nonzero term back up to L; every
    # intermediate subspace between consecutive terms is an ideal because the
    # layer quotients are central.
    for layer in reversed(series):
        for row in layer._rows:
            current = chain[-1]
            if next(current.residuals([row])):
                chain.append(Subspace.from_rows(algebra.dim, current._rows + [row]))
    return IdealChain(algebra, chain)


_NOT_A_FULL_FLAG = "flag is not a full flag 0 = I_0 < ... < I_n = L of the algebra"


def codim1_refinement(
    algebra: LieAlgebra, ideal: Subspace, flag: IdealChain | None = None
) -> Subspace:
    """An ideal J < I with dim I - dim J = 1 and [L, I] <= J: J = I meet
    I_(k-1), for I_k the first flag member containing I.  ``flag`` is a
    full flag 0 = I_0 < ... < I_n = L with [L, I_k] <= I_(k-1), such as
    ``central_flag(algebra)``, which is computed here when the caller does
    not pass one.

    J is one intersection (``Subspace.intersect``), taken in one
    elimination.  When I_(k-1) lies in I_k, which holds I, I + I_(k-1) is
    I_k and J has dimension dim I - 1.  A flag of another algebra, one
    with no member containing I, or one whose step at k is not of
    codimension 1 or leaves J smaller, is not a full flag and raises
    ``AlgebraMismatch``.
    """
    if ideal.dim == 0:
        raise ZeroIdeal("refinement requires a nonzero ideal")
    if not is_ideal(algebra, ideal):
        raise NotAnIdeal("refinement requires an ideal")
    if flag is None:
        flag = central_flag(algebra)
    elif not flag.algebra.structurally_equal(algebra):
        raise AlgebraMismatch("flag belongs to a different algebra")
    members = flag.ideals
    k = next((idx for idx, member in enumerate(members) if member.contains(ideal)), None)
    if k is None or k == 0 or members[k].dim - members[k - 1].dim != 1:
        raise AlgebraMismatch(_NOT_A_FULL_FLAG)
    cut = ideal.intersect(members[k - 1])
    if cut.dim != ideal.dim - 1:
        raise AlgebraMismatch(_NOT_A_FULL_FLAG)
    return cut
