"""Exact sparse linear algebra over the rationals.

Matrices are stored as sparse row maps of ``fractions.Fraction`` entries and
treated as immutable after construction.  Every row reduction runs on
integers through one fraction-free step, ``_eliminate``: a row is
cross-multiplied with a pivot row, row <- (a/g) row - (f/g) pivot_row, and
a scaled row with entries past ``_WIDE_BITS`` bits is divided by the gcd of
its entries; a narrower one carries that factor until it is stored
primitive.  ``SpanBasis``, the
incremental span used by the exact checks and by orbit closures, keeps an
echelon map {lead: primitive integer row} built by that step.  ``rref``,
``kernel_basis``, the solves and ``Subspace`` scale each nonzero row to
integers by the lcm of its denominators, insert it into the same kind of
echelon map, run one back-substitution pass from the highest lead down, and
divide each row by its pivot into Fractions.  The RREF of a row space is
unique, so all outputs are canonical and two runs on equal inputs are
bit-identical; ``kernel_basis`` hands it the columns in reverse, so that
its null vectors come out canonical with no second elimination.  No
floating point anywhere.  ``integer_form`` writes a matrix as integer
numerators over one common denominator, and ``mul_rowmaps``, the sparse
product, runs on those as well, so exact checks can multiply without
building a Fraction per entry.  The commutator check
(``reps.is_homomorphism``) packs its own integer rows into big integers
and does not call it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DimensionMismatch, KernelNotContained, NotLinearlyIndependent, NotNilpotent

F0 = Fraction(0)
F1 = Fraction(1)

Vector = tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"p/q"``, and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(F1 if j == i else F0 for j in range(n))


def dense_vector(coeffs: Mapping[int, Fraction], n: int) -> Vector:
    """The length-n vector with the given sparse {index: coefficient} entries."""
    out = [F0] * n
    for k, v in coeffs.items():
        out[k] = v
    return tuple(out)


def zero_vector(n: int) -> Vector:
    return (F0,) * n


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


class RationalMatrix:
    """Sparse exact-rational matrix in row-major coordinate form.

    Internal storage is ``{row: {col: Fraction}}`` with no zero values and no
    empty rows, so equality of the maps is equality of matrices.
    """

    __slots__ = ("rows", "cols", "_data", "_integer_form")

    def __init__(self, rows: int, cols: int, data: dict[int, dict[int, Fraction]]):
        # Takes ownership of `data`; callers go through the classmethods.
        self.rows = rows
        self.cols = cols
        self._data = data
        self._integer_form = None

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {i: {i: F1} for i in range(n)})

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[tuple[int, int, object]]) -> "RationalMatrix":
        data: dict[int, dict[int, Fraction]] = {}
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise DimensionMismatch(f"entry ({r},{c}) outside {rows}x{cols}")
            fv = frac(v)
            if fv == 0:
                continue
            row = data.setdefault(r, {})
            old = row.get(c)
            if old is None:
                row[c] = fv
                continue
            nv = old + fv
            if nv:
                row[c] = nv
            else:
                del row[c]
                if not row:
                    del data[r]
        return cls(rows, cols, data)

    @classmethod
    def from_rows(cls, dense: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        return cls.from_entries(
            rows, cols, ((r, c, v) for r, rowvals in enumerate(dense) for c, v in enumerate(rowvals))
        )

    @classmethod
    def from_columns(cls, ambient: int, columns: Sequence[Sequence]) -> "RationalMatrix":
        return cls.from_entries(
            ambient, len(columns), ((r, j, v) for j, col in enumerate(columns) for r, v in enumerate(col))
        )

    def entry(self, r: int, c: int) -> Fraction:
        return self._data.get(r, {}).get(c, F0)

    def entries(self) -> Iterator[tuple[int, int, Fraction]]:
        """Sorted row-major stream of the nonzero entries."""
        for r in sorted(self._data):
            row = self._data[r]
            for c in sorted(row):
                yield r, c, row[c]

    def nnz(self) -> int:
        return sum(len(row) for row in self._data.values())

    def is_zero(self) -> bool:
        return not self._data

    def row_map(self, r: int) -> dict[int, Fraction]:
        return self._data.get(r, {})

    def column(self, j: int) -> Vector:
        return tuple(self._data.get(r, {}).get(j, F0) for r in range(self.rows))

    def transpose(self) -> "RationalMatrix":
        data: dict[int, dict[int, Fraction]] = {}
        for r, row in self._data.items():
            for c, v in row.items():
                data.setdefault(c, {})[r] = v
        return RationalMatrix(self.cols, self.rows, data)

    def scale(self, factor) -> "RationalMatrix":
        f = frac(factor)
        if f == 0:
            return RationalMatrix.zero(self.rows, self.cols)
        data = {r: {c: f * v for c, v in row.items()} for r, row in self._data.items()}
        return RationalMatrix(self.rows, self.cols, data)

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-1)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        # Rows are shared until a row of other lands on them; a value at an
        # absent position is stored as it is, without adding it to zero.
        data = dict(self._data)
        for r, row in other._data.items():
            target = data.get(r)
            if target is None:
                data[r] = row
                continue
            target = data[r] = dict(target)
            for c, v in row.items():
                old = target.get(c)
                if old is None:
                    target[c] = v
                    continue
                nv = old + v
                if nv:
                    target[c] = nv
                else:
                    del target[c]
            if not target:
                del data[r]
        return RationalMatrix(self.rows, self.cols, data)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return RationalMatrix(self.rows, other.cols, mul_rowmaps(self._data, other._data))

    def integer_form(self) -> tuple[dict[int, dict[int, int]], int]:
        """(N, d) with self == N / d: d is the lcm of the entry denominators
        and N the ``{row: {col: int}}`` map of numerators over d.

        Built on the first call and returned as the same object after that,
        so every caller shares N and must not mutate it.
        """
        if self._integer_form is None:
            d = lcm(*{v.denominator for row in self._data.values() for v in row.values()})
            numerators = {
                r: {c: v.numerator * (d // v.denominator) for c, v in row.items()} for r, row in self._data.items()
            }
            self._integer_form = numerators, d
        return self._integer_form

    def apply(self, vec: Sequence[Fraction]) -> Vector:
        """Matrix-vector product as a dense tuple."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        out = [F0] * self.rows
        for r, row in self._data.items():
            s = F0
            for c, v in row.items():
                x = vec[c]
                if x:
                    s += v * x
            out[r] = s
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._data == other._data

    __hash__ = None  # mutable-looking container semantics; use entries() if needed

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


def mul_rowmaps(a: dict[int, dict], b: dict[int, dict]) -> dict[int, dict]:
    """Sparse product of two ``{row: {col: value}}`` maps, on ints or
    Fractions alike; entries that cancel and rows left empty are dropped."""
    out: dict[int, dict] = {}
    for r, row in a.items():
        accum: dict = {}
        get = accum.get
        for k, x in row.items():
            brow = b.get(k)
            if not brow:
                continue
            for c, y in brow.items():
                old = get(c)
                nv = x * y if old is None else old + x * y
                if nv:
                    accum[c] = nv
                else:
                    del accum[c]
        if accum:
            out[r] = accum
    return out


def hstack(blocks: Sequence[RationalMatrix]) -> RationalMatrix:
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise DimensionMismatch("hstack row mismatch")
    data: dict[int, dict[int, Fraction]] = {}
    offset = 0
    for b in blocks:
        for r, row in b._data.items():
            target = data.setdefault(r, {})
            for c, v in row.items():
                target[c + offset] = v
        offset += b.cols
    return RationalMatrix(rows, offset, data)


def block_diag(blocks: Sequence[RationalMatrix]) -> RationalMatrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    data: dict[int, dict[int, Fraction]] = {}
    ro = co = 0
    for b in blocks:
        for r, row in b._data.items():
            data[r + ro] = {c + co: v for c, v in row.items()}
        ro += b.rows
        co += b.cols
    return RationalMatrix(rows, cols, data)


def kronecker(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Kronecker product: entry ((i*rB+k),(j*cB+l)) = A[i,j]*B[k,l].

    Multiplying by 1 cannot change a value, so where an entry of A equals 1
    the row of B is copied, and where a row of B holds only ones the entry
    of A is copied; the identity factors of a tensor product cost no
    arithmetic.
    """
    rb, cb = b.rows, b.cols
    brows = [(k, brow, all(v == 1 for v in brow.values())) for k, brow in b._data.items()]
    data: dict[int, dict[int, Fraction]] = {}
    for i, arow in a._data.items():
        aitems = [(j * cb, av, av == 1) for j, av in arow.items()]
        for k, brow, b_ones in brows:
            target: dict[int, Fraction] = {}
            for base, av, a_one in aitems:
                if a_one:
                    for l, bv in brow.items():
                        target[base + l] = bv
                elif b_ones:
                    for l in brow:
                        target[base + l] = av
                else:
                    for l, bv in brow.items():
                        target[base + l] = av * bv
            data[i * rb + k] = target
    return RationalMatrix(a.rows * rb, a.cols * cb, data)


# --- row reduction -------------------------------------------------------

# Below this many bits an int costs about what a machine word does.  Dense
# rational systems grow far past it and need the common factor divided out
# at each step; the span rows of conjugated representations stay below it
# and run faster carrying theirs.
_WIDE_BITS = 512


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> None:
    """Clear column c of ``row``, in place, with the pivot row ``prow``.

    row <- (a/g) row - (f/g) prow, where a is prow's entry at c, f the
    row's and g = gcd(a, f): no division.  Scaling leaves a common factor
    in the row.  A row so scaled (a/g != 1) whose f has more than
    ``_WIDE_BITS`` bits is divided by the gcd of its entries, so wide
    entries do not compound from step to step.  A narrower row keeps its
    factor: its arithmetic costs about what the gcd pass would, and
    ``_insert`` divides the factor out once, when it stores the row.  The
    entries must be ints; a Fraction raises ``TypeError`` at the first gcd.
    """
    a = prow[c]
    f = row[c]
    g = gcd(a, f)
    wide = f.bit_length() > _WIDE_BITS
    if g != 1:
        a //= g
        f //= g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, v in prow.items():
        old = row.get(k)
        if old is None:
            row[k] = -(f * v)
            continue
        nv = old - f * v
        if nv:
            row[k] = nv
        else:
            del row[k]
    if a != 1 and wide and row:
        g = gcd(*row.values())
        if g != 1:
            for k in row:
                row[k] //= g


def _reduce(echelon: dict[int, dict[int, int]], row: dict[int, int]) -> dict[int, int]:
    """Reduce ``row`` in place while its leading column leads an echelon
    row; the residual is the input up to a nonzero integer factor, minus a
    combination of echelon rows."""
    while row:
        lead = min(row)
        prow = echelon.get(lead)
        if prow is None:
            break
        _eliminate(row, prow, lead)
    return row


def _insert(echelon: dict[int, dict[int, int]], row: dict[int, int]) -> bool:
    """Reduce ``row`` in place and store a fresh copy of the residual, made
    primitive with a positive lead, under its lead (a dict that has lost
    entries iterates slower); True if it enlarged the span."""
    _reduce(echelon, row)
    if not row:
        return False
    lead = min(row)
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    echelon[lead] = {k: v // g for k, v in row.items()} if g != 1 else dict(row)
    return True


def _rref_rowdicts(rowdicts: Sequence[dict]) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Pivot rows and pivot columns of the reduced row echelon form.

    The input rows hold ints or Fractions and are left untouched.  Each
    nonzero row is copied as integers, scaled by the lcm of its
    denominators, and inserted into an echelon map as ``SpanBasis`` does.
    One back-substitution pass, from the highest lead down, then clears
    each row at the leads above its own with the same step; those rows are
    already zero at every other lead, so no step brings an entry back.
    The RREF of a row space is unique, so the rows returned (one per
    pivot, in pivot order, divided by their pivot into Fractions) are the
    canonical RREF whatever order the rows came in.
    """
    echelon: dict[int, dict[int, int]] = {}
    for r in rowdicts:
        if r:
            d = lcm(*[v.denominator for v in r.values()])
            if d == 1:
                _insert(echelon, {k: v.numerator for k, v in r.items()})
            else:
                _insert(echelon, {k: v.numerator * (d // v.denominator) for k, v in r.items()})
    pivots = sorted(echelon)
    out = []
    for p in reversed(pivots):
        row = echelon[p]
        for q in [k for k in row if k != p and k in echelon]:
            _eliminate(row, echelon[q], q)
        pv = row[p]
        out.append({k: Fraction(v, pv) for k, v in row.items()})
    out.reverse()
    return out, pivots


def _matrix_rowdicts(m: RationalMatrix) -> list[dict[int, Fraction]]:
    """The stored (nonzero) rows of m in row order, not copied."""
    return [m._data[r] for r in sorted(m._data)]


def rref(m: RationalMatrix) -> tuple[RationalMatrix, list[int], int]:
    """Reduced row echelon form, pivot columns, and rank."""
    rows, pivots = _rref_rowdicts(_matrix_rowdicts(m))
    return RationalMatrix(m.rows, m.cols, dict(enumerate(rows))), pivots, len(pivots)


def rank(m: RationalMatrix) -> int:
    return rref(m)[2]


class Subspace:
    """A subspace of Q^n in canonical column-reduced echelon form.

    The stored basis columns are the nonzero rows of the RREF of any spanning
    set, so equal subspaces always compare equal.  ``_rows``/``_pivots`` keep
    the echelon rows for fast membership reduction.  A Subspace is immutable,
    so its basis matrix, and the basis's rows off the pivots, are built on
    first use and then kept.
    """

    __slots__ = ("ambient_dim", "_rows", "_pivots", "_basis", "_off_pivot")

    def __init__(self, ambient_dim: int, rows: list[dict[int, Fraction]], pivots: list[int]):
        self.ambient_dim = ambient_dim
        self._rows = rows
        self._pivots = pivots
        self._basis: RationalMatrix | None = None
        self._off_pivot: RationalMatrix | None = None

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        rowdicts = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("spanning vector has wrong length")
            # an entry is converted before its zero test, so "0/5" is dropped
            # too; the truth test first skips 0 and F0 without a call
            rowdicts.append({i: y for i, x in enumerate(v) if x and (y := x if type(x) is int else frac(x))})
        return cls(ambient_dim, *_rref_rowdicts(rowdicts))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [], [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [{i: F1} for i in range(ambient_dim)], list(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self._pivots)

    @property
    def basis(self) -> RationalMatrix:
        """Basis matrix; column j is the j-th canonical basis vector.

        Built once per Subspace and shared by every later read (as by the
        ``restricted_action`` calls that read one representation's actions
        on a submodule); like every RationalMatrix it must not be mutated.
        """
        if self._basis is None:
            data: dict[int, dict[int, Fraction]] = {}
            for j, row in enumerate(self._rows):
                for i, v in row.items():
                    data.setdefault(i, {})[j] = v
            self._basis = RationalMatrix(self.ambient_dim, self.dim, data)
        return self._basis

    def basis_vectors(self) -> list[Vector]:
        return [tuple(row.get(i, F0) for i in range(self.ambient_dim)) for row in self._rows]

    def coordinates_of(self, v: Sequence[Fraction]) -> Vector | None:
        """Coefficients of v in the canonical basis, or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        residual = {i: frac(x) for i, x in enumerate(v) if x}
        coords = []
        for p, row in zip(self._pivots, self._rows):
            c = residual.get(p, F0)
            coords.append(c)
            if c:
                for k, w in row.items():
                    old = residual.get(k)
                    if old is None:
                        residual[k] = -(c * w)
                        continue
                    nv = old - c * w
                    if nv:
                        residual[k] = nv
                    else:
                        del residual[k]
        if residual:
            return None
        return tuple(coords)

    def restricted_action(self, m: RationalMatrix) -> RationalMatrix | None:
        """The X with m @ basis == basis @ X, or None when m does not map
        the subspace into itself.

        The basis columns are the RREF rows, so basis row p_j is the j-th
        unit row and X is read off at the pivot rows of m @ basis; there
        basis @ X equals m @ basis by construction.  One exact product of
        the basis rows off the pivots with X confirms the other rows.
        """
        if m.rows != self.ambient_dim or m.cols != self.ambient_dim:
            raise DimensionMismatch("restricted_action expects a square matrix on the ambient space")
        basis = self.basis
        image = m @ basis
        data = {j: image._data[p] for j, p in enumerate(self._pivots) if p in image._data}
        x = RationalMatrix(self.dim, self.dim, data)
        pivot_set = set(self._pivots)
        if self._off_pivot is None:
            rest = {r: row for r, row in basis._data.items() if r not in pivot_set}
            self._off_pivot = RationalMatrix(self.ambient_dim, self.dim, rest)
        off_image = {r: row for r, row in image._data.items() if r not in pivot_set}
        return x if self._off_pivot @ x == RationalMatrix(self.ambient_dim, self.dim, off_image) else None

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return self.coordinates_of(v) is not None

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        return all(self.contains_vector(v) for v in other.basis_vectors())

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient_dim, self.basis_vectors() + other.basis_vectors())

    def intersect(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        if self.dim == self.ambient_dim:
            return other
        if other.dim == other.ambient_dim:
            return self
        # (u, w) in Ker [A | B] gives Au = -Bw, a vector of both spans, and
        # every such vector arises this way, so B need not be negated
        a, b = self.basis, other.basis
        null = kernel_basis(hstack([a, b]))
        vectors = []
        for w in null.basis_vectors():
            vectors.append(a.apply(w[: a.cols]))
        return Subspace.from_vectors(self.ambient_dim, vectors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self._pivots == other._pivots
            and self._rows == other._rows
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of Q^{self.ambient_dim})"


def kernel_basis(m: RationalMatrix) -> Subspace:
    """Null space of m as a canonical Subspace of Q^cols, in one elimination.

    The columns are eliminated right to left (column c is handed to
    ``_rref_rowdicts`` as column cols - 1 - c), so every reduced row is 1 at
    its pivot p, zero at the other pivots, and nonzero elsewhere only at
    free columns left of p.  The null vector of a free column f is 1 at f
    minus that column of each reduced row at the row's pivot: its entries
    other than f sit at pivots right of f, and it is zero at every other
    free column.  These vectors are therefore already the canonical echelon
    basis of the null space, with the free columns as pivots.
    """
    last = m.cols - 1
    flipped = [{last - c: v for c, v in row.items()} for row in _matrix_rowdicts(m)]
    rows, flipped_pivots = _rref_rowdicts(flipped)
    pivot_set = {last - q for q in flipped_pivots}
    null = {free: {free: F1} for free in range(m.cols) if free not in pivot_set}
    for row, q in zip(rows, flipped_pivots):
        p = last - q
        for k, v in row.items():
            if k != q:
                null[last - k][p] = -v
    return Subspace(m.cols, list(null.values()), list(null))


def solve_multi(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix | None:
    """One X with A @ X = B, or None if inconsistent.

    Free variables are set to zero, so the solution is canonical.
    """
    if a.rows != b.rows:
        raise DimensionMismatch("solve: row counts differ")
    aug = hstack([a, b])
    rows, pivots = _rref_rowdicts(_matrix_rowdicts(aug))
    n = a.cols
    data: dict[int, dict[int, Fraction]] = {}
    for j, p in enumerate(pivots):
        if p >= n:
            return None  # pivot in the right-hand block: inconsistent
        row = {c - n: v for c, v in rows[j].items() if c >= n}
        if row:
            data[p] = row
    return RationalMatrix(n, b.cols, data)


def solve(a: RationalMatrix, b: Sequence[Fraction]) -> Vector | None:
    """One x with A @ x = b, or None; free variables set to zero."""
    if len(b) != a.rows:
        raise DimensionMismatch("solve: right-hand side has wrong length")
    bm = RationalMatrix.from_entries(a.rows, 1, ((i, 0, v) for i, v in enumerate(b)))
    x = solve_multi(a, bm)
    if x is None:
        return None
    return x.column(0)


def factor_through(f: RationalMatrix, g: RationalMatrix) -> RationalMatrix:
    """The canonical h with h @ f = g, assuming Ker f is contained in Ker g.

    h sends f(e_p) to g(e_p) on the pivot columns p of f and kills a fixed
    complement of Im f (the standard basis vectors at the non-pivot
    coordinates of the column space).  Raises KernelNotContained when the
    kernel inclusion fails.
    """
    if f.rows != f.cols or g.rows != g.cols or f.rows != g.rows:
        raise DimensionMismatch("factor_through expects equal-size square matrices")
    n = f.rows
    for v in kernel_basis(f).basis_vectors():
        if not vec_is_zero(g.apply(v)):
            raise KernelNotContained("Ker f is not contained in Ker g")
    _, pivot_cols, _ = rref(f)
    image = Subspace.from_vectors(n, [f.column(j) for j in range(n)])
    complement = [i for i in range(n) if i not in set(image._pivots)]
    lhs_cols = [f.column(p) for p in pivot_cols] + [unit_vector(n, i) for i in complement]
    rhs_cols = [g.column(p) for p in pivot_cols] + [zero_vector(n) for _ in complement]
    lhs = RationalMatrix.from_columns(n, lhs_cols)
    rhs = RationalMatrix.from_columns(n, rhs_cols)
    ht = solve_multi(lhs.transpose(), rhs.transpose())
    if ht is None:
        raise NotLinearlyIndependent("pivot columns of f and the complement of Im f do not form a basis")
    return ht.transpose()


def nilpotency_index(m: RationalMatrix) -> int:
    """Smallest n >= 1 with m**n = 0; NotNilpotent if no such n <= size."""
    if m.rows != m.cols:
        raise DimensionMismatch("nilpotency_index expects a square matrix")
    if m.is_zero():
        return 1
    power = m
    for n in range(2, m.rows + 1):
        power = power @ m
        if power.is_zero():
            return n
    raise NotNilpotent(f"matrix of size {m.rows} is not nilpotent")


class SpanBasis:
    """Incremental echelon basis of sparse integer vectors, for span closures.

    Every stored row is primitive (its entries have gcd 1) with a positive
    lead, and reduction runs ``_eliminate``, which cross-multiplies: no
    Fraction is built, and a Fraction that reaches a gcd step raises
    ``TypeError``.  A residual is the input reduced up to a nonzero integer
    factor, which changes no span.  The inputs are copied, never mutated.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: dict[int, dict[int, int]] = {}  # lead -> primitive row

    def add(self, vec: dict[int, int]) -> bool:
        """Add a vector; True if it enlarged the span."""
        return _insert(self._rows, dict(vec))

    def rows(self) -> list[dict[int, int]]:
        """The stored primitive rows, a basis of the span."""
        return list(self._rows.values())

    @property
    def dim(self) -> int:
        return len(self._rows)
