"""Exact sparse linear algebra over the rationals.

Matrices are stored as sparse row maps of ``fractions.Fraction`` entries and
treated as immutable after construction.  Every row reduction runs on
integers through one fraction-free step, ``_eliminate``: a row is
cross-multiplied with a pivot row, row <- (a/g) row - (f/g) pivot_row, and
a scaled row with entries past ``_WIDE_BITS`` bits is divided by the gcd of
its entries; a narrower one carries that factor until it is stored
primitive.  ``SpanBasis`` is the one echelon: a map {lead: primitive
integer row} built by that step, whose ``reduced()`` runs one
back-substitution pass and gives the RREF as primitive integer rows, each
positive at its pivot and zero at every other pivot: unique for the row
space, so two runs on equal inputs are bit-identical.  Orbit closures and
the exact checks fill one row by row.  The one elimination path,
``_integer_rref``, first peels the single-entry rows in one pass
(``_peel``): a row whose one nonzero entry sits at column c makes c a
pivot with the unit row {c: 1}, and c is deleted from every other row.  It
inserts each row left, scaled to integers, into a ``SpanBasis`` holding
those unit rows and returns its ``reduced()``.
``_null_rows`` reads the null space off one such elimination, as rows of
the same kind.  A ``Subspace`` holds those rows as they come, and every
subspace question is one elimination or one pass of
``Subspace.residuals``, which clears each pivot of a row with
``_eliminate``: ``kernel_basis`` is ``_null_rows``, ``intersect`` is
Zassenhaus's method, membership is an empty residual.  Fractions are made
only where a caller asks for rational values, by dividing by pivot
entries: ``rref`` and ``Subspace.basis_rows`` divide whole rows, the
solves (``factor_through`` is one) only their solution entries.  No
floating point anywhere.  ``integer_form`` writes a matrix as integer
numerators over one common denominator, and ``mul_rowmaps``, the sparse
product, runs on those as well; ``restricted_actions`` reads a matrix's
action on an invariant span off its integer RREF that way, with one
Fraction per entry of the result.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DimensionMismatch, KernelNotContained, NotNilpotent

F0 = Fraction(0)
F1 = Fraction(1)

Vector = tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"p/q"``, and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def dense_vector(coeffs: Mapping[int, Fraction], n: int) -> Vector:
    """The length-n vector with the given sparse {index: coefficient} entries."""
    out = [F0] * n
    for k, v in coeffs.items():
        out[k] = v
    return tuple(out)


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


class RationalMatrix:
    """Sparse exact-rational matrix in row-major coordinate form.

    Internal storage is ``{row: {col: Fraction}}`` with no zero values and no
    empty rows, so equality of the maps is equality of matrices.
    """

    __slots__ = ("rows", "cols", "_data", "_integer_form", "_integer_transpose")

    def __init__(self, rows: int, cols: int, data: dict[int, dict[int, Fraction]]):
        # Takes ownership of `data`; callers go through the classmethods.
        self.rows = rows
        self.cols = cols
        self._data = data
        self._integer_form = None
        self._integer_transpose = None

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
            if d == 1:
                numerators = {r: {c: v.numerator for c, v in row.items()} for r, row in self._data.items()}
            else:
                numerators = {
                    r: {c: v.numerator * (d // v.denominator) for c, v in row.items()} for r, row in self._data.items()
                }
            self._integer_form = numerators, d
        return self._integer_form

    def integer_transpose(self) -> tuple[dict[int, dict[int, int]], int]:
        """(N^T, d) for the integer form (N, d): N^T[c][r] = N[r][c], so
        that ``mul_rowmaps({0: w}, N^T)`` is N w as a row and visits only
        the columns of N that w holds.  Built on the first call and kept,
        like ``integer_form``; callers must not mutate it."""
        if self._integer_transpose is None:
            flipped: dict[int, dict[int, int]] = {}
            if self._integer_form is not None:
                numerators, d = self._integer_form
                for r, row in numerators.items():
                    for c, v in row.items():
                        flipped.setdefault(c, {})[r] = v
            else:
                # read the Fractions directly; the row form is not built
                d = lcm(*{v.denominator for row in self._data.values() for v in row.values()})
                for r, row in self._data.items():
                    for c, v in row.items():
                        flipped.setdefault(c, {})[r] = v.numerator if d == 1 else v.numerator * (d // v.denominator)
            self._integer_transpose = flipped, d
        return self._integer_transpose

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


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """A fresh copy of the nonzero int ``row`` (a dict that lost entries
    iterates slower) over the gcd of its entries, positive at ``lead``."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return {k: v // g for k, v in row.items()} if g != 1 else dict(row)


def _integer_row(row: Mapping[int, object]) -> tuple[dict[int, int], int]:
    """(R, d) with row == R / d for a sparse row of ints or Fractions: d is
    the lcm of the entry denominators and R a fresh ``{index: int}`` map."""
    d = lcm(*[v.denominator for v in row.values()])
    if d == 1:
        return {k: v.numerator for k, v in row.items()}, 1
    return {k: v.numerator * (d // v.denominator) for k, v in row.items()}, d


def _insert(echelon: dict[int, dict[int, int]], row: dict[int, int]) -> bool:
    """Reduce ``row`` in place while its leading column leads an echelon
    row, and store the residual (the input up to a nonzero integer factor,
    minus a combination of echelon rows), made ``_primitive``, under its
    lead; True if it enlarged the span."""
    while row:
        lead = min(row)
        prow = echelon.get(lead)
        if prow is None:
            echelon[lead] = _primitive(row, lead)
            return True
        _eliminate(row, prow, lead)
    return False


def _peel(rowdicts: Iterable[dict]) -> tuple[set[int], list[dict]]:
    """The columns that single-entry rows make pivots, and the nonzero rows
    left once those columns are deleted, in one pass.

    A row with one nonzero entry, at column c, puts e_c in the row space,
    so c is a pivot of the RREF with the unit row {c: 1}, and every other
    row of the RREF is zero at c: the RREF is those unit rows plus the RREF
    of the other rows with the peeled columns deleted.  A row the deletion
    leaves with one entry is not peeled in turn; the ``SpanBasis`` it goes
    to stores it as a unit row.  ``{c: 0}`` peels nothing.  A row that
    loses a column is copied, so the inputs are left untouched.
    """
    units: set[int] = set()
    rows = []
    for r in rowdicts:
        if len(r) == 1 and next(iter(r.values())):
            units.update(r)
        elif r:
            rows.append(r)
    rest = []
    for r in rows:
        if not units.isdisjoint(r):
            r = {k: x for k, x in r.items() if k not in units}
        if r:
            rest.append(r)
    return units, rest


def _integer_rref(rowdicts: Iterable[dict]) -> tuple[list[dict[int, int]], list[int]]:
    """The reduced row echelon form on integers: one row per pivot, in pivot
    order, and the pivot columns.

    The input rows hold ints or Fractions and are left untouched.  The
    single-entry rows are peeled first (``_peel``): each peeled column is a
    pivot with the unit row {c: 1}, and no other row holds it.  Each row
    left is scaled to integers (``_integer_row``) and inserted as it is into
    a ``SpanBasis`` that holds those unit rows and stores a row left with
    one entry as a unit row too; its ``reduced()`` is the RREF, unique
    whatever order the rows came in and whatever was peeled.
    """
    units, rest = _peel(rowdicts)
    span = SpanBasis()
    span._rows.update((c, {c: 1}) for c in units)
    for r in rest:
        _insert(span._rows, _integer_row(r)[0])
    return span.reduced()


def _divided(rows: Iterable[dict[int, int]], pivots: Iterable[int]) -> Iterator[dict[int, Fraction]]:
    """Each integer echelon row over its pivot entry, in Fractions."""
    for row, p in zip(rows, pivots):
        head = row[p]
        yield {k: Fraction(v, head) for k, v in row.items()}


def _matrix_rowdicts(m: RationalMatrix) -> list[dict[int, Fraction]]:
    """The stored (nonzero) rows of m in row order, not copied."""
    return [m._data[r] for r in sorted(m._data)]


def rref(m: RationalMatrix) -> tuple[RationalMatrix, list[int], int]:
    """Reduced row echelon form, pivot columns, and rank."""
    rows, pivots = _integer_rref(_matrix_rowdicts(m))
    return RationalMatrix(m.rows, m.cols, dict(enumerate(_divided(rows, pivots)))), pivots, len(pivots)


def rank(m: RationalMatrix) -> int:
    return rref(m)[2]


class Subspace:
    """A subspace of Q^n, held as its canonical echelon rows and pivots.

    ``_rows`` are the nonzero rows of the RREF of any spanning set as the
    eliminator gives them (``_integer_rref``): sparse ``{index: int}``
    maps, each primitive, positive at its pivot and zero at every other
    pivot, and ``_pivots`` their pivot columns.  Such rows are unique, so
    equal subspaces always compare equal.  Dense vectors come in through
    ``from_vectors`` and sparse rows through ``from_rows``; membership,
    containment and intersection are ``residuals``, ``contains`` and
    ``intersect`` on the integer rows.  Fractions are made only by
    ``basis_rows``, the canonical echelon basis (1 at each pivot), which
    ``basis_vectors`` writes out dense.  A Subspace is immutable.
    """

    __slots__ = ("ambient_dim", "_rows", "_pivots")

    def __init__(self, ambient_dim: int, rows: list[dict[int, int]], pivots: list[int]):
        self.ambient_dim = ambient_dim
        self._rows = rows
        self._pivots = pivots

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Mapping[int, object]]) -> "Subspace":
        """The span of sparse ``{index: value}`` rows of ints or Fractions,
        without zero values; a nonzero scalar on a row changes no span, so
        integer rows need not be divided first.  The rows are left
        untouched."""
        return cls(ambient_dim, *_integer_rref(rows))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        rowdicts = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("spanning vector has wrong length")
            # an entry is converted before its zero test, so "0/5" is dropped
            # too; the truth test first skips 0 and F0 without a call
            rowdicts.append({i: y for i, x in enumerate(v) if x and (y := x if type(x) is int else frac(x))})
        return cls.from_rows(ambient_dim, rowdicts)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [], [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [{i: 1} for i in range(ambient_dim)], list(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def basis_rows(self) -> Iterator[dict[int, Fraction]]:
        """The canonical echelon basis as sparse ``{index: Fraction}`` rows,
        1 at each pivot, divided one row per step: a caller that reads only
        the first row divides only that one."""
        return _divided(self._rows, self._pivots)

    def basis_vectors(self) -> list[Vector]:
        return [dense_vector(row, self.ambient_dim) for row in self.basis_rows()]

    def residuals(self, rows: Iterable[Mapping[int, object]]) -> Iterator[dict[int, int]]:
        """Each sparse row of ints or Fractions, without zeros, as a new
        ``{index: int}`` map: a nonzero multiple of the row minus its
        combination of the echelon rows, so empty exactly when the row lies
        in the span.  The row is scaled to integers (``_integer_row``) and
        each pivot it holds cleared by one ``_eliminate`` step; the echelon
        rows are zero at the other pivots, so no step touches another."""
        by_pivot = dict(zip(self._pivots, self._rows))
        for row in rows:
            out = _integer_row(row)[0]
            for p in [p for p in out if p in by_pivot]:
                _eliminate(out, by_pivot[p], p)
            yield out

    def contains(self, other: "Subspace") -> bool:
        """Every echelon row of ``other`` reduces to nothing against this
        subspace's echelon rows (``residuals``); a larger subspace is never
        inside."""
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        if other.dim > self.dim:
            return False
        return not any(self.residuals(other._rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """A meet B by Zassenhaus's method, in one elimination: in the RREF
        of the rows (a | a) for the echelon rows a of A and (b | 0) for those
        of B, the rows with their pivot in the second block are (0 | w), and
        those w are the echelon rows of A meet B (a + b = 0 puts w = a in
        both; w = (w | w) - (w | 0)), primitive as the eliminator gives
        them."""
        n = self.ambient_dim
        if other.ambient_dim != n:
            raise DimensionMismatch("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(n)
        if self.dim == n:
            return other
        if other.dim == n:
            return self
        stacked = [{**row, **{n + k: v for k, v in row.items()}} for row in self._rows] + other._rows
        rows, pivots = _integer_rref(stacked)
        first = bisect_left(pivots, n)
        return Subspace(n, [{k - n: v for k, v in row.items()} for row in rows[first:]], [p - n for p in pivots[first:]])

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


def _null_rows(rows: Mapping[int, Mapping[int, object]], cols: int) -> tuple[list[dict[int, int]], list[int]]:
    """The null space of the matrix with the given ``{row: {col: value}}``
    rows (ints or Fractions) on Q^cols, on integers, in one elimination:
    one primitive integer row per free column, in the canonical order, and
    the free columns, which are its pivots.

    Single-entry rows are peeled first (``_peel``): a peeled column is a
    pivot whose unit row holds no free column, so no null vector touches
    it, and only the rows left are copied into the flipped order below; a
    row the peel left with one entry is peeled there, by ``_integer_rref``.
    Those are eliminated right to left (column c is handed to
    ``_integer_rref`` as column cols - 1 - c), so every reduced row R is
    c_R > 0 at its pivot p, zero at the other pivots, and nonzero elsewhere
    only at free columns left of p.  The null vector of a free column f is
    1 at f and -R[f] / c_R at the pivot of each reduced row R: its entries
    other than f sit at pivots right of f, and it is zero at every other
    free column.  It is scaled here by the lcm of those c_R and then made
    primitive, so its entry at f is positive, and divided by that entry it
    is the vector of the canonical echelon basis of the null space.
    """
    last = cols - 1
    units, rest = _peel(rows[r] for r in sorted(rows))
    flipped = [{last - c: v for c, v in row.items()} for row in rest]
    reduced, flipped_pivots = _integer_rref(flipped)
    pivot_set = {last - q for q in flipped_pivots}
    pivot_set.update(units)
    # free column -> (pivot, entry at the free column, pivot entry) per
    # reduced row that holds the free column
    terms: dict[int, list[tuple[int, int, int]]] = {}
    for row, q in zip(reduced, flipped_pivots):
        p, head = last - q, row[q]
        for k, v in row.items():
            if k != q:
                terms.setdefault(last - k, []).append((p, v, head))
    null = []
    free_columns = [f for f in range(cols) if f not in pivot_set]
    for free in free_columns:
        column = terms.get(free)
        if column is None:
            null.append({free: 1})
            continue
        scale = lcm(*[head for _, _, head in column])
        vec = {free: scale}
        for p, v, head in column:
            vec[p] = -v * (scale // head)
        null.append(_primitive(vec, free))
    return null, free_columns


def kernel_basis(m: RationalMatrix) -> Subspace:
    """Null space of m as a canonical Subspace of Q^cols, whose echelon rows
    are those of ``_null_rows``.  The rows of m go to the eliminator as
    they are, so a system built on integers (``liealg.center``,
    ``graded.cocycle_space``) may hold ints."""
    return Subspace(m.cols, *_null_rows(m._data, m.cols))


def restricted_actions(
    matrices: Sequence[RationalMatrix], rows: Sequence[dict[int, int]], pivots: Sequence[int]
) -> list[RationalMatrix]:
    """For each square m, the X with m @ B == B @ X, where column j of B is
    rows[j] divided by its entry c_j at pivots[j].  The span of the rows
    must be invariant under every m: the caller guarantees it, and nothing
    here checks it.

    The rows are an integer reduced echelon form as ``_integer_rref``
    returns it, so row p_k of B is the k-th unit row.  With m = N / d, the
    image w_j = N rows[j] is one sparse product with N^T
    (``integer_transpose``), which visits only the columns rows[j] holds,
    and X[k, j] = w_j[p_k] / (d c_j): one Fraction per entry of X.
    """
    heads = [row[p] for row, p in zip(rows, pivots)]
    basis = dict(enumerate(rows))
    index = {p: k for k, p in enumerate(pivots)}
    dim = len(rows)
    out = []
    for m in matrices:
        if m.rows != m.cols:
            raise DimensionMismatch("restricted_actions expects square matrices")
        transpose, d = m.integer_transpose()
        data: dict[int, dict[int, Fraction]] = {}
        for j, w in mul_rowmaps(basis, transpose).items():
            scale = d * heads[j]
            for r, v in w.items():
                k = index.get(r)
                if k is not None:
                    data.setdefault(k, {})[j] = Fraction(v, scale)
        out.append(RationalMatrix(dim, dim, data))
    return out


def solve_multi(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix | None:
    """One X with A @ X = B, or None if inconsistent: one elimination of the
    rows (A | B), inconsistent when a pivot falls in the B block.  Free
    variables are set to zero, so the solution is canonical; only the
    B-block entries of the pivot rows are divided into Fractions."""
    if a.rows != b.rows:
        raise DimensionMismatch("solve: row counts differ")
    n = a.cols
    keys = sorted(a._data.keys() | b._data.keys())
    rows, pivots = _integer_rref([{**a.row_map(r), **{n + c: v for c, v in b.row_map(r).items()}} for r in keys])
    if pivots and pivots[-1] >= n:
        return None  # pivot in the right-hand block: inconsistent
    data: dict[int, dict[int, Fraction]] = {}
    for row, p in zip(rows, pivots):
        head = row[p]
        x = {c - n: Fraction(v, head) for c, v in row.items() if c >= n}
        if x:
            data[p] = x
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
    """The canonical h with h @ f = g, one solve of f^T h^T = g^T: it is
    consistent exactly when Ker f is contained in Ker g (otherwise
    ``KernelNotContained``), and its free variables, the non-pivot
    coordinates of Im f, are set to zero, so h kills the standard basis
    vectors there, a fixed complement of Im f."""
    if f.rows != f.cols or g.rows != g.cols or f.rows != g.rows:
        raise DimensionMismatch("factor_through expects equal-size square matrices")
    ht = solve_multi(f.transpose(), g.transpose())
    if ht is None:
        raise KernelNotContained("Ker f is not contained in Ker g")
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
    """Incremental echelon basis of sparse integer vectors: linalg's one
    echelon, behind orbit closures, the exact checks and every RREF.

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

    def reduced(self) -> tuple[list[dict[int, int]], list[int]]:
        """The canonical RREF of the span as primitive integer rows in lead
        order, and the leads, which are its pivots.

        One back-substitution pass, from the highest lead down, clears each
        row at the leads above its own with ``_eliminate`` and makes a row
        so cleared primitive again; those rows are already zero at every
        other lead, so no step brings an entry back, and every step scales
        by a positive factor.  The rows are reduced in place and returned as
        stored (callers must not mutate them); the span is unchanged.
        """
        echelon = self._rows
        pivots = sorted(echelon)
        for p in reversed(pivots):
            row = echelon[p]
            above = [k for k in row if k != p and k in echelon]
            for q in above:
                _eliminate(row, echelon[q], q)
            if above:
                echelon[p] = _primitive(row, p)
        return [echelon[p] for p in pivots], pivots

    @property
    def dim(self) -> int:
        return len(self._rows)
