"""Representation values and combinators.

A Representation is one square matrix per basis element of its algebra.
Nothing here assumes the homomorphism identity; ``is_homomorphism`` checks
it.  The combinators trust their inputs, and the engine checks its final
output once, exactly, at its boundary.  Those checks run on the integer
numerators of the matrices.  ``is_homomorphism`` packs each integer row
into one big integer per block of 64 columns that holds an entry, at one
width w per call chosen from a bound on the entries of the commutator
difference, so that a packed block is zero exactly when its entries are;
each stored entry then costs one big-integer multiply-add per block
instead of one per product term, and a row with entries far apart stays
as many small ints as it has blocks.  The two checks that need spans keep
them small: ``is_faithful`` is a rank of n flattened matrices, and
``is_nilpotent_rep`` follows a chain of subspaces of V, not of End(V).
``kernel_submodule``
builds no quotient and restricts no action to all of Ker rho(z): it takes
the cyclic submodule of one vector of that kernel, and lets it represent the
quotient L/<z> that its caller built once for the flag step.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Sequence

from .errors import AlgebraMismatch, DimensionMismatch, NotCentral
from .linalg import (
    RationalMatrix,
    SpanBasis,
    Subspace,
    _integer_row,
    block_diag,
    kernel_basis,
    kronecker,
    mul_rowmaps,
    restricted_actions,
)
from .liealg import LieAlgebra, LieHom, is_central


class Representation:
    """Matrices (one per algebra basis element) acting on Q^space_dim."""

    __slots__ = ("algebra", "space_dim", "matrices")

    def __init__(self, algebra: LieAlgebra, space_dim: int, matrices: Sequence[RationalMatrix]):
        if len(matrices) != algebra.dim:
            raise DimensionMismatch("need exactly one matrix per basis element")
        for m in matrices:
            if m.rows != space_dim or m.cols != space_dim:
                raise DimensionMismatch("representation matrices must be square of size space_dim")
        self.algebra = algebra
        self.space_dim = space_dim
        self.matrices = tuple(matrices)

    def __repr__(self) -> str:
        return f"Representation(dim {self.algebra.dim} algebra on Q^{self.space_dim})"


def element_action(rep: Representation, x: Sequence[Fraction]) -> RationalMatrix:
    """sum_i x_i * rho(e_i), added into one row map in a single pass; a row
    whose coefficient is exactly 1 is copied, not multiplied."""
    if len(x) != rep.algebra.dim:
        raise DimensionMismatch("element coefficient vector has wrong length")
    data: dict[int, dict[int, Fraction]] = {}
    for xi, m in zip(x, rep.matrices):
        if not xi:
            continue
        one = xi == 1
        for r, row in m._data.items():
            target = data.get(r)
            if target is None:
                data[r] = dict(row) if one else {c: xi * v for c, v in row.items()}
                continue
            get = target.get
            for c, v in row.items():
                if not one:
                    v = xi * v
                old = get(c)
                target[c] = v if old is None else old + v
    for r in list(data):
        row = data[r]
        if not all(row.values()):
            row = data[r] = {c: v for c, v in row.items() if v}
        if not row:
            del data[r]
    return RationalMatrix(rep.space_dim, rep.space_dim, data)


def adjoint(algebra: LieAlgebra) -> Representation:
    """ad(e_i) = matrix of [e_i, .] on the algebra itself: each stored
    bracket c = [e_i, e_j]_k is entry (k, j) of ad(e_i) and -c entry (k, i)
    of ad(e_j), written into the row maps straight from the table."""
    n = algebra.dim
    data: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(n)]
    for (i, j), coeffs in algebra.brackets.items():
        for k, v in coeffs.items():
            data[i].setdefault(k, {})[j] = v
            data[j].setdefault(k, {})[i] = -v
    return Representation(algebra, n, [RationalMatrix(n, n, rows) for rows in data])


def direct_sum(rho: Representation, *more: Representation) -> Representation:
    """rho + more[0] + ..., each on its own block of coordinates, in order."""
    if not all(rho.algebra.structurally_equal(tau.algebra) for tau in more):
        raise AlgebraMismatch("direct_sum requires representations of the same algebra")
    mats = [block_diag(blocks) for blocks in zip(rho.matrices, *(tau.matrices for tau in more))]
    return Representation(rho.algebra, rho.space_dim + sum(tau.space_dim for tau in more), mats)


def tensor_product(rho: Representation, tau: Representation) -> Representation:
    """Lie tensor action: x acts as rho(x) (x) I + I (x) tau(x)."""
    if not rho.algebra.structurally_equal(tau.algebra):
        raise AlgebraMismatch("tensor_product requires representations of the same algebra")
    iv = RationalMatrix.identity(rho.space_dim)
    iw = RationalMatrix.identity(tau.space_dim)
    mats = [kronecker(a, iw) + kronecker(iv, b) for a, b in zip(rho.matrices, tau.matrices)]
    return Representation(rho.algebra, rho.space_dim * tau.space_dim, mats)


def restrict_along(rho: Representation, phi: LieHom) -> Representation:
    """Pull back along phi: x acts as rho(phi(x))."""
    if not phi.target.structurally_equal(rho.algebra):
        raise AlgebraMismatch("hom target must be the representation's algebra")
    mats = [element_action(rho, phi.matrix.column(i)) for i in range(phi.source.dim)]
    return Representation(phi.source, rho.space_dim, mats)


def rep_kernel(rep: Representation) -> Subspace:
    """{x in L : rho(x) = 0}, the kernel of the stacked map L -> End(V).

    For the kernel vectors themselves; ``is_faithful`` decides whether the
    kernel is zero without computing it.
    """
    n = rep.algebra.dim
    sd = rep.space_dim
    entries = []
    for i, m in enumerate(rep.matrices):
        for r, c, v in m.entries():
            entries.append((r * sd + c, i, v))
    stacked = RationalMatrix.from_entries(sd * sd, n, entries)
    return kernel_basis(stacked)


# Columns per packed int in ``is_homomorphism``: a block of a row holds at
# most this many entries, so it costs at most 64 * w bits whatever
# space_dim is.  On the six seed-1 ``verify`` inputs (in process, minimum of
# nine alternating runs, summed, 2 cores, Python 3.11.7) blocks of
# 32 / 64 / 128 columns took 25.8 / 22.9 / 21.8 ms, against 38.5 ms for one
# sparse product per term; a single block per row took 21.4 ms but packs a
# row with an entry in column space_dim - 1 into space_dim * w bits.
_PACK_COLUMNS = 64


def is_homomorphism(rep: Representation) -> bool:
    """Commutator identity rho([e_i,e_j]) = [rho(e_i), rho(e_j)], exactly.

    Integer form.  With rho(e_i) = N_i / d_i (``integer_form``) and
    [e_i,e_j] = sum_l c_l e_l, let D = lcm(d_l den c_l) over the terms and
    s_l = num c_l * D / (d_l den c_l) * d_i d_j (``_scaled_brackets``).
    Multiplying the identity by D d_i d_j turns it into
    E = D (N_i N_j - N_j N_i) - sum_l s_l N_l = 0, all in integers.

    Width.  Let maxabs_i be the largest |entry| of N_i and rowabs_i its
    largest row sum of |entries|.  An entry of N_i N_j is a sum over k of
    N_i[r,k] N_j[k,c], so it is at most rowabs_i maxabs_j in size, and every
    entry e of E has |e| <= K = D (rowabs_i maxabs_j + rowabs_j maxabs_i)
    + sum_l |s_l| maxabs_l.  ``_packing_width`` takes w = K.bit_length() + 1
    with K the largest over the pairs, so |e| < 2^(w-1) < 2^w.

    Zero test.  A block of row r packs the entries of E in its columns
    q*64 <= c < (q+1)*64 as B = sum_c e_c 2^(w (c - 64q)).  If some e_c is
    nonzero, take the lowest such c: B = 2^(w (c - 64q)) (e_c + 2^w M) for
    an integer M, and e_c + 2^w M = 0 would need 2^w <= |e_c|.  So B = 0
    exactly when every e_c in the block is 0, and E = 0 exactly when every
    block of every row is 0.

    Blocks.  Packing is linear, so B is sum_k N_i[r,k] P_j[k][q] for the
    packed rows P_j = ``_pack_rows(N_j, w)``, minus the same with i and j
    swapped, scaled by D, minus sum_l s_l P_l[r][q]: one big-integer
    multiply-add per stored entry and block instead of one per product
    term.  Each row of each N_j is packed once per call, into no more
    blocks than it has entries; whole rows packed into one int would cost
    space_dim * w bits for a row with an entry in the last column.
    """
    forms = [m.integer_form() for m in rep.matrices]
    pairs = _scaled_brackets(rep.algebra, forms)
    width = _packing_width(forms, pairs)
    packed = [_pack_rows(n, width) for n, _ in forms]
    for i, j, scale, terms in pairs:
        ni, nj = forms[i][0], forms[j][0]
        pi, pj = packed[i], packed[j]
        rest = [(packed[l], s) for l, s in terms]
        rows = ni.keys() | nj.keys()
        for pl, _ in rest:
            rows |= pl.keys()
        for r in rows:
            acc: dict[int, int] = {}
            get = acc.get
            row = ni.get(r)
            if row:
                for k, x in row.items():
                    blocks = pj.get(k)
                    if blocks:
                        x *= scale
                        for q, p in blocks.items():
                            acc[q] = get(q, 0) + x * p
            row = nj.get(r)
            if row:
                for k, x in row.items():
                    blocks = pi.get(k)
                    if blocks:
                        x *= scale
                        for q, p in blocks.items():
                            acc[q] = get(q, 0) - x * p
            for pl, s in rest:
                blocks = pl.get(r)
                if blocks:
                    for q, p in blocks.items():
                        acc[q] = get(q, 0) - s * p
            if any(acc.values()):
                return False
    return True


def _scaled_brackets(
    algebra: LieAlgebra, forms: Sequence[tuple[dict[int, dict[int, int]], int]]
) -> list[tuple[int, int, int, list[tuple[int, int]]]]:
    """(i, j, D, [(l, s_l)]) for each pair i < j, so that the identity for
    the pair reads D (N_i N_j - N_j N_i) = sum_l s_l N_l on the integer
    forms (N_l, d_l) (see ``is_homomorphism``)."""
    n = algebra.dim
    pairs = []
    for i in range(n):
        di = forms[i][1]
        for j in range(i + 1, n):
            d = di * forms[j][1]
            coeffs = algebra.bracket_basis(i, j)
            scale = lcm(*(forms[l][1] * c.denominator for l, c in coeffs.items()))
            terms = [(l, c.numerator * (scale // (forms[l][1] * c.denominator)) * d) for l, c in coeffs.items()]
            pairs.append((i, j, scale, terms))
    return pairs


def _packing_width(
    forms: Sequence[tuple[dict[int, dict[int, int]], int]], pairs: Sequence[tuple[int, int, int, list[tuple[int, int]]]]
) -> int:
    """w = K.bit_length() + 1 for K the largest bound on an entry of
    D (N_i N_j - N_j N_i) - sum_l s_l N_l over the pairs (see
    ``is_homomorphism``)."""
    maxabs = []
    rowabs = []
    for n, _ in forms:
        rows = n.values()
        maxabs.append(max(map(abs, chain.from_iterable(row.values() for row in rows)), default=0))
        rowabs.append(max([sum(map(abs, row.values())) for row in rows], default=0))
    bound = 0
    for i, j, scale, terms in pairs:
        k = scale * (rowabs[i] * maxabs[j] + rowabs[j] * maxabs[i])
        for l, s in terms:
            k += abs(s) * maxabs[l]
        if k > bound:
            bound = k
    return bound.bit_length() + 1


def _pack_rows(rows: dict[int, dict[int, int]], width: int) -> dict[int, dict[int, int]]:
    """{r: {q: sum_c N[r,c] << width (c - 64q)}} over the blocks q of
    ``_PACK_COLUMNS`` columns that hold an entry of row r."""
    packed = {}
    for r, row in rows.items():
        blocks: dict[int, int] = {}
        for c, v in row.items():
            q, offset = divmod(c, _PACK_COLUMNS)
            if q in blocks:
                blocks[q] += v << width * offset
            else:
                blocks[q] = v << width * offset
        packed[r] = blocks
    return packed


def _flatten(rows: dict[int, dict[int, int]], sd: int) -> dict[int, int]:
    out = {}
    for r, row in rows.items():
        base = r * sd
        for c, v in row.items():
            out[base + c] = v
    return out


def _transposed_numerators(rep: Representation) -> list[dict[int, dict[int, int]]]:
    """N_i^T for the integer forms N_i of the nonzero rho(e_i)
    (``integer_transpose``), so that ``mul_rowmaps({0: w}, t)`` is N_i w as
    a row: it visits only the columns of N_i that w holds."""
    return [m.integer_transpose()[0] for m in rep.matrices if not m.is_zero()]


def is_faithful(rep: Representation) -> bool:
    """Ker rho = 0, decided as rank n of the flattened matrices.

    rho(e_i) = N_i / d_i, and a nonzero scalar changes no rank, so the
    integer numerators N_i, each flattened to a vector of length
    space_dim^2, must be linearly independent.  ``rep_kernel`` computes the
    same kernel as a subspace, for callers that need its vectors.
    """
    sd = rep.space_dim
    span = SpanBasis()
    return all(span.add(_flatten(m.integer_form()[0], sd)) for m in rep.matrices)


def is_nilpotent_rep(rep: Representation) -> bool:
    """Image chain U_1 = sum Im rho(e_i), U_{k+1} = sum rho(e_i) U_k in V.

    U_k is spanned by the images of the words of length k in the rho(e_i),
    so U_k = 0 exactly when every such word is zero, that is when the
    associative algebra they generate is nilpotent.  Each word of length
    k+1 factors through one of length k, so U_{k+1} <= U_k: the chain
    shrinks strictly until it reaches 0, or it keeps its dimension at some
    nonzero step and then stays there forever.  The chain runs on the
    integer numerators N_i of rho(e_i) = N_i / d_i, applied through their
    transposes: a nonzero scalar does not change an image, so every U_k,
    and the verdict, is the same.
    """
    transposes = _transposed_numerators(rep)
    span = SpanBasis()
    for t in transposes:
        for column in t.values():
            span.add(column)
    current = span.rows()
    while current:
        nxt = SpanBasis()
        for u in current:
            for t in transposes:
                image = mul_rowmaps({0: u}, t)
                if image and nxt.add(image[0]) and nxt.dim == len(current):
                    return False
        current = nxt.rows()
    return True


def kernel_submodule(
    rep: Representation, z: Sequence[Fraction], quo: LieAlgebra, v: Sequence[Fraction]
) -> Representation:
    """The representation of quo = L/<z> on the cyclic submodule of v.

    z must be central in the algebra, which is checked (``NotCentral``).  The
    caller promises that rho(z) commutes with every rho(e_i), as it does for
    a homomorphism and central z, and passes a v in Ker rho(z); the cyclic
    submodule then lies in Ker rho(z), which ``element_action`` confirms on
    the submodule alone (``NotCentral`` otherwise).  z acts as zero there, so
    the action factors through L/<z> and is a homomorphism whenever rep is
    one.  ``quotient`` drops the pivot of the line of z, z's leading index,
    so basis vector j of quo lifts to the j-th of the other standard basis
    vectors, whose action represents it.  On Ker rho(z) the action of z's
    leading basis element is a combination of the others, so it adds nothing
    to the closure.  The caller builds quo once per flag step; a quo not of
    dim L - 1 raises ``DimensionMismatch``.
    """
    n = rep.algebra.dim
    if len(z) != n:
        raise DimensionMismatch("central element has wrong length")
    sz = {i: x for i, x in enumerate(z) if x}
    if not sz or quo.dim != n - 1:
        raise DimensionMismatch("quo must be L/<z> for a nonzero z, of dimension dim L - 1")
    if not is_central(rep.algebra, sz):
        raise NotCentral("z is not central in the algebra")
    sub = cyclic_submodule(rep, v)
    if not element_action(sub, z).is_zero():
        raise NotCentral("rho(z) does not vanish on the cyclic submodule of v")
    lead = min(sz)
    return Representation(quo, sub.space_dim, sub.matrices[:lead] + sub.matrices[lead + 1:])


def cyclic_submodule(rep: Representation, v: Sequence[Fraction]) -> Representation:
    """Sub-representation on the smallest invariant subspace containing v.

    Everything runs on sparse integer rows until the submodule's matrices:
    v is scaled to its integer numerators and each rho(e_i) to its integer
    form N_i, whose transpose is kept with the matrix
    (``integer_transpose``), and the orbit closure keeps an echelon basis
    of the images it spans (``SpanBasis``).  A nonzero scalar on v or on a
    matrix changes no closure.  The closure is eliminated once: its integer
    RREF is ``span.reduced()``, the back-substitution pass on the rows it
    already holds.  It is invariant by construction, so
    ``restricted_actions`` reads each action off the pivots of N_i times
    the basis, with no second product to confirm it.  A Fraction is built
    only for the entries of the submodule's matrices.
    """
    sd = rep.space_dim
    if len(v) != sd:
        raise DimensionMismatch("vector must live in the representation space")
    vd = _integer_row({i: x for i, x in enumerate(v) if x})[0]
    transposes = _transposed_numerators(rep)
    span = SpanBasis()
    frontier = [vd] if vd and span.add(vd) else []
    while frontier:
        new_frontier = []
        for w in frontier:
            for t in transposes:
                image = mul_rowmaps({0: w}, t)
                if image and span.add(image[0]):
                    new_frontier.append(image[0])
        frontier = new_frontier
    rows, pivots = span.reduced()
    return Representation(rep.algebra, len(pivots), restricted_actions(rep.matrices, rows, pivots))
