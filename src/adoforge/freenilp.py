"""Free nilpotent Lie algebras on Hall bases, and presentations L = F/I.

Hall words are binary bracket trees: [u, v] is a Hall word when u > v in the
global order (by degree, then by enumeration position) and, for composite
u = [a, b], additionally b <= v.  Structure constants come from the classical
collection rewriting: a non-Hall bracket [u, v] with u = [a, b] and b > v is
replaced via the Jacobi identity by [[a, v], b] + [a, [b, v]] and the parts
are reduced recursively, memoizing on index pairs.  Brackets of total degree
above the nilpotency class truncate to zero during rewriting.  F's central
flag is read off the Hall grading (``free_central_flag``), with no walk of
its lower central series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded
from .linalg import F1, RationalMatrix, Subspace, kernel_basis
from .liealg import Grading, IdealChain, LieAlgebra, LieHom, derived_subalgebra, nilpotency_class

DEFAULT_DIMENSION_BUDGET = 200


class HallWord:
    """A Hall word: either a generator leaf or a bracket of two Hall words."""

    __slots__ = ("index", "degree", "left", "right", "gen")

    def __init__(self, index: int, degree: int, left: "HallWord | None", right: "HallWord | None", gen: int | None):
        self.index = index
        self.degree = degree
        self.left = left
        self.right = right
        self.gen = gen

    @property
    def is_generator(self) -> bool:
        return self.gen is not None

    def label(self) -> str:
        if self.is_generator:
            return f"g{self.gen + 1}"
        return f"[{self.left.label()},{self.right.label()}]"

    def __repr__(self) -> str:
        return f"HallWord({self.label()})"


def hall_basis(rank_: int, nil_class: int) -> list[HallWord]:
    """All Hall words of degree <= nil_class over rank_ generators, in the
    global order: by degree, then lexicographically by (left, right) index."""
    if rank_ < 1 or nil_class < 1:
        raise ValueError("hall_basis requires rank >= 1 and class >= 1")
    words: list[HallWord] = [HallWord(i, 1, None, None, i) for i in range(rank_)]
    by_degree: dict[int, list[HallWord]] = {1: list(words)}
    for d in range(2, nil_class + 1):
        candidates = []
        for du in range(1, d):
            dv = d - du
            for u in by_degree.get(du, ()):
                for v in by_degree.get(dv, ()):
                    if u.index <= v.index:
                        continue
                    if not u.is_generator and u.right.index > v.index:
                        continue
                    candidates.append((u.index, v.index, u, v))
        candidates.sort(key=lambda t: (t[0], t[1]))
        level = []
        for _, _, u, v in candidates:
            w = HallWord(len(words), d, u, v, None)
            words.append(w)
            level.append(w)
        by_degree[d] = level
    return words


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(rank_: int, degree: int) -> int:
    """Dimension of the degree-d homogeneous component of the free Lie
    algebra of the given rank: (1/d) * sum_{e | d} mu(e) * r^(d/e)."""
    if rank_ < 1 or degree < 1:
        raise ValueError("witt_dimension requires rank >= 1 and degree >= 1")
    total = sum(_mobius(e) * rank_ ** (degree // e) for e in range(1, degree + 1) if degree % e == 0)
    return total // degree


class _HallRewriter:
    """Collection rewriting of arbitrary brackets of Hall words into the
    Hall basis, truncated above the nilpotency class."""

    def __init__(self, words: list[HallWord], nil_class: int):
        self.words = words
        self.nil_class = nil_class
        self.hall_pair = {
            (w.left.index, w.right.index): w.index for w in words if not w.is_generator
        }
        self.memo: dict[tuple[int, int], dict[int, Fraction]] = {}
        self.in_progress: set[tuple[int, int]] = set()

    def bracket(self, i: int, j: int) -> dict[int, Fraction]:
        """[w_i, w_j] as a sparse combination of Hall basis words."""
        if i == j:
            return {}
        if i < j:
            return {k: -v for k, v in self._reduce(j, i).items()}
        return self._reduce(i, j)

    def _reduce(self, ui: int, vi: int) -> dict[int, Fraction]:
        # requires ui > vi
        u, v = self.words[ui], self.words[vi]
        if u.degree + v.degree > self.nil_class:
            return {}
        key = (ui, vi)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if key in self.in_progress:
            raise RuntimeError("Hall rewriting cycle; this indicates a bug")
        self.in_progress.add(key)
        try:
            if u.is_generator or u.right.index <= vi:
                result = {self.hall_pair[key]: F1}
            else:
                # u = [a, b] with b > v: [u,v] = [[a,v],b] + [a,[b,v]]
                a, b = u.left, u.right
                result: dict[int, Fraction] = {}
                for w, c in self.bracket(a.index, vi).items():
                    for t, c2 in self.bracket(w, b.index).items():
                        nv = result.get(t, 0) + c * c2
                        if nv:
                            result[t] = nv
                        else:
                            del result[t]
                for w, c in self.bracket(b.index, vi).items():
                    for t, c2 in self.bracket(a.index, w).items():
                        nv = result.get(t, 0) + c * c2
                        if nv:
                            result[t] = nv
                        else:
                            del result[t]
        finally:
            self.in_progress.discard(key)
        self.memo[key] = result
        return result


def free_nilpotent(rank_: int, nil_class: int) -> LieAlgebra:
    """The free nilpotent Lie algebra F(rank, class) on its Hall basis,
    graded by word degree.  Raises BudgetExceeded when the dimension (a sum
    of Witt numbers) is above ``DEFAULT_DIMENSION_BUDGET``, at the first
    degree whose running sum passes it.  One generator brackets to nothing,
    so F(1, c) is the line F(1, 1) for every c >= 1."""
    if rank_ == 1:
        nil_class = min(nil_class, 1)
    total = 0
    for d in range(1, nil_class + 1):
        total += witt_dimension(rank_, d)
        if total > DEFAULT_DIMENSION_BUDGET:
            raise BudgetExceeded(
                f"free nilpotent algebra of rank {rank_} and class {nil_class} has dimension at least {total}"
                f" > budget {DEFAULT_DIMENSION_BUDGET}"
            )
    words = hall_basis(rank_, nil_class)
    rewriter = _HallRewriter(words, nil_class)
    table = {}
    n = len(words)
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = rewriter.bracket(i, j)
            if coeffs:
                table[(i, j)] = coeffs
    return LieAlgebra(
        n,
        table,
        labels=tuple(w.label() for w in words),
        grading=Grading(tuple(w.degree for w in words)),
    )


def free_central_flag(free: LieAlgebra) -> IdealChain:
    """``central_flag(free)`` for free = ``free_nilpotent(r, c)``, read off
    the Hall grading without walking the lower central series.

    Member j is spanned by the first j Hall words in the order (-degree,
    index): the deepest degree first, ascending index within a degree.
    It is a full flag of ideals with [F, I_j] <= I_(j-1) for F alone,
    because F's brackets add positive degrees: the bracket of F with a
    word of degree d lies in the words of degree above d, which all come
    before it.  It is the flag ``central_flag`` builds, because on a Hall
    basis the k-th term of F's lower central series is spanned by the
    words of degree >= k (M. Hall, Proc. AMS 1, 1950), and pivot-completing
    those coordinate terms from the deepest up adds their unit vectors in
    exactly this order.
    """
    degrees = free.grading.degrees
    order = sorted(range(free.dim), key=lambda i: (-degrees[i], i))
    units = [{i: 1} for i in range(free.dim)]  # shared: Subspace rows are never mutated
    chain = [Subspace.zero(free.dim)]
    for j in range(1, free.dim + 1):
        pivots = sorted(order[:j])
        chain.append(Subspace(free.dim, [units[i] for i in pivots], pivots))
    return IdealChain(free, chain)


@dataclass
class Presentation:
    """A nilpotent algebra as a quotient of a free nilpotent one: L = F/I."""

    F: LieAlgebra
    L: LieAlgebra
    pi: LieHom            # surjective, F -> L
    I: Subspace           # Ker pi, an ideal of F


def present(algebra: LieAlgebra) -> Presentation:
    """Present a nilpotent algebra as F/I with F free nilpotent of minimal
    generator rank r = dim L - dim [L,L] and class = nilpotency class of L,
    the one walk of L's lower central series (``NotNilpotent``, before F is
    built, when it stops above zero); F is capped at
    ``DEFAULT_DIMENSION_BUDGET`` (``BudgetExceeded``).

    The generators map to the standard basis vectors at the complement
    coordinates of [L,L]; the map extends to Hall words by bracket
    evaluation on sparse vectors, so pi is a homomorphism by construction.
    """
    if algebra.dim == 0:
        raise ValueError("present requires a nonzero algebra")
    c = nilpotency_class(algebra)
    derived = derived_subalgebra(algebra)
    complement = [i for i in range(algebra.dim) if i not in set(derived._pivots)]
    r = len(complement)
    F = free_nilpotent(r, c)
    words = hall_basis(r, c)
    images: list = [None] * len(words)
    for w in words:
        if w.is_generator:
            images[w.index] = {complement[w.gen]: F1}
        else:
            images[w.index] = algebra.sparse_bracket(images[w.left.index], images[w.right.index])
    entries = ((k, j, v) for j, image in enumerate(images) for k, v in image.items())
    matrix = RationalMatrix.from_entries(algebra.dim, len(words), entries)
    pi = LieHom(F, algebra, matrix)
    ideal = kernel_basis(matrix)
    return Presentation(F=F, L=algebra, pi=pi, I=ideal)
