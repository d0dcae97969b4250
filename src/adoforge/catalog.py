"""Built-in example algebras for the CLI and the test corpus."""

from __future__ import annotations

import re

from .engine import EngineConfig
from .errors import BudgetExceeded, UnknownExample, quoted
from .freenilp import DEFAULT_DIMENSION_BUDGET, free_nilpotent
from .liealg import Grading, LieAlgebra

EXAMPLE_NAMES = (
    "abelian{n}",
    "heisenberg3",
    "heisenberg5",
    "filiform4",
    "free{r}_{c}",
    "solvable2",
    "cn7a",
    "cn7b",
    "census7",
)


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {}, grading=Grading((1,) * n) if n else None)


def heisenberg3() -> LieAlgebra:
    return LieAlgebra(3, {(0, 1): {2: 1}}, grading=Grading((1, 1, 2)))


def heisenberg5() -> LieAlgebra:
    return LieAlgebra(
        5,
        {(0, 1): {4: 1}, (2, 3): {4: 1}},
        grading=Grading((1, 1, 1, 1, 2)),
    )


def filiform4() -> LieAlgebra:
    return LieAlgebra(
        4,
        {(0, 1): {2: 1}, (0, 2): {3: 1}},
        grading=Grading((1, 1, 2, 3)),
    )


def _cn7(extra: dict) -> LieAlgebra:
    brackets = {(0, i): {i + 1: 1} for i in range(1, 6)}
    brackets.update(extra)
    return LieAlgebra(7, brackets)


def cn7a() -> LieAlgebra:
    """Characteristically nilpotent (Dixmier-Lister, Proc. AMS 8, 1957):
    every derivation is nilpotent, so none is nonsingular and there is no
    grading.  [e0, ei] = e(i+1) for i = 1..5 and [e1, e2] = -e4 - e5 - e6,
    [e1, e3] = -e5 - e6, [e1, e4] = -e6."""
    return _cn7({(1, 2): {4: -1, 5: -1, 6: -1}, (1, 3): {5: -1, 6: -1}, (1, 4): {6: -1}})


def cn7b() -> LieAlgebra:
    """The second Dixmier-Lister algebra: as ``cn7a`` but with
    [e1, e2] = -e4 - e6, [e1, e3] = -e5, [e1, e4] = -e6."""
    return _cn7({(1, 2): {4: -1, 6: -1}, (1, 3): {5: -1}, (1, 4): {6: -1}})


def census7() -> LieAlgebra:
    """A 7-dim quotient of F(2, 5) of class 5 with no grading, found by a
    seeded search over quotients of free nilpotent algebras.  Every
    derivation vanishes on its 1-dim center, so none is nonsingular."""
    return LieAlgebra(
        7,
        {
            (0, 1): {2: -1}, (0, 2): {3: -1}, (0, 3): {6: "1/2"}, (0, 4): {5: -1, 6: "-1/2"},
            (1, 2): {4: -1}, (1, 3): {5: -1, 6: "-1/2"}, (1, 4): {5: -1}, (1, 5): {6: -1},
            (2, 4): {6: 1},
        },
    )


def solvable2() -> LieAlgebra:
    """Two-dimensional non-nilpotent algebra [e0, e1] = e1."""
    return LieAlgebra(2, {(0, 1): {1: 1}})


_ABELIAN = re.compile(r"abelian([0-9]+)")
_FREE = re.compile(r"free([0-9]+)_([0-9]+)")
_NAMED = {f.__name__: f for f in (heisenberg3, heisenberg5, filiform4, solvable2, cn7a, cn7b, census7)}


def example(name: str) -> LieAlgebra:
    if name in _NAMED:
        return _NAMED[name]()
    m = _ABELIAN.fullmatch(name)
    if m:
        digits = m.group(1).lstrip("0")
        if not digits:
            raise UnknownExample(f"abelian index must be positive: {quoted(name)}")
        # refused before anything is built, at the default representation
        # budget; lengths first, since int() refuses more than 4300 digits
        budget = EngineConfig().dimension_budget
        if len(digits) > len(str(budget)) or int(digits) > budget:
            raise BudgetExceeded(f"abelian algebra of dimension above the representation budget {budget}")
        return abelian(int(digits))
    m = _FREE.fullmatch(name)
    if m:
        r, c = m.group(1).lstrip("0"), m.group(2).lstrip("0")
        if not r or not c:
            raise UnknownExample(f"free algebra parameters must be positive: {quoted(name)}")
        if r == "1":
            return free_nilpotent(1, 1)  # F(1, c) is the line F(1, 1)
        # at rank r >= 2 every degree adds a Hall word, so dim F(r, c) >= r + c - 1;
        # lengths first, since int() refuses more than 4300 digits
        width = len(str(DEFAULT_DIMENSION_BUDGET))
        if len(r) > width or len(c) > width:
            raise BudgetExceeded(
                f"free nilpotent algebra of rank >= 2 with a parameter above {10**width - 1}"
                f" has dimension above the budget {DEFAULT_DIMENSION_BUDGET}"
            )
        return free_nilpotent(int(r), int(c))
    raise UnknownExample(f"unknown example {quoted(name)}; choose from {', '.join(EXAMPLE_NAMES)}")
