"""Exact sparse rational matrices for the benchmark's own input generators
and correctness oracle.

A matrix is ``(size_rows, size_cols, {row: {col: Fraction}})`` with no zero
values and no empty rows.  Only the stdlib is used, so nothing here depends on
the package under test.
"""

from __future__ import annotations

from fractions import Fraction

Rows = dict[int, dict[int, Fraction]]


def matmul(a: Rows, b: Rows) -> Rows:
    out: Rows = {}
    for r, row in a.items():
        acc: dict[int, Fraction] = {}
        for k, x in row.items():
            brow = b.get(k)
            if brow:
                for c, y in brow.items():
                    acc[c] = acc.get(c, 0) + x * y
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def combine(terms: list[tuple[Fraction, Rows]]) -> Rows:
    """sum of coeff * matrix."""
    out: Rows = {}
    for coeff, m in terms:
        for r, row in m.items():
            target = out.setdefault(r, {})
            for c, v in row.items():
                target[c] = target.get(c, 0) + coeff * v
    return {r: kept for r, row in out.items() if (kept := {c: v for c, v in row.items() if v})}


def commutator(a: Rows, b: Rows) -> Rows:
    return combine([(Fraction(1), matmul(a, b)), (Fraction(-1), matmul(b, a))])


def from_json(obj: dict) -> tuple[int, int, Rows]:
    rows: Rows = {}
    for r, c, v in obj["entries"]:
        value = Fraction(v)
        if value:
            rows.setdefault(r, {})[c] = value
    return obj["rows"], obj["cols"], rows


def to_json(size: int, m: Rows) -> dict:
    entries = [[r, c, str(m[r][c])] for r in sorted(m) for c in sorted(m[r])]
    return {"rows": size, "cols": size, "entries": entries}


def rank(vectors: list[dict[int, Fraction]]) -> int:
    """Rank of sparse vectors by incremental elimination on leading index."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for vec in vectors:
        vec = dict(vec)
        while vec:
            lead = min(vec)
            row = pivots.get(lead)
            if row is None:
                inv = 1 / vec[lead]
                pivots[lead] = {k: v * inv for k, v in vec.items()}
                break
            f = vec[lead]
            for k, v in row.items():
                nv = vec.get(k, 0) - f * v
                if nv:
                    vec[k] = nv
                else:
                    del vec[k]
    return len(pivots)
