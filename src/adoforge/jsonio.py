"""JSON wire formats for matrices, algebras, representations, certificates.

Rationals travel as strings "p/q" (or "p" when the denominator is 1); matrix
entries are sorted row-major with no zeros, so serialization is canonical and
byte-identical across runs.  A literal is read by one grammar on every
Python version, ASCII ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator (a
JSON integer is read as itself), and anything else is a ``ParseError``.
Reading runs on the strings themselves: a representation document parses
each distinct literal once, and its matrices are built as row maps in one
pass over the entries.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from fractions import Fraction

from .errors import ParseError, quoted
from .engine import Certificate
from .linalg import RationalMatrix
from .liealg import Grading, LieAlgebra
from .reps import Representation


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _too_long() -> str:
    """int()'s digit limit in words, without its advice to raise the limit."""
    return f"more than int()'s {sys.get_int_max_str_digits()} digits"


def parse_rational(value) -> Fraction:
    """A JSON integer, or a string ``"p/q"`` or ``"p"`` in ASCII digits with
    an optional leading minus; ``Fraction``'s own string grammar (decimals,
    exponents, spaces, underscores, non-ASCII digits) differs between
    Python versions, so only strings of this form reach it."""
    if isinstance(value, bool):
        raise ParseError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value) is None:
            raise ParseError(f"bad rational literal {quoted(value)}: expected p/q or p in ASCII digits")
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise ParseError(f"bad rational literal {quoted(value)}: zero denominator") from exc
        except ValueError as exc:  # more digits than int() reads
            raise ParseError(f"bad rational literal {quoted(value)} has {_too_long()}") from exc
    raise ParseError(f"expected a rational string, got {type(value).__name__}")


def parse_int(value, what: str) -> int:
    """A JSON integer; a bool, float or string is a ``ParseError``, never
    truncated or converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {quoted(value)}")
    return value


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- matrices -------------------------------------------------------------

def matrix_to_json(m: RationalMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[r, c, str(v)] for r, c, v in m.entries()],
    }


def matrix_from_json(obj) -> RationalMatrix:
    return _matrix_from_json(obj, {})


def _matrix_from_json(obj, literals: dict[str, Fraction]) -> RationalMatrix:
    """The matrix of a JSON matrix object, reading each string literal not
    yet in ``literals`` (the document's literal -> value map) and adding it
    there.  The map is keyed on strings alone, so a bool or a number never
    takes the value of a string."""
    if not isinstance(obj, dict):
        raise ParseError("matrix must be an object")
    try:
        rows, cols, raw = obj["rows"], obj["cols"], obj["entries"]
    except KeyError as exc:
        raise ParseError(f"malformed matrix object: missing {exc}") from exc
    rows, cols = parse_int(rows, "matrix rows"), parse_int(cols, "matrix cols")
    if rows < 0 or cols < 0 or not isinstance(raw, list):
        raise ParseError("malformed matrix object")
    data: dict[int, dict[int, Fraction]] = {}
    zeros = False
    for item in raw:
        if not (isinstance(item, list) and len(item) == 3):
            raise ParseError(f"matrix entry must be [row, col, value], got {quoted(item)}")
        r, c, v = item
        if type(r) is not int:
            r = parse_int(r, "matrix entry row")
        if type(c) is not int:
            c = parse_int(c, "matrix entry col")
        if not (0 <= r < rows and 0 <= c < cols):
            raise ParseError(f"matrix entry ({r},{c}) outside {rows}x{cols}")
        row = data.get(r)
        if row is None:
            row = data[r] = {}
        elif c in row:
            raise ParseError(f"duplicate matrix entry at ({r},{c})")
        if type(v) is str:
            x = literals.get(v)
            if x is None:
                x = literals[v] = parse_rational(v)
        else:
            x = parse_rational(v)
        # a zero is stored until the end, so that a later entry at its
        # position is still a duplicate
        row[c] = x
        if not x:
            zeros = True
    if zeros:
        data = {r: {c: x for c, x in row.items() if x} for r, row in data.items()}
        data = {r: row for r, row in data.items() if row}
    return RationalMatrix(rows, cols, data)


# --- algebras ---------------------------------------------------------------

def algebra_to_json(algebra: LieAlgebra, name: str) -> dict:
    obj: dict = {
        "name": name,
        "dim": algebra.dim,
        "basis": [algebra.label(i) for i in range(algebra.dim)],
        "brackets": [
            {
                "left": i,
                "right": j,
                "result": {str(k): str(v) for k, v in sorted(coeffs.items())},
            }
            for (i, j), coeffs in sorted(algebra.brackets.items())
        ],
    }
    if algebra.grading is not None:
        obj["grading"] = list(algebra.grading.degrees)
    return obj


def algebra_from_json(obj) -> tuple[LieAlgebra, str]:
    """The algebra of a JSON algebra document.  The JSON checks are made
    here; the table rules (pair order and range, result indices, label
    count, grading length and degrees) are ``LieAlgebra``'s and
    ``Grading``'s, whose ``ValueError`` is a ``ParseError``."""
    if not isinstance(obj, dict):
        raise ParseError("algebra document must be a JSON object")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ParseError("algebra name must be a string")
    dim = parse_int(obj.get("dim"), "algebra dim")
    if dim < 0:
        raise ParseError("algebra dim must be a nonnegative integer")
    basis = obj.get("basis")
    if basis is not None and not (isinstance(basis, list) and all(isinstance(b, str) for b in basis)):
        raise ParseError("basis must be a list of strings")
    brackets = obj.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError("brackets must be a list")
    grading = obj.get("grading")
    if grading is not None and not isinstance(grading, list):
        raise ParseError("grading must be a list")
    table = {}
    for rec in brackets:
        if not isinstance(rec, dict):
            raise ParseError("bracket record must be an object")
        try:
            left, right, result = rec["left"], rec["right"], rec["result"]
        except KeyError as exc:
            raise ParseError(f"bracket record missing field {exc}") from exc
        left, right = parse_int(left, "bracket left"), parse_int(right, "bracket right")
        if (left, right) in table:
            raise ParseError(f"duplicate bracket record for pair ({quoted(left)},{quoted(right)})")
        if not isinstance(result, dict):
            raise ParseError("bracket result must be an object")
        coeffs = {}
        for key, value in result.items():
            # only the canonical decimal spelling ("0", "12"), so that no two
            # keys of one result can name the same index
            if not (key.isascii() and key.isdigit() and (key == "0" or key[0] != "0")):
                raise ParseError(f"bracket result key {quoted(key)} is not a canonical decimal index")
            try:
                k = int(key)
            except ValueError as exc:  # a key past int()'s digit limit
                raise ParseError(f"bracket result key {quoted(key)} has {_too_long()}") from exc
            coeffs[k] = parse_rational(value)
        table[(left, right)] = coeffs
    try:
        if grading is not None:
            grading = Grading(tuple(grading))
        algebra = LieAlgebra(dim, table, labels=basis, grading=grading)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return algebra, name


# --- representations --------------------------------------------------------

def representation_to_json(rep: Representation, algebra_ref) -> dict:
    return {
        "algebra": algebra_ref,
        "space_dim": rep.space_dim,
        "matrices": [matrix_to_json(m) for m in rep.matrices],
    }


def representation_from_json(obj) -> tuple[list[RationalMatrix], int, object]:
    if not isinstance(obj, dict):
        raise ParseError("representation document must be a JSON object")
    space_dim = parse_int(obj.get("space_dim"), "space_dim")
    if space_dim < 0:
        raise ParseError("space_dim must be a nonnegative integer")
    raw = obj.get("matrices")
    if not isinstance(raw, list):
        raise ParseError("matrices must be a list")
    literals: dict[str, Fraction] = {}
    matrices = [_matrix_from_json(m, literals) for m in raw]
    for m in matrices:
        if m.rows != space_dim or m.cols != space_dim:
            raise ParseError("every representation matrix must be space_dim x space_dim")
    return matrices, space_dim, obj.get("algebra")


# --- certificates -----------------------------------------------------------

def certificate_to_json(cert: Certificate) -> dict:
    return {"format_version": cert.format_version, "config": cert.config, "steps": cert.steps}


def certificate_from_json(obj) -> Certificate:
    """A missing ``format_version`` reads as None, which replay rejects by name."""
    if not isinstance(obj, dict) or "config" not in obj or "steps" not in obj:
        raise ParseError("certificate document must carry config and steps")
    if not isinstance(obj["steps"], list) or not isinstance(obj["config"], dict):
        raise ParseError("malformed certificate document")
    return Certificate(config=obj["config"], steps=obj["steps"], format_version=obj.get("format_version"))


def load_json(text: str):
    """A JSON document; malformed or too deeply nested text (the decoder
    recurses once per level) or an integer past ``int()``'s digit limit (a
    plain ``ValueError``) is a ``ParseError``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"invalid JSON: a number has {_too_long()}") from exc
