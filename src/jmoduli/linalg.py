"""Exact linear algebra over Q on sparse {column: value} rows.

One kernel, _eliminate, serves rank_of and rref (forward elimination in
_echelon, then back-substitution for rref) and the incremental Span, all
three fraction-free (Bareiss, Math. Comp. 22, 1968): a row is scaled to
integers once, on entry, and stored primitive; rref divides by the
pivots on output, and Span.coordinates once per entry.  Vectors go in as
dense lists or sparse dicts of ints or Fractions, checked once, at rref,
rank_of and Span; _echelon takes fresh integer rows.  rref, basis_rows
and expand return dense lists of Fractions, coordinates the sparse form.
check_deadline, the one wall-clock check of every stage, lives here, the
lowest module.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm

Row = dict[int, int]  # or dict[int, Fraction] where results leave
Vector = list[int | Fraction] | dict[int, int | Fraction]


class BudgetExceeded(RuntimeError):
    """Raised when Buchberger's pair budget or a wall-clock deadline runs out."""


def check_deadline(deadline: float | None, stage: str) -> None:
    """Raise BudgetExceeded once time.perf_counter() is past deadline."""
    if deadline is not None and time.perf_counter() > deadline:
        raise BudgetExceeded(f"wall clock budget exceeded in {stage}")


def _integer_row(vec: Vector, ncols: int, length_error: str) -> tuple[Row, int]:
    """(den * vec as a fresh sparse integer row, den), checked for ncols."""
    if not isinstance(vec, dict):
        if len(vec) != ncols:
            raise ValueError(length_error)
        vec = dict(enumerate(vec))
    elif vec and not (min(vec) >= 0 and max(vec) < ncols):
        raise ValueError("column index out of range")
    row = {col: x for col, x in vec.items() if x}
    if {int}.issuperset(map(type, row.values())):
        return row, 1
    return _integral(row)


def _integral(terms: dict) -> tuple[dict, int]:
    """(den * terms as integers, den) for the least common denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in terms.items()}, den


def _lowest(terms: dict, den: int) -> tuple[dict, int]:
    """The integer terms / den in lowest terms, as (terms, den > 0)."""
    common = (1 if den > 0 else -1) * gcd(den, *terms.values())
    return {k: c // common for k, c in terms.items()}, den // common


def _over_lcm(parts: list[tuple[int, tuple[dict, int]]]) -> tuple[dict, int]:
    """(terms, den) with terms / den = sum c * r / d over the parts
    (c, (r, d)) of integer terms r; den is the lcm of the d."""
    den = lcm(*[d for _, (_, d) in parts])
    out: dict = {}
    for c, (r, d) in parts:
        _add_scaled(out, c * (den // d), r)
    return out, den


def _primitive(terms: dict, lead) -> dict:
    """Integer terms over their content, signed so the entry at lead is > 0."""
    content = gcd(*terms.values())
    if terms[lead] < 0:
        content = -content
    return {k: c // content for k, c in terms.items()}


def _add_scaled(target: Row, scale: int | Fraction, row: Row) -> None:
    """target += scale * row, in place, dropping entries that cancel."""
    for col, x in row.items():
        val = target[col] + scale * x if col in target else scale * x
        if val:
            target[col] = val
        else:
            del target[col]


def _eliminate(vec: Row, rows: dict[int, Row], coeffs: dict | None = None) -> int:
    """Subtract multiples of rows from the integer vec, in place, until no
    pivot of rows is left in it; returns the factor s vec was scaled by.

    rows maps a pivot column to a primitive integer row with a positive
    entry a there and no entries left of it.  A step first scales vec by
    a / gcd(a, b), b its entry there.  Pivots are cleared in increasing
    column order, so entries that a subtraction brings in further right
    are cleared as well.  A coeffs dict receives (c, t) by pivot p, with
    vec (out) = s * vec (in) - sum c * (s / t) * rows[p].
    """
    scale = 1
    todo = [col for col in vec if col in rows]
    heapq.heapify(todo)
    while todo:
        piv = heapq.heappop(todo)
        c = vec.get(piv)
        if not c:
            continue
        row = rows[piv]
        g = gcd(row[piv], c)
        a, c = row[piv] // g, c // g
        if a != 1:
            scale *= a
            for col in vec:
                vec[col] *= a
        if coeffs is not None:
            coeffs[piv] = c, scale
        for col in row:
            if col not in vec and col in rows:
                heapq.heappush(todo, col)
        _add_scaled(vec, -c, row)
    return scale


def _checked(rows: Iterable[Vector], ncols: int | None):
    """(the rows as fresh integer rows, checked as they are taken, ncols)."""
    if ncols is None and isinstance(rows[0], dict):
        raise ValueError("ncols is required when the first row is sparse")
    ncols = len(rows[0]) if ncols is None else ncols
    return (_integer_row(vec, ncols, "ragged matrix")[0] for vec in rows), ncols


def _echelon(rows: Iterable[Row], deadline: float | None,
             ncols: int | None = None) -> dict[int, Row]:
    """Primitive rows by pivot from fresh {col: int} rows without zeros,
    which it takes over; each row checks the perf_counter() deadline.
    Given ncols, it takes no row after the ncols-th pivot."""
    echelon: dict[int, Row] = {}
    for v in rows:
        check_deadline(deadline, "the elimination")
        _eliminate(v, echelon)
        if v:
            piv = min(v)
            echelon[piv] = _primitive(v, piv)
            if len(echelon) == ncols:
                break
    return echelon


def rref(
    rows: list[Vector], ncols: int | None = None
) -> tuple[list[list[Fraction]], int, list[int]]:
    """Reduced row echelon form.

    Returns (nonzero reduced rows, rank, pivot column indices).  The input
    is not mutated.  Empty input is fine.  ncols defaults to the length
    of the first row, which must then be dense.
    """
    if not rows:
        return [], 0, []
    checked, ncols = _checked(rows, ncols)
    echelon = _echelon(checked, None)
    reduced: dict[int, Row] = {}
    for piv in sorted(echelon, reverse=True):
        _eliminate(echelon[piv], reduced)
        reduced[piv] = _primitive(echelon[piv], piv)
    pivots = sorted(reduced)
    return [[Fraction(reduced[p].get(col, 0), reduced[p][p])
             for col in range(ncols)] for p in pivots], len(pivots), pivots


def rank_of(rows: Iterable[Vector], ncols: int | None = None,
            deadline: float | None = None) -> int:
    """Rank of the rows.  An iterator needs ncols; each row it yields is
    taken, checked against the deadline and eliminated in turn."""
    return len(_echelon(_checked(rows, ncols)[0], deadline)) if rows else 0


class Span:
    """Incrementally built subspace of Q^N with exact membership tests.

    Rows are primitive integer rows in echelon form, keyed by pivot column
    in the order they were accepted: what _eliminate leaves of a vector,
    cleared to integers on entry, is the next row.  When track_original is
    set, row p also carries (combo, scale) with scale * row p = sum
    combo[j] * (accepted vector j), so coordinates() can answer in that
    basis.
    """

    __slots__ = ("ncols", "_rows", "_combos")

    def __init__(self, ncols: int, track_original: bool = False) -> None:
        self.ncols = ncols
        self._rows: dict[int, Row] = {}
        # _combos[piv] = (combo, scale) of row piv; None without tracking
        self._combos = {} if track_original else None

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Vector) -> tuple[Row, int, Row, int]:
        """(residue, s, combo, d) with residue = s * vec - sum combo[j] *
        (accepted vector j) / d; combo is empty without tracking."""
        v, den = _integer_row(vec, self.ncols, "wrong vector length")
        combos = self._combos
        coeffs = None if combos is None else {}
        scale = _eliminate(v, self._rows, coeffs)
        combo, d = _over_lcm([(c * (scale // t), combos[p])
                              for p, (c, t) in (coeffs or {}).items()])
        return v, den * scale, combo, d

    def contains(self, vec: Vector) -> bool:
        return not self._reduce(vec)[0]

    def add(self, vec: Vector) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        v, s, combo, d = self._reduce(vec)
        if not v:
            return False
        piv = min(v)
        row = _primitive(v, piv)
        if self._combos is not None:
            # v = s*vec - combo/d, so (-d * v/row) * row = combo - s*d*vec
            combo[self.dim] = -s * d
            self._combos[piv] = _lowest(combo, -d * (v[piv] // row[piv]))
        self._rows[piv] = row
        return True

    def coordinates(self, vec: Vector, den: int = 1) -> Row | None:
        """Sparse coordinates {k: c} of vec / den in the accepted-vector
        basis, one division each, or None when vec is outside the span.

        Requires track_original.  Index k refers to the k-th vector for
        which add() returned True.
        """
        if self._combos is None:
            raise ValueError("span was built without original tracking")
        residue, s, combo, d = self._reduce(vec)
        if residue:
            return None
        d *= s * den  # vec / den = combo / d
        return {j: Fraction(x, d) for j, x in combo.items()}

    def expand(self, vec: Vector) -> list[Fraction] | None:
        """coordinates() as a dense list of length dim."""
        coords = self.coordinates(vec)
        return None if coords is None else [
            coords.get(k, Fraction(0)) for k in range(self.dim)]

    def basis_rows(self) -> list[list[Fraction]]:
        """The rows in reduced form, by pivot column."""
        return rref(list(self._rows.values()), self.ncols)[0]
