"""Exact linear algebra over Q on sparse {column: value} rows.

One kernel, _eliminate, serves rank_of and rref (forward elimination,
then back-substitution for rref) and the incremental Span.  rank_of and
rref run fraction-free (Bareiss, Math. Comp. 22, 1968): a row is scaled
to integers once, on entry, and stored primitive; rref divides by its
pivots on output.  Span keeps Fraction rows reduced to 1 at each pivot,
since its coordinates are rational.  Vectors go in as dense lists or
sparse dicts; rref, Span.basis_rows and Span.expand return dense lists of
Fractions, Span.coordinates the sparse form.  check_deadline, the one
wall-clock check of every stage, lives here, the lowest module.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm

Row = dict[int, Fraction]  # or dict[int, int] in the integer kernel
Vector = list[Fraction] | Row


class BudgetExceeded(RuntimeError):
    """Raised when Buchberger's pair budget or a wall-clock deadline runs out."""


def check_deadline(deadline: float | None, stage: str) -> None:
    """Raise BudgetExceeded once time.perf_counter() is past deadline."""
    if deadline is not None and time.perf_counter() > deadline:
        raise BudgetExceeded(f"wall clock budget exceeded in {stage}")


def _sparse(vec: Vector, ncols: int, length_error: str) -> Row:
    """A fresh sparse copy of vec, checked against ncols columns."""
    if not isinstance(vec, dict):
        if len(vec) != ncols:
            raise ValueError(length_error)
        vec = dict(enumerate(vec))
    elif not all(0 <= col < ncols for col in vec):
        raise ValueError("column index out of range")
    return {col: x for col, x in vec.items() if x}


def _dense(row: Row, ncols: int) -> list[Fraction]:
    return [row.get(col, Fraction(0)) for col in range(ncols)]


def _integral(terms: dict) -> tuple[dict, int]:
    """(den * terms as integers, den) for the least common denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in terms.items()}, den


def _primitive(terms: dict, lead) -> dict:
    """Integer terms over their content, signed so the entry at lead is > 0."""
    content = gcd(*terms.values())
    if terms[lead] < 0:
        content = -content
    return {k: c // content for k, c in terms.items()}


def _add_scaled(target: Row, scale: Fraction, row: Row) -> None:
    """target += scale * row, in place, dropping entries that cancel."""
    for col, x in row.items():
        val = target[col] + scale * x if col in target else scale * x
        if val:
            target[col] = val
        else:
            del target[col]


def _eliminate(vec: Row, rows: dict[int, Row]) -> Row:
    """Subtract rows from vec in place until no pivot of rows is left in it.

    rows maps a pivot column to a row with entry 1 there, or a positive
    integer a for integer rows and vec, and no entries left of it.  An
    integer step first scales vec by a / gcd(a, b), b its entry there.
    Pivots are cleared in increasing column order, so entries that a
    subtraction brings in further right are cleared as well.  Returns the
    multiple of each row that was subtracted, by pivot.
    """
    coeffs: Row = {}
    todo = [col for col in vec if col in rows]
    heapq.heapify(todo)
    while todo:
        piv = heapq.heappop(todo)
        c = vec.get(piv)
        if not c:
            continue
        row = rows[piv]
        if row[piv] != 1:
            g = gcd(row[piv], c)
            c //= g
            for col in vec:
                vec[col] *= row[piv] // g
        coeffs[piv] = c
        for col in row:
            if col not in vec and col in rows:
                heapq.heappush(todo, col)
        _add_scaled(vec, -c, row)
    return coeffs


def _echelon(rows: Iterable[Vector], ncols: int | None,
             deadline: float | None = None) -> tuple[dict[int, Row], int]:
    """Forward elimination only: primitive integer rows keyed by pivot, and
    ncols.  Each row checks the time.perf_counter() deadline."""
    if ncols is None:
        if isinstance(rows[0], dict):
            raise ValueError("ncols is required when the first row is sparse")
        ncols = len(rows[0])
    echelon: dict[int, Row] = {}
    for vec in rows:
        check_deadline(deadline, "the elimination")
        v = _sparse(vec, ncols, "ragged matrix")
        if not all(type(x) is int for x in v.values()):
            v = _integral(v)[0]
        _eliminate(v, echelon)
        if v:
            piv = min(v)
            echelon[piv] = _primitive(v, piv)
    return echelon, ncols


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
    echelon, ncols = _echelon(rows, ncols)
    reduced: dict[int, Row] = {}
    for piv in sorted(echelon, reverse=True):
        _eliminate(echelon[piv], reduced)
        reduced[piv] = _primitive(echelon[piv], piv)
    pivots = sorted(reduced)
    return [[Fraction(reduced[p].get(col, 0), reduced[p][p])
             for col in range(ncols)] for p in pivots], len(pivots), pivots


def rank_of(rows: Iterable[Vector], ncols: int | None = None,
            deadline: float | None = None) -> int:
    """Rank of the rows.  An iterator of rows needs ncols, and each row
    it yields is taken, checked against the deadline and eliminated in
    turn."""
    return len(_echelon(rows, ncols, deadline)[0]) if rows else 0


class Span:
    """Incrementally built subspace of Q^N with exact membership tests.

    Rows are stored reduced and keyed by pivot column, in the order they
    were accepted: each has entry 1 at its pivot, and that column is zero
    in every other row.  When track_original is set, each reduced row
    also carries its expression in the original accepted vectors, so
    expand() can answer in that basis.
    """

    __slots__ = ("ncols", "_rows", "_track", "_combos")

    def __init__(self, ncols: int, track_original: bool = False) -> None:
        self.ncols = ncols
        self._rows: dict[int, Row] = {}
        self._track = track_original
        # _combos[piv][j] = coefficient of accepted vector j in row piv
        self._combos: dict[int, Row] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Vector) -> tuple[Row, Row]:
        v = _sparse(vec, self.ncols, "wrong vector length")
        return v, _eliminate(v, self._rows)

    def contains(self, vec: Vector) -> bool:
        residue, _ = self._reduce(vec)
        return not residue

    def add(self, vec: Vector) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        v, coeffs = self._reduce(vec)
        if not v:
            return False
        piv = min(v)
        inv = 1 / v[piv]
        v = {col: x * inv for col, x in v.items()}
        combo: Row = {}
        if self._track:
            # vec = sum coeffs[p] * row_p + residue, so the new reduced row
            # is inv * (vec - sum coeffs[p] * row_p) in original terms
            combo = {self.dim: inv}
            for p, c in coeffs.items():
                _add_scaled(combo, -inv * c, self._combos[p])
        for p, row in self._rows.items():
            c = row.get(piv)
            if c:
                _add_scaled(row, -c, v)
                if self._track:
                    _add_scaled(self._combos[p], -c, combo)
        self._rows[piv] = v
        if self._track:
            self._combos[piv] = combo
        return True

    def coordinates(self, vec: Vector) -> Row | None:
        """Sparse coordinates {k: c} of vec in the accepted-vector basis,
        or None when vec is outside the span.

        Requires track_original.  Index k refers to the k-th vector for
        which add() returned True.
        """
        if not self._track:
            raise ValueError("span was built without original tracking")
        residue, coeffs = self._reduce(vec)
        if residue:
            return None
        out: Row = {}
        for p, c in coeffs.items():
            _add_scaled(out, c, self._combos[p])
        return out

    def expand(self, vec: Vector) -> list[Fraction] | None:
        """coordinates() as a dense list of length dim."""
        coords = self.coordinates(vec)
        return None if coords is None else _dense(coords, self.dim)

    def basis_rows(self) -> list[list[Fraction]]:
        return [_dense(row, self.ncols) for row in self._rows.values()]
