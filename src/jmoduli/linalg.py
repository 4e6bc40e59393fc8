"""Exact linear algebra over Q on sparse {column: Fraction} rows.

One kernel, _eliminate, serves rref/rank_of (forward elimination, then
back-substitution for rref) and the incremental Span, which keeps its
rows fully reduced so membership tests are a single elimination pass.
Vectors go in as dense lists of Fractions or sparse dicts; rref,
Span.basis_rows and Span.expand return dense lists, Span.coordinates
the sparse form.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

Row = dict[int, Fraction]
Vector = list[Fraction] | Row


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

    rows maps a pivot column to a row with entry 1 there and no entries
    left of it.  Pivots are cleared in increasing column order, so entries
    that a subtraction brings in further right are cleared as well.
    Returns the multiple of each row that was subtracted, by pivot.
    """
    coeffs: Row = {}
    todo = [col for col in vec if col in rows]
    heapq.heapify(todo)
    while todo:
        piv = heapq.heappop(todo)
        c = vec.get(piv)
        if not c:
            continue
        coeffs[piv] = c
        for col in rows[piv]:
            if col not in vec and col in rows:
                heapq.heappush(todo, col)
        _add_scaled(vec, -c, rows[piv])
    return coeffs


def _normalized(vec: Row) -> tuple[int, Fraction, Row]:
    """(pivot, 1 / entry at pivot, vec scaled to 1 there) for nonzero vec."""
    piv = min(vec)
    inv = 1 / vec[piv]
    return piv, inv, {col: x * inv for col, x in vec.items()}


def _echelon(rows: list[Vector], ncols: int | None) -> tuple[dict[int, Row], int]:
    """Forward elimination only: echelon rows keyed by pivot, and ncols."""
    if ncols is None:
        if isinstance(rows[0], dict):
            raise ValueError("ncols is required when the first row is sparse")
        ncols = len(rows[0])
    echelon: dict[int, Row] = {}
    for vec in rows:
        v = _sparse(vec, ncols, "ragged matrix")
        _eliminate(v, echelon)
        if v:
            piv, _, row = _normalized(v)
            echelon[piv] = row
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
        row = echelon[piv]
        _eliminate(row, reduced)
        reduced[piv] = row
    pivots = sorted(reduced)
    return [_dense(reduced[p], ncols) for p in pivots], len(pivots), pivots


def rank_of(rows: list[Vector], ncols: int | None = None) -> int:
    return len(_echelon(rows, ncols)[0]) if rows else 0


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
        piv, inv, v = _normalized(v)
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
