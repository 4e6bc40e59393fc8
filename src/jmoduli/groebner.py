"""Buchberger's algorithm over Q, normal forms, and the quotient S/I.

Monomial order is graded reverse lexicographic throughout: compare total
degree first, ties broken at the last differing exponent, smaller
exponent winning.  Pair selection follows the normal strategy (smallest
lcm first), and the returned basis is the unique reduced Groebner basis,
made monic, with generators sorted by leading monomial, so identical
inputs give identical outputs.

Division is fraction-free (Bareiss, Math. Comp. 22, 1968) on primitive
integer polynomials {monomial: int} with positive leading coefficients:
a step scales the dividend and the remainder by lc / gcd(coeff, lc)
instead of dividing, and the next monomial comes off a heap.  It serves
Buchberger and normal_form.  Everything downstream of a basis reads its
normal forms from one Quotient per basis: the staircase and a memo of
monomial normal forms.
"""

from __future__ import annotations

import enum
import heapq
import time
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import add, le

from .linalg import _add_scaled, _integral, _primitive
from .polys import Monomial, Polynomial, degrevlex_key, monomials_of_weight

IntTerms = dict[Monomial, int]


class MonomialOrder(enum.Enum):
    DEGREVLEX = "degrevlex"


class BudgetExceeded(RuntimeError):
    """Raised when Buchberger's pair budget or the wall-clock deadline
    runs out."""


def check_deadline(deadline: float | None, stage: str) -> None:
    """Raise BudgetExceeded once time.perf_counter() is past deadline."""
    if deadline is not None and time.perf_counter() > deadline:
        raise BudgetExceeded(f"wall clock budget exceeded in {stage}")


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    nvars: int

    @cached_property
    def leads(self) -> tuple[Monomial, ...]:
        """Leading monomials of the generators; not a field, so equality
        and hashing are unchanged."""
        return tuple(g.leading_monomial() for g in self.generators)

    @cached_property
    def integer_generators(self) -> tuple[IntTerms, ...]:
        """The monic generators with denominators cleared: primitive, with
        a positive leading coefficient.  Cached like leads."""
        return tuple(_integral(g.terms)[0] for g in self.generators)

    def leading_monomials(self) -> list[Monomial]:
        return list(self.leads)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def _divides(d: Monomial, m: Monomial) -> bool:
    return all(map(le, d, m))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _quotient(m: Monomial, d: Monomial) -> Monomial:
    return tuple(a - b for a, b in zip(m, d))


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g): cancel the leading terms against their lcm."""
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    top = _lcm(lmf, lmg)
    left = f.times_monomial(_quotient(top, lmf), 1 / f.leading_coefficient())
    right = g.times_monomial(_quotient(top, lmg), 1 / g.leading_coefficient())
    return left - right


def _divide(
    work: IntTerms, reducers: Sequence[IntTerms], lms: Sequence[Monomial]
) -> tuple[IntTerms, int]:
    """(r, scale): r / scale is the remainder of work (consumed) divided
    by the monic reducers, and r lists its terms in descending order.

    lms[i] is the leading monomial of reducers[i], with a positive
    coefficient there.  The largest monomial left is either cancelled
    by the first reducer whose leading monomial divides it, or moved to
    the remainder.
    """
    # heap of (negated degrevlex key, monomial): the largest pops first.
    # A cancelled entry stays in work as 0, so each monomial is pushed once.
    heap = [((-sum(m),) + m[::-1], m) for m in work]
    heapq.heapify(heap)
    remainder: IntTerms = {}
    scale = 1
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.pop(mono)
        if not coeff:
            continue
        for lm, red in zip(lms, reducers):
            if _divides(lm, mono):
                break
        else:
            remainder[mono] = coeff
            continue
        lc = red[lm]
        common = gcd(coeff, lc)
        mult, coeff = lc // common, coeff // common
        if mult != 1:
            # mult * (old coeff) = coeff * lc: scale so lc divides exactly
            scale *= mult
            work = {m: c * mult for m, c in work.items()}
            remainder = {m: c * mult for m, c in remainder.items()}
        shift = _quotient(mono, lm)
        for m2, c2 in red.items():
            if m2 == lm:
                continue
            target = tuple(map(add, m2, shift))
            c = work.get(target)
            if c is None:
                work[target] = -coeff * c2
                heapq.heappush(heap, ((-sum(target),) + target[::-1], target))
            else:
                work[target] = c - coeff * c2
    return remainder, scale


def _spair(
    f: IntTerms, lmf: Monomial, g: IntTerms, lmg: Monomial, top: Monomial
) -> IntTerms:
    """A positive integer multiple of S(f, g), whose lcm is top; the
    cancelled lcm stays as a 0 entry."""
    common = gcd(f[lmf], g[lmg])
    out: IntTerms = {}
    for p, lm, mult in ((f, lmf, g[lmg] // common), (g, lmg, -f[lmf] // common)):
        shift = _quotient(top, lm)
        for m, c in p.items():
            m = tuple(map(add, m, shift))
            out[m] = out.get(m, 0) + mult * c
    return out


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Canonical remainder of p modulo the ideal of gb."""
    if p.nvars != gb.nvars:
        raise ValueError("arity mismatch")
    work, den = _integral(p.terms)
    remainder, scale = _divide(work, gb.integer_generators, gb.leads)
    scale *= den
    return Polynomial(
        p.nvars, {m: Fraction(c, scale) for m, c in remainder.items()})


def weight_normal_forms(
    gb: GroebnerBasis, weight: int
) -> dict[Monomial, dict[Monomial, Fraction]]:
    """The Quotient(gb) rows of every monomial of one weight."""
    quotient = Quotient(gb)
    return {m: quotient.nf(m) for m in monomials_of_weight(gb.nvars, weight)}


class Quotient:
    """S/I for one reduced basis gb: the staircase, the index of each
    standard monomial, and a memo of monomial normal forms.

    The memo is the monomial table of FGLM (Faugere, Gianni, Lazard and
    Mora, JSC 16, 1993).  A standard monomial is its own row; any other m
    takes the first generator g whose leading monomial divides it, and
    NF(m) = -sum c * NF(t * shift) over the tail terms c*t of the monic g.
    Each t * shift is below m in degrevlex, so the walk ends.  Each memo
    miss checks the time.perf_counter() deadline.
    """

    def __init__(self, gb: GroebnerBasis, deadline: float | None = None) -> None:
        self.gb = gb
        self.deadline = deadline
        self.rows: dict[Monomial, dict[Monomial, Fraction]] = {}

    @cached_property
    def standard(self) -> tuple[Monomial, ...]:
        """The standard monomials, ascending degrevlex (finite quotients)."""
        return tuple(standard_monomials(self.gb))

    @cached_property
    def index(self) -> dict[Monomial, int]:
        return {m: i for i, m in enumerate(self.standard)}

    def nf(self, mono: Monomial) -> dict[Monomial, Fraction]:
        """The memo row of mono; shared, so callers must not mutate it."""
        rows = self.rows
        if mono in rows:
            return rows[mono]
        # (monomial, its shifted tail terms once expanded); an entry whose
        # targets are missing goes back under them and is finished after
        stack: list[tuple[Monomial, list | None]] = [(mono, None)]
        while stack:
            m, tail = stack.pop()
            if m in rows:
                continue
            check_deadline(self.deadline, "normal forms")
            if tail is None:
                for lm, g in zip(self.gb.leads, self.gb.generators):
                    if _divides(lm, m):
                        break
                else:
                    rows[m] = {m: Fraction(1)}
                    continue
                shift = _quotient(m, lm)
                tail = [(tuple(map(add, t, shift)), c)
                        for t, c in g.terms.items() if t != lm]
                missing = [(t, None) for t, _ in tail if t not in rows]
                if missing:
                    stack.append((m, tail))
                    stack.extend(missing)
                    continue
            row: dict[Monomial, Fraction] = {}
            for t, c in tail:
                _add_scaled(row, -c, rows[t])
            rows[m] = row
        return rows[mono]

    def product(
        self, p: dict[Monomial, Fraction], q: dict[Monomial, Fraction]
    ) -> dict[Monomial, Fraction]:
        """NF(p * q) for polynomials as {monomial: coefficient}, a new dict."""
        out: dict[Monomial, Fraction] = {}
        for s, c in p.items():
            for t, d in q.items():
                _add_scaled(out, c * d, self.nf(tuple(map(add, s, t))))
        return out

    def coordinates(self, terms: dict[Monomial, Fraction]) -> dict[int, Fraction]:
        """A normal form {standard monomial: c} as {index: c}."""
        index = self.index
        return {index[m]: c for m, c in terms.items()}


def buchberger(
    gens: list[Polynomial],
    order: MonomialOrder = MonomialOrder.DEGREVLEX,
    max_pairs: int = 10**6,
    deadline: float | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Zero generators are discarded; an all-zero input is an error.  The
    number of critical pairs examined is capped by max_pairs, and each
    popped pair checks the time.perf_counter() deadline; running past
    either raises BudgetExceeded.
    """
    if order is not MonomialOrder.DEGREVLEX:
        raise ValueError(f"unsupported monomial order: {order}")
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("zero ideal generators")
    nvars = basis[0].nvars
    for g in basis:
        if g.nvars != nvars:
            raise ValueError("generators have mixed arity")
    lms = [g.leading_monomial() for g in basis]  # kept in step with working
    working = [_primitive(_integral(g.terms)[0], lm) for g, lm in zip(basis, lms)]

    # pending pairs as (degrevlex_key(lcm), i, j, lcm): popped smallest lcm
    # first, ties broken by (i, j)
    queue: list[tuple[tuple, int, int, Monomial]] = []

    def push(i: int, j: int) -> None:
        lcm = _lcm(lms[i], lms[j])
        heapq.heappush(queue, (degrevlex_key(lcm), i, j, lcm))

    for i in range(len(working)):
        for j in range(i + 1, len(working)):
            push(i, j)
    treated: set[tuple[int, int]] = set()
    examined = 0
    while queue:
        _, i, j, lcm_ij = heapq.heappop(queue)
        treated.add((i, j))
        examined += 1
        if examined > max_pairs:
            raise BudgetExceeded(f"pair budget {max_pairs} exceeded")
        check_deadline(deadline, "Buchberger")
        lmi, lmj = lms[i], lms[j]
        # first criterion: coprime leading monomials reduce to zero
        if all(a == 0 or b == 0 for a, b in zip(lmi, lmj)):
            continue
        # chain criterion: a third generator splits the pair
        if any(
            k != i and k != j and _divides(lms[k], lcm_ij)
            and (min(i, k), max(i, k)) in treated
            and (min(j, k), max(j, k)) in treated
            for k in range(len(working))
        ):
            continue
        remainder, _ = _divide(
            _spair(working[i], lmi, working[j], lmj, lcm_ij), working, lms)
        if remainder:
            t = len(working)
            lms.append(next(iter(remainder)))
            working.append(_primitive(remainder, lms[t]))
            for k in range(t):
                push(k, t)

    # minimalize: drop generators whose leading monomial is divisible by
    # another's, keeping the degrevlex-smallest representatives
    minimal: list[IntTerms] = []
    min_lms: list[Monomial] = []
    by_lead = sorted(zip(lms, working), key=lambda pair: degrevlex_key(pair[0]))
    for lm, g in by_lead:
        if not any(_divides(h, lm) for h in min_lms):
            minimal.append(g)
            min_lms.append(lm)
    # reduce each generator's tail against the others; no other leading
    # monomial divides its own, so the leading monomials and their
    # ascending order survive
    reduced = []
    for idx, (g, lm) in enumerate(zip(minimal, min_lms)):
        tail, _ = _divide(dict(g), minimal[:idx] + minimal[idx + 1 :],
                          min_lms[:idx] + min_lms[idx + 1 :])
        lc = tail[lm]
        reduced.append(Polynomial(
            nvars, {m: Fraction(c, lc) for m, c in tail.items()}))
    return GroebnerBasis(tuple(reduced), order, nvars)


def _is_power_of(lm: Monomial, var: int) -> bool:
    return sum(lm) == lm[var]


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff the quotient by the ideal is finite-dimensional.

    Criterion: every variable has some leading monomial that is a pure
    power of it.
    """
    return all(any(_is_power_of(lm, var) for lm in gb.leads)
               for var in range(gb.nvars))


def standard_monomials(gb: GroebnerBasis) -> list[Monomial]:
    """Monomials divisible by no leading monomial, ascending degrevlex.

    Their classes form a basis of the quotient; requires a
    zero-dimensional ideal.  Built one degree at a time: a standard m is
    x_i * s for its last variable i and a standard s, made once, and a
    leading monomial dividing m has m's exponent of x_i (else it divides s).
    """
    if not is_zero_dimensional(gb):
        raise ValueError("infinite quotient")
    by_exponent: dict[tuple[int, int], list[Monomial]] = {}
    for lm in gb.leads:
        for var, e in enumerate(lm):
            by_exponent.setdefault((var, e), []).append(lm)
    # (standard monomial, its last variable), one degree at a time
    layer = [] if any(not sum(lm) for lm in gb.leads) else [((0,) * gb.nvars, 0)]
    out = []
    while layer:
        out += [m for m, _ in layer]
        grown = []
        for s, last in layer:
            for var in range(last, gb.nvars):
                m = s[:var] + (s[var] + 1,) + s[var + 1:]
                if not any(_divides(lm, m)
                           for lm in by_exponent.get((var, m[var]), ())):
                    grown.append((m, var))
        # within one degree, degrevlex ascends as the reversed tuple descends
        layer = sorted(grown, key=lambda pair: pair[0][::-1], reverse=True)
    return out
