"""Buchberger's algorithm over Q, normal forms, and standard monomials.

Monomial order is graded reverse lexicographic throughout: compare total
degree first, ties broken at the last differing exponent, smaller
exponent winning.  Pair selection follows the normal strategy (smallest
lcm first), generators are kept monic, and the returned basis is the
unique reduced Groebner basis with generators sorted by leading
monomial, so identical inputs give identical outputs.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .polys import Monomial, Polynomial, degrevlex_key


class MonomialOrder(enum.Enum):
    DEGREVLEX = "degrevlex"


class BudgetExceeded(RuntimeError):
    """Raised when Buchberger's pair budget runs out."""


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

    def leading_monomials(self) -> list[Monomial]:
        return list(self.leads)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def _divides(d: Monomial, m: Monomial) -> bool:
    return all(a <= b for a, b in zip(d, m))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _quotient(m: Monomial, d: Monomial) -> Monomial:
    return tuple(a - b for a, b in zip(m, d))


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g): cancel the leading terms against their lcm."""
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = _lcm(lmf, lmg)
    left = f.times_monomial(_quotient(lcm, lmf), 1 / f.leading_coefficient())
    right = g.times_monomial(_quotient(lcm, lmg), 1 / g.leading_coefficient())
    return left - right


def _reduce(
    p: Polynomial, reducers: Sequence[Polynomial], lms: Sequence[Monomial]
) -> Polynomial:
    """Full multivariate division remainder of p by the (monic) reducers.

    lms[i] is the leading monomial of reducers[i].  Deterministic: at
    each step the largest remaining monomial is either cancelled against
    the first reducer whose leading monomial divides it, or moved to the
    remainder.
    """
    work = dict(p.terms)
    remainder: dict[Monomial, Fraction] = {}
    while work:
        mono = max(work, key=degrevlex_key)
        coeff = work.pop(mono)
        for lm, red in zip(lms, reducers):
            if _divides(lm, mono):
                shift = _quotient(mono, lm)
                scale = coeff / red.terms[lm]
                for m2, c2 in red.terms.items():
                    if m2 == lm:
                        continue
                    target = tuple(a + b for a, b in zip(m2, shift))
                    c = work.get(target, Fraction(0)) - scale * c2
                    if c:
                        work[target] = c
                    else:
                        work.pop(target, None)
                break
        else:
            remainder[mono] = coeff
    return Polynomial(p.nvars, remainder)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Canonical remainder of p modulo the ideal of gb."""
    if p.nvars != gb.nvars:
        raise ValueError("arity mismatch")
    return _reduce(p, gb.generators, gb.leads)


def buchberger(
    gens: list[Polynomial],
    order: MonomialOrder = MonomialOrder.DEGREVLEX,
    max_pairs: int = 10**6,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Zero generators are discarded; an all-zero input is an error.  The
    number of critical pairs examined is capped by max_pairs; exceeding
    it raises BudgetExceeded.
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
    working = [g.monic() for g in basis]
    lms = [g.leading_monomial() for g in working]  # kept in step with working

    queue: dict[tuple[int, int], Monomial] = {}
    for i in range(len(working)):
        for j in range(i + 1, len(working)):
            queue[(i, j)] = _lcm(lms[i], lms[j])
    treated: set[tuple[int, int]] = set()
    examined = 0

    def ordered(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    while queue:
        ij = min(queue, key=lambda k: (degrevlex_key(queue[k]), k))
        lcm_ij = queue.pop(ij)
        i, j = ij
        treated.add(ij)
        examined += 1
        if examined > max_pairs:
            raise BudgetExceeded(f"pair budget {max_pairs} exceeded")
        lmi, lmj = lms[i], lms[j]
        # first criterion: coprime leading monomials reduce to zero
        if all(a == 0 or b == 0 for a, b in zip(lmi, lmj)):
            continue
        # chain criterion: a third generator splits the pair
        skip = False
        for k in range(len(working)):
            if k in ij:
                continue
            if (
                _divides(lms[k], lcm_ij)
                and ordered(i, k) in treated
                and ordered(j, k) in treated
            ):
                skip = True
                break
        if skip:
            continue
        remainder = _reduce(spolynomial(working[i], working[j]), working, lms)
        if not remainder.is_zero():
            t = len(working)
            working.append(remainder.monic())
            lms.append(working[t].leading_monomial())
            for k in range(t):
                queue[(k, t)] = _lcm(lms[k], lms[t])

    # minimalize: drop generators whose leading monomial is divisible by
    # another's, keeping the degrevlex-smallest representatives
    minimal: list[Polynomial] = []
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
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(
            _reduce(g, others, min_lms[:idx] + min_lms[idx + 1 :]).monic())
    return GroebnerBasis(tuple(reduced), order, nvars)


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff the quotient by the ideal is finite-dimensional.

    Criterion: every variable has some leading monomial that is a pure
    power of it.
    """
    lms = gb.leads
    for var in range(gb.nvars):
        if not any(
            all(e == 0 for k, e in enumerate(lm) if k != var) for lm in lms
        ):
            return False
    return True


def standard_monomials(gb: GroebnerBasis) -> list[Monomial]:
    """Monomials divisible by no leading monomial, ascending degrevlex.

    Their classes form a basis of the quotient; requires a
    zero-dimensional ideal.
    """
    if not is_zero_dimensional(gb):
        raise ValueError("infinite quotient")
    lms = gb.leads
    bounds = []
    for var in range(gb.nvars):
        powers = [
            lm[var]
            for lm in lms
            if all(e == 0 for k, e in enumerate(lm) if k != var)
        ]
        bounds.append(min(powers))
    out: list[Monomial] = []

    def rec(prefix: list[int], slot: int) -> None:
        if slot == gb.nvars:
            mono = tuple(prefix)
            if not any(_divides(lm, mono) for lm in lms):
                out.append(mono)
            return
        for e in range(bounds[slot]):
            rec(prefix + [e], slot + 1)

    rec([], 0)
    out.sort(key=degrevlex_key)
    return out
