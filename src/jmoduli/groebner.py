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
Buchberger and normal_form.  Buchberger's pair loop keeps one memo of
each monomial's first divisor, as its reducers only grow, and for each
element the set of partners whose pair with it has been popped: the
chain criterion (Buchberger, EUROSAM 1979) looks for a splitting lead
only among the common partners of a pair.  Everything
downstream of a basis reads its normal forms from one Quotient per
basis: the staircase and a memo of normal forms of packed monomials.

Hilbert drive (Traverso, JSC 22, 1996): for n homogeneous generators of
degrees d_i, dim (S/I)_d >= HF(d), the t^d coefficient of
prod (1 - t^d_i) / (1 - t)^n, as the Macaulay matrix rank is lower
semicontinuous and generic such forms are a regular sequence.  So once
the staircase of the current leads has HF(d) monomials in degree d, the
leads fill that degree of the leading ideal, and a pair of degree d is
skipped undivided: it reduces to zero.  Where dim (S/I)_d > HF(d), as
for singular f, pairs are divided as before.  The staircase grows one
layer at a time, each checking the deadline.  The drive stops for good
when a layer on the way to a pair's degree has, by HF or in fact, more
than n monomials per pair left: growing the layers would cost more than
the divisions they could save.
standard_monomials builds the same layers.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import comb, gcd
from operator import add, le, sub

from .linalg import (BudgetExceeded, Row, _integral, _lowest, _over_lcm,
                     _primitive, check_deadline)
from .polys import Monomial, Polynomial, degrevlex_key
from .stats import Stats

IntTerms = dict[Monomial, int]


@dataclass(frozen=True, eq=False)
class GroebnerBasis:
    """A reduced Groebner basis: the leads and the primitive integer minimal
    generators at once, the reduced generators (tail reduction) on first
    read.  Equality and hashing are on (generators, nvars)."""

    leads: tuple[Monomial, ...]
    minimal: tuple[IntTerms, ...] = field(repr=False)
    nvars: int
    deadline: float | None = field(default=None, repr=False)

    @cached_property
    def generators(self) -> tuple[Polynomial, ...]:
        """Monic, each minimal generator's tail reduced by the others; no
        other lead divides its own, so the leads and their order survive.
        Each checks the deadline of the run that made the basis."""
        gens, leads, out = self.minimal, self.leads, []
        for idx, lm in enumerate(leads):
            check_deadline(self.deadline, "the tail reduction")
            tail, _ = _divide(dict(gens[idx]), gens[:idx] + gens[idx + 1:],
                              leads[:idx] + leads[idx + 1:], {})
            out.append(Polynomial(self.nvars, {
                m: Fraction(c, tail[lm]) for m, c in tail.items()}))
        return tuple(out)

    @cached_property
    def integer_generators(self) -> tuple[IntTerms, ...]:
        """The reduced generators with denominators cleared: primitive,
        with a positive leading coefficient."""
        return tuple(_integral(g.terms)[0] for g in self.generators)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroebnerBasis) and (
            self.generators, self.nvars) == (other.generators, other.nvars)

    def __hash__(self) -> int:
        return hash((self.generators, self.nvars))

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.leads)


def _divides(d: Monomial, m: Monomial) -> bool:
    return all(map(le, d, m))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _quotient(m: Monomial, d: Monomial) -> Monomial:
    return tuple(map(sub, m, d))


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g): cancel the leading terms against their lcm."""
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    top = _lcm(lmf, lmg)
    left = f.times_monomial(_quotient(top, lmf), 1 / f.leading_coefficient())
    right = g.times_monomial(_quotient(top, lmg), 1 / g.leading_coefficient())
    return left - right


def _divide(
    work: IntTerms, reducers: Sequence[IntTerms], lms: Sequence[Monomial],
    memo: dict[Monomial, int],
) -> tuple[IntTerms, int]:
    """(r, scale): r / scale is the remainder of work (consumed) divided
    by the monic reducers, and r lists its terms in descending order.

    lms[i] is the leading monomial of reducers[i], with a positive
    coefficient there.  The largest monomial left is either cancelled
    by the first reducer whose leading monomial divides it, or moved to
    the remainder.  memo maps a monomial to the index of that reducer,
    or to ~k when none of the first k divides it, so a later call scans
    only the leads added since: it holds while reducers only grow by
    appending, and callers whose reducers change otherwise pass {}.
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
        idx = memo.get(mono, -1)
        if idx < 0:
            for idx in range(~idx, len(lms)):
                if _divides(lms[idx], mono):
                    break
            else:
                idx = ~len(lms)
            memo[mono] = idx
        if idx < 0:
            remainder[mono] = coeff
            continue
        lm, red = lms[idx], reducers[idx]
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
    remainder, scale = _divide(work, gb.integer_generators, gb.leads, {})
    scale *= den
    return Polynomial(
        p.nvars, {m: Fraction(c, scale) for m, c in remainder.items()})


class Quotient:
    """S/I for one reduced zero-dimensional basis gb: the staircase, the
    index of each standard monomial, and a memo of monomial normal forms,
    every row it returns keyed by that index.

    The memo is the monomial table of FGLM (Faugere, Gianni, Lazard and
    Mora, JSC 16, 1993), fraction-free: rows[m] = (r, den) in lowest terms,
    NF(m) = r / den.  A standard m is the row ({index[m]: 1}, 1); any other
    m takes the first integer generator lc * lm + sum c * t whose lm divides
    it, and NF(m) = -sum c * NF(t * shift) / lc, over one common
    denominator.  Each t * shift is below m in degrevlex, so the walk ends.
    Each memo miss and each staircase layer checks the time.perf_counter()
    deadline.  Any other basis raises ValueError at the first row.

    Past the tuples of row, standard and index, monomials are packed
    (Bachmann and Schoenemann, ISSAC 1998) on the first row or pack: bits
    [i*B, (i+1)*B) hold exponent i, the top one a guard G, so a product is
    one + and lm divides m iff ((m | G) - lm) & G == G.  pack and row take
    degrees below limit = 2^(B-2) > 2 * (top degree of the staircase and
    leads) + 1, else raise ValueError.  A product of two stays below
    2^(B-1), and the walk never raises a degree: no field reaches its guard.
    """

    def __init__(self, gb: GroebnerBasis, deadline: float | None = None) -> None:
        self.gb = gb
        self.deadline = deadline
        self.rows: dict[int, tuple[Row, int]] = {}

    @cached_property
    def standard(self) -> tuple[Monomial, ...]:
        """The standard monomials, ascending degrevlex."""
        return tuple(standard_monomials(self.gb, self.deadline))

    @cached_property
    def index(self) -> dict[Monomial, int]:
        return {m: i for i, m in enumerate(self.standard)}

    @cached_property
    def _packing(self) -> tuple:
        """(packer, B, limit, G, packed staircase, its index, (lm, lc, tail)s)."""
        top = max(map(sum, (*self.gb.leads, *self.standard)))
        bits = max(2 * top + 1, 7).bit_length() + 2  # limit >= 8
        limit = 1 << bits - 2

        def pack(m: Monomial) -> int:
            if sum(m) >= limit:
                raise ValueError(f"degree {sum(m)} is beyond the packing ({limit})")
            return sum(e << i * bits for i, e in enumerate(m))

        std = list(map(pack, self.standard))
        gens = [(pack(lm), g[lm], [(pack(t), c) for t, c in g.items() if t != lm])
                for lm, g in zip(self.gb.leads, self.gb.integer_generators)]
        guards = sum(2 * limit << i * bits for i in range(self.gb.nvars))
        return pack, bits, limit, guards, std, {m: i for i, m in enumerate(std)}, gens

    def pack(self, terms: dict[Monomial, int]) -> list[tuple[int, int]]:
        """Integer terms {monomial: c} as packed terms (key, c)."""
        return [(self._packing[0](m), c) for m, c in terms.items()]

    def unpack(self, key: int) -> Monomial:
        bits = self._packing[1]
        return tuple(key >> i * bits & (1 << bits) - 1 for i in range(self.gb.nvars))

    def times(self, row: Row, monos: list[tuple[int, int]]) -> list[frozenset]:
        """The keys of the index row times each packed term m (shifts)."""
        std = self._packing[4]
        return [frozenset([(std[i] + m, c * e) for i, c in row.items()])
                for m, e in monos]

    def product(self, p: list[tuple[int, int]], q: list[tuple[int, int]]) -> frozenset:
        """The key of the product of packed terms: its nonzero terms."""
        out: dict[int, int] = {}
        for s, c in p:
            for t, d in q:
                out[s + t] = out.get(s + t, 0) + c * d
        return frozenset([(m, c) for m, c in out.items() if c])

    def row(self, mono: Monomial) -> tuple[Row, int]:
        """NF(mono) = r / den, for mono of degree below the limit."""
        return self.reduce(self.pack({mono: 1}))

    def reduce(self, key: Collection[tuple[int, int]]) -> tuple[Row, int]:
        """NF(p) = r / den of a key p of times or product, summed from memo
        rows; each miss walks down to the memo first."""
        rows = self.rows
        _, _, _, guards, _, index, gens = self._packing
        # (monomial, lc, its shifted tail terms once expanded); an entry
        # whose targets are missing goes back under them and is finished after
        stack: list = [(m, 1, None) for m, _ in key if m not in rows]
        while stack:
            m, lc, tail = stack.pop()
            if m in rows:
                continue
            check_deadline(self.deadline, "normal forms")
            if tail is None:
                if m in index:
                    rows[m] = ({index[m]: 1}, 1)
                    continue
                for lm, lc, g_tail in gens:
                    if ((m | guards) - lm) & guards == guards:
                        break
                tail = [(t + (m - lm), c) for t, c in g_tail]
                missing = [(t, 1, None) for t, _ in tail if t not in rows]
                if missing:
                    stack.append((m, lc, tail))
                    stack.extend(missing)
                    continue
            row, den = _over_lcm([(-c, rows[t]) for t, c in tail])
            rows[m] = _lowest(row, den * lc)
        return _over_lcm([(c, rows[m]) for m, c in key])


def buchberger(
    gens: list[Polynomial],
    max_pairs: int = 10**6,
    deadline: float | None = None,
    stats: Stats | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Zero generators are discarded; an all-zero input is an error.  The
    number of critical pairs examined is capped by max_pairs, and each
    popped pair checks the time.perf_counter() deadline, as does each
    generator of the later tail reduction; running past either raises
    BudgetExceeded.  Exactly nvars homogeneous generators turn on the
    Hilbert drive (module docstring).  stats counts pairs,
    skipped_criteria, skipped_hilbert, zero_reductions, basis_len and
    divisor_memo (the monomials whose first divisor the pair loop looked
    up).
    """
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("zero ideal generators")
    nvars = basis[0].nvars
    for g in basis:
        if g.nvars != nvars:
            raise ValueError("generators have mixed arity")
    lms = [g.leading_monomial() for g in basis]  # kept in step with working
    working = [_primitive(_integral(g.terms)[0], lm) for g, lm in zip(basis, lms)]
    stair = None
    if len(basis) == nvars and all(g.is_homogeneous() for g in basis):
        stair = _Staircase(nvars, lms)
        # HF(d) sums c * C(d - k + n - 1, n - 1) over the at most 2^n
        # terms c * t^k of prod (1 - t^deg g), so any degree costs the same
        num = {0: 1}
        for e in map(sum, lms):
            for k, c in list(num.items()):
                num[k + e] = num.get(k + e, 0) - c
        hilbert = cache(lambda d: sum(c * comb(d - k + nvars - 1, nvars - 1)
                                      for k, c in num.items() if k <= d))
    tally = dict.fromkeys(
        ("skipped_criteria", "skipped_hilbert", "zero_reductions"), 0)

    # pending pairs as (degrevlex_key(lcm), i, j, lcm): popped smallest lcm
    # first, ties broken by (i, j)
    queue: list[tuple[tuple, int, int, Monomial]] = []

    def push(i: int, j: int) -> None:
        lcm = _lcm(lms[i], lms[j])
        heapq.heappush(queue, (degrevlex_key(lcm), i, j, lcm))

    for i in range(len(working)):
        for j in range(i + 1, len(working)):
            push(i, j)
    # partners[i]: the k whose pair with i has been popped
    partners: list[set[int]] = [set() for _ in working]
    examined = 0
    memo: dict[Monomial, int] = {}  # first divisors; working only grows
    while queue:
        _, i, j, lcm_ij = heapq.heappop(queue)
        partners[i].add(j)
        partners[j].add(i)
        examined += 1
        if examined > max_pairs:
            raise BudgetExceeded(f"pair budget {max_pairs} exceeded")
        check_deadline(deadline, "Buchberger")
        lmi, lmj = lms[i], lms[j]
        # first criterion (coprime leading monomials) or chain criterion
        # (a third generator, whose pairs with i and j are both popped,
        # splits the pair): the pair reduces to zero
        if all(a == 0 or b == 0 for a, b in zip(lmi, lmj)) or any(
            _divides(lms[k], lcm_ij) for k in partners[i] & partners[j]
        ):
            tally["skipped_criteria"] += 1
            continue
        # Hilbert drive: the leads already fill their degree of the ideal.
        # It stops for good once a layer on the way to this degree has, by
        # the bound or in fact, more than nvars monomials per pair left.
        degree, budget = sum(lcm_ij), nvars * (len(queue) + 1)
        if stair and any(hilbert(e) > budget
                         for e in range(len(stair.layers), degree + 1)):
            stair = None
        layer = stair and stair.layer(degree, budget, deadline)
        if layer is None:
            stair = None
        elif len(layer) == hilbert(degree):
            tally["skipped_hilbert"] += 1
            continue
        remainder, _ = _divide(
            _spair(working[i], lmi, working[j], lmj, lcm_ij), working, lms,
            memo)
        if remainder:
            t = len(working)
            lms.append(next(iter(remainder)))
            working.append(_primitive(remainder, lms[t]))
            partners.append(set())
            if stair:
                stair.add(lms[t])
            for k in range(t):
                push(k, t)
        else:
            tally["zero_reductions"] += 1

    # minimalize: drop generators whose leading monomial is divisible by
    # another's, keeping the degrevlex-smallest representatives
    minimal: list[IntTerms] = []
    min_lms: list[Monomial] = []
    for lm, g in sorted(zip(lms, working), key=lambda p: degrevlex_key(p[0])):
        if not any(_divides(h, lm) for h in min_lms):
            minimal.append(g)
            min_lms.append(lm)
    gb = GroebnerBasis(tuple(min_lms), tuple(minimal), nvars, deadline)
    if stats is not None:
        for key, n in dict(pairs=examined, **tally, basis_len=len(gb),
                           divisor_memo=len(memo)).items():
            stats.count(key, n)
    return gb


def _is_power_of(lm: Monomial, var: int) -> bool:
    return sum(lm) == lm[var]


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff the quotient by the ideal is finite-dimensional.

    Criterion: every variable has some leading monomial that is a pure
    power of it.
    """
    return all(any(_is_power_of(lm, var) for lm in gb.leads)
               for var in range(gb.nvars))


class _Staircase:
    """The standard monomials under a growing set of leads, one layer per
    degree, as (monomial, its last variable) pairs.  Layer d + 1 is x_i * s
    for s in layer d and i at least the last variable of s, so each is made
    once, less the multiples of a lead; a lead dividing m = x_i * s has m's
    exponent of x_i, else it divides the standard s.  Leads come in degree
    order, with no layer above their degree built yet, so a lead removes
    itself from its layer and nothing else."""

    def __init__(self, nvars: int, leads: Sequence[Monomial]) -> None:
        self.by_exponent: dict[tuple[int, int], list[Monomial]] = {}
        self.layers = [[((0,) * nvars, 0)]]
        for lm in leads:
            self.add(lm)

    def add(self, lm: Monomial) -> None:
        for var, e in enumerate(lm):
            self.by_exponent.setdefault((var, e), []).append(lm)
        if sum(lm) < len(self.layers):
            self.layers[sum(lm)] = [p for p in self.layers[sum(lm)] if p[0] != lm]

    def layer(
        self, degree: int, budget: int | None = None,
        deadline: float | None = None,
    ) -> list[tuple[Monomial, int]] | None:
        """The layer of one degree, or None when a layer it would grow
        from has more than budget monomials.  Each grown layer checks the
        time.perf_counter() deadline."""
        layers, by_exponent = self.layers, self.by_exponent
        while len(layers) <= degree:
            if budget is not None and len(layers[-1]) > budget:
                return None
            check_deadline(deadline, "Buchberger")
            # degrevlex ascends as the reversed tuple descends in one degree
            layers.append(sorted([
                (m, var) for s, last in layers[-1] for var in range(last, len(s))
                for m in [s[:var] + (s[var] + 1,) + s[var + 1:]]
                if not any(_divides(lm, m)
                           for lm in by_exponent.get((var, m[var]), ()))
            ], key=lambda pair: pair[0][::-1], reverse=True))
        return layers[degree]

    def complete(self, deadline: float | None = None) -> list[Monomial]:
        """Every standard monomial, ascending degrevlex, once the layers
        end (a zero-dimensional ideal).  Each layer checks the deadline."""
        while self.layers[-1]:
            check_deadline(deadline, "the staircase")
            self.layer(len(self.layers))
        return [m for layer in self.layers for m, _ in layer]


def standard_monomials(gb: GroebnerBasis,
                       deadline: float | None = None) -> list[Monomial]:
    """Monomials divisible by no leading monomial, ascending degrevlex.

    Their classes form a basis of the quotient; requires a
    zero-dimensional ideal.  Each layer checks the deadline.
    """
    if not is_zero_dimensional(gb):
        raise ValueError("infinite quotient")
    return _Staircase(gb.nvars, gb.leads).complete(deadline)
