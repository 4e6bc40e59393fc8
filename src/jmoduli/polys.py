"""Multivariate polynomials over Q with weighted-degree support.

Polynomials live in S = Q[x0, ..., x_{n-1}] and are stored sparsely as a
mapping from exponent tuples to nonzero Fraction coefficients.  The text
format accepted by :func:`parse_polynomial` is the one used throughout the
command line interface:

    poly   := term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' nat)?
    var    := 'x' nat
    coeff  := int ('/' nat)?

Blanks (space, tab, newline) may separate tokens but not split them.
A leading '-' binds to the first term's coefficient; there is no unary
minus in front of a bare factor.

SparseSum is the one sparse-term algebra of the package: Polynomial
here, and TPolynomial and FElement in dgla, differ only in their term
keys, constructors and products, and share its sums, equality and
ring check.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import neg
from typing import Iterable

Monomial = tuple[int, ...]


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def degrevlex_key(m: Monomial) -> tuple:
    """Sort key under which monomials ascend in graded reverse lex order.

    Grade first by total degree; among equal degrees, m > m' iff the LAST
    nonzero entry of m - m' is negative.  Encoding that as an ascending
    key: higher monomial == larger tuple.
    """
    return (sum(m), *map(neg, reversed(m)))


def _add_term(acc: dict, key, value) -> None:
    """acc[key] += value, dropping the key when the sum cancels."""
    c = acc.get(key, 0) + value
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


class SparseSum:
    """A sparse sum of terms over Q: terms maps each term key to its nonzero
    Fraction coefficient.

    The ring is named by nvars and nu, the weight of y in S[y] (None for S
    itself); operands from different rings raise ValueError.  Each subclass
    fixes its term keys and validates them in its constructor; the sums
    here build results through _of, which trusts its terms.  A sum has the
    type of an operand that is an instance of the other's type, so a
    subclass view stays a view only when both operands are views.
    """

    __slots__ = ("nvars", "nu", "terms")

    @classmethod
    def _of(cls, nvars: int, nu: int | None, terms: dict):
        """An element whose terms are already canonical and nonzero."""
        out = object.__new__(cls)
        out.nvars, out.nu, out.terms = nvars, nu, terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.nvars, self.nu, self.terms) == (
            other.nvars, other.nu, other.terms)

    def _check(self, other: SparseSum) -> None:
        if self.nvars != other.nvars or self.nu != other.nu:
            raise ValueError(f"mixed rings: nvars={self.nvars}, nu={self.nu} "
                             f"vs nvars={other.nvars}, nu={other.nu}")

    def _sum_type(self, other: SparseSum) -> type:
        return type(self) if isinstance(other, type(self)) else type(other)

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            _add_term(terms, k, v)
        return self._sum_type(other)._of(self.nvars, self.nu, terms)

    def __neg__(self):
        return self._of(self.nvars, self.nu, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff: Fraction | int):
        c = Fraction(coeff)
        return self._of(self.nvars, self.nu,
                        {k: c * v for k, v in self.terms.items()} if c else {})


class Polynomial(SparseSum):
    """Immutable sparse polynomial over Q, keyed by exponent tuples."""

    __slots__ = ()

    def __init__(self, nvars: int, terms: dict[Monomial, Fraction] | None = None) -> None:
        self.nvars = nvars
        self.nu = None
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has wrong arity for nvars={nvars}")
                c = Fraction(coeff)
                if c:
                    clean[mono] = c
        self.terms = clean

    # construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> Polynomial:
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Fraction | int) -> Polynomial:
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> Polynomial:
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    @classmethod
    def monomial(cls, mono: Monomial, coeff: Fraction | int = 1) -> Polynomial:
        return cls(len(mono), {mono: Fraction(coeff)})

    # predicates and accessors ---------------------------------------------

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def leading_monomial(self) -> Monomial:
        """Largest monomial in graded reverse lex order.  Zero has none."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=degrevlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    # arithmetic -----------------------------------------------------------

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _add_term(terms, tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
        return Polynomial(self.nvars, terms)

    def monic(self) -> Polynomial:
        """Divide by the leading coefficient."""
        return self.scale(1 / self.leading_coefficient())

    def times_monomial(self, mono: Monomial, coeff: Fraction | int = 1) -> Polynomial:
        c = Fraction(coeff)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial(
            self.nvars,
            {tuple(a + b for a, b in zip(m, mono)): c * v for m, v in self.terms.items()},
        )

    def partial_derivative(self, index: int) -> Polynomial:
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e:
                lowered = mono[:index] + (e - 1,) + mono[index + 1 :]
                terms[lowered] = terms.get(lowered, Fraction(0)) + coeff * e
        return Polynomial(self.nvars, terms)

    def __repr__(self) -> str:
        return f"Polynomial({render_polynomial(self)!r})"


class RingContext:
    """Ambient data for a weighted hypersurface computation.

    nvars is the number of variables of S; nu is the common weight of the
    defining forms we care about.  The quasi-cone condition used throughout
    is nu == nvars (each variable has weight 1 and the form has degree
    equal to the variable count).
    """

    __slots__ = ("nvars", "nu")

    def __init__(self, nvars: int, nu: int) -> None:
        if nvars < 1:
            raise ValueError("need at least one variable")
        if nu < 1:
            raise ValueError("weight must be positive")
        self.nvars = nvars
        self.nu = nu

    @property
    def is_calabi_yau(self) -> bool:
        return self.nu == self.nvars

    @property
    def socle_weight(self) -> int:
        # top nonzero weight of the Milnor algebra of a nonsingular form
        return self.nvars * (self.nu - 2)

    def __repr__(self) -> str:
        return f"RingContext(nvars={self.nvars}, nu={self.nu})"


def monomials_of_weight(nvars: int, weight: int) -> list[Monomial]:
    """All exponent tuples of the given total degree, ascending degrevlex.

    That order runs the last exponent down, then the one before it, and so
    on: the tuples grow from the last variable in that order, unsorted.
    """
    if weight < 0:
        return []
    tails: list[tuple[Monomial, int]] = [((), weight)]
    for _ in range(nvars - 1):
        tails = [((e,) + tail, rest - e) for tail, rest in tails
                 for e in range(rest, -1, -1)]
    return [(rest,) + tail for tail, rest in tails]


# ---------------------------------------------------------------------------
# text format


# one token per match, told apart by m.lastindex: 1 a variable, 2 a
# number, 3 an operator, 4 any other character but a blank
_TOKEN = re.compile(r"(x\d*)|(\d+)|([-+*/^])|([^ \t\n])")
# every term is a tuple of nvars exponents, so the arity is capped
MAX_NVARS = 64


def parse_polynomial(text: str, nvars: int | None = None) -> Polynomial:
    """Parse the CLI polynomial format.

    If nvars is None the arity is inferred as 1 + the largest variable
    index mentioned (and 1 for a constant).  Raises ParseError with a
    position on malformed input, and on an arity above MAX_NVARS.
    """
    # (kind, text, position); the kind is 'x', 'n' for a nonzero number,
    # '0' for a zero, or the operator itself
    tokens: list[tuple[str, str, int]] = []
    for m in _TOKEN.finditer(text):
        kind, value, at = m.lastindex, m[0], m.start()
        if kind == 4:
            raise ParseError(f"unexpected character {value!r}", at)
        # before a digit that int() refuses, such as '²', the fault is the digit
        if value == "x" and not text[m.end():m.end() + 1].isdigit():
            raise ParseError("variable needs an index", at)
        kind = "x" if kind == 1 else value if kind == 3 else "n" if int(value) else "0"
        tokens.append((kind, value, at))
    if not tokens:
        raise ParseError("empty input", 0)
    pos = 0

    def take(kinds: str, message: str | None = None) -> str | None:
        """The text of the next token if its kind is one of kinds, consumed;
        otherwise None, or ParseError(message) when a message is given."""
        nonlocal pos
        if pos < len(tokens) and tokens[pos][0] in kinds:
            pos += 1
            return tokens[pos - 1][1]
        if message is None:
            return None
        if pos < len(tokens):
            raise ParseError(message, tokens[pos][2])
        _, value, at = tokens[-1]
        raise ParseError("unexpected end of input", at + len(value))

    terms: list[tuple[dict[int, int], Fraction]] = []  # (exponents, coefficient)
    sign = take("+-")
    while True:
        if pos == len(tokens):
            raise ParseError("expected a term", tokens[-1][2])
        coeff = Fraction(-1 if sign == "-" else 1)
        number = take("n0")
        factor, message = not number, "expected a coefficient or variable"
        if number:
            den = take("/") and take("n", "expected a nonzero denominator")
            coeff *= Fraction(int(number), int(den or 1))
            factor, message = take("*"), "expected a variable"
        exponents: dict[int, int] = {}
        while factor:
            index = int(take("x", message)[1:])
            power = take("^") and take("n0", "expected an exponent")
            exponents[index] = exponents.get(index, 0) + int(power or 1)
            factor, message = take("*"), "expected a variable"
        terms.append((exponents, coeff))
        if pos == len(tokens):
            break
        sign = take("+-", "expected '+' or '-'")

    top = max((i for exponents, _ in terms for i in exponents), default=-1)
    if nvars is None:
        nvars = max(top + 1, 1)
    elif top >= nvars:
        raise ParseError(f"variable x{top} exceeds nvars={nvars}", 0)
    if nvars > MAX_NVARS:
        raise ParseError(f"nvars={nvars} exceeds the limit {MAX_NVARS}", 0)
    acc: dict[Monomial, Fraction] = {}
    for exponents, coeff in terms:
        _add_term(acc, tuple(exponents.get(i, 0) for i in range(nvars)), coeff)
    return Polynomial(nvars, acc)


def monomial_factors(mono: Monomial) -> list[str]:
    """The factors x_i or x_i^e of a monomial, in variable order."""
    return [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono) if e]


def render_term(mag: Fraction | int, factors: list[str]) -> str:
    """Text of the term mag * factors for mag > 0: a magnitude of 1 is left
    out unless there are no factors, so a monomial reads x0^2*x1, or 1."""
    return "*".join(factors) or "1" if mag == 1 else "*".join([str(mag), *factors])


def render_signed_sum(terms: Iterable[tuple[Fraction, list[str]]]) -> str:
    """Text of a sum of (coefficient, factor strings) pairs, in the order
    given: each term by render_term, joined by signs."""
    parts: list[str] = []
    for coeff, factors in terms:
        piece = render_term(abs(coeff), factors)
        if not parts:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if coeff > 0 else f" - {piece}")
    return "".join(parts) or "0"


def render_polynomial(p: Polynomial) -> str:
    """Inverse of parse_polynomial: descending degrevlex, canonical text."""
    return render_signed_sum(
        (p.terms[mono], monomial_factors(mono))
        for mono in sorted(p.terms, key=degrevlex_key, reverse=True))
