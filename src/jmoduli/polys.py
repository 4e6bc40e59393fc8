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

Whitespace is insignificant.  A leading '-' binds to the first term's
coefficient; there is no unary minus in front of a bare factor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

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
    return (sum(m),) + tuple(-e for e in reversed(m))


def _add_term(acc: dict, key, value) -> None:
    """acc[key] += value, dropping the key when the sum cancels."""
    c = acc.get(key, 0) + value
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


class Polynomial:
    """Immutable sparse polynomial over Q."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Monomial, Fraction] | None = None) -> None:
        self.nvars = nvars
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

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def monomials(self) -> Iterator[Monomial]:
        return iter(self.terms)

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

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_arity(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            _add_term(terms, mono, coeff)
        return Polynomial(self.nvars, terms)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check_arity(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _add_term(terms, tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
        return Polynomial(self.nvars, terms)

    def scale(self, coeff: Fraction | int) -> Polynomial:
        c = Fraction(coeff)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial(self.nvars, {m: c * v for m, v in self.terms.items()})

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

    def _check_arity(self, other: Polynomial) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")

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


def parse_polynomial(text: str, nvars: int | None = None) -> Polynomial:
    """Parse the CLI polynomial format.

    If nvars is None the arity is inferred as 1 + the largest variable
    index mentioned (and 1 for a constant).  Raises ParseError with a
    position on malformed input.
    """
    stripped = text.replace(" ", "").replace("\t", "").replace("\n", "")
    if not stripped:
        raise ParseError("empty input", 0)

    # first pass: tokenize against the original string so positions are real
    tokens: list[tuple[str, str, int]] = []  # (kind, value, position)
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\n":
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable needs an index", i)
            tokens.append(("var", text[i:j], i))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)

    pos = 0

    def peek() -> tuple[str, str, int] | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> tuple[str, str, int]:
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1][2] + len(tokens[-1][1]) if tokens else 0
            raise ParseError("unexpected end of input", last)
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_factor() -> tuple[int, int]:
        """Returns (variable index, exponent)."""
        kind, value, at = take()
        if kind != "var":
            raise ParseError("expected a variable", at)
        index = int(value[1:])
        exponent = 1
        nxt = peek()
        if nxt and nxt[0] == "op" and nxt[1] == "^":
            take()
            ekind, evalue, eat = take()
            if ekind != "int":
                raise ParseError("expected an exponent", eat)
            exponent = int(evalue)
        return index, exponent

    def parse_term(sign: int) -> tuple[dict[int, int], Fraction]:
        """Returns (exponent map, coefficient)."""
        coeff = Fraction(sign)
        exponents: dict[int, int] = {}
        tok = peek()
        if tok is None:
            raise ParseError("expected a term", tokens[-1][2] if tokens else 0)
        if tok[0] == "int":
            take()
            numer = int(tok[1])
            nxt = peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                take()
                dkind, dvalue, dat = take()
                if dkind != "int" or int(dvalue) == 0:
                    raise ParseError("expected a nonzero denominator", dat)
                coeff *= Fraction(numer, int(dvalue))
            else:
                coeff *= numer
            nxt = peek()
            if nxt and nxt[0] == "op" and nxt[1] == "*":
                take()
                idx, exp = parse_factor()
                exponents[idx] = exponents.get(idx, 0) + exp
            else:
                return exponents, coeff
        elif tok[0] == "var":
            idx, exp = parse_factor()
            exponents[idx] = exponents.get(idx, 0) + exp
        else:
            raise ParseError("expected a coefficient or variable", tok[2])
        while True:
            nxt = peek()
            if nxt and nxt[0] == "op" and nxt[1] == "*":
                take()
                idx, exp = parse_factor()
                exponents[idx] = exponents.get(idx, 0) + exp
            else:
                return exponents, coeff

    terms: list[tuple[dict[int, int], Fraction]] = []
    first = peek()
    sign = 1
    if first and first[0] == "op" and first[1] == "-":
        take()
        sign = -1
    elif first and first[0] == "op" and first[1] == "+":
        take()
    terms.append(parse_term(sign))
    while pos < len(tokens):
        kind, value, at = take()
        if kind != "op" or value not in "+-":
            raise ParseError("expected '+' or '-'", at)
        terms.append(parse_term(1 if value == "+" else -1))

    max_index = -1
    for exponents, _ in terms:
        for idx in exponents:
            max_index = max(max_index, idx)
    if nvars is None:
        nvars = max_index + 1 if max_index >= 0 else 1
    elif max_index >= nvars:
        raise ParseError(f"variable x{max_index} exceeds nvars={nvars}", 0)

    acc: dict[Monomial, Fraction] = {}
    for exponents, coeff in terms:
        mono = tuple(exponents.get(i, 0) for i in range(nvars))
        _add_term(acc, mono, coeff)
    return Polynomial(nvars, acc)


def monomial_factors(mono: Monomial) -> list[str]:
    """The factors x_i or x_i^e of a monomial, in variable order."""
    return [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono) if e]


def render_signed_sum(terms: Iterable[tuple[Fraction, list[str]]]) -> str:
    """Text of a sum of (coefficient, factor strings) pairs, in the order
    given: a coefficient of magnitude 1 is left out unless the term has no
    factors, and signs join the terms."""
    parts: list[str] = []
    for coeff, factors in terms:
        mag = abs(coeff)
        piece = "*".join(factors if factors and mag == 1
                         else [str(mag), *factors])
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
