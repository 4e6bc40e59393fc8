"""Derivation Lie algebra of S[y] with a square-zero differential, and the
wedge calculus built on top of it.

The carrier ring is T = S[y] where S = Q[x0..x_{n}]: every x carries
weight 1 and homological degree 0, while y carries weight nu and degree
-1.  Three families of symbols act on T:

    d0..dn   the x-direction derivations (degree 0, weight -1)
    del      the y-direction derivation (degree 1, weight -nu)
    e        a scaling class: e acts on a weight-homogeneous element by
             multiplying it with its weight (degree -1, weight 0)

A homogeneous form f of weight nu induces the differential d_f fixed on
generators by

    d_f(d_i) = f_i del        d_f(y d_i) = f d_i - f_i y del
    d_f(del) = 0              d_f(y del) = f del
    d_f(e)   = sum_k x^k d_k - nu y del

and extended to y-powers by the parity rule d_f(y^b) = (b mod 2) f y^{b-1}
together with a Koszul sign (-1)^b when d_f passes a coefficient y^b.
With these signs d_f squares to zero on all coefficiented derivation
words and on the bare class e; the Euler identity sum x^k f_k = nu f is
what makes the e-image close.  Wedge words that mix e with an odd number
of x-direction letters do not square to zero under any sign assignment
(y would have to square to zero for that), so graded pieces never
enumerate mixed e-words: e enters only as a one-dimensional scalar line.

The odd bracket on wedge words peels the leftmost letter:

    [a ^ B, C] = a ^ [B, C] + (-1)^{(|C|+1)|B|} [a, C] ^ B

with |.| the word length, the coefficient travelling with the peeled
letter, and [A, B] = -(-1)^{(|A|-1)(|B|-1)} [B, A] used to reverse onto
shorter first arguments.  On single letters it restricts to the ordinary
commutator of derivations (closed form [t l1, s l2] = t l1(s) l2 -
s l2(t) l1) plus the symmetric weight rule for e.  Restricted to words
in the x-direction letters alone this is the classical multivector
bracket and satisfies shifted antisymmetry, the shifted Jacobi identity
and the odd Poisson rule in the word-length grading; words containing
del braid evenly (del ^ del does not vanish) and sit outside those
uniform sign laws.  See tests for the exact inventory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .jacobian import weight_of_or_none
from .linalg import rank_of
from .polys import (
    Monomial,
    Polynomial,
    degrevlex_key,
    monomials_of_weight,
)

DEL = "del"
E = "e"


class TruncationError(ValueError):
    """A wedge word grew past the admissible length (nvars - 2)."""


def _sign(k: int) -> int:
    # (-1)**k returns a float for negative k; keep everything integral
    return -1 if k % 2 else 1


def _letter_fdeg(letter) -> int:
    """Homological degree a letter contributes to a wedge word."""
    if letter == DEL:
        return 2
    if letter == E:
        return 0
    return 1


def _letter_weight(letter, nu: int) -> int:
    if letter == DEL:
        return -nu
    if letter == E:
        return 0
    return -1


def _letter_rank(letter, nvars: int) -> int:
    if letter == DEL:
        return nvars
    if letter == E:
        return nvars + 1
    return letter


def _check_letter(letter, nvars: int) -> None:
    if letter in (DEL, E):
        return
    if isinstance(letter, int) and 0 <= letter < nvars:
        return
    raise ValueError(f"unknown letter {letter!r} for nvars={nvars}")


def _render_letter(letter) -> str:
    return letter if isinstance(letter, str) else f"d{letter}"


# ---------------------------------------------------------------------------
# the coefficient ring T = S[y]


class TPolynomial:
    """Sparse element of S[y], keyed by (x-exponents, y-exponent).

    Weight of x^a y^b is |a| + b*nu, homological degree is -b.  nu rides
    along on the object so weights are computable without extra context.
    """

    __slots__ = ("nvars", "nu", "terms")

    def __init__(self, nvars: int, nu: int, terms=None) -> None:
        self.nvars = nvars
        self.nu = nu
        clean: dict = {}
        if terms:
            for (mono, yexp), coeff in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has wrong arity")
                if yexp < 0:
                    raise ValueError("negative y exponent")
                c = Fraction(coeff)
                if c:
                    clean[(tuple(mono), yexp)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int, nu: int) -> "TPolynomial":
        return cls(nvars, nu, {})

    @classmethod
    def constant(cls, nvars: int, nu: int, value) -> "TPolynomial":
        return cls(nvars, nu, {((0,) * nvars, 0): Fraction(value)})

    @classmethod
    def monomial(cls, nvars: int, nu: int, mono: Monomial, yexp: int = 0,
                 coeff=1) -> "TPolynomial":
        return cls(nvars, nu, {(tuple(mono), yexp): Fraction(coeff)})

    @classmethod
    def y(cls, nvars: int, nu: int, power: int = 1) -> "TPolynomial":
        return cls(nvars, nu, {((0,) * nvars, power): Fraction(1)})

    @classmethod
    def from_s(cls, p: Polynomial, nu: int) -> "TPolynomial":
        return cls(p.nvars, nu, {(m, 0): c for m, c in p.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TPolynomial):
            return NotImplemented
        return (self.nvars, self.nu, self.terms) == (
            other.nvars, other.nu, other.terms)

    def _check(self, other: "TPolynomial") -> None:
        if self.nvars != other.nvars or self.nu != other.nu:
            raise ValueError("mixed carrier rings")

    def __add__(self, other: "TPolynomial") -> "TPolynomial":
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            c = terms.get(k, Fraction(0)) + v
            if c:
                terms[k] = c
            else:
                terms.pop(k, None)
        return TPolynomial(self.nvars, self.nu, terms)

    def __neg__(self) -> "TPolynomial":
        return TPolynomial(self.nvars, self.nu,
                           {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "TPolynomial") -> "TPolynomial":
        return self + (-other)

    def __mul__(self, other: "TPolynomial") -> "TPolynomial":
        self._check(other)
        terms: dict = {}
        for (ma, ya), ca in self.terms.items():
            for (mb, yb), cb in other.terms.items():
                k = (tuple(a + b for a, b in zip(ma, mb)), ya + yb)
                c = terms.get(k, Fraction(0)) + ca * cb
                if c:
                    terms[k] = c
                else:
                    del terms[k]
        return TPolynomial(self.nvars, self.nu, terms)

    def scale(self, coeff) -> "TPolynomial":
        c = Fraction(coeff)
        if not c:
            return TPolynomial.zero(self.nvars, self.nu)
        return TPolynomial(self.nvars, self.nu,
                           {k: c * v for k, v in self.terms.items()})

    def partial_x(self, index: int) -> "TPolynomial":
        terms: dict = {}
        for (mono, yexp), coeff in self.terms.items():
            ex = mono[index]
            if ex:
                lowered = mono[:index] + (ex - 1,) + mono[index + 1:]
                k = (lowered, yexp)
                terms[k] = terms.get(k, Fraction(0)) + coeff * ex
        return TPolynomial(self.nvars, self.nu, terms)

    def partial_y(self) -> "TPolynomial":
        terms: dict = {}
        for (mono, yexp), coeff in self.terms.items():
            if yexp:
                k = (mono, yexp - 1)
                terms[k] = terms.get(k, Fraction(0)) + coeff * yexp
        return TPolynomial(self.nvars, self.nu, terms)

    def term_weight(self, key) -> int:
        mono, yexp = key
        return sum(mono) + yexp * self.nu

    def weight_or_none(self) -> "int | None":
        ws = {self.term_weight(k) for k in self.terms}
        if len(ws) == 1:
            return ws.pop()
        return None

    def degree_or_none(self) -> "int | None":
        ds = {-yexp for (_, yexp) in self.terms}
        if len(ds) == 1:
            return ds.pop()
        return None

    def weight_scaled(self) -> "TPolynomial":
        """Each term multiplied by its own weight (the action of e on T)."""
        terms: dict = {}
        for k, v in self.terms.items():
            c = self.term_weight(k) * v
            if c:
                terms[k] = c
        return TPolynomial(self.nvars, self.nu, terms)

    def to_s(self) -> Polynomial:
        if any(yexp for (_, yexp) in self.terms):
            raise ValueError("element involves y")
        return Polynomial(self.nvars, {m: c for (m, _), c in self.terms.items()})

    def __repr__(self) -> str:
        return f"TPolynomial({render_t_polynomial(self)!r})"


def render_t_polynomial(t: TPolynomial) -> str:
    if t.is_zero():
        return "0"
    keys = sorted(t.terms, key=lambda k: (k[1],) + degrevlex_key(k[0]),
                  reverse=True)
    parts: list[str] = []
    for mono, yexp in keys:
        coeff = t.terms[(mono, yexp)]
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}"
                   for i, e in enumerate(mono) if e]
        if yexp == 1:
            factors.append("y")
        elif yexp > 1:
            factors.append(f"y^{yexp}")
        body = "*".join(factors)
        mag = abs(coeff)
        if not factors:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if not parts:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if coeff > 0 else f" - {piece}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# first-order elements: coefficiented derivations plus the scaling class


@dataclass(frozen=True)
class DerivationElement:
    """xi_parts[i] * d_i + del_part * del + e_part * e.

    Derivation coefficients live in T; the e coefficient stays in S.
    """

    nvars: int
    nu: int
    xi_parts: tuple
    del_part: TPolynomial
    e_part: Polynomial

    def __post_init__(self) -> None:
        if len(self.xi_parts) != self.nvars:
            raise ValueError("xi_parts must have one entry per variable")
        for t in self.xi_parts:
            if t.nvars != self.nvars or t.nu != self.nu:
                raise ValueError("mixed carrier rings in xi_parts")
        if self.del_part.nvars != self.nvars or self.del_part.nu != self.nu:
            raise ValueError("mixed carrier ring in del_part")
        if self.e_part.nvars != self.nvars:
            raise ValueError("e_part arity mismatch")

    @classmethod
    def zero(cls, nvars: int, nu: int) -> "DerivationElement":
        z = TPolynomial.zero(nvars, nu)
        return cls(nvars, nu, (z,) * nvars, z, Polynomial.zero(nvars))

    @classmethod
    def x_direction(cls, nvars: int, nu: int, index: int,
                    coeff: "TPolynomial | None" = None) -> "DerivationElement":
        if not 0 <= index < nvars:
            raise ValueError(f"direction {index} out of range")
        z = TPolynomial.zero(nvars, nu)
        c = coeff if coeff is not None else TPolynomial.constant(nvars, nu, 1)
        parts = tuple(c if i == index else z for i in range(nvars))
        return cls(nvars, nu, parts, z, Polynomial.zero(nvars))

    @classmethod
    def y_direction(cls, nvars: int, nu: int,
                    coeff: "TPolynomial | None" = None) -> "DerivationElement":
        z = TPolynomial.zero(nvars, nu)
        c = coeff if coeff is not None else TPolynomial.constant(nvars, nu, 1)
        return cls(nvars, nu, (z,) * nvars, c, Polynomial.zero(nvars))

    @classmethod
    def scaling(cls, nvars: int, nu: int,
                coeff: "Polynomial | None" = None) -> "DerivationElement":
        z = TPolynomial.zero(nvars, nu)
        c = coeff if coeff is not None else Polynomial.constant(nvars, 1)
        return cls(nvars, nu, (z,) * nvars, z, c)

    def is_zero(self) -> bool:
        return (all(t.is_zero() for t in self.xi_parts)
                and self.del_part.is_zero() and self.e_part.is_zero())

    def __add__(self, other: "DerivationElement") -> "DerivationElement":
        self._check(other)
        return DerivationElement(
            self.nvars, self.nu,
            tuple(a + b for a, b in zip(self.xi_parts, other.xi_parts)),
            self.del_part + other.del_part,
            self.e_part + other.e_part,
        )

    def __neg__(self) -> "DerivationElement":
        return DerivationElement(
            self.nvars, self.nu,
            tuple(-t for t in self.xi_parts),
            -self.del_part, -self.e_part,
        )

    def __sub__(self, other: "DerivationElement") -> "DerivationElement":
        return self + (-other)

    def scale(self, coeff) -> "DerivationElement":
        return DerivationElement(
            self.nvars, self.nu,
            tuple(t.scale(coeff) for t in self.xi_parts),
            self.del_part.scale(coeff),
            self.e_part.scale(coeff),
        )

    def derivation_part(self) -> "DerivationElement":
        return DerivationElement(self.nvars, self.nu, self.xi_parts,
                                 self.del_part, Polynomial.zero(self.nvars))

    def apply_to(self, t: TPolynomial) -> TPolynomial:
        """Act on an element of T as a derivation.

        Only the derivation part acts; a nonzero e coefficient is an
        error since e is a scaling, not a derivation of T.
        """
        if not self.e_part.is_zero():
            raise ValueError("the scaling class does not act as a derivation")
        out = TPolynomial.zero(self.nvars, self.nu)
        for i, c in enumerate(self.xi_parts):
            if c:
                out = out + c * t.partial_x(i)
        if self.del_part:
            out = out + self.del_part * t.partial_y()
        return out

    def degree_or_none(self) -> "int | None":
        degs = set()
        for t in self.xi_parts:
            degs.update(-yexp for (_, yexp) in t.terms)
        degs.update(-yexp + 1 for (_, yexp) in self.del_part.terms)
        if self.e_part:
            degs.add(-1)
        if len(degs) == 1:
            return degs.pop()
        return None

    def weight_or_none(self) -> "int | None":
        ws = set()
        for t in self.xi_parts:
            ws.update(t.term_weight(k) - 1 for k in t.terms)
        ws.update(self.del_part.term_weight(k) - self.nu
                  for k in self.del_part.terms)
        ws.update(sum(m) for m in self.e_part.terms)
        if len(ws) == 1:
            return ws.pop()
        return None

    def _check(self, other: "DerivationElement") -> None:
        if self.nvars != other.nvars or self.nu != other.nu:
            raise ValueError("mixed carrier rings")

    def __repr__(self) -> str:
        return f"DerivationElement({render_derivation(self)!r})"


def render_derivation(v: DerivationElement) -> str:
    chunks: list[tuple[str, Fraction]] = []

    def emit(coeff_body: str, sign_carrier: Fraction, gen: str) -> None:
        body = f"{coeff_body}*{gen}" if coeff_body else gen
        chunks.append((body, sign_carrier))

    def t_chunks(t: TPolynomial, gen: str) -> None:
        keys = sorted(t.terms, key=lambda k: (k[1],) + degrevlex_key(k[0]),
                      reverse=True)
        for mono, yexp in keys:
            coeff = t.terms[(mono, yexp)]
            factors = [f"x{i}" if e == 1 else f"x{i}^{e}"
                       for i, e in enumerate(mono) if e]
            if yexp == 1:
                factors.append("y")
            elif yexp > 1:
                factors.append(f"y^{yexp}")
            mag = abs(coeff)
            if mag != 1:
                factors.insert(0, str(mag))
            emit("*".join(factors), coeff, gen)

    for i, t in enumerate(v.xi_parts):
        t_chunks(t, f"d{i}")
    t_chunks(v.del_part, DEL)
    t_chunks(TPolynomial.from_s(v.e_part, v.nu), E)
    if not chunks:
        return "0"
    parts: list[str] = []
    for body, coeff in chunks:
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(parts)


def bracket_L(a: DerivationElement, b: DerivationElement) -> DerivationElement:
    """Commutator of derivations, extended by the weight rule for e.

    [e, v] = [v, e] = wt(v) * v for weight-homogeneous v; brackets never
    produce an e component.  The e coefficient must be constant and the
    opposite side weight-homogeneous, otherwise the rule is undefined
    and a ValueError is raised.
    """
    a._check(b)
    nvars, nu = a.nvars, a.nu

    def e_scalar(v: DerivationElement) -> Fraction:
        if v.e_part.is_zero():
            return Fraction(0)
        if set(v.e_part.terms) != {(0,) * nvars}:
            raise ValueError("bracket with a nonconstant e coefficient")
        return v.e_part.coefficient((0,) * nvars)

    ca = e_scalar(a)
    cb = e_scalar(b)
    a_der = a.derivation_part()
    b_der = b.derivation_part()

    def act(v: DerivationElement, t: TPolynomial) -> TPolynomial:
        out = TPolynomial.zero(nvars, nu)
        for i, c in enumerate(v.xi_parts):
            if c:
                out = out + c * t.partial_x(i)
        if v.del_part:
            out = out + v.del_part * t.partial_y()
        return out

    # [A, B] = sum_j A(s_j) d_j + A(v) del - sum_i B(t_i) d_i - B(u) del
    xi_out = []
    for j in range(nvars):
        xi_out.append(act(a_der, b_der.xi_parts[j]) - act(b_der, a_der.xi_parts[j]))
    del_out = act(a_der, b_der.del_part) - act(b_der, a_der.del_part)
    result = DerivationElement(nvars, nu, tuple(xi_out), del_out,
                               Polynomial.zero(nvars))

    if ca:
        if not b_der.is_zero():
            w = b_der.weight_or_none()
            if w is None:
                raise ValueError(
                    "e-bracket against a weight-inhomogeneous element")
            result = result + b_der.scale(ca * w)
    if cb:
        if not a_der.is_zero():
            w = a_der.weight_or_none()
            if w is None:
                raise ValueError(
                    "e-bracket against a weight-inhomogeneous element")
            result = result + a_der.scale(cb * w)
    # [e, e] = wt(e) e = 0, so crossed e-terms contribute nothing
    return result


def d_f_apply(v: DerivationElement, f: Polynomial) -> DerivationElement:
    """The differential attached to f, on first-order elements.

    Raises degree by 1 and preserves weight.  Squares to zero on all of
    the carrier space; the e-image closes because of the Euler identity
    sum x^k f_k = nu f.
    """
    nvars, nu = v.nvars, v.nu
    if f.nvars != nvars:
        raise ValueError("arity mismatch")
    if f.is_zero() or weight_of_or_none(f) != nu:
        raise ValueError("f must be homogeneous of weight nu")
    partials = [TPolynomial.from_s(f.partial_derivative(i), nu)
                for i in range(nvars)]
    f_t = TPolynomial.from_s(f, nu)
    z = TPolynomial.zero(nvars, nu)

    xi_out = [z] * nvars
    del_out = z

    for i, c in enumerate(v.xi_parts):
        for (mono, yexp), coeff in c.terms.items():
            if yexp % 2:
                xi_out[i] = xi_out[i] + (
                    f_t * TPolynomial.monomial(nvars, nu, mono, yexp - 1, coeff))
            del_out = del_out + (
                partials[i] * TPolynomial.monomial(
                    nvars, nu, mono, yexp, coeff * _sign(yexp)))
    for (mono, yexp), coeff in v.del_part.terms.items():
        if yexp % 2:
            del_out = del_out + (
                f_t * TPolynomial.monomial(nvars, nu, mono, yexp - 1, coeff))
    if not v.e_part.is_zero():
        h = TPolynomial.from_s(v.e_part, nu)
        for k in range(nvars):
            xk = TPolynomial.monomial(
                nvars, nu, tuple(1 if i == k else 0 for i in range(nvars)))
            xi_out[k] = xi_out[k] + h * xk
        del_out = del_out + (h * TPolynomial.y(nvars, nu)).scale(-nu)

    return DerivationElement(nvars, nu, tuple(xi_out), del_out,
                             Polynomial.zero(nvars))


# ---------------------------------------------------------------------------
# wedge words


def _sort_word(word: tuple, nvars: int):
    """Canonical order with braiding sign.

    x-direction letters are odd and anticommute; del and e are even.  A
    repeated odd letter kills the word: returns (None, 0).
    """
    w = list(word)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j > 0 and _letter_rank(w[j - 1], nvars) > _letter_rank(w[j], nvars):
            if _letter_fdeg(w[j - 1]) % 2 and _letter_fdeg(w[j]) % 2:
                sign = -sign
            w[j - 1], w[j] = w[j], w[j - 1]
            j -= 1
    for i in range(1, len(w)):
        if w[i] == w[i - 1] and _letter_fdeg(w[i]) % 2:
            return None, 0
    return tuple(w), sign


def _word_fdeg(word: tuple) -> int:
    return sum(_letter_fdeg(l) for l in word)


def _word_weight(word: tuple, nu: int) -> int:
    return sum(_letter_weight(l, nu) for l in word)


class FElement:
    """Formal sum of wedge words with coefficients in T.

    Terms are keyed by (word, x-exponents, y-exponent).  Words hold at
    most nvars - 2 letters; longer words raise TruncationError.
    Coefficients are parity-neutral: they move through letters without
    signs.  Degree of a term is the word degree minus the y-exponent;
    weight adds up letter weights and the coefficient weight.
    """

    __slots__ = ("nvars", "nu", "terms")

    def __init__(self, nvars: int, nu: int, terms=None) -> None:
        self.nvars = nvars
        self.nu = nu
        cap = nvars - 2
        clean: dict = {}
        if terms:
            for (word, mono, yexp), coeff in terms.items():
                if len(word) > cap:
                    raise TruncationError(
                        f"word of length {len(word)} exceeds the cap {cap}")
                for letter in word:
                    _check_letter(letter, nvars)
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has wrong arity")
                if yexp < 0:
                    raise ValueError("negative y exponent")
                sw, sg = _sort_word(tuple(word), nvars)
                if sg == 0:
                    continue
                c = Fraction(coeff) * sg
                if not c:
                    continue
                key = (sw, tuple(mono), yexp)
                acc = clean.get(key, Fraction(0)) + c
                if acc:
                    clean[key] = acc
                else:
                    del clean[key]
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int, nu: int) -> "FElement":
        return cls(nvars, nu, {})

    @classmethod
    def from_t(cls, t: TPolynomial) -> "FElement":
        return cls(t.nvars, t.nu,
                   {((), mono, yexp): c for (mono, yexp), c in t.terms.items()})

    @classmethod
    def word(cls, nvars: int, nu: int, letters: tuple,
             coeff: "TPolynomial | None" = None) -> "FElement":
        c = coeff if coeff is not None else TPolynomial.constant(nvars, nu, 1)
        return cls(nvars, nu,
                   {(tuple(letters), mono, yexp): v
                    for (mono, yexp), v in c.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FElement):
            return NotImplemented
        return (self.nvars, self.nu, self.terms) == (
            other.nvars, other.nu, other.terms)

    def _check(self, other: "FElement") -> None:
        if self.nvars != other.nvars or self.nu != other.nu:
            raise ValueError("mixed carrier rings")

    def __add__(self, other: "FElement") -> "FElement":
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            c = terms.get(k, Fraction(0)) + v
            if c:
                terms[k] = c
            else:
                terms.pop(k, None)
        out = FElement.zero(self.nvars, self.nu)
        out.terms = terms
        return out

    def __neg__(self) -> "FElement":
        out = FElement.zero(self.nvars, self.nu)
        out.terms = {k: -v for k, v in self.terms.items()}
        return out

    def __sub__(self, other: "FElement") -> "FElement":
        return self + (-other)

    def scale(self, coeff) -> "FElement":
        c = Fraction(coeff)
        out = FElement.zero(self.nvars, self.nu)
        if c:
            out.terms = {k: c * v for k, v in self.terms.items()}
        return out

    def times_t(self, t: TPolynomial) -> "FElement":
        """Coefficient multiplication; no signs, coefficients are even."""
        terms: dict = {}
        for (word, mono, yexp), v in self.terms.items():
            for (m2, y2), c2 in t.terms.items():
                key = (word, tuple(a + b for a, b in zip(mono, m2)), yexp + y2)
                c = terms.get(key, Fraction(0)) + v * c2
                if c:
                    terms[key] = c
                else:
                    del terms[key]
        out = FElement.zero(self.nvars, self.nu)
        out.terms = terms
        return out

    def wedge(self, other: "FElement") -> "FElement":
        self._check(other)
        cap = self.nvars - 2
        terms: dict = {}
        for (wa, xa, ya), va in self.terms.items():
            for (wb, xb, yb), vb in other.terms.items():
                if len(wa) + len(wb) > cap:
                    raise TruncationError(
                        f"wedge of lengths {len(wa)} and {len(wb)} exceeds "
                        f"the cap {cap}")
                sw, sg = _sort_word(wa + wb, self.nvars)
                if sg == 0:
                    continue
                key = (sw, tuple(a + b for a, b in zip(xa, xb)), ya + yb)
                c = terms.get(key, Fraction(0)) + sg * va * vb
                if c:
                    terms[key] = c
                else:
                    del terms[key]
        out = FElement.zero(self.nvars, self.nu)
        out.terms = terms
        return out

    def term_degree(self, key) -> int:
        word, _, yexp = key
        return _word_fdeg(word) - yexp

    def term_weight(self, key) -> int:
        word, mono, yexp = key
        return _word_weight(word, self.nu) + sum(mono) + yexp * self.nu

    def degree_or_none(self) -> "int | None":
        ds = {self.term_degree(k) for k in self.terms}
        if len(ds) == 1:
            return ds.pop()
        return None

    def weight_or_none(self) -> "int | None":
        ws = {self.term_weight(k) for k in self.terms}
        if len(ws) == 1:
            return ws.pop()
        return None

    def max_word_length(self) -> int:
        return max((len(k[0]) for k in self.terms), default=0)

    def __repr__(self) -> str:
        return f"FElement({render_f_element(self)!r})"


def render_f_element(a: FElement) -> str:
    if a.is_zero():
        return "0"

    def sort_key(key):
        word, mono, yexp = key
        ranks = tuple(_letter_rank(l, a.nvars) for l in word)
        return (len(word), ranks, yexp) + degrevlex_key(mono)

    parts: list[str] = []
    for key in sorted(a.terms, key=sort_key):
        word, mono, yexp = key
        coeff = a.terms[key]
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}"
                   for i, e in enumerate(mono) if e]
        if yexp == 1:
            factors.append("y")
        elif yexp > 1:
            factors.append(f"y^{yexp}")
        mag = abs(coeff)
        if mag != 1 or (not factors and not word):
            factors.insert(0, str(mag))
        body = "*".join(factors)
        wtxt = "∧".join(_render_letter(l) for l in word)
        if body and wtxt:
            piece = f"{body}*{wtxt}"
        else:
            piece = body or wtxt
        if not parts:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if coeff > 0 else f" - {piece}")
    return "".join(parts)


def _letter_act(letter, t: TPolynomial) -> TPolynomial:
    """A letter acting on T: derivations act as such, e scales by weight."""
    if letter == E:
        return t.weight_scaled()
    if letter == DEL:
        return t.partial_y()
    return t.partial_x(letter)


def d_f_apply_F(a: FElement, f: Polynomial) -> FElement:
    """Differential on wedge words.

    Two contributions per term: the coefficient rule d(y^b) =
    (b mod 2) f y^{b-1}, and letter replacement d_i -> f_i del and
    e -> sum x^k d_k - nu y del behind a Koszul sign that counts the
    degree parity of the coefficient and of the letters crossed.
    """
    nvars, nu = a.nvars, a.nu
    if f.nvars != nvars:
        raise ValueError("arity mismatch")
    if f.is_zero() or weight_of_or_none(f) != nu:
        raise ValueError("f must be homogeneous of weight nu")
    partials = [f.partial_derivative(i) for i in range(nvars)]
    f_t = TPolynomial.from_s(f, nu)

    out: dict = {}

    def accumulate(word, coeff: TPolynomial, sign: int) -> None:
        sw, sg = _sort_word(word, nvars)
        if sg == 0:
            return
        s = sg * sign
        for (mono, yexp), v in coeff.terms.items():
            key = (sw, mono, yexp)
            c = out.get(key, Fraction(0)) + s * v
            if c:
                out[key] = c
            else:
                del out[key]

    for (word, mono, yexp), v in a.terms.items():
        base = TPolynomial.monomial(nvars, nu, mono, yexp, v)
        if yexp % 2:
            accumulate(word,
                       f_t * TPolynomial.monomial(nvars, nu, mono, yexp - 1, v),
                       1)
        coeff_sign = _sign(yexp)
        for pos, letter in enumerate(word):
            if letter == DEL:
                continue
            crossed = _sign(sum(_letter_fdeg(l) for l in word[:pos]))
            sgn = coeff_sign * crossed
            left, right = word[:pos], word[pos + 1:]
            if letter == E:
                for k in range(nvars):
                    xk = TPolynomial.monomial(
                        nvars, nu,
                        tuple(1 if i == k else 0 for i in range(nvars)))
                    accumulate(left + (k,) + right, base * xk, sgn)
                accumulate(left + (DEL,) + right,
                           (base * TPolynomial.y(nvars, nu)).scale(-nu), sgn)
            else:
                accumulate(left + (DEL,) + right,
                           base * TPolynomial.from_s(partials[letter], nu),
                           sgn)

    result = FElement.zero(nvars, nu)
    result.terms = out
    return result


# ---------------------------------------------------------------------------
# the odd bracket


def _base_bracket(nvars: int, nu: int, ka, va: Fraction, kb,
                  vb: Fraction) -> dict:
    """Bracket of two monomial terms with word length at most one.

    Plain commutator of coefficiented derivations in closed form, the
    weight rule for e (scalar e coefficients only), and the evaluation
    rule [t*l, g] = t*l(g) against bare coefficients.
    """
    wa, xa, ya = ka
    wb, xb, yb = kb
    if not wa and not wb:
        return {}
    t = TPolynomial.monomial(nvars, nu, xa, ya, va)
    s = TPolynomial.monomial(nvars, nu, xb, yb, vb)
    if wa and not wb:
        acted = t * _letter_act(wa[0], s)
        return {((), m, y): c for (m, y), c in acted.terms.items()}
    if not wa and wb:
        acted = (s * _letter_act(wb[0], t)).scale(-1)
        return {((), m, y): c for (m, y), c in acted.terms.items()}
    l1, l2 = wa[0], wb[0]
    if l1 == E or l2 == E:
        if l1 == E and l2 == E:
            return {}
        if l1 == E:
            if xa != (0,) * nvars or ya != 0:
                raise ValueError("bracket with a nonconstant e coefficient")
            w = _letter_weight(l2, nu) + sum(xb) + yb * nu
            c = va * vb * w
            return {(wb, xb, yb): c} if c else {}
        if xb != (0,) * nvars or yb != 0:
            raise ValueError("bracket with a nonconstant e coefficient")
        w = _letter_weight(l1, nu) + sum(xa) + ya * nu
        c = va * vb * w
        return {(wa, xa, ya): c} if c else {}
    # [t l1, s l2] = t l1(s) l2 - s l2(t) l1
    out: dict = {}
    for (m, y), c in (t * _letter_act(l1, s)).terms.items():
        key = ((l2,), m, y)
        acc = out.get(key, Fraction(0)) + c
        if acc:
            out[key] = acc
        else:
            del out[key]
    for (m, y), c in (s * _letter_act(l2, t)).terms.items():
        key = ((l1,), m, y)
        acc = out.get(key, Fraction(0)) - c
        if acc:
            out[key] = acc
        else:
            del out[key]
    return out


def _merge(acc: dict, inc: dict, scale: Fraction = Fraction(1)) -> None:
    for k, v in inc.items():
        c = acc.get(k, Fraction(0)) + scale * v
        if c:
            acc[k] = c
        else:
            acc.pop(k, None)


def _wedge_terms(nvars: int, cap: int, a: dict, b: dict) -> dict:
    out: dict = {}
    for (wa, xa, ya), va in a.items():
        for (wb, xb, yb), vb in b.items():
            if len(wa) + len(wb) > cap:
                raise TruncationError(
                    f"wedge of lengths {len(wa)} and {len(wb)} exceeds "
                    f"the cap {cap}")
            sw, sg = _sort_word(wa + wb, nvars)
            if sg == 0:
                continue
            key = (sw, tuple(p + q for p, q in zip(xa, xb)), ya + yb)
            c = out.get(key, Fraction(0)) + sg * va * vb
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def _bracket_terms(nvars: int, nu: int, cap: int, ka, va: Fraction,
                   kb, vb: Fraction) -> dict:
    """Recursive single-term bracket.

    Left peel with the coefficient riding on the peeled letter:

        [a ^ B, C] = a ^ [B, C] + (-1)^{(|C|+1)|B|} [a, C] ^ B

    and reversal [A, B] = -(-1)^{(|A|-1)(|B|-1)} [B, A] when the first
    word is the shorter one.  Lengths, not degrees, drive the signs.
    """
    wa, xa, ya = ka
    wb = kb[0]
    if len(wa) <= 1 and len(wb) <= 1:
        return _base_bracket(nvars, nu, ka, va, kb, vb)
    if len(wa) >= 2:
        head = ((wa[0],), xa, ya)
        rest = (wa[1:], (0,) * nvars, 0)
        out: dict = {}
        inner = _bracket_terms(nvars, nu, cap, rest, Fraction(1), kb, vb)
        _merge(out, _wedge_terms(nvars, cap, {head: va}, inner))
        sg = _sign((len(wb) + 1) * (len(wa) - 1))
        outer = _bracket_terms(nvars, nu, cap, head, va, kb, vb)
        _merge(out, _wedge_terms(nvars, cap, outer, {rest: Fraction(1)}),
               Fraction(sg))
        return out
    rev = -_sign((len(wa) - 1) * (len(wb) - 1))
    flipped = _bracket_terms(nvars, nu, cap, kb, vb, ka, va)
    out = {}
    _merge(out, flipped, Fraction(rev))
    return out


def schouten_bracket_F(a: FElement, b: FElement) -> FElement:
    """Odd bracket on wedge words, bilinear over monomial terms.

    Restricts to the derivation commutator on single letters.  On words
    built from the x-direction letters alone it is the classical
    multivector bracket; del-containing words braid evenly and do not
    obey the uniform shifted sign laws.
    """
    a._check(b)
    nvars, nu = a.nvars, a.nu
    cap = nvars - 2
    out: dict = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            _merge(out, _bracket_terms(nvars, nu, cap, ka, va, kb, vb))
    result = FElement.zero(nvars, nu)
    result.terms = out
    return result


# ---------------------------------------------------------------------------
# graded pieces and cohomology


@dataclass(frozen=True)
class GradedPiece:
    degree: int
    weight: int
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _context_of(f: Polynomial) -> tuple[int, int]:
    nu = weight_of_or_none(f) if not f.is_zero() else None
    if nu is None:
        raise ValueError("f must be a nonzero homogeneous form")
    return f.nvars, nu


def graded_piece(f: Polynomial, degree: int, weight: int,
                 space: str = "L") -> GradedPiece:
    """Monomial basis of the (degree, weight) piece of L or of F^k.

    The first-order space L is spanned over S by the five generator
    shapes x^a y d_i, x^a d_i, x^a y del, x^a del together with the
    scalar line through e; its nonzero degrees are -1, 0, 1.  This is a
    subcomplex: the differential maps each shape into the others.

    For space "Fk" (word length k) the enumeration covers all e-free
    canonical words of that length; the degree pins the y-exponent of
    the coefficient, so pieces stay finite.  The scalar e line appears
    in F1 at degree 0, weight 0, matching its role in L shifted by one.
    """
    nvars, nu = _context_of(f)
    if space == "L":
        basis: list = []
        if degree == -1:
            if weight == 0:
                basis.append(DerivationElement.scaling(nvars, nu))
            for i in range(nvars):
                for mono in monomials_of_weight(nvars, weight - nu + 1):
                    basis.append(DerivationElement.x_direction(
                        nvars, nu, i,
                        TPolynomial.monomial(nvars, nu, mono, 1)))
        elif degree == 0:
            for i in range(nvars):
                for mono in monomials_of_weight(nvars, weight + 1):
                    basis.append(DerivationElement.x_direction(
                        nvars, nu, i,
                        TPolynomial.monomial(nvars, nu, mono, 0)))
            for mono in monomials_of_weight(nvars, weight):
                basis.append(DerivationElement.y_direction(
                    nvars, nu, TPolynomial.monomial(nvars, nu, mono, 1)))
        elif degree == 1:
            for mono in monomials_of_weight(nvars, weight + nu):
                basis.append(DerivationElement.y_direction(
                    nvars, nu, TPolynomial.monomial(nvars, nu, mono, 0)))
        return GradedPiece(degree, weight, tuple(basis))

    text = space.replace("^", "")
    if not text.startswith("F") or not text[1:].isdigit():
        raise ValueError(f"unknown space {space!r}; expected 'L' or 'Fk'")
    k = int(text[1:])
    cap = nvars - 2
    if not 0 <= k <= cap:
        raise ValueError(f"word length {k} outside 0..{cap}")
    basis = []
    words: list[tuple] = []
    if k == 0:
        words.append(())
    else:
        for ndel in range(k + 1):
            for subset in combinations(range(nvars), k - ndel):
                words.append(tuple(subset) + (DEL,) * ndel)
    for word in words:
        yexp = _word_fdeg(word) - degree
        if yexp < 0:
            continue
        xw = weight - yexp * nu - _word_weight(word, nu)
        for mono in monomials_of_weight(nvars, xw):
            basis.append(FElement.word(
                nvars, nu, word,
                TPolynomial.monomial(nvars, nu, mono, yexp)))
    if k == 1 and degree == 0 and weight == 0:
        basis.append(FElement.word(nvars, nu, (E,)))
    return GradedPiece(degree, weight, tuple(basis))


def _derivation_coords(v: DerivationElement, index: dict) -> "dict[int, Fraction]":
    out = {}
    for i, t in enumerate(v.xi_parts):
        for (mono, yexp), c in t.terms.items():
            out[index[("xi", i, mono, yexp)]] = c
    for (mono, yexp), c in v.del_part.terms.items():
        out[index[("del", 0, mono, yexp)]] = c
    for mono, c in v.e_part.terms.items():
        out[index[("e", 0, mono, 0)]] = c
    return out


def _piece_index(piece: GradedPiece) -> dict:
    index: dict = {}
    for col, v in enumerate(piece.basis):
        key = None
        for i, t in enumerate(v.xi_parts):
            for (mono, yexp), _ in t.terms.items():
                key = ("xi", i, mono, yexp)
        for (mono, yexp), _ in v.del_part.terms.items():
            key = ("del", 0, mono, yexp)
        for mono, _ in v.e_part.terms.items():
            key = ("e", 0, mono, 0)
        if key is None or key in index:
            raise RuntimeError("piece basis is not monomial")
        index[key] = col
    return index


def _boundary_rank(f: Polynomial, src: GradedPiece, dst: GradedPiece) -> int:
    if not src.basis:
        return 0
    index = _piece_index(dst)
    rows = []
    for v in src.basis:
        image = d_f_apply(v, f)
        try:
            rows.append(_derivation_coords(image, index))
        except KeyError as exc:
            raise RuntimeError(
                f"differential left the enumerated piece at {exc}") from exc
    return rank_of(rows, len(index))


def cohomology_report(f: Polynomial, degree: int, weight: int) -> dict:
    """Dimensions at one (degree, weight) spot of the first-order complex.

    Returns piece, kernel, incoming-image and cohomology dimensions.
    """
    here = graded_piece(f, degree, weight, "L")
    above = graded_piece(f, degree + 1, weight, "L")
    below = graded_piece(f, degree - 1, weight, "L")
    rank_out = _boundary_rank(f, here, above)
    rank_in = _boundary_rank(f, below, here)
    dim_ker = here.dimension - rank_out
    return {
        "dim_piece": here.dimension,
        "dim_ker": dim_ker,
        "dim_im_in": rank_in,
        "h_dim": dim_ker - rank_in,
    }


def cohomology_dims(f: Polynomial, degree: int, weight: int) -> int:
    """dim ker/im of the differential at the given (degree, weight)."""
    return cohomology_report(f, degree, weight)["h_dim"]


# ---------------------------------------------------------------------------
# the generator-table comparison


def verify_shifted_differential(f: Polynomial, g: Polynomial, p: int) -> bool:
    """Compare [g del^p, -] on the five generators against the closed
    increment table

        y d_i -> (g d_i - g_i y del) del^{p-1}
        d_i   -> (g_i del) del^{p-1}
        y del -> (g del) del^{p-1}
        del   -> 0
        e     -> 0

    Returns True only when every row matches.  For nonzero g the
    computed bracket genuinely differs from the table: the d_i row
    carries the opposite sign, and for p >= 2 the leading terms of the
    y d_i and y del rows pick up a factor p.  The zero deformation
    trivially matches.  Raises TruncationError when g del^p does not
    fit in a word (p above the length cap).
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    nvars, nu = _context_of(f)
    if g.is_zero():
        return True
    if g.nvars != nvars:
        raise ValueError("arity mismatch between f and g")
    if weight_of_or_none(g) != p * nu:
        raise ValueError(f"g must be homogeneous of weight {p * nu}")

    g_t = TPolynomial.from_s(g, nu)
    g_del_p = FElement.word(nvars, nu, (DEL,) * p, g_t)
    one = TPolynomial.constant(nvars, nu, 1)
    y = TPolynomial.y(nvars, nu)

    ok = True
    for i in range(nvars):
        gi = TPolynomial.from_s(g.partial_derivative(i), nu)
        lhs = schouten_bracket_F(g_del_p, FElement.word(nvars, nu, (i,), y))
        want = (FElement.word(nvars, nu, (i,) + (DEL,) * (p - 1), g_t)
                - FElement.word(nvars, nu, (DEL,) * p, gi * y))
        ok = ok and lhs == want
        lhs = schouten_bracket_F(g_del_p, FElement.word(nvars, nu, (i,), one))
        want = FElement.word(nvars, nu, (DEL,) * p, gi)
        ok = ok and lhs == want
    lhs = schouten_bracket_F(g_del_p, FElement.word(nvars, nu, (DEL,), y))
    ok = ok and lhs == FElement.word(nvars, nu, (DEL,) * p, g_t)
    lhs = schouten_bracket_F(g_del_p, FElement.word(nvars, nu, (DEL,), one))
    ok = ok and lhs.is_zero()
    lhs = schouten_bracket_F(g_del_p, FElement.word(nvars, nu, (E,), one))
    ok = ok and lhs.is_zero()
    return ok
