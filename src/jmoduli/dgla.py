"""Derivation Lie algebra of S[y] with a square-zero differential, and the
wedge calculus built on top of it.

T = S[y], its letters d_i, del and e, and the differential d_f of a form
f are set out in cochains, which computes the cohomology without this
module; graded_piece expands the same blocks into elements.  d_f squares
to zero on all coefficiented derivation words and on the bare class e;
the Euler identity sum x^k f_k = nu f is what makes the e-image close.
Wedge words that mix e with an odd number of x-direction letters do not
square to zero under any sign assignment (y would have to square to zero
for that), so graded pieces never enumerate mixed e-words: e enters only
as a one-dimensional scalar line.

The first-order space L is not a second calculus: it is the slice of the
wedge module F spanned by one-letter words whose coefficients carry y at
most once, graded one below F (L^d sits in F1 at degree d + 1).  The cap
on y is what makes L a subcomplex; F pieces carry every power of y.
DerivationElement views such an element through its parts xi_parts,
del_part and e_part, and the differential and bracket of L are those of F.
TPolynomial and FElement take their sums, equality and ring check from
polys.SparseSum; only their keys, constructors and products live here.
The letters act on T by one rule, _act on a term key, which T's partials,
DerivationElement.apply_to and the bracket of one-letter terms all read.

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
from math import comb

from . import cochains
from .cochains import (DEL, E, _blocks, _differential, _letter_rank,
                       _letter_weight, _mono_mul, _sign, _sort_word, _word_fdeg,
                       _word_weight)
from .jacobian import form_weight, weight_of_or_none
from .linalg import check_deadline
from .polys import (
    Monomial,
    Polynomial,
    SparseSum,
    _add_term,
    degrevlex_key,
    monomial_factors,
    monomials_of_weight,
    render_signed_sum,
)

cohomology_report, cohomology_dims = cochains.cohomology_report, cochains.cohomology_dims


class TruncationError(ValueError):
    """A wedge word grew past the admissible length (nvars - 2)."""


def _check_letter(letter, nvars: int) -> None:
    if not (letter in (DEL, E) or isinstance(letter, int) and 0 <= letter < nvars):
        raise ValueError(f"unknown letter {letter!r} for nvars={nvars}")


def _render_letter(letter) -> str:
    return letter if isinstance(letter, str) else f"d{letter}"


def _common(values) -> "int | None":
    """The value shared by all of values, or None if there are several or none."""
    distinct = set(values)
    return distinct.pop() if len(distinct) == 1 else None


def _coeff_factors(mono: Monomial, yexp: int) -> list[str]:
    """Text factors of the coefficient x^mono y^yexp."""
    factors = monomial_factors(mono)
    if yexp:
        factors.append("y" if yexp == 1 else f"y^{yexp}")
    return factors


# ---------------------------------------------------------------------------
# the coefficient ring T = S[y]


def _act(letter, key, nu: int):
    """(c, key') with letter(x^a y^b) = c x^a' y^b' for the term key (a, b):
    d_i and del take c from the exponent they lower, e keeps the key and
    takes c = its weight.  c = 0 means the term dies."""
    mono, yexp = key
    if letter == E:
        return sum(mono) + yexp * nu, key
    if letter == DEL:
        return yexp, (mono, yexp - 1)
    ex = mono[letter]
    return ex, (mono[:letter] + (ex - 1,) + mono[letter + 1:], yexp)


class TPolynomial(SparseSum):
    """Sparse element of S[y], keyed by (x-exponents, y-exponent).

    Weight of x^a y^b is |a| + b*nu, homological degree is -b.  nu rides
    along on the object so weights are computable without extra context.
    """

    __slots__ = ()

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

    def __mul__(self, other: "TPolynomial") -> "TPolynomial":
        self._check(other)
        terms: dict = {}
        for (ma, ya), ca in self.terms.items():
            for (mb, yb), cb in other.terms.items():
                _add_term(terms, (_mono_mul(ma, mb), ya + yb), ca * cb)
        return TPolynomial(self.nvars, self.nu, terms)

    def _acted(self, letter) -> "TPolynomial":
        terms: dict = {}
        for key, coeff in self.terms.items():
            c, new = _act(letter, key, self.nu)
            if c:
                _add_term(terms, new, c * coeff)
        return TPolynomial._of(self.nvars, self.nu, terms)

    def partial_x(self, index: int) -> "TPolynomial":
        return self._acted(index)

    def partial_y(self) -> "TPolynomial":
        return self._acted(DEL)

    def term_weight(self, key) -> int:
        mono, yexp = key
        return sum(mono) + yexp * self.nu

    def weight_or_none(self) -> "int | None":
        return _common(self.term_weight(k) for k in self.terms)

    def degree_or_none(self) -> "int | None":
        return _common(-yexp for (_, yexp) in self.terms)

    def weight_scaled(self) -> "TPolynomial":
        """Each term multiplied by its own weight (the action of e on T)."""
        return self._acted(E)

    def to_s(self) -> Polynomial:
        if any(yexp for (_, yexp) in self.terms):
            raise ValueError("element involves y")
        return Polynomial(self.nvars, {m: c for (m, _), c in self.terms.items()})

    def __repr__(self) -> str:
        return f"TPolynomial({render_t_polynomial(self)!r})"


def render_t_polynomial(t: TPolynomial) -> str:
    keys = sorted(t.terms, key=lambda k: (k[1],) + degrevlex_key(k[0]),
                  reverse=True)
    return render_signed_sum((t.terms[k], _coeff_factors(*k)) for k in keys)


# ---------------------------------------------------------------------------
# wedge words


class FElement(SparseSum):
    """Formal sum of wedge words with coefficients in T.

    Terms are keyed by (word, x-exponents, y-exponent).  Words hold at
    most nvars - 2 letters; longer words raise TruncationError.
    Coefficients are parity-neutral: they move through letters without
    signs.  Degree of a term is the word degree minus the y-exponent;
    weight adds up letter weights and the coefficient weight.
    Arithmetic, the differential and the bracket keep the type of their
    operands, so L views stay L views.
    """

    __slots__ = ()

    def __init__(self, nvars: int, nu: int, terms=None) -> None:
        cap = nvars - 2
        clean: dict = {}
        for (word, mono, yexp), coeff in (terms or {}).items():
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
            if sg:
                _add_term(clean, (sw, tuple(mono), yexp), Fraction(coeff) * sg)
        self.nvars, self.nu, self.terms = nvars, nu, clean

    @classmethod
    def zero(cls, nvars: int, nu: int) -> "FElement":
        return cls._of(nvars, nu, {})

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

    def wedge(self, other: "FElement") -> "FElement":
        self._check(other)
        return FElement._of(self.nvars, self.nu, _wedge_terms(
            self.nvars, self.nvars - 2, self.terms, other.terms))

    def term_weight(self, key) -> int:
        word, mono, yexp = key
        return _word_weight(word, self.nu) + sum(mono) + yexp * self.nu

    def degree_or_none(self) -> "int | None":
        return _common(_word_fdeg(word) - yexp for word, _, yexp in self.terms)

    def weight_or_none(self) -> "int | None":
        return _common(self.term_weight(k) for k in self.terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({render_f_element(self)!r})"


class DerivationElement(FElement):
    """xi_parts[i] * d_i + del_part * del + e_part * e, a first-order element.

    An F element of one-letter words, read through its parts: derivation
    coefficients live in T, the e coefficient stays in S.  Its degree is
    the F degree minus one.  One-letter words are exempt from the word
    cap, so L exists for any number of variables.
    """

    __slots__ = ()

    def __init__(self, nvars: int, nu: int, xi_parts: tuple,
                 del_part: TPolynomial, e_part: Polynomial) -> None:
        if len(xi_parts) != nvars:
            raise ValueError("xi_parts must have one entry per variable")
        for t in (*xi_parts, del_part):
            if t.nvars != nvars or t.nu != nu:
                raise ValueError("mixed carrier rings")
        if e_part.nvars != nvars:
            raise ValueError("e_part arity mismatch")
        terms = {((letter,), mono, yexp): c
                 for letter, t in [*enumerate(xi_parts), (DEL, del_part)]
                 for (mono, yexp), c in t.terms.items()}
        terms.update({((E,), mono, 0): c for mono, c in e_part.terms.items()})
        self.nvars, self.nu, self.terms = nvars, nu, terms

    @classmethod
    def _letter(cls, nvars: int, nu: int, letter,
                coeff: "TPolynomial | None") -> "DerivationElement":
        c = coeff if coeff is not None else TPolynomial.constant(nvars, nu, 1)
        if c.nvars != nvars or c.nu != nu:
            raise ValueError("mixed carrier rings")
        return cls._of(nvars, nu, {((letter,), mono, yexp): v
                                   for (mono, yexp), v in c.terms.items()})

    @classmethod
    def x_direction(cls, nvars: int, nu: int, index: int,
                    coeff: "TPolynomial | None" = None) -> "DerivationElement":
        if not 0 <= index < nvars:
            raise ValueError(f"direction {index} out of range")
        return cls._letter(nvars, nu, index, coeff)

    @classmethod
    def y_direction(cls, nvars: int, nu: int,
                    coeff: "TPolynomial | None" = None) -> "DerivationElement":
        return cls._letter(nvars, nu, DEL, coeff)

    @classmethod
    def scaling(cls, nvars: int, nu: int,
                coeff: "Polynomial | None" = None) -> "DerivationElement":
        c = coeff if coeff is not None else Polynomial.constant(nvars, 1)
        return cls._letter(nvars, nu, E, TPolynomial.from_s(c, nu))

    def _part(self, letter) -> dict:
        return {(mono, yexp): c for (word, mono, yexp), c in self.terms.items()
                if word == (letter,)}

    @property
    def xi_parts(self) -> tuple:
        return tuple(TPolynomial(self.nvars, self.nu, self._part(i))
                     for i in range(self.nvars))

    @property
    def del_part(self) -> TPolynomial:
        return TPolynomial(self.nvars, self.nu, self._part(DEL))

    @property
    def e_part(self) -> Polynomial:
        return Polynomial(self.nvars,
                          {mono: c for (mono, _), c in self._part(E).items()})

    def degree_or_none(self) -> "int | None":
        d = super().degree_or_none()
        return None if d is None else d - 1

    def apply_to(self, t: TPolynomial) -> TPolynomial:
        """Act on an element of T as a derivation.

        A nonzero e coefficient is an error since e is a scaling, not a
        derivation of T.
        """
        self._check(t)
        out: dict = {}
        for ((letter,), mono, yexp), c in self.terms.items():
            if letter == E:
                raise ValueError(
                    "the scaling class does not act as a derivation")
            for key, v in t.terms.items():
                a, (m, y) = _act(letter, key, self.nu)
                if a:
                    _add_term(out, (_mono_mul(mono, m), yexp + y), a * c * v)
        return TPolynomial._of(self.nvars, self.nu, out)


def render_f_element(a: FElement) -> str:
    def sort_key(key):
        word, mono, yexp = key
        ranks = tuple(_letter_rank(l, a.nvars) for l in word)
        return (len(word), ranks, yexp) + degrevlex_key(mono)

    def factors(key) -> list[str]:
        word, mono, yexp = key
        out = _coeff_factors(mono, yexp)
        if word:
            out.append("∧".join(_render_letter(l) for l in word))
        return out

    return render_signed_sum((a.terms[k], factors(k))
                             for k in sorted(a.terms, key=sort_key))


render_derivation = render_f_element


# ---------------------------------------------------------------------------
# the differential


def d_f_apply_F(a: FElement, f: Polynomial) -> FElement:
    """The differential attached to f, on wedge words.

    Raises degree by 1, preserves weight and squares to zero; on the
    first-order slice L it is the differential of the first-order complex.
    """
    row, den = _differential(f, a.nvars, a.nu)
    out: dict = {}
    for key, v in a.terms.items():
        for k, c in row(key).items():
            _add_term(out, k, v * c)
    return a._of(a.nvars, a.nu, {k: v / den for k, v in out.items()})


d_f_apply = d_f_apply_F


# ---------------------------------------------------------------------------
# the odd bracket


def _base_bracket(nvars: int, nu: int, ka, va: Fraction, kb,
                  vb: Fraction) -> dict:
    """Bracket of two monomial terms with word length at most one.

    Plain commutator of coefficiented derivations in closed form, the
    weight rule for e (scalar e coefficients only), and the evaluation
    rule [t*l, g] = t*l(g) against bare coefficients.
    """
    wa, wb = ka[0], kb[0]
    if wa and wb and E in (wa[0], wb[0]):
        if wa == wb:
            return {}
        # the weight rule is symmetric: scale the other term by its weight
        (_, xe, ye), (wo, xo, yo) = (ka, kb) if wa[0] == E else (kb, ka)
        if xe != (0,) * nvars or ye != 0:
            raise ValueError("bracket with a nonconstant e coefficient")
        c = va * vb * (_letter_weight(wo[0], nu) + sum(xo) + yo * nu)
        return {(wo, xo, yo): c} if c else {}
    # [t l1, s l2] = t l1(s) l2 - s l2(t) l1; a bare side has no letter
    # to act with, which leaves [t l, s] = t l(s) and [t, s l] = -s l(t)
    out: dict = {}
    for sign, (w1, x1, y1), v1, (w2, x2, y2), v2 in (
            (1, ka, va, kb, vb), (-1, kb, vb, ka, va)):
        if w1:
            c, (m, y) = _act(w1[0], (x2, y2), nu)
            if c:
                _add_term(out, (w2, _mono_mul(x1, m), y1 + y), sign * c * v1 * v2)
    return out


def _wedge_terms(nvars: int, cap: int, a: dict, b: dict,
                 out: "dict | None" = None, sign: int = 1) -> dict:
    """sign * (a ^ b), added into out (a new dict if None) and returned."""
    out = {} if out is None else out
    for (wa, xa, ya), va in a.items():
        for (wb, xb, yb), vb in b.items():
            if len(wa) + len(wb) > cap:
                raise TruncationError(
                    f"wedge of lengths {len(wa)} and {len(wb)} exceeds "
                    f"the cap {cap}")
            sw, sg = _sort_word(wa + wb, nvars)
            if sg:
                _add_term(out, (sw, _mono_mul(xa, xb), ya + yb), sign * sg * va * vb)
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
        inner = _bracket_terms(nvars, nu, cap, rest, Fraction(1), kb, vb)
        out = _wedge_terms(nvars, cap, {head: va}, inner)
        sg = _sign((len(wb) + 1) * (len(wa) - 1))
        outer = _bracket_terms(nvars, nu, cap, head, va, kb, vb)
        return _wedge_terms(nvars, cap, outer, {rest: Fraction(1)}, out, sg)
    rev = -_sign((len(wa) - 1) * (len(wb) - 1))
    flipped = _bracket_terms(nvars, nu, cap, kb, vb, ka, va)
    return {k: rev * v for k, v in flipped.items()}


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
            for k, v in _bracket_terms(nvars, nu, cap, ka, va, kb, vb).items():
                _add_term(out, k, v)
    return a._sum_type(b)._of(nvars, nu, out)


def bracket_L(a: DerivationElement, b: DerivationElement) -> DerivationElement:
    """Commutator of derivations, extended by the weight rule for e.

    The odd bracket on one-letter words: [e, v] = [v, e] = wt(v) * v and
    brackets never produce an e component.  The rule needs a constant e
    coefficient and a weight-homogeneous opposite side; otherwise it is
    undefined and a ValueError is raised.
    """
    for u, v in ((a, b), (b, a)):
        if any(word == (E,) for word, _, _ in u.terms):
            if len({v.term_weight(k) for k in v.terms if k[0] != (E,)}) > 1:
                raise ValueError(
                    "e-bracket against a weight-inhomogeneous element")
    return schouten_bracket_F(a, b)


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


def _monomial_slices(nvars: int, weight: int):
    """monomials_of_weight(nvars, weight) in order, as consecutive lists
    of at most 4096 monomials, split by the exponent of the last variable."""
    if weight < 0 or nvars < 2 or comb(weight + nvars - 1, nvars - 1) <= 4096:
        return [monomials_of_weight(nvars, weight)]
    return ([m + (e,) for m in part] for e in range(weight, -1, -1)
            for part in _monomial_slices(nvars - 1, weight - e))


def graded_piece(f: Polynomial, degree: int, weight: int,
                 space: str = "L", deadline: float | None = None) -> GradedPiece:
    """Monomial basis of the (degree, weight) piece of L or of F^k.

    For space "Fk" the enumeration covers the e-free canonical words of
    length k, the degree pinning the y-exponent, and the scalar e line in
    F1 at degree 0, weight 0.  L^d is the part of F1 at degree d + 1 whose
    coefficients carry y at most once, as DerivationElement views: the
    shapes x^a y d_i, x^a d_i, x^a y del, x^a del and the e line, in
    degrees -1, 0, 1; the cap on y makes it a subcomplex.  Each slice of
    at most 4096 monomials checks the time.perf_counter() deadline.
    """
    nvars, nu = f.nvars, form_weight(f)
    cls = DerivationElement if space == "L" else FElement
    basis, one = [], Fraction(1)
    for word, yexp, xw in _blocks(nvars, nu, degree, weight, space):
        for monos in _monomial_slices(nvars, xw):
            check_deadline(deadline, "the graded pieces")
            basis += [cls._of(nvars, nu, {(word, m, yexp): one}) for m in monos]
    return GradedPiece(degree, weight, tuple(basis))


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
    nvars, nu = f.nvars, form_weight(f)
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
