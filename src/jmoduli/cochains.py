"""The first-order complex of f, and its cohomology at one spot.

T = S[y] with S = Q[x0..x_n]: x has weight 1 and degree 0, y weight nu and
degree -1.  The letters d_i (degree 0, weight -1), del (degree 1, weight
-nu) and e (degree -1, weight 0; it scales a homogeneous element by its
weight) act on T, and a form f of weight nu gives the differential

    d_f(d_i) = f_i del        d_f(y d_i) = f d_i - f_i y del
    d_f(del) = 0              d_f(y del) = f del
    d_f(e)   = sum_k x^k d_k - nu y del

with d_f(y^b) = (b mod 2) f y^{b-1} and a Koszul sign (-1)^b when d_f
passes a coefficient y^b.  d_f is written once, as the integer image of a
term under den * d_f (den the lcm of f's denominators): a template per
(word, y-exponent), shifted by the term's monomial.  The wedge calculus
of dgla reads the same differential.

The cohomology builds no elements.  A piece is a list of (word,
y-exponent, x-weight) blocks.  Each x-weight of a spot is packed once (B
bits an exponent, 2^B > weight + 2 nu, so no shift carries) for both
boundaries, whose rows shift a block's template over it.  A block with an
empty template adds no rows, and an elimination stops at full rank.
"""

from __future__ import annotations

from itertools import accumulate, combinations, count
from math import comb, inf
from operator import add, lshift

from .jacobian import form_weight, weight_of_or_none
from .linalg import _echelon, _integral, check_deadline
from .polys import Monomial, Polynomial, _add_term
from .stats import Stats

DEL = "del"
E = "e"


def _sign(k: int) -> int:
    # (-1)**k returns a float for negative k; keep everything integral
    return -1 if k % 2 else 1


def _letter_fdeg(letter) -> int:
    """Homological degree a letter contributes to a wedge word."""
    return 2 if letter == DEL else 0 if letter == E else 1


def _letter_weight(letter, nu: int) -> int:
    return -nu if letter == DEL else 0 if letter == E else -1


def _letter_rank(letter, nvars: int) -> int:
    return nvars if letter == DEL else nvars + 1 if letter == E else letter


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


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
    if any(a == b and _letter_fdeg(a) % 2 for a, b in zip(w, w[1:])):
        return None, 0
    return tuple(w), sign


def _word_fdeg(word: tuple) -> int:
    return sum(_letter_fdeg(l) for l in word)


def _word_weight(word: tuple, nu: int) -> int:
    return sum(_letter_weight(l, nu) for l in word)


def _differential(f: Polynomial, nvars: int, nu: int):
    """(row, den): row(key) is the image of the term key (word, x-exponents,
    y-exponent) under den * d_f as {key: int}, den the lcm of f's denominators.

    f is checked and its partials are taken once per differential.  Two
    contributions per key: the coefficient rule d(y^b) = (b mod 2) f y^{b-1},
    and letter replacement d_i -> f_i del and e -> sum x^k d_k - nu y del
    behind a Koszul sign that counts the degree parity of the coefficient
    and of the letters crossed; row(key) shifts its (word, yexp) template.
    """
    if f.nvars != nvars:
        raise ValueError("arity mismatch")
    if f.is_zero() or weight_of_or_none(f) != nu:
        raise ValueError("f must be homogeneous of weight nu")
    f_terms, den = _integral(f.terms)
    # letter -> (replacement letter, y shift, integer coefficient terms)
    images = {i: [(DEL, 0, tuple((m, int(den * c)) for m, c in
                                 f.partial_derivative(i).terms.items()))]
              for i in range(nvars)}
    images[E] = [(k, 0, ((tuple(int(i == k) for i in range(nvars)), den),))
                 for k in range(nvars)]
    images[E].append((DEL, 1, (((0,) * nvars, -nu * den),)))

    templates: dict = {}

    def row(key) -> dict:
        word, mono, yexp = key
        if (word, yexp) not in templates:
            out = ({(word, m, yexp - 1): c for m, c in f_terms.items()}
                   if yexp % 2 else {})
            crossed = yexp
            for i, letter in enumerate(word):
                for new, dy, coeff in images.get(letter, ()):
                    sw, sg = _sort_word(word[:i] + (new,) + word[i + 1:], nvars)
                    if sg:
                        s = sg * _sign(crossed)
                        for m, c in coeff:
                            _add_term(out, (sw, m, yexp + dy), s * c)
                crossed += _letter_fdeg(letter)
            templates[word, yexp] = out
        return {(w, _mono_mul(mono, m), y): c
                for (w, m, y), c in templates[word, yexp].items()}

    return row, den


def _blocks(nvars: int, nu: int, degree: int, weight: int, space: str = "L") -> list:
    """The (word, y-exponent, x-weight) blocks of graded_piece(f, degree,
    weight, space) in basis order, leaving out negative x-weights."""
    if space == "L":
        k, fdeg, ymax = 1, degree + 1, 1
    else:
        text = space.replace("^", "")
        if not text.startswith("F") or not text[1:].isdigit():
            raise ValueError(f"unknown space {space!r}; expected 'L' or 'Fk'")
        k, cap = int(text[1:]), nvars - 2
        if not 0 <= k <= cap:
            raise ValueError(f"word length {k} outside 0..{cap}")
        fdeg, ymax = degree, inf
    blocks = []
    for ndel in range(k + 1):
        for subset in combinations(range(nvars), k - ndel):
            word = subset + (DEL,) * ndel
            yexp = _word_fdeg(word) - fdeg
            xw = weight - yexp * nu - _word_weight(word, nu)
            if 0 <= yexp <= ymax and xw >= 0:
                blocks.append((word, yexp, xw))
    return blocks + [((E,), 0, 0)] * (k == 1 and fdeg == weight == 0)


def _packed_of_weight(nvars: int, weight: int, bits: int, deadline: float | None):
    """monomials_of_weight(nvars, weight) in order, packed with exponent i
    in bits [i * bits, (i + 1) * bits), 2^bits > weight.  x0's field starts
    at the weight, and a level moves e of it to x_i, from the last i down:
    one multiply-add a monomial.  Above 4096 monomials they come in lazy
    slices by the last exponent, each checking the deadline as it is built.
    """
    if nvars > 1 and comb(weight + nvars - 1, nvars - 1) > 4096:
        top = (nvars - 1) * bits
        return ((e << top) + p for e in range(weight, -1, -1)
                for p in _packed_of_weight(nvars - 1, weight - e, bits, deadline))
    check_deadline(deadline, "the graded pieces")
    level, mask = [weight], (1 << bits) - 1
    for i in range(nvars - 1, 0, -1):
        move = (1 << i * bits) - 1
        level = [p + e * move for p in level for e in range(p & mask, -1, -1)]
    return level


def _boundary_rows(row, nvars: int, bits: int, src, dst, positions: dict):
    """The rows of den * d_f from the blocks src to the blocks dst, fresh
    {column: int} dicts without zeros, in src's basis order: c at column off
    + pos[p + d] per entry (d, c) of the block's template, off the start of
    the entry's block in dst and pos = positions[its x-weight], {packed
    monomial: position}.  A block with an empty template yields no rows."""
    shifts = [bits * i for i in range(nvars)]
    cols = accumulate((len(positions[xw]) for _, _, xw in dst), initial=0)
    offsets = {(w, y): (c, positions[xw]) for (w, y, xw), c in zip(dst, cols)}
    for word, yexp, xw in src:
        try:
            shift = [(*offsets[w, y], sum(map(lshift, m, shifts)), c)
                     for (w, m, y), c in row((word, (0,) * nvars, yexp)).items()]
            for p in positions[xw] if shift else ():
                yield {off + pos[p + d]: c for off, pos, d, c in shift}
        except KeyError as exc:
            raise RuntimeError(
                f"differential left the enumerated piece at {exc}") from exc


def cohomology_report(f: Polynomial, degree: int, weight: int,
                      deadline: float | None = None,
                      stats: Stats | None = None) -> dict:
    """Dimensions at one (degree, weight) spot of the first-order complex.

    Returns piece, kernel, incoming-image and cohomology dimensions, from
    the ranks of den * d_f: scaling rows keeps a rank, and keeps it integral.
    stats, if given, counts piece_dim and the rows, cols, nnz and rank of
    the boundaries out of the piece (out_) and into it (in_).
    """
    nvars, nu = f.nvars, form_weight(f)
    row, _ = _differential(f, nvars, nu)
    here, above, below = (_blocks(nvars, nu, d, weight)
                          for d in (degree, degree + 1, degree - 1))
    bits = max(weight + 2 * nu, 1).bit_length()
    positions = {xw: dict(zip(_packed_of_weight(nvars, xw, bits, deadline), count()))
                 for xw in dict.fromkeys(xw for _, _, xw in here + above + below)}

    def size(blocks: list) -> int:
        return sum(len(positions[xw]) for _, _, xw in blocks)

    def boundary_rank(src: list, dst: list) -> int:
        rows = _boundary_rows(row, nvars, bits, src, dst, positions)
        return len(_echelon(rows, deadline, size(dst)))
    rank_out, rank_in = boundary_rank(here, above), boundary_rank(below, here)
    dim = size(here)
    if stats is not None:
        stats.count("piece_dim", dim)
        for name, src, dst, rank in (("out", here, above, rank_out),
                                     ("in", below, here, rank_in)):
            # a shift keeps every entry of the template
            nnz = sum(size([b]) * len(row((b[0], (0,) * nvars, b[1]))) for b in src)
            for key, n in (("rows", size(src)), ("cols", size(dst)),
                           ("nnz", nnz), ("rank", rank)):
                stats.count(f"{name}_{key}", n)
    return {"dim_piece": dim, "dim_ker": dim - rank_out,
            "dim_im_in": rank_in, "h_dim": dim - rank_out - rank_in}


def cohomology_dims(f: Polynomial, degree: int, weight: int) -> int:
    """dim ker/im of the differential at the given (degree, weight)."""
    return cohomology_report(f, degree, weight)["h_dim"]
