"""Seeded job streams for the jmoduli benchmark, and the checks on their results.

A workload is an endless stream of rounds.  A round is a short list of
jobs with fixed family proportions, so a run that stops at a round
boundary always measures the same mix; only the seeded coefficients and
monomials differ between seeds.  A job is a sequence of ``jmoduli`` argv lists,
each run with ``--json``, and each argv carries the expectation its
result is checked against.

Everything here is a pure function of the seed, except that a drawn form
which ``jmoduli check`` rejects is redrawn from the same stream.  The
caller passes that check in as ``passes_check``, so this module never
imports the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

WORKLOADS = ("moduli_mix", "deform_pencil", "dgla_spots")

QUARTIC = "x0^4 + x1^4 + x2^4 + x3^4"
QUINTIC = "x0^5 + x1^5 + x2^5 + x3^5 + x4^5"
CUBIC = "x0^3 + x1^3 + x2^3"

# deform family -> (f, direction monomial, dim R~, dim R~_(f+g))
DEFORM_DIRECTIONS = {
    "transverse": (QUARTIC, "x0*x1*x2*x3", 24, 24),
    "quartic_jump": (QUARTIC, "x0^8", 24, 51),
    "cubic_jump": (CUBIC, "x0^3*x1^3*x2^3", 4, 22),
}
# One deform round.  The quartic jump is five times the cost of either
# other direction, so with four of six jobs the median job is always a
# quartic jump, a quarter of the way into that family.
DEFORM_ROUND = ("transverse", "cubic_jump") + ("quartic_jump",) * 4

# (form, degree, weight) spots of the dgla workload, 80 to 564 elements.
DGLA_SPOTS = {
    QUARTIC: ((-1, 6), (0, 4), (1, 4), (0, 6)),
    QUINTIC: ((0, 2), (1, 2), (0, 3), (1, 3)),
}
# Each round also runs the spots on each form plus a seeded multiple of a
# fixed term.  The term is fixed because its shape sets the density of the
# differential's rows: with a drawn term, the median cost of the perturbed
# quintic spots differed 1.8 times between seeds.
DGLA_TERMS = {QUARTIC: (2, 1, 1, 0), QUINTIC: (2, 2, 1, 0, 0)}

COEFFS = (1, 2, 3)
PENCIL_NUMERATORS = (1, 2, 3, 5)  # t = +-4 are the singular Dwork members
PENCIL_DENOMINATORS = (1, 2, 3)


@dataclass(frozen=True)
class Call:
    """One ``jmoduli`` invocation and what its JSON result must satisfy."""

    argv: tuple[str, ...]
    expect: dict  # result key -> required value

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Job:
    family: str
    calls: tuple[Call, ...]


def render_monomial(mono: tuple[int, ...]) -> str:
    return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                    for i, e in enumerate(mono) if e)


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, in a fixed order."""
    if nvars == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1)
            for rest in monomials(nvars - 1, degree - e)]


def off_diagonal(nvars: int, degree: int, supports) -> list[tuple[int, ...]]:
    """Monomials of the given degree on a number of variables in supports."""
    return [m for m in monomials(nvars, degree)
            if sum(1 for e in m if e) in supports]


def signed_term(coeff, mono: tuple[int, ...]) -> str:
    body = render_monomial(mono)
    mag = abs(coeff)
    text = body if mag == 1 else f"{mag}*{body}"
    return f" - {text}" if coeff < 0 else f" + {text}"


def hilbert_vector(nvars: int, nu: int) -> list[int]:
    """Coefficients of (1 + t + ... + t^(nu-2))^nvars, the Hilbert series of
    the Milnor ring of any nonsingular form of degree nu in nvars variables."""
    out = [1]
    for _ in range(nvars):
        nxt = [0] * (len(out) + nu - 2)
        for i, c in enumerate(out):
            for j in range(nu - 1):
                nxt[i + j] += c
        out = nxt
    return out


def dgla_piece_dim(nvars: int, nu: int, degree: int, weight: int) -> int:
    """Dimension of L^(degree, weight), counted from its monomial shapes."""
    def count(w: int) -> int:
        return comb(w + nvars - 1, nvars - 1) if w >= 0 else 0

    if degree == -1:
        return (weight == 0) + nvars * count(weight - nu + 1)
    if degree == 0:
        return nvars * count(weight + 1) + count(weight)
    if degree == 1:
        return count(weight + nu)
    return 0


def _draw(rng: random.Random, passes_check, draw_one) -> tuple[str, int]:
    """Draw forms until one passes check; returns (form, redraws)."""
    redraws = 0
    while True:
        form = draw_one(rng)
        if passes_check(form):
            return form, redraws
        redraws += 1


def _dense_quartic(rng: random.Random) -> str:
    terms = rng.sample(off_diagonal(4, 4, (2, 3, 4)), 10)
    return QUARTIC + "".join(signed_term(rng.choice(COEFFS) * rng.choice((1, -1)), m)
                             for m in terms)


def _one_term(base: str, candidates: list[tuple[int, ...]]):
    def draw(rng: random.Random) -> str:
        mono = rng.choice(candidates)
        return base + signed_term(rng.choice(COEFFS) * rng.choice((1, -1)), mono)
    return draw


# One moduli round: dense quartics and quintics in a 3:2 ratio.  A quintic
# term on three variables costs about 1.4 times one on two, so each round
# takes one of each and only the seeded placement and coefficient vary.
MODULI_ROUND = (
    ("dense_quartic", _dense_quartic, 4),
    ("quintic_term", _one_term(QUINTIC, off_diagonal(5, 5, (2,))), 5),
    ("dense_quartic", _dense_quartic, 4),
    ("quintic_term", _one_term(QUINTIC, off_diagonal(5, 5, (3,))), 5),
    ("dense_quartic", _dense_quartic, 4),
)


def _moduli_calls(form: str, nvars: int) -> tuple[Call, ...]:
    hilbert = hilbert_vector(nvars, nvars)
    r_dims = [hilbert[k * nvars] for k in range(nvars - 1)]
    expect = {"hilbert": hilbert, "r_dims": r_dims,
              "dim_extended": sum(r_dims) + nvars - 1}
    return (Call(("check", "--json", form), {"pass": True}),
            Call(("moduli", "--json", form), expect))


def _moduli_round(rng, passes_check, stats) -> list[Job]:
    jobs = []
    for family, draw, nvars in MODULI_ROUND:
        form, redraws = _draw(rng, passes_check, draw)
        stats["redraws"] += redraws
        jobs.append(Job(family, _moduli_calls(form, nvars)))
    return jobs


def _deform_round(rng, passes_check, stats) -> list[Job]:
    jobs = []
    for family in DEFORM_ROUND:
        f, direction, dim, dim_deformed = DEFORM_DIRECTIONS[family]
        t = Fraction(rng.choice(PENCIL_NUMERATORS) * rng.choice((1, -1)),
                     rng.choice(PENCIL_DENOMINATORS))
        g = direction if t == 1 else f"{t}*{direction}"
        expect = {"dim_extended": dim, "dim_extended_deformed": dim_deformed,
                  "equal": dim == dim_deformed}
        jobs.append(Job(family, (Call(("deform", "--json", f, "--", g), expect),)))
    return jobs


def _dgla_round(rng, passes_check, stats) -> list[Job]:
    jobs = []
    for base, spots in DGLA_SPOTS.items():
        nvars = base.count("x")
        perturbed, redraws = _draw(rng, passes_check,
                                   _one_term(base, [DGLA_TERMS[base]]))
        stats["redraws"] += redraws
        for family, form in (("fermat", base), ("perturbed", perturbed)):
            for degree, weight in spots:
                expect = {"dim_piece": dgla_piece_dim(nvars, nvars, degree, weight)}
                if degree == 1:
                    expect["crosscheck_pass"] = True
                argv = ("dgla", "--json", form, "--degree", str(degree),
                        f"--weight={weight}")
                jobs.append(Job(f"{family}_{nvars}", (Call(argv, expect),)))
    return jobs


_ROUNDS = {
    "moduli_mix": _moduli_round,
    "deform_pencil": _deform_round,
    "dgla_spots": _dgla_round,
}


def rounds(workload: str, seed: int, passes_check, stats: dict):
    """Endless stream of rounds (lists of Jobs) for one workload and seed.

    stats["redraws"] counts forms rejected by passes_check.
    """
    rng = random.Random(f"{workload}:{seed}")
    make = _ROUNDS[workload]
    stats.setdefault("redraws", 0)
    while True:
        yield make(rng, passes_check, stats)


def check_result(call: Call, rc: int, report: "dict | None") -> list[str]:
    """Problems with one call's outcome; an empty list means it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    if report is None:
        return ["no JSON report"]
    result = report.get("result", {})
    problems = [f"{key}: got {result.get(key)!r}, want {want!r}"
                for key, want in call.expect.items() if result.get(key) != want]
    if call.command == "dgla":
        if result.get("h_dim") != result.get("dim_ker", 0) - result.get("dim_im_in", 0):
            problems.append("h_dim != dim_ker - dim_im_in")
    return problems
