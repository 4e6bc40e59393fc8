"""Buchberger, normal forms, and standard monomial extraction."""

import heapq
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from jmoduli import (
    BudgetExceeded,
    Polynomial,
    buchberger,
    degrevlex_key,
    is_zero_dimensional,
    monomials_of_weight,
    normal_form,
    parse_polynomial,
    spolynomial,
    standard_monomials,
)
from jmoduli.groebner import (
    Quotient,
    _divide,
    _divides,
    _integral,
    _lcm,
    _primitive,
    _quotient,
    _spair,
)


# -- the Fraction division loop and Buchberger, kept as oracles ---------------

def _reduce(p, reducers, lms):
    """Full multivariate division remainder of p by the (monic) reducers.

    lms[i] is the leading monomial of reducers[i].  At each step the
    largest remaining monomial is either cancelled against the first
    reducer whose leading monomial divides it, or moved to the remainder.
    """
    work = dict(p.terms)
    remainder = {}
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


def fraction_buchberger(gens):
    """(reduced Groebner basis, counts) over monic Fraction polynomials: the
    same pair order and criteria as buchberger, with _reduce as the division
    and the chain criterion scanning every k for popped pairs (i, k) and
    (j, k).  counts holds the pairs examined and skipped by a criterion."""
    working = [g.monic() for g in gens if not g.is_zero()]
    lms = [g.leading_monomial() for g in working]
    queue = []

    def push(i, j):
        top = _lcm(lms[i], lms[j])
        heapq.heappush(queue, (degrevlex_key(top), i, j, top))

    for i in range(len(working)):
        for j in range(i + 1, len(working)):
            push(i, j)
    treated = set()
    counts = {"pairs": 0, "skipped_criteria": 0}
    while queue:
        _, i, j, top = heapq.heappop(queue)
        treated.add((i, j))
        counts["pairs"] += 1
        if all(a == 0 or b == 0 for a, b in zip(lms[i], lms[j])) or any(
            k not in (i, j) and _divides(lms[k], top)
            and (min(i, k), max(i, k)) in treated
            and (min(j, k), max(j, k)) in treated
            for k in range(len(working))
        ):
            counts["skipped_criteria"] += 1
            continue
        remainder = _reduce(spolynomial(working[i], working[j]), working, lms)
        if not remainder.is_zero():
            working.append(remainder.monic())
            lms.append(working[-1].leading_monomial())
            for k in range(len(working) - 1):
                push(k, len(working) - 1)
    minimal, min_lms = [], []
    for lm, g in sorted(zip(lms, working), key=lambda pair: degrevlex_key(pair[0])):
        if not any(_divides(h, lm) for h in min_lms):
            minimal.append(g)
            min_lms.append(lm)
    return [
        _reduce(g, minimal[:idx] + minimal[idx + 1:],
                min_lms[:idx] + min_lms[idx + 1:]).monic()
        for idx, g in enumerate(minimal)
    ], counts


def polys(*texts, nvars=None):
    return [parse_polynomial(t, nvars) for t in texts]


def test_spolynomial_cancels_leading_terms():
    f, g = polys("x0^2*x1 - 1", "x0*x1^2 - x0", nvars=2)
    s = spolynomial(f, g)
    # lcm = x0^2*x1^2; s = x1*f - x0*g = x0^2 - x1
    assert s == parse_polynomial("x0^2 - x1", 2)


def test_buchberger_univariate_gcd():
    # in one variable a GB is the gcd, made monic
    gens = polys("x0^4 - 1", "x0^6 - 1", nvars=1)
    gb = buchberger(gens)
    assert [g for g in gb] == polys("x0^2 - 1", nvars=1)


def test_buchberger_hand_example():
    # partials of x0^3 + x1^3 + x2^3 + x0^6 up to scale
    gens = polys("3*x0^2 + 6*x0^5", "3*x1^2", "3*x2^2", nvars=3)
    gb = buchberger(gens)
    # ascending degrevlex on leading monomials
    assert [g for g in gb] == polys(
        "x2^2", "x1^2", "x0^5 + 1/2*x0^2", nvars=3
    )
    nf = normal_form(parse_polynomial("x0^6", 3), gb)
    assert nf == parse_polynomial("-1/2*x0^3", 3)


def test_buchberger_generators_monic_and_sorted():
    gens = polys("2*x1 - x0", "4*x0^2 - 8", nvars=2)
    gb = buchberger(gens)
    lms = gb.leads
    assert all(g.leading_coefficient() == 1 for g in gb)
    from jmoduli import degrevlex_key

    keys = [degrevlex_key(m) for m in lms]
    assert keys == sorted(keys)


def test_buchberger_reduced_basis_unique():
    # a reduced GB is canonical: generator order must not matter
    gens = polys("x0^2 + x1", "x0*x1 + 1", nvars=2)
    gb1 = buchberger(gens)
    gb2 = buchberger(list(reversed(gens)))
    assert list(gb1) == list(gb2)
    # no leading monomial divides another, no tail term is divisible
    lms = gb1.leads
    for i, m in enumerate(lms):
        for j, d in enumerate(lms):
            if i != j:
                assert not all(a >= b for a, b in zip(m, d))
    for g in gb1:
        tail = [m for m in g.terms if m != g.leading_monomial()]
        for m in tail:
            for d in lms:
                assert not all(a >= b for a, b in zip(m, d))


def test_buchberger_rejects_zero_ideal():
    with pytest.raises(ValueError):
        buchberger([Polynomial.zero(2), Polynomial.zero(2)])


def test_buchberger_skips_zero_generators():
    gens = [Polynomial.zero(2)] + polys("x0", "x1", nvars=2)
    gb = buchberger(gens)
    assert len(gb) == 2


def test_buchberger_deadline():
    gens = polys("x0^2*x1 - x2^3 + x1", "x1^2*x2 - x0 + 1", nvars=3)
    with pytest.raises(BudgetExceeded):
        buchberger(gens, deadline=time.perf_counter())
    assert buchberger(gens, deadline=time.perf_counter() + 60) == buchberger(gens)


def test_tail_reduction_checks_the_deadline_once_per_generator(monkeypatch):
    import dataclasses

    import jmoduli.groebner as groebner

    gens = polys("x0*x1 - x2^2", "x0^2 - x1", "x1^3 - x2", nvars=3)
    gb = buchberger(gens, deadline=time.perf_counter() + 60)
    # the pair loop ended in time; the deadline passes before the first read
    late = dataclasses.replace(gb, deadline=time.perf_counter() - 1)
    with pytest.raises(BudgetExceeded, match="in the tail reduction$"):
        late.generators
    checks = []
    real = groebner.check_deadline
    monkeypatch.setattr(groebner, "check_deadline", lambda deadline, stage:
                        checks.append(stage) or real(deadline, stage))
    # a basis without a deadline reads as before
    plain = buchberger(gens)
    assert plain.deadline is None
    assert plain.generators == gb.generators == tuple(fraction_buchberger(gens)[0])
    assert checks.count("the tail reduction") == 2 * len(gb)


def test_buchberger_budget():
    # a dense random-looking system with a tiny budget must bail out
    gens = polys(
        "x0^2*x1 - x2^3 + x1",
        "x1^2*x2 - x0 + 1",
        "x2^2*x0 - x1^2",
        nvars=3,
    )
    with pytest.raises(BudgetExceeded):
        buchberger(gens, max_pairs=1)
    gb = buchberger(gens)  # default budget is plenty
    assert len(gb) >= 3


def test_normal_form_is_idempotent_and_linear():
    gens = polys("x0^2 - x1", "x1^2 - 1", nvars=2)
    gb = buchberger(gens)
    p = parse_polynomial("x0^4 + x0^2*x1 + 3", 2)
    q = parse_polynomial("x0^3*x1 - x0", 2)
    np_, nq = normal_form(p, gb), normal_form(q, gb)
    assert normal_form(np_, gb) == np_
    assert normal_form(p + q, gb) == np_ + nq
    assert normal_form(p.scale(Fraction(2, 3)), gb) == np_.scale(Fraction(2, 3))


def test_normal_form_detects_membership():
    gens = polys("x0^2 - x1", "x1^2 - 1", nvars=2)
    gb = buchberger(gens)
    member = parse_polynomial("x0^4 - 1", 2)  # (x0^2+x1)(x0^2-x1) + (x1^2-1)
    assert normal_form(member, gb).is_zero()
    assert not normal_form(parse_polynomial("x0^3", 2), gb).is_zero()


def test_spolynomials_of_basis_reduce_to_zero():
    gens = polys(
        "x0^2 + x1*x2", "x1^2 + x0*x2", "x2^2 + x0*x1", nvars=3
    )
    gb = buchberger(gens)
    members = list(gb)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            s = spolynomial(members[i], members[j])
            assert normal_form(s, gb).is_zero()


def test_zero_dimensionality():
    gb = buchberger(polys("x0^2", "x1^3", nvars=2))
    assert is_zero_dimensional(gb)
    gb2 = buchberger(polys("x0*x1", nvars=2))
    assert not is_zero_dimensional(gb2)


def test_standard_monomials_box_case():
    gb = buchberger(polys("x0^2", "x1^3", nvars=2))
    std = standard_monomials(gb)
    assert len(std) == 6
    assert set(std) == {(a, b) for a in range(2) for b in range(3)}
    from jmoduli import degrevlex_key

    assert std == sorted(std, key=degrevlex_key)


def test_standard_monomials_with_mixed_leading_terms():
    gb = buchberger(polys("x0^2 - x1", "x1^2 - 1", nvars=2))
    std = standard_monomials(gb)
    # quotient is 4-dimensional: 1, x0, x1, x0*x1
    assert set(std) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_standard_monomials_requires_finite_quotient():
    gb = buchberger(polys("x0*x1", nvars=2))
    with pytest.raises(ValueError):
        standard_monomials(gb)


def test_order_enum():
    # degrevlex is the only order, so buchberger takes none
    gb = buchberger(polys("x0", nvars=1))
    assert gb.leads == ((1,),)


def test_quotient_dimension_against_row_reduction():
    # independent check: dim S/I by row reducing multiplication-by-monomial
    # images is the same as counting standard monomials
    from jmoduli import Span, monomials_of_weight

    gens = polys("x0^2 + x1*x2", "x1^2 + x0*x2", "x2^2 + x0*x1", nvars=3)
    gb = buchberger(gens)
    std = standard_monomials(gb)
    index = {m: i for i, m in enumerate(std)}

    span = Span(len(std))
    count = 0
    for w in range(0, 8):
        for m in monomials_of_weight(3, w):
            nf = normal_form(Polynomial.monomial(m), gb)
            vec = [Fraction(0)] * len(std)
            for mono, c in nf.terms.items():
                vec[index[mono]] = c
            if span.add(vec):
                count += 1
    assert count == len(std) == 8


# -- leading monomials cached on the basis -----------------------------------

CACHE_BASES = [
    buchberger(polys("x0^2 + x1*x2", "x1^2 + x0*x2", "x2^2 + x0*x1", nvars=3)),
    buchberger(polys("3*x0^2 + 6*x0^5", "3*x1^2", "3*x2^2 + x0*x1", nvars=3)),
    buchberger(polys("x0^2*x1 - x2^3 + x1", "x1^2*x2 - x0 + 1", nvars=3)),
]

random_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=4)] * 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    max_size=6,
).map(lambda d: Polynomial(3, d))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(random_polys, st.sampled_from(range(len(CACHE_BASES))))
def test_normal_form_with_cached_leads_matches_fresh_ones(p, which):
    gb = CACHE_BASES[which]
    fresh = [g.leading_monomial() for g in gb.generators]
    assert list(gb.leads) == fresh
    assert normal_form(p, gb) == _reduce(p, list(gb.generators), fresh)


def test_cached_leads_leave_equality_and_hash_alone():
    gens = polys("x0^2 - x1", "x1^2 - 1", nvars=2)
    warm = buchberger(gens)
    normal_form(parse_polynomial("x0^3*x1", 2), warm)
    assert "generators" in vars(warm)
    fresh = buchberger(gens)
    assert "generators" not in vars(fresh)
    assert warm == fresh
    assert hash(warm) == hash(fresh)


# -- the weight-by-weight normal-form table against normal_form --------------

WEIGHT_TABLE_FORMS = {
    "fermat_cubic": "x0^3 + x1^3 + x2^3",
    "fermat_quartic": "x0^4 + x1^4 + x2^4 + x3^4",
    "fermat_quintic": "x0^5 + x1^5 + x2^5 + x3^5 + x4^5",
    "dense_quartic": "x0^4 + x1^4 + x2^4 + x3^4 + 2*x0^2*x1*x2 - x1*x2*x3^2"
                     " + 3*x0*x1*x2*x3 - x0^2*x3^2 + x1^3*x3 - 2*x0*x2^3"
                     " + x0*x1^2*x3 - 3*x2^2*x3^2 + x0*x1*x2^2 + 2*x1^2*x2*x3",
    "perturbed_quintic": "x0^5 + x1^5 + x2^5 + x3^5 + x4^5 - 3*x0^2*x1*x4^2",
}


# the three directions of the deform_pencil workload; J_(f+g) is
# inhomogeneous, so these check the memo rows the closure and the
# products leave behind
PENCIL_DIRECTIONS = {
    "pencil_transverse": ("x0^4 + x1^4 + x2^4 + x3^4", "2*x0*x1*x2*x3"),
    "pencil_quartic_jump": ("x0^4 + x1^4 + x2^4 + x3^4", "-5/3*x0^8"),
    "pencil_cubic_jump": ("x0^3 + x1^3 + x2^3", "x0^3*x1^3*x2^3"),
}


@pytest.mark.parametrize("name",
                         sorted(WEIGHT_TABLE_FORMS) + sorted(PENCIL_DIRECTIONS))
def test_weight_table_matches_normal_form(name):
    from jmoduli import (
        deformed_subalgebra, graded_quotient, monomials_of_weight)
    from jmoduli.extended import extended_from_closure

    def fraction_row(quotient, memo_row):
        row, den = memo_row
        std = quotient.standard
        return {std[i]: Fraction(c, den) for i, c in row.items()}

    if name in PENCIL_DIRECTIONS:
        f_text, g_text = PENCIL_DIRECTIONS[name]
        f = parse_polynomial(f_text)
        data = deformed_subalgebra(f, parse_polynomial(g_text, f.nvars))
        extended_from_closure(data)
        quotient = data.quotient
        assert len(quotient.rows) > len(data.standard_basis)
        # every memo row, its packed key read back to a monomial, through
        # its Fraction view
        monos = {quotient.unpack(key): row for key, row in quotient.rows.items()}
        assert len(monos) == len(quotient.rows)
        for mono, memo_row in monos.items():
            want = normal_form(Polynomial.monomial(mono), data.gb).terms
            assert fraction_row(quotient, memo_row) == want
        return
    f = parse_polynomial(WEIGHT_TABLE_FORMS[name])
    data = graded_quotient(f)
    gb = data.gb
    quotient = Quotient(gb)
    for k in range(f.nvars - 1):
        for mono in monomials_of_weight(f.nvars, k * data.nu):
            want = normal_form(Polynomial.monomial(mono), gb).terms
            assert fraction_row(quotient, quotient.row(mono)) == want


# -- the integer kernel against the Fraction oracles --------------------------

def small_monomials(nvars, degree):
    return [m for d in range(degree + 1) for m in monomials_of_weight(nvars, d)]


@st.composite
def random_ideals(draw):
    """2-3 variables, up to three generators of degree <= 3 with up to
    three terms and rational coefficients of either sign: homogeneous or
    not, zero-dimensional or not."""
    nvars = draw(st.integers(min_value=2, max_value=3))
    term = st.tuples(
        st.sampled_from(small_monomials(nvars, 3)),
        st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool),
    )
    poly = st.lists(term, min_size=1, max_size=3).map(
        lambda terms: Polynomial(nvars, dict(terms)))
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    probe = Polynomial(nvars, dict(draw(st.lists(term, max_size=5))))
    return gens, probe


@settings(derandomize=True, max_examples=120, deadline=None)
@given(random_ideals())
def test_integer_kernel_matches_fraction_oracles(ideal):
    gens, probe = ideal
    want, _ = fraction_buchberger(gens)
    gb = buchberger(gens)
    assert list(gb.generators) == want
    assert normal_form(probe, gb) == _reduce(
        probe, want, [g.leading_monomial() for g in want])
    # the memo serves zero-dimensional ideals; adding x_i^4 for every i
    # makes any ideal zero-dimensional, so every draw compares a memo row
    one = (0,) * gb.nvars
    if not is_zero_dimensional(gb):
        with pytest.raises(ValueError, match="infinite quotient"):
            Quotient(gb).row(one)
    powers = [Polynomial.monomial(tuple(4 * (j == i) for j in range(gb.nvars)))
              for i in range(gb.nvars)]
    work, den = _integral(probe.terms)
    for basis in (gb, buchberger(gens + powers)):
        if not is_zero_dimensional(basis):
            continue
        # the product is an integer row over one denominator, keyed by
        # standard-monomial index
        quotient = Quotient(basis)
        row, row_den = quotient.reduce(
            quotient.product(quotient.pack(work), quotient.pack({one: 1})))
        assert all(type(c) is int for c in row.values())
        assert {quotient.standard[i]: Fraction(c, den * row_den)
                for i, c in row.items()} == normal_form(probe, basis).terms


def test_packing_width_never_wraps():
    from jmoduli.jacobian import nonsingular_gb

    # past the packing width, pack and row refuse
    quotient = Quotient(nonsingular_gb(parse_polynomial("x0^3 + x1^3 + x2^3")))
    for refuse in (quotient.row, lambda mono: quotient.pack({mono: 1})):
        with pytest.raises(ValueError, match="beyond the packing"):
            refuse((2**20, 0, 0))
    # x0^7 = 3/10 * x0^3 here, so no power of x0 reduces to zero
    gb = nonsingular_gb(parse_polynomial(
        "x0^4 + x1^4 + x2^4 + x3^4 - 5/3*x0^8"))
    quotient = Quotient(gb)
    std = quotient.standard

    def packs(degree):
        try:
            return bool(quotient.pack({(degree, 0, 0, 0): 1}))
        except ValueError:
            return False

    top = next(d for d in range(2**12) if not packs(d + 1))
    assert not packs(2**12) and all(map(packs, range(top + 1)))

    def check(row_den, mono, scale=1):
        row, den = row_den
        assert {std[i]: Fraction(c, den) for i, c in row.items()} == normal_form(
            Polynomial.monomial(mono, scale), gb).terms

    # every table product packs: the two highest standard monomials
    a, b = std[-2:]
    assert packs(sum(a) + sum(b))
    check(quotient.reduce(quotient.product(quotient.pack({a: 1}),
                                           quotient.pack({b: 1}))),
          tuple(map(sum, zip(a, b))))
    # the largest keys times can form, past the limit, in one field and
    # across fields: x0^6 is the highest standard power of x0
    six = quotient.index[(6, 0, 0, 0)]
    assert not packs(6 + top)
    for shift in [(top, 0, 0, 0), (top - 1, 1, 0, 0), (0, 0, 0, top)]:
        [key] = quotient.times({six: 3}, quotient.pack({shift: -2}))
        check(quotient.reduce(key), (6 + shift[0], *shift[1:]), -6)


def box_scan(gb):
    """The staircase by scanning the box under the pure-power leads."""
    lms = gb.leads
    bounds = [min(lm[var] for lm in lms if sum(lm) == lm[var])
              for var in range(gb.nvars)]
    return sorted((m for m in product(*map(range, bounds))
                   if not any(_divides(lm, m) for lm in lms)),
                  key=degrevlex_key)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(random_ideals())
def test_staircase_matches_box_scan_on_random_ideals(ideal):
    gb = buchberger(ideal[0])
    if is_zero_dimensional(gb):
        assert standard_monomials(gb) == box_scan(gb)


QUINTIC = WEIGHT_TABLE_FORMS["fermat_quintic"]
STAIRCASE_IDEALS = {
    "fermat_quintic": (QUINTIC, None),
    # the two quintic shapes of the moduli_mix workload: one term on two
    # and on three variables
    "quintic_term_on_two": (QUINTIC + " - 3*x1^2*x3^3", None),
    "quintic_term_on_three": (QUINTIC + " + 2*x0*x2^3*x4", None),
    "dense_quartic": (WEIGHT_TABLE_FORMS["dense_quartic"], None),
    **PENCIL_DIRECTIONS,
}


@pytest.mark.parametrize("name", sorted(STAIRCASE_IDEALS))
def test_staircase_matches_box_scan(name):
    from jmoduli import jacobian_gb

    f_text, g_text = STAIRCASE_IDEALS[name]
    f = parse_polynomial(f_text)
    if g_text is not None:
        f = f + parse_polynomial(g_text, f.nvars)
    gb = jacobian_gb(f)
    std = standard_monomials(gb)
    assert std == box_scan(gb)
    assert len(std) == len(set(std))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(random_ideals())
def test_integer_spair_is_a_multiple_of_the_spolynomial(ideal):
    gens, probe = ideal
    f, g = gens[0], probe if probe else gens[-1]
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    ints = [_primitive(_integral(p.terms)[0], lm) for p, lm in ((f, lmf), (g, lmg))]
    pair = Polynomial(f.nvars, _spair(ints[0], lmf, ints[1], lmg, _lcm(lmf, lmg)))
    want = spolynomial(f, g)
    assert pair.is_zero() == want.is_zero()
    if not want.is_zero():
        ratio = pair.leading_coefficient() / want.leading_coefficient()
        assert ratio > 0 and pair == want.scale(ratio)


SYMPY_FORMS = {
    "cubic_plus_x0x1x2": "x0^3 + x1^3 + x2^3 + x0*x1*x2",
    "perturbed_quintic": WEIGHT_TABLE_FORMS["perturbed_quintic"],
    "dense_quartic": WEIGHT_TABLE_FORMS["dense_quartic"],
}


@pytest.mark.parametrize("name", sorted(SYMPY_FORMS))
def test_jacobian_gb_matches_sympy(name):
    sympy = pytest.importorskip("sympy")
    from jmoduli import jacobian_gb

    f = parse_polynomial(SYMPY_FORMS[name])
    xs = sympy.symbols(f"x0:{f.nvars}")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.prod(x**e for x, e in zip(xs, mono))
        for mono, c in f.terms.items()
    )
    theirs = sympy.groebner([sympy.diff(expr, x) for x in xs], *xs,
                            order="grevlex")
    want = set()
    for p in theirs.polys:
        # monic under grevlex; sympy's own LC/monic use lex
        lc = p.LC(order="grevlex")
        want.add(frozenset(
            (mono, Fraction(int(c.p), int(c.q)) / Fraction(int(lc.p), int(lc.q)))
            for mono, c in p.as_dict().items()))
    ours = {frozenset(g.terms.items()) for g in jacobian_gb(f)}
    assert ours == want


# -- the Hilbert drive: counters, and plain Buchberger as its oracle ----------

def drive_stats(gens):
    from jmoduli.stats import Stats

    stats = Stats()
    gb = buchberger(gens, stats=stats)
    return gb, stats.counters


@pytest.mark.parametrize("name, want", [
    ("fermat_cubic", {"pairs": 3, "skipped_criteria": 3, "skipped_hilbert": 0,
                      "zero_reductions": 0, "basis_len": 3,
                      "divisor_memo": 0}),
    # plain Buchberger divides 47 of these pairs, each to zero
    ("dense_quartic", {"pairs": 406, "skipped_criteria": 334,
                       "skipped_hilbert": 47, "zero_reductions": 0,
                       "basis_len": 29, "divisor_memo": 142}),
])
def test_buchberger_counters(name, want):
    from jmoduli import jacobian_ideal

    f = parse_polynomial({"fermat_cubic": "x0^3 + x1^3 + x2^3",
                          **WEIGHT_TABLE_FORMS}[name])
    gb, counters = drive_stats(jacobian_ideal(f))
    assert counters == want
    assert len(gb) == counters["basis_len"]


@pytest.mark.parametrize("name, want", [("fermat_cubic", 8),
                                        ("dense_quartic", 81)])
def test_graded_quotient_counts_standard_monomials(name, want):
    from jmoduli import graded_quotient
    from jmoduli.stats import Stats

    f = parse_polynomial({"fermat_cubic": "x0^3 + x1^3 + x2^3",
                          **WEIGHT_TABLE_FORMS}[name])
    stats = Stats()
    data = graded_quotient(f, stats=stats)
    assert stats.counters["standard_monomials"] == want
    assert len(data.standard_basis) == want
    assert stats.counters["basis_len"] == len(data.gb)


def test_divisor_memo_rescans_only_the_leads_appended_since_a_miss():
    reducers, lms, memo = [{(2, 0): 1, (0, 1): -1}], [(2, 0)], {}
    # x1^3 has no divisor among the first lead, x0^2 -> x1
    remainder, _ = _divide({(0, 3): 1, (2, 0): 1}, reducers, lms, memo)
    assert remainder == {(0, 3): 1, (0, 1): 1}
    assert memo == {(0, 3): ~1, (2, 0): 0, (0, 1): ~1}
    # an appended lead x1^2 divides it: the miss was not final
    reducers.append({(0, 2): 1, (0, 0): -1})
    lms.append((0, 2))
    remainder, _ = _divide({(0, 3): 1}, reducers, lms, memo)
    assert remainder == {(0, 1): 1}
    assert memo == {(0, 3): 1, (2, 0): 0, (0, 1): ~2}


def test_buchberger_finds_divisors_among_leads_appended_later():
    # terms with no divisor among the early leads gain one from a lead
    # appended later; a memo that kept the miss would leave them in the
    # remainders and examine 21 pairs
    gens = polys("x0*x1 - x2^2", "x0^2 - x1", "x1^3 - x2", nvars=3)
    gb, counters = drive_stats(gens)
    assert counters == {"pairs": 15, "skipped_criteria": 7,
                        "skipped_hilbert": 0, "zero_reductions": 5,
                        "basis_len": 6, "divisor_memo": 12}
    assert list(gb.generators) == fraction_buchberger(gens)[0]


def assert_reduced(gb):
    """Monic generators, ascending by lead, whose other terms no lead
    divides."""
    assert list(gb.leads) == sorted(gb.leads, key=degrevlex_key)
    for g, lm in zip(gb.generators, gb.leads):
        assert g.leading_monomial() == lm and g.terms[lm] == 1
        assert not any(_divides(h, m) for m in g.terms if m != lm
                       for h in gb.leads)


def test_generators_are_the_tail_reduced_minimal_basis():
    from jmoduli import jacobian_ideal

    f = parse_polynomial(WEIGHT_TABLE_FORMS["dense_quartic"])
    gb = buchberger(jacobian_ideal(f))
    assert len(gb) == 29 and "generators" not in vars(gb)
    assert_reduced(gb)
    # the tail reduction keeps the leads and changes the other terms
    assert any(g != h for g, h in zip(gb.minimal, gb.integer_generators))


def test_stats_are_optional_and_change_nothing():
    gens = polys("x0^2 + x1*x2", "x1^2 + x0*x2", "x2^2 + x0*x1", nvars=3)
    assert drive_stats(gens)[0] == buchberger(gens)


def test_staircase_growth_checks_the_deadline_and_the_budget():
    from jmoduli.groebner import _Staircase

    # the whole ring: layer d holds the d + 1 monomials of degree d
    assert len(_Staircase(2, []).layer(3, budget=3)) == 4
    assert _Staircase(2, []).layer(4, budget=3) is None
    with pytest.raises(BudgetExceeded, match="Buchberger"):
        _Staircase(2, []).layer(3, deadline=time.perf_counter() - 1)


def test_standard_monomials_check_the_deadline_per_layer():
    gb = buchberger(polys("x0^9", "x1^9", nvars=2))
    assert len(standard_monomials(gb, deadline=time.perf_counter() + 60)) == 81
    with pytest.raises(BudgetExceeded, match="in the staircase$"):
        standard_monomials(gb, deadline=time.perf_counter() - 1)


def test_drive_grows_no_layer_past_the_deadline(monkeypatch):
    from jmoduli import jacobian_ideal
    from jmoduli.groebner import _Staircase

    grown = []
    layer = _Staircase.layer
    monkeypatch.setattr(_Staircase, "layer", lambda self, *args: grown.append(
        args) or layer(self, *args))
    # singular, with three nonzero partials in three variables: the drive
    # is on and grows layers, but never finds a degree complete
    gens = jacobian_ideal(parse_polynomial("x0^2*x1 + x0*x2^2"))
    with pytest.raises(BudgetExceeded):
        buchberger(gens, deadline=time.perf_counter() - 1)
    assert grown == []
    gb, counters = drive_stats(gens)
    assert list(gb.generators) == fraction_buchberger(gens)[0]
    assert counters["skipped_hilbert"] == 0 and grown


def test_drive_stops_when_a_layer_outgrows_the_pairs_left(monkeypatch):
    from jmoduli.groebner import _Staircase

    layers = []
    layer = _Staircase.layer
    monkeypatch.setattr(_Staircase, "layer", lambda self, *args: layers.append(
        layer(self, *args)) or layers[-1])
    # x2 * (x0, x1, x2^6): HF is at most 4, but the layers have d + 1
    # monomials in x0, x1, and one pair is left at degree 8
    gens = polys("x0*x2", "x1*x2", "x2^7", nvars=3)
    gb, counters = drive_stats(gens)
    assert list(gb.generators) == fraction_buchberger(gens)[0]
    assert layers[-1] is None and counters["skipped_hilbert"] == 0


def test_drive_stops_before_layers_the_bound_shows_too_large(monkeypatch):
    from jmoduli import jacobian_ideal
    from jmoduli.groebner import _Staircase

    monkeypatch.setattr(_Staircase, "layer", None)
    # at the first pair past the criteria, of degree 5, 10 pairs are left
    # and HF(4) = 70 is more than 5 monomials per pair: no layer is grown
    f = parse_polynomial("x0^5 + x1^5 + x2^5 + x3^5 + x4^5 + 2*x0*x2^3*x4")
    gb, counters = drive_stats(jacobian_ideal(f))
    assert counters["skipped_hilbert"] == 0 and len(gb) == 11


def test_drive_stays_off_for_fewer_than_nvars_generators(monkeypatch):
    from jmoduli.groebner import _Staircase

    monkeypatch.setattr(_Staircase, "layer", None)
    # the partials of x0^10*x1^10 + x0^11*x1^9 padded to 8 variables, and
    # three forms in four variables whose bound would let layers grow
    for gens in (polys("x0^10*x1^9", "x0^11*x1^8", nvars=8),
                 polys("x0*x1", "x0*x2", "x0*x3", nvars=4)):
        assert set(buchberger(gens).leads) == {
            g.leading_monomial() for g in gens}


def forms_of(draw, nvars, degree, max_terms=4):
    """A nonzero form of the given degree with rational coefficients."""
    term = st.tuples(
        st.sampled_from(monomials_of_weight(nvars, degree)),
        st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool))
    return Polynomial(nvars, dict(draw(st.lists(term, min_size=1,
                                                max_size=max_terms))))


@st.composite
def homogeneous_ideals(draw):
    """(generators, drive may turn on).  Up to nvars forms of one degree
    or of mixed degrees (often singular), the Jacobian of a form in fewer
    variables than nvars (zero partials), and, with the drive off, more
    than nvars forms or an inhomogeneous set.  The drive turns on for
    exactly nvars homogeneous generators."""
    nvars = draw(st.integers(min_value=2, max_value=4))
    top = 4 if nvars < 4 else 3
    kind = draw(st.sampled_from(
        ["one_degree", "mixed", "jacobian", "too_many", "inhomogeneous"]))
    if kind == "jacobian":
        used = draw(st.integers(min_value=1, max_value=nvars))
        f = forms_of(draw, used, draw(st.integers(2, top + 1)), max_terms=6)
        gens = [Polynomial(nvars, {m + (0,) * (nvars - used): c
                                   for m, c in f.partial_derivative(i).terms.items()})
                for i in range(used)]
        gens = [g for g in gens if not g.is_zero()]
        return gens, len(gens) == nvars
    count = nvars + 1 if kind == "too_many" else draw(st.integers(1, nvars))
    degree = draw(st.integers(1, top))
    gens = [forms_of(draw, nvars, draw(st.integers(1, top)) if kind == "mixed"
                     else degree) for _ in range(count)]
    if draw(st.booleans()):
        # a power of x_i on the i-th form makes a regular sequence likely
        for i, g in enumerate(gens[:nvars]):
            power = Polynomial(nvars, {tuple(sum(g.leading_monomial()) * (j == i)
                                             for j in range(nvars)): 1})
            if not (g + power).is_zero():
                gens[i] = g + power
    if kind == "inhomogeneous":
        gens[0] = gens[0] + forms_of(draw, nvars, sum(gens[0].leading_monomial()) + 1)
    return gens, kind in ("one_degree", "mixed") and count == nvars


@settings(derandomize=True, max_examples=150, deadline=None)
@given(homogeneous_ideals())
def test_hilbert_drive_matches_plain_buchberger(ideal):
    gens, drive_on = ideal
    gb, counters = drive_stats(gens)
    assert list(gb.generators) == fraction_buchberger(gens)[0]
    if not drive_on:
        assert counters["skipped_hilbert"] == 0
    if is_zero_dimensional(gb):
        assert standard_monomials(gb) == box_scan(gb)


@st.composite
def criterion_ideals(draw):
    """Three kinds of generators in 2-3 variables: nvars forms of one degree
    plus x_i^degree (the Hilbert drive on), the same with one inhomogeneous
    generator, and nvars + 1 forms."""
    nvars = draw(st.integers(min_value=2, max_value=3))
    degree = draw(st.integers(min_value=2, max_value=3))
    kind = draw(st.sampled_from(["drive", "inhomogeneous", "too_many"]))
    gens = [forms_of(draw, nvars, degree)
            for _ in range(nvars + (kind == "too_many"))]
    for i in range(nvars):
        power = Polynomial(nvars, {tuple(degree * (j == i) for j in range(nvars)): 1})
        if not (gens[i] + power).is_zero():
            gens[i] = gens[i] + power
    if kind == "inhomogeneous":
        gens[0] = gens[0] + forms_of(draw, nvars, draw(st.sampled_from(
            [d for d in range(degree + 2) if d != degree])))
    return [g for g in gens if not g.is_zero()]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(criterion_ideals())
def test_chain_criterion_over_partners_matches_the_treated_pairs(gens):
    # the partner sets are a lookup of the same criterion: every pair
    # examined, every pair skipped and the basis agree with the oracle
    gb, counters = drive_stats(gens)
    want, counts = fraction_buchberger(gens)
    assert list(gb.generators) == want
    assert {key: counters[key] for key in counts} == counts
