"""Buchberger, normal forms, and standard monomial extraction."""

import heapq
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from jmoduli import (
    BudgetExceeded,
    MonomialOrder,
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
    """Reduced Groebner basis over monic Fraction polynomials: the same pair
    order and criteria as buchberger, with _reduce as the division."""
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
    while queue:
        _, i, j, top = heapq.heappop(queue)
        treated.add((i, j))
        if all(a == 0 or b == 0 for a, b in zip(lms[i], lms[j])):
            continue
        if any(
            k not in (i, j) and _divides(lms[k], top)
            and (min(i, k), max(i, k)) in treated
            and (min(j, k), max(j, k)) in treated
            for k in range(len(working))
        ):
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
    ]


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
    lms = gb.leading_monomials()
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
    lms = gb1.leading_monomials()
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
    assert MonomialOrder.DEGREVLEX.value == "degrevlex"
    gb = buchberger(polys("x0", nvars=1), order=MonomialOrder.DEGREVLEX)
    assert gb.order is MonomialOrder.DEGREVLEX


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
    assert "leads" in vars(warm)
    fresh = buchberger(gens)
    assert "leads" not in vars(fresh)
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
        RingContext, deformed_subalgebra, graded_quotient, monomials_of_weight)
    from jmoduli.extended import extended_from_closure
    from jmoduli.groebner import weight_normal_forms

    if name in PENCIL_DIRECTIONS:
        f_text, g_text = PENCIL_DIRECTIONS[name]
        f = parse_polynomial(f_text)
        ctx = RingContext(f.nvars, f.nvars)
        data = deformed_subalgebra(f, parse_polynomial(g_text, f.nvars), ctx)
        extended_from_closure(data, ctx)
        rows = data.quotient.rows
        assert len(rows) > len(data.standard_basis)
        for mono, row in rows.items():
            assert row == normal_form(Polynomial.monomial(mono), data.gb).terms
        return
    f = parse_polynomial(WEIGHT_TABLE_FORMS[name])
    ctx = RingContext(f.nvars, f.nvars)
    gb = graded_quotient(f, ctx).gb
    for k in range(f.nvars - 1):
        monos = monomials_of_weight(f.nvars, k * ctx.nu)
        table = weight_normal_forms(gb, k * ctx.nu)
        assert list(table) == monos
        for mono in monos:
            want = normal_form(Polynomial.monomial(mono), gb).terms
            assert table[mono] == want


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
    want = fraction_buchberger(gens)
    gb = buchberger(gens)
    assert list(gb.generators) == want
    assert normal_form(probe, gb) == _reduce(
        probe, want, [g.leading_monomial() for g in want])
    # the memo walks any ideal, zero-dimensional or not
    one = {(0,) * gb.nvars: 1}
    assert Quotient(gb).product(probe.terms, one) == normal_form(probe, gb).terms


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
