"""Unit-extended algebras: primitive classes plus nilpotent e-classes."""

from fractions import Fraction

import pytest

from jmoduli import (
    EClass,
    Polynomial,
    PrimitiveClass,
    Span,
    SingularInputError,
    build_extended,
    build_extended_deformed,
    deformed_subalgebra,
    graded_quotient,
    normal_form,
    parse_polynomial,
    standard_monomials,
    structure_constants,
    to_json_dict,
    verify_algebra_laws,
    verify_dimension_equality,
)

CUBIC = parse_polynomial("x0^3 + x1^3 + x2^3")


def test_cubic_extended_shape():
    alg = build_extended(CUBIC)
    assert alg.dim == 4
    labels = alg.basis_labels
    assert isinstance(labels[0], PrimitiveClass) and labels[0].k == 0
    assert isinstance(labels[1], PrimitiveClass) and labels[1].k == 1
    assert labels[2] == EClass(0) and labels[3] == EClass(1)
    assert alg.grading == (0, 2, 1, 1)
    assert alg.unit_index == 0


def test_cubic_extended_products():
    alg = build_extended(CUBIC)
    one, h, e0, e1 = range(4)
    # unit row reproduces everything
    for j in range(4):
        assert structure_constants(alg, one, j) == [
            Fraction(i == j) for i in range(4)
        ]
    # the primitive top class squares to zero (weight above the socle)
    assert structure_constants(alg, h, h) == [Fraction(0)] * 4
    # e-classes kill each other and every primitive class
    assert structure_constants(alg, e0, e1) == [Fraction(0)] * 4
    assert structure_constants(alg, e0, e0) == [Fraction(0)] * 4
    assert structure_constants(alg, h, e0) == [Fraction(0)] * 4
    assert structure_constants(alg, e1, one)[e1] == 1


def test_cubic_extended_laws():
    alg = build_extended(CUBIC)
    laws = verify_algebra_laws(alg)
    assert laws == {
        "unital": True,
        "commutative": True,
        "associative": True,
        "graded_ok": True,
    }


def test_quartic_extended_dimension():
    quartic = parse_polynomial("x0^4 + x1^4 + x2^4 + x3^4")
    alg = build_extended(quartic)
    assert alg.dim == 24  # 1 + 19 + 1 primitive classes plus three e's
    # primitive grades 0, 2, 4; the three e-classes all sit in grade n-1 = 2
    assert alg.grading == (0,) + (2,) * 19 + (4,) + (2, 2, 2)
    laws = verify_algebra_laws(alg)
    assert all(laws.values())


def test_label_index_lookup():
    alg = build_extended(CUBIC)
    assert alg.label_index(EClass(1)) == 3
    assert alg.label_index(2) == 2
    with pytest.raises(ValueError):
        alg.label_index(EClass(5))
    with pytest.raises(ValueError):
        alg.label_index(17)


def test_deformed_algebra_hesse_line():
    g = parse_polynomial("x0*x1*x2", 3)
    alg = build_extended_deformed(CUBIC, g)
    assert alg.dim == 4  # two closure classes plus two e's
    assert alg.grading is None
    # the closure basis starts at the unit
    assert alg.unit_index == 0
    laws = verify_algebra_laws(alg)
    assert laws["unital"] and laws["commutative"] and laws["associative"]
    # the weight-3 generator squares into the socle and that lands at zero
    # here: x0*x1*x2 times itself has weight 6, above the cubic socle
    assert structure_constants(alg, 1, 1) == [Fraction(0)] * 4


def test_deformed_algebra_exact_control():
    g = parse_polynomial("x0^6", 3)
    alg = build_extended_deformed(CUBIC, g)
    assert alg.dim == 8
    laws = verify_algebra_laws(alg)
    assert laws["unital"] and laws["commutative"] and laws["associative"]
    # products stay inside the closure span by construction; a few spot
    # checks on nilpotency of the deeper classes
    top = alg.dim - 2 - 1  # last closure class before the e's
    assert structure_constants(alg, top, top) == [Fraction(0)] * alg.dim


def test_dimension_equality_verdicts():
    hesse = verify_dimension_equality(
        CUBIC, parse_polynomial("x0*x1*x2", 3)
    )
    assert hesse == {"dim_extended": 4, "dim_deformed": 4, "equal": True}
    control = verify_dimension_equality(
        CUBIC, parse_polynomial("x0^6", 3)
    )
    assert control == {"dim_extended": 4, "dim_deformed": 8, "equal": False}


def test_json_shape():
    alg = build_extended(CUBIC)
    blob = to_json_dict(alg)
    assert blob["dim"] == 4
    assert blob["basis"][0] == "[1]"
    assert blob["basis"][2] == "e_0"
    assert blob["grading"] == [0, 2, 1, 1]
    for i, j, k, c in blob["products"]:
        assert i <= j
        num, den = c.split("/")
        assert int(den) != 0
        assert int(num) != 0
    # unit products are present
    assert [0, 1, 1, "1/1"] in blob["products"]


def test_json_grading_absent_for_deformed():
    g = parse_polynomial("x0^6", 3)
    alg = build_extended_deformed(CUBIC, g)
    blob = to_json_dict(alg)
    assert blob["grading"] is None
    assert blob["dim"] == 8
    assert len(blob["basis"]) == 8


# -- the product tables against a normal form of every ordered pair ----------

DENSE_QUARTIC = (
    "x0^4 + x1^4 + x2^4 + x3^4 + 2*x0^2*x1*x2 - x1*x2*x3^2 + 3*x0*x1*x2*x3"
    " - x0^2*x3^2 + x1^3*x3 - 2*x0*x2^3 + x0*x1^2*x3 - 3*x2^2*x3^2"
    " + x0*x1*x2^2 + 2*x1^2*x2*x3")
GRADED_ORACLE_FORMS = {
    "fermat_cubic": "x0^3 + x1^3 + x2^3",
    "fermat_quartic": "x0^4 + x1^4 + x2^4 + x3^4",
    "dense_quartic": DENSE_QUARTIC,
    "perturbed_quintic": "x0^5 + x1^5 + x2^5 + x3^5 + x4^5 - 3*x0^2*x1*x4^2",
}


def ordered_pair_products(f):
    """Primitive products of R-tilde as build_extended once computed them:
    the normal form of every ordered pair of basis monomials.  The
    reference for the weight-table path."""
    data = graded_quotient(f)
    monos = [mono for k in range(f.nvars - 1)
             for mono in data.primitive_basis(k)]
    index = {mono: i for i, mono in enumerate(monos)}
    return [[{index[mono]: c for mono, c in normal_form(
                Polynomial.monomial(ma) * Polynomial.monomial(mb),
                data.gb).terms.items()}
             for mb in monos] for ma in monos]


@pytest.mark.parametrize("name", sorted(GRADED_ORACLE_FORMS))
def test_graded_products_match_ordered_pair_normal_forms(name):
    f = parse_polynomial(GRADED_ORACLE_FORMS[name])
    alg = build_extended(f)
    expected = ordered_pair_products(f)
    nprim = len(expected)
    assert [row[:nprim] for row in alg.products[:nprim]] == expected
    # the mirrored entry of a computed product is the same dict
    for a in range(nprim):
        for b in range(a, nprim):
            if alg.products[a][b]:
                assert alg.products[b][a] is alg.products[a][b]


@pytest.mark.parametrize("f_text", [
    *GRADED_ORACLE_FORMS.values(),
    "x0^5 + x1^5 + x2^5 + x3^5 + x4^5",
    # a quintic with one term on two variables, as in the moduli benchmark
    "x0^5 + x1^5 + x2^5 + x3^5 + x4^5 - 3*x1^2*x3^3",
])
def test_graded_shape_matches_the_product_table(f_text):
    from jmoduli.extended import extended_from_quotient, graded_shape

    f = parse_polynomial(f_text)
    data = graded_quotient(f)
    alg = extended_from_quotient(data)
    shape = graded_shape(data.r_dims)
    assert shape == alg.grading
    assert len(shape) == alg.dim


def test_one_variable_form_has_no_extended_algebra():
    from jmoduli.extended import extended_from_quotient, graded_shape

    # n = 0: no primitive class, so no unit to build a product table on
    f = parse_polynomial("x0^3")
    with pytest.raises(SingularInputError) as info:
        build_extended(f)
    assert "\n" not in str(info.value)
    with pytest.raises(SingularInputError):
        extended_from_quotient(graded_quotient(f))
    with pytest.raises(SingularInputError, match="one variable"):
        build_extended_deformed(f, Polynomial.zero(1))
    assert graded_shape(graded_quotient(f).r_dims) == ()


def test_dense_quartic_extended_laws():
    alg = build_extended(parse_polynomial(DENSE_QUARTIC))
    assert verify_algebra_laws(alg) == {
        "unital": True,
        "commutative": True,
        "associative": True,
        "graded_ok": True,
    }


@pytest.mark.parametrize("f_text,g_text", [
    ("x0^3 + x1^3 + x2^3", "x0*x1*x2"),
    ("x0^3 + x1^3 + x2^3", "x0^6"),
    ("x0^4 + x1^4 + x2^4 + x3^4", "x0*x1*x2*x3"),
])
def test_deformed_products_match_ordered_pair_normal_forms(f_text, g_text):
    f = parse_polynomial(f_text)
    g = parse_polynomial(g_text, f.nvars)
    alg = build_extended_deformed(f, g)
    data = deformed_subalgebra(f, g)
    index = {mono: i for i, mono in enumerate(standard_monomials(data.gb))}
    span = Span(len(index), track_original=True)
    for b in data.basis:
        span.add({index[m]: c for m, c in b.terms.items()})
    for a, pa in enumerate(data.basis):
        for b, pb in enumerate(data.basis):
            nf = normal_form(pa * pb, data.gb)
            expansion = span.expand({index[m]: c for m, c in nf.terms.items()})
            want = {x: c for x, c in enumerate(expansion) if c}
            assert alg.products[a][b] == want


# the Buchberger counters are those of J_(f+g): f + g is homogeneous in
# the first case, so the Hilbert drive runs, and not in the second
@pytest.mark.parametrize("f_text,g_text,counters", [
    ("x0^3 + x1^3 + x2^3", "x0*x1*x2",
     {"pairs": 15, "skipped_criteria": 7, "skipped_hilbert": 4,
      "zero_reductions": 1, "basis_len": 6, "divisor_memo": 6,
      "memo_rows": 21, "closure_products": 20, "closure_distinct": 20,
      "closure_dim": 2, "table_products": 3, "table_distinct": 3}),
    ("x0^4 + x1^4 + x2^4 + x3^4", "x0^8",
     {"pairs": 6, "skipped_criteria": 6, "skipped_hilbert": 0,
      "zero_reductions": 0, "basis_len": 4, "divisor_memo": 0,
      "memo_rows": 413, "closure_products": 2730, "closure_distinct": 698,
      "closure_dim": 48, "table_products": 1176, "table_distinct": 375}),
])
def test_deform_stage_counters(f_text, g_text, counters):
    from jmoduli.extended import extended_from_closure
    from jmoduli.stats import Stats

    f = parse_polynomial(f_text)
    g = parse_polynomial(g_text, f.nvars)
    stats = Stats()
    data = deformed_subalgebra(f, g, stats=stats)
    alg = extended_from_closure(data, stats=stats)
    assert stats.counters == counters
    assert data.dim == counters["closure_dim"]
    # the counters are optional and change nothing
    plain = deformed_subalgebra(f, g)
    assert (plain.basis, plain.generators_nf) == (data.basis, data.generators_nf)
    assert extended_from_closure(plain).products == alg.products


# -- the command's deadline binds inside the closure and the products --------

def test_passed_deadline_stops_the_closure(monkeypatch):
    import time

    import jmoduli.groebner as groebner
    import jmoduli.jacobian as jacobian
    from jmoduli import BudgetExceeded

    # Buchberger and the staircase run to the end without the deadline;
    # the closure gets it
    real_gb = jacobian.jacobian_gb
    monkeypatch.setattr(jacobian, "jacobian_gb",
                        lambda f, max_pairs, deadline, stats:
                        real_gb(f, max_pairs))
    real_std = groebner.standard_monomials
    monkeypatch.setattr(groebner, "standard_monomials",
                        lambda gb, deadline: real_std(gb))
    g = parse_polynomial("x0*x1*x2", 3)
    with pytest.raises(BudgetExceeded, match="closure|normal forms"):
        deformed_subalgebra(CUBIC, g, deadline=time.perf_counter() - 1)


def test_passed_deadline_stops_the_products():
    import time

    from jmoduli import BudgetExceeded
    from jmoduli.extended import extended_from_closure, extended_from_quotient

    graded = graded_quotient(CUBIC)
    deformed = deformed_subalgebra(CUBIC, parse_polynomial("x0^6", 3))
    for data, stage in ((graded, extended_from_quotient),
                        (deformed, extended_from_closure)):
        stage(data)  # fine without a deadline
        data.quotient.deadline = time.perf_counter() - 1
        with pytest.raises(BudgetExceeded, match="products"):
            stage(data)


def test_product_table_rejects_a_basis_that_is_not_closed_or_independent():
    from dataclasses import replace

    from jmoduli.extended import extended_from_closure

    data = deformed_subalgebra(CUBIC, parse_polynomial("x0*x1*x2", 3))
    one, x0 = data.basis[0], Polynomial.variable(3, 0)
    # x0 * x0 = -x1*x2/3 in S/J_(f+g), outside the span of 1 and x0
    with pytest.raises(RuntimeError, match="left the .*span"):
        extended_from_closure(replace(data, basis=(one, x0)))
    with pytest.raises(RuntimeError, match="linearly dependent"):
        extended_from_closure(
            replace(data, basis=(*data.basis, one.scale(2))))
