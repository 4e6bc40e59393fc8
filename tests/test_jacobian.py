"""Milnor algebras of forms and their deformation closures."""

import itertools

import pytest
from test_groebner import assert_reduced

from jmoduli import (
    Polynomial,
    RingContext,
    SingularDeformationError,
    SingularInputError,
    buchberger,
    deformed_subalgebra,
    graded_quotient,
    is_nonsingular,
    jacobian_gb,
    jacobian_ideal,
    is_zero_dimensional,
    normal_form,
    parse_polynomial,
    render_polynomial,
    weight_of_or_none,
)

CUBIC = parse_polynomial("x0^3 + x1^3 + x2^3")
QUARTIC = parse_polynomial("x0^4 + x1^4 + x2^4 + x3^4")
CTX3 = RingContext(3, 3)
CTX4 = RingContext(4, 4)


def test_jacobian_ideal_lists_partials():
    parts = jacobian_ideal(CUBIC)
    assert [render_polynomial(p) for p in parts] == [
        "3*x0^2",
        "3*x1^2",
        "3*x2^2",
    ]


def test_jacobian_ideal_keeps_zero_partials_in_place():
    f = parse_polynomial("x0^2", 3)
    parts = jacobian_ideal(f)
    assert len(parts) == 3
    assert parts[1].is_zero() and parts[2].is_zero()


def test_nonsingularity():
    assert is_nonsingular(CUBIC, CTX3)
    assert is_nonsingular(QUARTIC, CTX4)
    # x0^3 + x1^3 cuts a singular curve in P^2
    cone = parse_polynomial("x0^3 + x1^3", 3)
    assert not is_nonsingular(cone, CTX3)
    with pytest.raises(ValueError):
        is_nonsingular(parse_polynomial("0 + x0 - x0", 3), CTX3)


def test_jacobian_gb_none_for_constant():
    assert jacobian_gb(parse_polynomial("5", 3)) is None


def test_graded_quotient_cubic():
    data = graded_quotient(CUBIC, CTX3)
    assert data.hilbert == (1, 3, 3, 1)
    assert data.r_dims == (1, 1)
    assert len(data.standard_basis) == 8
    assert data.primitive_basis(1, 3) == [(1, 1, 1)]
    assert data.primitive_basis(0, 3) == [(0, 0, 0)]


def test_graded_quotient_quartic():
    data = graded_quotient(QUARTIC, CTX4)
    assert data.hilbert == (1, 4, 10, 16, 19, 16, 10, 4, 1)
    assert data.r_dims == (1, 19, 1)
    assert sum(data.hilbert) == 81


def test_graded_quotient_rejects_singular():
    with pytest.raises(SingularInputError):
        graded_quotient(parse_polynomial("x0^3 + x1^3", 3), CTX3)


def test_graded_quotient_rejects_wrong_weight():
    with pytest.raises(ValueError):
        graded_quotient(parse_polynomial("x0^4 + x1^4 + x2^4", 3), CTX3)
    with pytest.raises(ValueError):
        graded_quotient(parse_polynomial("x0^3 + x1^2", 3), CTX3)


def test_milnor_duality_cubic_quartic():
    for f, ctx in ((CUBIC, CTX3), (QUARTIC, CTX4)):
        h = graded_quotient(f, ctx).hilbert
        assert h == tuple(reversed(h))




def test_weight_of_or_none():
    assert weight_of_or_none(parse_polynomial("x0*x1 + x2^2", 3)) == 2
    assert weight_of_or_none(parse_polynomial("x0 + x1^2", 2)) is None
    with pytest.raises(ValueError):
        weight_of_or_none(parse_polynomial("x0 - x0", 1))


# -- deformation closures ------------------------------------------------------


def test_homogeneous_deformation_matches_graded_pieces():
    # f + g stays homogeneous, so the closure is the graded image
    g = parse_polynomial("x0*x1*x2", 3)
    data = deformed_subalgebra(CUBIC, g, CTX3)
    assert data.dim == 2
    assert data.stabilized_at == 1
    rendered = [render_polynomial(b) for b in data.basis]
    assert rendered[0] == "1"
    assert len(data.generators_nf) == 1


def test_exact_deformation_closure_hand_computation():
    g = parse_polynomial("x0^6", 3)
    data = deformed_subalgebra(CUBIC, g, CTX3)
    assert data.dim == 6
    assert data.stabilized_at == 2
    rendered = {render_polynomial(b) for b in data.basis}
    assert rendered == {
        "1",
        "x0*x1*x2",
        "x0^2*x2",
        "x0^2*x1",
        "x0^3",
        "x0^4*x1*x2",
    }


def test_closure_verify_extra_steps_passes():
    g = parse_polynomial("x0^6", 3)
    data = deformed_subalgebra(CUBIC, g, CTX3, verify_extra_steps=3)
    assert data.dim == 6


def test_closure_is_inside_deformed_quotient():
    g = parse_polynomial("x0^6", 3)
    data = deformed_subalgebra(CUBIC, g, CTX3)
    fg = CUBIC + g
    gb = buchberger(jacobian_ideal(fg))
    for b in data.basis:
        assert normal_form(b, gb) == b


def test_deformation_weight_must_be_multiple_of_nu():
    with pytest.raises(ValueError):
        deformed_subalgebra(CUBIC, parse_polynomial("x0^4", 3), CTX3)
    with pytest.raises(ValueError):
        deformed_subalgebra(
            CUBIC, parse_polynomial("x0^3 + x1^2", 3), CTX3
        )


def test_singular_deformation_rejected():
    g = parse_polynomial("x1^3 + x2^3", 3) - CUBIC  # f + g = x1^3 + x2^3
    with pytest.raises(SingularDeformationError):
        deformed_subalgebra(CUBIC, g, CTX3)
    with pytest.raises(SingularDeformationError):
        deformed_subalgebra(CUBIC, -CUBIC, CTX3)


def test_zero_deformation_recovers_graded_dimension():
    zero = parse_polynomial("x0^3 - x0^3", 3)
    data = deformed_subalgebra(CUBIC, zero, CTX3)
    assert data.dim == sum(graded_quotient(CUBIC, CTX3).r_dims)


def test_deformed_quotient_mu_jumps_for_higher_weight():
    # raising the deformation weight above nu inflates the Milnor number;
    # the closure tracks images inside that larger quotient
    g = parse_polynomial("x0^2*x1^2*x2^2", 3)
    fg = CUBIC + g
    gb = buchberger(jacobian_ideal(fg))
    assert is_zero_dimensional(gb)
    data = deformed_subalgebra(CUBIC, g, CTX3)
    assert data.dim >= sum(graded_quotient(CUBIC, CTX3).r_dims)


def _ones_below(row, n):
    """P * row for the unitriangular P with ones on and below the diagonal."""
    sums = itertools.accumulate(row.get(i, 0) for i in range(n))
    return {i: c for i, c in enumerate(sums) if c}


def _differences(row, n):
    """P^-1 * row: entry i less entry i - 1."""
    out = {i: row.get(i, 0) - row.get(i - 1, 0) for i in range(n)}
    return {i: c for i, c in out.items() if c}


def test_closure_basis_is_carried_through_a_change_of_basis(monkeypatch):
    # every closure vector of these inputs is one standard monomial; on a
    # Quotient whose rows are P times the true ones it has several terms.
    # Acceptance only sees linear dependence, and P is unimodular, so the
    # twisted run accepts the same products in the same order, and P^-1
    # maps its vectors back onto the plain run's
    import jmoduli.jacobian as jacobian_module

    class Twisted(jacobian_module.Quotient):
        def reduce(self, key):
            row, den = super().reduce(key)
            return _ones_below(row, len(self.standard)), den

        def times(self, row, monos):
            return super().times(_differences(row, len(self.standard)), monos)

    g = parse_polynomial("x0^6", 3)
    plain = deformed_subalgebra(CUBIC, g, CTX3)
    monkeypatch.setattr(jacobian_module, "Quotient", Twisted)
    twisted = deformed_subalgebra(CUBIC, g, CTX3)
    std = twisted.standard_basis

    def untwisted(p):
        coefficients = {i: p.coefficient(m) for i, m in enumerate(std)}
        row = _differences(coefficients, len(std))
        return Polynomial(3, {std[i]: c for i, c in row.items()})

    assert all(len(p.terms) == 1 for p in plain.basis)
    assert sum(len(p.terms) > 1 for p in twisted.basis) == 5
    assert [untwisted(p) for p in twisted.basis] == list(plain.basis)
    assert ([untwisted(p) for p in twisted.generators_nf]
            == list(plain.generators_nf))
    assert twisted.stabilized_at == plain.stabilized_at == 2
    assert twisted.dim == plain.dim == 6


# -- the reduced generators are made only where they are read ----------------


@pytest.fixture
def made_bases(monkeypatch):
    """Every basis jacobian_gb makes, in order."""
    import jmoduli.jacobian as jacobian_module

    made = []

    def recording(*args, **kwargs):
        made.append(buchberger(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(jacobian_module, "buchberger", recording)
    return made


def reduced(gb):
    """Whether the tail reduction ran; if so, it gave a reduced basis."""
    if "generators" not in vars(gb):
        return False
    assert_reduced(gb)
    return True


def test_leads_alone_serve_the_graded_quotient_and_nonsingularity(made_bases):
    data = graded_quotient(QUARTIC, CTX4)
    assert is_nonsingular(CUBIC, CTX3)
    assert len(made_bases) == 2 and data.gb is made_bases[0]
    assert not any(map(reduced, made_bases))


@pytest.mark.parametrize("argv, want", [
    (["check", "x0^3 + x1^3 + x2^3 + x0*x1*x2"], [False]),
    (["moduli", "x0^4 + x1^4 + x2^4 + x3^4 + 2*x0^2*x1*x2"], [False]),
    (["dgla", "x0^3 + x1^3 + x2^3", "--degree", "1", "--weight", "0"],
     [False]),
    # the graded quotient of f, then the closure of f + g, whose minimal
    # basis is not reduced
    (["deform", "x0^3 + x1^3 + x2^3", "x0^3*x1^3*x2^3"], [False, True]),
])
def test_commands_reduce_only_the_bases_they_divide_by(made_bases, capsys,
                                                      argv, want):
    from jmoduli.cli import main

    assert main(argv) == 0
    capsys.readouterr()
    assert [reduced(gb) for gb in made_bases] == want


def test_normal_form_reads_the_reduced_generators():
    gb = jacobian_gb(CUBIC + parse_polynomial("x0^2*x1^2*x2^2", 3))
    assert not reduced(gb)
    normal_form(parse_polynomial("x0^5*x1", 3), gb)
    assert reduced(gb)
    assert list(gb.minimal) != list(gb.integer_generators)


# -- invariant oracles: the complete-intersection series ---------------------

INVARIANT_FORMS = [
    "x0^3 + x1^3 + x2^3",
    "x0^3 + x1^3 + x2^3 + x0*x1*x2",
    "x0^4 + x1^4 + x2^4",  # nu > nvars
    "x0^4 + x1^4 + x2^4 + x3^4",
    "x0^4 + x1^4 + x2^4 + x3^4 + 2*x0^2*x1*x2 - x1*x2*x3^2 + 3*x0*x1*x2*x3"
    " - x0^2*x3^2 + x1^3*x3 - 2*x0*x2^3 + x0*x1^2*x3 - 3*x2^2*x3^2"
    " + x0*x1*x2^2 + 2*x1^2*x2*x3",
    "x0^5 + x1^5 + x2^5 + x3^5 + x4^5 - 3*x1^2*x3^3",
    "x0^5 + x1^5 + x2^5 + x3^5 + x4^5 + 2*x0*x2^3*x4",
]


def ci_series(nvars, nu):
    """Coefficients of ((1 - t^(nu-1)) / (1 - t))^nvars, multiplied out."""
    out = [1]
    for _ in range(nvars):
        out = [sum(out[w - j] for j in range(nu - 1) if 0 <= w - j < len(out))
               for w in range(len(out) + nu - 2)]
    return out


@pytest.mark.parametrize("text", INVARIANT_FORMS)
def test_hilbert_vector_is_the_complete_intersection_series(text):
    from jmoduli import Polynomial

    f = parse_polynomial(text)
    nu = weight_of_or_none(f)
    ctx = RingContext(f.nvars, nu)
    data = graded_quotient(f, ctx)
    assert list(data.hilbert) == ci_series(f.nvars, nu)
    assert len(data.standard_basis) == (nu - 1) ** f.nvars
    closure = deformed_subalgebra(f, Polynomial.zero(f.nvars), ctx)
    assert closure.dim == sum(data.r_dims)
