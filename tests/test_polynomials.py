"""Polynomial arithmetic, parsing, and printing."""

from fractions import Fraction
from math import isqrt

import pytest

from okv.errors import ResourceCapError, ValidationError
from okv.fields import QQ, FpElement, PrimeField, _is_prime
from okv.polynomials import Polynomial, parse_polynomial


def P(text, variables=("x", "y"), field=QQ):
    return parse_polynomial(text, variables, field)


def test_parse_constant_one():
    p = P("1")
    assert p.terms == (((0, 0), Fraction(1)),)


def test_parse_two_term_section():
    p = P("y + x*y^3")
    assert p.as_dict() == {(0, 1): Fraction(1), (1, 3): Fraction(1)}


def test_parse_undeclared_variable_rejected():
    with pytest.raises(ValidationError, match="undeclared"):
        P("x*q")


def test_parse_negative_exponent_rejected():
    with pytest.raises(ValidationError, match="exponent"):
        P("x^-2")


def test_parse_malformed():
    with pytest.raises(ValidationError):
        P("x + + * y")
    with pytest.raises(ValidationError):
        P("(x + y")


def test_parse_rational_literal_and_parentheses():
    p = P("3/2*(x + y)^2")
    assert p.as_dict() == {
        (2, 0): Fraction(3, 2),
        (1, 1): Fraction(3),
        (0, 2): Fraction(3, 2),
    }


def test_parse_unary_minus():
    assert P("-x + y") == P("y - x")


def test_multiply_monomials():
    assert P("x") * P("y") == P("x*y")


def test_multiply_square_expansion():
    # hand expansion: (y + x y^3)^2 = y^2 + 2 x y^4 + x^2 y^6
    sq = P("y + x*y^3") ** 2
    assert sq.as_dict() == {
        (0, 2): Fraction(1),
        (1, 4): Fraction(2),
        (2, 6): Fraction(1),
    }


def test_multiply_by_one_is_identity():
    p = P("1 + 2*x - y^2")
    assert p * P("1") == p


def test_multiply_variable_mismatch():
    with pytest.raises(ValidationError, match="variable"):
        P("x") * parse_polynomial("z", ("z",))


def test_cancellation_drops_terms():
    assert (P("x + y") - P("y")).as_dict() == {(1, 0): Fraction(1)}
    assert (P("x") - P("x")).is_zero


def test_leading_exponent_is_lex_min_first_coordinate_first():
    assert P("x^2*z + x*y", ("x", "y", "z")).leading_exponent() == (1, 1, 0)
    assert P("x*y*z + y^2", ("x", "y", "z")).leading_exponent() == (0, 2, 0)


def test_zero_polynomial_has_no_leading_exponent():
    with pytest.raises(ValidationError):
        Polynomial.zero(("x", "y")).leading_exponent()


def test_print_parse_roundtrip():
    samples = ["0", "1", "-1", "x", "y - x", "3/2*x*y^2 - 7 + y^5", "x^2 - 1/3"]
    for text in samples:
        p = P(text)
        assert P(str(p)) == p


def test_prime_field_coefficients():
    f5 = PrimeField(5)
    p = parse_polynomial("3*x + 7", ("x",), f5)
    assert p.as_dict() == {(1,): f5(3), (0,): f5(2)}
    assert parse_polynomial("1/2", ("x",), f5) == parse_polynomial("3", ("x",), f5)


@pytest.mark.parametrize("text", ["0^0", "(x-x)^0", "0^00", "x^0"])
def test_zeroth_power_is_one_of_the_parser_field(text):
    f7 = PrimeField(7)
    p = parse_polynomial(text, ("x",), f7)
    assert p.terms == (((0,), f7.one),)
    assert isinstance(p.terms[0][1], FpElement)


def test_prime_field_requires_prime():
    with pytest.raises(ValidationError):
        PrimeField(6)


def trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert all(_is_prime(n) == trial_division_is_prime(n) for n in range(10**5))


def test_is_prime_rejects_carmichael_and_strong_pseudoprime():
    assert not _is_prime(561)  # Carmichael: 3 * 11 * 17
    assert not _is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7


def test_substitute_specializes_variables():
    p = P("x*y + y^2")
    image = p.substitute({"x": P("y", ("y",), QQ)}, ("y",))
    assert image == parse_polynomial("2*y^2", ("y",))


def test_substitute_with_a_cap_stops_at_the_first_large_product():
    # each (x + y + z)^2 has 6 terms; the product of two has 15
    variables = ("x", "y", "z")
    form = P("x + y + z", variables)
    images = {v: form for v in variables}
    p = P("x^2*y^2*z^2", variables)
    assert p.substitute(images, variables, cap_monomials=28) == form ** 6
    with pytest.raises(ResourceCapError, match="substituting coordinates: 15 > 10"):
        p.substitute(images, variables, cap_monomials=10)
    with pytest.raises(ResourceCapError, match="expanding a power"):
        P("x^300", variables).substitute(images, variables, cap_monomials=10)


def test_divide_and_drop_first_variable():
    p = P("x^2*y^3 + x^3")
    q = p.divide_first_variable(2)
    assert q == P("y^3 + x")
    assert q.drop_variable() == parse_polynomial("y^3", ("y",))
    with pytest.raises(ValidationError):
        P("x + y").divide_first_variable(1)
