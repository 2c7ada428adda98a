"""Polynomial arithmetic, parsing, and printing."""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okv.errors import ResourceCapError, ValidationError
from okv.fields import QQ, FpElement, PrimeField, _is_prime
from okv.polynomials import MAX_NESTING, Polynomial, parse_polynomial


def P(text, variables=("x", "y"), field=QQ):
    return parse_polynomial(text, variables, field)


def test_parse_constant_one():
    p = P("1")
    assert p.terms == (((0, 0), Fraction(1)),)


def test_parse_two_term_section():
    p = P("y + x*y^3")
    assert dict(p.terms) == {(0, 1): Fraction(1), (1, 3): Fraction(1)}


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
    for text in ("x $ y", "1.5*x"):
        with pytest.raises(ValidationError, match="malformed polynomial near"):
            P(text)


def test_parse_rational_literal_and_parentheses():
    p = P("3/2*(x + y)^2")
    assert dict(p.terms) == {
        (2, 0): Fraction(3, 2),
        (1, 1): Fraction(3),
        (0, 2): Fraction(3, 2),
    }


def test_parse_unary_minus():
    assert P("-x + y") == P("y - x")


@pytest.mark.parametrize("text, expected", [
    ("0 + -x^2", {(2, 0): -1}),
    ("2*-x^2", {(2, 0): -2}),
    ("x - -x^2", {(1, 0): 1, (2, 0): 1}),
    ("-x^2", {(2, 0): -1}),
    ("(-x)^2", {(2, 0): 1}),
    ("--x", {(1, 0): 1}),
])
def test_a_sign_binds_looser_than_a_power_wherever_it_stands(text, expected):
    assert dict(P(text).terms) == expected


def test_signs_count_toward_the_nesting_limit():
    assert P("-" * MAX_NESTING + "x") == P("x")
    with pytest.raises(ValidationError, match="nested more than"):
        P("-" * (MAX_NESTING + 1) + "x")


def _expressions():
    """(okv text, the same expression in Python) over x, y, rational literals,
    +, -, *, signs, parentheses and ^ with a literal exponent."""
    atoms = st.one_of(
        st.sampled_from([("x", "x"), ("y", "y")]),
        st.integers(0, 5).map(lambda n: (str(n), f"Fraction({n})")),
        st.tuples(st.integers(0, 5), st.integers(1, 4)).map(
            lambda t: (f"{t[0]}/{t[1]}", f"Fraction({t[0]}, {t[1]})")),
    )

    def extend(inner):
        grouped = inner.map(lambda e: (f"({e[0]})", f"({e[1]})"))
        return st.one_of(
            grouped,
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda t: (f"{t[0][0]} {t[1]} {t[2][0]}", f"{t[0][1]} {t[1]} {t[2][1]}")),
            st.tuples(st.sampled_from("+-"), inner).map(
                lambda t: (t[0] + t[1][0], t[0] + t[1][1])),
            st.tuples(st.one_of(atoms, grouped), st.integers(0, 3)).map(
                lambda t: (f"{t[0][0]}^{t[1]}", f"{t[0][1]}**{t[1]}")),
        )

    return st.recursive(atoms, extend, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_expressions(), st.fractions(max_denominator=7), st.fractions(max_denominator=7))
def test_parse_agrees_with_python_precedence(expression, x, y):
    text, python = expression
    value = sum((c * x ** e[0] * y ** e[1] for e, c in P(text).terms), Fraction(0))
    assert value == eval(python, {"Fraction": Fraction, "x": x, "y": y})


def test_multiply_monomials():
    assert P("x") * P("y") == P("x*y")


def test_multiply_square_expansion():
    # hand expansion: (y + x y^3)^2 = y^2 + 2 x y^4 + x^2 y^6
    sq = P("y + x*y^3").power(2)
    assert dict(sq.terms) == {
        (0, 2): Fraction(1),
        (1, 4): Fraction(2),
        (2, 6): Fraction(1),
    }


@st.composite
def powers(draw):
    """(base, n): a base of at most one term over Q or F_7, often the zero
    polynomial, with n from 0 to 9 (so F_7 coefficients wrap past p)."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    variables = ("x", "y", "z")[: draw(st.integers(1, 3))]
    exponent = tuple(draw(st.integers(0, 4)) for _ in variables)
    coeff = field(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
    return Polynomial.monomial(variables, exponent, coeff), draw(st.integers(0, 9))


@settings(max_examples=150, deadline=None)
@given(powers())
def test_one_term_power_equals_repeated_multiplication(case):
    base, n = case
    one = base.terms[0][1] ** 0 if base else Fraction(1)
    expected = Polynomial.constant(base.variables, one)
    for _ in range(n):
        expected = expected * base
    assert base.power(n) == expected
    assert base.power(n, cap_monomials=1) == expected
    if n and base:
        with pytest.raises(ResourceCapError, match="expanding a power"):
            base.power(n, cap_monomials=0)
    with pytest.raises(ValidationError, match="negative"):
        base.power(-1)


def test_multiply_by_one_is_identity():
    p = P("1 + 2*x - y^2")
    assert p * P("1") == p


def test_multiply_variable_mismatch():
    with pytest.raises(ValidationError, match="variable"):
        P("x") * parse_polynomial("z", ("z",))


def test_cancellation_drops_terms():
    assert dict((P("x + y") - P("y")).terms) == {(1, 0): Fraction(1)}
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


def test_a_long_explicit_sum_parses_in_linear_time():
    n = 4000
    text = " + ".join(f"x^{i}*y" for i in range(n))
    start = time.perf_counter()
    p = P(text)
    assert time.perf_counter() - start < 1
    assert p == Polynomial.from_dict(("x", "y"), {(i, 1): Fraction(1) for i in range(n)})


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_a_signed_sum_equals_its_terms_added_one_at_a_time(field):
    rng = random.Random(23)
    terms = [(rng.choice("+-"), f"{rng.randint(1, 9)}*x^{rng.randint(0, 6)}*y^{rng.randint(0, 2)}")
             for _ in range(200)]
    text = "".join(f" {sign} {term}" for sign, term in terms)
    expected = P("0", ("x", "y"), field)
    for sign, term in terms:
        p = P(term, ("x", "y"), field)
        expected = expected + p if sign == "+" else expected - p
    assert P(text, ("x", "y"), field) == expected


def test_prime_field_coefficients():
    f5 = PrimeField(5)
    p = parse_polynomial("3*x + 7", ("x",), f5)
    assert dict(p.terms) == {(1,): f5(3), (0,): f5(2)}
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
    # each (x + y + z)^2 has 6 terms; a product of two has 6 * 6 = 36 candidate terms
    variables = ("x", "y", "z")
    form = P("x + y + z", variables)
    images = {v: form for v in variables}
    p = P("x^2*y^2*z^2", variables)
    assert p.substitute(images, variables, cap_monomials=90) == form.power(6)
    with pytest.raises(ResourceCapError, match="substituting coordinates: 36 > 10"):
        p.substitute(images, variables, cap_monomials=10)
    with pytest.raises(ResourceCapError, match="expanding a power"):
        P("x^300", variables).substitute(images, variables, cap_monomials=10)


def test_power_and_substitute_of_int_polynomials_stay_exact():
    """The one a power starts from, and the image of a kept variable, are of
    the coefficients' kind: an int polynomial's powers and substitutions have
    int coefficients, equal to those of the same polynomial over Q."""
    p = Polynomial.from_dict(("x",), {(1,): 1, (0,): 2})
    assert str(p.power(2)) == "4 + 4*x + x^2"
    rational = Polynomial.from_dict(("x",), {(1,): Fraction(1), (0,): Fraction(2)})
    images = {"x": Polynomial.from_dict(("x", "y"), {(1, 1): 3, (0, 0): -1})}
    q = Polynomial.from_dict(("x", "y"), {(2, 0): 5, (1, 1): -2, (0, 3): 1})
    results = [p.power(n) for n in range(4)] + [
        q.substitute(images, ("x", "y")),
        q.substitute({}, ("x", "y")),
        q.substitute({"y": images["x"]}, ("x", "y")),
    ]
    for r in results:
        assert r.terms and all(type(c) is int for _, c in r.terms)
    assert results[:4] == [rational.power(n) for n in range(4)]
