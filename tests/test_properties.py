"""Invariant suites: valuation axioms, sumset closure, exactness, determinism.

These run standalone and complement the example-pinned tests.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okv.cli import run
from okv.jobs import load_fixture
from okv.polynomials import Polynomial, parse_polynomial
from okv.polytopes import convex_hull
from okv.report import Slices, render_text, scalar_str, to_json
from okv.semigroups import (
    GradedSemigroup,
    _Packing,
    build_gamma,
    gamma_from_generators,
    okounkov_body_estimate,
)
from okv.spaces import product_space, reduce_to_basis
from okv.valuation import nu, nu_image

from oracles import nu_prefix_image, oracle_in_hull, oracle_unpack, sumset
from test_subduction import section_spaces

VARS2 = ("x", "y")


def coefficients():
    return st.fractions(
        min_value=-9, max_value=9, max_denominator=7
    ).filter(lambda f: f != 0)


def exponents(dim=2, bound=5):
    return st.tuples(*(st.integers(0, bound) for _ in range(dim)))


@st.composite
def polynomials(draw, dim=2, max_terms=5):
    n = draw(st.integers(1, max_terms))
    coeffs = {}
    for _ in range(n):
        coeffs[draw(exponents(dim))] = draw(coefficients())
    return Polynomial.from_dict(VARS2[:dim], coeffs)


@given(polynomials(), polynomials())
def test_valuation_multiplicative(f, g):
    assert nu(f * g) == tuple(
        a + b for a, b in zip(nu(f), nu(g))
    )


@given(polynomials(), polynomials())
def test_valuation_superadditive_on_sums(f, g):
    total = f + g
    if total.is_zero:
        return
    low = min(nu(f), nu(g))
    assert nu(total) >= low
    if nu(total) > low:
        assert nu(f) == nu(g)


@given(
    st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), st.integers(1, 9), min_size=1, max_size=5),
    st.permutations(("x", "y", "z")),
)
def test_the_flag_is_the_declared_variable_order(terms, order):
    # terms are exponent vectors over (x, y, z); parsing over a permuted
    # variable list permutes every exponent vector the same way
    text = " + ".join(f"{c}*x^{a}*y^{b}*z^{e}" for (a, b, e), c in terms.items())
    positions = ["xyz".index(v) for v in order]
    expected = min(tuple(exp[i] for i in positions) for exp in terms)
    assert nu(parse_polynomial(text, order)) == expected


@given(st.lists(polynomials(), min_size=1, max_size=6))
def test_reduction_idempotent_property(polys):
    space = reduce_to_basis(polys, variables=VARS2)
    assert reduce_to_basis(space.basis, variables=VARS2).basis == space.basis


@given(st.lists(polynomials(), min_size=1, max_size=5))
def test_image_size_equals_dimension_property(polys):
    space = reduce_to_basis(polys, variables=VARS2)
    assert len(nu_image(space)) == space.dimension


@given(st.lists(polynomials(), min_size=1, max_size=4), st.lists(polynomials(), min_size=1, max_size=4))
def test_image_superadditivity(ps, qs):
    a = reduce_to_basis(ps, variables=VARS2)
    b = reduce_to_basis(qs, variables=VARS2)
    if a.is_zero or b.is_zero:
        return
    prod = product_space(a, b)
    lhs = sumset(nu_image(a), nu_image(b))
    assert lhs <= nu_image(prod)


@given(st.fractions(max_denominator=50).filter(lambda f: f != 0))
def test_rational_arithmetic_exact(q):
    assert q * (1 / q) == 1


def test_prefix_image_extremes(counterexample_space):
    assert nu_prefix_image(counterexample_space, 2) == nu_image(counterexample_space)
    assert nu_prefix_image(counterexample_space, 0) == {()}


def test_gamma_slices_superadditive(counterexample_space):
    gamma = build_gamma(counterexample_space, 4)
    for a in range(1, 4):
        for b in range(1, 4 - a + 1):
            assert sumset(gamma.slice(a), gamma.slice(b)) <= set(gamma.slice(a + b))


def test_body_estimate_monotone(counterexample_space):
    small = okounkov_body_estimate(build_gamma(counterexample_space, 1))
    large = okounkov_body_estimate(build_gamma(counterexample_space, 2))
    assert all(large.contains(v) for v in small.vertices)


def test_gamma_slice_counts_match_power_dimensions(counterexample_space):
    gamma = build_gamma(counterexample_space, 3)
    power = counterexample_space
    for m in range(1, 4):
        if m > 1:
            power = product_space(power, counterexample_space)
        assert len(gamma.slice(m)) == power.dimension


def test_random_points_classified_identically_by_both_representations():
    rng = random.Random(5)
    gamma = gamma_from_generators([(1, (0, 0)), (1, (3, 1)), (1, (1, 0)), (1, (0, 1))], 2)
    body = okounkov_body_estimate(gamma)
    generators = [(0, 0), (3, 1), (1, 0), (0, 1)]
    for _ in range(300):
        p = (
            Fraction(rng.randint(-2, 8), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 4), rng.randint(1, 3)),
        )
        assert body.contains(p) == oracle_in_hull(p, generators)


def test_repeated_runs_byte_identical():
    job = load_fixture("counterexample-p1xp1")
    blobs = {
        json.dumps(run("semigroup", job), sort_keys=False, default=list) for _ in range(3)
    }
    assert len(blobs) == 1
    job2 = load_fixture("elliptic-good")
    blobs2 = {json.dumps(run("degenerate", job2), sort_keys=False, default=list)
              for _ in range(3)}
    assert len(blobs2) == 1


def test_scalar_string_round_trip():
    rng = random.Random(17)
    for _ in range(200):
        q = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        assert Fraction(scalar_str(q)) == q


@st.composite
def packed_vectors(draw):
    """(dim, bound, vectors) with dim in 0..4, bound in 1..50 and every
    coordinate in [-bound, bound], the extremes drawn often."""
    dim, bound = draw(st.integers(0, 4)), draw(st.integers(1, 50))
    coordinate = st.integers(-bound, bound) | st.sampled_from([-bound, bound])
    return dim, bound, draw(st.lists(st.tuples(*[coordinate] * dim), max_size=8))


@given(packed_vectors())
def test_packing_unpack_matches_a_scalar_decoder(case):
    dim, bound, vectors = case
    packing = _Packing(dim, bound)
    packed = [packing.pack(u) for u in vectors]
    assert [oracle_unpack(p, dim, bound) for p in packed] == vectors
    assert list(packing.unpack(packed)) == vectors
    assert frozenset(packing.unpack(set(packed))) == frozenset(vectors)
    keys = dict.fromkeys(packed)
    assert dict(zip(packing.unpack(keys), keys)) == dict(zip(vectors, packed))


@given(packed_vectors())
def test_sorted_packed_ints_decode_to_sorted_vectors(case):
    """Int order is lex order, negative coordinates included, so a slice kept
    as sorted packed ints decodes to its sorted rows."""
    dim, bound, vectors = case
    packing = _Packing(dim, bound)
    assert list(packing.unpack(sorted(map(packing.pack, vectors)))) == sorted(vectors)


@st.composite
def graded_generators(draw):
    """(generators, max_degree): one generator of degree 1 and up to three of
    degree 1 or 2, in one to three coordinates in -3..3, and a truncation
    degree of 1 to 3."""
    value = st.tuples(*[st.integers(-3, 3)] * draw(st.integers(1, 3)))
    first = (1, draw(value))
    rest = draw(st.lists(st.tuples(st.integers(1, 2), value), max_size=3))
    return [first, *rest], draw(st.integers(1, 3))


@given(graded_generators(), st.integers(1, 40))
def test_semigroup_equality_holds_across_a_repack(case, extra):
    """Semigroups compare by their values, not by their packed ints: the same
    slices packed in a wider base are equal (with an equal hash), and dropping
    one point is not."""
    gens, max_degree = case
    gamma = gamma_from_generators(gens, max_degree)
    wider = _Packing(gamma.dim, gamma._packing.bound + extra)
    packed = [sorted(map(wider.pack, gamma.rows(m))) for m in range(max_degree + 1)]
    repacked = GradedSemigroup(gamma.dim, max_degree, wider, tuple(packed), gamma.generators)
    assert repacked == gamma and hash(repacked) == hash(gamma)
    assert repacked.slices == gamma.slices
    packed[max_degree] = packed[max_degree][1:]
    fewer = GradedSemigroup(gamma.dim, max_degree, wider, tuple(packed), gamma.generators)
    assert fewer != gamma


# Report leaves: big and negative ints, the three literals, and strings that
# need escaping (quotes, backslashes, control and non-ASCII characters, lone
# surrogates).
big_ints = st.integers(-(2**70), 2**70) | st.sampled_from([2**64 + 1, -(2**64)])
report_leaves = (
    big_ints
    | st.sampled_from([True, False, None])
    | st.text(st.characters() | st.sampled_from('"\\\n\t\x00\x7fé\U0001f600\ud800'))
)


def _list_or_tuple(rows):
    return rows | rows.map(tuple)


# Lists of int tuples of one non-zero length, the shape of a normality check's
# `missing` points or a valuation image, which `to_json` writes by its general
# path (a semigroup's slices are a `Slices` value, tested apart).
int_rows = _list_or_tuple(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[big_ints] * n), min_size=1, max_size=5)
))


@st.composite
def int_row_near_misses(draw):
    """Int rows spoilt so that they must take the general path: a bool in one
    row, one row longer than the rest, or every row empty."""
    rows = draw(st.integers(1, 3).flatmap(
        lambda n: st.lists(st.tuples(*[big_ints] * n), min_size=2, max_size=5)
    ))
    i = draw(st.integers(0, len(rows) - 1))
    spoil = draw(st.sampled_from(["bool", "ragged", "empty"]))
    if spoil == "bool":
        row = list(rows[i])
        row[draw(st.integers(0, len(row) - 1))] = draw(st.booleans())
        rows[i] = tuple(row)
    elif spoil == "ragged":
        rows[i] += (draw(big_ints),)
    else:
        rows = [()] * len(rows)
    return draw(st.sampled_from([list, tuple]))(rows)


report_values = st.recursive(
    report_leaves | int_rows | int_row_near_misses(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@given(report_values)
def test_to_json_matches_json_dumps_indent_2(value):
    assert to_json(value) == json.dumps(value, indent=2)


def _as_lists(value):
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    return value


@given(st.dictionaries(st.text(max_size=4), report_values, max_size=4))
def test_render_text_treats_a_tuple_as_a_list(report):
    assert render_text(report) == render_text(_as_lists(report))


@pytest.mark.parametrize(
    "value",
    [1.5, Fraction(1, 2), {1, 2}, {1: "a"}, [1, 2.0], {"a": [True, {3}]}, {None: 1}],
    ids=["float", "fraction", "set", "int-key", "float-in-int-list", "nested-set", "none-key"],
)
def test_to_json_rejects_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        to_json(value)


@st.composite
def abstract_semigroups(draw):
    """Semigroups of up to four generators of degree 1 to 3, to degree 0 to 4,
    in dimension 0 to 3, with coordinates in -4..4 or near +-10**6 (a wide
    packing); slice 1 is empty when every generator has degree 2 or more."""
    dim = draw(st.integers(0, 3))
    coordinate = st.integers(-4, 4) | st.sampled_from([10**6, 10**6 - 1, -(10**6), 1 - 10**6])
    gens = draw(st.lists(st.tuples(st.integers(1, 3), st.tuples(*[coordinate] * dim)),
                         max_size=4))
    return gamma_from_generators(gens, draw(st.integers(0, 4)), dim)


def assert_slices_written_as_rows(gamma):
    rows = [list(r) for r in Slices(gamma)]
    assert to_json({"s": Slices(gamma)}) == json.dumps({"s": rows}, indent=2)
    assert render_text({"s": Slices(gamma)}) == render_text({"s": rows})


@given(abstract_semigroups())
@example(gamma_from_generators([], 2, 0))
@example(gamma_from_generators([(1, ())], 2, 0))
@example(gamma_from_generators([(2, (-1,)), (3, (4,))], 4))
@example(gamma_from_generators([(1, (10**6, -(10**6))), (2, (-3, 10**6 - 1))], 3))
def test_slices_are_written_as_their_rows(gamma):
    """`to_json` writes a `Slices` value from the packed slices; the bytes are
    those `json.dumps` gives for the list of its rows."""
    assert_slices_written_as_rows(gamma)


@settings(max_examples=40, deadline=None)
@given(section_spaces())
def test_subduction_slices_are_written_as_their_rows(case):
    space, max_degree = case
    assert_slices_written_as_rows(build_gamma(space, max_degree))


@pytest.mark.parametrize("command, what, fixture", [
    ("nu", None, "counterexample-p1xp1"),
    ("body", None, "bott-samelson-m"),
    ("semigroup", None, "counterexample-p1xp1"),
    ("semigroup", None, "abelian-trapezoid"),
    ("degenerate", None, "elliptic-good"),
    ("check", "normality", "counterexample-p1xp1"),
])
def test_cli_report_json_is_json_dumps_with_default_list(command, what, fixture):
    report = run(command, load_fixture(fixture), what)
    assert to_json(report) == json.dumps(report, indent=2, default=list)
