"""Value semigroups and canonical lifts by degree-truncated subduction.

`build_gamma` finds a section space's semigroup and its minimal generators
by subduction, and `Subduction.lift` lifts each generator, with no power
space built.  They are compared with the paths they replaced, the valuation
image of every power space (`product_loop_slices`) and the reduced basis of
every power space (`oracle_lifts`), and with the sumset oracles of
tests/oracles.py, on random small section spaces in two and three variables
over Q and F_32003 and on every section fixture.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okv.errors import ResourceCapError, ValidationError
from okv.fields import QQ, PrimeField
from okv.jobs import fixture_names, load_fixture
from okv.polynomials import Polynomial, parse_polynomial
from okv.polytopes import RationalPolytope
from okv.semigroups import (
    Subduction,
    _closure,
    build_gamma,
    check_degree_one_generation,
    gamma_from_generators,
    minimal_generators,
    okounkov_body_estimate,
)
from okv.spaces import SectionSpace, reduce_to_basis

from oracles import (
    oracle_components,
    oracle_degree_one_generation,
    oracle_lifts,
    oracle_minimal_generators,
    oracle_spair_counts,
    oracle_sumset_slices,
    product_loop_slices,
)

FIELDS = {"Q": QQ, "F32003": PrimeField(32003)}


@st.composite
def section_spaces(draw):
    """(space, max_degree): two to five sections of up to three terms."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    variables = ("x", "y", "z")[: draw(st.integers(2, 3))]
    exponent = st.tuples(*[st.integers(0, 3) for _ in variables])
    coefficient = st.sampled_from([1, -1, 2, 3, -5, 7])
    sections = draw(st.lists(
        st.dictionaries(exponent, coefficient, min_size=1, max_size=3), min_size=2, max_size=5
    ))
    polys = [Polynomial.from_dict(variables, {e: field(c) for e, c in s.items()})
             for s in sections]
    return reduce_to_basis(polys), draw(st.integers(2, 4))


def assert_lifts_match_oracle(ring, space, gamma):
    lifts = [ring.lift(m, u) for m, u in gamma.generators]
    assert lifts == oracle_lifts(space, gamma.generators)


def check_against_oracles(space, max_degree):
    ring = Subduction(space)
    gamma = ring.semigroup(max_degree)
    assert_lifts_match_oracle(ring, space, gamma)
    slices = product_loop_slices(space, max_degree)
    assert list(gamma.slices) == slices
    assert minimal_generators(gamma) == oracle_minimal_generators(slices)
    report = check_degree_one_generation(gamma)
    assert (report.status, report.witness) == oracle_degree_one_generation(slices)
    return gamma


@settings(max_examples=120, deadline=None)
@given(section_spaces())
@example((reduce_to_basis([parse_polynomial(s, ("x", "y")) for s in
                           ("1", "x", "y + x*y^3", "x*y")]), 4))
def test_subduction_matches_power_spaces_and_sumset_oracles(case):
    check_against_oracles(*case)


def test_counterexample_gains_a_generator_in_every_degree():
    space = reduce_to_basis([parse_polynomial(s, ("x", "y")) for s in
                             ("1", "x", "y + x*y^3", "x*y")])
    gamma = check_against_oracles(space, 5)
    assert [m for m, _ in gamma.generators] == [1, 1, 1, 1, 2, 3, 4, 5]


class CountingSubduction(Subduction):
    """Subduction that counts the S-pairs it reduces, per degree."""

    def __init__(self, space):
        self.spairs = Counter()
        super().__init__(space)

    def _subduct(self, m, f):
        self.spairs[m] += 1
        super()._subduct(m, f)


def spairs_against_oracle(space, max_degree):
    ring = CountingSubduction(space)
    gamma = ring.semigroup(max_degree)
    assert dict(ring.spairs) == oracle_spair_counts(gamma)
    return dict(ring.spairs)


@settings(max_examples=120, deadline=None)
@given(section_spaces())
def test_spairs_per_degree_match_the_fibre_components(case):
    spairs_against_oracle(*case)


@pytest.mark.parametrize("field", ["Q", "F32003"])
@pytest.mark.parametrize("name, max_degree, spairs", [
    ("bott-samelson-m", 6, {2: 40}),
    ("bott-samelson-u", 7, {2: 9}),
    ("counterexample-p1xp1", 10, {2: 1, 3: 2, 4: 3, 5: 3, 6: 4, 7: 4, 8: 5, 9: 5, 10: 6}),
])
def test_fixture_spairs_match_the_fibre_components(name, max_degree, spairs, field):
    job = load_fixture(name, max_degree)
    if field != "Q":
        job = job._replace(field_spec={"Fp": 32003})
    assert spairs_against_oracle(job.section_space(), max_degree) == spairs


@st.composite
def neighbour_graphs(draw):
    """(vertices, edges): up to twelve of the bits 0..15, as the generators of a
    fibre, and random edges among them, self-loops included."""
    vertices = draw(st.sets(st.integers(0, 15), min_size=1, max_size=12))
    vertex = st.sampled_from(sorted(vertices))
    return vertices, draw(st.lists(st.tuples(vertex, vertex), max_size=20))


@given(neighbour_graphs())
def test_closure_components_match_a_search_oracle(graph):
    """Grown one at a time from the least generator left, as `_degree` grows
    a split fibre's components, the closures are the graph's components,
    ordered by least member."""
    vertices, edges = graph
    masks = dict.fromkeys(vertices, 0)
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    rest, components = sum(1 << i for i in vertices), []
    while rest:
        components.append(_closure(rest & -rest, rest, masks.__getitem__))
        rest &= ~components[-1]
    assert components == oracle_components(vertices, edges)


@settings(max_examples=40, deadline=None)
@given(section_spaces(), st.integers(0, 3))
def test_resumed_subduction_equals_a_fresh_one(case, first):
    space, max_degree = case
    ring = Subduction(space)
    early = ring.semigroup(min(first, max_degree))
    assert early == build_gamma(space, early.max_degree)
    gamma = ring.semigroup(max_degree + 2)  # past the first packing bound
    fresh_ring = Subduction(space)
    fresh = fresh_ring.semigroup(max_degree + 2)
    assert gamma == fresh and gamma.generators == fresh.generators
    assert ring.semigroup(early.max_degree).generators == early.generators
    lifts = [ring.lift(m, u) for m, u in gamma.generators]
    assert lifts == [fresh_ring.lift(m, u) for m, u in gamma.generators]
    # the power-space oracle only to max_degree: V^(max_degree + 2) can be large
    low = [g for g in gamma.generators if g[0] <= max_degree]
    assert lifts[: len(low)] == oracle_lifts(space, low)


@pytest.mark.parametrize("field", ["Q", "F32003"])
@pytest.mark.parametrize("max_degree", [2, 3, 4, 6])
@pytest.mark.parametrize(
    "name", [n for n in fixture_names() if not load_fixture(n).is_abstract]
)
def test_fixture_lifts_match_power_spaces(name, max_degree, field):
    job = load_fixture(name, max_degree)
    if field != "Q":
        job = job._replace(field_spec={"Fp": 32003})
    space = job.section_space()
    ring = Subduction(space)
    assert_lifts_match_oracle(ring, space, ring.semigroup(max_degree))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
                min_size=1, max_size=4), st.integers(0, 4))
def test_packed_closure_handles_negative_coordinates(gens, max_degree):
    gamma = gamma_from_generators(gens, max_degree)
    assert [set(s) for s in gamma.slices] == oracle_sumset_slices(gens, max_degree)


def test_stored_terms_cap_trips_before_the_candidate_cap():
    variables = ("x", "y")
    space = reduce_to_basis([parse_polynomial(s, variables) for s in
                             ("1", "x", "y + x*y^3*(1+y)^30", "x*y")])
    # degree 2 has 4 * 4 = 16 sumset candidates.  Its one S-pair is 1 * xy
    # (one term, stored: 35 basis terms + 1) less x times a 32-term section,
    # charged at 36 + 1 * 32 before it is multiplied out
    with pytest.raises(ResourceCapError, match="in subduction: 68 > 60"):
        build_gamma(space, 2, cap_monomials=60)
    assert len(build_gamma(space, 2).generators) == 5


def test_lift_charges_the_monomial_cap():
    variables = ("x", "y")
    space = reduce_to_basis([parse_polynomial(s, variables) for s in
                             ("1", "x", "y + x*y^3*(1+y)^3", "x*y")])
    # the semigroup to degree 4 stays within 170 stored terms; tail-reducing
    # the lift of (4, (2, 7)) does not
    ring = Subduction(space, cap_monomials=170)
    gamma = ring.semigroup(4)
    with pytest.raises(ResourceCapError, match="in subduction: 172 > 170"):
        for m, u in gamma.generators:
            ring.lift(m, u)


def test_lift_needs_its_slice_built_first():
    variables = ("x", "y")
    space = reduce_to_basis([parse_polynomial(s, variables) for s in ("1", "x", "y")])
    ring = Subduction(space)
    with pytest.raises(ValidationError, match="before semigroup"):
        ring.lift(1, (1, 0))
    ring.semigroup(1)
    assert ring.lift(1, (1, 0)) == parse_polynomial("x", variables)
    with pytest.raises(ValidationError, match="before semigroup"):
        ring.lift(2, (2, 0))


def test_subduction_rejects_a_basis_without_distinct_monic_pivots():
    variables = ("x", "y")
    for basis in (["2*x", "y"], ["y", "y + x"]):
        space = SectionSpace(variables, tuple(parse_polynomial(s, variables) for s in basis))
        with pytest.raises(ValidationError, match="distinct monic pivots"):
            build_gamma(space, 2)


def test_a_space_in_no_variables_gives_the_point_semigroup():
    # the system restricted to the last flag member lives in no variables
    space = reduce_to_basis([Polynomial.constant((), QQ.one)], variables=())
    gamma = build_gamma(space, 3)
    assert gamma.slices == (frozenset({()}),) * 4
    assert gamma.generators == ((1, ()),)
    assert okounkov_body_estimate(gamma) == RationalPolytope(0, ((),), (), 0)
