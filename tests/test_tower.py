"""One semigroup, one generator set and no power tower per job.

The semigroup of a section space comes from subduction with its minimal
generators, and the canonical lifts of a presentation come from the same
subduction; abstract and hand-built semigroups find their generators by a
membership test run once per semigroup.  Both are compared with the paths
they replaced: the product_space loop for the slices, and the sumset
generators and iterated-sumset generation report of tests/oracles.py, over
random generator sets, random hand-built slices and every section fixture
over Q and F_32003.  No command makes a product_space call.
"""

import dataclasses
import json
import sys
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okv import cli, spaces
from okv.degeneration import (
    build_presentation,
    degenerate_section_space,
    run_degeneration,
)
from okv.errors import ResourceCapError, ValidationError
from okv.jobs import fixture_names, load_fixture
from okv.polynomials import parse_polynomial
from okv.polytopes import convex_hull, lattice_points
from okv.semigroups import (
    GradedSemigroup,
    build_gamma,
    check_degree_one_generation,
    gamma_from_generators,
    gamma_from_slices,
    minimal_generators,
)

from oracles import (
    oracle_degree_one_generation,
    oracle_minimal_generators,
    product_loop_slices,
    sumset,
)

SECTION_FIXTURES = [n for n in fixture_names() if not load_fixture(n).is_abstract]
DEGREES = {"bott-samelson-u": 4, "bott-samelson-m": 3, "counterexample-p1xp1": 6}


def assert_matches_oracles(gamma):
    slices = [set(s) for s in gamma.slices]
    assert minimal_generators(gamma) == oracle_minimal_generators(slices)
    report = check_degree_one_generation(gamma)
    assert (report.status, report.witness) == oracle_degree_one_generation(slices)
    assert report.checked_degree == gamma.max_degree


def section_job(name, field):
    job = load_fixture(name, DEGREES.get(name, 3))
    if field != "Q":
        job = dataclasses.replace(job, field_spec={"Fp": 32003})
    return job


@st.composite
def generator_sets(draw):
    dim = draw(st.integers(1, 3))
    point = st.tuples(
        st.integers(1, 3), st.tuples(*[st.integers(0, 4) for _ in range(dim)])
    )
    return draw(st.lists(point, min_size=1, max_size=5)), draw(st.integers(1, 5))


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_generators_and_generation_match_sumset_oracles(case):
    gens, max_degree = case
    gamma = gamma_from_generators(gens, max_degree)
    assert_matches_oracles(gamma)
    assert gamma_from_slices(gamma.slices, gamma.dim) == gamma


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), max_size=5), min_size=1, max_size=4))
def test_gamma_from_slices_closure_matches_brute_force(raw):
    slices = [{(0,)}] + [{(v,) for v in s} for s in raw]
    closed = all(
        sumset(slices[a], slices[b]) <= slices[a + b]
        for a in range(1, len(slices))
        for b in range(a, len(slices) - a)
    )
    if not closed:
        with pytest.raises(ValidationError, match="not closed under addition"):
            gamma_from_slices(slices, 1)
        return
    assert_matches_oracles(gamma_from_slices(slices, 1))


def test_gamma_from_slices_rejects_non_closed_slices():
    with pytest.raises(ValidationError, match="not closed under addition"):
        gamma_from_slices([{(0,)}, {(0,), (1,)}, {(0,), (1,)}], 1)
    with pytest.raises(ValidationError, match="not closed under addition"):
        gamma_from_slices([{(0, 0)}, {(1, 0)}, {(2, 0)}, {(3, 1)}], 2)


@pytest.mark.parametrize("field", ["Q", "F32003"])
@pytest.mark.parametrize("name", SECTION_FIXTURES)
def test_section_fixtures_match_product_loop_and_oracles(name, field):
    job = section_job(name, field)
    space = job.section_space()
    gamma = build_gamma(space, job.max_degree)
    assert list(gamma.slices) == product_loop_slices(space, job.max_degree)
    assert_matches_oracles(gamma)


@pytest.mark.parametrize("max_degree, relation_degree", [(2, 4), (3, 2), (2, None)])
def test_degenerate_reads_one_tower_like_two_builds(
    counterexample_space, max_degree, relation_degree
):
    report = degenerate_section_space(
        counterexample_space, max_degree, relation_degree
    )
    presentation = build_presentation(counterexample_space, max_degree)
    depth = relation_degree or 2 * max(presentation.grades)
    gamma = build_gamma(counterexample_space, max(max_degree, depth))
    assert report == run_degeneration(presentation, gamma, depth)


def count_product_spaces(monkeypatch):
    """Count product_space calls made through any okv module."""
    calls = []
    original = spaces.product_space

    def counting(*args, **kwargs):
        calls.append(args[0].grade + args[1].grade)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "okv" or name.startswith("okv.")) and getattr(
            module, "product_space", None
        ) is original:
            monkeypatch.setattr(module, "product_space", counting)
    return calls


def section_command(command, what, fixture, max_degree=4, **overrides):
    return pytest.param(command, what, fixture, max_degree, overrides,
                        id=f"{command}-{what}-{fixture}")


@pytest.mark.parametrize("command, what, fixture, max_degree, overrides", [
    section_command("semigroup", None, "bott-samelson-u"),
    section_command("semigroup", None, "counterexample-p1xp1"),
    section_command("body", None, "bott-samelson-m"),
    section_command("degenerate", None, "bott-samelson-u", 6, relation_degree=2),
    # generators up to degree 4, each lifted by the subduction
    section_command("degenerate", None, "counterexample-p1xp1", relation_degree=6),
    section_command("check", "normality", "counterexample-p1xp1"),
    section_command("check", "restriction", "bott-samelson-u", restriction_index=1),
    section_command("check", "compatibility", "bott-samelson-u", None,
                    subsystem=("1", "x", "y", "z")),
])
def test_section_commands_make_no_product_space_call(
    monkeypatch, command, what, fixture, max_degree, overrides
):
    calls = count_product_spaces(monkeypatch)
    job = dataclasses.replace(load_fixture(fixture, max_degree), **overrides)
    cli.run(command, job, what)
    assert calls == []


def test_lifts_stay_inside_the_monomial_cap_of_the_semigroup(capsys):
    # the lifts fit in a cap that the power spaces V^m do not (391 terms > 300)
    argv = ["degenerate", "--fixture", "counterexample-p1xp1",
            "--max-degree", "6", "--relation-degree", "6"]
    assert cli.main(argv) == 0
    uncapped = json.loads(capsys.readouterr().out)
    assert cli.main(argv + ["--cap-monomials", "300"]) == 0
    capped = json.loads(capsys.readouterr().out)
    assert capped["job"].pop("cap_monomials") == 300
    uncapped["job"].pop("cap_monomials")
    assert capped == uncapped


def count_generator_searches(monkeypatch):
    """Record the truncation degree of every membership search for generators."""
    runs = []
    find = GradedSemigroup.__dict__["generators"].func

    def counting(semigroup):
        runs.append(semigroup.max_degree)
        return find(semigroup)

    prop = cached_property(counting)
    prop.__set_name__(GradedSemigroup, "generators")
    monkeypatch.setattr(GradedSemigroup, "generators", prop)
    return runs


def test_semigroup_command_finds_generators_once(monkeypatch):
    # subduction hands its generators to the semigroup: no search runs
    runs = count_generator_searches(monkeypatch)
    cli.run("semigroup", load_fixture("counterexample-p1xp1", 4))
    assert runs == []


def test_abstract_semigroup_command_searches_generators_once(monkeypatch):
    runs = count_generator_searches(monkeypatch)
    cli.run("semigroup", load_fixture("elliptic-bad", 4))
    assert runs == [4]


def test_generator_closure_checks_the_cap_before_a_degree():
    gens = [(1, (0, 0)), (1, (400, 0)), (1, (0, 400))]
    assert len(gamma_from_generators(gens, 2, cap_monomials=9).slice(2)) == 6
    with pytest.raises(ResourceCapError, match="in degree 3: 18 > 17"):
        gamma_from_generators(gens, 3, cap_monomials=17)


def test_lattice_scan_checks_the_box_before_scanning():
    triangle = convex_hull([(0, 0), (400, 0), (0, 400)])
    with pytest.raises(ResourceCapError, match="lattice scan box: 641601 > 10"):
        lattice_points(triangle, 2, cap_monomials=10)
    small = convex_hull([(0, 0), (2, 0), (0, 2)])
    assert len(lattice_points(small, 1, cap_monomials=9)) == 6


def test_power_expansion_stops_at_the_cap():
    variables = ("x", "y")
    with pytest.raises(ResourceCapError, match="expanding a power: 15 > 10"):
        parse_polynomial("(x+y+1)^60", variables, cap_monomials=10)
    square = parse_polynomial("(x+y+1)^2", variables, cap_monomials=6)
    assert square == parse_polynomial("(x+y+1)^2", variables)
    assert len(square.terms) == 6
