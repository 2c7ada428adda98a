"""Weight vectors, presentations, kernel ideals, Rees families, flatness."""

import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okv import cli, degeneration, echelon
from okv.errors import ValidationError
from okv.fields import QQ
from okv.polynomials import Polynomial, parse_polynomial
from okv.semigroups import gamma_from_generators
from okv.degeneration import (
    Relation,
    RelationSet,
    build_presentation,
    choose_weight_vector,
    default_relation_degree,
    degenerate_section_space,
    degenerate_semigroup,
    flag_restriction_check,
    flatness_report,
    initial_form,
    kernel_ideal_truncated,
    presentation_from_generators,
    rees_relations,
    subsystem_compatibility,
    weight_vector_for,
)
from okv.jobs import load_fixture
from okv.spaces import reduce_to_basis

from oracles import (
    dense_kernel_relations,
    fiber_check,
    modified_flat_key,
    pairwise_gap_alphas,
    preserves_modified_order,
    specialize_rees,
)

ELLIPTIC_GOOD = [(1, (0,)), (1, (1,)), (1, (3,))]


# ---------------------------------------------------------------------------
# Weight vectors.

def test_weight_vector_on_basis_points():
    pi = choose_weight_vector([(0, 0, 0)], dim=2)
    # gap constant 2 from the auto-added basis, so the canonical minimal
    # weights are a2 = 1, a1 = 2*1 + 1, a0 = 2*(3 + 1) + 1
    assert pi.alphas == (9, 3, 1)
    points = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert preserves_modified_order(pi, points)


def test_weight_vector_trivial_input():
    pi = choose_weight_vector([], dim=3)
    assert len(pi.alphas) == 4
    assert pi.weight_flat((0, 0, 0, 0)) == 0


def test_weight_vector_separates_counterexample_degrees():
    pi = choose_weight_vector([(2, 1, 1), (2, 2, 3)], dim=2)
    assert pi.weight_flat((2, 1, 1)) > pi.weight_flat((2, 2, 3))


def test_weight_vector_random_sets_preserve_order():
    rng = random.Random(2024)
    for _ in range(40):
        dim = rng.randint(1, 4)
        pts = {
            tuple(rng.randint(0, 50) for _ in range(dim + 1))
            for _ in range(rng.randint(1, 12))
        }
        pi = choose_weight_vector(pts, dim=dim)
        basis = {tuple(1 if j == i else 0 for j in range(dim + 1)) for i in range(dim + 1)}
        full = pts | basis | {(0,) * (dim + 1)}
        assert preserves_modified_order(pi, full)
        # positive on every order-positive point of the augmented set
        origin_key = modified_flat_key((0,) * (dim + 1))
        for p in full:
            if modified_flat_key(p) > origin_key:
                assert pi.weight_flat(p) > 0


@st.composite
def weight_point_sets(draw):
    dim = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(-40, 40)] * (dim + 1))
    return draw(st.lists(point, max_size=10)), dim


@settings(max_examples=200, deadline=None)
@given(weight_point_sets())
def test_weight_vector_equals_pairwise_gap_loop(case):
    """The gap read off the coordinate ranges is the pairwise-loop gap."""
    points, dim = case
    assert choose_weight_vector(points, dim=dim).alphas == pairwise_gap_alphas(points, dim)


# ---------------------------------------------------------------------------
# Presentations.

def test_presentation_counterexample_generators(counterexample_space):
    pres = build_presentation(counterexample_space, 2)
    assert pres.labels == ("X1", "X2", "X3", "X4", "X5")
    assert pres.degrees == (
        (1, (0, 0)),
        (1, (0, 1)),
        (1, (1, 0)),
        (1, (1, 1)),
        (2, (2, 3)),
    )
    assert pres.generators[4].lift == parse_polynomial("x^2*y^3", ("x", "y"))


def test_presentation_from_abstract_generators():
    pres = presentation_from_generators(ELLIPTIC_GOOD)
    assert pres.labels == ("X1", "X2", "X3")
    assert pres.model_variables == ("s", "t1")
    assert [str(g.lift) for g in pres.generators] == ["s", "s*t1", "s*t1^3"]


def test_presentation_single_generator():
    space = reduce_to_basis([parse_polynomial("x", ("x", "y"))])

    pres = build_presentation(space, 2)
    assert pres.size == 1


# ---------------------------------------------------------------------------
# Kernel ideals.

def expected_counterexample_relation(pres):
    labels = pres.labels
    def mono(**counts):
        exp = tuple(counts.get(lab, 0) for lab in labels)
        return exp
    return Polynomial.from_dict(
        labels,
        {
            mono(X2=1, X3=1): Fraction(1),
            mono(X1=1, X4=1): Fraction(-1),
            mono(X5=1): Fraction(-1),
        },
    )


def test_kernel_counterexample_contains_product_relation(counterexample_space):
    pres = build_presentation(counterexample_space, 2)
    kernel = kernel_ideal_truncated(pres, 2)
    assert len(kernel.relations) == 1
    rel = kernel.relations[0]
    assert rel.poly == expected_counterexample_relation(pres)
    assert rel.degree == (2, (1, 1))
    # the relation really evaluates to zero on the lifts
    lifts = {lab: g.lift for lab, g in zip(pres.labels, pres.generators)}
    assert rel.poly.substitute(lifts, pres.model_variables).is_zero


def test_kernel_elliptic_good_is_principal_cubic():
    pres = presentation_from_generators(ELLIPTIC_GOOD)
    kernel = kernel_ideal_truncated(pres, 3)
    assert len(kernel.relations) == 1
    rel = kernel.relations[0]
    expected = Polynomial.from_dict(
        pres.labels, {(0, 3, 0): Fraction(1), (2, 0, 1): Fraction(-1)}
    )
    assert rel.poly == expected
    assert rel.degree == (3, (3,))


def test_kernel_free_at_low_degree():
    pres = presentation_from_generators([(1, (0,)), (1, (1,))])
    kernel = kernel_ideal_truncated(pres, 4)
    assert kernel.relations == ()


def test_kernel_skips_multiples_of_lower_relations(counterexample_space):
    pres = build_presentation(counterexample_space, 2)
    kernel = kernel_ideal_truncated(pres, 4)
    degrees = [rel.degree[0] for rel in kernel.relations]
    # one fresh binomial generator in degree 3, nothing new in degree 4
    assert degrees == [2, 3]
    fresh = kernel.relations[1]
    expected = Polynomial.from_dict(
        pres.labels, {(0, 0, 0, 3, 0): Fraction(1), (0, 0, 1, 0, 1): Fraction(-1)}
    )
    assert fresh.poly == expected
    lifts = {lab: g.lift for lab, g in zip(pres.labels, pres.generators)}
    assert fresh.poly.substitute(lifts, pres.model_variables).is_zero


@st.composite
def abstract_generator_sets(draw):
    dim = draw(st.integers(1, 2))
    generator = st.tuples(st.integers(1, 2), st.tuples(*[st.integers(0, 5)] * dim))
    return draw(st.lists(generator, min_size=1, max_size=7, unique=True))


@settings(max_examples=100, deadline=None)
@given(abstract_generator_sets(), st.integers(1, 4))
def test_kernel_equals_dense_path_on_random_generators(generators, depth):
    """Fresh relations read off the kernel pivots equal the dense path's
    projection of the kernel away from the multiples of lower relations."""
    pres = presentation_from_generators(generators)
    kernel = kernel_ideal_truncated(pres, depth)
    assert [(r.poly, r.degree) for r in kernel.relations] == dense_kernel_relations(
        pres, depth
    )


def count_echelons(monkeypatch):
    """The names of the functions that build an `Echelon`, in order, and the
    counts of `insert` and `reduce` calls on them."""
    built, calls = [], {"insert": 0, "reduce": 0}

    class Counting(echelon.Echelon):
        def __init__(self):
            super().__init__()
            built.append(sys._getframe(1).f_code.co_name)

        def insert(self, row):
            calls["insert"] += 1
            super().insert(row)

        def reduce(self, row):
            calls["reduce"] += 1
            return super().reduce(row)

    monkeypatch.setattr(echelon, "Echelon", Counting)
    return built, calls


def test_kernel_builds_one_echelon_per_fallback_degree_and_reduces_nothing(monkeypatch):
    """Only the multiples of lower relations are eliminated in each degree the
    binomial certificate leaves open; no kernel vector is reduced against
    them.  On p1xp1 degree 1 has no kernel, so the components settle it;
    degrees 2 and 3 each have a fresh relation, which no count of
    components certifies, so both fall back to the echelon."""
    built, calls = count_echelons(monkeypatch)
    job = load_fixture("counterexample-p1xp1")
    pres = build_presentation(job.section_space(), job.max_degree)
    kernel = kernel_ideal_truncated(pres, 3)
    assert len(kernel.relations) > 0
    assert built.count("kernel_ideal_truncated") == 2
    assert calls["reduce"] == calls["insert"]  # each reduction is an insertion's


def test_monomial_model_builds_no_echelon_and_evaluates_nothing(monkeypatch):
    """With monomial lifts the kernel is read off the fibres and the lower
    relations' multiples off union-find components, in both passes."""
    built, calls = count_echelons(monkeypatch)
    evaluators = []

    class Recording(degeneration._Evaluator):
        def __init__(self, presentation):
            super().__init__(presentation)
            evaluators.append(self)

    monkeypatch.setattr(degeneration, "_Evaluator", Recording)
    job = load_fixture("elliptic-bad")
    report = degenerate_semigroup(job.generator_points(), job.max_degree, job.relation_degree)
    assert len(report.relations.relations) > 0
    assert report.flatness.binomial_initial
    assert built == [] and calls == {"insert": 0, "reduce": 0}
    assert evaluators == []


# ---------------------------------------------------------------------------
# Initial forms, Rees relations, fibers.

def make_counterexample_family(space, depth=4):
    pres = build_presentation(space, 2)
    kernel = kernel_ideal_truncated(pres, depth)
    pi = weight_vector_for(pres, kernel)
    return pres, rees_relations(kernel, pres, pi), pi


def test_initial_form_counterexample(counterexample_space):
    pres, relset, pi = make_counterexample_family(counterexample_space)
    rel = relset.relations[0]
    expected = Polynomial.from_dict(
        pres.labels,
        {
            (0, 1, 1, 0, 0): Fraction(1),
            (1, 0, 0, 1, 0): Fraction(-1),
        },
    )
    assert rel.initial == expected


def test_initial_form_of_monomial_is_itself():
    pres = presentation_from_generators(ELLIPTIC_GOOD)
    kernel = kernel_ideal_truncated(pres, 3)
    pi = weight_vector_for(pres, kernel)
    mono = Polynomial.from_dict(pres.labels, {(1, 1, 0): Fraction(2)})
    assert initial_form(mono, pres, pi) == mono


def test_initial_form_homogeneous_relation_is_itself():
    pres = presentation_from_generators(ELLIPTIC_GOOD)
    kernel = kernel_ideal_truncated(pres, 3)
    pi = weight_vector_for(pres, kernel)
    relset = rees_relations(kernel, pres, pi)
    rel = relset.relations[0]
    assert rel.initial == rel.poly
    assert rel.rees.variables == pres.labels + ("t",)
    # fully homogeneous: the family equation does not involve the parameter
    assert all(exp[-1] == 0 for exp, _ in rel.rees.terms)


def test_rees_specializations(counterexample_space):
    pres, relset, pi = make_counterexample_family(counterexample_space)
    rel = relset.relations[0]
    assert specialize_rees(rel, pres, QQ(1)) == rel.poly
    assert specialize_rees(rel, pres, QQ(0)) == rel.initial
    at_two = specialize_rees(rel, pres, QQ(2))
    deficit = next(exp[-1] for exp, _ in rel.rees.terms if exp[-1])
    assert deficit > 0
    diff = at_two - rel.poly
    # only the non-initial term changes, scaled by 2^deficit - 1
    assert len(diff.terms) == 1


def test_fiber_check_true_and_negative_control(counterexample_space):
    pres, relset, pi = make_counterexample_family(counterexample_space)
    assert fiber_check(relset, pres, pi, QQ(1))
    assert fiber_check(relset, pres, pi, QQ(2))
    corrupted = []
    for rel in relset.relations:
        bumped = {exp[:-1] + (exp[-1] + 1,): c for exp, c in rel.rees.terms}
        corrupted.append(
            Relation(
                rel.poly,
                rel.degree,
                rel.initial,
                rel.weight,
                Polynomial.from_dict(rel.rees.variables, bumped),
            )
        )
    bad = RelationSet(tuple(corrupted), relset.truncation_degree)
    assert not fiber_check(bad, pres, pi, QQ(2))
    with pytest.raises(ValidationError):
        fiber_check(relset, pres, pi, QQ(0))


# ---------------------------------------------------------------------------
# Flatness.

def test_pipeline_caps_are_keyword_only_in_one_order(bott_samelson_space):
    for pipeline in (degenerate_section_space, degenerate_semigroup, subsystem_compatibility):
        params = inspect.signature(pipeline).parameters
        caps = [name for name, p in params.items() if p.kind is p.KEYWORD_ONLY]
        assert caps == ["cap_monomials", "matrix_cap"]
    with pytest.raises(TypeError):
        degenerate_semigroup(ELLIPTIC_GOOD, 3, 3, 10**6)
    with pytest.raises(TypeError):
        degenerate_section_space(bott_samelson_space, 2, 4, 10**6)


def test_flatness_elliptic_good():
    report = degenerate_semigroup(ELLIPTIC_GOOD, 3, relation_degree=3)
    rows = report.flatness.rows
    assert [r.quotient_dim for r in rows] == [1, 3, 6, 9]
    assert [r.initial_quotient_dim for r in rows] == [1, 3, 6, 9]
    assert [r.semigroup_count for r in rows] == [1, 3, 6, 9]
    assert report.flatness.verdict
    assert report.flatness.binomial_initial


def test_flatness_counterexample_full_pipeline(counterexample_space):
    report = degenerate_section_space(
        counterexample_space, 2, relation_degree=4
    )
    assert report.relations.truncation_degree == 4
    assert report.flatness.verdict
    assert report.flatness.binomial_initial
    assert all(w > 0 for w in report.generator_weights)


def test_flatness_negative_control_dropped_generator(counterexample_space):
    """Dropping the degree-two generator shrinks the claimed toric fiber.

    The quotient ring is still ten-dimensional in degree two (the section
    ring is generated in degree one regardless), but the semigroup generated
    by the remaining degrees only reaches nine points there, and the report
    catches the mismatch.
    """
    pres = build_presentation(counterexample_space, 2)
    from okv.degeneration import Presentation

    crippled = Presentation(pres.generators[:4], pres.model_variables, pres.field)
    assert all(m == 1 for m in crippled.grades)
    kernel = kernel_ideal_truncated(crippled, 2)
    pi = weight_vector_for(crippled, kernel)
    enriched = rees_relations(kernel, crippled, pi)
    claimed = gamma_from_generators([g.degree for g in crippled.generators], 2)
    report = flatness_report(crippled, enriched, claimed)
    assert not report.verdict
    degree_two = report.rows[2]
    assert degree_two.quotient_dim == 10
    assert degree_two.semigroup_count == 9


def test_default_relation_degree(counterexample_space):
    pres = build_presentation(counterexample_space, 2)
    assert default_relation_degree(pres) == 4


def test_all_relations_vanish_symbolically(bott_samelson_space):
    report = degenerate_section_space(bott_samelson_space, 2)
    pres = report.presentation
    lifts = {lab: g.lift for lab, g in zip(pres.labels, pres.generators)}
    assert len(report.relations.relations) == 9
    for rel in report.relations.relations:
        assert rel.poly.substitute(lifts, pres.model_variables).is_zero
        assert specialize_rees(rel, pres, QQ(1)) == rel.poly
        assert specialize_rees(rel, pres, QQ(0)) == rel.initial
    assert report.flatness.verdict and report.flatness.binomial_initial


def test_hilbert_semicontinuity(counterexample_space):
    report = degenerate_section_space(
        counterexample_space, 2, relation_degree=4
    )
    for row in report.flatness.rows:
        assert row.initial_quotient_dim >= row.quotient_dim


# ---------------------------------------------------------------------------
# Compatibility records.

def test_subsystem_compatibility_self(counterexample_space):
    record = subsystem_compatibility(
        counterexample_space, counterexample_space, 2
    )
    assert record.body_inclusion


def test_subsystem_compatibility_proper(counterexample_space):
    sub = reduce_to_basis(
        [parse_polynomial(s, ("x", "y")) for s in ("1", "x", "x*y")]
    )
    record = subsystem_compatibility(sub, counterexample_space, 2)
    assert record.body_inclusion
    assert len(record.shared_pi.alphas) == 3


def test_subsystem_compatibility_point(counterexample_space):
    sub = reduce_to_basis([parse_polynomial("x", ("x", "y"))])
    record = subsystem_compatibility(sub, counterexample_space, 2)
    assert record.body_inclusion


def test_subsystem_must_be_contained(counterexample_space):
    outside = reduce_to_basis([parse_polynomial("y", ("x", "y"))])
    with pytest.raises(ValidationError):
        subsystem_compatibility(outside, counterexample_space, 2)


def test_flag_restriction_bott_samelson(bott_samelson_space):
    record = flag_restriction_check(bott_samelson_space, 1, 3)
    assert record.match
    expected = [(0, 0), (0, 1), (1, 1), (2, 0)]
    assert list(record.restricted_body.vertices) == expected
    assert list(record.face.vertices) == expected


def test_flag_restriction_trivial(bott_samelson_space):
    record = flag_restriction_check(bott_samelson_space, 0, 2)
    assert record.match


def test_flag_restriction_base_locus_error():
    divisible = reduce_to_basis(
        [parse_polynomial(s, ("x", "y")) for s in ("x", "x*y")]
    )
    with pytest.raises(ValidationError):
        flag_restriction_check(divisible, 1, 2)


def test_degenerate_enumerates_each_degree_once(monkeypatch):
    # relation degree 6: the kernel pass needs degrees 1..6 and the flatness
    # pass 0..6, seven distinct degrees, each enumerated once (each degree's
    # sumset reads the lower degrees' lists), and the shifts of every relation
    # multiple come from the same lists
    calls = []
    original = degeneration._degree_monomials

    def counting(presentation, degree):
        calls.append(degree)
        return original(presentation, degree)

    monkeypatch.setattr(degeneration, "_degree_monomials", counting)
    for job in (
        load_fixture("counterexample-p1xp1")._replace(relation_degree=6),
        load_fixture("elliptic-bad", 6),
    ):
        calls.clear()
        report = cli.run("degenerate", job)
        assert report["result"]["relation_degree"] == 6
        assert sorted(calls) == [0, 1, 2, 3, 4, 5, 6]
