"""Acceptance suite: one test per exit criterion, each timed and printed.

Every expected value is either stated example data or recomputed by an
independent oracle from tests/oracles.py; tolerances are exact throughout.
Run with `pytest tests/test_acceptance.py -v -s` for one line per criterion.
"""

import functools
import json
import random
import time
from fractions import Fraction

from okv.cli import run
from okv.degeneration import (
    Presentation,
    build_presentation,
    choose_weight_vector,
    degenerate_semigroup,
    flag_restriction_check,
    flatness_report,
    kernel_ideal_truncated,
    rees_relations,
    weight_vector_for,
)
from okv.fields import QQ
from okv.jobs import load_fixture
from okv.polynomials import Polynomial, parse_polynomial
from okv.polytopes import lattice_points
from okv.semigroups import (
    build_gamma,
    check_degree_one_generation,
    gamma_from_generators,
    hilbert_counts,
    minimal_generators,
    okounkov_body_estimate,
    semigroup_normality_check,
)
from okv.spaces import contains, product_space, reduce_to_basis
from okv.valuation import nu_image, restricted_system

from oracles import (
    fiber_check,
    gamma_from_slices,
    generator_by_degree,
    modified_flat_key,
    oracle_in_hull,
    oracle_lattice_points,
    oracle_sumset_slices,
    preserves_modified_order,
    specialize_rees,
    sumset,
)

ELLIPTIC_GOOD = [(1, (0,)), (1, (1,)), (1, (3,))]


def criterion(label, limit_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {label}: FAIL")
                raise
            elapsed = time.monotonic() - start
            print(f"acceptance {label}: PASS ({elapsed:.2f}s, limit {limit_seconds}s)")
            assert elapsed < limit_seconds

        return wrapper

    return decorate


@criterion("01 valuation-table", 1)
def test_criterion_01_valuation_table():
    report = run("nu", load_fixture("bott-samelson-u"))
    table = {
        row["section"]: tuple(row["value"])
        for row in report["result"]["valuations"]
    }
    assert table == {
        "1": (0, 0, 0),
        "x": (1, 0, 0),
        "y": (0, 1, 0),
        "z": (0, 0, 1),
        "x*z": (1, 0, 1),
        "y*z": (0, 1, 1),
        "x^2*z + x*y": (1, 1, 0),
        "x*y*z + y^2": (0, 2, 0),
    }


@criterion("02 square-growth", 1)
def test_criterion_02_square_growth():
    job = load_fixture("counterexample-p1xp1")
    space = job.section_space()
    image = nu_image(space)
    assert image == {(0, 0), (1, 0), (0, 1), (1, 1)}
    square = product_space(space, space)
    square_image = nu_image(square)
    assert len(square_image) == 10 and (2, 3) in square_image
    assert square_image == sumset(image, image) | {(2, 3)}
    gamma = build_gamma(space, 2)
    report = check_degree_one_generation(gamma)
    assert report.status == "strict-growth" and report.witness == (2, (2, 3))
    restricted = restricted_system(square, (2,))
    y_cubed = parse_polynomial("y^3", ("y",))
    assert contains(restricted, y_cubed)
    v1 = restricted_system(space, (1,))
    assert not contains(product_space(v1, v1), y_cubed)


@criterion("03 interval-semigroup", 1)
def test_criterion_03_interval_semigroup():
    gamma = gamma_from_generators(ELLIPTIC_GOOD, 6)
    assert gamma.slice(2) == {(0,), (1,), (2,), (3,), (4,), (6,)}
    assert minimal_generators(gamma) == sorted(ELLIPTIC_GOOD)
    body = okounkov_body_estimate(gamma)
    assert body.vertices == ((0,), (3,))
    counts = hilbert_counts(gamma_from_generators(ELLIPTIC_GOOD, 4))
    oracle = [len(s) for s in oracle_sumset_slices(ELLIPTIC_GOOD, 4)]
    assert counts == oracle == [1, 3, 6, 9, 12]


@criterion("04 boundary-growth", 1)
def test_criterion_04_boundary_growth():
    def explicit(bound):
        slices = [{(0,)}] + [
            {(r,) for r in range(3 * m)} for m in range(1, bound + 1)
        ]
        return gamma_from_slices(slices, 1)

    gens6 = minimal_generators(explicit(6))
    expected = [(1, (0,)), (1, (1,)), (1, (2,))] + [
        (m, (3 * m - 1,)) for m in range(2, 7)
    ]
    assert gens6 == sorted(expected)
    assert len(gens6) == 8
    counts = [len(minimal_generators(explicit(m))) for m in range(2, 8)]
    assert all(b > a for a, b in zip(counts, counts[1:]))


@criterion("05 normality", 60)
def test_criterion_05_normality():
    record = semigroup_normality_check(gamma_from_generators(ELLIPTIC_GOOD, 1))
    assert not record.normal and record.missing == frozenset({(2,)})
    job = load_fixture("bott-samelson-u")
    space = job.section_space()
    verdict = run("check", job, "normality")["result"]["normality"]
    assert verdict["normal"] is True
    body = okounkov_body_estimate(build_gamma(space, 3))
    base_points = sorted(nu_image(space))
    assert lattice_points(body, 1) == set(base_points)
    assert len(lattice_points(body, 1)) == 8
    assert oracle_lattice_points(base_points, 1) == set(base_points)


@criterion("06 monomial-curve-degeneration", 5)
def test_criterion_06_monomial_curve_degeneration():
    report = degenerate_semigroup(ELLIPTIC_GOOD, 3, relation_degree=3)
    assert report.presentation.size == 3
    assert len(report.relations.relations) == 1
    rel = report.relations.relations[0]
    cubic = Polynomial.from_dict(
        report.presentation.labels,
        {(0, 3, 0): Fraction(1), (2, 0, 1): Fraction(-1)},
    )
    assert rel.poly == cubic
    assert rel.initial == rel.poly
    for row, expected in zip(report.flatness.rows, (1, 3, 6, 9)):
        assert (
            row.quotient_dim
            == row.initial_quotient_dim
            == row.semigroup_count
            == expected
        )
    assert report.flatness.verdict


@criterion("07 full-pipeline", 30)
def test_criterion_07_full_pipeline():
    job = load_fixture("counterexample-p1xp1")
    space = job.section_space()
    pres = build_presentation(space, 2)
    assert pres.size == 5
    lift_x2y3 = generator_by_degree(pres, (2, (2, 3))).lift
    assert lift_x2y3 == parse_polynomial("x^2*y^3", ("x", "y"))
    kernel = kernel_ideal_truncated(pres, 4)
    target = Polynomial.from_dict(
        pres.labels,
        {
            (0, 1, 1, 0, 0): Fraction(1),
            (1, 0, 0, 1, 0): Fraction(-1),
            (0, 0, 0, 0, 1): Fraction(-1),
        },
    )
    match = [rel for rel in kernel.relations if rel.poly == target]
    assert len(match) == 1
    pi = weight_vector_for(pres, kernel)
    enriched = rees_relations(kernel, pres, pi)
    rel = next(r for r in enriched.relations if r.poly == target)
    assert rel.initial == Polynomial.from_dict(
        pres.labels,
        {(0, 1, 1, 0, 0): Fraction(1), (1, 0, 0, 1, 0): Fraction(-1)},
    )
    assert specialize_rees(rel, pres, QQ(0)) == rel.initial
    assert specialize_rees(rel, pres, QQ(1)) == rel.poly
    assert fiber_check(enriched, pres, pi, QQ(2))
    gamma = build_gamma(space, 4)
    report = flatness_report(pres, enriched, gamma)
    assert report.verdict and report.binomial_initial
    # negative control: claiming only the degree-one generators degenerates
    # to a nine-point degree-two slice while the ring still has ten
    crippled = Presentation(pres.generators[:4], pres.model_variables, pres.field)
    bad_kernel = kernel_ideal_truncated(crippled, 2)
    bad_pi = weight_vector_for(crippled, bad_kernel)
    bad = flatness_report(
        crippled,
        rees_relations(bad_kernel, crippled, bad_pi),
        gamma_from_generators([g.degree for g in crippled.generators], 2),
    )
    assert not bad.verdict
    assert bad.rows[2].quotient_dim == 10 and bad.rows[2].semigroup_count == 9


@criterion("08 weight-vectors", 5)
def test_criterion_08_weight_vectors():
    rng = random.Random(20240809)
    for trial in range(200):
        dim = rng.randint(1, 4)
        size = rng.randint(1, 20)
        points = {
            tuple(rng.randint(0, 1000) for _ in range(dim + 1)) for _ in range(size)
        }
        pi = choose_weight_vector(points, dim=dim)
        augmented = set(points) | {(0,) * (dim + 1)} | {
            tuple(1 if j == i else 0 for j in range(dim + 1))
            for i in range(dim + 1)
        }
        assert preserves_modified_order(pi, augmented)
        origin_key = modified_flat_key((0,) * (dim + 1))
        positives = [p for p in augmented if modified_flat_key(p) > origin_key]
        for p in positives:
            assert pi.weight_flat(p) > 0
        # conical samples from the order-positive part stay positive
        for _ in range(5):
            combo = [0] * (dim + 1)
            for _ in range(rng.randint(1, 4)):
                choice = positives[rng.randrange(len(positives))]
                scale = rng.randint(1, 3)
                combo = [a + scale * b for a, b in zip(combo, choice)]
            if any(combo):
                assert pi.weight_flat(tuple(combo)) > 0


@criterion("09 polytopes", 5)
def test_criterion_09_polytopes():
    rng = random.Random(99)
    trapezoid_job = load_fixture("hirzebruch-trapezoid")
    trap_gamma = gamma_from_generators(trapezoid_job.generator_points(), 2)
    trapezoid = okounkov_body_estimate(trap_gamma)
    assert set(trapezoid.vertices) == {(0, 0), (0, 1), (3, 1), (1, 0)}
    assert len(lattice_points(trapezoid, 1)) == 6
    assert len(lattice_points(trapezoid, 2)) == 15
    corners = [(0, 0), (0, 1), (3, 1), (1, 0)]
    assert lattice_points(trapezoid, 1) == oracle_lattice_points(corners, 1)
    assert lattice_points(trapezoid, 2) == oracle_lattice_points(corners, 2)
    abelian_job = load_fixture("abelian-trapezoid")
    abelian = okounkov_body_estimate(
        gamma_from_generators(abelian_job.generator_points(), 1)
    )
    for body, generators in (
        (trapezoid, corners),
        (abelian, [(0, 0), (1, 0), (0, 5), (1, 3)]),
    ):
        for _ in range(1000):
            p = (
                Fraction(rng.randint(-4, 12), rng.randint(1, 4)),
                Fraction(rng.randint(-4, 12), rng.randint(1, 4)),
            )
            assert body.contains(p) == oracle_in_hull(p, generators)


@criterion("10 face-restriction", 10)
def test_criterion_10_face_restriction():
    job = load_fixture("bott-samelson-u")
    record = flag_restriction_check(job.section_space(), 1, 3)
    assert record.match
    expected = [(0, 0), (0, 1), (1, 1), (2, 0)]
    assert list(record.restricted_body.vertices) == expected
    hull_input = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
    for p in expected:
        assert oracle_in_hull(p, hull_input)
    # (1,0) is the midpoint of (0,0) and (2,0), so the stated five-point
    # hull collapses to the four vertices above
    assert oracle_in_hull((1, 0), [q for q in hull_input if q != (1, 0)])


@criterion("11 invariant-suites", 30)
def test_criterion_11_invariant_suites():
    rng = random.Random(4242)
    variables = ("x", "y")

    def random_poly():
        coeffs = {}
        for _ in range(rng.randint(1, 5)):
            exp = (rng.randint(0, 4), rng.randint(0, 4))
            coeffs[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return Polynomial.from_dict(variables, coeffs)

    for _ in range(100):
        f, g = random_poly(), random_poly()
        if f.is_zero or g.is_zero:
            continue
        assert (f * g).leading_exponent() == tuple(
            a + b
            for a, b in zip(f.leading_exponent(), g.leading_exponent())
        )
        total = f + g
        if not total.is_zero:
            low = min(f.leading_exponent(), g.leading_exponent())
            assert total.leading_exponent() >= low
            if total.leading_exponent() > low:
                assert f.leading_exponent() == g.leading_exponent()

    for _ in range(25):
        polys = [random_poly() for _ in range(rng.randint(1, 6))]
        space = reduce_to_basis(polys, variables=variables)
        assert reduce_to_basis(space.basis, variables=variables).basis == space.basis
        assert len(nu_image(space)) == space.dimension

    job = load_fixture("counterexample-p1xp1")
    gamma = build_gamma(job.section_space(), 3)
    for a in range(1, 3):
        for b in range(1, 4 - a):
            assert sumset(gamma.slice(a), gamma.slice(b)) <= set(gamma.slice(a + b))

    blobs = {json.dumps(run("semigroup", job), default=list) for _ in range(3)}
    assert len(blobs) == 1
