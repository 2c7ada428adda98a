"""Differential checks of the sparse echelon engine and of its clients.

The engine (`okv.echelon`) and the dense adapters over it (`okv.linalg`) are
compared with the dense Gauss-Jordan oracle of tests/oracles.py over the
rationals and over F_32003; the kernel ideal and the flatness report are
compared with the dense degree-by-degree path they replaced, on every
fixture the `degenerate` command runs.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okv import degeneration, linalg
from okv.degeneration import (
    Presentation,
    PresentationGenerator,
    build_presentation,
    flatness_report,
    kernel_ideal_truncated,
    presentation_from_generators,
    rees_relations,
    weight_vector_for,
)
from okv.echelon import Echelon, nullspace
from okv.errors import ResourceCapError
from okv.fields import QQ, PrimeField
from okv.jobs import fixture_names, load_fixture
from okv.polynomials import Polynomial
from okv.semigroups import build_gamma, gamma_from_generators

from oracles import (
    dense_flatness,
    dense_kernel_relations,
    dense_nullspace,
    dense_reduce_against,
    dense_rref,
    solve_exact,
)

FP = PrimeField(32003)
FIELDS = {"Q": QQ, "F32003": FP}


@st.composite
def matrices(draw):
    """(field, rows, ncols) with zero rows, duplicate rows and scaled copies."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    ncols = draw(st.integers(0, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -5, 7])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=7))
    rows = [[field(v) for v in row] for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "multiple"]))
        if kind == "zero" or not rows:
            rows.insert(draw(st.integers(0, len(rows))), [field.zero] * ncols)
        else:
            source = rows[draw(st.integers(0, len(rows) - 1))]
            scale = field(1) if kind == "duplicate" else field(draw(st.integers(2, 9)))
            rows.insert(draw(st.integers(0, len(rows))), [v * scale for v in source])
    return field, rows, ncols


def full_rank(field, n):
    """An upper unitriangular n x n matrix with random entries above the diagonal."""
    rng = random.Random(n)
    return [
        [field(1) if j == i else field(rng.randint(-4, 4)) if j > i else field.zero
         for j in range(n)]
        for i in range(n)
    ]


def sparse(row):
    return {j: v for j, v in enumerate(row) if v}


def assert_matches_oracle(field, rows, ncols):
    expected, pivots = dense_rref(rows, ncols)
    got, got_pivots = linalg.rref(rows, ncols)
    assert (got, got_pivots) == (expected, pivots)
    assert linalg.rank(rows, ncols) == len(pivots)
    form = Echelon()
    for row in reversed(rows):
        form.insert(sparse(row))
    assert form.sorted_rows() == [sparse(r) for r in expected]
    assert sorted(form.rows) == pivots
    assert form.terms == sum(len(sparse(r)) for r in expected)
    kernel = dense_nullspace(rows, ncols, field.one)
    assert linalg.nullspace(rows, ncols, field.one) == kernel
    assert nullspace([sparse(r) for r in rows], ncols, field.one) == [sparse(r) for r in kernel]
    for vector in rows + kernel:
        residue = dense_reduce_against(vector, expected, pivots)
        assert form.reduce(sparse(vector)) == sparse(residue)
    if field is QQ and rows:
        rhs = [field(i + 1) for i in range(len(rows))]
        assert linalg.solve_unique(rows, rhs) == solve_exact(rows, rhs)


def test_integer_rows_stay_exact():
    """The engine scales a row by `pivot ** -1`, a float for an int pivot, so
    the adapters read int entries as rationals."""
    reduced, pivots = linalg.rref([[2, 3]], 2)
    kernel = linalg.nullspace([[2, 3]], 2, 1)
    solution = linalg.solve_unique([[2, 0], [0, 4]], [1, 1])
    assert (reduced, pivots) == ([[1, Fraction(3, 2)]], [0])
    assert kernel == [[1, Fraction(-2, 3)]]
    assert solution == [Fraction(1, 2), Fraction(1, 4)]
    assert linalg.rank([[2, 3], [4, 6]], 2) == 1
    entries = [v for row in reduced + kernel + [solution] for v in row]
    assert all(type(v) in (int, Fraction) for v in entries)


@settings(max_examples=300, deadline=None)
@given(matrices())
@example((QQ, [], 0))
@example((QQ, [], 4))
@example((FP, [[FP.zero] * 3, [FP.zero] * 3], 3))
@example((QQ, full_rank(QQ, 5), 5))
@example((FP, full_rank(FP, 6), 6))
def test_engine_matches_dense_oracle(case):
    assert_matches_oracle(*case)


def test_nullspace_cap_trips_before_the_basis():
    with pytest.raises(ResourceCapError, match="kernel basis too large: 3x3 > 8"):
        nullspace([], 3, Fraction(1), max_cells=8)


# ---------------------------------------------------------------------------
# Kernel ideals and flatness against the dense path.

def over_prime_field(pres: Presentation) -> Presentation:
    """The same presentation with every lift read in F_32003."""
    gens = tuple(
        PresentationGenerator(
            g.label, g.degree,
            Polynomial.from_dict(g.lift.variables, {e: FP(c) for e, c in g.lift.terms}),
        )
        for g in pres.generators
    )
    return Presentation(gens, pres.model_variables, FP)


def fixture_case(name, field):
    job = load_fixture(name)
    if job.is_abstract:
        pres = presentation_from_generators(job.generator_points())
        if field is FP:
            pres = over_prime_field(pres)
        depth = job.relation_degree or 2 * max(pres.grades)
        gamma = gamma_from_generators(job.generator_points(), max(job.max_degree, depth))
        return pres, depth, gamma
    if field is FP:
        job = dataclasses.replace(job, field_spec={"Fp": FP.p})
    space, flag = job.section_space(), job.flag()
    pres = build_presentation(space, flag, job.max_degree)
    depth = job.relation_degree or 2 * max(pres.grades)
    return pres, depth, build_gamma(space, flag, max(job.max_degree, depth))


@pytest.mark.parametrize("field", [QQ, FP], ids=["Q", "F32003"])
@pytest.mark.parametrize("name", fixture_names())
def test_kernel_and_flatness_match_dense_path(name, field):
    pres, depth, gamma = fixture_case(name, field)
    kernel = kernel_ideal_truncated(pres, depth)
    expected = dense_kernel_relations(pres, depth)
    assert [(r.poly, r.degree) for r in kernel.relations] == expected
    enriched = rees_relations(kernel, pres, weight_vector_for(pres, kernel))
    report = flatness_report(pres, enriched, gamma, depth)
    rows, binomial = dense_flatness(pres, enriched.relations, gamma, depth)
    got = [(r.degree, r.quotient_dim, r.initial_quotient_dim, r.semigroup_count)
           for r in report.rows]
    assert got == rows
    assert report.binomial_initial == binomial


def test_kernel_cap_trips_before_evaluating_the_degree(monkeypatch):
    """The number of relation multiples and a lower bound on the kernel
    dimension are known in advance, so the cap trips before any monomial of
    the degree is evaluated."""
    evaluators = []

    class Recording(degeneration._Evaluator):
        def __init__(self, presentation):
            super().__init__(presentation)
            evaluators.append(self)

    monkeypatch.setattr(degeneration, "_Evaluator", Recording)
    job = load_fixture("elliptic-bad", 10)
    pres = presentation_from_generators(job.generator_points())
    with pytest.raises(ResourceCapError, match="reducing degree-10 relations"):
        kernel_ideal_truncated(pres, job.relation_degree)
    (evaluate,) = evaluators
    degrees = {sum(n * g for n, g in zip(a, pres.grades)) for a in evaluate.cache}
    assert max(degrees) == 9
