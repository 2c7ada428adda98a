"""Differential checks of the sparse echelon engine and of its clients.

The engine (`okv.echelon`) and the dense adapters over it (`okv.linalg`) are
compared with the dense Gauss-Jordan oracle of tests/oracles.py over the
rationals and over F_32003, and so are the engine's fraction-free int rows;
the kernel ideal and the flatness report are compared with the dense
degree-by-degree path they replaced, on every fixture the `degenerate`
command runs.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okv import degeneration, linalg
from okv.degeneration import (
    Presentation,
    PresentationGenerator,
    Relation,
    RelationSet,
    build_presentation,
    flatness_report,
    kernel_ideal_truncated,
    presentation_from_generators,
    rees_relations,
    weight_vector_for,
)
from okv.echelon import Echelon, nullspace
from okv.errors import InvariantError, ResourceCapError
from okv.fields import QQ, PrimeField
from okv.jobs import fixture_names, jobspec_from_dict, jobspec_to_dict, load_fixture
from okv.polynomials import Polynomial, parse_polynomial
from okv.semigroups import build_gamma, gamma_from_generators
from okv.spaces import reduce_to_basis

from test_degeneration import abstract_generator_sets
from test_report_digests import JOB_EDITS
from test_subduction import section_spaces
from oracles import (
    _dense_degree,
    _dense_degree_exponents,
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
    """(ring, rows, ncols) with zero rows, duplicate rows and scaled copies;
    the ring `int` gives int rows, which also draw entries up to ±2^70, and Q
    also draws fractions whose numerators and denominators reach 2^70."""
    field = {**FIELDS, "Z": int}[draw(st.sampled_from(["F32003", "Q", "Z"]))]
    ncols = draw(st.integers(0, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -5, 7])
    if field is int:
        entry |= st.integers(-2**70, 2**70)
    elif field is QQ:
        entry |= st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**70))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=7))
    rows = [[field(v) for v in row] for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "multiple"]))
        if kind == "zero" or not rows:
            rows.insert(draw(st.integers(0, len(rows))), [field(0)] * ncols)
        else:
            source = rows[draw(st.integers(0, len(rows) - 1))]
            scale = field(1) if kind == "duplicate" else field(draw(st.integers(2, 9)))
            rows.insert(draw(st.integers(0, len(rows))), [v * scale for v in source])
    return field, rows, ncols


def full_rank(field, n):
    """An upper unitriangular n x n matrix with random entries above the diagonal."""
    rng = random.Random(n)
    return [
        [field(1) if j == i else field(rng.randint(-4, 4)) if j > i else field(0)
         for j in range(n)]
        for i in range(n)
    ]


# rational rows whose numerators and denominators reach 2^70, the third
# a combination of the first two, so the span has rank 2 and a kernel of 2
BIG_FRACTIONS = [
    [Fraction(2**70 + 1, 3), Fraction(5, 2**70 - 1), Fraction(0), Fraction(-7, 2**69)],
    [Fraction(0), Fraction(2**70, 2**70 + 3), Fraction(1, 2**70), Fraction(-(2**70), 11)],
    [Fraction(2**70 + 1, 6), Fraction(5, 2 * (2**70 - 1)) - Fraction(2**70, 2**70 + 3),
     Fraction(-1, 2**70), Fraction(-7, 2**70) + Fraction(2**70, 11)],
]


def sparse(row):
    return {j: v for j, v in enumerate(row) if v}


def primitive(vector):
    """The primitive integer multiple of a rational vector, of the same sign."""
    scale = lcm(*(v.denominator for v in vector))
    ints = [v.numerator * (scale // v.denominator) for v in vector]
    g = gcd(*ints)
    return [v // g for v in ints]


def assert_int_rows_match_oracle(rows, ncols):
    """Int rows against the `Fraction` oracle: the same pivots, each stored
    row primitive and, divided by its positive pivot, the oracle's reduced
    row, which `sorted_rows` reads back; each kernel vector the
    primitive multiple of the oracle's, positive on its free column; each
    residue a positive multiple of the oracle's."""
    rational = [[Fraction(v) for v in row] for row in rows]
    expected, pivots = dense_rref(rational, ncols)
    form = Echelon()
    for row in reversed(rows):
        form.insert(sparse(row))
    assert sorted(form.rows) == pivots
    for p, reduced in zip(pivots, expected):
        row = form.rows[p]
        assert row[p] > 0 and gcd(*row.values()) == 1
        assert all(type(v) is int for v in row.values())
        assert {j: Fraction(v, row[p]) for j, v in row.items()} == sparse(reduced)
    read_back = form.sorted_rows()
    assert read_back == [sparse(r) for r in expected]
    for p, row in zip(pivots, read_back):  # a row with pivot one is already reduced
        stored = form.rows[p]
        assert row is stored if stored[p] == 1 else {type(v) for v in row.values()} == {Fraction}
    assert form.terms == sum(len(sparse(r)) for r in expected)
    kernel = dense_nullspace(rational, ncols, Fraction(1))
    got = nullspace([sparse(r) for r in rows], ncols, 1)
    assert got == [sparse(primitive(k)) for k in kernel]
    assert all(type(v) is int for w in got for v in w.values())
    for vector in rows + [primitive(k) for k in kernel]:
        residue = sparse(dense_reduce_against(map(Fraction, vector), expected, pivots))
        assert_positive_int_multiple(form.reduce(sparse(vector)), residue)


def assert_positive_int_multiple(left, residue):
    """`left` holds ints and is one positive multiple of the oracle's residue."""
    assert left.keys() == residue.keys()
    assert all(type(v) is int for v in left.values())
    assert len({Fraction(v) / residue[j] for j, v in left.items()}) <= 1
    assert all(v * residue[j] > 0 for j, v in left.items())


def assert_matches_oracle(field, rows, ncols):
    """The dense adapters equal the oracle exactly.  Over F_32003 so do the
    engine's kernel vectors and residues; over Q a kernel vector is the
    primitive multiple of the oracle's and a residue a positive multiple,
    both in ints, as for int rows."""
    if field is int:
        return assert_int_rows_match_oracle(rows, ncols)
    expected, pivots = dense_rref(rows, ncols)
    got, got_pivots = linalg.rref(rows, ncols)
    assert (got, got_pivots) == (expected, pivots)
    assert len(linalg.rref(rows, ncols)[0]) == len(pivots)
    form = Echelon()
    for row in reversed(rows):
        form.insert(sparse(row))
    assert form.sorted_rows() == [sparse(r) for r in expected]
    assert sorted(form.rows) == pivots
    assert form.terms == sum(len(sparse(r)) for r in expected)
    kernel = dense_nullspace(rows, ncols, field.one)
    assert linalg.nullspace(rows, ncols, field.one) == kernel
    got = nullspace([sparse(r) for r in rows], ncols, 1 if field is QQ else field.one)
    assert got == [sparse(primitive(k) if field is QQ else k) for k in kernel]
    for vector in rows + kernel:
        residue = sparse(dense_reduce_against(vector, expected, pivots))
        left = form.reduce(sparse(vector))
        if field is QQ:
            assert_positive_int_multiple(left, residue)
        else:
            assert left == residue
    if field is QQ and rows:
        rhs = [field(i + 1) for i in range(len(rows))]
        assert linalg.solve_unique(rows, rhs) == solve_exact(rows, rhs)


def test_integer_rows_stay_exact():
    """The engine keeps an int row primitive, not scaled to pivot one, so the
    adapters read int entries as rationals."""
    reduced, pivots = linalg.rref([[2, 3]], 2)
    kernel = linalg.nullspace([[2, 3]], 2, 1)
    solution = linalg.solve_unique([[2, 0], [0, 4]], [1, 1])
    assert (reduced, pivots) == ([[1, Fraction(3, 2)]], [0])
    assert kernel == [[1, Fraction(-2, 3)]]
    assert solution == [Fraction(1, 2), Fraction(1, 4)]
    assert len(linalg.rref([[2, 3], [4, 6]], 2)[0]) == 1
    entries = [v for row in reduced + kernel + [solution] for v in row]
    assert all(type(v) in (int, Fraction) for v in entries)


@settings(max_examples=450, deadline=None)
@given(matrices())
@example((QQ, [], 0))
@example((QQ, [], 4))
@example((FP, [[FP(0)] * 3, [FP(0)] * 3], 3))
@example((QQ, full_rank(QQ, 5), 5))
@example((FP, full_rank(FP, 6), 6))
@example((int, [[2**70, 3, 0], [6, -(2**70), 4], [0, 0, 0]], 3))
@example((QQ, BIG_FRACTIONS, 4))
@example((QQ, BIG_FRACTIONS[:2], 4))
@example((QQ, [[Fraction(2**70 - 1, 2**70), Fraction(-3, 2**70 + 1)]], 2))
def test_engine_matches_dense_oracle(case):
    assert_matches_oracle(*case)


def test_nullspace_cap_trips_before_the_basis():
    with pytest.raises(ResourceCapError, match="kernel basis too large: 3x3 > 8"):
        nullspace([], 3, 1, max_cells=8)


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


# the rational sections of the digest rows, presented at degree 2 as there
RATIONAL = "Rat:counterexample-p1xp1"


def fixture_case(name, field):
    edit, _, name = name.rpartition(":")
    job = load_fixture(name)
    if edit:
        job = jobspec_from_dict({**jobspec_to_dict(job), **JOB_EDITS[edit], "max_degree": 2})
    if job.is_abstract:
        pres = presentation_from_generators(job.generator_points())
        if field is FP:
            pres = over_prime_field(pres)
        depth = job.relation_degree or 2 * max(pres.grades)
        gamma = gamma_from_generators(job.generator_points(), max(job.max_degree, depth))
        return pres, depth, gamma
    if field is FP:
        job = job._replace(field_spec={"Fp": FP.p})
    space = job.section_space()
    pres = build_presentation(space, job.max_degree)
    depth = job.relation_degree or 2 * max(pres.grades)
    return pres, depth, build_gamma(space, max(job.max_degree, depth))


@pytest.mark.parametrize("field", [QQ, FP], ids=["Q", "F32003"])
@pytest.mark.parametrize("name", fixture_names() + [RATIONAL])
def test_kernel_and_flatness_match_dense_path(name, field):
    pres, depth, gamma = fixture_case(name, field)
    kernel = kernel_ideal_truncated(pres, depth)
    expected = dense_kernel_relations(pres, depth)
    assert [(r.poly, r.degree) for r in kernel.relations] == expected
    enriched = rees_relations(kernel, pres, weight_vector_for(pres, kernel))
    report = flatness_report(pres, enriched, gamma)
    rows, binomial = dense_flatness(pres, enriched.relations, gamma, depth)
    got = [(r.degree, r.quotient_dim, r.initial_quotient_dim, r.semigroup_count)
           for r in report.rows]
    assert got == rows
    assert report.binomial_initial == binomial


# a lift with denominator 2 and a relation whose primitive pivot entry is not one
HALF_LIFT = reduce_to_basis([parse_polynomial(s, ("x", "y"))
                             for s in ("2*y + x*y", "x", "x^2*y^2", "x^3*y")])


@settings(max_examples=50, deadline=None)
@given(section_spaces())
@example((HALF_LIFT, 2))
def test_kernel_of_random_rational_lifts_matches_dense_path(case):
    """Random section spaces, whose coefficients 1, -1, 2, 3, -5, 7 put
    denominators into the reduced basis and the lifts, presented at degree 2:
    the kernel pass to degree 3 equals the dense path, and so does the same
    presentation read in F_32003 when the space is over Q."""
    space, _ = case
    pres = build_presentation(space, 2)
    for p in [pres] + ([over_prime_field(pres)] if pres.field is QQ else []):
        kernel = kernel_ideal_truncated(p, 3)
        assert [(r.poly, r.degree) for r in kernel.relations] == dense_kernel_relations(p, 3)


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
    job = load_fixture("bott-samelson-m")
    pres = build_presentation(job.section_space(), job.max_degree)
    with pytest.raises(ResourceCapError, match="reducing degree-4 relations"):
        kernel_ideal_truncated(pres, 4)
    (evaluate,) = evaluators
    labels, _ = pres.packings()
    degrees = {sum(n * g for n, g in zip(a, pres.grades))
               for a in labels.unpack(list(evaluate.cache))}
    assert max(degrees) == 3


def test_monomial_kernel_cap_trips_without_evaluating(monkeypatch):
    """Monomial lifts are never evaluated, and the cap trips in the same
    degree with the same sizes as on the evaluated path."""
    evaluators = []
    monkeypatch.setattr(degeneration, "_Evaluator", lambda p: evaluators.append(p))
    job = load_fixture("elliptic-bad", 10)
    pres = presentation_from_generators(job.generator_points())
    with pytest.raises(ResourceCapError, match="reducing degree-10 relations: 1384x423"):
        kernel_ideal_truncated(pres, job.relation_degree)
    assert evaluators == []


def scaled_first_lift(pres: Presentation) -> Presentation:
    """The same presentation with the first lift doubled: no longer a
    monomial model, so every degree is evaluated."""
    first, *rest = pres.generators
    two = Polynomial.constant(first.lift.variables, pres.field(2))
    doubled = first._replace(lift=first.lift * two)
    return Presentation((doubled, *rest), pres.model_variables, pres.field)


def cap_error(pres, depth, cap):
    try:
        kernel_ideal_truncated(pres, depth, cap)
    except ResourceCapError as exc:
        return str(exc)
    return None


def test_monomial_and_evaluated_paths_trip_every_cap_alike():
    """Seven generators of degree one and values 0..6: degree 2 has 28
    monomials in 13 fibres, so a kernel basis of 15 vectors can exceed a cap
    the evaluation matrix fits.  Over a range of caps the monomial path and
    the evaluated one raise the same text, and all three cap messages occur."""
    pres = presentation_from_generators([(1, (i,)) for i in range(7)])
    scaled = scaled_first_lift(pres)
    kinds = set()
    for cap in range(1, 1500, 3):
        text = cap_error(pres, 3, cap)
        assert cap_error(scaled, 3, cap) == text
        if text:
            kinds.add(text.split(":")[0])
    assert kinds == {
        "matrix cap exceeded in degree 1",
        "matrix cap exceeded in degree 2",
        "kernel basis too large",
        "matrix cap exceeded reducing degree-3 relations",
    }


@settings(max_examples=100, deadline=None)
@given(abstract_generator_sets(), st.integers(1, 4), st.sampled_from(sorted(FIELDS)))
def test_monomial_flatness_matches_dense_path(generators, depth, field_name):
    """The kernel and flatness passes on monomial lifts, read off fibres and
    components, equal the dense path over Q and F_32003, and so does the
    evaluated path on the same generators with one lift scaled."""
    pres = presentation_from_generators(generators)
    if FIELDS[field_name] is FP:
        pres = over_prime_field(pres)
    gamma = gamma_from_generators(generators, depth)
    for case in (pres, scaled_first_lift(pres)):
        kernel = kernel_ideal_truncated(case, depth)
        assert [(r.poly, r.degree) for r in kernel.relations] == dense_kernel_relations(
            case, depth
        )
        enriched = rees_relations(kernel, case, weight_vector_for(case, kernel))
        report = flatness_report(case, enriched, gamma)
        rows, binomial = dense_flatness(case, enriched.relations, gamma, depth)
        got = [(r.degree, r.quotient_dim, r.initial_quotient_dim, r.semigroup_count)
               for r in report.rows]
        assert got == rows
        assert report.binomial_initial == binomial


def test_component_flatness_reads_the_values_of_each_component():
    """A binomial initial form joining monomials of two values, X1 - X2 on
    values 0 and 1, leaves a special fibre whose rows are binomials but not
    of one value: the component path says so, as the dense path does."""
    generators = [(1, (0,)), (1, (1,)), (1, (3,))]
    pres = presentation_from_generators(generators)
    x1_minus_x2 = Polynomial.from_dict(pres.labels, {(1, 0, 0): QQ.one, (0, 1, 0): -QQ.one})
    relations = (Relation(x1_minus_x2, (1, (0,)), initial=x1_minus_x2),)
    mixed = kernel_ideal_truncated(pres, 2)._replace(relations=relations)
    gamma = gamma_from_generators(generators, 2)
    report = flatness_report(pres, mixed, gamma)
    rows, binomial = dense_flatness(pres, relations, gamma, 2)
    got = [(r.degree, r.quotient_dim, r.initial_quotient_dim, r.semigroup_count)
           for r in report.rows]
    assert got == rows
    assert report.binomial_initial is binomial is False


# ---------------------------------------------------------------------------
# Packed label monomials against the dense path.

@st.composite
def graded_values(draw):
    """Generators of grade 1-3 with non-negative values of one or two coordinates."""
    dim = draw(st.integers(1, 2))
    value = st.tuples(*[st.integers(0, 4)] * dim)
    return draw(st.lists(st.tuples(st.integers(1, 3), value), min_size=1, max_size=4))


@settings(max_examples=100, deadline=None)
@given(graded_values(), st.integers(0, 7))
def test_packed_enumeration_matches_the_dense_exponents(generators, degree):
    """The sumset gives every label monomial of the degree once, in (value,
    exponent) order, with its value and its index."""
    pres = presentation_from_generators(generators)
    monomials, index, values = pres.degree_monomials(degree)
    labels, _ = pres.packings()

    def value(a):
        return tuple(map(sum, zip(*([n * c for c in u] for n, (_, u) in zip(a, pres.degrees)))))

    expected = sorted(_dense_degree_exponents(pres.grades, degree), key=lambda a: (value(a), a))
    assert list(labels.unpack(monomials)) == expected
    assert values == [value(a) for a in expected]
    assert index == {m: j for j, m in enumerate(monomials)}


@st.composite
def lifted_presentations(draw):
    """Up to three generators of grade 1-3 whose lifts are random polynomials
    in x, y over Q or F_32003."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    exponent = st.tuples(st.integers(0, 3), st.integers(0, 3))
    coefficient = st.integers(-3, 3).filter(bool)
    gens = []
    for i, grade in enumerate(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)), 1):
        terms = draw(st.dictionaries(exponent, coefficient, min_size=1, max_size=3))
        lift = Polynomial.from_dict(("x", "y"), {e: field(c) for e, c in terms.items()})
        gens.append(PresentationGenerator(f"X{i}", (grade, (0,)), lift))
    return Presentation(tuple(gens), ("x", "y"), field)


@settings(max_examples=60, deadline=None)
@given(lifted_presentations(), st.integers(0, 5))
def test_packed_evaluator_matches_polynomial_products(pres, depth):
    """Each packed evaluation decodes to the product of the lifts."""
    labels, _ = pres.packings(depth)
    evaluate = degeneration._Evaluator(pres)
    for degree in range(depth + 1):
        monomials, _, evaluations, _ = _dense_degree(pres, degree)
        for a, poly in zip(monomials, evaluations):
            terms = evaluate(labels.pack(a))
            exps = evaluate.model.unpack([e for e, _ in terms])
            assert list(zip(exps, [c for _, c in terms])) == list(poly.terms)


@pytest.mark.parametrize("name", ["counterexample-p1xp1", "elliptic-bad"])
def test_widening_the_packings_matches_a_fresh_presentation(name):
    """A deeper pass widens the packings and re-enumerates; the kernel and
    flatness passes then agree with those of a fresh presentation, and so
    does a shallower pass on the widened one."""
    job = load_fixture(name)
    if job.is_abstract:
        make = lambda: presentation_from_generators(job.generator_points())
        gamma = gamma_from_generators(job.generator_points(), 6)
    else:
        space = job.section_space()
        make = lambda: build_presentation(space, job.max_degree)
        gamma = build_gamma(space, 6)

    def flatness(pres, kernel):
        return flatness_report(pres, rees_relations(kernel, pres, weight_vector_for(pres, kernel)),
                               gamma)

    widened = make()
    low = kernel_ideal_truncated(widened, 3)
    assert widened.packings()[0].bound == 3
    high = kernel_ideal_truncated(widened, 6)
    assert widened.packings()[0].bound == 6
    report = flatness(widened, high)
    assert low == kernel_ideal_truncated(make(), 3) == kernel_ideal_truncated(widened, 3)
    fresh = make()
    assert high == kernel_ideal_truncated(fresh, 6)
    assert report == flatness(fresh, high)


def test_a_multiple_leaving_its_degree_aliases_no_monomial():
    """At depth 1 the label packing has base 3 and generator X2's value 3 is
    the value packing's bound.  A relation of degree 1 with the term X2^3
    (digit 3, which would pack like X1) or X1*X2 (degree 2) has a multiple
    outside degree 1: the flatness pass raises instead of reading it as
    another monomial."""
    generators = [(1, (0,)), (1, (3,))]
    pres = presentation_from_generators(generators)
    gamma = gamma_from_generators(generators, 1)
    labels, values = pres.packings(1)
    assert (labels.base, values.bound) == (3, 3)
    for outside in ((0, 3), (1, 1)):
        poly = Polynomial.from_dict(pres.labels, {(1, 0): QQ.one, outside: -QQ.one})
        relations = RelationSet((Relation(poly, (1, (0,)), initial=poly),), 1, (0, 0))
        with pytest.raises(InvariantError, match="leaves the expected degree"):
            flatness_report(pres, relations, gamma)
