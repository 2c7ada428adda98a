"""okv's records: immutable values with equality, hash and repr over their
fields, built without `dataclasses`, so a launch imports neither it nor
`inspect`."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import okv
from okv import QQ, parse_polynomial, saturation_from_values
from okv.degeneration import (
    degenerate_semigroup,
    flag_restriction_check,
    kernel_ideal_truncated,
    presentation_from_generators,
    subsystem_compatibility,
)
from okv.jobs import fixture_names, jobspec_from_dict, jobspec_to_dict, load_fixture
from okv.semigroups import (
    build_gamma,
    check_degree_one_generation,
    okounkov_body_estimate,
    semigroup_normality_check,
)

PACKAGE = Path(okv.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))

# Recorded before the records left `dataclasses`; the reprs must not change.
POLYNOMIAL_REPR = (
    "Polynomial(variables=('x', 'y'), terms=(((0, 0), Fraction(1, 1)), "
    "((0, 1), Fraction(-3, 2)), ((2, 0), Fraction(1, 1))))"
)
JOBSPEC_REPR = (
    "JobSpec(field_spec='Q', variables=None, sections=None, "
    "semigroup_generators=((1, 0), (1, 1), (1, 3)), max_degree=6, relation_degree=3, "
    "cap_monomials=2000000, cap_matrix=500000, restriction_index=None, orders=None, "
    "subsystem=None, change_of_coordinates=None, fixture='elliptic-good', "
    "description='Degree-three system on an elliptic curve flagged at an inflection "
    "point; the limit is a cuspidal cubic')"
)
RELATION_SET_REPR = (
    "RelationSet(relations=(Relation(poly=Polynomial(variables=('X1', 'X2', 'X3'), "
    "terms=(((0, 3, 0), Fraction(1, 1)), ((2, 0, 1), Fraction(-1, 1)))), "
    "degree=(3, (3,)), initial=None, weight=None, rees=None),), truncation_degree=3, "
    "kernel_dims=(0, 0, 0, 1))"
)
ELLIPTIC_GOOD = [(1, (0,)), (1, (1,)), (1, (3,))]


def test_a_launch_imports_neither_dataclasses_nor_inspect():
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import okv, okv.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    # -S leaves out site-packages hooks, so only okv's own imports count
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_okv_imports_only_at_module_level_and_never_dataclasses():
    """Set-up is paid on every launch, so it is removed, not deferred: no
    import inside a function and no module `__getattr__`."""
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module] if isinstance(node, ast.ImportFrom) else [
                    a.name for a in node.names]
                if id(node) not in top or "dataclasses" in names:
                    found.append(f"{path.stem}:{node.lineno}")
            elif isinstance(node, ast.FunctionDef) and node.name == "__getattr__" \
                    and id(node) in top:
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []


def _records():
    """One value of each record class, from the pipeline that makes it."""
    p1xp1 = load_fixture("counterexample-p1xp1")
    space = p1xp1.section_space()
    gamma = build_gamma(space, 2)
    report = degenerate_semigroup(ELLIPTIC_GOOD, 3, 3)
    sub = okv.reduce_to_basis([parse_polynomial(s, ("x", "y")) for s in ("1", "x", "x*y")])
    return [
        parse_polynomial("x^2 - 3/2*y + 1", ("x", "y"), QQ),
        space,
        okounkov_body_estimate(gamma),
        saturation_from_values({1, 2}),
        check_degree_one_generation(gamma),
        semigroup_normality_check(gamma),
        report.weight_vector,
        report.presentation.generators[0],
        report.presentation,
        report.relations.relations[0],
        report.relations,
        report.flatness.rows[0],
        report.flatness,
        report,
        subsystem_compatibility(sub, space, 2),
        flag_restriction_check(load_fixture("bott-samelson-u").section_space(), 1, 2),
        p1xp1,
    ]


def test_every_record_class_is_covered():
    classes = {type(r).__name__ for r in _records()}
    assert classes == {
        "Polynomial", "SectionSpace", "RationalPolytope", "SaturationRecord",
        "GenerationReport", "NormalityRecord", "WeightVector", "PresentationGenerator",
        "Presentation", "Relation", "RelationSet", "FlatnessRow", "FlatnessReport",
        "DegenerationReport", "CompatibilityRecord", "RestrictionRecord", "JobSpec",
    }


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_a_record_is_immutable_and_equal_by_its_fields(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is not None
    copy = record._replace()
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)
    assert copy._asdict() == record._asdict()


def test_reprs_are_the_dataclass_reprs():
    assert repr(parse_polynomial("x^2 - 3/2*y + 1", ("x", "y"), QQ)) == POLYNOMIAL_REPR
    assert repr(load_fixture("elliptic-good")) == JOBSPEC_REPR
    pres = presentation_from_generators(ELLIPTIC_GOOD)
    assert repr(kernel_ideal_truncated(pres, 3)) == RELATION_SET_REPR


def test_a_polynomial_is_no_tuple():
    p = parse_polynomial("x + 1", ("x",), QQ)
    assert not isinstance(p, tuple)
    with pytest.raises(TypeError):
        3 * p
    with pytest.raises(TypeError):
        len(p)


def test_a_presentation_compares_without_its_caches():
    pres = presentation_from_generators(ELLIPTIC_GOOD)
    pres.degree_monomials(3)
    fresh = presentation_from_generators(ELLIPTIC_GOOD)
    assert pres == fresh and hash(pres) == hash(fresh)
    assert "_packings" not in repr(pres) and "_packings" not in pres._asdict()


def test_a_job_validates_on_replace():
    job = load_fixture("bott-samelson-u")
    assert job._replace(max_degree=4).max_degree == 4
    with pytest.raises(okv.ValidationError, match="relation_degree must be at least 1"):
        job._replace(relation_degree=0)
    with pytest.raises(TypeError):
        job._replace(no_such_field=1)


@pytest.mark.parametrize("name", fixture_names())
def test_a_fixture_job_round_trips_through_its_dict(name):
    job = load_fixture(name)
    assert jobspec_from_dict(jobspec_to_dict(job)) == job
