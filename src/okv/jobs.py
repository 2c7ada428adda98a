"""Job descriptions for the command line, plus the named example fixtures."""

from __future__ import annotations

from fractions import Fraction

from .echelon import Echelon
from .errors import DEFAULT_MATRIX_CAP, DEFAULT_MONOMIAL_CAP, ValidationError
from .fields import QQ, PrimeField
from .polynomials import Polynomial, Record, parse_polynomial
from .spaces import SectionSpace, reduce_to_basis


class JobSpec(Record):
    """A validated, serializable description of one computation; every
    construction validates, `_replace` included."""

    _fields = __slots__ = (
        "field_spec", "variables", "sections", "semigroup_generators", "max_degree",
        "relation_degree", "cap_monomials", "cap_matrix", "restriction_index", "orders",
        "subsystem", "change_of_coordinates", "fixture", "description",
    )

    def __init__(
        self,
        field_spec: object = "Q",  # "Q" or {"Fp": prime}
        variables: tuple[str, ...] | None = None,
        sections: tuple[str, ...] | None = None,
        semigroup_generators: tuple[tuple[int, ...], ...] | None = None,
        max_degree: int = 2,
        relation_degree: int | None = None,
        cap_monomials: int = DEFAULT_MONOMIAL_CAP,
        cap_matrix: int = DEFAULT_MATRIX_CAP,
        restriction_index: int | None = None,
        orders: tuple[int, ...] | None = None,
        subsystem: tuple[str, ...] | None = None,
        change_of_coordinates: tuple[tuple[str, ...], ...] | None = None,
        fixture: str | None = None,
        description: str = "",
    ):
        put = object.__setattr__
        put(self, "field_spec", field_spec)
        put(self, "variables", variables)
        put(self, "sections", sections)
        put(self, "semigroup_generators", semigroup_generators)
        put(self, "max_degree", max_degree)
        put(self, "relation_degree", relation_degree)
        put(self, "cap_monomials", cap_monomials)
        put(self, "cap_matrix", cap_matrix)
        put(self, "restriction_index", restriction_index)
        put(self, "orders", orders)
        put(self, "subsystem", subsystem)
        put(self, "change_of_coordinates", change_of_coordinates)
        put(self, "fixture", fixture)
        put(self, "description", description)
        has_sections = self.sections is not None
        has_generators = self.semigroup_generators is not None
        if has_sections == has_generators:
            raise ValidationError(
                "exactly one of sections / semigroup_generators must be given"
            )
        if has_sections and not self.variables:
            raise ValidationError("polynomial sections need a variable list")
        if self.max_degree < 1:
            raise ValidationError("max_degree must be at least 1")
        if self.relation_degree is not None and self.relation_degree < 1:
            raise ValidationError("relation_degree must be at least 1")
        for cap in ("cap_monomials", "cap_matrix"):
            if getattr(self, cap) < 1:
                raise ValidationError(f"{cap} must be at least 1")
        if has_generators:
            gens = self.semigroup_generators
            if not gens:
                raise ValidationError("semigroup generator list is empty")
            width = len(gens[0])
            if width < 2 or any(len(g) != width for g in gens):
                raise ValidationError("generators must be [m, u...] rows of one width")

    @property
    def coefficient_field(self):
        if self.field_spec == "Q":
            return QQ
        if isinstance(self.field_spec, dict) and set(self.field_spec) == {"Fp"}:
            return PrimeField(self.field_spec["Fp"])
        raise ValidationError(f"unknown field specification {self.field_spec!r}")

    @property
    def is_abstract(self) -> bool:
        return self.semigroup_generators is not None

    def generator_points(self) -> list[tuple[int, tuple[int, ...]]]:
        return [(g[0], tuple(g[1:])) for g in self.semigroup_generators]

    def parse_sections(self, strings) -> list[Polynomial]:
        fld = self.coefficient_field
        variables = tuple(self.variables)
        if len(set(variables)) != len(variables):  # an empty section list parses nothing
            raise ValidationError("variable names must be nonempty and distinct")
        polys = [parse_polynomial(s, variables, fld, self.cap_monomials) for s in strings]
        if self.change_of_coordinates is not None:
            matrix_rows = self.change_of_coordinates
            if len(matrix_rows) != len(variables) or any(
                len(r) != len(variables) for r in matrix_rows
            ):
                raise ValidationError("coordinate change must be a square matrix")
            matrix = [[_coordinate_entry(c, fld) for c in row] for row in matrix_rows]
            form = Echelon()
            for row in matrix:
                form.insert({j: v for j, v in enumerate(row) if v})
            if len(form.rows) != len(variables):
                raise ValidationError("coordinate change must be invertible")
            images = {v: _linear_form(variables, row) for v, row in zip(variables, matrix)}
            polys = [p.substitute(images, variables, self.cap_monomials) for p in polys]
        return polys

    def space_of(self, polys) -> SectionSpace:
        """The reduced span of parsed sections, under this job's monomial cap."""
        return reduce_to_basis(
            polys, variables=tuple(self.variables), cap_monomials=self.cap_monomials
        )

    def section_space(self) -> SectionSpace:
        return self.space_of(self.parse_sections(self.sections))

    def subsystem_space(self) -> SectionSpace:
        if not self.subsystem:
            raise ValidationError("this job has no subsystem sections")
        return self.space_of(self.parse_sections(self.subsystem))


def _coordinate_entry(entry, fld):
    try:
        return fld(Fraction(entry))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(
            f"coordinate change entries must be rational numbers, got {entry!r}"
        ) from exc


def _linear_form(variables, row) -> Polynomial:
    coeffs = {}
    for j, value in enumerate(row):
        if value:
            exp = tuple(1 if t == j else 0 for t in range(len(variables)))
            coeffs[exp] = value
    return Polynomial.from_dict(variables, coeffs)


# The job-file and report key of each JobSpec field; only `field_spec` is renamed.
_JOB_KEYS = {"field" if f == "field_spec" else f: f for f in JobSpec._fields}

# The integer fields, in the order of their CLI flags.
INT_FIELDS = ("max_degree", "relation_degree", "cap_monomials", "cap_matrix", "restriction_index")

# Fields that default to None, so a null in a job file is their default.
_NULLABLE_FIELDS = {f for f, d in zip(JobSpec._fields, JobSpec.__init__.__defaults__) if d is None}


def _int_value(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return value


def _list_value(key: str, value):
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{key} must be a list, got {value!r}")
    return value


def jobspec_from_dict(raw: dict) -> JobSpec:
    """Build a JobSpec from parsed structured text; unknown keys are rejected.

    Integer fields, generator and order entries and the p of `{"Fp": p}` must
    be JSON integers (not booleans), list fields lists, and `fixture` and
    `description` strings, so a malformed file is a validation error.
    """
    if not isinstance(raw, dict):
        raise ValidationError("job description must be a mapping")
    unknown = set(raw) - set(_JOB_KEYS)
    if unknown:
        raise ValidationError(f"unknown job keys: {sorted(unknown)}")
    kwargs = {}
    for key, attr in _JOB_KEYS.items():
        if key not in raw:
            continue
        value = raw[key]
        if value is None and attr in _NULLABLE_FIELDS:
            pass
        elif attr in {"variables", "sections", "subsystem"}:
            value = tuple(str(v) for v in _list_value(key, value))
        elif attr == "semigroup_generators":
            value = tuple(
                tuple(_int_value(key, c) for c in _list_value(key, row))
                for row in _list_value(key, value)
            )
        elif attr == "orders":
            value = tuple(_int_value(key, c) for c in _list_value(key, value))
        elif attr == "change_of_coordinates":
            value = tuple(
                tuple(str(c) for c in _list_value(key, row))
                for row in _list_value(key, value)
            )
        elif attr in INT_FIELDS:
            value = _int_value(key, value)
        elif attr in {"fixture", "description"} and not isinstance(value, str):
            raise ValidationError(f"{key} must be a string, got {value!r}")
        elif attr == "field_spec" and value != "Q":
            if not isinstance(value, dict) or set(value) != {"Fp"}:
                raise ValidationError(f'field must be "Q" or {{"Fp": p}}, got {value!r}')
            _int_value('field "Fp"', value["Fp"])
        kwargs[attr] = value
    return JobSpec(**kwargs)


def jobspec_to_dict(job: JobSpec) -> dict:
    """Canonical echo of a JobSpec for reports."""
    out = {}
    for key, attr in _JOB_KEYS.items():
        value = getattr(job, attr)
        if value is None or (attr == "description" and not value):
            continue
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# Named fixtures.

def _fixture_counterexample(max_degree):
    return JobSpec(
        variables=("x", "y"),
        sections=("1", "x", "y + x*y^3", "x*y"),
        max_degree=max_degree or 2,
        relation_degree=4,
        fixture="counterexample-p1xp1",
        description=(
            "Four sections on a product of two projective lines whose square "
            "gains an extra valuation point"
        ),
    )


def _fixture_bott_samelson_u(max_degree):
    return JobSpec(
        variables=("x", "y", "z"),
        sections=("1", "x", "y", "z", "x*z", "y*z", "x^2*z + x*y", "x*y*z + y^2"),
        max_degree=max_degree or 3,
        fixture="bott-samelson-u",
        description="Eight-section system on a three-fold in local coordinates",
    )


def _fixture_bott_samelson_m(max_degree):
    base = ("1", "x", "y", "z", "x*z", "y*z", "x^2*z + x*y", "x*y*z + y^2")
    multiples = tuple(f"x*({s})" for s in base)
    return JobSpec(
        variables=("x", "y", "z"),
        sections=base + multiples,
        max_degree=max_degree or 2,
        fixture="bott-samelson-m",
        description=(
            "The eight-section system enlarged by its first-coordinate "
            "multiples; reduces to thirteen dimensions"
        ),
    )


def _fixture_elliptic_good(max_degree):
    return JobSpec(
        semigroup_generators=((1, 0), (1, 1), (1, 3)),
        max_degree=max_degree or 6,
        relation_degree=3,
        fixture="elliptic-good",
        description=(
            "Degree-three system on an elliptic curve flagged at an inflection "
            "point; the limit is a cuspidal cubic"
        ),
    )


def _fixture_elliptic_bad(max_degree):
    bound = max_degree or 6
    gens = [(1, 0), (1, 1), (1, 2)] + [(m, 3 * m - 1) for m in range(2, bound + 1)]
    return JobSpec(
        semigroup_generators=tuple(tuple(g) for g in gens),
        max_degree=bound,
        relation_degree=bound,
        fixture="elliptic-bad",
        description=(
            "Degree-three system on an elliptic curve flagged at a general "
            "point; every boundary point is a fresh generator, truncated here "
            f"to degree {bound}"
        ),
    )


def _fixture_hirzebruch(max_degree):
    return JobSpec(
        semigroup_generators=(
            (1, 0, 0),
            (1, 1, 0),
            (1, 0, 1),
            (1, 1, 1),
            (1, 2, 1),
            (1, 3, 1),
        ),
        max_degree=max_degree or 2,
        fixture="hirzebruch-trapezoid",
        description=(
            "Lattice points of the trapezoid with corners (0,0), (1,0), (3,1), "
            "(0,1): a ruled-surface body"
        ),
    )


def _fixture_abelian(max_degree):
    return JobSpec(
        semigroup_generators=((1, 0, 0), (1, 1, 0), (1, 0, 5), (1, 1, 3)),
        max_degree=max_degree or 2,
        fixture="abelian-trapezoid",
        description=(
            "Vertex generators of the trapezoid with corners (0,0), (1,0), "
            "(0,5), (1,3): an abelian-surface body used as polytope test data"
        ),
    )


_FIXTURES = {
    "counterexample-p1xp1": _fixture_counterexample,
    "bott-samelson-u": _fixture_bott_samelson_u,
    "bott-samelson-m": _fixture_bott_samelson_m,
    "elliptic-good": _fixture_elliptic_good,
    "elliptic-bad": _fixture_elliptic_bad,
    "hirzebruch-trapezoid": _fixture_hirzebruch,
    "abelian-trapezoid": _fixture_abelian,
}


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


def load_fixture(name: str, max_degree: int | None = None) -> JobSpec:
    """The canonical JobSpec for a named example."""
    builder = _FIXTURES.get(name)
    if builder is None:
        raise ValidationError(
            f"unknown fixture {name!r}; known: {', '.join(fixture_names())}"
        )
    return builder(max_degree)
