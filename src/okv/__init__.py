"""Exact flag valuations, graded value semigroups, Okounkov bodies, and
toric degenerations for polynomial linear systems."""

__version__ = "0.1.0"

from .errors import InvariantError, OkvError, ResourceCapError, ValidationError
from .fields import QQ, PrimeField
from .polynomials import Polynomial, parse_polynomial
from .spaces import SectionSpace, contains, product_space, reduce_to_basis
from .valuation import (
    nu,
    nu_image,
    restricted_system,
    saturation_check,
    saturation_from_values,
)
from .semigroups import (
    GradedSemigroup,
    build_gamma,
    check_degree_one_generation,
    gamma_from_generators,
    hilbert_counts,
    minimal_generators,
    okounkov_body_estimate,
    semigroup_normality_check,
)
from .polytopes import (
    RationalPolytope,
    convex_hull,
    face_restriction,
    lattice_count,
    lattice_points,
    normalized_volume,
    polytope_from_halfspaces,
    polytopes_equal,
)
from .degeneration import (
    DegenerationReport,
    Presentation,
    Relation,
    RelationSet,
    WeightVector,
    build_presentation,
    choose_weight_vector,
    degenerate_section_space,
    degenerate_semigroup,
    flag_restriction_check,
    flatness_report,
    initial_form,
    kernel_ideal_truncated,
    presentation_from_generators,
    rees_relations,
    subsystem_compatibility,
)
from .jobs import JobSpec, fixture_names, jobspec_from_dict, load_fixture

__all__ = [name for name in dir() if not name.startswith("_")]
