"""Deterministic, exact serialization of results into report payloads.

Rationals are rendered as strings like "3/2" with no floating point
anywhere; collections are sorted, so identical inputs yield identical
bytes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

from .degeneration import (
    DegenerationReport,
    Presentation,
    RelationSet,
    WeightVector,
)
from .polytopes import RationalPolytope
from .semigroups import GenerationReport, GradedSemigroup, NormalityRecord, hilbert_counts
from .valuation import SaturationRecord


def scalar_str(value) -> str:
    if isinstance(value, (int, Fraction)):
        return str(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def point_list(point) -> list[int]:
    return [int(c) for c in point]


def graded_point(point) -> list:
    m, u = point
    return [m, point_list(u)]


def polytope_dict(poly: RationalPolytope) -> dict:
    return {
        "ambient_dim": poly.ambient_dim,
        "affine_dim": poly.affine_dim,
        "vertices": [[scalar_str(c) for c in v] for v in poly.vertices],
        "halfspaces": [
            {"normal": point_list(n), "offset": scalar_str(c)}
            for n, c in poly.halfspaces
        ],
    }


def semigroup_dict(gamma: GradedSemigroup) -> dict:
    return {
        "dim": gamma.dim,
        "max_degree": gamma.max_degree,
        "slices": [gamma.rows(m) for m in range(gamma.max_degree + 1)],
        "hilbert": hilbert_counts(gamma),
    }


def generation_dict(report: GenerationReport) -> dict:
    out = {"status": report.status, "checked_degree": report.checked_degree}
    if report.witness is not None:
        out["witness"] = graded_point(report.witness)
    return out


def normality_dict(record: NormalityRecord) -> dict:
    return {
        "normal": record.normal,
        "dilation": record.dilation,
        "lattice_count": record.lattice_count,
        "missing": sorted(record.missing),
    }


def saturation_dict(record: SaturationRecord) -> dict:
    return {
        "saturated": record.saturated,
        "values": sorted(record.values),
        "interval": list(record.interval),
    }


def weight_vector_dict(pi: WeightVector) -> dict:
    return {"alphas": list(pi.alphas)}


def presentation_dict(pres: Presentation, weights=None) -> dict:
    gens = []
    for i, g in enumerate(pres.generators):
        entry = {
            "label": g.label,
            "degree": graded_point(g.degree),
            "lift": str(g.lift),
        }
        if weights is not None:
            entry["weight"] = weights[i]
        gens.append(entry)
    return {"model_variables": list(pres.model_variables), "generators": gens}


def relations_dict(relset: RelationSet) -> dict:
    rels = []
    for rel in relset.relations:
        entry = {"poly": str(rel.poly), "degree": graded_point(rel.degree)}
        if rel.initial is not None:
            entry["initial"] = str(rel.initial)
        if rel.weight is not None:
            entry["weight"] = rel.weight
        if rel.rees is not None:
            entry["rees"] = str(rel.rees)
        rels.append(entry)
    return {"truncation_degree": relset.truncation_degree, "relations": rels}


def degeneration_dict(report: DegenerationReport) -> dict:
    return {
        "presentation": presentation_dict(
            report.presentation, report.generator_weights
        ),
        "weight_vector": weight_vector_dict(report.weight_vector),
        "relations": relations_dict(report.relations),
        "flatness": {
            "verdict": report.flatness.verdict,
            "binomial_initial": report.flatness.binomial_initial,
            "checked_degree": report.flatness.checked_degree,
            "rows": [
                {
                    "degree": r.degree,
                    "quotient_dim": r.quotient_dim,
                    "initial_quotient_dim": r.initial_quotient_dim,
                    "semigroup_count": r.semigroup_count,
                }
                for r in report.flatness.rows
            ],
        },
        "semigroup": semigroup_dict(report.gamma),
        "relation_degree": report.relations.truncation_degree,
    }


def _block(value) -> bool:
    """Whether a value renders over several lines: a dict, or a list or tuple
    holding a dict, list or tuple."""
    nested = (dict, list, tuple)
    return isinstance(value, dict) or (
        isinstance(value, (list, tuple)) and any(isinstance(v, nested) for v in value)
    )


def render_text(data, indent: int = 0) -> str:
    """Plain-text rendering of a report value (what `to_json` accepts); a tuple
    renders as the list of its items, and a "-" line opens each block in a list."""
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list, tuple)):
                lines.append(f"{pad}{key}:")
                lines.append(render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(data, (list, tuple)) and _block(data):
        for value in data:
            if _block(value):
                lines += [f"{pad}-", render_text(value, indent + 1)]
            else:
                lines.append(render_text(value, indent))
    elif isinstance(data, (list, tuple)):
        lines.append(f"{pad}[{', '.join(map(str, data))}]")
    else:
        lines.append(f"{pad}{data}")
    return "\n".join(line for line in lines if line)


def _row_width(rows) -> int:
    """The common length of `rows`, tuples all, when it is non-zero and every
    item of every row is an int (not a bool), else 0."""
    lengths = set(map(len, rows))
    if len(lengths) != 1 or set(map(type, chain.from_iterable(rows))) != {int}:
        return 0
    return lengths.pop()


def to_json(value, pad: str = "\n") -> str:
    """The text `json.dumps` gives with `indent=2`, byte for byte, for the values
    a report holds: str, int, bool, None, and lists, tuples and str-keyed dicts
    of them; anything else raises TypeError.  `pad` goes before a closing bracket.
    A list or tuple of int tuples of one non-zero length, such as a semigroup
    slice, is written by one `%d` template for all its rows, applied once to
    their chained items, with the same bytes."""
    kind = type(value)
    if kind is list or kind is tuple:
        inner, ends = pad + "  ", "[]"
        types = set(map(type, value))
        if types == {int}:
            items = map(int.__repr__, value)
        elif types == {tuple} and (width := _row_width(value)):
            row = inner + "  "
            template = "[" + row + ("," + row).join(["%d"] * width) + inner + "]"
            rows = ("," + inner).join([template] * len(value))
            return "[" + inner + rows % tuple(chain.from_iterable(value)) + pad + "]"
        else:
            items = [to_json(v, inner) for v in value]
    elif kind is dict:
        inner, ends = pad + "  ", "{}"  # the C escaper raises TypeError on a non-str key
        items = [_json_str(k) + ": " + to_json(v, inner) for k, v in value.items()]
    elif kind is str:
        return _json_str(value)
    elif kind is int:
        return int.__repr__(value)
    elif kind is bool:
        return "true" if value else "false"
    elif value is None:
        return "null"
    else:
        raise TypeError(f"not a report value: {value!r}")
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if value else ends
