"""Deterministic, exact serialization of results into report payloads.

Rationals are rendered as strings like "3/2" with no floating point
anywhere; collections are sorted, so identical inputs yield identical
bytes.  A report is plain JSON data except for a semigroup's slices, a
`Slices` value: iterated, it gives each degree's rows, which is how
`render_text` and `json.dumps(report, indent=2, default=list)` read it, and
`to_json` writes it from the coordinate streams of the packed slices, each
distinct coordinate value turned into text once.
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


class Slices:
    """The slices of a semigroup as a report value: iterating gives each
    degree's rows, `gamma.rows(m)`, in lex order."""

    __slots__ = ("gamma",)

    def __init__(self, gamma: GradedSemigroup):
        self.gamma = gamma

    def __iter__(self):
        return map(self.gamma.rows, range(self.gamma.max_degree + 1))


def semigroup_dict(gamma: GradedSemigroup) -> dict:
    return {
        "dim": gamma.dim,
        "max_degree": gamma.max_degree,
        "slices": Slices(gamma),
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
    or `Slices` renders as the list of its items, and a "-" line opens each
    block in a list."""
    pad = "  " * indent
    lines = []
    if isinstance(data, Slices):
        data = tuple(data)
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list, tuple, Slices)):
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


class _Texts(dict):
    """The text of each int a coordinate takes, `head` + decimal + `tail`,
    made when the int is first looked up."""

    __slots__ = ("head", "tail")

    def __init__(self, head: str, tail: str):
        self.head, self.tail = head, tail

    def __missing__(self, value: int) -> str:
        text = self[value] = self.head + int.__repr__(value) + self.tail
        return text


def _slices_json(gamma: GradedSemigroup, pad: str) -> str:
    """The slices of `gamma` as `to_json` writes their rows, from the coordinate
    streams: each coordinate has a text table, shared by all degrees, holding
    its separator, its decimal and, on the last coordinate, the closing
    bracket of the row, and a degree is the join of its rows' texts."""
    inner, row, item = pad + "  ", pad + "    ", pad + "      "
    tables = [_Texts("," + item, "") for _ in range(gamma.dim)]
    if tables:
        tables[0].head = "," + row + "[" + item
        tables[-1].tail = row + "]"
    degrees = []
    for m in range(gamma.max_degree + 1):
        columns = [map(t.__getitem__, c) for t, c in zip(tables, gamma.columns(m))]
        texts = chain.from_iterable(zip(*columns))
        first = next(texts, None)
        if first is None:  # an empty slice, or dimension 0
            degrees.append(to_json(gamma.rows(m), inner))
        else:  # the first row takes no separating comma
            degrees.append("".join(chain(("[", first[1:]), texts, (inner, "]"))))
    return "[" + inner + ("," + inner).join(degrees) + pad + "]"


def to_json(value, pad: str = "\n") -> str:
    """The text `json.dumps` gives with `indent=2`, byte for byte, for the values
    a report holds: str, int, bool, None, `Slices`, and lists, tuples and
    str-keyed dicts of them; anything else raises TypeError.  `pad` goes before
    a closing bracket.  `Slices` is written as the list of its rows would be,
    from the packed slices in one pass (`_slices_json`): no row is built."""
    kind = type(value)
    if kind is list or kind is tuple:
        inner, ends = pad + "  ", "[]"
        if set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
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
    elif kind is Slices:
        return _slices_json(value.gamma, pad)
    else:
        raise TypeError(f"not a report value: {value!r}")
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if value else ends
