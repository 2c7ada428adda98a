"""Checks of okv reports computed without okv.

Everything here is the benchmark's own arithmetic:

- polynomials are dicts {exponent tuple: residue} modulo a prime q, parsed
  by a small parser of the report strings; over Q the prime is 2^61 - 1,
  over F_p it is p itself;
- valuation images of power spaces come from a sparse top-reducing echelon
  modulo q (the valuation is the lex-min exponent, first variable first);
- slices of abstract semigroups, minimal generators and degree-one
  generation come from plain sumsets;
- hulls are certified from okv's own output: every input point satisfies
  every halfspace, every facet is tight on an affinely spanning vertex set,
  and every vertex is the unique maximiser of the sum of its tight normals;
- relations must vanish when the generator lifts are substituted (evaluated
  at fixed points modulo q), and each Rees form must give the relation at
  t = 1 and the initial form at t = 0.

A check raises CheckError with a message on the first mismatch.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from math import ceil, comb, floor

Q_PRIME = (1 << 61) - 1

# Stated shapes of the two trapezoid fixtures: corners and normalized volume.
TRAPEZOIDS = {
    "hirzebruch-trapezoid": ({(0, 0), (1, 0), (3, 1), (0, 1)}, 4),
    "abelian-trapezoid": ({(0, 0), (1, 0), (0, 5), (1, 3)}, 8),
}


class CheckError(Exception):
    """An okv output disagrees with the benchmark's own computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Polynomials modulo a prime.

_TOKEN = re.compile(r"\s*(?:(\d+)(?:/(\d+))?|([A-Za-z_]\w*)|([-+*^()]))")


def parse(text: str, variables, q: int) -> dict:
    """Expand a polynomial expression in +, -, *, ^, ( ) and rationals mod q."""
    variables = tuple(variables)
    tokens = []
    pos, text = 0, text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        require(m is not None and m.end() > pos, f"cannot parse {text!r}")
        if m.group(1) is not None:
            tokens.append(("num", int(m.group(1)), int(m.group(2) or 1)))
        elif m.group(3) is not None:
            tokens.append(("name", m.group(3)))
        else:
            tokens.append(("op", m.group(4)))
        pos = m.end()
    tokens.append(("end",))
    nv = len(variables)
    state = {"i": 0}

    def peek():
        return tokens[state["i"]]

    def take():
        state["i"] += 1
        return tokens[state["i"] - 1]

    def is_op(tok, chars):
        return tok[0] == "op" and tok[1] in chars

    def expr():
        negate = False
        if is_op(peek(), "+-"):
            negate = take()[1] == "-"
        total = term()
        if negate:
            total = scale(total, q - 1, q)
        while is_op(peek(), "+-"):
            sign = 1 if take()[1] == "+" else -1
            total = add(total, term(), q, sign)
        return total

    def term():
        total = factor()
        while is_op(peek(), "*"):
            take()
            total = mul(total, factor(), q)
        return total

    def factor():
        base = atom()
        if is_op(peek(), "^"):
            take()
            tok = take()
            require(tok[0] == "num" and tok[2] == 1, f"bad exponent in {text!r}")
            return power(base, tok[1], nv, q)
        return base

    def atom():
        tok = take()
        if tok[0] == "num":
            value = tok[1] * pow(tok[2], -1, q) % q
            return {(0,) * nv: value} if value else {}
        if tok[0] == "name":
            require(tok[1] in variables, f"unknown variable {tok[1]!r} in {text!r}")
            return {tuple(int(v == tok[1]) for v in variables): 1}
        if is_op(tok, "("):
            inner = expr()
            require(is_op(take(), ")"), f"unbalanced parentheses in {text!r}")
            return inner
        if is_op(tok, "-"):
            return scale(atom(), q - 1, q)
        raise CheckError(f"cannot parse {text!r}")

    result = expr()
    require(peek()[0] == "end", f"trailing input in {text!r}")
    return result


def add(a: dict, b: dict, q: int, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = (out.get(e, 0) + sign * c) % q
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def scale(a: dict, k: int, q: int) -> dict:
    return {e: c * k % q for e, c in a.items() if c * k % q}


def mul(a: dict, b: dict, q: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % q
    return {e: c for e, c in out.items() if c}


def power(a: dict, n: int, nv: int, q: int) -> dict:
    result = {(0,) * nv: 1}
    for _ in range(n):
        result = mul(result, a, q)
    return result


def evaluate(poly: dict, point, q: int) -> int:
    total = 0
    for e, c in poly.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term = term * pow(x, k, q) % q
        total += term
    return total % q


class Echelon:
    """Rows with pairwise distinct lex-min leads, each lead scaled to one."""

    def __init__(self, q: int):
        self.q = q
        self.rows: dict = {}

    def reduce(self, poly: dict) -> dict:
        p, q, rows = dict(poly), self.q, self.rows
        while p:
            lead = min(p)
            row = rows.get(lead)
            if row is None:
                return p
            f = p[lead]
            for e, c in row.items():
                s = (p.get(e, 0) - f * c) % q
                if s:
                    p[e] = s
                else:
                    del p[e]
        return p

    def add(self, poly: dict) -> None:
        p = self.reduce(poly)
        if p:
            lead = min(p)
            inv = pow(p[lead], -1, self.q)
            self.rows[lead] = {e: c * inv % self.q for e, c in p.items()}


# ---------------------------------------------------------------------------
# Semigroups.

def sumset(a, b) -> set:
    return {tuple(x + y for x, y in zip(u, v)) for u in a for v in b}


def closure(generators, top: int, dim: int) -> list:
    """Slices 0..top of the semigroup generated by graded points (m, u)."""
    slices = [{(0,) * dim}] + [set() for _ in range(top)]
    for m in range(1, top + 1):
        for g, u in generators:
            if g <= m:
                slices[m] |= sumset(slices[m - g], [u])
    return slices


def minimal_generators(slices, top: int) -> list:
    gens = []
    for m in range(1, top + 1):
        decomposable = set()
        for a in range(1, m // 2 + 1):
            decomposable |= sumset(slices[a], slices[m - a])
        gens += [(m, u) for u in slices[m] - decomposable]
    return sorted(gens)


def generation(slices, top: int) -> dict:
    reachable = set(slices[1])
    for m in range(2, top + 1):
        reachable = sumset(reachable, slices[1])
        extra = set(slices[m]) - reachable
        if extra:
            return {"status": "strict-growth", "checked_degree": top,
                    "witness": [m, list(max(extra))]}
        require(reachable <= set(slices[m]), f"slice {m} is not closed under addition")
    return {"status": "generated-in-degree-one", "checked_degree": top}


def listed(slice_) -> list:
    return sorted(list(u) for u in slice_)


# ---------------------------------------------------------------------------
# Hull certificates.

def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def affine_rank(points) -> int:
    if not points:
        return -1
    base = points[0]
    return _rank([[a - b for a, b in zip(p, base)] for p in points[1:]])


def certify_hull(poly: dict, points, ambient: int, what: str):
    """Certify okv's polytope as the hull of `points`; return (vertices, halfspaces)."""
    verts = [tuple(Fraction(c) for c in v) for v in poly["vertices"]]
    hs = [(tuple(h["normal"]), Fraction(h["offset"])) for h in poly["halfspaces"]]
    k = poly["affine_dim"]
    require(poly["ambient_dim"] == ambient, f"{what}: ambient dimension")
    require(verts and len(set(verts)) == len(verts), f"{what}: vertex list")
    pset = set(points)
    require(all(v in pset for v in verts), f"{what}: a vertex is not an input point")
    require(affine_rank(verts) == k, f"{what}: affine dimension {k}")
    for p in points:
        require(all(_dot(n, p) <= c for n, c in hs), f"{what}: point {p} outside")
    hset = set(hs)
    tight_normals = {v: [] for v in verts}
    for n, c in hs:
        tight = [v for v in verts if _dot(n, v) == c]
        if (tuple(-a for a in n), -c) in hset:
            require(len(tight) == len(verts), f"{what}: equality {n} not tight")
        else:
            require(len(tight) < len(verts) and affine_rank(tight) == k - 1,
                    f"{what}: halfspace {n} <= {c} is not a facet")
        for v in tight:
            tight_normals[v].append(n)
    for v in verts:
        w = [sum(col) for col in zip(*tight_normals[v])] or [0] * ambient
        top = _dot(w, v)
        require(all(_dot(w, o) < top for o in verts if o != v),
                f"{what}: vertex {v} is not the unique maximiser")
    return verts, hs


def lattice_points(verts, hs, dilation: int) -> set:
    dim = len(verts[0])
    ranges = [
        range(ceil(min(v[i] for v in verts) * dilation),
              floor(max(v[i] for v in verts) * dilation) + 1)
        for i in range(dim)
    ]
    return {
        p for p in itertools.product(*ranges)
        if all(_dot(n, p) <= c * dilation for n, c in hs)
    }


def normalized_volume(verts, hs, d: int) -> int:
    """d! times the volume: top finite difference of the Ehrhart counts."""
    counts = [1] + [len(lattice_points(verts, hs, k)) for k in range(1, d + 1)]
    return sum((-1) ** (d - i) * comb(d, i) * counts[i] for i in range(d + 1))


# ---------------------------------------------------------------------------
# The checker.

class Checker:
    """Checks reports; caches power towers and certified bodies per input."""

    def __init__(self):
        self.towers: dict = {}
        self.bodies: dict = {}

    # -- inputs --------------------------------------------------------------

    @staticmethod
    def modulus(job: dict) -> int:
        field = job.get("field", "Q")
        if field == "Q":
            return Q_PRIME
        require(isinstance(field, dict) and set(field) == {"Fp"}, f"field {field!r}")
        return field["Fp"]

    @staticmethod
    def source_key(job: dict) -> str:
        keys = ("field", "variables", "sections", "semigroup_generators")
        return json.dumps([job.get(k) for k in keys])

    def tower(self, variables, polys, q: int, top: int):
        """Echelons of V^1..V^top spanned by the given polynomials, extended on demand."""
        key = (tuple(variables), tuple(frozenset(p.items()) for p in polys), q)
        levels = self.towers.get(key)
        if levels is None:
            base = Echelon(q)
            for p in polys:
                base.add(p)
            levels = self.towers[key] = [None, base]
        while len(levels) <= top:
            nxt = Echelon(q)
            gens = list(levels[1].rows.values())
            for b in levels[-1].rows.values():
                for g in gens:
                    nxt.add(mul(b, g, q))
            levels.append(nxt)
        return levels

    def sections(self, job: dict, restrict: int = 0):
        """(variables, section polynomials mod q); `restrict` sets leading variables to 0."""
        require("change_of_coordinates" not in job, "coordinate changes are not checked")
        variables, q = job["variables"], self.modulus(job)
        polys = [parse(s, variables, q) for s in job["sections"]]
        if restrict:
            polys = [{e[restrict:]: c for e, c in p.items() if not any(e[:restrict])}
                     for p in polys]
        return variables[restrict:], polys

    def slices(self, job: dict, top: int, restrict: int = 0) -> list:
        """Own slices 0..top for the job's input; `restrict` drops leading variables."""
        if job.get("semigroup_generators") is not None:
            require(not restrict, "restriction of abstract generators")
            gens = [(g[0], tuple(g[1:])) for g in job["semigroup_generators"]]
            return closure(gens, top, len(gens[0][1]))
        variables, polys = self.sections(job, restrict)
        levels = self.tower(variables, polys, self.modulus(job), top)
        return [{(0,) * len(variables)}] + [set(levels[m].rows) for m in range(1, top + 1)]

    # -- dispatch ------------------------------------------------------------

    def check(self, report: dict) -> None:
        command = report["command"]
        job, result = report["job"], report["result"]
        if command == "semigroup":
            self.check_semigroup(job, result)
        elif command == "degenerate":
            self.check_degenerate(job, result)
        elif command == "body":
            self.check_body(job, result)
        elif command == "check normality":
            self.check_normality(job, result)
        elif command == "check restriction":
            self.check_restriction(job, result)
        else:
            raise CheckError(f"no check for command {command!r}")

    # -- semigroups ----------------------------------------------------------

    def check_semigroup(self, job, result) -> None:
        top = job["max_degree"]
        own = self.slices(job, top)
        sg = result["semigroup"]
        require(sg["max_degree"] == top, "semigroup truncation degree")
        require(sg["slices"] == [listed(s) for s in own], "semigroup slices")
        require(sg["hilbert"] == [len(s) for s in own], "Hilbert counts")
        gens = [[m, list(u)] for m, u in minimal_generators(own, top)]
        require(result["minimal_generators"] == gens, "minimal generators")
        require(result["generation"] == generation(own, top), "degree-one generation report")

    # -- hulls ---------------------------------------------------------------

    def normalized_points(self, job, top: int, restrict: int = 0, face: int = 0):
        own = self.slices(job, top, restrict)
        pts = set()
        for m in range(1, top + 1):
            for u in own[m]:
                if not any(u[:face]):
                    pts.add(tuple(Fraction(c, m) for c in u[face:]))
        return sorted(pts)

    def check_body(self, job, result) -> None:
        top = job["max_degree"]
        require(result["max_degree"] == top, "body truncation degree")
        points = self.normalized_points(job, top)
        ambient = len(points[0])
        body = result["body"]
        verts, hs = certify_hull(body, points, ambient, "body")
        self.bodies[(self.source_key(job), top)] = (verts, hs)
        integral = all(c.denominator == 1 for v in verts for c in v)
        require(("lattice_count" in result) == integral, "integer-vertex extras")
        if integral:
            require(result["lattice_count"] == len(lattice_points(verts, hs, 1)),
                    "lattice count of the body")
            volume = normalized_volume(verts, hs, body["affine_dim"])
            require(result["normalized_volume"] == volume, "normalized volume")
        stated = TRAPEZOIDS.get(job.get("fixture"))
        if stated is not None:
            corners, volume = stated
            require({tuple(int(c) for c in v) for v in verts} == corners, "trapezoid corners")
            require(result["normalized_volume"] == volume, "trapezoid normalized volume")

    def check_normality(self, job, result) -> None:
        dim = (len(job["semigroup_generators"][0]) - 1
               if job.get("semigroup_generators") is not None else len(job["variables"]))
        degree = max(job["max_degree"], dim)
        body = self.bodies.get((self.source_key(job), degree))
        require(body is not None, f"no certified body at degree {degree} to check against")
        verts, hs = body
        expected = lattice_points(verts, hs, dim)
        have = self.slices(job, degree)[dim]
        require(have <= expected, "slice escapes the dilated body")
        missing = expected - have
        require(result["normality"] == {
            "normal": not missing,
            "dilation": dim,
            "lattice_count": len(expected),
            "missing": listed(missing),
        }, "normality record")

    def check_restriction(self, job, result) -> None:
        top, r = job["max_degree"], job["restriction_index"]
        require(result["restriction_index"] == r and result["checked_degree"] == top,
                "restriction echo")
        ambient = len(job["variables"]) - r
        face = certify_hull(result["face"], self.normalized_points(job, top, face=r),
                            ambient, "face")
        rest = certify_hull(result["restricted_body"],
                            self.normalized_points(job, top, restrict=r), ambient,
                            "restricted body")
        require(result["match"] == (sorted(face[0]) == sorted(rest[0])), "match verdict")

    # -- degenerations -------------------------------------------------------

    def check_degenerate(self, job, result) -> None:
        abstract = job.get("semigroup_generators") is not None
        q = Q_PRIME if abstract else self.modulus(job)
        sg = result["semigroup"]
        top = sg["max_degree"]
        own = self.slices(job, top)
        require(sg["slices"] == [listed(s) for s in own], "degeneration semigroup slices")
        depth = result["relation_degree"]
        rows = result["flatness"]["rows"]
        require([r["degree"] for r in rows] == list(range(depth + 1)), "flatness degrees")
        require([r["semigroup_count"] for r in rows] == [len(own[n]) for n in range(depth + 1)],
                "flatness semigroup counts")
        require(result["flatness"]["verdict"] == all(
            r["quotient_dim"] == r["initial_quotient_dim"] == r["semigroup_count"] for r in rows),
            "flatness verdict")
        require(result["flatness"]["checked_degree"] == depth, "flatness degree")
        require(result["relations"]["truncation_degree"] == depth, "relation truncation")

        pres = result["presentation"]
        model = pres["model_variables"]
        gens = pres["generators"]
        degrees = [(g["degree"][0], tuple(g["degree"][1])) for g in gens]
        lifts = [parse(g["lift"], model, q) for g in gens]
        if abstract:
            expected = sorted((g[0], tuple(g[1:])) for g in job["semigroup_generators"])
            require(degrees == expected, "presentation degrees")
            for (m, u), lift in zip(degrees, lifts):
                require(lift == {(m, *u): 1}, f"lift of {(m, u)}")
        else:
            require(degrees == minimal_generators(own, job["max_degree"]),
                    "presentation degrees are the minimal generators")
            levels = self.tower(*self.sections(job), q, job["max_degree"])
            for (m, u), lift in zip(degrees, lifts):
                require(lift and min(lift) == u, f"lift of {(m, u)} has the wrong valuation")
                require(not levels[m].reduce(lift), f"lift of {(m, u)} is not in V^{m}")
        alphas = result["weight_vector"]["alphas"]
        weights = [g["weight"] for g in gens]
        require(weights == [alphas[0] * m - _dot(alphas[1:], u) for m, u in degrees],
                "generator weights")

        labels = [g["label"] for g in gens]
        points = [[pow(7 + 2 * i, 5 + j, q) for j in range(len(model))] for i in range(3)]
        lift_values = [[evaluate(lift, pt, q) for lift in lifts] for pt in points]
        for rel in result["relations"]["relations"]:
            poly = parse(rel["poly"], labels, q)
            require(poly, "zero relation")
            for values in lift_values:
                require(evaluate(poly, values, q) == 0, f"relation {rel['poly']!r} does not vanish")
            n = rel["degree"][0]
            require(all(_dot(a, [m for m, _ in degrees]) == n for a in poly),
                    f"relation {rel['poly']!r} is not homogeneous of degree {n}")
            value = min(tuple(_dot(a, col) for col in zip(*(u for _, u in degrees))) for a in poly)
            require(list(value) == rel["degree"][1], f"relation {rel['poly']!r} value")
            term_weight = {a: _dot(a, weights) for a in poly}
            heaviest = max(term_weight.values())
            require(rel["weight"] == heaviest, "relation weight")
            initial = parse(rel["initial"], labels, q)
            require(initial == {a: c for a, c in poly.items() if term_weight[a] == heaviest},
                    f"initial form of {rel['poly']!r}")
            rees = parse(rel["rees"], labels + ["t"], q)
            at_one: dict = {}
            for e, c in rees.items():
                at_one[e[:-1]] = (at_one.get(e[:-1], 0) + c) % q
            require({a: c for a, c in at_one.items() if c} == poly,
                    f"Rees form of {rel['poly']!r} at t=1")
            at_zero = {e[:-1]: c for e, c in rees.items() if e[-1] == 0}
            require(at_zero == initial, f"Rees form of {rel['poly']!r} at t=0")

