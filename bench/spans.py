"""Per-layer spans recorded from outside okv.

`Tracer.install()` wraps public okv functions and rebinds each wrapped name
in every okv module that holds it, so calls between okv modules go through
the wrapper too.  A wrapper records one span per call: its count, its self
time (the span minus the spans of wrapped calls made inside it) and sizes
taken from its arguments and result.  Spans are aggregated in memory per
job and read out when the run ends; `uninstall()` restores every name.

A target missing from okv is reported on a "# warning" line and its
metrics are left out of the result: they are unmeasured, not 0.
"""

from __future__ import annotations

import sys
import time
from math import ceil, floor


def _points_in(args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    return len(points) if hasattr(points, "__len__") else 0


def _vertices_out(args, kwargs, result):
    return len(result.vertices)


def _box_points(args, kwargs, result):
    poly = args[0] if args else kwargs["poly"]
    dilation = args[1] if len(args) > 1 else kwargs.get("dilation", 1)
    if not poly.vertices:
        return 0
    count = 1
    for i in range(poly.ambient_dim):
        lo = ceil(min(v[i] for v in poly.vertices) * dilation)
        hi = floor(max(v[i] for v in poly.vertices) * dilation)
        count *= max(hi - lo + 1, 0)
    return count


def _slice_points(args, kwargs, result):
    semigroup = args[0] if args else kwargs["semigroup"]
    return sum(len(s) for s in semigroup.slices[1:])


def _cells(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    return len(rows) * ncols


def _terms_in(args, kwargs, result):
    spanning = args[0] if args else kwargs["spanning"]
    return sum(len(p.terms) for p in spanning)


# (okv module, attribute, metric prefix, ((size name, size function), ...))
TARGETS = (
    ("polytopes", "in_convex_hull", "polytopes.in_convex_hull", ()),
    ("polytopes", "convex_hull", "polytopes.convex_hull",
     (("points_in", _points_in), ("vertices_out", _vertices_out))),
    ("polytopes", "lattice_points", "polytopes.lattice_points", (("box_points", _box_points),)),
    ("polytopes", "polytope_from_halfspaces", "polytopes.polytope_from_halfspaces", ()),
    ("semigroups", "okounkov_body_estimate", "semigroups.okounkov_body_estimate",
     (("points_in", _slice_points),)),
    ("semigroups", "build_gamma", "semigroups.build_gamma", ()),
    ("semigroups", "minimal_generators", "semigroups.minimal_generators", ()),
    ("semigroups", "check_degree_one_generation", "semigroups.check_degree_one_generation", ()),
    ("linalg", "rref", "linalg.rref", (("cells", _cells),)),
    ("linalg", "nullspace", "linalg.nullspace", ()),
    ("linalg", "solve_unique", "linalg.solve_unique", ()),
    ("degeneration", "kernel_ideal_truncated", "degeneration.kernel_ideal_truncated", ()),
    ("degeneration", "flatness_report", "degeneration.flatness_report", ()),
    ("degeneration", "choose_weight_vector", "degeneration.choose_weight_vector", ()),
    ("degeneration", "rees_relations", "degeneration.rees_relations", ()),
    ("degeneration", "build_presentation", "degeneration.build_presentation", ()),
    ("spaces", "product_space", "spaces.product_space", ()),
    ("spaces", "reduce_to_basis", "spaces.reduce_to_basis", (("terms_in", _terms_in),)),
    ("polynomials", "Polynomial.__mul__", "polynomials.mul", ()),
    ("polynomials", "parse_polynomial", "polynomials.parse_polynomial", ()),
    ("cli", "main", "cli.main", ()),
)

FP_CREATED = "fields.fp_elements.created"


def metric_names() -> list:
    """(name, unit) of every per-layer metric the tracer yields."""
    out = []
    for _, _, prefix, sizes in TARGETS:
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
        out += [(f"{prefix}.{size}", "count") for size, _ in sizes]
    out.append((FP_CREATED, "count"))
    return out


class Tracer:
    """Aggregated spans: per metric prefix, calls, raw self seconds and sizes."""

    def __init__(self):
        self.stack: list = []
        self.totals: dict = {}
        self.restore: list = []
        self.missing: list = []

    def measured_names(self) -> list:
        """metric_names() less those of targets that could not be wrapped."""
        return [(name, unit) for name, unit in metric_names()
                if not any(name.startswith(prefix + ".") for prefix in self.missing)]

    def reset(self) -> None:
        self.totals = {name: 0 for name, _ in metric_names()}

    def _wrap(self, original, prefix, sizes):
        stack, clock = self.stack, time.perf_counter
        calls, self_s = f"{prefix}.calls", f"{prefix}.self_s"
        size_keys = [(f"{prefix}.{name}", fn) for name, fn in sizes]

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                totals = self.totals
                totals[calls] += 1
                totals[self_s] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            for key, fn in size_keys:
                totals[key] += fn(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        self.reset()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "okv" or name.startswith("okv."))]
        for module_name, attr, prefix, sizes in TARGETS:
            module = sys.modules.get(f"okv.{module_name}")
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name, None)
                original = getattr(owner, method, None)
                if original is None:
                    self._missing(f"okv.{module_name}.{attr}", prefix)
                    continue
                setattr(owner, method, self._wrap(original, prefix, sizes))
                self.restore.append((owner, method, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self._missing(f"okv.{module_name}.{attr}", prefix)
                continue
            wrapper = self._wrap(original, prefix, sizes)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self.restore.append((holder, name, original))
        fields = sys.modules.get("okv.fields")
        element = getattr(fields, "FpElement", None)
        if element is not None and "__init__" in vars(element):
            init = element.__init__

            def counting_init(obj, *args, **kwargs):
                self.totals[FP_CREATED] += 1
                init(obj, *args, **kwargs)

            element.__init__ = counting_init
            self.restore.append((element, "__init__", init))
        else:
            self._missing("okv.fields.FpElement.__init__", FP_CREATED.rsplit(".", 1)[0])

    def _missing(self, target: str, prefix: str) -> None:
        print(f"# warning: {target} not found; its metrics are left out")
        self.missing.append(prefix)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self.restore):
            setattr(holder, name, original)
        self.restore.clear()
