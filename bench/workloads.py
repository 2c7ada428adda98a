"""The benchmark's workloads: which okv CLI jobs each one runs.

A job is one okv command line.  Fixture jobs name an okv fixture; the modp
jobs are job files written from the seed (random nonzero coefficients on the
fixtures' monomial supports, over F_p).  The seed also fixes the order of
the jobs in every timed round.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

MODP_PRIME = 32003

_OPTION_FLAGS = {
    "max_degree": "--max-degree",
    "relation_degree": "--relation-degree",
    "restriction_index": "--restriction-index",
}


@dataclass(frozen=True)
class Job:
    name: str
    command: tuple
    fixture: str | None = None
    document: dict | None = None
    options: dict = field(default_factory=dict)

    def argv(self, workdir: str) -> list:
        out = list(self.command)
        if self.fixture is not None:
            out += ["--fixture", self.fixture]
        else:
            out += ["--input", self.path(workdir)]
        for key, value in self.options.items():
            out += [_OPTION_FLAGS[key], str(value)]
        return out

    def path(self, workdir: str) -> str:
        return os.path.join(workdir, self.name.replace("/", "_") + ".json")


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    largest: str


def _fixture(command: str, fixture: str, tag: str, **options) -> Job:
    short = {
        "bott-samelson-u": "bsu", "bott-samelson-m": "bsm",
        "counterexample-p1xp1": "p1xp1", "elliptic-good": "eg", "elliptic-bad": "eb",
        "hirzebruch-trapezoid": "hirz", "abelian-trapezoid": "abel",
    }[fixture]
    return Job(f"{command.replace(' ', '-')}/{short}/{tag}", tuple(command.split()),
               fixture=fixture, options=options)


def _hull() -> tuple:
    return (
        _fixture("body", "bott-samelson-u", "M2", max_degree=2),
        _fixture("body", "bott-samelson-u", "M3", max_degree=3),
        _fixture("body", "bott-samelson-m", "M2", max_degree=2),
        _fixture("body", "counterexample-p1xp1", "M2", max_degree=2),
        _fixture("body", "counterexample-p1xp1", "M4", max_degree=4),
        _fixture("body", "hirzebruch-trapezoid", "M2", max_degree=2),
        _fixture("body", "abelian-trapezoid", "M2", max_degree=2),
        _fixture("check normality", "bott-samelson-u", "M3", max_degree=3),
        _fixture("check normality", "counterexample-p1xp1", "M2", max_degree=2),
        _fixture("check normality", "hirzebruch-trapezoid", "M2", max_degree=2),
        _fixture("check normality", "abelian-trapezoid", "M2", max_degree=2),
        _fixture("check restriction", "bott-samelson-m", "M2", max_degree=2, restriction_index=1),
        _fixture("check restriction", "counterexample-p1xp1", "M2", max_degree=2,
                 restriction_index=1),
    )


def _kernel() -> tuple:
    return (
        _fixture("degenerate", "elliptic-bad", "M5", max_degree=5),
        _fixture("degenerate", "elliptic-bad", "M6", max_degree=6),
        _fixture("degenerate", "elliptic-good", "R8", relation_degree=8),
        _fixture("degenerate", "hirzebruch-trapezoid", "M2", max_degree=2),
        _fixture("degenerate", "abelian-trapezoid", "M2", max_degree=2),
        _fixture("degenerate", "counterexample-p1xp1", "R4", relation_degree=4),
        _fixture("degenerate", "counterexample-p1xp1", "R5", relation_degree=5),
    )


def _tower() -> tuple:
    return (
        _fixture("semigroup", "bott-samelson-u", "M5", max_degree=5),
        _fixture("semigroup", "bott-samelson-u", "M6", max_degree=6),
        _fixture("semigroup", "bott-samelson-u", "M7", max_degree=7),
        _fixture("semigroup", "bott-samelson-m", "M5", max_degree=5),
        _fixture("semigroup", "counterexample-p1xp1", "M10", max_degree=10),
        _fixture("degenerate", "bott-samelson-u", "M6-R2", max_degree=6, relation_degree=2),
    )


# Monomial supports of the section fixtures, one list of monomials per section.
_BSU = (("1",), ("x",), ("y",), ("z",), ("x*z",), ("y*z",), ("x^2*z", "x*y"),
        ("x*y*z", "y^2"))
_SUPPORTS = {
    "bsu": (("x", "y", "z"), _BSU),
    "bsm": (("x", "y", "z"), _BSU + tuple(tuple(f"x*{m}" for m in s) for s in _BSU)),
    "p1xp1": (("x", "y"), (("1",), ("x",), ("y", "x*y^3"), ("x*y",))),
}


def _modp(seed: int) -> tuple:
    rng = random.Random(seed)
    systems = {}
    for short, (variables, supports) in _SUPPORTS.items():
        sections = [" + ".join(f"{rng.randrange(1, MODP_PRIME)}*{m}" for m in s)
                    for s in supports]
        systems[short] = {"field": {"Fp": MODP_PRIME}, "variables": list(variables),
                          "sections": sections}

    def job(command, short, tag, **degrees):
        return Job(f"{command}/{short}-F{MODP_PRIME}/{tag}", (command,),
                   document={**systems[short], **degrees})

    return (
        job("semigroup", "bsu", "M5", max_degree=5),
        job("semigroup", "bsu", "M6", max_degree=6),
        job("semigroup", "bsu", "M7", max_degree=7),
        job("semigroup", "bsm", "M5", max_degree=5),
        job("semigroup", "p1xp1", "M10", max_degree=10),
        job("degenerate", "bsu", "M6-R2", max_degree=6, relation_degree=2),
        job("degenerate", "p1xp1", "R5", max_degree=2, relation_degree=5),
    )


def build(name: str, seed: int) -> Workload:
    if name == "hull":
        return Workload(name, _hull(), "body/bsu/M3")
    if name == "kernel":
        return Workload(name, _kernel(), "degenerate/eb/M6")
    if name == "tower":
        return Workload(name, _tower(), "semigroup/bsu/M7")
    if name == "modp":
        return Workload(name, _modp(seed), f"semigroup/bsu-F{MODP_PRIME}/M7")
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


NAMES = ("hull", "kernel", "tower", "modp")


def write_inputs(workload: Workload, workdir: str) -> None:
    for job in workload.jobs:
        if job.document is not None:
            with open(job.path(workdir), "w", encoding="utf-8") as handle:
                json.dump(job.document, handle, indent=1)


# Tiny jobs, one per code path, run once before the first measured pass so
# that lazy imports and compiled patterns do not count in its peaks.
WARMUP = (
    ("body", "--fixture", "counterexample-p1xp1", "--max-degree", "1"),
    ("semigroup", "--fixture", "counterexample-p1xp1", "--max-degree", "2"),
    ("degenerate", "--fixture", "elliptic-good", "--relation-degree", "3"),
    ("degenerate", "--fixture", "counterexample-p1xp1", "--relation-degree", "2"),
    ("check", "normality", "--fixture", "counterexample-p1xp1"),
    ("check", "restriction", "--fixture", "counterexample-p1xp1", "--restriction-index", "1"),
)
WARMUP_FP_DOCUMENT = {
    "field": {"Fp": MODP_PRIME}, "variables": ["x", "y"],
    "sections": ["1", "2*x", "3*y + x*y^3", "x*y"], "max_degree": 2, "relation_degree": 3,
}
