"""Command line front end: parse a job, run the pipeline, emit one report.

Commands: nu, body, semigroup, check, degenerate.  Reports go to standard
output, diagnostics to standard error.  Exit codes: 0 success, 1 validation or
usage error, 2 resource cap exceeded, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .errors import InvariantError, ResourceCapError, ValidationError
from . import report as rpt
from .degeneration import (
    degenerate_section_space,
    degenerate_semigroup,
    flag_restriction_check,
    subsystem_compatibility,
)
from .jobs import JobSpec, fixture_names, jobspec_from_dict, jobspec_to_dict, load_fixture
from .polytopes import lattice_points, normalized_volume
from .semigroups import (
    build_gamma,
    check_degree_one_generation,
    gamma_from_generators,
    minimal_generators,
    okounkov_body_estimate,
    semigroup_normality_check,
)
from .valuation import nu, saturation_check

CHECKS = ("normality", "saturation", "restriction", "compatibility")


def _job_semigroup(job: JobSpec, max_degree: int | None = None):
    bound = max_degree if max_degree is not None else job.max_degree
    if job.is_abstract:
        return gamma_from_generators(
            job.generator_points(), bound, cap_monomials=job.cap_monomials
        )
    return build_gamma(
        job.section_space(), job.flag(), bound, cap_monomials=job.cap_monomials
    )


def _run_nu(job: JobSpec) -> dict:
    if job.is_abstract:
        raise ValidationError("valuations need polynomial sections, not generators")
    flag = job.flag()
    polys = job.parse_sections(job.sections)
    space = job.space_of(polys)
    rows = []
    for text, poly in zip(job.sections, polys):
        if poly.is_zero:
            raise ValidationError(f"section {text!r} is zero; valuation undefined")
        rows.append({"section": text, "value": rpt.point_list(nu(poly, flag))})
    return {
        "valuations": rows,
        "dimension": space.dimension,
        "image": sorted(rpt.point_list(p.leading_exponent()) for p in space.basis),
    }


def _run_body(job: JobSpec) -> dict:
    gamma = _job_semigroup(job)
    body = okounkov_body_estimate(gamma)
    payload = {
        "body": rpt.polytope_dict(body),
        "max_degree": gamma.max_degree,
        "estimate": "inner approximation; exact when generated in degree one up to the bound",
    }
    if all(c.denominator == 1 for v in body.vertices for c in v):
        payload["normalized_volume"] = normalized_volume(body, job.cap_monomials)
        payload["lattice_count"] = len(lattice_points(body, 1, job.cap_monomials))
    return payload


def _run_semigroup(job: JobSpec) -> dict:
    gamma = _job_semigroup(job)
    return {
        "semigroup": rpt.semigroup_dict(gamma),
        "minimal_generators": [rpt.graded_point(g) for g in minimal_generators(gamma)],
        "generation": rpt.generation_dict(check_degree_one_generation(gamma)),
    }


def _run_degenerate(job: JobSpec) -> dict:
    if job.is_abstract:
        report = degenerate_semigroup(
            job.generator_points(),
            job.max_degree,
            job.relation_degree,
            matrix_cap=job.cap_matrix,
            cap_monomials=job.cap_monomials,
        )
    else:
        report = degenerate_section_space(
            job.section_space(),
            job.flag(),
            job.max_degree,
            job.relation_degree,
            cap_monomials=job.cap_monomials,
            matrix_cap=job.cap_matrix,
        )
    return rpt.degeneration_dict(report)


def _run_check(what: str, job: JobSpec) -> dict:
    if what == "normality":
        dim = len(job.semigroup_generators[0]) - 1 if job.is_abstract else len(job.variables)
        gamma = _job_semigroup(job, max(job.max_degree, dim))
        record = semigroup_normality_check(gamma, job.cap_monomials)
        return {"normality": rpt.normality_dict(record)}
    if what == "saturation":
        if job.is_abstract:
            raise ValidationError("saturation checks need polynomial sections")
        if job.orders is None:
            raise ValidationError("saturation checks need prescribed orders")
        record = saturation_check(job.section_space(), job.flag(), job.orders)
        return {"saturation": rpt.saturation_dict(record), "orders": list(job.orders)}
    if what == "restriction":
        if job.is_abstract:
            raise ValidationError("restriction checks need polynomial sections")
        if job.restriction_index is None:
            raise ValidationError("restriction checks need a restriction index")
        record = flag_restriction_check(
            job.section_space(),
            job.flag(),
            job.restriction_index,
            job.max_degree,
            cap_monomials=job.cap_monomials,
        )
        return {
            "restriction_index": job.restriction_index,
            "face": rpt.polytope_dict(record.face),
            "restricted_body": rpt.polytope_dict(record.restricted_body),
            "match": record.match,
            "checked_degree": record.checked_degree,
        }
    if what == "compatibility":
        if job.is_abstract:
            raise ValidationError("compatibility checks need polynomial sections")
        if not job.subsystem:
            raise ValidationError("compatibility checks need subsystem sections")
        record = subsystem_compatibility(
            job.subsystem_space(),
            job.section_space(),
            job.flag(),
            job.max_degree,
            job.relation_degree,
            cap_monomials=job.cap_monomials,
            matrix_cap=job.cap_matrix,
        )
        return {
            "shared_pi": rpt.weight_vector_dict(record.shared_pi),
            "body_inclusion": record.body_inclusion,
            "checked_degree": record.checked_degree,
            "relation_degree": record.relation_degree,
        }
    raise ValidationError(f"unknown check {what!r}; known: {', '.join(CHECKS)}")


def run(command: str, job: JobSpec, what: str | None = None) -> dict:
    """Execute one command on a validated job and assemble the full report."""
    if command == "nu":
        payload = _run_nu(job)
    elif command == "body":
        payload = _run_body(job)
    elif command == "semigroup":
        payload = _run_semigroup(job)
    elif command == "degenerate":
        payload = _run_degenerate(job)
    elif command == "check":
        if what is None:
            raise ValidationError("check needs one of: " + ", ".join(CHECKS))
        payload = _run_check(what, job)
    else:
        raise ValidationError(f"unknown command {command!r}")
    report = {
        "tool": {"name": "okv", "version": __version__},
        "command": command if what is None else f"{command} {what}",
        "job": jobspec_to_dict(job),
        "result": payload,
        "caveats": [
            f"all statements are truncation-bounded at degree {job.max_degree}"
            + (
                f" (relations at degree {job.relation_degree})"
                if job.relation_degree is not None
                else ""
            )
        ],
    }
    return report


def _load_job(args) -> JobSpec:
    if args.fixture and args.input:
        raise ValidationError("give either a fixture name or an input file, not both")
    if args.fixture:
        job = load_fixture(args.fixture, args.max_degree)
    elif args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ValidationError(f"cannot read input file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed input file: {exc}") from exc
        job = jobspec_from_dict(raw)
    else:
        raise ValidationError("a job is required: --fixture NAME or --input FILE")
    overrides = {}
    if args.max_degree is not None:
        overrides["max_degree"] = args.max_degree
    if args.relation_degree is not None:
        overrides["relation_degree"] = args.relation_degree
    if args.cap_monomials is not None:
        overrides["cap_monomials"] = args.cap_monomials
    if args.cap_matrix is not None:
        overrides["cap_matrix"] = args.cap_matrix
    if getattr(args, "restriction_index", None) is not None:
        overrides["restriction_index"] = args.restriction_index
    if getattr(args, "orders", None):
        try:
            overrides["orders"] = tuple(int(c) for c in args.orders.split(","))
        except ValueError as exc:
            raise ValidationError(f"--orders must be integers, got {args.orders!r}") from exc
    if getattr(args, "subsystem", None):
        overrides["subsystem"] = tuple(
            s.strip() for s in args.subsystem.split(";") if s.strip()
        )
    if overrides:
        from dataclasses import replace

        job = replace(job, **overrides)
    return job


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other malformed input, since exit 2
    means stopped early at a cap.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every `main`."""
    parser = _Parser(
        prog="okv",
        description=(
            "Exact flag valuations, graded value semigroups, Okounkov bodies, "
            "and toric degenerations for polynomial linear systems."
        ),
    )
    parser.add_argument("--version", action="version", version=f"okv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--fixture", help="named example: " + ", ".join(fixture_names()))
        p.add_argument("--input", help="job description file (JSON-shaped)")
        p.add_argument("--max-degree", type=int, dest="max_degree")
        p.add_argument("--relation-degree", type=int, dest="relation_degree")
        p.add_argument("--cap-monomials", type=int, dest="cap_monomials")
        p.add_argument("--cap-matrix", type=int, dest="cap_matrix")
        p.add_argument(
            "--format", choices=("json", "text"), default="json", dest="format"
        )

    for name, helptext in (
        ("nu", "valuations of the given sections"),
        ("body", "convex body estimate of the value semigroup"),
        ("semigroup", "slices, minimal generators, and the generation report"),
        ("degenerate", "presentation, relations, weight vector, flatness report"),
    ):
        p = sub.add_parser(name, help=helptext)
        common(p)

    p = sub.add_parser("check", help="normality / saturation / restriction / compatibility")
    p.add_argument("what", choices=CHECKS)
    common(p)
    p.add_argument("--restriction-index", type=int, dest="restriction_index")
    p.add_argument("--orders", help="comma-separated vanishing orders, e.g. 2,0")
    p.add_argument("--subsystem", help="semicolon-separated subsystem sections")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        job = _load_job(args)
        report = run(args.command, job, getattr(args, "what", None))
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"error: resource-cap: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: internal-invariant: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - surfaced as an internal bug
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return 3
    if args.format == "text":
        print(rpt.render_text(report))
    else:
        print(json.dumps(report, indent=2, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
