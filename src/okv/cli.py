"""Command line front end: parse a job, run the pipeline, emit one report.

Commands are listed in `COMMANDS`.  Reports go to standard output, diagnostics
to standard error.  The exit code is 0 on success, 1 on a usage error, 3 when
standard output closes before the report is written, and otherwise the
`exit_code` of the `errors` class raised (3 for any other bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .errors import OkvError, ValidationError
from . import report as rpt
from .degeneration import (
    degenerate_section_space,
    degenerate_semigroup,
    flag_restriction_check,
    subsystem_compatibility,
)
from .jobs import INT_FIELDS, JobSpec, fixture_names, load_fixture
from .jobs import jobspec_from_dict, jobspec_to_dict
from .polytopes import lattice_count, normalized_volume
from .semigroups import (
    build_gamma,
    check_degree_one_generation,
    gamma_from_generators,
    minimal_generators,
    okounkov_body_estimate,
    semigroup_normality_check,
)
from .valuation import nu, nu_image, saturation_check

CHECKS = ("normality", "saturation", "restriction", "compatibility")


def _job_semigroup(job: JobSpec, max_degree: int | None = None):
    bound = max_degree if max_degree is not None else job.max_degree
    if job.is_abstract:
        return gamma_from_generators(
            job.generator_points(), bound, cap_monomials=job.cap_monomials
        )
    return build_gamma(job.section_space(), bound, cap_monomials=job.cap_monomials)


def _run_nu(job: JobSpec) -> dict:
    if job.is_abstract:
        raise ValidationError("valuations need polynomial sections, not generators")
    polys = job.parse_sections(job.sections)
    space = job.space_of(polys)
    rows = []
    for text, poly in zip(job.sections, polys):
        if poly.is_zero:
            raise ValidationError(f"section {text!r} is zero; valuation undefined")
        rows.append({"section": text, "value": rpt.point_list(nu(poly))})
    return {
        "valuations": rows,
        "dimension": space.dimension,
        "image": sorted(nu_image(space)),
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
        count = lattice_count(body, 1, job.cap_monomials)
        payload["normalized_volume"] = normalized_volume(body, job.cap_monomials, [count])
        payload["lattice_count"] = count
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
            cap_monomials=job.cap_monomials,
            matrix_cap=job.cap_matrix,
        )
    else:
        report = degenerate_section_space(
            job.section_space(),
            job.max_degree,
            job.relation_degree,
            cap_monomials=job.cap_monomials,
            matrix_cap=job.cap_matrix,
        )
    return rpt.degeneration_dict(report)


def _run_check(job: JobSpec, what: str | None) -> dict:
    if what not in CHECKS:
        raise ValidationError(f"check needs one of: {', '.join(CHECKS)}; got {what!r}")
    if what != "normality" and job.is_abstract:
        raise ValidationError(f"{what} checks need polynomial sections")
    if what == "normality":
        dim = len(job.semigroup_generators[0]) - 1 if job.is_abstract else len(job.variables)
        gamma = _job_semigroup(job, max(job.max_degree, dim))
        record = semigroup_normality_check(gamma, job.cap_monomials)
        return {"normality": rpt.normality_dict(record)}
    if what == "saturation":
        if job.orders is None:
            raise ValidationError("saturation checks need prescribed orders")
        record = saturation_check(job.section_space(), job.orders)
        return {"saturation": rpt.saturation_dict(record), "orders": list(job.orders)}
    if what == "restriction":
        if job.restriction_index is None:
            raise ValidationError("restriction checks need a restriction index")
        record = flag_restriction_check(
            job.section_space(),
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
    # what == "compatibility"
    if not job.subsystem:
        raise ValidationError("compatibility checks need subsystem sections")
    record = subsystem_compatibility(
        job.subsystem_space(),
        job.section_space(),
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


# Each subcommand: its handler and its help line, in the order `--help` lists them.
COMMANDS = {
    "nu": (_run_nu, "valuations of the given sections"),
    "body": (_run_body, "convex body estimate of the value semigroup"),
    "semigroup": (_run_semigroup, "slices, minimal generators, and the generation report"),
    "degenerate": (_run_degenerate, "presentation, relations, weight vector, flatness report"),
    "check": (_run_check, "normality / saturation / restriction / compatibility"),
}


def run(command: str, job: JobSpec, what: str | None = None) -> dict:
    """Execute one command on a validated job and assemble the full report."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    handler = COMMANDS[command][0]
    payload = handler(job, what) if command == "check" else handler(job)
    return {
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
    flags = vars(args)
    overrides = {name: flags[name] for name in INT_FIELDS if flags.get(name) is not None}
    if flags.get("orders"):
        try:
            overrides["orders"] = tuple(int(c) for c in args.orders.split(","))
        except ValueError as exc:
            raise ValidationError(f"--orders must be integers, got {args.orders!r}") from exc
    if flags.get("subsystem"):
        overrides["subsystem"] = tuple(
            s.strip() for s in args.subsystem.split(";") if s.strip()
        )
    if overrides:
        job = job._replace(**overrides)
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

    def int_flags(p, names):
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), type=int, dest=name)

    def common(p):
        p.add_argument("--fixture", help="named example: " + ", ".join(fixture_names()))
        p.add_argument("--input", help="job description file (JSON-shaped)")
        int_flags(p, [name for name in INT_FIELDS if name != "restriction_index"])
        p.add_argument(
            "--format", choices=("json", "text"), default="json", dest="format"
        )

    for name, (_, helptext) in COMMANDS.items():
        common(sub.add_parser(name, help=helptext))
    p = sub.choices["check"]
    p.add_argument("what", choices=CHECKS)
    int_flags(p, ["restriction_index"])
    p.add_argument("--orders", help="comma-separated vanishing orders, e.g. 2,0")
    p.add_argument("--subsystem", help="semicolon-separated subsystem sections")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        job = _load_job(args)
        report = run(args.command, job, getattr(args, "what", None))
        text = rpt.render_text(report) if args.format == "text" else rpt.to_json(report)
    except OkvError as exc:
        print(f"error: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - surfaced as an internal bug
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return 3
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone; point the descriptor at the null device so the
        # flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output: standard output closed before the report was written",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
