"""Command line behavior: payloads, determinism, exit codes, file input."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import okv
from okv import cli, jobs, polytopes
from okv.cli import main, run
from okv.errors import InvariantError, ResourceCapError, ValidationError
from okv.jobs import JobSpec, jobspec_from_dict, jobspec_to_dict, load_fixture


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nu_eight_row_table(capsys):
    code, out, err = run_main(capsys, "nu", "--fixture", "bott-samelson-u")
    assert code == 0 and not err
    report = json.loads(out)
    table = {row["section"]: tuple(row["value"]) for row in report["result"]["valuations"]}
    assert table == {
        "1": (0, 0, 0),
        "x": (1, 0, 0),
        "y": (0, 1, 0),
        "z": (0, 0, 1),
        "x*z": (1, 0, 1),
        "y*z": (0, 1, 1),
        "x^2*z + x*y": (1, 1, 0),
        "x*y*z + y^2": (0, 2, 0),
    }


def test_semigroup_counterexample_payload(capsys):
    code, out, _ = run_main(
        capsys, "semigroup", "--fixture", "counterexample-p1xp1", "--max-degree", "2"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["semigroup"]["hilbert"] == [1, 4, 10]
    assert result["generation"]["status"] == "strict-growth"
    assert result["generation"]["witness"] == [2, [2, 3]]


def test_body_elliptic_good(capsys):
    code, out, _ = run_main(capsys, "body", "--fixture", "elliptic-good")
    assert code == 0
    body = json.loads(out)["result"]["body"]
    assert body["vertices"] == [["0"], ["3"]]


def test_degenerate_elliptic_good(capsys):
    code, out, _ = run_main(capsys, "degenerate", "--fixture", "elliptic-good")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["flatness"]["verdict"] is True
    assert [r["quotient_dim"] for r in result["flatness"]["rows"]] == [1, 3, 6, 9]
    assert len(result["presentation"]["generators"]) == 3


def test_check_normality_elliptic_good(capsys):
    code, out, _ = run_main(capsys, "check", "normality", "--fixture", "elliptic-good")
    assert code == 0
    record = json.loads(out)["result"]["normality"]
    assert record["normal"] is False
    assert record["missing"] == [[2]]


def test_check_restriction(capsys):
    code, out, _ = run_main(
        capsys,
        "check",
        "restriction",
        "--fixture",
        "bott-samelson-u",
        "--restriction-index",
        "1",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["match"] is True
    assert result["restricted_body"]["vertices"] == [
        ["0", "0"],
        ["0", "1"],
        ["1", "1"],
        ["2", "0"],
    ]


def test_check_compatibility(capsys):
    code, out, _ = run_main(
        capsys,
        "check",
        "compatibility",
        "--fixture",
        "counterexample-p1xp1",
        "--subsystem",
        "1; x; x*y",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["body_inclusion"] is True


def test_reports_are_byte_identical(capsys):
    first = run_main(capsys, "semigroup", "--fixture", "hirzebruch-trapezoid")
    second = run_main(capsys, "semigroup", "--fixture", "hirzebruch-trapezoid")
    assert first == second


def test_unknown_fixture_exits_one(capsys):
    code, out, err = run_main(capsys, "nu", "--fixture", "missing")
    assert code == 1 and not out and "validation" in err


def test_undeclared_variable_exits_one(tmp_path, capsys):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(
        json.dumps(
            {"variables": ["x", "y"], "sections": ["x*q"], "max_degree": 1}
        ),
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "nu", "--input", str(jobfile))
    assert code == 1 and "undeclared" in err


def test_resource_cap_exits_two(tmp_path, capsys):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(
        json.dumps(
            {
                "variables": ["x", "y"],
                "sections": ["1 + x + y", "x + x*y", "y + x^2"],
                "max_degree": 6,
                "cap_monomials": 4,
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "semigroup", "--input", str(jobfile))
    assert code == 2 and "resource-cap" in err


def test_unknown_job_keys_rejected():
    with pytest.raises(ValidationError, match="unknown job keys"):
        jobspec_from_dict({"variables": ["x"], "sections": ["x"], "surprise": 1})


def test_job_needs_exactly_one_source():
    with pytest.raises(ValidationError):
        jobspec_from_dict({"variables": ["x"]})
    with pytest.raises(ValidationError):
        jobspec_from_dict(
            {
                "variables": ["x"],
                "sections": ["x"],
                "semigroup_generators": [[1, 0]],
            }
        )


def test_job_roundtrip_through_dict():
    job = load_fixture("counterexample-p1xp1")
    again = jobspec_from_dict(jobspec_to_dict(job))
    assert again == job
    # Sections and generators exclude each other, so two jobs set all 14 fields.
    expected = {
        "field": {"Fp": 7},
        "variables": ["x", "y"],
        "sections": ["1", "x"],
        "max_degree": 3,
        "relation_degree": 2,
        "cap_monomials": 50,
        "cap_matrix": 60,
        "restriction_index": 1,
        "orders": [1, 0],
        "subsystem": ["1"],
        "change_of_coordinates": [["1", "0"], ["0", "1"]],
        "fixture": "a-fixture",
        "description": "a description",
    }
    sections_job = JobSpec(
        field_spec={"Fp": 7},
        variables=("x", "y"),
        sections=("1", "x"),
        max_degree=3,
        relation_degree=2,
        cap_monomials=50,
        cap_matrix=60,
        restriction_index=1,
        orders=(1, 0),
        subsystem=("1",),
        change_of_coordinates=(("1", "0"), ("0", "1")),
        fixture="a-fixture",
        description="a description",
    )
    generators_job = JobSpec(
        semigroup_generators=((1, 0), (1, 1)), fixture="a-fixture"
    )
    raw = jobspec_to_dict(sections_job)
    assert list(raw) == list(expected) and raw == expected
    assert jobspec_to_dict(generators_job) == {
        "field": "Q",
        "semigroup_generators": [[1, 0], [1, 1]],
        "max_degree": 2,
        "cap_monomials": generators_job.cap_monomials,
        "cap_matrix": generators_job.cap_matrix,
        "fixture": "a-fixture",
    }
    for job in (sections_job, generators_job):
        assert jobspec_from_dict(json.loads(json.dumps(jobspec_to_dict(job)))) == job


@pytest.mark.parametrize(
    "error, code, line",
    [
        (ValidationError("bad input"), 1, "error: validation: bad input"),
        (ResourceCapError("too big"), 2, "error: resource-cap: too big"),
        (InvariantError("broken"), 3, "error: internal-invariant: broken"),
        (RuntimeError("oops"), 3, "error: internal: RuntimeError('oops')"),
    ],
    ids=["validation", "resource-cap", "invariant", "other"],
)
def test_error_class_sets_exit_code_and_stderr_line(error, code, line, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run", failing)
    assert run_main(capsys, "nu", "--fixture", "bott-samelson-u") == (code, "", line + "\n")


def test_unencodable_report_exits_three_and_prints_nothing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: {"result": 1.5})
    code, out, err = run_main(capsys, "nu", "--fixture", "bott-samelson-u")
    assert code == 3 and out == ""
    assert err.startswith("error: internal: TypeError(")


def test_zeroth_power_of_zero_over_a_prime_field(tmp_path, capsys):
    job = {"field": {"Fp": 7}, "variables": ["x", "y"], "max_degree": 2}
    for command in ("semigroup", "body", "degenerate"):
        results = []
        for first in ("0^0 + x", "(x-x)^0 + x", "1 + x"):
            job["sections"] = [first, "x", "y"]
            code, out, err = run_job_file(tmp_path, capsys, job, command)
            assert code == 0 and not err
            results.append(json.loads(out)["result"])
        assert results[0] == results[1] == results[2]


def test_prime_field_job(tmp_path, capsys):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(
        json.dumps(
            {
                "field": {"Fp": 7},
                "variables": ["x", "y"],
                "sections": ["1", "x", "y + x*y^3", "x*y"],
                "max_degree": 2,
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run_main(capsys, "semigroup", "--input", str(jobfile))
    assert code == 0
    assert json.loads(out)["result"]["semigroup"]["hilbert"] == [1, 4, 10]


def test_change_of_coordinates(tmp_path, capsys):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(
        json.dumps(
            {
                "variables": ["x", "y"],
                "sections": ["x", "y"],
                "max_degree": 1,
                "change_of_coordinates": [["1", "1"], ["0", "1"]],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run_main(capsys, "nu", "--input", str(jobfile))
    assert code == 0
    table = {
        row["section"]: tuple(row["value"])
        for row in json.loads(out)["result"]["valuations"]
    }
    # x maps to x + y, so its valuation drops to the y-axis point
    assert table == {"x": (0, 1), "y": (0, 1)}


def test_singular_coordinate_change_rejected(tmp_path, capsys):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(
        json.dumps(
            {
                "variables": ["x", "y"],
                "sections": ["x", "y"],
                "max_degree": 1,
                "change_of_coordinates": [["1", "1"], ["2", "2"]],
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "nu", "--input", str(jobfile))
    assert code == 1 and "invertible" in err


def test_run_api_matches_cli(capsys):
    job = load_fixture("elliptic-good")
    direct = run("body", job)
    code, out, _ = run_main(capsys, "body", "--fixture", "elliptic-good")
    assert json.loads(out) == direct


def test_elliptic_bad_fixture_scales_with_degree():
    assert len(load_fixture("elliptic-bad", 4).semigroup_generators) == 6
    assert len(load_fixture("elliptic-bad", 8).semigroup_generators) == 10


def test_empty_fixture_name_rejected():
    with pytest.raises(ValidationError, match="unknown fixture"):
        load_fixture("")


def test_matrix_cap_flag_exits_two(capsys):
    code, out, err = run_main(
        capsys, "degenerate", "--fixture", "elliptic-good", "--cap-matrix", "10"
    )
    assert code == 2 and "resource-cap" in err


def test_relation_degree_flag_overrides_fixture(capsys):
    code, out, _ = run_main(
        capsys, "degenerate", "--fixture", "elliptic-good", "--relation-degree", "4"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["relation_degree"] == 4
    assert [r["degree"] for r in result["flatness"]["rows"]] == [0, 1, 2, 3, 4]


def run_job_file(tmp_path, capsys, job, command="nu"):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(json.dumps(job), encoding="utf-8")
    return run_main(capsys, command, "--input", str(jobfile))


def assert_validation_exit(code, out, err):
    assert code == 1 and not out
    assert any(line.startswith("error: validation:") for line in err.splitlines())


def test_string_max_degree_exits_one(tmp_path, capsys):
    job = {"variables": ["x"], "sections": ["x"], "max_degree": "abc"}
    assert_validation_exit(*run_job_file(tmp_path, capsys, job))


def test_boolean_max_degree_exits_one(tmp_path, capsys):
    job = {"variables": ["x"], "sections": ["x"], "max_degree": True}
    assert_validation_exit(*run_job_file(tmp_path, capsys, job))


def test_bare_string_sections_exit_one(tmp_path, capsys):
    job = {"variables": ["x"], "sections": "x+1", "max_degree": 1}
    code, out, err = run_job_file(tmp_path, capsys, job)
    assert_validation_exit(code, out, err)
    assert "sections must be a list" in err


def test_non_integer_generator_entry_exits_one(tmp_path, capsys):
    job = {"semigroup_generators": [[1, 0], [1, "a"]], "max_degree": 2}
    assert_validation_exit(*run_job_file(tmp_path, capsys, job, "semigroup"))


def test_large_prime_modulus_runs_at_once(tmp_path, capsys):
    job = {"field": {"Fp": 2**61 - 1}, "variables": ["x"], "sections": ["x"],
           "max_degree": 1}
    start = time.perf_counter()
    code, out, err = run_job_file(tmp_path, capsys, job)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and not err
    assert json.loads(out)["result"]["dimension"] == 1


def test_modulus_of_2_to_the_64_or_more_exits_one(tmp_path, capsys):
    job = {"field": {"Fp": 2**64 + 13}, "variables": ["x"], "sections": ["x"],
           "max_degree": 1}
    code, out, err = run_job_file(tmp_path, capsys, job)
    assert_validation_exit(code, out, err)
    assert "modulus must be below 2**64" in err


def test_zero_denominator_in_prime_field_exits_one(tmp_path, capsys):
    job = {"field": {"Fp": 7}, "variables": ["x"], "sections": ["1/7*x"], "max_degree": 1}
    assert_validation_exit(*run_job_file(tmp_path, capsys, job))


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"fixture": 5}, "fixture must be a string, got 5"),
        ({"description": {"a": 1.5}}, "description must be a string, got {'a': 1.5}"),
        ({"description": None}, "description must be a string, got None"),
        ({"field": {"Fp": 7.0}}, 'field "Fp" must be an integer, got 7.0'),
        ({"field": {"Fp": True}}, 'field "Fp" must be an integer, got True'),
        ({"field": {"Fp": 7, "Q": 1}}, 'field must be "Q" or {"Fp": p}'),
        ({"field": "R"}, 'field must be "Q" or {"Fp": p}'),
        ({"field": ["Fp", 7]}, 'field must be "Q" or {"Fp": p}'),
    ],
    ids=["fixture-int", "description-dict", "description-null", "Fp-float", "Fp-bool",
         "field-extra-key", "field-name", "field-list"],
)
def test_echoed_job_fields_are_typed(extra, message, tmp_path, capsys):
    job = {"semigroup_generators": [[1, 0], [1, 1]], **extra}
    code, out, err = run_job_file(tmp_path, capsys, job, "semigroup")
    assert_validation_exit(code, out, err)
    assert message in err


def test_null_cap_exits_one(tmp_path, capsys):
    job = {"variables": ["x"], "sections": ["x"], "max_degree": 1, "cap_monomials": None}
    assert_validation_exit(*run_job_file(tmp_path, capsys, job))


def test_non_integer_orders_exit_one(capsys):
    code, out, err = run_main(
        capsys, "check", "saturation", "--fixture", "counterexample-p1xp1", "--orders", "a,b"
    )
    assert_validation_exit(code, out, err)
    assert "--orders" in err


def test_deep_nesting_exits_one(tmp_path, capsys):
    section = "(" * 3000 + "x" + ")" * 3000
    job = {"variables": ["x"], "sections": [section], "max_degree": 1}
    code, out, err = run_job_file(tmp_path, capsys, job)
    assert_validation_exit(code, out, err)
    assert "nested" in err


def test_non_rational_coordinate_change_exits_one(tmp_path, capsys):
    job = {
        "variables": ["x", "y"],
        "sections": ["x", "y"],
        "max_degree": 1,
        "change_of_coordinates": [["1", "a"], ["0", "1"]],
    }
    code, out, err = run_job_file(tmp_path, capsys, job)
    assert_validation_exit(code, out, err)
    assert "'a'" in err


def assert_cap_exit_within(seconds, code, out, err, started):
    assert time.perf_counter() - started < seconds
    assert code == 2 and not out
    assert any(line.startswith("error: resource-cap:") for line in err.splitlines())


def test_wide_generator_normality_exits_two_before_the_lattice_scan(tmp_path, capsys):
    jobfile = tmp_path / "job.json"
    job = {
        "semigroup_generators": [[1, 0, 0], [1, 400, 0], [1, 0, 400]],
        "cap_monomials": 10,
        "cap_matrix": 10,
    }
    jobfile.write_text(json.dumps(job), encoding="utf-8")
    started = time.perf_counter()
    result = run_main(capsys, "check", "normality", "--input", str(jobfile))
    assert_cap_exit_within(0.5, *result, started)
    assert "lattice scan box" in result[2]


def test_capped_power_exits_two_before_expanding(tmp_path, capsys):
    job = {"variables": ["x", "y"], "sections": ["(x+y+1)^60"], "cap_monomials": 10}
    started = time.perf_counter()
    result = run_job_file(tmp_path, capsys, job)
    assert_cap_exit_within(0.5, *result, started)
    assert "expanding a power" in result[2]


def test_capped_coordinate_change_exits_two_before_expanding(tmp_path, capsys):
    # x maps to x + y + z, and (x + y + z)^300 has 45451 terms
    job = {
        "variables": ["x", "y", "z"],
        "sections": ["x^300"],
        "change_of_coordinates": [["1", "1", "1"], ["0", "1", "0"], ["0", "0", "1"]],
        "max_degree": 1,
        "cap_monomials": 10,
    }
    started = time.perf_counter()
    result = run_job_file(tmp_path, capsys, job)
    assert_cap_exit_within(1.0, *result, started)
    assert "monomial cap" in result[2]


def test_the_flag_is_the_declared_variable_order(tmp_path, capsys):
    values = {}
    for variables in (("x", "y"), ("y", "x")):
        job = {"variables": list(variables), "sections": ["x + y^2"], "max_degree": 1}
        code, out, err = run_job_file(tmp_path, capsys, job)
        assert code == 0 and not err
        values[variables] = json.loads(out)["result"]["valuations"][0]["value"]
    assert values == {("x", "y"): [0, 2], ("y", "x"): [0, 1]}


@pytest.mark.parametrize("sections", [["x"], []], ids=["sections", "no-sections"])
@pytest.mark.parametrize("command", ["nu", "semigroup", "degenerate"])
def test_repeated_variable_names_exit_one(tmp_path, capsys, sections, command):
    job = {"variables": ["x", "x"], "sections": sections, "max_degree": 1}
    code, out, err = run_job_file(tmp_path, capsys, job, command)
    assert_validation_exit(code, out, err)
    assert "variable names must be nonempty and distinct" in err


@pytest.mark.parametrize("argv, message", [
    (["semigroup", "--fixture", "bott-samelson-u", "--max-degree", "two"], "invalid int value"),
    (["bogus"], "invalid choice"),
    (["check", "normality", "--fixture", "bott-samelson-u", "--frobnicate"],
     "unrecognized arguments"),
])
def test_usage_errors_exit_one(capsys, argv, message):
    # exit 2 is kept for a job stopped early at a cap
    with pytest.raises(SystemExit) as stop:
        main(argv)
    captured = capsys.readouterr()
    assert stop.value.code == 1 and not captured.out
    assert "usage: okv" in captured.err and message in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["degenerate", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0 and capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--cap-monomials", "-5"), ("--cap-monomials", "0")])
def test_monomial_cap_below_one_exits_one(capsys, flag, value):
    code, out, err = run_main(capsys, "semigroup", "--fixture", "bott-samelson-u", flag, value)
    assert_validation_exit(code, out, err)
    assert "cap_monomials must be at least 1" in err


def test_matrix_cap_below_one_exits_one(tmp_path, capsys):
    code, out, err = run_main(
        capsys, "semigroup", "--fixture", "bott-samelson-u", "--cap-matrix", "0"
    )
    assert_validation_exit(code, out, err)
    assert "cap_matrix must be at least 1" in err
    job = {"variables": ["x"], "sections": ["x"], "max_degree": 1, "cap_matrix": -1}
    code, out, err = run_job_file(tmp_path, capsys, job)
    assert_validation_exit(code, out, err)
    assert "cap_matrix must be at least 1" in err


def test_body_normalized_volume_keeps_the_job_monomial_cap(tmp_path, capsys, monkeypatch):
    # a 700 x 700 triangle: its first lattice scan box alone has 491401 points
    caps = []
    original = polytopes.lattice_count

    def recording(poly, dilation=1, cap_monomials=polytopes.DEFAULT_MONOMIAL_CAP):
        caps.append(cap_monomials)
        return original(poly, dilation, cap_monomials)

    monkeypatch.setattr(polytopes, "lattice_count", recording)
    monkeypatch.setattr(cli, "lattice_count", recording)
    job = {"semigroup_generators": [[1, 0, 0], [1, 700, 0], [1, 0, 700]],
           "max_degree": 1, "cap_monomials": 100}
    code, out, err = run_job_file(tmp_path, capsys, job, command="body")
    assert code == 2 and not out
    assert "lattice scan box: 491401 > 100" in err
    assert caps and all(cap == 100 for cap in caps)


def test_body_counts_each_dilation_once(capsys, monkeypatch):
    dilations = []
    original = polytopes.lattice_count

    def recording(poly, dilation=1, cap_monomials=polytopes.DEFAULT_MONOMIAL_CAP):
        dilations.append(dilation)
        return original(poly, dilation, cap_monomials)

    monkeypatch.setattr(polytopes, "lattice_count", recording)
    monkeypatch.setattr(cli, "lattice_count", recording)
    code, out, _ = run_main(capsys, "body", "--fixture", "bott-samelson-u")
    assert code == 0
    result = json.loads(out)["result"]
    assert dilations == [1, 2, 3]
    assert result["lattice_count"] == 8


def module_env():
    src = str(Path(okv.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "okv", *argv], capture_output=True, text=True,
        env=module_env(), timeout=120,
    )


def test_python_dash_m_okv_runs_the_cli(capsys):
    argv = ["semigroup", "--fixture", "counterexample-p1xp1"]
    code, out, _ = run_main(capsys, *argv)
    proc = run_module(*argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out
    bogus = run_module("bogus")
    assert bogus.returncode == 1 and not bogus.stdout
    assert "invalid choice: 'bogus'" in bogus.stderr


def test_closed_stdout_exits_three_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "okv", "semigroup", "--fixture", "bott-samelson-u",
         "--max-degree", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=module_env(),
    )
    proc.stdout.close()  # the reader goes away before the report is written
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 3
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: output: standard output closed before the report was written"
    ]


def test_two_mains_build_one_parser(capsys, monkeypatch):
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "okv":  # subparsers inherit the class
                built.append(self)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli, "_Parser", Counting)
    try:
        assert run_main(capsys, "nu", "--fixture", "bott-samelson-u")[0] == 0
        assert run_main(capsys, "body", "--fixture", "elliptic-good")[0] == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1


def test_nu_parses_each_section_once(capsys, monkeypatch):
    parsed = []
    original = jobs.parse_polynomial

    def counting(text, *args, **kwargs):
        parsed.append(text)
        return original(text, *args, **kwargs)

    monkeypatch.setattr(jobs, "parse_polynomial", counting)
    code, out, _ = run_main(capsys, "nu", "--fixture", "bott-samelson-u")
    assert code == 0
    assert parsed == list(load_fixture("bott-samelson-u").sections)
    assert json.loads(out)["result"]["dimension"] == 8


def text_block(text, header):
    """The stripped lines nested under the line `header`."""
    lines = text.splitlines()
    start = lines.index(header)
    depth = len(header) - len(header.lstrip())
    block = []
    for line in lines[start + 1:]:
        if len(line) - len(line.lstrip()) <= depth:
            break
        block.append(line.strip())
    return block


def test_text_format_keeps_slices_apart(capsys):
    argv = ("semigroup", "--fixture", "hirzebruch-trapezoid", "--max-degree", "1")
    code, out, _ = run_main(capsys, *argv, "--format", "text")
    assert code == 0
    slices = json.loads(run_main(capsys, *argv)[1])["result"]["semigroup"]["slices"]
    assert [len(s) for s in slices] == [1, 6]
    expected = [line for s in slices for line in ["-", *map(str, s)]]
    assert text_block(out, "    slices:") == expected
    assert text_block(out, "    hilbert:") == ["[1, 6]"]
    assert text_block(out, "caveats:") == ["[all statements are truncation-bounded at degree 1]"]


def test_text_format_prints_string_lists_bare(capsys):
    code, out, _ = run_main(capsys, "nu", "--fixture", "counterexample-p1xp1", "--format", "text")
    assert code == 0
    assert text_block(out, "  variables:") == ["[x, y]"]
    assert text_block(out, "  sections:") == ["[1, x, y + x*y^3, x*y]"]


def test_text_format_keeps_relations_apart(capsys):
    argv = ("degenerate", "--fixture", "hirzebruch-trapezoid")
    code, out, _ = run_main(capsys, *argv, "--format", "text")
    assert code == 0
    relations = json.loads(run_main(capsys, *argv)[1])["result"]["relations"]["relations"]
    assert len(relations) > 1
    block = text_block(out, "    relations:")
    assert block.count("-") == len(relations)
    starts = [block[i + 1] for i, line in enumerate(block) if line == "-"]
    assert starts == [f"poly: {rel['poly']}" for rel in relations]
    assert block[2:5] == ["degree:", str(relations[0]["degree"][0]), str(relations[0]["degree"][1])]
