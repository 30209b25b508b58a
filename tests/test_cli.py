import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsalab import cli
from oracles import influence_quad


def run(argv):
    return cli.main(argv)


def load_schema():
    with resources.files("gsalab").joinpath("schemas/report.schema.json").open() as fh:
        return json.load(fh)


def test_cap_subcommand(tmp_path, capsys):
    out = tmp_path / "cap.json"
    assert run(["cap", "--n", "3", "--norm", "2", "--r", "1",
                "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    rows = {row["name"]: row["value"] for row in doc["rows"]}
    assert rows["cap-probability"] == pytest.approx(0.75, abs=1e-12)
    assert rows["cap-log-complement"] == pytest.approx(math.log(0.25), abs=1e-12)
    captured = capsys.readouterr()
    assert "cap-probability" in captured.out


def test_optimize_defaults(tmp_path):
    # r defaults to n^(1/4); the run draws nothing, so it records no seed
    out = tmp_path / "opt.json"
    assert run(["optimize", "--n", "64", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"] == {"n": 64, "r": 64**0.25} and doc["seed"] is None
    rows = {row["name"]: row["value"] for row in doc["rows"]}
    assert rows["limit-constant"] == pytest.approx(math.exp(-1.25), abs=1e-9)


def test_optimize_with_dimension(tmp_path):
    out = tmp_path / "opt.json"
    assert run(["optimize", "--n", "256", "--json", str(out)]) == 0
    rows = {row["name"]: row["value"]
            for row in json.loads(out.read_text())["rows"]}
    assert rows["facet-count-rule"] >= 1
    assert rows["facet-count-optimal"] >= 1
    assert rows["ratio-to-n14"] > 0.2


def test_optimize_at_a_tiny_offset_takes_one_facet(tmp_path):
    # at r = 1e-300 the root of dE/d ln s is near 1 / ln 2 and E(1) = E(2) to
    # the last bit, so the tie goes to the smaller count; an independent
    # quadrature agrees that one facet is no worse than two
    out = tmp_path / "opt.json"
    assert run(["optimize", "--n", "64", "--r", "1e-300", "--json", str(out)]) == 0
    rows = {row["name"]: row["value"] for row in json.loads(out.read_text())["rows"]}
    assert rows["facet-count-optimal"] == 1.0
    assert influence_quad(64, 1e-300, 1.0) >= influence_quad(64, 1e-300, 2.0)


def test_quad_subcommand(tmp_path):
    out = tmp_path / "quad.json"
    assert run(["quad", "--n", "16", "--r", "2", "--s", "32",
                "--json", str(out)]) == 0
    rows = {row["name"]: row["value"]
            for row in json.loads(out.read_text())["rows"]}
    assert rows["expected-gsa-quadrature"] * 2.0 == pytest.approx(
        rows["expected-influence-quadrature"], rel=1e-12)


def test_influence_and_gsa_subcommands(tmp_path):
    inf_out = tmp_path / "influence.json"
    assert run(["influence", "--n", "8", "--r", "1.5", "--s", "12",
                "--samples", "20000", "--seed", "3", "--json", str(inf_out)]) == 0
    rows = {row["name"]: row for row in json.loads(inf_out.read_text())["rows"]}
    assert rows["influence-moment-mc"]["value"] == pytest.approx(
        rows["influence-hermite-mc"]["value"], abs=1e-12)
    assert rows["influence-moment-mc"]["seed"] == 3

    gsa_out = tmp_path / "gsa.json"
    assert run(["gsa", "--n", "8", "--r", "1.5", "--s", "12",
                "--samples-per-facet", "1000", "--samples", "20000",
                "--seed", "3", "--json", str(gsa_out)]) == 0
    rows = {row["name"]: row for row in json.loads(gsa_out.read_text())["rows"]}
    surface = rows["gsa-facet-mc"]
    ratio = rows["influence-over-inradius"]
    gap = abs(surface["value"] - ratio["value"])
    assert gap <= 5 * math.hypot(surface["stderr"], ratio["stderr"])


def test_influence_ball_body(tmp_path):
    out = tmp_path / "ball.json"
    assert run(["influence", "--n", "4", "--body", "ball", "--radius", "1.0",
                "--samples", "20000", "--seed", "1", "--json", str(out)]) == 0
    rows = {row["name"]: row for row in json.loads(out.read_text())["rows"]}
    assert 0.0 < rows["gaussian-volume-mc"]["value"] < 1.0


def test_influence_naz_prime_rows_frozen_regression(tmp_path):
    # the Gaussian-normal variant drawn by the one sampler; frozen when the
    # variant had a sampler of its own, so any change is a change of result
    out = tmp_path / "naz_prime.json"
    assert run(["influence", "--n", "8", "--body", "naz-prime", "--r", "2.0", "--s", "12",
                "--samples", "4096", "--seed", "5", "--json", str(out)]) == 0
    mc = {"samples": 4096, "seed": 5}
    closed = {"samples": None, "seed": None, "stderr": None}
    assert json.loads(out.read_text())["rows"] == [
        {"name": "influence-moment-mc", "value": 0.271065342148474,
         "stderr": 0.020459777988733593, **mc},
        {"name": "influence-hermite-mc", "value": 0.27106534214847394,
         "stderr": 0.014752307180669399, **mc},
        {"name": "gaussian-volume-mc", "value": 0.10205078125,
         "stderr": 0.0047305006045643624, **mc},
        {"name": "surface-upper-variance", "value": 2.4908659198595746, **closed},
        {"name": "surface-upper-deg2", "value": 0.6742865398078848, **closed},
    ]


def test_ball_radius_past_the_double_range_exits_one(capsys):
    # radius**2 used to raise OverflowError ('Numerical result out of range')
    assert run(["influence", "--n", "4", "--body", "ball", "--radius", "1e200"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: radius 1e+200 is too large")


@pytest.mark.parametrize("argv", [
    ["influence", "--n", "4", "--body", "naz", "--r", "1e-310", "--s", "2",
     "--samples", "100"],
    ["gsa", "--n", "4", "--r", "1e-310", "--s", "2", "--samples", "100",
     "--samples-per-facet", "10"],
])
def test_denormal_facet_offset_exits_one_naming_the_inradius(argv, tmp_path, capsys):
    # both commands used to exit 0 with inf bounds and Infinity in the JSON
    out = tmp_path / "report.json"
    assert run(argv + ["--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inradius 1e-310 is too small")
    assert not out.exists()


def test_gsa_at_five_thousand_facets_peaks_below_100_mb():
    # the membership tests used to build whole (points x facets) matrices:
    # influence's 4096 x 5000 float64 product alone made this peak at 215 MB
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # VmHWM is the peak of the child's own address space; its ru_maxrss would
    # also count the test process's pages at the fork that spawned it
    code = ("import sys; from gsalab.cli import main; "
            "code = main(['gsa', '--n', '16', '--r', '2', '--s', '5000', "
            "'--samples-per-facet', '2', '--samples', '4096']); "
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]); "
            "sys.exit(code)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    peak_mb = int(done.stdout.split()[-1]) / 1024  # VmHWM is in kB
    assert peak_mb < 100.0


def test_scan_csv_deterministic(tmp_path):
    first = tmp_path / "scan1.csv"
    second = tmp_path / "scan2.csv"
    for path in (first, second):
        assert run(["scan", "--n", "64,256", "--alpha", "1.0",
                    "--csv", str(path)]) == 0
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0].split(",")
    for column in ("ratio_to_n14", "raic_upper", "ball_upper", "nazarov_lower",
                   "schema_version"):
        assert column in header
    assert "seed" not in header


def test_scan_rows_frozen_regression(tmp_path):
    # rows of `scan --n 256 --alpha 1.0`; every column but the Jensen bound's
    # three (chain_value, gsa_lower, s_jensen) is frozen from the serial
    # pipeline before the radial code was pruned, and those three from the
    # first Jensen chain; any change to them is a change of result
    out = tmp_path / "scan.json"
    assert run(["scan", "--n", "256", "--alpha", "1.0", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["rows"] == [{
        "alpha": 1.0, "ball_upper": 16.0, "chain_value": 4.8828488957750364,
        "exact_influence": 5.229679629141719, "expected_gsa": 1.3074199072854298,
        "gsa_lower": 1.2207122239437591, "n": 256, "nazarov_lower": 1.1460191874407604,
        "r": 4.0, "raic_upper": 2.5678845608028653, "ratio_to_n14": 0.32685497682135745,
        "s": 35720.0, "s_jensen": 31573.55868545567,
    }]


def test_quad_rows_frozen_regression(tmp_path):
    # n = 4096 at alpha = 1 and the optimized facet count there
    out = tmp_path / "quad.json"
    assert run(["quad", "--n", "4096", "--s", "1768540977739982",
                "--json", str(out)]) == 0
    values = [(row["name"], row["value"]) for row in json.loads(out.read_text())["rows"]]
    assert values == [
        ("expected-influence-quadrature", 19.709494973121586),
        ("expected-gsa-quadrature", 2.4636868716401983),
        ("upper-raic", 4.927884560802865),
        ("upper-ball", 32.0),
        ("limit-reference-curve", 2.2920383748815207),
    ]


def test_scan_json_validates_against_schema(tmp_path):
    out = tmp_path / "scan.json"
    assert run(["scan", "--n", "64", "--alpha", "1.0,1.25",
                "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema())
    assert doc["command"] == "scan"
    assert len(doc["rows"]) == 2


def test_measurement_json_validates_against_schema(tmp_path):
    out = tmp_path / "inf.json"
    assert run(["influence", "--n", "4", "--body", "ball", "--radius", "1.0",
                "--samples", "4096", "--seed", "2", "--json", str(out)]) == 0
    jsonschema.validate(json.loads(out.read_text()), load_schema())


def test_scan_svg_output(tmp_path):
    svg = tmp_path / "chart.svg"
    assert run(["scan", "--n", "64,256", "--alpha", "1.0",
                "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text
    # the green series is the rows' Jensen bound; e^(-5/4) n^(1/4) is that
    # bound's large-n limit at alpha = 1, a reference curve, not a bound
    assert ">jensen-lower-bound<" in text and ">jensen-limit-e^(-5/4)<" in text
    assert "shell-lower-bound" not in text and "limit-reference" not in text


def test_validation_errors_exit_one():
    assert run(["cap", "--n", "1", "--norm", "2", "--r", "1"]) == 1
    assert run(["cap", "--n", "3"]) == 1
    assert run(["no-such-command"]) == 1


@pytest.mark.parametrize("command", ["optimize", "scan"])
def test_arithmetic_failure_exits_one(command, capsys):
    # at n = 1e7 the facet count exceeds the double range (ln s ~ sqrt(n) / 2)
    assert run([command, "--n", "10000000"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["optimize", "--n", "10000000"],
                                  ["scan", "--n", "1000000", "--alpha", "1.5"]])
def test_facet_count_past_the_double_range_is_a_clear_error(argv, capsys):
    # these used to stop on ZeroDivisionError and OverflowError ('math range
    # error'); s beyond the largest double is now a ValueError that says so
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ln s = " in err and "double range" in err


@pytest.mark.parametrize("argv", [["quad", "--n", "64", "--r", "1e-320", "--s", "2"],
                                  ["optimize", "--n", "64", "--r", "1e-320"],
                                  ["scan", "--n", "64", "--alpha", "1e-320"]])
def test_subnormal_offset_is_a_clear_error(argv, capsys):
    # quad printed a GSA off by 5.7e-4 relative at r = 1e-320
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: offset r = ") and "is subnormal" in err


@pytest.mark.parametrize("norm, r", [("1", "1e-320"), ("1e300", "1e-10")])
def test_cap_bound_past_the_double_range_exits_one_naming_ln_g(norm, r, tmp_path, capsys):
    # these printed 'error: math range error' from a bare OverflowError
    out = tmp_path / "cap.json"
    assert run(["cap", "--n", "4", "--norm", norm, "--r", r, "--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ln G = " in err and "double range" in err
    assert not out.exists()


def test_a_ratio_that_underflows_to_zero_names_the_real_cause(capsys):
    # r / ||x|| and r / sqrt(n) underflow to 0 here, which both commands
    # used to report as 'ratio u must be > 0' although r > 0
    assert run(["cap", "--n", "5", "--norm", "1e300", "--r", "1e-300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: complement bound at ") and "ln G = inf is beyond" in err
    assert run(["optimize", "--n", "64", "--r", "5e-324"]) == 1
    assert capsys.readouterr().err == (
        "error: offset r = 5e-324 is subnormal: r / rho would lose digits\n")


def test_selftest_passes():
    assert run(["selftest"]) == 0


def test_selftest_writes_its_report(tmp_path):
    out_json = tmp_path / "selftest.json"
    out_csv = tmp_path / "selftest.csv"
    assert run(["selftest", "--json", str(out_json), "--csv", str(out_csv)]) == 0
    doc = json.loads(out_json.read_text())
    jsonschema.validate(doc, load_schema())
    assert doc["command"] == "selftest" and doc["seed"] is None
    assert [row["name"] for row in doc["rows"]] == [
        "cap-route-agreement", "cap-closed-forms", "tau-identities", "chi-normalization",
        "single-halfspace-identity", "h2-bridge-identity", "chain-dominance",
        "polytope-invariants"]
    assert all(row["value"] == 1.0 and row["seconds"] >= 0.0 for row in doc["rows"])
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "name,value,seconds,schema_version"
    assert len(lines) == 1 + len(doc["rows"])


def test_selftest_catches_a_beta_route_off_by_1e_9(tmp_path, monkeypatch):
    # the fixed-rule angle form is the cap route's independent check
    exact = cli.cap.cap_probability
    monkeypatch.setattr(cli.cap, "cap_probability", lambda q: exact(q) + 1e-9)
    out = tmp_path / "selftest.json"
    assert run(["selftest", "--json", str(out)]) == 3
    rows = {row["name"]: row["value"] for row in json.loads(out.read_text())["rows"]}
    assert rows["cap-route-agreement"] == 0.0


def test_selftest_failure_is_recorded(tmp_path, monkeypatch):
    def broken():
        raise AssertionError("planted")

    monkeypatch.setattr(cli, "_selftest_checks", lambda: [("planted-failure", broken)])
    out = tmp_path / "selftest.json"
    assert run(["selftest", "--json", str(out)]) == 3
    rows = json.loads(out.read_text())["rows"]
    assert [(row["name"], row["value"]) for row in rows] == [("planted-failure", 0.0)]


def test_quad_far_below_double_range_is_zero(tmp_path):
    # ln of the integral is about -1e224 here: no node count can settle the
    # ladder's absolute log step, and the value is 0.0 in doubles
    out = tmp_path / "quad.json"
    assert run(["quad", "--n", "100000", "--s", "1e300", "--json", str(out)]) == 0
    rows = {row["name"]: row["value"] for row in json.loads(out.read_text())["rows"]}
    assert rows["expected-influence-quadrature"] == 0.0
    assert rows["expected-gsa-quadrature"] == 0.0


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in {path}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture
def non_finite_chain(monkeypatch):
    """Plant -inf in every chain report's s_jensen: no scan row holds a
    non-finite value of its own."""
    chain = cli.radial.lower_bound_chain

    def planted(n, r, s):
        return dataclasses.replace(chain(n, r, s), s_jensen=-math.inf)

    monkeypatch.setattr(cli.radial, "lower_bound_chain", planted)


def test_successful_report_writes_non_finite_values_as_null(tmp_path, capsys,
                                                            non_finite_chain):
    # a non-finite row value used to reach the report as `-Infinity`
    out = tmp_path / "scan.json"
    assert run(["scan", "--n", "64", "--alpha", "1e-6", "--json", str(out)]) == 0
    doc = _strict_json(out)
    jsonschema.validate(doc, load_schema())
    (row,) = doc["rows"]
    assert row["s_jensen"] is None and row["n"] == 64
    assert "ratio_to_n14=" in capsys.readouterr().out


def test_csv_writes_a_non_finite_value_as_an_empty_cell(tmp_path, non_finite_chain):
    # the same value the JSON report writes as null used to reach the CSV
    # as `-inf`
    out = tmp_path / "scan.csv"
    assert run(["scan", "--n", "64", "--alpha", "1e-6", "--csv", str(out)]) == 0
    with out.open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["s_jensen"] == ""
    for column, cell in row.items():
        if column != "s_jensen":
            assert math.isfinite(float(cell)), (column, cell)


def test_convergence_failure_empties_an_earlier_csv(tmp_path):
    # an exit-2 run used to leave the CSV of the run before it in place, so
    # the path held the alpha = 1.0 row while the JSON record said no rows
    out_json, out_csv = tmp_path / "scan.json", tmp_path / "scan.csv"
    outputs = ["--json", str(out_json), "--csv", str(out_csv)]
    assert run(["scan", "--n", "16", "--alpha", "1.0"] + outputs) == 0
    assert "16," in out_csv.read_text()
    assert run(["scan", "--n", "16", "--alpha", "3.5"] + outputs) == 2
    assert _strict_json(out_json)["rows"] == []
    assert out_csv.read_text() == ""


def test_convergence_failure_leaves_a_json_record(tmp_path, capsys):
    # the integral's mass is a sliver just above rho = r that equal-width
    # panels miss, so the node ladder never settles
    out = tmp_path / "quad.json"
    assert run(["quad", "--n", "16", "--s", "1e30", "--json", str(out)]) == 2
    doc = _strict_json(out)
    jsonschema.validate(doc, load_schema())
    assert doc["command"] == "quad" and doc["rows"] == []
    assert doc["params"]["n"] == 16 and doc["params"]["s"] == 1e30
    error = doc["error"]
    assert error["message"] in capsys.readouterr().err
    nodes = [pair[0] for pair in error["history"]]
    assert nodes == [128 << k for k in range(len(nodes))] and len(nodes) > 1
    assert all(isinstance(pair[1], float) for pair in error["history"])


@pytest.mark.parametrize("failing, succeeding, params", [
    (["scan", "--n", "16", "--alpha", "3.5"], ["scan", "--n", "16", "--alpha", "1.0"],
     {"n": [16], "alpha": [3.5]}),
    (["quad", "--n", "16", "--alpha", "1", "--s", "1e30"],
     ["quad", "--n", "16", "--alpha", "1", "--s", "10"],
     {"n": 16, "r": 2.0, "alpha": 1.0, "s": 1e30}),
])
def test_convergence_failure_records_the_params_a_success_writes(
        failing, succeeding, params, tmp_path):
    # exit-2 records used to copy the raw options: scan wrote "n": "16" and
    # "svg": null, quad wrote "r": null where a success writes the 2.0 it ran
    failed, done = tmp_path / "failed.json", tmp_path / "done.json"
    assert run(failing + ["--json", str(failed)]) == 2
    assert run(succeeding + ["--json", str(done)]) == 0
    doc = _strict_json(failed)
    jsonschema.validate(doc, load_schema())
    got, want = doc["params"], _strict_json(done)["params"]

    def types(value):
        return [type(v) for v in value] if isinstance(value, list) else type(value)

    assert got.keys() == want.keys()
    assert {key: types(value) for key, value in got.items()} == {
        key: types(value) for key, value in want.items()}
    assert got == params


@pytest.mark.parametrize("argv", [
    ["cap", "--n", "64", "--norm", "8", "--r", "2"],
    ["influence", "--n", "4", "--r", "1.5", "--s", "6", "--samples", "512", "--seed", "2"],
    ["gsa", "--n", "4", "--r", "1.5", "--s", "6", "--samples-per-facet", "50",
     "--samples", "512", "--seed", "2"],
    ["quad", "--n", "16", "--r", "2", "--s", "32"],
    ["optimize", "--n", "64"],
    ["scan", "--n", "64", "--alpha", "1e-6,1.0"],
    ["selftest"],
])
def test_csv_carries_the_json_rows(argv, tmp_path):
    # the CSV header is the rows' own keys plus schema_version, and each line
    # is its JSON row, a null written as an empty cell
    out_json, out_csv = tmp_path / "report.json", tmp_path / "report.csv"
    assert run(argv + ["--json", str(out_json), "--csv", str(out_csv)]) == 0
    doc = _strict_json(out_json)
    jsonschema.validate(doc, load_schema())
    rows = doc["rows"]
    with out_csv.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header, lines = reader.fieldnames, list(reader)
    assert rows and len(set(header)) == len(header) and header[-1] == "schema_version"
    assert all(sorted(header[:-1]) == sorted(row) for row in rows)
    assert lines == [{**{key: "" if value is None else str(value)
                         for key, value in row.items()}, "schema_version": "3"}
                     for row in rows]


def test_convergence_failure_writes_non_finite_values_as_null(tmp_path, monkeypatch):
    def diverging(n, r, s):
        raise cli.QuadratureConvergenceError(
            "planted", history=[(128, -math.inf), (256, math.nan), (512, -3.5)])

    monkeypatch.setattr(cli.radial, "expected_influence_quadrature", diverging)
    out = tmp_path / "quad.json"
    assert run(["quad", "--n", "16", "--s", "inf", "--json", str(out)]) == 2
    doc = _strict_json(out)
    jsonschema.validate(doc, load_schema())
    assert doc["params"]["s"] is None
    assert doc["error"] == {"message": "planted",
                            "history": [[128, None], [256, None], [512, -3.5]]}


@pytest.mark.parametrize("argv, value", [
    (["quad", "--n", "64", "--r", "2", "--s", "inf"], "inf"),
    (["quad", "--n", "64", "--r", "2", "--s", "nan"], "nan"),
    (["scan", "--n", "64", "--alpha", "inf"], "inf"),
])
def test_non_finite_s_and_r_exit_one_naming_the_value(argv, value, capsys):
    # `quad --s inf` used to climb a NaN node ladder for over a second and
    # exit 2; `scan --alpha inf` exited 2 with an unbracketed optimum
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert err.rstrip().endswith(f"got {value}")


@pytest.mark.parametrize("argv, r", [
    (["optimize", "--n", "64", "--r", "20"], "20.0"),
    (["optimize", "--n", "64", "--r", "21"], "21.0"),
    (["optimize", "--n", "64", "--r", "1e200"], "1e+200"),
    (["scan", "--n", "64", "--alpha", "1e200"], "2.82842712474619e+200"),
])
def test_offset_past_the_radial_window_exits_one_naming_its_top(argv, r, tmp_path, capsys):
    # E[GSA] is 0.0 for every s from r = sqrt(n) + 12 on: --r 20 and --r 21
    # used to exit 2 with an unbracketed optimum, and 1e200 exit 1 with 'got
    # ln s = nan' after two overflow warnings (errors under this suite's
    # warning filter)
    out = tmp_path / "report.json"
    assert run(argv + ["--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: offset r = {r} is at or past the radial window top "
                          "sqrt(n) + 12 = 20.0")
    assert not out.exists()


def test_offset_inside_the_radial_window_stays_a_numerical_failure(capsys):
    # just below sqrt(n) + 12 the values of s are not all 0.0, but the
    # search still finds no interior optimum
    assert run(["optimize", "--n", "64", "--r", "19"]) == 2
    assert "facet-count optimum not bracketed" in capsys.readouterr().err


def test_offset_at_the_window_top_leaves_the_jensen_window_empty(capsys):
    # within 1e-14 of sqrt(n) + 12 the last panels collapse to zero width;
    # the log of their zero weights used to warn first (an error under this
    # suite's warning filter, a traceback under python -W error)
    assert run(["optimize", "--n", "64", "--r", "19.99999999999999"]) == 1
    assert "Jensen window empty" in capsys.readouterr().err


def test_gaussian_offset_overflow_exits_one_naming_the_offset(tmp_path, capsys):
    # w / ||g_i|| used to overflow to inf with a numpy warning, an error under
    # this suite's warning filter, so a traceback escaped main
    out = tmp_path / "influence.json"
    assert run(["influence", "--n", "2", "--body", "naz-prime", "--r", "1e308", "--s", "8",
                "--samples", "2", "--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: offset 1e+308 / ||g_") and "overflows a double" in err
    assert not out.exists()


def test_gsa_at_a_huge_offset_exits_zero_without_warning(tmp_path):
    # the facet Monte Carlo's Gaussian density at each facet read its
    # np.float64 offset of 1e300 and warned on overflow, an error under this
    # suite's warning filter
    out = tmp_path / "gsa.json"
    assert run(["gsa", "--n", "4", "--r", "1e300", "--s", "2", "--samples", "100",
                "--samples-per-facet", "10", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["rows"]


def test_quad_at_infinite_offset_is_zero(tmp_path):
    out = tmp_path / "quad.json"
    assert run(["quad", "--n", "64", "--r", "inf", "--s", "2", "--json", str(out)]) == 0
    rows = {row["name"]: row["value"] for row in json.loads(out.read_text())["rows"]}
    assert rows["expected-influence-quadrature"] == 0.0
    assert rows["expected-gsa-quadrature"] == 0.0


@pytest.mark.parametrize("alpha_args", [["--alpha", "5"], []])
def test_quad_records_the_alpha_it_ran(tmp_path, alpha_args):
    # --r sets the offset, so the run's alpha is r / n^(1/4), not the --alpha
    # that was ignored or its default
    out = tmp_path / "quad.json"
    assert run(["quad", "--n", "64", "--r", "2", "--s", "32", "--json", str(out)]
               + alpha_args) == 0
    params = json.loads(out.read_text())["params"]
    assert params["alpha"] == 2.0 / 64**0.25
    assert params["r"] == 2.0


def test_optimize_rejects_r_without_n(capsys):
    # every optimize row but the constant e^(-5/4) needs --n, so it is required
    assert run(["optimize", "--r", "2"]) == 1
    assert "the following arguments are required: --n" in capsys.readouterr().err


def test_optimize_without_n_exits_one(tmp_path):
    out = tmp_path / "opt.json"
    assert run(["optimize", "--json", str(out)]) == 1
    assert not out.exists()


# one argv per subcommand, each with only its required options
MINIMAL_ARGVS = [
    ["cap", "--n", "3", "--norm", "2", "--r", "1"],
    ["influence", "--n", "4"],
    ["gsa", "--n", "4", "--r", "1.5", "--s", "6"],
    ["quad", "--n", "16", "--s", "32"],
    ["optimize", "--n", "64"],
    ["scan", "--n", "64"],
    ["selftest"],
]


# influence options that the chosen body never reads
IGNORED_BY_BODY = {"naz": {"radius"}, "naz-prime": {"radius"}, "ball": {"r", "s"}}


@pytest.mark.parametrize("argv", MINIMAL_ARGVS, ids=lambda argv: argv[0])
def test_params_record_every_option(argv):
    # an option left out of the params would change a run without its report
    # saying so; the output paths and the chart are where a report goes, not
    # what it computes, and an option the body ignores computes nothing
    args = cli.build_parser().parse_args(argv)
    options = set(vars(args)) - {"command", "func", "params", "json", "csv", "svg"}
    assert set(args.params(args)) == options - IGNORED_BY_BODY.get(vars(args).get("body"), set())


@pytest.mark.parametrize("body, ignored, params", [
    ("ball", ["--r", "5", "--s", "99"], {"radius": 1.0}),
    ("naz", ["--radius", "3"], {"r": 1.0, "s": 16}),
    ("naz-prime", ["--radius", "3"], {"r": 1.0, "s": 16}),
])
def test_influence_params_leave_out_what_the_body_ignores(body, ignored, params, tmp_path):
    # a ball run recorded the polytope's r = 1.0 and s = 16, and a polytope
    # run the ball's radius: options that change no number of the run
    plain, extra = tmp_path / "plain.json", tmp_path / "extra.json"
    argv = ["influence", "--n", "4", "--body", body, "--samples", "512", "--seed", "1"]
    assert run(argv + ["--json", str(plain)]) == 0
    assert run(argv + ignored + ["--json", str(extra)]) == 0
    assert extra.read_bytes() == plain.read_bytes()
    assert json.loads(plain.read_text())["params"] == {
        "n": 4, "body": body, **params, "samples": 512, "seed": 1}


@pytest.mark.parametrize("argv", [argv for argv in MINIMAL_ARGVS
                                  if argv[0] not in ("influence", "gsa")],
                         ids=lambda argv: argv[0])
def test_seed_is_only_for_monte_carlo_commands(argv, capsys):
    # only influence and gsa draw random streams; elsewhere a seed would be
    # recorded without changing a number
    assert run(argv + ["--seed", "7"]) == 1
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(tmp_path, monkeypatch, fresh_parser):
    build_parser, builds = cli.build_parser, []

    def spy():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", spy)
    out = str(tmp_path / "out.json")
    assert run(["cap", "--n", "3", "--norm", "2", "--r", "1", "--json", out]) == 0
    assert run(["quad", "--n", "16", "--r", "2", "--s", "32", "--json", out]) == 0
    assert run(["cap", "--n", "3"]) == 1
    assert run(["scan", "--n", "64", "--alpha", "1.0", "--json", out]) == 0
    assert run(["optimize", "--n", "64", "--json", out]) == 0
    assert len(builds) == 1
    # the public builder itself stays uncached
    assert build_parser() is not build_parser()


def test_usage_error_between_scans_leaves_the_report_unchanged(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(["scan", "--n", "64", "--json", str(first)]) == 0
    # a half-parsed alpha must not leak into the next call
    assert run(["scan", "--alpha", "2.0", "--svg"]) == 1
    assert run(["scan", "--n", "64", "--json", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    assert json.loads(second.read_text())["params"] == {"n": [64], "alpha": [1.0]}


@pytest.mark.parametrize("argv", [
    ["scan", "--n", "64", "--alpha", "1.0,1.25"],
    ["influence", "--n", "8", "--r", "1.5", "--s", "12", "--samples", "4096", "--seed", "3"],
    ["gsa", "--n", "8", "--r", "1.5", "--s", "12", "--samples-per-facet", "200",
     "--samples", "4096", "--seed", "3"],
])
def test_in_process_report_matches_a_fresh_process(argv, tmp_path):
    here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
    assert run(argv + ["--json", str(here)]) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "gsalab"] + argv + ["--json", str(fresh)],
                          env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert fresh.read_bytes() == here.read_bytes()


# The robustness contract, fuzzed in-process over every computing command:
# n from 1 to 1e7, offsets from the least subnormal to 1e308 with nan, inf,
# 0 and -1, and s up to 1e308.  Monte Carlo commands draw n * s normals per
# body and samples per pass, so their n, s and sample counts stay small.
OFFSETS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 0.5, 1.0, 2.0, 4.0, 1e308,
                     math.nan, math.inf, -math.inf, 0.0, -1.0]),
    st.floats(min_value=5e-324, max_value=1e308))
DIMENSIONS = st.one_of(st.sampled_from([1, 3, 4, 7, 16, 64, 10**7]),
                       st.integers(min_value=1, max_value=300),
                       st.integers(min_value=1, max_value=10**7))
# where optimize and scan find an optimum: alpha = r / n^(1/4) up to about 3
MODERATE = st.floats(min_value=0.0, max_value=4.0)
FACET_COUNTS = st.one_of(st.sampled_from([1.0, 2.0, 1e30, 1e308, math.inf, math.nan]),
                         st.floats(min_value=1.0, max_value=1e308))
SMALL = st.integers(min_value=-1, max_value=8)


def _arg(value):
    return repr(float(value)) if isinstance(value, float) else str(value)


def _argv(command, **options):
    return [command] + [item for key, value in options.items()
                        for item in (f"--{key.replace('_', '-')}", _arg(value))]


ARGVS = st.one_of(
    st.builds(_argv, st.just("cap"), n=DIMENSIONS, norm=OFFSETS, r=OFFSETS),
    st.builds(_argv, st.just("quad"), n=DIMENSIONS, r=OFFSETS, s=FACET_COUNTS),
    st.builds(_argv, st.just("optimize"), n=DIMENSIONS, r=st.one_of(OFFSETS, MODERATE)),
    st.builds(_argv, st.just("scan"), n=DIMENSIONS, alpha=st.one_of(OFFSETS, MODERATE)),
    st.builds(_argv, st.just("influence"), n=st.integers(min_value=1, max_value=32),
              body=st.sampled_from(["naz", "naz-prime", "ball"]), r=OFFSETS, s=SMALL,
              radius=OFFSETS, samples=SMALL, seed=st.just(3)),
    st.builds(_argv, st.just("gsa"), n=st.integers(min_value=1, max_value=32), r=OFFSETS,
              s=SMALL, samples_per_facet=SMALL, samples=SMALL, seed=st.just(3)))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(argv=ARGVS)
# r within 1e-14 of the window top sqrt(n) + 12 collapses panels to zero width
@example(argv=["quad", "--n", "64", "--r", "19.99999999999999", "--s", "2"])
@example(argv=["optimize", "--n", "64", "--r", "19.99999999999999"])
def test_every_command_keeps_the_robustness_contract(argv, tmp_path_factory):
    # exit 0 with finite numbers, 1 with an `error:` line, or 2 with a
    # schema-valid record; no exception or warning escapes cli.main
    report = tmp_path_factory.getbasetemp() / "contract.json"
    report.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json", str(report)])
    assert code in (0, 1, 2), argv
    if code == 1:
        assert "error:" in err.getvalue(), argv
        return
    doc = json.loads(report.read_text())
    jsonschema.validate(doc, load_schema())
    if code == 2:
        assert doc["rows"] == [] and doc["error"]["message"], argv
    else:
        values = [value for row in doc["rows"] for key, value in row.items()
                  if key not in ("name", "stderr", "samples", "seed")]
        assert values and all(isinstance(v, (int, float)) for v in values), argv
