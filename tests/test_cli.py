import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from gsalab import cli


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
    out = tmp_path / "opt.json"
    assert run(["optimize", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    rows = {row["name"]: row["value"] for row in doc["rows"]}
    assert rows["optimal-c1"] == pytest.approx(
        math.sqrt(2.0 * math.pi) * math.exp(-0.25), abs=1e-8)
    assert rows["limit-constant"] == pytest.approx(math.exp(-1.25), abs=1e-9)


def test_optimize_with_dimension(tmp_path):
    out = tmp_path / "opt.json"
    assert run(["optimize", "--n", "256", "--json", str(out)]) == 0
    rows = {row["name"]: row["value"]
            for row in json.loads(out.read_text())["rows"]}
    assert rows["facet-count-rule"] >= 1
    assert rows["facet-count-optimal"] >= 1
    assert rows["ratio-to-n14"] > 0.2


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


def test_scan_csv_deterministic(tmp_path):
    first = tmp_path / "scan1.csv"
    second = tmp_path / "scan2.csv"
    for path in (first, second):
        assert run(["scan", "--n", "64,256", "--alpha", "1.0",
                    "--seed", "5", "--csv", str(path)]) == 0
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0].split(",")
    for column in ("ratio_to_n14", "raic_upper", "ball_upper", "nazarov_lower",
                   "seed", "schema_version"):
        assert column in header


def test_scan_rows_frozen_regression(tmp_path):
    # rows of `scan --n 256 --alpha 1.0`, frozen from the serial pipeline
    # before the radial code was pruned; any change to them is a change of result
    out = tmp_path / "scan.json"
    assert run(["scan", "--n", "256", "--alpha", "1.0", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["rows"] == [{
        "alpha": 1.0, "ball_upper": 16.0, "bernoulli_value": 1.0407639874393225e-14,
        "c1": 0.004027134233836126, "chain_value": 1.0690940843231455e-10,
        "exact_influence": 5.229679629141719, "expected_gsa": 1.3074199072854298,
        "gsa_lower": 2.6727352108078638e-11, "inf_F": 1.1274171987223197e-07,
        "inf_G": 5.936150373860542e-08, "n": 256, "nazarov_lower": 1.1460191874407604,
        "r": 4.0, "raic_upper": 2.5678845608028653, "ratio_to_n14": 0.32685497682135745,
        "s": 35720.0, "seed": 0, "stitch_factor_min": 0.9772277659019717,
        "sup_G": 0.000798130271325388, "vol_shell": 0.999999977344374,
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
    # the green series is e^(-5/4) n^(1/4), the shell lower bound, not the limit
    assert ">shell-lower-bound<" in text and "limit-reference" not in text


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


def test_selftest_passes():
    assert run(["selftest"]) == 0


def test_selftest_writes_its_report(tmp_path):
    out_json = tmp_path / "selftest.json"
    out_csv = tmp_path / "selftest.csv"
    assert run(["selftest", "--json", str(out_json), "--csv", str(out_csv)]) == 0
    doc = json.loads(out_json.read_text())
    jsonschema.validate(doc, load_schema())
    assert doc["command"] == "selftest"
    assert [row["name"] for row in doc["rows"]] == [name for name, _ in cli._selftest_checks()]
    assert {"shell-edge-infima", "batched-s-grid"} <= {
        row["name"] for row in doc["rows"]}
    assert all(row["value"] == 1.0 and row["seconds"] >= 0.0 for row in doc["rows"])
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "name,value,seconds,schema_version"
    assert len(lines) == 1 + len(doc["rows"])


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


def test_quad_at_infinite_offset_is_zero(tmp_path):
    out = tmp_path / "quad.json"
    assert run(["quad", "--n", "64", "--r", "inf", "--s", "2", "--json", str(out)]) == 0
    rows = {row["name"]: row["value"] for row in json.loads(out.read_text())["rows"]}
    assert rows["expected-influence-quadrature"] == 0.0
    assert rows["expected-gsa-quadrature"] == 0.0


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
    assert run(["optimize", "--json", out]) == 0
    assert len(builds) == 1
    # the public builder itself stays uncached
    assert build_parser() is not build_parser()


def test_usage_error_between_scans_leaves_the_report_unchanged(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(["scan", "--n", "64", "--json", str(first)]) == 0
    # a half-parsed seed and alpha must not leak into the next call
    assert run(["scan", "--seed", "9", "--alpha", "2.0", "--svg"]) == 1
    assert run(["scan", "--n", "64", "--json", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    assert json.loads(second.read_text())["seed"] == 0


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
