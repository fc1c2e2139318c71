"""Command-line interface: output formats, validation, determinism."""

import csv
import io
import json
import math
import pathlib

import pytest

from skeinvol.cli import main
from skeinvol.hypvol import records_to_csv
from skeinvol.planar import graph_to_json, theta
from skeinvol.scans import bound_record
from skeinvol.yokota import yokota


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def expect_exit2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_sixj_pinned_value(capsys):
    rc, out, _ = run_cli(["sixj", "--r", "5", "--colors", "2,2,2,2,2,2"], capsys)
    assert rc == 0
    assert "value = -2.618033988750" in out
    assert "admissible: yes" in out


def test_sixj_inadmissible(capsys):
    rc, out, _ = run_cli(["sixj", "--r", "7", "--colors", "0,2,4,0,2,4"], capsys)
    assert rc == 0
    assert "admissible: no" in out
    assert "value = 0" in out or "log|value| = -inf" in out


def test_sixj_high_level(capsys):
    rc, out, _ = run_cli(["sixj", "--r", "101", "--colors", "26,38,26,38,26,38"], capsys)
    assert rc == 0
    assert "admissible: yes" in out
    assert "cancellation" in out


def test_sixj_validation():
    expect_exit2(["sixj", "--r", "6", "--colors", "2,2,2,2,2,2"])
    expect_exit2(["sixj", "--r", "3", "--colors", "0,0,0,0,0,0"])
    expect_exit2(["sixj", "--r", "7", "--colors", "1,2,2,2,2,2"])
    expect_exit2(["sixj", "--r", "7", "--colors", "2,2,2,2,2"])
    expect_exit2(["sixj", "--r", "7", "--colors", "2,2,2,2,2,6"])


def test_scan_fixed_csv(capsys):
    rc, out, _ = run_cli(
        [
            "scan",
            "--graph",
            "tetrahedron",
            "--policy",
            "fixed",
            "--colors",
            "2,2,2,2,2,2",
            "--rmin",
            "5",
            "--rmax",
            "9",
        ],
        capsys,
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["r"]) for r in rows] == [5, 7, 9]
    want = math.log(abs(yokota(__import__("skeinvol.planar", fromlist=["tetrahedron"]).tetrahedron(), (2,) * 6, 5)))
    assert abs(float(rows[0]["log_value"]) - want) < 1e-9
    assert rows[0]["color_policy"].startswith("fixed")
    assert rows[0]["wall_ms"] == ""  # timing column stays empty without --timings


def test_scan_tv_slope_increases(capsys):
    rc, out, _ = run_cli(
        ["scan", "--graph", "tetrahedron", "--policy", "full-TV-sweep", "--rmin", "5", "--rmax", "13"],
        capsys,
    )
    assert rc == 0
    slopes = [float(r["slope"]) for r in csv.DictReader(io.StringIO(out))]
    assert slopes == sorted(slopes)
    assert len(slopes) == 5


def test_scan_exhaustive_bound(capsys):
    rc, out, _ = run_cli(
        ["scan", "--graph", "tetrahedron", "--policy", "exhaustive-bound", "--rmin", "5", "--rmax", "15"],
        capsys,
    )
    assert rc == 0
    assert out == records_to_csv([bound_record(r)[0] for r in range(5, 16, 2)])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(row["r"]) for row in rows] == [5, 7, 9, 11, 13, 15]
    assert {(row["kind"], row["color_policy"]) for row in rows} == {("sixj-bound", "exhaustive")}

    rc, out, _ = run_cli(
        ["scan", "--graph", "tetrahedron", "--policy", "exhaustive-bound", "--rmin", "15",
         "--rmax", "15", "--budget", "1"],
        capsys,
    )
    assert rc == 0
    assert next(csv.DictReader(io.StringIO(out)))["color_policy"] == "exhaustive!budget"
    expect_exit2(["scan", "--graph", "theta", "--policy", "exhaustive-bound", "--rmax", "9"])


def test_scan_json_output(capsys):
    rc, out, _ = run_cli(
        [
            "scan",
            "--graph",
            "tetrahedron",
            "--policy",
            "maximizer",
            "--rmin",
            "5",
            "--rmax",
            "9",
            "--format",
            "json",
        ],
        capsys,
    )
    assert rc == 0
    recs = json.loads(out)
    assert [r["r"] for r in recs] == [5, 7, 9]
    assert all("slope" in r and "log_value" in r for r in recs)


def test_scan_validation():
    expect_exit2(["scan", "--graph", "no-such-graph", "--policy", "maximizer", "--rmax", "9"])
    expect_exit2(["scan", "--graph", "theta", "--policy", "ideal-square-pyramid", "--rmax", "9"])
    expect_exit2(
        ["scan", "--graph", "tetrahedron", "--policy", "fixed", "--colors", "2,2", "--rmax", "9"]
    )
    expect_exit2(["scan", "--graph", "tetrahedron", "--policy", "maximizer", "--rmin", "6", "--rmax", "9"])
    expect_exit2(["scan", "--graph", "tetrahedron", "--policy", "maximizer", "--rmax", "9", "--rstep", "3"])


def test_scan_file_graph(tmp_path, capsys):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(graph_to_json(theta())))
    rc, out, _ = run_cli(
        [
            "scan",
            "--graph",
            str(path),
            "--policy",
            "fixed",
            "--colors",
            "2,2,2",
            "--rmin",
            "5",
            "--rmax",
            "7",
        ],
        capsys,
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2


def test_reproduce_appendix_deterministic(capsys):
    args = ["reproduce-appendix", "--which", "sq-ideal", "--rmin", "101", "--rmax", "141", "--rstep", "20"]
    rc, out1, err1 = run_cli(args + ["--threads", "1"], capsys)
    assert rc == 0
    rc, out4, _ = run_cli(args + ["--threads", "4"], capsys)
    assert rc == 0
    assert out1 == out4
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert [int(r["r"]) for r in rows] == [101, 121, 141]
    assert "gap" in err1  # the summary goes to stderr, data to stdout


DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("kind", ["sq-ideal", "sq-zero", "pent-ideal", "pent-zero"])
def test_reproduce_appendix_golden_csv(kind, capsys):
    # The nine-column CSV is byte-stable: these files were written by the
    # float and mpmath wheel sums before the fan tables and the rotation
    # recurrence replaced their high-precision arithmetic.
    golden = (DATA / f"appendix-{kind}-101-141.csv").read_bytes()
    rc, out, _ = run_cli(
        ["reproduce-appendix", "--which", kind, "--rmin", "101", "--rmax", "141", "--rstep", "20"],
        capsys,
    )
    assert rc == 0
    assert out.encode("utf-8") == golden


def test_scan_exhaustive_bound_golden_csv(capsys):
    # Written before the bound sweep dealt its blocks to forked processes;
    # now every level whose cover holds a block per core is screened on
    # every usable core (from r = 35 on with two cores).
    golden = (DATA / "exhaustive-bound-5-49.csv").read_bytes()
    rc, out, _ = run_cli(
        ["scan", "--graph", "tetrahedron", "--policy", "exhaustive-bound", "--rmin", "5",
         "--rmax", "49"],
        capsys,
    )
    assert rc == 0
    assert out.encode("utf-8") == golden


def test_scan_output_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    rc, out, err = run_cli(
        [
            "scan",
            "--graph",
            "tetrahedron",
            "--policy",
            "maximizer",
            "--rmin",
            "5",
            "--rmax",
            "9",
            "-o",
            str(path),
        ],
        capsys,
    )
    assert rc == 0
    assert out == ""  # data went to the file, not stdout
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert len(rows) == 3


def test_verify_suite_passes(capsys):
    rc, out, _ = run_cli(["verify", "nidentity", "--rmax", "101"], capsys)
    assert rc == 0
    assert "ok" in out
    assert "checks passed" in out


def test_verify_sixj_symmetry_checks_enumeration(capsys):
    rc, out, _ = run_cli(["verify", "sixj-symmetry", "--r", "11"], capsys)
    assert rc == 0
    assert "sixtuple_chunks enumerates exactly the brute-force sixtuples, r=11" in out
    assert "the restricted cover meets every tetrahedral class, r=11" in out
    assert "3/3 checks passed" in out


def test_verify_unknown_suite():
    expect_exit2(["verify", "no-such-suite"])


def test_verify_graph_suite(capsys):
    rc, out, _ = run_cli(["verify", "kirby", "--graph", "theta", "--r", "5"], capsys)
    assert rc == 0
    assert "checks passed" in out


def test_extrapolate_flag(capsys):
    rc, _, err = run_cli(
        [
            "scan",
            "--graph",
            "tetrahedron",
            "--policy",
            "maximizer",
            "--rmin",
            "51",
            "--rmax",
            "101",
            "--rstep",
            "10",
            "--extrapolate",
        ],
        capsys,
    )
    assert rc == 0
    assert "limit" in err
