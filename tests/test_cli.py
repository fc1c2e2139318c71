"""Command-line interface: output formats, validation, determinism."""

import csv
import io
import json
import math
import pathlib
import random

import pytest

import skeinvol.cli as cli
import skeinvol.verify as verify
from skeinvol.cli import POLICIES, main
from skeinvol.hypvol import extrapolate_limit, records_to_csv
from skeinvol.planar import graph_to_json, mirror, relabel, tetrahedron, theta, wheel
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


def test_sixj_imaginary_value_has_unsigned_zero_real_part(capsys):
    # one negative theta: the symbol is -i times a positive real
    rc, out, _ = run_cli(["sixj", "--r", "5", "--colors", "0,0,0,2,2,2"], capsys)
    assert rc == 0
    assert "value = 0.000000000000 - 1.272019649514i\n" in out


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


def test_scan_budget_marks_maximizer_rows(capsys):
    # --budget 1 cannot finish one graph-engine evaluation
    rc, out, _ = run_cli(["scan", "--graph", "cube", "--policy", "maximizer", "--rmax", "7",
                          "--budget", "1"], capsys)
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["color_policy"] for row in rows] == ["maximizer!budget"] * 2
    rc, out, _ = run_cli(["scan", "--graph", "tetrahedron", "--policy", "maximizer",
                          "--rmax", "7", "--budget", "1000"], capsys)
    assert rc == 0
    assert out.startswith("r,kind,")


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
    # the removed thread pool and precision flag are not options
    expect_exit2(["scan", "--graph", "tetrahedron", "--policy", "maximizer", "--rmax", "9",
                  "--threads", "2"])
    expect_exit2(["scan", "--graph", "tetrahedron", "--policy", "maximizer", "--rmax", "9",
                  "--precision-bits", "512"])


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


@pytest.mark.parametrize("bad", [3, -2, "x", 2.0, None])
def test_scan_file_colors_are_validated(bad, tmp_path, capsys):
    path = tmp_path / "tet.json"
    path.write_text(json.dumps(graph_to_json(tetrahedron(), (2, 2, 2, 2, 2, bad))))
    argv = ["scan", "--graph", str(path), "--policy", "fixed", "--rmin", "7", "--rmax", "7"]
    expect_exit2(argv)
    assert capsys.readouterr().err.startswith("error: colors must be even non-negative integers")
    # the same file with valid colors scans
    path.write_text(json.dumps(graph_to_json(tetrahedron(), (2,) * 6)))
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0 and len(list(csv.DictReader(io.StringIO(out)))) == 1


def test_reproduce_appendix_deterministic(capsys):
    args = ["reproduce-appendix", "--which", "sq-ideal", "--rmin", "101", "--rmax", "141", "--rstep", "20"]
    rc, out1, err1 = run_cli(args, capsys)
    assert rc == 0
    rc, out2, _ = run_cli(args, capsys)  # with every cache warm
    assert rc == 0
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert [int(r["r"]) for r in rows] == [101, 121, 141]
    assert "gap" in err1  # the summary goes to stderr, data to stdout


DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("kind, rmin, rmax", [
    pytest.param(kind, 101, 321, id=f"{kind}-321") for kind in ["sq-ideal", "sq-zero", "pent-ideal", "pent-zero"]
] + [pytest.param(kind, 341, 401, id=f"{kind}-401") for kind in ["sq-ideal", "pent-ideal", "pent-zero"]])
def test_reproduce_appendix_golden_csv(kind, rmin, rmax, capsys):
    # The nine-column CSV is byte-stable on each kind's default grid,
    # r = 101..321: the first three rows of every file were written by the
    # float and mpmath wheel sums before the fan tables and the rotation
    # recurrence replaced their high-precision arithmetic, the ideal kinds'
    # files before the float wheel read its Delta table off circle_logs,
    # and the zero-angled kinds' files before both wheel sums read their
    # colors and link pairs off fusion_colors.  pent-zero's file past the
    # grid, r = 341..401, was written while the high-precision sum still
    # started every wheel at 2r + 256 bits, and the ideal kinds' files
    # there, whose float z-sums are the longest, before batch_sixj summed
    # narrow pieces in one flat pass.
    golden = (DATA / f"appendix-{kind}-{rmin}-{rmax}.csv").read_bytes()
    rc, out, _ = run_cli(
        ["reproduce-appendix", "--which", kind, "--rmin", str(rmin), "--rmax", str(rmax), "--rstep", "20"],
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


@pytest.mark.parametrize("graph,rmax,name", [("triangular-prism", "13", "tv-prism-5-13.csv"),
                                             ("cube", "9", "tv-cube-5-9.csv"),
                                             ("tetrahedron", "41", "tv-tetrahedron-5-41.csv")])
def test_scan_full_tv_sweep_golden_csv(graph, rmax, name, capsys):
    # The prism file's rows to r = 9 and the cube's to r = 7 were written
    # before each coloring sum worked out its graph's shape once and read
    # every bracket from the memo through canonical color getters, the
    # prism's later rows before a bare shape evaluated each symmetry class
    # of colorings once, and the cube's r = 9 row (137,862 colorings under
    # 48 automorphisms) before the coloring stream kept one loop for every
    # shape.  The tetrahedron file was written before the 6-tuple stream
    # came in blocks of _BLOCK tuples, which regrouped the orbit-weighted
    # sum of tv_tet_record: at r = 37 its log_value moved one ulp, which
    # the 12-digit CSV does not show.
    golden = (DATA / name).read_bytes()
    rc, out, _ = run_cli(
        ["scan", "--graph", graph, "--policy", "full-TV-sweep", "--rmin", "5", "--rmax", rmax],
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


@pytest.mark.parametrize("suite,r,heads", [
    ("sixj-symmetry", "11", [
        "[sixj-symmetry] 24 relabelings agree on all 1331 admissible sixtuples, r=11",
        "[sixj-symmetry] sixtuple_chunks lists admissible sixtuples, each once, r=11"
        " — 173 listed, 173 distinct, 1331 brute force",
        "[sixj-symmetry] the restricted cover meets every tetrahedral class, r=11"
        " — 122 of 122 classes",
    ]),
    ("sixj-symmetry", "9", [
        "[sixj-symmetry] 24 relabelings agree on all 414 admissible sixtuples, r=9",
        "[sixj-symmetry] sixtuple_chunks lists admissible sixtuples, each once, r=9"
        " — 67 listed, 67 distinct, 414 brute force",
        "[sixj-symmetry] the restricted cover meets every tetrahedral class, r=9"
        " — 49 of 49 classes",
    ]),
    ("desing", "7", [
        "[desing] square pyramid: all 4 apex anchors agree, r=7 — 650 colorings",
        "[desing] octahedron: rotated anchors at every vertex agree, r=7 — 50 colorings",
    ]),
    ("axiom7", "7", [
        "[axiom7] zero-colored tetrahedron edge reduces to the theta value, r=7"
        " — 84 cases over all 6 edge positions",
    ]),
], ids=["sixj-symmetry-r11", "sixj-symmetry-r9", "desing-r7", "axiom7-r7"])
def test_verify_sixj_symmetry_checks_enumeration(suite, r, heads, capsys):
    # every check line up to its residual, and the count of checks
    rc, out, _ = run_cli(["verify", suite, "--r", r], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == len(heads) + 1
    for line, head in zip(lines, heads):
        assert line.startswith("ok   " + head)
    assert lines[-1] == f"{len(heads)}/{len(heads)} checks passed"


def test_verify_unknown_suite():
    expect_exit2(["verify", "no-such-suite"])


def test_verify_graph_suite(capsys):
    rc, out, _ = run_cli(["verify", "kirby", "--graph", "theta", "--r", "5"], capsys)
    assert rc == 0
    assert "checks passed" in out


@pytest.mark.parametrize("argv", [
    ["verify", "volumes", "--r", "7"],
    ["verify", "hopf", "--graph", "cube"],
    ["verify", "oracle", "--r", "7", "--rmax", "9"],
])
def test_verify_option_a_suite_does_not_take_is_invalid_input(argv, capsys):
    expect_exit2(argv)
    assert "error: suite" in capsys.readouterr().err


def test_verify_all_passes_each_suite_only_its_options(monkeypatch, capsys):
    seen = []

    def takes_r(*, r=7):
        seen.append(("takes-r", r))
        return []

    def takes_none():
        seen.append(("takes-none",))
        return []

    monkeypatch.setattr(verify, "SUITES", {"takes-r": takes_r, "takes-none": takes_none})
    rc, out, _ = run_cli(["verify", "all", "--r", "5", "--graph", "cube"], capsys)
    assert rc == 0
    assert seen == [("takes-r", 5), ("takes-none",)]
    assert out == "0/0 checks passed\n"


@pytest.mark.parametrize("suite,rmax", [("oracle", "3"), ("nidentity", "1"), ("all", "4")])
def test_verify_rmax_below_5_is_invalid_input(suite, rmax, capsys):
    # no suite checks a level below 5, so such a cap would pass with
    # nothing run
    expect_exit2(["verify", suite, "--rmax", rmax])
    assert "error: --rmax" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["reproduce-appendix", "--which", "sq-zero", "--rmin", "7", "--rmax", "7"],
    ["scan", "--graph", "pentagonal-pyramid", "--policy", "zero-angled", "--rmin", "5",
     "--rmax", "9"],
])
def test_inadmissible_wheel_colors_are_invalid_input(argv, capsys):
    # at r = 7 the zero-angled colors round to 4, and the rim triple
    # (4, 4, 4) breaks the level bound 2r - 4 = 10
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert "error: rim triple (4,4,4) inadmissible at r=7" in err


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


# the graph files of test_invalid_input_prints_one_error_line, by the
# placeholder that stands for their path
_TORUS, _FLOAT_COUNT, _HALF_ENDPOINT = (graph_to_json(g) for g in (wheel(4), tetrahedron(), tetrahedron()))
_TORUS["rotations"][1].reverse()  # vertex 1 reversed: genus 1
_FLOAT_COUNT["vertices"] = 4.0
_HALF_ENDPOINT["edges"][0] = [0, 1.5]
_BAD_FILES = {"BAD_FILE": "{not json", "TORUS_FILE": json.dumps(_TORUS),
              "FLOAT_COUNT_FILE": json.dumps(_FLOAT_COUNT),
              "HALF_ENDPOINT_FILE": json.dumps(_HALF_ENDPOINT)}


@pytest.mark.parametrize("argv,message", [
    (["scan", "--graph", "tetrahedron", "--policy", "maximizer", "--rmin", "9", "--rmax", "7"],
     "--rmax 7 is below --rmin 9"),
    (["sixj", "--r", "7", "--colors", "2,2,x,2,2,2"],
     "--colors must be a comma-separated integer list, got '2,2,x,2,2,2'"),
    (["scan", "--graph", "BAD_FILE", "--policy", "maximizer", "--rmax", "7"],
     "could not parse graph file"),
    (["scan", "--graph", "tetrahedron", "--policy", "fixed", "--rmax", "7"],
     "fixed policy needs --colors (or a graph file with a colors array)"),
    (["scan", "--graph", "tetrahedron", "--policy", "fixed", "--colors", "4,4,4,4,4,4",
      "--rmax", "7"],
     "colors must lie in 0..2 at the smallest level r=5"),
    (["verify", "oracle", "--graph", "dodecahedron"], "unknown fixture 'dodecahedron'"),
    (["verify", "oracle", "--r", "8"], "--r must be an odd level >= 5, got 8"),
    # a vertex count of 4.0 and an endpoint of 1.5 are not integers
    (["scan", "--graph", "FLOAT_COUNT_FILE", "--policy", "maximizer", "--rmax", "7"],
     "could not parse graph file"),
    (["scan", "--graph", "HALF_ENDPOINT_FILE", "--policy", "maximizer", "--rmax", "7"],
     "could not parse graph file"),
    # a coloring with no admissible internal fill is refused all the same
    (["scan", "--graph", "TORUS_FILE", "--policy", "fixed", "--colors", "0,0,0,2,0,0,0,0",
      "--rmin", "7", "--rmax", "7"],
     "the rotation system does not embed in the sphere"),
    # a graph file that cannot be read, and an output that cannot be written
    (["scan", "--graph", "DIRECTORY", "--policy", "maximizer", "--rmax", "7"],
     "could not parse graph file"),
    (["scan", "--graph", "tetrahedron", "--policy", "maximizer", "--rmax", "7",
      "--output", "MISSING_DIR_FILE"],
     "could not write"),
])
def test_invalid_input_prints_one_error_line(argv, message, tmp_path, capsys):
    paths = {"DIRECTORY": tmp_path, "MISSING_DIR_FILE": tmp_path / "missing" / "x.csv"}
    for name, text in _BAD_FILES.items():
        paths[name] = tmp_path / f"{name.lower()}.json"
        paths[name].write_text(text, encoding="utf-8")
    # a bad argument exits 2, and an evaluation error returns 2
    try:
        rc = main([str(paths.get(a, a)) for a in argv])
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert message in out.err


@pytest.mark.parametrize("argv,note", [
    # !budget rows have no slope, so four levels leave no usable row
    (["--graph", "cube", "--rmax", "11", "--budget", "1"],
     "# extrapolation skipped: fewer than 4 usable rows\n"),
    (["--graph", "tetrahedron", "--rmax", "11"],
     "# extrapolation failed: levels too clustered to separate the log(r)/r term\n"),
])
def test_extrapolate_notes(argv, note, monkeypatch, capsys):
    def clustered(pairs):  # the fit's own guard, on one repeated level
        return extrapolate_limit([(101, 3.6)] * len(pairs))

    monkeypatch.setattr(cli, "extrapolate_limit", clustered)
    rc, out, err = run_cli(["scan", "--policy", "maximizer", *argv, "--extrapolate"], capsys)
    assert rc == 0
    assert len(out.splitlines()) == 5  # the header and levels 5..11
    assert err == note


@pytest.mark.parametrize("graph,rmax,name", [("tetrahedron", "101", "maximizer-tetrahedron-5-101.csv"),
                                             ("triangular-prism", "101", "maximizer-prism-5-101.csv"),
                                             ("cube", "9", "maximizer-cube-5-9.csv")])
def test_scan_maximizer_golden_csv(graph, rmax, name, capsys):
    # The tetrahedron and prism rows come from the scalar-6j fast route
    # (family-m0, family-m1), the cube rows from the graph engine.
    golden = (DATA / name).read_bytes()
    rc, out, _ = run_cli(
        ["scan", "--graph", graph, "--policy", "maximizer", "--rmin", "5", "--rmax", rmax],
        capsys,
    )
    assert rc == 0
    assert out.encode("utf-8") == golden


NUMERIC = ("log_value", "slope", "target", "rel_gap", "cancel_digits")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_budget_rows_are_empty_and_json_is_standard(capsys):
    argv = ["scan", "--graph", "cube", "--policy", "maximizer", "--rmax", "7", "--budget", "1"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["color_policy"] for row in rows] == ["maximizer!budget"] * 2
    assert all(row[f] == "" for row in rows for f in NUMERIC + ("wall_ms",))

    rc, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert rc == 0
    recs = json.loads(out, parse_constant=_reject_constant)
    assert all(rec[f] is None for rec in recs for f in NUMERIC)


# one (graph, policy, extra argv) per route a scan row is built on
ROUTES = [
    ("tetrahedron", "fixed", ["--colors", "2,2,2,2,2,2", "--rmax", "11"]),
    ("tetrahedron", "fixed", ["--colors", "0,0,0,0,0,2", "--rmax", "7"]),  # !zero rows
    ("tetrahedron", "maximizer", ["--rmax", "11"]),
    ("triangular-prism", "maximizer", ["--rmax", "11"]),
    ("cube", "maximizer", ["--rmax", "9"]),
    ("square-pyramid", "ideal-square-pyramid", ["--rmax", "11"]),
    ("pentagonal-pyramid", "ideal-pentagonal-pyramid", ["--rmax", "11"]),
    ("square-pyramid", "zero-angled", ["--rmin", "9", "--rmax", "11"]),
    ("pentagonal-pyramid", "zero-angled", ["--rmin", "11", "--rmax", "11"]),
    ("tetrahedron", "full-TV-sweep", ["--rmax", "11"]),
    ("triangular-prism", "full-TV-sweep", ["--rmax", "7"]),
    ("tetrahedron", "exhaustive-bound", ["--rmax", "11"]),
    ("tetrahedron", "exhaustive-bound", ["--rmax", "7", "--budget", "1"]),  # !budget rows
]


@pytest.mark.parametrize("graph,policy,extra", ROUTES)
def test_scan_rows_share_one_formula(graph, policy, extra, capsys):
    argv = ["scan", "--graph", graph, "--policy", policy] + extra
    rc, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert rc == 0
    recs = json.loads(out, parse_constant=_reject_constant)
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(recs)
    for rec, row in zip(recs, rows):
        # the CSV prints the same row, each float to 12 digits
        assert row == {
            f: "" if v is None else format(v, ".12g") if isinstance(v, float) else str(v)
            for f, v in rec.items()
        }
        if rec["color_policy"].endswith(("!zero", "!budget")):
            assert all(rec[f] is None for f in NUMERIC)
            continue
        per = 2 * math.pi if rec["kind"] == "sixj-bound" else math.pi
        assert rec["slope"] == (per / rec["r"]) * rec["log_value"]
        if rec["target"] is None:
            assert rec["rel_gap"] is None
        else:
            assert rec["rel_gap"] == (rec["slope"] - rec["target"]) / rec["target"]


def test_tetrahedron_tv_budget_rows_keep_their_kind(capsys):
    rc, out, _ = run_cli(["scan", "--graph", "tetrahedron", "--policy", "full-TV-sweep",
                          "--rmin", "5", "--rmax", "21", "--rstep", "4", "--budget", "2000"], capsys)
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[-1]["color_policy"] == "full-TV-sweep!budget"
    assert [row["kind"] for row in rows] == ["tv-tet"] * 5


@pytest.mark.parametrize("graph,policy,label", [
    ("tetrahedron", "full-TV-sweep", "full-TV-sweep"),
    ("cube", "maximizer", "maximizer"),
    ("tetrahedron", "exhaustive-bound", "exhaustive"),
])
def test_negative_budget_is_invalid_input(graph, policy, label, capsys):
    argv = ["scan", "--graph", graph, "--policy", policy, "--rmax", "9", "--budget"]
    expect_exit2(argv + ["-1"])
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --budget must be a non-negative integer, got -1\n"
    # a zero budget is valid and stops every level
    rc, out, _ = run_cli(argv + ["0"], capsys)
    assert rc == 0
    assert [row["color_policy"] for row in csv.DictReader(io.StringIO(out))] == [label + "!budget"] * 3


# ---------------------------------------------------------------------------
# a scan's route depends on the graph's shape, not on the name it is given by


# the routes planar.recognize selects; the others run the graph engine,
# whose move order follows the labeling
SHAPE_ROUTES = {("tetrahedron", "maximizer"), ("triangular-prism", "maximizer"),
                ("tetrahedron", "full-TV-sweep"), ("tetrahedron", "exhaustive-bound")}
WHEEL_POLICIES = ("ideal-square-pyramid", "ideal-pentagonal-pyramid", "zero-angled")


def json_copies(g, tmp_path, shuffled):
    """Paths of JSON copies of g: in its own edge order, or relabeled
    (ids, edge orientations and rotation starts shuffled) and mirrored."""
    if shuffled:
        h = relabel(g, (0,) * g.ne, random.Random(repr(g.edges)))[0]
        graphs = [h, mirror(h)]
    else:
        graphs = [g]
    paths = []
    for i, h in enumerate(graphs):
        path = tmp_path / f"copy-{i}.json"
        path.write_text(json.dumps(graph_to_json(h)))
        paths.append(str(path))
    return paths


def scan_stdout(argv, capsys):
    """(exit code, stdout) of a scan, an invalid one included."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("graph,policy,extra", ROUTES)
def test_json_copy_takes_the_fixture_route(graph, policy, extra, tmp_path, capsys):
    argv = ["--policy", policy] + extra
    want = scan_stdout(["scan", "--graph", graph] + argv, capsys)
    assert want[0] == 0
    shuffled = (graph, policy) in SHAPE_ROUTES or policy in WHEEL_POLICIES
    for path in json_copies(verify.FIXTURES[graph](), tmp_path, shuffled):
        assert scan_stdout(["scan", "--graph", path] + argv, capsys) == want


@pytest.mark.parametrize("graph,policy,rmax,name", [
    ("tetrahedron", "maximizer", "101", "maximizer-tetrahedron-5-101.csv"),
    ("triangular-prism", "maximizer", "101", "maximizer-prism-5-101.csv"),
    ("tetrahedron", "full-TV-sweep", "41", "tv-tetrahedron-5-41.csv"),
    ("tetrahedron", "exhaustive-bound", "49", "exhaustive-bound-5-49.csv"),
])
def test_relabeled_json_copy_prints_the_golden_csv(graph, policy, rmax, name, tmp_path, capsys):
    golden = (DATA / name).read_bytes()
    for path in json_copies(verify.FIXTURES[graph](), tmp_path, shuffled=True):
        argv = ["scan", "--graph", path, "--policy", policy, "--rmin", "5", "--rmax", rmax]
        assert scan_stdout(argv, capsys) == (0, golden.decode("utf-8"))


@pytest.mark.parametrize("graph", sorted(verify.FIXTURES))
def test_every_policy_gives_a_fixture_and_its_json_copy_the_same_scan(graph, tmp_path, capsys):
    g = verify.FIXTURES[graph]()
    path, = json_copies(g, tmp_path, shuffled=False)
    for policy in POLICIES:
        argv = ["--policy", policy, "--rmax", "5"]
        if policy == "fixed":
            argv += ["--colors", ",".join(["2"] * g.ne)]
        want = scan_stdout(["scan", "--graph", graph] + argv, capsys)
        assert scan_stdout(["scan", "--graph", path] + argv, capsys) == want


@pytest.mark.parametrize("graph,policy,needs", [
    ("cube", "zero-angled", "a 4-spoke wheel or a 5-spoke wheel"),
    ("pentagonal-pyramid", "ideal-square-pyramid", "a 4-spoke wheel"),
    ("triangular-prism", "exhaustive-bound", "a tetrahedron (the 3-spoke wheel)"),
    (wheel(6), "zero-angled", "a 4-spoke wheel or a 5-spoke wheel"),
])
def test_route_refuses_a_graph_without_its_shape(graph, policy, needs, tmp_path, capsys):
    if not isinstance(graph, str):
        graph = json_copies(graph, tmp_path, shuffled=True)[0]
    expect_exit2(["scan", "--graph", graph, "--policy", policy, "--rmax", "9"])
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: policy {policy} needs {needs}, not ")
