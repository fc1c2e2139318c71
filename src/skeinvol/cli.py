"""Command-line surface: 6j evaluation, level scans, and identity checks.

Subcommands
-----------
sixj                evaluate one 6j-symbol with diagnostics
scan                sweep odd levels with a coloring policy, emit CSV/JSON
reproduce-appendix  run one of the four wheel-graph volume experiments
verify              run a named identity suite, exit 1 on any failure

Scan output follows the fixed CSV schema
``r,kind,color_policy,log_value,slope,target,rel_gap,cancel_digits,wall_ms``
and is byte-identical for a given invocation whatever the number of cores
the forked work uses: the bound sweep's screen and the link loop of the
high-precision wheel sum (timings are opt-in because they would break
that). Every row is built by hypvol.ScanRecord.at, which works out
slope and rel_gap and the empty row of a level marked !zero or !budget.
Human-readable summaries go to stderr so stdout stays machine-readable.

scan routes a policy by the graph's shape (planar.recognize), not by the
name it was given: a JSON copy of a fixture, relabeled or mirrored,
prints the fixture's rows.

The CLI reads no environment: scan's evaluation budget comes from
--budget alone, and the high-precision floors (r + 64 bits for a 6j,
2r + 256 for a wheel sum) are fixed in the library.

Exit codes: 0 success, 1 failed verification, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

from .errors import SkeinError
from .hypvol import (
    CSV_FIELDS,
    ScanRecord,
    extrapolate_limit,
    records_to_csv,
)
from .planar import PlanarGraph, graph_from_json, recognize
from .qnum import sixj_info
from .scans import _APPENDIX, appendix_record, bound_record, family_record, run_levels, tv_tet_record
from .verify import FIXTURES, run_suite, suite_names
from .yokota import maximizing_color, tv_graph, yokota_ext

POLICIES = (
    "fixed",
    "maximizer",
    "ideal-square-pyramid",
    "ideal-pentagonal-pyramid",
    "zero-angled",
    "full-TV-sweep",
    "exhaustive-bound",
)


def _fail(msg: str) -> "SystemExit":
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _odd_levels(rmin: int, rmax: int, rstep: int) -> List[int]:
    if rmin < 5 or rmin % 2 == 0:
        _fail(f"--rmin must be an odd level >= 5, got {rmin}")
    if rstep < 2 or rstep % 2:
        _fail(f"--rstep must be a positive even integer, got {rstep}")
    if rmax < rmin:
        _fail(f"--rmax {rmax} is below --rmin {rmin}")
    return list(range(rmin, rmax + 1, rstep))


def _parse_colors(text: str, expected: Optional[int] = None) -> List[int]:
    try:
        colors = [int(x) for x in text.split(",")]
    except ValueError:
        _fail(f"--colors must be a comma-separated integer list, got {text!r}")
    if expected is not None and len(colors) != expected:
        _fail(f"expected {expected} colors, got {len(colors)}")
    return _check_colors(colors)


def _check_colors(colors) -> List[int]:
    """colors as a list, or exit 2 unless each is an even non-negative int
    (the colors of a graph file are checked here as well as --colors)."""
    if any(type(c) is not int or c < 0 or c % 2 for c in colors):
        _fail(f"colors must be even non-negative integers, got {list(colors)}")
    return list(colors)


def _resolve_graph(ref: str) -> tuple[PlanarGraph, str, Optional[tuple]]:
    """A fixture name (dashes or underscores) or a JSON graph file."""
    name = ref.replace("_", "-")
    if name in FIXTURES:
        return FIXTURES[name](), name, None
    if os.path.exists(ref):
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                g, col = graph_from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
            _fail(f"could not parse graph file {ref}: {exc}")
        return g, os.path.basename(ref), col
    _fail(f"unknown graph {ref!r}: not a fixture ({', '.join(sorted(FIXTURES))}) or a file")


def _emit(records, args) -> None:
    if args.format == "json":
        payload = [
            {field: getattr(rec, field) for field in CSV_FIELDS} for rec in records
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = records_to_csv(records)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(f"could not write {args.output}: {exc}")
        print(f"# wrote {len(records)} rows to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _extrapolation_note(records) -> None:
    pairs = [(rec.r, rec.slope) for rec in records if rec.slope is not None]
    if len(pairs) < 4:
        print("# extrapolation skipped: fewer than 4 usable rows", file=sys.stderr)
        return
    try:
        limit = extrapolate_limit(pairs)
    except SkeinError as exc:
        print(f"# extrapolation failed: {exc}", file=sys.stderr)
        return
    last_r, last_slope = pairs[-1]
    print(
        f"# extrapolated limit (model a + b*log(r)/r): {limit:.6f}; "
        f"raw slope at r={last_r}: {last_slope:.6f}",
        file=sys.stderr,
    )


# ------------------------------------------------------------------ sixj


def cmd_sixj(args) -> int:
    if args.r < 5 or args.r % 2 == 0:
        _fail(f"--r must be an odd level >= 5, got {args.r}")
    colors = _parse_colors(args.colors, expected=6)
    if any(c > args.r - 3 for c in colors):
        _fail(f"colors must lie in 0..{args.r - 3} at r={args.r}, got {colors}")
    info = sixj_info(*colors, args.r)
    val = info["value"].to_complex()
    print(f"6j{tuple(colors)} at r={args.r}")
    print(f"value = {val.real:.12f} {'+' if val.imag >= 0 else '-'} {abs(val.imag):.12f}i")
    if abs(val) > 0:
        print(f"log|value| = {math.log(abs(val)):.12f}")
    else:
        print("log|value| = -inf")
    print(f"admissible: {'yes' if info['admissible'] else 'no (inadmissible coloring)'}")
    path = f"escalated to {info['prec_bits']}-bit arithmetic" if info["used_mp"] else "float path"
    print(f"cancellation: {info['cancel_digits']:.1f} digits ({path}, {info['terms']} terms)")
    return 0


# ------------------------------------------------------------------ scan


def _engine_row(r: int, kind: str, policy: str, val) -> ScanRecord:
    """The row of a graph-engine value at level r; a zero is marked !zero."""
    if val.is_zero():
        return ScanRecord.at(r, kind, policy + "!zero")
    return ScanRecord.at(r, kind, policy, val.log_abs())


def cmd_scan(args) -> int:
    levels = _odd_levels(args.rmin, args.rmax, args.rstep)
    graph, name, file_colors = _resolve_graph(args.graph)
    shape = recognize(graph)
    tet = shape == ("wheel", 3)
    # spoke count -> the _APPENDIX experiment this policy runs on that wheel:
    # an ideal experiment's target names its policy, the others are zero-angled
    wheel_kinds = {n: kind for kind, (target, n, _) in _APPENDIX.items()
                   if args.policy == (target if target in POLICIES else "zero-angled")}
    budget = args.budget
    if budget is not None and budget < 0:
        _fail(f"--budget must be a non-negative integer, got {budget}")

    if args.policy == "fixed":
        colors = (
            _parse_colors(args.colors, expected=graph.ne)
            if args.colors
            else _check_colors(file_colors or ())
        )
        if len(colors) != graph.ne:
            _fail("fixed policy needs --colors (or a graph file with a colors array)")
        if any(c > levels[0] - 3 for c in colors):
            _fail(f"colors must lie in 0..{levels[0] - 3} at the smallest level r={levels[0]}")
        # space-separated so the policy label never breaks the 9-column CSV
        kind, policy = "fixed", "fixed[" + " ".join(str(c) for c in colors) + "]"
        build = lambda r: _engine_row(r, kind, policy, yokota_ext(graph, colors, r, budget=budget))
    elif args.policy == "maximizer" and (tet or shape == ("prism", 3)):
        m = 0 if tet else 1
        kind, policy = f"family-m{m}", "maximizer"
        build = lambda r: family_record(r, m)
    elif args.policy == "maximizer":
        kind, policy = "maximizer", "maximizer"

        def build(r):
            c = maximizing_color(r)
            val = yokota_ext(graph, [c] * graph.ne, r, budget=budget)
            return _engine_row(r, kind, f"maximizer[c={c}]", val)
    elif wheel_kinds:  # the ideal and zero-angled wheel experiments
        spokes = shape[1] if shape and shape[0] == "wheel" else None
        if spokes not in wheel_kinds:
            wheels = " or ".join(f"a {n}-spoke wheel" for n in sorted(wheel_kinds))
            _fail(f"policy {args.policy} needs {wheels}, not {name}")
        kind, policy = wheel_kinds[spokes], args.policy
        build = lambda r: appendix_record(kind, r)
    elif args.policy == "exhaustive-bound":
        if not tet:
            _fail(f"policy exhaustive-bound needs a tetrahedron (the 3-spoke wheel), not {name}")
        kind, policy = "sixj-bound", "exhaustive"
        build = lambda r: bound_record(r, budget=budget)[0]
    elif tet:  # full-TV-sweep
        kind, policy = "tv-tet", "full-TV-sweep"
        build = lambda r: tv_tet_record(r, budget=budget)
    else:
        kind, policy = "tv", "full-TV-sweep"
        build = lambda r: _engine_row(r, kind, policy, tv_graph(graph, r, budget=budget))

    records = run_levels(build, levels, timings=args.timings, mark=(kind, policy))
    _emit(records, args)
    if args.extrapolate:
        _extrapolation_note(records)
    return 0


# ------------------------------------------------- reproduce-appendix


def cmd_reproduce_appendix(args) -> int:
    levels = _odd_levels(args.rmin, args.rmax, args.rstep)
    records = run_levels(lambda r: appendix_record(args.which, r), levels, timings=args.timings)
    _emit(records, args)

    # appendix rows always carry a target, so every rel_gap is set
    first, last = records[0], records[-1]
    trend = "decreasing" if abs(last.rel_gap) < abs(first.rel_gap) else "NOT decreasing"
    within = "within" if abs(last.rel_gap) <= 0.05 else "outside"
    print(
        f"# {args.which}: target {last.target:.6f}; final slope at r={last.r}: "
        f"{last.slope:.6f} (gap {last.rel_gap:+.2%}, {within} 5%)",
        file=sys.stderr,
    )
    print(
        f"# gap trend over r={first.r}..{last.r}: {trend} "
        f"({first.rel_gap:+.2%} -> {last.rel_gap:+.2%})",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    graph = None
    if args.graph:
        graph = args.graph.replace("_", "-")
        if graph not in FIXTURES:
            _fail(f"unknown fixture {args.graph!r}; choose from {', '.join(sorted(FIXTURES))}")
    if args.r is not None and (args.r < 5 or args.r % 2 == 0):
        _fail(f"--r must be an odd level >= 5, got {args.r}")
    if args.rmax is not None and args.rmax < 5:
        _fail(f"--rmax must be at least 5, the smallest level a suite checks, got {args.rmax}")
    try:
        results = run_suite(args.suite, r=args.r, rmax=args.rmax, graph=graph)
    except KeyError as exc:
        _fail(str(exc.args[0]))
    for res in results:
        print(res.line())
    failed = sum(not res.passed for res in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


# ------------------------------------------------------------------ main


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", "-o", help="write records to this file instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument(
        "--timings",
        action="store_true",
        help="fill the wall_ms column (off by default: timings vary run to run)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeinvol",
        description="Quantum invariants of colored planar graphs and their volume scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sixj", help="evaluate one 6j-symbol with diagnostics")
    p.add_argument("--r", type=int, required=True, help="odd level >= 5")
    p.add_argument("--colors", required=True, help="six comma-separated even colors")
    p.set_defaults(fn=cmd_sixj)

    p = sub.add_parser("scan", help="sweep odd levels with a coloring policy")
    p.add_argument("--graph", required=True, help="fixture name or JSON graph file")
    p.add_argument(
        "--policy",
        required=True,
        choices=POLICIES,
        help="coloring policy, routed by the graph's shape (fixture or file): the ideal "
        "policies need the wheel their pyramid names, zero-angled a 4- or 5-spoke wheel, "
        "exhaustive-bound (the level maximum of log|6j|, target v8) a tetrahedron",
    )
    p.add_argument("--rmin", type=int, default=5)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--rstep", type=int, default=2, help="even step so levels stay odd")
    p.add_argument("--colors", help="fixed policy: comma-separated colors, one per edge")
    p.add_argument(
        "--budget",
        type=int,
        help="evaluation budget for engine-backed policies; on a tetrahedron's "
        "full-TV-sweep and on exhaustive-bound, the enumerated cover 6-tuples",
    )
    p.add_argument(
        "--extrapolate",
        action="store_true",
        help="print the fitted limit of the slope column to stderr",
    )
    _add_output_flags(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser(
        "reproduce-appendix", help="run one wheel-graph volume experiment"
    )
    p.add_argument("--which", required=True, choices=tuple(_APPENDIX))
    p.add_argument("--rmin", type=int, default=101)
    p.add_argument("--rmax", type=int, default=321)
    p.add_argument("--rstep", type=int, default=20)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_reproduce_appendix)

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("suite", choices=suite_names() + ["all"])
    p.add_argument("--r", type=int, default=None, help="level override for the suite")
    p.add_argument("--rmax", type=int, default=None, help="level cap for sweep suites")
    p.add_argument("--graph", default=None, help="fixture name for graph-based suites")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SkeinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
