"""The skeinvol benchmark.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: wheel-appendix, bound-sweep, tv-sweep, graph-engine (see
bench/NOTES.md for why each exists).  A run repeats rounds of the
workload's ops until S seconds have passed (at least three rounds),
each round in a fresh interpreter whose launch up to the return of
``import skeinvol`` is one sample of ``setup_s``.  Op times are divided
by the time of a fixed gauge loop run in the same round, so that host
speed drift cancels.  Every op's record is gated against
bench/reference.json.

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 the rounds alternate between traced and untraced and it
carries the per-layer metrics.  A JSON file with the machine, versions,
every round and every metric goes to bench/out/, and traced rounds
write their spans there too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, check_claims, check_op, ops_for  # noqa: E402

MIN_ROUNDS = 3      # a traced run needs two traced rounds and one untraced
MAX_ROUNDS = 9
TIME_LIMIT_S = 170  # a run gives up rather than pass this, whatever --seconds says

# spans whose self time is a per-layer metric
TIMED = ("scans.batch_sixj", "scans.sixtuple_chunks", "scans.tv_tet_record",
         "scans.wheel_log_invariant", "scans.wheel_log_invariant_mp",
         "qnum.sixj_info", "planar.canonical_signature", "bracket.bracket",
         "yokota.yokota_ext")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SKEIN_THREADS", "SKEIN_BUDGET", "SKEIN_PRECISION_BITS",
                        "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"  # per-layer counts must repeat exactly
    return env


def run_round(ops, trace: bool, spans: Path | None, env, timeout: float) -> dict:
    """Run the ops in a fresh interpreter.  The round's setup_s is the
    time from launching it to the return of its skeinvol import."""
    spec = json.dumps({"ops": ops, "trace": trace,
                       "spans": str(spans) if spans else None})
    launched = time.monotonic()
    done = subprocess.run([sys.executable, str(BENCH / "child.py"), str(ROOT), spec],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"round failed (exit {done.returncode}):\n{done.stderr[-2000:]}")
    rnd = json.loads(done.stdout.strip().splitlines()[-1])
    rnd["setup_s"] = rnd["imported_at"] - launched
    return rnd


def git_commit() -> str | None:
    """The checkout's commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "commit": git_commit(),
    }


def layer_metrics(layers: dict, results: list[dict]) -> dict:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    def row(name):
        return layers.get(name, {})

    m = {}
    for name in TIMED:
        m[f"{name}.self_s"] = (row(name).get("self_s", 0.0), "s")
    for name in ("scans.batch_sixj", "scans.wheel_log_invariant_mp", "qnum.sixj_info",
                 "planar.canonical_signature", "bracket.bracket", "yokota.yokota_ext"):
        m[f"{name}.calls"] = (row(name).get("calls", 0), "count")
    b = row("scans.batch_sixj")
    m["scans.batch_sixj.tuples"] = (b.get("tuples", 0), "count")
    m["scans.batch_sixj.tuples_per_s"] = (
        b["tuples"] / b["self_s"] if b.get("self_s") else 0.0, "1/s")
    m["scans.batch_sixj.lane_util"] = (
        b["useful"] / b["padded"] if b.get("padded") else 0.0, "ratio")
    m["scans.sixtuple_chunks.tuples"] = (row("scans.sixtuple_chunks").get("tuples", 0), "count")

    diags = [r["diag"] for r in results if "diag" in r]
    rechecked = sum(d["rechecked"] for d in diags)
    tuples = sum(d["tuples"] for d in diags)
    m["scans.bound_record.rechecked"] = (rechecked, "count")
    m["scans.bound_record.recheck_frac"] = (rechecked / tuples if tuples else 0.0, "ratio")
    appendix = row("scans.appendix_record").get("calls", 0)
    m["scans.appendix_record.escalate_frac"] = (
        row("scans.wheel_log_invariant_mp").get("calls", 0) / appendix if appendix else 0.0,
        "ratio")
    s = row("qnum.sixj_info")
    m["qnum.sixj_info.mp_frac"] = (s.get("mp", 0) / s["calls"] if s.get("calls") else 0.0,
                                   "ratio")
    canon = row("planar.canonical_signature").get("calls", 0)
    added = sum(r.get("memo_added", 0) for r in results)
    m["bracket.memo_hit_frac"] = (1.0 - added / canon if canon else 0.0, "ratio")
    evals = row("yokota.yokota_ext").get("calls", 0)
    m["yokota.brackets_per_eval"] = (
        row("bracket.bracket").get("calls", 0) / evals if evals else 0.0, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "skeinvol" / "__init__.py").is_file():
        print(f"no skeinvol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())["records"]
    ops = ops_for(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env()

    t_start = time.monotonic()
    deadline = t_start + args.seconds

    # traced runs interleave traced and untraced rounds, so the overhead
    # estimate sees the same machine state on both sides
    plan = [True, False] if args.trace else [False]
    rounds = []
    longest = 0.0
    while len(rounds) < MAX_ROUNDS:
        now = time.monotonic()
        if len(rounds) >= MIN_ROUNDS and now + longest > deadline:
            break
        traced = plan[len(rounds) % len(plan)]
        spans = OUT / f"spans-{tag}-round{len(rounds)}.json" if traced else None
        try:
            rnd = run_round(ops, traced, spans, env, t_start + TIME_LIMIT_S - now)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"round {len(rounds)} of {tag}: {err}", file=sys.stderr)
            return 1
        rnd["traced"] = traced
        for key in ("wall", "top_op"):
            rnd[key + "_norm"] = rnd[key + "_s"] / rnd["gauge_s"]
        rounds.append(rnd)
        longest = max(longest, time.monotonic() - now)

    attempted = failed = 0
    problems = []
    for k, rnd in enumerate(rounds):
        for res in rnd["results"]:
            attempted += 1
            why = check_op(res, reference)
            if why:
                failed += 1
                problems.append(f"round {k} {res['id']}: {why}")
        problems += [f"round {k} {c}" for c in check_claims(args.workload, rnd["results"])]
    src = (ROOT / "src").resolve()
    for rnd in rounds:
        if src not in Path(rnd["skeinvol_file"]).resolve().parents:
            problems.append(f"skeinvol imported from {rnd['skeinvol_file']}")

    plain = [r for r in rounds if not r["traced"]]
    setup = [r["setup_s"] for r in rounds]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        per_round = [layer_metrics(r["layers"], r["results"]) for r in traced]
        metrics = {}
        for name, (value, unit) in per_round[0].items():
            values = [pr[name][0] for pr in per_round]
            if unit in ("s", "1/s"):
                metrics[name] = (statistics.median(values), unit)
                continue
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = (value, unit)
        if args.workload == "bound-sweep":
            diag_tuples = sum(r["diag"]["tuples"] for r in traced[0]["results"])
            if metrics["scans.sixtuple_chunks.tuples"][0] != diag_tuples:
                problems.append("sixtuple_chunks tuples differ from bound_record diagnostics")
        overhead = (statistics.median(r["wall_norm"] for r in traced)
                    / statistics.median(r["wall_norm"] for r in plain) - 1.0)
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    else:
        metrics = {
            "wall_norm": (statistics.median(r["wall_norm"] for r in plain), "gauge"),
            "top_op_norm": (statistics.median(r["top_op_norm"] for r in plain), "gauge"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "pass_frac": (1.0 - failed / attempted, "ratio"),
        }

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": [op["id"] for op in ops],
        "machine": {**machine(), **rounds[0]["versions"]},
        "setup_samples_s": setup,
        "seconds_medians": {k: statistics.median(r[k] for r in plain)
                            for k in ("wall_s", "top_op_s", "gauge_s")},
        "rounds": [{k: r[k] for k in ("traced", "wall_s", "top_op_s", "gauge_s",
                                      "wall_norm", "top_op_norm", "setup_s", "peak_rss_mb")}
                   | {"op_s": {res["id"]: res["t_s"] for res in r["results"]}}
                   for r in rounds],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=1))

    print(f"# {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(rounds) - len(plain)} traced rounds, {len(setup)} setup samples; "
          f"machine {json.dumps(report['machine'])}")
    for msg in problems:
        print(f"# FAIL {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("# in seconds: " + ", ".join(
        f"{k} {v:.6g} s" for k, v in report["seconds_medians"].items()))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
