"""End-to-end acceptance battery.

Each test covers one headline claim and prints a single PASS/FAIL line, so a
verbose run reads as a checklist.  These are intentionally heavier than the
unit tests; the whole file finishes in a few minutes on one core.
"""

import math
import os

import skeinvol.scans as scans
from skeinvol.cli import main
from skeinvol.hypvol import V8, extrapolate_limit
from skeinvol.scans import (
    appendix_record,
    bound_record,
    family_record,
)
from skeinvol.verify import run_suite
from skeinvol.yokota import hopf_pairing, maximizing_color

APPENDIX_GRID = list(range(101, 322, 20))


def _report(num, label, ok, detail=""):
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def _suite_outcome(names, **kw):
    results = []
    for name in names:
        results.extend(run_suite(name, **kw))
    bad = [c for c in results if not c.passed]
    detail = f"{len(results) - len(bad)}/{len(results)} checks"
    if bad:
        detail += "; first failure: " + bad[0].line()
    return not bad, detail


def test_criterion_1_float_engine_matches_exact_oracle():
    ok, detail = _suite_outcome(["oracle"], rmax=13)
    _report(1, "6j-symbol squares match the cyclotomic oracle for r <= 13", ok, detail)


def test_criterion_2_reduction_identity_battery():
    ok, detail = _suite_outcome(
        ["bigon", "axiom3", "axiom7", "desing", "doubling", "vertexsum", "fusion", "kirby"]
    )
    _report(2, "bracket/invariant identity battery (8 suites)", ok, detail)


def test_criterion_3_fourier_transform():
    ok, detail = _suite_outcome(["fourier"])
    _report(3, "dual-graph tables agree with the Fourier transform", ok, detail)


def test_criterion_4_normalization_identity():
    ok, detail = _suite_outcome(["nidentity"], rmax=2001)
    _report(4, "sine-square normalization identity up to r = 2001", ok, detail)


def test_criterion_5_growth_bound_and_maximizer_limit():
    bound_fail = None
    for r in range(5, 102, 2):
        _, diag = bound_record(r)
        if not diag["bound_ok"]:
            bound_fail = (r, diag["excess"])
            break
    pairs = [(r, family_record(r, 0).slope) for r in range(51, 302, 2)]
    limit = extrapolate_limit(pairs)
    gap = abs(limit - V8) / V8
    ok = bound_fail is None and gap < 0.02
    detail = f"bound holds through r=101; fitted slope limit {limit:.6f} vs {V8:.6f} ({100 * gap:.2f}%)"
    if bound_fail:
        detail = f"bound violated at r={bound_fail[0]} (excess {bound_fail[1]:.3g})"
    _report(5, "exhaustive 6j growth bound + maximizer slope limit within 2%", ok, detail)


def test_criterion_6_wheel_volume_reproduction():
    recs = {
        kind: [appendix_record(kind, r) for r in APPENDIX_GRID]
        for kind in ("sq-ideal", "sq-zero", "pent-ideal", "pent-zero")
    }
    gaps = {kind: [abs(rec.rel_gap) for rec in rows] for kind, rows in recs.items()}
    checks = {
        "sq-ideal": gaps["sq-ideal"][-1] <= 0.05,
        "pent-ideal": gaps["pent-ideal"][-1] <= 0.05,
        "pent-zero": gaps["pent-zero"][-1] <= 0.05,
        "sq-zero": all(a > b for a, b in zip(gaps["sq-zero"], gaps["sq-zero"][1:])),
    }
    ok = all(checks.values())
    detail = (
        f"final gaps at r=321: sq-ideal {100 * gaps['sq-ideal'][-1]:.2f}%, "
        f"pent-ideal {100 * gaps['pent-ideal'][-1]:.2f}%, "
        f"pent-zero {100 * gaps['pent-zero'][-1]:.2f}%, "
        f"sq-zero gap {'decreasing' if checks['sq-zero'] else 'NOT decreasing'}"
    )
    _report(6, "pyramid slope scans reproduce the target volumes", ok, detail)


def test_criterion_7_volume_functions():
    ok, detail = _suite_outcome(["volumes"])
    _report(7, "Lobachevsky function and reference volumes", ok, detail)


def test_criterion_8_hopf_sign_and_family_limit():
    sign_ok = True
    for r in (7, 11):
        c = maximizing_color(r)
        row = [hopf_pairing(c, j, r) for j in range(0, r - 2, 2)]
        signs = {v > 0 for v in row}
        if len(signs) != 1 or any(v == 0 for v in row):
            sign_ok = False
    pairs = [(r, family_record(r, 1).slope) for r in range(51, 302, 2)]
    limit = extrapolate_limit(pairs)
    target = 2 * V8
    gap = abs(limit - target) / target
    ok = sign_ok and gap < 0.05
    detail = f"maximizer row sign constant at r=7,11; family limit {limit:.4f} vs {target:.4f} ({100 * gap:.2f}%)"
    _report(8, "Hopf-row sign control + first family member volume within 5%", ok, detail)


def test_criterion_9_worker_determinism(monkeypatch, capsys):
    # the bound sweep's screen is the one mechanism that spreads work over
    # processes: with n cores each of the five levels forks n - 1 workers
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    argv = ["scan", "--graph", "tetrahedron", "--policy", "exhaustive-bound",
            "--rmin", "41", "--rmax", "49"]
    outputs, forked = [], []
    for n in (1, 2, 3):
        monkeypatch.setattr(scans, "_cores", lambda n=n: n)
        del forks[:]
        rc = main(argv)
        outputs.append((rc, capsys.readouterr().out))
        forked.append(len(forks))
    rows = outputs[0][1].splitlines()[1:]
    ok = (outputs[0] == outputs[1] == outputs[2] and outputs[0][0] == 0
          and [row.split(",")[0] for row in rows] == ["41", "43", "45", "47", "49"]
          and forked == [0, 5, 10])
    _report(9, "scan output is byte-identical across 1/2/3 screen processes", ok,
            f"forks per run {forked}")
