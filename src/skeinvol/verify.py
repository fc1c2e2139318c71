"""Cross-checks that pin the engine against independent evaluation routes.

Every convention in the package (vertex normalization, bigon collapse,
fusion coefficients, the Kirby color, the Fourier pairing) is locked by
at least one identity that can be computed two ways.  This module
gathers those identities into named suites; each suite returns a list of
CheckResult records so the command-line ``verify`` subcommand and the
test suite can share one implementation.

The second routes are not copies of package code: they rest on the
exact cyclotomic-field oracle (cyclo), the brute-force 6-tuples and the
closed forms.  The symmetry group that sixj-symmetry applies is
qnum.SIXJ_SYMMETRIES, which a unit test pins as the tetrahedral group.

Suites
------
oracle         6j values and the wheel fan z-sums against exact cyclotomic-field arithmetic
bigon          circle/theta pinning and bigon collapse via full reduction
axiom3         tetrahedron bracket equals the 6j-symbol, exhaustively
axiom7         zero-colored edge removal with its square-root branch
desing         invariant independence from the corner each fan starts at
doubling       invariant of a doubled graph is the square
vertexsum      multiplicativity under vertex sums
fusion         termwise fusion-rule consistency and reduction-order independence
kirby          Kirby-colored invariant equals N^betti
nidentity      sum of squared circle weights equals r/(4 sin^2(2pi/r))
fourier        the dual-graph Fourier identity, both sides computed
sixj-symmetry  tetrahedral symmetries of the 6j-symbol; enumeration vs brute force
hopf           Hopf pairing forms, symmetry, and the constant-sign row
volumes        hyperbolic volume constants and the Lobachevsky oracle
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import mpmath as mp

from .bracket import bracket, fusion_at
from .errors import BudgetExceeded
from .hypvol import V8, antiprism_volume, lobachevsky, named_volumes
from .planar import (
    PlanarGraph,
    betti,
    circle,
    cube,
    double_at,
    dual,
    octahedron,
    pentagonal_pyramid,
    relabel,
    square_pyramid,
    tetrahedron,
    theta,
    triangle,
    triangular_prism,
    vertex_sum_with_maps,
)
from .qnum import (
    MP_LOCK,
    SIXJ_SYMMETRIES,
    Level,
    _canonical_sixtuple,
    admissible_triples,
    circle_weight,
    fusion_colors,
    is_admissible_triple,
    kirby_norm,
    sixj,
)
from .scans import _fan_colors, _fan_links, _wheel_start_bits, appendix_colors
from .yokota import (
    admissible_colorings,
    fourier_dual,
    hopf_pairing,
    maximizing_color,
    yokota_ext,
    yokota_kirby,
    yokota_table,
)

__all__ = [
    "CheckResult",
    "FIXTURES",
    "SUITES",
    "run_suite",
    "suite_names",
]

# The tetrahedron fixture lists its edges as (0,1),(0,2),(0,3),(1,2),
# (1,3),(2,3); the 6j-symbol pairs opposite edges across its columns, so
# the fixture coloring (c0,...,c5) feeds the symbol as (c0,c1,c2,c5,c4,c3).
TET_SLOTS = (0, 1, 2, 5, 4, 3)

FIXTURES: Dict[str, Callable[[], PlanarGraph]] = {
    "circle": circle,
    "theta": theta,
    "triangle": triangle,
    "tetrahedron": tetrahedron,
    "cube": cube,
    "octahedron": octahedron,
    "square-pyramid": square_pyramid,
    "pentagonal-pyramid": pentagonal_pyramid,
    "triangular-prism": triangular_prism,
}


@dataclass
class CheckResult:
    """Outcome of one named identity check."""

    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        tail = f" — {self.detail}" if self.detail else ""
        return f"{mark} [{self.suite}] {self.name}{tail}"


def _rel(want: complex, got: complex, scale: float = 0.0) -> float:
    return abs(want - got) / max(1e-300, scale, abs(want))


def _admissible_sixtuples(r: int):
    cols = range(0, r - 2, 2)
    for a, b, c in itertools.product(cols, repeat=3):
        if not is_admissible_triple(a, b, c, r):
            continue
        for d, e, f in itertools.product(cols, repeat=3):
            if (
                is_admissible_triple(a, e, f, r)
                and is_admissible_triple(b, d, f, r)
                and is_admissible_triple(c, d, e, r)
            ):
                yield (a, b, c, d, e, f)


def _tet_slot_args(col):
    return tuple(col[i] for i in TET_SLOTS)


# ---------------------------------------------------------------- suites


def suite_oracle(*, rmax: int = 13) -> List[CheckResult]:
    """Float 6j engine, and the high-precision wheel z-sums at r = 11 and
    13, against exact arithmetic in the cyclotomic field."""
    from .cyclo import sixj_exact_square

    out = []
    for r in range(5, rmax + 1, 2):
        try:
            worst = 0.0
            n = 0
            for t in _admissible_sixtuples(r):
                exact = sixj_exact_square(*t, r)
                v = sixj(*t, r).to_complex()
                worst = max(worst, _rel(exact, v * v, abs(exact)))
                n += 1
            out.append(
                CheckResult(
                    "oracle",
                    f"6j^2 vs cyclotomic field, r={r}",
                    worst <= 1e-10,
                    f"{n} sixtuples, worst rel {worst:.2e}",
                )
            )
        except BudgetExceeded as exc:
            out.append(CheckResult("oracle", f"6j^2 vs cyclotomic field, r={r}", False, str(exc)))
    for r in (11, 13):
        if r <= rmax:
            out.append(_fan_oracle_check(r))
    return out


def _fan_oracle_check(r: int) -> CheckResult:
    """The high-precision wheel z-sums (qnum.MpFan) against the exact
    field, as 6j^2 = zsum^2 / prod Theta (MpFactorials.square, as in
    qnum._sixj_mp): at the zero-angled colors, and at the pent-ideal ones,
    whose middle colors (read by wheels of six spokes or more) are not
    end colors."""
    from .cyclo import sixj_exact_square

    lv = Level.of(r)
    prec = _wheel_start_bits(r, 6)
    tab = lv.mp_factorials(prec)
    worst = 0.0
    cases = []
    for kind in ("pent-zero", "pent-ideal"):
        s, b = appendix_colors(kind, r)
        _, ends, mids = _fan_colors(r, 6, s, b)  # six spokes: ends and middles
        sixes = [(s, s, i, b, b, b) for i in ends]
        sixes += [(s, i, j, b, b, b) for i, j in _fan_links(lv, s, mids) if i <= j]
        fan = tab.fan(s, b)
        for t in sixes:
            with MP_LOCK, mp.workprec(prec):
                got = complex(mp.mpf(tab.square(t, fan.zsum(t[1], t[2]))))
            exact = sixj_exact_square(*t, r)
            worst = max(worst, _rel(exact, got, abs(exact)))
        cases.append(f"{len(sixes)} symbols at spoke {s}, rim {b}")
    return CheckResult(
        "oracle",
        f"wheel fan z-sums vs cyclotomic field, r={r}",
        worst <= 1e-10,
        f"{'; '.join(cases)}; worst rel {worst:.2e}",
    )


def suite_bigon(*, r: int = 7) -> List[CheckResult]:
    """Pin the loop, theta, and bigon-collapse normalizations."""
    out = []

    worst = 0.0
    for n in range(0, r - 2, 2):
        got = bracket(circle(), [n], r).to_complex()
        worst = max(worst, abs(got - circle_weight(n, r)))
    out.append(
        CheckResult(
            "bigon",
            f"circle colored n evaluates to its loop weight, r={r}",
            worst <= 1e-12,
            f"worst abs {worst:.2e}",
        )
    )

    worst = 0.0
    cnt = 0
    for abc in admissible_triples(r):
        got = bracket(theta(), list(abc), r).to_complex()
        worst = max(worst, abs(got - 1.0))
        cnt += 1
    out.append(
        CheckResult(
            "bigon",
            f"theta graph evaluates to 1, all {cnt} admissible triples, r={r}",
            worst <= 1e-12,
            f"worst abs {worst:.2e}",
        )
    )

    # Two bigons in a ring, joined by edges 4 and 5: each collapse is worth
    # 1/circle_weight(c4), and the circle left is worth circle_weight(c4).
    g = PlanarGraph(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)],
                    [(0, 2, 8), (1, 10, 3), (4, 6, 9), (5, 11, 7)])
    worst = 0.0
    cnt = 0
    for col in itertools.product(range(0, r - 2, 2), repeat=6):
        c4 = col[4]
        want = 0.0
        if (c4 == col[5] and is_admissible_triple(c4, col[0], col[1], r)
                and is_admissible_triple(c4, col[2], col[3], r)):
            want = 1.0 / circle_weight(c4, r)
            cnt += 1
        worst = max(worst, abs(bracket(g, col, r).to_complex() - want))
    out.append(
        CheckResult(
            "bigon",
            f"two bigons collapse to 1/circle_weight, r={r}",
            worst <= 1e-12,
            f"{cnt} nonzero colorings, worst abs {worst:.2e}",
        )
    )

    # The prism reduces by two triangle contractions; its value is the
    # squared 6j-symbol.
    worst = 0.0
    cases = 0
    for c in range(0, r - 2, 2):
        if not is_admissible_triple(c, c, c, r):
            continue
        want = sixj(c, c, c, c, c, c, r).to_complex() ** 2
        got = bracket(triangular_prism(), [c] * 9, r).to_complex()
        worst = max(worst, _rel(want, got, abs(want)))
        cases += 1
    out.append(
        CheckResult(
            "bigon",
            f"prism reduces through triangle contractions to the squared 6j, r={r}",
            worst <= 1e-10,
            f"{cases} constant colorings, worst rel {worst:.2e}",
        )
    )
    return out


def suite_axiom3(*, r: int = 7) -> List[CheckResult]:
    """Full reduction of the tetrahedron reproduces the 6j-symbol."""
    worst = 0.0
    cnt = 0
    for col in admissible_colorings(tetrahedron(), r):
        want = sixj(*_tet_slot_args(col), r).to_complex()
        got = bracket(tetrahedron(), col, r).to_complex()
        worst = max(worst, _rel(want, got, abs(want)))
        cnt += 1
    return [
        CheckResult(
            "axiom3",
            f"tetrahedron bracket equals the 6j-symbol, r={r}",
            worst <= 1e-10,
            f"{cnt} colorings via full reduction, worst rel {worst:.2e}",
        )
    ]


def suite_axiom7(*, r: int = 7) -> List[CheckResult]:
    """A zero-colored edge drops out with the (circle weights)^{-1/2} factor.

    Each square-root factor of a negative circle weight takes the -i
    branch, matching the vertex normalization.
    """
    g = tetrahedron()
    worst = 0.0
    cnt = 0
    for e0, (u, v) in enumerate(g.edges):
        # the other two edges at each endpoint, and the edge opposite e0
        iu, iv = ([d >> 1 for d in g.rot[x] if d >> 1 != e0] for x in (u, v))
        (k,) = set(range(g.ne)) - {e0, *iu, *iv}
        for a, b, c in admissible_triples(r):
            col = [0] * 6
            col[iu[0]] = col[iu[1]] = a
            col[iv[0]] = col[iv[1]] = b
            col[k] = c
            da, db = circle_weight(a, r), circle_weight(b, r)
            neg = (da < 0) + (db < 0)
            want = (-1j) ** neg / math.sqrt(abs(da) * abs(db))
            got = bracket(g, col, r).to_complex()
            worst = max(worst, _rel(want, got, abs(want)))
            cnt += 1
    return [
        CheckResult(
            "axiom7",
            f"zero-colored tetrahedron edge reduces to the theta value, r={r}",
            worst <= 1e-10,
            f"{cnt} cases over all 6 edge positions, worst rel {worst:.2e}",
        )
    ]


def suite_desing(*, r: int = 7) -> List[CheckResult]:
    """The invariant does not depend on the corner each fan starts at.

    A fan starts at the first corner of its vertex's rotation, so turning
    an anchored vertex's rotation by k corners starts its fan k corners
    on.  Each turn has a memo of its own: its values are reduced from its
    own fanned graphs, not looked up in another turn's memo.
    """
    pyramid, octa = square_pyramid(), octahedron()
    sample = list(itertools.islice(admissible_colorings(octa, r), 48))
    sample += [col for col in ((c,) * octa.ne for c in range(0, r - 2, 2)) if col not in sample]
    # (graph, colorings, vertices anchored at k = 1, 2, 3, check name)
    cases = ((pyramid, list(admissible_colorings(pyramid, r)), (0,),
              "square pyramid: all 4 apex anchors agree"),
             (octa, sample, range(octa.nv), "octahedron: rotated anchors at every vertex agree"))
    out = []
    for g, cols, anchored, name in cases:
        memo: dict = {}
        base = [yokota_ext(g, col, r, memo=memo).to_complex() for col in cols]
        scale = max(abs(v) for v in base)
        worst = 0.0
        for k in (1, 2, 3):
            turned = PlanarGraph(g.nv, g.edges, [rot[k:] + rot[:k] if v in anchored else rot
                                                 for v, rot in enumerate(g.rot)])
            memo = {}
            for col, want in zip(cols, base):
                got = yokota_ext(turned, col, r, memo=memo).to_complex()
                worst = max(worst, _rel(want, got, scale))
        out.append(CheckResult("desing", f"{name}, r={r}", worst <= 1e-9,
                               f"{len(cols)} colorings, worst scaled residual {worst:.2e}"))
    return out


def suite_doubling(*, r: int = 5) -> List[CheckResult]:
    """Doubling a graph at a vertex squares its invariant."""
    g = square_pyramid()
    cols = list(admissible_colorings(g, r))
    vals = {col: yokota_ext(g, col, r).to_complex() for col in cols}
    scale = max(abs(v) ** 2 for v in vals.values())
    worst = 0.0
    for col in cols:
        g2, col2, _, _ = double_at(g, 0, col)
        got = yokota_ext(g2, col2, r).to_complex()
        worst = max(worst, _rel(vals[col] ** 2, got, scale))
    return [
        CheckResult(
            "doubling",
            f"square pyramid doubled at its apex squares the invariant, r={r}",
            worst <= 1e-9,
            f"{len(cols)} colorings, worst scaled residual {worst:.2e}",
        )
    ]


def suite_vertexsum(*, r: int = 7) -> List[CheckResult]:
    """The invariant is multiplicative under vertex sums.

    The summands and the vertex sums have a memo each, so a vertex sum is
    reduced on its own instead of from the summands' stored values.
    """
    g1 = tetrahedron()
    g2 = tetrahedron()
    gsum, m1, m2 = vertex_sum_with_maps(g1, 0, g2, 0)
    spliced = [(e1, e2) for e1 in range(g1.ne) for e2 in range(g2.ne) if m1[e1] == m2[e2]]
    cols1 = list(admissible_colorings(g1, r))
    by_key: Dict[tuple, list] = {}
    for col2 in admissible_colorings(g2, r):
        by_key.setdefault(tuple(col2[e2] for _, e2 in spliced), []).append(col2)
    parts: dict = {}
    summed: dict = {}
    vals1 = {col: yokota_ext(g1, col, r, memo=parts).to_complex() for col in cols1}
    scale = max(abs(v) for v in vals1.values()) ** 2
    worst = 0.0
    cnt = 0
    for col1 in cols1:
        key = tuple(col1[e1] for e1, _ in spliced)
        for col2 in by_key.get(key, ()):
            colnew = [0] * gsum.ne
            for e, enew in m1.items():
                colnew[enew] = col1[e]
            for e, enew in m2.items():
                colnew[enew] = col2[e]
            want = vals1[col1] * yokota_ext(g2, col2, r, memo=parts).to_complex()
            got = yokota_ext(gsum, colnew, r, memo=summed).to_complex()
            worst = max(worst, _rel(want, got, scale))
            cnt += 1
    return [
        CheckResult(
            "vertexsum",
            f"tetrahedron + tetrahedron is the product of invariants, r={r}",
            worst <= 1e-9,
            f"{cnt} compatible coloring pairs, worst scaled residual {worst:.2e}",
        )
    ]


def suite_fusion(*, r: Optional[int] = None) -> List[CheckResult]:
    """Termwise fusion-rule expansion and reduction-order independence.

    The bracket's moves follow the labels, so three relabeled copies of
    the prism and of the cube reduce in other orders, on a seeded sample
    of admissible colorings per level.  Memo keys do not see labels, so
    each copy has a memo of its own and runs its own reductions.
    """
    out = []
    levels = (r,) if r else (5, 7, 9)
    memo: dict = {}
    rng = random.Random(0)
    # per graph: the graph and its copies, as (copy, edge ids, memo)
    graphs = [(g, [relabel(g, range(g.ne), rng) + ({},) for _ in range(3)])
              for g in (triangular_prism(), cube())]

    for lvl in levels:
        g = theta()
        face = next(f for f in g.faces() if len(f) == 2 and (f[0] >> 1) != (f[1] >> 1))
        p, q = face
        worst = 0.0
        cnt = 0
        for abc in admissible_triples(lvl):
            col = list(abc)
            total = 0j
            for i in fusion_colors(col[p >> 1], col[q >> 1], lvl):
                tg, tc = fusion_at(g, col, p, q, i)
                val = bracket(tg, tc, lvl, memo=memo)
                total += circle_weight(i, lvl) * val.to_complex()
            worst = max(worst, abs(total - 1.0))
            cnt += 1
        out.append(
            CheckResult(
                "fusion",
                f"fusion across a theta face resums to 1, r={lvl}",
                worst <= 1e-9,
                f"{cnt} triples, worst abs {worst:.2e}",
            )
        )

    for lvl in levels:
        worst = 0.0
        cnt = 0
        for g, copies in graphs:
            cols = list(admissible_colorings(g, lvl))
            for col in random.Random(lvl).sample(cols, min(24, len(cols))):
                want = bracket(g, col, lvl, memo=memo).to_complex()
                for h, eids, hmemo in copies:
                    got = bracket(h, [col[e] for e in eids], lvl, memo=hmemo).to_complex()
                    worst = max(worst, _rel(want, got, abs(want)))
                    cnt += 1
        out.append(
            CheckResult(
                "fusion",
                f"relabeled copies reduce to the same values, r={lvl}",
                worst <= 1e-9,
                f"prism and cube, {cnt} comparisons, worst rel {worst:.2e}",
            )
        )
    return out


def suite_kirby(*, r: Optional[int] = None, graph: Optional[str] = None) -> List[CheckResult]:
    """The Kirby-colored invariant equals N^betti."""
    if graph:
        cases = [(graph, r or 5)]
    else:
        cases = [
            (name, lvl)
            for name in ("theta", "tetrahedron", "triangular-prism")
            for lvl in ((r,) if r else (5, 7))
        ]
    out = []
    for name, lvl in cases:
        g = FIXTURES[name]()
        want = kirby_norm(lvl) ** betti(g)
        got = yokota_kirby(g, lvl).to_complex()
        rel = _rel(want, got, abs(want))
        out.append(
            CheckResult(
                "kirby",
                f"{name} at r={lvl}: Kirby-colored invariant vs N^{betti(g)}",
                rel <= 1e-9,
                f"rel {rel:.2e}",
            )
        )
    return out


def suite_nidentity(*, rmax: int = 2001) -> List[CheckResult]:
    """Sum of squared circle weights against the closed form."""
    worst = 0.0
    worst_r = 0
    for r in range(5, rmax + 1, 2):
        x = 2.0 * math.pi / r
        s = math.sin(x)
        total = math.fsum((math.sin((i + 1) * x) / s) ** 2 for i in range(0, r - 2, 2))
        want = r / (4.0 * s * s)
        rel = abs(total - want) / want
        if rel > worst:
            worst, worst_r = rel, r
    return [
        CheckResult(
            "nidentity",
            f"sum of squared circle weights equals r/(4 sin^2(2pi/r)), odd r <= {rmax}",
            worst <= 1e-12,
            f"worst rel {worst:.2e} at r={worst_r}",
        )
    ]


def suite_fourier(*, r: Optional[int] = None, graph: Optional[str] = None) -> List[CheckResult]:
    """Both sides of the dual-graph Fourier identity, exhaustively."""
    if graph:
        cases = [(graph, r or 7)]
    else:
        # at r = 9, H(2, 2) = [9] = 0: the tetrahedron there runs the
        # skip of a vanishing Hopf entry
        cases = [("theta", 7), ("tetrahedron", 5), ("tetrahedron", 7), ("tetrahedron", 9),
                 ("cube", 5)]
    out = []
    for name, lvl in cases:
        g = FIXTURES[name]()
        d = dual(g)
        tab = yokota_table(g, lvl)
        dtab = yokota_table(d, lvl)
        scale = max(abs(v.to_complex()) for v in dtab.values())
        worst = 0.0
        for dcol in sorted(dtab):
            want = dtab[dcol].to_complex()
            got = fourier_dual(g, lvl, dcol, table=tab).to_complex()
            worst = max(worst, _rel(want, got, scale))
        out.append(
            CheckResult(
                "fourier",
                f"{name} vs its dual at r={lvl}",
                worst <= 1e-8,
                f"{len(dtab)} dual colorings, worst scaled residual {worst:.2e}",
            )
        )
    return out


def suite_sixj_symmetry(*, r: int = 9) -> List[CheckResult]:
    """All 24 tetrahedral relabelings leave the 6j-symbol unchanged, and
    the vectorized enumeration lists brute-force tuples, each once,
    meeting every tetrahedral class."""
    import numpy as np

    from .scans import batch_sixj, sixtuple_chunks

    tuples = list(_admissible_sixtuples(r))
    arr = np.array(tuples, dtype=np.int64)
    ref = np.array([sixj(*t, r).to_complex() for t in tuples])
    lv = Level.of(r)
    worst = 0.0
    for src in SIXJ_SYMMETRIES:
        res = batch_sixj(lv, *(arr[:, k] for k in src))
        vals = res["sign"] * np.exp(res["log"]) * (-1j) ** res["quad"]
        worst = max(worst, float(np.max(np.abs(vals - ref) / np.abs(ref))))
    out = [
        CheckResult(
            "sixj-symmetry",
            f"24 relabelings agree on all {len(tuples)} admissible sixtuples, r={r}",
            worst <= 1e-10,
            f"worst rel {worst:.2e}",
        )
    ]

    cover = []
    for tup in sixtuple_chunks(lv):
        cover.extend(zip(*(x.tolist() for x in tup)))
    out.append(
        CheckResult(
            "sixj-symmetry",
            f"sixtuple_chunks lists admissible sixtuples, each once, r={r}",
            len(cover) == len(set(cover)) and set(cover) <= set(tuples),
            f"{len(cover)} listed, {len(set(cover))} distinct, {len(tuples)} brute force",
        )
    )

    classes = {_canonical_sixtuple(t) for t in tuples}
    met = {_canonical_sixtuple(t) for t in cover}
    out.append(
        CheckResult(
            "sixj-symmetry",
            f"the restricted cover meets every tetrahedral class, r={r}",
            met == classes,
            f"{len(met & classes)} of {len(classes)} classes",
        )
    )
    return out


def suite_hopf(*, r: int = 31) -> List[CheckResult]:
    """Hopf pairing: closed forms, symmetry, and the constant-sign row."""
    out = []
    cols = list(range(0, r - 2, 2))
    s = math.sin(2.0 * math.pi / r)
    worst_f = 0.0
    worst_s = 0.0
    for i in cols:
        for j in cols:
            h = hopf_pairing(i, j, r)
            direct = (-1.0) ** (i + j) * math.sin(2.0 * math.pi * (i + 1) * (j + 1) / r) / s
            worst_f = max(worst_f, abs(h - direct))
            worst_s = max(worst_s, abs(h - hopf_pairing(j, i, r)))
    out.append(
        CheckResult(
            "hopf",
            f"pairing matches the signed sine form, all pairs at r={r}",
            worst_f <= 1e-12 and abs(hopf_pairing(0, 0, r) - 1.0) <= 1e-15,
            f"worst abs {worst_f:.2e}",
        )
    )
    out.append(
        CheckResult(
            "hopf",
            f"pairing is symmetric, all pairs at r={r}",
            worst_s == 0.0,
            f"worst abs {worst_s:.2e}",
        )
    )

    for lvl in (7, 11):
        c = maximizing_color(lvl)
        sl = math.sin(2.0 * math.pi / lvl)
        vals = [hopf_pairing(c, j, lvl) for j in range(0, lvl - 2, 2)]
        signs = {v > 0 for v in vals}
        worst = max(
            abs(abs(v) - math.sin(math.pi * (j + 1) / lvl) / sl)
            for v, j in zip(vals, range(0, lvl - 2, 2))
        )
        out.append(
            CheckResult(
                "hopf",
                f"maximizing row has one sign and sine-ratio magnitude, r={lvl}",
                len(signs) == 1 and worst <= 1e-12,
                f"color {c}, sign {'+' if vals[0] > 0 else '-'}, worst abs {worst:.2e}",
            )
        )
    return out


def suite_volumes() -> List[CheckResult]:
    """Volume constants and the Lobachevsky function against an oracle."""
    out = []
    pins = {
        "ideal-octahedron": 3.663862,
        "ideal-square-pyramid": 1.831931,
        "square-antiprism": 6.023046,
        "ideal-pentagonal-pyramid": 2.493387,
        "pentagonal-antiprism": 8.137885,
    }
    vols = named_volumes()
    worst = max(abs(vols[k] - v) / v for k, v in pins.items())
    out.append(
        CheckResult(
            "volumes",
            "five named volumes match their constants to 5 significant digits",
            worst <= 1e-6,
            f"worst rel {worst:.2e}",
        )
    )

    with MP_LOCK, mp.workprec(80):
        worst = 0.0
        for k in range(-40, 41):
            t = k * math.pi / 37.0
            want = float(mp.clsin(2, 2.0 * t)) / 2.0
            worst = max(worst, abs(lobachevsky(t) - want))
    odd = max(abs(lobachevsky(t) + lobachevsky(-t)) for t in (0.3, 1.1, 2.7))
    per = max(abs(lobachevsky(t + math.pi) - lobachevsky(t)) for t in (0.3, 1.1, 2.7))
    out.append(
        CheckResult(
            "volumes",
            "Lobachevsky function matches the Clausen-series oracle",
            worst <= 1e-13 and odd <= 1e-15 and per <= 1e-14,
            f"worst abs {worst:.2e}; odd {odd:.1e}; periodic {per:.1e}",
        )
    )

    peak = lobachevsky(math.pi / 6.0)
    ok = abs(peak - 0.5074708) <= 1e-6 and abs(antiprism_volume(3) - V8) <= 1e-12
    out.append(
        CheckResult(
            "volumes",
            "maximum value at pi/6 and the octahedron as a 3-antiprism",
            ok,
            f"peak {peak:.7f}; antiprism(3)-V8 {abs(antiprism_volume(3) - V8):.1e}",
        )
    )
    return out


SUITES: Dict[str, Callable[..., List[CheckResult]]] = {
    "oracle": suite_oracle,
    "bigon": suite_bigon,
    "axiom3": suite_axiom3,
    "axiom7": suite_axiom7,
    "desing": suite_desing,
    "doubling": suite_doubling,
    "vertexsum": suite_vertexsum,
    "fusion": suite_fusion,
    "kirby": suite_kirby,
    "nidentity": suite_nidentity,
    "fourier": suite_fourier,
    "sixj-symmetry": suite_sixj_symmetry,
    "hopf": suite_hopf,
    "volumes": suite_volumes,
}


def suite_names() -> List[str]:
    return list(SUITES)


def run_suite(
    name: str,
    *,
    r: Optional[int] = None,
    rmax: Optional[int] = None,
    graph: Optional[str] = None,
) -> List[CheckResult]:
    """Run one named suite (or ``all``) and return its check results.

    ``all`` passes each suite only the options it takes.  A named suite
    given an option it does not take raises KeyError, as an unknown
    suite does, before anything runs.
    """
    options = {k: v for k, v in (("r", r), ("rmax", rmax), ("graph", graph)) if v is not None}
    if name == "all":
        out: List[CheckResult] = []
        for fn in SUITES.values():
            taken = inspect.signature(fn).parameters
            out.extend(fn(**{k: v for k, v in options.items() if k in taken}))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    taken = inspect.signature(SUITES[name]).parameters
    extra = [k for k in options if k not in taken]
    if extra:
        raise KeyError(f"suite {name!r} does not take {', '.join('--' + k for k in extra)}; "
                       f"its options: {', '.join('--' + k for k in taken) or 'none'}")
    return SUITES[name](**options)
