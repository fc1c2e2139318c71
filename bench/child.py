"""One benchmark round in a fresh interpreter.

Usage: python3 bench/child.py ROOT SPEC_JSON

SPEC_JSON holds {"ops": [...], "trace": bool, "spans": path or null}.
skeinvol is imported from ROOT/src first thing, so the time from launch
to the end of that import is what a CLI call pays, and Level._instances,
the per-level 6j caches and the bracket memo start cold.  The last line
of stdout is a JSON object with the per-op results, the round's wall
time, its slowest op, the peak resident set, the versions in use and,
for a traced round, the per-span summary.
"""

# only modules that skeinvol imports anyway come before it
import math
import os
import random
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))


def relabel(graph, seed: int):
    """The same embedded graph under seeded vertex and edge ids and edge
    orientations.  Each rotation keeps its starting corner."""
    from skeinvol.planar import PlanarGraph

    rng = random.Random(seed)
    vperm = list(range(graph.nv))
    rng.shuffle(vperm)
    eperm = list(range(graph.ne))
    rng.shuffle(eperm)
    flip = [rng.randrange(2) for _ in range(graph.ne)]
    edges = [None] * graph.ne
    for e, (u, v) in enumerate(graph.edges):
        u, v = vperm[u], vperm[v]
        edges[eperm[e]] = (v, u) if flip[e] else (u, v)
    rot = [None] * graph.nv
    for v, darts in enumerate(graph.rot):
        rot[vperm[v]] = [2 * eperm[d >> 1] + ((d & 1) ^ flip[d >> 1]) for d in darts]
    return PlanarGraph(graph.nv, edges, rot)


GAUGE_EVERY_S = 1.5


def gauge() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed.
    It allocates nothing the garbage collector tracks and calls nothing
    in skeinvol, so only the host can change it."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(600_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - t0


def _record(rec) -> dict:
    return {k: getattr(rec, k) for k in ("log_value", "slope", "target", "rel_gap")}


def run_op(op: dict) -> dict:
    """Evaluate one op through the public function the CLI calls.
    Functions are looked up on their module at call time, so a traced
    round reaches the wrappers."""
    scans = sys.modules["skeinvol.scans"]
    yokota = sys.modules["skeinvol.yokota"]
    planar = sys.modules["skeinvol.planar"]
    fn, r = op["fn"], op["r"]
    out: dict = {}
    if fn == "appendix_record":
        out["record"] = _record(scans.appendix_record(op["kind"], r))
    elif fn == "bound_record":
        rec, diag = scans.bound_record(r)
        out["record"] = _record(rec)
        out["diag"] = {k: diag[k] for k in ("tuples", "rechecked", "bound_ok")}
    elif fn == "tv_tet_record":
        out["record"] = _record(scans.tv_tet_record(r))
    else:
        graph = getattr(planar, op["graph"])()
        if op.get("relabel"):
            graph = relabel(graph, op["relabel"])
        memo: dict = {}
        if fn == "yokota_ext":
            val = yokota.yokota_ext(graph, (op["color"],) * graph.ne, r, memo=memo)
        else:
            val = yokota.tv_graph(graph, r, memo=memo)
        lg = val.log_abs()
        out["record"] = {"log_value": lg, "slope": math.pi / r * lg,
                         "target": None, "rel_gap": None}
        out["memo_added"] = len(memo)
    return out


def main(argv) -> int:
    sys.path.insert(0, os.path.join(argv[1], "src"))
    import skeinvol
    import skeinvol.cli  # noqa: F401  (every CLI call pays for it)

    imported_at = time.monotonic()

    import json
    import resource

    import mpmath
    import numpy

    sys.path.insert(0, BENCH)
    from tracing import Tracer

    spec = json.loads(argv[2])
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    results = []
    gauges = [gauge()]
    gauged = time.perf_counter()
    for op in spec["ops"]:
        if time.perf_counter() - gauged > GAUGE_EVERY_S:
            gauges.append(gauge())
            gauged = time.perf_counter()
        res = dict(op)
        t0 = time.perf_counter()
        try:
            if tracer:
                tracer.op = op["id"]
                res.update(tracer.span("op", run_op, op))
            else:
                res.update(run_op(op))
        except Exception as err:  # one failing op must not hide the others
            res["error"] = f"{type(err).__name__}: {err}"
        res["t_s"] = time.perf_counter() - t0
        results.append(res)
    gauges.append(gauge())

    out = {
        "results": results,
        "wall_s": sum(r["t_s"] for r in results),
        "gauge_s": sum(gauges) / len(gauges),
        "top_op_s": max(r["t_s"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "imported_at": imported_at,
        "skeinvol_file": skeinvol.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
        },
    }
    if tracer:
        out["layers"] = tracer.summary()
        if spec.get("spans"):
            with open(spec["spans"], "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op", "extra"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
