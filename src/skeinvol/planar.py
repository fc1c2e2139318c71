"""Planar trivalent graphs as rotation systems.

A graph with E edges has 2E darts: edge e owns darts 2e and 2e+1, where
dart 2e sits at endpoints[e][0] and dart 2e+1 at endpoints[e][1].  The
embedding is the rotation system: each vertex lists its incident darts in
counterclockwise order.  Faces are the orbits of the permutation
``d -> sigma(alpha(d))`` with alpha(d) = d XOR 1 (jump to the other end
of the edge) and sigma the rotation.  Everything downstream — duality,
the local moves, the skein evaluation — is phrased in these terms.

The dual graph reuses the very same darts with rotation sigma* = sigma o
alpha, which makes the double dual literally the identity and gives the
edge correspondence e <-> e* for free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotPlanar, NotTriangle, NotTrivalent


class PlanarGraph:
    """An embedded multigraph (rotation system).

    Construct with the vertex count, the edge endpoint list, and per-vertex
    dart rotations.  Self-loops and parallel edges are allowed; a loop at v
    contributes both of its darts to the rotation of v.
    """

    __slots__ = ("nv", "edges", "rot", "_vertex_of", "_sigma", "_faces", "_face_of")

    def __init__(self, nv, edges, rot):
        self.nv = nv
        self.edges = tuple((int(u), int(v)) for u, v in edges)
        self.rot = tuple(tuple(r) for r in rot)
        ne = len(self.edges)
        if len(self.rot) != nv:
            raise ValueError(f"{nv} vertices but {len(self.rot)} rotations")
        vertex_of = [-1] * (2 * ne)
        sigma = [-1] * (2 * ne)
        seen = 0
        for v, r in enumerate(self.rot):
            k = len(r)
            for i, d in enumerate(r):
                if not 0 <= d < 2 * ne or vertex_of[d] != -1:
                    raise ValueError(f"dart {d} repeated or out of range")
                vertex_of[d] = v
                sigma[d] = r[(i + 1) % k]
                seen += 1
        if seen != 2 * ne:
            raise ValueError("rotations do not cover every dart")
        for e, (u, v) in enumerate(self.edges):
            if vertex_of[2 * e] != u or vertex_of[2 * e + 1] != v:
                raise ValueError(f"edge {e}=({u},{v}) disagrees with rotations")
        self._vertex_of = vertex_of
        self._sigma = sigma
        self._faces = None
        self._face_of = None

    # ---- basic accessors ------------------------------------------------

    @property
    def ne(self):
        return len(self.edges)

    def alpha(self, d):
        return d ^ 1

    def sigma(self, d):
        return self._sigma[d]

    def vertex_of(self, d):
        return self._vertex_of[d]

    def degree(self, v):
        return len(self.rot[v])

    def edge_of(self, d):
        return d >> 1

    def faces(self):
        """Faces as dart tuples (orbits of sigma o alpha), sorted by min dart."""
        if self._faces is None:
            nmax = 2 * self.ne
            seen = [False] * nmax
            out = []
            for d0 in range(nmax):
                if seen[d0]:
                    continue
                cyc = []
                d = d0
                while not seen[d]:
                    seen[d] = True
                    cyc.append(d)
                    d = self._sigma[d ^ 1]
                out.append(tuple(cyc))
            self._faces = tuple(out)
            face_of = [-1] * nmax
            for i, f in enumerate(self._faces):
                for d in f:
                    face_of[d] = i
            self._face_of = face_of
        return self._faces

    def face_of(self, d):
        self.faces()
        return self._face_of[d]

    def __eq__(self, other):
        if not isinstance(other, PlanarGraph):
            return NotImplemented
        return self.nv == other.nv and self.edges == other.edges and self.rot == other.rot

    def __hash__(self):
        return hash((self.nv, self.edges, self.rot))

    def __repr__(self):
        return f"PlanarGraph(nv={self.nv}, ne={self.ne})"


# ---------------------------------------------------------------------------
# global invariants


def _vertex_components(g: PlanarGraph):
    """Connected components as sorted vertex lists (isolated vertices included)."""
    adj = [[] for _ in range(g.nv)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.nv
    comps = []
    for s in range(g.nv):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: PlanarGraph) -> bool:
    return len(_vertex_components(g)) <= 1


def betti(g: PlanarGraph) -> int:
    """First Betti number E - V + (number of components)."""
    return g.ne - g.nv + len(_vertex_components(g))


def genus(g: PlanarGraph) -> int:
    """Genus of the embedding surface (per component, summed)."""
    comps = len(_vertex_components(g))
    chi = g.nv - g.ne + len(g.faces())
    # each sphere component contributes 2 to chi
    return (2 * comps - chi) // 2


@dataclass
class ValidationReport:
    nv: int
    ne: int
    nfaces: int
    connected: bool
    euler_ok: bool
    genus: int
    simple: bool
    trivalent: bool
    three_connected: bool | None  # None when not meaningful (multigraph or tiny)


def validate(g: PlanarGraph) -> ValidationReport:
    """Structural report: connectivity, planarity of the embedding, and shape."""
    conn = is_connected(g)
    gen = genus(g)
    euler_ok = gen == 0
    simple = True
    seen_pairs = set()
    for u, v in g.edges:
        if u == v:
            simple = False
            break
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            simple = False
            break
        seen_pairs.add(key)
    trivalent = all(len(r) == 3 for r in g.rot)
    three_conn = None
    if simple and conn and g.nv >= 4:
        three_conn = _is_three_connected(g)
    return ValidationReport(
        nv=g.nv,
        ne=g.ne,
        nfaces=len(g.faces()),
        connected=conn,
        euler_ok=euler_ok,
        genus=gen,
        simple=simple,
        trivalent=trivalent,
        three_connected=three_conn,
    )


def _is_three_connected(g: PlanarGraph) -> bool:
    adj = [set() for _ in range(g.nv)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)

    def connected_without(cut):
        start = next(v for v in range(g.nv) if v not in cut)
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in cut and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == g.nv - len(cut)

    for a in range(g.nv):
        for b in range(a + 1, g.nv):
            if not connected_without({a, b}):
                return False
    return True


# ---------------------------------------------------------------------------
# duality


def dual(g: PlanarGraph) -> PlanarGraph:
    """The dual embedded graph on the same dart set.

    Dual vertices are the faces of g (ordered by smallest dart), the
    rotation of a dual vertex is the face traversal itself, and edge e of
    the dual joins the two faces containing darts 2e and 2e+1.  Because
    the dual rotation is sigma o alpha, taking the dual twice gives back
    the same embedding with the same dart and edge labels (vertices may
    be renumbered; see same_embedding).
    """
    faces = g.faces()
    face_of = [g.face_of(d) for d in range(2 * g.ne)]
    edges = [(face_of[2 * e], face_of[2 * e + 1]) for e in range(g.ne)]
    return PlanarGraph(len(faces), edges, faces)


def same_embedding(g1: PlanarGraph, g2: PlanarGraph) -> bool:
    """Equality of rotation systems on the shared dart labels.

    True when both graphs have the same edge count and the same sigma
    permutation; vertex numbering and the starting points of the rotation
    tuples are presentation choices that this comparison ignores.
    """
    return g1.ne == g2.ne and g1._sigma == g2._sigma and g1.nv == g2.nv


# ---------------------------------------------------------------------------
# local moves


def blow_up(g: PlanarGraph, v: int) -> PlanarGraph:
    """Replace the trivalent vertex v by a small triangle (truncation).

    The three external edges keep their ids; the triangle edges are
    appended at the end (ids ne, ne+1, ne+2).  Vertex v is reused for the
    corner on its first rotation dart, and two vertices are appended.
    """
    if g.degree(v) != 3:
        raise NotTrivalent(f"vertex {v} has degree {g.degree(v)}")
    d1, d2, d3 = g.rot[v]
    ne = g.ne
    w = (v, g.nv, g.nv + 1)
    new_edges = [list(e) for e in g.edges]
    # the second and third external darts migrate to the new corners
    new_edges[d2 >> 1][d2 & 1] = w[1]
    new_edges[d3 >> 1][d3 & 1] = w[2]
    # triangle edges w0-w1, w1-w2, w2-w0
    new_edges += [[w[0], w[1]], [w[1], w[2]], [w[2], w[0]]]
    t01, t12, t20 = 2 * ne, 2 * (ne + 1), 2 * (ne + 2)
    rot = [list(r) for r in g.rot]
    # at each corner, counterclockwise: external dart, edge to the next
    # corner, edge to the previous corner
    rot[v] = [d1, t01, t20 + 1]
    rot.append([d2, t12, t01 + 1])
    rot.append([d3, t20, t12 + 1])
    return PlanarGraph(g.nv + 2, new_edges, rot)


def triangulate(g: PlanarGraph, face_index: int) -> PlanarGraph:
    """Cone a triangular face from a new central vertex.

    The face splits into three; the spokes are appended as edges
    ne, ne+1, ne+2 joining the face's corners (in traversal order) to the
    new vertex.  This is the move dual to blow_up.
    """
    face = g.faces()[face_index]
    if len(face) != 3:
        raise NotTriangle(f"face {face_index} has degree {len(face)}")
    g1, g2, g3 = face
    ne = g.ne
    c = g.nv
    corners = [g.vertex_of(d) for d in (g1, g2, g3)]
    new_edges = list(g.edges) + [(corners[0], c), (corners[1], c), (corners[2], c)]
    spoke = [2 * ne, 2 * (ne + 1), 2 * (ne + 2)]
    rot = [list(r) for r in g.rot]
    # corner i sits between alpha(previous face dart) and face dart i;
    # the spoke goes into that gap, i.e. immediately before the face dart
    for i, d in enumerate((g1, g2, g3)):
        rv = rot[corners[i]]
        rv.insert(rv.index(d), spoke[i])
    # the center sees the spokes in reverse traversal order (the face is
    # traversed with the interior on the clockwise side)
    rot.append([spoke[2] + 1, spoke[1] + 1, spoke[0] + 1])
    return PlanarGraph(g.nv + 1, new_edges, rot)


def vertex_sum_with_maps(g1: PlanarGraph, v1: int, g2: PlanarGraph, v2: int, offset: int = 0):
    """Glue g1 and g2 by removing v1 and v2 and splicing their edge ends.

    The vertices must have equal degree k and no incident loops.  Dart i
    of rot(v1) is spliced to dart (offset - i) mod k of rot(v2): the
    second graph is glued mirror-wise, which is what keeps the result
    planar.  Returns (graph, emap1, emap2) where emap1[e] is the new id of
    edge e of g1 (likewise emap2); a spliced pair of edges becomes the
    single new edge emap1[e1] == emap2[e2].

    New numbering: vertices of g1 except v1 (order kept), then vertices of
    g2 except v2.  Edges: unspliced g1 edges, unspliced g2 edges, then the
    k spliced edges in rot(v1) order.
    """
    k = g1.degree(v1)
    if g2.degree(v2) != k:
        raise ValueError(f"degree mismatch {k} vs {g2.degree(v2)}")
    a = g1.rot[v1]
    b = g2.rot[v2]
    for d in a:
        if g1.vertex_of(d ^ 1) == v1:
            raise ValueError("loop at the glued vertex of the first graph")
    for d in b:
        if g2.vertex_of(d ^ 1) == v2:
            raise ValueError("loop at the glued vertex of the second graph")

    vmap1 = {}
    for v in range(g1.nv):
        if v != v1:
            vmap1[v] = len(vmap1)
    vmap2 = {}
    for v in range(g2.nv):
        if v != v2:
            vmap2[v] = len(vmap1) + len(vmap2)

    glued1 = {g1.edge_of(d) for d in a}
    glued2 = {g2.edge_of(d) for d in b}
    emap1 = {}
    for e in range(g1.ne):
        if e not in glued1:
            emap1[e] = len(emap1)
    base2 = len(emap1)
    emap2 = {}
    for e in range(g2.ne):
        if e not in glued2:
            emap2[e] = base2 + len(emap2)
    base3 = base2 + len(emap2)

    new_edges = []
    for e in range(g1.ne):
        if e in emap1:
            u, v = g1.edges[e]
            new_edges.append((vmap1[u], vmap1[v]))
    for e in range(g2.ne):
        if e in emap2:
            u, v = g2.edges[e]
            new_edges.append((vmap2[u], vmap2[v]))

    # spliced edges: pair dart a[i] with dart b[(offset - i) mod k].  The
    # new edge runs from the far end of the a-edge to the far end of the
    # b-edge; its even dart replaces alpha(a[i]), its odd dart alpha(b[j]).
    dart_map1 = {}
    dart_map2 = {}
    for e in range(g1.ne):
        if e in emap1:
            dart_map1[2 * e] = 2 * emap1[e]
            dart_map1[2 * e + 1] = 2 * emap1[e] + 1
    for e in range(g2.ne):
        if e in emap2:
            dart_map2[2 * e] = 2 * emap2[e]
            dart_map2[2 * e + 1] = 2 * emap2[e] + 1
    for i in range(k):
        da = a[i]
        db = b[(offset - i) % k]
        eid = base3 + i
        emap1[g1.edge_of(da)] = eid
        emap2[g2.edge_of(db)] = eid
        fa = da ^ 1  # surviving end in g1
        fb = db ^ 1  # surviving end in g2
        new_edges.append((vmap1[g1.vertex_of(fa)], vmap2[g2.vertex_of(fb)]))
        dart_map1[fa] = 2 * eid
        dart_map2[fb] = 2 * eid + 1

    rot = []
    for v in range(g1.nv):
        if v != v1:
            rot.append([dart_map1[d] for d in g1.rot[v]])
    for v in range(g2.nv):
        if v != v2:
            rot.append([dart_map2[d] for d in g2.rot[v]])
    return PlanarGraph(len(vmap1) + len(vmap2), new_edges, rot), emap1, emap2


def vertex_sum(g1: PlanarGraph, v1: int, g2: PlanarGraph, v2: int, offset: int = 0) -> PlanarGraph:
    """The glued graph alone; see vertex_sum_with_maps."""
    return vertex_sum_with_maps(g1, v1, g2, v2, offset)[0]


def mirror(g: PlanarGraph) -> PlanarGraph:
    """The reflected embedding: every rotation reversed."""
    return PlanarGraph(g.nv, g.edges, [tuple(reversed(r)) for r in g.rot])


def double_at(g: PlanarGraph, v: int, coloring=None):
    """Vertex sum of g with its own mirror image at vertex v.

    Dart i of rot(v) is spliced to the same dart of the reflected copy.
    When a coloring (tuple indexed by edge id) is given, the returned
    coloring assigns each copied edge the color of its original; spliced
    pairs agree by construction.  Returns (graph, coloring_or_None,
    emap1, emap2) with the edge maps as in vertex_sum_with_maps.
    """
    gm = mirror(g)
    k = g.degree(v)
    # rot(v) in gm is the reverse of rot(v) in g: gm.rot[v][j] = a[k-1-j].
    # Splicing a[i] with the identical dart a[i] means pairing index i of
    # g with index k-1-i of gm, i.e. offset = k-1 in mirror pairing
    # j = (offset - i) mod k.
    g2, emap1, emap2 = vertex_sum_with_maps(g, v, gm, v, offset=k - 1)
    col2 = None
    if coloring is not None:
        col2 = [None] * g2.ne
        for e_old, e_new in emap1.items():
            col2[e_new] = coloring[e_old]
        for e_old, e_new in emap2.items():
            if col2[e_new] is not None and col2[e_new] != coloring[e_old]:
                raise ValueError("inconsistent colors across the doubling splice")
            col2[e_new] = coloring[e_old]
        col2 = tuple(col2)
    return g2, col2, emap1, emap2


# ---------------------------------------------------------------------------
# canonical form


def _component_darts(g: PlanarGraph):
    """Darts grouped by connected component (components with edges only)."""
    nmax = 2 * g.ne
    seen = [False] * nmax
    comps = []
    for d0 in range(nmax):
        if seen[d0]:
            continue
        comp = []
        stack = [d0]
        seen[d0] = True
        while stack:
            d = stack.pop()
            comp.append(d)
            for nd in (d ^ 1, g._sigma[d]):
                if not seen[nd]:
                    seen[nd] = True
                    stack.append(nd)
        comps.append(comp)
    return comps


def _first_row(g: PlanarGraph, sig, d0: int):
    """The first BFS row from d0: the labels met going round its vertex."""
    vof = g._vertex_of
    vlab = {vof[d0]: 0}
    elab = {}
    row = []
    d = d0
    while True:
        e = d >> 1
        if e not in elab:
            elab[e] = len(elab)
        w = vof[d ^ 1]
        if w not in vlab:
            vlab[w] = len(vlab)
        row.append(elab[e])
        row.append(vlab[w])
        d = sig[d]
        if d == d0:
            return tuple(row)


def _bfs_labeling(g: PlanarGraph, sig, start: int, bound):
    """Deterministic BFS relabeling of one component, starting at a dart.

    Each dequeued dart gives one row: going round its vertex with sig,
    the (edge label, vertex label) of every dart, labels being handed
    out in order of first sight.  bound is the smallest signature found
    so far (or None): the search gives up, returning None, as soon as a
    row exceeds bound's row at the same index.  Otherwise it returns
    (rows, edge order, tied) where edge order lists the edge ids by
    label and tied says whether rows equals bound.
    """
    vof = g._vertex_of
    vlab = [-1] * g.nv
    vlab[vof[start]] = 0
    nlab = 1
    elab = [-1] * g.ne
    order = []
    rows = []
    queue = [start]
    tied = bound is not None
    for d0 in queue:
        row = []
        d = d0
        while True:
            e = d >> 1
            le = elab[e]
            if le < 0:
                le = elab[e] = len(order)
                order.append(e)
            w = vof[d ^ 1]
            lw = vlab[w]
            if lw < 0:
                lw = vlab[w] = nlab
                nlab += 1
                queue.append(d ^ 1)
            row.append(le)
            row.append(lw)
            d = sig[d]
            if d == d0:
                break
        row = tuple(row)
        if tied:
            ref = bound[len(rows)]
            if row > ref:
                return None
            if row < ref:
                tied = False
        rows.append(row)
    return tuple(rows), tuple(order), tied


@lru_cache(maxsize=1024)
def canonical_labelings(g: PlanarGraph):
    """The uncolored half of the canonical form, cached per embedded shape.

    Returns (isolated vertex count, components).  Each component is
    (signature, edge orders): the minimum BFS signature over every
    starting dart and both orientations, and the edge order (edge ids
    by BFS label) of every start that attains it.  Those starts are the
    component's automorphisms, reflections included.  Only starts whose
    first row is minimal are searched, and a search stops at its first
    row above the best so far.  canonical_labelings.cache_info() reports
    how often the shape was already known.
    """
    sigma = g._sigma
    inv = [0] * len(sigma)
    for d, s in enumerate(sigma):
        inv[s] = d
    vof = g._vertex_of
    comps = _component_darts(g)
    out = []
    for comp in comps:
        low = None
        starts = []
        for sig in (sigma, inv):
            for d0 in comp:
                row = _first_row(g, sig, d0)
                if low is None or row < low:
                    low = row
                    starts = [(sig, d0)]
                elif row == low:
                    starts.append((sig, d0))
        best = None
        orders = []
        for sig, d0 in starts:
            found = _bfs_labeling(g, sig, d0, best)
            if found is None:
                continue
            rows, order, tied = found
            if tied:
                orders.append(order)
            else:
                best = rows
                orders = [order]
        out.append((best, tuple(orders)))
    isolated = g.nv - len({vof[d] for comp in comps for d in comp})
    return isolated, tuple(out)


def canonical_signature(g: PlanarGraph, coloring=None):
    """A hashable form invariant under relabeling and reflection.

    Per connected component the uncolored part is the minimum BFS
    signature over all starting darts and both orientations.  It comes
    from canonical_labelings, which works it out once per embedded
    shape.  Every start attaining the minimum relabels the component
    the same way, so two such starts differ by an automorphism
    (reflections included).  Each start fixes an edge order.  With a
    coloring, a component becomes (signature, the smallest of its color
    vectors read in those orders).  Components are sorted, and isolated
    vertices contribute a count.

    Two graphs (with colorings) get the same signature exactly when some
    isomorphism of embedded colored graphs, possibly orientation-
    reversing, relates them.  The colors used to be folded into the BFS
    rows, at the price of one full search per coloring.  The colored
    value now has another form, but it tells apart exactly the same
    graphs.  The uncolored value is unchanged.
    """
    isolated, comps = canonical_labelings(g)
    if coloring is None:
        sigs = sorted(sig for sig, _ in comps)
    else:
        sigs = sorted(
            (sig, min(tuple(coloring[e] for e in order) for order in orders))
            for sig, orders in comps
        )
    return (isolated, tuple(sigs))


# ---------------------------------------------------------------------------
# component split (for multiplicative evaluation)


def split_components(g: PlanarGraph):
    """Split into connected components.

    Returns (graphs_with_maps, isolated_count) where each item is
    (component_graph, edge_ids): edge_ids[new_e] = old edge id.  Isolated
    vertices are not returned as graphs, only counted.
    """
    comps = _vertex_components(g)
    out = []
    isolated = 0
    for comp in comps:
        vset = set(comp)
        edge_ids = [e for e, (u, _) in enumerate(g.edges) if u in vset]
        if not edge_ids:
            isolated += 1
            continue
        vmap = {v: i for i, v in enumerate(comp)}
        emap = {e: i for i, e in enumerate(edge_ids)}
        edges = [(vmap[g.edges[e][0]], vmap[g.edges[e][1]]) for e in edge_ids]
        dart = lambda d: 2 * emap[d >> 1] + (d & 1)
        rot = [[dart(d) for d in g.rot[v]] for v in comp]
        out.append((PlanarGraph(len(comp), edges, rot), edge_ids))
    return out, isolated


# ---------------------------------------------------------------------------
# JSON round trip


def graph_to_json(g: PlanarGraph, coloring=None) -> dict:
    """Serializable dict; rotations use signed 1-based edge indices.

    +e means the dart at the first endpoint of edge e, -e the dart at the
    second (a loop lists the edge once with each sign).
    """
    rotations = []
    for r in g.rot:
        row = []
        for d in r:
            e = (d >> 1) + 1
            row.append(e if d % 2 == 0 else -e)
        rotations.append(row)
    out = {
        "vertices": g.nv,
        "edges": [list(e) for e in g.edges],
        "rotations": rotations,
    }
    if coloring is not None:
        out["colors"] = list(coloring)
    return out


def graph_from_json(data) -> tuple[PlanarGraph, tuple | None]:
    """Inverse of graph_to_json; returns (graph, coloring-or-None)."""
    if isinstance(data, str):
        data = json.loads(data)
    nv = data["vertices"]
    edges = [tuple(e) for e in data["edges"]]
    rot = []
    for row in data["rotations"]:
        darts = []
        for s in row:
            e = abs(s) - 1
            if not 0 <= e < len(edges):
                raise ValueError(f"rotation references edge {s} out of range")
            darts.append(2 * e if s > 0 else 2 * e + 1)
        rot.append(darts)
    g = PlanarGraph(nv, edges, rot)
    col = tuple(data["colors"]) if "colors" in data else None
    return g, col


# ---------------------------------------------------------------------------
# fixtures


def tetrahedron() -> PlanarGraph:
    """K4: central vertex 0 joined to an outer triangle 1,2,3."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    rot = [
        (0, 2, 4),      # center: to 1, 2, 3
        (6, 1, 8),      # vertex 1: to 2, center, 3
        (10, 3, 7),     # vertex 2: to 3, center, 1
        (9, 5, 11),     # vertex 3: to 1, center, 2
    ]
    return PlanarGraph(4, edges, rot)


def theta() -> PlanarGraph:
    """Two vertices joined by three parallel edges."""
    edges = [(0, 1), (0, 1), (0, 1)]
    rot = [(0, 2, 4), (1, 5, 3)]
    return PlanarGraph(2, edges, rot)


def triangle() -> PlanarGraph:
    """A 3-cycle (all vertices 2-valent)."""
    edges = [(0, 1), (1, 2), (2, 0)]
    rot = [(0, 5), (1, 2), (3, 4)]
    return PlanarGraph(3, edges, rot)


def circle() -> PlanarGraph:
    """A single loop on one 2-valent vertex."""
    return PlanarGraph(1, [(0, 0)], [(0, 1)])


def wheel(n: int) -> PlanarGraph:
    """Wheel with apex 0 and rim 1..n; spokes are edges 0..n-1, rim n..2n-1."""
    if n < 3:
        raise ValueError("wheel needs n >= 3")
    edges = [(0, i + 1) for i in range(n)]
    edges += [(i + 1, (i + 1) % n + 1) for i in range(n)]
    rot = [tuple(2 * i for i in range(n))]
    for i in range(1, n + 1):
        fwd = 2 * (n + i - 1)              # rim edge i -> i+1, at its first end
        back = 2 * (n + (i - 2) % n) + 1   # rim edge i-1 -> i, at its second end
        spoke = 2 * (i - 1) + 1
        rot.append((fwd, spoke, back))
    return PlanarGraph(n + 1, edges, rot)


def square_pyramid() -> PlanarGraph:
    return wheel(4)


def pentagonal_pyramid() -> PlanarGraph:
    return wheel(5)


def cube() -> PlanarGraph:
    """The 3-cube: outer square 0-3, inner square 4-7, spokes 8-11."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    rot = [
        (7, 0, 16),    # 0: to 3, to 1, inward
        (2, 18, 1),    # 1: to 2, inward, to 0
        (4, 20, 3),    # 2: to 3, inward, to 1
        (6, 22, 5),    # 3: to 0, inward, to 2
        (15, 17, 8),   # 4: to 7, outward, to 5
        (10, 9, 19),   # 5: to 6, to 4, outward
        (12, 11, 21),  # 6: to 7, to 5, outward
        (23, 14, 13),  # 7: outward, to 4, to 6
    ]
    return PlanarGraph(8, edges, rot)


def octahedron() -> PlanarGraph:
    """The octahedron, realized as the dual of the cube."""
    return dual(cube())


def triangular_prism() -> PlanarGraph:
    """Two triangles 0-1-2 (outer) and 3-4-5 (inner) joined by verticals."""
    edges = [(0, 1), (1, 2), (2, 0),
             (3, 4), (4, 5), (5, 3),
             (0, 3), (1, 4), (2, 5)]
    rot = [
        (0, 12, 5),    # 0: to 1, down, to 2
        (2, 14, 1),    # 1: to 2, down, to 0
        (4, 16, 3),    # 2: to 0, down, to 1
        (13, 6, 11),   # 3: up, to 4, to 5
        (8, 7, 15),    # 4: to 5, to 3, up
        (10, 9, 17),   # 5: to 3, to 4, up
    ]
    return PlanarGraph(6, edges, rot)


# ---------------------------------------------------------------------------
# the tetrahedron family


def family_enumerate(m: int):
    """Graphs reachable from the tetrahedron by exactly m local moves.

    Each move is a blow_up at a trivalent vertex or a triangulate at a
    triangular face.  Results are deduplicated by canonical signature and
    returned sorted by it (so the order is deterministic).
    """
    current = {canonical_signature(tetrahedron()): tetrahedron()}
    for _ in range(m):
        nxt = {}
        for g in current.values():
            for v in range(g.nv):
                if g.degree(v) == 3:
                    h = blow_up(g, v)
                    nxt.setdefault(canonical_signature(h), h)
            for fi, f in enumerate(g.faces()):
                if len(f) == 3:
                    h = triangulate(g, fi)
                    nxt.setdefault(canonical_signature(h), h)
        current = nxt
    return [current[k] for k in sorted(current)]
