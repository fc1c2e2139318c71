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

This module owns the mutable rotation system that surgery edits,
_RGraph: the bracket's moves, yokota's strip-and-fan and the vertex sum
(k splices on a disjoint union) all cut and rejoin darts on it and
freeze the result back to a PlanarGraph.  It owns the face and
component walks: face_cycles and dart_components serve PlanarGraph and
_RGraph alike, so the faces and components the local moves choose from
are walked by one piece of code.  It also owns the colored canonical
signature, the memo key of the graph engine: canonical_labelings works
out the uncolored half once per embedded shape, with a getter per
automorphism, and read_signature reads a coloring's signature off them.
`skeinvol.bracket` and `skeinvol.yokota` keep the labelings of the
graphs they evaluate and read every key through read_signature.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .errors import NotTriangle, NotTrivalent


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

    def sigma(self, d):
        return self._sigma[d]

    def vertex_of(self, d):
        return self._vertex_of[d]

    def degree(self, v):
        return len(self.rot[v])

    def faces(self):
        """Faces as dart tuples (orbits of sigma o alpha), sorted by min dart."""
        if self._faces is None:
            self._faces = tuple(face_cycles(self._sigma, range(2 * self.ne)))
            face_of = [-1] * (2 * self.ne)
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
# face and component walks


def face_cycles(sigma, darts):
    """Faces as dart tuples, in order of smallest dart.

    sigma maps a dart to the next dart counterclockwise at its vertex (a
    list or a dict) and darts lists every dart in ascending order.  A
    face is an orbit of d -> sigma(d ^ 1).
    """
    seen = set()
    out = []
    for d0 in darts:
        if d0 in seen:
            continue
        cyc = []
        d = d0
        while d not in seen:
            seen.add(d)
            cyc.append(d)
            d = sigma[d ^ 1]
        out.append(tuple(cyc))
    return out


def dart_components(sigma, darts):
    """Connected components as dart lists, in order of smallest dart.

    sigma and darts are as in face_cycles.  A component is the closure of
    a dart under d -> d ^ 1 and sigma; a vertex with no dart is in none.
    """
    seen = set()
    comps = []
    for d0 in darts:
        if d0 in seen:
            continue
        comp = []
        stack = [d0]
        seen.add(d0)
        while stack:
            d = stack.pop()
            comp.append(d)
            for nd in (d ^ 1, sigma[d]):
                if nd not in seen:
                    seen.add(nd)
                    stack.append(nd)
        comps.append(comp)
    return comps


class _RGraph:
    """Mutable rotation system, the substrate of every surgery.

    Vertices and edges keep their (sparse) integer ids across surgery;
    edge endpoints are derived from the dart-to-vertex map, so moving a
    dart to another vertex automatically reconnects its edge.
    """

    __slots__ = ("rot", "vof", "col", "next_edge")

    def __init__(self, rot, vof, col, next_edge):
        self.rot = rot            # vertex id -> list of darts (ccw)
        self.vof = vof            # dart -> vertex id
        self.col = col            # edge id -> color
        self.next_edge = next_edge

    @classmethod
    def from_graph(cls, g: PlanarGraph, coloring):
        rot = {v: list(r) for v, r in enumerate(g.rot)}
        vof = {}
        for v, r in rot.items():
            for d in r:
                vof[d] = v
        col = {e: coloring[e] for e in range(g.ne)}
        return cls(rot, vof, col, g.ne)

    def remove_edge(self, e):
        for d in (2 * e, 2 * e + 1):
            v = self.vof.pop(d)
            self.rot[v].remove(d)
        del self.col[e]

    def new_edge(self, color):
        e = self.next_edge
        self.next_edge += 1
        self.col[e] = color
        return e

    def splice(self, keep, drop):
        """Join the edges of darts keep and drop into keep's edge.

        Dart keep moves to the far end of drop's edge, taking the place
        of drop's twin there; drop, its twin and the color of its edge
        are deleted.  The vertices keep and drop sat at are left for the
        caller to remove.
        """
        far = drop ^ 1
        tgt = self.vof[far]
        r = self.rot[tgt]
        r[r.index(far)] = keep
        self.vof[keep] = tgt
        del self.vof[drop]
        del self.vof[far]
        del self.col[drop >> 1]

    def sigma(self):
        s = {}
        for r in self.rot.values():
            k = len(r)
            for i, d in enumerate(r):
                s[d] = r[(i + 1) % k]
        return s

    def faces(self):
        s = self.sigma()
        return face_cycles(s, sorted(s))

    def dart_components(self):
        s = self.sigma()
        return dart_components(s, sorted(s))

    def freeze(self, darts=None):
        """Compact (a component of) the graph to (PlanarGraph, coloring, emap).

        emap maps the live edge ids to the frozen 0-based ids.  When darts
        is given, only the edges/vertices touched by those darts are taken.
        """
        if darts is None:
            edge_ids = sorted(self.col)
            vert_ids = sorted(v for v, r in self.rot.items() if r)
        else:
            edge_ids = sorted({d >> 1 for d in darts})
            vert_ids = sorted({self.vof[d] for d in darts})
        emap = {e: i for i, e in enumerate(edge_ids)}
        vmap = {v: i for i, v in enumerate(vert_ids)}
        edges = [(vmap[self.vof[2 * e]], vmap[self.vof[2 * e + 1]]) for e in edge_ids]
        rot = [[2 * emap[d >> 1] + (d & 1) for d in self.rot[v]] for v in vert_ids]
        coloring = tuple(self.col[e] for e in edge_ids)
        return PlanarGraph(len(vert_ids), edges, rot), coloring, emap


# ---------------------------------------------------------------------------
# global invariants


def _component_count(g: PlanarGraph) -> int:
    """Connected components, isolated vertices included."""
    isolated = sum(1 for r in g.rot if not r)
    return len(dart_components(g._sigma, range(2 * g.ne))) + isolated


def is_connected(g: PlanarGraph) -> bool:
    return _component_count(g) <= 1


def betti(g: PlanarGraph) -> int:
    """First Betti number E - V + (number of components)."""
    return g.ne - g.nv + _component_count(g)


@lru_cache(maxsize=1024)
def genus(g: PlanarGraph) -> int:
    """Genus of the embedding surface (per component, summed), cached per
    embedded shape."""
    comps = len(dart_components(g._sigma, range(2 * g.ne)))
    # each sphere component contributes 2 to chi; an isolated vertex is a
    # sphere with one face that face_cycles does not see, so leave it out
    chi = g.nv - sum(1 for r in g.rot if not r) - g.ne + len(g.faces())
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

    The sum is k splices on the disjoint union, frozen.  New numbering:
    vertices of g1 except v1 (order kept), then vertices of g2 except v2
    (isolated vertices are dropped, as freeze drops them).  Edges: the
    edges of g1 in id order, a spliced edge keeping its place, then the
    unspliced edges of g2 in id order.
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

    # the disjoint union: g2's vertices shifted by g1.nv, its darts by 2 g1.ne
    dshift = 2 * g1.ne
    rot = {v: list(r) for v, r in enumerate(g1.rot)}
    rot.update((g1.nv + v, [d + dshift for d in r]) for v, r in enumerate(g2.rot))
    vof = {d: v for v, r in rot.items() for d in r}
    ne = g1.ne + g2.ne
    rg = _RGraph(rot, vof, dict.fromkeys(range(ne)), ne)
    # a[i]'s edge runs on to the far end of its partner's
    partner = {}
    for i in range(k):
        db = b[(offset - i) % k]
        rg.splice(a[i], db + dshift)
        partner[db >> 1] = a[i] >> 1
    del rg.rot[v1], rg.rot[g1.nv + v2]
    g, _, emap = rg.freeze()
    emap1 = {e: emap[e] for e in range(g1.ne)}
    emap2 = {e: emap[partner[e]] if e in partner else emap[g1.ne + e] for e in range(g2.ne)}
    return g, emap1, emap2


def vertex_sum(g1: PlanarGraph, v1: int, g2: PlanarGraph, v2: int, offset: int = 0) -> PlanarGraph:
    """The glued graph alone; see vertex_sum_with_maps."""
    return vertex_sum_with_maps(g1, v1, g2, v2, offset)[0]


def mirror(g: PlanarGraph) -> PlanarGraph:
    """The reflected embedding: every rotation reversed."""
    return PlanarGraph(g.nv, g.edges, [tuple(reversed(r)) for r in g.rot])


def relabel(g: PlanarGraph, coloring, rng):
    """The same colored embedding under shuffled vertex ids, edge ids,
    edge orientations and rotation starting corners, all drawn from rng
    (a random.Random, say).  Returns (graph, coloring)."""
    vperm, eperm = list(range(g.nv)), list(range(g.ne))
    rng.shuffle(vperm)
    rng.shuffle(eperm)
    flip = [rng.randrange(2) for _ in range(g.ne)]
    edges, col = [None] * g.ne, [None] * g.ne
    for e, (u, v) in enumerate(g.edges):
        edges[eperm[e]] = (vperm[v], vperm[u]) if flip[e] else (vperm[u], vperm[v])
        col[eperm[e]] = coloring[e]
    rot = [None] * g.nv
    for v, r in enumerate(g.rot):
        k = rng.randrange(len(r)) if r else 0
        rot[vperm[v]] = [2 * eperm[d >> 1] + ((d & 1) ^ flip[d >> 1]) for d in r[k:] + r[:k]]
    return PlanarGraph(g.nv, edges, rot), tuple(col)


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


def _vector_getter(order):
    """col -> tuple(col[e] for e in order): the color vector of one edge order."""
    if len(order) == 1:
        e = order[0]
        return lambda col: (col[e],)  # itemgetter(e) would give a bare color
    return itemgetter(*order)


@lru_cache(maxsize=1024)
def canonical_labelings(g: PlanarGraph):
    """The uncolored half of the canonical form, cached per embedded shape.

    Returns (isolated vertex count, components).  Each component is
    (signature, getters): the minimum BFS signature over every starting
    dart and both orientations, and for every start that attains it the
    getter of a coloring's color vector in that start's edge order (edge
    ids by BFS label).  Those starts are the component's automorphisms,
    reflections included.  Every start is searched, and a search stops
    at its first row above the best so far.
    canonical_labelings.cache_info() reports how often the shape was
    already known.
    """
    sigma = g._sigma
    inv = [0] * len(sigma)
    for d, s in enumerate(sigma):
        inv[s] = d
    vof = g._vertex_of
    comps = dart_components(sigma, range(len(sigma)))
    out = []
    for comp in comps:
        best = None
        orders = []
        for sig in (sigma, inv):
            for d0 in comp:
                found = _bfs_labeling(g, sig, d0, best)
                if found is None:
                    continue
                rows, order, tied = found
                if tied:
                    orders.append(order)
                else:
                    best = rows
                    orders = [order]
        out.append((best, tuple(_vector_getter(order) for order in orders)))
    isolated = g.nv - len({vof[d] for comp in comps for d in comp})
    return isolated, tuple(out)


def read_signature(labelings, coloring=None):
    """The canonical signature of a coloring, read off canonical_labelings.

    labelings is canonical_labelings(g) of the graph g that coloring
    colors, so a caller holding them reads a signature with no labeling
    search and no hashing of g.  With a coloring, a component becomes
    (signature, the smallest of its color vectors).
    """
    isolated, comps = labelings
    if coloring is None:
        sigs = sorted(sig for sig, _ in comps)
    else:
        sigs = sorted((sig, min([get(coloring) for get in gets])) for sig, gets in comps)
    return (isolated, tuple(sigs))


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
    vertices contribute a count.  This is read_signature applied to
    canonical_labelings(g).

    Two graphs (with colorings) get the same signature exactly when some
    isomorphism of embedded colored graphs, possibly orientation-
    reversing, relates them.
    """
    return read_signature(canonical_labelings(g), coloring)


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
    rows = data["rotations"]
    # int() would truncate 1.5 and accept true; a count of 4.0 breaks later
    if any(type(x) is not int for x in [nv, *chain(*edges), *chain(*rows)]):
        raise ValueError("the vertex count, edge endpoints and rotation entries must be integers")
    rot = []
    for row in rows:
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


def recognize(g: PlanarGraph):
    """("wheel", n) if g is the n-spoke wheel (n >= 3; the tetrahedron is
    the 3-spoke wheel), ("prism", 3) if it is the triangular prism, else None.

    g is compared by canonical_signature with wheel(g.nv - 1) or
    triangular_prism(), so its ids, dart orientations, rotation starts
    and mirror image do not matter.  The reference shape is built on
    first use, and canonical_labelings caches its labelings.
    """
    if g.nv >= 4 and g.ne == 2 * (g.nv - 1):
        if canonical_signature(g) == canonical_signature(wheel(g.nv - 1)):
            return ("wheel", g.nv - 1)
    elif (g.nv, g.ne) == (6, 9) and canonical_signature(g) == canonical_signature(triangular_prism()):
        return ("prism", 3)
    return None


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
