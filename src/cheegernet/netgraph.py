"""Net graphs of decorated surfaces and their quotient meshes.

A net places one hub per piece, a ring of samples along every boundary
curve at roughly one sample per delta of length, and a special vertex per
cusp and per delta-thin geodesic.  Special vertices stand for the deep
ends the net cannot reach; they attach only to ring samples, never to each
other, and distinct specials never share a neighbor.

The quotient mesh realizes the surgery that removes thin collars: the two
rings around a delta-thin geodesic collapse to a single ring, cusp rings
lose their special, and everything is refined so mesh distances can be
compared against net distances through the inclusion map.

Both graphs are laid out by index: hub p is vertex p, each ring's samples
are one contiguous index range (`RingInfo.vertices`), and the inclusion
map and every vertex set here (specials, interior, ring samples, tags)
are read off those indices and ranges, never off the labels, which are
kept for output only.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graphtools import CheegerReport, Graph, cheeger
from .hypmath import (
    DomainError,
    NetBuildParams,
    collar_width,
    cusp_collar,
    thin_boundary_length,
)
from .surface import Slot, SurfaceSpec, pieces_index, require_valid

__all__ = [
    "NetBuildParams",
    "RingInfo",
    "NetGraph",
    "build_net",
    "degree_bound",
    "max_degree",
    "ring_samples",
    "interior_vertices",
    "net_cheeger_estimate",
    "build_quotient_mesh",
    "QIReport",
    "estimate_qi_constants",
    "to_dot",
]


class RingInfo(NamedTuple):
    kind: str  # "thick" | "thin_side" | "cusp" | "open"
    slot: Slot  # owning slot; label namespace for the samples
    gluing_index: int | None
    length: float
    vertices: range  # the samples' vertex indices, sample j at vertices[j]
    pieces: tuple  # pieces this curve is incident to


class NetGraph(NamedTuple):
    """A net and where its parts sit: hub p is vertex p, each ring's
    samples are the index range of its RingInfo, and special_w (cusp slot
    -> index) and special_v (gluing index -> index) hold the specials."""

    spec: SurfaceSpec
    params: NetBuildParams
    graph: Graph
    rings: tuple[RingInfo, ...]
    ring_of_slot: dict
    special_w: dict
    special_v: dict


# Most ring samples one net may hold; a pants_tree(8) net has 4,972 vertices.
MAX_NET_SAMPLES = 10**6


def _check_sample_budget(spec: SurfaceSpec, params: NetBuildParams) -> None:
    """DomainError when the rings would hold over MAX_NET_SAMPLES samples; the
    count named is exact unless it overflows a float, then the largest float."""
    lengths = [cusp_collar(params.eps).lam] * len(spec.cusps) + [o.length for o in spec.opens]
    for gl in spec.gluings:
        thin = gl.length < 2.0 * params.delta
        lengths += [thin_boundary_length(gl.length, params.eps)] * 2 if thin else [gl.length]
    scaled = [max(1.0, length * params.density) for length in lengths]
    count = sum(map(math.ceil, scaled)) if math.isfinite(sum(scaled)) else sys.float_info.max
    if count > MAX_NET_SAMPLES:
        raise DomainError(f"the net would need at least {count:.10g} ring samples, "
                          f"more than the {MAX_NET_SAMPLES} allowed")


def build_net(spec: SurfaceSpec, params: NetBuildParams) -> NetGraph:
    """Net graph of a spec at scale (eps, delta).

    Thick gluings (length >= 2*delta) carry one shared ring on the
    geodesic, labeled by the smaller slot; both hubs spoke into it.
    Delta-thin gluings carry one ring per side at the collar boundary
    length, joined only through the special vertex of that geodesic.
    A net of more than MAX_NET_SAMPLES ring samples raises DomainError
    before any vertex is placed.

    Vertices are placed in one pass: the hubs at 0..pieces-1, then each
    ring's samples as one index range (`Graph.add_ring`), each special
    right after its rings; ring edges, specials' edges and the spokes from
    each hub to its three rings are written by index, so the vertex order,
    the edge order and every neighbour order are those of adding each
    label and edge one by one in the same sequence.
    """
    require_valid(spec)
    _check_sample_budget(spec, params)
    dens = params.density
    g = Graph()
    for p in range(spec.pieces):
        g.add_vertex(("hub", p))

    rings: list[RingInfo] = []
    ring_of_slot: dict = {}
    special_w: dict = {}
    special_v: dict = {}

    def new_ring(kind, slot, gi, length, pieces) -> RingInfo:
        k = max(1, math.ceil(length * dens))
        vertices = g.add_ring([("net", slot[0], slot[1], j) for j in range(k)])
        rings.append(RingInfo(kind, slot, gi, length, vertices, pieces))
        return rings[-1]

    for gi, gl in enumerate(spec.gluings):
        pa, pb = gl.a[0], gl.b[0]
        if gl.length < 2.0 * params.delta:
            side_len = thin_boundary_length(gl.length, params.eps)
            ra = ring_of_slot[gl.a] = new_ring("thin_side", gl.a, gi, side_len, (pa,))
            rb = ring_of_slot[gl.b] = new_ring("thin_side", gl.b, gi, side_len, (pb,))
            v = special_v[gi] = g.add_vertex(("v", gi))
            g.link(v, ra.vertices)
            g.link(v, rb.vertices)
        else:
            ring = new_ring("thick", min(gl.a, gl.b), gi, gl.length, (pa, pb))
            ring_of_slot[gl.a] = ring_of_slot[gl.b] = ring

    lam = cusp_collar(params.eps).lam
    for c in spec.cusps:
        ring = ring_of_slot[c] = new_ring("cusp", c, None, lam, (c[0],))
        w = special_w[c] = g.add_vertex(("w", c[0], c[1]))
        g.link(w, ring.vertices)

    for o in spec.opens:
        ring_of_slot[o.at] = new_ring("open", o.at, None, o.length, (o.at[0],))

    for p in range(spec.pieces):
        for s in range(3):
            g.link(p, ring_of_slot[(p, s)].vertices)

    return NetGraph(spec=spec, params=params, graph=g, rings=tuple(rings),
                    ring_of_slot=ring_of_slot, special_w=special_w, special_v=special_v)


def degree_bound(params: NetBuildParams, max_curve_length: float) -> int:
    """Uniform degree bound for nets built with params from specs whose
    curve lengths stay below max_curve_length.

    mu = 2 is the ring-per-special packing constant: a special vertex sees
    at most two rings, each no longer than the cusp scale 2*sinh(eps).
    Ring samples see at most mu + 3 neighbors (two ring edges, two hubs, or
    one hub and one special).
    """
    if max_curve_length <= 0.0:
        raise DomainError("max_curve_length must be positive")
    dens = params.density
    mu = 2
    horo = 2.0 * math.sinh(params.eps)
    ring_cap = math.ceil(max(max_curve_length, horo) * dens)
    return max(
        mu + 3,
        3 * ring_cap,
        mu * math.ceil(horo * dens),
    )


def max_degree(graph: Graph) -> int:
    return max(map(graph.degree, range(graph.n)))


def ring_samples(net: NetGraph) -> list[int]:
    """Indices of the ring samples, ascending: the rings' index ranges."""
    return [i for ring in net.rings for i in ring.vertices]


def interior_vertices(net: NetGraph) -> list[int]:
    """Every vertex index except the open-ring samples, ascending.  Open
    rings mark the truncation edge of the window and are the designated
    exterior for ambient Cheeger estimates."""
    outside = {i for ring in net.rings if ring.kind == "open" for i in ring.vertices}
    return [i for i in range(net.graph.n) if i not in outside]


def net_cheeger_estimate(net: NetGraph) -> CheegerReport:
    """Cheeger constant of the net: ambient against the open rings when the
    spec has them, exact at every size by Dinkelbach min cuts; else the
    plain finite graph constant with at most half the vertices, exhaustive
    up to 2^20 subsets and beyond that an upper bound (exact=False) from
    min cuts over the two halves of the Fiedler order."""
    interior = interior_vertices(net)
    if len(interior) == net.graph.n:
        return cheeger(net.graph, mode="finite_half")
    return cheeger(net.graph, mode="ambient", interior=interior)


# ---------------------------------------------------------------------------
# Quotient mesh


def _piece_spoke_weight(shortest: float, params: NetBuildParams) -> float:
    """Hub-to-ring weight in the mesh: the collar width of the shortest
    geodesic around the piece, clamped into [delta, 1]."""
    if math.isinf(shortest):
        return 1.0
    return min(1.0, max(params.delta, collar_width(shortest)))


def build_quotient_mesh(spec: SurfaceSpec, params: NetBuildParams):
    """Refined mesh of the surface after thin-collar surgery.

    Returns (graph, vmap): a weighted graph and the inclusion map, a dict
    from net vertex index to mesh vertex index (specials have no image).
    Each net ring reappears with three mesh samples per net sample, as one
    index range, and sample j of a net ring maps to mesh sample 3j; the
    two rings of a delta-thin gluing map onto one ring, realizing the
    gluing of the collar boundaries; cusp rings stay but their special end
    is removed.  Hub p is vertex p of both graphs.
    """
    refinement = 3
    net = build_net(spec, params)
    mesh = Graph()
    vmap: dict = {}
    for p in range(spec.pieces):
        vmap[p] = mesh.add_vertex(("hub", p))

    merged: dict[int, range] = {}  # thin gluing -> its one mesh ring
    mesh_ring = {}  # first index of a net ring -> its mesh ring
    for ring in net.rings:
        gi = ring.gluing_index
        thin = ring.kind == "thin_side"
        if thin and gi in merged:
            samples = merged[gi]
        else:
            slot = min(spec.gluings[gi].a, spec.gluings[gi].b) if thin else ring.slot
            k = len(ring.vertices) * refinement
            samples = mesh.add_ring([("m", slot[0], slot[1], j) for j in range(k)], ring.length / k)
            if thin:
                merged[gi] = samples
        mesh_ring[ring.vertices.start] = samples
        vmap.update(zip(ring.vertices, samples[::refinement]))

    for p, shortest in enumerate(pieces_index(spec).shortest):
        w = _piece_spoke_weight(shortest, params)
        for s in range(3):
            mesh.link(p, mesh_ring[net.ring_of_slot[(p, s)].vertices.start], w)

    return mesh, vmap


# ---------------------------------------------------------------------------
# Quasi-isometry constant estimation

_PAIR_CHUNK = 1 << 16  # mapped pairs whose per-hop extremes are gathered at a time


class QIReport(NamedTuple):
    alpha: float
    beta: float
    fullness: float
    pairs: int
    hops: list  # [[hop count, least image distance, greatest image distance], ...]

    def to_dict(self) -> dict:
        return self._asdict()


def estimate_qi_constants(graph_a: Graph, graph_b: Graph, vmap) -> QIReport:
    """Quasi-isometry constant of vmap, which maps vertex indices of
    graph_a to those of graph_b: the least float K >= 1 with
    da/K - K <= db <= K*da + K, in exact rationals, over the mapped pairs
    i < j, where da is their hop count in graph_a and db the distance
    between their images in graph_b, read from the mapped x mapped and
    image x image distance matrices.

    m[h] and M[h], the least and greatest db over the pairs with da = h
    (the rows of `hops`), decide every pair.  They are gathered a chunk of
    rows at a time by minimum.at and maximum.at, so no pair is sorted and
    no index vector over all pairs is held.  K is the largest of 1,
    M[h]/(h+1) and the root 2h/(sqrt(m[h]^2 + 4h) + m[h]) of
    K^2 + m[h]*K = h, stepped by ulps to the least float that passes.
    alpha is K, and beta is K when K > 1, else the least float at or above
    beta(1) = max(0, M[h] - h, h - m[h]).  Fullness is the largest distance
    from a vertex of graph_b to its nearest image, by one Dijkstra from all
    the images.
    """
    dom = sorted(vmap)
    if len(dom) < 2:
        raise DomainError("quasi-isometry estimate needs at least two mapped vertices")
    img = [vmap[i] for i in dom]
    db = graph_b.distance_matrix(weighted=True, rows=img, cols=img)
    da = graph_a.distance_matrix(rows=dom, cols=dom)
    db_max = np.full(int(da.max()) + 1, -np.inf)
    db_min = np.full(len(db_max), np.inf)
    step = max(1, _PAIR_CHUNK // len(dom))
    for s in range(0, len(dom), step):
        upper = np.arange(len(dom)) > np.arange(s, min(s + step, len(dom)))[:, None]
        hop, dist = da[s:s + step][upper], db[s:s + step][upper]
        np.maximum.at(db_max, hop, dist)
        np.minimum.at(db_min, hop, dist)
    seen = np.flatnonzero(db_min <= db_max)
    hops = list(map(list, zip(seen.tolist(), db_min[seen].tolist(), db_max[seen].tolist())))
    exact = [(h, Fraction(lo), Fraction(hi)) for h, lo, hi in hops]

    def holds(k: float) -> bool:
        q = Fraction(k)
        return all(q * (h + 1) >= hi and q * (q + lo) >= h for h, lo, hi in exact)

    k = max([1.0] + [max(hi / (h + 1), 2 * h / (math.sqrt(lo * lo + 4 * h) + lo))
                     for h, lo, hi in hops])
    while not holds(k):
        k = math.nextafter(k, math.inf)
    while k > 1.0 and holds(math.nextafter(k, 0.0)):
        k = math.nextafter(k, 0.0)
    b = Fraction(k) if k > 1.0 else max([Fraction(0)] + [max(hi - h, h - lo) for h, lo, hi in exact])
    beta = float(b) if Fraction(float(b)) >= b else math.nextafter(float(b), math.inf)
    return QIReport(alpha=k, beta=beta, fullness=float(max(graph_b.dijkstra(*img))),
                    pairs=len(dom) * (len(dom) - 1) // 2, hops=hops)


# ---------------------------------------------------------------------------
# Vertex tags and DOT output


def net_tags(net: NetGraph) -> list[str]:
    """Tag per net vertex, by index: its label's fields joined by colons
    (hub:p, w:p:s, v:g, net:p:s:j), and for ring samples the kind of their
    curve after them."""
    tags = [":".join(map(str, v)) for v in net.graph.vertices()]
    for ring in net.rings:
        for i in ring.vertices:
            tags[i] += f":{ring.kind}"
    return tags


def to_dot(graph: Graph, tags: list) -> str:
    """DOT text of a graph named net, vertex i labelled by tags[i]."""
    lines = ["graph net {"]
    for i, tag in enumerate(tags):
        lines.append(f'  n{i} [label="{tag}"];')
    edges = list(graph.edges())
    weighted = any(w != 1.0 for _, _, w in edges)
    for iu, iv, w in edges:
        if weighted:
            lines.append(f'  n{iu} -- n{iv} [label="{w:.6g}"];')
        else:
            lines.append(f"  n{iu} -- n{iv};")
    lines.append("}")
    return "\n".join(lines) + "\n"
