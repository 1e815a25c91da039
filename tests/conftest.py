"""Shared test helpers: the shipped family files, seeded random specs and
graphs, brute-force connectivity, the recursive piece-set enumeration
oracle, the boundary-split oracle, the edge-stack block oracle, the per-y
ultrametric defect oracle, the label-by-label net and mesh builders with
the dict searches they were searched with, the boundary vertex sets of a
piece set, and the acceptance-line printer."""

from __future__ import annotations

import heapq
import math
import random
import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from cheegernet.families import bundled_path
from cheegernet.graphtools import Graph
from cheegernet.hypmath import DomainError, cusp_collar, thin_boundary_length
from cheegernet.netgraph import NetGraph, _check_sample_budget, _piece_spoke_weight
from cheegernet.surface import OpenBoundary, SurfaceSpec, make_gluing, pieces_index, require_valid

_CAPTURE_MANAGER = None


def pytest_configure(config):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = config.pluginmanager.getplugin("capturemanager")


def criterion_line(tag: str, passed: bool, detail: str = "") -> None:
    """One visible line per acceptance criterion.  Written with capture
    suspended so the verdicts land in piped output even for passing tests."""
    status = "PASS" if passed else "FAIL"
    msg = f"[{tag}] {status}"
    if detail:
        msg += f" {detail}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            sys.stdout.write(msg + "\n")
            sys.stdout.flush()
    else:
        sys.stdout.write(msg + "\n")
        sys.stdout.flush()


def bundled_families() -> dict:
    """The four shipped family files, keyed by builder name."""
    return {
        "flute": bundled_path("flute.family.json"),
        "shrinking_flute": bundled_path("shrinking.family.json"),
        "pants_tree": bundled_path("tree.family.json"),
        "genus_ladder": bundled_path("genus.family.json"),
    }


def random_spec(
    rng: random.Random,
    max_pieces: int = 10,
    min_pieces: int = 2,
    thin_below: float | None = None,
    max_length: float = 2.0,
) -> SurfaceSpec:
    """Random valid spec: spanning-tree gluings for connectivity, leftover
    slots split among extra gluings, cusps, and open edges."""
    k = rng.randint(min_pieces, max_pieces)

    def sample_length() -> float:
        if thin_below is not None and rng.random() < 0.35:
            return rng.uniform(0.02, 0.95 * thin_below)
        lo = 1.05 * thin_below if thin_below is not None else 0.1
        return rng.uniform(min(lo, max_length * 0.5), max_length)

    free = {p: [0, 1, 2] for p in range(k)}
    gluings = []
    for p in range(1, k):
        candidates = [q for q in range(p) if free[q]]
        q = rng.choice(candidates)
        sq = free[q].pop(rng.randrange(len(free[q])))
        sp = free[p].pop(rng.randrange(len(free[p])))
        gluings.append(make_gluing((q, sq), (p, sp), sample_length()))
    rest = [(p, s) for p in range(k) for s in free[p]]
    rng.shuffle(rest)
    cusps = []
    opens = []
    while rest:
        a = rest.pop()
        r = rng.random()
        if r < 0.3 and rest:
            b = rest.pop()
            gluings.append(make_gluing(a, b, sample_length()))
        elif r < 0.65:
            cusps.append(a)
        else:
            opens.append(OpenBoundary(a, sample_length()))
    return SurfaceSpec(
        pieces=k,
        gluings=tuple(gluings),
        cusps=tuple(sorted(cusps)),
        opens=tuple(sorted(opens, key=lambda o: o.at)),
    )


def random_connected_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """Spanning tree plus `extra` random non-parallel edges."""
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    tries = 0
    added = 0
    while added < extra and tries < 20 * extra + 20:
        tries += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
            added += 1
    return g


def random_tree(rng: random.Random, n: int) -> Graph:
    g = Graph()
    g.add_vertex(0)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    return g


def cycle_graph(n: int) -> Graph:
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for v in range(n):
        g.add_edge(v, (v + 1) % n)
    return g


def pieces_connected(spec: SurfaceSpec, members) -> bool:
    """Brute connectivity of a piece subset through gluings."""
    members = set(members)
    if not members:
        return False
    adj = {p: set() for p in members}
    for g in spec.gluings:
        pa, pb = g.a[0], g.b[0]
        if pa in members and pb in members:
            adj[pa].add(pb)
            adj[pb].add(pa)
    seen = set()
    stack = [next(iter(members))]
    while stack:
        p = stack.pop()
        if p in seen:
            continue
        seen.add(p)
        stack.extend(adj[p] - seen)
    return seen == members


def oracle_piece_subsets(spec: SurfaceSpec, max_size: int) -> Iterator[tuple[int, ...]]:
    """All connected piece sets of size <= max_size, each exactly once, as
    sorted tuples, by recursive frontier growth: an enumeration independent
    of `connected_piece_subsets` for tests to compare it against."""
    require_valid(spec)
    max_size = min(int(max_size), spec.pieces)
    if max_size < 1:
        return
    nbrs = pieces_index(spec).neighbours

    def grow(members: list[int], frontier: list[int], banned: set[int]) -> Iterator[tuple[int, ...]]:
        yield tuple(sorted(members))
        if len(members) == max_size:
            return
        local_ban: set[int] = set()
        for idx, u in enumerate(frontier):
            new_frontier = frontier[idx + 1 :] + sorted(
                w
                for w in nbrs[u]
                if w > members[0]
                and w not in members
                and w not in banned
                and w not in local_ban
                and w not in frontier
            )
            yield from grow(members + [u], new_frontier, banned | local_ban)
            local_ban.add(u)

    for v0 in range(spec.pieces):
        start_frontier = sorted(w for w in nbrs[v0] if w > v0)
        yield from grow([v0], start_frontier, set())


def mask_members(mask: int) -> tuple[int, ...]:
    """The pieces of a piece-set bitmask, ascending."""
    return tuple(p for p in range(mask.bit_length()) if mask >> p & 1)


def boundary_split(domain, delta: float) -> tuple[float, int]:
    """(total length of the boundary curves of length >= delta, count of
    the shorter ones) of a built domain, summed in boundary order."""
    long_total = 0.0
    short_count = 0
    for c in domain.boundary:
        if c.length >= delta:
            long_total += c.length
        else:
            short_count += 1
    return long_total, short_count


def oracle_blocks(graph: Graph) -> list[list[int]]:
    """Blocks as sorted lists of vertex indices, in the order the
    Hopcroft-Tarjan search closes them, from a stack of tree and back
    edges: an enumeration independent of the vertex-stack
    `biconnected_components` for tests to compare it against."""
    nbrs = [graph.neighbors(i) for i in range(graph.n)]
    n = len(nbrs)
    disc = [-1] * n
    low = [0] * n
    blocks = []
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(nbrs[root]))]
        edges = []
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if disc[w] < 0:
                    edges.append((v, w))
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, v, iter(nbrs[w])))
                    break
                if w != parent and disc[w] < disc[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = set()
                    while True:
                        edge = edges.pop()
                        block.update(edge)
                        if edge == (u, v):
                            break
                    blocks.append(sorted(block))
    return blocks


def oracle_ultrametric_defect(dists: np.ndarray) -> float:
    """Largest d(x,z) / max(d(x,y), d(y,z)) over the triples with x != z
    and a positive divisor, and at least 1, by one float division of the
    whole matrix per y: the oracle for `ultrametric_defect`."""
    n = dists.shape[0]
    if n < 3:
        return 1.0
    best = 1.0
    for y in range(n):
        m = np.maximum(dists[:, y][:, None], dists[y, :][None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(m > 0.0, dists / m, 1.0)
        np.fill_diagonal(ratio, 1.0)
        v = float(ratio.max())
        if v > best:
            best = v
    return best


# ---------------------------------------------------------------------------
# Nets and meshes built label by label, and the dict searches over labels


def label_adjacency(graph: Graph) -> dict:
    """label -> {neighbour label: weight}, in the graph's orders."""
    order = graph.vertices()
    return {order[i]: {order[j]: graph.weight(i, j) for j in graph.neighbors(i)}
            for i in range(graph.n)}


def oracle_bfs(adj: dict, source) -> dict:
    """Hop counts from label source over a label adjacency, by label."""
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        du = dist[u]
        for v in adj[u]:
            if v not in dist:
                dist[v] = du + 1
                q.append(v)
    return dist


def oracle_dijkstra(adj: dict, source) -> dict:
    """Weighted distances from label source over a label adjacency, by
    label: a heap of (distance, canonical index, label) and a settled set."""
    index = {v: i for i, v in enumerate(adj)}
    dist = {source: 0.0}
    heap = [(0.0, index[source], source)]
    done = set()
    while heap:
        du, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u].items():
            alt = du + w
            if v not in dist or alt < dist[v]:
                dist[v] = alt
                heapq.heappush(heap, (alt, index[v], v))
    return dist


def _oracle_ring(graph: Graph, labels, weight: float = 1.0) -> None:
    k = len(labels)
    for lab in labels:
        graph.add_vertex(lab)
    if k == 2:
        graph.add_edge(labels[0], labels[1], weight)
    elif k > 2:
        for j in range(k):
            graph.add_edge(labels[j], labels[(j + 1) % k], weight)


def oracle_net(spec: SurfaceSpec, params):
    """The net graph placed one label and one edge at a time: (graph,
    rings as (kind, slot, gluing index, length, labels) tuples, the ring
    of each slot)."""
    require_valid(spec)
    _check_sample_budget(spec, params)
    g = Graph()
    for p in range(spec.pieces):
        g.add_vertex(("hub", p))
    rings = []
    ring_of_slot = {}

    def new_ring(kind, slot, gi, length):
        k = max(1, math.ceil(length * params.density))
        labels = tuple(("net", slot[0], slot[1], j) for j in range(k))
        _oracle_ring(g, labels)
        rings.append((kind, slot, gi, length, labels))
        return rings[-1]

    for gi, gl in enumerate(spec.gluings):
        if gl.length < 2.0 * params.delta:
            side_len = thin_boundary_length(gl.length, params.eps)
            ra = ring_of_slot[gl.a] = new_ring("thin_side", gl.a, gi, side_len)
            rb = ring_of_slot[gl.b] = new_ring("thin_side", gl.b, gi, side_len)
            g.add_vertex(("v", gi))
            for lab in ra[4] + rb[4]:
                g.add_edge(("v", gi), lab)
        else:
            ring = new_ring("thick", min(gl.a, gl.b), gi, gl.length)
            ring_of_slot[gl.a] = ring_of_slot[gl.b] = ring
    for c in spec.cusps:
        ring = ring_of_slot[c] = new_ring("cusp", c, None, cusp_collar(params.eps).lam)
        g.add_vertex(("w", c[0], c[1]))
        for lab in ring[4]:
            g.add_edge(("w", c[0], c[1]), lab)
    for o in spec.opens:
        ring_of_slot[o.at] = new_ring("open", o.at, None, o.length)
    for p in range(spec.pieces):
        for s in range(3):
            for lab in ring_of_slot[(p, s)][4]:
                g.add_edge(("hub", p), lab)
    return g, rings, ring_of_slot


def oracle_quotient_mesh(spec: SurfaceSpec, params):
    """The quotient mesh placed one label and one edge at a time, on the
    rings of `oracle_net`: (mesh, vmap from net label to mesh label)."""
    _, rings, ring_of_slot = oracle_net(spec, params)
    mesh = Graph()
    vmap = {}
    for p in range(spec.pieces):
        mesh.add_vertex(("hub", p))
        vmap[("hub", p)] = ("hub", p)
    merged = {}
    mesh_ring_of = {}
    for kind, slot, gi, length, labels in rings:
        if kind == "thin_side" and gi in merged:
            mesh_labels = merged[gi]
        else:
            if kind == "thin_side":
                slot = min(spec.gluings[gi].a, spec.gluings[gi].b)
            k = 3 * len(labels)
            mesh_labels = tuple(("m", slot[0], slot[1], j) for j in range(k))
            _oracle_ring(mesh, mesh_labels, length / k)
            if kind == "thin_side":
                merged[gi] = mesh_labels
        mesh_ring_of[labels] = mesh_labels
        for j, lab in enumerate(labels):
            vmap[lab] = mesh_labels[3 * j]
    for p, shortest in enumerate(pieces_index(spec).shortest):
        w = _piece_spoke_weight(shortest, params)
        for s in range(3):
            for lab in mesh_ring_of[ring_of_slot[(p, s)][4]]:
                mesh.add_edge(("hub", p), lab, w)
    return mesh, vmap


def same_layout(got: Graph, want: Graph) -> bool:
    """Equal labels by index, equal edge lists (order and weights) and
    equal neighbour order at every vertex."""
    return (got.vertices() == want.vertices()
            and list(got.edges()) == list(want.edges())
            and all(got.neighbors(i) == want.neighbors(i) for i in range(got.n)))


# ---------------------------------------------------------------------------
# Boundary vertex sets of a domain inside the net


@dataclass(frozen=True)
class BoundarySets:
    members: frozenset
    boundary: frozenset
    boundary_2delta: frozenset

    @property
    def boundary_deep(self) -> frozenset:
        return self.boundary - self.boundary_2delta


def boundary_vertex_set(net: NetGraph, piece_set) -> BoundarySets:
    """Labels of the net vertices carried by a set of pieces, with its
    frontier.

    A ring sample belongs iff every piece its curve touches is in the set,
    so the shared ring of a cut thick gluing is left out and lands in the
    frontier.  The 2delta part of the frontier is the portion adjacent to
    ordinary member vertices; the rest hangs off special vertices only and
    corresponds to collar ends beyond the 2delta horizon.
    """
    pieces = frozenset(piece_set)
    if not pieces:
        raise DomainError("boundary_vertex_set needs a nonempty piece set")
    for p in pieces:
        if not 0 <= p < net.spec.pieces:
            raise DomainError(f"piece {p} out of range")

    g = net.graph
    order = g.vertices()
    members = set(pieces)  # hub p is vertex p
    for ring in net.rings:
        if all(p in pieces for p in ring.pieces):
            members.update(ring.vertices)
    for c, i in net.special_w.items():
        if c[0] in pieces:
            members.add(i)
    for gi, i in net.special_v.items():
        gl = net.spec.gluings[gi]
        if gl.a[0] in pieces or gl.b[0] in pieces:
            members.add(i)

    boundary = {u for v in members for u in g.neighbors(v) if u not in members}
    deep = {u for u in boundary
            if any(x in members and order[x][0] in ("hub", "net") for x in g.neighbors(u))}
    return BoundarySets(*(frozenset(order[i] for i in part) for part in (members, boundary, deep)))
