"""Generic graph machinery: metric, Cheeger, hyperbolicity, boundary proxies.

A `Graph` is stored by vertex index, with labels kept for output only, so
no search or algorithm hashes a label; the net builders place each ring
as one contiguous index range.  Insertion order is the canonical vertex
order and every report breaks ties toward it, so identical inputs give
byte-identical outputs.  All-pairs distances are composed over the
block-cut tree: BFS or Dijkstra runs only inside each biconnected block
(found by an iterative Hopcroft-Tarjan search), and numpy adds the blocks'
matrices across cut vertices.  A net glues copies of a few gadgets, so
most of its blocks share a shape (the same local adjacency, neighbour
order and weights); blocks of one shape share one subgraph, and one call
searches each shape from each position once and scans it once, while
counts such as `quadruples` still add each block's share.  Ratio cuts
min cut(A)/|A| against a sink are exact, by Dinkelbach iteration over s-t
min cuts from an iterative Dinic max flow in Python integers; ambient
Cheeger constants use them, and so does the size-capped constant's upper
bound on graphs too large to enumerate, over the two halves of the
Fiedler order.
The four-point hyperbolicity constant is exact at every size: the largest
over the same blocks, each scanned once by far-apart pairs on its own
m x m matrix, which also yields the witness, so no n x n matrix is built.
numpy does the four-point scans, the one sort per row of the perfectness
test and the subset enumerations of the size-capped Cheeger constant;
single-source searches are plain BFS/Dijkstra over the int adjacency.
Dijkstra's bits do not depend on its bookkeeping: a path's length is its
weights added one by one outward from the source, and rounding is
monotone and never makes a sum smaller, so any label-setting search
settles each vertex at the least such sum over its paths.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .hypmath import DomainError

__all__ = [
    "Graph",
    "biconnected_components",
    "HyperbolicityReport",
    "hyperbolicity_delta",
    "CheegerReport",
    "RatioCut",
    "min_ratio_cut",
    "cheeger",
    "ProxyReport",
    "boundary_proxy",
    "ultrametric_defect",
    "UPReport",
    "uniform_perfectness",
    "PoleReport",
    "geodesic_union_set",
    "has_pole",
]


_GATHER = 1 << 16  # entries gathered at a time at the end of Graph.distance_matrix


def _check_weight(weight: float) -> None:
    if not (math.isfinite(weight) and weight > 0.0):
        raise DomainError(f"edge weight must be positive, got {weight!r}")


class Graph:
    """Undirected graph with optional edge weights and no self-loops.

    Vertices are the indices 0..n-1 in insertion order, the canonical
    order.  The graph is a list of labels (any hashable values, read only
    for output), a label -> index dict, and the int adjacency: `_adj[i]`
    maps each neighbour's index to the edge weight, in the order the edges
    were first written; a parallel edge keeps that place and takes the
    last weight.  `add_vertex`, `add_edge` and `index_of` take labels;
    every other method and algorithm takes and returns indices.  Builders
    add a ring of new vertices as one index range (`add_ring`) and join
    one vertex to many (`link`), checking the weight once per call.
    `Graph(adj)` is the graph on an int adjacency, labelled by index.
    """

    def __init__(self, adj: list[dict[int, float]] | None = None):
        self._adj = [] if adj is None else adj
        self._labels: list = list(range(len(self._adj)))
        self._index = dict(zip(self._labels, self._labels))

    def add_vertex(self, v) -> int:
        """The index of label v, which is added as the next index if new."""
        i = self._index.get(v)
        if i is None:
            i = self._index[v] = len(self._labels)
            self._labels.append(v)
            self._adj.append({})
        return i

    def add_edge(self, u, v, weight: float = 1.0) -> None:
        if u == v:
            raise DomainError(f"self-loop at {u!r} not allowed")
        _check_weight(weight)
        i, j = self.add_vertex(u), self.add_vertex(v)
        self._adj[i][j] = self._adj[j][i] = weight

    def add_ring(self, labels: list, weight: float = 1.0) -> range:
        """Add the new labels at consecutive indices, each vertex joined to
        the next and the last to the first (two vertices share one edge,
        one has none), and return their index range.  The rows are written
        at once, in the neighbour order of adding those edges one by one."""
        _check_weight(weight)
        first, last = self.n, self.n + len(labels) - 1
        ring = range(first, last + 1)
        self._labels += labels
        self._index.update(zip(labels, ring))
        if len(self._index) != len(self._labels):
            raise DomainError("a ring label is already a vertex")
        if first == last:
            self._adj.append({})
        elif first < last:
            self._adj += ([{first + 1: weight, last: weight}]
                          + [{i - 1: weight, i + 1: weight} for i in range(first + 1, last)]
                          + [{last - 1: weight, first: weight}])
        return ring

    def link(self, i: int, targets, weight: float = 1.0) -> None:
        """Join vertex i to each vertex of the index sequence targets, which
        must not hold i, in order."""
        _check_weight(weight)
        adj = self._adj
        row = adj[i]
        for j in targets:
            row[j] = adj[j][i] = weight

    @property
    def n(self) -> int:
        return len(self._labels)

    def vertices(self) -> list:
        """The labels, by index."""
        return list(self._labels)

    def index_of(self, v) -> int:
        return self._index[v]

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def neighbors(self, i: int) -> list[int]:
        return list(self._adj[i])

    def weight(self, i: int, j: int) -> float:
        return self._adj[i][j]

    def edges(self):
        """Each undirected edge once, as (i, j, weight) with i < j, in the
        order of i, then of i's neighbours."""
        for i, row in enumerate(self._adj):
            for j, w in row.items():
                if i < j:
                    yield i, j, w

    def bfs_distances(self, source: int) -> list[int]:
        """Hop counts from vertex source, by index; -1 where unreachable."""
        adj = self._adj
        dist = [-1] * len(adj)
        dist[source] = 0
        frontier = [source]
        for u in frontier:
            du = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du
                    frontier.append(v)
        return dist

    def dijkstra(self, *sources: int) -> list[float]:
        """Weighted distances from the nearest of the vertices `sources`, by
        index; inf where unreachable.  A heap of (distance, index) entries,
        seeded with every source, with lazy deletion skips an entry above
        its vertex's distance, so each vertex is settled once, at the least
        outward sum over its paths from any source: the bits of any
        label-setting search (see the module docstring), and so the
        elementwise minimum of the one-source searches."""
        adj = self._adj
        dist = [math.inf] * len(adj)
        for s in sources:
            dist[s] = 0.0
        heap = [(0.0, s) for s in sorted(set(sources))]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            du, u = pop(heap)
            if du > dist[u]:
                continue
            for v, w in adj[u].items():
                alt = du + w
                if alt < dist[v]:
                    dist[v] = alt
                    push(heap, (alt, v))
        return dist

    def is_connected(self) -> bool:
        return self.n == 0 or -1 not in self.bfs_distances(0)

    def distance_matrix(self, weighted: bool = False, rows=None, cols=None):
        """Distances from the vertices of index `rows` to those of index
        `cols` (every vertex if None; repeats and any order allowed), one
        row per entry of rows and one column per entry of cols.  Raises if
        the graph is disconnected: every metric routine here assumes one
        component.

        The matrix is composed over the block-cut tree.  A shortest path
        between two vertices of one block stays in that block, so all
        searches are BFS (or Dijkstra) on the subgraph of one block, whose
        vertices are the positions in the block.  Blocks of one shape share
        their subgraph, so the call keeps each search's row by (subgraph,
        source position) while a block of that shape is still to come, and
        runs each search once; the memo dies with the call.  Blocks are added
        in breadth-first order of the tree from the block of the first
        vertex, each once: the first placed vertex a to reach a block is its
        attachment, and all its other vertices are new, since the tree
        reaches each of them through this block alone.  The block gets
        D[old, new] = D[old, a] + d(a -> new) and
        D[new, old] = d(new -> a) + D[a, old].  Only the rows asked for,
        the cut vertices' and the first vertex's are composed, so a block
        costs a search from a and one from each new vertex whose row is
        kept.  The last two keep whole rows (W), as later blocks read them;
        the other rows asked for (R) keep only the columns asked for and
        the cut vertices' they compose through.  Columns are stored in
        placement order, so a block writes contiguous slices, and a gather
        at the end puts the rows asked for in the order of cols.  An entry
        has the same bits whichever other rows and columns are asked for.
        Hop counts are exact.  A weighted distance across a cut vertex is a
        sum of two block distances, where a whole-graph Dijkstra adds the
        edge weights one by one along the path, so the two can differ by
        rounding.
        """
        n = self.n
        dtype = np.float64 if weighted else np.int32
        rows = range(n) if rows is None else rows
        cols = range(n) if cols is None else cols
        if n <= 1:
            return np.zeros((len(rows), len(cols)), dtype=dtype)
        blocks = _block_graphs(self)
        blocks_of: list[list[int]] = [[] for _ in range(n)]
        for b, (block, _) in enumerate(blocks):
            for i in block:
                blocks_of[i].append(b)
        whole = [len(b) > 1 for b in blocks_of]  # cut vertices
        whole[0] = True
        asked, stored = [False] * n, whole[:]  # stored: the columns of R
        for i in rows:
            asked[i] = True
        for j in cols:
            stored[j] = True
        if all(stored):  # a row asked for keeps every column anyway
            whole = [w or q for w, q in zip(whole, asked)]
        own = [q and not w for w, q in zip(whole, asked)]  # the rows of R
        W = np.zeros((sum(whole), n), dtype=dtype)
        R = np.zeros((sum(own), sum(stored)), dtype=dtype)
        placed = np.zeros(R.shape[1], dtype=np.intp)  # placed column of a column of R
        row = [0] * n  # row of W or of R of a kept vertex
        pos = [0] * n  # placed column of a placed vertex
        col = [0] * n  # column of R of a stored placed vertex
        visited = [False] * len(blocks)
        found: dict[tuple[Graph, int], np.ndarray] = {}  # (shape, source) -> its search
        left = Counter(sub for _, sub in blocks)  # blocks of each shape not yet added

        def search(sub: Graph, k: int) -> np.ndarray:
            row = found.get((sub, k))
            if row is None:
                row = np.array((sub.dijkstra if weighted else sub.bfs_distances)(k), dtype=dtype)
                if left[sub]:  # kept only for a later block of this shape
                    found[sub, k] = row
            return row

        wrows, rrows, count, width = 1, 0, 1, 1
        queue = [0]
        for a in queue:
            for b in blocks_of[a]:
                if visited[b]:
                    continue
                visited[b] = True
                block, sub = blocks[b]
                left[sub] -= 1
                at = block.index(a)
                new = [k for k in range(len(block)) if k != at]
                kept = [k for k in new if stored[block[k]]] if len(R) else []
                end, stop = count + len(new), width + len(kept)
                for j, k in enumerate(new):
                    pos[block[k]] = count + j
                from_a = search(sub, at)
                W[:wrows, count:end] = W[:wrows, pos[a], None] + from_a[new]
                if kept:
                    R[:rrows, width:stop] = R[:rrows, col[a], None] + from_a[kept]
                    placed[width:stop] = [pos[block[k]] for k in kept]
                    for j, k in enumerate(kept):
                        col[block[k]] = width + j
                wide = [k for k in new if whole[block[k]]]
                fresh = wide + [k for k in new if own[block[k]]] if len(R) else wide
                if fresh:
                    local = np.array([search(sub, k) for k in fresh])
                    top, cut = wrows + len(wide), len(wide)
                    W[wrows:top, count:end] = local[:cut, new]
                    W[wrows:top, :count] = local[:cut, at, None] + W[row[a], :count]
                    for k in wide:
                        row[block[k]], wrows = wrows, wrows + 1
                    if len(fresh) > cut:
                        top = rrows + len(fresh) - cut
                        R[rrows:top, width:stop] = local[cut:, kept]
                        R[rrows:top, :width] = local[cut:, at, None] + W[row[a], placed[:width]]
                        for k in fresh[cut:]:
                            row[block[k]], rrows = rrows, rrows + 1
                queue += [block[k] for k in new]
                count, width = end, stop
        out = W.take([row[i] for i in rows if whole[i]], axis=0)
        del W  # so a full matrix peaks at two n x n copies, not three
        out = out.take([pos[j] for j in cols], axis=1)
        if len(R):  # the whole rows among the rows asked for, then the own rows
            both, out = out, np.empty((len(rows), len(cols)), dtype=dtype)
            out[[p for p, i in enumerate(rows) if whole[i]]] = both
            at = [p for p, i in enumerate(rows) if own[i]]
            order = np.array([col[j] for j in cols], dtype=np.intp)
            step = max(1, _GATHER // max(1, len(order)))
            for s in range(0, len(at), step):
                chunk = at[s:s + step]
                out[chunk] = R.take([row[rows[p]] for p in chunk], axis=0).take(order, axis=1)
        return out


def biconnected_components(graph: Graph) -> list[list[int]]:
    """Blocks of the graph as sorted lists of vertex indices, by an
    iterative Hopcroft-Tarjan depth-first search (CACM 1973) with a stack
    of vertices: when a child v of u has low[v] >= disc[u], the block is u
    and the vertices pushed since v.  Every edge lies in exactly one block
    and two blocks share at most one vertex, a cut vertex; an isolated
    vertex lies in none."""
    nbrs = graph._adj
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
        visited = [root]
        # A frame is (v, its unread neighbours, v's place on visited).  The
        # edge to the parent may lower low[v] to disc[parent], which leaves
        # the test low[v] >= disc[parent] as it was.
        stack = [(root, iter(nbrs[root]), 0)]
        while stack:
            v, it, _ = stack[-1]
            for w in it:
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, iter(nbrs[w]), len(visited)))
                    visited.append(w)
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                at = stack.pop()[2]
                if not stack:
                    continue
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    block = visited[at:]
                    del visited[at:]
                    block.append(u)
                    blocks.append(sorted(block))
    return blocks


def _block_graphs(graph: Graph, task: str = "distance matrix") -> list[tuple[list[int], Graph]]:
    """Each block of a connected graph with at least two vertices, with
    its subgraph on the positions 0..m-1 in the block, neighbours in the
    graph's order.  Blocks of one shape, the same rows of (position,
    weight) pairs, share one subgraph, built at the shape's first block, so
    callers can search and scan a shape once.  An edge whose ends share a
    block lies in it, since two blocks share at most one vertex.  Raises
    "<task> of a disconnected graph" if the graph is: the block-cut tree
    of c components with B blocks of total size S has S = n + B - c."""
    adj = graph._adj
    where = [-1] * len(adj)  # position in the current block
    shapes: dict[tuple, Graph] = {}
    out = []
    for block in biconnected_components(graph):
        for k, i in enumerate(block):
            where[i] = k
        shape = tuple([tuple([(where[j], w) for j, w in adj[i].items() if where[j] >= 0])
                       for i in block])
        for i in block:
            where[i] = -1
        sub = shapes.get(shape)
        if sub is None:
            sub = shapes[shape] = Graph([dict(row) for row in shape])
        out.append((block, sub))
    if sum(len(block) for block, _ in out) - len(out) != len(adj) - 1:
        raise DomainError(f"{task} of a disconnected graph")
    return out


# ---------------------------------------------------------------------------
# Four-point hyperbolicity


class HyperbolicityReport(NamedTuple):
    delta: float
    witness: tuple
    exact: bool
    base_dependence: float
    quadruples: int

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "witness": [str(v) for v in self.witness],
            "exact": self.exact,
            "base_dependence": self.base_dependence,
            "quadruples": self.quadruples,
        }


def _near(nbrs: list[list[int]], D: np.ndarray) -> np.ndarray:
    """near[x, y]: no neighbour of x is farther from y than x is.  Runs of
    neighbour rows are unpadded, so a hub widens only its own run."""
    starts = np.cumsum([0] + [len(row) for row in nbrs[:-1]])
    return np.maximum.reduceat(D[[u for row in nbrs for u in row]], starts) <= D


def _far_apart_scan(nbrs: list[list[int]], D: np.ndarray) -> tuple[int, int, tuple | None]:
    """Doubled delta of a connected graph, the quadruples evaluated and a
    sorted quadruple attaining it (None when delta is 0), by the
    far-apart-pair scan.  Far-apart pairs x < y (no neighbour of x
    farther from y, no neighbour of y farther from x) are taken by
    decreasing distance, then lexicographically; each is checked against
    every earlier pair until its distance is at most 2*delta.  A pair that
    raises delta keeps itself and the first earlier pair attaining it.
    Pair distances are read once; each defect reads the rows D[x], D[y]."""
    near = _near(nbrs, D)
    xs, ys = np.nonzero(near & near.T)
    upper = xs < ys
    xs, ys = xs[upper], ys[upper]
    dist = D[xs, ys]
    keep = np.argsort(-dist, kind="stable")
    xs, ys, dist = xs[keep], ys[keep], dist[keep]
    best2 = 0
    quadruples = 0
    witness = None
    for p, d in enumerate(dist.tolist()[1:], 1):
        x, y = xs[p], ys[p]
        if d <= best2:
            break
        v, w = xs[:p], ys[:p]
        dx, dy = D[x], D[y]
        defect = d + dist[:p] - np.maximum(dx[v] + dy[w], dx[w] + dy[v])
        q = int(defect.argmax())
        if defect[q] > best2:
            best2 = int(defect[q])
            witness = tuple(sorted(int(k) for k in (x, y, v[q], w[q])))
        quadruples += p
    return best2, quadruples, witness


def hyperbolicity_delta(graph: Graph) -> HyperbolicityReport:
    """Exact four-point hyperbolicity constant of a connected graph.

    A shortest path between two vertices of one biconnected block stays in
    that block, so delta is the largest delta of the blocks; blocks of
    fewer than four vertices have delta 0.  No n x n matrix is built: each
    block of four or more vertices fills its own m x m matrix by a BFS
    from each vertex of its subgraph, and is scanned on that matrix and
    its own neighbour lists by the far-apart-pair method of Cohen, Coudert
    and Lancin ("On computing the Gromov hyperbolicity", ACM JEA 2015);
    quadruples is the number of quadruples those scans evaluated, summed
    over the blocks.  Blocks of one shape share their subgraph (see
    _block_graphs), so each shape is searched and scanned once per call;
    its local witness is mapped through each block's own vertices, and its
    count is added once per block.  Each block's scan keeps the quadruple
    of the far-apart pair that last raised its delta and the first earlier
    pair attaining that value; the witness is the smallest of these (in
    canonical vertex order) among the blocks attaining delta, or the first
    four vertices when delta is 0.  So it lies in one block and attains
    delta, but it need not be the lexicographically first such quadruple.
    base_dependence is the largest base-point delta, max over x, y, z of
    min((x|z)_w, (z|y)_w) - (x|y)_w at base w.  Twice that difference is
    d(x,y) + d(z,w) - max(d(x,z) + d(y,w), d(x,w) + d(y,z)), so no base
    exceeds delta and each witness vertex attains it: it equals delta.  A
    disconnected graph raises DomainError at every size (from four
    vertices up, by the block count).
    """
    order = graph.vertices()
    if graph.n < 4:
        if not graph.is_connected():
            raise DomainError("hyperbolicity of a disconnected graph")
        return HyperbolicityReport(0.0, tuple(order), True, 0.0, 0)
    best2, witness, quadruples = 0, (0, 1, 2, 3), 0
    scans: dict[Graph, tuple] = {}  # shape -> its scan
    for block, sub in _block_graphs(graph, "hyperbolicity"):
        m = len(block)
        if m < 4:
            continue
        if sub not in scans:
            D = np.array([sub.bfs_distances(k) for k in range(m)], dtype=np.int32)
            scans[sub] = _far_apart_scan([list(row) for row in sub._adj], D)
        b2, count, local = scans[sub]
        quadruples += count
        if b2 and b2 >= best2:
            found = tuple(block[k] for k in local)
            witness = found if b2 > best2 else min(witness, found)
            best2 = b2
    return HyperbolicityReport(
        delta=best2 / 2.0,
        witness=tuple(order[i] for i in witness),
        exact=True,
        base_dependence=best2 / 2.0,
        quadruples=quadruples,
    )


# ---------------------------------------------------------------------------
# Cheeger constants


class CheegerReport(NamedTuple):
    value: float
    witness: tuple
    exact: bool
    mode: str
    examined: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": [str(v) for v in self.witness],
            "exact": self.exact,
            "mode": self.mode,
            "examined": self.examined,
        }


def _fiedler_order(adj: np.ndarray) -> list[int]:
    """Vertex indices sorted by the Fiedler vector of the weighted
    adjacency matrix adj, ties toward the smaller index."""
    lap = np.diag(adj.sum(axis=1)) - adj
    fiedler = np.linalg.eigh(lap)[1][:, 1]
    return sorted(range(len(adj)), key=lambda i: (fiedler[i], i))


class RatioCut(NamedTuple):
    """Result of :func:`min_ratio_cut`: the exact minimum ratio, the
    lexicographically smallest set attaining it, and the number of s-t
    min-cut solves the Dinkelbach iteration made."""

    ratio: Fraction
    members: tuple
    solves: int


def _greedy_flow(adj: list, to: list, cap: list, s: int, t: int) -> None:
    """One greedy pass of flow from s to t, in place on the residual
    capacities cap: fill the arcs out of s, send the excess down the layers
    of residual distance to t, then return what got stuck the way it came,
    layer by layer away from t, which leaves a valid flow.  Flow leaves s
    and otherwise moves only along arcs one layer closer to t, so the pass
    opens no residual arc that shortens a path from s to t.  Dinic needs
    one phase per augmenting-path length, which is quadratic when s feeds
    every vertex of a long path; this pass routes such flow at once."""
    n = len(adj)
    dist = [-1] * n
    dist[t] = 0
    layers = [t]
    for x in layers:
        for e in adj[x]:
            y = to[e]
            if dist[y] < 0 and y != s and cap[e ^ 1]:
                dist[y] = dist[x] + 1
                layers.append(y)
    excess = [0] * n
    inflow: list[list] = [[] for _ in range(n)]  # (arc, amount) into each vertex
    for e in adj[s]:
        v = to[e]
        if cap[e] and dist[v] > 0:
            excess[v] += cap[e]
            inflow[v].append((e, cap[e]))
            cap[e ^ 1] += cap[e]
            cap[e] = 0
    for v in reversed(layers[1:]):
        down = dist[v] - 1
        for e in adj[v]:
            if not excess[v]:
                break
            u = to[e]
            if dist[u] == down and cap[e]:
                f = min(cap[e], excess[v])
                cap[e] -= f
                cap[e ^ 1] += f
                excess[v] -= f
                excess[u] += f
                inflow[u].append((e, f))
    for v in layers[1:]:
        for e, f in inflow[v]:
            if not excess[v]:
                break
            r = min(f, excess[v])
            cap[e] += r
            cap[e ^ 1] -= r
            excess[v] -= r
            excess[to[e ^ 1]] += r


def _max_flow(adj: list, to: list, cap: list, s: int, t: int) -> None:
    """Max flow from s to t, in place on the residual capacities cap:
    Dinic's blocking flows, each phase after a greedy pass.  A blocking
    flow lengthens the shortest residual path from s to t and a greedy
    pass never shortens it, so there are at most n - 1 phases, as in
    plain Dinic, and one greedy pass more.  Arc e runs to to[e] and its
    reverse is e ^ 1."""
    while True:
        _greedy_flow(adj, to, cap, s, t)
        if not _blocking_flow(adj, to, cap, s, t):
            return


def _blocking_flow(adj: list, to: list, cap: list, s: int, t: int) -> bool:
    """One Dinic phase, in place on cap: a blocking flow on the arcs from
    each breadth-first level of s to the next; False, with cap unchanged,
    when t is out of reach.  The depth-first search keeps its path on an
    explicit stack, so no recursion depth limit applies."""
    n = len(adj)
    level = [-1] * n
    level[s] = 0
    queue = [s]
    for v in queue:
        if v == t:
            break
        lv = level[v] + 1
        for e in adj[v]:
            w = to[e]
            if cap[e] and level[w] < 0:
                level[w] = lv
                queue.append(w)
    if level[t] < 0:
        return False
    ptr = [0] * n
    path: list[int] = []
    v = s
    while True:
        if v == t:
            f = min(cap[e] for e in path)
            cut_at = None
            for k, e in enumerate(path):
                cap[e] -= f
                cap[e ^ 1] += f
                if cut_at is None and not cap[e]:
                    cut_at = k
            del path[cut_at:]
            v = to[path[-1]] if path else s
            continue
        arcs = adj[v]
        i = ptr[v]
        nxt = level[v] + 1
        while i < len(arcs):
            e = arcs[i]
            if cap[e] and level[to[e]] == nxt:
                break
            i += 1
        ptr[v] = i
        if i < len(arcs):
            path.append(arcs[i])
            v = to[arcs[i]]
        elif v == s:
            return True
        else:
            level[v] = -1
            e = path.pop()
            v = to[e ^ 1]
            ptr[v] += 1


def _residual_reach(adj: list, to: list, cap: list, root: int, mark: list,
                    backward: bool = False) -> list:
    """Mark root and every unmarked vertex it reaches along arcs with
    residual capacity (that reach it, when backward); return them, root
    first."""
    mark[root] = True
    found = [root]
    for v in found:
        for e in adj[v]:
            w = to[e]
            if not mark[w] and cap[e ^ 1 if backward else e]:
                mark[w] = True
                found.append(w)
    return found


def min_ratio_cut(n: int, edges, pool) -> RatioCut:
    """Exact min over nonempty A within pool of cut(A)/|A|, where cut(A)
    is the total weight of edges with exactly one end in A and vertices
    outside pool act as one sink.

    Vertices are the indices 0..n-1; edges are (i, j, w) triples with
    w > 0, parallel edges add and self-loops are ignored.  Every float is
    a dyadic rational, so scaling the weights by their common power-of-two
    denominator makes them integers and the whole computation exact.

    Dinkelbach iteration (Management Science 1967) from lambda =
    cut(pool)/|pool|: for lambda = p/q an s-t max flow with an arc s -> v
    of capacity p for every v in pool, each edge at q times its weight and
    every non-pool vertex merged into t finds min over A of
    q*cut(A) - p*|A|.  A negative minimum gives a set of smaller ratio,
    read off the source side, and the next lambda; a zero minimum
    certifies lambda (Gallo, Grigoriadis and Tarjan, SIAM J. Comput. 1989).
    The optimal sets are then exactly the nonempty sets closed under the
    residual arcs of the last flow that avoid t (Picard and Queyranne,
    Math. Programming Study 1980).  Among them the lexicographically
    smallest sorted tuple is built greedily: the closure of the first
    vertex whose closure avoids t, then the closure of each later such
    vertex below the current maximum.  Arcs 2e and 2e + 1 run a -> b and
    back for the e-th edge a < b kept, then s -> a and back per pool vertex.
    """
    pool = sorted(set(pool))
    if not pool:
        raise DomainError("ratio cut needs a nonempty pool")
    k = len(pool)
    s, t = k, k + 1
    local = [t] * n
    for a, i in enumerate(pool):
        local[i] = a
    edges = list(edges)
    scale = max((w.as_integer_ratio()[1] for _, _, w in edges), default=1)
    adj: list[list[int]] = [[] for _ in range(k + 2)]
    to: list[int] = []
    base: list[int] = []  # integer weight of each arc, 0 if it leaves t or s
    for i, j, w in edges:
        a, b = local[i], local[j]
        if a != b:
            a, b = (a, b) if a < b else (b, a)
            num, den = w.as_integer_ratio()
            weight = num * (scale // den)
            adj[a].append(len(to))
            adj[b].append(len(to) + 1)
            to += (b, a)
            base += (weight, 0 if b == t else weight)
    first_source = len(to)
    for a in range(k):
        adj[s].append(len(to))
        adj[a].append(len(to) + 1)
        to += (a, s)
    base += [0] * (2 * k)

    ratio = Fraction(sum(base[e ^ 1] for e in adj[t]), k)
    solves = 0
    while True:
        p, q = ratio.numerator, ratio.denominator
        cap = [q * w for w in base]
        cap[first_source::2] = [p] * k
        _max_flow(adj, to, cap, s, t)
        solves += 1
        # Source side of the min cut: the pool vertices s still reaches.
        seen = [False] * (k + 2)
        side = _residual_reach(adj, to, cap, s, seen)[1:]
        if not side:
            break
        cut = sum(base[e] for a in side for e in adj[a] if not seen[to[e]])
        ratio = Fraction(cut, len(side))
    # Pool vertices with a residual path to t lie in no optimal set.
    doomed = [False] * (k + 2)
    _residual_reach(adj, to, cap, t, doomed, backward=True)
    members = [False] * (k + 2)
    members[s] = True
    top = -1
    for a in range(k):
        if 0 <= top < a:
            break
        if not (members[a] or doomed[a]):
            top = max(top, *_residual_reach(adj, to, cap, a, members))
    witness = tuple(pool[a] for a in range(k) if members[a])
    return RatioCut(ratio=Fraction(ratio.numerator, ratio.denominator * scale),
                    members=witness, solves=solves)


def cheeger(
    graph: Graph,
    mode: str = "finite_half",
    interior=None,
    work_limit: int = 1 << 20,
) -> CheegerReport:
    """Edge Cheeger constant: min over vertex sets A of cut(A)/|A|.

    finite_half ranges A over all subsets with |A| <= n/2; the size cap
    makes this problem NP-hard in general.  Enumeration is exhaustive
    while 2^n stays within work_limit, with examined counting the sets
    evaluated.  Beyond that the value is an upper bound flagged
    exact=False: :func:`min_ratio_cut` runs once with the first n//2
    vertices of the Fiedler order as its pool and once with the last n//2,
    and the smaller result is reported, with examined counting the min-cut
    solves.  Every set a pool allows has at most n/2 vertices, and every
    prefix of a Fiedler sweep of at most n/2 vertices lies in one pool, so
    the bound is never above the best such prefix.

    ambient ranges A over subsets of a marked interior, given as vertex
    indices, while the cut is still measured in the whole graph; no size
    cap, matching the exhaustion of a space with designated outer edge.
    It is solved
    exactly at every size by :func:`min_ratio_cut` (Dinkelbach iteration
    over s-t min cuts), with examined counting the min-cut solves; it
    ignores work_limit.

    The witness is the lexicographically smallest sorted index tuple among
    the optimal sets (among the two pools' optimal sets, for the bound).
    """
    n = graph.n
    if n < 2:
        raise DomainError("cheeger needs at least two vertices")
    if not graph.is_connected():
        raise DomainError("cheeger of a disconnected graph")
    order = graph.vertices()
    edges = list(graph.edges())
    if mode == "ambient":
        if interior is None:
            raise DomainError("ambient mode needs an interior vertex set")
        pool = set(interior)
        if not pool:
            raise DomainError("ambient interior is empty")
        if len(pool) == n:
            raise DomainError("ambient interior must exclude some vertex")
        cuts = [min_ratio_cut(n, edges, pool)]
    elif mode != "finite_half":
        raise DomainError(f"unknown cheeger mode {mode!r}")
    else:
        adj = np.zeros((n, n))
        for i, j, w in edges:
            adj[i, j] = adj[j, i] = w
        if (1 << n) <= work_limit:
            return _enumerated_cheeger(adj, order)
        forward = _fiedler_order(adj)
        half = n // 2
        cuts = [min_ratio_cut(n, edges, pool)
                for pool in (forward[:half], forward[n - half:])]
    best = min(cuts, key=lambda rc: (rc.ratio, rc.members))
    return CheegerReport(
        value=float(best.ratio),
        witness=tuple(order[i] for i in best.members),
        exact=mode == "ambient",
        mode=mode,
        examined=sum(rc.solves for rc in cuts),
    )


def _enumerated_cheeger(adj: np.ndarray, order: list) -> CheegerReport:
    """Exact finite_half Cheeger constant by enumerating every subset of at
    most n//2 vertices.  Subsets are bitmasks over the vertex indices,
    evaluated in numpy chunks of 2^14 masks; the cut is the weight of the
    edges leaving the set."""
    n = len(order)
    best = math.inf
    best_tuple: tuple | None = None
    examined = 0
    degrees = adj.sum(axis=1)
    chunk = 1 << 14
    for lo in range(1, 1 << n, chunk):
        masks = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
        sizes = bits.sum(axis=1)
        cut = bits @ degrees - ((bits @ adj) * bits).sum(axis=1)
        ok = sizes <= n // 2
        examined += int(ok.sum())
        vals = np.where(ok, cut / np.maximum(sizes, 1.0), np.inf)
        v = float(vals.min())
        if not math.isfinite(v) or v > best:
            continue
        for mask in masks[vals == v].tolist():
            t = tuple(i for i in range(n) if mask >> i & 1)
            if v < best or best_tuple is None or t < best_tuple:
                best = v
                best_tuple = t
    assert best_tuple is not None
    return CheegerReport(
        value=best,
        witness=tuple(order[i] for i in best_tuple),
        exact=True,
        mode="finite_half",
        examined=examined,
    )


# ---------------------------------------------------------------------------
# Visual boundary proxy


class ProxyReport(NamedTuple):
    base: object
    radius: int
    points: tuple
    products: np.ndarray
    dists: np.ndarray
    a: float

    def to_dict(self) -> dict:
        return {
            "base": str(self.base),
            "radius": self.radius,
            "points": [str(p) for p in self.points],
            "a": self.a,
            "diameter": float(self.dists.max()) if len(self.points) else 0.0,
        }


def boundary_proxy(graph: Graph, dmat: np.ndarray, keep=None) -> ProxyReport:
    """Sphere-at-infinity proxy: the kept vertices (the indices in keep,
    every vertex if None) at graph distance exactly `radius` from a base,
    in the visual metric a^-(x|y) with a = 2 and Gromov products taken at
    the base.

    The base is the first vertex of least eccentricity; the radius is
    max(2, ecc(base) - 2), two steps inside the horizon so the sphere is
    populated all around, walked inward while that sphere holds fewer than
    three kept vertices, but never below 1.  Every distance is read from
    dmat, the graph's hop-count distance matrix.
    """
    if graph.n == 0:
        raise DomainError("boundary proxy of an empty graph")
    a = 2.0
    order = graph.vertices()
    b = int(dmat.max(axis=1).argmin())
    base = order[b]
    dist = dmat[b]
    kept = np.zeros(graph.n, dtype=bool)
    kept[list(range(graph.n) if keep is None else keep)] = True

    def sphere(r: int) -> list[int]:
        return np.flatnonzero((dist == r) & kept).tolist()

    # Kept vertices may occupy alternate layers, so walk inward to the first
    # sphere with enough of them.
    radius = max(2, int(dist.max()) - 2)
    while radius > 1 and len(sphere(radius)) < 3:
        radius -= 1
    idx = sphere(radius)
    if not idx:
        raise DomainError(f"no proxy points at radius {radius} from {base!r}")
    points = [order[i] for i in idx]
    # Both endpoints sit at distance `radius`, so (x|y) = radius - d(x,y)/2.
    products = radius - dmat[np.ix_(idx, idx)] / 2.0
    dists = np.power(a, -products)
    np.fill_diagonal(dists, 0.0)
    return ProxyReport(
        base=base,
        radius=radius,
        points=tuple(points),
        products=products,
        dists=dists,
        a=a,
    )


def ultrametric_defect(dists: np.ndarray) -> float:
    """Smallest K >= 1 with d(x,z) <= K * max(d(x,y), d(y,z)) for all
    triples with x != z, skipping the y where both are 0.  For a visual
    metric of a delta-hyperbolic space this is at most a^delta.

    For a pair (x, z) the least such K is d(x,z) over the least positive
    max(d(x,y), d(y,z)), since a float division never grows when its
    divisor grows; so each pair divides once and the bits are those of a
    division for every y.  The least max over y is selected on the ranks
    of the distances among their distinct values, in the smallest
    unsigned integer type that holds them, about 2^18 triples at a time.
    Rank 0 is the distance 0 when one occurs, so a pair whose least max
    is 0 looks for its least positive one on its own.
    """
    n = dists.shape[0]
    if n < 3:
        return 1.0
    values, ranks = np.unique(dists, return_inverse=True)
    ranks = ranks.reshape(n, n).astype(np.min_scalar_type(len(values)))
    least = np.empty((n, n), dtype=ranks.dtype)
    step = max(1, (1 << 18) // (n * n))
    for x in range(0, n, step):
        least[x:x + step] = np.maximum(ranks[x:x + step, :, None], ranks).min(axis=1)
    off = ~np.eye(n, dtype=bool)
    if values[0] == 0.0:
        for x, z in np.argwhere((least == 0) & off):
            m = np.maximum(ranks[x], ranks[:, z])
            m = m[m > 0]
            if m.size:
                least[x, z] = m.min()
            else:
                off[x, z] = False
    return float(np.max(dists[off] / values[least[off]], initial=1.0))


# ---------------------------------------------------------------------------
# Uniform perfectness and poles

UP_PASS_S = 8.0  # uniform_perfectness passes at S <= UP_PASS_S
POLE_MAX_MARGIN = 12  # has_pole holds when no vertex is farther from the geodesics


class UPReport(NamedTuple):
    passed: bool
    s_value: float | None
    gap: tuple[float, float] | None
    reason: str
    n_points: int
    floor: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "s_value": self.s_value,
            "gap": None if self.gap is None else list(self.gap),
            "reason": self.reason,
            "n_points": self.n_points,
            "floor": self.floor,
        }


def uniform_perfectness(dists: np.ndarray, a: float, radius: int) -> UPReport:
    """The least S at which a finite metric sample, taken in the visual
    metric of base `a` on the sphere of `radius`, is S-uniformly perfect
    at every scale from the proxy resolution floor a^-(radius-1) up to its
    diameter.

    A point x fails at scale eps if something lies beyond eps but the
    annulus (eps/S, eps] around x is empty.  With x's row sorted,
    0 = r_0 <= r_1 <= ..., x fails exactly at the eps in [S r_j, r_{j+1})
    of each gap r_j < r_{j+1}.  So no point fails in the window iff
    S >= r_{j+1}/r_j for every gap with r_{j+1} > floor: S is the largest
    such ratio, and none passes (s_value null) when such a gap starts at 0,
    a point with nothing else within the floor.  S is the quotient rounded
    up to the next float when it rounds below the ratio, so the S reported
    always passes.  `gap` is the first gap of largest ratio in row-major
    order, and the test passes at S <= UP_PASS_S.
    """
    n = dists.shape[0]
    floor = a ** -(radius - 1)
    dmax = float(dists.max(initial=0.0))
    if dmax <= floor:
        return UPReport(passed=False, s_value=None, gap=None, n_points=n, floor=floor,
                        reason=f"degenerate proxy: no scale between the floor {floor!r} "
                               f"and the diameter {dmax!r}")
    r = np.sort(dists, axis=1)
    lo, hi = r[:, :-1], r[:, 1:]
    with np.errstate(divide="ignore"):
        ratio = np.divide(hi, lo, out=np.zeros_like(hi), where=hi > floor)
    k = int(ratio.argmax())
    s = float(ratio.flat[k])
    if s == math.inf:
        return UPReport(passed=False, s_value=None, gap=(0.0, float(hi.flat[k])), n_points=n,
                        floor=floor, reason="a point has nothing else within the floor")
    # Every gap whose quotient rounds to s may hold the largest ratio.
    tied = ratio == s
    gap = max(dict.fromkeys(zip(lo[tied].tolist(), hi[tied].tolist())),
              key=lambda g: Fraction(g[1]) / Fraction(g[0]))
    if Fraction(s) * Fraction(gap[0]) < Fraction(gap[1]):
        s = math.nextafter(s, math.inf)
    passed = s <= UP_PASS_S
    return UPReport(passed=passed, s_value=s, gap=gap, n_points=n, floor=floor,
                    reason="" if passed else f"S = {s!r} exceeds {UP_PASS_S!r}")


class PoleReport(NamedTuple):
    has_pole: bool
    needed: int
    base: object
    peripheral_count: int

    def to_dict(self) -> dict:
        return {
            "has_pole": self.has_pole,
            "needed": self.needed,
            "base": str(self.base),
            "peripheral_count": self.peripheral_count,
        }


def geodesic_union_set(graph: Graph, base: int, peripheral, dmat: np.ndarray) -> set[int]:
    """Indices of the vertices lying on some shortest path from vertex base
    to some peripheral vertex (indices too): x qualifies iff
    d(base,x) + d(x,u) = d(base,u).  Distances are read from dmat, the
    graph's hop-count distance matrix."""
    on = np.zeros(graph.n, dtype=bool)
    for u in peripheral:
        on |= dmat[base] + dmat[u] == dmat[base, u]
    return set(np.flatnonzero(on).tolist())


def has_pole(graph: Graph, base: int, peripheral, dmat: np.ndarray) -> PoleReport:
    """Whether every vertex is within POLE_MAX_MARGIN of the union of
    geodesics from vertex base to the peripheral vertices (all given by
    index).  `needed` is the exact least such margin: the largest over the
    rows of the hop-count distance matrix dmat of the row's least entry
    over the union's columns.  The report names the base by its label."""
    if not peripheral:
        raise DomainError("pole test needs a nonempty peripheral set")
    cols = sorted(geodesic_union_set(graph, base, peripheral, dmat))
    needed = int(dmat[:, cols].min(axis=1).max())
    return PoleReport(needed <= POLE_MAX_MARGIN, needed, graph._labels[base], len(peripheral))
