"""Graph metric machinery against small brute-force oracles."""

import contextlib
import itertools
import json
import math
import random
import tracemalloc
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    bundled_families,
    cycle_graph,
    label_adjacency,
    oracle_bfs,
    oracle_blocks,
    oracle_dijkstra,
    oracle_ultrametric_defect,
    random_connected_graph,
    random_tree,
    same_layout,
)
from cheegernet import cli, families, graphtools, netgraph
from cheegernet.graphtools import (
    Graph,
    PoleReport,
    UPReport,
    _far_apart_scan,
    _max_flow,
    _near,
    biconnected_components,
    boundary_proxy,
    cheeger,
    geodesic_union_set,
    has_pole,
    hyperbolicity_delta,
    min_ratio_cut,
    ultrametric_defect,
    uniform_perfectness,
)
from cheegernet.hypmath import ARCSINH_ONE, DomainError, delta1
from cheegernet.netgraph import NetBuildParams, build_net, build_quotient_mesh
from cheegernet.surface import load_spec


def path_graph(n: int) -> Graph:
    g = Graph()
    g.add_vertex(0)
    for v in range(1, n):
        g.add_edge(v - 1, v)
    return g


class TestGraph:
    def test_basic(self):
        g = Graph()
        g.add_edge("a", "b", 2.0)
        g.add_edge("b", "c")
        assert g.n == 3
        assert g.vertices() == ["a", "b", "c"]
        assert g.degree(1) == 2 and g.neighbors(1) == [0, 2]
        assert g.weight(0, 1) == 2.0 and g.has_edge(1, 0) and not g.has_edge(0, 2)
        assert list(g.edges()) == [(0, 1, 2.0), (1, 2, 1.0)]
        order = g.vertices()
        assert [(order[i], order[j], w) for i, j, w in g.edges()] == [
            ("a", "b", 2.0), ("b", "c", 1.0)]

    def test_no_self_loops(self):
        g = Graph()
        with pytest.raises(DomainError):
            g.add_edge("a", "a")

    def test_bad_weight(self):
        g = Graph()
        with pytest.raises(DomainError):
            g.add_edge("a", "b", 0.0)
        with pytest.raises(DomainError):
            g.add_edge("a", "b", math.inf)

    def test_bfs_vs_dijkstra_unit_weights(self):
        rng = random.Random(1)
        for _ in range(10):
            g = random_connected_graph(rng, 20, 10)
            src = rng.randrange(20)
            bd = g.bfs_distances(src)
            dd = g.dijkstra(src)
            assert [float(v) for v in bd] == dd

    def test_distance_matrix(self):
        g = path_graph(5)
        D = g.distance_matrix()
        assert D[0, 4] == 4
        assert (D == D.T).all()
        assert (np.diag(D) == 0).all()

    @pytest.mark.parametrize("k", range(6))
    def test_add_ring_matches_edges_one_by_one(self, k):
        """The rows written at once: the same labels, edges, weights and
        neighbour order as joining each vertex to the next by add_edge."""
        got, want = Graph(), Graph()
        for g in (got, want):
            g.add_edge("hub", "other", 2.0)
        assert got.add_ring([("r", j) for j in range(k)], 0.5) == range(2, 2 + k)
        for j in range(k):
            want.add_vertex(("r", j))
        for j in range(k if k > 2 else k - 1):
            want.add_edge(("r", j), ("r", (j + 1) % k), 0.5)
        assert same_layout(got, want)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_full_matrix_peaks_at_two_copies(self, weighted):
        """The whole-row matrix W is dropped after the row gather, so the
        column gather does not hold a third n x n copy."""
        g = net_graph(families.pants_tree(5))
        tracemalloc.start()
        try:
            D = g.distance_matrix(weighted=weighted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert D.shape == (604, 604)
        assert peak < 2.5 * D.nbytes

    def test_disconnected_raises(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(2)
        assert not g.is_connected()
        with pytest.raises(DomainError):
            g.distance_matrix()
        # Two components of several blocks each, hop counts and weighted.
        rng = random.Random(3)
        g, _ = glued_blocks(rng, 4)
        h, _ = glued_blocks(rng, 3)
        for u, v, w in h.edges():
            g.add_edge(("h", u), ("h", v), w)
        for weighted in (False, True):
            with pytest.raises(DomainError, match="distance matrix of a disconnected graph"):
                g.distance_matrix(weighted=weighted)


class TestSearchOracle:
    """The list searches on vertex indices against the dict searches over
    labels they replaced, bit for bit, unreachable vertices included."""

    @staticmethod
    def check(g: Graph, sources):
        adj = label_adjacency(g)
        order = g.vertices()
        for s in sources:
            hops = oracle_bfs(adj, order[s])
            assert g.bfs_distances(s) == [hops.get(v, -1) for v in order]
            dist = oracle_dijkstra(adj, order[s])
            want = [dist.get(v, math.inf) for v in order]
            assert np.array(g.dijkstra(s)).tobytes() == np.array(want).tobytes()

    def test_random_weighted_graphs(self):
        """Weights spread over six orders of magnitude, so the sums round,
        with shuffled labels and several components."""
        rng = random.Random(1959)
        for _ in range(120):
            shape = scattered_graph(rng)
            g = Graph()
            for v in shape.vertices():
                g.add_vertex(f"v{v}")
            order = shape.vertices()
            for i, j, _ in shape.edges():
                g.add_edge(f"v{order[i]}", f"v{order[j]}", 10.0 ** rng.uniform(-3, 3))
            self.check(g, rng.sample(range(g.n), min(g.n, 4)))

    def test_many_sources_are_the_least_of_one_source_searches(self):
        """dijkstra(*sources) against the elementwise minimum of the
        one-source searches, bit for bit, on graphs drawn as above: sources
        with repeats in any order, in every component or only some."""
        rng = random.Random(1959)
        for _ in range(120):
            shape = scattered_graph(rng)
            g = Graph()
            for v in shape.vertices():
                g.add_vertex(f"v{v}")
            order = shape.vertices()
            for i, j, _ in shape.edges():
                g.add_edge(f"v{order[i]}", f"v{order[j]}", 10.0 ** rng.uniform(-3, 3))
            sources = [rng.randrange(g.n) for _ in range(rng.randint(1, 6))]
            want = np.min([g.dijkstra(s) for s in sources], axis=0)
            assert np.array(g.dijkstra(*sources)).tobytes() == want.tobytes()
        assert g.dijkstra() == [math.inf] * g.n

    @pytest.mark.parametrize("name", ["flute8", "gen12", "loop", "closed"])
    def test_golden_nets_and_meshes(self, name):
        golden = Path(__file__).resolve().parent / "golden"
        path = families.bundled_path("flute8.json") if name == "flute8" else golden / f"{name}.json"
        for g in cli_net_and_mesh(load_spec(path)):
            self.check(g, range(0, g.n, 7))


def per_source_matrix(g: Graph, weighted: bool = False) -> np.ndarray:
    """Oracle: one whole-graph BFS or Dijkstra per source vertex, each
    result read by index."""
    search = g.dijkstra if weighted else g.bfs_distances
    return np.array([search(i) for i in range(g.n)],
                    dtype=np.float64 if weighted else np.int32).reshape(g.n, g.n)


def glued_blocks(rng: random.Random, count: int, weighted: bool = False):
    """Graph glued from `count` random blocks (bridges, cycles, complete
    graphs), each attached at one vertex of the graph built so far.  Vertex
    labels are inserted in shuffled order, so the first vertex is anywhere
    in the block-cut tree.  Returns the graph and the blocks' label sets."""
    edges, blocks, size = [], [], 1
    for _ in range(count):
        kind = rng.choice(["bridge", "cycle", "complete"])
        k = {"bridge": 2, "cycle": rng.randint(3, 7), "complete": rng.randint(3, 5)}[kind]
        members = [rng.randrange(size)] + list(range(size, size + k - 1))
        size += k - 1
        if kind == "complete":
            pairs = list(itertools.combinations(members, 2))
        else:
            pairs = list(zip(members, members[1:] + members[:1]))[: k - (kind == "bridge")]
        edges += pairs
        blocks.append(frozenset(members))
    labels = list(range(size))
    rng.shuffle(labels)
    g = Graph()
    for v in labels:
        g.add_vertex(f"v{v}")
    for u, v in edges:
        g.add_edge(f"v{u}", f"v{v}", rng.uniform(0.1, 3.0) if weighted else 1.0)
    return g, {frozenset(f"v{v}" for v in b) for b in blocks}


def random_rows(rng: random.Random, n: int) -> list[int]:
    """Row indices for distance_matrix(rows=...): either a sorted sample of
    distinct vertices or draws with repeats in any order."""
    if rng.random() < 0.5:
        return sorted(rng.sample(range(n), rng.randint(1, n)))
    return [rng.randrange(n) for _ in range(rng.randint(1, 2 * n))]


def cli_net_and_mesh(spec):
    eps = ARCSINH_ONE / 2.0
    params = NetBuildParams(eps=eps, delta=0.9 * delta1(eps))
    return build_net(spec, params).graph, build_quotient_mesh(spec, params)[0]


class TestBlockComposedMatrix:
    """distance_matrix composed over the block-cut tree against per-source
    searches on the whole graph, and its selected rows against the rows of
    the full matrix, byte for byte."""

    def test_glued_blocks_match_bfs(self):
        rng = random.Random(1973)
        for _ in range(150):
            g, _ = glued_blocks(rng, rng.randint(1, 12))
            assert np.array_equal(g.distance_matrix(), per_source_matrix(g))

    def test_one_block_graphs(self):
        graphs = [cycle_graph(n) for n in range(3, 12)]
        for n in range(3, 9):
            g = Graph()
            for u, v in itertools.combinations(range(n), 2):
                g.add_edge(u, v)
            graphs.append(g)
        for g in graphs:
            assert biconnected_components(g) == [list(range(g.n))]
            assert np.array_equal(g.distance_matrix(), per_source_matrix(g))

    def test_tiny_graphs(self):
        single = Graph()
        single.add_vertex("a")
        assert single.distance_matrix().tolist() == [[0]]
        assert single.distance_matrix(weighted=True).tolist() == [[0.0]]
        assert single.distance_matrix(rows=[0, 0]).tolist() == [[0], [0]]
        edge = Graph()
        edge.add_edge("a", "b", 2.5)
        assert edge.distance_matrix().tolist() == [[0, 1], [1, 0]]
        assert edge.distance_matrix(weighted=True).tolist() == [[0.0, 2.5], [2.5, 0.0]]
        for g in (path_graph(3), cycle_graph(3)):
            assert np.array_equal(g.distance_matrix(), per_source_matrix(g))

    def test_blocks_partition_the_edges(self):
        rng = random.Random(1015)
        for _ in range(100):
            g, expected = glued_blocks(rng, rng.randint(1, 12))
            order = g.vertices()
            blocks = [frozenset(order[i] for i in b) for b in biconnected_components(g)]
            assert set(blocks) == expected and len(blocks) == len(expected)
            for i, j, _ in g.edges():
                u, v = order[i], order[j]
                assert sum(u in b and v in b for b in blocks) == 1
            for b1, b2 in itertools.combinations(blocks, 2):
                assert len(b1 & b2) <= 1

    def test_each_block_is_walked_once(self, monkeypatch):
        """One placement per block, whatever its size: a wheel is one
        block, and a loop that rebuilds each block's list of unplaced
        vertices at every vertex it pops walks the wheel once per vertex."""
        walks = []

        class Block(list):
            def __iter__(self):
                walks[-1][id(self)] = walks[-1].get(id(self), 0) + 1
                return super().__iter__()

        original = graphtools._block_graphs
        monkeypatch.setattr(graphtools, "_block_graphs",
                            lambda g: [(Block(block), sub) for block, sub in original(g)])
        for spokes in (50, 400):
            wheel = Graph()
            for k in range(1, spokes + 1):
                wheel.add_edge(0, k)
                wheel.add_edge(k, k % spokes + 1, 0.5)
            glued, _ = glued_blocks(random.Random(spokes), 12)
            for g in (wheel, glued):
                for weighted in (False, True):
                    walks.append({})
                    assert np.array_equal(g.distance_matrix(weighted=weighted),
                                          per_source_matrix(g, weighted))
                    assert set(walks[-1].values()) == {1}

    def test_long_path_needs_no_recursion(self):
        g = path_graph(3000)
        assert len(biconnected_components(g)) == 2999
        D = g.distance_matrix()
        assert D[0, 2999] == 2999 and D[2999, 1500] == 1499

    def test_random_weights_within_rounding(self):
        rng = random.Random(2015)
        for _ in range(100):
            g, _ = glued_blocks(rng, rng.randint(1, 12), weighted=True)
            D, oracle = g.distance_matrix(weighted=True), per_source_matrix(g, True)
            np.testing.assert_allclose(D, oracle, rtol=1e-12, atol=0.0)

    def test_rows_are_rows_of_the_full_matrix(self):
        rng = random.Random(1806)
        for trial in range(200):
            weighted = trial % 2 == 1
            g, _ = glued_blocks(rng, rng.randint(1, 12), weighted=weighted)
            full = g.distance_matrix(weighted=weighted)
            for rows in (random_rows(rng, g.n), []):
                got = g.distance_matrix(weighted=weighted, rows=rows)
                assert got.dtype == full.dtype and got.shape == (len(rows), g.n)
                assert got.tobytes() == full[rows].tobytes()

    @staticmethod
    def check_rows_and_columns(g: Graph, weighted: bool, rows, cols):
        full = g.distance_matrix(weighted=weighted)
        got = g.distance_matrix(weighted=weighted, rows=rows, cols=cols)
        assert got.dtype == full.dtype
        assert got.shape == (len(rows), len(cols))
        assert got.tobytes() == full[np.ix_(rows, cols)].tobytes()

    def test_rows_and_columns_are_entries_of_the_full_matrix(self):
        """Any rows and columns, repeats and cut vertices among them, with
        and without the first vertex, against the full matrix byte for
        byte."""
        rng = random.Random(1985)
        for trial in range(300):
            weighted = trial % 2 == 1
            g, _ = glued_blocks(rng, rng.randint(1, 12), weighted=weighted)
            cuts = [i for i in range(g.n)
                    if sum(i in b for b in biconnected_components(g)) > 1]
            rows = random_rows(rng, g.n) + rng.sample(cuts, rng.randint(0, len(cuts)))
            if trial % 3:
                rows.append(0)
            else:
                rows = [i for i in rows if i != 0] or [g.n - 1]
            rng.shuffle(rows)
            cols = random_rows(rng, g.n) + rng.sample(cuts, rng.randint(0, len(cuts)))
            for c in (cols, [], cols[:1]):
                self.check_rows_and_columns(g, weighted, rows, c)

    def test_rows_and_columns_of_tiny_graphs(self):
        single = Graph()
        single.add_vertex("a")
        edge = Graph()
        edge.add_edge("a", "b", 2.5)
        for weighted in (False, True):
            self.check_rows_and_columns(single, weighted, [0, 0], [0])
            self.check_rows_and_columns(single, weighted, [0], [])
            for rows in ([0], [1], [1, 0, 1]):
                for cols in ([], [1], [1, 1, 0]):
                    self.check_rows_and_columns(edge, weighted, rows, cols)

    @pytest.mark.parametrize("name", ["flute8", "gen12", "loop", "pants_tree3"])
    def test_nets_and_meshes_bit_for_bit(self, name):
        golden = Path(__file__).resolve().parent / "golden"
        spec = {
            "flute8": lambda: load_spec(families.bundled_path("flute8.json")),
            "gen12": lambda: load_spec(golden / "gen12.json"),
            "loop": lambda: load_spec(golden / "loop.json"),
            "pants_tree3": lambda: families.pants_tree(3),
        }[name]()
        net, mesh = cli_net_and_mesh(spec)
        rng = random.Random(name)
        for g, weighted in ((net, False), (mesh, True)):
            full = g.distance_matrix(weighted=weighted)
            assert np.array_equal(full, per_source_matrix(g, weighted))
            for _ in range(3):
                rows = random_rows(rng, g.n)
                got = g.distance_matrix(weighted=weighted, rows=rows)
                assert got.tobytes() == full[rows].tobytes()


def scattered_graph(rng: random.Random) -> Graph:
    """Several components (random connected graphs, trees and single
    edges) and isolated vertices, with the labels inserted in shuffled
    order and the edges added in shuffled order."""
    parts, size = [], 0
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(1, 9)
        kind = rng.choice(["connected", "tree", "edge"])
        if kind == "connected" and k >= 2:
            part = random_connected_graph(rng, k, rng.randint(0, 2 * k))
        elif kind == "tree":
            part = random_tree(rng, k)
        else:
            part = path_graph(min(k, 2))
        parts += [(u + size, v + size) for u, v, _ in part.edges()]
        size += part.n
    isolated = list(range(size, size + rng.randint(0, 3)))
    labels = list(range(size)) + isolated
    rng.shuffle(labels)
    rng.shuffle(parts)
    g = Graph()
    for v in labels:
        g.add_vertex(v)
    for u, v in parts:
        if rng.random() < 0.5:
            u, v = v, u
        g.add_edge(u, v)
    return g


class TestBlocksOracle:
    """biconnected_components with its vertex stack against the edge-stack
    search, block lists compared in order."""

    def test_random_graphs(self):
        rng = random.Random(1973)
        graphs = [scattered_graph(rng) for _ in range(300)]
        assert sum(not g.is_connected() for g in graphs) >= 100
        assert sum(any(g.degree(v) == 0 for v in g.vertices()) for g in graphs) >= 100
        assert sum(any(len(b) == 2 for b in oracle_blocks(g)) for g in graphs) >= 200
        for g in graphs:
            assert biconnected_components(g) == oracle_blocks(g)

    @pytest.mark.parametrize("name", ["flute8", "gen12", "loop", "closed"])
    def test_golden_nets_and_meshes(self, name):
        golden = Path(__file__).resolve().parent / "golden"
        path = families.bundled_path("flute8.json") if name == "flute8" else golden / f"{name}.json"
        net, mesh = cli_net_and_mesh(load_spec(path))
        for g in (net, mesh):
            assert biconnected_components(g) == oracle_blocks(g)


def brute_cheeger_finite_half(g: Graph):
    order = g.vertices()
    n = g.n
    best = math.inf
    best_set = None
    for r in range(1, n // 2 + 1):
        for combo in itertools.combinations(range(n), r):
            inside = set(combo)
            cut = 0.0
            for i in combo:
                v = order[i]
                for u in g.neighbors(v):
                    if g.index_of(u) not in inside:
                        cut += g.weight(v, u)
            val = cut / r
            if val < best or (val == best and combo < best_set):
                best = val
                best_set = combo
    return best, best_set


def brute_cheeger_ambient(g: Graph, interior):
    order = g.vertices()
    pool = sorted(g.index_of(v) for v in interior)
    best = math.inf
    best_set = None
    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            inside = set(combo)
            cut = 0.0
            for i in combo:
                v = order[i]
                for u in g.neighbors(v):
                    if g.index_of(u) not in inside:
                        cut += g.weight(v, u)
            val = cut / r
            if val < best or (val == best and combo < best_set):
                best = val
                best_set = combo
    return best, best_set


class TestCheeger:
    def test_finite_half_matches_brute(self):
        # 15 and 16 vertices take 2 and 4 of the enumeration's chunks of
        # 2^14 masks, so the scan and its running minimum cross chunks.
        rng = random.Random(23)
        for n in [rng.randint(4, 10) for _ in range(40)] + [15, 16]:
            g = random_connected_graph(rng, n, rng.randint(0, n))
            rep = cheeger(g, mode="finite_half")
            want, want_set = brute_cheeger_finite_half(g)
            assert rep.exact
            assert rep.examined == sum(math.comb(n, r) for r in range(1, n // 2 + 1))
            assert rep.value == want
            assert tuple(g.index_of(v) for v in rep.witness) == want_set

    def test_ambient_matches_brute(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(4, 10)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            order = g.vertices()
            k = rng.randint(1, n - 1)
            interior = order[:k]
            rep = cheeger(g, mode="ambient", interior=interior)
            want, want_set = brute_cheeger_ambient(g, interior)
            assert rep.exact
            assert rep.value == want
            assert tuple(g.index_of(v) for v in rep.witness) == want_set

    def test_path_value(self):
        rep = cheeger(path_graph(10), mode="finite_half")
        assert rep.value == pytest.approx(1.0 / 5.0)

    def test_heuristic_upper_bound(self):
        rng = random.Random(7)
        g = random_connected_graph(rng, 24, 18)
        # The exact constant of this graph, from
        # cheeger(g, mode="finite_half", work_limit=1 << 30), which enumerates
        # all 9,740,685 subsets of at most 12 of the 24 vertices (witness
        # indices 0, 1, 2, 7, 9, 12, 16, 17, 18, 19, 21, 22).
        exact_value = 0.75
        bound = cheeger(g, mode="finite_half", work_limit=1 << 10)
        assert not bound.exact
        assert bound.value >= exact_value - 1e-12

    def test_mode_validation(self):
        g = path_graph(4)
        with pytest.raises(DomainError):
            cheeger(g, mode="bogus")
        with pytest.raises(DomainError):
            cheeger(g, mode="ambient")
        with pytest.raises(DomainError):
            cheeger(g, mode="ambient", interior=g.vertices())



DYADIC_WEIGHTS = (0.5, 1.0, 1.25, 3.0)


def weighted_graph(rng: random.Random, n: int, extra: int) -> Graph:
    shape = random_connected_graph(rng, n, extra)
    g = Graph()
    for v in shape.vertices():
        g.add_vertex(v)
    for u, v, _ in shape.edges():
        g.add_edge(u, v, rng.choice(DYADIC_WEIGHTS))
    return g


def cut_ratio(g: Graph, members) -> float:
    inside = set(members)
    return sum(w for u, v, w in g.edges() if (u in inside) != (v in inside)) / len(inside)


class TestFiniteHalfBound:
    """Beyond work_limit, finite_half is the better of two min ratio cuts,
    pooled on the halves of the Fiedler order."""

    def test_bound_against_brute(self):
        rng = random.Random(1806)
        for _ in range(30):
            n = rng.randint(8, 16)
            g = weighted_graph(rng, n, rng.randint(0, n))
            rep = cheeger(g, mode="finite_half", work_limit=1 << 4)
            want, _ = brute_cheeger_finite_half(g)
            assert not rep.exact and rep.mode == "finite_half"
            assert rep.examined >= 2
            assert rep.value >= want
            assert 1 <= len(rep.witness) <= n // 2
            assert cut_ratio(g, rep.witness) == rep.value

    def test_bound_beats_every_fiedler_prefix(self):
        rng = random.Random(4619)
        for _ in range(40):
            n = rng.randint(8, 40)
            g = weighted_graph(rng, n, rng.randint(0, 2 * n))
            rep = cheeger(g, mode="finite_half", work_limit=1 << 4)
            adj = np.zeros((n, n))
            for u, v, w in g.edges():
                adj[u, v] = adj[v, u] = w
            fiedler = np.linalg.eigh(np.diag(adj.sum(axis=1)) - adj)[1][:, 1]
            order = sorted(range(n), key=lambda i: (fiedler[i], i))
            for seq in (order, order[::-1]):
                for k in range(1, n // 2 + 1):
                    assert rep.value <= cut_ratio(g, seq[:k])


def cli_params() -> NetBuildParams:
    """The net parameters of the command line's defaults."""
    eps = ARCSINH_ONE / 2.0
    return NetBuildParams(eps=eps, delta=0.9 * delta1(eps))


def brute_ratio_cut(n: int, edges, pool):
    """min cut(A)/|A| over nonempty A within pool on an edge list, exact."""
    best, best_set = None, None
    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(sorted(pool), r):
            inside = set(combo)
            cut = sum(Fraction(w) for i, j, w in edges if (i in inside) != (j in inside))
            val = cut / r
            if best is None or val < best or (val == best and combo < best_set):
                best, best_set = val, combo
    return best, best_set


@contextlib.contextmanager
def counted_calls(*names):
    """Count the calls of the named graphtools functions while the block
    runs; the counts are yielded as a dict by name."""
    counts = dict.fromkeys(names, 0)
    saved = {name: getattr(graphtools, name) for name in names}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    for name, fn in saved.items():
        setattr(graphtools, name, counting(name, fn))
    try:
        yield counts
    finally:
        for name, fn in saved.items():
            setattr(graphtools, name, fn)


def check_max_flow(adj: list, to: list, cap: list, s: int, t: int) -> None:
    """Run _max_flow and check the flow against the enumeration oracle:
    its value equals the least s-t cut over all vertex subsets, and the
    flow is conserved at every other vertex.  Counts the phases too: a
    greedy pass comes before each, and at most n - 1 of them reach t."""
    n = len(adj)
    orig = list(cap)
    with counted_calls("_greedy_flow", "_blocking_flow") as calls:
        _max_flow(adj, to, cap, s, t)
    assert 1 <= calls["_greedy_flow"] == calls["_blocking_flow"] <= n
    net = [0] * n
    for e in range(0, len(to), 2):
        assert cap[e] >= 0 and cap[e ^ 1] >= 0
        f = orig[e] - cap[e]
        assert f == cap[e ^ 1] - orig[e ^ 1]
        net[to[e]] += f
        net[to[e ^ 1]] -= f
    assert all(net[v] == 0 for v in range(n) if v not in (s, t))
    inner = [v for v in range(n) if v not in (s, t)]
    least = min(
        sum(orig[e] for e in range(len(to))
            if to[e ^ 1] in side and to[e] not in side)
        for r in range(len(inner) + 1)
        for rest in itertools.combinations(inner, r)
        for side in [{s, *rest}]
    )
    assert net[t] == least


def add_arc_pair(adj: list, to: list, cap: list, u: int, v: int, c_uv: int, c_vu: int) -> None:
    for x, y, c in ((u, v, c_uv), (v, u, c_vu)):
        adj[x].append(len(to))
        to.append(y)
        cap.append(c)


class TestMaxFlow:
    def test_matches_min_cut_enumeration(self):
        rng = random.Random(1956)
        for _ in range(300):
            n = rng.randint(2, 9)
            adj, to, cap = [[] for _ in range(n)], [], []
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.sample(range(n), 2)
                add_arc_pair(adj, to, cap, u, v, *(rng.choice([0, 1, 2, 7, 10**15 + 3])
                                                   for _ in range(2)))
            check_max_flow(adj, to, cap, 0, n - 1)

    def test_source_feeds_every_vertex_of_a_long_path(self):
        """s feeds each vertex of a path that ends at t, the shape that
        needs one Dinic phase per path length; some cases add chords and
        arcs to t, so that flow gets stuck and needs later phases."""
        rng = random.Random(1970)
        for trial in range(60):
            k = rng.randint(2, 12)
            s, t = k, k + 1
            adj, to, cap = [[] for _ in range(k + 2)], [], []
            for v in range(k):
                add_arc_pair(adj, to, cap, s, v, rng.choice([0, 1, 2, 5, 10**12]), 0)
            for v in range(k):
                w = rng.choice([1, 2, 3, 7, 20])
                add_arc_pair(adj, to, cap, v, v + 1 if v + 1 < k else t, w, w)
            for _ in range(rng.randint(0, k) if trial % 2 else 0):
                u, v = rng.sample(range(k), 2)
                add_arc_pair(adj, to, cap, u, rng.choice([v, t]), rng.randint(1, 4), 0)
            check_max_flow(adj, to, cap, s, t)


class TestExactAmbientCheeger:
    """Ambient Cheeger by Dinkelbach iteration over s-t min cuts."""

    def test_matches_brute_with_dyadic_weights_and_shuffled_interiors(self):
        rng = random.Random(1967)
        for _ in range(320):
            n = rng.randint(3, 11)
            g = weighted_graph(rng, n, rng.randint(0, n + 3))
            interior = rng.sample(g.vertices(), rng.randint(1, n - 1))
            rep = cheeger(g, mode="ambient", interior=interior)
            want, want_set = brute_cheeger_ambient(g, interior)
            assert rep.exact and rep.mode == "ambient" and rep.examined >= 1
            assert rep.value == want
            assert tuple(g.index_of(v) for v in rep.witness) == want_set

    def test_edge_list_with_parallel_edges_and_loops(self):
        rng = random.Random(1989)
        for _ in range(150):
            n = rng.randint(2, 9)
            edges = [(rng.randrange(n), rng.randrange(n), rng.choice(DYADIC_WEIGHTS))
                     for _ in range(rng.randint(0, 2 * n))]
            pool = rng.sample(range(n), rng.randint(1, n))
            rc = min_ratio_cut(n, edges, pool)
            want, want_set = brute_ratio_cut(n, edges, pool)
            assert rc.ratio == want
            assert rc.members == want_set

    @pytest.mark.parametrize("depth, value", [
        (2, Fraction(18, 19)), (3, Fraction(18, 29)), (4, Fraction(9, 17)),
        (5, Fraction(36, 73)), (6, Fraction(72, 151)),
    ])
    def test_pants_tree_values(self, depth, value):
        net = build_net(families.pants_tree(depth), cli_params())
        rep = netgraph.net_cheeger_estimate(net)
        assert rep.exact and rep.mode == "ambient"
        assert rep.value == float(value)

    @pytest.mark.parametrize("n", [40, 200])
    def test_flute_needs_few_phases(self, n):
        """A greedy pass before every Dinic phase: with one pass before the
        first phase only, flute(40) took 29 phases."""
        net = build_net(families.flute(n), cli_params())
        with counted_calls("_greedy_flow", "_blocking_flow") as calls:
            rep = netgraph.net_cheeger_estimate(net)
        assert rep.exact and rep.examined == 1
        assert calls["_greedy_flow"] == calls["_blocking_flow"] <= 8

    def test_every_bundled_instance_is_exact(self):
        for path in bundled_families().values():
            fam = families.load_family(path)
            for v in range(fam.lo, fam.hi + 1):
                net = build_net(fam.builder(v), cli_params())
                assert len(netgraph.interior_vertices(net)) < net.graph.n
                assert netgraph.net_cheeger_estimate(net).exact

    def test_long_path_needs_no_recursion(self):
        g = path_graph(3000)
        rep = cheeger(g, mode="ambient", interior=list(range(1, 3000)))
        assert rep.exact
        assert rep.value == 1.0 / 2999.0
        assert rep.witness == tuple(range(1, 3000))

    def test_pool_without_sink_has_ratio_zero(self):
        # nothing outside the pool: every union of components has cut 0;
        # (0, 1) precedes (0, 1, 2, 3, 4), while interleaved components
        # must be taken together, since (0, 1, 2, 3) precedes (0, 2)
        rc = min_ratio_cut(5, [(0, 1, 1.0), (2, 3, 0.5), (3, 4, 3.0)], range(5))
        assert rc.ratio == 0 and rc.members == (0, 1) and rc.solves == 1
        rc = min_ratio_cut(4, [(0, 2, 1.0), (1, 3, 1.0)], range(4))
        assert rc.members == (0, 1, 2, 3)

    def test_empty_pool_rejected(self):
        with pytest.raises(DomainError):
            min_ratio_cut(3, [(0, 1, 1.0)], [])


def brute_delta(g: Graph) -> float:
    D = g.distance_matrix()
    n = g.n
    best = 0.0
    for q in itertools.combinations(range(n), 4):
        x, y, z, w = q
        s = sorted(
            [
                D[x, y] + D[z, w],
                D[x, z] + D[y, w],
                D[x, w] + D[y, z],
            ]
        )
        best = max(best, (s[2] - s[1]) / 2.0)
    return best


class TestHyperbolicity:
    def test_trees_are_zero(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_tree(rng, rng.randint(4, 40))
            rep = hyperbolicity_delta(g)
            assert rep.exact
            assert rep.delta == 0.0
            assert rep.base_dependence == 0.0

    def test_cycles_match_oracle(self):
        for n in range(4, 13):
            g = cycle_graph(n)
            rep = hyperbolicity_delta(g)
            assert rep.exact
            assert rep.delta == brute_delta(g)

    def test_random_graphs_match_oracle(self):
        rng = random.Random(41)
        for _ in range(15):
            n = rng.randint(4, 12)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            rep = hyperbolicity_delta(g)
            assert rep.delta == brute_delta(g)

    def test_witness_realizes_delta(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_connected_graph(rng, 12, 6)
            rep = hyperbolicity_delta(g)
            D = g.distance_matrix()
            idx = [g.index_of(v) for v in rep.witness]
            x, y, z, w = idx
            s = sorted(
                [
                    D[x, y] + D[z, w],
                    D[x, z] + D[y, w],
                    D[x, w] + D[y, z],
                ]
            )
            assert (s[2] - s[1]) / 2.0 == rep.delta

    def test_base_dependence_equals_delta_exact(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_connected_graph(rng, 14, 8)
            rep = hyperbolicity_delta(g)
            assert rep.base_dependence == rep.delta

    def test_tiny_graphs(self):
        g = path_graph(3)
        rep = hyperbolicity_delta(g)
        assert rep.delta == 0.0 and rep.exact

    def test_disconnected_raises_at_every_size(self):
        """Below four vertices, where no block is scanned, and above."""
        small = Graph()
        for v in "abc":
            small.add_vertex(v)
        pair = path_graph(2)
        pair.add_vertex(2)
        large = cycle_graph(5)
        large.add_vertex("x")
        for g in (small, pair, large):
            with pytest.raises(DomainError, match="^hyperbolicity of a disconnected graph$"):
                hyperbolicity_delta(g)


def four_point_defect(D: np.ndarray, q) -> float:
    x, y, z, w = q
    s = sorted([D[x, y] + D[z, w], D[x, z] + D[y, w], D[x, w] + D[y, z]])
    return (s[2] - s[1]) / 2.0


def base_delta(D: np.ndarray, o: int) -> float:
    """max over x,y,z of min((x|z)_o, (z|y)_o) - (x|y)_o, in integers on
    Q = 2*(.|.)_o, the doubled Gromov products at base o."""
    Q = D[:, o][:, None] + D[o, :][None, :] - D
    buf = np.empty_like(Q)
    best = 0
    for z in range(Q.shape[0]):
        np.minimum(Q[:, z][:, None], Q[z, :][None, :], out=buf)
        buf -= Q
        best = max(best, int(buf.max()))
    return best / 2.0


def all_quadruples_delta(D: np.ndarray) -> float:
    """Vectorised four-point constant over every quadruple of D."""
    n = D.shape[0]
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), 4))
    x, y, z, w = np.fromiter(flat, dtype=np.intp).reshape(-1, 4).T
    s = np.sort([D[x, y] + D[z, w], D[x, z] + D[y, w], D[x, w] + D[y, z]], axis=0)
    return float((s[2] - s[1]).max()) / 2.0


def net_graph(spec) -> Graph:
    eps = ARCSINH_ONE / 2.0
    return build_net(spec, NetBuildParams(eps=eps, delta=0.9 * delta1(eps))).graph


class TestFarApartScan:
    """The pruned exact scan against scans of every quadruple."""

    def test_random_graphs_match_oracle(self):
        rng = random.Random(2015)
        for _ in range(200):
            n = rng.randint(4, 16)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            assert hyperbolicity_delta(g).delta == brute_delta(g)

    def test_cycles_match_oracle(self):
        for n in range(4, 31):
            g = cycle_graph(n)
            assert hyperbolicity_delta(g).delta == brute_delta(g)

    @pytest.mark.parametrize("spec", [families.flute(3), families.pants_tree(2)],
                             ids=["flute3", "pants_tree2"])
    def test_nets_match_vectorised_oracle(self, spec):
        g = net_graph(spec)
        rep = hyperbolicity_delta(g)
        assert rep.delta == all_quadruples_delta(g.distance_matrix())

    def test_base_dependence_is_the_largest_base_delta(self):
        rng = random.Random(2015)
        graphs = [random_connected_graph(rng, n, rng.randint(0, 2 * n))
                  for n in (rng.randint(4, 16) for _ in range(200))]
        graphs += [cycle_graph(n) for n in range(4, 31)]
        graphs += [net_graph(families.flute(3)), net_graph(families.pants_tree(2))]
        for g in graphs:
            D = g.distance_matrix()
            rep = hyperbolicity_delta(g)
            assert rep.base_dependence == max(base_delta(D, o) for o in range(g.n))

    def test_glued_blocks_match_oracle(self):
        """delta over blocks against every quadruple, and the witness: four
        distinct vertices of one block that attain it (the first four
        vertices when delta is 0)."""
        rng = random.Random(1998)
        positive = 0
        for _ in range(120):
            g, blocks = glued_blocks(rng, rng.randint(1, 6))
            rep = hyperbolicity_delta(g)
            assert rep.exact
            assert rep.delta == rep.base_dependence == brute_delta(g)
            if rep.delta == 0:
                assert rep.witness == tuple(g.vertices()[:4])
                continue
            positive += 1
            assert len(set(rep.witness)) == 4
            assert any(b.issuperset(rep.witness) for b in blocks)
            D = g.distance_matrix()
            assert four_point_defect(D, [g.index_of(v) for v in rep.witness]) == rep.delta
        assert positive >= 30

    def test_late_witness_in_a_large_block(self):
        """A 185-vertex block whose lexicographically first attaining
        quadruple starts at vertex 77: the scan's own witness attains
        delta without a second pass over the block."""
        g = random_connected_graph(random.Random(1), 200, 200)
        blocks = biconnected_components(g)
        assert max(len(b) for b in blocks) == 185
        rep = hyperbolicity_delta(g)
        assert rep.delta == rep.base_dependence == 3.0
        idx = [g.index_of(v) for v in rep.witness]
        assert len(set(idx)) == 4
        assert any(set(b).issuperset(idx) for b in blocks)
        assert four_point_defect(g.distance_matrix(), idx) == 3.0

    @pytest.mark.parametrize("spec", [families.flute(40), families.pants_tree(5),
                                      families.pants_tree(6)],
                             ids=["flute40", "pants_tree5", "pants_tree6"])
    def test_large_nets_are_exact(self, spec):
        g = net_graph(spec)
        rep = hyperbolicity_delta(g)
        assert g.n > 400
        assert rep.exact
        assert rep.delta == rep.base_dependence == 1.0
        D = g.distance_matrix()
        assert four_point_defect(D, [g.index_of(v) for v in rep.witness]) == 1.0

    def test_flute8_counts_evaluated_quadruples(self):
        g = net_graph(load_spec(families.bundled_path("flute8.json")))
        rep = hyperbolicity_delta(g)
        assert 0 < rep.quadruples < math.comb(g.n, 4)
        assert rep.delta == 1.0 and rep.base_dependence == 1.0
        assert rep.witness == (("hub", 0), ("hub", 1), ("net", 0, 1, 0), ("net", 0, 1, 2))


def sliced_hyperbolicity(g: Graph) -> tuple:
    """(delta, witness, quadruples) scanned on slices of the full composed
    matrix, with the slice's neighbour lists read from the whole graph's."""
    order = g.vertices()
    D = g.distance_matrix()
    scans, quadruples = [], 0
    for block in biconnected_components(g):
        if len(block) < 4:
            continue
        local = {i: k for k, i in enumerate(block)}
        nbrs = [[local[u] for u in g.neighbors(i) if u in local] for i in block]
        sub = D[np.ix_(block, block)]
        best2, count, found = _far_apart_scan(nbrs, sub)
        if best2:
            scans.append((best2, tuple(block[k] for k in found)))
        quadruples += count
    best2 = max((scan[0] for scan in scans), default=0)
    witness = min((w for b2, w in scans if b2 == best2), default=(0, 1, 2, 3))
    return best2 / 2.0, tuple(order[i] for i in witness), quadruples


def chained_random_graph(rng: random.Random, parts: int) -> Graph:
    """Seeded random_connected_graphs, each glued at one vertex of the
    graph built so far, so every part holds one or more blocks."""
    g = Graph()
    g.add_vertex(0)
    for _ in range(parts):
        part = random_connected_graph(rng, rng.randint(4, 16), rng.randint(1, 8))
        at, base = rng.randrange(g.n), g.n - 1
        for u, v, _ in part.edges():
            g.add_edge(base + u if u else at, base + v if v else at)
    return g


def several_block_graphs() -> list:
    rng = random.Random(1404)
    graphs = [chained_random_graph(rng, rng.randint(2, 6)) for _ in range(60)]
    graphs += [glued_blocks(rng, rng.randint(3, 8))[0] for _ in range(40)]
    graphs.append(net_graph(load_spec(families.bundled_path("flute8.json"))))
    graphs.append(net_graph(families.pants_tree(3)))
    return graphs


class TestBlockHyperbolicity:
    """hyperbolicity_delta on per-block matrices against the scan of
    slices of the whole graph's matrix."""

    def test_matches_slices_of_the_full_matrix(self, monkeypatch):
        graphs = several_block_graphs()
        want = [sliced_hyperbolicity(g) for g in graphs]
        assert sum(len([b for b in biconnected_components(g) if len(b) >= 4]) >= 2
                   for g in graphs) >= 50
        assert sum(w[0] > 0 for w in want) >= 50

        def refuse(self, *args, **kwargs):
            raise AssertionError("hyperbolicity_delta built a whole-graph matrix")

        monkeypatch.setattr(Graph, "distance_matrix", refuse)
        for g, (delta, witness, quadruples) in zip(graphs, want):
            rep = hyperbolicity_delta(g)
            assert (rep.delta, rep.witness, rep.quadruples) == (delta, witness, quadruples)

    def test_one_block_pass(self, monkeypatch):
        calls = []

        def counted(graph):
            calls.append(graph)
            return biconnected_components(graph)

        monkeypatch.setattr(graphtools, "biconnected_components", counted)
        for g in several_block_graphs()[::10]:
            calls.clear()
            hyperbolicity_delta(g)
            assert calls == [g]

    def test_disconnected_raises(self):
        g = cycle_graph(5)
        g.add_edge("a", "b")
        with pytest.raises(DomainError, match="disconnected"):
            hyperbolicity_delta(g)

    def test_near_mask_matches_the_loop_form(self):
        """Ragged neighbour lists, a hub among them, on random matrices."""
        rng = random.Random(77)
        for _ in range(200):
            m = rng.randint(2, 25)
            nbrs = [rng.sample(range(m), rng.randint(1, m)) for _ in range(m)]
            nbrs[rng.randrange(m)] = list(range(m))
            D = np.array([[rng.randint(0, 6) for _ in range(m)] for _ in range(m)],
                         dtype=np.int32)
            want = np.array([D[row].max(axis=0) <= D[x] for x, row in enumerate(nbrs)])
            assert np.array_equal(_near(nbrs, D), want)


NEXT_UP = 1.0 + 2.0 ** -52  # the least float above 1.0
C5 = [(k, (k + 1) % 5) for k in range(5)]
K4 = list(itertools.combinations(range(4), 2))
WHEEL6 = [(0, k) for k in range(1, 7)] + [(k, k % 6 + 1) for k in range(1, 7)]
# The cusp gadget of a net: hub 0, ring 1..6, special 7, edges in build_net's order.
GADGET = ([(k, k % 6 + 1) for k in range(1, 7)] + [(7, k) for k in range(1, 7)]
          + [(0, k) for k in range(1, 7)])


def block_variants(edges) -> list:
    """A block's edge list (u, v, weight) with unit weights, the same with
    its first edge away from position 0 weighing NEXT_UP, and the same
    edges written in reverse, which changes only the neighbour order."""
    plain = [(u, v, 1.0) for u, v in edges]
    heavier = list(plain)
    k = next(k for k, (u, v, _) in enumerate(plain) if 0 not in (u, v))
    heavier[k] = (plain[k][0], plain[k][1], NEXT_UP)
    return [plain, heavier, plain[::-1]]


def repeated_blocks(rng: random.Random, copies, chain: bool) -> Graph:
    """One block per edge list in copies (on the positions 0..m-1), glued
    at its position 0 to a vertex of the previous copy (chain) or of the
    graph so far (tree), with the other positions added in order.  So
    copies of one edge list have one local adjacency.  An end of an edge
    weighing other than 1.0 is never a glue point: every weighted path
    then sums to whole numbers, bar the single NEXT_UP edges, whatever the
    order of its additions, and the composed matrix is exact."""
    g = Graph()
    g.add_vertex(0)
    last, avoid = [0], set()
    for edges in copies:
        pool = [i for i in (last if chain else range(g.n)) if i not in avoid]
        m = 1 + max(max(u, v) for u, v, _ in edges)
        last = [rng.choice(pool)] + [g.add_vertex(g.n) for _ in range(m - 1)]
        for u, v, w in edges:
            g.add_edge(last[u], last[v], w)
            if w != 1.0:
                avoid |= {last[u], last[v]}
    return g


def shape_graphs(count: int) -> list:
    """Chains and trees of up to 30 copies of C5, K4, a wheel and the net
    gadget and their variants, a few of the shapes in each graph."""
    rng = random.Random(2424)
    variants = [block_variants(edges) for edges in (C5, K4, WHEEL6, GADGET)]
    graphs = []
    for trial in range(count):
        pool = [v for kind in rng.sample(variants, rng.randint(1, 3))
                for v in rng.sample(kind, rng.randint(1, 3))]
        copies = [rng.choice(pool) for _ in range(rng.randint(2, 30))]
        graphs.append((repeated_blocks(rng, copies, chain=trial % 2 == 0), copies))
    return graphs


def local_shape(sub: Graph) -> tuple:
    return tuple(tuple(row.items()) for row in sub._adj)


class TestShapeSharing:
    """Blocks with one local adjacency share one subgraph, its searches in
    distance_matrix and its scan in hyperbolicity_delta; blocks that differ
    from it in one weight or only in neighbour order do not."""

    def test_blocks_of_one_shape_share_one_subgraph(self):
        for g, copies in shape_graphs(40):
            blocks = graphtools._block_graphs(g)
            assert len(blocks) == len(copies)
            assert len({id(sub) for _, sub in blocks}) == len({tuple(c) for c in copies})
            for (_, s1), (_, s2) in itertools.combinations(blocks, 2):
                assert (s1 is s2) == (local_shape(s1) == local_shape(s2))

    def test_matrices_match_per_source_searches(self):
        """Hop counts and weighted distances, the full matrix and any rows
        and columns, bit for bit."""
        rng = random.Random(1952)
        for trial, (g, copies) in enumerate(shape_graphs(80)):
            weighted = trial % 4 >= 2
            oracle = per_source_matrix(g, weighted)
            if weighted and any(w != 1.0 for c in copies for _, _, w in c):
                assert (oracle == NEXT_UP).any()
            assert g.distance_matrix(weighted=weighted).tobytes() == oracle.tobytes()
            rows, cols = random_rows(rng, g.n), random_rows(rng, g.n)
            got = g.distance_matrix(weighted=weighted, rows=rows, cols=cols)
            assert got.tobytes() == oracle[np.ix_(rows, cols)].tobytes()
            got = g.distance_matrix(weighted=weighted, rows=rows)
            assert got.tobytes() == oracle[rows].tobytes()

    def test_hyperbolicity_matches_slices(self):
        graphs = shape_graphs(60)
        deltas = 0
        for g, _ in graphs:
            rep = hyperbolicity_delta(g)
            assert (rep.delta, rep.witness, rep.quadruples) == sliced_hyperbolicity(g)
            deltas += rep.delta > 0
        assert deltas >= 30

    @pytest.mark.parametrize("chain", [True, False])
    def test_one_search_per_shape_and_source(self, monkeypatch, chain):
        """30 copies of the 8-vertex gadget: one search from each of its
        positions, whatever the number of copies."""
        g = repeated_blocks(random.Random(30), [block_variants(GADGET)[0]] * 30, chain)
        want = [per_source_matrix(g), per_source_matrix(g, True), sliced_hyperbolicity(g)]
        calls = {"bfs_distances": 0, "dijkstra": 0}

        def counting(name):
            search = getattr(Graph, name)

            def counted(self, source):
                calls[name] += 1
                return search(self, source)
            return counted

        for name in calls:
            monkeypatch.setattr(Graph, name, counting(name))
        rep = hyperbolicity_delta(g)
        assert (rep.delta, rep.witness, rep.quadruples) == want[2]
        assert 0 < calls["bfs_distances"] <= 8
        for weighted, name in ((False, "bfs_distances"), (True, "dijkstra")):
            calls[name] = 0
            assert np.array_equal(g.distance_matrix(weighted=weighted), want[weighted])
            assert 0 < calls[name] <= 8


def gromov_product(dmat: np.ndarray, i: int, j: int, o: int) -> float:
    """(i|j)_o from a distance matrix: the oracle for the proxy's products."""
    return (float(dmat[i, o]) + float(dmat[j, o]) - float(dmat[i, j])) / 2.0


class TestGromovProduct:
    def test_formula(self):
        g = path_graph(6)
        D = g.distance_matrix()
        # on a path through o, the product is the overlap toward o
        assert gromov_product(D, 0, 5, 2) == pytest.approx(0.0)
        assert gromov_product(D, 4, 5, 0) == pytest.approx(4.0)


class TestBoundaryProxy:
    def test_products_match_direct_computation(self):
        rng = random.Random(13)
        g = random_connected_graph(rng, 18, 9)
        D = g.distance_matrix()
        rep = boundary_proxy(g, D)
        o = int(D.max(axis=1).argmin())
        assert rep.base == g.vertices()[o]
        assert rep.a == 2.0
        assert all(D[o, g.index_of(p)] == rep.radius for p in rep.points)
        for i, p in enumerate(rep.points):
            for j, q in enumerate(rep.points):
                direct = gromov_product(D, g.index_of(p), g.index_of(q), o)
                assert rep.products[i, j] == pytest.approx(direct)
        assert (rep.dists >= 0.0).all()
        assert (np.diag(rep.dists) == 0.0).all()

    def test_keep_filter(self):
        # base 4; the sphere of radius 2 holds two vertices, so the radius
        # backs off to 1, where the filter leaves 3 of {3, 5}
        g = path_graph(9)
        rep = boundary_proxy(g, g.distance_matrix(), keep=[v for v in range(9) if v != 5])
        assert (rep.base, rep.radius, rep.points) == (4, 1, (3,))

    def test_auto_radius_backs_off(self):
        # stars have everything at radius 1 from the hub
        g = Graph()
        for v in range(1, 6):
            g.add_edge(0, v)
        rep = boundary_proxy(g, g.distance_matrix())
        assert rep.base == 0
        assert rep.radius == 1
        assert len(rep.points) == 5


class TestUltrametricDefect:
    def test_ultrametric_space(self):
        d = np.array(
            [
                [0.0, 1.0, 4.0, 4.0],
                [1.0, 0.0, 4.0, 4.0],
                [4.0, 4.0, 0.0, 2.0],
                [4.0, 4.0, 2.0, 0.0],
            ]
        )
        assert ultrametric_defect(d) == 1.0

    def test_euclidean_line_defect_two(self):
        pts = np.array([0.0, 1.0, 2.0])
        d = np.abs(pts[:, None] - pts[None, :])
        assert ultrametric_defect(d) == pytest.approx(2.0)

    def test_proxy_defect_bounded_by_visual_base(self):
        # the boundary command's proxy against the hyperbolicity command's
        # delta, on a random graph and on the golden and one family net
        golden = Path(__file__).resolve().parent / "golden"
        g = random_connected_graph(random.Random(19), 20, 10)
        proxies = [(g, boundary_proxy(g, g.distance_matrix()))]
        for spec in (load_spec(families.bundled_path("flute8.json")),
                     *(load_spec(golden / f"{name}.json") for name in ("gen12", "loop", "closed")),
                     families.pants_tree(5)):
            net, proxy = net_proxy(spec)
            proxies.append((net.graph, proxy))
        for graph, proxy in proxies:
            delta = hyperbolicity_delta(graph).delta
            assert ultrametric_defect(proxy.dists) <= proxy.a ** delta + 1e-9


def random_metric(rng: random.Random, n: int) -> np.ndarray:
    """A seeded distance matrix: Euclidean distances of random points
    rounded to few digits, so distances tie and distinct points may sit at
    distance 0, or a visual metric a^-(x|y) with integer products."""
    if rng.random() < 0.7:
        dim = rng.randint(1, 3)
        pts = np.array([[rng.randint(0, 6) for _ in range(dim)] for _ in range(n)]).reshape(n, dim)
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        return np.round(d, rng.choice([0, 1, 3]))
    d = np.triu(np.array([[2.0 ** -rng.randint(0, 6) for _ in range(n)] for _ in range(n)]), k=1)
    return d + d.T


class TestUltrametricDefectOracle:
    """Selection over integer ranks against one float division per y,
    compared with ==."""

    def test_random_metrics(self):
        rng = random.Random(1806)
        metrics = [random_metric(rng, rng.randint(3, 30)) for _ in range(400)]
        zero_pair = [bool((m + np.eye(len(m)) == 0).any()) for m in metrics]
        assert sum(zero_pair) >= 50 and sum(not z for z in zero_pair) >= 50
        for d in metrics:
            assert ultrametric_defect(d) == oracle_ultrametric_defect(d)

    def test_small_sizes(self):
        rng = random.Random(0)
        for n in range(4):
            for _ in range(20):
                d = random_metric(rng, n)
                assert ultrametric_defect(d) == oracle_ultrametric_defect(d)
        zeros = np.zeros((5, 5))
        assert ultrametric_defect(zeros) == oracle_ultrametric_defect(zeros) == 1.0

    @pytest.mark.parametrize("name", ["flute8", "gen12", "loop", "pants_tree5"])
    def test_net_proxies(self, name):
        golden = Path(__file__).resolve().parent / "golden"
        spec = {
            "flute8": lambda: load_spec(families.bundled_path("flute8.json")),
            "gen12": lambda: load_spec(golden / "gen12.json"),
            "loop": lambda: load_spec(golden / "loop.json"),
            "pants_tree5": lambda: families.pants_tree(5),
        }[name]()
        _, proxy = net_proxy(spec)
        assert len(proxy.points) >= 3
        assert ultrametric_defect(proxy.dists) == oracle_ultrametric_defect(proxy.dists)


def geometric_points(scales):
    pts = np.array(scales)
    return np.abs(pts[:, None] - pts[None, :])


class TestUniformPerfectness:
    def test_degenerate(self):
        rep = uniform_perfectness(np.zeros((2, 2)), a=2.0, radius=8)
        assert not rep.passed
        assert "degenerate" in rep.reason

    def test_uniform_grid_passes(self):
        # evenly spaced points: every annulus above the grid step is
        # inhabited, so the space passes once scales are floored there
        h = 1.0 / 16.0
        pts = [k * h for k in range(17)]
        d = geometric_points(pts)
        rep = uniform_perfectness(d, a=2.0, radius=5)
        assert rep.passed
        assert rep.s_value <= 4.0

    def test_cluster_gap_fails(self):
        # two tight clusters separated by a factor-1000 gap
        pts = [0.0, 1e-3, 2e-3, 1.0, 1.0 + 1e-3, 1.0 + 2e-3]
        d = geometric_points(pts)
        rep = uniform_perfectness(d, a=2.0, radius=12)
        assert not rep.passed
        # below the floor 2^-11 each point is alone in its cluster
        assert rep.s_value is None
        assert rep.gap == (0.0, 1e-3)
        # with the clusters under the floor, the gap between them is the
        # obstruction
        rep = uniform_perfectness(d, a=2.0, radius=8)
        assert not rep.passed
        assert rep.s_value >= 499.0
        assert rep.gap[0] <= 2e-3 + 1e-12 and rep.gap[1] >= 1.0 - 2e-3 - 1e-12

    def test_monotone_in_s(self):
        # the reported S passes, so does every larger S, and every smaller
        # one fails; the gap is the one its ratio comes from
        pts = [0.0, 0.05, 0.1, 0.4, 0.9, 1.0]
        d = geometric_points(pts)
        rep = uniform_perfectness(d, a=2.0, radius=2)
        assert rep.passed
        assert rep.s_value == pytest.approx(6.0)
        assert rep.gap == pytest.approx((0.1, 0.6))
        for s in (rep.s_value, 2.0 * rep.s_value, 100.0):
            assert not brute_up_fails(d, s, 0.5)
        for s in (math.nextafter(rep.s_value, 0.0), 0.5 * rep.s_value, 1.5):
            assert brute_up_fails(d, s, 0.5)

    def test_pants_tree_needs_four(self):
        # S = 3 fails at the scales in [3/16, 1/4), which a half-octave
        # ladder of test scales from the diameter never reaches
        _, proxy = net_proxy(families.pants_tree(4))
        rep = uniform_perfectness(proxy.dists, a=proxy.a, radius=proxy.radius)
        assert rep.s_value == 4.0
        assert rep.passed
        floor = proxy.a ** -(proxy.radius - 1)
        assert brute_up_fails(proxy.dists, 3.0, floor)
        assert not brute_up_fails(proxy.dists, 4.0, floor)


def brute_up_fails(dists, s, floor):
    """Oracle: whether some point fails the annulus test at S = s at some
    scale eps in [floor, diameter], in exact rationals.  A point x fails at
    eps when something lies beyond eps but no entry of its row lies in
    (eps/s, eps].  Each point's failing scales are half-open intervals
    whose left ends are the floor or s times an entry of its row, so
    testing every point at each scale in ({r} | {s r} | {floor}) within
    the window, over its row's entries r, finds every failure."""
    s, floor = Fraction(s), Fraction(floor)
    rows = [sorted({Fraction(v) for v in row}) for row in dists.tolist()]
    diameter = max(vals[-1] for vals in rows)
    for vals in rows:
        for eps in {floor, *vals, *(s * r for r in vals)}:
            if not floor <= eps <= diameter or vals[-1] <= eps:
                continue
            if not any(eps < s * r and r <= eps for r in vals):
                return True
    return False


def check_uniform_perfectness(dists, a, radius) -> UPReport:
    """uniform_perfectness against brute_up_fails: the reported S passes,
    the float below it and the next smaller gap ratio fail, and the gap
    is two consecutive distinct values of a row."""
    rep = uniform_perfectness(dists, a=a, radius=radius)
    floor = a ** -(radius - 1)
    assert rep.floor == floor and rep.n_points == len(dists)
    if rep.gap is None:
        assert rep.s_value is None and not rep.passed
        assert float(dists.max(initial=0.0)) <= floor
        return rep
    gaps = {g for row in dists.tolist() for g in itertools.pairwise(sorted(set(row)))}
    assert rep.gap in gaps and rep.gap[1] > floor
    assert rep.passed == (rep.s_value is not None and rep.s_value <= 8.0)
    if rep.s_value is None:
        assert rep.gap[0] == 0.0
        assert brute_up_fails(dists, np.finfo(float).max, floor)
        return rep
    ratio = rep.gap[1] / rep.gap[0]
    assert rep.s_value in (ratio, math.nextafter(ratio, math.inf))
    assert not brute_up_fails(dists, rep.s_value, floor)
    assert brute_up_fails(dists, math.nextafter(rep.s_value, 0.0), floor)
    below = [hi / lo for lo, hi in gaps if lo > 0.0 and hi / lo < rep.s_value]
    if below:
        assert brute_up_fails(dists, max(below), floor)
    return rep


def net_proxy(spec):
    net = build_net(spec, cli_params())
    return net, boundary_proxy(net.graph, net.graph.distance_matrix(),
                               keep=netgraph.ring_samples(net))


class TestUniformPerfectnessOracle:
    """The exact constant from sorted rows against the brute-force annulus
    scan in rationals."""

    def test_random_matrices(self):
        rng = random.Random(1806)
        finite = 0
        for _ in range(100):
            n = rng.randint(3, 20)
            a = rng.choice([1.5, 2.0, 3.0])
            if rng.random() < 0.5:
                vals = np.array([[rng.uniform(0.0, 1.0) for _ in range(n)] for _ in range(n)])
            else:
                vals = np.array([[a ** -rng.randint(0, 9) for _ in range(n)] for _ in range(n)])
            d = np.triu(vals, k=1)
            d = d + d.T
            radius = rng.randint(3, 12)
            finite += check_uniform_perfectness(d, a, radius).s_value is not None
        assert finite >= 20

    @pytest.mark.parametrize("name", ["flute8", "gen12", "loop", "flute40", "pants_tree5"])
    def test_net_proxies(self, name):
        golden = Path(__file__).resolve().parent / "golden"
        spec = {
            "flute8": lambda: load_spec(families.bundled_path("flute8.json")),
            "gen12": lambda: load_spec(golden / "gen12.json"),
            "loop": lambda: load_spec(golden / "loop.json"),
            "flute40": lambda: families.flute(40),
            "pants_tree5": lambda: families.pants_tree(5),
        }[name]()
        _, proxy = net_proxy(spec)
        rep = check_uniform_perfectness(proxy.dists, proxy.a, proxy.radius)
        assert rep.s_value is not None


def brute_geodesic_union(g: Graph, base, peripheral):
    """Enumerate all shortest paths explicitly via the BFS predecessor DAG,
    on vertex indices."""
    out = set()
    dist = g.bfs_distances(base)
    for u in peripheral:
        stack = [(u, [u])]
        while stack:
            node, path = stack.pop()
            if node == base:
                out.update(path)
                continue
            for nb in g.neighbors(node):
                if dist[nb] == dist[node] - 1:
                    stack.append((nb, path + [nb]))
    return out


class TestPole:
    def test_union_set_matches_path_enumeration(self):
        rng = random.Random(37)
        for _ in range(15):
            n = rng.randint(5, 14)
            g = random_connected_graph(rng, n, rng.randint(0, 4))
            base = 0
            peripheral = [n - 1, n // 2]
            got = geodesic_union_set(g, base, peripheral, g.distance_matrix())
            want = brute_geodesic_union(g, base, peripheral)
            assert got == want

    def test_path_has_tight_pole(self):
        g = path_graph(8)
        rep = has_pole(g, 0, [7], g.distance_matrix())
        assert rep.has_pole
        assert rep.needed == 0

    def test_offshoot_needs_margin(self):
        g = path_graph(6)
        # hang a pendant chain off the middle, away from any geodesic to 5
        g.add_edge(2, "p1")
        g.add_edge("p1", "p2")
        g.add_edge("p2", "p3")
        rep = has_pole(g, 0, [5], g.distance_matrix())
        assert rep.needed == 3

    def test_fail_beyond_grid(self):
        g = path_graph(4)
        for k in range(20):
            g.add_edge(1 if k == 0 else f"t{k - 1}", f"t{k}")
        rep = has_pole(g, 0, [3], g.distance_matrix())
        assert not rep.has_pole
        assert rep.needed == 20

    def test_empty_peripheral_rejected(self):
        with pytest.raises(DomainError):
            has_pole(path_graph(3), 0, [], path_graph(3).distance_matrix())


def bfs_has_pole(g: Graph, base, peripheral, max_margin=12) -> PoleReport:
    """Oracle, on vertex indices: one BFS from the base and one per
    peripheral vertex for the geodesic union, then a multi-source BFS from
    the union."""
    dv = g.bfs_distances(base)
    union = set()
    for u in peripheral:
        du = g.bfs_distances(u)
        union.update(x for x, dx in enumerate(dv) if dx + du[x] == dv[u])
    dist = {x: 0 for x in union}
    q = deque(sorted(union))
    while q:
        u = q.popleft()
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    needed = max(dist.values())
    return PoleReport(needed <= max_margin, needed, g.vertices()[base], len(peripheral))


class TestPoleFromMatrix:
    """Pole tests read the boundary command's one distance matrix."""

    def test_random_graphs_match_bfs(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(3, 25)
            g = random_connected_graph(rng, n, rng.randint(0, 6))
            base = rng.randrange(n)
            peripheral = rng.sample(range(n), rng.randint(1, 4))
            D = g.distance_matrix()
            assert repr(has_pole(g, base, peripheral, D)) == repr(bfs_has_pole(g, base, peripheral))

    @pytest.mark.parametrize("name", ["flute8", "gen12", "loop", "flute40"])
    def test_net_poles_match_bfs(self, name):
        golden = Path(__file__).resolve().parent / "golden"
        spec = {
            "flute8": lambda: load_spec(families.bundled_path("flute8.json")),
            "gen12": lambda: load_spec(golden / "gen12.json"),
            "loop": lambda: load_spec(golden / "loop.json"),
            "flute40": lambda: families.flute(40),
        }[name]()
        net, proxy = net_proxy(spec)
        specials = [*net.special_w.values(), *net.special_v.values()]
        assert specials
        base = net.graph.index_of(proxy.base)
        got = has_pole(net.graph, base, specials, dmat=net.graph.distance_matrix())
        assert repr(got) == repr(bfs_has_pole(net.graph, base, specials))

    def test_boundary_command_builds_one_matrix(self, monkeypatch, capsys):
        calls = []
        original = Graph.distance_matrix

        def counted(self, weighted=False):
            calls.append(weighted)
            return original(self, weighted)

        monkeypatch.setattr(Graph, "distance_matrix", counted)
        assert cli.main(["boundary", str(families.bundled_path("flute8.json"))]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["pole"] is not None
        assert calls == [False]
