"""Net construction, boundary vertex sets, quotient meshes, and QI
estimation."""

import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (boundary_vertex_set, label_adjacency, oracle_net, oracle_quotient_mesh,
                      random_connected_graph, random_spec, same_layout)
from cheegernet import cli, families, netgraph
from cheegernet.graphtools import Graph
from cheegernet.hypmath import (
    ARCSINH_ONE,
    DomainError,
    delta1,
    thin_boundary_length,
)
from cheegernet.netgraph import (
    NetBuildParams,
    build_net,
    build_quotient_mesh,
    degree_bound,
    estimate_qi_constants,
    interior_vertices,
    max_degree,
    net_cheeger_estimate,
    net_tags,
    to_dot,
)
from cheegernet.surface import load_spec, make_spec

EPS = ARCSINH_ONE / 2.0
DELTA = 0.9 * delta1(EPS)
PARAMS = NetBuildParams(eps=EPS, delta=DELTA)


def spec_max_length(spec) -> float:
    lengths = [g.length for g in spec.gluings] + [o.length for o in spec.opens]
    return max(lengths, default=1.0)


def thin_pair_spec():
    """Two pieces: one thin gluing, one thick, a cusp and an open edge."""
    return make_spec(
        pieces=2,
        gluings=[
            ((0, 0), (1, 0), 0.5 * DELTA),
            ((0, 1), (1, 1), 1.2),
        ],
        cusps=[(0, 2)],
        opens=[((1, 2), 0.8)],
    )


class TestBuildNet:
    def test_params_validated(self):
        with pytest.raises(DomainError):
            NetBuildParams(eps=ARCSINH_ONE, delta=0.1)
        with pytest.raises(DomainError):
            NetBuildParams(eps=0.5, delta=delta1(0.5))
        with pytest.raises(DomainError):
            NetBuildParams(eps=0.5, delta=0.0)

    def test_ring_inventory(self):
        net = build_net(thin_pair_spec(), PARAMS)
        kinds = sorted(r.kind for r in net.rings)
        assert kinds == ["cusp", "open", "thick", "thin_side", "thin_side"]
        thin = [r for r in net.rings if r.kind == "thin_side"]
        want = thin_boundary_length(0.5 * DELTA, EPS)
        for r in thin:
            assert r.length == pytest.approx(want)
        cusp = next(r for r in net.rings if r.kind == "cusp")
        assert cusp.length == pytest.approx(2.0 * math.sinh(EPS))

    def test_thick_ring_shared(self):
        net = build_net(thin_pair_spec(), PARAMS)
        thick = next(r for r in net.rings if r.kind == "thick")
        assert thick.slot == (0, 1)  # canonical smaller slot owns labels
        assert net.ring_of_slot[(0, 1)] is thick
        assert net.ring_of_slot[(1, 1)] is thick
        # both hubs (vertices 0 and 1) spoke into every shared sample
        for i in thick.vertices:
            assert net.graph.has_edge(0, i)
            assert net.graph.has_edge(1, i)

    def test_special_structure(self):
        net = build_net(thin_pair_spec(), PARAMS)
        g = net.graph
        assert set(net.special_v) == {0}
        assert set(net.special_w) == {(0, 2)}
        specials = list(net.special_v.values()) + list(net.special_w.values())
        for a in specials:
            for b in specials:
                if a != b:
                    assert not g.has_edge(a, b)
        v = net.special_v[0]
        assert g.vertices()[v] == ("v", 0)
        assert g.vertices()[net.special_w[(0, 2)]] == ("w", 0, 2)
        thin_samples = [i for r in net.rings if r.kind == "thin_side" for i in r.vertices]
        assert g.neighbors(v) == thin_samples

    def test_connected_and_deterministic(self):
        spec = thin_pair_spec()
        n1 = build_net(spec, PARAMS)
        n2 = build_net(spec, PARAMS)
        assert n1.graph.is_connected()
        assert to_dot(n1.graph, net_tags(n1)) == to_dot(n2.graph, net_tags(n2))

    def test_ring_sample_counts(self):
        net = build_net(thin_pair_spec(), PARAMS)
        dens = PARAMS.density
        order = net.graph.vertices()
        for r in net.rings:
            assert len(r.vertices) == max(1, math.ceil(r.length * dens))
            assert [order[i] for i in r.vertices] == [
                ("net", r.slot[0], r.slot[1], j) for j in range(len(r.vertices))]

    def test_sample_budget_is_exact(self, monkeypatch):
        """A net of exactly MAX_NET_SAMPLES ring samples is built; one
        sample fewer allowed raises before any vertex is placed, naming
        the count."""
        samples = sum(len(r.vertices) for r in build_net(thin_pair_spec(), PARAMS).rings)
        monkeypatch.setattr(netgraph, "MAX_NET_SAMPLES", samples)
        build_net(thin_pair_spec(), PARAMS)
        monkeypatch.setattr(netgraph, "MAX_NET_SAMPLES", samples - 1)
        monkeypatch.setattr(netgraph, "Graph", None)  # placing a vertex would fail
        with pytest.raises(DomainError, match=f"at least {samples} ring samples, "
                                              f"more than the {samples - 1} allowed"):
            build_net(thin_pair_spec(), PARAMS)


class TestLayoutOracle:
    """build_net and build_quotient_mesh, which place each ring as one
    index range and write edges by index, against the builders of conftest
    that add one label and one edge at a time: the same labels by index,
    the same edge list (order and weights), the same neighbour order at
    every vertex, the same rings and specials, and the same inclusion map."""

    @staticmethod
    def check(spec, params):
        net = build_net(spec, params)
        want, rings, _ = oracle_net(spec, params)
        assert same_layout(net.graph, want)
        order = net.graph.vertices()
        assert [(r.kind, r.slot, r.gluing_index, r.length, tuple(order[i] for i in r.vertices))
                for r in net.rings] == rings
        assert all(order[i] == ("v", gi) for gi, i in net.special_v.items())
        assert all(order[i] == ("w", *c) for c, i in net.special_w.items())
        mesh, vmap = build_quotient_mesh(spec, params)
        want_mesh, want_vmap = oracle_quotient_mesh(spec, params)
        assert same_layout(mesh, want_mesh)
        assert vmap == {want.index_of(u): want_mesh.index_of(v) for u, v in want_vmap.items()}

    @pytest.mark.parametrize("name", ["flute8", "gen12", "loop", "closed"])
    def test_golden_specs(self, name):
        path = families.bundled_path("flute8.json") if name == "flute8" else GOLDEN / f"{name}.json"
        self.check(load_spec(path), PARAMS)

    def test_random_specs(self):
        """60 seeded specs with thin gluings, self-gluings, cusps and open
        curves; every fourth at a finer delta, so rings are longer."""
        rng = random.Random(2118)
        fine = NetBuildParams(eps=EPS, delta=0.5 * DELTA)
        kinds = set()
        for trial in range(60):
            spec = random_spec(rng, max_pieces=10, thin_below=2.0 * DELTA)
            kinds.update(r.kind for r in build_net(spec, PARAMS).rings)
            self.check(spec, fine if trial % 4 == 3 else PARAMS)
        assert kinds == {"thick", "thin_side", "cusp", "open"}


class TestDegreeBound:
    def test_random_suite(self):
        rng = random.Random(101)
        for _ in range(40):
            spec = random_spec(rng, max_pieces=8, thin_below=2.0 * DELTA)
            net = build_net(spec, PARAMS)
            bound = degree_bound(PARAMS, max_curve_length=spec_max_length(spec))
            assert max_degree(net.graph) <= bound, spec

    def test_tight_on_uniform_chain(self):
        spec = families.flute(4)
        net = build_net(spec, PARAMS)
        bound = degree_bound(PARAMS, max_curve_length=1.0)
        assert max_degree(net.graph) <= bound

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            degree_bound(NetBuildParams(0.5, delta1(0.5) * 1.1), max_curve_length=1.0)
        with pytest.raises(DomainError):
            degree_bound(NetBuildParams(0.5, 0.1), max_curve_length=0.0)


def oracle_membership(net, pieces):
    """Brute membership from the spec alone: which pieces each curve
    touches decides its samples; specials follow their carrier pieces."""
    spec = net.spec
    inset = set(pieces)
    slot_owner_pieces = {}
    for gl in spec.gluings:
        thin = gl.length < 2.0 * net.params.delta
        both = (gl.a[0], gl.b[0])
        slot_owner_pieces[gl.a] = (gl.a[0],) if thin else both
        slot_owner_pieces[gl.b] = (gl.b[0],) if thin else both
    for c in spec.cusps:
        slot_owner_pieces[c] = (c[0],)
    for o in spec.opens:
        slot_owner_pieces[o.at] = (o.at[0],)

    members = set()
    for v in net.graph.vertices():
        tag = v[0]
        if tag == "hub":
            if v[1] in inset:
                members.add(v)
        elif tag == "net":
            if all(p in inset for p in slot_owner_pieces[(v[1], v[2])]):
                members.add(v)
        elif tag == "w":
            if v[1] in inset:
                members.add(v)
        elif tag == "v":
            gl = spec.gluings[v[1]]
            if gl.a[0] in inset or gl.b[0] in inset:
                members.add(v)
    return members


class TestBoundarySets:
    def test_matches_oracle_on_random_specs(self):
        rng = random.Random(55)
        for _ in range(30):
            spec = random_spec(rng, max_pieces=8, thin_below=2.0 * DELTA)
            net = build_net(spec, PARAMS)
            size = rng.randint(1, spec.pieces)
            pieces = tuple(sorted(rng.sample(range(spec.pieces), size)))
            bs = boundary_vertex_set(net, pieces)
            want_members = oracle_membership(net, pieces)
            assert bs.members == want_members
            # frontier from adjacency, read by label
            adj = label_adjacency(net.graph)
            want_boundary = {
                u
                for m in want_members
                for u in adj[m]
                if u not in want_members
            }
            assert bs.boundary == want_boundary
            want_deep = {
                u
                for u in want_boundary
                if any(
                    x in want_members and x[0] in ("hub", "net")
                    for x in adj[u]
                )
            }
            assert bs.boundary_2delta == want_deep

    def test_cut_thick_ring_in_frontier(self):
        spec = thin_pair_spec()
        net = build_net(spec, PARAMS)
        bs = boundary_vertex_set(net, {0})
        thick = next(r for r in net.rings if r.kind == "thick")
        for i in thick.vertices:
            lab = net.graph.vertices()[i]
            assert lab not in bs.members
            assert lab in bs.boundary
            assert lab in bs.boundary_2delta

    def test_far_thin_ring_is_deep_frontier(self):
        spec = thin_pair_spec()
        net = build_net(spec, PARAMS)
        bs = boundary_vertex_set(net, {0})
        far = net.ring_of_slot[(1, 0)]  # thin side ring on the other piece
        for i in far.vertices:
            lab = net.graph.vertices()[i]
            assert lab not in bs.members
            assert lab in bs.boundary
            assert lab in bs.boundary_deep

    def test_validation(self):
        net = build_net(thin_pair_spec(), PARAMS)
        with pytest.raises(DomainError):
            boundary_vertex_set(net, set())
        with pytest.raises(DomainError):
            boundary_vertex_set(net, {5})


class TestInterior:
    def test_excludes_open_rings(self):
        net = build_net(thin_pair_spec(), PARAMS)
        interior = interior_vertices(net)
        open_ring = next(r for r in net.rings if r.kind == "open")
        assert interior == [i for i in range(net.graph.n) if i not in open_ring.vertices]
        assert 0 in interior  # hub 0

    def test_estimate_mode_switch(self):
        windowed = net_cheeger_estimate(build_net(thin_pair_spec(), PARAMS))
        assert windowed.mode == "ambient"
        closed = make_spec(
            pieces=2,
            gluings=[((0, s), (1, s), 1.0) for s in range(3)],
            cusps=[],
        )
        closed_rep = net_cheeger_estimate(build_net(closed, PARAMS))
        assert closed_rep.mode == "finite_half"


class TestQuotientMesh:
    def test_refinement_counts_and_weights(self):
        spec = thin_pair_spec()
        mesh, vmap = build_quotient_mesh(spec, PARAMS)
        net = build_net(spec, PARAMS)
        assert mesh.is_connected()
        # three mesh samples per net sample on every ring
        for ring in net.rings:
            key = mesh.vertices()[vmap[ring.vertices[0]]][:3]
            assert sum(v[:3] == key for v in mesh.vertices()) == 3 * len(ring.vertices)
        # per mesh ring: edge weights sum back to the curve length
        ring_lengths = {}
        order = mesh.vertices()
        for i, j, w in mesh.edges():
            u, v = order[i], order[j]
            if u[0] == "m" and v[0] == "m" and u[:3] == v[:3]:
                key = u[:3]
                ring_lengths[key] = ring_lengths.get(key, 0.0) + w
        thin = [r for r in net.rings if r.kind == "thin_side"]
        merged_len = thin[0].length
        assert any(
            abs(total - merged_len) < 1e-9 for total in ring_lengths.values()
        )

    def test_thin_sides_identified(self):
        spec = thin_pair_spec()
        mesh, vmap = build_quotient_mesh(spec, PARAMS)
        net = build_net(spec, PARAMS)
        ra = net.ring_of_slot[(0, 0)]
        rb = net.ring_of_slot[(1, 0)]
        for j in range(len(ra.vertices)):
            assert vmap[ra.vertices[j]] == vmap[rb.vertices[j]]
            assert mesh.vertices()[vmap[ra.vertices[j]]][3] == 3 * j

    def test_specials_dropped(self):
        spec = thin_pair_spec()
        mesh, vmap = build_quotient_mesh(spec, PARAMS)
        net = build_net(spec, PARAMS)
        for i in list(net.special_v.values()) + list(net.special_w.values()):
            assert i not in vmap
        for v in mesh.vertices():
            assert v[0] in ("hub", "m")

    def test_spoke_weights_clamped(self):
        spec = thin_pair_spec()
        mesh, vmap = build_quotient_mesh(spec, PARAMS)
        order = mesh.vertices()
        for i, j, w in mesh.edges():
            u, v = order[i], order[j]
            if u[0] == "hub" or v[0] == "hub":
                assert PARAMS.delta - 1e-12 <= w <= 1.0 + 1e-12


GOLDEN = Path(__file__).resolve().parent / "golden"


def qi_oracle(rep, graph_a, graph_b, vmap):
    """Checks a QIReport pair by pair in exact rationals, from the full
    distance matrices: (alpha, beta) holds for every mapped pair i < j of
    vertex indices; beta is alpha when alpha > 1 and no smaller float
    (K', K') holds, else no smaller beta holds at alpha = 1; `hops` holds
    the least and greatest image distance at each hop count; fullness is
    the largest elementwise minimum of whole-graph Dijkstra rows, one per
    image, bit for bit."""
    dom = sorted(vmap)
    img = [vmap[i] for i in dom]
    iu = np.triu_indices(len(dom), k=1)
    da = graph_a.distance_matrix()[np.ix_(dom, dom)][iu].tolist()
    db = graph_b.distance_matrix(weighted=True)[np.ix_(img, img)][iu].tolist()
    pairs = {(h, Fraction(d)) for h, d in zip(da, db)}

    def holds(alpha, beta):
        a, b = Fraction(alpha), Fraction(beta)
        return all(h / a - b <= d <= a * h + b for h, d in pairs)

    assert rep.alpha >= 1.0 and holds(rep.alpha, rep.beta)
    if rep.alpha > 1.0:
        assert rep.beta == rep.alpha
        down = math.nextafter(rep.alpha, 0.0)
        assert not holds(down, down)
    else:
        assert rep.beta == 0.0 or not holds(1.0, math.nextafter(rep.beta, 0.0))
    extremes = {}
    for h, d in zip(da, db):
        lo, hi = extremes.get(h, (d, d))
        extremes[h] = (min(lo, d), max(hi, d))
    assert rep.hops == [[h, lo, hi] for h, (lo, hi) in sorted(extremes.items())]
    nearest = np.min([graph_b.dijkstra(i) for i in img], axis=0)
    assert np.float64(rep.fullness).tobytes() == nearest.max().tobytes()
    assert rep.pairs == len(da)


def float_formula(rep) -> float:
    """The closed form of the QI constant from `hops`, in floats."""
    return max([1.0] + [max(hi / (h + 1), 2 * h / (math.sqrt(lo * lo + 4 * h) + lo))
                        for h, lo, hi in rep.hops])


def random_map(rng: random.Random):
    """A random connected graph, a random weighted connected graph and a
    map from a random subset of the first's vertices into the second."""
    a = random_connected_graph(rng, rng.randint(2, 25), rng.randint(0, 12))
    b = random_connected_graph(rng, rng.randint(1, 25), rng.randint(0, 12))
    for u, v, _ in list(b.edges()):
        b.add_edge(u, v, rng.uniform(0.05, 4.0))
    mapped = rng.sample(a.vertices(), rng.randint(2, a.n))
    return a, b, {v: rng.choice(b.vertices()) for v in mapped}


class TestQI:
    def test_identity_map(self):
        g = Graph()
        for v in range(1, 8):
            g.add_edge(v - 1, v)
        rep = estimate_qi_constants(g, g, {v: v for v in g.vertices()})
        assert rep.alpha == 1.0
        assert rep.beta == 0.0
        assert rep.fullness == 0.0

    def test_halved_path_needs_the_root_at_eleven_hops(self):
        """Hop count h maps to distance h/2, so K^2 + K*h/2 >= h binds at
        the longest pair, 11 hops: K is the least float at or above
        (sqrt(74.25) - 5.5)/2, where the float formula lands lower."""
        a = Graph()
        for v in range(1, 12):
            a.add_edge(v - 1, v)
        b = Graph()
        for v in range(1, 12):
            b.add_edge(v - 1, v, 0.5)
        vmap = {v: v for v in a.vertices()}
        rep = estimate_qi_constants(a, b, vmap)
        assert rep.alpha == rep.beta == 1.5584219849035217
        k = Fraction(rep.alpha)
        assert k * k + k * Fraction(11, 2) >= 11
        k = Fraction(math.nextafter(rep.alpha, 0.0))
        assert k * k + k * Fraction(11, 2) < 11
        assert float_formula(rep) < rep.alpha
        qi_oracle(rep, a, b, vmap)

    def test_beta_at_alpha_one_rounds_up(self):
        """One edge of length 3*2^-55 against one hop: K = 1, and beta(1) =
        1 - 3*2^-55, whose nearest float lies below it, so the least float
        that passes is 1.0."""
        a, b = Graph(), Graph()
        a.add_edge(0, 1)
        b.add_edge(0, 1, 3 * 2.0 ** -55)
        rep = estimate_qi_constants(a, b, {0: 0, 1: 1})
        assert 1.0 - 3 * 2.0 ** -55 < 1.0
        assert (rep.alpha, rep.beta) == (1.0, 1.0)
        qi_oracle(rep, a, b, {0: 0, 1: 1})

    def test_beta_monotone_in_alpha(self):
        """beta(alpha) read off `hops` has the bits of the maximum over all
        pairs, at alpha = 1, K and 2K, and does not grow with alpha."""
        spec = families.flute(4)
        net = build_net(spec, PARAMS)
        mesh, vmap = build_quotient_mesh(spec, PARAMS)
        rep = estimate_qi_constants(net.graph, mesh, vmap)
        dom = sorted(vmap)
        iu = np.triu_indices(len(dom), k=1)
        da = net.graph.distance_matrix()[np.ix_(dom, dom)][iu].astype(np.float64)
        img = [vmap[i] for i in dom]
        db = mesh.distance_matrix(weighted=True)[np.ix_(img, img)][iu]
        h, lo, hi = np.array(rep.hops).T
        betas = []
        for alpha in (1.0, rep.alpha, 2 * rep.alpha):
            beta = max(0.0, (hi - alpha * h).max(), (h / alpha - lo).max())
            assert beta == max(0.0, (db - alpha * da).max(), (da / alpha - db).max())
            betas.append(beta)
        assert betas == sorted(betas, reverse=True)
        assert rep.fullness >= 0.0

    @pytest.mark.parametrize("name", ["flute8", "gen12", "loop", "closed"])
    def test_golden_specs_match_pair_oracle(self, name):
        path = families.bundled_path("flute8.json") if name == "flute8" else GOLDEN / f"{name}.json"
        spec = load_spec(path)
        net = build_net(spec, PARAMS)
        mesh, vmap = build_quotient_mesh(spec, PARAMS)
        qi_oracle(estimate_qi_constants(net.graph, mesh, vmap), net.graph, mesh, vmap)

    def test_random_maps_match_pair_oracle(self):
        """60 seeded maps, and the map of seed 247, the first seed whose
        closed form rounds an ulp above the least float that passes, so
        the estimate must step down."""
        rng = random.Random(1985)
        for a, b, vmap in [random_map(rng) for _ in range(60)] + [random_map(random.Random(247))]:
            rep = estimate_qi_constants(a, b, vmap)
            qi_oracle(rep, a, b, vmap)
        assert float_formula(rep) == math.nextafter(rep.alpha, math.inf)

    def test_peak_memory_below_one_image_row_matrix(self):
        """Only the mapped x mapped hop counts, the image x image distances,
        the whole rows of the mesh's cut vertices and a chunk of pairs are
        held, so the peak stays below one float64 matrix of the images'
        rows over every mesh vertex, which the estimate once held three
        copies of."""
        spec = families.pants_tree(6)
        net = build_net(spec, PARAMS)
        mesh, vmap = build_quotient_mesh(spec, PARAMS)
        tracemalloc.start()
        try:
            estimate_qi_constants(net.graph, mesh, vmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(vmap) * mesh.n * 8

    def test_qi_searches_fewer_sources_than_mesh_vertices(self, monkeypatch, capsys):
        """`qi` asks the mesh only for the image rows, so it runs fewer
        Dijkstra searches than a full weighted matrix would (one per mesh
        vertex and one more per block)."""
        path = families.bundled_path("flute8.json")
        mesh, _ = build_quotient_mesh(load_spec(path), PARAMS)
        searches = []
        dijkstra = Graph.dijkstra

        def counted(self, *sources):
            searches.append(sources)
            return dijkstra(self, *sources)

        monkeypatch.setattr(Graph, "dijkstra", counted)
        assert cli.main(["qi", str(path)]) == cli.EXIT_OK
        capsys.readouterr()
        assert 0 < len(searches) < mesh.n


class TestSerialization:
    def test_dot_output(self):
        net = build_net(thin_pair_spec(), PARAMS)
        text = to_dot(net.graph, net_tags(net))
        assert text.startswith("graph net {")
        assert text.rstrip().endswith("}")
        assert text.count(" -- ") == len(list(net.graph.edges()))

    def test_tags_carry_curve_kind(self):
        net = build_net(thin_pair_spec(), PARAMS)
        tags = net_tags(net)
        assert len(tags) == net.graph.n
        kinds = {t.split(":")[-1] for t in tags if t.startswith("net:")}
        assert kinds == {"thick", "thin_side", "cusp", "open"}
