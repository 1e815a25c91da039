"""End-to-end acceptance checks.

Each test prints one [NN tag] PASS/FAIL line so a piped run shows the
verdict table; assertions carry the same numbers.  Oracles here are
self-contained re-derivations (bit loops, O(n^4) scans, spec-side
membership rules), independent of the library code they check.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import numpy as np

from conftest import (boundary_split, boundary_vertex_set, bundled_families, criterion_line,
                      cycle_graph, label_adjacency, mask_members, random_connected_graph, random_spec,
                      random_tree)
from cheegernet import families, graphtools, isoperimetry, netgraph, surface
from cheegernet.hypmath import ARCSINH_ONE, delta1, thin_boundary_length, thin_collar_area
from test_hypmath import shrunk_collar_area_bound, thin_separation

EPS = ARCSINH_ONE / 2.0
DELTA = 0.9 * delta1(EPS)
PARAMS = netgraph.NetBuildParams(eps=EPS, delta=DELTA)
TOL = 1e-9


def bundled_specs():
    """The shipped example spec plus every instance of the shipped families."""
    out = [("flute8", surface.load_spec(families.bundled_path("flute8.json")))]
    for name, path in sorted(bundled_families().items()):
        fam = families.load_family(path)
        for v in fam.values():
            out.append((f"{name}({v})", fam.instance(v)))
    return out


def loglog_slope(xs, ys) -> float:
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    coeffs = np.vstack([lx, np.ones_like(lx)]).T
    sol, *_ = np.linalg.lstsq(coeffs, ly, rcond=None)
    return float(sol[0])


def trend_label(slope: float) -> str:
    if slope < -0.2:
        return "decaying"
    if slope > 0.2:
        return "growing"
    return "flat"


def test_01_collar_bound_grid():
    """Thin-collar boundary, area, shrunk-area, and separation floors hold on
    a 200-point (l, eps) grid with zero violations, in under a second."""
    half_delta0 = math.log(4.0 / 3.0)
    violations = 0
    checks = 0
    start = time.perf_counter()
    for k in range(1, 21):
        eps = ARCSINH_ONE * k / 21.0
        sh = math.sinh(eps)
        d = math.asinh(math.sqrt(3.0) / 4.0 * sh)
        floor = math.log(1.0 / sh)
        for j in range(1, 11):
            # multiply by the fraction, not (2*eps*j)/10: monotone rounding
            # then keeps l <= 2*eps exactly at j = 10
            l = 2.0 * eps * (j / 10.0)
            checks += 3
            if not (thin_boundary_length(l, eps) <= 2.0 * sh + TOL and 2.0 * sh < 2.0):
                violations += 1
            full = thin_collar_area(l, eps)
            if not full < 4.0 * sh + TOL:
                violations += 1
            if j < 10:
                if not thin_separation(l, eps) > floor - TOL:
                    violations += 1
            if l <= 2.0 * d:
                for delta0 in (half_delta0, 0.5 * half_delta0):
                    checks += 1
                    shrunk, holds = shrunk_collar_area_bound(l, eps, delta0)
                    if not (holds and shrunk > 0.5 * full - TOL):
                        violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 1.0
    criterion_line(
        "01 collar-bounds", ok,
        f"grid=200 checks={checks} violations={violations} elapsed={elapsed:.3f}s",
    )
    assert violations == 0
    assert elapsed < 1.0


def test_02_separation_limit():
    """As the core length collapses, the collar separation approaches its
    ln(1/sinh eps) floor."""
    worst = 0.0
    for eps in (0.2, 0.5, 0.8):
        gap = abs(thin_separation(1e-6, eps) - math.log(1.0 / math.sinh(eps)))
        worst = max(worst, gap)
    ok = worst <= 1e-5
    criterion_line("02 separation-limit", ok, f"worst_gap={worst:.3e}")
    assert worst <= 1e-5


def test_03_domain_area_arithmetic():
    """Every connected domain of every shipped spec (exhaustive to 12 pieces)
    satisfies area = 2*pi*(m+p-2+2g) = 2*pi*k with g >= 0 and m <= 3k."""
    specs = bundled_specs()
    domains = 0
    violations = 0
    for _, spec in specs:
        for mask in surface.connected_piece_subsets(spec, 12):
            dom = surface.domain_from_pieces(spec, mask_members(mask))
            domains += 1
            k = len(dom.piece_set)
            euler_pieces = dom.boundary_count + dom.cusp_count - 2 + 2 * dom.genus
            if dom.genus < 0:
                violations += 1
            if euler_pieces != k:
                violations += 1
            if dom.area != 2.0 * math.pi * k:
                violations += 1
            if dom.boundary_count > 3 * k:
                violations += 1
    ok = violations == 0 and domains > 0
    criterion_line(
        "03 domain-arithmetic", ok,
        f"specs={len(specs)} domains={domains} violations={violations}",
    )
    assert violations == 0
    assert domains > 0


def test_04_flute_ratio_and_regularity():
    """The length-1 chain family realizes the closed-form best ratio 1/(pi*n)
    exactly, with an infinite regularity constant below the curve length."""
    bad = []
    for n in range(2, 21):
        spec = families.flute(n)
        for delta in (0.3, 0.9):
            rep, reg = isoperimetry.domain_reports(spec, delta, max_pieces=n)
            if rep.h_g != 1.0 / (math.pi * n):
                bad.append(("h_g", n, delta))
            if rep.best_domain.piece_set != tuple(range(n)):
                bad.append(("domain", n, delta))
            if not math.isinf(reg.worst_c):
                bad.append(("worst_c", n, delta))
    ok = not bad
    criterion_line("04 flute-ratio", ok, f"n=2..20 mismatches={bad!r}")
    assert not bad


def test_05_shrinking_witness_chain():
    """Shrinking-boundary chains are witnesses against regularity: worst_c
    collapses to zero and every witness domain G with all-short boundary
    satisfies area(G) > (n*pi/3) * L(boundary G)."""
    rows = []
    bad = []
    for n in (5, 10, 20):
        spec = families.shrinking_flute(n)
        delta = 1.0 / n
        _, rep = isoperimetry.domain_reports(spec, delta, max_pieces=12)
        if rep.worst_c != 0.0:
            bad.append(("worst_c", n, rep.worst_c))
        witnesses = 0
        for mask in surface.connected_piece_subsets(spec, 12):
            dom = surface.domain_from_pieces(spec, mask_members(mask))
            long_total, short_count = boundary_split(dom, delta)
            if long_total < delta * short_count:
                witnesses += 1
                total = surface.boundary_length(dom)
                if not dom.area > (n * math.pi / 3.0) * total - TOL:
                    bad.append(("area", n, dom.piece_set))
        if witnesses == 0:
            bad.append(("no_witness", n))
        rows.append(f"n={n}:{witnesses}w")
    ok = not bad
    criterion_line("05 shrinking-regularity", ok, " ".join(rows) + f" mismatches={bad!r}")
    assert not bad


def oracle_net_membership(net, pieces):
    """Spec-side membership rule: a ring sample belongs to a piece set iff
    every piece its curve touches is in the set; specials follow carriers."""
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
        if tag in ("hub", "w"):
            if v[1] in inset:
                members.add(v)
        elif tag == "net":
            if all(p in inset for p in slot_owner_pieces[(v[1], v[2])]):
                members.add(v)
        elif tag == "v":
            gl = spec.gluings[v[1]]
            if gl.a[0] in inset or gl.b[0] in inset:
                members.add(v)
    return members


def test_06_net_structure_random_suite():
    """100 seeded random specs: special vertices are never adjacent to each
    other, their neighborhoods are pairwise disjoint, the max degree respects
    the packing bound, and piece-set membership matches the spec-side rule."""
    rng = random.Random(2026)
    bad = []
    nets = 0
    membership_checks = 0
    for i in range(100):
        spec = random_spec(rng, max_pieces=10, thin_below=2.0 * DELTA)
        net = netgraph.build_net(spec, PARAMS)
        nets += 1
        g = net.graph
        specials = set(net.special_w.values()) | set(net.special_v.values())
        hoods = []
        for s in sorted(specials):
            nb = set(g.neighbors(s))
            if nb & specials:
                bad.append(("special-adjacent", i))
            hoods.append(nb)
        if sum(len(h) for h in hoods) != len(set().union(*hoods) if hoods else set()):
            bad.append(("overlap", i))
        lengths = [gl.length for gl in spec.gluings] + [o.length for o in spec.opens]
        bound = netgraph.degree_bound(PARAMS, max_curve_length=max(lengths, default=1.0))
        if netgraph.max_degree(g) > bound:
            bad.append(("degree", i, netgraph.max_degree(g), bound))
        adj = label_adjacency(g)
        for _ in range(4):
            size = rng.randint(1, spec.pieces)
            pieces = tuple(sorted(rng.sample(range(spec.pieces), size)))
            bs = boundary_vertex_set(net, pieces)
            want = oracle_net_membership(net, pieces)
            frontier = {
                u for m in want for u in adj[m] if u not in want
            }
            near = {
                u
                for u in frontier
                if any(
                    x in want and x[0] in ("hub", "net") for x in adj[u]
                )
            }
            membership_checks += 1
            if bs.members != want or bs.boundary != frontier:
                bad.append(("membership", i, pieces))
            elif bs.boundary_2delta != near or bs.boundary_deep != frontier - near:
                bad.append(("frontier-split", i, pieces))
    ok = not bad
    criterion_line(
        "06 net-structure", ok,
        f"nets={nets} membership_checks={membership_checks} mismatches={bad!r}",
    )
    assert not bad


def brute_cheeger_half(g) -> float:
    """Independent bit-loop sweep of all subsets up to half the vertices."""
    n = g.n
    edges = [(u, v) for u, v, _ in g.edges()]
    cap = n // 2
    best = math.inf
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > cap:
            continue
        cut = 0
        for u, v in edges:
            if ((mask >> u) & 1) != ((mask >> v) & 1):
                cut += 1
        best = min(best, float(cut) / size)
    return best


def test_07_cheeger_matches_bruteforce():
    """Exhaustive Cheeger values equal the independent all-subsets sweep on
    200 seeded connected graphs of at most 14 vertices."""
    rng = random.Random(77)
    mismatches = 0
    graphs = 0
    for _ in range(200):
        n = rng.randint(2, 14)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        graphs += 1
        rep = graphtools.cheeger(g, mode="finite_half")
        want = brute_cheeger_half(g)
        if not rep.exact or rep.value != want:
            mismatches += 1
    ok = mismatches == 0 and graphs >= 200
    criterion_line("07 cheeger-oracle", ok, f"graphs={graphs} mismatches={mismatches}")
    assert mismatches == 0
    assert graphs >= 200


def brute_four_point(g) -> float:
    """O(n^4) four-point constant from the raw distance matrix."""
    order = g.vertices()
    n = len(order)
    dist = g.distance_matrix()
    best = 0.0
    for x, y, u, v in itertools.combinations(range(n), 4):
        s1 = dist[x][y] + dist[u][v]
        s2 = dist[x][u] + dist[y][v]
        s3 = dist[x][v] + dist[y][u]
        hi, mid, _ = sorted((s1, s2, s3), reverse=True)
        best = max(best, (hi - mid) / 2.0)
    return best


def test_08_hyperbolicity_oracles():
    """Four-point delta is exactly zero on 50 random trees and matches the
    independent O(n^4) scan on the cycles C_4 .. C_12."""
    rng = random.Random(5)
    tree_bad = 0
    for _ in range(50):
        t = random_tree(rng, rng.randint(2, 40))
        if graphtools.hyperbolicity_delta(t).delta != 0.0:
            tree_bad += 1
    cycle_bad = []
    for n in range(4, 13):
        c = cycle_graph(n)
        got = graphtools.hyperbolicity_delta(c).delta
        want = brute_four_point(c)
        if got != want:
            cycle_bad.append((n, got, want))
    ok = tree_bad == 0 and not cycle_bad
    criterion_line(
        "08 hyperbolicity-oracle", ok,
        f"trees=50 tree_mismatches={tree_bad} cycle_mismatches={cycle_bad!r}",
    )
    assert tree_bad == 0
    assert not cycle_bad


FAMILY_SWEEPS = (
    ("flute", families.flute, (4, 8, 12, 16, 20), None),
    ("shrinking_flute", families.shrinking_flute, (4, 8, 12, 16, 20), None),
    ("genus_ladder", families.genus_ladder, (2, 4, 6, 8, 10), None),
    ("pants_tree", families.pants_tree, (3, 4, 5, 6), 12),
)


def test_09_family_trend_agreement():
    """Across the four shipped families, the best-ratio series and the net
    graph Cheeger estimate decay together or stay bounded together.  Trends
    are log-log slopes against instance size with a +-0.2 flat zone."""
    rows = []
    agree = 0
    for name, builder, values, cap in FAMILY_SWEEPS:
        sizes, hgs, cheegers = [], [], []
        for v in values:
            spec = builder(v)
            notch = cap if cap is not None else spec.pieces
            sizes.append(spec.pieces)
            hgs.append(isoperimetry.domain_reports(spec, DELTA, max_pieces=notch)[0].h_g)
            net = netgraph.build_net(spec, PARAMS)
            cheegers.append(netgraph.net_cheeger_estimate(net).value)
        t_h = trend_label(loglog_slope(sizes, hgs))
        t_c = trend_label(loglog_slope(sizes, cheegers))
        match = (t_h == "decaying") == (t_c == "decaying")
        agree += match
        rows.append(f"{name}:{t_h}/{t_c}")
    ok = agree == 4
    criterion_line("09 family-trends", ok, f"agree={agree}/4 " + " ".join(rows))
    assert agree == 4


def test_10_qi_constants_stable():
    """The quasi-isometry constant (alpha, beta) and the fullness between a
    net and its quotient mesh are the same floats across flute sizes 5,
    10 and 20."""
    reps = []
    for n in (5, 10, 20):
        spec = families.flute(n)
        net = netgraph.build_net(spec, PARAMS)
        mesh, vmap = netgraph.build_quotient_mesh(spec, PARAMS)
        rep = netgraph.estimate_qi_constants(net.graph, mesh, vmap)
        reps.append((rep.alpha, rep.beta, rep.fullness))
    ok = len(set(reps)) == 1
    criterion_line("10 qi-stability", ok, f"(alpha, beta, fullness)={reps!r}")
    assert ok


def _proxy_up(spec):
    net = netgraph.build_net(spec, PARAMS)
    proxy = graphtools.boundary_proxy(
        net.graph, net.graph.distance_matrix(), keep=netgraph.ring_samples(net)
    )
    return graphtools.uniform_perfectness(proxy.dists, a=proxy.a, radius=proxy.radius)


def test_11_perfectness_vs_decay():
    """Decaying family: boundary proxies are not uniformly perfect at any
    S <= 8, and their exact constant S grows strictly with the flute's
    length.  Bounded family: proxies pass at some S <= 8.  Each verdict
    must agree with the family's best-ratio trend."""
    flute_ups = [_proxy_up(families.flute(n)) for n in (10, 14, 18)]
    flute_fail = not any(up.passed for up in flute_ups)
    flute_s = [up.s_value for up in flute_ups]
    flute_grows = None not in flute_s and flute_s == sorted(set(flute_s))
    flute_vals = [
        isoperimetry.domain_reports(families.flute(n), DELTA, max_pieces=n)[0].h_g
        for n in (4, 8, 12, 16, 20)
    ]
    flute_decays, _, _ = isoperimetry.is_decaying((4, 8, 12, 16, 20), flute_vals)

    tree_ups = [_proxy_up(families.pants_tree(d)) for d in (3, 4, 5)]
    tree_pass = all(up.passed and up.s_value <= 8.0 for up in tree_ups)
    tree_vals = [
        isoperimetry.domain_reports(families.pants_tree(d), DELTA, max_pieces=12)[0].h_g
        for d in (3, 4, 5, 6)
    ]
    tree_decays, _, _ = isoperimetry.is_decaying((3, 4, 5, 6), tree_vals)

    ok = flute_fail and flute_grows and flute_decays and tree_pass and not tree_decays
    criterion_line(
        "11 perfectness-decay", ok,
        f"flute: up_fail={flute_fail} s={flute_s!r} decays={flute_decays}; "
        f"tree: up_pass={tree_pass} s={[u.s_value for u in tree_ups]!r} "
        f"decays={tree_decays}",
    )
    assert flute_fail and flute_decays
    assert flute_grows
    assert tree_pass and not tree_decays
