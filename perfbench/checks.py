"""Output checks for the benchmark, kept apart from the program.

Nothing here imports cheegernet.  Every reference value is recomputed from
the input files: closed forms and brute force for the family sweeps, and a
net rebuilt by the documented ring rule for the graph reports.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import ast
import json
import math
from collections import deque

import numpy as np

EPS = math.asinh(1.0) / 2.0
CAP = 12  # the CLI's default --max-pieces
REL = 1e-12

# The one fault the benchmark keeps as failed operations: with the default
# cap, h_g of the flute and genus_ladder families plateaus at the capped
# minimum, so their sweeps report has_LII_evidence although the true infimum
# decays.
KNOWN_FAULT = "h_g plateaus at the --max-pieces 12 cap"


def delta1(eps: float) -> float:
    return min(-math.log(math.sinh(eps)), math.asinh(math.sqrt(3.0) / 4.0 * math.sinh(eps)))


DELTA = 0.9 * delta1(EPS)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Family sweeps


def chain_ratios(cuts: list[float], left: float, right: float) -> dict[int, float]:
    """Least boundary/area ratio of a chain of pieces, per interval size.

    Piece i and i+1 share boundary of total length cuts[i]; the two ends
    carry open curves of lengths left and right.  Connected piece sets of a
    chain are its intervals, so this is a brute force over all of them.
    """
    m = len(cuts) + 1
    best: dict[int, float] = {}
    for i in range(m):
        lo = left if i == 0 else cuts[i - 1]
        for j in range(i, m):
            hi = right if j == m - 1 else cuts[j]
            k = j - i + 1
            r = (lo + hi) / (2.0 * math.pi * k)
            if r < best.get(k, math.inf):
                best[k] = r
    return best


def family_ratios(family: str, n: int) -> dict[int, float]:
    """Least ratio per domain size for one instance of a bundled family."""
    if family == "flute":
        return chain_ratios([1.0] * (n - 1), 1.0, 1.0)
    if family == "shrinking_flute":
        return chain_ratios([1.0 / (n * n)] * (n - 1), 1.0 / n, 1.0 / n)
    if family == "genus_ladder":
        # Pieces 2i, 2i+1 share two curves (1 and 1/(4n)); rungs share one.
        cuts = [1.0 + 1.0 / (4.0 * n) if i % 2 == 0 else 1.0 for i in range(2 * n - 1)]
        return chain_ratios(cuts, 1.0, 1.0)
    if family == "pants_tree":
        # Every piece of the tree window uses all three slots, so a connected
        # set of k pieces has k + 2 boundary curves of length 1.
        pieces = 1 + 3 * (2 ** (n - 1) - 1)
        return {k: (k + 2) / (2.0 * math.pi * k) for k in range(1, pieces + 1)}
    raise ValueError(f"no reference for family {family!r}")


def loglog_decays(params, values, tail: int = 5) -> bool:
    """The sweep's trend rule: the largest `tail` instances decay when the
    least-squares log-log slope is below -0.5 with R^2 above 0.9."""
    pts = sorted(zip(params, values))[-tail:]
    xs = [math.log(p) for p, _ in pts]
    ys = [math.log(v) for _, v in pts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    slope = sxy / sxx
    ss_res = sum((y - (my + slope * (x - mx))) ** 2 for x, y in zip(xs, ys))
    r2 = 1.0 if syy == 0.0 else 1.0 - ss_res / syy
    return slope < -0.5 and r2 > 0.9


def parse_sweep(text: str, fmt: str) -> tuple[str, list[tuple[int, float]]]:
    """(family verdict, [(param, h_g), ...]) from a sweep's json or csv."""
    if fmt == "json":
        doc = json.loads(text)
        rows = [(r["param"], r["h_g"]) for r in doc["rows"]]
        verdicts = {doc["verdict"]} | {r["verdict"] for r in doc["rows"]}
    else:
        lines = text.strip().splitlines()
        if lines[0] != "param,h_g,best_domain_size,worst_c,verdict":
            raise ValueError(f"unexpected csv header {lines[0]!r}")
        cells = [ln.split(",") for ln in lines[1:]]
        rows = [(int(c[0]), float(c[1])) for c in cells]
        verdicts = {c[4] for c in cells}
    if len(verdicts) != 1:
        raise ValueError(f"rows disagree on the verdict: {sorted(verdicts)}")
    return verdicts.pop(), rows


def check_sweep(text: str, fmt: str, family: str, lo: int, hi: int, cap: int = CAP) -> list[str]:
    """Every row lies between the true infimum and the capped minimum, and
    the verdict matches the trend of the true infimum.  A wrong verdict that
    the trend of the capped minimum explains is reported as KNOWN_FAULT."""
    problems = []
    verdict, rows = parse_sweep(text, fmt)
    if [p for p, _ in rows] != list(range(lo, hi + 1)):
        return [f"{family}: rows cover {[p for p, _ in rows]}, expected {lo}..{hi}"]
    true_inf, capped_min = [], []
    for n, h in rows:
        best = family_ratios(family, n)
        true_inf.append(min(best.values()))
        capped_min.append(min(v for k, v in best.items() if k <= cap))
        if not (true_inf[-1] * (1 - REL) <= h <= capped_min[-1] * (1 + REL)):
            problems.append(f"{family} n={n}: h_g={h!r} outside [{true_inf[-1]!r}, {capped_min[-1]!r}]")
    params = range(lo, hi + 1)
    expected = "no_LII_evidence" if loglog_decays(params, true_inf) else "has_LII_evidence"
    if verdict != expected:
        capped = "no_LII_evidence" if loglog_decays(params, capped_min) else "has_LII_evidence"
        prefix = f"{KNOWN_FAULT}: " if verdict == capped else ""
        problems.append(f"{prefix}{family}: verdict {verdict}, but the true infimum gives {expected}")
    return problems


# ---------------------------------------------------------------------------
# The net, rebuilt by the ring rule


class RingNet:
    """Net of a spec file rebuilt from the ring rule.

    One hub per piece; a ring of ceil(length * density) samples per thick
    gluing (labeled by its smaller slot), per side of a thin gluing (at the
    thin-collar boundary length), per cusp (at the horocycle length 2
    sinh(eps)) and per open curve; a special vertex per thin gluing and per
    cusp joined to all samples of its rings; each hub joined to the samples
    of its three slots.  Labels follow the program's label scheme so that
    reported witnesses can be looked up by their printed form.
    """

    def __init__(self, spec: dict, eps: float = EPS, delta: float = DELTA):
        dens = max(1.0 / delta, 1.0)
        self.adj: dict = {}
        self.open_slots = {tuple(o["at"]) for o in spec.get("opens", [])}
        self.specials = 0
        ring_of_slot: dict = {}

        def vertex(v):
            self.adj.setdefault(v, set())

        def edge(u, v):
            vertex(u)
            vertex(v)
            self.adj[u].add(v)
            self.adj[v].add(u)

        def ring(slot, length):
            k = max(1, math.ceil(length * dens))
            labels = [("net", slot[0], slot[1], j) for j in range(k)]
            for lab in labels:
                vertex(lab)
            if k == 2:
                edge(labels[0], labels[1])
            elif k > 2:
                for j in range(k):
                    edge(labels[j], labels[(j + 1) % k])
            return labels

        for p in range(spec["pieces"]):
            vertex(("hub", p))
        for gi, g in enumerate(spec["gluings"]):
            a, b = sorted([tuple(g["a"]), tuple(g["b"])])
            length = g["length"]
            if length < 2.0 * delta:
                side = length * math.sinh(eps) / math.sinh(0.5 * length)
                ring_of_slot[a] = ring(a, side)
                ring_of_slot[b] = ring(b, side)
                self.specials += 1
                for lab in ring_of_slot[a] + ring_of_slot[b]:
                    edge(("v", gi), lab)
            else:
                ring_of_slot[a] = ring_of_slot[b] = ring(a, length)
        for c in spec["cusps"]:
            c = tuple(c)
            ring_of_slot[c] = ring(c, 2.0 * math.sinh(eps))
            self.specials += 1
            for lab in ring_of_slot[c]:
                edge(("w", c[0], c[1]), lab)
        for o in spec.get("opens", []):
            ring_of_slot[tuple(o["at"])] = ring(tuple(o["at"]), o["length"])
        for p in range(spec["pieces"]):
            for s in range(3):
                for lab in ring_of_slot[(p, s)]:
                    edge(("hub", p), lab)

    @property
    def n(self) -> int:
        return len(self.adj)

    def edge_set(self) -> set:
        return {frozenset((u, v)) for u in self.adj for v in self.adj[u]}

    def bfs(self, source) -> dict:
        dist = {source: 0}
        q = deque([source])
        while q:
            u = q.popleft()
            for v in self.adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    def distance_matrix(self) -> tuple[list, np.ndarray]:
        order = list(self.adj)
        index = {v: i for i, v in enumerate(order)}
        mat = np.empty((len(order), len(order)), dtype=np.int64)
        for i, v in enumerate(order):
            for u, d in self.bfs(v).items():
                mat[i, index[u]] = d
        return order, mat


def label_of(printed: str):
    """A vertex label from its printed form, e.g. "('net', 0, 1, 3)"."""
    return ast.literal_eval(printed)


def label_of_tag(tag: str):
    """A vertex label from a `net --format json` tag, e.g. "net:0:1:3:thick"."""
    parts = tag.split(":")
    if parts[0] == "net":
        return ("net", int(parts[1]), int(parts[2]), int(parts[3]))
    return (parts[0], *(int(x) for x in parts[1:]))


# ---------------------------------------------------------------------------
# Hyperbolicity


def four_point_defect(d: np.ndarray, quad) -> float:
    """(largest - middle)/2 of the three pairing sums of a quadruple."""
    x, y, z, w = quad
    sums = sorted([d[x, y] + d[z, w], d[x, z] + d[y, w], d[x, w] + d[y, z]])
    return (float(sums[2]) - float(sums[1])) / 2.0


def sampled_defect(d: np.ndarray, seed: int, count: int = 20000) -> float:
    q = np.random.default_rng(abs(seed)).integers(0, d.shape[0], size=(count, 4))
    s = np.sort(
        np.stack(
            [
                d[q[:, 0], q[:, 1]] + d[q[:, 2], q[:, 3]],
                d[q[:, 0], q[:, 2]] + d[q[:, 1], q[:, 3]],
                d[q[:, 0], q[:, 3]] + d[q[:, 1], q[:, 2]],
            ]
        ),
        axis=0,
    )
    return float((s[2] - s[1]).max()) / 2.0


def check_hyperbolicity(text: str, ref: tuple[list, np.ndarray], seed: int) -> list[str]:
    order, d = ref
    index = {v: i for i, v in enumerate(order)}
    rep = json.loads(text)
    delta = rep["delta"]
    problems = []
    if rep["exact"] is not True:
        problems.append("hyperbolicity: exact is not true")
    if (2 * delta) != int(2 * delta):
        problems.append(f"hyperbolicity: delta={delta!r} is not a multiple of 1/2")
    try:
        quad = [index[label_of(v)] for v in rep["witness"]]
    except (KeyError, ValueError, SyntaxError):
        return problems + [f"hyperbolicity: witness {rep['witness']} is not a net vertex"]
    if len(set(quad)) != 4 or four_point_defect(d, quad) != delta:
        problems.append(f"hyperbolicity: witness defect differs from delta={delta!r}")
    if rep["base_dependence"] != delta:
        problems.append(f"hyperbolicity: base_dependence={rep['base_dependence']!r} != delta")
    if sampled_defect(d, seed) > delta:
        problems.append("hyperbolicity: a sampled quadruple beats delta")
    if delta > d.max() / 2.0:
        problems.append(f"hyperbolicity: delta={delta!r} exceeds half the diameter")
    return problems


# ---------------------------------------------------------------------------
# Net reports


def edges_json(text: str) -> tuple[list, dict, dict]:
    """(vertex labels in index order, {edge: weight}, the parsed report)."""
    doc = json.loads(text)
    labels = [label_of_tag(v["tag"]) for v in doc["vertices"]]
    edges = {frozenset((labels[u], labels[v])): w for u, v, w in doc["edges"]}
    return labels, edges, doc


def edges_csv(text: str, labels: list) -> set:
    lines = text.strip().splitlines()
    if lines[0] != "u,v,weight":
        raise ValueError(f"unexpected csv header {lines[0]!r}")
    return {frozenset((labels[int(u)], labels[int(v)])) for u, v, _ in (ln.split(",") for ln in lines[1:])}


def edges_dot(text: str, labels: list) -> set:
    out = set()
    for line in text.splitlines():
        line = line.strip()
        if " -- " in line:
            u, v = line.rstrip(";").split(" -- ")
            out.add(frozenset((labels[int(u[1:])], labels[int(v.split()[0][1:])])))
    return out


def check_net_outputs(outputs: dict, net: RingNet) -> list[str]:
    """The json, csv and dot nets carry the ring-rule vertices and edges."""
    labels, edges, doc = edges_json(outputs["json"])
    problems = []
    if set(labels) != set(net.adj) or len(labels) != net.n:
        problems.append(f"net: {len(labels)} vertices, ring rule gives {net.n}")
    if set(edges) != net.edge_set():
        problems.append(f"net: {len(edges)} edges, ring rule gives {len(net.edge_set())}")
    if doc["max_degree"] > doc["degree_bound"]:
        problems.append(f"net: max_degree {doc['max_degree']} > degree_bound {doc['degree_bound']}")
    if "csv" in outputs and edges_csv(outputs["csv"], labels) != set(edges):
        problems.append("net: csv edges differ from json edges")
    if "dot" in outputs and edges_dot(outputs["dot"], labels) != set(edges):
        problems.append("net: dot edges differ from json edges")
    return problems


def check_cheeger(text: str, net: RingNet) -> list[str]:
    rep = json.loads(text)
    witness = {label_of(v) for v in rep["witness"]}
    problems = []
    if not witness or not witness <= set(net.adj):
        return ["cheeger: witness is not a nonempty set of net vertices"]
    cut = sum(1 for u in witness for v in net.adj[u] if v not in witness)
    if not _close(rep["value"], cut / len(witness)):
        problems.append(f"cheeger: value {rep['value']!r} != cut/size {cut}/{len(witness)}")
    if any(v[0] == "net" and (v[1], v[2]) in net.open_slots for v in witness):
        problems.append("cheeger: witness contains open-ring samples")
    if net.open_slots and rep["mode"] != "ambient":
        problems.append(f"cheeger: mode {rep['mode']} on a spec with open curves")
    return problems


def check_boundary(text: str, net: RingNet) -> list[str]:
    rep = json.loads(text)["proxy"]
    base = label_of(rep["base"])
    if base not in net.adj:
        return [f"boundary: base {rep['base']} is not a net vertex"]
    dist = net.bfs(base)
    off = [p for p in rep["points"] if dist.get(label_of(p)) != rep["radius"]]
    if not rep["points"] or off:
        return [f"boundary: {len(off)} of {len(rep['points'])} points not at radius {rep['radius']}"]
    return []


def check_qi(text: str, net: RingNet) -> list[str]:
    rep = json.loads(text)
    mapped = net.n - net.specials
    problems = []
    if not rep["alpha"] >= 1.0:
        problems.append(f"qi: alpha={rep['alpha']!r} < 1")
    if not rep["beta"] >= 0.0:
        problems.append(f"qi: beta={rep['beta']!r} < 0")
    if rep["pairs"] != mapped * (mapped - 1) // 2:
        problems.append(f"qi: pairs={rep['pairs']} != C({mapped}, 2)")
    return problems
