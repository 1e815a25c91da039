"""A fixed reference computation that does not use the package.

Timed just before every operation, it shows how fast the host runs at that
moment.  It mixes the kinds of work the package does: breadth-first search
over integer adjacency lists, Dijkstra over a dict-of-dicts graph with
tuple labels (as in `Graph.dijkstra`), building many small tuples, strings
and dicts (as in net building and output), and a numpy broadcast over small
dense blocks (as in the four-point scan).  All inputs are seeded constants.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

_N = 2000
_RINGS, _RING = 60, 8


def _adjacency() -> list:
    rng = random.Random(7)
    adj = [[] for _ in range(_N)]
    for i in range(1, _N):
        j = rng.randrange(i)
        adj[i].append(j)
        adj[j].append(i)
    for _ in range(_N):
        a, b = rng.randrange(_N), rng.randrange(_N)
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _weighted() -> dict:
    rng = random.Random(7)
    labels = [("ring", i, j) for i in range(_RINGS) for j in range(_RING)]
    graph = {v: {} for v in labels}
    edges = [(labels[i], labels[rng.randrange(i)]) for i in range(1, len(labels))]
    edges += [(rng.choice(labels), rng.choice(labels)) for _ in labels]
    for a, b in edges:
        if a != b:
            graph[a][b] = graph[b][a] = rng.uniform(0.5, 2.0)
    return graph


_ADJ = _adjacency()
_GRAPH = _weighted()
_SOURCES = list(_GRAPH)[::_RINGS]
_M = np.random.default_rng(7).integers(0, 20, size=(80, 80)).astype(float)


def _bfs() -> None:
    for s in range(0, _N, 200):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            du = dist[u] + 1
            for v in _ADJ[u]:
                if v not in dist:
                    dist[v] = du
                    queue.append(v)


def _dijkstra() -> None:
    for s in _SOURCES:
        dist = {s: 0.0}
        heap = [(0.0, 0, s)]
        done = set()
        count = 0
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in _GRAPH[u].items():
                if d + w < dist.get(v, float("inf")):
                    dist[v] = d + w
                    count += 1
                    heapq.heappush(heap, (d + w, count, v))


def _objects() -> None:
    rows = [(i, str(i), {i: i}) for i in range(10000)]
    del rows


def _blocks() -> None:
    for i in range(0, 80, 16):
        s = _M[i][:, None] + _M
        (s[:, :, None] + _M[None, :, :]).max()


def measure() -> float:
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    _bfs()
    _dijkstra()
    _objects()
    _blocks()
    return time.perf_counter() - t0
