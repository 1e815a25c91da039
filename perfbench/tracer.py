"""Spans and counters recorded around cheegernet's public functions.

The wrappers are installed from here, on each defining module and on every
cheegernet module that imported the same function by name, so the package
source stays untouched.  A span is (name, start, end, parent, busy): busy is
end - start, except for a generator, whose busy time is only the time spent
inside its `next` calls.  Self time is busy time minus the busy time of the
child spans.  `hypmath` is not wrapped: its closed forms take microseconds,
so their time stays in the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

GRAPH_METHODS = ("bfs_distances", "dijkstra", "distance_matrix")

NAME, START, END, PARENT, BUSY, CHILD = range(6)


def _counts(name: str, result, counters: Counter) -> None:
    """Work counters read from the reports the program already returns."""
    if name in ("isoperimetry.h_g_exact", "isoperimetry.regularity_constant"):
        counters["isoperimetry.examined"] += result.examined
    elif name == "netgraph.build_net":
        counters["netgraph.net_vertices"] += result.graph.n
    elif name == "graphtools.hyperbolicity_delta":
        counters["graphtools.quadruples"] += result.quadruples
    elif name == "graphtools.cheeger":
        counters["graphtools.cheeger_examined"] += result.examined


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()
        self._patches: list = []

    def reset(self) -> None:
        self.spans, self.stack, self.counters = [], [], Counter()

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0.0, 0.0]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: list, busy: float) -> None:
        self.stack.pop()
        span[BUSY] += busy
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += busy

    def _wrap_function(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._close(span, span[END] - span[START])
            _counts(name, result, self.counters)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = self._open(name)
            self.stack.pop()
            index = len(self.spans) - 1
            while True:
                self.stack.append(index)
                t0 = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    span[END] = time.perf_counter()
                    self._close(span, span[END] - t0)
                self.counters[name + ":yielded"] += 1
                yield item

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layers and the Graph search
        methods, on their module and wherever they were imported."""
        import cheegernet.cli
        from cheegernet import families, graphtools, isoperimetry, netgraph, surface

        modules = {"cli": cheegernet.cli, "families": families, "surface": surface,
                   "isoperimetry": isoperimetry, "netgraph": netgraph, "graphtools": graphtools}
        for layer, module in modules.items():
            public = getattr(module, "__all__", ["main"])
            for attr in public:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap_function
                wrapper = wrap(name, fn)
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._patches.append((other, key, fn))
                            setattr(other, key, wrapper)
        for attr in GRAPH_METHODS:
            fn = getattr(graphtools.Graph, attr)
            self._patches.append((graphtools.Graph, attr, fn))
            setattr(graphtools.Graph, attr, self._wrap_function(f"graphtools.{attr}", fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches = []

    # -- aggregation ------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, busy seconds and self seconds."""
        out: dict = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
        for span in self.spans:
            row = out[span[NAME]]
            row["calls"] += 1
            row["busy"] += span[BUSY]
            row["self"] += span[BUSY] - span[CHILD]
        return out

    def calls_per_operation(self) -> list:
        """Calls per span name under each top-level span, in order; with
        `cli.main` wrapped, each top-level span is one operation."""
        root_of: list = []
        out: list = []
        for span in self.spans:
            if span[PARENT] < 0:
                root_of.append(len(out))
                out.append(Counter())
            else:
                root_of.append(root_of[span[PARENT]])
            out[root_of[-1]][span[NAME]] += 1
        return [dict(c) for c in out]

    def layer_self(self) -> dict:
        """Self seconds per layer."""
        shares: Counter = Counter()
        for name, row in self.totals().items():
            shares[name.split(".")[0]] += row["self"]
        return dict(shares)


def per_layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, by their benchmark names."""
    t = tracer.totals()
    c = tracer.counters

    def busy(name):
        return t[name]["busy"] if name in t else 0.0

    def self_(name):
        return t[name]["self"] if name in t else 0.0

    def calls(name):
        return t[name]["calls"] if name in t else 0

    return {
        "cli.self_s": (self_("cli.main"), "s"),
        "families.load_family_s": (busy("families.load_family"), "s"),
        "surface.subsets": (c["surface.connected_piece_subsets:yielded"], "count"),
        "surface.connected_piece_subsets_s": (busy("surface.connected_piece_subsets"), "s"),
        "surface.domain_from_pieces_calls": (calls("surface.domain_from_pieces"), "count"),
        "surface.domain_from_pieces_s": (busy("surface.domain_from_pieces"), "s"),
        "isoperimetry.h_g_exact_s": (self_("isoperimetry.h_g_exact"), "s"),
        "isoperimetry.regularity_constant_s": (self_("isoperimetry.regularity_constant"), "s"),
        "isoperimetry.examined": (c["isoperimetry.examined"], "count"),
        "netgraph.build_net_calls": (calls("netgraph.build_net"), "count"),
        "netgraph.build_net_s": (busy("netgraph.build_net"), "s"),
        "netgraph.net_vertices": (c["netgraph.net_vertices"], "count"),
        "netgraph.build_quotient_mesh_s": (self_("netgraph.build_quotient_mesh"), "s"),
        "netgraph.estimate_qi_constants_s": (self_("netgraph.estimate_qi_constants"), "s"),
        "graphtools.hyperbolicity_delta_s": (busy("graphtools.hyperbolicity_delta"), "s"),
        "graphtools.quadruples": (c["graphtools.quadruples"], "count"),
        "graphtools.distance_matrix_calls": (calls("graphtools.distance_matrix"), "count"),
        "graphtools.distance_matrix_s": (busy("graphtools.distance_matrix"), "s"),
        "graphtools.bfs_runs": (calls("graphtools.bfs_distances"), "count"),
        "graphtools.bfs_s": (busy("graphtools.bfs_distances"), "s"),
        "graphtools.dijkstra_runs": (calls("graphtools.dijkstra"), "count"),
        "graphtools.dijkstra_s": (busy("graphtools.dijkstra"), "s"),
        "graphtools.boundary_proxy_s": (self_("graphtools.boundary_proxy"), "s"),
        "graphtools.has_pole_s": (self_("graphtools.has_pole"), "s"),
        "graphtools.uniform_perfectness_s": (self_("graphtools.uniform_perfectness"), "s"),
        "graphtools.ultrametric_defect_s": (self_("graphtools.ultrametric_defect"), "s"),
        "graphtools.cheeger_s": (busy("graphtools.cheeger"), "s"),
        "graphtools.cheeger_examined": (c["graphtools.cheeger_examined"], "count"),
    }
