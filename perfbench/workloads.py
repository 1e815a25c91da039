"""The benchmark's workloads: their inputs and their fixed lists of commands.

Each operation is one `cheegernet` command line plus the check of its
output.  Only the generated specs depend on the seed, and they are drawn so
that every seed gives nets of the same size: the seed moves the topology
and the lengths, not the amount of work.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    name: str
    argv: list
    check: Callable[[str], list]


def generated_spec(rng: random.Random, pieces: int, thin: int, cusps: int, extra: int) -> dict:
    """A random spec: a random tree of `pieces` pieces plus `extra` gluings
    between free slots of distinct pieces; `thin` gluings get lengths below
    2*delta, `cusps` free slots become cusps and the rest open curves.

    Thick and open lengths are drawn inside ((k - 0.9)/dens, (k - 0.1)/dens)
    for ring sizes k cycling through 3..6, so the net's vertex and edge
    counts depend only on the four sizes, never on the seed.
    """
    dens = 1.0 / checks.DELTA
    free = {0: [0, 1, 2]}
    pairs = []
    for p in range(1, pieces):
        q = rng.choice([q for q in free if free[q]])
        s = rng.choice(free[q])
        free[q].remove(s)
        pairs.append(((q, s), (p, 0)))
        free[p] = [1, 2]
    slots = [(p, s) for p in free for s in free[p]]
    rng.shuffle(slots)
    for _ in range(extra):
        a = slots.pop()
        b = next(x for x in reversed(slots) if x[0] != a[0])
        slots.remove(b)
        pairs.append((a, b))
    cusp_slots = sorted(slots[:cusps])
    open_slots = sorted(slots[cusps:])
    thin_idx = set(rng.sample(range(len(pairs)), thin))
    sizes = [3 + i % 4 for i in range(len(pairs) - thin + len(open_slots))]
    rng.shuffle(sizes)

    def thick_length() -> float:
        k = sizes.pop()
        return rng.uniform((k - 0.9) / dens, (k - 0.1) / dens)

    gluings = []
    for i, (a, b) in enumerate(pairs):
        length = rng.uniform(0.02, 0.3) if i in thin_idx else thick_length()
        gluings.append({"a": list(a), "b": list(b), "length": length})
    return {
        "pieces": pieces,
        "gluings": gluings,
        "cusps": [list(c) for c in cusp_slots],
        "opens": [{"at": list(s), "length": thick_length()} for s in open_slots],
    }


def flute(n: int) -> dict:
    return {
        "pieces": n,
        "gluings": [{"a": [i, 1], "b": [i + 1, 0], "length": 1.0} for i in range(n - 1)],
        "cusps": [[i, 2] for i in range(n)],
        "opens": [{"at": [0, 0], "length": 1.0}, {"at": [n - 1, 1], "length": 1.0}],
    }


def pants_tree(depth: int) -> dict:
    gluings, opens = [], []
    next_id = 1
    frontier = [(0, s, depth - 1) for s in range(3)]
    while frontier:
        parent, slot, levels = frontier.pop(0)
        if levels == 0:
            opens.append({"at": [parent, slot], "length": 1.0})
            continue
        gluings.append({"a": [parent, slot], "b": [next_id, 0], "length": 1.0})
        frontier.extend((next_id, s, levels - 1) for s in (1, 2))
        next_id += 1
    return {"pieces": next_id, "gluings": gluings, "cusps": [], "opens": opens}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


# The bundled family files, each swept as shipped, plus generated pants_tree
# family files.  The bundled tree range 3..6 takes about 19 s a sweep and
# 3..5 about 4 s; depths up to 4 keep every operation under half a second,
# so a run samples each one about twenty times.  The bundled sweeps take 20
# to 50 ms; the tree sweeps, near 0.3 s, hold the median operation.
SWEEP_FAMILIES = [
    ("flute", "flute.family.json", 2, 20),
    ("shrinking_flute", "shrinking.family.json", 3, 20),
    ("genus_ladder", "genus.family.json", 2, 10),
]
TREE_SWEEPS = [((2, 4), "json"), ((2, 4), "csv"), ((3, 4), "json"), ((3, 4), "csv")]


def sweep(data: Path, work: Path, seed: int) -> list:
    ops = []
    for family, filename, lo, hi in SWEEP_FAMILIES:
        ops.append(Op(
            f"sweep {family}",
            ["sweep", str(data / filename)],
            lambda text, f=family, a=lo, b=hi: checks.check_sweep(text, "json", f, a, b),
        ))
    for (lo, hi), fmt in TREE_SWEEPS:
        path = _write(work / f"tree{lo}{hi}.family.json",
                      {"family": "pants_tree", "param": {"name": "n", "range": [lo, hi]}})
        ops.append(Op(
            f"sweep pants_tree {lo}..{hi} {fmt}",
            ["sweep", path, "--format", fmt],
            lambda text, a=lo, b=hi, fm=fmt: checks.check_sweep(text, fm, "pants_tree", a, b),
        ))
    return ops


# (pieces, thin gluings, cusps, extra gluings) of the generated specs.
HYPERBOLICITY_SPECS = [(10, 3, 4, 1), (12, 3, 5, 1)]
NET_SPEC = (40, 8, 12, 2)


def _graph_ops(name: str, path: str, spec: dict, commands, seed: int) -> list:
    # References are built on first use, after the timed pass, not in set-up.
    net = functools.cache(lambda: checks.RingNet(spec))
    distances = functools.cache(lambda: net().distance_matrix())
    ops = []
    if "hyperbolicity" in commands:
        ops.append(Op(f"hyperbolicity {name}", ["hyperbolicity", path],
                      lambda text: checks.check_hyperbolicity(text, distances(), seed)))
    if "net" in commands:
        # The three formats are checked together once the dot output exists.
        outputs: dict = {}

        def keep(fmt):
            def check(text):
                outputs[fmt] = text
                return checks.check_net_outputs(outputs, net()) if fmt == "dot" else []
            return check

        for fmt in ("json", "csv", "dot"):
            ops.append(Op(f"net {name} {fmt}", ["net", path, "--format", fmt], keep(fmt)))
    for cmd, check in (("cheeger", checks.check_cheeger), ("boundary", checks.check_boundary),
                       ("qi", checks.check_qi)):
        if cmd in commands:
            ops.append(Op(f"{cmd} {name}", [cmd, path], lambda text, c=check: c(text, net())))
    return ops


def hyperbolicity(data: Path, work: Path, seed: int) -> list:
    rng = random.Random(seed)
    flute8 = data / "flute8.json"
    ops = _graph_ops("flute8", str(flute8), json.loads(flute8.read_text()), {"hyperbolicity"}, seed)
    for i, sizes in enumerate(HYPERBOLICITY_SPECS):
        spec = generated_spec(rng, *sizes)
        path = _write(work / f"hyp{i}.json", spec)
        ops += _graph_ops(f"gen{i}", path, spec, {"hyperbolicity"}, seed)
    return ops


def net_reports(data: Path, work: Path, seed: int) -> list:
    spec = generated_spec(random.Random(seed), *NET_SPEC)
    inputs = [
        ("flute40", flute(40), {"net", "cheeger", "boundary"}),
        ("pants_tree5", pants_tree(5), {"cheeger", "boundary"}),
        ("gen0", spec, {"net", "boundary", "qi"}),
    ]
    ops = []
    for name, spec, commands in inputs:
        ops += _graph_ops(name, _write(work / f"{name}.json", spec), spec, commands, seed)
    return ops


WORKLOADS = {"sweep": sweep, "hyperbolicity": hyperbolicity, "net_reports": net_reports}
