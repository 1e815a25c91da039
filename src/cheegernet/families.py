"""Bundled surface families.

Each builder returns a window spec for one integer parameter value:

* ``flute``: chain of one-cusp pieces, all curve lengths 1.  The best
  domain is the whole window, with isoperimetric ratio 1/(pi*n).
* ``shrinking_flute``: same chain with gluing lengths 1/n^2 and window
  anchors of length 1/n, so interior domains have only short boundary
  components and the regularity constant collapses.
* ``pants_tree``: window of the surface glued along a 3-regular tree,
  parameter = tree depth.  Isoperimetric ratios stay bounded below.
* ``genus_ladder``: consecutive pieces doubly glued, one strand of each
  rung short and non-separating; parameter = number of rungs (= genus).

:func:`load_family` is the one parser of family files, of both kinds.  A
builder-style file is a JSON object
{"family": "<builder name>", "param": {"name": "n", "range": [lo, hi]}}; a
fixed-topology template is a spec file plus the same "param" key, whose
gluing and open lengths may be expressions in the parameter
(:func:`cheegernet.surface.eval_length_expr`).
"""

from __future__ import annotations

import json
from pathlib import Path

from .hypmath import DomainError
from .surface import (Family, SpecError, SurfaceSpec, _is_int, eval_length_expr, make_spec,
                      read_json, spec_from_dict)

__all__ = [
    "flute",
    "shrinking_flute",
    "pants_tree",
    "genus_ladder",
    "BUILDERS",
    "PIECES",
    "load_family",
    "bundled_path",
]


def flute(n: int) -> SurfaceSpec:
    """Chain of n one-cusp pieces; gluings and window anchors of length 1."""
    if n < 1:
        raise SpecError(f"flute needs n >= 1, got {n}")
    gluings = [((i, 1), (i + 1, 0), 1.0) for i in range(n - 1)]
    cusps = [(i, 2) for i in range(n)]
    opens = [((0, 0), 1.0), ((n - 1, 1), 1.0)]
    return make_spec(n, gluings, cusps, opens)


def shrinking_flute(n: int) -> SurfaceSpec:
    """Flute chain with gluing lengths 1/n^2 and anchor lengths 1/n."""
    if n < 2:
        raise SpecError(f"shrinking_flute needs n >= 2, got {n}")
    short = 1.0 / (n * n)
    gluings = [((i, 1), (i + 1, 0), short) for i in range(n - 1)]
    cusps = [(i, 2) for i in range(n)]
    opens = [((0, 0), 1.0 / n), ((n - 1, 1), 1.0 / n)]
    return make_spec(n, gluings, cusps, opens)


def pants_tree(depth: int) -> SurfaceSpec:
    """Window of the 3-regular-tree gluing: root piece with three subtrees
    of the given depth minus one; leaf slots stay open.  All lengths 1."""
    if depth < 1:
        raise SpecError(f"pants_tree needs depth >= 1, got {depth}")
    gluings: list[tuple[tuple[int, int], tuple[int, int], float]] = []
    opens: list[tuple[tuple[int, int], float]] = []
    # Pieces are allocated in BFS order; the root uses all three slots for
    # children, every other piece uses slot 0 for its parent.
    next_id = 1
    frontier = [(0, s, depth - 1) for s in range(3)]
    while frontier:
        parent, slot, levels = frontier.pop(0)
        if levels == 0:
            opens.append(((parent, slot), 1.0))
            continue
        child = next_id
        next_id += 1
        gluings.append(((parent, slot), (child, 0), 1.0))
        frontier.extend((child, s, levels - 1) for s in (1, 2))
    return make_spec(next_id, gluings, cusps=[], opens=opens)


def genus_ladder(n: int) -> SurfaceSpec:
    """2n pieces; pieces 2i and 2i+1 share two gluings (lengths 1 and
    1/(4n)), consecutive pairs share one (length 1); anchors length 1."""
    if n < 1:
        raise SpecError(f"genus_ladder needs n >= 1, got {n}")
    short = 1.0 / (4.0 * n)
    gluings: list[tuple[tuple[int, int], tuple[int, int], float]] = []
    for i in range(n):
        a, b = 2 * i, 2 * i + 1
        gluings.append(((a, 1), (b, 0), 1.0))
        gluings.append(((a, 2), (b, 1), short))
        if i + 1 < n:
            gluings.append(((b, 2), (2 * i + 2, 0), 1.0))
    opens = [((0, 0), 1.0), ((2 * n - 1, 2), 1.0)]
    return make_spec(2 * n, gluings, cusps=[], opens=opens)


BUILDERS = {
    "flute": flute,
    "shrinking_flute": shrinking_flute,
    "pants_tree": pants_tree,
    "genus_ladder": genus_ladder,
}

# Pieces of each builder's instance, from the parameter alone (a lower bound
# past pants_tree depth 61).
PIECES = {
    "flute": lambda n: n,
    "shrinking_flute": lambda n: n,
    "pants_tree": lambda depth: 3 * 2 ** min(max(depth - 1, 0), 60) - 2,
    "genus_ladder": lambda n: 2 * n,
}

# Most pieces a family's instances may hold in all: `validate` takes 1.6 s
# on a 2-vCPU x86 host for flute over [2, 447], 100,127 pieces.
MAX_FAMILY_PIECES = 10**5


def _check_family_work(name: str, pname: str, lo: int, hi: int, pieces) -> None:
    """DomainError when the instances lo..hi hold more than MAX_FAMILY_PIECES
    pieces, each counted as pieces(value) and at least 1, so the sum stops
    within MAX_FAMILY_PIECES + 1 values and builds no instance."""
    total = 0
    for value in range(lo, hi + 1):
        total += max(1, pieces(value))
        if total > MAX_FAMILY_PIECES:
            raise DomainError(f"{name}: the instances for {pname} in [{lo}, {hi}] hold at least "
                              f"{total} pieces, more than the {MAX_FAMILY_PIECES} allowed")


def load_family(source: str | Path | dict, name: str | None = None) -> Family:
    """The family in a family file, from a path or a decoded document: a
    builder reference, named by its builder, or a fixed-topology template,
    named by `name` or the file's stem, whose gluing and open lengths may be
    expressions in the parameter.  The one parser of family files.  Raises
    DomainError, before building any instance, when the instances would
    hold more than MAX_FAMILY_PIECES pieces in all."""
    if isinstance(source, dict):
        obj = source
        default_name = name or "family"
    else:
        obj = read_json(source)
        default_name = name or Path(source).stem
    if not isinstance(obj, dict):
        raise SpecError(f"family must be a JSON object, got {type(obj).__name__}")
    builder_name = obj.get("family")
    builder = BUILDERS.get(builder_name) if isinstance(builder_name, str) else None
    if "family" in obj and builder is None:
        raise SpecError(f"unknown family builder {builder_name!r}; known: {sorted(BUILDERS)}")
    param = obj.get("param")
    if (
        not isinstance(param, dict)
        or not isinstance(param.get("name"), str)
        or not isinstance(param.get("range"), list)
        or len(param["range"]) != 2
        or not all(map(_is_int, param["range"]))
    ):
        raise SpecError(f"{default_name}: need 'param': {{'name': str, 'range': [lo, hi]}}")
    pname, (lo, hi) = param["name"], param["range"]
    if lo > hi:
        raise SpecError(f"{default_name}: empty parameter range [{lo}, {hi}]")
    if builder is not None:
        _check_family_work(builder_name, pname, lo, hi, PIECES[builder_name])
        return Family(name=builder_name, param_name=pname, lo=lo, hi=hi, builder=builder)
    pieces = obj.get("pieces")
    _check_family_work(default_name, pname, lo, hi, lambda _: pieces if _is_int(pieces) else 1)
    template = {k: v for k, v in obj.items() if k != "param"}

    def build(value: int) -> SurfaceSpec:
        inst = json.loads(json.dumps(template))
        # A key that holds no list is left for spec_from_dict to reject.
        for key in ("gluings", "opens"):
            items = inst.get(key)
            for item in items if isinstance(items, list) else ():
                if isinstance(item, dict) and "length" in item:
                    item["length"] = eval_length_expr(item["length"], pname, value)
        return spec_from_dict(inst)

    return Family(name=default_name, param_name=pname, lo=lo, hi=hi, builder=build)


def bundled_path(filename: str) -> Path:
    """Filesystem path of a bundled data file."""
    from importlib import resources
    return Path(str(resources.files("cheegernet").joinpath("data", filename)))
