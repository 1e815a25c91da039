"""Pants-decomposition surface model.

A surface is specified combinatorially as a set of generalized Y-pieces
(three-holed spheres), each with three boundary slots.  Every slot is either
glued to another slot (sharing a closed geodesic of a given length), a cusp,
or open.  An open slot is a window edge: it marks a geodesic along which the
surface continues beyond the modelled window, so finite files can stand in
for infinite surfaces.  A spec with no open slots is a closed finite-area
surface.

Pieces are indexed 0..pieces-1, slots 0..2.  The pieces multigraph has one
node per piece and one edge per gluing (self-gluings are loops).  Its
per-piece tables (neighbours, cut candidates, cusps, open curves, shortest
incident curve) are built once per spec by :func:`pieces_index`, which
validation, domain enumeration and the quotient mesh all read.

File format (JSON): {"pieces": int,
                     "gluings": [{"a": [piece, slot], "b": [piece, slot],
                                  "length": number}, ...],
                     "cusps": [[piece, slot], ...],
                     "opens": [{"at": [piece, slot], "length": number}, ...]}
with "opens" optional.  :func:`spec_from_dict` rejects family files (a
"family" or "param" key), which :func:`cheegernet.families.load_family`
parses; their length expressions (numbers, the parameter name,
+ - * / ^, exp, ln, parentheses) are evaluated by :func:`eval_length_expr`.
"""

from __future__ import annotations

import ast
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .hypmath import check_margulis, cusp_collar, thin_boundary_length, thin_collar_area, thin_half_width

__all__ = [
    "SpecError",
    "MAX_PIECES",
    "Slot",
    "Gluing",
    "OpenBoundary",
    "SurfaceSpec",
    "ThinCollar",
    "CuspCollarAt",
    "ThickThin",
    "BoundaryCurve",
    "GeodesicDomain",
    "Family",
    "validate",
    "require_valid",
    "PiecesIndex",
    "pieces_index",
    "separating_gluings",
    "thick_thin",
    "domain_from_pieces",
    "boundary_length",
    "connected_piece_subsets",
    "spec_from_dict",
    "read_json",
    "load_spec",
    "eval_length_expr",
]

Slot = tuple[int, int]

# Default size cap of the piece-set enumeration (the CLI's --max-pieces).
MAX_PIECES = 12


class SpecError(ValueError):
    """Raised for malformed or invalid surface specifications."""


class Gluing(NamedTuple):
    """Two slots sharing a closed geodesic of the given length."""

    a: Slot
    b: Slot
    length: float


class OpenBoundary(NamedTuple):
    """A window-edge slot: the surface continues past this geodesic."""

    at: Slot
    length: float


@dataclass(frozen=True)
class SurfaceSpec:
    pieces: int
    gluings: tuple[Gluing, ...]
    cusps: tuple[Slot, ...]
    opens: tuple[OpenBoundary, ...] = ()

    # validate and pieces_index are cached per spec and looked up on every
    # call, so the field hash is computed once.
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.pieces, self.gluings, self.cusps, self.opens))

    def slots(self) -> Iterator[Slot]:
        for p in range(self.pieces):
            for s in range(3):
                yield (p, s)


def make_gluing(a: Slot, b: Slot, length: float) -> Gluing:
    """Gluing with endpoints in canonical (sorted) order."""
    a = (int(a[0]), int(a[1]))
    b = (int(b[0]), int(b[1]))
    if a == b:
        raise SpecError(f"gluing joins slot {a} to itself")
    if b < a:
        a, b = b, a
    return Gluing(a=a, b=b, length=float(length))


def make_spec(
    pieces: int,
    gluings: Iterable[tuple[Slot, Slot, float]],
    cusps: Iterable[Slot] = (),
    opens: Iterable[tuple[Slot, float]] = (),
) -> SurfaceSpec:
    """Convenience constructor used by the bundled family builders."""
    return SurfaceSpec(
        pieces=int(pieces),
        gluings=tuple(make_gluing(a, b, l) for a, b, l in gluings),
        cusps=tuple(sorted((int(p), int(s)) for p, s in cusps)),
        opens=tuple(OpenBoundary(at=(int(p), int(s)), length=float(l)) for (p, s), l in opens),
    )


# The least curve length: the smallest normal float.  Below it half a length
# can round to zero, and the collar formulas divide by it.
_MIN_LENGTH = sys.float_info.min


@lru_cache(maxsize=256)
def validate(spec: SurfaceSpec) -> tuple[str, ...]:
    """All invariant violations of a spec, as precise messages.  Empty = valid."""
    out: list[str] = []
    if spec.pieces < 1:
        out.append(f"piece count must be >= 1, got {spec.pieces}")
        return tuple(out)

    ranges_ok = True

    def check_slot(slot: Slot, where: str) -> bool:
        nonlocal ranges_ok
        p, s = slot
        if not (0 <= p < spec.pieces and 0 <= s < 3):
            out.append(f"{where}: slot {slot} out of range for {spec.pieces} pieces")
            ranges_ok = False
            return False
        return True

    def check_length(where: str, length: float) -> None:
        if not (math.isfinite(length) and length >= _MIN_LENGTH):
            out.append(f"{where} length must be finite and >= {_MIN_LENGTH!r}, got {length!r}")

    used: dict[Slot, list[str]] = {}

    def use(slot: Slot, where: str) -> None:
        if check_slot(slot, where):
            used.setdefault(slot, []).append(where)

    for i, g in enumerate(spec.gluings):
        use(g.a, f"gluing {i}")
        use(g.b, f"gluing {i}")
        if g.a == g.b:
            out.append(f"gluing {i} attaches slot {g.a} to itself")
        check_length(f"gluing {i}", g.length)
    for i, c in enumerate(spec.cusps):
        use(c, f"cusp {i}")
    for i, o in enumerate(spec.opens):
        use(o.at, f"open {i}")
        check_length(f"open {i}", o.length)

    for slot in spec.slots():
        owners = used.get(slot, [])
        if not owners:
            out.append(f"slot {slot} is neither glued, a cusp, nor open")
        elif len(owners) > 1:
            out.append(f"slot {slot} used more than once: {', '.join(owners)}")

    if spec.pieces > 1 and ranges_ok:
        seen = _reachable(pieces_index(spec), skip_gluing=None)
        if len(seen) != spec.pieces:
            missing = sorted(set(range(spec.pieces)) - seen)
            out.append(f"pieces multigraph is disconnected; unreachable pieces {missing}")
    return tuple(out)


def require_valid(spec: SurfaceSpec) -> SurfaceSpec:
    problems = validate(spec)
    if problems:
        raise SpecError("invalid spec:\n" + "\n".join(problems))
    return spec


class BoundaryCurve(NamedTuple):
    kind: str  # "gluing" or "open"
    index: int
    length: float


class PiecesIndex(NamedTuple):
    """Tables of the pieces multigraph of one spec."""

    neighbours: tuple[tuple[int, ...], ...]  # distinct pieces across a gluing, ascending
    # (other piece, gluing index) per gluing to another piece, in gluing order
    cross: tuple[tuple[tuple[int, int], ...], ...]
    cusps: tuple[int, ...]  # cusp count
    shortest: tuple[float, ...]  # shortest glued or open curve at the piece; inf if none
    # (piece, other piece or None, curve) per curve that can bound a domain:
    # the gluings to another piece by index, then the open curves by index.
    # Self-gluings are left out: both of their ends are inside any piece set
    # that holds the piece.  A piece set's boundary is the curves with
    # exactly one end inside it, in this order, which every boundary sum
    # follows.
    curves: tuple[tuple[int, int | None, BoundaryCurve], ...]


@lru_cache(maxsize=256)
def pieces_index(spec: SurfaceSpec) -> PiecesIndex:
    """The pieces-graph index of a spec whose slots are all in range."""
    cross: list[list[tuple[int, int]]] = [[] for _ in range(spec.pieces)]
    shortest = [math.inf] * spec.pieces
    curves: list = []
    for i, g in enumerate(spec.gluings):
        pa, pb = g.a[0], g.b[0]
        if pa != pb:
            cross[pa].append((pb, i))
            cross[pb].append((pa, i))
            curves.append((pa, pb, BoundaryCurve("gluing", i, g.length)))
        for p in (pa, pb):
            shortest[p] = min(shortest[p], g.length)
    cusps = [0] * spec.pieces
    for c in spec.cusps:
        cusps[c[0]] += 1
    for i, o in enumerate(spec.opens):
        p = o.at[0]
        curves.append((p, None, BoundaryCurve("open", i, o.length)))
        shortest[p] = min(shortest[p], o.length)
    return PiecesIndex(
        neighbours=tuple(tuple(sorted({q for q, _ in row})) for row in cross),
        cross=tuple(tuple(row) for row in cross),
        cusps=tuple(cusps),
        shortest=tuple(shortest),
        curves=tuple(curves),
    )


def _reachable(index: PiecesIndex, skip_gluing: int | None) -> set[int]:
    """Pieces reachable from piece 0 without crossing the skipped gluing."""
    seen = {0}
    stack = [0]
    while stack:
        p = stack.pop()
        for q, gi in index.cross[p]:
            if gi != skip_gluing and q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def separating_gluings(spec: SurfaceSpec) -> frozenset[int]:
    """Indices of gluings whose geodesic separates the surface (bridges of the
    pieces multigraph).  Self-gluings and doubled gluings never separate."""
    require_valid(spec)
    index = pieces_index(spec)
    return frozenset(
        i
        for i, g in enumerate(spec.gluings)
        if g.a[0] != g.b[0] and len(_reachable(index, i)) != spec.pieces
    )


class ThinCollar(NamedTuple):
    gluing_index: int
    core_length: float
    half_width: float
    boundary_length: float  # each of the two collar boundary curves
    area: float
    is_separating: bool


class CuspCollarAt(NamedTuple):
    cusp: Slot
    lam: float  # boundary horocycle length; also the collar area


class ThickThin(NamedTuple):
    eps: float
    thin_collars: tuple[ThinCollar, ...]
    cusp_collars: tuple[CuspCollarAt, ...]

    def thin_indices(self) -> tuple[int, ...]:
        return tuple(sorted(t.gluing_index for t in self.thin_collars))


def thick_thin(spec: SurfaceSpec, eps: float) -> ThickThin:
    """Classify glued geodesics: a gluing is eps-thin iff its length < 2*eps."""
    require_valid(spec)
    eps = check_margulis(eps)
    seps = separating_gluings(spec)
    thin = tuple(
        ThinCollar(
            gluing_index=i,
            core_length=g.length,
            half_width=thin_half_width(g.length, eps),
            boundary_length=thin_boundary_length(g.length, eps),
            area=thin_collar_area(g.length, eps),
            is_separating=i in seps,
        )
        for i, g in enumerate(spec.gluings)
        if g.length < 2.0 * eps
    )
    lam = cusp_collar(eps).lam
    cusp_rows = tuple(CuspCollarAt(cusp=c, lam=lam) for c in spec.cusps)
    return ThickThin(eps=eps, thin_collars=thin, cusp_collars=cusp_rows)


class GeodesicDomain(NamedTuple):
    piece_set: tuple[int, ...]
    boundary: tuple[BoundaryCurve, ...]
    boundary_count: int  # m, closed boundary geodesics
    cusp_count: int  # p, cusps inside the domain
    genus: int
    area: float


def domain_from_pieces(spec: SurfaceSpec, piece_set: Iterable[int]) -> GeodesicDomain:
    """Geodesic domain spanned by a connected set of pieces.

    The boundary consists of the gluings cut by the set plus the open curves
    of its pieces.  Area is 2*pi per piece, and the genus is recovered from
    m + p - 2 + 2g = #pieces.
    """
    require_valid(spec)
    index = pieces_index(spec)
    inside = sorted(set(int(p) for p in piece_set))
    if not inside:
        raise SpecError("domain needs at least one piece")
    for p in inside:
        if not 0 <= p < spec.pieces:
            raise SpecError(f"piece {p} out of range")
    inset = set(inside)

    seen = {inside[0]}
    stack = [inside[0]]
    while stack:
        p = stack.pop()
        for q in index.neighbours[p]:
            if q in inset and q not in seen:
                seen.add(q)
                stack.append(q)
    if seen != inset:
        raise SpecError(f"piece set {inside} is not connected")

    boundary = [c for a, b, c in index.curves if (a in inset) != (b in inset)]
    p_count = sum(index.cusps[p] for p in inside)
    m = len(boundary)
    k = len(inside)
    twice_g = k - m - p_count + 2
    if twice_g < 0 or twice_g % 2 != 0:
        raise SpecError(
            f"inconsistent domain topology: pieces={k}, m={m}, p={p_count}"
        )
    genus = twice_g // 2
    return GeodesicDomain(
        piece_set=tuple(inside),
        boundary=tuple(boundary),
        boundary_count=m,
        cusp_count=p_count,
        genus=genus,
        area=2.0 * math.pi * k,
    )


def boundary_length(domain: GeodesicDomain) -> float:
    return sum(c.length for c in domain.boundary)


def connected_piece_subsets(spec: SurfaceSpec, max_size: int) -> Iterator[int]:
    """All connected piece sets of size <= max_size, each exactly once, as
    int bitmasks with bit p set for piece p.

    ESU (Wernicke 2006) on an explicit stack, so no depth of recursion: the
    sets whose least piece is v0 grow from {v0} by one pending candidate at
    a time, lowest first, and a piece above v0 becomes a candidate when it
    first enters the closed neighbourhood of the set.
    """
    require_valid(spec)
    max_size = min(int(max_size), spec.pieces)
    if max_size < 1:
        return
    nbr = [sum(1 << q for q in row) for row in pieces_index(spec).neighbours]
    for v0 in range(spec.pieces):
        above = -2 << v0
        stack = [(1 << v0, (1 << v0) | nbr[v0], nbr[v0] & above, 1)]
        while stack:
            members, closed, ext, size = stack.pop()
            yield members
            if size == max_size:
                continue
            while ext:
                u = ext & -ext
                ext ^= u
                grown = nbr[u.bit_length() - 1]
                stack.append((members | u, closed | grown, ext | (grown & ~closed & above), size + 1))


# ---------------------------------------------------------------------------
# JSON input


def _is_int(obj) -> bool:
    """A JSON integer: true and false are not counts or indices."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _slot_from_json(obj, where: str) -> Slot:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2 or not all(map(_is_int, obj)):
        raise SpecError(f"{where}: expected [piece, slot] pair, got {obj!r}")
    return (obj[0], obj[1])


def _length_from_json(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SpecError(
            f"{where}: expected a number, got {obj!r}"
            + (" (expressions are only allowed in family files)" if isinstance(obj, str) else "")
        )
    return float(obj)


def spec_from_dict(obj: dict) -> SurfaceSpec:
    if not isinstance(obj, dict):
        raise SpecError(f"spec must be a JSON object, got {type(obj).__name__}")
    for key in ("param", "family"):
        if key in obj:
            raise SpecError(f"found {key!r} key: this is a family file, use load_family")
    if not _is_int(obj.get("pieces")):
        raise SpecError("spec needs an integer 'pieces' count")
    for key in ("gluings", "cusps"):
        if key not in obj or not isinstance(obj[key], list):
            raise SpecError(f"spec needs a {key!r} list")
    if not isinstance(obj.get("opens", []), list):
        raise SpecError("spec 'opens' must be a list")
    gluings = []
    for i, g in enumerate(obj.get("gluings", [])):
        if not isinstance(g, dict) or not {"a", "b", "length"} <= set(g):
            raise SpecError(f"gluing {i}: expected object with 'a', 'b', 'length'")
        gluings.append(
            make_gluing(
                _slot_from_json(g["a"], f"gluing {i} 'a'"),
                _slot_from_json(g["b"], f"gluing {i} 'b'"),
                _length_from_json(g["length"], f"gluing {i} length"),
            )
        )
    cusps = tuple(
        sorted(_slot_from_json(c, f"cusp {i}") for i, c in enumerate(obj.get("cusps", [])))
    )
    opens = []
    for i, o in enumerate(obj.get("opens", [])):
        if not isinstance(o, dict) or not {"at", "length"} <= set(o):
            raise SpecError(f"open {i}: expected object with 'at', 'length'")
        opens.append(
            OpenBoundary(
                at=_slot_from_json(o["at"], f"open {i} 'at'"),
                length=_length_from_json(o["length"], f"open {i} length"),
            )
        )
    return SurfaceSpec(
        pieces=obj["pieces"], gluings=tuple(gluings), cusps=cusps, opens=tuple(opens)
    )


def read_json(path: str | Path):
    """The JSON document in a UTF-8 file; SpecError when the file is not
    UTF-8, not JSON, or nested too deeply to decode.  The one reader of
    input files."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SpecError(f"{path}: not valid JSON: {exc}") from exc


def load_spec(path: str | Path) -> SurfaceSpec:
    """The spec in a spec file."""
    return spec_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# Families

_EXPR_FUNCS = {"exp": math.exp, "ln": math.log}


def eval_length_expr(expr: float | str, param_name: str, value: float) -> float:
    """Evaluate a length expression in one parameter.

    Grammar: numbers, the parameter name, + - * / ^ (also **), unary minus,
    exp(...), ln(...), parentheses.  Arithmetic that fails at this value
    (division by zero, ln of a non-positive number, overflow) raises
    SpecError naming the expression and the parameter value.
    """
    if isinstance(expr, (int, float)) and not isinstance(expr, bool):
        return float(expr)
    if not isinstance(expr, str):
        raise SpecError(f"length must be a number or expression string, got {expr!r}")
    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise SpecError(f"bad length expression {expr!r}: {exc}") from exc

    def ev(node: ast.AST) -> float:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                return float(node.value)
            raise SpecError(f"bad constant {node.value!r} in {expr!r}")
        if isinstance(node, ast.Name):
            if node.id == param_name:
                return float(value)
            raise SpecError(f"unknown name {node.id!r} in {expr!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp):
            ops = {
                ast.Add: lambda x, y: x + y,
                ast.Sub: lambda x, y: x - y,
                ast.Mult: lambda x, y: x * y,
                ast.Div: lambda x, y: x / y,
                ast.Pow: lambda x, y: x**y,
            }
            fn = ops.get(type(node.op))
            if fn is None:
                raise SpecError(f"operator {type(node.op).__name__} not allowed in {expr!r}")
            return arith(fn, ev(node.left), ev(node.right))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCS
            and len(node.args) == 1
            and not node.keywords
        ):
            return arith(_EXPR_FUNCS[node.func.id], ev(node.args[0]))
        raise SpecError(f"disallowed element in length expression {expr!r}")

    def arith(fn, *args) -> float:
        try:
            return fn(*args)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise SpecError(
                f"length expression {expr!r} fails at {param_name} = {value}: {exc}"
            ) from exc

    return ev(tree)


@dataclass(frozen=True)
class Family:
    """Parametrized family of surface specs (one spec per integer parameter)."""

    name: str
    param_name: str
    lo: int
    hi: int
    builder: Callable[[int], SurfaceSpec] = field(repr=False, compare=False)

    def values(self) -> range:
        return range(self.lo, self.hi + 1)

    def instance(self, value: int) -> SurfaceSpec:
        if not self.lo <= value <= self.hi:
            raise SpecError(
                f"family {self.name}: {self.param_name}={value} outside [{self.lo}, {self.hi}]"
            )
        return self.builder(value)
