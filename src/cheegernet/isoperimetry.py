"""Isoperimetric ratios over geodesic domains.

The domain-level isoperimetric constant of a spec is the infimum of
L(boundary)/area over geodesic domains, here enumerated as connected piece
sets.  A surface-level Cheeger bound follows from h(S)^-1 <= h_g(S)^-1 + 1.

The regularity constant at scale delta is the worst ratio of long-boundary
length to the number of short boundary components; families with collapsing
regularity are the standard obstruction to a linear isoperimetric
inequality even when every single ratio stays positive.

Both are minima over the same piece sets, so :func:`domain_reports` takes
them from one pass over the bitmasks of
:func:`cheegernet.surface.connected_piece_subsets`, read in numpy chunks
with one bool membership row per piece.  Boundary lengths are added curve
by curve in the order of `PiecesIndex.curves` (cut gluings by index, then
open curves by index), the order in which
:func:`cheegernet.surface.domain_from_pieces` lists a boundary, 0.0 for a
curve a set does not cut, so the values are the bits that summing over the
built domains gives; only the best domain and the witness are built.

Division by zero counts follows the x/0 = +inf convention.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .hypmath import DomainError
from .surface import (
    MAX_PIECES,
    Family,
    GeodesicDomain,
    SurfaceSpec,
    boundary_length,
    connected_piece_subsets,
    domain_from_pieces,
    pieces_index,
    require_valid,
)

__all__ = [
    "MAX_PIECES",
    "IsoperimetricReport",
    "RegularityReport",
    "FamilyRow",
    "FamilyReport",
    "domain_reports",
    "cheeger_lower_bound",
    "fit_loglog",
    "is_decaying",
    "lii_verdict",
    "family_csv",
    "CSV_HEADER",
]

# Piece sets evaluated per numpy pass of the domain scan.
_CHUNK = 1 << 14


class IsoperimetricReport(NamedTuple):
    h_g: float
    best_domain: GeodesicDomain
    lower_bound_certified: bool
    method: str
    examined: int

    def to_dict(self) -> dict:
        return {
            "h_g": self.h_g,
            "best_domain_pieces": list(self.best_domain.piece_set),
            "best_domain_boundary_length": boundary_length(self.best_domain),
            "best_domain_area": self.best_domain.area,
            "lower_bound_certified": self.lower_bound_certified,
            "method": self.method,
            "examined": self.examined,
        }


class RegularityReport(NamedTuple):
    delta: float
    worst_c: float
    witness: GeodesicDomain | None
    examined: int

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "worst_c": "inf" if math.isinf(self.worst_c) else self.worst_c,
            "witness_pieces": list(self.witness.piece_set) if self.witness else None,
            "examined": self.examined,
        }


def _least(inside: np.ndarray, cols: np.ndarray) -> int:
    """The column, among cols of a pieces x sets membership matrix, whose
    sorted member tuple is lexicographically smallest."""
    sub = inside[:, cols]
    while len(cols) > 1:
        alive = sub.any(axis=0)
        if not alive.all():  # the set is the prefix all the others share
            return int(cols[~alive][0])
        first = sub.argmax(axis=0)
        lead = first.min()
        cols, sub = cols[first == lead], sub[lead + 1:, first == lead]
    return int(cols[0])


def _fold_chunk(subsets, n: int, curves: list, delta: float, best: list) -> int:
    """Fold the ratios of up to _CHUNK more piece sets into best and return
    how many it took.  Its arrays die on return, before the next chunk."""
    masks = list(itertools.islice(subsets, _CHUNK))
    rows, width = len(masks), (n + 7) // 8
    if not rows:
        return 0
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    inside = np.unpackbits(np.ascontiguousarray(raw.reshape(rows, width).T), axis=0,
                           bitorder="little")[:n].view(bool)
    total, long_total = np.zeros(rows), np.zeros(rows)
    short_count = np.zeros(rows, dtype=np.int64)
    for a, b, length in curves:
        cut = inside[a] if b is None else inside[a] != inside[b]
        step = np.where(cut, length, 0.0)
        total += step
        if length >= delta:
            long_total += step
        else:
            short_count += cut
    ratios = (total / ((2.0 * math.pi) * inside.sum(axis=0)),
              np.divide(long_total, short_count, out=np.full(rows, math.inf),
                        where=short_count > 0))
    for slot, vals in enumerate(ratios):
        v = float(vals.min())
        if v < math.inf and v <= best[slot][0]:
            col = _least(inside, np.flatnonzero(vals == v))
            best[slot] = min(best[slot], (v, tuple(np.flatnonzero(inside[:, col]).tolist())))
    return rows


def _scan(spec: SurfaceSpec, delta: float, max_pieces: int):
    """One pass over the connected piece sets of size <= max_pieces, _CHUNK
    sets per numpy pass: (least h_g ratio, its piece set, worst regularity
    ratio, its piece set, sets examined).  Ties break to the
    lexicographically smallest set."""
    curves = [(a, b, c.length) for a, b, c in pieces_index(spec).curves]
    best = [(math.inf, None), (math.inf, None)]  # (h_g ratio, set), (regularity ratio, set)
    examined = 0
    subsets = connected_piece_subsets(spec, max_pieces)
    while rows := _fold_chunk(subsets, spec.pieces, curves, delta, best):
        examined += rows
    (best_ratio, best_set), (worst, witness) = best
    return best_ratio, best_set, worst, witness, examined


def domain_reports(
    spec: SurfaceSpec, delta: float, max_pieces: int = MAX_PIECES
) -> tuple[IsoperimetricReport, RegularityReport]:
    """h_g and the regularity constant of a spec from one pass over its
    connected piece sets of size up to max_pieces.

    h_g is the least L(boundary)/area; it is certified exact when the cap
    covers every size.  The regularity constant is the worst ratio
    L(long boundary)/#(short boundary components) at scale delta, +inf when
    no set has short components.  Ties break to the lexicographically
    smallest piece set.
    """
    require_valid(spec)
    if max_pieces < 1:
        raise DomainError(f"max_pieces must be >= 1, got {max_pieces}")
    if not (math.isfinite(delta) and delta > 0.0):
        raise DomainError(f"delta must be positive, got {delta!r}")
    h_g, best, worst, witness, examined = _scan(spec, delta, max_pieces)
    iso = IsoperimetricReport(
        h_g=h_g,
        best_domain=domain_from_pieces(spec, best),
        lower_bound_certified=max_pieces >= spec.pieces,
        method="exact",
        examined=examined,
    )
    reg = RegularityReport(
        delta=delta,
        worst_c=worst,
        witness=domain_from_pieces(spec, witness) if witness is not None else None,
        examined=examined,
    )
    return iso, reg


def cheeger_lower_bound(h_g: float) -> float:
    """Surface Cheeger bound h >= h_g/(1 + h_g), from h^-1 <= h_g^-1 + 1."""
    if h_g < 0.0:
        raise DomainError(f"h_g must be >= 0, got {h_g!r}")
    if h_g == 0.0:
        return 0.0
    return h_g / (1.0 + h_g)


def fit_loglog(xs, ys) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys)]
    if len(pts) < 2:
        raise DomainError("need at least two points for a trend fit")
    n = len(pts)
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    syy = sum((p[1] - my) ** 2 for p in pts)
    if sxx == 0.0:
        raise DomainError("degenerate trend fit: all x equal")
    slope = sxy / sxx
    ss_res = sum((p[1] - (my + slope * (p[0] - mx))) ** 2 for p in pts)
    r2 = 1.0 if syy == 0.0 else 1.0 - ss_res / syy
    return slope, r2


def is_decaying(params, values) -> tuple[bool, float | None, float | None]:
    """Trend call on the largest five instances: decaying iff the log-log
    slope is < -0.5 with R^2 > 0.9.  Nonpositive values short-circuit to
    decaying (a zero ratio cannot be bounded away from zero)."""
    pairs = sorted(zip(params, values))[-5:]
    if any(v <= 0.0 for _, v in pairs):
        return True, None, None
    if len(pairs) < 2:
        return False, None, None
    slope, r2 = fit_loglog([p for p, _ in pairs], [v for _, v in pairs])
    return slope < -0.5 and r2 > 0.9, slope, r2


class FamilyRow(NamedTuple):
    param: int
    h_g: float
    best_domain_size: int
    worst_c: float
    verdict: str


class FamilyReport(NamedTuple):
    name: str
    verdict: str  # "has_LII_evidence" | "no_LII_evidence"
    rows: tuple[FamilyRow, ...]
    slope: float | None
    r_squared: float | None
    h_lower_bound: float

    def to_dict(self) -> dict:
        return {
            "family": self.name,
            "verdict": self.verdict,
            "slope": self.slope,
            "r_squared": self.r_squared,
            "h_lower_bound": self.h_lower_bound,
            "rows": [
                {
                    "param": r.param,
                    "h_g": r.h_g,
                    "best_domain_size": r.best_domain_size,
                    "worst_c": "inf" if math.isinf(r.worst_c) else r.worst_c,
                    "verdict": r.verdict,
                }
                for r in self.rows
            ],
        }


def lii_verdict(family: Family, delta: float, max_pieces: int = MAX_PIECES) -> FamilyReport:
    """Sweep every instance of a family, in parameter order, and decide
    whether its isoperimetric ratios decay.

    Decaying ratios (log-log slope < -0.5, R^2 > 0.9 over the largest five
    instances) are evidence against a linear isoperimetric inequality;
    otherwise the ratios stay bounded below and the report attaches the
    surface Cheeger bound h >= h_g/(1 + h_g) for the largest instance.
    """
    vals = list(family.values())
    reports = [domain_reports(family.instance(v), delta, max_pieces) for v in vals]
    hgs = [iso.h_g for iso, _ in reports]
    decaying, slope, r2 = is_decaying(vals, hgs)
    verdict = "no_LII_evidence" if decaying else "has_LII_evidence"
    rows = tuple(
        FamilyRow(
            param=v,
            h_g=iso.h_g,
            best_domain_size=len(iso.best_domain.piece_set),
            worst_c=reg.worst_c,
            verdict=verdict,
        )
        for v, (iso, reg) in zip(vals, reports)
    )
    return FamilyReport(
        name=family.name,
        verdict=verdict,
        rows=rows,
        slope=slope,
        r_squared=r2,
        h_lower_bound=cheeger_lower_bound(hgs[-1]),
    )


CSV_HEADER = "param,h_g,best_domain_size,worst_c,verdict"


def family_csv(report: FamilyReport) -> str:
    """CSV rendering of a family sweep (header plus one row per instance)."""
    lines = [CSV_HEADER]
    for r in report.rows:
        worst = "inf" if math.isinf(r.worst_c) else repr(r.worst_c)
        lines.append(f"{r.param},{r.h_g!r},{r.best_domain_size},{worst},{r.verdict}")
    return "\n".join(lines) + "\n"
