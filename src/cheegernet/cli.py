"""Command line front end.

Exit codes: 0 success, 2 input or spec validation failure, 3 parameter
failure (tolerance/scale arguments outside their admissible ranges).
`isoperimetry` and `sweep` take h_g and the regularity constant of each spec
from one enumeration pass (`isoperimetry.domain_reports`); a sweep runs it
for the family's instances one after another.  Every command reads its
input with `surface.read_json`; `validate` and `sweep` look at the document
first to tell spec and family files apart.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import families, graphtools, isoperimetry, netgraph, surface
from .hypmath import ARCSINH_ONE, DomainError, check_delta, delta1
from .surface import SpecError

EPS_DEFAULT = ARCSINH_ONE / 2.0

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARAM = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cheegernet",
        description="Isoperimetric and coarse-geometric reports for "
        "decorated pants-complex surfaces.",
    )
    p.add_argument("command", choices=[
        "validate", "thickthin", "isoperimetry", "net", "cheeger",
        "hyperbolicity", "boundary", "qi", "sweep",
    ])
    p.add_argument("input", help="spec or family JSON file")
    p.add_argument("--eps", type=float, default=None,
                   help="thick-thin scale, default arcsinh(1)/2")
    p.add_argument("--delta", type=float, default=None,
                   help="net scale, default 0.9*delta1(eps)")
    p.add_argument("--max-pieces", type=int, default=isoperimetry.MAX_PIECES,
                   help="domain enumeration cap")
    p.add_argument("--mode", default="auto",
                   help="command-specific mode selector")
    p.add_argument("--format", default="json", choices=["json", "csv", "dot"],
                   dest="fmt")
    return p


def _resolve_scales(args) -> tuple[float, float]:
    eps = EPS_DEFAULT if args.eps is None else args.eps
    delta = check_delta(eps, 0.9 * delta1(eps) if args.delta is None else args.delta)
    if args.max_pieces < 1:
        raise DomainError(f"--max-pieces must be >= 1, got {args.max_pieces}")
    return eps, delta


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _emit_kv_csv(obj: dict) -> None:
    lines = ["key,value"]
    for k in sorted(obj):
        v = obj[k]
        if isinstance(v, (str, int, float, bool)) or v is None:
            lines.append(f"{k},{v}")
    sys.stdout.write("\n".join(lines) + "\n")


def _is_family(doc) -> bool:
    return isinstance(doc, dict) and ("family" in doc or "param" in doc)


def _net_params(eps, delta) -> netgraph.NetBuildParams:
    return netgraph.NetBuildParams(eps=eps, delta=delta)


def _cmd_validate(args, eps, delta) -> int:
    doc = surface.read_json(args.input)
    if _is_family(doc):
        fam = families.load_family(doc, Path(args.input).stem)
        checked = []
        for v in fam.values():
            problems = surface.validate(fam.instance(v))
            if problems:
                _emit_json({"valid": False, "param": v,
                            "problems": list(problems)})
                return EXIT_INPUT
            checked.append(v)
        _emit_json({"valid": True, "family": fam.name,
                    "instances": len(checked)})
        return EXIT_OK
    spec = surface.spec_from_dict(doc)
    problems = surface.validate(spec)
    if problems:
        _emit_json({"valid": False, "problems": list(problems)})
        return EXIT_INPUT
    _emit_json({"valid": True, "pieces": spec.pieces,
                "gluings": len(spec.gluings), "cusps": len(spec.cusps),
                "opens": len(spec.opens)})
    return EXIT_OK


def _cmd_thickthin(args, eps, delta) -> int:
    spec = surface.load_spec(args.input)
    tt = surface.thick_thin(spec, eps)
    thin_idx = set(tt.thin_indices())
    out = {
        "eps": eps,
        "thin": [
            {
                "gluing": c.gluing_index,
                "core_length": c.core_length,
                "half_width": c.half_width,
                "boundary_length": c.boundary_length,
                "area": c.area,
                "separating": c.is_separating,
            }
            for c in tt.thin_collars
        ],
        "cusps": [
            {"piece": c.cusp[0], "slot": c.cusp[1], "boundary_length": c.lam}
            for c in tt.cusp_collars
        ],
        "thick_gluings": [i for i in range(len(spec.gluings))
                          if i not in thin_idx],
    }
    if args.fmt == "csv":
        _emit_kv_csv({"eps": eps, "thin_count": len(out["thin"]),
                      "cusp_count": len(out["cusps"]),
                      "thick_count": len(out["thick_gluings"])})
    else:
        _emit_json(out)
    return EXIT_OK


def _cmd_isoperimetry(args, eps, delta) -> int:
    spec = surface.load_spec(args.input)
    iso, reg = isoperimetry.domain_reports(spec, delta,
                                           max_pieces=args.max_pieces)
    out = iso.to_dict()
    out["regularity"] = reg.to_dict()
    out["h_lower_bound"] = isoperimetry.cheeger_lower_bound(iso.h_g)
    if args.fmt == "csv":
        _emit_kv_csv({"h_g": iso.h_g, "method": iso.method,
                      "worst_c": out["regularity"]["worst_c"],
                      "h_lower_bound": out["h_lower_bound"]})
    else:
        _emit_json(out)
    return EXIT_OK


def _cmd_net(args, eps, delta) -> int:
    spec = surface.load_spec(args.input)
    net = netgraph.build_net(spec, _net_params(eps, delta))
    tags = netgraph.net_tags(net)
    g = net.graph
    if args.fmt == "dot":
        sys.stdout.write(netgraph.to_dot(g, tags))
    elif args.fmt == "csv":
        lines = ["u,v,weight"]
        for u, v, w in g.edges():
            lines.append(f"{g.index_of(u)},{g.index_of(v)},{w!r}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        order = g.vertices()
        _emit_json({
            "vertices": [{"index": i, "tag": tags[v]}
                         for i, v in enumerate(order)],
            "edges": [[g.index_of(u), g.index_of(v), w]
                      for u, v, w in g.edges()],
            "degree_bound": netgraph.degree_bound(
                eps, delta,
                max_curve_length=_max_curve_length(spec)),
            "max_degree": netgraph.max_degree(g),
        })
    return EXIT_OK


def _max_curve_length(spec: surface.SurfaceSpec) -> float:
    lengths = [g.length for g in spec.gluings] + [o.length for o in spec.opens]
    return max(lengths, default=1.0)


def _cmd_cheeger(args, eps, delta) -> int:
    spec = surface.load_spec(args.input)
    if args.mode == "ambient" and not spec.opens:
        raise DomainError("the spec has no open curves, so ambient mode has no outer edge")
    net = netgraph.build_net(spec, _net_params(eps, delta))
    if args.mode == "auto":
        rep = netgraph.net_cheeger_estimate(net)
    else:
        interior = netgraph.interior_vertices(net) if args.mode == "ambient" else None
        rep = graphtools.cheeger(net.graph, mode=args.mode, interior=interior)
    out = rep.to_dict()
    if args.fmt == "csv":
        _emit_kv_csv({"value": rep.value, "exact": rep.exact, "mode": rep.mode})
    else:
        _emit_json(out)
    return EXIT_OK


def _cmd_hyperbolicity(args, eps, delta) -> int:
    spec = surface.load_spec(args.input)
    rep = graphtools.hyperbolicity_delta(
        netgraph.build_net(spec, _net_params(eps, delta)).graph)
    if args.fmt == "csv":
        _emit_kv_csv({"delta": rep.delta, "exact": rep.exact,
                      "base_dependence": rep.base_dependence})
    else:
        _emit_json(rep.to_dict())
    return EXIT_OK


def _cmd_boundary(args, eps, delta) -> int:
    spec = surface.load_spec(args.input)
    net = netgraph.build_net(spec, _net_params(eps, delta))
    dmat = net.graph.distance_matrix()
    proxy = graphtools.boundary_proxy(net.graph, dmat, keep=lambda v: v[0] == "net")
    defect = graphtools.ultrametric_defect(proxy.dists)
    up = graphtools.uniform_perfectness(proxy.dists, a=proxy.a,
                                        radius=proxy.radius)
    specials = sorted(net.special_w.values()) + sorted(net.special_v.values())
    pole = None
    if specials:
        pole = graphtools.has_pole(net.graph, proxy.base, specials, dmat).to_dict()
    out = {
        "proxy": proxy.to_dict(),
        "ultrametric_defect": defect,
        "uniform_perfectness": up.to_dict(),
        "pole": pole,
    }
    if args.fmt == "csv":
        _emit_kv_csv({
            "points": len(proxy.points),
            "ultrametric_defect": defect,
            "up_passed": up.passed,
            "up_s": up.s_value,
        })
    else:
        _emit_json(out)
    return EXIT_OK


def _cmd_qi(args, eps, delta) -> int:
    spec = surface.load_spec(args.input)
    params = _net_params(eps, delta)
    net = netgraph.build_net(spec, params)
    mesh, vmap = netgraph.build_quotient_mesh(spec, params)
    rep = netgraph.estimate_qi_constants(net.graph, mesh, vmap)
    if args.fmt == "csv":
        _emit_kv_csv({"alpha": rep.alpha, "beta": rep.beta,
                      "fullness": rep.fullness, "pairs": rep.pairs})
    else:
        _emit_json(rep.to_dict())
    return EXIT_OK


def _cmd_sweep(args, eps, delta) -> int:
    doc = surface.read_json(args.input)
    if not _is_family(doc):
        raise SpecError(f"{args.input} is not a family file")
    fam = families.load_family(doc, Path(args.input).stem)
    report = isoperimetry.lii_verdict(fam, eps, delta, max_pieces=args.max_pieces)
    if args.fmt == "csv":
        sys.stdout.write(isoperimetry.family_csv(report))
    else:
        _emit_json(report.to_dict())
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "thickthin": _cmd_thickthin,
    "isoperimetry": _cmd_isoperimetry,
    "net": _cmd_net,
    "cheeger": _cmd_cheeger,
    "hyperbolicity": _cmd_hyperbolicity,
    "boundary": _cmd_boundary,
    "qi": _cmd_qi,
    "sweep": _cmd_sweep,
}

_DOT_OK = {"net"}

# Accepted --mode values per command; every command accepts "auto".
_MODES = {
    "isoperimetry": ("auto", "exact"),
    "hyperbolicity": ("auto", "exact"),
    "cheeger": ("auto", "finite_half", "ambient"),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        eps, delta = _resolve_scales(args)
        if args.fmt == "dot" and args.command not in _DOT_OK:
            raise DomainError(
                f"--format dot is only available for: {sorted(_DOT_OK)}"
            )
        if args.mode not in _MODES.get(args.command, ("auto",)):
            raise DomainError(f"unknown {args.command} mode {args.mode!r}")
    except DomainError as e:
        print(f"cheegernet: parameter error: {e}", file=sys.stderr)
        return EXIT_PARAM
    try:
        return _COMMANDS[args.command](args, eps, delta)
    except DomainError as e:
        print(f"cheegernet: parameter error: {e}", file=sys.stderr)
        return EXIT_PARAM
    except SpecError as e:
        print(f"cheegernet: invalid input: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"cheegernet: cannot read input: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
