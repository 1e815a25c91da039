"""Command line front end: one pipeline from arguments to stdout.

`main` parses the arguments and checks every parameter before any input is
read: --eps and --delta become the one `hypmath.NetBuildParams`, then
--max-pieces, --format dot and --mode are checked, in that order.  It calls
the command, which reads its input with `surface.read_json` and returns its
exit code, its JSON object, and its CSV or dot text or None; no command
writes to stdout.  `main` writes the text for --format csv or dot, and the
JSON object otherwise or when the text is None, so `validate` writes JSON
whatever --format says.  `net` builds only the form asked for: json, the
csv edge list or dot; --format dot exits 3 for every other command.

JSON goes through `to_json`, which returns exactly the bytes of
`json.dumps(obj, sort_keys=True, indent=2)` and raises where that call
raises.  With `indent` the standard library leaves its C encoder for a
pure-Python one, slow on long lists, so `to_json` writes a top-level list of
same-shape rows (the net's edge triples and vertex records, the `qi` hop
rows) by one `%` format over all rows; the standard library writes
everything else, with no recursion of the package's own.

`isoperimetry` and `sweep` take h_g and the regularity constant of each spec
from one enumeration pass (`isoperimetry.domain_reports`); a sweep runs it
for the family's instances one after another.  `validate` and `sweep` look
at the document first to tell family files (an object with a "family" or
"param" key) from spec files; the seven other commands read only specs and
refuse a family file with exit 2 and a message naming `validate` and `sweep`.

Only `surface` and `hypmath` load with this module; each command imports
the modules it runs, so `validate` and `thickthin` load no numpy.

Exit codes: 0 success, 2 input or spec validation failure, 3 parameter
failure (tolerance/scale arguments outside their admissible ranges).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from itertools import chain
from json import dumps
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from operator import itemgetter
from pathlib import Path

from . import surface
from .hypmath import ARCSINH_ONE, DomainError, NetBuildParams, delta1
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
    p.add_argument("command", choices=list(_COMMANDS))
    p.add_argument("input", help="spec or family JSON file")
    p.add_argument("--eps", type=float, default=None,
                   help="thick-thin scale, default arcsinh(1)/2")
    p.add_argument("--delta", type=float, default=None,
                   help="net scale, default 0.9*delta1(eps)")
    p.add_argument("--max-pieces", type=int, default=surface.MAX_PIECES,
                   help="domain enumeration cap")
    p.add_argument("--mode", default="auto",
                   help="command-specific mode selector")
    p.add_argument("--format", default="json", choices=["json", "csv", "dot"],
                   dest="fmt")
    return p


# Row columns of these exact types are written by one conversion each; for
# an exact float, %r is float.__repr__.
_CONVERSION = {int: "%d", float: "%r", str: "%s"}


def _rows(rows, pad: str):
    """The text of a list of two or more rows of one shape, or None.

    The rows must be lists or tuples of one length, or dicts with one set of
    str keys, and every value of a column must have one exact type: int,
    float (finite) or str.  The list is written by one `%` format over a
    repeated row template, with one conversion per column and each str
    column quoted by one `map`."""
    kinds = set(map(type, rows))
    first = rows[0]
    if kinds <= {list, tuple}:
        width, brackets, heads = len(first), "[]", [""] * len(first)
        columns = list(zip(*rows))
    elif kinds == {dict} and set(map(type, first)) == {str}:
        keys = sorted(first)
        width, brackets = len(keys), "{}"
        heads = [_quote(k).replace("%", "%%") + ": " for k in keys]
        try:
            columns = [list(map(itemgetter(k), rows)) for k in keys]
        except KeyError:
            return None
    else:
        return None
    if not width or set(map(len, rows)) != {width}:
        return None
    values = []
    for i, column in enumerate(columns):
        kind = type(column[0])
        if kind not in _CONVERSION or set(map(type, column)) != {kind}:
            return None
        if kind is float and not all(map(isfinite, column)):
            return None
        heads[i] += _CONVERSION[kind]
        values.append(list(map(_quote, column)) if kind is str else column)
    inner, item = "\n" + pad + "  ", ",\n" + pad + "    "
    row = brackets[0] + item[1:] + item.join(heads) + inner + brackets[1]
    template = "[" + inner + ("," + inner).join([row] * len(rows)) + "\n" + pad + "]"
    return template % tuple(chain.from_iterable(zip(*values)))


def to_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, with its
    errors.  In a dict with str keys each value that `_rows` writes, a list
    of two or more rows of one shape, goes through that one format; every
    other value goes to json, indented by two spaces more after each line
    break, since JSON text holds no raw newline."""
    if not isinstance(obj, dict) or not obj or not all(isinstance(k, str) for k in obj):
        return dumps(obj, sort_keys=True, indent=2)
    items = []
    for k in sorted(obj):
        v = obj[k]
        text = _rows(v, "  ") if isinstance(v, (list, tuple)) and len(v) > 1 else None
        if text is None:
            text = dumps(v, sort_keys=True, indent=2).replace("\n", "\n  ")
        items.append(_quote(k) + ": " + text)
    return "{\n  " + ",\n  ".join(items) + "\n}"


def _kv_csv(obj: dict) -> str:
    """`key,value` CSV of a dict of scalars, one row per key in key order."""
    return "key,value\n" + "".join(f"{k},{v}\n" for k, v in sorted(obj.items()))


def _is_family(doc) -> bool:
    """A family file holds an object with a "family" or "param" key."""
    return isinstance(doc, dict) and ("family" in doc or "param" in doc)


def _read(args):
    """The input document, or the family it holds if it is a family file."""
    from . import families

    doc = surface.read_json(args.input)
    return families.load_family(doc, Path(args.input).stem) if _is_family(doc) else doc


def _spec(args) -> surface.SurfaceSpec:
    """The spec in the input file, which must not be a family file."""
    doc = surface.read_json(args.input)
    if _is_family(doc):
        raise SpecError(f"{args.input} is a family file: only validate and sweep read one")
    return surface.spec_from_dict(doc)


def _cmd_validate(args, params):
    src = _read(args)
    if isinstance(src, surface.Family):
        for v in src.values():
            problems = surface.validate(src.instance(v))
            if problems:
                return EXIT_INPUT, {"valid": False, "param": v,
                                    "problems": list(problems)}, None
        return EXIT_OK, {"valid": True, "family": src.name,
                         "instances": len(src.values())}, None
    spec = surface.spec_from_dict(src)
    problems = surface.validate(spec)
    if problems:
        return EXIT_INPUT, {"valid": False, "problems": list(problems)}, None
    return EXIT_OK, {"valid": True, "pieces": spec.pieces,
                     "gluings": len(spec.gluings), "cusps": len(spec.cusps),
                     "opens": len(spec.opens)}, None


def _cmd_thickthin(args, params):
    spec = _spec(args)
    tt = surface.thick_thin(spec, params.eps)
    thin_idx = set(tt.thin_indices())
    out = {
        "eps": params.eps,
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
    return EXIT_OK, out, _kv_csv({"eps": params.eps, "thin_count": len(out["thin"]),
                                  "cusp_count": len(out["cusps"]),
                                  "thick_count": len(out["thick_gluings"])})


def _cmd_isoperimetry(args, params):
    from . import isoperimetry

    spec = _spec(args)
    iso, reg = isoperimetry.domain_reports(spec, params.delta,
                                           max_pieces=args.max_pieces)
    out = iso.to_dict()
    out["regularity"] = reg.to_dict()
    out["h_lower_bound"] = isoperimetry.cheeger_lower_bound(iso.h_g)
    return EXIT_OK, out, _kv_csv({"h_g": iso.h_g, "method": iso.method,
                                  "worst_c": out["regularity"]["worst_c"],
                                  "h_lower_bound": out["h_lower_bound"]})


def _cmd_net(args, params):
    from . import netgraph

    spec = _spec(args)
    net = netgraph.build_net(spec, params)
    g = net.graph
    if args.fmt == "csv":
        return EXIT_OK, None, "u,v,weight\n" + "".join(f"{i},{j},{w!r}\n" for i, j, w in g.edges())
    tags = netgraph.net_tags(net)
    if args.fmt == "dot":
        return EXIT_OK, None, netgraph.to_dot(g, tags)
    curves = spec.gluings + spec.opens
    return EXIT_OK, {
        "vertices": [{"index": i, "tag": tag} for i, tag in enumerate(tags)],
        "edges": list(g.edges()),
        "degree_bound": netgraph.degree_bound(
            params, max_curve_length=max((c.length for c in curves), default=1.0)),
        "max_degree": netgraph.max_degree(g),
    }, None


def _cmd_cheeger(args, params):
    from . import graphtools, netgraph

    spec = _spec(args)
    if args.mode == "ambient" and not spec.opens:
        raise DomainError("the spec has no open curves, so ambient mode has no outer edge")
    net = netgraph.build_net(spec, params)
    if args.mode == "auto":
        rep = netgraph.net_cheeger_estimate(net)
    else:
        interior = netgraph.interior_vertices(net) if args.mode == "ambient" else None
        rep = graphtools.cheeger(net.graph, mode=args.mode, interior=interior)
    return EXIT_OK, rep.to_dict(), _kv_csv({"value": rep.value, "exact": rep.exact,
                                            "mode": rep.mode})


def _cmd_hyperbolicity(args, params):
    from . import graphtools, netgraph

    spec = _spec(args)
    rep = graphtools.hyperbolicity_delta(netgraph.build_net(spec, params).graph)
    return EXIT_OK, rep.to_dict(), _kv_csv({"delta": rep.delta, "exact": rep.exact,
                                            "base_dependence": rep.base_dependence})


def _cmd_boundary(args, params):
    from . import graphtools, netgraph

    spec = _spec(args)
    net = netgraph.build_net(spec, params)
    dmat = net.graph.distance_matrix()
    proxy = graphtools.boundary_proxy(net.graph, dmat, keep=netgraph.ring_samples(net))
    defect = graphtools.ultrametric_defect(proxy.dists)
    up = graphtools.uniform_perfectness(proxy.dists, a=proxy.a,
                                        radius=proxy.radius)
    specials = [*net.special_w.values(), *net.special_v.values()]
    pole = None
    if specials:
        base = net.graph.index_of(proxy.base)
        pole = graphtools.has_pole(net.graph, base, specials, dmat).to_dict()
    out = {
        "proxy": proxy.to_dict(),
        "ultrametric_defect": defect,
        "uniform_perfectness": up.to_dict(),
        "pole": pole,
    }
    return EXIT_OK, out, _kv_csv({
        "points": len(proxy.points),
        "ultrametric_defect": defect,
        "up_passed": up.passed,
        "up_s": up.s_value,
    })


def _cmd_qi(args, params):
    from . import netgraph

    spec = _spec(args)
    net = netgraph.build_net(spec, params)
    mesh, vmap = netgraph.build_quotient_mesh(spec, params)
    doc = netgraph.estimate_qi_constants(net.graph, mesh, vmap).to_dict()
    return EXIT_OK, doc, _kv_csv({k: v for k, v in doc.items() if k != "hops"})


def _cmd_sweep(args, params):
    from . import isoperimetry

    fam = _read(args)
    if not isinstance(fam, surface.Family):
        raise SpecError(f"{args.input} is not a family file")
    report = isoperimetry.lii_verdict(fam, params.delta, max_pieces=args.max_pieces)
    return EXIT_OK, report.to_dict(), isoperimetry.family_csv(report)


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

# Accepted --mode values; every other command accepts only "auto".
_MODES = {"cheeger": ("auto", "finite_half", "ambient")}

# The parser keeps no state between parse_args calls, so one per process
# serves every call of main; it is built at the first.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        eps = EPS_DEFAULT if args.eps is None else args.eps
        params = NetBuildParams(eps, 0.9 * delta1(eps) if args.delta is None else args.delta)
        if args.max_pieces < 1:
            raise DomainError(f"--max-pieces must be >= 1, got {args.max_pieces}")
        if args.fmt == "dot" and args.command != "net":
            raise DomainError("--format dot is only available for: ['net']")
        if args.mode not in _MODES.get(args.command, ("auto",)):
            raise DomainError(f"unknown {args.command} mode {args.mode!r}")
        code, obj, text = _COMMANDS[args.command](args, params)
        if text is None or args.fmt == "json":
            text = to_json(obj) + "\n"
        sys.stdout.write(text)
        return code
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
