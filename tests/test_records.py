"""The record contract.

Plain-value records are `typing.NamedTuple`s: immutable tuples that
compare, sort and hash as the tuple of their fields, as the frozen
dataclasses they replaced did, so spec hashes and gluing order keep their
values.  Three records stay frozen dataclasses: `SurfaceSpec` (a cached
hash), `Family` (a builder left out of comparison) and
`hypmath.NetBuildParams` (checked when built)."""

import dataclasses
import inspect
from pathlib import Path

import pytest

from cheegernet import families, graphtools, hypmath, isoperimetry, netgraph, surface
from cheegernet.hypmath import DomainError, NetBuildParams, delta1

GOLDEN = Path(__file__).parent / "golden"
EPS = hypmath.ARCSINH_ONE / 2.0
PARAMS = NetBuildParams(EPS, 0.9 * delta1(EPS))
MODULES = [hypmath, surface, graphtools, isoperimetry, netgraph]
DATACLASSES = [surface.SurfaceSpec, surface.Family, hypmath.NetBuildParams]


def bundled_specs():
    """(name, spec) for every bundled and golden spec and every instance of
    the bundled and golden families."""
    paths = sorted(families.bundled_path("flute8.json").parent.glob("*.json"))
    for path in paths + sorted(GOLDEN.glob("*.json")):
        if path.name.endswith(".family.json"):
            fam = families.load_family(path)
            for v in fam.values():
                yield f"{path.name}[{v}]", fam.instance(v)
        else:
            yield path.name, surface.load_spec(path)


SPECS = dict(bundled_specs())


@pytest.mark.parametrize("name", list(SPECS))
def test_specs_sort_and_hash_as_their_fields(name):
    spec = SPECS[name]
    assert sorted(spec.gluings) == sorted(spec.gluings, key=lambda g: (g.a, g.b, g.length))
    assert sorted(spec.opens) == sorted(spec.opens, key=lambda o: (o.at, o.length))
    fields = (spec.pieces, tuple((g.a, g.b, g.length) for g in spec.gluings), spec.cusps,
              tuple((o.at, o.length) for o in spec.opens))
    assert hash(spec) == hash(fields)
    assert spec == surface.SurfaceSpec(spec.pieces, spec.gluings, spec.cusps, spec.opens)


def record_classes() -> dict:
    """Every NamedTuple class the package defines, by name."""
    return {name: cls for m in MODULES for name, cls in vars(m).items()
            if inspect.isclass(cls) and cls.__module__ == m.__name__
            and issubclass(cls, tuple) and hasattr(cls, "_fields")}


@pytest.fixture(scope="module")
def records() -> dict:
    """One record of every kind, from the pipeline on the bundled flute."""
    spec = SPECS["flute8.json"]
    net = netgraph.build_net(spec, PARAMS)
    mesh, vmap = netgraph.build_quotient_mesh(spec, PARAMS)
    dmat = net.graph.distance_matrix()
    proxy = graphtools.boundary_proxy(net.graph, dmat, keep=netgraph.ring_samples(net))
    iso, reg = isoperimetry.domain_reports(spec, PARAMS.delta)
    fam = isoperimetry.lii_verdict(families.load_family(families.bundled_path("flute.family.json")),
                                   PARAMS.delta)
    thin = surface.make_spec(2, [((0, 1), (1, 0), 0.1)], [(0, 2), (1, 2)],
                             [((0, 0), 1.0), ((1, 1), 1.0)])
    tt = surface.thick_thin(thin, EPS)
    out = [
        spec.gluings[0], spec.opens[0], surface.pieces_index(spec), iso.best_domain,
        iso.best_domain.boundary[0], hypmath.cusp_collar(EPS), iso, reg, fam, fam.rows[0],
        tt, tt.thin_collars[0], tt.cusp_collars[0],
        net, net.rings[0], netgraph.estimate_qi_constants(net.graph, mesh, vmap),
        netgraph.net_cheeger_estimate(net), graphtools.hyperbolicity_delta(net.graph),
        graphtools.min_ratio_cut(3, [(0, 1, 1.0), (1, 2, 1.0)], [0, 1]), proxy,
        graphtools.uniform_perfectness(proxy.dists, a=proxy.a, radius=proxy.radius),
        graphtools.has_pole(net.graph, net.graph.index_of(proxy.base),
                            list(net.special_w.values()), dmat),
    ]
    return {type(r).__name__: r for r in out}


def test_every_plain_record_is_a_named_tuple(records):
    classes = record_classes()
    assert len(classes) == 22 and set(records) == set(classes)
    for name, rec in records.items():
        assert type(rec) is classes[name]
    for cls in DATACLASSES:
        assert cls.__name__ not in classes
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen


def test_fields_cannot_be_assigned(records):
    fam = families.load_family(families.bundled_path("flute.family.json"))
    frozen = [*records.values(), SPECS["flute8.json"], fam, PARAMS]
    for rec in frozen:
        field = rec._fields[0] if hasattr(rec, "_fields") else dataclasses.fields(rec)[0].name
        with pytest.raises(AttributeError):
            setattr(rec, field, None)


def test_moved_names_are_shared():
    assert netgraph.NetBuildParams is hypmath.NetBuildParams
    assert isoperimetry.MAX_PIECES is surface.MAX_PIECES == 12
    with pytest.raises(DomainError, match="delta must lie in"):
        NetBuildParams(0.5, delta1(0.5))


def test_qi_report_dict_keeps_its_keys(records):
    rep = records["QIReport"]
    doc = rep.to_dict()
    assert list(doc) == ["alpha", "beta", "fullness", "pairs", "hops"]
    assert list(doc.values()) == list(rep)
