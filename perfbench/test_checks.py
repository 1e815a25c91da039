"""Tests of the benchmark's own checks and tracer.

Run with the package on the path, from the repository root:
    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import numpy as np
import pytest

import checks
import workloads
from cheegernet import cli
from tracer import Tracer, per_layer_metrics


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_family_closed_forms():
    for n in (2, 5, 13, 20):
        best = checks.family_ratios("flute", n)
        assert min(best.values()) == pytest.approx(1 / (math.pi * n))
        assert min(v for k, v in best.items() if k <= 12) == pytest.approx(1 / (math.pi * min(n, 12)))
    for n in (2, 7):
        assert min(checks.family_ratios("genus_ladder", n).values()) == pytest.approx(1 / (2 * math.pi * n))
    tree = checks.family_ratios("pants_tree", 4)
    assert max(tree) == 22 and tree[22] == pytest.approx(24 / (2 * math.pi * 22))


def test_sweep_check_names_the_cap_fault_only_when_the_cap_explains_it(tmp_path):
    family = write(tmp_path, "flute.family.json", {"family": "flute", "param": {"name": "n", "range": [2, 20]}})
    problems = checks.check_sweep(run_cli(["sweep", family]), "json", "flute", 2, 20)
    assert len(problems) == 1 and problems[0].startswith(checks.KNOWN_FAULT)
    # The same rows with the verdict the true infimum calls for pass.
    doc = json.loads(run_cli(["sweep", family]))
    doc["verdict"] = "no_LII_evidence"
    for row in doc["rows"]:
        row["verdict"] = "no_LII_evidence"
    assert checks.check_sweep(json.dumps(doc), "json", "flute", 2, 20) == []
    # A row below the true infimum is a fault the cap does not explain.
    doc["rows"][0]["h_g"] /= 2
    problems = checks.check_sweep(json.dumps(doc), "json", "flute", 2, 20)
    assert problems and not any(p.startswith(checks.KNOWN_FAULT) for p in problems)


def test_tree_sweep_passes_in_both_formats(tmp_path):
    family = write(tmp_path, "tree.family.json", {"family": "pants_tree", "param": {"name": "n", "range": [2, 4]}})
    for fmt in ("json", "csv"):
        assert checks.check_sweep(run_cli(["sweep", family, "--format", fmt]), fmt, "pants_tree", 2, 4) == []


@pytest.mark.parametrize("seed", [0, 1])
def test_ring_rule_net_matches_the_program(tmp_path, seed):
    spec = workloads.generated_spec(random.Random(seed), 6, 2, 2, 1)
    path = write(tmp_path, "spec.json", spec)
    outputs = {fmt: run_cli(["net", path, "--format", fmt]) for fmt in ("json", "csv", "dot")}
    net = checks.RingNet(spec)
    assert checks.check_net_outputs(outputs, net) == []
    outputs["dot"] = "\n".join(outputs["dot"].splitlines()[:-2] + ["}"])
    assert checks.check_net_outputs(outputs, net) == ["net: dot edges differ from json edges"]


def test_generated_sizes_do_not_depend_on_the_seed():
    sizes = {checks.RingNet(workloads.generated_spec(random.Random(s), 10, 3, 4, 1)).n for s in range(5)}
    assert len(sizes) == 1


def test_four_point_defect_of_a_cycle():
    d = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    assert checks.four_point_defect(d, (0, 1, 2, 3)) == 1.0
    assert checks.sampled_defect(d, seed=0, count=500) == 1.0


def test_graph_report_checks_catch_wrong_values(tmp_path):
    spec = workloads.flute(3)
    path = write(tmp_path, "flute3.json", spec)
    net = checks.RingNet(spec)
    hyp = run_cli(["hyperbolicity", path])
    assert checks.check_hyperbolicity(hyp, net.distance_matrix(), seed=0) == []
    bad = json.loads(hyp)
    bad["delta"] += 0.5
    assert checks.check_hyperbolicity(json.dumps(bad), net.distance_matrix(), seed=0)

    cheeger = run_cli(["cheeger", path])
    assert checks.check_cheeger(cheeger, net) == []
    bad = json.loads(cheeger)
    bad["witness"].append(str(("net", 0, 0, 0)))  # a sample of an open ring
    assert any("open-ring" in p for p in checks.check_cheeger(json.dumps(bad), net))

    assert checks.check_boundary(run_cli(["boundary", path]), net) == []
    qi = json.loads(run_cli(["qi", path]))
    assert checks.check_qi(json.dumps(qi), net) == []
    qi["pairs"] += 1
    assert checks.check_qi(json.dumps(qi), net)


def test_tracer_counts_calls_and_restores_the_package(tmp_path):
    from cheegernet import netgraph

    path = write(tmp_path, "flute3.json", workloads.flute(3))
    original = netgraph.build_net
    tracer = Tracer()
    tracer.install()
    try:
        run_cli(["qi", path])
    finally:
        tracer.uninstall()
    assert netgraph.build_net is original
    metrics = per_layer_metrics(tracer)
    assert metrics["netgraph.build_net_calls"] == (2, "count")
    assert metrics["graphtools.bfs_runs"][0] > 0 and metrics["graphtools.dijkstra_runs"][0] > 0
    [calls] = tracer.calls_per_operation()
    assert calls["cli.main"] == 1 and calls["netgraph.build_quotient_mesh"] == 1
    for row in tracer.totals().values():
        assert 0.0 <= row["self"] <= row["busy"] + 1e-9
