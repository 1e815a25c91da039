"""Command line behavior: exit codes, determinism, output formats."""

import inspect
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cheegernet
from cheegernet import cli, families
from cheegernet.cli import main, to_json
from cheegernet.hypmath import DomainError
from cheegernet.isoperimetry import CSV_HEADER

FLUTE8 = str(families.bundled_path("flute8.json"))
FLUTE_FAM = str(families.bundled_path("flute.family.json"))
# A valid one-piece spec (self-gluing and a cusp) and a parameter range.
ONE_PIECE = {"pieces": 1, "gluings": [{"a": [0, 0], "b": [0, 1], "length": 1.0}],
             "cusps": [[0, 2]]}
N_1_2 = {"name": "n", "range": [1, 2]}
KNOWN_BUILDERS = "['flute', 'genus_ladder', 'pants_tree', 'shrinking_flute']"
SPEC_COMMANDS = ["validate", "thickthin", "isoperimetry", "net", "cheeger", "hyperbolicity",
                 "boundary", "qi"]


def two_piece_flute(curve: str, length: float) -> dict:
    """The spec of `flute(2)` with its gluing or its first open curve (curve
    "gluing" or "open") of the given length."""
    lengths = {"gluing": 1.0, "open": 1.0, curve: length}
    return {"pieces": 2, "gluings": [{"a": [0, 1], "b": [1, 0], "length": lengths["gluing"]}],
            "cusps": [[0, 2], [1, 2]],
            "opens": [{"at": [0, 0], "length": lengths["open"]}, {"at": [1, 1], "length": 1.0}]}


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def bad_spec_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "pieces": 2,
                "gluings": [
                    {"a": [0, 0], "b": [1, 0], "length": 1.0},
                    {"a": [0, 0], "b": [1, 1], "length": 1.0},
                ],
                "cusps": [[0, 1], [0, 2], [1, 2]],
            }
        )
    )
    return str(path)


@pytest.fixture
def tiny_family_file(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(
        json.dumps({"family": "flute", "param": {"name": "n", "range": [2, 5]}})
    )
    return str(path)


class TestExitCodes:
    def test_validate_ok(self, capsys):
        code, out, _ = run_main(capsys, "validate", FLUTE8)
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["pieces"] == 8

    def test_validate_bad_spec(self, capsys, bad_spec_file):
        code, out, _ = run_main(capsys, "validate", bad_spec_file)
        assert code == 2
        assert json.loads(out)["valid"] is False

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        code, _, err = run_main(capsys, "validate", str(p))
        assert code == 2
        assert "invalid input" in err

    def test_missing_file(self, capsys):
        code, _, err = run_main(capsys, "validate", "/nonexistent/x.json")
        assert code == 2

    def test_bad_eps(self, capsys):
        code, _, err = run_main(capsys, "thickthin", FLUTE8, "--eps", "1.5")
        assert code == 3
        assert "parameter error" in err

    def test_bad_delta(self, capsys):
        code, _, err = run_main(capsys, "net", FLUTE8, "--delta", "0.5")
        assert code == 3

    def test_dot_limited_to_net(self, capsys):
        code, _, err = run_main(capsys, "isoperimetry", FLUTE8,
                                "--format", "dot")
        assert code == 3

    @pytest.mark.parametrize("command", [
        "validate", "thickthin", "isoperimetry", "net", "cheeger",
        "hyperbolicity", "boundary", "qi", "sweep",
    ])
    def test_unknown_mode(self, capsys, command):
        path = FLUTE_FAM if command == "sweep" else FLUTE8
        code, out, err = run_main(capsys, command, path, "--mode", "bogus")
        assert code == 3
        assert out == ""
        assert f"unknown {command} mode 'bogus'" in err

    @pytest.mark.parametrize("command, option", [
        (command, option)
        for command in ["validate", "thickthin", "isoperimetry", "net", "cheeger",
                        "hyperbolicity", "boundary", "qi", "sweep"]
        for option in ["--eps=1.5", "--delta=0.5", "--max-pieces=0", "--format=dot",
                       "--mode=bogus"]
        if (command, option) != ("net", "--format=dot")
    ])
    def test_parameter_error_before_input_error(self, capsys, command, option):
        code, out, err = run_main(capsys, command, "/nonexistent/x.json", option)
        assert code == 3
        assert out == ""
        assert "parameter error" in err

    def test_ambient_needs_open_curves(self, capsys):
        closed = str(Path(__file__).parent / "golden" / "closed.json")
        code, out, err = run_main(capsys, "cheeger", closed, "--mode", "ambient")
        assert code == 3
        assert out == ""
        assert "the spec has no open curves, so ambient mode has no outer edge" in err

    def test_family_rejected_by_spec_commands(self, capsys):
        code, _, err = run_main(capsys, "net", FLUTE_FAM)
        assert code == 2
        assert "family" in err

    @pytest.mark.parametrize("command", [c for c in SPEC_COMMANDS if c != "validate"])
    @pytest.mark.parametrize("key", ["family", "param"])
    def test_family_file_names_the_family_commands(self, capsys, tmp_path, command, key):
        """A spec command given a family file names the commands that read
        one, not a Python function."""
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({key: "flute" if key == "family" else N_1_2}))
        code, out, err = run_main(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == (f"cheegernet: invalid input: {path} is a family file: "
                       "only validate and sweep read one\n")

    def test_spec_rejected_by_sweep(self, capsys):
        code, _, err = run_main(capsys, "sweep", FLUTE8)
        assert code == 2

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("length, error", [
        ("1/(n-2)", "division by zero"),   # ZeroDivisionError
        ("ln(n-2)", "math domain error"),  # ValueError
        ("exp(1000*n)", "math range error"),  # OverflowError
    ])
    def test_failing_length_expression(self, capsys, tmp_path, command, length, error):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({
            "param": {"name": "n", "range": [2, 3]},
            "pieces": 2,
            "gluings": [
                {"a": [0, 0], "b": [1, 0], "length": length},
                {"a": [0, 1], "b": [1, 1], "length": "1/n"},
            ],
            "cusps": [[0, 2]],
            "opens": [{"at": [1, 2], "length": "2"}],
        }))
        code, out, err = run_main(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert "invalid input" in err and repr(length) in err
        assert "n = 2" in err and error in err


    @pytest.mark.parametrize("command", ["validate", "sweep", "net"])
    def test_input_not_utf8(self, capsys, tmp_path, command):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"pieces": 2, "name": "\xff"}')
        code, out, err = run_main(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert "invalid input" in err

    @pytest.mark.parametrize("command", ["validate", "sweep", "net"])
    def test_input_nested_too_deeply(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_main(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert "invalid input" in err

    @pytest.mark.parametrize("command", ["validate", "net"])
    @pytest.mark.parametrize("doc", [
        {**ONE_PIECE, "opens": 5},
        {**ONE_PIECE, "pieces": True},
        {**ONE_PIECE, "gluings": [{"a": [False, 0], "b": [0, 1], "length": 1.0}]},
    ], ids=["opens_not_list", "pieces_bool", "slot_bool"])
    def test_malformed_spec_field(self, capsys, tmp_path, command, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert "invalid input" in err

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("doc, message", [
        ({"param": N_1_2, "pieces": 1, "gluings": 5, "cusps": [[0, 2]]},
         "spec needs a 'gluings' list"),
        ({"param": N_1_2, **ONE_PIECE, "opens": 5}, "spec 'opens' must be a list"),
        ({"family": ["flute"], "param": N_1_2},
         f"unknown family builder ['flute']; known: {KNOWN_BUILDERS}"),
        ({"family": "flute", "param": {"name": "n", "range": [True, 3]}},
         "fam: need 'param': {'name': str, 'range': [lo, hi]}"),
        ({"family": "flute_x", "param": {"name": "n", "range": [3]}},
         f"unknown family builder 'flute_x'; known: {KNOWN_BUILDERS}"),
        ({"family": "flute", "param": {"name": "n", "range": [4, 3]}},
         "fam: empty parameter range [4, 3]"),
        ({"param": {"name": "n", "range": [1, 3]}, **ONE_PIECE,
          "gluings": [{"a": [0, 0], "b": [0, 1], "length": "1/(n-2)^2"}]},
         "length expression '1/(n-2)^2' fails at n = 2: float division by zero"),
    ], ids=["gluings_not_list", "opens_not_list", "builder_not_str", "range_bool",
            "unknown_builder_bad_range", "empty_range", "expression_fails_at_one_value"])
    def test_malformed_family_field(self, capsys, tmp_path, command, doc, message):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err == f"cheegernet: invalid input: {message}\n"

    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    @pytest.mark.parametrize("curve", ["gluing", "open"])
    @pytest.mark.parametrize("length", [5e-324, 1e-320])
    def test_subnormal_length_is_invalid(self, capsys, tmp_path, command, curve, length):
        """A curve shorter than the least normal float is invalid input:
        half of it can round to zero in the collar formulas."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(two_piece_flute(curve, length)))
        code, out, err = run_main(capsys, command, str(path))
        problem = (f"{curve} 0 length must be finite and >= {sys.float_info.min!r}, "
                   f"got {length!r}")
        assert code == 2
        if command == "validate":
            assert json.loads(out) == {"valid": False, "problems": [problem]}
        else:
            assert out == ""
            assert err == f"cheegernet: invalid input: invalid spec:\n{problem}\n"

    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    @pytest.mark.parametrize("curve", ["gluing", "open"])
    def test_least_normal_length_is_valid(self, capsys, tmp_path, command, curve):
        """At the least normal float every formula is finite, so every
        command writes strict JSON (no Infinity or NaN)."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(two_piece_flute(curve, sys.float_info.min)))
        code, out, err = run_main(capsys, command, str(path))
        assert (code, err) == (0, "")
        json.loads(out, parse_constant=pytest.fail)

    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    @pytest.mark.parametrize("curve", ["gluing", "open"])
    def test_net_sample_budget(self, capsys, tmp_path, command, curve):
        """A curve of length 1e308 needs more ring samples than a net may
        hold: every net command exits 3 before placing any, and the
        commands that build no net still run."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(two_piece_flute(curve, 1e308)))
        code, out, err = run_main(capsys, command, str(path))
        if command in ("validate", "thickthin", "isoperimetry"):
            assert (code, err) == (0, "")
            json.loads(out, parse_constant=pytest.fail)
        else:
            assert code == 3
            assert out == ""
            assert err == ("cheegernet: parameter error: the net would need at least "
                           "1.797693135e+308 ring samples, more than the 1000000 allowed\n")

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_family_work_budget(self, capsys, tmp_path, command):
        """flute over [2, 100000] holds about 5e9 pieces in all: both family
        commands exit 3 within a second, naming the count, before building
        any instance."""
        path = tmp_path / "huge.family.json"
        path.write_text(json.dumps({"family": "flute",
                                    "param": {"name": "n", "range": [2, 100000]}}))
        start = time.perf_counter()
        code, out, err = run_main(capsys, command, str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == ("cheegernet: parameter error: flute: the instances for n in [2, 100000] "
                       "hold at least 100127 pieces, more than the 100000 allowed\n")

    def test_family_work_budget_is_exact(self, monkeypatch):
        """Depths 1..4 of pants_tree hold 1 + 4 + 10 + 22 = 37 pieces, and a
        template of 5 pieces over 3 values holds 15: each loads at a limit of
        its count and is refused one below it, naming the count."""
        tree = {"family": "pants_tree", "param": {"name": "d", "range": [1, 4]}}
        template = {"pieces": 5, "gluings": [], "cusps": [],
                    "param": {"name": "n", "range": [7, 9]}}
        for doc, count in ((tree, 37), (template, 15)):
            monkeypatch.setattr(families, "MAX_FAMILY_PIECES", count)
            families.load_family(doc)
            monkeypatch.setattr(families, "MAX_FAMILY_PIECES", count - 1)
            with pytest.raises(DomainError, match=f"hold at least {count} pieces, "
                                                  f"more than the {count - 1} allowed"):
                families.load_family(doc)

    @pytest.mark.parametrize("name", sorted(families.BUILDERS))
    def test_piece_counts_match_the_builders(self, name):
        for value in range(1, 9):
            try:
                spec = families.BUILDERS[name](value)
            except cheegernet.surface.SpecError:
                continue
            assert families.PIECES[name](value) == spec.pieces

    @pytest.mark.parametrize("command", ["isoperimetry", "hyperbolicity"])
    def test_exact_mode_removed(self, capsys, command):
        code, out, err = run_main(capsys, command, FLUTE8, "--mode", "exact")
        assert code == 3
        assert out == ""
        assert err == f"cheegernet: parameter error: unknown {command} mode 'exact'\n"

    def test_seed_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cheeger", FLUTE8, "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_one_parser_per_process(self, capsys):
        """main builds its parser once and reuses it: a rejected call, then
        a good one, then the rejected one again print the same usage and
        error text as a freshly built parser."""
        errors = []
        for parse in (main, main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(["cheeger", FLUTE8, "--seed", "3"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
            assert run_main(capsys, "validate", FLUTE8)[0] == 0
        assert errors[0].startswith("usage: cheegernet ")
        assert errors[0] == errors[1] == errors[2]
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_deep_length_expression_is_an_input_error(self, capsys, tmp_path, command):
        """A 1,500-term sum overflows the evaluator's recursion; it is
        reported as invalid input naming the expression, not a traceback."""
        expr = "+".join(["1"] * 1500)
        path = tmp_path / "deep.family.json"
        path.write_text(json.dumps({**ONE_PIECE, "param": N_1_2, "gluings": [
            {"a": [0, 0], "b": [0, 1], "length": expr}]}))
        code, out, err = run_main(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == f"cheegernet: invalid input: length expression {expr!r} is nested too deeply\n"

    def test_piece_count_cap(self, capsys, tmp_path):
        """A spec over surface.MAX_SPEC_PIECES pieces is refused with that
        one problem, before its slots are checked one by one."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"pieces": 100001, "gluings": [], "cusps": []}))
        code, out, _ = run_main(capsys, "validate", str(path))
        assert code == 2
        assert json.loads(out) == {"valid": False,
                                   "problems": ["piece count must be <= 100000, got 100001"]}


class TestDeterminism:
    def test_net_json_stable(self, capsys):
        _, out1, _ = run_main(capsys, "net", FLUTE8)
        _, out2, _ = run_main(capsys, "net", FLUTE8)
        assert out1 == out2

    def test_sweep_csv_stable(self, capsys, tiny_family_file):
        _, out1, _ = run_main(capsys, "sweep", tiny_family_file,
                              "--format", "csv")
        _, out2, _ = run_main(capsys, "sweep", tiny_family_file,
                              "--format", "csv")
        assert out1 == out2

    def test_hyperbolicity_stable(self, capsys):
        code1, out1, _ = run_main(capsys, "hyperbolicity", FLUTE8)
        code2, out2, _ = run_main(capsys, "hyperbolicity", FLUTE8)
        assert code1 == code2 == 0
        assert json.loads(out1)["exact"] is True
        assert out1 == out2

    def test_hyperbolicity_sampled_mode_rejected(self, capsys):
        code, out, err = run_main(capsys, "hyperbolicity", FLUTE8,
                                  "--mode", "sampled")
        assert code == 3
        assert out == ""
        assert "unknown hyperbolicity mode 'sampled'" in err


class TestCommands:
    def test_thickthin_default_eps(self, capsys):
        code, out, _ = run_main(capsys, "thickthin", FLUTE8)
        assert code == 0
        doc = json.loads(out)
        assert doc["thin"] == []  # unit lengths are thick at default eps
        assert len(doc["cusps"]) == 8
        assert len(doc["thick_gluings"]) == 7

    def test_isoperimetry_full_window(self, capsys):
        code, out, _ = run_main(capsys, "isoperimetry", FLUTE8,
                                "--max-pieces", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "exact"
        assert doc["lower_bound_certified"] is True
        assert doc["h_g"] == pytest.approx(2.0 / (16.0 * 3.141592653589793))
        assert doc["regularity"]["worst_c"] == "inf"
        assert 0.0 < doc["h_lower_bound"] < doc["h_g"]

    def test_isoperimetry_deep_cap_needs_no_recursion(self, capsys, tmp_path):
        # An enumeration that nests a frame per piece ends in RecursionError
        # once the cap passes the recursion limit.
        n = 400
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "pieces": n,
            "gluings": [{"a": [i, 1], "b": [i + 1, 0], "length": 1.0} for i in range(n - 1)],
            "cusps": [[i, 2] for i in range(n)],
            "opens": [{"at": [0, 0], "length": 1.0}, {"at": [n - 1, 1], "length": 1.0}],
        }))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 300)
        try:
            code, out, err = run_main(capsys, "isoperimetry", str(path), "--max-pieces", str(n))
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["h_g"] == 1.0 / (math.pi * n)
        assert doc["lower_bound_certified"] is True
        assert doc["examined"] == n * (n + 1) // 2

    def test_isoperimetry_parametric_mode(self, capsys):
        code, out, err = run_main(capsys, "isoperimetry", FLUTE8,
                                  "--mode", "parametric")
        assert code == 3
        assert out == ""
        assert "unknown isoperimetry mode 'parametric'" in err

    def test_net_formats(self, capsys):
        code, out, _ = run_main(capsys, "net", FLUTE8)
        doc = json.loads(out)
        assert code == 0
        assert doc["max_degree"] <= doc["degree_bound"]
        assert all(len(e) == 3 for e in doc["edges"])

        code, out, _ = run_main(capsys, "net", FLUTE8, "--format", "dot")
        assert code == 0 and out.startswith("graph net {")

        code, out, _ = run_main(capsys, "net", FLUTE8, "--format", "csv")
        assert code == 0 and out.splitlines()[0] == "u,v,weight"

    def test_cheeger_auto(self, capsys):
        code, out, _ = run_main(capsys, "cheeger", FLUTE8)
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "ambient"
        assert doc["value"] > 0.0

    def test_hyperbolicity_exact(self, capsys):
        code, out, _ = run_main(capsys, "hyperbolicity", FLUTE8)
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is True
        assert doc["delta"] == doc["base_dependence"]

    def test_boundary_report(self, capsys):
        code, out, _ = run_main(capsys, "boundary", FLUTE8)
        assert code == 0
        doc = json.loads(out)
        assert doc["proxy"]["points"]
        assert doc["ultrametric_defect"] >= 1.0
        assert "passed" in doc["uniform_perfectness"]
        assert doc["pole"] is not None  # flute has cusp specials

    def test_qi_report(self, capsys):
        code, out, _ = run_main(capsys, "qi", FLUTE8)
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] >= 1.0
        assert doc["beta"] >= 0.0
        assert doc["fullness"] >= 0.0

    def test_sweep_csv_columns(self, capsys, tiny_family_file):
        code, out, _ = run_main(capsys, "sweep", tiny_family_file,
                                "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5  # n = 2..5
        assert lines[1].startswith("2,")

    def test_sweep_json(self, capsys, tiny_family_file):
        code, out, _ = run_main(capsys, "sweep", tiny_family_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "flute"
        assert len(doc["rows"]) == 4


def json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def assert_writes_like_json(obj):
    """`to_json` gives the bytes of `json.dumps(..., sort_keys=True,
    indent=2)`, or raises TypeError where that call does."""
    try:
        expected = json_dumps(obj)
    except TypeError:
        with pytest.raises(TypeError):
            to_json(obj)
    else:
        assert to_json(obj) == expected


NAN, INF = float("nan"), float("inf")
TEXTS = ["", "a", "tag", "%", "%s", "%%d", '"', "\\", "é", "\u2603", "\U0001d11e", "\n\t",
         "\x00", "net 0 1 2"]


def random_text(rng) -> str:
    return "".join(rng.choice(TEXTS) for _ in range(rng.randint(0, 3)))


def random_float(rng) -> float:
    return rng.choice([rng.uniform(-1e3, 1e3), rng.random(), 1e16, 1e-7, -0.0, 5e-324, 1e308,
                       float(rng.randint(-5, 5)), NAN, INF, -INF, np.float64(rng.random())])


def random_scalar(rng, kind=None):
    kind = kind or rng.choice(["int", "float", "str", "bool", "None"])
    if kind == "int":
        return rng.choice([rng.randint(-9, 9), rng.randint(-10**20, 10**20)])
    if kind == "float":
        return random_float(rng)
    if kind == "str":
        return random_text(rng)
    return None if kind == "None" else rng.random() < 0.5


def random_key(rng):
    return random_text(rng) if rng.random() < 0.9 else random_scalar(rng)


def random_rows(rng, depth: int) -> list:
    """Rows of one shape, each column of one kind, then sometimes spoilt by
    one value of another kind, a ragged row or a different key set, or by a
    dict row written as a list."""
    width = rng.randint(0, 4)
    kinds = [rng.choice(["int", "float", "str", "str", "int"]) for _ in range(width)]
    keys = [random_text(rng) for _ in range(width)]
    shape = rng.choice([list, tuple, dict])
    rows = []
    for _ in range(rng.randint(1, 5)):
        values = [random_scalar(rng, kind) for kind in kinds]
        rows.append(dict(zip(keys, values)) if shape is dict else shape(values))
    spoil = rng.randrange(6)
    i = rng.randrange(len(rows))
    if spoil == 0 and width:
        j = rng.randrange(width)
        value = random_doc(rng, depth - 1)
        if shape is dict:
            rows[i][keys[j]] = value
        else:
            rows[i] = shape([*rows[i][:j], value, *rows[i][j + 1:]])
    elif spoil == 1:
        rows[i] = dict(rows[i], **{random_text(rng): 1}) if shape is dict else shape([*rows[i], 1])
    elif spoil == 2:
        rows[i] = list(rows[i].values()) if shape is dict else rows[i]
    return rows


def random_doc(rng, depth: int = 3):
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        return random_scalar(rng)
    if pick < 0.6:
        return random_rows(rng, depth)
    if pick < 0.8:
        items = [random_doc(rng, depth - 1) for _ in range(rng.randint(0, 4))]
        return items if rng.random() < 0.8 else tuple(items)
    return {random_key(rng): random_doc(rng, depth - 1) for _ in range(rng.randint(0, 4))}


class TestJsonWriter:
    """`cli.to_json` against the call it replaces."""

    def test_random_documents(self):
        rng = random.Random(20260)
        for _ in range(20_000):
            assert_writes_like_json(random_doc(rng))

    @pytest.mark.parametrize("rows, fast", [
        # edge triples, vertex records and qi hop rows: the fast path
        ([(0, 1, 0.5), (1, 2, 1e16), (2, 0, 1e-7)], True),
        ([{"index": 0, "tag": "hub 0"}, {"index": 1, "tag": "net 0 1 2"}], True),
        ([[1, 0.25, 4.0], [2, -0.0, 2.0], [3, 5e-324, 1e16]], True),
        ([[1, "a"], (2, "b")], True),
        ([{"%s": "%d", 'a"b': "\\", "é": "\u2603"}, {"%s": "%", 'a"b': '"', "é": "\n"}], True),
        ([[10**30, "%(x)s"], [-10**30, "%%"]], True),
        # NaN and infinities
        ([[1.0, NAN], [2.0, 3.0]], False),
        ([[INF, 1], [2.0, 1]], False),
        ([{"a": -INF}, {"a": 0.5}], False),
        # bool, None and mixed columns
        ([[True, 1], [False, 2]], False),
        ([[1, 1], [True, 2]], False),
        ([[None, 1.5], [None, 2.5]], False),
        ([[1, 2.0], [2.0, 1]], False),
        ([["a", 1], [1, "a"]], False),
        ([[np.float64(0.1), 1], [np.float64(1e16), 2]], False),
        ([[1.5, [1, 2]], [2.5, [3]]], False),
        # ragged rows and different key sets
        ([[1, 2], [1]], False),
        ([[1, 2], [1, 2, 3]], False),
        ([{"a": 1}, {"b": 1}], False),
        ([{"a": 1, "b": 2}, {"a": 1}], False),
        ([{"a": 1}, {"a": 1, "b": 2}], False),
        ([{"a": 1}, [1]], False),
        # empty rows, non-str keys and one-row lists
        ([[], []], False),
        ([{}, {}], False),
        ([{1: 2}, {1: 3}], False),
        ([{NAN: 1.5, "b": 1}, {NAN: 2.5, "b": 1}], False),
        ([[1, 2]], False),
        ([{"index": 0, "tag": "hub 0"}], False),
    ])
    def test_row_lists(self, rows, fast):
        assert (len(rows) > 1 and cli._rows(rows, "") is not None) == fast
        assert_writes_like_json(rows)
        assert_writes_like_json({"rows": rows, "nested": [rows, tuple(rows)]})

    @pytest.mark.parametrize("obj", [
        NAN, INF, -INF, [NAN, INF, -INF], {"x": NAN},
        np.float64(0.1), [np.float64(1e16), np.float64(NAN)], {"v": np.float64(2.5)},
        {np.float64(0.5): 1}, (1, (2, 3)), [(1, 2.5)], [], {}, [[]], {"a": {}}, [{}],
        {1: "a", 2: "b", 10: "c"}, {1.5: 1, -2.5: 2}, {True: 1}, {False: 0}, {None: 1},
        {NAN: 1}, {INF: 1, -INF: 2}, {10**30: 1}, {"%": 1, '"': 2, "\\": 3, "é": 4},
        "%s\"\\é\u2603\x7f", True, False, None, 0, -0.0, 10**40, type("S", (str,), {})("s"),
    ])
    def test_scalars_and_containers(self, obj):
        assert_writes_like_json(obj)

    @pytest.mark.parametrize("obj", [
        np.int64(1), {1, 2}, object(), b"x", 1j, {(1, 2): 3}, {"a": 1, 1: 2},
        [[1, np.int64(2)], [3, 4]], [{"a": 1, "b": {2}}], {"a": [np.bool_(True)]},
    ])
    def test_type_errors_where_json_raises_them(self, obj):
        with pytest.raises(TypeError):
            json_dumps(obj)
        with pytest.raises(TypeError):
            to_json(obj)

    @pytest.mark.parametrize("command", ["net", "qi"])
    @pytest.mark.parametrize("spec", [FLUTE8, str(Path(__file__).parent / "golden" / "gen12.json")])
    def test_printed_row_lists_take_the_fast_path(self, capsys, monkeypatch, command, spec):
        """Every top-level list of two or more rows that `net` and `qi`
        print is one `_rows` writes: the edges, vertices and hop rows."""
        printed = []
        monkeypatch.setattr(cli, "to_json", lambda obj: printed.append(obj) or to_json(obj))
        code, out, _ = run_main(capsys, command, spec)
        assert code == 0 and out == json_dumps(printed[0]) + "\n"
        lists = [v for v in printed[0].values() if isinstance(v, (list, tuple)) and len(v) > 1
                 and all(isinstance(row, (list, tuple, dict)) for row in v)]
        assert lists
        for rows in lists:
            assert cli._rows(rows, "  ") is not None

    def test_circular_references_raise_value_error(self):
        looped_dict, looped_list = {"a": 1}, [1]
        looped_dict["b"] = looped_dict
        looped_list.append(looped_list)
        for obj in (looped_dict, looped_list, {"rows": [looped_list, looped_list]}):
            with pytest.raises(ValueError):
                json_dumps(obj)
            with pytest.raises(ValueError):
                to_json(obj)

    def test_net_json_is_the_json_of_its_object(self, capsys):
        code, out, _ = run_main(capsys, "net", FLUTE8)
        assert code == 0
        assert out == json_dumps(json.loads(out)) + "\n"


class TestInstalledEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            ["cheegernet", "validate", FLUTE8],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["valid"] is True

    def test_module_invocation(self):
        # The child imports the package this test imported, installed or not.
        src = str(Path(cheegernet.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cheegernet", "validate", FLUTE8],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
