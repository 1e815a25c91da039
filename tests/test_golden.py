"""Golden corpus: the stdout of every command in every format, byte for byte.

The package promises byte-stable JSON/CSV/dot output, so each case runs
`cheegernet.cli.main` in-process and compares its stdout with a file under
`tests/golden/`.  The inputs are the bundled `flute8.json` and four family
files, plus four static files in `tests/golden/`:

* `gen12.json`: the benchmark's generated spec
  `perfbench/workloads.generated_spec(random.Random(1), 12, 3, 5, 1)`,
  with thin gluings and non-unit lengths;
* `loop.json`: a small spec with a self-gluing and a doubled gluing;
* `closed.json`: two pieces glued along all three curves, a closed
  surface with no cusps or open curves, so `cheeger` takes the size-capped
  `finite_half` constant, and its 31-vertex net is past the enumeration
  limit;
* `template.family.json`: a fixed-topology family with length expressions.

The expected files were written by the source of commit 3da901c, the last
one before the single-pass domain enumeration, by running this file as a
script from the repository root with that commit's `src` on the path:

    PYTHONPATH=src python tests/test_golden.py

The six `{flute8,gen12,loop}.cheeger.{json,csv}.txt` files were rewritten
the same way by the commit "Exact ambient Cheeger by Dinkelbach min cuts",
which made ambient Cheeger exact: only `exact` (false to true) and the JSON
`examined` (now the number of min-cut solves) changed; every value and
witness stayed the same.

The three `{flute8,gen12,loop}.hyperbolicity.json.txt` files were rewritten
the same way by the commit "Hyperbolicity over biconnected blocks", which
scans each block on its own: `quadruples` (now summed over the blocks'
scans) went from 12880, 237705 and 9316 to 87, 454 and 546, and `loop`'s
witness became the first quadruple inside one block that attains delta
(the old one spanned two blocks); every delta and base_dependence and
the flute8 and gen12 witnesses stayed the same.

The two `{closed,gen12}.hyperbolicity.json.txt` files were rewritten the
same way by the commit that took the witness from the far-apart scan
itself instead of a second, lexicographic pass over the block: only the
witness changed, from `hub 0, hub 1, net 0 0 0, net 0 0 2` to
`hub 0, hub 1, net 0 1 0, net 1 1 0` (closed) and from
`hub 0, hub 2, hub 3, net 11 2 0` to `hub 0, hub 2, net 3 2 0, net 11 2 0`
(gen12); each still lies in one block and attains delta, and every other
file stayed the same.

The commit "One h_g path and one sweep path" deleted the seeded
`isoperimetry --mode parametric` search and with it the six
`{flute8,gen12,loop}.isoperimetry-parametric.{json,csv}.txt` cases and
files; every other file stayed the same.

The sixteen `closed.*` files were added by the commit "One min-cut engine
for both Cheeger modes" and written first with the source of its parent;
that commit replaced the Fiedler sweep and random blobs of the
`finite_half` bound with min ratio cuts over the two halves of the Fiedler
order, and only the JSON `examined` of `closed.cheeger.json.txt` changed
(111 candidate sets to 4 min-cut solves); value and witness stayed the same.

The commit that replaced `json.dumps(obj, sort_keys=True, indent=2)` in
`cli.main` by `cli.to_json`, which writes same-shape rows by one format
over all rows, rewrote no expected file: running this script on it left
every one of them byte-identical.

The eight `{flute8,gen12,loop,closed}.qi.{json,csv}.txt` files and the
seven `*.qi.json` hashes of the large corpus below were rewritten the same
way by the commit that replaced the alpha grid's knee with the exact
quasi-isometry constant: `alpha` and `beta` changed (for example from
2.75 and 0.7272727272727273 to 1.4142135623730951 twice on `gen12`) and
the JSON `table` became `hops`; `fullness` and `pairs` kept their bytes,
and every other file and hash stayed the same.

Re-running it rewrites every expected file; a change that is meant to keep
the output must leave `git status` clean afterwards.

The large corpus pins the JSON output of the seven commands that read a
spec and build or measure a surface on inputs far larger than the files
above, by sha256 in `tests/golden/large.sha256`, which the same run
writes: the family instances `pants_tree(7)`, `flute(40)`,
`genus_ladder(10)` and `shrinking_flute(12)`, written to a temporary
directory from `cheegernet.families`, and the three static files
`gen40s{1,2,3}.json`, the benchmark's generated spec
`perfbench/workloads.generated_spec(random.Random(seed), 40, 8, 12, 2)`
for seeds 1 to 3.  Its nets have 241 to 2,476 vertices, where the order of
weighted sums can move last bits.  `isoperimetry` on `pants_tree(7)` is
left out: its capped domain scan takes seconds.  On a mismatch the test
writes the output to a temporary file and names it, for a diff against
the output of the commit that wrote the hashes.  The hashes were first
written by the commit "Hash-pinned corpus of large outputs", which changed
no source file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from cheegernet import cli, families

GOLDEN = Path(__file__).resolve().parent / "golden"

SPECS = {
    "flute8": families.bundled_path("flute8.json"),
    "gen12": GOLDEN / "gen12.json",
    "loop": GOLDEN / "loop.json",
    "closed": GOLDEN / "closed.json",
}
SPEC_COMMANDS = ["validate", "thickthin", "isoperimetry", "net", "cheeger",
                 "hyperbolicity", "boundary", "qi"]

# Family files and the extra arguments of their sweeps: the bundled tree
# family (depths 3..6) is capped at 6 pieces to keep the corpus fast.
FAMILIES = {
    "flute": (families.bundled_path("flute.family.json"), []),
    "shrinking": (families.bundled_path("shrinking.family.json"), []),
    "tree": (families.bundled_path("tree.family.json"), ["--max-pieces", "6"]),
    "genus": (families.bundled_path("genus.family.json"), []),
    "template": (GOLDEN / "template.family.json", []),
}


def _cases() -> dict:
    """Golden file name -> argv."""
    cases = {}
    for name, path in SPECS.items():
        for command in SPEC_COMMANDS:
            formats = ["json", "csv"] + (["dot"] if command == "net" else [])
            for fmt in formats:
                cases[f"{name}.{command}.{fmt}"] = [command, str(path), "--format", fmt]
    for name, (path, extra) in FAMILIES.items():
        for fmt in ("json", "csv"):
            cases[f"{name}.validate.{fmt}"] = ["validate", str(path), "--format", fmt]
            cases[f"{name}.sweep.{fmt}"] = ["sweep", str(path), "--format", fmt] + extra
    return cases


CASES = _cases()

LARGE_FAMILIES = {
    "pants_tree7": ("pants_tree", 7),
    "flute40": ("flute", 40),
    "genus_ladder10": ("genus_ladder", 10),
    "shrinking_flute12": ("shrinking_flute", 12),
}
LARGE_FILES = {f"gen40s{seed}": GOLDEN / f"gen40s{seed}.json" for seed in (1, 2, 3)}
LARGE_COMMANDS = ["thickthin", "isoperimetry", "net", "cheeger", "hyperbolicity", "boundary", "qi"]
LARGE_CASES = [f"{name}.{command}.json" for name in [*LARGE_FAMILIES, *LARGE_FILES]
               for command in LARGE_COMMANDS if (name, command) != ("pants_tree7", "isoperimetry")]
LARGE_HASHES = GOLDEN / "large.sha256"


def large_inputs(folder: Path) -> dict:
    """Large-corpus input name -> spec path; the family instances are
    written to folder, as documents that spec_from_dict reads back to the
    builder's spec."""
    paths = dict(LARGE_FILES)
    for name, (builder, value) in LARGE_FAMILIES.items():
        spec = families.BUILDERS[builder](value)
        doc = {
            "pieces": spec.pieces,
            "gluings": [{"a": list(g.a), "b": list(g.b), "length": g.length} for g in spec.gluings],
            "cusps": [list(c) for c in spec.cusps],
            "opens": [{"at": list(o.at), "length": o.length} for o in spec.opens],
        }
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def large_output(case: str, paths: dict) -> str:
    name, command, fmt = case.split(".")
    code, out = run_cli([command, str(paths[name]), "--format", fmt])
    if code != cli.EXIT_OK:
        raise AssertionError(f"{case}: exit code {code}")
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def read_large_hashes() -> dict:
    """Case -> pinned sha256, from lines in the format of sha256sum."""
    return {case: digest for digest, case in
            (line.split() for line in LARGE_HASHES.read_text().splitlines())}


def run_cli(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    code, out = run_cli(CASES[case])
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / f"{case}.txt").read_text()


def test_every_golden_file_has_a_case():
    """Deleting a case deletes its file: no expected file outlives its case."""
    on_disk = {p.name for p in GOLDEN.glob("*.txt")}
    assert on_disk == {f"{case}.txt" for case in CASES}


@pytest.fixture(scope="module")
def large_paths(tmp_path_factory):
    return large_inputs(tmp_path_factory.mktemp("large"))


@pytest.mark.parametrize("case", LARGE_CASES)
def test_large(case, large_paths):
    out = large_output(case, large_paths)
    pinned = read_large_hashes()[case]
    if sha256(out) != pinned:
        with tempfile.NamedTemporaryFile("w", prefix=f"{case}.", suffix=".txt", delete=False) as f:
            f.write(out)
        pytest.fail(f"{case}: output sha256 {sha256(out)} is not the pinned {pinned}; "
                    f"the output is in {f.name}")


def test_every_large_hash_has_a_case():
    assert sorted(read_large_hashes()) == sorted(LARGE_CASES)


if __name__ == "__main__":
    for case, argv in sorted(CASES.items()):
        code, out = run_cli(argv)
        if code != cli.EXIT_OK:
            sys.exit(f"{case}: exit code {code}")
        (GOLDEN / f"{case}.txt").write_text(out)
    print(f"wrote {len(CASES)} golden files to {GOLDEN}")
    with tempfile.TemporaryDirectory() as folder:
        paths = large_inputs(Path(folder))
        lines = [f"{sha256(large_output(case, paths))}  {case}\n" for case in sorted(LARGE_CASES)]
    LARGE_HASHES.write_text("".join(lines))
    print(f"wrote {len(lines)} hashes to {LARGE_HASHES}")
