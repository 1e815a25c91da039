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

Re-running it rewrites every expected file; a change that is meant to keep
the output must leave `git status` clean afterwards.
"""

from __future__ import annotations

import contextlib
import io
import sys
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


if __name__ == "__main__":
    for case, argv in sorted(CASES.items()):
        code, out = run_cli(argv)
        if code != cli.EXIT_OK:
            sys.exit(f"{case}: exit code {code}")
        (GOLDEN / f"{case}.txt").write_text(out)
    print(f"wrote {len(CASES)} golden files to {GOLDEN}")
