"""Start-up: each command loads only the modules it runs.

Every command runs `cli.main` on a bundled input in a fresh interpreter,
which then reports the cheegernet modules and numpy it has loaded.  The
package itself loads its submodules on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cheegernet
from cheegernet import families

SRC = str(Path(cheegernet.__file__).parents[1])
FLUTE8 = str(families.bundled_path("flute8.json"))
FLUTE_FAM = str(families.bundled_path("flute.family.json"))
WATCHED = ["numpy", "cheegernet.families", "cheegernet.graphtools", "cheegernet.isoperimetry",
           "cheegernet.netgraph"]

# The command, its input, and the watched modules it loads, in WATCHED order.
NET = (FLUTE8, ["numpy", "graphtools", "netgraph"])
LOADED = {
    "validate": (FLUTE_FAM, ["families"]),
    "thickthin": (FLUTE8, []),
    "isoperimetry": (FLUTE8, ["numpy", "isoperimetry"]),
    "sweep": (FLUTE_FAM, ["numpy", "families", "isoperimetry"]),
    "net": NET, "cheeger": NET, "hyperbolicity": NET, "boundary": NET, "qi": NET,
}


def fresh_python(code: str) -> str:
    """stdout of `code` run by a fresh interpreter that imports this
    package from the same place the tests do."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(command: str, path: str) -> tuple[int, list]:
    """Exit code of one command run in a fresh interpreter, and the watched
    modules loaded by then, with the package prefix dropped."""
    out = fresh_python(
        "import contextlib, io, json, sys\n"
        "from cheegernet import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main([{command!r}, {path!r}])\n"
        f"print(json.dumps([code, [m for m in {WATCHED!r} if m in sys.modules]]))\n")
    code, modules = json.loads(out)
    return code, [m.removeprefix("cheegernet.") for m in modules]


@pytest.mark.parametrize("command", list(LOADED))
def test_command_loads_only_what_it_runs(command):
    path, modules = LOADED[command]
    assert loaded_by(command, path) == (0, modules)


def test_package_attributes_load_on_first_access():
    out = fresh_python(
        "import sys, cheegernet\n"
        "print(sorted(m for m in sys.modules if m.startswith('cheegernet.')))\n"
        "print(cheegernet.netgraph.build_net.__module__)\n")
    assert out.splitlines() == ["[]", "cheegernet.netgraph"]
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        cheegernet.nothing
