"""Import hygiene: no private names across modules, and a lean CLI import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import casimir_plates

PACKAGE = Path(casimir_plates.__file__).resolve().parent


def test_no_private_names_across_modules():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offences += [
                    f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not offences, offences


def test_cli_import_leaves_numpy_polynomial_unloaded():
    """The Gauss-Laguerre rules are baked-in constants: numpy.polynomial would
    add several ms and over 1 MB to every CLI process."""
    code = "import sys, casimir_plates.cli; print([m for m in sys.modules if m.startswith('numpy.polynomial')])"
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert out.stdout.strip() == "[]"
