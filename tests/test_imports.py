"""No package module imports another module's private names."""

import ast
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
