"""Import hygiene: no private names across modules, no dead imports, and a lean CLI import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_only_the_tracer_targets_are_imported_unused():
    """perfbench's tracer wraps these two names in the modules that import
    them; no other name may be imported and never used (``__init__``
    imports to re-export)."""
    unused = []
    for path in sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.stem}.{name}")
    assert unused == ["lifshitz.adaptive_pair_quadrature", "scenarios.casimir_pressure"]


def test_the_solver_imports_no_panel_quadrature():
    """The solver's rules are Gauss-Laguerre and exp-sinh: from the G7/K15
    module it takes only the error its ladder raises and the tracer target,
    which it never calls, so the scalar loop stays the tests' reference
    independent of the solver."""
    tree = ast.parse((PACKAGE / "lifshitz.py").read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module == "quadrature"
        for alias in node.names
    ]
    assert sorted(names) == ["QuadratureError", "adaptive_pair_quadrature"]


def test_the_quadrature_module_imports_only_the_standard_library():
    """The scalar G7/K15 loop is the one copy of the rule in the package; the
    vectorised panels on numpy are test code."""
    tree = ast.parse((PACKAGE / "quadrature.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [
        "." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ]
    assert modules and all(m.split(".")[0] in sys.stdlib_module_names for m in modules), modules


def test_the_vectorised_panels_use_the_package_tables():
    import quadrature_oracle
    from casimir_plates import quadrature

    for name in ("_XGK", "_WGK", "_WG"):
        assert getattr(quadrature_oracle, name) is getattr(quadrature, name), name


def _modules_loaded_by_the_cli_import(prefix):
    code = f"import sys, casimir_plates.cli; print([m for m in sys.modules if m.startswith({prefix!r})])"
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path}
    )
    return out.stdout.strip()


@pytest.mark.parametrize("prefix", ["numpy.polynomial", "concurrent", "logging"])
def test_cli_import_leaves_module_unloaded(prefix):
    """The Gauss-Laguerre rules are baked-in constants: numpy.polynomial would
    add several ms and over 1 MB to every CLI process.  Only a sweep with more
    than one worker needs the process pool, which brings logging and the
    executor machinery into the import."""
    assert _modules_loaded_by_the_cli_import(prefix) == "[]"
