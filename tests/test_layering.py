"""Each pipeline stage has one owning module: a guard on the package's imports.

``envelope`` builds envelopes and depends on nothing but the error types and
the random streams; ``conformal`` and ``io`` serve the harness and the CLI
but never import them; and the fit-level check stays inside ``envelope``.
"""

import ast
from pathlib import Path

import pytest

import rankcp

PACKAGE = Path(rankcp.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(module: str) -> set[str]:
    """The package modules that ``rankcp.<module>`` imports, by short name.

    ``from . import name`` counts ``name`` when it is a module and the
    package itself (``__init__``) otherwise.
    """
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module and node.module.split(".")[0] == "rankcp":
                    found.add((node.module.split(".") + ["__init__"])[1])
            elif node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name if a.name in MODULES else "__init__"
                             for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "rankcp":
                    found.add((parts + ["__init__"])[1])
    return found


def _names(module: str) -> set[str]:
    """Every identifier the module binds, reads or imports."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_envelope_imports_only_errors_and_streams():
    assert _package_imports("envelope") == {"errors", "streams"}


@pytest.mark.parametrize("module", ["conformal", "io"])
def test_stage_modules_do_not_import_the_harness_or_the_cli(module):
    # the package's __init__ imports the harness too
    assert not _package_imports(module) & {"evaluate", "cli", "__init__"}


def test_only_envelope_names_the_fit_level_check():
    assert "_check_fit_level" in _names("envelope")
    for module in MODULES:
        if module != "envelope":
            assert not _names(module) & {"check_fit_level", "_check_fit_level"}, module


def test_import_sites_the_benchmark_tracer_wraps():
    # perfbench's tracer wraps these module attributes, not only the
    # functions in conformal, and reports a site that it missed
    from rankcp import cli, conformal, evaluate

    assert cli.predict_sets is conformal.predict_sets
    assert cli.fcp_calibration is conformal.fcp_calibration
    assert evaluate.fcp_calibration is conformal.fcp_calibration
