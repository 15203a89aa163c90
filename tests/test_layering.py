"""Each pipeline stage has one owning module: a guard on the package's imports.

``envelope`` builds envelopes and depends on nothing but the error types and
the random streams; ``conformal`` and ``io`` serve the harness and the CLI
but never import them; the fit-level check stays inside ``envelope``, which
also writes the ``delta`` range and the count ceiling of a level once each;
and ``ranks`` alone writes the ranker-mode vocabulary, the ordering rules and
the whole-number rule for ranks.
"""

import ast
import subprocess
import sys
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


def test_the_benchmark_tracer_finds_every_layer_it_times():
    # perfbench/tracer.py wraps its layers by name; a renamed or re-imported
    # function would stop a traced benchmark run, and only the benchmark's
    # own tests would say so
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import tracer, workloads\n"
        "tracer.install(tracer.Tracer())\n"
        "assert tracer.unwrapped_sites() == []\n"
        "layers = {name for names in workloads.EXPECTED_LAYERS.values() for name in names}\n"
        "assert layers <= set(tracer.LAYER_NAMES), sorted(layers - set(tracer.LAYER_NAMES))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(perfbench), str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_the_benchmark_oracles_accept_one_pass_of_every_workload(tmp_path):
    # a library change that makes the benchmark count failed operations or
    # wrong outputs fails here, at the self-test sizes, and not only in the
    # benchmark's own suite
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (
        "import sys; from pathlib import Path\n"
        "work = Path(sys.argv[1]); sys.path[:0] = sys.argv[2:]\n"
        "import workloads\n"
        "for name, sz in workloads.TINY.items():\n"
        "    d = work / name; d.mkdir()\n"
        "    workloads.setup(name, 3, d, sz)\n"
        "    ops = workloads.run_pass(name, 3, d, sz)['ops']\n"
        "    assert all(rec['ok'] for rec in ops), [rec['op'] for rec in ops if not rec['ok']]\n"
        "    failures, _ = workloads.CHECKS[name](3, d, sz, ops)\n"
        "    assert not failures, (name, failures)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(perfbench),
                           str(PACKAGE.parent)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_main_is_the_one_manifest_writer():
    # every subcommand's manifest is built in one place, so a field added
    # there reaches all of them
    calls = [(module, node.lineno) for module in MODULES for node in ast.walk(_tree(module))
             if isinstance(node, ast.Call) and "RunManifest" in (
                 getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    main = next(node for node in _tree("cli").body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert len(calls) == 1, calls
    module, line = calls[0]
    assert module == "cli" and main.lineno <= line <= main.end_lineno


def _mode_membership_tests(module: str) -> list[int]:
    """Lines where the module tests a value's membership in the pair (RA, VA)."""
    def names(node):
        return {e.id if isinstance(e, ast.Name) else getattr(e, "value", None)
                for e in getattr(node, "elts", ())}

    return [node.lineno for node in ast.walk(_tree(module))
            if isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
            and any(names(c) == {"RA", "VA"} for c in node.comparators)]


def _attribute_uses(module: str, attr: str, context: type) -> list[int]:
    """Lines where the module reads (``ast.Load``) or sets (``ast.Store``) attribute ``attr``."""
    return [node.lineno for node in ast.walk(_tree(module)) if isinstance(node, ast.Attribute)
            and node.attr == attr and isinstance(node.ctx, context)]


def _numpy_sorts(module: str) -> list[int]:
    """Lines where the module calls ``np.sort``, ``np.argsort`` or ``np.lexsort``."""
    return [node.lineno for node in ast.walk(_tree(module)) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("sort", "argsort", "lexsort")
            and getattr(node.func.value, "id", None) == "np"]


def test_ranks_owns_the_mode_vocabulary_and_the_ordering():
    # the mode check is written once, and conformal reads every ordering
    # from ranks but its one order-statistic selection, in calibrate
    assert len(_mode_membership_tests("ranks")) == 1
    for module in MODULES:
        if module != "ranks":
            assert not _mode_membership_tests(module), module
    tree = _tree("conformal")
    calibrate = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "calibrate")
    partitions = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "partition"]
    assert partitions and all(calibrate.lineno <= line <= calibrate.end_lineno
                              for line in partitions), partitions
    # the array path and the scalar VA scores apply one VA-output rule
    assert "rank_va_outputs" in _names("ranks") & _names("conformal")
    # the VA test items' order is set where the problem is ranked, and the
    # sets read it
    assert {module for module in MODULES
            if _attribute_uses(module, "test_order", ast.Store)} == {"ranks"}
    assert _attribute_uses("conformal", "test_order", ast.Load)
    assert not any("check_no_ties" in _names(module) for module in MODULES)
    # no module but ranks sorts values or hands an argsort order to another
    # (envelope's in-place keys.sort is a method of its own key block)
    assert _numpy_sorts("ranks")
    for module in MODULES:
        if module != "ranks":
            assert not _numpy_sorts(module), module


# calls that test a value for being a whole number
_WHOLE_NUMBER_TESTS = {"trunc", "round", "around", "rint", "fix", "is_integer"}


def _whole_number_tests(node) -> list[int]:
    """Lines under ``node`` that call ``np.trunc``, ``np.round``, ``.is_integer()`` and the like."""
    return [call.lineno for call in ast.walk(node) if isinstance(call, ast.Call)
            and (getattr(call.func, "attr", None) in _WHOLE_NUMBER_TESTS
                 or getattr(call.func, "id", None) == "round")]


def _definition(module: str, *path: str):
    """The function or class at the dotted ``path`` of names in ``module``."""
    node = _tree(module)
    for name in path:
        node = next(child for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name)
    return node


def test_ranks_owns_the_whole_number_rule():
    # one rule decides what is a rank: the only whole-number test is
    # ranks.whole_numbers, and the set, problem and file readers apply it
    # instead of a test of their own
    rule = _definition("ranks", "whole_numbers")
    tests = _whole_number_tests(_tree("ranks"))
    assert tests and all(rule.lineno <= line <= rule.end_lineno for line in tests), tests
    for module in MODULES:
        if module != "ranks":
            assert not _whole_number_tests(_tree(module)), module
    for module, path, name in [("conformal", ("RankSets", "__post_init__"), "as_ranks"),
                               ("ranks", ("RankingProblem", "__post_init__"), "as_ranks"),
                               ("io", ("read_scores",), "whole_numbers")]:
        node = _definition(module, *path)
        assert name in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}, path


def test_rank_set_is_a_plain_view():
    # RankSets validates its columns once; a row is a NamedTuple built by
    # indexing, with no constructor checks of its own, and is not exported
    from rankcp import conformal

    assert not hasattr(rankcp, "RankSet")
    assert issubclass(conformal.RankSet, tuple)
    assert conformal.RankSet._fields == ("item", "lo", "hi", "kind", "size")
    view = _definition("conformal", "RankSet")
    assert not [node for node in view.body if isinstance(node, ast.FunctionDef)]


def _sites(match) -> set[tuple[str, str | None]]:
    """``(module, function)`` of every node that ``match`` accepts.

    ``function`` is the innermost function around the node, ``None`` at
    module or class level.
    """
    sites = set()

    def visit(module, node, function):
        if match(node):
            sites.add((module, function))
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            visit(module, child, inner)

    for module in MODULES:
        visit(module, _tree(module), None)
    return sites


def _message(node) -> str:
    """The literal text of a ``raise`` node's message, its f-string fields left out."""
    return "".join(piece.value for piece in ast.walk(node) if isinstance(piece, ast.Constant)
                   and isinstance(piece.value, str))


def test_envelope_owns_the_delta_range_and_the_count_ceiling():
    # one function refuses a delta outside [0, 1), for envelopes and for the
    # FCP index alike, and one rounds a level up to a count with the float
    # guard, for the fits' need and select_k's k; fcp_calibration's floor of
    # m alpha_bar is the guard's one other use
    assert _sites(lambda node: isinstance(node, ast.Raise) and "delta=" in _message(node)
                  and "outside [0, 1)" in _message(node)) == {("envelope", "check_delta")}
    assert _sites(lambda node: isinstance(node, ast.Constant) and node.value == 1e-9) == {
        ("envelope", "_ceil_count"), ("conformal", "fcp_calibration")}
