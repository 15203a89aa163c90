"""Each pipeline stage has one owning module: a guard on the package's imports.

``envelope`` builds envelopes and depends on nothing but the error types,
the random streams and ``ranks``, whose whole-number rule it applies to its
sizes and bounds (``ranks`` imports neither of the others, so there is no
cycle); ``conformal`` and ``io`` serve the harness and the CLI but never
import them; the fit-level check stays inside ``envelope``, which also writes
the count ceiling of a level once; and ``ranks`` alone writes the
ranker-mode vocabulary, the ordering rules, the whole-number rule for ranks
and counts, the range rule ``[1, top]`` for ranks and indices, the
interval rule for probability levels and the value rule for real-valued
arrays, with its finite and sign tests: no other function compares a size,
an index or a level with a number of its own, tests an array's least or
greatest value against a bound, raises ``RankOutOfRange``, reads an input
as floats or tests one for finiteness.  In ``io``,
one function reads a file's bytes and one writes them, and no other
function in the package takes a sha256.  A refusal carries the positions it
refused: ``io`` applies no value rule of its own to a parsed column, the
package has one repeat search, ``ranks._first_repeat``, and one ``io``
helper turns the positions into file lines.
"""

import ast
import subprocess
import sys
from functools import partial
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


def test_envelope_imports_only_errors_ranks_and_streams():
    assert _package_imports("envelope") == {"errors", "ranks", "streams"}


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


def test_a_traced_pass_of_every_workload_reaches_its_layers(tmp_path):
    # a traced benchmark run fails when a layer its workload must reach
    # records no call: a reader that serves a file from memory must still
    # call what it called before (read_scores's problem ranks the truth by
    # ranks_within, and read_truth answers from what it computed)
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (
        "import sys; from pathlib import Path\n"
        "work = Path(sys.argv[1]); sys.path[:0] = sys.argv[2:]\n"
        "import tracer, workloads\n"
        "spans = tracer.Tracer(); tracer.install(spans)\n"
        "for name, sz in workloads.TINY.items():\n"
        "    d = work / name; d.mkdir()\n"
        "    workloads.setup(name, 3, d, sz)\n"
        "    before = dict(spans.calls)\n"
        "    ops = workloads.run_pass(name, 3, d, sz)['ops']\n"
        "    assert all(rec['ok'] for rec in ops), [rec['op'] for rec in ops if not rec['ok']]\n"
        "    silent = [layer for layer in workloads.EXPECTED_LAYERS[name]\n"
        "              if spans.calls[layer] == before[layer]]\n"
        "    assert not silent, (name, silent)\n"
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
                               ("io", ("read_scores",), "as_ranks")]:
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


def _sites(match, trees=None) -> set[tuple[str, str | None]]:
    """``(module, function)`` of every node that ``match`` accepts.

    ``function`` is the innermost function around the node, ``None`` at
    module or class level.  ``trees`` maps module names to their parsed
    source, by default every module of the package as it is.
    """
    sites = set()

    def visit(module, node, function):
        if match(node):
            sites.add((module, function))
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            visit(module, child, inner)

    for module, tree in (trees or {m: _tree(m) for m in MODULES}).items():
        visit(module, tree, None)
    return sites


def _message(node) -> str:
    """The literal text of a ``raise`` node's message, its f-string fields left out."""
    return "".join(piece.value for piece in ast.walk(node) if isinstance(piece, ast.Constant)
                   and isinstance(piece.value, str))


def _restored(module: str, edits) -> dict[str, ast.Module]:
    """Every module's parsed source, with ``module``'s ``(site, restored)`` edits made."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    for site, restored in edits:
        assert source.count(site) == 1, site
        source = source.replace(site, restored)
    trees = {name: _tree(name) for name in MODULES}
    trees[module] = ast.parse(source)
    return trees


def test_envelope_owns_the_count_ceiling():
    # one function rounds a level up to a count with the float guard, for
    # the fits' need and select_k's k; fcp_calibration's floor of
    # m alpha_bar is the guard's one other use
    assert _sites(lambda node: isinstance(node, ast.Constant) and node.value == 1e-9) == {
        ("envelope", "_ceil_count"), ("conformal", "fcp_calibration")}


# the sizes and indices that ranks.as_count reads, by parameter or attribute name
_COUNT_NAMES = {"n", "m", "K", "k", "reps", "d", "k_top", "K_env"}

# (module, function, name) of the domain rules that compare a count with a
# literal once as_count has read it: --fcp on needs test rows, and a
# Monte-Carlo envelope needs K_env >= 1 (the closed-form kinds ignore it);
# calibrate's k, a rank among the n scores, is read with top=n
_COUNT_RULES = {
    ("cli", "_cmd_predict", "m"),
    ("evaluate", "ExperimentConfig.__post_init__", "K_env"),
}


def _literal_compares(module: str, tree: ast.AST, names: set[str], rule: str,
                      kinds: tuple[type, ...]) -> set[tuple[str, str, str]]:
    """``(module, function, name)`` of each comparison of one of ``names`` with a literal.

    A literal is a constant of one of ``kinds`` (never a bool).  ``function``
    is the dotted path of the innermost function around it (``Class.method``),
    empty at module level.  The rule itself, ``ranks.<rule>``, compares with
    the bounds its caller names, and is left out.
    """
    def literal(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return (isinstance(node, ast.Constant) and isinstance(node.value, kinds)
                and not isinstance(node.value, bool))

    def name_of(node):
        return (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)

    found = set()

    def visit(node, path):
        if isinstance(node, ast.Compare):  # each link of a chain on its own
            operands = [node.left, *node.comparators]
            for pair in zip(operands, operands[1:]):
                compared = set(map(name_of, pair)) & names
                if compared and any(map(literal, pair)):
                    found.add((module, ".".join(path), compared.pop()))
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, path + [child.name] if named else path)

    visit(tree, [])
    return {site for site in found if site[:2] != ("ranks", rule)}


_count_literal_compares = partial(_literal_compares, names=_COUNT_NAMES, rule="as_count",
                                  kinds=(int,))


def test_ranks_owns_the_count_rule():
    # every size and index is read by ranks.as_count, which refuses a value
    # below its floor; no other function compares one with a literal but the
    # domain rules named in _COUNT_RULES
    found = set().union(*(_count_literal_compares(m, _tree(m)) for m in MODULES))
    assert found == _COUNT_RULES
    assert "as_rank" not in set().union(*map(_names, MODULES))


def test_a_restored_size_check_fails_the_count_guard():
    source = (PACKAGE / "conformal.py").read_text(encoding="utf-8")
    read = '    n = as_count(n, "n", least=1)\n    k = _ceil_count'
    assert source.count(read) == 1
    restored = source.replace(read, '    if n < 1:\n        raise InvalidInput("need n >= 1")\n'
                                    '    k = _ceil_count')
    assert _count_literal_compares("conformal", ast.parse(restored)) - _COUNT_RULES == {
        ("conformal", "select_k", "n")}


def _extreme_compare(node) -> bool:
    """Whether ``node`` compares the result of a ``.min()`` or ``.max()`` call with something."""
    return isinstance(node, ast.Compare) and any(
        isinstance(side, ast.Call) and getattr(side.func, "attr", None) in ("min", "max")
        for side in (node.left, *node.comparators))


def _range_refusal(node) -> bool:
    """Whether ``node`` raises :class:`RankOutOfRange`."""
    return isinstance(node, ast.Raise) and "RankOutOfRange" in {
        name.id for name in ast.walk(node) if isinstance(name, ast.Name)}


def test_ranks_owns_the_range_rule():
    # one function tests ranks and indices against [1, top], by one min()/max()
    # pass, and raises RankOutOfRange; the RankSets, file-reader and
    # sets-against-truth rules compare elementwise and raise errors of their own
    assert _sites(_extreme_compare) == {("ranks", "as_ranks")}
    assert _sites(_range_refusal) == {("ranks", "as_ranks")}
    for module, path in [("conformal", ("scores_at",)), ("conformal", ("calibrate",)),
                         ("conformal", ("proxy_score_va",)),
                         ("envelope", ("SortedRankSample", "__post_init__")),
                         ("envelope", ("Envelope", "__post_init__")),
                         ("envelope", ("Envelope", "bounds_for_ranks")),
                         ("ranks", ("RankingProblem", "__post_init__"))]:
        node = _definition(module, *path)
        assert "top" in {kw.arg for kw in ast.walk(node) if isinstance(kw, ast.keyword)}, path


def test_a_restored_range_check_fails_the_range_guard():
    source = (PACKAGE / "conformal.py").read_text(encoding="utf-8")
    read = '    ranks = as_ranks(calib_ranks_at, "pooled ranks", top=problem.total)\n'
    assert source.count(read) == 1
    tree = ast.parse(source.replace(read, (
        '    ranks = as_ranks(calib_ranks_at, "pooled ranks")\n'
        '    if ranks.min() < 1 or ranks.max() > problem.total:\n'
        '        raise RankOutOfRange("pooled ranks outside [1, n+m]")\n')))
    assert _sites(_extreme_compare, {"conformal": tree}) == {("conformal", "scores_at")}
    assert _sites(_range_refusal, {"conformal": tree}) == {("conformal", "scores_at")}


# the probability levels that ranks.as_level reads, by parameter or attribute name
_LEVEL_NAMES = {"alpha", "beta", "delta", "alpha_bar", "beta_bar"}

# (module, function, name) of the domain rules that compare a level with a
# literal once as_level has read it: a positive delta needs K >= 1/delta
_LEVEL_RULES = {("envelope", "_check_fit_level", "delta")}

_level_literal_compares = partial(_literal_compares, names=_LEVEL_NAMES, rule="as_level",
                                  kinds=(int, float))


def _interval_refusal(node) -> bool:
    """Whether ``node`` raises a level's interval error, ``... outside [0, 1)`` or ``(0, 1)``."""
    return isinstance(node, ast.Raise) and any(
        f"outside {interval}" in _message(node) for interval in ("[0, 1)", "(0, 1)"))


def test_ranks_owns_the_level_rule():
    # one function tests alpha, beta, delta, alpha_bar and beta_bar against
    # their interval and raises the interval error; no other function
    # compares a level with a literal but the domain rules in _LEVEL_RULES
    assert _sites(_interval_refusal) == {("ranks", "as_level")}
    found = set().union(*(_level_literal_compares(m, _tree(m)) for m in MODULES))
    assert found == _LEVEL_RULES
    assert "check_delta" not in set().union(*map(_names, MODULES))


@pytest.mark.parametrize("restored", [
    # the interval test of alpha, written out
    '    if not 0.0 < alpha < 1.0:\n'
    '        raise InvalidDelta(f"alpha={alpha} outside (0, 1)")\n'
    '    delta = as_level(delta, "delta")\n',
    # the chain select_k held, with its relation message
    '    if not 0.0 <= delta < alpha < 1.0:\n'
    '        raise InvalidInput(f"need 0 <= delta < alpha < 1, got {alpha}, {delta}")\n',
])
def test_a_restored_level_check_fails_the_level_guard(restored):
    source = (PACKAGE / "conformal.py").read_text(encoding="utf-8")
    read = '    alpha, delta = as_level(alpha, "alpha", positive=True), as_level(delta, "delta")\n'
    assert source.count(read) == 1
    tree = ast.parse(source.replace(read, restored))
    caught = {site[:2] for site in _level_literal_compares("conformal", tree) - _LEVEL_RULES}
    caught |= _sites(_interval_refusal, {"conformal": tree})
    assert caught == {("conformal", "select_k")}


# the spellings of a float dtype that numpy reads as float64
_FLOAT_DTYPES = {"float", "float64", "float_", "double"}


def _float_dtype(node) -> bool:
    """Whether ``node`` names float64: ``float``, ``np.float64``, ``"float"`` and the like."""
    return (getattr(node, "id", None) in _FLOAT_DTYPES
            or getattr(node, "attr", None) in _FLOAT_DTYPES
            or getattr(node, "value", None) in _FLOAT_DTYPES)


def _bare_float_reads(module: str, tree: ast.AST) -> set[tuple[str, str]]:
    """``(module, function)`` of each float read of an input outside ``ranks.as_values``.

    A float read is ``np.asarray(x, dtype=float)``, ``np.array(x, dtype=float)``
    or ``x.astype(float)``; an input is a parameter of the function around
    it or an attribute of one: ``thr.value``, and a ``self.`` field in a
    ``__post_init__``.
    """
    found = set()

    def is_input(node, function):
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in {
            a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}

    def read_of(call):
        """The array ``call`` reads as floats, or ``None``."""
        func = call.func
        dtype = next((kw.value for kw in call.keywords if kw.arg == "dtype"), None)
        if getattr(func, "attr", None) in ("asarray", "array") and call.args:
            dtype = dtype or (call.args[1] if len(call.args) > 1 else None)
            return call.args[0] if _float_dtype(dtype) else None
        if getattr(func, "attr", None) == "astype":
            dtype = dtype or (call.args[0] if call.args else None)
            return func.value if _float_dtype(dtype) else None
        return None

    def visit(node, function):
        if isinstance(node, ast.Call) and function is not None:
            read = read_of(node)
            if read is not None and is_input(read, function):
                found.add((module, function.name))
        for child in ast.iter_child_nodes(node):
            visit(child, child if isinstance(child, ast.FunctionDef) else function)

    visit(tree, None)
    return {site for site in found if site != ("ranks", "as_values")}


# the functions that read a real-valued array, and the parameters they read
_VALUE_SITES = [("ranks", ("break_ties",)), ("ranks", ("ranks_within",)),
                ("ranks", ("RankingProblem", "__post_init__")),  # VA outputs and truth
                ("conformal", ("proxy_score_va",)), ("conformal", ("calibrate",)),
                ("conformal", ("predict_sets",)), ("ranks", ("as_ranks",))]


def test_ranks_owns_the_value_rule():
    # one function reads real-valued arrays, ranks.as_values; the sites that
    # read scores, VA outputs, truth, a threshold or a rank's float path call
    # it instead of numpy's float conversion
    assert not set().union(*(_bare_float_reads(m, _tree(m)) for m in MODULES))
    for module, path in _VALUE_SITES:
        calls = [node for node in ast.walk(_definition(module, *path))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "as_values"]
        assert len(calls) >= (2 if path[0] == "RankingProblem" else 1), path
    assert not set().union(*map(_names, MODULES)) & {"_as_float_vector", "_as_float_rows"}


def test_a_restored_float_read_fails_the_value_guard():
    source = (PACKAGE / "conformal.py").read_text(encoding="utf-8")
    read = '    arr = as_values(scores, "scores", ndims=(1, 2), nonnegative=True)\n'
    assert source.count(read) == 1
    tree = ast.parse(source.replace(read, '    arr = np.asarray(scores, dtype=float)\n'))
    assert _bare_float_reads("conformal", tree) == {("conformal", "calibrate")}


# the calls that touch the file system from io or hash a file's bytes
_FILE_CALLS = {"open", "Path", "read_bytes", "read_text", "write_bytes", "write_text", "sha256"}

# the one read and the one write of a file, each of which takes the sha256
# of the bytes it moves for the run manifest
_FILE_SITES = {("io", "_read_file"), ("io", "_write_file")}


def _called(node) -> str | None:
    """The name a call calls: ``f`` of ``f(...)`` and of ``x.f(...)``; ``None`` for other nodes."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def test_io_reads_writes_and_hashes_each_file_in_one_place():
    # no input is read twice and no payload is read back to be hashed: the
    # package takes a sha256 only where io reads or writes a file's bytes
    assert _sites(lambda node: _called(node) == "sha256") == _FILE_SITES
    assert _sites(lambda node: _called(node) in _FILE_CALLS, {"io": _tree("io")}) == _FILE_SITES
    assert "file_digest" not in _names("io")


def test_a_restored_payload_read_fails_the_file_guard():
    source = (PACKAGE / "io.py").read_text(encoding="utf-8")
    site = '            "payload_sha256": payload_sha256,\n'
    assert source.count(site) == 1
    restored = source.replace(site, '            "payload_sha256": file_digest(payload_path),\n')
    tree = ast.parse(restored + ("\n\ndef file_digest(path) -> str:\n"
                                 "    return hashlib.sha256(Path(path).read_bytes()).hexdigest()\n"))
    for calls in ({"sha256"}, _FILE_CALLS):
        found = _sites(lambda node: _called(node) in calls, {"io": tree})
        assert found - _FILE_SITES == {("io", "file_digest")}


# the calls that test a parsed value for what a rule of ranks refuses
_VALUE_TESTS = {"isfinite", "isnan", "whole_numbers"}

# the parsers of a table's column in io
_COLUMN_PARSERS = {"_parse", "_parse_truth"}


def _io_value_tests(tree: ast.Module) -> set[tuple[str, str]]:
    """``("io", function)`` of each io function that tests a parsed value itself.

    That is a call in ``_VALUE_TESTS``, or an ordering comparison (``<``,
    ``<=``, ``>``, ``>=``) of a name the function assigns from a column parser.
    """
    found = {("io", function) for _, function in
             _sites(lambda node: _called(node) in _VALUE_TESTS, {"io": tree})}
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        parsed = {target.id for node in ast.walk(function) if isinstance(node, ast.Assign)
                  and any(_called(call) in _COLUMN_PARSERS for call in ast.walk(node.value))
                  for target in node.targets if isinstance(target, ast.Name)}
        if any(isinstance(node, ast.Compare)
               and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
               and {name.id for name in ast.walk(node) if isinstance(name, ast.Name)} & parsed
               for node in ast.walk(function)):
            found.add(("io", function.name))
    return found


def _repeat_search(node) -> bool:
    """Whether ``node`` is a loop that tests each value against a collection it fills."""
    if not isinstance(node, ast.For):
        return False
    tested = {compare.comparators[-1].id for compare in ast.walk(node)
              if isinstance(compare, ast.Compare)
              and any(isinstance(op, (ast.In, ast.NotIn)) for op in compare.ops)
              and isinstance(compare.comparators[-1], ast.Name)}
    filled = {getattr(store.value, "id", None) for store in ast.walk(node)
              if isinstance(store, ast.Subscript) and isinstance(store.ctx, ast.Store)}
    filled |= {getattr(call.func.value, "id", None) for call in ast.walk(node)
               if _called(call) in ("add", "append") and isinstance(call.func, ast.Attribute)}
    return bool(tested & filled)


def _reads_at(node) -> bool:
    """Whether ``node`` reads a refusal's positions, ``exc.at``."""
    return isinstance(node, ast.Attribute) and node.attr == "at" and isinstance(node.ctx, ast.Load)


def _located_refusal_breaks(trees) -> set[tuple[str, str]]:
    """Sites that restate a rule ``RankingProblem`` applies, search for a repeat or locate one.

    ``trees`` maps module names to their parsed source, as for :func:`_sites`.
    """
    return (_io_value_tests(trees["io"])
            | _sites(_repeat_search, trees) - {("ranks", "_first_repeat")}
            | _sites(_reads_at, trees) - {("io", "_located")})


def test_a_refusal_is_located_in_one_place():
    # RankingProblem judges a scores table once: io applies the RA rule by
    # as_ranks and no value rule of its own, the one repeat search is
    # ranks._first_repeat, and one io helper names the lines of exc.at
    trees = {module: _tree(module) for module in MODULES}
    assert not _located_refusal_breaks(trees)
    assert _sites(_repeat_search) == {("ranks", "_first_repeat")}
    assert _sites(_reads_at) == {("io", "_located")}
    assert {"_bad_calib_rank", "_tie_at_lines"}.isdisjoint(set().union(*map(_names, MODULES)))


@pytest.mark.parametrize("site, restored, found", [
    # the VA outputs' finiteness test
    ("    bad = np.flatnonzero(ranks.astype(bool) & ~is_calib)",
     "    if not np.all(np.isfinite(outputs)):\n"
     "        raise InvalidData(f'{path}: output is not finite')\n"
     "    bad = np.flatnonzero(ranks.astype(bool) & ~is_calib)", ("io", "read_scores")),
    # the RA outputs' range test
    ("    bad = np.flatnonzero(ranks.astype(bool) & ~is_calib)",
     "    if (outputs < 1).any() or (outputs > outputs.size).any():\n"
     "        raise InvalidInput(f'{path}: RA ranker outputs out of range')\n"
     "    bad = np.flatnonzero(ranks.astype(bool) & ~is_calib)", ("io", "read_scores")),
    # io's own repeat search
    ("def _parse_truth(",
     "def _first_repeat(values):\n"
     "    seen = {}\n"
     "    for i, value in enumerate(values):\n"
     "        if value in seen:\n"
     "            return seen[value], i\n"
     "        seen[value] = i\n\n\n"
     "def _parse_truth(", ("io", "_first_repeat")),
    # a located message built outside the helper
    ("            raise _located(path, exc, lines) from exc\n        table = (",
     "            raise InvalidData(f'{path}:{lines[exc.at[0]]}: {exc}') from exc\n"
     "        table = (", ("io", "read_truth")),
])
def test_a_restored_check_fails_the_refusal_guard(site, restored, found):
    assert _located_refusal_breaks(_restored("io", [(site, restored)])) == {found}


def _refuses_on_set_size(node) -> bool:
    """Whether ``node`` is an ``if`` that compares a ``len(set(...))`` and raises in its body."""
    return (isinstance(node, ast.If)
            and any(_called(call) == "len" and call.args and _called(call.args[0]) == "set"
                    for call in ast.walk(node.test))
            and any(isinstance(inner, ast.Raise) for stmt in node.body for inner in ast.walk(stmt)))


def test_a_repeated_id_is_refused_in_one_place():
    # ranks.unique_ids is the one item-id rule: no other function raises
    # after comparing the len(set(...)) of its ids
    assert _sites(_refuses_on_set_size) == {("ranks", "unique_ids")}


def test_a_restored_id_check_fails_the_id_guard():
    site = "def _parse_truth("
    trees = _restored("io", [(site, (
        "def _check_unique_ids(path, ids, lines) -> None:\n"
        "    if len(set(ids)) != len(ids):\n"
        "        _, second = _first_repeat(ids)\n"
        "        raise InvalidData(f'{path}:{lines[second]}: item id {ids[second]!r} '\n"
        "                          'is listed more than once')\n\n\n" + site))])
    assert _sites(_refuses_on_set_size, trees) == {("ranks", "unique_ids"),
                                                    ("io", "_check_unique_ids")}


# the calls that test a number for finiteness, and ranks' private number read
_FINITE_CALLS = {"isfinite", "isnan", "isinf", "_as_number"}

# (module, function) of the finite tests outside ranks that judge no input:
# _tie_free tests the values it generated, and its message names the noise
# level that made them; _edge_guesses tests whether its shifted layout of
# the sorted outputs overflows, and scales it down where it would
_FINITE_EXCEPTIONS = {("evaluate", "_tie_free"), ("conformal", "_edge_guesses")}


def _sign_refusal(node) -> bool:
    """Whether ``node`` is an ``if`` that raises on one order comparison with 0.

    The comparison may be negated and wrapped in ``all`` or ``any``, as
    ``if not np.all(value >= 0): raise ...``; a compound test, such as
    ``Envelope``'s ``delta > 0.0 and K < 1.0 / delta``, is no sign rule.
    """
    if not isinstance(node, ast.If) or not any(
            isinstance(inner, ast.Raise) for stmt in node.body for inner in ast.walk(stmt)):
        return False
    test = node.test
    while isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) or (
            _called(test) in {"all", "any"} and test.args):
        test = test.operand if isinstance(test, ast.UnaryOp) else test.args[0]
    return (isinstance(test, ast.Compare)
            and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in test.ops)
            and any(isinstance(side, ast.Constant) and side.value == 0
                    and not isinstance(side.value, bool)
                    for side in (test.left, *test.comparators)))


def _finite_test(node) -> bool:
    """Whether ``node`` tests finiteness or sign, or imports ``_as_number``.

    A test is a call in ``_FINITE_CALLS``, a comparison with ``inf`` or a
    :func:`_sign_refusal`.
    """
    if isinstance(node, ast.ImportFrom):
        return "_as_number" in {alias.name for alias in node.names}
    return _called(node) in _FINITE_CALLS or _sign_refusal(node) or (
        isinstance(node, ast.Compare) and any(
            getattr(side, "attr", getattr(side, "id", None)) == "inf"
            for side in (node.left, *node.comparators)))


def _finite_rule_breaks(trees=None) -> set[tuple[str, str | None]]:
    """Sites outside ``ranks`` that test finiteness or sign, as :func:`_sites` gives them."""
    return {site for site in _sites(_finite_test, trees) if site[0] != "ranks"}


def test_ranks_owns_the_finite_rule():
    # ranks.as_values and as_number hold the one finite and sign rule of an
    # input; no other module imports ranks' private number read or tests a
    # value for finiteness or sign, but the two that judge values of their own
    assert _finite_rule_breaks() == _FINITE_EXCEPTIONS
    assert "_check_noise" not in _names("evaluate")


def test_a_restored_noise_check_fails_the_finite_guard():
    # evaluate's own noise check, with its import of ranks' private number read
    trees = _restored("evaluate", [
        ("    as_count,\n", "    _as_number,\n    as_count,\n"),
        ("def _check_settings(",
         "def _check_noise(name: str, value: float) -> None:\n"
         "    if not 0.0 <= _as_number(value, name) < math.inf:\n"
         '        raise InvalidInput(f"{name}={value} must be finite and nonnegative")\n\n\n'
         "def _check_settings("),
        ('    as_number(noise_sd, "noise_sd", nonnegative=True)\n',
         '    _check_noise("noise_sd", noise_sd)\n'),
    ])
    assert _finite_rule_breaks(trees) - _FINITE_EXCEPTIONS == {
        ("evaluate", None), ("evaluate", "_check_noise")}


@pytest.mark.parametrize("module, edits, found", [
    # Envelope's param test, written out
    ("envelope", [('as_number(self.param, "param")\n',
                   'float(self.param)\n'
                   "        if self.param is not None and not math.isfinite(self.param):\n"
                   '            raise InvalidInput(f"param must be finite, got {self.param}")\n')],
     ("envelope", "__post_init__")),
    # Envelope's slack test, as a chain up to inf
    ("envelope", [('as_number(meta.slack, "mc_meta.slack", nonnegative=True)\n',
                   "float(meta.slack)\n"
                   "            if not 0.0 <= slack < math.inf:\n"
                   '                raise InvalidInput("mc_meta.slack must be finite")\n')],
     ("envelope", "__post_init__")),
    # proxy_score_va's value test, by ranks' private number read
    ("conformal", [('    value = as_number(value, "value")\n',
                    '    if not math.isfinite(_as_number(value, "value")):\n'
                    '        raise InvalidInput(f"value must be finite, got {value}")\n')],
     ("conformal", "proxy_score_va")),
    # predict_sets' threshold sign test, written out
    ("conformal", [('    value = as_values(thr.value, "threshold", nonnegative=True)\n',
                    '    value = as_values(thr.value, "threshold")\n'
                    "    if not np.all(value >= 0):\n"
                    '        raise InvalidInput("threshold must be nonnegative")\n')],
     ("conformal", "predict_sets")),
])
def test_a_restored_finite_check_fails_the_finite_guard(module, edits, found):
    assert _finite_rule_breaks(_restored(module, edits)) - _FINITE_EXCEPTIONS == {found}
