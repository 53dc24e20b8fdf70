"""Regrowth guard for the public surface of ``src/repro``.

Every public function, class and method in ``src/repro`` must be referenced
from outside ``tests/``: from the package itself, ``bench/``, ``benchmarks/``,
``examples/`` or ``scripts/``.  A name only tests use is either given a caller,
deleted together with the tests that only check it, or listed in
:data:`ALLOWED` with a line in the README's "Public API notes" section that
says why a suite user wants it.

The scan is a stdlib ``ast`` pass and matches by bare name outside the name's
own definition: a method counts as referenced when some ``.name`` is read, a
function or class when ``name`` or ``.name`` is read or ``name`` is imported.
That is deliberately loose, so the guard catches names nothing calls, not every
unused overload.  Its blind spot is the namesake: any read of ``.name`` keeps
every public method called ``name`` alive, whatever the receiver's type.  Two
classes sharing a method name keep each other alive, and so do the standard
library's methods: ``str.encode``, a decoder's ``.decode``, ``dict.update``,
``dict.get`` or ``random.Random.sample`` each kept a dead twin here
(``SearchSpace.encode``/``decode``, ``EvaluationCache.update``,
``Workload.get``, ``Parameter.sample``), as did ``np.bitwise_or.at`` for
``ConvergenceCurve.at``, ``random.Random.sample`` for ``SearchSpace.sample`` and
bench's ``PassTiming.total`` for ``PermutationImportanceResult.total``.

So a method whose name another receiver also answers to -- an attribute of a
builtin type, NumPy, ``random.Random`` or ``pathlib.Path``, or another public
method in ``src/repro`` or a caller directory -- has its caller found by
reading the receivers: :data:`CALLERS` names, for each such bare name, one
caller outside ``tests/`` as ``path:line: receiver.name``, whose receiver is the
suite's own.  The guard parses that line, so a new shared name, a moved or
deleted caller (``np.median`` where ``cache.median`` was), or an entry whose
name is no longer shared fails and names the method.

Options get the same guard below the tuners: in :data:`OPTION_PACKAGES`, every
defaulted parameter of a public function, method or class constructor must be
passed -- by keyword or by position -- by some call outside ``tests/``, or be
listed in :data:`OPTIONS_ALLOWED` with a README "Public API notes" line that
names it and says who needs it.  A default no caller overrides is a constant
spelled as an option.  Callees match by bare name (``C(...)`` reaches
``C.__init__``, ``cls(...)`` the enclosing class), a ``super().__init__(...)``
call reaches each base of its class, and ``*args``/``**kwargs`` forwarding
counts as passing every parameter it could carry.  A call inside the callable's
own body does not count.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "bench", "benchmarks", "examples", "scripts")
README = ROOT / "README.md"

#: Public names kept without a caller outside ``tests/``, each mapped to the
#: text that opens its README "Public API notes" line.
ALLOWED: dict[str, str] = {
    "repro.core.searchspace:SearchSpace.indices_of_configs":
        "- `SearchSpace.indices_of_configs` —",
    "repro.core.searchspace:SearchSpace.encode_batch":
        "- `SearchSpace.encode_batch` —",
    "repro.core.searchspace:SearchSpace.enumerate": "- `SearchSpace.enumerate` —",
    "repro.core.searchspace:SearchSpace.neighbors": "- `SearchSpace.neighbors` —",
    "repro.core.cache:EvaluationCache.num_invalid":
        "- `EvaluationCache.num_invalid` —",
    "repro.core.cache:EvaluationCache.configs": "- `EvaluationCache.configs`, ",
    "repro.core.cache:EvaluationCache.worst": "- `EvaluationCache.configs`, ",
    "repro.core.cache:EvaluationCache.statistics": "- `EvaluationCache.configs`, ",
    "repro.core.problem:TuningProblem.evaluation_count":
        "- `TuningProblem.evaluation_count` —",
    "repro.core.problem:TuningProblem.cache_size":
        "- `TuningProblem.cache_size` —",
    "repro.kernels.base:KernelBenchmark.is_valid_on":
        "- `KernelBenchmark.is_valid_on` —",
    "repro.exec.faults:FaultPlan.shard_ids": "- `FaultPlan.shard_ids` —",
    "repro.tuners.adapters:space_to_choices": "- `repro.tuners.adapters` (",
    "repro.tuners.adapters:objective_callback": "- `repro.tuners.adapters` (",
    "repro.tuners.adapters:OptunaAdapter": "- `repro.tuners.adapters` (",
    "repro.tuners.adapters:SMAC3Adapter": "- `repro.tuners.adapters` (",
    "repro.tuners.adapters:KernelTunerAdapter": "- `repro.tuners.adapters` (",
    "repro.tuners.adapters:KTTAdapter": "- `repro.tuners.adapters` (",
    "repro.core.registry:get_tuner": "- `get_tuner` —",
    "repro.core.registry:temporary_benchmark": "- `temporary_benchmark` —",
    "repro.gpus.occupancy:compute_occupancy": "- `compute_occupancy` —",
    "repro.io.results_io:save_results": "- `save_results` and `load_results` —",
    "repro.io.results_io:load_results": "- `save_results` and `load_results` —",
    "repro.kernels.base:KernelBenchmark.run_reference":
        "- Functional references: `KernelBenchmark.run_reference`",
    "repro.kernels.reference.nbody_reference:nbody_accelerations":
        "- Functional references: `KernelBenchmark.run_reference`",
    "repro.kernels.reference.dedispersion_reference:dedisperse":
        "- Functional references: `KernelBenchmark.run_reference`",
}


#: The layers whose options the option guard scans; the tuner options were cut
#: by hand, and the tuner hyperparameters stay.
OPTION_PACKAGES = ("core", "io", "exec", "analysis", "graph", "ml", "gpus")

#: Defaulted parameters kept although no call outside ``tests/`` passes them,
#: ``"module:qualname(parameter)"`` mapped to the text that opens their README
#: "Public API notes" line.
OPTIONS_ALLOWED: dict[str, str] = {
    "repro.analysis.campaign:Campaign(executor)":
        "- `Campaign(executor=, checkpoint=, exhaustive_limit=)` —",
    "repro.analysis.campaign:Campaign(checkpoint)":
        "- `Campaign(executor=, checkpoint=, exhaustive_limit=)` —",
    "repro.analysis.campaign:Campaign(exhaustive_limit)":
        "- `Campaign(executor=, checkpoint=, exhaustive_limit=)` —",
    "repro.analysis.convergence:evaluations_to_reach(threshold)":
        "- `evaluations_to_reach(threshold=)` —",
    "repro.core.cache:EvaluationCache.configs(valid_only)":
        "- `EvaluationCache.configs(valid_only=)` and "
        "`SearchSpace.neighbors(strategy=, valid_only=)` —",
    "repro.core.searchspace:SearchSpace.neighbors(strategy)":
        "- `EvaluationCache.configs(valid_only=)` and "
        "`SearchSpace.neighbors(strategy=, valid_only=)` —",
    "repro.core.searchspace:SearchSpace.neighbors(valid_only)":
        "- `EvaluationCache.configs(valid_only=)` and "
        "`SearchSpace.neighbors(strategy=, valid_only=)` —",
    "repro.core.searchspace:SearchSpace.sample_indices(max_attempts_factor)":
        "- `SearchSpace.sample_indices(max_attempts_factor=)` —",
    "repro.exec.cli:main(argv)": "- `repro.exec.cli.main(argv=, out=)` —",
    "repro.exec.cli:main(out)": "- `repro.exec.cli.main(argv=, out=)` —",
    "repro.exec.progress:ShardProgressReporter(clock)":
        "- `ShardProgressReporter(clock=)` —",
    "repro.graph.pagerank:pagerank(personalization)":
        "- `pagerank(personalization=)` —",
}


#: The types whose attribute names make a public method's name shared.
FOREIGN = (object, str, bytes, bytearray, int, float, complex, list, tuple, dict,
           set, frozenset, np, np.ndarray, np.random.Generator, random.Random, Path)

#: Each shared method name (see the module docstring) mapped to one caller
#: outside ``tests/``, ``path:line: receiver.name``, whose receiver is of the
#: suite's own type (read by hand).  A name with several owners is witnessed
#: for one of them; an override family (the model methods, the lint rules'
#: ``check``) shares its base method's caller.
CALLERS: dict[str, str] = {
    "add": "bench/traced.py:142: cache.add",
    "as_dict": "bench/traced.py:291: pfi.as_dict",
    "cardinality": "src/repro/tuners/grid_search.py:50: space.cardinality",
    "check": "src/repro/lint/engine.py:110: rule.check",
    "compute_efficiency": "src/repro/gpus/perfmodel.py:353: self.compute_efficiency",
    "estimate": "src/repro/gpus/perfmodel.py:445: self.estimate",
    "evaluate": "src/repro/tuners/adapters.py:61: problem.evaluate",
    "evaluate_index": "src/repro/tuners/base.py:127: self._problem.evaluate_index",
    "evaluations_to_reach": "examples/compare_tuners.py:55: result.evaluations_to_reach",
    "feature_importances_":
        "src/repro/analysis/importance.py:124: model.feature_importances_",
    "fit": "src/repro/analysis/importance.py:115: model.fit",
    "flops": "src/repro/gpus/perfmodel.py:351: self.flops",
    "from_dict": "src/repro/core/cache.py:948: Observation.from_dict",
    "get": "src/repro/analysis/portability.py:103: caches[target].get",
    "index_of": "src/repro/core/problem.py:114: self.space.index_of",
    "insert": "src/repro/core/cache.py:598: table.insert",
    "is_satisfied": "src/repro/core/searchspace.py:397: constraint.is_satisfied",
    "launch_config": "src/repro/gpus/perfmodel.py:321: self.launch_config",
    "launch_errors": "src/repro/kernels/base.py:134: self.model.launch_errors",
    "load": "src/repro/lint/cli.py:96: Baseline.load",
    "median": "src/repro/analysis/speedup.py:42: cache.median",
    "n_configs": "src/repro/exec/cli.py:321: plan.n_configs",
    "num_valid": "src/repro/exec/cli.py:379: cache.num_valid",
    "observations": "scripts/pin_golden_trajectories.py:84: result.observations",
    "predict": "src/repro/tuners/surrogate.py:137: model.predict",
    "record": "src/repro/tuners/base.py:137: self._result.record",
    "resolve": "src/repro/core/registry.py:164: self.resolve",
    "row": "src/repro/core/cache.py:590: table.row",
    "save": "src/repro/lint/cli.py:117: snapshot.save",
    "time_ms": "src/repro/analysis/portability.py:111: benchmark.model.time_ms",
    "to_dict": "src/repro/core/cache.py:780: self.space.to_dict",
    "traffic": "src/repro/gpus/perfmodel.py:352: self.traffic",
    "values": "src/repro/analysis/convergence.py:94: cache.values",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions() -> dict[str, tuple[str, bool, Path, int, int]]:
    """``{"module:qualname": (bare name, is a method, path, first line, last line)}``
    of every public module-level function/class and public method of a public class."""
    out: dict[str, tuple[str, bool, Path, int, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and _public(node.name)):
                continue
            out[f"{module}:{node.name}"] = (node.name, False, path, node.lineno,
                                            node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and _public(member.name):
                        out[f"{module}:{node.name}.{member.name}"] = (
                            member.name, True, path, member.lineno, member.end_lineno)
    return out


def _references(paths) -> dict[str, list[tuple[Path, int, bool]]]:
    """``(path, line, is an attribute)`` of every read or import of each bare name.

    Only reads count (``neighbors = ...`` does not use ``neighbors``), and only
    attribute reads can reach a method, so a local variable never keeps a
    method of the same name alive.  A module-level import in an
    ``__init__.py`` is a re-export, not a use, so it keeps nothing alive.
    """
    out: dict[str, list[tuple[Path, int, bool]]] = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reexports = ({id(node) for node in tree.body}
                     if path.name == "__init__.py" else set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.setdefault(node.id, []).append((path, node.lineno, False))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.setdefault(node.attr, []).append((path, node.lineno, True))
            elif isinstance(node, ast.ImportFrom) and id(node) not in reexports:
                for alias in node.names:
                    out.setdefault(alias.name, []).append((path, node.lineno, False))
    return out


def _test_only() -> dict[str, str]:
    """Public names with no reference outside ``tests/`` (and outside their own
    definition), mapped to ``path:line`` of the definition."""
    callers = _references(path for folder in CALLER_DIRS
                          for path in sorted((ROOT / folder).rglob("*.py")))
    found: dict[str, str] = {}
    for key, (name, method, path, first, last) in _definitions().items():
        outside = [(where, line) for where, line, attribute in callers.get(name, ())
                   if (attribute or not method)
                   and not (where == path and first <= line <= last)]
        if not outside:
            found[key] = f"{path.relative_to(ROOT)}:{first}"
    return found


def _shared_method_names() -> dict[str, list[str]]:
    """Public ``src/repro`` method names another receiver also answers to, each
    mapped to the keys of the methods that own it."""
    owners: dict[str, list[str]] = {}
    for key, (name, method, *_) in _definitions().items():
        if method:
            owners.setdefault(name, []).append(key)
    foreign = {attr for kind in FOREIGN for attr in dir(kind)}
    for folder in CALLER_DIRS[1:]:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef):
                    foreign.update(member.name for member in node.body
                                   if isinstance(member, ast.FunctionDef))
    return {name: keys for name, keys in owners.items()
            if len(keys) > 1 or name in foreign}


def _attribute_reads(path: Path) -> set[tuple[int, str]]:
    """``(line, "receiver.name")`` of every attribute read in ``path``."""
    return {(node.lineno, ast.unparse(node))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_shared_method_name_has_its_caller():
    problems = []
    for name, keys in sorted(_shared_method_names().items()):
        caller = CALLERS.get(name)
        if caller is None:
            problems.append(f"{', '.join(keys)}: no CALLERS entry for {name!r}")
            continue
        where, read = caller.split(": ", 1)
        path, line = where.rsplit(":", 1)
        source = ROOT / path
        if (path.split("/")[0] not in CALLER_DIRS or not read.endswith(f".{name}")
                or not source.is_file()
                or (int(line), read) not in _attribute_reads(source)):
            problems.append(f"{', '.join(keys)}: {where} does not read {read}")
    assert not problems, (
        "shared method names without a caller read by receiver (name one caller "
        "per name in CALLERS, or delete the method):\n  " + "\n  ".join(problems))


def test_callers_are_current():
    stale = sorted(set(CALLERS) - set(_shared_method_names()))
    assert not stale, f"CALLERS entries whose name is no longer shared: {stale}"


def test_every_public_name_has_a_caller_outside_tests():
    unexplained = {key: where for key, where in _test_only().items()
                   if key not in ALLOWED}
    assert not unexplained, (
        "public names referenced only from tests/ (give each a caller, delete it "
        "with the tests that only check it, or add it to ALLOWED with a README "
        "'Public API notes' line):\n"
        + "\n".join(f"  {key}  ({where})" for key, where in sorted(unexplained.items())))


def test_allowlist_is_current():
    # An entry whose name gained a caller, or was deleted, must leave the list,
    # so the list stays exactly the set of kept test-only names.
    stale = sorted(set(ALLOWED) - set(_test_only()))
    assert not stale, f"ALLOWED entries that are no longer test-only: {stale}"


def test_each_allowed_name_has_its_readme_line():
    text = README.read_text(encoding="utf-8")
    notes = text.split("## Public API notes", 1)[1].split("\n## ", 1)[0]
    # The line must exist and name the entry (``Class.method`` or ``function``).
    missing = sorted(key for key, line in ALLOWED.items()
                     if line not in notes or f"`{key.split(':')[1]}`" not in notes)
    assert not missing, f"ALLOWED entries without a README 'Public API notes' line: {missing}"


def _defaulted(function: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None, str | None]]:
    """``(name, position, keyword)`` of each defaulted parameter of ``function``.

    The position counts the call's positional arguments (after ``self``/``cls``
    when ``bound``) and is None for a keyword-only parameter; the keyword is None
    for a positional-only one."""
    args = function.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    out = [(arg.arg, i - bound, None if i < len(args.posonlyargs) else arg.arg)
           for i, arg in enumerate(positional) if i >= first_default]
    out += [(arg.arg, None, arg.arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
    return out


def _options(files) -> dict[str, tuple[str, int | None, str | None, Path, int, int]]:
    """``{"module:qualname(parameter)": (callee, position, keyword, path, first
    line, last line)}`` of every defaulted parameter of a public function, a
    public method or a public class's ``__init__`` (callee: the class name) in
    ``files``, an iterable of ``(module, path)``."""
    out = {}
    for module, path in files:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                callables = [(node.name, node.name, node, False)]
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                callables = [
                    (node.name, node.name, member, True) if member.name == "__init__"
                    else (member.name, f"{node.name}.{member.name}", member,
                          not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                  for d in member.decorator_list))
                    for member in node.body
                    if isinstance(member, ast.FunctionDef)
                    and (member.name == "__init__" or _public(member.name))]
            else:
                continue
            for callee, qualname, function, bound in callables:
                for name, position, keyword in _defaulted(function, bound):
                    out[f"{module}:{qualname}({name})"] = (
                        callee, position, keyword, path, function.lineno,
                        function.end_lineno)
    return out


def _bare(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _calls(paths) -> dict[str, list[tuple[int, bool, set[str], bool, Path, int]]]:
    """``(positional count, *args, keywords, **kwargs, path, line)`` of every call,
    keyed by the bare name of its callee."""
    out: dict[str, list[tuple[int, bool, set[str], bool, Path, int]]] = {}

    def visit(node: ast.AST, path: Path, cls: ast.ClassDef | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node
        if isinstance(node, ast.Call):
            func, skipped = node.func, 0
            if isinstance(func, ast.Attribute) and func.attr == "__init__":
                if isinstance(func.value, ast.Call) and _bare(func.value.func) == "super":
                    names = [_bare(base) for base in cls.bases] if cls else []
                else:  # Base.__init__(self, ...)
                    names, skipped = [_bare(func.value)], 1
            elif isinstance(func, ast.Name) and func.id == "cls" and cls is not None:
                names = [cls.name]
            else:
                names = [_bare(func)]
            starred = [isinstance(arg, ast.Starred) for arg in node.args]
            positional = (starred.index(True) if any(starred) else len(starred)) - skipped
            keywords = {keyword.arg for keyword in node.keywords if keyword.arg}
            forwards = any(keyword.arg is None for keyword in node.keywords)
            for name in names:
                if name:
                    out.setdefault(name, []).append(
                        (positional, any(starred), keywords, forwards, path, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, path, cls)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return out


def _unpassed_options(files, caller_paths, root: Path) -> dict[str, str]:
    """The options of ``files`` (see :func:`_options`) that no call in
    ``caller_paths`` outside their own callable passes, mapped to the callable's
    ``path:line`` (relative to ``root``)."""
    calls = _calls(caller_paths)
    found: dict[str, str] = {}
    for key, (callee, position, keyword, path, first, last) in _options(files).items():
        if not any((position is not None and (position < positional or starred))
                   or (keyword is not None and (keyword in keywords or forwards))
                   for positional, starred, keywords, forwards, where, line
                   in calls.get(callee, ())
                   if not (where == path and first <= line <= last)):
            found[key] = f"{path.relative_to(root)}:{first}"
    return found


def _unpassed_suite_options() -> dict[str, str]:
    files = [(".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts), path)
             for folder in OPTION_PACKAGES
             for path in sorted((PACKAGE / folder).rglob("*.py"))]
    callers = [path for folder in CALLER_DIRS for path in sorted((ROOT / folder).rglob("*.py"))]
    return _unpassed_options(files, callers, ROOT)


def test_every_option_is_passed_outside_tests():
    unexplained = {key: where for key, where in _unpassed_suite_options().items()
                   if key not in OPTIONS_ALLOWED}
    assert not unexplained, (
        "defaulted parameters no call outside tests/ passes (make each a constant, "
        "give it a caller, or add it to OPTIONS_ALLOWED with a README 'Public API "
        "notes' line):\n"
        + "\n".join(f"  {key}  ({where})" for key, where in sorted(unexplained.items())))


def test_options_allowlist_is_current():
    stale = sorted(set(OPTIONS_ALLOWED) - set(_unpassed_suite_options()))
    assert not stale, f"OPTIONS_ALLOWED entries some caller now passes, or gone: {stale}"


def test_each_allowed_option_has_its_readme_line():
    text = README.read_text(encoding="utf-8")
    notes = text.split("## Public API notes", 1)[1].split("\n## ", 1)[0]
    # The line must exist and name the parameter as ``parameter=``.
    missing = sorted(key for key, line in OPTIONS_ALLOWED.items()
                     if line not in notes or f"{key.rsplit('(', 1)[1][:-1]}=" not in line)
    assert not missing, f"OPTIONS_ALLOWED entries without a README line: {missing}"


@pytest.mark.parametrize("source, passed", [
    ("f(1, 2)\n", {"f(a)", "f(b)"}),
    ("f(1)\n", {"f(a)"}),
    ("f(b=2)\n", {"f(b)"}),
    ("f(0, *args)\n", {"f(a)", "f(b)"}),
    ("f(**kwargs)\n", {"f(a)", "f(b)"}),
    ("F(b=1)\n", {"F(b)"}),
    ("class G(F):\n    def __init__(self):\n        super().__init__(b=1)\n", {"F(b)"}),
    ("F.__init__(self, 1)\n", {"F(a)"}),
    ("C().m(1)\n", {"C.m(a)"}),
    ("C.s(1)\n", {"C.s(a)"}),
    ("g(1, 2)\n", set()),
])
def test_option_scan_counts_positions_keywords_and_forwarding(tmp_path, source, passed):
    # f's call of itself passes both of its options, and counts for neither.
    module = tmp_path / "mod.py"
    module.write_text("def f(a=0, b=0):\n    return f(a, b)\n\n"
                      "class F:\n    def __init__(self, a=0, b=0):\n        pass\n\n"
                      "class C:\n    def m(self, a=0):\n        pass\n\n"
                      "    @staticmethod\n    def s(a=0):\n        pass\n", encoding="utf-8")
    caller = tmp_path / "caller.py"
    caller.write_text(source, encoding="utf-8")
    options = _options([("mod", module)])
    unpassed = _unpassed_options([("mod", module)], [module, caller], tmp_path)
    assert {key.split(":", 1)[1] for key in set(options) - set(unpassed)} == passed


@pytest.mark.parametrize("filename, source, counted", [
    ("__init__.py", "from repro.ml.metrics import r2_score\n", False),
    ("__init__.py", "def suite():\n    from repro.ml.metrics import r2_score\n", True),
    ("campaign.py", "from repro.ml.metrics import r2_score\n", True),
])
def test_reexport_in_an_init_is_not_a_use(tmp_path, filename, source, counted):
    # A package re-export keeps no name alive; an import inside a function body,
    # or in any other module, does.
    path = tmp_path / filename
    path.write_text(source, encoding="utf-8")
    assert ("r2_score" in _references([path])) is counted
