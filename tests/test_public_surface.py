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
    "is_sampled": "src/repro/exec/planner.py:348: self.is_sampled",
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
