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
That is deliberately loose (two classes sharing a method name keep each other
alive), so the guard catches names nothing calls, not every unused overload.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
