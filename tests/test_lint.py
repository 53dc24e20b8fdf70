"""The contract checker: rule fixtures, suppressions, baseline, determinism.

Layout mirrors the linter's own guarantees:

* every rule has good/bad source fixtures (the bad snippet must be caught, the
  sanctioned form must pass);
* inline suppressions silence findings only with a reason, and stale allows are
  themselves findings;
* the baseline round-trips byte-identically and absorbs exactly the grandfathered
  fingerprints;
* discovery and reporting are deterministic (sorted paths, stable order,
  byte-identical JSON);
* the meta-test: the repo's own ``src/repro`` is clean against the committed
  baseline -- the acceptance criterion CI enforces.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    Baseline,
    lint_paths,
    render_json,
    render_text,
    scan_suppressions,
)
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_BASELINE = REPO_ROOT / "lint_baseline.json"


def write_module(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def run_lint(root: Path, rel: str, source: str, **kwargs):
    write_module(root, rel, source)
    return lint_paths([root], root, **kwargs)


def codes(result) -> list[str]:
    return [finding.code for finding in result.findings]


# ---------------------------------------------------------------------- rule fixtures
#
# One (bad, good, rel_path) pair per rule; the bad snippet must trigger exactly its
# rule and the good snippet must be clean.  Kept importable for the injection
# meta-test at the bottom.

RULE_FIXTURES = {
    "RPL001": {
        "rel": "repro/tuners/example.py",
        "bad": """
            import random
            import numpy as np

            def draw():
                random.seed(0)
                return random.random() + np.random.rand()
            """,
        "good": """
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                return rng.random()
            """,
    },
    "RPL002": {
        "rel": "repro/analysis/example.py",
        "bad": """
            import time

            def stamp(rows):
                return {"rows": rows, "at": time.time()}
            """,
        "good": """
            def stamp(rows, tick):
                return {"rows": rows, "at": tick}
            """,
    },
    "RPL003": {
        "rel": "repro/io/example.py",
        "bad": """
            def dump(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
        "good": """
            from repro.io.cachefile import atomic_write_json

            def dump(path, payload):
                atomic_write_json(payload, path)

            def read(path):
                with open(path, "rb") as handle:
                    return handle.read()
            """,
    },
    "RPL004": {
        "rel": "repro/exec/example.py",
        "bad": """
            def attempt(task):
                try:
                    task()
                except Exception:
                    pass
                raise Exception("worker failed")
            """,
        "good": """
            from repro.core.errors import TransientExecutionError

            def attempt(task):
                try:
                    task()
                except Exception as exc:
                    raise TransientExecutionError(f"task failed: {exc}") from exc
            """,
    },
    "RPL005": {
        "rel": "repro/tuners/budget_example.py",
        "bad": """
            from repro.core.budget import Budget

            class CappedBudget(Budget):
                @property
                def exhausted(self):
                    return self.evaluations_used >= 5
            """,
        "good": """
            from repro.core.budget import Budget

            class CappedBudget(Budget):
                @property
                def exhausted(self):
                    return self.evaluations_used >= 5

                def affordable_evaluations(self):
                    return max(0, 5 - self.evaluations_used)
            """,
    },
    "RPL006": {
        "rel": "repro/kernels/reg_example.py",
        "bad": """
            from repro.core.registry import register_benchmark

            def install():
                register_benchmark("bad", "mod:factory", grid=lambda: 3)
            """,
        "good": """
            from repro.core.registry import register_benchmark

            def install(seed):
                register_benchmark("good", "mod:factory", seed=seed,
                                   sizes=[16, 32], overwrite=True)
            """,
    },
    "RPL008": {
        "rel": "repro/kernels/model_example.py",
        "bad": """
            import numpy as np

            def tile_factor(work, best):
                return 1.0 - 0.05 * np.log2(work / best)
            """,
        "good": """
            import math

            import numpy as np

            from repro.gpus.columns import per_value

            def tile_factor(work, best):
                return per_value(lambda w: 1.0 - 0.05 * math.log2(w / best), work)

            def clamp(x):
                return np.sqrt(np.minimum(x, 1.0))
            """,
    },
}


class TestRuleFixtures:
    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_bad_snippet_is_caught(self, tmp_path, code):
        fixture = RULE_FIXTURES[code]
        result = run_lint(tmp_path, fixture["rel"], fixture["bad"])
        assert code in codes(result), render_text(result)
        assert result.exit_code == 1

    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_good_snippet_is_clean(self, tmp_path, code):
        fixture = RULE_FIXTURES[code]
        result = run_lint(tmp_path, fixture["rel"], fixture["good"])
        assert result.findings == [], render_text(result)
        assert result.exit_code == 0

    def test_rpl001_flags_entropy_sources(self, tmp_path):
        result = run_lint(tmp_path, "repro/io/entropy.py", """
            import os
            import uuid

            def names():
                return uuid.uuid4().hex, os.urandom(8)
            """)
        assert codes(result) == ["RPL001", "RPL001"]

    def test_rpl001_accepts_seeded_random_instances(self, tmp_path):
        # random.Random(seed) calls are sanctioned; only the module import line
        # itself demands an annotation.
        result = run_lint(tmp_path, "repro/kernels/seeded.py", """
            # repro: allow[RPL001] only seeded Random instances below
            import random

            def rng(seed):
                return random.Random(seed)
            """)
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_rpl002_allowlists_progress_module(self, tmp_path):
        source = """
            import time

            def tick():
                return time.monotonic()
            """
        allowed = run_lint(tmp_path, "repro/exec/progress.py", source)
        assert allowed.findings == []
        tmp2 = tmp_path / "other"
        flagged = run_lint(tmp2, "repro/exec/other.py", source)
        assert codes(flagged) == ["RPL002"]

    def test_rpl003_scope_is_io_and_exec_only(self, tmp_path):
        source = RULE_FIXTURES["RPL003"]["bad"]
        outside = run_lint(tmp_path, "repro/analysis/writer.py", source)
        assert outside.findings == []

    def test_rpl003_flags_oswrite_and_write_text(self, tmp_path):
        result = run_lint(tmp_path, "repro/exec/writer.py", """
            import os
            from pathlib import Path

            def clobber(path, data):
                Path(path).write_text(data)
                fd = os.open(path, os.O_CREAT | os.O_WRONLY)
                os.close(fd)
            """)
        assert codes(result) == ["RPL003", "RPL003"]

    def test_rpl004_flags_bare_except(self, tmp_path):
        result = run_lint(tmp_path, "repro/exec/swallow.py", """
            def attempt(task):
                try:
                    task()
                except:
                    return None
            """)
        assert codes(result) == ["RPL004"]

    def test_rpl006_flags_unserializable_spec_kwargs(self, tmp_path):
        result = run_lint(tmp_path, "repro/kernels/reg2.py", """
            from repro.core.registry import BenchmarkSpec

            def specs():
                return BenchmarkSpec("mod:factory", {"sizes": {1, 2, 3}})
            """)
        assert codes(result) == ["RPL006"]

    def test_rpl008_flags_references_and_imports(self, tmp_path):
        result = run_lint(tmp_path, "repro/gpus/curve.py", """
            import numpy
            from numpy import exp

            def curves(x):
                return list(map(numpy.cos, x)), exp(x)
            """)
        assert codes(result) == ["RPL008", "RPL008"]

    def test_rpl008_scope_excludes_references_and_other_packages(self, tmp_path):
        source = RULE_FIXTURES["RPL008"]["bad"]
        assert run_lint(tmp_path, "repro/kernels/reference/example.py",
                        source).findings == []
        assert run_lint(tmp_path / "other", "repro/ml/example.py", source).findings == []


class TestSuppressions:
    def test_trailing_allow_with_reason_suppresses(self, tmp_path):
        result = run_lint(tmp_path, "repro/io/w.py", """
            def dump(path, text):
                with open(path, "w") as handle:  # repro: allow[RPL003] test fixture
                    handle.write(text)
            """)
        assert result.findings == []
        assert [f.code for f in result.suppressed] == ["RPL003"]

    def test_standalone_allow_covers_next_code_line(self, tmp_path):
        result = run_lint(tmp_path, "repro/io/w.py", """
            def dump(path, text):
                # repro: allow[RPL003] the reason wraps across two
                # comment lines before the statement
                with open(path, "w") as handle:
                    handle.write(text)
            """)
        assert result.findings == []

    def test_allow_without_reason_is_a_finding(self, tmp_path):
        result = run_lint(tmp_path, "repro/io/w.py", """
            def dump(path, text):
                with open(path, "w") as handle:  # repro: allow[RPL003]
                    handle.write(text)
            """)
        assert codes(result) == ["RPL000"]
        assert "without a reason" in result.findings[0].message

    def test_unused_allow_is_a_finding(self, tmp_path):
        result = run_lint(tmp_path, "repro/io/w.py", """
            def read(path):  # repro: allow[RPL003] nothing to suppress here
                with open(path, "rb") as handle:
                    return handle.read()
            """)
        assert codes(result) == ["RPL000"]
        assert "unused suppression" in result.findings[0].message

    def test_multi_code_allow(self, tmp_path):
        result = run_lint(tmp_path, "repro/io/w.py", """
            import uuid
            from pathlib import Path

            def scratch(path):
                # repro: allow[RPL001,RPL003] fixture exercising one comment, two codes
                Path(path).write_text(uuid.uuid4().hex)
            """)
        assert result.findings == []
        assert sorted(f.code for f in result.suppressed) == ["RPL001", "RPL003"]

    def test_scanner_ignores_hash_inside_strings(self, tmp_path):
        source = 'text = "# repro: allow[RPL003] not a comment"\n'
        write_module(tmp_path, "repro/io/s.py", source)
        suppressions = scan_suppressions(source)
        assert suppressions == []


class TestBaseline:
    def bad_tree(self, root: Path) -> None:
        write_module(root, "repro/io/legacy.py", """
            def dump(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """)

    def test_round_trip_absorbs_grandfathered_findings(self, tmp_path):
        self.bad_tree(tmp_path)
        first = lint_paths([tmp_path], tmp_path)
        assert codes(first) == ["RPL003"]

        snapshot = Baseline.from_findings(first.findings)
        baseline_path = tmp_path / "lint_baseline.json"
        snapshot.save(baseline_path)

        second = lint_paths([tmp_path], tmp_path,
                            baseline=Baseline.load(baseline_path))
        assert second.findings == []
        assert codes(second) == []
        assert [f.code for f in second.baselined] == ["RPL003"]
        assert second.exit_code == 0

    def test_new_findings_are_not_absorbed(self, tmp_path):
        self.bad_tree(tmp_path)
        first = lint_paths([tmp_path], tmp_path)
        baseline_path = tmp_path / "lint_baseline.json"
        Baseline.from_findings(first.findings).save(baseline_path)

        write_module(tmp_path, "repro/io/fresh.py", """
            def dump(path, text):
                with open(path, "a") as handle:
                    handle.write(text)
            """)
        result = lint_paths([tmp_path], tmp_path,
                            baseline=Baseline.load(baseline_path))
        assert [f.path for f in result.findings] == ["repro/io/fresh.py"]
        assert result.exit_code == 1

    def test_fingerprints_survive_line_drift(self, tmp_path):
        path = tmp_path / "repro/io/legacy.py"
        self.bad_tree(tmp_path)
        first = lint_paths([tmp_path], tmp_path)
        baseline_path = tmp_path / "lint_baseline.json"
        Baseline.from_findings(first.findings).save(baseline_path)

        # Prepend unrelated lines: the finding moves but its fingerprint holds.
        path.write_text("HEADER = 1\nFOOTER = 2\n" + path.read_text())
        drifted = lint_paths([tmp_path], tmp_path,
                             baseline=Baseline.load(baseline_path))
        assert drifted.findings == []
        assert len(drifted.baselined) == 1
        assert drifted.baselined[0].line == first.findings[0].line + 2

    def test_stale_entries_are_reported(self, tmp_path):
        self.bad_tree(tmp_path)
        first = lint_paths([tmp_path], tmp_path)
        baseline_path = tmp_path / "lint_baseline.json"
        Baseline.from_findings(first.findings).save(baseline_path)

        write_module(tmp_path, "repro/io/legacy.py", """
            def dump(path, text):
                return (path, text)
            """)
        result = lint_paths([tmp_path], tmp_path,
                            baseline=Baseline.load(baseline_path))
        assert result.findings == []
        assert len(result.stale_baseline) == 1
        assert "stale baseline entry" in render_text(result)

    def test_save_is_byte_deterministic(self, tmp_path):
        self.bad_tree(tmp_path)
        findings = lint_paths([tmp_path], tmp_path).findings
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        Baseline.from_findings(findings).save(a)
        # Loading and re-saving (any entry assembly order) emits the same bytes.
        Baseline.load(a).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_write_baseline_preserves_reasons(self, tmp_path):
        self.bad_tree(tmp_path)
        baseline_path = tmp_path / "lint_baseline.json"
        assert main(["--root", str(tmp_path), str(tmp_path / "repro"),
                     "--baseline", str(baseline_path), "--write-baseline"]) == 0
        payload = json.loads(baseline_path.read_text())
        payload["findings"][0]["reason"] = "legacy writer, replaced in PR 11"
        Baseline(
            {e["fingerprint"]: e for e in payload["findings"]}).save(baseline_path)

        assert main(["--root", str(tmp_path), str(tmp_path / "repro"),
                     "--baseline", str(baseline_path), "--write-baseline"]) == 0
        refreshed = json.loads(baseline_path.read_text())
        assert refreshed["findings"][0]["reason"] == "legacy writer, replaced in PR 11"


class TestDeterminism:
    def populate(self, root: Path) -> None:
        write_module(root, "repro/io/b.py", """
            def dump(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """)
        write_module(root, "repro/io/a.py", """
            import uuid

            def name():
                return uuid.uuid4().hex
            """)
        write_module(root, "repro/exec/c.py", """
            def boom():
                raise Exception("nope")
            """)

    def test_json_report_is_byte_identical_across_runs(self, tmp_path):
        self.populate(tmp_path)
        first = render_json(lint_paths([tmp_path], tmp_path))
        second = render_json(lint_paths([tmp_path], tmp_path))
        assert first == second

    def test_order_is_independent_of_argument_order(self, tmp_path):
        self.populate(tmp_path)
        files = [tmp_path / "repro/io/b.py", tmp_path / "repro/io/a.py",
                 tmp_path / "repro/exec/c.py"]
        forward = lint_paths(list(files), tmp_path)
        backward = lint_paths(list(reversed(files)), tmp_path)
        assert forward.findings == backward.findings
        assert render_json(forward) == render_json(backward)
        # Findings come out path-sorted regardless of discovery order.
        assert [f.path for f in forward.findings] == sorted(
            f.path for f in forward.findings)

    def test_report_paths_are_relative_posix(self, tmp_path):
        self.populate(tmp_path)
        result = lint_paths([tmp_path], tmp_path)
        for finding in result.findings:
            assert not Path(finding.path).is_absolute()
            assert "\\" not in finding.path


class TestCLI:
    def test_exit_codes(self, tmp_path, capsys):
        write_module(tmp_path, "repro/io/ok.py", "VALUE = 1\n")
        assert main(["--root", str(tmp_path), str(tmp_path / "repro")]) == 0
        write_module(tmp_path, "repro/io/bad.py", """
            def dump(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """)
        assert main(["--root", str(tmp_path), str(tmp_path / "repro")]) == 1
        assert main(["--root", str(tmp_path),
                     str(tmp_path / "does-not-exist")]) == 2
        capsys.readouterr()

    def test_select_runs_only_named_rules(self, tmp_path, capsys):
        write_module(tmp_path, "repro/io/bad.py", """
            import uuid

            def dump(path):
                with open(path, "w") as handle:
                    handle.write(uuid.uuid4().hex)
            """)
        assert main(["--root", str(tmp_path), str(tmp_path / "repro"),
                     "--select", "RPL001"]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out and "RPL003" not in out

    def test_json_format_and_list_rules(self, tmp_path, capsys):
        write_module(tmp_path, "repro/io/ok.py", "VALUE = 1\n")
        assert main(["--root", str(tmp_path), str(tmp_path / "repro"),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert main(["--list-rules"]) == 0
        listing = capsys.readouterr().out
        for rule in RULES:
            assert rule.code in listing

    def test_missing_explicit_baseline_is_usage_error(self, tmp_path, capsys):
        write_module(tmp_path, "repro/io/ok.py", "VALUE = 1\n")
        assert main(["--root", str(tmp_path), str(tmp_path / "repro"),
                     "--baseline", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()


class TestRepoIsClean:
    """The acceptance criterion: the repo's own tree passes its own linter."""

    def test_committed_baseline_exists(self):
        assert COMMITTED_BASELINE.is_file()
        payload = json.loads(COMMITTED_BASELINE.read_text())
        for entry in payload["findings"]:
            assert entry["reason"].strip(), entry
            assert not entry["reason"].startswith("TODO"), entry

    def test_src_repro_is_clean_against_committed_baseline(self, capsys):
        exit_code = main(["--root", str(REPO_ROOT), str(REPO_ROOT / "src/repro"),
                          "--baseline", str(COMMITTED_BASELINE)])
        output = capsys.readouterr().out
        assert exit_code == 0, output

    def test_repo_json_report_is_byte_identical(self):
        baseline = Baseline.load(COMMITTED_BASELINE)
        first = render_json(lint_paths([REPO_ROOT / "src/repro"], REPO_ROOT,
                                       baseline=baseline))
        baseline2 = Baseline.load(COMMITTED_BASELINE)
        second = render_json(lint_paths([REPO_ROOT / "src/repro"], REPO_ROOT,
                                        baseline=baseline2))
        assert first == second

    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_injected_bad_snippet_fails_the_build(self, tmp_path, code):
        """Dropping any rule's bad snippet into a repro tree exits nonzero."""
        fixture = RULE_FIXTURES[code]
        write_module(tmp_path, fixture["rel"], fixture["bad"])
        assert main(["--root", str(tmp_path), str(tmp_path / "repro"),
                     "--no-baseline"]) == 1
