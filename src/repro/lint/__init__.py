"""Static contract checking: the ROADMAP's standing contracts as lint rules.

Every determinism contract this repo depends on -- keyed-hash RNG only,
byte-identical merges, atomic writes, the transient/permanent error taxonomy,
JSON-pure benchmark specs, bit-exact scalar transcendentals -- is enforced
dynamically by the differential and chaos suites.  Those suites only catch a
violation when some test drives the offending path; this package catches the
violation at the *source line*, before any test runs, by walking the AST of the
repo's own code.

Layout:

* :mod:`repro.lint.rules` -- the rule registry (``RPL001``..``RPL004``, ``RPL006``,
  ``RPL008``; retired codes are not reused), each rule a small AST check tied to
  one ROADMAP contract;
* :mod:`repro.lint.suppressions` -- inline ``# repro: allow[RPL###] reason``
  annotations (reasons mandatory, stale allows are themselves findings);
* :mod:`repro.lint.baseline` -- the committed baseline of grandfathered findings,
  fingerprint-anchored so entries expire when the flagged line changes;
* :mod:`repro.lint.engine` -- deterministic discovery, filtering and the
  text/JSON reporters;
* :mod:`repro.lint.cli` -- ``python -m repro.lint src/repro`` (exit 0 clean,
  1 on new findings, 2 on usage errors), the CI entry point.
"""

from repro.lint.baseline import Baseline
from repro.lint.engine import LintResult, lint_file, lint_paths, render_json, render_text
from repro.lint.findings import Finding, fingerprint
from repro.lint.rules import RULES, LintContext, Rule, rules_for_module
from repro.lint.suppressions import Suppression, scan_suppressions

__all__ = [
    "Baseline",
    "Finding",
    "LintContext",
    "LintResult",
    "RULES",
    "Rule",
    "Suppression",
    "fingerprint",
    "lint_file",
    "lint_paths",
    "render_json",
    "render_text",
    "rules_for_module",
    "scan_suppressions",
]
