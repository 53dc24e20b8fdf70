"""The runtime import footprint: NumPy is the library's only third-party dependency.

SciPy is a test dependency (the PageRank oracle in ``tests/pagerank_oracle.py``).  A
fresh interpreter that imports the library's packages must not load it, so the lean
import path every entry point pays for at start-up cannot regress silently.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGES = ("repro", "repro.analysis", "repro.exec", "repro.graph", "repro.io",
            "repro.ml", "repro.tuners")


def test_runtime_packages_do_not_load_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            + "".join(f"import {name}\n" for name in PACKAGES)
            + "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", f"SciPy loaded at import: {done.stdout.strip()}"
