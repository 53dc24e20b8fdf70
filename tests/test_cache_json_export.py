"""Differential suite: the streamed JSON export against ``json.dumps(to_dict())``.

:func:`repro.io.save_cache` renders its text straight from the cache's columns
(:meth:`EvaluationCache.iter_json`) and streams it through one gzip writer.  The
reference is what the export was before: ``json.dumps({"format_version": 1,
"cache": cache.to_dict()})``, gzipped in memory with ``mtime=0`` at level 9.
Both the plain and the gzipped file must equal it byte for byte, and the file
must parse back to ``to_dict()`` -- for random caches (override rows, NaN and
infinite values, non-ASCII/quoted/backslash strings, string, bool and float
parameter values, any chunking), for the empty cache, for row counts around the
chunk boundary, and for the 14 paper caches.  Each paper export also loads
back through the text reader (:meth:`EvaluationCache.from_json_text`, never the
per-row fallback) equal to the per-row oracle and re-saves its own bytes.
"""

from __future__ import annotations

import gzip
import io
import json
import math
from unittest import mock

import numpy as np
import pytest

from repro.core import cache as cache_module
from repro.core.cache import EvaluationCache
from repro.core.parameter import Parameter
from repro.core.result import Observation
from repro.core.searchspace import SearchSpace
from repro.exec.planner import PAPER_SAMPLE_SIZE, PAPER_SAMPLED_BENCHMARKS
from repro.io.cachefile import save_cache

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CHUNK = cache_module._JSON_CHUNK_ROWS

#: Strings JSON must escape: quotes, backslashes, control and non-ASCII characters.
AWKWARD = ("", "oom", 'say "hi"', "back\\slash", "tab\tnew\nline", "ünïcödé ☃",
           "\x00nul", "𝄞 astral")

SPACE = SearchSpace([
    Parameter("block_size_x", (16, 32, 64)),
    Parameter("mode", ("a", 'q"uote', "back\\slash", "naïve ☃")),
    Parameter("use_shmem", (False, True)),
    Parameter("factor", (-0.0, 1e-7, 0.5, 1e16)),
], name="export")


def reference_text(cache) -> str:
    return json.dumps({"format_version": 1, "cache": cache.to_dict()})


def reference_gzip(text: str) -> bytes:
    """The export's gzip bytes as they were built before streaming."""
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as handle:
        handle.write(text.encode("utf-8"))
    return buffer.getvalue()


def assert_exports_match(cache, directory) -> None:
    text = reference_text(cache)
    plain = save_cache(cache, directory / "cache.json").read_bytes()
    assert plain == text.encode("utf-8")
    assert save_cache(cache, directory / "cache.json.gz").read_bytes() == reference_gzip(text)
    assert json.loads(plain)["cache"] == cache.to_dict()


#: One row: ``(index, value, valid, error, override)``; ``override`` re-adds the
#: configuration (a row with a later ``evaluation_index``) or inserts a foreign
#: observation, both of which the columns keep as override rows.
row = st.tuples(
    st.integers(0, SPACE.cardinality - 1),
    st.sampled_from([0.5, 1e-7, -0.0, 1e16, 123.456, math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.sampled_from(AWKWARD),
    st.sampled_from([None, None, None, "re-add", "foreign gpu", "int value"]),
)


def build(rows, metadata) -> EvaluationCache:
    cache = EvaluationCache("export ☃", 'GPU "x"', SPACE, exhaustive=False)
    cache.metadata.update(metadata)
    for index, value, valid, error, override in rows:
        config = SPACE.config_at(index)
        if override in (None, "re-add"):
            cache.add(config, value, valid=valid, error=error)
            if override == "re-add":
                cache.add(config, value, valid=not valid, error=error[::-1])
        else:
            obs = Observation(config=config, value=3 if override == "int value" else value,
                              valid=valid, error=error, evaluation_index=len(cache),
                              gpu="OTHER" if override == "foreign gpu" else cache.gpu,
                              benchmark=cache.benchmark)
            cache.add_observation(obs)
    return cache


@hypothesis.settings(max_examples=60, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(rows=st.lists(row, max_size=40),
                  metadata=st.dictionaries(st.sampled_from(AWKWARD[1:]),
                                           st.sampled_from([1, 2.5, None, "ü", [1, "x"]]),
                                           max_size=3),
                  chunk=st.sampled_from([1, 2, 3, 7, CHUNK]))
def test_random_caches_export_like_json_dumps(rows, metadata, chunk, tmp_path):
    cache = build(rows, metadata)
    with mock.patch.object(cache_module, "_JSON_CHUNK_ROWS", chunk):
        assert "".join(cache.iter_json()) == json.dumps(cache.to_dict())
        assert_exports_match(cache, tmp_path)


def test_empty_cache(tmp_path):
    cache = EvaluationCache("empty", "GPU", SPACE, exhaustive=True)
    assert cache.to_dict()["observations"] == []
    assert_exports_match(cache, tmp_path)


def test_single_parameter_space(tmp_path):
    # The row's opening and the value's key fold into the same fragment.
    space = SearchSpace([Parameter("only", (1.5, "two", None))], name="one")
    cache = EvaluationCache("one", "GPU", space)
    for index in range(space.cardinality):
        cache.add(space.config_at(index), 1.0 + index, valid=index != 1, error="x" * index)
    assert_exports_match(cache, tmp_path)


BIG_SPACE = SearchSpace([Parameter("a", tuple(range(64))),
                         Parameter("b", tuple(range(64))),
                         Parameter("s", ("x", "ÿ", '"', "\\", "z"))], name="chunks")


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1],
                         ids=["1", "chunk-1", "chunk", "chunk+1", "2chunk+1"])
def test_row_counts_around_the_chunk_boundary(n, tmp_path):
    rng = np.random.default_rng(n)
    indices = rng.choice(BIG_SPACE.cardinality, size=n, replace=False)
    values = rng.uniform(0.1, 9.0, size=n)
    values[rng.random(n) < 0.05] = math.inf
    errors = ["", "timeout", "too many resources ☃"]
    codes = np.where(np.isfinite(values), -1, rng.integers(1, 3, size=n)).astype(np.int32)
    cache = EvaluationCache("chunks", "GPU", BIG_SPACE)
    cache.attach_columns(indices, values, codes, errors)
    # Override rows on both sides of every chunk edge.
    for row in sorted({0, n - 1, CHUNK - 1, CHUNK} & set(range(n))):
        cache.add(BIG_SPACE.config_at(int(indices[row])), 1.25, error="re-added")
    assert_exports_match(cache, tmp_path)


SCENARIOS = [(name, gpu) for name in sorted(["pnpoly", "nbody", "gemm", "convolution",
                                             "hotspot", "dedispersion", "expdist"])
             for gpu in ("RTX_3090", "RTX_2080_Ti")]


@pytest.fixture(scope="module")
def paper_caches(benchmarks, gpus):
    return {(name, gpu): benchmarks[name].build_cache(
                gpus[gpu], seed=2023,
                sample_size=PAPER_SAMPLE_SIZE if name in PAPER_SAMPLED_BENCHMARKS else None)
            for name, gpu in SCENARIOS}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=["@".join(s) for s in SCENARIOS])
def test_paper_caches_export_like_json_dumps(paper_caches, scenario, tmp_path):
    assert_exports_match(paper_caches[scenario], tmp_path)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=["@".join(s) for s in SCENARIOS])
def test_paper_exports_load_through_the_text_reader(paper_caches, scenario, tmp_path):
    # load_cache reads every paper export back against the writer's fragments
    # (EvaluationCache.from_json_text); the per-row fallback must not run.
    from cache_oracle import OracleCache
    from repro.io.cachefile import load_cache

    path = save_cache(paper_caches[scenario], tmp_path / "cache.json.gz")
    with mock.patch.object(EvaluationCache, "from_dict",
                           side_effect=AssertionError("fell back to from_dict")):
        loaded = load_cache(path)
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        reference = OracleCache.from_payload(json.load(handle)["cache"])
    assert json.dumps(loaded.to_dict()) == json.dumps(reference.to_dict())
    assert loaded.values(valid_only=False).tobytes() == reference.values(
        valid_only=False).tobytes()
    assert save_cache(loaded, tmp_path / "again.json.gz").read_bytes() == path.read_bytes()
