"""Differential witness for the JSON text reader.

:func:`repro.io.load_cache` reads a cache file as text and first tries
:meth:`EvaluationCache.from_json_text`, the inverse of
:meth:`EvaluationCache.iter_json`: it reads the rows back against the writer's
own fragments instead of parsing them as generic JSON.  Only text it does not
recognise goes through :func:`json.loads` and the per-row
:meth:`EvaluationCache.from_dict`.  The contract under test:

* every :func:`save_cache` output of a cache without override rows is taken by
  the reader (``from_json_text`` returns a cache and ``load_cache`` never calls
  ``from_dict``), loads equal to the per-row oracle
  (:class:`cache_oracle.OracleCache`) and re-saves its own bytes.  The caches
  are generated: synthetic campaign caches
  (:func:`repro.kernels.synthetic.create_benchmark`), hand-written spaces with
  ``str``, ``bool``, float (``16.0``) and one-value parameters, error strings
  holding ``, "``, ``\\"``, ``, {"config": {"``, newlines or non-ASCII text,
  NaN and infinite values (written as ``null``), the empty cache, any reader
  chunking and a live ``space=``;
* canonical text mutated in ways the reader must not take at face value
  (whitespace, key order, ``1.0`` for ``1``, ``NaN``/``Infinity``, ``1.50``,
  ``1e2``, a repeated config, a foreign ``evaluation_index`` or gpu, an extra
  field, a truncated row) loads equal to the oracle and re-saves what the
  oracle saves; text that is not JSON is refused like the oracle refuses it;
* the streamed read (``load_cache`` reads, inflates and decodes a file in
  bounded pieces and the reader carves them into row chunks): with pieces of a
  few bytes, an export split into gzip members (NUL padding or not) and a
  non-ASCII export take the reader, UTF-8 split between reads decodes whole, a
  damaged gzip trailer or bytes after the last member are refused naming the
  file, a foreign last row falls back with the file closed, and any split of a
  text into pieces reads like the whole text.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import json
import math
import re
import zlib
from unittest import mock

import numpy as np
import pytest

from repro.core import cache as cache_module
from repro.core.cache import EvaluationCache
from repro.core.errors import SerializationError
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.gpus.specs import RTX_3090
from repro.io import cachefile
from repro.io.cachefile import load_cache, save_cache
from repro.kernels.synthetic import FAMILIES, create_benchmark

from cache_oracle import OracleCache

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=60, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])

#: Error strings JSON must escape or the reader's separators could misread.
AWKWARD = ("", "oom", 'x, "y', 'say "hi"', '\\"', 'a, {"config": {"b', "line\nbreak",
           "ünïcödé ☃", "𝄞 astral", "tab\there")

#: Runtimes, including the ones JSON writes as ``null``.
VALUES = (0.5, 16.0, 1e16, -0.0, 1e-7, 123.456, math.nan, math.inf, -math.inf)

#: Hand-written spaces: str, bool, float and one-value parameters, mixed types.
SPACES = {
    "str-bool-float": SearchSpace([
        Parameter("block_size_x", (16, 32, 64)),
        Parameter("mode", ("a", 'q"uote', "back\\slash", "naïve ☃", ', "x')),
        Parameter("use_shmem", (False, True)),
        Parameter("factor", (16.0, 0.5, -0.0, 1e16)),
    ], name="hand"),
    "one-value": SearchSpace([
        Parameter("only", (7,)),
        Parameter("tile", (1, 2, 4)),
        Parameter("fixed", ("yes",)),
    ], name="one"),
    "mixed types": SearchSpace([
        Parameter("unroll", (1, "auto", None, 2.5)),
        Parameter("n", (8, 16)),
    ], name="mixed"),
    "single parameter": SearchSpace([Parameter("block", (32, 64, 128))], name="single"),
}

#: Reader chunk sizes in characters: a row per chunk, a few rows, the default.
CHUNKS = (1, 40, 300, cache_module._JSON_READ_CHUNK_CHARS)


@st.composite
def synthetic_caches(draw):
    """A campaign cache of a generated scenario, as ``build_cache`` makes it."""
    benchmark = create_benchmark(
        name="text", family=draw(st.sampled_from(FAMILIES)),
        dimensions=draw(st.integers(1, 4)),
        constraint_density=draw(st.sampled_from((0.0, 0.5, 1.5))),
        failure_rate=draw(st.sampled_from((0.0, 0.3, 1.0))),
        seed=draw(st.integers(0, 2**16)), max_radix=4)
    feasible = benchmark.space.count_constrained()
    hypothesis.assume(feasible > 0)
    return benchmark.build_cache(
        RTX_3090, sample_size=min(feasible, draw(st.integers(1, 30))),
        seed=draw(st.integers(0, 2**16)))


@st.composite
def hand_caches(draw, min_rows=0):
    """Rows added one at a time to a hand-written space (no override rows)."""
    space = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    indices = draw(st.lists(st.integers(0, space.cardinality - 1), unique=True,
                            min_size=min(min_rows, space.cardinality), max_size=25))
    cache = EvaluationCache(draw(st.sampled_from(("hand", "b ☃"))),
                            draw(st.sampled_from(("GPU", 'GPU "x"'))), space,
                            exhaustive=draw(st.booleans()))
    cache.metadata.update(draw(st.dictionaries(st.sampled_from(("seed", "note")),
                                               st.sampled_from((1, "ü", None)),
                                               max_size=2)))
    for index in indices:
        cache.add(space.config_at(index), draw(st.sampled_from(VALUES)),
                  valid=draw(st.booleans()), error=draw(st.sampled_from(AWKWARD)))
    return cache


def oracle_of(text: str, space=None) -> OracleCache:
    """The per-row oracle: ``json.loads`` and one ``add_observation`` per row."""
    return OracleCache.from_payload(json.loads(text)["cache"], space)


def same_array(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same(loaded, oracle) -> None:
    assert json.dumps(loaded.to_dict()) == json.dumps(oracle.to_dict())
    assert (len(loaded), loaded.num_valid, loaded.num_invalid) == (
        len(oracle), oracle.num_valid, oracle.num_invalid)
    for valid_only in (True, False):
        assert same_array(loaded.values(valid_only=valid_only),
                          oracle.values(valid_only=valid_only))
    indices, values = loaded.valid_arrays()
    ref_indices, ref_values = oracle.valid_arrays()
    assert same_array(indices, ref_indices) and same_array(values, ref_values)


def assert_reader_takes(cache, path, space=None) -> EvaluationCache:
    """Save ``cache``; the reader must take the file, equal the oracle and
    re-save the same bytes.  Returns the loaded cache."""
    saved = save_cache(cache, path)
    text = cachefile._read_text(saved)
    assert EvaluationCache.from_json_text(
        text, space=space, envelope=cachefile._CACHE_ENVELOPE) is not None
    with mock.patch.object(EvaluationCache, "from_dict",
                           side_effect=AssertionError("fell back to from_dict")):
        loaded = load_cache(saved, space=space)
    assert_same(loaded, oracle_of(text, space))
    again = save_cache(loaded, path.with_name("again" + "".join(path.suffixes)))
    assert again.read_bytes() == saved.read_bytes()
    return loaded


@SETTINGS
@hypothesis.given(cache=st.one_of(synthetic_caches(), hand_caches()),
                  chunk=st.sampled_from(CHUNKS), suffix=st.sampled_from((".json", ".json.gz")))
def test_exports_take_the_reader(cache, chunk, suffix, tmp_path):
    with mock.patch.object(cache_module, "_JSON_READ_CHUNK_CHARS", chunk):
        assert_reader_takes(cache, tmp_path / f"cache{suffix}")


@SETTINGS
@hypothesis.given(cache=hand_caches(min_rows=1), chunk=st.sampled_from(CHUNKS))
def test_live_space_is_kept(cache, chunk, tmp_path):
    with mock.patch.object(cache_module, "_JSON_READ_CHUNK_CHARS", chunk):
        loaded = assert_reader_takes(cache, tmp_path / "cache.json", space=cache.space)
    assert loaded.space is cache.space


@pytest.mark.parametrize("name", sorted(SPACES))
def test_empty_cache_takes_the_reader(name, tmp_path):
    loaded = assert_reader_takes(EvaluationCache("empty", "GPU", SPACES[name]),
                                 tmp_path / "empty.json.gz")
    assert len(loaded) == 0


@pytest.mark.parametrize("where", ["space value", "error", "gpu"])
def test_string_ending_in_a_comma_falls_back(where, tmp_path):
    # A JSON string ending in ", " renders the reader's separator ', "' with
    # its closing quote, so the reader declines the file and the per-row path
    # loads it; the result is the same.
    values = ("a", "b, ") if where == "space value" else ("a", "b")
    space = SearchSpace([Parameter("s", values), Parameter("n", (1, 2))], name="comma")
    cache = EvaluationCache("comma", "GPU, " if where == "gpu" else "GPU", space)
    for index in range(space.cardinality):
        cache.add(space.config_at(index), 1.0 + index, valid=index != 1,
                  error="ends with, " if where == "error" else "")
    path = save_cache(cache, tmp_path / "comma.json.gz")
    text = cachefile._read_text(path)
    assert EvaluationCache.from_json_text(
        text, envelope=cachefile._CACHE_ENVELOPE) is None
    loaded = load_cache(path)
    assert_same(loaded, oracle_of(text))
    assert save_cache(loaded, tmp_path / "again.json.gz").read_bytes() == path.read_bytes()


def test_every_value_and_error_kind_takes_the_reader(tmp_path):
    space = SPACES["str-bool-float"]
    cache = EvaluationCache("all", "GPU", space)
    for k, (value, error) in enumerate(zip(VALUES * 2, AWKWARD * 2)):
        cache.add(space.config_at(k * 7), value, valid=k % 3 != 0, error=error)
    assert {None, 16.0} <= {od["value"] for od in cache.to_dict()["observations"]}
    assert_reader_takes(cache, tmp_path / "all.json.gz")


# ------------------------------------------------------------------ mutated text


def edit(change):
    """A mutation that edits the payload's rows and renders it canonically."""
    def mutate(payload, text):
        change(payload["cache"]["observations"])
        return json.dumps(payload)
    return mutate


def respell(value, spelling):
    """A mutation that spells row 0's ``value`` (set to ``value``) another way."""
    def mutate(payload, text):
        payload["cache"]["observations"][0]["value"] = value
        text = json.dumps(payload)
        written = f'"value": {value!r}, "valid"'
        assert written in text
        return text.replace(written, f'"value": {spelling}, "valid"', 1)
    return mutate


def int_as_float(rows):
    config = rows[0]["config"]
    name = next((k for k, v in config.items() if type(v) is int), None)
    hypothesis.assume(name is not None)
    config[name] = float(config[name])


def extra_field(rows):
    rows[0]["extra"] = 1


def truncate_row(rows):
    del rows[-1]["benchmark"]


MUTATIONS = {
    "whitespace after a comma": lambda p, t: t.replace(', "valid": ', ',  "valid": ', 1),
    "whitespace in a row": lambda p, t: t.replace('"value": ', '"value":\n', 1),
    "newline before the rows": lambda p, t: t.replace('"observations": [',
                                                       '"observations": [\n', 1),
    "key order": edit(lambda rows: rows.__setitem__(0, dict(reversed(rows[0].items())))),
    "config key order": edit(lambda rows: rows[0].update(
        config=dict(reversed(rows[0]["config"].items())))),
    "1.0 for 1": edit(int_as_float),
    "NaN": edit(lambda rows: rows[0].update(value=math.nan, valid=True)),
    "Infinity": edit(lambda rows: rows[-1].update(value=math.inf)),
    "-Infinity": edit(lambda rows: rows[0].update(value=-math.inf)),
    "1.50": respell(1.5, "1.50"),
    "1e2": respell(100.0, "1e2"),
    "integer value": respell(3.0, "3"),
    "repeated config": edit(lambda rows: rows[-1].update(config=dict(rows[0]["config"]))),
    "foreign evaluation_index": edit(lambda rows: rows[-1].update(
        evaluation_index=rows[-1]["evaluation_index"] + 7)),
    "foreign gpu": edit(lambda rows: rows[-1].update(gpu="OTHER")),
    "foreign benchmark": edit(lambda rows: rows[0].update(benchmark="other")),
    "extra field": edit(extra_field),
    "truncated row": edit(truncate_row),
    "error escaped differently": lambda p, t: t.replace('"error": "', '"error": "\\u0020', 1),
}


@SETTINGS
@hypothesis.given(cache=hand_caches(min_rows=2), mutation=st.sampled_from(sorted(MUTATIONS)),
                  chunk=st.sampled_from(CHUNKS))
def test_mutated_text_loads_like_the_oracle(cache, mutation, chunk, tmp_path):
    text = cachefile._read_text(save_cache(cache, tmp_path / "canonical.json"))
    mutated = MUTATIONS[mutation](json.loads(text), text)
    hypothesis.assume(mutated != text)  # e.g. key order of a one-key config
    path = tmp_path / "mutated.json"
    path.write_text(mutated, encoding="utf-8")
    reference = oracle_of(mutated)
    with mock.patch.object(cache_module, "_JSON_READ_CHUNK_CHARS", chunk):
        loaded = load_cache(path)
    assert_same(loaded, reference)
    again = save_cache(loaded, tmp_path / "again.json").read_bytes()
    assert again == save_cache(reference, tmp_path / "oracle.json").read_bytes()


#: Canonical text respelled so that it parses to equal values but is not what
#: the writer writes: the reader must decline it (the per-row path loads it, as
#: the mutation test above checks).
RESPELLED = {
    "header whitespace": ('"gpu": ', '"gpu":  '),
    "error escaped differently": ('"error": "', '"error": "\\u0020'),
    "true spelled with whitespace": ('"valid": true', '"valid":  true'),
    "key order": ('"valid": true, "error": ""', '"error": "", "valid": true'),
    "1.0 for 1": ('"block_size_x": 16', '"block_size_x": 16.0'),
}


@pytest.mark.parametrize("case", sorted(RESPELLED))
def test_reader_declines_respelled_text(case, tmp_path):
    space = SPACES["str-bool-float"]
    cache = EvaluationCache("respelled", "GPU", space)
    for index in range(0, space.cardinality, 5):
        cache.add(space.config_at(index), 1.5 + index)
    text = cachefile._read_text(save_cache(cache, tmp_path / "canonical.json"))
    old, new = RESPELLED[case]
    assert old in text
    respelled = text.replace(old, new, 1)
    assert EvaluationCache.from_json_text(
        respelled, envelope=cachefile._CACHE_ENVELOPE) is None


def _cut(text, k):
    return text[:k] if k > 0 else text[:k - 1] + text[k:]


def _replace_last(text, old, new):
    at = text.rindex(old)
    return text[:at] + new + text[at + len(old):]


#: Edits that leave text that is not JSON.
NOT_JSON = {
    "cut after 1": lambda t: _cut(t, 1),
    "cut after 40": lambda t: _cut(t, 40),
    "character -3 dropped": lambda t: _cut(t, -3),
    "character -2 dropped": lambda t: _cut(t, -2),
    "character -1 dropped": lambda t: _cut(t, -1),
    "first value key dropped": lambda t: t.replace('"value": ', '"', 1),
    "last value key dropped": lambda t: _replace_last(t, '"value": ', '"'),
    "true misspelled": lambda t: t.replace('"valid": true', '"valid": tru', 1),
    "error unquoted": lambda t: t.replace('"error": "e"', '"error": e', 1),
}


@pytest.mark.parametrize("case", sorted(NOT_JSON))
def test_text_that_is_not_json_is_refused(case, tmp_path):
    space = SPACES["str-bool-float"]
    cache = EvaluationCache("cut", "GPU", space)
    for index in range(0, space.cardinality, 11):
        cache.add(space.config_at(index), 1.5 + index, error="e")
    text = cachefile._read_text(save_cache(cache, tmp_path / "whole.json"))
    broken = NOT_JSON[case](text)
    assert broken != text
    with pytest.raises(ValueError):
        json.loads(broken)
    path = tmp_path / "broken.json"
    path.write_text(broken, encoding="utf-8")
    with pytest.raises(SerializationError, match="broken.json"):
        load_cache(path)


def test_value_json_cannot_read_back_is_refused(tmp_path):
    # JSON writes the tuple (1, 2) as [1, 2] and reads back a list, which is no
    # value of the live space: the reader declines and the per-row path refuses
    # the row, naming it.
    space = SearchSpace([Parameter("shape", ((1, 2), (3, 4))), Parameter("n", (8, 16))],
                        name="tuples")
    cache = EvaluationCache("tuples", "GPU", space)
    for index in range(space.cardinality):
        cache.add(space.config_at(index), 1.0 + index)
    path = save_cache(cache, tmp_path / "tuples.json")
    assert EvaluationCache.from_json_text(cachefile._read_text(path), space=space,
                                          envelope=cachefile._CACHE_ENVELOPE) is None
    with pytest.raises(SerializationError, match="observation 0 "):
        load_cache(path, space=space)


# ------------------------------------------------------------- streamed reads


#: Read and piece sizes in bytes: every byte its own piece, and a few odd
#: sizes, so that pieces end inside the header, the observations opener, a
#: row cut, a UTF-8 sequence, a gzip header or trailer and the footer.
PIECES = (1, 2, 3, 7, 64)


def load_streamed(path, piece, chunk=40, takes_reader=True):
    """``load_cache(path)`` read in ``piece``-byte pieces and ``chunk``-character
    row chunks; with ``takes_reader`` the per-row fallback must not run."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(cachefile, "_PIECE_BYTES", piece))
        stack.enter_context(mock.patch.object(cache_module, "_JSON_READ_CHUNK_CHARS", chunk))
        if takes_reader:
            stack.enter_context(mock.patch.object(
                EvaluationCache, "from_dict",
                side_effect=AssertionError("fell back to from_dict")))
        return load_cache(path)


def unicode_cache():
    space = SearchSpace([Parameter("mode", ("é", "€", "𝄞", "a€é𝄞")),
                         Parameter("n", (1, 2, 3))], name="ünï")
    cache = EvaluationCache("b€nch", "GPU é", space)
    for index in range(space.cardinality):
        cache.add(space.config_at(index), 1.5 + index, valid=index % 3 != 1,
                  error=("é", "€", "𝄞 astral")[index % 3])
    return cache


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
def test_non_ascii_export_read_in_small_pieces_takes_the_reader(piece, suffix, tmp_path):
    # The writer escapes non-ASCII text (json.dumps' ensure_ascii), so the
    # escapes of "é", "€" and an astral character straddle pieces and chunks.
    path = save_cache(unicode_cache(), tmp_path / f"unicode{suffix}")
    text = cachefile._read_text(path)
    loaded = load_streamed(path, piece)
    assert_same(loaded, oracle_of(text))
    assert save_cache(loaded, tmp_path / f"again{suffix}").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
def test_utf8_straddling_reads_decodes(piece, suffix, tmp_path):
    # Unescaped UTF-8 (1-4 bytes a character) split between reads decodes
    # whole; it is not the writer's text, so the per-row path loads it.
    text = json.dumps({"format_version": 1, "cache": unicode_cache().to_dict()},
                      ensure_ascii=False)
    data = text.encode()
    assert {len(c.encode()) for c in text} == {1, 2, 3, 4}
    path = tmp_path / f"utf8{suffix}"
    path.write_bytes(gzip.compress(data, mtime=0) if suffix.endswith(".gz") else data)
    with mock.patch.object(cachefile, "_PIECE_BYTES", piece):
        assert cachefile._read_text(path) == text
    assert_same(load_streamed(path, piece, takes_reader=False), oracle_of(text))


@SETTINGS
@hypothesis.given(cache=hand_caches(min_rows=1), at=st.floats(0, 1),
                  padding=st.sampled_from((0, 1, 9)), piece=st.sampled_from(PIECES),
                  chunk=st.sampled_from(CHUNKS))
def test_export_split_into_gzip_members_takes_the_reader(cache, at, padding, piece,
                                                         chunk, tmp_path):
    # gzip.decompress reads every member of a stream and skips NUL padding
    # between members; so does the streamed read, at any split byte.
    data = json.dumps({"format_version": 1, "cache": cache.to_dict()}).encode()
    k = int(at * len(data))
    path = tmp_path / "members.json.gz"
    path.write_bytes(gzip.compress(data[:k], mtime=0) + b"\0" * padding
                     + gzip.compress(data[k:], mtime=0) + b"\0" * padding)
    assert gzip.decompress(path.read_bytes()) == data
    assert_same(load_streamed(path, piece, chunk), oracle_of(data.decode()))


def gzip_export(tmp_path):
    return save_cache(unicode_cache(), tmp_path / "export.json.gz")


@pytest.mark.parametrize("byte", range(-8, 0))
@pytest.mark.parametrize("piece", (1, 7, 1 << 14))
def test_damaged_gzip_trailer_is_refused(byte, piece, tmp_path):
    # The last eight bytes of a member are the CRC-32 and the length of its text.
    path = gzip_export(tmp_path)
    data = bytearray(path.read_bytes())
    data[byte] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(SerializationError, match=re.escape(str(path))) as info:
        load_streamed(path, piece, takes_reader=False)
    assert isinstance(info.value.__cause__, zlib.error)


@pytest.mark.parametrize("trailing", [b"x", b"\x1f", b"\x1f\x8b", b"\0\0junk",
                                      b"PK\x03\x04"])
@pytest.mark.parametrize("piece", (1, 7, 1 << 14))
def test_bytes_after_the_gzip_member_are_refused(trailing, piece, tmp_path):
    path = gzip_export(tmp_path)
    path.write_bytes(path.read_bytes() + trailing)
    with pytest.raises(SerializationError, match=re.escape(str(path))):
        load_streamed(path, piece, takes_reader=False)


@pytest.mark.parametrize("piece", (1, 7, 1 << 14))
@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
def test_text_ending_inside_a_utf8_sequence_is_refused(piece, suffix, tmp_path):
    # What parses as JSON before the cut is no excuse: the last bytes are not UTF-8.
    data = b'{"format_version": 1, "cache": {}}' + "€".encode()[:2]
    path = tmp_path / f"cut{suffix}"
    path.write_bytes(gzip.compress(data, mtime=0) if suffix.endswith(".gz") else data)
    with pytest.raises(SerializationError, match=re.escape(str(path))) as info:
        load_streamed(path, piece, takes_reader=False)
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


@pytest.mark.parametrize("piece", (1, 7, 1 << 14))
@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
def test_foreign_last_row_falls_back_and_closes_the_file(piece, suffix, tmp_path):
    # The reader reads every row before it meets the foreign one, returns None,
    # and its pieces are closed (the file with them) before the whole re-read.
    cache = unicode_cache()
    payload = {"format_version": 1, "cache": cache.to_dict()}
    payload["cache"]["observations"][-1]["gpu"] = "OTHER"
    path = tmp_path / f"foreign{suffix}"
    cachefile.atomic_write_json(payload, path)
    text_pieces, opened = cachefile._text_pieces, []

    def spy(path):
        opened.append(pieces := text_pieces(path))
        return pieces

    with mock.patch.object(cachefile, "_text_pieces", spy):
        loaded = load_streamed(path, piece, takes_reader=False)
    assert_same(loaded, oracle_of(json.dumps(payload)))
    assert len(opened) == 2 and all(
        inspect.getgeneratorstate(g) == inspect.GEN_CLOSED for g in opened)


def split(text, cuts):
    bounds = sorted({round(c * len(text)) for c in cuts} | {0, len(text)})
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


#: Text the reader must read the same whole or in pieces: canonical rows, a
#: broken footer or header and trailing text.
ENDINGS = {
    "canonical": lambda t: t,
    "footer cut": lambda t: t[:-1],
    "footer doubled": lambda t: t + "]}",
    "footer misspelled": lambda t: t[:-2] + "]}",
    "text after the footer": lambda t: t + ', {"config": {"x',
    "no rows or footer": lambda t: t[:t.index('"observations": [') + 18],
    "header respelled": lambda t: t.replace('"gpu": ', '"gpu":  ', 1),
}


@SETTINGS
@hypothesis.given(cache=hand_caches(), ending=st.sampled_from(sorted(ENDINGS)),
                  cuts=st.lists(st.floats(0, 1), max_size=12),
                  chunk=st.sampled_from(CHUNKS))
def test_pieces_read_like_the_whole_text(cache, ending, cuts, chunk, tmp_path):
    text = ENDINGS[ending](cachefile._read_text(save_cache(cache, tmp_path / "c.json")))
    with mock.patch.object(cache_module, "_JSON_READ_CHUNK_CHARS", chunk):
        whole = EvaluationCache.from_json_text(text, envelope=cachefile._CACHE_ENVELOPE)
        streamed = EvaluationCache.from_json_text(iter(split(text, cuts)),
                                                  envelope=cachefile._CACHE_ENVELOPE)
    assert (whole is None) == (streamed is None) == (ending != "canonical")
    if whole is not None:
        assert_same(streamed, whole)
