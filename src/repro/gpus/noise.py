"""Deterministic measurement noise.

Real kernel timings jitter run to run (clock boost behaviour, DRAM refresh, other
tenants of the machine).  The suite reproduces that with a *deterministic* noise model:
the multiplicative perturbation applied to a configuration's modelled runtime is a pure
function of (device, benchmark, configuration, repetition), derived from a stable hash.
Determinism matters because the analyses compare caches across architectures and
because tests must be reproducible bit-for-bit.

Two kinds of noise are provided:

* *configuration noise* (default ~1.5% lognormal): persistent, per-configuration model
  error -- the analytical model never captures every microarchitectural effect, and
  this keeps the performance landscape realistically rugged (important for the
  fitness-flow-graph / centrality analysis, which counts local minima);
* *measurement jitter* (default ~0.3% lognormal): per-repetition timing noise, applied
  when a caller asks for repeated observations of the same configuration.

Batches are hashed through *configuration keys*: the UTF-8 bytes :func:`stable_hash`
renders a configuration mapping into.  :func:`config_keys` renders a whole digit
matrix from per-value fragments, and :func:`keyed_hashes` feeds each key to a copy of
a hash state that already holds the common prefix -- the same bytes, hashed once per
row instead of re-rendered per part.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "stable_hash",
    "config_key",
    "config_keys",
    "keyed_hashes",
    "lognormal_factor",
    "lognormal_factors",
    "config_noise",
    "measurement_jitter",
]

_SEPARATOR = b"\x1f"


def _render(part: Any) -> bytes:
    """The bytes :func:`stable_hash` feeds for one part (before the separator)."""
    if isinstance(part, Mapping):
        return config_key(part)
    return repr(part).encode("utf-8")


def stable_hash(*parts: Any) -> int:
    """A 64-bit hash of the given parts that is stable across processes and runs.

    Python's built-in ``hash`` is salted per process, so it cannot be used for
    reproducible noise.  Configurations are rendered as sorted ``key=value`` strings.
    """
    *prefix, last = parts
    return keyed_hashes(prefix, (_render(last),))[0]


def config_key(config: Mapping[str, Any]) -> bytes:
    """The key of one configuration mapping: its sorted ``key=value`` rendering."""
    return ",".join(f"{k}={config[k]}" for k in sorted(config)).encode("utf-8")


def config_keys(parameters: Sequence[Any], digits: np.ndarray) -> list[bytes]:
    """Keys of the configurations in a digit matrix (``digits[:, j]`` indexes
    ``parameters[j].values``); ``config_key(config)`` of each row's mapping."""
    fragments = []
    for j in sorted(range(len(parameters)), key=lambda j: parameters[j].name):
        p = parameters[j]
        table = np.array([f"{p.name}={v}".encode("utf-8") for v in p.values],
                         dtype=object)
        fragments.append(table[digits[:, j]].tolist())
    return [b",".join(row) for row in zip(*fragments)]


def keyed_hashes(prefix: Sequence[Any], keys: Iterable[bytes]) -> list[int]:
    """``stable_hash(*prefix, config)`` for the configuration behind each key.

    The prefix is hashed once; each key is fed to a copy of that state.
    """
    state = hashlib.blake2b(digest_size=8)
    for part in prefix:
        state.update(_render(part))
        state.update(_SEPARATOR)
    copy = state.copy
    digests = []
    for key in keys:
        h = copy()
        h.update(key)
        h.update(_SEPARATOR)
        digests.append(h.digest())
    return list(struct.unpack(f"<{len(digests)}Q", b"".join(digests)))


def _uniform_from_hash(value: int) -> float:
    """Map a 64-bit hash to a uniform float in (0, 1)."""
    return (value % (2**53)) / float(2**53) or 0.5 / float(2**53)


def lognormal_factors(seed_hashes: Iterable[int], sigma: float) -> list[float]:
    """Deterministic lognormal(0, sigma) multiplicative factors, one per hash.

    Uses the Box-Muller transform on two uniforms derived from each hash, so the
    factors' distribution matches ``exp(N(0, sigma))`` over the space of inputs.  The
    transcendentals run in scalar :mod:`math` per hash: NumPy's ``log``/``cos``/``exp``
    round differently on a fraction of inputs.
    """
    if sigma <= 0:
        return [1.0 for _ in seed_hashes]
    blake2b = hashlib.blake2b
    out = []
    for seed_hash in seed_hashes:
        u1 = _uniform_from_hash(seed_hash)
        # stable_hash(seed_hash, "second"), rendered in one update.
        second = blake2b(b"%d\x1f'second'\x1f" % seed_hash, digest_size=8).digest()
        u2 = _uniform_from_hash(struct.unpack("<Q", second)[0])
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        out.append(math.exp(sigma * z))
    return out


def lognormal_factor(seed_hash: int, sigma: float) -> float:
    """A deterministic lognormal(0, sigma) multiplicative factor from a hash."""
    return lognormal_factors((seed_hash,), sigma)[0]


def config_noise(gpu_name: str, benchmark: str, config: Mapping[str, Any],
                 sigma: float = 0.015) -> float:
    """Persistent multiplicative model-error factor for one configuration."""
    return lognormal_factor(stable_hash("config", gpu_name, benchmark, config), sigma)


def measurement_jitter(gpu_name: str, benchmark: str, config: Mapping[str, Any],
                       repetition: int, sigma: float = 0.003) -> float:
    """Per-repetition multiplicative timing jitter."""
    return lognormal_factor(
        stable_hash("jitter", gpu_name, benchmark, config, repetition), sigma)
