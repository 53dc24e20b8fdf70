"""Deterministic measurement noise.

Real kernel timings jitter run to run (clock boost behaviour, DRAM refresh, other
tenants of the machine).  The suite reproduces that with a *deterministic* noise model:
the multiplicative perturbation applied to a configuration's modelled runtime is a pure
function of (device, benchmark, configuration), derived from a stable hash.
Determinism matters because the analyses compare caches across architectures and
because tests must be reproducible bit-for-bit.

The noise is *configuration noise* (default ~1.5% lognormal): persistent,
per-configuration model error -- the analytical model never captures every
microarchitectural effect, and this keeps the performance landscape realistically
rugged (important for the fitness-flow-graph / centrality analysis, which counts
local minima).

Batches are hashed through *configuration keys*: the UTF-8 bytes :func:`stable_hash`
renders a configuration mapping into.  :func:`config_keys` renders a whole digit
matrix from per-value fragments, and :func:`keyed_hashes` feeds each key to a copy of
a hash state that already holds the common prefix -- the same bytes, hashed once per
row instead of re-rendered per part.
"""

from __future__ import annotations

import hashlib
import math
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
    return np.frombuffer(b"".join(digests), "<u8").tolist()


def _uniforms(hashes: np.ndarray) -> np.ndarray:
    """Map 64-bit hashes to uniform floats in (0, 1): the low 53 bits scaled by
    ``2**-53``, with 0 mapped to ``0.5 * 2**-53``."""
    u = (hashes & np.uint64(2**53 - 1)).astype(np.float64) * 2.0**-53
    u[u == 0.0] = 0.5 * 2.0**-53
    return u


def lognormal_factors(seed_hashes: Sequence[int] | np.ndarray, sigma: float) -> np.ndarray:
    """Deterministic lognormal(0, sigma) multiplicative factors, one per hash.

    Uses the Box-Muller transform on two uniforms derived from each hash, so the
    factors' distribution matches ``exp(N(0, sigma))`` over the space of inputs.  The
    second uniform comes from ``stable_hash(seed_hash, "second")``.  The
    transcendentals run in scalar :mod:`math` per hash (NumPy's ``log``/``cos``/
    ``exp`` round differently on a fraction of inputs); ``sqrt`` and the products,
    which IEEE arithmetic rounds alike either way, run in NumPy in the scalar
    formula's order.
    """
    hashes = np.asarray(seed_hashes, dtype=np.uint64)
    n = hashes.size
    if sigma <= 0:
        return np.ones(n)
    copy = hashlib.blake2b(digest_size=8).copy
    seconds = []
    for seed_hash in hashes.tolist():
        h = copy()
        h.update(b"%d\x1f'second'\x1f" % seed_hash)
        seconds.append(h.digest())
    u1 = _uniforms(hashes)
    u2 = _uniforms(np.frombuffer(b"".join(seconds), "<u8"))
    log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, n)
    cos_u2 = np.fromiter(map(math.cos, ((2.0 * math.pi) * u2).tolist()), np.float64, n)
    z = np.sqrt(-2.0 * log_u1) * cos_u2
    return np.fromiter(map(math.exp, (sigma * z).tolist()), np.float64, n)


def lognormal_factor(seed_hash: int, sigma: float) -> float:
    """A deterministic lognormal(0, sigma) multiplicative factor from a hash."""
    return float(lognormal_factors((seed_hash,), sigma)[0])


def config_noise(gpu_name: str, benchmark: str, config: Mapping[str, Any],
                 sigma: float = 0.015) -> float:
    """Persistent multiplicative model-error factor for one configuration."""
    return lognormal_factor(stable_hash("config", gpu_name, benchmark, config), sigma)

