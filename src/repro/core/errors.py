"""Exception hierarchy for the benchmarking suite.

All exceptions raised by the library derive from :class:`ReproError`, so callers can
catch a single base class at API boundaries.  The hierarchy distinguishes the three
failure modes a kernel tuner actually encounters in the wild:

* a configuration that is *malformed* (unknown parameter, value outside the allowed
  list) -- :class:`InvalidConfigurationError`;
* a configuration that is well-formed but *cannot be launched* on the target device
  (exceeds a hardware resource limit) -- :class:`ResourceLimitError`; a constraint
  violation is not raised but recorded as an invalid observation;
* a failure of the tuning machinery itself (budget exhausted, empty search space,
  missing cache entry) -- the remaining classes.

The campaign-execution layer (:mod:`repro.exec`) adds a fourth family: *execution*
failures, split into **transient** (a retry is expected to succeed: a crashed worker
process, a hung shard, a flaky transport) and **permanent** (retrying is pointless:
a bug in evaluation code, an unresolvable benchmark).  :func:`is_transient` is the
single classification point the retry machinery consults -- third-party exceptions
can opt in by exposing a truthy ``transient`` attribute.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class InvalidConfigurationError(ReproError):
    """A configuration references unknown parameters or disallowed values."""


class ResourceLimitError(ReproError):
    """A configuration exceeds a hardware resource limit on the target GPU.

    Mirrors a CUDA launch failure (too many threads per block, too much shared memory
    or register pressure).  The simulated runner converts this into an invalid
    :class:`~repro.core.result.Observation` rather than aborting the tuning run, just
    like real tuners do.
    """

    def __init__(self, message: str, resource: str = ""):
        super().__init__(message)
        self.resource = resource


class BudgetExhaustedError(ReproError):
    """Raised when a tuner requests more evaluations than the budget allows."""


class EmptySearchSpaceError(ReproError):
    """Raised when a search space contains no valid configurations."""


class CacheMissError(ReproError):
    """Raised when a cache lookup for a configuration fails in strict mode."""


class SerializationError(ReproError):
    """Raised when a cache or result file cannot be read or written."""


class ExecutionError(ReproError):
    """A failure of the campaign-execution layer (worker, shard or transport).

    Base of the transient-vs-permanent taxonomy; an ``ExecutionError`` that is not
    a :class:`TransientExecutionError` is treated as permanent -- retrying cannot
    help, so a retry-enabled executor quarantines the shard immediately.
    """


class TransientExecutionError(ExecutionError):
    """An execution failure that a retry is expected to survive.

    Shard evaluation is a pure function of ``(benchmark, GPU, indices)``, so
    re-running a shard after a transient failure reproduces exactly the rows the
    failed attempt would have produced -- which is why retries never threaten the
    byte-identical-merge contract.
    """


class WorkerCrashError(TransientExecutionError):
    """A worker process died (non-zero exit, signal, lost pipe) mid-shard.

    Transient by classification: the dominant causes in a real fleet (OOM kill,
    node reboot, spot preemption) are not properties of the shard itself.  A shard
    that *reliably* crashes its worker is a poison shard -- repeated crash attempts
    exhaust the retry budget and quarantine it.
    """

    def __init__(self, message: str, exit_code: int | None = None):
        super().__init__(message)
        self.exit_code = exit_code


class ShardTimeoutError(TransientExecutionError):
    """A shard exceeded its wall-clock timeout (hung or pathologically slow worker)."""

    def __init__(self, message: str, timeout: float | None = None):
        super().__init__(message)
        self.timeout = timeout


class FragmentIntegrityError(SerializationError):
    """A checkpoint fragment is corrupt: truncated, bit-flipped or checksum-stale.

    Subclasses :class:`SerializationError` so existing strict readers keep failing
    loudly; the executors additionally catch it on resume and *heal* -- the damaged
    fragment is discarded and its shard re-executed.
    """


def is_transient(error: BaseException) -> bool:
    """Classify an exception under the transient-vs-permanent execution taxonomy.

    :class:`TransientExecutionError` (and subclasses) are transient; any other
    exception may opt in with a truthy ``transient`` attribute; everything else --
    including ordinary bugs like ``ValueError`` -- is permanent.
    """
    if isinstance(error, TransientExecutionError):
        return True
    return bool(getattr(error, "transient", False))
