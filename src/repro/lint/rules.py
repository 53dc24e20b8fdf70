"""The contract rules: each ROADMAP standing contract as an AST check.

Every rule is a small class with a ``code`` (``RPL###``), the ROADMAP contract it
enforces, an optional module ``scope`` (dotted prefixes the rule applies to -- rules
without a scope run everywhere), an optional module ``allowlist`` (dotted prefixes
exempted *by design*, each with a recorded reason), and a ``check`` method yielding
``(line, col, message)`` violations for one parsed module.

Rules are registered in :data:`RULES` in code order; :func:`rules_for_module` applies
scope and allowlist filtering.  The registry is deliberately open -- a new contract
earns a new ``RPL###`` class here plus good/bad fixtures in ``tests/test_lint.py``.

Static analysis is conservative by construction: these checks flag the *sanctioned
form* being bypassed (a ``random.random()`` call, a bare ``open(path, "w")``), not
every conceivable leak.  Anything flagged that is genuinely fine carries an inline
``# repro: allow[RPL###] reason`` annotation -- the point is that the exception is
written down next to the code, reviewed, and re-surfaced the moment the line changes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

__all__ = ["LintContext", "Rule", "RULES", "rules_for_module"]

Violation = tuple[int, int, str]


@dataclass(frozen=True)
class LintContext:
    """Everything a rule may consult about the module under analysis."""

    path: str          # root-relative POSIX path
    module: str        # dotted module name ("" when not under a repro package)
    source: str
    lines: tuple[str, ...]


class Rule:
    """Base class: subclasses define ``code``/``name``/``contract`` and ``check``."""

    code: str = ""
    name: str = ""
    #: One-line pointer to the ROADMAP standing contract this rule enforces.
    contract: str = ""
    #: Dotted module prefixes the rule is limited to (None = every module).
    scope: tuple[str, ...] | None = None
    #: Dotted module prefixes exempted by design, each with its recorded reason.
    allowlist: dict[str, str] = {}

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        raise NotImplementedError

    @classmethod
    def applies_to(cls, module: str) -> bool:
        if cls.scope is not None and not _under(module, cls.scope):
            return False
        if cls.allowlist and _under(module, tuple(cls.allowlist)):
            return False
        return True


def _under(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# --------------------------------------------------------------------------- RPL001


class NoGlobalRandomness(Rule):
    """RPL001: no process-global RNG state -- determinism is per-seed, not per-run.

    The byte-identical-trajectory and serial/parallel-identity contracts rest on
    every random draw coming from an explicitly seeded stream: ``np.random.Generator``
    instances, ``random.Random(seed)`` instances, or the keyed blake2b hashes of
    :func:`repro.exec.retry.unit_uniform`.  The module-level ``random.*`` functions,
    the legacy ``np.random.*`` API, ``uuid.uuid4`` and ``os.urandom`` all read hidden
    global (or OS) entropy, so one call anywhere in a worker path silently breaks
    identity fleet-wide.  ``import random`` itself is flagged: even a module that only
    constructs seeded ``random.Random`` instances must say so in an annotation, so the
    global-state functions never drift in unnoticed.
    """

    code = "RPL001"
    name = "no-global-rng"
    contract = "Byte-identical trajectories / serial-parallel-resume identity"

    #: random module attributes that do NOT touch the global Mersenne state.
    _RANDOM_OK = frozenset({"Random", "SystemRandom"})
    #: np.random attributes that are part of the sanctioned Generator API.
    _NP_RANDOM_OK = frozenset({
        "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
        "PCG64DXSM", "MT19937", "Philox", "SFC64", "RandomState",
    })
    _ENTROPY_CALLS = frozenset({"uuid.uuid1", "uuid.uuid4", "os.urandom",
                                "secrets.token_bytes", "secrets.token_hex",
                                "secrets.token_urlsafe", "secrets.randbelow",
                                "secrets.choice"})

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield (node.lineno, node.col_offset,
                               "'import random' exposes the process-global RNG; "
                               "use a seeded np.random.Generator or keyed hashes "
                               "(repro.exec.retry.unit_uniform), or annotate why "
                               "only seeded random.Random instances are built")
                    elif alias.name == "secrets":
                        yield (node.lineno, node.col_offset,
                               "'import secrets' draws OS entropy, which can never "
                               "be reproduced from a seed")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [a.name for a in node.names if a.name not in self._RANDOM_OK]
                if bad:
                    yield (node.lineno, node.col_offset,
                           f"importing {', '.join(sorted(bad))} from random binds "
                           f"process-global RNG state; seed an explicit "
                           f"random.Random/np.random.Generator instead")
            elif isinstance(node, ast.Call):
                yield from self._check_call(node)

    def _check_call(self, node: ast.Call) -> Iterator[Violation]:
        dotted = _dotted(node.func)
        if not dotted:
            return
        head, _, tail = dotted.partition(".")
        if head == "random" and tail and tail not in self._RANDOM_OK:
            yield (node.lineno, node.col_offset,
                   f"random.{tail}() draws from the process-global RNG; use a "
                   f"seeded random.Random / np.random.Generator stream")
        elif dotted in self._ENTROPY_CALLS:
            yield (node.lineno, node.col_offset,
                   f"{dotted}() reads OS entropy and cannot be replayed from a "
                   f"seed; derive identifiers from keyed hashes instead")
        elif dotted in ("uuid4", "uuid1", "urandom"):
            yield (node.lineno, node.col_offset,
                   f"{dotted}() reads OS entropy and cannot be replayed from a seed")
        else:
            parts = dotted.split(".")
            if (len(parts) >= 3 and parts[-2] == "random"
                    and parts[0] in ("np", "numpy")
                    and parts[-1] not in self._NP_RANDOM_OK):
                yield (node.lineno, node.col_offset,
                       f"{dotted}() uses the legacy global np.random API; use "
                       f"np.random.default_rng(seed) / a passed-in Generator")


# --------------------------------------------------------------------------- RPL002


class NoWallClockValues(Rule):
    """RPL002: no clock reads feeding values that can reach fragments or caches.

    Merged caches, fragments and trajectories must be pure functions of
    ``(benchmark, GPU, seed)``; a timestamp mixed into any persisted value breaks
    resume-vs-uninterrupted byte identity in a way no test notices until the bytes
    differ.  Clock reads are therefore confined to the allowlisted progress/ETA
    reporter (display only); everywhere else a clock read is flagged, including
    the monotonic timers -- "it's only for scheduling" is exactly the claim an
    annotation or baseline entry should record.  (The executor's deadline/backoff
    reads are grandfathered in the committed baseline with that rationale; the
    chaos suite backs the claim by asserting merged bytes under every timing.)
    """

    code = "RPL002"
    name = "no-wall-clock"
    contract = "Serial/parallel/resume identity (deterministic cache bytes)"
    allowlist = {
        "repro.exec.progress":
            "display-only ETA/rate reporting; values never reach fragments",
    }

    _CLOCK_CALLS = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.localtime",
        "time.gmtime", "time.ctime", "time.strftime",
        "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        call_funcs = {id(node.func) for node in ast.walk(tree)
                      if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            dotted = ""
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
            elif isinstance(node, ast.Attribute) and id(node) not in call_funcs:
                # Bare references (e.g. a clock default argument) count too; the
                # call_funcs exclusion keeps a called clock from reporting twice.
                dotted = _dotted(node)
            if dotted in self._CLOCK_CALLS:
                yield (node.lineno, node.col_offset,
                       f"{dotted} reads the clock; deterministic paths must not "
                       f"let timing feed values that reach fragments/caches "
                       f"(progress/ETA display lives in repro.exec.progress)")


# --------------------------------------------------------------------------- RPL003


class AtomicWritesOnly(Rule):
    """RPL003: persistence modules must write through the atomic helpers.

    ``repro.io`` and ``repro.exec`` promise that readers never observe a torn file:
    every write lands in a temporary sibling and is moved into place with
    ``os.replace`` (``atomic_write_chunks`` and its ``atomic_write_json`` /
    ``write_columnar`` callers).  A bare ``open(path, "w")`` -- or
    ``Path.write_text``, or a writable ``os.open`` -- reintroduces exactly the
    torn-file window the checkpoint/resume machinery was built to close, so inside
    these packages it is flagged at the call site, also when the open function is
    called through a name bound to it (``opener = gzip.open if gz else open``).
    The helper implementation itself carries an annotation: it *is* the
    sanctioned form.
    """

    code = "RPL003"
    name = "atomic-writes-only"
    contract = "Atomic checkpoint fragments / deterministic cache bytes"
    scope = ("repro.io", "repro.exec")

    _OPEN_FUNCS = frozenset({"open", "io.open", "gzip.open", "bz2.open",
                             "lzma.open"})
    _WRITE_FLAGS = frozenset({"O_WRONLY", "O_RDWR", "O_APPEND", "O_TRUNC",
                              "O_CREAT"})

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        alias_calls = self._alias_calls(tree, frozenset())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in self._OPEN_FUNCS or id(node) in alias_calls:
                mode = self._mode_argument(node)
                if mode is None:
                    continue  # no mode argument: read-only "r" default
                if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
                    yield (node.lineno, node.col_offset,
                           f"{dotted}() with a non-literal mode cannot be verified "
                           f"read-only; pass a literal mode or use the atomic "
                           f"write helpers")
                elif any(flag in mode.value for flag in "wax+"):
                    yield (node.lineno, node.col_offset,
                           f"{dotted}(..., {mode.value!r}) writes in place; "
                           f"torn files break the checkpoint contract -- go "
                           f"through atomic_write_json/write_columnar")
            elif dotted == "os.open":
                flags = {name for arg in node.args for name in _flag_names(arg)}
                if flags & self._WRITE_FLAGS:
                    yield (node.lineno, node.col_offset,
                           f"os.open with {sorted(flags & self._WRITE_FLAGS)} "
                           f"opens for writing; use the atomic write helpers")
            elif (isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("write_text", "write_bytes")):
                yield (node.lineno, node.col_offset,
                       f".{node.func.attr}() writes in place; torn files break "
                       f"the checkpoint contract -- go through the atomic "
                       f"write helpers")

    def _alias_calls(self, scope: ast.AST, inherited: frozenset[str]) -> set[int]:
        """Ids of the calls through a name bound to an open function in their own
        scope or an enclosing one (flow-insensitive: one such binding suffices)."""
        own: list[ast.AST] = []
        nested: list[ast.AST] = []
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested.append(node)
            else:
                own.append(node)
                stack.extend(ast.iter_child_nodes(node))
        aliases = inherited | {
            target.id for node in own
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and node.value is not None and self._names_open(node.value)
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name)}
        calls = {id(node) for node in own if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id in aliases}
        for node in nested:
            calls |= self._alias_calls(node, aliases)
        return calls

    def _names_open(self, value: ast.expr) -> bool:
        """True when ``value`` evaluates to an open function (a conditional
        ``gzip.open if ... else open`` or ``or`` chain counts when any branch is)."""
        if isinstance(value, ast.IfExp):
            return self._names_open(value.body) or self._names_open(value.orelse)
        if isinstance(value, ast.BoolOp):
            return any(map(self._names_open, value.values))
        return _dotted(value) in self._OPEN_FUNCS

    @staticmethod
    def _mode_argument(node: ast.Call) -> ast.expr | None:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                return keyword.value
        if len(node.args) >= 2:
            return node.args[1]
        return None


def _flag_names(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.Name):
            yield child.id


# --------------------------------------------------------------------------- RPL004


class ExecErrorTaxonomy(Rule):
    """RPL004: ``repro.exec`` speaks the transient/permanent error taxonomy.

    Retry, quarantine and heal-on-resume all route through
    :func:`repro.core.errors.is_transient`; an anonymous ``raise Exception(...)``
    is unclassifiable (silently treated as permanent), and an
    ``except Exception: pass`` swallows the very signals the taxonomy exists to
    route.  Flagged: raising bare ``Exception``/``BaseException``, bare
    ``except:`` clauses, and ``except Exception`` handlers whose body is only
    ``pass``/``...``.
    """

    code = "RPL004"
    name = "exec-error-taxonomy"
    contract = "Transient/permanent error taxonomy (retry & quarantine routing)"
    scope = ("repro.exec",)

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                target = node.exc
                if isinstance(target, ast.Call):
                    target = target.func
                name = _dotted(target) if target is not None else ""
                if name in ("Exception", "BaseException"):
                    yield (node.lineno, node.col_offset,
                           f"raise {name} is unclassifiable under the "
                           f"transient/permanent taxonomy; raise a "
                           f"repro.core.errors class (ExecutionError, "
                           f"TransientExecutionError, ...)")
            elif isinstance(node, ast.ExceptHandler):
                name = _dotted(node.type) if node.type is not None else ""
                if node.type is None:
                    yield (node.lineno, node.col_offset,
                           "bare 'except:' swallows taxonomy signals (including "
                           "KeyboardInterrupt); catch repro.core.errors classes "
                           "or 'except Exception' with explicit handling")
                elif (name in ("Exception", "BaseException")
                      and all(isinstance(stmt, ast.Pass)
                              or (isinstance(stmt, ast.Expr)
                                  and isinstance(stmt.value, ast.Constant)
                                  and stmt.value.value is Ellipsis)
                              for stmt in node.body)):
                    yield (node.lineno, node.col_offset,
                           f"'except {name}: pass' silently swallows failures "
                           f"the retry/quarantine machinery must see; handle, "
                           f"re-raise, or annotate why discarding is safe")


# --------------------------------------------------------------------------- RPL006


class SerializableSpecKwargs(Rule):
    """RPL006: benchmark registrations travel as JSON -- keep them rebuildable.

    Workers (and, eventually, remote hosts) rebuild every benchmark from its
    :class:`~repro.core.registry.BenchmarkSpec` alone: a ``"module:factory"`` string
    plus JSON-serializable kwargs.  A lambda factory or a kwarg that JSON cannot
    carry (bytes, sets, complex numbers, function references) registers fine in the
    parent and then explodes -- or worse, diverges -- in the worker.  Flagged at the
    registration call site: lambda factories, and keyword/kwargs-dict values that
    are *definitely* not JSON-serializable.  (Dynamic values by name are accepted;
    the runtime canonicalization still guards those.)
    """

    code = "RPL006"
    name = "serializable-spec-kwargs"
    contract = "Benchmark specs are pure constructors (worker rebuild contract)"

    _REGISTRATION_FUNCS = frozenset({"register_benchmark", "temporary_benchmark",
                                     "BenchmarkSpec"})
    _CONTROL_KWARGS = frozenset({"overwrite", "validate"})

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func).rpartition(".")[2]
            if name not in self._REGISTRATION_FUNCS:
                continue
            factory_index = 0 if name == "BenchmarkSpec" else 1
            if len(node.args) > factory_index:
                factory = node.args[factory_index]
                if isinstance(factory, ast.Lambda):
                    yield (factory.lineno, factory.col_offset,
                           f"{name}() factory is a lambda; workers rebuild "
                           f"benchmarks from 'module:factory' import paths, which "
                           f"a lambda can never provide")
            values: list[tuple[str, ast.expr]] = []
            for keyword in node.keywords:
                if keyword.arg is None or keyword.arg in self._CONTROL_KWARGS:
                    continue
                values.append((keyword.arg, keyword.value))
            if name == "BenchmarkSpec" and len(node.args) > 1:
                kwargs_arg = node.args[1]
                if isinstance(kwargs_arg, ast.Dict):
                    for key, value in zip(kwargs_arg.keys, kwargs_arg.values):
                        label = (repr(key.value)
                                 if isinstance(key, ast.Constant) else "<kwargs>")
                        values.append((label, value))
            for label, value in values:
                reason = _json_hostile(value)
                if reason is not None:
                    yield (value.lineno, value.col_offset,
                           f"{name}() kwarg {label} is {reason}, which JSON "
                           f"cannot carry through plan manifests and worker "
                           f"initializers")


def _json_hostile(node: ast.expr) -> str | None:
    """A description of why ``node`` can never survive a JSON round trip, or None.

    Conservative: only shapes that are *certainly* unserializable are reported;
    names, calls and comprehensions are left to the runtime canonicalization.
    """
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bytes):
            return "a bytes literal"
        if isinstance(node.value, complex):
            return "a complex literal"
        if node.value is Ellipsis:
            return "Ellipsis"
    if isinstance(node, (ast.List, ast.Tuple)):
        for element in node.elts:
            reason = _json_hostile(element)
            if reason is not None:
                return reason
    if isinstance(node, ast.Dict):
        for value in node.values:
            if value is not None:
                reason = _json_hostile(value)
                if reason is not None:
                    return reason
    return None


# --------------------------------------------------------------------------- RPL008


class NoNumpyTranscendentals(Rule):
    """RPL008: the analytical model's transcendentals run in scalar ``math``.

    Every campaign cache row is one row of the column model in ``repro.gpus`` and
    ``repro.kernels``, and those rows are pinned byte for byte.  NumPy's ``exp``,
    ``log`` and ``power`` ufuncs round differently from :mod:`math` on a few percent
    of inputs, so a formula that calls them drifts from the pinned values in the
    last bit.  The sanctioned form is :func:`repro.gpus.columns.per_value`: scalar
    ``math`` on each distinct value, gathered back.  Flagged: any reference to a
    NumPy transcendental ufunc, called or passed along, and importing one by name.
    The functional references in ``repro.kernels.reference`` are exempt.
    """

    code = "RPL008"
    name = "no-numpy-transcendentals"
    contract = "Byte-identical campaign caches (bit-exact column model)"
    scope = ("repro.gpus", "repro.kernels")
    allowlist = {
        "repro.kernels.reference":
            "functional NumPy reference implementations; never feed a cache row",
    }

    _UFUNCS = frozenset({"exp", "log", "log2", "log10", "power", "cos", "sin",
                         "float_power"})

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                bad = sorted(a.name for a in node.names if a.name in self._UFUNCS)
                if bad:
                    yield (node.lineno, node.col_offset,
                           f"importing {', '.join(bad)} from numpy brings ufuncs "
                           f"that round differently from math into the model")
            elif isinstance(node, ast.Attribute):
                head, _, tail = _dotted(node).partition(".")
                if head in ("np", "numpy") and tail in self._UFUNCS:
                    yield (node.lineno, node.col_offset,
                           f"{head}.{tail} rounds differently from scalar math on "
                           f"some inputs; evaluate it with math per distinct value "
                           f"(repro.gpus.columns.per_value)")


# -------------------------------------------------------------------------- registry

# Retired codes are never reused: RPL005 (budget-override-pairs) guarded the bulk
# budget charge, which no longer exists.
RULES: tuple[type[Rule], ...] = (
    NoGlobalRandomness,
    NoWallClockValues,
    AtomicWritesOnly,
    ExecErrorTaxonomy,
    SerializableSpecKwargs,
    NoNumpyTranscendentals,
)


def rules_for_module(module: str,
                     select: frozenset[str] | None = None) -> list[Rule]:
    """Instantiate every rule that applies to ``module`` (optionally filtered)."""
    chosen = []
    for rule in RULES:
        if select is not None and rule.code not in select:
            continue
        if rule.applies_to(module):
            chosen.append(rule())
    return chosen
