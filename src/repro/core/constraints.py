"""Search-space constraints.

Real tunable GPU kernels cannot run every point of the Cartesian product of their
parameters: thread-block shapes are capped at 1024 threads, shared-memory tiles must
fit in the SM's shared memory, vector widths must divide tile widths, and so on.  The
paper distinguishes between

* the raw *Cardinality* of a search space (product of parameter counts),
* the *Constrained* size (configurations that satisfy the kernel's static constraints),
* and the *Valid* size (configurations that additionally compile/launch on a specific
  GPU) -- see Table VIII.

This module implements the static constraints.  A :class:`Constraint` is either a
Python expression string evaluated against the configuration (the style used by
Kernel Tuner / BAT ``restrictions`` lists, e.g. ``"MWG % (MDIMC * VWM) == 0"``) or an
arbitrary callable.  Expression strings are the preferred form because they serialize
into cache files and render nicely in reports.
"""

from __future__ import annotations

import ast
import warnings
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.core.errors import InvalidConfigurationError

__all__ = ["Constraint", "ConstraintSet", "ConstraintSerializationWarning"]


class ConstraintSerializationWarning(UserWarning):
    """A constraint could not be restored from its serialized form.

    Callable constraints serialize by name only; loading a cache file that contains
    one drops the constraint (the predicate itself is gone) and emits this warning so
    the degradation is explicit.  Pass a live ``space=`` to
    :func:`repro.io.cachefile.load_cache` to keep callable constraints.
    """

# Builtins whitelisted inside constraint expressions.  ``min``/``max``/``abs`` show up
# in real restriction lists; nothing else is needed and nothing else is allowed.
_SAFE_BUILTINS: dict[str, Any] = {
    "min": min,
    "max": max,
    "abs": abs,
    "len": len,
    "int": int,
    "float": float,
    "bool": bool,
    "round": round,
    "sum": sum,
    "any": any,
    "all": all,
}


class Constraint:
    """A single validity predicate over configurations.

    Parameters
    ----------
    expression:
        Either a Python expression string referring to parameter names
        (e.g. ``"block_size_x * block_size_y <= 1024"``) or a callable taking the
        configuration mapping and returning a truthy/falsy value.
    description:
        Optional human-readable explanation (used in reports and error messages).

    Notes
    -----
    Expression strings are compiled exactly once, at construction time, into a
    scalar code object evaluated with a restricted namespace (only the configuration
    values and a small whitelist of builtins -- ``min``, ``max``, ``abs``, ... -- are
    visible).  :meth:`is_satisfied` is the only evaluator: a search space turns an
    expression whose :meth:`referenced_names` are all parameters into a *truth
    table* by calling it once per combination of those parameters' values, so every
    batch mask and scalar lookup of the space agrees with it by construction,
    raises-means-violated included.
    """

    def __init__(self, expression: str | Callable[[Mapping[str, Any]], bool],
                 description: str = ""):
        self.description = description
        if callable(expression):
            self._func: Callable[[Mapping[str, Any]], bool] = expression
            self.expression = getattr(expression, "__name__", "<callable>")
            self._compiled = None
        elif isinstance(expression, str):
            if not expression.strip():
                raise InvalidConfigurationError("constraint expression must be non-empty")
            self.expression = expression
            self._compiled = compile(expression, "<constraint>", "eval")
            self._func = self._eval_expression
        else:
            raise InvalidConfigurationError(
                f"constraint must be a string or callable, got {type(expression)!r}")

    # ------------------------------------------------------------------ evaluation

    def _eval_expression(self, config: Mapping[str, Any]) -> bool:
        namespace = dict(config)
        return bool(eval(self._compiled, {"__builtins__": _SAFE_BUILTINS}, namespace))

    def is_satisfied(self, config: Mapping[str, Any]) -> bool:
        """True if the configuration satisfies this constraint.

        A constraint that raises (e.g. division by zero for a degenerate parameter
        combination) is treated as *violated*, mirroring a kernel that fails to
        compile.
        """
        try:
            return bool(self._func(config))
        except (KeyError, NameError) as exc:
            raise InvalidConfigurationError(
                f"constraint {self.expression!r} references missing parameter {exc}"
            ) from None
        except InvalidConfigurationError:
            raise
        except Exception:
            return False

    __call__ = is_satisfied

    def frozen(self, values: Mapping[str, Any]) -> "Constraint":
        """This constraint with some parameters pinned (a reduced space's view).

        The copy evaluates ``values`` underneath the configuration it is given,
        references only the names ``values`` leaves free, and serializes like a
        callable (the pinned values are not part of the expression).
        """
        fixed = dict(values)

        def check(config: Mapping[str, Any]) -> bool:
            full = dict(fixed)
            full.update(config)
            return self.is_satisfied(full)

        out = Constraint(check, description=self.description)
        out.expression = self.expression
        names = self.referenced_names()
        if names is not None:
            out._referenced_names = names - fixed.keys()
        return out

    # ------------------------------------------------------------------ serialization

    @property
    def is_callable(self) -> bool:
        """True when this constraint wraps an opaque callable (no expression string)."""
        return self._compiled is None

    def referenced_names(self) -> frozenset[str] | None:
        """Names the expression refers to, minus whitelisted builtins (memoized).

        Returns None for callable constraints (their dependencies are opaque), except
        for :meth:`frozen` copies of expressions, which read the expression's free
        names.  Used by loaders to detect legacy serializations of *named* callables
        (a function name like ``"power_of_two"`` parses as a perfectly valid
        expression but references no parameter), and by the search space to pick
        the parameters a truth table of this constraint ranges over.
        """
        cached = getattr(self, "_referenced_names", None)
        if cached is None:
            if self.is_callable:
                return None
            tree = ast.parse(self.expression, mode="eval")
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            cached = frozenset(names - set(_SAFE_BUILTINS))
            self._referenced_names = cached
        return cached

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form.

        Callable constraints serialize by name only and are flagged with
        ``"callable": true`` so loaders can warn instead of silently degrading the
        predicate to a bare name lookup.
        """
        data = {"expression": self.expression, "description": self.description}
        if self.is_callable:
            data["callable"] = True
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Constraint":
        """Reconstruct a string-expression constraint from :meth:`to_dict` output."""
        return cls(data["expression"], description=data.get("description", ""))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Constraint({self.expression!r})"


class ConstraintSet:
    """An ordered collection of constraints evaluated together.

    Provides conjunction semantics: a configuration is valid iff *every* member
    constraint is satisfied.  The class exists (rather than using a bare list) so that
    violation reporting, serialization and the "which constraints prune the most"
    diagnostics live in one place.
    """

    def __init__(self, constraints: Iterable[Constraint | str | Callable] = ()):
        self._constraints: list[Constraint] = []
        for c in constraints:
            self.add(c)

    # ------------------------------------------------------------------- mutation

    def add(self, constraint: Constraint | str | Callable) -> "ConstraintSet":
        """Append a constraint (strings/callables are wrapped automatically)."""
        if not isinstance(constraint, Constraint):
            constraint = Constraint(constraint)
        self._constraints.append(constraint)
        return self

    # -------------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __getitem__(self, idx: int) -> Constraint:
        return self._constraints[idx]

    def is_satisfied(self, config: Mapping[str, Any]) -> bool:
        """True iff every constraint holds for ``config``."""
        return all(c.is_satisfied(config) for c in self._constraints)

    __call__ = is_satisfied

    def violated(self, config: Mapping[str, Any]) -> tuple[str, ...]:
        """Expressions of all constraints violated by ``config`` (empty if valid)."""
        return tuple(c.expression for c in self._constraints if not c.is_satisfied(config))

    # ------------------------------------------------------------------ serialization

    def to_list(self) -> list[dict[str, Any]]:
        """JSON-serializable list of constraint dicts."""
        return [c.to_dict() for c in self._constraints]

    @classmethod
    def from_list(cls, data: Iterable[Mapping[str, Any]]) -> "ConstraintSet":
        """Inverse of :meth:`to_list`.

        Entries flagged ``"callable": true`` (and legacy entries whose name does not
        parse as an expression, e.g. ``"<lambda>"``) cannot be restored: the predicate
        itself was never serialized.  They are dropped with an explicit
        :class:`ConstraintSerializationWarning` instead of degrading into a bare name
        lookup that raises on first use.
        """
        out = cls()
        for d in data:
            if d.get("callable"):
                warnings.warn(
                    f"dropping callable constraint {d.get('expression')!r}: only its "
                    f"name was serialized; reattach a live space to keep it",
                    ConstraintSerializationWarning, stacklevel=2)
                continue
            try:
                out.add(Constraint.from_dict(d))
            except SyntaxError:
                warnings.warn(
                    f"dropping unparseable constraint {d.get('expression')!r} "
                    f"(legacy serialization of a callable constraint)",
                    ConstraintSerializationWarning, stacklevel=2)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstraintSet({[c.expression for c in self._constraints]})"
