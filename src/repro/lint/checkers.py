"""The built-in invariant checkers.

Each checker machine-checks one convention the runtime's determinism
guarantee rests on (see ``docs/static-analysis.md`` for the rationale
and ``docs/performance.md`` for the guarantee itself):

* :class:`RngDisciplineChecker` — all randomness flows through explicit
  ``numpy.random.Generator`` streams (``repro.utils.rng``), never the
  stdlib ``random`` module or numpy's legacy global state.
* :class:`SimulatedTimeChecker` — simulator/experiment/pipeline code
  reads simulated time only; host clocks live in ``repro.obs``.
* :class:`ForkSafetyChecker` — work units handed to the process pool
  must be module-level picklables.
* :class:`IterationOrderChecker` — no unsorted filesystem listings or
  set iteration where order can leak into outputs or RNG consumption.
* :class:`MutableDefaultChecker` — no mutable default arguments.
* :class:`SwallowedExceptionChecker` — no silently-swallowed broad
  exception handlers (``except: pass`` and friends): fault-injection
  bugs hide exactly there.

Checkers are syntactic: they prove the *absence of known-bad shapes*,
not the correctness of arbitrary code, and every rule is suppressible
with ``# repro-lint: allow[rule-id]`` where a human has checked the
exception (each shipped pragma should say why).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.base import Checker, Rule
from repro.lint.findings import Finding
from repro.lint.source import SourceFile

RNG_STDLIB = "rng-stdlib-random"
RNG_NUMPY_GLOBAL = "rng-numpy-global"
RNG_UNSEEDED = "rng-unseeded-default-rng"
SIM_WALLCLOCK = "sim-wallclock"
FORK_UNSAFE = "fork-unsafe-task"
ITER_ORDER = "iter-order"
MUTABLE_DEFAULT = "mutable-default"
SWALLOWED_EXCEPTION = "swallowed-exception"

#: Host-clock reads banned in simulated-time code.  Shared with the
#: cross-module pass (:mod:`repro.lint.project`), which treats the same
#: calls as taint sinks when reached *through helpers*.
WALLCLOCK_BANNED = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: ``numpy.random`` attributes that are generator plumbing, not the
#: legacy global-state surface.  Shared with :mod:`repro.lint.project`.
NUMPY_RNG_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


class RngDisciplineChecker(Checker):
    """All randomness must flow through seeded ``np.random.Generator``s."""

    name = "rng-discipline"
    rules = (
        Rule(RNG_STDLIB,
             "stdlib random.* call; use a numpy Generator stream"),
        Rule(RNG_NUMPY_GLOBAL,
             "legacy numpy global-state RNG call (np.random.seed/rand/...)"),
        Rule(RNG_UNSEEDED,
             "np.random.default_rng() without a seed outside utils/rng.py"),
    )

    #: numpy.random attributes that are generator plumbing, not the
    #: legacy global-state surface.
    _NUMPY_ALLOWED = NUMPY_RNG_ALLOWED

    #: The one module allowed to normalise a None seed into OS entropy.
    _UNSEEDED_ALLOWED_SUFFIX = "utils/rng.py"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = source.resolve(node.func)
            if resolved is None:
                continue
            if resolved == "random" or resolved.startswith("random."):
                yield self.finding(
                    RNG_STDLIB, source, node.lineno,
                    f"call to stdlib {resolved!r}: all randomness must "
                    f"flow through a seeded numpy Generator "
                    f"(repro.utils.rng)",
                    col=node.col_offset,
                )
            elif resolved.startswith("numpy.random."):
                tail = resolved.split(".")[2]
                if tail not in self._NUMPY_ALLOWED:
                    yield self.finding(
                        RNG_NUMPY_GLOBAL, source, node.lineno,
                        f"legacy global-state numpy RNG {resolved!r}: "
                        f"seed an explicit np.random.Generator instead",
                        col=node.col_offset,
                    )
                elif (
                    tail == "default_rng"
                    and not node.args
                    and not node.keywords
                    and not source.display_path.endswith(
                        self._UNSEEDED_ALLOWED_SUFFIX
                    )
                ):
                    yield self.finding(
                        RNG_UNSEEDED, source, node.lineno,
                        "np.random.default_rng() without a seed draws OS "
                        "entropy; pass a seed (only repro.utils.rng may "
                        "normalise None)",
                        col=node.col_offset,
                    )


class SimulatedTimeChecker(Checker):
    """Simulation-facing code must read simulated time, never host clocks."""

    name = "simulated-time"
    rules = (
        Rule(SIM_WALLCLOCK,
             "host wall-clock read inside simulated-time code"),
    )

    #: Directories (path components) the ban applies to.
    _SCOPED_DIRS = frozenset({"simulator", "experiments", "core", "obs"})

    #: Genuine profiling is centralised here; everything else must route
    #: wall-clock reads through it (e.g. ``perf_seconds``).
    _ALLOWED_SUFFIXES = ("obs/profiling.py",)

    _BANNED = WALLCLOCK_BANNED

    def _in_scope(self, source: SourceFile) -> bool:
        for suffix in self._ALLOWED_SUFFIXES:
            if source.display_path.endswith(suffix):
                return False
        directories = source.path_parts()[:-1]
        return any(part in self._SCOPED_DIRS for part in directories)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if not self._in_scope(source):
            return
        for node in source.nodes:
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            resolved = source.resolve(node)
            if resolved in self._BANNED:
                yield self.finding(
                    SIM_WALLCLOCK, source, node.lineno,
                    f"{resolved} reads the host clock inside "
                    f"simulated-time code; use engine/event time, or "
                    f"route profiling through repro.obs.profiling",
                    col=node.col_offset,
                )


class ForkSafetyChecker(Checker):
    """Work units given to the task scheduler must be module-level."""

    name = "fork-safety"
    rules = (
        Rule(FORK_UNSAFE,
             "non-picklable callable handed to map_tasks/TaskScheduler"),
    )

    _METHODS = frozenset({"map", "submit"})

    def check(self, source: SourceFile) -> Iterator[Finding]:
        nested = self._nested_def_names(source)
        lambda_names = self._lambda_bound_names(source)
        scheduler_names = self._scheduler_names(source)
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            if not self._is_task_dispatch(source, node, scheduler_names):
                continue
            if not node.args:
                continue
            reason = self._unpicklable_reason(
                source, node.args[0], nested, lambda_names
            )
            if reason is not None:
                yield self.finding(
                    FORK_UNSAFE, source, node.lineno,
                    f"{reason} cannot be pickled by the fork pool; pass "
                    f"a module-level function (see repro.runtime."
                    f"scheduler)",
                    col=node.col_offset,
                )

    def _is_task_dispatch(
        self, source: SourceFile, node: ast.Call, scheduler_names: Set[str]
    ) -> bool:
        func = node.func
        resolved = source.resolve(func)
        if resolved is not None and (
            resolved == "map_tasks" or resolved.endswith(".map_tasks")
        ):
            return True
        if (
            resolved is None
            and isinstance(func, ast.Name)
            and func.id == "map_tasks"
        ):
            return True
        if isinstance(func, ast.Attribute) and func.attr in self._METHODS:
            receiver = func.value
            if isinstance(receiver, ast.Name):
                name = receiver.id
                return name in scheduler_names or "scheduler" in name.lower()
            if isinstance(receiver, ast.Call):
                ctor = source.resolve(receiver.func)
                if ctor is not None and ctor.endswith("TaskScheduler"):
                    return True
                return (
                    isinstance(receiver.func, ast.Name)
                    and receiver.func.id == "TaskScheduler"
                )
        return False

    def _unpicklable_reason(
        self,
        source: SourceFile,
        arg: ast.AST,
        nested: Set[str],
        lambda_names: Set[str],
    ) -> Optional[str]:
        if isinstance(arg, ast.Lambda):
            return "a lambda"
        if isinstance(arg, ast.Name):
            if arg.id in nested:
                return f"nested function {arg.id!r} (a closure)"
            if arg.id in lambda_names:
                return f"{arg.id!r} (bound to a lambda)"
            return None
        if isinstance(arg, ast.Attribute):
            if source.resolve(arg) is not None:
                return None  # module-level attribute; picklable by name
            return f"bound method / object attribute {arg.attr!r}"
        if isinstance(arg, ast.Call):
            ctor = source.resolve(arg.func)
            is_partial = ctor == "functools.partial" or (
                isinstance(arg.func, ast.Name) and arg.func.id == "partial"
            )
            if is_partial and arg.args:
                return self._unpicklable_reason(
                    source, arg.args[0], nested, lambda_names
                )
        return None

    def _nested_def_names(self, source: SourceFile) -> Set[str]:
        names: Set[str] = set()
        parents = source.parents
        for node in source.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            ancestor = parents.get(node)
            while ancestor is not None:
                if isinstance(
                    ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)
                ):
                    names.add(node.name)
                    break
                ancestor = parents.get(ancestor)
        return names

    def _lambda_bound_names(self, source: SourceFile) -> Set[str]:
        names: Set[str] = set()
        for node in source.nodes:
            value: Optional[ast.AST] = None
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if isinstance(value, ast.Lambda):
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _scheduler_names(self, source: SourceFile) -> Set[str]:
        names: Set[str] = set()
        for node in source.nodes:
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            ctor = source.resolve(value.func)
            is_scheduler = (ctor is not None and
                            ctor.endswith("TaskScheduler")) or (
                isinstance(value.func, ast.Name)
                and value.func.id == "TaskScheduler"
            )
            if not is_scheduler:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names


class IterationOrderChecker(Checker):
    """No unsorted filesystem listings or set iteration."""

    name = "iteration-order"
    rules = (
        Rule(ITER_ORDER,
             "nondeterministic iteration order (unsorted listing / set)"),
    )

    _LISTING_CALLS = frozenset({
        "os.listdir", "os.scandir", "os.walk", "os.fwalk",
        "glob.glob", "glob.iglob",
    })
    _PATHLIB_METHODS = frozenset({"iterdir", "glob", "rglob", "walk"})
    _SEQUENCING_BUILTINS = frozenset({"list", "tuple", "enumerate", "iter"})

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            listing = self._listing_label(source, node)
            if listing is not None and not self._sorted_wrapped(source, node):
                yield self.finding(
                    ITER_ORDER, source, node.lineno,
                    f"{listing} order is filesystem-dependent; wrap the "
                    f"call in sorted(...)",
                    col=node.col_offset,
                )
        for node in source.nodes:
            if not self._is_set_expression(source, node):
                continue
            consumed = self._ordered_consumption(source, node)
            if consumed is not None:
                yield self.finding(
                    ITER_ORDER, source, node.lineno,
                    f"set iteration order is unspecified ({consumed}); "
                    f"iterate sorted(...) instead",
                    col=node.col_offset,
                )

    def _listing_label(
        self, source: SourceFile, node: ast.Call
    ) -> Optional[str]:
        resolved = source.resolve(node.func)
        if resolved in self._LISTING_CALLS:
            return resolved
        func = node.func
        if (
            resolved is None
            and isinstance(func, ast.Attribute)
            and func.attr in self._PATHLIB_METHODS
        ):
            return f".{func.attr}()"
        return None

    def _sorted_wrapped(self, source: SourceFile, node: ast.AST) -> bool:
        parent = source.parents.get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted"
        )

    def _is_set_expression(self, source: SourceFile, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
            and source.resolve(node.func) is None
        )

    def _ordered_consumption(
        self, source: SourceFile, node: ast.AST
    ) -> Optional[str]:
        """How ``node`` is consumed in an order-sensitive way, if it is."""
        parent = source.parents.get(node)
        if isinstance(parent, (ast.For, ast.AsyncFor)) and parent.iter is node:
            return "for loop"
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            return "comprehension"
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in self._SEQUENCING_BUILTINS
            and parent.args
            and parent.args[0] is node
        ):
            return f"{parent.func.id}(...)"
        return None


class MutableDefaultChecker(Checker):
    """No mutable default argument values, anywhere."""

    name = "mutable-defaults"
    rules = (
        Rule(MUTABLE_DEFAULT,
             "mutable default argument (shared across calls)"),
    )

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})
    _MUTABLE_DOTTED = frozenset({
        "collections.defaultdict", "collections.OrderedDict",
        "collections.deque", "collections.Counter",
    })

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            label = getattr(node, "name", "<lambda>")
            defaults: List[Optional[ast.expr]] = [
                *node.args.defaults, *node.args.kw_defaults
            ]
            for default in defaults:
                if default is None:
                    continue
                if self._is_mutable(source, default):
                    yield self.finding(
                        MUTABLE_DEFAULT, source, default.lineno,
                        f"mutable default in {label!r} is shared across "
                        f"calls; default to None and create inside",
                        col=default.col_offset,
                    )

    def _is_mutable(self, source: SourceFile, node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            resolved = source.resolve(node.func)
            if resolved in self._MUTABLE_DOTTED:
                return True
            return (
                resolved is None
                and isinstance(node.func, ast.Name)
                and node.func.id in self._MUTABLE_CALLS
            )
        return False


class SwallowedExceptionChecker(Checker):
    """No broad exception handlers that silently discard the error.

    A bare ``except:`` or ``except Exception/BaseException:`` whose body
    neither re-raises nor reports (logging / ``warnings.warn`` /
    ``traceback.print_exc`` / ``print``) turns every unexpected failure
    into silence — in a fault-injection codebase that means an injected
    fault can be eaten instead of surfacing as a degraded-mode signal.
    Narrow handlers (``except KeyError:``) are fine: catching a named
    exception is a statement of intent.
    """

    name = "exception-discipline"
    rules = (
        Rule(SWALLOWED_EXCEPTION,
             "broad exception handler with no re-raise or report"),
    )

    _BROAD = frozenset({"Exception", "BaseException"})
    _LOG_METHODS = frozenset({
        "debug", "info", "warning", "error", "exception", "critical", "log",
    })
    _REPORT_CALLS = frozenset({
        "warnings.warn", "traceback.print_exc", "traceback.format_exc",
    })

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            label = self._broad_label(source, node.type)
            if label is None:
                continue
            if self._handles(source, node.body):
                continue
            yield self.finding(
                SWALLOWED_EXCEPTION, source, node.lineno,
                f"{label} swallows every error silently; re-raise, "
                f"narrow the exception type, or report it "
                f"(logging/warnings)",
                col=node.col_offset,
            )

    def _broad_label(
        self, source: SourceFile, node: Optional[ast.expr]
    ) -> Optional[str]:
        """A display label when the handler is broad, else None."""
        if node is None:
            return "bare 'except:'"
        names: List[ast.expr] = (
            list(node.elts) if isinstance(node, ast.Tuple) else [node]
        )
        for name in names:
            resolved = source.resolve(name)
            if resolved in self._BROAD:
                return f"'except {resolved}:'"
            if isinstance(name, ast.Name) and name.id in self._BROAD:
                return f"'except {name.id}:'"
        return None

    def _handles(self, source: SourceFile, body: List[ast.stmt]) -> bool:
        """True when the handler re-raises or reports the error."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                resolved = source.resolve(func)
                if resolved in self._REPORT_CALLS:
                    return True
                if isinstance(func, ast.Attribute):
                    if func.attr in self._LOG_METHODS:
                        return True
                elif isinstance(func, ast.Name) and func.id == "print":
                    return True
        return False


def default_checkers() -> Tuple[Checker, ...]:
    """Fresh instances of every built-in checker, in stable order."""
    return (
        RngDisciplineChecker(),
        SimulatedTimeChecker(),
        ForkSafetyChecker(),
        IterationOrderChecker(),
        MutableDefaultChecker(),
        SwallowedExceptionChecker(),
    )


def rule_catalog() -> Dict[str, str]:
    """``rule id -> summary`` for every rule any built-in checker emits."""
    catalog: Dict[str, str] = {}
    for checker in default_checkers():
        for rule in checker.rules:
            catalog[rule.rule_id] = rule.summary
    return catalog
