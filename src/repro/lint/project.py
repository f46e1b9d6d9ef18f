"""Whole-program analysis: module graph, call graph, taint passes.

The per-file checkers in :mod:`repro.lint.checkers` are deliberately
syntactic — they prove the absence of known-bad *shapes* inside one
file.  That leaves a blind spot the determinism contract cannot afford:
a simulator function that calls an innocuous-looking helper in
``utils/`` which *itself* calls ``time.time()`` passes every per-file
rule, yet still couples results to host speed.

This module closes the gap.  :class:`ProjectModel` parses nothing
itself — it is built from the :class:`~repro.lint.source.SourceFile`
objects the runner already produced — and links them into a
module-level call graph:

* every ``def`` (and each module's top-level code, as the pseudo
  function ``<module>``) becomes a node keyed ``module:qualname``;
* call edges are resolved through import aliases (including re-exports
  through package ``__init__`` modules), module-local names,
  ``self.method()`` / ``cls.method()`` within a class, and method calls
  on locals whose constructor is visible in the same scope
  (``engine = SimulationEngine(...); engine.run()`` resolves to
  ``SimulationEngine.run`` — a heuristic: rebinding the name to a
  non-constructor value poisons the entry, but duck-typed reuse of the
  name across branches is not modelled).

The model is the only code that knows how a module breaks into
function keys and how a call resolves.  One scope walk records each
function's ``def``, body and enclosing class and lists every other node
with the function that owns it (:attr:`ModuleInfo.nodes`); each call is
resolved once, at build time (:attr:`ProjectModel.call_edges`).  The
effect and unit passes (:mod:`repro.lint.effects`,
:mod:`repro.lint.units`) read both, and solve their summaries with the
one :func:`fixpoint`.

Three inter-procedural rules run over the graph:

* ``transitive-wallclock`` — a function in ``simulator/``,
  ``experiments/`` or ``core/`` reaches a host-clock read through one
  or more helpers.  Direct reads are the per-file ``sim-wallclock``
  rule's job; this rule reports *chains* (length >= 2) and prints the
  full call path to the sink.  Edges into ``repro.obs.profiling`` are
  never followed: ``perf_seconds()`` is the sanctioned clock.
* ``transitive-rng`` — same idea for stdlib ``random`` and numpy's
  legacy global-state API reached through helpers.
* ``stream-label-collision`` — two ``RngFactory.stream(...)`` /
  ``.fork(...)`` call sites passing the same literal label from the
  same factory expression in the same scope (the second site silently
  receives the *cached* stream of the first and couples their draw
  sequences), or passing an opaque non-literal label (f-strings are
  fine — they are content-keyed by construction; a bare variable is
  not auditable).  ``src/repro/utils/rng.py`` itself is exempt.

The analysis is conservative where it must be (attribute calls on
arbitrary objects are not resolved) and honours pragmas twice: a
pragma on the *sink* line (e.g. ``allow[sim-wallclock]``) stops taint
at the source, and a pragma on the reported definition suppresses the
finding itself.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.lint.base import Rule
from repro.lint.checkers import (
    NUMPY_RNG_ALLOWED,
    RNG_NUMPY_GLOBAL,
    RNG_STDLIB,
    SIM_WALLCLOCK,
    WALLCLOCK_BANNED,
)
from repro.lint.findings import Finding, sort_findings
from repro.lint.source import SourceFile

TRANSITIVE_WALLCLOCK = "transitive-wallclock"
TRANSITIVE_RNG = "transitive-rng"
STREAM_LABEL_COLLISION = "stream-label-collision"

PROJECT_RULES: Tuple[Rule, ...] = (
    Rule(TRANSITIVE_WALLCLOCK,
         "host clock reachable through helper calls from simulated-time "
         "code"),
    Rule(TRANSITIVE_RNG,
         "stdlib random / numpy global RNG reachable through helper calls"),
    Rule(STREAM_LABEL_COLLISION,
         "duplicate or non-literal RngFactory stream/fork label"),
)

#: Directories whose functions count as entry points for taint reporting.
_ENTRY_DIRS = frozenset({"simulator", "experiments", "core"})

#: Modules taint never flows through (the sanctioned clock boundary and
#: the entropy boundary).
_WALLCLOCK_STOP_MODULES = frozenset({"repro.obs.profiling"})
_RNG_STOP_MODULES = frozenset({"repro.utils.rng"})

#: The factory module itself derives streams; its internals are exempt
#: from the label rule.
_RNG_MODULE_SUFFIX = "utils/rng.py"

#: Pseudo qualname for a module's top-level code.
MODULE_SCOPE = "<module>"


@dataclass(frozen=True)
class CallEdge:
    """One resolved call: ``internal`` targets are function keys."""

    target: str
    line: int
    internal: bool


@dataclass(frozen=True)
class _Sink:
    """A direct banned call anchoring a taint chain."""

    target: str
    path: str
    line: int


#: A ``def`` statement: the syntax a function key stands for.
DefNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionNode:
    """One function (or ``<module>`` pseudo-function) in the graph.

    ``node`` is its ``def`` (``None`` for ``<module>``), ``body`` the
    statements it runs, and ``enclosing_class`` the qualname of the class
    ``self``/``cls`` denote inside it.
    """

    key: str
    module: str
    qualname: str
    path: str
    line: int
    node: Optional[DefNode] = None
    body: Sequence[ast.stmt] = ()
    enclosing_class: Optional[str] = None
    edges: List[CallEdge] = field(default_factory=list)


#: One node of the scope walk: ``(node, owner, enclosing class)``.
ScopedNode = Tuple[ast.AST, FunctionNode, Optional[str]]


@dataclass(frozen=True)
class StreamCall:
    """One ``<factory>.stream(label)`` / ``.fork(label)`` call site."""

    owner: str
    receiver: str
    method: str
    label: ast.expr
    line: int
    col: int


@dataclass
class ModuleInfo:
    """One parsed module and its locally-defined names."""

    name: str
    source: SourceFile
    functions: Dict[str, str] = field(default_factory=dict)  # qualname -> key
    classes: Set[str] = field(default_factory=set)
    #: Every node the scope walk visits, in walk order, with the function
    #: whose code it is.  ``def`` and ``class`` statements are not listed
    #: themselves; their decorators, argument defaults and bodies are
    #: (class bases are not walked).
    nodes: List[ScopedNode] = field(default_factory=list)
    stream_calls: List[StreamCall] = field(default_factory=list)
    #: ``(owner key, local name) -> constructor func expr`` for locals
    #: assigned from a call; ``None`` marks a poisoned (rebound) entry.
    var_ctors: Dict[Tuple[str, str], Optional[ast.expr]] = field(
        default_factory=dict
    )

    @property
    def calls(self) -> List[ast.Call]:
        """Every call site of the module, in walk order."""
        return [node for node, _, _ in self.nodes
                if isinstance(node, ast.Call)]


def module_name_for(display_path: str) -> str:
    """Dotted module name for a display path.

    Anchored at the ``repro`` package component when present
    (``src/repro/utils/rng.py`` -> ``repro.utils.rng``); otherwise the
    bare stem, so out-of-tree fixture files still get distinct names.
    """
    parts = display_path.split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    try:
        anchor = parts.index("repro")
    except ValueError:
        return stem
    dotted = parts[anchor:-1] + ([] if stem == "__init__" else [stem])
    return ".".join(dotted) if dotted else stem


def _is_factory_expr(source: SourceFile, node: ast.expr) -> bool:
    """Heuristic: does this expression denote an ``RngFactory``?"""
    if isinstance(node, ast.Call):
        func = node.func
        resolved = source.resolve(func)
        if resolved is not None and resolved.endswith("RngFactory"):
            return True
        if isinstance(func, ast.Name) and func.id == "RngFactory":
            return True
        if isinstance(func, ast.Attribute) and func.attr == "fork":
            # ``factory.fork("rep0").stream("x")`` — forks yield factories.
            return _is_factory_expr(source, func.value)
        return False
    terminal: Optional[str] = None
    if isinstance(node, ast.Name):
        terminal = node.id
    elif isinstance(node, ast.Attribute):
        terminal = node.attr
    return terminal is not None and "factory" in terminal.lower()


def _is_internal(dotted: str) -> bool:
    return dotted == "repro" or dotted.startswith("repro.")


def _label_argument(node: ast.Call) -> Optional[ast.expr]:
    if node.args:
        first = node.args[0]
        return None if isinstance(first, ast.Starred) else first
    for keyword in node.keywords:
        if keyword.arg == "label":
            return keyword.value
    return None


def function_matches(function: Optional[str], node: FunctionNode) -> bool:
    """The ``--function`` filter: exact key, qualname or bare-name match."""
    if function is None:
        return True
    return function in (node.key, node.qualname) or node.key.endswith(
        f":{function}"
    )


def fixpoint(keys: Iterable[str], step: Callable[[str], bool]) -> int:
    """Sweep ``step`` over ``keys`` in sorted order until nothing changes.

    ``step(key)`` updates ``key``'s summary and returns whether it
    changed; a sweep calls it for every key, and sweeps repeat until one
    changes nothing.  Summaries must only climb a finite lattice, which
    is what makes this terminate.  Returns the number of sweeps.
    """
    ordered = sorted(keys)
    sweeps = 0
    changed = True
    while changed:
        sweeps += 1
        changed = False
        for key in ordered:
            if step(key):
                changed = True
    return sweeps


class ProjectModel:
    """Module table + call graph over a set of parsed sources."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionNode] = {}
        #: callee key -> sorted distinct keys of its internal callers.
        self.callers: Dict[str, Tuple[str, ...]] = {}
        #: call site -> the edge it resolved to (unresolved calls absent).
        self.call_edges: Dict[ast.Call, CallEdge] = {}

    # -- construction ------------------------------------------------

    @classmethod
    def build(cls, sources: Iterable[SourceFile]) -> "ProjectModel":
        model = cls()
        ordered = sorted(
            (s for s in sources if s.parse_error is None),
            key=lambda s: s.display_path,
        )
        for source in ordered:
            name = module_name_for(source.display_path)
            if name in model.modules:
                continue  # duplicate fixture names: first (sorted) wins
            model.modules[name] = ModuleInfo(name=name, source=source)
        for name in sorted(model.modules):
            info = model.modules[name]
            root = model.add_function(info, MODULE_SCOPE, line=1,
                                      body=info.source.tree.body)
            for stmt in info.source.tree.body:
                model._walk(info, stmt, (), root, None, in_function=False)
        for name in sorted(model.modules):
            model._resolve_module(model.modules[name])
        reverse: Dict[str, Set[str]] = {}
        for key, node in model.functions.items():
            for edge in node.edges:
                if edge.internal:
                    reverse.setdefault(edge.target, set()).add(key)
        model.callers = {
            target: tuple(sorted(keys)) for target, keys in reverse.items()
        }
        return model

    def add_function(
        self,
        info: ModuleInfo,
        qualname: str,
        line: int,
        node: Optional[DefNode] = None,
        body: Sequence[ast.stmt] = (),
        enclosing_class: Optional[str] = None,
    ) -> FunctionNode:
        key = f"{info.name}:{qualname}"
        function = FunctionNode(
            key=key,
            module=info.name,
            qualname=qualname,
            path=info.source.display_path,
            line=line,
            node=node,
            body=body,
            enclosing_class=enclosing_class,
        )
        self.functions[key] = function
        info.functions[qualname] = key
        return function

    def _walk(
        self,
        info: ModuleInfo,
        node: ast.AST,
        scope: Tuple[str, ...],
        owner: FunctionNode,
        enclosing_class: Optional[str],
        in_function: bool,
    ) -> None:
        """The scope walk: which function's code each node is.

        A ``def`` becomes a function whose body it owns; its decorators
        and defaults run in the enclosing scope.  A class body runs in
        the enclosing scope too (at import time), so its methods are
        not reachable from it.
        """
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = ".".join((*scope, node.name))
            child = self.add_function(info, qualname, node.lineno, node,
                                      node.body, enclosing_class)
            if in_function:
                # A nested def is a closure helper: assume the parent
                # uses it (calls through locals are otherwise opaque).
                owner.edges.append(
                    CallEdge(target=child.key, line=node.lineno,
                             internal=True)
                )
            for outer in (*node.decorator_list, *node.args.defaults,
                          *[d for d in node.args.kw_defaults
                            if d is not None]):
                self._walk(info, outer, scope, owner, enclosing_class,
                           in_function)
            for stmt in node.body:
                self._walk(info, stmt, (*scope, node.name), child,
                           enclosing_class, in_function=True)
            return
        if isinstance(node, ast.ClassDef):
            qualname = ".".join((*scope, node.name))
            info.classes.add(qualname)
            for decorator in node.decorator_list:
                self._walk(info, decorator, scope, owner, enclosing_class,
                           in_function)
            for stmt in node.body:
                self._walk(info, stmt, (*scope, node.name), owner,
                           qualname, in_function=False)
            return
        info.nodes.append((node, owner, enclosing_class))
        if isinstance(node, ast.Call):
            self._record_stream_call(info, node, owner.key)
        elif isinstance(node, ast.Assign):
            self._record_var_types(info, node, owner.key)
        for child_node in ast.iter_child_nodes(node):
            self._walk(info, child_node, scope, owner, enclosing_class,
                       in_function)

    @staticmethod
    def _record_var_types(
        info: ModuleInfo, node: ast.Assign, owner: str
    ) -> None:
        """Track ``name = Constructor(...)`` so ``name.method()`` resolves."""
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            slot = (owner, target.id)
            if isinstance(node.value, ast.Call):
                info.var_ctors[slot] = node.value.func
            elif slot in info.var_ctors:
                info.var_ctors[slot] = None  # rebound: poisoned

    @staticmethod
    def _record_stream_call(
        info: ModuleInfo, node: ast.Call, owner: str
    ) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in ("stream", "fork")
            and _is_factory_expr(info.source, func.value)
        ):
            return
        label = _label_argument(node)
        if label is not None:
            info.stream_calls.append(
                StreamCall(
                    owner=owner,
                    receiver=ast.unparse(func.value),
                    method=func.attr,
                    label=label,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )

    def _resolve_module(self, info: ModuleInfo) -> None:
        for node, owner, enclosing_class in info.nodes:
            if not isinstance(node, ast.Call):
                continue
            edge = self._resolve_call(info, node, owner.key, enclosing_class)
            if edge is not None:
                self.call_edges[node] = edge
                self.functions[owner.key].edges.append(edge)

    def _resolve_call(
        self,
        info: ModuleInfo,
        node: ast.Call,
        owner: str,
        enclosing_class: Optional[str],
    ) -> Optional[CallEdge]:
        func = node.func
        line = node.lineno
        resolved = info.source.resolve(func)
        if resolved is not None and not _is_internal(resolved):
            return CallEdge(target=resolved, line=line, internal=False)
        if resolved is not None or isinstance(func, ast.Name):
            key = self.resolve_reference(info, func)
            if key is None:
                return None
            return CallEdge(target=key, line=line, internal=True)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and enclosing_class is not None
        ):
            qualname = f"{enclosing_class}.{func.attr}"
            key = info.functions.get(qualname)
            if key is not None:
                return CallEdge(target=key, line=line, internal=True)
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            ctor = info.var_ctors.get((owner, func.value.id))
            if ctor is not None:
                key = self._lookup_ctor_method(info, ctor, func.attr)
                if key is not None:
                    return CallEdge(target=key, line=line, internal=True)
        return None

    def resolve_reference(
        self, info: ModuleInfo, node: ast.expr
    ) -> Optional[str]:
        """Function key a name or imported ``repro.*`` path denotes.

        A local name is looked up in ``info``'s module; a class denotes
        its ``__init__``.
        """
        resolved = info.source.resolve(node)
        if resolved is not None and _is_internal(resolved):
            return self._lookup_internal(resolved)
        if resolved is None and isinstance(node, ast.Name):
            return self._lookup_local(info, node.id)
        return None

    def _lookup_ctor_method(
        self, info: ModuleInfo, ctor: ast.expr, method: str
    ) -> Optional[str]:
        """Key of ``Class.method`` for a tracked constructor expression."""
        resolved = info.source.resolve(ctor)
        if resolved is not None and _is_internal(resolved):
            return self._lookup_internal(f"{resolved}.{method}")
        if isinstance(ctor, ast.Name) and ctor.id in info.classes:
            return info.functions.get(f"{ctor.id}.{method}")
        return None

    def _lookup_local(self, info: ModuleInfo, name: str) -> Optional[str]:
        key = info.functions.get(name)
        if key is not None:
            return key
        if name in info.classes:
            return info.functions.get(f"{name}.__init__")
        return None

    def _lookup_internal(
        self, dotted: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Function key for an imported ``repro.*`` dotted path.

        Follows re-exports: ``repro.runtime.TaskScheduler`` resolves
        through ``runtime/__init__``'s own import aliases to
        ``repro.runtime.scheduler.TaskScheduler.__init__``.
        """
        seen = _seen if _seen is not None else set()
        if dotted in seen:
            return None
        seen.add(dotted)
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            info = self.modules.get(module)
            if info is None:
                continue
            remainder = parts[cut:]
            qualname = ".".join(remainder)
            key = info.functions.get(qualname)
            if key is not None:
                return key
            if qualname in info.classes:
                return info.functions.get(f"{qualname}.__init__")
            alias = info.source.aliases.get(remainder[0])
            if alias is not None:
                rest = remainder[1:]
                target = ".".join([alias, *rest]) if rest else alias
                return self._lookup_internal(target, seen)
            return None
        return None


# -- taint passes ----------------------------------------------------


def _compute_chains(
    model: ProjectModel,
    is_sink: "_SinkPredicate",
    sink_rules: Tuple[str, ...],
    stop_modules: "frozenset[str]",
) -> Tuple[Dict[str, Tuple[str, ...]], Dict[str, _Sink]]:
    """Shortest helper chains from each function to a banned call.

    Returns ``(chains, direct)`` where ``chains[key]`` is the function
    keys from ``key`` down to a directly-tainted function, and
    ``direct`` maps that last function to its sink.  Pragmas on the
    sink line (any rule in ``sink_rules``) stop taint at the source;
    functions in ``stop_modules`` neither sink nor propagate.
    """
    direct: Dict[str, _Sink] = {}
    for key in sorted(model.functions):
        node = model.functions[key]
        if node.module in stop_modules:
            continue
        source = model.modules[node.module].source
        for edge in node.edges:
            if edge.internal or not is_sink(edge.target):
                continue
            if any(source.is_suppressed(rule, edge.line)
                   for rule in sink_rules):
                continue
            direct[key] = _Sink(target=edge.target, path=node.path,
                                line=edge.line)
            break

    chains: Dict[str, Tuple[str, ...]] = {k: (k,) for k in sorted(direct)}
    queue: Deque[str] = deque(sorted(direct))
    while queue:
        current = queue.popleft()
        if model.functions[current].module in stop_modules:
            continue
        for caller in model.callers.get(current, ()):
            if caller in chains:
                continue
            chains[caller] = (caller, *chains[current])
            queue.append(caller)
    return chains, direct


class _SinkPredicate:
    """Picklable/deterministic callable wrapper for sink tests."""

    def __init__(self, kind: str) -> None:
        self._kind = kind

    def __call__(self, target: str) -> bool:
        if self._kind == "wallclock":
            return target in WALLCLOCK_BANNED
        if target == "random" or target.startswith("random."):
            return True
        if target.startswith("numpy.random."):
            tail = target.split(".")[2]
            return tail not in NUMPY_RNG_ALLOWED
        return False


def _in_entry_dirs(path: str) -> bool:
    directories = path.split("/")[:-1]
    return any(part in _ENTRY_DIRS for part in directories)


def render_chain(
    model: ProjectModel, chain: Tuple[str, ...], terminal: str
) -> str:
    """``f -> g -> mod:h -> terminal``, qualifying cross-module hops."""
    labels: List[str] = []
    previous_module: Optional[str] = None
    for key in chain:
        node = model.functions[key]
        if previous_module is None or node.module == previous_module:
            labels.append(node.qualname)
        else:
            labels.append(f"{node.module}:{node.qualname}")
        previous_module = node.module
    labels.append(terminal)
    return " -> ".join(labels)


def _taint_findings(
    model: ProjectModel,
    rule_id: str,
    is_sink: _SinkPredicate,
    sink_rules: Tuple[str, ...],
    stop_modules: "frozenset[str]",
    advice: str,
) -> List[Finding]:
    chains, direct = _compute_chains(model, is_sink, sink_rules,
                                     stop_modules)
    findings: List[Finding] = []
    for key in sorted(chains):
        chain = chains[key]
        if len(chain) < 2:
            continue  # direct calls are the per-file rules' domain
        node = model.functions[key]
        if not _in_entry_dirs(node.path):
            continue
        sink = direct[chain[-1]]
        terminal = f"{sink.target} ({sink.path}:{sink.line})"
        findings.append(
            Finding(
                rule_id=rule_id,
                path=node.path,
                line=node.line,
                message=(
                    f"{node.qualname} reaches {sink.target} through "
                    f"helpers: {render_chain(model, chain, terminal)}; "
                    f"{advice}"
                ),
            )
        )
    return findings


def check_transitive_wallclock(model: ProjectModel) -> List[Finding]:
    """Helper-chain host-clock reads from simulator/experiments/core."""
    return _taint_findings(
        model,
        TRANSITIVE_WALLCLOCK,
        _SinkPredicate("wallclock"),
        sink_rules=(SIM_WALLCLOCK, TRANSITIVE_WALLCLOCK),
        stop_modules=_WALLCLOCK_STOP_MODULES,
        advice=("route host-clock reads through "
                "repro.obs.profiling.perf_seconds"),
    )


def check_transitive_rng(model: ProjectModel) -> List[Finding]:
    """Helper-chain stdlib/global RNG from simulator/experiments/core."""
    return _taint_findings(
        model,
        TRANSITIVE_RNG,
        _SinkPredicate("rng"),
        sink_rules=(RNG_STDLIB, RNG_NUMPY_GLOBAL, TRANSITIVE_RNG),
        stop_modules=_RNG_STOP_MODULES,
        advice="draw from a seeded RngFactory stream (repro.utils.rng)",
    )


def check_stream_labels(model: ProjectModel) -> List[Finding]:
    """Duplicate / non-literal labels at stream() and fork() sites."""
    findings: List[Finding] = []
    for name in sorted(model.modules):
        info = model.modules[name]
        if info.source.display_path.endswith(_RNG_MODULE_SUFFIX):
            continue
        groups: Dict[Tuple[str, str, str], Dict[str, StreamCall]] = {}
        for call in info.stream_calls:
            label = call.label
            if isinstance(label, ast.JoinedStr):
                continue  # f-strings are content-keyed by construction
            if not (isinstance(label, ast.Constant)
                    and isinstance(label.value, str)):
                findings.append(
                    Finding(
                        rule_id=STREAM_LABEL_COLLISION,
                        path=info.source.display_path,
                        line=call.line,
                        col=call.col,
                        message=(
                            f"non-literal label in "
                            f"{call.receiver}.{call.method}(...): stream "
                            f"labels must be string literals or f-strings "
                            f"so draw streams stay content-keyed and "
                            f"collisions stay auditable"
                        ),
                    )
                )
                continue
            scope = groups.setdefault(
                (call.owner, call.receiver, call.method), {}
            )
            first = scope.get(label.value)
            if first is None:
                scope[label.value] = call
                continue
            findings.append(
                Finding(
                    rule_id=STREAM_LABEL_COLLISION,
                    path=info.source.display_path,
                    line=call.line,
                    col=call.col,
                    message=(
                        f"label {label.value!r} already used by "
                        f"{first.receiver}.{first.method}(...) at line "
                        f"{first.line}: reusing a label returns the same "
                        f"cached stream and couples the two draw "
                        f"sequences"
                    ),
                )
            )
    return findings


def run_project_passes(
    sources: Sequence[SourceFile],
) -> Tuple[List[Finding], int]:
    """Run every cross-module pass; returns ``(findings, suppressed)``.

    Findings are anchored at definitions/call sites in the analysed
    files, so the usual pragma rules apply at the anchor line.
    """
    # Imported lazily: effects/units build on this module, so top-level
    # imports would be circular.
    from repro.lint.effects import analyze, effect_findings
    from repro.lint.units import analyze_units, unit_findings

    model = ProjectModel.build(sources)
    raw: List[Finding] = [
        *check_transitive_wallclock(model),
        *check_transitive_rng(model),
        *check_stream_labels(model),
        *effect_findings(analyze(model)),
        *unit_findings(analyze_units(model)),
    ]
    return drop_suppressed(sort_findings(raw), sources)


def drop_suppressed(
    findings: Iterable[Finding], sources: Sequence[SourceFile]
) -> Tuple[List[Finding], int]:
    """``(findings without a pragma at their anchor line, suppressed)``."""
    by_path = {s.display_path: s for s in sources}
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        anchor = by_path.get(finding.path)
        if anchor is not None and anchor.is_suppressed(
            finding.rule_id, finding.line
        ):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def project_rule_catalog() -> Dict[str, str]:
    """``rule id -> summary`` for the cross-module rules."""
    from repro.lint.effects import effect_rule_catalog
    from repro.lint.units import unit_rule_catalog

    return {
        **{rule.rule_id: rule.summary for rule in PROJECT_RULES},
        **effect_rule_catalog(),
        **unit_rule_catalog(),
    }
