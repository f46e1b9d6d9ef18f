"""Whole-program effect analysis over the lint call graph.

:mod:`repro.lint.project` answers "who calls whom"; this module answers
"who *does* what".  Every function in the analysed tree (plus each
module's top-level code) gets an **effect summary** — which module-level
globals it reads, which it writes, and which IO surfaces it touches —
computed as a fixpoint over the call graph: a function's summary is its
own local effects joined with the summaries of everything it calls.
Local effects are classified from the project's one scope walk
(:attr:`ModuleInfo.nodes`), so they land on the call graph's own
function keys.  The join is set union over a finite universe, so
:func:`~repro.lint.project.fixpoint`'s sweeps converge on recursive and
mutually-recursive graphs, and the result does not depend on sweep
order.

On top of the summaries sit three *entry-point* discoveries:

* **fork-task entries** — first arguments of ``map_tasks(fn, ...)`` /
  ``scheduler.map(fn, ...)`` / ``.submit(fn, ...)`` call sites: these
  run in pool workers, so their transitive writes never survive the
  join unless explicitly merged back;
* **cache builders** — ``build`` arguments of
  ``TestbedCache.get_or_build(key, build)`` sites (plain names, dotted
  references, and the call targets inside ``lambda: ...`` builders):
  their transitive reads must be derivable from the key;
* **event handlers** — methods registered in a ``self.*handlers*``
  dict literal, plus the ``_handle_*`` naming convention inside
  ``repro.simulator.*``: the batched loop may reorder whole slices, so
  handlers must confine their effects to engine-owned instance state.

Four rules consume those views (all pragma-suppressible at both the
anchored definition line and the offending effect-site line):

* ``shared-mutable-global`` — task-reachable code writes a module-level
  global that no ``register_counter("module:_GLOBAL", ...)`` call
  (:func:`repro.obs.profiling.register_counter`) registers for
  merge-back;
* ``cache-key-escape`` — a cache builder transitively reads stateful
  module globals or ambient IO (environment, files, sockets);
* ``impure-event-handler`` — an event handler transitively writes
  module globals or performs IO;
* ``fork-held-resource`` — a module-level OS resource (file handle,
  lock, socket) created at import time — i.e. pre-fork — is used by
  task-reachable code.

Precision notes, so nobody over-trusts the output: instance-attribute
mutation (``self.x = ...``) is *engine-owned state* and never tracked;
aliasing a global into a local (``g = GLOBAL; g.append(...)``) hides
the write; attribute calls on arbitrary objects stay unresolved, same
as in the call graph.  Reads are only reported for *stateful* globals —
those some function in the tree actually writes, or OS resources —
so module-level constant tables do not drown the table.  Modules in
:data:`EFFECT_BOUNDARY_MODULES` are the hand-audited runtime machinery
(profiling, rng, testbed cache, scheduler): effects neither originate
from nor propagate through them.
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
)

from repro.lint.base import Rule
from repro.lint.findings import Finding, sort_findings
from repro.lint.project import (
    MODULE_SCOPE,
    DefNode,
    FunctionNode,
    ModuleInfo,
    ProjectModel,
    fixpoint,
    function_matches,
    render_chain,
)

SHARED_MUTABLE_GLOBAL = "shared-mutable-global"
CACHE_KEY_ESCAPE = "cache-key-escape"
IMPURE_EVENT_HANDLER = "impure-event-handler"
FORK_HELD_RESOURCE = "fork-held-resource"

EFFECT_RULES: Tuple[Rule, ...] = (
    Rule(SHARED_MUTABLE_GLOBAL,
         "fork-task-reachable code mutates a module-level global with no "
         "registered merge-back hook"),
    Rule(CACHE_KEY_ESCAPE,
         "testbed-cache builder reads state not derivable from its key "
         "arguments"),
    Rule(IMPURE_EVENT_HANDLER,
         "simulator event handler with effects outside engine-owned "
         "state"),
    Rule(FORK_HELD_RESOURCE,
         "pre-fork module-level OS resource used in task-reachable code"),
)

#: Hand-audited runtime machinery: the sanctioned clock, the entropy
#: boundary, and the cache/scheduler whose *job* is cross-process state
#: reconciliation.  Effects neither originate from nor flow through
#: these modules.
EFFECT_BOUNDARY_MODULES = frozenset({
    "repro.obs.profiling",
    "repro.utils.rng",
    "repro.runtime.cache",
    "repro.runtime.scheduler",
})

#: Event-handler naming convention only applies under this prefix.
_SIMULATOR_PREFIX = "repro.simulator"

#: Container-mutating method names on a module-global receiver.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "appendleft", "popleft",
    "sort", "reverse", "set",
})

#: Dotted call targets that constitute IO (ambient, non-key input or
#: output to the host).  Builtins ``open``/``input``/``print`` are
#: matched by bare name as well.
_IO_CALLS = frozenset({
    "open", "input", "print",
    "os.open", "os.fdopen", "os.remove", "os.unlink", "os.rename",
    "os.replace", "os.mkdir", "os.makedirs", "os.listdir", "os.scandir",
    "os.getcwd", "os.getenv", "os.uname", "os.system", "os.popen",
    "socket.socket", "socket.create_connection", "socket.gethostname",
    "sqlite3.connect",
    "subprocess.run", "subprocess.Popen", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "tempfile.mkstemp", "tempfile.mkdtemp", "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryFile",
    "shutil.copy", "shutil.copyfile", "shutil.copytree", "shutil.move",
    "shutil.rmtree",
    "urllib.request.urlopen",
    "platform.node", "getpass.getuser",
})

#: Module-level calls whose result is an OS resource held across fork.
_RESOURCE_FACTORIES = frozenset({
    "open", "os.fdopen", "socket.socket", "socket.create_connection",
    "sqlite3.connect", "threading.Lock", "threading.RLock",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "threading.Condition", "threading.Event", "multiprocessing.Lock",
    "multiprocessing.RLock", "multiprocessing.Queue",
    "tempfile.NamedTemporaryFile", "tempfile.TemporaryFile",
})

#: Module-level calls known to build immutable (or context-local)
#: values — never classified as shared mutable state.
_IMMUTABLE_FACTORIES = frozenset({
    "frozenset", "tuple", "re.compile", "collections.namedtuple",
    "typing.TypeVar", "typing.NewType", "contextvars.ContextVar",
})


@dataclass(frozen=True)
class GlobalVar:
    """One module-level binding: ``module:NAME``."""

    key: str
    module: str
    name: str
    path: str
    line: int
    kind: str  # "container" | "object" | "resource" | "contextvar" | "scalar"

    @property
    def mutable(self) -> bool:
        return self.kind in ("container", "object", "resource")


@dataclass
class LocalEffect:
    """Effects a single function performs directly (no callees).

    Each map goes ``target -> first line`` so chain messages can point
    at the concrete effect site.
    """

    reads: Dict[str, int] = field(default_factory=dict)
    writes: Dict[str, int] = field(default_factory=dict)
    io: Dict[str, int] = field(default_factory=dict)

    def note(self, table: Dict[str, int], target: str, line: int) -> None:
        if target not in table or line < table[target]:
            table[target] = line


@dataclass(frozen=True)
class EntryPoint:
    """One discovered entry: the function key plus the discovery site."""

    key: str
    site_path: str
    site_line: int
    via: str  # "map_tasks" | "scheduler" | "get_or_build" | ...
    #: every ``path:line`` that registers a task entry, first site
    #: included; a task entry is listed once however many call sites
    #: dispatch it
    call_sites: Tuple[str, ...] = ()


@dataclass
class EffectAnalysis:
    """The computed effect tables for one :class:`ProjectModel`."""

    model: ProjectModel
    globals: Dict[str, GlobalVar]
    local: Dict[str, LocalEffect]
    summaries: Dict[str, "Summary"]
    stateful: Set[str]
    task_entries: List[EntryPoint]
    cache_builders: List[EntryPoint]
    event_handlers: List[str]
    #: ``"module:_GLOBAL" -> "register_counter at path:line"``: globals
    #: whose worker-side mutations the scheduler folds back at join.
    merge_backs: Dict[str, str]

    def classify(self, key: str) -> str:
        """Lattice point of one function: pure < read < mutates < io."""
        summary = self.summaries.get(key)
        if summary is None:
            return "pure"
        if summary.io:
            return "io"
        if summary.writes:
            return "mutates"
        if summary.reads & self.stateful:
            return "read"
        return "pure"


@dataclass
class Summary:
    """Transitive effect sets (targets only; sites stay local)."""

    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    io: Set[str] = field(default_factory=set)

    def merge(self, other: "Summary") -> bool:
        """Union ``other`` in; True when anything changed."""
        before = (len(self.reads), len(self.writes), len(self.io))
        self.reads |= other.reads
        self.writes |= other.writes
        self.io |= other.io
        return (len(self.reads), len(self.writes), len(self.io)) != before


# -- global-variable discovery ---------------------------------------


def _classify_module_value(
    info: ModuleInfo, value: Optional[ast.expr]
) -> str:
    """Kind of a module-level binding, from the shape of its RHS."""
    if value is None:
        return "scalar"
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return "container"
    if isinstance(value, ast.Call):
        resolved = info.source.resolve(value.func)
        name = resolved
        if name is None and isinstance(value.func, ast.Name):
            name = value.func.id
        if name is None:
            return "object"
        if name in _RESOURCE_FACTORIES:
            return "resource"
        if name in _IMMUTABLE_FACTORIES or name.endswith("ContextVar"):
            return "contextvar" if name.endswith("ContextVar") else "scalar"
        if name in ("list", "dict", "set", "bytearray") or (
            name.startswith("collections.")
            and not name.endswith("namedtuple")
        ):
            return "container"
        return "object"
    return "scalar"


def _collect_globals(model: ProjectModel) -> Dict[str, GlobalVar]:
    table: Dict[str, GlobalVar] = {}

    def record(info: ModuleInfo, target: ast.expr,
               value: Optional[ast.expr], line: int) -> None:
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if name.startswith("__") or name in info.functions:
            return
        if name in info.classes or name in info.source.aliases:
            return
        key = f"{info.name}:{name}"
        if key in table:
            return  # first binding wins (later rebinds are not defs)
        table[key] = GlobalVar(
            key=key, module=info.name, name=name,
            path=info.source.display_path, line=line,
            kind=_classify_module_value(info, value),
        )

    def scan(info: ModuleInfo, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    record(info, target, stmt.value, stmt.lineno)
            elif isinstance(stmt, ast.AnnAssign):
                record(info, stmt.target, stmt.value, stmt.lineno)
            elif isinstance(stmt, ast.If):
                scan(info, stmt.body)
                scan(info, stmt.orelse)
            elif isinstance(stmt, ast.Try):
                scan(info, stmt.body)
                scan(info, stmt.orelse)
                scan(info, stmt.finalbody)

    for name in sorted(model.modules):
        scan(model.modules[name], model.modules[name].source.tree.body)
    return table


# -- local effect collection -----------------------------------------


def _collect_binds(node: DefNode) -> Tuple[Set[str], Set[str]]:
    """``(locally bound names, names declared global)`` for one def."""
    binds: Set[str] = set()
    declared: Set[str] = set()
    args = node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        binds.add(arg.arg)
    if args.vararg is not None:
        binds.add(args.vararg.arg)
    if args.kwarg is not None:
        binds.add(args.kwarg.arg)

    def walk(stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                binds.add(stmt.name)
                continue  # nested scopes are separate nodes
            if isinstance(stmt, ast.Global):
                declared.update(stmt.names)
                continue
            for child in ast.walk(stmt):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if isinstance(child, ast.Name) and isinstance(
                    child.ctx, (ast.Store, ast.Del)
                ):
                    binds.add(child.id)
                elif isinstance(child, ast.ExceptHandler) and child.name:
                    binds.add(child.name)
                elif isinstance(child, ast.Import):
                    for alias in child.names:
                        binds.add(alias.asname
                                  or alias.name.split(".")[0])
                elif isinstance(child, ast.ImportFrom):
                    for alias in child.names:
                        binds.add(alias.asname or alias.name)

    walk(node.body)
    return binds - declared, declared


class _EffectClassifier:
    """Attributes one module's effect sites to function keys.

    Reads the project's scope walk, so the keys line up with the call
    graph exactly.
    """

    def __init__(
        self,
        info: ModuleInfo,
        globals_table: Dict[str, GlobalVar],
        local: Dict[str, LocalEffect],
        handler_keys: Set[str],
    ) -> None:
        self._info = info
        self._globals = globals_table
        self._local = local
        self._handlers = handler_keys
        self._scopes: Dict[Optional[DefNode], Tuple[Set[str], Set[str]]] = {
            None: (set(), set()),  # <module>: nothing is local
        }

    def run(self) -> None:
        for node, owner, enclosing_class in self._info.nodes:
            self._classify(node, owner, enclosing_class)

    # -- effect classification ----------------------------------------

    def _scope(self, owner: FunctionNode) -> Tuple[Set[str], Set[str]]:
        """``(locally bound names, names declared global)`` of ``owner``.

        Keyed by the ``def`` node, not the key: a redefined function's
        earlier body keeps its own bindings.
        """
        scope = self._scopes.get(owner.node)
        if scope is None:
            assert owner.node is not None
            scope = self._scopes[owner.node] = _collect_binds(owner.node)
        return scope

    def _effects(self, owner: FunctionNode) -> LocalEffect:
        return self._local.setdefault(owner.key, LocalEffect())

    def _global_key_for(
        self, owner: FunctionNode, node: ast.expr
    ) -> Optional[str]:
        """``module:NAME`` when ``node`` denotes a module-level global."""
        if isinstance(node, ast.Name):
            binds, declared = self._scope(owner)
            if node.id in binds:
                return None
            if node.id in declared or (
                node.id not in self._info.source.aliases
            ):
                key = f"{self._info.name}:{node.id}"
                return key if key in self._globals else None
        resolved = self._info.source.resolve(node)
        if resolved is None or not resolved.startswith("repro"):
            return None
        module, _, name = resolved.rpartition(".")
        if not module:
            return None
        key = f"{module}:{name}"
        return key if key in self._globals else None

    def _own_definition(self, owner: FunctionNode, key: str) -> bool:
        # A module initialising (or re-reading) its own globals at
        # import time is definition, not shared-state traffic.
        return owner.qualname == MODULE_SCOPE and key.startswith(
            f"{self._info.name}:"
        )

    def _note_read(self, owner: FunctionNode, key: str, line: int) -> None:
        if not self._own_definition(owner, key):
            self._effects(owner).note(self._effects(owner).reads, key, line)

    def _note_write(self, owner: FunctionNode, key: str, line: int) -> None:
        if not self._own_definition(owner, key):
            self._effects(owner).note(self._effects(owner).writes, key, line)

    def _note_io(self, owner: FunctionNode, target: str, line: int) -> None:
        self._effects(owner).note(self._effects(owner).io, target, line)

    def _classify(
        self, node: ast.AST, owner: FunctionNode,
        enclosing_class: Optional[str],
    ) -> None:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets: List[ast.expr]
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            else:
                targets = [node.target]
            for target in targets:
                self._classify_store(node, target, owner)
            if isinstance(node, ast.Assign):
                self._maybe_handler_table(node, enclosing_class)
            return
        if isinstance(node, ast.Call):
            self._classify_call(node, owner)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            key = self._global_key_for(owner, node)
            if key is not None:
                self._note_read(owner, key, node.lineno)
            return
        if isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            resolved = self._info.source.resolve(node)
            if resolved == "os.environ":
                self._note_io(owner, "os.environ", node.lineno)
                return
            key = self._global_key_for(owner, node)
            if key is not None:
                self._note_read(owner, key, node.lineno)

    def _classify_store(
        self, stmt: ast.AST, target: ast.expr, owner: FunctionNode
    ) -> None:
        line = int(getattr(stmt, "lineno", 1))
        if isinstance(target, ast.Name):
            if target.id in self._scope(owner)[1]:
                key = f"{self._info.name}:{target.id}"
                if key in self._globals:
                    self._note_write(owner, key, line)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            key = self._global_key_for(owner, target.value)
            if key is not None:
                self._note_write(owner, key, line)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._classify_store(stmt, element, owner)

    def _classify_call(self, node: ast.Call, owner: FunctionNode) -> None:
        func = node.func
        resolved = self._info.source.resolve(func)
        name = resolved
        if name is None and isinstance(func, ast.Name):
            if func.id in ("open", "input", "print") and (
                func.id not in self._scope(owner)[0]
                and func.id not in self._info.functions
            ):
                name = func.id
        if name is not None and name in _IO_CALLS:
            self._note_io(owner, name, node.lineno)
            return
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
        ):
            key = self._global_key_for(owner, func.value)
            if key is not None:
                kind = self._globals[key].kind
                if kind == "contextvar":
                    return  # context-local by design (ambient pattern)
                self._note_write(owner, key, node.lineno)

    def _maybe_handler_table(
        self, node: ast.Assign, enclosing_class: Optional[str],
    ) -> None:
        """``self._handlers = {Type: self._handle_x, ...}`` registration."""
        if enclosing_class is None or not isinstance(node.value, ast.Dict):
            return
        if not any(
            isinstance(t, ast.Attribute) and "handler" in t.attr.lower()
            for t in node.targets
        ):
            return
        for value in node.value.values:
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id in ("self", "cls")
            ):
                key = self._info.functions.get(
                    f"{enclosing_class}.{value.attr}"
                )
                if key is not None:
                    self._handlers.add(key)


# -- entry-point discovery -------------------------------------------


def _resolve_callable_ref(
    model: ProjectModel, info: ModuleInfo, node: ast.expr
) -> Optional[str]:
    """Function key for a bare callable reference (not a call)."""
    if isinstance(node, ast.Call):
        # functools.partial(fn, ...) — unwrap to the first argument.
        ctor = info.source.resolve(node.func)
        is_partial = ctor == "functools.partial" or (
            isinstance(node.func, ast.Name) and node.func.id == "partial"
        )
        if is_partial and node.args:
            return _resolve_callable_ref(model, info, node.args[0])
        return None
    return model.resolve_reference(info, node)


def _lambda_targets(model: ProjectModel, node: ast.Lambda) -> List[str]:
    """Internal call targets inside a ``lambda: ...`` builder body."""
    edges = (model.call_edges.get(child) for child in ast.walk(node.body))
    return [edge.target for edge in edges
            if edge is not None and edge.internal]


def _is_task_dispatch(info: ModuleInfo, node: ast.Call) -> bool:
    func = node.func
    resolved = info.source.resolve(func)
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
    if isinstance(func, ast.Attribute) and func.attr in ("map", "submit"):
        receiver = func.value
        if isinstance(receiver, ast.Name):
            return "scheduler" in receiver.id.lower()
        if isinstance(receiver, ast.Call):
            ctor = info.source.resolve(receiver.func)
            if ctor is not None and ctor.endswith("TaskScheduler"):
                return True
            return (
                isinstance(receiver.func, ast.Name)
                and receiver.func.id == "TaskScheduler"
            )
    return False


def _discover_entries(
    model: ProjectModel,
) -> Tuple[List[EntryPoint], List[EntryPoint]]:
    """``(task entries, cache-builder roots)`` from every call site.

    A task entry is listed once, at its first call site; a cache
    builder once per registering site, which its findings name.
    """
    tasks: Dict[str, Dict[Tuple[str, int], str]] = {}
    builders: Dict[Tuple[str, str, int], EntryPoint] = {}
    for name in sorted(model.modules):
        info = model.modules[name]
        path = info.source.display_path
        for node in info.calls:
            if _is_task_dispatch(info, node) and node.args:
                via = ("map_tasks"
                       if not isinstance(node.func, ast.Attribute)
                       else f"scheduler.{node.func.attr}")
                key = _resolve_callable_ref(model, info, node.args[0])
                if key is not None:
                    tasks.setdefault(key, {}).setdefault(
                        (path, node.lineno), via
                    )
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr == "get_or_build"):
                continue
            build: Optional[ast.expr] = None
            if len(node.args) >= 2:
                build = node.args[1]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "build":
                        build = keyword.value
            if build is None:
                continue
            if isinstance(build, ast.Lambda):
                keys = _lambda_targets(model, build)
            else:
                resolved_key = _resolve_callable_ref(model, info, build)
                keys = [resolved_key] if resolved_key is not None else []
            for key in keys:
                entry = EntryPoint(key=key, site_path=path,
                                   site_line=node.lineno,
                                   via="get_or_build")
                builders.setdefault((key, path, node.lineno), entry)
    task_entries = []
    for key in sorted(tasks):
        sites = sorted(tasks[key])
        path, line = sites[0]
        task_entries.append(EntryPoint(
            key=key, site_path=path, site_line=line,
            via=tasks[key][path, line],
            call_sites=tuple(f"{p}:{n}" for p, n in sites),
        ))
    return task_entries, [builders[k] for k in sorted(builders)]


def _collect_merge_backs(model: ProjectModel) -> Dict[str, str]:
    """String-literal names of every ``register_counter(...)`` call."""
    merge_backs: Dict[str, str] = {}
    for name in sorted(model.modules):
        info = model.modules[name]
        for node in info.calls:
            callee = info.source.resolve(node.func) or (
                node.func.id if isinstance(node.func, ast.Name) else ""
            )
            first = node.args[0] if node.args else None
            if (
                callee.rpartition(".")[2] == "register_counter"
                and isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                merge_backs.setdefault(
                    first.value,
                    f"register_counter at {info.source.display_path}:"
                    f"{node.lineno}",
                )
    return merge_backs


def _discover_handlers(
    model: ProjectModel, registered: Set[str]
) -> List[str]:
    handlers = set(registered)
    for key in model.functions:
        node = model.functions[key]
        if not node.module.startswith(_SIMULATOR_PREFIX):
            continue
        parts = node.qualname.rsplit(".", 1)
        if len(parts) == 2 and parts[1].startswith("_handle_"):
            handlers.add(key)
    return sorted(handlers)


# -- the fixpoint -----------------------------------------------------


def _compute_summaries(
    model: ProjectModel, local: Dict[str, LocalEffect]
) -> Dict[str, Summary]:
    summaries: Dict[str, Summary] = {}
    for key, node in model.functions.items():
        effect = local.get(key)
        summary = Summary()
        if effect is not None and node.module not in EFFECT_BOUNDARY_MODULES:
            summary.reads = set(effect.reads)
            summary.writes = set(effect.writes)
            summary.io = set(effect.io)
        summaries[key] = summary

    def step(key: str) -> bool:
        node = model.functions[key]
        if node.module in EFFECT_BOUNDARY_MODULES:
            return False  # boundary functions keep an empty summary
        changed = False
        for edge in node.edges:
            if not edge.internal:
                continue
            if model.functions[edge.target].module in EFFECT_BOUNDARY_MODULES:
                continue
            if summaries[key].merge(summaries[edge.target]):
                changed = True
        return changed

    fixpoint(summaries, step)
    return summaries


# -- reachability and chains -----------------------------------------


def _paths_from(
    model: ProjectModel, start: str
) -> Dict[str, Tuple[str, ...]]:
    """Shortest call paths from ``start``, pruned at effect boundaries."""
    if start not in model.functions:
        return {}
    paths: Dict[str, Tuple[str, ...]] = {start: (start,)}
    queue: Deque[str] = deque([start])
    while queue:
        current = queue.popleft()
        targets = sorted({
            edge.target for edge in model.functions[current].edges
            if edge.internal
        })
        for target in targets:
            if target in paths:
                continue
            node = model.functions.get(target)
            if node is None or node.module in EFFECT_BOUNDARY_MODULES:
                continue
            paths[target] = (*paths[current], target)
            queue.append(target)
    return paths


# -- the analysis entry point ----------------------------------------


def analyze(model: ProjectModel) -> EffectAnalysis:
    """Run the whole effect pass over a built :class:`ProjectModel`."""
    globals_table = _collect_globals(model)
    local: Dict[str, LocalEffect] = {}
    registered_handlers: Set[str] = set()
    for name in sorted(model.modules):
        _EffectClassifier(
            model.modules[name], globals_table, local, registered_handlers,
        ).run()
    stateful: Set[str] = {
        key for key, var in globals_table.items()
        if var.kind == "resource"
    }
    for effect in local.values():
        stateful.update(effect.writes)
    # Drop reads of never-written, non-resource globals everywhere: a
    # module-level table nobody mutates is a constant, not state.
    for effect in local.values():
        effect.reads = {
            key: line for key, line in effect.reads.items()
            if key in stateful
        }
    summaries = _compute_summaries(model, local)
    task_entries, cache_builders = _discover_entries(model)
    handlers = _discover_handlers(model, registered_handlers)
    return EffectAnalysis(
        model=model,
        globals=globals_table,
        local=local,
        summaries=summaries,
        stateful=stateful,
        task_entries=task_entries,
        cache_builders=cache_builders,
        event_handlers=handlers,
        merge_backs=_collect_merge_backs(model),
    )


# -- the four rules ---------------------------------------------------


def _site_suppressed(
    model: ProjectModel, rule_id: str, site_key: str, line: int
) -> bool:
    node = model.functions.get(site_key)
    if node is None:
        return False
    info = model.modules.get(node.module)
    return info is not None and info.source.is_suppressed(rule_id, line)


def _effect_terminal(
    model: ProjectModel, site_key: str, target: str, line: int
) -> str:
    node = model.functions[site_key]
    return f"{target} ({node.path}:{line})"


def _report_reached(
    analysis: EffectAnalysis,
    rule_id: str,
    entries: Iterable[Tuple[str, str]],
    sites: Callable[[LocalEffect], Iterable[Tuple[str, int, str]]],
    message: Callable[[str, str, str, str, str], str],
) -> List[Finding]:
    """One finding per (entry, effect target) reachable from an entry.

    ``entries`` are ``(function key, registration site)`` pairs;
    ``sites(effect)`` lists one reached function's offending
    ``(target, line, verb)`` triples.  The nearest reached function
    (then the smallest key) gives a target's call chain; a pragma at
    the effect site skips that site.  ``message(qualname, site, target,
    verb, chain)`` renders the finding, anchored at the entry's ``def``.
    """
    model = analysis.model
    findings: List[Finding] = []
    seen: Set[Tuple[str, str]] = set()
    for key, site in entries:
        paths = _paths_from(model, key)
        if not paths:
            continue
        node = model.functions[key]
        for reached in sorted(paths, key=lambda k: (len(paths[k]), k)):
            effect = analysis.local.get(reached)
            if effect is None:
                continue
            for target, line, verb in sites(effect):
                if (key, target) in seen or _site_suppressed(
                    model, rule_id, reached, line
                ):
                    continue
                seen.add((key, target))
                chain = render_chain(
                    model, paths[reached],
                    _effect_terminal(model, reached, target, line),
                )
                findings.append(Finding(
                    rule_id=rule_id,
                    path=node.path,
                    line=node.line,
                    message=message(node.qualname, site, target, verb, chain),
                ))
    return findings


def _task_entries(analysis: EffectAnalysis) -> List[Tuple[str, str]]:
    return [(entry.key, "") for entry in analysis.task_entries]


def check_shared_mutable_globals(
    analysis: EffectAnalysis,
) -> List[Finding]:
    """Task-reachable writes to unmerged module globals."""

    def sites(effect: LocalEffect) -> Iterable[Tuple[str, int, str]]:
        for target in sorted(effect.writes):
            var = analysis.globals.get(target)
            if target in analysis.merge_backs or (
                var is not None and var.kind == "contextvar"
            ):
                continue
            yield target, effect.writes[target], ""

    return _report_reached(
        analysis, SHARED_MUTABLE_GLOBAL, _task_entries(analysis), sites,
        lambda qualname, _site, target, _verb, chain: (
            f"fork task {qualname} mutates module-level {target} with no "
            f"registered merge-back hook: {chain}; worker-local mutations "
            f"are dropped at join — return the state with the task result "
            f"or register a merge-back (repro.obs.profiling.register_counter)"
        ),
    )


def check_cache_key_escape(analysis: EffectAnalysis) -> List[Finding]:
    """Cache builders reading state outside their key arguments."""

    def sites(effect: LocalEffect) -> Iterable[Tuple[str, int, str]]:
        for table, verb in (
            (effect.reads, "reads module state"),
            (effect.writes, "mutates module state"),
            (effect.io, "performs IO via"),
        ):
            for target in sorted(table):
                yield target, table[target], verb

    return _report_reached(
        analysis, CACHE_KEY_ESCAPE,
        [(e.key, f"{e.site_path}:{e.site_line}")
         for e in analysis.cache_builders],
        sites,
        lambda qualname, site, target, verb, chain: (
            f"cache builder {qualname} (registered at {site}) {verb} "
            f"{target}, which is not derivable from its key arguments: "
            f"{chain}; a stale hit returns a value built from state the "
            f"key never saw"
        ),
    )


def check_impure_event_handlers(
    analysis: EffectAnalysis,
) -> List[Finding]:
    """Handlers whose effects escape engine-owned instance state."""

    def sites(effect: LocalEffect) -> Iterable[Tuple[str, int, str]]:
        for table, verb in (
            (effect.writes, "writes"), (effect.io, "performs IO via"),
        ):
            for target in sorted(table):
                yield target, table[target], verb

    return _report_reached(
        analysis, IMPURE_EVENT_HANDLER,
        [(handler, "") for handler in analysis.event_handlers],
        sites,
        lambda qualname, _site, target, verb, chain: (
            f"event handler {qualname} {verb} {target} outside "
            f"engine-owned state: {chain}; the batched loop reorders whole "
            f"slices, so handler effects must stay on the engine instance"
        ),
    )


def check_fork_held_resources(
    analysis: EffectAnalysis,
) -> List[Finding]:
    """Pre-fork module-level resources used by task-reachable code."""
    resources = {
        key for key, var in analysis.globals.items()
        if var.kind == "resource"
    }

    def sites(effect: LocalEffect) -> Iterable[Tuple[str, int, str]]:
        uses: Dict[str, int] = {}
        for table in (effect.reads, effect.writes):
            for target, line in table.items():
                if target in resources:
                    uses[target] = min(line, uses.get(target, line))
        return [(target, uses[target], "") for target in sorted(uses)]

    def message(
        qualname: str, _site: str, target: str, _verb: str, chain: str
    ) -> str:
        var = analysis.globals[target]
        return (
            f"fork task {qualname} uses {target}, an OS resource created "
            f"at import time ({var.path}:{var.line}) and inherited across "
            f"fork: {chain}; open it inside the task (or after the pool "
            f"starts) so workers get their own handle"
        )

    return _report_reached(
        analysis, FORK_HELD_RESOURCE, _task_entries(analysis), sites,
        message,
    )


def effect_findings(analysis: EffectAnalysis) -> List[Finding]:
    """All four rules, canonically ordered (site pragmas applied)."""
    return sort_findings([
        *check_shared_mutable_globals(analysis),
        *check_cache_key_escape(analysis),
        *check_impure_event_handlers(analysis),
        *check_fork_held_resources(analysis),
    ])


def effect_rule_catalog() -> Dict[str, str]:
    """``rule id -> summary`` for the effect rules."""
    return {rule.rule_id: rule.summary for rule in EFFECT_RULES}


# -- the effect report (CLI / CI artifact) ---------------------------


def effect_report(
    analysis: EffectAnalysis,
    findings: Iterable[Finding],
    function: Optional[str] = None,
) -> Dict[str, object]:
    """Deterministic JSON-ready payload of the whole effect table.

    ``function`` filters the function table to keys equal to, or whose
    qualname matches, the given name (``repro lint effects --function``).
    """
    model = analysis.model
    task_reachable: Set[str] = set()
    for entry in analysis.task_entries:
        task_reachable.update(_paths_from(model, entry.key))
    entry_keys = {e.key for e in analysis.task_entries}
    builder_keys = {e.key for e in analysis.cache_builders}
    handler_keys = set(analysis.event_handlers)

    functions: List[Dict[str, object]] = []
    for key in sorted(model.functions):
        node = model.functions[key]
        if not function_matches(function, node):
            continue
        summary = analysis.summaries[key]
        functions.append({
            "function": key,
            "path": node.path,
            "line": node.line,
            "effect": analysis.classify(key),
            "reads": sorted(summary.reads & analysis.stateful),
            "writes": sorted(summary.writes),
            "io": sorted(summary.io),
            "task_entry": key in entry_keys,
            "task_reachable": key in task_reachable,
            "cache_builder": key in builder_keys,
            "event_handler": key in handler_keys,
        })
    globals_rows: List[Dict[str, object]] = []
    for key in sorted(analysis.globals):
        var = analysis.globals[key]
        if not (var.mutable or key in analysis.stateful):
            continue
        globals_rows.append({
            "global": key,
            "path": var.path,
            "line": var.line,
            "kind": var.kind,
            "stateful": key in analysis.stateful,
            "merge_back": analysis.merge_backs.get(key),
        })
    return {
        "functions": functions,
        "globals": globals_rows,
        "entry_points": {
            "tasks": [
                {"function": e.key, "site": f"{e.site_path}:{e.site_line}",
                 "via": e.via, "call_sites": list(e.call_sites)}
                for e in analysis.task_entries
            ],
            "cache_builders": [
                {"function": e.key, "site": f"{e.site_path}:{e.site_line}",
                 "via": e.via}
                for e in analysis.cache_builders
            ],
            "event_handlers": list(analysis.event_handlers),
        },
        "findings": [finding.to_dict() for finding in findings],
    }
