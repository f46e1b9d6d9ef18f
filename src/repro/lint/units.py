"""Interprocedural dimensional analysis: units and time domains.

The reproduction juggles three clocks: the *simulated* millisecond
clock the engine advances (event ``timestamp_ms``, sampler ticks,
RTTs, ``partition_timeout_ms``), the *host* monotonic
second clock behind :func:`repro.obs.profiling.perf_seconds` (scheduler
deadlines, retry backoff, bench timing), and the *unix epoch*
(``RunManifest.created_unix``).  Nothing in Python stops a seconds
value flowing into a milliseconds slot, or a host-clock stamp being
compared with sim time — both are plain floats.  This module closes
that gap the same way :mod:`repro.lint.effects` closed the effect gap:
a whole-program pass over the PR 5 call graph.

Every function gets a **unit summary** — a lattice point per parameter
plus one for its return value — inferred from three sources and joined
to a fixpoint over the call graph:

* **naming conventions** — ``*_ms`` is milliseconds, ``*_s`` /
  ``*_sec`` / ``*_seconds`` is seconds, ``*_unix`` is a unix-epoch
  timestamp; duration words (``timeout``, ``rtt``, ``backoff``, ...)
  and timestamp words (``now``, ``deadline``, ``created``, ...) set
  the duration-vs-timestamp role;
* **provenance anchors** — ``perf_seconds()`` yields host-seconds,
  ``time.time()`` yields unix-epoch, the ``.now_ms`` /
  ``.timestamp_ms`` attributes are the simulated clock, and the
  :mod:`repro.types` aliases (``Ms``/``Seconds``/``SimMs``/
  ``UnixSeconds``) declare units in annotations;
* **propagation** — through assignments, arithmetic (``timestamp -
  timestamp`` is a duration, ``timestamp + duration`` a timestamp,
  scaling by a dimensionless factor preserves the unit), returns, and
  call-argument binding.  Calls bind through the edges the project
  model resolved once at build time.  The per-field lattice is
  ``unknown < concrete < mixed`` and summaries only climb it, so
  :func:`~repro.lint.project.fixpoint`'s sweeps converge on recursive
  and mutually-recursive call chains of any depth.  A body pushes
  inflows into its callees' summaries and the first concrete inflow
  names a parameter's origin, so the sorted sweep order is part of the
  output.

The lattice element is ``scale x domain x role``:

* ``scale`` — ``ms`` | ``s`` (the dimension; unknown = dimensionless);
* ``domain`` — ``sim`` | ``host`` | ``epoch`` (which clock);
* ``role`` — ``duration`` | ``timestamp``.

Four rules consume the summaries (pragma-suppressible at the reported
line, baseline-integrated like every other rule):

* ``unit-mismatch`` — a milliseconds value meets a seconds value: in
  ``+``/``-``/comparison arithmetic, in an assignment to a
  unit-suffixed name, or flowing into a call parameter whose declared
  unit differs;
* ``time-domain-mixing`` — sim, host and epoch clocks are unrelated
  timelines; arithmetic or bindings mixing them are reported with the
  provenance chain of each side (anchor, and the call chain a domain
  travelled through);
* ``magic-unit-conversion`` — a bare ``* 1000`` / ``/ 1000`` on a time
  value: route conversions through :func:`repro.types.ms_to_s` /
  :func:`repro.types.s_to_ms` (the helpers' home module is exempt);
* ``unitless-duration-boundary`` — a public function parameter that
  names a duration/timestamp (``timeout``, ``rtt``, ``deadline``, ...)
  but carries neither a unit suffix nor a :mod:`repro.types` time
  annotation, so call sites cannot know what to pass.

Precision notes: the analysis is flow-insensitive within a statement
list (last assignment wins, loop bodies are visited once), container
element units survive subscripting but not literal construction, and
attribute state is inferred from the attribute's *name* only.  Units
never override a declared (name/annotation) unit at a parameter — the
declaration is ground truth and a conflicting inflow is the finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.lint.base import Rule
from repro.lint.findings import Finding, sort_findings
from repro.lint.project import (
    FunctionNode,
    ModuleInfo,
    ProjectModel,
    fixpoint,
    function_matches,
)

UNIT_MISMATCH = "unit-mismatch"
TIME_DOMAIN_MIXING = "time-domain-mixing"
MAGIC_UNIT_CONVERSION = "magic-unit-conversion"
UNITLESS_DURATION_BOUNDARY = "unitless-duration-boundary"

UNIT_RULES: Tuple[Rule, ...] = (
    Rule(UNIT_MISMATCH,
         "milliseconds value meets a seconds value in arithmetic, "
         "assignment, or call-argument binding"),
    Rule(TIME_DOMAIN_MIXING,
         "simulated, host-monotonic, and unix-epoch clock values mixed "
         "in arithmetic or a call binding"),
    Rule(MAGIC_UNIT_CONVERSION,
         "bare * 1000 / / 1000 time conversion outside the sanctioned "
         "repro.types helpers"),
    Rule(UNITLESS_DURATION_BOUNDARY,
         "public duration/timestamp parameter with no unit suffix or "
         "repro.types time annotation"),
)

#: Top element of each lattice field: two different concrete values met.
MIXED = "mixed"

_CONCRETE_SCALES = ("ms", "s")
_CONCRETE_DOMAINS = ("sim", "host", "epoch")

#: The conversion helpers live here; its internals are exempt from
#: ``magic-unit-conversion`` (something has to hold the bare factor).
_CONVERSION_HOME = "repro.types"

#: Longest-match-first unit suffixes on names and attributes.
_SCALE_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_seconds", "s"),
    ("_secs", "s"),
    ("_sec", "s"),
    ("_unix", "s"),
    ("_ms", "ms"),
    ("_s", "s"),
)

#: Suffixes marking a value as explicitly dimensionless even when the
#: name contains a time word (``wall_ratio``, ``request_rate_rps``).
_DIMENSIONLESS_SUFFIXES = (
    "_ratio", "_frac", "_fraction", "_pct", "_percent", "_rate", "_rps",
    "_count", "_counts", "_factor", "_scale", "_mult", "_multiplier",
    "_prob", "_probability", "_share", "_per_core",
)

#: Name parts implying the duration role.
_DURATION_WORDS = frozenset({
    "timeout", "timeouts", "rtt", "rtts", "latency", "latencies",
    "backoff", "elapsed", "duration", "durations", "interval",
    "intervals", "delay", "delays", "ttl", "expiry", "wait", "waits",
    "lag", "wall", "uptime", "age",
})

#: Name parts implying the timestamp role.
_TIMESTAMP_WORDS = frozenset({
    "now", "deadline", "deadlines", "timestamp", "timestamps",
    "created", "started", "submitted", "until", "expires", "at",
})

#: Duration/timestamp words that *demand* a unit suffix on a public
#: parameter (``unitless-duration-boundary``).  Narrower than the role
#: words: only names where the unit genuinely matters at the boundary.
_BOUNDARY_WORDS = frozenset({
    "timeout", "timeouts", "deadline", "deadlines", "rtt", "rtts",
    "latency", "latencies", "backoff", "duration", "durations",
    "interval", "intervals", "delay", "delays", "ttl", "expiry",
    "elapsed", "timestamp", "timestamps",
})

#: Known clock reads, by resolved dotted call target.
_CALL_ANCHORS: Dict[str, "Unit"] = {}  # populated below Unit

#: Attribute names that *are* the simulated clock, wherever they appear.
_SIM_CLOCK_ATTRS = frozenset({"now_ms", "timestamp_ms"})

#: ``repro.types`` aliases recognised in annotations.
_ANNOTATION_UNITS: Dict[str, "Unit"] = {}  # populated below Unit

#: Builtins whose result carries the joined unit of their arguments.
_UNIT_PRESERVING_BUILTINS = frozenset({
    "min", "max", "abs", "round", "float", "sum", "sorted",
})


@dataclass(frozen=True)
class Unit:
    """One point of the ``scale x domain x role`` lattice.

    ``None`` is the bottom (unknown) element of each field and
    :data:`MIXED` the top; everything in between is a concrete value.
    """

    scale: Optional[str] = None    # "ms" | "s" | MIXED
    domain: Optional[str] = None   # "sim" | "host" | "epoch" | MIXED
    role: Optional[str] = None     # "duration" | "timestamp" | MIXED

    def is_empty(self) -> bool:
        return self.scale is None and self.domain is None and (
            self.role is None
        )

    def label(self) -> str:
        """Deterministic human-readable rendering for messages/tables."""
        if self.is_empty():
            return "dimensionless"
        bits: List[str] = []
        if self.domain is not None:
            bits.append("unix" if self.domain == "epoch" else self.domain)
        if self.scale is not None:
            bits.append(self.scale)
        base = "-".join(bits) if bits else "time"
        if self.role is not None:
            base = f"{base} {self.role}"
        return base


_CALL_ANCHORS.update({
    "repro.obs.profiling.perf_seconds": Unit("s", "host", "timestamp"),
    "time.time": Unit("s", "epoch", "timestamp"),
    "time.perf_counter": Unit("s", "host", "timestamp"),
    "time.monotonic": Unit("s", "host", "timestamp"),
    "time.process_time": Unit("s", "host", "timestamp"),
    "time.thread_time": Unit("s", "host", "timestamp"),
})

_ANNOTATION_UNITS.update({
    "Ms": Unit("ms"),
    "Seconds": Unit("s", "host"),
    "SimMs": Unit("ms", "sim"),
    "UnixSeconds": Unit("s", "epoch", "timestamp"),
})


def _join_field(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a is None:
        return b
    if b is None or a == b:
        return a
    return MIXED


def join(a: Unit, b: Unit) -> Unit:
    """Pointwise lattice join (``unknown < concrete < mixed``)."""
    return Unit(
        scale=_join_field(a.scale, b.scale),
        domain=_join_field(a.domain, b.domain),
        role=_join_field(a.role, b.role),
    )


def unit_from_name(name: str) -> Unit:
    """Unit implied by a bare identifier or attribute name."""
    lowered = name.lower()
    for suffix in _DIMENSIONLESS_SUFFIXES:
        if lowered.endswith(suffix):
            return Unit()
    scale: Optional[str] = None
    domain: Optional[str] = None
    role: Optional[str] = None
    for suffix, implied in _SCALE_SUFFIXES:
        if lowered.endswith(suffix):
            scale = implied
            break
    parts = lowered.split("_")
    if "unix" in parts or "epoch" in parts:
        domain = "epoch"
        scale = scale or "s"
        role = "timestamp"
    if role is None:
        if any(part in _TIMESTAMP_WORDS for part in parts):
            role = "timestamp"
        elif any(part in _DURATION_WORDS for part in parts):
            role = "duration"
    return Unit(scale=scale, domain=domain, role=role)


def unit_from_annotation(
    node: Optional[ast.expr], info: ModuleInfo
) -> Unit:
    """Unit declared by a :mod:`repro.types` time alias annotation."""
    if node is None:
        return Unit()
    if isinstance(node, ast.Subscript):
        # Optional[Ms] / Optional["Seconds"] — look inside the wrapper.
        return unit_from_annotation(node.slice, info)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _ANNOTATION_UNITS.get(node.value.split(".")[-1], Unit())
    resolved = info.source.resolve(node)
    terminal: Optional[str] = None
    if resolved is not None:
        terminal = resolved.split(".")[-1]
    elif isinstance(node, ast.Name):
        terminal = node.id
    elif isinstance(node, ast.Attribute):
        terminal = node.attr
    if terminal is None:
        return Unit()
    return _ANNOTATION_UNITS.get(terminal, Unit())


# -- the per-function definition table --------------------------------


@dataclass
class _FnDef:
    """One function's parameters and the units they declare."""

    fn: FunctionNode
    params: List[str]
    declared: Dict[str, Unit]
    public: bool

    @classmethod
    def of(cls, fn: FunctionNode, info: ModuleInfo) -> "_FnDef":
        if fn.node is None:  # a module's top-level code
            return cls(fn=fn, params=[], declared={}, public=False)
        args = fn.node.args
        ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        return cls(
            fn=fn,
            params=[arg.arg for arg in ordered],
            declared={
                arg.arg: join(unit_from_name(arg.arg),
                              unit_from_annotation(arg.annotation, info))
                for arg in ordered
            },
            public=_is_public_qualname(fn.qualname),
        )


@dataclass
class FnUnits:
    """The evolving interprocedural summary of one function."""

    params: Dict[str, Unit] = field(default_factory=dict)
    returns: Unit = field(default_factory=Unit)
    #: ``param -> provenance chain`` recording where a *flowed* clock
    #: domain came from; set once (first concrete inflow) so chains
    #: stay stable across fixpoint sweeps.
    param_origin: Dict[str, str] = field(default_factory=dict)
    return_origin: Optional[str] = None


def _is_public_qualname(qualname: str) -> bool:
    for segment in qualname.split("."):
        if segment.startswith("_") and not (
            segment.startswith("__") and segment.endswith("__")
        ):
            return False
    return True


# -- the analysis container -------------------------------------------


@dataclass
class UnitAnalysis:
    """Computed unit tables for one :class:`ProjectModel`."""

    model: ProjectModel
    defs: Dict[str, _FnDef]
    summaries: Dict[str, FnUnits]
    findings: List[Finding] = field(default_factory=list)

    def summary(self, key: str) -> FnUnits:
        return self.summaries[key]


#: One evaluated expression: its unit and a provenance note for
#: messages (``None`` when there is nothing interesting to say).
_Val = Tuple[Unit, Optional[str]]


class _BodyAnalyzer:
    """One forward pass over one function body.

    During fixpoint sweeps (``report=False``) it only propagates units
    into callee summaries and the function's return unit; in the final
    reporting pass it also emits findings (summaries are stable by
    then, so the extra pass changes nothing).
    """

    def __init__(
        self, analysis: UnitAnalysis, key: str, report: bool
    ) -> None:
        self._a = analysis
        self._fn = analysis.model.functions[key]
        self._info = analysis.model.modules[self._fn.module]
        self._report = report
        self._changed = False
        self.findings: List[Finding] = []
        summary = analysis.summaries[key]
        self._env: Dict[str, _Val] = {}
        for name in analysis.defs[key].params:
            unit = summary.params[name]
            why = f"parameter '{name}'"
            origin = summary.param_origin.get(name)
            if origin is not None:
                why = f"{why} <- {origin}"
            self._env[name] = (unit, why)
        self._ret = Unit()
        self._ret_why: Optional[str] = None

    # -- driver -------------------------------------------------------

    def run(self) -> bool:
        for stmt in self._fn.body:
            self._stmt(stmt)
        summary = self._a.summaries[self._fn.key]
        new_ret = join(summary.returns, self._ret)
        if new_ret != summary.returns:
            summary.returns = new_ret
            self._changed = True
        if (
            summary.return_origin is None
            and new_ret.domain in _CONCRETE_DOMAINS
            and self._ret_why is not None
        ):
            summary.return_origin = self._ret_why
        return self._changed

    # -- findings -----------------------------------------------------

    def _emit(self, rule_id: str, line: int, message: str) -> None:
        if not self._report:
            return
        if self._info.source.is_suppressed(rule_id, line):
            return
        self.findings.append(Finding(
            rule_id=rule_id, path=self._fn.path, line=line,
            message=message,
        ))

    @staticmethod
    def _describe(unit: Unit, why: Optional[str]) -> str:
        return f"{unit.label()} ({why})" if why else unit.label()

    # -- statements ---------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # separate function key; analysed on its own
        if isinstance(node, ast.ClassDef):
            # Class bodies execute in the enclosing scope (matches the
            # call-graph ownership rules) — dataclass fields included.
            for stmt in node.body:
                self._stmt(stmt)
            return
        if isinstance(node, ast.Assign):
            value = self._eval(node.value)
            for target in node.targets:
                self._assign(target, value, node.lineno)
            return
        if isinstance(node, ast.AnnAssign):
            declared = unit_from_annotation(node.annotation, self._info)
            value = (Unit(), None) if node.value is None else (
                self._eval(node.value)
            )
            merged = (join(declared, value[0]), value[1])
            self._assign(node.target, merged, node.lineno,
                         annotation=declared)
            return
        if isinstance(node, ast.AugAssign):
            target = self._load_target(node.target)
            value = self._eval(node.value)
            self._combine_additive(target, value, node.lineno,
                                   op_label=type(node.op).__name__)
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                unit, why = self._eval(node.value)
                self._ret = join(self._ret, unit)
                if self._ret_why is None and why is not None and (
                    unit.domain in _CONCRETE_DOMAINS
                ):
                    self._ret_why = why
            return
        if isinstance(node, ast.Expr):
            self._eval(node.value)
            return
        if isinstance(node, (ast.If, ast.While)):
            self._eval(node.test)
            for stmt in (*node.body, *node.orelse):
                self._stmt(stmt)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterated = self._eval(node.iter)
            if isinstance(node.target, ast.Name):
                # Element units survive iteration (a list of RTTs in ms
                # yields ms entries).
                self._env[node.target.id] = (
                    join(iterated[0], unit_from_name(node.target.id)),
                    iterated[1],
                )
            for stmt in (*node.body, *node.orelse):
                self._stmt(stmt)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self._eval(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    self._env[item.optional_vars.id] = value
            for stmt in node.body:
                self._stmt(stmt)
            return
        if isinstance(node, ast.Try):
            for stmt in node.body:
                self._stmt(stmt)
            for handler in node.handlers:
                for stmt in handler.body:
                    self._stmt(stmt)
            for stmt in (*node.orelse, *node.finalbody):
                self._stmt(stmt)
            return
        if isinstance(node, ast.Raise):
            if node.exc is not None:
                self._eval(node.exc)
            return
        if isinstance(node, ast.Assert):
            self._eval(node.test)
            if node.msg is not None:
                self._eval(node.msg)
            return
        # Import / Global / Pass / Delete / ... — nothing to track.

    def _load_target(self, node: ast.expr) -> _Val:
        if isinstance(node, ast.Name):
            return self._env.get(
                node.id,
                (unit_from_name(node.id), f"name '{node.id}'"),
            )
        if isinstance(node, ast.Attribute):
            return (unit_from_name(node.attr),
                    f"attribute '.{node.attr}'")
        return (Unit(), None)

    def _assign(
        self,
        target: ast.expr,
        value: _Val,
        line: int,
        annotation: Optional[Unit] = None,
    ) -> None:
        unit, why = value
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, (Unit(), None), line)
            return
        name: Optional[str] = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name is None:
            return
        declared = unit_from_name(name)
        if annotation is not None:
            declared = join(declared, annotation)
        self._clash(declared, unit, line, lambda: (
            f"assignment to '{name}' ({declared.label()}) from a "
            f"{self._describe(unit, why)} value"
        ))
        if isinstance(target, ast.Name):
            # The declared unit is ground truth where it exists; the
            # flowed value fills in what the name leaves open.
            self._env[target.id] = (join(declared, unit), why)

    # -- expressions --------------------------------------------------

    def _eval(self, node: ast.expr) -> _Val:
        if isinstance(node, ast.Name):
            if node.id in self._env:
                return self._env[node.id]
            unit = unit_from_name(node.id)
            return (unit, None if unit.is_empty() else
                    f"name '{node.id}'")
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.Compare):
            values = [self._eval(node.left)]
            for comparator in node.comparators:
                values.append(self._eval(comparator))
            for left, right in zip(values, values[1:]):
                self._check_pair(left, right, node.lineno, "comparison")
            return (Unit(), None)
        if isinstance(node, ast.BoolOp):
            out: _Val = (Unit(), None)
            for value in node.values:
                evaluated = self._eval(value)
                out = (join(out[0], evaluated[0]), out[1] or evaluated[1])
            return out
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            body = self._eval(node.body)
            orelse = self._eval(node.orelse)
            return (join(body[0], orelse[0]), body[1] or orelse[1])
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Subscript):
            value = self._eval(node.value)
            if isinstance(node.slice, ast.expr):
                self._eval(node.slice)
            return value
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for generator in node.generators:
                self._eval(generator.iter)
            element = self._eval(node.elt)
            return element
        if isinstance(node, ast.DictComp):
            for generator in node.generators:
                self._eval(generator.iter)
            self._eval(node.key)
            self._eval(node.value)
            return (Unit(), None)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value)
            return (Unit(), None)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out = (Unit(), None)
            for element in node.elts:
                evaluated = self._eval(element)
                out = (join(out[0], evaluated[0]), out[1] or evaluated[1])
            return out
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._eval(key)
            for value in node.values:
                self._eval(value)
            return (Unit(), None)
        if isinstance(node, ast.Lambda):
            return (Unit(), None)  # deferred body: separate concern
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value)
            self._assign(node.target, value, node.lineno)
            return value
        return (Unit(), None)  # constants and everything else

    def _eval_attribute(self, node: ast.Attribute) -> _Val:
        if node.attr in _SIM_CLOCK_ATTRS:
            return (
                Unit("ms", "sim", "timestamp"),
                f".{node.attr} (simulated clock)",
            )
        if isinstance(node.value, (ast.Call, ast.Subscript,
                                   ast.Attribute)):
            self._eval(node.value)  # nested calls still get checked
        unit = unit_from_name(node.attr)
        return (unit,
                None if unit.is_empty() else f"attribute '.{node.attr}'")

    # -- calls --------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> _Val:
        arg_vals: List[Tuple[ast.expr, _Val]] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                self._eval(arg.value)
            else:
                arg_vals.append((arg, self._eval(arg)))
        kw_vals: List[Tuple[str, ast.expr, _Val]] = []
        for keyword in node.keywords:
            if keyword.arg is None:
                self._eval(keyword.value)
            else:
                kw_vals.append(
                    (keyword.arg, keyword.value,
                     self._eval(keyword.value))
                )

        func = node.func
        resolved = self._info.source.resolve(func)
        anchor = None if resolved is None else _CALL_ANCHORS.get(resolved)
        if anchor is not None:
            return (anchor, f"{resolved}()")

        converter = self._converter_for(func, resolved)
        if converter is not None and arg_vals:
            _, (arg_unit, arg_why) = arg_vals[0]
            return (
                Unit(scale=converter, domain=arg_unit.domain,
                     role=arg_unit.role),
                arg_why,
            )

        if (
            isinstance(func, ast.Name)
            and func.id in _UNIT_PRESERVING_BUILTINS
            and func.id not in self._info.functions
        ):
            out: _Val = (Unit(), None)
            for _, (unit, why) in arg_vals:
                out = (join(out[0], unit), out[1] or why)
            return out

        edge = self._a.model.call_edges.get(node)
        if edge is not None and edge.internal:
            key = edge.target
            self._bind(key, arg_vals, kw_vals)
            summary = self._a.summaries[key]
            why: Optional[str] = None
            if not summary.returns.is_empty():
                why = f"return of {key}"
                if summary.return_origin is not None:
                    why = f"{why} <- {summary.return_origin}"
            return (summary.returns, why)

        # Unresolved call: fall back to the callee's terminal name.
        terminal: Optional[str] = None
        if resolved is not None:
            terminal = resolved.split(".")[-1]
        elif isinstance(func, ast.Name):
            terminal = func.id
        elif isinstance(func, ast.Attribute):
            terminal = func.attr
        if terminal is not None:
            unit = unit_from_name(terminal)
            if not unit.is_empty():
                return (unit, f"call to {terminal}()")
        return (Unit(), None)

    @staticmethod
    def _converter_for(
        func: ast.expr, resolved: Optional[str]
    ) -> Optional[str]:
        """Result scale of a sanctioned conversion-helper call."""
        name: Optional[str] = None
        if resolved is not None:
            name = resolved.split(".")[-1]
        elif isinstance(func, ast.Name):
            name = func.id
        if name == "ms_to_s":
            return "s"
        if name == "s_to_ms":
            return "ms"
        return None

    def _bind(
        self,
        callee_key: str,
        arg_vals: List[Tuple[ast.expr, _Val]],
        kw_vals: List[Tuple[str, ast.expr, _Val]],
    ) -> None:
        callee = self._a.defs[callee_key]
        summary = self._a.summaries[callee_key]
        start = 1 if callee.params and callee.params[0] in (
            "self", "cls"
        ) else 0
        pairs: List[Tuple[str, ast.expr, _Val]] = []
        for index, (arg_node, value) in enumerate(arg_vals):
            position = start + index
            if position < len(callee.params):
                pairs.append((callee.params[position], arg_node, value))
        for name, arg_node, value in kw_vals:
            if name in callee.declared:
                pairs.append((name, arg_node, value))
        for name, arg_node, (unit, why) in pairs:
            declared = callee.declared[name]
            line = getattr(arg_node, "lineno", 1)
            self._clash(unit, declared, line, lambda: (
                f"{self._fn.qualname} passes a "
                f"{self._describe(unit, why)} value into parameter "
                f"'{name}' of {callee_key}, declared {declared.label()}"
            ))
            flowed = Unit(
                scale=unit.scale if declared.scale is None else None,
                domain=unit.domain if declared.domain is None else None,
                role=unit.role if declared.role is None else None,
            )
            if flowed.is_empty():
                continue
            old = summary.params[name]
            new = join(old, flowed)
            if new != old:
                summary.params[name] = new
                self._changed = True
            if (
                new.domain in _CONCRETE_DOMAINS
                and name not in summary.param_origin
            ):
                source = why if why is not None else unit.label()
                summary.param_origin[name] = (
                    f"{source} bound at {self._fn.path}:{line} in "
                    f"{self._fn.qualname}"
                )

    # -- arithmetic ---------------------------------------------------

    def _check_pair(
        self, left: _Val, right: _Val, line: int, context: str
    ) -> Tuple[Optional[str], Optional[str]]:
        """Emit scale/domain conflicts; returns the joined fields
        (``None`` where a conflict was already reported)."""
        (lu, lwhy), (ru, rwhy) = left, right
        scale_clash, domain_clash = self._clash(lu, ru, line, lambda: (
            f"{context} mixes {self._describe(lu, lwhy)} with "
            f"{self._describe(ru, rwhy)}"
        ))
        return (
            None if scale_clash else _join_field(lu.scale, ru.scale),
            None if domain_clash else _join_field(lu.domain, ru.domain),
        )

    def _clash(
        self, a: Unit, b: Unit, line: int, subject: Callable[[], str]
    ) -> Tuple[bool, bool]:
        """Emit a scale clash and a time-domain clash between two units.

        ``subject()`` opens each message.  Returns whether the scales
        and whether the domains clashed.
        """
        scale = (
            a.scale in _CONCRETE_SCALES
            and b.scale in _CONCRETE_SCALES
            and a.scale != b.scale
        )
        if scale:
            self._emit(UNIT_MISMATCH, line, (
                f"{subject()}; convert explicitly via "
                f"repro.types.ms_to_s/s_to_ms"
            ))
        domain = (
            a.domain in _CONCRETE_DOMAINS
            and b.domain in _CONCRETE_DOMAINS
            and a.domain != b.domain
        )
        if domain:
            self._emit(TIME_DOMAIN_MIXING, line, (
                f"{subject()}; simulated, host, and unix-epoch clocks "
                f"are unrelated timelines"
            ))
        return scale, domain

    def _combine_additive(
        self, left: _Val, right: _Val, line: int, op_label: str
    ) -> _Val:
        scale, domain = self._check_pair(left, right, line,
                                         f"'{op_label}' arithmetic")
        (lu, lwhy), (ru, rwhy) = left, right
        role: Optional[str]
        if op_label == "Sub" and lu.role == "timestamp" and (
            ru.role == "timestamp"
        ):
            role = "duration"
        elif "timestamp" in (lu.role, ru.role) and "duration" in (
            lu.role, ru.role
        ):
            role = "timestamp"
        else:
            role = _join_field(lu.role, ru.role)
        return (Unit(scale=scale, domain=domain, role=role),
                lwhy or rwhy)

    @staticmethod
    def _magic_constant(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and isinstance(
            node.value, (int, float)
        ) and float(node.value) == 1000.0

    def _eval_binop(self, node: ast.BinOp) -> _Val:
        left = self._eval(node.left)
        right = self._eval(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return self._combine_additive(
                left, right, node.lineno, type(node.op).__name__
            )
        if isinstance(node.op, (ast.Mult, ast.Div, ast.FloorDiv,
                                ast.Mod)):
            return self._eval_scaling(node, left, right)
        return (Unit(), None)

    def _eval_scaling(
        self, node: ast.BinOp, left: _Val, right: _Val
    ) -> _Val:
        (lu, lwhy), (ru, rwhy) = left, right
        is_div = isinstance(node.op, (ast.Div, ast.FloorDiv))
        is_mult = isinstance(node.op, ast.Mult)

        operand: Optional[_Val] = None
        if (is_div or is_mult) and self._magic_constant(node.right) and (
            lu.scale in _CONCRETE_SCALES
        ):
            operand = left
        elif is_mult and self._magic_constant(node.left) and (
            ru.scale in _CONCRETE_SCALES
        ):
            operand = right
        if operand is not None and self._fn.module != _CONVERSION_HOME:
            unit, why = operand
            helper = "repro.types.ms_to_s" if (
                is_div and unit.scale == "ms"
            ) else "repro.types.s_to_ms" if (
                is_mult and unit.scale == "s"
            ) else "repro.types.ms_to_s/s_to_ms"
            literal = "/ 1000" if is_div else "* 1000"
            self._emit(MAGIC_UNIT_CONVERSION, node.lineno, (
                f"bare '{literal}' conversion of a "
                f"{self._describe(unit, why)} value; route it through "
                f"{helper} (or repro.types.MS_PER_S for rates) so time "
                f"conversions stay greppable and dimension-checked"
            ))
        if operand is not None:
            unit = operand[0]
            converted: Optional[str]
            if is_div:
                converted = "s" if unit.scale == "ms" else None
            else:
                converted = "ms" if unit.scale == "s" else None
            return (
                Unit(scale=converted, domain=unit.domain,
                     role=unit.role),
                operand[1],
            )

        if isinstance(node.op, ast.Mod):
            # t % interval keeps the unit when both sides share it.
            if lu.scale is not None:
                return (lu, lwhy)
            return (Unit(), None)
        if lu.scale is not None and ru.scale is None:
            return (lu, lwhy)  # time scaled by a dimensionless factor
        if is_mult and ru.scale is not None and lu.scale is None:
            return (ru, rwhy)
        return (Unit(), None)  # time/time, scalar/time, scalar/scalar


# -- the boundary rule (purely local) ---------------------------------


def _boundary_findings(analysis: UnitAnalysis) -> List[Finding]:
    findings: List[Finding] = []
    for key in sorted(analysis.defs):
        fn_def = analysis.defs[key]
        if not fn_def.public:
            continue
        fn = fn_def.fn
        info = analysis.model.modules[fn.module]
        for name in fn_def.params:
            if name in ("self", "cls"):
                continue
            declared = fn_def.declared[name]
            if declared.scale is not None or declared.domain is not None:
                continue
            parts = name.lower().split("_")
            if not any(part in _BOUNDARY_WORDS for part in parts):
                continue
            if info.source.is_suppressed(
                UNITLESS_DURATION_BOUNDARY, fn.line
            ):
                continue
            findings.append(Finding(
                rule_id=UNITLESS_DURATION_BOUNDARY,
                path=fn.path,
                line=fn.line,
                message=(
                    f"public parameter '{name}' of {fn.qualname} names "
                    f"a duration/timestamp but declares no unit: "
                    f"suffix it (_ms/_s/_unix) or annotate it with a "
                    f"repro.types time alias so call sites know what "
                    f"to pass"
                ),
            ))
    return findings


# -- the analysis entry point -----------------------------------------

def analyze_units(model: ProjectModel) -> UnitAnalysis:
    """Run the whole dimensional pass over a built project model."""
    defs = {
        key: _FnDef.of(fn, model.modules[fn.module])
        for key, fn in model.functions.items()
    }
    summaries = {
        key: FnUnits(params={
            name: defs[key].declared[name] for name in defs[key].params
        })
        for key in defs
    }
    analysis = UnitAnalysis(model=model, defs=defs, summaries=summaries)
    fixpoint(defs, lambda key: _BodyAnalyzer(analysis, key,
                                             report=False).run())
    findings: List[Finding] = []
    for key in sorted(defs):
        analyzer = _BodyAnalyzer(analysis, key, report=True)
        analyzer.run()
        findings.extend(analyzer.findings)
    findings.extend(_boundary_findings(analysis))
    analysis.findings = sort_findings(findings)
    return analysis


def unit_findings(analysis: UnitAnalysis) -> List[Finding]:
    """The four rules' findings, canonically ordered."""
    return list(analysis.findings)


def unit_rule_catalog() -> Dict[str, str]:
    """``rule id -> summary`` for the dimensional rules."""
    return {rule.rule_id: rule.summary for rule in UNIT_RULES}


# -- the unit report (CLI / CI artifact) ------------------------------


def unit_report(
    analysis: UnitAnalysis,
    findings: Iterable[Finding],
    function: Optional[str] = None,
) -> Dict[str, object]:
    """Deterministic JSON-ready dump of the per-function unit table.

    Every function in the model (plus each module's ``<module>``
    pseudo-function) gets a row: per-parameter unit labels and the
    return unit.  ``function`` filters like ``repro lint effects
    --function`` — exact key, qualname, or bare-name match.
    """
    functions: List[Dict[str, object]] = []
    for key in sorted(analysis.defs):
        fn_def = analysis.defs[key]
        node = fn_def.fn
        if not function_matches(function, node):
            continue
        summary = analysis.summaries[key]
        params = {
            name: summary.params[name].label() for name in fn_def.params
        }
        functions.append({
            "function": key,
            "path": node.path,
            "line": node.line,
            "params": params,
            "returns": summary.returns.label(),
            "public": fn_def.public,
        })
    return {
        "functions": functions,
        "findings": [finding.to_dict() for finding in findings],
        "rules": unit_rule_catalog(),
    }
