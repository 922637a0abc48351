"""Determinism & aliasing linter: repo-specific static analysis over the AST.

Every figure artifact this repository ships is byte-diffed against a
committed baseline, which makes two properties load-bearing everywhere:
simulations must be **bit-deterministic** (no wall-clock reads, no unseeded
randomness, no iteration orders that vary across processes), and the
zero-copy ``(shard, msg)`` envelopes riding the arrival inbox must
**never alias mutable state** that changes after send. The test suite can
only spot-check these invariants; this linter checks them mechanically on
every file, the same way the runtime sanitizer (:mod:`repro.analysis.
sanitize`) checks them dynamically on every message.

Rules
-----

========  ==================================================================
rule      what it flags
========  ==================================================================
D001      wall-clock reads (``time.time``/``time.monotonic``/
          ``time.perf_counter``/``datetime.now`` …) inside the simulated
          world (``sim/``, ``protocols/``, ``cluster/``, ``membership/``)
          — simulated code must read ``sim.now`` / the node's
          loosely-synchronized clock.
D002      draws from the process-global ``random`` module (``random.random``,
          ``random.randint`` …, ``from random import random``) or
          ``os.urandom`` anywhere outside ``sim/rng.py`` — all randomness
          must come from seeded ``random.Random`` streams
          (:class:`repro.sim.rng.SeededRNG`). Constructing a seeded
          ``random.Random(seed)`` is allowed everywhere **except** the
          aggregated-workload modules (``workloads/aggregate*``), where the
          rule is strict: even seeded ``random.Random`` construction is
          flagged, because per-session generator seeding must flow from
          ``sim/rng.py`` streams (``SeededRNG.stream()``/``child()``) to
          keep million-session keying fold-stable.
D003      iteration over an unordered collection (``set``/``frozenset``
          values, ``.keys()`` of sets-of-keys idioms, set algebra results)
          inside ``protocols/``/``membership/``/``cluster/`` handlers whose
          loop body sends messages, arms timers or schedules work — the
          iteration order would decide message order and hence jitter-draw
          assignment. Wrap in ``sorted(...)``.
D004      ``id(...)`` used to key or order collections — CPython identities
          vary run to run, so any ordering or externally visible structure
          derived from them is nondeterministic.
D005      a host-GC hook inside the deployment (``sim/``, ``core/``,
          ``protocols/``, ``rpc/``, ``kvs/``, ``membership/``,
          ``cluster/``): a ``__del__`` method, a ``weakref.finalize(...)``
          call, or a weak reference created with a callback
          (``weakref.ref``/``proxy``/``WeakMethod`` with a second argument).
          Such a hook runs when the host frees an object, so collector
          timing could reach simulated state. A cluster's one teardown is
          baselined.
M001      a message dataclass (anything carrying a ``size_bytes`` wire cost
          or deriving from ``MembershipMessage``/``TxnMessage``/
          ``HermesMessage``) that does not declare ``__slots__``
          (``@dataclass(slots=True)``) or has no wire-cost entry (a
          ``size_bytes`` field/property, inherited in-module, or an entry
          in the module's ``WIRE_COSTS`` table).
M002      mutable default fields (``field(default_factory=dict/list/set)``
          or mutable literals) on message dataclasses — after-send aliasing
          bait on the zero-copy delivery path.
H001      a message class that no dispatcher ever matches
          (``isinstance(msg, X)`` / ``msg.__class__ is X`` /
          ``type(msg) is X`` / a key of a handler-table dict literal
          ``{X: self._on_x, ...}``) anywhere in the linted tree — an
          unhandled message type fails (or drops) at delivery.
========  ==================================================================

Usage::

    python -m repro.analysis.lint src/ [scripts/ benchmarks/ ...]
        [--json [PATH]] [--baseline FILE]

Exit status: 0 when no non-baselined findings remain, 1 otherwise, 2 on
usage errors. ``--baseline`` points at a JSON file of suppressions — each
entry names ``rule``, ``path`` (suffix match), ``symbol`` (the enclosing
``Class.method`` qualname, or ``<module>``) and a one-line ``reason``; a
finding matching a suppression is reported as baselined and does not fail
the run. Unused suppressions are reported so the baseline cannot rot.

No dependencies beyond the standard library (repo no-install policy).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Path segments marking the simulated world (D001 scope).
SIM_ZONE_DIRS = {"sim", "protocols", "cluster", "membership"}

#: Path segments where unordered iteration decides message order (D003).
ORDER_ZONE_DIRS = {"protocols", "membership", "cluster"}

#: Path segments of the deployment's own layers, where no object may carry
#: a host-GC hook (D005 scope).
HOOK_ZONE_DIRS = {"sim", "core", "protocols", "rpc", "kvs", "membership", "cluster"}

#: Weak-reference constructors whose second argument is a callback (D005).
WEAKREF_CALLBACK_CTORS = {"weakref.ref", "weakref.proxy", "weakref.WeakMethod"}

#: File allowed to touch the global ``random`` module (D002 exemption).
RNG_MODULE_SUFFIX = "sim/rng.py"

#: Strict D002 zone: aggregated-workload modules (a ``workloads`` path
#: segment and a basename starting with this prefix) may not construct even
#: *seeded* ``random.Random`` instances — session streams must derive from
#: :class:`repro.sim.rng.SeededRNG`, keeping per-session keying fold-stable
#: and per-session RNG-object allocation out of the million-session path.
STRICT_RNG_DIRS = {"workloads"}
STRICT_RNG_PREFIX = "aggregate"

#: ``random`` names whose construction the strict zone forbids.
STRICT_RNG_CONSTRUCTORS = {"Random", "SystemRandom"}

#: Wall-clock callables, resolved against import aliases (D001).
WALL_CLOCK_ATTRS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Global-``random``-module draw functions (D002). ``Random`` (seeded
#: stream construction) and ``SystemRandom`` type references are allowed.
GLOBAL_RANDOM_DRAWS = {
    "random",
    "uniform",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "triangular",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "lognormvariate",
    "getrandbits",
    "randbytes",
    "seed",
    "setstate",
}

#: Calls inside a loop body that make its iteration order reach the wire,
#: a timer wheel or a timestamp (D003 effect set).
EFFECT_CALLS = {
    "send",
    "broadcast",
    "send_multi",
    "set_timer",
    "schedule",
    "schedule_at",
    "call_soon",
    "submit",
    "submit_local",
    "submit_local_at",
    "submit_at",
    "complete",
}

#: Order-insensitive consumers: a comprehension over a set feeding one of
#: these directly cannot leak iteration order (D003 exemption).
ORDER_INSENSITIVE_CALLS = {
    "sorted",
    "set",
    "frozenset",
    "sum",
    "len",
    "min",
    "max",
    "any",
    "all",
    "Counter",
}

#: Base-class names that mark wire-message hierarchies (M001/M002/H001).
MESSAGE_BASES = {"MembershipMessage", "TxnMessage", "HermesMessage"}

#: Dict values that make a literal a handler table for H001 (a
#: ``WIRE_COSTS`` table maps to strings and does not count).
_HANDLER_EXPRS = (ast.Attribute, ast.Name, ast.Lambda, ast.Call)

#: Attribute names known (cross-module) to hold set/frozenset values.
#: ``MembershipView.members`` is a ``frozenset`` (membership/view.py).
KNOWN_SET_ATTRS = {"members"}

RULE_TITLES = {
    "D001": "wall-clock read in simulated code",
    "D002": "unseeded global-random draw",
    "D003": "unordered iteration reaches sends/timers",
    "D004": "id()-keyed or identity-ordered collection",
    "D005": "finalizer or weak-reference callback in the deployment",
    "M001": "message dataclass missing __slots__ or wire-cost entry",
    "M002": "mutable default field on a message dataclass",
    "H001": "message type not covered by any dispatcher",
}


@dataclass
class Finding:
    """One lint violation."""

    rule: str
    path: str
    line: int
    col: int
    symbol: str
    message: str
    baselined: bool = False
    reason: str = ""

    def format(self) -> str:
        tag = " [baselined]" if self.baselined else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"


@dataclass
class _ClassFacts:
    """What the per-file pass learned about one (data)class definition."""

    name: str
    path: str
    line: int
    bases: List[str]
    is_dataclass: bool = False
    has_slots: bool = False
    has_size_bytes: bool = False
    mutable_default_fields: List[Tuple[str, int]] = field(default_factory=list)
    field_names: List[str] = field(default_factory=list)


class _Aliases:
    """Import-alias tracking so ``import time as t; t.time()`` resolves."""

    def __init__(self) -> None:
        #: local name -> canonical module path ("time", "datetime", ...)
        self.modules: Dict[str, str] = {}
        #: local name -> canonical dotted path ("time.time", "random.random")
        self.symbols: Dict[str, str] = {}

    def visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_import_from(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self.symbols[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, if import-rooted."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.modules:
            parts.append(self.modules[root])
        elif root in self.symbols:
            parts.append(self.symbols[root])
        else:
            parts.append(root)
        return ".".join(reversed(parts))


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _call_name(node: ast.Call) -> str:
    """Trailing name of the called expression (``a.b.send`` -> ``send``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class _FileLinter(ast.NodeVisitor):
    """Single-file pass: local rules plus facts for the cross-file rules."""

    def __init__(self, path: Path, display_path: str, tree: ast.Module) -> None:
        self.path = path
        self.display = display_path
        self.tree = tree
        parts = set(Path(display_path).parts)
        self.in_sim_zone = bool(parts & SIM_ZONE_DIRS)
        self.in_order_zone = bool(parts & ORDER_ZONE_DIRS)
        self.in_hook_zone = bool(parts & HOOK_ZONE_DIRS)
        self.is_rng_module = display_path.endswith(RNG_MODULE_SUFFIX)
        self.in_strict_rng_zone = bool(parts & STRICT_RNG_DIRS) and Path(
            display_path
        ).name.startswith(STRICT_RNG_PREFIX)
        self.aliases = _Aliases()
        self.findings: List[Finding] = []
        self.classes: Dict[str, _ClassFacts] = {}
        #: Class names matched by any dispatcher in this file (H001 pool).
        self.covered_names: Set[str] = set()
        #: Names listed in a module-level ``WIRE_COSTS`` table (M001).
        self.wire_cost_names: Set[str] = set()
        #: Module-level and per-scope set-typed variable names (D003).
        self._set_names: Set[str] = set()
        self._set_attrs: Set[str] = set(KNOWN_SET_ATTRS)
        self._scope: List[str] = []
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # ------------------------------------------------------------- helpers
    def _symbol(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.display,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                symbol=self._symbol(),
                message=message,
            )
        )

    # ------------------------------------------------------------- imports
    def visit_Import(self, node: ast.Import) -> None:
        self.aliases.visit_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.aliases.visit_import_from(node)
        if node.module == "random" and not self.is_rng_module:
            for alias in node.names:
                if alias.name in GLOBAL_RANDOM_DRAWS:
                    self._add(
                        "D002",
                        node,
                        f"'from random import {alias.name}' binds the process-global "
                        "random stream; draw from a seeded random.Random "
                        "(see repro.sim.rng.SeededRNG)",
                    )
                elif self.in_strict_rng_zone and alias.name in STRICT_RNG_CONSTRUCTORS:
                    self._add(
                        "D002",
                        node,
                        f"'from random import {alias.name}' in an aggregated-workload "
                        "module; session streams must derive from "
                        "repro.sim.rng.SeededRNG (stream()/child())",
                    )
        self.generic_visit(node)

    # ------------------------------------------------------ name resolution
    def _check_resolved_reference(self, node: ast.expr) -> None:
        dotted = self.aliases.resolve(node)
        if dotted is None:
            return
        if self.in_sim_zone and dotted in WALL_CLOCK_ATTRS:
            self._add(
                "D001",
                node,
                f"wall-clock read '{dotted}' in simulated code; use sim.now / "
                "the node's LooselySynchronizedClock",
            )
        if not self.is_rng_module:
            if dotted == "os.urandom":
                self._add(
                    "D002",
                    node,
                    "os.urandom is unseeded; derive bytes from a seeded stream",
                )
            elif dotted.startswith("random.") and dotted.split(".", 1)[1] in GLOBAL_RANDOM_DRAWS:
                self._add(
                    "D002",
                    node,
                    f"'{dotted}' draws from the process-global random stream; "
                    "use a seeded random.Random (see repro.sim.rng.SeededRNG)",
                )
            elif (
                self.in_strict_rng_zone
                and dotted.startswith("random.")
                and dotted.split(".", 1)[1] in STRICT_RNG_CONSTRUCTORS
            ):
                self._add(
                    "D002",
                    node,
                    f"'{dotted}' construction in an aggregated-workload module; "
                    "session streams must derive from repro.sim.rng.SeededRNG "
                    "(stream()/child())",
                )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_resolved_reference(node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            dotted = self.aliases.symbols.get(node.id)
            if dotted is not None:
                self._check_resolved_reference(node)
        self.generic_visit(node)

    # ----------------------------------------------------------------- id()
    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
            and self._id_call_keys_a_collection(node)
        ):
            self._add(
                "D004",
                node,
                "id() keys/orders a collection; CPython identities differ "
                "across runs — key by a stable field instead",
            )
        if self.in_hook_zone:
            self._check_gc_hook_call(node)
        self.generic_visit(node)

    def _check_gc_hook_call(self, node: ast.Call) -> None:
        dotted = self.aliases.resolve(node.func)
        if dotted == "weakref.finalize":
            self._add(
                "D005",
                node,
                "weakref.finalize runs when the host frees the object; collector "
                "timing must not reach the deployment",
            )
        elif dotted in WEAKREF_CALLBACK_CTORS and (
            len(node.args) > 1 or any(kw.arg == "callback" for kw in node.keywords)
        ):
            self._add(
                "D005",
                node,
                f"'{dotted}' with a callback runs it when the host frees the "
                "referent; hold the reference without one",
            )

    def _id_call_keys_a_collection(self, node: ast.Call) -> bool:
        """Whether this ``id(...)`` call keys, orders or populates a collection."""
        child: ast.AST = node
        parent = self._parents.get(child)
        while parent is not None:
            if isinstance(parent, ast.Subscript) and parent.slice is child:
                return True
            if isinstance(parent, ast.Dict) and child in parent.keys:
                return True
            if isinstance(parent, ast.DictComp) and parent.key is child:
                return True
            if isinstance(parent, (ast.Set, ast.SetComp)):
                return True
            if isinstance(parent, ast.keyword) and parent.arg == "key":
                return True
            if isinstance(parent, ast.Call):
                name = _call_name(parent)
                if name in {"setdefault", "add", "discard"} or name in {"sorted", "sort"}:
                    return True
                return False
            if isinstance(parent, (ast.stmt, ast.FunctionDef, ast.Module)):
                return False
            child = parent
            parent = self._parents.get(parent)
        return False

    # ------------------------------------------------------------- classes
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        facts = _ClassFacts(
            name=node.name,
            path=self.display,
            line=node.lineno,
            bases=[b.id if isinstance(b, ast.Name) else _decorator_name(b) for b in node.bases],
        )
        for dec in node.decorator_list:
            if _decorator_name(dec) == "dataclass":
                facts.is_dataclass = True
                if isinstance(dec, ast.Call):
                    for kw in dec.keywords:
                        if (
                            kw.arg == "slots"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        ):
                            facts.has_slots = True
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        facts.has_slots = True
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                if name == "__slots__":
                    facts.has_slots = True
                else:
                    facts.field_names.append(name)
                    if name == "size_bytes":
                        facts.has_size_bytes = True
                    default = stmt.value
                    if default is not None and self._is_mutable_default(default):
                        facts.mutable_default_fields.append((name, stmt.lineno))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name == "size_bytes":
                    facts.has_size_bytes = True
        self.classes[node.name] = facts
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    @staticmethod
    def _is_mutable_default(default: ast.expr) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(default, ast.Call) and _call_name(default) == "field":
            for kw in default.keywords:
                if kw.arg == "default_factory":
                    factory = kw.value
                    if isinstance(factory, ast.Name) and factory.id in {
                        "dict",
                        "list",
                        "set",
                    }:
                        return True
                    if isinstance(factory, ast.Lambda):
                        return True
        return False

    # ------------------------------------------------------------ functions
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: ast.AST) -> None:
        if (
            self.in_hook_zone
            and node.name == "__del__"  # type: ignore[attr-defined]
            and isinstance(self._parents.get(node), ast.ClassDef)
        ):
            self._add(
                "D005",
                node,
                "__del__ runs when the host frees the object; collector timing "
                "must not reach the deployment",
            )
        self._scope.append(node.name)  # type: ignore[attr-defined]
        self.generic_visit(node)
        self._scope.pop()

    # ----------------------------------------------------- set-type tracking
    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value, assume_names=False):
            for target in node.targets:
                self._remember_set_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        annotation = ast.unparse(node.annotation) if node.annotation is not None else ""
        base = annotation.split("[", 1)[0].strip()
        if base in {"Set", "FrozenSet", "set", "frozenset"} or base.endswith(
            (".Set", ".FrozenSet")
        ):
            self._remember_set_target(node.target)
        elif node.value is not None and self._is_set_expr(node.value, assume_names=False):
            self._remember_set_target(node.target)
        self.generic_visit(node)

    def _remember_set_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self._set_names.add(target.id)
        elif isinstance(target, ast.Attribute):
            self._set_attrs.add(target.attr)

    def _is_set_expr(self, node: ast.expr, assume_names: bool = True) -> bool:
        """Heuristic: does this expression evaluate to a set/frozenset?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in {"set", "frozenset"}:
                return True
            if name == "keys" and assume_names:
                # dict.keys() is insertion-ordered, but the insertion order
                # itself frequently tracks arrival order; the rule follows
                # the repo convention of sorting key views before sending.
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, assume_names) or self._is_set_expr(
                node.right, assume_names
            )
        if assume_names:
            if isinstance(node, ast.Name):
                return node.id in self._set_names
            if isinstance(node, ast.Attribute):
                return node.attr in self._set_attrs or node.attr in self._set_names
        return False

    # ---------------------------------------------------------------- loops
    def visit_For(self, node: ast.For) -> None:
        if self.in_order_zone and self._is_set_expr(node.iter):
            if self._contains_effect_call(node.body):
                self._add(
                    "D003",
                    node.iter,
                    f"iteration over unordered '{ast.unparse(node.iter)}' decides "
                    "send/timer order; wrap in sorted(...)",
                )
        self.generic_visit(node)

    def _comp_is_order_sensitive(self, node: ast.expr) -> bool:
        parent = self._parents.get(node)
        if isinstance(parent, ast.Call) and _call_name(parent) in ORDER_INSENSITIVE_CALLS:
            return False
        if isinstance(parent, ast.Compare):
            return False
        return True

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.expr) -> None:
        if not self.in_order_zone:
            return
        for gen in node.generators:  # type: ignore[attr-defined]
            if self._is_set_expr(gen.iter) and self._comp_is_order_sensitive(node):
                if self._enclosing_function_has_effects(node):
                    self._add(
                        "D003",
                        gen.iter,
                        f"ordered comprehension over unordered "
                        f"'{ast.unparse(gen.iter)}'; wrap in sorted(...)",
                    )

    def _contains_effect_call(self, body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and _call_name(sub) in EFFECT_CALLS:
                    return True
        return False

    def _enclosing_function_has_effects(self, node: ast.AST) -> bool:
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return self._contains_effect_call(current.body)
            current = self._parents.get(current)
        return False

    # -------------------------------------------------------------- dispatch
    def collect_coverage_and_wire_costs(self) -> None:
        """Scan for dispatcher coverage (H001) and WIRE_COSTS entries (M001)."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id == "isinstance"
                    and len(node.args) == 2
                ):
                    self._collect_class_names(node.args[1])
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                if isinstance(node.ops[0], (ast.Is, ast.IsNot, ast.Eq)):
                    left = node.left
                    left_is_classy = (
                        (isinstance(left, ast.Call) and _call_name(left) == "type")
                        or (isinstance(left, ast.Attribute) and left.attr == "__class__")
                        or isinstance(left, ast.Name)
                    )
                    if left_is_classy:
                        self._collect_class_names(node.comparators[0])
            elif isinstance(node, ast.Dict) and node.values and all(
                isinstance(value, _HANDLER_EXPRS) for value in node.values
            ):
                # A handler table ({Message: handler, ...}) dispatches its keys.
                for key in node.keys:
                    if key is not None:
                        self._collect_class_names(key)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "WIRE_COSTS":
                        self._collect_wire_cost_keys(node.value)

    def _collect_class_names(self, node: ast.expr) -> None:
        if isinstance(node, ast.Name):
            self.covered_names.add(node.id)
        elif isinstance(node, ast.Attribute):
            self.covered_names.add(node.attr)
        elif isinstance(node, ast.Tuple):
            for elt in node.elts:
                self._collect_class_names(elt)

    def _collect_wire_cost_keys(self, node: ast.expr) -> None:
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Name):
                    self.wire_cost_names.add(key.id)
                elif isinstance(key, ast.Attribute):
                    self.wire_cost_names.add(key.attr)

    def run(self) -> None:
        self.visit(self.tree)
        self.collect_coverage_and_wire_costs()


# --------------------------------------------------------------- tree pass
def _message_classes(
    all_classes: Dict[str, List[_ClassFacts]]
) -> Dict[str, List[_ClassFacts]]:
    """Transitively mark message classes: known bases or a size_bytes entry."""
    message_names: Set[str] = set(MESSAGE_BASES)
    changed = True
    while changed:
        changed = False
        for name, versions in all_classes.items():
            if name in message_names:
                continue
            for facts in versions:
                if facts.has_size_bytes and facts.is_dataclass:
                    message_names.add(name)
                    changed = True
                    break
                if any(base in message_names for base in facts.bases):
                    message_names.add(name)
                    changed = True
                    break
    return {
        name: versions
        for name, versions in all_classes.items()
        if name in message_names
    }


def _inherits_size_bytes(
    facts: _ClassFacts, all_classes: Dict[str, List[_ClassFacts]]
) -> bool:
    seen: Set[str] = set()
    stack = [facts]
    while stack:
        current = stack.pop()
        if current.has_size_bytes:
            return True
        for base in current.bases:
            if base in seen:
                continue
            seen.add(base)
            if base == "MembershipMessage":
                # Base property defined in membership/messages.py; when
                # linting a subtree that does not include it, trust the name.
                return True
            stack.extend(all_classes.get(base, []))
    return False


def lint_paths(paths: Sequence[Path], root: Optional[Path] = None) -> List[Finding]:
    """Lint every ``*.py`` file under ``paths``; return all findings."""
    root = Path(root) if root is not None else Path.cwd()
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(p for p in path.rglob("*.py") if "__pycache__" not in p.parts))
    findings: List[Finding] = []
    linters: List[_FileLinter] = []
    for file_path in files:
        try:
            display = str(file_path.relative_to(root))
        except ValueError:
            display = str(file_path)
        try:
            tree = ast.parse(file_path.read_text(encoding="utf-8"), filename=display)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="E999",
                    path=display,
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    symbol="<module>",
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        linter = _FileLinter(file_path, display, tree)
        linter.run()
        findings.extend(linter.findings)
        linters.append(linter)

    # Cross-file rules: collect the class universe, the dispatcher-coverage
    # pool and the wire-cost tables, then check M001 and H001.
    all_classes: Dict[str, List[_ClassFacts]] = {}
    covered: Set[str] = set()
    wire_costed: Set[str] = set()
    for linter in linters:
        covered |= linter.covered_names
        wire_costed |= linter.wire_cost_names
        for name, facts in linter.classes.items():
            all_classes.setdefault(name, []).append(facts)

    messages = _message_classes(all_classes)
    subclassed = {
        base for versions in all_classes.values() for facts in versions for base in facts.bases
    }
    for name, versions in sorted(messages.items()):
        for facts in versions:
            if not facts.is_dataclass:
                continue
            is_abstract_base = name in MESSAGE_BASES or (
                name in subclassed and not facts.has_size_bytes
            )
            if not facts.has_slots:
                findings.append(
                    Finding(
                        rule="M001",
                        path=facts.path,
                        line=facts.line,
                        col=0,
                        symbol=name,
                        message=f"message dataclass '{name}' does not declare __slots__ "
                        "(use @dataclass(slots=True))",
                    )
                )
            if (
                not is_abstract_base
                and name not in wire_costed
                and not _inherits_size_bytes(facts, all_classes)
            ):
                findings.append(
                    Finding(
                        rule="M001",
                        path=facts.path,
                        line=facts.line,
                        col=0,
                        symbol=name,
                        message=f"message dataclass '{name}' has no wire-cost entry "
                        "(size_bytes field/property or WIRE_COSTS entry)",
                    )
                )
            for field_name, line in facts.mutable_default_fields:
                findings.append(
                    Finding(
                        rule="M002",
                        path=facts.path,
                        line=line,
                        col=0,
                        symbol=name,
                        message=f"mutable default for field '{field_name}' on message "
                        f"dataclass '{name}'; default to None and guard reads",
                    )
                )
            if not is_abstract_base and name not in covered:
                findings.append(
                    Finding(
                        rule="H001",
                        path=facts.path,
                        line=facts.line,
                        col=0,
                        symbol=name,
                        message=f"message type '{name}' is dispatched by no handler "
                        "(no isinstance/type-is match or handler-table key anywhere "
                        "in the linted tree)",
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# ---------------------------------------------------------------- baseline
def load_baseline(path: Path) -> List[Dict[str, str]]:
    """Load the suppression list from a baseline JSON file."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    entries = payload.get("suppressions", payload if isinstance(payload, list) else [])
    for entry in entries:
        for required in ("rule", "path", "symbol", "reason"):
            if required not in entry:
                raise ValueError(f"baseline entry missing {required!r}: {entry}")
    return entries


def apply_baseline(
    findings: List[Finding], suppressions: List[Dict[str, str]]
) -> List[Dict[str, str]]:
    """Mark findings matched by a suppression; return unused suppressions."""
    used = [False] * len(suppressions)
    for finding in findings:
        for i, entry in enumerate(suppressions):
            if (
                finding.rule == entry["rule"]
                and finding.path.endswith(entry["path"])
                and finding.symbol == entry["symbol"]
            ):
                finding.baselined = True
                finding.reason = entry["reason"]
                used[i] = True
                break
    return [entry for i, entry in enumerate(suppressions) if not used[i]]


# --------------------------------------------------------------------- CLI
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Determinism & aliasing linter (rules D001-D004, M001-M002, H001).",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="write the findings as a JSON report to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="JSON file of suppressed findings (rule/path/symbol/reason each)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-finding human output"
    )
    args = parser.parse_args(argv)

    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            print(f"ERROR no such path: {path}", file=sys.stderr)
            return 2

    findings = lint_paths(paths)
    unused: List[Dict[str, str]] = []
    if args.baseline is not None:
        try:
            suppressions = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"ERROR bad baseline file {args.baseline}: {exc}", file=sys.stderr)
            return 2
        unused = apply_baseline(findings, suppressions)

    live = [f for f in findings if not f.baselined]
    if args.json is not None:
        report = {
            "findings": [asdict(f) for f in findings],
            "live": len(live),
            "baselined": len(findings) - len(live),
            "unused_suppressions": unused,
            "rules": RULE_TITLES,
        }
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text + "\n", encoding="utf-8")

    if not args.quiet:
        for finding in findings:
            print(finding.format())
        for entry in unused:
            print(
                f"WARNING unused baseline suppression: {entry['rule']} "
                f"{entry['path']} {entry['symbol']}"
            )
        print(
            f"lint: {len(live)} violation(s), "
            f"{len(findings) - len(live)} baselined, "
            f"{len(unused)} unused suppression(s)"
        )
    return 1 if live else 0


if __name__ == "__main__":
    sys.exit(main())
