"""Compiled netlist simulation engine (lower once, execute fast, batch wide).

The interpreted simulation loop walks every wire and component object
once per clock cycle and allocates fresh ``ActivityEvent``/``Channel``
objects per cycle just to bucket toggle counts.  The compiled engine
instead *lowers* a validated :class:`~repro.hdl.netlist.Netlist` once
and then executes a flat program:

1. **Lowering** (:func:`compile_netlist`) — every wire gets a dense
   index and every component is translated into straight-line Python
   statements over local integer variables: ROMs, transition tables and
   (small) lookup logic become tuple indexing, Gray decode becomes an
   unrolled shift/XOR ladder, register capture/commit becomes a block of
   simultaneous assignments.  The statements are assembled in the
   netlist's topological order into one specialised step loop, compiled
   a single time with :func:`exec`.  Lowering also *partitions* the op
   list for the vectorised tier (:func:`_vector_partition`): the
   **sequential residue** — registers on feedback cycles, transition
   tables, ports and every op feeding them — versus the **feed-forward
   slices** whose inputs are residue wires, peeled pipeline registers
   or constants, each slice mapped to a cycle-axis numpy kernel.
2. **Execution, scalar tier** — the generated runner advances the
   whole design one clock per iteration, appending one settled
   wire-value row per cycle.  Netlists without input ports are pure
   functions of their register state, so the runner also memoises
   rows: as soon as the design re-enters a previously seen state the
   remaining rows are tiled with NumPy instead of stepped.
3. **Execution, vectorised tier** — when the kernel plan reconstructs
   at least one wire, a *reduced* generated loop steps only the
   sequential residue (typically a handful of ops) and records the
   core wire columns; every feed-forward wire is then rebuilt for
   *all* cycles at once by the planned kernels — bitwise ops over
   ``(cycles,)`` uint64 vectors, ``np.take``-style table gathers,
   shifted views for peeled registers — writing into the same
   ``(cycles + 1, n_wires)`` value tensor the scalar tier produces.
   Memoised long runs step only until state re-entry and tile the
   activity matrix with period-aligned block copies (periodicity
   starts ``depth`` cycles after re-entry, where ``depth`` is the
   longest peeled register chain), so throughput on periodic designs
   is bounded by memory bandwidth, not the interpreter.
4. **Activity** — switching activity is computed *after* the run as
   vectorised Hamming weights over the ``(cycles + 1, n_wires)`` value
   matrix, written column-by-column into the ``(cycles, n_channels)``
   activity matrix.  The channel-index map is computed once at compile
   time; no per-cycle objects are allocated.
5. **Batching** (:func:`run_batch`) — the paper's experiments are
   fleet-scale: many device instances of a handful of netlist
   structures.  Lowering therefore also derives a *shape key* — the
   structural fingerprint with every per-device datum (constant values,
   lookup/ROM/transition tables, register reset values, wire initial
   values, activity weights) abstracted away.  N netlists sharing a
   shape key execute in **one** batched run: every wire becomes a
   ``(batch,)`` NumPy vector, per-device constants and tables are bound
   as stacked arrays indexed by lane, the step loop runs once for the
   whole fleet, wire values are recorded into a
   ``(cycles + 1, n_wires, batch)`` tensor, and activity is computed as
   batched Hamming weights.  State-cycle memoisation is batch-aware:
   stepping proceeds in chunks and each lane's state re-entry is
   detected independently, so ragged fleets (different cycle counts,
   different reset states) tile each lane's own period.  The kernel
   plan composes with the batch axis: under ``vectorise="auto"`` the
   batched loop steps only the sequential residue per cycle and the
   kernels rebuild every remaining wire for all ``cycles × lanes`` at
   once.

**Tier selection.**  ``engine="auto"`` on the
:class:`~repro.hdl.simulator.Simulator` compiles the netlist and lets
the engine pick per design: the vectorised tier whenever the plan
reconstructs at least one wire (every paper design), the scalar
generated loop when the sequential residue is the whole design — an
FSM whose every wire sits on the register feedback path, where a
reduced loop plus kernels would just be the scalar loop with extra
bookkeeping.  ``engine="compiled"`` pins the scalar loop (the oracle
the vectorised tier is byte-compared against), ``engine="vectorised"``
pins the kernel tier, and netlists the lowering pass rejects fall back
to the interpreted loop under ``"auto"``.  Opaque lookup callables,
input ports and oversized transition tables are simply forced into the
sequential residue, so they execute exactly the scalar statements —
the tier never guesses at semantics it cannot prove.

**Invariant — neither batching nor the vectorised tier changes trace
bytes.**  The compiled output is bit-identical to the interpreted
oracle, the batched path is byte-identical to the per-device compiled
path, and the vectorised tier is byte-identical to the scalar loop:
identical ``ActivityTrace`` matrices, channels and post-run netlist
state for every lane, regardless of batch size, lane order or
raggedness (``tests/test_engine.py``, ``tests/test_engine_batch.py``
and ``tests/test_engine_vectorised.py`` prove it for every paper
design).  Uint64 lane arithmetic mirrors the scalar
integer statements operation for operation, and both paths share one
activity kernel (:func:`_activity_from_values`), so consumers — most
importantly the fleet-level activity cache in
:mod:`repro.acquisition.device` — may freely mix scalar and batched
executions without invalidating anything keyed on trace content.

Lowering additionally yields a *structural fingerprint* — a digest of
the wire table, component graph and all lowered truth tables — which
:mod:`repro.acquisition.device` uses to share activity traces across a
fleet of devices manufactured from the same IP.  Two netlists with the
same structural fingerprint are bit-for-bit interchangeable; two
netlists with the same *shape key* merely ride in the same batch and
keep their own per-lane data.

Netlists containing constructs the lowering pass cannot prove
equivalent (custom component classes, wires outside the netlist,
extremely wide buses) raise :class:`CompileError`; the
:class:`~repro.hdl.simulator.Simulator` front-end then falls back to
the interpreted reference engine automatically.  Netlists with input
ports, opaque lookup callables or very wide transition tables compile
but are not *batchable*; :func:`~repro.hdl.simulator.simulate_batch`
runs those lanes through the scalar path instead.

A compiled program snapshots its netlist's *compile generation*
(:attr:`~repro.hdl.netlist.Netlist.compile_generation`).  A component
that mutates anything the program baked in announces it via
:meth:`~repro.hdl.component.Component.invalidate_compiled`, after
which every stale :class:`CompiledNetlist` raises :class:`CompileError`
instead of silently executing the old program; the ``Simulator``
front-end recompiles transparently.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.hdl.activity import ActivityTrace, Channel
from repro.hdl.combinational import (
    BinaryToGray,
    Constant,
    GrayToBinary,
    Incrementer,
    LookupLogic,
    Mux2,
    TransitionTable,
    XorArray,
)
from repro.hdl.io import ClockTree, InputPort, OutputPort
from repro.hdl.memory import SyncROM
from repro.hdl.netlist import Netlist
from repro.hdl.register import DRegister
from repro.hdl.wires import Wire, mask

#: Lookup logic whose concatenated input bus is at most this wide is
#: exhaustively enumerated into a flat table at compile time.  The same
#: bound caps the state wires of transition tables the batched engine
#: densifies into sentinel-padded arrays.
MAX_TABLE_BITS = 16

#: Widest bus the int64-based activity vectorisation supports.
MAX_WIRE_WIDTH = 63

#: Runs at least this long use the state-memoising runner; shorter runs
#: skip the per-cycle dict bookkeeping (a design's period is rarely
#: shorter than a few hundred cycles, so short runs cannot amortise it).
MEMO_MIN_CYCLES = 512

#: Cycles the batched runner steps between two scans for per-lane state
#: re-entry.  Scanning is vectorised but not free, so it happens once
#: per chunk rather than once per cycle; a chunk the size of
#: :data:`MEMO_MIN_CYCLES` keeps the wasted post-period stepping of the
#: fastest lane bounded by one chunk.
BATCH_MEMO_CHUNK = MEMO_MIN_CYCLES


class CompileError(Exception):
    """The netlist contains a construct the lowering pass cannot prove
    equivalent to the interpreted semantics."""


#: Process-wide cache of generated step programs keyed on the
#: structural fingerprint.  Two netlists with the same fingerprint
#: lower to byte-identical source over identical wire indices and
#: value-equal bound constants, so the exec'd ``_settle`` / ``_run`` /
#: ``_run_memo`` / ``_rrun`` / ``_rrun_memo`` functions and the vector
#: plan can be shared: a fleet of N devices manufactured from the same
#: IP compiles its program exactly once.  Entries are
#: ``(source, settle, run, run_memo, rrun, rrun_memo, vector_plan)``.
_PROGRAM_CACHE: "OrderedDict[str, tuple]" = OrderedDict()

#: Process-wide cache of generated *batched* step programs, keyed on
#: ``(shape key, per-slot uniformity mask)``: the same shape lowers to
#: slightly different source depending on which data slots are uniform
#: across the batch (uniform tables index 1-D, ragged tables index by
#: lane), so both dimensions key the cache.
_BATCH_PROGRAM_CACHE: "OrderedDict[Tuple[str, Tuple], Tuple[str, Callable, Callable]]" = (
    OrderedDict()
)

#: Upper bound on distinct cached programs (LRU eviction).
PROGRAM_CACHE_MAX = 128


#: Per-shape cycle-axis vector plans for :func:`run_batch` (the scalar
#: path shares its plan through :data:`_PROGRAM_CACHE` instead).
_BATCH_PLAN_CACHE: "OrderedDict[str, _VectorPlan]" = OrderedDict()


def clear_program_cache() -> None:
    """Drop every shared compiled program (mainly for tests)."""
    _PROGRAM_CACHE.clear()
    _BATCH_PROGRAM_CACHE.clear()
    _BATCH_PLAN_CACHE.clear()


def program_cache_size() -> int:
    """Number of distinct netlist structures with a cached program."""
    return len(_PROGRAM_CACHE)


def batch_program_cache_size() -> int:
    """Number of distinct (shape, uniformity) batched programs cached."""
    return len(_BATCH_PROGRAM_CACHE)


if hasattr(np, "bitwise_count"):
    def _popcount(values: np.ndarray) -> np.ndarray:
        return np.bitwise_count(values)
else:  # pragma: no cover - NumPy < 2.0
    def _popcount(values: np.ndarray) -> np.ndarray:
        x = values.astype(np.uint64)
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + (
            (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
        )
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


#: Marks "no transition entry" in densified transition tables.  Legal
#: wire values fit in :data:`MAX_WIRE_WIDTH` bits, so all-ones is free.
_TT_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)


def _activity_from_values(
    values: np.ndarray,
    cycles: int,
    specs: Sequence[tuple],
    params: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """Activity matrix from a recorded wire-value tensor.

    ``values`` is ``(cycles + 1, n_wires)`` for one netlist or
    ``(cycles + 1, n_wires, batch)`` for a batched execution; the
    result has the matching ``(cycles, n_channels[, batch])`` shape.
    ``params`` optionally overrides the per-spec activity parameters
    (LUT glitch factor, ROM precharge, clock load) with per-lane
    arrays for batches whose lanes carry different weights.

    Scalar and batched executions share this one kernel on purpose:
    every operation is elementwise, so a lane of a batched result is
    float-for-float identical to the same netlist's scalar result.
    """
    current = values[1:]
    previous = values[:-1]
    hd_cache: Dict[int, np.ndarray] = {}

    def hd(wire: int) -> np.ndarray:
        column = hd_cache.get(wire)
        if column is None:
            column = _popcount(current[:, wire] ^ previous[:, wire]).astype(
                np.float64
            )
            hd_cache[wire] = column
        return column

    matrix = np.empty(
        (cycles, len(specs)) + values.shape[2:], dtype=np.float64
    )
    for column, spec in enumerate(specs):
        op = spec[0]
        override = None if params is None else params[column]
        if op == "reg" or op == "out":
            matrix[:, column] = hd(spec[1])
        elif op == "in_out":
            matrix[:, column] = hd(spec[1]) + hd(spec[2])
        elif op == "inc":
            _, a, out, width = spec
            value = current[:, a]
            ripple = np.minimum(
                _popcount(value ^ (value + np.uint64(1))), width
            ).astype(np.float64)
            matrix[:, column] = hd(out) + 2.0 * ripple
        elif op == "lut":
            _, inputs, out, glitch_factor = spec
            if override is not None:
                glitch_factor = override
            toggles = 0.0 if not inputs else sum(hd(i) for i in inputs)
            matrix[:, column] = hd(out) + glitch_factor * toggles
        elif op == "tt":
            matrix[:, column] = hd(spec[2]) + 0.5 * hd(spec[1])
        elif op == "rom":
            _, addr, data, precharge = spec
            if override is not None:
                precharge = override
            matrix[:, column] = hd(addr) + hd(data) + precharge
        elif op == "io":
            matrix[:, column] = hd(spec[1])
        elif op == "clock":
            matrix[:, column] = spec[1] if override is None else override
        else:  # pragma: no cover - specs are produced in-module
            raise CompileError(f"unknown activity spec {op!r}")
    return matrix


@dataclass(frozen=True)
class _BatchLane:
    """Everything about one netlist that may differ from its shape mates.

    A batched program is generated per *shape*; these per-lane payloads
    supply the data the shape abstracts away: power-on wire values,
    register reset values, the contents of every data slot (constants,
    lookup tables, ROM images, transition tables, component names for
    error messages) and the per-channel activity weights.
    """

    initials: Tuple[int, ...]
    resets: Tuple[int, ...]
    slot_values: Tuple[object, ...]
    act_params: Tuple[Optional[float], ...]


class _Lowering:
    """Builds the generated source, namespace and metadata for one netlist."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.wires: List[Wire] = list(netlist.wires.values())
        self.index: Dict[int, int] = {id(w): i for i, w in enumerate(self.wires)}
        for wire in self.wires:
            if wire.width > MAX_WIRE_WIDTH:
                raise CompileError(
                    f"wire {wire.name!r} is {wire.width} bits wide; the "
                    f"compiled engine supports at most {MAX_WIRE_WIDTH}"
                )
        self.namespace: Dict[str, object] = {}
        self.fingerprintable = True
        #: Batch execution additionally requires every data-dependent
        #: construct to be expressible as lane-indexed array lookups.
        self.batchable = bool(self.wires)
        self.records: List[tuple] = [
            ("wires", tuple((w.name, w.width, w._initial) for w in self.wires))
        ]
        self.registers: List[DRegister] = []
        self.ports: List[InputPort] = []
        self.channels: List[Channel] = []
        self.activity_specs: List[tuple] = []
        self.act_params: List[Optional[float]] = []
        self.slot_kinds: List[str] = []
        self.slot_values: List[object] = []
        self._batch_op: Dict[int, tuple] = {}
        self._lookup_codegen: Dict[int, Optional[Tuple[int, ...]]] = {}
        self._tables: Dict[tuple, Optional[Tuple[int, ...]]] = {}
        self._counter = 0

    def wire_index(self, wire: Wire) -> int:
        key = id(wire)
        if key not in self.index:
            raise CompileError(
                f"component references wire {wire.name!r} that is not "
                f"registered in netlist {self.netlist.name!r}"
            )
        return self.index[key]

    def bind(self, prefix: str, value: object) -> str:
        """Place a constant object into the exec namespace."""
        name = f"_{prefix}{self._counter}"
        self._counter += 1
        self.namespace[name] = value
        return name

    def slot(self, kind: str, value: object) -> int:
        """Allocate one per-lane data slot for the batched program."""
        self.slot_kinds.append(kind)
        self.slot_values.append(value)
        return len(self.slot_kinds) - 1

    def lower(self) -> None:
        """Index wires, lower components, derive channels + fingerprint.

        Source assembly (:meth:`generate_program`) is deferred until an
        execution is actually requested: a fleet-cache hit only needs
        the fingerprint, not a runnable program.
        """
        for component in self.netlist.components:
            self._lower_component(component)

    # -- per-component lowering -------------------------------------------

    def _lower_component(self, component) -> None:
        kind = type(component)
        if kind is DRegister:
            self._lower_register(component)
        elif kind is Constant:
            out = self.wire_index(component.output)
            self.records.append(
                ("Constant", component.name, out, component.value)
            )
            self._batch_op[id(component)] = (
                "const", self.slot("const", component.value), out
            )
        elif kind is XorArray:
            a, b = self.wire_index(component.a), self.wire_index(component.b)
            out = self.wire_index(component.output)
            self.records.append(("XorArray", component.name, a, b, out))
            self._batch_op[id(component)] = ("xor", a, b, out)
            self._channel(component, ("out", out))
        elif kind is Incrementer:
            a = self.wire_index(component.a)
            out = self.wire_index(component.output)
            self.records.append(("Incrementer", component.name, a, out))
            self._batch_op[id(component)] = (
                "inc", a, out, mask(component.a.width)
            )
            self._channel(component, ("inc", a, out, component.a.width))
        elif kind is BinaryToGray:
            a = self.wire_index(component.a)
            out = self.wire_index(component.output)
            self.records.append(("BinaryToGray", component.name, a, out))
            self._batch_op[id(component)] = ("b2g", a, out)
            self._channel(component, ("in_out", a, out))
        elif kind is GrayToBinary:
            a = self.wire_index(component.a)
            out = self.wire_index(component.output)
            self.records.append(("GrayToBinary", component.name, a, out))
            self._batch_op[id(component)] = ("g2b", a, out, component.a.width)
            self._channel(component, ("in_out", a, out))
        elif kind is Mux2:
            s = self.wire_index(component.select)
            a, b = self.wire_index(component.a), self.wire_index(component.b)
            out = self.wire_index(component.output)
            self.records.append(("Mux2", component.name, s, a, b, out))
            self._batch_op[id(component)] = ("mux", s, a, b, out)
            self._channel(component, ("out", out))
        elif kind is LookupLogic:
            self._lower_lookup(component)
        elif kind is TransitionTable:
            self._lower_transition_table(component)
        elif kind is SyncROM:
            addr = self.wire_index(component.address)
            data = self.wire_index(component.data)
            self.records.append(
                ("SyncROM", component.name, addr, data, component.contents,
                 component.precharge_activity)
            )
            self._batch_op[id(component)] = (
                "rom", self.slot("table", component.contents), addr, data
            )
            self._channel(
                component, ("rom", addr, data, component.precharge_activity)
            )
        elif kind is InputPort:
            target = self.wire_index(component.target)
            self.ports.append(component)
            # Stimulus callables have no canonical description, so a
            # netlist with input ports is never fingerprintable (and
            # therefore never batchable).
            self.fingerprintable = False
            self.batchable = False
            self._channel(component, ("io", target))
        elif kind is OutputPort:
            source = self.wire_index(component.source)
            self.records.append(("OutputPort", component.name, source))
            self._channel(component, ("io", source))
        elif kind is ClockTree:
            self.records.append(("ClockTree", component.name, component.load))
            self._channel(component, ("clock", component.load))
        else:
            raise CompileError(
                f"component {component.name!r} has unsupported type "
                f"{kind.__name__!r}"
            )

    def _channel(self, component, spec: tuple) -> None:
        kinds = component.activity_kinds()
        if len(kinds) != 1:  # pragma: no cover - all stock types emit one
            raise CompileError(
                f"component {component.name!r} reports {len(kinds)} activity "
                "channels; the compiled engine lowers exactly one"
            )
        self.channels.append(Channel(component.name, kinds[0]))
        self.activity_specs.append(spec)
        op = spec[0]
        if op == "lut" or op == "rom":
            self.act_params.append(spec[3])
        elif op == "clock":
            self.act_params.append(spec[1])
        else:
            self.act_params.append(None)

    def _lower_register(self, register: DRegister) -> None:
        d = self.wire_index(register.d)
        q = self.wire_index(register.q)
        self.registers.append(register)
        self.records.append(
            ("DRegister", register.name, d, q, register.reset_value)
        )
        self._channel(register, ("reg", q))

    def _lower_lookup(self, logic: LookupLogic) -> None:
        in_idx = tuple(self.wire_index(w) for w in logic.input_wires)
        out = self.wire_index(logic.output)
        table = self._tablefy(logic)
        if table is not None:
            self.records.append(
                ("LookupLogic", logic.name, in_idx, out, logic.glitch_factor,
                 table)
            )
            parts = tuple(
                (idx, wire.width)
                for idx, wire in zip(in_idx, logic.input_wires)
            )
            self._batch_op[id(logic)] = (
                "lut", self.slot("table", table), parts, out
            )
        else:
            self.fingerprintable = False
            self.batchable = False
        self._channel(logic, ("lut", in_idx, out, logic.glitch_factor))
        self._lookup_codegen[id(logic)] = table

    def _tablefy(self, logic: LookupLogic) -> Optional[Tuple[int, ...]]:
        """Exhaustively enumerate a lookup function into a flat table.

        Returns ``None`` when the input bus is too wide or the callable
        raises / returns out-of-range values somewhere in the domain (a
        partial function only defined on reachable codes); the lowered
        program then keeps calling the original function per cycle.

        Gates that share one function object at the same widths (every
        imported 2-input ``nand``, say) share one table.  The memo lives
        on this lowering only: it is keyed on ``id(function)``, which
        is unique only while the netlist holds the function, and a
        process-wide memo would also outlive :func:`clear_program_cache`
        and so carry work across runs meant to start cold.
        """
        widths = tuple(w.width for w in logic.input_wires)
        key = (id(logic.function), widths, logic.output.width)
        if key not in self._tables:
            self._tables[key] = self._enumerate(logic.function, *key[1:])
        return self._tables[key]

    @staticmethod
    def _enumerate(
        function: Callable[..., int], widths: Tuple[int, ...], out_width: int
    ) -> Optional[Tuple[int, ...]]:
        total = sum(widths)
        if total > MAX_TABLE_BITS:
            return None
        out_mask = mask(out_width)
        table: List[int] = []
        try:
            for packed in range(1 << total):
                values = []
                shift = total
                for width in widths:
                    shift -= width
                    values.append((packed >> shift) & mask(width))
                result = function(*values)
                result_int = int(result)
                if result_int != result or not 0 <= result_int <= out_mask:
                    return None
                table.append(result_int)
        except Exception:
            return None
        return tuple(table)

    def _lower_transition_table(self, component: TransitionTable) -> None:
        state = self.wire_index(component.state)
        nxt = self.wire_index(component.next_state)
        next_mask = mask(component.next_state.width)
        for code, target in component.table.items():
            if not 0 <= target <= next_mask:
                raise CompileError(
                    f"{component.name}: transition target {target} does not "
                    f"fit in {component.next_state.width} bits"
                )
            if code < 0:
                raise CompileError(
                    f"{component.name}: negative state code {code}"
                )
        items = tuple(sorted(component.table.items()))
        self.records.append(
            ("TransitionTable", component.name, state, nxt, items)
        )
        if component.state.width <= MAX_TABLE_BITS:
            self._batch_op[id(component)] = (
                "tt",
                self.slot("ttable", (component.state.width, items)),
                self.slot("ttname", component.name),
                state,
                nxt,
            )
        else:
            # Densifying a 2^width sentinel table is not worth it for
            # very wide state buses; those lanes run scalar.
            self.batchable = False
        self._channel(component, ("tt", state, nxt))

    # -- source assembly ---------------------------------------------------

    def _comb_statement(self, component, stim_expr: str) -> List[str]:
        """Statements settling one combinational component."""
        w = lambda i: f"w{i}"  # noqa: E731 - tiny local shorthand
        kind = type(component)
        if kind is Constant:
            return [f"{w(self.wire_index(component.output))} = {component.value}"]
        if kind is XorArray:
            return [
                f"{w(self.wire_index(component.output))} = "
                f"{w(self.wire_index(component.a))} ^ {w(self.wire_index(component.b))}"
            ]
        if kind is Incrementer:
            return [
                f"{w(self.wire_index(component.output))} = "
                f"({w(self.wire_index(component.a))} + 1) & {mask(component.a.width)}"
            ]
        if kind is BinaryToGray:
            a = w(self.wire_index(component.a))
            return [f"{w(self.wire_index(component.output))} = {a} ^ ({a} >> 1)"]
        if kind is GrayToBinary:
            lines = [f"_x = {w(self.wire_index(component.a))}"]
            shift = 1
            while shift < component.a.width:
                lines.append(f"_x ^= _x >> {shift}")
                shift <<= 1
            lines.append(f"{w(self.wire_index(component.output))} = _x")
            return lines
        if kind is Mux2:
            return [
                f"{w(self.wire_index(component.output))} = "
                f"{w(self.wire_index(component.b))} "
                f"if {w(self.wire_index(component.select))} "
                f"else {w(self.wire_index(component.a))}"
            ]
        if kind is LookupLogic:
            return self._lookup_statement(component)
        if kind is TransitionTable:
            return self._transition_statement(component)
        if kind is SyncROM:
            name = self.bind("T", component.contents)
            return [
                f"{w(self.wire_index(component.data))} = "
                f"{name}[{w(self.wire_index(component.address))}]"
            ]
        if kind is InputPort:
            name = self.bind("S", component.stimulus)
            target = component.target
            out = w(self.wire_index(target))
            return [
                f"{out} = {name}({stim_expr})",
                f"if not 0 <= {out} <= {mask(target.width)}: "
                f"raise ValueError('wire %r: value %s does not fit in "
                f"{target.width} bits' % ({target.name!r}, {out}))",
            ]
        if kind is OutputPort:
            return []
        raise CompileError(  # pragma: no cover - guarded in _lower_component
            f"no statement lowering for {kind.__name__}"
        )

    def _lookup_statement(self, logic: LookupLogic) -> List[str]:
        w = lambda i: f"w{i}"  # noqa: E731
        out_idx = self.wire_index(logic.output)
        table = self._lookup_codegen[id(logic)]
        in_idx = [self.wire_index(wire) for wire in logic.input_wires]
        if table is not None:
            name = self.bind("T", table)
            widths = [wire.width for wire in logic.input_wires]
            shift = sum(widths)
            parts = []
            for idx, width in zip(in_idx, widths):
                shift -= width
                parts.append(f"({w(idx)} << {shift})" if shift else w(idx))
            return [f"{w(out_idx)} = {name}[{' | '.join(parts)}]"]
        name = self.bind("F", logic.function)
        args = ", ".join(w(i) for i in in_idx)
        out = w(out_idx)
        out_wire = logic.output
        return [
            f"{out} = {name}({args})",
            f"if not 0 <= {out} <= {mask(out_wire.width)}: "
            f"raise ValueError('wire %r: value %s does not fit in "
            f"{out_wire.width} bits' % ({out_wire.name!r}, {out}))",
        ]

    def _transition_statement(self, component: TransitionTable) -> List[str]:
        w = lambda i: f"w{i}"  # noqa: E731
        state = w(self.wire_index(component.state))
        out = w(self.wire_index(component.next_state))
        name = self.bind("D", dict(component.table))
        return [
            f"{out} = {name}.get({state}, -1)",
            f"if {out} < 0: raise KeyError('%s: state code %s has no "
            f"transition entry' % ({component.name!r}, format({state}, '#x')))",
        ]

    def vector_ops(self, order: Sequence) -> Tuple[tuple, ...]:
        """Shape-level op per combinational component, aligned with ``order``.

        Components the batched lowering covers reuse their batch op;
        the rest get pseudo-ops so :func:`_vector_partition` sees their
        dataflow: ``("port", target)`` for input ports, ``("opaque",
        inputs, out)`` for un-tablefied lookup callables, ``("widett",
        state, next)`` for transition tables too wide to densify and
        ``("nop",)`` for output pads.  Position ``i`` always describes
        ``order[i]``, so partition results index straight into the
        combinational order.
        """
        ops: List[tuple] = []
        for component in order:
            op = self._batch_op.get(id(component))
            if op is not None:
                ops.append(op)
                continue
            kind = type(component)
            if kind is InputPort:
                ops.append(("port", self.wire_index(component.target)))
            elif kind is LookupLogic:
                ops.append((
                    "opaque",
                    tuple(self.wire_index(w) for w in component.input_wires),
                    self.wire_index(component.output),
                ))
            elif kind is TransitionTable:
                ops.append((
                    "widett",
                    self.wire_index(component.state),
                    self.wire_index(component.next_state),
                ))
            else:  # OutputPort (ClockTree is not combinational)
                ops.append(("nop",))
        return tuple(ops)

    def generate_program(self) -> None:
        """Assemble and exec the scalar runners (full and reduced).

        ``_settle`` / ``_run`` / ``_run_memo`` execute the whole design;
        ``_rrun`` / ``_rrun_memo`` execute only the vector plan's
        phase-1 residue (core ops + core registers) and record compact
        core-wire rows for the phase-2 kernels to expand.
        """
        order = self.netlist.combinational_order()
        n = len(self.wires)
        names = [f"w{i}" for i in range(n)]
        unpack = ", ".join(names) + ("," if names else "")
        row = "(" + ", ".join(names) + ("," if names else "") + ")"
        regs = tuple(
            (self.wire_index(r.d), self.wire_index(r.q))
            for r in self.registers
        )
        plan = _vector_partition(n, regs, self.vector_ops(order))
        self.vector_plan = plan

        port_slot = {id(port): i for i, port in enumerate(self.ports)}
        settle_body: List[str] = []
        loop_body: List[str] = []
        for component in order:
            settle_body.extend(self._comb_statement(component, "0"))
            # Constants stay in the loop body too: the interpreted oracle
            # drives them every cycle, which matters for the first cycle
            # of a never-reset netlist (previous value is the power-on
            # initial, not the constant).
            if type(component) is InputPort:
                stim_expr = f"_t + 1 + _off[{port_slot[id(component)]}]"
            else:
                stim_expr = "0"
            loop_body.extend(self._comb_statement(component, stim_expr))

        capture = [
            f"_c{i} = w{self.wire_index(reg.d)}"
            for i, reg in enumerate(self.registers)
        ]
        commit = [
            f"w{self.wire_index(reg.q)} = _c{i}"
            for i, reg in enumerate(self.registers)
        ]

        step = "\n".join(
            part for part in (
                _indent(capture, 2), _indent(commit, 2), _indent(loop_body, 2)
            ) if part
        )
        settle = _indent(settle_body, 1) or "    pass"
        unpack_line = f"    {unpack} = _v\n" if names else ""
        unpack_run = f"    {unpack} = _init\n" if names else ""

        source = (
            f"def _settle(_v):\n"
            f"{unpack_line}"
            f"{settle}\n"
            f"    return {row}\n"
            f"\n"
            f"def _run(_cycles, _init, _off):\n"
            f"    _rows = [_init]\n"
            f"    _ap = _rows.append\n"
            f"{unpack_run}"
            f"    for _t in range(_cycles):\n"
            f"{step}\n"
            f"        _ap({row})\n"
            f"    return _rows, None\n"
            f"\n"
            f"def _run_memo(_cycles, _init, _off):\n"
            f"    _rows = [_init]\n"
            f"    _ap = _rows.append\n"
            f"    _seen = {{_init: 0}}\n"
            f"{unpack_run}"
            f"    for _t in range(_cycles):\n"
            f"{step}\n"
            f"        _r = {row}\n"
            f"        _j = _seen.get(_r)\n"
            f"        if _j is not None:\n"
            f"            return _rows, _j\n"
            f"        _seen[_r] = len(_rows)\n"
            f"        _ap(_r)\n"
            f"    return _rows, None\n"
        )

        # Reduced runners: the same step semantics restricted to the
        # vector plan's phase-1 residue.  Core statements only ever read
        # core wires (the partition closure guarantees it), so the loop
        # tracks and records just those columns; the recorded row is the
        # memo key — core rows are Markov (nothing outside the residue
        # feeds back into it), so core re-entry implies core periodicity.
        core_names = [f"w{i}" for i in plan.core_wires]
        core_unpack = ", ".join(core_names) + ("," if core_names else "")
        core_row = (
            "(" + ", ".join(core_names) + ("," if core_names else "") + ")"
        )
        core_set = set(plan.core_ops)
        rloop_body: List[str] = []
        for pos, component in enumerate(order):
            if pos not in core_set:
                continue
            if type(component) is InputPort:
                stim_expr = f"_t + 1 + _off[{port_slot[id(component)]}]"
            else:
                stim_expr = "0"
            rloop_body.extend(self._comb_statement(component, stim_expr))
        rcapture = [
            f"_c{i} = w{self.wire_index(self.registers[i].d)}"
            for i in plan.core_regs
        ]
        rcommit = [
            f"w{self.wire_index(self.registers[i].q)} = _c{i}"
            for i in plan.core_regs
        ]
        rstep = "\n".join(
            part for part in (
                _indent(rcapture, 2),
                _indent(rcommit, 2),
                _indent(rloop_body, 2),
            ) if part
        ) or "        pass"
        runpack = f"    {core_unpack} = _init\n" if core_names else ""
        source += (
            f"\n"
            f"def _rrun(_cycles, _init, _off):\n"
            f"    _rows = [_init]\n"
            f"    _ap = _rows.append\n"
            f"{runpack}"
            f"    for _t in range(_cycles):\n"
            f"{rstep}\n"
            f"        _ap({core_row})\n"
            f"    return _rows, None\n"
            f"\n"
            f"def _rrun_memo(_cycles, _init, _off):\n"
            f"    _rows = [_init]\n"
            f"    _ap = _rows.append\n"
            f"    _seen = {{_init: 0}}\n"
            f"{runpack}"
            f"    for _t in range(_cycles):\n"
            f"{rstep}\n"
            f"        _r = {core_row}\n"
            f"        _j = _seen.get(_r)\n"
            f"        if _j is not None:\n"
            f"            return _rows, _j\n"
            f"        _seen[_r] = len(_rows)\n"
            f"        _ap(_r)\n"
            f"    return _rows, None\n"
        )
        self.source = source
        exec(compile(source, f"<compiled:{self.netlist.name}>", "exec"),
             self.namespace)

    def fingerprint(self) -> Optional[str]:
        if not self.fingerprintable:
            return None
        digest = hashlib.sha256(repr(tuple(self.records)).encode())
        return digest.hexdigest()

    # -- batch metadata ----------------------------------------------------

    def batch_metadata(
        self, order: Sequence
    ) -> Tuple[str, tuple, _BatchLane]:
        """Shape key, codegen plan and per-lane payload for batching.

        The *plan* is pure shape-level data (wire count, register d/q
        indices, ordered batch ops, slot kinds) — everything the
        batched code generator needs; the *lane* payload carries this
        netlist's values for the data the shape abstracts away.  Two
        netlists with equal shape keys have byte-identical plans.
        """
        ops = tuple(
            self._batch_op[id(component)]
            for component in order
            if id(component) in self._batch_op
        )
        regs = tuple(
            (self.wire_index(r.d), self.wire_index(r.q))
            for r in self.registers
        )
        widths = tuple(w.width for w in self.wires)
        stripped_specs = []
        for spec in self.activity_specs:
            op = spec[0]
            if op == "lut" or op == "rom":
                stripped_specs.append(spec[:3])
            elif op == "clock":
                stripped_specs.append((op,))
            else:
                stripped_specs.append(spec)
        shape_records = (
            widths, regs, ops, tuple(stripped_specs), tuple(self.slot_kinds)
        )
        shape_key = hashlib.sha256(repr(shape_records).encode()).hexdigest()
        plan = (len(self.wires), regs, ops, tuple(self.slot_kinds))
        lane = _BatchLane(
            initials=tuple(w._initial for w in self.wires),
            resets=tuple(r.reset_value for r in self.registers),
            slot_values=tuple(self.slot_values),
            act_params=tuple(self.act_params),
        )
        return shape_key, plan, lane


def _indent(lines: Sequence[str], level: int) -> str:
    pad = "    " * level
    return "\n".join(pad + line for line in lines) if lines else ""


# -- batched code generation ----------------------------------------------


def _batch_statement(op: tuple, uniform: Tuple) -> List[str]:
    """Vectorised statements for one lowered batch op.

    Mirrors :meth:`_Lowering._comb_statement` operation for operation,
    but over ``(batch,)`` uint64 lane vectors: per-lane data comes from
    the ``_D{slot}`` arrays, ragged tables index by lane through the
    ``_L`` lane-index vector, and Python conditionals become
    ``numpy.where``.  Every statement rebinds (never mutates) its
    arrays, so captured register values stay stable within a cycle.
    """
    kind = op[0]
    if kind == "const":
        _, slot, out = op
        return [f"w{out} = _D{slot}"]
    if kind == "xor":
        _, a, b, out = op
        return [f"w{out} = w{a} ^ w{b}"]
    if kind == "inc":
        _, a, out, m = op
        return [f"w{out} = (w{a} + 1) & {m}"]
    if kind == "b2g":
        _, a, out = op
        return [f"w{out} = w{a} ^ (w{a} >> 1)"]
    if kind == "g2b":
        _, a, out, width = op
        lines = [f"_x = w{a}"]
        shift = 1
        while shift < width:
            lines.append(f"_x = _x ^ (_x >> {shift})")
            shift <<= 1
        lines.append(f"w{out} = _x")
        return lines
    if kind == "mux":
        _, s, a, b, out = op
        return [f"w{out} = _np.where(w{s} != 0, w{b}, w{a})"]
    if kind == "lut":
        _, slot, parts, out = op
        shift = sum(width for _, width in parts)
        exprs = []
        for idx, width in parts:
            shift -= width
            exprs.append(f"(w{idx} << {shift})" if shift else f"w{idx}")
        index = " | ".join(exprs)
        if uniform[slot]:
            return [f"w{out} = _D{slot}[{index}]"]
        return [f"w{out} = _D{slot}[_L, {index}]"]
    if kind == "rom":
        _, slot, addr, out = op
        if uniform[slot]:
            return [f"w{out} = _D{slot}[w{addr}]"]
        return [f"w{out} = _D{slot}[_L, w{addr}]"]
    if kind == "tt":
        _, tslot, nslot, state, out = op
        lookup = (
            f"w{out} = _D{tslot}[w{state}]"
            if uniform[tslot]
            else f"w{out} = _D{tslot}[_L, w{state}]"
        )
        return [
            lookup,
            f"if (w{out} == _TTSENT).any():",
            f"    _i = int((w{out} == _TTSENT).argmax())",
            f"    raise KeyError('%s: state code %s has no transition "
            f"entry' % (_D{nslot}[_i], format(int(w{state}[_i]), '#x')))",
        ]
    raise CompileError(  # pragma: no cover - ops are produced in-module
        f"no batched lowering for op {kind!r}"
    )


def _build_batch_source(
    plan: tuple, uniform: Tuple, partition: Optional["_VectorPlan"] = None
) -> str:
    """Assemble ``_bsettle`` / ``_brun`` source for one shape.

    With a ``partition`` (the cycle-axis vector plan), ``_brun``
    executes only the phase-1 residue — core ops and core registers —
    and records compact core-wire rows; the settle pass stays full
    because the baseline row needs every wire.  Without one, the loop
    executes and records the whole design (the scalar-per-cycle batch
    oracle the vectorised composition is tested against).
    """
    n_wires, regs, ops, slot_kinds = plan
    names = [f"w{i}" for i in range(n_wires)]
    unpack = ", ".join(names) + ","
    data_names = [f"_D{i}" for i in range(len(slot_kinds))] + ["_L"]
    data_unpack = "(" + ", ".join(data_names) + ",) = _d"

    body: List[str] = []
    for op in ops:
        body.extend(_batch_statement(op, uniform))
    if partition is None:
        loop_body = body
        loop_regs = list(enumerate(regs))
        record = list(range(n_wires))
    else:
        core_set = set(partition.core_ops)
        loop_body = []
        for pos, op in enumerate(ops):
            if pos in core_set:
                loop_body.extend(_batch_statement(op, uniform))
        loop_regs = [(i, regs[i]) for i in partition.core_regs]
        record = list(partition.core_wires)
    capture = [f"_c{i} = w{d}" for i, (d, _q) in loop_regs]
    commit = [f"w{q} = _c{i}" for i, (_d, q) in loop_regs]
    stores = ["_Ot = _O[_t + 1]"] + [
        f"_Ot[{k}] = w{i}" for k, i in enumerate(record)
    ]

    settle_body = _indent(body, 1) or "    pass"
    step = "\n".join(
        part for part in (
            _indent(capture, 2),
            _indent(commit, 2),
            _indent(loop_body, 2),
            _indent(stores, 2),
        ) if part
    )
    return (
        f"def _bsettle(_w, _d):\n"
        f"    {data_unpack}\n"
        f"    ({unpack}) = _w\n"
        f"{settle_body}\n"
        f"    return ({unpack})\n"
        f"\n"
        f"def _brun(_cycles, _w, _O, _d):\n"
        f"    {data_unpack}\n"
        f"    ({unpack}) = _w\n"
        f"    for _t in range(_cycles):\n"
        f"{step}\n"
        f"    return ({unpack})\n"
    )


def _batch_program(
    shape_key: str,
    plan: tuple,
    uniform: Tuple,
    partition: Optional["_VectorPlan"] = None,
) -> Tuple[Callable, Callable]:
    """Fetch or generate the batched program for (shape, uniformity).

    Core-recording (vectorised-composition) programs cache separately
    from full-recording ones — the partition is itself a pure function
    of the shape, so a boolean suffices as the third key dimension.
    """
    cache_key = (shape_key, uniform, partition is not None)
    cached = _BATCH_PROGRAM_CACHE.get(cache_key)
    if cached is not None:
        _BATCH_PROGRAM_CACHE.move_to_end(cache_key)
        return cached[1], cached[2]
    source = _build_batch_source(plan, uniform, partition)
    namespace: Dict[str, object] = {"_np": np, "_TTSENT": _TT_SENTINEL}
    exec(compile(source, "<batched>", "exec"), namespace)
    entry = (source, namespace["_bsettle"], namespace["_brun"])
    _BATCH_PROGRAM_CACHE[cache_key] = entry
    while len(_BATCH_PROGRAM_CACHE) > PROGRAM_CACHE_MAX:
        _BATCH_PROGRAM_CACHE.popitem(last=False)
    return entry[1], entry[2]


def _dense_transition_table(value: Tuple[int, Tuple]) -> np.ndarray:
    """Densify a (state width, sorted items) transition table.

    Missing codes hold :data:`_TT_SENTINEL`, which the generated check
    turns into the same ``KeyError`` the scalar paths raise.
    """
    width, items = value
    size = 1 << width
    table = np.full(size, _TT_SENTINEL, dtype=np.uint64)
    for code, target in items:
        # Codes beyond the state wire's width are unreachable (wires
        # are width-masked); the scalar paths simply never look them
        # up, so the dense form drops them rather than overflowing.
        if code < size:
            table[code] = target
    return table


def _first_state_reentry(rows: np.ndarray) -> Optional[Tuple[int, int]]:
    """First ``(j, t1)`` with ``rows[t1] == rows[j]`` and ``j < t1``.

    This is exactly the state re-entry the scalar ``_run_memo`` detects:
    ``t1`` is the first time index whose full wire-value row repeats an
    earlier row ``j``; from ``j`` on the sequence is periodic with
    period ``t1 - j``.  Returns ``None`` when no row repeats.
    """
    arr = np.ascontiguousarray(rows)
    _, first_index, inverse = np.unique(
        arr, axis=0, return_index=True, return_inverse=True
    )
    inverse = np.asarray(inverse).reshape(-1)
    first_occurrence = first_index[inverse]
    duplicate = first_occurrence != np.arange(arr.shape[0])
    if not duplicate.any():
        return None
    t1 = int(duplicate.argmax())
    return int(first_occurrence[t1]), t1


# -- cycle-axis vectorisation (the third execution tier) -------------------

#: Op kinds the vectorised tier always keeps in the scalar phase-1
#: residue: transition tables (sparse dict semantics whose ``KeyError``
#: must fire at the first offending cycle), opaque lookup callables,
#: input ports (arbitrary stimulus callables) and transition tables too
#: wide to densify.
_VECTOR_CORE_KINDS = frozenset({"tt", "widett", "port", "opaque"})


def _op_wires(op: tuple) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(read wire indices, written wire indices)`` of one lowered op."""
    kind = op[0]
    if kind == "const":
        return (), (op[2],)
    if kind == "xor":
        return (op[1], op[2]), (op[3],)
    if kind == "inc" or kind == "b2g" or kind == "g2b":
        return (op[1],), (op[2],)
    if kind == "mux":
        return (op[1], op[2], op[3]), (op[4],)
    if kind == "lut":
        return tuple(idx for idx, _width in op[2]), (op[3],)
    if kind == "rom":
        return (op[2],), (op[3],)
    if kind == "tt":
        return (op[3],), (op[4],)
    if kind == "widett":
        return (op[1],), (op[2],)
    if kind == "port":
        return (), (op[1],)
    if kind == "opaque":
        return tuple(op[1]), (op[2],)
    if kind == "nop":
        return (), ()
    raise CompileError(  # pragma: no cover - ops are produced in-module
        f"unknown lowered op {kind!r}"
    )


@dataclass(frozen=True)
class _VectorPlan:
    """How one netlist shape splits into sequential residue + kernels.

    ``core_ops`` / ``core_regs`` / ``core_wires`` describe phase 1: the
    ops, registers and recorded wires of the reduced scalar step loop.
    ``kernels`` is the topologically ordered phase-2 program that
    reconstructs every remaining wire column for all cycles at once.
    ``depth`` is the longest chain of peeled registers: a full value
    row depends on at most ``depth`` earlier core rows, so periodicity
    of the full rows lags the core-row period start by ``depth``.
    """

    core_wires: Tuple[int, ...]
    core_ops: Tuple[int, ...]
    core_regs: Tuple[int, ...]
    kernels: Tuple[tuple, ...]
    depth: int

    @property
    def profitable(self) -> bool:
        """True when phase 2 reconstructs at least one computed wire."""
        return any(kernel[0] != "hold" for kernel in self.kernels)


def _vector_partition(
    n_wires: int, regs: Sequence[Tuple[int, int]], ops: Sequence[tuple]
) -> _VectorPlan:
    """Partition a lowered netlist for cycle-axis vectorisation.

    Phase 1 (the sequential residue) keeps: every forced-core op
    (:data:`_VECTOR_CORE_KINDS`), every register on a register-to-
    register dependency cycle (the genuine recurrence state), and the
    transitive combinational fan-in of both.  Everything else — feed-
    forward combinational slices whose inputs are core columns, plus
    *peeled* registers (acyclic state that is a pure one-cycle delay of
    a reconstructible wire) — becomes a phase-2 kernel evaluated over
    whole blocks of cycles at once.
    """
    reads: List[Tuple[int, ...]] = []
    writes: List[Tuple[int, ...]] = []
    producer: Dict[int, Tuple[str, int]] = {}
    for pos, op in enumerate(ops):
        op_reads, op_writes = _op_wires(op)
        reads.append(op_reads)
        writes.append(op_writes)
        for wire in op_writes:
            producer[wire] = ("op", pos)
    for pos, (_d, q) in enumerate(regs):
        producer[q] = ("reg", pos)

    def reg_sources(wire: int) -> set:
        """Registers whose Q reaches ``wire`` through combinational ops."""
        found: set = set()
        seen: set = set()
        stack = [wire]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            entry = producer.get(current)
            if entry is None:
                continue
            kind, pos = entry
            if kind == "reg":
                found.add(pos)
            else:
                stack.extend(reads[pos])
        return found

    reg_deps = [reg_sources(d) for d, _q in regs]
    # A register carries recurrence state iff it can reach itself
    # through the register dependency graph; acyclic registers are
    # "peeled" and reconstructed in phase 2 as one-cycle column shifts.
    on_cycle: set = set()
    for start in range(len(regs)):
        stack = list(reg_deps[start])
        seen = set()
        while stack:
            reg = stack.pop()
            if reg == start:
                on_cycle.add(start)
                break
            if reg in seen:
                continue
            seen.add(reg)
            stack.extend(reg_deps[reg])

    core_ops = {pos for pos, op in enumerate(ops) if op[0] in _VECTOR_CORE_KINDS}
    core_regs = set(on_cycle)
    needed: set = set()
    stack = []
    for pos in core_ops:
        stack.extend(reads[pos])
    for pos in core_regs:
        stack.append(regs[pos][0])
    while stack:
        wire = stack.pop()
        if wire in needed:
            continue
        needed.add(wire)
        entry = producer.get(wire)
        if entry is None:
            continue
        kind, pos = entry
        if kind == "reg":
            if pos not in core_regs:
                core_regs.add(pos)
                stack.append(regs[pos][0])
        elif pos not in core_ops:
            core_ops.add(pos)
            stack.extend(reads[pos])

    phase1: set = set()
    for pos in core_ops:
        phase1.update(writes[pos])
    for pos in core_regs:
        phase1.add(regs[pos][1])
    for wire in needed:
        if wire not in producer:
            phase1.add(wire)  # undriven wire a core statement reads

    # Phase-2 nodes: the remaining combinational ops plus peeled
    # registers (column shifts), in input order for determinism.
    nodes: List[Tuple[tuple, Tuple[int, ...], Tuple[int, ...]]] = []
    for pos, op in enumerate(ops):
        if pos in core_ops or not writes[pos]:
            continue
        nodes.append((op, reads[pos], writes[pos]))
    for pos, (d, q) in enumerate(regs):
        if pos not in core_regs:
            nodes.append((("shift", d, q), (d,), (q,)))
    written2: set = set()
    for _op, _r, node_writes in nodes:
        written2.update(node_writes)

    # Undriven wires no phase computes hold their baseline value.
    kernels: List[tuple] = [
        ("hold", wire)
        for wire in sorted(set(range(n_wires)) - phase1 - written2)
    ]

    # Kahn over the phase-2-produced wires.  A comb op never cycles
    # (netlist validation) and a cycle through a peeled register would
    # make that register reach itself, i.e. core — so this always
    # completes.
    produced_by: Dict[int, int] = {}
    for index, (_op, _r, node_writes) in enumerate(nodes):
        for wire in node_writes:
            produced_by[wire] = index
    in_degree = [0] * len(nodes)
    dependents: List[List[int]] = [[] for _ in nodes]
    for index, (_op, node_reads, _w) in enumerate(nodes):
        for wire in set(node_reads):
            upstream = produced_by.get(wire)
            if upstream is not None and upstream != index:
                dependents[upstream].append(index)
                in_degree[index] += 1
    ready = [index for index, degree in enumerate(in_degree) if degree == 0]
    ordered: List[int] = []
    while ready:
        index = min(ready)
        ready.remove(index)
        ordered.append(index)
        for downstream in dependents[index]:
            in_degree[downstream] -= 1
            if in_degree[downstream] == 0:
                ready.append(downstream)
    if len(ordered) != len(nodes):  # pragma: no cover - defensive
        raise CompileError("cycle in phase-2 kernel plan")

    depth_of = [0] * n_wires
    depth = 0
    for index in ordered:
        op, node_reads, node_writes = nodes[index]
        if op[0] == "shift":
            node_depth = depth_of[op[1]] + 1
        else:
            node_depth = max((depth_of[wire] for wire in node_reads), default=0)
        for wire in node_writes:
            depth_of[wire] = node_depth
        depth = max(depth, node_depth)
        kernels.append(op)

    return _VectorPlan(
        core_wires=tuple(sorted(phase1)),
        core_ops=tuple(sorted(core_ops)),
        core_regs=tuple(sorted(core_regs)),
        kernels=tuple(kernels),
        depth=depth,
    )


def _apply_vector_kernels(
    values: np.ndarray,
    kernels: Sequence[tuple],
    slot_data: Sequence[object],
    slot_ragged: Sequence[bool],
    lanes: Optional[np.ndarray],
) -> None:
    """Run the phase-2 kernel program over a value tensor in place.

    ``values`` is ``(rows, n_wires)`` or ``(rows, n_wires, batch)``
    with row 0 (the settled baseline) and every core column already
    filled; each kernel fills one non-core column for rows ``1..``.
    The arithmetic mirrors the scalar statements operation for
    operation over uint64, so reconstructed columns are bit-identical
    to stepped ones.  ``slot_ragged[slot]`` marks per-lane stacked
    tables (indexed through ``lanes``); scalar execution passes all-
    ``False`` and ``lanes=None``.
    """
    body = values[1:]
    one = np.uint64(1)
    for op in kernels:
        kind = op[0]
        if kind == "xor":
            _, a, b, out = op
            body[:, out] = body[:, a] ^ body[:, b]
        elif kind == "inc":
            _, a, out, m = op
            body[:, out] = (body[:, a] + one) & np.uint64(m)
        elif kind == "b2g":
            _, a, out = op
            column = body[:, a]
            body[:, out] = column ^ (column >> one)
        elif kind == "g2b":
            _, a, out, width = op
            column = body[:, a].copy()
            shift = 1
            while shift < width:
                column ^= column >> np.uint64(shift)
                shift <<= 1
            body[:, out] = column
        elif kind == "mux":
            _, s, a, b, out = op
            body[:, out] = np.where(body[:, s] != 0, body[:, b], body[:, a])
        elif kind == "const":
            _, slot, out = op
            body[:, out] = slot_data[slot]
        elif kind == "lut":
            _, slot, parts, out = op
            shift = sum(width for _idx, width in parts)
            index = None
            for idx, width in parts:
                shift -= width
                part = body[:, idx] << np.uint64(shift) if shift else body[:, idx]
                index = part if index is None else index | part
            table = slot_data[slot]
            if slot_ragged[slot]:
                body[:, out] = table[lanes, index]
            else:
                body[:, out] = table[index]
        elif kind == "rom":
            _, slot, addr, out = op
            table = slot_data[slot]
            if slot_ragged[slot]:
                body[:, out] = table[lanes, body[:, addr]]
            else:
                body[:, out] = table[body[:, addr]]
        elif kind == "shift":
            _, d, q = op
            body[:, q] = values[:-1, d]
        elif kind == "hold":
            body[:, op[1]] = values[0, op[1]]
        else:  # pragma: no cover - plans are produced in-module
            raise CompileError(f"no vector kernel for op {kind!r}")


def _vector_reconstruct(
    init_row: np.ndarray,
    core_rows: np.ndarray,
    core_wires: Tuple[int, ...],
    kernels: Sequence[tuple],
    slot_data: Sequence[object],
    slot_ragged: Sequence[bool],
    lanes: Optional[np.ndarray],
) -> np.ndarray:
    """Full value tensor from phase-1 core rows + phase-2 kernels.

    ``init_row`` is the settled baseline — ``(n_wires,)`` scalar or
    ``(n_wires, batch)`` batched; ``core_rows`` is the compact
    ``(rows, n_core[, batch])`` phase-1 recording (row 0 unused).
    """
    values = np.empty((core_rows.shape[0],) + init_row.shape, dtype=np.uint64)
    values[0] = init_row
    if core_wires:
        values[1:, np.asarray(core_wires, dtype=np.intp)] = core_rows[1:]
    _apply_vector_kernels(values, kernels, slot_data, slot_ragged, lanes)
    return values


def _vector_prefix(
    init_row: np.ndarray,
    core_rows: np.ndarray,
    repeat: Tuple[int, int],
    cycles: int,
    core_wires: Tuple[int, ...],
    kernels: Sequence[tuple],
    slot_data: Sequence[object],
    slot_ragged: Sequence[bool],
    depth: int,
) -> Tuple[np.ndarray, int, int, int]:
    """Reconstructed value prefix of a memoised (periodic) vector run.

    ``repeat`` is the first core-row re-entry ``(j, t1)``: core rows
    are periodic with period ``t1 - j`` from row ``j`` on, hence full
    rows from row ``j + depth`` on.  Returns ``(values, last, start,
    period)`` where ``values`` holds rows ``0..last`` with ``last =
    min(cycles, t1 + depth)``, enough that every later row ``r`` equals
    row ``start + (r - start) % period``.
    """
    j, t1 = repeat
    period = t1 - j
    start = j + depth
    last = min(cycles, t1 + depth)
    stepped = core_rows.shape[0] - 1
    if last <= stepped:
        core_ext = core_rows[:last + 1]
    else:
        extra = np.arange(stepped + 1, last + 1)
        core_ext = np.concatenate(
            [core_rows, core_rows[j + (extra - j) % period]], axis=0
        )
    values = _vector_reconstruct(
        init_row, core_ext, core_wires, kernels, slot_data, slot_ragged, None
    )
    return values, last, start, period


def _vector_memo_trace(
    init_row: np.ndarray,
    core_rows: np.ndarray,
    repeat: Tuple[int, int],
    cycles: int,
    core_wires: Tuple[int, ...],
    kernels: Sequence[tuple],
    slot_data: Sequence[object],
    slot_ragged: Sequence[bool],
    depth: int,
    specs: Sequence[tuple],
) -> Tuple[np.ndarray, np.ndarray]:
    """Activity matrix + final two value rows of a memoised vector run.

    Activity row ``a`` is an elementwise function of value rows ``a``
    and ``a + 1``, so activity rows inherit the value rows' periodicity:
    they are computed once over the reconstructed prefix and *tiled*
    (gathered) for the periodic suffix — O(period) kernel work no
    matter how many cycles were requested, with float-identical rows
    because tiled entries are copies of prefix entries computed from
    identical inputs.
    """
    values, last, start, period = _vector_prefix(
        init_row, core_rows, repeat, cycles, core_wires, kernels,
        slot_data, slot_ragged, depth,
    )
    prefix = _activity_from_values(values, last, specs)
    if cycles > last:
        # Suffix row ``a`` equals prefix row ``start + (a - start) %
        # period``, and ``last - start`` is an exact multiple of the
        # period, so the suffix is whole repetitions of the block
        # ``prefix[start:start + period]`` — written with one broadcast
        # copy (block memcpy) instead of a fancy-index gather, which is
        # what keeps long memoised runs memory-bandwidth bound.
        matrix = np.empty((cycles,) + prefix.shape[1:], dtype=prefix.dtype)
        matrix[:last] = prefix
        block = prefix[start:start + period]
        remaining = cycles - last
        reps = remaining // period
        if reps:
            matrix[last:last + reps * period].reshape(
                (reps, period) + prefix.shape[1:]
            )[:] = block
        tail = remaining - reps * period
        if tail:
            matrix[last + reps * period:] = block[:tail]
    else:
        matrix = prefix

    def value_row(row: int) -> np.ndarray:
        if row <= last:
            return values[row]
        return values[start + (row - start) % period]

    last_two = np.stack([value_row(cycles - 1), value_row(cycles)])
    return matrix, last_two


def _lane_slot(
    value: object, kind: str, uniform_flag: Optional[bool], lane: int
) -> object:
    """Resolve one batch data slot to a single lane's scalar view."""
    if kind == "const":
        return value[lane]
    if kind == "table" or kind == "ttable":
        return value if uniform_flag else value[lane]
    return None  # "ttname": only read by core transition-table checks


class CompiledNetlist:
    """A netlist lowered to a flat, table-driven program.

    Produced by :func:`compile_netlist`; exposes the same ``run`` /
    ``wire_sequence`` interface as :class:`InterpretedEngine` and keeps
    the owning :class:`~repro.hdl.netlist.Netlist` object's state in
    sync after every run, so compiled and interpreted runs can be
    interleaved freely (``reset=False`` continues where either left off).
    Engines whose :attr:`shape_key` is not ``None`` can additionally be
    executed many-at-a-time through :func:`run_batch`.
    """

    name = "compiled"

    def __init__(self, netlist: Netlist, lowering: _Lowering):
        self.netlist = netlist
        self.channels: Tuple[Channel, ...] = tuple(lowering.channels)
        self.structural_key: Optional[str] = lowering.fingerprint()
        #: Structure modulo per-device data: netlists sharing a shape
        #: key ride in one batched execution.  ``None`` when the
        #: netlist cannot be batch-executed.
        self.shape_key: Optional[str] = None
        self.batch_plan: Optional[tuple] = None
        self.batch_lane: Optional[_BatchLane] = None
        if lowering.batchable:
            self.shape_key, self.batch_plan, self.batch_lane = (
                lowering.batch_metadata(netlist.combinational_order())
            )
        self._lowering: Optional[_Lowering] = lowering
        self._wires = lowering.wires
        self._index = lowering.index
        self._registers = lowering.registers
        self._ports = lowering.ports
        self._specs = lowering.activity_specs
        self._slot_kinds = tuple(lowering.slot_kinds)
        self._slot_values = tuple(lowering.slot_values)
        self._settle = None
        self._run = None
        self._run_memo = None
        self._rrun = None
        self._rrun_memo = None
        self._memo_ok = not lowering.ports
        #: Vectorisation policy: ``"auto"`` uses the cycle-axis kernels
        #: when the plan reconstructs at least one computed wire,
        #: ``True`` forces them, ``False`` pins the scalar generated
        #: loop (the oracle the vectorised tier is tested against).
        self.vectorise: object = "auto"
        self._vector_plan: Optional[_VectorPlan] = None
        self._vector_slots: Optional[Tuple[tuple, tuple]] = None
        #: Invalidation token: the owning netlist's compile generation
        #: at lowering time; executing after any component bumped its
        #: generation raises :class:`CompileError`.
        self._compile_generation = netlist.compile_generation
        #: True when :meth:`_ensure_program` found the step program in
        #: the process-wide cache instead of generating it.
        self.program_shared = False

    def _check_generation(self) -> None:
        """Refuse to execute a program compiled from mutated components."""
        current = self.netlist.compile_generation
        if current != self._compile_generation:
            raise CompileError(
                f"netlist {self.netlist.name!r} was modified after "
                f"compilation (compile generation {current} != "
                f"{self._compile_generation}); recompile it"
            )

    def _ensure_program(self) -> None:
        """Attach the step program on first actual execution.

        Fingerprintable netlists consult the process-wide program cache
        first: a fleet of structurally identical netlists generates and
        ``exec``-compiles the program once and shares the functions
        (they are pure in their arguments, so sharing is safe).
        """
        self._check_generation()
        if self._run is not None:
            return
        key = self.structural_key
        if key is not None:
            cached = _PROGRAM_CACHE.get(key)
            if cached is not None:
                _PROGRAM_CACHE.move_to_end(key)
                (
                    self.source, self._settle, self._run, self._run_memo,
                    self._rrun, self._rrun_memo, self._vector_plan,
                ) = cached
                self.program_shared = True
                self._lowering = None
                return
        lowering = self._lowering
        lowering.generate_program()
        self.source: str = lowering.source
        self._settle = lowering.namespace["_settle"]
        self._run = lowering.namespace["_run"]
        self._run_memo = lowering.namespace["_run_memo"]
        self._rrun = lowering.namespace["_rrun"]
        self._rrun_memo = lowering.namespace["_rrun_memo"]
        self._vector_plan = lowering.vector_plan
        self._lowering = None
        if key is not None:
            _PROGRAM_CACHE[key] = (
                self.source, self._settle, self._run, self._run_memo,
                self._rrun, self._rrun_memo, self._vector_plan,
            )
            while len(_PROGRAM_CACHE) > PROGRAM_CACHE_MAX:
                _PROGRAM_CACHE.popitem(last=False)

    # -- execution ---------------------------------------------------------

    def _baseline(self, reset: bool) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Initial settled row + per-port stimulus offsets."""
        if reset:
            values = [wire._initial for wire in self._wires]
            for register in self._registers:
                values[self._index[id(register.q)]] = register.reset_value
            return self._settle(tuple(values)), (0,) * len(self._ports)
        return (
            tuple(wire.value for wire in self._wires),
            tuple(port._cycle for port in self._ports),
        )

    def _simulate(self, cycles: int, reset: bool) -> np.ndarray:
        """Value matrix ``(cycles + 1, n_wires)``: row 0 is the baseline."""
        self._ensure_program()
        init, offsets = self._baseline(reset)
        runner = (
            self._run_memo
            if self._memo_ok and cycles >= MEMO_MIN_CYCLES
            else self._run
        )
        rows, repeat = runner(cycles, init, offsets)
        base = np.array(rows, dtype=np.uint64)
        if base.ndim == 1:  # zero-wire netlist
            base = base.reshape(len(rows), 0)
        if repeat is None:
            values = base
        else:
            # rows[len(rows)] would equal rows[repeat]: the design
            # re-entered a previous state.  Tile the periodic suffix.
            period = len(rows) - repeat
            missing = cycles + 1 - len(rows)
            tiled = base[repeat + (np.arange(missing) % period)]
            values = np.concatenate([base, tiled], axis=0)
        self._write_back(values, offsets, cycles)
        return values

    def _write_back(
        self, values: np.ndarray, offsets: Tuple[int, ...], cycles: int
    ) -> None:
        """Mirror the run's final state onto the netlist objects."""
        last = values[-1]
        prev = values[-2] if len(values) > 1 else values[-1]
        for i, wire in enumerate(self._wires):
            wire.value = int(last[i])
            wire.previous = int(prev[i])
        for register in self._registers:
            q = self._index[id(register.q)]
            register._captured = int(last[q])
            register._last_toggles = int(last[q] ^ prev[q]).bit_count()
        for port, offset in zip(self._ports, offsets):
            port._cycle = offset + cycles

    # -- activity ----------------------------------------------------------

    def _activity_matrix(self, values: np.ndarray, cycles: int) -> np.ndarray:
        return _activity_from_values(values, cycles, self._specs)

    # -- cycle-axis vectorised execution -----------------------------------

    def _vector_active(self) -> bool:
        """Whether :meth:`run` should use the vectorised tier."""
        if self.vectorise is False:
            return False
        self._ensure_program()
        if self.vectorise == "auto":
            return self._vector_plan.profitable
        return True

    @property
    def tier(self) -> str:
        """Execution tier :meth:`run` selects: ``"vectorised"`` or
        ``"scalar"`` (the generated per-cycle loop)."""
        return "vectorised" if self._vector_active() else "scalar"

    def _vector_slot_data(self) -> Tuple[tuple, tuple]:
        """Kernel-ready ``(slot data, slot raggedness)`` for this netlist.

        Table slots become uint64 arrays for gather kernels; constants
        become plain ints; transition-table slots stay ``None`` (those
        ops are always core).  A scalar execution is never ragged.
        """
        if self._vector_slots is None:
            data: List[object] = []
            for kind, value in zip(self._slot_kinds, self._slot_values):
                if kind == "const":
                    data.append(int(value))
                elif kind == "table":
                    data.append(np.array(value, dtype=np.uint64))
                else:  # "ttable" / "ttname": consumed by core statements
                    data.append(None)
            self._vector_slots = (tuple(data), (False,) * len(data))
        return self._vector_slots

    def _vector_arrays(
        self, cycles: int, reset: bool
    ) -> Tuple[_VectorPlan, np.ndarray, np.ndarray, Optional[Tuple[int, int]],
               Tuple[int, ...]]:
        """Run phase 1: the reduced scalar loop over the core residue.

        Returns the plan, the full settled baseline row, the stepped
        ``(rows, n_core)`` core matrix, the core re-entry ``(j, t1)``
        (``None`` when the run was fully stepped) and the port offsets.
        """
        self._ensure_program()
        plan = self._vector_plan
        init, offsets = self._baseline(reset)
        core_init = tuple(init[i] for i in plan.core_wires)
        runner = (
            self._rrun_memo
            if self._memo_ok and cycles >= MEMO_MIN_CYCLES
            else self._rrun
        )
        rows, repeat = runner(cycles, core_init, offsets)
        core_rows = np.array(rows, dtype=np.uint64)
        if core_rows.ndim == 1:  # zero core wires
            core_rows = core_rows.reshape(len(rows), 0)
        if repeat is not None:
            repeat = (repeat, len(rows))
        init_row = np.array(init, dtype=np.uint64)
        return plan, init_row, core_rows, repeat, offsets

    def _vector_full_values(self, cycles: int, reset: bool) -> np.ndarray:
        """Complete ``(cycles + 1, n_wires)`` matrix via the vector tier.

        Memoised runs expand the periodic suffix into real rows — this
        backs :meth:`wire_sequence`, whose output is O(cycles) anyway.
        Also mirrors the final state back onto the netlist objects.
        """
        plan, init_row, core_rows, repeat, offsets = self._vector_arrays(
            cycles, reset
        )
        slot_data, slot_ragged = self._vector_slot_data()
        if repeat is None:
            values = _vector_reconstruct(
                init_row, core_rows, plan.core_wires, plan.kernels,
                slot_data, slot_ragged, None,
            )
        else:
            values, last, start, period = _vector_prefix(
                init_row, core_rows, repeat, cycles, plan.core_wires,
                plan.kernels, slot_data, slot_ragged, plan.depth,
            )
            if cycles > last:
                suffix = start + (np.arange(last + 1, cycles + 1) - start) % period
                values = np.concatenate([values, values[suffix]], axis=0)
        self._write_back(values, offsets, cycles)
        return values

    def _run_vectorised(self, cycles: int, reset: bool) -> ActivityTrace:
        """One vectorised-tier run: reduced stepping + kernel expansion."""
        plan, init_row, core_rows, repeat, offsets = self._vector_arrays(
            cycles, reset
        )
        slot_data, slot_ragged = self._vector_slot_data()
        if repeat is None:
            values = _vector_reconstruct(
                init_row, core_rows, plan.core_wires, plan.kernels,
                slot_data, slot_ragged, None,
            )
            matrix = _activity_from_values(values, cycles, self._specs)
            self._write_back(values, offsets, cycles)
        else:
            matrix, last_two = _vector_memo_trace(
                init_row, core_rows, repeat, cycles, plan.core_wires,
                plan.kernels, slot_data, slot_ragged, plan.depth,
                self._specs,
            )
            self._write_back(last_two, offsets, cycles)
        return ActivityTrace(self.channels, matrix)

    # -- public API --------------------------------------------------------

    def run(self, cycles: int, reset: bool = True) -> ActivityTrace:
        """Simulate ``cycles`` clock periods and return the activity."""
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        if self._vector_active():
            return self._run_vectorised(cycles, reset)
        values = self._simulate(cycles, reset)
        return ActivityTrace(self.channels, self._activity_matrix(values, cycles))

    def wire_sequence(self, wire: Wire, cycles: int) -> List[int]:
        """Settled values of one wire after each clock edge (with reset)."""
        index = self._index.get(id(wire))
        if index is None:
            raise KeyError(
                f"wire {wire.name!r} is not part of netlist {self.netlist.name!r}"
            )
        cycles = max(cycles, 0)
        if self._vector_active():
            values = self._vector_full_values(cycles, reset=True)
        else:
            values = self._simulate(cycles, reset=True)
        return [int(v) for v in values[1:, index]]


CyclesLike = Union[int, Sequence[int]]


def _lane_cycles(engines: Sequence, cycles: CyclesLike) -> List[int]:
    """Normalise one shared or per-lane cycle counts into a list."""
    if isinstance(cycles, (int, np.integer)):
        lane_cycles = [int(cycles)] * len(engines)
    else:
        lane_cycles = [int(c) for c in cycles]
        if len(lane_cycles) != len(engines):
            raise ValueError(
                f"got {len(lane_cycles)} cycle counts for "
                f"{len(engines)} engines"
            )
    for count in lane_cycles:
        if count <= 0:
            raise ValueError(f"cycles must be positive, got {count}")
    return lane_cycles


def run_batch(
    engines: Sequence[CompiledNetlist],
    cycles: CyclesLike,
    reset: bool = True,
    vectorise: object = "auto",
) -> List[ActivityTrace]:
    """Execute N shape-compatible compiled netlists in one batched run.

    All engines must share a :attr:`~CompiledNetlist.shape_key`;
    ``cycles`` is one count for every lane or a per-lane sequence
    (ragged batches run to the longest lane and slice each lane's
    prefix).  Returns one :class:`~repro.hdl.activity.ActivityTrace`
    per engine, in order, and writes each lane's final state back onto
    its netlist objects — **byte-identical** to calling
    ``engine.run(cycles, reset)`` on every engine separately, for any
    batch size (including 1) and any lane order.

    The speedup comes from amortising the Python step loop: one
    iteration advances every lane via ``(batch,)`` vector operations,
    per-lane constants/tables are indexed by lane, and runs past
    :data:`MEMO_MIN_CYCLES` detect each lane's state re-entry
    independently and tile the periodic suffix instead of stepping.

    ``vectorise`` composes the cycle-axis kernel plan with the batch
    axis: ``"auto"`` (the default) steps only the sequential residue
    per cycle when the plan reconstructs something, then rebuilds all
    remaining wire columns for every ``cycle × lane`` at once; ``True``
    forces that mode, ``False`` pins the full per-cycle batch loop.
    All three settings produce identical trace bytes.
    """
    engines = list(engines)
    if not engines:
        raise ValueError("run_batch needs at least one engine")
    shape_key = engines[0].shape_key
    for engine in engines:
        engine._check_generation()
        if engine.shape_key is None:
            raise CompileError(
                f"netlist {engine.netlist.name!r} cannot be batch-executed "
                "(input ports, opaque lookup callables or very wide "
                "transition tables)"
            )
        if engine.shape_key != shape_key:
            raise ValueError(
                f"netlist {engine.netlist.name!r} has a different shape "
                "than the first engine; group lanes by shape_key first"
            )
    lane_cycles = _lane_cycles(engines, cycles)
    batch = len(engines)
    n_wires, regs, ops, slot_kinds = engines[0].batch_plan
    lanes = [engine.batch_lane for engine in engines]
    partition: Optional[_VectorPlan] = None
    if vectorise is not False:
        candidate = _BATCH_PLAN_CACHE.get(shape_key)
        if candidate is None:
            candidate = _vector_partition(n_wires, regs, ops)
            _BATCH_PLAN_CACHE[shape_key] = candidate
            while len(_BATCH_PLAN_CACHE) > PROGRAM_CACHE_MAX:
                _BATCH_PLAN_CACHE.popitem(last=False)
        else:
            _BATCH_PLAN_CACHE.move_to_end(shape_key)
        if vectorise is True or candidate.profitable:
            partition = candidate

    # Per-slot data: uniform table slots collapse to one 1-D array (and
    # a cheaper generated indexing mode); everything else stacks per lane.
    uniform: List[Optional[bool]] = []
    data: List[object] = []
    for slot, kind in enumerate(slot_kinds):
        values = [lane.slot_values[slot] for lane in lanes]
        if kind == "const":
            uniform.append(None)
            data.append(np.array(values, dtype=np.uint64))
        elif kind == "table":
            same = all(v == values[0] for v in values[1:])
            uniform.append(same)
            data.append(
                np.array(values[0] if same else values, dtype=np.uint64)
            )
        elif kind == "ttable":
            same = all(v == values[0] for v in values[1:])
            uniform.append(same)
            if same:
                data.append(_dense_transition_table(values[0]))
            else:
                data.append(
                    np.stack([_dense_transition_table(v) for v in values])
                )
        else:  # "ttname"
            uniform.append(None)
            data.append(tuple(values))
    data.append(np.arange(batch))
    data_tuple = tuple(data)
    settle, run = _batch_program(
        shape_key, engines[0].batch_plan, tuple(uniform), partition
    )

    # Baseline: per-lane power-on (+ reset) values settled in one pass,
    # or each lane's current wire values for a continuation run.
    if reset:
        init = np.array([lane.initials for lane in lanes], dtype=np.uint64).T
        for reg_slot, (_d, q) in enumerate(regs):
            init[q] = np.array(
                [lane.resets[reg_slot] for lane in lanes], dtype=np.uint64
            )
        state = settle(init, data_tuple)
    else:
        state = np.array(
            [[w.value for w in engine._wires] for engine in engines],
            dtype=np.uint64,
        ).T

    # The settled full baseline, kept for phase-2 reconstruction; the
    # step loop only records ``record`` columns (all wires without a
    # partition, the core residue with one).
    state0 = np.ascontiguousarray(np.asarray(state))
    if partition is None:
        n_record = n_wires
        record0 = state0
    else:
        record_index = np.asarray(partition.core_wires, dtype=np.intp)
        n_record = len(partition.core_wires)
        record0 = state0[record_index]

    max_cycles = max(lane_cycles)
    repeats: List[Optional[Tuple[int, int]]] = [None] * batch
    if max_cycles < MEMO_MIN_CYCLES:
        values = np.empty((max_cycles + 1, n_record, batch), dtype=np.uint64)
        values[0] = record0
        run(max_cycles, state, values, data_tuple)
        stepped = max_cycles
    else:
        # Memoising run: step into a geometrically growing buffer (so
        # copying stays O(stepped) total, and memory tracks how far the
        # slowest lane actually stepped, not the requested cycles) and
        # scan for per-lane state re-entry at geometrically spaced
        # points (so the O(T log T) duplicate scans amortise to
        # O(T log T) overall rather than rescanning every chunk).
        # Scan timing never changes results: the first re-entry
        # (j, t1) is a property of the value rows, not of when we look.
        capacity = min(max_cycles, BATCH_MEMO_CHUNK)
        buffer = np.empty((capacity + 1, n_record, batch), dtype=np.uint64)
        buffer[0] = record0
        stepped = 0
        next_scan = BATCH_MEMO_CHUNK
        while stepped < max_cycles:
            if stepped == capacity:
                capacity = min(max_cycles, capacity * 2)
                grown = np.empty(
                    (capacity + 1, n_record, batch), dtype=np.uint64
                )
                grown[:stepped + 1] = buffer[:stepped + 1]
                buffer = grown
            count = min(
                BATCH_MEMO_CHUNK, max_cycles - stepped, capacity - stepped
            )
            state = run(
                count, state, buffer[stepped:stepped + count + 1], data_tuple
            )
            stepped += count
            if stepped < next_scan and stepped < max_cycles:
                continue
            next_scan = stepped * 2
            all_resolved = True
            for lane_index in range(batch):
                if (
                    repeats[lane_index] is None
                    and lane_cycles[lane_index] > stepped
                ):
                    repeats[lane_index] = _first_state_reentry(
                        buffer[:stepped + 1, :, lane_index]
                    )
                    if repeats[lane_index] is None:
                        all_resolved = False
            if all_resolved:
                break
        values = buffer[:stepped + 1]

    traces: List[ActivityTrace] = []
    slot_ragged = tuple(u is False for u in uniform)
    if stepped == max_cycles:
        # Every lane was stepped in full: expand the core recording (a
        # no-op without a partition), one batched activity pass, then
        # per-lane prefix slices for ragged cycle counts.
        if partition is None:
            full = values
        else:
            full = _vector_reconstruct(
                state0, values, partition.core_wires, partition.kernels,
                data_tuple, slot_ragged, data_tuple[-1],
            )
        params = _lane_act_params(engines[0]._specs, lanes)
        activity = _activity_from_values(
            full, max_cycles, engines[0]._specs, params
        )
        for lane_index, engine in enumerate(engines):
            count = lane_cycles[lane_index]
            matrix = activity[:count, :, lane_index].copy()
            engine._write_back(
                np.ascontiguousarray(full[count - 1:count + 1, :, lane_index]),
                (),
                count,
            )
            traces.append(ActivityTrace(engine.channels, matrix))
    elif partition is None:
        # Memoised early stop: assemble each lane's full value matrix
        # (stepped prefix + tiled periodic suffix) and reuse the shared
        # activity kernel per lane.
        for lane_index, engine in enumerate(engines):
            count = lane_cycles[lane_index]
            lane_values = np.ascontiguousarray(values[:, :, lane_index])
            if count + 1 > lane_values.shape[0]:
                j, t1 = repeats[lane_index]
                period = t1 - j
                missing = count + 1 - lane_values.shape[0]
                absolute = stepped + 1 + np.arange(missing)
                lane_values = np.concatenate(
                    [lane_values, lane_values[j + (absolute - t1) % period]],
                    axis=0,
                )
            else:
                lane_values = lane_values[:count + 1]
            matrix = _activity_from_values(lane_values, count, engine._specs)
            engine._write_back(lane_values[-2:], (), count)
            traces.append(ActivityTrace(engine.channels, matrix))
    else:
        # Memoised early stop with a kernel plan: each lane expands its
        # own core recording — tiling the periodic activity suffix for
        # lanes that stopped early, plain reconstruction for lanes whose
        # requested cycles fit in the stepped prefix.
        no_ragged = (False,) * len(slot_kinds)
        for lane_index, engine in enumerate(engines):
            count = lane_cycles[lane_index]
            init_lane = np.ascontiguousarray(state0[:, lane_index])
            core_lane = np.ascontiguousarray(values[:, :, lane_index])
            lane_slots = tuple(
                _lane_slot(data_tuple[s], kind, uniform[s], lane_index)
                for s, kind in enumerate(slot_kinds)
            )
            if count > stepped:
                matrix, last_two = _vector_memo_trace(
                    init_lane, core_lane, repeats[lane_index], count,
                    partition.core_wires, partition.kernels, lane_slots,
                    no_ragged, partition.depth, engine._specs,
                )
                engine._write_back(last_two, (), count)
            else:
                lane_full = _vector_reconstruct(
                    init_lane, core_lane[:count + 1], partition.core_wires,
                    partition.kernels, lane_slots, no_ragged, None,
                )
                matrix = _activity_from_values(lane_full, count, engine._specs)
                engine._write_back(lane_full[-2:], (), count)
            traces.append(ActivityTrace(engine.channels, matrix))
    return traces


def _lane_act_params(
    specs: Sequence[tuple], lanes: Sequence[_BatchLane]
) -> Optional[List[Optional[np.ndarray]]]:
    """Per-spec activity-parameter overrides for a batch.

    ``None`` entries keep the (shared) scalar parameter already baked
    into the spec; lanes that disagree get a ``(batch,)`` float array
    that broadcasts across the cycle axis.
    """
    overrides: List[Optional[np.ndarray]] = []
    any_override = False
    for column in range(len(specs)):
        values = [lane.act_params[column] for lane in lanes]
        if values[0] is None or all(v == values[0] for v in values[1:]):
            overrides.append(None)
        else:
            overrides.append(np.array(values, dtype=np.float64))
            any_override = True
    return overrides if any_override else None


class InterpretedEngine:
    """The original object-walking simulation loop, kept as the oracle.

    One shared cycle generator backs both activity recording and wire
    sampling, so the two code paths cannot drift apart.
    """

    name = "interpreted"
    structural_key: Optional[str] = None
    shape_key: Optional[str] = None

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self._input_ports = [
            c for c in netlist.components if isinstance(c, InputPort)
        ]

    def _discover_channels(self) -> List[Channel]:
        """One activity channel per component that reports activity."""
        channels: List[Channel] = []
        for component in self.netlist.components:
            for event in component.activity():
                channels.append(Channel(event.component, event.kind))
        return channels

    def _cycles(self, cycles: int):
        """Drive the netlist one settled clock period per iteration."""
        comb_order = self.netlist.combinational_order()
        sequential = self.netlist.sequential_components
        wires = list(self.netlist.wires.values())
        for cycle in range(cycles):
            for wire in wires:
                wire.latch_previous()
            for register in sequential:
                register.capture()
            for register in sequential:
                register.commit()
            for port in self._input_ports:
                port.advance_cycle()
            for component in comb_order:
                component.evaluate()
            yield cycle

    def run(self, cycles: int, reset: bool = True) -> ActivityTrace:
        """Simulate ``cycles`` clock periods and return the activity."""
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        if reset:
            self.netlist.reset()
        channels = self._discover_channels()
        index_of: Dict[Channel, int] = {c: i for i, c in enumerate(channels)}
        matrix = np.zeros((cycles, len(channels)))
        components = self.netlist.components
        for cycle in self._cycles(cycles):
            for component in components:
                for event in component.activity():
                    channel = Channel(event.component, event.kind)
                    matrix[cycle, index_of[channel]] += event.amount
        return ActivityTrace(channels, matrix)

    def wire_sequence(self, wire: Wire, cycles: int) -> List[int]:
        """Settled values of one wire after each clock edge (with reset)."""
        self.netlist.reset()
        return [wire.value for _ in self._cycles(cycles)]


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Lower a validated netlist into a :class:`CompiledNetlist`.

    Raises :class:`CompileError` when the netlist contains constructs
    the lowering pass cannot prove equivalent (custom component types,
    foreign wires, buses wider than :data:`MAX_WIRE_WIDTH`).
    """
    netlist.validate()
    lowering = _Lowering(netlist)
    lowering.lower()
    return CompiledNetlist(netlist, lowering)


__all__ = [
    "CompileError",
    "CompiledNetlist",
    "InterpretedEngine",
    "compile_netlist",
    "run_batch",
    "clear_program_cache",
    "program_cache_size",
    "batch_program_cache_size",
    "MAX_TABLE_BITS",
    "MAX_WIRE_WIDTH",
    "MEMO_MIN_CYCLES",
    "BATCH_MEMO_CHUNK",
    "PROGRAM_CACHE_MAX",
]
