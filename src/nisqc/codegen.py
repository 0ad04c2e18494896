"""Solution expansion into a physical gate stream, QASM emission, and the
machine-readable compilation record."""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .circuit import Circuit, GateKind, parse_circuit, to_qasm
from .heuristic import GreedyPolicy, HeuristicConfig
from .machine import GridMachine, price_walk
from .schedule import (
    Placement,
    ProblemConfig,
    Routing,
    Solution,
    Variant,
    check_joins,
    clashes,
    schedule_walks,
)


class CodegenError(ValueError):
    """Expansion found a schedule the physical stream cannot realize."""


_QASM_NAMES = {k: k.value for k in GateKind}


class PhysGate(NamedTuple):
    kind: GateKind
    hw_operands: tuple[int, ...]
    start: int
    dur: int
    clbit: int | None = None


@dataclass(frozen=True)
class CompiledCircuit:
    """A compiled program. eps_route and eps_strict are each gate's success
    probability on machine m, without and with return swaps counted, as
    expand prices them; the constructor, and nothing else, derives the
    fields after them from the walks, the stream and those probabilities."""
    m: InitVar[GridMachine]
    source: Circuit
    placement: Placement
    expanded: tuple[PhysGate, ...]
    gate_routes: dict[int, tuple[int, ...]] = field(repr=False)
    variant: str
    routing: str
    omega: float
    count_return_swaps: bool
    objective_value: float
    optimal: bool
    eps_route: dict[int, float] = field(repr=False)
    eps_strict: dict[int, float] = field(repr=False)
    num_cells: int = field(init=False)
    makespan: int = field(init=False)
    swap_count: int = field(init=False)
    reliability: float = field(init=False)

    def __post_init__(self, m: GridMachine):
        eps = self.per_gate_eps
        derived = {
            "num_cells": m.num_cells,
            "makespan": max((s + d for _kind, _ops, s, d, _clbit in self.expanded), default=0),
            "swap_count": sum(2 * (len(walk) - 2) for walk in self.gate_routes.values()),
            "reliability": math.prod(eps[gid] for gid in sorted(eps)),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def per_gate_eps(self) -> dict[int, float]:
        return self.eps_strict if self.count_return_swaps else self.eps_route


def expand(sol: Solution, c: Circuit, m: GridMachine) -> CompiledCircuit:
    """Turn a Solution into a physical stream. Each CNOT's stored walk is
    walked as given: its first cell's qubit moves by forward SWAPs (3 CNOTs
    each) to the walk's last edge, the CNOT runs there, and return SWAPs
    restore the placement. Each walk is priced once, by price_walk, for its
    hop durations and its reliabilities; a readout's are 1 - its cell's
    readout error. Raises ValueError for a walk off the grid's edges or one
    that does not join its CNOT's placed cells, and CodegenError when a walk
    takes other than its scheduled duration or the expansion overlaps itself.
    """
    static = sol.variant == Variant.T_SMT.value
    cells = {q: m.cell_id(pos) for q, pos in sol.placement.loc.items()}
    start, dur, routes = sol.schedule.start, sol.schedule.dur, sol.gate_routes
    phys: list[PhysGate] = []
    windows: dict[int, list[tuple[int, int, int]]] = {}   # per cell: (start, end, gate id)
    eps_route, eps_strict = {}, {}   # per gate id
    cnot, measure = GateKind.CNOT, GateKind.MEASURE
    new = tuple.__new__   # a PhysGate without NamedTuple's Python-level __new__
    for gid, kind, operands, clbit in c.gates:
        s, d = start[gid], dur[gid]
        cell = cells[operands[0]]
        if kind is not cnot:
            if kind is measure:
                eps_route[gid] = eps_strict[gid] = 1.0 - m.qubits[cell].readout_error
            windows.setdefault(cell, []).append((s, s + d, gid))
            phys.append(new(PhysGate, (kind, (cell,), s, d, clbit)))
            continue
        walk = routes[gid]
        hops, eps_route[gid], eps_strict[gid] = price_walk(m, walk, static)
        for x in set(walk):
            windows.setdefault(x, []).append((s, s + d, gid))
        # walk[0]'s qubit SWAPs (3 CNOTs of alternating direction) up to the
        # last edge, the CNOT runs there in its own direction, the SWAPs undo
        swaps = list(zip(walk, walk[1:-1], hops))
        t = s
        for u, v, e in swaps:
            phys += (new(PhysGate, (cnot, (u, v), t, e, None)),
                     new(PhysGate, (cnot, (v, u), t + e, e, None)),
                     new(PhysGate, (cnot, (u, v), t + 2 * e, e, None)))
            t += 3 * e
        phys.append(new(PhysGate, (cnot, (walk[-2], walk[-1]) if walk[0] == cell
                                   else (walk[-1], walk[-2]), t, hops[-1], None)))
        t += hops[-1]
        for u, v, e in reversed(swaps):
            phys += (new(PhysGate, (cnot, (v, u), t, e, None)),
                     new(PhysGate, (cnot, (u, v), t + e, e, None)),
                     new(PhysGate, (cnot, (v, u), t + 2 * e, e, None)))
            t += 3 * e
        if t - s != d:   # the walk took 6 * sum(hops[:-1]) + hops[-1]
            raise CodegenError(f"inconsistent schedule: CNOT {gid} walks its route in "
                               f"{t - s} timeslots, not {d}")
        check_joins(gid, walk, cell, cells[operands[1]])
    # A gate's physical gates run one after another inside its window, on its
    # own cell or its walk's, so the stream can overlap itself only where two
    # windows do; only then are the physical gates' intervals compared.
    if next(clashes(windows), None):
        busy: dict[int, list[tuple[int, int, int]]] = {}
        for idx, (_kind, ops, s, d, _clbit) in enumerate(phys):
            for cell in ops:
                busy.setdefault(cell, []).append((s, s + d, idx))
        for cell, i1, i2 in clashes(busy):
            raise CodegenError(f"inconsistent schedule: expanded gates {i1} and {i2} "
                               f"overlap on cell {cell}")

    cc = CompiledCircuit(m, c, sol.placement, tuple(phys), dict(sol.gate_routes),
                         sol.variant, sol.routing, sol.omega, sol.count_return_swaps,
                         sol.objective_value, sol.optimal, eps_route, eps_strict)
    if cc.makespan != sol.schedule.makespan:
        raise CodegenError(
            f"inconsistent schedule: expanded makespan {cc.makespan} != "
            f"scheduled {sol.schedule.makespan}")
    return cc


def emit_qasm(cc: CompiledCircuit) -> str:
    """QASM text on the hardware register, gates ordered by start time then cell."""
    lines = [
        f"// variant: {cc.variant}",
        f"// objective: {cc.objective_value!r}",
        "// placement: " + " ".join(
            f"q{q}->({x},{y})" for q, (x, y) in sorted(cc.placement.loc.items())),
        "OPENQASM 2.0;",
        f"qreg qh[{cc.num_cells}];",
    ]
    if cc.source.num_clbits:
        lines.append(f"creg c[{cc.source.num_clbits}];")
    cnot, measure, append = GateKind.CNOT, GateKind.MEASURE, lines.append
    for kind, ops, _s, _d, clbit in sorted(cc.expanded, key=itemgetter(2, 1)):  # start, cells
        if kind is cnot:
            append(f"cx qh[{ops[0]}],qh[{ops[1]}];")
        elif kind is measure:
            append(f"measure qh[{ops[0]}] -> c[{clbit}];")
        else:
            append(f"{_QASM_NAMES[kind]} qh[{ops[0]}];")
    return "\n".join(lines) + "\n"


def to_record(cc: CompiledCircuit) -> dict:
    """JSON-ready compilation record.

    Keys placement/variant/objective/makespan/swap_count/reliability form the
    stable documented surface, and the config/eps/routes/source echoes make
    the record self-contained for later evaluation. gate_routes lists each
    CNOT's walk, the moving qubit's cell first; eps_route and eps_strict are
    that walk's reliabilities, so each equals the product of 1 - error over
    the CNOTs emitted for its gate. The physical stream is not written: it is
    in the .qasm file, and from_record rebuilds it from the walks. makespan,
    swap_count, reliability, eps_route and eps_strict are written for readers
    only.
    """
    return {
        "placement": {str(q): list(pos) for q, pos in sorted(cc.placement.loc.items())},
        "variant": cc.variant,
        "objective": cc.objective_value,
        "makespan": cc.makespan,
        "swap_count": cc.swap_count,
        "reliability": cc.reliability,
        "optimal": cc.optimal,
        "config": {
            "routing": cc.routing,
            "omega": cc.omega,
            "count_return_swaps": cc.count_return_swaps,
            "num_cells": cc.num_cells,
        },
        "eps_route": {str(g): e for g, e in sorted(cc.eps_route.items())},
        "eps_strict": {str(g): e for g, e in sorted(cc.eps_strict.items())},
        "gate_routes": {str(g): list(r) for g, r in sorted(cc.gate_routes.items())},
        "source_qasm": to_qasm(cc.source),
    }


def record_to_json(cc: CompiledCircuit) -> str:
    """The record as one line of compact JSON."""
    return json.dumps(to_record(cc)) + "\n"


def from_record(doc: dict | str, m: GridMachine) -> CompiledCircuit:
    """Rebuild a CompiledCircuit from a record produced by to_record, on m:
    the source is parsed from source_qasm, the record's walks are scheduled
    on m by the canonical scheduler and expanded, so the stream, its
    durations, reliabilities, makespan and swap count are m's. Only the
    record's objective and optimal flag are kept as written. The "gates" key
    of older records is ignored.
    Raises Infeasible when a gate misses its T2 deadline on m, and ValueError
    for a missing key, another cell count, a variant, routing, omega or
    count_return_swaps that ProblemConfig (HeuristicConfig and best-path
    routing for a greedy variant) refuses, an objective not a finite number,
    an optimal or count_return_swaps not a bool, a placement not a JSON
    object, a placement key not a qubit number in canonical decimal, a
    source_qasm not a string, a placed qubit's coordinates not two
    integers, a placed qubit off the grid or on another's cell, a route's
    cells not integers, or a route that is not a walk over m's edges joining
    its CNOT's placed cells."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    try:
        config = doc["config"]
        if config["num_cells"] != m.num_cells:
            raise ValueError(f"record is for {config['num_cells']} cells, "
                             f"the machine has {m.num_cells}")
        variant, routing = doc["variant"], config["routing"]
        omega, flag = config["omega"], config["count_return_swaps"]
        objective, optimal = doc["objective"], doc.get("optimal", False)
        if type(objective) not in (int, float) or not math.isfinite(objective):
            raise ValueError(f"objective {objective!r} is not a finite number")
        if type(optimal) is not bool or type(flag) is not bool:
            raise ValueError(f"optimal and count_return_swaps must be bools, "
                             f"not {optimal!r} and {flag!r}")
        if variant in (GreedyPolicy.VERTEX.value, GreedyPolicy.EDGE.value):
            HeuristicConfig(variant, omega, flag)
            if routing != Routing.BEST_PATH.value:
                raise ValueError(f"{variant} routes by best path, not {routing!r}")
        else:
            ProblemConfig(variant, Routing(routing), omega, flag)
        loc, source_qasm = doc["placement"], doc["source_qasm"]
        if not isinstance(loc, dict):
            raise ValueError(f"placement must be a JSON object, not {loc!r}")
        if not isinstance(source_qasm, str):
            raise ValueError(f"source_qasm must be a string, not {source_qasm!r}")
        for q in loc:
            if not (q.isdecimal() and str(int(q)) == q):
                raise ValueError(f"placement key {q!r} is not a qubit number")
        placement = Placement(loc={int(q): tuple(pos) for q, pos in loc.items()})
        for q, (x, y) in placement.loc.items():
            if type(x) is not int or type(y) is not int:
                raise ValueError(f"placement {q}: {[x, y]!r} is not two integers")
            if not (0 <= x < m.mx and 0 <= y < m.my):
                raise ValueError(f"qubit {q} at {(x, y)}, off the {m.mx}x{m.my} grid")
        if len(set(placement.loc.values())) != len(placement.loc):
            raise ValueError("placement puts two qubits on one cell")
        source = parse_circuit(source_qasm)
        cells = {q: m.cell_id(pos) for q, pos in placement.loc.items()}
        cnots = source.cnot_gates()
        walks = [tuple(doc["gate_routes"][str(g.id)]) for g in cnots]
        for g, walk in zip(cnots, walks):
            if not set(map(type, walk)) <= {int}:
                raise ValueError(f"gate_routes {g.id}: {list(walk)!r} is not a list of "
                                 f"integer cells")
        schedule = schedule_walks(source, m, cells, walks, variant, routing)[0]
        sol = Solution(placement, schedule, objective, optimal, variant, routing, omega, flag,
                       gate_routes=dict(zip((g.id for g in cnots), walks)))
        return expand(sol, source, m)
    except (LookupError, TypeError) as exc:
        raise ValueError(f"malformed record: {type(exc).__name__}: {exc}") from exc
