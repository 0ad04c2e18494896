"""Solution expansion into a physical gate stream, QASM emission, and the
machine-readable compilation record."""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from .circuit import Circuit, GateKind, parse_circuit, to_qasm
from .heuristic import GreedyPolicy, HeuristicConfig
from .machine import GridMachine, price_walk
from .schedule import (
    ProblemConfig,
    Routing,
    Solution,
    Variant,
    build_solution,
    check_joins,
    clashes,
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
class CompiledCircuit(Solution):
    """A compiled program: a Solution, its source circuit and the physical
    stream expand makes of it on a machine of num_cells cells, on which
    cells maps each placed qubit to its home cell. eps_route and eps_strict
    are each gate's success probability on that machine, without and with
    return swaps counted, as expand prices them."""
    source: Circuit
    expanded: tuple[PhysGate, ...]
    eps_route: dict[int, float] = field(repr=False)
    eps_strict: dict[int, float] = field(repr=False)
    num_cells: int
    cells: dict[int, int] = field(repr=False)

    @property
    def per_gate_eps(self) -> dict[int, float]:
        return self.eps_strict if self.count_return_swaps else self.eps_route

    @property
    def swap_count(self) -> int:
        return sum(2 * (len(walk) - 2) for walk in self.gate_routes.values())

    @property
    def reliability(self) -> float:
        eps = self.per_gate_eps
        return math.prod((eps[gid] for gid in sorted(eps)), start=1.0)


def expand(sol: Solution, c: Circuit, m: GridMachine) -> CompiledCircuit:
    """Turn a Solution into a physical stream. Each CNOT's stored walk is
    walked as given: its first cell's qubit moves by forward SWAPs (3 CNOTs
    each) to the walk's last edge, the CNOT runs there, and return SWAPs
    restore the placement. Each walk is priced once, by price_walk, for its
    hop durations and its reliabilities; a readout's are 1 - its cell's
    readout error. Raises ValueError for a walk off the grid's edges or one
    that does not join its CNOT's placed cells or visits a cell twice, and
    CodegenError when a walk takes other than its scheduled duration or two
    gates' windows overlap on a cell.
    """
    static = sol.config.variant is Variant.T_SMT
    cells = {q: m.cell_id(pos) for q, pos in sol.placement.loc.items()}
    start, dur, routes = sol.schedule.start, sol.schedule.dur, sol.gate_routes
    phys: list[PhysGate] = []
    # per cell: (start, end, gate id)
    windows: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    eps_route, eps_strict = {}, {}   # per gate id
    cnot, measure = GateKind.CNOT, GateKind.MEASURE
    new = tuple.__new__   # a PhysGate without NamedTuple's Python-level __new__
    ones = {cell: (cell,) for cell in cells.values()}   # one operand tuple per cell
    for gid, kind, operands, clbit in c.gates:
        s, d = start[gid], dur[gid]
        window, cell = (s, s + d, gid), cells[operands[0]]   # one window for all its cells
        if kind is not cnot:
            if kind is measure:
                eps_route[gid] = eps_strict[gid] = 1.0 - m.qubits[cell].readout_error
            windows[cell].append(window)
            phys.append(new(PhysGate, (kind, ones[cell], s, d, clbit)))
            continue
        walk = routes[gid]
        hops, eps_route[gid], eps_strict[gid] = price_walk(m, walk, static)
        check_joins(gid, walk, cell, cells[operands[1]])
        for x in walk:
            windows[x].append(window)
        # walk[0]'s qubit SWAPs (3 CNOTs of alternating direction) up to the
        # last edge, the CNOT runs there in its own direction, the SWAPs undo;
        # a hop's three CNOTs each way share its two operand tuples
        swaps = [((u, v), (v, u), e) for u, v, e in zip(walk, walk[1:-1], hops)]
        t = s
        for uv, vu, e in swaps:
            phys += (new(PhysGate, (cnot, uv, t, e, None)),
                     new(PhysGate, (cnot, vu, t + e, e, None)),
                     new(PhysGate, (cnot, uv, t + 2 * e, e, None)))
            t += 3 * e
        phys.append(new(PhysGate, (cnot, (walk[-2], walk[-1]) if walk[0] == cell
                                   else (walk[-1], walk[-2]), t, hops[-1], None)))
        t += hops[-1]
        for uv, vu, e in reversed(swaps):
            phys += (new(PhysGate, (cnot, vu, t, e, None)),
                     new(PhysGate, (cnot, uv, t + e, e, None)),
                     new(PhysGate, (cnot, vu, t + 2 * e, e, None)))
            t += 3 * e
        if t - s != d:   # the walk took 6 * sum(hops[:-1]) + hops[-1]
            raise CodegenError(f"inconsistent schedule: CNOT {gid} walks its route in "
                               f"{t - s} timeslots, not {d}")
    # A gate's physical gates run one after another inside its window, on its
    # own cell or its walk's, so the stream overlaps itself only if two
    # windows do. The scheduler reserves a superset of every window.
    for cell, g1, g2 in clashes(windows):
        raise CodegenError(f"inconsistent schedule: gates {g1} and {g2} overlap on cell {cell}")
    return CompiledCircuit(sol.placement, sol.schedule, sol.objective_value, sol.optimal,
                           sol.config, dict(sol.gate_routes), source=c, expanded=tuple(phys),
                           eps_route=eps_route, eps_strict=eps_strict, num_cells=m.num_cells,
                           cells=cells)


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
    qh = [f"qh[{i}]" for i in range(cc.num_cells)]
    n1 = cc.num_cells + 1

    def key(g: PhysGate) -> int:
        # an int that sorts as (start, cells) does: (a,) before every (a, b), b ascending
        ops = g[1]
        return (g[2] * n1 + ops[0]) * n1 + (ops[1] + 1 if len(ops) > 1 else 0)

    for kind, ops, _s, _d, clbit in sorted(cc.expanded, key=key):
        if kind is cnot:
            append(f"cx {qh[ops[0]]},{qh[ops[1]]};")
        elif kind is measure:
            append(f"measure {qh[ops[0]]} -> c[{clbit}];")
        else:
            append(f"{_QASM_NAMES[kind]} {qh[ops[0]]};")
    return "\n".join(lines) + "\n"


def to_record(cc: CompiledCircuit) -> dict:
    """JSON-ready compilation record.

    Keys placement/variant/objective/makespan/swap_count/reliability form the
    stable documented surface, and the config/eps/routes/source echoes make
    the record self-contained for later evaluation. gate_routes lists each
    CNOT's walk, the moving qubit's cell first; eps_route and eps_strict are
    that walk's reliabilities, so each equals the product of 1 - error over
    the CNOTs emitted for its gate. The physical stream is not written: it is
    in the .qasm file, and from_record rebuilds it from the walks. objective,
    makespan, swap_count, reliability, eps_route and eps_strict are written
    for readers only.
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


def solution_config(variant, routing, omega,
                    count_return_swaps) -> ProblemConfig | HeuristicConfig:
    """The config a solution's own settings name: a HeuristicConfig for
    greedy-v and greedy-e, which route by best path, a ProblemConfig for the
    exact variants. Raises ValueError for settings either refuses and for a
    greedy variant's other routing."""
    if variant in (GreedyPolicy.VERTEX.value, GreedyPolicy.EDGE.value):
        if routing != Routing.BEST_PATH.value:
            raise ValueError(f"{variant} routes by best path, not {routing!r}")
        return HeuristicConfig(variant, omega, count_return_swaps)
    return ProblemConfig(variant, Routing(routing), omega, count_return_swaps)


def load_record(text: str) -> dict:
    """Decode a record's JSON text; ValueError unless it is a JSON object."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a record must be a JSON object, not {type(doc).__name__}")
    return doc


def from_record(doc: dict | str, m: GridMachine) -> CompiledCircuit:
    """Rebuild a CompiledCircuit from a record produced by to_record, on m:
    the source is parsed from source_qasm, and the record's placement and
    walks are assembled into a Solution on m by build_solution and expanded,
    so the schedule, stream, objective, reliabilities, makespan and swap
    count are m's. Only the record's optimal flag is kept as written. The
    "gates" key of older records is ignored. Text is read by load_record.
    Raises Infeasible when a gate misses its T2 deadline on m, and ValueError
    for a missing key, a config, placement or gate_routes not a JSON object,
    a cell count not an integer or not m's, a variant, routing, omega or
    count_return_swaps that solution_config refuses, an optimal not a bool,
    a placement key not a qubit number in canonical decimal, a source_qasm
    not a string, a placed qubit's coordinates not two integers, a placed
    qubit off the grid, on another's cell or not declared by the source, a
    source qubit left unplaced, a gate_routes key not a CNOT of the source,
    a route not a JSON list of integers, or a route that is not a walk over
    m's edges joining its CNOT's placed cells and visiting no cell twice."""
    if isinstance(doc, str):
        doc = load_record(doc)
    try:
        config = doc["config"]
        if not isinstance(config, dict):
            raise ValueError(f"config must be a JSON object, not {config!r}")
        num_cells = config["num_cells"]
        if type(num_cells) is not int:
            raise ValueError(f"num_cells {num_cells!r} is not an integer")
        if num_cells != m.num_cells:
            raise ValueError(f"record is for {num_cells} cells, the machine has {m.num_cells}")
        variant, routing = doc["variant"], config["routing"]
        optimal = doc.get("optimal", False)
        if type(optimal) is not bool:
            raise ValueError(f"optimal must be a bool, not {optimal!r}")
        cfg = solution_config(variant, routing, config["omega"], config["count_return_swaps"])
        loc, source_qasm = doc["placement"], doc["source_qasm"]
        if not isinstance(loc, dict):
            raise ValueError(f"placement must be a JSON object, not {loc!r}")
        if not isinstance(source_qasm, str):
            raise ValueError(f"source_qasm must be a string, not {source_qasm!r}")
        for q in loc:
            if not (q.isdecimal() and str(int(q)) == q):
                raise ValueError(f"placement key {q!r} is not a qubit number")
        cells = {}
        for q, pos in loc.items():
            if type(pos) is not list or len(pos) != 2 or set(map(type, pos)) != {int}:
                raise ValueError(f"placement {q}: {pos!r} is not two integers")
            x, y = pos
            if not (0 <= x < m.mx and 0 <= y < m.my):
                raise ValueError(f"qubit {q} at {(x, y)}, off the {m.mx}x{m.my} grid")
            cells[int(q)] = m.cell_id((x, y))
        if len(set(cells.values())) != len(cells):
            raise ValueError("placement puts two qubits on one cell")
        source = parse_circuit(source_qasm)
        for q in cells:
            if q >= source.num_qubits:
                raise ValueError(f"placement qubit {q} out of range "
                                 f"(register size {source.num_qubits})")
        unplaced = set(range(source.num_qubits)) - set(cells)
        if unplaced:
            raise ValueError(f"placement leaves qubit {min(unplaced)} of the source unplaced")
        routes, cnots, walks = doc["gate_routes"], source.cnot_gates(), []
        if not isinstance(routes, dict):
            raise ValueError(f"gate_routes must be a JSON object, not {routes!r}")
        for g in cnots:
            walk = routes[str(g.id)]
            if type(walk) is not list or not set(map(type, walk)) <= {int}:
                raise ValueError(f"gate_routes {g.id}: {walk!r} is not a list of integer cells")
            walks.append(tuple(walk))
        stray = set(routes) - {str(g.id) for g in cnots}
        if stray:
            raise ValueError(f"gate_routes {min(stray)!r} is not a CNOT of the source")
        sol = build_solution(source, m, cfg, cells, walks, optimal=optimal)
        return expand(sol, source, m)
    except (LookupError, TypeError) as exc:
        raise ValueError(f"malformed record: {type(exc).__name__}: {exc}") from exc
