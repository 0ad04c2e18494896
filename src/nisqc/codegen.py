"""Solution expansion into a physical gate stream, QASM emission, and the
machine-readable compilation record."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .circuit import Circuit, GateKind, parse_circuit, to_qasm
from .machine import GridMachine, hop_duration, path_duration, path_reliability
from .optimal import Placement, Solution, Variant


class CodegenError(ValueError):
    """Expansion found a schedule the physical stream cannot realize."""


@dataclass(frozen=True)
class PhysGate:
    kind: GateKind
    hw_operands: tuple[int, ...]
    start: int
    dur: int
    clbit: int | None = None


@dataclass(frozen=True)
class CompiledCircuit:
    source: Circuit
    placement: Placement
    expanded: tuple[PhysGate, ...]
    makespan: int
    swap_count: int
    reliability: float
    variant: str
    routing: str
    omega: float
    count_return_swaps: bool
    objective_value: float
    optimal: bool
    num_cells: int
    gate_routes: dict[int, tuple[int, ...]] = field(repr=False)
    eps_route: dict[int, float] = field(repr=False)
    eps_strict: dict[int, float] = field(repr=False)

    @property
    def per_gate_eps(self) -> dict[int, float]:
        return self.eps_strict if self.count_return_swaps else self.eps_route


def expand(sol: Solution, c: Circuit, m: GridMachine) -> CompiledCircuit:
    """Turn a Solution into a physical stream. Each CNOT's stored walk is
    walked as given: its first cell's qubit moves by forward SWAPs (3 CNOTs
    each) to the walk's last edge, the CNOT runs there, and return SWAPs
    restore the placement. Per-gate reliabilities are those of the walk.
    Raises CodegenError when a walk takes other than its scheduled duration
    or the expansion overlaps itself.
    """
    static = sol.variant == Variant.T_SMT.value
    phys: list[PhysGate] = []
    swap_count = 0
    eps_route: dict[int, float] = {}
    eps_strict: dict[int, float] = {}
    for g in c.gates:
        s = sol.schedule.start[g.id]
        d = sol.schedule.dur[g.id]
        cell = m.cell_id(sol.placement.loc[g.operands[0]])
        if g.kind is GateKind.MEASURE:
            phys.append(PhysGate(g.kind, (cell,), s, d, g.classical_target))
            eps_route[g.id] = eps_strict[g.id] = 1.0 - m.qubits[cell].readout_error
            continue
        if g.kind is not GateKind.CNOT:
            phys.append(PhysGate(g.kind, (cell,), s, d))
            continue
        walk = sol.gate_routes[g.id]
        eps_route[g.id] = path_reliability(walk, m)
        eps_strict[g.id] = path_reliability(walk, m, count_return_swaps=True)
        if path_duration(m, walk, static) != d:
            raise CodegenError(f"inconsistent schedule: CNOT {g.id} walks its route in "
                               f"{path_duration(m, walk, static)} timeslots, not {d}")
        # walk[0]'s qubit SWAPs (3 CNOTs of alternating direction) up to the
        # last edge, the CNOT runs there in its own direction, the SWAPs undo
        swaps = list(zip(walk, walk[1:-1]))
        cx = (walk[-2], walk[-1]) if walk[0] == cell else (walk[-1], walk[-2])
        t = s
        for u, v, n in [(u, v, 3) for u, v in swaps] + [(*cx, 1)] \
                + [(v, u, 3) for u, v in reversed(swaps)]:
            e = hop_duration(m, u, v, static)
            for k in range(n):
                phys.append(PhysGate(GateKind.CNOT, (v, u) if k % 2 else (u, v), t, e))
                t += e
        swap_count += 2 * len(swaps)

    busy: dict[int, list[tuple[int, int, int]]] = {}
    for idx, pg in enumerate(phys):
        for cell in pg.hw_operands:
            busy.setdefault(cell, []).append((pg.start, pg.start + pg.dur, idx))
    for cell, spans in busy.items():
        spans.sort()
        for (a1, b1, i1), (a2, b2, i2) in zip(spans, spans[1:]):
            if a2 < b1:
                raise CodegenError(
                    f"inconsistent schedule: expanded gates {i1} and {i2} "
                    f"overlap on cell {cell}")

    makespan = max((pg.start + pg.dur for pg in phys), default=0)
    if makespan != sol.schedule.makespan:
        raise CodegenError(
            f"inconsistent schedule: expanded makespan {makespan} != "
            f"scheduled {sol.schedule.makespan}")
    eps = eps_strict if sol.count_return_swaps else eps_route
    return CompiledCircuit(
        source=c,
        placement=sol.placement,
        expanded=tuple(phys),
        makespan=makespan,
        swap_count=swap_count,
        reliability=math.prod(eps[gid] for gid in sorted(eps)),
        variant=sol.variant,
        routing=sol.routing,
        omega=sol.omega,
        count_return_swaps=sol.count_return_swaps,
        objective_value=sol.objective_value,
        optimal=sol.optimal,
        num_cells=m.num_cells,
        gate_routes=dict(sol.gate_routes),
        eps_route=eps_route,
        eps_strict=eps_strict,
    )


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
    for pg in sorted(cc.expanded, key=lambda p: (p.start, p.hw_operands)):
        if pg.kind is GateKind.CNOT:
            lines.append(f"cx qh[{pg.hw_operands[0]}],qh[{pg.hw_operands[1]}];")
        elif pg.kind is GateKind.MEASURE:
            lines.append(f"measure qh[{pg.hw_operands[0]}] -> c[{pg.clbit}];")
        else:
            lines.append(f"{pg.kind.value} qh[{pg.hw_operands[0]}];")
    return "\n".join(lines) + "\n"


def to_record(cc: CompiledCircuit) -> dict:
    """JSON-ready compilation record.

    Keys placement/variant/objective/makespan/swap_count/reliability/gates form
    the stable documented surface; measure gates additionally carry "clbit",
    and the config/eps/routes/source echoes make the record self-contained for
    later evaluation. gate_routes lists each CNOT's walk, the moving qubit's
    cell first; eps_route and eps_strict are that walk's reliabilities, so
    each equals the product of 1 - error over the CNOTs emitted for its gate.
    """
    gates = []
    for pg in cc.expanded:
        entry = {"kind": pg.kind.value, "hw_operands": list(pg.hw_operands),
                 "start": pg.start}
        if pg.kind is GateKind.MEASURE:
            entry["clbit"] = pg.clbit
        gates.append(entry)
    return {
        "placement": {str(q): list(pos) for q, pos in sorted(cc.placement.loc.items())},
        "variant": cc.variant,
        "objective": cc.objective_value,
        "makespan": cc.makespan,
        "swap_count": cc.swap_count,
        "reliability": cc.reliability,
        "optimal": cc.optimal,
        "gates": gates,
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
    return json.dumps(to_record(cc), indent=2) + "\n"


def from_record(doc: dict | str, m: GridMachine) -> CompiledCircuit:
    """Rebuild a CompiledCircuit from a record produced by to_record. Raises
    ValueError for a missing key, a record for another cell count, a gate off
    the grid or a CNOT on non-adjacent cells."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    try:
        config = doc["config"]
        if config["num_cells"] != m.num_cells:
            raise ValueError(f"record is for {config['num_cells']} cells, "
                             f"the machine has {m.num_cells}")
        static = doc["variant"] == Variant.T_SMT.value
        phys = []
        for entry in doc["gates"]:
            kind = GateKind(entry["kind"])
            ops = tuple(entry["hw_operands"])
            if kind is GateKind.CNOT:
                dur = hop_duration(m, *ops, static)
            elif not 0 <= ops[0] < m.num_cells:
                raise ValueError(f"{kind.value} on cell {ops[0]}, off the {m.mx}x{m.my} grid")
            elif kind is GateKind.MEASURE:
                dur = m.qubits[ops[0]].readout_duration
            else:
                dur = m.single_qubit_duration
            phys.append(PhysGate(kind, ops, entry["start"], dur, entry.get("clbit")))
        return CompiledCircuit(
            source=parse_circuit(doc["source_qasm"]),
            placement=Placement(loc={int(q): tuple(pos) for q, pos in doc["placement"].items()}),
            expanded=tuple(phys),
            makespan=doc["makespan"],
            swap_count=doc["swap_count"],
            reliability=doc["reliability"],
            variant=doc["variant"],
            routing=config["routing"],
            omega=config["omega"],
            count_return_swaps=config["count_return_swaps"],
            objective_value=doc["objective"],
            optimal=doc.get("optimal", False),
            num_cells=config["num_cells"],
            gate_routes={int(g): tuple(r) for g, r in doc["gate_routes"].items()},
            eps_route={int(g): e for g, e in doc["eps_route"].items()},
            eps_strict={int(g): e for g, e in doc["eps_strict"].items()},
        )
    except (LookupError, TypeError) as exc:
        raise ValueError(f"malformed record: {type(exc).__name__}: {exc}") from exc
