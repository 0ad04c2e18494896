"""Greedy calibration-aware mappers: degree-ordered vertex placement, weight-
ordered edge placement, and the shared best-path compile pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .circuit import Circuit, GateKind, build_program_graph
from .machine import DerivedTables, GridMachine, path_duration
from .optimal import (
    Infeasible,
    Placement,
    RouteAssignment,
    Routing,
    Schedule,
    Solution,
    _dag_lists,
    _InfeasibleSchedule,
    _schedule_gates,
    objective,
)


class GreedyPolicy(str, Enum):
    VERTEX = "greedy-v"
    EDGE = "greedy-e"


@dataclass(frozen=True)
class HeuristicConfig:
    policy: GreedyPolicy
    omega: float = 0.5
    count_return_swaps: bool = False

    def __post_init__(self):
        object.__setattr__(self, "policy", GreedyPolicy(self.policy))
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega = {self.omega} outside [0, 1]")


def _check_size(nq: int, m: GridMachine) -> None:
    if nq > m.num_cells:
        raise ValueError(f"{nq} program qubits exceed {m.num_cells} hardware cells")


def _readout_order(m: GridMachine) -> list[int]:
    # best readout first, ties by cell id
    return sorted(range(m.num_cells),
                  key=lambda cl: (m.qubits[cl].readout_error, cl))


def _neighbor_score(q: int, cell: int, placed: dict[int, int],
                    pg, bp) -> float:
    """Sum of best-path log-reliabilities to q's already-placed neighbors,
    weighted by CNOT multiplicity."""
    score = 0.0
    for (a, b), w in pg.edges.items():
        other = b if a == q else a if b == q else None
        if other is None or other not in placed:
            continue
        score += w * math.log(bp[(cell, placed[other])][1])
    return score


def _best_free_cell(q: int, placed: dict[int, int], free: list[int], pg, bp):
    best_cell, best_score = None, None
    for cell in free:
        s = _neighbor_score(q, cell, placed, pg, bp)
        if best_score is None or s > best_score + 1e-15 \
                or (abs(s - best_score) <= 1e-15 and cell < best_cell):
            best_cell, best_score = cell, s
    return best_cell


def _attach_rest(order: list[int], placed: dict[int, int], free: list[int],
                 pg, m: GridMachine, bp) -> None:
    """Place qubits adjacent to the placed set (highest degree first), then
    isolated ones on the best free readout cells."""
    connected = [q for q in order if pg.vertex_degree.get(q, 0) > 0]
    isolated = [q for q in order if pg.vertex_degree.get(q, 0) == 0]
    pending = [q for q in connected if q not in placed]
    while pending:
        nxt = None
        for q in pending:
            if any(q in pair and (pair[0] in placed or pair[1] in placed)
                   for pair in pg.edges):
                nxt = q
                break
        if nxt is None:
            # disconnected component: seed its highest-degree qubit
            nxt = pending[0]
            best = min(free, key=lambda cl: (m.qubits[cl].readout_error, cl))
            placed[nxt] = best
            free.remove(best)
            pending.remove(nxt)
            continue
        cell = _best_free_cell(nxt, placed, free, pg, bp)
        placed[nxt] = cell
        free.remove(cell)
        pending.remove(nxt)
    ro = [cl for cl in _readout_order(m) if cl in free]
    for q in isolated:
        if q in placed:
            continue
        placed[q] = ro.pop(0)
        free.remove(placed[q])


def greedy_vertex_map(pg, m: GridMachine, t: DerivedTables) -> Placement:
    """Highest-degree qubit onto the best-readout cell of maximal grid degree,
    then attach neighbors on best-path-reliability-maximizing free cells."""
    nq = len(pg.nodes)
    _check_size(nq, m)
    bp = t.best_paths
    order = sorted(pg.nodes, key=lambda q: (-pg.vertex_degree.get(q, 0), q))
    placed: dict[int, int] = {}
    free = list(range(m.num_cells))
    if order and pg.vertex_degree.get(order[0], 0) > 0:
        max_deg = max(len(m.adjacency[cl]) for cl in range(m.num_cells))
        seed = min((cl for cl in range(m.num_cells)
                    if len(m.adjacency[cl]) == max_deg),
                   key=lambda cl: (m.qubits[cl].readout_error, cl))
        placed[order[0]] = seed
        free.remove(seed)
    _attach_rest(order, placed, free, pg, m, bp)
    return Placement(loc={q: m.pos(cl) for q, cl in placed.items()})


def greedy_edge_map(pg, m: GridMachine, t: DerivedTables) -> Placement:
    """Heaviest program edge onto the hardware edge with the best combined CNOT
    and readout reliability, then attach remaining edge endpoints."""
    nq = len(pg.nodes)
    _check_size(nq, m)
    bp = t.best_paths
    placed: dict[int, int] = {}
    free = list(range(m.num_cells))

    def seed_edge(qa: int, qb: int) -> None:
        best = None
        for e in m.edges:
            u, v = e.endpoints
            if u not in free or v not in free:
                continue
            score = (1.0 - e.cnot_error) \
                * (1.0 - m.qubits[u].readout_error) \
                * (1.0 - m.qubits[v].readout_error)
            if best is None or score > best[0] + 1e-15 \
                    or (abs(score - best[0]) <= 1e-15 and (u, v) < best[1:]):
                best = (score, u, v)
        if best is None:
            # no two free cells are adjacent: take the best free readout cells
            u, v = [cl for cl in _readout_order(m) if cl in free][:2]
        else:
            u, v = best[1:]
        placed[qa], placed[qb] = u, v
        free.remove(u)
        free.remove(v)

    edges = sorted(pg.edges.items(), key=lambda kv: (-kv[1], kv[0]))
    if edges:
        (qa, qb), _ = edges[0]
        seed_edge(qa, qb)
        progress = True
        while progress:
            progress = False
            for (a, b), _w in edges:
                ina, inb = a in placed, b in placed
                if ina == inb:
                    continue
                q = b if ina else a
                cell = _best_free_cell(q, placed, free, pg, bp)
                placed[q] = cell
                free.remove(cell)
                progress = True
                break
            if not progress:
                # another CNOT component not yet touched
                for (a, b), _w in edges:
                    if a not in placed and b not in placed:
                        seed_edge(a, b)
                        progress = True
                        break
    order = sorted(pg.nodes, key=lambda q: (-pg.vertex_degree.get(q, 0), q))
    ro = [cl for cl in _readout_order(m) if cl in set(free)]
    for q in order:
        if q not in placed:
            placed[q] = ro.pop(0)
            free.remove(placed[q])
    return Placement(loc={q: m.pos(cl) for q, cl in placed.items()})


def compile_with_placement(c: Circuit, m: GridMachine, t: DerivedTables,
                           cells: tuple[int, ...], cfg: HeuristicConfig,
                           variant_label: str) -> Solution:
    """Best-path routing + earliest-ready scheduling for a fixed placement."""
    bp = t.best_paths_return if cfg.count_return_swaps else t.best_paths
    gate_routes: dict[int, tuple[int, ...]] = {}
    gate_eps: dict[int, float] = {}
    for g in c.gates:
        if g.kind is GateKind.CNOT:
            gate_routes[g.id], eps = bp[(cells[g.operands[0]], cells[g.operands[1]])]
            gate_eps[g.id] = float(eps)
        elif g.kind is GateKind.MEASURE:
            gate_eps[g.id] = 1.0 - m.qubits[cells[g.operands[0]]].readout_error
    routes = list(gate_routes.values())   # in CNOT order
    try:
        starts, durs = _schedule_gates(c, m, cells,
                                       lambda k, a, b: (path_duration(m, routes[k]), routes[k]),
                                       *_dag_lists(c))
    except _InfeasibleSchedule as exc:
        raise Infeasible(str(exc)) from exc
    sol = Solution(
        placement=Placement(loc={q: m.pos(cl) for q, cl in enumerate(cells)}),
        routes=RouteAssignment(junction={}, rect={}),
        schedule=Schedule(start={g.id: starts[g.id] for g in c.gates},
                          dur={g.id: durs[g.id] for g in c.gates}),
        objective_value=0.0,
        optimal=False,
        variant=variant_label,
        routing=Routing.BEST_PATH.value,
        omega=cfg.omega,
        count_return_swaps=cfg.count_return_swaps,
        gate_eps=gate_eps,
        gate_routes=gate_routes,
    )
    return replace(sol, objective_value=objective(sol))


def heuristic_compile(c: Circuit, m: GridMachine, t: DerivedTables,
                      cfg: HeuristicConfig) -> Solution:
    """Greedy placement, fixed best-reliability routes, earliest-ready schedule."""
    pg = build_program_graph(c)
    if cfg.policy is GreedyPolicy.VERTEX:
        p = greedy_vertex_map(pg, m, t)
    else:
        p = greedy_edge_map(pg, m, t)
    cells = tuple(m.cell_id(p.loc[q]) for q in range(c.num_qubits))
    return compile_with_placement(c, m, t, cells, cfg, cfg.policy.value)
