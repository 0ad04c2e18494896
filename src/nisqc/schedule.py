"""Problem types, the list scheduler, the routed-CNOT cost model and Solution
assembly, shared by the exact and greedy mappers, expansion and verification."""

from __future__ import annotations

import functools
import heapq
import math
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum

from .circuit import Circuit, GateKind
from .machine import DerivedTables, GridMachine, cnot_walk, price_walk


class Variant(str, Enum):
    T_SMT = "t-smt"
    T_SMT_STAR = "t-smt-star"
    R_SMT_STAR = "r-smt-star"


class Routing(str, Enum):
    RR = "rr"
    ONE_BEND = "1bp"
    BEST_PATH = "path"


class Infeasible(Exception):
    """No schedule meets the coherence deadlines."""


@dataclass(frozen=True)
class ProblemConfig:
    variant: Variant
    routing: Routing | None = None
    omega: float = 0.5
    count_return_swaps: bool = False
    time_limit: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.routing is None:
            default = Routing.ONE_BEND if self.variant is Variant.R_SMT_STAR else Routing.RR
            object.__setattr__(self, "routing", default)
        else:
            object.__setattr__(self, "routing", Routing(self.routing))
        if self.variant is Variant.R_SMT_STAR and self.routing is not Routing.ONE_BEND:
            raise ValueError("reliability variant requires one-bend routing")
        if self.routing is Routing.BEST_PATH:
            raise ValueError("best-path routing belongs to the heuristic mappers")
        check_objective_settings(self.omega, self.count_return_swaps)
        if self.time_limit is not None and not (_is_real(self.time_limit)
                                                and self.time_limit > 0):
            raise ValueError(f"time_limit = {self.time_limit!r} must be a number > 0 seconds")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_objective_settings(omega, count_return_swaps) -> None:
    """The settings both configs take: raise ValueError for an omega that is
    not a number in [0, 1], a bool or a string among them, and for a
    count_return_swaps not a bool."""
    if not (_is_real(omega) and 0.0 <= omega <= 1.0):
        raise ValueError(f"omega = {omega!r} is not a number in [0, 1]")
    if type(count_return_swaps) is not bool:
        raise ValueError(f"count_return_swaps must be a bool, not {count_return_swaps!r}")


@dataclass(frozen=True)
class Placement:
    loc: dict[int, tuple[int, int]]


@dataclass(frozen=True)
class Schedule:
    start: dict[int, int]
    dur: dict[int, int]

    @functools.cached_property
    def makespan(self) -> int:
        """The latest end of any gate, computed once per schedule."""
        return max((self.start[g] + self.dur[g] for g in self.start), default=0)


@dataclass(frozen=True)
class Solution:
    placement: Placement
    schedule: Schedule
    objective_value: float
    optimal: bool
    config: ProblemConfig  # or the HeuristicConfig of a greedy mapper
    gate_routes: dict[int, tuple[int, ...]] = field(repr=False)  # CNOT walks, mover first
    variant = property(lambda self: self.config.variant.value)
    routing = property(lambda self: self.config.routing.value)
    omega = property(lambda self: self.config.omega)
    count_return_swaps = property(lambda self: self.config.count_return_swaps)

    @property
    def makespan(self) -> int:
        return self.schedule.makespan


def _list_schedule(n_cells, durs, gcells, deadlines, preds, succs):
    """Deterministic list scheduler shared by every variant.

    Among ready gates (all predecessors committed) the one with the smallest
    (earliest conflict-free start, gate id) commits next. A gate exclusively
    occupies each of its cells for [start, start + dur): half-open, so a gate
    may begin exactly when the previous one ends. Commits come in
    nondecreasing start order: a successor's fit starts at or after the end
    of the gate just committed, and a refit only moves later, since
    reservations are only ever added. So every reservation on a cell begins
    at or before any start still to be chosen, and, every duration being at
    least one timeslot, a start is free on a cell exactly when it is at or
    after the end of the cell's last reservation.

    A queued (start, gate) is stale exactly when one of the gate's cells is
    now free only from after that start: otherwise a refit would give the
    same start and push the same entry back. So the free-from times alone
    tell a stale entry, and it is refitted when it pops.
    """
    n_gates = len(durs)
    starts = [0] * n_gates
    est = [0] * n_gates
    pending = [len(p) for p in preds]
    free = [0] * n_cells  # per cell, the end of its last reservation
    # A gate is fitted where it is queued: at the latest of its earliest
    # start and its cells' free-from times, checked against its deadline.
    # With no reservation yet, a gate ready from the outset fits at 0.
    heap: list[tuple[int, int]] = []
    for g in range(n_gates):
        if pending[g] == 0:
            if durs[g] > deadlines[g]:
                raise Infeasible(f"gate {g} cannot finish before its coherence deadline")
            heap.append((0, g))   # in gate order, so already a heap
    while heap:
        s, g = heapq.heappop(heap)
        f = s
        for cell in gcells[g]:
            if free[cell] > f:
                f = free[cell]
        if f > s:   # stale, and f is its refit: s is already at or after est[g]
            if f + durs[g] > deadlines[g]:
                raise Infeasible(f"gate {g} cannot finish before its coherence deadline")
            heapq.heappush(heap, (f, g))
            continue
        starts[g] = s
        end = s + durs[g]
        for cell in gcells[g]:
            free[cell] = end
        for nxt in succs[g]:
            if end > est[nxt]:
                est[nxt] = end
            pending[nxt] -= 1
            if pending[nxt] == 0:
                f = est[nxt]
                for cell in gcells[nxt]:
                    if free[cell] > f:
                        f = free[cell]
                if f + durs[nxt] > deadlines[nxt]:
                    raise Infeasible(f"gate {nxt} cannot finish before its coherence deadline")
                heapq.heappush(heap, (f, nxt))
    # every gate was queued once ready, and left the heap only by committing
    assert not any(pending), "a gate never became ready"
    return starts


def walk_cost(m: GridMachine, walk, routing: str,
              static: bool) -> tuple[int, tuple[int, ...], float, float]:
    """A routed CNOT that takes the given walk, priced once by price_walk:
    (duration, reserved cells, eps_route, eps_strict). It reserves the
    bounding rectangle of the walk's ends under rectangle reservation and
    the walk's own cells under every other routing. Raises ValueError for a
    walk off the grid's edges."""
    hops, eps_route, eps_strict = price_walk(m, walk, static)
    dur = 6 * sum(hops[:-1]) + hops[-1]
    if routing != Routing.RR:
        return dur, walk, eps_route, eps_strict
    (ax, ay), (bx, by) = m.pos(walk[0]), m.pos(walk[-1])
    return dur, tuple(m.cell_id((x, y)) for x in range(min(ax, bx), max(ax, bx) + 1)
                      for y in range(min(ay, by), max(ay, by) + 1)), eps_route, eps_strict


def schedule_gates(c: Circuit, m: GridMachine, cells, cnot_costs,
                   static: bool) -> tuple[list[int], list[int]]:
    """Starts and durations of a placed circuit under the canonical scheduler,
    dependencies read from c.dag: the one builder of its arrays.

    cnot_costs lists each CNOT's (duration, reserved cells), in CNOT order;
    every other gate holds its own cell. Deadlines are the endpoints' T2, or
    the machine-wide coherence bound under the static model. Raises
    Infeasible.
    """
    n = len(c.gates)
    durs = [0] * n
    gc: list[tuple[int, ...]] = [()] * n
    dl = [m.static_coherence_bound - 1] * n
    qubits, costs = m.qubits, iter(cnot_costs)
    ones = [(cell,) for cell in range(m.num_cells)]   # one cell tuple per cell
    cnot, measure = GateKind.CNOT, GateKind.MEASURE
    for i, kind, operands, _clbit in c.gates:
        if kind is cnot:
            durs[i], gc[i] = next(costs)
            if not static:
                dl[i] = min(qubits[cells[operands[0]]].t2, qubits[cells[operands[1]]].t2)
        else:
            cell = cells[operands[0]]
            durs[i] = qubits[cell].readout_duration if kind is measure \
                else m.single_qubit_duration
            gc[i] = ones[cell]
            if not static:
                dl[i] = qubits[cell].t2
    return _list_schedule(m.num_cells, durs, gc, dl, *c.dag), durs


def weighted_log_sum(omega: float, ln_ro, ln_cx) -> float:
    """The reliability objective, the one place it is summed: omega times the
    sum of the readouts' ln reliabilities plus 1 - omega times the CNOTs'.
    math.fsum is exactly rounded, so the value does not depend on the order
    of the terms, and so not on the order of commuting gates."""
    return omega * math.fsum(ln_ro) + (1.0 - omega) * math.fsum(ln_cx)


def check_joins(gid: int, walk, a: int, b: int) -> None:
    """Raise ValueError unless CNOT gid's walk runs between its placed cells
    a and b, either way, and visits no cell twice."""
    if (walk[0], walk[-1]) not in ((a, b), (b, a)):
        raise ValueError(f"CNOT {gid} route {list(walk)} does not join its cells {a} and {b}")
    if len(set(walk)) != len(walk):
        raise ValueError(f"CNOT {gid} route {list(walk)} visits a cell twice")


def clashes(by_cell: dict[int, list[tuple[int, int, int]]]):
    """Yield (cell, id1, id2) for every two (start, end, id) intervals on one
    cell that clash: s1 < e2 and s2 < e1. Sorts each cell's list in place.
    Sorted by start, an interval can clash only with the later-sorted ones
    that start before its end. Both inequalities are still tested, so
    durations of 0 or below give the same pairs as testing every pair."""
    for cell, ivs in by_cell.items():
        ivs.sort()
        n = len(ivs)
        for k, (s1, e1, g1) in enumerate(ivs, 1):
            while k < n and ivs[k][0] < e1:
                if s1 < ivs[k][1]:
                    yield cell, g1, ivs[k][2]
                k += 1


def build_solution(c: Circuit, m: GridMachine, cfg, cells, walks, *,
                   optimal: bool) -> Solution:
    """The one place a Solution is assembled, for the exact solver, the
    greedy mappers and from_record alike: a function of the placement and
    the CNOT walks on m.

    cells are placement cells by qubit id and walks the CNOTs' walks in
    CNOT order, the moving qubit's cell first. Each walk is priced once, by
    walk_cost, and the placed circuit is scheduled by schedule_gates.
    Duration variants score the makespan; every other variant (the exact
    reliability variant and both greedy mappers) scores weighted_log_sum of
    each walk's ln reliability and each readout's ln(1 - readout error).
    cfg, kept as the solution's config, supplies every setting. Raises
    Infeasible, and ValueError for a walk that leaves the grid's edges, does
    not join its CNOT's placed cells or visits a cell twice.
    """
    static, routing = cfg.variant is Variant.T_SMT, cfg.routing
    flag = cfg.count_return_swaps
    costs: list[tuple[int, tuple[int, ...]]] = []
    eps_ro: list[float] = []
    eps_cx: list[float] = []
    gate_routes: dict[int, tuple[int, ...]] = {}
    cnot, measure, walk_of = GateKind.CNOT, GateKind.MEASURE, iter(walks)
    for gid, kind, operands, _clbit in c.gates:
        if kind is cnot:
            walk = gate_routes[gid] = next(walk_of)
            dur, reserved, *eps = walk_cost(m, walk, routing, static)
            check_joins(gid, walk, cells[operands[0]], cells[operands[1]])
            costs.append((dur, reserved))
            eps_cx.append(eps[flag])
        elif kind is measure:
            eps_ro.append(1.0 - m.qubits[cells[operands[0]]].readout_error)
    starts, durs = schedule_gates(c, m, cells, costs, static)
    # gate ids are positions in c.gates
    schedule = Schedule(start=dict(enumerate(starts)), dur=dict(enumerate(durs)))
    if cfg.variant in (Variant.T_SMT, Variant.T_SMT_STAR):
        value = float(schedule.makespan)
    else:
        value = weighted_log_sum(cfg.omega, map(math.log, eps_ro), map(math.log, eps_cx))
    return Solution(
        placement=Placement(loc={q: m.pos(cells[q]) for q in range(c.num_qubits)}),
        schedule=schedule,
        objective_value=value,
        optimal=optimal,
        config=cfg,
        gate_routes=gate_routes,
    )


def solution_from_assignment(c: Circuit, m: GridMachine, cfg: ProblemConfig,
                             cells, junctions, *, tables: DerivedTables,
                             optimal: bool = True) -> Solution:
    """Materialize a full Solution from placement cells (by qubit id) and junction
    cells (by CNOT order): each CNOT walks its junction's cnot_walk, under cfg
    without its time limit, which no record carries. Raises ValueError for a
    junction not legal for its CNOT, and Infeasible."""
    walks = []
    for g, j in zip(c.cnot_gates(), junctions):
        a, b = cells[g.operands[0]], cells[g.operands[1]]
        if j not in tables.junctions.get((a, b), ()):
            raise ValueError(f"junction {m.pos(j)} not legal for a CNOT "
                             f"from {m.pos(a)} to {m.pos(b)}")
        walks.append(cnot_walk(m, a, b, j))
    return build_solution(c, m, replace(cfg, time_limit=None), cells, walks, optimal=optimal)
