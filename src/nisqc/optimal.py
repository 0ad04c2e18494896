"""Exact mapping and scheduling: problem variants, the canonical list scheduler,
branch-and-bound placement search, and an SMT-LIB2 emission of the joint problem."""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from enum import Enum

from .circuit import (
    Circuit,
    GateKind,
    build_dag,
    build_program_graph,
    predecessor_lists,
)
from .machine import (
    DerivedTables,
    GridMachine,
    build_tables,
    canonical_junction,
    cnot_walk,
    manhattan,
    price_walk,
    static_cnot_duration,
)


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


class SolverTimeout(Exception):
    """Time limit expired before any feasible solution was found."""


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
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega = {self.omega} outside [0, 1]")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError(f"time_limit = {self.time_limit} must be > 0 seconds")


@dataclass(frozen=True)
class Placement:
    loc: dict[int, tuple[int, int]]

    def cells(self, m: GridMachine) -> tuple[int, ...]:
        return tuple(m.cell_id(self.loc[q]) for q in sorted(self.loc))


@dataclass(frozen=True)
class Schedule:
    start: dict[int, int]
    dur: dict[int, int]

    @property
    def makespan(self) -> int:
        return max((self.start[g] + self.dur[g] for g in self.start), default=0)


@dataclass(frozen=True)
class Solution:
    placement: Placement
    schedule: Schedule
    objective_value: float
    optimal: bool
    variant: str
    routing: str
    omega: float
    count_return_swaps: bool
    gate_routes: dict[int, tuple[int, ...]] = field(repr=False)  # CNOT walks, mover first

    @property
    def makespan(self) -> int:
        return self.schedule.makespan


class _InfeasibleSchedule(Exception):
    def __init__(self, gate_id: int):
        super().__init__(f"gate {gate_id} cannot finish before its coherence deadline")
        self.gate_id = gate_id


class _SearchTimeout(Exception):
    pass


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
    heap: list[tuple[int, int]] = []

    def fit(g: int) -> int:
        s = est[g]
        for cell in gcells[g]:
            f = free[cell]
            if f > s:
                s = f
        if s + durs[g] > deadlines[g]:
            raise _InfeasibleSchedule(g)
        return s

    for g in range(n_gates):
        if pending[g] == 0:
            heapq.heappush(heap, (fit(g), g))
    while heap:
        s, g = heapq.heappop(heap)
        for cell in gcells[g]:
            if free[cell] > s:
                heapq.heappush(heap, (fit(g), g))
                break
        else:
            starts[g] = s
            end = s + durs[g]
            for cell in gcells[g]:
                free[cell] = end
            for nxt in succs[g]:
                if end > est[nxt]:
                    est[nxt] = end
                pending[nxt] -= 1
                if pending[nxt] == 0:
                    heapq.heappush(heap, (fit(nxt), nxt))
    # every gate was queued once ready, and left the heap only by committing
    assert not any(pending), "a gate never became ready"
    return starts


def _walk_cost(m: GridMachine, walk, routing: str,
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


def _cnot_floor(m: GridMachine, tables: DerivedTables, static: bool) -> list[list[int]]:
    """Per (a, b) cell pair, the fewest timeslots the CNOT a -> b takes over
    its legal junctions: the static formula, which every junction's walk
    takes, under the static model, and delta otherwise; 0 when a == b."""
    if not static:
        return tables.delta.tolist()
    pos = [m.pos(a) for a in range(m.num_cells)]
    return [[static_cnot_duration(manhattan(pa, pb), m) if pa != pb else 0 for pb in pos]
            for pa in pos]


def _folded_rows(c: Circuit, preds, sq_dur: int) -> tuple[list[tuple], int]:
    """The circuit's DAG for _critical_path, folded onto its CNOTs and
    readouts. A single-qubit gate lasts sq_dur on every cell, so each path
    through such gates folds into a weight.

    Returns one row per CNOT or readout, in gate order, and the longest path
    of single-qubit gates alone. A row (is_cnot, x, head, into, tail) is
    CNOT number x or a readout of qubit x; it starts no earlier than head,
    nor than w after row u ends for each (u, w) in into, and the circuit
    lasts at least tail after it ends.
    """
    rows: list[list] = []
    via: list[dict[int, int]] = []  # per gate: {row u: longest path from u's end to its end}
    lead: list[int] = []  # per gate: longest path to its end through no row, 0 for a row
    is_sink = [True] * len(c.gates)
    k = 0
    for g in c.gates:
        into: dict[int, int] = {}
        head = 0
        for p in preds[g.id]:
            is_sink[p] = False
            head = max(head, lead[p])
            for u, w in via[p].items():
                into[u] = max(into.get(u, 0), w)
        if g.kind is GateKind.CNOT or g.kind is GateKind.MEASURE:
            is_cnot = g.kind is GateKind.CNOT
            via.append({len(rows): 0})
            lead.append(0)
            rows.append([is_cnot, k if is_cnot else g.operands[0], head, tuple(into.items()), 0])
            k += is_cnot
        else:
            via.append({u: w + sq_dur for u, w in into.items()})
            lead.append(head + sq_dur)
    const_path = 0
    for i in range(len(c.gates)):
        if is_sink[i]:
            const_path = max(const_path, lead[i])
            for u, w in via[i].items():
                rows[u][4] = max(rows[u][4], w)
    return [tuple(r) for r in rows], const_path


def _critical_path(rows, const_path: int, cx_durs, ro_durs) -> int:
    """Longest path through a DAG folded by _folded_rows, with CNOT k
    lasting cx_durs[k] and a readout of qubit q ro_durs[q]: no schedule of
    the circuit at those durations is shorter."""
    fin: list[int] = []
    best = const_path
    for is_cnot, x, head, into, tail in rows:
        f = head
        for u, w in into:
            if fin[u] + w > f:
                f = fin[u] + w
        f += cx_durs[x] if is_cnot else ro_durs[x]
        fin.append(f)
        if f + tail > best:
            best = f + tail
    return best


def _dag_lists(c: Circuit) -> tuple[list[list[int]], list[list[int]]]:
    """Predecessor and successor gate ids per gate."""
    preds = predecessor_lists(c)
    succs: list[list[int]] = [[] for _ in preds]
    for g2, ps in enumerate(preds):
        for g1 in ps:
            succs[g1].append(g2)
    return preds, succs


def _schedule_gates(c: Circuit, m: GridMachine, cells, cnot_costs, preds, succs,
                    static: bool = False) -> tuple[list[int], list[int]]:
    """Starts and durations of a placed circuit under the canonical scheduler:
    the one builder of its arrays.

    cnot_costs lists each CNOT's (duration, reserved cells), in CNOT order;
    every other gate holds its own cell. Deadlines are the endpoints' T2, or
    the machine-wide coherence bound under the static model. Raises
    _InfeasibleSchedule.
    """
    n = len(c.gates)
    durs = [0] * n
    gc: list[tuple[int, ...]] = [()] * n
    dl = [m.static_coherence_bound - 1] * n
    qubits, costs = m.qubits, iter(cnot_costs)
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
            gc[i] = (cell,)
            if not static:
                dl[i] = qubits[cell].t2
    return _list_schedule(m.num_cells, durs, gc, dl, preds, succs), durs


def _weighted_log_sum(omega: float, ln_ro, ln_cx) -> float:
    """The reliability objective, the one place it is summed: omega times the
    sum of the readouts' ln reliabilities plus 1 - omega times the CNOTs'.
    math.fsum is exactly rounded, so the value does not depend on the order
    of the terms, and so not on the order of commuting gates."""
    return omega * math.fsum(ln_ro) + (1.0 - omega) * math.fsum(ln_cx)


class _Scorer:
    """Shared leaf evaluator: the exact solver and the brute-force enumerator both
    score a (placement, junctions) assignment through this one code path. It
    takes the circuit, the machine, its tables and the problem config; a CNOT
    is priced by _walk_cost of its junction's cnot_walk, once per (cells,
    junction), and its reliability is read from the tables, which hold
    price_walk's. Its objective is _weighted_log_sum of these ln
    reliabilities, so it is bitwise the value that _build_solution and
    check_solution compute from the walks."""

    def __init__(self, c: Circuit, m: GridMachine, tables: DerivedTables, cfg: ProblemConfig):
        self.c, self.m, self.tables, self.cfg = c, m, tables, cfg
        self.ec = tables.cnot_rel_return if cfg.count_return_swaps else tables.cnot_rel
        self.static = cfg.variant is Variant.T_SMT
        self.one_bend = cfg.routing is Routing.ONE_BEND
        self._cost: dict[tuple[int, int, int], tuple[int, tuple[int, ...]]] = {}
        self._ln_ec: dict[tuple[int, int, int], float] = {}
        self._choices: dict[tuple[int, int], tuple[int, ...]] = {}
        self.n_gates = len(c.gates)
        self.preds, self.succs = _dag_lists(c)
        self.cnot_ops = [g.operands for g in c.gates if g.kind is GateKind.CNOT]
        self.measured = [g.operands[0] for g in c.gates if g.kind is GateKind.MEASURE]
        self.ln_ro = [math.log(r) for r in tables.readout_rel.tolist()]
        self.ro_dur = [q.readout_duration for q in m.qubits]

    def cnot_cost(self, a: int, b: int, j: int) -> tuple[int, tuple[int, ...]]:
        """(duration, reserved cells) of the CNOT a -> b's walk through the
        legal junction j, by _walk_cost."""
        key = (a, b, j)
        cost = self._cost.get(key)
        if cost is None:
            cost = self._cost[key] = _walk_cost(self.m, cnot_walk(self.m, a, b, j),
                                                self.cfg.routing, self.static)[:2]
        return cost

    def junction_choices(self, a: int, b: int) -> tuple[int, ...]:
        choices = self._choices.get((a, b))
        if choices is None:
            # Rectangle reservation does not search junctions; expansion later
            # walks the canonical one.
            choices = self._choices[(a, b)] = self.tables.junctions[(a, b)] if self.one_bend \
                else (canonical_junction(self.tables, a, b),)
        return choices

    def ln_ec(self, key: tuple[int, int, int]) -> float:
        v = self._ln_ec.get(key)
        if v is None:
            v = self._ln_ec[key] = math.log(self.ec[key])
        return v

    def schedule_arrays(self, cells, junctions):
        """Starts and durations for one assignment; raises _InfeasibleSchedule."""
        cost = self.cnot_cost
        return _schedule_gates(self.c, self.m, cells,
                               [cost(cells[qa], cells[qb], j)
                                for (qa, qb), j in zip(self.cnot_ops, junctions)],
                               self.preds, self.succs, self.static)

    def log_objective(self, cells, junctions) -> float:
        """The reliability objective of one assignment."""
        ln_ec = self.ln_ec
        return _weighted_log_sum(
            self.cfg.omega, [self.ln_ro[cells[q]] for q in self.measured],
            [ln_ec((cells[qa], cells[qb], j)) for (qa, qb), j in zip(self.cnot_ops, junctions)])

    def leaf(self, cells, junctions):
        """(objective, makespan) for one assignment; raises _InfeasibleSchedule."""
        starts, durs = self.schedule_arrays(cells, junctions)
        makespan = max((starts[i] + durs[i] for i in range(self.n_gates)), default=0)
        if self.cfg.variant is Variant.R_SMT_STAR:
            return self.log_objective(cells, junctions), makespan
        return float(makespan), makespan


def solution_from_assignment(c: Circuit, m: GridMachine, cfg: ProblemConfig,
                             cells, junctions, *, tables: DerivedTables | None = None,
                             optimal: bool = True) -> Solution:
    """Materialize a full Solution from placement cells (by qubit id) and junction
    cells (by CNOT order): each CNOT walks its junction's cnot_walk. Raises
    ValueError for a junction not legal for its CNOT, and Infeasible."""
    tables = tables if tables is not None else build_tables(m)
    walks = []
    for g, j in zip(c.cnot_gates(), junctions):
        a, b = cells[g.operands[0]], cells[g.operands[1]]
        if j not in tables.junctions.get((a, b), ()):
            raise ValueError(f"junction {m.pos(j)} not legal for a CNOT "
                             f"from {m.pos(a)} to {m.pos(b)}")
        walks.append(cnot_walk(m, a, b, j))
    return _build_solution(c, m, cfg, cells, walks, variant=cfg.variant.value,
                           routing=cfg.routing.value, optimal=optimal)


def _check_joins(gid: int, walk, a: int, b: int) -> None:
    """Raise ValueError unless CNOT gid's walk runs between its placed cells
    a and b, either way."""
    if (walk[0], walk[-1]) not in ((a, b), (b, a)):
        raise ValueError(f"CNOT {gid} route {list(walk)} does not join its cells {a} and {b}")


def _schedule_walks(c: Circuit, m: GridMachine, cells, walks, variant: str,
                    routing: str) -> tuple[Schedule, dict[int, float], dict[int, float]]:
    """The canonical schedule of a placed circuit whose CNOTs take the given
    walks, in CNOT order, and each gate's success probabilities on m without
    and with return swaps counted: (schedule, eps_route, eps_strict). Each
    walk is priced once, by _walk_cost; a readout's probabilities are 1 - its
    cell's readout error. cells are placement cells by qubit id. Raises
    Infeasible, and ValueError for a walk that leaves the grid's edges or
    does not join its CNOT's placed cells."""
    static = variant == Variant.T_SMT.value
    costs: list[tuple[int, tuple[int, ...]]] = []
    eps_route, eps_strict = {}, {}   # per gate id
    cnot, measure, walk_of = GateKind.CNOT, GateKind.MEASURE, iter(walks)
    for gid, kind, operands, _clbit in c.gates:
        if kind is cnot:
            walk = next(walk_of)
            dur, reserved, eps_route[gid], eps_strict[gid] = _walk_cost(m, walk, routing, static)
            _check_joins(gid, walk, cells[operands[0]], cells[operands[1]])
            costs.append((dur, reserved))
        elif kind is measure:
            eps_route[gid] = eps_strict[gid] = 1.0 - m.qubits[cells[operands[0]]].readout_error
    try:
        starts, durs = _schedule_gates(c, m, cells, costs, *_dag_lists(c), static=static)
    except _InfeasibleSchedule as exc:
        raise Infeasible(str(exc)) from exc
    # gate ids are positions in c.gates
    return Schedule(start=dict(enumerate(starts)), dur=dict(enumerate(durs))), \
        eps_route, eps_strict


def _build_solution(c: Circuit, m: GridMachine, cfg, cells, walks, *,
                    variant: str, routing: str, optimal: bool) -> Solution:
    """The one place a Solution is assembled, for the exact solver and the
    greedy mappers alike: a function of the placement and the CNOT walks.

    cells are placement cells by qubit id and walks the CNOTs' walks in
    CNOT order, the moving qubit's cell first. They are scheduled by
    _schedule_walks. Duration variants score the makespan; every other
    variant (the exact reliability variant and both greedy mappers) scores
    _weighted_log_sum of the ln reliabilities _schedule_walks derives from
    the walks. cfg supplies omega and count_return_swaps. Raises
    Infeasible.
    """
    schedule, eps_route, eps_strict = _schedule_walks(c, m, cells, walks, variant, routing)
    gate_routes = {g.id: walk for g, walk in zip(c.cnot_gates(), walks)}
    if variant in (Variant.T_SMT.value, Variant.T_SMT_STAR.value):
        value = float(schedule.makespan)
    else:
        eps = eps_strict if cfg.count_return_swaps else eps_route
        value = _weighted_log_sum(cfg.omega,
                                  [math.log(e) for g, e in eps.items() if g not in gate_routes],
                                  [math.log(eps[g]) for g in gate_routes])
    return Solution(
        placement=Placement(loc={q: m.pos(cells[q]) for q in range(c.num_qubits)}),
        schedule=schedule,
        objective_value=value,
        optimal=optimal,
        variant=variant,
        routing=routing,
        omega=cfg.omega,
        count_return_swaps=cfg.count_return_swaps,
        gate_routes=gate_routes,
    )


def solve_exact(c: Circuit, m: GridMachine, cfg: ProblemConfig, *,
                tables: DerivedTables | None = None) -> Solution:
    """Branch-and-bound over injective placements and junction assignments.

    Placements extend qubit by qubit in descending program-graph degree order
    (then qubit id), each over the free cells in ascending order; junction
    combos follow itertools.product. Complete assignments are scored by the
    canonical scheduler. Reliability pruning bounds unplaced readouts/CNOTs
    by the machine-wide best entries; duration pruning uses a critical-path
    bound with placed CNOTs at their pair's fastest junction and unplaced
    ones at the fastest edge. Its durations are kept in place, only the new
    qubit's change from child to child, and children whose new durations
    agree share one bound. A leaf replaces the incumbent only when it is
    strictly better, so ties go to the first optimum in search order and the
    result is deterministic.

    Before the search, the greedy-e placement (heuristic.greedy_edge_map on
    the best-path table), each CNOT at its best legal junction, is scored as
    a leaf: the seed. Until the first incumbent it bounds the search
    non-strictly: a node descends when its bound is at least as good as the
    seed, and the first leaf at least as good as the seed becomes the
    incumbent. From then on the strict rules hold, so the first optimum in
    search order is still the answer. When the time limit expires before
    any incumbent, the seed is returned with optimal=False; SolverTimeout
    is raised only when the seed misses a coherence deadline too.

    A junction combo of a complete placement is scheduled only when its
    bound beats the incumbent's objective. The bound is the objective itself
    under r-smt-star, which needs no schedule, and under the duration
    variants the critical path at the combo's own CNOT durations, which no
    makespan is below. A duration node descends only when its bound is below
    the incumbent's objective. The clock is read once per node and once per
    junction combo, so a time limit holds to within one leaf evaluation.
    """
    nq, ncells = c.num_qubits, m.num_cells
    if nq > ncells:
        raise ValueError(f"{nq} program qubits exceed {ncells} hardware cells")
    tables = tables if tables is not None else build_tables(m)
    scorer = _Scorer(c, m, tables, cfg)
    pg = build_program_graph(c)
    order = sorted(range(nq), key=lambda q: (-pg.vertex_degree.get(q, 0), q))
    maximize = cfg.variant is Variant.R_SMT_STAR
    omega = cfg.omega

    n_meas = [0] * nq
    for q in scorer.measured:
        n_meas[q] += 1
    cnot_ops = scorer.cnot_ops
    incident: list[list[int]] = [[] for _ in range(nq)]
    for ci, (qa, qb) in enumerate(cnot_ops):
        incident[qa].append(ci)
        incident[qb].append(ci)

    best_ln_ro = max(scorer.ln_ro) if scorer.measured else 0.0
    min_edge_err = min(e.cnot_error for e in m.edges) if m.edges else 0.0
    best_ln_cx = math.log(1.0 - min_edge_err)
    min_edge_dur = min((e.cnot_duration for e in m.edges), default=m.static_tau_cnot)
    min_ro_dur = min(scorer.ro_dur)
    opt_cx_dur = m.static_tau_cnot if cfg.variant is Variant.T_SMT else min_edge_dur
    pair_best_ln: dict[tuple[int, int], float] = {}

    def best_pair_ln(a: int, b: int) -> float:
        v = pair_best_ln.get((a, b))
        if v is None:
            v = max(scorer.ln_ec((a, b, j)) for j in tables.junctions[(a, b)])
            pair_best_ln[(a, b)] = v
        return v

    cell_of = [-1] * nq
    used = [False] * ncells
    incumbent: list = [None]  # [(objective, (cells, junctions))]
    deadline = time.monotonic() + cfg.time_limit if cfg.time_limit is not None else None

    def check_time():
        if deadline is not None and time.monotonic() > deadline:
            raise _SearchTimeout()

    cx_floor = _cnot_floor(m, tables, scorer.static)
    rows, const_path = _folded_rows(c, scorer.preds, m.single_qubit_duration)

    # The node bound's durations, kept in place as qubits are placed and
    # unplaced: placed CNOTs at their pair's floor, unplaced ones at the
    # fastest edge; unplaced readouts at the fastest cell's.
    cx_durs = [opt_cx_dur] * len(cnot_ops)
    ro_durs = [min_ro_dur] * nq

    # The seed: the greedy-e placement with each CNOT at its best legal
    # junction, the most reliable under r-smt-star and the fastest otherwise.
    from .heuristic import greedy_edge_map
    loc = greedy_edge_map(pg, m, tables).loc
    seed_cells = tuple(m.cell_id(loc[q]) for q in range(nq))

    def best_junction(a: int, b: int) -> int:
        # max and min keep the first of tied junctions
        js = scorer.junction_choices(a, b)
        if maximize:
            return max(js, key=lambda j: scorer.ln_ec((a, b, j)))
        return min(js, key=lambda j: scorer.cnot_cost(a, b, j)[0])

    seed_combo = tuple(best_junction(seed_cells[qa], seed_cells[qb]) for qa, qb in cnot_ops)
    try:
        seed = (scorer.leaf(seed_cells, seed_combo)[0], (seed_cells, seed_combo))
    except _InfeasibleSchedule:
        seed = None

    def beats(obj) -> bool:
        inc = incumbent[0]
        if inc is None:
            # Before the first incumbent, matching the seed is enough.
            return seed is None or (obj >= seed[0] if maximize else obj <= seed[0])
        return obj > inc[0] if maximize else obj < inc[0]

    def do_leaf(node_lb):
        cells = tuple(cell_of)
        pairs = [(cells[qa], cells[qb]) for qa, qb in cnot_ops]
        cand = [scorer.junction_choices(a, b) for a, b in pairs]
        if not maximize:
            # With every CNOT at its pair's floor, as always under rr and
            # t-smt, each combo's critical path is the node's bound.
            at_floor = all(scorer.cnot_cost(a, b, j)[0] == cx_floor[a][b]
                           for (a, b), js in zip(pairs, cand) for j in js)
            ro_durs = [scorer.ro_dur[cell] for cell in cells]
        for combo in itertools.product(*cand):
            check_time()
            # Schedule only a combo whose bound beats the incumbent: the
            # objective itself under r-smt-star, which needs no schedule, and
            # the critical path at the combo's own durations, which no
            # makespan is below, under the duration variants.
            if maximize:
                bound = scorer.log_objective(cells, combo)
            elif at_floor:
                bound = node_lb
            else:
                bound = _critical_path(rows, const_path,
                                       [scorer.cnot_cost(a, b, j)[0]
                                        for (a, b), j in zip(pairs, combo)], ro_durs)
            if not beats(bound):
                continue
            # Under r-smt-star the bound is bitwise the leaf's objective, so
            # the schedule only decides feasibility.
            try:
                if maximize:
                    scorer.schedule_arrays(cells, combo)
                    obj = bound
                else:
                    obj, _ = scorer.leaf(cells, combo)
            except _InfeasibleSchedule:
                continue
            if beats(obj):
                incumbent[0] = (obj, (cells, combo))

    def rec(k, sum_ro, n_ro_open, sum_cx, n_cx_open, lb):
        check_time()
        if k == nq:
            do_leaf(lb)
            return
        q = order[k]
        memo: dict[tuple[int, ...], int] = {}  # the node bound by q's durations
        for cell in range(ncells):
            if used[cell]:
                continue
            cell_of[q] = cell
            used[cell] = True
            if maximize:
                s_ro = sum_ro + n_meas[q] * scorer.ln_ro[cell]
                r_open = n_ro_open - n_meas[q]
                s_cx, c_open = sum_cx, n_cx_open
                for ci in incident[q]:
                    qa, qb = cnot_ops[ci]
                    other = cell_of[qb] if qa == q else cell_of[qa]
                    if other >= 0:
                        a = cell if qa == q else other
                        b = other if qa == q else cell
                        s_cx += best_pair_ln(a, b)
                        c_open -= 1
                bound = omega * (s_ro + r_open * best_ln_ro) \
                    + (1.0 - omega) * (s_cx + c_open * best_ln_cx)
                ref = incumbent[0] or seed
                if ref is None or bound >= ref[0] - 1e-9:
                    rec(k + 1, s_ro, r_open, s_cx, c_open, 0)
            else:
                ro_durs[q] = scorer.ro_dur[cell]
                for ci in incident[q]:
                    qa, qb = cnot_ops[ci]
                    if cell_of[qa] >= 0 and cell_of[qb] >= 0:
                        cx_durs[ci] = cx_floor[cell_of[qa]][cell_of[qb]]
                # Only q's entries differ between the children of one node.
                key = (ro_durs[q], *[cx_durs[ci] for ci in incident[q]])
                b = memo.get(key)
                if b is None:
                    b = memo[key] = _critical_path(rows, const_path, cx_durs, ro_durs)
                if beats(b):
                    rec(k + 1, sum_ro, n_ro_open, sum_cx, n_cx_open, b)
                for ci in incident[q]:
                    cx_durs[ci] = opt_cx_dur
                ro_durs[q] = min_ro_dur
            used[cell] = False
            cell_of[q] = -1

    timed_out = False
    try:
        rec(0, 0.0, len(scorer.measured), 0.0, len(cnot_ops), 0)
    except _SearchTimeout:
        timed_out = True
    inc = incumbent[0] or seed
    if inc is None:
        if timed_out:
            raise SolverTimeout(f"no feasible solution within {cfg.time_limit} s")
        raise Infeasible("every placement violates a coherence deadline")
    return solution_from_assignment(c, m, cfg, *inc[1], tables=tables, optimal=not timed_out)


def _clashes(by_cell: dict[int, list[tuple[int, int, int]]]):
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


def check_solution(sol: Solution, c: Circuit, m: GridMachine,
                   cfg: ProblemConfig | None = None,
                   tables: DerivedTables | None = None) -> list[str]:
    """Independent re-verification of every constraint; returns violations (empty = valid).
    Each CNOT's walk is priced once, by _walk_cost, for its duration, its
    reserved cells and its reliability. The objective must equal, exactly,
    the makespan or _weighted_log_sum of each walk's reliability and each
    measured cell's readout_rel; it is not recomputed when a CNOT's walk is
    rejected."""
    v: list[str] = []
    variant = cfg.variant.value if cfg is not None else sol.variant
    routing = cfg.routing.value if cfg is not None else sol.routing
    flag = cfg.count_return_swaps if cfg is not None else sol.count_return_swaps
    omega = cfg.omega if cfg is not None else sol.omega
    loc = sol.placement.loc

    for q in range(c.num_qubits):
        if q not in loc:
            v.append(f"qubit {q} unmapped")
        else:
            x, y = loc[q]
            if not (0 <= x < m.mx and 0 <= y < m.my):
                v.append(f"qubit {q} at {loc[q]} off the {m.mx}x{m.my} grid")
    if len(set(loc.values())) != len(loc):
        v.append("placement not injective")
    if v:
        return v

    tables = tables if tables is not None else build_tables(m)
    cells = {q: m.cell_id(loc[q]) for q in loc}
    start, dur = sol.schedule.start, sol.schedule.dur
    missing = [g.id for g in c.gates if g.id not in start or g.id not in dur]
    if missing:
        return v + [f"gates {missing} unscheduled"]

    by_cell: dict[int, list[tuple[int, int, int]]] = {}   # reservations per cell
    ln_ro: list[float] = []
    ln_cx: list[float] = []
    is_static = variant == Variant.T_SMT.value
    if routing != Routing.BEST_PATH.value and cfg is None:
        try:
            ProblemConfig(variant, routing, omega=omega, count_return_swaps=flag)
        except ValueError as exc:
            return v + [f"solution config rejected: {exc}"]

    qubits, cnot, measure = m.qubits, GateKind.CNOT, GateKind.MEASURE
    for gid, kind, operands, _clbit in c.gates:
        if kind is cnot:
            a, b = cells[operands[0]], cells[operands[1]]
            if a == b:
                v.append(f"CNOT {gid} endpoints share cell {a}")
                continue
            walk = tuple(sol.gate_routes.get(gid, ()))
            if len(walk) < 2 or (walk[0], walk[-1]) not in ((a, b), (b, a)):
                v.append(f"CNOT {gid} route does not join its endpoints")
                continue
            if routing != Routing.BEST_PATH.value:
                legal = (canonical_junction(tables, a, b),) if routing == Routing.RR.value \
                    else tables.junctions[(a, b)]
                if all(walk != cnot_walk(m, a, b, j) for j in legal):
                    v.append(f"CNOT {gid} route is not the walk of a junction "
                             f"legal under {routing} routing")
                    continue
            try:
                expect_dur, region, *eps = _walk_cost(m, walk, routing, is_static)
            except ValueError as exc:
                v.append(f"CNOT {gid} route is not a grid walk: {exc}")
                continue
            ln_cx.append(math.log(eps[flag]))
            region = set(region)
            t2 = min(qubits[a].t2, qubits[b].t2)
        else:
            cell = cells[operands[0]]
            if kind is measure:
                expect_dur = qubits[cell].readout_duration
                ln_ro.append(math.log(float(tables.readout_rel[cell])))
            else:
                expect_dur = m.single_qubit_duration
            region = (cell,)
            t2 = qubits[cell].t2
        s, d = start[gid], dur[gid]
        if d != expect_dur:
            v.append(f"gate {gid} duration {d} != expected {expect_dur}")
        if s + d > (m.static_coherence_bound - 1 if is_static else t2):
            v.append(f"gate {gid} breaks its coherence deadline")
        for cell in region:
            by_cell.setdefault(cell, []).append((s, s + d, gid))

    late = [(g1, g2) for g2, ps in enumerate(predecessor_lists(c)) for g1 in ps
            if start[g2] < start[g1] + dur[g1]]
    v += [f"dependency violated: gate {g2} starts before gate {g1} finishes"
          for g1, g2 in sorted(late)]

    clashes = {(min(g1, g2), max(g1, g2)) for _cell, g1, g2 in _clashes(by_cell)}
    v += [f"gates {g1} and {g2} overlap in space and time" for g1, g2 in sorted(clashes)]

    if variant in (Variant.T_SMT.value, Variant.T_SMT_STAR.value):
        expect_obj = float(sol.schedule.makespan)
    elif len(ln_cx) == len(c.cnot_gates()):
        expect_obj = _weighted_log_sum(omega, ln_ro, ln_cx)
    else:
        return v
    if sol.objective_value != expect_obj:
        v.append(f"objective {sol.objective_value} != recomputed {expect_obj}")
    return v


def _smt_real(x: float) -> str:
    s = f"{abs(x):.17f}"
    return f"(- {s})" if x < 0 else s


def _ite_chain(entries: list[tuple[str, str]], fallback: str) -> str:
    expr = fallback
    for cond, val in reversed(entries):
        expr = f"(ite {cond} {val} {expr})"
    return expr


def emit_smtlib(c: Circuit, m: GridMachine, cfg: ProblemConfig) -> str:
    """SMT-LIB2 script for the joint placement/routing/scheduling problem.

    Unlike solve_exact, which fixes start times with the canonical scheduler,
    the script leaves start times free, so an optimizing solver explores the
    full joint space. Intended for desk-scale external verification; lookup
    tables are emitted as ite switches, so script size grows with cell count.
    """
    nq, my = c.num_qubits, m.my
    is_static = cfg.variant is Variant.T_SMT
    reliability = cfg.variant is Variant.R_SMT_STAR
    one_bend = cfg.routing is Routing.ONE_BEND
    tables = None if is_static else build_tables(m)
    ec = None
    if reliability:
        ec = tables.cnot_rel_return if cfg.count_return_swaps else tables.cnot_rel

    edge_durs = {e.cnot_duration for e in m.edges}
    uniform_edge_dur = len(edge_durs) <= 1
    ro_durs = {q.readout_duration for q in m.qubits}
    t2s = {q.t2 for q in m.qubits}
    cells = range(m.num_cells)

    L: list[str] = []
    add = L.append
    add(f"; joint mapping/scheduling encoding: {m.mx}x{m.my} grid, "
        f"variant {cfg.variant.value}, routing {cfg.routing.value}")
    add("; model decoding:")
    add(";   qxI, qyI  grid position of program qubit I")
    add(";   tG        start timeslot of gate G (gate ids follow input order)")
    if one_bend:
        add(";   jxG, jyG  junction of CNOT G; its route is control -> junction -> target.")
        add(";             The two rectangle corners are the candidates; for colinear")
        add(";             endpoints both corners collapse onto the straight segment.")
    if reliability:
        add(";   obj       weighted sum of natural-log gate reliabilities (maximized)")
    else:
        add(";   makespan  circuit duration in timeslots (minimized)")
    add("(set-option :produce-models true)")

    for i in range(nq):
        add(f"(declare-const qx{i} Int)")
        add(f"(declare-const qy{i} Int)")
        add(f"(assert (and (>= qx{i} 0) (< qx{i} {m.mx}) (>= qy{i} 0) (< qy{i} {m.my})))")
        add(f"(define-fun cq{i} () Int (+ (* {my} qx{i}) qy{i}))")
    if nq >= 2:
        add("(assert (distinct " + " ".join(f"cq{i}" for i in range(nq)) + "))")

    def t2_bound(cell_expr: str) -> str:
        if len(t2s) == 1:
            return str(next(iter(t2s)))
        return _ite_chain(
            [(f"(= {cell_expr} {cl})", str(m.qubits[cl].t2)) for cl in cells][:-1],
            str(m.qubits[m.num_cells - 1].t2))

    bboxes: dict[int, list[tuple[str, str, str, str]]] = {}

    def junction_switch(i: int, qa: int, qb: int, value) -> str:
        # ite switch on CNOT i's (control, target, junction) cells; value maps a
        # tables key to its SMT literal. A corner matching an endpoint means
        # colinear cells: either corner walks the same straight route.
        entries = []
        for a in cells:
            pa = m.pos(a)
            for b in cells:
                if a == b:
                    continue
                pb = m.pos(b)
                legal = tables.junctions[(a, b)]
                for jpos in {(pa[0], pb[1]), (pb[0], pa[1])}:
                    jc = m.cell_id(jpos)
                    entries.append((f"(and (= cq{qa} {a}) (= cq{qb} {b}) (= cj{i} {jc}))",
                                    value((a, b, jc if jc in legal else legal[0]))))
        return _ite_chain(entries[:-1], entries[-1][1])

    for g in c.gates:
        i = g.id
        add(f"(declare-const t{i} Int)")
        add(f"(assert (>= t{i} 0))")
        if g.kind is GateKind.CNOT:
            qa, qb = g.operands
            if one_bend:
                add(f"(declare-const jx{i} Int)")
                add(f"(declare-const jy{i} Int)")
                add(f"(assert (or (and (= jx{i} qx{qa}) (= jy{i} qy{qb})) "
                    f"(and (= jx{i} qx{qb}) (= jy{i} qy{qa}))))")
                add(f"(define-fun cj{i} () Int (+ (* {my} jx{i}) jy{i}))")
            if is_static or uniform_edge_dur:
                tau = m.static_tau_cnot if is_static else next(iter(edge_durs), m.static_tau_cnot)
                add(f"(define-fun dx{i} () Int (ite (<= qx{qa} qx{qb}) "
                    f"(- qx{qb} qx{qa}) (- qx{qa} qx{qb})))")
                add(f"(define-fun dy{i} () Int (ite (<= qy{qa} qy{qb}) "
                    f"(- qy{qb} qy{qa}) (- qy{qa} qy{qb})))")
                add(f"(define-fun d{i} () Int (- (* {6 * tau} (+ dx{i} dy{i})) {5 * tau}))")
            elif one_bend:
                add(f"(define-fun d{i} () Int "
                    f"{junction_switch(i, qa, qb, lambda k: str(tables.cnot_dur[k]))})")
            else:
                entries = []
                for a in cells:
                    for b in cells:
                        if a != b:
                            entries.append((f"(and (= cq{qa} {a}) (= cq{qb} {b}))",
                                            str(int(tables.delta[a, b]))))
                add(f"(define-fun d{i} () Int {_ite_chain(entries[:-1], entries[-1][1])})")
            if one_bend:
                for snum, (px, py) in ((1, (f"qx{qa}", f"qy{qa}")), (2, (f"qx{qb}", f"qy{qb}"))):
                    add(f"(define-fun r{i}s{snum}lx () Int (ite (<= {px} jx{i}) {px} jx{i}))")
                    add(f"(define-fun r{i}s{snum}rx () Int (ite (<= {px} jx{i}) jx{i} {px}))")
                    add(f"(define-fun r{i}s{snum}ly () Int (ite (<= {py} jy{i}) {py} jy{i}))")
                    add(f"(define-fun r{i}s{snum}ry () Int (ite (<= {py} jy{i}) jy{i} {py}))")
                bboxes[i] = [(f"r{i}s1lx", f"r{i}s1rx", f"r{i}s1ly", f"r{i}s1ry"),
                             (f"r{i}s2lx", f"r{i}s2rx", f"r{i}s2ly", f"r{i}s2ry")]
            else:
                add(f"(define-fun r{i}lx () Int (ite (<= qx{qa} qx{qb}) qx{qa} qx{qb}))")
                add(f"(define-fun r{i}rx () Int (ite (<= qx{qa} qx{qb}) qx{qb} qx{qa}))")
                add(f"(define-fun r{i}ly () Int (ite (<= qy{qa} qy{qb}) qy{qa} qy{qb}))")
                add(f"(define-fun r{i}ry () Int (ite (<= qy{qa} qy{qb}) qy{qb} qy{qa}))")
                bboxes[i] = [(f"r{i}lx", f"r{i}rx", f"r{i}ly", f"r{i}ry")]
            if is_static:
                add(f"(assert (< (+ t{i} d{i}) {m.static_coherence_bound}))")
            else:
                add(f"(assert (<= (+ t{i} d{i}) {t2_bound(f'cq{qa}')}))")
                add(f"(assert (<= (+ t{i} d{i}) {t2_bound(f'cq{qb}')}))")
        else:
            q = g.operands[0]
            if g.kind is GateKind.MEASURE:
                if len(ro_durs) == 1:
                    add(f"(define-fun d{i} () Int {next(iter(ro_durs))})")
                else:
                    entries = [(f"(= cq{q} {cl})", str(m.qubits[cl].readout_duration))
                               for cl in cells]
                    add(f"(define-fun d{i} () Int {_ite_chain(entries[:-1], entries[-1][1])})")
            else:
                add(f"(define-fun d{i} () Int {m.single_qubit_duration})")
            bboxes[i] = [(f"qx{q}", f"qx{q}", f"qy{q}", f"qy{q}")]
            if is_static:
                add(f"(assert (< (+ t{i} d{i}) {m.static_coherence_bound}))")
            else:
                add(f"(assert (<= (+ t{i} d{i}) {t2_bound(f'cq{q}')}))")

    for g1, g2 in sorted(build_dag(c).edges):
        add(f"(assert (>= t{g2} (+ t{g1} d{g1})))")

    n = len(c.gates)
    for i in range(n):
        for j in range(i + 1, n):
            tests = []
            for lx1, rx1, ly1, ry1 in bboxes[i]:
                for lx2, rx2, ly2, ry2 in bboxes[j]:
                    tests.append(f"(and (<= {lx1} {rx2}) (<= {lx2} {rx1}) "
                                 f"(<= {ly1} {ry2}) (<= {ly2} {ry1}))")
            ov = tests[0] if len(tests) == 1 else "(or " + " ".join(tests) + ")"
            add(f"(assert (=> {ov} (or (<= (+ t{i} d{i}) t{j}) (<= (+ t{j} d{j}) t{i}))))")

    if reliability:
        ro_terms, cx_terms = [], []
        for g in c.gates:
            i = g.id
            if g.kind is GateKind.MEASURE:
                q = g.operands[0]
                vals = {cl: math.log(float(tables.readout_rel[cl])) for cl in cells}
                if len(set(vals.values())) == 1:
                    add(f"(define-fun lnro{i} () Real {_smt_real(vals[0])})")
                else:
                    entries = [(f"(= cq{q} {cl})", _smt_real(vals[cl])) for cl in cells]
                    add(f"(define-fun lnro{i} () Real "
                        f"{_ite_chain(entries[:-1], entries[-1][1])})")
                ro_terms.append(f"lnro{i}")
            elif g.kind is GateKind.CNOT:
                qa, qb = g.operands
                lnec = junction_switch(i, qa, qb, lambda k: _smt_real(math.log(ec[k])))
                add(f"(define-fun lnec{i} () Real {lnec})")
                cx_terms.append(f"lnec{i}")
        sum_ro = "0.0" if not ro_terms else ro_terms[0] if len(ro_terms) == 1 \
            else "(+ " + " ".join(ro_terms) + ")"
        sum_cx = "0.0" if not cx_terms else cx_terms[0] if len(cx_terms) == 1 \
            else "(+ " + " ".join(cx_terms) + ")"
        add(f"(define-fun obj () Real (+ (* {_smt_real(cfg.omega)} {sum_ro}) "
            f"(* {_smt_real(1.0 - cfg.omega)} {sum_cx})))")
        add("(maximize obj)")
    else:
        add("(declare-const makespan Int)")
        if n == 0:
            add("(assert (= makespan 0))")
        else:
            add("(assert (>= makespan 0))")
            for g in c.gates:
                add(f"(assert (>= makespan (+ t{g.id} d{g.id})))")
        add("(minimize makespan)")

    add("(check-sat)")
    add("(get-objectives)")
    add("; inspect the winning assignment with (get-model)")
    return "\n".join(L) + "\n"
