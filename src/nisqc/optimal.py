"""Exact mapping: branch-and-bound search over placements and junction
assignments, scored by the canonical list scheduler."""

from __future__ import annotations

import itertools
import math
import struct
import time

from .circuit import Circuit, GateKind, build_program_graph
from .heuristic import greedy_edge_map
from .machine import (
    DerivedTables,
    GridMachine,
    canonical_junction,
    cnot_walk,
    manhattan,
    static_cnot_duration,
)
from .schedule import (
    Infeasible,
    ProblemConfig,
    Routing,
    Solution,
    Variant,
    schedule_gates,
    solution_from_assignment,
    walk_cost,
    weighted_log_sum,
)


class SolverTimeout(Exception):
    """Time limit expired before any feasible solution was found."""


class _SearchTimeout(Exception):
    pass


def _cnot_floor(m: GridMachine, tables: DerivedTables, static: bool) -> list[list[int]]:
    """Per (a, b) cell pair, the fewest timeslots the CNOT a -> b takes over
    its legal junctions: the static formula, which every junction's walk
    takes, under the static model, and delta otherwise; 0 when a == b. Both
    are symmetric, so row a holds the floors of the CNOTs out of a and into a."""
    if not static:
        return tables.delta
    pos = [m.pos(a) for a in range(m.num_cells)]
    by_distance = [0] + [static_cnot_duration(d, m) for d in range(1, m.mx + m.my - 1)]
    return [[by_distance[manhattan(pa, pb)] for pb in pos] for pa in pos]


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


class Scorer:
    """Shared leaf evaluator and the one description of an exact instance: the
    exact solver and the brute-force enumerator score every (placement,
    junctions) assignment through it and read its cnot_ops, maximize and static.
    It raises ValueError for a config that is not a ProblemConfig and for more
    program qubits than cells. A CNOT is priced by walk_cost of its junction's
    cnot_walk, once per (cells, junction), and its reliability is read from the
    tables, which hold price_walk's. Its objective is weighted_log_sum of these
    ln reliabilities, so it is bitwise the value that build_solution and
    check_solution compute from the walks."""

    def __init__(self, c: Circuit, m: GridMachine, tables: DerivedTables, cfg: ProblemConfig):
        if not isinstance(cfg, ProblemConfig):
            raise ValueError(f"the exact layer takes a ProblemConfig, not {type(cfg).__name__}")
        if c.num_qubits > m.num_cells:
            raise ValueError(f"{c.num_qubits} program qubits exceed {m.num_cells} hardware cells")
        self.c, self.m, self.tables, self.cfg = c, m, tables, cfg
        self.ec = tables.cnot_rel_return if cfg.count_return_swaps else tables.cnot_rel
        self.static = cfg.variant is Variant.T_SMT
        self.maximize = cfg.variant is Variant.R_SMT_STAR
        self.one_bend = cfg.routing is Routing.ONE_BEND
        self._cost: dict[tuple[int, int, int], tuple[int, tuple[int, ...]]] = {}
        self.cnot_ops = [g.operands for g in c.gates if g.kind is GateKind.CNOT]
        self.measured = [g.operands[0] for g in c.gates if g.kind is GateKind.MEASURE]
        self.ln_ro = [math.log(1.0 - q.readout_error) for q in m.qubits]
        self.ro_dur = [q.readout_duration for q in m.qubits]

    def cnot_cost(self, a: int, b: int, j: int) -> tuple[int, tuple[int, ...]]:
        """(duration, reserved cells) of the CNOT a -> b's walk through the
        legal junction j, by walk_cost."""
        key = (a, b, j)
        cost = self._cost.get(key)
        if cost is None:
            cost = self._cost[key] = walk_cost(self.m, cnot_walk(self.m, a, b, j),
                                                self.cfg.routing, self.static)[:2]
        return cost

    def junction_choices(self, a: int, b: int) -> tuple[int, ...]:
        # Rectangle reservation does not search junctions; expansion later
        # walks the canonical one.
        return self.tables.junctions[(a, b)] if self.one_bend \
            else (canonical_junction(self.tables, a, b),)

    def schedule_arrays(self, cells, junctions):
        """Starts and durations for one assignment; raises Infeasible."""
        cost = self.cnot_cost
        return schedule_gates(self.c, self.m, cells,
                               [cost(cells[qa], cells[qb], j)
                                for (qa, qb), j in zip(self.cnot_ops, junctions)], self.static)

    def log_objective(self, cells, junctions) -> float:
        """The reliability objective of one assignment."""
        ec, log = self.ec, math.log
        return weighted_log_sum(
            self.cfg.omega, [self.ln_ro[cells[q]] for q in self.measured],
            [log(ec[cells[qa], cells[qb], j]) for (qa, qb), j in zip(self.cnot_ops, junctions)])

    def leaf(self, cells, junctions):
        """(objective, makespan) for one assignment; raises Infeasible."""
        starts, durs = self.schedule_arrays(cells, junctions)
        makespan = max((s + d for s, d in zip(starts, durs)), default=0)
        if self.maximize:
            return self.log_objective(cells, junctions), makespan
        return float(makespan), makespan


def solve_exact(c: Circuit, m: GridMachine, cfg: ProblemConfig, *,
                tables: DerivedTables) -> Solution:
    """Branch-and-bound over injective placements and junction assignments.

    Placements extend qubit by qubit in descending program-graph degree order
    (then qubit id), each over the free cells in ascending order; junction
    combos follow itertools.product. Complete assignments are scored by the
    canonical scheduler. Reliability pruning bounds unplaced readouts/CNOTs
    by the machine-wide best entries; duration pruning uses a critical-path
    bound with placed CNOTs at their pair's fastest junction and unplaced
    ones at the fastest edge. Its durations are kept in place, only the new
    qubit's change from child to child, and one solve prices each duration
    vector once: node and combo bounds whose durations agree, anywhere in the
    search, share one critical path. A leaf replaces the incumbent only when it is
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
    junction combo, at the same points whatever bounds are shared, so a time
    limit holds to within one leaf evaluation.
    """
    scorer = Scorer(c, m, tables, cfg)
    nq, ncells = c.num_qubits, m.num_cells
    pg = build_program_graph(c)
    order = sorted(range(nq), key=lambda q: (-pg.vertex_degree.get(q, 0), q))
    maximize, omega = scorer.maximize, cfg.omega

    n_meas = [0] * nq
    for q in scorer.measured:
        n_meas[q] += 1
    cnot_ops = scorer.cnot_ops
    incident: list[list[int]] = [[] for _ in range(nq)]
    for ci, (qa, qb) in enumerate(cnot_ops):
        incident[qa].append(ci)
        incident[qb].append(ci)

    best_ln_ro = max(scorer.ln_ro) if scorer.measured else 0.0
    best_ln_cx = math.log(max((f[0] for f in m.price_factors.values()), default=1.0))
    min_edge_dur = min((f[3] for f in m.price_factors.values()), default=m.static_tau_cnot)
    ln_ro, ro_dur = scorer.ln_ro, scorer.ro_dur
    min_ro_dur = min(ro_dur)
    opt_cx_dur = m.static_tau_cnot if scorer.static else min_edge_dur
    # pair_ln[ctl][other][cell]: the best ln reliability over the legal
    # junctions of the CNOT between two cells, cell its control when ctl and
    # its target otherwise; rows and entries are filled as the search asks.
    pair_ln: tuple[list, list] = ([None] * ncells, [None] * ncells)

    def best_pair_ln(a: int, b: int) -> float:
        return max(math.log(scorer.ec[a, b, j]) for j in tables.junctions[(a, b)])

    cell_of = [-1] * nq
    used = [False] * ncells
    incumbent: list = [None]  # [(objective, (cells, junctions))]
    deadline = time.monotonic() + cfg.time_limit if cfg.time_limit is not None else None

    def check_time():
        if deadline is not None and time.monotonic() > deadline:
            raise _SearchTimeout()

    cx_floor = _cnot_floor(m, tables, scorer.static)
    rows, const_path = _folded_rows(c, c.dag[0], m.single_qubit_duration)
    # The critical path of every duration vector the search has priced. Grid
    # translations of a partial placement, in different subtrees, give the
    # same vector. A key packs the vector in the narrowest code that holds
    # every duration a bound can take: a floor, any walk's or any readout's.
    path_memo: dict[bytes, int] = {}
    top = max(opt_cx_dur, max(ro_dur), max(map(max, cx_floor)),
              max(tables.cnot_dur.values(), default=0))
    code = "B" if top < 1 << 8 else "H" if top < 1 << 16 else "q"
    pack = struct.Struct(f"{len(cnot_ops) + nq}{code}").pack

    def critical_path(cx_durs, ro_durs) -> int:
        key = pack(*cx_durs, *ro_durs)
        b = path_memo.get(key)
        if b is None:
            b = path_memo[key] = _critical_path(rows, const_path, cx_durs, ro_durs)
        return b

    # The node bound's durations, kept in place as qubits are placed and
    # unplaced: placed CNOTs at their pair's floor, unplaced ones at the
    # fastest edge; unplaced readouts at the fastest cell's.
    cx_durs = [opt_cx_dur] * len(cnot_ops)
    ro_durs = [min_ro_dur] * nq

    # The seed: the greedy-e placement with each CNOT at its best legal
    # junction, the most reliable under r-smt-star and the fastest otherwise.
    loc = greedy_edge_map(pg, m, tables).loc
    seed_cells = tuple(m.cell_id(loc[q]) for q in range(nq))

    def best_junction(a: int, b: int) -> int:
        # max and min keep the first of tied junctions
        js = scorer.junction_choices(a, b)
        if maximize:
            return max(js, key=lambda j: math.log(scorer.ec[a, b, j]))
        return min(js, key=lambda j: scorer.cnot_cost(a, b, j)[0])

    seed_combo = tuple(best_junction(seed_cells[qa], seed_cells[qb]) for qa, qb in cnot_ops)
    try:
        seed = (scorer.leaf(seed_cells, seed_combo)[0], (seed_cells, seed_combo))
    except Infeasible:
        seed = None

    def beats(obj) -> bool:
        inc = incumbent[0]
        if inc is None:
            # Before the first incumbent, matching the seed is enough.
            return seed is None or (obj >= seed[0] if maximize else obj <= seed[0])
        return obj > inc[0] if maximize else obj < inc[0]

    def do_leaf():
        cells = tuple(cell_of)
        pairs = [(cells[qa], cells[qb]) for qa, qb in cnot_ops]
        cand = [scorer.junction_choices(a, b) for a, b in pairs]
        if not maximize:
            ro_durs = [ro_dur[cell] for cell in cells]
        for combo in itertools.product(*cand):
            check_time()
            # Schedule only a combo whose bound beats the incumbent: the
            # objective itself under r-smt-star, which needs no schedule, and
            # the critical path at the combo's own durations, which no
            # makespan is below, under the duration variants.
            if maximize:
                bound = scorer.log_objective(cells, combo)
            else:
                bound = critical_path([scorer.cnot_cost(a, b, j)[0]
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
            except Infeasible:
                continue
            if beats(obj):
                incumbent[0] = (obj, (cells, combo))

    def rec(k, sum_ro, n_ro_open, sum_cx, n_cx_open):
        check_time()
        if k == nq:
            do_leaf()
            return
        q = order[k]
        # q's CNOTs whose other end is placed: only their terms depend on q's
        # cell, each read from the other end's row by q's cell.
        placed = []
        for ci in incident[q]:
            qa, qb = cnot_ops[ci]
            q_ctl = qa == q
            other = cell_of[qb] if q_ctl else cell_of[qa]
            if other >= 0:
                if maximize:
                    row = pair_ln[q_ctl][other]
                    if row is None:
                        row = pair_ln[q_ctl][other] = [None] * ncells
                    placed.append((row, other, q_ctl))
                else:
                    placed.append((ci, cx_floor[other]))
        # A child takes its cell in cell_of and used only while it is searched.
        if maximize:
            nm = n_meas[q]
            r_open, c_open = n_ro_open - nm, n_cx_open - len(placed)
            ref = incumbent[0] or seed
            for cell in range(ncells):
                if used[cell]:
                    continue
                s_ro = sum_ro + nm * ln_ro[cell]
                s_cx = sum_cx
                for row, other, q_ctl in placed:
                    v = row[cell]
                    if v is None:
                        v = row[cell] = best_pair_ln(cell, other) if q_ctl \
                            else best_pair_ln(other, cell)
                    s_cx += v
                bound = omega * (s_ro + r_open * best_ln_ro) \
                    + (1.0 - omega) * (s_cx + c_open * best_ln_cx)
                if ref is None or bound >= ref[0] - 1e-9:
                    cell_of[q], used[cell] = cell, True
                    rec(k + 1, s_ro, r_open, s_cx, c_open)
                    used[cell] = False
                    ref = incumbent[0] or seed
        else:
            for cell in range(ncells):
                if used[cell]:
                    continue
                ro_durs[q] = ro_dur[cell]
                for ci, row in placed:
                    cx_durs[ci] = row[cell]
                if beats(critical_path(cx_durs, ro_durs)):
                    cell_of[q], used[cell] = cell, True
                    rec(k + 1, sum_ro, n_ro_open, sum_cx, n_cx_open)
                    used[cell] = False
            for ci, _ in placed:
                cx_durs[ci] = opt_cx_dur
            ro_durs[q] = min_ro_dur
        cell_of[q] = -1

    timed_out = False
    try:
        rec(0, 0.0, len(scorer.measured), 0.0, len(cnot_ops))
    except _SearchTimeout:
        timed_out = True
    inc = incumbent[0] or seed
    if inc is None:
        if timed_out:
            raise SolverTimeout(f"no feasible solution within {cfg.time_limit} s")
        raise Infeasible("every placement violates a coherence deadline")
    return solution_from_assignment(c, m, cfg, *inc[1], tables=tables, optimal=not timed_out)
