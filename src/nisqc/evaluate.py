"""Verification oracles: equivalence checking by per-wire normal forms, Monte
Carlo success estimation, the brute-force optimality enumerator, the solution
checker, and report emission."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from collections import defaultdict
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, GateKind
from .codegen import CompiledCircuit
from .heuristic import HeuristicConfig
from .machine import DerivedTables, GridMachine, route_cells
from .optimal import Scorer
from .schedule import (
    Infeasible,
    ProblemConfig,
    Routing,
    Solution,
    Variant,
    clashes,
    walk_cost,
    weighted_log_sum,
)


class EquivalenceResult(NamedTuple):
    passed: bool
    max_deviation: float
    total_variation: float


def _wire_sequences(ops: list[tuple[GateKind, tuple[int, ...], int | None]],
                    label: dict[int, int]) -> dict:
    """The normal form of ops, gates run in order on cells that label maps
    to logical qubits: each wire's sequence of (kind, qubits, clbit), where
    a wire is a qubit or ("c", clbit). When cx u,v; cx v,u; cx u,v are the
    next three gates on both u and v they are a SWAP: the two cells trade
    labels and nothing is emitted. A cell no qubit occupies is labelled
    None, so any other gate on it puts None among its qubits."""
    after: dict[tuple[int, int], int] = {}   # (op, cell) -> the next op on that cell
    last: dict[int, int] = {}
    for i, (_, operands, _) in enumerate(ops):
        for x in operands:
            if x in last:
                after[last[x], x] = i
            last[x] = i
    label, wires, swapped, nxt = dict(label), {}, set(), after.get
    for i, (kind, operands, clbit) in enumerate(ops):
        if i in swapped:
            continue
        if kind is GateKind.CNOT:
            u, v = operands
            j = nxt((i, u))
            if j is not None and nxt((i, v)) == j and ops[j][1] == (v, u):
                k = nxt((j, u))
                if k is not None and nxt((j, v)) == k and ops[k][1] == operands:
                    label[u], label[v] = label.get(v), label.get(u)
                    swapped.update((j, k))
                    continue
            qubits = label.get(u), label.get(v)
        else:
            qubits = (label.get(operands[0]),)
        gate = (kind, qubits, clbit)
        for q in qubits:
            wires.setdefault(q, []).append(gate)
        if clbit is not None:
            wires.setdefault(("c", clbit), []).append(gate)
    return wires


def _normal_forms_agree(source: Circuit, cc: CompiledCircuit) -> bool:
    """Whether the stream, in time order on cells labelled by the qubits
    placed on them, and the source, on the identity placement, have the same
    normal form. The source leaves no cell empty, so a stream gate on an
    empty cell never matches; a register of another width is another
    distribution's support."""
    stream = sorted(cc.expanded, key=itemgetter(2))   # by start, then stream index
    want = _wire_sequences([(kind, ops, clbit) for _, kind, ops, clbit in source.gates],
                           {q: q for q in range(source.num_qubits)})
    got = _wire_sequences([(kind, ops, clbit) for kind, ops, _s, _d, clbit in stream],
                          {cell: q for q, cell in cc.cells.items()})
    return want == got and source.num_clbits == cc.source.num_clbits


def equivalence_check(source: Circuit, cc: CompiledCircuit) -> EquivalenceResult:
    """Whether the expanded stream computes the source, by normal forms, at
    any size and without simulating: each side is read as every wire's gate
    sequence on logical qubits, SWAP triples moving qubits between cells
    instead (_wire_sequences). Equal sequences give the same dependency DAG,
    hence the same distribution, and the result is
    EquivalenceResult(True, 0.0, 0.0). Otherwise it is
    EquivalenceResult(False, nan, nan): no distance is computed, so the
    deviation fields of a failure are nan.
    """
    if _normal_forms_agree(source, cc):
        return EquivalenceResult(True, 0.0, 0.0)
    return EquivalenceResult(False, math.nan, math.nan)


def reliability_score(cc: CompiledCircuit, count_return_swaps: bool = False) -> float:
    """Product of per-gate success probabilities over routed CNOTs and readouts."""
    eps = cc.eps_strict if count_return_swaps else cc.eps_route
    return math.prod((eps[gid] for gid in sorted(eps)), start=1.0)


def monte_carlo_success(cc: CompiledCircuit, trials: int, seed: int) -> tuple[float, float]:
    """Estimate end-to-end success probability by Bernoulli sampling: each
    routed CNOT (swaps included) and each readout is one event with its ε in
    cc.per_gate_eps, derived on the machine cc was built or read on. A trial
    succeeds when every event does, so the hit count is one draw from
    Binomial(trials, cc.reliability). Raises ValueError unless trials is an
    int of at least 1 (a bool is not).
    """
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be an int >= 1, not {trials!r}")
    if not cc.per_gate_eps:
        return 1.0, 0.0
    rng = np.random.Generator(np.random.Philox(key=seed))
    p = int(rng.binomial(trials, cc.reliability)) / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


@dataclass(frozen=True)
class LeafRecord:
    cells: tuple[int, ...]
    junctions: tuple[int, ...]
    objective: float
    makespan: int


@dataclass(frozen=True)
class BruteForceResult:
    objective_value: float
    argmax: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    leaves: tuple[LeafRecord, ...] | None = None


_LEAF_BUDGET = 2_000_000


def brute_force_optimal(c: Circuit, m: GridMachine, cfg: ProblemConfig, *,
                        tables: DerivedTables, collect_leaves: bool = False) -> BruteForceResult:
    """Exhaustive sweep of every injective placement x junction assignment,
    scored through the same leaf evaluator as solve_exact (objectives agree
    bitwise). argmax lists every assignment attaining the optimum. Raises
    ValueError for an instance of more than _LEAF_BUDGET leaves."""
    scorer = Scorer(c, m, tables, cfg)
    # every placement has a leaf; the leaves are counted until they pass the budget
    n_leaves = math.perm(m.num_cells, c.num_qubits)
    if n_leaves <= _LEAF_BUDGET:
        n_leaves = 0
        for cells in itertools.permutations(range(m.num_cells), c.num_qubits):
            n_leaves += math.prod(len(scorer.junction_choices(cells[qa], cells[qb]))
                                  for qa, qb in scorer.cnot_ops)
            if n_leaves > _LEAF_BUDGET:
                break
    if n_leaves > _LEAF_BUDGET:
        raise ValueError(f"instance too large: over the {_LEAF_BUDGET}-leaf enumeration budget")
    maximize = scorer.maximize
    best = None
    argmax: list = []
    leaves: list[LeafRecord] = []
    for cells in itertools.permutations(range(m.num_cells), c.num_qubits):
        choices = [scorer.junction_choices(cells[qa], cells[qb]) for qa, qb in scorer.cnot_ops]
        for combo in itertools.product(*choices):
            try:
                obj, makespan = scorer.leaf(cells, combo)
            except Infeasible:
                continue
            if collect_leaves:
                leaves.append(LeafRecord(cells, combo, obj, makespan))
            if best is None or (obj > best if maximize else obj < best):
                best = obj
                argmax = [(cells, combo)]
            elif obj == best:
                argmax.append((cells, combo))
    if best is None:
        raise Infeasible("every placement violates a coherence deadline")
    return BruteForceResult(best, tuple(argmax),
                            tuple(leaves) if collect_leaves else None)


def check_solution(sol: Solution, c: Circuit, m: GridMachine,
                   cfg: ProblemConfig | HeuristicConfig | None = None, *,
                   tables: DerivedTables) -> list[str]:
    """Independent re-verification of every constraint; returns violations (empty = valid).
    Under 1bp and rr routing a CNOT's walk must be the one-bend route of one
    of its cell pair's junctions, walked either way: which end moves, and
    which junction rr takes, are the solver's choices on the day it ran, and
    depend on that day's edge durations. Each CNOT's walk is priced once, by
    walk_cost, for its duration, its reserved cells and its reliability. The
    objective must equal, exactly, the makespan or weighted_log_sum of each
    walk's reliability and each measured cell's 1 - readout_error; it is not
    recomputed when a CNOT's walk is rejected. Without cfg, sol.config is read."""
    cfg = sol.config if cfg is None else cfg
    v: list[str] = []
    variant, routing = cfg.variant.value, cfg.routing.value
    flag, omega = cfg.count_return_swaps, cfg.omega
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

    cells = {q: m.cell_id(loc[q]) for q in loc}
    start, dur = sol.schedule.start, sol.schedule.dur
    missing = [g.id for g in c.gates if g.id not in start or g.id not in dur]
    if missing:
        return v + [f"gates {missing} unscheduled"]

    by_cell: dict[int, list[tuple[int, int, int]]] = defaultdict(list)   # reservations per cell
    ln_ro: list[float] = []
    ln_cx: list[float] = []
    is_static = variant == Variant.T_SMT.value

    qubits, cnot, measure = m.qubits, GateKind.CNOT, GateKind.MEASURE
    by_route = routing != Routing.BEST_PATH.value
    sq_dur, static_deadline = m.single_qubit_duration, m.static_coherence_bound - 1
    ones = [(cell,) for cell in range(m.num_cells)]   # a one-cell gate's region, per cell
    n_cnots = 0
    for gid, kind, operands, _clbit in c.gates:
        if kind is cnot:
            n_cnots += 1
            a, b = cells[operands[0]], cells[operands[1]]
            walk = tuple(sol.gate_routes.get(gid, ()))
            if len(walk) < 2 or (walk[0], walk[-1]) not in ((a, b), (b, a)):
                v.append(f"CNOT {gid} route does not join its endpoints")
                continue
            if by_route:
                route = walk if walk[0] == a else walk[::-1]
                if all(route != route_cells(m, a, b, j) for j in tables.junctions[(a, b)]):
                    v.append(f"CNOT {gid} route is not the walk of a junction "
                             f"legal under {routing} routing")
                    continue
            try:
                expect_dur, region, *eps = walk_cost(m, walk, routing, is_static)
            except ValueError as exc:
                v.append(f"CNOT {gid} route is not a grid walk: {exc}")
                continue
            if len(set(walk)) != len(walk):
                v.append(f"CNOT {gid} route visits a cell twice")
                continue
            ln_cx.append(math.log(eps[flag]))
            t2 = min(qubits[a].t2, qubits[b].t2)
        else:
            cell = cells[operands[0]]
            if kind is measure:
                expect_dur = qubits[cell].readout_duration
                ln_ro.append(math.log(1.0 - qubits[cell].readout_error))
            else:
                expect_dur = sq_dur
            region = ones[cell]
            t2 = qubits[cell].t2
        s, d = start[gid], dur[gid]
        if d != expect_dur:
            v.append(f"gate {gid} duration {d} != expected {expect_dur}")
        if s + d > (static_deadline if is_static else t2):
            v.append(f"gate {gid} breaks its coherence deadline")
        window = (s, s + d, gid)   # one tuple for all its cells, which are distinct
        for cell in region:
            by_cell[cell].append(window)

    late = [(g1, g2) for g2, ps in enumerate(c.dag[0]) for g1 in ps
            if start[g2] < start[g1] + dur[g1]]
    v += [f"dependency violated: gate {g2} starts before gate {g1} finishes"
          for g1, g2 in sorted(late)]

    overlaps = {(min(g1, g2), max(g1, g2)) for _cell, g1, g2 in clashes(by_cell)}
    v += [f"gates {g1} and {g2} overlap in space and time" for g1, g2 in sorted(overlaps)]

    if variant in (Variant.T_SMT.value, Variant.T_SMT_STAR.value):
        expect_obj = float(sol.schedule.makespan)
    elif len(ln_cx) == n_cnots:
        expect_obj = weighted_log_sum(omega, ln_ro, ln_cx)
    else:
        return v
    if sol.objective_value != expect_obj:
        v.append(f"objective {sol.objective_value} != recomputed {expect_obj}")
    return v


@dataclass(frozen=True)
class EvalReport:
    benchmark: str
    variant: str
    reliability: float
    mc_success: float
    stderr: float
    trials: int
    makespan: int
    swaps: int
    compile_time_s: float
    equivalence_passed: bool | None   # None only on a bench row that did not compile
    optimal: bool | None = None


_CSV_COLUMNS = ("benchmark", "variant", "reliability", "mc_success", "stderr",
                "makespan", "swaps", "compile_time_s")


def atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def report_paths(path: str) -> tuple[str, str]:
    """(csv_path, json_path) sharing path's stem: a .csv or .json suffix is dropped."""
    stem = os.path.splitext(path)[0] if path.endswith((".csv", ".json")) else path
    return stem + ".csv", stem + ".json"


def write_report(reports: list[EvalReport], path: str) -> tuple[str, str]:
    """Write the fixed-column CSV and a full JSON dump at report_paths(path); return them."""
    csv_path, json_path = report_paths(path)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_COLUMNS)
    for r in reports:
        writer.writerow([r.benchmark, r.variant, repr(r.reliability),
                         repr(r.mc_success), repr(r.stderr), r.makespan,
                         r.swaps, repr(r.compile_time_s)])
    atomic_write(csv_path, buf.getvalue())
    atomic_write(json_path, json.dumps([asdict(r) for r in reports], indent=2) + "\n")
    return csv_path, json_path
