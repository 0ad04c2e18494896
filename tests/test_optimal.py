"""Exact solver tests: every optimum is cross-checked against a test-local
permutation enumerator with its own quadratic scheduler."""

import copy
import dataclasses
import hashlib
import heapq
import itertools
import math
import random
import re
from bisect import insort

import pytest

from nisqc.circuit import (
    GateKind,
    build_circuit,
    build_program_graph,
    gen_bv,
    gen_random,
    gen_toffoli,
    predecessor_lists,
)
from nisqc.codegen import CodegenError, expand, from_record, to_record
from nisqc.machine import (
    build_tables,
    canonical_junction,
    cnot_walk,
    load_calibration,
    manhattan,
    route_cells,
    static_cnot_duration,
    synth_calibration,
)
from nisqc import optimal
from nisqc import schedule as schedule_module
from nisqc.evaluate import brute_force_optimal, check_solution, equivalence_check
from nisqc.heuristic import (
    GreedyPolicy,
    HeuristicConfig,
    compile_with_placement,
    greedy_edge_map,
    heuristic_compile,
)
from nisqc.optimal import SolverTimeout, solve_exact
from nisqc.schedule import (
    Infeasible,
    Placement,
    ProblemConfig,
    Routing,
    Schedule,
    Variant,
    solution_from_assignment,
)
from nisqc.smtlib import emit_smtlib

from search_order import first_in_search_order, placement_cells


def udoc(mx, my, **over):
    d = {
        "t2": 1000, "readout_error": 0.07, "readout_duration": 12,
        "cnot_error": 0.1, "cnot_duration": 2, "single_qubit_duration": 1,
        "single_qubit_error": 0.001, "static_tau_cnot": 2,
        "static_coherence_bound": 1000,
    }
    d.update(over)
    return {"grid": {"mx": mx, "my": my}, "defaults": d}


def slow_corner_machine():
    """2x2 grid whose (0,0)-(0,1) edge is slow: the CNOT (0,0) -> (1,1) walks
    in 21 timeslots through junction (0,1) and in 14 through (1,0)."""
    doc = udoc(2, 2)
    doc["edges"] = [{"a": [0, 0], "b": [0, 1], "cnot_duration": 9}]
    return load_calibration(doc)


# ---------------------------------------------------------------- oracle ---

def naive_starts(c, m, cfg, tables, cells, junctions):
    """Independent scheduler: recompute the commit policy round by round."""
    static = cfg.variant is Variant.T_SMT
    durs, regions, deadline = {}, {}, {}
    ji = 0
    for g in c.gates:
        if g.kind is GateKind.CNOT:
            a, b = cells[g.operands[0]], cells[g.operands[1]]
            route = route_cells(m, a, b, junctions[ji])
            if static:
                durs[g.id] = static_cnot_duration(manhattan(m.pos(a), m.pos(b)), m)
            else:
                hops = [m.edge_between(u, v).cnot_duration for u, v in zip(route, route[1:])]
                durs[g.id] = 6 * sum(hops) - 5 * max(hops[0], hops[-1])
            if cfg.routing is Routing.ONE_BEND:
                regions[g.id] = set(route)
            else:
                (ax, ay), (bx, by) = m.pos(a), m.pos(b)
                regions[g.id] = {m.cell_id((x, y))
                                 for x in range(min(ax, bx), max(ax, bx) + 1)
                                 for y in range(min(ay, by), max(ay, by) + 1)}
            ji += 1
            deadline[g.id] = m.static_coherence_bound - 1 if static \
                else min(m.qubits[a].t2, m.qubits[b].t2)
        else:
            cell = cells[g.operands[0]]
            durs[g.id] = m.qubits[cell].readout_duration if g.kind is GateKind.MEASURE \
                else m.single_qubit_duration
            regions[g.id] = {cell}
            deadline[g.id] = m.static_coherence_bound - 1 if static else m.qubits[cell].t2
    preds = {g.id: set(ps) for g, ps in zip(c.gates, predecessor_lists(c))}
    starts = {}
    while len(starts) < len(c.gates):
        best = None
        for g in c.gates:
            if g.id in starts or not preds[g.id] <= set(starts):
                continue
            s = max((starts[p] + durs[p] for p in preds[g.id]), default=0)
            moved = True
            while moved:
                moved = False
                for h, sh in starts.items():
                    if regions[h] & regions[g.id] and sh < s + durs[g.id] \
                            and s < sh + durs[h]:
                        s = sh + durs[h]
                        moved = True
            if s + durs[g.id] > deadline[g.id]:
                return None
            if best is None or (s, g.id) < best:
                best = (s, g.id)
        starts[best[1]] = best[0]
    return starts, durs


def oracle_best(c, m, cfg):
    """Exhaustive (placement, junctions) sweep with the naive scheduler: the
    optimum and, among the assignments that reach it, the first in the exact
    solver's search order."""
    tables = build_tables(m)
    ec = tables.cnot_rel_return if cfg.count_return_swaps else tables.cnot_rel
    maximize = cfg.variant is Variant.R_SMT_STAR
    cnots = [g for g in c.gates if g.kind is GateKind.CNOT]
    best, ties = None, []
    for cells in itertools.permutations(range(m.num_cells), c.num_qubits):
        choices = []
        for g in cnots:
            a, b = cells[g.operands[0]], cells[g.operands[1]]
            choices.append(tables.junctions[(a, b)] if cfg.routing is Routing.ONE_BEND
                           else (canonical_junction(tables, a, b),))
        for combo in itertools.product(*choices):
            got = naive_starts(c, m, cfg, tables, cells, combo)
            if got is None:
                continue
            starts, durs = got
            if maximize:
                sum_ro = sum(math.log(float(tables.readout_rel[cells[g.operands[0]]]))
                             for g in c.gates if g.kind is GateKind.MEASURE)
                sum_cx = 0.0
                for ji, g in enumerate(cnots):
                    a, b = cells[g.operands[0]], cells[g.operands[1]]
                    sum_cx += math.log(ec[(a, b, combo[ji])])
                obj = cfg.omega * sum_ro + (1.0 - cfg.omega) * sum_cx
            else:
                obj = float(max((starts[g] + durs[g] for g in starts), default=0))
            if best is None or (obj > best if maximize else obj < best):
                best, ties = obj, [(cells, combo)]
            elif obj == best:
                ties.append((cells, combo))
    return best, first_in_search_order(c, ties)


def with_readouts(c, qubits):
    """c followed by a readout of each of qubits into its own clbit."""
    ops = [(g.kind, g.operands) for g in c.gates]
    ops += [(GateKind.MEASURE, (q,), q) for q in qubits]
    return build_circuit(c.num_qubits, c.num_qubits, ops)


def solution_key(sol, c, m):
    """A solution's (cells, junctions) key, each junction read back from its
    CNOT's walk: a walk is the cnot_walk of exactly one legal junction."""
    t = build_tables(m)
    cells = placement_cells(sol, m)
    junctions = []
    for g in c.cnot_gates():
        a, b = cells[g.operands[0]], cells[g.operands[1]]
        junctions += [j for j in t.junctions[(a, b)]
                      if cnot_walk(m, a, b, j) == sol.gate_routes[g.id]]
    return cells, tuple(junctions)


# ----------------------------------------------------------------- tests ---

class TestProblemConfig:
    def test_routing_defaults(self):
        assert ProblemConfig(Variant.T_SMT).routing is Routing.RR
        assert ProblemConfig(Variant.T_SMT_STAR).routing is Routing.RR
        assert ProblemConfig(Variant.R_SMT_STAR).routing is Routing.ONE_BEND

    def test_accepts_string_values(self):
        cfg = ProblemConfig("t-smt-star", "1bp")
        assert cfg.variant is Variant.T_SMT_STAR and cfg.routing is Routing.ONE_BEND

    def test_reliability_requires_one_bend(self):
        with pytest.raises(ValueError):
            ProblemConfig(Variant.R_SMT_STAR, Routing.RR)

    def test_best_path_reserved_for_heuristics(self):
        with pytest.raises(ValueError):
            ProblemConfig(Variant.T_SMT, Routing.BEST_PATH)

    def test_omega_range(self):
        with pytest.raises(ValueError):
            ProblemConfig(Variant.R_SMT_STAR, omega=1.5)


ONE_CX = build_circuit(2, 0, [("cx", (0, 1))])


def one_cnot(m, t, cfg, a, b, j=None):
    """The checked Solution of ONE_CX from cell a to cell b, routed through
    junction j (the canonical junction when None)."""
    j = canonical_junction(t, a, b) if j is None else j
    sol = solution_from_assignment(ONE_CX, m, cfg, (a, b), (j,), tables=t)
    assert check_solution(sol, ONE_CX, m, cfg, tables=t) == []
    return sol


def canonical_junctions(c, t, cells):
    """Each CNOT's canonical junction, in CNOT order."""
    return tuple(canonical_junction(t, cells[g.operands[0]], cells[g.operands[1]])
                 for g in c.gates if g.kind is GateKind.CNOT)


class TestGateDuration:
    def test_adjacent_cnot_any_variant(self):
        m = load_calibration(udoc(2, 2))
        t = build_tables(m)
        for v in Variant:
            assert one_cnot(m, t, ProblemConfig(v), 0, 1).schedule.dur[0] == 2

    def test_static_distance_four(self):
        m = load_calibration(udoc(1, 5))
        t = build_tables(m)
        assert one_cnot(m, t, ProblemConfig(Variant.T_SMT), 0, 4).schedule.dur[0] == 38

    def test_star_uses_delta(self):
        m = load_calibration(udoc(1, 5))
        t = build_tables(m)
        got = one_cnot(m, t, ProblemConfig(Variant.T_SMT_STAR), 0, 4).schedule.dur[0]
        assert got == int(t.delta[0, 4])

    def test_one_bend_uses_the_junction(self):
        m = slow_corner_machine()
        t = build_tables(m)
        cfg = ProblemConfig(Variant.T_SMT_STAR, Routing.ONE_BEND)
        slow = m.cell_id((0, 1))
        assert one_cnot(m, t, cfg, 0, 3, slow).schedule.dur[0] == 21
        assert one_cnot(m, t, cfg, 0, 3).schedule.dur[0] == int(t.delta[0, 3]) == 14

    def test_measure_and_single(self):
        m = load_calibration(udoc(2, 2))
        t = build_tables(m)
        c = build_circuit(1, 1, [("h", (0,)), ("measure", (0,), 0)])
        cfg = ProblemConfig(Variant.T_SMT)
        sol = solution_from_assignment(c, m, cfg, (3,), (), tables=t)
        assert sol.schedule.dur == {0: 1, 1: 12}
        assert check_solution(sol, c, m, cfg, tables=t) == []

    def test_same_cell_rejected(self):
        m = load_calibration(udoc(2, 2))
        t = build_tables(m)
        c = build_circuit(2, 0, [("cx", (0, 1))])
        with pytest.raises(ValueError, match="not legal"):
            solution_from_assignment(c, m, ProblemConfig(Variant.T_SMT), (0, 0), (0,), tables=t)


class TestGateReliability:
    # Per-gate reliabilities are read from the walks, by expand.
    def test_values(self):
        m = load_calibration(udoc(2, 2))
        t = build_tables(m)
        c = build_circuit(2, 1, [("h", (0,)), ("cx", (0, 1)), ("measure", (1,), 0)])
        cfg = ProblemConfig(Variant.R_SMT_STAR)
        sol = solution_from_assignment(c, m, cfg, (0, 3), (1,), tables=t)
        assert check_solution(sol, c, m, cfg, tables=t) == []
        eps = expand(sol, c, m).eps_route
        assert sorted(eps) == [1, 2]   # a single-qubit gate scores 1
        assert abs(eps[1] - 0.6561) < 1e-12
        assert abs(eps[2] - 0.93) < 1e-12

    def test_both_junctions_same_uniform_value(self):
        m = load_calibration(udoc(2, 2))
        t = build_tables(m)
        cfg = ProblemConfig(Variant.R_SMT_STAR)
        for j in (1, 2):
            eps = expand(one_cnot(m, t, cfg, 0, 3, j), ONE_CX, m).eps_route
            assert abs(eps[0] - 0.6561) < 1e-12

    def test_adjacent(self):
        m = load_calibration(udoc(2, 2))
        t = build_tables(m)
        sol = one_cnot(m, t, ProblemConfig(Variant.R_SMT_STAR), 0, 1, 0)
        assert abs(expand(sol, ONE_CX, m).eps_route[0] - 0.9) < 1e-12

    def test_illegal_junction(self):
        m = load_calibration(udoc(2, 2))
        t = build_tables(m)
        c = build_circuit(2, 0, [("cx", (0, 1))])
        with pytest.raises(ValueError, match="not legal"):
            solution_from_assignment(c, m, ProblemConfig(Variant.R_SMT_STAR), (0, 1), (3,),
                                     tables=t)


def three_cnot_four_readout():
    ops = [("cx", (0, 3)), ("cx", (1, 3)), ("cx", (2, 3))]
    ops += [("measure", (q,), q) for q in range(4)]
    return build_circuit(4, 4, ops)


class TestObjective:
    def test_weighted_log_value(self):
        # 3 CNOTs at 0.9 and 4 readouts at 0.93 with omega 0.5
        m = load_calibration(udoc(3, 3))
        cfg = ProblemConfig(Variant.R_SMT_STAR)
        c = three_cnot_four_readout()
        sol = solve_exact(c, m, cfg)
        want = 0.5 * 4 * math.log(0.93) + 0.5 * 3 * math.log(0.9)
        assert abs(want - -0.30318215915641026) < 1e-14
        assert abs(sol.objective_value - want) < 1e-12
        # the verifier's sum of the walks' reliabilities is bitwise the solver's
        assert check_solution(sol, c, m, cfg) == []

    def test_omega_one_ignores_cnots(self):
        m = load_calibration(udoc(3, 3))
        cfg = ProblemConfig(Variant.R_SMT_STAR, omega=1.0)
        sol = solve_exact(three_cnot_four_readout(), m, cfg)
        assert abs(sol.objective_value - 4 * math.log(0.93)) < 1e-12

    def test_does_not_depend_on_gate_order(self):
        # The same placement and walks with the readouts listed in another
        # order: each sum is exactly rounded, so the objective is bitwise
        # equal. Sums taken term by term in gate order differ by ulps on
        # seeds 5, 6, 8 and 10.
        base = gen_random(7, 16, 3)
        c1 = with_readouts(base, range(7))
        c2 = with_readouts(base, (3, 6, 0, 5, 1, 4, 2))
        cells = (4, 0, 8, 2, 6, 1, 3)
        cfg = ProblemConfig(Variant.R_SMT_STAR)
        for seed in range(12):
            m = load_calibration(synth_calibration(3, 3, seed))
            t = build_tables(m)
            junctions = canonical_junctions(c1, t, cells)
            s1, s2 = (solution_from_assignment(c, m, cfg, cells, junctions, tables=t)
                      for c in (c1, c2))
            assert s1.gate_routes == s2.gate_routes
            assert s1.objective_value == s2.objective_value, seed
            assert check_solution(s2, c2, m, cfg, tables=t) == []

    def test_single_gate_duration(self):
        m = load_calibration(udoc(1, 2))
        cfg = ProblemConfig(Variant.T_SMT)
        c = build_circuit(1, 0, [("h", (0,))])
        sol = solve_exact(c, m, cfg)
        assert sol.objective_value == 1.0 == float(sol.makespan)
        assert check_solution(sol, c, m, cfg) == []


class TestCanonicalSchedule:
    def test_dependent_chain(self):
        m = load_calibration(udoc(1, 2, readout_duration=3))
        t = build_tables(m)
        c = build_circuit(2, 1, [("cx", (0, 1)), ("measure", (1,), 0)])
        cfg = ProblemConfig(Variant.T_SMT_STAR)
        sol = solution_from_assignment(c, m, cfg, (0, 1), canonical_junctions(c, t, (0, 1)),
                                       tables=t)
        s = sol.schedule
        assert s.start == {0: 0, 1: 2} and s.dur == {0: 2, 1: 3}
        assert s.makespan == 5
        assert check_solution(sol, c, m, cfg, tables=t) == []

    def test_disjoint_rectangles_parallel(self):
        m = load_calibration(udoc(2, 2))
        t = build_tables(m)
        c = build_circuit(4, 0, [("cx", (0, 1)), ("cx", (2, 3))])
        cfg = ProblemConfig(Variant.T_SMT)
        cells = (0, 1, 2, 3)
        sol = solution_from_assignment(c, m, cfg, cells, canonical_junctions(c, t, cells),
                                       tables=t)
        assert sol.schedule.start == {0: 0, 1: 0}
        assert check_solution(sol, c, m, cfg, tables=t) == []

    def test_overlapping_rectangles_serialize(self):
        # both CNOTs span column x=1 of a 3x3 grid, so RR forces one after the other
        m = load_calibration(udoc(3, 3))
        t = build_tables(m)
        c = build_circuit(4, 0, [("cx", (0, 1)), ("cx", (2, 3))])
        cells = (0, 2, 1, 7)   # (0,0), (0,2), (0,1), (2,1)
        cfg = ProblemConfig(Variant.T_SMT)
        sol = solution_from_assignment(c, m, cfg, cells, canonical_junctions(c, t, cells),
                                       tables=t)
        s = sol.schedule
        d = static_cnot_duration(2, m)
        assert s.dur == {0: d, 1: d}
        assert s.start == {0: 0, 1: d}
        # any schedule with both starts inside [0, d) would overlap in time and space
        assert s.start[1] >= s.start[0] + s.dur[0]
        assert check_solution(sol, c, m, cfg, tables=t) == []

    def test_one_bend_routes_can_pass(self):
        # same placement under 1BP: route of gate 0 is row 0, gate 1 is column 1
        # through the junction at (0,1); still a shared cell, still serialized
        m = load_calibration(udoc(3, 3))
        t = build_tables(m)
        c = build_circuit(4, 0, [("cx", (0, 1)), ("cx", (2, 3))])
        cfg = ProblemConfig(Variant.T_SMT, Routing.ONE_BEND)
        sol = solution_from_assignment(c, m, cfg, (0, 2, 1, 7),
                                       (m.cell_id((0, 0)), m.cell_id((0, 1))), tables=t)
        s = sol.schedule
        assert s.start[1] >= s.start[0] + s.dur[0] or s.start[0] >= s.start[1] + s.dur[1]
        assert check_solution(sol, c, m, cfg, tables=t) == []

    def test_rectangle_reservation_holds_the_cells_off_the_walk(self):
        # The CNOT (0,0) -> (1,1) walks through (0,1); under rr it also holds
        # the rectangle's other corner (1,0), so a gate there waits for it.
        import dataclasses
        m = load_calibration(udoc(2, 2))
        t = build_tables(m)
        c = build_circuit(3, 0, [("cx", (0, 1)), ("h", (2,))])
        rr_cfg = ProblemConfig(Variant.T_SMT, Routing.RR)
        rr = solution_from_assignment(c, m, rr_cfg, (0, 3, 2), (1,), tables=t)
        walk = solution_from_assignment(c, m, ProblemConfig(Variant.T_SMT, Routing.ONE_BEND),
                                        (0, 3, 2), (1,), tables=t)
        assert rr.gate_routes[0] == walk.gate_routes[0] == (0, 1, 3)
        assert rr.schedule.start == {0: 0, 1: rr.schedule.dur[0]}
        assert walk.schedule.start == {0: 0, 1: 0}
        assert check_solution(rr, c, m, rr_cfg, tables=t) == []
        bad = dataclasses.replace(rr, schedule=walk.schedule)
        assert "gates 0 and 1 overlap in space and time" in check_solution(bad, c, m, rr_cfg,
                                                                           tables=t)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_illegal_junction_rejected(self, variant):
        m = load_calibration(udoc(2, 2))
        t = build_tables(m)
        c = build_circuit(2, 0, [("cx", (0, 1))])
        cfg = ProblemConfig(variant, Routing.ONE_BEND)
        with pytest.raises(ValueError, match="not legal"):
            solution_from_assignment(c, m, cfg, (0, 1), (m.cell_id((1, 1)),), tables=t)

    def test_coherence_infeasible(self):
        m = load_calibration(udoc(1, 2, t2=5))
        t = build_tables(m)
        c = build_circuit(1, 1, [("measure", (0,), 0)])
        cfg = ProblemConfig(Variant.T_SMT_STAR)
        with pytest.raises(Infeasible):
            solution_from_assignment(c, m, cfg, (0,), (), tables=t)

    def test_matches_naive_policy_on_random_instances(self):
        m = load_calibration(udoc(2, 3))
        t = build_tables(m)
        cfg = ProblemConfig(Variant.T_SMT_STAR, Routing.ONE_BEND)
        for seed in range(30):
            c = gen_random(4, 10, seed=seed)
            cells = (0, 2, 3, 5)
            junctions = canonical_junctions(c, t, cells)
            got = naive_starts(c, m, cfg, t, cells, junctions)
            assert got is not None
            sol = solution_from_assignment(c, m, cfg, cells, junctions, tables=t)
            assert sol.schedule.start == got[0] and sol.schedule.dur == got[1]
            assert check_solution(sol, c, m, cfg, tables=t) == []


class TestCriticalPath:
    def test_folded_rows_match_the_gate_by_gate_longest_path(self):
        """The bound folded onto CNOTs and readouts equals the longest path
        taken gate by gate, whatever the durations."""
        circuits = [build_circuit(2, 0, []), build_circuit(2, 0, [("h", (0,)), ("x", (0,))]),
                    gen_toffoli(), gen_bv(6, "10110")]
        circuits += [gen_random(5, 30, s) for s in range(4)]
        circuits += [with_readouts(gen_random(6, 24, s), range(s % 6)) for s in range(8)]
        rng = random.Random(7)
        for c in circuits:
            preds = predecessor_lists(c)
            n_cx = sum(g.kind is GateKind.CNOT for g in c.gates)
            for _ in range(5):
                sq = rng.randint(0, 3)
                cx = [rng.randint(1, 40) for _ in range(n_cx)]
                ro = [rng.randint(1, 20) for _ in range(c.num_qubits)]
                fin, k = [], 0
                for g in c.gates:
                    if g.kind is GateKind.CNOT:
                        d, k = cx[k], k + 1
                    else:
                        d = ro[g.operands[0]] if g.kind is GateKind.MEASURE else sq
                    fin.append(d + max((fin[p] for p in preds[g.id]), default=0))
                rows, const_path = optimal._folded_rows(c, preds, sq)
                assert optimal._critical_path(rows, const_path, cx, ro) == max(fin, default=0)


def with_lone_qubits(c, extra):
    """c on `extra` more qubits, each running only H, T and a readout."""
    n = c.num_qubits + extra
    ops = [(g.kind, g.operands, g.classical_target) for g in c.gates]
    for q in range(c.num_qubits, n):
        ops += [(GateKind.H, (q,), None), (GateKind.T, (q,), None), (GateKind.MEASURE, (q,), q)]
    return build_circuit(n, n, ops)


class TestQubitsWithoutCnots:
    def test_solver_matches_the_enumerator(self):
        """Exact solves of circuits with qubits that no CNOT touches reach
        the enumerator's optimum, and among its ties the first in search
        order, on plain, jittered and short-lived 2x3 grids, or find no
        schedule where it finds none. In the last circuit such a qubit
        measures into a clbit that a CNOT's qubit writes later, so that
        readout waits for it."""
        circuits = [with_lone_qubits(build_circuit(2, 0, [("cx", (0, 1)), ("h", (1,)),
                                                          ("cx", (1, 0))]), 2),
                    gen_bv(4, "010"),
                    with_lone_qubits(with_readouts(gen_random(2, 6, 1), range(2)), 1),
                    build_circuit(4, 1, [("h", (3,)), ("measure", (3,), 0), ("cx", (1, 0)),
                                         ("measure", (2,), 0), ("cx", (1, 2)), ("cx", (2, 0))])]
        solved = infeasible = 0
        for over in ({}, {"jitter_durations": True}, {"t2": 16}):
            m = load_calibration(synth_calibration(2, 3, 8, **over))
            t = build_tables(m)
            for c in circuits:
                for variant, routing in ((Variant.T_SMT, Routing.RR),
                                         (Variant.T_SMT_STAR, Routing.RR),
                                         (Variant.T_SMT_STAR, Routing.ONE_BEND)):
                    cfg = ProblemConfig(variant, routing)
                    try:
                        bf = brute_force_optimal(c, m, cfg, tables=t)
                    except Infeasible:
                        with pytest.raises(Infeasible):
                            solve_exact(c, m, cfg, tables=t)
                        infeasible += 1
                        continue
                    sol = solve_exact(c, m, cfg, tables=t)
                    assert sol.objective_value == bf.objective_value
                    assert solution_key(sol, c, m) == first_in_search_order(c, bf.argmax)
                    solved += 1
        assert solved >= 20 and infeasible >= 3, (solved, infeasible)


class TestSolveExact:
    @pytest.mark.parametrize("variant,routing", [
        (Variant.T_SMT, Routing.RR),
        (Variant.T_SMT, Routing.ONE_BEND),
        (Variant.T_SMT_STAR, Routing.RR),
        (Variant.T_SMT_STAR, Routing.ONE_BEND),
        (Variant.R_SMT_STAR, Routing.ONE_BEND),
    ])
    def test_matches_enumerator_on_random_instances(self, variant, routing):
        m = load_calibration(udoc(2, 2))
        for seed in (1, 2, 3):
            c = gen_random(3, 8, seed=seed)
            cfg = ProblemConfig(variant, routing)
            sol = solve_exact(c, m, cfg)
            want = oracle_best(c, m, cfg)
            assert sol.objective_value == want[0]
            assert solution_key(sol, c, m) == want[1]
            assert sol.optimal
            assert check_solution(sol, c, m, cfg) == []

    def test_bv4_reliability_on_2x3(self):
        m = load_calibration(udoc(2, 3))
        cfg = ProblemConfig(Variant.R_SMT_STAR)
        c = gen_bv(4, "111")
        sol = solve_exact(c, m, cfg)
        want = oracle_best(c, m, cfg)
        assert sol.objective_value == want[0]
        assert solution_key(sol, c, m) == want[1]
        assert check_solution(sol, c, m, cfg) == []

    def test_hub_qubit_gets_high_degree_cell(self):
        m = load_calibration(udoc(3, 3))
        cfg = ProblemConfig(Variant.R_SMT_STAR)
        sol = solve_exact(three_cnot_four_readout(), m, cfg)
        hub = sol.placement.loc[3]
        degree = len(m.adjacency[m.cell_id(hub)])
        assert degree >= 3
        for g in sol.gate_routes:
            assert len(sol.gate_routes[g]) == 2  # every CNOT adjacent

    def test_single_qubit_picks_best_readout(self):
        doc = udoc(1, 3)
        doc["qubits"] = [{"x": 0, "y": 1, "readout_error": 0.01}]
        m = load_calibration(doc)
        cfg = ProblemConfig(Variant.R_SMT_STAR)
        c = build_circuit(1, 1, [("measure", (0,), 0)])
        sol = solve_exact(c, m, cfg)
        assert sol.placement.loc[0] == (0, 1)
        assert sol.makespan == 12

    def test_toffoli_needs_a_swap(self):
        # grid adjacency is triangle-free, so one CNOT of the triangle sits at
        # distance >= 2 under every placement
        m = load_calibration(udoc(2, 2))
        cfg = ProblemConfig(Variant.T_SMT)
        sol = solve_exact(gen_toffoli(), m, cfg)
        cnot_durs = [sol.schedule.dur[g] for g in sol.gate_routes]
        assert max(cnot_durs) >= static_cnot_duration(2, m)
        assert check_solution(sol, gen_toffoli(), m, cfg) == []

    def test_too_many_qubits(self):
        m = load_calibration(udoc(1, 2))
        with pytest.raises(ValueError):
            solve_exact(gen_bv(4, "101"), m, ProblemConfig(Variant.T_SMT))

    def test_infeasible_vs_timeout(self):
        # The greedy seed misses the readout's deadline too, so a search cut
        # before it proves anything has nothing to return.
        tight = load_calibration(udoc(1, 2, t2=5))
        c = build_circuit(1, 1, [("measure", (0,), 0)])
        with pytest.raises(Infeasible):
            solve_exact(c, tight, ProblemConfig(Variant.T_SMT_STAR))
        with pytest.raises(SolverTimeout):
            solve_exact(c, tight, ProblemConfig(Variant.T_SMT_STAR, time_limit=1e-9))

    def test_timeout_returns_the_greedy_seed(self):
        """A limit that expires before the first node returns the greedy-e
        placement, unproved, as a valid solution no better than the optimum,
        under every variant/routing pair."""
        m = load_calibration(udoc(2, 3))
        t = build_tables(m)
        c = gen_bv(4, "111")
        greedy = greedy_edge_map(build_program_graph(c), m, t)
        for variant, routing in EXACT_VARIANTS:
            sol = solve_exact(c, m, ProblemConfig(variant, routing, time_limit=1e-9), tables=t)
            assert sol.optimal is False
            assert sol.placement == greedy
            assert check_solution(sol, c, m) == []
            best = solve_exact(c, m, ProblemConfig(variant, routing), tables=t)
            assert best.optimal is True
            if variant is Variant.R_SMT_STAR:
                assert best.objective_value >= sol.objective_value
            else:
                assert best.objective_value <= sol.objective_value

    def test_deterministic(self):
        m = load_calibration(udoc(2, 3))
        cfg = ProblemConfig(Variant.R_SMT_STAR)
        c = gen_bv(3, "11")
        a = solve_exact(c, m, cfg)
        b = solve_exact(c, m, cfg)
        assert a.placement.loc == b.placement.loc
        assert a.schedule.start == b.schedule.start
        assert a.objective_value == b.objective_value

    def test_empty_circuit(self):
        m = load_calibration(udoc(2, 2))
        sol = solve_exact(build_circuit(2, 0, []), m, ProblemConfig(Variant.T_SMT))
        assert sol.makespan == 0 and sol.objective_value == 0.0


class TestCheckSolution:
    def good(self):
        m = load_calibration(udoc(2, 3))
        cfg = ProblemConfig(Variant.R_SMT_STAR)
        c = gen_bv(3, "11")
        return c, m, cfg, solve_exact(c, m, cfg)

    def test_clean_solution_passes(self):
        c, m, cfg, sol = self.good()
        assert check_solution(sol, c, m, cfg) == []
        assert check_solution(sol, c, m) == []  # config recovered from echoes

    def test_refuses_the_settings_from_record_refuses(self):
        # each omega, routing, count_return_swaps and variant value that the
        # CLI's record sweep tries, set on a greedy-e and an r-smt-star
        # solution: without a cfg the checker reads the solution's own
        # settings as from_record reads its record's, and never raises
        m = load_calibration(udoc(2, 3))
        c, t = gen_bv(3, "11"), build_tables(m)
        values = {"omega": [math.nan, -0.5, 1.5, math.inf, None, "0.5"],
                  "routing": ["rr", "1bp", "bogus", None, ["path"]],
                  "count_return_swaps": ["no", 0, 1, None],
                  "variant": ["bogus", "t-smt", "r-smt-star", None, ["greedy-v"]]}
        for sol in (heuristic_compile(c, m, t, HeuristicConfig(GreedyPolicy.EDGE)),
                    solve_exact(c, m, ProblemConfig(Variant.R_SMT_STAR), tables=t)):
            record = to_record(expand(sol, c, m))
            for key, vals in values.items():
                for value in vals:
                    doc = copy.deepcopy(record)
                    (doc if key == "variant" else doc["config"])[key] = value
                    try:
                        from_record(doc, m)
                        refused = False
                    except ValueError:
                        refused = True
                    got = check_solution(dataclasses.replace(sol, **{key: value}), c, m)
                    rejected = [v for v in got if v.startswith("solution config rejected: ")]
                    assert len(rejected) == refused, (sol.variant, key, value, got)
                    assert got == rejected or not refused, (sol.variant, key, value, got)

    def test_injectivity(self):
        import dataclasses
        c, m, cfg, sol = self.good()
        loc = dict(sol.placement.loc)
        loc[0] = loc[1]
        bad = dataclasses.replace(sol, placement=Placement(loc=loc))
        assert any("injective" in v for v in check_solution(bad, c, m, cfg))

    def test_route_that_revisits_a_cell(self):
        # a walk over the grid's edges that joins its CNOT's cells but visits
        # one twice; some such walks expand into a stream that computes
        # another circuit, so every one is refused
        m = load_calibration(udoc(1, 4))
        c = build_circuit(2, 0, [("cx", (0, 1))])
        sol = heuristic_compile(c, m, build_tables(m), HeuristicConfig(GreedyPolicy.EDGE))
        a, b = sol.gate_routes[0][0], sol.gate_routes[0][-1]
        bad = dataclasses.replace(sol, gate_routes={0: (a, b, a, b)})
        assert check_solution(bad, c, m) == ["CNOT 0 route visits a cell twice"]
        with pytest.raises(ValueError, match="visits a cell twice"):
            expand(bad, c, m)

    def test_dependency(self):
        import dataclasses
        c, m, cfg, sol = self.good()
        order = sorted(sol.schedule.start, key=sol.schedule.start.get)
        start = dict(sol.schedule.start)
        start[order[-1]] = 0
        bad = dataclasses.replace(sol, schedule=type(sol.schedule)(
            start=start, dur=dict(sol.schedule.dur)))
        assert any("dependency" in v or "overlap" in v
                   for v in check_solution(bad, c, m, cfg))

    def test_swapped_clbit_writes_break_a_dependency(self):
        """Two readouts into one clbit run in program order: a schedule that
        runs the later write first is reported."""
        m = load_calibration(udoc(2, 2))
        cfg = ProblemConfig(Variant.R_SMT_STAR)
        c = build_circuit(2, 1, [("measure", (0,), 0), ("measure", (1,), 0)])
        sol = solve_exact(c, m, cfg)
        assert check_solution(sol, c, m, cfg) == []
        dur = dict(sol.schedule.dur)
        bad = dataclasses.replace(sol, schedule=Schedule(start={0: dur[1], 1: 0}, dur=dur))
        assert check_solution(bad, c, m, cfg) == [
            "dependency violated: gate 1 starts before gate 0 finishes"]

    def test_overlap_names_both_gates(self):
        import dataclasses
        m = load_calibration(udoc(3, 3))
        cfg = ProblemConfig(Variant.T_SMT)
        c = build_circuit(4, 0, [("cx", (0, 1)), ("cx", (2, 3))])
        cells = (0, 2, 1, 7)  # rects share cell (0,1)
        t = build_tables(m)
        sol = solution_from_assignment(c, m, cfg, cells,
                                       (canonical_junction(t, 0, 2),
                                        canonical_junction(t, 1, 7)), tables=t)
        start = dict(sol.schedule.start)
        start[0] = start[1] = 0
        bad = dataclasses.replace(sol, schedule=type(sol.schedule)(
            start=start, dur=dict(sol.schedule.dur)))
        msgs = check_solution(bad, c, m, cfg)
        assert any("0" in v and "1" in v and "overlap" in v for v in msgs)

    def test_zero_durations_follow_the_pairwise_rule(self):
        import dataclasses
        m = load_calibration(udoc(1, 2))
        cfg = ProblemConfig(Variant.T_SMT_STAR)
        c = build_circuit(2, 0, [("h", (0,)), ("x", (0,)), ("h", (1,))])
        sol = solution_from_assignment(c, m, cfg, (0, 1), ())

        def overlaps(start, dur):
            bad = dataclasses.replace(sol, schedule=type(sol.schedule)(start=start, dur=dur))
            return [v for v in check_solution(bad, c, m, cfg) if "overlap" in v]

        # two empty intervals at one instant never clash
        assert overlaps({0: 3, 1: 3, 2: 0}, {0: 0, 1: 0, 2: 1}) == []
        # an empty interval strictly inside a busy one does
        assert overlaps({0: 2, 1: 3, 2: 0}, {0: 3, 1: 0, 2: 1}) == \
            ["gates 0 and 1 overlap in space and time"]
        assert overlaps({0: 2, 1: 2, 2: 0}, {0: 3, 1: 0, 2: 1}) == []

    def test_overlaps_match_the_pairwise_rule(self):
        # Tampered schedules, with durations of 0 and below among them: the
        # verifier reports each clashing pair once, in sorted order, exactly as
        # a test of every pair of gates sharing a cell does.
        import dataclasses
        import random
        m = load_calibration(udoc(3, 3))
        t = build_tables(m)
        cfg = ProblemConfig(Variant.T_SMT_STAR, Routing.ONE_BEND)
        c = gen_random(6, 40, 4)
        cells = (4, 0, 8, 2, 6, 1)
        junctions = tuple(canonical_junction(t, cells[g.operands[0]], cells[g.operands[1]])
                          for g in c.gates if g.kind is GateKind.CNOT)
        sol = solution_from_assignment(c, m, cfg, cells, junctions, tables=t)
        region = {g.id: set(sol.gate_routes.get(g.id, (cells[g.operands[0]],)))
                  for g in c.gates}
        rng = random.Random(7)
        flagged = 0
        for _ in range(30):
            start = {g: rng.randrange(12) for g in region}
            dur = {g: rng.choice((-1, 0, 0, 1, 2, 5)) for g in region}
            bad = dataclasses.replace(sol, schedule=type(sol.schedule)(start=start, dur=dur))
            expect = [f"gates {g1} and {g2} overlap in space and time"
                      for g1, g2 in itertools.combinations(sorted(region), 2)
                      if region[g1] & region[g2]
                      and start[g1] < start[g2] + dur[g2] and start[g2] < start[g1] + dur[g1]]
            got = [v for v in check_solution(bad, c, m, cfg, tables=t) if "overlap" in v]
            assert got == expect
            flagged += len(got)
        assert flagged > 0

    def test_junction_legality(self):
        # A staircase joins the CNOT's cells on the grid but bends twice, so
        # it is the walk of no junction legal under either routing.
        import dataclasses
        m = load_calibration(udoc(2, 3))
        t = build_tables(m)
        c = build_circuit(2, 0, [("cx", (0, 1))])
        a, b = m.cell_id((0, 0)), m.cell_id((1, 2))
        stair = tuple(m.cell_id(p) for p in ((0, 0), (0, 1), (1, 1), (1, 2)))
        for cfg in (ProblemConfig(Variant.R_SMT_STAR, Routing.ONE_BEND),
                    ProblemConfig(Variant.T_SMT_STAR, Routing.RR)):
            sol = solution_from_assignment(c, m, cfg, (a, b), (canonical_junction(t, a, b),),
                                           tables=t)
            assert check_solution(sol, c, m, cfg, tables=t) == []
            bad = dataclasses.replace(sol, gate_routes={0: stair})
            want = (f"CNOT 0 route is not the walk of a junction legal under "
                    f"{cfg.routing.value} routing")
            assert want in check_solution(bad, c, m, cfg, tables=t)
            assert want in check_solution(bad, c, m)

    def test_one_bend_duration_follows_the_junction(self):
        import dataclasses
        m = slow_corner_machine()
        t = build_tables(m)
        cfg = ProblemConfig(Variant.T_SMT_STAR, Routing.ONE_BEND)
        c = build_circuit(2, 0, [("cx", (0, 1))])
        slow = m.cell_id((0, 1))
        sol = solution_from_assignment(c, m, cfg, (0, 3), (slow,), tables=t)
        assert sol.schedule.dur[0] == t.cnot_dur[(0, 3, slow)] == 21
        assert check_solution(sol, c, m, cfg, tables=t) == []
        expand(sol, c, m)
        # priced at the faster junction's duration: too short to walk
        short = dataclasses.replace(sol, schedule=type(sol.schedule)(
            start=dict(sol.schedule.start), dur={0: int(t.delta[0, 3])}))
        assert any("duration" in v for v in check_solution(short, c, m, cfg, tables=t))
        assert any("duration" in v for v in check_solution(short, c, m))
        with pytest.raises(CodegenError):
            expand(short, c, m)

    def test_route_must_be_its_junctions_walk(self):
        # A CNOT's stored route is what expand walks, and the objective is
        # recomputed from it. A route through the other legal junction is a
        # sound duration solution, but under r-smt-star it no longer earns
        # the claimed objective. So does the first junction's route walked by
        # the other qubit; a detour is the route of no junction.
        import dataclasses
        m = load_calibration(synth_calibration(3, 3, 5))
        t = build_tables(m)
        cfg = ProblemConfig(Variant.T_SMT_STAR, Routing.ONE_BEND)
        c = build_circuit(2, 0, [("cx", (0, 1))])
        sol = solution_from_assignment(c, m, cfg, (0, 4), (1,), tables=t)
        assert sol.gate_routes[0] == (0, 1, 4)
        assert check_solution(sol, c, m, cfg, tables=t) == []
        other = route_cells(m, 0, 4, 3)
        assert other == (0, 3, 4)
        bad = dataclasses.replace(sol, gate_routes={0: other})
        assert check_solution(bad, c, m, cfg, tables=t) == []
        assert check_solution(bad, c, m) == []
        assert expand(sol, c, m).eps_route[0] == pytest.approx(0.9214, abs=1e-4)
        assert expand(bad, c, m).eps_route[0] == pytest.approx(0.8507, abs=1e-4)
        r_cfg = ProblemConfig(Variant.R_SMT_STAR)
        r_sol = solution_from_assignment(c, m, r_cfg, (0, 4), (1,), tables=t)
        assert r_sol.objective_value == 0.5 * math.log(expand(r_sol, c, m).eps_route[0])
        r_bad = dataclasses.replace(r_sol, gate_routes={0: other})
        want = (f"objective {r_sol.objective_value} != recomputed "
                f"{0.5 * math.log(expand(r_bad, c, m).eps_route[0])}")
        assert r_sol.objective_value == pytest.approx(-0.0409, abs=1e-4)
        assert check_solution(r_bad, c, m, r_cfg, tables=t) == [want]
        assert check_solution(r_bad, c, m) == [want]
        mover = dataclasses.replace(sol, gate_routes={0: (4, 1, 0)})
        assert check_solution(mover, c, m, cfg, tables=t) == check_solution(mover, c, m) == []
        r_mover = dataclasses.replace(r_sol, gate_routes={0: (4, 1, 0)})
        want = (f"objective {r_sol.objective_value} != recomputed "
                f"{0.5 * math.log(expand(r_mover, c, m).eps_route[0])}")
        assert check_solution(r_mover, c, m, r_cfg, tables=t) == [want]
        # a rejected walk has no reliability, so the objective is not recomputed
        detour = dataclasses.replace(r_sol, gate_routes={0: (0, 1, 2, 5, 4)})
        assert check_solution(detour, c, m, r_cfg, tables=t) == check_solution(detour, c, m) == \
            ["CNOT 0 route is not the walk of a junction legal under 1bp routing"]

    def test_rectangle_reservation_walks_the_canonical_junction(self):
        # the solver walks the faster junction's route under rr; the slower
        # one's is a valid program too, since the rectangle covers both
        m = slow_corner_machine()
        t = build_tables(m)
        cfg = ProblemConfig(Variant.T_SMT_STAR, Routing.RR)
        c = build_circuit(2, 0, [("cx", (0, 1))])
        fast, slow = canonical_junction(t, 0, 3), m.cell_id((0, 1))
        assert fast != slow
        assert optimal.Scorer(c, m, t, cfg).junction_choices(0, 3) == (fast,)
        for j in (fast, slow):
            sol = solution_from_assignment(c, m, cfg, (0, 3), (j,), tables=t)
            assert sol.schedule.dur[0] == t.cnot_dur[(0, 3, j)]
            assert check_solution(sol, c, m, cfg, tables=t) == []

    def test_objective_consistency(self):
        import dataclasses
        c, m, cfg, sol = self.good()
        bad = dataclasses.replace(sol, objective_value=sol.objective_value + 0.5)
        assert any("objective" in v for v in check_solution(bad, c, m, cfg))

    def test_objective_off_by_one_ulp_is_rejected(self):
        # The solver, the mappers and the verifier sum the same reliabilities
        # through one exactly rounded sum, so the objective is compared exactly.
        import dataclasses
        m = load_calibration(synth_calibration(3, 3, 2))
        t = build_tables(m)
        c = gen_bv(5, "1011")
        for sol in (solve_exact(c, m, ProblemConfig(Variant.R_SMT_STAR), tables=t),
                    heuristic_compile(c, m, t, HeuristicConfig(GreedyPolicy.EDGE)),
                    heuristic_compile(c, m, t, HeuristicConfig(GreedyPolicy.VERTEX, omega=0.3,
                                                               count_return_swaps=True))):
            assert check_solution(sol, c, m, tables=t) == []
            for to in (-math.inf, math.inf):
                off = dataclasses.replace(
                    sol, objective_value=math.nextafter(sol.objective_value, to))
                assert check_solution(off, c, m, tables=t) == \
                    [f"objective {off.objective_value} != recomputed {sol.objective_value}"]


def _mutants(sol, c, m, rng):
    """Seeded mutations of a solution, one kind each and two in turn: starts
    shifted, some past every deadline; a gate ending at or one timeslot
    before the static coherence bound; a duration off by one; a gate moved
    before its predecessor's end; a CNOT given another CNOT's walk; a walk
    with a jump off the grid's edges, cut short, reversed or with its first
    cell doubled; and an objective off by a little."""
    preds = predecessor_lists(c)
    late = [g for g, ps in enumerate(preds) if ps]
    cnots = [g.id for g in c.cnot_gates()]

    def with_schedule(s, start, dur):
        return dataclasses.replace(s, schedule=Schedule(start, dur))

    def shifted(s):
        start = dict(s.schedule.start)
        for g in rng.sample(sorted(start), min(3, len(start))):
            start[g] = max(0, start[g] + rng.choice((-3, -2, -1, 1, 2, 3, 1000)))
        return with_schedule(s, start, dict(s.schedule.dur))

    def at_the_bound(s):
        start = dict(s.schedule.start)
        g = rng.choice(sorted(start))
        start[g] = max(0, m.static_coherence_bound - s.schedule.dur[g] - rng.choice((0, 1)))
        return with_schedule(s, start, dict(s.schedule.dur))

    def wrong_duration(s):
        dur = dict(s.schedule.dur)
        dur[rng.choice(sorted(dur))] += rng.choice((-1, 1))
        return with_schedule(s, dict(s.schedule.start), dur)

    def broken_dependency(s):
        start = dict(s.schedule.start)
        if late:
            g = rng.choice(late)
            start[g] = start[rng.choice(preds[g])]
        return with_schedule(s, start, dict(s.schedule.dur))

    def foreign_walk(s):
        routes = dict(s.gate_routes)
        if len(cnots) > 1:
            g, other = rng.sample(cnots, 2)
            routes[g] = s.gate_routes[other]
        return dataclasses.replace(s, gate_routes=routes)

    def off_edge_walk(s):
        routes = dict(s.gate_routes)
        g = rng.choice(cnots)
        walk = routes[g]
        far = rng.choice([x for x in range(m.num_cells) if x not in walk] or [walk[0]])
        routes[g] = rng.choice(((walk[0], far, walk[-1]), (walk[0], walk[-1]), walk[::-1],
                                walk[:1] + walk))
        return dataclasses.replace(s, gate_routes=routes)

    def wrong_objective(s):
        return dataclasses.replace(
            s, objective_value=s.objective_value + rng.choice((-0.5, 1e-9, 1.0)))

    kinds = [shifted, at_the_bound, wrong_duration, broken_dependency, foreign_walk,
             off_edge_walk, wrong_objective]
    for kind in kinds:
        yield kind(sol)
    for _ in range(3):
        first, second = rng.sample(kinds, 2)
        yield second(first(sol))


class TestCheckSolutionGolden:
    """check_solution's violation lists on a seeded mutation sweep, under
    every exact variant/routing pair and both greedy mappers, with the
    solution's config given and recovered from its echoes: each message
    and its order, pinned so that a change to the checker that alters one
    of them fails here."""
    DIGEST = "2e36f77afe4a8a2f16294bb51e08e54781026db0600b97b7c7715cd9b9b5113a"
    LISTS = 2110

    def test_violation_lists_are_pinned(self):
        rng = random.Random(20)
        h = hashlib.sha256()
        lists = 0
        for seed, over in ((1, {}), (2, {"jitter_durations": True}), (3, {"t2": 30})):
            for mx, my in ((2, 3), (3, 3)):
                m = load_calibration(synth_calibration(mx, my, seed, **over))
                t = build_tables(m)
                for c in (gen_bv(4, "101"), gen_toffoli(),
                          with_readouts(gen_random(4, 12, seed), range(4))):
                    sols = []
                    for variant, routing in EXACT_VARIANTS + ((Variant.T_SMT, Routing.ONE_BEND),):
                        cfg = ProblemConfig(variant, routing, count_return_swaps=seed == 2)
                        try:
                            sols.append((solve_exact(c, m, cfg, tables=t), cfg))
                        except Infeasible:
                            continue
                    for policy in GreedyPolicy:
                        try:
                            sols.append((heuristic_compile(c, m, t, HeuristicConfig(policy)),
                                         None))
                        except Infeasible:
                            continue
                    for sol, cfg in sols:
                        assert check_solution(sol, c, m, cfg, tables=t) == []
                        for bad in _mutants(sol, c, m, rng):
                            for got in (check_solution(bad, c, m, cfg, tables=t),
                                        check_solution(bad, c, m)):
                                h.update(repr(got).encode())
                                lists += bool(got)
        assert (h.hexdigest(), lists) == (self.DIGEST, self.LISTS)


class TestEmitSmtlib:
    def test_bv4_variable_counts(self):
        m = load_calibration(udoc(2, 3))
        c = gen_bv(4, "111")
        text = emit_smtlib(c, m, ProblemConfig(Variant.T_SMT))
        assert sum(1 for i in range(4) if f"(declare-const qx{i} Int)" in text) == 4
        assert sum(1 for i in range(4) if f"(declare-const qy{i} Int)" in text) == 4
        for g in c.gates:
            assert f"(declare-const t{g.id} Int)" in text
        assert "(minimize makespan)" in text

    def test_empty_circuit(self):
        m = load_calibration(udoc(2, 2))
        text = emit_smtlib(build_circuit(1, 0, []), m, ProblemConfig(Variant.T_SMT))
        assert "(assert (= makespan 0))" in text
        assert "(minimize makespan)" in text

    def test_reliability_script_shape(self):
        m = load_calibration(udoc(2, 2))
        text = emit_smtlib(gen_bv(2, "1"), m, ProblemConfig(Variant.R_SMT_STAR))
        assert "(maximize obj)" in text
        assert "lnec" in text and "lnro" in text
        assert "jx" in text and "jy" in text

    def test_one_bend_durations_keyed_by_junction(self):
        m = slow_corner_machine()
        t = build_tables(m)
        c = build_circuit(2, 0, [("cx", (0, 1))])
        text = emit_smtlib(c, m, ProblemConfig(Variant.T_SMT_STAR, Routing.ONE_BEND))
        assert text.index("(define-fun cj0 ") < text.index("(define-fun d0 ")
        d0 = next(line for line in text.splitlines() if line.startswith("(define-fun d0 "))
        cases = re.findall(r"\(= cq0 (\d+)\) \(= cq1 (\d+)\) \(= cj0 (\d+)\)\) (\d+)", d0)
        assert ("0", "3", "1", "21") in cases and ("0", "3", "2", "14") in cases
        for a, b, j, dur in cases:
            a, b, j = int(a), int(b), int(j)
            legal = j if j in t.junctions[(a, b)] else t.junctions[(a, b)][0]
            assert int(dur) == t.cnot_dur[(a, b, legal)]


class TestGoldenSmtlib:
    """sha256 of emit_smtlib's script for BV4 and a Toffoli under every
    variant/routing pair (return swaps scored or not) on a plain and a
    jittered 2x3 grid, and for one circuit whose readouts share a clbit:
    pinned so that a change to the encoding, or to the order its dependency
    asserts come in, that alters one byte of a script fails here."""
    DIGEST = "24b74def579c322a4b880efaebf6878d347f27b138c2b4b64959b795281cfdb3"
    PER_CELL_DIGEST = "ded0a328605e3595f5dede9ab79d136caea495c2fddec61ce8a18c56faf2bb96"
    CONFIGS = ((Variant.T_SMT, Routing.RR, False), (Variant.T_SMT, Routing.ONE_BEND, False),
               (Variant.T_SMT_STAR, Routing.RR, False),
               (Variant.T_SMT_STAR, Routing.ONE_BEND, False),
               (Variant.R_SMT_STAR, Routing.ONE_BEND, False),
               (Variant.R_SMT_STAR, Routing.ONE_BEND, True))

    def test_scripts_are_pinned(self):
        cx, ms = GateKind.CNOT, GateKind.MEASURE
        shared = build_circuit(3, 1, [("h", (0,)), (cx, (0, 1)), (ms, (1,), 0), ("x", (2,)),
                                      (ms, (0,), 0), (cx, (1, 2)), (ms, (2,), 0)])
        h = hashlib.sha256()
        for m in (load_calibration(udoc(2, 3)),
                  load_calibration(synth_calibration(2, 3, 4, jitter_durations=True))):
            for c in (gen_bv(4, "111"), gen_toffoli(), shared):
                for variant, routing, flag in self.CONFIGS:
                    cfg = ProblemConfig(variant, routing, count_return_swaps=flag)
                    h.update(emit_smtlib(c, m, cfg).encode())
        assert h.hexdigest() == self.DIGEST

    def test_per_cell_readout_and_t2_scripts_are_pinned(self):
        # each cell carries its own readout duration and T2, so every
        # measure's duration and every deadline is an ite switch on its cell,
        # a branch the plain and jittered grids above never take
        doc = udoc(2, 3)
        doc["qubits"] = [{"x": x, "y": y, "readout_duration": 10 + 3 * (3 * x + y),
                          "t2": 900 + 40 * (3 * x + y)} for x in range(2) for y in range(3)]
        m = load_calibration(doc)
        cx, ms = GateKind.CNOT, GateKind.MEASURE
        shared = build_circuit(3, 1, [("h", (0,)), (cx, (0, 1)), (ms, (1,), 0), ("x", (2,)),
                                      (ms, (0,), 0), (cx, (1, 2)), (ms, (2,), 0)])
        h = hashlib.sha256()
        for c in (gen_bv(4, "111"), gen_toffoli(), shared):
            for variant, routing, flag in self.CONFIGS:
                cfg = ProblemConfig(variant, routing, count_return_swaps=flag)
                h.update(emit_smtlib(c, m, cfg).encode())
        assert h.hexdigest() == self.PER_CELL_DIGEST


def _z3_objective(text):
    z3 = pytest.importorskip("z3")
    opt = z3.Optimize()
    body = "\n".join(line for line in text.splitlines()
                     if not line.startswith("(check-sat")
                     and not line.startswith("(get-"))
    opt.from_string(body)
    assert opt.check() == z3.sat
    val = opt.objectives()[0]
    ref = opt.model().eval(val, model_completion=True)
    if z3.is_int_value(ref):
        return float(ref.as_long())
    return float(ref.as_fraction())


class TestSmtCrossCheck:
    def test_duration_chain_matches_exact(self):
        m = load_calibration(udoc(2, 2))
        c = build_circuit(2, 1, [("h", (0,)), ("cx", (0, 1)), ("measure", (1,), 0)])
        cfg = ProblemConfig(Variant.T_SMT)
        sol = solve_exact(c, m, cfg)
        assert _z3_objective(emit_smtlib(c, m, cfg)) == sol.objective_value

    def test_reliability_matches_exact(self):
        doc = udoc(2, 2)
        doc["edges"] = [{"a": [0, 0], "b": [0, 1], "cnot_error": 0.3}]
        m = load_calibration(doc)
        c = gen_bv(2, "1")
        cfg = ProblemConfig(Variant.R_SMT_STAR)
        sol = solve_exact(c, m, cfg)
        assert abs(_z3_objective(emit_smtlib(c, m, cfg)) - sol.objective_value) < 1e-9


# ------------------------------------------------------- scheduler oracle ---

def linear_scan_schedule(n_cells, durs, gcells, deadlines, preds, succs):
    """The list scheduler as it was before it kept one free-from time per
    cell: each probe scans a cell's sorted (start, end) intervals from the
    first one. Every cell is below n_cells."""
    assert all(0 <= cell < n_cells for cells in gcells for cell in cells)
    n_gates = len(durs)
    starts = [0] * n_gates
    est = [0] * n_gates
    pending = [len(p) for p in preds]
    busy = {}
    cellver = {}
    heap = []

    def fit(g):
        s = est[g]
        d = durs[g]
        moved = True
        while moved:
            moved = False
            for cell in gcells[g]:
                for a, b in busy.get(cell, ()):
                    if a >= s + d:
                        break
                    if b > s:
                        s = b
                        moved = True
        if s + d > deadlines[g]:
            raise Infeasible(f"gate {g} cannot finish before its coherence deadline")
        return s

    def stamp(g):
        total = 0
        for cell in gcells[g]:
            total += cellver.get(cell, 0)
        return total

    for g in range(n_gates):
        if pending[g] == 0:
            heapq.heappush(heap, (fit(g), g, stamp(g)))
    committed = 0
    while heap:
        s, g, st = heapq.heappop(heap)
        if stamp(g) != st:
            heapq.heappush(heap, (fit(g), g, stamp(g)))
            continue
        starts[g] = s
        committed += 1
        end = s + durs[g]
        for cell in gcells[g]:
            insort(busy.setdefault(cell, []), (s, end))
            cellver[cell] = cellver.get(cell, 0) + 1
        for nxt in succs[g]:
            if end > est[nxt]:
                est[nxt] = end
            pending[nxt] -= 1
            if pending[nxt] == 0:
                heapq.heappush(heap, (fit(nxt), nxt, stamp(nxt)))
    assert committed == n_gates
    return starts


def assert_matches_linear_scan(schedule, args):
    """schedule(*args) gives the linear scan's starts, which it returns, or
    raises Infeasible naming the linear scan's gate, which it re-raises."""
    try:
        want = linear_scan_schedule(*args)
    except Infeasible as exc:
        with pytest.raises(Infeasible) as got:
            schedule(*args)
        assert str(got.value) == str(exc)
        raise
    assert schedule(*args) == want
    return want


class TestSchedulerOracle:
    def test_bisected_probes_match_linear_scan(self, monkeypatch):
        """Every schedule that greedy compiles, exact solves and the
        enumerator ask for, on a seeded pool, gets the linear scan's starts,
        or its infeasible gate id."""
        schedule = schedule_module._list_schedule
        seen = {"feasible": 0, "infeasible": 0}

        def both(*args):
            try:
                want = assert_matches_linear_scan(schedule, args)
            except Infeasible:
                seen["infeasible"] += 1
                raise
            seen["feasible"] += 1
            return want

        monkeypatch.setattr(schedule_module, "_list_schedule", both)
        grids = [(1, 6), (2, 8), (3, 3), (4, 4)]
        cals = [{}, {"jitter_durations": True}, {"t2": 40}]
        for (mx, my), over, seed in itertools.product(grids, cals, (1, 2)):
            m = load_calibration(synth_calibration(mx, my, seed, **over))
            t = build_tables(m)
            c = gen_random(6, 40, seed)
            for policy, ret in itertools.product(GreedyPolicy, (False, True)):
                try:
                    heuristic_compile(c, m, t, HeuristicConfig(policy, count_return_swaps=ret))
                except Infeasible:
                    pass
            rng = random.Random(seed)
            for _ in range(10):
                cells = tuple(rng.sample(range(m.num_cells), 6))
                try:
                    compile_with_placement(c, m, t, cells, HeuristicConfig(GreedyPolicy.VERTEX),
                                           "greedy-v")
                except Infeasible:
                    pass
            small = gen_random(3, 6, seed)
            # The enumerator schedules every leaf the pruned search skips.
            for solve, variant, routing in ((solve_exact, Variant.T_SMT_STAR, Routing.RR),
                                            (solve_exact, Variant.R_SMT_STAR, Routing.ONE_BEND),
                                            (brute_force_optimal, Variant.T_SMT_STAR, Routing.RR)):
                try:
                    solve(small, m, ProblemConfig(variant, routing), tables=t)
                except Infeasible:
                    pass
        m = load_calibration(synth_calibration(12, 12, 2, t2=10 ** 6))
        heuristic_compile(gen_random(128, 2048, 1), m, build_tables(m),
                          HeuristicConfig(GreedyPolicy.EDGE))
        assert seen["infeasible"] >= 50 and seen["feasible"] >= 10_000

    def test_random_dags_match_linear_scan(self):
        """Seeded DAGs wider than any compile asks for: predecessors from any
        earlier gate, 1-5 cells per gate out of 1-12, durations 1-12, and a
        deadline on about a third of the gates."""
        rng = random.Random(18)
        seen = {"feasible": 0, "infeasible": 0}
        for _ in range(3000):
            n, n_cells = rng.randint(1, 24), rng.randint(1, 12)
            preds = [sorted(rng.sample(range(g), rng.randint(0, min(g, 3)))) for g in range(n)]
            succs = [[g for g in range(n) if p in preds[g]] for p in range(n)]
            durs = [rng.randint(1, 12) for _ in range(n)]
            gcells = [tuple(rng.sample(range(n_cells), rng.randint(1, min(5, n_cells))))
                      for _ in range(n)]
            deadlines = [rng.randint(d, sum(durs)) if rng.random() < 1 / 3 else 10 ** 9
                         for d in durs]
            try:
                assert_matches_linear_scan(schedule_module._list_schedule,
                                           (n_cells, durs, gcells, deadlines, preds, succs))
            except Infeasible:
                seen["infeasible"] += 1
            else:
                seen["feasible"] += 1
        assert min(seen.values()) >= 500


class _ReadClock:
    """Stands in for the time module of nisqc.optimal: every read advances
    the clock by one, so a time limit of N is a budget of N clock reads."""

    def __init__(self):
        self.reads = 0

    def monotonic(self) -> float:
        self.reads += 1
        return float(self.reads)


def _budget_pool():
    """Twelve small circuits on a 2x8 ladder, six on a plain and six on a
    jittered-duration calibration."""
    bv5, bv6, bv7, bv8 = (gen_bv(5, "1011"), gen_bv(6, "11010"), gen_bv(7, "101101"),
                          gen_bv(8, "1110011"))
    rand5 = with_readouts(gen_random(5, 20, 1), range(5))
    rand6 = with_readouts(gen_random(6, 24, 2), range(6))
    plain = load_calibration(synth_calibration(2, 8, 1))
    jittered = load_calibration(synth_calibration(2, 8, 9, jitter_durations=True))
    return ([(plain, c) for c in (bv5, bv6, bv7, rand5, rand6, gen_toffoli())]
            + [(jittered, c) for c in (bv6, bv7, bv8, rand5, rand6, gen_toffoli())])


EXACT_VARIANTS = ((Variant.T_SMT, Routing.RR), (Variant.T_SMT_STAR, Routing.RR),
                  (Variant.T_SMT_STAR, Routing.ONE_BEND), (Variant.R_SMT_STAR, Routing.ONE_BEND))


def _pinned_solves(monkeypatch, pool, budget, variants=EXACT_VARIANTS):
    """sha256 of every solve's (cells, walks, objective, optimal) over the
    (machine, circuit) pool under each variant/routing pair, at a budget of
    `budget` clock reads each; the number of clock reads all solves made; and
    the number of solves that proved their optimum."""
    clock = _ReadClock()
    monkeypatch.setattr(optimal, "time", clock)
    h = hashlib.sha256()
    proved = 0
    for m, c in pool:
        t = build_tables(m)
        for variant, routing in variants:
            sol = solve_exact(c, m, ProblemConfig(variant, routing, time_limit=budget),
                              tables=t)
            walks = [sol.gate_routes[g.id] for g in c.cnot_gates()]
            h.update(repr((placement_cells(sol, m), walks, sol.objective_value,
                           sol.optimal)).encode())
            proved += sol.optimal
    return h.hexdigest(), clock.reads, proved


class TestBudgetGolden:
    # sha256 of every solve's (cells, walks, objective, optimal) and the
    # number of clock reads all solves made, at a budget of 400 reads each.
    DIGEST = "fb86b4a675ffa73dd9bab7ecd18b453a3a5110c61c7155eb2f10d778830bf0ce"
    READS = 8913

    def test_budget_limited_solves_are_pinned(self, monkeypatch):
        """Solves cut by their budget of clock reads return what they
        returned before, after the same number of reads. A change to where
        the search reads its clock, or to which leaves it visits, changes
        what a budget buys: such a change must update DIGEST and READS on
        purpose."""
        digest, reads, proved = _pinned_solves(monkeypatch, _budget_pool(), 400)
        assert 0 < proved < 48
        assert (digest, reads) == (self.DIGEST, self.READS)


def varied_readouts(mx, my, seed):
    """A jittered-duration calibration whose cells' readouts last from 2 to
    24 timeslots, so cells whose CNOTs are equally fast differ in readout."""
    doc = synth_calibration(mx, my, seed, jitter_durations=True)
    rng = random.Random(seed)
    for q in doc["qubits"]:
        q["readout_duration"] = rng.randint(2, 24)
    return load_calibration(doc)


class TestReadoutDurations:
    """The duration variants' node bound prices each placed readout at its
    own cell's duration, kept in place as the search places qubits."""
    DIGEST = "c4df02d7c5832338ecd8f2aa1ff4665db409417445798ff200c21e912b272525"
    READS = 5176

    def test_budget_limited_solves_are_pinned(self, monkeypatch):
        """Budget-limited solves on ladders with jittered CNOTs and readouts
        of unequal length return what they returned before, after the same
        number of clock reads."""
        pool = [(m, c) for m in (varied_readouts(2, 8, 3), varied_readouts(2, 8, 4))
                for c in (gen_bv(6, "10110"), with_readouts(gen_random(5, 20, 3), range(5)),
                          with_lone_qubits(gen_bv(4, "111"), 1), gen_toffoli())]
        digest, reads, proved = _pinned_solves(monkeypatch, pool, 400)
        assert 0 < proved < 32
        assert (digest, reads) == (self.DIGEST, self.READS)

    def test_solver_matches_the_enumerator(self):
        """Unlimited solves on 2x3 grids reach the enumerator's optimum, and
        among its ties the first in search order, under every variant/routing
        pair."""
        circuits = [gen_bv(4, "011"), gen_toffoli(),
                    with_readouts(gen_random(3, 8, 5), range(3)),
                    with_lone_qubits(with_readouts(gen_random(2, 6, 1), range(2)), 2)]
        solved = 0
        for seed in (1, 2, 3):
            m = varied_readouts(2, 3, seed)
            t = build_tables(m)
            for c, (variant, routing) in itertools.product(circuits, EXACT_VARIANTS):
                cfg = ProblemConfig(variant, routing)
                bf = brute_force_optimal(c, m, cfg, tables=t)
                sol = solve_exact(c, m, cfg, tables=t)
                assert sol.objective_value == bf.objective_value
                assert solution_key(sol, c, m) == first_in_search_order(c, bf.argmax)
                solved += 1
        assert solved == 48


def sweep_instances(n, seed):
    """n seeded (machine, circuit, omega, count_return_swaps) instances at
    the edges: 1xN, 2x2, 2x3 and 3x2 grids, every cell occupied in every
    other instance, plain or jittered CNOT durations, T2 from tight to
    ample, omega at 0, 0.5 or 1, and return swaps scored or not."""
    rng = random.Random(seed)
    for i in range(n):
        mx, my = rng.choice(((1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (3, 2)))
        nq = mx * my if i % 2 == 0 else rng.randint(2, mx * my - 1)
        m = load_calibration(synth_calibration(
            mx, my, rng.randrange(10 ** 6), t2=rng.choice((16, 30, 60, 1000)),
            jitter_durations=rng.random() < 0.5))
        ops = []
        for _ in range(rng.randint(1, 3)):
            ops.append((GateKind.CNOT, tuple(rng.sample(range(nq), 2))))
            ops += [(GateKind.H, (rng.randrange(nq),)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(ops)
        c = with_readouts(build_circuit(nq, 0, ops), rng.sample(range(nq), rng.randint(0, nq)))
        yield m, c, rng.choice((0.0, 0.5, 1.0)), rng.random() < 0.5


class TestEdgeSweep:
    def test_solver_matches_the_enumerator_at_the_edges(self):
        """On 200 seeded edge instances under every variant/routing pair, the
        solver and the enumerator agree on infeasibility, the optimum and,
        among its ties, the first in search order, and check_solution
        accepts the solver's answer."""
        mismatches = []
        feasible = 0
        for i, (m, c, omega, crs) in enumerate(sweep_instances(200, 16)):
            t = build_tables(m)
            for variant, routing in EXACT_VARIANTS:
                cfg = ProblemConfig(variant, routing, omega=omega, count_return_swaps=crs)
                case = (i, variant.value, routing.value)
                try:
                    bf = brute_force_optimal(c, m, cfg, tables=t)
                except Infeasible:
                    bf = None
                try:
                    sol = solve_exact(c, m, cfg, tables=t)
                except Infeasible:
                    sol = None
                if (bf is None) != (sol is None):
                    mismatches.append((case, "infeasible", bf is None, sol is None))
                if bf is None or sol is None:
                    continue
                feasible += 1
                if sol.objective_value != bf.objective_value:
                    mismatches.append((case, "objective", sol.objective_value, bf.objective_value))
                if solution_key(sol, c, m) != first_in_search_order(c, bf.argmax):
                    mismatches.append((case, "search order"))
                bad = check_solution(sol, c, m, cfg, tables=t)
                if bad:
                    mismatches.append((case, "check_solution", bad))
        assert mismatches == []
        # the sweep must reach both sides of the deadlines
        assert 200 < feasible < 800


def shared_clbit_instances(n, seed):
    """n seeded (machine, circuit) instances whose readouts share clbits:
    2 to 5 qubits on 1xN to 2x4 grids with plain or jittered CNOT
    durations, and 2 to 4 readouts into 1 or 2 clbits among one or two
    CNOTs and up to four single-qubit gates, in random order. A later write
    to a clbit is often ready before an earlier one."""
    rng = random.Random(seed)
    for _ in range(n):
        mx, my = rng.choice(((1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4)))
        nq = rng.randint(2, min(5, mx * my))
        m = load_calibration(synth_calibration(mx, my, rng.randrange(10 ** 6),
                                               jitter_durations=rng.random() < 0.5))
        n_clbits = rng.randint(1, 2)
        ops = [(GateKind.CNOT, tuple(rng.sample(range(nq), 2)), None)
               for _ in range(rng.randint(1, 2))]
        ops += [(rng.choice((GateKind.H, GateKind.X, GateKind.T)), (rng.randrange(nq),), None)
                for _ in range(rng.randint(0, 4))]
        ops += [(GateKind.MEASURE, (rng.randrange(nq),), rng.randrange(n_clbits))
                for _ in range(rng.randint(n_clbits + 1, 4))]
        rng.shuffle(ops)
        yield m, build_circuit(nq, n_clbits, ops)


class TestSharedClbitSweep:
    def test_every_mapper_keeps_the_order_of_clbit_writes(self):
        """On 40 seeded instances whose readouts share clbits, the solver
        and the enumerator agree under every variant/routing pair, and every
        exact solution and both greedy mappers' solutions pass
        check_solution and compute the source's distribution, in which the
        later write to a clbit wins."""
        mismatches = []
        for i, (m, c) in enumerate(shared_clbit_instances(40, 21)):
            t = build_tables(m)
            sols = []
            for variant, routing in EXACT_VARIANTS:
                cfg = ProblemConfig(variant, routing)
                case = (i, variant.value, routing.value)
                bf = brute_force_optimal(c, m, cfg, tables=t)
                sol = solve_exact(c, m, cfg, tables=t)
                if sol.objective_value != bf.objective_value:
                    mismatches.append((case, "objective", sol.objective_value, bf.objective_value))
                if solution_key(sol, c, m) != first_in_search_order(c, bf.argmax):
                    mismatches.append((case, "search order"))
                sols.append((case, sol))
            for policy in GreedyPolicy:
                sols.append(((i, policy.value), heuristic_compile(c, m, t,
                                                                  HeuristicConfig(policy))))
            for case, sol in sols:
                bad = check_solution(sol, c, m, tables=t)
                if bad:
                    mismatches.append((case, "check_solution", bad))
                if not equivalence_check(c, expand(sol, c, m)).passed:
                    mismatches.append((case, "equivalence"))
        assert mismatches == []


def _wide_leaf_pool():
    """Circuits of at least 9 CNOTs, with a readout of every qubit, on a
    plain and a jittered-duration 3x3 grid: under one-bend routing their
    leaves have hundreds of junction combos."""
    circuits = [with_readouts(gen_random(n, 64, seed), range(n))
                for n, seed in ((4, 1), (4, 3), (4, 4), (5, 1), (5, 3))]
    assert all(len(c.cnot_gates()) >= 9 for c in circuits)
    return [(load_calibration(synth_calibration(3, 3, 5, **over)), c)
            for over in ({}, {"jitter_durations": True}) for c in circuits]


class TestBudgetGoldenWideLeaves:
    """Circuits of at least 9 CNOTs under one-bend routing, whose leaves
    have hundreds of junction combos: a wide leaf reads the clock once per
    combo, whether it schedules the combo or its bound rules it out."""
    DIGEST = "85d16d2e338bfc9356ad409f8c5c28a13acfb8ecb4129fd17d688a6f5962d31d"
    READS = 5035

    def test_budget_limited_solves_are_pinned(self, monkeypatch):
        digest, reads, proved = _pinned_solves(
            monkeypatch, _wide_leaf_pool(), 400,
            ((Variant.T_SMT, Routing.ONE_BEND), (Variant.T_SMT_STAR, Routing.ONE_BEND)))
        assert 0 < proved < 20
        assert (digest, reads) == (self.DIGEST, self.READS)


class _ScheduleCountingClock(_ReadClock):
    """A _ReadClock that also stands in for schedule._list_schedule and keeps
    the most schedules made between two clock reads."""

    def __init__(self, list_schedule):
        super().__init__()
        self._list_schedule = list_schedule
        self.schedules = self.since_read = self.most = 0

    def list_schedule(self, *args):
        self.schedules += 1
        self.since_read += 1
        return self._list_schedule(*args)

    def monotonic(self) -> float:
        self.most = max(self.most, self.since_read)
        self.since_read = 0
        return super().monotonic()


class TestTimeLimit:
    def test_clock_reads_are_at_most_one_schedule_apart(self, monkeypatch):
        """A time limit holds to within one leaf evaluation: between two
        clock reads the search schedules at most one assignment, on leaves
        with hundreds of junction combos too."""
        clock = _ScheduleCountingClock(schedule_module._list_schedule)
        monkeypatch.setattr(optimal, "time", clock)
        monkeypatch.setattr(schedule_module, "_list_schedule", clock.list_schedule)
        variants = [(v, Routing.ONE_BEND) for v in (Variant.T_SMT, Variant.T_SMT_STAR,
                                                    Variant.R_SMT_STAR)]
        for m, c in _wide_leaf_pool():
            t = build_tables(m)
            for variant, routing in variants + [(Variant.T_SMT_STAR, Routing.RR)]:
                # The search's reads start at its deadline; the schedule of
                # the returned solution comes after its last read.
                clock.since_read = 0
                solve_exact(c, m, ProblemConfig(variant, routing, time_limit=400), tables=t)
        assert clock.schedules > 1000
        assert clock.most == 1
