"""Greedy mapper tests: placements are pinned on hand-built calibrations and
every compiled schedule must satisfy the same verifier as the exact solver."""

import dataclasses
import hashlib
import heapq
import json
import math
import random
import statistics
import tracemalloc

import numpy as np
import pytest

from nisqc import heuristic
from nisqc.circuit import (
    GateKind,
    build_circuit,
    build_program_graph,
    gen_bv,
    gen_random,
    gen_toffoli,
    parse_circuit,
)
from nisqc.codegen import expand
from nisqc.evaluate import check_solution, reliability_score
from nisqc.heuristic import (
    GreedyPolicy,
    HeuristicConfig,
    compile_with_placement,
    greedy_edge_map,
    greedy_vertex_map,
    heuristic_compile,
)
from nisqc.machine import build_tables, load_calibration, synth_calibration
from nisqc.optimal import solve_exact
from nisqc.schedule import Infeasible, Placement, ProblemConfig, Routing, build_solution


def udoc(mx, my, **over):
    d = {
        "t2": 1000, "readout_error": 0.07, "readout_duration": 12,
        "cnot_error": 0.1, "cnot_duration": 2, "single_qubit_duration": 1,
        "single_qubit_error": 0.001, "static_tau_cnot": 2,
        "static_coherence_bound": 1000,
    }
    d.update(over)
    return {"grid": {"mx": mx, "my": my}, "defaults": d}


def machine(mx, my, **over):
    m = load_calibration(udoc(mx, my, **over))
    return m, build_tables(m)


def disjoint_pairs(seed):
    """Three disjoint CNOT pairs over six qubits, each repeated 1-3 times."""
    rng = np.random.default_rng(seed)
    perm = [int(q) for q in rng.permutation(6)]
    ops = []
    for k in range(3):
        ops += [("cx", (perm[2 * k], perm[2 * k + 1]))] * int(rng.integers(1, 4))
    return build_circuit(6, 0, ops)


@pytest.fixture(scope="module")
def big():
    """128 qubits and 2048 gates on a uniform 12x12 grid."""
    m, t = machine(12, 12, t2=10 ** 6)
    return m, t, gen_random(128, 2048, seed=1)


class TestConfig:
    def test_policy_coercion_and_validation(self):
        cfg = HeuristicConfig(policy="greedy-v")
        assert cfg.policy is GreedyPolicy.VERTEX
        assert cfg.omega == 0.5
        with pytest.raises(ValueError):
            HeuristicConfig(policy="greedy-v", omega=1.5)
        with pytest.raises(ValueError):
            HeuristicConfig(policy="fastest")

    @pytest.mark.parametrize("omega", ["0.5", None, True])
    def test_non_numeric_omega_is_a_value_error(self, omega):
        with pytest.raises(ValueError, match="omega"):
            HeuristicConfig(policy="greedy-v", omega=omega)

    @pytest.mark.parametrize("flag", ["yes", 0, None])
    def test_count_return_swaps_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match="count_return_swaps"):
            HeuristicConfig(policy="greedy-e", count_return_swaps=flag)

    def test_names_its_variant_and_routing_as_a_problem_config_does(self):
        # both are read-only class attributes, not fields: the policy is the
        # variant, and the greedy mappers route by best path
        cfg = HeuristicConfig(policy="greedy-e")
        assert cfg.variant is GreedyPolicy.EDGE and cfg.routing is Routing.BEST_PATH
        assert [f.name for f in dataclasses.fields(cfg)] == \
            ["policy", "omega", "count_return_swaps"]
        for name in ("variant", "routing"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, "t-smt")


class TestGreedyVertex:
    def test_bv4_hub_takes_the_center(self):
        m, t = machine(3, 3)
        c = gen_bv(4, "111")
        p = greedy_vertex_map(build_program_graph(c), m, t)
        assert p.loc[3] == (1, 1)
        sol = heuristic_compile(c, m, t, HeuristicConfig(policy="greedy-v"))
        assert all(len(r) == 2 for r in sol.gate_routes.values())
        cc = expand(sol, c, m)
        assert cc.swap_count == 0
        assert reliability_score(cc) == pytest.approx(0.586376253, abs=1e-9)

    def test_bv4_matches_the_exact_optimum_here(self):
        m, t = machine(3, 3)
        c = gen_bv(4, "111")
        sol = heuristic_compile(c, m, t, HeuristicConfig(policy="greedy-v"))
        exact = solve_exact(c, m, ProblemConfig(variant="r-smt-star"), tables=t)
        assert sol.objective_value == pytest.approx(exact.objective_value, abs=1e-12)
        assert not sol.optimal

    def test_no_cnots_fall_back_to_readout_order(self):
        doc = udoc(1, 4)
        doc["qubits"] = [
            {"x": 0, "y": 0, "readout_error": 0.2},
            {"x": 0, "y": 1, "readout_error": 0.05},
            {"x": 0, "y": 2, "readout_error": 0.1},
            {"x": 0, "y": 3, "readout_error": 0.3},
        ]
        m = load_calibration(doc)
        t = build_tables(m)
        c = build_circuit(4, 4, [("measure", (q,), q) for q in range(4)])
        p = greedy_vertex_map(build_program_graph(c), m, t)
        assert [m.cell_id(p.loc[q]) for q in range(4)] == [1, 2, 0, 3]

    def test_seed_avoids_bad_readout_among_max_degree_cells(self):
        doc = udoc(3, 4)
        doc["qubits"] = [{"x": 1, "y": 1, "readout_error": 0.4}]
        m = load_calibration(doc)
        t = build_tables(m)
        c = gen_bv(4, "111")
        p = greedy_vertex_map(build_program_graph(c), m, t)
        assert p.loc[3] == (1, 2)


class TestGreedyEdge:
    def test_single_cnot_takes_the_best_edge(self):
        doc = udoc(2, 8, cnot_error=0.3)
        doc["edges"] = [{"a": [0, 3], "b": [1, 3], "cnot_error": 0.01}]
        m = load_calibration(doc)
        t = build_tables(m)
        c = build_circuit(2, 2, [("cx", (0, 1)),
                                 ("measure", (0,), 0), ("measure", (1,), 1)])
        p = greedy_edge_map(build_program_graph(c), m, t)
        assert m.cell_id(p.loc[0]) == 3
        assert m.cell_id(p.loc[1]) == 11

    def test_second_component_reseeds_on_next_best_edge(self):
        doc = udoc(2, 8, cnot_error=0.3)
        doc["edges"] = [
            {"a": [0, 0], "b": [0, 1], "cnot_error": 0.01},
            {"a": [1, 5], "b": [1, 6], "cnot_error": 0.02},
        ]
        m = load_calibration(doc)
        t = build_tables(m)
        c = build_circuit(4, 0, [("cx", (0, 1)), ("cx", (2, 3))])
        p = greedy_edge_map(build_program_graph(c), m, t)
        assert [m.cell_id(p.loc[q]) for q in range(4)] == [0, 1, 13, 14]

    @pytest.mark.parametrize("seed", [1, 6, 9, 12])
    def test_full_occupancy_without_a_free_edge(self, seed):
        # Three disjoint CNOT pairs fill a 2x3 grid; after the first pairs no
        # two free cells may be adjacent, so a pair seeds on readout cells.
        m = load_calibration(synth_calibration(2, 3, seed))
        t = build_tables(m)
        c = disjoint_pairs(seed)
        sol = heuristic_compile(c, m, t, HeuristicConfig(policy="greedy-e"))
        assert len(set(sol.placement.loc.values())) == 6
        assert check_solution(sol, c, m, tables=t) == []
        expand(sol, c, m)

    def test_bv4_stays_swap_free_on_uniform_grid(self):
        m, t = machine(3, 3)
        c = gen_bv(4, "111")
        sol = heuristic_compile(c, m, t, HeuristicConfig(policy="greedy-e"))
        cc = expand(sol, c, m)
        assert cc.swap_count == 0
        assert reliability_score(cc) == pytest.approx(0.586376253, abs=1e-9)


class TestCompileWithPlacement:
    def test_independent_cnots_run_in_parallel(self):
        m, t = machine(2, 2)
        c = build_circuit(4, 0, [("cx", (0, 1)), ("cx", (2, 3))])
        cfg = HeuristicConfig(policy="greedy-v")
        sol = compile_with_placement(c, m, t, (0, 1, 2, 3), cfg, "greedy-v")
        assert sol.schedule.start == {0: 0, 1: 0}
        assert sol.makespan == 2

    def test_the_label_is_the_policy_the_solution_is_built_under(self):
        m = load_calibration(synth_calibration(2, 3, 1))
        c, t = gen_bv(3, "11"), build_tables(m)
        cfg = HeuristicConfig("greedy-v", omega=0.7)
        for label in ("t-smt", "r-smt-star", "bogus", "path"):
            with pytest.raises(ValueError, match="GreedyPolicy"):
                compile_with_placement(c, m, t, (0, 1, 2), cfg, label)
        sol = compile_with_placement(c, m, t, (0, 1, 2), cfg, "greedy-e")
        assert sol.config == HeuristicConfig("greedy-e", omega=0.7)
        assert sol == compile_with_placement(c, m, t, (0, 1, 2), sol.config, "greedy-e")
        assert check_solution(sol, c, m, tables=t) == []

    def test_solutions_verify_clean(self):
        m, t = machine(2, 3)
        circuits = [gen_bv(4, "111"), gen_toffoli()]
        circuits += [gen_random(4, 10, seed) for seed in (31, 32, 33)]
        for c in circuits:
            for policy in ("greedy-v", "greedy-e"):
                sol = heuristic_compile(c, m, t, HeuristicConfig(policy=policy))
                assert check_solution(sol, c, m, tables=t) == []

    def test_toffoli_needs_swaps_on_a_grid(self):
        # the program graph is a triangle; the grid is bipartite
        m, t = machine(2, 8)
        c = gen_toffoli()
        for policy in ("greedy-v", "greedy-e"):
            sol = heuristic_compile(c, m, t, HeuristicConfig(policy=policy))
            assert expand(sol, c, m).swap_count >= 2

    def test_omega_reweights_the_objective(self):
        import math
        m, t = machine(3, 3)
        c = gen_bv(4, "111")
        cfg = HeuristicConfig(policy="greedy-v", omega=0.8)
        sol = heuristic_compile(c, m, t, cfg)
        eps = expand(sol, c, m).eps_route
        ln_ro = [math.log(e) for gid, e in eps.items() if gid not in sol.gate_routes]
        ln_cx = [math.log(eps[gid]) for gid in sol.gate_routes]
        assert len(ln_ro) == 3 and len(ln_cx) == 3
        assert sol.objective_value == 0.8 * math.fsum(ln_ro) + 0.2 * math.fsum(ln_cx)

    def test_count_return_swaps_routes_by_strict_reliability(self):
        # the fixed placement (0, 3), unrefined, on its best_paths_return walk
        m, t = machine(1, 4)
        c = build_circuit(2, 0, [("cx", (0, 1))])
        cfg = HeuristicConfig(policy="greedy-v", count_return_swaps=True)
        sol = build_solution(c, m, cfg, (0, 3), [t.best_paths_return[(0, 3)][0]], optimal=False)
        assert expand(sol, c, m).eps_strict[0] == pytest.approx(0.9 ** 13, abs=1e-15)
        assert check_solution(sol, c, m, tables=t) == []
        # compile_with_placement moves the pair next to each other first
        sol = compile_with_placement(c, m, t, (0, 3), cfg, "greedy-v")
        (a, b) = (m.cell_id(sol.placement.loc[q]) for q in (0, 1))
        assert abs(a - b) == 1 and sol.gate_routes[0] == t.best_paths_return[(a, b)][0]
        assert expand(sol, c, m).eps_strict[0] == pytest.approx(0.9, abs=1e-15)

    def test_coherence_violation_raises(self):
        m, t = machine(3, 3, t2=5)
        with pytest.raises(Infeasible):
            heuristic_compile(gen_bv(4, "111"), m, t,
                              HeuristicConfig(policy="greedy-v"))

    def test_more_qubits_than_cells(self):
        m, t = machine(1, 3)
        with pytest.raises(ValueError, match="exceed"):
            heuristic_compile(gen_bv(4, "111"), m, t,
                              HeuristicConfig(policy="greedy-v"))
        for greedy_map in (greedy_vertex_map, greedy_edge_map):
            with pytest.raises(ValueError, match="4 program qubits exceed 3 hardware cells"):
                greedy_map(build_program_graph(gen_bv(4, "111")), m, t)

    @pytest.mark.parametrize("policy", ["greedy-v", "greedy-e"])
    def test_oversized_register_rejected_before_allocating(self, policy):
        c = parse_circuit("OPENQASM 2.0;\nqreg q[300000];\ncreg c[1];\ncx q[0],q[1];\n")
        m, t = machine(2, 2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="300000 program qubits exceed 4 hardware cells"):
                heuristic_compile(c, m, t, HeuristicConfig(policy=policy))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


# ------------------------------------------------------ pairwise exchange ---

def measured(c):
    """c followed by a readout of every qubit."""
    ops = [(g.kind, g.operands) for g in c.gates]
    ops += [(GateKind.MEASURE, (q,), q) for q in range(c.num_qubits)]
    return build_circuit(c.num_qubits, c.num_qubits, ops)


def mapper_cells(c, m, t, policy):
    mapper = greedy_vertex_map if GreedyPolicy(policy) is GreedyPolicy.VERTEX else greedy_edge_map
    p = mapper(build_program_graph(c), m, t)
    return tuple(m.cell_id(p.loc[q]) for q in range(c.num_qubits))


def plain(c, m, t, cells, cfg):
    """The placement as given, unrefined: each CNOT on its best-path walk."""
    bp = t.best_paths_return if cfg.count_return_swaps else t.best_paths
    walks = [bp[(cells[g.operands[0]], cells[g.operands[1]])][0] for g in c.cnot_gates()]
    return build_solution(c, m, cfg, cells, walks, optimal=False)


def exchange_cases():
    """(machine, tables, circuit) on 3x3 to 6x6 grids and a 1xN grid, sparse
    and at full occupancy, with readouts on every other circuit."""
    for n in (3, 4, 5, 6):
        m = load_calibration(synth_calibration(n, n, 3 * n, t2=10 ** 6,
                                               jitter_durations=n % 2 == 0))
        t = build_tables(m)
        yield m, t, measured(gen_random(n + 2, 8 * n, n))
        yield m, t, gen_random(n * n, 6 * n * n, n + 1)          # full occupancy
        yield m, t, measured(gen_random(n * n, 4 * n * n, n + 2))  # full, with readouts
    m = load_calibration(synth_calibration(1, 9, 4, t2=10 ** 6))
    t = build_tables(m)
    yield m, t, measured(gen_random(6, 30, 4))
    yield m, t, gen_random(9, 40, 5)


class TestExchange:
    @pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("ret", [False, True], ids=["best", "return"])
    def test_never_lowers_the_mappers_objective(self, omega, ret):
        raised = 0
        for m, t, c in exchange_cases():
            for policy in GreedyPolicy:
                cfg = HeuristicConfig(policy, omega=omega, count_return_swaps=ret)
                base = plain(c, m, t, mapper_cells(c, m, t, policy), cfg)
                sol = heuristic_compile(c, m, t, cfg)
                assert sol.objective_value >= base.objective_value, (m.mx, m.my, policy)
                assert check_solution(sol, c, m, tables=t) == []
                raised += sol.objective_value > base.objective_value
        assert raised >= 10

    def test_full_occupancy_moves_only_by_swaps(self):
        m = load_calibration(synth_calibration(3, 3, 1, t2=10 ** 6))
        t = build_tables(m)
        c = gen_random(9, 60, 2)
        cells = mapper_cells(c, m, t, "greedy-e")
        got = heuristic.exchange(c, m, t.ln_best_paths, cells, 0.5)
        assert sorted(got) == list(range(9)) and got != cells

    def test_a_local_optimum_comes_back_unchanged(self):
        m = load_calibration(synth_calibration(3, 3, 5, t2=10 ** 6))
        t = build_tables(m)
        c = measured(gen_random(5, 30, 6))
        cfg = HeuristicConfig("greedy-e")
        cells = mapper_cells(c, m, t, "greedy-e")
        for _ in range(20):   # to a fixed point, 4 sweeps a call
            nxt = heuristic.exchange(c, m, t.ln_best_paths, cells, cfg.omega)
            if nxt == cells:
                break
            cells = nxt
        assert heuristic.exchange(c, m, t.ln_best_paths, cells, cfg.omega) == cells
        # no single move or swap raises the objective of the fixed point
        value = plain(c, m, t, cells, cfg).objective_value
        for q in range(c.num_qubits):
            for cell in range(m.num_cells):
                other = list(cells)
                if cell in cells:
                    other[cells.index(cell)] = cells[q]
                other[q] = cell
                assert plain(c, m, t, tuple(other), cfg).objective_value <= value + 1e-12
        # and neither does the exchange move a placement no move improves
        line = load_calibration(udoc(1, 5))
        chain = build_circuit(5, 0, [("cx", (q, q + 1)) for q in range(4)])
        assert heuristic.exchange(chain, line, build_tables(line).ln_best_paths,
                                  (0, 1, 2, 3, 4), 0.5) == (0, 1, 2, 3, 4)

    def test_two_calls_give_the_same_solution(self):
        m = load_calibration(synth_calibration(5, 5, 9, t2=10 ** 6, jitter_durations=True))
        t = build_tables(m)
        c = measured(gen_random(14, 80, 9))
        for policy in GreedyPolicy:
            cfg = HeuristicConfig(policy, count_return_swaps=True)
            assert heuristic_compile(c, m, t, cfg) == heuristic_compile(c, m, t, cfg)
            cells = tuple(range(3, 17))
            assert compile_with_placement(c, m, t, cells, cfg, policy.value) == \
                compile_with_placement(c, m, t, cells, cfg, policy.value)

    def test_two_qubits_on_one_cell_are_refused(self):
        m, t = machine(2, 2)
        c = build_circuit(2, 0, [("cx", (0, 1))])
        with pytest.raises(ValueError, match="two qubits on one cell"):
            compile_with_placement(c, m, t, (1, 1), HeuristicConfig("greedy-v"), "greedy-v")


class TestExchangeUnderflow:
    """On a 1x40 grid of CNOT error 0.99999 a best path of 23 or more hops
    underflows to 0.0: its ln column entry is -inf."""

    @staticmethod
    def line():
        m = load_calibration(udoc(1, 40, cnot_error=0.99999, t2=10 ** 9))
        return m, build_tables(m)

    def test_no_move_into_an_underflowed_path(self):
        m, t = self.line()
        c = build_circuit(3, 0, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 1))])
        def ln_terms(cells):
            return [t.ln_best_paths[cells[b], cells[a]] for a, b in
                    (g.operands for g in c.cnot_gates())]

        # 19 hops from cell 11 to cell 30 is finite; most moves from there read -inf
        for cells in ((0, 1, 2), (10, 11, 30), (20, 39, 21)):
            assert all(math.isfinite(v) for v in ln_terms(cells))
            got = heuristic.exchange(c, m, t.ln_best_paths, cells, 0.5)
            assert all(math.isfinite(v) for v in ln_terms(got)), (cells, got)
            assert sum(ln_terms(got)) >= sum(ln_terms(cells))
        # a placement that already reads -inf is left as it is: its gains are not finite
        assert -math.inf in ln_terms((5, 30, 6))
        assert heuristic.exchange(c, m, t.ln_best_paths, (5, 30, 6), 0.5) == (5, 30, 6)

    def test_the_mapper_still_names_the_underflow(self):
        m, t = self.line()
        ops = [("cx", (i, i + 1)) for i in range(39)] + [("cx", (0, 39))]
        with pytest.raises(ValueError, match=r"best-path reliability from cell \d+ to cell "
                                             r"\d+ underflowed to 0\.0"):
            heuristic_compile(build_circuit(40, 0, ops), m, t, HeuristicConfig("greedy-v"))


class TestQuality:
    def test_greedy_edge_beats_random_placement(self):
        m, t = machine(4, 4, t2=10 ** 6)
        cfg = HeuristicConfig(policy="greedy-e")
        rng = random.Random(0)
        greedy_objs, random_objs = [], []
        for seed in range(20):
            c = gen_random(8, 32, seed)
            greedy_objs.append(heuristic_compile(c, m, t, cfg).objective_value)
            for _ in range(100):
                cells = tuple(rng.sample(range(16), 8))
                sol = compile_with_placement(c, m, t, cells, cfg, "greedy-e")
                random_objs.append(sol.objective_value)
        assert statistics.median(greedy_objs) >= statistics.median(random_objs)

    def test_large_instance_compiles(self, big):
        m, t, c = big
        for policy in ("greedy-v", "greedy-e"):
            sol = heuristic_compile(c, m, t, HeuristicConfig(policy=policy))
            assert len(sol.schedule.start) == 2048
            assert sol.objective_value < 0.0
            assert sol.makespan > 0


def golden_cases(big):
    """(machine, tables, circuit) over a fixed seeded sweep of grid shapes."""
    for seed in range(4):
        m = load_calibration(synth_calibration(1, 7, seed))
        yield m, build_tables(m), gen_random(3 + seed, 6 * (seed + 1), seed)
    for seed in (1, 6, 9):
        m = load_calibration(synth_calibration(2, 3, seed))
        yield m, build_tables(m), disjoint_pairs(seed)
    for n in (3, 4, 5, 6):
        for seed in range(3):
            m = load_calibration(synth_calibration(n, n, 10 * n + seed,
                                                   jitter_durations=True))
            t = build_tables(m)
            # sparse circuits leave several components and isolated qubits
            yield m, t, gen_random(n * n, 2 * n, seed)
            yield m, t, gen_random(n + seed, 8 * n, seed)
    yield big


class TestGoldenPlacements:
    def test_placements_are_pinned(self, big):
        cells = []
        for m, t, c in golden_cases(big):
            pg = build_program_graph(c)
            for mapper in (greedy_vertex_map, greedy_edge_map):
                p = mapper(pg, m, t)
                cells.append([m.cell_id(p.loc[q]) for q in range(c.num_qubits)])
        digest = hashlib.sha256(json.dumps(cells).encode()).hexdigest()
        assert digest == "37c60cea93f799016b99f140904b485944c9c4ae1b3b43b093f7ba1443b25c2b"

    def test_frontier_ranks_pick_different_next_qubits(self):
        # Qubit 2 (degree 3) and qubit 5 (two CNOTs with qubit 1) both join
        # the placed set only through qubit 1, so whichever is placed first
        # takes the lower-numbered free neighbour of 1's cell. greedy-v ranks
        # by degree and places 2 first; greedy-e ranks by the heavier edge
        # into the placed set and places 5 first.
        m, t = machine(3, 3)
        ops = [("cx", (0, 1))] * 3 + [("cx", (1, 5))] * 2 \
            + [("cx", (1, 2)), ("cx", (2, 3)), ("cx", (2, 4))]
        pg = build_program_graph(build_circuit(6, 0, ops))
        pv = greedy_vertex_map(pg, m, t)
        assert [m.cell_id(pv.loc[q]) for q in range(6)] == [1, 4, 3, 0, 6, 5]
        pe = greedy_edge_map(pg, m, t)
        assert [m.cell_id(pe.loc[q]) for q in range(6)] == [0, 1, 4, 3, 5, 2]


# ------------------------------------------------- scalar scoring oracle ---

def scalar_best_free_cell(anchors, free, bp):
    """The reference scorer: math.log of every best-path reliability, taken
    anew at every placement, with the mapper's tie rule."""
    best_cell, best_score = None, None
    for cell in free:
        s = 0.0
        for other, w in anchors:
            s += w * math.log(bp[(cell, other)][1])
        if best_score is None or s > best_score + 1e-15:
            best_cell, best_score = cell, s
    return best_cell


def scalar_greedy_map(pg, m, t, seed, rank):
    """heuristic._greedy_map with anchors passed as cells to the scalar scorer."""
    nbrs = {q: [] for q in pg.nodes}
    for (a, b), w in pg.edges.items():
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    n_connected = sum(1 for q in pg.nodes if nbrs[q])
    placed, free, frontier = {}, list(range(m.num_cells)), []

    def place(q, cell):
        placed[q] = cell
        free.remove(cell)
        for other, _w in nbrs[q]:
            if other not in placed:
                heapq.heappush(frontier, (rank(other, q), other))

    while len(placed) < n_connected:
        while frontier and frontier[0][1] in placed:
            heapq.heappop(frontier)
        if not frontier:
            for q, cell in seed(placed, free):
                place(q, cell)
            continue
        q = heapq.heappop(frontier)[1]
        anchors = [(placed[o], w) for o, w in nbrs[q] if o in placed]
        place(q, scalar_best_free_cell(anchors, free, t.best_paths))
    isolated = [q for q in heuristic._degree_order(pg) if q not in placed]
    for q, cell in zip(isolated, heuristic._by_readout(m, free)):
        placed[q] = cell
    return Placement(loc={q: m.pos(cl) for q, cl in placed.items()})


def oracle_cases():
    """(machine, tables, circuit) over 1xN, jittered 2x8 and nxn grids, an
    all-zero-error grid, full occupancy and several components."""
    for n in (2, 3, 5, 9, 16):
        m = load_calibration(synth_calibration(1, n, n))
        yield m, build_tables(m), gen_random(n, 4 * n, n)
    for seed in range(3):
        m = load_calibration(synth_calibration(2, 8, seed, jitter_durations=True))
        t = build_tables(m)
        yield m, t, gen_random(10 + seed, 40, seed)
        yield m, t, gen_random(16, 64, seed)   # full occupancy
    for n in range(3, 9):
        m = load_calibration(synth_calibration(n, n, 7 * n, jitter_durations=True))
        t = build_tables(m)
        yield m, t, gen_random(n * n, 3 * n, n)   # components and isolated qubits
        yield m, t, gen_random(n * n, 8 * n * n, n + 1)   # full occupancy
        yield m, t, gen_random(n + 2, 10 * n, n + 2)
    for n in (3, 6):
        m, t = machine(n, n, cnot_error=0.0, readout_error=0.0)
        yield m, t, gen_random(n * n - 1, 6 * n, n)
        yield m, t, disjoint_pairs(n)
    for seed in (1, 6, 9, 12):
        m = load_calibration(synth_calibration(2, 3, seed))
        yield m, build_tables(m), disjoint_pairs(seed)


class TestScalarOracle:
    def test_placements_match_the_scalar_scoring(self, monkeypatch):
        placements = []
        for m, t, c in oracle_cases():
            pg = build_program_graph(c)
            placements.append([(mapper(pg, m, t).loc, mapper)
                               for mapper in (greedy_vertex_map, greedy_edge_map)])
        monkeypatch.setattr(heuristic, "_greedy_map", scalar_greedy_map)
        for (m, t, c), got in zip(oracle_cases(), placements):
            pg = build_program_graph(c)
            for loc, mapper in got:
                assert loc == mapper(pg, m, t).loc, (m.mx, m.my, c.num_qubits, mapper)

    def test_all_ties_go_to_the_lowest_free_cell(self):
        free = [2, 3, 5, 8]
        zeros = [0.0] * 9
        assert heuristic._best_free_cell([(zeros, 3), (zeros, 1)], free) == 2
