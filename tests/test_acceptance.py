"""Acceptance suite: one test per shipping criterion, each line in the -v
output is that criterion's pass/fail verdict.

The exact-solver criteria cross-check solve_exact against the exhaustive
enumerator on a shared instance pool (session fixture, built once); the
remaining criteria pin frozen arithmetic, semantic preservation, statistical
calibration, exclusion soundness, and wall-clock scalability.
"""

import dataclasses
import itertools
import math
import random
import time

import pytest

from nisqc.circuit import GateKind, build_circuit, gen_bv, gen_random, gen_toffoli
from nisqc.codegen import expand
from nisqc.evaluate import (
    brute_force_optimal,
    check_solution,
    equivalence_check,
    monte_carlo_success,
    reliability_score,
)
from nisqc.heuristic import HeuristicConfig, heuristic_compile
from nisqc.machine import (
    build_tables,
    cnot_walk,
    load_calibration,
    price_walk,
    route_cells,
    static_cnot_duration,
    synth_calibration,
)
from nisqc.optimal import solve_exact
from nisqc.schedule import ProblemConfig

from search_order import first_in_search_order, placement_cells
from statevector import compiled_as_circuit, statevector_sim


def udoc(mx, my, **over):
    d = {
        "t2": 1000, "readout_error": 0.07, "readout_duration": 12,
        "cnot_error": 0.1, "cnot_duration": 2, "single_qubit_duration": 1,
        "single_qubit_error": 0.001, "static_tau_cnot": 2,
        "static_coherence_bound": 1000,
    }
    d.update(over)
    return {"grid": {"mx": mx, "my": my}, "defaults": d}


ALL_COMBOS = (
    ("t-smt", "rr"),
    ("t-smt", "1bp"),
    ("t-smt-star", "rr"),
    ("t-smt-star", "1bp"),
    ("r-smt-star", "1bp"),
)


# ------------------------------------------------------ instance builders ---

def capped_random(nq, ngates, seed, max_cnots, n_measures):
    """Seeded random circuit with a CNOT cap (keeps enumeration budgets flat)
    and a measured suffix so reliability objectives see readouts."""
    base = gen_random(nq, ngates - n_measures, seed)
    ops = []
    cnots = 0
    for g in base.gates:
        if g.kind is GateKind.CNOT:
            cnots += 1
            if cnots > max_cnots:
                ops.append((GateKind.H, (g.operands[0],), None))
                continue
        ops.append((g.kind, g.operands, None))
    rng = random.Random(seed * 7919 + 13)
    for i, q in enumerate(rng.sample(range(nq), n_measures)):
        ops.append((GateKind.MEASURE, (q,), i))
    return build_circuit(nq, max(n_measures, 1), ops)


def bv_fanin(nq):
    """The BV CNOT fan-in core: every data qubit hits the ancilla, then reads."""
    ops = [(GateKind.CNOT, (i, nq - 1), None) for i in range(nq - 1)]
    ops += [(GateKind.MEASURE, (i,), i) for i in range(nq - 1)]
    return build_circuit(nq, nq - 1, ops)


def pool_instances():
    """>=200 instances across 2x2 / 2x3 / 3x2 synthetic calibrations, plus
    2x3 / 3x2 ones with jittered edge durations."""
    out = []
    for seed in range(60):
        out.append((f"2x2-r3-{seed}", capped_random(3, 8, seed, 5, 2), "2x2"))
    for seed in range(60):
        out.append((f"2x2-r4-{seed}",
                    capped_random(4, 9, 1000 + seed, 5, seed % 3 + 1), "2x2"))
    for seed in range(36):
        out.append((f"2x3-r4-{seed}", capped_random(4, 10, 2000 + seed, 4, 3), "2x3"))
    for seed in range(36):
        out.append((f"3x2-r4-{seed}", capped_random(4, 10, 3000 + seed, 4, 2), "3x2"))
    for i, s in enumerate(("1", "0")):
        out.append((f"2x3-bv2-{s}", gen_bv(2, s), "2x3"))
        out.append((f"3x2-bv2-{s}", gen_bv(2, s), "3x2"))
    for i, s in enumerate(("11", "10", "01")):
        out.append((f"2x3-bv3-{s}", gen_bv(3, s), "2x3"))
        out.append((f"3x2-bv3-{s}", gen_bv(3, s), "3x2"))
    out.append(("2x3-fanin3", bv_fanin(3), "2x3"))
    out.append(("2x3-fanin4", bv_fanin(4), "2x3"))
    out.append(("3x2-fanin3", bv_fanin(3), "3x2"))
    out.append(("3x2-fanin4", bv_fanin(4), "3x2"))
    # Jittered edge durations: the two junctions of a bent route take
    # different times to walk. Toffoli's triangle and a 5-qubit fan-in force
    # a bent route on these grids.
    for mkey in ("2x3j", "3x2j"):
        out.append((f"{mkey}-toffoli", gen_toffoli(), mkey))
        out.append((f"{mkey}-fanin5", bv_fanin(5), mkey))
        for seed in range(6):
            out.append((f"{mkey}-r3-{seed}", capped_random(3, 8, 4000 + seed, 5, 2), mkey))
    return out


def leaf_product_objective(m, tables, c, omega, cells, junctions):
    """exp-domain counterpart of the weighted log objective: the same ε,
    multiplied in gate order, so it agrees with the log sum to within
    rounding and its argmax is compared with a relative tolerance."""
    prod_ro = prod_cx = 1.0
    ji = 0
    for g in c.gates:
        if g.kind is GateKind.CNOT:
            a, b = cells[g.operands[0]], cells[g.operands[1]]
            prod_cx *= tables.cnot_rel[(a, b, junctions[ji])]
            ji += 1
        elif g.kind is GateKind.MEASURE:
            prod_ro *= 1.0 - m.qubits[cells[g.operands[0]]].readout_error
    return (prod_ro ** omega) * (prod_cx ** (1.0 - omega))


@dataclasses.dataclass
class PoolResults:
    n_instances: int
    n_solutions: int
    objective_mismatches: list
    tie_rule_mismatches: list
    verifier_violations: list
    argmax_mismatches: list
    equivalence_failures: list
    mc_pool: list
    elapsed_s: float


@pytest.fixture(scope="session")
def pool():
    machines = {
        "2x2": load_calibration(synth_calibration(2, 2, 41)),
        "2x3": load_calibration(synth_calibration(2, 3, 42)),
        "3x2": load_calibration(synth_calibration(3, 2, 43)),
        "2x3j": load_calibration(synth_calibration(2, 3, 44, jitter_durations=True)),
        "3x2j": load_calibration(synth_calibration(3, 2, 47, jitter_durations=True)),
    }
    tables = {key: build_tables(m) for key, m in machines.items()}
    res = PoolResults(0, 0, [], [], [], [], [], [], 0.0)
    t0 = time.perf_counter()
    for label, c, mkey in pool_instances():
        m, t = machines[mkey], tables[mkey]
        res.n_instances += 1
        for variant, routing in ALL_COMBOS:
            cfg = ProblemConfig(variant=variant, routing=routing)
            collect = variant == "r-smt-star"
            bf = brute_force_optimal(c, m, cfg, tables=t, collect_leaves=collect)
            sol = solve_exact(c, m, cfg, tables=t)
            res.n_solutions += 1
            if sol.objective_value != bf.objective_value:
                res.objective_mismatches.append(
                    (label, variant, routing, sol.objective_value, bf.objective_value))
            # ties go to the first optimum in search order; a CNOT's walk
            # fixes its junction, so the keys compare as walks
            cells, junctions = first_in_search_order(c, bf.argmax)
            want = (cells, tuple(cnot_walk(m, cells[g.operands[0]], cells[g.operands[1]], j)
                                 for g, j in zip(c.cnot_gates(), junctions)))
            key = (placement_cells(sol, m), tuple(sol.gate_routes[g.id] for g in c.cnot_gates()))
            if sol.optimal and key != want:
                res.tie_rule_mismatches.append((label, variant, routing, key, want))
            bad = check_solution(sol, c, m, cfg, tables=t)
            if bad:
                res.verifier_violations.append((label, variant, routing, bad))
            cc = expand(sol, c, m)
            eq = equivalence_check(c, cc)
            if not eq.passed:
                res.equivalence_failures.append(
                    (label, variant, routing, eq.total_variation))
            if collect:
                best_log = max(leaf.objective for leaf in bf.leaves)
                tol_log = 1e-12 * max(1.0, abs(best_log))
                by_log = {(leaf.cells, leaf.junctions) for leaf in bf.leaves
                          if leaf.objective >= best_log - tol_log}
                prods = {
                    (leaf.cells, leaf.junctions):
                        leaf_product_objective(m, t, c, cfg.omega,
                                               leaf.cells, leaf.junctions)
                    for leaf in bf.leaves}
                best_prod = max(prods.values())
                by_prod = {key for key, v in prods.items()
                           if v >= best_prod * (1.0 - 1e-12)}
                if by_log != by_prod:
                    res.argmax_mismatches.append((label, by_log ^ by_prod))
                if len(res.mc_pool) < 20:
                    res.mc_pool.append(cc)
    res.elapsed_s = time.perf_counter() - t0
    return res


# ------------------------------------------------------------- criteria ---

def test_criterion_01_exact_solver_matches_enumeration(pool):
    assert pool.n_instances >= 200
    assert pool.objective_mismatches == []
    assert pool.tie_rule_mismatches == []
    assert pool.verifier_violations == []
    assert pool.elapsed_s < 300.0


def test_criterion_02_one_swap_route_reliability():
    m = load_calibration(udoc(1, 3))
    assert abs(price_walk(m, (0, 1, 2))[1] - 0.6561) <= 1e-12


def test_criterion_03_static_duration_formula():
    m = load_calibration(udoc(1, 6))
    got = [static_cnot_duration(d, m) for d in range(1, 6)]
    # the paper's 2 (d - 1) tau_swap + tau_cnot, a SWAP being three CNOTs
    tau_swap = 3 * m.static_tau_cnot
    assert got == [2 * (d - 1) * tau_swap + m.static_tau_cnot for d in range(1, 6)]
    assert got == [2, 14, 26, 38, 50]


@pytest.fixture(scope="session")
def zero_movement():
    m = load_calibration(udoc(3, 3))
    t = build_tables(m)
    c = gen_bv(4, "111")
    compiled = {"r-smt-star": expand(
        solve_exact(c, m, ProblemConfig(variant="r-smt-star"), tables=t), c, m)}
    for policy in ("greedy-v", "greedy-e"):
        compiled[policy] = expand(
            heuristic_compile(c, m, t, HeuristicConfig(policy=policy)), c, m)
    return m, t, c, compiled


def test_criterion_04_bv4_zero_movement_beats_every_swapped_placement(zero_movement):
    m, t, c, compiled = zero_movement
    assert all(cc.swap_count == 0 for cc in compiled.values())
    ours = min(reliability_score(cc) for cc in compiled.values())

    pairs = [(g.operands[0], g.operands[1]) for g in c.gates
             if g.kind is GateKind.CNOT]
    measured = [g.operands[0] for g in c.gates if g.kind is GateKind.MEASURE]
    best_swapped = 0.0
    for cells in itertools.permutations(range(m.num_cells), c.num_qubits):
        choice_sets = [t.junctions[(cells[a], cells[b])] for a, b in pairs]
        if all(len(route_cells(m, cells[a], cells[b], js[0])) == 2
               for (a, b), js in zip(pairs, choice_sets)):
            continue  # zero-movement placement
        for combo in itertools.product(*choice_sets):
            rel = 1.0
            for (a, b), j in zip(pairs, combo):
                rel *= price_walk(m, route_cells(m, cells[a], cells[b], j))[1]
            for q in measured:
                rel *= 1.0 - m.qubits[cells[q]].readout_error
            best_swapped = max(best_swapped, rel)
    assert ours > best_swapped


@pytest.fixture(scope="session")
def toffoli_compilations():
    c = gen_toffoli()
    out = []
    for dims in ((1, 3), (2, 2), (2, 3), (3, 3)):
        m = load_calibration(udoc(*dims))
        t = build_tables(m)
        for variant in ("t-smt", "t-smt-star", "r-smt-star"):
            sol = solve_exact(c, m, ProblemConfig(variant=variant), tables=t)
            out.append((f"{dims} {variant}", c, expand(sol, c, m)))
    for dims in ((1, 3), (2, 2), (2, 3), (3, 3), (2, 8), (4, 4)):
        m = load_calibration(udoc(*dims))
        t = build_tables(m)
        for policy in ("greedy-v", "greedy-e"):
            sol = heuristic_compile(c, m, t, HeuristicConfig(policy=policy))
            out.append((f"{dims} {policy}", c, expand(sol, c, m)))
    return out


def test_criterion_05_toffoli_always_needs_a_swap_pair(toffoli_compilations):
    # the CNOT triangle is an odd cycle; every 2-D grid is bipartite
    for label, _, cc in toffoli_compilations:
        assert cc.swap_count >= 2, label


@pytest.fixture(scope="session")
def bad_edge_setup():
    doc = udoc(2, 8, cnot_error=0.02)
    doc["edges"] = [{"a": [0, 3], "b": [1, 3], "cnot_error": 0.30}]
    m = load_calibration(doc)
    t = build_tables(m)
    c = gen_bv(4, "111")
    bad = frozenset((m.cell_id((0, 3)), m.cell_id((1, 3))))

    def uses_bad_edge(cells, junctions):
        ji = 0
        for g in c.gates:
            if g.kind is not GateKind.CNOT:
                continue
            route = route_cells(m, cells[g.operands[0]], cells[g.operands[1]],
                                junctions[ji])
            ji += 1
            if any(frozenset(h) == bad for h in zip(route, route[1:])):
                return True
        return False

    return m, t, c, bad, uses_bad_edge


def test_criterion_06_reliability_variant_avoids_the_noisy_edge(bad_edge_setup):
    m, t, c, bad, uses_bad_edge = bad_edge_setup

    r_cfg = ProblemConfig(variant="r-smt-star")
    r_bf = brute_force_optimal(c, m, r_cfg, tables=t)
    r_sol = solve_exact(c, m, r_cfg, tables=t)
    assert r_sol.objective_value == r_bf.objective_value
    r_cc = expand(r_sol, c, m)
    assert all(frozenset(pg.hw_operands) != bad for pg in r_cc.expanded
               if pg.kind is GateKind.CNOT)
    assert not any(uses_bad_edge(cells, js) for cells, js in r_bf.argmax)

    t_cfg = ProblemConfig(variant="t-smt-star", routing="1bp")
    t_bf = brute_force_optimal(c, m, t_cfg, tables=t, collect_leaves=True)
    best_span = t_bf.objective_value
    argmax_t = [(leaf.cells, leaf.junctions) for leaf in t_bf.leaves
                if leaf.objective == best_span]
    users = [key for key in argmax_t if uses_bad_edge(*key)]
    avoiders = [key for key in argmax_t if not uses_bad_edge(*key)]
    assert users and avoiders  # duration objective is blind to the noise

    def r_objective(cells, junctions):
        omega = r_cfg.omega
        sum_ro = sum_cx = 0.0
        ji = 0
        for g in c.gates:
            if g.kind is GateKind.CNOT:
                a, b = cells[g.operands[0]], cells[g.operands[1]]
                sum_cx += math.log(t.cnot_rel[(a, b, junctions[ji])])
                ji += 1
            elif g.kind is GateKind.MEASURE:
                sum_ro += math.log(1.0 - m.qubits[cells[g.operands[0]]].readout_error)
        return omega * sum_ro + (1.0 - omega) * sum_cx

    assert max(map(lambda k: r_objective(*k), avoiders)) > \
        max(map(lambda k: r_objective(*k), users))


def test_criterion_07_log_and_product_argmax_agree(pool):
    assert pool.argmax_mismatches == []


def test_criterion_08_semantic_preservation(pool, zero_movement,
                                            toffoli_compilations, bad_edge_setup):
    assert pool.equivalence_failures == []

    _, _, bv4, compiled = zero_movement
    for cc in compiled.values():
        assert equivalence_check(bv4, cc).total_variation <= 1e-9
    for label, c, cc in toffoli_compilations:
        assert equivalence_check(c, cc).total_variation <= 1e-9, label
    m, t, c, _, _ = bad_edge_setup
    for variant in ("r-smt-star", "t-smt-star"):
        cc = expand(solve_exact(c, m, ProblemConfig(variant=variant), tables=t), c, m)
        assert equivalence_check(c, cc).total_variation <= 1e-9

    m = load_calibration(udoc(3, 3))
    tables = build_tables(m)
    cfg = HeuristicConfig(policy="greedy-v")
    rng = random.Random(99)
    for n in range(2, 9):
        strings = {"".join(rng.choice("01") for _ in range(n - 1))
                   for _ in range(20)}
        for s in strings:
            c = gen_bv(n, s)
            cc = expand(heuristic_compile(c, m, tables, cfg), c, m)
            res = equivalence_check(c, cc)
            assert res.passed, (n, s)
            assert statevector_sim(compiled_as_circuit(cc))[s] == \
                pytest.approx(1.0, abs=1e-9), (n, s)


def test_criterion_09_monte_carlo_tracks_analytic_reliability(pool):
    assert len(pool.mc_pool) == 20
    for cc in pool.mc_pool:
        p, se = monte_carlo_success(cc, 100_000, seed=1234)
        rel = reliability_score(cc, cc.count_return_swaps)
        assert abs(p - rel) <= 3 * max(se, 1e-12), cc.variant
    cc = pool.mc_pool[0]
    assert monte_carlo_success(cc, 100_000, seed=1234) == \
        monte_carlo_success(cc, 100_000, seed=1234)


def test_criterion_10_product_reliability_threshold():
    m = load_calibration(udoc(1, 2, cnot_error=0.04))
    scores = {}
    for n in (16, 17):
        c = build_circuit(2, 0, [(GateKind.CNOT, (0, 1), None)] * n)
        sol = solve_exact(c, m, ProblemConfig(variant="t-smt-star"), tables=build_tables(m))
        scores[n] = reliability_score(expand(sol, c, m))
    assert scores[17] < 0.5 - 1e-9
    assert scores[16] > 0.5 + 1e-9


def test_criterion_11_no_exclusion_violations_in_1000_instances():
    grids = {
        "2x2": load_calibration(synth_calibration(2, 2, 51)),
        "2x3": load_calibration(synth_calibration(2, 3, 52)),
    }
    tables = {key: build_tables(m) for key, m in grids.items()}
    violations = []
    for seed in range(1000):
        mkey = "2x2" if seed < 800 else "2x3"
        m, t = grids[mkey], tables[mkey]
        c = capped_random(3 + seed % 2, 8, 10_000 + seed, 4, 2)
        variant, routing = ("t-smt-star", "rr") if seed % 2 else ("r-smt-star", "1bp")
        cfg = ProblemConfig(variant=variant, routing=routing)
        sol = solve_exact(c, m, cfg, tables=t)
        bad = check_solution(sol, c, m, cfg, tables=t)
        if bad:
            violations.append((seed, bad))
    assert violations == []


def test_criterion_12_heuristic_scales_and_exact_degrades_gracefully():
    m = load_calibration(udoc(12, 12, t2=10 ** 6))
    t = build_tables(m)
    c = gen_random(128, 2048, seed=7)
    t0 = time.perf_counter()
    sol = heuristic_compile(c, m, t, HeuristicConfig(policy="greedy-e"))
    dt = time.perf_counter() - t0
    assert dt < 5.0
    assert len(sol.schedule.start) == 2048

    # Neither variant proves this instance in 30 s on a 2-vCPU machine.
    m = load_calibration(udoc(4, 4))
    t = build_tables(m)
    c = gen_random(14, 64, seed=8)
    for variant in ("t-smt-star", "r-smt-star"):
        cfg = ProblemConfig(variant=variant, time_limit=1.0)
        t0 = time.perf_counter()
        sol = solve_exact(c, m, cfg, tables=t)
        dt = time.perf_counter() - t0
        assert sol.optimal is False
        assert dt < 1.0 + 2.0
        assert check_solution(sol, c, m, cfg, tables=t) == []
