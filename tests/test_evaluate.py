"""Evaluation oracle tests: the simulator is pinned to hand-computed
distributions, the samplers to analytic success probabilities, and the
enumerator to the exact solver."""

import csv
import dataclasses
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from nisqc.circuit import GateKind, build_circuit, gen_bv, gen_random
from nisqc.codegen import expand
from nisqc.evaluate import (
    EquivalenceResult,
    EvalReport,
    _wire_sequences,
    brute_force_optimal,
    equivalence_check,
    monte_carlo_success,
    reliability_score,
    write_report,
)
from nisqc.heuristic import GreedyPolicy, HeuristicConfig, heuristic_compile
from nisqc.machine import build_tables, canonical_junction, load_calibration, synth_calibration
from nisqc.optimal import solve_exact
from nisqc.schedule import Infeasible, ProblemConfig, solution_from_assignment

from statevector import _apply_single, compiled_as_circuit, statevector_sim
from test_optimal import EXACT_VARIANTS, shared_clbit_instances, with_readouts


def udoc(mx, my, **over):
    d = {
        "t2": 1000, "readout_error": 0.07, "readout_duration": 12,
        "cnot_error": 0.1, "cnot_duration": 2, "single_qubit_duration": 1,
        "single_qubit_error": 0.001, "static_tau_cnot": 2,
        "static_coherence_bound": 1000,
    }
    d.update(over)
    return {"grid": {"mx": mx, "my": my}, "defaults": d}


def assigned(c, m, cells, variant="t-smt-star", **cfg_over):
    cfg = ProblemConfig(variant=variant, **cfg_over)
    t = build_tables(m)
    junctions = tuple(
        canonical_junction(t, cells[g.operands[0]], cells[g.operands[1]])
        for g in c.gates if g.kind is GateKind.CNOT)
    return solution_from_assignment(c, m, cfg, cells, junctions, tables=t)


def toffoli_with_inputs(a, b):
    ops = [("x", (q,)) for q, bit in ((0, a), (1, b)) if bit]
    ops += [
        ("h", (2,)), ("cx", (1, 2)), ("tdg", (2,)), ("cx", (0, 2)),
        ("t", (2,)), ("cx", (1, 2)), ("tdg", (2,)), ("cx", (0, 2)),
        ("t", (1,)), ("t", (2,)), ("h", (2,)), ("cx", (0, 1)),
        ("t", (0,)), ("tdg", (1,)), ("cx", (0, 1)),
    ]
    ops += [("measure", (q,), q) for q in range(3)]
    return build_circuit(3, 3, ops)


def random_measured_circuit(rng):
    """1-6 qubits, some put in superposition first, and up to six
    mid-circuit measurements into up to four clbits, so clbits are rewritten
    and some are never written; each qubit may end in a measurement."""
    n, nc = rng.randint(1, 6), rng.randint(1, 4)
    ops, n_mid = [("h", (q,)) for q in range(n) if rng.random() < 0.6], 0
    for _ in range(rng.randint(0, 14)):
        r = rng.random()
        if r < 0.35 and n_mid < 6:
            ops.append(("measure", (rng.randrange(n),), rng.randrange(nc)))
            n_mid += 1
        elif r < 0.6 and n > 1:
            ops.append(("cx", tuple(rng.sample(range(n), 2))))
        else:
            ops.append((rng.choice(["h", "x", "y", "z", "s", "sdg", "t", "tdg"]),
                        (rng.randrange(n),)))
    ops += [("measure", (q,), rng.randrange(nc)) for q in range(n) if rng.random() < 0.3]
    return n, nc, ops


class TestStatevector:
    def test_deferred_measurements_match_forced_branching(self):
        # z; z right after a measurement is the identity, but it makes every
        # measurement one whose qubit a later gate touches, so every one
        # branches; the plain circuit defers its terminal measurements
        rng = random.Random(17)
        for _ in range(300):
            n, nc, ops = random_measured_circuit(rng)
            forced = []
            for op in ops:
                forced.append(op)
                if op[0] == "measure":
                    forced += [("z", op[1]), ("z", op[1])]
            got = statevector_sim(build_circuit(n, nc, ops))
            want = statevector_sim(build_circuit(n, nc, forced))
            assert {k for k, v in got.items() if v > 1e-12} == \
                {k for k, v in want.items() if v > 1e-12}, ops
            for k in set(got) | set(want):
                assert abs(got.get(k, 0.0) - want.get(k, 0.0)) <= 1e-12, ops

    def test_measurement_before_a_gate_collapses(self):
        # deferred to the end, the measurement would read H H |0> = |0>
        c = build_circuit(1, 1, [("h", (0,)), ("measure", (0,), 0), ("h", (0,))])
        assert statevector_sim(c) == pytest.approx({"0": 0.5, "1": 0.5}, abs=1e-12)

    def test_later_measurement_overwrites_a_deferred_clbit(self):
        # q0's measurement is terminal and deferred; q1's is not, and it
        # writes the same clbit last
        c = build_circuit(2, 1, [("x", (0,)), ("measure", (0,), 0),
                                 ("measure", (1,), 0), ("h", (1,))])
        assert statevector_sim(c) == pytest.approx({"0": 1.0})

    def test_diagonal_gates_scale_the_one_half(self):
        # diag(phase, 1) is the conjugate of diag(1, phase) up to a global
        # phase, which no distribution tells apart, so compare states
        phases = {GateKind.Z: -1, GateKind.S: 1j, GateKind.SDG: -1j,
                  GateKind.T: np.exp(1j * math.pi / 4), GateKind.TDG: np.exp(-1j * math.pi / 4)}
        rng = np.random.default_rng(5)
        for kind, phase in phases.items():
            for q in range(3):
                state = rng.normal(size=8) + 1j * rng.normal(size=8)
                want = state * np.array([phase if (i >> q) & 1 else 1 for i in range(8)])
                _apply_single(state, 3, q, kind, np.empty(12, complex))
                assert np.allclose(state, want, rtol=0, atol=1e-15), (kind, q)

    def test_h_x_y_match_their_matrices(self):
        s = 1 / math.sqrt(2)
        mats = {GateKind.H: np.array([[s, s], [s, -s]]), GateKind.X: np.array([[0, 1], [1, 0]]),
                GateKind.Y: np.array([[0, -1j], [1j, 0]])}
        rng = np.random.default_rng(8)
        for kind, mat in mats.items():
            for n in (1, 3, 5):
                for q in range(n):
                    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                    # qubit q is axis n-1-q of the (2,)*n view
                    want = np.moveaxis(np.tensordot(mat, np.moveaxis(
                        state.reshape([2] * n), n - 1 - q, 0), axes=1), 0, n - 1 - q)
                    _apply_single(state, n, q, kind, np.empty(3 << n >> 1, complex))
                    assert np.allclose(state, want.reshape(-1), rtol=0, atol=1e-12), (kind, n, q)

    def test_bv_is_deterministic_on_its_hidden_string(self):
        for s in ("111", "101", "010"):
            dist = statevector_sim(gen_bv(4, s))
            assert dist[s] == pytest.approx(1.0, abs=1e-12)
            assert len(dist) == 1

    def test_hadamard_splits_evenly(self):
        c = build_circuit(1, 1, [("h", (0,)), ("measure", (0,), 0)])
        dist = statevector_sim(c)
        assert dist["0"] == pytest.approx(0.5, abs=1e-12)
        assert dist["1"] == pytest.approx(0.5, abs=1e-12)

    def test_clbit_zero_is_leftmost(self):
        c = build_circuit(2, 2, [("x", (0,)),
                                 ("measure", (0,), 0), ("measure", (1,), 1)])
        assert statevector_sim(c) == pytest.approx({"10": 1.0})

    def test_unwritten_clbits_read_zero(self):
        c = build_circuit(1, 2, [("h", (0,)), ("measure", (0,), 1)])
        dist = statevector_sim(c)
        assert set(dist) == {"00", "01"}
        assert dist["01"] == pytest.approx(0.5, abs=1e-12)

    def test_toffoli_truth_table(self):
        for a in (0, 1):
            for b in (0, 1):
                dist = statevector_sim(toffoli_with_inputs(a, b))
                assert dist[f"{a}{b}{a & b}"] == pytest.approx(1.0, abs=1e-12)

    def test_norm_survives_long_random_circuits(self):
        c = gen_random(10, 2048, seed=5)
        dist = statevector_sim(c)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_qubit_cap(self):
        with pytest.raises(ValueError, match="simulation cap"):
            statevector_sim(build_circuit(15, 0, []))


class TestEquivalence:
    def bell(self):
        return build_circuit(2, 2, [("h", (0,)), ("cx", (0, 1)),
                                    ("measure", (0,), 0), ("measure", (1,), 1)])

    def test_zero_swap_compilation_passes(self):
        m = load_calibration(udoc(3, 3))
        c = gen_bv(4, "111")
        cc = expand(solve_exact(c, m, ProblemConfig(variant="r-smt-star"),
                                tables=build_tables(m)), c, m)
        assert cc.swap_count == 0
        res = equivalence_check(c, cc)
        assert res.passed and res.total_variation <= 1e-9

    def test_swapped_compilation_passes(self):
        # q3 talks to q2 across a distance-2 route
        m = load_calibration(udoc(1, 4))
        c = gen_bv(4, "111")
        sol = assigned(c, m, (0, 2, 3, 1))
        cc = expand(sol, c, m)
        assert cc.swap_count > 0
        res = equivalence_check(c, cc)
        assert res.passed and res.total_variation <= 1e-9
        assert statevector_sim(compiled_as_circuit(cc))["111"] == \
            pytest.approx(1.0, abs=1e-12)

    def test_dropped_swap_gate_fails(self):
        m = load_calibration(udoc(1, 3))
        c = self.bell()
        cc = expand(assigned(c, m, (0, 2)), c, m)
        assert equivalence_check(c, cc).passed
        swaps = [i for i, pg in enumerate(cc.expanded)
                 if pg.kind is GateKind.CNOT and set(pg.hw_operands) == {0, 1}]
        broken = dataclasses.replace(
            cc, expanded=tuple(pg for i, pg in enumerate(cc.expanded) if i != swaps[1]))
        res = equivalence_check(c, broken)
        assert not res.passed and math.isnan(res.max_deviation) and math.isnan(res.total_variation)
        assert not simulated_passes(c, broken)

    def test_a_source_with_a_wider_register_fails(self):
        # the same gates, with one more clbit that nothing writes
        m = load_calibration(udoc(1, 3))
        c = self.bell()
        wider = build_circuit(2, 3, [(g.kind, g.operands, g.classical_target) for g in c.gates])
        cc = expand(assigned(c, m, (0, 2)), c, m)
        assert equivalence_check(c, cc).passed
        assert not equivalence_check(wider, cc).passed


def simulated_passes(source, cc):
    """The statevector verdict on cc, whatever the normal form says."""
    want, got = statevector_sim(source), statevector_sim(compiled_as_circuit(cc))
    return 0.5 * sum(abs(want.get(k, 0.0) - got.get(k, 0.0))
                     for k in set(want) | set(got)) <= 1e-9


def cross_check_instances():
    """(machine, circuit) pairs: TestSharedClbitSweep's 40 instances, 20
    random circuits with every qubit read into its own clbit on 1x4 to 3x3
    grids, and a source holding its own cx 0,1; cx 1,0; cx 0,1 on 1x3, 2x2
    and 2x3 grids."""
    yield from shared_clbit_instances(40, 21)
    rng = random.Random(7)
    for i in range(20):
        mx, my = rng.choice(((2, 3), (3, 3), (1, 4), (2, 4)))
        nq = rng.randint(2, min(5, mx * my))
        c = with_readouts(gen_random(nq, rng.randint(6, 14), rng.randrange(1000)), range(nq))
        yield load_calibration(synth_calibration(mx, my, rng.randrange(10 ** 6),
                                                 jitter_durations=i % 2 == 1)), c
    cx = GateKind.CNOT
    triple = build_circuit(3, 3, [("h", (0,)), (cx, (0, 1)), (cx, (1, 0)), (cx, (0, 1)),
                                  ("t", (1,)), (cx, (1, 2)), (cx, (2, 0))]
                           + [("measure", (q,), q) for q in range(3)])
    for seed in range(3):
        for mx, my in ((1, 3), (2, 2), (2, 3)):
            yield load_calibration(synth_calibration(mx, my, seed)), triple


_ONE_QUBIT = [GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S, GateKind.SDG,
              GateKind.T, GateKind.TDG]


def stream_mutants(cc, num_clbits, rng):
    """One seeded mutant of cc's stream per kind of fault that applies: a
    dropped gate, a reversed CNOT, another single-qubit kind, another clbit,
    two writes to one clbit run in the other order, and a dropped gate of
    one of expand's SWAP triples."""
    s = cc.expanded
    writes = [(i, j) for i, j in itertools.combinations(range(len(s)), 2)
              if s[i].kind is s[j].kind is GateKind.MEASURE and s[i].clbit == s[j].clbit]
    if writes:
        i, j = rng.choice(writes)
        yield "order", dataclasses.replace(cc, expanded=(
            s[:i] + (s[i]._replace(start=s[j].start),) + s[i + 1:j]
            + (s[j]._replace(start=s[i].start),) + s[j + 1:]))
    picks = {"drop": range(len(s)),
             "reverse": [i for i, g in enumerate(s) if g.kind is GateKind.CNOT],
             "kind": [i for i, g in enumerate(s) if g.kind in _ONE_QUBIT],
             "clbit": [i for i, g in enumerate(s)
                       if g.kind is GateKind.MEASURE and num_clbits > 1],
             "swap": [i + rng.randrange(3) for i in range(len(s) - 2)
                      if all(g.kind is GateKind.CNOT for g in s[i:i + 3])
                      and s[i].hw_operands == s[i + 2].hw_operands == s[i + 1].hw_operands[::-1]]}
    for fault, where in picks.items():
        if not where:
            continue
        i = rng.choice(where)
        g = s[i]
        if fault == "reverse":
            g = (g._replace(hw_operands=g.hw_operands[::-1]),)
        elif fault == "kind":
            g = (g._replace(kind=rng.choice([k for k in _ONE_QUBIT if k is not g.kind])),)
        elif fault == "clbit":
            g = (g._replace(clbit=rng.choice([b for b in range(num_clbits) if b != g.clbit])),)
        else:
            g = ()
        yield fault, dataclasses.replace(cc, expanded=s[:i] + g + s[i + 1:])


class TestNormalForm:
    def test_proves_every_compile_and_no_mutant_the_simulation_rejects(self):
        """Under every exact variant/routing pair and both greedy mappers, the
        normal form proves each compile of the cross-check instances, and the
        statevector agrees. On seeded mutants of each stream, no mutant the
        statevector rejects is proved."""
        rng = random.Random(3)
        compiles, verdicts, wrong = 0, {}, []
        for i, (m, c) in enumerate(cross_check_instances()):
            t = build_tables(m)
            sols = [solve_exact(c, m, ProblemConfig(v, r), tables=t) for v, r in EXACT_VARIANTS]
            sols += [heuristic_compile(c, m, t, HeuristicConfig(p)) for p in GreedyPolicy]
            for sol in sols:
                cc = expand(sol, c, m)
                compiles += 1
                if equivalence_check(c, cc) != EquivalenceResult(True, 0.0, 0.0) \
                        or not simulated_passes(c, cc):
                    wrong.append((i, sol.variant, sol.routing, "unmutated"))
                for fault, mutant in stream_mutants(cc, c.num_clbits, rng):
                    proved = equivalence_check(c, mutant).passed
                    passes = simulated_passes(c, mutant)
                    if proved and not passes:
                        wrong.append((i, sol.variant, sol.routing, fault))
                    verdicts.setdefault(fault, set()).add((proved, passes))
        assert wrong == []
        assert compiles == 414
        # every fault is made, and the statevector rejects some of each kind
        assert all((False, False) in verdicts[f]
                   for f in ("drop", "reverse", "kind", "clbit", "order", "swap"))

    def test_a_triple_is_a_swap_only_when_consecutive_on_both_cells(self):
        cx, h = GateKind.CNOT, GateKind.H
        triple = [(cx, (0, 1), None), (cx, (1, 0), None), (cx, (0, 1), None)]
        assert _wire_sequences(triple + [(h, (0,), None)], {0: 0, 1: 1}) == \
            {1: [(h, (1,), None)]}
        for at, cell in itertools.product((1, 2), (0, 1)):
            wires = _wire_sequences(triple[:at] + [(h, (cell,), None)] + triple[at:],
                                    {0: 0, 1: 1})
            assert [g[0] for g in wires[0]].count(cx) == 3, (at, cell)
        # a SWAP with an empty cell moves the qubit; a gate on an empty cell
        # has no qubit
        assert _wire_sequences(triple + [(h, (0,), None)], {1: 1}) == {1: [(h, (1,), None)]}
        assert _wire_sequences([(h, (0,), None)], {1: 1}) == {None: [(h, (None,), None)]}


class TestReliabilityScore:
    def test_empty_circuit_scores_one(self):
        m = load_calibration(udoc(1, 2))
        c = build_circuit(1, 0, [])
        assert reliability_score(expand(assigned(c, m, (0,)), c, m)) == 1.0

    def test_bv4_zero_swap_value(self):
        m = load_calibration(udoc(3, 3))
        c = gen_bv(4, "111")
        cc = expand(solve_exact(c, m, ProblemConfig(variant="r-smt-star"),
                                tables=build_tables(m)), c, m)
        assert reliability_score(cc) == pytest.approx(0.586376253, abs=1e-9)

    def test_return_swap_flag(self):
        m = load_calibration(udoc(1, 3))
        c = build_circuit(2, 0, [("cx", (0, 1))])
        cc = expand(assigned(c, m, (0, 2)), c, m)
        assert reliability_score(cc) == pytest.approx(0.6561, abs=1e-12)
        assert reliability_score(cc, count_return_swaps=True) == \
            pytest.approx(0.9 ** 7, abs=1e-15)

    def test_power_chain(self):
        m = load_calibration(udoc(1, 2, cnot_error=0.04))
        for n, side in ((16, 1.0), (17, -1.0)):
            c = build_circuit(2, 0, [("cx", (0, 1))] * n)
            cc = expand(assigned(c, m, (0, 1)), c, m)
            score = reliability_score(cc)
            assert score == pytest.approx(0.96 ** n, abs=1e-15)
            assert side * (score - 0.5) > 1e-9


class TestMonteCarlo:
    def test_perfect_gates_always_succeed(self):
        m = load_calibration(udoc(3, 3, cnot_error=0.0, readout_error=0.0))
        c = gen_bv(4, "111")
        cc = expand(solve_exact(c, m, ProblemConfig(variant="r-smt-star"),
                                tables=build_tables(m)), c, m)
        assert monte_carlo_success(cc, 2000, seed=1) == (1.0, 0.0)

    def test_no_scored_gate_is_a_sure_success(self):
        # no CNOT and no readout: no event to draw, whatever the error rates
        m = load_calibration(udoc(1, 2))
        c = build_circuit(1, 0, [("h", (0,))])
        assert monte_carlo_success(expand(assigned(c, m, (0,)), c, m), 1000, seed=1) == \
            (1.0, 0.0)

    def test_tracks_analytic_reliability(self):
        m = load_calibration(udoc(3, 3))
        c = gen_bv(4, "111")
        cc = expand(solve_exact(c, m, ProblemConfig(variant="r-smt-star"),
                                tables=build_tables(m)), c, m)
        p, se = monte_carlo_success(cc, 100_000, seed=7)
        assert abs(p - cc.reliability) <= 3 * se

    def test_single_coin(self):
        m = load_calibration(udoc(1, 1, readout_error=0.5))
        c = build_circuit(1, 1, [("measure", (0,), 0)])
        cc = expand(assigned(c, m, (0,)), c, m)
        p, se = monte_carlo_success(cc, 1_000_000, seed=13)
        assert se == pytest.approx(math.sqrt(p * (1 - p) / 1_000_000))
        assert abs(p - 0.5) <= 0.0015

    def test_deterministic_per_seed(self):
        m = load_calibration(udoc(3, 3))
        c = gen_bv(4, "111")
        cc = expand(solve_exact(c, m, ProblemConfig(variant="r-smt-star"),
                                tables=build_tables(m)), c, m)
        assert monte_carlo_success(cc, 50_000, seed=3) == \
            monte_carlo_success(cc, 50_000, seed=3)

    def test_chunked_draws_stay_calibrated(self):
        # 101 scored gates: the draw's success probability is their product
        m = load_calibration(udoc(1, 2, cnot_error=0.001, t2=10_000))
        c = build_circuit(2, 0, [("cx", (0, 1))] * 101)
        cc = expand(assigned(c, m, (0, 1)), c, m)
        p, se = monte_carlo_success(cc, 100_000, seed=11)
        assert abs(p - 0.999 ** 101) <= 3 * se

    def test_a_billion_trials_is_one_draw(self):
        m = load_calibration(udoc(3, 3))
        c = gen_bv(4, "111")
        cc = expand(solve_exact(c, m, ProblemConfig(variant="r-smt-star"),
                                tables=build_tables(m)), c, m)
        t0 = time.perf_counter()
        p, se = monte_carlo_success(cc, 10 ** 9, seed=2)
        assert time.perf_counter() - t0 < 0.5
        assert abs(p - reliability_score(cc)) <= 3 * se

    def test_rejects_zero_trials(self):
        m = load_calibration(udoc(1, 2))
        c = build_circuit(1, 0, [])
        cc = expand(assigned(c, m, (0,)), c, m)
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_success(cc, 0, seed=1)

    @pytest.mark.parametrize("trials", [10.5, 1.0, True, False, -3, "10", None])
    def test_trials_must_be_an_int_of_at_least_one(self, trials):
        # 10.5 used to divide 10 hits of a 10-trial draw by 10.5; True drew once
        m = load_calibration(udoc(3, 3))
        c = gen_bv(3, "11")
        cc = expand(assigned(c, m, (0, 1, 2)), c, m)
        with pytest.raises(ValueError, match=r"trials must be an int >= 1"):
            monte_carlo_success(cc, trials, seed=0)


class TestBruteForce:
    def test_single_measure_lands_on_best_readout(self):
        doc = udoc(1, 3)
        doc["qubits"] = [
            {"x": 0, "y": 0, "readout_error": 0.3},
            {"x": 0, "y": 1, "readout_error": 0.05},
            {"x": 0, "y": 2, "readout_error": 0.3},
        ]
        m = load_calibration(doc)
        c = build_circuit(1, 1, [("measure", (0,), 0)])
        res = brute_force_optimal(c, m, ProblemConfig(variant="r-smt-star"),
                                  tables=build_tables(m))
        assert res.objective_value == pytest.approx(0.5 * math.log(0.95), abs=1e-15)
        assert res.argmax == (((1,), ()),)

    def test_bv4_target_takes_a_high_degree_cell(self):
        m = load_calibration(udoc(2, 3))
        c = gen_bv(4, "111")
        res = brute_force_optimal(c, m, ProblemConfig(variant="r-smt-star"),
                                  tables=build_tables(m))
        for cells, _ in res.argmax:
            assert cells[3] in (1, 4)

    def test_matches_solve_exact(self):
        m = load_calibration(udoc(2, 2))
        t = build_tables(m)
        for seed in (21, 22, 23):
            c = gen_random(3, 8, seed)
            for variant, routing in (("t-smt", "rr"), ("t-smt-star", "1bp"),
                                     ("r-smt-star", "1bp")):
                cfg = ProblemConfig(variant=variant, routing=routing)
                bf = brute_force_optimal(c, m, cfg, tables=t)
                sol = solve_exact(c, m, cfg, tables=t)
                assert sol.objective_value == bf.objective_value

    def test_relabeling_keeps_the_optimum(self):
        m = load_calibration(udoc(2, 3))
        t = build_tables(m)
        cfg = ProblemConfig(variant="r-smt-star")
        base = brute_force_optimal(gen_bv(4, "111"), m, cfg, tables=t)
        perm = {0: 2, 1: 0, 2: 3, 3: 1}
        c = gen_bv(4, "111")
        relabeled = build_circuit(4, 3, [
            (g.kind, tuple(perm[q] for q in g.operands), g.classical_target)
            for g in c.gates])
        res = brute_force_optimal(relabeled, m, cfg, tables=t)
        assert res.objective_value == base.objective_value

    def test_budget_guard(self):
        m = load_calibration(udoc(4, 4))
        t = build_tables(m)
        # 5 qubits on 16 cells under r-smt-star: the leaf count passes the
        # budget after 115,005 of the 524,160 placements
        ring = build_circuit(5, 0, [("cx", (i % 5, (i + 1) % 5)) for i in range(6)])
        # 6 qubits: the 5,765,760 placements alone exceed it
        idle = build_circuit(6, 0, [])
        for c in (ring, idle):
            with pytest.raises(ValueError, match="instance too large"):
                brute_force_optimal(c, m, ProblemConfig(variant="r-smt-star"), tables=t)

    def test_sizes_an_instance_by_its_leaves(self):
        # 8 CNOTs on 5 qubits over 9 cells: 15,120 placements, one leaf each
        # under t-smt, where rr takes one junction; not 15,120 * 2 ** 8
        m = load_calibration(synth_calibration(3, 3, 1))
        t = build_tables(m)
        c = build_circuit(5, 0, [("cx", (i % 5, (i + 1) % 5)) for i in range(8)])
        cfg = ProblemConfig(variant="t-smt")
        res = brute_force_optimal(c, m, cfg, tables=t, collect_leaves=True)
        assert len(res.leaves) == 15_120
        assert res.objective_value == solve_exact(c, m, cfg, tables=t).objective_value

    def test_more_qubits_than_cells(self):
        m = load_calibration(udoc(1, 2))
        with pytest.raises(ValueError, match="exceed"):
            brute_force_optimal(build_circuit(3, 0, []), m,
                                ProblemConfig(variant="t-smt"), tables=build_tables(m))

    def test_collect_leaves(self):
        m = load_calibration(udoc(1, 2))
        c = build_circuit(2, 0, [("cx", (0, 1))])
        res = brute_force_optimal(c, m, ProblemConfig(variant="r-smt-star"),
                                  collect_leaves=True, tables=build_tables(m))
        assert len(res.leaves) == 2
        assert {leaf.cells for leaf in res.leaves} == {(0, 1), (1, 0)}
        assert all(leaf.makespan == 2 for leaf in res.leaves)
        assert all(leaf.objective == pytest.approx(0.5 * math.log(0.9))
                   for leaf in res.leaves)
        assert len(res.argmax) == 2


class TestWriteReport:
    def report(self, tag):
        return EvalReport(benchmark=tag, variant="t-smt", reliability=0.75,
                          mc_success=0.74, stderr=0.001, trials=1000,
                          makespan=42, swaps=2, compile_time_s=0.125,
                          equivalence_passed=True)

    def test_csv_shape_and_float_round_trip(self, tmp_path):
        path = tmp_path / "report.csv"
        csv_path, json_path = write_report(
            [self.report("bv4"), self.report("bv4")], str(path))
        assert csv_path == str(path)
        with open(csv_path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["benchmark", "variant", "reliability", "mc_success",
                           "stderr", "makespan", "swaps", "compile_time_s"]
        assert len(rows) == 3
        assert float(rows[1][2]) == 0.75
        assert rows[1] == rows[2]

    def test_json_dump_round_trips(self, tmp_path):
        csv_path, json_path = write_report(
            [self.report("toffoli")], str(tmp_path / "out"))
        assert csv_path.endswith(".csv") and json_path.endswith(".json")
        with open(json_path) as f:
            docs = json.load(f)
        assert docs == [dataclasses.asdict(self.report("toffoli"))]
