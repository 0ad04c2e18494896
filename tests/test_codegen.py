"""Expansion tests: SWAP chains are checked gate by gate against hand-computed
streams, and every compiled artifact must re-parse and round-trip."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
from operator import itemgetter
from pathlib import Path

import pytest

from nisqc.circuit import (
    GateKind,
    build_circuit,
    build_program_graph,
    gen_bv,
    gen_random,
    gen_toffoli,
    parse_circuit,
)
from nisqc.cli import main
from nisqc.codegen import (
    CodegenError,
    CompiledCircuit,
    PhysGate,
    emit_qasm,
    expand,
    from_record,
    record_to_json,
    to_record,
)
from nisqc.evaluate import (
    EquivalenceResult,
    check_solution,
    equivalence_check,
)
from nisqc.heuristic import (
    GreedyPolicy,
    HeuristicConfig,
    greedy_edge_map,
    greedy_vertex_map,
    heuristic_compile,
)
from nisqc.machine import build_tables, canonical_junction, load_calibration, synth_calibration
from nisqc.optimal import SolverTimeout, solve_exact
from nisqc.schedule import (
    Infeasible,
    ProblemConfig,
    Routing,
    Schedule,
    Variant,
    build_solution,
    solution_from_assignment,
    weighted_log_sum,
)


def udoc(mx, my, **over):
    d = {
        "t2": 1000, "readout_error": 0.07, "readout_duration": 12,
        "cnot_error": 0.1, "cnot_duration": 2, "single_qubit_duration": 1,
        "single_qubit_error": 0.001, "static_tau_cnot": 2,
        "static_coherence_bound": 1000,
    }
    d.update(over)
    return {"grid": {"mx": mx, "my": my}, "defaults": d}


def line_machine(n, **over):
    return load_calibration(udoc(1, n, **over))


def one_cnot(nq=2):
    return build_circuit(nq, 0, [("cx", (0, 1))])


def assigned(c, m, cells, variant="t-smt-star", **cfg_over):
    cfg = ProblemConfig(variant=variant, **cfg_over)
    t = build_tables(m)
    junctions = tuple(
        canonical_junction(t, cells[g.operands[0]], cells[g.operands[1]])
        for g in c.gates if g.kind is GateKind.CNOT)
    return solution_from_assignment(c, m, cfg, cells, junctions, tables=t)


class TestExpandStreams:
    def test_adjacent_cnot_is_one_physical_gate(self):
        m = line_machine(2)
        sol = assigned(one_cnot(), m, (0, 1))
        cc = expand(sol, one_cnot(), m)
        assert cc.expanded == (PhysGate(GateKind.CNOT, (0, 1), 0, 2),)
        assert cc.swap_count == 0
        assert cc.makespan == 2
        assert cc.eps_route[0] == cc.eps_strict[0] == pytest.approx(0.9, abs=1e-15)

    def test_distance_two_stream(self):
        # route (0,1,2): forward SWAP, the gate, return SWAP, all on dur-2 edges
        m = line_machine(3)
        c = one_cnot()
        sol = assigned(c, m, (0, 2))
        cc = expand(sol, c, m)
        want = (
            PhysGate(GateKind.CNOT, (0, 1), 0, 2),
            PhysGate(GateKind.CNOT, (1, 0), 2, 2),
            PhysGate(GateKind.CNOT, (0, 1), 4, 2),
            PhysGate(GateKind.CNOT, (1, 2), 6, 2),
            PhysGate(GateKind.CNOT, (1, 0), 8, 2),
            PhysGate(GateKind.CNOT, (0, 1), 10, 2),
            PhysGate(GateKind.CNOT, (1, 0), 12, 2),
        )
        assert cc.expanded == want
        assert cc.swap_count == 2
        assert cc.makespan == 14 == sol.schedule.makespan
        assert cc.eps_route[0] == pytest.approx(0.9 ** 4, abs=1e-15)
        assert cc.eps_strict[0] == pytest.approx(0.9 ** 7, abs=1e-15)
        assert cc.reliability == pytest.approx(0.6561, abs=1e-12)

    def test_distance_three_counts(self):
        m = line_machine(4)
        c = one_cnot()
        sol = assigned(c, m, (0, 3))
        cc = expand(sol, c, m)
        kinds = [pg.kind for pg in cc.expanded]
        assert kinds == [GateKind.CNOT] * 13
        assert cc.swap_count == 4
        assert cc.makespan == 6 * 4 + 2

    def test_target_walk_when_control_walk_is_slower(self):
        # edge (0,1) dur 2, edge (1,2) dur 4; control at cell 2 so walking the
        # target from cell 0 is the only fit for the scheduled duration
        doc = udoc(1, 3)
        doc["edges"] = [
            {"a": [0, 0], "b": [0, 1], "cnot_duration": 2},
            {"a": [0, 1], "b": [0, 2], "cnot_duration": 4},
        ]
        m = load_calibration(doc)
        c = one_cnot()
        sol = assigned(c, m, (2, 0))
        assert sol.schedule.dur[0] == 6 * 2 + 4
        cc = expand(sol, c, m)
        want = (
            PhysGate(GateKind.CNOT, (0, 1), 0, 2),
            PhysGate(GateKind.CNOT, (1, 0), 2, 2),
            PhysGate(GateKind.CNOT, (0, 1), 4, 2),
            PhysGate(GateKind.CNOT, (2, 1), 6, 4),
            PhysGate(GateKind.CNOT, (1, 0), 10, 2),
            PhysGate(GateKind.CNOT, (0, 1), 12, 2),
            PhysGate(GateKind.CNOT, (1, 0), 14, 2),
        )
        assert cc.expanded == want
        assert cc.makespan == 16

    def test_static_variant_walks_at_tau(self):
        # per-edge durations differ but t-smt expands every hop at tau
        doc = udoc(1, 3, static_tau_cnot=5)
        doc["edges"] = [
            {"a": [0, 0], "b": [0, 1], "cnot_duration": 2},
            {"a": [0, 1], "b": [0, 2], "cnot_duration": 9},
        ]
        m = load_calibration(doc)
        c = one_cnot()
        sol = assigned(c, m, (0, 2), variant="t-smt")
        cc = expand(sol, c, m)
        assert all(pg.dur == 5 for pg in cc.expanded)
        assert cc.makespan == 7 * 5 == sol.schedule.makespan

    def test_measures_keep_clbits_and_home_cells(self):
        m = load_calibration(udoc(3, 3))
        c = gen_bv(4, "111")
        cfg = ProblemConfig(variant="r-smt-star")
        sol = solve_exact(c, m, cfg, tables=build_tables(m))
        cc = expand(sol, c, m)
        measures = [pg for pg in cc.expanded if pg.kind is GateKind.MEASURE]
        assert sorted(pg.clbit for pg in measures) == [0, 1, 2]
        for pg in measures:
            q = next(g.operands[0] for g in c.gates
                     if g.kind is GateKind.MEASURE and g.classical_target == pg.clbit)
            assert pg.hw_operands == (m.cell_id(sol.placement.loc[q]),)

    def test_empty_circuit(self):
        m = line_machine(2)
        c = build_circuit(1, 0, [])
        sol = assigned(c, m, (0,))
        cc = expand(sol, c, m)
        assert cc.expanded == ()
        assert cc.makespan == 0
        assert cc.swap_count == 0
        assert cc.reliability == 1.0


class TestExpandConsistency:
    def test_exact_solutions_expand_cleanly(self):
        m = load_calibration(udoc(2, 3))
        t = build_tables(m)
        for seed in (11, 12, 13, 14, 15):
            c = gen_random(3, 8, seed)
            for variant in ("t-smt", "t-smt-star", "r-smt-star"):
                cfg = ProblemConfig(variant=variant)
                sol = solve_exact(c, m, cfg, tables=t)
                assert check_solution(sol, c, m, cfg, tables=t) == []
                cc = expand(sol, c, m)
                assert cc.makespan == sol.schedule.makespan
                assert cc.objective_value == sol.objective_value

    @pytest.mark.parametrize("variant", ["t-smt-star", "r-smt-star"])
    def test_jittered_one_bend_solution_expands(self, variant):
        # Both solves here weigh a bent CNOT route whose junctions take
        # different times to walk; a solution priced at the faster junction's
        # time while routed through the slower one cannot expand.
        m = load_calibration(synth_calibration(3, 3, 13, jitter_durations=True))
        t = build_tables(m)
        c = gen_random(4, 12, 13)
        cfg = ProblemConfig(variant=variant, routing="1bp")
        sol = solve_exact(c, m, cfg, tables=t)
        if variant == "r-smt-star":
            # the most reliable route is the slower junction's
            cells = {q: m.cell_id(pos) for q, pos in sol.placement.loc.items()}
            assert any(sol.schedule.dur[g] > t.delta[cells[c.gates[g].operands[0]]]
                                                    [cells[c.gates[g].operands[1]]]
                       for g in sol.gate_routes)
        assert check_solution(sol, c, m, cfg, tables=t) == []
        cc = expand(sol, c, m)
        assert cc.makespan == sol.schedule.makespan

    def test_tampered_duration_raises(self):
        m = line_machine(3)
        c = one_cnot()
        sol = assigned(c, m, (0, 2))
        bad = dataclasses.replace(
            sol, schedule=Schedule(start=dict(sol.schedule.start),
                                   dur={0: sol.schedule.dur[0] + 1}))
        with pytest.raises(CodegenError, match="inconsistent schedule"):
            expand(bad, c, m)

    def test_overlapping_starts_raise(self):
        m = line_machine(4)
        c = build_circuit(4, 0, [("cx", (0, 1)), ("cx", (2, 3))])
        sol = assigned(c, m, (0, 2, 1, 3))
        assert sol.schedule.start[1] > 0
        bad = dataclasses.replace(
            sol, schedule=Schedule(start={0: 0, 1: 0}, dur=dict(sol.schedule.dur)))
        with pytest.raises(CodegenError, match="overlap"):
            expand(bad, c, m)

    def test_count_return_swaps_switches_scored_eps(self):
        m = line_machine(3)
        c = one_cnot()
        loud = assigned(c, m, (0, 2), count_return_swaps=True)
        cc = expand(loud, c, m)
        assert cc.reliability == pytest.approx(0.9 ** 7, abs=1e-15)
        assert cc.per_gate_eps == cc.eps_strict
        quiet = expand(assigned(c, m, (0, 2)), c, m)
        assert quiet.reliability == pytest.approx(0.6561, abs=1e-12)
        assert quiet.per_gate_eps == quiet.eps_route
        # the physical stream itself always restores the placement
        assert quiet.expanded == cc.expanded


def clean_slow_line():
    """1x3 line: edge (0,1) takes 4 timeslots at error 0.01, edge (1,2) takes
    2 at error 0.20. A CNOT between cells 0 and 2 walks the qubit at cell 2,
    over the fast noisy edge, in 16 timeslots instead of 26."""
    doc = udoc(1, 3)
    doc["edges"] = [
        {"a": [0, 0], "b": [0, 1], "cnot_duration": 4, "cnot_error": 0.01},
        {"a": [0, 1], "b": [0, 2], "cnot_duration": 2, "cnot_error": 0.20},
    ]
    return load_calibration(doc)


def jittered(mx, my, seed):
    return load_calibration(synth_calibration(mx, my, seed, jitter_durations=True))


EXACT_COMBOS = (("t-smt", "rr"), ("t-smt", "1bp"), ("t-smt-star", "rr"),
                ("t-smt-star", "1bp"), ("r-smt-star", "1bp"))
# every case places some CNOT where the target's walk is the faster one
WALK_CASES = {
    "1x3-toffoli": (clean_slow_line, gen_toffoli),
    "2x3j-toffoli": (lambda: jittered(2, 3, 1), gen_toffoli),
    "3x3j-toffoli": (lambda: jittered(3, 3, 2), gen_toffoli),
    "3x3j-random": (lambda: jittered(3, 3, 13), lambda: gen_random(4, 12, 13)),
}


class TestRecordedReliability:
    def test_target_walk_is_scored(self):
        m = clean_slow_line()
        c = one_cnot()
        sol = assigned(c, m, (0, 2), routing="1bp")
        assert sol.gate_routes[0] == (2, 1, 0)
        assert sol.schedule.dur[0] == 16
        cc = expand(sol, c, m)
        assert cc.expanded[3] == PhysGate(GateKind.CNOT, (0, 1), 6, 4)
        assert cc.eps_strict[0] == pytest.approx(0.8 ** 6 * 0.99, abs=1e-12)   # 0.2595
        assert cc.eps_route[0] == pytest.approx(0.8 ** 3 * 0.99, abs=1e-12)
        # the reliability variant scores the same walk
        rel = assigned(c, m, (0, 2), variant="r-smt-star")
        assert rel.gate_routes == sol.gate_routes
        assert rel.objective_value == 0.5 * math.log(cc.eps_route[0])
        assert check_solution(rel, c, m, tables=build_tables(m)) == []

    @pytest.mark.parametrize("case", sorted(WALK_CASES))
    def test_eps_strict_is_the_emitted_product(self, case):
        # Each physical CNOT belongs to the one routed CNOT whose walk holds
        # its cells while it runs; the record's eps_strict of that gate is the
        # product of 1 - error over those physical CNOTs.
        make_machine, make_circuit = WALK_CASES[case]
        m, c = make_machine(), make_circuit()
        t = build_tables(m)
        sols = [solve_exact(c, m, ProblemConfig(variant=v, routing=r), tables=t)
                for v, r in EXACT_COMBOS]
        sols += [heuristic_compile(c, m, t, HeuristicConfig(policy=p))
                 for p in ("greedy-v", "greedy-e")]
        target_walks = 0
        for sol in sols:
            cc = expand(sol, c, m)
            eps_strict = to_record(cc)["eps_strict"]
            start, dur = sol.schedule.start, sol.schedule.dur
            emitted = {g: 1.0 for g in cc.gate_routes}
            for pg in cc.expanded:
                if pg.kind is not GateKind.CNOT:
                    continue
                owners = [g for g, walk in cc.gate_routes.items()
                          if set(pg.hw_operands) <= set(walk)
                          and start[g] <= pg.start < start[g] + dur[g]]
                assert len(owners) == 1, (sol.variant, pg)
                emitted[owners[0]] *= m.price_factors[pg.hw_operands][0]
            for g, rel in emitted.items():
                assert abs(eps_strict[str(g)] - rel) <= 1e-12, (sol.variant, sol.routing, g)
            target_walks += sum(walk[0] != cc.cells[c.gates[g].operands[0]]
                                for g, walk in cc.gate_routes.items())
        assert target_walks > 0


class TestEmitQasm:
    def test_reparses_with_matching_gate_count(self):
        # the program reads back gate for gate: the stream's (kind, operands,
        # clbit) in (start, hardware operands) order, a greedy walk's swaps too
        m = load_calibration(udoc(3, 3))
        t = build_tables(m)
        bv, tof = gen_bv(4, "111"), gen_toffoli()
        exact = expand(solve_exact(bv, m, ProblemConfig(variant="r-smt-star"), tables=t), bv, m)
        greedy = expand(heuristic_compile(tof, m, t, HeuristicConfig("greedy-e")), tof, m)
        assert greedy.swap_count > 0
        for cc in (exact, greedy):
            back = parse_circuit(emit_qasm(cc))
            assert len(back.gates) == len(cc.expanded)
            assert back.num_qubits == m.num_cells
            assert back.num_clbits == 3
            stream = sorted(cc.expanded, key=lambda g: (g.start, g.hw_operands))
            assert [(g.kind, g.operands, g.classical_target) for g in back.gates] == \
                [(g.kind, g.hw_operands, g.clbit) for g in stream]

    def test_adjacent_bv4_has_three_cx_lines(self):
        m = load_calibration(udoc(3, 3))
        c = gen_bv(4, "111")
        sol = solve_exact(c, m, ProblemConfig(variant="r-smt-star"), tables=build_tables(m))
        cc = expand(sol, c, m)
        assert cc.swap_count == 0
        cx = [ln for ln in emit_qasm(cc).splitlines() if ln.startswith("cx ")]
        assert len(cx) == 3

    def test_header_and_registers(self):
        m = line_machine(3)
        c = one_cnot()
        cc = expand(assigned(c, m, (0, 2)), c, m)
        lines = emit_qasm(cc).splitlines()
        assert lines[0].startswith("// variant: t-smt-star")
        assert lines[3] == "OPENQASM 2.0;"
        assert lines[4] == "qreg qh[3];"
        assert sum(1 for ln in lines if ln.startswith("cx ")) == 7

    def test_ties_at_one_start_order_by_cells(self):
        # (a,) before (a, b) before (a, c > b) before (a + 1,), at cell
        # numbers up to the last cell; equal (start, cells) keep stream order
        m = load_calibration(udoc(4, 4))
        c = gen_bv(4, "111")
        cc = expand(solve_exact(c, m, ProblemConfig(variant="r-smt-star"),
                                tables=build_tables(m)), c, m)
        H, X, CX, MEASURE = GateKind.H, GateKind.X, GateKind.CNOT, GateKind.MEASURE
        gates = []
        for s in (0, 3, 7):
            for a, b, far in ((0, 1, 4), (5, 6, 9), (14, 11, 15), (13, 12, 15)):
                gates += [PhysGate(H, (a,), s, 1), PhysGate(CX, (a, b), s, 2),
                          PhysGate(CX, (a, far), s, 2), PhysGate(X, (a + 1,), s, 1),
                          PhysGate(MEASURE, (a,), s, 12, 2), PhysGate(X, (a,), s, 1),
                          PhysGate(CX, (b, a), s, 2)]
        gates.append(PhysGate(MEASURE, (15,), 7, 12, 0))
        random.Random(5).shuffle(gates)
        mixed = dataclasses.replace(cc, expanded=tuple(gates))
        want = []
        for kind, ops, _s, _d, clbit in sorted(gates, key=itemgetter(2, 1)):
            if kind is CX:
                want.append(f"cx qh[{ops[0]}],qh[{ops[1]}];")
            elif kind is MEASURE:
                want.append(f"measure qh[{ops[0]}] -> c[{clbit}];")
            else:
                want.append(f"{kind.value} qh[{ops[0]}];")
        assert emit_qasm(mixed).splitlines()[-len(gates):] == want
        assert emit_qasm(mixed).splitlines()[:-len(gates)] == \
            emit_qasm(cc).splitlines()[:-len(cc.expanded)]

    def test_empty_circuit_emits_registers_only(self):
        m = line_machine(2)
        c = build_circuit(1, 0, [])
        cc = expand(assigned(c, m, (0,)), c, m)
        lines = emit_qasm(cc).splitlines()
        assert lines[-1] == "qreg qh[2];"


class TestRecord:
    def test_documented_keys_present(self):
        m = load_calibration(udoc(3, 3))
        c = gen_bv(4, "111")
        sol = solve_exact(c, m, ProblemConfig(variant="r-smt-star"), tables=build_tables(m))
        rec = to_record(expand(sol, c, m))
        for key in ("placement", "variant", "objective", "makespan",
                    "swap_count", "reliability"):
            assert key in rec
        # the physical stream is the .qasm file's; from_record rebuilds it
        assert "gates" not in rec

    def test_json_round_trip(self):
        m = load_calibration(udoc(3, 3))
        c = gen_bv(4, "101")
        sol = solve_exact(c, m, ProblemConfig(variant="t-smt-star"), tables=build_tables(m))
        cc = expand(sol, c, m)
        text = record_to_json(cc)
        back = from_record(text, m)
        assert back.expanded == cc.expanded
        assert back.reliability == cc.reliability
        assert back.swap_count == cc.swap_count
        assert back.makespan == cc.makespan
        assert back.objective_value == cc.objective_value
        assert back.placement == cc.placement
        assert back.eps_route == cc.eps_route
        assert back.eps_strict == cc.eps_strict
        assert to_record(back) == json.loads(text)

    @pytest.mark.parametrize("tamper", ["missing key", "off the grid", "not adjacent",
                                        "cell count", "placement off the grid",
                                        "route off its cells", "undeclared qubit"])
    def test_from_record_rejects_with_value_error(self, tamper):
        m = line_machine(3)
        c = build_circuit(2, 1, [("cx", (0, 1)), ("measure", (1,), 0)])
        rec = to_record(expand(assigned(c, m, (0, 2)), c, m))
        if tamper == "missing key":
            del rec["source_qasm"]
        elif tamper == "off the grid":
            rec["gate_routes"]["0"] = [0, 1, 2, 3]
        elif tamper == "not adjacent":
            rec["gate_routes"]["0"] = [0, 2]
        elif tamper == "placement off the grid":
            rec["placement"]["0"] = [-1, 0]
        elif tamper == "route off its cells":
            rec["gate_routes"]["0"] = [0, 1]
        elif tamper == "undeclared qubit":
            rec["placement"]["7"] = list(m.pos(1))  # the free cell
        else:
            rec["config"]["num_cells"] = 9
        with pytest.raises(ValueError):
            from_record(rec, m)

    def test_from_record_rejects_two_qubits_on_one_cell(self):
        # qubit 1 has no CNOT, so only the shared cell is wrong with the record
        m = load_calibration(synth_calibration(3, 3, 0))
        c = gen_bv(4, "101")
        rec = to_record(expand(heuristic_compile(c, m, build_tables(m),
                                                 HeuristicConfig(policy="greedy-e")), c, m))
        rec["placement"]["1"] = rec["placement"]["0"]
        with pytest.raises(ValueError, match="one cell"):
            from_record(rec, m)

    @pytest.mark.parametrize("tamper, message", [
        ("route for a gate that is no CNOT", "gate_routes '0' is not a CNOT of the source"),
        ("route for no gate", "gate_routes '999' is not a CNOT of the source"),
        ("num_cells not an integer", "num_cells 6.0 is not an integer"),
        ("three coordinates", "placement 0: [0, 1, 0] is not two integers"),
        ("qubit left unplaced", "placement leaves qubit 0 of the source unplaced"),
    ])
    def test_malformed_record_exits_1_with_one_json_line(self, tmp_path, capsys, tamper,
                                                         message):
        # BV3 on a 2x3 grid: gate 0 is the x on q[2], qubit 0 sits at (0, 1)
        doc = synth_calibration(2, 3, 0)
        m, c = load_calibration(doc), gen_bv(3, "11")
        rec = to_record(expand(heuristic_compile(c, m, build_tables(m),
                                                 HeuristicConfig(policy="greedy-e")), c, m))
        assert c.gates[0].kind is GateKind.X and rec["placement"]["0"] == [0, 1]
        if tamper == "route for a gate that is no CNOT":
            rec["gate_routes"]["0"] = [0, 1]
        elif tamper == "route for no gate":
            rec["gate_routes"]["999"] = [0, 1]
        elif tamper == "num_cells not an integer":
            rec["config"]["num_cells"] = 6.0
        elif tamper == "three coordinates":
            rec["placement"]["0"].append(0)
        else:
            del rec["placement"]["0"]
        with pytest.raises(ValueError, match=re.escape(message)):
            from_record(rec, m)
        (tmp_path / "rec.json").write_text(json.dumps(rec))
        (tmp_path / "cal.json").write_text(json.dumps(doc))
        code = main(["evaluate", str(tmp_path / "rec.json"), str(tmp_path / "cal.json"),
                     "--out", str(tmp_path / "rep")])
        out = capsys.readouterr()
        lines = out.err.splitlines()
        assert (code, out.out, len(lines)) == (1, "", 1)
        assert json.loads(lines[0]) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("key, value, message", [
        ("config", [1], "config must be a JSON object, not [1]"),
        ("gate_routes", [1, 2], "gate_routes must be a JSON object, not [1, 2]"),
        ("route", 5, "gate_routes {g}: 5 is not a list of integer cells"),
        ("route", "12", "gate_routes {g}: '12' is not a list of integer cells"),
        ("route", {"a": 1}, "gate_routes {g}: {{'a': 1}} is not a list of integer cells"),
    ], ids=["config-list", "gate-routes-list", "route-int", "route-string", "route-object"])
    def test_misshapen_record_exits_1_with_one_json_line(self, tmp_path, capsys, key, value,
                                                         message):
        # BV3 greedy-e on a 2x3 grid, a record section or one route of the wrong JSON type
        doc = synth_calibration(2, 3, 0)
        m, c = load_calibration(doc), gen_bv(3, "11")
        rec = to_record(expand(heuristic_compile(c, m, build_tables(m),
                                                 HeuristicConfig(policy="greedy-e")), c, m))
        g = min(rec["gate_routes"], key=int)
        if key == "route":
            rec["gate_routes"][g] = value
        else:
            rec[key] = value
        message = message.format(g=g)
        with pytest.raises(ValueError) as info:
            from_record(rec, m)
        assert str(info.value) == message
        (tmp_path / "rec.json").write_text(json.dumps(rec))
        (tmp_path / "cal.json").write_text(json.dumps(doc))
        code = main(["evaluate", str(tmp_path / "rec.json"), str(tmp_path / "cal.json"),
                     "--out", str(tmp_path / "rep")])
        out = capsys.readouterr()
        lines = out.err.splitlines()
        assert (code, out.out, len(lines)) == (1, "", 1)
        assert json.loads(lines[0]) == {"error": "ValueError", "message": message}

    def test_from_record_accepts_dict(self):
        m = line_machine(3)
        c = one_cnot()
        cc = expand(assigned(c, m, (0, 2)), c, m)
        back = from_record(to_record(cc), m)
        assert back.expanded == cc.expanded

    def test_from_record_derives_makespan_on_the_machine_given(self):
        # the same record read on another day's durations is rescheduled there
        c = gen_random(8, 24, 2)
        m, other = jittered(3, 3, 1), jittered(3, 3, 0)
        sol = heuristic_compile(c, m, build_tables(m), HeuristicConfig(policy="greedy-e"))
        cc = expand(sol, c, m)
        back = from_record(record_to_json(cc), other)
        assert back.makespan == max(pg.start + pg.dur for pg in back.expanded)
        assert (cc.makespan, back.makespan) == (28, 33)

    @pytest.mark.parametrize("seeds", [(1, 3, 0), (2, 1, 0), (5, 3, 4)])
    def test_from_record_on_another_calibration_runs(self, seeds):
        # a stream read on slower CNOTs no longer keeps the old start times:
        # no two physical gates share a cell at once, and it ends at its
        # rebuilt makespan
        circuit_seed, day, other_day = seeds
        c = gen_random(8, 24, circuit_seed)
        m, other = jittered(3, 3, day), jittered(3, 3, other_day)
        cc = expand(heuristic_compile(c, m, build_tables(m),
                                      HeuristicConfig(policy="greedy-e")), c, m)
        back = from_record(record_to_json(cc), other)
        by_cell = {}
        for pg in back.expanded:
            for cell in pg.hw_operands:
                by_cell.setdefault(cell, []).append((pg.start, pg.start + pg.dur))
        for spans in by_cell.values():
            spans.sort()
            assert all(e1 <= s2 for (_s1, e1), (s2, _e2) in zip(spans, spans[1:]))
        assert back.makespan == max(pg.start + pg.dur for pg in back.expanded)
        assert back.placement == cc.placement and back.gate_routes == cc.gate_routes
        if seeds == (1, 3, 0):
            assert (cc.makespan, back.makespan) == (8, 9)

    @pytest.mark.parametrize("variant, jitter", [("greedy-e", True), ("r-smt-star", False),
                                                 ("t-smt-star", True)])
    def test_record_read_on_another_day_is_a_solution_there(self, variant, jitter):
        # the placement and walks are scored on the calibration they are read
        # on, objective included, so the program verifies on that day
        c = gen_random(5, 16, 7)
        m, other = (load_calibration(synth_calibration(2, 3, seed, jitter_durations=jitter))
                    for seed in (1, 2))
        sol = heuristic_compile(c, m, build_tables(m), HeuristicConfig(policy=variant)) \
            if variant.startswith("greedy") \
            else solve_exact(c, m, ProblemConfig(variant), tables=build_tables(m))
        cc = expand(sol, c, m)
        back = from_record(record_to_json(cc), other)
        assert check_solution(back, c, other, tables=build_tables(other)) == []
        if variant == "t-smt-star":
            expect = float(back.makespan)
        else:
            eps, cnots = back.per_gate_eps, back.gate_routes
            expect = weighted_log_sum(back.omega,
                                      [math.log(e) for g, e in eps.items() if g not in cnots],
                                      [math.log(eps[g]) for g in cnots])
        assert back.objective_value == expect != cc.objective_value

    def test_records_verify_on_every_other_day(self):
        # Which end of a CNOT walks, and which junction rr takes, follow the
        # compile day's edge durations; a record read on another day's keeps
        # its walks and must still be a solution there.
        configs = [ProblemConfig(v, r) for v, r in (
            (Variant.T_SMT, Routing.RR), (Variant.T_SMT, Routing.ONE_BEND),
            (Variant.T_SMT_STAR, Routing.RR), (Variant.T_SMT_STAR, Routing.ONE_BEND),
            (Variant.R_SMT_STAR, Routing.ONE_BEND))]
        configs += [HeuristicConfig(policy) for policy in ("greedy-v", "greedy-e")]
        read = 0
        for seed in range(12):
            m, other = (load_calibration(synth_calibration(2, 3, s, jitter_durations=True))
                        for s in (seed, seed + 100))
            t = build_tables(m)
            c = gen_random(4, 10, seed)
            for cfg in configs:
                sol = heuristic_compile(c, m, t, cfg) if isinstance(cfg, HeuristicConfig) \
                    else solve_exact(c, m, cfg, tables=t)
                back = from_record(record_to_json(expand(sol, c, m)), other)
                assert back.gate_routes == sol.gate_routes
                assert check_solution(back, c, other, tables=build_tables(other)) == [], \
                    (seed, back.variant, back.routing)
                read += 1
        assert read == 12 * 7

    def test_from_record_raises_infeasible_past_t2(self):
        c = gen_random(4, 12, 3)
        m, tight = line_machine(4), line_machine(4, t2=6)
        cc = expand(heuristic_compile(c, m, build_tables(m),
                                      HeuristicConfig(policy="greedy-v")), c, m)
        assert cc.makespan > 6
        with pytest.raises(Infeasible):
            from_record(record_to_json(cc), tight)

    def test_legacy_record_with_gates_loads(self):
        # records written before the stream was dropped still carry "gates";
        # the key is ignored and the stream is rebuilt
        m = load_calibration(udoc(3, 3))
        c = gen_bv(4, "111")
        cc = expand(solve_exact(c, m, ProblemConfig(variant="r-smt-star"),
                                tables=build_tables(m)), c, m)
        rec = to_record(cc)
        rec["gates"] = [{"kind": pg.kind.value, "hw_operands": list(pg.hw_operands),
                         "start": pg.start, **({"clbit": pg.clbit} if pg.clbit is not None
                                               else {})}
                        for pg in cc.expanded]
        assert from_record(json.dumps(rec), m) == cc
        rec["gates"] = "not read"
        assert from_record(rec, m) == cc


def pipeline_machines():
    """Seeded calibrations at the edges: 1xN lines and small grids, with and
    without jittered durations, and one whose T2 is shorter than a readout."""
    machines = {}
    for mx, my in ((1, 2), (1, 5), (2, 3), (3, 3)):
        for jitter in (False, True):
            doc = synth_calibration(mx, my, 10 * mx + my, jitter_durations=jitter)
            machines[f"{mx}x{my}" + "-jitter" * jitter] = load_calibration(doc)
    machines["2x3-tight-t2"] = load_calibration(synth_calibration(2, 3, 23, t2=8))
    return machines


PIPELINE_MACHINES = pipeline_machines()


class TestPipelineRoundTrip:
    """Every variant, on every edge-case machine, at full occupancy and below,
    under both extreme readout weights and both return-swap settings, either
    reports no solution or gives a solution that verifies, expands, keeps the
    source's semantics and reads back from its record as the same object."""

    @pytest.mark.parametrize("name", sorted(PIPELINE_MACHINES))
    def test_compile_verify_expand_round_trip(self, name):
        m = PIPELINE_MACHINES[name]
        t = build_tables(m)
        n = m.num_cells
        circuits = [gen_bv(min(n, 4), "1" * (min(n, 4) - 1)), gen_random(n, 24, n)]
        if n >= 3:
            circuits.append(gen_toffoli())
        outcomes = {"solved": 0, "no solution": 0}
        for ci, c in enumerate(circuits):
            exact = ci != 1 or n <= 6   # the exact search at 9 of 9 cells is too slow
            for omega, flag in itertools.product((0.0, 1.0), (False, True)):
                cfgs = [HeuristicConfig(policy=p, omega=omega, count_return_swaps=flag)
                        for p in ("greedy-v", "greedy-e")]
                if exact:
                    cfgs += [ProblemConfig(variant=v, routing=r, omega=omega,
                                           count_return_swaps=flag, time_limit=10.0)
                             for v, r in EXACT_COMBOS]
                for cfg in cfgs:
                    exact_cfg = cfg if isinstance(cfg, ProblemConfig) else None
                    try:
                        sol = solve_exact(c, m, cfg, tables=t) if exact_cfg \
                            else heuristic_compile(c, m, t, cfg)
                    except (Infeasible, SolverTimeout):
                        outcomes["no solution"] += 1
                        continue
                    assert check_solution(sol, c, m, exact_cfg, tables=t) == [], (cfg, ci)
                    cc = expand(sol, c, m)
                    assert equivalence_check(c, cc).passed, (cfg, ci)
                    assert from_record(record_to_json(cc), m) == cc, (cfg, ci)
                    outcomes["solved"] += 1
        if name.endswith("tight-t2"):
            assert outcomes["no solution"] > 0
        else:
            assert outcomes["no solution"] == 0 and outcomes["solved"] > 0


def plain_greedy(c, m, t, cfg):
    """The paper's plain greedy: the mapper's cells, unrefined, each CNOT on
    its best-path walk, assembled by build_solution."""
    mapper = greedy_vertex_map if cfg.policy is GreedyPolicy.VERTEX else greedy_edge_map
    p = mapper(build_program_graph(c), m, t)
    cells = tuple(m.cell_id(p.loc[q]) for q in range(c.num_qubits))
    bp = t.best_paths_return if cfg.count_return_swaps else t.best_paths
    walks = [bp[(cells[g.operands[0]], cells[g.operands[1]])][0] for g in c.cnot_gates()]
    return build_solution(c, m, cfg, cells, walks, optimal=False)


class TestGoldenAtScale:
    """A 64-qubit, 1024-gate circuit on a 12x12 grid under both greedy
    mappers, refined by heuristic_compile and plain (plain_greedy): sha256
    of the emitted QASM, the record and the repr of the physical stream,
    pinned so that a change to expand, emit_qasm or the record that alters
    one byte of output at size fails here."""

    # policy: (emit_qasm, record_to_json, repr(expanded)) of heuristic_compile
    GOLDEN = {
        "greedy-v": ("9c9c47508914d1c63fa9604dcffa0e19b996d2f10d93d0c782f075a2cb1d6e29",
                     "317207ea14264af03fa6b80b59c977581d71bb5dfb0a9e0fdfc17cf19274c3bb",
                     "e29f6ba924666861f83d3aec1f3252c384c643a6a62341858535ff268189ce15"),
        "greedy-e": ("ecdbca224d0c60f7ee950dc7e67880473371177020cb8763d4d7b833b0d6db59",
                     "147e5cdb9f06832f2df9c8b192a4b88c0d5faca7767197df9e656993aad26925",
                     "2d2e7d9544370a36a394809c5c193c1451af50385ae795342b8e4a0bc034e43e"),
    }
    # the same of plain_greedy, heuristic_compile's outputs before the exchange
    PLAIN = {
        "greedy-v": ("efe8194d7a2efc05e3d3675215383a79e6186cfc052a1d86d508668cf326290d",
                     "03e6de82f60f1e6f71118a3b8a8c4d5947d8a63c5fecdeb8bd50bd1fee31223a",
                     "5fbb3fe0a16a41b03f66c73b48bde12aa81610dee6d50a38b6388a424287d2a8"),
        "greedy-e": ("864901328e84a8aa29b136c439800982bc8e8257c357ce3738e1e67a4fa3d31b",
                     "2943aef7f04d063e0120a8ed5e7b3121f835e5c217c9781782e3722ba8505cf2",
                     "817fc71e1d7d424f80ce923f3f7b1ebac8e8524dcfc1bbecb488a3818cd875b8"),
    }

    @staticmethod
    def assert_pinned(compile_, goldens):
        m = load_calibration(synth_calibration(12, 12, 5, t2=10 ** 6))
        t = build_tables(m)
        c = gen_random(64, 1024, 11)
        for policy, golden in goldens.items():
            cc = expand(compile_(c, m, t, HeuristicConfig(policy)), c, m)
            record = record_to_json(cc)
            digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                            for text in (emit_qasm(cc), record, repr(cc.expanded)))
            assert digests == golden, policy
            back = from_record(record, m)
            assert (back.expanded, back.placement, back.makespan, back.swap_count) == \
                (cc.expanded, cc.placement, cc.makespan, cc.swap_count), policy
            # 64 active cells: the normal form proves at any size
            for compiled in (cc, back):
                assert equivalence_check(c, compiled) == EquivalenceResult(True, 0.0, 0.0)

    def test_outputs_are_pinned(self):
        self.assert_pinned(heuristic_compile, self.GOLDEN)

    def test_plain_greedy_outputs_are_pinned(self):
        self.assert_pinned(plain_greedy, self.PLAIN)

    def test_a_mutant_over_the_cap_is_not_proved(self):
        # the stream with one CNOT reversed, on 64 active cells, more than a
        # statevector holds: the normal form proves nothing, and no distance
        # is computed
        m = load_calibration(synth_calibration(12, 12, 5, t2=10 ** 6))
        c = gen_random(64, 1024, 11)
        cc = expand(heuristic_compile(c, m, build_tables(m), HeuristicConfig("greedy-e")), c, m)
        i = next(i for i, pg in enumerate(cc.expanded) if pg.kind is GateKind.CNOT)
        pg = cc.expanded[i]
        mutant = dataclasses.replace(cc, expanded=cc.expanded[:i] + (
            pg._replace(hw_operands=pg.hw_operands[::-1]),) + cc.expanded[i + 1:])
        res = equivalence_check(c, mutant)
        assert res.passed is False
        assert math.isnan(res.max_deviation) and math.isnan(res.total_variation)


class TestGoldenSmallExact:
    """Exact solves on 2x3 and 3x3 grids, plain and with jittered
    durations, under every variant/routing pair: the static t-smt model
    and rectangle reservation among them, with return swaps scored or not.
    sha256 of each solve's starts, repr(expanded) and record, pinned so that
    a change to how a walk is priced, scheduled, expanded or recorded that
    alters one byte of them fails here; from_record rebuilds each stream."""
    DIGEST = "cb3167693008e9e7549273e738240d111e5ca39506bf0b0d19f01d9d9f268105"
    PAIRS = ((Variant.T_SMT, Routing.RR), (Variant.T_SMT, Routing.ONE_BEND),
             (Variant.T_SMT_STAR, Routing.RR), (Variant.T_SMT_STAR, Routing.ONE_BEND),
             (Variant.R_SMT_STAR, Routing.ONE_BEND))

    def test_schedules_streams_and_records_are_pinned(self):
        h = hashlib.sha256()
        solves = 0
        for seed, jitter in ((1, False), (2, True)):
            for mx, my in ((2, 3), (3, 3)):
                m = load_calibration(synth_calibration(mx, my, seed, jitter_durations=jitter))
                t = build_tables(m)
                for c, ((variant, routing), crs) in itertools.product(
                        (gen_bv(4, "101"), gen_toffoli(), gen_random(4, 12, seed)),
                        itertools.product(self.PAIRS, (False, True))):
                    sol = solve_exact(c, m, ProblemConfig(variant, routing,
                                                          count_return_swaps=crs), tables=t)
                    cc = expand(sol, c, m)
                    record = record_to_json(cc)
                    h.update(repr((sorted(sol.schedule.start.items()), repr(cc.expanded),
                                   record)).encode())
                    assert from_record(record, m).expanded == cc.expanded
                    solves += 1
        assert (h.hexdigest(), solves) == (self.DIGEST, 120)


def test_readme_lists_every_record_key():
    # README's Outputs list keeps up with to_record's layout: every top-level
    # key, every key of its config, and the compile_time_s the CLI adds
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    outputs = readme.split("\n## Outputs\n")[1].split("\n## ")[0]
    items = outputs.split("contains:\n\n")[1].split("\n\n")[0]
    assert items.startswith("- "), "README's Outputs list was not found"
    named = {w for span in re.findall(r"`([^`]*)`", items) for w in re.findall(r"\w+", span)}
    c, m = gen_bv(3, "11"), load_calibration(synth_calibration(2, 3, 1))
    record = to_record(expand(heuristic_compile(c, m, build_tables(m),
                                                HeuristicConfig("greedy-e")), c, m))
    keys = set(record) | set(record["config"]) | {"compile_time_s"}
    assert sorted(keys - named) == []
