"""CLI tests: every subcommand is driven in-process through main(argv) and
checked on its files, stdout summary, and exit code."""

import argparse
import copy
import csv
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nisqc
from nisqc.circuit import gen_bv, gen_toffoli, parse_circuit, to_qasm
from nisqc import cli
from nisqc.cli import main
from nisqc.codegen import expand, to_record
from nisqc.heuristic import HeuristicConfig, heuristic_compile
from nisqc.machine import build_tables, load_calibration, synth_calibration
from nisqc.optimal import SolverTimeout
from nisqc.schedule import ProblemConfig
from nisqc.smtlib import emit_smtlib


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def uniform_cal(tmp_path, mx, my, name="cal.json", **over):
    d = {
        "t2": 1000, "readout_error": 0.07, "readout_duration": 12,
        "cnot_error": 0.1, "cnot_duration": 2, "single_qubit_duration": 1,
        "single_qubit_error": 0.001, "static_tau_cnot": 2,
        "static_coherence_bound": 1000,
    }
    d.update(over)
    path = tmp_path / name
    path.write_text(json.dumps({"grid": {"mx": mx, "my": my}, "defaults": d}))
    return str(path)


@pytest.fixture
def bv4(tmp_path, capsys):
    code, _, _ = run(capsys, "gen-circuit", "bv", "--qubits", "4",
                     "--out", str(tmp_path / "bv4.qasm"))
    assert code == 0
    return str(tmp_path / "bv4.qasm")


class TestCompile:
    def test_bv4_record_is_optimal(self, tmp_path, capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3)
        out = str(tmp_path / "bv4-r")
        code, stdout, _ = run(capsys, "compile", "--variant", "r-smt-star",
                              bv4, cal, "--out", out)
        assert code == 0
        rec = json.loads((tmp_path / "bv4-r.json").read_text())
        assert rec["optimal"] is True
        assert rec["swap_count"] == 0
        assert rec["variant"] == "r-smt-star"
        assert (tmp_path / "bv4-r.qasm").read_text().splitlines()[3] == "OPENQASM 2.0;"
        assert "optimal=true" in stdout

    def test_record_is_one_json_line(self, tmp_path, capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3)
        out = str(tmp_path / "bv4-e")
        assert run(capsys, "compile", "--variant", "greedy-e", bv4, cal, "--out", out)[0] == 0
        text = (tmp_path / "bv4-e.json").read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        rec = json.loads(text)
        c = parse_circuit((tmp_path / "bv4.qasm").read_text())
        m = load_calibration((tmp_path / "cal.json").read_text())
        cc = expand(heuristic_compile(c, m, build_tables(m), HeuristicConfig("greedy-e")), c, m)
        assert list(rec)[-1] == "compile_time_s" and rec["compile_time_s"] >= 0
        assert rec == {**to_record(cc), "compile_time_s": rec["compile_time_s"]}

    def test_reliability_variant_rejects_rectangle_routing(self, tmp_path, capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3)
        code, _, stderr = run(capsys, "compile", "--variant", "r-smt-star",
                              "--routing", "rr", bv4, cal,
                              "--out", str(tmp_path / "x"))
        assert code == 2
        assert json.loads(stderr)["error"] == "UsageError"

    def test_omega_needs_a_reliability_variant(self, tmp_path, capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3)
        code, _, stderr = run(capsys, "compile", "--variant", "t-smt",
                              "--omega", "0.7", bv4, cal,
                              "--out", str(tmp_path / "x"))
        assert code == 2
        assert "omega" in json.loads(stderr)["message"]

    def test_greedy_handles_128_qubits(self, tmp_path, capsys):
        circ = str(tmp_path / "big.qasm")
        assert run(capsys, "gen-circuit", "random", "--qubits", "128",
                   "--gates", "2048", "--seed", "1", "--out", circ)[0] == 0
        cal = str(tmp_path / "big-cal.json")
        assert run(capsys, "gen-cal", "--mx", "12", "--my", "12",
                   "--t2", "100000", "--seed", "2", "--out", cal)[0] == 0
        out = str(tmp_path / "big-e")
        code, stdout, _ = run(capsys, "compile", "--variant", "greedy-e",
                              circ, cal, "--out", out)
        assert code == 0
        text = (tmp_path / "big-e.json").read_text()
        rec = json.loads(text)
        assert rec["optimal"] is False
        # the record holds the walks, not the physical stream: that is the .qasm's
        assert len(text) < 100_000
        qasm = (tmp_path / "big-e.qasm").read_text().splitlines()
        assert sum(ln.startswith(("cx ", "h ", "x ", "y ", "z ", "s ", "t "))
                   for ln in qasm) >= 2048

    def test_emit_smtlib(self, tmp_path, capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3)
        script = tmp_path / "bv4.smt2"
        code, _, _ = run(capsys, "compile", "--variant", "t-smt-star", bv4, cal,
                         "--emit-smtlib", str(script), "--out", str(tmp_path / "y"))
        assert code == 0
        text = script.read_text()
        assert "(declare-const" in text
        assert "(check-sat)" in text and "(get-objectives)" in text
        code, _, stderr = run(capsys, "compile", "--variant", "greedy-v", bv4, cal,
                              "--emit-smtlib", str(script), "--out", str(tmp_path / "z"))
        assert code == 2

    @pytest.mark.parametrize("variant", ["t-smt-star", "r-smt-star"])
    def test_emit_smtlib_reuses_the_compile_tables(self, tmp_path, capsys, monkeypatch, bv4,
                                                   variant):
        builds = []

        def counted(m):
            builds.append(m)
            return build_tables(m)

        monkeypatch.setattr(cli, "build_tables", counted)
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(synth_calibration(2, 3, 1, jitter_durations=True)))
        script = tmp_path / "bv4.smt2"
        code, _, _ = run(capsys, "compile", "--variant", variant, bv4, str(cal),
                         "--emit-smtlib", str(script), "--out", str(tmp_path / "y"))
        assert (code, len(builds)) == (0, 1)
        c, m = parse_circuit(open(bv4).read()), load_calibration(cal.read_text())
        assert script.read_text() == emit_smtlib(c, m, ProblemConfig(variant), build_tables(m))

    def test_infeasible_exits_3(self, tmp_path, capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3, name="tight.json", t2=5)
        code, _, stderr = run(capsys, "compile", "--variant", "t-smt-star",
                              bv4, cal, "--out", str(tmp_path / "x"))
        assert code == 3
        assert json.loads(stderr)["error"] == "Infeasible"

    def test_timeout_without_solution_exits_4(self, tmp_path, capsys, bv4):
        # Every placement misses T2, the greedy seed included, so the search
        # has nothing to return when the limit expires.
        cal = uniform_cal(tmp_path, 3, 3, name="tight.json", t2=5)
        code, _, stderr = run(capsys, "compile", "--variant", "r-smt-star",
                              "--time-limit", "1e-9", bv4, cal,
                              "--out", str(tmp_path / "x"))
        assert code == 4
        assert json.loads(stderr)["error"] == "SolverTimeout"

    def test_timeout_with_feasible_seed_exits_0(self, tmp_path, capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3)
        code, _, _ = run(capsys, "compile", "--variant", "r-smt-star",
                         "--time-limit", "1e-9", bv4, cal, "--out", str(tmp_path / "x"))
        assert code == 0
        assert json.loads((tmp_path / "x.json").read_text())["optimal"] is False

    @pytest.mark.parametrize("limit", ["0", "-1", "nan"])
    def test_time_limit_not_above_zero_exits_2(self, tmp_path, capsys, bv4, limit):
        cal = uniform_cal(tmp_path, 3, 3)
        code, stdout, stderr = run(capsys, "compile", "--variant", "t-smt-star",
                                   "--time-limit", limit, bv4, cal,
                                   "--out", str(tmp_path / "x"))
        assert (code, stdout) == (2, "")
        assert json.loads(stderr)["error"] == "UsageError"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("argv", [("compile", "--variant", "greedy-v"),
                                      ("compare", "--variants", "greedy-v"),
                                      ("compare", "--variants", "greedy-v,t-smt")])
    def test_greedy_time_limit_not_above_zero_exits_2(self, tmp_path, capsys, monkeypatch,
                                                      bv4, argv):
        # the value is rejected before any variant compiles
        monkeypatch.setattr(cli, "heuristic_compile", lambda *a: pytest.fail("compiled"))
        cal = uniform_cal(tmp_path, 3, 3)
        command, *flags = argv
        code, stdout, stderr = run(capsys, command, bv4, cal, *flags, "--time-limit", "0",
                                   "--out", str(tmp_path / "x"))
        assert (code, stdout) == (2, "")
        assert json.loads(stderr)["error"] == "UsageError"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bv4.qasm", "cal.json"]

    def test_bad_calibration_exits_1(self, tmp_path, capsys, bv4):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"defaults": {}}))
        code, _, stderr = run(capsys, "compile", "--variant", "t-smt",
                              bv4, str(bad), "--out", str(tmp_path / "x"))
        assert code == 1
        assert json.loads(stderr)["error"] == "CalibrationError"


class TestEvaluate:
    def test_report_matches_record(self, tmp_path, capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3)
        out = str(tmp_path / "bv4-r")
        assert run(capsys, "compile", "--variant", "r-smt-star", bv4, cal,
                   "--out", out)[0] == 0
        code, stdout, _ = run(capsys, "evaluate", out + ".json", cal,
                              "--trials", "20000", "--seed", "3",
                              "--out", str(tmp_path / "rep"))
        assert code == 0
        assert "equivalence=pass" in stdout
        rows = list(csv.DictReader(open(tmp_path / "rep.csv")))
        rec = json.loads((tmp_path / "bv4-r.json").read_text())
        assert len(rows) == 1
        assert float(rows[0]["reliability"]) == rec["reliability"]
        assert abs(float(rows[0]["mc_success"]) - rec["reliability"]) \
            <= 3 * float(rows[0]["stderr"])
        docs = json.loads((tmp_path / "rep.json").read_text())
        assert docs[0]["equivalence_passed"] is True
        assert docs[0]["optimal"] is True

    def test_failed_equivalence_writes_the_report_and_exits_1(self, tmp_path, capsys,
                                                              monkeypatch, bv4):
        cal = uniform_cal(tmp_path, 3, 3)
        out = str(tmp_path / "bv4-e")
        assert run(capsys, "compile", "--variant", "greedy-e", bv4, cal, "--out", out)[0] == 0
        monkeypatch.setattr(cli, "equivalence_check",
                            lambda c, cc: nisqc.EquivalenceResult(False, 0.5, 0.5))
        code, stdout, stderr = run(capsys, "evaluate", out + ".json", cal,
                                   "--out", str(tmp_path / "rep"))
        assert code == 1
        assert "equivalence=FAIL" in stdout
        assert json.loads(stderr)["error"] == "EquivalenceError"
        docs = json.loads((tmp_path / "rep.json").read_text())
        assert docs[0]["equivalence_passed"] is False
        assert len(list(csv.DictReader(open(tmp_path / "rep.csv")))) == 1


    def test_record_for_another_grid_exits_1(self, tmp_path, capsys):
        circ, big, small = (str(tmp_path / n) for n in ("bv5.qasm", "c33.json", "c22.json"))
        assert run(capsys, "gen-circuit", "bv", "--qubits", "5", "--out", circ)[0] == 0
        assert run(capsys, "gen-cal", "--mx", "3", "--my", "3", "--out", big)[0] == 0
        assert run(capsys, "gen-cal", "--mx", "2", "--my", "2", "--out", small)[0] == 0
        out = str(tmp_path / "bv5-e")
        assert run(capsys, "compile", "--variant", "greedy-e", circ, big, "--out", out)[0] == 0
        code, stdout, stderr = run(capsys, "evaluate", out + ".json", small,
                                   "--out", str(tmp_path / "rep"))
        assert (code, stdout) == (1, "")
        assert json.loads(stderr)["error"] == "ValueError"
        assert not (tmp_path / "rep.csv").exists()

    def test_scores_on_the_calibration_given(self, tmp_path, capsys):
        # one greedy-e record, scored on the day it was compiled for and on
        # another: each row prices the record's own walks on its calibration
        circ, out = str(tmp_path / "bv5.qasm"), str(tmp_path / "bv5-e")
        assert run(capsys, "gen-circuit", "bv", "--qubits", "5", "--out", circ)[0] == 0
        rows = {}
        for seed in ("0", "7"):
            cal, rep = str(tmp_path / f"c{seed}.json"), str(tmp_path / f"rep{seed}")
            assert run(capsys, "gen-cal", "--mx", "3", "--my", "3", "--seed", seed,
                       "--out", cal)[0] == 0
            if seed == "0":
                assert run(capsys, "compile", "--variant", "greedy-e", circ, cal,
                           "--out", out)[0] == 0
            assert run(capsys, "evaluate", out + ".json", cal, "--out", rep)[0] == 0
            row = next(csv.DictReader(open(rep + ".csv")))
            rows[seed] = [row[k] for k in ("reliability", "mc_success", "stderr",
                                           "makespan", "swaps")]
        assert rows == {"0": ["0.5840956557359521", "0.58487", "0.0015581947346208047", "35", "2"],
                        "7": ["0.6517160366648829", "0.65246", "0.001505841785846043", "35", "2"]}

    def test_deadline_missed_on_the_calibration_given_exits_3(self, tmp_path, capsys):
        # the record's walks are rescheduled on CAL, whose T2 the stream outlasts
        circ, out = str(tmp_path / "bv5.qasm"), str(tmp_path / "bv5-e")
        assert run(capsys, "gen-circuit", "bv", "--qubits", "5", "--out", circ)[0] == 0
        loose, tight = uniform_cal(tmp_path, 3, 3), uniform_cal(tmp_path, 3, 3, "t.json", t2=12)
        assert run(capsys, "compile", "--variant", "greedy-e", circ, loose, "--out", out)[0] == 0
        code, stdout, stderr = run(capsys, "evaluate", out + ".json", tight,
                                   "--out", str(tmp_path / "rep"))
        assert (code, stdout) == (3, "")
        assert json.loads(stderr)["error"] == "Infeasible"
        assert not (tmp_path / "rep.csv").exists()

    def test_empty_record_exits_1(self, tmp_path, capsys):
        rec = tmp_path / "empty.json"
        rec.write_text("{}")
        code, stdout, stderr = run(capsys, "evaluate", str(rec), uniform_cal(tmp_path, 2, 2),
                                   "--out", str(tmp_path / "rep"))
        assert (code, stdout) == (1, "")
        assert json.loads(stderr)["error"] == "ValueError"

    @pytest.mark.parametrize("kind", ["string", "list", "number", "wrapped record"])
    def test_record_that_is_not_a_json_object_exits_1(self, tmp_path, capsys, bv4, kind):
        # decoded once: a JSON string holding a valid record is not a record
        cal = uniform_cal(tmp_path, 2, 2)
        assert run(capsys, "compile", bv4, cal, "--variant", "greedy-e",
                   "--out", str(tmp_path / "r"))[0] == 0
        rec = tmp_path / "bad.json"
        rec.write_text({"string": '"x"', "list": "[]", "number": "5",
                        "wrapped record": json.dumps((tmp_path / "r.json").read_text())}[kind])
        code, stdout, stderr = run(capsys, "evaluate", str(rec), cal,
                                   "--out", str(tmp_path / "rep"))
        lines = stderr.splitlines()
        assert (code, stdout, len(lines)) == (1, "", 1)
        name = {"string": "str", "list": "list", "number": "int", "wrapped record": "str"}[kind]
        assert json.loads(lines[0]) == {
            "error": "ValueError", "message": f"a record must be a JSON object, not {name}"}
        assert not (tmp_path / "rep.csv").exists()

    def test_record_placing_a_qubit_the_source_does_not_declare_exits_1(self, tmp_path,
                                                                        capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3)
        rec = tmp_path / "r.json"
        assert run(capsys, "compile", bv4, cal, "--variant", "greedy-e",
                   "--out", str(tmp_path / "r"))[0] == 0
        doc = json.loads(rec.read_text())
        taken = {tuple(xy) for xy in doc["placement"].values()}
        doc["placement"]["7"] = next([x, y] for x in range(3) for y in range(3)
                                     if (x, y) not in taken)
        rec.write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, "evaluate", str(rec), cal,
                                   "--out", str(tmp_path / "rep"))
        lines = stderr.splitlines()
        assert (code, stdout, len(lines)) == (1, "", 1)
        assert json.loads(lines[0]) == {
            "error": "ValueError", "message": "placement qubit 7 out of range (register size 4)"}
        assert not (tmp_path / "rep.csv").exists()

    def test_reliability_of_a_circuit_with_no_cnot_or_readout_is_a_float(self, tmp_path,
                                                                         capsys):
        # math.prod of no factors is the int 1; the record and the CSV read 1.0
        circuit, cal = tmp_path / "h.qasm", uniform_cal(tmp_path, 1, 1)
        circuit.write_text("qreg q[1];\nh q[0];\n")
        assert run(capsys, "compile", str(circuit), cal, "--variant", "greedy-e",
                   "--out", str(tmp_path / "h-e"))[0] == 0
        rec = json.loads((tmp_path / "h-e.json").read_text())
        assert type(rec["reliability"]) is float and rec["reliability"] == 1.0
        code, stdout, _ = run(capsys, "evaluate", str(tmp_path / "h-e.json"), cal,
                              "--out", str(tmp_path / "rep"))
        assert code == 0 and "reliability=1.0 " in stdout
        assert next(csv.DictReader(open(tmp_path / "rep.csv")))["reliability"] == "1.0"

    @pytest.mark.parametrize("variant", ["greedy-v", "greedy-e", "t-smt", "t-smt-star",
                                         "r-smt-star"])
    def test_later_write_to_a_clbit_wins(self, tmp_path, capsys, variant):
        # q0's readout is ready last but written first: every compile keeps
        # it first, so c[0] ends as q1's 1
        circuit, cal = tmp_path / "c.qasm", str(tmp_path / "cal.json")
        circuit.write_text("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\n" + "h q[0];\n" * 4
                           + "measure q[0] -> c[0];\nx q[1];\nmeasure q[1] -> c[0];\n")
        assert run(capsys, "gen-cal", "--mx", "2", "--my", "2", "--seed", "1",
                   "--out", cal)[0] == 0
        out = str(tmp_path / "r")
        assert run(capsys, "compile", str(circuit), cal, "--variant", variant,
                   "--out", out)[0] == 0
        code, stdout, _ = run(capsys, "evaluate", out + ".json", cal,
                              "--out", str(tmp_path / "rep"))
        assert code == 0 and "equivalence=pass" in stdout

    def test_equivalence_is_proved_over_the_simulation_cap(self, tmp_path, capsys):
        # 64 qubits on a 12x12 grid: too many cells to simulate, but the
        # normal forms of the read-back stream and its source agree
        circ, cal, out = (str(tmp_path / n) for n in ("r64.qasm", "cal.json", "r64-e"))
        assert run(capsys, "gen-circuit", "random", "--qubits", "64", "--gates", "1024",
                   "--seed", "11", "--out", circ)[0] == 0
        assert run(capsys, "gen-cal", "--mx", "12", "--my", "12", "--seed", "5",
                   "--t2", "1000000", "--out", cal)[0] == 0
        assert run(capsys, "compile", circ, cal, "--variant", "greedy-e", "--out", out)[0] == 0
        code, stdout, _ = run(capsys, "evaluate", out + ".json", cal, "--trials", "1000",
                              "--out", str(tmp_path / "rep"))
        assert code == 0 and "equivalence=pass" in stdout
        assert json.loads((tmp_path / "rep.json").read_text())[0]["equivalence_passed"] is True


class TestCompare:
    def test_two_variants_two_rows(self, tmp_path, capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3)
        out = str(tmp_path / "cmp")
        code, _, _ = run(capsys, "compare", bv4, cal,
                         "--variants", "t-smt-star,r-smt-star",
                         "--trials", "2000", "--seed", "1", "--out", out)
        assert code == 0
        rows = list(csv.DictReader(open(tmp_path / "cmp.csv")))
        assert [r["variant"] for r in rows] == ["t-smt-star", "r-smt-star"]
        assert all(r["benchmark"] == "bv4" for r in rows)

    def test_reliability_variant_wins_on_its_objective(self, tmp_path, capsys, bv4):
        cal = tmp_path / "synth.json"
        cal.write_text(json.dumps(synth_calibration(3, 3, 11)))
        out = str(tmp_path / "cmp2")
        assert run(capsys, "compare", bv4, str(cal),
                   "--variants", "t-smt-star,r-smt-star",
                   "--trials", "1000", "--seed", "1", "--out", out)[0] == 0
        docs = json.loads((tmp_path / "cmp2.json").read_text())
        assert all(d["optimal"] for d in docs)
        by_variant = {d["variant"]: d for d in docs}
        assert by_variant["r-smt-star"]["reliability"] >= \
            by_variant["t-smt-star"]["reliability"]

    def test_identical_seeds_identical_output(self, tmp_path, capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3)
        rows = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert run(capsys, "compare", bv4, cal,
                       "--variants", "r-smt-star,greedy-v",
                       "--trials", "2000", "--seed", "9", "--out", out)[0] == 0
            with open(out + ".csv") as f:
                got = list(csv.reader(f))
            for row in got[1:]:
                row[-1] = ""  # wall-clock column
            rows.append(got)
        assert rows[0] == rows[1]

    def test_unknown_variant_exits_2(self, tmp_path, capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3)
        code, _, stderr = run(capsys, "compare", bv4, cal,
                              "--variants", "r-smt-star,qiskit")
        assert code == 2
        assert "qiskit" in json.loads(stderr)["message"]

    def test_one_infeasible_variant_is_reported_and_the_rest_written(self, tmp_path, capsys,
                                                                     bv4):
        # a static coherence bound of 5 leaves t-smt no placement; greedy-e
        # does not read it and compiles
        cal = uniform_cal(tmp_path, 3, 3, static_coherence_bound=5)
        out = str(tmp_path / "cmp")
        code, stdout, stderr = run(capsys, "compare", bv4, cal, "--variants", "t-smt,greedy-e",
                                   "--trials", "100", "--out", out)
        lines = stderr.splitlines()
        assert (code, len(lines)) == (0, 1)
        assert json.loads(lines[0]) == {"error": "Infeasible",
                                        "message": "every placement violates a coherence deadline"}
        assert stdout.endswith(": 1 variants\n")
        rows = list(csv.DictReader(open(out + ".csv")))
        assert [r["variant"] for r in rows] == ["greedy-e"]

    def test_every_variant_infeasible_exits_3_and_writes_nothing(self, tmp_path, capsys, bv4):
        cal = uniform_cal(tmp_path, 3, 3, static_coherence_bound=5)
        code, stdout, stderr = run(capsys, "compare", bv4, cal, "--variants", "t-smt",
                                   "--out", str(tmp_path / "cmp"))
        assert (code, stdout) == (3, "")
        assert json.loads(stderr)["error"] == "Infeasible"
        assert list(tmp_path.glob("cmp*")) == []


class TestBench:
    def test_row_count_is_sizes_times_variants(self, tmp_path, capsys):
        out = str(tmp_path / "bench")
        code, _, _ = run(capsys, "bench", "--sizes", "2:4,3:6",
                         "--variants", "greedy-v,t-smt-star",
                         "--trials", "200", "--time-limit", "10", "--out", out)
        assert code == 0
        rows = list(csv.DictReader(open(out + ".csv")))
        assert len(rows) == 4
        assert [r["benchmark"] for r in rows] == \
            ["rand-2-4", "rand-2-4", "rand-3-6", "rand-3-6"]
        docs = json.loads((tmp_path / "bench.json").read_text())
        for d in docs:
            assert d["compile_time_s"] < 10.0
            if d["variant"] == "t-smt-star":
                assert d["optimal"] is True


    def test_failed_compile_is_a_row_of_nan_scores(self, tmp_path, capsys, monkeypatch):
        def timeout(*args, **kwargs):
            raise SolverTimeout("no feasible solution within 1 s")
        monkeypatch.setattr(cli, "solve_exact", timeout)
        out = str(tmp_path / "bench")
        code, stdout, stderr = run(capsys, "bench", "--sizes", "2:4", "--variants", "t-smt-star",
                                   "--out", out)
        assert (code, stderr) == (0, "")
        assert stdout.endswith(": 1 rows\n")
        [doc] = json.loads((tmp_path / "bench.json").read_text())
        assert all(math.isnan(doc[k]) for k in ("reliability", "mc_success", "stderr"))
        assert (doc["benchmark"], doc["variant"], doc["trials"], doc["makespan"],
                doc["swaps"]) == ("rand-2-4", "t-smt-star", 0, -1, -1)
        assert doc["optimal"] is False and doc["equivalence_passed"] is None
        [row] = csv.DictReader(open(out + ".csv"))
        assert (row["reliability"], row["mc_success"]) == ("nan", "nan")

    @pytest.mark.parametrize("sizes", ["0:4", "1:4", "4:-1", "2:4,1:4", "4:x"])
    def test_sizes_it_cannot_run_exit_2(self, tmp_path, capsys, sizes):
        code, _, stderr = run(capsys, "bench", "--sizes", sizes, "--variants", "greedy-v",
                              "--out", str(tmp_path / "bench"))
        assert code == 2
        assert json.loads(stderr)["error"] == "UsageError"
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("variants", ["", " , "])
    def test_empty_variant_list_exits_2(self, tmp_path, capsys, variants):
        # as compare refuses it: a report of no rows answers nothing
        code, stdout, stderr = run(capsys, "bench", "--sizes", "2:4", "--variants", variants,
                                   "--out", str(tmp_path / "bench"))
        assert (code, stdout) == (2, "")
        assert json.loads(stderr)["error"] == "UsageError"
        assert not (tmp_path / "bench.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (("compile", "--variant", "greedy-e", "--routing", "rr"),
     "greedy variants always route along best paths"),
    (("compile", "--variant", "greedy-v", "--emit-smtlib", "x.smt2"),
     "--emit-smtlib only applies to exact variants"),
    (("compare", "--routing", "1bp"), "greedy variants always route along best paths"),
    (("compare", "--variants", "t-smt,r-smt-star", "--routing", "rr"),
     "reliability variant requires one-bend routing"),
    (("bench", "--sizes", "4:16,8:64", "--variants", "r-smt-star,t-smt-star", "--omega", "0.7"),
     "--omega only applies to"),
], ids=["compile-greedy-routing", "compile-greedy-smtlib", "compare-default-variants-routing",
        "compare-second-variant-routing", "bench-second-variant-omega"])
def test_flag_a_listed_variant_refuses_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                               bv4, argv, message):
    # every listed variant's config is built before any input is read, so no
    # variant listed before the one that refuses the flag compiles
    for name in ("parse_circuit", "load_calibration", "solve_exact", "heuristic_compile"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: pytest.fail(f"ran {name}"))
    cal = uniform_cal(tmp_path, 2, 3)
    command, *flags = argv
    inputs = () if command == "bench" else (bv4, cal)
    code, stdout, stderr = run(capsys, command, *inputs, *flags, "--out", str(tmp_path / "x"))
    assert (code, stdout) == (2, "")
    err = json.loads(stderr)
    assert err["error"] == "UsageError" and message in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bv4.qasm", "cal.json"]


@pytest.mark.parametrize("command", ["evaluate", "compare", "bench"])
def test_trials_below_one_exit_2(tmp_path, capsys, bv4, command):
    cal = uniform_cal(tmp_path, 3, 3)
    record = str(tmp_path / "bv4-v")
    assert run(capsys, "compile", "--variant", "greedy-v", bv4, cal, "--out", record)[0] == 0
    inputs = {"evaluate": (record + ".json", cal), "compare": (bv4, cal),
              "bench": ("--sizes", "4:16")}[command]
    code, stdout, stderr = run(capsys, command, *inputs, "--trials", "0",
                               "--out", str(tmp_path / "rep"))
    assert (code, stdout) == (2, "")
    assert json.loads(stderr)["error"] == "UsageError"
    assert not (tmp_path / "rep.csv").exists()


@pytest.mark.parametrize("command", ["evaluate", "compare", "bench", "gen-circuit", "gen-cal"])
def test_seed_below_zero_exits_2(tmp_path, capsys, monkeypatch, bv4, command):
    # refused before any work: numpy's generators would refuse it only once
    # they ran, after compare had compiled or evaluate had read the record
    monkeypatch.setattr(cli, "from_record", lambda *a: pytest.fail("read the record"))
    monkeypatch.setattr(cli, "heuristic_compile", lambda *a: pytest.fail("compiled"))
    cal = uniform_cal(tmp_path, 3, 3)
    record = str(tmp_path / "bv4-v.json")
    with open(record, "w") as f:
        f.write("{}")
    inputs = {"evaluate": (record, cal), "compare": (bv4, cal, "--variants", "greedy-v"),
              "bench": ("--sizes", "4:16", "--variants", "greedy-v"),
              "gen-circuit": ("random",), "gen-cal": ("--mx", "2", "--my", "2")}[command]
    code, stdout, stderr = run(capsys, command, *inputs, "--seed", "-1",
                               "--out", str(tmp_path / "rep"))
    lines = stderr.splitlines()
    assert (code, stdout, len(lines)) == (2, "", 1)
    assert json.loads(lines[0])["error"] == "UsageError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bv4-v.json", "bv4.qasm", "cal.json"]


@pytest.mark.parametrize("command,code,error", [("compile", 1, "CalibrationError"),
                                                ("gen-cal", 2, "UsageError"),
                                                ("bench", 2, "UsageError")])
def test_grid_one_cell_over_the_cap_exits_before_any_work(tmp_path, capsys, monkeypatch, bv4,
                                                          command, code, error):
    """machine.MAX_CELLS + 1 cells: a 1x401 calibration or gen-cal grid, and
    bench's 401 qubits, whose square grid is 21x21. bench refuses the entry
    before it runs the size listed first."""
    monkeypatch.setattr(cli, "build_tables", lambda *a: pytest.fail("built tables"))
    inputs = {"compile": (bv4, uniform_cal(tmp_path, 1, 401), "--variant", "greedy-v"),
              "gen-cal": ("--mx", "1", "--my", "401"),
              "bench": ("--sizes", "4:16,401:1", "--variants", "greedy-v")}[command]
    got, stdout, stderr = run(capsys, command, *inputs, "--out", str(tmp_path / "x"))
    lines = stderr.splitlines()
    assert (got, stdout, len(lines)) == (code, "", 1)
    err = json.loads(lines[0])
    assert err["error"] == error and err["message"].endswith("at most 400 cells")
    assert list(tmp_path.glob("x*")) == []


@pytest.mark.parametrize("argv,victim", [
    (("compile", "bv4.qasm", "cal.json", "--variant", "greedy-e", "--out", "bv4"), "bv4.qasm"),
    (("compile", "bv4.qasm", "cal.json", "--variant", "greedy-e", "--out", "cal.json"),
     "cal.json"),
    (("compile", "bv4.qasm", "cal.json", "--variant", "t-smt", "--emit-smtlib", "bv4.qasm"),
     "bv4.qasm"),
    (("evaluate", "rec.json", "cal.json", "--out", "rec"), "rec.json"),
    (("evaluate", "rec.json", "cal.json", "--out", "cal.csv"), "cal.json"),
    (("compare", "bv4.qasm", "cal.json", "--variants", "greedy-e", "--out", "cal"), "cal.json"),
    (("compare", "bv4.qasm", "cal.json", "--variants", "greedy-e", "--out", "link.json"),
     "cal.json"),
], ids=["compile-out-circuit", "compile-out-calibration", "compile-smtlib-circuit",
        "evaluate-out-record", "evaluate-out-calibration", "compare-out-calibration",
        "compare-out-symlink"])
def test_output_that_is_an_input_exits_2(tmp_path, capsys, monkeypatch, bv4, argv, victim):
    # refused before anything is read: by name, through write_report's
    # suffix rule, or through a symlink, every file is left as it was
    monkeypatch.chdir(tmp_path)
    uniform_cal(tmp_path, 3, 3)
    assert run(capsys, "compile", "bv4.qasm", "cal.json", "--variant", "greedy-e",
               "--out", "rec")[0] == 0
    os.symlink("cal.json", "link.json")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(cli, "_read", lambda path: pytest.fail(f"read {path}"))
    code, stdout, stderr = run(capsys, *argv)
    lines = stderr.splitlines()
    assert (code, stdout, len(lines)) == (2, "", 1)
    err = json.loads(lines[0])
    assert err["error"] == "UsageError" and err["message"].endswith(f"the input {victim}")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("smtlib,out,clash", [("x.json", "x", "x.json"),
                                              ("x.qasm", "x", "x.qasm"),
                                              ("./sub/../x.json", "x.qasm", "x.json")])
def test_smtlib_script_that_is_another_output_exits_2(tmp_path, capsys, monkeypatch, bv4,
                                                       smtlib, out, clash):
    # the SMT-LIB script would be replaced by the record or the program;
    # refused before anything is read or written, though no output exists yet
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    uniform_cal(tmp_path, 3, 3)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    monkeypatch.setattr(cli, "_read", lambda path: pytest.fail(f"read {path}"))
    code, stdout, stderr = run(capsys, "compile", "bv4.qasm", "cal.json", "--variant", "t-smt",
                               "--emit-smtlib", smtlib, "--out", out)
    lines = stderr.splitlines()
    assert (code, stdout, len(lines)) == (2, "", 1)
    err = json.loads(lines[0])
    assert err["error"] == "UsageError" and err["message"].endswith(f"the output {clash}")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    assert list((tmp_path / "sub").iterdir()) == []


class TestGenerators:
    def test_gen_circuit_stdout_is_qasm(self, capsys):
        code, stdout, _ = run(capsys, "gen-circuit", "bv", "--qubits", "5",
                              "--secret", "1010")
        assert code == 0
        assert stdout.startswith("OPENQASM 2.0;")
        assert stdout.count("cx ") == 2

    def test_gen_circuit_toffoli_is_the_library_circuit(self, capsys):
        code, stdout, stderr = run(capsys, "gen-circuit", "toffoli")
        assert (code, stderr) == (0, "")
        assert stdout == to_qasm(gen_toffoli())

    @pytest.mark.parametrize("argv", [("random", "--qubits", "1"),
                                      ("random", "--qubits", "3", "--gates", "-2"),
                                      ("bv", "--qubits", "1"),
                                      ("bv", "--qubits", "4", "--secret", "10"),
                                      ("bv", "--qubits", "4", "--secret", "1x1")])
    def test_gen_circuit_rejects_degenerate_sizes(self, capsys, argv):
        code, stdout, stderr = run(capsys, "gen-circuit", *argv)
        assert code == 2
        assert stdout == ""
        assert json.loads(stderr)["error"] == "UsageError"

    def test_gen_cal_matches_library_synth(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code, _, _ = run(capsys, "gen-cal", "--mx", "2", "--my", "4",
                         "--seed", "5", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text()) == synth_calibration(2, 4, 5)

    def test_gen_cal_rejects_degenerate_grid(self, capsys):
        code, _, stderr = run(capsys, "gen-cal", "--mx", "0", "--my", "2")
        assert code == 2
        assert json.loads(stderr)["error"] == "UsageError"
        with pytest.raises(ValueError, match="at least 1x1"):
            synth_calibration(0, 2, 1)

    @pytest.mark.parametrize("t2", [0, -5])
    def test_gen_cal_rejects_t2_its_loader_rejects(self, capsys, t2):
        code, stdout, stderr = run(capsys, "gen-cal", "--mx", "2", "--my", "2", "--t2", str(t2))
        assert (code, stdout) == (2, "")
        assert json.loads(stderr)["error"] == "UsageError"
        with pytest.raises(ValueError, match="positive timeslot count"):
            synth_calibration(2, 2, 1, t2=t2)


def test_python_dash_m_runs_the_cli():
    # the package's own parent directory goes first on the path, so this
    # runs the checkout's nisqc whether or not it is installed
    src = os.path.dirname(os.path.dirname(os.path.abspath(nisqc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "nisqc", "gen-cal", "--mx", "2", "--my", "2",
                           "--seed", "0"], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == synth_calibration(2, 2, 0)


class TestErrorsAreOneJsonLine:
    @pytest.mark.parametrize("argv, message", [
        ((), "the following arguments are required: subcommand"),
        (("compile", "x.qasm"), "the following arguments are required: calibration, --variant"),
        (("evaluate", "r.json", "c.json", "--trials", "abc"),
         "argument --trials: invalid int value: 'abc'"),
        (("compile", "x.qasm", "c.json", "--variant", "zz"),
         "argument --variant: invalid choice: 'zz'"),
    ], ids=["no-subcommand", "missing-positional", "trials-not-an-int", "unknown-variant"])
    def test_argparse_usage_error_exits_2(self, capsys, argv, message):
        # argparse's own refusals, before any file is read
        code, stdout, stderr = run(capsys, *argv)
        lines = stderr.splitlines()
        assert (code, stdout, len(lines)) == (2, "", 1)
        err = json.loads(lines[0])
        assert err["error"] == "UsageError" and err["message"].startswith(message)

    @pytest.mark.parametrize("argv", [("-h",), ("compile", "-h")])
    def test_help_still_prints_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        out = capsys.readouterr()
        assert info.value.code == 0 and out.out.startswith("usage: nisqc") and out.err == ""

    @pytest.mark.parametrize("exc",[RuntimeError("boom"), KeyError("missing")],
                             ids=["RuntimeError", "KeyError"])
    def test_unexpected_exception_exits_1(self, tmp_path, capsys, monkeypatch, bv4, exc):
        def explode(_args):
            raise exc
        monkeypatch.setattr(cli, "cmd_compile", explode)
        code, stdout, stderr = run(capsys, "compile", bv4, uniform_cal(tmp_path, 2, 2),
                                   "--variant", "greedy-v")
        lines = stderr.splitlines()
        assert (code, stdout, len(lines)) == (1, "", 1)
        assert json.loads(lines[0]) == {"error": type(exc).__name__, "message": str(exc)}

    @pytest.mark.parametrize("variant", ["greedy-v", "greedy-e"])
    def test_oversized_register_exits_1(self, tmp_path, capsys, variant):
        circuit = tmp_path / "big.qasm"
        circuit.write_text("OPENQASM 2.0;\nqreg q[300000];\ncreg c[1];\ncx q[0],q[1];\n")
        code, stdout, stderr = run(capsys, "compile", str(circuit), uniform_cal(tmp_path, 2, 2),
                                   "--variant", variant, "--out", str(tmp_path / "x"))
        lines = stderr.splitlines()
        assert (code, stdout, len(lines)) == (1, "", 1)
        assert json.loads(lines[0]) == {"error": "ValueError",
                                        "message": "300000 program qubits exceed 4 hardware cells"}
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("variant", ["greedy-v", "greedy-e"])
    def test_underflowed_reliability_is_named_and_exits_1(self, tmp_path, capsys, variant):
        # 39 hops of CNOT error 0.99999 take a best path's reliability below
        # the smallest float, so placing qubit 39 next to qubit 0 cannot be scored
        circuit = tmp_path / "chain.qasm"
        circuit.write_text("OPENQASM 2.0;\nqreg q[40];\n"
                           + "".join(f"cx q[{i}],q[{i + 1}];\n" for i in range(39))
                           + "cx q[0],q[39];\n")
        cal = uniform_cal(tmp_path, 1, 40, cnot_error=0.99999, t2=10 ** 9)
        code, stdout, stderr = run(capsys, "compile", str(circuit), cal,
                                   "--variant", variant, "--out", str(tmp_path / "x"))
        lines = stderr.splitlines()
        assert (code, stdout, len(lines)) == (1, "", 1)
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert re.fullmatch(r"best-path reliability from cell \d+ to cell \d+ underflowed "
                            r"to 0\.0", err["message"])
        assert not (tmp_path / "x.json").exists()

    def test_json_circuit_is_read_as_qasm_and_exits_1(self, tmp_path, capsys):
        # a circuit is OpenQASM whatever its suffix: a JSON document fails on line 1
        circuit = tmp_path / "big.json"
        circuit.write_text('{"num_qubits": ' + "9" * 5000 + ', "gates": []}')
        code, stdout, stderr = run(capsys, "compile", str(circuit), uniform_cal(tmp_path, 2, 2),
                                   "--variant", "greedy-v", "--out", str(tmp_path / "x"))
        lines = stderr.splitlines()
        assert (code, stdout, len(lines)) == (1, "", 1)
        err = json.loads(lines[0])
        assert err["error"] == "ParseError"
        assert re.fullmatch(r"line 1, column \d+: statement must end with ';'", err["message"])
        assert not (tmp_path / "x.json").exists() and not (tmp_path / "x.qasm").exists()

    def test_non_ascii_digit_exits_1(self, tmp_path, capsys):
        # int() reads the Arabic-Indic two, but QASM digits are ASCII
        circuit = tmp_path / "two.qasm"
        circuit.write_text("OPENQASM 2.0;\nqreg q[٢];\ncx q[0],q[1];\n", encoding="utf-8")
        code, stdout, stderr = run(capsys, "compile", str(circuit), uniform_cal(tmp_path, 2, 2),
                                   "--variant", "greedy-v", "--out", str(tmp_path / "x"))
        lines = stderr.splitlines()
        assert (code, stdout, len(lines)) == (1, "", 1)
        assert json.loads(lines[0])["error"] == "ParseError"
        assert not (tmp_path / "x.json").exists()


# ------------------------------------------------------- malformed inputs ---

def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _scalar_paths(doc, path=()):
    """Paths to every number and string in a JSON document."""
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _scalar_paths(v, path + (k,))]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in _scalar_paths(v, path + (i,))]
    return [path]


def _malformed(doc, required, rng):
    """A copy of doc with one required key dropped, or one number or string
    replaced by a value of another type that no reader can take for it: a
    non-integral number, a bool or a numeric string is not an integer."""
    doc = copy.deepcopy(doc)
    if rng.random() < 0.5:
        path = rng.choice(required)
        del _at(doc, path[:-1])[path[-1]]
    else:
        path = rng.choice(_scalar_paths(doc))
        parent = _at(doc, path[:-1])
        old = parent[path[-1]]
        parent[path[-1]] = rng.choice([v for v in (None, "x", 1, [1], {"v": 1}, 1.5, True, "1")
                                       if not isinstance(v, type(old))])
    return doc


def _compile_exits_1(tmp_path, capsys, cal_doc, error):
    """Compile VALID_QASM on cal_doc: exit 1 with one JSON line naming error
    and no record written. Returns the error's message."""
    circuit = tmp_path / "bv3.qasm"
    if not circuit.exists():
        circuit.write_text(VALID_QASM)
    # fresh file names per case: on some file systems truncating a file costs
    # far more than creating one
    cal = tmp_path / f"cal{len(list(tmp_path.iterdir()))}.json"
    cal.write_text(json.dumps(cal_doc))
    code, stdout, stderr = run(capsys, "compile", str(circuit), str(cal),
                               "--variant", "greedy-v", "--out", str(tmp_path / "x"))
    lines = stderr.splitlines()
    assert (code, stdout, len(lines)) == (1, "", 1), (cal_doc, stderr)
    assert json.loads(lines[0])["error"] == error
    assert not (tmp_path / "x.json").exists()
    return json.loads(lines[0])["message"]


VALID_QASM = to_qasm(gen_bv(3, "11"))
VALID_CAL = synth_calibration(2, 2, 3)


class TestMalformedInputs:
    def test_missing_keys_name_the_loader(self, tmp_path, capsys):
        no_y = copy.deepcopy(VALID_CAL)
        del no_y["qubits"][1]["y"]
        no_b = copy.deepcopy(VALID_CAL)
        del no_b["edges"][2]["b"]
        _compile_exits_1(tmp_path, capsys, no_y, "CalibrationError")
        _compile_exits_1(tmp_path, capsys, no_b, "CalibrationError")

    def test_non_integers_are_refused_not_truncated(self, tmp_path, capsys):
        # int() once read each of these as an integer; now each is refused by
        # a message naming its key, and an integral float such as 2.0 loads
        cal_cases = [(("grid", "my"), 2.9, "my"),
                     (("defaults", "cnot_duration"), 2.7, "cnot_duration"),
                     (("defaults", "t2"), "500", "t2"),
                     (("defaults", "readout_duration"), True, "readout_duration"),
                     (("qubits", 2, "x"), 1.5, "x"),
                     (("edges", 0, "a", 1), 0.5, "a"),
                     (("defaults", "cnot_error"), "0.04", "cnot_error"),
                     (("qubits", 0, "readout_error"), False, "readout_error")]

        def replaced(doc, path, value):
            doc = copy.deepcopy(doc)
            _at(doc, path[:-1])[path[-1]] = value
            return doc

        for path, value, key in cal_cases:
            message = _compile_exits_1(tmp_path, capsys, replaced(VALID_CAL, path, value),
                                       "CalibrationError")
            assert message.startswith(f"{key} = {value!r} "), message
        circuit, cal = tmp_path / "bv3.qasm", tmp_path / "cal.json"
        circuit.write_text(VALID_QASM)
        cal.write_text(json.dumps(replaced(replaced(VALID_CAL, ("grid", "mx"), 2.0),
                                           ("defaults", "t2"), 500.0)))
        assert run(capsys, "compile", str(circuit), str(cal), "--variant", "greedy-v",
                   "--out", str(tmp_path / "ok"))[0] == 0

    def test_infinite_duration_is_a_calibration_error(self, tmp_path, capsys):
        doc = copy.deepcopy(VALID_CAL)
        doc["defaults"]["t2"] = float("inf")
        _compile_exits_1(tmp_path, capsys, doc, "CalibrationError")

    def test_seeded_sweep(self, tmp_path, capsys):
        rng = random.Random(11)
        cal_required = [("grid",), ("grid", "mx"), ("grid", "my")]
        cal_required += [("qubits", i, k) for i in range(4) for k in ("x", "y")]
        cal_required += [("edges", i, k) for i in range(4) for k in ("a", "b")]
        for _ in range(40):
            _compile_exits_1(tmp_path, capsys, _malformed(VALID_CAL, cal_required, rng),
                             "CalibrationError")

    def test_seeded_qasm_sweep(self, tmp_path, capsys, bv4):
        # a bv4 program with one seeded fault: a dropped ';', a renamed
        # register, an index set out of range, an unknown gate, a digit of
        # another script, a cut at a random byte, a second qreg or an integer
        # of 5,000 digits, past what int() reads. Every case ends in a
        # documented exit code, and a failure prints one JSON line and writes
        # no record; all but the cut and the index are ParseErrors.
        lines = open(bv4).read().splitlines(keepends=True)
        cal = uniform_cal(tmp_path, 2, 3)
        rng = random.Random(13)
        faults = ["semicolon", "register", "index", "gate", "digit", "cut", "qreg", "long"]
        for case in range(60):
            fault = faults[case % len(faults)]
            text = list(lines)
            i = rng.randrange(1, len(text))   # any statement but the header
            if fault == "semicolon":
                text[i] = text[i].replace(";", "", 1)
            elif fault == "register":
                text[i] = re.sub(r"\b[qc]\[", lambda m: "r" + m.group()[1:], text[i], count=1)
            elif fault == "index":
                text[i] = re.sub(r"\[[0-9]+\]", f"[{rng.choice([3, 4, 9, 10 ** 6])}]", text[i],
                                 count=1)
            elif fault == "gate":
                i = rng.randrange(3, len(text))
                text[i] = rng.choice(["ccx", "u3", "swap", "rx"]) + text[i][text[i].index(" "):]
            elif fault == "digit":
                text[i] = re.sub("[0-9]", rng.choice(["٢", "２", "३"]), text[i],
                                 count=1)
            elif fault == "qreg":
                text.insert(i, "qreg q[4];\n")
            elif fault == "long":
                text[i] = re.sub(r"\[[0-9]+\]", "[" + "9" * 5000 + "]", text[i], count=1)
            text = "".join(text)
            if fault == "cut":
                text = text[:rng.randrange(len(text))]
            circuit = tmp_path / f"m{case}.qasm"
            circuit.write_text(text, encoding="utf-8")
            for variant in ("greedy-e", "t-smt-star"):
                out = tmp_path / f"m{case}-{variant}"
                code, stdout, stderr = run(capsys, "compile", str(circuit), cal,
                                           "--variant", variant, "--out", str(out))
                assert code in (0, 1, 2, 3, 4), (fault, text, stderr)
                if fault not in ("cut", "index"):
                    assert code == 1 and json.loads(stderr)["error"] == "ParseError", (fault, text)
                if fault == "long":
                    assert json.loads(stderr)["message"].startswith(f"line {i + 1}, column 1:")
                if code:
                    assert stdout == "" and len(stderr.splitlines()) == 1, (fault, text, stderr)
                    assert "error" in json.loads(stderr)
                assert (code == 0) == os.path.exists(f"{out}.json"), (fault, text)

    def test_seeded_record_sweep(self, tmp_path, capsys):
        # a record with a required key dropped, a walk that is not one over
        # the grid's edges between its CNOT's cells or that visits a cell
        # twice, cells or coordinates that equal the right ones but are not
        # JSON integers, a config or optimal flag that compile would not
        # accept, or a compile_time_s that is not a finite number >= 0 is
        # refused before it is scored; every bad value is tried once. The
        # objective is recomputed on read, so it is not required.
        circuit, cal = tmp_path / "c.qasm", tmp_path / "cal.json"
        circuit.write_text(VALID_QASM)
        cal.write_text(json.dumps(VALID_CAL))
        assert run(capsys, "compile", str(circuit), str(cal), "--variant", "greedy-v",
                   "--out", str(tmp_path / "r"))[0] == 0
        valid = json.loads((tmp_path / "r.json").read_text())
        required = [(k,) for k in ("placement", "variant", "config", "gate_routes",
                                   "source_qasm")]
        required += [("config", k) for k in ("routing", "omega", "count_return_swaps",
                                             "num_cells")]
        required += [("placement", q) for q in valid["placement"]]
        required += [("gate_routes", g) for g in valid["gate_routes"]]
        # the last walk joins the cells of the CNOT it is drawn for, 0 and 2
        bad = {"walk": [[], [0], None, 7, "01", [0, 4], [0, 3], [[0], [1]], [0, None],
                        [0, 1, 0, 2]],
               "omega": [math.nan, -0.5, 1.5, math.inf, None, "0.5"],
               "routing": ["rr", "1bp", "bogus", None, ["path"]],
               "count_return_swaps": ["no", 0, 1, None],
               "variant": ["bogus", "t-smt", "r-smt-star", None, ["greedy-v"]],
               "optimal": ["yes", 1, None],
               "compile_time_s": ["1.5", -1.0, math.nan, math.inf, True, None],
               "placement": [[], "x", 7, None],
               "source_qasm": [7, [], {}, None],
               # every route cell or placement coordinate that the type can
               # equal, retyped: [0, 2] becomes [0.0, 2.0] or [False, 2]
               "route cells": [float, bool],
               "placement cells": [bool],
               # a placement key read as a qubit by int() but not written
               # as to_record writes one: (bad key, the key it replaces)
               "placement keys": [(" 0", "0"), ("0_1", "1"), ("+1", "1"), ("01", "1"),
                                  ("٠", "0"), ("-0", "0")]}
        rng = random.Random(12)
        cases = [("drop", None)] * 40 + [(what, value) for what, values in bad.items()
                                         for value in values]
        for case, (what, value) in enumerate(cases):
            doc = copy.deepcopy(valid)
            if what == "drop":
                path = rng.choice(required)
                del _at(doc, path[:-1])[path[-1]]
            elif what == "walk":
                doc["gate_routes"][rng.choice(sorted(doc["gate_routes"]))] = value
            elif what == "placement keys":
                spelled, key = value
                doc["placement"][spelled] = doc["placement"].pop(key)
            elif what in ("route cells", "placement cells"):
                lists = doc["gate_routes" if what == "route cells" else "placement"]
                for key, cells in lists.items():
                    lists[key] = [value(x) if value(x) == x else x for x in cells]
            elif what in doc["config"]:
                doc["config"][what] = value
            else:
                doc[what] = value
            record, rep = tmp_path / f"rec{case}.json", tmp_path / f"rep{case}"
            record.write_text(json.dumps(doc))
            code, stdout, stderr = run(capsys, "evaluate", str(record), str(cal),
                                       "--trials", "10", "--out", str(rep))
            lines = stderr.splitlines()
            assert (code, stdout, len(lines)) == (1, "", 1), (what, doc, stderr)
            assert json.loads(lines[0])["error"] == "ValueError"
            assert not (tmp_path / f"rep{case}.csv").exists()


def test_readme_names_every_subcommand_option_and_exit_code():
    # the CLI reference in README.md keeps up with build_parser() and with the
    # exit codes cli's docstring lists
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def named(word):
        return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", readme) is not None

    subparsers = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    missing = []
    for name, p in subparsers[0].choices.items():
        if not named(f"nisqc {name}"):
            missing.append(f"nisqc {name}")
        missing += [f"{name} {opt}" for a in p._actions if not isinstance(a, argparse._HelpAction)
                    for opt in a.option_strings if opt.startswith("--") and not named(opt)]
    assert missing == []
    codes = re.findall(r"(\d) \w", cli.__doc__.split("Exit codes:")[1].split(".")[0])
    assert codes, "no exit code read from cli's docstring"
    listed = readme.split("Exit codes:")[1].split("\n\n")[0]
    assert [c for c in codes if not re.search(rf"\b{c} \w", listed)] == []
