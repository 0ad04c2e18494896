"""CLI tests: every subcommand is driven in-process through main(argv) and
checked on its files, stdout summary, and exit code."""

import copy
import csv
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

import nisqc
from nisqc.circuit import gen_bv, parse_circuit, to_json
from nisqc import cli
from nisqc.cli import main
from nisqc.codegen import expand, to_record
from nisqc.heuristic import HeuristicConfig, heuristic_compile
from nisqc.machine import build_tables, load_calibration, synth_calibration


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
        assert rows == {"0": ["0.486069998020987", "0.48529", "0.0015804544153502182", "58", "4"],
                        "7": ["0.5820641579210737", "0.58283", "0.0015592921185589312", "58", "4"]}

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


    @pytest.mark.parametrize("sizes", ["0:4", "1:4", "4:-1", "2:4,1:4"])
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


class TestGenerators:
    def test_gen_circuit_stdout_is_qasm(self, capsys):
        code, stdout, _ = run(capsys, "gen-circuit", "bv", "--qubits", "5",
                              "--secret", "1010")
        assert code == 0
        assert stdout.startswith("OPENQASM 2.0;")
        assert stdout.count("cx ") == 2

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
    @pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyError("missing")],
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

    def test_json_integer_past_the_digit_limit_exits_1(self, tmp_path, capsys):
        circuit = tmp_path / "big.json"
        circuit.write_text('{"num_qubits": ' + "9" * 5000 + ', "gates": []}')
        code, stdout, stderr = run(capsys, "compile", str(circuit), uniform_cal(tmp_path, 2, 2),
                                   "--variant", "greedy-v", "--out", str(tmp_path / "x"))
        assert (code, stdout, len(stderr.splitlines())) == (1, "", 1)
        assert json.loads(stderr)["error"] == "ParseError"
        assert not (tmp_path / "x.json").exists()

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


def _compile_exits_1(tmp_path, capsys, circuit_doc, cal_doc, error):
    # fresh file names per case: on some file systems truncating a file costs
    # far more than creating one
    case = len(list(tmp_path.iterdir()))
    circuit, cal = tmp_path / f"c{case}.json", tmp_path / f"cal{case}.json"
    circuit.write_text(json.dumps(circuit_doc))
    cal.write_text(json.dumps(cal_doc))
    code, stdout, stderr = run(capsys, "compile", str(circuit), str(cal),
                               "--variant", "greedy-v", "--out", str(tmp_path / "x"))
    lines = stderr.splitlines()
    assert (code, stdout, len(lines)) == (1, "", 1), (circuit_doc, cal_doc, stderr)
    assert json.loads(lines[0])["error"] == error
    assert not (tmp_path / "x.json").exists()
    return json.loads(lines[0])["message"]


VALID_CIRCUIT = json.loads(to_json(gen_bv(3, "11")))
VALID_CAL = synth_calibration(2, 2, 3)


class TestMalformedInputs:
    def test_missing_keys_name_the_loader(self, tmp_path, capsys):
        no_y = copy.deepcopy(VALID_CAL)
        del no_y["qubits"][1]["y"]
        no_b = copy.deepcopy(VALID_CAL)
        del no_b["edges"][2]["b"]
        no_operands = copy.deepcopy(VALID_CIRCUIT)
        del no_operands["gates"][0]["operands"]
        _compile_exits_1(tmp_path, capsys, VALID_CIRCUIT, no_y, "CalibrationError")
        _compile_exits_1(tmp_path, capsys, VALID_CIRCUIT, no_b, "CalibrationError")
        _compile_exits_1(tmp_path, capsys, no_operands, VALID_CAL, "ParseError")

    def test_non_integers_are_refused_not_truncated(self, tmp_path, capsys):
        # int() once read each of these as an integer; now each is refused by
        # a message naming its key, and an integral float such as 2.0 loads
        gates = VALID_CIRCUIT["gates"]
        cx = next(i for i, g in enumerate(gates) if g["kind"] == "cx")
        h = next(i for i, g in enumerate(gates) if g["kind"] == "h")
        measure = next(i for i, g in enumerate(gates) if "clbit" in g)
        cal_cases = [(("grid", "my"), 2.9, "my"),
                     (("defaults", "cnot_duration"), 2.7, "cnot_duration"),
                     (("defaults", "t2"), "500", "t2"),
                     (("defaults", "readout_duration"), True, "readout_duration"),
                     (("qubits", 2, "x"), 1.5, "x"),
                     (("edges", 0, "a", 1), 0.5, "a"),
                     (("defaults", "cnot_error"), "0.04", "cnot_error"),
                     (("qubits", 0, "readout_error"), False, "readout_error")]
        circ_cases = [(("gates", cx, "operands"), [0.7, 2], f"gates[{cx}].operands"),
                      (("gates", h, "operands"), [True], f"gates[{h}].operands"),
                      (("gates", measure, "clbit"), 0.2, f"gates[{measure}].clbit"),
                      (("num_qubits",), "3", "num_qubits")]

        def replaced(doc, path, value):
            doc = copy.deepcopy(doc)
            _at(doc, path[:-1])[path[-1]] = value
            return doc

        for path, value, key in cal_cases:
            message = _compile_exits_1(tmp_path, capsys, VALID_CIRCUIT,
                                       replaced(VALID_CAL, path, value), "CalibrationError")
            assert message.startswith(f"{key} = {value!r} "), message
        for path, value, key in circ_cases:
            message = _compile_exits_1(tmp_path, capsys, replaced(VALID_CIRCUIT, path, value),
                                       VALID_CAL, "ParseError")
            assert f"{key} = " in message, message
        circuit, cal = tmp_path / "c.json", tmp_path / "cal.json"
        circuit.write_text(json.dumps(replaced(replaced(VALID_CIRCUIT, ("num_qubits",), 3.0),
                                               ("gates", cx, "operands", 0), 0.0)))
        cal.write_text(json.dumps(replaced(replaced(VALID_CAL, ("grid", "mx"), 2.0),
                                           ("defaults", "t2"), 500.0)))
        assert run(capsys, "compile", str(circuit), str(cal), "--variant", "greedy-v",
                   "--out", str(tmp_path / "ok"))[0] == 0

    def test_infinite_duration_is_a_calibration_error(self, tmp_path, capsys):
        doc = copy.deepcopy(VALID_CAL)
        doc["defaults"]["t2"] = float("inf")
        _compile_exits_1(tmp_path, capsys, VALID_CIRCUIT, doc, "CalibrationError")

    def test_seeded_sweep(self, tmp_path, capsys):
        rng = random.Random(11)
        cal_required = [("grid",), ("grid", "mx"), ("grid", "my")]
        cal_required += [("qubits", i, k) for i in range(4) for k in ("x", "y")]
        cal_required += [("edges", i, k) for i in range(4) for k in ("a", "b")]
        circ_required = [("num_qubits",), ("num_clbits",), ("gates",)]
        for i, g in enumerate(VALID_CIRCUIT["gates"]):
            circ_required += [("gates", i, k) for k in g]
        for _ in range(40):
            _compile_exits_1(tmp_path, capsys, VALID_CIRCUIT,
                             _malformed(VALID_CAL, cal_required, rng), "CalibrationError")
            _compile_exits_1(tmp_path, capsys, _malformed(VALID_CIRCUIT, circ_required, rng),
                             VALID_CAL, "ParseError")

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
        circuit, cal = tmp_path / "c.json", tmp_path / "cal.json"
        circuit.write_text(json.dumps(VALID_CIRCUIT))
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
