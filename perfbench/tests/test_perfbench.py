"""Tests of the benchmark itself: every workload prints every named metric,
the same seed reproduces its outputs, and the self-time and nominal-time
arithmetic.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORKLOADS = ("exact-paper", "greedy-scale", "recal-evaluate")
END_TO_END = ("setup_s", "compile_s.p50", "compile_s.p90", "verify_s.p50",
              "verify_s.p90", "ops_per_s", "proved_ratio", "fail_ratio",
              "ln_rel_mean", "ln_rel_loss", "makespan_mean", "swaps_mean", "peak_rss_mb")
PER_LAYER = ("circuit.parse_s", "machine.load_calibration_s", "machine.build_tables_s",
             "machine.table_entries", "optimal.solve_exact_s", "optimal.limit_hits",
             "heuristic.map_s", "heuristic.route_schedule_s",
             "codegen.expand_s", "codegen.record_s", "codegen.from_record_s",
             "codegen.phys_gates", "optimal.check_solution_s", "evaluate.equivalence_s",
             "evaluate.equivalence_skipped", "evaluate.monte_carlo_s")
FAILURES = ("codegen.expand_failures", "codegen.roundtrip_mismatches",
            "optimal.check_violations", "evaluate.equivalence_failures", "other_failures")


def bench(workload, seed=1, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def ok_run(workload, seed=1, trace=0):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def listed(section):
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_run_prints_every_end_to_end_metric(workload):
    lines, result = ok_run(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == listed("end_to_end")
    printed = {m.group(1): m.group(2) for m in
               (re.match(r"metric (\S+) = \S+ (\S+)", ln) for ln in lines) if m}
    want = [n for n in END_TO_END if n != "proved_ratio" or workload == "exact-paper"]
    assert set(printed) == set(want)
    for name in want:
        if ".p" in name:
            assert re.search(rf"metric {re.escape(name)} = .*\(n=\d+, \d+ above, raw \S+ s\)",
                             "\n".join(lines))
    for name, spec in zip(listed("end_to_end"), json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]):
        assert result["metrics"][name]["unit"] == spec["unit"] == printed[name]
        assert result["metrics"][name]["value"] != 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    lines, result = ok_run(workload, trace=1)
    text = "\n".join(lines)
    assert result["correct"] is True
    assert list(result["metrics"]) == listed("per_layer")
    for name in PER_LAYER:
        assert re.search(rf"^layer-metric {re.escape(name)} = ", text, re.M), name
    for layer in ("bench", "circuit", "machine", "optimal", "heuristic", "codegen", "evaluate"):
        assert re.search(rf"^layer {layer}: busy \S+ s/op, self \S+ s/op$", text, re.M)
    for name in FAILURES:
        assert f"failures {name} = " in text
    assert re.search(r"^tracing ops_per_s untraced \S+, traced \S+, overhead ", text, re.M)
    assert "differ on ops" not in text
    assert (BENCH / "out" / f"trace-{workload}-seed1.json").is_file()


def _hash(lines, prefix):
    return next(ln for ln in lines if ln.startswith(prefix)).split()[2]


def _fingerprint(lines, result):
    return (_hash(lines, "digest first-"), _hash(lines, "input-digest "),
            result["metrics"]["codegen.phys_gates"]["value"],
            [ln for ln in lines if ln.startswith(("digest op=", "failure"))],
            result["attempted"], result["failed"])


@pytest.mark.parametrize("workload", ("exact-paper", "recal-evaluate"))
def test_same_seed_same_outputs_other_seed_other_inputs(workload):
    """The exact search's budget is counted in clock reads, so exact-paper
    repeats too, failures included."""
    a = _fingerprint(*ok_run(workload, seed=3, trace=1))
    b = _fingerprint(*ok_run(workload, seed=3, trace=1))
    c = _fingerprint(*ok_run(workload, seed=4, trace=1))
    assert a == b
    assert a[1] != c[1]


def _import_bench():
    for path in (str(ROOT / "src"), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)


def test_read_budget_stops_the_search_at_the_same_point():
    _import_bench()
    import nisqc.optimal
    from pipeline import Untraced, read_budget, run_op
    from workloads import exact_paper
    w = exact_paper(1)
    machines = [(m, nisqc.build_tables(m)) for m in map(nisqc.load_calibration, w.calibrations)]
    saved = nisqc.optimal.time
    runs = [[run_op(w.op(i), machines, Untraced()) for i in range(8)] for _ in range(2)]
    assert nisqc.optimal.time is saved
    assert any(r.limit_hit for r in runs[0])
    assert [(r.digest, r.failure, r.limit_hit) for r in runs[0]] == \
        [(r.digest, r.failure, r.limit_hit) for r in runs[1]]
    with pytest.raises(SystemExit), read_budget():
        pass   # a search that never reads the clock is not on the budget


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("recal-evaluate", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_children():
    _import_bench()
    from trace_report import self_times
    spans = [["bench.op", 0.0, 10.0, None, 0],
             ["codegen.expand", 1.0, 4.0, 0, 0],
             ["codegen.emit_qasm", 3.0, 5.0, 0, 0],
             ["evaluate.monte_carlo_success", 7.0, 8.0, 0, 0]]
    assert self_times(spans) == [10.0 - 4.0 - 1.0, 3.0, 2.0, 1.0]


def test_nominal_times_scale_with_the_reference_around_each_span():
    _import_bench()
    from pipeline import NOMINAL_REF_S, OpResult
    from trace_report import nominal_times
    op = OpResult(0, "op", ref_s=2 * NOMINAL_REF_S)  # half speed
    spans = [["bench.op", 0.0, 1.0, None, 0],
             ["optimal.solve_exact", 0.2, 0.6, 0, 0],
             ["bench.setup", 0.0, 4.0, None, "setup0"]]
    times = nominal_times(spans, [op], [(4.0, NOMINAL_REF_S / 2)])  # double speed
    assert times[0] == pytest.approx((0.5, 0.3))
    assert times[1] == pytest.approx((0.2, 0.2))
    assert times[2] == pytest.approx((8.0, 8.0))
