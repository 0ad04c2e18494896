"""tools/bench_pairs.py: the claim rule, the bound check and the file layout,
on canned perfbench output. Runs no git and no benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def canned(metrics: dict, digest="8aa7104ce9ef08b5", proved=None) -> str:
    """perfbench --trace 0 stdout with the given end-to-end metrics."""
    lines = ["workload recal-evaluate seed 1: 90 ops (1 periods of 90) in 1.17 s",
             "speed: reference loop fastest 0.0036 s, median 0.0054 s over 101 probes"]
    lines += [f"metric {k} = {v!r} s" for k, v in metrics.items()]
    if proved is not None:
        lines.append(f"metric proved_ratio = {proved!r} ratio  (1 of 2 solves)")
    lines += ["metric fail_ratio = 0.0 ratio  (0 of 90 ops)",
              "failures codegen.expand_failures = 0", "failures other_failures = 0",
              f"digest op=0 bv3/greedy-e {digest}", f"digest first-90 {digest}",
              "input-digest first-90 406e0115fc9614d3",
              json.dumps({"correct": True, "attempted": 90, "failed": 0,
                          "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}})]
    return "\n".join(lines) + "\n"


def metrics(**over):
    base = {name: 1.0 for name in END_TO_END}
    base.update(over)
    return base


def test_parse_run_reads_the_json_line_quality_and_digests():
    run = bench_pairs.parse_run(canned(metrics(peak_rss_mb=62.5), proved=0.5))
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 90, 0)
    assert list(run["metrics"]) == END_TO_END and run["metrics"]["peak_rss_mb"] == 62.5
    assert run["quality"] == {"ln_rel_loss": 1.0, "makespan_mean": 1.0, "swaps_mean": 1.0,
                              "proved_ratio": 0.5, "fail_ratio": 0.0}
    assert run["digest_lines"] == 3
    assert run["failure_lines"] == ["failures codegen.expand_failures = 0",
                                    "failures other_failures = 0"]
    assert run["digests"] != bench_pairs.parse_run(canned(metrics(), digest="0" * 16))["digests"]


PARENT = [64.0, 64.1, 64.2, 64.1, 64.0, 64.2, 64.1, 64.0, 64.1, 64.2]


@pytest.mark.parametrize("change, met", [
    ([p - 1.5 for p in PARENT], True),                      # 10 of 10, well past the IQR
    ([p - 1.5 for p in PARENT[:9]] + [PARENT[9]], True),     # a tie counts for neither side
    ([p - 1.5 for p in PARENT[:8]] + PARENT[8:], False),     # 8 wins and 2 ties
    ([p - 1.5 for p in PARENT[:9]] + [PARENT[9] + 1], True),  # 9 wins and 1 loss
    ([p - 0.05 for p in PARENT], False),                    # every pair won, gain inside the IQR
    ([p + 1.5 for p in PARENT], False),                     # worse
])
def test_claim_rule(change, met):
    summary = bench_pairs.compare(PARENT, change, "lower", 0.25)
    assert bench_pairs.claim_rule(summary, "lower") is met


def test_a_claim_on_fewer_than_ten_pairs_is_not_met():
    summary = bench_pairs.compare(PARENT[:4], [p - 1.5 for p in PARENT[:4]], "lower", 0.25)
    assert summary["change_wins"] == 4 and not bench_pairs.claim_rule(summary, "lower")


def test_claim_rule_on_a_metric_where_higher_is_better():
    summary = bench_pairs.compare(PARENT, [p + 1.5 for p in PARENT], "higher", 0.25)
    assert summary["change_wins"] == 10 and bench_pairs.claim_rule(summary, "higher")
    assert not bench_pairs.claim_rule(bench_pairs.compare(PARENT, PARENT, "higher", 0.25),
                                      "higher")


def test_iqr_is_the_inclusive_quartile_distance():
    summary = bench_pairs.compare([1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5, "lower", 0.25)
    assert summary["parent_quartiles"] == [2.0, 4.0] and summary["parent_iqr"] == 2.0
    assert summary["parent_median"] == 3.0 and summary["change_vs_parent"] == -2 / 3


@pytest.mark.parametrize("ratio, better, within", [
    (1.2, "lower", True), (1.3, "lower", False), (0.8, "higher", True), (0.7, "higher", False),
    (0.5, "lower", True),
])
def test_bound(ratio, better, within):
    summary = bench_pairs.compare([10.0, 10.0], [10.0 * ratio] * 2, better, 0.25)
    assert summary["within_bound"] is within


def test_layout_from_canned_runs(tmp_path, monkeypatch):
    def fake_bench(cwd, workload, seed, seconds):
        change = cwd == bench_pairs.ROOT
        return bench_pairs.parse_run(canned(metrics(peak_rss_mb=62.0 if change else 64.0),
                                            digest=f"{seed:016d}"))

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: "f" * 40)
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"tracemalloc": {"12x12": [1, 2]}}))
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--claim", "greedy-scale:peak_rss_mb", "--set", "greedy-scale:4",
                             "--set", "greedy-scale:1,2,3",
                             "--extra", str(extra), "--out", str(out)])
    doc = json.loads(out.read_text())
    assert code == 0
    assert list(doc) == ["command", "parent", "machine", "claimed", "runs", "pairs", "checks",
                         "extra"]
    assert doc["parent"] == "f" * 40 and doc["extra"] == {"tracemalloc": {"12x12": [1, 2]}}
    assert list(doc["pairs"]) == ["greedy-scale seed 4", "greedy-scale seeds 1,2,3"]
    mixed = doc["pairs"]["greedy-scale seeds 1,2,3"]
    assert list(mixed["identity"]) == ["1", "2", "3"]
    assert mixed["summary"]["peak_rss_mb"]["change_wins"] == 10
    assert doc["claimed"]["met"] is True and set(doc["claimed"]["sets"]) == set(doc["pairs"])
    assert [(c["workload"], c["seed"]) for c in doc["checks"]["cells"]] == \
        [(w, s) for w in bench_pairs.WORKLOADS for s in (1, 2, 3)]
    assert all(list(c) == ["workload", "seed", "identity"] for c in doc["checks"]["cells"])
    runs = bench_pairs.read_runs(out)
    assert len(runs) == 2 * (10 + 10 + 9)
    first = [r["first"] for r in runs
             if r["set"] == "greedy-scale seed 4" and r["side"] == "parent"]
    assert first == ["parent", "change"] * 5
    assert [r["seed"] for r in runs if r["set"] == "greedy-scale seeds 1,2,3"][::2] == \
        [1, 2, 3] * 3 + [1]


def test_a_digest_that_differs_fails_the_checks(tmp_path, monkeypatch):
    def fake_bench(cwd, workload, seed, seconds):
        return bench_pairs.parse_run(canned(metrics(), digest="1" * 16 if cwd == bench_pairs.ROOT
                                            else "2" * 16))

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: "f" * 40)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["claimed"] == {} and doc["pairs"] == {}
    assert not doc["checks"]["cells"][0]["identity"]["1"]["digest_lines_identical"]


def test_a_pair_set_past_its_bound_fails_and_a_check_cell_is_not_gated(tmp_path, monkeypatch):
    def fake_bench(cwd, workload, seed, seconds):
        slow = cwd == bench_pairs.ROOT and (workload == "recal-evaluate" or seed == 4)
        return bench_pairs.parse_run(canned(metrics(**{"verify_s.p90": 1.3 if slow else 1.0})))

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: "f" * 40)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--out", str(out)]) == 0
    assert bench_pairs.main(["--set", "exact-paper:4", "--out", str(out)]) == 1
    summary = json.loads(out.read_text())["pairs"]["exact-paper seed 4"]["summary"]
    assert not summary["verify_s.p90"]["within_bound"] and summary["ops_per_s"]["within_bound"]


def test_read_runs_refuses_a_run_without_its_side(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"runs": [{"workload": "greedy-scale", "seed": 4,
                                          "metrics": {}}]}))
    with pytest.raises(ValueError, match="side"):
        bench_pairs.read_runs(path)


def by_side(digest_of):
    """A fake bench whose digest line is digest_of(cwd, workload, seed)."""
    def fake_bench(cwd, workload, seed, seconds):
        return bench_pairs.parse_run(canned(metrics(), digest=digest_of(cwd, workload, seed)))
    return fake_bench


def side(cwd):
    return "1" if cwd == bench_pairs.ROOT else "2"


def test_a_named_workload_may_change_its_outputs(tmp_path, monkeypatch):
    # greedy-scale's digests differ between sides, and agree within each
    monkeypatch.setattr(bench_pairs, "bench", by_side(
        lambda cwd, w, s: (side(cwd) if w == "greedy-scale" else "3") * 16))
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: "f" * 40)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--outputs-change", "greedy-scale", "--set", "greedy-scale:4",
                             "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["checks"]["outputs_change"] == ["greedy-scale"]
    assert doc["pairs"]["greedy-scale seed 4"]["identity"]["4"]["digest_lines_identical"]
    cells = {c["workload"]: c for c in doc["checks"]["cells"]}
    assert set(cells["greedy-scale"]["quality"]) == {"parent", "change"}
    assert "quality" not in cells["recal-evaluate"]


def test_a_named_workload_fails_when_one_side_disagrees_with_itself(tmp_path, monkeypatch):
    calls = []

    def digest(cwd, workload, seed):
        calls.append(cwd)
        # the change's own runs of greedy-scale seed 4 differ from each other
        if workload == "greedy-scale" and cwd == bench_pairs.ROOT:
            return f"{len(calls):016d}"
        return side(cwd) * 16 if workload == "greedy-scale" else "3" * 16

    monkeypatch.setattr(bench_pairs, "bench", by_side(digest))
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: "f" * 40)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--outputs-change", "greedy-scale", "--set", "greedy-scale:4",
                             "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert not doc["pairs"]["greedy-scale seed 4"]["identity"]["4"]["digest_lines_identical"]


def test_an_unnamed_workload_must_still_agree_across_sides(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "bench", by_side(lambda cwd, w, s: side(cwd) * 16))
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: "f" * 40)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--outputs-change", "greedy-scale", "--out", str(out)]) == 1
    cells = json.loads(out.read_text())["checks"]["cells"]
    for c in cells:
        agree = c["identity"][str(c["seed"])]["digest_lines_identical"]
        assert agree is (c["workload"] == "greedy-scale"), c
