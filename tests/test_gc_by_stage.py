"""tools/gc_by_stage.py on one exact-paper period: the object it prints is
one that tools/bench_pairs.py --extra takes, with a count per stage and
generation."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_exact_paper_period_is_counted_by_stage():
    proc = subprocess.run(
        [sys.executable, "tools/gc_by_stage.py", "--seconds", "0.1", "exact-paper:1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert list(doc) == ["gc_by_stage"] and isinstance(doc["gc_by_stage"], dict)
    got = doc["gc_by_stage"]
    assert "0.1 s --trace 0 run" in got["note"]
    counts = got["exact-paper seed 1"]
    assert (counts["ops"], counts["failed"]) == (36, 0)   # one period of 9 circuits x 4 variants
    stages = ("bench.setup", "bench.compile", "bench.verify", "other")
    assert list(counts) == ["ops", "failed", *stages]
    for stage in stages:
        assert list(counts[stage]) == ["gen0", "gen1", "gen2"]
        assert all(type(n) is int and n >= 0 for n in counts[stage].values())
    # nine set-ups of sixteen 2x8 tables allocate past the gen-0 threshold
    assert counts["bench.setup"]["gen0"] > 0


def test_a_spec_that_is_not_workload_colon_seed_is_a_usage_error():
    proc = subprocess.run([sys.executable, "tools/gc_by_stage.py", "exact-paper"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "expected WORKLOAD:SEED" in proc.stderr
