"""Alternating parent/change runs of perfbench, and the rule that decides a claim.

    python3 tools/bench_pairs.py --parent HEAD --claim greedy-scale:peak_rss_mb \\
        --set greedy-scale:4 --set greedy-scale:1,2,3 --out BENCH_<n>.json

The change is the working tree this script sits in; the parent is a git
revision, extracted with ``git archive`` into a temporary directory (so the
repository's own .git is only read) and deleted afterwards. Every run is
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
its side's directory, one at a time, with PYTHONDONTWRITEBYTECODE=1 and T
BENCHMARK.json's run_seconds.

- Each ``--set WORKLOAD:SEEDS`` is PAIRS (10) alternating pairs: pair i runs
  seed SEEDS[i % len(SEEDS)], the parent first in even pairs and the change
  first in odd ones.
- Every workload then runs once per side on each of seeds 1-3, the first
  side alternating.
- Runs of one workload and seed must print identical digest lines, failure
  lines and quality metrics on both sides, and fail no op.
- Each gated metric's change median must not be worse than the parent's by
  more than its BENCHMARK.json bound in every pair set. A check cell is one
  run per side, too few to gate a timing, so it keeps only its identity.
- ``--claim WORKLOAD:METRIC`` applies the claim rule (``claim_rule``) to
  every pair set of that workload.

The file written has the keys command, parent, machine, claimed, runs,
pairs, checks and extra (``--extra FILE``, any JSON object), and is
rewritten after every run, so an interrupted comparison keeps what it
measured. ``read_runs`` reads the runs of any file in this layout. Exits 0
when every check passes and the claim, if any, is met.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-paper", "greedy-scale", "recal-evaluate")
CHECK_SEEDS = (1, 2, 3)
PAIRS = 10
# Printed metrics that must be equal on both sides: the program's outputs.
QUALITY = ("ln_rel_loss", "makespan_mean", "swaps_mean", "proved_ratio", "fail_ratio")
RULE = ("the change wins at least 9 in 10 alternating pairs (ties count for neither "
        "side), and the medians differ by more than the parent's interquartile range "
        "(statistics.quantiles, n=4, inclusive)")


def parse_run(stdout: str) -> dict:
    """One perfbench --trace 0 run's stdout as a run record (without its
    workload, seed and side): the final JSON line's fields, every printed
    metric of QUALITY, a hash of the digest lines and the failure lines."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, _, value = line.split()[1:4]
            printed[name] = float(value)
    digests = [ln for ln in lines if ln.startswith(("digest ", "input-digest "))]
    return {
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "quality": {k: printed[k] for k in QUALITY if k in printed},
        "digest_lines": len(digests),
        "digests": hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16],
        "failure_lines": [ln for ln in lines if ln.startswith("failure")],
    }


def read_runs(path) -> list[dict]:
    """The runs of a file in this script's layout, each with at least
    workload, seed, side and metrics."""
    doc = json.loads(Path(path).read_text())
    runs = doc["runs"]
    for run in runs:
        missing = {"workload", "seed", "side", "metrics"} - set(run)
        if missing:
            raise ValueError(f"{path}: a run lacks {', '.join(sorted(missing))}")
    return runs


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, spreads and pair wins of one metric over paired runs
    (parent[i] and change[i] are pair i), and whether the change stays
    within the metric's bound."""
    sign = 1 if better == "lower" else -1
    pq = statistics.quantiles(parent, n=4, method="inclusive")
    cq = statistics.quantiles(change, n=4, method="inclusive")
    pm, cm = pq[1], cq[1]
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    rel = (cm - pm) / abs(pm) if pm else (0.0 if cm == pm else math.inf)
    return {"parent_median": pm, "parent_iqr": pq[2] - pq[0], "parent_quartiles": [pq[0], pq[2]],
            "change_median": cm, "change_iqr": cq[2] - cq[0], "change_quartiles": [cq[0], cq[2]],
            "change_vs_parent": rel, "change_wins": wins, "change_losses": losses,
            "pairs": len(parent), "within_bound": sign * rel <= bound}


def claim_rule(summary: dict, better: str) -> bool:
    """The claim rule on one metric's compare() summary: at least PAIRS
    pairs, 9 in 10 of them won, and a median gain larger than the parent's
    IQR."""
    gain = summary["parent_median"] - summary["change_median"]
    if better != "lower":
        gain = -gain
    return (summary["pairs"] >= PAIRS and summary["change_wins"] * 10 >= 9 * summary["pairs"]
            and gain > summary["parent_iqr"])


def identical(runs: list[dict]) -> dict:
    """Whether runs of one workload and seed, of both sides, agree on
    everything the program outputs, and failed no op."""
    return {"digest_lines_identical": len({r["digests"] for r in runs}) == 1,
            "failure_lines_identical": len({json.dumps(r["failure_lines"]) for r in runs}) == 1,
            "quality_identical": len({json.dumps(r["quality"], sort_keys=True)
                                      for r in runs}) == 1,
            "no_failed_op": all(r["failed"] == 0 and r["correct"] for r in runs)}


def summarize(runs: list[dict], spec: dict) -> dict:
    """Every gated metric over a pair set's runs, paired by their pair index."""
    parent = sorted((r for r in runs if r["side"] == "parent"), key=lambda r: r["pair"])
    change = sorted((r for r in runs if r["side"] == "change"), key=lambda r: r["pair"])
    return {m["name"]: compare([r["metrics"][m["name"]] for r in parent],
                               [r["metrics"][m["name"]] for r in change], m["better"], m["bound"])
            for m in spec["end_to_end"]}


def by_seed(runs: list[dict]) -> dict:
    """identical() per seed of a list of runs of one workload."""
    out = {}
    for seed in sorted({r["seed"] for r in runs}):
        out[str(seed)] = identical([r for r in runs if r["seed"] == seed])
    return out


def passed(doc: dict) -> bool:
    """Every identity and bound check in the document holds, and the claim,
    if there is one, is met."""
    sets = list(doc["pairs"].values())
    cells = doc["checks"]["cells"] + sets
    ok = all(all(v for v in c["identity"][seed].values()) for c in cells for seed in c["identity"])
    ok = ok and all(m["within_bound"] for c in sets for m in c["summary"].values())
    return ok and doc["claimed"].get("met", True)


def bench(cwd: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode:
        raise SystemExit(f"bench_pairs: perfbench failed in {cwd} "
                         f"({workload} seed {seed}):\n{proc.stderr}")
    return parse_run(proc.stdout)


def extract(rev: str, dest: str) -> str:
    """Write revision rev's tree into dest; return its full commit hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"bench_pairs: git archive {sha} failed")
    return sha


def _spec_pair(text: str, what: str) -> tuple[str, str]:
    workload, sep, rest = text.partition(":")
    if not sep or workload not in WORKLOADS or not rest:
        raise argparse.ArgumentTypeError(f"{what} must be WORKLOAD:..., WORKLOAD one of "
                                         f"{', '.join(WORKLOADS)}; got {text!r}")
    return workload, rest


def _pair_set(text: str) -> tuple[str, list[int]]:
    workload, seeds = _spec_pair(text, "--set")
    return workload, [int(s) for s in seeds.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--claim", type=lambda s: _spec_pair(s, "--claim"),
                        help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        type=_pair_set,
                        help="WORKLOAD:SEED[,SEED...], one alternating pair set (repeatable)")
    parser.add_argument("--extra", help="a JSON file whose object is written as extra")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    extra = json.loads(Path(args.extra).read_text()) if args.extra else {}
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.claim and args.claim[1] not in metrics:
        parser.error(f"--claim metric {args.claim[1]!r} is not in BENCHMARK.json")
    out = Path(args.out)

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        doc = {"command": ["python3", "perfbench/run.py", "--workload", "W", "--seed", "S",
                           "--seconds", str(seconds), "--trace", "0"],
               "parent": extract(args.parent, tmp),
               "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, "
                          f"{platform.python_implementation()} {platform.python_version()}; "
                          f"each run in its side's directory, one at a time, "
                          f"PYTHONDONTWRITEBYTECODE=1",
               "claimed": {}, "runs": [], "pairs": {}, "checks": {"cells": []},
               "extra": extra}
        sides = {"parent": Path(tmp), "change": ROOT}

        def run(label, pair, workload, seed, first):
            for side in (first, "change" if first == "parent" else "parent"):
                rec = {"set": label, "pair": pair, "workload": workload, "seed": seed,
                       "side": side, "first": first,
                       **bench(sides[side], workload, seed, seconds)}
                doc["runs"].append(rec)
                out.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"{label} pair {pair} {side}: {rec['metrics']}", file=sys.stderr)

        for workload, seeds in args.sets:
            label = f"{workload} seed{'s' if len(seeds) > 1 else ''} {','.join(map(str, seeds))}"
            for i in range(PAIRS):
                run(label, i, workload, seeds[i % len(seeds)], ("parent", "change")[i % 2])
            mine = [r for r in doc["runs"] if r["set"] == label]
            doc["pairs"][label] = {"workload": workload, "seeds": seeds, "pairs": PAIRS,
                                   "identity": by_seed(mine), "summary": summarize(mine, spec)}
        for k, (workload, seed) in enumerate((w, s) for w in WORKLOADS for s in CHECK_SEEDS):
            label = f"check {workload} seed {seed}"
            run(label, 0, workload, seed, ("parent", "change")[k % 2])
            mine = [r for r in doc["runs"] if r["set"] == label]
            doc["checks"]["cells"].append({"workload": workload, "seed": seed,
                                           "identity": by_seed(mine)})
    if args.claim:
        workload, metric = args.claim
        better = metrics[metric]["better"]
        sets = {label: {**s["summary"][metric], "met": claim_rule(s["summary"][metric], better)}
                for label, s in doc["pairs"].items() if s["workload"] == workload}
        doc["claimed"] = {"workload": workload, "metric": metric, "rule": RULE, "sets": sets,
                          "met": bool(sets) and all(s["met"] for s in sets.values())}
    ok = passed(doc)
    doc["checks"]["passed"] = ok
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"bench_pairs: wrote {out}; checks and claim {'pass' if ok else 'FAIL'}",
          file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
