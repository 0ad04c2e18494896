"""Garbage collections by benchmark stage, as a ``tools/bench_pairs.py --extra`` object.

    python3 tools/gc_by_stage.py --parent HEAD greedy-scale:4 recal-evaluate:4 > gc.json
    python3 tools/bench_pairs.py ... --extra gc.json

For each WORKLOAD:SEED, runs perfbench's set-up and the loop of a
``--trace 0`` run (``--seconds``, by default BENCHMARK.json's run_seconds)
and counts the collections of each generation, through ``gc.callbacks``, by
the stage under way: bench.setup, bench.compile, bench.verify, or other (the
interpreter outside them). The stage is read from the spans perfbench's
pipeline opens: the count hands the pipeline an untraced tracer of its own
whose ``span`` keeps the stack of stage names, so nothing is patched and
perfbench/ is only read.

Each workload and side is counted in a fresh process in its own checkout:
this one, and with ``--parent REV`` that git revision too, extracted as
bench_pairs.py does and counted first. Prints one JSON object,
``{"gc_by_stage": {"note": ..., "WORKLOAD seed S": COUNTS}}``, where COUNTS
is ``{"parent": C, "change": C}`` with ``--parent`` and C alone without it,
and C is ``{"ops": n, "failed": n, STAGE: {"gen0": n, "gen1": n, "gen2": n}}``.
A --trace 1 run's traced half is not counted: its spans allocate.
"""

from __future__ import annotations

import os

# perfbench/run.py's single-threaded numerics: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAGES = ("bench.setup", "bench.compile", "bench.verify")


def count(root: Path, workload_name: str, seed: int, seconds: float) -> dict:
    """Collections per stage and generation over the set-up and loop of one
    untraced run of root's nisqc and perfbench, in this process."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import nisqc
    if Path(nisqc.__file__).resolve().parent != (root / "src" / "nisqc").resolve():
        raise SystemExit(f"gc_by_stage: imported nisqc from {nisqc.__file__}, not {root}")
    from pipeline import Speed, Untraced, run_loop, set_up
    from workloads import WORKLOADS
    if workload_name not in WORKLOADS:
        raise SystemExit(f"gc_by_stage: unknown workload {workload_name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")

    stack = ["other"]
    counts = {stage: {"gen0": 0, "gen1": 0, "gen2": 0} for stage in (*STAGES, "other")}

    class Stages(Untraced):
        @contextmanager
        def span(self, name):
            stack.append(name if name in STAGES else stack[-1])
            try:
                yield
            finally:
                stack.pop()

    def on_gc(phase, info):
        if phase == "start":
            counts[stack[-1]][f"gen{info['generation']}"] += 1

    workload, tracer, speed = WORKLOADS[workload_name](seed), Stages(), Speed()
    gc.callbacks.append(on_gc)
    try:
        machines, _ = set_up(workload, tracer, speed)
        results = run_loop(workload, machines, seconds, tracer, speed)
    finally:
        gc.callbacks.remove(on_gc)
    return {"ops": len(results), "failed": sum(r.failure is not None for r in results),
            **counts}


def count_in(root: Path, spec: str, seconds: float) -> dict:
    """count() of one WORKLOAD:SEED in a fresh process run from root."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--root", str(root),
         "--seconds", str(seconds), spec],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode:
        raise SystemExit(f"gc_by_stage: the count of {spec} in {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _spec(text: str) -> tuple[str, int]:
    workload, _, seed = text.partition(":")
    try:
        return workload, int(seed)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("specs", nargs="+", type=_spec, metavar="WORKLOAD:SEED")
    parser.add_argument("--seconds", type=float,
                        help="the run's length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--parent", help="git revision to count too, as the parent side")
    parser.add_argument("--root", type=Path,
                        help="count one WORKLOAD:SEED in this checkout, in this process, "
                             "and print its counts alone")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.root:
        if len(args.specs) != 1:
            parser.error("--root counts one WORKLOAD:SEED")
        print(json.dumps(count(args.root.resolve(), *args.specs[0], seconds)))
        return 0

    sys.path.insert(0, str(HERE))
    from bench_pairs import extract
    out = {"note": f"collections per generation by the stage under way (bench.setup, "
                   f"bench.compile, bench.verify, other: the interpreter outside them), "
                   f"counted through gc.callbacks over perfbench's set-up and the loop of "
                   f"a {seconds:g} s --trace 0 run; one process per workload and side"
                   + (", the parent first" if args.parent else "")}
    with tempfile.TemporaryDirectory(prefix="gc_by_stage-") as tmp:
        if args.parent:
            out["parent"] = extract(args.parent, tmp)
        for workload, seed in args.specs:
            spec = f"{workload}:{seed}"
            sides = {"parent": Path(tmp)} if args.parent else {}
            sides["change"] = ROOT
            got = {side: count_in(root, spec, seconds) for side, root in sides.items()}
            out[f"{workload} seed {seed}"] = got if args.parent else got["change"]
    print(json.dumps({"gc_by_stage": out}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
