"""Seeded, closed-loop benchmark of the nisqc compiler.

    python3 perfbench/run.py --workload exact-paper --seed 1 --seconds 30 --trace 0

One client in one process and thread runs ops back to back: each op hands
the compiler QASM text (and, on recal-evaluate, calibration JSON), compiles
it, and verifies the result with the library's own oracles. With
``--trace 0`` the run prints every end-to-end metric; with ``--trace 1`` it
spends half of ``--seconds`` untraced and half with spans around every
library call, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metrics it carries are the
ones BENCHMARK.json lists. See perfbench/README.md for what each means.
"""

import os

# Single-threaded numerics: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program() -> None:
    """Put the checkout's src/ first on the path; fail if nisqc is not there."""
    src = ROOT / "src"
    if not (src / "nisqc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nisqc sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import nisqc
    if Path(nisqc.__file__).resolve().parent != (src / "nisqc").resolve():
        sys.exit(f"perfbench: imported nisqc from {nisqc.__file__}, not {src}")


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results, setup_reps) -> tuple[dict, dict]:
    """The end-to-end metrics, as {name: (value, unit)}, and the note that
    goes with each percentile. Times are in nominal seconds (see
    pipeline.nominal); the notes give the raw wall-clock value too."""
    from pipeline import nominal, ops_per_s
    ok = [r for r in results if r.failure is None]
    if not ok:
        raise SystemExit("perfbench: no op passed the correctness gate")
    exact = [r for r in results if r.exact]
    setup = [nominal(t, ref) for t, ref in setup_reps]
    out = {"setup_s": (statistics.median(setup), "s")}
    notes = {"setup_s": f"median of {len(setup)}, raw "
                        f"{statistics.median(t for t, _ in setup_reps)!r} s"}
    for stage in ("compile_s", "verify_s"):
        raw = [getattr(r, stage) for r in ok]
        values = [nominal(getattr(r, stage), r.ref_s) for r in ok]
        for q in (50, 90):
            v = quantile(values, q)
            out[f"{stage}.p{q}"] = (v, "s")
            notes[f"{stage}.p{q}"] = (f"n={len(values)}, {sum(x > v for x in values)} above, "
                                      f"raw {quantile(raw, q)!r} s")
    out["ops_per_s"] = (ops_per_s(results), "1/s")
    if exact:
        out["proved_ratio"] = (sum(r.proved for r in exact) / len(exact), "ratio")
        notes["proved_ratio"] = f"{sum(r.proved for r in exact)} of {len(exact)} solves"
    out["fail_ratio"] = ((len(results) - len(ok)) / len(results), "ratio")
    notes["fail_ratio"] = f"{len(results) - len(ok)} of {len(results)} ops"
    out["ln_rel_mean"] = (statistics.fmean(r.ln_rel for r in ok), "nats")
    out["ln_rel_loss"] = (-out["ln_rel_mean"][0], "nats")
    out["makespan_mean"] = (statistics.fmean(r.makespan for r in ok), "timeslots")
    out["swaps_mean"] = (statistics.fmean(r.swaps for r in ok), "count")
    out["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    return out, notes


def digests(workload, results) -> list[str]:
    """Per-op output hashes, and one over the outcomes of the first period,
    which every run of the workload makes."""
    lines = []
    head = hashlib.sha256()
    inputs = hashlib.sha256()
    for r in results:
        if r.digest:
            lines.append(f"digest op={r.index} {r.label} {r.digest}")
        if r.index < workload.period:
            head.update(f"{r.index}:{r.digest or f'failed:{r.failure}'}\n".encode())
    for i in range(workload.period):
        op = workload.op(i)
        inputs.update(f"{op.qasm}\n{op.calibration or ''}\n".encode())
    lines.append(f"digest first-{workload.period} {head.hexdigest()[:16]}")
    lines.append(f"input-digest first-{workload.period} {inputs.hexdigest()[:16]}")
    return lines


def gate(results) -> tuple[bool, list[str]]:
    """Whether every output the program returned was correct, and the
    failure lines to print."""
    from pipeline import FAILURES, WRONG_OUTPUT
    counts = {k: sum(r.failure == k for r in results) for k in FAILURES}
    lines = [f"failures {k} = {v}" for k, v in counts.items()]
    for r in [r for r in results if r.failure][:8]:
        lines.append(f"failure op={r.index} {r.label} {r.failure}: {r.detail[:160]}")
    mismatches = sum(r.heuristic_mismatch for r in results)
    if mismatches:
        lines.append(f"failure traced heuristic differs from heuristic_compile on {mismatches} ops")
    correct = not mismatches and not any(counts[k] for k in WRONG_OUTPUT)
    return correct, lines


def metric_run(workload, args):
    """Untraced: set-up, then the timed loop; every end-to-end metric."""
    from pipeline import Speed, Untraced, nominal, run_loop, set_up
    speed = Speed()
    machines, reps = set_up(workload, Untraced(), speed)
    t0 = time.perf_counter()
    results = run_loop(workload, machines, args.seconds, Untraced(), speed)
    wall = time.perf_counter() - t0
    metrics, notes = end_to_end(results, reps)
    spent = sum(nominal(r.op_s, r.ref_s) for r in results)
    lines = [f"workload {workload.name} seed {args.seed}: {len(results)} ops "
             f"({len(results) // workload.period} periods of {workload.period}) "
             f"in {wall:.2f} s, {spent / (len(results) // workload.period):.2f} "
             f"nominal s per period",
             f"speed: reference loop fastest {min(speed.refs)!r} s, "
             f"median {statistics.median(speed.refs)!r} s over {len(speed.refs)} probes"]
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"metric {name} = {value!r} {unit}{note}")
    return results, metrics, lines


def traced_run(workload, args):
    """Half the time untraced, half traced; the per-layer metrics. The two
    halves make the same ops and must produce the same outputs."""
    from pipeline import Speed, Tracer, Untraced, run_loop, set_up
    from trace_report import per_layer
    speed = Speed()
    machines, _ = set_up(workload, Untraced(), speed)
    untraced = run_loop(workload, machines, args.seconds / 2, Untraced(), speed)
    machines = None
    tracer = Tracer()
    machines, reps = set_up(workload, tracer, speed)
    traced = run_loop(workload, machines, args.seconds / 2, tracer, speed)
    metrics, report = per_layer(workload, tracer.spans, untraced, traced, reps, machines)
    both = list(zip(untraced, traced))
    differ = [a.index for a, b in both if (a.digest, a.failure) != (b.digest, b.failure)]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                "spans": tracer.spans}))
    lines = [f"workload {workload.name} seed {args.seed}: {len(untraced)} ops untraced, "
             f"{len(traced)} traced", *report,
             f"traced and untraced outputs agree on {len(both) - len(differ)} of "
             f"{len(both)} ops" + (f"; differ on ops {differ}" if differ else ""),
             f"spans written to {path.relative_to(ROOT)}"]
    return untraced, traced, metrics, lines, not differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    if args.trace:
        untraced, traced, metrics, lines, agree = traced_run(workload, args)
        results, digested = untraced + traced, untraced
    else:
        results, metrics, lines = metric_run(workload, args)
        digested, agree = results, True
    correct, failures = gate(results)
    print("\n".join(lines + failures + digests(workload, digested)))
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {', '.join(missing)}")
    print(json.dumps({
        "correct": correct and agree,
        "attempted": len(results),
        "failed": sum(r.failure is not None for r in results),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
