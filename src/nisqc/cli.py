"""Command-line driver: compile circuits, evaluate records, compare variants,
sweep synthetic benchmarks, and generate inputs.

Exit codes: 0 success, 2 usage, 3 infeasible, 4 timeout without a solution,
1 any other error. Failures print one JSON object on stderr.
"""

import argparse
import json
import math
import os
import sys
import time

from .circuit import Circuit, gen_bv, gen_random, gen_toffoli, parse_circuit, to_qasm
from .codegen import CompiledCircuit, emit_qasm, expand, from_record, load_record, to_record
from .evaluate import (
    EvalReport,
    atomic_write,
    equivalence_check,
    monte_carlo_success,
    report_paths,
    write_report,
)
from .heuristic import HeuristicConfig, heuristic_compile
from .machine import GridMachine, build_tables, check_grid_size, load_calibration, synth_calibration
from .optimal import SolverTimeout, solve_exact
from .schedule import Infeasible, ProblemConfig
from .smtlib import emit_smtlib

EXACT_VARIANTS = ("t-smt", "t-smt-star", "r-smt-star")
GREEDY_VARIANTS = ("greedy-v", "greedy-e")
ALL_VARIANTS = EXACT_VARIANTS + GREEDY_VARIANTS
RELIABILITY_VARIANTS = ("r-smt-star",) + GREEDY_VARIANTS
DEFAULT_EXACT_TIME_LIMIT = 60.0


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, subparsers included, that raises its usage errors
    as UsageError, so main prints them as one JSON line too."""

    def error(self, message):
        raise UsageError(message)


class EquivalenceError(Exception):
    """The compiled stream's output distribution differs from its source's."""


def _fail(code: int, exc: BaseException) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc), file=sys.stderr)
    return code


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _refuse_overwrite(inputs: tuple[str, ...], outputs: tuple[str | None, ...]) -> None:
    """Raise UsageError if an output is the same file as an input; call before any read."""
    for out in filter(None, outputs):
        for path in inputs:
            if os.path.exists(out) and os.path.exists(path) and os.path.samefile(out, path):
                raise UsageError(f"output {out} would overwrite the input {path}")


def _config(variant: str, args):
    """The variant's config from the flags; raises UsageError for a flag the
    variant does not take. compile, compare and bench build the config of
    every listed variant before they read any input."""
    routing, smtlib = getattr(args, "routing", None), getattr(args, "emit_smtlib", None)
    try:
        if args.omega is not None and variant not in RELIABILITY_VARIANTS:
            raise ValueError(f"--omega only applies to {', '.join(RELIABILITY_VARIANTS)}")
        omega = 0.5 if args.omega is None else args.omega
        if variant in GREEDY_VARIANTS:
            if routing:
                raise ValueError("greedy variants always route along best paths; "
                                 "--routing only applies to exact variants")
            if smtlib:
                raise ValueError("--emit-smtlib only applies to exact variants")
            return HeuristicConfig(policy=variant, omega=omega,
                                   count_return_swaps=args.count_return_swaps)
        limit = DEFAULT_EXACT_TIME_LIMIT if args.time_limit is None else args.time_limit
        return ProblemConfig(variant=variant, routing=routing, omega=omega,
                             count_return_swaps=args.count_return_swaps, time_limit=limit)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _compile_one(c: Circuit, m: GridMachine, tables, cfg) -> tuple[CompiledCircuit, float]:
    """The one compile path of compile, compare and bench: maps and expands
    the circuit. Returns the compiled circuit and the seconds spent in the
    mapper."""
    t0 = time.perf_counter()
    sol = heuristic_compile(c, m, tables, cfg) if isinstance(cfg, HeuristicConfig) \
        else solve_exact(c, m, cfg, tables=tables)
    dt = time.perf_counter() - t0
    return expand(sol, c, m), dt


def _variants(text: str) -> list[str]:
    variants = [v.strip() for v in text.split(",") if v.strip()]
    if not variants:
        raise UsageError("--variants needs at least one variant")
    for v in variants:
        if v not in ALL_VARIANTS:
            raise UsageError(f"unknown variant {v!r}; choose from {', '.join(ALL_VARIANTS)}")
    return variants


def _check_flags(args) -> None:
    """The flags several subcommands share, checked before any work wherever
    a subcommand has them. --time-limit is checked for every variant: bench's
    default variant list mixes greedy and exact ones, and only the exact ones
    use the value."""
    trials, limit, seed = (getattr(args, k, None) for k in ("trials", "time_limit", "seed"))
    if trials is not None and trials < 1:
        raise UsageError(f"--trials {trials}: at least 1 trial is needed")
    if limit is not None and not limit > 0:
        raise UsageError(f"--time-limit {limit}: must be > 0 seconds")
    if seed is not None and seed < 0:
        raise UsageError(f"--seed {seed}: must be >= 0")


def _evaluate_record(cc: CompiledCircuit, benchmark: str, trials: int, seed: int,
                     compile_time_s: float) -> EvalReport:
    p, se = monte_carlo_success(cc, trials, seed)
    return EvalReport(
        benchmark=benchmark,
        variant=cc.variant,
        reliability=cc.reliability,
        mc_success=p,
        stderr=se,
        trials=trials,
        makespan=cc.makespan,
        swaps=cc.swap_count,
        compile_time_s=compile_time_s,
        equivalence_passed=equivalence_check(cc.source, cc).passed,
        optimal=cc.optimal,
    )


# ----------------------------------------------------------- subcommands ---

def cmd_compile(args) -> int:
    out = args.out or f"{_stem(args.circuit)}-{args.variant}"
    stem = out[:-5] if out.endswith((".json", ".qasm")) else out
    record_path, qasm_path = stem + ".json", stem + ".qasm"
    _refuse_overwrite((args.circuit, args.calibration), (record_path, qasm_path, args.emit_smtlib))
    for path in (record_path, qasm_path):
        # neither file need exist yet, so compare names, not files
        if args.emit_smtlib and os.path.realpath(args.emit_smtlib) == os.path.realpath(path):
            raise UsageError(f"--emit-smtlib {args.emit_smtlib} would be overwritten by "
                             f"the output {path}")
    cfg = _config(args.variant, args)
    c = parse_circuit(_read(args.circuit))
    m = load_calibration(_read(args.calibration))
    tables = build_tables(m)
    if args.emit_smtlib:
        atomic_write(args.emit_smtlib, emit_smtlib(c, m, cfg, tables))
    cc, dt = _compile_one(c, m, tables, cfg)
    atomic_write(record_path, json.dumps({**to_record(cc), "compile_time_s": dt}) + "\n")
    atomic_write(qasm_path, emit_qasm(cc))
    print(f"wrote {record_path} and {qasm_path}: objective={cc.objective_value!r} "
          f"optimal={str(cc.optimal).lower()} swaps={cc.swap_count} "
          f"makespan={cc.makespan} compile_time_s={dt:.3f}")
    return 0


def cmd_evaluate(args) -> int:
    out = args.out or _stem(args.record) + "-eval"
    _refuse_overwrite((args.record, args.calibration), report_paths(out))
    doc = load_record(_read(args.record))
    m = load_calibration(_read(args.calibration))
    cc = from_record(doc, m)
    dt = doc.get("compile_time_s", 0.0)
    if type(dt) not in (int, float) or not 0 <= dt < math.inf:
        raise ValueError(f"compile_time_s must be a finite number >= 0, not {dt!r}")
    report = _evaluate_record(cc, args.benchmark or _stem(args.record), args.trials,
                              args.seed, dt)
    csv_path, json_path = write_report([report], out)
    print(f"wrote {csv_path} and {json_path}: reliability={report.reliability!r} "
          f"mc_success={report.mc_success!r} stderr={report.stderr:.6f} "
          f"equivalence={'pass' if report.equivalence_passed else 'FAIL'}")
    if not report.equivalence_passed:
        raise EquivalenceError(f"{args.record}: the compiled stream's normal form "
                               f"differs from its source's")
    return 0


def cmd_compare(args) -> int:
    variants = _variants(args.variants)
    benchmark = _stem(args.circuit)
    out = args.out or f"{benchmark}-compare"
    _refuse_overwrite((args.circuit, args.calibration), report_paths(out))
    cfgs = [_config(v, args) for v in variants]
    c = parse_circuit(_read(args.circuit))
    m = load_calibration(_read(args.calibration))
    tables = build_tables(m)
    rows, first_error = [], None
    for cfg in cfgs:
        try:
            cc, dt = _compile_one(c, m, tables, cfg)
        except (Infeasible, SolverTimeout) as exc:
            first_error = first_error or exc
            continue
        rows.append(_evaluate_record(cc, benchmark, args.trials, args.seed, dt))
    if first_error is not None:
        code = _fail(3 if isinstance(first_error, Infeasible) else 4, first_error)
        if not rows:
            return code
    csv_path, json_path = write_report(rows, out)
    print(f"wrote {csv_path} and {json_path}: {len(rows)} variants")
    return 0


def _check_circuit_size(nq: int, ng: int) -> None:
    if nq < 2:
        raise UsageError(f"{nq} qubits: a circuit needs at least 2")
    if ng < 0:
        raise UsageError(f"{ng} gates: the gate count cannot be negative")


def _parse_sizes(text: str) -> list[tuple[int, int, int]]:
    """(qubits, gates, side of the least square grid that holds them) per entry."""
    sizes = []
    for part in text.split(","):
        part = part.strip()
        try:
            nq, ng = map(int, part.split(":"))
        except ValueError as exc:
            raise UsageError(f"bad --sizes entry {part!r}; expected QUBITS:GATES") from exc
        _check_circuit_size(nq, ng)
        side = math.isqrt(nq - 1) + 1
        try:
            check_grid_size(side, side)
        except ValueError as exc:
            raise UsageError(f"--sizes entry {part!r}: {exc}") from exc
        sizes.append((nq, ng, side))
    return sizes


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    variants = _variants(args.variants)
    cfgs = [_config(v, args) for v in variants]
    rows = []
    for nq, ng, side in sizes:
        benchmark = f"rand-{nq}-{ng}"
        m = load_calibration(synth_calibration(side, side, args.seed, t2=10 ** 6))
        tables = build_tables(m)
        c = gen_random(nq, ng, args.seed)
        for variant, cfg in zip(variants, cfgs):
            t0 = time.perf_counter()
            try:
                cc, dt = _compile_one(c, m, tables, cfg)
            except (Infeasible, SolverTimeout):
                rows.append(EvalReport(
                    benchmark=benchmark, variant=variant, reliability=math.nan,
                    mc_success=math.nan, stderr=math.nan, trials=0, makespan=-1, swaps=-1,
                    compile_time_s=time.perf_counter() - t0, equivalence_passed=None,
                    optimal=False))
                continue
            rows.append(_evaluate_record(cc, benchmark, args.trials, args.seed, dt))
    csv_path, json_path = write_report(rows, args.out or "bench")
    print(f"wrote {csv_path} and {json_path}: {len(rows)} rows")
    return 0


def _write_or_print(text: str, out: str | None) -> int:
    if out:
        atomic_write(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen_circuit(args) -> int:
    if args.kind == "bv":
        _check_circuit_size(args.qubits, 0)
        secret = args.secret if args.secret is not None else "1" * (args.qubits - 1)
        try:
            c = gen_bv(args.qubits, secret)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    elif args.kind == "toffoli":
        c = gen_toffoli()
    else:
        _check_circuit_size(args.qubits, args.gates)
        c = gen_random(args.qubits, args.gates, args.seed)
    return _write_or_print(to_qasm(c), args.out)


def cmd_gen_cal(args) -> int:
    try:
        doc = synth_calibration(args.mx, args.my, args.seed, t2=args.t2,
                                jitter_durations=args.jitter_durations)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)


# ---------------------------------------------------------------- parser ---

def _add_shared_compile_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", type=float, default=None,
                   help="readout weight in the reliability objective (default 0.5)")
    p.add_argument("--count-return-swaps", action="store_true",
                   help="score the SWAPs that restore the placement too")
    p.add_argument("--time-limit", type=float, default=None, metavar="S",
                   help="solver budget in seconds, > 0; checked for every variant, used "
                        f"by the exact ones (default {DEFAULT_EXACT_TIME_LIMIT:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nisqc",
        description="Noise-adaptive compiler for grid-coupled NISQ machines.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("compile", help="map, route, and schedule one circuit")
    p.add_argument("circuit", help="OpenQASM 2.0 circuit")
    p.add_argument("calibration", help="calibration JSON")
    p.add_argument("--variant", required=True, choices=ALL_VARIANTS)
    p.add_argument("--routing", choices=["rr", "1bp"], default=None,
                   help="exact-variant routing (default: rr for duration, 1bp for reliability)")
    _add_shared_compile_flags(p)
    p.add_argument("--emit-smtlib", metavar="PATH", default=None,
                   help="also write the SMT-LIB 2 encoding (exact variants)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output stem for the record (.json) and program (.qasm)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("evaluate", help="score a compilation record")
    p.add_argument("record", help="compilation record JSON from `nisqc compile`")
    p.add_argument("calibration", help="calibration JSON")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--benchmark", default=None, help="row label (default: record stem)")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="compile one circuit under several variants")
    p.add_argument("circuit")
    p.add_argument("calibration")
    p.add_argument("--variants", default=",".join(ALL_VARIANTS),
                   help="comma-separated variant list")
    p.add_argument("--routing", choices=["rr", "1bp"], default=None)
    _add_shared_compile_flags(p)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="scalability sweep over random circuits")
    p.add_argument("--sizes", default="4:16,8:64,16:128,32:512,64:1024,128:2048",
                   metavar="Q:G[,Q:G...]", help="qubit:gate sizes to sweep")
    p.add_argument("--variants", default="t-smt-star,r-smt-star,greedy-v,greedy-e")
    _add_shared_compile_flags(p)
    p.add_argument("--trials", type=int, default=1_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-circuit", help="write a benchmark circuit as QASM")
    p.add_argument("kind", choices=["bv", "toffoli", "random"])
    p.add_argument("--qubits", type=int, default=4)
    p.add_argument("--secret", default=None, help="BV hidden string (default all ones)")
    p.add_argument("--gates", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_gen_circuit)

    p = sub.add_parser("gen-cal", help="write a seeded synthetic calibration")
    p.add_argument("--mx", type=int, required=True)
    p.add_argument("--my", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t2", type=int, default=1000)
    p.add_argument("--jitter-durations", action="store_true")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_gen_cal)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        return args.func(args)
    except UsageError as exc:
        return _fail(2, exc)
    except Infeasible as exc:
        return _fail(3, exc)
    except SolverTimeout as exc:
        return _fail(4, exc)
    except Exception as exc:   # CalibrationError, ParseError, OSError and every other fault
        return _fail(1, exc)
