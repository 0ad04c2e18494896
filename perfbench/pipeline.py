"""One op through the nisqc pipeline, its correctness gate and its spans.

An op is one circuit taken from QASM text to a verdict. The compile stage
parses the circuit, maps, routes and schedules it, expands it into the
physical stream and writes the record and QASM texts, which is what
``nisqc compile`` does. The verify stage re-checks the solution, reads the
record back and scores it, which is what ``nisqc evaluate`` does. The
library is called directly, in this process and thread.

The machine the benchmark runs on may share its cores: its speed can halve
for seconds at a time and recover. So a short reference loop, which uses no
nisqc code, is timed before set-up and after every set-up repetition and
op. Each timed stretch is reported in nominal seconds: its wall-clock
seconds times NOMINAL_REF_S over the mean of the references on either side
of it (``nominal``).

The exact search's budget is counted in reads of its clock, not in wall
seconds (``read_budget``), so a solve stops at the same point of its search
on any machine and at any speed, and every op's output repeats for a seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter

from nisqc import (
    CodegenError,
    HeuristicConfig,
    ProblemConfig,
    SolverTimeout,
    build_program_graph,
    build_tables,
    check_solution,
    compile_with_placement,
    emit_qasm,
    equivalence_check,
    expand,
    from_record,
    greedy_edge_map,
    greedy_vertex_map,
    heuristic_compile,
    load_calibration,
    monte_carlo_success,
    parse_circuit,
    record_to_json,
    reliability_score,
    solve_exact,
)
from nisqc import optimal as optimal_module
from nisqc.heuristic import GreedyPolicy

from workloads import EXACT_BUDGET_READS, Op, Workload

# The statevector oracle's cap: larger programs skip the equivalence check.
MAX_EQUIVALENCE_CELLS = 14
# Failure categories; each failed op counts in exactly one.
FAILURES = ("codegen.expand_failures", "codegen.roundtrip_mismatches",
            "optimal.check_violations", "evaluate.equivalence_failures",
            "other_failures")
# Categories where the program returned a wrong output instead of raising.
WRONG_OUTPUT = ("codegen.roundtrip_mismatches", "optimal.check_violations",
                "evaluate.equivalence_failures")
_NO_SPAN = nullcontext()
# The reference loop's time on the nominal machine that times are scaled to.
NOMINAL_REF_S = 0.005


class Untraced:
    """Calls straight through; the metric run uses this."""

    traced = False
    op_id = None

    def span(self, name: str):
        return _NO_SPAN

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(Untraced):
    """In-memory spans: [name, start, end, parent span index, op id]."""

    traced = True

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op_id = None

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._open[-1] if self._open else None,
                  self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


@dataclass
class OpResult:
    index: int
    label: str
    stage: str = ""
    failure: str | None = None
    detail: str = ""
    op_s: float = 0.0               # raw wall seconds, like compile_s and verify_s
    compile_s: float = 0.0
    verify_s: float = 0.0
    ref_s: float = 0.0              # mean reference time before and after the op
    exact: bool = False
    proved: bool = False
    limit_hit: bool = False         # the search used up its budget
    makespan: int = 0
    swaps: int = 0
    ln_rel: float = 0.0
    phys_gates: int = 0
    table_entries: int = 0         # set when the op built its own tables
    equivalence_skipped: bool = False
    digest: str | None = None       # of the outputs; None on a failed op
    heuristic_mismatch: bool = False


def reference() -> float:
    """Seconds for a fixed pure-Python loop that allocates nothing the
    garbage collector tracks; a probe of the machine's current speed."""
    t0 = perf_counter()
    d: dict[int, int] = {}
    for i in range(30_000):
        d[i % 997] = d.get(i % 997, 0) + i
    return perf_counter() - t0


def nominal(raw: float, ref: float) -> float:
    """`raw` wall-clock seconds measured with the reference taking `ref`
    around them, in nominal seconds."""
    return raw * NOMINAL_REF_S / ref


class Speed:
    """The reference times of one run."""

    def __init__(self):
        self.refs: list[float] = []

    def probe(self) -> float:
        """Time the reference; returns the mean of this and the last probe,
        the reference around the stretch between them."""
        r = reference()
        self.refs.append(r)
        return (self.refs[-2] + r) / 2 if len(self.refs) > 1 else r


def set_up(workload: Workload, tr: Untraced, speed: Speed):
    """Ingest the workload's calibrations and build their tables, setup_reps
    times over; returns the last machines and the raw time and reference of
    each repetition."""
    reps, machines = [], []
    speed.probe()
    for k in range(workload.setup_reps):
        tr.op_id = f"setup{k}"
        machines = None   # let the previous repetition's tables go first
        t0 = perf_counter()
        with tr.span("bench.setup"):
            machines = []
            for text in workload.calibrations:
                m = tr.call("machine.load_calibration", load_calibration, text)
                machines.append((m, tr.call("machine.build_tables", build_tables, m)))
        reps.append((perf_counter() - t0, speed.probe()))
    return machines, reps


def _heuristic(c, m, t, cfg: HeuristicConfig, tr: Untraced):
    if not tr.traced:
        return heuristic_compile(c, m, t, cfg)
    pg = tr.call("circuit.build_program_graph", build_program_graph, c)
    if cfg.policy is GreedyPolicy.VERTEX:
        p = tr.call("heuristic.greedy_vertex_map", greedy_vertex_map, pg, m, t)
    else:
        p = tr.call("heuristic.greedy_edge_map", greedy_edge_map, pg, m, t)
    cells = tuple(m.cell_id(p.loc[q]) for q in range(c.num_qubits))
    return tr.call("heuristic.compile_with_placement", compile_with_placement,
                   c, m, t, cells, cfg, cfg.policy.value)


class ReadClock:
    """Stands in for the ``time`` module of nisqc.optimal during a solve. Its
    clock advances by one on every read, so a time limit of N lets the
    search read its clock N times: a budget of work that is the same on
    every machine."""

    def __init__(self):
        self.reads = 0

    def monotonic(self) -> float:
        self.reads += 1
        return float(self.reads)


@contextmanager
def read_budget():
    """Run the exact search on a ReadClock; fail the run if the search
    never read it, since its budget would then not be in force."""
    clock, saved = ReadClock(), optimal_module.time
    optimal_module.time = clock
    try:
        yield
    finally:
        optimal_module.time = saved
    if not clock.reads:
        raise SystemExit("perfbench: solve_exact no longer reads time.monotonic, "
                         "so its budget of clock reads is not in force")


def ops_per_s(results: list[OpResult]) -> float:
    """Ops that passed the gate, per nominal second spent in ops."""
    spent = sum(nominal(r.op_s, r.ref_s) for r in results)
    return sum(r.failure is None for r in results) / spent


def table_entries(t) -> int:
    return (len(t.cnot_rel) + len(t.cnot_rel_return)
            + len(t.best_paths) + len(t.best_paths_return))


def _digest(cc, record_text: str) -> str:
    head = json.dumps([sorted(cc.placement.loc.items()), repr(cc.objective_value),
                       cc.makespan, cc.swap_count])
    return hashlib.sha256((head + "\n" + record_text).encode()).hexdigest()[:16]


def run_op(op: Op, machines, tr: Untraced) -> OpResult:
    """Compile and verify one op; a failure of the program is counted in the
    result, never raised."""
    res = OpResult(op.index, op.label)
    t0 = perf_counter()
    try:
        with tr.span("bench.op"):
            out = _compile_and_verify(op, machines, tr, res)
    except Exception as exc:  # the op boundary: count the failure and go on
        where = res.stage
        res.failure = "codegen.expand_failures" \
            if where == "codegen.expand" and isinstance(exc, CodegenError) else "other_failures"
        res.detail = f"{where}: {type(exc).__name__}: {exc}"
        out = None
    res.op_s = perf_counter() - t0
    if out is None:
        return res
    c, m, t, sol, hcfg, cc, record_text = out
    res.makespan, res.swaps, res.phys_gates = cc.makespan, cc.swap_count, len(cc.expanded)
    eps = cc.per_gate_eps
    # ln(reliability_score), summed in logs: at scale the product underflows.
    res.ln_rel = math.fsum(math.log(eps[g]) for g in sorted(eps))
    if op.calibration is not None:
        res.table_entries = table_entries(t)
    res.digest = _digest(cc, record_text)
    if tr.traced and hcfg is not None:
        res.heuristic_mismatch = sol != heuristic_compile(c, m, t, hcfg)
    return res


def _compile_and_verify(op: Op, machines, tr: Untraced, res: OpResult):
    """The op itself. res.stage names the call under way, so that an
    exception can be charged to its layer; a failed oracle sets res.failure
    and returns None."""
    t0 = perf_counter()
    with tr.span("bench.compile"):
        res.stage = "circuit.parse_circuit"
        c = tr.call("circuit.parse_circuit", parse_circuit, op.qasm)
        if op.calibration is not None:
            res.stage = "machine.load_calibration"
            m = tr.call("machine.load_calibration", load_calibration, op.calibration)
            res.stage = "machine.build_tables"
            t = tr.call("machine.build_tables", build_tables, m)
        else:
            m, t = machines[op.machine]
        cfg = hcfg = None
        if op.routing is not None:
            res.exact = True
            cfg = ProblemConfig(variant=op.variant, routing=op.routing,
                                time_limit=EXACT_BUDGET_READS)
            res.stage = "optimal.solve_exact"
            try:
                with read_budget():
                    sol = tr.call("optimal.solve_exact", solve_exact, c, m, cfg, tables=t)
            except SolverTimeout:
                res.limit_hit = True
                raise
            res.proved, res.limit_hit = sol.optimal, not sol.optimal
        else:
            hcfg = HeuristicConfig(policy=op.variant,
                                   count_return_swaps=op.count_return_swaps)
            res.stage = "heuristic"
            sol = _heuristic(c, m, t, hcfg, tr)
        res.stage = "codegen.expand"
        cc = tr.call("codegen.expand", expand, sol, c, m)
        res.stage = "codegen.record"
        record_text = tr.call("codegen.record_to_json", record_to_json, cc)
        tr.call("codegen.emit_qasm", emit_qasm, cc)
    t1 = perf_counter()
    res.compile_s = t1 - t0
    with tr.span("bench.verify"):
        res.stage = "optimal.check_solution"
        violations = tr.call("optimal.check_solution", check_solution, sol, c, m, cfg, tables=t)
        if violations:
            res.failure, res.detail = "optimal.check_violations", violations[0]
            return None
        res.stage = "codegen.from_record"
        back = tr.call("codegen.from_record", from_record, record_text, m)
        if (back.expanded, back.placement, back.makespan, back.swap_count) != \
                (cc.expanded, cc.placement, cc.makespan, cc.swap_count):
            res.failure = "codegen.roundtrip_mismatches"
            res.detail = "from_record(record) differs from the expanded stream"
            return None
        res.stage = "evaluate.reliability_score"
        tr.call("evaluate.reliability_score", reliability_score, back, back.count_return_swaps)
        res.stage = "evaluate.monte_carlo_success"
        tr.call("evaluate.monte_carlo_success", monte_carlo_success, back, op.trials, op.index)
        active = {cell for pg in back.expanded for cell in pg.hw_operands}
        if c.num_qubits > MAX_EQUIVALENCE_CELLS or len(active) > MAX_EQUIVALENCE_CELLS:
            res.equivalence_skipped = True
        else:
            res.stage = "evaluate.equivalence_check"
            eq = tr.call("evaluate.equivalence_check", equivalence_check, c, back)
            if not eq.passed:
                res.failure = "evaluate.equivalence_failures"
                res.detail = f"total variation {eq.total_variation:.3g}"
                return None
    res.verify_s = perf_counter() - t1
    return c, m, t, sol, hcfg, cc, record_text


def run_loop(workload: Workload, machines, seconds: float, tr: Untraced,
             speed: Speed) -> list[OpResult]:
    """Closed loop, one client: each op starts when the previous one ends.
    Makes the whole periods of the mix that take about `seconds` nominal
    seconds, so every run for `seconds` makes the same ops, and the same
    seed gives the same outputs, failures included."""
    results: list[OpResult] = []
    speed.probe()
    for i in range(max(1, round(seconds / workload.period_s)) * workload.period):
        tr.op_id = i
        res = run_op(workload.op(i), machines, tr)
        res.ref_s = speed.probe()
        results.append(res)
    return results
