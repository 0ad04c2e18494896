"""Per-layer metrics from the traced run's spans.

Span names are ``<layer>.<function>``: the layer is the nisqc module whose
public function the benchmark called, or ``bench`` for the benchmark's own
stages (set-up, op, compile, verify). A span's self time is its duration
minus the part of it that its child spans cover. Durations and self times
are converted to nominal seconds with the reference time around the span's
op or set-up repetition, as the end-to-end times are (pipeline.nominal).
"""

from __future__ import annotations

from pipeline import FAILURES, nominal, ops_per_s, table_entries

LAYERS = ("bench", "circuit", "machine", "optimal", "heuristic", "codegen", "evaluate")

# metric -> the spans it sums; reported as mean seconds per call of the first.
CALL_TIMES = {
    "circuit.parse_s": ("circuit.parse_circuit",),
    "machine.load_calibration_s": ("machine.load_calibration",),
    "machine.build_tables_s": ("machine.build_tables",),
    "optimal.solve_exact_s": ("optimal.solve_exact",),
    "heuristic.map_s": ("circuit.build_program_graph", "heuristic.greedy_vertex_map",
                        "heuristic.greedy_edge_map"),
    "heuristic.route_schedule_s": ("heuristic.compile_with_placement",),
    "codegen.expand_s": ("codegen.expand",),
    "codegen.record_s": ("codegen.record_to_json", "codegen.emit_qasm"),
    "codegen.from_record_s": ("codegen.from_record",),
    "optimal.check_solution_s": ("optimal.check_solution",),
    "evaluate.equivalence_s": ("evaluate.equivalence_check",),
    "evaluate.monte_carlo_s": ("evaluate.monte_carlo_success",),
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def nominal_times(spans, traced, setup_reps) -> list[tuple[float, float]]:
    """Each span's (duration, self time) in nominal seconds."""
    ref = {f"setup{k}": r for k, (_raw, r) in enumerate(setup_reps)}
    ref.update((r.index, r.ref_s) for r in traced)
    return [(nominal(end - start, ref[op]), nominal(slf, ref[op]))
            for (_name, start, end, _parent, op), slf in zip(spans, self_times(spans))]


def per_layer(workload, spans, untraced, traced, setup_reps,
              machines) -> tuple[dict, list[str]]:
    """Returns {metric: (value, unit)} for every per-layer metric that this
    workload exercises, and the report lines (which also name the rest)."""
    metrics: dict[str, tuple[float, str]] = {}
    lines: list[str] = []
    times = nominal_times(spans, traced, setup_reps)
    n_ops = len(traced)

    by_name: dict[str, list[float]] = {}
    for (name, *_), (dur, _self) in zip(spans, times):
        by_name.setdefault(name, []).append(dur)
    for metric, names in CALL_TIMES.items():
        calls = len(by_name.get(names[0], ()))
        if calls:
            total = sum(sum(by_name.get(n, ())) for n in names)
            metrics[metric] = (total / calls, "s")
            lines.append(f"layer-metric {metric} = {total / calls!r} s per call ({calls} calls)")
        else:
            lines.append(f"layer-metric {metric} = n/a (not called on {workload.name})")

    # Layer busy and self time per op of the traced loop; set-up is excluded
    # because setup_s and the machine.* call times already cover it.
    layer_of = [name.split(".", 1)[0] for name, *_ in spans]
    for layer in LAYERS:
        busy = slf = 0.0
        for i, (name, _start, _end, parent, op) in enumerate(spans):
            if layer_of[i] != layer or isinstance(op, str):
                continue
            slf += times[i][1]
            if parent is None or layer_of[parent] != layer:
                busy += times[i][0]
        if layer != "bench" and busy:
            metrics[f"{layer}.busy_s"] = (busy / n_ops, "s")
        if layer == "bench":
            metrics["bench.self_s"] = (slf / n_ops, "s")
        lines.append(f"layer {layer}: busy {busy / n_ops!r} s/op, self {slf / n_ops!r} s/op")

    solves = sum(r.exact for r in traced)
    hits = sum(r.limit_hit for r in traced)
    metrics["optimal.limit_hits"] = (hits, "count")
    lines.append(f"layer-metric optimal.limit_hits = {hits} of {solves} solves")

    built = [table_entries(t) for _m, t in machines] + \
        [r.table_entries for r in traced if r.table_entries]
    metrics["machine.table_entries"] = (sum(built) / len(built), "count")
    lines.append(f"layer-metric machine.table_entries = {sum(built) / len(built)!r} "
                 f"per table build ({len(built)} builds)")
    first = [r for r in traced[:workload.period] if r.digest]
    metrics["codegen.phys_gates"] = (sum(r.phys_gates for r in first), "count")
    lines.append(f"layer-metric codegen.phys_gates = {metrics['codegen.phys_gates'][0]} "
                 f"over the {len(first)} ops of the first {workload.period} that passed")
    skipped = sum(r.equivalence_skipped for r in traced)
    metrics["evaluate.equivalence_skipped"] = (skipped, "count")
    lines.append(f"layer-metric evaluate.equivalence_skipped = {skipped} of {n_ops} ops")
    for k in FAILURES:
        metrics[k] = (sum(r.failure == k for r in traced), "count")

    plain, with_spans = ops_per_s(untraced), ops_per_s(traced)
    metrics["trace.overhead_ops_per_s"] = (with_spans - plain, "1/s")
    lines.append(f"tracing ops_per_s untraced {plain!r}, traced {with_spans!r}, "
                 f"overhead {with_spans - plain!r} 1/s")
    return metrics, lines
