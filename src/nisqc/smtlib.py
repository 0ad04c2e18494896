"""SMT-LIB2 emission of the joint placement, routing and scheduling problem,
for checking an exact solve with an external optimizing solver."""

from __future__ import annotations

import math

from .circuit import Circuit, GateKind
from .machine import GridMachine, build_tables
from .schedule import ProblemConfig, Routing, Variant


def _smt_real(x: float) -> str:
    s = f"{abs(x):.17f}"
    return f"(- {s})" if x < 0 else s


def _ite_chain(entries: list[tuple[str, str]]) -> str:
    # the last entry's value is the fallback: its condition is never tested
    expr = entries[-1][1]
    for cond, val in reversed(entries[:-1]):
        expr = f"(ite {cond} {val} {expr})"
    return expr


def _cell_switch(cell_expr: str, values: list, fmt=str) -> str:
    """values[cell] at cell_expr: a constant when every cell's value is equal,
    else an ite switch on the cell."""
    if len(set(values)) == 1:
        return fmt(values[0])
    return _ite_chain([(f"(= {cell_expr} {cl})", fmt(v)) for cl, v in enumerate(values)])


def _sum(terms: list[str]) -> str:
    if not terms:
        return "0.0"
    return terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")"


def emit_smtlib(c: Circuit, m: GridMachine, cfg: ProblemConfig) -> str:
    """SMT-LIB2 script for the joint placement/routing/scheduling problem.

    Unlike solve_exact, which fixes start times with the canonical scheduler,
    the script leaves start times free, so an optimizing solver explores the
    full joint space. Intended for desk-scale external verification; lookup
    tables are emitted as ite switches, so script size grows with cell count.
    """
    nq, my = c.num_qubits, m.my
    is_static = cfg.variant is Variant.T_SMT
    reliability = cfg.variant is Variant.R_SMT_STAR
    one_bend = cfg.routing is Routing.ONE_BEND
    tables = None if is_static else build_tables(m)
    ec = None
    if reliability:
        ec = tables.cnot_rel_return if cfg.count_return_swaps else tables.cnot_rel

    edge_durs = {e.cnot_duration for e in m.edges}
    uniform_edge_dur = len(edge_durs) <= 1
    ro_durs = [q.readout_duration for q in m.qubits]
    t2s = [q.t2 for q in m.qubits]
    cells = range(m.num_cells)

    L: list[str] = []
    add = L.append
    add(f"; joint mapping/scheduling encoding: {m.mx}x{m.my} grid, "
        f"variant {cfg.variant.value}, routing {cfg.routing.value}")
    add("; model decoding:")
    add(";   qxI, qyI  grid position of program qubit I")
    add(";   tG        start timeslot of gate G (gate ids follow input order)")
    if one_bend:
        add(";   jxG, jyG  junction of CNOT G; its route is control -> junction -> target.")
        add(";             The two rectangle corners are the candidates; for colinear")
        add(";             endpoints both corners collapse onto the straight segment.")
    if reliability:
        add(";   obj       weighted sum of natural-log gate reliabilities (maximized)")
    else:
        add(";   makespan  circuit duration in timeslots (minimized)")
    add("(set-option :produce-models true)")

    for i in range(nq):
        add(f"(declare-const qx{i} Int)")
        add(f"(declare-const qy{i} Int)")
        add(f"(assert (and (>= qx{i} 0) (< qx{i} {m.mx}) (>= qy{i} 0) (< qy{i} {m.my})))")
        add(f"(define-fun cq{i} () Int (+ (* {my} qx{i}) qy{i}))")
    if nq >= 2:
        add("(assert (distinct " + " ".join(f"cq{i}" for i in range(nq)) + "))")

    bboxes: dict[int, list[tuple[str, str, str, str]]] = {}

    def bbox(name: str, ax: str, ay: str, bx: str, by: str) -> tuple[str, str, str, str]:
        # the bounding box of points (ax, ay) and (bx, by)
        for side, a, b in (("x", ax, bx), ("y", ay, by)):
            add(f"(define-fun {name}l{side} () Int (ite (<= {a} {b}) {a} {b}))")
            add(f"(define-fun {name}r{side} () Int (ite (<= {a} {b}) {b} {a}))")
        return f"{name}lx", f"{name}rx", f"{name}ly", f"{name}ry"

    def junction_switch(i: int, qa: int, qb: int, value) -> str:
        # ite switch on CNOT i's (control, target, junction) cells; value maps a
        # tables key to its SMT literal. A corner matching an endpoint means
        # colinear cells: either corner walks the same straight route.
        entries = []
        for a in cells:
            pa = m.pos(a)
            for b in cells:
                if a == b:
                    continue
                pb = m.pos(b)
                legal = tables.junctions[(a, b)]
                for jpos in {(pa[0], pb[1]), (pb[0], pa[1])}:
                    jc = m.cell_id(jpos)
                    entries.append((f"(and (= cq{qa} {a}) (= cq{qb} {b}) (= cj{i} {jc}))",
                                    value((a, b, jc if jc in legal else legal[0]))))
        return _ite_chain(entries)

    for g in c.gates:
        i = g.id
        add(f"(declare-const t{i} Int)")
        add(f"(assert (>= t{i} 0))")
        if g.kind is GateKind.CNOT:
            qa, qb = g.operands
            if one_bend:
                add(f"(declare-const jx{i} Int)")
                add(f"(declare-const jy{i} Int)")
                add(f"(assert (or (and (= jx{i} qx{qa}) (= jy{i} qy{qb})) "
                    f"(and (= jx{i} qx{qb}) (= jy{i} qy{qa}))))")
                add(f"(define-fun cj{i} () Int (+ (* {my} jx{i}) jy{i}))")
            if is_static or uniform_edge_dur:
                tau = m.static_tau_cnot if is_static else next(iter(edge_durs), m.static_tau_cnot)
                for ax in "xy":
                    a, b = f"q{ax}{qa}", f"q{ax}{qb}"
                    add(f"(define-fun d{ax}{i} () Int (ite (<= {a} {b}) (- {b} {a}) (- {a} {b})))")
                add(f"(define-fun d{i} () Int (- (* {6 * tau} (+ dx{i} dy{i})) {5 * tau}))")
            elif one_bend:
                add(f"(define-fun d{i} () Int "
                    f"{junction_switch(i, qa, qb, lambda k: str(tables.cnot_dur[k]))})")
            else:
                entries = [(f"(and (= cq{qa} {a}) (= cq{qb} {b}))", str(int(tables.delta[a, b])))
                           for a in cells for b in cells if a != b]
                add(f"(define-fun d{i} () Int {_ite_chain(entries)})")
            if one_bend:
                bboxes[i] = [bbox(f"r{i}s{snum}", f"qx{q}", f"qy{q}", f"jx{i}", f"jy{i}")
                             for snum, q in ((1, qa), (2, qb))]
            else:
                bboxes[i] = [bbox(f"r{i}", f"qx{qa}", f"qy{qa}", f"qx{qb}", f"qy{qb}")]
        else:
            q = g.operands[0]
            d = _cell_switch(f"cq{q}", ro_durs) if g.kind is GateKind.MEASURE \
                else m.single_qubit_duration
            add(f"(define-fun d{i} () Int {d})")
            bboxes[i] = [(f"qx{q}", f"qx{q}", f"qy{q}", f"qy{q}")]
        if is_static:
            add(f"(assert (< (+ t{i} d{i}) {m.static_coherence_bound}))")
        else:
            for q in g.operands:
                add(f"(assert (<= (+ t{i} d{i}) {_cell_switch(f'cq{q}', t2s)}))")

    for g1, g2 in sorted((p, g) for g, ps in enumerate(c.dag[0]) for p in ps):
        add(f"(assert (>= t{g2} (+ t{g1} d{g1})))")

    n = len(c.gates)
    for i in range(n):
        for j in range(i + 1, n):
            tests = []
            for lx1, rx1, ly1, ry1 in bboxes[i]:
                for lx2, rx2, ly2, ry2 in bboxes[j]:
                    tests.append(f"(and (<= {lx1} {rx2}) (<= {lx2} {rx1}) "
                                 f"(<= {ly1} {ry2}) (<= {ly2} {ry1}))")
            ov = tests[0] if len(tests) == 1 else "(or " + " ".join(tests) + ")"
            add(f"(assert (=> {ov} (or (<= (+ t{i} d{i}) t{j}) (<= (+ t{j} d{j}) t{i}))))")

    if reliability:
        ln_ro = [math.log(float(tables.readout_rel[cl])) for cl in cells]
        ro_terms, cx_terms = [], []
        for g in c.gates:
            i = g.id
            if g.kind is GateKind.MEASURE:
                add(f"(define-fun lnro{i} () Real "
                    f"{_cell_switch(f'cq{g.operands[0]}', ln_ro, _smt_real)})")
                ro_terms.append(f"lnro{i}")
            elif g.kind is GateKind.CNOT:
                qa, qb = g.operands
                lnec = junction_switch(i, qa, qb, lambda k: _smt_real(math.log(ec[k])))
                add(f"(define-fun lnec{i} () Real {lnec})")
                cx_terms.append(f"lnec{i}")
        add(f"(define-fun obj () Real (+ (* {_smt_real(cfg.omega)} {_sum(ro_terms)}) "
            f"(* {_smt_real(1.0 - cfg.omega)} {_sum(cx_terms)})))")
        add("(maximize obj)")
    else:
        add("(declare-const makespan Int)")
        if n == 0:
            add("(assert (= makespan 0))")
        else:
            add("(assert (>= makespan 0))")
            for g in c.gates:
                add(f"(assert (>= makespan (+ t{g.id} d{g.id})))")
        add("(minimize makespan)")

    add("(check-sat)")
    add("(get-objectives)")
    add("; inspect the winning assignment with (get-model)")
    return "\n".join(L) + "\n"
