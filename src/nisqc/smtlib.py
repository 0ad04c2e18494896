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


def _ite_chain(entries: list[tuple[str, str]], fallback: str) -> str:
    expr = fallback
    for cond, val in reversed(entries):
        expr = f"(ite {cond} {val} {expr})"
    return expr


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
    ro_durs = {q.readout_duration for q in m.qubits}
    t2s = {q.t2 for q in m.qubits}
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

    def t2_bound(cell_expr: str) -> str:
        if len(t2s) == 1:
            return str(next(iter(t2s)))
        return _ite_chain(
            [(f"(= {cell_expr} {cl})", str(m.qubits[cl].t2)) for cl in cells][:-1],
            str(m.qubits[m.num_cells - 1].t2))

    bboxes: dict[int, list[tuple[str, str, str, str]]] = {}

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
        return _ite_chain(entries[:-1], entries[-1][1])

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
                add(f"(define-fun dx{i} () Int (ite (<= qx{qa} qx{qb}) "
                    f"(- qx{qb} qx{qa}) (- qx{qa} qx{qb})))")
                add(f"(define-fun dy{i} () Int (ite (<= qy{qa} qy{qb}) "
                    f"(- qy{qb} qy{qa}) (- qy{qa} qy{qb})))")
                add(f"(define-fun d{i} () Int (- (* {6 * tau} (+ dx{i} dy{i})) {5 * tau}))")
            elif one_bend:
                add(f"(define-fun d{i} () Int "
                    f"{junction_switch(i, qa, qb, lambda k: str(tables.cnot_dur[k]))})")
            else:
                entries = []
                for a in cells:
                    for b in cells:
                        if a != b:
                            entries.append((f"(and (= cq{qa} {a}) (= cq{qb} {b}))",
                                            str(int(tables.delta[a, b]))))
                add(f"(define-fun d{i} () Int {_ite_chain(entries[:-1], entries[-1][1])})")
            if one_bend:
                for snum, (px, py) in ((1, (f"qx{qa}", f"qy{qa}")), (2, (f"qx{qb}", f"qy{qb}"))):
                    add(f"(define-fun r{i}s{snum}lx () Int (ite (<= {px} jx{i}) {px} jx{i}))")
                    add(f"(define-fun r{i}s{snum}rx () Int (ite (<= {px} jx{i}) jx{i} {px}))")
                    add(f"(define-fun r{i}s{snum}ly () Int (ite (<= {py} jy{i}) {py} jy{i}))")
                    add(f"(define-fun r{i}s{snum}ry () Int (ite (<= {py} jy{i}) jy{i} {py}))")
                bboxes[i] = [(f"r{i}s1lx", f"r{i}s1rx", f"r{i}s1ly", f"r{i}s1ry"),
                             (f"r{i}s2lx", f"r{i}s2rx", f"r{i}s2ly", f"r{i}s2ry")]
            else:
                add(f"(define-fun r{i}lx () Int (ite (<= qx{qa} qx{qb}) qx{qa} qx{qb}))")
                add(f"(define-fun r{i}rx () Int (ite (<= qx{qa} qx{qb}) qx{qb} qx{qa}))")
                add(f"(define-fun r{i}ly () Int (ite (<= qy{qa} qy{qb}) qy{qa} qy{qb}))")
                add(f"(define-fun r{i}ry () Int (ite (<= qy{qa} qy{qb}) qy{qb} qy{qa}))")
                bboxes[i] = [(f"r{i}lx", f"r{i}rx", f"r{i}ly", f"r{i}ry")]
            if is_static:
                add(f"(assert (< (+ t{i} d{i}) {m.static_coherence_bound}))")
            else:
                add(f"(assert (<= (+ t{i} d{i}) {t2_bound(f'cq{qa}')}))")
                add(f"(assert (<= (+ t{i} d{i}) {t2_bound(f'cq{qb}')}))")
        else:
            q = g.operands[0]
            if g.kind is GateKind.MEASURE:
                if len(ro_durs) == 1:
                    add(f"(define-fun d{i} () Int {next(iter(ro_durs))})")
                else:
                    entries = [(f"(= cq{q} {cl})", str(m.qubits[cl].readout_duration))
                               for cl in cells]
                    add(f"(define-fun d{i} () Int {_ite_chain(entries[:-1], entries[-1][1])})")
            else:
                add(f"(define-fun d{i} () Int {m.single_qubit_duration})")
            bboxes[i] = [(f"qx{q}", f"qx{q}", f"qy{q}", f"qy{q}")]
            if is_static:
                add(f"(assert (< (+ t{i} d{i}) {m.static_coherence_bound}))")
            else:
                add(f"(assert (<= (+ t{i} d{i}) {t2_bound(f'cq{q}')}))")

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
        ro_terms, cx_terms = [], []
        for g in c.gates:
            i = g.id
            if g.kind is GateKind.MEASURE:
                q = g.operands[0]
                vals = {cl: math.log(float(tables.readout_rel[cl])) for cl in cells}
                if len(set(vals.values())) == 1:
                    add(f"(define-fun lnro{i} () Real {_smt_real(vals[0])})")
                else:
                    entries = [(f"(= cq{q} {cl})", _smt_real(vals[cl])) for cl in cells]
                    add(f"(define-fun lnro{i} () Real "
                        f"{_ite_chain(entries[:-1], entries[-1][1])})")
                ro_terms.append(f"lnro{i}")
            elif g.kind is GateKind.CNOT:
                qa, qb = g.operands
                lnec = junction_switch(i, qa, qb, lambda k: _smt_real(math.log(ec[k])))
                add(f"(define-fun lnec{i} () Real {lnec})")
                cx_terms.append(f"lnec{i}")
        sum_ro = "0.0" if not ro_terms else ro_terms[0] if len(ro_terms) == 1 \
            else "(+ " + " ".join(ro_terms) + ")"
        sum_cx = "0.0" if not cx_terms else cx_terms[0] if len(cx_terms) == 1 \
            else "(+ " + " ".join(cx_terms) + ")"
        add(f"(define-fun obj () Real (+ (* {_smt_real(cfg.omega)} {sum_ro}) "
            f"(* {_smt_real(1.0 - cfg.omega)} {sum_cx})))")
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
