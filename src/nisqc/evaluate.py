"""Verification oracles: exact statevector simulation, equivalence checking,
Monte Carlo success estimation, the brute-force optimality enumerator, and
report emission."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, GateKind, build_circuit
from .codegen import CompiledCircuit
from .machine import DerivedTables, GridMachine, build_tables
from .optimal import (
    Infeasible,
    ProblemConfig,
    _InfeasibleSchedule,
    _Scorer,
)

_SQRT2 = 1.0 / math.sqrt(2.0)
# A diagonal gate diag(1, phase) scales the |1> half of the state in place.
_PHASE = {
    GateKind.Z: -1.0, GateKind.S: 1j, GateKind.SDG: -1j,
    GateKind.T: np.exp(1j * math.pi / 4), GateKind.TDG: np.exp(-1j * math.pi / 4),
}

_MAX_SIM_QUBITS = 14


class SimulationCapExceeded(ValueError):
    """The statevector oracle would need more than its qubit cap."""


def _apply_single(state: np.ndarray, n: int, q: int, kind: GateKind) -> None:
    view = state.reshape(1 << (n - 1 - q), 2, 1 << q)
    zero, one = view[:, 0, :], view[:, 1, :]
    if kind in _PHASE:
        one *= _PHASE[kind]
        return
    # one temporary per gate: (zero, one) becomes H: (zero + one, zero - one)
    # / sqrt(2); X: (one, zero); Y: (-i one, i zero)
    if kind is GateKind.H:
        diff = zero - one
        zero += one
        zero *= _SQRT2
        np.multiply(diff, _SQRT2, out=one)
        return
    was = zero.copy()
    if kind is GateKind.X:
        zero[...] = one
        one[...] = was
    else:
        np.multiply(one, -1j, out=zero)
        np.multiply(was, 1j, out=one)


def _apply_cnot(state: np.ndarray, n: int, ctrl: int, tgt: int) -> None:
    view = state.reshape([2] * n)
    sel: list = [slice(None)] * n
    sel[n - 1 - ctrl] = 1
    sub = view[tuple(sel)]
    axis = (n - 1 - tgt) - (1 if n - 1 - ctrl < n - 1 - tgt else 0)
    sub[...] = np.flip(sub, axis=axis)


def _project(state: np.ndarray, n: int, q: int, bit: int) -> np.ndarray:
    out = state.copy()
    view = out.reshape(1 << (n - 1 - q), 2, 1 << q)
    view[:, 1 - bit, :] = 0.0
    return out


def statevector_sim(c: Circuit) -> dict[str, float]:
    """Exact output distribution over classical bitstrings (clbit 0 leftmost).

    A measurement whose qubit a later gate touches branches the state instead
    of sampling. Any other measurement is deferred: it records which qubit its
    clbit reads, and at the end each branch's |psi|^2, summed over the other
    qubits, gives the joint outcomes of the deferred clbits. A later
    measurement into the same clbit drops the deferred entry, so the last
    write wins. The result is the exact joint marginal on the classical
    register. Unwritten clbits read 0.
    """
    n = c.num_qubits
    if n > _MAX_SIM_QUBITS:
        raise SimulationCapExceeded(f"{n} qubits exceed the {_MAX_SIM_QUBITS}-qubit simulation cap")
    last = {q: i for i, g in enumerate(c.gates) for q in g.operands}
    init = np.zeros(1 << n, dtype=complex)
    init[0] = 1.0
    branches: list[tuple[np.ndarray, dict[int, int]]] = [(init, {})]
    deferred: dict[int, int] = {}  # clbit -> qubit measured by its last gate
    for i, g in enumerate(c.gates):
        if g.kind is GateKind.CNOT:
            for state, _ in branches:
                _apply_cnot(state, n, g.operands[0], g.operands[1])
        elif g.kind is GateKind.MEASURE:
            q = g.operands[0]
            if last[q] == i:
                deferred[g.classical_target] = q
                continue
            deferred.pop(g.classical_target, None)
            split: list[tuple[np.ndarray, dict[int, int]]] = []
            for state, bits in branches:
                for bit in (0, 1):
                    proj = _project(state, n, q, bit)
                    if float(np.vdot(proj, proj).real) > 1e-30:
                        split.append((proj, {**bits, g.classical_target: bit}))
            branches = split
        else:
            for state, _ in branches:
                _apply_single(state, n, g.operands[0], g.kind)
    # Qubit q is axis n-1-q; the summed marginal keeps the deferred qubits'
    # axes in that order, highest qubit first.
    read = sorted(set(deferred.values()), reverse=True)
    other = tuple(n - 1 - q for q in range(n) if q not in read)
    dist: dict[str, float] = {}
    for state, bits in branches:
        marginal = (state.real ** 2 + state.imag ** 2).reshape([2] * n).sum(axis=other)
        for idx in np.argwhere(marginal > 1e-30):
            outcome = dict(zip(read, idx.tolist()))
            merged = {**bits, **{cb: outcome[q] for cb, q in deferred.items()}}
            key = "".join(str(merged.get(k, 0)) for k in range(c.num_clbits))
            dist[key] = dist.get(key, 0.0) + float(marginal[tuple(idx)])
    return dist


class EquivalenceResult(NamedTuple):
    passed: bool
    max_deviation: float
    total_variation: float


def compiled_as_circuit(cc: CompiledCircuit) -> Circuit:
    """Reinterpret the physical stream as a logical circuit on its active cells."""
    active = sorted({cell for pg in cc.expanded for cell in pg.hw_operands})
    if len(active) > _MAX_SIM_QUBITS:
        raise SimulationCapExceeded(f"{len(active)} active cells exceed the "
                                    f"{_MAX_SIM_QUBITS}-qubit simulation cap")
    index = {cell: i for i, cell in enumerate(active)}
    ordered = sorted(range(len(cc.expanded)), key=lambda i: (cc.expanded[i].start, i))
    ops = []
    for i in ordered:
        pg = cc.expanded[i]
        operands = tuple(index[cell] for cell in pg.hw_operands)
        ops.append((pg.kind, operands, pg.clbit))
    return build_circuit(max(len(active), 1), cc.source.num_clbits, ops)


def equivalence_check(source: Circuit, cc: CompiledCircuit) -> EquivalenceResult:
    """Compare the source distribution against the expanded stream's.

    SWAP chains move state between cells, and every expanded MEASURE already
    targets the measured qubit's home cell with the source clbit, so simulating
    the stream literally (time order) yields a distribution directly comparable
    to the source's. Raises SimulationCapExceeded, before simulating, when
    either side is over the cap.
    """
    compiled = compiled_as_circuit(cc)
    want = statevector_sim(source)
    got = statevector_sim(compiled)
    keys = set(want) | set(got)
    diffs = [abs(want.get(k, 0.0) - got.get(k, 0.0)) for k in keys]
    tv = 0.5 * sum(diffs)
    return EquivalenceResult(tv <= 1e-9, max(diffs, default=0.0), tv)


def reliability_score(cc: CompiledCircuit, count_return_swaps: bool = False) -> float:
    """Product of per-gate success probabilities over routed CNOTs and readouts."""
    eps = cc.eps_strict if count_return_swaps else cc.eps_route
    return math.prod(eps[gid] for gid in sorted(eps))


def monte_carlo_success(cc: CompiledCircuit, trials: int, seed: int) -> tuple[float, float]:
    """Estimate end-to-end success probability by Bernoulli sampling: each
    routed CNOT (swaps included) and each readout is one event with its ε in
    cc.per_gate_eps, derived on the machine cc was built or read on. A trial
    succeeds when every event does, so the hit count is one draw from
    Binomial(trials, ∏ε).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    eps = [cc.per_gate_eps[g] for g in sorted(cc.per_gate_eps)]
    if not eps:
        return 1.0, 0.0
    rng = np.random.Generator(np.random.Philox(key=seed))
    p = int(rng.binomial(trials, math.prod(eps))) / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


@dataclass(frozen=True)
class LeafRecord:
    cells: tuple[int, ...]
    junctions: tuple[int, ...]
    objective: float
    makespan: int


@dataclass(frozen=True)
class BruteForceResult:
    objective_value: float
    argmax: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    leaves: tuple[LeafRecord, ...] | None = None


_LEAF_BUDGET = 2_000_000


def brute_force_optimal(c: Circuit, m: GridMachine, cfg: ProblemConfig, *,
                        tables: DerivedTables | None = None,
                        collect_leaves: bool = False) -> BruteForceResult:
    """Exhaustive sweep of every injective placement x junction assignment,
    scored through the same leaf evaluator as solve_exact (objectives agree
    bitwise). argmax lists every assignment attaining the optimum."""
    nq, ncells = c.num_qubits, m.num_cells
    if nq > ncells:
        raise ValueError(f"{nq} program qubits exceed {ncells} hardware cells")
    n_cnots = sum(1 for g in c.gates if g.kind is GateKind.CNOT)
    size = math.perm(ncells, nq) * (2 ** n_cnots)
    if size > _LEAF_BUDGET:
        raise ValueError(f"instance too large: {size} assignments exceed the "
                         f"{_LEAF_BUDGET} enumeration budget")
    tables = tables if tables is not None else build_tables(m)
    scorer = _Scorer(c, m, tables, cfg)
    maximize = cfg.variant.value == "r-smt-star"
    cnots = [g for g in c.gates if g.kind is GateKind.CNOT]
    best = None
    argmax: list = []
    leaves: list[LeafRecord] = []
    for cells in itertools.permutations(range(ncells), nq):
        choices = [scorer.junction_choices(cells[g.operands[0]], cells[g.operands[1]])
                   for g in cnots]
        for combo in itertools.product(*choices):
            try:
                obj, makespan = scorer.leaf(cells, combo)
            except _InfeasibleSchedule:
                continue
            if collect_leaves:
                leaves.append(LeafRecord(cells, combo, obj, makespan))
            if best is None or (obj > best if maximize else obj < best):
                best = obj
                argmax = [(cells, combo)]
            elif obj == best:
                argmax.append((cells, combo))
    if best is None:
        raise Infeasible("every placement violates a coherence deadline")
    return BruteForceResult(best, tuple(argmax),
                            tuple(leaves) if collect_leaves else None)


@dataclass(frozen=True)
class EvalReport:
    benchmark: str
    variant: str
    reliability: float
    mc_success: float
    stderr: float
    trials: int
    makespan: int
    swaps: int
    compile_time_s: float
    equivalence_passed: bool | None
    optimal: bool | None = None


_CSV_COLUMNS = ("benchmark", "variant", "reliability", "mc_success", "stderr",
                "makespan", "swaps", "compile_time_s")


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def write_report(reports: list[EvalReport], path: str) -> tuple[str, str]:
    """Write the fixed-column CSV and a full JSON dump next to each other.

    `path` may carry a .csv or .json suffix or none; both files share the stem.
    Returns (csv_path, json_path).
    """
    stem, ext = os.path.splitext(path)
    if ext not in (".csv", ".json"):
        stem = path
    csv_path, json_path = stem + ".csv", stem + ".json"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_COLUMNS)
    for r in reports:
        writer.writerow([r.benchmark, r.variant, repr(r.reliability),
                         repr(r.mc_success), repr(r.stderr), r.makespan,
                         r.swaps, repr(r.compile_time_s)])
    _atomic_write(csv_path, buf.getvalue())
    _atomic_write(json_path, json.dumps([asdict(r) for r in reports], indent=2) + "\n")
    return csv_path, json_path
