"""The exact statevector oracle, kept on the test side: each stream's and
source's output distribution over classical bitstrings, for tests that
cross-check equivalence_check's normal-form verdict against simulation."""

import math

import numpy as np

from nisqc.circuit import Circuit, GateKind, build_circuit
from nisqc.codegen import CompiledCircuit

_SQRT2 = 1.0 / math.sqrt(2.0)
# A diagonal gate diag(1, phase) scales the |1> half of the state in place.
_PHASE = {
    GateKind.Z: -1.0, GateKind.S: 1j, GateKind.SDG: -1j,
    GateKind.T: np.exp(1j * math.pi / 4), GateKind.TDG: np.exp(-1j * math.pi / 4),
}

_MAX_SIM_QUBITS = 14


class SimulationCapExceeded(ValueError):
    """The statevector oracle would need more than its qubit cap."""


def _apply_single(state: np.ndarray, n: int, q: int, kind: GateKind, buf: np.ndarray) -> None:
    """Apply a single-qubit gate in place. The arithmetic runs on copies in buf, complex
    scratch of 1.5 states: a ufunc on the strided halves would allocate on every call."""
    view = state.reshape(1 << (n - 1 - q), 2, 1 << q)
    zero, one = view[:, 0, :], view[:, 1, :]
    a, b, d = buf.reshape(3, *zero.shape)
    b[...] = one
    if kind in _PHASE:
        b *= _PHASE[kind]
        one[...] = b
        return
    a[...] = zero
    # (zero, one) becomes H: (a + b, a - b) / sqrt(2); X: (b, a); Y: (-i b, i a)
    if kind is GateKind.H:
        np.subtract(a, b, out=d)
        b += a
        b *= _SQRT2
        np.multiply(d, _SQRT2, out=a)
    elif kind is GateKind.Y:
        b *= -1j
        a *= 1j
    zero[...] = b
    one[...] = a


def _apply_cnot(state: np.ndarray, n: int, ctrl: int, tgt: int, buf: np.ndarray) -> None:
    """Apply a CNOT in place: swap the target's halves where the control is 1, through buf."""
    hi, lo = max(ctrl, tgt), min(ctrl, tgt)
    # qubit hi is axis 1 and qubit lo axis 3
    view = state.reshape(1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if ctrl > tgt:
        t0, t1 = view[:, 1, :, 0], view[:, 1, :, 1]
    else:
        t0, t1 = view[:, 0, :, 1], view[:, 1, :, 1]
    a, b = buf[:2 * t0.size].reshape(2, *t0.shape)
    a[...] = t0
    b[...] = t1
    t0[...] = b
    t1[...] = a


def _project(state: np.ndarray, n: int, q: int, bit: int) -> np.ndarray:
    """Zero, in place, the amplitudes where qubit q reads other than bit."""
    state.reshape(1 << (n - 1 - q), 2, 1 << q)[:, 1 - bit, :] = 0.0
    return state


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
    # one allocation: the state, then scratch for every gate and for |psi|^2
    init, buf = np.split(np.zeros(5 << n >> 1 or 2, dtype=complex), [1 << n])
    init[0] = 1.0
    branches: list[tuple[np.ndarray, dict[int, int]]] = [(init, {})]
    deferred: dict[int, int] = {}  # clbit -> qubit measured by its last gate
    for i, g in enumerate(c.gates):
        if g.kind is GateKind.CNOT:
            for state, _ in branches:
                _apply_cnot(state, n, g.operands[0], g.operands[1], buf)
        elif g.kind is GateKind.MEASURE:
            q = g.operands[0]
            if last[q] == i:
                deferred[g.classical_target] = q
                continue
            deferred.pop(g.classical_target, None)
            split: list[tuple[np.ndarray, dict[int, int]]] = []
            for state, bits in branches:
                one = _project(state.copy(), n, q, 1)
                for bit, proj in ((0, _project(state, n, q, 0)), (1, one)):
                    if float(np.vdot(proj, proj).real) > 1e-30:
                        split.append((proj, {**bits, g.classical_target: bit}))
            branches = split
        else:
            for state, _ in branches:
                _apply_single(state, n, g.operands[0], g.kind, buf)
    # Qubit q is axis n-1-q; the summed marginal keeps the deferred qubits'
    # axes in that order, highest qubit first.
    read = sorted(set(deferred.values()), reverse=True)
    other = tuple(n - 1 - q for q in range(n) if q not in read)
    dist: dict[str, float] = {}
    probs = buf.view(float)[:1 << n]
    for state, bits in branches:
        # |psi|^2 into the scratch; the state is not needed after this
        np.multiply(state.real, state.real, out=probs)
        np.multiply(state.imag, state.imag, out=state.imag)
        probs += state.imag
        marginal = probs.reshape([2] * n).sum(axis=other)
        for idx in np.argwhere(marginal > 1e-30):
            outcome = dict(zip(read, idx.tolist()))
            merged = {**bits, **{cb: outcome[q] for cb, q in deferred.items()}}
            key = "".join(str(merged.get(k, 0)) for k in range(c.num_clbits))
            dist[key] = dist.get(key, 0.0) + float(marginal[tuple(idx)])
    return dist


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
