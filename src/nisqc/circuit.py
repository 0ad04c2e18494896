"""Machine-independent circuit IR: gate list, dependency DAG, CNOT program graph."""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, NoReturn

import numpy as np


class GateKind(Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    CNOT = "cx"
    MEASURE = "measure"

    @property
    def n_qubits(self) -> int:
        return 2 if self is GateKind.CNOT else 1


# The random benchmark generator samples only these kinds.
RANDOM_GATE_KINDS = (
    GateKind.H,
    GateKind.X,
    GateKind.Y,
    GateKind.Z,
    GateKind.S,
    GateKind.T,
    GateKind.CNOT,
)

_SINGLE_QUBIT_NAMES = {k.value: k for k in GateKind if k.n_qubits == 1 and k is not GateKind.MEASURE}
# Each kind's operand count; a kind that is not a GateKind has none.
_ARITY = {k: k.n_qubits for k in GateKind}


class ParseError(ValueError):
    """Circuit source rejected; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class GateError(ValueError):
    """A gate that breaks a Circuit's rules; carries its index and the reason."""

    def __init__(self, gate: int, reason: str):
        super().__init__(f"gate {gate}: {reason}")
        self.gate = gate
        self.reason = reason


class Gate(NamedTuple):
    id: int
    kind: GateKind
    operands: tuple[int, ...]
    classical_target: int | None = None


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    num_clbits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        """Check the circuit: its sizes are ints >= 0 and its gates a tuple,
        else ValueError; and every gate, else GateError: gate i is a Gate with
        id i, a GateKind and a tuple of its kind's operand count, its operands
        are ints in range and a CNOT's two differ, and a measure writes an int
        clbit in range and no other gate writes one."""
        nq, nc, gates = self.num_qubits, self.num_clbits, self.gates
        for name, n in (("num_qubits", nq), ("num_clbits", nc)):
            if type(n) is not int or n < 0:
                raise ValueError(f"{name} {n!r} is not an int >= 0")
        if type(gates) is not tuple:
            raise ValueError(f"gates must be a tuple, not {type(gates).__name__}")
        cnot, measure = GateKind.CNOT, GateKind.MEASURE
        for i, g in enumerate(gates):
            if type(g) is not Gate:
                raise GateError(i, f"{g!r} is not a Gate")
            gid, kind, operands, clbit = g
            if gid != i:
                raise GateError(i, f"id {gid} is not the gate's index")
            try:
                arity = _ARITY[kind]
            except (KeyError, TypeError):
                raise GateError(i, f"kind {kind!r} is not a GateKind") from None
            if type(operands) is not tuple:
                raise GateError(i, f"operands {operands!r} are not a tuple")
            if len(operands) != arity:
                raise GateError(i, f"{len(operands)} operands, not {kind.value}'s {arity}")
            for q in operands:
                if type(q) is not int:
                    raise GateError(i, f"operand {q!r} is not an int")
                if not 0 <= q < nq:
                    raise GateError(i, f"operand q[{q}] out of range (register size {nq})")
            if kind is cnot and operands[0] == operands[1]:
                raise GateError(i, "CNOT operands distinct")
            if kind is measure:
                if clbit is not None and type(clbit) is not int:
                    raise GateError(i, f"classical bit {clbit!r} is not an int")
                if clbit is None or not 0 <= clbit < nc:
                    raise GateError(i, f"classical bit {clbit} out of range (register size {nc})")
            elif clbit is not None:
                raise GateError(i, f"{kind.value} writes no classical bit")

    def cnot_gates(self) -> tuple[Gate, ...]:
        return tuple(g for g in self.gates if g.kind is GateKind.CNOT)

    @functools.cached_property
    def dag(self) -> tuple[list[list[int]], list[list[int]]]:
        """Each gate's direct predecessors and successors, by gate id, as
        predecessor_lists gives them, built once per circuit. Read-only: every
        caller shares these lists."""
        preds = predecessor_lists(self)
        succs: list[list[int]] = [[] for _ in preds]
        for g2, ps in enumerate(preds):
            for g1 in ps:
                succs[g1].append(g2)
        return preds, succs


@dataclass(frozen=True)
class ProgramGraph:
    nodes: tuple[int, ...]
    edges: dict[tuple[int, int], int] = field(default_factory=dict)
    vertex_degree: dict[int, int] = field(default_factory=dict)


def build_circuit(num_qubits: int, num_clbits: int,
                  ops: list[tuple[GateKind, tuple[int, ...], int | None]]) -> Circuit:
    """Assemble a Circuit from (kind, operands[, classical_target]) tuples, assigning gate ids."""
    gates = []
    for i, op in enumerate(ops):
        kind, operands = GateKind(op[0]), op[1]
        clbit = op[2] if len(op) > 2 else None
        gates.append(Gate(id=i, kind=kind, operands=tuple(operands), classical_target=clbit))
    return Circuit(num_qubits=num_qubits, num_clbits=num_clbits, gates=tuple(gates))


# One line, one statement. The blanks around it and a trailing // comment
# are taken as str.strip() takes them, any Unicode whitespace; the statement
# itself is ASCII, as OpenQASM is: under (?a:...), \d takes no other script's
# digits (which int() would read) and \s no Unicode spaces. The group that
# closes last says which statement matched: 2 qreg, 4 creg, 8 cx, 12 measure,
# 15 a single-qubit gate, and none for a blank line, the OPENQASM header or
# the qelib1 include. A keyword branch needs its keyword followed by ASCII
# whitespace, so 'cx q[0]' is read by the single-qubit branch as an unknown
# gate kind.
_REF = r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]"
_RE_LINE = re.compile(
    r"\s*(?:(?:OPENQASM(?:(?!//).)*|include \"qelib1\.inc\"|(?a:"
    rf"qreg\s+{_REF}|creg\s+{_REF}|cx\s+{_REF}\s*,\s*{_REF}|measure\s+{_REF}\s*->\s*{_REF}"
    rf"|([A-Za-z]+)\s+{_REF}))\s*;\s*)?(?://.*)?")


def _column(raw: str) -> int:
    """1-based column of a source line's first non-blank character."""
    return len(raw) - len(raw.lstrip()) + 1


def _misread(raw: str, lineno: int) -> NoReturn:
    """Raise the ParseError of a line _RE_LINE does not match: with its
    comment cut off and its blanks stripped, it does not end with ';', or it
    holds no statement that the reader knows."""
    line = raw.split("//", 1)[0].strip()
    if not line.endswith(";"):
        raise ParseError("statement must end with ';'", lineno, _column(raw) + len(line))
    raise ParseError(f"cannot parse statement '{line[:-1].strip()}'", lineno, _column(raw))


def _qasm_int(digits: str, line: int, col: int) -> int:
    # int() refuses a string of more digits than sys.get_int_max_str_digits()
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError(f"integer of {len(digits)} digits is too long", line, col) from exc


def parse_circuit(text: str) -> Circuit:
    """Parse circuit source in the OpenQASM 2.0 subset that to_qasm writes."""
    qreg: str | None = None
    creg: str | None = None
    num_qubits = 0
    num_clbits = 0
    gates: list[Gate] = []
    new = tuple.__new__   # a Gate without NamedTuple's Python-level __new__
    one_qubit, read = _SINGLE_QUBIT_NAMES, _RE_LINE.fullmatch
    cnot, measure = GateKind.CNOT, GateKind.MEASURE
    lines = text.splitlines()
    ones: dict[str, tuple[int]] = {}   # one operand tuple per qubit, by its digits
    matches: dict[str, re.Match] = {}   # one match per distinct line: gate lines repeat

    for lineno, raw in enumerate(lines, start=1):
        m = matches.get(raw)
        if m is None:
            m = matches[raw] = read(raw)
            if m is None:
                _misread(raw, lineno)
        which = m.lastindex
        if which is None:
            continue
        gid = len(gates)
        try:
            if which == 15:
                name, reg, q = m.group(13, 14, 15)
                kind = one_qubit.get(name)
                if kind is None:
                    raise ParseError(f"unknown gate kind '{name}'", lineno, _column(raw))
                if qreg is None:
                    raise ParseError("gate before qreg declaration", lineno, _column(raw))
                if reg != qreg:
                    raise ParseError(f"unknown register '{reg}'", lineno, _column(raw))
                operands = ones.get(q)
                if operands is None:
                    operands = ones[q] = (int(q),)
                gates.append(new(Gate, (gid, kind, operands, None)))
            elif which == 8:
                reg_a, a, reg_b, b = m.group(5, 6, 7, 8)
                if qreg is None:
                    raise ParseError("gate before qreg declaration", lineno, _column(raw))
                if reg_a != qreg or reg_b != qreg:
                    reg = reg_a if reg_a != qreg else reg_b
                    raise ParseError(f"unknown register '{reg}'", lineno, _column(raw))
                a, b = int(a), int(b)
                gates.append(new(Gate, (gid, cnot, (a, b), None)))
            elif which == 12:
                reg, q, reg_c, clbit = m.group(9, 10, 11, 12)
                if qreg is None:
                    raise ParseError("gate before qreg declaration", lineno, _column(raw))
                if reg != qreg:
                    raise ParseError(f"unknown register '{reg}'", lineno, _column(raw))
                if creg is None or reg_c != creg:
                    raise ParseError(f"unknown classical register '{reg_c}'", lineno,
                                     _column(raw))
                q, clbit = int(q), int(clbit)
                gates.append(new(Gate, (gid, measure, (q,), clbit)))
            elif which == 2:
                if qreg is not None:
                    raise ParseError("duplicate qreg declaration", lineno, _column(raw))
                qreg, num_qubits = m[1], int(m[2])
            else:
                if creg is not None:
                    raise ParseError("duplicate creg declaration", lineno, _column(raw))
                creg, num_clbits = m[3], int(m[4])
        except ParseError:
            raise
        except ValueError:
            # int() refused a digit group (names start with a letter or '_');
            # the first such group, in the order read, is the one reported
            for digits in m.groups(""):
                if digits.isdigit():
                    _qasm_int(digits, lineno, _column(raw))
            raise

    if qreg is None:
        raise ParseError("missing qreg declaration", 1, 1)
    try:   # checked only now, so that a syntax error on any line wins over a range error
        return Circuit(num_qubits=num_qubits, num_clbits=num_clbits, gates=tuple(gates))
    except GateError as exc:   # the refused gate's line: the exc.gate-th line holding a gate
        at = [n for n, raw in enumerate(lines, 1) if matches[raw].lastindex in (8, 12, 15)]
        raise ParseError(exc.reason, at[exc.gate], _column(lines[at[exc.gate] - 1])) from None


def to_qasm(c: Circuit) -> str:
    lines = ["OPENQASM 2.0;", f"qreg q[{c.num_qubits}];"]
    if c.num_clbits:
        lines.append(f"creg c[{c.num_clbits}];")
    for g in c.gates:
        if g.kind is GateKind.CNOT:
            lines.append(f"cx q[{g.operands[0]}],q[{g.operands[1]}];")
        elif g.kind is GateKind.MEASURE:
            lines.append(f"measure q[{g.operands[0]}] -> c[{g.classical_target}];")
        else:
            lines.append(f"{g.kind.value} q[{g.operands[0]}];")
    return "\n".join(lines) + "\n"


def predecessor_lists(c: Circuit) -> list[list[int]]:
    """The dependency rule: each gate's direct predecessors, by gate id, each
    list sorted ascending. A gate follows the last earlier gate on each wire
    it touches: each of its qubits, and the clbit it writes, keyed
    ("c", clbit), so the later of two writes to one clbit stays later."""
    preds: list[list[int]] = []
    last: dict = {}
    for g in c.gates:
        wires = g.operands if g.classical_target is None \
            else (*g.operands, ("c", g.classical_target))
        ps = []
        for w in wires:
            p = last.get(w)
            if p is not None and p not in ps:
                ps.append(p)
            last[w] = g.id
        ps.sort()
        preds.append(ps)
    return preds


def build_program_graph(c: Circuit) -> ProgramGraph:
    edges: dict[tuple[int, int], int] = {}
    degree = {q: 0 for q in range(c.num_qubits)}
    for g in c.gates:
        if g.kind is not GateKind.CNOT:
            continue
        a, b = sorted(g.operands)
        edges[(a, b)] = edges.get((a, b), 0) + 1
        degree[a] += 1
        degree[b] += 1
    return ProgramGraph(nodes=tuple(range(c.num_qubits)), edges=edges, vertex_degree=degree)


def gen_bv(n: int, s: str) -> Circuit:
    """Bernstein-Vazirani circuit for hidden string s over n-1 data qubits plus one ancilla."""
    if len(s) != n - 1:
        raise ValueError(f"hidden string length {len(s)} != {n - 1}")
    if set(s) - {"0", "1"}:
        raise ValueError("hidden string must be over {0,1}")
    ancilla = n - 1
    ops: list[tuple[GateKind, tuple[int, ...], int | None]] = [(GateKind.X, (ancilla,), None)]
    ops += [(GateKind.H, (q,), None) for q in range(n)]
    ops += [(GateKind.CNOT, (i, ancilla), None) for i in range(n - 1) if s[i] == "1"]
    ops += [(GateKind.H, (q,), None) for q in range(n - 1)]
    ops += [(GateKind.MEASURE, (q,), q) for q in range(n - 1)]
    return build_circuit(n, n - 1, ops)


def gen_toffoli() -> Circuit:
    """Toffoli on qubits (0, 1) controlling 2, decomposed over {H, T, TDG, CNOT}, all qubits measured."""
    ops: list[tuple[GateKind, tuple[int, ...], int | None]] = [
        (GateKind.H, (2,), None),
        (GateKind.CNOT, (1, 2), None),
        (GateKind.TDG, (2,), None),
        (GateKind.CNOT, (0, 2), None),
        (GateKind.T, (2,), None),
        (GateKind.CNOT, (1, 2), None),
        (GateKind.TDG, (2,), None),
        (GateKind.CNOT, (0, 2), None),
        (GateKind.T, (1,), None),
        (GateKind.T, (2,), None),
        (GateKind.H, (2,), None),
        (GateKind.CNOT, (0, 1), None),
        (GateKind.T, (0,), None),
        (GateKind.TDG, (1,), None),
        (GateKind.CNOT, (0, 1), None),
        (GateKind.MEASURE, (0,), 0),
        (GateKind.MEASURE, (1,), 1),
        (GateKind.MEASURE, (2,), 2),
    ]
    return build_circuit(3, 3, ops)


def gen_random(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    """Random benchmark: kinds uniform over the 7-kind set, operands uniform without
    replacement. Raises ValueError for fewer than 2 qubits or a negative gate count."""
    if num_qubits < 2:
        raise ValueError("need at least 2 qubits")
    if num_gates < 0:
        raise ValueError(f"{num_gates} gates: the gate count cannot be negative")
    rng = np.random.default_rng(seed)
    ops: list[tuple[GateKind, tuple[int, ...], int | None]] = []
    for _ in range(num_gates):
        kind = RANDOM_GATE_KINDS[int(rng.integers(len(RANDOM_GATE_KINDS)))]
        if kind is GateKind.CNOT:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            ops.append((kind, (a, b), None))
        else:
            ops.append((kind, (int(rng.integers(num_qubits)),), None))
    return build_circuit(num_qubits, 0, ops)
