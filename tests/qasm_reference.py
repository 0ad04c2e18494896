"""The QASM line reader as it was before the one-regex reader, kept on the
test side as an oracle: each line is trimmed and cut at '//' by string
methods, and its first word picks one of five regexes. Tests require both
readers to give an equal Circuit or the identical ParseError on every
input. It keeps its own copy of the gate range rules, as the reader once
checked them, so that it stays independent of Circuit's check."""

import re

from nisqc.circuit import (
    _SINGLE_QUBIT_NAMES,
    Circuit,
    Gate,
    GateKind,
    ParseError,
)

# OpenQASM is ASCII: under re.ASCII, \d takes no other script's digits (which
# int() would read) and \s no Unicode spaces.
_RE_QREG = re.compile(r"qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$", re.ASCII)
_RE_CREG = re.compile(r"creg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$", re.ASCII)
_RE_1Q = re.compile(r"([A-Za-z]+)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$", re.ASCII)
_RE_CX = re.compile(
    r"cx\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]\s*,\s*([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$",
    re.ASCII)
_RE_MEASURE = re.compile(
    r"measure\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]\s*->\s*([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$",
    re.ASCII)
# A statement's first word picks its regex, _RE_1Q for any other word. Each
# keyword regex needs its keyword followed by ASCII whitespace, so after a
# miss only _RE_1Q can still match: 'cx q[0]' is then an unknown gate kind.
_RE_BY_WORD = {"qreg": _RE_QREG, "creg": _RE_CREG, "cx": _RE_CX, "measure": _RE_MEASURE}


def _column(raw: str) -> int:
    """1-based column of a source line's first non-blank character."""
    return len(raw) - len(raw.lstrip()) + 1


def _validate_gate(kind: GateKind, operands: tuple[int, ...], num_qubits: int,
                   clbit: int | None, num_clbits: int, line: int, col: int) -> None:
    for q in operands:
        if not 0 <= q < num_qubits:
            raise ParseError(f"operand q[{q}] out of range (register size {num_qubits})", line, col)
    if kind is GateKind.CNOT and operands[0] == operands[1]:
        raise ParseError("CNOT operands distinct", line, col)
    if kind is GateKind.MEASURE:
        if clbit is None or not 0 <= clbit < num_clbits:
            raise ParseError(f"classical bit {clbit} out of range (register size {num_clbits})",
                             line, col)


def _qasm_int(digits: str, line: int, col: int) -> int:
    # int() refuses a string of more digits than sys.get_int_max_str_digits()
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError(f"integer of {len(digits)} digits is too long", line, col) from exc


def parse_qasm(text: str) -> Circuit:
    qreg: str | None = None
    creg: str | None = None
    num_qubits = 0
    num_clbits = 0
    gates: list[Gate] = []
    # (gate id, line) of each gate _validate_gate refuses; the conditions
    # below are its own. It runs after the loop, so that a syntax error on
    # any line wins over an earlier out-of-range operand.
    bad: list[tuple[int, int]] = []
    new = tuple.__new__   # a Gate without NamedTuple's Python-level __new__
    one_qubit, by_word = _SINGLE_QUBIT_NAMES, _RE_BY_WORD
    cnot, measure = GateKind.CNOT, GateKind.MEASURE
    lines = text.splitlines()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise ParseError("statement must end with ';'", lineno, _column(raw) + len(line))
        stmt = line[:-1].strip()
        if stmt.startswith("OPENQASM") or stmt == 'include "qelib1.inc"':
            continue
        rx = by_word.get(stmt.split(None, 1)[0] if stmt else "", _RE_1Q)
        m = rx.match(stmt)
        if m is None:
            rx = _RE_1Q
            m = rx.match(stmt)
            if m is None:
                raise ParseError(f"cannot parse statement '{stmt}'", lineno, _column(raw))
        groups = m.groups()
        gid = len(gates)
        try:
            if rx is _RE_1Q:
                name, reg, q = groups
                kind = one_qubit.get(name)
                if kind is None:
                    raise ParseError(f"unknown gate kind '{name}'", lineno, _column(raw))
                if qreg is None:
                    raise ParseError("gate before qreg declaration", lineno, _column(raw))
                if reg != qreg:
                    raise ParseError(f"unknown register '{reg}'", lineno, _column(raw))
                q = int(q)
                if q >= num_qubits:
                    bad.append((gid, lineno))
                gates.append(new(Gate, (gid, kind, (q,), None)))
            elif rx is _RE_CX:
                reg_a, a, reg_b, b = groups
                if qreg is None:
                    raise ParseError("gate before qreg declaration", lineno, _column(raw))
                if reg_a != qreg or reg_b != qreg:
                    reg = reg_a if reg_a != qreg else reg_b
                    raise ParseError(f"unknown register '{reg}'", lineno, _column(raw))
                a, b = int(a), int(b)
                if a >= num_qubits or b >= num_qubits or a == b:
                    bad.append((gid, lineno))
                gates.append(new(Gate, (gid, cnot, (a, b), None)))
            elif rx is _RE_MEASURE:
                reg, q, reg_c, clbit = groups
                if qreg is None:
                    raise ParseError("gate before qreg declaration", lineno, _column(raw))
                if reg != qreg:
                    raise ParseError(f"unknown register '{reg}'", lineno, _column(raw))
                if creg is None or reg_c != creg:
                    raise ParseError(f"unknown classical register '{reg_c}'", lineno,
                                     _column(raw))
                q, clbit = int(q), int(clbit)
                if q >= num_qubits or clbit >= num_clbits:
                    bad.append((gid, lineno))
                gates.append(new(Gate, (gid, measure, (q,), clbit)))
            elif rx is _RE_QREG:
                if qreg is not None:
                    raise ParseError("duplicate qreg declaration", lineno, _column(raw))
                qreg, num_qubits = groups[0], int(groups[1])
            else:
                if creg is not None:
                    raise ParseError("duplicate creg declaration", lineno, _column(raw))
                creg, num_clbits = groups[0], int(groups[1])
        except ParseError:
            raise
        except ValueError:
            # int() refused a digit group (names start with a letter or '_');
            # the first such group, in the order read, is the one reported
            for digits in groups:
                if digits.isdigit():
                    _qasm_int(digits, lineno, _column(raw))
            raise

    if qreg is None:
        raise ParseError("missing qreg declaration", 1, 1)
    if bad:
        gid, lineno = bad[0]
        _id, kind, operands, clbit = gates[gid]
        _validate_gate(kind, operands, num_qubits, clbit, num_clbits, lineno,
                       _column(lines[lineno - 1]))
    return Circuit(num_qubits=num_qubits, num_clbits=num_clbits, gates=tuple(gates))

