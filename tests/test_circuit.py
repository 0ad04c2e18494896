"""Circuit IR: parsing, emission, DAG construction, generators."""

import random

import numpy as np
import pytest

from nisqc.circuit import (
    Circuit,
    Gate,
    GateError,
    GateKind,
    ParseError,
    build_circuit,
    build_program_graph,
    gen_bv,
    gen_random,
    gen_toffoli,
    parse_circuit,
    predecessor_lists,
    to_qasm,
)
from nisqc import circuit as circuit_module
from nisqc.evaluate import check_solution
from nisqc.heuristic import HeuristicConfig, heuristic_compile
from nisqc.machine import build_tables, load_calibration, synth_calibration
from qasm_reference import parse_qasm as reference_parse_qasm


BV4_QASM = """\
OPENQASM 2.0;
qreg q[4];
creg c[3];
x q[3];
h q[0];
h q[1];
h q[2];
h q[3];
cx q[0],q[3];
cx q[1],q[3];
cx q[2],q[3];
h q[0];
h q[1];
h q[2];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
"""


def kahn_is_acyclic(num_gates, edges):
    indeg = [0] * num_gates
    succ = [[] for _ in range(num_gates)]
    for a, b in edges:
        indeg[b] += 1
        succ[a].append(b)
    queue = [g for g in range(num_gates) if indeg[g] == 0]
    seen = 0
    while queue:
        g = queue.pop()
        seen += 1
        for nxt in succ[g]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return seen == num_gates


def with_shared_clbits(c, seed):
    """c with a readout into one of two clbits inserted at random, about one
    per four gates, so most clbits are written more than once."""
    rng = np.random.default_rng(seed)
    ops = [(g.kind, g.operands, g.classical_target) for g in c.gates]
    for _ in range(len(ops) // 4):
        ops.insert(int(rng.integers(len(ops) + 1)),
                   (GateKind.MEASURE, (int(rng.integers(c.num_qubits)),), int(rng.integers(2))))
    return build_circuit(c.num_qubits, 2, ops)


class TestParse:
    def test_bv4_text(self):
        c = parse_circuit(BV4_QASM)
        cnots = c.cnot_gates()
        assert len(cnots) == 3
        assert all(g.operands[1] == 3 for g in cnots)
        assert c.num_qubits == 4 and c.num_clbits == 3

    def test_empty_body(self):
        c = parse_circuit("qreg q[2];\n")
        assert c.num_qubits == 2 and c.gates == ()

    def test_cnot_same_operand(self):
        with pytest.raises(ParseError, match="CNOT operands distinct"):
            parse_circuit("qreg q[2];\ncx q[0],q[0];\n")

    def test_error_carries_line(self):
        with pytest.raises(ParseError) as exc:
            parse_circuit("qreg q[2];\nfoo q[0];\n")
        assert exc.value.line == 2

    def test_operand_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_circuit("qreg q[2];\nh q[5];\n")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown gate kind"):
            parse_circuit("qreg q[2];\nrx q[0];\n")

    def test_comments_and_blank_lines(self):
        c = parse_circuit("// prep\nqreg q[1];\n\nh q[0]; // rotate\n")
        assert [g.kind for g in c.gates] == [GateKind.H]

    def test_qelib1_include_is_skipped(self):
        text = BV4_QASM.replace("OPENQASM 2.0;\n", 'OPENQASM 2.0;\ninclude "qelib1.inc";\n')
        assert parse_circuit(text) == parse_circuit(BV4_QASM)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError, match="';'"):
            parse_circuit("qreg q[1]\n")

    # Every message the QASM reader raises, at the (line, column) it is
    # reported: the column is that of the statement's first non-blank
    # character, or just past the statement for a missing ';'. L and M are
    # past int()'s default limit of 4300 digits.
    L, M = "9" * 5000, "8" * 4400
    POSITIONS = [
        ("qreg q[1];\n\n   h q[0]  // no semicolon\n", 3, 10, "statement must end with ';'"),
        ("qreg q[1];\n  h q[0];;\n", 2, 3, "cannot parse statement 'h q[0];'"),
        ("qreg q[1];\n;\n", 2, 1, "cannot parse statement ''"),
        ("// c\nqreg q[1];\n  h q[0] q;\n", 3, 3, "cannot parse statement 'h q[0] q'"),
        ("qreg q[1];\n\t qreg r[2];\n", 2, 3, "duplicate qreg declaration"),
        ("qreg q[1];\ncreg c[1];\n// x\n  creg d[1];\n", 4, 3, "duplicate creg declaration"),
        (f"  qreg q[{L}];\n", 1, 3, "integer of 5000 digits is too long"),
        (f"qreg q[1];\n\n creg c[{L}];\n", 3, 2, "integer of 5000 digits is too long"),
        (f"qreg q[1];\n   h q[{L}];\n", 2, 4, "integer of 5000 digits is too long"),
        (f"qreg q[1];\n  cx q[{M}],q[{L}];\n", 2, 3, "integer of 4400 digits is too long"),
        (f"qreg q[1];\n  cx q[0], q[{L}];\n", 2, 3, "integer of 5000 digits is too long"),
        (f"qreg q[1];\ncreg c[1];\n    measure q[{L}] -> c[0];\n", 3, 5,
         "integer of 5000 digits is too long"),
        (f"qreg q[1];\ncreg c[1];\n    measure q[0] -> c[{L}];\n", 3, 5,
         "integer of 5000 digits is too long"),
        ("qreg q[1];\n   rx q[0];\n", 2, 4, "unknown gate kind 'rx'"),
        ("  cx q[0];\n", 1, 3, "unknown gate kind 'cx'"),
        ("\n  h q[0];\nqreg q[1];\n", 2, 3, "gate before qreg declaration"),
        ("\n\tcx q[0],q[1];\n", 2, 2, "gate before qreg declaration"),
        ("measure q[0] -> c[0];\n", 1, 1, "gate before qreg declaration"),
        ("qreg q[1];\n // c\n  h r[0];\n", 3, 3, "unknown register 'r'"),
        ("qreg q[2];\n  cx q[0],r[1];\n", 2, 3, "unknown register 'r'"),
        ("qreg q[2];\n  cx r[0],q[1];\n", 2, 3, "unknown register 'r'"),
        ("qreg q[1];\ncreg c[1];\n measure r[0] -> c[0];\n", 3, 2, "unknown register 'r'"),
        ("qreg q[1];\n  measure q[0] -> c[0];\n", 2, 3, "unknown classical register 'c'"),
        ("qreg q[1];\ncreg c[1];\n   measure q[0] -> d[0];\n", 3, 4,
         "unknown classical register 'd'"),
        ("", 1, 1, "missing qreg declaration"),
        ("// only a comment\n\n", 1, 1, "missing qreg declaration"),
        ("OPENQASM 2.0;\n", 1, 1, "missing qreg declaration"),
        ("qreg q[2];\nh q[0];\n\n    h q[2];\n", 4, 5,
         "operand q[2] out of range (register size 2)"),
        ("qreg q[2];\n   cx q[1],q[2];\n", 2, 4, "operand q[2] out of range (register size 2)"),
        ("qreg q[2];\ncreg c[2];\n  measure q[3] -> c[0];\n", 3, 3,
         "operand q[3] out of range (register size 2)"),
        ("qreg q[2];\n\n\t\tcx q[1],q[1];\n", 3, 3, "CNOT operands distinct"),
        ("qreg q[2];\ncreg c[2];\n // m\n  measure q[1] -> c[2];\n", 4, 3,
         "classical bit 2 out of range (register size 2)"),
        # operands are checked after every line has been read, first gate first
        ("qreg q[1];\nh q[5];\nfoo;\n", 3, 1, "cannot parse statement 'foo'"),
        ("qreg q[1];\n  h q[5];\n  cx q[0],q[0];\n", 2, 3,
         "operand q[5] out of range (register size 1)"),
        # include "qelib1.inc"; is the one include read, and skipped
        ('OPENQASM 2.0;\n  include "other.inc";\nqreg q[1];\n', 2, 3,
         "cannot parse statement 'include \"other.inc\"'"),
        ('OPENQASM 2.0;\ninclude "qelib1.inc";\n include qelib1.inc;\n', 3, 2,
         "cannot parse statement 'include qelib1.inc'"),
    ]

    @pytest.mark.parametrize("text, line, column, message", POSITIONS,
                             ids=[str(i) for i in range(len(POSITIONS))])
    def test_error_positions(self, text, line, column, message):
        with pytest.raises(ParseError) as exc:
            parse_circuit(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value) == f"line {line}, column {column}: {message}"


def _mutated(text: str, rng: random.Random) -> str:
    """text with one to three line edits: a ';' dropped or doubled, a
    comment, tabs, a no-break space or form feed at the line's end or inside
    it, an over-long number, an unknown gate, a mismatched register, a
    duplicated declaration, an include line or a copy of another line."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        edit = rng.randrange(13)
        if edit == 0:
            line = line.replace(";", "", 1)
        elif edit == 1:
            line = line.replace(";", ";;", 1)
        elif edit == 2:
            at = rng.randrange(len(line) + 1)
            line = line[:at] + rng.choice(("// x;", "//", " // c", "/")) + line[at:]
        elif edit == 3:
            line = rng.choice(("\t", " \t", "")) + line.replace(" ", rng.choice(("\t", " \t ")))
        elif edit == 4:
            at = rng.choice((len(line), len(line) - 1, rng.randrange(len(line) + 1)))
            line = line[:at] + rng.choice(("\u00a0", "\f", " \u00a0", "\u2003")) + line[at:]
        elif edit == 5:
            line = line.replace("[", "[" + "9" * rng.choice((3, 4400, 5000)), 1)
        elif edit == 6:
            word = line.split(" ", 1)[0]
            line = line.replace(word, rng.choice(("rx", "u3", "cz", "cx", "h")), 1)
        elif edit == 7:
            line = line.replace(rng.choice(("q[", "c[")), rng.choice(("r[", "d[", "q_1[")), 1)
        elif edit == 8:
            lines.insert(i, rng.choice(("qreg q[3];", "creg c[2];", "qreg r[1];")))
        elif edit == 9:
            lines.insert(i, rng.choice(('include "qelib1.inc";', 'include "other.inc";',
                                        "include qelib1.inc;", 'include  "qelib1.inc" ;',
                                        "OPENQASM 2.0;", "OPENQASM 3 // v;")))
        elif edit == 10:
            line = line.replace("1", rng.choice(("7", "0", "\u0661")), 1)
        elif edit == 11:
            lines.insert(i, rng.choice(lines))
        else:
            line = rng.choice(("", " ", ";", "h;", "measure q[0];", "// only")) + line
        if edit not in (8, 9, 11):
            lines[i] = line
    return "\n".join(lines) + rng.choice(("", "\n"))


def _read(reader, text):
    try:
        return reader(text)
    except ParseError as exc:
        return ("ParseError", exc.line, exc.column, str(exc))


class TestParseOracle:
    """The reader against the line reader it replaced (tests/qasm_reference.py)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_mutated_texts_read_as_the_reference_reads_them(self, seed):
        rng = random.Random(seed)
        sources = [BV4_QASM, to_qasm(gen_toffoli()), to_qasm(gen_random(3, 12, seed)),
                   'OPENQASM 2.0;\ninclude "qelib1.inc";\n' + to_qasm(gen_bv(4, "101"))[14:]]
        errors = 0
        for k in range(300):
            text = _mutated(sources[k % len(sources)], rng)
            got = _read(parse_circuit, text)
            assert got == _read(reference_parse_qasm, text), text
            errors += isinstance(got, tuple)
        assert 0 < errors < 300


class TestRoundTrip:
    @pytest.mark.parametrize("circuit", [
        gen_bv(4, "111"), gen_bv(5, "1011"), gen_toffoli(), gen_random(6, 40, seed=9),
    ])
    def test_qasm_roundtrip(self, circuit):
        assert parse_circuit(to_qasm(circuit)) == circuit


def dag_edges(c):
    """Every (predecessor, gate) pair of predecessor_lists."""
    return {(p, g) for g, ps in enumerate(predecessor_lists(c)) for p in ps}


class TestDag:
    def test_single_gate(self):
        c = parse_circuit("qreg q[1];\nh q[0];\n")
        assert dag_edges(c) == set()

    def test_same_qubit_chain(self):
        c = parse_circuit("qreg q[1];\nh q[0];\nh q[0];\n")
        assert dag_edges(c) == {(0, 1)}

    def test_bv4_structure(self):
        c = gen_bv(4, "111")
        edges = dag_edges(c)
        # Gate layout: 0 = X(q3), 1..4 = H(q0..q3), 5..7 = CNOTs onto q3.
        assert (1, 5) in edges and (4, 5) in edges
        assert (5, 6) in edges and (6, 7) in edges
        assert kahn_is_acyclic(len(c.gates), edges)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_acyclic_and_ordered(self, seed):
        c = with_shared_clbits(gen_random(5, 60, seed=seed), seed)
        edges = dag_edges(c)
        assert kahn_is_acyclic(len(c.gates), edges)
        assert all(a < b for a, b in edges)
        for a, b in edges:
            ga, gb = c.gates[a], c.gates[b]
            assert set(ga.operands) & set(gb.operands) \
                or ga.classical_target is not None and ga.classical_target == gb.classical_target

    @pytest.mark.parametrize("seed", range(8))
    def test_predecessor_lists_match_the_dag(self, seed):
        # each gate follows the last earlier gate on each of its qubits and
        # on its clbit
        for c in (gen_random(2 + seed % 5, 40 + 10 * seed, seed), gen_bv(5, "1011"),
                  with_shared_clbits(gen_random(2 + seed % 5, 30, seed), seed)):
            want = []
            for g in c.gates:
                earlier = c.gates[:g.id]
                last = {max((h.id for h in earlier if q in h.operands), default=None)
                        for q in g.operands}
                if g.classical_target is not None:
                    last.add(max((h.id for h in earlier
                                  if h.classical_target == g.classical_target), default=None))
                want.append(sorted(last - {None}))
            assert predecessor_lists(c) == want
            preds, succs = c.dag
            assert preds == want
            assert succs == [[g for g, ps in enumerate(want) if p in ps]
                             for p in range(len(c.gates))]
            assert c.dag is c.dag

    def test_repeated_wire_is_refused_where_the_circuit_is_made(self):
        # no gate repeats a wire, so no gate is its own predecessor and no
        # mapper looks up a cell pair (a, a); build_circuit, which has no
        # source text, names the gate, not a line and column
        with pytest.raises(GateError) as exc:
            build_circuit(2, 0, [("cx", (0, 0))])
        assert not isinstance(exc.value, ParseError)
        assert (exc.value.gate, exc.value.reason) == (0, "CNOT operands distinct")
        assert str(exc.value) == "gate 0: CNOT operands distinct"

    def test_one_dag_per_circuit_from_compile_to_check(self, monkeypatch):
        # check_solution reads the lists build_solution built for the circuit
        calls = []

        def counted(c):
            calls.append(c)
            return predecessor_lists(c)

        monkeypatch.setattr(circuit_module, "predecessor_lists", counted)
        m = load_calibration(synth_calibration(3, 3, 1))
        t = build_tables(m)
        c = gen_random(6, 40, 2)
        sol = heuristic_compile(c, m, t, HeuristicConfig("greedy-e"))
        assert check_solution(sol, c, m, tables=t) == []
        assert calls == [c]


class TestProgramGraph:
    def test_bv4(self):
        pg = build_program_graph(gen_bv(4, "111"))
        assert pg.nodes == (0, 1, 2, 3)
        assert pg.edges == {(0, 3): 1, (1, 3): 1, (2, 3): 1}
        assert pg.vertex_degree[3] == 3

    def test_no_cnots(self):
        pg = build_program_graph(gen_bv(4, "000"))
        assert pg.edges == {}

    def test_repeated_edge_counts(self):
        c = parse_circuit("qreg q[2];\ncx q[0],q[1];\ncx q[1],q[0];\n")
        pg = build_program_graph(c)
        assert pg.edges == {(0, 1): 2}
        assert pg.vertex_degree == {0: 2, 1: 2}

    @pytest.mark.parametrize("seed", range(4))
    def test_degree_identity(self, seed):
        c = gen_random(6, 80, seed=seed)
        pg = build_program_graph(c)
        n_cnots = len(c.cnot_gates())
        assert sum(pg.edges.values()) == n_cnots
        assert sum(pg.vertex_degree.values()) == 2 * n_cnots


class TestCheck:
    """Circuit checks its gates where it is made, however it is built."""

    H, CX, MEASURE = GateKind.H, GateKind.CNOT, GateKind.MEASURE
    REFUSED = [
        ("cnot on one wire", 2, 0, Gate(0, CX, (1, 1)), "CNOT operands distinct"),
        ("operand out of range", 2, 0, Gate(0, CX, (0, 2)),
         "operand q[2] out of range (register size 2)"),
        ("id not its index", 2, 0, Gate(5, H, (0,)), "id 5 is not the gate's index"),
        ("h with two operands", 2, 0, Gate(0, H, (0, 1)), "2 operands, not h's 1"),
        ("measure with no clbit", 2, 1, Gate(0, MEASURE, (0,)),
         "classical bit None out of range (register size 1)"),
        ("measure clbit out of range", 2, 1, Gate(0, MEASURE, (0,), 1),
         "classical bit 1 out of range (register size 1)"),
        ("h writes a clbit", 2, 1, Gate(0, H, (0,), 0), "h writes no classical bit"),
        ("kind not a GateKind", 2, 0, Gate(0, "h", (0,)), "kind 'h' is not a GateKind"),
        ("float operand", 2, 0, Gate(0, CX, (0.0, 1)), "operand 0.0 is not an int"),
        ("bool operand", 2, 0, Gate(0, H, (True,)), "operand True is not an int"),
        ("float clbit", 2, 1, Gate(0, MEASURE, (0,), 0.0), "classical bit 0.0 is not an int"),
        ("operands an int", 2, 0, Gate(0, H, 0), "operands 0 are not a tuple"),
        ("operands a list", 2, 0, Gate(0, CX, [0, 1]), "operands [0, 1] are not a tuple"),
        ("plain tuple for a gate", 2, 0, (0, H, (0,), None),
         "(0, <GateKind.H: 'h'>, (0,), None) is not a Gate"),
    ]

    @pytest.mark.parametrize("case, nq, nc, gate, reason", REFUSED,
                             ids=[r[0] for r in REFUSED])
    def test_invalid_gate_is_refused_at_construction(self, case, nq, nc, gate, reason):
        with pytest.raises(ValueError) as exc:
            Circuit(nq, nc, (gate,))
        assert isinstance(exc.value, GateError)
        assert (exc.value.gate, exc.value.reason) == (0, reason)
        assert str(exc.value) == f"gate 0: {reason}"

    FIELDS = [
        ("float num_qubits", 2.0, 0, (), "num_qubits 2.0 is not an int >= 0"),
        ("negative num_qubits", -1, 0, (), "num_qubits -1 is not an int >= 0"),
        ("bool num_qubits", True, 0, (), "num_qubits True is not an int >= 0"),
        ("float num_clbits", 2, 1.0, (), "num_clbits 1.0 is not an int >= 0"),
        ("negative num_clbits", 2, -1, (), "num_clbits -1 is not an int >= 0"),
        ("bool num_clbits", 2, False, (), "num_clbits False is not an int >= 0"),
        ("gates a list", 2, 0, [Gate(0, H, (0,))], "gates must be a tuple, not list"),
    ]

    @pytest.mark.parametrize("case, nq, nc, gates, message", FIELDS,
                             ids=[r[0] for r in FIELDS])
    def test_invalid_size_or_container_is_refused_by_name(self, case, nq, nc, gates, message):
        with pytest.raises(ValueError) as exc:
            Circuit(nq, nc, gates)
        assert not isinstance(exc.value, GateError)
        assert str(exc.value) == message


class TestGenerators:
    def test_bv_shape(self):
        c = gen_bv(4, "111")
        assert len(c.cnot_gates()) == 3
        measures = [g for g in c.gates if g.kind is GateKind.MEASURE]
        assert len(measures) == 3
        assert {g.operands[0] for g in measures} == {0, 1, 2}

    def test_bv_zero_string(self):
        assert gen_bv(4, "000").cnot_gates() == ()

    def test_bv_length_mismatch(self):
        with pytest.raises(ValueError):
            gen_bv(4, "11")

    def test_toffoli_shape(self):
        c = gen_toffoli()
        assert len(c.cnot_gates()) == 6
        pg = build_program_graph(c)
        assert set(pg.edges) == {(0, 1), (0, 2), (1, 2)}

    def test_random_deterministic(self):
        assert gen_random(4, 50, seed=11) == gen_random(4, 50, seed=11)
        assert gen_random(4, 50, seed=11) != gen_random(4, 50, seed=12)

    @pytest.mark.parametrize("num_qubits", [0, 1])
    def test_random_needs_two_qubits(self, num_qubits):
        with pytest.raises(ValueError, match="need at least 2 qubits"):
            gen_random(num_qubits, 10, seed=0)

    @pytest.mark.parametrize("num_gates", [-1, -2])
    def test_random_refuses_a_negative_gate_count(self, num_gates):
        # as the CLI's gen-circuit random --gates does, before any draw
        with pytest.raises(ValueError, match="the gate count cannot be negative"):
            gen_random(3, num_gates, seed=0)
        assert gen_random(3, 0, seed=0).gates == ()

    def test_random_bounds(self):
        c = gen_random(128, 2048, seed=7)
        assert len(c.gates) == 2048
        assert all(q < 128 for g in c.gates for q in g.operands)

    def test_random_cnot_fraction(self):
        # Kind is uniform over 7 choices; binomial 3-sigma band around 1/7.
        n = 7000
        c = gen_random(4, n, seed=2024)
        frac = len(c.cnot_gates()) / n
        sigma = np.sqrt((1 / 7) * (6 / 7) / n)
        assert abs(frac - 1 / 7) < 3 * sigma
