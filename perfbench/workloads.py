"""Seeded inputs for the benchmark's workloads.

Every input is text, as a user hands it to the compiler: OpenQASM for the
circuit and JSON for the calibration. Op ``i`` of a workload draws its inputs
from ``numpy.random.default_rng([seed, i])`` (on exact-paper the four variants
of one circuit share a draw), so the same seed gives the same op sequence
however long a run lasts. The mix is fixed here, not by the seed: which
family, size, grid and variant op ``i`` uses depends only on ``i`` modulo the
workload's period, and a run always makes whole periods, so every run
measures the same mix in the same proportions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nisqc import GateKind, gen_bv, gen_random, gen_toffoli, synth_calibration, to_qasm
from nisqc.circuit import build_circuit

# Per-solve budget of the exact search, in reads of its clock (see
# pipeline.read_budget); the same on every commit.
EXACT_BUDGET_READS = 1000
EXACT_VARIANTS = (("t-smt", "rr"), ("t-smt-star", "rr"),
                  ("t-smt-star", "1bp"), ("r-smt-star", "1bp"))
# One period's circuits, each run under the four variants. Slots alternate
# between plain and jittered-duration calibrations, and swap over from one
# period to the next.
EXACT_CIRCUITS = (("bv", 4), ("bv", 5), ("bv", 6), ("bv", 7), ("bv", 8),
                  ("rand", 4), ("rand", 5), ("rand", 6), ("toffoli", 3))
EXACT_CALS_PER_KIND = 8
GREEDY_SIZES = 9      # 64:1024 to 128:2048 qubits:gates
RECAL_GRIDS = tuple((mx, my) for mx in (4, 5, 6) for my in (4, 5, 6))
# The statevector oracle branches on every measurement; capping the H gates
# of a recal-evaluate circuit caps its branches at 2**MAX_H.
MAX_H = 6
# Nominal seconds one period of each mix took on the 2-vCPU machine the
# benchmark was tuned on; they set how many periods a run makes, and are the
# same on every commit.
PERIOD_S_EXACT, PERIOD_S_GREEDY, PERIOD_S_RECAL = 2.5, 7.8, 6.2


@dataclass(frozen=True)
class Op:
    index: int
    label: str
    qasm: str
    variant: str
    routing: str | None         # set for the exact variants only
    machine: int | None         # index into the set-up machines
    calibration: str | None     # fresh calibration JSON, ingested inside the op
    count_return_swaps: bool
    trials: int                 # Monte Carlo trials


@dataclass(frozen=True)
class Workload:
    name: str
    calibrations: tuple[str, ...]   # ingested with build_tables in set-up
    setup_reps: int
    period: int                     # ops in one whole mix; runs make whole periods
    period_s: float                 # nominal seconds one period took when tuned
    op: Callable[[int], Op]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


def _measured(c, kinds_map=None):
    """Append a measurement of every qubit; optionally rewrite gate kinds."""
    ops = [(kinds_map(g) if kinds_map else g.kind, g.operands, None) for g in c.gates]
    ops += [(GateKind.MEASURE, (q,), q) for q in range(c.num_qubits)]
    return build_circuit(c.num_qubits, c.num_qubits, ops)


def _cal_text(mx: int, my: int, seed: int, **kw) -> str:
    return json.dumps(synth_calibration(mx, my, seed, **kw))


def exact_paper(seed: int) -> Workload:
    """The paper's setting: small circuits on a 2x8 ladder, exact search."""
    cals = tuple(_cal_text(2, 8, _draw_seed(_rng(seed, 1_000_000 + k)),
                           jitter_durations=k >= EXACT_CALS_PER_KIND)
                 for k in range(2 * EXACT_CALS_PER_KIND))

    def op(i: int) -> Op:
        j, (variant, routing) = i // 4, EXACT_VARIANTS[i % 4]
        rng = _rng(seed, j)   # the four variants of circuit j share it
        slot, rep = j % len(EXACT_CIRCUITS), j // len(EXACT_CIRCUITS)
        family, n = EXACT_CIRCUITS[slot]
        if family == "bv":
            bits = rng.integers(0, 2, n - 1)
            if not bits.any():
                bits[-1] = 1
            secret = "".join(str(int(b)) for b in bits)
            c, label = gen_bv(n, secret), f"bv{n}-{secret}"
        elif family == "toffoli":
            c, label = gen_toffoli(), "toffoli"
        else:
            c, label = _measured(gen_random(n, 4 * n, _draw_seed(rng))), f"rand{n}"
        cal = (slot + rep) % 2 * EXACT_CALS_PER_KIND + rep % EXACT_CALS_PER_KIND
        return Op(i, f"{label}/{variant}/{routing}/cal{cal}", to_qasm(c),
                  variant, routing, cal, None, False, 10_000)

    return Workload("exact-paper", cals, setup_reps=9,
                    period=4 * len(EXACT_CIRCUITS), period_s=PERIOD_S_EXACT, op=op)


def greedy_scale(seed: int) -> Workload:
    """Hardware scale: 64-128 qubits, 1024-2048 gates, one 12x12 grid."""
    cal = _cal_text(12, 12, _draw_seed(_rng(seed, 1_000_000)), t2=10 ** 6)

    def op(i: int) -> Op:
        k = (i // 2) % GREEDY_SIZES
        nq, ng = 64 + 8 * k, 1024 + 128 * k
        variant = ("greedy-v", "greedy-e")[i % 2]
        c = gen_random(nq, ng, _draw_seed(_rng(seed, i)))
        return Op(i, f"rand{nq}x{ng}/{variant}", to_qasm(c), variant, None, 0, None,
                  False, 1_000)

    return Workload("greedy-scale", (cal,), setup_reps=3,
                    period=2 * GREEDY_SIZES, period_s=PERIOD_S_GREEDY, op=op)


def recal_evaluate(seed: int) -> Workload:
    """A fresh calibration per op: 4x4-6x6 grids, 10-14 measured qubits."""
    warm = tuple(_cal_text(s, s, _draw_seed(_rng(seed, 1_000_000 + s))) for s in (4, 5, 6))

    def op(i: int) -> Op:
        rng = _rng(seed, i)
        (mx, my), jitter = RECAL_GRIDS[i % 9], (i // 9) % 2 == 1
        nq = 10 + i % 5
        variant = ("greedy-v", "greedy-e")[i % 2]
        h_seen = []

        def cap_h(g):
            if g.kind is GateKind.H:
                h_seen.append(g.id)
                if len(h_seen) > MAX_H:
                    return GateKind.T
            return g.kind

        c = _measured(gen_random(nq, 4 * nq, _draw_seed(rng)), cap_h)
        cal = _cal_text(mx, my, _draw_seed(rng), jitter_durations=jitter)
        return Op(i, f"rand{nq}/{mx}x{my}{'j' if jitter else ''}/{variant}",
                  to_qasm(c), variant, None, None, cal, True, 100_000)

    return Workload("recal-evaluate", warm, setup_reps=9,
                    period=2 * len(RECAL_GRIDS) * 5, period_s=PERIOD_S_RECAL, op=op)


WORKLOADS = {"exact-paper": exact_paper, "greedy-scale": greedy_scale,
             "recal-evaluate": recal_evaluate}
