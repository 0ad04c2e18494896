"""Greedy calibration-aware mappers: degree-ordered vertex placement, weight-
ordered edge placement, the pairwise exchange that refines a placement, and
the shared best-path compile pipeline."""

from __future__ import annotations

import heapq
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .circuit import Circuit, GateKind, build_program_graph
from .machine import DerivedTables, GridMachine
from .schedule import Placement, Routing, Solution, build_solution, check_objective_settings


class GreedyPolicy(str, Enum):
    VERTEX = "greedy-v"
    EDGE = "greedy-e"


@dataclass(frozen=True)
class HeuristicConfig:
    policy: GreedyPolicy
    omega: float = 0.5
    count_return_swaps: bool = False
    variant = property(lambda self: self.policy)
    routing = Routing.BEST_PATH

    def __post_init__(self):
        object.__setattr__(self, "policy", GreedyPolicy(self.policy))
        check_objective_settings(self.omega, self.count_return_swaps)


def _by_readout(m: GridMachine, cells) -> list[int]:
    # best readout first, ties by cell id
    return sorted(cells, key=lambda cl: (m.qubits[cl].readout_error, cl))


def _degree_order(pg) -> list[int]:
    return sorted(pg.nodes, key=lambda q: (-pg.vertex_degree.get(q, 0), q))


def _best_free_cell(anchors: list[tuple[list[float], int]], free: list[int]) -> int:
    """The free cell with the best sum of best-path log-reliabilities to the
    anchors, each a column of them by cell, weighted by its CNOT multiplicity.
    `free` is ascending, so the first of tied cells wins."""
    best_cell, best_score = None, None
    for cell in free:
        s = 0.0
        for col, w in anchors:
            s += w * col[cell]
        if best_score is None or s > best_score + 1e-15:
            best_cell, best_score = cell, s
    return best_cell


def _greedy_map(pg, m: GridMachine, t: DerivedTables,
                seed: Callable[[dict[int, int], list[int]], list[tuple[int, int]]],
                rank: Callable[[int, int], int]) -> Placement:
    """The greedy placement loop both mappers share.

    While a CNOT-connected qubit is unplaced, the frontier qubit q (unplaced,
    with a placed CNOT neighbour) of least rank(q, p) over its placed
    neighbours p goes on the free cell with the best best-path reliability to
    them. With no frontier left, seed(placed, free) gives the (qubit, cell)
    pairs that start the next component. Isolated qubits go last, in degree
    order, on the best free readout cells.
    """
    if len(pg.nodes) > m.num_cells:
        raise ValueError(f"{len(pg.nodes)} program qubits exceed {m.num_cells} hardware cells")
    # neighbour lists in pg.edges order, so scores add up in one fixed order
    nbrs: dict[int, list[tuple[int, int]]] = {q: [] for q in pg.nodes}
    for (a, b), w in pg.edges.items():
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    n_connected = sum(1 for q in pg.nodes if nbrs[q])
    placed: dict[int, int] = {}
    free = list(range(m.num_cells))
    frontier: list[tuple[int, int]] = []   # heap of (rank, qubit)
    # per anchor cell, its ln column as a list, checked for an underflow
    # from each cell free when it first anchors
    cols: dict[int, list[float]] = {}

    def column(anchor: int) -> list[float]:
        col = cols.get(anchor)
        if col is None:
            col = cols[anchor] = t.ln_best_paths[anchor].tolist()
            if -math.inf in col:
                for cell in free:
                    if col[cell] == -math.inf:
                        r = t.best_paths[(cell, anchor)][1]
                        raise ValueError(f"best-path reliability from cell {cell} to cell "
                                         f"{anchor} underflowed to {r!r}")
        return col

    def place(q: int, cell: int) -> None:
        placed[q] = cell
        free.remove(cell)
        for other, _w in nbrs[q]:
            if other not in placed:
                heapq.heappush(frontier, (rank(other, q), other))

    while len(placed) < n_connected:
        while frontier and frontier[0][1] in placed:
            heapq.heappop(frontier)
        if not frontier:
            for q, cell in seed(placed, free):
                place(q, cell)
            continue
        q = heapq.heappop(frontier)[1]
        anchors = [(column(placed[o]), w) for o, w in nbrs[q] if o in placed]
        place(q, _best_free_cell(anchors, free))
    isolated = [q for q in _degree_order(pg) if q not in placed]
    for q, cell in zip(isolated, _by_readout(m, free)):
        placed[q] = cell
    return Placement(loc={q: m.pos(cl) for q, cl in placed.items()})


def greedy_vertex_map(pg, m: GridMachine, t: DerivedTables) -> Placement:
    """Highest-degree qubit onto the best-readout cell of maximal grid degree,
    then attach neighbors on best-path-reliability-maximizing free cells,
    highest degree first; a later component seeds its highest-degree qubit on
    the best free readout cell."""
    order = _degree_order(pg)
    pos = {q: i for i, q in enumerate(order)}
    max_deg = max(len(adj) for adj in m.adjacency)
    hubs = [cl for cl in range(m.num_cells) if len(m.adjacency[cl]) == max_deg]

    def seed(placed, free):
        # connected qubits precede isolated ones in degree order
        q = next(q for q in order if q not in placed)
        return [(q, _by_readout(m, free if placed else hubs)[0])]

    return _greedy_map(pg, m, t, seed, lambda q, _p: pos[q])


def greedy_edge_map(pg, m: GridMachine, t: DerivedTables) -> Placement:
    """Heaviest program edge onto the hardware edge with the best combined CNOT
    and readout reliability, then attach the endpoint of the heaviest edge into
    the placed set; a later component seeds its heaviest edge the same way."""
    edges = [e for e, _w in sorted(pg.edges.items(), key=lambda kv: (-kv[1], kv[0]))]
    edge_rank = {e: i for i, e in enumerate(edges)}

    def seed(placed, free):
        qa, qb = next(e for e in edges if e[0] not in placed and e[1] not in placed)
        best = None
        # each edge once, as (u, v) with u < v, in the calibration's edge order
        for (u, v), f in m.price_factors.items():
            if u > v or u not in free or v not in free:
                continue
            score = f[0] * (1.0 - m.qubits[u].readout_error) \
                * (1.0 - m.qubits[v].readout_error)
            if best is None or score > best[0] + 1e-15 \
                    or (abs(score - best[0]) <= 1e-15 and (u, v) < best[1:]):
                best = (score, u, v)
        if best is None:
            # no two free cells are adjacent: take the best free readout cells
            u, v = _by_readout(m, free)[:2]
        else:
            u, v = best[1:]
        return [(qa, u), (qb, v)]

    return _greedy_map(pg, m, t, seed, lambda q, p: edge_rank[min(q, p), max(q, p)])


# The exchange's limits: at most MAX_SWEEPS sweeps, and a move is applied
# only when it raises the objective by more than MIN_GAIN.
MAX_SWEEPS = 4
MIN_GAIN = 1e-12


def exchange(c: Circuit, m: GridMachine, ln: np.ndarray, cells, omega: float) -> tuple[int, ...]:
    """cells (by qubit id) refined by pairwise exchange, the classic local
    search for quadratic assignment (Burkard, Cela, Pardalos and Pitsoulis,
    1998), under the objective a best-path solution scores: omega times each
    readout's ln(1 - readout error) plus 1 - omega times each CNOT's ln
    best-path reliability from its control's cell to its target's, read from
    ln (an ln-columns array of the tables: ln[t, s] for the path s -> t).

    A sweep first finds each qubit's best move against the sweep's starting
    placement, onto a free cell or by swapping cells with another qubit,
    from element-wise numpy sums (no BLAS); ties go to the lowest cell. It
    then takes those moves by falling gain, ties by qubit, re-scores each
    exactly against the current placement and applies it if its gain is
    over MIN_GAIN; a gain that is not finite (a score that reads -inf or
    NaN) is never applied. At most MAX_SWEEPS sweeps run, fewer when one
    applies no move.
    """
    nq, n, w_cx = len(cells), m.num_cells, 1.0 - omega
    cells = list(cells)
    occupant = [-1] * n
    for q, cell in enumerate(cells):
        occupant[cell] = q
    # each CNOT's (control, target), and each qubit's readout weight
    cnots: list[tuple[int, int]] = []
    ro_w = [0.0] * nq
    cnot, measure = GateKind.CNOT, GateKind.MEASURE
    for _gid, kind, operands, _clbit in c.gates:
        if kind is cnot:
            cnots.append(operands)
        elif kind is measure:
            ro_w[operands[0]] += omega
    if not w_cx:
        cnots = []   # with omega 1 no CNOT term counts
    ro = [math.log(1.0 - hq.readout_error) for hq in m.qubits]
    outs: list[list[tuple[int, float]]] = [[] for _ in range(nq)]
    ins: list[list[tuple[int, float]]] = [[] for _ in range(nq)]
    both: dict[tuple[int, int], float] = {}   # by qubit pair, both directions' weight
    for (a, b), k in sorted(Counter(cnots).items()):
        w = w_cx * k
        outs[a].append((b, w))
        ins[b].append((a, w))
        key = (a, b) if a < b else (b, a)
        both[key] = both.get(key, 0.0) + w
    lnl = ln.tolist()

    def score(q: int, z: int) -> float:
        # q's terms with q on cell z and every other qubit where it is
        s = ro_w[q] * ro[z]
        for b, w in outs[q]:
            s += w * lnl[cells[b]][z]
        row = lnl[z]
        for a, w in ins[q]:
            s += w * row[cells[a]]
        return s

    def gain(q: int, y: int) -> float:
        # the objective's change when q moves to cell y, swapping with its
        # occupant; the pair's own terms read the diagonal's 0.0 in score
        x, r = cells[q], occupant[y]
        g = score(q, y) - score(q, x)
        if r >= 0:
            g += score(r, x) - score(r, y)
            w = both.get((q, r) if q < r else (r, q))
            if w:
                g += w * (lnl[x][y] + lnl[y][x])
        return g

    # the numpy side: field[q, y], q's terms with q on cell y and the rest in
    # place, sums one row of ln per CNOT at each end, by np.bincount, which
    # adds a bin's entries in CNOT order
    ends = np.array(cnots, dtype=np.intp).reshape(-1, 2)
    ctrl, tgt = ends[:, 0], ends[:, 1]
    span = np.arange(n)
    out_bins = (ctrl[:, None] * n + span).ravel()
    in_bins = (tgt[:, None] * n + span).ravel()
    ua, ub = np.array(list(both), dtype=np.intp).reshape(-1, 2).T
    uw = np.fromiter(both.values(), float, len(both))
    ro_q = np.flatnonzero(ro_w)
    ro_term = np.array(ro_w)[ro_q, None] * np.array(ro)
    rows = np.arange(nq)
    # an underflowed entry reads -inf, and -inf - -inf is a NaN gain, never applied
    with np.errstate(invalid="ignore"):
        for _ in range(MAX_SWEEPS):
            at = np.array(cells, dtype=np.intp)
            # as control, L[y, cell of target]; as target, L[cell of control, y]
            field = (np.bincount(out_bins, ln[at[tgt]].ravel(), nq * n)
                     + np.bincount(in_bins, ln.T[at[ctrl]].ravel(), nq * n)).reshape(nq, n)
            field = field * w_cx   # a float array even with no CNOT
            if ro_q.size:
                field[ro_q] += ro_term
            best = field - field[rows, at][:, None]   # a move's gain
            d = best[:, at]
            d = d + d.T                               # a swap's, less the pair's terms
            if uw.size:
                ca, cb = at[ua], at[ub]
                v = uw * (ln[cb, ca] + ln[ca, cb])
                d[ua, ub] += v
                d[ub, ua] += v
            d[rows, rows] = -math.inf
            best[:, at] = d
            to = best.argmax(axis=1)
            top = best[rows, to]
            cand = np.flatnonzero(top > MIN_GAIN)
            if not cand.size:
                break
            moved = False
            order = cand[np.lexsort((cand, -top[cand]))]
            for q, y in zip(order.tolist(), to[order].tolist()):
                x = cells[q]
                if y == x:
                    continue
                g = gain(q, y)
                if MIN_GAIN < g < math.inf:   # a NaN fails both
                    r = occupant[y]
                    cells[q], occupant[y], occupant[x] = y, q, r
                    if r >= 0:
                        cells[r] = x
                    moved = True
            if not moved:
                break
    return tuple(cells)


def compile_with_placement(c: Circuit, m: GridMachine, t: DerivedTables,
                           cells: tuple[int, ...], cfg: HeuristicConfig,
                           variant_label: str) -> Solution:
    """The placement cells (by qubit id) refined by exchange, then best-path
    routing and earliest-ready scheduling, under cfg with variant_label as its
    policy; ValueError unless it names a GreedyPolicy, or if two qubits share
    a cell. The paper's plain greedy, unrefined, is build_solution on the
    mapper's cells with each CNOT's best_paths walk."""
    cfg = replace(cfg, policy=variant_label)
    if len(set(cells)) < len(cells):
        raise ValueError(f"placement {tuple(cells)} puts two qubits on one cell")
    if cfg.count_return_swaps:
        bp, ln = t.best_paths_return, t.ln_best_paths_return
    else:
        bp, ln = t.best_paths, t.ln_best_paths
    cells = exchange(c, m, ln, cells, cfg.omega)
    walks = [bp[(cells[g.operands[0]], cells[g.operands[1]])][0] for g in c.cnot_gates()]
    return build_solution(c, m, cfg, cells, walks, optimal=False)


def heuristic_compile(c: Circuit, m: GridMachine, t: DerivedTables,
                      cfg: HeuristicConfig) -> Solution:
    """Greedy placement, fixed best-reliability routes, earliest-ready schedule."""
    # checked before the program graph allocates per declared qubit
    if c.num_qubits > m.num_cells:
        raise ValueError(f"{c.num_qubits} program qubits exceed {m.num_cells} hardware cells")
    pg = build_program_graph(c)
    if cfg.policy is GreedyPolicy.VERTEX:
        p = greedy_vertex_map(pg, m, t)
    else:
        p = greedy_edge_map(pg, m, t)
    cells = tuple(m.cell_id(p.loc[q]) for q in range(c.num_qubits))
    return compile_with_placement(c, m, t, cells, cfg, cfg.policy.value)
