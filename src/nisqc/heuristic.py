"""Greedy calibration-aware mappers: degree-ordered vertex placement, weight-
ordered edge placement, and the shared best-path compile pipeline."""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum

from .circuit import Circuit, build_program_graph
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
    # per anchor cell, the log best-path reliability from each cell free when
    # it first anchors; cells only leave the free list, so it stays complete
    cols: dict[int, list[float]] = {}

    def column(anchor: int) -> list[float]:
        col = cols.get(anchor)
        if col is None:
            col = cols[anchor] = [0.0] * m.num_cells
            for cell in free:
                r = t.best_paths[(cell, anchor)][1]
                if r <= 0.0:
                    raise ValueError(f"best-path reliability from cell {cell} to cell "
                                     f"{anchor} underflowed to {r!r}")
                col[cell] = math.log(r)
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


def compile_with_placement(c: Circuit, m: GridMachine, t: DerivedTables,
                           cells: tuple[int, ...], cfg: HeuristicConfig,
                           variant_label: str) -> Solution:
    """Best-path routing + earliest-ready scheduling for a fixed placement, under
    cfg with variant_label as its policy; ValueError unless it names a GreedyPolicy."""
    cfg = replace(cfg, policy=variant_label)
    bp = t.best_paths_return if cfg.count_return_swaps else t.best_paths
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
