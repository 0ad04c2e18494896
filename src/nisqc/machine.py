"""Grid hardware model: calibration ingest plus the derived tables the mappers consume."""

from __future__ import annotations

import heapq
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

# Fallbacks when the calibration document's defaults section is silent.
_LIB_DEFAULTS = {
    "t2": 1000,
    "readout_error": 0.07,
    "readout_duration": 12,
    "cnot_error": 0.04,
    "cnot_duration": 2,
    "single_qubit_duration": 1,
    "single_qubit_error": 0.001,
    "static_tau_cnot": 2,
    "static_coherence_bound": 1000,
}


# The most cells a grid may have: the tables grow about as cells**2, and
# a process that builds them at 20x20 peaks at 205 MiB (Python 3.11.7).
MAX_CELLS = 400


class CalibrationError(ValueError):
    """Calibration document rejected."""


def check_grid_size(mx: int, my: int) -> None:
    """Refuse, before anything is allocated, a side below 1 or over MAX_CELLS cells."""
    if mx < 1 or my < 1 or mx * my > MAX_CELLS:
        raise CalibrationError(f"grid {mx}x{my} must be at least 1x1 and at most {MAX_CELLS} cells")


@dataclass(frozen=True)
class HardwareQubit:
    t2: int
    readout_error: float
    readout_duration: int


@dataclass(eq=False)
class GridMachine:
    mx: int
    my: int
    qubits: list[HardwareQubit]
    # The machine's one record of an edge: (r, r**3, r**6, cnot_duration),
    # r = 1 - cnot_error, one tuple keyed by both (u, v) and (v, u).
    price_factors: dict[tuple[int, int], tuple[float, float, float, int]]
    single_qubit_duration: int
    static_tau_cnot: int
    static_coherence_bound: int

    def __post_init__(self):
        self.num_cells = self.mx * self.my
        self.adjacency: list[list[int]] = [[] for _ in range(self.num_cells)]
        for a, b in self.price_factors:
            self.adjacency[a].append(b)
        for nbrs in self.adjacency:
            nbrs.sort()

    def cell_id(self, pos: tuple[int, int]) -> int:
        return pos[0] * self.my + pos[1]

    def pos(self, cell: int) -> tuple[int, int]:
        return divmod(cell, self.my)


@dataclass(frozen=True)
class DerivedTables:
    """build_tables' plain lists and dicts and two read-only arrays, which
    every reader shares and none writes."""
    delta: list[list[int]] = field(repr=False)
    cnot_rel: dict[tuple[int, int, int], float] = field(repr=False)
    cnot_dur: dict[tuple[int, int, int], int] = field(repr=False)
    cnot_rel_return: dict[tuple[int, int, int], float] = field(repr=False)
    junctions: dict[tuple[int, int], tuple[int, ...]] = field(repr=False)
    best_paths: dict[tuple[int, int], tuple[tuple[int, ...], float]] = field(repr=False)
    best_paths_return: dict[tuple[int, int], tuple[tuple[int, ...], float]] = field(repr=False)
    # ln columns: row t holds, by source s, math.log of best_paths[(s, t)]'s
    # reliability (best_paths_return's in the second); 0.0 at s == t, and
    # -inf where the reliability underflowed to 0.0
    ln_best_paths: np.ndarray = field(repr=False, compare=False)
    ln_best_paths_return: np.ndarray = field(repr=False, compare=False)


def manhattan(a: tuple[int, int], b: tuple[int, int]) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def static_cnot_duration(d: int, m: GridMachine) -> int:
    """Duration in timeslots of a distance-d CNOT under the machine-wide
    constants: d - 1 SWAPs there and back, 3 CNOTs each, then the CNOT."""
    if d < 1:
        raise ValueError("CNOT endpoints mapped to the same cell (distance 0)")
    return (6 * (d - 1) + 1) * m.static_tau_cnot


def _probability(value, name: str) -> float:
    if isinstance(value, (bool, str)) or not 0.0 <= value < 1.0:
        raise CalibrationError(f"{name} = {value!r} is not a number in [0, 1)")
    return float(value)


def _integer(value, name: str) -> int:
    # A JSON integer: an integral float such as 12.0 is one; 2.7, "2" and true are not.
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise CalibrationError(f"{name} = {value!r} is not an integer")


def _duration(value, name: str) -> int:
    d = _integer(value, name)
    if d < 1:
        raise CalibrationError(f"{name} = {d} must be a positive timeslot count")
    return d


def load_calibration(doc) -> GridMachine:
    """Build a GridMachine from a calibration document (dict or JSON text).

    Every grid-adjacent pair gets an edge; the document's qubit and edge
    entries override the defaults section, which overrides library defaults.
    Raises CalibrationError for any document it cannot read, a malformed
    entry (a missing key, a value of the wrong type) included.
    """
    try:
        return _machine_from_doc(json.loads(doc) if isinstance(doc, str) else doc)
    except CalibrationError:
        raise
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise CalibrationError(f"malformed calibration: {type(exc).__name__}: {exc}") from exc


def _machine_from_doc(doc) -> GridMachine:
    if not isinstance(doc, dict) or "grid" not in doc:
        raise CalibrationError("calibration document needs a grid section")
    mx, my = _integer(doc["grid"]["mx"], "mx"), _integer(doc["grid"]["my"], "my")
    check_grid_size(mx, my)

    dft = dict(_LIB_DEFAULTS)
    dft.update(doc.get("defaults", {}))
    t2_d = _duration(dft["t2"], "t2")
    ro_err_d = _probability(dft["readout_error"], "readout_error")
    ro_dur_d = _duration(dft["readout_duration"], "readout_duration")
    cx_err_d = _probability(dft["cnot_error"], "cnot_error")
    cx_dur_d = _duration(dft["cnot_duration"], "cnot_duration")

    qubit_over: dict[tuple[int, int], dict] = {}
    for entry in doc.get("qubits", []):
        pos = (_integer(entry["x"], "x"), _integer(entry["y"], "y"))
        if not (0 <= pos[0] < mx and 0 <= pos[1] < my):
            raise CalibrationError(f"qubit cell {pos} outside {mx}x{my} grid")
        if pos in qubit_over:
            raise CalibrationError(f"duplicate qubit cell {pos}")
        qubit_over[pos] = entry

    qubits = []
    for x in range(mx):
        for y in range(my):
            over = qubit_over.get((x, y), {})
            qubits.append(HardwareQubit(
                t2=_duration(over.get("t2", t2_d), "t2"),
                readout_error=_probability(over.get("readout_error", ro_err_d), "readout_error"),
                readout_duration=_duration(over.get("readout_duration", ro_dur_d), "readout_duration"),
            ))

    edge_over: dict[tuple[int, int], dict] = {}
    for entry in doc.get("edges", []):
        a = (_integer(entry["a"][0], "a"), _integer(entry["a"][1], "a"))
        b = (_integer(entry["b"][0], "b"), _integer(entry["b"][1], "b"))
        for pos in (a, b):
            if not (0 <= pos[0] < mx and 0 <= pos[1] < my):
                raise CalibrationError(f"edge endpoint {pos} outside {mx}x{my} grid")
        if manhattan(a, b) != 1:
            raise CalibrationError(f"edge between non-adjacent cells {a}, {b}")
        key = tuple(sorted((a[0] * my + a[1], b[0] * my + b[1])))
        if key in edge_over:
            raise CalibrationError(f"duplicate edge {a}, {b}")
        edge_over[key] = entry

    factors: dict[tuple[int, int], tuple[float, float, float, int]] = {}
    for x in range(mx):
        for y in range(my):
            a = x * my + y
            for nx, ny in ((x + 1, y), (x, y + 1)):
                if nx >= mx or ny >= my:
                    continue
                b = nx * my + ny
                over = edge_over.get((a, b), {})
                r = 1.0 - _probability(over.get("cnot_error", cx_err_d), "cnot_error")
                d = _duration(over.get("cnot_duration", cx_dur_d), "cnot_duration")
                factors[a, b] = factors[b, a] = (r, r ** 3, r ** 6, d)

    tau_cnot = _duration(dft["static_tau_cnot"], "static_tau_cnot")
    sq_dur = _duration(dft["single_qubit_duration"], "single_qubit_duration")
    _probability(dft["single_qubit_error"], "single_qubit_error")   # checked, not stored
    return GridMachine(
        mx=mx, my=my, qubits=qubits, price_factors=factors,
        single_qubit_duration=sq_dur, static_tau_cnot=tau_cnot,
        static_coherence_bound=_duration(dft["static_coherence_bound"], "static_coherence_bound"),
    )


def _straight_cells(m: GridMachine, a: tuple[int, int], b: tuple[int, int]) -> list[int]:
    # Inclusive cell walk along one axis; a and b share a row or column.
    if a[0] == b[0]:
        step = 1 if b[1] >= a[1] else -1
        return [m.cell_id((a[0], y)) for y in range(a[1], b[1] + step, step)]
    step = 1 if b[0] >= a[0] else -1
    return [m.cell_id((x, a[1])) for x in range(a[0], b[0] + step, step)]


def route_cells(m: GridMachine, c: int, t: int, junction: int) -> tuple[int, ...]:
    """Vertex sequence of the single-bend route c -> junction -> t (cell ids)."""
    cp, tp, jp = m.pos(c), m.pos(t), m.pos(junction)
    first = _straight_cells(m, cp, jp)
    second = _straight_cells(m, jp, tp)
    return tuple(first + second[1:])


def cnot_walk(m: GridMachine, a: int, b: int, junction: int) -> tuple[int, ...]:
    """The CNOT a -> b's walk along the route through junction: its cells in
    walk order, the moving qubit's first and the CNOT edge last. The faster
    walk (see price_walk) runs its CNOT over the slower end edge; on a tie
    the control walks."""
    route = route_cells(m, a, b, junction)
    first = m.price_factors[route[0], route[1]][3]
    last = m.price_factors[route[-2], route[-1]][3]
    return route[::-1] if first > last else route


def price_walk(m: GridMachine, walk, static: bool = False) -> tuple[list[int], float, float]:
    """The one rule that prices a routed CNOT walking the given cells: each
    hop's duration in timeslots, and the CNOT's success probability without
    and with its return swaps counted.

    The last hop carries the CNOT itself; every earlier hop carries a 3-CNOT
    forward swap and, with return swaps, a 3-CNOT swap back. So the walk
    lasts 6 * sum(hops[:-1]) + hops[-1], and its reliabilities multiply, in
    walk order, r**3 (r**6) per swap hop and r on the CNOT hop, r = 1 -
    cnot_error, each read from m.price_factors. The static model charges the
    machine-wide tau on every hop. Raises ValueError for a walk of fewer than
    two cells or off an edge.
    """
    if len(walk) < 2:
        raise ValueError("path needs at least one edge")
    factors, tau = m.price_factors, m.static_tau_cnot
    hops: list[int] = []
    route = strict = 1.0
    r = None   # the last hop's; a hop is a swap hop once another follows it
    for u, v in zip(walk, walk[1:]):
        if r is not None:
            route *= r3
            strict *= r6
        f = factors.get((u, v))
        if f is None:
            raise ValueError(f"cells {u} and {v} not adjacent")
        r, r3, r6, d = f
        hops.append(tau if static else d)
    return hops, route * r, strict * r


def _ln(rel: list[float]):
    # math.log of each reliability, as an iterator; -inf for one that
    # underflowed to 0.0, where math.log would raise
    if 0.0 in rel:
        return (math.log(v) if v > 0.0 else -math.inf for v in rel)
    return map(math.log, rel)


def _best_paths(m: GridMachine, pair: list[list[tuple[int, int]]]) -> tuple[dict, ...]:
    # Most-reliable simple path per ordered pair, keyed by pair[t][s], at
    # swap exponents 3 and 6, priced by m.price_factors. One Dijkstra per
    # source s weighs the swap edges; target t closes at its first neighbour
    # u, in adjacency order, that beats the best so far by more than 1e-15,
    # skipping a u whose tree path passes through t (with positive errors it
    # loses to t's tree parent). 2.0 * dist is exactly the exponent-6
    # distance. Each settled cell's walk and its r**3 and r**6 products (in
    # walk order, as price_walk) extend its parent's, in per-source lists.
    # Heap entries stay (dist, cell, parent): entries that also carried the
    # hop's factors saved little and raised recal-evaluate's gen-0
    # collections during verify from 0.29 to 0.37 per op.
    # Entries are made target by target from [t][s] lists, so one target's
    # lie together in memory: the greedy mappers read many sources' paths to
    # one. Each entry's value tuple and closing product are made in that
    # last pass for the same reason (its key, in pair, was made target by
    # target too); made in the per-source loop, the same tables cost
    # greedy-scale 7-8% of its ops per second. A target's scratch rows go as
    # soon as its entries are made, which keeps the build's peak near the
    # finished tables' size. That pass also lists every reliability, target
    # by target with the diagonal's 1.0, and the ln columns are their logs,
    # taken straight into one array so that no float object outlives its log.
    n, fac = m.num_cells, m.price_factors
    adj = [[(w_, 3 * -math.log(fac[(v, w_)][0])) for w_ in m.adjacency[v]] for v in range(n)]
    close = [[(u, -math.log(fac[(u, t)][0]), fac[(u, t)][0]) for u in m.adjacency[t]]
             for t in range(n)]
    path3, p3s, r3s, path6, p6s, r6s = ([[None] * n for _ in range(n)] for _ in range(6))
    for rows in (p3s, r3s, p6s, r6s):
        for t in range(n):
            rows[t][t] = 1.0
    for s in range(n):
        dist, cells, p3, p6 = [math.inf] * n, [None] * n, [1.0] * n, [1.0] * n
        dist[s], cells[s] = 0.0, (s,)
        heap = [(0.0, s, s)]
        while heap:
            d, v, p = heapq.heappop(heap)
            if d > dist[v]:
                continue
            if v != s:
                _, r3, r6, _ = fac[(p, v)]
                cells[v], p3[v], p6[v] = cells[p] + (v,), p3[p] * r3, p6[p] * r6
            for w_, wt in adj[v]:
                nd = d + wt
                if nd < dist[w_]:
                    dist[w_] = nd
                    heapq.heappush(heap, (nd, w_, v))
        for t in range(n):
            if t == s:
                continue
            best3 = best6 = math.inf
            for u, w, r in close[t]:
                if t in cells[u]:
                    continue
                cost3, cost6 = dist[u] + w, 2.0 * dist[u] + w
                if cost3 < best3 - 1e-15:
                    best3, via3, r3s[t][s] = cost3, u, r
                if cost6 < best6 - 1e-15:
                    best6, via6, r6s[t][s] = cost6, u, r
            # both exponents almost always close at the same u: one walk
            path3[t][s] = path6[t][s] = cells[via3] + (t,)
            if via6 != via3:
                path6[t][s] = cells[via6] + (t,)
            p3s[t][s], p6s[t][s] = p3[via3], p6[via6]
    table3, table6, rels3, rels6 = {}, {}, [], []
    for t in range(n):
        keys, paths3, paths6 = pair[t], path3[t], path6[t]
        rel3 = list(map(operator.mul, p3s[t], r3s[t]))
        rel6 = list(map(operator.mul, p6s[t], r6s[t]))
        for s in range(n):
            if s != t:
                key = keys[s]
                table3[key] = (paths3[s], rel3[s])
                table6[key] = (paths6[s], rel6[s])
        rels3 += rel3
        rels6 += rel6
        path3[t] = p3s[t] = r3s[t] = path6[t] = p6s[t] = r6s[t] = None
    ln3 = np.fromiter(_ln(rels3), float, n * n).reshape(n, n)
    ln6 = np.fromiter(_ln(rels6), float, n * n).reshape(n, n)
    ln3.flags.writeable = ln6.flags.writeable = False
    return table3, table6, ln3, ln6


def _rays(m: GridMachine) -> list[list[list[tuple[int, float, float, float, int]]]]:
    # rays[a][k]: the hops from cell a straight to the grid's edge along
    # direction k (+x, -x, +y, -y), nearest first, each (cell, r, r**3,
    # r**6, d) from m.price_factors. A ray is its first hop followed by the
    # next cell's ray, so each is built from the far end.
    n, mx, my, fac = m.num_cells, m.mx, m.my, m.price_factors
    rays = [[[], [], [], []] for _ in range(n)]
    columns = [range(y, n, my) for y in range(my)]          # lines along x
    rows = [range(x * my, (x + 1) * my) for x in range(mx)]  # lines along y
    for k, lines in enumerate((columns, columns, rows, rows)):
        for line in lines:
            line = line if k % 2 else line[::-1]   # the far end first
            ray = []
            for b, a in zip(line, line[1:]):
                ray = [(b, *fac[(a, b)])] + ray
                rays[a][k] = ray
    return rays


# The order the sweep runs its straight legs in (rays' directions), each
# with the two directions its bent legs take, in the order they run.
_SWEEP = ((3, (0, 1)), (2, (1, 0)), (1, (2, 3)), (0, (3, 2)))


def canonical_junction(t: DerivedTables, a: int, b: int) -> int:
    """Junction whose route walks fastest (either direction); ties pick the lower cell."""
    return min(t.junctions[(a, b)], key=lambda j: (t.cnot_dur[(a, b, j)], j))


def build_tables(m: GridMachine) -> DerivedTables:
    """Precompute everything the mappers look up per hardware-cell pair.

    One sweep per source cell prices every one-bend walk that starts there:
    it runs out along the cell's row and column and turns at each corner onto
    the other axis along rays (each cell's hops to the grid's edge, built
    once per call from the machine's price_factors), carrying running
    products of r, r**3 and r**6 and a running duration sum in walk order, so
    every entry is bitwise the price_walk of its cnot_walk; delta, the least
    duration over a pair's junctions, is kept as the sweep writes them. One
    best-path search per source cell serves both swap exponents: each cell's
    walk and its products grow along the search tree, an entry is that walk
    closed at a target's neighbour, and both tables share the walk whenever
    both exponents close at the same neighbour. junctions and both best-path
    tables share one key tuple per ordered pair, a two-corner junction too.
    The last pass of that search also keeps the ln of every best-path
    reliability, per target, in the ln columns the mappers score with.
    """
    n, rays = m.num_cells, _rays(m)
    # pair[t][s] is the key (s, t), made once, target by target
    pair = [[(s, t) for s in range(n)] for t in range(n)]
    junctions, cnot_rel, cnot_dur, cnot_rel_return = {}, {}, {}, {}
    # delta[c][t], the least cnot_dur over (c, t)'s junctions, kept as written
    delta = [[0 if c == t else math.inf for t in range(n)] for c in range(n)]
    # A leg walks a ray from its corner with the running state of the walk
    # from s. Each cell e it reaches ends the walk s -> corner -> e; a
    # straight walk turns at every cell it reaches. The walk is cnot_walk of
    # (s, e, .) unless its first edge is the slower end edge, and also of
    # (e, s, .) when its last edge is the slower one.
    for s in range(n):
        delta_s, rays_s = delta[s], rays[s]
        for k, bends in _SWEEP:
            ray = rays_s[k]
            if not ray:
                continue
            first = ray[0][4]   # the duration of every walk's first hop
            p3 = p6 = 1.0
            dsum = 0
            corners = []
            for e, r, r3, r6, d in ray:
                rel, ret, dur = p3 * r, p6 * r, 6 * dsum + d
                if first <= d:
                    key = (s, e, s)
                    cnot_rel[key], cnot_rel_return[key], cnot_dur[key] = rel, ret, dur
                    if dur < delta_s[e]:
                        delta_s[e] = dur
                if d > first:
                    key = (e, s, e)
                    cnot_rel[key], cnot_rel_return[key], cnot_dur[key] = rel, ret, dur
                    if dur < delta[e][s]:
                        delta[e][s] = dur
                p3, p6, dsum = p3 * r3, p6 * r6, dsum + d
                junctions[pair[e][s]] = (s,)
                corners.append((e, p3, p6, dsum))
            for c, p3c, p6c, dsumc in reversed(corners):
                for b in bends:
                    p3, p6, dsum = p3c, p6c, dsumc
                    for e, r, r3, r6, d in rays[c][b]:
                        rel, ret, dur = p3 * r, p6 * r, 6 * dsum + d
                        if first <= d:
                            key = (s, e, c)
                            cnot_rel[key], cnot_rel_return[key], cnot_dur[key] = rel, ret, dur
                            if dur < delta_s[e]:
                                delta_s[e] = dur
                        if d > first:
                            key = (e, s, c)
                            cnot_rel[key], cnot_rel_return[key], cnot_dur[key] = rel, ret, dur
                            if dur < delta[e][s]:
                                delta[e][s] = dur
                        p3, p6, dsum = p3 * r3, p6 * r6, dsum + d
                        if b > 1:
                            # the leg along y turned off x, so the other
                            # corner is as far from s as e is from c
                            o = e - c + s
                            junctions[pair[e][s]] = pair[o][c] if c < o else pair[c][o]
    best_paths, best_paths_return, ln_best, ln_best_return = _best_paths(m, pair)
    return DerivedTables(
        delta=delta, cnot_rel=cnot_rel, cnot_dur=cnot_dur,
        cnot_rel_return=cnot_rel_return, junctions=junctions,
        best_paths=best_paths, best_paths_return=best_paths_return,
        ln_best_paths=ln_best, ln_best_paths_return=ln_best_return)


def synth_calibration(mx: int, my: int, seed: int, *,
                      t2: int = 1000,
                      readout_error: float = 0.07, readout_sigma: float = 0.02,
                      cnot_error: float = 0.04, cnot_sigma: float = 0.015,
                      jitter_durations: bool = False) -> dict:
    """Seeded synthetic calibration document mimicking day-to-day drift."""
    check_grid_size(mx, my)
    if t2 < 1:
        raise ValueError(f"t2 = {t2} must be a positive timeslot count")
    rng = np.random.default_rng(seed)
    doc = {
        "grid": {"mx": mx, "my": my},
        "defaults": {"t2": t2, "readout_duration": 12,
                     "single_qubit_duration": 1, "single_qubit_error": 0.001,
                     "static_tau_cnot": 2, "static_coherence_bound": t2},
        "qubits": [],
        "edges": [],
    }
    for x in range(mx):
        for y in range(my):
            err = float(np.clip(rng.normal(readout_error, readout_sigma), 0.005, 0.25))
            jit = int(rng.integers(-t2 // 10, t2 // 10 + 1))
            doc["qubits"].append({"x": x, "y": y, "t2": max(2, t2 + jit),
                                  "readout_error": round(err, 6)})
    for x in range(mx):
        for y in range(my):
            for nx, ny in ((x + 1, y), (x, y + 1)):
                if nx >= mx or ny >= my:
                    continue
                err = float(np.clip(rng.normal(cnot_error, cnot_sigma), 0.002, 0.3))
                dur = int(rng.integers(2, 5)) if jitter_durations else 2
                doc["edges"].append({"a": [x, y], "b": [nx, ny],
                                     "cnot_error": round(err, 6), "cnot_duration": dur})
    return doc
