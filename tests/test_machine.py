"""Hardware model: calibration loading, distance/duration formulas, derived tables."""

import gc
import hashlib
import heapq
import itertools
import math
import random

import numpy as np
import pytest

from nisqc.machine import (
    MAX_CELLS,
    CalibrationError,
    build_tables,
    canonical_junction,
    cnot_walk,
    load_calibration,
    manhattan,
    price_walk,
    route_cells,
    static_cnot_duration,
    synth_calibration,
)
from nisqc.schedule import Routing, walk_cost


def path_reliability(walk, m, count_return_swaps=False):
    """price_walk's reliability of the walk, with return swaps counted if asked."""
    return price_walk(m, walk)[1 + count_return_swaps]


def one_bend_junctions(c: tuple[int, int], t: tuple[int, int]) -> list[tuple[int, int]]:
    """Oracle for the one-bend junction table: the corner cells of the 1 or 2
    axis-aligned single-bend routes from c to t."""
    if c == t:
        raise ValueError("no route between identical cells")
    if c[0] == t[0] or c[1] == t[1]:
        return [c]
    return [(c[0], t[1]), (t[0], c[1])]


def walk_duration(m, walk, static=False):
    """Timeslots to walk a route, from price_walk's hops: 6x each swap hop
    (there and back), 1x the final CNOT hop."""
    hops = price_walk(m, walk, static)[0]
    return 6 * sum(hops[:-1]) + hops[-1]


def uniform_doc(mx, my, cnot_error=0.1, readout_error=0.07, cnot_duration=2, t2=1000):
    return {"grid": {"mx": mx, "my": my},
            "defaults": {"cnot_error": cnot_error, "readout_error": readout_error,
                         "cnot_duration": cnot_duration, "t2": t2,
                         "static_tau_cnot": cnot_duration}}


@pytest.fixture(scope="module")
def m33():
    return load_calibration(uniform_doc(3, 3))


def all_simple_paths(m, s, t):
    """Exhaustive DFS enumeration; oracle for the best-path table."""
    stack = [(s, (s,))]
    while stack:
        v, path = stack.pop()
        if v == t:
            yield path
            continue
        for w in m.adjacency[v]:
            if w not in path:
                stack.append((w, path + (w,)))


class TestLoadCalibration:
    def test_grid_2x8_edge_count(self):
        m = load_calibration(uniform_doc(2, 8))
        assert len(m.qubits) == 16
        assert len(m.edges) == 22

    def test_probability_out_of_range(self):
        doc = uniform_doc(2, 2)
        doc["edges"] = [{"a": [0, 0], "b": [0, 1], "cnot_error": 1.2}]
        with pytest.raises(CalibrationError, match="cnot_error"):
            load_calibration(doc)

    def test_mean_errors_match_defaults(self):
        m = load_calibration(uniform_doc(4, 4, cnot_error=0.04, readout_error=0.07))
        assert np.isclose(np.mean([e.cnot_error for e in m.edges]), 0.04)
        assert np.isclose(np.mean([q.readout_error for q in m.qubits]), 0.07)

    def test_duplicate_cell(self):
        doc = uniform_doc(2, 2)
        doc["qubits"] = [{"x": 0, "y": 0, "t2": 10}, {"x": 0, "y": 0, "t2": 20}]
        with pytest.raises(CalibrationError, match="duplicate"):
            load_calibration(doc)

    def test_non_adjacent_edge(self):
        doc = uniform_doc(2, 2)
        doc["edges"] = [{"a": [0, 0], "b": [1, 1], "cnot_error": 0.1}]
        with pytest.raises(CalibrationError, match="non-adjacent"):
            load_calibration(doc)

    @pytest.mark.parametrize("key,entries,message", [
        ("defaults", {"cnot_duration": 0}, "cnot_duration = 0 must be a positive timeslot count"),
        ("qubits", [{"x": 2, "y": 0, "t2": 10}], "qubit cell (2, 0) outside 2x2 grid"),
        ("edges", [{"a": [0, 1], "b": [0, 2], "cnot_error": 0.1}],
         "edge endpoint (0, 2) outside 2x2 grid"),
        ("edges", [{"a": [0, 0], "b": [0, 1], "cnot_error": 0.1},
                   {"a": [0, 1], "b": [0, 0], "cnot_error": 0.2}],
         "duplicate edge (0, 1), (0, 0)"),
    ], ids=["zero-cnot-duration", "qubit-off-grid", "edge-endpoint-off-grid", "duplicate-edge"])
    def test_refused_entries_are_named(self, key, entries, message):
        doc = uniform_doc(2, 2)
        if key == "defaults":
            doc["defaults"].update(entries)
        else:
            doc[key] = entries
        with pytest.raises(CalibrationError) as info:
            load_calibration(doc)
        assert str(info.value) == message

    def test_overrides_apply(self):
        doc = uniform_doc(2, 2)
        doc["qubits"] = [{"x": 1, "y": 1, "readout_error": 0.2}]
        doc["edges"] = [{"a": [0, 0], "b": [0, 1], "cnot_error": 0.25, "cnot_duration": 4}]
        m = load_calibration(doc)
        assert m.qubits[m.cell_id((1, 1))].readout_error == 0.2
        assert m.qubits[0].readout_error == 0.07
        e = m.edge_between(0, 1)
        assert e.cnot_error == 0.25 and e.cnot_duration == 4

    def test_grid_at_the_cap_accepted(self):
        assert load_calibration(uniform_doc(1, MAX_CELLS)).num_cells == 400

    def test_grid_over_the_cap_refused(self):
        with pytest.raises(CalibrationError, match="grid 1x401 must be at least 1x1 and at most 400 cells"):
            load_calibration(uniform_doc(1, MAX_CELLS + 1))

    def test_json_text_accepted(self):
        import json
        m = load_calibration(json.dumps(uniform_doc(2, 3)))
        assert m.mx == 2 and m.my == 3


class TestGeometry:
    def test_manhattan(self):
        assert manhattan((0, 0), (0, 1)) == 1
        assert manhattan((0, 0), (2, 3)) == 5
        assert manhattan((1, 2), (1, 2)) == 0

    def test_one_bend_corners(self):
        assert set(one_bend_junctions((0, 0), (1, 2))) == {(0, 2), (1, 0)}

    def test_one_bend_colinear(self):
        assert one_bend_junctions((0, 0), (0, 3)) == [(0, 0)]
        assert one_bend_junctions((0, 0), (0, 1)) == [(0, 0)]

    def test_one_bend_same_cell(self):
        with pytest.raises(ValueError):
            one_bend_junctions((1, 1), (1, 1))

    def test_route_cells(self, m33):
        c, t = m33.cell_id((0, 0)), m33.cell_id((1, 2))
        via_top = route_cells(m33, c, t, m33.cell_id((0, 2)))
        assert [m33.pos(x) for x in via_top] == [(0, 0), (0, 1), (0, 2), (1, 2)]
        via_bot = route_cells(m33, c, t, m33.cell_id((1, 0)))
        assert [m33.pos(x) for x in via_bot] == [(0, 0), (1, 0), (1, 1), (1, 2)]


class TestStaticDuration:
    def test_formula_table(self):
        m = load_calibration(uniform_doc(3, 3, cnot_duration=2))
        assert [static_cnot_duration(d, m) for d in range(1, 6)] == [2, 14, 26, 38, 50]

    def test_formula_is_a_straight_walks_static_cost(self):
        # a SWAP is three CNOTs at static_tau_cnot, whatever the edges take
        m = load_calibration(synth_calibration(4, 5, 3, jitter_durations=True))
        for a, b in itertools.permutations(range(m.num_cells), 2):
            pa, pb = m.pos(a), m.pos(b)
            if pa[0] == pb[0] or pa[1] == pb[1]:
                walk = route_cells(m, a, b, a)
                for routing in (Routing.RR.value, Routing.ONE_BEND.value):
                    assert walk_cost(m, walk, routing, True)[0] == \
                        static_cnot_duration(manhattan(pa, pb), m), walk

    def test_distance_zero_rejected(self):
        m = load_calibration(uniform_doc(2, 2))
        with pytest.raises(ValueError):
            static_cnot_duration(0, m)


class TestPathReliability:
    def test_one_swap_footnote_value(self, m33):
        path = (0, 1, 2)
        assert path_reliability(path, m33) == pytest.approx(0.6561, abs=1e-12)

    def test_adjacent(self, m33):
        assert path_reliability((0, 1), m33) == pytest.approx(0.9, abs=1e-12)

    def test_return_flag(self, m33):
        path = (0, 1, 2)
        got = path_reliability(path, m33, count_return_swaps=True)
        assert got == pytest.approx(0.4782969, abs=1e-12)

    def test_non_adjacent_rejected(self, m33):
        with pytest.raises(ValueError, match="not adjacent"):
            path_reliability((0, 5), m33)


def reference_price(m, walk, static=False):
    """price_walk hop by hop, in walk order: each hop's duration (tau under
    the static model), and r**3 and r**6 on a swap hop, r on the CNOT hop,
    multiplied into the two products, r = 1 - cnot_error."""
    if len(walk) < 2:
        raise ValueError("path needs at least one edge")
    hops, route, strict = [], 1.0, 1.0
    for i in range(len(walk) - 1):
        u, v = walk[i], walk[i + 1]
        e = m.edge_map.get((min(u, v), max(u, v)))
        if e is None:
            raise ValueError(f"cells {u} and {v} not adjacent")
        hops.append(m.static_tau_cnot if static else e.cnot_duration)
        r = 1.0 - e.cnot_error
        if i == len(walk) - 2:
            route, strict = route * r, strict * r
        else:
            route, strict = route * r ** 3, strict * r ** 6
    return hops, route, strict


def random_walk(m, rng, hops):
    """A simple walk of `hops` hops from a random cell, or shorter where it
    runs out of unvisited neighbours."""
    walk = [rng.randrange(m.num_cells)]
    while len(walk) <= hops:
        nxt = [w for w in m.adjacency[walk[-1]] if w not in walk]
        if not nxt:
            break
        walk.append(rng.choice(nxt))
    return tuple(walk)


class TestPriceWalkOracle:
    """price_walk, the one rule that prices a routed CNOT, against the
    per-hop reference, bit for bit."""

    @pytest.mark.parametrize("kind", ["plain", "jittered", "all-zero"])
    def test_seeded_walks_match_the_reference(self, kind):
        rng = random.Random(f"walks-{kind}")
        walks = off_edge = 0
        for shape in ((1, 9), (2, 8), (3, 3), (4, 4), (3, 5)):
            doc = jittered_doc(*shape, sum(shape), jitter_durations=kind == "jittered")
            if kind == "all-zero":
                for e in doc["edges"]:
                    e["cnot_error"] = 0.0
            m = load_calibration(doc)
            for _ in range(100):
                walk = random_walk(m, rng, rng.randint(1, 8))
                for static in (False, True):
                    hops, route, strict = price_walk(m, walk, static)
                    want = reference_price(m, walk, static)
                    assert hops == want[0] and all(type(h) is int for h in hops)
                    assert (route.hex(), strict.hex()) == (want[1].hex(), want[2].hex())
                walks += 1
                # a jump to a cell off the last one's edges, somewhere along the walk
                i = rng.randrange(1, len(walk) + 1)
                far = [x for x in range(m.num_cells) if x not in m.adjacency[walk[i - 1]]]
                bad = walk[:i] + (rng.choice(far),) + walk[i:]
                with pytest.raises(ValueError) as want_exc:
                    reference_price(m, bad)
                with pytest.raises(ValueError) as got_exc:
                    price_walk(m, bad)
                assert str(got_exc.value) == str(want_exc.value)
                assert "not adjacent" in str(got_exc.value)
                off_edge += 1
            for cell in range(m.num_cells):
                for walk in ((cell,), ()):
                    with pytest.raises(ValueError, match="at least one edge"):
                        price_walk(m, walk)
        assert walks == off_edge == 500


def jittered_doc(mx, my, seed, jitter_durations=True):
    return synth_calibration(mx, my, seed, jitter_durations=jitter_durations)


class TestTables:
    def test_uniform_delta_matches_static(self):
        m = load_calibration(uniform_doc(3, 3, cnot_duration=2))
        t = build_tables(m)
        for a in range(9):
            for b in range(9):
                if a == b:
                    continue
                d = manhattan(m.pos(a), m.pos(b))
                assert t.delta[a][b] == static_cnot_duration(d, m)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_delta_symmetric_and_oracle(self, seed):
        m = load_calibration(jittered_doc(3, 3, seed))
        t = build_tables(m)
        assert t.delta == [list(column) for column in zip(*t.delta)]
        # Independent re-derivation: min over both L-routes and walk directions.
        for a, b in itertools.permutations(range(9), 2):
            cands = []
            for jp in one_bend_junctions(m.pos(a), m.pos(b)):
                cells = route_cells(m, a, b, m.cell_id(jp))
                durs = [m.edge_between(cells[i], cells[i + 1]).cnot_duration
                        for i in range(len(cells) - 1)]
                total = 6 * sum(durs)
                cands += [total - 5 * durs[-1], total - 5 * durs[0]]
            assert t.delta[a][b] == min(cands)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_per_junction_durations(self, shape, seed):
        m = load_calibration(jittered_doc(*shape, seed))
        t = build_tables(m)
        assert t.cnot_dur.keys() == t.cnot_rel.keys()
        for (a, b, j), dur in t.cnot_dur.items():
            route = route_cells(m, a, b, j)
            walk = cnot_walk(m, a, b, j)
            assert dur == min(walk_duration(m, route), walk_duration(m, route[::-1]))
            # the control walks unless the target's walk is strictly faster
            assert walk == (route[::-1] if walk_duration(m, route[::-1]) < walk_duration(m, route)
                            else route)
            assert dur == walk_duration(m, walk)
            assert t.cnot_rel[(a, b, j)] == path_reliability(walk, m)
            assert t.cnot_rel_return[(a, b, j)] == path_reliability(walk, m, count_return_swaps=True)
        differ = 0
        for (a, b), js in t.junctions.items():
            durs = {j: t.cnot_dur[(a, b, j)] for j in js}
            differ += len(set(durs.values())) > 1
            assert t.delta[a][b] == min(durs.values())
            assert canonical_junction(t, a, b) == min(js, key=lambda j: (durs[j], j))
        assert differ > 0   # jitter makes some bent routes' junctions differ

    @pytest.mark.parametrize("shape", [(1, 5), (3, 4), (4, 4)])
    @pytest.mark.parametrize("jitter", [False, True])
    def test_walk_duration_is_the_static_formula_and_the_table_entry(self, shape, jitter):
        # A routed CNOT is priced by price_walk of its walk under every
        # variant, so that must equal the static formula and the table entry.
        m = load_calibration(jittered_doc(*shape, 9, jitter_durations=jitter))
        t = build_tables(m)
        for (a, b), js in t.junctions.items():
            static = static_cnot_duration(manhattan(m.pos(a), m.pos(b)), m)
            for j in js:
                walk = cnot_walk(m, a, b, j)
                assert walk_duration(m, walk, static=True) == static
                assert walk_duration(m, walk) == t.cnot_dur[(a, b, j)]

    def test_build_leaves_no_reference_cycles(self):
        # a cycle would keep every dropped table alive until a full collection
        m = load_calibration(jittered_doc(4, 4, 2))
        gc.collect()
        gc.disable()
        try:
            build_tables(m)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_adjacent_cnot_rel(self, m33):
        t = build_tables(m33)
        assert t.junctions[(0, 1)] == (0,)
        assert t.cnot_rel[(0, 1, 0)] == pytest.approx(0.9, abs=1e-12)
        assert t.best_paths[(0, 1)][0] == (0, 1)

    @pytest.mark.parametrize("mx,my,seed,zero", [(2, 3, 5, False), (3, 3, 6, False),
                                                 (3, 3, 7, False), (3, 3, 8, True)],
                             ids=["2-3-5", "3-3-6", "3-3-7", "3-3-all-zero"])
    def test_best_paths_exhaustive_oracle(self, mx, my, seed, zero):
        """Each entry is a simple walk of the best reliability; on an
        all-zero grid every simple walk ties at reliability 1.0."""
        doc = jittered_doc(mx, my, seed, jitter_durations=False)
        for e in doc["edges"] if zero else ():
            e["cnot_error"] = 0.0
        m = load_calibration(doc)
        tables = build_tables(m)
        for s, t in itertools.permutations(range(m.num_cells), 2):
            walks = set(all_simple_paths(m, s, t))
            truth = max(path_reliability(p, m) for p in walks)
            path, rel = tables.best_paths[(s, t)]
            assert path in walks and tables.best_paths_return[(s, t)][0] in walks
            assert rel == pytest.approx(truth, abs=1e-12)
            assert path_reliability(path, m) == pytest.approx(rel, abs=1e-12)
            truth_ret = max(path_reliability(p, m, count_return_swaps=True) for p in walks)
            assert tables.best_paths_return[(s, t)][1] == pytest.approx(truth_ret, abs=1e-12)
            if zero:
                assert rel == tables.best_paths_return[(s, t)][1] == 1.0

    def test_best_paths_beat_one_bend(self):
        m = load_calibration(jittered_doc(3, 4, 11, jitter_durations=False))
        tables = build_tables(m)
        for (a, b), js in tables.junctions.items():
            best = tables.best_paths[(a, b)][1]
            for j in js:
                assert tables.cnot_rel[(a, b, j)] <= best + 1e-12

    def test_dijkstra_avoids_bad_edge(self):
        doc = uniform_doc(3, 3, cnot_error=0.02)
        doc["edges"] = [{"a": [0, 0], "b": [0, 1], "cnot_error": 0.5}]
        m = load_calibration(doc)
        tables = build_tables(m)
        a, b = m.cell_id((0, 0)), m.cell_id((0, 2))
        path, rel = tables.best_paths[(a, b)]
        bad = tuple(sorted((m.cell_id((0, 0)), m.cell_id((0, 1)))))
        steps = {tuple(sorted(p)) for p in zip(path, path[1:])}
        assert bad not in steps
        bad_route_rel = tables.cnot_rel[(a, b, a)]
        assert rel > bad_route_rel

    def test_monotonic_in_edge_error(self):
        base = jittered_doc(3, 3, 13, jitter_durations=False)
        improved = {**base, "edges": [dict(e) for e in base["edges"]]}
        improved["edges"][4]["cnot_error"] = base["edges"][4]["cnot_error"] / 4
        t0 = build_tables(load_calibration(base))
        t1 = build_tables(load_calibration(improved))
        for key, rel in t0.cnot_rel.items():
            assert t1.cnot_rel[key] >= rel - 1e-15
        for key, (_, rel) in t0.best_paths.items():
            assert t1.best_paths[key][1] >= rel - 1e-15

    def test_transposition_symmetry(self):
        # Non-uniform but transpose-invariant calibration on a square grid.
        doc = {"grid": {"mx": 3, "my": 3}, "defaults": {"static_tau_cnot": 2},
               "qubits": [], "edges": []}
        for x in range(3):
            for y in range(3):
                doc["qubits"].append({"x": x, "y": y, "t2": 500 + 10 * (x + y),
                                      "readout_error": 0.03 + 0.01 * (x + y)})
                for nx, ny in ((x + 1, y), (x, y + 1)):
                    if nx < 3 and ny < 3:
                        s = x + y + nx + ny
                        doc["edges"].append({"a": [x, y], "b": [nx, ny],
                                             "cnot_error": 0.01 + 0.005 * s,
                                             "cnot_duration": 2 + s % 2})
        m = load_calibration(doc)
        t = build_tables(m)
        flip = {m.cell_id((x, y)): m.cell_id((y, x)) for x in range(3) for y in range(3)}
        for a, b in itertools.permutations(range(9), 2):
            assert t.delta[flip[a]][flip[b]] == t.delta[a][b]
            assert {flip[j] for j in t.junctions[(a, b)]} == set(t.junctions[(flip[a], flip[b])])
            for j in t.junctions[(a, b)]:
                assert t.cnot_rel[(flip[a], flip[b], flip[j])] == pytest.approx(
                    t.cnot_rel[(a, b, j)], abs=1e-15)
            assert t.best_paths[(flip[a], flip[b])][1] == pytest.approx(
                t.best_paths[(a, b)][1], abs=1e-12)

    def test_canonical_junction_prefers_short_route(self):
        doc = uniform_doc(2, 2, cnot_duration=2)
        doc["edges"] = [{"a": [0, 0], "b": [0, 1], "cnot_duration": 9}]
        m = load_calibration(doc)
        c, t = m.cell_id((0, 0)), m.cell_id((1, 1))
        # Route through (1,0) avoids the slow edge entirely.
        assert canonical_junction(build_tables(m), c, t) == m.cell_id((1, 0))

    def test_cnot_walk_moves_the_faster_qubit(self):
        doc = uniform_doc(1, 3, cnot_duration=2)
        doc["edges"] = [{"a": [0, 0], "b": [0, 1], "cnot_duration": 4, "cnot_error": 0.01},
                        {"a": [0, 1], "b": [0, 2], "cnot_error": 0.20}]
        m = load_calibration(doc)
        t = build_tables(m)
        assert cnot_walk(m, 0, 2, 0) == (2, 1, 0)    # the target walks
        assert cnot_walk(m, 2, 0, 2) == (2, 1, 0)    # the control walks
        assert cnot_walk(m, 0, 1, 0) == (0, 1)       # a tie: the control walks
        assert t.cnot_dur[(0, 2, 0)] == 6 * 2 + 4
        assert t.cnot_rel_return[(0, 2, 0)] == pytest.approx(0.8 ** 6 * 0.99, abs=1e-12)

    def test_path_duration_walk(self):
        doc = uniform_doc(1, 3, cnot_duration=2)
        doc["edges"] = [{"a": [0, 1], "b": [0, 2], "cnot_duration": 5}]
        m = load_calibration(doc)
        assert price_walk(m, (0, 1, 2))[0] == [2, 5]
        assert price_walk(m, (2, 1, 0), static=True)[0] == [2, 2]
        assert walk_duration(m, (0, 1, 2)) == 6 * 2 + 5
        assert walk_duration(m, (2, 1, 0)) == 6 * 5 + 2


def _log_weights(m):
    log_w = {}
    for e in m.edges:
        w = -math.log(1.0 - e.cnot_error)
        log_w[e.endpoints] = w
        log_w[e.endpoints[::-1]] = w
    return log_w


def reference_best_paths(m, swap_exp):
    """The best path per ordered pair by the per-source derivation: one
    Dijkstra from each source s weighs every hop swap_exp times, and each
    target t closes at the first neighbour u, in adjacency order, whose cost
    beats the best so far by more than 1e-15, skipping a u whose tree path
    passes through t. Reliabilities are path_reliability's."""
    n = m.num_cells
    log_w = _log_weights(m)
    result = {}
    for s in range(n):
        dist, pred = [math.inf] * n, [-1] * n
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for w_ in m.adjacency[v]:
                nd = d + swap_exp * log_w[(v, w_)]
                if nd < dist[w_]:
                    dist[w_] = nd
                    pred[w_] = v
                    heapq.heappush(heap, (nd, w_))

        def tree_walk(u):
            seq = [u]
            while seq[-1] != s:
                seq.append(pred[seq[-1]])
            return tuple(reversed(seq))

        for t in range(n):
            if t == s:
                continue
            best, via = math.inf, None
            for u in sorted(m.adjacency[t]):
                walk = tree_walk(u)
                if t in walk:
                    continue
                cost = dist[u] + log_w[(u, t)]
                if cost < best - 1e-15:
                    best, via = cost, walk
            path = via + (t,)
            result[(s, t)] = (path, path_reliability(path, m, count_return_swaps=swap_exp == 6))
    return result


def closing_edge_best_paths(m, swap_exp):
    """The best path per ordered pair by the per-closing-edge derivation:
    for each target t and neighbour u, one Dijkstra from u on the grid
    without t; s closes at the first u, in adjacency order, whose cost beats
    the best so far by more than 1e-15. It ties differently from the
    per-source derivation only where many paths tie exactly."""
    n = m.num_cells
    log_w = _log_weights(m)
    result = {}
    best_cost = [[math.inf] * n for _ in range(n)]
    best_via = [[-1] * n for _ in range(n)]
    preds = {}
    for t in range(n):
        for u in sorted(m.adjacency[t]):
            close_w = log_w[(u, t)]
            dist = [math.inf] * n
            pred = [-1] * n
            dist[u] = 0.0
            heap = [(0.0, u)]
            while heap:
                d, v = heapq.heappop(heap)
                if d > dist[v]:
                    continue
                for w_ in m.adjacency[v]:
                    if w_ == t:
                        continue
                    nd = d + swap_exp * log_w[(v, w_)]
                    if nd < dist[w_]:
                        dist[w_] = nd
                        pred[w_] = v
                        heapq.heappush(heap, (nd, w_))
            preds[(t, u)] = pred
            for s in range(n):
                if s == t or dist[s] == math.inf:
                    continue
                cost = dist[s] + close_w
                if cost < best_cost[t][s] - 1e-15:
                    best_cost[t][s] = cost
                    best_via[t][s] = u
    for t in range(n):
        for s in range(n):
            if s == t or best_via[t][s] == -1:
                continue
            u = best_via[t][s]
            pred = preds[(t, u)]
            seq = [s]
            while seq[-1] != u:
                seq.append(pred[seq[-1]])
            path = tuple(seq) + (t,)
            result[(s, t)] = (path, path_reliability(path, m, count_return_swaps=swap_exp == 6))
    return result


def reference_tables(m):
    """Every DerivedTables field by the per-key derivation: each (c, t, j)
    priced by walking its cnot_walk, and one best-path search per exponent."""
    n = m.num_cells
    delta = [[0] * n for _ in range(n)]
    junctions, cnot_rel, cnot_dur, cnot_rel_return = {}, {}, {}, {}
    for c, t in itertools.permutations(range(n), 2):
        js = sorted(m.cell_id(jp) for jp in one_bend_junctions(m.pos(c), m.pos(t)))
        for j in js:
            walk = cnot_walk(m, c, t, j)
            cnot_dur[(c, t, j)] = walk_duration(m, walk)
            cnot_rel[(c, t, j)] = path_reliability(walk, m)
            cnot_rel_return[(c, t, j)] = path_reliability(walk, m, count_return_swaps=True)
        junctions[(c, t)] = tuple(js)
        delta[c][t] = min(cnot_dur[(c, t, j)] for j in js)
    return {"delta": delta,
            "cnot_rel": cnot_rel, "cnot_dur": cnot_dur, "cnot_rel_return": cnot_rel_return,
            "junctions": junctions,
            "best_paths": reference_best_paths(m, 3),
            "best_paths_return": reference_best_paths(m, 6)}


ORACLE_SHAPES = [(1, 1), (1, 5), (5, 1), (2, 2), (2, 8), (3, 3), (4, 4), (5, 5), (6, 6), (3, 5)]


def oracle_doc(shape, kind):
    mx, my = shape
    if kind == "uniform":
        return uniform_doc(mx, my)
    doc = jittered_doc(mx, my, 3 * mx + my, jitter_durations=kind != "synth")
    for i, e in enumerate(doc["edges"]):
        if kind == "all-zero" or (kind == "third-zero" and i % 3 == 0):
            e["cnot_error"] = 0.0
    return doc


class TestTablesOracle:
    """build_tables equals the per-key derivation exactly, keys and values:
    the best-path tie-breaks feed the greedy placements."""

    @staticmethod
    def assert_equal(m):
        got = build_tables(m)
        for name, want in reference_tables(m).items():
            value = getattr(got, name)
            assert value == want, name
            if name == "delta":   # no math.inf is left over, nor an equal float
                assert all(type(d) is int for row in value for d in row)
            else:
                assert [type(v) for v in value.values()] == [type(want[k]) for k in value], name

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("kind", ["uniform", "synth", "synth-jittered",
                                      "third-zero", "all-zero"])
    def test_small_grids(self, shape, kind):
        """Zero-error edges weigh -0.0 in the best-path search, so its paths
        tie everywhere and may not pass through their own target."""
        self.assert_equal(load_calibration(oracle_doc(shape, kind)))

    def test_hardware_scale_grid(self):
        self.assert_equal(load_calibration(jittered_doc(12, 12, 1)))

    @staticmethod
    def assert_closing_edge_agrees(m):
        got = build_tables(m)
        assert got.best_paths == closing_edge_best_paths(m, 3)
        assert got.best_paths_return == closing_edge_best_paths(m, 6)

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("kind", ["uniform", "synth", "synth-jittered", "third-zero"])
    def test_closing_edge_derivation_agrees(self, shape, kind):
        """The per-closing-edge derivation picks the same paths here: with
        positive errors a walk through its own target loses to closing at the
        target's tree parent. On an all-zero grid every path ties, and the two
        derivations break the ties differently."""
        self.assert_closing_edge_agrees(load_calibration(oracle_doc(shape, kind)))

    def test_closing_edge_derivation_agrees_on_a_seeded_sweep(self):
        rng = random.Random(4)
        for case in range(200):
            mx, my = rng.randint(1, 8), rng.randint(1, 8)
            doc = synth_calibration(mx, my, rng.randrange(2 ** 31), jitter_durations=case % 2 == 1)
            self.assert_closing_edge_agrees(load_calibration(doc))


class TestTablesOrder:
    """The order build_tables inserts its keys in, which TestTablesOracle's
    == does not see: the greedy mappers' memory locality rests on it. The
    digests (sha256 of repr of the key list, first 16 hex digits) were taken
    from the sweep and search this build_tables replaced; the three one-bend
    tables share one order, and so do the two best-path tables."""

    DIGESTS = {
        ((3, 3), "uniform"): ("e00382b5b868a6d6", "dc21b4fd032f5efb", "ac1146214494d433"),
        ((5, 5), "synth-jittered"): ("425534da27fca088", "075154db44153685", "48fb486f07ca3028"),
        ((2, 8), "synth"): ("a54a533503f01e3c", "3b7e578abe9a03c5", "bdc4972332a551a9"),
    }

    @pytest.mark.parametrize("grid", DIGESTS, ids=lambda g: f"{g[0][0]}x{g[0][1]}-{g[1]}")
    def test_key_order_pinned(self, grid):
        t = build_tables(load_calibration(oracle_doc(*grid)))
        one_bend, junctions, best = self.DIGESTS[grid]
        want = {"cnot_rel": one_bend, "cnot_dur": one_bend, "cnot_rel_return": one_bend,
                "junctions": junctions, "best_paths": best, "best_paths_return": best}
        got = {name: hashlib.sha256(repr(list(getattr(t, name))).encode()).hexdigest()[:16]
               for name in want}
        assert got == want

    @pytest.mark.parametrize("grid", DIGESTS, ids=lambda g: f"{g[0][0]}x{g[0][1]}-{g[1]}")
    def test_best_path_keys_run_target_by_target(self, grid):
        m = load_calibration(oracle_doc(*grid))
        t = build_tables(m)
        n = m.num_cells
        want = [(s, u) for u in range(n) for s in range(n) if s != u]
        assert list(t.best_paths) == want == list(t.best_paths_return)


class TestTablesKeySharing:
    """build_tables makes one (s, t) key tuple per ordered cell pair, and
    junctions, best_paths and best_paths_return all hold that one object;
    sharing is safe because no reader writes to the tables."""

    GRIDS = [((1, 1), "uniform"), ((3, 3), "uniform"), ((4, 5), "synth-jittered"),
             ((3, 3), "third-zero"), ((2, 4), "all-zero")]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0][0]}x{g[0][1]}-{g[1]}")
    def test_one_key_object_per_ordered_pair(self, grid):
        m = load_calibration(oracle_doc(*grid))
        t = build_tables(m)
        n = m.num_cells
        tables = (t.junctions, t.best_paths, t.best_paths_return)
        assert [len(table) for table in tables] == [n * (n - 1)] * 3
        # the tables keep every key alive, so distinct ids are distinct objects
        assert len({id(k) for table in tables for k in table}) == n * (n - 1)

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0][0]}x{g[0][1]}-{g[1]}")
    def test_best_path_tables_yield_the_same_key_object_in_turn(self, grid):
        t = build_tables(load_calibration(oracle_doc(*grid)))
        assert len(t.best_paths) == len(t.best_paths_return)
        assert all(a is b for a, b in zip(t.best_paths, t.best_paths_return))


class TestSynthCalibration:
    def test_deterministic(self):
        assert synth_calibration(3, 3, 42) == synth_calibration(3, 3, 42)

    def test_loads_clean(self):
        m = load_calibration(synth_calibration(2, 8, 7))
        assert len(m.edges) == 22
        assert all(0 < e.cnot_error < 1 for e in m.edges)
