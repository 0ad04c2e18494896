"""The tie rule of the exact solver, and a solution's placement in the form
the enumerator lists it, for tests that compare the two."""

from nisqc.circuit import build_program_graph


def first_in_search_order(c, argmax):
    """The (cells, junctions) entry of argmax that solve_exact visits first.

    The solver places qubits in descending program-graph degree order (then
    qubit id), each over the cells in ascending order, and tries junction
    combos in itertools.product order over ascending junction cells. A leaf
    replaces its incumbent only when it is strictly better, so among equal
    optima it returns the one whose cells, read in that qubit order, then
    junctions, compare smallest."""
    degree = build_program_graph(c).vertex_degree
    order = sorted(range(c.num_qubits), key=lambda q: (-degree.get(q, 0), q))
    return min(argmax, key=lambda entry: (tuple(entry[0][q] for q in order), entry[1]))


def placement_cells(sol, m):
    """sol's placement as a tuple of cell ids by qubit id, the form of the
    cells in a brute_force_optimal argmax entry."""
    return tuple(m.cell_id(sol.placement.loc[q]) for q in sorted(sol.placement.loc))
