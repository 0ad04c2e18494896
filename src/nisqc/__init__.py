"""Noise-adaptive compiler backend for grid-coupled NISQ machines."""

from .circuit import (
    Circuit,
    Gate,
    GateKind,
    ParseError,
    ProgramGraph,
    build_program_graph,
    gen_bv,
    gen_random,
    gen_toffoli,
    parse_circuit,
    to_qasm,
)
from .machine import (
    CalibrationError,
    DerivedTables,
    GridMachine,
    HardwareQubit,
    build_tables,
    cnot_walk,
    load_calibration,
    manhattan,
    static_cnot_duration,
    synth_calibration,
)
from .codegen import (
    CodegenError,
    CompiledCircuit,
    PhysGate,
    emit_qasm,
    expand,
    from_record,
    record_to_json,
    to_record,
)
from .evaluate import (
    BruteForceResult,
    EvalReport,
    EquivalenceResult,
    LeafRecord,
    brute_force_optimal,
    check_solution,
    equivalence_check,
    monte_carlo_success,
    reliability_score,
    write_report,
)
from .heuristic import (
    GreedyPolicy,
    HeuristicConfig,
    compile_with_placement,
    greedy_edge_map,
    greedy_vertex_map,
    heuristic_compile,
)
from .optimal import SolverTimeout, solve_exact
from .schedule import Infeasible, Placement, ProblemConfig, Routing, Schedule, Solution, Variant
from .smtlib import emit_smtlib

__version__ = "0.1.0"
