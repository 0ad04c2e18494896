"""Every oracle in one pass: solve a small instance exactly, confirm the
objective against exhaustive enumeration, audit the constraint system, check
the compiled stream is semantically equivalent, and validate the analytic
reliability with Monte Carlo. Then check the equivalence of a 64-qubit,
1024-gate greedy compile, far larger than any statevector holds: its normal
form proves it.

Run: python3 demos/verification_oracles.py
"""

from nisqc import (
    HeuristicConfig, ProblemConfig, brute_force_optimal, build_tables, check_solution,
    equivalence_check, expand, gen_bv, gen_random, heuristic_compile, load_calibration,
    monte_carlo_success, reliability_score, solve_exact, synth_calibration,
)

machine = load_calibration(synth_calibration(2, 3, seed=42))
tables = build_tables(machine)
circuit = gen_bv(3, "11")
cfg = ProblemConfig(variant="r-smt-star")

sol = solve_exact(circuit, machine, cfg, tables=tables)
bf = brute_force_optimal(circuit, machine, cfg, tables=tables)
print(f"solver objective     {sol.objective_value!r}")
print(f"enumerator objective {bf.objective_value!r} "
      f"({len(bf.argmax)} assignment(s) attain it)")
assert sol.objective_value == bf.objective_value

violations = check_solution(sol, circuit, machine, cfg, tables=tables)
print(f"constraint audit     {violations or 'clean'}")

cc = expand(sol, circuit, machine)
eq = equivalence_check(circuit, cc)
print(f"equivalence          passed={eq.passed} "
      f"total_variation={eq.total_variation:.2e}")

rel = reliability_score(cc)
p, se = monte_carlo_success(cc, trials=200_000, seed=5)
print(f"reliability          analytic={rel:.5f} "
      f"monte-carlo={p:.5f} (stderr {se:.5f}, {abs(p - rel) / se:.2f} sigma)")

big_machine = load_calibration(synth_calibration(12, 12, seed=5, t2=10 ** 6))
big = gen_random(64, 1024, seed=11)
big_cc = expand(heuristic_compile(big, big_machine, build_tables(big_machine),
                                  HeuristicConfig("greedy-e")), big, big_machine)
big_eq = equivalence_check(big, big_cc)
print(f"equivalence at scale passed={big_eq.passed} "
      f"(64 qubits, {len(big_cc.expanded)} physical gates, {big_cc.swap_count} swaps)")
assert big_eq.passed
