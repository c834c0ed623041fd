# Energy-momentum bookkeeping: why a vacuum photon cannot shed a real pair,
# and which composite constants survive the sign flip of c.

from csym.kinematics import infeasibility_scan, scalar_invariants, vacuum_transition_feasible

verdict = vacuum_transition_feasible(
    omega=1.0, omega_prime=4.0, n=(0.0, 0.0, 1.0), n_prime=(1.0, 0.0, 0.0), m=0.5
)
print("one explicit transition attempt")
print(f"  {verdict.certificate}")
print()

scan = infeasibility_scan(draws=10_000, seed=0)
print(f"seeded scan over {scan.draws} random draws (seed {scan.seed})")
print(f"  feasible draws:              {scan.feasible_draws}")
print(f"  scan passed:                 {scan.passed}")
print(f"  worst closed-form rel. gap:  {scan.worst_relative_gap:.3e}")
print()

print("sign of composite scalars under c -> -c")
for convention in ("hbar_fixed", "hbar_flips"):
    signs = scalar_invariants(convention)
    pretty = ", ".join(f"{k}: {'+' if v > 0 else '-'}" for k, v in signs.items())
    print(f"  {convention:11} {pretty}")
