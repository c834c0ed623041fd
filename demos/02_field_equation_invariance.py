# Exact invariance proof of the one-charge field equations.
#
# The 14 equations (curl/div pairs plus the potential links) are stored as
# exact rational coefficient rows.  For each of the sixteen symmetry
# operators, the transformed system spans exactly the same row space: every
# transformed row reduces to zero against the system's echelon basis, and
# the transform keeps the rank.  A deliberately corrupted operator fails.

from csym.maxwell import build_maxwell_system, check_invariance, transform_system
from csym.report import _mutated_p1
from csym.signgroup import canonical_operators

system = build_maxwell_system()
print(f"field system: {system.n_equations} equations, {system.rows.cols} columns")
print()

for name, op in canonical_operators().items():
    cert = check_invariance(system, op)
    status = "invariant" if cert.invariant else "NOT invariant"
    print(f"  {name:10} {status}")
print()

bad = _mutated_p1()
cert = check_invariance(system, bad)
print(f"control: operator with only the electric block flipped under space")
print(f"inversion -> invariant: {cert.invariant} (first offending row {cert.failing_row})")
print()

# what the proof rests on, for the space-inversion operator: no transformed
# row lies outside the system's span, and both have the same rank
failing_row, rank = system.span.express(transform_system(system, canonical_operators()["P1"]))
print(f"P1: system rank {system.span.rank}, transformed rank {rank}, "
      f"first row outside the span: {failing_row}")
