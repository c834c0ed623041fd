# Exact invariance proof of the one-charge field equations.
#
# The 14 equations (curl/div pairs plus the potential links) are stored as
# exact rational coefficient rows.  For each of the sixteen symmetry
# operators, the transformed system spans exactly the same row space, and
# the elimination produces a certificate expressing every transformed row
# in the original basis.  A deliberately corrupted operator fails.

from csym.maxwell import build_maxwell_system, check_invariance
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

# a peek at one certificate: the first transformed row of the space-inversion
# operator as a combination of original rows
op = canonical_operators()["P1"]
cert = check_invariance(system, op)
combo = cert.combinations[0]
terms = [f"{c}*r{i}" for i, c in enumerate(combo) if not c.is_zero()]
print(f"P1 certificate, transformed row 0 = {' + '.join(terms)}")
