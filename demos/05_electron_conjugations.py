# The Dirac electron: the transformation table, explicit spinors, and the
# equality of charge conjugation with light-speed inversion.

from fractions import Fraction

from csym.electron import (
    ChargedEquation,
    apply_C_spinor,
    apply_Q_spinor,
    build_gamma4,
    build_spinor,
    build_transform_table,
    free_residual,
    solve_UQ,
    spinor_norm,
    transform_charged_equation,
    verify_symmetry,
)
from csym.waves import labels

gs = build_gamma4()
space = solve_UQ(gs)
print(f"conjugation-matrix constraints: solution space dimension {space.nullity} of 16")
print()

print("transformation table, certified at the operator level")
for name, entry in build_transform_table(gs).items():
    flips = "c,hbar flipped" if entry.c_sign < 0 else "constants kept"
    print(f"  {name:4} conj={'yes' if entry.conj else 'no ':3} {flips:15} certified: {all(verify_symmetry(entry, gs))}")
print()

# a momentum/mass pair with rational energy: |p| = 3t, mc = 4t, p0 = 5t
t = Fraction(1, 2)
state = build_spinor(p=(3 * t, 0, 0), m=4 * t, z=(1, 0))
print(f"spinor state: |p| = {state.p_abs}, mc = {state.mc}, p0 = {state.p0}")
print(f"  ubar u = {spinor_norm(state, gs)} (= 2 m c exactly)")
print(f"  free-equation residual: {free_residual(state, gs)}")
print()

c = apply_C_spinor(state, gs)
q = apply_Q_spinor(state, gs)
print(f"C record == Q record: {c.record() == q.record()}")
(c_energy, c_p), (q_energy, q_p) = labels(c), labels(q)
print(f"  C labels: momentum {c_p}, energy {c_energy} (same hyperplane)")
print(f"  Q labels: momentum {q_p}, energy {q_energy} "
      f"(c sign {q.c_sign}, hbar sign {q.hbar_sign})")
print(f"  negative-branch norm: {spinor_norm(c, gs)} (= -2 m c exactly)")
print()

eq = ChargedEquation()
fixed = transform_charged_equation(eq, "fixed", gs)
flipped = transform_charged_equation(eq, "flipped", gs)
print("charged equation under the inversion chain")
print(f"  potential untouched: charge sign {eq.charge_sign} -> {fixed.charge_sign}")
print(f"  potential negated:   equation form {flipped.form()} == original {eq.form()}")
