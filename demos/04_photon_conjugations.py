# The photon in 8-component Dirac form: charge conjugation equals
# light-speed inversion.
#
# The field column (0, E, 0, H) obeys a massless Dirac-type equation.  The
# quantum charge conjugation C (matrix lambda*g0 on the conjugated column)
# and the inversion Q (same matrix, with c, hbar, and all momentum labels
# flipped) produce the identical function; only the state labels differ: C
# reads it as a negative-energy excitation on the original hyperplane, Q as
# a positive-energy one on the flipped hyperplane.

from fractions import Fraction

from csym.maxwell import energy_poynting_record
from csym.photon import (
    apply_C_photon,
    apply_Q_photon,
    build_gamma8,
    currents,
    dirac_form_residual,
    gamma5_product_check,
    photon_plane_wave,
    solve_conjugation_8,
)
from csym.waves import labels

gs = build_gamma8()
print("8x8 matrix set built; construction-time identities verified exactly")
equal, _ = gamma5_product_check(gs)
print(f"claimed product form of the fifth matrix holds: {equal} "
      "(the suite reports this inconsistency honestly)")
space = solve_conjugation_8(gs)
print(f"conjugation-matrix solution space: dimension {space.nullity} of 64")
print()

photon = photon_plane_wave(n=(0, 0, 1), l=(1, 0, 0), p0=Fraction(3, 2))
print(f"photon state: n = {photon.wave.n}, l = {photon.wave.l}, k0 = {photon.wave.k0}")
print(f"  norm: {photon.norm_sq()} (exact)")
print(f"  equation residual: {dirac_form_residual(photon, gs)}")
print()

c = apply_C_photon(photon)
q = apply_Q_photon(photon, gs)
print(f"C record == Q record: {c.record() == q.record()}")
for name, image in (("C", c), ("Q", q)):
    energy, p = labels(image)
    print(f"  {name} labels: momentum {p}, energy {energy}, c sign {image.c_sign}")
print()

j0, jk, j0c, jkc = currents(photon, q, gs)
print(f"currents: j = ({j0}, {jk})  conjugate j = ({j0c}, {jkc})")

e0, f0 = energy_poynting_record(photon)
e1, f1 = energy_poynting_record(c)
print(f"formal energy coefficient: {e0} -> {e1} under conjugation (lambda = -i)")
print(f"formal flux coefficient:   {f0} -> {f1}")
