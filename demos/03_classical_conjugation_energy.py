# Classical charge conjugation on plane waves: no negative energies.
#
# The composite Q1 Q2 negates every field, source, and potential component
# while leaving the arguments alone.  On a transverse plane wave both
# polarization vectors flip; the energy density and flux, being quadratic,
# do not change sign anywhere.

from fractions import Fraction

import numpy as np

from csym.maxwell import (
    PlaneWave,
    build_maxwell_system,
    classical_conjugate_wave,
    energy_poynting,
    energy_poynting_record,
    plane_wave_residual,
)

system = build_maxwell_system()

wave = PlaneWave.make(
    n=(Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)),
    l=(2, -1, 0),
    k0=Fraction(3, 2),
)
print(f"plane wave: n = {wave.n}, l = {wave.l}, m = n x l = {wave.m}")
print(f"residual in the source-free system: {plane_wave_residual(system, wave)} (exact)")

conj = classical_conjugate_wave(wave)
print(f"conjugated: l -> {conj.l}, m -> {conj.m}, phase unchanged")
print(f"conjugate still solves: residual = {plane_wave_residual(system, conj)}")
print()

(energy, flux), (cenergy, cflux) = energy_poynting_record(wave), energy_poynting_record(conj)
print(f"energy coefficient (of cos^2/pi):  {energy} == {cenergy}")
print(f"flux coefficient:                  {flux} == {cflux}")
print()

rng = np.random.default_rng(0)
print("sampled spacetime points: W >= 0 and unchanged under conjugation")
for x in rng.uniform(-5, 5, size=(4, 4)):
    W, S = energy_poynting(wave, x)
    Wc, Sc = energy_poynting(conj, x)
    print(f"  x = {np.round(x, 2)}:  W = {W:.6f}  W_conj = {Wc:.6f}  gap = {abs(W - Wc):.1e}")
