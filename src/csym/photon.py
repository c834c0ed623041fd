"""The free electromagnetic field in 8-component Dirac form.

The field column (0, E, 0, H) satisfies a massless Dirac-type equation with
8x8 gamma matrices.  This module builds those matrices, verifies their
algebra exactly, derives the space of admissible conjugation matrices by
exact nullspace solving, and realizes the two conjugations on photon plane
waves: the quantum charge conjugation C and the conjugation Q induced by
flipping the signs of the speed of light and of the quantum of action.
The central claim checked here is that C and Q produce the same function.

A photon state is built on the classical wave `maxwell.PlaneWave`, which
validates its data and supplies m = n x l.  Its exponent and its Dirac-form
residual come from `waves`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import EC_I, EC_ONE, ExactComplex, ExactMatrix
from .gamma import (  # GammaIdentityError and conjugation_constraint_rows are public here too
    ConjugationSpace,
    GammaIdentityError,
    GammaSet,
    GammaSpec,
    block,
    build_gamma_set,
    conjugation_constraint_rows,
    solve_conjugation_space,
)
from .maxwell import PlaneWave
from .sampling import Vec3, cross, dot
from .waves import (
    RADICAL_ZERO,
    PlaneWaveFunction,
    Radical,
    bilinear,
    dirac_residual,
    measured_momentum,
    plane_wave,
    radical_sum,
)

#: all five matrices real; {g0, g5} = -2I and g5 anticommutes with g1, g2, g3
GAMMA8 = GammaSpec(reality=(1, 1, 1, 1, 1), g5_anticommutator=(-2, 0, 0, 0), g5_product=False)

ALLOWED_LAMBDA = (
    ExactComplex(1),
    ExactComplex(-1),
    ExactComplex(0, 1),
    ExactComplex(0, -1),
)


def _alpha_matrices() -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    a1 = ExactMatrix.from_rows([
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ])
    a2 = ExactMatrix.from_rows([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ])
    a3 = ExactMatrix.from_rows([
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ])
    return a1, a2, a3


def build_gamma8() -> GammaSet:
    """Construct and verify the 8x8 set; rejects on any failed identity."""
    a1, a2, a3 = _alpha_matrices()
    z4 = ExactMatrix.zeros(4, 4)
    i4 = ExactMatrix.identity(4)
    mats = {
        "g0": block(z4, i4, i4, z4),
        "g1": block(a1, z4, z4, -a1),
        "g2": block(a2, z4, z4, -a2),
        "g3": block(a3, z4, z4, -a3),
        "g5": block(z4, -i4, -i4, z4),
    }
    return build_gamma_set(GAMMA8, mats)


def gamma5_product_check(gs: GammaSet) -> tuple[bool, ExactMatrix]:
    """Does g0 g1 g2 g3 equal g5?  Returns the verdict and the actual product.

    This claimed relation is checked separately from the construction-time
    identities because, for the defining matrices above, the product comes
    out block-antisymmetric while g5 is symmetric (g5 equals -g0 here), so
    the relation fails; the suite reports that honestly.

    No other choice of defining matrices could make it hold.  The
    anticommutation relations alone give, for P = g0 g1 g2 g3: P anticommutes
    with every g_mu, P^2 = -I, and P^dagger = -P (g0 hermitian, gk
    antihermitian).  The construction requires the opposite of each for g5:
    {g0, g5} = -2I, g5^2 = I, and g5 hermitian.
    """
    prod = gs.g0 @ gs.g1 @ gs.g2 @ gs.g3
    return prod == gs.g5, prod


def solve_conjugation_8(gs: GammaSet) -> ConjugationSpace:
    """Exact nullspace of the transposition-conjugation constraints.

    The condition U g^aT U^-1 = g^a becomes, with the transpose pattern of
    this set, the homogeneous system {U g0 - g0 U = 0, U gk + gk U = 0} in
    the 64 entries of U; lambda * g0 must lie in the solution span.
    """
    space = solve_conjugation_space(gs, GAMMA8.transpose_pattern)
    if not space.contains(gs.g0):
        raise AssertionError("g0 unexpectedly missing from the conjugation space")
    return space


# ---------------------------------------------------------------------------
# Photon plane-wave states and the two conjugations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhotonState:
    """A normalized photon plane wave in the 8-component Dirac form.

    The amplitude is column(0, l, 0, m)/sqrt(2 |l|^2) so that the norm is
    exactly 1, times exp[-(i/hbar)(p0 x0 - p.x)] with p = p0 n.  The signs
    of c and hbar are carried as labels with unit magnitudes; lam is the
    conjugation phase, one of +1, -1, +i, -i.
    """

    l: Vec3
    m: Vec3
    n: Vec3
    p0: Fraction
    hbar_sign: int = 1
    c_sign: int = 1
    lam: ExactComplex = ExactComplex(0, -1)

    @property
    def p(self) -> Vec3:
        return tuple(self.p0 * ni for ni in self.n)

    def record(self) -> PlaneWaveFunction:
        norm_radicand = Fraction(1, 2) / dot(self.l, self.l)
        amp = [RADICAL_ZERO] * 8
        for i in range(3):
            amp[1 + i] = Radical(ExactComplex(self.l[i]), norm_radicand)
            amp[5 + i] = Radical(ExactComplex(self.m[i]), norm_radicand)
        return plane_wave(amp, self.p0, self.p, Fraction(self.hbar_sign))

    def norm_sq(self) -> ExactComplex:
        return radical_sum(a.conjugate() * a for a in self.record().amp).to_exact()


def photon_plane_wave(n, l, p0, hbar_sign: int = 1, c_sign: int = 1,
                      lam: ExactComplex | None = None) -> PhotonState:
    """Build a photon state on the classical wave with guiding vector n,
    polarization l and wavenumber p0.

    maxwell.PlaneWave.make validates the wave data and c_sign and supplies
    the magnetic polarization m = n x l.
    """
    wave = PlaneWave.make(n, l, p0, c_sign)
    lam = ExactComplex(0, -1) if lam is None else ExactComplex.coerce(lam)
    if lam not in ALLOWED_LAMBDA:
        raise ValueError(f"lambda must be one of +1, -1, +i, -i, got {lam!r}")
    if hbar_sign not in (-1, 1):
        raise ValueError(f"hbar_sign must be +1 or -1, got {hbar_sign}")
    state = PhotonState(l=wave.l, m=wave.m, n=wave.n, p0=wave.k0,
                        hbar_sign=hbar_sign, c_sign=c_sign, lam=lam)
    if state.norm_sq() != EC_ONE:
        raise AssertionError("photon state failed exact normalization")
    return state


@dataclass(frozen=True)
class ConjugatedPhoton:
    """The realized function after a conjugation, with its state labels."""

    record: PlaneWaveFunction
    lam: ExactComplex
    hbar_sign: int
    c_sign: int

    @property
    def momentum_label(self) -> tuple[Fraction, Vec3]:
        return measured_momentum(self.record)

    @property
    def energy_label(self) -> Fraction:
        p0, _ = measured_momentum(self.record)
        return Fraction(self.c_sign) * p0


def apply_C_photon(state: PhotonState | ConjugatedPhoton) -> ConjugatedPhoton:
    """Charge conjugation: lam * g0 (Psi^dagger g0)^T, which reduces to lam Psi*.

    The reduction uses g0 g0 = I, which build_gamma8 verifies.
    """
    rec = state.record() if isinstance(state, PhotonState) else state.record
    return ConjugatedPhoton(
        record=rec.conjugate_function().scale(state.lam),
        lam=state.lam,
        hbar_sign=state.hbar_sign, c_sign=state.c_sign,
    )


def _q_relabeled(state: PhotonState | ConjugatedPhoton) -> PlaneWaveFunction:
    """The state's function rebuilt with hbar and all 4-momentum labels flipped.

    The labels are the state's own: p0, p and hbar_sign of a PhotonState, and
    for a conjugated state the (p0, p) that its exponent carries with its own
    hbar sign.  The massless amplitude holds no c or hbar, so nothing in it
    flips, and the flip of c is carried by the image's c_sign label.  The
    exponent -(i/hbar)(p0 x0 - p.x) is rebuilt from -p0, -p and -hbar, whose
    sign flips cancel, so the realized function is unchanged.
    """
    hbar = Fraction(state.hbar_sign)
    if isinstance(state, PhotonState):
        amp, p0, p = state.record().amp, state.p0, state.p
    else:
        kappa = state.record.kappa
        amp, p0, p = state.record.amp, -hbar * kappa[0], [hbar * k for k in kappa[1:]]
    return plane_wave(amp, -p0, [-pk for pk in p], -hbar)


def apply_Q_photon(state: PhotonState | ConjugatedPhoton, gs: GammaSet) -> ConjugatedPhoton:
    """Light-speed/action inversion: U_Q (Psi-bar)^T on the relabeled state.

    U_Q equals the charge-conjugation matrix lam * g0 because the massless
    equation is blind to the signs of c and hbar.
    """
    relabeled = _q_relabeled(state)
    out = relabeled.conjugate_function().apply_matrix(gs.g0).apply_matrix(gs.g0).scale(state.lam)
    return ConjugatedPhoton(
        record=out,
        lam=state.lam,
        hbar_sign=-state.hbar_sign, c_sign=-state.c_sign,
    )


def phase_displacement_form(state: PhotonState) -> PlaneWaveFunction:
    """The conjugate written with flipped polarizations and a +pi/2 phase shift.

    Valid for lam = -i: -i amp e^(i theta) = (-amp) e^(i (theta + pi/2)),
    realized exactly by folding e^(i pi/2) = i into the amplitude.
    """
    if state.lam != ExactComplex(0, -1):
        raise ValueError("the displaced-phase form is specific to lambda = -i")
    base = state.record()
    amp = [a * ExactComplex(-1) * EC_I for a in base.amp]
    kappa = [-k for k in base.kappa]
    return PlaneWaveFunction(amp, kappa)


def dirac_form_residual(rec: PlaneWaveFunction, hbar_sign: int, gs: GammaSet) -> float:
    """Max |component| of the massless Dirac-form operator applied to rec."""
    return dirac_residual(rec, Fraction(0), Fraction(hbar_sign), gs.vector)


def currents(state: PhotonState, conjugated: ConjugatedPhoton, gs: GammaSet
             ) -> tuple[ExactComplex, tuple, ExactComplex, tuple]:
    """The bilinears Psi-bar gamma^a Psi for the state and its conjugate."""
    g0g = [gs.g0 @ g for g in gs.vector]  # each g0 g^a once per call
    j, jc = ([bilinear(a, m, a) for m in g0g] for a in (state.record().amp, conjugated.record.amp))
    return j[0], tuple(j[1:]), jc[0], tuple(jc[1:])


def formal_energy_flux(rec: PlaneWaveFunction, c_sign: int
                       ) -> tuple[ExactComplex, tuple[ExactComplex, ...]]:
    """Energy and flux bilinears evaluated formally on the amplitudes.

    Uses the plain squares (no complex conjugation), i.e. the classical
    formulas applied to the possibly complex conjugated amplitudes: returns
    (sum_i amp_i^2)/8 and c (E_amp x H_amp)/4 as exact coefficients of 1/pi.
    """
    energy = radical_sum(a * a for a in rec.amp).to_exact() / 8
    e_amp, h_amp = rec.amp[1:4], rec.amp[5:8]
    flux = tuple(v.to_exact() * Fraction(c_sign, 4) for v in cross(e_amp, h_amp))
    return energy, flux
