"""The free electromagnetic field in 8-component Dirac form.

The field column (0, E, 0, H) satisfies a massless Dirac-type equation with
8x8 gamma matrices.  This module builds those matrices, verifies their
algebra exactly, derives the space of admissible conjugation matrices by
exact nullspace solving, and realizes the two conjugations on photon plane
waves: the quantum charge conjugation C and the conjugation Q induced by
flipping the signs of the speed of light and of the quantum of action.
The central claim checked here is that C and Q produce the same function.

A photon state holds the classical wave `maxwell.PlaneWave` it is built on,
which validates its data and supplies m = n x l; the state adds only the
sign of hbar.  The conjugation phase lambda belongs to the conjugation
matrix lambda g0, so C and Q take it as an argument and return a plain
`waves.Image`.  The state's exponent and Dirac-form residual come from
`waves`, its formal energy and flux from `maxwell.energy_poynting_record`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .electron import MINUS_I
from .exact import EC_I, ExactComplex, ExactMatrix
from .gamma import (  # conjugation_constraint_rows stays public here: perfbench/micro.py calls it
    ConjugationSpace,
    GammaSet,
    GammaSpec,
    block,
    build_gamma_set,
    conjugation_constraint_rows,
    solve_conjugation_space,
)
from .maxwell import PlaneWave, field_column
from .sampling import dot
from .waves import (
    Image,
    PlaneWaveFunction,
    Radical,
    amplitude,
    bilinear,
    check_sign,
    dirac_residual,
    plane_wave,
)

#: all five matrices real; {g0, g5} = -2I and g5 anticommutes with g1, g2, g3
GAMMA8 = GammaSpec(reality=(1, 1, 1, 1, 1), g5_anticommutator=(-2, 0, 0, 0), g5_product=False)

IDENTITY_8 = ExactMatrix.identity(8)

ALLOWED_LAMBDA = (
    ExactComplex(1),
    ExactComplex(-1),
    EC_I,
    MINUS_I,
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
    the 64 entries of U; the report's conjugation-matrix-space check proves
    that lambda * g0 lies in the solution span.
    """
    return solve_conjugation_space(gs, GAMMA8.transpose_pattern)


# ---------------------------------------------------------------------------
# Photon plane-wave states and the two conjugations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhotonState:
    """A normalized photon plane wave in the 8-component Dirac form.

    The state holds its classical wave (maxwell.PlaneWave: polarizations l
    and m, guiding vector n, wavenumber k0 and the sign of c) and adds the
    sign of hbar.  The amplitude is the wave's field column
    (0, l, 0, m)/sqrt(2 |l|^2), so the norm is exactly 1, times
    exp[-(i/hbar)(k0 x0 - k.x)] with k = k0 n.  Construction validates
    hbar_sign; the wave validated its own data.
    """

    wave: PlaneWave
    hbar_sign: int = 1

    def __post_init__(self):
        check_sign("hbar_sign", self.hbar_sign)

    @property
    def c_sign(self) -> int:
        return self.wave.c_sign

    def record(self) -> PlaneWaveFunction:
        return self._record

    @cached_property
    def _record(self) -> PlaneWaveFunction:
        ll = dot(self.wave.l, self.wave.l)
        norm = Radical(1, Fraction(ll.denominator, 2 * ll.numerator))
        amp = amplitude(norm, field_column(self.wave)[:8])
        return plane_wave(amp, self.wave.k0, self.wave.k, self.hbar_sign)

    def norm_sq(self) -> ExactComplex:
        return bilinear(self.record(), IDENTITY_8)


def photon_plane_wave(n, l, p0, hbar_sign: int = 1, c_sign: int = 1) -> PhotonState:
    """Build a photon state on the classical wave with guiding vector n,
    polarization l and wavenumber p0.

    maxwell.PlaneWave.make supplies the magnetic polarization m = n x l, the
    wave validates its data and c_sign, and the state holds that wave.  The
    report's state-normalization check proves the unit norm.
    """
    return PhotonState(PlaneWave.make(n, l, p0, c_sign), hbar_sign)


def _phase(lam: ExactComplex) -> ExactComplex:
    """The conjugation phase lam, validated: one of +1, -1, +i, -i."""
    if lam not in ALLOWED_LAMBDA:
        raise ValueError(f"lambda must be one of +1, -1, +i, -i, got {lam!r}")
    return lam


def apply_C_photon(wave: PhotonState | Image, lam: ExactComplex = MINUS_I) -> Image:
    """Charge conjugation: lam * g0 (Psi^dagger g0)^T, which reduces to lam Psi*.

    The reduction uses g0 g0 = I, which build_gamma8 verifies.
    """
    out = wave.record().conjugate_function().scale(_phase(lam))
    return Image(function=out, hbar_sign=wave.hbar_sign, c_sign=wave.c_sign)


def _q_relabeled(wave: PhotonState | Image) -> PlaneWaveFunction:
    """The wave's function rebuilt with hbar and all 4-momentum labels flipped.

    The labels are the wave's own: the (p0, p) that its exponent carries with
    its own hbar sign, which for a PhotonState are its wave's k0 and k.  The
    massless amplitude holds no c or hbar, so nothing in it flips, and the
    flip of c is carried by the image's c_sign label.  The exponent
    -(i/hbar)(p0 x0 - p.x) is rebuilt from -p0, -p and -hbar, whose sign flips
    cancel, so the realized function is unchanged.
    """
    rec = wave.record()
    k0, k = rec.kappa[0], rec.kappa[1:]
    if wave.hbar_sign > 0:  # own labels (-k0, k), flipped (k0, -k)
        return plane_wave(rec, k0, [-x for x in k], -1)
    return plane_wave(rec, -k0, k, 1)  # own labels (k0, -k), flipped (-k0, k)


def apply_Q_photon(wave: PhotonState | Image, gs: GammaSet, lam: ExactComplex = MINUS_I) -> Image:
    """Light-speed/action inversion: U_Q (Psi-bar)^T on the relabeled wave.

    U_Q equals the charge-conjugation matrix lam * g0 because the massless
    equation is blind to the signs of c and hbar.
    """
    relabeled = _q_relabeled(wave)
    out = relabeled.conjugate_function().apply_matrix(gs.g0).apply_matrix(gs.g0).scale(_phase(lam))
    return Image(function=out, hbar_sign=-wave.hbar_sign, c_sign=-wave.c_sign)


def phase_displacement_form(state: PhotonState) -> PlaneWaveFunction:
    """The lam = -i conjugate written with flipped polarizations and a +pi/2 phase shift.

    -i amp e^(i theta) = (-amp) e^(i (theta + pi/2)), realized exactly by
    folding e^(i pi/2) = i into the amplitude.
    """
    base = state.record()
    return replace(base.scale(ExactComplex(-1) * EC_I), kappa=[-k for k in base.kappa])


def dirac_form_residual(wave: PhotonState | Image, gs: GammaSet) -> float:
    """Max |component| of the massless Dirac-form operator applied to the wave."""
    return dirac_residual(wave.record(), 0, wave.hbar_sign, gs.vector)


def currents(state: PhotonState, conjugated: Image, gs: GammaSet
             ) -> tuple[ExactComplex, tuple, ExactComplex, tuple]:
    """The bilinears Psi-bar gamma^a Psi for the state and its conjugate."""
    recs = (state.record(), conjugated.record())
    j, jc = ([bilinear(r, m) for m in gs.bar_vector] for r in recs)
    return j[0], tuple(j[1:]), jc[0], tuple(jc[1:])
