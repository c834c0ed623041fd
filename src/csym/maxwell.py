"""The one-charge electromagnetic field equations as an exact linear system.

The 14 equations (8 field equations plus 6 potential links) are stored as
exact coefficient rows over the 16 components x 5 derivative slots
(1, d0, d1, d2, d3).  Invariance under a field operator is then literally
row-space equality over the rationals.  The system's rows are factored once
(one elimination of [rows | I], kept on the system); every operator's
transformed rows are reduced against that factorisation, which yields a
certificate expressing each transformed row in the original basis, and the
spans are proven equal by containment plus equal rank.

Maxwell's equations are written once, as these rows.  A plane wave is
checked against the same curl/div rows that the invariance proof
certifies, with the derivatives acting on the phase of its `waves` record;
its energy and flux are read off the same record.

The source components carry the 4*pi factor absorbed into them (the row for
div E = 4*pi*rho stores the single symbol "4*pi*rho"), which keeps every
coefficient rational; sign transformations commute with that scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .exact import EC_ONE, ExactComplex, ExactMatrix, RowSpan, _frac
from .sampling import Vec3, _rational, check_vector, cross, dot
from .signgroup import BLOCKS, FieldOperator, classical_conjugation_operator
from .waves import PlaneWaveFunction, Radical, amplitude, check_sign, plane_wave, quadratic_form

N_COMPONENTS = 16
N_SLOTS = 5  # coefficient of (1, d0, d1, d2, d3) per component
ROW_WIDTH = N_COMPONENTS * N_SLOTS
N_FIELD_EQUATIONS = 8  # the curl/div rows; the potential links follow them

# component indices of the one 16-component layout, signgroup.BLOCKS
E_IDX = BLOCKS["E"]
H_IDX = BLOCKS["H"]
(RHO_IDX,) = BLOCKS["rho"]
J_IDX = BLOCKS["J"]
(PHI_IDX,) = BLOCKS["phi"]
A_IDX = BLOCKS["A"]

_EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}


def _col(component: int, slot: int) -> int:
    return component * N_SLOTS + slot


@dataclass(frozen=True)
class LinearFieldSystem:
    """An exact first-order linear PDE system on the 16-component field."""

    rows: ExactMatrix
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.rows.cols != ROW_WIDTH:
            raise ValueError(f"rows must have width {ROW_WIDTH}, got {self.rows.cols}")
        for i in range(self.rows.rows):
            if all(e.is_zero() for e in self.rows.row(i)):
                raise ValueError(f"equation row {i} is identically zero")

    @property
    def n_equations(self) -> int:
        return self.rows.rows

    @cached_property
    def span(self) -> RowSpan:
        """The row space, factored on first use and kept for every later proof."""
        return RowSpan(self.rows)


def _curl(i: int, field: tuple[int, int, int], sign: int = 1) -> dict[int, int]:
    """sign * (curl F)_i = sign * eps_ijk d_j F_k as {column: coefficient}."""
    return {_col(field[k], 2 + j): sign * eps for (a, j, k), eps in _EPS.items() if a == i}


def _div(field: tuple[int, int, int]) -> dict[int, int]:
    """div F = d_k F_k as {column: coefficient}."""
    return {_col(f, 2 + k): 1 for k, f in enumerate(field)}


def build_maxwell_system() -> LinearFieldSystem:
    """The 14 equations: curl/div pairs for E and H plus the potential links.

    The first N_FIELD_EQUATIONS rows are the curl/div pairs.
    """
    eqs: dict[str, dict[int, int]] = {}
    # curl H - d0 E = (4 pi / c) J: the J column is the source per unit x0,
    # (4 pi / c) J in Gaussian units.  (eps_ijk d_j H_k) - d0 E_i - J_i = 0
    for i in range(3):
        eqs[f"curlH-d0E-source[{i}]"] = {
            **_curl(i, H_IDX), _col(E_IDX[i], 1): -1, _col(J_IDX[i], 0): -1,
        }
    # div H = 0
    eqs["divH"] = _div(H_IDX)
    # curl E + d0 H = 0
    for i in range(3):
        eqs[f"curlE+d0H[{i}]"] = {**_curl(i, E_IDX), _col(H_IDX[i], 1): 1}
    # div E = (4 pi rho)
    eqs["divE-source"] = {**_div(E_IDX), _col(RHO_IDX, 0): -1}
    # E = -d0 A - grad phi  ->  E_i + d0 A_i + d_i phi = 0
    for i in range(3):
        eqs[f"E-potential-link[{i}]"] = {
            _col(E_IDX[i], 0): 1, _col(A_IDX[i], 1): 1, _col(PHI_IDX, 2 + i): 1,
        }
    # H = curl A  ->  H_i - eps_ijk d_j A_k = 0
    for i in range(3):
        eqs[f"H-potential-link[{i}]"] = {_col(H_IDX[i], 0): 1, **_curl(i, A_IDX, -1)}

    rows = [[terms.get(col, 0) for col in range(ROW_WIDTH)] for terms in eqs.values()]
    return LinearFieldSystem(ExactMatrix.from_rows(rows), tuple(eqs))


def transform_system(sys: LinearFieldSystem, op: FieldOperator) -> LinearFieldSystem:
    """Rewrite every equation for the transformed field function.

    Component coefficients pick up the operator's component sign; d0 columns
    flip with the time-argument sign and d1..d3 columns with the space sign.
    The sign of c has no effect here: after the x0 = c t substitution, c does
    not appear as a free coefficient of the symbolic system.
    """
    e0, ex, _ec = op.arg_sig
    slot_sign = (1, e0, ex, ex, ex)
    col_sign = [csign * s for csign in op.comp_signs for s in slot_sign]
    entries = [
        -v if col_sign[j % ROW_WIDTH] < 0 and v else v
        for j, v in enumerate(sys.rows.entries)
    ]
    return LinearFieldSystem(ExactMatrix(sys.rows.rows, ROW_WIDTH, entries), sys.labels)


@dataclass(frozen=True)
class InvarianceCertificate:
    """For each transformed row, its coefficients in the original row basis."""

    invariant: bool
    combinations: tuple[tuple[ExactComplex, ...], ...] | None
    failing_row: int | None = None


def check_invariance(sys: LinearFieldSystem, op: FieldOperator) -> InvarianceCertificate:
    """Row-space equality of the system and its transform, with a witness.

    Every transformed row is reduced against the system's one stored
    factorisation (sys.span).  The first row that does not reduce to zero
    lies outside the span and is reported as failing_row.  Otherwise each
    row's combination of the original rows is the certificate, and the spans
    are equal iff the transform has the system's rank; a transform that
    spans less is reported with failing_row -1.
    """
    expr = sys.span.express(transform_system(sys, op).rows)
    if expr.failing_row is not None:
        return InvarianceCertificate(False, None, failing_row=expr.failing_row)
    if expr.rank != sys.span.rank:
        return InvarianceCertificate(False, None, failing_row=-1)
    return InvarianceCertificate(True, expr.combinations)


# ---------------------------------------------------------------------------
# Plane waves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneWave:
    """A transverse electromagnetic plane wave with exact rational data.

    Fields are E = l exp[-i(k0 x0 - k.x)], H = m exp[same], k = k0 n, as
    record() writes them.  Construction checks that l, m and n hold 3 exact
    rationals, k0 is exact, |n| = 1 and n.l = 0, l != 0, k0 > 0 and c_sign;
    make defaults m to n x l, which can be overridden to probe the residual check.
    """

    l: Vec3
    m: Vec3
    n: Vec3
    k0: Fraction
    c_sign: int = 1

    def __post_init__(self):
        for name in ("n", "l", "m"):
            check_vector(name, getattr(self, name))
        if not _rational((self.k0,)):
            raise ValueError(f"wavenumber k0 must be an exact rational, got {self.k0!r}")
        if dot(self.n, self.n) != 1:
            raise ValueError(f"guiding vector must be exactly unit: |n|^2 = {dot(self.n, self.n)}")
        if dot(self.n, self.l) != 0:
            raise ValueError(f"polarization must be transverse: n.l = {dot(self.n, self.l)}")
        if not any(self.l):
            raise ValueError("electric polarization l must be nonzero")
        if self.k0 <= 0:
            raise ValueError(f"wavenumber k0 must be positive, got {self.k0}")
        check_sign("c_sign", self.c_sign)

    @staticmethod
    def make(n, l, k0, c_sign: int = 1, m=None) -> "PlaneWave":
        n = check_vector("n", tuple(_frac(x) for x in n))  # before cross reads n and l
        l = check_vector("l", tuple(_frac(x) for x in l))
        m = cross(n, l) if m is None else tuple(_frac(x) for x in m)
        return PlaneWave(l=l, m=m, n=n, k0=_frac(k0), c_sign=c_sign)

    @property
    def k(self) -> Vec3:
        return tuple(self.k0 * ni for ni in self.n)

    def record(self) -> PlaneWaveFunction:
        """field_column(self) times exp[-i(k0 x0 - k.x)]: the waves record, hbar = +1."""
        return plane_wave(amplitude(Radical(1), field_column(self)), self.k0, self.k, 1)


def plane_wave_residual(system: LinearFieldSystem, w: PlaneWave) -> Fraction:
    """Max |equation value| of the system's curl/div rows on the wave.

    The rows act on the wave's field column, the amplitude of w.record(),
    with the derivatives taken analytically on the record's phase
    exp(i kappa.x): d_a -> i kappa_a.  The common phase factor is dropped (it
    never vanishes), and the column's sources are zero, so a valid plane wave
    gives exactly zero.
    """
    factors = (EC_ONE,) + tuple(ExactComplex(0, k) for k in w.record().kappa)  # 1, then d_a
    column = [d * a for a in field_column(w) for d in factors]
    values = system.rows.apply(column)[:N_FIELD_EQUATIONS]
    return max(abs(r.re) + abs(r.im) for r in values)


def field_column(w):
    """The 16-entry column (0, l, 0, m, 0, ...) of a wave's polarizations l, m."""
    phi = [Fraction(0)] * 16
    for idx, val in zip(E_IDX, w.l):
        phi[idx] = val
    for idx, val in zip(H_IDX, w.m):
        phi[idx] = val
    return phi


def classical_conjugate_column(phi: list) -> list:
    """Apply the classical charge conjugation Q1 Q2 to a 16-entry column."""
    return classical_conjugation_operator().apply(phi)


def classical_conjugate_wave(w: PlaneWave) -> PlaneWave:
    """Q1 Q2 on a plane wave: both polarization vectors flip, the phase stays."""
    return replace(w, l=tuple(-x for x in w.l), m=tuple(-x for x in w.m))


def _energy_flux(column, c_sign: int):
    """The one energy-flux formula, in units of 1/pi, on a field column's
    entries: (W, S1, S2, S3) with W = (E.E + H.H)/8 and S = c (E x H)/4."""
    e, h = [column[i] for i in E_IDX], [column[i] for i in H_IDX]
    return ((dot(e, e) + dot(h, h)) / 8, *(c_sign * v / 4 for v in cross(e, h)))


def energy_poynting_record(wave) -> tuple[ExactComplex, tuple[ExactComplex, ...]]:
    """Exact energy and flux coefficients (of 1/pi) of a wave's amplitudes.

    wave is a PlaneWave, a photon state or a conjugation image: anything that
    answers record() and c_sign.  The squares are plain (no complex
    conjugation), so on a real classical wave the realized densities are these
    coefficients times cos^2(phase)/pi, and on a conjugated photon with
    imaginary lambda the formal energy comes out negative.
    """
    energy, *flux = quadratic_form(wave.record(), lambda v: _energy_flux(v, wave.c_sign))
    return energy, tuple(flux)


def energy_poynting(w: PlaneWave, x):
    """Energy density W and flux S from the real parts of the fields at x.

    The fields are the real part of w.record().evaluate(x), and W and S are
    the formula of energy_poynting_record on them: W = (E^2 + H^2)/(8 pi) and
    S = c (E x H)/(4 pi), the stored c carrying only its sign.  x is one point
    (x0, x1, x2, x3), giving floats, or an (N, 4) array of points, giving
    arrays with one entry per point.
    """
    fields = w.record().evaluate(x).real.T
    if fields.ndim == 1:
        fields = fields.tolist()  # one point: plain floats
    W, *S = _energy_flux(fields, w.c_sign)
    return W / math.pi, tuple(v / math.pi for v in S)
