"""Plane-wave function records built from exact square-root scalars.

A `Radical` is coeff * sqrt(radicand) with an exact complex coefficient and a
nonnegative rational radicand; sums and products stay exact as long as the
radicands involved are commensurable (their ratio is a rational square),
which holds for every state this package constructs.  A `PlaneWaveFunction`
is an amplitude vector of radicals times exp(i * kappa . x) with rational
kappa, so two realized wave functions can be compared for equality exactly
and also evaluated numerically at sampled spacetime points.

The plane-wave layer that the photon and electron modules share is written
here once: the exponent (`plane_wave`), the Dirac-form residual
(`dirac_residual`) and every exact radical sum (`radical_sum`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .exact import EC_ONE, EC_ZERO, ExactComplex, ExactMatrix, fraction_sqrt


_ONE = Fraction(1)


class Radical:
    """Exact scalar of the form coeff * sqrt(radicand), radicand >= 0."""

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand: Fraction | int = 1):
        coeff = ExactComplex.coerce(coeff)
        radicand = Fraction(radicand)
        if radicand < 0:
            raise ValueError(
                f"radicand must be nonnegative, got {radicand}; "
                "use Radical.sqrt to choose an imaginary branch explicitly"
            )
        if radicand == 0 or coeff.is_zero():
            coeff, radicand = EC_ZERO, _ONE
        else:
            root = fraction_sqrt(radicand)
            if root is not None:
                coeff, radicand = coeff * root, _ONE
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):
        raise AttributeError("Radical is immutable")

    @staticmethod
    def sqrt(x: Fraction | int, negative_branch: ExactComplex | None = None) -> "Radical":
        """sqrt(x) for rational x; for x < 0 the caller must pick the branch.

        negative_branch is the unit to multiply sqrt(|x|) by when x < 0,
        normally +i (principal) or -i (conjugate).
        """
        x = Fraction(x)
        if x >= 0:
            return Radical(EC_ONE, x)
        if negative_branch is None:
            raise ValueError(f"sqrt of negative rational {x} needs an explicit branch")
        return Radical(negative_branch, -x)

    @staticmethod
    def of(coeff) -> "Radical":
        return Radical(coeff, 1)

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def __mul__(self, other) -> "Radical":
        if isinstance(other, Radical):
            return Radical(self.coeff * other.coeff, self.radicand * other.radicand)
        return _radical(self.coeff * other, self.radicand)

    __rmul__ = __mul__

    def __neg__(self) -> "Radical":
        return _radical(-self.coeff, self.radicand)

    def __add__(self, other) -> "Radical":
        if not isinstance(other, Radical):
            other = Radical.of(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.radicand == other.radicand:
            return _radical(self.coeff + other.coeff, self.radicand)
        # commensurable radicands: sqrt(r2) = (s / r1) * sqrt(r1) when r1 r2 = s^2
        s = fraction_sqrt(self.radicand * other.radicand)
        if s is None:
            raise ValueError(
                f"cannot add radicals with incommensurable radicands "
                f"{self.radicand} and {other.radicand}"
            )
        return _radical(self.coeff + other.coeff * (s / self.radicand), self.radicand)

    def __sub__(self, other) -> "Radical":
        return self + (-other if isinstance(other, Radical) else Radical.of(other) * -1)

    def conjugate(self) -> "Radical":
        return _radical(self.coeff.conjugate(), self.radicand)

    def to_exact(self) -> ExactComplex:
        """The value as a plain ExactComplex; requires a rational radicand root."""
        if self.is_zero():
            return EC_ZERO
        if self.radicand == 1:
            return self.coeff
        raise ValueError(f"value sqrt({self.radicand}) is irrational")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Radical):
            try:
                other = Radical.of(ExactComplex.coerce(other))
            except TypeError:
                return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.radicand == other.radicand:
            return self.coeff == other.coeff
        ratio = fraction_sqrt(other.radicand / self.radicand)
        if ratio is None:
            return False
        return self.coeff == other.coeff * ratio

    def __hash__(self):
        # equal radicals have equal squares; a rational one hashes like its value
        if self.radicand == 1:
            return hash(self.coeff)
        return hash(self.coeff * self.coeff * self.radicand)

    def to_complex(self) -> complex:
        return self.coeff.to_complex() * math.sqrt(float(self.radicand))

    def __repr__(self) -> str:
        if self.radicand == 1:
            return repr(self.coeff)
        return f"({self.coeff!r})*sqrt({self.radicand})"


def _radical(coeff: ExactComplex, radicand: Fraction) -> Radical:
    """coeff * sqrt(radicand) for a radicand some Radical already holds.

    Such a radicand is 1 or a positive non-square, so only a zero coefficient
    needs normalizing; the validation and the square-root test of
    Radical(coeff, radicand) are skipped.
    """
    r = object.__new__(Radical)
    if coeff.is_zero():
        coeff, radicand = EC_ZERO, _ONE
    object.__setattr__(r, "coeff", coeff)
    object.__setattr__(r, "radicand", radicand)
    return r


#: the zero radical every exact sum starts from
RADICAL_ZERO = _radical(EC_ZERO, _ONE)


def radical_sum(terms) -> Radical:
    """The exact sum of the radicals in terms, added left to right."""
    return sum(terms, RADICAL_ZERO)


def radical_vector(values) -> tuple[Radical, ...]:
    return tuple(v if isinstance(v, Radical) else Radical.of(v) for v in values)


def matrix_times_radicals(m: ExactMatrix, vec: tuple[Radical, ...]) -> tuple[Radical, ...]:
    if m.cols != len(vec):
        raise ValueError(f"cannot apply {m.rows}x{m.cols} matrix to length-{len(vec)} vector")
    return tuple(
        radical_sum(v * e for e, v in zip(m.row(i), vec) if not e.is_zero() and not v.is_zero())
        for i in range(m.rows)
    )


def bilinear(left: tuple[Radical, ...], m: ExactMatrix, right: tuple[Radical, ...]
             ) -> ExactComplex:
    """left^dagger @ m @ right, folded to an exact complex number."""
    mv = matrix_times_radicals(m, right)
    return radical_sum(l.conjugate() * r for l, r in zip(left, mv)).to_exact()


class PlaneWaveFunction:
    """amp * exp(i * sum_a kappa_a x^a) with radical amplitudes, rational kappa."""

    __slots__ = ("amp", "kappa")

    def __init__(self, amp, kappa):
        object.__setattr__(self, "amp", radical_vector(amp))
        object.__setattr__(self, "kappa", tuple(Fraction(k) for k in kappa))
        if len(self.kappa) != 4:
            raise ValueError(f"kappa must have 4 components, got {len(self.kappa)}")

    def __setattr__(self, name, value):
        raise AttributeError("PlaneWaveFunction is immutable")

    def conjugate_function(self) -> "PlaneWaveFunction":
        return PlaneWaveFunction(
            [a.conjugate() for a in self.amp], [-k for k in self.kappa]
        )

    def apply_matrix(self, m: ExactMatrix) -> "PlaneWaveFunction":
        return PlaneWaveFunction(matrix_times_radicals(m, self.amp), self.kappa)

    def scale(self, factor) -> "PlaneWaveFunction":
        return PlaneWaveFunction([a * factor for a in self.amp], self.kappa)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaneWaveFunction):
            return NotImplemented
        return self.kappa == other.kappa and len(self.amp) == len(other.amp) and all(
            a == b for a, b in zip(self.amp, other.amp)
        )

    def __hash__(self):
        return hash((self.amp, self.kappa))

    def evaluate(self, x) -> np.ndarray:
        """Numeric value at spacetime points x.

        x is one point (x0, x1, x2, x3) of shape (4,), giving an amplitude
        vector of shape (n,), or an (N, 4) array of points, giving (N, n)
        with one row per point.  The exact amplitudes and kappa are converted
        to floats once per call, not once per point.  Each phase kappa . x is
        summed left to right, so a row of an array result equals the result
        for that point alone.
        """
        kappa = np.array([float(k) for k in self.kappa])
        amp = np.array([a.to_complex() for a in self.amp])
        phase = (np.asarray(x, dtype=float) * kappa).sum(axis=-1)
        return np.multiply.outer(np.exp(1j * phase), amp)

    def __repr__(self) -> str:
        return f"PlaneWaveFunction(amp={list(self.amp)!r}, kappa={list(self.kappa)!r})"


def plane_wave(amp, p0: Fraction, p, hbar: Fraction) -> PlaneWaveFunction:
    """amp * exp[-(i/hbar)(p0 x0 - p.x)]."""
    return PlaneWaveFunction(amp, [-p0 / hbar] + [pk / hbar for pk in p])


def measured_momentum(wave: PlaneWaveFunction
                      ) -> tuple[Fraction, tuple[Fraction, Fraction, Fraction]]:
    """Momentum labels (p0, p) read off a plane wave.

    Labels follow the bookkeeping convention of the conjugation analysis: the
    derivative operators are weighted with the reference hbar = +1, so
    exp(-(i/hbar)(p0 x0 - p.x)) reads off as (p0, p) and its complex conjugate
    as (-p0, -p).  The energy label is then c_signed * p0.
    """
    return -wave.kappa[0], wave.kappa[1:]


def free_dirac_residual_matrix(kappa, mass_term: Fraction, hbar_signed: Fraction,
                               gammas) -> ExactMatrix:
    """Coefficient matrix of (i*hbar*gamma^a d_a - mass_term) on exp(i kappa.x).

    d_a brings down i*kappa_a, so the operator reduces to
    -hbar * sum_a kappa_a gamma^a - mass_term * identity.
    """
    g0, g1, g2, g3 = gammas
    n = g0.rows
    m = ExactMatrix.zeros(n, n)
    for k, g in zip(kappa, (g0, g1, g2, g3)):
        if k != 0:
            m = m + g.scale(ExactComplex(-hbar_signed * k))
    if mass_term != 0:
        m = m - ExactMatrix.identity(n).scale(ExactComplex(mass_term))
    return m


def dirac_residual(rec: PlaneWaveFunction, mass_term: Fraction, hbar: Fraction,
                   gammas) -> float:
    """Max |component| of (i*hbar*gamma^a d_a - mass_term) applied to rec.

    The photon's massless Dirac form and the electron's free equation, for
    a state and for a transformed wave, are all this one residual.
    """
    m = free_dirac_residual_matrix(rec.kappa, mass_term, hbar, gammas)
    return max((abs(v.to_complex()) for v in matrix_times_radicals(m, rec.amp)), default=0.0)
