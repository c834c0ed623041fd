"""Plane-wave function records built from exact square-root scalars.

A `Radical` is coeff * sqrt(radicand) with an exact complex coefficient and an
int radicand, 1 or a non-square: a rational p/q is folded once, sqrt(p/q) =
sqrt(p q) / q.  Sums and products stay exact as long as the radicands
involved are commensurable (their product is a square), which holds for
every state this package constructs.  A `PlaneWaveFunction`
is an amplitude vector of radicals times exp(i * kappa . x) with rational
kappa, so two realized wave functions can be compared for equality exactly
and also evaluated numerically at sampled spacetime points.

The plane-wave layer that the photon and electron modules share is written
here once: the exponent (`plane_wave`), the Dirac-form residual
(`dirac_residual`), every exact radical sum (`radical_sum`), the label
rule (`labels`) and the sign rule (`check_sign`).  Every state and `Image`
answers record(), c_sign, hbar_sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import EC_ONE, EC_ZERO, ExactComplex, ExactMatrix, _frac, _reduced


class Radical:
    """Exact scalar coeff * sqrt(radicand); radicand is an int, 1 or a non-square."""

    __slots__ = ("coeff", "radicand")

    def __new__(cls, coeff, radicand: Fraction | int = 1):
        coeff = ExactComplex.coerce(coeff)
        q = radicand if radicand.__class__ is int else _frac(radicand)
        if q < 0:
            raise ValueError(
                f"radicand must be nonnegative, got {q}; "
                "use Radical.sqrt to choose an imaginary branch explicitly"
            )
        d = q.denominator  # sqrt(p/d) = sqrt(p d) / d
        return _folded(_reduced(coeff._a, coeff._b, coeff._d * d), q.numerator * d)

    def __setattr__(self, name, value):
        raise AttributeError("Radical is immutable")

    @staticmethod
    def sqrt(x: Fraction | int, negative_branch: ExactComplex | None = None) -> "Radical":
        """sqrt(x) for rational x; for x < 0 the caller must pick the branch.

        negative_branch is the unit to multiply sqrt(|x|) by when x < 0,
        normally +i (principal) or -i (conjugate).
        """
        x = _frac(x)
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
            return _folded(self.coeff * other.coeff, self.radicand * other.radicand)
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
        r = self.radicand
        if r == other.radicand:
            return _radical(self.coeff + other.coeff, r)
        ratio = _root_ratio(other, r)
        if ratio is None:
            raise ValueError(
                f"cannot add radicals with incommensurable radicands "
                f"{r} and {other.radicand}"
            )
        return _radical(self.coeff + ratio, r)

    __radd__ = __add__

    def __sub__(self, other) -> "Radical":
        return self + (-other if isinstance(other, Radical) else Radical.of(other) * -1)

    def __truediv__(self, k) -> "Radical":
        return _radical(self.coeff / k, self.radicand)

    def conjugate(self) -> "Radical":
        return _radical(self.coeff.conjugate(), self.radicand)

    def to_exact(self) -> ExactComplex:
        """The value as a plain ExactComplex; requires a rational radicand root."""
        if self.radicand == 1:
            return self.coeff
        raise ValueError(f"value sqrt({self.radicand}) is irrational")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Radical):
            try:
                other = Radical.of(ExactComplex.coerce(other))
            except TypeError:
                return NotImplemented
        # zero holds radicand 1, and no other normal-form radicand is commensurable with 1
        if self.radicand == other.radicand:
            return self.coeff == other.coeff
        ratio = _root_ratio(other, self.radicand)
        return ratio is not None and self.coeff == ratio

    def __hash__(self):
        # equal radicals have equal squares; a rational one hashes like its value
        if self.radicand == 1:
            return hash(self.coeff)
        return hash(self.coeff * self.coeff * self.radicand)

    def to_complex(self) -> complex:
        return self.coeff.to_complex() * math.sqrt(self.radicand)

    def __repr__(self) -> str:
        if self.radicand == 1:
            return repr(self.coeff)
        return f"({self.coeff!r})*sqrt({self.radicand})"


def _radical(coeff: ExactComplex, radicand: int) -> Radical:
    """coeff * sqrt(radicand) for a radicand some Radical already holds.

    Such a radicand is 1 or a positive non-square, so only a zero coefficient
    needs normalizing; the validation and the square-root test of
    Radical(coeff, radicand) are skipped.
    """
    r = object.__new__(Radical)
    if coeff.is_zero():
        coeff, radicand = EC_ZERO, 1
    object.__setattr__(r, "coeff", coeff)
    object.__setattr__(r, "radicand", radicand)
    return r


def _folded(coeff: ExactComplex, radicand: int) -> Radical:
    """coeff * sqrt(radicand) for an int radicand >= 0, a square folded into coeff."""
    if radicand != 1:
        s = math.isqrt(radicand)
        if s * s == radicand:
            coeff, radicand = coeff * s, 1
    return _radical(coeff, radicand)


def _root_ratio(x: Radical, r: int) -> ExactComplex | None:
    """c with c * sqrt(r) == x, or None when x's radicand and r are incommensurable.

    sqrt(r2) = (s / r) * sqrt(r) when r * r2 = s^2.
    """
    prod = r * x.radicand
    s = math.isqrt(prod)
    if s * s != prod:
        return None
    c = x.coeff
    return _reduced(c._a * s, c._b * s, c._d * r)


#: the zero radical every exact sum starts from
RADICAL_ZERO = _radical(EC_ZERO, 1)


def radical_sum(terms) -> Radical:
    """The exact sum of the radicals in terms, added left to right."""
    return sum(terms, RADICAL_ZERO)


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


@dataclass(frozen=True, slots=True)
class PlaneWaveFunction:
    """amp * exp(i * sum_a kappa_a x^a) with radical amplitudes, rational kappa.

    A record is plain exact data: amp holds Radicals and kappa rationals, as
    given; equal records compare and hash equal.
    """

    amp: tuple[Radical, ...]
    kappa: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "amp", tuple(self.amp))
        object.__setattr__(self, "kappa", tuple(self.kappa))
        if len(self.kappa) != 4:
            raise ValueError(f"kappa must have 4 components, got {len(self.kappa)}")

    def conjugate_function(self) -> "PlaneWaveFunction":
        return PlaneWaveFunction(
            [a.conjugate() for a in self.amp], [-k for k in self.kappa]
        )

    def apply_matrix(self, m: ExactMatrix) -> "PlaneWaveFunction":
        return PlaneWaveFunction(matrix_times_radicals(m, self.amp), self.kappa)

    def scale(self, factor) -> "PlaneWaveFunction":
        return PlaneWaveFunction([a * factor for a in self.amp], self.kappa)

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


def check_sign(name: str, value) -> None:
    """The one sign rule: the label `name` is the int +1 or -1 (no bool, float or Fraction)."""
    if value.__class__ is not int or value not in (-1, 1):
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")


def plane_wave(amp, p0: Fraction, p, hbar_sign: int) -> PlaneWaveFunction:
    """amp * exp[-(i/hbar)(p0 x0 - p.x)] with hbar = hbar_sign, the int +1 or -1.

    Dividing by a unit hbar is a sign flip, so kappa holds the labels or
    their negations.
    """
    check_sign("hbar_sign", hbar_sign)
    if hbar_sign == 1:
        return PlaneWaveFunction(amp, [-p0, *p])
    return PlaneWaveFunction(amp, [p0, *(-pk for pk in p)])


def labels(wave) -> tuple[Fraction, tuple[Fraction, Fraction, Fraction]]:
    """The one label rule: (energy, p) of a state or conjugation image.

    (p0, p) are read off the record with the reference hbar = +1, so
    exp[-(i/hbar)(p0 x0 - p.x)] reads (p0, p) and its conjugate (-p0, -p);
    the energy is the wave's signed c times p0.
    """
    kappa = wave.record().kappa
    return -wave.c_sign * kappa[0], kappa[1:]


@dataclass(frozen=True)
class Image:
    """A conjugation image: its realized function and the signs of c and hbar."""

    function: PlaneWaveFunction
    c_sign: int
    hbar_sign: int

    def __post_init__(self):
        check_sign("c_sign", self.c_sign)
        check_sign("hbar_sign", self.hbar_sign)

    def record(self) -> PlaneWaveFunction:
        return self.function


def dirac_residual(rec: PlaneWaveFunction, mass_term: Fraction, hbar_sign: int,
                   gammas) -> float:
    """Max |component| of (i*hbar*gamma^a d_a - mass_term) applied to rec.

    The photon's massless Dirac form and the electron's free equation, for
    a state and for a transformed wave, are all this one residual.  On
    exp(i kappa.x), d_a brings down i*kappa_a, so the operator's coefficient
    matrix is -hbar * sum_a kappa_a gamma^a - mass_term * identity, with
    hbar = hbar_sign, +1 or -1.
    """
    n = gammas[0].rows
    m = ExactMatrix.zeros(n, n)
    for k, g in zip(rec.kappa, gammas):
        if k != 0:
            c = ExactComplex(k)
            m = m + g.scale(-c if hbar_sign > 0 else c)
    if mass_term != 0:
        m = m - ExactMatrix.identity(n).scale(ExactComplex(mass_term))
    return max((abs(v.to_complex()) for v in matrix_times_radicals(m, rec.amp)), default=0.0)
