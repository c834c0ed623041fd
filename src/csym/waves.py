"""Plane-wave records: one root times a Gaussian-rational vector.

A `PlaneWaveFunction` is vec * sqrt(root) * exp(i * kappa . x) with a
Gaussian-rational vec, one int root and rational kappa.  Every state built
here has that form (sqrt(p0 - mc) = |p| / |p0 + mc| * sqrt(p0 + mc) for a
Pythagorean |p|), and C, Q, complex conjugation and every table matrix act
on vec and keep the root.  Records compare and hash by value, so realized
wave functions can be compared exactly and also evaluated numerically at
sampled spacetime points.  A `Radical`, coeff * sqrt(radicand) with an int
radicand (1 or a non-square; sqrt(p/q) = sqrt(p q) / q), builds a root.

The plane-wave layer that the photon and electron modules share is written
here once: the amplitude (`amplitude`), the exponent (`plane_wave`), the
bilinear (`bilinear`), the plain quadratic form (`quadratic_form`), the
Dirac-form residual (`dirac_residual`), the label rule (`labels`) and the
sign rule (`check_sign`).  Every state and `Image` answers record(), c_sign,
hbar_sign.  Outside this module no code reads a record's vector or root.
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
        n, d = x.numerator, x.denominator
        if n >= 0:
            c = EC_ONE
        elif negative_branch is None:
            raise ValueError(f"sqrt of negative rational {x} needs an explicit branch")
        else:
            c, n = ExactComplex.coerce(negative_branch), -n
        return _folded(_reduced(c._a, c._b, c._d * d), n * d)  # sqrt(n/d) = sqrt(n d) / d

    def __mul__(self, other: "Radical") -> "Radical":
        return _folded(self.coeff * other.coeff, self.radicand * other.radicand)

    def __add__(self, other: "Radical") -> "Radical":
        if not other.coeff:
            return self
        if not self.coeff:
            return other
        r = self.radicand
        ratio = _root_ratio(other, r)
        if ratio is None:
            raise ValueError(
                f"cannot add radicals with incommensurable radicands "
                f"{r} and {other.radicand}"
            )
        return _folded(self.coeff + ratio, r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Radical):
            return NotImplemented
        # zero holds radicand 1, and no other normal-form radicand is commensurable with 1
        if self.radicand == other.radicand:
            return self.coeff == other.coeff
        ratio = _root_ratio(other, self.radicand)
        return ratio is not None and self.coeff == ratio

    def to_complex(self) -> complex:
        return self.coeff.to_complex() * math.sqrt(self.radicand)

    def __repr__(self) -> str:
        if self.radicand == 1:
            return repr(self.coeff)
        return f"({self.coeff!r})*sqrt({self.radicand})"


def _folded(coeff: ExactComplex, radicand: int) -> Radical:
    """coeff * sqrt(radicand) for an int radicand >= 0, in normal form.

    A square radicand is folded into coeff, and a zero holds radicand 1.
    """
    if not coeff:
        coeff, radicand = EC_ZERO, 1
    elif radicand != 1:
        s = math.isqrt(radicand)
        if s * s == radicand:
            coeff, radicand = coeff * s, 1
    r = object.__new__(Radical)
    object.__setattr__(r, "coeff", coeff)
    object.__setattr__(r, "radicand", radicand)
    return r


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


@dataclass(frozen=True, slots=True, eq=False)
class PlaneWaveFunction:
    """vec * sqrt(root) * exp(i * sum_a kappa_a x^a): one root for every entry.

    A record is plain exact data: vec holds ExactComplex entries, root an int
    >= 1 and kappa rationals, as given.  Records compare and hash by value,
    so (v, r) and (v / k, k^2 r) are equal records.
    """

    vec: tuple[ExactComplex, ...]
    root: int
    kappa: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "vec", tuple(self.vec))
        object.__setattr__(self, "kappa", tuple(self.kappa))
        if len(self.kappa) != 4:
            raise ValueError(f"kappa must have 4 components, got {len(self.kappa)}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not PlaneWaveFunction:
            return NotImplemented
        r, r2, v, v2 = self.root, other.root, self.vec, other.vec
        if self.kappa != other.kappa or len(v) != len(v2):
            return False
        if r == r2:
            return v == v2
        s = math.isqrt(r * r2)  # sqrt(r2) = (s / r) sqrt(r) when r r2 = s^2
        if s * s != r * r2:
            return not (any(v) or any(v2))
        return all(a * r == b * s for a, b in zip(v, v2))

    def __hash__(self):
        # equal values have equal entrywise squares v * v * root
        return hash((tuple(a * a * self.root for a in self.vec), self.kappa))

    def conjugate_function(self) -> "PlaneWaveFunction":
        return PlaneWaveFunction(
            [a.conjugate() for a in self.vec], self.root, [-k for k in self.kappa]
        )

    def apply_matrix(self, m: ExactMatrix) -> "PlaneWaveFunction":
        return PlaneWaveFunction(m.apply(self.vec), self.root, self.kappa)

    def scale(self, factor) -> "PlaneWaveFunction":
        return PlaneWaveFunction([a * factor for a in self.vec], self.root, self.kappa)

    def evaluate(self, x) -> np.ndarray:
        """Numeric value at spacetime points x.

        x is one point (x0, x1, x2, x3) of shape (4,), giving an amplitude
        vector of shape (n,), or an (N, 4) array of points, giving (N, n)
        with one row per point.  The exact vector, its root and kappa are
        converted to floats once per call, not once per point.  Each phase
        kappa . x is summed left to right, so a row of an array result equals
        the result for that point alone.
        """
        kappa = np.array([float(k) for k in self.kappa])
        amp = np.array([a.to_complex() for a in self.vec]) * math.sqrt(self.root)
        phase = (np.asarray(x, dtype=float) * kappa).sum(axis=-1)
        return np.multiply.outer(np.exp(1j * phase), amp)


def amplitude(scale: Radical, vec) -> PlaneWaveFunction:
    """vec * scale as a constant record (kappa 0); its root is scale's radicand."""
    c = scale.coeff
    return PlaneWaveFunction([c * a for a in vec], scale.radicand, (0, 0, 0, 0))


def bilinear(rec: PlaneWaveFunction, m: ExactMatrix) -> ExactComplex:
    """rec^dagger @ m @ rec at any point, exact: root times vec^dagger m vec."""
    terms = (a.conjugate() * b for a, b in zip(rec.vec, m.apply(rec.vec)))
    return sum(terms, EC_ZERO) * rec.root


def quadratic_form(rec: PlaneWaveFunction, form) -> tuple[ExactComplex, ...]:
    """The values of form, quadratic in the amplitudes, on rec's amplitudes at any point.

    form maps an amplitude vector to a tuple of values and squares without
    complex conjugation, so form(sqrt(root) vec) = root * form(vec), exact.
    """
    return tuple(v * rec.root for v in form(rec.vec))


def check_sign(name: str, value) -> None:
    """The one sign rule: the label `name` is the int +1 or -1 (no bool, float or Fraction)."""
    if value.__class__ is not int or value not in (-1, 1):
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")


def plane_wave(amp: PlaneWaveFunction, p0: Fraction, p, hbar_sign: int) -> PlaneWaveFunction:
    """amp * exp[-(i/hbar)(p0 x0 - p.x)] with hbar = hbar_sign, the int +1 or -1.

    amp gives the vector and root; its own kappa is replaced.  Dividing by a
    unit hbar is a sign flip, so kappa holds the labels or their negations.
    """
    check_sign("hbar_sign", hbar_sign)
    kappa = [-p0, *p] if hbar_sign == 1 else [p0, *(-pk for pk in p)]
    return PlaneWaveFunction(amp.vec, amp.root, kappa)


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
    exp(i kappa.x), d_a brings down i*kappa_a, so the operator acts on the
    vector as -hbar * sum_a kappa_a gamma^a - mass_term, with hbar =
    hbar_sign, +1 or -1: each gamma is applied to the vector once.  The root
    is one common factor.
    """
    vec = rec.vec
    out = [a * -mass_term for a in vec]
    for k, g in zip(rec.kappa, gammas):
        if k != 0:
            c = -k if hbar_sign > 0 else k
            out = [o + a * c for o, a in zip(out, g.apply(vec))]
    worst = max((abs(v.to_complex()) for v in out), default=0.0)
    return worst * math.sqrt(rec.root)
