"""Seeded random generation of exact rational state data.

All verification states are exact: directions are rational unit vectors
(built from Pythagorean quadruples), energy-momentum magnitudes come from
scaled Pythagorean triples so that sqrt(|p|^2 + (mc)^2) stays rational, and
spinor components are Gaussian rationals.  Numeric sampling then happens
only at the point-evaluation stage.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .exact import ExactComplex

Vec3 = tuple[Fraction, Fraction, Fraction]

def rational_unit_vector(rng: np.random.Generator) -> Vec3:
    """A random exact unit 3-vector with rational components.

    Uses the parametrization (2xz, 2yz, z^2-x^2-y^2) / (x^2+y^2+z^2), then a
    random axis permutation and sign pattern for coverage.
    """
    while True:
        x, y, z = (int(v) for v in rng.integers(-9, 10, size=3))
        if z != 0 and (x, y) != (0, 0):
            break
    d = x * x + y * y + z * z
    v = [Fraction(2 * x * z, d), Fraction(2 * y * z, d), Fraction(z * z - x * x - y * y, d)]
    perm = rng.permutation(3)
    signs = rng.integers(0, 2, size=3) * 2 - 1
    out = tuple(Fraction(int(signs[i])) * v[int(perm[i])] for i in range(3))
    assert sum(c * c for c in out) == 1
    return out


def rational_orthogonal_vector(rng: np.random.Generator, n: Vec3) -> Vec3:
    """A nonzero rational vector exactly orthogonal to the unit vector n."""
    while True:
        v = tuple(Fraction(int(c)) for c in rng.integers(-9, 10, size=3))
        dot = sum(a * b for a, b in zip(v, n))
        w = tuple(a - dot * b for a, b in zip(v, n))
        if any(w):
            return w


def rational_magnitude(rng: np.random.Generator) -> Fraction:
    """A random positive rational spanning roughly [1e-3, 1e3]."""
    num = int(rng.integers(1, 1000))
    den = int(rng.integers(1, 1000))
    exp = int(rng.integers(-3, 4))
    mag = Fraction(num, den)
    if exp >= 0:
        mag *= 10**exp
    else:
        mag /= 10 ** (-exp)
    return mag


def pythagorean_pair(rng: np.random.Generator) -> tuple[int, int, int]:
    """(a, b, h) with a^2 + b^2 = h^2, from the (u,v) parametrization."""
    u = int(rng.integers(2, 30))
    v = int(rng.integers(1, u))
    a, b = u * u - v * v, 2 * u * v
    if rng.integers(0, 2):
        a, b = b, a
    return a, b, u * u + v * v


def momentum_mass_energy(rng: np.random.Generator) -> tuple[Fraction, Fraction, Fraction]:
    """Random (|p|, mc, p0) with p0 = sqrt(|p|^2 + (mc)^2) exactly rational.

    |p| may be zero (rest frame); magnitudes span roughly [1e-3, 1e3].
    """
    t = rational_magnitude(rng)
    if rng.integers(0, 12) == 0:
        return Fraction(0), t, t  # rest frame: p0 = mc
    a, b, h = pythagorean_pair(rng)
    return a * t, b * t, h * t


def gaussian_rational_spinor(rng: np.random.Generator) -> tuple[ExactComplex, ExactComplex]:
    """A random nonzero 2-spinor with Gaussian-rational components."""
    while True:
        parts = [Fraction(int(n), int(d)) for n, d in
                 zip(rng.integers(-9, 10, size=4), rng.integers(1, 10, size=4))]
        z = (ExactComplex(parts[0], parts[1]), ExactComplex(parts[2], parts[3]))
        if z[0] or z[1]:
            return z


def cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def spacetime_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Random numeric spacetime points in [-10, 10]^4 for pointwise spot checks."""
    return rng.uniform(-10.0, 10.0, size=(count, 4))
