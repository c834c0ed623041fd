"""Seeded random generation of exact rational state data.

All verification states are exact: directions are rational unit vectors
(built from Pythagorean quadruples), energy-momentum magnitudes come from
scaled Pythagorean triples so that sqrt(|p|^2 + (mc)^2) stays rational, and
spinor components are Gaussian rationals.  Numeric sampling then happens
only at the point-evaluation stage.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .exact import ExactComplex, _reduced

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
    v = (2 * x * z, 2 * y * z, z * z - x * x - y * y)
    perm = rng.permutation(3)
    signs = rng.integers(0, 2, size=3) * 2 - 1
    num = [int(signs[i]) * v[int(perm[i])] for i in range(3)]
    assert sum(c * c for c in num) == d * d
    return tuple(Fraction(c, d) for c in num)


def rational_orthogonal_vector(rng: np.random.Generator, n: Vec3) -> Vec3:
    """A nonzero rational vector exactly orthogonal to the unit vector n.

    With n = nn / d over one denominator, v - (v.n) n = (v d^2 - (v.nn) nn) / d^2.
    """
    nn, d = _over_common(n)
    d2 = d * d
    while True:
        v = [int(c) for c in rng.integers(-9, 10, size=3)]
        s = sum(a * b for a, b in zip(v, nn))
        w = [a * d2 - s * b for a, b in zip(v, nn)]
        if any(w):
            return tuple(Fraction(c, d2) for c in w)


def rational_magnitude(rng: np.random.Generator) -> Fraction:
    """A random positive rational spanning roughly [1e-3, 1e3]."""
    num = int(rng.integers(1, 1000))
    den = int(rng.integers(1, 1000))
    exp = int(rng.integers(-3, 4))
    if exp >= 0:
        return Fraction(num * 10**exp, den)
    return Fraction(num, den * 10 ** (-exp))


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
        n0, n1, n2, n3 = (int(v) for v in rng.integers(-9, 10, size=4))
        d0, d1, d2, d3 = (int(v) for v in rng.integers(1, 10, size=4))
        # (n0/d0) + (n1/d1) i = (n0 d1 + n1 d0 i) / (d0 d1)
        z = (_reduced(n0 * d1, n1 * d0, d0 * d1), _reduced(n2 * d3, n3 * d2, d2 * d3))
        if z[0] or z[1]:
            return z


def _rational(v) -> bool:
    return all(x.__class__ is Fraction or x.__class__ is int for x in v)


def check_vector(name: str, v: Vec3) -> Vec3:
    """Return v if it follows the one vector rule: 3 exact rationals (int or Fraction)."""
    if len(v) != 3 or not _rational(v):
        raise ValueError(f"{name} must hold 3 exact rationals, got {v!r}")
    return v


def _over_common(v) -> tuple[list[int], int]:
    """(num, d) with v = num / d: rational entries over their least common denominator."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def cross(a: Vec3, b: Vec3) -> Vec3:
    """a x b; rational entries are multiplied as numerators over one denominator."""
    rational = _rational(a) and _rational(b)
    if rational:
        (a, da), (b, db) = _over_common(a), _over_common(b)
    c = (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )
    return tuple(Fraction(x, da * db) for x in c) if rational else c


def dot(a, b):
    """a . b; rational entries are summed as numerators over one denominator."""
    if _rational(a) and _rational(b):
        (a, da), (b, db) = _over_common(a), _over_common(b)
        return Fraction(sum(x * y for x, y in zip(a, b)), da * db)
    return sum(x * y for x, y in zip(a, b))


def spacetime_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Random numeric spacetime points in [-10, 10]^4 for pointwise spot checks."""
    return rng.uniform(-10.0, 10.0, size=(count, 4))
