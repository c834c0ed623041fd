"""The kinematics closed form proved symbolically with sympy.

The scan compares closed_form_pair_mass_sq with direct four-vector
arithmetic only at sampled floats.  Here sympy proves, for all w, w' and all
unit vectors n, n', that

    (w' - w)^2 - |w' n' - w n|^2 = 2 w w' (n.n' - 1)    (hbar = c = 1),

by reducing the difference modulo the unit-length relations.  sympy is a
test-only dependency; csym never imports it.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from csym.kinematics import _pair_mass_sq, closed_form_pair_mass_sq

w, wp = sympy.symbols("w w_prime", positive=True)
n = sympy.symbols("n1:4", real=True)
m = sympy.symbols("m1:4", real=True)
GENS = (*n, *m, w, wp)
UNIT = [sum(x * x for x in n) - 1, sum(x * x for x in m) - 1]
NDOT = sum(a * b for a, b in zip(n, m))
CLOSED = 2 * w * wp * (NDOT - 1)


def _direct():
    """s of the pair's four-momentum: the difference of the two photons'."""
    p = [wp * b - w * a for a, b in zip(n, m)]
    return (wp - w) ** 2 - sum(x * x for x in p)


def _remainder(expr):
    """expr reduced modulo |n|^2 = |n'|^2 = 1 (a Groebner basis of that ideal)."""
    basis = sympy.groebner(UNIT, *GENS, order="lex")
    return basis.reduce(sympy.expand(expr))[1]


def test_closed_form_equals_direct_on_unit_vectors():
    assert _remainder(_direct() - CLOSED) == 0


def test_the_unit_length_condition_is_needed():
    assert sympy.expand(_direct() - CLOSED) != 0


@pytest.mark.parametrize("wrong", [
    2 * w * wp * (NDOT + 1),  # sign of the 1
    w * wp * (NDOT - 1),  # dropped factor 2
    2 * w * wp * (n[0] * m[0] - 1),  # one component of n.n'
])
def test_wrong_closed_forms_are_rejected(wrong):
    assert _remainder(_direct() - wrong) != 0


def test_the_model_matches_the_code():
    # the symbolic direct form, evaluated exactly at the code's float inputs;
    # 0.6 and 0.8 are unit only to float rounding, hence the tolerance
    cases = [
        (2.0, 5.0, (0.6, 0.8, 0.0), (0.0, 0.0, 1.0)),
        (1.0, 3.0, (0.0, 0.6, 0.8), (0.0, -0.8, 0.6)),
        (0.5, 4.0, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ]
    for omega, omega_prime, a, b in cases:
        subs = {w: Fraction(omega), wp: Fraction(omega_prime)}
        subs.update({x: Fraction(v) for x, v in zip(n, a)})
        subs.update({x: Fraction(v) for x, v in zip(m, b)})
        want = _direct().subs(subs)
        s = _pair_mass_sq(omega, omega_prime, a, b)
        assert s == pytest.approx(float(want), rel=1e-15, abs=1e-15)
        assert closed_form_pair_mass_sq(omega, omega_prime, a, b) == pytest.approx(
            float(want), rel=1e-15, abs=1e-15)


def test_the_model_matches_the_code_on_a_block_of_draws():
    # the scan evaluates _pair_mass_sq on arrays of draws; each entry must be
    # the symbolic direct form at that draw's floats, evaluated exactly, to
    # the rounding of the working scale (w + w')^2
    rng = np.random.default_rng(11)
    omega = rng.uniform(1e-3, 1e3, 200)
    omega_prime = omega * rng.uniform(1.0 + 1e-9, 1e3, 200)
    a, b = (z / np.linalg.norm(z, axis=1)[:, None] for z in rng.normal(size=(2, 200, 3)))
    s = _pair_mass_sq(omega, omega_prime, a, b)
    assert s.shape == (200,)
    exact = sympy.lambdify(GENS, _direct(), modules="math")
    for k in range(200):
        want = exact(*(Fraction(v) for v in (*a[k], *b[k], omega[k], omega_prime[k])))
        assert isinstance(want, Fraction)
        scale = Fraction(omega[k] + omega_prime[k]) ** 2
        assert abs(Fraction(s[k]) - want) <= Fraction(1e-15) * scale
