"""Radical scalars, plane-wave records, and the exact sampling helpers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from csym import electron, photon
from csym.exact import EC_I, ExactComplex, ExactMatrix
from csym.sampling import (
    cross,
    dot,
    gaussian_rational_spinor,
    momentum_mass_energy,
    rational_orthogonal_vector,
    rational_unit_vector,
    spacetime_points,
)
from csym.waves import PlaneWaveFunction, Radical, bilinear, dirac_residual, measured_momentum


class TestRadical:
    def test_perfect_square_folds(self):
        r = Radical(1, Fraction(9, 4))
        assert r.radicand == 1 and r.coeff == ExactComplex(Fraction(3, 2))

    def test_product_of_matching_radicands(self):
        a = Radical(2, Fraction(3))
        b = Radical(5, Fraction(3))
        assert (a * b).to_exact() == ExactComplex(30)

    def test_commensurable_addition(self):
        # sqrt(8) = 2 sqrt(2)
        a = Radical(1, 2)
        b = Radical(1, 8)
        assert (a + b) == Radical(3, 2)

    def test_incommensurable_addition_rejected(self):
        with pytest.raises(ValueError, match="incommensurable"):
            Radical(1, 2) + Radical(1, 3)

    def test_negative_radicand_needs_branch(self):
        with pytest.raises(ValueError):
            Radical(1, -2)
        r = Radical.sqrt(Fraction(-4), negative_branch=ExactComplex(0, -1))
        assert r.to_exact() == ExactComplex(0, -2)

    def test_cross_radicand_equality(self):
        assert Radical(2, Fraction(9, 2)) == Radical(3, 2)
        assert Radical(1, 2) != Radical(1, 3)

    def test_zero_canonical(self):
        assert Radical(0, 5).is_zero()
        assert Radical(1, 0).is_zero()
        assert Radical(0, 5) == Radical(1, 0)

    def test_numeric_value(self):
        import math

        r = Radical(ExactComplex(0, 1), 2)
        assert r.to_complex() == pytest.approx(1j * math.sqrt(2))


class TestPlaneWaveFunction:
    def test_conjugate_function(self):
        f = PlaneWaveFunction([Radical(EC_I, 2)], [1, 0, 0, -2])
        g = f.conjugate_function()
        assert g.kappa == (-1, 0, 0, 2)
        assert g.amp[0].coeff == ExactComplex(0, -1)

    def test_matrix_application(self):
        m = ExactMatrix.from_rows([[0, 1], [1, 0]])
        f = PlaneWaveFunction([Radical(1, 2), Radical(3, 2)], [0, 0, 0, 0])
        g = f.apply_matrix(m)
        assert g.amp[0] == Radical(3, 2) and g.amp[1] == Radical(1, 2)

    def test_evaluate_matches_hand_value(self):
        import cmath

        f = PlaneWaveFunction([Radical(2, 1)], [Fraction(1, 2), 0, 0, 0])
        val = f.evaluate((3.0, 0.0, 0.0, 0.0))
        assert val[0] == pytest.approx(2 * cmath.exp(1.5j))

    def test_measured_momentum(self):
        # exp[-(i/h)(p0 x0 - p.x)] reads off as (p0, p)
        f = PlaneWaveFunction([Radical(1, 1)] * 2, [-3, 1, 2, -5])
        p0, p = measured_momentum(f)
        assert p0 == 3 and p == (1, 2, -5)


def _scalar_formula(rec, x):
    """A record's value at one point by the per-point cos/sin formula."""
    phase = sum(float(k) * float(xi) for k, xi in zip(rec.kappa, x))
    factor = complex(math.cos(phase), math.sin(phase))
    return np.array([a.to_complex() * factor for a in rec.amp])


def _states():
    """A photon and a moving electron state with irrational radicands."""
    ph = photon.photon_plane_wave((Fraction(3, 5), Fraction(4, 5), 0), (0, 0, 1), Fraction(7, 3),
                                  lam=ExactComplex(0, -1))
    sp = electron.build_spinor((Fraction(9, 13), Fraction(-12, 13), Fraction(36, 13)), 4,
                               (ExactComplex(1, 2), ExactComplex(-1, Fraction(1, 2))))
    return ph, sp


def _records(gamma4, gamma8):
    """Photon and electron records, plain and conjugated, with irrational radicands."""
    ph, sp = _states()
    return [
        ph.record(),
        photon.apply_Q_photon(ph, gamma8).record,
        sp.record(),
        electron.apply_C_spinor(sp, gamma4).record(),
        electron.apply_Q_spinor(sp, gamma4).record,
    ]


class TestDiracResidual:
    """One residual serves the photon's massless form and the electron's equation."""

    def test_one_perturbed_amplitude_is_caught(self, gamma4, gamma8):
        ph, sp = _states()
        cases = [(ph.record(), Fraction(0), gamma8.vector), (sp.record(), sp.mc, gamma4.vector)]
        for rec, mass_term, gammas in cases:
            assert dirac_residual(rec, mass_term, Fraction(1), gammas) == 0.0
            nonzero = next(a for a in rec.amp if not a.is_zero())  # a commensurable radicand
            for i, a in enumerate(rec.amp):
                amp = list(rec.amp)
                amp[i] = nonzero if a.is_zero() else a * 2
                bad = PlaneWaveFunction(amp, rec.kappa)
                assert dirac_residual(bad, mass_term, Fraction(1), gammas) > 0.0, i


def _rowwise_gap(a, b) -> float:
    return float(np.max(np.max(np.abs(a - b), axis=1) / np.max(np.abs(b), axis=1)))


class TestEvaluateOnArrays:
    """evaluate on an (N, 4) array equals evaluating its rows one at a time."""

    @pytest.mark.parametrize("n_points", [1, 7, 200])
    def test_array_matches_rows_and_scalar_formula(self, gamma4, gamma8, n_points):
        rng = np.random.default_rng(n_points)
        for rec in _records(gamma4, gamma8):
            assert any(a.radicand != 1 for a in rec.amp)
            x = spacetime_points(rng, n_points)
            values = rec.evaluate(x)
            assert values.shape == (n_points, len(rec.amp))
            rows = np.array([rec.evaluate(p) for p in x])
            assert rows.shape == values.shape
            assert _rowwise_gap(values, rows) <= 1e-14
            assert _rowwise_gap(values, np.array([_scalar_formula(rec, p) for p in x])) <= 1e-14

    def test_single_point_keeps_vector_shape(self, gamma4, gamma8):
        x = (Fraction(1, 2), -0.25, 0.75, 1)
        for rec in _records(gamma4, gamma8):
            value = rec.evaluate(x)
            assert value.shape == (len(rec.amp),)
            assert _rowwise_gap(value[None, :], _scalar_formula(rec, x)[None, :]) <= 1e-14


class TestBilinear:
    def test_mixed_radicands_fold_when_commensurable(self):
        # entries sqrt(2) and sqrt(8): products give rational values
        vec = (Radical(1, 2), Radical(1, 8))
        m = ExactMatrix.from_rows([[0, 1], [1, 0]])
        out = bilinear(vec, m, vec)
        assert out == ExactComplex(8)  # 2 * sqrt(2)*sqrt(8) = 2*4

    def test_identity_norm(self):
        vec = (Radical(ExactComplex(0, 2), Fraction(1, 2)),)
        out = bilinear(vec, ExactMatrix.identity(1), vec)
        assert out == ExactComplex(2)


class TestSamplingHelpers:
    def test_rational_unit_vectors(self, rng):
        for _ in range(50):
            n = rational_unit_vector(rng)
            assert dot(n, n) == 1
            assert all(isinstance(x, Fraction) for x in n)

    def test_orthogonal_vectors(self, rng):
        for _ in range(50):
            n = rational_unit_vector(rng)
            v = rational_orthogonal_vector(rng, n)
            assert dot(n, v) == 0 and any(v)

    def test_momentum_mass_energy_pythagorean(self, rng):
        for _ in range(50):
            p_abs, mc, p0 = momentum_mass_energy(rng)
            assert p0 * p0 == p_abs * p_abs + mc * mc
            assert p0 > 0 and mc > 0 and p_abs >= 0

    def test_gaussian_rational_spinor_nonzero(self, rng):
        for _ in range(20):
            z = gaussian_rational_spinor(rng)
            assert z[0] or z[1]

    def test_cross_product_identity(self, rng):
        for _ in range(20):
            n = rational_unit_vector(rng)
            l = rational_orthogonal_vector(rng, n)
            m = cross(n, l)
            assert dot(m, m) == dot(l, l)  # |n x l| = |l| for orthogonal unit n
            assert dot(m, n) == 0 and dot(m, l) == 0
