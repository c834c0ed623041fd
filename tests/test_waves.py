"""Radical scalars, one-root plane-wave records, and the exact sampling helpers."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csym import electron, maxwell, photon, report
from csym.exact import EC_I, EC_ONE, ExactComplex, ExactMatrix
from csym.sampling import (
    cross,
    dot,
    gaussian_rational_spinor,
    momentum_mass_energy,
    rational_magnitude,
    rational_orthogonal_vector,
    rational_unit_vector,
    spacetime_points,
)
from csym.signgroup import FieldOperator
from csym.waves import (
    Image,
    PlaneWaveFunction,
    Radical,
    amplitude,
    bilinear,
    dirac_residual,
    labels,
    plane_wave,
)


class TestRadical:
    def test_perfect_square_folds(self):
        r = Radical(1, Fraction(9, 4))
        assert r.radicand == 1 and r.coeff == ExactComplex(Fraction(3, 2))

    def test_product_of_matching_radicands(self):
        a = Radical(2, Fraction(3))
        b = Radical(5, Fraction(3))
        assert a * b == Radical(30)

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
        assert r == Radical(ExactComplex(0, -2))

    def test_cross_radicand_equality(self):
        assert Radical(2, Fraction(9, 2)) == Radical(3, 2)
        assert Radical(1, 2) != Radical(1, 3)

    def test_zero_canonical(self):
        for zero in (Radical(0, 5), Radical(1, 0)):
            assert (zero.coeff, zero.radicand) == (ExactComplex(0), 1)
        assert Radical(0, 5) == Radical(1, 0)

    def test_numeric_value(self):
        import math

        r = Radical(ExactComplex(0, 1), 2)
        assert r.to_complex() == pytest.approx(1j * math.sqrt(2))


class TestPlaneWaveFunction:
    def test_conjugate_function(self):
        f = PlaneWaveFunction([EC_I], 2, [1, 0, 0, -2])
        g = f.conjugate_function()
        assert g.kappa == (-1, 0, 0, 2)
        assert g.vec == (ExactComplex(0, -1),) and g.root == 2

    def test_matrix_application(self):
        m = ExactMatrix.from_rows([[0, 1], [1, 0]])
        f = PlaneWaveFunction([EC_ONE, ExactComplex(3)], 2, [0, 0, 0, 0])
        g = f.apply_matrix(m)
        assert g.vec == (ExactComplex(3), EC_ONE) and g.root == 2

    def test_evaluate_matches_hand_value(self):
        import cmath

        f = PlaneWaveFunction([ExactComplex(2)], 1, [Fraction(1, 2), 0, 0, 0])
        val = f.evaluate((3.0, 0.0, 0.0, 0.0))
        assert val[0] == pytest.approx(2 * cmath.exp(1.5j))


def _scalar_formula(rec, x):
    """A record's value at one point by the per-point cos/sin formula."""
    phase = sum(float(k) * float(xi) for k, xi in zip(rec.kappa, x))
    factor = complex(math.cos(phase), math.sin(phase))
    return np.array([a.to_complex() * math.sqrt(rec.root) * factor for a in rec.vec])


def _states():
    """A photon and a moving electron state with irrational roots."""
    ph = photon.photon_plane_wave((Fraction(3, 5), Fraction(4, 5), 0), (0, 0, 1), Fraction(7, 3))
    sp = electron.build_spinor((Fraction(9, 13), Fraction(-12, 13), Fraction(36, 13)), 4,
                               (ExactComplex(1, 2), ExactComplex(-1, Fraction(1, 2))))
    return ph, sp


def _records(gamma4, gamma8):
    """Photon and electron records, plain and conjugated, with irrational roots."""
    ph, sp = _states()
    return [
        ph.record(),
        photon.apply_Q_photon(ph, gamma8).record(),
        sp.record(),
        electron.apply_C_spinor(sp, gamma4).record(),
        electron.apply_Q_spinor(sp, gamma4).record(),
    ]


def _flip(v):
    return tuple(-x for x in v)


def test_labels_of_every_kind_of_wave(gamma4, gamma8):
    """(energy, p): p0 and p read off exp[-(i/h)(p0 x0 - p.x)] at h = +1, energy c p0."""
    ph, sp = _states()
    q_sp = electron.apply_Q_spinor(sp, gamma4)
    w = ph.wave
    cases = [
        (Image(PlaneWaveFunction([EC_ONE] * 2, 1, [-3, 1, 2, -5]), -1, 1), (-3, (1, 2, -5))),
        (ph, (w.k0, w.k)),
        (photon.apply_C_photon(ph), (-w.k0, _flip(w.k))),  # negative energy, same hyperplane
        (photon.apply_Q_photon(ph, gamma8), (w.k0, _flip(w.k))),  # positive, flipped hyperplane
        (sp, (sp.energy, sp.p)),
        (electron.apply_C_spinor(sp, gamma4), (-sp.energy, _flip(sp.p))),
        (q_sp, (sp.energy, _flip(sp.p))),
        (electron.apply_C_spinor(q_sp, gamma4), (-sp.energy, sp.p)),  # C Q restores the function
    ]
    for wave, want in cases:
        assert labels(wave) == want, type(wave).__name__


def _wave():
    return maxwell.PlaneWave.make((0, 0, 1), (1, 0, 0), 1)


#: the constant record 1, the amplitude of the test waves built with plane_wave
_ONE = amplitude(Radical(1), [1])


def _plane_wave_with_sign(hbar_sign):
    return lambda: plane_wave(_ONE, Fraction(1), (0, 0, 0), hbar_sign)


@pytest.mark.parametrize("field, got, build", [
    ("branch", "True", lambda: electron.build_spinor((0, 0, 0), 1, (1, 0), branch=True)),
    ("hbar_sign", "True",
     lambda: photon.photon_plane_wave((0, 0, 1), (1, 0, 0), 1, hbar_sign=True)),
    ("c_sign", "True", lambda: photon.photon_plane_wave((0, 0, 1), (1, 0, 0), 1, c_sign=True)),
    ("c_sign", "True", lambda: maxwell.PlaneWave.make((0, 0, 1), (1, 0, 0), 1, c_sign=True)),
    ("hbar_sign", "True", _plane_wave_with_sign(True)),
    ("hbar_sign", "-1.0", _plane_wave_with_sign(-1.0)),
    ("hbar_sign", "2", _plane_wave_with_sign(2)),
    ("hbar_sign", "0", _plane_wave_with_sign(0)),
    # a Fraction hbar used to rescale kappa: Fraction(1, 2) doubled every label
    ("hbar_sign", r"Fraction\(1, 2\)", _plane_wave_with_sign(Fraction(1, 2))),
    ("hbar_sign", r"Fraction\(-1, 1\)", _plane_wave_with_sign(Fraction(-1))),
    # a state built directly validates its own signs
    ("hbar_sign", "True", lambda: photon.PhotonState(_wave(), hbar_sign=True)),
    ("hbar_sign", "0", lambda: photon.PhotonState(_wave(), hbar_sign=0)),
], ids=["build_spinor-branch", "photon-hbar_sign", "photon-c_sign", "PlaneWave-c_sign",
        "plane_wave-True", "plane_wave-float", "plane_wave-2", "plane_wave-0",
        "plane_wave-Fraction-half", "plane_wave-Fraction-minus-one",
        "PhotonState-True", "PhotonState-0"])
def test_bool_sign_rejected(field, got, build):
    """True == 1, so a bool passes `in (-1, 1)`; every sign label refuses it.

    plane_wave takes its hbar sign as the int +1 or -1 only, and names any
    other value it is given.
    """
    with pytest.raises(ValueError, match=rf"^{field} must be \+1 or -1, got {got}$"):
        build()


def _spinor_with(field, value):
    return electron.SpinorState(p=(Fraction(3, 2), Fraction(0), Fraction(0)), m=Fraction(2),
                                z=(ExactComplex(1), ExactComplex(0)), energy=Fraction(5, 2),
                                p_abs=Fraction(3, 2), **{field: value})


_IMAGE = Image(function=plane_wave(_ONE, Fraction(1), (0, 0, 0), 1),
               c_sign=1, hbar_sign=1)


def _spinor_image_with(field, value):
    fields = dict(vars(_IMAGE), z_label=(ExactComplex(1), ExactComplex(0)), effective_branch=1)
    return electron.ConjugatedSpinor(**(fields | {field: value}))


#: (label, constructor taking the label's value): every +-1 label of a state or wave
SIGN_LABELS = {
    "plane_wave": ("hbar_sign", lambda v: plane_wave(_ONE, Fraction(1), (0, 0, 0), v)),
    "PlaneWave.make": ("c_sign", lambda v: maxwell.PlaneWave.make((0, 0, 1), (1, 0, 0), 1, v)),
    "PhotonState": ("hbar_sign", lambda v: photon.PhotonState(_wave(), hbar_sign=v)),
    "photon_plane_wave": ("hbar_sign",
                          lambda v: photon.photon_plane_wave((0, 0, 1), (1, 0, 0), 1, v)),
    "build_spinor": ("branch", lambda v: electron.build_spinor((0, 0, 0), 1, (1, 0), v)),
    **{f"SpinorState-{f}": (f, lambda v, f=f: _spinor_with(f, v))
       for f in ("branch", "c_sign", "hbar_sign", "sigma_sign")},
    # records built by their own constructor, not by a factory, check their signs too
    "PlaneWave": ("c_sign", lambda v: replace(_wave(), c_sign=v)),
    **{f"DiracTransform-{f}": (f, lambda v, f=f: _dirac_transform_with(**{f: v}))
       for f in ("c_sign", "hbar_sign")},
    **{f"ChargedEquation-{f}": (f, lambda v, f=f: electron.ChargedEquation(**{f: v}))
       for f in ("charge_sign", "potential_sign", "mass_sign", "c_sign", "hbar_sign")},
    # conjugation images carry the signs of c and hbar and, for a spinor, its branch;
    # apply_C_spinor on an image of effective_branch 0 would give the zero label (0, 0)
    **{f"Image-{f}": (f, lambda v, f=f: replace(_IMAGE, **{f: v}))
       for f in ("c_sign", "hbar_sign")},
    **{f"ConjugatedSpinor-{f}": (f, lambda v, f=f: _spinor_image_with(f, v))
       for f in ("c_sign", "hbar_sign", "effective_branch")},
    # an operator names the entry of its sign tuples that breaks the rule
    "FieldOperator-arg_sig": ("arg_sig[2]",
                              lambda v: FieldOperator("X", (1, 1, v), (1,) * 16, False)),
    "FieldOperator-comp_signs": ("comp_signs[9]", lambda v: FieldOperator(
        "X", (1, 1, 1), (1,) * 9 + (v,) + (1,) * 6, False)),
}


def _dirac_transform_with(arg_sig=(1, 1), **signs):
    return electron.DiracTransform("E", ExactMatrix.identity(4), False, arg_sig, **signs)


@pytest.mark.parametrize("value", [True, 1.0, Fraction(1), 0, 2], ids=repr)
@pytest.mark.parametrize("constructor", SIGN_LABELS)
def test_one_sign_rule(constructor, value):
    """Every sign label is the int +1 or -1; equal-valued bool, float and Fraction are refused."""
    field, build = SIGN_LABELS[constructor]
    for good in (1, -1):
        build(good)
    message = rf"^{re.escape(field)} must be \+1 or -1, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        build(value)


@pytest.mark.parametrize("value", [True, 1.0, Fraction(1), 0, 2], ids=repr)
@pytest.mark.parametrize("k", [0, 1])
def test_arg_sig_entries_follow_the_sign_rule(k, value):
    """A table entry's two argument signs on (x0, x) are each the int +1 or -1."""
    for good in (1, -1):
        _dirac_transform_with(arg_sig=(good, -good))
    arg_sig = (value, 1) if k == 0 else (1, value)
    message = rf"^arg_sig\[{k}\] must be \+1 or -1, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        _dirac_transform_with(arg_sig=arg_sig)


@pytest.mark.parametrize("build", [
    lambda x: maxwell.PlaneWave.make((x, Fraction(4, 5), 0), (0, 0, 1), 1),
    lambda x: maxwell.PlaneWave.make((0, 0, 1), (x, 0, 0), 1),
    lambda x: maxwell.PlaneWave.make((0, 0, 1), (1, 0, 0), x),
    lambda x: maxwell.PlaneWave.make((0, 0, 1), (1, 0, 0), 1, m=(0, x, 0)),
    lambda x: electron.build_spinor((x, 0, 0), 1, (1, 0)),
    lambda x: electron.build_spinor((0, 0, 0), x, (1, 0)),
], ids=["PlaneWave-n", "PlaneWave-l", "PlaneWave-k0", "PlaneWave-m", "build_spinor-p",
        "build_spinor-m"])
def test_float_label_refused(build):
    """0.6 is no exact label: Fraction(0.6) would be the nearest binary fraction."""
    with pytest.raises(TypeError, match=r"^refusing inexact float 0\.6; pass int or Fraction$"):
        build(0.6)


def test_labels_kept_or_made_exact():
    """A Fraction label is stored as the same object; an int becomes a Fraction."""
    n, l, k0 = (Fraction(3, 5), Fraction(4, 5), Fraction(0)), (0, 0, Fraction(7, 2)), Fraction(7, 3)
    w = maxwell.PlaneWave.make(n, l, k0)
    assert w.n[0] is n[0] and w.n[1] is n[1] and w.l[2] is l[2] and w.k0 is k0
    p, m = (Fraction(3, 2), 0, Fraction(-2)), Fraction(6)  # |p| = 5/2, energy 13/2
    st = electron.build_spinor(p, m, (1, 0))
    assert st.p[0] is p[0] and st.p[2] is p[2] and st.m is m
    for x in (w.l[0], st.p[1], electron.build_spinor((0, 0, 0), 2, (1, 0)).m):
        assert x.__class__ is Fraction


class TestDiracResidual:
    """One residual serves the photon's massless form and the electron's equation."""

    def test_one_perturbed_amplitude_is_caught(self, gamma4, gamma8):
        ph, sp = _states()
        cases = [(ph.record(), Fraction(0), gamma8.vector), (sp.record(), sp.mc, gamma4.vector)]
        for rec, mass_term, gammas in cases:
            assert dirac_residual(rec, mass_term, 1, gammas) == 0.0
            nonzero = next(a for a in rec.vec if a)
            for i, a in enumerate(rec.vec):
                vec = list(rec.vec)
                vec[i] = a * 2 if a else nonzero
                bad = PlaneWaveFunction(vec, rec.root, rec.kappa)
                assert dirac_residual(bad, mass_term, 1, gammas) > 0.0, i


def _fields(rec):
    return rec.vec, rec.root, rec.kappa


class TestCQRecordsFieldByField:
    """C and Q build records alike, not only equal in value.

    Equal vectors and roots make the two float evaluations identical, which
    keeps both cq-pointwise-equality gaps at exactly 0.0.
    """

    @pytest.mark.parametrize("lam", photon.ALLOWED_LAMBDA, ids=repr)
    def test_photon(self, gamma8, rng, lam):
        for _ in range(50):
            st, c_rec, q_rec = report._photon_cq(rng, lam, gamma8)
            assert _fields(c_rec) == _fields(q_rec), st

    def test_electron(self, gamma4, rng):
        for _ in range(50):
            st, c_rec, q_rec = report._spinor_cq(rng, gamma4)
            assert _fields(c_rec) == _fields(q_rec), st


def _rowwise_gap(a, b) -> float:
    return float(np.max(np.max(np.abs(a - b), axis=1) / np.max(np.abs(b), axis=1)))


class TestEvaluateOnArrays:
    """evaluate on an (N, 4) array equals evaluating its rows one at a time."""

    @pytest.mark.parametrize("n_points", [1, 7, 200])
    def test_array_matches_rows_and_scalar_formula(self, gamma4, gamma8, n_points):
        rng = np.random.default_rng(n_points)
        for rec in _records(gamma4, gamma8):
            assert rec.root != 1
            x = spacetime_points(rng, n_points)
            values = rec.evaluate(x)
            assert values.shape == (n_points, len(rec.vec))
            rows = np.array([rec.evaluate(p) for p in x])
            assert rows.shape == values.shape
            assert _rowwise_gap(values, rows) <= 1e-14
            assert _rowwise_gap(values, np.array([_scalar_formula(rec, p) for p in x])) <= 1e-14

    def test_single_point_keeps_vector_shape(self, gamma4, gamma8):
        x = (Fraction(1, 2), -0.25, 0.75, 1)
        for rec in _records(gamma4, gamma8):
            value = rec.evaluate(x)
            assert value.shape == (len(rec.vec),)
            assert _rowwise_gap(value[None, :], _scalar_formula(rec, x)[None, :]) <= 1e-14


class TestBilinear:
    def test_mixed_radicands_fold_when_commensurable(self):
        # entries sqrt(2) and sqrt(8) = 2 sqrt(2): one root 2, products give rational values
        rec = PlaneWaveFunction((EC_ONE, ExactComplex(2)), 2, (0, 0, 0, 0))
        m = ExactMatrix.from_rows([[0, 1], [1, 0]])
        out = bilinear(rec, m)
        assert out == ExactComplex(8)  # 2 * sqrt(2)*sqrt(8) = 2*4

    def test_identity_norm(self):
        rec = amplitude(Radical(ExactComplex(0, 2), Fraction(1, 2)), [1])
        out = bilinear(rec, ExactMatrix.identity(1))
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


# ---------------------------------------------------------------------------
# Oracles for the int label paths: the plain Fraction formulas they replace
# ---------------------------------------------------------------------------

_rational = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-60, max_value=60, max_denominator=90),
    st.sampled_from([0, Fraction(0)]),
)
_vec3 = st.tuples(_rational, _rational, _rational)


def _fraction_dot(a, b):
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def _fraction_cross(a, b):
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


class TestIntVectorArithmetic:
    """dot and cross over one common denominator equal the Fraction formulas."""

    @settings(max_examples=300, deadline=None)
    @given(_vec3, _vec3)
    def test_rational_dot_and_cross(self, a, b):
        d, c = dot(a, b), cross(a, b)
        assert d == _fraction_dot(a, b) and d.__class__ is Fraction
        assert c == _fraction_cross(a, b) and all(x.__class__ is Fraction for x in c)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_rational, _rational), min_size=1, max_size=4))
    def test_gaussian_dot_is_the_generic_sum(self, pairs):
        """A record's vector is Gaussian rational; its dot is the plain sum."""
        a = [ExactComplex(x, y) for x, y in pairs]
        b = [ExactComplex(y, -x) for x, y in pairs]
        d = dot(a, b)
        assert d == sum(x * y for x, y in zip(a, b)) and isinstance(d, ExactComplex)


_KAPPA = (Fraction(1, 2), 0, -3, Fraction(7, 5))
_vector = st.lists(st.builds(ExactComplex, _rational, _rational), min_size=1, max_size=8)


class TestRecordValueEquality:
    """Records compare and hash by value, not by their fields."""

    @settings(max_examples=200, deadline=None)
    @given(_vector.filter(any), st.sampled_from([1, 2, 3, 5, 6, 7, 8, 12]), st.integers(2, 9))
    def test_rescaled_root_compares_and_hashes_equal(self, vec, r, k):
        """(v / k, k^2 r) is the (v, r) record; (v, 2 r) is it times sqrt(2)."""
        rec = PlaneWaveFunction(vec, r, _KAPPA)
        same = PlaneWaveFunction([a / k for a in vec], k * k * r, _KAPPA)
        assert same == rec and rec == same and hash(same) == hash(rec)
        x = spacetime_points(np.random.default_rng(k), 3)
        assert np.allclose(same.evaluate(x), rec.evaluate(x), rtol=1e-12, atol=0)
        doubled = PlaneWaveFunction(vec, 2 * r, _KAPPA)
        assert doubled != rec and rec != doubled
        assert doubled != same and doubled != rec.scale(2)

    def test_hash_examples(self):
        one, two, zero = ExactComplex(1), ExactComplex(2), ExactComplex(0)
        assert len({PlaneWaveFunction([one], 8, _KAPPA), PlaneWaveFunction([two], 2, _KAPPA)}) == 1
        # a zero vector is the value 0 whatever its root
        assert PlaneWaveFunction([zero], 5, _KAPPA) == PlaneWaveFunction([zero], 3, _KAPPA)
        assert PlaneWaveFunction([one], 2, _KAPPA) != PlaneWaveFunction([one], 3, _KAPPA)
        assert PlaneWaveFunction([one], 2, _KAPPA) != PlaneWaveFunction([one, zero], 2, _KAPPA)
        assert PlaneWaveFunction([one], 2, _KAPPA) != PlaneWaveFunction([one], 2, (0, 0, 0, 0))


def _parent_unit_vector(rng):
    while True:
        x, y, z = (int(v) for v in rng.integers(-9, 10, size=3))
        if z != 0 and (x, y) != (0, 0):
            break
    d = x * x + y * y + z * z
    v = [Fraction(2 * x * z, d), Fraction(2 * y * z, d), Fraction(z * z - x * x - y * y, d)]
    perm = rng.permutation(3)
    signs = rng.integers(0, 2, size=3) * 2 - 1
    return tuple(Fraction(int(signs[i])) * v[int(perm[i])] for i in range(3))


def _parent_orthogonal_vector(rng, n):
    while True:
        v = tuple(Fraction(int(c)) for c in rng.integers(-9, 10, size=3))
        vn = sum(a * b for a, b in zip(v, n))
        w = tuple(a - vn * b for a, b in zip(v, n))
        if any(w):
            return w


def _parent_magnitude(rng):
    mag = Fraction(int(rng.integers(1, 1000)), int(rng.integers(1, 1000)))
    exp = int(rng.integers(-3, 4))
    return mag * 10**exp if exp >= 0 else mag / 10 ** (-exp)


def _parent_spinor(rng):
    while True:
        parts = [Fraction(int(n), int(d)) for n, d in
                 zip(rng.integers(-9, 10, size=4), rng.integers(1, 10, size=4))]
        z = (ExactComplex(parts[0], parts[1]), ExactComplex(parts[2], parts[3]))
        if z[0] or z[1]:
            return z


@pytest.mark.parametrize("seed", [0, 1, 7])
class TestSamplingMatchesFractionFormulas:
    """200 draws per seed equal the Fraction formulas and consume the same stream."""

    def test_sampling_helpers(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            n, want_n = rational_unit_vector(rng), _parent_unit_vector(ref)
            assert n == want_n and all(x.__class__ is Fraction for x in n)
            l = rational_orthogonal_vector(rng, n)
            assert l == _parent_orthogonal_vector(ref, want_n)
            assert all(x.__class__ is Fraction for x in l)
            assert rational_magnitude(rng) == _parent_magnitude(ref)
            assert gaussian_rational_spinor(rng) == _parent_spinor(ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_spinor_direction_norm_and_signed_labels(self, seed, gamma4):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            sp = report.random_spinor(rng)
            states = (sp, electron.apply_C_spinor(sp, gamma4),
                      replace(sp, p=tuple(-x for x in sp.p), c_sign=-1, sigma_sign=-1))
            for s in states:
                # the lower block (sigma.p) z / |p0 + mc| is |p| / |p0 + mc| (sigma.n) z
                # on the direction n = p / |p|, any unit vector at rest
                n1, n2, n3 = (0, 0, 1) if s.p_abs == 0 else (pi / s.p_abs for pi in s.p)
                z0, z1 = s.z
                nsz = (n3 * z0 + ExactComplex(n1, -n2) * z1, ExactComplex(n1, n2) * z0 - n3 * z1)
                t = s.sigma_sign * s.p_abs / abs(s.p0 + s.mc)
                u = s.bispinor().vec
                upper, lower = (u[:2], u[2:]) if s.branch == 1 else (u[2:], u[:2])
                k = 0 if z0 else 1
                coeff = upper[k] / s.z[k]
                assert upper == (coeff * z0, coeff * z1)
                assert lower == tuple(coeff * t * x for x in nsz)
                assert s.s == s.z[0].norm_sq() + s.z[1].norm_sq()
                assert s.p0 == s.energy / Fraction(s.c_sign)
                assert s.mc == s.m * Fraction(s.c_sign)
