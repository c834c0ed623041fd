"""The exact field-equation system, invariance proofs, and plane waves."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from csym import maxwell
from csym.exact import ExactComplex, ExactMatrix, solve
from csym.maxwell import (
    LinearFieldSystem,
    PlaneWave,
    build_maxwell_system,
    check_invariance,
    classical_conjugate_column,
    classical_conjugate_wave,
    energy_poynting,
    energy_poynting_record,
    field_column,
    plane_wave_residual,
    transform_system,
)
from csym.photon import photon_plane_wave
from csym.report import RunConfig, run
from csym.sampling import (
    cross,
    dot,
    rational_magnitude,
    rational_orthogonal_vector,
    rational_unit_vector,
)
from csym.signgroup import (
    FieldOperator,
    build_field_operators,
    canonical_operators,
    classical_conjugation_operator,
)
from csym.waves import Radical, amplitude


CANONICAL = canonical_operators()


@pytest.fixture(scope="module")
def system():
    return build_maxwell_system()


@pytest.fixture(scope="module")
def redundant_system(system):
    """The 14 rows plus a copy of the first: rank 14 over 15 rows."""
    rows = [system.rows.row(i) for i in range(system.n_equations)] + [system.rows.row(0)]
    return LinearFieldSystem(ExactMatrix.from_rows(rows), system.labels + system.labels[:1])


def _mutated_p1() -> FieldOperator:
    """P1 with the E block's sign flipped: not a symmetry of the system."""
    p1 = build_field_operators()["P1"]
    signs = [1] * 16
    for i in (1, 2, 3):
        signs[i] = -1
    return FieldOperator("bad", p1.arg_sig, tuple(signs), False)


def _rebuilt(sys, combo):
    """The combination of sys's rows with the given coefficients."""
    rebuilt = [ExactComplex(0)] * sys.rows.cols
    for coeff, row_idx in zip(combo, range(sys.n_equations)):
        if coeff.is_zero():
            continue
        for j, val in enumerate(sys.rows.row(row_idx)):
            rebuilt[j] = rebuilt[j] + coeff * val
    return tuple(rebuilt)


def _solve_row(sys, row):
    """The per-row elimination oracle: solve sys.rows^T x = row, or None."""
    return solve(sys.rows.transpose(), ExactMatrix.column(row))


def _k_space_residual(w):
    """Maxwell's source-free equations re-derived by hand in k-space.

    With d0 -> -i k0 and d_j -> +i k_j every equation value is i times a
    rational, and the factor i is dropped: curl H - d0 E -> k x m + k0 l,
    div H -> k.m, curl E + d0 H -> k x l - k0 m, div E -> k.l.
    """
    k = w.k
    km, kl = cross(k, w.m), cross(k, w.l)
    values = [km[i] + w.k0 * w.l[i] for i in range(3)] + [dot(k, w.m)]
    values += [kl[i] - w.k0 * w.m[i] for i in range(3)] + [dot(k, w.l)]
    return max(abs(v) for v in values)


class TestSystemAssembly:
    def test_equation_count(self, system):
        # 8 field equations plus 6 potential links, counted by hand
        assert system.n_equations == 14
        assert system.rows.cols == 16 * 5

    def test_time_derivative_coefficient_in_first_curl_row(self, system):
        # coefficient of d0 acting on E_x in the first curl equation is -1
        col = 1 * 5 + 1  # component E1, slot d0
        assert system.rows[0, col] == ExactComplex(-1)

    def test_div_h_row_touches_only_h(self, system):
        row_idx = system.labels.index("divH")
        for comp in range(16):
            for slot in range(5):
                val = system.rows[row_idx, comp * 5 + slot]
                if not val.is_zero():
                    assert comp in (5, 6, 7)


class TestInvariance:
    def test_identity_operator(self, system):
        op = build_field_operators()["E"]
        cert = check_invariance(system, op)
        assert cert.invariant

    def test_q2_transform_is_identical_system(self, system):
        op = build_field_operators()["Q2"]
        assert transform_system(system, op) == system.rows

    def test_all_sixteen_invariant(self, system):
        for name, op in canonical_operators().items():
            cert = check_invariance(system, op)
            assert cert.invariant, f"operator {name} should leave the system invariant"

    @pytest.mark.parametrize("name", list(CANONICAL))
    def test_certificates_reconstruct_rows(self, system, name):
        # the proof keeps no witness; an invariant verdict must still be one
        # that the per-row elimination oracle can witness, row by row
        op = CANONICAL[name]
        assert check_invariance(system, op).invariant
        transformed = transform_system(system, op)
        for i in range(transformed.rows):
            row = transformed.row(i)
            assert _rebuilt(system, _solve_row(system, row).entries) == row

    def test_mutated_operator_fails(self, system):
        assert not check_invariance(system, _mutated_p1()).invariant

    def test_mutated_failing_row_is_first_unsolvable(self, system):
        cert = check_invariance(system, _mutated_p1())
        rows = transform_system(system, _mutated_p1())
        unsolvable = [i for i in range(rows.rows) if _solve_row(system, rows.row(i)) is None]
        assert unsolvable and cert.failing_row == unsolvable[0]

    def test_transform_spanning_less_is_not_invariant(self, system, monkeypatch):
        # every row of this stand-in transform lies in the span, but it
        # repeats row 1 in place of row 0 and so spans less: containment
        # alone must not be taken for equality
        rows = [system.rows.row(1)] + [system.rows.row(i) for i in range(1, 14)]
        shrunk = ExactMatrix.from_rows(rows)
        monkeypatch.setattr(maxwell, "transform_system", lambda sys, op: shrunk)
        cert = check_invariance(system, CANONICAL["E"])
        assert not cert.invariant
        assert cert.failing_row == -1

    def test_factorisation_kept_on_the_system(self, system):
        assert system.span is system.span
        assert system.span.rank == 14

    def test_transformed_plane_wave_still_solves(self, system):
        # independent cross-check of invariance: transform a plane-wave
        # solution by each operator's signs and verify the residual directly
        w = PlaneWave.make(
            (Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)), (3, -2, 0), Fraction(5, 3)
        )
        canon = canonical_operators()
        for name, op in canon.items():
            e_sign = op.comp_signs[1]
            h_sign = op.comp_signs[5]
            e0, ex, _ = op.arg_sig
            # transformed field: E' = sE * E(eps x), k0' = e0*k0, k' = ex*e0*k
            # as a plane wave record: l' = sE*l, m' = sH*m, args rescaled
            l2 = tuple(e_sign * x for x in w.l)
            m2 = tuple(h_sign * x for x in w.m)
            k0_new = w.k0  # overall phase rescale leaves the dispersion intact
            n2 = tuple(e0 * ex * x for x in w.n)
            probe = PlaneWave.make(n2, l2, k0_new, m=m2)
            assert plane_wave_residual(system, probe) == 0, f"{name} broke the residual"


class TestRankDeficientSystem:
    """15 rows of rank 14: row combinations exist but are no longer unique."""

    def test_rank_below_row_count(self, redundant_system):
        assert redundant_system.n_equations == 15
        assert redundant_system.span.rank == 14

    @pytest.mark.parametrize("name", list(CANONICAL))
    def test_invariant_with_rebuilding_certificates(self, redundant_system, name):
        op = CANONICAL[name]
        cert = check_invariance(redundant_system, op)
        assert cert.invariant, name
        # one of the many combinations, the oracle's, rebuilds every row
        transformed = transform_system(redundant_system, op)
        for i in range(transformed.rows):
            row = transformed.row(i)
            assert _rebuilt(redundant_system, _solve_row(redundant_system, row).entries) == row

    def test_mutated_operator_fails(self, redundant_system, system):
        cert = check_invariance(redundant_system, _mutated_p1())
        assert not cert.invariant
        assert cert.failing_row == check_invariance(system, _mutated_p1()).failing_row


class TestPlaneWave:
    def test_axis_wave_residual_zero(self, system):
        w = PlaneWave.make((0, 0, 1), (1, 0, 0), 1)
        assert plane_wave_residual(system, w) == 0
        assert w.m == (Fraction(0), Fraction(1), Fraction(0))

    def test_both_c_signs(self, system):
        for cs in (1, -1):
            w = PlaneWave.make((0, 0, 1), (2, 1, 0), Fraction(3, 4), c_sign=cs)
            assert plane_wave_residual(system, w) == 0

    def test_system_rows_match_the_k_space_derivation(self, system, rng):
        # the residual read off the system's rows equals Maxwell's equations
        # written out by hand, on solutions and on wrong-m waves alike
        for _ in range(10):
            n = rational_unit_vector(rng)
            l = rational_orthogonal_vector(rng, n)
            k0 = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
            good = PlaneWave.make(n, l, k0)
            assert plane_wave_residual(system, good) == _k_space_residual(good) == 0
            wrong_m = tuple(Fraction(int(v), 7) for v in rng.integers(-9, 10, size=3))
            bad = PlaneWave.make(n, l, k0, m=wrong_m)
            assert plane_wave_residual(system, bad) == _k_space_residual(bad)
            if wrong_m != good.m:
                assert plane_wave_residual(system, bad) != 0

    def test_all_rows_vanish_with_the_wave_potential(self, system):
        # A = -i l / k0 with phi = 0 generates the wave: E = -d0 A = l and
        # H = curl A = n x l, so the potential links hold as well
        w = PlaneWave.make(
            (Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)), (3, -2, 0), Fraction(5, 3)
        )
        fields = [ExactComplex(x) for x in field_column(w)]
        for idx, lk in zip(maxwell.A_IDX, w.l):
            fields[idx] = ExactComplex(0, -lk / w.k0)
        slot = (ExactComplex(1), ExactComplex(0, -w.k0)) + tuple(ExactComplex(0, k) for k in w.k)
        column = ExactMatrix.column([f * d for f in fields for d in slot])
        assert all(v.is_zero() for v in (system.rows @ column).entries)

    def test_longitudinal_rejected(self):
        with pytest.raises(ValueError, match="transverse"):
            PlaneWave.make((0, 0, 1), (0, 0, 1), 1)

    def test_non_unit_guiding_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            PlaneWave.make((0, 0, 2), (1, 0, 0), 1)

    @pytest.mark.parametrize("data, message", [
        (dict(n=(0, 0, 2)), r"^guiding vector must be exactly unit: \|n\|\^2 = 4$"),
        (dict(l=(0, 0, 1)), r"^polarization must be transverse: n\.l = 1$"),
        (dict(l=(0, 0, 0)), r"^electric polarization l must be nonzero$"),
        (dict(k0=-1), r"^wavenumber k0 must be positive, got -1$"),
    ], ids=["non-unit-n", "l-parallel-to-n", "zero-l", "negative-k0"])
    def test_direct_construction_checks_the_wave(self, data, message):
        """PlaneWave itself refuses what make refuses, with the same message."""
        good = dict(l=(1, 0, 0), m=(0, 1, 0), n=(0, 0, 1), k0=1)
        fields = {k: tuple(map(Fraction, v)) if isinstance(v, tuple) else Fraction(v)
                  for k, v in {**good, **data}.items()}
        with pytest.raises(ValueError, match=message):
            PlaneWave(**fields)
        with pytest.raises(ValueError, match=message):  # a derived wave is checked too
            dataclasses.replace(PlaneWave.make((0, 0, 1), (1, 0, 0), 1), **fields)

    @pytest.mark.parametrize("build, message", [
        (lambda: PlaneWave.make((0, 0, 1), (1, 0, 0, 5), 1),
         r"^l must hold 3 exact rationals, got "),
        # the count is checked before m = n x l is formed
        (lambda: PlaneWave.make((0, 1), (1, 0, 0), 1), r"^n must hold 3 exact rationals, got "),
        (lambda: PlaneWave.make((0, 0, 1), (1, 0, 0), 1, m=(0, 1)),
         r"^m must hold 3 exact rationals, got "),
        (lambda: dataclasses.replace(PlaneWave.make((0, 0, 1), (1, 0, 0), 1), k0=1.5),
         r"^wavenumber k0 must be an exact rational, got 1\.5$"),
        (lambda: dataclasses.replace(PlaneWave.make((0, 0, 1), (1, 0, 0), 1), l=(1.0, 0.0, 0.0)),
         r"^l must hold 3 exact rationals, got \(1\.0, 0\.0, 0\.0\)$"),
    ], ids=["make-l-four", "make-n-two", "make-m-two", "direct-float-k0", "direct-float-l"])
    def test_vectors_hold_three_exact_entries(self, build, message):
        """field_column reads three entries per vector, and every label is exact."""
        with pytest.raises(ValueError, match=message):
            build()

    def test_wrong_magnetic_polarity_nonzero_residual(self, system):
        w = PlaneWave.make((0, 0, 1), (1, 0, 0), 1, m=(0, -1, 0))
        assert plane_wave_residual(system, w) != 0

    def test_magnetic_choice_forced_by_curl(self, system, rng):
        # the cross-product reading of the magnetic polarization is the one
        # and only sign that solves the curl equation
        for _ in range(10):
            n = rational_unit_vector(rng)
            l = rational_orthogonal_vector(rng, n)
            good = PlaneWave.make(n, l, Fraction(5, 2))
            assert plane_wave_residual(system, good) == 0
            flipped = PlaneWave.make(n, l, Fraction(5, 2), m=tuple(-x for x in cross(n, l)))
            assert plane_wave_residual(system, flipped) != 0


class TestClassicalConjugation:
    def test_column_negation(self):
        w = PlaneWave.make((0, 0, 1), (1, 2, 0), 1)
        phi = field_column(w)
        assert classical_conjugate_column(phi) == [-x for x in phi]

    def test_wave_conjugation(self):
        w = PlaneWave.make((0, 0, 1), (1, 2, 0), 1)
        cw = classical_conjugate_wave(w)
        assert cw.l == (-1, -2, 0)
        assert cw.m == tuple(-x for x in w.m)
        assert cw.n == w.n and cw.k0 == w.k0
        assert classical_conjugate_wave(cw) == w

    def test_conjugated_wave_still_solves(self, system):
        n = (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))
        w = PlaneWave.make(n, (1, 1, Fraction(-3, 2)), 2)
        assert plane_wave_residual(system, classical_conjugate_wave(w)) == 0

    def test_commutes_with_all_operators(self):
        ce = classical_conjugation_operator()
        for op in canonical_operators().values():
            assert ce.compose(op) == op.compose(ce)


class TestEnergyPoynting:
    def test_unit_wave_at_phase_zero(self):
        w = PlaneWave.make((0, 0, 1), (1, 0, 0), 1)
        W, S = energy_poynting(w, (0, 0, 0, 0))
        assert W == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)
        assert S[2] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)
        assert S[0] == 0.0 and S[1] == 0.0

    def test_flux_reverses_with_c_sign(self):
        w = PlaneWave.make((0, 0, 1), (1, 0, 0), 1, c_sign=-1)
        _, S = energy_poynting(w, (0, 0, 0, 0))
        assert S[2] < 0

    def test_symbolic_record_invariant_under_conjugation(self):
        w = PlaneWave.make((Fraction(3, 5), Fraction(4, 5), 0), (4, -3, 1), Fraction(7, 3))
        assert energy_poynting_record(w) == energy_poynting_record(classical_conjugate_wave(w))
        # (|l|^2 + |m|^2)/8 and c (l x m)/4, written out by hand
        energy, flux = energy_poynting_record(w)
        assert energy == (dot(w.l, w.l) + dot(w.m, w.m)) / 8
        assert flux == tuple(x / 4 for x in cross(w.l, w.m))

    def test_sampled_points_invariant(self, rng):
        w = PlaneWave.make((0, 0, 1), (2, -1, 0), Fraction(5, 4))
        cw = classical_conjugate_wave(w)
        for x in rng.uniform(-20, 20, size=(100, 4)):
            Wv, Sv = energy_poynting(w, x)
            Wc, Sc = energy_poynting(cw, x)
            assert Wv >= 0 and Wc >= 0
            assert Wc == pytest.approx(Wv, rel=1e-12, abs=1e-300)
            assert np.allclose(Sv, Sc, rtol=1e-12, atol=1e-300)

    def test_point_array_matches_each_point(self, rng):
        w = PlaneWave.make((Fraction(3, 5), Fraction(4, 5), 0), (4, -3, 1), Fraction(7, 3),
                           c_sign=-1)
        x = rng.uniform(-20, 20, size=(50, 4))
        W, S = energy_poynting(w, x)
        assert W.shape == (50,) and all(s.shape == (50,) for s in S)
        for i, xi in enumerate(x):
            Wi, Si = energy_poynting(w, xi)
            assert type(Wi) is float and all(type(s) is float for s in Si)
            assert W[i] == Wi and tuple(s[i] for s in S) == Si


class TestPlaneWaveRecord:
    """Maxwell's wave and the photon state read one waves record."""

    def test_record_is_the_field_column_times_the_phase(self):
        w = PlaneWave.make(
            (Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)), (3, -2, 0), Fraction(5, 3)
        )
        rec = w.record()
        assert rec.root == 1 and rec.vec == tuple(ExactComplex(x) for x in field_column(w))
        assert rec.kappa == (-w.k0,) + w.k  # exp[-i(k0 x0 - k.x)]

    def test_photon_record_is_the_normalized_wave_record(self, rng):
        for hbar_sign in (1, -1):
            for _ in range(10):
                n = rational_unit_vector(rng)
                l = rational_orthogonal_vector(rng, n)
                p0 = rational_magnitude(rng)
                wave_rec = PlaneWave.make(n, l, p0).record()
                photon_rec = photon_plane_wave(n, l, p0, hbar_sign=hbar_sign).record()
                # exp[-(i/hbar)(k0 x0 - k.x)]: a negative hbar negates kappa
                assert photon_rec.kappa == tuple(hbar_sign * k for k in wave_rec.kappa)
                # photon amplitude times sqrt(2 |l|^2) is the wave's, first 8 entries
                scaled = amplitude(Radical.sqrt(2 * dot(l, l)) * Radical(1, photon_rec.root),
                                   photon_rec.vec)
                assert scaled == amplitude(Radical(1), wave_rec.vec[:8])


def _energy_flux_check(monkeypatch, name, replacement):
    monkeypatch.setattr(maxwell, name, replacement)
    report = run(RunConfig(suites=("maxwell",), samples=20))
    return {c.id: c for c in report.checks}["maxwell.energy-flux-invariance"]


class TestEnergyFluxControls:
    """maxwell.energy-flux-invariance fails, and says why, on a wrong conjugate."""

    def test_flux_reversing_conjugate_fails_on_the_records(self, monkeypatch):
        # negating only l reverses the flux c (l x m)
        check = _energy_flux_check(
            monkeypatch, "classical_conjugate_wave",
            lambda w: dataclasses.replace(w, l=tuple(-x for x in w.l)),
        )
        assert check.status == "fail"
        assert "records equal" not in check.details and "within tolerance" not in check.details
        assert check.details.startswith("symbolic records differ: (1/4, (0, 0, 1/4)) vs ")

    def test_sampled_points_fail_when_the_records_are_not_compared(self, monkeypatch):
        # with every record reading alike, the flux reversal shows at a sampled point
        wrong = lambda w: dataclasses.replace(w, l=tuple(-x for x in w.l))  # noqa: E731
        monkeypatch.setattr(maxwell, "classical_conjugate_wave", wrong)
        check = _energy_flux_check(monkeypatch, "energy_poynting_record", lambda w: (0, ()))
        assert check.status == "fail"
        assert "within tolerance" not in check.details
        assert check.details.startswith("sampled point 0: W = ")
