"""The 8-component Dirac form: gamma algebra, conjugations, currents."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from csym import maxwell, photon, signgroup, waves
from csym import report as report_module
from csym.exact import EC_ONE, EC_ZERO, ExactComplex, ExactMatrix, RowSpan, anticommutator
from csym.photon import (
    ALLOWED_LAMBDA,
    GAMMA8,
    apply_C_photon,
    apply_Q_photon,
    currents,
    dirac_form_residual,
    gamma5_product_check,
    phase_displacement_form,
    photon_plane_wave,
    solve_conjugation_8,
)
from csym.gamma import GammaIdentityError
from csym.maxwell import PlaneWave, energy_poynting_record
from csym.report import RunConfig, run
from csym.sampling import (
    rational_magnitude,
    rational_orthogonal_vector,
    rational_unit_vector,
    spacetime_points,
)

MINUS_I = ExactComplex(0, -1)


def random_photon(rng, hbar_sign=1, c_sign=1):
    n = rational_unit_vector(rng)
    l = rational_orthogonal_vector(rng, n)
    return photon_plane_wave(n, l, rational_magnitude(rng), hbar_sign, c_sign)


class TestGammaAlgebra8:
    def test_g1_squared(self, gamma8):
        assert gamma8.g1 @ gamma8.g1 == ExactMatrix.identity(8).scale(-1)

    def test_shifted_g5_anticommutator(self, gamma8):
        want = ExactMatrix.identity(8).scale(-2)
        assert anticommutator(gamma8.g0, gamma8.g5) == want
        for g in (gamma8.g1, gamma8.g2, gamma8.g3):
            assert anticommutator(g, gamma8.g5).is_zero()

    def test_anticommutators_full(self, gamma8):
        metric = (1, -1, -1, -1)
        for a in range(4):
            for b in range(4):
                want = ExactMatrix.identity(8).scale(2 * (metric[a] if a == b else 0))
                assert anticommutator(gamma8.vector[a], gamma8.vector[b]) == want

    def test_reality_and_transposes(self, gamma8):
        assert gamma8.g0.conj() == gamma8.g0
        assert gamma8.g0.transpose() == gamma8.g0
        for g in (gamma8.g1, gamma8.g2, gamma8.g3):
            assert g.conj() == g
            assert g.transpose() == -g

    def test_g5_product_relation_fails_for_these_matrices(self, gamma8):
        # the claimed product form is inconsistent with the defining blocks:
        # the product is antisymmetric while the fifth matrix is symmetric
        equal, prod = gamma5_product_check(gamma8)
        assert not equal
        assert prod.transpose() == -prod
        assert gamma8.g5.transpose() == gamma8.g5
        assert gamma8.g5 == -gamma8.g0

    @pytest.mark.parametrize("corrupt", [
        (name, i, j) for name in ("g0", "g1", "g2", "g3", "g5") for i in range(8) for j in range(8)
    ], ids=lambda c: "-".join(map(str, c)))
    def test_corruption_rejected_with_named_identity(self, corrupt, gamma8, corrupt_gamma):
        with pytest.raises(GammaIdentityError, match="anticommutation|squared|hermitian|real|symmetric"):
            corrupt_gamma(gamma8, GAMMA8, *corrupt)


class TestConjugationSpace8:
    def test_nullity_matches_prebuild_oracle(self, gamma8):
        space = solve_conjugation_8(gamma8)
        assert space.nullity == 4
        assert space.rank + space.nullity == 64

    def test_lambda_g0_in_span(self, gamma8):
        space = solve_conjugation_8(gamma8)
        for lam in ALLOWED_LAMBDA:
            assert space.contains(gamma8.g0.scale(lam))

    def test_g0_satisfies_constraints_directly(self, gamma8):
        u = gamma8.g0
        assert (u @ gamma8.g0 - gamma8.g0 @ u).is_zero()
        for g in (gamma8.g1, gamma8.g2, gamma8.g3):
            assert (u @ g + g @ u).is_zero()

    def test_no_zero_basis_vector(self, gamma8):
        space = solve_conjugation_8(gamma8)
        assert all(not b.is_zero() for b in space.basis)


def _without_sources_and_zero_components(rows) -> ExactMatrix:
    """rows with the source columns (rho and J at slot 0) and every column of
    the two zero components set to 0: what is left acts on E and H alone."""
    dead = {maxwell._col(c, s) for c in signgroup.ZERO_SLOTS for s in range(maxwell.N_SLOTS)}
    dead |= {maxwell._col(c, 0) for c in (maxwell.RHO_IDX, *maxwell.J_IDX)}
    return ExactMatrix.from_rows(
        [EC_ZERO if j in dead else v for j, v in enumerate(row)] for row in rows)


class TestMaxwellForm:
    """The 8-component equation sum_a eps_a g^a d_a Psi = 0 on Psi = (0, E, 0, H)
    is Maxwell's source-free curl/div system exactly when eps is all + or all -."""

    @staticmethod
    def _photon_rows(gs, eps) -> ExactMatrix:
        # maxwell's layout: column j*N_SLOTS + 1 + a holds the coefficient of d_a Psi_j
        rows = []
        for i in range(8):
            row = [EC_ZERO] * maxwell.ROW_WIDTH
            for a, g in enumerate(gs.vector):
                for j in range(8):
                    row[maxwell._col(j, 1 + a)] = g[i, j] * eps[a]
            rows.append(row)
        return _without_sources_and_zero_components(rows)

    @pytest.mark.parametrize("eps", list(itertools.product((1, -1), repeat=4)), ids=str)
    def test_spans_equal_only_for_uniform_signs(self, gamma8, eps):
        system = maxwell.build_maxwell_system()
        field_rows = _without_sources_and_zero_components(
            system.rows.row(i) for i in range(maxwell.N_FIELD_EQUATIONS))
        span = RowSpan(field_rows)
        assert span.rank == maxwell.N_FIELD_EQUATIONS
        failing_row, rank = span.express(self._photon_rows(gamma8, eps))
        spans_equal = failing_row is None and rank == span.rank
        assert spans_equal == (len(set(eps)) == 1)


class TestPhotonState:
    def test_normalization_exact(self, rng):
        for _ in range(20):
            st = random_photon(rng)
            assert st.norm_sq() == EC_ONE

    def test_residual_zero(self, gamma8):
        st = photon_plane_wave((0, 0, 1), (1, 0, 0), 1)
        assert dirac_form_residual(st, gamma8) == 0.0

    def test_residual_blind_to_signs(self, gamma8, rng):
        for hs in (1, -1):
            for cs in (1, -1):
                st = random_photon(rng, hbar_sign=hs, c_sign=cs)
                assert dirac_form_residual(st, gamma8) == 0.0

    def test_longitudinal_rejected(self):
        with pytest.raises(ValueError, match="transverse"):
            photon_plane_wave((0, 0, 1), (0, 0, 1), 1)

    def test_bad_lambda_rejected(self, gamma8):
        st = photon_plane_wave((0, 0, 1), (1, 0, 0), 1)
        with pytest.raises(ValueError, match=r"^lambda must be one of \+1, -1, \+i, -i, got "):
            apply_C_photon(st, lam=ExactComplex(2))
        with pytest.raises(ValueError, match=r"^lambda must be one of \+1, -1, \+i, -i, got "):
            apply_Q_photon(st, gamma8, lam=ExactComplex(2))

    @pytest.mark.parametrize("p0", [0, Fraction(-3, 2)])
    def test_nonpositive_p0_rejected(self, p0):
        with pytest.raises(ValueError, match=f"wavenumber k0 must be positive, got {p0}"):
            photon_plane_wave((0, 0, 1), (1, 0, 0), p0)

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError, match=r"hbar_sign must be \+1 or -1, got 2"):
            photon_plane_wave((0, 0, 1), (1, 0, 0), 1, hbar_sign=2)
        with pytest.raises(ValueError, match=r"c_sign must be \+1 or -1, got 0"):
            photon_plane_wave((0, 0, 1), (1, 0, 0), 1, c_sign=0)

    def test_state_is_built_on_the_classical_wave(self, rng):
        for c in (1, -1):
            for _ in range(5):
                n = rational_unit_vector(rng)
                l = rational_orthogonal_vector(rng, n)
                p0 = rational_magnitude(rng)
                st = photon_plane_wave(n, l, p0, c_sign=c)
                assert st.wave == PlaneWave.make(n, l, p0, c)
                assert st.c_sign == c

    def test_state_holds_only_its_wave_and_two_labels(self):
        fields = [f.name for f in dataclasses.fields(photon.PhotonState)]
        assert fields == ["wave", "hbar_sign"]


class TestConjugations:
    def test_c_matches_explicit_form(self):
        st = photon_plane_wave((0, 0, 1), (1, 0, 0), Fraction(3, 2))
        conj = apply_C_photon(st, MINUS_I)
        rec = st.record()
        assert conj.record().kappa == tuple(-k for k in rec.kappa)
        assert dataclasses.replace(conj.record(), kappa=rec.kappa) == rec.scale(MINUS_I)

    def test_c_labels_negative_energy(self):
        st = photon_plane_wave((0, 0, 1), (1, 0, 0), Fraction(3, 2))
        conj = apply_C_photon(st)
        assert waves.labels(conj) == (-st.wave.k0, tuple(-x for x in st.wave.k))

    def test_c_twice_restores(self, rng):
        st = random_photon(rng)
        assert apply_C_photon(apply_C_photon(st)).record() == st.record()

    def test_q_labels_positive_energy_on_flipped_constants(self, gamma8):
        st = photon_plane_wave((0, 0, 1), (1, 0, 0), Fraction(3, 2))
        q = apply_Q_photon(st, gamma8)
        assert q.c_sign == -1 and q.hbar_sign == -1
        # positive again on the flipped hyperplane
        assert waves.labels(q) == (st.wave.k0, tuple(-x for x in st.wave.k))

    def test_cq_equality_records(self, gamma8, rng):
        for lam in ALLOWED_LAMBDA:
            for _ in range(25):
                st = random_photon(rng)
                assert apply_C_photon(st, lam).record() == apply_Q_photon(st, gamma8, lam).record()

    def test_cq_equality_pointwise(self, gamma8, rng):
        for _ in range(100):
            st = random_photon(rng)
            crec = apply_C_photon(st).record()
            qrec = apply_Q_photon(st, gamma8).record()
            x = spacetime_points(rng, 100)
            cv, qv = crec.evaluate(x), qrec.evaluate(x)
            scale = np.maximum(np.max(np.abs(cv), axis=1), 1e-300)
            # a NaN gap compares false, so it fails too
            assert np.all(np.max(np.abs(cv - qv), axis=1) / scale <= 1e-12)

    def test_q_twice_global_phase(self, gamma8, rng):
        for lam in ALLOWED_LAMBDA:
            st = random_photon(rng)
            twice = apply_Q_photon(apply_Q_photon(st, gamma8, lam), gamma8, lam)
            phase = lam * lam.conjugate()  # unimodular: the identity
            assert phase == EC_ONE
            assert twice.record() == st.record().scale(phase)

    def test_conjugated_state_still_solves(self, gamma8, rng):
        st = random_photon(rng)
        q = apply_Q_photon(st, gamma8)
        assert dirac_form_residual(q, gamma8) == 0.0

    def test_phase_displacement_form(self, gamma8, rng):
        st = random_photon(rng)
        assert phase_displacement_form(st) == apply_Q_photon(st, gamma8, lam=MINUS_I).record()

    def test_phase_displacement_differs_from_real_lambda(self, gamma8, rng):
        """The displaced form is the lam = -i conjugate: lam = 1 gives another record."""
        st = random_photon(rng)
        assert phase_displacement_form(st) != apply_Q_photon(st, gamma8, lam=1).record()


def _hbar_only_relabeled(wave):
    """A wrong Q relabeling: hbar flipped, the wave's own 4-momentum labels kept."""
    rec, hbar = wave.record(), Fraction(wave.hbar_sign)
    p0, p = -hbar * rec.kappa[0], [hbar * k for k in rec.kappa[1:]]
    return waves.plane_wave(rec, p0, p, -wave.hbar_sign)


class TestWrongQControl:
    """The C/Q record comparison must reject a Q that relabels wrongly."""

    def test_q_image_uses_the_flipped_labels(self, gamma8, rng, monkeypatch):
        st = random_photon(rng)
        assert apply_C_photon(st).record() == apply_Q_photon(st, gamma8).record()
        monkeypatch.setattr(photon, "_q_relabeled", _hbar_only_relabeled)
        wrong = apply_Q_photon(st, gamma8).record()
        assert wrong.kappa == tuple(-k for k in apply_C_photon(st).record().kappa)
        assert apply_C_photon(st).record() != wrong

    def test_record_equality_check_rejects_wrong_q(self, monkeypatch):
        monkeypatch.setattr(photon, "_q_relabeled", _hbar_only_relabeled)
        report = run(RunConfig(suites=("photon",), samples=3))
        by_id = {c.id: c for c in report.checks}
        check = by_id["photon.cq-record-equality"]
        assert check.status == "fail"
        assert check.details.startswith("records differ for state")

    def test_pointwise_check_rejects_wrong_q(self, monkeypatch):
        # the oracle's Q exponent with hbar flipped and the 4-momentum labels
        # kept, then conjugated: the state's own exponent, not C's
        monkeypatch.setattr(report_module, "_q_kappa", lambda p0, p, hbar_sign: tuple(
            -k for k in (p0 * hbar_sign, *(-x * hbar_sign for x in p))))
        report = run(RunConfig(suites=("photon",), samples=3))
        check = {c.id: c for c in report.checks}["photon.cq-pointwise-equality"]
        assert check.status == "fail"
        assert check.details.startswith("the exponents of C and Q differ for state PhotonState(")


class TestCurrentsAndEnergy:
    def test_currents_axis(self, gamma8):
        st = photon_plane_wave((0, 0, 1), (1, 0, 0), 1)
        j0, jk, j0c, jkc = currents(st, apply_C_photon(st), gamma8)
        assert j0 == EC_ONE and j0c == EC_ONE
        assert jk == (ExactComplex(0), ExactComplex(0), ExactComplex(1))
        assert jkc == jk

    def test_currents_x_direction(self, gamma8):
        st = photon_plane_wave((1, 0, 0), (0, 1, 0), 1)
        j0, jk, _, _ = currents(st, apply_C_photon(st), gamma8)
        assert (j0,) + jk == (EC_ONE, ExactComplex(1), ExactComplex(0), ExactComplex(0))

    def test_currents_random_equal_guiding_vector(self, gamma8, rng):
        for _ in range(10):
            st = random_photon(rng)
            j0, jk, j0c, jkc = currents(st, apply_Q_photon(st, gamma8), gamma8)
            assert j0 == EC_ONE and j0c == EC_ONE
            assert jk == tuple(ExactComplex(x) for x in st.wave.n)
            assert jkc == jk

    def test_conjugate_energy_negative_for_imaginary_lambda(self, rng):
        st = random_photon(rng)
        e0, f0 = energy_poynting_record(st)
        e1, f1 = energy_poynting_record(apply_C_photon(st, MINUS_I))
        assert e0 == ExactComplex(Fraction(1, 8))
        assert e1 == -e0 and e1.re < 0
        assert all(a == -b for a, b in zip(f1, f0))

    def test_conjugate_energy_kept_for_real_lambda(self, rng):
        st = random_photon(rng)
        e0, _ = energy_poynting_record(st)
        e1, _ = energy_poynting_record(apply_C_photon(st, ExactComplex(-1)))
        assert e1 == e0
