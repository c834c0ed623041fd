"""The Dirac equation: algebra, table, spinors, conjugations, charged form."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from csym.electron import (
    FIXED_POTENTIAL,
    FLIPPED_POTENTIAL,
    GAMMA4,
    POTENTIAL_RULES,
    ChargedEquation,
    DiracTransform,
    GammaIdentityError,
    SpinorState,
    apply_C_spinor,
    apply_Q_spinor,
    build_spinor,
    build_transform_table,
    conjugation_matrix,
    free_residual,
    solve_UQ,
    spinor_norm,
    transform_charged_equation,
    transformed_residual,
    verify_symmetry,
)
from csym.exact import EC_I, ExactComplex, ExactMatrix, anticommutator
from csym.report import RunConfig, random_spinor, run
from csym.sampling import spacetime_points
from csym.waves import PlaneWaveFunction, Radical, measured_momentum

MINUS_I = ExactComplex(0, -1)


def _reference_q_record(st, gs):
    """The Q image assembled term by term from the substituted labels.

    c, hbar, sigma and every 4-momentum label are negated; (n.sigma) is
    unchanged by n -> -n together with sigma -> -sigma.  Bispinor radicals
    take the conjugate branch (-i), the 1/sqrt(2 p0) prefactor the principal
    one; the relabeled function is conjugated and multiplied by -g2.
    """
    p0, mc, hb = -st.p0, -st.mc, Fraction(-st.hbar_sign)
    p = tuple(-pk for pk in st.p)
    (n1, n2, n3), (z0, z1) = st.n, st.z
    nsz = (n3 * z0 + ExactComplex(n1, -n2) * z1, ExactComplex(n1, n2) * z0 - n3 * z1)
    snorm = Radical(1, 1 / st.s)
    radp = Radical.sqrt(p0 + mc, negative_branch=MINUS_I)
    radm = Radical.sqrt(p0 - mc, negative_branch=MINUS_I)
    pref = Radical(1, 1 / (2 * p0)) if p0 > 0 else Radical(MINUS_I, -1 / (2 * p0))
    if st.branch == 1:
        parts = [radp * z0, radp * z1, radm * nsz[0], radm * nsz[1]]
    else:
        parts = [radm * nsz[0], radm * nsz[1], radp * z0, radp * z1]
    sign = -st.branch
    kappa = [sign * p0 / hb] + [-sign * pk / hb for pk in p]
    relabeled = PlaneWaveFunction([x * snorm * pref for x in parts], kappa)
    return relabeled.conjugate_function().apply_matrix(-gs.g2)


def _sigma_unflipped(monkeypatch):
    """Make every spinor record ignore its sigma label: a Q that keeps sigma."""
    record = SpinorState.record
    monkeypatch.setattr(
        SpinorState, "record", lambda st: record(dataclasses.replace(st, sigma_sign=1))
    )


class TestGammaAlgebra4:
    def test_anticommutators(self, gamma4):
        metric = (1, -1, -1, -1)
        for a in range(4):
            for b in range(4):
                want = ExactMatrix.identity(4).scale(2 * (metric[a] if a == b else 0))
                assert anticommutator(gamma4.vector[a], gamma4.vector[b]) == want

    def test_g5_product(self, gamma4):
        prod = (gamma4.g0 @ gamma4.g1 @ gamma4.g2 @ gamma4.g3).scale(MINUS_I)
        assert prod == gamma4.g5

    def test_g2_imaginary(self, gamma4):
        assert gamma4.g2.conj() == -gamma4.g2

    def test_transpose_pattern(self, gamma4):
        assert gamma4.g0.transpose() == gamma4.g0
        assert gamma4.g2.transpose() == gamma4.g2
        assert gamma4.g1.transpose() == -gamma4.g1
        assert gamma4.g3.transpose() == -gamma4.g3

    def test_g5_anticommutes(self, gamma4):
        for g in gamma4.vector:
            assert anticommutator(g, gamma4.g5).is_zero()

    @pytest.mark.parametrize("corrupt", [
        (name, i, j) for name in ("g0", "g1", "g2", "g3", "g5") for i in range(4) for j in range(4)
    ], ids=lambda c: "-".join(map(str, c)))
    def test_corruption_rejected(self, corrupt, gamma4, corrupt_gamma):
        with pytest.raises(GammaIdentityError):
            corrupt_gamma(gamma4, GAMMA4, *corrupt)


class TestConjugationMatrix:
    def test_nullity_one(self, gamma4):
        space = solve_UQ(gamma4)
        assert space.nullity == 1
        assert space.rank == 15

    def test_minus_g0g2_satisfies_constraints(self, gamma4):
        u = conjugation_matrix(gamma4)
        for g, sign in zip(gamma4.vector, (-1, 1, -1, 1)):
            assert u @ g == (g @ u).scale(sign)
        # which is exactly U g^aT U^-1 = -g^a
        for a, g in enumerate(gamma4.vector):
            assert u @ g.transpose() == (-g) @ u

    def test_identity_fails_constraints(self, gamma4):
        space = solve_UQ(gamma4)
        assert not space.contains(ExactMatrix.identity(4))

    def test_uc_equals_uq(self, gamma4):
        table = build_transform_table(gamma4)
        u_c = table["C"].matrix @ gamma4.g0
        assert u_c == conjugation_matrix(gamma4)
        assert conjugation_matrix(gamma4) == -(gamma4.g0 @ gamma4.g2)


class TestTransformTable:
    def test_entry_matrices(self, gamma4):
        table = build_transform_table(gamma4)
        assert table["P"].matrix == gamma4.g0.scale(EC_I)
        assert table["Q"].matrix == gamma4.g2 and table["Q"].conj
        assert table["QPT"].matrix == gamma4.g5.scale(EC_I)
        assert table["QT"].matrix == (gamma4.g1 @ gamma4.g2 @ gamma4.g3).scale(EC_I)
        assert table["QP"].matrix == (gamma4.g0 @ gamma4.g2).scale(EC_I)
        assert table["T"].matrix == (gamma4.g1 @ gamma4.g3).scale(MINUS_I)
        assert table["PT"].matrix == gamma4.g0 @ gamma4.g1 @ gamma4.g3

    def test_all_entries_certified(self, gamma4):
        table = build_transform_table(gamma4)
        for name, entry in table.items():
            assert verify_symmetry(entry, gamma4).holds, name

    def test_q_entries_flip_both_constants(self, gamma4):
        table = build_transform_table(gamma4)
        for name in ("Q", "QP", "QT", "QPT"):
            assert (table[name].c_sign, table[name].hbar_sign) == (-1, -1)
        for name in ("P", "T", "PT", "C", "CP", "CT", "CPT"):
            assert (table[name].c_sign, table[name].hbar_sign) == (1, 1)

    def test_correspondence_rows_share_matrices(self, gamma4):
        table = build_transform_table(gamma4)
        for c_name, q_name in (("C", "Q"), ("CP", "QP"), ("CT", "QT"), ("CPT", "QPT")):
            assert table[c_name].matrix == table[q_name].matrix
            assert table[c_name].conj == table[q_name].conj
            assert table[c_name].arg_sig == table[q_name].arg_sig

    def test_corrupted_entry_fails(self, gamma4):
        bad = DiracTransform("Q-bad", gamma4.g1, True, (1, 1), c_sign=-1, hbar_sign=-1)
        assert not verify_symmetry(bad, gamma4).holds

    def test_p_without_space_flip_fails(self, gamma4):
        bad = DiracTransform("P-bad", gamma4.g0.scale(EC_I), False, (1, 1))
        assert not verify_symmetry(bad, gamma4).holds

    def test_spot_residuals_all_entries(self, gamma4, rng):
        st = random_spinor(rng)
        rec = st.record()
        for name, entry in build_transform_table(gamma4).items():
            r = transformed_residual(entry, rec, st.m, st.c_sign, st.hbar_sign, gamma4)
            assert r == 0.0, name

    def test_singular_matrix_rejected(self, gamma4):
        with pytest.raises(ValueError, match="singular"):
            DiracTransform("bad", ExactMatrix.zeros(4, 4), False, (1, 1))


class TestSpinorStates:
    def test_pythagorean_norm(self, gamma4):
        st = build_spinor((Fraction(3, 2), 0, 0), 2, (1, 0))
        assert st.energy == Fraction(5, 2)
        assert spinor_norm(st, gamma4) == ExactComplex(2 * st.m)

    def test_negative_branch_norm(self, gamma4):
        st = build_spinor((Fraction(3, 2), 0, 0), 2, (1, 0), branch=-1)
        assert spinor_norm(st, gamma4) == ExactComplex(-2 * st.m)

    def test_random_norms_exact(self, gamma4, rng):
        for _ in range(50):
            st = random_spinor(rng)
            assert spinor_norm(st, gamma4) == ExactComplex(2 * st.m)
            neg = apply_C_spinor(st, gamma4)
            assert spinor_norm(neg, gamma4) == ExactComplex(-2 * st.m)

    def test_residual_zero_both_branches(self, gamma4, rng):
        for _ in range(25):
            st = random_spinor(rng)
            assert free_residual(st, gamma4) == 0.0
            assert free_residual(apply_C_spinor(st, gamma4), gamma4) == 0.0

    def test_rest_frame(self, gamma4):
        st = build_spinor((0, 0, 0), Fraction(3, 2), (1, 0))
        u = st.bispinor()
        assert u[1].is_zero() and u[2].is_zero() and u[3].is_zero()
        assert (u[0] * u[0].conjugate()).to_exact() == ExactComplex(2 * st.m)

    def test_irrational_energy_rejected(self):
        with pytest.raises(ValueError, match="perfect square"):
            build_spinor((1, 0, 0), 1, (1, 0))

    def test_zero_spinor_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            build_spinor((0, 0, 0), 1, (0, 0))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            build_spinor((0, 0, 0), 0, (1, 0))

    def test_effective_w_normalized(self):
        st = build_spinor((0, 0, 0), 2, (ExactComplex(3, 0), ExactComplex(0, 4)))
        # |z|^2 = 25 is folded into the amplitude, so w^dagger w = 1 exactly
        assert st.s == 25
        u = st.bispinor()
        total = (u[0] * u[0].conjugate() + u[1] * u[1].conjugate()).to_exact()
        assert total == ExactComplex(2 * st.m)


class TestConjugations:
    def test_c_produces_negative_branch_template(self, gamma4, rng):
        st = random_spinor(rng)
        neg = apply_C_spinor(st, gamma4)  # internal assertion checks the template
        assert neg.branch == -1
        assert neg.c_sign == st.c_sign and neg.hbar_sign == st.hbar_sign

    def test_record_is_built_once_per_state(self, gamma4, rng):
        st = random_spinor(rng)
        neg = apply_C_spinor(st, gamma4)  # builds neg's record for its assertion
        assert neg.record() is neg.record() and st.record() is st.record()
        assert dataclasses.replace(st, branch=-1).record() is not st.record()

    def test_c_labels(self, gamma4, rng):
        st = random_spinor(rng)
        neg = apply_C_spinor(st, gamma4)
        _, p_label = measured_momentum(neg.record())
        assert p_label == tuple(-x for x in st.p)
        assert neg.energy_label == -st.energy

    def test_c_involution(self, gamma4, rng):
        st = random_spinor(rng)
        back = apply_C_spinor(apply_C_spinor(st, gamma4), gamma4)
        assert back.z == st.z and back.branch == st.branch
        assert back.record() == st.record()

    def test_q_labels(self, gamma4, rng):
        st = random_spinor(rng)
        q = apply_Q_spinor(st, gamma4)
        assert (q.c_sign, q.hbar_sign) == (-st.c_sign, -st.hbar_sign)
        assert q.momentum_label == tuple(-x for x in st.p)
        assert q.energy_label == st.energy  # positive energy on the flipped hyperplane

    def test_cq_record_equality_exact(self, gamma4, rng):
        for _ in range(200):
            st = random_spinor(rng)
            assert apply_C_spinor(st, gamma4).record() == apply_Q_spinor(st, gamma4).record

    def test_cq_pointwise(self, gamma4, rng):
        for _ in range(50):
            st = random_spinor(rng)
            crec = apply_C_spinor(st, gamma4).record()
            qrec = apply_Q_spinor(st, gamma4).record
            x = spacetime_points(rng, 20)
            cv, qv = crec.evaluate(x), qrec.evaluate(x)
            scale = np.maximum(np.max(np.abs(cv), axis=1), 1e-300)
            # a NaN gap compares false, so it fails too
            assert np.all(np.max(np.abs(cv - qv), axis=1) / scale <= 1e-12)

    def test_pointwise_check_rejects_negated_q(self, monkeypatch):
        # one uniform radical branch turns C psi = Q psi into C psi = -Q psi
        def negated_q(state, gs):
            q = apply_Q_spinor(state, gs)
            return dataclasses.replace(q, record=q.record.scale(-1))

        monkeypatch.setattr("csym.electron.apply_Q_spinor", negated_q)
        report = run(RunConfig(suites=("electron",), samples=3))
        check = {c.id: c for c in report.checks}["electron.cq-pointwise-equality"]
        assert check.status == "fail"
        assert check.details == "worst relative gap 2.0"

    @pytest.mark.parametrize("branch", [1, -1])
    def test_q_record_matches_the_written_out_substitution(self, gamma4, rng, branch):
        for _ in range(200):
            st = random_spinor(rng, branch=branch)
            assert apply_Q_spinor(st, gamma4).record == _reference_q_record(st, gamma4)

    def test_commutator_vanishes(self, gamma4, rng):
        for _ in range(25):
            st = random_spinor(rng)
            cq = apply_C_spinor(apply_Q_spinor(st, gamma4), gamma4)
            qc = apply_Q_spinor(apply_C_spinor(st, gamma4), gamma4)
            assert cq.record == qc.record
            assert (cq.c_sign, cq.hbar_sign) == (qc.c_sign, qc.hbar_sign)
            assert cq.z_label == qc.z_label
            assert cq.record == st.record()

    def test_q_on_negative_branch(self, gamma4, rng):
        # the conjugation applied to a negative-branch state lands on the
        # positive branch of the flipped hyperplane and still solves the
        # equation written with the flipped constants
        from csym.waves import dirac_residual

        st = random_spinor(rng, branch=-1)
        q = apply_Q_spinor(st, gamma4)
        assert q.effective_branch == 1
        mass_term = st.m * Fraction(q.c_sign)
        assert dirac_residual(q.record, mass_term, Fraction(q.hbar_sign), gamma4.vector) == 0.0


class TestWrongQControl:
    """The C/Q checks must reject a Q that leaves sigma unflipped."""

    def test_unflipped_sigma_changes_the_q_record(self, gamma4, monkeypatch):
        st = build_spinor((Fraction(3, 2), 0, 0), 2, (1, 0))
        _sigma_unflipped(monkeypatch)
        assert apply_C_spinor(st, gamma4).record() != apply_Q_spinor(st, gamma4).record

    def test_rest_frame_cannot_tell(self, gamma4, monkeypatch):
        # at rest sqrt(p0 - mc) vanishes on the flipped hyperplane, so the
        # (n.sigma) pair carries no weight and the sign of sigma is invisible
        st = build_spinor((0, 0, 0), 2, (1, 1))
        _sigma_unflipped(monkeypatch)
        assert apply_C_spinor(st, gamma4).record() == apply_Q_spinor(st, gamma4).record

    def test_suite_checks_reject_unflipped_sigma(self, monkeypatch):
        _sigma_unflipped(monkeypatch)
        report = run(RunConfig(suites=("electron",), samples=3))
        by_id = {c.id: c for c in report.checks}
        check = by_id["electron.cq-record-equality"]
        assert check.status == "fail"
        assert check.details.startswith("records differ for SpinorState(")
        assert "sigma_sign=1" in check.details
        assert by_id["electron.cq-pointwise-equality"].status == "fail"
        assert by_id["electron.conjugation-commutator"].status == "fail"


class TestChargedEquation:
    def test_fixed_potential_flips_charge(self, gamma4):
        eq = ChargedEquation()
        out = transform_charged_equation(eq, FIXED_POTENTIAL, gamma4)
        assert out.form() == (-1, 1, 1, 1)
        assert (out.c_sign, out.hbar_sign) == (-1, -1)

    def test_flipped_potential_exact_symmetry(self, gamma4):
        eq = ChargedEquation()
        out = transform_charged_equation(eq, FLIPPED_POTENTIAL, gamma4)
        assert out.form() == eq.form()

    def test_zero_potential_reduces_to_free_result(self, gamma4):
        # with no potential the two rules agree: only the charge bookkeeping
        # differs, which multiplies a vanishing coupling term
        eq = ChargedEquation()
        fixed = transform_charged_equation(eq, FIXED_POTENTIAL, gamma4)
        flipped = transform_charged_equation(eq, FLIPPED_POTENTIAL, gamma4)
        assert fixed.mass_sign == flipped.mass_sign == 1
        assert fixed.charge_sign == -flipped.charge_sign

    def test_involution_both_rules(self, gamma4):
        eq = ChargedEquation()
        for rule in (FIXED_POTENTIAL, FLIPPED_POTENTIAL):
            once = transform_charged_equation(eq, rule, gamma4)
            assert transform_charged_equation(once, rule, gamma4) == eq

    def test_unknown_rule_rejected(self, gamma4):
        with pytest.raises(ValueError, match="potential_rule"):
            transform_charged_equation(ChargedEquation(), "nonsense", gamma4)

    def test_negative_charge_input(self, gamma4):
        eq = ChargedEquation(charge_sign=-1)
        out = transform_charged_equation(eq, FIXED_POTENTIAL, gamma4)
        assert out.charge_sign == 1

    def test_negated_potential_equals_negated_charge(self, gamma4):
        # e(-A) and (-e)A are the same coupling, so both spellings map alike
        negated_potential = ChargedEquation(charge_sign=1, a0_sign=-1, a_sign=-1)
        negated_charge = ChargedEquation(charge_sign=-1)
        for rule in POTENTIAL_RULES:
            a = transform_charged_equation(negated_potential, rule, gamma4)
            b = transform_charged_equation(negated_charge, rule, gamma4)
            assert a.form() == b.form()
        fixed = transform_charged_equation(negated_potential, FIXED_POTENTIAL, gamma4)
        assert fixed.form() == (1, 1, 1, 1)

    @pytest.mark.parametrize("a0_sign, a_sign", [(-1, 1), (1, -1)])
    def test_mismatched_potential_signs_rejected(self, gamma4, a0_sign, a_sign):
        eq = ChargedEquation(a0_sign=a0_sign, a_sign=a_sign)
        for rule in POTENTIAL_RULES:
            with pytest.raises(ValueError, match="a0_sign == a_sign"):
                transform_charged_equation(eq, rule, gamma4)
