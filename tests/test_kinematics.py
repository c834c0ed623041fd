"""Four-momentum arithmetic and the pair-creation feasibility argument."""

import dataclasses
import math

import pytest

from csym import kinematics
from csym.kinematics import (
    CONVENTIONS,
    HBAR_FIXED,
    HBAR_FLIPS,
    FourMomentum,
    closed_form_pair_mass_sq,
    infeasibility_scan,
    invariant_mass_sq,
    pair_momentum_from_vacuum_photons,
    scalar_invariants,
    vacuum_transition_feasible,
)
from csym.report import RunConfig, run


class TestInvariantMass:
    def test_single_photon_null(self):
        w = 2.5
        p = FourMomentum(w, (0.0, 0.0, w))
        assert invariant_mass_sq([p]) == 0.0

    def test_back_to_back_photons(self):
        w = 3.0
        s = invariant_mass_sq([
            FourMomentum(w, (0.0, 0.0, w)),
            FourMomentum(w, (0.0, 0.0, -w)),
        ])
        assert s == (2 * w) ** 2

    def test_massive_particle_at_rest(self):
        assert invariant_mass_sq([FourMomentum(5.0, (0, 0, 0))]) == 25.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            invariant_mass_sq([])

    def test_permutation_invariance(self, rng):
        moms = [
            FourMomentum(float(rng.uniform(0.1, 10)), tuple(rng.uniform(-3, 3, 3)))
            for _ in range(9)
        ]
        s0 = invariant_mass_sq(moms)
        for _ in range(20):
            perm = [moms[i] for i in rng.permutation(len(moms))]
            assert invariant_mass_sq(perm) == s0

    def test_c_scaling(self):
        p = FourMomentum(3.0, (1.0, 0.0, 0.0))
        assert invariant_mass_sq([p], c=2.0) == 9.0 - 4.0


class TestVacuumTransition:
    def test_pair_momentum_hand_oracle(self):
        # hand expansion: s = hbar^2 [(w'-w)^2 - |w' n' - w n|^2]
        #               = 2 hbar^2 w w' (n.n' - 1)
        w, wp = 2.0, 5.0
        n, npr = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
        moms = pair_momentum_from_vacuum_photons(w, wp, n, npr)
        s = invariant_mass_sq(moms)
        by_hand = (wp - w) ** 2 - (wp**2 + w**2)  # n.n' = 0 here
        assert s == pytest.approx(by_hand, rel=1e-15)
        assert s == pytest.approx(closed_form_pair_mass_sq(w, wp, n, npr), rel=1e-12)

    def test_always_infeasible_for_massive_pairs(self):
        v = vacuum_transition_feasible(1.0, 3.0, (0, 0, 1.0), (1.0, 0, 0), m=0.5)
        assert not v.feasible
        assert v.s <= 0 < v.threshold
        assert "unreachable" in v.certificate

    def test_collinear_massless_marginal(self):
        v = vacuum_transition_feasible(1.0, 2.0, (0, 0, 1.0), (0, 0, 1.0), m=0.0)
        assert v.s == 0.0 and v.threshold == 0.0
        assert v.feasible and "marginal" in v.certificate

    def test_preconditions_named(self):
        with pytest.raises(ValueError, match="omega_prime > omega"):
            vacuum_transition_feasible(2.0, 1.0, (0, 0, 1.0), (0, 0, 1.0), m=1.0)
        with pytest.raises(ValueError, match="unit"):
            vacuum_transition_feasible(1.0, 2.0, (0, 0, 2.0), (0, 0, 1.0), m=1.0)
        with pytest.raises(ValueError, match="mass"):
            vacuum_transition_feasible(1.0, 2.0, (0, 0, 1.0), (0, 0, 1.0), m=-1.0)

    def test_seeded_scan(self):
        res = infeasibility_scan(draws=10_000, seed=0)
        assert res.passed
        assert res.worst_relative_gap <= 1e-12
        assert res.max_closed_form <= 1e-12

    def test_nan_closed_form_fails_the_scan(self, monkeypatch):
        # a running max() keeps its old value against NaN; the scan must not
        closed_form = kinematics.closed_form_pair_mass_sq
        calls = []

        def nan_on_third_draw(*args, **kwargs):
            calls.append(None)
            return math.nan if len(calls) == 3 else closed_form(*args, **kwargs)

        monkeypatch.setattr(kinematics, "closed_form_pair_mass_sq", nan_on_third_draw)
        res = infeasibility_scan(draws=10, seed=0)
        assert not res.passed and res.feasible_draws == 0
        assert math.isnan(res.worst_relative_gap) and math.isnan(res.max_closed_form)
        calls.clear()
        report = run(RunConfig(suites=("kinematics",), samples=1))
        check = {c.id: c for c in report.checks}["kinematics.vacuum-transition-infeasible"]
        assert check.status == "fail"
        assert check.details.endswith("worst closed-form relative gap nan")

    def test_feasible_draw_fails_the_scan_and_is_counted(self, monkeypatch):
        feasible = kinematics.vacuum_transition_feasible
        calls = []

        def feasible_on_first_massive_draw(omega, omega_prime, n, n_prime, m, *args):
            verdict = feasible(omega, omega_prime, n, n_prime, m, *args)
            if m > 0:  # the collinear-marginal check passes m = 0
                calls.append(None)
                if len(calls) == 1:
                    return dataclasses.replace(verdict, feasible=True)
            return verdict

        monkeypatch.setattr(kinematics, "vacuum_transition_feasible",
                            feasible_on_first_massive_draw)
        res = infeasibility_scan(draws=10, seed=0)
        assert res.feasible_draws == 1 and not res.passed
        calls.clear()
        report = run(RunConfig(suites=("kinematics",), samples=1))
        by_id = {c.id: c for c in report.checks}
        assert by_id["kinematics.collinear-marginal"].status == "pass"
        check = by_id["kinematics.vacuum-transition-infeasible"]
        assert check.status == "fail"
        assert "all infeasible" not in check.details
        assert check.details.startswith("10000 seeded draws (seed 0): 1 feasible; ")

    def test_scan_reproducible(self):
        a = infeasibility_scan(draws=500, seed=7)
        b = infeasibility_scan(draws=500, seed=7)
        assert a == b


class TestScalarInvariants:
    def test_fixed_action_convention(self):
        signs = scalar_invariants(HBAR_FIXED)
        assert signs["e2_over_hbar_c"] == -1
        assert signs["hbar_c"] == -1
        assert signs["hbar_over_c"] == -1
        assert signs["mass"] == 1

    def test_flipped_action_convention(self):
        signs = scalar_invariants(HBAR_FLIPS)
        assert signs == {
            "e2_over_hbar_c": 1,
            "hbar_c": 1,
            "hbar_over_c": 1,
            "mass": 1,
        }

    def test_mass_invariant_both(self):
        for conv in CONVENTIONS:
            assert scalar_invariants(conv)["mass"] == 1

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            scalar_invariants("sideways")
