"""Four-momentum arithmetic and the pair-creation feasibility argument."""

import math

import numpy as np
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

    @pytest.mark.parametrize("p", [(1.0, 0.0), (1.0, 0.0, 0.0, 5.0)], ids=["two", "four"])
    def test_momentum_of_other_length_rejected(self, p):
        """s reads three momentum components; a fourth would be dropped silently."""
        with pytest.raises(ValueError, match=r"^momentum p must hold 3 components, got \("):
            FourMomentum(3.0, p)

    def test_permutation_invariance(self, rng):
        moms = [
            FourMomentum(float(rng.uniform(0.1, 10)), tuple(rng.uniform(-3, 3, 3)))
            for _ in range(9)
        ]
        s0 = invariant_mass_sq(moms)
        for _ in range(20):
            perm = [moms[i] for i in rng.permutation(len(moms))]
            assert invariant_mass_sq(perm) == s0


class TestVacuumTransition:
    def test_pair_momentum_hand_oracle(self):
        # hand expansion: s = hbar^2 [(w'-w)^2 - |w' n' - w n|^2]
        #               = 2 hbar^2 w w' (n.n' - 1)
        w, wp = 2.0, 5.0
        n, npr = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
        s = kinematics._pair_mass_sq(w, wp, n, npr)
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

    def test_numpy_scalar_inputs_give_a_float_s(self):
        # repr(np.float64(-4.0)) is "np.float64(-4.0)", which the certificate would print
        v = vacuum_transition_feasible(np.float64(1.0), np.float64(2.0), (0, 0, 1.0), (1.0, 0, 0),
                                       m=1.0)
        assert type(v.s) is float
        assert v.certificate == "s = -4.0 vs pair threshold (2 m c^2)^2 = 4.0: unreachable"

    def test_numpy_mass_gives_python_types(self):
        # (2.0 * np.float64(1.0)) ** 2 is a np.float64 and s >= it a numpy bool
        v = vacuum_transition_feasible(1.0, 2.0, (0, 0, 1.0), (1.0, 0, 0), m=np.float64(1.0))
        assert (type(v.feasible), type(v.threshold)) == (bool, float)
        assert v.certificate == "s = -4.0 vs pair threshold (2 m c^2)^2 = 4.0: unreachable"
        # a float mass keeps its bits
        assert vacuum_transition_feasible(1.0, 2.0, (0, 0, 1.0), (1.0, 0, 0),
                                          m=1 / 3).threshold == (2.0 * (1 / 3)) ** 2

    def test_preconditions_named(self):
        with pytest.raises(ValueError, match="omega_prime > omega"):
            vacuum_transition_feasible(2.0, 1.0, (0, 0, 1.0), (0, 0, 1.0), m=1.0)
        with pytest.raises(ValueError, match="unit"):
            vacuum_transition_feasible(1.0, 2.0, (0, 0, 2.0), (0, 0, 1.0), m=1.0)
        with pytest.raises(ValueError, match="mass"):
            vacuum_transition_feasible(1.0, 2.0, (0, 0, 1.0), (0, 0, 1.0), m=-1.0)

    def test_nan_direction_rejected(self):
        # |n|^2 = nan is not within 1e-9 of 1, though nan > 1e-9 is false too
        with pytest.raises(ValueError, match=r"n must be a unit vector: \|n\|\^2 = nan"):
            vacuum_transition_feasible(1.0, 2.0, (math.nan, 0.0, 0.0), (0.0, 0.0, 1.0), m=1.0)

    def test_infinite_omega_prime_rejected(self):
        with pytest.raises(ValueError, match="omega_prime must be finite, got inf"):
            vacuum_transition_feasible(1.0, math.inf, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0), m=1.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_non_finite_mass_rejected(self, m):
        with pytest.raises(ValueError, match=f"mass m must be finite and nonnegative, got {m}"):
            vacuum_transition_feasible(1.0, 2.0, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0), m=m)

    def test_seeded_scan(self):
        res = infeasibility_scan(draws=10_000, seed=0)
        assert res.passed
        assert res.worst_relative_gap <= 1e-12
        assert res.max_closed_form <= 1e-12

    @staticmethod
    def _assert_nan_fails(monkeypatch, index):
        """The array-valued closed form gives NaN at draw `index`, counted
        over a scan of one full block and one partial block."""
        closed_form = kinematics.closed_form_pair_mass_sq
        blocks = []

        def nan_at_index(omega, *args):
            out = closed_form(omega, *args)
            local = index - sum(blocks)
            blocks.append(len(omega))
            if 0 <= local < len(omega):
                out[local] = math.nan
            return out

        monkeypatch.setattr(kinematics, "closed_form_pair_mass_sq", nan_at_index)
        res = infeasibility_scan(draws=kinematics.SCAN_BLOCK + 500, seed=0)
        assert blocks == [kinematics.SCAN_BLOCK, 500]
        assert not res.passed and res.feasible_draws == 0
        assert math.isnan(res.worst_relative_gap) and math.isnan(res.max_closed_form)
        blocks.clear()
        report = run(RunConfig(suites=("kinematics",), samples=1))
        check = {c.id: c for c in report.checks}["kinematics.vacuum-transition-infeasible"]
        assert check.status == "fail"
        assert check.details.endswith("worst closed-form relative gap nan")

    def test_nan_closed_form_fails_the_scan(self, monkeypatch):
        # a running max() keeps its old value against NaN; np.max over a block must not
        self._assert_nan_fails(monkeypatch, 2)

    def test_nan_in_a_later_block_fails_the_scan(self, monkeypatch):
        # the NaN maximum of the second block must survive the first block's finite one
        self._assert_nan_fails(monkeypatch, kinematics.SCAN_BLOCK + 200)

    def test_feasible_draw_fails_the_scan_and_is_counted(self, monkeypatch):
        # lower the unit-mass pair threshold to the largest s of the report's
        # 10,000 draws: that draw alone becomes feasible, and every gap and
        # closed form keeps its value, so only the feasible count can fail the scan
        s_top = max(vacuum_transition_feasible(*draw, 1.0).s
                    for draw in _reference_draws(10_000, 0))
        reached = kinematics._pair_threshold_reached

        def lowered(s, m):
            if m == 0:  # the massless pair of collinear-marginal keeps its threshold
                return reached(s, m)
            return s_top, s >= s_top

        monkeypatch.setattr(kinematics, "_pair_threshold_reached", lowered)
        res = infeasibility_scan(draws=10_000, seed=0)
        assert res.feasible_draws == 1 and not res.passed
        assert res.worst_relative_gap <= 1e-12 and res.max_closed_form <= 1e-12
        report = run(RunConfig(suites=("kinematics",), samples=1))
        by_id = {c.id: c for c in report.checks}
        assert by_id["kinematics.collinear-marginal"].status == "pass"
        check = by_id["kinematics.vacuum-transition-infeasible"]
        assert check.status == "fail"
        assert "all infeasible" not in check.details
        assert check.details == ("10000 seeded draws (seed 0): 1 feasible; "
                                 "worst closed-form relative gap 7.605935559739658e-16")

    @pytest.mark.parametrize("draws", [0, -5])
    def test_empty_scan_rejected(self, draws):
        # with no draws the scan would pass whatever the code computes
        with pytest.raises(ValueError, match=f"draws must be at least 1, got {draws}"):
            infeasibility_scan(draws=draws)

    def test_draw_preconditions_checked_on_arrays(self, monkeypatch):
        draw_block = kinematics._draw_block

        def swapped(rng, size):
            omega, ratio, z = draw_block(rng, size)
            ratio[-1] = 0.5  # omega_prime < omega in the last draw
            return omega, ratio, z

        monkeypatch.setattr(kinematics, "_draw_block", swapped)
        with pytest.raises(ValueError, match="omega_prime > omega > 0"):
            infeasibility_scan(draws=10, seed=0)
        with pytest.raises(ValueError, match=r"n_prime must be a unit vector: \|n_prime\|\^2 = 4"):
            kinematics._check_unit("n_prime", [[0.0, 0.0, 1.0], [0.0, 2.0, 0.0]])

    def test_scan_reproducible(self):
        a = infeasibility_scan(draws=500, seed=7)
        b = infeasibility_scan(draws=500, seed=7)
        assert a == b


def _reference_draws(draws: int, seed: int):
    """(w, w', n, n') of each draw, taken from the generator as the scan
    did before the draws were evaluated in numpy blocks."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        omega = float(rng.uniform(1e-3, 1e3))
        omega_prime = omega * float(rng.uniform(1.0 + 1e-9, 1e3))
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        n_prime = rng.normal(size=3)
        n_prime /= np.linalg.norm(n_prime)
        yield omega, omega_prime, n, n_prime


def _reference_scan(draws: int, seed: int) -> kinematics.ScanResult:
    """The scan draw by draw through the single-draw API."""
    feasible = 0
    worst = 0.0
    max_closed = -math.inf
    for omega, omega_prime, n, n_prime in _reference_draws(draws, seed):
        verdict = vacuum_transition_feasible(omega, omega_prime, n, n_prime, 1.0)
        feasible += verdict.feasible
        s_closed = closed_form_pair_mass_sq(omega, omega_prime, n, n_prime)
        scale = max(abs(verdict.s), abs(s_closed), (omega + omega_prime) ** 2)
        worst = kinematics._max_keeping_nan(worst, abs(verdict.s - s_closed) / scale)
        max_closed = kinematics._max_keeping_nan(max_closed, s_closed / scale)
    return kinematics.ScanResult(
        seed=seed,
        draws=draws,
        feasible_draws=feasible,
        passed=feasible == 0 and worst <= 1e-12 and max_closed <= 1e-12,
        worst_relative_gap=worst,
        max_closed_form=max_closed,
    )


class TestBlockedScan:
    # 2,345 is not a multiple of SCAN_BLOCK, so the last block is partial
    @pytest.mark.parametrize("draws", [10_000, 2_345])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_matches_the_draw_by_draw_scan(self, seed, draws):
        assert infeasibility_scan(draws=draws, seed=seed) == _reference_scan(draws, seed)

    @pytest.mark.parametrize("seed, gap", [
        (0, "7.605935559739658e-16"),
        (1, "9.150122605552102e-16"),
        (7, "8.469097098707183e-16"),
    ])
    def test_report_details_are_byte_stable(self, seed, gap):
        report = run(RunConfig(suites=("kinematics",), samples=1, seed=seed))
        check = {c.id: c for c in report.checks}["kinematics.vacuum-transition-infeasible"]
        assert check.status == "pass"
        assert check.details == (
            f"10000 seeded draws (seed {seed}): all infeasible; "
            f"worst closed-form relative gap {gap}"
        )


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
