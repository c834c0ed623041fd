"""Four-momentum arithmetic for the vacuum-transition feasibility argument.

A vacuum photon of negative energy cannot decay into a lower vacuum photon
plus a free pair: the would-be pair inherits the four-momentum difference of
the two vacuum photons, whose invariant mass squared is

    s = 2 hbar^2 w w' (n.n' - 1) <= 0,

while producing a pair of rest mass m requires s >= (2 m c^2)^2 > 0.  The
checker evaluates both sides numerically; the closed form above is derived
by hand and cross-checked against direct four-vector arithmetic.

Units: hbar = c = 1 throughout, so energies, momenta and frequencies share
one scale.  Only invariant_mass_sq keeps c as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class FourMomentum:
    """(energy, momentum 3-vector) with metric diag(+,-,-,-)."""

    e: float
    p: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        object.__setattr__(self, "e", float(self.e))


def invariant_mass_sq(momenta: Sequence[FourMomentum], c: float = 1.0) -> float:
    """s = (sum e)^2 - c^2 |sum p|^2, with order-independent summation."""
    if not momenta:
        raise ValueError("invariant_mass_sq needs at least one four-momentum")
    e = math.fsum(m.e for m in momenta)
    p = [math.fsum(m.p[i] for m in momenta) for i in range(3)]
    return e * e - c * c * math.fsum(x * x for x in p)


def _check_unit(name: str, n) -> tuple[float, float, float]:
    n = tuple(float(x) for x in n)
    norm = math.fsum(x * x for x in n)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a unit vector: |{name}|^2 = {norm}")
    return n


def pair_momentum_from_vacuum_photons(omega: float, omega_prime: float, n, n_prime
                                      ) -> list[FourMomentum]:
    """The four-momenta whose sum the would-be pair must carry.

    Energy balance -hbar w = -hbar w' + E_pair gives the pair the difference
    of the two (negative-energy) vacuum photon four-momenta.
    """
    n = _check_unit("n", n)
    n_prime = _check_unit("n_prime", n_prime)
    before = FourMomentum(-omega, tuple(-omega * x for x in n))
    after = FourMomentum(-omega_prime, tuple(-omega_prime * x for x in n_prime))
    return [before, FourMomentum(-after.e, tuple(-x for x in after.p))]


def closed_form_pair_mass_sq(omega: float, omega_prime: float, n, n_prime) -> float:
    """s = 2 hbar^2 w w' (n.n' - 1), the hand-expanded Minkowski norm."""
    ndot = math.fsum(a * b for a, b in zip(n, n_prime))
    return 2.0 * omega * omega_prime * (ndot - 1.0)


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    s: float
    threshold: float
    certificate: str


def vacuum_transition_feasible(omega: float, omega_prime: float, n, n_prime,
                               m: float) -> FeasibilityVerdict:
    """Can a vacuum photon drop to a deeper one and emit a real pair of mass m?

    Feasible iff the available invariant mass squared reaches the pair
    threshold (2 m c^2)^2.  Since s <= 0 and the threshold is positive for
    m > 0, the verdict is infeasible for every admissible input.
    """
    if not (omega_prime > omega > 0):
        raise ValueError(
            f"need omega_prime > omega > 0, got omega={omega}, omega_prime={omega_prime}"
        )
    if m < 0:
        raise ValueError(f"pair member mass must be nonnegative, got {m}")
    s = invariant_mass_sq(pair_momentum_from_vacuum_photons(omega, omega_prime, n, n_prime))
    threshold = (2.0 * m) ** 2
    feasible = s >= threshold
    if feasible and s == threshold:
        status = "at threshold (marginal)"
    else:
        status = "reachable" if feasible else "unreachable"
    cert = f"s = {s!r} vs pair threshold (2 m c^2)^2 = {threshold!r}: {status}"
    return FeasibilityVerdict(feasible=feasible, s=s, threshold=threshold, certificate=cert)


@dataclass(frozen=True)
class ScanResult:
    """Outcome of infeasibility_scan.

    passed holds when no draw is feasible and every closed-form gap and
    closed-form value is finite and within tolerance.
    """

    seed: int
    draws: int
    feasible_draws: int
    passed: bool
    worst_relative_gap: float
    max_closed_form: float


def _max_keeping_nan(a: float, b: float) -> float:
    """max(a, b), except that a NaN on either side is the result.

    max() keeps its first argument whenever the comparison is false, so a
    running max() silently drops a NaN.
    """
    return a if a != a or b <= a else b


def infeasibility_scan(draws: int = 10_000, seed: int = 0, tolerance: float = 1e-12
                       ) -> ScanResult:
    """Seeded random scan: every draw must be infeasible for a pair of unit
    mass and the closed form must match direct four-vector evaluation to
    `tolerance`, relative to the working scale max(|s_direct|, |s_closed|,
    (w + w')^2) that bounds the differenced terms.  A non-finite gap or
    closed form fails the scan.
    """
    rng = np.random.default_rng(seed)
    feasible = 0
    worst = 0.0
    max_closed = -math.inf
    for _ in range(draws):
        omega = float(rng.uniform(1e-3, 1e3))
        omega_prime = omega * float(rng.uniform(1.0 + 1e-9, 1e3))
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        n_prime = rng.normal(size=3)
        n_prime /= np.linalg.norm(n_prime)
        verdict = vacuum_transition_feasible(omega, omega_prime, n, n_prime, 1.0)
        feasible += verdict.feasible
        s_closed = closed_form_pair_mass_sq(omega, omega_prime, n, n_prime)
        scale = max(abs(verdict.s), abs(s_closed), (omega + omega_prime) ** 2)
        worst = _max_keeping_nan(worst, abs(verdict.s - s_closed) / scale)
        max_closed = _max_keeping_nan(max_closed, s_closed / scale)
    return ScanResult(
        seed=seed,
        draws=draws,
        feasible_draws=feasible,
        passed=feasible == 0 and worst <= tolerance and max_closed <= tolerance,
        worst_relative_gap=worst,
        max_closed_form=max_closed,
    )


HBAR_FLIPS = "hbar_flips"  # the action quantum flips together with c
HBAR_FIXED = "hbar_fixed"  # the action quantum keeps its sign under c -> -c
CONVENTIONS = (HBAR_FLIPS, HBAR_FIXED)


def scalar_invariants(convention: str) -> dict[str, int]:
    """Sign of each composite scalar after c -> -c, per hbar convention.

    Reported scalars: the coupling e^2/(hbar c), the products hbar*c and
    hbar/c, and the rest mass via m' = m c^2 / (-c)^2 = m.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    c = -1
    hbar = -1 if convention == HBAR_FLIPS else 1
    e2 = 1  # e squared
    return {
        "e2_over_hbar_c": e2 * hbar * c,  # signs multiply since magnitudes are fixed
        "hbar_c": hbar * c,
        "hbar_over_c": hbar * c,
        "mass": 1,
    }
