"""Four-momentum arithmetic for the vacuum-transition feasibility argument.

A vacuum photon of negative energy cannot decay into a lower vacuum photon
plus a free pair: the would-be pair inherits the four-momentum difference of
the two vacuum photons, whose invariant mass squared is

    s = 2 hbar^2 w w' (n.n' - 1) <= 0,

while producing a pair of rest mass m requires s >= (2 m c^2)^2 > 0.  The
checker evaluates both sides numerically; the closed form above is derived
by hand and cross-checked against direct four-vector arithmetic.

Units: hbar = c = 1 throughout, so energies, momenta and frequencies share
one scale.
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
        if len(self.p) != 3:
            raise ValueError(f"momentum p must hold 3 components, got {self.p!r}")
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        object.__setattr__(self, "e", float(self.e))


def invariant_mass_sq(momenta: Sequence[FourMomentum]) -> float:
    """s = (sum e)^2 - |sum p|^2, with order-independent summation."""
    if not momenta:
        raise ValueError("invariant_mass_sq needs at least one four-momentum")
    e = math.fsum(m.e for m in momenta)
    return _minkowski_sq(e, np.array([math.fsum(m.p[i] for m in momenta) for i in range(3)]))


def _check_unit(name: str, n) -> np.ndarray:
    """n as float 3-vectors (shape (3,) or (N, 3)), each of unit length to 1e-9;
    a NaN length is not unit."""
    n = np.asarray(n, dtype=float)
    norm = np.atleast_1d((n * n).sum(axis=-1))
    off = ~(np.abs(norm - 1.0) <= 1e-9)
    if off.any():
        raise ValueError(f"{name} must be a unit vector: |{name}|^2 = {norm[off][0]}")
    return n


def _fsum_rows(a: np.ndarray):
    """math.fsum over the last axis: a float for one vector, an array for rows."""
    if a.ndim == 1:
        return math.fsum(a.tolist())
    return np.fromiter(map(math.fsum, a.tolist()), float, len(a))


def _minkowski_sq(e, p):
    """e^2 - |p|^2, the metric diag(+,-,-,-): a float for one four-vector (p of
    shape (3,)), an array for N of them (e of shape (N,), p of shape (N, 3))."""
    return e * e - _fsum_rows(p * p)


def _pair_mass_sq(omega, omega_prime, n, n_prime):
    """s of the would-be pair, for one draw or arrays of N draws.

    Energy balance -hbar w = -hbar w' + E_pair gives the pair the difference
    of the two (negative-energy) vacuum photon four-momenta.  Each component
    is one subtraction, so a draw gets the same bits alone or in a block.
    """
    p = np.asarray(omega_prime)[..., None] * n_prime - np.asarray(omega)[..., None] * n
    return _minkowski_sq(omega_prime - omega, p)


def closed_form_pair_mass_sq(omega, omega_prime, n, n_prime):
    """s = 2 hbar^2 w w' (n.n' - 1), the hand-expanded Minkowski norm.

    Takes one draw, or arrays of N draws (n and n_prime of shape (N, 3)) and
    returns one s per draw.
    """
    ndot = _fsum_rows(np.multiply(n, n_prime))
    return 2.0 * omega * omega_prime * (ndot - 1.0)


def _pair_threshold_reached(s, m: float):
    """The pair threshold (2 m c^2)^2 and whether s reaches it: a bool for one
    s, a bool array for an array of s.  A scalar m is read as a Python float,
    so a numpy mass gives a float threshold."""
    threshold = (2.0 * float(m)) ** 2
    return threshold, s >= threshold


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
    if not math.isfinite(omega_prime):
        raise ValueError(f"omega_prime must be finite, got {omega_prime}")
    if not 0 <= m < math.inf:
        raise ValueError(f"pair member mass m must be finite and nonnegative, got {m}")
    n, n_prime = _check_unit("n", n), _check_unit("n_prime", n_prime)
    s = float(_pair_mass_sq(omega, omega_prime, n, n_prime))  # the certificate prints repr(s)
    threshold, feasible = _pair_threshold_reached(s, m)
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


SCAN_BLOCK = 1_000  # draws evaluated together; bounds the arrays a scan holds


def _draw_block(rng: np.random.Generator, size: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """size draws in stream order: w, the ratio w'/w, then n and n' as rows
    of one (2, 3) normal draw (the same words as two (3,) draws).

    The words and formulas are rng.uniform's and rng.normal's: two randoms and
    one standard normal per draw fill preallocated rows, then the block takes
    lo + (hi - lo) * u and adds 0.0 to the normals, since rng.normal is
    0.0 + 1.0 * standard_normal, which turns -0.0 into 0.0.
    """
    u, z = np.empty((size, 2)), np.empty((size, 2, 3))
    random, standard_normal = rng.random, rng.standard_normal
    for u_row, z_row in zip(u, z):
        random(out=u_row)
        standard_normal(out=z_row)
    ratio_lo = 1.0 + 1e-9
    return (1e-3 + (1e3 - 1e-3) * u[:, 0], ratio_lo + (1e3 - ratio_lo) * u[:, 1], z + 0.0)


def infeasibility_scan(draws: int = 10_000, seed: int = 0, tolerance: float = 1e-12
                       ) -> ScanResult:
    """Seeded random scan: every draw must be infeasible for a pair of unit
    mass and the closed form must match direct four-vector evaluation to
    `tolerance`, relative to the working scale max(|s_direct|, |s_closed|,
    (w + w')^2) that bounds the differenced terms.  A non-finite gap or
    closed form fails the scan.

    The draws are taken from the generator one at a time, in stream order,
    and evaluated with numpy in blocks of SCAN_BLOCK; the result equals a
    draw-by-draw evaluation bit for bit.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    rng = np.random.default_rng(seed)
    feasible = 0
    worst = 0.0
    max_closed = -math.inf
    for start in range(0, draws, SCAN_BLOCK):
        omega, ratio, z = _draw_block(rng, min(SCAN_BLOCK, draws - start))
        omega_prime = omega * ratio
        if not np.all((omega_prime > omega) & (omega > 0)):
            raise ValueError("need omega_prime > omega > 0 in every draw")
        # a stacked matmul is the BLAS dot of np.linalg.norm, row by row
        z /= np.sqrt(np.matmul(z[..., None, :], z[..., :, None]))[..., 0]
        n = _check_unit("n", z[:, 0])
        n_prime = _check_unit("n_prime", z[:, 1])
        s = _pair_mass_sq(omega, omega_prime, n, n_prime)
        s_closed = closed_form_pair_mass_sq(omega, omega_prime, n, n_prime)
        # float ** 2 (libm pow), not w * w: they differ in the last bit for
        # about 1 in 1,200 values, and the scan's results are pinned bit for bit
        reach = np.array([w ** 2 for w in (omega + omega_prime).tolist()])
        scale = np.maximum(np.maximum(np.abs(s), np.abs(s_closed)), reach)
        feasible += int(np.count_nonzero(_pair_threshold_reached(s, 1.0)[1]))  # unit mass
        worst = _max_keeping_nan(worst, float(np.max(np.abs(s - s_closed) / scale)))
        max_closed = _max_keeping_nan(max_closed, float(np.max(s_closed / scale)))
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
