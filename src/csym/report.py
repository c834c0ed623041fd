"""Verification suite runner and report serialization.

Each check exercises one verified claim and yields a CheckResult.  The
checks form one table: each is registered once with its suite, id,
description and reference, and one runner executes a suite's entries in
order on that suite's lazily built fixtures.  A run is deterministic for a
fixed configuration (the random draws are seeded), and reports serialize
byte-identically.  Exact checks ignore the tolerance; it applies only to
floating-point spot checks at sampled spacetime points.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import pickle
from collections.abc import Callable
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import electron, kinematics, maxwell, photon, signgroup
from .exact import EC_ONE, ExactComplex
from .gamma import GammaIdentityError
from .sampling import (
    gaussian_rational_spinor,
    momentum_mass_energy,
    rational_magnitude,
    rational_orthogonal_vector,
    rational_unit_vector,
    spacetime_points,
)
from .waves import labels

VERSION = "0.1.0"

SUITES = ("group", "maxwell", "photon", "electron", "kinematics")

LAMBDA_TOKENS = {
    "1": ExactComplex(1),
    "+1": ExactComplex(1),
    "-1": ExactComplex(-1),
    "i": ExactComplex(0, 1),
    "+i": ExactComplex(0, 1),
    "-i": ExactComplex(0, -1),
}

POTENTIAL_RULE_TOKENS = (
    electron.FIXED_POTENTIAL,
    electron.FLIPPED_POTENTIAL,
    "both",
)

#: frozen pre-build oracle values for the conjugation-constraint nullspaces
EXPECTED_NULLITY_8 = 4
EXPECTED_NULLITY_4 = 1


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    id: str
    suite: str
    description: str
    reference: str
    status: str  # "pass" | "fail"
    details: str | None = None

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise ValueError(f"status must be pass or fail, got {self.status!r}")
        if self.status == "fail" and not self.details:
            raise ValueError(f"failing check {self.id} must carry details")


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a verification run.

    tolerance applies only to floating-point spot checks; exact checks
    ignore it.  lam selects the conjugation phase (one of 1, -1, i, -i) and
    potential_rule which charged-equation transformation rules to exercise.
    """

    suites: tuple[str, ...] = ("all",)
    samples: int = 100
    seed: int = 0
    tolerance: float = 1e-12
    lam: str = "-i"
    potential_rule: str = "both"

    def __post_init__(self):
        if not isinstance(self.suites, (tuple, list)):
            raise ValueError(f"suites must be a tuple of suite names, got {self.suites!r}")
        for name, kind, what in (("samples", int, "an int"), ("seed", int, "an int"),
                                 ("tolerance", (int, float), "a number"),
                                 ("lam", str, "a str"), ("potential_rule", str, "a str")):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        for s in self.suites:
            if s != "all" and s not in SUITES:
                raise ValueError(f"unknown suite {s!r}; valid: {('all',) + SUITES}")
        if not self.suites:
            raise ValueError("suites must not be empty")
        if self.samples <= 0:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance}")
        if self.lam not in LAMBDA_TOKENS:
            raise ValueError(f"lambda must be one of {sorted(LAMBDA_TOKENS)}, got {self.lam!r}")
        if self.potential_rule not in POTENTIAL_RULE_TOKENS:
            raise ValueError(
                f"potential_rule must be one of {POTENTIAL_RULE_TOKENS}, got {self.potential_rule!r}"
            )

    @property
    def lambda_value(self) -> ExactComplex:
        return LAMBDA_TOKENS[self.lam]

    def selected_suites(self) -> tuple[str, ...]:
        if "all" in self.suites:
            return SUITES
        # preserve canonical order, drop duplicates
        return tuple(s for s in SUITES if s in self.suites)

    def to_dict(self) -> dict:
        return {
            "suites": list(self.suites),
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "lambda": self.lam,
            "potential_rule": self.potential_rule,
        }


@dataclass(frozen=True)
class VerificationReport:
    config: RunConfig
    checks: tuple[CheckResult, ...]

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


#: how each object that checks share is built; one may be built from others
_FIXTURES: dict[str, Callable[[dict], object]] = {
    "group_table": lambda fx: signgroup.generate_g8(),
    "structure": lambda fx: signgroup.classify_group(fx["group_table"]),
    "ops": lambda fx: signgroup.build_field_operators(),
    "distinct": lambda fx: signgroup.enumerate_distinct(),
    "system": lambda fx: maxwell.build_maxwell_system(),
    "gamma8": lambda fx: photon.build_gamma8(),
    "gamma4": lambda fx: electron.build_gamma4(),
    "transform_table": lambda fx: electron.build_transform_table(fx["gamma4"]),
}


class _Fixtures(dict):
    """The objects one suite's checks share, each built once, on first use.

    A check names the fixtures it needs as its parameters.  They are built
    inside the check's run, so a setup defect fails the checks that need it
    rather than the run.  A build that raises is not stored: every check that
    needs it fails the same way.
    """

    def __missing__(self, name: str):
        self[name] = value = _FIXTURES[name](self)
        return value


@dataclass(frozen=True)
class _Check:
    suite: str
    id: str
    description: str
    reference: str
    fn: Callable[..., tuple[bool, str | None]]
    needs: tuple[str, ...]  # the fixtures fn takes, by parameter name
    potential_rule: str | None  # run only when the config exercises this rule


#: every check of every suite, in the order each suite runs them
_CHECKS: list[_Check] = []


def _check(suite: str, check_id: str, description: str, reference: str,
           potential_rule: str | None = None):
    """Register the decorated function as the next check of `suite`."""
    def register(fn):
        needs = tuple(inspect.signature(fn).parameters)
        _CHECKS.append(_Check(suite, check_id, description, reference, fn, needs, potential_rule))
        return fn
    return register


def _verdict(claims, passed: str) -> tuple[bool, str]:
    """Pass with `passed` if every (holds, fault) claim holds, else fail naming each fault."""
    faults = [fault for holds, fault in claims if not holds]
    return not faults, "; ".join(faults) or passed


def _run_suite(suite: str, config: RunConfig) -> list[CheckResult]:
    """Run the suite's checks in table order on one set of fixtures.

    A check that raises fails with the exception named.  A rejected gamma
    set fails with its message and ends the suite, since every later check
    needs the set.
    """
    # one seeded stream per suite, consumed in check order
    rng = np.random.default_rng([config.seed, SUITES.index(suite)])
    fx = _Fixtures(config=config, lam=config.lambda_value, rng=rng)
    results: list[CheckResult] = []
    for check in _CHECKS:
        if check.suite != suite:
            continue
        if check.potential_rule and config.potential_rule not in ("both", check.potential_rule):
            continue
        rejected = False
        try:
            ok, details = check.fn(*(fx[name] for name in check.needs))
        except GammaIdentityError as exc:
            ok, details, rejected = False, str(exc), True
        except Exception as exc:  # a crashed check is a failed check
            ok, details = False, f"check raised {type(exc).__name__}: {exc}"
        if not ok and not details:
            details = "no details"
        results.append(
            CheckResult(
                id=f"{suite}.{check.id}",
                suite=suite,
                description=check.description,
                reference=check.reference,
                status="pass" if ok else "fail",
                details=details,
            )
        )
        if rejected:
            break
    return results


# ---------------------------------------------------------------------------
# group suite
# ---------------------------------------------------------------------------


@_check("group", "sign-group-order",
        "the three coordinate sign flips generate exactly 8 matrices",
        "order-8 group of diagonal sign matrices on (x0, x, c)")
def _group_order(group_table):
    return group_table.order == 8, f"order = {group_table.order}"


@_check("group", "sign-group-abelian-involutions",
        "the group is abelian and every non-identity element has order 2",
        "commuting involutive generators")
def _group_abelian(structure):
    return (
        structure.is_abelian and structure.all_involutions,
        f"orders = {sorted(structure.element_orders.values())}",
    )


@_check("group", "sign-group-not-cyclic",
        "no single element generates the group (elementary abelian, not cyclic)",
        "computed structure of the sign-matrix group")
def _group_not_cyclic(group_table, structure):
    return (
        not structure.is_cyclic,
        "largest element order = "
        f"{max(structure.element_orders.values())} < {group_table.order}",
    )


@_check("group", "field-operator-table",
        "the six named operators carry their tabulated argument/component signs",
        "defining sign table of the field-function transformations")
def _defining_rows(ops):
    t1, q1, q2 = ops["T1"], ops["Q1"], ops["Q2"]
    t1_blocks = (("E", 1), ("H", -1), ("rho", 1), ("J", -1), ("phi", 1), ("A", -1))
    return _verdict([
        (t1.arg_sig == (-1, 1, 1) and not t1.charge_flip
         and all(t1.comp_signs[i] == sign
                 for blk, sign in t1_blocks for i in signgroup.BLOCKS[blk]),
         f"row T1 differs from its table entry: {t1}"),
        (q2.arg_sig == (1, 1, -1) and not q2.charge_flip and all(s == 1 for s in q2.comp_signs),
         f"row Q2 differs from its table entry: {q2}"),
        (q1.arg_sig == (1, 1, -1) and q1.charge_flip
         and all(q1.comp_signs[i] == -1 for i in signgroup.PHYSICAL_SLOTS),
         f"row Q1 differs from its table entry: {q1}"),
        (ops["E"] == signgroup.IDENTITY, f"row E is not the identity operator: {ops['E']}"),
    ], None)


@_check("group", "field-operator-relations",
        "squares, the equal pair products, and all listed commutators hold",
        "composition relations of the six operators")
def _relations():
    reports = signgroup.verify_relations()
    bad = [r.name for r in reports if not r.holds]
    return not bad, f"{len(reports)} relations checked" + (
        f"; failed: {bad}" if bad else ""
    )


@_check("group", "sixteen-distinct-symmetries",
        "the 64 subset products collapse to exactly 16 distinct operators",
        "count of distinct field-function symmetries")
def _sixteen(distinct):
    canon, name_map = distinct
    distinct = set(canon.values())
    unmatched = ["*".join(sorted(names, key=signgroup.CANONICAL_SIXTEEN.index))
                 for names, name in name_map.items() if name is None]
    if unmatched:
        return False, (f"product {unmatched[0]} matches no canonical operator "
                       f"({len(unmatched)} of {len(name_map)} products match none)")
    return (
        len(distinct) == 16 and len(name_map) == 64,
        f"{len(name_map)} subset products collapse onto {len(distinct)} operators",
    )


@_check("group", "worked-collapses",
        "the worked product collapses reduce to their canonical names",
        "example reductions of operator products")
def _collapses():
    worked = {("P1", "Q1", "Q2"): "P2", ("P1", "P2", "T1", "T2"): "E",
              ("P1", "P2", "T1", "T2", "Q1", "Q2"): "Q1Q2"}
    reduced = {names: signgroup.reduce_product(names) for names in worked}
    return _verdict([
        (reduced[names] == want,
         f"product {'*'.join(names)} matches no canonical operator" if reduced[names] is None
         else f"{'*'.join(names)} reduces to {reduced[names]}, not {want}")
        for names, want in worked.items()
    ], "P1*Q1*Q2 = P2; P1*P2*T1*T2 = E; all six at once = Q1Q2")


@_check("group", "classical-conjugation-composite",
        "Q1 Q2 negates every physical component, flips the charge label, squares to E",
        "classical charge conjugation as an operator product")
def _conjugation_composite():
    ce = signgroup.classical_conjugation_operator()
    return _verdict([
        (ce.arg_sig == (1, 1, 1), f"Q1Q2 maps the argument signs to {ce.arg_sig}"),
        (all(ce.comp_signs[i] == -1 for i in signgroup.PHYSICAL_SLOTS),
         f"Q1Q2 does not negate all 14 components: {ce.comp_signs}"),
        (ce.charge_flip, "Q1Q2 keeps the charge label"),
        (ce.compose(ce) == signgroup.IDENTITY, "Q1Q2 does not square to E"),
    ], "Q1Q2 fixes the arguments, negates all 14 components, flips e")


# ---------------------------------------------------------------------------
# maxwell suite
# ---------------------------------------------------------------------------


def _mutated_p1() -> signgroup.FieldOperator:
    """P1 with only the electric block flipped: breaks the curl-H equation."""
    p1 = signgroup.build_field_operators()["P1"]
    signs = [1] * 16
    for i in signgroup.BLOCKS["E"]:
        signs[i] = -1
    return signgroup.FieldOperator("P1-mutated", p1.arg_sig, tuple(signs), p1.charge_flip)


@_check("maxwell", "system-shape",
        "the field system has 14 exact equations over 16 components x 5 slots",
        "assembled field-equation system")
def _system_shape(system):
    return (
        system.n_equations == 14 and system.rows.cols == 80,
        f"{system.n_equations} equations, width {system.rows.cols}",
    )


@_check("maxwell", "invariance-all-sixteen",
        "every one of the 16 operators preserves the system's row space exactly",
        "discrete symmetry group of the field equations")
def _invariance(system, distinct):
    canon, _ = distinct
    failures = []
    for name, op in canon.items():
        cert = maxwell.check_invariance(system, op)
        if not cert.invariant:
            failures.append(name)
    return not failures, f"16 operators checked" + (
        f"; not invariant: {failures}" if failures else "; all row spaces equal"
    )


@_check("maxwell", "mutation-control",
        "a one-block sign mutation of the space-inversion operator is not a symmetry",
        "falsifiability control for the invariance checker")
def _mutation(system):
    cert = maxwell.check_invariance(system, _mutated_p1())
    return not cert.invariant, (
        f"mutated operator rejected (first offending row {cert.failing_row})"
        if not cert.invariant
        else "mutated operator unexpectedly passed"
    )


@_check("maxwell", "plane-wave-residual",
        "transverse plane waves solve the source-free system exactly, both c signs",
        "plane-wave solutions of the free equations")
def _residual_zero(system):
    waves = [
        maxwell.PlaneWave.make((0, 0, 1), (1, 0, 0), 1),
        maxwell.PlaneWave.make(
            (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)),
            (2, -1, 0), Fraction(7, 2),
        ),
        maxwell.PlaneWave.make((0, 0, 1), (3, 4, 0), Fraction(5, 9), c_sign=-1),
    ]
    residuals = [maxwell.plane_wave_residual(system, w) for w in waves]
    return all(r == 0 for r in residuals), f"residuals = {residuals}"


@_check("maxwell", "wrong-polarity-control",
        "flipping the magnetic polarization breaks the curl equation",
        "falsifiability control for the residual checker")
def _wrong_polarity(system):
    n, l = (Fraction(0), Fraction(0), Fraction(1)), (Fraction(1), Fraction(0), Fraction(0))
    bad_m = (0, -1, 0)  # minus the correct magnetic polarization
    w = maxwell.PlaneWave.make(n, l, 1, m=bad_m)
    r = maxwell.plane_wave_residual(system, w)
    return r != 0, f"flipped magnetic polarization leaves residual {r}"


@_check("maxwell", "constraint-rejection",
        "invalid plane-wave data is rejected naming the violated invariant",
        "plane-wave type preconditions")
def _rejections():
    try:
        maxwell.PlaneWave.make((0, 0, 1), (0, 0, 1), 1)
        return False, "non-transverse polarization was accepted"
    except ValueError as exc:
        msg1 = str(exc)
    try:
        maxwell.PlaneWave.make((0, 0, 2), (1, 0, 0), 1)
        return False, "non-unit guiding vector was accepted"
    except ValueError as exc:
        msg2 = str(exc)
    return "transverse" in msg1 and "unit" in msg2, f"{msg1!r}; {msg2!r}"


@_check("maxwell", "classical-conjugation",
        "the classical conjugation negates the field column and is an involution",
        "classical charge conjugation on plane waves")
def _classical_conjugation(distinct):
    w = maxwell.PlaneWave.make(
        (Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)), (3, -2, 0), Fraction(5, 4)
    )
    cw = maxwell.classical_conjugate_wave(w)
    phi = maxwell.field_column(w)
    ce = signgroup.classical_conjugation_operator()
    canon, _ = distinct
    return _verdict([
        (cw.l == tuple(-x for x in w.l) and cw.m == tuple(-x for x in w.m),
         "the conjugate's polarizations l and m are not both negated"),
        (cw.n == w.n and cw.k0 == w.k0, "the conjugate changes the guiding vector or k0"),
        (maxwell.classical_conjugate_wave(cw) == w, "conjugating twice does not restore the wave"),
        (maxwell.classical_conjugate_column(phi) == [-x for x in phi],
         "the conjugated field column is not the negated column"),
        (all(ce.compose(op) == op.compose(ce) for op in canon.values()),
         "Q1Q2 does not commute with every operator"),
    ], "polarizations negated, involution holds, composite is central")


@_check("maxwell", "energy-flux-invariance",
        "energy density and flux are nonnegative/forward and conjugation-invariant",
        "energy density and flux of a conjugated wave")
def _energy_flux(config, rng):
    tol = config.tolerance
    x = spacetime_points(rng, config.samples)
    w = maxwell.PlaneWave.make((0, 0, 1), (1, 0, 0), 1)
    cw = maxwell.classical_conjugate_wave(w)
    W0, S0 = maxwell.energy_poynting(w, (0.0, 0.0, 0.0, 0.0))
    if not (abs(W0 - 1.0 / (4.0 * math.pi)) <= tol
            and S0[2] > 0 and abs(S0[0]) <= tol and abs(S0[1]) <= tol):
        return False, f"W(0) = {W0!r}, S(0) = {S0!r}: expected 1/(4 pi) and a forward flux"
    rec, crec = maxwell.energy_poynting_record(w), maxwell.energy_poynting_record(cw)
    if rec != crec:  # exact symbolic invariance
        return False, f"symbolic records differ: {rec} vs conjugate {crec}"
    (wv, sv), (wc, sc) = maxwell.energy_poynting(w, x), maxwell.energy_poynting(cw, x)
    scale = np.maximum(np.abs(wv), 1e-300)
    ok = (wv >= 0) & (wc >= 0) & (np.abs(wv - wc) <= tol * scale)
    for a, b in zip(sv, sc):
        ok &= np.abs(a - b) <= tol * np.maximum(scale, 1.0)
    if not ok.all():
        i = int(np.argmin(ok))
        gap = max(abs(wv[i] - wc[i]), *(abs(a[i] - b[i]) for a, b in zip(sv, sc)))
        return False, (f"sampled point {i}: W = {float(wv[i])!r} and conjugate "
                       f"W = {float(wc[i])!r} (both must be >= 0), largest gap in W or S "
                       f"{float(gap)!r} (tolerance {tol!r})")
    return True, (
        f"W(0) = {W0!r} (expected 1/(4 pi)); symbolic records equal; "
        f"{config.samples} sampled points within tolerance"
    )


# ---------------------------------------------------------------------------
# photon suite
# ---------------------------------------------------------------------------


def _random_photon(rng, lam, hbar_sign=1, c_sign=1) -> photon.PhotonState:
    n = rational_unit_vector(rng)
    l = rational_orthogonal_vector(rng, n)
    p0 = rational_magnitude(rng)
    return photon.photon_plane_wave(n, l, p0, hbar_sign=hbar_sign, c_sign=c_sign, lam=lam)


def _photon_cq(rng, lam, gamma8):
    """Draw a photon state; return it with its C and Q records."""
    st = _random_photon(rng, lam)
    return st, photon.apply_C_photon(st).record(), photon.apply_Q_photon(st, gamma8).record()


def _worst_gap(rng, draws: int, n_points: int, draw_cq) -> float:
    """Worst relative gap between the C and Q records of `draws` states.

    draw_cq() returns (state, C record, Q record); each record is evaluated
    once on an array of n_points sampled spacetime points, and the gap of a
    point is max|cv - qv| / max|cv| over its components.  A non-finite gap
    anywhere makes the result non-finite, so it cannot pass a tolerance.
    """
    gaps = []
    for _ in range(draws):
        _, c_rec, q_rec = draw_cq()
        x = spacetime_points(rng, n_points)
        cv, qv = c_rec.evaluate(x), q_rec.evaluate(x)
        scale = np.maximum(np.max(np.abs(cv), axis=1), 1e-300)
        gaps.append(np.max(np.abs(cv - qv), axis=1) / scale)
    return float(np.max(gaps, initial=0.0))


@_check("photon", "gamma-defining-identities",
        "the 8x8 set passes its anticommutation/hermiticity/transpose/square identities",
        "defining identities of the 8-dimensional matrices")
def _gamma8_identities(gamma8):
    # asking for the set builds it; a rejected set raises GammaIdentityError
    return True, "all construction-time identities hold"


@_check("photon", "gamma5-product",
        "the product of the four basis matrices equals the fifth matrix",
        "claimed product form of the fifth 8-dimensional matrix")
def _g5_product(gamma8):
    equal, prod = photon.gamma5_product_check(gamma8)
    if equal:
        return True, None
    mismatches = sum(
        1 for a, b in zip(prod.entries, gamma8.g5.entries) if a != b
    )
    return False, (
        "g0 g1 g2 g3 does not equal the printed fifth matrix: the product is "
        "block-antisymmetric (top-right +I, bottom-left -I) while the fifth "
        f"matrix equals -g0; {mismatches} of 64 entries differ. The claimed "
        "product relation is inconsistent with the defining matrices, which "
        "satisfy every other listed identity."
    )


@_check("photon", "conjugation-matrix-space",
        "exact nullspace solving recovers the conjugation matrices, lambda*g0 included",
        "conjugation-matrix constraints in the 8-dimensional form")
def _conjugation_space_8(gamma8, lam):
    space = photon.solve_conjugation_8(gamma8)
    return _verdict([
        (space.nullity == EXPECTED_NULLITY_8 and space.rank + space.nullity == 64,
         f"nullity {space.nullity}, rank {space.rank}; oracle nullity {EXPECTED_NULLITY_8} of 64"),
        (space.contains(gamma8.g0), "g0 lies outside the span"),
        (space.contains(gamma8.g0.scale(lam)), f"lambda*g0 (lambda {lam!r}) lies outside the span"),
        (all(not b.is_zero() for b in space.basis), "a basis vector is zero"),
    ], f"nullity {space.nullity} (pre-recorded oracle {EXPECTED_NULLITY_8}), "
       "lambda*g0 lies in the span, no zero basis vector")


@_check("photon", "state-normalization",
        "random photon states are exactly normalized",
        "unit norm of the 8-component photon state")
def _photon_normalization(config, rng, lam):
    for _ in range(min(config.samples, 25)):
        st = _random_photon(rng, lam)
        norm = st.norm_sq()
        if norm != EC_ONE:
            return False, f"norm^2 {norm!r}, not 1, for state {st}"
    return True, "exact unit norm on random states"


@_check("photon", "state-residual",
        "photon states solve the massless equation exactly for both c and hbar signs",
        "sign blindness of the massless equation")
def _photon_residual(rng, lam, gamma8):
    residuals = {
        (hs, cs): photon.dirac_form_residual(
            _random_photon(rng, lam, hbar_sign=hs, c_sign=cs), gamma8)
        for hs in (1, -1) for cs in (1, -1)
    }
    return _verdict([
        (r == 0.0, f"residual {r!r} for hbar sign {hs}, c sign {cs}")
        for (hs, cs), r in residuals.items()
    ], "exact zero residual for all four sign combinations")


@_check("photon", "charge-conjugation-action",
        "C multiplies the conjugated record by lambda and reverses the phase",
        "charge conjugation of the photon state")
def _photon_c_action(rng, lam):
    st = _random_photon(rng, lam)
    conj = photon.apply_C_photon(st)
    rec, c_rec = st.record(), conj.record()
    energy, _ = labels(conj)
    return _verdict([
        (c_rec.kappa == tuple(-k for k in rec.kappa), "C does not reverse the phase"),
        (all(a == b * lam for a, b in zip(c_rec.amp, rec.amp)),
         f"C's amplitudes are not lambda = {lam!r} times the state's"),
        (photon.apply_C_photon(conj).record() == rec, "C C does not restore the record"),
        (energy == -st.wave.k0, f"C's energy label {energy} is not -k0 = {-st.wave.k0}"),
    ], "conjugate is lambda * conjugated record; double application restores")


@_check("photon", "cq-record-equality",
        "charge conjugation and light-speed inversion produce the same record",
        "pointwise identity of the two conjugations on photons")
def _photon_cq_symbolic(config, rng, lam, gamma8):
    for _ in range(config.samples):
        st, c_rec, q_rec = _photon_cq(rng, lam, gamma8)
        if c_rec != q_rec:
            return False, f"records differ for state {st}"
    return True, f"{config.samples} random states: records identical"


@_check("photon", "cq-pointwise-equality",
        "the two conjugated functions agree numerically at sampled spacetime points",
        "numerical spot check of the conjugation identity")
def _photon_cq_pointwise(config, rng, lam, gamma8):
    samples = config.samples
    worst = _worst_gap(rng, samples, samples, lambda: _photon_cq(rng, lam, gamma8))
    return worst <= config.tolerance, (
        f"{samples} states x {samples} points, worst relative gap {worst!r}"
    )


@_check("photon", "inversion-involution",
        "applying the light-speed inversion twice restores the original function",
        "involution property of the inversion")
def _q_double(rng, lam, gamma8):
    st = _random_photon(rng, lam)
    once = photon.apply_Q_photon(st, gamma8)
    twice = photon.apply_Q_photon(once, gamma8)
    phase = lam * lam.conjugate()
    signs, want = (twice.hbar_sign, twice.c_sign), (st.hbar_sign, st.c_sign)
    return _verdict([
        (twice.record() == st.record().scale(phase),
         f"Q Q does not restore the record up to the global phase {phase!r}"),
        (signs == want, f"Q Q leaves the (hbar, c) signs {signs}, not {want}"),
    ], f"double inversion restores the state (global phase {phase!r})")


@_check("photon", "displaced-phase-form",
        "the conjugate equals the sign-reversed, quarter-period-shifted rewriting",
        "alternative closed form of the inverted photon function")
def _displaced_phase(rng, gamma8):
    st = _random_photon(rng, ExactComplex(0, -1))
    if photon.phase_displacement_form(st) != photon.apply_Q_photon(st, gamma8).record():
        return False, f"the shifted rewriting differs from the Q record for state {st}"
    return True, "flipped polarizations with a +pi/2 phase shift give the same function"


@_check("photon", "conjugate-energy-sign",
        "the formal energy of the conjugated amplitudes scales by lambda squared",
        "negative formal energy of the conjugate for imaginary lambda")
def _negative_energy(rng, lam):
    st = _random_photon(rng, lam)
    base_e, base_f = maxwell.energy_poynting_record(st)
    conj_e, conj_f = maxwell.energy_poynting_record(photon.apply_C_photon(st))
    lam_sq = lam * lam
    claims = [(conj_e == base_e * lam_sq and all(a == b * lam_sq for a, b in zip(conj_f, base_f)),
               f"conjugated energy {conj_e} and flux are not lambda^2 = {lam_sq!r} times "
               f"the state's energy {base_e} and flux")]
    if lam == ExactComplex(0, -1) or lam == ExactComplex(0, 1):
        claims.append((conj_e.is_real() and conj_e.re < 0,
                       f"conjugated formal energy coefficient {conj_e} is not negative"))
        passed = f"conjugated formal energy coefficient {conj_e} < 0, flux reversed"
    else:
        passed = f"conjugated formal energy coefficient {conj_e} (real lambda keeps the sign)"
    return _verdict(claims, passed)


@_check("photon", "currents",
        "the bilinear currents are (1, n) for the state and its conjugate",
        "current bilinears and photon neutrality")
def _currents(config, rng, lam, gamma8):
    for _ in range(min(config.samples, 25)):
        st = _random_photon(rng, lam)
        conj = photon.apply_C_photon(st)
        j0, jk, j0c, jkc = photon.currents(st, conj, gamma8)
        if j0 != EC_ONE or j0c != EC_ONE:
            return False, f"time components {j0}, {j0c} differ from 1"
        if any(jk[i] != ExactComplex(st.wave.n[i]) for i in range(3)):
            return False, f"space components {jk} differ from n = {st.wave.n}"
        if any(jk[i] != jkc[i] for i in range(3)):
            return False, "conjugated current differs"
    return True, "j = (1, n) exactly for state and conjugate"


# ---------------------------------------------------------------------------
# electron suite
# ---------------------------------------------------------------------------


def random_spinor(rng, branch=1) -> electron.SpinorState:
    p_abs, mc, energy = momentum_mass_energy(rng)
    n = rational_unit_vector(rng)
    z = gaussian_rational_spinor(rng)
    return electron.SpinorState(p=tuple(p_abs * ni for ni in n), m=mc, z=z, energy=energy,
                                p_abs=p_abs, branch=branch)


def _spinor_cq(rng, gamma4):
    """Draw a spinor state; return it with its C and Q records."""
    st = random_spinor(rng)
    return (st, electron.apply_C_spinor(st, gamma4).record(),
            electron.apply_Q_spinor(st, gamma4).record())


@_check("electron", "gamma-defining-identities",
        "the Dirac set passes its full identity list including the product form",
        "defining identities of the 4-dimensional matrices")
def _gamma4_identities(gamma4):
    # asking for the set builds it; a rejected set raises GammaIdentityError
    return True, "constructor verified every identity exactly"


@_check("electron", "conjugation-matrix-unique",
        "the inversion-matrix constraints have a one-dimensional exact solution space",
        "conjugation-matrix constraints in the 4-dimensional form")
def _conjugation_space_4(gamma4):
    space = electron.solve_UQ(gamma4)
    u = electron.conjugation_matrix(gamma4)
    return _verdict([
        (space.nullity == EXPECTED_NULLITY_4 and space.rank + space.nullity == 16,
         f"nullity {space.nullity}, rank {space.rank}; oracle nullity {EXPECTED_NULLITY_4} of 16"),
        (space.contains(u), "-g0 g2 lies outside the span"),
        # the identity matrix u u fails the constraints
        (not space.contains(u @ u), "the identity matrix u u lies in the span"),
    ], f"nullity {space.nullity} (pre-recorded oracle {EXPECTED_NULLITY_4}); "
       "-g0 g2 spans the space; the identity matrix is excluded")


@_check("electron", "conjugation-matrices-coincide",
        "the charge-conjugation and inversion matrices are the same matrix",
        "equality of the two conjugation matrices")
def _uc_equals_uq(gamma4, transform_table):
    u_from_table = transform_table["C"].matrix @ gamma4.g0  # C psi = g2 psi* means U_C g0 = g2
    return (
        u_from_table == electron.conjugation_matrix(gamma4),
        "the charge-conjugation matrix equals the inversion matrix -g0 g2",
    )


@_check("electron", "transform-table-certified",
        "every table entry is certified as a free-equation symmetry operator-wise",
        "transformation table of the spinor equation")
def _table(gamma4, transform_table):
    bad = [
        name for name, entry in transform_table.items()
        if not electron.verify_symmetry(entry, gamma4).holds
    ]
    return not bad, f"{len(transform_table)} entries certified" + (
        f"; failed: {bad}" if bad else ""
    )


@_check("electron", "table-correspondence",
        "each charge-conjugation row matches its inversion row up to constant signs",
        "correspondence of the two table columns")
def _correspondence(transform_table):
    rows = [(transform_table[c], transform_table[q]) for c, q in electron.CORRESPONDENCE_PAIRS]
    return _verdict([claim for c_e, q_e in rows for claim in (
        (c_e.matrix == q_e.matrix and c_e.conj == q_e.conj and c_e.arg_sig == q_e.arg_sig,
         f"rows {c_e.name} and {q_e.name} differ in matrix, conjugation or argument signs"),
        ((c_e.c_sign, c_e.hbar_sign, q_e.c_sign, q_e.hbar_sign) == (1, 1, -1, -1),
         f"rows {c_e.name} and {q_e.name} do not carry the constant signs (+, +) and (-, -)"),
    )], "row-by-row: same matrices, constant signs differ")


@_check("electron", "corrupted-entry-control",
        "replacing the conjugation matrix by the wrong one fails certification",
        "falsifiability control for the table certifier")
def _corrupted_entry(gamma4):
    bad = electron.DiracTransform(
        "Q-corrupted", gamma4.g1, True, (1, 1), c_sign=-1, hbar_sign=-1
    )
    cert = electron.verify_symmetry(bad, gamma4)
    return not cert.holds, f"per-index verdicts {cert.per_index}"


@_check("electron", "spinor-normalization",
        "bispinor normalizations are exactly +2mc and -2mc per branch",
        "normalization of the explicit spinors")
def _spinor_normalization(config, rng, gamma4):
    for _ in range(min(config.samples, 40)):
        st = random_spinor(rng)
        if electron.spinor_norm(st, gamma4) != ExactComplex(2 * st.m):
            return False, f"positive branch norm wrong for {st}"
        neg = electron.apply_C_spinor(st, gamma4)
        if electron.spinor_norm(neg, gamma4) != ExactComplex(-2 * neg.m):
            return False, f"negative branch norm wrong for {neg}"
    return True, "ubar u = +2mc and -2mc exactly on random draws"


@_check("electron", "spinor-residuals",
        "explicit spinors solve the free equation exactly on both branches",
        "plane-wave solutions of the spinor equation")
def _spinor_residuals(config, rng, gamma4):
    for _ in range(min(config.samples, 40)):
        st = random_spinor(rng)
        if electron.free_residual(st, gamma4) != 0.0:
            return False, "positive-branch residual nonzero"
        if electron.free_residual(electron.apply_C_spinor(st, gamma4), gamma4) != 0.0:
            return False, "negative-branch residual nonzero"
    return True, "exact zero residual on both branches"


@_check("electron", "rest-frame",
        "at rest the bispinor collapses to sqrt(2 m c) times the 2-spinor",
        "rest-frame limit of the explicit spinor")
def _rest_frame(gamma4):
    st = electron.build_spinor((0, 0, 0), Fraction(3, 2), (1, 0))
    u = st.bispinor()
    two_mc, norm = ExactComplex(2 * st.m), electron.spinor_norm(st, gamma4)
    return _verdict([
        (u[2].is_zero() and u[3].is_zero(), "the lower block does not vanish"),
        ((u[0] * u[0].conjugate()).to_exact() == two_mc and u[1].is_zero(),
         f"the upper block is not sqrt(2 m c) w for w = (1, 0), 2 m c = {two_mc}"),
        (norm == two_mc, f"ubar u = {norm} is not 2 m c = {two_mc}"),
    ], "lower block vanishes; upper carries sqrt(2 m c) w")


@_check("electron", "charge-conjugation-action",
        "C maps the state to its negative-branch partner and is an involution",
        "charge conjugation of the explicit spinor")
def _spinor_c_action(rng, gamma4):
    st = random_spinor(rng)
    neg = electron.apply_C_spinor(st, gamma4)
    back = electron.apply_C_spinor(neg, gamma4)
    return _verdict([
        (neg.branch == -1 and neg.c_sign == st.c_sign,
         f"C's image has branch {neg.branch} and c sign {neg.c_sign}, not -1 and {st.c_sign}"),
        (labels(neg) == (-st.energy, tuple(-x for x in st.p)),
         "C's (energy, p) labels are not the state's negated"),
        (back.z == st.z and back.branch == 1,
         f"C C gives the spinor label {back.z} on branch {back.branch}, not {st.z} on 1"),
        (back.record() == st.record(), "C C does not restore the record"),
    ], "image is the negative-branch template state; double application restores")


@_check("electron", "cq-record-equality",
        "charge conjugation and light-speed inversion give the same spinor function",
        "pointwise identity of the two conjugations on spinors")
def _spinor_cq_symbolic(config, rng, gamma4):
    for _ in range(config.samples):
        st, c_rec, q_rec = _spinor_cq(rng, gamma4)
        if c_rec != st.record().conjugate_function().apply_matrix(gamma4.g2):
            return False, f"the partner state's record is not g2 psi* for {st}"
        if c_rec != q_rec:
            return False, f"records differ for {st}"
    return True, f"{config.samples} random draws: records identical"


@_check("electron", "cq-pointwise-equality",
        "the two conjugated spinor functions agree numerically at sampled points",
        "numerical spot check of the spinor conjugation identity")
def _spinor_cq_pointwise(config, rng, gamma4):
    worst = _worst_gap(rng, config.samples, max(10, config.samples // 10),
                       lambda: _spinor_cq(rng, gamma4))
    return worst <= config.tolerance, f"worst relative gap {worst!r}"


@_check("electron", "conjugation-commutator",
        "the two conjugations commute on spinor states",
        "vanishing commutator of the conjugations")
def _commutator(config, rng, gamma4):
    for _ in range(min(config.samples, 40)):
        st = random_spinor(rng)
        cq = electron.apply_C_spinor(electron.apply_Q_spinor(st, gamma4), gamma4)
        qc = electron.apply_Q_spinor(electron.apply_C_spinor(st, gamma4), gamma4)
        if cq.record() != qc.record():
            return False, "records of the two orders differ"
        if (cq.c_sign, cq.hbar_sign) != (qc.c_sign, qc.hbar_sign):
            return False, "constant signs of the two orders differ"
        if cq.z_label != st.z or qc.z_label != st.z:
            return False, "spin labels of the two orders do not restore the state's"
        if cq.record() != st.record():
            return False, "composite does not restore the original function"
    return True, "both orders coincide and restore the original function"


@_check("electron", "table-spot-residuals",
        "each table entry maps an explicit solution to a solution of the mapped equation",
        "state-level spot check of the table")
def _spot_residuals(rng, gamma4, transform_table):
    st = random_spinor(rng)
    worst = []
    for name, entry in transform_table.items():
        r = electron.transformed_residual(entry, st, gamma4)
        if r != 0.0:
            worst.append((name, r))
    return not worst, f"all transformed residuals exactly zero" + (
        f"; nonzero: {worst}" if worst else ""
    )


@_check("electron", "charged-equation-fixed-potential",
        "with the potential untouched the transformed equation carries charge -e",
        "charge flip of the interacting equation",
        potential_rule=electron.FIXED_POTENTIAL)
def _charged_fixed(gamma4):
    eq = electron.ChargedEquation()
    out = electron.transform_charged_equation(eq, electron.FIXED_POTENTIAL, gamma4)
    ok = out.form() == (-1, 1, 1, 1)
    ok &= (out.c_sign, out.hbar_sign) == (-1, -1)
    return ok, f"output form {out.form()}: charge negated, rest unchanged"


@_check("electron", "charged-equation-flipped-potential",
        "with the potential negated the transformed equation is identical",
        "full symmetry of the interacting equation",
        potential_rule=electron.FLIPPED_POTENTIAL)
def _charged_flipped(gamma4):
    eq = electron.ChargedEquation()
    out = electron.transform_charged_equation(eq, electron.FLIPPED_POTENTIAL, gamma4)
    return out.form() == eq.form(), f"output form {out.form()} equals input"


@_check("electron", "charged-equation-involution",
        "transforming the charged equation twice restores it under either rule",
        "involution property on the interacting equation")
def _charged_involution(gamma4):
    eq = electron.ChargedEquation()
    for rule in electron.POTENTIAL_RULES:
        once = electron.transform_charged_equation(eq, rule, gamma4)
        twice = electron.transform_charged_equation(once, rule, gamma4)
        if twice != eq:
            return False, f"rule {rule}: double transform gives {twice}"
    return True, "double transform restores the record under either rule"


# ---------------------------------------------------------------------------
# kinematics suite
# ---------------------------------------------------------------------------


@_check("kinematics", "single-photon-null",
        "a single light quantum has exactly vanishing invariant mass squared",
        "null four-momentum of a light quantum")
def _null():
    p = kinematics.FourMomentum(2.5, (0.0, 0.0, 2.5))
    s = kinematics.invariant_mass_sq([p])
    return s == 0.0, f"s = {s!r}"


@_check("kinematics", "back-to-back-pair",
        "two opposite light quanta carry invariant mass squared (2 h w)^2",
        "two-quantum invariant mass")
def _back_to_back():
    w = 3.0
    pair = [
        kinematics.FourMomentum(w, (0.0, 0.0, w)),
        kinematics.FourMomentum(w, (0.0, 0.0, -w)),
    ]
    s = kinematics.invariant_mass_sq(pair)
    return s == (2 * w) ** 2, f"s = {s!r} vs (2 h w)^2 = {(2 * w) ** 2!r}"


@_check("kinematics", "vacuum-transition-infeasible",
        "no random draw can reach the pair-creation threshold; closed form matches",
        "energy-momentum infeasibility of the vacuum transition")
def _scan(config):
    res = kinematics.infeasibility_scan(
        draws=10_000, seed=config.seed, tolerance=config.tolerance
    )
    found = f"{res.feasible_draws} feasible" if res.feasible_draws else "all infeasible"
    return res.passed, (
        f"{res.draws} seeded draws (seed {res.seed}): {found}; "
        f"worst closed-form relative gap {res.worst_relative_gap!r}"
    )


@_check("kinematics", "collinear-marginal",
        "the collinear massless case sits exactly at the (zero) threshold",
        "degenerate boundary of the feasibility criterion")
def _marginal():
    v = kinematics.vacuum_transition_feasible(
        1.0, 2.0, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0), m=0.0
    )
    return v.s == 0.0 and v.threshold == 0.0 and v.feasible, v.certificate


@_check("kinematics", "scalar-invariant-signs",
        "the composite-scalar sign table matches under both action-sign conventions",
        "sign behaviour of coupling, action-speed products, and mass")
def _invariants():
    fixed = kinematics.scalar_invariants(kinematics.HBAR_FIXED)
    flips = kinematics.scalar_invariants(kinematics.HBAR_FLIPS)
    ok = fixed["e2_over_hbar_c"] == -1 and fixed["mass"] == 1
    ok &= fixed["hbar_c"] == -1 and fixed["hbar_over_c"] == -1
    ok &= all(v == 1 for v in flips.values())
    return ok, f"fixed-action convention: {fixed}; flipped-action convention: {flips}"


@_check("kinematics", "permutation-invariance",
        "the invariant mass of a set does not depend on summation order",
        "argument symmetry of the invariant-mass evaluator")
def _permutation(rng):
    moms = [
        kinematics.FourMomentum(float(rng.uniform(0.1, 10)), tuple(rng.uniform(-5, 5, 3)))
        for _ in range(7)
    ]
    s0 = kinematics.invariant_mass_sq(moms)
    for _ in range(10):
        perm = [moms[i] for i in rng.permutation(len(moms))]
        if kinematics.invariant_mass_sq(perm) != s0:
            return False, "permutation changed the value"
    return True, "order-independent summation confirmed"


# ---------------------------------------------------------------------------
# runner and serialization
# ---------------------------------------------------------------------------
# One named entry point per suite: perfbench/layertrace.py times the suites
# by wrapping these module attributes, so run() looks them up by name.


def run_group_suite(config: RunConfig) -> list[CheckResult]:
    return _run_suite("group", config)


def run_maxwell_suite(config: RunConfig) -> list[CheckResult]:
    return _run_suite("maxwell", config)


def run_photon_suite(config: RunConfig) -> list[CheckResult]:
    return _run_suite("photon", config)


def run_electron_suite(config: RunConfig) -> list[CheckResult]:
    return _run_suite("electron", config)


def run_kinematics_suite(config: RunConfig) -> list[CheckResult]:
    return _run_suite("kinematics", config)


class SuiteWorkerError(RuntimeError):
    """A forked suite worker ended without reporting its suites' results."""


def _run_share(suites: tuple[str, ...], config: RunConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    for suite in suites:
        checks.extend(globals()[f"run_{suite}_suite"](config))
    return checks


def _fork_share(suites: tuple[str, ...], config: RunConfig):
    """Run `suites` in a forked worker; return its pid and the pipe its results arrive on."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    # the worker: whatever happens, it leaves here, so it never returns into
    # its parent's code or flushes a buffer its parent also holds
    code = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as out:
            pickle.dump(_run_share(suites, config), out)
        code = 0
    finally:
        os._exit(code)


def run(config: RunConfig, workers: int = 1) -> VerificationReport:
    """Execute the selected suites; deterministic for a fixed config.

    The suites are dealt round-robin into min(workers, suites) shares: this
    process runs the first and one forked worker runs each other share.
    Every suite draws from its own seeded stream and builds its own
    fixtures, so the split cannot change a result.  A worker that ends
    without reporting raises SuiteWorkerError naming its suites; if this
    process fails first, its workers are killed and reaped.
    """
    suites = config.selected_suites()
    w = min(workers, len(suites))
    helpers = {}  # unreaped worker pid -> (result pipe, share)
    try:
        for k in range(1, w):
            pid, pipe = _fork_share(suites[k::w], config)
            helpers[pid] = pipe, suites[k::w]
        checks = _run_share(suites[0::w], config)
        lost: list[str] = []
        for pid, (pipe, share) in list(helpers.items()):
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del helpers[pid]
            if status == 0:
                checks.extend(pickle.loads(data))
            else:
                lost.extend(share)
        if lost:
            raise SuiteWorkerError(f"a suite worker ended without reporting: {', '.join(lost)}")
    finally:
        if helpers:
            from signal import SIGKILL  # only on this path: a plain run imports nothing more
            for pid, (pipe, _) in helpers.items():
                pipe.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    checks.sort(key=lambda c: c.id)
    return VerificationReport(config=config, checks=tuple(checks))


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "version": VERSION,
        "config": report.config.to_dict(),
        "checks": [asdict(c) for c in report.checks],
        "summary": {
            "total": report.total,
            "passed": report.passed,
            "failed": report.failed,
        },
    }


def emit(report: VerificationReport, fmt: str = "text", path: str | None = None) -> str:
    """Serialize a report; json output is byte-stable for a fixed config."""
    if fmt == "json":
        text = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    elif fmt == "text":
        lines = []
        for c in report.checks:
            lines.append(f"{c.status.upper():4}  {c.id:45}  {c.description}")
            if c.status == "fail" and c.details:
                lines.append(f"      -> {c.details}")
        lines.append("")
        lines.append(
            f"total {report.total}  passed {report.passed}  failed {report.failed}"
        )
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}; use 'text' or 'json'")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
