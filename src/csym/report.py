"""Verification suite runner and report serialization.

Each check exercises one verified claim and yields a CheckResult; a run is
deterministic for a fixed configuration (the random draws are seeded), and
reports serialize byte-identically.  Exact checks ignore the tolerance; it
applies only to floating-point spot checks at sampled spacetime points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
from .waves import measured_momentum

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

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "suite": self.suite,
            "description": self.description,
            "reference": self.reference,
            "status": self.status,
            "details": self.details,
        }


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


class _Collector:
    def __init__(self, suite: str):
        self.suite = suite
        self.results: list[CheckResult] = []

    def add(self, check_id: str, description: str, reference: str, fn) -> None:
        try:
            ok, details = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, details = False, f"check raised {type(exc).__name__}: {exc}"
        if not ok and not details:
            details = "no details"
        self.results.append(
            CheckResult(
                id=f"{self.suite}.{check_id}",
                suite=self.suite,
                description=description,
                reference=reference,
                status="pass" if ok else "fail",
                details=details,
            )
        )


def _verified_gammas(col: _Collector, build, description: str, reference: str,
                     passed: str):
    """Build a gamma set as the suite's first check; None if it was rejected."""
    try:
        gs, err = build(), None
    except GammaIdentityError as exc:
        gs, err = None, str(exc)
    col.add("gamma-defining-identities", description, reference,
            lambda: (err is None, err or passed))
    return gs


# ---------------------------------------------------------------------------
# group suite
# ---------------------------------------------------------------------------


def run_group_suite(config: RunConfig) -> list[CheckResult]:
    col = _Collector("group")
    table = signgroup.generate_g8()
    structure = signgroup.classify_group(table)

    col.add(
        "sign-group-order",
        "the three coordinate sign flips generate exactly 8 matrices",
        "order-8 group of diagonal sign matrices on (x0, x, c)",
        lambda: (table.order == 8, f"order = {table.order}"),
    )
    col.add(
        "sign-group-abelian-involutions",
        "the group is abelian and every non-identity element has order 2",
        "commuting involutive generators",
        lambda: (
            structure.is_abelian and structure.all_involutions,
            f"orders = {sorted(structure.element_orders.values())}",
        ),
    )
    col.add(
        "sign-group-not-cyclic",
        "no single element generates the group (elementary abelian, not cyclic)",
        "computed structure of the sign-matrix group",
        lambda: (
            not structure.is_cyclic,
            "largest element order = "
            f"{max(structure.element_orders.values())} < {table.order}",
        ),
    )

    ops = signgroup.build_field_operators()

    def _defining_rows():
        t1 = ops["T1"]
        ok = t1.arg_sig == (-1, 1, 1) and not t1.charge_flip
        ok &= all(t1.comp_signs[i] == 1 for i in signgroup.BLOCKS["E"])
        ok &= all(t1.comp_signs[i] == -1 for i in signgroup.BLOCKS["H"])
        ok &= t1.comp_signs[8] == 1
        ok &= all(t1.comp_signs[i] == -1 for i in signgroup.BLOCKS["J"])
        ok &= t1.comp_signs[12] == 1
        ok &= all(t1.comp_signs[i] == -1 for i in signgroup.BLOCKS["A"])
        q2 = ops["Q2"]
        ok &= q2.arg_sig == (1, 1, -1) and not q2.charge_flip
        ok &= all(s == 1 for s in q2.comp_signs)
        q1 = ops["Q1"]
        ok &= q1.arg_sig == (1, 1, -1) and q1.charge_flip
        ok &= all(q1.comp_signs[i] == -1 for i in signgroup.PHYSICAL_SLOTS)
        ok &= ops["E"].is_identity()
        return ok, None

    col.add(
        "field-operator-table",
        "the six named operators carry their tabulated argument/component signs",
        "defining sign table of the field-function transformations",
        _defining_rows,
    )

    def _relations():
        reports = signgroup.verify_relations()
        bad = [r.name for r in reports if not r.holds]
        return not bad, f"{len(reports)} relations checked" + (
            f"; failed: {bad}" if bad else ""
        )

    col.add(
        "field-operator-relations",
        "squares, the equal pair products, and all listed commutators hold",
        "composition relations of the six operators",
        _relations,
    )

    def _sixteen():
        canon, name_map = signgroup.enumerate_distinct()
        distinct = {op.signature() for op in canon.values()}
        return (
            len(distinct) == 16 and len(name_map) == 64,
            f"{len(name_map)} subset products collapse onto {len(distinct)} operators",
        )

    col.add(
        "sixteen-distinct-symmetries",
        "the 64 subset products collapse to exactly 16 distinct operators",
        "count of distinct field-function symmetries",
        _sixteen,
    )

    def _collapses():
        ok = signgroup.reduce_product(("P1", "Q1", "Q2")) == "P2"
        ok &= signgroup.reduce_product(("P1", "P2", "T1", "T2")) == "E"
        ok &= signgroup.reduce_product(("P1", "P2", "T1", "T2", "Q1", "Q2")) == "Q1Q2"
        return ok, "P1*Q1*Q2 = P2; P1*P2*T1*T2 = E; all six at once = Q1Q2"

    col.add(
        "worked-collapses",
        "the worked product collapses reduce to their canonical names",
        "example reductions of operator products",
        _collapses,
    )

    def _conjugation_composite():
        ce = signgroup.classical_conjugation_operator()
        ok = ce.arg_sig == (1, 1, 1) and ce.charge_flip
        ok &= all(ce.comp_signs[i] == -1 for i in signgroup.PHYSICAL_SLOTS)
        ok &= ce.compose(ce).is_identity()
        return ok, "Q1Q2 fixes the arguments, negates all 14 components, flips e"

    col.add(
        "classical-conjugation-composite",
        "Q1 Q2 negates every physical component, flips the charge label, squares to E",
        "classical charge conjugation as an operator product",
        _conjugation_composite,
    )
    return col.results


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


def run_maxwell_suite(config: RunConfig) -> list[CheckResult]:
    col = _Collector("maxwell")
    rng = np.random.default_rng([config.seed, 1])
    sys = maxwell.build_maxwell_system()

    col.add(
        "system-shape",
        "the field system has 14 exact equations over 16 components x 5 slots",
        "assembled field-equation system",
        lambda: (
            sys.n_equations == 14 and sys.rows.cols == 80,
            f"{sys.n_equations} equations, width {sys.rows.cols}",
        ),
    )

    def _invariance():
        canon, _ = signgroup.enumerate_distinct()
        failures = []
        for name, op in canon.items():
            cert = maxwell.check_invariance(sys, op)
            if not cert.invariant:
                failures.append(name)
        return not failures, f"16 operators checked" + (
            f"; not invariant: {failures}" if failures else "; all row spaces equal"
        )

    col.add(
        "invariance-all-sixteen",
        "every one of the 16 operators preserves the system's row space exactly",
        "discrete symmetry group of the field equations",
        _invariance,
    )

    def _mutation():
        cert = maxwell.check_invariance(sys, _mutated_p1())
        return not cert.invariant, (
            f"mutated operator rejected (first offending row {cert.failing_row})"
            if not cert.invariant
            else "mutated operator unexpectedly passed"
        )

    col.add(
        "mutation-control",
        "a one-block sign mutation of the space-inversion operator is not a symmetry",
        "falsifiability control for the invariance checker",
        _mutation,
    )

    def _residual_zero():
        waves = [
            maxwell.PlaneWave.make((0, 0, 1), (1, 0, 0), 1),
            maxwell.PlaneWave.make(
                (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)),
                (2, -1, 0), Fraction(7, 2),
            ),
            maxwell.PlaneWave.make((0, 0, 1), (3, 4, 0), Fraction(5, 9), c_sign=-1),
        ]
        residuals = [maxwell.plane_wave_residual(w) for w in waves]
        return all(r == 0 for r in residuals), f"residuals = {residuals}"

    col.add(
        "plane-wave-residual",
        "transverse plane waves solve the source-free system exactly, both c signs",
        "plane-wave solutions of the free equations",
        _residual_zero,
    )

    def _wrong_polarity():
        n, l = (Fraction(0), Fraction(0), Fraction(1)), (Fraction(1), Fraction(0), Fraction(0))
        bad_m = (0, -1, 0)  # minus the correct magnetic polarization
        w = maxwell.PlaneWave.make(n, l, 1, m=bad_m)
        r = maxwell.plane_wave_residual(w)
        return r != 0, f"flipped magnetic polarization leaves residual {r}"

    col.add(
        "wrong-polarity-control",
        "flipping the magnetic polarization breaks the curl equation",
        "falsifiability control for the residual checker",
        _wrong_polarity,
    )

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

    col.add(
        "constraint-rejection",
        "invalid plane-wave data is rejected naming the violated invariant",
        "plane-wave type preconditions",
        _rejections,
    )

    def _classical_conjugation():
        w = maxwell.PlaneWave.make(
            (Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)), (3, -2, 0), Fraction(5, 4)
        )
        cw = maxwell.classical_conjugate_wave(w)
        ok = cw.l == tuple(-x for x in w.l) and cw.m == tuple(-x for x in w.m)
        ok &= cw.n == w.n and cw.k0 == w.k0
        ok &= maxwell.classical_conjugate_wave(cw) == w
        phi = maxwell.field_column(w)
        negated = maxwell.classical_conjugate_column(phi)
        ok &= negated == [-x for x in phi]
        ce = signgroup.classical_conjugation_operator()
        canon, _ = signgroup.enumerate_distinct()
        ok &= all(
            ce.compose(op).same_action(op.compose(ce)) for op in canon.values()
        )
        return ok, "polarizations negated, involution holds, composite is central"

    col.add(
        "classical-conjugation",
        "the classical conjugation negates the field column and is an involution",
        "classical charge conjugation on plane waves",
        _classical_conjugation,
    )

    def _energy_flux():
        w = maxwell.PlaneWave.make((0, 0, 1), (1, 0, 0), 1)
        W0, S0 = maxwell.energy_poynting(w, (0.0, 0.0, 0.0, 0.0))
        import math

        ok = abs(W0 - 1.0 / (4.0 * math.pi)) <= config.tolerance
        ok &= S0[2] > 0 and abs(S0[0]) <= config.tolerance and abs(S0[1]) <= config.tolerance
        rec = maxwell.energy_poynting_record(w)
        crec = maxwell.energy_poynting_record(maxwell.classical_conjugate_wave(w))
        ok &= rec == crec  # exact symbolic invariance
        cw = maxwell.classical_conjugate_wave(w)
        for x in spacetime_points(rng, config.samples):
            wv, sv = maxwell.energy_poynting(w, x)
            wc, sc = maxwell.energy_poynting(cw, x)
            scale = max(abs(wv), 1e-300)
            ok &= abs(wv - wc) <= config.tolerance * scale and wv >= 0 and wc >= 0
            ok &= all(abs(a - b) <= config.tolerance * max(scale, 1.0) for a, b in zip(sv, sc))
        return ok, (
            f"W(0) = {W0!r} (expected 1/(4 pi)); symbolic records equal; "
            f"{config.samples} sampled points within tolerance"
        )

    col.add(
        "energy-flux-invariance",
        "energy density and flux are nonnegative/forward and conjugation-invariant",
        "energy density and flux of a conjugated wave",
        _energy_flux,
    )
    return col.results


# ---------------------------------------------------------------------------
# photon suite
# ---------------------------------------------------------------------------


def _random_photon(rng, lam, hbar_sign=1, c_sign=1) -> photon.PhotonState:
    n = rational_unit_vector(rng)
    l = rational_orthogonal_vector(rng, n)
    p0 = rational_magnitude(rng)
    return photon.photon_plane_wave(n, l, p0, hbar_sign=hbar_sign, c_sign=c_sign, lam=lam)


def run_photon_suite(config: RunConfig, corrupt_gamma: tuple[str, int, int] | None = None
                     ) -> list[CheckResult]:
    col = _Collector("photon")
    rng = np.random.default_rng([config.seed, 2])
    lam = config.lambda_value

    gs = _verified_gammas(
        col,
        lambda: photon.build_gamma8(corrupt=corrupt_gamma),
        "the 8x8 set passes its anticommutation/hermiticity/transpose/square identities",
        "defining identities of the 8-dimensional matrices",
        "all construction-time identities hold",
    )
    if gs is None:
        return col.results

    def _g5_product():
        equal, prod = photon.gamma5_product_check(gs)
        if equal:
            return True, None
        mismatches = sum(
            1 for a, b in zip(prod.entries, gs.g5.entries) if a != b
        )
        return False, (
            "g0 g1 g2 g3 does not equal the printed fifth matrix: the product is "
            "block-antisymmetric (top-right +I, bottom-left -I) while the fifth "
            f"matrix equals -g0; {mismatches} of 64 entries differ. The claimed "
            "product relation is inconsistent with the defining matrices, which "
            "satisfy every other listed identity."
        )

    col.add(
        "gamma5-product",
        "the product of the four basis matrices equals the fifth matrix",
        "claimed product form of the fifth 8-dimensional matrix",
        _g5_product,
    )

    def _conjugation_space():
        space = photon.solve_conjugation_8(gs)
        ok = space.nullity == EXPECTED_NULLITY_8
        ok &= space.rank + space.nullity == 64
        ok &= space.contains(gs.g0)
        ok &= space.contains(gs.g0.scale(lam))
        ok &= all(not b.is_zero() for b in space.basis)
        return ok, (
            f"nullity {space.nullity} (pre-recorded oracle {EXPECTED_NULLITY_8}), "
            "lambda*g0 lies in the span, no zero basis vector"
        )

    col.add(
        "conjugation-matrix-space",
        "exact nullspace solving recovers the conjugation matrices, lambda*g0 included",
        "conjugation-matrix constraints in the 8-dimensional form",
        _conjugation_space,
    )

    def _normalization():
        ok = True
        for _ in range(min(config.samples, 25)):
            st = _random_photon(rng, lam)
            ok &= st.norm_sq() == EC_ONE
        return ok, "exact unit norm on random states"

    col.add(
        "state-normalization",
        "random photon states are exactly normalized",
        "unit norm of the 8-component photon state",
        _normalization,
    )

    def _residual():
        ok = True
        for hs in (1, -1):
            for cs in (1, -1):
                st = _random_photon(rng, lam, hbar_sign=hs, c_sign=cs)
                ok &= photon.dirac_form_residual(st.record(), st.hbar_sign, gs) == 0.0
        return ok, "exact zero residual for all four sign combinations"

    col.add(
        "state-residual",
        "photon states solve the massless equation exactly for both c and hbar signs",
        "sign blindness of the massless equation",
        _residual,
    )

    def _c_action():
        st = _random_photon(rng, lam)
        conj = photon.apply_C_photon(st)
        rec = st.record()
        ok = conj.record.kappa == tuple(-k for k in rec.kappa)
        ok &= all(a == b * lam for a, b in zip(conj.record.amp, rec.amp))
        back = photon.apply_C_photon(conj)
        ok &= back.record == rec
        p0, _ = measured_momentum(conj.record)
        ok &= p0 == -st.p0
        return ok, "conjugate is lambda * conjugated record; double application restores"

    col.add(
        "charge-conjugation-action",
        "C multiplies the conjugated record by lambda and reverses the phase",
        "charge conjugation of the photon state",
        _c_action,
    )

    def _cq_symbolic():
        for _ in range(config.samples):
            st = _random_photon(rng, lam)
            if photon.apply_C_photon(st).record != photon.apply_Q_photon(st, gs).record:
                return False, f"records differ for state {st}"
        return True, f"{config.samples} random states: records identical"

    col.add(
        "cq-record-equality",
        "charge conjugation and light-speed inversion produce the same record",
        "pointwise identity of the two conjugations on photons",
        _cq_symbolic,
    )

    def _cq_pointwise():
        worst = 0.0
        for _ in range(config.samples):
            st = _random_photon(rng, lam)
            c_rec = photon.apply_C_photon(st).record
            q_rec = photon.apply_Q_photon(st, gs).record
            for x in spacetime_points(rng, config.samples):
                cv, qv = c_rec.evaluate(x), q_rec.evaluate(x)
                scale = max(np.max(np.abs(cv)), 1e-300)
                worst = max(worst, float(np.max(np.abs(cv - qv))) / scale)
        return worst <= config.tolerance, (
            f"{config.samples} states x {config.samples} points, worst relative gap {worst!r}"
        )

    col.add(
        "cq-pointwise-equality",
        "the two conjugated functions agree numerically at sampled spacetime points",
        "numerical spot check of the conjugation identity",
        _cq_pointwise,
    )

    def _q_double():
        st = _random_photon(rng, lam)
        once = photon.apply_Q_photon(st, gs)
        twice = photon.apply_Q_photon(once, gs)
        phase = lam * lam.conjugate()
        ok = twice.record == st.record().scale(phase)
        ok &= twice.hbar_sign == st.hbar_sign and twice.c_sign == st.c_sign
        return ok, f"double inversion restores the state (global phase {phase!r})"

    col.add(
        "inversion-involution",
        "applying the light-speed inversion twice restores the original function",
        "involution property of the inversion",
        _q_double,
    )

    def _displaced_phase():
        st = _random_photon(rng, ExactComplex(0, -1))
        q_rec = photon.apply_Q_photon(st, gs).record
        return (
            photon.phase_displacement_form(st) == q_rec,
            "flipped polarizations with a +pi/2 phase shift give the same function",
        )

    col.add(
        "displaced-phase-form",
        "the conjugate equals the sign-reversed, quarter-period-shifted rewriting",
        "alternative closed form of the inverted photon function",
        _displaced_phase,
    )

    def _negative_energy():
        st = _random_photon(rng, lam)
        base_e, base_f = photon.formal_energy_flux(st.record(), st.c_sign)
        conj = photon.apply_C_photon(st)
        conj_e, conj_f = photon.formal_energy_flux(conj.record, conj.c_sign)
        lam_sq = lam * lam
        ok = conj_e == base_e * lam_sq
        ok &= all(a == b * lam_sq for a, b in zip(conj_f, base_f))
        if lam == ExactComplex(0, -1) or lam == ExactComplex(0, 1):
            ok &= conj_e.is_real() and conj_e.re < 0
            detail = f"conjugated formal energy coefficient {conj_e} < 0, flux reversed"
        else:
            detail = f"conjugated formal energy coefficient {conj_e} (real lambda keeps the sign)"
        return ok, detail

    col.add(
        "conjugate-energy-sign",
        "the formal energy of the conjugated amplitudes scales by lambda squared",
        "negative formal energy of the conjugate for imaginary lambda",
        _negative_energy,
    )

    def _currents():
        for _ in range(min(config.samples, 25)):
            st = _random_photon(rng, lam)
            conj = photon.apply_C_photon(st)
            j0, jk, j0c, jkc = photon.currents(st, conj, gs)
            if j0 != EC_ONE or j0c != EC_ONE:
                return False, f"time components {j0}, {j0c} differ from 1"
            if any(jk[i] != ExactComplex(st.n[i]) for i in range(3)):
                return False, f"space components {jk} differ from n = {st.n}"
            if any(jk[i] != jkc[i] for i in range(3)):
                return False, "conjugated current differs"
        return True, "j = (1, n) exactly for state and conjugate"

    col.add(
        "currents",
        "the bilinear currents are (1, n) for the state and its conjugate",
        "current bilinears and photon neutrality",
        _currents,
    )
    return col.results


# ---------------------------------------------------------------------------
# electron suite
# ---------------------------------------------------------------------------


def random_spinor(rng, c_sign=1, hbar_sign=1, branch=1) -> electron.SpinorState:
    p_abs, mc, _ = momentum_mass_energy(rng)
    n = rational_unit_vector(rng)
    p = tuple(p_abs * ni for ni in n)
    z = gaussian_rational_spinor(rng)
    return electron.build_spinor(p, mc, z, branch=branch, c_sign=c_sign, hbar_sign=hbar_sign)


def run_electron_suite(config: RunConfig) -> list[CheckResult]:
    col = _Collector("electron")
    rng = np.random.default_rng([config.seed, 3])
    gs = _verified_gammas(
        col,
        electron.build_gamma4,
        "the Dirac set passes its full identity list including the product form",
        "defining identities of the 4-dimensional matrices",
        "constructor verified every identity exactly",
    )
    if gs is None:
        return col.results

    def _conjugation_space():
        space = electron.solve_UQ(gs)
        ok = space.nullity == EXPECTED_NULLITY_4
        ok &= space.rank + space.nullity == 16
        ok &= space.contains(electron.conjugation_matrix(gs))
        ident = electron.conjugation_matrix(gs) @ electron.conjugation_matrix(gs)
        ok &= not space.contains(ident)  # the identity matrix fails the constraints
        return ok, (
            f"nullity {space.nullity} (pre-recorded oracle {EXPECTED_NULLITY_4}); "
            "-g0 g2 spans the space; the identity matrix is excluded"
        )

    col.add(
        "conjugation-matrix-unique",
        "the inversion-matrix constraints have a one-dimensional exact solution space",
        "conjugation-matrix constraints in the 4-dimensional form",
        _conjugation_space,
    )

    def _uc_equals_uq():
        table = electron.build_transform_table(gs)
        u_from_table = table["C"].matrix @ gs.g0  # C psi = g2 psi* means U_C g0 = g2
        return (
            u_from_table == electron.conjugation_matrix(gs),
            "the charge-conjugation matrix equals the inversion matrix -g0 g2",
        )

    col.add(
        "conjugation-matrices-coincide",
        "the charge-conjugation and inversion matrices are the same matrix",
        "equality of the two conjugation matrices",
        _uc_equals_uq,
    )

    def _table():
        table = electron.build_transform_table(gs)
        bad = [
            name for name, entry in table.items()
            if not electron.verify_symmetry(entry, gs).holds
        ]
        return not bad, f"{len(table)} entries certified" + (
            f"; failed: {bad}" if bad else ""
        )

    col.add(
        "transform-table-certified",
        "every table entry is certified as a free-equation symmetry operator-wise",
        "transformation table of the spinor equation",
        _table,
    )

    def _correspondence():
        table = electron.build_transform_table(gs)
        ok = True
        for c_name, q_name in electron.CORRESPONDENCE_PAIRS:
            c_e, q_e = table[c_name], table[q_name]
            ok &= c_e.matrix == q_e.matrix and c_e.conj == q_e.conj
            ok &= c_e.arg_sig == q_e.arg_sig
            ok &= (q_e.c_sign, q_e.hbar_sign) == (-1, -1)
            ok &= (c_e.c_sign, c_e.hbar_sign) == (1, 1)
        return ok, "row-by-row: same matrices, constant signs differ"

    col.add(
        "table-correspondence",
        "each charge-conjugation row matches its inversion row up to constant signs",
        "correspondence of the two table columns",
        _correspondence,
    )

    def _corrupted_entry():
        bad = electron.DiracTransform(
            "Q-corrupted", gs.g1, True, (1, 1), c_sign=-1, hbar_sign=-1
        )
        cert = electron.verify_symmetry(bad, gs)
        return not cert.holds, f"per-index verdicts {cert.per_index}"

    col.add(
        "corrupted-entry-control",
        "replacing the conjugation matrix by the wrong one fails certification",
        "falsifiability control for the table certifier",
        _corrupted_entry,
    )

    def _normalization():
        for _ in range(min(config.samples, 40)):
            st = random_spinor(rng)
            if electron.spinor_norm(st, gs) != ExactComplex(2 * st.m):
                return False, f"positive branch norm wrong for {st}"
            neg = electron.apply_C_spinor(st, gs)
            if electron.spinor_norm(neg, gs) != ExactComplex(-2 * neg.m):
                return False, f"negative branch norm wrong for {neg}"
        return True, "ubar u = +2mc and -2mc exactly on random draws"

    col.add(
        "spinor-normalization",
        "bispinor normalizations are exactly +2mc and -2mc per branch",
        "normalization of the explicit spinors",
        _normalization,
    )

    def _residuals():
        for _ in range(min(config.samples, 40)):
            st = random_spinor(rng)
            if electron.free_residual(st, gs) != 0.0:
                return False, "positive-branch residual nonzero"
            if electron.free_residual(electron.apply_C_spinor(st, gs), gs) != 0.0:
                return False, "negative-branch residual nonzero"
        return True, "exact zero residual on both branches"

    col.add(
        "spinor-residuals",
        "explicit spinors solve the free equation exactly on both branches",
        "plane-wave solutions of the spinor equation",
        _residuals,
    )

    def _rest_frame():
        st = electron.build_spinor((0, 0, 0), Fraction(3, 2), (1, 0))
        u = st.bispinor()
        ok = u[2].is_zero() and u[3].is_zero()
        ok &= (u[0] * u[0].conjugate()).to_exact() == ExactComplex(2 * st.m)
        ok &= u[1].is_zero()
        ok &= electron.spinor_norm(st, gs) == ExactComplex(2 * st.m)
        return ok, "lower block vanishes; upper carries sqrt(2 m c) w"

    col.add(
        "rest-frame",
        "at rest the bispinor collapses to sqrt(2 m c) times the 2-spinor",
        "rest-frame limit of the explicit spinor",
        _rest_frame,
    )

    def _c_action():
        st = random_spinor(rng)
        neg = electron.apply_C_spinor(st, gs)
        ok = neg.branch == -1 and neg.c_sign == st.c_sign
        _, p_label = measured_momentum(neg.record())
        ok &= p_label == tuple(-x for x in st.p)
        ok &= neg.energy_label == -st.energy
        back = electron.apply_C_spinor(neg, gs)
        ok &= back.z == st.z and back.branch == 1 and back.record() == st.record()
        return ok, "image is the negative-branch template state; double application restores"

    col.add(
        "charge-conjugation-action",
        "C maps the state to its negative-branch partner and is an involution",
        "charge conjugation of the explicit spinor",
        _c_action,
    )

    def _cq_symbolic():
        for _ in range(config.samples):
            st = random_spinor(rng)
            c_rec = electron.apply_C_spinor(st, gs).record()
            q_rec = electron.apply_Q_spinor(st, gs).record
            if c_rec != q_rec:
                return False, f"records differ for {st}"
        return True, f"{config.samples} random draws: records identical"

    col.add(
        "cq-record-equality",
        "charge conjugation and light-speed inversion give the same spinor function",
        "pointwise identity of the two conjugations on spinors",
        _cq_symbolic,
    )

    def _cq_pointwise():
        worst = 0.0
        n_points = max(10, config.samples // 10)
        for _ in range(config.samples):
            st = random_spinor(rng)
            c_rec = electron.apply_C_spinor(st, gs).record()
            q_rec = electron.apply_Q_spinor(st, gs).record
            for x in spacetime_points(rng, n_points):
                cv, qv = c_rec.evaluate(x), q_rec.evaluate(x)
                scale = max(np.max(np.abs(cv)), 1e-300)
                worst = max(worst, float(np.max(np.abs(cv - qv))) / scale)
        return worst <= config.tolerance, f"worst relative gap {worst!r}"

    col.add(
        "cq-pointwise-equality",
        "the two conjugated spinor functions agree numerically at sampled points",
        "numerical spot check of the spinor conjugation identity",
        _cq_pointwise,
    )

    def _commutator():
        for _ in range(min(config.samples, 40)):
            st = random_spinor(rng)
            cq = electron.apply_C_spinor(electron.apply_Q_spinor(st, gs), gs)
            qc = electron.apply_Q_spinor(electron.apply_C_spinor(st, gs), gs)
            if cq.record != qc.record:
                return False, "records of the two orders differ"
            if (cq.c_sign, cq.hbar_sign) != (qc.c_sign, qc.hbar_sign):
                return False, "constant signs of the two orders differ"
            if cq.z_label != tuple(qc.z_label):
                return False, "spin labels of the two orders differ"
            if cq.record != st.record():
                return False, "composite does not restore the original function"
        return True, "both orders coincide and restore the original function"

    col.add(
        "conjugation-commutator",
        "the two conjugations commute on spinor states",
        "vanishing commutator of the conjugations",
        _commutator,
    )

    def _spot_residuals():
        table = electron.build_transform_table(gs)
        st = random_spinor(rng)
        rec = st.record()
        worst = []
        for name, entry in table.items():
            r = electron.transformed_residual(entry, rec, st.m, st.c_sign, st.hbar_sign, gs)
            if r != 0.0:
                worst.append((name, r))
        return not worst, f"all transformed residuals exactly zero" + (
            f"; nonzero: {worst}" if worst else ""
        )

    col.add(
        "table-spot-residuals",
        "each table entry maps an explicit solution to a solution of the mapped equation",
        "state-level spot check of the table",
        _spot_residuals,
    )

    rules = (
        (electron.FIXED_POTENTIAL, electron.FLIPPED_POTENTIAL)
        if config.potential_rule == "both"
        else (config.potential_rule,)
    )
    eq = electron.ChargedEquation()
    if electron.FIXED_POTENTIAL in rules:
        def _charged_fixed():
            out = electron.transform_charged_equation(eq, electron.FIXED_POTENTIAL, gs)
            ok = out.form() == (-1, 1, 1, 1)
            ok &= (out.c_sign, out.hbar_sign) == (-1, -1)
            return ok, f"output form {out.form()}: charge negated, rest unchanged"

        col.add(
            "charged-equation-fixed-potential",
            "with the potential untouched the transformed equation carries charge -e",
            "charge flip of the interacting equation",
            _charged_fixed,
        )
    if electron.FLIPPED_POTENTIAL in rules:
        def _charged_flipped():
            out = electron.transform_charged_equation(eq, electron.FLIPPED_POTENTIAL, gs)
            return out.form() == eq.form(), f"output form {out.form()} equals input"

        col.add(
            "charged-equation-flipped-potential",
            "with the potential negated the transformed equation is identical",
            "full symmetry of the interacting equation",
            _charged_flipped,
        )

    def _charged_involution():
        for rule in (electron.FIXED_POTENTIAL, electron.FLIPPED_POTENTIAL):
            once = electron.transform_charged_equation(eq, rule, gs)
            twice = electron.transform_charged_equation(once, rule, gs)
            if twice != eq:
                return False, f"rule {rule}: double transform gives {twice}"
        return True, "double transform restores the record under either rule"

    col.add(
        "charged-equation-involution",
        "transforming the charged equation twice restores it under either rule",
        "involution property on the interacting equation",
        _charged_involution,
    )
    return col.results


# ---------------------------------------------------------------------------
# kinematics suite
# ---------------------------------------------------------------------------


def run_kinematics_suite(config: RunConfig) -> list[CheckResult]:
    col = _Collector("kinematics")

    def _null():
        p = kinematics.FourMomentum(2.5, (0.0, 0.0, 2.5))
        s = kinematics.invariant_mass_sq([p])
        return s == 0.0, f"s = {s!r}"

    col.add(
        "single-photon-null",
        "a single light quantum has exactly vanishing invariant mass squared",
        "null four-momentum of a light quantum",
        _null,
    )

    def _back_to_back():
        w = 3.0
        pair = [
            kinematics.FourMomentum(w, (0.0, 0.0, w)),
            kinematics.FourMomentum(w, (0.0, 0.0, -w)),
        ]
        s = kinematics.invariant_mass_sq(pair)
        return s == (2 * w) ** 2, f"s = {s!r} vs (2 h w)^2 = {(2 * w) ** 2!r}"

    col.add(
        "back-to-back-pair",
        "two opposite light quanta carry invariant mass squared (2 h w)^2",
        "two-quantum invariant mass",
        _back_to_back,
    )

    def _scan():
        res = kinematics.infeasibility_scan(
            draws=10_000, seed=config.seed, tolerance=config.tolerance
        )
        return res.all_infeasible, (
            f"{res.draws} seeded draws (seed {res.seed}): all infeasible; "
            f"worst closed-form relative gap {res.worst_relative_gap!r}"
        )

    col.add(
        "vacuum-transition-infeasible",
        "no random draw can reach the pair-creation threshold; closed form matches",
        "energy-momentum infeasibility of the vacuum transition",
        _scan,
    )

    def _marginal():
        v = kinematics.vacuum_transition_feasible(
            1.0, 2.0, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0), m=0.0
        )
        return v.s == 0.0 and v.threshold == 0.0 and v.feasible, v.certificate

    col.add(
        "collinear-marginal",
        "the collinear massless case sits exactly at the (zero) threshold",
        "degenerate boundary of the feasibility criterion",
        _marginal,
    )

    def _invariants():
        fixed = kinematics.scalar_invariants(kinematics.HBAR_FIXED)
        flips = kinematics.scalar_invariants(kinematics.HBAR_FLIPS)
        ok = fixed["e2_over_hbar_c"] == -1 and fixed["mass"] == 1
        ok &= fixed["hbar_c"] == -1 and fixed["hbar_over_c"] == -1
        ok &= all(v == 1 for v in flips.values())
        return ok, f"fixed-action convention: {fixed}; flipped-action convention: {flips}"

    col.add(
        "scalar-invariant-signs",
        "the composite-scalar sign table matches under both action-sign conventions",
        "sign behaviour of coupling, action-speed products, and mass",
        _invariants,
    )

    def _permutation():
        rng = np.random.default_rng([config.seed, 4])
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

    col.add(
        "permutation-invariance",
        "the invariant mass of a set does not depend on summation order",
        "argument symmetry of the invariant-mass evaluator",
        _permutation,
    )
    return col.results


# ---------------------------------------------------------------------------
# runner and serialization
# ---------------------------------------------------------------------------

_SUITE_RUNNERS = {
    "group": run_group_suite,
    "maxwell": run_maxwell_suite,
    "photon": run_photon_suite,
    "electron": run_electron_suite,
    "kinematics": run_kinematics_suite,
}


def run(config: RunConfig, corrupt_gamma8: tuple[str, int, int] | None = None
        ) -> VerificationReport:
    """Execute the selected suites; deterministic for a fixed config.

    corrupt_gamma8 is a test hook that injects a defect into one 8x8 matrix
    before verification; the photon suite then reports the named failure.
    """
    checks: list[CheckResult] = []
    for suite in config.selected_suites():
        if suite == "photon":
            checks.extend(run_photon_suite(config, corrupt_gamma=corrupt_gamma8))
        else:
            checks.extend(_SUITE_RUNNERS[suite](config))
    checks.sort(key=lambda c: c.id)
    return VerificationReport(config=config, checks=tuple(checks))


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "version": VERSION,
        "config": report.config.to_dict(),
        "checks": [c.to_dict() for c in report.checks],
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
