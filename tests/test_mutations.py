"""Mutation controls: each row breaks one csym function and names the checks
that must then fail, and no others.

A row is (mutation, run config, check ids).  The mutation monkeypatches one
function the report reads; the run uses 10 samples.  The same config run
without the mutation passes every named check, so a row fails only because
of what it breaks.  Each failing check must report details other than its
pass text, so that the report names what broke.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from csym import electron, gamma, kinematics, maxwell, photon, report, signgroup, waves
from csym.exact import ExactMatrix
from csym.report import RunConfig, run
from csym.sampling import dot
from csym.waves import Radical, amplitude, bilinear, dirac_residual, plane_wave
from test_electron import _branch_blind_partner


def _currents_without_g0(monkeypatch):
    """Psi^dagger g^a Psi in place of Psi-bar g^a Psi: the g0 of Psi-bar is lost."""
    def currents(state, conjugated, gs):
        recs = (state.record(), conjugated.record())
        j, jc = ([bilinear(r, g) for g in gs.vector] for r in recs)
        return j[0], tuple(j[1:]), jc[0], tuple(jc[1:])
    monkeypatch.setattr(photon, "currents", currents)


def _c_photon_without_lam(monkeypatch):
    """Charge conjugation that conjugates the record but drops the phase lam."""
    def apply_c(wave, lam=electron.MINUS_I):
        return waves.Image(function=wave.record().conjugate_function(),
                           hbar_sign=wave.hbar_sign, c_sign=wave.c_sign)
    monkeypatch.setattr(photon, "apply_C_photon", apply_c)


def _p0_ignoring_c_sign(monkeypatch):
    """A spinor energy label p0 = E that does not flip with c, so Q keeps p0."""
    monkeypatch.setattr(electron.SpinorState, "p0", property(lambda self: self.energy))


def _plane_wave_ignoring_hbar_sign(monkeypatch):
    """An exponent that reads every wave with hbar = +1, whatever its sign.

    The modules that build records import plane_wave by name, so each
    binding is replaced.
    """
    def plane_wave(amp, p0, p, hbar_sign):
        return replace(amp, kappa=[-p0, *p])
    for module in (waves, maxwell, photon, electron):
        monkeypatch.setattr(module, "plane_wave", plane_wave)


def _orthogonal_vector_without_projection(monkeypatch):
    """A polarization sampler that returns its draw v without removing (v.n) n."""
    def sampler(rng, n):
        return tuple(Fraction(int(c)) for c in rng.integers(-9, 10, size=3))
    monkeypatch.setattr(report, "rational_orthogonal_vector", sampler)


def _photon_norm_without_factor_2(monkeypatch):
    """A photon amplitude over sqrt(|l|^2), not sqrt(2 |l|^2): the norm is 2."""
    def record(self):
        amp = amplitude(Radical(1, 1 / dot(self.wave.l, self.wave.l)),
                        maxwell.field_column(self.wave)[:8])
        return plane_wave(amp, self.wave.k0, self.wave.k, self.hbar_sign)
    monkeypatch.setattr(photon.PhotonState, "record", record)


def _p_with_t_signs(monkeypatch):
    """Space inversion given time reversal's signs on (x0, x, c)."""
    monkeypatch.setitem(signgroup.GENERATORS, "P", signgroup.GENERATORS["T"])


def _t1_with_charge_flip(monkeypatch):
    """A T1 that flips the charge label, as T2 does."""
    build = signgroup.build_field_operators

    def build_field_operators():
        ops = build()
        ops["T1"] = replace(ops["T1"], charge_flip=True)
        return ops
    monkeypatch.setattr(signgroup, "build_field_operators", build_field_operators)


def _generators_collapsed_onto_t(monkeypatch):
    """P and Q given T's signs on (x0, x, c): the closure is {E, T}, of order 2."""
    monkeypatch.setitem(signgroup.GENERATORS, "P", signgroup.GENERATORS["T"])
    monkeypatch.setitem(signgroup.GENERATORS, "Q", signgroup.GENERATORS["T"])


def _element_orders_one_high(monkeypatch):
    """A group classifier that counts every element order one too high."""
    classify_group = signgroup.classify_group

    def classify(table):
        structure = classify_group(table)
        orders = {name: k + 1 for name, k in structure.element_orders.items()}
        return replace(structure, element_orders=orders,
                       all_involutions=all(k <= 2 for k in orders.values()))
    monkeypatch.setattr(signgroup, "classify_group", classify)


def _classifier_calling_the_group_non_abelian(monkeypatch):
    """A group classifier that reports a non-abelian group, element orders correct."""
    classify_group = signgroup.classify_group
    monkeypatch.setattr(signgroup, "classify_group",
                        lambda table: replace(classify_group(table), is_abelian=False))


def _reduction_dropping_last_factor(monkeypatch):
    """A product reduction that loses the last operator of the product."""
    reduce_product = signgroup.reduce_product
    monkeypatch.setattr(signgroup, "reduce_product", lambda names: reduce_product(names[:-1]))


def _classical_conjugation_q1_alone(monkeypatch):
    """The classical conjugation Q1 Q2 read as Q1 alone, which also flips c."""
    monkeypatch.setattr(signgroup, "classical_conjugation_operator",
                        lambda: signgroup.canonical_operators()["Q1"])


def _conjugate_wave_keeping_m(monkeypatch):
    """A classical conjugate wave that negates l but keeps the magnetic polarization m."""
    monkeypatch.setattr(maxwell, "classical_conjugate_wave",
                        lambda w: replace(w, l=tuple(-x for x in w.l)))


def _massless_residual_with_g0_negated(monkeypatch):
    """The photon's massless residual taken with -g0 for g0."""
    def dirac_form_residual(wave, gs):
        g0, g1, g2, g3 = gs.vector
        return dirac_residual(wave.record(), 0, wave.hbar_sign, (-g0, g1, g2, g3))
    monkeypatch.setattr(photon, "dirac_form_residual", dirac_form_residual)


def _negative_branch_blocks_swapped(monkeypatch):
    """The branch -1 bispinor with its two 2-spinor blocks in branch +1 order.

    Only C's partner state is built on branch -1; Q relabels the state's own
    branch +1 record.
    """
    bispinor = electron.SpinorState.bispinor

    def swapped(self, prefactor=None):
        u = bispinor(self, prefactor)
        return u if self.branch == 1 else replace(u, vec=u.vec[2:] + u.vec[:2])
    monkeypatch.setattr(electron.SpinorState, "bispinor", swapped)


def _q_spinor_root_doubled(monkeypatch):
    """An electron Q image whose record's root is doubled: its value times sqrt(2)."""
    apply_q = electron.apply_Q_spinor

    def apply_Q_spinor(state, gs):
        q = apply_q(state, gs)
        return replace(q, function=replace(q.function, root=2 * q.function.root))
    monkeypatch.setattr(electron, "apply_Q_spinor", apply_Q_spinor)


def _kernel_dropping_last_nonzero(monkeypatch):
    """A matrix-vector kernel that skips the last nonzero entry of every row.

    Every product runs on it, so each gamma set fails its first
    anticommutator and ends its suite; Maxwell's rows act on the wave column.
    """
    sparse_rows = ExactMatrix._sparse_rows
    monkeypatch.setattr(ExactMatrix, "_sparse_rows",
                        lambda self: tuple(row[:-1] for row in sparse_rows(self)))


def _rest_state_on_negative_branch(monkeypatch):
    """A build_spinor that builds the negative-frequency partner of what it is asked for."""
    build_spinor = electron.build_spinor
    monkeypatch.setattr(electron, "build_spinor",
                        lambda p, m, z, branch=1: build_spinor(p, m, z, -branch))


def _qp_matrix_without_i(monkeypatch):
    """The QP row with g0 g2 in place of i g0 g2: certification holds only up to scale."""
    build = electron.build_transform_table

    def build_transform_table(gs):
        table = build(gs)
        table["QP"] = replace(table["QP"], matrix=gs.g0 @ gs.g2)
        return table
    monkeypatch.setattr(electron, "build_transform_table", build_transform_table)


def _negated_signs(gs, signs):
    return gamma.solve_conjugation_space(gs, tuple(-s for s in signs))


def _photon_constraint_signs_negated(monkeypatch):
    """The photon conjugation constraints solved with every sign negated."""
    monkeypatch.setattr(photon, "solve_conjugation_space", _negated_signs)


def _electron_constraint_signs_negated(monkeypatch):
    """The electron conjugation constraints solved with every sign negated."""
    monkeypatch.setattr(electron, "solve_conjugation_space", _negated_signs)


def _symmetry_ignoring_conjugation(monkeypatch):
    """A table certifier that reads every entry as if it did not conjugate psi."""
    verify_symmetry = electron.verify_symmetry
    monkeypatch.setattr(electron, "verify_symmetry",
                        lambda entry, gs: verify_symmetry(replace(entry, conj=False), gs))


def _with_g1(monkeypatch, module, g1):
    """The module's gamma set built with g1 in place of its own g1."""
    monkeypatch.setattr(module, "build_gamma_set",
                        lambda spec, mats: gamma.build_gamma_set(spec, {**mats, "g1": g1}))


def _dirac_g1_without_block_sign(monkeypatch):
    """A Dirac g1 with +sigma_x in both off-diagonal blocks: hermitian, squaring to +I."""
    z2 = ExactMatrix.zeros(2, 2)
    _with_g1(monkeypatch, electron, gamma.block(z2, electron.PAULI[0], electron.PAULI[0], z2))


def _photon_g1_without_block_sign(monkeypatch):
    """An 8x8 g1 = block(a1, 0, 0, a1), which commutes with g0 instead of anticommuting."""
    a1, z4 = photon._alpha_matrices()[0], ExactMatrix.zeros(4, 4)
    _with_g1(monkeypatch, photon, gamma.block(a1, z4, z4, a1))


def _plane_wave_without_transversality(monkeypatch):
    """A PlaneWave whose n.l = 0 test never rejects: that one error is swallowed."""
    post_init = maxwell.PlaneWave.__post_init__

    def lenient(self):
        try:
            post_init(self)
        except ValueError as exc:
            if "transverse" not in str(exc):
                raise
    monkeypatch.setattr(maxwell.PlaneWave, "__post_init__", lenient)


def _mass_adding_momentum(monkeypatch):
    """An invariant mass (sum e)^2 + |sum p|^2: the Minkowski minus read as a plus."""
    def invariant_mass_sq(momenta):
        e = math.fsum(m.e for m in momenta)
        p = [math.fsum(m.p[i] for m in momenta) for i in range(3)]
        return e * e + math.fsum(x * x for x in p)
    monkeypatch.setattr(kinematics, "invariant_mass_sq", invariant_mass_sq)


def _metric_with_plus_signs(monkeypatch):
    """The one Minkowski norm e^2 + |p|^2: the metric's minus signs read as plus."""
    monkeypatch.setattr(kinematics, "_minkowski_sq",
                        lambda e, p: e * e + kinematics._fsum_rows(p * p))


def _mass_of_first_momentum(monkeypatch):
    """An invariant mass that reads only the first four-momentum of the set."""
    invariant_mass_sq = kinematics.invariant_mass_sq
    monkeypatch.setattr(kinematics, "invariant_mass_sq", lambda momenta: invariant_mass_sq(momenta[:1]))


def _mass_with_plain_sum(monkeypatch):
    """An invariant mass summed with plain sum, whose rounding depends on the order."""
    def invariant_mass_sq(momenta):
        e = sum(m.e for m in momenta)
        p = [sum(m.p[i] for m in momenta) for i in range(3)]
        return e * e - sum(x * x for x in p)
    monkeypatch.setattr(kinematics, "invariant_mass_sq", invariant_mass_sq)


def _closed_form_with_plus_one(monkeypatch):
    """The closed-form pair mass 2 w w' (n.n' + 1) in place of 2 w w' (n.n' - 1)."""
    def closed_form_pair_mass_sq(omega, omega_prime, n, n_prime):
        return 2.0 * omega * omega_prime * (kinematics._fsum_rows(np.multiply(n, n_prime)) + 1.0)
    monkeypatch.setattr(kinematics, "closed_form_pair_mass_sq", closed_form_pair_mass_sq)


def _invariants_ignoring_convention(monkeypatch):
    """A scalar sign table that always answers for the flipping-action convention."""
    scalar_invariants = kinematics.scalar_invariants
    monkeypatch.setattr(kinematics, "scalar_invariants",
                        lambda convention: scalar_invariants(kinematics.HBAR_FLIPS))


def _mutated_p1_is_p1(monkeypatch):
    """The invariance checker's mutation control handed P1 itself, unmutated."""
    monkeypatch.setattr(report, "_mutated_p1", lambda: signgroup.build_field_operators()["P1"])


def _transform_ignoring_time_sign(monkeypatch):
    """A system transform that leaves the d0 columns alone whatever the x0 sign."""
    transform_system = maxwell.transform_system
    monkeypatch.setattr(maxwell, "transform_system", lambda sys, op: transform_system(
        sys, replace(op, arg_sig=(1, *op.arg_sig[1:]))))


def _residual_always_zero(monkeypatch):
    """A plane-wave residual that reads 0 on every wave."""
    monkeypatch.setattr(maxwell, "plane_wave_residual", lambda system, w: Fraction(0))


def _system_without_last_row(monkeypatch):
    """The field system built without its last equation."""
    build = maxwell.build_maxwell_system

    def build_maxwell_system():
        system = build()
        rows = system.rows
        return maxwell.LinearFieldSystem(
            ExactMatrix(rows.rows - 1, rows.cols, rows.entries[:-rows.cols]), system.labels[:-1])
    monkeypatch.setattr(maxwell, "build_maxwell_system", build_maxwell_system)


def _wave_record_with_k0_negated(monkeypatch):
    """A classical wave record whose phase carries +k0 x0 in place of -k0 x0."""
    record = maxwell.PlaneWave.record

    def negated(self):
        rec = record(self)
        return replace(rec, kappa=(-rec.kappa[0], *rec.kappa[1:]))
    monkeypatch.setattr(maxwell.PlaneWave, "record", negated)


def _certifier_always_true(monkeypatch):
    """A table certifier that passes every entry on every index."""
    monkeypatch.setattr(electron, "verify_symmetry", lambda entry, gs: (True,) * 4)


def _transform_wave_ignoring_arg_sig(monkeypatch):
    """A table entry applied to a wave without its argument signs on (x0, x)."""
    def transform_wave(entry, rec):
        return (rec.conjugate_function() if entry.conj else rec).apply_matrix(entry.matrix)
    monkeypatch.setattr(electron, "transform_wave", transform_wave)


def _charged_transform(monkeypatch, rewrite):
    """The charged-equation transform with its call rewritten by `rewrite`."""
    transform = electron.transform_charged_equation
    monkeypatch.setattr(electron, "transform_charged_equation",
                        lambda eq, rule, gs: rewrite(transform, eq, rule, gs))


def _charged_always_fixed_rule(monkeypatch):
    """A charged-equation transform that applies the fixed-potential rule under either rule."""
    _charged_transform(monkeypatch, lambda f, eq, rule, gs: f(eq, electron.FIXED_POTENTIAL, gs))


def _charged_keeping_constants(monkeypatch):
    """A charged-equation transform whose output keeps the input's (c, hbar) signs."""
    _charged_transform(monkeypatch, lambda f, eq, rule, gs: replace(
        f(eq, rule, gs), c_sign=eq.c_sign, hbar_sign=eq.hbar_sign))


def _charged_reading_only_constants(monkeypatch):
    """A charged-equation transform that reads only the input's (c, hbar) signs."""
    _charged_transform(monkeypatch, lambda f, eq, rule, gs: f(
        electron.ChargedEquation(c_sign=eq.c_sign, hbar_sign=eq.hbar_sign), rule, gs))


def _conjugation_matrix_negated(monkeypatch):
    """The inversion matrix g0 g2 in place of -g0 g2."""
    conjugation_matrix = electron.conjugation_matrix
    monkeypatch.setattr(electron, "conjugation_matrix", lambda gs: -conjugation_matrix(gs))


MUTATIONS = [
    (_currents_without_g0, dict(suites=("photon",)), {"photon.currents"}),
    (_c_photon_without_lam, dict(suites=("photon",), lam="-i"),
     {"photon.charge-conjugation-action", "photon.conjugate-energy-sign",
      "photon.cq-pointwise-equality", "photon.cq-record-equality"}),
    (_branch_blind_partner, dict(suites=("electron",)),
     {"electron.charge-conjugation-action", "electron.conjugation-commutator"}),
    (_p0_ignoring_c_sign, dict(suites=("electron",)),
     {"electron.conjugation-commutator", "electron.cq-pointwise-equality",
      "electron.cq-record-equality"}),
    # C's partner state and Q's relabeled record are both read with hbar = +1,
    # so they still agree and cq-pointwise-equality passes; cq-record-equality
    # rejects the partner, whose record is not g2 psi*.  The normalization
    # reads amplitudes only.  The photon state residual passes, since the
    # massless form is blind to hbar's sign
    (_plane_wave_ignoring_hbar_sign, dict(suites=("photon", "electron")),
     {"electron.charge-conjugation-action", "electron.conjugation-commutator",
      "electron.cq-record-equality", "electron.spinor-residuals",
      "photon.cq-pointwise-equality", "photon.cq-record-equality",
      "photon.displaced-phase-form", "photon.inversion-involution"}),
    # PlaneWave.make refuses every non-transverse draw, so each photon check that draws fails
    (_orthogonal_vector_without_projection, dict(suites=("photon",)),
     {"photon.charge-conjugation-action", "photon.conjugate-energy-sign",
      "photon.cq-pointwise-equality", "photon.cq-record-equality", "photon.currents",
      "photon.displaced-phase-form", "photon.inversion-involution",
      "photon.state-normalization", "photon.state-residual"}),
    # the three claims below have no copy asserted at construction, so their
    # own checks are what fails
    (_photon_norm_without_factor_2, dict(suites=("photon",)),
     {"photon.state-normalization", "photon.currents"}),
    (_photon_constraint_signs_negated, dict(suites=("photon",)),
     {"photon.conjugation-matrix-space"}),
    (_electron_constraint_signs_negated, dict(suites=("electron",)),
     {"electron.conjugation-matrix-unique"}),
    # the group's order is counted from the closure, so it can come out wrong
    (_p_with_t_signs, dict(suites=("group",)), {"group.sign-group-order"}),
    # a group of order 2 is cyclic; no mutation that keeps order 8 makes it so
    (_generators_collapsed_onto_t, dict(suites=("group",)),
     {"group.sign-group-order", "group.sign-group-not-cyclic", "group.field-operator-table"}),
    # products of sign triples always commute and square to E, so only the
    # classifier can fail this check, not the group
    (_element_orders_one_high, dict(suites=("group",)), {"group.sign-group-abelian-involutions"}),
    (_classifier_calling_the_group_non_abelian, dict(suites=("group",)),
     {"group.sign-group-abelian-involutions"}),
    # T1's broken products match no canonical operator, and the two counting checks say so
    (_t1_with_charge_flip, dict(suites=("group",)),
     {"group.field-operator-table", "group.field-operator-relations",
      "group.sixteen-distinct-symmetries", "group.worked-collapses"}),
    (_reduction_dropping_last_factor, dict(suites=("group",)), {"group.worked-collapses"}),
    # every field operator commutes with Q1, so maxwell.classical-conjugation passes
    (_classical_conjugation_q1_alone, dict(suites=("group", "maxwell")),
     {"group.classical-conjugation-composite"}),
    (_conjugate_wave_keeping_m, dict(suites=("maxwell",)),
     {"maxwell.classical-conjugation", "maxwell.energy-flux-invariance"}),
    (_massless_residual_with_g0_negated, dict(suites=("photon",)), {"photon.state-residual"}),
    # Q never builds a branch -1 record, so C = g2 psi* is what fails
    (_negative_branch_blocks_swapped, dict(suites=("electron",)),
     {"electron.cq-record-equality", "electron.cq-pointwise-equality",
      "electron.conjugation-commutator", "electron.spinor-normalization",
      "electron.spinor-residuals"}),
    # a root fault: Q's value off by sqrt(2) differs from C's exactly and at every
    # point, and C Q no longer restores the state
    (_q_spinor_root_doubled, dict(suites=("electron",)),
     {"electron.cq-record-equality", "electron.cq-pointwise-equality",
      "electron.conjugation-commutator"}),
    (_kernel_dropping_last_nonzero, dict(suites=("maxwell", "photon", "electron")),
     {"maxwell.plane-wave-residual", "photon.gamma-defining-identities",
      "electron.gamma-defining-identities"}),
    (_rest_state_on_negative_branch, dict(suites=("electron",)), {"electron.rest-frame"}),
    (_qp_matrix_without_i, dict(suites=("electron",)), {"electron.table-correspondence"}),
    (_symmetry_ignoring_conjugation, dict(suites=("electron",)),
     {"electron.transform-table-certified"}),
    # a rejected gamma set ends its suite, so no later check runs
    (_dirac_g1_without_block_sign, dict(suites=("electron",)),
     {"electron.gamma-defining-identities"}),
    (_photon_g1_without_block_sign, dict(suites=("photon",)), {"photon.gamma-defining-identities"}),
    (_plane_wave_without_transversality, dict(suites=("maxwell",)),
     {"maxwell.constraint-rejection"}),
    # the back-to-back momenta sum to zero, so adding |p|^2 leaves their s alone;
    # the verdict and the scan take s from _pair_mass_sq, not from this function
    (_mass_adding_momentum, dict(suites=("kinematics",)), {"kinematics.single-photon-null"}),
    # a sign fault in the one norm reaches every s: the scan's direct s then
    # disagrees with the closed form
    (_metric_with_plus_signs, dict(suites=("kinematics",)),
     {"kinematics.single-photon-null", "kinematics.collinear-marginal",
      "kinematics.vacuum-transition-infeasible"}),
    (_mass_of_first_momentum, dict(suites=("kinematics",)),
     {"kinematics.back-to-back-pair", "kinematics.permutation-invariance"}),
    (_mass_with_plain_sum, dict(suites=("kinematics",)), {"kinematics.permutation-invariance"}),
    (_closed_form_with_plus_one, dict(suites=("kinematics",)),
     {"kinematics.vacuum-transition-infeasible"}),
    (_invariants_ignoring_convention, dict(suites=("kinematics",)),
     {"kinematics.scalar-invariant-signs"}),
    (_mutated_p1_is_p1, dict(suites=("maxwell",)), {"maxwell.mutation-control"}),
    (_transform_ignoring_time_sign, dict(suites=("maxwell",)), {"maxwell.invariance-all-sixteen"}),
    (_residual_always_zero, dict(suites=("maxwell",)), {"maxwell.wrong-polarity-control"}),
    (_system_without_last_row, dict(suites=("maxwell",)), {"maxwell.system-shape"}),
    (_wave_record_with_k0_negated, dict(suites=("maxwell",)),
     {"maxwell.plane-wave-residual", "maxwell.wrong-polarity-control"}),
    (_certifier_always_true, dict(suites=("electron",)), {"electron.corrupted-entry-control"}),
    (_transform_wave_ignoring_arg_sig, dict(suites=("electron",)),
     {"electron.table-spot-residuals"}),
    # the fixed rule is an involution too, so charged-equation-involution passes
    (_charged_always_fixed_rule, dict(suites=("electron",)),
     {"electron.charged-equation-flipped-potential"}),
    (_charged_keeping_constants, dict(suites=("electron",)),
     {"electron.charged-equation-fixed-potential"}),
    (_charged_reading_only_constants, dict(suites=("electron",)),
     {"electron.charged-equation-involution"}),
    (_conjugation_matrix_negated, dict(suites=("electron",)),
     {"electron.conjugation-matrices-coincide"}),
]

#: the report checks that no row names, each with the reason none can
UNNAMED = {
    "photon.gamma5-product": "fails in every run, so no row can make it newly fail; "
                             "acceptance criterion 05 is its control",
}


def test_every_check_is_named_by_a_row_or_excused():
    named = set().union(*(must_fail for _, _, must_fail in MUTATIONS))
    assert {f"{c.suite}.{c.id}" for c in report._CHECKS} - named == UNNAMED.keys()


def _results(config_kwargs):
    report = run(RunConfig(samples=10, **config_kwargs))
    return {c.id: (c.status, c.details) for c in report.checks}


@pytest.mark.parametrize("mutate, config_kwargs, must_fail", MUTATIONS,
                         ids=[row[0].__name__.lstrip("_") for row in MUTATIONS])
def test_mutation_fails_its_checks(monkeypatch, mutate, config_kwargs, must_fail):
    unpatched = _results(config_kwargs)
    assert {unpatched[i][0] for i in must_fail} == {"pass"}
    mutate(monkeypatch)
    mutated = _results(config_kwargs)
    newly_failing = {i for i, (status, _) in mutated.items()
                     if status == "fail" and unpatched[i][0] == "pass"}
    assert newly_failing == must_fail
    # a failing check names what failed instead of repeating its pass text
    assert {i: mutated[i][1] for i in must_fail if mutated[i][1] == unpatched[i][1]} == {}


@pytest.mark.parametrize("mutate, check_id, details", [
    (_p_with_t_signs, "group.sign-group-order", "order = 4"),
    (_classifier_calling_the_group_non_abelian, "group.sign-group-abelian-involutions",
     "two elements do not commute"),
    (_generators_collapsed_onto_t, "group.sign-group-not-cyclic",
     "an element of order 2 generates the whole group"),
    (_negative_branch_blocks_swapped, "electron.cq-record-equality",
     "the partner state's record is not g2 psi* for SpinorState("),
    (_t1_with_charge_flip, "group.field-operator-table", "row T1 differs from its table entry"),
    (_t1_with_charge_flip, "group.sixteen-distinct-symmetries",
     "product T2*Q2 matches no canonical operator (32 of 64 products match none)"),
    (_t1_with_charge_flip, "group.worked-collapses",
     "product P1*P2*T1*T2 matches no canonical operator; "
     "product P1*P2*T1*T2*Q1*Q2 matches no canonical operator"),
    (_c_photon_without_lam, "photon.conjugate-energy-sign",
     "conjugated energy 1/8 and flux are not lambda^2 = -1 times the state's energy 1/8"),
], ids=["sign-group-order", "sign-group-abelian-involutions", "sign-group-not-cyclic",
        "cq-record-equality", "field-operator-table",
        "sixteen-distinct-symmetries", "worked-collapses", "conjugate-energy-sign"])
def test_mutation_details_name_the_claim(monkeypatch, mutate, check_id, details):
    """The failure details say which claim broke, and no pass sentence is printed."""
    mutate(monkeypatch)
    suite = check_id.split(".")[0]
    check = {c.id: c for c in run(RunConfig(suites=(suite,), samples=10)).checks}[check_id]
    assert check.status == "fail"
    assert check.details.startswith(details)
    assert "< 0" not in check.details
