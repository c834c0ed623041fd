"""Mutation controls: each row breaks one csym function and names the checks
that must then fail, and no others.

A row is (mutation, run config, check ids).  The mutation monkeypatches one
function the report reads; the run uses 10 samples.  The same config run
without the mutation passes every named check, so a row fails only because
of what it breaks.  Each failing check must report details other than its
pass text, so that the report names what broke.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from csym import electron, gamma, maxwell, photon, report, signgroup, waves
from csym.exact import ExactMatrix
from csym.report import RunConfig, run
from csym.sampling import dot
from csym.waves import PlaneWaveFunction, Radical, bilinear, dirac_residual, plane_wave
from test_electron import _branch_blind_partner


def _currents_without_g0(monkeypatch):
    """Psi^dagger g^a Psi in place of Psi-bar g^a Psi: the g0 of Psi-bar is lost."""
    def currents(state, conjugated, gs):
        amps = (state.record().amp, conjugated.record().amp)
        j, jc = ([bilinear(a, g, a) for g in gs.vector] for a in amps)
        return j[0], tuple(j[1:]), jc[0], tuple(jc[1:])
    monkeypatch.setattr(photon, "currents", currents)


def _c_photon_without_lam(monkeypatch):
    """Charge conjugation that conjugates the record but drops the phase lam."""
    def apply_c(wave):
        return photon.ConjugatedPhoton(function=wave.record().conjugate_function(), lam=wave.lam,
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
        return PlaneWaveFunction(amp, [-p0, *p])
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
        amp = [Radical(1, 1 / dot(self.wave.l, self.wave.l)) * x
               for x in maxwell.field_column(self.wave)[:8]]
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
        return u if self.branch == 1 else u[2:] + u[:2]
    monkeypatch.setattr(electron.SpinorState, "bispinor", swapped)


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
]


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
], ids=["sign-group-order", "cq-record-equality", "field-operator-table",
        "sixteen-distinct-symmetries", "worked-collapses", "conjugate-energy-sign"])
def test_mutation_details_name_the_claim(monkeypatch, mutate, check_id, details):
    """The failure details say which claim broke, and no pass sentence is printed."""
    mutate(monkeypatch)
    suite = check_id.split(".")[0]
    check = {c.id: c for c in run(RunConfig(suites=(suite,), samples=10)).checks}[check_id]
    assert check.status == "fail"
    assert check.details.startswith(details)
    assert "< 0" not in check.details
