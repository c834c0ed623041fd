"""Mutation controls: each row breaks one csym function and names the checks
that must then fail, and no others.

A row is (mutation, run config, check ids).  The mutation monkeypatches one
function the report reads; the run uses 10 samples.  The same config run
without the mutation passes every named check, so a row fails only because
of what it breaks.  Each failing check must report details other than its
pass text, so that the report names what broke.
"""

from fractions import Fraction

import pytest

from csym import electron, gamma, maxwell, photon, report, waves
from csym.report import RunConfig, run
from csym.sampling import dot
from csym.waves import PlaneWaveFunction, Radical, bilinear, plane_wave
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


def _negated_signs(gs, signs):
    return gamma.solve_conjugation_space(gs, tuple(-s for s in signs))


def _photon_constraint_signs_negated(monkeypatch):
    """The photon conjugation constraints solved with every sign negated."""
    monkeypatch.setattr(photon, "solve_conjugation_space", _negated_signs)


def _electron_constraint_signs_negated(monkeypatch):
    """The electron conjugation constraints solved with every sign negated."""
    monkeypatch.setattr(electron, "solve_conjugation_space", _negated_signs)


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
    # the electron checks fail on apply_C_spinor's template assertion; the
    # photon state residual passes, since the massless form is blind to hbar's sign
    (_plane_wave_ignoring_hbar_sign, dict(suites=("photon", "electron")),
     {"electron.charge-conjugation-action", "electron.conjugation-commutator",
      "electron.cq-pointwise-equality", "electron.cq-record-equality",
      "electron.spinor-normalization", "electron.spinor-residuals",
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
