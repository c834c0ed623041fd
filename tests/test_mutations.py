"""Mutation controls: each row breaks one csym function and names the checks
that must then fail.

A row is (mutation, run config, check ids).  The mutation monkeypatches one
function the report reads; the run uses 10 samples.  The same config run
without the mutation passes every named check, so a row fails only because
of what it breaks.
"""

import pytest

from csym import photon
from csym.report import RunConfig, run
from csym.waves import bilinear
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


MUTATIONS = [
    (_currents_without_g0, dict(suites=("photon",)), {"photon.currents"}),
    (_c_photon_without_lam, dict(suites=("photon",), lam="-i"),
     {"photon.charge-conjugation-action"}),
    (_branch_blind_partner, dict(suites=("electron",)), {"electron.charge-conjugation-action"}),
]


def _statuses(config_kwargs):
    report = run(RunConfig(samples=10, **config_kwargs))
    return {c.id: c.status for c in report.checks}


@pytest.mark.parametrize("mutate, config_kwargs, must_fail", MUTATIONS,
                         ids=[row[0].__name__.lstrip("_") for row in MUTATIONS])
def test_mutation_fails_its_checks(monkeypatch, mutate, config_kwargs, must_fail):
    unpatched = _statuses(config_kwargs)
    assert {unpatched[i] for i in must_fail} == {"pass"}
    mutate(monkeypatch)
    mutated = _statuses(config_kwargs)
    assert {i: mutated[i] for i in must_fail} == dict.fromkeys(must_fail, "fail")
