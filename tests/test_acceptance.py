"""Acceptance suite: the twelve exit criteria, one printed line each.

Exact criteria run at zero tolerance; sampled criteria at 1e-12 relative.
Criterion 5 asserts that the verifier rejects the claimed product form
g0 g1 g2 g3 = g5 of the fifth 8-dimensional matrix, and criterion 12 asserts
the exit status that reports that rejection. The relation fails in every
representation, not only for the printed matrices: by the anticommutation
relations alone, P = g0 g1 g2 g3 anticommutes with every g_mu, squares to -I
and is antihermitian, while the construction requires {g0, g5} = -2I,
g5^2 = I and g5 hermitian.
"""

import json
import subprocess
import sys
from fractions import Fraction

import numpy as np

from csym import electron, kinematics, maxwell, photon, signgroup
from csym.exact import EC_ONE, ExactComplex, ExactMatrix, anticommutator
from csym.report import random_spinor
from csym.sampling import spacetime_points


def _criterion(num, name, fn):
    try:
        fn()
    except BaseException:
        print(f"criterion {num:2d} [{name}]: FAIL", flush=True)
        raise
    print(f"criterion {num:2d} [{name}]: PASS", flush=True)


def _worst_pointwise_gap(c_rec, q_rec, x) -> float:
    """Worst relative C/Q gap over the points x, one array evaluation per record.

    np.max propagates NaN, and NaN <= bound is false, so a non-finite gap fails.
    """
    cv, qv = c_rec.evaluate(x), q_rec.evaluate(x)
    scale = np.maximum(np.max(np.abs(cv), axis=1), 1e-300)
    return float(np.max(np.max(np.abs(cv - qv), axis=1) / scale))


def test_criterion_01_sign_group_structure():
    def body():
        table = signgroup.generate_g8()
        structure = signgroup.classify_group(table)
        assert len(table) == 8
        assert structure.is_abelian
        assert sorted(structure.element_orders.values()) == [1] + [2] * 7

    _criterion(1, "sign-group structure", body)


def test_criterion_02_sixteen_symmetries():
    def body():
        canon, name_map = signgroup.enumerate_distinct()
        assert len(set(canon.values())) == 16
        assert len(name_map) == 64
        assert signgroup.reduce_product(("P1", "Q1", "Q2")) == "P2"
        assert signgroup.reduce_product(("P1", "P2", "T1", "T2")) == "E"

    _criterion(2, "sixteen distinct symmetries", body)


def test_criterion_03_field_system_invariance():
    def body():
        system = maxwell.build_maxwell_system()
        assert system.n_equations == 14
        for name, op in signgroup.canonical_operators().items():
            assert maxwell.check_invariance(system, op).invariant, name
        # one-sign mutation control must fail
        from csym.report import _mutated_p1

        assert not maxwell.check_invariance(system, _mutated_p1()).invariant

    _criterion(3, "field-system invariance", body)


def test_criterion_04_classical_conjugation():
    def body():
        w = maxwell.PlaneWave.make(
            (Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)), (3, -2, 0), Fraction(5, 4)
        )
        phi = maxwell.field_column(w)
        assert maxwell.classical_conjugate_column(phi) == [-x for x in phi]
        cw = maxwell.classical_conjugate_wave(w)
        assert cw.l == tuple(-x for x in w.l) and cw.m == tuple(-x for x in w.m)
        assert maxwell.energy_poynting_record(w) == maxwell.energy_poynting_record(cw)
        rng = np.random.default_rng(4)
        for x in spacetime_points(rng, 100):
            Wv, Sv = maxwell.energy_poynting(w, x)
            Wc, Sc = maxwell.energy_poynting(cw, x)
            assert Wv >= 0
            assert abs(Wv - Wc) <= 1e-12 * max(abs(Wv), 1e-300)
            assert all(abs(a - b) <= 1e-12 * max(abs(Wv), 1.0) for a, b in zip(Sv, Sc))

    _criterion(4, "classical conjugation", body)


def test_criterion_05_gamma_algebras():
    def body():
        g8 = photon.build_gamma8()   # verifies its identity families exactly
        g4 = electron.build_gamma4()   # verifies every 4-dim identity exactly
        ident8 = ExactMatrix.identity(8)
        # the shifted anticommutation relation, spelled out at zero tolerance
        assert anticommutator(g8.g0, g8.g5) == ident8.scale(-2)
        for g in (g8.g1, g8.g2, g8.g3):
            assert anticommutator(g, g8.g5).is_zero()
        assert (g4.g0 @ g4.g1 @ g4.g2 @ g4.g3).scale(ExactComplex(0, -1)) == g4.g5
        # the claimed product form g0 g1 g2 g3 = g5 contradicts the identities
        # above in every representation; prove it here, then require the
        # verifier to reject the relation and return the true product
        product = g8.g0 @ g8.g1 @ g8.g2 @ g8.g3
        for g in (g8.g0, g8.g1, g8.g2, g8.g3):
            assert anticommutator(g, product).is_zero()
        assert product @ product == -ident8
        assert product.dagger() == -product
        assert g8.g5 @ g8.g5 == ident8
        assert g8.g5.dagger() == g8.g5
        equal, checked = photon.gamma5_product_check(g8)
        assert not equal, "verifier accepts g0 g1 g2 g3 = g5, which no matrices satisfy"
        assert checked == product

    _criterion(5, "gamma algebras", body)


def test_criterion_06_conjugation_matrices():
    def body():
        g8 = photon.build_gamma8()
        space8 = photon.solve_conjugation_8(g8)
        assert space8.rank + space8.nullity == 64
        assert space8.nullity == 4  # frozen pre-build oracle value
        for lam in (1, -1, ExactComplex(0, 1), ExactComplex(0, -1)):
            assert space8.contains(g8.g0.scale(lam))
        g4 = electron.build_gamma4()
        space4 = electron.solve_UQ(g4)
        assert space4.nullity == 1  # frozen pre-build oracle value
        assert space4.contains(electron.conjugation_matrix(g4))
        assert electron.conjugation_matrix(g4) == -(g4.g0 @ g4.g2)

    _criterion(6, "conjugation matrices", body)


def test_criterion_07_photon_conjugation_equality():
    def body():
        g8 = photon.build_gamma8()
        rng = np.random.default_rng(7)
        from csym.report import _random_photon

        for _ in range(100):
            st = _random_photon(rng)
            c = photon.apply_C_photon(st)
            q = photon.apply_Q_photon(st, g8)
            assert c.record() == q.record()  # exact where symbolic
            x = spacetime_points(rng, 100)
            assert _worst_pointwise_gap(c.record(), q.record(), x) <= 1e-12
            j0, jk, j0c, jkc = photon.currents(st, q, g8)
            assert j0 == EC_ONE and j0c == EC_ONE
            assert jk == tuple(ExactComplex(x) for x in st.wave.n) and jkc == jk

    _criterion(7, "photon conjugation equality", body)


def test_criterion_08_electron_conjugation_equality():
    def body():
        g4 = electron.build_gamma4()
        rng = np.random.default_rng(8)
        for i in range(1000):
            st = random_spinor(rng)
            c = electron.apply_C_spinor(st, g4)
            q = electron.apply_Q_spinor(st, g4)
            assert c.record() == q.record()  # exact record equality
            assert electron.spinor_norm(st, g4) == ExactComplex(2 * st.m)
            assert electron.spinor_norm(c, g4) == ExactComplex(-2 * st.m)
            if i % 10 == 0:  # numeric spot checks on a tenth of the draws
                x = spacetime_points(rng, 10)
                assert _worst_pointwise_gap(c.record(), q.record(), x) <= 1e-12
        # commutator of the two conjugations
        for _ in range(25):
            st = random_spinor(rng)
            cq = electron.apply_C_spinor(electron.apply_Q_spinor(st, g4), g4)
            qc = electron.apply_Q_spinor(electron.apply_C_spinor(st, g4), g4)
            assert cq.record() == qc.record()
            assert cq.z_label == st.z and qc.z_label == st.z

    _criterion(8, "electron conjugation equality", body)


def test_criterion_09_transformation_table():
    def body():
        g4 = electron.build_gamma4()
        table = electron.build_transform_table(g4)
        for name in ("P", "T", "PT", "QPT", "QT", "QP", "Q"):
            assert all(electron.verify_symmetry(table[name], g4)), name
        bad = electron.DiracTransform("Q-bad", g4.g1, True, (1, 1), c_sign=-1, hbar_sign=-1)
        assert not all(electron.verify_symmetry(bad, g4))

    _criterion(9, "transformation table", body)


def test_criterion_10_charged_equation():
    def body():
        g4 = electron.build_gamma4()
        eq = electron.ChargedEquation()
        fixed = electron.transform_charged_equation(eq, "fixed", g4)
        assert fixed.form() == (-1, 1, 1, 1)  # charge negated, all else kept
        flipped = electron.transform_charged_equation(eq, "flipped", g4)
        assert flipped.form() == eq.form()  # exact symmetry

    _criterion(10, "charged equation", body)


def test_criterion_11_kinematics():
    def body():
        res = kinematics.infeasibility_scan(draws=10_000, seed=0, tolerance=1e-12)
        assert res.passed
        assert res.worst_relative_gap <= 1e-12
        assert res.max_closed_form <= 1e-12
        fixed = kinematics.scalar_invariants("hbar_fixed")
        flips = kinematics.scalar_invariants("hbar_flips")
        assert fixed["e2_over_hbar_c"] == -1 and fixed["mass"] == 1
        assert flips == {"e2_over_hbar_c": 1, "hbar_c": 1, "hbar_over_c": 1, "mass": 1}

    _criterion(11, "kinematics", body)


def test_criterion_12_reporting(tmp_path):
    def body():
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        results = []
        for p in paths:
            results.append(
                subprocess.run(
                    [sys.executable, "-m", "csym.cli", "verify", "--quiet",
                     "--json", str(p)],
                    capture_output=True,
                    text=True,
                )
            )
        data = json.loads(paths[0].read_text())
        # schema validation
        assert set(data) == {"version", "config", "checks", "summary"}
        assert set(data["summary"]) == {"total", "passed", "failed"}
        for c in data["checks"]:
            assert set(c) == {"id", "suite", "description", "reference", "status", "details"}
        # byte-reproducibility for a fixed config
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # both runs end alike, and the exit status mirrors the summary
        assert results[0].returncode == results[1].returncode
        assert results[0].stderr == "" and results[1].stderr == ""
        summary = data["summary"]
        assert results[0].returncode == (0 if summary["failed"] == 0 else 1)
        statuses = [c["status"] for c in data["checks"]]
        assert summary["total"] == len(statuses)
        assert summary["passed"] == statuses.count("pass")
        assert summary["failed"] == statuses.count("fail")
        # the only red check is the rejected product relation of criterion 5
        failing = {c["id"] for c in data["checks"] if c["status"] == "fail"}
        assert failing == {"photon.gamma5-product"}

    _criterion(12, "reporting", body)
