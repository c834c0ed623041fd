"""The Dirac equation: algebra, table, spinors, conjugations, charged form."""

import dataclasses
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from csym import electron
from csym.electron import (
    FIXED_POTENTIAL,
    FLIPPED_POTENTIAL,
    GAMMA4,
    POTENTIAL_RULES,
    ChargedEquation,
    DiracTransform,
    SpinorState,
    apply_C_spinor,
    apply_Q_spinor,
    build_spinor,
    build_transform_table,
    conjugation_matrix,
    free_residual,
    solve_UQ,
    spinor_norm,
    transform_charged_equation,
    transformed_residual,
    verify_symmetry,
)
from csym.exact import EC_I, ExactComplex, ExactMatrix, anticommutator
from csym.gamma import GammaIdentityError, solve_conjugation_space
from csym import report as report_module
from csym.report import RunConfig, random_spinor, run
from csym.sampling import (
    gaussian_rational_spinor,
    momentum_mass_energy,
    rational_unit_vector,
    spacetime_points,
)
from csym.waves import PlaneWaveFunction, Radical, amplitude, bilinear, labels

MINUS_I = ExactComplex(0, -1)


def _one_root(entries, kappa) -> PlaneWaveFunction:
    """The record of per-entry radicals, written over the largest of their radicands.

    An entry e equals (c / root) sqrt(root) when e sqrt(root) folds to a
    rational c; an entry incommensurable with that root fails the assertion.
    """
    root = max(e.radicand for e in entries)
    vec = []
    for e in entries:
        folded = e * Radical(1, root)
        assert folded.radicand == 1, (e, root)
        vec.append(folded.coeff / root)
    return PlaneWaveFunction(vec, root, kappa)


def _reference_q_record(st, gs):
    """The Q image assembled term by term from the substituted labels.

    c, hbar, sigma and every 4-momentum label are negated; (n.sigma) is
    unchanged by n -> -n together with sigma -> -sigma.  Bispinor radicals
    take the conjugate branch (-i), the 1/sqrt(2 p0) prefactor the principal
    one; the relabeled function is conjugated and multiplied by -g2.
    """
    p0, mc, hb = -st.p0, -st.mc, Fraction(-st.hbar_sign)
    p = tuple(-pk for pk in st.p)
    # the direction n = p / |p|, any unit vector at rest where the lower block vanishes
    n1, n2, n3 = (pk / st.p_abs for pk in st.p) if st.p_abs else (0, 0, 1)
    z0, z1 = st.z
    nsz = (n3 * z0 + ExactComplex(n1, -n2) * z1, ExactComplex(n1, n2) * z0 - n3 * z1)
    snorm = Radical(1, 1 / st.s)
    radp = Radical.sqrt(p0 + mc, negative_branch=MINUS_I)
    radm = Radical.sqrt(p0 - mc, negative_branch=MINUS_I)
    pref = Radical(1, 1 / (2 * p0)) if p0 > 0 else Radical(MINUS_I, -1 / (2 * p0))
    if st.branch == 1:
        parts = [radp * Radical(z0), radp * Radical(z1), radm * Radical(nsz[0]),
                 radm * Radical(nsz[1])]
    else:
        parts = [radm * Radical(nsz[0]), radm * Radical(nsz[1]), radp * Radical(z0),
                 radp * Radical(z1)]
    sign = -st.branch
    kappa = [sign * p0 / hb] + [-sign * pk / hb for pk in p]
    relabeled = _one_root([x * snorm * pref for x in parts], kappa)
    return relabeled.conjugate_function().apply_matrix(-gs.g2)


def _reference_transform_wave(entry, rec):
    """psi'(x) = M psi^(*)(eps x) written out on the record by hand.

    The argument signs scale kappa; conjugation conjugates every amplitude
    and negates kappa; the matrix then acts on the amplitudes.
    """
    vec = rec.vec
    kappa = [rec.kappa[0] * entry.arg_sig[0]] + [k * entry.arg_sig[1] for k in rec.kappa[1:]]
    if entry.conj:
        vec = tuple(a.conjugate() for a in vec)
        kappa = [-k for k in kappa]
    return PlaneWaveFunction(vec, rec.root, kappa).apply_matrix(entry.matrix)


def _kappa_kept_under_conjugation(entry, rec):
    """A wrong transform: conjugates the amplitudes but keeps kappa's sign."""
    vec = tuple(a.conjugate() for a in rec.vec) if entry.conj else rec.vec
    kappa = [rec.kappa[0] * entry.arg_sig[0]] + [k * entry.arg_sig[1] for k in rec.kappa[1:]]
    return PlaneWaveFunction(vec, rec.root, kappa).apply_matrix(entry.matrix)


def _matches_reference_transform(transform, gs, rng):
    """Entry names where transform agrees with the reference, over both branches."""
    agree = set()
    for branch in (1, -1):
        rec = random_spinor(rng, branch=branch).record()
        for name, entry in build_transform_table(gs).items():
            if transform(entry, rec) == _reference_transform_wave(entry, rec):
                agree.add((branch, name))
    return agree


def _branch_blind_partner(monkeypatch):
    """Make the partner 2-spinor ignore its branch: always -sigma_y z*."""
    partner = electron._partner_z
    monkeypatch.setattr(electron, "_partner_z", lambda z, branch: partner(z, 1))


def _sigma_unflipped(monkeypatch):
    """Make every spinor record ignore its sigma label: a Q that keeps sigma."""
    record = SpinorState.record
    monkeypatch.setattr(
        SpinorState, "record", lambda st: record(dataclasses.replace(st, sigma_sign=1))
    )


class TestGammaAlgebra4:
    def test_anticommutators(self, gamma4):
        metric = (1, -1, -1, -1)
        for a in range(4):
            for b in range(4):
                want = ExactMatrix.identity(4).scale(2 * (metric[a] if a == b else 0))
                assert anticommutator(gamma4.vector[a], gamma4.vector[b]) == want

    def test_g5_product(self, gamma4):
        prod = (gamma4.g0 @ gamma4.g1 @ gamma4.g2 @ gamma4.g3).scale(MINUS_I)
        assert prod == gamma4.g5

    def test_g2_imaginary(self, gamma4):
        assert gamma4.g2.conj() == -gamma4.g2

    def test_transpose_pattern(self, gamma4):
        assert gamma4.g0.transpose() == gamma4.g0
        assert gamma4.g2.transpose() == gamma4.g2
        assert gamma4.g1.transpose() == -gamma4.g1
        assert gamma4.g3.transpose() == -gamma4.g3

    def test_g5_anticommutes(self, gamma4):
        for g in gamma4.vector:
            assert anticommutator(g, gamma4.g5).is_zero()

    @pytest.mark.parametrize("corrupt", [
        (name, i, j) for name in ("g0", "g1", "g2", "g3", "g5") for i in range(4) for j in range(4)
    ], ids=lambda c: "-".join(map(str, c)))
    def test_corruption_rejected(self, corrupt, gamma4, corrupt_gamma):
        with pytest.raises(GammaIdentityError):
            corrupt_gamma(gamma4, GAMMA4, *corrupt)


class TestConjugationMatrix:
    def test_nullity_one(self, gamma4):
        space = solve_UQ(gamma4)
        assert space.nullity == 1
        assert space.rank == 15

    def test_minus_g0g2_satisfies_constraints(self, gamma4):
        u = conjugation_matrix(gamma4)
        for g, sign in zip(gamma4.vector, (-1, 1, -1, 1)):
            assert u @ g == (g @ u).scale(sign)
        # which is exactly U g^aT U^-1 = -g^a
        for a, g in enumerate(gamma4.vector):
            assert u @ g.transpose() == (-g) @ u

    def test_identity_fails_constraints(self, gamma4):
        space = solve_UQ(gamma4)
        assert not space.contains(ExactMatrix.identity(4))

    def test_uc_equals_uq(self, gamma4):
        table = build_transform_table(gamma4)
        u_c = table["C"].matrix @ gamma4.g0
        assert u_c == conjugation_matrix(gamma4)
        assert conjugation_matrix(gamma4) == -(gamma4.g0 @ gamma4.g2)


class TestTransformTable:
    def test_entry_matrices(self, gamma4):
        table = build_transform_table(gamma4)
        assert table["P"].matrix == gamma4.g0.scale(EC_I)
        assert table["Q"].matrix == gamma4.g2 and table["Q"].conj
        assert table["QPT"].matrix == gamma4.g5.scale(EC_I)
        assert table["QT"].matrix == (gamma4.g1 @ gamma4.g2 @ gamma4.g3).scale(EC_I)
        assert table["QP"].matrix == (gamma4.g0 @ gamma4.g2).scale(EC_I)
        assert table["T"].matrix == (gamma4.g1 @ gamma4.g3).scale(MINUS_I)
        assert table["PT"].matrix == gamma4.g0 @ gamma4.g1 @ gamma4.g3

    def test_all_entries_certified(self, gamma4):
        table = build_transform_table(gamma4)
        for name, entry in table.items():
            assert all(verify_symmetry(entry, gamma4)), name

    def test_q_entries_flip_both_constants(self, gamma4):
        table = build_transform_table(gamma4)
        for name in ("Q", "QP", "QT", "QPT"):
            assert (table[name].c_sign, table[name].hbar_sign) == (-1, -1)
        for name in ("P", "T", "PT", "C", "CP", "CT", "CPT"):
            assert (table[name].c_sign, table[name].hbar_sign) == (1, 1)

    def test_correspondence_rows_share_matrices(self, gamma4):
        table = build_transform_table(gamma4)
        for c_name, q_name in (("C", "Q"), ("CP", "QP"), ("CT", "QT"), ("CPT", "QPT")):
            assert table[c_name].matrix == table[q_name].matrix
            assert table[c_name].conj == table[q_name].conj
            assert table[c_name].arg_sig == table[q_name].arg_sig

    def test_corrupted_entry_fails(self, gamma4):
        bad = DiracTransform("Q-bad", gamma4.g1, True, (1, 1), c_sign=-1, hbar_sign=-1)
        assert not all(verify_symmetry(bad, gamma4))

    def test_p_without_space_flip_fails(self, gamma4):
        bad = DiracTransform("P-bad", gamma4.g0.scale(EC_I), False, (1, 1))
        assert not all(verify_symmetry(bad, gamma4))

    def test_spot_residuals_all_entries(self, gamma4, rng):
        st = random_spinor(rng)
        for name, entry in build_transform_table(gamma4).items():
            assert transformed_residual(entry, st, gamma4) == 0.0, name

    def test_transform_wave_matches_the_reference(self, gamma4, rng):
        agree = _matches_reference_transform(electron.transform_wave, gamma4, rng)
        assert len(agree) == 2 * 11

    def test_reference_rejects_a_transform_that_keeps_kappa(self, gamma4, rng):
        # the control: only the five entries without conjugation still agree
        agree = _matches_reference_transform(_kappa_kept_under_conjugation, gamma4, rng)
        table = build_transform_table(gamma4)
        assert {name for _, name in agree} == {n for n, e in table.items() if not e.conj}

    def test_singular_matrix_rejected(self, gamma4):
        with pytest.raises(ValueError, match="singular"):
            DiracTransform("bad", ExactMatrix.zeros(4, 4), False, (1, 1))

    @pytest.mark.parametrize("arg_sig", [(1,), (1, 1, -1)], ids=["one", "three"])
    def test_arg_sig_of_other_length_rejected(self, arg_sig):
        with pytest.raises(ValueError, match=r"^arg_sig must hold the two signs on \(x0, x\), got "):
            DiracTransform("bad", ExactMatrix.identity(4), False, arg_sig)

    def test_non_bool_conj_rejected(self):
        with pytest.raises(ValueError, match="^conj must be a bool, got 'yes'$"):
            DiracTransform("bad", ExactMatrix.identity(4), "yes", (1, 1))


#: a symmetry class: (conjugation or not, s = c_sign * hbar_sign, eps0, epsx)
CLASSES = tuple(product((False, True), (1, -1), (1, -1), (1, -1)))


def _class_of(entry):
    return (entry.conj, entry.c_sign * entry.hbar_sign, *entry.arg_sig)


def _class_signs(gs, conj, s, eps0, epsx):
    """sigma_a with M g_a = sigma_a g_a M on the class's line.

    verify_symmetry's g^a M = k M R_a, with R_a = g^a and k = s eps_a when
    unitary, R_a = (g^a)* = r_a g^a and k = -s eps_a when antiunitary, is
    M g_a = sigma_a g_a M with sigma_a = s eps_a, or -s eps_a r_a.  The
    reality signs r_a are read from the built set.
    """
    reality = [1 if g.conj() == g else -1 for g in gs.vector]
    assert all(g.conj() == g.scale(r) for g, r in zip(gs.vector, reality))
    eps = (eps0, epsx, epsx, epsx)
    if conj:
        return tuple(-s * e * r for e, r in zip(eps, reality))
    return tuple(s * e for e in eps)


@pytest.fixture(scope="module")
def class_lines(gamma4):
    """Each class's solution space, solved once per distinct system."""
    solved = {}
    for cls in CLASSES:
        signs = _class_signs(gamma4, *cls)
        if signs not in solved:
            solved[signs] = solve_conjugation_space(gamma4, signs)
    return {cls: solved[_class_signs(gamma4, *cls)] for cls in CLASSES}


def _square_conj_sign(m):
    """f with M M* = f |.|^2 I, f = +1 or -1: unchanged when M is scaled."""
    prod = m @ m.conj()
    lam = prod[0, 0]
    assert lam.is_real() and prod == ExactMatrix.identity(4).scale(lam)
    return 1 if lam.re > 0 else -1


class TestDiracClassification:
    """The 16 symmetry classes of the free Dirac equation, each solved as a line.

    A class (conjugation or not, s = c_sign * hbar_sign, eps0, epsx) fixes
    the constraints M g_a = sigma_a g_a M, which are linear in M.  A line is
    scale-free: it cannot tell i g0 g2 from g0 g2, so a QP row written as
    g0 g2 still lies on its class's line, which is why the invariants below
    are scale- and phase-independent (M M* = +-I, M1 M2 = +-M2 M1).
    """

    def test_every_class_is_a_line(self, gamma4, class_lines):
        assert all(space.nullity == 1 for space in class_lines.values())
        assert len({_class_signs(gamma4, *cls) for cls in CLASSES}) == 8
        for conj, s, eps0, epsx in CLASSES:  # (s, eps) and (-s, -eps) share one system
            assert (_class_signs(gamma4, conj, s, eps0, epsx)
                    == _class_signs(gamma4, conj, -s, -eps0, -epsx))

    def test_table_rows_lie_on_their_lines(self, gamma4, class_lines):
        table = build_transform_table(gamma4)
        for name, entry in table.items():
            assert class_lines[_class_of(entry)].contains(entry.matrix), name
        covered = {_class_of(e) for e in table.values()} | {(False, 1, 1, 1)}  # E implicit
        assert covered == {cls for cls in CLASSES if cls[1] == 1}
        # scale blindness: QP written without its phase i is on the same line
        assert class_lines[_class_of(table["QP"])].contains(gamma4.g0 @ gamma4.g2)

    def test_t_read_as_unitary_is_off_its_line(self, gamma4, class_lines):
        t = build_transform_table(gamma4)["T"]
        assert not class_lines[(False, 1, *t.arg_sig)].contains(t.matrix)

    def test_verify_symmetry_is_the_per_index_relation(self, gamma4):
        g0, g1, g2, g3, g5 = gamma4.g0, gamma4.g1, gamma4.g2, gamma4.g3, gamma4.g5
        words = (ExactMatrix.identity(4), g0, g1, g2, g5, g0 @ g2, g1 @ g3, g0 @ g1 @ g3,
                 g1 @ g2 @ g3)
        rows = list(build_transform_table(gamma4).values())
        rows += [DiracTransform("w", w.scale(phase), conj, (eps0, epsx), c_sign=c, hbar_sign=h)
                 for w in words for phase in (1, -1, EC_I, MINUS_I)
                 for conj, eps0, epsx, c, h in product((False, True), *[(1, -1)] * 4)]
        assert len(rows) == 11 + 1152
        verdicts = []
        for entry in rows:
            signs = _class_signs(gamma4, *_class_of(entry))
            m = entry.matrix
            relation = tuple(m @ g == (g @ m).scale(sg) for g, sg in zip(gamma4.vector, signs))
            assert verify_symmetry(entry, gamma4) == relation, entry
            verdicts += relation
        assert True in verdicts and False in verdicts

    def test_antiunitary_squares(self, gamma4, class_lines):
        table = build_transform_table(gamma4)
        want = {"C": 1, "Q": 1, "T": -1, "PT": -1, "CP": -1, "QP": -1}
        for name, sign in want.items():
            entry = table[name]
            assert _square_conj_sign(entry.matrix) == sign, name
            assert _square_conj_sign(class_lines[_class_of(entry)].basis[0]) == sign, name
        flipped = {(eps0, epsx): _square_conj_sign(class_lines[(True, -1, eps0, epsx)].basis[0])
                   for eps0, epsx in product((1, -1), repeat=2)}
        assert flipped == {(1, 1): -1, (1, -1): -1, (-1, 1): -1, (-1, -1): 1}

    def test_unitary_rows_anticommute_pairwise(self, gamma4, class_lines):
        table = build_transform_table(gamma4)
        for a, b in (("P", "QT"), ("P", "QPT"), ("QT", "QPT")):
            for ma, mb in ((table[a].matrix, table[b].matrix),
                           (class_lines[_class_of(table[a])].basis[0],
                            class_lines[_class_of(table[b])].basis[0])):
                assert ma @ mb == -(mb @ ma), (a, b)


class TestSpinorStates:
    def test_pythagorean_norm(self, gamma4):
        st = build_spinor((Fraction(3, 2), 0, 0), 2, (1, 0))
        assert st.energy == Fraction(5, 2)
        assert spinor_norm(st, gamma4) == ExactComplex(2 * st.m)

    def test_negative_branch_norm(self, gamma4):
        st = build_spinor((Fraction(3, 2), 0, 0), 2, (1, 0), branch=-1)
        assert spinor_norm(st, gamma4) == ExactComplex(-2 * st.m)

    def test_random_norms_exact(self, gamma4, rng):
        for _ in range(50):
            st = random_spinor(rng)
            assert spinor_norm(st, gamma4) == ExactComplex(2 * st.m)
            neg = apply_C_spinor(st, gamma4)
            assert spinor_norm(neg, gamma4) == ExactComplex(-2 * st.m)

    def test_residual_zero_both_branches(self, gamma4, rng):
        for _ in range(25):
            st = random_spinor(rng)
            assert free_residual(st, gamma4) == 0.0
            assert free_residual(apply_C_spinor(st, gamma4), gamma4) == 0.0

    def test_rest_frame(self, gamma4):
        st = build_spinor((0, 0, 0), Fraction(3, 2), (1, 0))
        u = st.bispinor()
        assert u == amplitude(Radical.sqrt(2 * st.m), (1, 0, 0, 0))
        assert bilinear(u, ExactMatrix.identity(4)) == ExactComplex(2 * st.m)

    def test_irrational_energy_rejected(self):
        with pytest.raises(ValueError, match="perfect square"):
            build_spinor((1, 0, 0), 1, (1, 0))

    def test_irrational_momentum_rejected(self):
        with pytest.raises(ValueError, match=r"\|p\| must be rational: \|p\|\^2 = 2"):
            build_spinor((1, 1, 0), Fraction(1, 2), (1, 0))  # energy 3/2 is rational

    @pytest.mark.parametrize("energy, p_abs, message, fields", [
        (Fraction(7, 2), Fraction(3, 2), "energy label 7/2 ", {}),   # |p|^2 + m^2 = 25/4
        (Fraction(-5, 2), Fraction(3, 2), "energy label -5/2 ", {}),  # the negative root
        (Fraction(5, 2), Fraction(2), "p_abs label 2 ", {}),
        (Fraction(5, 2), Fraction(-3, 2), "p_abs label -3/2 ", {}),
        # a direct state gets the same label checks that build_spinor's states get
        (Fraction(5, 2), Fraction(3, 2), "rest mass must be positive, got 0", {"m": Fraction(0)}),
        (Fraction(5, 2), Fraction(3, 2), "rest mass must be positive, got -2", {"m": -2}),
        (Fraction(5, 2), Fraction(3, 2), "spinor label z must be nonzero", {"z": (0, 0)}),
        (Fraction(5, 2), Fraction(3, 2), "branch must be +1 or -1, got 3", {"branch": 3}),
        (Fraction(5, 2), Fraction(3, 2), "branch must be +1 or -1, got True", {"branch": True}),
        # record() unpacks three momentum entries and two ExactComplex spinor entries
        (Fraction(5, 2), Fraction(3, 2), "p must hold 3 exact rationals, got",
         {"p": (Fraction(3, 2), Fraction(0))}),
        (Fraction(5, 2), Fraction(3, 2), "p must hold 3 exact rationals, got",
         {"p": (1.5, 0.0, 0.0)}),
        (Fraction(5, 2), Fraction(3, 2), "spinor label z must hold 2 ExactComplex entries, got",
         {"z": (ExactComplex(1), ExactComplex(0), ExactComplex(0))}),
        (Fraction(5, 2), Fraction(3, 2), "spinor label z must hold 2 ExactComplex entries, got",
         {"z": (1, 0)}),
    ])
    def test_direct_state_with_wrong_labels_rejected(self, energy, p_abs, message, fields):
        state = dict(p=(Fraction(3, 2), Fraction(0), Fraction(0)), m=Fraction(2),
                     z=(ExactComplex(1), ExactComplex(0)), energy=energy, p_abs=p_abs)
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            SpinorState(**(state | fields))

    @pytest.mark.parametrize("z, shown", [
        ((1, 0), "(1, 0) of types (int, int)"),
        ((Fraction(1), ExactComplex(0)), "(Fraction(1, 1), 0) of types (Fraction, ExactComplex)"),
        ((ExactComplex(1), ExactComplex(0), ExactComplex(0)),
         "(1, 0, 0) of types (ExactComplex, ExactComplex, ExactComplex)"),
    ], ids=["ints", "fraction", "three"])
    def test_spinor_label_error_names_the_entry_types(self, z, shown):
        """ExactComplex prints like an int, so the message must name the types."""
        state = dict(p=(Fraction(3, 2), Fraction(0), Fraction(0)), m=Fraction(2),
                     energy=Fraction(5, 2), p_abs=Fraction(3, 2))
        message = f"spinor label z must hold 2 ExactComplex entries, got {shown}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            SpinorState(z=z, **state)

    def test_zero_spinor_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            build_spinor((0, 0, 0), 1, (0, 0))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            build_spinor((0, 0, 0), 0, (1, 0))

    def test_effective_w_normalized(self):
        st = build_spinor((0, 0, 0), 2, (ExactComplex(3, 0), ExactComplex(0, 4)))
        # |z|^2 = 25 is folded into the amplitude, so w^dagger w = 1 exactly
        assert st.s == 25
        upper = ExactMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0] * 4, [0] * 4])
        assert bilinear(st.bispinor(), upper) == ExactComplex(2 * st.m)

    @pytest.mark.parametrize("branch", [1, -1])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_drawn_labels_match_the_derived_ones(self, seed, branch):
        """random_spinor hands the draw's own |p|, mc and energy to SpinorState.

        The reference derives every label from p and m through build_spinor,
        on a second stream that makes the same sampling calls; the two states
        agree field by field and the streams end in the same state.
        """
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            st = random_spinor(rng, branch)
            p_abs, mc, _ = momentum_mass_energy(ref)
            n = rational_unit_vector(ref)
            want = build_spinor(tuple(p_abs * ni for ni in n), mc, gaussian_rational_spinor(ref),
                                branch)
            for f in dataclasses.fields(SpinorState):
                assert getattr(st, f.name) == getattr(want, f.name), f.name
        assert rng.bit_generator.state == ref.bit_generator.state


class TestConjugations:
    def test_c_produces_negative_branch_template(self, gamma4, rng):
        st = random_spinor(rng)
        neg = apply_C_spinor(st, gamma4)
        assert neg.branch == -1
        assert neg.c_sign == st.c_sign and neg.hbar_sign == st.hbar_sign
        # the partner state's own record is g2 psi*, the matrix route, on either branch
        for state, image in ((st, neg), (neg, apply_C_spinor(neg, gamma4))):
            assert image.record() == state.record().conjugate_function().apply_matrix(gamma4.g2)

    def test_record_is_built_once_per_state(self, gamma4, rng):
        st = random_spinor(rng)
        neg = apply_C_spinor(st, gamma4)
        assert neg.record() is neg.record() and st.record() is st.record()
        assert dataclasses.replace(st, branch=-1).record() is not st.record()

    def test_c_labels(self, gamma4, rng):
        st = random_spinor(rng)
        neg = apply_C_spinor(st, gamma4)
        assert labels(neg) == (-st.energy, tuple(-x for x in st.p))

    def test_c_involution(self, gamma4, rng):
        st = random_spinor(rng)
        back = apply_C_spinor(apply_C_spinor(st, gamma4), gamma4)
        assert back.z == st.z and back.branch == st.branch
        assert back.record() == st.record()

    def test_q_labels(self, gamma4, rng):
        st = random_spinor(rng)
        q = apply_Q_spinor(st, gamma4)
        assert (q.c_sign, q.hbar_sign) == (-st.c_sign, -st.hbar_sign)
        # positive energy on the flipped hyperplane
        assert labels(q) == (st.energy, tuple(-x for x in st.p))

    def test_cq_record_equality_exact(self, gamma4, rng):
        for _ in range(200):
            st = random_spinor(rng)
            assert apply_C_spinor(st, gamma4).record() == apply_Q_spinor(st, gamma4).record()

    def test_cq_pointwise(self, gamma4, rng):
        for _ in range(50):
            st = random_spinor(rng)
            crec = apply_C_spinor(st, gamma4).record()
            qrec = apply_Q_spinor(st, gamma4).record()
            x = spacetime_points(rng, 20)
            cv, qv = crec.evaluate(x), qrec.evaluate(x)
            scale = np.maximum(np.max(np.abs(cv), axis=1), 1e-300)
            # a NaN gap compares false, so it fails too
            assert np.all(np.max(np.abs(cv - qv), axis=1) / scale <= 1e-12)

    def test_pointwise_check_rejects_negated_q(self, monkeypatch):
        # one uniform radical branch turns C psi = Q psi into C psi = -Q psi:
        # the oracle's Q with the principal +i branch on the bispinor radical
        root = report_module._root
        monkeypatch.setattr(report_module, "_root", lambda x, branch: root(x, 1j))
        report = run(RunConfig(suites=("electron",), samples=3))
        check = {c.id: c for c in report.checks}["electron.cq-pointwise-equality"]
        assert check.status == "fail"
        gap = float(check.details.removeprefix("worst relative gap "))
        assert abs(gap - 2.0) <= 1e-12

    @pytest.mark.parametrize("branch", [1, -1])
    def test_q_record_matches_the_written_out_substitution(self, gamma4, rng, branch):
        for _ in range(200):
            st = random_spinor(rng, branch=branch)
            assert apply_Q_spinor(st, gamma4).record() == _reference_q_record(st, gamma4)

    def test_commutator_vanishes(self, gamma4, rng):
        for _ in range(25):
            st = random_spinor(rng)
            cq = apply_C_spinor(apply_Q_spinor(st, gamma4), gamma4)
            qc = apply_Q_spinor(apply_C_spinor(st, gamma4), gamma4)
            assert cq.record() == qc.record()
            assert (cq.c_sign, cq.hbar_sign) == (qc.c_sign, qc.hbar_sign)
            assert cq.z_label == st.z and qc.z_label == st.z
            assert cq.record() == st.record()

    def test_q_on_negative_branch(self, gamma4, rng):
        # the conjugation applied to a negative-branch state lands on the
        # positive branch of the flipped hyperplane and still solves the
        # equation written with the flipped constants
        from csym.waves import dirac_residual

        st = random_spinor(rng, branch=-1)
        q = apply_Q_spinor(st, gamma4)
        assert q.effective_branch == 1
        mass_term = st.m * Fraction(q.c_sign)
        assert dirac_residual(q.record(), mass_term, q.hbar_sign, gamma4.vector) == 0.0


class TestImageLabels:
    """C and Q images reuse their source's exact energy and |p| labels."""

    def test_images_take_no_square_roots(self, gamma4, rng, monkeypatch):
        states = [random_spinor(rng, branch=b) for b in (1, -1) for _ in range(10)]
        calls = []
        sqrt = electron.fraction_sqrt
        monkeypatch.setattr(electron, "fraction_sqrt", lambda q: calls.append(q) or sqrt(q))
        for st in states:
            neg = apply_C_spinor(st, gamma4)
            q = apply_Q_spinor(st, gamma4)
            apply_C_spinor(q, gamma4)
            q_of_neg = apply_Q_spinor(neg, gamma4)
            assert (neg.energy, neg.p_abs) == (st.energy, st.p_abs)
            energy, p = labels(st)
            assert labels(q) == (energy, tuple(-x for x in p))
            assert labels(q_of_neg) == (-energy, p)
        assert calls == []

    @pytest.mark.parametrize("branch", [1, -1])
    def test_images_equal_the_validated_replace_states(self, gamma4, rng, branch):
        """relabeled() copies the proven roots; the states equal those __post_init__ validates."""
        def fields(state):
            return [getattr(state, f.name) for f in dataclasses.fields(SpinorState)]

        for _ in range(20):
            st = random_spinor(rng, branch=branch)
            want_c = dataclasses.replace(st, z=electron._partner_z(st.z, branch), branch=-branch)
            want_q = dataclasses.replace(st, p=tuple(-x for x in st.p), c_sign=-1, hbar_sign=-1,
                                         sigma_sign=-1)
            got_q = st.relabeled(z=st.z, branch=branch, p_sign=-1, c_sign=-1, hbar_sign=-1,
                                 sigma_sign=-1)
            for got, want in ((apply_C_spinor(st, gamma4), want_c), (got_q, want_q)):
                assert fields(got) == fields(want) and got == want
                assert all(x.__class__ is Fraction for x in got.p)
                assert got.record() == want.record()
            assert apply_Q_spinor(st, gamma4).record() == \
                want_q.record().conjugate_function().apply_matrix(-gamma4.g2)

    @pytest.mark.parametrize("change, message", [
        ({"branch": 2}, "branch must be +1 or -1, got 2"),
        ({"p_sign": True}, "p_sign must be +1 or -1, got True"),
        ({"sigma_sign": Fraction(-1)}, "sigma_sign must be +1 or -1, got Fraction(-1, 1)"),
        ({"z": (ExactComplex(0), ExactComplex(0))}, "spinor label z must be nonzero"),
    ])
    def test_relabeled_checks_the_new_signs_and_z(self, rng, change, message):
        st = random_spinor(rng)
        labels = dict(z=st.z, branch=1, p_sign=1, c_sign=1, hbar_sign=1, sigma_sign=1)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            st.relabeled(**(labels | change))

    @pytest.mark.parametrize("name", ["energy", "p_abs"])
    def test_a_wrong_root_is_still_rejected(self, gamma4, rng, name):
        """Only relabeled() skips the root check; a direct or replaced state still runs it."""
        st = random_spinor(rng)
        for state in (st, apply_C_spinor(st, gamma4)):
            wrong = getattr(state, name) + 1
            with pytest.raises(ValueError, match=f"^{name} label {wrong} is not the nonnegative"):
                dataclasses.replace(state, **{name: wrong})
            labels = {f.name: getattr(state, f.name) for f in dataclasses.fields(SpinorState)}
            with pytest.raises(ValueError, match=f"^{name} label {wrong} is not the nonnegative"):
                SpinorState(**(labels | {name: wrong}))

    def test_q_of_an_image_names_the_rule(self, gamma4, rng):
        q = apply_Q_spinor(random_spinor(rng), gamma4)
        with pytest.raises(TypeError, match="Q relabels a SpinorState's own c, hbar, p and sigma"):
            apply_Q_spinor(q, gamma4)

    @pytest.mark.parametrize("z_label, message", [
        ((0, 0), "spinor label z_label must be nonzero"),
        ((ExactComplex(1),), "spinor label z_label must hold 2 ExactComplex entries, got "
                             "(1,) of types (ExactComplex)"),
    ], ids=["int-zeros", "one-entry"])
    def test_image_label_follows_the_state_rule(self, gamma4, rng, z_label, message):
        """An image's z_label is held to SpinorState's z rule, under its own name."""
        q = apply_Q_spinor(random_spinor(rng), gamma4)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            dataclasses.replace(q, z_label=z_label)


class TestCommutatorControl:
    """The commutator check compares each order's spin label with the state's."""

    def test_branch_blind_partner_keeps_the_orders_equal_on_minus_z(self, gamma4, rng, monkeypatch):
        _branch_blind_partner(monkeypatch)
        st = random_spinor(rng)
        cq = apply_C_spinor(apply_Q_spinor(st, gamma4), gamma4)
        qc = apply_Q_spinor(apply_C_spinor(st, gamma4), gamma4)
        assert cq.z_label == qc.z_label  # comparing the two orders cannot see it
        assert cq.z_label == tuple(-x for x in st.z)

    def test_suite_check_rejects_branch_blind_partner(self, monkeypatch):
        _branch_blind_partner(monkeypatch)
        report = run(RunConfig(suites=("electron",), samples=3))
        check = {c.id: c for c in report.checks}["electron.conjugation-commutator"]
        assert check.status == "fail"
        assert check.details == "spin labels of the two orders do not restore the state's"


class TestWrongQControl:
    """The C/Q checks must reject a Q that leaves sigma unflipped."""

    def test_unflipped_sigma_changes_the_q_record(self, gamma4, monkeypatch):
        st = build_spinor((Fraction(3, 2), 0, 0), 2, (1, 0))
        _sigma_unflipped(monkeypatch)
        assert apply_C_spinor(st, gamma4).record() != apply_Q_spinor(st, gamma4).record()

    def test_rest_frame_cannot_tell(self, gamma4, monkeypatch):
        # at rest sqrt(p0 - mc) vanishes on the flipped hyperplane, so the
        # (n.sigma) pair carries no weight and the sign of sigma is invisible
        st = build_spinor((0, 0, 0), 2, (1, 1))
        _sigma_unflipped(monkeypatch)
        assert apply_C_spinor(st, gamma4).record() == apply_Q_spinor(st, gamma4).record()

    def test_suite_checks_reject_unflipped_sigma(self, monkeypatch):
        _sigma_unflipped(monkeypatch)
        # the pointwise oracle flips sigma itself: hand it the state with sigma
        # already flipped, so that its Q keeps the state's sigma
        spinor_q = report_module._spinor_q
        monkeypatch.setattr(report_module, "_spinor_q", lambda st, minus_g2: spinor_q(
            dataclasses.replace(st, sigma_sign=-st.sigma_sign), minus_g2))
        report = run(RunConfig(suites=("electron",), samples=3))
        by_id = {c.id: c for c in report.checks}
        check = by_id["electron.cq-record-equality"]
        assert check.status == "fail"
        assert check.details.startswith("records differ for SpinorState(")
        assert "sigma_sign=1" in check.details
        assert by_id["electron.cq-pointwise-equality"].status == "fail"
        assert by_id["electron.conjugation-commutator"].status == "fail"


class TestChargedEquation:
    def test_fixed_potential_flips_charge(self, gamma4):
        eq = ChargedEquation()
        out = transform_charged_equation(eq, FIXED_POTENTIAL, gamma4)
        assert out.form() == (-1, 1, 1, 1)
        assert (out.c_sign, out.hbar_sign) == (-1, -1)

    def test_flipped_potential_exact_symmetry(self, gamma4):
        eq = ChargedEquation()
        out = transform_charged_equation(eq, FLIPPED_POTENTIAL, gamma4)
        assert out.form() == eq.form()

    def test_zero_potential_reduces_to_free_result(self, gamma4):
        # with no potential the two rules agree: only the charge bookkeeping
        # differs, which multiplies a vanishing coupling term
        eq = ChargedEquation()
        fixed = transform_charged_equation(eq, FIXED_POTENTIAL, gamma4)
        flipped = transform_charged_equation(eq, FLIPPED_POTENTIAL, gamma4)
        assert fixed.mass_sign == flipped.mass_sign == 1
        assert fixed.charge_sign == -flipped.charge_sign

    def test_involution_both_rules(self, gamma4):
        eq = ChargedEquation()
        for rule in (FIXED_POTENTIAL, FLIPPED_POTENTIAL):
            once = transform_charged_equation(eq, rule, gamma4)
            assert transform_charged_equation(once, rule, gamma4) == eq

    def test_unknown_rule_rejected(self, gamma4):
        with pytest.raises(ValueError, match="potential_rule"):
            transform_charged_equation(ChargedEquation(), "nonsense", gamma4)

    def test_negative_charge_input(self, gamma4):
        eq = ChargedEquation(charge_sign=-1)
        out = transform_charged_equation(eq, FIXED_POTENTIAL, gamma4)
        assert out.charge_sign == 1

    def test_negated_potential_equals_negated_charge(self, gamma4):
        # e(-A) and (-e)A are the same coupling, so both spellings map alike
        negated_potential = ChargedEquation(charge_sign=1, potential_sign=-1)
        negated_charge = ChargedEquation(charge_sign=-1)
        for rule in POTENTIAL_RULES:
            a = transform_charged_equation(negated_potential, rule, gamma4)
            b = transform_charged_equation(negated_charge, rule, gamma4)
            assert a.form() == b.form()
        fixed = transform_charged_equation(negated_potential, FIXED_POTENTIAL, gamma4)
        assert fixed.form() == (1, 1, 1, 1)
