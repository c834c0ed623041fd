"""Elimination checked against sympy's DomainMatrix over QQ_I.

sympy is a test-only dependency: it reduces the same matrices by its own
code, so rank, reduced echelon form, pivots and nullity are compared with an
implementation that shares nothing with csym.exact.  The Maxwell invariance
verdicts are decided again from sympy's ranks alone.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from csym import maxwell
from csym.exact import EC_ONE, ExactComplex, ExactMatrix, _rref, matrix_rank, nullspace
from csym.maxwell import build_maxwell_system
from csym.photon import conjugation_constraint_rows
from csym.report import _mutated_p1
from csym.signgroup import canonical_operators


def _qqi(z: ExactComplex):
    return QQ_I(QQ(z.re.numerator, z.re.denominator), QQ(z.im.numerator, z.im.denominator))


def _sympy_rank(rows) -> int:
    return DomainMatrix([[_qqi(z) for z in row] for row in rows],
                        (len(rows), len(rows[0])), QQ_I).rank()


def _assert_matches_sympy(m: ExactMatrix) -> int:
    """Compare every elimination result on m with sympy's; return the rank."""
    dm = DomainMatrix([[_qqi(z) for z in m.row(i)] for i in range(m.rows)], m.shape, QQ_I)
    want_rref, want_pivots = dm.rref()
    rows, pivots = _rref([list(m.row(i)) for i in range(m.rows)])
    assert tuple(pivots) == want_pivots
    assert [[_qqi(z) for z in row] for row in rows] == want_rref.to_list()
    rank = dm.rank()
    assert matrix_rank(m) == rank
    basis, null_rank = nullspace(m)
    assert null_rank == rank
    assert len(basis) == dm.nullspace().shape[0] == m.cols - rank
    return rank


def _augmented(a: ExactMatrix) -> ExactMatrix:
    """[a | I], whose rank is a's row count."""
    return ExactMatrix.from_rows(
        list(a.row(i)) + [1 if j == i else 0 for j in range(a.rows)] for i in range(a.rows)
    )


class TestRealSystems:
    def test_photon_constraints(self, gamma8):
        m = conjugation_constraint_rows(gamma8.vector, (1, -1, -1, -1), 8)
        assert m.shape == (256, 64)
        assert _assert_matches_sympy(m) == 60

    def test_electron_constraints(self, gamma4):
        m = conjugation_constraint_rows(gamma4.vector, (-1, 1, -1, 1), 4)
        assert m.shape == (64, 16)
        assert _assert_matches_sympy(m) == 15

    def test_maxwell_system_and_its_augmented_form(self):
        a = build_maxwell_system().rows
        assert a.shape == (14, 80)
        rank = _assert_matches_sympy(a)
        assert _assert_matches_sympy(_augmented(a)) == a.rows
        assert _assert_matches_sympy(a.transpose()) == rank


_small_q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_entry = st.one_of(st.just(ExactComplex(0)), st.builds(ExactComplex, _small_q, _small_q))


@st.composite
def _gaussian_rational_matrices(draw):
    """Tall, wide and square matrices, often rank-deficient, with zero rows.

    Each row is zero, a combination of a few generator rows, or a free draw;
    entries are Gaussian rationals, so pivots are rarely 1 and often not real.
    """
    n_rows, n_cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    gens = [draw(st.lists(_entry, min_size=n_cols, max_size=n_cols))
            for _ in range(draw(st.integers(1, 3)))]
    rows = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(("zero", "combination", "free")))
        if kind == "zero":
            rows.append([0] * n_cols)
        elif kind == "combination":
            ws = draw(st.lists(_entry, min_size=len(gens), max_size=len(gens)))
            rows.append([sum((w * g[j] for w, g in zip(ws, gens)), ExactComplex(0))
                         for j in range(n_cols)])
        else:
            rows.append(draw(st.lists(_entry, min_size=n_cols, max_size=n_cols)))
    return ExactMatrix.from_rows(rows)


@settings(max_examples=200, deadline=None)
@given(_gaussian_rational_matrices())
def test_random_gaussian_rational_matrices(m):
    _assert_matches_sympy(m)


def test_non_unit_non_real_pivots():
    m = ExactMatrix.from_rows([
        [ExactComplex(0, 2), ExactComplex(Fraction(1, 3), -1), 5],
        [0, 0, 0],
        [ExactComplex(Fraction(-3, 2), Fraction(1, 2)), EC_ONE, ExactComplex(0, -7)],
    ])
    assert _assert_matches_sympy(m) == 2


def _sympy_verdict(system, transformed) -> tuple[bool, int | None]:
    """(invariant, failing_row) in check_invariance's terms, from sympy's
    ranks of S (the system's rows) and T (the transformed rows) alone.

    Invariant iff rank S = rank T = rank [S; T]; the first offending row is
    the first i with rank [S; T_i] > rank S, and -1 stands for a T that
    spans less with no row outside.
    """
    s = [system.rows.row(i) for i in range(system.rows.rows)]
    t = [transformed.row(i) for i in range(transformed.rows)]
    rank_s = _sympy_rank(s)
    if _sympy_rank(t) == rank_s == _sympy_rank(s + t):
        return True, None
    return False, next((i for i, row in enumerate(t) if _sympy_rank(s + [row]) > rank_s), -1)


class TestInvarianceVerdicts:
    @staticmethod
    def _verdicts(op):
        system = build_maxwell_system()
        cert = maxwell.check_invariance(system, op)
        return (cert.invariant, cert.failing_row), _sympy_verdict(
            system, maxwell.transform_system(system, op))

    @pytest.mark.parametrize("name", list(canonical_operators()))
    def test_each_canonical_operator(self, name):
        got, want = self._verdicts(canonical_operators()[name])
        assert got == want == (True, None)

    def test_mutated_operator(self):
        got, want = self._verdicts(_mutated_p1())
        assert got == want and want[1] >= 0

    def test_transform_spanning_less(self, monkeypatch):
        # every row lies in the span, but row 1 stands in for row 0
        monkeypatch.setattr(maxwell, "transform_system", lambda sys, op: ExactMatrix.from_rows(
            [sys.rows.row(1)] + [sys.rows.row(i) for i in range(1, sys.rows.rows)]))
        got, want = self._verdicts(canonical_operators()["E"])
        assert got == want == (False, -1)
