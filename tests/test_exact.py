"""Exact scalar/matrix arithmetic and elimination."""

import cmath
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csym import exact
from csym.waves import Radical
from csym.exact import (
    EC_I,
    EC_ONE,
    ExactComplex,
    ExactMatrix,
    RowSpan,
    anticommutator,
    fraction_sqrt,
    matrix_rank,
    nullspace,
    rowspace_equal,
    solve,
)


# --- independent oracle: a minimal fraction-pair Gaussian eliminator -------
# kept deliberately separate from the package implementation


def _oracle_rank_nullity(rows):
    rows = [[(Fraction(z.re), Fraction(z.im)) for z in row] for row in rows]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != (0, 0):
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        a, b = rows[rank][col]
        d = a * a + b * b
        inv = (a / d, -b / d)
        rows[rank] = [
            (x * inv[0] - y * inv[1], x * inv[1] + y * inv[0]) for x, y in rows[rank]
        ]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != (0, 0):
                f = rows[r][col]
                rows[r] = [
                    (x - (f[0] * px - f[1] * py), y - (f[0] * py + f[1] * px))
                    for (x, y), (px, py) in zip(rows[r], rows[rank])
                ]
        rank += 1
    return rank, ncols - rank


class TestExactComplex:
    def test_field_axioms_random(self, rng):
        vals = []
        for _ in range(20):
            n = rng.integers(-9, 10, size=4)
            d = rng.integers(1, 9, size=2)
            vals.append(ExactComplex(Fraction(int(n[0]), int(d[0])), Fraction(int(n[1]), int(d[1]))))
        for a in vals[:6]:
            for b in vals[6:12]:
                for c in vals[12:16]:
                    assert (a + b) * c == a * c + b * c
                    assert (a * b) * c == a * (b * c)
        for a in vals:
            if not a.is_zero():
                assert a * (EC_ONE / a) == EC_ONE

    def test_conjugation_and_norm(self):
        a = ExactComplex(Fraction(3, 5), Fraction(-4, 5))
        assert a.conjugate().conjugate() == a
        assert a.norm_sq() == 1
        assert (a * a.conjugate()) == ExactComplex(1)

    def test_refuses_floats(self):
        with pytest.raises(TypeError):
            ExactComplex(0.5)

    def test_i_squares_to_minus_one(self):
        assert EC_I * EC_I == ExactComplex(-1)


class TestFractionSqrt:
    def test_perfect_squares(self):
        assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert fraction_sqrt(Fraction(0)) == 0

    def test_irrational(self):
        assert fraction_sqrt(Fraction(2)) is None
        assert fraction_sqrt(Fraction(4, 3)) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fraction_sqrt(Fraction(-1))


class TestMatrixOps:
    def test_identity_product(self):
        i3 = ExactMatrix.identity(3)
        assert i3 @ i3 == i3

    def test_dimension_mismatch_names_shapes(self):
        a = ExactMatrix.zeros(3, 2)
        b = ExactMatrix.zeros(3, 3)
        with pytest.raises(ValueError, match="3x2 by 3x3"):
            a @ b
        with pytest.raises(ValueError, match="cannot add"):
            a + b

    def test_associativity_random(self, rng):
        def rand(r, c):
            return ExactMatrix(
                r, c,
                [ExactComplex(int(x), int(y)) for x, y in
                 zip(rng.integers(-5, 6, r * c), rng.integers(-5, 6, r * c))],
            )

        for _ in range(10):
            a, b, c = rand(3, 4), rand(4, 2), rand(2, 5)
            assert (a @ b) @ c == a @ (b @ c)

    def test_dagger_involution(self, rng):
        m = ExactMatrix.from_rows([[EC_I, 2], [ExactComplex(1, -3), 0]])
        assert m.dagger().dagger() == m

    def test_anticommutator_of_dirac_pair_vanishes(self, gamma4):
        # {g0, g1} = 0 for the 4-dim set
        assert anticommutator(gamma4.g0, gamma4.g1).is_zero()


class TestElimination:
    def test_zero_matrix_nullspace(self):
        basis, rank = nullspace(ExactMatrix.zeros(2, 2))
        assert rank == 0 and len(basis) == 2

    def test_identity_nullspace(self):
        basis, rank = nullspace(ExactMatrix.identity(4))
        assert rank == 4 and basis == []

    def test_nullspace_vectors_annihilate(self, rng):
        for _ in range(10):
            ents = [ExactComplex(int(x)) for x in rng.integers(-3, 4, size=12)]
            m = ExactMatrix(3, 4, ents)
            basis, rank = nullspace(m)
            assert rank + len(basis) == 4
            for v in basis:
                assert (m @ v).is_zero()

    def test_rank_matches_oracle(self, rng):
        for _ in range(10):
            ents = [ExactComplex(int(x), int(y)) for x, y in
                    zip(rng.integers(-3, 4, size=20), rng.integers(-3, 4, size=20))]
            m = ExactMatrix(4, 5, ents)
            rows = [list(m.row(i)) for i in range(4)]
            r_oracle, _ = _oracle_rank_nullity(rows)
            assert matrix_rank(m) == r_oracle

    def test_solve_consistent_and_inconsistent(self):
        a = ExactMatrix.from_rows([[1, 2], [2, 4]])
        b = ExactMatrix.column([1, 2])
        x = solve(a, b)
        assert x is not None and (a @ x) == b
        assert solve(a, ExactMatrix.column([1, 3])) is None

    def test_conjugation_constraint_nullities_vs_oracle(self, gamma4, gamma8):
        # the two constraint systems, eliminated by the independent oracle
        from csym.photon import conjugation_constraint_rows

        sys4 = conjugation_constraint_rows(gamma4.vector, (-1, 1, -1, 1), 4)
        rows = [list(sys4.row(i)) for i in range(sys4.rows)]
        rank, nullity = _oracle_rank_nullity(rows)
        assert (rank, nullity) == (15, 1)

        sys8 = conjugation_constraint_rows(gamma8.vector, (1, -1, -1, -1), 8)
        rows = [list(sys8.row(i)) for i in range(sys8.rows)]
        rank, nullity = _oracle_rank_nullity(rows)
        assert (rank, nullity) == (60, 4)

    @pytest.mark.parametrize("name, signs", [
        ("gamma8", (1, -1, -1, -1)), ("gamma8", (-1, 1, 1, 1)),
        ("gamma4", (-1, 1, -1, 1)), ("gamma4", (1, 1, 1, 1)),
    ])
    def test_conjugation_constraint_rows_match_dense_reference(self, request, name, signs):
        # every term of U G - s G U written out, zero entries of G included
        from csym.gamma import conjugation_constraint_rows

        gs = request.getfixturevalue(name)
        n = gs.g0.rows
        rows = []
        for G, s in zip(gs.vector, signs):
            for i in range(n):
                for j in range(n):
                    row = [ExactComplex(0)] * (n * n)
                    for k in range(n):
                        row[i * n + k] = row[i * n + k] + G[k, j]
                    for k in range(n):
                        row[k * n + j] = row[k * n + j] - G[i, k] * s
                    rows.append(row)
        assert conjugation_constraint_rows(gs.vector, signs, n) == ExactMatrix.from_rows(rows)

    @pytest.mark.parametrize("name", ["small", "photon"])
    def test_nullspace_self_check_rejects_a_perturbed_basis(self, monkeypatch, gamma8, name):
        # control: one entry of one reduced pivot row is off by 1 in a free
        # column, so one basis vector is wrong and m @ v = 0 must catch it
        from csym.photon import conjugation_constraint_rows

        if name == "small":
            m = ExactMatrix.from_rows([[1, 2, 3], [0, 1, EC_I]])
        else:
            m = conjugation_constraint_rows(gamma8.vector, (1, -1, -1, -1), 8)
        reduce = exact._rref

        def perturbed(rows):
            out, pivots = reduce(rows)
            free = next(c for c in range(len(out[0])) if c not in pivots)
            out[0][free] = out[0][free] + EC_ONE
            return out, pivots

        monkeypatch.setattr(exact, "_rref", perturbed)
        with pytest.raises(AssertionError, match="m @ v = 0"):
            nullspace(m)


class TestRowspaceEqual:
    def test_same_plane(self):
        a = ExactMatrix.from_rows([[1, 0], [0, 1]])
        b = ExactMatrix.from_rows([[1, 1], [1, -1]])
        assert rowspace_equal(a, b)

    def test_different_lines(self):
        a = ExactMatrix.from_rows([[1, 0]])
        b = ExactMatrix.from_rows([[0, 1]])
        assert not rowspace_equal(a, b)

    def test_width_mismatch(self):
        a = ExactMatrix.from_rows([[1, 0]])
        b = ExactMatrix.from_rows([[1, 0, 0]])
        with pytest.raises(ValueError, match="width mismatch"):
            rowspace_equal(a, b)

    def test_equivalence_relation(self, rng):
        mats = []
        for _ in range(6):
            ents = [ExactComplex(int(x)) for x in rng.integers(-2, 3, size=6)]
            mats.append(ExactMatrix(2, 3, ents))
        for a in mats:
            assert rowspace_equal(a, a)
        for a in mats:
            for b in mats:
                assert rowspace_equal(a, b) == rowspace_equal(b, a)
        for a in mats:
            for b in mats:
                for c in mats:
                    if rowspace_equal(a, b) and rowspace_equal(b, c):
                        assert rowspace_equal(a, c)


def test_conjugation_space_contains(gamma4):
    from csym.electron import solve_UQ
    from csym.gamma import ConjugationSpace

    space = ConjugationSpace(
        basis=(ExactMatrix.column([1, 0, 1]), ExactMatrix.column([0, 1, 1])), rank=1, nullity=2
    )
    assert space.contains(ExactMatrix.column([2, 3, 5]))
    assert not space.contains(ExactMatrix.column([0, 0, 1]))
    assert not solve_UQ(gamma4).contains(ExactMatrix.identity(4))


# --- RowSpan: one factorisation, many rows expressed against it ------------

_gaussian = st.builds(ExactComplex, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def _span_and_rows(draw):
    """A small Gaussian-integer matrix a and rows b, some inside a's span.

    Rows of a are drawn as combinations of fewer generators, so a is often
    rank-deficient; each row of b is either a combination of a's rows or a
    free draw, which usually lies outside.
    """
    cols = draw(st.integers(1, 4))
    n_gen = draw(st.integers(1, 3))
    gens = [draw(st.lists(_gaussian, min_size=cols, max_size=cols)) for _ in range(n_gen)]
    n_rows = draw(st.integers(1, 4))
    weights = [draw(st.lists(_gaussian, min_size=n_gen, max_size=n_gen)) for _ in range(n_rows)]
    a_rows = [[sum((w * g[j] for w, g in zip(ws, gens)), ExactComplex(0)) for j in range(cols)]
              for ws in weights]
    b_rows = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            ws = draw(st.lists(_gaussian, min_size=n_rows, max_size=n_rows))
            b_rows.append([sum((w * r[j] for w, r in zip(ws, a_rows)), ExactComplex(0))
                           for j in range(cols)])
        else:
            b_rows.append(draw(st.lists(_gaussian, min_size=cols, max_size=cols)))
    return ExactMatrix.from_rows(a_rows), ExactMatrix.from_rows(b_rows)


def _combine(a, combo):
    return tuple(sum((c * a[i, j] for i, c in enumerate(combo)), ExactComplex(0))
                 for j in range(a.cols))


class TestRowSpan:
    @settings(max_examples=150, deadline=None)
    @given(_span_and_rows())
    def test_coefficients_rebuild_rows(self, ab):
        a, b = ab
        expr = RowSpan(a).express(b)
        if expr.combinations is None:
            return
        assert len(expr.combinations) == b.rows
        for i, combo in enumerate(expr.combinations):
            assert len(combo) == a.rows
            assert _combine(a, combo) == b.row(i)

    @settings(max_examples=150, deadline=None)
    @given(_span_and_rows())
    def test_first_row_outside_agrees_with_solve(self, ab):
        a, b = ab
        unsolvable = [i for i in range(b.rows)
                      if solve(a.transpose(), ExactMatrix.column(b.row(i))) is None]
        expr = RowSpan(a).express(b)
        assert expr.failing_row == (unsolvable[0] if unsolvable else None)
        assert (expr.combinations is None) == bool(unsolvable)

    @settings(max_examples=150, deadline=None)
    @given(_span_and_rows())
    def test_containment_plus_rank_agrees_with_rowspace_equal(self, ab):
        a, b = ab
        span = RowSpan(a)
        expr = span.express(b)
        assert span.rank == matrix_rank(a)
        assert (expr.rank == span.rank) == rowspace_equal(a, b)
        if expr.rank is not None:
            assert expr.rank == matrix_rank(b)

    def test_unique_certificate_matches_solve(self):
        a = ExactMatrix.from_rows([[1, EC_I, 0], [0, 2, 1]])
        b = ExactMatrix.from_rows([[1, 2 + EC_I, 1], [0, -4, -2]])
        expr = RowSpan(a).express(b)
        for i, combo in enumerate(expr.combinations):
            assert combo == solve(a.transpose(), ExactMatrix.column(b.row(i))).entries

    def test_zero_matrix_spans_only_zero(self):
        span = RowSpan(ExactMatrix.zeros(2, 3))
        assert span.rank == 0
        assert span.express(ExactMatrix.zeros(1, 3)).rank == 0
        assert span.express(ExactMatrix.from_rows([[0, 1, 0]])).failing_row == 0

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width mismatch"):
            RowSpan(ExactMatrix.from_rows([[1, 0]])).express(ExactMatrix.from_rows([[1, 0, 0]]))


# --- properties of the scalar arithmetic -----------------------------------

_rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_gaussian_rational = st.builds(ExactComplex, _rational, _rational)


def _parse_repr(text):
    """Read an ExactComplex repr back: "a", "bi" or "a+bi" / "a-bi"."""
    if not text.endswith("i"):
        return ExactComplex(Fraction(text))
    body = text[:-1]
    split = max(body.rfind("+"), body.rfind("-"))
    if split <= 0:
        return ExactComplex(0, Fraction(body))
    return ExactComplex(Fraction(body[:split]), Fraction(body[split:]))


class TestExactComplexProperties:
    @settings(max_examples=200, deadline=None)
    @given(_gaussian_rational, _gaussian_rational, _gaussian_rational)
    def test_field_axioms(self, a, b, c):
        zero, one = ExactComplex(0), EC_ONE
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a + (-a) == zero and a - b == a + (-b)
        if not a.is_zero():
            assert a * (one / a) == one and (b / a) * a == b
        else:
            with pytest.raises(ZeroDivisionError):
                b / a

    @settings(max_examples=200, deadline=None)
    @given(_gaussian_rational, _gaussian_rational, st.integers(-5, 5))
    def test_conjugation_norm_and_integer_coercion(self, a, b, k):
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()
        assert a * a.conjugate() == ExactComplex(a.norm_sq())
        assert a + k == k + a == a + ExactComplex(k)
        assert a * k == k * a == a * ExactComplex(k)
        assert k - a == ExactComplex(k) - a

    @settings(max_examples=300, deadline=None)
    @given(_gaussian_rational, _gaussian_rational)
    def test_repr_names_the_value(self, a, b):
        assert _parse_repr(repr(a)) == a
        assert (repr(a) == repr(b)) == (a == b)
        assert (a == b) <= (hash(a) == hash(b))

    def test_repr_forms(self):
        assert [repr(x) for x in (
            ExactComplex(0), ExactComplex(Fraction(-3, 2)), ExactComplex(0, Fraction(-3, 2)),
            ExactComplex(1, -1), ExactComplex(Fraction(-1, 2), Fraction(3, 4)),
        )] == ["0", "-3/2", "-3/2i", "1-1i", "-1/2+3/4i"]


# --- Radical closure: exact over commensurable radicands, refused otherwise -

_squarefree = st.sampled_from([1, 2, 3, 5, 6, 7])


@st.composite
def _radical(draw, base=None):
    """coeff * sqrt(q^2 base): value coeff * |q| * sqrt(base), base squarefree."""
    base = draw(_squarefree) if base is None else base
    q = draw(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
    return Radical(draw(_gaussian_rational), q * q * base), base


def _close(x, y):
    return cmath.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)


class TestRadicalProperties:
    @settings(max_examples=200, deadline=None)
    @given(_radical(), _radical())
    def test_products_close_and_match_the_value(self, ra, rb):
        (a, _), (b, _) = ra, rb
        assert a * b == b * a
        assert _close((a * b).to_complex(), a.to_complex() * b.to_complex())
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a * a.conjugate()).to_exact() == ExactComplex(a.coeff.norm_sq() * a.radicand)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_commensurable_sums_close_exactly(self, data):
        a, base = data.draw(_radical())
        b, _ = data.draw(_radical(base))
        c, _ = data.draw(_radical(base))
        assert a + b == b + a and (a + b) + c == a + (b + c)
        assert (a - a).is_zero() and a - b == a + (-b)
        assert _close((a + b).to_complex(), a.to_complex() + b.to_complex())
        assert Radical(a.coeff, a.radicand * 4) == a + a  # sqrt(4 r) = 2 sqrt(r)

    @settings(max_examples=200, deadline=None)
    @given(_radical(), _radical())
    def test_incommensurable_sums_are_refused(self, ra, rb):
        (a, base_a), (b, base_b) = ra, rb
        if base_a == base_b or a.is_zero() or b.is_zero():
            assert _close((a + b).to_complex(), a.to_complex() + b.to_complex())
            return
        with pytest.raises(ValueError, match="incommensurable"):
            a + b
        assert a != b

    @settings(deadline=None)
    @given(_rational.filter(lambda x: x < 0))
    def test_negative_radicands_need_a_branch(self, x):
        with pytest.raises(ValueError, match="nonnegative"):
            Radical(1, x)
        with pytest.raises(ValueError, match="explicit branch"):
            Radical.sqrt(x)
        minus_i = ExactComplex(0, -1)
        assert Radical.sqrt(x, negative_branch=minus_i) == Radical(minus_i, -x)


# --- rowspace_equal: an equivalence relation on matrices of one width ------

@st.composite
def _three_matrices(draw):
    """Three matrices whose rows are combinations of one generator set.

    They often span the same space (full-rank combinations) and often do
    not (rank-deficient combinations), so each property sees both cases.
    """
    cols = draw(st.integers(1, 4))
    n_gen = draw(st.integers(1, 3))
    gens = [draw(st.lists(_gaussian, min_size=cols, max_size=cols)) for _ in range(n_gen)]
    mats = []
    for _ in range(3):
        n_rows = draw(st.integers(1, 4))
        weights = [draw(st.lists(_gaussian, min_size=n_gen, max_size=n_gen))
                   for _ in range(n_rows)]
        mats.append(ExactMatrix.from_rows(
            [[sum((w * g[j] for w, g in zip(ws, gens)), ExactComplex(0)) for j in range(cols)]
             for ws in weights]))
    return mats


class TestRowspaceEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(_three_matrices())
    def test_reflexive_symmetric_transitive(self, mats):
        a, b, c = mats
        assert rowspace_equal(a, a)
        assert rowspace_equal(a, b) == rowspace_equal(b, a)
        if rowspace_equal(a, b) and rowspace_equal(b, c):
            assert rowspace_equal(a, c)

    @settings(max_examples=150, deadline=None)
    @given(_span_and_rows())
    def test_class_is_containment_plus_dimension(self, ab):
        a, b = ab
        inside = all(solve(a.transpose(), ExactMatrix.column(b.row(i))) is not None
                     for i in range(b.rows))
        stacked = ExactMatrix.from_rows([a.row(i) for i in range(a.rows)]
                                        + [b.row(i) for i in range(b.rows)])
        assert rowspace_equal(a, stacked) == inside
        assert rowspace_equal(a, b) == (inside and matrix_rank(a) == matrix_rank(b))

    @settings(max_examples=150, deadline=None)
    @given(_span_and_rows(), st.data())
    def test_invertible_row_operations_keep_the_class(self, ab, data):
        a, _ = ab
        order = data.draw(st.permutations(range(a.rows)))
        scale = data.draw(_gaussian.filter(lambda z: not z.is_zero()))
        rows = [list(a.row(i)) for i in order]
        rows[0] = [x * scale for x in rows[0]]
        if len(rows) > 1:
            rows[-1] = [x + y for x, y in zip(rows[-1], rows[0])]
        assert rowspace_equal(a, ExactMatrix.from_rows(rows))


# --- the reduced triple against a plain Fraction-pair model ----------------

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "neg": lambda z, w: -z, "conj": lambda z, w: z.conjugate()}


def _model_apply(op, z, w):
    """One operation on (re, im) Fraction pairs, written out independently."""
    (x, y), (u, v) = z, w
    if op == "+":
        return x + u, y + v
    if op == "-":
        return x - u, y - v
    if op == "*":
        return x * u - y * v, x * v + y * u
    if op == "/":
        n = u * u + v * v
        return (x * u + y * v) / n, (y * u - x * v) / n
    if op == "neg":
        return -x, -y
    return x, -y


def _model_repr(x, y):
    if y == 0:
        return str(x)
    if x == 0:
        return f"{y}i"
    return f"{x}{'+' if y > 0 else '-'}{abs(y)}i"


def _assert_matches_model(z, model):
    x, y = model
    a, b, d = z._a, z._b, z._d
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (x, y)
    assert (z.re, z.im) == (x, y) and z.norm_sq() == x * x + y * y
    assert repr(z) == _model_repr(x, y)
    assert z.to_complex() == complex(float(x), float(y))


class TestTripleAgainstFractionPairs:
    @settings(max_examples=300, deadline=None)
    @given(_rational, _rational,
           st.lists(st.tuples(st.sampled_from(sorted(_OPS)), _rational, _rational), max_size=6))
    def test_every_operation_keeps_the_invariant_and_the_value(self, x, y, steps):
        z, model = ExactComplex(x, y), (x, y)
        _assert_matches_model(z, model)
        for op, u, v in steps:
            w = ExactComplex(u, v)
            if op == "/" and u == v == 0:
                with pytest.raises(ZeroDivisionError, match="division by exact zero"):
                    z / w
                continue
            z, model = _OPS[op](z, w), _model_apply(op, model, (u, v))
            _assert_matches_model(z, model)

    @settings(max_examples=300, deadline=None)
    @given(_rational, _rational, _rational, _rational)
    def test_equality_is_equality_of_the_pairs(self, x, y, u, v):
        assert (ExactComplex(x, y) == ExactComplex(u, v)) == ((x, y) == (u, v))
        assert (ExactComplex(x, y) == u) == ((x, y) == (u, 0))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2**53, 2**53), st.integers(-2**53, 2**53), st.integers(0, 60))
    def test_hash_agrees_with_an_equal_complex(self, a, b, k):
        # a dyadic value is exactly a complex; with integer parts it is also ==
        z = ExactComplex(Fraction(a, 2**k), Fraction(b, 2**k))
        c = complex(a / 2**k, b / 2**k)
        if k == 0:
            assert z == c
        assert hash(z) == hash(c)

    def test_hash_examples_against_complex(self):
        assert len({ExactComplex(1, 2), 1 + 2j}) == 1
        assert hash(ExactComplex(0, -1)) == hash(-1j)
        assert hash(ExactComplex(Fraction(3, 4), Fraction(-1, 8))) == hash(0.75 - 0.125j)

    @settings(max_examples=200, deadline=None)
    @given(_rational, st.integers(-50, 50))
    def test_a_real_value_hashes_like_its_rational(self, q, k):
        assert ExactComplex(q) == q and hash(ExactComplex(q)) == hash(q)
        assert ExactComplex(k) == k and hash(ExactComplex(k)) == hash(k)
        assert len({ExactComplex(q), q}) == 1

    @pytest.mark.parametrize("make", [
        lambda: ExactComplex(0.5), lambda: ExactComplex(1, 0.25),
    ])
    def test_a_float_part_is_refused(self, make):
        with pytest.raises(TypeError, match="refusing inexact float"):
            make()

    def test_a_float_operand_is_refused(self):
        with pytest.raises(TypeError, match="cannot coerce float"):
            ExactComplex(1) + 0.5
        with pytest.raises(TypeError, match="refusing inexact complex"):
            ExactComplex(1) * 0.5j


class TestRadicalFastPath:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), _gaussian_rational)
    def test_results_match_the_validating_constructor(self, data, k):
        a, base = data.draw(_radical())
        b, _ = data.draw(_radical(base))

        def fields(r):
            return r.coeff, r.radicand

        assert fields(a * k) == fields(Radical(a.coeff * k, a.radicand))
        assert fields(-a) == fields(Radical(-a.coeff, a.radicand))
        assert fields(a.conjugate()) == fields(Radical(a.coeff.conjugate(), a.radicand))
        assert fields(a * 0) == fields(Radical(0)) == (ExactComplex(0), 1)
        assert fields(a + (-a)) == fields(Radical(0))
        if not (a.is_zero() or b.is_zero()):
            ratio = fraction_sqrt(b.radicand / a.radicand)  # commensurable: rational
            assert fields(a + b) == fields(Radical(a.coeff + b.coeff * ratio, a.radicand))

    @settings(max_examples=200, deadline=None)
    @given(_radical(), st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
    def test_equal_radicals_hash_equal(self, ra, k):
        a, _ = ra
        same = Radical(a.coeff / k, a.radicand * k * k)  # the same value written apart
        assert same == a and hash(same) == hash(a)

    def test_hash_examples(self):
        assert len({Radical(1, 8), Radical(2, 2)}) == 1
        assert hash(Radical(0, 5)) == hash(Radical(3, 0)) == hash(ExactComplex(0))
        assert hash(Radical.of(Fraction(3, 4))) == hash(Fraction(3, 4))
        from csym.waves import PlaneWaveFunction

        kappa = (1, 0, 0, 1)
        records = {PlaneWaveFunction([Radical(1, 8)], kappa),
                   PlaneWaveFunction([Radical(2, 2)], kappa)}
        assert len(records) == 1
