"""Exact Gaussian-rational scalars, matrices and sparse elimination.

Everything in this module is exact: a scalar is a complex number (a + b i) / d
held as three ints, reduced so that d > 0 and gcd(a, b, d) == 1, and every
matrix operation (products, elimination, nullspaces, row-space comparison) is
carried out without any rounding.  Identity checks built on top of it are
therefore zero-tolerance by construction.  Matrices are stored dense;
every product runs on a matrix's sparse rows, computed once, and reduces each
output entry once; elimination reduces rows held as dicts of their nonzeros,
scaling each pivot row once by the inverse of its pivot.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Sequence

Rational = int | Fraction

_HASH_HALF = 1 << (sys.hash_info.width - 1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError(f"refusing inexact float {x!r}; pass int or Fraction")
    return Fraction(x)


class ExactComplex:
    """A Gaussian rational (a + b i) / d, stored as the three ints a, b, d.

    The triple is reduced: d > 0 and gcd(a, b, d) == 1, so every value has
    exactly one triple and equality compares ints.  Arithmetic works on the
    ints and divides out one gcd per result.  The parts re and im are
    read-only Fraction properties.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        if re.__class__ is int and im.__class__ is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _frac(re), _frac(im)
        rd, imd = re.denominator, im.denominator
        d = rd * imd // gcd(rd, imd)
        # over the lcm of two reduced denominators the triple is reduced
        self._a, self._b, self._d = re.numerator * (d // rd), im.numerator * (d // imd), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors -------------------------------------------------
    @staticmethod
    def coerce(x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactComplex(x)
        if isinstance(x, complex):
            if x.real != int(x.real) or x.imag != int(x.imag):
                raise TypeError(f"refusing inexact complex {x!r}")
            return ExactComplex(int(x.real), int(x.imag))
        raise TypeError(f"cannot coerce {type(x).__name__} to ExactComplex")

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other) -> "ExactComplex":
        o = other if other.__class__ is ExactComplex else ExactComplex.coerce(other)
        d, e = self._d, o._d
        if d == e:
            return _reduced(self._a + o._a, self._b + o._b, d)
        return _reduced(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactComplex":
        o = other if other.__class__ is ExactComplex else ExactComplex.coerce(other)
        d, e = self._d, o._d
        if d == e:
            return _reduced(self._a - o._a, self._b - o._b, d)
        return _reduced(self._a * e - o._a * d, self._b * e - o._b * d, d * e)

    def __rsub__(self, other) -> "ExactComplex":
        return ExactComplex.coerce(other) - self

    def __mul__(self, other) -> "ExactComplex":
        cls = other.__class__
        if cls is ExactComplex:
            o = other
        elif cls is int:  # a rational factor scales the triple without a coercion
            return _reduced(self._a * other, self._b * other, self._d)
        elif cls is Fraction:
            n = other.numerator
            return _reduced(self._a * n, self._b * n, self._d * other.denominator)
        else:
            o = ExactComplex.coerce(other)
        a, b, c, e = self._a, self._b, o._a, o._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactComplex":
        o = other if other.__class__ is ExactComplex else ExactComplex.coerce(other)
        a, b, c, e = self._a, self._b, o._a, o._b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        # (a + b i) / d over (c + e i) / f is (a + b i)(c - e i) f / (d (c^2 + e^2))
        f = o._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other) -> "ExactComplex":
        return ExactComplex.coerce(other) / self

    def __neg__(self) -> "ExactComplex":
        return _triple(-self._a, -self._b, self._d)

    def conjugate(self) -> "ExactComplex":
        return _triple(self._a, -self._b, self._d)

    def norm_sq(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    # -- predicates / conversions -------------------------------------
    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_real(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if other.__class__ is not ExactComplex:
            try:
                other = ExactComplex.coerce(other)
            except TypeError:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # CPython's complex hash of the two parts, wrapped to a signed machine
        # word, so a value hashes like the int, Fraction or complex it equals
        h = hash(self.re) + sys.hash_info.imag * hash(self.im) + _HASH_HALF
        h = h % (2 * _HASH_HALF) - _HASH_HALF
        return -2 if h == -1 else h

    def to_complex(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


def _triple(a: int, b: int, d: int) -> ExactComplex:
    """The ExactComplex of a triple that is already reduced."""
    z = object.__new__(ExactComplex)
    z._a, z._b, z._d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> ExactComplex:
    """The ExactComplex (a + b i) / d for d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g == 1:
        return _triple(a, b, d)
    return _triple(a // g, b // g, d // g)


EC_ZERO = ExactComplex(0)
EC_ONE = ExactComplex(1)
EC_I = ExactComplex(0, 1)


def fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError(f"fraction_sqrt of negative value {q}")
    if q == 0:
        return Fraction(0)
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class ExactMatrix:
    """Dense matrix over ExactComplex, immutable, row-major.

    Products read the sparse rows: each row's nonzero entries as (column, a,
    b, d) int tuples, computed on first use and kept.
    """

    __slots__ = ("rows", "cols", "entries", "_sparse")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows <= 0 or cols <= 0:
            raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
        ents = tuple(e if e.__class__ is ExactComplex else ExactComplex.coerce(e) for e in entries)
        if len(ents) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(ents)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "_sparse", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, with the sparse rows not yet computed
        return ExactMatrix, (self.rows, self.cols, self.entries)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("from_rows needs at least one row")
        width = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != width:
                raise ValueError(f"row {i} has length {len(r)}, expected {width}")
        return ExactMatrix(len(rows), width, [e for r in rows for e in r])

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, [0] * (rows * cols))

    @staticmethod
    def column(values: Iterable) -> "ExactMatrix":
        vals = list(values)
        return ExactMatrix(len(vals), 1, vals)

    # -- access -------------------------------------------------------
    def __getitem__(self, idx: tuple[int, int]) -> ExactComplex:
        i, j = idx
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[ExactComplex, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    # -- algebra ------------------------------------------------------
    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return ExactMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError(
                f"cannot subtract {other.rows}x{other.cols} from {self.rows}x{self.cols}"
            )
        return ExactMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, factor) -> "ExactMatrix":
        f = ExactComplex.coerce(factor)
        return ExactMatrix(self.rows, self.cols, [f * a for a in self.entries])

    def _sparse_rows(self) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
        sparse = self._sparse
        if sparse is None:
            c = self.cols
            sparse = tuple(
                tuple((j, e._a, e._b, e._d)
                      for j, e in enumerate(self.entries[i * c:(i + 1) * c]) if e._a or e._b)
                for i in range(self.rows)
            )
            object.__setattr__(self, "_sparse", sparse)
        return sparse

    def apply(self, vec: Sequence[ExactComplex]) -> tuple[ExactComplex, ...]:
        """self @ vec for a vector of ExactComplex entries, as a tuple.

        Each output entry sums its row's nonzero products as ints over one
        running denominator and is reduced once.
        """
        if len(vec) != self.cols:
            raise ValueError(f"cannot apply a {self.rows}x{self.cols} matrix to {len(vec)} entries")
        out = []
        for row in self._sparse_rows():
            re = im = 0
            den = 1
            for j, a, b, d in row:
                x = vec[j]
                c, e = x._a, x._b
                if c or e:
                    f = d * x._d
                    if f == den:
                        re += a * c - b * e
                        im += a * e + b * c
                    else:
                        re = re * f + (a * c - b * e) * den
                        im = im * f + (a * e + b * c) * den
                        den *= f
            out.append(_reduced(re, im, den) if re or im else EC_ZERO)
        return tuple(out)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n = other.cols
        columns = [self.apply(other.entries[j::n]) for j in range(n)]
        return ExactMatrix(self.rows, n, [x for row in zip(*columns) for x in row])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def conj(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [a.conjugate() for a in self.entries])

    def dagger(self) -> "ExactMatrix":
        """Conjugate transpose."""
        return self.conj().transpose()

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for a, b in zip(self.entries, other.entries)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(repr(e) for e in self.row(i)) for i in range(self.rows)
        )
        return f"ExactMatrix[{body}]"


def anticommutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a @ b + b @ a


# ---------------------------------------------------------------------------
# Elimination: reduced row echelon form, rank, nullspace, linear solve.
# ---------------------------------------------------------------------------


def _rref(rows: list[list[ExactComplex]]) -> tuple[list[list[ExactComplex]], list[int]]:
    """Reduced row echelon form of dense rows; returns (rows, pivot column list).

    Each row, as a dict of its nonzeros, is reduced against the pivot rows
    found so far, which are kept fully reduced.  A nonzero remainder becomes a
    pivot row at its leftmost column: it is scaled once by the inverse of its
    pivot and cleared from the earlier pivot rows.  The unique reduced form
    is returned dense, pivot rows in column order, then the zero rows.
    """
    ncols = len(rows[0]) if rows else 0
    reduced: dict[int, dict[int, ExactComplex]] = {}  # pivot column -> its row
    for dense in rows:
        row = dict(_nonzeros(dense))
        for pc in reduced.keys() & row.keys():
            _subtract_multiple(row, row[pc], reduced[pc])
        if not row:
            continue
        col = min(row)
        inv = EC_ONE / row[col]
        row = {j: v * inv for j, v in row.items()}
        for other in reduced.values():
            if col in other:
                _subtract_multiple(other, other[col], row)
        reduced[col] = row
    pivots = sorted(reduced)
    out = [[reduced[pc].get(j, EC_ZERO) for j in range(ncols)] for pc in pivots]
    return out + [[EC_ZERO] * ncols for _ in range(len(rows) - len(pivots))], pivots


def _subtract_multiple(row: dict[int, ExactComplex], f: ExactComplex, pivot: dict) -> None:
    """row -= f * pivot on dicts of nonzeros, dropping entries that cancel."""
    for j, v in pivot.items():
        x = row.get(j, EC_ZERO) - f * v
        if x.is_zero():
            del row[j]
        else:
            row[j] = x


def matrix_rank(m: ExactMatrix) -> int:
    rows = [list(m.row(i)) for i in range(m.rows)]
    _, pivots = _rref(rows)
    return len(pivots)


def nullspace(m: ExactMatrix) -> tuple[list[ExactMatrix], int]:
    """Canonical nullspace basis (column vectors) and the rank of m.

    Basis vectors are the reduced-echelon ones: each has entry 1 in its free
    column and the negated pivot-column coefficients elsewhere, so the basis
    is deterministic and rank + nullity = cols exactly.
    """
    rows = [list(m.row(i)) for i in range(m.rows)]
    rref_rows, pivots = _rref(rows)
    rank = len(pivots)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [EC_ZERO] * m.cols
        vec[fc] = EC_ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -rref_rows[r][fc]
        basis.append(ExactMatrix.column(vec))
    for v in basis:
        if any(m.apply(v.entries)):
            raise AssertionError("internal error: nullspace vector fails m @ v = 0")
    return basis, rank


def solve(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix | None:
    """One exact solution x of a @ x = b (free variables set to 0), or None."""
    if b.rows != a.rows or b.cols != 1:
        raise ValueError(
            f"solve needs a {a.rows}x1 right-hand side, got {b.rows}x{b.cols}"
        )
    rows = [list(a.row(i)) + [b.entries[i]] for i in range(a.rows)]
    rref_rows, pivots = _rref(rows)
    if a.cols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [EC_ZERO] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = rref_rows[r][a.cols]
    return ExactMatrix.column(x)


def rowspace_equal(a: ExactMatrix, b: ExactMatrix) -> bool:
    """True iff the row spans of a and b coincide, by exact rank comparison."""
    if a.cols != b.cols:
        raise ValueError(f"row width mismatch: {a.cols} vs {b.cols}")
    ra = matrix_rank(a)
    rb = matrix_rank(b)
    if ra != rb:
        return False
    stacked = ExactMatrix.from_rows(
        [list(a.row(i)) for i in range(a.rows)] + [list(b.row(i)) for i in range(b.rows)]
    )
    return matrix_rank(stacked) == ra


def _nonzeros(values) -> tuple[tuple[int, ExactComplex], ...]:
    return tuple((j, v) for j, v in enumerate(values) if not v.is_zero())


class RowSpan:
    """The row space of a matrix a, reduced once and reused for every query.

    a is brought to reduced row-echelon form by one elimination, and only its
    `rank` nonzero rows are kept, each as its pivot column and its nonzero
    entries.
    """

    __slots__ = ("cols", "rank", "_basis")

    def __init__(self, a: ExactMatrix):
        reduced, pivots = _rref([list(a.row(i)) for i in range(a.rows)])
        self.cols = a.cols
        self.rank = len(pivots)
        self._basis = tuple((pc, _nonzeros(reduced[k])) for k, pc in enumerate(pivots))

    def express(self, b: ExactMatrix) -> tuple[int | None, int | None]:
        """(first row of b outside the span, rank of b).

        A row's coordinate on an echelon basis row is its entry in that row's
        pivot column; the row lies in the span iff subtracting those multiples
        of the basis rows leaves zero.  When every row does, the first item is
        None and rank(b) is the rank of the coordinate matrix, because the
        echelon rows are independent; otherwise the rank is None.
        """
        if b.cols != self.cols:
            raise ValueError(f"row width mismatch: {self.cols} vs {b.cols}")
        coords = []
        for i in range(b.rows):
            row = b.row(i)
            coord = [row[pc] for pc, _ in self._basis]
            residual = dict(_nonzeros(row))
            for c, (_, basis_row) in zip(coord, self._basis):
                if c.is_zero():
                    continue
                for j, v in basis_row:
                    residual[j] = residual.get(j, EC_ZERO) - c * v
            if any(not v.is_zero() for v in residual.values()):
                return i, None
            coords.append(coord)
        return None, matrix_rank(ExactMatrix.from_rows(coords)) if self.rank else 0
