"""Gamma-matrix sets: construction-time identities and conjugation spaces.

The 8x8 photon set and the 4x4 Dirac set are built the same way.  Five
matrices g0, g1, g2, g3, g5 with metric diag(+,-,-,-) are assembled from
blocks, every defining identity is verified exactly before the set is
returned, and the matrices U with U g_a = s_a g_a U are solved as an exact
nullspace.  A GammaSpec holds only what differs between two sets.

Hermiticity g_a^dagger = eta_a g_a and reality g_a^* = r_a g_a fix the
transpose pattern g_a^T = t_a g_a with t_a = eta_a r_a: the transpose
identities follow, and the conjugation-constraint signs are derived, not listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .exact import EC_ZERO, ExactComplex, ExactMatrix, RowSpan, anticommutator, nullspace

METRIC_DIAG = (1, -1, -1, -1)

_REALITY = {1: "real", -1: "imaginary"}


class GammaIdentityError(ValueError):
    """A defining matrix failed one of its construction-time identities."""


@dataclass(frozen=True)
class GammaSpec:
    """The per-set table of a gamma set.

    reality: +1 (real) or -1 (imaginary) for each of g0, g1, g2, g3, g5.
    g5_anticommutator: c_a with {g_a, g5} = c_a I required.
    g5_product: whether g5 = -i g0 g1 g2 g3 is a defining identity.
    """

    reality: tuple[int, int, int, int, int]
    g5_anticommutator: tuple[int, int, int, int]
    g5_product: bool

    @property
    def transpose_pattern(self) -> tuple[int, int, int, int]:
        """t_a with g_a^T = t_a g_a: the metric sign times the reality sign."""
        return tuple(eta * r for eta, r in zip(METRIC_DIAG, self.reality))


@dataclass(frozen=True)
class GammaSet:
    """Five verified matrices g0, g1, g2, g3, g5 with metric diag(+,-,-,-)."""

    g0: ExactMatrix
    g1: ExactMatrix
    g2: ExactMatrix
    g3: ExactMatrix
    g5: ExactMatrix

    @property
    def vector(self) -> tuple[ExactMatrix, ...]:
        return (self.g0, self.g1, self.g2, self.g3)

    @cached_property
    def minus_g2(self) -> ExactMatrix:
        """-g2, the sigma-flipped g2 that light-speed inversion applies; built once per set."""
        return -self.g2

    @cached_property
    def bar_vector(self) -> tuple[ExactMatrix, ...]:
        """g0 g^a for each a, the matrices of the bilinears Psi-bar g^a Psi; built once per set."""
        return tuple(self.g0 @ g for g in self.vector)


def block(tl, tr, bl, br) -> ExactMatrix:
    """The block matrix [[tl, tr], [bl, br]] of four equal square blocks."""
    n = tl.rows
    rows = [list(tl.row(i)) + list(tr.row(i)) for i in range(n)]
    rows += [list(bl.row(i)) + list(br.row(i)) for i in range(n)]
    return ExactMatrix.from_rows(rows)


def verify_identities(spec: GammaSpec, gs: GammaSet) -> None:
    """Raise GammaIdentityError naming the first defining identity that fails."""
    ident = ExactMatrix.identity(gs.g0.rows)
    times_ident = cache(ident.scale)  # each comparison target c I is built once
    gam = gs.vector
    for a in range(4):
        for b in range(4):
            want = times_ident(2 * (METRIC_DIAG[a] if a == b else 0))
            if anticommutator(gam[a], gam[b]) != want:
                raise GammaIdentityError(
                    f"anticommutation failed: {{g{a}, g{b}}} != 2 g^{a}{b}"
                )
    for a, c in enumerate(spec.g5_anticommutator):
        if anticommutator(gam[a], gs.g5) != times_ident(c):
            raise GammaIdentityError(f"anticommutation failed: {{g{a}, g5}} != {c} I")
    for a, (g, eta) in enumerate(zip(gam, METRIC_DIAG)):
        if g.dagger() != g.scale(eta):
            raise GammaIdentityError(f"g{a} is not {'hermitian' if eta > 0 else 'antihermitian'}")
    for a, (g, r) in enumerate(zip(gam, spec.reality)):
        if g.conj() != g.scale(r):
            raise GammaIdentityError(f"g{a} is not {_REALITY[r]}")
    # not checked again: {g_a, g_a} gives g_a^2, and (g_a^dagger)^* gives g_a^T = t_a g_a
    if spec.g5_product and (gs.g0 @ gs.g1 @ gs.g2 @ gs.g3).scale(ExactComplex(0, -1)) != gs.g5:
        raise GammaIdentityError("g5 != -i g0 g1 g2 g3")
    if gs.g5.dagger() != gs.g5:
        raise GammaIdentityError("g5 is not hermitian")
    if gs.g5.conj() != gs.g5.scale(spec.reality[4]):
        raise GammaIdentityError(f"g5 is not {_REALITY[spec.reality[4]]}")
    if gs.g5 @ gs.g5 != ident:
        raise GammaIdentityError("g5 squared is not the identity")


def build_gamma_set(spec: GammaSpec, mats: dict[str, ExactMatrix]) -> GammaSet:
    """Verify the five named matrices against `spec` and return them as a set."""
    gs = GammaSet(**mats)
    verify_identities(spec, gs)
    return gs


@dataclass(frozen=True)
class ConjugationSpace:
    """Canonical nullspace basis of the matrices U with U g_a = s_a g_a U."""

    basis: tuple[ExactMatrix, ...]
    rank: int
    nullity: int

    @cached_property
    def span(self) -> RowSpan:
        """The row span of the flattened basis, reduced once per space."""
        return RowSpan(ExactMatrix.from_rows(b.entries for b in self.basis))

    def contains(self, m: ExactMatrix) -> bool:
        return self.span.express(ExactMatrix(1, len(m.entries), m.entries)).failing_row is None


def conjugation_constraint_rows(gammas, signs, n) -> ExactMatrix:
    """Vectorized rows of U G - s G U = 0 for each (G, s), unknowns vec(U)."""
    rows = []
    for G, s in zip(gammas, signs):
        for i in range(n):
            for j in range(n):
                row = [EC_ZERO] * (n * n)
                for k in range(n):
                    if G[k, j]:
                        row[i * n + k] = row[i * n + k] + G[k, j]
                    if G[i, k]:
                        row[k * n + j] = row[k * n + j] - G[i, k] * s
                rows.append(row)
    return ExactMatrix.from_rows(rows)


def solve_conjugation_space(gs: GammaSet, signs) -> ConjugationSpace:
    """Exact nullspace of {U g_a - s_a g_a U = 0} in the entries of U."""
    n = gs.g0.rows
    basis, rank = nullspace(conjugation_constraint_rows(gs.vector, signs, n))
    return ConjugationSpace(
        basis=tuple(ExactMatrix(n, n, b.entries) for b in basis),
        rank=rank,
        nullity=len(basis),
    )
