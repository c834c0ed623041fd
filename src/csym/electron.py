"""The 4-component Dirac equation and its discrete conjugations.

Builds the Dirac matrices and verifies their full identity list, derives the
conjugation matrix by exact nullspace solving, certifies the transformation
table (parity, time reversal, their composites, and the light-speed-inversion
column) at the operator level, constructs explicit plane-wave spinors with
exact radical amplitudes, and realizes charge conjugation C and the
speed-of-light inversion Q on them.  Q is the substitution itself: the
state's own record rebuilt with c, hbar, sigma and the 4-momentum labels
negated.  The headline equality C psi = Q psi is checked as an identity
between the two function records.

Sign conventions baked in here and stated once:

* Square roots of negated radicands follow the worked conjugation chain:
  the 1/sqrt(2 p0) prefactor takes the principal branch (+i), while the
  bispinor radicals sqrt(p0 +- mc) take the conjugate branch (-i).  A single
  uniform branch would flip the C = Q equality by a global sign; the mixed
  choice is the one under which the published chain closes, and the equality
  check is the arbiter.
* Under Q the action quantum flips together with the speed of light, so all
  4-momentum labels flip while the realized exponent is unchanged.  The
  Pauli matrices flip too, so (n.sigma) is unchanged as n -> -n.
* Momentum labels of a realized wave are read with the reference positive
  hbar and the energy label is c_signed times the momentum label p0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .exact import EC_I, ExactComplex, ExactMatrix, fraction_sqrt, matrix_rank
from .gamma import (  # GammaIdentityError is public here too
    ConjugationSpace,
    GammaIdentityError,
    GammaSet,
    GammaSpec,
    block,
    build_gamma_set,
    solve_conjugation_space,
)
from .sampling import Vec3, dot
from .waves import (
    PlaneWaveFunction,
    Radical,
    bilinear,
    dirac_residual,
    measured_momentum,
    plane_wave,
)

MINUS_I = ExactComplex(0, -1)

#: g2 imaginary, the rest real; g5 anticommutes with every g_a and is -i g0 g1 g2 g3
GAMMA4 = GammaSpec(reality=(1, 1, -1, 1, 1), g5_anticommutator=(0, 0, 0, 0), g5_product=True)


def _pauli() -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    sx = ExactMatrix.from_rows([[0, 1], [1, 0]])
    sy = ExactMatrix.from_rows([[0, MINUS_I], [EC_I, 0]])
    sz = ExactMatrix.from_rows([[1, 0], [0, -1]])
    return sx, sy, sz


def build_gamma4() -> GammaSet:
    """Construct and verify the Dirac set; rejects on any failed identity."""
    sx, sy, sz = _pauli()
    z2 = ExactMatrix.zeros(2, 2)
    i2 = ExactMatrix.identity(2)
    mats = {
        "g0": block(i2, z2, z2, -i2),
        "g1": block(z2, sx, -sx, z2),
        "g2": block(z2, sy, -sy, z2),
        "g3": block(z2, sz, -sz, z2),
        "g5": block(z2, -i2, -i2, z2),
    }
    return build_gamma_set(GAMMA4, mats)


def solve_UQ(gs: GammaSet) -> ConjugationSpace:
    """Exact nullspace of {U g0 = -g0 U, U g2 = -g2 U, U g1 = g1 U, U g3 = g3 U}.

    With the transpose pattern of this set these are exactly the constraints
    U g^aT U^-1 = -g^a; the solution -g0 g2 must lie in the span.
    """
    space = solve_conjugation_space(gs, tuple(-t for t in GAMMA4.transpose_pattern))
    if not space.contains(conjugation_matrix(gs)):
        raise AssertionError("-g0 g2 unexpectedly missing from the solution space")
    return space


def conjugation_matrix(gs: GammaSet) -> ExactMatrix:
    """U_Q = U_C = -g0 g2."""
    return -(gs.g0 @ gs.g2)


# ---------------------------------------------------------------------------
# The transformation table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiracTransform:
    """One row of the transformation table: psi'(x) = M psi^(*)(eps x)."""

    name: str
    matrix: ExactMatrix
    conj: bool
    arg_sig: tuple[int, int]  # signs on (x0, x)
    c_sign: int = 1
    hbar_sign: int = 1

    def __post_init__(self):
        if matrix_rank(self.matrix) != self.matrix.rows:
            raise ValueError(f"table entry {self.name} has a singular matrix")


def build_transform_table(gs: GammaSet) -> dict[str, DiracTransform]:
    """The seven light-speed-inversion rows plus the four literature rows."""
    g0, g1, g2, g3, g5 = gs.g0, gs.g1, gs.g2, gs.g3, gs.g5
    i = EC_I
    entries = [
        DiracTransform("P", g0.scale(i), False, (1, -1)),
        DiracTransform("T", (g1 @ g3).scale(-i), True, (-1, 1)),
        DiracTransform("PT", g0 @ g1 @ g3, True, (-1, -1)),
        DiracTransform("QPT", g5.scale(i), False, (-1, -1), c_sign=-1, hbar_sign=-1),
        DiracTransform("QT", (g1 @ g2 @ g3).scale(i), False, (-1, 1), c_sign=-1, hbar_sign=-1),
        DiracTransform("QP", (g0 @ g2).scale(i), True, (1, -1), c_sign=-1, hbar_sign=-1),
        DiracTransform("Q", g2, True, (1, 1), c_sign=-1, hbar_sign=-1),
        # literature column, for the row-by-row correspondence with the Q column
        DiracTransform("C", g2, True, (1, 1)),
        DiracTransform("CP", (g0 @ g2).scale(i), True, (1, -1)),
        DiracTransform("CT", (g1 @ g2 @ g3).scale(i), False, (-1, 1)),
        DiracTransform("CPT", g5.scale(i), False, (-1, -1)),
    ]
    return {e.name: e for e in entries}


CORRESPONDENCE_PAIRS = (("C", "Q"), ("CP", "QP"), ("CT", "QT"), ("CPT", "QPT"))


@dataclass(frozen=True)
class SymmetryCertificate:
    """Operator-level proof data for one table entry."""

    name: str
    holds: bool
    per_index: tuple[bool, bool, bool, bool]


def verify_symmetry(entry: DiracTransform, gs: GammaSet) -> SymmetryCertificate:
    """Certify psi'(x) = M psi^(*)(eps x) as a free-equation symmetry.

    Substituting psi' into the equation with the entry's mapped constants and
    conjugating by M must reproduce the original equation up to the overall
    factor c'/c.  That reduces to, for each index a (eps_a the argument sign):

      no conjugation:   g^a M = (s_c s_h eps_a) M g^a
      with conjugation: g^a M = -(s_c s_h eps_a) M (g^a)*

    written multiplicatively to avoid forming M^-1.
    """
    s = entry.c_sign * entry.hbar_sign
    per = []
    for a, g in enumerate(gs.vector):
        eps = entry.arg_sig[0] if a == 0 else entry.arg_sig[1]
        if entry.conj:
            target = entry.matrix @ g.conj().scale(-s * eps)
        else:
            target = entry.matrix @ g.scale(s * eps)
        per.append(g @ entry.matrix == target)
    return SymmetryCertificate(entry.name, all(per), tuple(per))


def transform_wave(entry: DiracTransform, rec: PlaneWaveFunction) -> PlaneWaveFunction:
    """Apply a table entry to a realized plane wave."""
    amp = rec.amp
    kappa = [rec.kappa[0] * entry.arg_sig[0]] + [k * entry.arg_sig[1] for k in rec.kappa[1:]]
    if entry.conj:
        amp = tuple(a.conjugate() for a in amp)
        kappa = [-k for k in kappa]
    return PlaneWaveFunction(amp, kappa).apply_matrix(entry.matrix)


def transformed_residual(entry: DiracTransform, rec: PlaneWaveFunction, m: Fraction,
                         c_sign: int, hbar_sign: int, gs: GammaSet) -> float:
    """Residual of the transformed wave against the equation with mapped constants."""
    return dirac_residual(transform_wave(entry, rec), m * Fraction(c_sign * entry.c_sign),
                          Fraction(hbar_sign * entry.hbar_sign), gs.vector)


# ---------------------------------------------------------------------------
# Explicit spinor states
# ---------------------------------------------------------------------------


def _nsigma(n: Vec3) -> ExactMatrix:
    return ExactMatrix.from_rows([
        [ExactComplex(n[2]), ExactComplex(n[0], -n[1])],
        [ExactComplex(n[0], n[1]), ExactComplex(-n[2])],
    ])


def _apply2(m: ExactMatrix, z: tuple[ExactComplex, ExactComplex]) -> tuple[ExactComplex, ExactComplex]:
    return (
        m[0, 0] * z[0] + m[0, 1] * z[1],
        m[1, 0] * z[0] + m[1, 1] * z[1],
    )


def _inv_sqrt_radical(x: Fraction) -> Radical:
    """1/sqrt(x) with the principal branch: x < 0 gives 1/(i sqrt|x|) = -i/sqrt|x|."""
    if x == 0:
        raise ZeroDivisionError("1/sqrt(0)")
    if x > 0:
        return Radical(1, 1 / x)
    return Radical(MINUS_I, 1 / (-x))


@dataclass(frozen=True)
class SpinorState:
    """A plane-wave Dirac spinor with exact rational state data.

    The 2-spinor label is stored unnormalized as z; the realized amplitude
    folds in 1/sqrt(z^dagger z) so the effective w satisfies w^dagger w = 1
    exactly.  branch +1 is the positive-frequency solution built on w, and
    branch -1 the negative-frequency partner built on w' (the stored z then
    plays the w' role).  Exactness requires sqrt(|p|^2 + (mc)^2) rational,
    which the random-state generator guarantees by Pythagorean construction.
    sigma_sign -1 flips the Pauli matrices, as light-speed inversion does.
    """

    p: Vec3
    m: Fraction
    z: tuple[ExactComplex, ExactComplex]
    branch: int = 1
    c_sign: int = 1
    hbar_sign: int = 1
    sigma_sign: int = 1

    @property
    def s(self) -> Fraction:
        return self.z[0].norm_sq() + self.z[1].norm_sq()

    @cached_property
    def p_abs(self) -> Fraction:
        r = fraction_sqrt(dot(self.p, self.p))
        if r is None:
            raise ValueError(f"|p| must be rational: |p|^2 = {dot(self.p, self.p)}")
        return r

    @cached_property
    def energy(self) -> Fraction:
        e = fraction_sqrt(dot(self.p, self.p) + self.m * self.m)
        if e is None:
            raise ValueError(
                "energy must be rational: |p|^2 + (mc)^2 = "
                f"{dot(self.p, self.p) + self.m * self.m} is not a perfect square"
            )
        return e

    @property
    def p0(self) -> Fraction:
        return self.energy / self.c_sign

    @property
    def mc(self) -> Fraction:
        return self.m * self.c_sign

    @cached_property
    def n(self) -> Vec3:
        if self.p_abs == 0:
            return (Fraction(0), Fraction(0), Fraction(1))  # direction is immaterial at rest
        return tuple(pi / self.p_abs for pi in self.p)

    def bispinor(self) -> tuple[Radical, ...]:
        """The 4 amplitude entries without the 1/sqrt(2 p0) prefactor."""
        snorm = Radical(1, 1 / self.s)
        radp = Radical.sqrt(self.p0 + self.mc, negative_branch=MINUS_I)
        radm = Radical.sqrt(self.p0 - self.mc, negative_branch=MINUS_I)
        nsz = _apply2(_nsigma(self.n), self.z)
        if self.sigma_sign == -1:
            nsz = (-nsz[0], -nsz[1])
        if self.branch == 1:
            parts = [radp * self.z[0], radp * self.z[1], radm * nsz[0], radm * nsz[1]]
        else:
            parts = [radm * nsz[0], radm * nsz[1], radp * self.z[0], radp * self.z[1]]
        return tuple(x * snorm for x in parts)

    def record(self) -> PlaneWaveFunction:
        return self._record

    @cached_property
    def _record(self) -> PlaneWaveFunction:
        pref = _inv_sqrt_radical(2 * self.p0)
        amp = [x * pref for x in self.bispinor()]
        b = self.branch  # +branch: exp[-(i/h)(p0 x0 - p.x)], -branch: conjugated phase
        return plane_wave(amp, b * self.p0, [b * pk for pk in self.p], Fraction(self.hbar_sign))

    @property
    def momentum_label(self) -> Vec3:
        _, pl = measured_momentum(self.record())
        return pl

    @property
    def energy_label(self) -> Fraction:
        p0l, _ = measured_momentum(self.record())
        return Fraction(self.c_sign) * p0l


def build_spinor(p, m, z, branch: int = 1) -> SpinorState:
    """Validated spinor-state constructor; rejections name the violated rule."""
    p = tuple(Fraction(x) for x in p)
    m = Fraction(m)
    z = tuple(ExactComplex.coerce(x) for x in z)
    if m <= 0:
        raise ValueError(f"rest mass must be positive, got {m}")
    if not (z[0] or z[1]):
        raise ValueError("spinor label z must be nonzero")
    if branch not in (-1, 1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    state = SpinorState(p=p, m=m, z=z, branch=branch)
    state.energy  # force the rationality checks
    state.p_abs
    return state


def spinor_norm(state: SpinorState, gs: GammaSet) -> ExactComplex:
    """ubar u for the unnormalized bispinor: 2mc on the + branch, -2mc on -."""
    u = state.bispinor()
    return bilinear(u, gs.g0, u)


def free_residual(state: SpinorState, gs: GammaSet) -> float:
    """Residual of the state's record in the free equation with its own signs."""
    return dirac_residual(state.record(), state.mc, Fraction(state.hbar_sign), gs.vector)


def _partner_z(z, branch: int) -> tuple[ExactComplex, ExactComplex]:
    """The conjugation-partner 2-spinor: -sigma_y z* on the + branch, +sigma_y z* on -."""
    out = _apply2(_pauli()[1], (z[0].conjugate(), z[1].conjugate()))
    if branch == 1:
        return (-out[0], -out[1])
    return out


@dataclass(frozen=True)
class ConjugatedSpinor:
    """A conjugation image: the realized function plus its state labels."""

    record: PlaneWaveFunction
    z_label: tuple[ExactComplex, ExactComplex]
    effective_branch: int
    c_sign: int
    hbar_sign: int

    @property
    def momentum_label(self) -> Vec3:
        _, pl = measured_momentum(self.record)
        return pl

    @property
    def energy_label(self) -> Fraction:
        p0l, _ = measured_momentum(self.record)
        return Fraction(self.c_sign) * p0l


def apply_C_spinor(state: SpinorState | ConjugatedSpinor, gs: GammaSet
                   ) -> SpinorState | ConjugatedSpinor:
    """Charge conjugation psi -> g2 psi*.

    On a template state the result is again a template state (opposite
    branch, partner spinor); that template form is asserted against the
    directly computed matrix route before returning.
    """
    if isinstance(state, SpinorState):
        out_rec = state.record().conjugate_function().apply_matrix(gs.g2)
        out_state = replace(state, z=_partner_z(state.z, state.branch), branch=-state.branch)
        if out_state.record() != out_rec:
            raise AssertionError("conjugated record does not match its template form")
        return out_state
    return ConjugatedSpinor(
        record=state.record.conjugate_function().apply_matrix(gs.g2),
        z_label=_partner_z(state.z_label, state.effective_branch),
        effective_branch=-state.effective_branch,
        c_sign=state.c_sign,
        hbar_sign=state.hbar_sign,
    )


def apply_Q_spinor(state: SpinorState, gs: GammaSet) -> ConjugatedSpinor:
    """Light-speed inversion: the state's own record with c, hbar, sigma and
    hence all 4-momentum labels negated, conjugated and multiplied by the
    sigma-flipped conjugation matrix -g2.
    """
    relabeled = replace(
        state, p=tuple(-pk for pk in state.p), c_sign=-state.c_sign,
        hbar_sign=-state.hbar_sign, sigma_sign=-state.sigma_sign,
    )
    return ConjugatedSpinor(
        record=relabeled.record().conjugate_function().apply_matrix(-gs.g2),
        z_label=_partner_z(state.z, state.branch),
        effective_branch=-state.branch,
        c_sign=relabeled.c_sign,
        hbar_sign=relabeled.hbar_sign,
    )


# ---------------------------------------------------------------------------
# The charged-particle equation under Q
# ---------------------------------------------------------------------------

FIXED_POTENTIAL = "fixed"      # charge is a scalar; the 4-potential is untouched
FLIPPED_POTENTIAL = "flipped"  # the 4-potential components change sign
POTENTIAL_RULES = (FIXED_POTENTIAL, FLIPPED_POTENTIAL)


@dataclass(frozen=True)
class ChargedEquation:
    """Sign record of (gamma^a p_a - mc) psi = (e/c) gamma^a A_a psi.

    mass_sign +1 means the canonical -mc term; charge_sign is the sign of e;
    a0_sign / a_sign are the signs carried by the potential components.  The
    c_sign / hbar_sign context records which hyperplane the equation lives
    on and is excluded from formal equality of the equation shape.
    """

    charge_sign: int = 1
    a0_sign: int = 1
    a_sign: int = 1
    mass_sign: int = 1
    c_sign: int = 1
    hbar_sign: int = 1

    def form(self) -> tuple[int, int, int, int]:
        return (self.charge_sign, self.a0_sign, self.a_sign, self.mass_sign)

    def terms(self, gs: GammaSet) -> dict[str, ExactMatrix]:
        """Coefficient matrices per formal symbol, all terms moved left."""
        e = self.charge_sign
        out = {
            "p0": gs.g0, "p1": gs.g1, "p2": gs.g2, "p3": gs.g3,
            "m": ExactMatrix.identity(4).scale(-self.mass_sign),
            "A0": gs.g0.scale(-e * self.a0_sign),
        }
        for k, g in enumerate((gs.g1, gs.g2, gs.g3), start=1):
            out[f"A{k}"] = g.scale(e * self.a_sign)  # gamma^a A_a lowers the index
        return out


def _chain_step_conjugate_transpose(terms: dict[str, ExactMatrix], gs: GammaSet
                                    ) -> dict[str, ExactMatrix]:
    """Dirac-conjugate the equation and transpose it.

    Momentum terms map X -> (g0 X^dagger g0)^T; all other terms pick up an
    extra minus sign from the same rearrangement.
    """
    out = {}
    for sym, x in terms.items():
        y = (gs.g0 @ x.dagger() @ gs.g0).transpose()
        out[sym] = y if sym.startswith("p") else -y
    return out


def _chain_step_u_conjugate(terms: dict[str, ExactMatrix], u: ExactMatrix
                            ) -> dict[str, ExactMatrix]:
    return {sym: u @ x @ u for sym, x in terms.items()}  # u is self-inverse


def _sign(x: ExactMatrix, pattern: ExactMatrix) -> int | None:
    """+1 if x is pattern, -1 if x is -pattern, None otherwise."""
    if x == pattern:
        return 1
    return -1 if x == -pattern else None


def _extract_record(terms: dict[str, ExactMatrix], gs: GammaSet,
                    context: tuple[int, int]) -> ChargedEquation:
    """Normalize the momentum coefficient to +gamma and read the signs off."""
    mu = _sign(terms["p0"], gs.g0)
    if mu is None:
        raise AssertionError("momentum coefficient is not proportional to g0")
    for a, g in enumerate(gs.vector):
        if _sign(terms[f"p{a}"], g) != mu:
            raise AssertionError(f"momentum coefficient p{a} failed to normalize")
    mass_sign = _sign(terms["m"], ExactMatrix.identity(4).scale(-mu))
    if mass_sign is None:
        raise AssertionError("mass coefficient is not proportional to the identity")
    couplings = {_sign(terms[f"A{a}"], g.scale(-mu if a == 0 else mu))
                 for a, g in enumerate(gs.vector)}
    if None in couplings or len(couplings) != 1:
        raise AssertionError("potential couplings do not share a single sign")
    # the coupling is charge_sign * potential_sign; report with potentials +
    return ChargedEquation(
        charge_sign=couplings.pop(), a0_sign=1, a_sign=1, mass_sign=mass_sign,
        c_sign=context[0], hbar_sign=context[1],
    )


def transform_charged_equation(eq: ChargedEquation, potential_rule: str,
                               gs: GammaSet) -> ChargedEquation:
    """Push the equation through the Q chain and apply the potential rule.

    The chain is Dirac conjugation, transposition, then conjugation by the
    self-inverse matrix -g0 g2, followed by an overall normalization.  With
    the potentials untouched the result is the original equation with the
    charge negated; with the potential components negated it is the original
    equation exactly.

    The coupling is e A, so (e, -A) and (-e, A) are the same equation: the
    chain carries the product of the charge and potential signs, and the
    result reports it as the charge with unit potential signs.  The two
    potential signs must agree, or the coupling is not e times a 4-vector.
    """
    if potential_rule not in POTENTIAL_RULES:
        raise ValueError(
            f"potential_rule must be one of {POTENTIAL_RULES}, got {potential_rule!r}"
        )
    if eq.a0_sign != eq.a_sign:
        raise ValueError(
            "the potential components must carry one common sign (a0_sign == a_sign), "
            f"got a0_sign={eq.a0_sign}, a_sign={eq.a_sign}"
        )
    terms = eq.terms(gs)
    terms = _chain_step_conjugate_transpose(terms, gs)
    terms = _chain_step_u_conjugate(terms, conjugation_matrix(gs))
    out = _extract_record(terms, gs, context=(-eq.c_sign, -eq.hbar_sign))
    if potential_rule == FLIPPED_POTENTIAL:
        # rewrite in terms of the negated potential components: the coupling
        # sign folds back and the record keeps unit potential signs
        out = ChargedEquation(
            charge_sign=-out.charge_sign, a0_sign=out.a0_sign, a_sign=out.a_sign,
            mass_sign=out.mass_sign, c_sign=out.c_sign, hbar_sign=out.hbar_sign,
        )
    return out
