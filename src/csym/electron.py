"""The 4-component Dirac equation and its discrete conjugations.

Builds the Dirac matrices and verifies their full identity list, derives the
conjugation matrix by exact nullspace solving, certifies the transformation
table (parity, time reversal, their composites, and the light-speed-inversion
column) at the operator level, constructs explicit plane-wave spinors whose
amplitude is one radical times a Gaussian-rational vector, and realizes
charge conjugation C and the speed-of-light inversion Q on them.  Q is the
substitution itself: the state's own record rebuilt with c, hbar, sigma and
the 4-momentum labels negated.  The headline equality C psi = Q psi is
checked as an identity between the two function records.

Sign conventions baked in here and stated once:

* Square roots of negated radicands follow the worked conjugation chain:
  the 1/sqrt(2 p0) prefactor takes the principal branch (+i), while the
  bispinor radicals sqrt(p0 +- mc) take the conjugate branch (-i).  A single
  uniform branch would flip the C = Q equality by a global sign; the mixed
  choice is the one under which the published chain closes, and the equality
  check is the arbiter.
* Under Q the action quantum flips together with the speed of light, so all
  4-momentum labels flip while the realized exponent is unchanged.  The
  Pauli matrices flip too, so (sigma.p) is unchanged as p -> -p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .exact import EC_I, ExactComplex, ExactMatrix, _frac, fraction_sqrt, matrix_rank
from .gamma import (
    ConjugationSpace,
    GammaSet,
    GammaSpec,
    block,
    build_gamma_set,
    solve_conjugation_space,
)
from .sampling import Vec3, check_vector, dot
from .waves import (
    Image,
    PlaneWaveFunction,
    Radical,
    amplitude,
    bilinear,
    check_sign,
    dirac_residual,
    plane_wave,
)

MINUS_I = ExactComplex(0, -1)

#: g2 imaginary, the rest real; g5 anticommutes with every g_a and is -i g0 g1 g2 g3
GAMMA4 = GammaSpec(reality=(1, 1, -1, 1, 1), g5_anticommutator=(0, 0, 0, 0), g5_product=True)


#: the Pauli matrices sigma_x, sigma_y, sigma_z, built once
PAULI = (
    ExactMatrix.from_rows([[0, 1], [1, 0]]),
    ExactMatrix.from_rows([[0, MINUS_I], [EC_I, 0]]),
    ExactMatrix.from_rows([[1, 0], [0, -1]]),
)


def build_gamma4() -> GammaSet:
    """Construct and verify the Dirac set; rejects on any failed identity."""
    sx, sy, sz = PAULI
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
    U g^aT U^-1 = -g^a; the report's conjugation-matrix-unique check proves
    that -g0 g2 spans the solution.
    """
    return solve_conjugation_space(gs, tuple(-t for t in GAMMA4.transpose_pattern))


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
        if len(self.arg_sig) != 2:
            raise ValueError(f"arg_sig must hold the two signs on (x0, x), got {self.arg_sig!r}")
        for k, sign in enumerate(self.arg_sig):
            check_sign(f"arg_sig[{k}]", sign)
        if self.conj.__class__ is not bool:
            raise ValueError(f"conj must be a bool, got {self.conj!r}")
        for name in ("c_sign", "hbar_sign"):
            check_sign(name, getattr(self, name))
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


def verify_symmetry(entry: DiracTransform, gs: GammaSet) -> tuple[bool, bool, bool, bool]:
    """Certify psi'(x) = M psi^(*)(eps x) as a free-equation symmetry.

    Substituting psi' into the equation with the entry's mapped constants and
    conjugating by M must reproduce the original equation up to the overall
    factor c'/c.  That reduces to, for each index a (eps_a the argument sign):

      no conjugation:   g^a M = (s_c s_h eps_a) M g^a
      with conjugation: g^a M = -(s_c s_h eps_a) M (g^a)*

    written multiplicatively to avoid forming M^-1, one verdict per index a.
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
    return tuple(per)


def transform_wave(entry: DiracTransform, rec: PlaneWaveFunction) -> PlaneWaveFunction:
    """Apply a table entry to a realized plane wave."""
    e0, ex = entry.arg_sig
    out = replace(rec, kappa=[e0 * rec.kappa[0]] + [ex * k for k in rec.kappa[1:]])
    if entry.conj:
        out = out.conjugate_function()
    return out.apply_matrix(entry.matrix)


def transformed_residual(entry: DiracTransform, state: SpinorState, gs: GammaSet) -> float:
    """Residual of the transformed state against the equation with mapped constants."""
    mass_term = state.mc if entry.c_sign > 0 else -state.mc
    return dirac_residual(transform_wave(entry, state.record()), mass_term,
                          state.hbar_sign * entry.hbar_sign, gs.vector)


# ---------------------------------------------------------------------------
# Explicit spinor states
# ---------------------------------------------------------------------------


def _check_z(name: str, z) -> None:
    """A 2-spinor label holds 2 ExactComplex entries, not both 0."""
    if not any(z):
        raise ValueError(f"spinor label {name} must be nonzero")
    if len(z) != 2 or any(x.__class__ is not ExactComplex for x in z):
        raise ValueError(f"spinor label {name} must hold 2 ExactComplex entries, got {z!r} "
                         f"of types ({', '.join(type(x).__name__ for x in z)})")


@dataclass(frozen=True)
class SpinorState:
    """A plane-wave Dirac spinor with exact rational state data.

    The 2-spinor label is stored unnormalized as z; the realized amplitude
    folds in 1/sqrt(z^dagger z) so the effective w satisfies w^dagger w = 1
    exactly.  branch +1 is the positive-frequency solution built on w, and
    branch -1 the negative-frequency partner built on w' (the stored z then
    plays the w' role).  The labels p_abs = |p| and energy = sqrt(|p|^2 + (mc)^2)
    must be rational (the random-state generator guarantees it by Pythagorean
    construction); build_spinor derives them from p and m.  Construction is the
    one place the labels are validated: p, positive mass, z (2 ExactComplex,
    not both 0), the four signs (each the int +1 or -1) and the two roots.
    The C and Q images come only from relabeled(), which checks their new z
    and signs and copies the roots, since neither map moves m or |p|^2.
    sigma_sign -1 flips the Pauli matrices, as light-speed inversion does.
    """

    p: Vec3
    m: Fraction
    z: tuple[ExactComplex, ExactComplex]
    energy: Fraction
    p_abs: Fraction
    branch: int = 1
    c_sign: int = 1
    hbar_sign: int = 1
    sigma_sign: int = 1

    def __post_init__(self):
        check_vector("p", self.p)
        if self.m <= 0:
            raise ValueError(f"rest mass must be positive, got {self.m}")
        _check_z("z", self.z)
        for name in ("branch", "c_sign", "hbar_sign", "sigma_sign"):
            check_sign(name, getattr(self, name))
        p_sq = dot(self.p, self.p)
        for name, label, square in (("p_abs", self.p_abs, p_sq),
                                    ("energy", self.energy, p_sq + self.m * self.m)):
            if label < 0 or label * label != square:
                raise ValueError(f"{name} label {label} is not the nonnegative root of {square}")

    @property
    def s(self) -> Fraction:
        # |(a + b i)/d|^2 + |(c + e i)/f|^2 = ((a^2 + b^2) f^2 + (c^2 + e^2) d^2) / (d f)^2
        (a, b, d), (c, e, f) = ((x._a, x._b, x._d) for x in self.z)
        return Fraction((a * a + b * b) * f * f + (c * c + e * e) * d * d, (d * f) ** 2)

    @property
    def p0(self) -> Fraction:
        return self.energy if self.c_sign > 0 else -self.energy

    @property
    def mc(self) -> Fraction:
        return self.m if self.c_sign > 0 else -self.m

    def bispinor(self, prefactor: Radical | None = None) -> PlaneWaveFunction:
        """The amplitude u, times prefactor when one is given, as a constant record.

        sqrt(p0 - mc) = |p| / |p0 + mc| * sqrt(p0 + mc) on both c signs, the
        -i branch included, so u is one radical times a Gaussian-rational
        vector: sqrt((p0 + mc) / z^dagger z) and the prefactor make that
        radical, and the lower block is (sigma.p) z / |p0 + mc|, rational.
        """
        a = self.p0 + self.mc
        root = Radical.sqrt(a / self.s, negative_branch=MINUS_I)  # s > 0 keeps a's sign
        if prefactor is not None:
            root = root * prefactor
        t = self.sigma_sign / abs(a)
        (p1, p2, p3), (z0, z1) = self.p, self.z
        p12 = ExactComplex(p1, p2)
        psz = ((z0 * p3 + p12.conjugate() * z1) * t, (p12 * z0 - z1 * p3) * t)
        if self.branch == 1:
            return amplitude(root, (z0, z1, *psz))
        return amplitude(root, (*psz, z0, z1))

    def relabeled(self, *, z: tuple[ExactComplex, ExactComplex], branch: int, p_sign: int,
                  c_sign: int, hbar_sign: int, sigma_sign: int) -> SpinorState:
        """This state relabeled by C or Q: the one constructor of their images.

        C and Q change the 2-spinor label, the signs and the sign of p, none
        of which moves m or |p|^2, so the mass, energy and |p| labels that
        this state proved are copied; z and the five signs are checked as
        __post_init__ checks them.
        """
        _check_z("z", z)
        for name, sign in (("branch", branch), ("p_sign", p_sign), ("c_sign", c_sign),
                           ("hbar_sign", hbar_sign), ("sigma_sign", sigma_sign)):
            check_sign(name, sign)
        out = object.__new__(SpinorState)
        # a frozen dataclass's fields live in its __dict__; __post_init__ is not run again
        out.__dict__.update(
            p=self.p if p_sign == 1 else tuple(-x for x in self.p), m=self.m, z=z,
            energy=self.energy, p_abs=self.p_abs, branch=branch, c_sign=c_sign,
            hbar_sign=hbar_sign, sigma_sign=sigma_sign,
        )
        return out

    def record(self) -> PlaneWaveFunction:
        return self._record

    @cached_property
    def _record(self) -> PlaneWaveFunction:
        # the principal 1/sqrt(x) is the -i branch of sqrt(1/x): 1/(i sqrt|x|) = -i/sqrt|x|
        p0 = self.p0
        amp = self.bispinor(Radical.sqrt(Fraction(p0.denominator, 2 * p0.numerator),
                                         negative_branch=MINUS_I))
        # +branch: exp[-(i/h)(p0 x0 - p.x)]; -branch: the conjugated phase, which
        # negates the labels as hbar -> -hbar does
        return plane_wave(amp, p0, self.p, self.branch * self.hbar_sign)


def build_spinor(p, m, z, branch: int = 1) -> SpinorState:
    """Coerce the labels and derive |p| and the energy; SpinorState validates the rest."""
    p = tuple(_frac(x) for x in p)
    m = _frac(m)
    z = tuple(ExactComplex.coerce(x) for x in z)
    p_sq = dot(p, p)
    energy = fraction_sqrt(p_sq + m * m)
    if energy is None:
        raise ValueError(f"energy must be rational: |p|^2 + (mc)^2 = {p_sq + m * m} "
                         "is not a perfect square")
    p_abs = fraction_sqrt(p_sq)
    if p_abs is None:
        raise ValueError(f"|p| must be rational: |p|^2 = {p_sq}")
    return SpinorState(p=p, m=m, z=z, energy=energy, p_abs=p_abs, branch=branch)


def spinor_norm(state: SpinorState, gs: GammaSet) -> ExactComplex:
    """ubar u for the unnormalized bispinor: 2mc on the + branch, -2mc on -."""
    return bilinear(state.bispinor(), gs.g0)


def free_residual(state: SpinorState, gs: GammaSet) -> float:
    """Residual of the state's record in the free equation with its own signs."""
    return dirac_residual(state.record(), state.mc, state.hbar_sign, gs.vector)


def _partner_z(z, branch: int) -> tuple[ExactComplex, ExactComplex]:
    """The conjugation-partner 2-spinor: -sigma_y z* on the + branch, +sigma_y z* on -."""
    i = EC_I * branch  # -sigma_y z* = (i z1*, -i z0*)
    return (i * z[1].conjugate(), -i * z[0].conjugate())


@dataclass(frozen=True)
class ConjugatedSpinor(Image):
    """A conjugation image: the realized function plus its state labels."""

    z_label: tuple[ExactComplex, ExactComplex]
    effective_branch: int

    def __post_init__(self):
        super().__post_init__()
        check_sign("effective_branch", self.effective_branch)
        _check_z("z_label", self.z_label)


def apply_C_spinor(state: SpinorState | ConjugatedSpinor, gs: GammaSet
                   ) -> SpinorState | ConjugatedSpinor:
    """Charge conjugation psi -> g2 psi*.

    On a template state the result is again a template state: the opposite
    branch on the partner spinor.  That its record is g2 psi* is proven by
    the report's electron.cq-record-equality check, not here.  An image is
    conjugated by the matrix route.
    """
    if isinstance(state, SpinorState):
        return state.relabeled(z=_partner_z(state.z, state.branch), branch=-state.branch,
                               p_sign=1, c_sign=state.c_sign, hbar_sign=state.hbar_sign,
                               sigma_sign=state.sigma_sign)
    return ConjugatedSpinor(
        function=state.record().conjugate_function().apply_matrix(gs.g2),
        z_label=_partner_z(state.z_label, state.effective_branch),
        effective_branch=-state.effective_branch,
        c_sign=state.c_sign,
        hbar_sign=state.hbar_sign,
    )


def apply_Q_spinor(state: SpinorState, gs: GammaSet) -> ConjugatedSpinor:
    """Light-speed inversion: the state's own record with c, hbar, sigma and
    hence all 4-momentum labels negated (|p| and the energy label are kept),
    conjugated and multiplied by the sigma-flipped conjugation matrix -g2.
    """
    if not isinstance(state, SpinorState):
        raise TypeError("Q relabels a SpinorState's own c, hbar, p and sigma, which an image "
                        f"does not carry; got {type(state).__name__}")
    relabeled = state.relabeled(z=state.z, branch=state.branch, p_sign=-1, c_sign=-state.c_sign,
                            hbar_sign=-state.hbar_sign, sigma_sign=-state.sigma_sign)
    return ConjugatedSpinor(
        function=relabeled.record().conjugate_function().apply_matrix(gs.minus_g2),
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
    potential_sign is the one sign carried by all four potential components.  The
    c_sign / hbar_sign context records which hyperplane the equation lives
    on and is excluded from formal equality of the equation shape.
    """

    charge_sign: int = 1
    potential_sign: int = 1
    mass_sign: int = 1
    c_sign: int = 1
    hbar_sign: int = 1

    def __post_init__(self):
        for name in ("charge_sign", "potential_sign", "mass_sign", "c_sign", "hbar_sign"):
            check_sign(name, getattr(self, name))

    def form(self) -> tuple[int, int, int, int]:
        return (self.charge_sign, self.potential_sign, self.potential_sign, self.mass_sign)

    def terms(self, gs: GammaSet) -> dict[str, ExactMatrix]:
        """Coefficient matrices per formal symbol, all terms moved left."""
        e = self.charge_sign * self.potential_sign
        out = {
            "p0": gs.g0, "p1": gs.g1, "p2": gs.g2, "p3": gs.g3,
            "m": ExactMatrix.identity(4).scale(-self.mass_sign),
            "A0": gs.g0.scale(-e),
        }
        for k, g in enumerate((gs.g1, gs.g2, gs.g3), start=1):
            out[f"A{k}"] = g.scale(e)  # gamma^a A_a lowers the index
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
        charge_sign=couplings.pop(), mass_sign=mass_sign,
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
    result reports it as the charge with a unit potential sign.
    """
    if potential_rule not in POTENTIAL_RULES:
        raise ValueError(
            f"potential_rule must be one of {POTENTIAL_RULES}, got {potential_rule!r}"
        )
    terms = eq.terms(gs)
    terms = _chain_step_conjugate_transpose(terms, gs)
    u = conjugation_matrix(gs)
    terms = {sym: u @ x @ u for sym, x in terms.items()}  # u is self-inverse
    out = _extract_record(terms, gs, context=(-eq.c_sign, -eq.hbar_sign))
    if potential_rule == FLIPPED_POTENTIAL:
        # rewrite in terms of the negated potential components: the coupling
        # sign folds back and the record keeps a unit potential sign
        out = replace(out, charge_sign=-out.charge_sign)
    return out
