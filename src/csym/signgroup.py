"""The order-8 group of 5x5 sign matrices and the 16 field-function symmetries.

The group acts on the extended event space (x0, x, c): one generator flips
the time coordinate, one flips the three space coordinates, and one flips
the sign of the speed of light.  Acting on the 16-component electromagnetic
field function column(0, E, 0, H, rho, J, phi, A), the six named operators
T1, T2, P1, P2, Q1, Q2 generate exactly 16 distinct symmetries; their
composition algebra is verified here by exhaustive exact computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .exact import ExactMatrix

GENERATOR_ORDER = ("T", "P", "Q")

#: index layout of the 16-component field function column(0, E, 0, H, rho, J, phi, A)
COMPONENT_NAMES = (
    "zero1", "E1", "E2", "E3",
    "zero2", "H1", "H2", "H3",
    "rho", "J1", "J2", "J3",
    "phi", "A1", "A2", "A3",
)
ZERO_SLOTS = (0, 4)
PHYSICAL_SLOTS = tuple(i for i in range(16) if i not in ZERO_SLOTS)

#: block -> component indices, for building sign vectors from per-block signs
BLOCKS = {
    "E": (1, 2, 3),
    "H": (5, 6, 7),
    "rho": (8,),
    "J": (9, 10, 11),
    "phi": (12,),
    "A": (13, 14, 15),
}


def alpha_matrices() -> dict[str, ExactMatrix]:
    """The four diagonal 5x5 sign matrices acting on (x0, x, c).

    Each generator is an involution and all pairs commute; both facts are
    verified exactly at construction.
    """
    mats = {
        "E": ExactMatrix.diagonal([1, 1, 1, 1, 1]),
        "T": ExactMatrix.diagonal([-1, 1, 1, 1, 1]),
        "P": ExactMatrix.diagonal([1, -1, -1, -1, 1]),
        "Q": ExactMatrix.diagonal([1, 1, 1, 1, -1]),
    }
    ident = ExactMatrix.identity(5)
    for name, m in mats.items():
        if m @ m != ident:
            raise AssertionError(f"generator {name} is not an involution")
    for a in mats.values():
        for b in mats.values():
            if a @ b != b @ a:
                raise AssertionError("generators do not commute")
    return mats


@dataclass(frozen=True)
class GroupTable:
    """A finite group of named matrices with an explicit composition map."""

    elements: dict[str, ExactMatrix]
    compose: dict[tuple[str, str], str]
    identity: str = "E"

    @property
    def order(self) -> int:
        return len(self.elements)


def _canonical_name(bits: tuple[int, int, int]) -> str:
    name = "".join(g for g, b in zip(GENERATOR_ORDER, bits) if b)
    return name or "E"


def generate_g8() -> GroupTable:
    """Close {E, T, P, Q} under the matrix product; exactly 8 elements."""
    mats = alpha_matrices()
    elements: dict[str, ExactMatrix] = {}
    for bits in product((0, 1), repeat=3):
        m = ExactMatrix.identity(5)
        for g, b in zip(GENERATOR_ORDER, bits):
            if b:
                m = m @ mats[g]
        name = _canonical_name(bits)
        if any(m == other for other in elements.values()):
            raise AssertionError(f"duplicate group element for {name}")
        elements[name] = m
    compose = {}
    for na, ma in elements.items():
        for nb, mb in elements.items():
            prod = ma @ mb
            matches = [n for n, m in elements.items() if m == prod]
            if len(matches) != 1:
                raise AssertionError(f"product {na}*{nb} not closed in the table")
            compose[(na, nb)] = matches[0]
    return GroupTable(elements=elements, compose=compose)


@dataclass(frozen=True)
class GroupStructure:
    order: int
    element_orders: dict[str, int]
    is_abelian: bool
    is_cyclic: bool
    all_involutions: bool


def classify_group(table: GroupTable) -> GroupStructure:
    """Element orders plus the cyclic / elementary-abelian verdicts."""
    orders = {}
    for name in table.elements:
        k, cur = 1, name
        while cur != table.identity:
            cur = table.compose[(cur, name)]
            k += 1
        orders[name] = k
    abelian = all(
        table.compose[(a, b)] == table.compose[(b, a)]
        for a in table.elements
        for b in table.elements
    )
    cyclic = any(k == table.order for k in orders.values())
    involutions = all(k <= 2 for k in orders.values())
    return GroupStructure(
        order=table.order,
        element_orders=orders,
        is_abelian=abelian,
        is_cyclic=cyclic,
        all_involutions=involutions,
    )


@dataclass(frozen=True)
class FieldOperator:
    """A discrete transformation of the 16-component field function.

    arg_sig holds the signs applied to (x0, x, c) in the argument,
    comp_signs the per-component sign factors, and charge_flip whether the
    charge label e flips to -e.  Composition multiplies signs componentwise
    and xors the charge flip, so every operator is its own inverse.
    """

    name: str
    arg_sig: tuple[int, int, int]
    comp_signs: tuple[int, ...]
    charge_flip: bool

    def __post_init__(self):
        if len(self.comp_signs) != 16:
            raise ValueError(f"comp_signs must have 16 entries, got {len(self.comp_signs)}")
        if any(s not in (-1, 1) for s in self.comp_signs + self.arg_sig):
            raise ValueError("signs must be +1 or -1")
        # the two zero slots carry no information; canonicalize them to +
        signs = list(self.comp_signs)
        for z in ZERO_SLOTS:
            signs[z] = 1
        object.__setattr__(self, "comp_signs", tuple(signs))

    def signature(self) -> tuple:
        return (self.arg_sig, self.comp_signs, self.charge_flip)

    def compose(self, other: "FieldOperator") -> "FieldOperator":
        return FieldOperator(
            name=f"{self.name}*{other.name}",
            arg_sig=tuple(a * b for a, b in zip(self.arg_sig, other.arg_sig)),
            comp_signs=tuple(a * b for a, b in zip(self.comp_signs, other.comp_signs)),
            charge_flip=self.charge_flip ^ other.charge_flip,
        )

    def same_action(self, other: "FieldOperator") -> bool:
        return self.signature() == other.signature()

    def is_identity(self) -> bool:
        return (
            self.arg_sig == (1, 1, 1)
            and all(s == 1 for s in self.comp_signs)
            and not self.charge_flip
        )

    def as_matrix(self) -> ExactMatrix:
        """The component action as a diagonal 16x16 sign matrix."""
        return ExactMatrix.diagonal(self.comp_signs)

    def apply(self, phi: list) -> list:
        """Apply the component signs to a 16-entry field column."""
        if len(phi) != 16:
            raise ValueError(f"field column must have 16 entries, got {len(phi)}")
        return [s * v for s, v in zip(self.comp_signs, phi)]


def _from_blocks(name, arg_sig, block_signs, charge_flip) -> FieldOperator:
    signs = [1] * 16
    for block, sign in block_signs.items():
        for idx in BLOCKS[block]:
            signs[idx] = sign
    return FieldOperator(name, arg_sig, tuple(signs), charge_flip)


def build_field_operators() -> dict[str, FieldOperator]:
    """The identity and the six named operators, with their tabulated signs."""
    ops = {
        "E": _from_blocks(
            "E", (1, 1, 1), {b: 1 for b in BLOCKS}, False
        ),
        "T1": _from_blocks(
            "T1", (-1, 1, 1),
            {"E": 1, "H": -1, "rho": 1, "J": -1, "phi": 1, "A": -1}, False,
        ),
        "T2": _from_blocks(
            "T2", (-1, 1, 1),
            {"E": -1, "H": 1, "rho": -1, "J": 1, "phi": -1, "A": 1}, True,
        ),
        "P1": _from_blocks(
            "P1", (1, -1, 1),
            {"E": -1, "H": 1, "rho": 1, "J": -1, "phi": 1, "A": -1}, False,
        ),
        "P2": _from_blocks(
            "P2", (1, -1, 1),
            {"E": 1, "H": -1, "rho": -1, "J": 1, "phi": -1, "A": 1}, True,
        ),
        "Q1": _from_blocks(
            "Q1", (1, 1, -1),
            {b: -1 for b in BLOCKS}, True,
        ),
        "Q2": _from_blocks(
            "Q2", (1, 1, -1),
            {b: 1 for b in BLOCKS}, False,
        ),
    }
    return ops


#: the sixteen canonical symmetry names, in the published listing order
CANONICAL_SIXTEEN = (
    "E", "P1", "P2", "T1", "T2", "Q1", "Q2",
    "P1T1", "P1T2", "P1Q1", "P1Q2", "T1Q1", "T1Q2",
    "Q1Q2", "P1T1Q1", "P1T1Q2",
)

_SIX = ("P1", "P2", "T1", "T2", "Q1", "Q2")


def _product_of(ops: dict[str, FieldOperator], names: tuple[str, ...]) -> FieldOperator:
    out = ops["E"]
    for n in names:
        out = out.compose(ops[n])
    return out


def _split_name(name: str) -> tuple[str, ...]:
    if name == "E":
        return ()
    return tuple(name[i : i + 2] for i in range(0, len(name), 2))


def canonical_operators() -> dict[str, FieldOperator]:
    """The sixteen distinct operators keyed by their canonical names."""
    ops = build_field_operators()
    out = {}
    for name in CANONICAL_SIXTEEN:
        op = _product_of(ops, _split_name(name))
        out[name] = FieldOperator(name, op.arg_sig, op.comp_signs, op.charge_flip)
    return out


def classical_conjugation_operator() -> FieldOperator:
    """The composite Q1 Q2: flips all 14 physical components and the charge."""
    return canonical_operators()["Q1Q2"]


@dataclass(frozen=True)
class RelationReport:
    name: str
    holds: bool


def verify_relations() -> list[RelationReport]:
    """Check the tabulated composition relations among the six operators."""
    ops = build_field_operators()
    reports = []
    for n in _SIX:
        reports.append(
            RelationReport(f"{n}^2 = E", ops[n].compose(ops[n]).is_identity())
        )
    p1p2 = ops["P1"].compose(ops["P2"])
    t1t2 = ops["T1"].compose(ops["T2"])
    q1q2 = ops["Q1"].compose(ops["Q2"])
    reports.append(RelationReport("P1P2 = T1T2", p1p2.same_action(t1t2)))
    reports.append(RelationReport("T1T2 = Q1Q2", t1t2.same_action(q1q2)))
    bracket_pairs = [
        (("P1", "T1"), ("P2", "T2")),
        (("P1", "Q1"), ("P2", "Q2")),
        (("T1", "Q1"), ("T2", "Q2")),
        (("P1", "T2"), ("P2", "T1")),
        (("P1", "Q2"), ("P2", "Q1")),
        (("T1", "Q2"), ("T2", "Q1")),
    ]
    for (a1, a2), (b1, b2) in bracket_pairs:
        left = ops[a1].compose(ops[a2])
        right = ops[b1].compose(ops[b2])
        holds = left.compose(right).same_action(right.compose(left))
        reports.append(RelationReport(f"[{a1}{a2}, {b1}{b2}] = 0", holds))
    return reports


def enumerate_distinct() -> tuple[dict[str, FieldOperator], dict[frozenset, str]]:
    """All 2^6 subset products collapsed onto the sixteen canonical operators.

    Returns the canonical operators and a map from each generator subset to
    the canonical name its product equals.
    """
    ops = build_field_operators()
    canon = canonical_operators()
    name_map: dict[frozenset, str] = {}
    for bits in product((0, 1), repeat=6):
        subset = tuple(n for n, b in zip(_SIX, bits) if b)
        prod = _product_of(ops, subset)
        matches = [name for name, c in canon.items() if c.same_action(prod)]
        if len(matches) != 1:
            raise AssertionError(
                f"product {'*'.join(subset) or 'E'} matched {len(matches)} canonical operators"
            )
        name_map[frozenset(subset) if subset else frozenset({"E"})] = matches[0]
    distinct = {sig: None for sig in (canon[n].signature() for n in canon)}
    if len(distinct) != 16:
        raise AssertionError(f"canonical list has {len(distinct)} distinct actions")
    return canon, name_map


def reduce_product(names: tuple[str, ...]) -> str:
    """Canonical name of an arbitrary product of the six named operators."""
    ops = build_field_operators()
    canon = canonical_operators()
    prod = _product_of(ops, names)
    for name, c in canon.items():
        if c.same_action(prod):
            return name
    raise AssertionError("product fell outside the sixteen canonical operators")
