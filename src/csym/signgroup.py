"""The order-8 coordinate sign group and the 16 field-function symmetries.

The group acts on the extended event space (x0, x, c).  Its generators flip
the time coordinate, the three space coordinates and the sign of the speed
of light; each is written once, as its sign triple in GENERATORS, which both
the group and the field operators' argument signs read.  Acting on the
16-component electromagnetic field function column(0, E, 0, H, rho, J, phi, A),
the six named operators T1, T2, P1, P2, Q1, Q2 generate exactly 16 distinct
symmetries; their composition algebra is verified here by exhaustive exact
computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import compress, product

Signs = tuple[int, int, int]

#: each generator's signs on (x0, x, c): time reversal, space inversion and
#: light-speed inversion
GENERATORS: dict[str, Signs] = {"T": (-1, 1, 1), "P": (1, -1, 1), "Q": (1, 1, -1)}

ZERO_SLOTS = (0, 4)
PHYSICAL_SLOTS = tuple(i for i in range(16) if i not in ZERO_SLOTS)

#: block -> component indices in the index layout of the 16-component field
#: function column(0, E, 0, H, rho, J, phi, A), slots 0 and 4 held at zero;
#: sign vectors are built from per-block signs
BLOCKS = {
    "E": (1, 2, 3),
    "H": (5, 6, 7),
    "rho": (8,),
    "J": (9, 10, 11),
    "phi": (12,),
    "A": (13, 14, 15),
}


def _times(a: Signs, b: Signs) -> Signs:
    return tuple(x * y for x, y in zip(a, b))


@dataclass(frozen=True)
class GroupTable:
    """A finite group of named sign triples with an explicit composition map;
    the identity is named "E"."""

    elements: dict[str, Signs]
    compose: dict[tuple[str, str], str]

    @property
    def order(self) -> int:
        return len(self.elements)


def generate_g8() -> GroupTable:
    """Close {E} under the generators' sign triples; the order is counted.

    Each new element is named by the word that first reaches it, so the
    elements read E, T, P, Q, TP, TQ, PQ, TPQ.
    """
    names = {(1, 1, 1): "E"}
    frontier = [(1, 1, 1)]
    for signs in frontier:  # grows while it is walked: breadth first
        for g, g_signs in GENERATORS.items():
            prod = _times(signs, g_signs)
            if prod not in names:
                names[prod] = names[signs].removeprefix("E") + g
                frontier.append(prod)
    compose = {(names[a], names[b]): names[_times(a, b)] for a in names for b in names}
    return GroupTable(elements={n: s for s, n in names.items()}, compose=compose)


@dataclass(frozen=True)
class GroupStructure:
    element_orders: dict[str, int]
    is_abelian: bool
    is_cyclic: bool
    all_involutions: bool


def classify_group(table: GroupTable) -> GroupStructure:
    """Element orders plus the cyclic / elementary-abelian verdicts."""
    orders = {}
    for name in table.elements:
        k, cur = 1, name
        while cur != "E":
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
    and xors the charge flip, so every operator is its own inverse.  Two
    operators are equal, and hash equal, when they act alike, whatever their
    names.
    """

    name: str = field(compare=False)
    arg_sig: Signs
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

    def compose(self, other: "FieldOperator") -> "FieldOperator":
        return FieldOperator(
            name=f"{self.name}*{other.name}",
            arg_sig=_times(self.arg_sig, other.arg_sig),
            comp_signs=tuple(a * b for a, b in zip(self.comp_signs, other.comp_signs)),
            charge_flip=self.charge_flip ^ other.charge_flip,
        )

    def apply(self, phi: list) -> list:
        """Apply the component signs to a 16-entry field column."""
        if len(phi) != 16:
            raise ValueError(f"field column must have 16 entries, got {len(phi)}")
        return [s * v for s, v in zip(self.comp_signs, phi)]


#: the operator that changes nothing
IDENTITY = FieldOperator("E", (1, 1, 1), (1,) * 16, False)


#: each named operator's per-block component signs and charge flip; its
#: argument signs are those of the generator its name starts with
_OPERATOR_SIGNS = {
    "T1": ({"E": 1, "H": -1, "rho": 1, "J": -1, "phi": 1, "A": -1}, False),
    "T2": ({"E": -1, "H": 1, "rho": -1, "J": 1, "phi": -1, "A": 1}, True),
    "P1": ({"E": -1, "H": 1, "rho": 1, "J": -1, "phi": 1, "A": -1}, False),
    "P2": ({"E": 1, "H": -1, "rho": -1, "J": 1, "phi": -1, "A": 1}, True),
    "Q1": ({b: -1 for b in BLOCKS}, True),
    "Q2": ({b: 1 for b in BLOCKS}, False),
}


def build_field_operators() -> dict[str, FieldOperator]:
    """The identity and the six named operators, with their tabulated signs.

    Each operator's argument signs are its generator's, from GENERATORS.
    """
    ops = {"E": IDENTITY}
    for name, (block_signs, charge_flip) in _OPERATOR_SIGNS.items():
        signs = [1] * 16
        for block, sign in block_signs.items():
            for idx in BLOCKS[block]:
                signs[idx] = sign
        ops[name] = FieldOperator(name, GENERATORS[name[0]], tuple(signs), charge_flip)
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
        out[name] = replace(op, name=name)
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
            RelationReport(f"{n}^2 = E", ops[n].compose(ops[n]) == IDENTITY)
        )
    p1p2 = ops["P1"].compose(ops["P2"])
    t1t2 = ops["T1"].compose(ops["T2"])
    q1q2 = ops["Q1"].compose(ops["Q2"])
    reports.append(RelationReport("P1P2 = T1T2", p1p2 == t1t2))
    reports.append(RelationReport("T1T2 = Q1Q2", t1t2 == q1q2))
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
        holds = left.compose(right) == right.compose(left)
        reports.append(RelationReport(f"[{a1}{a2}, {b1}{b2}] = 0", holds))
    return reports


def enumerate_distinct() -> tuple[dict[str, FieldOperator], dict[frozenset, str | None]]:
    """All 2^6 subset products collapsed onto the sixteen canonical operators.

    Returns the canonical operators and a map from each generator subset to
    the canonical name its product equals, or None where it equals none.
    """
    ops = build_field_operators()
    canon = canonical_operators()
    index = {op: name for name, op in canon.items()}  # equal actions would share a key
    subsets = (tuple(compress(_SIX, bits)) for bits in product((0, 1), repeat=6))
    return canon, {frozenset(s or {"E"}): index.get(_product_of(ops, s)) for s in subsets}


def reduce_product(names: tuple[str, ...]) -> str | None:
    """Canonical name of a product of the six named operators, or None if none matches."""
    index = {op: name for name, op in canonical_operators().items()}
    return index.get(_product_of(build_field_operators(), names))
