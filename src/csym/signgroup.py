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

from .waves import check_sign

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


def generate_g8() -> dict[str, Signs]:
    """Close {E} under the generators' sign triples; the order is counted.

    Returns each element's sign triple keyed by the word that first reaches
    it, so the elements read E, T, P, Q, TP, TQ, PQ, TPQ.
    """
    names = {(1, 1, 1): "E"}
    frontier = [(1, 1, 1)]
    for signs in frontier:  # grows while it is walked: breadth first
        for g, g_signs in GENERATORS.items():
            prod = _times(signs, g_signs)
            if prod not in names:
                names[prod] = names[signs].removeprefix("E") + g
                frontier.append(prod)
    return {n: s for s, n in names.items()}


@dataclass(frozen=True)
class GroupStructure:
    element_orders: dict[str, int]
    is_abelian: bool
    is_cyclic: bool
    all_involutions: bool


def classify_group(elements: dict[str, Signs]) -> GroupStructure:
    """Element orders plus the cyclic / elementary-abelian verdicts, on the
    elements' sign triples."""
    orders = {}
    for name, signs in elements.items():
        k, cur = 1, signs
        while cur != (1, 1, 1):
            cur = _times(cur, signs)
            k += 1
        orders[name] = k
    triples = elements.values()
    abelian = all(_times(a, b) == _times(b, a) for a in triples for b in triples)
    cyclic = any(k == len(elements) for k in orders.values())
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
        if (len(self.arg_sig), len(self.comp_signs), self.charge_flip.__class__) != (3, 16, bool):
            raise ValueError("operator needs 3 arg_sig, 16 comp_signs and a bool charge_flip, got "
                             f"{len(self.arg_sig)}, {len(self.comp_signs)}, {self.charge_flip!r}")
        entries = self.arg_sig + self.comp_signs  # two set tests; a failure is named below
        if not ({1, -1}.issuperset(entries) and {int}.issuperset(map(type, entries))):
            for k, sign in enumerate(entries):
                check_sign(f"arg_sig[{k}]" if k < 3 else f"comp_signs[{k - 3}]", sign)
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


def verify_relations() -> dict[str, bool]:
    """Whether each tabulated composition relation of the six operators holds, in order."""
    ops = build_field_operators()
    holds = {f"{n}^2 = E": ops[n].compose(ops[n]) == IDENTITY for n in _SIX}
    p1p2 = ops["P1"].compose(ops["P2"])
    t1t2 = ops["T1"].compose(ops["T2"])
    q1q2 = ops["Q1"].compose(ops["Q2"])
    holds["P1P2 = T1T2"] = p1p2 == t1t2
    holds["T1T2 = Q1Q2"] = t1t2 == q1q2
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
        holds[f"[{a1}{a2}, {b1}{b2}] = 0"] = left.compose(right) == right.compose(left)
    return holds


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
