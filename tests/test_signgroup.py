"""The coordinate sign group and the 16 field-function symmetries."""

import re
from itertools import product

import pytest

from csym.signgroup import (
    BLOCKS,
    CANONICAL_SIXTEEN,
    GENERATORS,
    IDENTITY,
    PHYSICAL_SLOTS,
    FieldOperator,
    build_field_operators,
    classical_conjugation_operator,
    classify_group,
    enumerate_distinct,
    generate_g8,
    reduce_product,
    verify_relations,
)


def _mul(a, b):
    return tuple(x * y for x, y in zip(a, b))


class TestSignMatrixGroup:
    def test_generators(self):
        # each generator flips exactly one of (x0, x, c), a different one each
        assert GENERATORS == {"T": (-1, 1, 1), "P": (1, -1, 1), "Q": (1, 1, -1)}
        elements = generate_g8()
        for name, signs in GENERATORS.items():
            assert elements[name] == signs
            assert _mul(signs, signs) == elements["E"] == (1, 1, 1)

    def test_operators_take_their_generators_signs(self):
        for name, op in build_field_operators().items():
            assert op.arg_sig == GENERATORS.get(name[0], (1, 1, 1))

    def test_order_counts_the_closure(self, monkeypatch):
        # P given T's signs: the closure of E, T and Q has 4 elements, not 8
        monkeypatch.setitem(GENERATORS, "P", GENERATORS["T"])
        elements = generate_g8()
        assert len(elements) == 4
        assert set(elements) == {"E", "T", "Q", "TQ"}

    def test_order_eight(self):
        elements = generate_g8()
        assert len(elements) == 8
        assert list(elements) == ["E", "T", "P", "Q", "TP", "TQ", "PQ", "TPQ"]

    def test_structure_by_exhaustion(self):
        # independent of classify_group: the triples are all of {+1, -1}^3,
        # each squares to the identity, and one product is read off by hand
        elements = generate_g8()
        assert sorted(elements.values()) == sorted(product((1, -1), repeat=3))
        for name, signs in elements.items():
            if name != "E":
                assert _mul(signs, signs) == (1, 1, 1)
        assert _mul(elements["TP"], elements["PQ"]) == elements["TQ"]

    def test_classify(self):
        s = classify_group(generate_g8())
        assert s.is_abelian
        assert not s.is_cyclic
        assert s.all_involutions
        assert sorted(s.element_orders.values()) == [1] + [2] * 7

    def test_trivial_group_is_cyclic(self):
        assert classify_group({"E": (1, 1, 1)}).is_cyclic

    def test_composition_example(self):
        # (TP)(PQ) = TQ since P squares away
        elements = generate_g8()
        assert elements["TP"] == (-1, -1, 1) and elements["PQ"] == (1, -1, -1)
        assert _mul(elements["TP"], elements["PQ"]) == elements["TQ"] == (-1, 1, -1)


class TestFieldOperators:
    def test_defining_rows(self):
        ops = build_field_operators()
        t1 = ops["T1"]
        assert t1.arg_sig == (-1, 1, 1) and not t1.charge_flip
        for blk, sign in (("E", 1), ("H", -1), ("rho", 1), ("J", -1), ("phi", 1), ("A", -1)):
            assert all(t1.comp_signs[i] == sign for i in BLOCKS[blk])
        q2 = ops["Q2"]
        assert q2.arg_sig == (1, 1, -1) and not q2.charge_flip
        assert all(s == 1 for s in q2.comp_signs)
        q1 = ops["Q1"]
        assert q1.charge_flip
        assert all(q1.comp_signs[i] == -1 for i in PHYSICAL_SLOTS)
        assert ops["E"] == IDENTITY

    def test_zero_slots_canonicalized(self):
        signs = [1] * 16
        signs[0] = -1
        signs[4] = -1
        op = FieldOperator("probe", (1, 1, 1), tuple(signs), False)
        assert op.comp_signs[0] == 1 and op.comp_signs[4] == 1

    def test_every_operator_self_inverse(self):
        for op in build_field_operators().values():
            assert op.compose(op) == IDENTITY

    def test_relations(self):
        assert all(verify_relations().values())

    def test_pair_products_equal(self):
        ops = build_field_operators()
        p1p2 = ops["P1"].compose(ops["P2"])
        t1t2 = ops["T1"].compose(ops["T2"])
        q1q2 = ops["Q1"].compose(ops["Q2"])
        assert p1p2 == t1t2 and t1t2 == q1q2

    def test_sixteen_distinct(self):
        canon, name_map = enumerate_distinct()
        assert len(canon) == 16
        assert set(canon) == set(CANONICAL_SIXTEEN)
        assert len(set(canon.values())) == 16
        assert len(name_map) == 64
        assert set(name_map.values()) <= set(CANONICAL_SIXTEEN)

    def test_brute_force_count(self):
        # independent exhaustive count over raw sign data
        ops = build_field_operators()
        six = ["P1", "P2", "T1", "T2", "Q1", "Q2"]
        seen = set()
        for bits in product((0, 1), repeat=6):
            op = ops["E"]
            for b, n in zip(bits, six):
                if b:
                    op = op.compose(ops[n])
            seen.add((op.arg_sig, op.comp_signs, op.charge_flip))
        assert len(seen) == 16

    def test_worked_collapses(self):
        assert reduce_product(("P1", "Q1", "Q2")) == "P2"
        assert reduce_product(("P1", "P2", "T1", "T2")) == "E"
        assert reduce_product(("P1", "P2", "T1", "T2", "Q1", "Q2")) == "Q1Q2"

    def test_composition_commutative(self):
        canon, _ = enumerate_distinct()
        ops = list(canon.values())[:8]
        for a in ops:
            for b in ops:
                assert a.compose(b) == b.compose(a)

    def test_classical_conjugation_composite(self):
        ce = classical_conjugation_operator()
        assert ce.arg_sig == (1, 1, 1)
        assert ce.charge_flip
        assert all(ce.comp_signs[i] == -1 for i in PHYSICAL_SLOTS)

    def test_apply_signs_each_component(self):
        op = build_field_operators()["P1"]
        phi = list(range(16))
        assert op.apply(phi) == [s * v for s, v in zip(op.comp_signs, phi)]
        assert op.apply(phi)[1:4] == [-1, -2, -3]  # P1 negates E
        assert op.apply(phi)[5:8] == [5, 6, 7]  # and keeps H

    def test_apply_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="16"):
            build_field_operators()["P1"].apply([1, 2, 3])

    @pytest.mark.parametrize("arg_sig, comp_signs, flip", [
        ((1, 1), (1,) * 16, False),
        ((1, 1, 1, 1), (1,) * 16, False),
        ((1, 1, 1), (1,) * 15, False),
        ((1, 1, 1), (1,) * 17, True),
        ((1, 1, 1), (1,) * 16, 1),
        ((1, 1, 1), (1,) * 16, 0),
        ((1, 1, 1), (1,) * 16, "yes"),
    ], ids=["arg_sig-2", "arg_sig-4", "comp_signs-15", "comp_signs-17", "flip-1", "flip-0",
            "flip-yes"])
    def test_shape_checked(self, arg_sig, comp_signs, flip):
        """3 argument signs, 16 component signs and a bool charge flip, which compose xors."""
        message = (r"^operator needs 3 arg_sig, 16 comp_signs and a bool charge_flip, "
                   rf"got {len(arg_sig)}, {len(comp_signs)}, {re.escape(repr(flip))}$")
        with pytest.raises(ValueError, match=message):
            FieldOperator("X", arg_sig, comp_signs, flip)
