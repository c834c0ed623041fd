# The order-8 group of coordinate sign flips and the 16 field symmetries.
#
# Three commuting involutions act on the extended event coordinates
# (x0, x, c): time reversal, space inversion, and inversion of the speed of
# light.  Their closure is an order-8 elementary abelian group.  Lifted to
# the 16-component electromagnetic field function, six named operators
# generate exactly sixteen distinct symmetries.

from csym.signgroup import (
    classify_group,
    enumerate_distinct,
    generate_g8,
    reduce_product,
    verify_relations,
)

table = generate_g8()
structure = classify_group(table)

print("coordinate sign group on (x0, x, c)")
print(f"  order:            {len(table)}")
print(f"  abelian:          {structure.is_abelian}")
print(f"  cyclic:           {structure.is_cyclic}")
print(f"  element orders:   {dict(sorted(structure.element_orders.items()))}")
print()

print("composition relations of the six field operators")
for name, holds in verify_relations().items():
    print(f"  {name:22} {'ok' if holds else 'FAILED'}")
print()

canon, name_map = enumerate_distinct()
print(f"distinct operators from all 64 subset products: {len(canon)}")
print(f"  canonical names: {', '.join(canon)}")
print()

print("worked collapses")
for names in (("P1", "Q1", "Q2"), ("P1", "P2", "T1", "T2"),
              ("P1", "P2", "T1", "T2", "Q1", "Q2")):
    print(f"  {'*'.join(names):22} = {reduce_product(names)}")
