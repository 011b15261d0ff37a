"""Tour of the basic objects: driven bundle systems, derived systems, and
random covers.

The running example is a two-site base that swaps its points each step, with
fibers {a,b} and {c,d}.  The first fiber map collapses both points onto c;
the return map sends c back to a.  Everything downstream (counts, entropies,
invariant measures) is built from these pieces.
"""

from rdstail import (
    pair_system,
    point_partition,
    product_system,
    skew_iterate,
    swap_system,
    trivial_cover,
    validate_cover,
    validate_system,
)

swap = swap_system()
print("validation report (empty means valid):", validate_system(swap))

print("\norbit of (0, a):")
state = (0, "a")
for n in range(5):
    print(f"  step {n}: {skew_iterate(swap, state, n)}")

prod = product_system(swap, swap)
print("\nproduct system fiber sizes:", [len(f) for f in prod.system.fibers])
print("one joint step:", skew_iterate(prod.system, (0, ("a", "b")), 1))

pair = pair_system(swap)
print("pair system fiber sizes:", [len(f) for f in pair.system.fibers])
print("the diagonal is forward-invariant:",
      skew_iterate(pair.system, (0, ("a", "a")), 1))

projections = {"left": pair.to_left, "right": pair.to_right}
print("projection validity:", {k: v.validate() == [] for k, v in projections.items()})

points = point_partition(swap)
print("\nsingleton partition sections at base point 0:", sorted(map(sorted, points.sections(0))))
print("cover validation:", validate_cover(points, swap))
print("trivial cover:", [sorted(s) for s in trivial_cover(swap).sections(0)])
