"""Exact measures, conditional entropy, and the bound machinery.

Measures carry exact rational weights with the base marginal built in, so
disintegration, pushforward, and invariance are equality tests.  Conditional
entropy against a finite atom algebra is the exact finite formula; the
module's bound checks wire entropies to the combinatorial counts.
"""

import math
from fractions import Fraction

from rdstail import (
    FiberedMeasure,
    SigmaAlgebra,
    conditional_entropy,
    containment_entropy_bound_check,
    disintegrate,
    entropy_count_bound_check,
    fiber_sigma,
    filtration_limit_check,
    point_partition,
    RandomPartition,
    RandomSet,
    sigma_join,
    state_sigma,
    swap_system,
    trivial_cover,
)

swap = swap_system()
uniform = FiberedMeasure.uniform(swap)
points = point_partition(swap)

print("disintegration of the uniform measure:", disintegrate(uniform, swap))

print("\nconditional entropies of the singleton partition:")
print("  given the trivial algebra    :", conditional_entropy(uniform, points, SigmaAlgebra(trivial_cover(swap))))
print("  given the base-point algebra :", conditional_entropy(uniform, points, fiber_sigma(swap)), "= log 2")
print("  given the full state algebra :", conditional_entropy(uniform, points, state_sigma(swap)))

two = RandomPartition((
    RandomSet((frozenset({"a"}), frozenset({"c"}))),
    RandomSet((frozenset({"b"}), frozenset({"d"}))),
))
chk = entropy_count_bound_check(uniform, points, two, swap)
print("\nentropy vs integrated log count:")
print(f"  H = {chk.left:.6f} <= {chk.right:.6f} = integral of log N  (slack {chk.slack:.6f})")

res = containment_entropy_bound_check(uniform, points, two, Fraction(1, 8))
print("\ncontainment bound (radius 1/8, two target cells):")
print(f"  achieved mismatch mass {res.witness.best_sum}, entropy {res.entropy:.6f}")
print(f"  bound {res.bound:.6f}  (sign-variant form would read {res.bound_plus_variant:.6f})")

chain = (
    SigmaAlgebra(trivial_cover(swap)),
    sigma_join(SigmaAlgebra(trivial_cover(swap)), fiber_sigma(swap)),
    state_sigma(swap),
)
out = filtration_limit_check(uniform, points, chain, state_sigma(swap))
print("\nentropies along a refining chain decrease to the target value:")
print("  ", [round(h, 6) for h in out.entropies], "->", out.target_entropy)
print("  log 4 =", math.log(4), "at the trivial stage (four equally likely states)")
