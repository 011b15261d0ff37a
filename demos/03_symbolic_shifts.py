"""Positive entropy from driven subshifts.

Explicit finite fibers force every asymptotic rate to zero, so the positive
ground truths come from symbol sequences: fibers are admissible one-sided
sequences of a 0/1 transition matrix (one matrix per base point), dynamics is
the left shift, and covers are cylinder families on initial coordinates.
Counts reduce to exact big-integer vector walks along the base orbit.
"""

import math
from fractions import Fraction

from rdstail import (
    CylinderCoverSpec,
    DrivingSystem,
    RandomSFT,
    SFTComponent,
    admissible_word_count,
    sft_tail_sequence,
)

still = DrivingSystem((Fraction(1),), (0,))
full2 = SFTComponent(2, (((1, 1), (1, 1)),))
golden = SFTComponent(2, (((1, 1), (1, 0)),))  # no 1 may follow a 1

print("golden-mean word counts follow the two-term recurrence:")
gshift = RandomSFT(still, (golden,))
print("  lengths 1..8:", [admissible_word_count(gshift, 0, 0, n) for n in range(1, 9)])

print("\ntwo independent full 2-shifts, conditioning resolves one component:")
pairshift = RandomSFT(still, (full2, full2))
est = sft_tail_sequence(
    pairshift,
    CylinderCoverSpec(frozenset({0, 1}), 1),
    CylinderCoverSpec(frozenset({0}), 1),
    12,
)
print("  every ratio equals log 2 =", math.log(2))
print("  ratios:", [round(r, 9) for r in est.ratios[:6]], "...")

print("\ngolden-mean growth rate against the trivial conditioning:")
gest = sft_tail_sequence(
    gshift, CylinderCoverSpec(frozenset({0}), 1), CylinderCoverSpec(frozenset(), 1), 20
)
phi = (1 + math.sqrt(5)) / 2
print(f"  a_20/20 = {gest.ratios[19]:.6f}, golden-ratio rate log(phi) = {math.log(phi):.6f}")

print("\nresolving exactly what is conditioned leaves nothing to count:")
spec = CylinderCoverSpec(frozenset({0}), 1)
print("  terms:", sft_tail_sequence(gshift, spec, spec, 8).values)
