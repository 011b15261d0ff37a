"""Invariant measures without limits: cycle structure does the work.

The skew map is a function on finitely many states, so Cesaro averages have
exact limits (mass spreads uniformly over terminal cycles), the invariant
measures form a polytope whose vertices are computed exactly, and the
empirical pair constructions land on the diagonal with certified zero
conditioned entropy.
"""

from fractions import Fraction

from rdstail import (
    FiberedMeasure,
    bowen_ball,
    cesaro_limit,
    cycle_system,
    diagonal_measure,
    extend_with_tags,
    hull_certificate,
    invariance_defect,
    lift_invariant,
    point_partition,
    separated_empirical,
    swap_system,
    trivial_cover,
    vertex_enumeration,
)

swap = swap_system()
loop = cycle_system()

nu = FiberedMeasure.uniform(swap)
limit = cesaro_limit(nu, swap)
print("Cesaro projection of the uniform measure:")
for w in range(swap.size):
    print(f"  base point {w}: {dict(limit.weights[w])}")
print("invariance defect:", invariance_defect(limit, swap))

poly = vertex_enumeration(swap)
print("\nvertices of the invariant polytope (swap system):", len(poly.vertices))
print("  the unique vertex rides the 2-cycle:", dict(poly.vertices[0].weights[0]), dict(poly.vertices[0].weights[1]))
print("hull certificate of the projected measure:", hull_certificate(poly, limit))

pi = extend_with_tags(swap, tags=2, rotate=True)
lifted = lift_invariant(pi, poly.vertices[0])
print("\nlift along a rotating-tag extension keeps both certificates exact:")
print("  defect:", invariance_defect(lifted, pi.source))

print("\nBowen balls on the discrete metric (strict radii decide):")
print("  radius 2, one step :", sorted(bowen_ball(swap, 0, 'a', 1, Fraction(2))))
print("  radius 1, two steps:", sorted(bowen_ball(swap, 0, 'a', 2, Fraction(1))))

se = separated_empirical(swap, point_partition(swap), trivial_cover(swap), n=2, delta=Fraction(1, 2))
print("\nseparated empirical construction:")
print("  separated points per fiber:", [len(s) for s in se.separated])
print("  counts they must dominate :", list(se.counts))
print("  radius gate passed:", se.lebesgue_ok, " support mass:", se.support_mass_mu_n)

diag = diagonal_measure(loop, point_partition(loop), point_partition(loop), n=2, delta=Fraction(1), entropy_depth=4)
print("\ndiagonal measure on the four-cycle:")
print("  weights:", dict(diag.measure.weights[0]))
print("  supported on the diagonal:", diag.support_diagonal,
      " conditioned sequence:", diag.entropy.values)
