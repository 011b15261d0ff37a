"""Fast self-check of the benchmark's own references against hand values.

    python3 bench/selfcheck.py

``run.py`` runs it before any pass.  It needs no ``rdstail``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import oracles

SWAP = {
    "prob": [Fraction(1, 2), Fraction(1, 2)],
    "theta": [1, 0],
    "fibers": [["a", "b"], ["c", "d"]],
    "maps": [{"a": "c", "b": "c"}, {"c": "a", "d": "b"}],
}
SWAP_POINTS = [[["a"], []], [["b"], []], [[], ["c"]], [[], ["d"]]]
SWAP_WHOLE = [[["a", "b"], ["c", "d"]]]

CYCLE4 = {
    "prob": [Fraction(1)],
    "theta": [0],
    "fibers": [["p0", "p1", "p2", "p3"]],
    "maps": [{f"p{i}": f"p{(i + 1) % 4}" for i in range(4)}],
}


def run() -> list[str]:
    problems = []
    counts = oracles.brute_count_profile(SWAP, SWAP_POINTS, SWAP_WHOLE, 1)
    if counts != (2, 2) or not oracles.close(oracles.integrate(SWAP["prob"], counts), math.log(2)):
        problems.append(f"swap system: a_1 should be log 2 from counts (2, 2), got {counts}")
    uniform = [{p: Fraction(1, 4) for p in CYCLE4["fibers"][0]}]
    point_mass = [{"p0": Fraction(1)}]
    if oracles.vertex_count(CYCLE4) != 1:
        problems.append("cycle-4: the polytope should have one vertex")
    if not oracles.same_measure(oracles.cesaro(CYCLE4, point_mass), uniform):
        problems.append("cycle-4: the cycle average of a point mass should be uniform 1/4")
    if not (oracles.is_invariant(CYCLE4, uniform) and oracles.has_marginal(CYCLE4, uniform)):
        problems.append("cycle-4: uniform 1/4 should be invariant with marginal 1")
    if oracles.is_invariant(CYCLE4, point_mass):
        problems.append("cycle-4: a point mass should not be invariant")
    if oracles.brute_min_cover(frozenset({1, 2, 3}), {frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})}) != 2:
        problems.append("three pairs should need two sets to cover a triangle")
    golden = [[[1, 1], [1, 0]]]
    fib = oracles.fibonacci_list(14)
    if [oracles.word_count(golden, [0], 0, n) for n in range(1, 11)] != fib[3:13]:
        problems.append("golden-mean word counts should be 2, 3, 5, 8, ...")
    if oracles.extension_count(golden, [0], 0, 3) != 5:
        problems.append("golden mean: symbol 0 should have 5 three-step continuations")
    if not oracles.close(oracles.entropy_given_factor([{"a": Fraction(1, 2), "b": Fraction(1, 2)}], lambda x: 0), math.log(2)):
        problems.append("two equal states in one atom should give entropy log 2")
    return problems


if __name__ == "__main__":
    found = run()
    for p in found:
        print(f"self-check failed: {p}")
    print("self-check passed" if not found else f"{len(found)} self-check failure(s)")
    sys.exit(1 if found else 0)
