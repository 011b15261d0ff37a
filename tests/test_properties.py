"""Hypothesis-driven laws over randomly generated systems.

Hypothesis supplies seeds; the deterministic scenario generators turn each
seed into a small system with covers, partitions, and measures.  Shrinking a
failing seed reproduces the exact scenario.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from rdstail import (
    Budgets,
    BudgetExceededError,
    conditional_entropy,
    count_profile,
    count_profiles,
    integrated_log_count,
    iterate_cover,
    join,
    power_rule_check,
    pullback,
    relative_count,
    sigma_join,
    SigmaAlgebra,
    trivial_cover,
)
from rdstail.verify import (
    _rng,
    coarsen,
    random_cover,
    random_measure,
    random_partition,
    random_system,
)

TOL = 1e-9
seeds = st.integers(min_value=0, max_value=10**6)


def sections_set(c):
    return {e.sections for e in c.elements}


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_join_laws(seed):
    rng = _rng(seed, 0)
    rds = random_system(rng)
    a, b, c = (random_cover(rng, rds) for _ in range(3))
    assert sections_set(join(a, b)) == sections_set(join(b, a))
    assert sections_set(join(join(a, b), c)) == sections_set(join(a, join(b, c)))
    assert sections_set(join(a, trivial_cover(rds))) == sections_set(
        iterate_cover(a, rds, 1)
    )


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_pullback_is_a_join_homomorphism(seed):
    rng = _rng(seed, 1)
    rds = random_system(rng)
    a, b = random_cover(rng, rds), random_cover(rng, rds)
    i = rng.choice([1, 2])
    left = pullback(join(a, b), rds, i)
    right = join(pullback(a, rds, i), pullback(b, rds, i))
    assert sections_set(left) == sections_set(right)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_count_monotonicity_and_subadditivity(seed):
    rng = _rng(seed, 2)
    rds = random_system(rng)
    r, q = random_cover(rng, rds), random_cover(rng, rds)
    u, v = join(r, random_cover(rng, rds)), coarsen(rng, q)
    for w in range(rds.size):
        assert relative_count(r, q, w, rds) <= relative_count(u, v, w, rds)
    profiles = {n: count_profile(rds, r, q, n).per_omega for n in (1, 2, 3)}
    for w in range(rds.size):
        shifted = rds.base.theta_iterate(w, 1)
        assert profiles[2][w] <= profiles[1][w] * profiles[1][shifted]
        assert profiles[3][w] <= profiles[1][w] * profiles[2][shifted]
    # the one-pass sweeps against the single-depth builds they replace
    assert list(count_profiles(rds, r, q, 4)) == [count_profile(rds, r, q, n) for n in range(1, 5)]
    for n in range(2, 5):
        deeper = join(iterate_cover(r, rds, n - 1), pullback(r, rds, n - 1))
        assert sections_set(iterate_cover(r, rds, n)) == sections_set(deeper)
    tight = Budgets(cover_elements=3)
    swept = _budget_stop(lambda: list(count_profiles(rds, r, q, 6, tight)))
    assert swept == _budget_stop(lambda: [count_profile(rds, r, q, n, tight) for n in range(1, 7)])
    # the stop names the first depth past 1 at which either iterate is too big
    over = [n for n in range(2, 7) if max(len(iterate_cover(c, rds, n)) for c in (r, q)) > 3]
    assert (swept[0] if swept else None) == (over[0] if over else None)


def _budget_stop(run):
    """(depth, message) of the budget stop a run raises, or None."""
    try:
        run()
    except BudgetExceededError as exc:
        return exc.depth, str(exc)
    return None


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_power_rule_property(seed):
    rng = _rng(seed, 3)
    rds = random_system(rng)
    r, q = random_cover(rng, rds), random_cover(rng, rds)
    assert power_rule_check(rds, r, q, m=2, n=2).ok


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_chain_rule_and_count_bound(seed):
    rng = _rng(seed, 4)
    rds = random_system(rng, max_fiber=4)
    mu = random_measure(rng, rds)
    r = random_partition(rng, rds)
    q = random_partition(rng, rds)
    s = SigmaAlgebra(random_partition(rng, rds))
    lhs = conditional_entropy(mu, join(r, q), s)
    rhs = conditional_entropy(mu, r, s) + conditional_entropy(mu, q, sigma_join(SigmaAlgebra(r), s))
    assert abs(lhs - rhs) <= TOL
    # entropy against the trivial conditioning never exceeds log(cell count),
    # and the integrated log count bounds it once the base point is known
    h = conditional_entropy(mu, r, s)
    assert -TOL <= h <= math.log(len(r.elements)) + TOL
    assert integrated_log_count(rds, r, q, 1) >= -TOL
