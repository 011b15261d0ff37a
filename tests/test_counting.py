"""Exact minimal-subcover counting against the exhaustive oracle."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdstail import (
    BudgetExceededError,
    Budgets,
    DomainError,
    RandomCover,
    RandomSet,
    count_profile,
    iterate_cover,
    min_cover_size,
    minimal_subcover,
    point_partition,
    relative_count,
    swap_system,
    trivial_cover,
)
from rdstail import counting
from rdstail.counting import _maximal

SWAP = swap_system()


def brute_force_min_cover(target: int, masks: list[int]) -> int:
    """Oracle: enumerate every subfamily."""
    if target == 0:
        return 1
    best = None
    for k in range(1, len(masks) + 1):
        for combo in combinations(masks, k):
            acc = 0
            for m in combo:
                acc |= m
            if acc & target == target:
                return k
    raise AssertionError("not coverable")


def test_empty_target_counts_one():
    assert min_cover_size(0, [0b11]) == 1


def test_single_point():
    assert min_cover_size(0b1, [0b11, 0b1]) == 1


def test_three_pairs_need_two():
    # {a,b,c} covered by {a,b},{b,c},{a,c}: any two suffice, one never does
    assert min_cover_size(0b111, [0b011, 0b110, 0b101]) == 2


def test_uncoverable_raises():
    with pytest.raises(DomainError):
        min_cover_size(0b111, [0b001, 0b010])


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_min_cover_matches_oracle(data):
    npoints = data.draw(st.integers(min_value=1, max_value=10))
    universe = (1 << npoints) - 1
    nmasks = data.draw(st.integers(min_value=1, max_value=8))
    masks = [data.draw(st.integers(min_value=0, max_value=universe)) for _ in range(nmasks)]
    acc = 0
    for m in masks:
        acc |= m
    missing = universe & ~acc
    if missing:
        masks.append(missing)  # guarantee coverability
    target = data.draw(st.integers(min_value=0, max_value=universe))
    assert min_cover_size(target, masks) == brute_force_min_cover(target, masks)


def test_seeded_oracle_batch():
    rng = random.Random(202)
    for _ in range(100):
        npoints = rng.randint(1, 12)
        universe = (1 << npoints) - 1
        masks = [rng.randint(0, universe) for _ in range(rng.randint(1, 8))]
        acc = 0
        for m in masks:
            acc |= m
        if universe & ~acc:
            masks.append(universe & ~acc)
        target = rng.randint(0, universe)
        assert min_cover_size(target, masks) == brute_force_min_cover(target, masks)


def test_minimal_subcover_on_swap():
    pts = point_partition(SWAP)
    whole = trivial_cover(SWAP).elements[0]
    assert minimal_subcover(whole, pts, 0, SWAP) == 2
    empty = RandomSet((frozenset(), frozenset({"c"})))
    assert minimal_subcover(empty, pts, 0, SWAP) == 1


def test_relative_count_cases():
    pts = point_partition(SWAP)
    triv = trivial_cover(SWAP)
    assert relative_count(pts, triv, 0, SWAP) == 2
    assert relative_count(pts, triv, 1, SWAP) == 2
    # a cover relative to itself never needs more than one element per piece
    assert all(relative_count(pts, pts, w, SWAP) == 1 for w in range(2))


def test_count_profile_on_swap():
    pts = point_partition(SWAP)
    triv = trivial_cover(SWAP)
    one = count_profile(SWAP, pts, triv, 1)
    assert one.per_omega == tuple(relative_count(pts, triv, w, SWAP) for w in range(2))
    two = count_profile(SWAP, pts, triv, 2)
    assert two.per_omega == (2, 2)
    same = count_profile(SWAP, pts, pts, 3)
    assert same.per_omega == (1, 1)


def test_iterate_budget_reports_depth():
    tight = Budgets(cover_elements=3)
    with pytest.raises(BudgetExceededError) as err:
        iterate_cover(point_partition(SWAP), SWAP, 3, tight)
    assert err.value.budget == "cover_elements"
    assert err.value.depth is not None


def test_cover_with_allempty_element_still_counts():
    elems = (
        RandomSet((frozenset({"a", "b"}), frozenset({"c", "d"}))),
        RandomSet((frozenset(), frozenset())),
    )
    cov = RandomCover(elems)
    assert relative_count(cov, cov, 0, SWAP) == 1


def fiber_count_every_target(r_masks, q_masks):
    """Oracle: the per-fiber count with one exact solve per distinct target
    and no greedy skip."""
    masks = _maximal(r_masks)
    return max(min_cover_size(t, masks) for t in set(q_masks))


def _column_pair(rng):
    """Random r and q sections of one fiber: repeated r masks; q targets
    nested in and equal to others, and the empty section; an r family that
    leaves some point uncovered one time in five."""
    universe = (1 << rng.randint(1, 9)) - 1
    r = [rng.randint(0, universe) for _ in range(rng.randint(1, 7))]
    r += rng.choices(r, k=rng.randint(0, 3))
    q = [rng.randint(0, universe) for _ in range(rng.randint(1, 4))]
    q += [t & rng.randint(0, universe) for t in q] + rng.choices(q, k=2) + [0] * rng.randint(0, 1)
    rng.shuffle(q)
    covered = 0
    for m in r:
        covered |= m
    if rng.random() < 0.8:
        r.append(universe & ~covered)
    return r, q


def _count_or_error(count, r, q):
    try:
        return count(r, q)
    except DomainError as exc:
        return str(exc)


def test_fiber_count_matches_every_target_oracle(monkeypatch):
    solves = []

    def recorded(target, masks):
        solves.append((target, min_cover_size(target, masks)))
        return solves[-1][1]

    monkeypatch.setattr(counting, "min_cover_size", recorded)
    rng = random.Random(14)
    errors = 0
    for _ in range(1500):
        r, q = _column_pair(rng)
        want = _count_or_error(fiber_count_every_target, r, q)
        solves.clear()
        assert _count_or_error(counting._fiber_count, r, q) == want, (r, q)
        errors += isinstance(want, str)
        # every exact solve is of a maximal target whose greedy bound could
        # still raise the running maximum
        best = 1
        for target, count in solves:
            assert target in _maximal(q)
            assert counting._greedy(target, _maximal(r)) > best, (r, q)
            best = max(best, count)
    assert 50 < errors < 1000
    # the empty section alone counts one
    assert counting._fiber_count([0b11], [0, 0]) == fiber_count_every_target([0b11], [0, 0]) == 1
