"""Differential test of the bitmask join loop against the frozenset fold it
replaced.

``pullback_by_walk`` is the per-point orbit walk that pulled covers back
before the mask pullbacks, and ``iterate_covers_by_joins`` is the fold over
it: depth n+1 joins depth n with the n-step walk pullback of the cover, so
the oracle never calls the mask engine.  Over random systems (non-bijective
fiber maps, empty sections, covers and partitions, labels) the mask loop
must give equal pullbacks, equal covers, equal counts, the same budget stops
and the same domain errors.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdstail import (
    Budgets,
    BudgetExceededError,
    DomainError,
    RandomCover,
    RandomPartition,
    RandomSet,
    IncompatibleSystemsError,
    count_profile,
    count_profiles,
    iterate_cover,
    iterate_covers,
    join,
    pullback,
    relative_count,
)
from rdstail.budgets import DEFAULTS
from rdstail.covers import _assemble
from rdstail.verify import _rng, coarsen, random_cover, random_partition, random_system

seeds = st.integers(min_value=0, max_value=10**6)


def pullback_by_walk(q, rds, i):
    """Oracle: the i-step pullback of ``q`` by walking every point's orbit."""
    if i < 0:
        raise ValueError("pullback steps must be nonnegative")
    if q.size != rds.size:
        raise IncompatibleSystemsError("cover does not span the system base")
    if i == 0:
        return q
    # i-step image of every point and base point, computed once
    targets = [rds.base.theta_iterate(w, i) for w in range(rds.size)]
    forward = []
    for w in range(rds.size):
        fw = {}
        for x in rds.fibers[w]:
            y, v = x, w
            for _ in range(i):
                y = rds.apply(v, y)
                v = rds.base.theta[v]
            fw[x] = y
        forward.append(fw)
    elems = (
        tuple(
            frozenset(x for x in rds.fibers[w] if forward[w][x] in e.sections[targets[w]])
            for w in range(rds.size)
        )
        for e in q.elements
    )
    return _assemble(elems, partition=isinstance(q, RandomPartition), label=q.label)


def iterate_covers_by_joins(q, rds, n_max, budgets=DEFAULTS):
    """Oracle: the depth-1..n_max refinements of ``q`` by frozenset joins."""
    if n_max < 1:
        return
    out = _assemble((e.sections for e in q.elements), partition=isinstance(q, RandomPartition), label=q.label)
    yield out
    for i in range(1, n_max):
        out = join(out, pullback_by_walk(q, rds, i))
        if len(out) > budgets.cover_elements:
            raise BudgetExceededError("cover_elements", budgets.cover_elements, len(out), depth=i + 1)
        yield out


def counts_by_joins(rds, r, q, n_max, budgets=DEFAULTS):
    """Oracle: per-depth ``relative_count`` of the frozenset iterates."""
    q_iter = iterate_covers_by_joins(q, rds, n_max, budgets)
    for rn in iterate_covers_by_joins(r, rds, n_max, budgets):
        qn = next(q_iter)
        yield tuple(relative_count(rn, qn, w, rds) for w in range(rds.size))


def _outcome(run):
    """(results, (depth, observed, limit) of the budget stop or None)."""
    got = []
    try:
        for item in run():
            got.append(item)
    except BudgetExceededError as exc:
        return got, (exc.depth, exc.observed, exc.limit)
    return got, None


def _labelled(rng, cover):
    cls = RandomPartition if isinstance(cover, RandomPartition) else RandomCover
    return cls(cover.elements, label=rng.choice([None, "q", "cells"]))


def _random_pair(seed):
    rng = _rng(seed, 11)
    rds = random_system(rng, max_fiber=rng.choice([3, 5, 7]), pool=9)
    make = [random_cover, random_partition, lambda g, s: coarsen(g, random_cover(g, s))]
    r = _labelled(rng, rng.choice(make)(rng, rds))
    q = _labelled(rng, rng.choice(make)(rng, rds))
    return rng, rds, r, q


@given(seeds)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_mask_loop_matches_frozenset_fold(seed):
    rng, rds, r, q = _random_pair(seed)
    n_max = rng.randint(1, 6)
    for c in (r, q):
        want = list(iterate_covers_by_joins(c, rds, n_max))
        got = list(iterate_covers(c, rds, n_max))
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
        assert iterate_cover(c, rds, n_max) == want[-1]
    want = list(counts_by_joins(rds, r, q, n_max))
    assert [p.per_omega for p in count_profiles(rds, r, q, n_max)] == want
    assert count_profile(rds, r, q, n_max).per_omega == want[-1]


@given(seeds)
@settings(max_examples=600, deadline=None, derandomize=True)
def test_pullback_matches_orbit_walk(seed):
    _, rds, r, q = _random_pair(seed)
    for c in (r, q):
        for i in range(6):
            got, want = pullback(c, rds, i), pullback_by_walk(c, rds, i)
            assert got == want
            assert type(got) is type(want)
            assert got.label == want.label == c.label


def test_pullback_errors_match_orbit_walk():
    _, rds, r, _ = _random_pair(0)
    for oracle in (pullback, pullback_by_walk):
        with pytest.raises(ValueError, match="nonnegative"):
            oracle(r, rds, -1)
        with pytest.raises(IncompatibleSystemsError, match="system base"):
            oracle(RandomCover((RandomSet((frozenset(),) * (rds.size + 1)),)), rds, 1)


@given(seeds)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_budget_stops_match_frozenset_fold(seed):
    rng, rds, r, q = _random_pair(seed)
    for limit in range(1, 9):
        tight = Budgets(cover_elements=limit)
        for c in (r, q):
            want = _outcome(lambda: iterate_covers_by_joins(c, rds, 6, tight))
            assert _outcome(lambda: iterate_covers(c, rds, 6, tight)) == want
        want_counts, want_stop = _outcome(lambda: counts_by_joins(rds, r, q, 6, tight))
        got = _outcome(lambda: (p.per_omega for p in count_profiles(rds, r, q, 6, tight)))
        assert got == (want_counts, want_stop)
        # a single depth builds all of r's iterates before q's
        single = _outcome(lambda: iterate_covers_by_joins(r, rds, 6, tight))[1]
        single = single or _outcome(lambda: iterate_covers_by_joins(q, rds, 6, tight))[1]
        assert _outcome(lambda: [count_profile(rds, r, q, 6, tight).per_omega])[1] == single


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_section_leaving_its_fiber_raises_domain_error(seed):
    rng, rds, r, q = _random_pair(seed)
    omega = rng.randrange(rds.size)
    first = q.elements[0]
    sections = list(first.sections)
    sections[omega] = sections[omega] | {"stray"}
    stray = RandomCover((RandomSet(tuple(sections)), *q.elements[1:]), label=q.label)
    message = f"omega={omega}"
    # the frozenset path fails in the depth-1 count
    with pytest.raises(DomainError, match=re.escape(message)):
        list(counts_by_joins(rds, r, stray, 3))
    with pytest.raises(DomainError, match=re.escape(message)):
        list(count_profiles(rds, r, stray, 3))
    # the mask loop fails on encoding, at any depth
    for n in (1, 3):
        with pytest.raises(DomainError, match=re.escape(message)):
            count_profile(rds, r, stray, n)
        with pytest.raises(DomainError, match=re.escape(message)):
            list(iterate_covers(stray, rds, n))


def test_deep_sweep_on_a_larger_system():
    rng = random.Random(7)
    rds = random_system(rng, max_fiber=9, pool=12)
    q = random_partition(rng, rds, max_cells=3)
    assert list(iterate_covers(q, rds, 8)) == list(iterate_covers_by_joins(q, rds, 8))
