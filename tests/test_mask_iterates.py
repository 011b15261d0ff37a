"""Differential test of the bitmask join loop against the frozenset fold it
replaced.

``pullback_by_walk`` is the per-point orbit walk that pulled covers back
before the mask pullbacks, and ``iterate_covers_by_joins`` is the fold over
it: depth n+1 joins depth n with the n-step walk pullback of the cover, so
the oracle never calls the mask engine.  ``decoded_iterates`` decodes every
depth of the mask loop, which the library sweeps read without decoding.  Over random systems (non-bijective
fiber maps, empty sections, covers and partitions) the mask loop
must give equal pullbacks, equal covers, equal counts, the same budget stops
and the same domain errors.

``tuple_iterates`` is the per-fiber engine the packed masks replaced: an
element is one ``int`` per fiber, the i-step pullback reads the bit of every
point's i-step image, and a join is a fiberwise ``&``.  The packed engine
must give the same elements in the same order once each packed mask is
unpacked by the layout, the same budget stops and the same domain errors.
"""

import random
import re
from fractions import Fraction

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
    join,
    point_partition,
    pullback,
    relative_count,
    state_partition,
)
from rdstail.budgets import DEFAULTS
from rdstail.covers import (
    _assemble,
    _decode,
    _fiber_index,
    _layout,
    _mask_iterate,
    _mask_iterates,
    _section_masks,
)
from rdstail.model import BundleRDS, DrivingSystem, sort_points
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
    return _assemble(elems, partition=isinstance(q, RandomPartition))


def iterate_covers_by_joins(q, rds, n_max, budgets=DEFAULTS):
    """Oracle: the depth-1..n_max refinements of ``q`` by frozenset joins."""
    if n_max < 1:
        return
    out = _assemble((e.sections for e in q.elements), partition=isinstance(q, RandomPartition))
    yield out
    for i in range(1, n_max):
        out = join(out, pullback_by_walk(q, rds, i))
        if len(out) > budgets.cover_elements:
            raise BudgetExceededError("cover_elements", budgets.cover_elements, len(out), depth=i + 1)
        yield out


def decoded_iterates(q, rds, n_max, budgets=DEFAULTS):
    """The depth-1..n_max items of the mask loop, decoded into covers."""
    for masks in _mask_iterates(q, rds, n_max, budgets):
        yield _decode(q, rds, masks)


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


def _random_pair(seed):
    rng = _rng(seed, 11)
    rds = random_system(rng, max_fiber=rng.choice([3, 5, 7]), pool=9)
    make = [random_cover, random_partition, lambda g, s: coarsen(g, random_cover(g, s))]
    r = rng.choice(make)(rng, rds)
    q = rng.choice(make)(rng, rds)
    return rng, rds, r, q


@given(seeds)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_mask_loop_matches_frozenset_fold(seed):
    rng, rds, r, q = _random_pair(seed)
    n_max = rng.randint(1, 6)
    for c in (r, q):
        want = list(iterate_covers_by_joins(c, rds, n_max))
        got = list(decoded_iterates(c, rds, n_max))
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
        assert [iterate_cover(c, rds, n) for n in range(1, n_max + 1)] == want
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
            assert _outcome(lambda: decoded_iterates(c, rds, 6, tight)) == want
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
    stray = RandomCover((RandomSet(tuple(sections)), *q.elements[1:]))
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
            list(decoded_iterates(stray, rds, n))


def test_deep_sweep_on_a_larger_system():
    rng = random.Random(7)
    rds = random_system(rng, max_fiber=9, pool=12)
    q = random_partition(rng, rds, max_cells=3)
    assert list(decoded_iterates(q, rds, 8)) == list(iterate_covers_by_joins(q, rds, 8))


def tuple_pullbacks(q, rds, n):
    """Oracle: the 0..n-1-step pullbacks of ``q`` as per-fiber mask tuples,
    advancing every point's image one step per item."""
    if n < 1:
        return
    indices = [_fiber_index(f) for f in rds.fibers]
    empty = (0,) * rds.size

    def distinct(elements):
        out = dict.fromkeys(elements)
        out.pop(empty, None)
        return list(out)

    base = distinct(zip(*(_section_masks(q.sections(w), index, w) for w, index in enumerate(indices))))
    yield base
    images, targets = [sort_points(f) for f in rds.fibers], list(range(rds.size))
    for _ in range(1, n):
        images = [[rds.apply(v, y) for y in ys] for v, ys in zip(targets, images)]
        targets = [rds.base.theta[v] for v in targets]
        pulled = []
        for e in base:
            pulled.append(tuple(
                sum(1 << k for k, y in enumerate(ys) if e[t] & indices[t].get(y, 0))
                for ys, t in zip(images, targets)
            ))
        yield distinct(pulled)


def tuple_iterates(q, rds, n_max, budgets=DEFAULTS):
    """Oracle: the depth-1..n_max joins of :func:`tuple_pullbacks`."""
    pulls = tuple_pullbacks(q, rds, n_max)
    out = next(pulls, None)
    if out is None:
        return
    yield out
    empty = (0,) * rds.size
    for depth, pulled in enumerate(pulls, 2):
        out = dict.fromkeys(tuple(x & y for x, y in zip(a, b)) for a in out for b in pulled)
        out.pop(empty, None)
        out = list(out)
        if len(out) > budgets.cover_elements:
            raise BudgetExceededError("cover_elements", budgets.cover_elements, len(out), depth=depth)
        yield out


def unpacked_iterates(q, rds, n_max, budgets=DEFAULTS):
    """The packed iterates with every mask split into per-fiber masks."""
    layout = _layout(rds)
    for masks in _mask_iterates(q, rds, n_max, budgets):
        yield [tuple((e & full) >> offset for offset, full in layout) for e in masks]


def _stop(run):
    """(results, message of the budget stop or domain error, its depth)."""
    got = []
    try:
        for item in run():
            got.append(item)
    except (BudgetExceededError, DomainError) as exc:
        return got, (type(exc), str(exc), getattr(exc, "depth", None))
    return got, None


@given(seeds)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_packed_masks_match_tuple_engine(seed):
    rng, rds, r, q = _random_pair(seed)
    for limit in (1, 3, 8, DEFAULTS.cover_elements):
        tight = Budgets(cover_elements=limit)
        for c in (r, q):
            want = _stop(lambda: tuple_iterates(c, rds, 6, tight))
            assert _stop(lambda: unpacked_iterates(c, rds, 6, tight)) == want


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_packed_domain_errors_match_tuple_engine(seed):
    rng, rds, r, q = _random_pair(seed)
    # a section leaving its fiber fails on encoding
    omega = rng.randrange(rds.size)
    sections = list(q.elements[0].sections)
    sections[omega] = sections[omega] | {"stray"}
    stray = RandomCover((RandomSet(tuple(sections)), *q.elements[1:]))
    # a fiber point without an image fails on the first pullback step
    maps = [dict(m) for m in rds.maps]
    del maps[omega][rng.choice(sort_points(rds.fibers[omega]))]
    partial = BundleRDS(rds.base, rds.fibers, tuple(maps))
    for c, system in ((stray, rds), (r, partial)):
        for n in (1, 2, 4):
            want = _stop(lambda: tuple_iterates(c, system, n))
            assert _stop(lambda: unpacked_iterates(c, system, n)) == want
    assert _stop(lambda: unpacked_iterates(r, partial, 2))[1][0] is DomainError


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_packed_bit_i_is_state_i(seed):
    _, rds, r, _ = _random_pair(seed)
    states = rds.states()
    # the state partition lists the states in order, one bit each
    assert _mask_iterate(state_partition(rds), rds, 1) == [1 << i for i in range(len(states))]
    masks = _mask_iterate(r, rds, 1)
    elements = [e for e in r.elements if not e.is_empty()]
    assert len(masks) == len({e.sections for e in elements})
    for e, m in zip(dict.fromkeys(e.sections for e in elements), masks):
        assert m == sum(1 << i for i, (w, x) in enumerate(states) if x in e[w])


def test_point_mapped_outside_its_image_fiber_pulls_back_nothing():
    # b is sent to z, which is not in the fiber over the image base point;
    # whether or not the map there has an entry for z (leading back to a),
    # b pulls back nothing from step 1 on, and nothing applies a map to z
    base = DrivingSystem(prob=(Fraction(1, 2), Fraction(1, 2)), theta=(1, 0))
    fibers = (frozenset({"a", "b"}), frozenset({"c", "d"}))
    for extra in ({"z": "a"}, {}):
        rds = BundleRDS(base, fibers, ({"a": "c", "b": "z"}, {"c": "a", "d": "b", **extra}))
        q = point_partition(rds)
        for i in range(1, 5):
            assert all("b" not in e.sections[0] for e in pullback(q, rds, i).elements)
    # up to the first step the tuple engine agrees
    assert list(unpacked_iterates(q, rds, 2)) == list(tuple_iterates(q, rds, 2))
