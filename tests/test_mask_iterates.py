"""Differential tests of the cover iterates against the folds they replaced.

``pullback_by_walk`` is the per-point orbit walk that pulled covers back
before the mask pullbacks, and ``iterate_covers_by_joins`` is the fold over
it: depth n+1 joins depth n with the n-step walk pullback of the cover, so
the oracle never calls the mask engine.  ``decoded_iterates`` decodes every
depth of the bitmask join fold (``mask_oracles._mask_iterates``), which
built ``iterate_cover`` and the sections of ``separated_empirical`` before
both stepped state memberships (``covers._cell_steps``).  Over random
systems (non-bijective fiber maps, empty sections, covers and partitions)
the mask fold must give equal pullbacks, equal covers, equal counts, the
same budget stops and the same domain errors, and the membership stepper
must give what the decoded mask fold gives.

``tuple_iterates`` is the per-fiber engine the packed masks replaced: an
element is one ``int`` per fiber, the i-step pullback reads the bit of every
point's i-step image, and a join is a fiberwise ``&``.  The packed engine
must give the same elements in the same order once each packed mask is
unpacked by the layout, the same budget stops and the same domain errors.
"""

import os
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
    load_scenario,
    point_partition,
    pullback,
    relative_count,
    separated_empirical,
    state_partition,
    validate_cover,
)
from rdstail.budgets import DEFAULTS
from rdstail.counting import _fiber_index, _section_masks
from rdstail.covers import _assemble
from rdstail import invariant
from rdstail.errors import RdstailError
from rdstail.model import BundleRDS, DrivingSystem, MetricSpace, sort_points
from rdstail.verify import _rng, coarsen, random_cover, random_partition, random_system

from mask_oracles import (
    _decode,
    _layout,
    _mask_iterate,
    _mask_iterates,
    _separated_sets,
    with_escape,
    with_stray,
    without_image,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


def counts_by_section_budget(rds, r, q, n_max, limit):
    """Oracle: :func:`counts_by_joins` with no whole-bundle budget, stopped
    at the first depth past 1 at which a fiber of the frozenset iterate of
    ``r``, then of ``q``, has more than ``limit`` maximal sections: the
    distinct sections inside no other."""
    q_iter = iterate_covers_by_joins(q, rds, n_max)
    for n, rn in enumerate(iterate_covers_by_joins(r, rds, n_max), 1):
        qn = next(q_iter)
        for cn in (rn, qn):
            observed = 0
            for w in range(rds.size):
                secs = set(cn.sections(w))
                observed = max(observed, sum(not any(s < t for t in secs) for s in secs))
            if n > 1 and observed > limit:
                raise BudgetExceededError("cover_elements", limit, observed, depth=n)
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
        # the counts bound each fiber's maximal sections, not whole iterates
        want_counts, want_stop = _outcome(lambda: counts_by_section_budget(rds, r, q, 6, limit))
        got = _outcome(lambda: (p.per_omega for p in count_profiles(rds, r, q, 6, tight)))
        assert got == (want_counts, want_stop)
        # a single depth steps r and q depth by depth, so it stops where the
        # sweep does
        single = want_counts[-1:] if want_stop is None else []
        assert _outcome(lambda: [count_profile(rds, r, q, 6, tight).per_omega]) == (single, want_stop)


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


def _error(exc):
    return type(exc), str(exc), getattr(exc, "depth", None)


def _cover_outcome(run):
    """The class and element sections of a cover, or the error it raised."""
    try:
        cover = run()
    except (RdstailError, ValueError) as exc:
        return _error(exc)
    return type(cover), [e.sections for e in cover.elements]


def test_iterate_cover_matches_mask_fold():
    # partitions, overlapping covers, empty sections and whole empty
    # elements, non-bijective maps and escapes; budgets 1..8, depths 0..6, a
    # cover over another base, a section leaving its fiber and a fiber point
    # with no image: the same elements in the same order and class, or the
    # same error at the same depth
    seen = set()
    for trial in range(60):
        rng = _rng(131, trial)
        rds = random_system(rng, max_fiber=rng.choice([3, 5]))
        if rng.random() < 0.3:
            rds = with_escape(rng, rds)
        part = random_partition(rng, rds)
        empty = RandomSet((frozenset(),) * rds.size)
        covers = [
            part,
            random_cover(rng, rds),
            coarsen(rng, random_cover(rng, rds)),
            state_partition(rds),
            point_partition(rds),
            RandomCover(part.elements + (empty,)),
            with_stray(rng, part),
            RandomCover(tuple(RandomSet(e.sections + (frozenset(),)) for e in part.elements)),
        ]
        for system in (rds, without_image(rng, rds)):
            for q in covers:
                n = rng.randint(0, 6)
                budgets = Budgets(cover_elements=rng.randint(1, 8)) if rng.random() < 0.5 else DEFAULTS
                want = _cover_outcome(lambda: _decode(q, system, _mask_iterate(q, system, n, budgets)))
                assert _cover_outcome(lambda: iterate_cover(q, system, n, budgets)) == want, trial
                seen.add(want[0] if want[0] is not DomainError else (DomainError, "fiber map" in want[1]))
    assert seen == {
        RandomCover,
        RandomPartition,
        BudgetExceededError,
        (DomainError, False),
        (DomainError, True),
        IncompatibleSystemsError,
        ValueError,
    }


def test_iterate_cover_at_every_depth_to_twelve_matches_mask_fold():
    # a partition stops stepping once its cells repeat, in order; an
    # overlapping cover steps every depth, since some cycle in cell order:
    # the same cells at consecutive depths, numbered in another order.  At
    # every depth to 12 both give the mask fold's elements, order and class
    cycling = 0
    for trial in range(40):
        rng = _rng(226, trial)
        rds = random_system(rng, max_fiber=rng.choice([3, 5, 7]), pool=9)
        if rng.random() < 0.3:
            rds = with_escape(rng, rds)
        part = random_partition(rng, rds)
        covers = [part, state_partition(rds), RandomCover(part.elements), random_cover(rng, rds)]
        for q in covers + [coarsen(rng, covers[-1])]:
            want = list(decoded_iterates(q, rds, 12))
            assert [iterate_cover(q, rds, n) for n in range(1, 13)] == want, trial
            cycling += want[-1] != want[-2] and set(want[-1].elements) == set(want[-2].elements)
    assert cycling > 5


def _separated_outcome(run):
    """Every field of a ``SeparatedEmpirical``, measures as their stored
    weights in storage order and the pair system as its fibers and maps, or
    the error raised."""
    try:
        se = run()
    except (RdstailError, ValueError) as exc:
        return _error(exc)
    fields = dict(vars(se))
    for name in ("mu_n", "mu_limit"):
        fields[name] = [list(w.items()) for w in fields[name].weights]
    fields["pair"] = (se.pair.system.fibers, se.pair.system.maps)
    return fields


def with_metric_escape(rng, rds):
    """:func:`with_escape` with 'out' in the metric space, at distance 1 from
    every other point."""
    rds = with_escape(rng, rds)
    points = rds.space.points + ("out",)
    dist = {(x, y): rds.space.d(x, y) if "out" not in (x, y) else Fraction(x != y) for x in points for y in points}
    return BundleRDS(rds.base, rds.fibers, rds.maps, MetricSpace(points, dist))


def test_separated_empirical_matches_mask_path(monkeypatch):
    # the metric scenarios' systems and covers, then random metric systems
    # with covers, partitions, an escaping point, a section leaving its
    # fiber, an added empty section (a cover over another base), an element
    # empty everywhere, budgets 1..12, depths 0..5 and radii 1/2, 1 and 3/2:
    # equal fields, or the same error at the same depth, when the separated
    # sets come from the per-fiber mask walk
    cases = []
    for name in ("swap", "extension", "cycle4"):
        sc = load_scenario(os.path.join(ROOT, "scenarios", f"{name}.json"))
        for rds in sc.systems.values():
            ok = [c for c in sc.covers.values() if c.size == rds.size and not validate_cover(c, rds)]
            cases += [(rds, p, q, n, Fraction(1, 2), DEFAULTS) for p in ok for q in ok for n in (1, 2, 3)]
    for trial in range(150):
        rng = _rng(137, trial)
        rds = random_system(rng, max_fiber=5, with_metric=True)
        if trial % 5 == 1:
            rds = with_metric_escape(rng, rds)
        p, q = (rng.choice([random_cover, random_partition])(rng, rds) for _ in range(2))
        if trial % 10 == 0:
            p = with_stray(rng, p)
        elif trial % 10 == 5:
            q = RandomCover(tuple(RandomSet(e.sections + (frozenset(),)) for e in q.elements))
        elif trial % 10 == 7:
            q = RandomCover(q.elements + (RandomSet((frozenset(),) * q.size),))
        budgets = Budgets(cover_elements=rng.randint(1, 12)) if rng.random() < 0.5 else DEFAULTS
        radius = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)])
        cases.append((rds, p, q, rng.randint(0, 5), radius, budgets))
    got = [_separated_outcome(lambda: separated_empirical(*case)) for case in cases]
    monkeypatch.setattr(invariant, "_separated_sets", _separated_sets)
    want = [_separated_outcome(lambda: separated_empirical(*case)) for case in cases]
    assert got == want
    kinds = {type(w) if isinstance(w, dict) else w[0] for w in want}
    assert kinds == {dict, BudgetExceededError, DomainError, IncompatibleSystemsError, ValueError}
