"""Exact minimal-subcover counting against the exhaustive oracle."""

import importlib.util
import os
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdstail import (
    BudgetExceededError,
    Budgets,
    CountProfile,
    DomainError,
    EntropyEstimate,
    RandomCover,
    RandomSet,
    count_profile,
    count_profiles,
    iterate_cover,
    min_cover_size,
    minimal_subcover,
    point_partition,
    relative_count,
    swap_system,
    tail_entropy_estimate,
    trivial_cover,
)
from rdstail import counting, tail_entropy
from rdstail.budgets import DEFAULTS
from rdstail.counting import _maximal
from rdstail.model import BundleRDS, DrivingSystem
from rdstail.verify import _rng, coarsen, random_cover, random_partition, random_system

from mask_oracles import _layout, _mask_iterate, _mask_iterates, _section_steps, _sections, with_escape

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


def test_uncoverable_target_below_the_popcount_stop_raises():
    # 0b1000 sorts after the stop at best == 1; the union check still sees it
    with pytest.raises(DomainError, match="target is not coverable by the given family"):
        counting._fiber_count([0b0111], [0b0111, 0b1000])


# The reference count kernel, with a Python callback per mask: ``_maximal``
# with a lambda key and ``any``, ``_greedy`` over every mask, and
# ``_fiber_count`` checking coverability per target with no popcount stop,
# over the fibers cut by ``mask_oracles._sections``.  The exact solver is the
# library's ``min_cover_size``, itself checked against brute force above,
# looked up on ``counting`` so that a test can record the solves.


def maximal_by_any(masks):
    kept = []
    for m in sorted(set(masks), key=lambda m: (-m.bit_count(), -m)):
        if not any(m | k == k for k in kept):
            kept.append(m)
    return kept


def greedy_over_all(target, masks):
    size = 0
    while target:
        target &= ~max(masks, key=lambda m: (m & target).bit_count())
        size += 1
    return size


def fiber_count_per_target(r_masks, q_masks):
    masks = maximal_by_any(r_masks)
    union = 0
    for m in masks:
        union |= m
    best = 1
    for t in maximal_by_any(q_masks):
        if t & ~union:
            raise DomainError("target is not coverable by the given family")
        if greedy_over_all(t, masks) > best:
            best = max(best, counting.min_cover_size(t, masks))
    return best


def profiles_by_sections(rds, r, q, n_max):
    layout = _layout(rds)
    q_iter = _mask_iterates(q, rds, n_max)
    for rn in _mask_iterates(r, rds, n_max):
        yield tuple(map(fiber_count_per_target, _sections(rn, layout), _sections(next(q_iter), layout)))


def _until_budget(profiles):
    got = []
    try:
        for item in profiles:
            got.append(item)
    except BudgetExceededError as exc:
        return got, exc.depth
    return got, None


def test_maximal_and_greedy_match_the_callback_kernel():
    rng = random.Random(15)
    for _ in range(1500):
        r, q = _column_pair(rng)
        for masks in (r, q):
            # the same set, so the same order among equally large masks
            assert _maximal(set(masks)) == maximal_by_any(masks), masks
            assert sorted(_maximal(masks)) == sorted(maximal_by_any(masks)), masks
        union = 0
        for m in r:
            union |= m
        for family in (r, _maximal(r)):
            for t in q:
                if not t & ~union:
                    assert counting._greedy(t, family) == greedy_over_all(t, family), (t, family)
        want = _count_or_error(fiber_count_per_target, r, q)
        assert _count_or_error(counting._fiber_count, r, q) == want, (r, q)
        assert _count_or_error(counting._fiber_count, set(r), set(q)) == want, (r, q)


def _explicit_system(rng, size=6, points=40):
    """A permutation base with uniform mass, ``points`` points per fiber and
    random fiber maps, with a 3-element ``r`` and a 2-element ``q`` in which
    every point lies in one element and in each other with probability 0.3."""
    theta = list(range(size))
    rng.shuffle(theta)
    base = DrivingSystem(prob=(Fraction(1, size),) * size, theta=tuple(theta))
    fibers = tuple(frozenset(f"x{i}" for i in range(points)) for _ in range(size))
    maps = tuple({f"x{i}": f"x{rng.randrange(points)}" for i in range(points)} for _ in range(size))
    rds = BundleRDS(base=base, fibers=fibers, maps=maps)

    def cover(k):
        secs = [[set() for _ in range(size)] for _ in range(k)]
        for w in range(size):
            for i in range(points):
                home = rng.randrange(k)
                for j in range(k):
                    if j == home or rng.random() < 0.3:
                        secs[j][w].add(f"x{i}")
        return RandomCover(tuple(RandomSet(tuple(map(frozenset, row))) for row in secs))

    return rds, cover(3), cover(2)


def test_count_profiles_match_the_callback_kernel(monkeypatch):
    solves = []

    def recorded(target, masks):
        solves.append(target)
        return min_cover_size(target, masks)

    def profiles_and_solves(profiles):
        solves.clear()
        return _until_budget(profiles), solves[:]

    monkeypatch.setattr(counting, "min_cover_size", recorded)
    make = [random_cover, random_partition, lambda g, s: coarsen(g, random_cover(g, s))]
    cases = []
    for trial in range(40):
        rng = _rng(15, trial)
        rds = random_system(rng, max_fiber=rng.choice([3, 5, 7]), pool=9)
        cases.append((rds, rng.choice(make)(rng, rds), rng.choice(make)(rng, rds)))
    cases.append(_explicit_system(random.Random(15)))
    for rds, r, q in cases:
        (got, stop), got_solves = profiles_and_solves(count_profiles(rds, r, q, 8))
        want, _ = profiles_and_solves(profiles_by_sections(rds, r, q, 8))
        assert ([p.per_omega for p in got], stop) == want
        assert [p.depth for p in got] == list(range(1, len(got) + 1))
        # the popcount stop skips only targets the greedy test skips too;
        # past the fixed depth the sweep repeats its profile and solves nothing
        _, want_solves = profiles_and_solves(profiles_by_sections(rds, r, q, fixed_depth(rds, r, q, 8)))
        assert got_solves == want_solves
    assert stop is None and max(map(max, want[0])) > 2


# Every count steps each fiber's maximal sections from depth to depth; the
# paths it replaced built each depth's whole-bundle iterate and cut it into
# fibers, one set each, counted with ``_fiber_count``: a sweep at every depth,
# a point query once at depth n.  The two must agree on every profile, on the
# exact solves and their order, on domain errors and, with the section budget
# checked on the cuts, on budget stops.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def set_cut(masks, layout):
    return [{(e & full) >> offset for e in masks} for offset, full in layout]


def section_budget(n, cuts, limit):
    """Oracle of the section budget: the stop at depth ``n`` past 1 when a
    fiber of the cut of ``r``, then of ``q``, has more than ``limit`` maximal
    sections."""
    for cut in cuts:
        observed = max(len(_maximal(s)) for s in cut)
        if n > 1 and observed > limit:
            raise BudgetExceededError("cover_elements", limit, observed, depth=n)


def cuts_by_depth(rds, r, q, n_max, limit):
    """The set cuts of the whole-bundle iterates of ``r`` and ``q`` at each
    depth, ``r`` before ``q``, checked against the section budget."""
    layout = _layout(rds)
    for n, sides in enumerate(zip(_mask_iterates(r, rds, n_max), _mask_iterates(q, rds, n_max)), 1):
        cuts = [set_cut(masks, layout) for masks in sides]
        section_budget(n, cuts, limit)
        yield cuts


def fixed_depth(rds, r, q, n_max, limit=DEFAULTS.cover_elements):
    """Oracle of the stop: the last depth up to ``n_max`` whose maximal
    sections of the cuts, of ``r`` and of ``q``, differ from the previous
    depth's, or the last depth before a budget stop.  A stopping sweep counts
    through this depth only."""
    last, n = None, 0
    try:
        for n, cuts in enumerate(cuts_by_depth(rds, r, q, n_max, limit), 1):
            sections = [[maximal_by_any(s) for s in cut] for cut in cuts]
            if sections == last:
                return n - 1
            last = sections
    except BudgetExceededError:
        pass
    return n


def through_fixed_depth(want, solves, rds, r, q, n_max, limit=DEFAULTS.cover_elements):
    """``want``, a :func:`_sweep` of :func:`profiles_by_cuts`, with the
    solves of that sweep through :func:`fixed_depth` only."""
    n = fixed_depth(rds, r, q, n_max, limit)
    return *want[:2], _sweep(profiles_by_cuts(rds, r, q, n, limit), solves)[2]


def profiles_by_cuts(rds, r, q, n_max, limit=DEFAULTS.cover_elements):
    for cuts in cuts_by_depth(rds, r, q, n_max, limit):
        yield tuple(map(counting._fiber_count, *cuts))


def profile_by_cut(rds, r, q, n, limit=DEFAULTS.cover_elements):
    """The point query the stepper replaced: ``_fiber_count`` over the set
    cut of each side's depth-n masks, once the section budget holds at
    every depth up to n."""
    for _ in cuts_by_depth(rds, r, q, n, limit):
        pass
    layout = _layout(rds)
    return tuple(map(counting._fiber_count, *(set_cut(_mask_iterate(c, rds, n), layout) for c in (r, q))))


def _once(query):
    yield query()


def _sweep(profiles, solves):
    """(per-depth counts, the stop or error with its depth, the solves)."""
    solves.clear()
    got = []
    try:
        for item in profiles:
            got.append(getattr(item, "per_omega", item))
    except (BudgetExceededError, DomainError) as exc:
        return got, (type(exc), str(exc), getattr(exc, "depth", None)), solves[:]
    return got, None, solves[:]


def _tail_explicit_shapes(monkeypatch):
    """The two 6 x 40 systems of the ``tail-explicit`` benchmark workload,
    without its seeded relabelling, from the benchmark's own generators."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_shapes", os.path.join(ROOT, "bench", "shapes.py"))
    shapes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shapes)
    for shape in (1, 5):
        srng = random.Random(f"tail-explicit-shape:{shape}")
        plain = shapes.explicit_system(srng, 6, 40)
        covers = [shapes.overlapping_cover(srng, plain, k) for k in (3, 2)]
        base = DrivingSystem(prob=tuple(plain["prob"]), theta=tuple(plain["theta"]))
        rds = BundleRDS(base=base, fibers=tuple(map(frozenset, plain["fibers"])), maps=tuple(plain["maps"]))
        yield (rds, *(RandomCover(tuple(RandomSet(tuple(map(frozenset, e))) for e in c)) for c in covers))


def _drop_first(rng, rds):
    # a family that may leave points of some fibers uncovered
    cover = random_cover(rng, rds)
    return RandomCover(cover.elements[1:])


def _stray(cover, omega):
    sections = list(cover.elements[0].sections)
    sections[omega] = sections[omega] | {"stray"}
    return RandomCover((RandomSet(tuple(sections)), *cover.elements[1:]))


def test_sweep_by_fiber_sections_matches_the_whole_bundle_cut(monkeypatch):
    solves = []

    def recorded(target, masks):
        solves.append(target)
        return min_cover_size(target, masks)

    monkeypatch.setattr(counting, "min_cover_size", recorded)
    make = [random_cover, random_partition, lambda g, s: coarsen(g, random_cover(g, s)), _drop_first]
    cases = []
    for trial in range(90):
        rng = _rng(19, trial)
        rds = random_system(rng, max_fiber=rng.choice([3, 5, 7]), pool=9)
        cases.append((rds, rng.choice(make)(rng, rds), rng.choice(make[:3])(rng, rds), 6))
    cases += [(*case, 12) for case in _tail_explicit_shapes(monkeypatch)]
    stops = errors = 0
    for rds, r, q, n_max in cases:
        want = _sweep(profiles_by_cuts(rds, r, q, n_max), solves)
        assert _sweep(count_profiles(rds, r, q, n_max), solves) == through_fixed_depth(want, solves, rds, r, q, n_max)
        errors += want[1] is not None
        # the sweep stops where a fiber's maximal sections exceed the limit
        for limit in range(1, 9):
            tight = Budgets(cover_elements=limit)
            want = _sweep(profiles_by_cuts(rds, r, q, n_max, limit), solves)
            got = _sweep(count_profiles(rds, r, q, n_max, tight), solves)
            assert got == through_fixed_depth(want, solves, rds, r, q, n_max, limit)
            stops += want[1] is not None and want[1][0] is BudgetExceededError
        # a section leaving its fiber fails on encoding, r before q
        omega = rds.size - 1
        for n in (1, 3):
            for pair in ((_stray(r, omega), q), (r, _stray(q, omega)), (_stray(r, 0), _stray(q, omega))):
                want = _sweep(profiles_by_cuts(rds, *pair, n), solves)
                assert want[1][0] is DomainError and "stray" not in want[1][1]
                assert _sweep(count_profiles(rds, *pair, n), solves) == want
    # the cases reach budget stops and uncoverable targets, and the two
    # benchmark systems reach depth 12 with counts above 2 and exact solves
    assert stops > 100 and 0 < errors < len(cases)
    big = [_sweep(count_profiles(rds, r, q, 12), solves) for rds, r, q, _ in cases[-2:]]
    assert all(stop is None and len(got) == 12 and max(map(max, got)) > 2 and found for got, stop, found in big)


def test_point_query_matches_the_set_cut(monkeypatch):
    solves = []

    def recorded(target, masks):
        solves.append((target, tuple(masks)))
        return min_cover_size(target, masks)

    monkeypatch.setattr(counting, "min_cover_size", recorded)
    make = [random_cover, random_partition, lambda g, s: coarsen(g, random_cover(g, s)), _drop_first]
    cases = []
    for trial in range(30):
        rng = _rng(21, trial)
        rds = random_system(rng, max_fiber=rng.choice([3, 5, 7]), pool=9)
        cases.append((rds, rng.choice(make)(rng, rds), rng.choice(make[:3])(rng, rds), range(1, 9)))
    cases += [(*case, [12]) for case in _tail_explicit_shapes(monkeypatch)]
    stops = errors = solved = 0
    for rds, r, q, depths in cases:
        for n in depths:
            want = _sweep(_once(lambda: profile_by_cut(rds, r, q, n)), solves)
            assert _sweep(_once(lambda: count_profile(rds, r, q, n)), solves) == want
            errors += want[1] is not None
            solved += bool(want[2])
        # the budget stop is the first depth past 1 at which a fiber's
        # maximal sections exceed the limit, r before q, as in the sweep
        n = depths[-1]
        for limit in range(1, 9):
            tight = Budgets(cover_elements=limit)
            want = _sweep(_once(lambda: profile_by_cut(rds, r, q, n, limit)), solves)
            assert _sweep(_once(lambda: count_profile(rds, r, q, n, tight)), solves) == want
            stops += want[1] is not None and want[1][0] is BudgetExceededError
    # the cases reach budget stops, uncoverable targets and exact solves
    assert stops > 50 and 0 < errors and solved > 50
    # both benchmark systems count above 2 at depth 12
    big = [_sweep(_once(lambda: count_profile(rds, r, q, 12)), solves) for rds, r, q, _ in cases[-2:]]
    assert all(stop is None and max(got[0]) > 2 and found for got, stop, found in big)


def test_depth_below_one_raises_on_both_count_paths():
    pts, triv = point_partition(SWAP), trivial_cover(SWAP)
    for n in (0, -3):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            count_profile(SWAP, pts, triv, n)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            list(count_profiles(SWAP, pts, triv, n))


def test_base_point_out_of_range_raises_domain_error():
    pts, whole = point_partition(SWAP), trivial_cover(SWAP)
    for omega in (-1, -2, 2, 7):
        queries = (
            lambda: relative_count(pts, whole, omega, SWAP),
            lambda: minimal_subcover(whole.elements[0], pts, omega, SWAP),
        )
        for query in queries:
            with pytest.raises(DomainError, match=rf"omega={omega} is outside the base of 2 points"):
                query()
    # the last base point is still a base point
    assert relative_count(pts, whole, 1, SWAP) == minimal_subcover(whole.elements[0], pts, 1, SWAP) == 2


# Once both covers' maximal sections repeat, at depth n* + 1, every later
# depth repeats them, so the sweeps count through n* and repeat the profile.
# The steppers that never stop are the oracle: at every depth to 60, on the
# two benchmark systems and on random covers, partitions, coarsenings and
# families that leave points uncovered, over systems with and without an
# escaping point and under tight budgets, the stopped sweeps give the same
# profiles, floats and stops.


def profiles_by_steps(rds, r, q, n_max, budgets=DEFAULTS):
    """Oracle: every depth of the zipped ``mask_oracles._section_steps``,
    ``r`` before ``q``, counted."""
    steps = zip(_section_steps(r, rds, n_max, budgets), _section_steps(q, rds, n_max, budgets))
    for n, (r_secs, q_secs) in enumerate(steps, 1):
        yield CountProfile(tuple(map(counting._count, r_secs, q_secs)), n)


def _result(run):
    """A sweep's profiles, or its estimate with every float in hex, or its
    error with the depth."""
    try:
        out = run()
    except (BudgetExceededError, DomainError) as exc:
        return type(exc), str(exc), getattr(exc, "depth", None)
    if isinstance(out, EntropyEstimate):
        return out, [v.hex() for v in out.values]
    return [(p.per_omega, p.depth) for p in out]


def test_sweeps_stopped_at_the_fixed_point_match_the_full_steppers(monkeypatch):
    make = [random_cover, random_partition, lambda g, s: coarsen(g, random_cover(g, s)), _drop_first]
    cases = [(*case, DEFAULTS) for case in _tail_explicit_shapes(monkeypatch)]
    for trial in range(300):
        rng = _rng(26, trial)
        rds = random_system(rng, max_fiber=rng.choice([3, 5, 7]), pool=9)
        rds = with_escape(rng, rds) if rng.random() < 0.3 else rds
        budgets = Budgets(cover_elements=rng.randint(1, 8)) if rng.random() < 0.2 else DEFAULTS
        cases.append((rds, rng.choice(make)(rng, rds), rng.choice(make[:3])(rng, rds), budgets))
    outcomes = set()
    for rds, r, q, budgets in cases:
        want = _result(lambda: list(profiles_by_steps(rds, r, q, 60, budgets)))
        assert _result(lambda: list(count_profiles(rds, r, q, 60, budgets))) == want
        with monkeypatch.context() as patched:
            patched.setattr(tail_entropy, "count_profiles", profiles_by_steps)
            want = _result(lambda: tail_entropy_estimate(rds, r, q, 60, budgets))
        assert _result(lambda: tail_entropy_estimate(rds, r, q, 60, budgets)) == want
        outcomes.add(want[0] if isinstance(want[0], type) else "values")
    assert outcomes == {"values", BudgetExceededError, DomainError}
