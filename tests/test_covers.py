"""Cover calculus: joins, pullbacks, iterates, refinement, containment
search."""

from fractions import Fraction

from rdstail import (
    BundleRDS,
    DrivingSystem,
    FiberedMeasure,
    RandomCover,
    RandomPartition,
    RandomSet,
    delta_contains,
    fiber_partition,
    iterate_cover,
    join,
    point_partition,
    pullback,
    refines,
    state_partition,
    swap_system,
    trivial_cover,
    validate_cover,
)
from rdstail.verify import _rng, random_cover, random_system

SWAP = swap_system()


def cover(*elements) -> RandomCover:
    return RandomCover(tuple(RandomSet(tuple(frozenset(s) for s in e)) for e in elements))


def partition(*elements) -> RandomPartition:
    return RandomPartition(tuple(RandomSet(tuple(frozenset(s) for s in e)) for e in elements))


def sections_set(c: RandomCover) -> set:
    return {e.sections for e in c.elements}


def test_validate_cover_catches_gaps():
    gap = cover([{"a"}, {"c", "d"}])
    assert any("not covered" in v for v in validate_cover(gap, SWAP))
    stray = cover([{"a", "b", "zzz"}, {"c", "d"}])
    assert any("leaves the fiber" in v for v in validate_cover(stray, SWAP))
    good = cover([{"a", "b"}, {"c", "d"}])
    assert validate_cover(good, SWAP) == []


def test_join_with_trivial_is_identity():
    q = cover([{"a"}, {"c", "d"}], [{"b"}, {"c"}])
    assert sections_set(join(q, trivial_cover(SWAP))) == sections_set(q)


def test_join_of_partitions_is_partition():
    p = partition([{"a"}, {"c", "d"}], [{"b"}, set()])
    q = partition([{"a", "b"}, {"c"}], [set(), {"d"}])
    j = join(p, q)
    assert isinstance(j, RandomPartition)
    assert j.validate_disjoint()
    assert validate_cover(j, SWAP) == []


def test_join_hand_example():
    # two one-point elements at the first fiber, padded with the whole second
    # fiber; joining with the trivial cover keeps exactly those two elements
    q = cover([{"a"}, {"c", "d"}], [{"b"}, {"c", "d"}])
    j = join(q, trivial_cover(SWAP))
    assert len(j.elements) == 2
    assert sections_set(j) == sections_set(q)


def test_pullback_zero_steps_is_identity():
    q = cover([{"a"}, {"c", "d"}], [{"b"}, {"c"}])
    assert pullback(q, SWAP, 0) is q


def test_pullback_hand_example():
    # element sections at the second fiber are {c} and {d}; pulling back one
    # step lands their preimages {a,b} and the empty set at the first fiber
    q = cover([{"a", "b"}, {"c"}], [set(), {"d"}])
    pulled = pullback(q, SWAP, 1)
    secs0 = sorted(sec for sec in pulled.sections(0))
    assert frozenset({"a", "b"}) in secs0
    # the {d}-element pulls back empty at fiber 0 but survives via fiber 1
    assert frozenset() in secs0 or len(pulled.elements) == 1
    assert validate_cover(pulled, SWAP) == []


def test_pullback_of_trivial_is_trivial():
    pulled = pullback(trivial_cover(SWAP), SWAP, 2)
    assert sections_set(pulled) == sections_set(trivial_cover(SWAP))


def test_iterate_depth_one_is_pruned_cover():
    q = cover([{"a"}, {"c", "d"}], [{"b"}, {"c"}])
    assert sections_set(iterate_cover(q, SWAP, 1)) == sections_set(q)


def test_iterate_splits_as_join_of_pullbacks():
    q = random_cover(_rng(5, 0), SWAP)
    for n, m in ((1, 1), (1, 2), (2, 1)):
        whole = iterate_cover(q, SWAP, n + m)
        split = join(iterate_cover(q, SWAP, n), pullback(iterate_cover(q, SWAP, m), SWAP, n))
        assert sections_set(whole) == sections_set(split)


def test_iterate_singletons_on_swap():
    atoms = iterate_cover(point_partition(SWAP), SWAP, 2)
    nonempty0 = [sec for sec in atoms.sections(0) if sec]
    assert sorted(nonempty0) == [frozenset({"a"}), frozenset({"b"})]


def test_iterate_preserves_partition():
    p = point_partition(SWAP)
    it = iterate_cover(p, SWAP, 3)
    assert isinstance(it, RandomPartition)
    assert it.validate_disjoint()


def test_refines_basics():
    q = cover([{"a"}, {"c", "d"}], [{"b"}, {"c"}])
    r = random_cover(_rng(7, 0), SWAP)
    assert refines(q, q)
    assert refines(join(r, q), q)
    assert refines(q, trivial_cover(SWAP))


def test_singletons_refine_everything_fiberwise():
    for trial in range(10):
        rds = random_system(_rng(11, trial))
        c = random_cover(_rng(12, trial), rds)
        assert refines(point_partition(rds), c)
        assert refines(state_partition(rds), c)
    # each element hosts a different point of a shared id on different fibers,
    # so the witness of a singleton changes with the base point
    rds = BundleRDS(
        base=DrivingSystem((Fraction(1, 2), Fraction(1, 2)), (1, 0)),
        fibers=(frozenset({"x", "y"}), frozenset({"x", "y"})),
        maps=({"x": "x", "y": "y"}, {"x": "x", "y": "y"}),
    )
    crossing = cover([{"x"}, {"y"}], [{"y"}, {"x"}])
    assert validate_cover(crossing, rds) == []
    assert refines(point_partition(rds), crossing)


def test_pullback_commutes_with_join():
    for trial in range(10):
        rds = random_system(_rng(21, trial))
        a = random_cover(_rng(22, trial), rds)
        b = random_cover(_rng(23, trial), rds)
        left = pullback(join(a, b), rds, 1)
        right = join(pullback(a, rds, 1), pullback(b, rds, 1))
        assert sections_set(left) == sections_set(right)


def test_iterates_refine_shallower_iterates():
    q = cover([{"a"}, {"c", "d"}], [{"b"}, {"c"}])
    deep = iterate_cover(q, SWAP, 3)
    for m in (1, 2):
        assert refines(deep, iterate_cover(q, SWAP, m))


def _brute_force_containment(p, q, mu):
    """Oracle: exhaustive over coarsenings of p and matchings against q."""
    from itertools import permutations

    k, a = len(q.elements), len(p.elements)

    def set_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for smaller in set_partitions(rest):
            for i in range(len(smaller)):
                yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
            yield [[first]] + smaller

    def mass(secs):
        return sum((mu.get(w, x) for w, sec in enumerate(secs) for x in sec), Fraction(0))

    best = None
    q_secs = [e.sections for e in q.elements]
    for grouping in set_partitions(list(range(a))):
        cells = [
            tuple(
                frozenset().union(*(p.elements[i].sections[w] for i in g))
                for w in range(p.size)
            )
            for g in grouping
        ]
        size = max(len(cells), k)
        padded_cells = cells + [tuple(frozenset() for _ in range(p.size))] * (size - len(cells))
        padded_q = q_secs + [tuple(frozenset() for _ in range(p.size))] * (size - k)
        for perm in permutations(range(size)):
            total = Fraction(0)
            for i, j in enumerate(perm):
                c, qs = padded_cells[i], padded_q[j]
                inter = tuple(cs & qss for cs, qss in zip(c, qs))
                total += mass(c) + mass(qs) - 2 * mass(inter)
            if best is None or total < best:
                best = total
    return best


def test_delta_contains_trivial_cases():
    mu = FiberedMeasure.uniform(SWAP)
    p = point_partition(SWAP)
    w = delta_contains(p, p, mu, Fraction(1, 8))
    assert w.contained and w.best_sum == 0
    w2 = delta_contains(p, trivial_cover(SWAP), mu, Fraction(1, 8))
    assert w2.contained and w2.best_sum == 0


def test_delta_contains_hand_value():
    mu = FiberedMeasure.uniform(SWAP)
    p = partition([{"a"}, {"c", "d"}], [{"b"}, set()])
    q = partition([{"a", "b"}, set()], [set(), {"c", "d"}])
    w = delta_contains(p, q, mu, Fraction(1))
    assert w.best_sum == Fraction(1, 2)
    assert w.contained
    assert not delta_contains(p, q, mu, Fraction(1, 2)).contained  # strict


def test_delta_contains_matches_exhaustive_oracle():
    for trial in range(15):
        rds = random_system(_rng(31, trial), max_fiber=3, pool=4)
        from rdstail.verify import random_measure, random_partition

        mu = random_measure(_rng(32, trial), rds)
        p = random_partition(_rng(33, trial), rds, max_cells=3)
        q = random_partition(_rng(34, trial), rds, max_cells=3)
        got = delta_contains(p, q, mu, Fraction(1, 4)).best_sum
        assert got == _brute_force_containment(p, q, mu)


def test_join_commutes_and_associates():
    for trial in range(8):
        rds = random_system(_rng(35, trial))
        a = random_cover(_rng(36, trial), rds)
        b = random_cover(_rng(37, trial), rds)
        c = random_cover(_rng(38, trial), rds)
        assert sections_set(join(a, b)) == sections_set(join(b, a))
        assert sections_set(join(join(a, b), c)) == sections_set(join(a, join(b, c)))


def test_fiber_partition_covers():
    fp = fiber_partition(SWAP)
    assert validate_cover(fp, SWAP) == []
    assert fp.validate_disjoint()
