"""Driving systems, bundle systems, derived systems, factor maps."""

import random
from fractions import Fraction

import pytest

from rdstail import (
    BundleRDS,
    DomainError,
    DrivingSystem,
    FactorMap,
    MetricSpace,
    cycle_system,
    extend_with_tags,
    identity_factor,
    one_point_system,
    pair_system,
    power_system,
    product_system,
    skew_iterate,
    swap_system,
    validate_system,
)
from rdstail.scenario import canonical_digest, system_payload
from rdstail.verify import _rng, random_system


def test_driving_system_rejects_bad_mass():
    with pytest.raises(ValueError):
        DrivingSystem(prob=(Fraction(1, 2), Fraction(1, 3)), theta=(1, 0))
    with pytest.raises(ValueError):
        DrivingSystem(prob=(Fraction(1),), theta=(3,))
    # float masses summing to 1 exactly were accepted and failed later
    with pytest.raises(ValueError, match="base masses must be int or Fraction"):
        DrivingSystem(prob=(0.5, 0.5), theta=(1, 0))


def test_swap_system_valid():
    assert validate_system(swap_system()) == []


def test_validation_reports_image_escape():
    swap = swap_system()
    maps = ({"a": "c", "b": "d"}, {"c": "a", "d": "b"})
    bad = BundleRDS(base=swap.base, fibers=(frozenset({"a", "b"}), frozenset({"c"})), maps=maps)
    report = validate_system(bad)
    assert any("image escape" in line for line in report)


def test_validation_reports_noninvariant_base():
    base = DrivingSystem(prob=(Fraction(2, 3), Fraction(1, 3)), theta=(1, 0))
    rds = BundleRDS(
        base=base,
        fibers=(frozenset({"a"}), frozenset({"b"})),
        maps=({"a": "b"}, {"b": "a"}),
    )
    report = validate_system(rds)
    assert any("not preserved" in line for line in report)


def test_validation_reports_empty_fiber():
    base = DrivingSystem(prob=(Fraction(1),), theta=(0,))
    rds = BundleRDS(base=base, fibers=(frozenset(),), maps=({},))
    assert any("empty fiber" in line for line in validate_system(rds))


def test_skew_iterate_hand_values():
    swap = swap_system()
    assert skew_iterate(swap, (0, "a"), 0) == (0, "a")
    assert skew_iterate(swap, (0, "a"), 1) == (1, "c")
    assert skew_iterate(swap, (0, "a"), 2) == (0, "a")
    assert skew_iterate(swap, (0, "b"), 3) == (1, "c")


def test_skew_iterate_composes():
    swap = swap_system()
    for state in swap.states():
        for n in range(4):
            for m in range(4):
                assert skew_iterate(swap, state, n + m) == skew_iterate(
                    swap, skew_iterate(swap, state, n), m
                )


def test_skew_iterate_rejects_foreign_state():
    with pytest.raises(DomainError):
        skew_iterate(swap_system(), (0, "zzz"), 1)


def test_product_system_cardinalities_and_step():
    swap = swap_system()
    prod = product_system(swap, swap)
    assert all(len(f) == 4 for f in prod.system.fibers)
    assert skew_iterate(prod.system, (0, ("a", "a")), 1) == (1, ("c", "c"))
    assert validate_system(prod.system) == []
    assert prod.to_left.validate() == []
    assert prod.to_right.validate() == []


def test_product_with_unit_is_isomorphic():
    swap = swap_system()
    unit = one_point_system(swap.base)
    prod = product_system(unit, swap)
    for w in range(swap.size):
        assert len(prod.system.fibers[w]) == len(swap.fibers[w])
        image = {prod.to_right.apply(w, p) for p in prod.system.fibers[w]}
        assert image == set(swap.fibers[w])


def test_pair_system_hand_values():
    swap = swap_system()
    pair = pair_system(swap)
    assert len(pair.system.fibers[0]) == 4
    assert skew_iterate(pair.system, (0, ("a", "b")), 1) == (1, ("c", "c"))
    # the diagonal is forward-invariant
    for w in range(pair.system.size):
        for x in swap.fibers[w]:
            _, (u, v) = skew_iterate(pair.system, (w, (x, x)), 1)
            assert u == v
    assert validate_system(pair.system) == []


def test_canonical_projections():
    swap = swap_system()
    prod = product_system(swap, swap)
    pair = pair_system(swap)
    for derived in (prod, pair):
        for pi in (derived.to_left, derived.to_right):
            assert pi.source is derived.system and pi.target is swap
            assert pi.validate() == []
    assert pair.to_left.apply(0, ("a", "b")) == "a"
    assert pair.to_right.apply(0, ("a", "b")) == "b"


def test_power_system():
    swap = swap_system()
    squared = power_system(swap, 2)
    assert squared.base.theta == (0, 1)
    assert squared.maps[0]["a"] == "a"
    assert squared.maps[0]["b"] == "a"
    assert validate_system(squared) == []
    with pytest.raises(ValueError):
        power_system(swap, 0)


def test_factor_map_validation_catches_breakage():
    swap = swap_system()
    cyc = cycle_system()
    ident = identity_factor(swap)
    assert ident.validate() == []
    broken = type(ident)(source=swap, target=cyc, maps=ident.maps)
    assert broken.validate()  # different bases reported


def test_factor_map_checks_its_fiber_map_count():
    # with too few fiber maps, apply, preimage and pullback_cover raised a
    # bare IndexError for a base point in range
    swap = swap_system()
    for maps in ((), ({"a": "a", "b": "b"},), identity_factor(swap).maps * 2):
        with pytest.raises(ValueError, match=f"^{len(maps)} fiber maps for 2 base points$"):
            FactorMap(swap, swap, maps)


def test_metric_space_validation():
    good = MetricSpace.discrete(("x", "y"))
    assert good.validate() == []
    asym = MetricSpace(
        ("x", "y"),
        {("x", "x"): Fraction(0), ("y", "y"): Fraction(0), ("x", "y"): Fraction(1), ("y", "x"): Fraction(2)},
    )
    assert any("asymmetric" in v for v in asym.validate())
    skinny = MetricSpace.from_matrix(
        ("x", "y", "z"),
        [
            [Fraction(0), Fraction(1), Fraction(5)],
            [Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(5), Fraction(1), Fraction(0)],
        ],
    )
    assert any("triangle" in v for v in skinny.validate())


def test_metric_space_validation_reports_a_missing_distance():
    # the triangles need every pair: a missing one is reported, not raised
    partial = MetricSpace(("x", "y"), {("x", "x"): 0, ("y", "y"): 0, ("x", "y"): 1})
    assert "distance undefined for ('y','x')" in partial.validate()



def triangle_failures_by_fractions(space):
    """Oracle: the triangle messages from ``Fraction`` sums, as the check
    was written before it compared integer numerators."""
    return [
        f"triangle inequality fails at ({p!r},{q!r},{r!r})"
        for p in space.points
        for q in space.points
        for r in space.points
        if space.dist[(p, r)] > space.dist[(p, q)] + space.dist[(q, r)]
    ]


def test_triangle_check_matches_fraction_sums():
    rng = random.Random(41)
    seen_failures = 0
    for trial in range(60):
        points = tuple(f"p{i}" for i in range(rng.randint(1, 6)))
        # denominators from distinct primes, with ties at the boundary
        dens = (1, 2, 3, 7, 2**61 - 1, 3**40)
        dist = {}
        for i, p in enumerate(points):
            dist[(p, p)] = Fraction(0)
            for q in points[i + 1 :]:
                v = Fraction(rng.randint(1, 12), rng.choice(dens)) if trial % 3 else Fraction(rng.choice((1, 2)))
                dist[(p, q)] = dist[(q, p)] = v
        space = MetricSpace(points, dist)
        want = triangle_failures_by_fractions(space)
        seen_failures += bool(want)
        assert space.validate() == want
    assert 10 < seen_failures < 60


def product_space_by_table(left, right):
    """Oracle: the max metric on pairs as a table of every distance, as
    product systems built it before they read distances on demand."""
    pts = tuple((a, b) for a in left.points for b in right.points)
    dist = {((a, b), (c, d)): max(left.d(a, c), right.d(b, d)) for (a, b) in pts for (c, d) in pts}
    return MetricSpace(pts, dist)


def test_product_metric_reads_as_its_table():
    # every distance, in the table's order, the metric axioms and the
    # system digest, on the presets, random metric systems and products
    # with a product factor
    pairs = []
    for rds in (swap_system(), cycle_system(), cycle_system(3), extend_with_tags(swap_system(), 2, True).source):
        pairs += [(rds, rds), (rds, one_point_system(rds.base))]
    for trial in range(40):
        rng = _rng(28, trial)
        left = random_system(rng, max_fiber=3, pool=4, with_metric=True)
        right = random_system(rng, base=left.base, max_fiber=3, pool=4, with_metric=True)
        pairs.append((left, right))
        if trial < 3:
            pairs.append((pair_system(right).system, left))
    for s, t in pairs:
        got = product_system(s, t).system
        want = product_space_by_table(s.space, t.space)
        assert got.space.points == want.points
        assert len(got.space.dist) == len(want.dist)
        assert list(got.space.dist.items()) == list(want.dist.items())
        assert all(got.space.d(p, q) == v for (p, q), v in want.dist.items())
        assert got.space.validate() == want.validate() == []
        tabled = BundleRDS(base=got.base, fibers=got.fibers, maps=got.maps, space=want)
        assert canonical_digest(system_payload(got)) == canonical_digest(system_payload(tabled))


def pair_system_by_hand(t):
    """Oracle: the squared system as it was built before it became
    ``product_system(t, t)``."""
    fibers = tuple(frozenset((x, y) for x in t.fibers[w] for y in t.fibers[w]) for w in range(t.size))
    maps = tuple({(x, y): (t.apply(w, x), t.apply(w, y)) for (x, y) in fibers[w]} for w in range(t.size))
    space = None
    if t.space is not None:
        pts = tuple((a, b) for a in t.space.points for b in t.space.points)
        space = MetricSpace(pts, {(p, q): max(t.space.d(p[0], q[0]), t.space.d(p[1], q[1])) for p in pts for q in pts})
    system = BundleRDS(base=t.base, fibers=fibers, maps=maps, space=space)
    first = FactorMap(system, t, tuple({(x, y): x for (x, y) in fibers[w]} for w in range(t.size)))
    second = FactorMap(system, t, tuple({(x, y): y for (x, y) in fibers[w]} for w in range(t.size)))
    return system, first, second


def extend_with_tags_by_hand(rds, tags, rotate):
    """Oracle: the tag extension with its hand-built tag metric, as it was
    built before it became a product with a tag system."""
    names = tuple(f"t{i}" for i in range(tags))
    fibers = tuple(frozenset((x, t) for x in rds.fibers[w] for t in names) for w in range(rds.size))

    def step(t):
        return names[(names.index(t) + 1) % tags] if rotate else t

    maps = tuple({(x, t): (rds.apply(w, x), step(t)) for (x, t) in fibers[w]} for w in range(rds.size))
    space = None
    if rds.space is not None:
        pts = tuple((x, t) for x in rds.space.points for t in names)
        dist = {
            ((x, t), (y, u)): max(rds.space.d(x, y), Fraction(0) if t == u else Fraction(1))
            for (x, t) in pts
            for (y, u) in pts
        }
        space = MetricSpace(pts, dist)
    source = BundleRDS(base=rds.base, fibers=fibers, maps=maps, space=space)
    return FactorMap(source=source, target=rds, maps=tuple({(x, t): x for (x, t) in fibers[w]} for w in range(rds.size)))


def assert_same_system(got, want):
    assert got.base == want.base
    assert got.fibers == want.fibers
    assert got.maps == want.maps
    if want.space is None:
        assert got.space is None
    else:
        assert got.space.points == want.space.points
        assert got.space.dist == want.space.dist


def assert_same_factor(got, want):
    assert_same_system(got.source, want.source)
    assert got.target is want.target
    assert got.maps == want.maps


def test_pair_and_tag_products_match_hand_built_systems():
    for trial in range(120):
        rng = _rng(71, trial)
        rds = random_system(rng, max_fiber=4, with_metric=trial % 2 == 0)
        pair = pair_system(rds)
        system, first, second = pair_system_by_hand(rds)
        assert_same_system(pair.system, system)
        assert pair.to_left.target is pair.to_right.target is rds
        assert_same_factor(pair.to_left, first)
        assert_same_factor(pair.to_right, second)
        for tags in (1, 2, 3):
            for rotate in (False, True):
                assert_same_factor(extend_with_tags(rds, tags, rotate), extend_with_tags_by_hand(rds, tags, rotate))
