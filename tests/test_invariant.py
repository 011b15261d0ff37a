"""Invariant measures: defect, Cesaro limits, lifts, polytope vertices,
Bowen balls, separated empirical measures, diagonal construction."""

from fractions import Fraction
from itertools import combinations

import pytest

from rdstail import (
    _linalg,
    BundleRDS,
    DrivingSystem,
    FiberedMeasure,
    PreconditionError,
    RandomPartition,
    bowen_ball,
    cesaro_limit,
    cycle_coefficients,
    cycle_system,
    diagonal_measure,
    extend_with_tags,
    hull_certificate,
    identity_factor,
    invariance_defect,
    iterate_cover,
    lebesgue_number,
    lift_invariant,
    measures_equal,
    minimal_subcover,
    point_partition,
    pushforward_measure,
    separated_empirical,
    swap_system,
    trivial_cover,
    vertex_enumeration,
)
from rdstail.invariant import _cycle_structure
from rdstail.model import sort_points, terminal_cycles
from rdstail.verify import _rng, random_cover, random_driving, random_measure, random_partition, random_system

from measure_oracles import average_by_pushforwards, mix

SWAP = swap_system()
CYCLE = cycle_system()


def _uniform_on_cycle(rds, cycle):
    """Oracle: the uniform measure on one skew cycle, as ``vertex_enumeration``
    built it before its vertices went through the measures accumulator."""
    acc = [{} for _ in range(rds.size)]
    share = Fraction(1, len(cycle))
    for w, x in cycle:
        acc[w][x] = acc[w].get(x, Fraction(0)) + share
    return FiberedMeasure(tuple(acc))


def _separation_at_least_one(rds, omega, x, y, n, deltas):
    """Oracle: the orbit-distance walk the separated-set scan used before it
    tested Bowen-ball membership; true when some step reaches its radius."""
    space = rds.space
    xi, yi, w = x, y, omega
    for _ in range(n):
        if space.d(xi, yi) >= deltas[w]:
            return True
        xi, yi, w = rds.apply(w, xi), rds.apply(w, yi), rds.base.theta[w]
    return False


def test_invariance_defect_cases():
    uniform_cycle = FiberedMeasure(({p: Fraction(1, 4) for p in CYCLE.fibers[0]},))
    assert invariance_defect(uniform_cycle, CYCLE) == 0
    point = FiberedMeasure(({"p0": Fraction(1)},))
    assert invariance_defect(point, CYCLE) == 2
    ident = BundleRDS(
        base=DrivingSystem((Fraction(1),), (0,)),
        fibers=(frozenset({"x", "y"}),),
        maps=({"x": "x", "y": "y"},),
    )
    any_mu = FiberedMeasure(({"x": Fraction(1, 3), "y": Fraction(2, 3)},))
    assert invariance_defect(any_mu, ident) == 0


def test_cesaro_point_mass_spreads_over_cycle():
    point = FiberedMeasure(({"p0": Fraction(1)},))
    lim = cesaro_limit(point, CYCLE)
    assert dict(lim.weights[0]) == {p: Fraction(1, 4) for p in CYCLE.fibers[0]}
    assert invariance_defect(lim, CYCLE) == 0


def test_cesaro_fixes_invariant_and_is_idempotent():
    inv = FiberedMeasure(({"a": Fraction(1, 2)}, {"c": Fraction(1, 2)}))
    assert measures_equal(cesaro_limit(inv, SWAP), inv)
    nu = FiberedMeasure.uniform(SWAP)
    once = cesaro_limit(nu, SWAP)
    assert measures_equal(cesaro_limit(once, SWAP), once)


def test_cesaro_transient_to_fixed_point():
    rds = BundleRDS(
        base=DrivingSystem((Fraction(1),), (0,)),
        fibers=(frozenset({"t", "f"}),),
        maps=({"t": "f", "f": "f"},),
    )
    nu = FiberedMeasure(({"t": Fraction(1)},))
    lim = cesaro_limit(nu, rds)
    assert dict(lim.weights[0]) == {"f": Fraction(1)}


def test_lift_identity_and_tagged_extensions():
    inv = FiberedMeasure(({"a": Fraction(1, 2)}, {"c": Fraction(1, 2)}))
    assert measures_equal(lift_invariant(identity_factor(SWAP), inv), inv)
    for rotate in (False, True):
        pi = extend_with_tags(SWAP, tags=2, rotate=rotate)
        lifted = lift_invariant(pi, inv)
        assert invariance_defect(lifted, pi.source) == 0
        assert measures_equal(pushforward_measure(pi, lifted), inv)
        # mass splits evenly over the tag coordinate
        tag_mass = sum(
            (v for w in range(lifted.size) for (x, t), v in lifted.weights[w].items() if t == "t0"),
            Fraction(0),
        )
        assert tag_mass == Fraction(1, 2)


def test_lift_rejects_noninvariant():
    with pytest.raises(PreconditionError):
        lift_invariant(identity_factor(SWAP), FiberedMeasure.uniform(SWAP))


def test_vertices_of_swap_and_cycle_match_hand_derivation():
    poly = vertex_enumeration(SWAP)
    assert len(poly.vertices) == 1
    v = poly.vertices[0]
    assert dict(v.weights[0]) == {"a": Fraction(1, 2)}
    assert dict(v.weights[1]) == {"c": Fraction(1, 2)}

    poly2 = vertex_enumeration(CYCLE)
    assert len(poly2.vertices) == 1
    assert dict(poly2.vertices[0].weights[0]) == {p: Fraction(1, 4) for p in CYCLE.fibers[0]}


def test_vertices_of_two_fixed_points():
    rds = BundleRDS(
        base=DrivingSystem((Fraction(1),), (0,)),
        fibers=(frozenset({"x", "y"}),),
        maps=({"x": "x", "y": "y"},),
    )
    poly = vertex_enumeration(rds)
    weights = sorted(str(dict(v.weights[0])) for v in poly.vertices)
    assert len(poly.vertices) == 2
    assert weights == sorted([str({"x": Fraction(1)}), str({"y": Fraction(1)})])


def test_hull_certificate_reconstructs_random_invariants():
    for trial in range(15):
        rds = random_system(_rng(91, trial))
        poly = vertex_enumeration(rds)
        mu = cesaro_limit(random_measure(_rng(92, trial), rds), rds)
        cert = hull_certificate(poly, mu)
        assert cert is not None
        assert sum(cert.values(), Fraction(0)) == 1
        assert all(c > 0 for c in cert.values())
        rebuilt = mix([(c, poly.vertices[i]) for i, c in cert.items()])
        assert measures_equal(rebuilt, mu)


def solve(a, b):
    """One exact solution of ``a x = b`` with the free variables set to
    zero, or None if the system is inconsistent."""
    red, pivots = _linalg.rref([row + [bv] for row, bv in zip(a, b)])
    ncols = len(a[0])
    if ncols in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return x


def vertex_enumeration_by_bases(rds: BundleRDS) -> list[tuple[tuple[Fraction, ...], FiberedMeasure]]:
    """Reference: the basic feasible solutions of the marginal equations in
    cycle-coefficient coordinates, found by solving every independent column
    subset exactly (the search the product of simplices replaced)."""
    cycles, _ = _cycle_structure(rds)
    ncy = len(cycles)
    m = [
        [Fraction(sum(1 for cw, _ in cycles[c] if cw == w), len(cycles[c])) for c in range(ncy)]
        for w in range(rds.size)
    ]
    b = list(rds.base.prob)
    found = []
    for k in range(1, _linalg.rank(m) + 1):
        for cols in combinations(range(ncy), k):
            sub = [[row[c] for c in cols] for row in m]
            if _linalg.rank(sub) < k:
                continue
            sol = solve(sub, b)
            if sol is None or any(v <= 0 for v in sol):
                continue  # zero entries re-appear as smaller supports
            lam = [Fraction(0)] * ncy
            for c, v in zip(cols, sol):
                lam[c] = v
            # the full system must hold, not just the square part
            if any(sum(m[w][c] * lam[c] for c in range(ncy)) != b[w] for w in range(rds.size)):
                continue
            mu = mix([(lam[c], _uniform_on_cycle(rds, cycles[c])) for c in range(ncy) if lam[c]])
            found.append((tuple(lam), mu))
    return found


def _system_with_dead_cycles(rng) -> BundleRDS:
    """Up to 6 base points, some base cycles of zero mass, transient base
    points when theta is not a permutation, and now and then a uniform base
    measure, which theta preserves only when it is a permutation."""
    base = random_driving(rng, max_size=6)
    cycles = terminal_cycles(range(base.size), base.theta.__getitem__)[0]
    weights = list(base.prob)
    for cycle in rng.sample(cycles, rng.randrange(len(cycles))):
        for w in cycle:
            weights[w] = Fraction(0)
    if rng.random() < 0.1:
        weights = [Fraction(1)] * base.size
    total = sum(weights)
    base = DrivingSystem(tuple(w / total for w in weights), base.theta)
    return random_system(rng, base=base, max_fiber=4)


def _support_bound(poly) -> int:
    """sum over base cycles B of positive mass of (|cycles over B| - 1), plus one."""
    groups: dict[frozenset, list[int]] = {}
    for c, cycle in enumerate(poly.cycles):
        groups.setdefault(frozenset(w for w, _ in cycle), []).append(c)
    live = [g for g in groups.values() if any(poly.vertex_weights[0][c] for c in g)]
    return sum(len(g) - 1 for g in live) + 1


def test_product_of_simplices_matches_basis_search():
    kinds = {"several base cycles": 0, "no vertex": 0, "dead base cycle": 0, "transient base point": 0}
    for trial in range(320):
        rng = _rng(93, trial)
        rds = random_system(rng) if trial % 2 == 0 else _system_with_dead_cycles(rng)
        poly = vertex_enumeration(rds)
        reference = vertex_enumeration_by_bases(rds)
        assert poly.vertex_weights == tuple(lam for lam, _ in reference)
        assert [v.weights for v in poly.vertices] == [mu.weights for _, mu in reference]
        bases = {frozenset(w for w, _ in cycle) for cycle in poly.cycles}
        kinds["several base cycles"] += len(bases) > 1
        kinds["no vertex"] += not reference
        kinds["dead base cycle"] += any(sum(rds.base.prob[w] for w in b) == 0 for b in bases)
        kinds["transient base point"] += len(set().union(*bases)) < rds.size

        mu = cesaro_limit(random_measure(rng, rds), rds)
        cert = hull_certificate(poly, mu)
        if not reference:
            assert cert is None
            continue
        assert cert is not None
        assert len(cert) <= _support_bound(poly)
        assert sum(cert.values(), Fraction(0)) == 1
        assert all(c > 0 for c in cert.values())
        assert measures_equal(mix([(c, poly.vertices[i]) for i, c in cert.items()]), mu)
    assert all(kinds.values()), kinds


def test_sixteen_points_give_the_product_of_cycle_counts():
    # base: a 2-cycle {0, 1} and two fixed points; four points per fiber
    base = DrivingSystem((Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), Fraction(1, 3)), (1, 0, 2, 3))
    fiber = frozenset("abcd")
    rds = BundleRDS(
        base=base,
        fibers=(fiber,) * 4,
        maps=(
            {x: x for x in fiber},  # with the identity back: 4 cycles over {0, 1}
            {x: x for x in fiber},
            {"a": "a", "b": "b", "c": "c", "d": "a"},  # 3 cycles, d transient
            {"a": "b", "b": "a", "c": "d", "d": "c"},  # 2 cycles
        ),
    )
    poly = vertex_enumeration(rds)
    assert len(poly.cycles) == 4 + 3 + 2
    assert len(poly.vertices) == 4 * 3 * 2
    assert poly.vertex_weights == tuple(lam for lam, _ in vertex_enumeration_by_bases(rds))
    mu = cesaro_limit(FiberedMeasure.uniform(rds), rds)
    cert = hull_certificate(poly, mu)
    assert 0 < len(cert) <= (4 + 3 + 2) - 3 + 1
    assert measures_equal(mix([(c, poly.vertices[i]) for i, c in cert.items()]), mu)


def test_vertex_order_when_cycle_indices_interleave():
    # transient base points 0 -> 2 and 1 -> 3 find one cycle over each base
    # fixed point first, so the cycles over {2} get indices 0, 2, 3 and those
    # over {3} get 1, 4: the product's own order is not the sorted one
    rds = BundleRDS(
        base=DrivingSystem((Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 2)), (2, 3, 2, 3)),
        fibers=(frozenset("a"), frozenset("a"), frozenset("abc"), frozenset("ab")),
        maps=({"a": "a"}, {"a": "a"}, {x: x for x in "abc"}, {x: x for x in "ab"}),
    )
    poly = vertex_enumeration(rds)
    picks = [tuple(c for c, v in enumerate(lam) if v) for lam in poly.vertex_weights]
    assert picks == [(0, 1), (0, 4), (1, 2), (1, 3), (2, 4), (3, 4)]
    assert poly.vertex_weights == tuple(lam for lam, _ in vertex_enumeration_by_bases(rds))


def test_hull_certificate_rejects_other_base_marginal():
    rds = BundleRDS(
        base=DrivingSystem((Fraction(1, 2), Fraction(1, 2)), (0, 1)),
        fibers=(frozenset({"x", "y"}),) * 2,
        maps=({"x": "x", "y": "y"},) * 2,
    )
    poly = vertex_enumeration(rds)
    assert len(poly.vertices) == 4
    one_sided = FiberedMeasure(({"x": Fraction(1)}, {}))
    assert invariance_defect(one_sided, rds) == 0
    assert hull_certificate(poly, one_sided) is None
    # invariant with the right marginal, but signed: not in the polytope
    signed = FiberedMeasure(({"x": Fraction(1), "y": Fraction(-1, 2)}, {"x": Fraction(1, 2)}))
    assert invariance_defect(signed, rds) == 0
    assert hull_certificate(poly, signed) is None


def test_cycle_coefficients_rejects_noninvariant():
    poly = vertex_enumeration(SWAP)
    assert cycle_coefficients(poly, FiberedMeasure.uniform(SWAP)) is None


def test_bowen_ball_cases():
    # radius beyond the fiber diameter: everything
    assert bowen_ball(SWAP, 0, "a", 1, Fraction(2)) == frozenset({"a", "b"})
    # radius below every positive distance: only the center
    assert bowen_ball(SWAP, 0, "a", 1, Fraction(1, 2)) == frozenset({"a"})
    # strictness decides at radius exactly one on the discrete metric
    assert bowen_ball(SWAP, 0, "a", 2, Fraction(1)) == frozenset({"a"})


def test_lebesgue_number():
    assert lebesgue_number(SWAP, point_partition(SWAP), 0) == Fraction(1)
    assert lebesgue_number(SWAP, trivial_cover(SWAP), 0) is None


def test_separated_empirical_on_swap():
    se = separated_empirical(
        SWAP, point_partition(SWAP), trivial_cover(SWAP), n=2, delta=Fraction(1, 2)
    )
    assert se.lebesgue_ok
    assert se.card_ok
    assert len(se.separated[0]) == 2
    assert se.counts[0] == 2
    assert se.support_mass_mu_n == 1
    assert invariance_defect(se.mu_limit, se.pair.system) == 0


def test_separated_maximality_certificate():
    se = separated_empirical(
        SWAP, point_partition(SWAP), trivial_cover(SWAP), n=2, delta=Fraction(1, 2)
    )
    for w in range(SWAP.size):
        covered = set()
        for y in se.separated[w]:
            covered |= bowen_ball(SWAP, w, y, se.n, se.deltas)
        assert se.chosen[w] <= covered


def test_separated_with_everything_apart():
    # tiny radii separate every pair: the separated set is the whole fiber
    se = separated_empirical(
        CYCLE, point_partition(CYCLE), trivial_cover(CYCLE), n=1, delta=Fraction(1, 3)
    )
    assert set(se.separated[0]) == set(CYCLE.fibers[0])
    assert len(se.separated[0]) == se.counts[0]


def separated_choice_by_subcovers(rds, p, q, n, delta):
    """Oracle: the frozenset scan that ``separated_empirical`` replaced, one
    ``minimal_subcover`` per conditioning element and fiber."""
    pn, qn = iterate_cover(p, rds, n), iterate_cover(q, rds, n)
    chosen, anchors, separated, counts = [], [], [], []
    for w in range(rds.size):
        best_sec, best_count = None, 0
        for elem in qn.elements:
            if elem.sections[w]:
                c = minimal_subcover(elem, pn, w, rds)
                if c > best_count:
                    best_sec, best_count = elem.sections[w], c
        sep = []
        for x in sort_points(best_sec):
            if all(_separation_at_least_one(rds, w, x, y, n, [delta] * rds.size) for y in sep):
                sep.append(x)
        chosen.append(best_sec)
        anchors.append(sort_points(best_sec)[0])
        separated.append(tuple(sep))
        counts.append(best_count)
    isolate = None
    if isinstance(p, RandomPartition):
        isolate = all(
            sum(1 for y in separated[w] if y in sec) <= 1 for w in range(rds.size) for sec in pn.sections(w)
        )
    return tuple(chosen), tuple(anchors), tuple(separated), tuple(counts), isolate


def test_separated_choice_matches_subcover_scan():
    for trial in range(60):
        rng = _rng(57, trial)
        rds = random_system(rng, max_fiber=5, with_metric=True)
        p, q = (rng.choice([random_cover, random_partition])(rng, rds) for _ in range(2))
        n, delta = rng.randint(1, 3), rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
        se = separated_empirical(rds, p, q, n, delta)
        got = (se.chosen, se.anchors, se.separated, se.counts, se.atoms_isolate_separated)
        assert got == separated_choice_by_subcovers(rds, p, q, n, delta), trial


def test_separation_is_leaving_a_bowen_ball():
    # per-base radii, n = 0 included (nothing is separated, every ball is the fiber)
    radii = [Fraction(1, 2), Fraction(1), Fraction(9, 8), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
    for trial in range(80):
        rng = _rng(67, trial)
        rds = random_system(rng, max_fiber=5, with_metric=True)
        n, deltas = rng.randint(0, 3), [rng.choice(radii) for _ in range(rds.size)]
        for w in range(rds.size):
            for y in rds.fibers[w]:
                ball = bowen_ball(rds, w, y, n, deltas)
                for x in rds.fibers[w]:
                    assert _separation_at_least_one(rds, w, x, y, n, deltas) == (x not in ball), trial
        p, q = (rng.choice([random_cover, random_partition])(rng, rds) for _ in range(2))
        n = max(n, 1)
        se = separated_empirical(rds, p, q, n, deltas)
        for w in range(rds.size):
            sep = []
            for x in sort_points(se.chosen[w]):
                if all(_separation_at_least_one(rds, w, x, y, n, deltas) for y in sep):
                    sep.append(x)
            assert se.separated[w] == tuple(sep), trial


def pair_support_mass_by_loop(mu, q):
    """Oracle: the mass of the pairs that lie together in a section of ``q``."""
    together = {(w, x, y) for w in range(q.size) for s in q.sections(w) for x in s for y in s}
    return sum((v for w, ws in enumerate(mu.weights) for (x, y), v in ws.items() if (w, x, y) in together), Fraction(0))


def test_separated_average_matches_the_pushforward_mixture():
    # mu_n is one numerator pass; the oracle mixes n skew_pushforward
    # iterates of the anchor-by-separated-point measure, each of weight 1/n
    seen = set()
    for trial in range(60):
        rng = _rng(151, trial)
        rds = random_system(rng, max_fiber=4, with_metric=True)
        p, q = (rng.choice([random_cover, random_partition])(rng, rds) for _ in range(2))
        n, delta = rng.randint(1, 6), rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])
        se = separated_empirical(rds, p, q, n, delta)
        pair = se.pair.system
        sigma = FiberedMeasure(
            tuple({(a, y): m / len(sep) for y in sep} for a, sep, m in zip(se.anchors, se.separated, rds.base.prob))
        )
        mu_n = average_by_pushforwards(sigma, pair, n)
        limit = cesaro_limit(mu_n, pair)
        assert [list(ws.items()) for ws in se.mu_n.weights] == [list(ws.items()) for ws in mu_n.weights], trial
        assert measures_equal(se.mu_limit, limit), trial
        assert se.mu_n_defect == invariance_defect(mu_n, pair), trial
        assert se.support_mass_mu_n == pair_support_mass_by_loop(mu_n, q), trial
        assert se.support_mass_limit == pair_support_mass_by_loop(limit, q), trial
        seen |= {("n", n), ("partition", isinstance(p, RandomPartition)), ("zero mass", 0 in rds.base.prob)}
    assert seen >= {("n", n) for n in range(1, 7)} | {(k, b) for k in ("partition", "zero mass") for b in (True, False)}


def cesaro_limit_by_loop(nu, rds):
    """Oracle: the Cesaro limit with its own accumulation loop."""
    cycles, terminal = _cycle_structure(rds)
    acc = [{} for _ in range(rds.size)]
    for w in range(rds.size):
        for x, v in nu.weights[w].items():
            if v == 0:
                continue
            cycle = cycles[terminal[(w, x)]]
            for cw, cx in cycle:
                acc[cw][cx] = acc[cw].get(cx, Fraction(0)) + v / len(cycle)
    return FiberedMeasure(tuple(acc))


def uniform_lift_by_loop(pi, mu):
    """Oracle: the uniform lift that ``lift_invariant`` projects, with its own
    accumulation loop."""
    acc = [{} for _ in range(pi.source.size)]
    for w in range(pi.source.size):
        for x, v in mu.weights[w].items():
            if v == 0:
                continue
            pre = sort_points(pi.preimage(w, x))
            for y in pre:
                acc[w][y] = acc[w].get(y, Fraction(0)) + v / len(pre)
    return FiberedMeasure(tuple(acc))


def test_cesaro_and_lift_match_their_loops():
    for trial in range(100):
        rng = _rng(79, trial)
        rds = random_system(rng, max_fiber=4)
        nu = mix([(Fraction(1, 2), random_measure(rng, rds, denom=2)) for _ in range(2)])
        assert cesaro_limit(nu, rds).weights == cesaro_limit_by_loop(nu, rds).weights, trial
        pi = extend_with_tags(rds, tags=rng.randint(1, 3), rotate=rng.random() < 0.5)
        mu = cesaro_limit(nu, rds)
        want = cesaro_limit_by_loop(uniform_lift_by_loop(pi, mu), pi.source)
        assert lift_invariant(pi, mu).weights == want.weights, trial


def test_diagonal_measure_on_cycle():
    res = diagonal_measure(
        CYCLE,
        point_partition(CYCLE),
        point_partition(CYCLE),
        n=2,
        delta=Fraction(1),
        entropy_depth=4,
    )
    assert res.invariance == 0
    assert res.support_diagonal is True
    assert res.entropy_zero
    assert res.entropy.values == (0.0, 0.0, 0.0, 0.0)
    # uniform over the diagonal cycle
    assert dict(res.measure.weights[0]) == {(p, p): Fraction(1, 4) for p in CYCLE.fibers[0]}


def test_diagonal_measure_on_swap():
    res = diagonal_measure(
        SWAP,
        point_partition(SWAP),
        point_partition(SWAP),
        n=2,
        delta=Fraction(1, 2),
        entropy_depth=3,
    )
    assert res.invariance == 0
    assert res.support_diagonal is True
    assert res.entropy_zero


def test_vertex_enumeration_budget():
    import pytest as _pytest

    from rdstail import BudgetExceededError, Budgets

    big = cycle_system(length=30)
    with _pytest.raises(BudgetExceededError):
        vertex_enumeration(big, Budgets(polytope_points=24))


def test_separated_reports_atom_isolation():
    se = separated_empirical(
        SWAP, point_partition(SWAP), trivial_cover(SWAP), n=2, delta=Fraction(1, 2)
    )
    # singleton atoms hold one point each, so isolation is automatic
    assert se.atoms_isolate_separated is True
    from rdstail import RandomCover, RandomSet

    loose = RandomCover(
        (
            RandomSet((frozenset({"a", "b"}), frozenset({"c", "d"}))),
            RandomSet((frozenset({"a"}), frozenset({"c"}))),
        )
    )
    se2 = separated_empirical(SWAP, loose, trivial_cover(SWAP), n=1, delta=Fraction(1, 2))
    assert se2.atoms_isolate_separated is None  # refining family is not a partition
