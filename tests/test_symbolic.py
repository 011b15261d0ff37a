"""Driven subshift backend: word counts against recurrence and enumeration
oracles, cylinder-cover sequences against the set-cover cross-check."""

import math
import random
from fractions import Fraction
from collections import Counter
from itertools import compress, count, islice, product as iter_product, repeat

import pytest

from rdstail import (
    CylinderCoverSpec,
    DomainError,
    DrivingSystem,
    PreconditionError,
    RandomSFT,
    SFTComponent,
    admissible_word_count,
    relative_word_count,
    sft_tail_sequence,
)
from rdstail.counting import min_cover_size
from rdstail import symbolic
from rdstail.symbolic import _depth_counts, _extension_count, _shared_factors

POINT_BASE = DrivingSystem((Fraction(1),), (0,))
FULL2 = SFTComponent(2, (((1, 1), (1, 1)),))
GOLDEN = SFTComponent(2, (((1, 1), (1, 0)),))


def enumerate_words(sft: RandomSFT, component: int, omega: int, length: int) -> list[tuple[int, ...]]:
    """All admissible words of one component, in lexicographic order."""
    comp = sft.components[component]
    words: list[tuple[int, ...]] = [(s,) for s in range(comp.alphabet)]
    for i in range(length - 1):
        m = comp.matrices[sft.base.theta_iterate(omega, i)]
        words = [w + (t,) for w in words for t in range(comp.alphabet) if m[w[-1]][t]]
    return words


def relative_word_count_enumerated(
    sft: RandomSFT, r_spec: CylinderCoverSpec, q_spec: CylinderCoverSpec, n: int, omega: int
) -> int:
    """Cross-validation oracle: materialize every admissible joint
    configuration on the full span and run the exact set-cover engine on the
    induced cylinder incidence.  Equal to ``relative_word_count`` by
    construction; only usable at small sizes."""
    if not q_spec.components <= r_spec.components:
        raise PreconditionError(
            "cylinder_refinement", "the counted family must resolve every conditioned component"
        )
    comps = sorted(r_spec.components)
    if not comps:
        return 1
    span = max(r_spec.span(n), q_spec.span(n) if q_spec.components else 1)
    configs = list(iter_product(*(enumerate_words(sft, c, omega, span) for c in comps)))

    def key(config, members: frozenset[int], upto: int):
        return tuple(config[comps.index(c)][:upto] for c in sorted(members))

    r_keys = sorted({key(cfg, r_spec.components, r_spec.span(n)) for cfg in configs})
    r_index = {k: i for i, k in enumerate(r_keys)}
    masks = [0] * len(r_keys)
    universe = 0
    by_q: dict[tuple, int] = {}
    for bit, cfg in enumerate(configs):
        universe |= 1 << bit
        masks[r_index[key(cfg, r_spec.components, r_spec.span(n))]] |= 1 << bit
        if q_spec.components:
            qk = key(cfg, q_spec.components, q_spec.span(n))
            by_q[qk] = by_q.get(qk, 0) | (1 << bit)
    targets = by_q.values() if q_spec.components else [universe]
    return max(min_cover_size(t, masks) for t in targets)


def _mat_mul(a, b):
    size = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )


def orbit_products(sft: RandomSFT, component: int, omega: int, length: int):
    """Products of 0, 1, ..., ``length`` consecutive transition matrices
    along the base orbit starting at ``omega``, the identity first."""
    comp = sft.components[component]
    product = tuple(tuple(int(i == j) for j in range(comp.alphabet)) for i in range(comp.alphabet))
    yield product
    for _ in range(length):
        product = _mat_mul(product, comp.matrices[omega])
        omega = sft.base.theta[omega]
        yield product


def matrix_depth_counts(
    sft: RandomSFT, r_spec: CylinderCoverSpec, q_spec: CylinderCoverSpec, n_max: int, omega: int
) -> list[int]:
    """Reference for the vector walks: relative word counts at depths
    1..n_max from full matrix products.  A free component contributes the
    total of its span product, a shared one the largest row sum of the
    product over the window past the conditioning span."""
    counts = [1] * n_max
    for c in sorted(r_spec.components):
        if c in q_spec.components:
            steps = max(0, r_spec.depth - q_spec.depth)
            start = sft.base.theta_iterate(omega, q_spec.depth - 1)
            factors = {}  # the window product depends only on its start
            for k in range(n_max):
                if start not in factors:
                    *_, window = orbit_products(sft, c, start, steps)
                    factors[start] = max(sum(row) for row in window)
                counts[k] *= factors[start]
                start = sft.base.theta[start]
        else:
            products = list(orbit_products(sft, c, omega, r_spec.span(n_max) - 1))
            for k in range(n_max):
                counts[k] *= sum(map(sum, products[r_spec.span(k + 1) - 1]))
    return counts


def golden_counts(n_max: int) -> list[int]:
    """Independent oracle: the two-term recurrence with w1=2, w2=3."""
    w = [2, 3]
    while len(w) < n_max:
        w.append(w[-1] + w[-2])
    return w[:n_max]


def test_full_shift_counts():
    sft = RandomSFT(POINT_BASE, (FULL2,))
    assert admissible_word_count(sft, 0, 0, 1) == 2
    assert admissible_word_count(sft, 0, 0, 5) == 32


def test_golden_mean_counts_match_recurrence():
    sft = RandomSFT(POINT_BASE, (GOLDEN,))
    oracle = golden_counts(20)
    for n in range(1, 21):
        assert admissible_word_count(sft, 0, 0, n) == oracle[n - 1]
    assert admissible_word_count(sft, 0, 0, 5) == 13
    assert oracle[19] == 17711
    # F(5002) and F(10002), far past the depth where a per-step recursion
    # would exhaust the default recursion limit
    assert admissible_word_count(sft, 0, 0, 5000) == golden_counts(5000)[-1]
    assert admissible_word_count(sft, 0, 0, 10_000) == golden_counts(10_000)[-1]


def test_word_count_matches_enumeration_on_driven_base():
    rng = random.Random(7)
    for _ in range(10):
        size = rng.randint(1, 3)
        theta = [rng.randrange(size) for _ in range(size)]
        cycles_mass = [Fraction(1, size)] * size
        # make the base mass uniform-invariant only when theta is a bijection;
        # the word count does not involve the masses at all
        base = DrivingSystem(tuple([Fraction(1, size)] * size), tuple(theta)) if sorted(theta) == list(range(size)) else DrivingSystem(tuple([Fraction(1)] + [Fraction(0)] * (size - 1)), tuple(theta))
        alphabet = rng.randint(2, 3)
        mats = []
        for _ in range(size):
            while True:
                m = tuple(
                    tuple(rng.randint(0, 1) for _ in range(alphabet)) for _ in range(alphabet)
                )
                if all(any(row) for row in m) and all(
                    any(m[i][j] for i in range(alphabet)) for j in range(alphabet)
                ):
                    mats.append(m)
                    break
        sft = RandomSFT(base, (SFTComponent(alphabet, tuple(mats)),))
        assert sft.validate() == []
        for omega in range(size):
            for n in range(1, 6):
                assert admissible_word_count(sft, 0, omega, n) == len(
                    enumerate_words(sft, 0, omega, n)
                )


def test_submultiplicativity_and_full_shift_equality():
    sft = RandomSFT(POINT_BASE, (GOLDEN,))
    for n in range(1, 10):
        assert admissible_word_count(sft, 0, 0, n + 1) <= 2 * admissible_word_count(sft, 0, 0, n)
    full = RandomSFT(POINT_BASE, (FULL2,))
    for n in range(1, 6):
        for m in range(1, 6):
            assert admissible_word_count(full, 0, 0, n + m) == admissible_word_count(
                full, 0, 0, n
            ) * admissible_word_count(full, 0, 0, m)


def test_two_full_shifts_product_gives_log2():
    sft = RandomSFT(POINT_BASE, (FULL2, FULL2))
    r_spec, q_spec = CylinderCoverSpec(frozenset({0, 1}), 1), CylinderCoverSpec(frozenset({0}), 1)
    est = sft_tail_sequence(sft, r_spec, q_spec, 12)
    assert est.subadditive_ok
    assert all(abs(r - math.log(2)) <= 1e-9 for r in est.ratios)
    assert relative_word_count(sft, r_spec, q_spec, 5000, 0) == 2**5000


def test_equal_specs_give_exact_zero():
    sft = RandomSFT(POINT_BASE, (GOLDEN,))
    spec = CylinderCoverSpec(frozenset({0}), 1)
    est = sft_tail_sequence(sft, spec, spec, 10)
    assert est.values == tuple(0.0 for _ in range(10))


def test_empty_counted_family_counts_one_at_every_depth():
    sft = RandomSFT(POINT_BASE, (GOLDEN,))
    empty = CylinderCoverSpec(frozenset())
    for n in (1, 2, 5000):
        assert relative_word_count(sft, empty, empty, n, 0) == 1
        assert next(_depth_counts(sft, empty, empty, 0, n)) == 1
    assert sft_tail_sequence(sft, empty, empty, 12).values == (0.0,) * 12


def test_sweeps_reject_depth_zero():
    sft = RandomSFT(POINT_BASE, (GOLDEN,))
    spec, empty = CylinderCoverSpec(frozenset({0})), CylinderCoverSpec(frozenset())
    for r in (spec, empty):
        with pytest.raises(ValueError):
            sft_tail_sequence(sft, r, empty, 0)
        for n in (0, -1):
            with pytest.raises(ValueError):
                relative_word_count(sft, r, empty, n, 0)


def test_word_count_refuses_a_component_out_of_range():
    # component -1 counted the last component's words
    sft = RandomSFT(POINT_BASE, (GOLDEN, FULL2))
    assert admissible_word_count(sft, 1, 0, 3) == 8
    for component in (-1, 2):
        with pytest.raises(DomainError, match=f"component={component} is outside 0..1"):
            admissible_word_count(sft, component, 0, 3)


def test_golden_mean_against_trivial_conditioning():
    sft = RandomSFT(POINT_BASE, (GOLDEN,))
    est = sft_tail_sequence(
        sft, CylinderCoverSpec(frozenset({0}), 1), CylinderCoverSpec(frozenset(), 1), 20
    )
    oracle = golden_counts(20)
    for n in range(1, 21):
        assert abs(est.values[n - 1] - math.log(oracle[n - 1])) <= 1e-9
    assert abs(est.ratios[19] - math.log(17711) / 20) <= 1e-9
    assert abs(est.ratios[19] - math.log((1 + math.sqrt(5)) / 2)) < 0.02


def test_refinement_precondition():
    sft = RandomSFT(POINT_BASE, (FULL2, FULL2))
    with pytest.raises(PreconditionError):
        relative_word_count(
            sft, CylinderCoverSpec(frozenset({0}), 1), CylinderCoverSpec(frozenset({1}), 1), 2, 0
        )


def _random_valid_matrix(rng, alphabet):
    while True:
        m = tuple(tuple(rng.randint(0, 1) for _ in range(alphabet)) for _ in range(alphabet))
        if all(any(row) for row in m) and all(
            any(m[i][j] for i in range(alphabet)) for j in range(alphabet)
        ):
            return m


def test_matrix_counts_match_enumeration_cross_check():
    rng = random.Random(23)
    for _ in range(12):
        size = rng.randint(1, 2)
        theta = list(range(size))
        rng.shuffle(theta)
        base = DrivingSystem(tuple([Fraction(1, size)] * size), tuple(theta))
        comps = tuple(
            SFTComponent(2, tuple(_random_valid_matrix(rng, 2) for _ in range(size)))
            for _ in range(rng.randint(1, 2))
        )
        sft = RandomSFT(base, comps)
        all_comps = frozenset(range(len(comps)))
        q_opts = [frozenset(), all_comps, frozenset({0})]
        for q_members in q_opts:
            if not q_members <= all_comps:
                continue
            r_spec = CylinderCoverSpec(all_comps, rng.choice([1, 2]))
            q_spec = CylinderCoverSpec(q_members, rng.choice([1, 2]))
            for omega in range(size):
                for n in range(1, 5):
                    fast = relative_word_count(sft, r_spec, q_spec, n, omega)
                    slow = relative_word_count_enumerated(sft, r_spec, q_spec, n, omega)
                    assert fast == slow


def test_sequences_subadditive_on_random_driven_shifts():
    rng = random.Random(314)
    for _ in range(60):
        size = rng.randint(1, 3)
        theta = list(range(size))
        rng.shuffle(theta)
        base = DrivingSystem(tuple([Fraction(1, size)] * size), tuple(theta))
        ncomp = rng.randint(1, 2)
        comps = tuple(
            SFTComponent(2, tuple(_random_valid_matrix(rng, 2) for _ in range(size)))
            for _ in range(ncomp)
        )
        sft = RandomSFT(base, comps)
        allc = frozenset(range(ncomp))
        r = CylinderCoverSpec(allc, rng.choice([1, 2]))
        q = CylinderCoverSpec(rng.choice([frozenset(), allc, frozenset({0})]), rng.choice([1, 2]))
        est = sft_tail_sequence(sft, r, q, 8)
        assert est.subadditive_ok
        # the sweep's one walk per base point against per-depth point counts
        for n, value in enumerate(est.values, 1):
            assert value == sum(
                float(base.prob[w]) * math.log(relative_word_count(sft, r, q, n, w))
                for w in range(size)
            )


def test_validate_catches_dead_symbols():
    dead_row = SFTComponent(2, (((0, 0), (1, 1)),))
    sft = RandomSFT(POINT_BASE, (dead_row,))
    assert any("row 0" in v for v in sft.validate())
    dead_col = SFTComponent(2, (((1, 0), (1, 0)),))
    assert any("column 1" in v for v in RandomSFT(POINT_BASE, (dead_col,)).validate())


def _random_driven_sft(rng):
    """A base map that need not be a bijection, with the mass spread evenly
    over the cycle that point 0 falls into and zero mass elsewhere (so
    transient points carry none), and components on alphabets 1-3."""
    size = rng.randint(1, 4)
    theta = tuple(rng.randrange(size) for _ in range(size))
    path = [0]
    while theta[path[-1]] not in path:
        path.append(theta[path[-1]])
    cycle = path[path.index(theta[path[-1]]):]
    prob = tuple(Fraction(1, len(cycle)) if w in cycle else Fraction(0) for w in range(size))
    comps = []
    for _ in range(rng.randint(1, 2)):
        alphabet = rng.randint(1, 3)
        comps.append(SFTComponent(alphabet, tuple(_random_valid_matrix(rng, alphabet) for _ in range(size))))
    return RandomSFT(DrivingSystem(prob, theta), tuple(comps))


def test_vector_walks_match_matrix_products():
    rng = random.Random(2024)
    n_max = 200
    probes = (1, 2, 3, 7, 50, n_max)
    words_spec = (CylinderCoverSpec(frozenset({0})), CylinderCoverSpec(frozenset()))
    for _ in range(30):
        sft = _random_driven_sft(rng)
        assert sft.validate() == []
        for omega in range(sft.base.size):
            words = matrix_depth_counts(sft, *words_spec, n_max, omega)
            for n in probes:
                assert admissible_word_count(sft, 0, omega, n) == words[n - 1]
        comps = range(len(sft.components))
        spec_pairs = []
        for _ in range(2):
            r_members = frozenset(c for c in comps if rng.random() < 0.9)
            q_members = frozenset(c for c in r_members if rng.random() < 0.6)
            r = CylinderCoverSpec(r_members, rng.randint(1, 4))
            spec_pairs.append((r, CylinderCoverSpec(q_members, rng.randint(1, 4))))
        # every component shared over a window of two or three matrices
        spec_pairs.append((CylinderCoverSpec(frozenset(comps), 4), CylinderCoverSpec(frozenset(comps), rng.randint(1, 2))))
        for r, q in spec_pairs:
            weighted_logs = []
            for omega in range(sft.base.size):
                want = matrix_depth_counts(sft, r, q, n_max, omega)
                assert list(islice(_depth_counts(sft, r, q, omega), n_max)) == want
                for n in probes:
                    assert relative_word_count(sft, r, q, n, omega) == want[n - 1]
                if sft.base.prob[omega] != 0:
                    weighted_logs.append([float(sft.base.prob[omega]) * math.log(c) for c in want])
            est = sft_tail_sequence(sft, r, q, n_max)
            assert est.values == tuple(sum(column) for column in zip(*weighted_logs))


def walked_word_counts(sft: RandomSFT, component: int, omega: int):
    """Oracle for the jumps: the plain row walk, ``u <- u^T M_omega`` from
    all ones along the base orbit, one step per symbol.  It yields the
    numbers of admissible words of lengths 1, 2, ..."""
    comp = sft.components[component]
    columns = [tuple(zip(*m)) for m in comp.matrices]
    u = [1] * comp.alphabet
    while True:
        yield sum(u)
        u = [sum(compress(u, col)) for col in columns[omega]]
        omega = sft.base.theta[omega]


def walked_depth_counts(sft: RandomSFT, r_spec, q_spec, omega: int, first: int = 1):
    """Oracle for ``_depth_counts``: a free component by the plain walk from
    length 1, a shared one by ``_extension_count`` over the window of each
    depth, reached by stepping the base map."""
    steps = max(0, r_spec.depth - q_spec.depth)

    def shared(c):
        for n in count(first):
            yield _extension_count(sft, c, sft.base.theta_iterate(omega, q_spec.span(n) - 1), steps)

    streams = [repeat(1)]
    for c in sorted(r_spec.components):
        if c in q_spec.components:
            streams.append(shared(c))
        else:
            streams.append(islice(walked_word_counts(sft, c, omega), r_spec.span(first) - 1, None))
    return map(math.prod, zip(*streams))


def _random_jump_sft(rng, permutation: bool):
    """A permutation base, or a base map that is not one-to-one, so that
    some points have a preperiod; mass spread evenly over one cycle, and
    one or two components on alphabets 1-4."""
    if permutation:
        size = rng.randint(1, 5)
        theta = rng.sample(range(size), size)
    else:
        size = rng.randint(2, 6)
        theta = list(range(size))
        while len(set(theta)) == size:  # not one-to-one
            theta = [rng.randrange(size) for _ in range(size)]
    path = [0]
    while theta[path[-1]] not in path:
        path.append(theta[path[-1]])
    cycle = path[path.index(theta[path[-1]]):]
    prob = tuple(Fraction(1, len(cycle)) if w in cycle else Fraction(0) for w in range(size))
    comps = tuple(
        SFTComponent(a, tuple(_random_valid_matrix(rng, a) for _ in range(size)))
        for a in (rng.randint(1, 4) for _ in range(rng.randint(1, 2)))
    )
    return RandomSFT(DrivingSystem(prob, tuple(theta)), comps)


def test_jumps_match_the_plain_walk(monkeypatch):
    # which queries with a whole lap to jump took the cycle power: both
    # sides of the power-or-walk rule must occur
    built = []
    cycle_product = symbolic._cycle_product
    monkeypatch.setattr(symbolic, "_cycle_product", lambda *args: built.append(1) or cycle_product(*args))
    branches = Counter()
    rng = random.Random(1717)
    for trial in range(40):
        sft = _random_jump_sft(rng, permutation=trial % 2 == 0)
        assert sft.validate() == []
        comps = range(len(sft.components))
        for omega in range(sft.base.size):
            path, cycle = symbolic._orbit(sft.base, omega)
            assert sft.base.theta_iterate(omega, len(path) + len(cycle)) == cycle[0]
            walks = [list(islice(walked_word_counts(sft, c, omega), 300)) for c in comps]
            for n in {1, 2, 300, *rng.sample(range(1, 301), 6)}:
                for c in comps:
                    built.clear()
                    assert admissible_word_count(sft, c, omega, n) == walks[c][n - 1]
                    if n - 1 - len(path) >= len(cycle):
                        branches["power" if built else "walk"] += 1
            for _ in range(3):
                r_members = frozenset(c for c in comps if rng.random() < 0.8)
                r = CylinderCoverSpec(r_members, rng.randint(1, 4))
                q = CylinderCoverSpec(frozenset(c for c in r_members if rng.random() < 0.5), rng.randint(1, 4))
                first = rng.randint(1, 300)
                want = list(islice(walked_depth_counts(sft, r, q, omega, first), 5))
                assert list(islice(_depth_counts(sft, r, q, omega, first), 5)) == want
                assert relative_word_count(sft, r, q, first, omega) == want[0]
    assert branches["power"] > 50 and branches["walk"] > 50, branches


def test_shared_factors_are_extension_counts_at_every_depth(monkeypatch):
    counted = []
    extension_count = symbolic._extension_count
    monkeypatch.setattr(
        symbolic, "_extension_count", lambda sft, c, start, steps: counted.append(start) or extension_count(sft, c, start, steps)
    )
    rng = random.Random(99)
    for trial in range(20):
        sft = _random_jump_sft(rng, permutation=trial % 2 == 0)
        for c in range(len(sft.components)):
            for start in range(sft.base.size):
                steps = rng.randint(0, 5)
                counted.clear()
                got = list(islice(_shared_factors(sft, c, start, steps), 40))
                assert got == [extension_count(sft, c, sft.base.theta_iterate(start, k), steps) for k in range(40)]
                # one count per base point the window starts at
                assert sorted(counted) == sorted(set(sft.base.theta_iterate(start, k) for k in range(40)))


def fibonacci(n: int) -> int:
    """F(n) with F(1) = F(2) = 1, by fast doubling."""

    def pair(k):  # (F(k), F(k+1))
        if k == 0:
            return 0, 1
        a, b = pair(k // 2)
        c, d = a * (2 * b - a), a * a + b * b
        return (d, c + d) if k % 2 else (c, d)

    return pair(n)[0]


def test_deep_golden_mean_count_is_a_fibonacci_number():
    assert fibonacci(20) == golden_counts(18)[-1] == 6765
    sft = RandomSFT(POINT_BASE, (GOLDEN,))
    assert admissible_word_count(sft, 0, 0, 10**5) == fibonacci(10**5 + 2)


def test_deep_pairshift_count_is_a_power_of_two():
    sft = RandomSFT(POINT_BASE, (FULL2, FULL2))
    r_spec, q_spec = CylinderCoverSpec(frozenset({0, 1})), CylinderCoverSpec(frozenset({0}))
    assert relative_word_count(sft, r_spec, q_spec, 10**5, 0) == 2**100000


def test_deep_point_query_on_a_preperiodic_base():
    # 0 -> 1 -> 2 -> 3 -> 1: point 0 has a preperiod of one, and the 99,998
    # steps after it are 33,332 laps of the 3-cycle and two steps more.  The
    # cycle's product [[1, 1], [0, 1]] keeps the counts small, so that the
    # walk below stays fast.
    one, ident = ((1, 1), (0, 1)), ((1, 0), (0, 1))
    matrices = (((1, 1), (1, 0)), one, ident, ident)
    base = DrivingSystem((Fraction(0),) + (Fraction(1, 3),) * 3, (1, 2, 3, 1))
    sft = RandomSFT(base, (SFTComponent(2, matrices),))
    n = 10**5
    # the plain walk with the two-symbol step written out: the generic
    # walk takes too long at this depth
    u0, u1, omega = 1, 1, 0
    for _ in range(n - 1):
        (a, b), (c, d) = matrices[omega]
        u0, u1, omega = a * u0 + c * u1, b * u0 + d * u1, base.theta[omega]
    assert admissible_word_count(sft, 0, 0, n) == u0 + u1
    assert [admissible_word_count(sft, 0, 0, k) for k in range(1, 40)] == list(islice(walked_word_counts(sft, 0, 0), 39))
