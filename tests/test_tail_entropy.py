"""Integrated log-count sequences, brackets, and the power rule."""

import math
import random
from itertools import repeat
from operator import add, gt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdstail import (
    BudgetExceededError,
    Budgets,
    EntropyEstimate,
    RandomCover,
    RandomSet,
    cover_conditional_entropy,
    integrated_log_count,
    point_partition,
    power_rule_check,
    swap_system,
    tail_entropy_estimate,
    tail_entropy_total,
    trivial_cover,
)
from rdstail import CylinderCoverSpec, DrivingSystem, RandomSFT, SFTComponent, sft_tail_sequence
from rdstail.tail_entropy import _uncertified_rows, check_subadditive
from rdstail.verify import _rng, random_cover, random_system

SWAP = swap_system()
TOL = 1e-9


def test_integrated_zero_when_equal():
    pts = point_partition(SWAP)
    for n in (1, 2, 4):
        assert integrated_log_count(SWAP, pts, pts, n) == 0.0


def test_integrated_hand_value():
    a1 = integrated_log_count(SWAP, point_partition(SWAP), trivial_cover(SWAP), 1)
    assert abs(a1 - math.log(2)) <= TOL


def test_integrated_zero_when_conditioning_refines():
    # every conditioning piece sits inside a counted piece: single elements
    # suffice everywhere
    r = RandomCover(
        (
            RandomSet((frozenset({"a", "b"}), frozenset({"c", "d"}))),
            RandomSet((frozenset({"b"}), frozenset({"d"}))),
        )
    )
    q = point_partition(SWAP)
    for n in (1, 2, 3):
        assert integrated_log_count(SWAP, r, q, n) == 0.0


def test_estimate_on_swap_matches_hand_value():
    est = tail_entropy_estimate(SWAP, point_partition(SWAP), trivial_cover(SWAP), 16)
    assert est.subadditive_ok
    assert abs(est.value - math.log(2) / 16) <= TOL
    assert est.n_max == est.requested == 16


def test_estimate_running_inf_nonincreasing():
    est = tail_entropy_estimate(SWAP, point_partition(SWAP), trivial_cover(SWAP), 8)
    ri = est.running_inf
    assert all(ri[i + 1] <= ri[i] + TOL for i in range(len(ri) - 1))
    assert all(v >= -TOL for v in est.values)


def test_empty_estimate_is_rejected():
    with pytest.raises(ValueError, match="at least one depth"):
        EntropyEstimate(values=(), requested=0)
    pts, triv = point_partition(SWAP), trivial_cover(SWAP)
    for n_max in (0, -2):
        with pytest.raises(ValueError, match="at least one depth"):
            tail_entropy_estimate(SWAP, pts, triv, n_max)
        with pytest.raises(ValueError, match="at least one depth"):
            cover_conditional_entropy(SWAP, triv, [pts], n_max)


def test_synthetic_linear_sequence():
    est = EntropyEstimate(values=tuple(n * math.log(2) for n in range(1, 9)), requested=8)
    assert est.subadditive_ok
    assert all(abs(r - math.log(2)) <= TOL for r in est.running_inf)


def test_fekete_bracket_equals_min_ratio_on_synthetic():
    rng = random.Random(99)
    for _ in range(20):
        raw = [rng.uniform(0.1, 3.0) for _ in range(10)]
        vals: list[float] = []
        for n in range(1, 11):
            best = raw[n - 1]
            for i in range(1, n):
                best = min(best, vals[i - 1] + vals[n - i - 1])
            vals.append(best)
        est = EntropyEstimate(values=tuple(vals), requested=len(vals))
        assert est.subadditive_ok
        assert est.value == min(est.ratios)


def test_sweeps_raise_on_budget():
    # the two-element iterate of the points at depth 2 is past one element;
    # no sweep returns the depth-1 value instead
    tight = Budgets(cover_elements=1)
    pts, triv = point_partition(SWAP), trivial_cover(SWAP)
    sweeps = {
        "tail_entropy_estimate": lambda: tail_entropy_estimate(SWAP, pts, triv, 6, tight),
        "cover_conditional_entropy": lambda: cover_conditional_entropy(SWAP, triv, [pts], 6, tight),
        "tail_entropy_total": lambda: tail_entropy_total(SWAP, [triv], [pts], 6, tight),
    }
    for name, sweep in sweeps.items():
        with pytest.raises(BudgetExceededError) as stop:
            sweep()
        assert stop.value.depth == 2, name


def test_cover_conditional_entropy():
    pts = point_partition(SWAP)
    triv = trivial_cover(SWAP)
    assert cover_conditional_entropy(SWAP, triv, [triv], 4) == 0.0
    val = cover_conditional_entropy(SWAP, triv, [pts], 8)
    assert abs(val - math.log(2) / 8) <= TOL
    bigger = cover_conditional_entropy(SWAP, triv, [pts, triv], 8)
    assert bigger >= val - TOL


def test_tail_entropy_total_exact_zero_with_singletons():
    pts = point_partition(SWAP)
    triv = trivial_cover(SWAP)
    assert tail_entropy_total(SWAP, [pts, triv], [pts, triv], 6) == 0.0
    single = tail_entropy_total(SWAP, [triv], [pts], 8)
    assert abs(single - cover_conditional_entropy(SWAP, triv, [pts], 8)) <= TOL


def test_power_rule_on_swap():
    res = power_rule_check(SWAP, point_partition(SWAP), trivial_cover(SWAP), m=2, n=2)
    assert res.ok and not res.mismatches
    res1 = power_rule_check(SWAP, point_partition(SWAP), trivial_cover(SWAP), m=1, n=3)
    assert res1.ok


def test_power_rule_with_equal_covers_all_ones():
    pts = point_partition(SWAP)
    res = power_rule_check(SWAP, pts, pts, m=3, n=2)
    assert res.ok
    assert set(res.stepped.per_omega) == {1}
    assert set(res.direct.per_omega) == {1}


def test_power_rule_random_scenarios():
    for trial in range(15):
        rds = random_system(_rng(41, trial))
        r = random_cover(_rng(42, trial), rds)
        q = random_cover(_rng(43, trial), rds)
        for m in (1, 2):
            for n in (1, 2):
                assert power_rule_check(rds, r, q, m=m, n=n).ok


def test_singletons_dominate_every_refining_family_member():
    for trial in range(8):
        rds = random_system(_rng(47, trial))
        r = random_cover(_rng(48, trial), rds)
        q = random_cover(_rng(49, trial), rds)
        top = tail_entropy_estimate(rds, point_partition(rds), q, 3)
        other = tail_entropy_estimate(rds, r, q, 3)
        for n in range(3):
            assert other.values[n] <= top.values[n] + TOL


def test_matched_depth_dominance_against_trivial():
    # the trivial conditioning gives the largest terms at every depth
    for trial in range(10):
        rds = random_system(_rng(44, trial))
        r = random_cover(_rng(45, trial), rds)
        q = random_cover(_rng(46, trial), rds)
        for n in (1, 2, 3):
            free = integrated_log_count(rds, r, trivial_cover(rds), n)
            cond = integrated_log_count(rds, r, q, n)
            assert free >= cond - TOL


def check_subadditive_all_pairs(values, tol=TOL):
    """Reference for ``check_subadditive``: every ordered pair (i, j), each
    compared as a(i+j) > (a(i) + a(j)) + tol.  Row i pairs a(i) with every
    a(j), j = 1..N-i, in one ``map``, so sequences of thousands of terms
    stay cheap to check."""
    if any(v < -tol for v in values):
        return False
    n = len(values)
    for i in range(1, n + 1):
        sums = map(add, map(add, repeat(values[i - 1]), values[: n - i]), repeat(tol))
        if any(map(gt, values[i:], sums)):
            return False
    return True


# terms that sit on the decision boundaries: exact ties at the tolerance and
# one ulp past it, small negatives around -tol, NaN and both infinities
EDGE_TERMS = st.sampled_from([
    0.0, TOL, math.nextafter(TOL, math.inf), 2 * TOL, 0.5, 1.0, 1.5, math.log(2),
    -TOL, -TOL / 2, math.nextafter(-TOL, -math.inf), -1e-3,
    math.nan, math.inf, -math.inf,
])
TERMS = st.one_of(EDGE_TERMS, st.floats(min_value=-2 * TOL, max_value=4.0), st.floats())


@st.composite
def near_linear(draw):
    """a_n = n * x plus a few boundary nudges: many pairs tie exactly."""
    length = draw(st.integers(0, 40))
    x = draw(st.sampled_from([0.0, TOL, 0.25, math.log(2), 1.0]))
    values = [k * x for k in range(1, length + 1)]
    for _ in range(draw(st.integers(0, 3))):
        if values:
            values[draw(st.integers(0, length - 1))] += draw(EDGE_TERMS)
    return values


def log_fibonacci(length):
    """log F(n+2) for n = 1..length: the golden-mean word counts."""
    counts = [2, 3]
    while len(counts) < length:
        counts.append(counts[-1] + counts[-2])
    return [math.log(c) for c in counts[:length]]


def plant_tie(values, i, j, tol, past):
    """Set a(i+j) to (a(i) + a(j)) + tol, the last value that passes, or
    one ulp above it, the first that fails."""
    edge = (values[i - 1] + values[j - 1]) + tol
    values[i + j - 1] = math.nextafter(edge, math.inf) if past else edge


@st.composite
def long_sequences(draw):
    """500-2500 terms of n*h plus a bounded periodic or decaying offset, or
    log-Fibonacci terms, with exact and one-ulp-past ties planted in late
    rows.  The slopes put the rounding margin on both sides of the tolerance
    1e-9: slope 1 keeps it below 4e-11 and slope 300 lifts it past 1e-9."""
    length = draw(st.integers(500, 2500))
    h = draw(st.sampled_from([0.0, 0.25, math.log(2), 1.0, 300.0]))
    c = draw(st.sampled_from([0.0, TOL, 0.01, 1.0]))
    shape = draw(st.sampled_from(["periodic", "cos", "decaying", "fibonacci"]))
    period = draw(st.integers(2, 7))
    if shape == "fibonacci":
        values = log_fibonacci(length)
    elif shape == "periodic":
        values = [k * h + c * (k % period) / period for k in range(1, length + 1)]
    elif shape == "cos":
        values = [k * h + c * math.cos(k) ** 2 for k in range(1, length + 1)]
    else:
        values = [k * h + c * 0.9**k for k in range(1, length + 1)]
    for _ in range(draw(st.integers(0, 2))):
        i = length // 2 - draw(st.integers(0, 8))
        j = draw(st.sampled_from([i, length - i, (length + 1) // 2]))
        plant_tie(values, i, j, TOL, draw(st.booleans()))
    return values


@given(
    st.one_of(st.lists(TERMS, max_size=40), near_linear(), near_linear(), long_sequences()),
    st.sampled_from([TOL, 0.0]),
)
@settings(max_examples=300, deadline=None)
def test_check_subadditive_matches_all_pairs(values, tol):
    expected = check_subadditive_all_pairs(values, tol)
    assert check_subadditive(values, tol) == expected
    assert check_subadditive(tuple(values), tol) == expected


def convex_offsets(length, c=0.5, slope=math.log(2)):
    """n*slope + c/n: subadditive, and in the pairs of one term a(k) the
    slack is smallest for the middle pair, in the pairs of one a(j) for the
    last row, so one raised or lowered term breaks a single pair."""
    return [k * slope + c / k for k in range(1, length + 1)]


def plant_low_tie(values, i, j, tol, past):
    """Lower a(j), and with it a(i) when i = j, to the smallest value with
    a(i+j) <= (a(i) + a(j)) + tol, or one ulp below it."""
    target, other = values[i + j - 1], None if i == j else values[i - 1]

    def passes(x):
        return target <= ((x if other is None else other) + x) + tol

    x = (target - tol) / 2 if other is None else target - tol - other
    while passes(x):
        x = math.nextafter(x, -math.inf)
    while not passes(x):
        x = math.nextafter(x, math.inf)
    values[j - 1] = math.nextafter(x, -math.inf) if past else x


@pytest.mark.parametrize("length", [600, 601])
def test_row_certificate_edges(length):
    """A violation one ulp past the tolerance at an end of one row is left
    to the exact loop, so the verdict is False; the tie itself passes.
    Raising a(2i) breaks the first pair of row i (j = i, the first suffix
    maximum); lowering a(i) breaks the same pair from the inner end of the
    window, where b(i) is its minimum; lowering a(N-i) breaks the last pair
    (j = N-i, the outer end of the window)."""
    rows = length // 2
    for i in (1, 2, rows // 3, rows - 1, rows):
        plants = [(i, plant_tie), (i, plant_low_tie), (length - i, plant_low_tie)]
        for j, plant in plants[: 3 if length - i != i else 2]:
            for past in (False, True):
                values = convex_offsets(length)
                plant(values, i, j, TOL, past)
                assert check_subadditive_all_pairs(values) is (not past), (i, j, plant, past)
                assert check_subadditive(values) is (not past), (i, j, plant, past)
                if past:
                    assert i in _uncertified_rows(values, TOL), (i, j, plant)


def test_row_certificate_clears_near_linear_sequences():
    # the certificate leaves nothing to the exact loop on n*h + c with c >= 0
    assert _uncertified_rows([k * 0.7 + 0.3 for k in range(1, 2001)], TOL) == []
    assert _uncertified_rows(convex_offsets(2000), TOL) == []
    # the rounding margin reaches the tolerance near magnitude 2**47 * 1e-9
    # (about 1.4e5): past it, and for tol = 0, every row goes to the loop
    steep = [k * 300.0 for k in range(1, 1001)]
    assert _uncertified_rows(steep, TOL) == list(range(1, 501))
    assert _uncertified_rows([k * 0.7 for k in range(1, 1001)], 0.0) == list(range(1, 501))
    assert check_subadditive(steep) and check_subadditive_all_pairs(steep)
    # a NaN or an infinity anywhere certifies nothing
    for bad in (math.nan, math.inf):
        values = [k * 0.7 for k in range(1, 101)]
        values[60] = bad
        assert _uncertified_rows(values, TOL) == list(range(1, 51))


GOLDEN_MEAN = RandomSFT(DrivingSystem((1,), (0,)), (SFTComponent(2, (((1, 1), (1, 0)),)),))


def test_golden_mean_sweep_to_depth_20000():
    depth = 20_000
    est = sft_tail_sequence(
        GOLDEN_MEAN, CylinderCoverSpec(frozenset({0}), 1), CylinderCoverSpec(frozenset(), 1), depth
    )
    assert est.subadditive_ok
    expected = log_fibonacci(depth)
    for n in (1, 2, 10, 999, 5000, 12_345, depth):
        assert abs(est.values[n - 1] - expected[n - 1]) <= TOL
    # the running infimum approaches log(golden ratio) from above
    assert 0 <= est.value - math.log((1 + math.sqrt(5)) / 2) < 1e-4
    # the exact loop sees a handful of the 10,000 rows, not all of them
    assert len(_uncertified_rows(est.values, TOL)) <= 10
