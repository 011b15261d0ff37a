"""Integrated log-count sequences and their subadditive-limit estimates.

The central object is the sequence ``a_n = sum_w P(w) * log(count_n(w))``
built from the relative counts of depth-n iterated covers.  The sequence is
subadditive, so its limit equals the infimum of ``a_n / n``; the running
infimum over computed depths is a certified upper bracket of that limit.  No
lower bracket is reported: ``a_n / n`` need not be monotone and no general
finite-depth lower bound exists.  Counts are exact integers; only the
logarithms are floating point, and every inequality assertion carries the
module tolerance.

Subadditivity is checked on every computed pair.  A linear-time bound per
row clears the rows of sequences close to ``n*h + c`` with ``c >= 0``, which
is what the sweeps produce, and the exact pairwise comparison runs only on
the rows it leaves, so deep sweeps do not pay the quadratic all-pairs cost
unless their terms come close to a violation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import add, gt
from typing import Iterable, Sequence

from .budgets import Budgets, DEFAULTS
from .counting import CountProfile, count_profile, count_profiles
from .covers import RandomCover, iterate_cover
from .model import BundleRDS, power_system

TOL = 1e-9


@dataclass(frozen=True)
class EntropyEstimate:
    """A finite stretch of a subadditive sequence with its Fekete bracket.

    ``values[k]`` is the term at depth ``k+1``; an estimate has at least
    one depth.  ``requested`` records the depth that was asked for.
    Library sweeps raise when a budget stops them, so ``requested``
    differs from ``n_max`` only in the partial artifacts the CLI writes
    before it exits with the budget code.
    ``subadditive_ok`` is :func:`check_subadditive` of ``values``.
    """

    values: tuple[float, ...]
    requested: int
    subadditive_ok: bool = field(init=False)

    def __post_init__(self):
        if not self.values:
            raise ValueError("an estimate needs at least one depth")
        object.__setattr__(self, "subadditive_ok", check_subadditive(self.values))

    @property
    def n_max(self) -> int:
        return len(self.values)

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(a / (k + 1) for k, a in enumerate(self.values))

    @property
    def running_inf(self) -> tuple[float, ...]:
        return tuple(accumulate(self.ratios, min))

    @property
    def value(self) -> float:
        """The certified upper bracket at the deepest computed level."""
        return self.running_inf[-1]


def check_subadditive(values: Sequence[float], tol: float = TOL) -> bool:
    """All computed pairs satisfy a(n+m) <= a(n) + a(m) within tolerance,
    and every term is nonnegative.

    Only the pairs with ``n <= m`` are checked, half of them: the pair
    (m, n) compares the same term against ``(a(m) + a(n)) + tol``, and
    floating-point addition commutes, so it gets the same verdict.  Row n
    compares a(2n), ..., a(N) with a(n) + a(n), ..., a(n) + a(N-n) in one
    pass.  This exact row loop is the only part that can find a violation.
    It runs only on the rows that :func:`_uncertified_rows` cannot clear
    with its linear-time bound, so the verdict is that of the loop over
    every row; on sequences close to ``n*h + c`` with ``c >= 0`` it runs on
    few rows or none, and the check is linear in N instead of quadratic.
    """
    if any(v < -tol for v in values):
        return False
    n = len(values)
    for i in _uncertified_rows(values, tol):
        sums = map(add, map(add, repeat(values[i - 1]), values[i - 1 : n - i]), repeat(tol))
        if any(map(gt, values[2 * i - 1 : n], sums)):
            return False
    return True


def _uncertified_rows(values: Sequence[float], tol: float) -> list[int]:
    """The rows i (1 <= i <= N//2) of :func:`check_subadditive` that a
    linear-time bound cannot certify free of violations, in increasing
    order.

    **The bound.**  Let h be the smallest ratio a(k)/k and b(k) = a(k) -
    k*h.  For any real h, a(i+j) - a(i) - a(j) = b(i+j) - b(i) - b(j), so
    every pair of row i (i <= j <= N-i) has excess at most
    ``U(i) = max_{k >= 2i} b(k) - b(i) - min_{i <= j <= N-i} b(j)``.  Suffix
    maxima and the windows [i, N-i], nested and grown from the middle row
    outwards, give U for every row in O(N).  Row i is certified when the
    computed U(i) is at most ``tol - delta``, with the rounding margin
    ``delta = 2**-47 * M + 2**-1022`` and ``M = max_k(|a(k)| + k*|h|)``.
    The smallest ratio makes b(k) >= 0 up to rounding and keeps U small on
    sequences close to ``k*h + c``; any other h would be sound but looser.

    **Nothing is certified** when a term is NaN or infinite (``min`` and
    ``max`` with NaN depend on argument order, so NaN could hide a
    violation elsewhere in the bound), when ``delta >= tol`` (every ``tol
    = 0`` and every M above about ``2**47 * tol``), or when ``4*M``
    overflows.  Those rows all go to the exact loop.

    **A certified row holds no float violation** ``a(i+j) > (a(i) + a(j)) +
    tol``.  Write u = 2**-53, round to nearest.  (1) The computed b(k) is
    one product and one difference, so it is within ``(2+u)*u*M`` of the
    exact ``a(k) - k*h`` (plus 2**-1075 if the product underflows).  (2)
    The two subtractions of the computed bound lose at most ``5.01*u*M``.
    (3) ``fl(tol - delta) <= tol - delta + u*tol``.  So every pair of a
    certified row has exact excess ``a(i+j) - a(i) - a(j) <= tol - delta +
    u*tol + 11.1*u*M + 3*2**-1075``.  (4) A float violation needs exact
    excess above ``tol - 4.01*u*M``: a(i) + a(j) rounds by at most 2*u*M,
    and adding tol rounds by at most ``u*|result|``, where the result lies
    below a(i+j) <= M when it is nonnegative and within 2*(1+u)*M of zero
    when it is negative.  If ``tol > 4*M`` no pair can violate, since the
    excess is at most 3*M.  Otherwise a violation in a certified row needs
    ``delta < 15.2*u*M + u*tol + 3*2**-1075 <= 19.2*u*M + 3*2**-1075``,
    while ``delta >= (64*u*M + 2**-1022 - 2**-1075)*(1-u)``: no certified
    row can hold one.
    """
    n = len(values)
    rows = list(range(1, n // 2 + 1))
    if not rows or not all(map(math.isfinite, values)):
        return rows
    h = min(a / k for k, a in enumerate(values, 1))
    scale = max(abs(a) + k * abs(h) for k, a in enumerate(values, 1))
    delta = 2.0**-47 * scale + sys.float_info.min
    if not (delta < tol and scale < sys.float_info.max / 4):
        return rows
    limit = tol - delta
    b = [a - k * h for k, a in enumerate(values, 1)]
    top = list(accumulate(reversed(b), max))[::-1]  # top[k-1] = max(b[k-1:])
    low = math.inf
    left = []
    for i in reversed(rows):
        low = min(low, b[i - 1], b[n - i - 1])
        if top[2 * i - 1] - b[i - 1] - low > limit:
            left.append(i)
    return left[::-1]


def integrated_log_count(
    rds: BundleRDS, r: RandomCover, q: RandomCover, n: int, budgets: Budgets = DEFAULTS
) -> float:
    """One term: base-mass-weighted natural log of the depth-n counts."""
    return _integrate([float(p) for p in rds.base.prob], count_profile(rds, r, q, n, budgets).per_omega)


def _integrate(weights: Sequence[float], counts: Iterable[int]) -> float:
    """a_n from one depth's counts per base point: the mass-weighted
    natural log, with the zero-mass base points left out."""
    return sum(p * math.log(c) for p, c in zip(weights, counts) if p)


def tail_entropy_estimate(
    rds: BundleRDS, r: RandomCover, q: RandomCover, n_max: int, budgets: Budgets = DEFAULTS
) -> EntropyEstimate:
    """Terms a_1..a_{n_max} with the running-infimum bracket.

    Raises :class:`BudgetExceededError` with the offending depth when a
    fiber's maximal sections blow past ``budgets.cover_elements``; no truncated
    estimate is ever returned.
    """
    if n_max < 1:
        raise ValueError("an estimate needs at least one depth")
    weights = [float(p) for p in rds.base.prob]
    values = tuple(_integrate(weights, profile.per_omega) for profile in count_profiles(rds, r, q, n_max, budgets))
    return EntropyEstimate(values=values, requested=n_max)


def tail_entropy_total(
    rds: BundleRDS,
    q_family: Sequence[RandomCover],
    r_family: Sequence[RandomCover],
    n_max: int,
    budgets: Budgets = DEFAULTS,
) -> float:
    """Smallest over the conditioning family of the largest bracket over the
    refining family.

    On finite fibers the singleton partition refines every cover fiberwise,
    so an ``r_family`` containing it attains the supremum over all covers at
    every depth, which makes the inner value exact rather than a
    family-limited surrogate.  With it in ``q_family`` every count is 1, so
    the result is exactly zero on any finite explicit system.
    """
    if not q_family or not r_family:
        raise ValueError("families must be nonempty")
    return min(max(tail_entropy_estimate(rds, r, q, n_max, budgets).value for r in r_family) for q in q_family)


@dataclass(frozen=True)
class PowerRuleResult:
    ok: bool
    stepped: CountProfile  # n-fold iterate of the depth-m covers under the m-step system
    direct: CountProfile  # depth-(n*m) iterate under the original system
    mismatches: tuple[tuple[int, int, int], ...]  # (omega, stepped, direct)


def power_rule_check(
    rds: BundleRDS, r: RandomCover, q: RandomCover, m: int, n: int, budgets: Budgets = DEFAULTS
) -> PowerRuleResult:
    """Exact integer identity behind the power rule: iterating the depth-m
    covers n times under the m-step system gives the same count profile as
    iterating the original covers to depth n*m.

    Both sides are materialized independently (the m-step system is a real
    system, not an index reinterpretation), so this is a black-box equality
    of two separate computations.
    """
    rm = iterate_cover(r, rds, m, budgets)
    qm = iterate_cover(q, rds, m, budgets)
    stepped = count_profile(power_system(rds, m), rm, qm, n, budgets)
    direct = count_profile(rds, r, q, n * m, budgets)
    mismatches = tuple(
        (w, a, b) for w, (a, b) in enumerate(zip(stepped.per_omega, direct.per_omega)) if a != b
    )
    return PowerRuleResult(ok=not mismatches, stepped=stepped, direct=direct, mismatches=mismatches)
