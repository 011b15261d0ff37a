"""Integrated log-count sequences and their subadditive-limit estimates.

The central object is the sequence ``a_n = sum_w P(w) * log(count_n(w))``
built from the relative counts of depth-n iterated covers.  The sequence is
subadditive, so its limit equals the infimum of ``a_n / n``; the running
infimum over computed depths is a certified upper bracket of that limit.  No
lower bracket is reported: ``a_n / n`` need not be monotone and no general
finite-depth lower bound exists.  Counts are exact integers; only the
logarithms are floating point, and every inequality assertion carries the
module tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import add, gt
from typing import Sequence

from .budgets import Budgets, DEFAULTS
from .counting import CountProfile, count_profile, count_profiles
from .covers import RandomCover, iterate_cover, trivial_cover
from .model import BundleRDS, power_system

TOL = 1e-9


@dataclass(frozen=True)
class EntropyEstimate:
    """A finite stretch of a subadditive sequence with its Fekete bracket.

    ``values[k]`` is the term at depth ``k+1``.  ``requested`` records the
    depth that was asked for.  Library sweeps raise when a budget stops
    them, so ``requested`` differs from ``n_max`` only in the partial
    artifacts the CLI writes before it exits with the budget code.
    ``subadditive_ok`` is :func:`check_subadditive` of ``values``.
    """

    values: tuple[float, ...]
    requested: int
    subadditive_ok: bool = field(init=False)

    def __post_init__(self):
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
    pass.
    """
    if any(v < -tol for v in values):
        return False
    n = len(values)
    for i in range(1, n // 2 + 1):
        sums = map(add, map(add, repeat(values[i - 1]), values[i - 1 : n - i]), repeat(tol))
        if any(map(gt, values[2 * i - 1 : n], sums)):
            return False
    return True


def integrated_log_count(
    rds: BundleRDS, r: RandomCover, q: RandomCover, n: int, budgets: Budgets = DEFAULTS
) -> float:
    """One term: base-mass-weighted natural log of the depth-n counts."""
    profile = count_profile(rds, r, q, n, budgets)
    return _integrate(rds, profile)


def _integrate(rds: BundleRDS, profile: CountProfile) -> float:
    return sum(
        float(rds.base.prob[w]) * math.log(c)
        for w, c in enumerate(profile.per_omega)
        if rds.base.prob[w] != 0
    )


def tail_entropy_estimate(
    rds: BundleRDS, r: RandomCover, q: RandomCover, n_max: int, budgets: Budgets = DEFAULTS
) -> EntropyEstimate:
    """Terms a_1..a_{n_max} with the running-infimum bracket.

    Raises :class:`BudgetExceededError` with the offending depth when an
    iterated cover blows past ``budgets.cover_elements``; no truncated
    estimate is ever returned.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values = tuple(_integrate(rds, profile) for profile in count_profiles(rds, r, q, n_max, budgets))
    return EntropyEstimate(values=values, requested=n_max)


def cover_conditional_entropy(
    rds: BundleRDS,
    q: RandomCover,
    family: Sequence[RandomCover],
    n_max: int,
    budgets: Budgets = DEFAULTS,
) -> float:
    """Largest bracket over a family of refining covers.

    On finite fibers the singleton partition refines every cover fiberwise,
    so a family containing it attains the supremum over all covers at every
    depth; supplying that family makes the value exact rather than a
    family-limited surrogate.
    """
    if not family:
        raise ValueError("family must be nonempty")
    return max(tail_entropy_estimate(rds, r, q, n_max, budgets).value for r in family)


def tail_entropy_total(
    rds: BundleRDS,
    q_family: Sequence[RandomCover],
    r_family: Sequence[RandomCover],
    n_max: int,
    budgets: Budgets = DEFAULTS,
) -> float:
    """Smallest conditional value over the conditioning family.

    With the singleton partition present in ``q_family`` every count is 1,
    so the result is exactly zero on any finite explicit system.
    """
    if not q_family or not r_family:
        raise ValueError("families must be nonempty")
    return min(cover_conditional_entropy(rds, q, r_family, n_max, budgets) for q in q_family)


def relative_topological(
    rds: BundleRDS, r: RandomCover, n_max: int, budgets: Budgets = DEFAULTS
) -> float:
    """Bracket against the trivial conditioning cover; dominates the bracket
    against any other cover at matched depth."""
    return tail_entropy_estimate(rds, r, trivial_cover(rds), n_max, budgets).value


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
