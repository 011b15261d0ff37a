"""Exact minimal-subcover counting, the combinatorial core of the tail
entropy sequences.

Fiber sections are packed into integer bitmasks (Python integers, so any
fiber size works without a word-size fallback) and the minimum subcover is
found by branch and bound with a greedy initial bound and dominated-element
elimination.  Results are always exact; the search never returns an
approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .budgets import Budgets, DEFAULTS
from .covers import RandomCover, RandomSet, iterate_cover, iterate_covers
from .errors import DomainError
from .model import BundleRDS, sort_points


def min_cover_size(target: int, masks: Iterable[int]) -> int:
    """Minimum number of masks whose union contains ``target``.

    ``target == 0`` returns 1 by the empty-set convention.  Raises
    :class:`DomainError` if the masks cannot cover the target.
    """
    if target == 0:
        return 1
    clipped = sorted({m & target for m in masks if m & target}, key=lambda m: -m.bit_count())
    covered_all = 0
    for m in clipped:
        covered_all |= m
    if covered_all & target != target:
        raise DomainError("target is not coverable by the given family")
    # dominated-element elimination: drop masks contained in an earlier one
    kept: list[int] = []
    for m in clipped:
        if not any(m | k == k for k in kept):
            kept.append(m)

    # greedy upper bound
    best = 0
    uncovered = target
    while uncovered:
        pick = max(kept, key=lambda m: (m & uncovered).bit_count())
        uncovered &= ~pick
        best += 1

    max_size = kept[0].bit_count()

    def search(uncovered: int, used: int, bound: int) -> int:
        if not uncovered:
            return used
        lower = used + -((-uncovered.bit_count()) // max_size)
        if lower >= bound:
            return bound
        # branch on the uncovered bit with the fewest candidate masks
        bit = None
        candidates: list[int] = []
        u = uncovered
        while u:
            b = u & -u
            cands = [m for m in kept if m & b]
            if bit is None or len(cands) < len(candidates):
                bit, candidates = b, cands
                if len(cands) == 1:
                    break
            u &= u - 1
        for m in sorted(candidates, key=lambda m: -(m & uncovered).bit_count()):
            bound = min(bound, search(uncovered & ~m, used + 1, bound))
        return bound

    return search(target, 0, best)


def _index_fiber(rds: BundleRDS, omega: int) -> dict:
    return {x: 1 << i for i, x in enumerate(sort_points(rds.fibers[omega]))}


def _mask(section: frozenset, index: dict) -> int:
    m = 0
    for x in section:
        m |= index[x]
    return m


def minimal_subcover(s: RandomSet, r: RandomCover, omega: int, rds: BundleRDS) -> int:
    """Exact minimum number of elements of ``r`` whose sections at ``omega``
    cover the section of ``s`` there; 1 when that section is empty."""
    index = _index_fiber(rds, omega)
    try:
        target = _mask(s.sections[omega], index)
    except KeyError:
        raise DomainError(f"set leaves the fiber at omega={omega}")
    return min_cover_size(target, [_mask(sec, index) for sec in r.sections(omega)])


def relative_count(r: RandomCover, q: RandomCover, omega: int, rds: BundleRDS) -> int:
    """Largest minimal-subcover count of a ``q``-element by ``r`` at ``omega``."""
    index = _index_fiber(rds, omega)
    # distinct elements often share their section here: one solve per section
    try:
        masks = {_mask(sec, index) for sec in r.sections(omega)}
        targets = {_mask(sec, index) for sec in q.sections(omega)}
    except KeyError:
        raise DomainError(f"cover leaves the fiber at omega={omega}")
    return max(min_cover_size(t, masks) for t in targets)


def relative_count_sup(r: RandomCover, q: RandomCover, rds: BundleRDS) -> int:
    """The base-point-free count: maximum of the fiber counts."""
    return max(relative_count(r, q, w, rds) for w in range(rds.size))


@dataclass(frozen=True)
class CountProfile:
    """Per-base-point counts of the depth-n iterated covers."""

    per_omega: tuple[int, ...]
    depth: int
    r_label: str | None = None
    q_label: str | None = None

    def __post_init__(self):
        if any(c < 1 for c in self.per_omega):
            raise ValueError("counts are always >= 1")


def _profile(
    rds: BundleRDS, r: RandomCover, q: RandomCover, n: int, rn: RandomCover, qn: RandomCover
) -> CountProfile:
    per_omega = tuple(relative_count(rn, qn, w, rds) for w in range(rds.size))
    return CountProfile(per_omega, n, r_label=r.label, q_label=q.label)


def count_profile(
    rds: BundleRDS, r: RandomCover, q: RandomCover, n: int, budgets: Budgets = DEFAULTS
) -> CountProfile:
    """Relative counts of the depth-n iterates, one entry per base point."""
    return _profile(rds, r, q, n, iterate_cover(r, rds, n, budgets), iterate_cover(q, rds, n, budgets))


def count_profiles(
    rds: BundleRDS, r: RandomCover, q: RandomCover, n_max: int, budgets: Budgets = DEFAULTS
) -> Iterator[CountProfile]:
    """The profiles of depths 1..n_max in one pass, ``r`` before ``q`` at each
    depth as in :func:`count_profile`; no older depth is kept referenced."""
    q_iter = iterate_covers(q, rds, n_max, budgets)
    for n, rn in enumerate(iterate_covers(r, rds, n_max, budgets), 1):
        yield _profile(rds, r, q, n, rn, next(q_iter))
