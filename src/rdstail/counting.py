"""Exact minimal-subcover counting, the combinatorial core of the tail
entropy sequences.

Fiber sections are integer bitmasks, built by no other module (Python
integers, so any fiber size works without a word-size fallback): bit k over
base point w is the k-th point of ``sort_points(rds.fibers[w])``
(:func:`_fiber_index`).  Every count of an iterated cover reads only
each fiber's maximal sections, and one stepper, :func:`_fixed_steps`, gives
them for ``r`` and ``q`` together: it indexes ``rds.states()`` once, steps
one array of state images through the skew table of ``covers`` and carries
the sections from depth to depth, intersected with the pullback each depth
joins in, which every state builds by setting its bit in the elements
holding its image.  As depth i+1's sections depend on depth i's only, sweeps
count to n*, the last new depth, and repeat; single-fiber queries encode
their arguments with the same bit order.
A fiber's count is the largest minimum subcover of a target section.  It is
monotone in the target, so only maximal sections are solved, largest first.
A target never needs more masks than it has points, so the walk stops at the
first one no larger than the running maximum, and a larger one whose greedy
bound (over the masks restricted to it) cannot raise the maximum is not
solved.  Each solve is a branch and bound with a greedy initial bound and
dominated-element elimination.  Results are always exact; the search never
returns an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

from .budgets import Budgets, DEFAULTS
from .covers import Members, RandomCover, RandomSet, _check_span, _images, _members
from .errors import BudgetExceededError, DomainError
from .model import BundleRDS, Point, sort_points


def _fiber_index(fiber: Iterable[Point]) -> dict[Point, int]:
    """Bit of every point of a fiber: bit k is the k-th of ``sort_points``."""
    return {x: 1 << k for k, x in enumerate(sort_points(fiber))}


def _section_masks(sections: Iterable[frozenset], index: dict[Point, int], omega: int) -> list[int]:
    try:
        return [sum(map(index.__getitem__, sec)) for sec in sections]
    except KeyError:
        raise DomainError(f"cover leaves the fiber at omega={omega}") from None


def _maximal(masks: Iterable[int]) -> list[int]:
    """The distinct masks contained in no other, largest first, equally large
    ones by descending value: a mask inside another never helps a minimum
    cover (dominated-element elimination).  A repeat is dropped as contained
    in its first copy."""
    kept: list[int] = []
    ordered = sorted(masks, reverse=True)
    ordered.sort(key=int.bit_count, reverse=True)
    for m in ordered:
        for k in kept:
            if m | k == k:
                break
        else:
            kept.append(m)
    return kept


def _greedy(target: int, masks: list[int]) -> int:
    """Greedy cover size of a coverable ``target``: an upper bound on its
    minimum.  Each step takes the first mask covering the most uncovered
    points; the masks are restricted to what is left uncovered, and those
    emptied are dropped."""
    live = [r for m in masks if (r := m & target)]
    size = 0
    while target:
        target &= ~max(live, key=int.bit_count)
        live = [r for m in live if (r := m & target)]
        size += 1
    return size


def min_cover_size(target: int, masks: Iterable[int]) -> int:
    """Minimum number of masks whose union contains ``target``.

    ``target == 0`` returns 1 by the empty-set convention.  Raises
    :class:`DomainError` if the masks cannot cover the target.
    """
    if target == 0:
        return 1
    kept = _maximal({r for m in masks if (r := m & target)})
    covered_all = 0
    for m in kept:
        covered_all |= m
    if covered_all != target:
        raise DomainError("target is not coverable by the given family")

    best = _greedy(target, kept)
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


def _fiber_count(r_masks: Iterable[int], q_masks: Iterable[int]) -> int:
    """:func:`_count` of the maximal ``r`` and ``q`` sections of one fiber."""
    return _count(_maximal(r_masks), _maximal(q_masks))


def _count(masks: list[int], targets: list[int]) -> int:
    """Largest minimal-subcover count of a target by the masks, both lists
    as :func:`_maximal` gives them, by the walk the module docstring
    describes; coverability is checked once, for the union of the targets."""
    union = covered = 0
    for m in masks:
        union |= m
    for t in targets:
        covered |= t
    if covered & ~union:
        raise DomainError("target is not coverable by the given family")
    best = 1
    for t in targets:
        if t.bit_count() <= best:
            break
        if _greedy(t, masks) > best:
            best = max(best, min_cover_size(t, masks))
    return best


def minimal_subcover(s: RandomSet, r: RandomCover, omega: int, rds: BundleRDS) -> int:
    """Exact minimum number of elements of ``r`` whose sections at ``omega``
    cover the section of ``s`` there; 1 when that section is empty."""
    _check_span(rds, s, r)
    index = _fiber_index(rds.fibers[rds.base.check_point(omega)])
    (target,) = _section_masks([s.sections[omega]], index, omega)
    return min_cover_size(target, _section_masks(r.sections(omega), index, omega))


def relative_count(r: RandomCover, q: RandomCover, omega: int, rds: BundleRDS) -> int:
    """Largest minimal-subcover count of a ``q``-element by ``r`` at ``omega``."""
    _check_span(rds, r, q)
    index = _fiber_index(rds.fibers[rds.base.check_point(omega)])
    r_masks, q_masks = (set(_section_masks(c.sections(omega), index, omega)) for c in (r, q))
    return _fiber_count(r_masks, q_masks)


@dataclass(frozen=True)
class CountProfile:
    """Per-base-point counts of the depth-n iterated covers."""

    per_omega: tuple[int, ...]
    depth: int

    def __post_init__(self):
        if any(c < 1 for c in self.per_omega):
            raise ValueError("counts are always >= 1")


def _pulled(held: Members, size: int, image: list[int], bounds: list[int]) -> list[set[int]]:
    """Every fiber's distinct sections of the pullback of a cover of ``size``
    elements, ``held`` as :func:`~rdstail.covers._members` gives it, to the
    states' images ``image``, as fiber-local masks: every state ORs its bit
    into the elements holding its image.  A pullback empty on every fiber
    has no sections."""
    out = []
    for start, end in zip(bounds, bounds[1:]):
        sections, bit = [0] * size, 1
        for t in image[start:end]:
            for e in held[t]:
                sections[e] |= bit
            bit <<= 1
        out.append(set(sections))
    return out if any(map(any, out)) else [set() for _ in out]


def _fixed_steps(
    r: RandomCover, q: RandomCover, rds: BundleRDS, n: int, budgets: Budgets
) -> Iterator[list[list[list[int]]]]:
    """Every fiber's maximal sections of the depth-1..n iterates of ``r`` and
    of ``q``, ``r`` before ``q`` at each depth, until a depth repeats the last
    one's.  Both sides start at the whole fiber and step one array of state
    images (:func:`~rdstail.covers._images`): depth i keeps the maximal
    ``a & p`` over the sections ``a`` of depth i-1 and the sections ``p`` of
    the (i-1)-step pullback (``a & p`` lies in ``a' & p`` if ``a`` in ``a'``).

    Raises :class:`BudgetExceededError` with the depth when, past depth 1, a
    fiber holds more than ``budgets.cover_elements`` maximal sections."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    index = {state: i for i, state in enumerate(rds.states())}
    covers = []
    for c in (r, q):
        _check_span(rds, c)
        covers.append((len(c.elements), _members(c, index)))
    bounds = list(accumulate((len(f) for f in rds.fibers), initial=0))
    sides = [[[(1 << (end - start)) - 1] for start, end in zip(bounds, bounds[1:])]] * 2
    for depth, image in zip(range(1, n + 1), _images(rds, index)):
        last, sides = sides, []
        for sections, (size, held) in zip(last, covers):
            pulled = _pulled(held, size, image, bounds)  # the (i-1)-step pullback's sections
            sides.append([_maximal({a & p for p in ps for a in s}) for s, ps in zip(sections, pulled)])
            if depth > 1 and (observed := max(map(len, sides[-1]))) > budgets.cover_elements:
                raise BudgetExceededError("cover_elements", budgets.cover_elements, observed, depth=depth)
        if depth > 1 and sides == last:  # _maximal lists are canonical: list equality is set equality
            return
        yield sides


def count_profile(
    rds: BundleRDS, r: RandomCover, q: RandomCover, n: int, budgets: Budgets = DEFAULTS
) -> CountProfile:
    """Relative counts of the depth-n iterates, one entry per base point: the
    sections of :func:`count_profiles`, counted once, at depth min(n, n*)."""
    for r_secs, q_secs in _fixed_steps(r, q, rds, n, budgets):
        pass
    return CountProfile(tuple(map(_count, r_secs, q_secs)), n)


def count_profiles(
    rds: BundleRDS, r: RandomCover, q: RandomCover, n_max: int, budgets: Budgets = DEFAULTS
) -> Iterator[CountProfile]:
    """The profiles of depths 1..n_max in one pass, ``r`` before ``q`` at each
    depth, counted through n* and repeated past it."""
    for n, (r_secs, q_secs) in enumerate(_fixed_steps(r, q, rds, n_max, budgets), 1):
        yield (profile := CountProfile(tuple(map(_count, r_secs, q_secs)), n))
    yield from (CountProfile(profile.per_omega, k) for k in range(n + 1, n_max + 1))
