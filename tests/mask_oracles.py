"""The whole-bundle mask join fold that built ``iterate_cover`` and the
sections of ``separated_empirical`` before both stepped state memberships
(``covers._cell_steps``), kept as a test oracle, and the malformed inputs
the differential tests against it share.

Depth i+1 ANDs every depth-i mask with every mask of the i-step item of
``covers._mask_pullbacks``: bit k of a mask is ``rds.states()[k]``.
"""

from typing import Iterator

from rdstail.budgets import Budgets, DEFAULTS
from rdstail.covers import Masks, RandomCover, RandomSet, _distinct, _mask_pullbacks
from rdstail.errors import BudgetExceededError
from rdstail.model import BundleRDS


def _mask_iterates(q: RandomCover, rds: BundleRDS, n_max: int, budgets: Budgets = DEFAULTS) -> Iterator[Masks]:
    """The depth-1..n_max refinements of ``q`` as lists of packed masks, in
    first-seen element order: depth i+1 joins depth i with the i-step item
    of :func:`_mask_pullbacks`.

    Raises :class:`DomainError` if a section of ``q`` leaves its fiber and
    :class:`BudgetExceededError` with the offending depth when the element
    count blows past ``budgets.cover_elements``.
    """
    for depth, pulled in enumerate(_mask_pullbacks(q, rds, n_max), 1):
        out = pulled if depth == 1 else _distinct([a & b for a in out for b in pulled])
        if depth > 1 and len(out) > budgets.cover_elements:
            raise BudgetExceededError("cover_elements", budgets.cover_elements, len(out), depth=depth)
        yield out


def _mask_iterate(q: RandomCover, rds: BundleRDS, n: int, budgets: Budgets = DEFAULTS) -> Masks:
    """The depth-n masks of ``q``: the last item of :func:`_mask_iterates`."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    for out in _mask_iterates(q, rds, n, budgets):
        pass
    return out


def with_escape(rng, rds):
    """``rds`` with the extra point 'out' on one fiber, mapped outside the
    image fiber; no measure or algebra of ``rds`` holds it."""
    w = rng.randrange(rds.size)
    fibers = tuple(f | {"out"} if v == w else f for v, f in enumerate(rds.fibers))
    maps = tuple({**m, "out": "gone"} if v == w else m for v, m in enumerate(rds.maps))
    return BundleRDS(rds.base, fibers, maps, rds.space)


def with_stray(rng, cover):
    """``cover`` with the point 'stray', in no fiber, added to two random
    sections."""
    elements = list(cover.elements)
    for _ in range(2):
        i, w = rng.randrange(len(elements)), rng.randrange(cover.size)
        secs = elements[i].sections
        elements[i] = RandomSet(secs[:w] + (secs[w] | {"stray"},) + secs[w + 1 :])
    return type(cover)(tuple(elements))
