"""The packed-mask engine the cover iterates, the pullbacks and the counts
ran on before they stepped state images, kept as test oracles, and the
malformed inputs the differential tests against them share.

A packed mask is one ``int`` over the whole bundle: bit k is
``rds.states()[k]`` (:func:`_layout`).  :func:`_mask_pullbacks` pulls a
cover back 0, 1, 2, ... steps through one table of state preimages and
:func:`_decode` reads masks back into a cover.  :func:`_mask_iterates`, the
whole-bundle join fold, built ``iterate_cover`` and the sections of
``separated_empirical`` before both stepped state memberships
(``covers._cell_steps``): depth i+1 ANDs every depth-i mask with every mask
of the i-step pullback; :func:`_separated_sets` is the per-fiber mask walk
``separated_empirical`` chose its sets by before it read ``iterate_cover``
and ``minimal_subcover``.  :func:`_section_steps` stepped every fiber's maximal
sections of one cover from the pullbacks at every depth, without the stop
at the fixed point of ``counting._fixed_steps``.
"""

from itertools import accumulate
from typing import Iterable, Iterator

from rdstail.budgets import Budgets, DEFAULTS
from rdstail.counting import _fiber_index, _maximal, _section_masks, min_cover_size
from rdstail.covers import RandomCover, RandomPartition, RandomSet, _check_span
from rdstail.errors import BudgetExceededError, DomainError
from rdstail.invariant import bowen_ball
from rdstail.model import BundleRDS, sort_points

Masks = list[int]


def _layout(rds: BundleRDS) -> list[tuple[int, int]]:
    """The ``(offset, full mask)`` of every fiber in the packed layout: bit
    ``offset + k`` is the k-th point of ``sort_points`` of the fiber, so bit
    i of a packed mask is ``rds.states()[i]``."""
    offsets = accumulate((len(f) for f in rds.fibers), initial=0)
    return [(offset, ((1 << len(f)) - 1) << offset) for offset, f in zip(offsets, rds.fibers)]


def _sections(masks: list[int], layout: list[tuple[int, int]]) -> list[list[int]]:
    """Every fiber's distinct sections of the packed masks, in first-seen
    order.  The order is kept for the q-section that
    ``invariant.separated_empirical`` picks (the first with the largest
    count)."""
    return [list(dict.fromkeys((e & full) >> offset for e in masks)) for offset, full in layout]


def _distinct(elements: Iterable[int]) -> Masks:
    # the mask form of _assemble: dedup in first-seen order, then drop 0,
    # the element empty on every fiber
    out = dict.fromkeys(elements)
    out.pop(0, None)
    return list(out)


def _mask_pullbacks(q: RandomCover, rds: BundleRDS, n: int) -> Iterator[Masks]:
    """The 0..n-1-step pullbacks of ``q`` as lists of distinct packed masks,
    in the element order of ``q``.

    Step i is the one-step preimage of every element of step i-1, read from
    one table (state bit -> packed mask of the states mapped onto it) that
    the first step builds with one ``rds.apply`` per fiber point.  A point
    mapped outside the image fiber is filed under bit 0, which no mask has,
    so it pulls back nothing from that step on.  Raises :class:`DomainError`
    if a section of ``q`` leaves its fiber or a fiber point has no image."""
    if n < 1:
        return
    _check_span(rds, q)
    layout = _layout(rds)
    indices = [_fiber_index(f) for f in rds.fibers]
    columns = [_section_masks(q.sections(w), index, w) for w, index in enumerate(indices)]
    out = _distinct([sum(m << offset for m, (offset, _) in zip(e, layout)) for e in zip(*columns)])
    yield out
    if n < 2:
        return
    table: dict[int, int] = {}
    for w, ((offset, _), index, v) in enumerate(zip(layout, indices, rds.base.theta)):
        for x, b in index.items():
            bit = indices[v].get(rds.apply(w, x), 0) << layout[v][0]
            table[bit] = table.get(bit, 0) | b << offset
    for _ in range(1, n):
        out = _distinct([_preimage(table, e) for e in out])
        yield out


def _preimage(table: dict[int, int], mask: int) -> int:
    """The union of the preimage masks of the set bits of ``mask``: one
    lookup per state of the element."""
    out = 0
    while mask:
        bit = mask & -mask
        out |= table.get(bit, 0)
        mask ^= bit
    return out


def _decode(q: RandomCover, rds: BundleRDS, masks: Masks) -> RandomCover:
    """The cover of the masks, a partition iff ``q`` is one; a section that
    several elements share is decoded once."""
    layout = _layout(rds)
    points = [sort_points(f) for f in rds.fibers]
    sections = [
        {m: frozenset(x for k, x in enumerate(pts) if m >> k & 1) for m in col}
        for pts, col in zip(points, _sections(masks, layout))
    ]
    cls = RandomPartition if isinstance(q, RandomPartition) else RandomCover
    elements = tuple(
        RandomSet(tuple(s[(e & full) >> offset] for s, (offset, full) in zip(sections, layout))) for e in masks
    )
    return cls(elements)


def _section_steps(c: RandomCover, rds: BundleRDS, n: int, budgets: Budgets) -> Iterator[list[list[int]]]:
    """Every fiber's maximal sections of the depth-1..n iterates of ``c``,
    stepped from the whole fiber: depth i keeps the maximal ``a & p`` over
    those ``a`` of depth i-1 and the sections ``p`` of the (i-1)-step
    pullback (``a & p`` lies in ``a' & p`` if ``a`` in ``a'``).

    Raises :class:`BudgetExceededError` with the depth when, past depth 1, a
    fiber holds more than ``budgets.cover_elements`` maximal sections."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    layout = _layout(rds)
    sections = [[full >> offset] for offset, full in layout]
    for depth, pulled in enumerate(_mask_pullbacks(c, rds, n), 1):
        # p is the section of the pulled element e on the fiber, at bit 0
        sections = [
            _maximal({a & p for e in pulled for p in [(e & full) >> offset] for a in s})
            for s, (offset, full) in zip(sections, layout)
        ]
        if depth > 1 and (observed := max(map(len, sections))) > budgets.cover_elements:
            raise BudgetExceededError("cover_elements", budgets.cover_elements, observed, depth=depth)
        yield sections


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


def _iterate_sections(q: RandomCover, rds: BundleRDS, n: int, budgets: Budgets) -> list[list[int]]:
    """:func:`_sections` of the depth-n masks of ``q``: every fiber's distinct
    sections in element order, the empty section kept."""
    return _sections(_mask_iterate(q, rds, n, budgets), _layout(rds))


def _separated_sets(rds, p, q, n, deltas, budgets):
    """The ``chosen``, ``anchors``, ``separated``, ``counts`` and
    ``atoms_isolate_separated`` of ``separated_empirical`` by the mask walk:
    per fiber, the first nonempty q-section with the largest
    :func:`min_cover_size` by the p-sections, its bits decoded in
    ``sort_points`` order, the lowest the anchor."""
    p_sections = _iterate_sections(p, rds, n, budgets)
    q_sections = _iterate_sections(q, rds, n, budgets)
    chosen, anchors, separated, counts, sep_masks = [], [], [], [], []
    for w, (p_masks, q_masks) in enumerate(zip(p_sections, q_sections)):
        best, best_count = 0, 0
        for t in q_masks:
            if t:
                c = min_cover_size(t, p_masks)
                if c > best_count:
                    best, best_count = t, c
        if not best:
            raise DomainError(f"every section of the depth-{n} iterate of q is empty at omega={w}")
        best_bits = [(1 << k, x) for k, x in enumerate(sort_points(rds.fibers[w])) if best >> k & 1]
        sep, balls, sep_mask = [], [], 0
        for bit, x in best_bits:
            if not any(x in ball for ball in balls):
                sep.append(x)
                balls.append(bowen_ball(rds, w, x, n, deltas))
                sep_mask |= bit
        chosen.append(frozenset(x for _, x in best_bits))
        anchors.append(best_bits[0][1])
        separated.append(tuple(sep))
        counts.append(best_count)
        sep_masks.append(sep_mask)
    isolate = None
    if isinstance(p, RandomPartition):
        isolate = all((m & sep).bit_count() <= 1 for sep, col in zip(sep_masks, p_sections) for m in col)
    return chosen, anchors, separated, counts, isolate


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


def without_image(rng, rds):
    """``rds`` with one fiber point left out of its fiber map."""
    maps = [dict(m) for m in rds.maps]
    omega = rng.randrange(rds.size)
    del maps[omega][rng.choice(sort_points(rds.fibers[omega]))]
    return BundleRDS(rds.base, rds.fibers, tuple(maps), rds.space)
