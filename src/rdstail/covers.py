"""Random sets, covers, partitions, finite sub-sigma-algebras, and the cover
calculus: joins, dynamical pullbacks, iterates and refinement.

A random set assigns a subset of the fiber to every base point; a random
cover is a finite ordered family of random sets whose sections union to the
full fiber everywhere.  Covers are plain data (indexed by base point), so one
cover can be reused across systems sharing a base, e.g. a system and its
m-step power.  In the finite discrete topology every random set is both open
and closed, so no open/closed distinction is tracked.

Iterated covers are built on packed bitmasks, one ``int`` per element over
the whole bundle: bit ``offset + k`` is the k-th point of ``sort_points`` of
the fiber at that offset (:func:`_layout`), so bit i is ``rds.states()[i]``
and a join is one ``&``.  One generator, :func:`_mask_pullbacks`, pulls a
cover back 0, 1, 2, ... steps, each the one-step preimage of the last through
one table of state preimages; it is the only loop that reads the fiber maps
for covers.  :func:`pullback` decodes one of its items, and one join fold
over it, :func:`_mask_iterates`, builds every depth: the counts and the
relative-entropy sweeps read its masks directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable, Iterator

from .budgets import Budgets, DEFAULTS
from .errors import BudgetExceededError, DomainError, IncompatibleSystemsError
from .model import BundleRDS, FactorMap, Point, sort_points


@dataclass(frozen=True)
class RandomSet:
    """Per-base-point subsets of the fibers (sections may be empty)."""

    sections: tuple[frozenset, ...]

    def __post_init__(self):
        if not self.sections:
            raise ValueError("a random set needs at least one fiber section")

    @property
    def size(self) -> int:
        return len(self.sections)

    def is_empty(self) -> bool:
        return all(not s for s in self.sections)


@dataclass(frozen=True)
class RandomCover:
    """Finite ordered family of random sets covering every fiber."""

    elements: tuple[RandomSet, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a cover needs at least one element")
        if len({e.size for e in self.elements}) != 1:
            raise ValueError("all elements must span the same base")

    @property
    def size(self) -> int:
        return self.elements[0].size

    def __len__(self) -> int:
        return len(self.elements)

    def sections(self, omega: int) -> list[frozenset]:
        return [e.sections[omega] for e in self.elements]


@dataclass(frozen=True)
class RandomPartition(RandomCover):
    """A cover whose sections are pairwise disjoint on every fiber."""

    def validate_disjoint(self) -> bool:
        for w in range(self.size):
            seen: set = set()
            for sec in self.sections(w):
                if seen & sec:
                    return False
                seen |= sec
        return True


@dataclass(frozen=True)
class SigmaAlgebra:
    """Finite sub-sigma-algebra, represented by its atom partition."""

    atoms: RandomPartition

    @property
    def size(self) -> int:
        return self.atoms.size


def validate_cover(cover: RandomCover, rds: BundleRDS) -> list[str]:
    """Check sections stay inside the fibers and union to them."""
    out = []
    if cover.size != rds.size:
        return [f"cover spans {cover.size} base points, system has {rds.size}"]
    for w in range(rds.size):
        union: set = set()
        for i, sec in enumerate(cover.sections(w)):
            extra = sec - rds.fibers[w]
            if extra:
                out.append(f"element {i} leaves the fiber at omega={w}: {sorted(map(repr, extra))}")
            union |= sec
        if union != set(rds.fibers[w]):
            out.append(f"fiber at omega={w} is not covered")
    if isinstance(cover, RandomPartition) and not cover.validate_disjoint():
        out.append("sections overlap; not a partition")
    return out


def _same_base(a: RandomCover, b: RandomCover) -> None:
    if a.size != b.size:
        raise IncompatibleSystemsError("covers span different bases")


def _assemble(elements: Iterable[tuple[frozenset, ...]], partition: bool) -> RandomCover:
    # drop elements empty on every fiber, dedup identical section tuples,
    # keep first-seen order for determinism
    seen: dict[tuple[frozenset, ...], None] = {}
    for secs in elements:
        if any(secs) and secs not in seen:
            seen[secs] = None
    cls = RandomPartition if partition else RandomCover
    return cls(tuple(RandomSet(secs) for secs in seen))


def trivial_cover(rds: BundleRDS) -> RandomPartition:
    """The one-element cover whose single section is the whole fiber."""
    return RandomPartition((RandomSet(tuple(rds.fibers)),))


def point_partition(rds: BundleRDS) -> RandomPartition:
    """Singleton partition: one element per point id, empty where absent."""
    ids = sort_points({x for f in rds.fibers for x in f})
    elems = tuple(
        RandomSet(tuple(frozenset([x]) if x in rds.fibers[w] else frozenset() for w in range(rds.size)))
        for x in ids
    )
    return RandomPartition(elems)


def fiber_partition(rds: BundleRDS) -> RandomPartition:
    """Partition by base point: element w is the whole fiber at w, empty
    elsewhere.  Conditioning on it means conditioning on the base point."""
    elems = tuple(
        RandomSet(tuple(rds.fibers[w] if v == w else frozenset() for v in range(rds.size)))
        for w in range(rds.size)
    )
    return RandomPartition(elems)


def state_partition(rds: BundleRDS) -> RandomPartition:
    """Finest partition: one element per bundle state (base point, point).

    Fiber sections agree with :func:`point_partition`, but no element pools
    mass across base points, so this is the partition generating the full
    algebra of the bundle.  Use it (or its factor-map pullbacks) wherever a
    conditioning algebra must separate base points.
    """
    elems = tuple(
        RandomSet(tuple(frozenset([x]) if v == w else frozenset() for v in range(rds.size)))
        for w in range(rds.size)
        for x in sort_points(rds.fibers[w])
    )
    return RandomPartition(elems)


def fiber_sigma(rds: BundleRDS) -> SigmaAlgebra:
    return SigmaAlgebra(fiber_partition(rds))


def state_sigma(rds: BundleRDS) -> SigmaAlgebra:
    """The full algebra of the bundle (atoms are single states)."""
    return SigmaAlgebra(state_partition(rds))


def join(a: RandomCover, b: RandomCover) -> RandomCover:
    """Common refinement: all fiberwise intersections of one element of each.

    Elements empty on every fiber are dropped; elements empty on only some
    fibers survive.  Joining two partitions yields a partition.
    """
    _same_base(a, b)
    n = a.size
    elems = (
        tuple(ea.sections[w] & eb.sections[w] for w in range(n))
        for ea in a.elements
        for eb in b.elements
    )
    both_partitions = isinstance(a, RandomPartition) and isinstance(b, RandomPartition)
    return _assemble(elems, partition=both_partitions)


def sigma_join(s: SigmaAlgebra, t: SigmaAlgebra) -> SigmaAlgebra:
    joined = join(s.atoms, t.atoms)
    assert isinstance(joined, RandomPartition)
    return SigmaAlgebra(joined)


Masks = list[int]


def _layout(rds: BundleRDS) -> list[tuple[int, int]]:
    """The ``(offset, full mask)`` of every fiber in the packed layout: bit
    ``offset + k`` is the k-th point of ``sort_points`` of the fiber, so bit
    i of a packed mask is ``rds.states()[i]``."""
    offsets = accumulate((len(f) for f in rds.fibers), initial=0)
    return [(offset, ((1 << len(f)) - 1) << offset) for offset, f in zip(offsets, rds.fibers)]


def _sections(masks: Masks, layout: list[tuple[int, int]]) -> list[list[int]]:
    """Every fiber's distinct sections of the packed masks, in first-seen
    order.  The order is kept for the element order of :func:`_decode` and
    for the q-section that ``invariant.separated_empirical`` picks (the first
    with the largest count); the counts cut their fibers without it, as one
    set each."""
    return [list(dict.fromkeys((e & full) >> offset for e in masks)) for offset, full in layout]


def _fiber_index(fiber: Iterable[Point]) -> dict[Point, int]:
    """Bit of every point of a fiber: bit k is the k-th of ``sort_points``."""
    return {x: 1 << k for k, x in enumerate(sort_points(fiber))}


def _section_masks(sections: Iterable[frozenset], index: dict[Point, int], omega: int) -> list[int]:
    try:
        return [sum(map(index.__getitem__, sec)) for sec in sections]
    except KeyError:
        raise DomainError(f"cover leaves the fiber at omega={omega}") from None


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
    if q.size != rds.size:
        raise IncompatibleSystemsError("cover does not span the system base")
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


def _mask_iterates(q: RandomCover, rds: BundleRDS, n_max: int, budgets: Budgets = DEFAULTS) -> Iterator[Masks]:
    """The depth-1..n_max refinements of ``q`` as lists of packed masks, in
    first-seen element order: depth i+1 joins depth i with the i-step item
    of :func:`_mask_pullbacks`.

    Raises :class:`DomainError` if a section of ``q`` leaves its fiber and
    :class:`BudgetExceededError` with the offending depth when the element
    count blows past ``budgets.cover_elements``.
    """
    pulls = _mask_pullbacks(q, rds, n_max)
    out = next(pulls, None)
    if out is None:
        return
    yield out
    for depth, pulled in enumerate(pulls, 2):
        out = _distinct([a & b for a in out for b in pulled])
        if len(out) > budgets.cover_elements:
            raise BudgetExceededError("cover_elements", budgets.cover_elements, len(out), depth=depth)
        yield out


def _mask_iterate(q: RandomCover, rds: BundleRDS, n: int, budgets: Budgets = DEFAULTS) -> Masks:
    """The depth-n masks of ``q``: the last item of :func:`_mask_iterates`."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    for out in _mask_iterates(q, rds, n, budgets):
        pass
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


def iterate_cover(
    q: RandomCover, rds: BundleRDS, n: int, budgets: Budgets = DEFAULTS
) -> RandomCover:
    """Join of the pullbacks at steps 0..n-1 (depth-n dynamical refinement):
    the decoded masks of :func:`_mask_iterate`, a partition iff ``q`` is one."""
    return _decode(q, rds, _mask_iterate(q, rds, n, budgets))


def pullback(q: RandomCover, rds: BundleRDS, i: int) -> RandomCover:
    """Pull every element back i dynamical steps: the section at a base point
    is the i-step fiber-map preimage of the element's section at the i-step
    image base point.  It is the i-step item of :func:`_mask_pullbacks`, the
    one loop that reads the fiber maps for covers.  Keeps the class of
    ``q``."""
    if i < 0:
        raise ValueError("pullback steps must be nonnegative")
    if q.size != rds.size:
        raise IncompatibleSystemsError("cover does not span the system base")
    if i == 0:
        return q
    return _decode(q, rds, next(islice(_mask_pullbacks(q, rds, i + 1), i, None)))


def pullback_cover(pi: FactorMap, cover: RandomCover) -> RandomCover:
    """Pull a cover of the target system back through a factor map."""
    if cover.size != pi.target.size:
        raise IncompatibleSystemsError("cover does not span the factor target base")
    elems = (
        tuple(
            frozenset(y for y in pi.source.fibers[w] if pi.apply(w, y) in e.sections[w])
            for w in range(pi.source.size)
        )
        for e in cover.elements
    )
    return _assemble(elems, partition=isinstance(cover, RandomPartition))


def refines(r: RandomCover, q: RandomCover) -> bool:
    """Does ``r`` refine ``q`` fiberwise: is every nonempty section of ``r``
    contained in some section of ``q`` on the same fiber?  The witness
    element of ``q`` may vary with the base point, which is the reading
    sigma-algebra inclusion needs."""
    _same_base(r, q)
    for w in range(r.size):
        q_secs = q.sections(w)
        for sec in r.sections(w):
            if sec and not any(sec <= qs for qs in q_secs):
                return False
    return True


def sigma_refines(fine: SigmaAlgebra, coarse: SigmaAlgebra) -> bool:
    """Sigma-algebra inclusion: every coarse atom is a union of fine atoms."""
    return refines(fine.atoms, coarse.atoms)
