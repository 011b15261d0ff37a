"""Random sets, covers, partitions, finite sub-sigma-algebras, and the cover
calculus: joins, dynamical pullbacks, iterates, refinement, and approximate
containment of one partition in another.

A random set assigns a subset of the fiber to every base point; a random
cover is a finite ordered family of random sets whose sections union to the
full fiber everywhere.  Covers are plain data (indexed by base point), so one
cover can be reused across systems sharing a base, e.g. a system and its
m-step power.  In the finite discrete topology every random set is both open
and closed, so no open/closed distinction is tracked.

Iterated covers are built on integer bitmasks: bit k of a section over base
point w is the k-th point of ``sort_points(rds.fibers[w])``, so an element is
one ``int`` per fiber and a join is a fiberwise ``&``.  One generator,
:func:`_mask_pullbacks`, pulls a cover back 0, 1, 2, ... steps by advancing
every point's image one step per item; it is the only loop that walks the
fiber maps for covers.  :func:`pullback` decodes one of its items, and one
join fold over it, :func:`_mask_iterates`, builds every depth: the counts
read its masks directly, and :func:`iterate_covers` decodes them into the
same frozenset covers a fold of :func:`join` and :func:`pullback` gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import and_
from typing import TYPE_CHECKING, Iterable, Iterator

from .budgets import Budgets, DEFAULTS
from .errors import BudgetExceededError, DomainError, IncompatibleSystemsError
from .model import BundleRDS, FactorMap, Point, sort_points

if TYPE_CHECKING:  # pragma: no cover
    from .measures import FiberedMeasure


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
    label: str | None = None

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


def _assemble(elements: Iterable[tuple[frozenset, ...]], partition: bool, label: str | None = None) -> RandomCover:
    # drop elements empty on every fiber, dedup identical section tuples,
    # keep first-seen order for determinism
    seen: dict[tuple[frozenset, ...], None] = {}
    for secs in elements:
        if any(secs) and secs not in seen:
            seen[secs] = None
    cls = RandomPartition if partition else RandomCover
    return cls(tuple(RandomSet(secs) for secs in seen), label=label)


def trivial_cover(rds: BundleRDS) -> RandomPartition:
    """The one-element cover whose single section is the whole fiber."""
    return RandomPartition((RandomSet(tuple(rds.fibers)),), label="trivial")


def point_partition(rds: BundleRDS) -> RandomPartition:
    """Singleton partition: one element per point id, empty where absent."""
    ids = sort_points({x for f in rds.fibers for x in f})
    elems = tuple(
        RandomSet(tuple(frozenset([x]) if x in rds.fibers[w] else frozenset() for w in range(rds.size)))
        for x in ids
    )
    return RandomPartition(elems, label="points")


def fiber_partition(rds: BundleRDS) -> RandomPartition:
    """Partition by base point: element w is the whole fiber at w, empty
    elsewhere.  Conditioning on it means conditioning on the base point."""
    elems = tuple(
        RandomSet(tuple(rds.fibers[w] if v == w else frozenset() for v in range(rds.size)))
        for w in range(rds.size)
    )
    return RandomPartition(elems, label="fibers")


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
    return RandomPartition(elems, label="states")


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


Masks = list[tuple[int, ...]]


def _fiber_index(fiber: Iterable[Point]) -> dict[Point, int]:
    """Bit of every point of a fiber: bit k is the k-th of ``sort_points``."""
    return {x: 1 << k for k, x in enumerate(sort_points(fiber))}


def _section_masks(sections: Iterable[frozenset], index: dict[Point, int], omega: int) -> list[int]:
    try:
        return [sum(map(index.__getitem__, sec)) for sec in sections]
    except KeyError:
        raise DomainError(f"cover leaves the fiber at omega={omega}") from None


def _distinct(elements: Iterable[tuple[int, ...]], empty: tuple[int, ...]) -> Masks:
    # the mask form of _assemble: dedup in first-seen order, then drop the
    # element empty on every fiber
    out = dict.fromkeys(elements)
    out.pop(empty, None)
    return list(out)


def _mask_pullbacks(q: RandomCover, rds: BundleRDS, n: int) -> Iterator[Masks]:
    """The 0..n-1-step pullbacks of ``q`` as lists of distinct per-fiber mask
    tuples, in the element order of ``q``.

    The i-step pullback reads the bit of every point's i-step image; the
    images advance one step per item.  Raises :class:`DomainError` if a
    section of ``q`` leaves its fiber.
    """
    if n < 1:
        return
    if q.size != rds.size:
        raise IncompatibleSystemsError("cover does not span the system base")
    indices = [_fiber_index(f) for f in rds.fibers]
    empty = (0,) * rds.size
    base = _distinct(zip(*(_section_masks(q.sections(w), index, w) for w, index in enumerate(indices))), empty)
    yield base
    images, targets = [sort_points(f) for f in rds.fibers], list(range(rds.size))
    for i in range(1, n):
        images = [[rds.apply(v, y) for y in ys] for v, ys in zip(targets, images)]
        targets = [rds.base.theta[v] for v in targets]
        # per fiber: image bit -> mask of the points whose i-step image it is
        # (bit 0 collects images that left their fiber: they pull back nothing)
        preimages = []
        for ys, t in zip(images, targets):
            pre: dict[int, int] = {}
            for k, y in enumerate(ys):
                bit = indices[t].get(y, 0)
                pre[bit] = pre.get(bit, 0) | 1 << k
            preimages.append(pre)
        yield _distinct(
            (tuple(_preimage(pre, e[t]) for pre, t in zip(preimages, targets)) for e in base),
            empty,
        )


def _preimage(pre: dict[int, int], mask: int) -> int:
    """The union of the preimage masks of the set bits of ``mask``: one
    lookup per point of the section."""
    out = 0
    while mask:
        bit = mask & -mask
        out |= pre.get(bit, 0)
        mask ^= bit
    return out


def _mask_iterates(q: RandomCover, rds: BundleRDS, n_max: int, budgets: Budgets = DEFAULTS) -> Iterator[Masks]:
    """The depth-1..n_max refinements of ``q`` as lists of per-fiber mask
    tuples, in the element order of :func:`iterate_covers`: depth i+1 joins
    depth i with the i-step item of :func:`_mask_pullbacks`.

    Raises :class:`DomainError` if a section of ``q`` leaves its fiber and
    :class:`BudgetExceededError` with the offending depth when the element
    count blows past ``budgets.cover_elements``.
    """
    pulls = _mask_pullbacks(q, rds, n_max)
    out = next(pulls, None)
    if out is None:
        return
    yield out
    empty = (0,) * rds.size
    for depth, pulled in enumerate(pulls, 2):
        out = _distinct((tuple(map(and_, a, b)) for a in out for b in pulled), empty)
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


def _decode(q: RandomCover, rds: BundleRDS, masks: Masks, label: str | None) -> RandomCover:
    """The cover of the masks, a partition iff ``q`` is one; a section that
    several elements share is decoded once."""
    points = [sort_points(f) for f in rds.fibers]
    sections = [
        {m: frozenset(x for k, x in enumerate(pts) if m >> k & 1) for m in set(col)}
        for pts, col in zip(points, zip(*masks))
    ]
    cls = RandomPartition if isinstance(q, RandomPartition) else RandomCover
    elements = tuple(RandomSet(tuple(s[m] for s, m in zip(sections, e))) for e in masks)
    return cls(elements, label=label)


def iterate_covers(
    q: RandomCover, rds: BundleRDS, n_max: int, budgets: Budgets = DEFAULTS
) -> Iterator[RandomCover]:
    """The depth-1..n_max dynamical refinements of ``q`` in one pass: depth
    n+1 joins depth n with the n-step pullback (none for n_max < 1).

    Depth 1 keeps the label of ``q``; every depth is a partition iff ``q``
    is one.  Raises :class:`DomainError` if a section of ``q`` leaves its
    fiber, and :class:`BudgetExceededError` with the offending depth when
    the element count blows past ``budgets.cover_elements``.
    """
    for n, masks in enumerate(_mask_iterates(q, rds, n_max, budgets), 1):
        yield _decode(q, rds, masks, q.label if n == 1 else None)


def iterate_cover(
    q: RandomCover, rds: BundleRDS, n: int, budgets: Budgets = DEFAULTS
) -> RandomCover:
    """Join of the pullbacks at steps 0..n-1 (depth-n dynamical refinement):
    the last item of :func:`iterate_covers`."""
    return _decode(q, rds, _mask_iterate(q, rds, n, budgets), q.label if n == 1 else None)


def pullback(q: RandomCover, rds: BundleRDS, i: int) -> RandomCover:
    """Pull every element back i dynamical steps: the section at a base point
    is the i-step fiber-map preimage of the element's section at the i-step
    image base point.  It is the i-step item of :func:`_mask_pullbacks`, the
    one loop that advances fiber-map images for covers.  Keeps the class
    and the label of ``q``."""
    if i < 0:
        raise ValueError("pullback steps must be nonnegative")
    if q.size != rds.size:
        raise IncompatibleSystemsError("cover does not span the system base")
    if i == 0:
        return q
    return _decode(q, rds, next(islice(_mask_pullbacks(q, rds, i + 1), i, None)), q.label)


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
    return _assemble(elems, partition=isinstance(cover, RandomPartition), label=cover.label)


def refines(r: RandomCover, q: RandomCover, fiberwise: bool = False) -> bool:
    """Is every element of ``r`` contained in a single element of ``q``?

    Default reading treats elements as random sets: one witness element of
    ``q`` must contain the ``r``-element on every fiber where the latter is
    nonempty.  ``fiberwise=True`` allows the witness to vary with the base
    point; that weaker reading is the right one for sigma-algebra inclusion
    and is implied by the default.
    """
    _same_base(r, q)
    if fiberwise:
        for w in range(r.size):
            q_secs = q.sections(w)
            for sec in r.sections(w):
                if sec and not any(sec <= qs for qs in q_secs):
                    return False
        return True
    for e in r.elements:
        if not any(
            all(not sec or sec <= qe.sections[w] for w, sec in enumerate(e.sections))
            for qe in q.elements
        ):
            return False
    return True


def sigma_refines(fine: SigmaAlgebra, coarse: SigmaAlgebra) -> bool:
    """Sigma-algebra inclusion: every coarse atom is a union of fine atoms."""
    return refines(fine.atoms, coarse.atoms, fiberwise=True)


@dataclass(frozen=True)
class ContainmentWitness:
    contained: bool
    # exact optimum of the total symmetric-difference mass over all
    # coarsenings of p matched (with empty-set padding) against q
    best_sum: Fraction
    # witness: groups[j] lists the p-element indices merged and matched with
    # q-element j; every p-element appears in exactly one group
    groups: tuple[tuple[int, ...], ...]


def delta_contains(
    p: RandomPartition,
    q: RandomPartition,
    mu: "FiberedMeasure",
    delta: Fraction,
) -> ContainmentWitness:
    """Can some coarsening of ``p``, suitably ordered against ``q``, bring the
    total symmetric-difference mass strictly below ``delta``?

    The optimum is exact.  Because the mass of a merged cell is additive, the
    total over any matching equals ``mass(p) + mass(q) - 2 * (sum of matched
    intersection masses)``, so the best coarsening simply sends each p-element
    to the q-element with which it shares the most mass; no combinatorial
    search is required.
    """
    from .measures import mass_of_sections  # local import to avoid a cycle

    inter = [
        [
            mass_of_sections(mu, tuple(ps & qs for ps, qs in zip(pe.sections, qe.sections)))
            for qe in q.elements
        ]
        for pe in p.elements
    ]
    total_p = sum((mass_of_sections(mu, pe.sections) for pe in p.elements), Fraction(0))
    total_q = sum((mass_of_sections(mu, qe.sections) for qe in q.elements), Fraction(0))
    groups: list[list[int]] = [[] for _ in q.elements]
    gained = Fraction(0)
    for i, row in enumerate(inter):
        best_j = max(range(len(row)), key=lambda j: (row[j], -j))
        gained += row[best_j]
        groups[best_j].append(i)
    best_sum = total_p + total_q - 2 * gained
    return ContainmentWitness(
        contained=best_sum < delta,
        best_sum=best_sum,
        groups=tuple(tuple(g) for g in groups),
    )
