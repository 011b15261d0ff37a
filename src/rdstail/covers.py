"""Random sets, covers, partitions, finite sub-sigma-algebras, and the cover
calculus: joins, dynamical pullbacks, iterates and refinement.

A random set assigns a subset of the fiber to every base point; a random
cover is a finite ordered family of random sets whose sections union to the
full fiber everywhere.  Covers are plain data (indexed by base point), so one
cover can be reused across systems sharing a base, e.g. a system and its
m-step power.  In the finite discrete topology every random set is both open
and closed, so no open/closed distinction is tracked.

Iterated covers, pullbacks and counts all read one index of ``rds.states()``,
the elements holding each state (:func:`_members`) and one skew table of
state images (:func:`_skew_table`), stepped 0, 1, 2, ... times by
:func:`_images`.  :func:`_cell_steps`, the one whole-bundle iterate engine,
numbers each depth's cells (a partition's only until they repeat) from those
of every state and the elements holding its image; :func:`iterate_cover`
and the entropy sweeps of ``measures`` read it.  :func:`pullback` reads the elements holding the i-step image of every
state straight into frozenset sections, and ``counting`` steps every fiber's
maximal sections from the same images.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, islice, product, repeat
from typing import Iterable, Iterator, Mapping, Sequence

from .budgets import Budgets, DEFAULTS
from .errors import BudgetExceededError, DomainError, IncompatibleSystemsError
from .model import BundleRDS, FactorMap, Point, State, sort_points


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


def _check_span(rds: BundleRDS, *covers: RandomCover | RandomSet) -> None:
    """Raise :class:`IncompatibleSystemsError` unless every cover or random
    set has one section per base point of ``rds``."""
    if any(c.size != rds.size for c in covers):
        raise IncompatibleSystemsError("cover does not span the system base")


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
    empty = (frozenset(),) * rds.size
    return RandomPartition(tuple(RandomSet(empty[:w] + (f,) + empty[w + 1 :]) for w, f in enumerate(rds.fibers)))


def state_partition(rds: BundleRDS) -> RandomPartition:
    """Finest partition: one element per bundle state (base point, point).

    Fiber sections agree with :func:`point_partition`, but no element pools
    mass across base points, so this is the partition generating the full
    algebra of the bundle.  Use it (or its factor-map pullbacks) wherever a
    conditioning algebra must separate base points.
    """
    empty = (frozenset(),) * rds.size
    return RandomPartition(tuple(RandomSet(empty[:w] + (frozenset((x,)),) + empty[w + 1 :]) for w, x in rds.states()))


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


Members = Sequence[Sequence[int]]  # per indexed state, the indices of the elements or cells holding it


def _members(cover: RandomCover, index: Mapping[State, int], rest: int | None = None) -> list[list[int]]:
    """Per state of ``index`` and one slot after them, the ascending indices of
    the elements of ``cover`` holding it.  A state outside ``index`` goes to
    slot ``rest`` or, with none, raises :class:`DomainError` at its first base point."""
    out: list[list[int]] = [[] for _ in range(len(index) + 1)]
    for i, e in enumerate(cover.elements):
        for w, sec in enumerate(e.sections):
            for x in sec:
                if (k := index.get((w, x), rest)) is None:
                    w = min(v for f in cover.elements for v, s in enumerate(f.sections) for y in s if (v, y) not in index)
                    raise DomainError(f"cover leaves the fiber at omega={w}")
                out[k].append(i)
    return out


def _skew_table(rds: BundleRDS, index: Mapping[State, int]) -> list[int]:
    """The slot of the skew image of every state of ``index``, and one slot
    after them, in no element and stepping to itself, for a point mapped
    outside its image fiber.  A point with no image raises :class:`DomainError`."""
    return [index.get((rds.base.theta[w], rds.apply(w, x)), len(index)) for w, x in index] + [len(index)]


def _images(rds: BundleRDS, index: Mapping[State, int], step: list[int] | None = None) -> Iterator[list[int]]:
    """The slots of the 0-, 1-, 2-, ...-step skew images of the states of
    ``index``, each step read from ``step``, the :func:`_skew_table`, which
    the first step builds if not given."""
    image = list(range(len(index)))
    yield image
    step = step or _skew_table(rds, index)
    while True:
        yield (image := [step[t] for t in image])


def _cell_steps(
    r: RandomCover, rds: BundleRDS, index: Mapping[State, int], n_max: int, budgets: Budgets, step: list[int] | None = None
) -> Iterator[tuple[Members, list[tuple[int, ...]]]]:
    """Per depth 1..n_max of ``r`` over ``index`` (``rds.states()``): the cells
    holding each state, as :func:`_members`, and the ascending states of each
    cell.  Depth n+1 numbers the distinct state sets of the pairs (a, b), a a
    depth-n cell of the state and b an element of ``r`` holding its n-step
    image, in sorted pair order: the first-seen order of the join with the
    n-step pullback.  The images are those of :func:`_images` over ``step``.
    Past depth 1, more than ``budgets.cover_elements`` cells raise the budget
    error.  On a partition, a depth repeating the last one's cells in order
    repeats them to ``n_max``: each cell pairs with one element again and
    keeps its number."""
    cells, held = [[0]] * len(index), None  # depth 0: the whole bundle is one cell
    for depth, image in zip(range(1, n_max + 1), _images(rds, index, step)):
        if depth == 1:
            _check_span(rds, r)
            elements = _members(r, index)
        holders: dict[tuple[int, int], list[int]] = {}
        for i, (c, t) in enumerate(zip(cells, image)):
            for k in product(c, elements[t]):
                holders.setdefault(k, []).append(i)
        sets = list(dict.fromkeys(tuple(holders[k]) for k in sorted(holders)))  # numbered first seen first
        if depth > 1 and len(sets) > budgets.cover_elements:
            raise BudgetExceededError("cover_elements", budgets.cover_elements, len(sets), depth=depth)
        if sets == held and all(len(e) < 2 for e in elements):  # no state in two elements
            yield from repeat((cells, held), n_max + 1 - depth)
            return
        cells = [[] for _ in image]
        for j, cell in enumerate(sets):
            for i in cell:
                cells[i].append(j)
        yield cells, (held := sets)


def iterate_cover(q: RandomCover, rds: BundleRDS, n: int, budgets: Budgets = DEFAULTS) -> RandomCover:
    """Join of the pullbacks at steps 0..n-1 (depth-n dynamical refinement):
    the depth-n cells of :func:`_cell_steps` in cell order, each read into
    one section per base point, a partition iff ``q`` is one."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    index = {state: i for i, state in enumerate(rds.states())}
    for _, held in _cell_steps(q, rds, index, n, budgets):
        pass
    fiber, points = [w for w, _ in index], [x for _, x in index]
    empty = (frozenset(),) * rds.size
    elements = []
    for cell in held:
        sections = list(empty)
        for w, run in groupby(cell, fiber.__getitem__):
            sections[w] = frozenset(map(points.__getitem__, run))
        elements.append(RandomSet(tuple(sections)))
    cls = RandomPartition if isinstance(q, RandomPartition) else RandomCover
    return cls(tuple(elements))


def pullback(q: RandomCover, rds: BundleRDS, i: int) -> RandomCover:
    """Pull every element back i dynamical steps: the section at a base point
    is the i-step fiber-map preimage of the element's section at the i-step
    image base point, read from the i-step skew image of every state
    (:func:`_images`) and the elements holding it (:func:`_members`).
    Elements empty on every fiber are dropped and repeats merged, in
    first-seen element order.  Keeps the class of ``q``."""
    if i < 0:
        raise ValueError("pullback steps must be nonnegative")
    _check_span(rds, q)
    if i == 0:
        return q
    index = {state: k for k, state in enumerate(rds.states())}
    held = _members(q, index)
    sections: list[list[list[Point]]] = [[[] for _ in range(rds.size)] for _ in q.elements]
    for (w, x), t in zip(index, next(islice(_images(rds, index), i, None))):
        for e in held[t]:
            sections[e][w].append(x)
    return _assemble((tuple(map(frozenset, e)) for e in sections), partition=isinstance(q, RandomPartition))


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
