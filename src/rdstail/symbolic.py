"""Driven subshift-of-finite-type backend.

Explicit finite fibers force every asymptotic entropy to zero, so this module
supplies the positive ground truths: fibers are one-sided admissible symbol
sequences (several independent components, each with a per-base-point 0/1
transition matrix), dynamics is the left shift, and covers are cylinder
families on an initial block of coordinates.  Iterated-cover counts then
reduce to admissible-word counting, which is done with exact big-integer
vector walks rather than by materializing fibers.  A component the
conditioning family does not resolve counts its words with a row vector
walked forward along the base orbit; a shared component counts the
extensions of a conditioning word with a column vector walked backwards over
a fixed window.  The transition matrices are 0/1, so each step is O(a^2)
big-integer additions for an alphabet of size a.  A count is exact at any
depth, with no recursion.  Every base orbit ends in a theta-cycle, so a
point query walks the preperiod, takes the whole laps of the cycle as one
power of the cycle's product matrix, by squaring, and walks the rest: at
depth n it costs O(|base| a^3 + a^3 log n) big-integer operations.  A depth
sweep stays linear in the depth: it walks each base point's orbit once for
all depths, and counts a shared component's window once per base point the
window starts at.  State lives for one call only; nothing is cached between
calls.

The count of a depth-n iterate spans coordinates ``0 .. n+d-2`` for a
depth-d cylinder family; a cylinder family refines another whenever it
resolves at least the same components, which is the precondition of
:func:`sft_tail_sequence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice, repeat
from math import prod
from operator import mul
from typing import Iterable, Iterator

from .errors import DomainError, PreconditionError
from .model import DrivingSystem, terminal_cycles
from .tail_entropy import EntropyEstimate, _integrate

Matrix = tuple[tuple[int, ...], ...]
Orbit = tuple[tuple[int, ...], tuple[int, ...]]  # preperiod path, theta-cycle


@dataclass(frozen=True)
class SFTComponent:
    """One symbol alphabet with a transition matrix per base point."""

    alphabet: int
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        for m in self.matrices:
            if len(m) != self.alphabet or any(len(row) != self.alphabet for row in m):
                raise ValueError("transition matrices must be alphabet x alphabet")
            if any(v not in (0, 1) for row in m for v in row):
                raise ValueError("transition matrices must be 0/1")


@dataclass(frozen=True)
class RandomSFT:
    """Product of independent driven subshift components over one base."""

    base: DrivingSystem
    components: tuple[SFTComponent, ...]

    def __post_init__(self):
        for c in self.components:
            if len(c.matrices) != self.base.size:
                raise ValueError("need one transition matrix per base point")

    def validate(self) -> list[str]:
        """No dead symbols: every row and column of every matrix has a 1,
        so fibers are nonempty and every symbol extends both ways."""
        out = []
        for ci, c in enumerate(self.components):
            for w, m in enumerate(c.matrices):
                for s in range(c.alphabet):
                    if not any(m[s]):
                        out.append(f"component {ci}, omega={w}: row {s} is all zero")
                    if not any(m[t][s] for t in range(c.alphabet)):
                        out.append(f"component {ci}, omega={w}: column {s} is all zero")
        return out


@dataclass(frozen=True)
class CylinderCoverSpec:
    """Cylinder family resolving coordinates ``0..depth-1`` of the chosen
    components.  An empty component set is the trivial cover."""

    components: frozenset[int]
    depth: int = 1

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("cylinder depth must be >= 1")

    def span(self, n: int) -> int:
        return n + self.depth - 1


def _orbit(base: DrivingSystem, omega: int) -> Orbit:
    """The orbit of ``omega`` as its preperiod path and the theta-cycle it
    falls into: ``omega, theta(omega), ...`` is the path followed by the
    cycle repeated forever.  A base point out of range raises
    :class:`DomainError`."""
    base.check_point(omega)
    (cycle,), reached = terminal_cycles((omega,), base.theta.__getitem__)
    return tuple(reached)[: len(reached) - len(cycle)], tuple(cycle)


def _orbit_point(orbit: Orbit, n: int) -> int:
    """The n-th theta iterate of the orbit's first point."""
    path, cycle = orbit
    return path[n] if n < len(path) else cycle[(n - len(path)) % len(cycle)]


def _cycle_product(comp: SFTComponent, cycle: tuple[int, ...]) -> list[list[int]]:
    """``M_c0 M_c1 ... M_c(L-1)`` over one lap of the cycle, exact: a row
    vector times it is the vector walked once around the cycle.  The factors
    are 0/1, so each costs a^3 additions."""
    product = [list(row) for row in comp.matrices[cycle[0]]]
    for w in cycle[1:]:
        columns = tuple(zip(*comp.matrices[w]))
        product = [[sum(compress(row, col)) for col in columns] for row in product]
    return product


def _times_power(u: list[int], matrix: list[list[int]], k: int) -> list[int]:
    """The row vector ``u M^k`` for ``k >= 1``, squaring M ``log2(k)``
    times."""
    while True:
        if k & 1:
            u = [sum(map(mul, u, col)) for col in zip(*matrix)]
        k >>= 1
        if not k:
            return u
        columns = tuple(zip(*matrix))
        matrix = [[sum(map(mul, row, col)) for col in columns] for row in matrix]


def _word_counts(sft: RandomSFT, component: int, orbit: Orbit, length: int) -> Iterator[int]:
    """Numbers of admissible words of lengths ``length, length+1, ...`` of
    one component starting over the first point of ``orbit``.  A row vector
    walks forward along the base orbit, ``u <- u^T M_omega`` from all ones:
    entry j counts the words that end in symbol j, and the count is
    ``sum(u)``.

    The first ``length - 1`` steps are jumped: the preperiod is walked, the
    whole laps of the cycle are one power of the cycle's product matrix,
    taken by squaring, and the rest of a lap is walked.  The power is taken
    only when it costs fewer big-integer operations than walking the laps:
    building the product and squaring it cost a^3 each, one walked step
    a^2."""
    comp = sft.components[component]
    columns = [tuple(zip(*m)) for m in comp.matrices]
    path, cycle = orbit
    u = [1] * comp.alphabet
    steps = length - 1
    for omega in path[:steps]:
        u = [sum(compress(u, col)) for col in columns[omega]]
    laps, rest = divmod(max(0, steps - len(path)), len(cycle))
    if (len(cycle) - 1 + laps.bit_length()) * comp.alphabet < laps * len(cycle):
        u = _times_power(u, _cycle_product(comp, cycle), laps)
    else:
        rest += laps * len(cycle)
    omega = _orbit_point(orbit, min(steps, len(path)))
    for _ in range(rest):
        u = [sum(compress(u, col)) for col in columns[omega]]
        omega = sft.base.theta[omega]
    while True:
        yield sum(u)
        u = [sum(compress(u, col)) for col in columns[omega]]
        omega = sft.base.theta[omega]


def _extension_count(sft: RandomSFT, component: int, start: int, steps: int) -> int:
    """Most admissible extensions by ``steps`` symbols of one conditioning
    word whose last symbol sits over ``start``.  A column vector walks
    backwards over the window of ``steps`` matrices, ``v <- M v`` from all
    ones: entry i counts the extensions of a word ending in symbol i.  Every
    symbol ends some admissible prefix (no dead columns), so the largest
    entry is attained."""
    comp = sft.components[component]
    window = []
    for _ in range(steps):
        window.append(comp.matrices[start])
        start = sft.base.theta[start]
    v = [1] * comp.alphabet
    for m in reversed(window):
        v = [sum(compress(v, row)) for row in m]
    return max(v)


def admissible_word_count(sft: RandomSFT, component: int, omega: int, n: int) -> int:
    """Number of admissible length-n words of one component starting over
    ``omega``.  Exact big integers.  A component or base point out of
    range raises :class:`DomainError`."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    _check_components(sft, (component,))
    return next(_word_counts(sft, component, _orbit(sft.base, omega), n))


def _check_components(sft: RandomSFT, components: Iterable[int]) -> None:
    """Raise :class:`DomainError` for a component the subshift lacks."""
    for c in sorted(components):
        if not 0 <= c < len(sft.components):
            raise DomainError(f"component={c} is outside 0..{len(sft.components) - 1}")


def _check_specs(sft: RandomSFT, r_spec: CylinderCoverSpec, q_spec: CylinderCoverSpec) -> None:
    """The counted family resolves every conditioned component, and every
    component it resolves is one of the subshift's."""
    if not q_spec.components <= r_spec.components:
        raise PreconditionError(
            "cylinder_refinement", "the counted family must resolve every conditioned component"
        )
    _check_components(sft, r_spec.components)


def relative_word_count(
    sft: RandomSFT, r_spec: CylinderCoverSpec, q_spec: CylinderCoverSpec, n: int, omega: int
) -> int:
    """Count of the depth-n iterated cylinder cover of ``r_spec`` relative to
    that of ``q_spec`` at one base point: the first item of
    :func:`_depth_counts` started at depth n."""
    _check_specs(sft, r_spec, q_spec)
    if n < 1:
        raise ValueError("depth must be >= 1")
    return next(_depth_counts(sft, r_spec, q_spec, omega, n))


def _shared_factors(sft: RandomSFT, component: int, start: int, steps: int) -> Iterator[int]:
    """Factors of a shared component at successive depths: the window of
    ``steps`` matrices after the conditioning span moves one base step per
    depth.  A factor depends only on the window's start, so each base point
    the window starts at is counted once and reused on later laps."""
    factors: dict[int, int] = {}
    while True:
        if start not in factors:
            factors[start] = _extension_count(sft, component, start, steps)
        yield factors[start]
        start = sft.base.theta[start]


def _depth_counts(
    sft: RandomSFT, r_spec: CylinderCoverSpec, q_spec: CylinderCoverSpec, omega: int, first: int = 1
) -> Iterator[int]:
    """Counts of the iterated cylinder covers of ``r_spec`` relative to those
    of ``q_spec`` at base point ``omega``, at depths ``first, first+1, ...``,
    walking the orbit of ``omega`` forward once.  It is the one place that
    decides what each component contributes.

    Components factor independently: a component unresolved by ``q_spec``
    contributes its span word count; a shared component contributes the
    largest number of admissible span extensions of a conditioning word (1
    when the conditioning span is at least as long).  The streams start at
    depth ``first`` from one orbit decomposition of ``omega``: the word
    counts jump to their spans at that depth by cycle-product powers, so the
    first item costs one point query, and each later item one walked step.
    An empty counted family yields 1 at every depth.
    """
    orbit = _orbit(sft.base, omega)
    streams = [repeat(1)]  # an empty counted family counts 1 at every depth
    for c in sorted(r_spec.components):
        if c in q_spec.components:
            start = _orbit_point(orbit, q_spec.span(first) - 1)
            streams.append(_shared_factors(sft, c, start, max(0, r_spec.depth - q_spec.depth)))
        else:
            streams.append(_word_counts(sft, c, orbit, r_spec.span(first)))
    return map(prod, zip(*streams))


def sft_tail_sequence(
    sft: RandomSFT, r_spec: CylinderCoverSpec, q_spec: CylinderCoverSpec, n_max: int
) -> EntropyEstimate:
    """Integrated log-count sequence for cylinder covers, with the same
    contracts as the explicit-system estimates.  A zero-mass base point
    counts 1 at every depth, unevaluated."""
    _check_specs(sft, r_spec, q_spec)
    if n_max < 1:
        raise ValueError("an estimate needs at least one depth")
    weights = [float(p) for p in sft.base.prob]
    streams = [_depth_counts(sft, r_spec, q_spec, w) if p else repeat(1) for w, p in enumerate(weights)]
    values = tuple(_integrate(weights, counts) for counts in islice(zip(*streams), n_max))
    return EntropyEstimate(values=values, requested=n_max)
