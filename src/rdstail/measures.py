"""Exact measures on the bundle with prescribed base marginal, their
disintegration, conditional and relative entropies against finite
sub-sigma-algebras, the upper-semicontinuity defect surrogate, and the
entropy inequalities used by the verification suites.

Masses are exact rationals; sigma-algebras are finite and represented by
their atom partitions, so conditional expectations are exact ratio
computations.  Only logarithms are floating point; every inequality check
carries the module tolerance.  The convention ``0 * log 0 = 0`` applies
throughout.

Every measure built from others (mixtures, pushforwards, and the Cesaro
limits, lifts and polytope vertices of :mod:`rdstail.invariant`) sums its
``(omega, point, mass)`` contributions in one accumulator, :func:`_gather`.

The entropies and the containment optimum sum masses as integer
numerators over one common denominator per measure (:func:`_numerators`),
the same exact rationals as ``Fraction`` sums.  Every element and
intersection mass comes from :func:`_joint_masses`, over
``(element index, (omega, point))`` memberships: of frozenset sections for
:func:`conditional_entropy` and :func:`delta_contains`, and of the set bits
of the packed masks of :func:`rdstail.covers._mask_iterates` (bit i is state
``rds.states()[i]``) for the relative-entropy sweeps, which convert each
measure once per sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .budgets import Budgets, DEFAULTS
from .covers import (
    RandomCover,
    RandomPartition,
    SigmaAlgebra,
    _mask_iterates,
    fiber_partition,
    join,
    pullback,
    refines,
    sigma_refines,
    state_partition,
)
from .errors import PreconditionError
from .model import BundleRDS, FactorMap, Point, sort_points
from .tail_entropy import EntropyEstimate, TOL, integrated_log_count


@dataclass(frozen=True, eq=False)
class FiberedMeasure:
    """Nonnegative rational weights on bundle states.

    ``weights[omega]`` maps fiber points to masses.  Membership in the space
    of measures with base marginal P means the weights over each fiber sum
    exactly to the base mass there; :meth:`validate` checks this.
    """

    weights: tuple[Mapping[Point, Fraction], ...]

    @property
    def size(self) -> int:
        return len(self.weights)

    def get(self, omega: int, x: Point) -> Fraction:
        return self.weights[omega].get(x, Fraction(0))

    def total(self) -> Fraction:
        return sum((v for w in self.weights for v in w.values()), Fraction(0))

    def validate(self, rds: BundleRDS) -> list[str]:
        out = []
        if self.size != rds.size:
            return [f"measure spans {self.size} base points, system has {rds.size}"]
        for w in range(rds.size):
            stray = set(self.weights[w]) - set(rds.fibers[w])
            if stray:
                out.append(f"mass outside the fiber at omega={w}: {sorted(map(repr, stray))}")
            if any(v < 0 for v in self.weights[w].values()):
                out.append(f"negative mass at omega={w}")
            fiber_mass = sum(self.weights[w].values(), Fraction(0))
            if fiber_mass != rds.base.prob[w]:
                out.append(
                    f"marginal violated at omega={w}: {fiber_mass} != {rds.base.prob[w]}"
                )
        return out

    @classmethod
    def uniform(cls, rds: BundleRDS) -> "FiberedMeasure":
        return cls(
            tuple(
                {x: rds.base.prob[w] / len(rds.fibers[w]) for x in sort_points(rds.fibers[w])}
                for w in range(rds.size)
            )
        )

    @classmethod
    def from_fiber_weights(cls, weights: Iterable[Mapping[Point, Fraction]]) -> "FiberedMeasure":
        return cls(tuple({x: Fraction(v) for x, v in w.items()} for w in weights))


def measures_equal(a: FiberedMeasure, b: FiberedMeasure) -> bool:
    """Exact equality, insensitive to explicitly stored zeros; stops at the
    first unequal mass."""
    return a.size == b.size and all(
        wa.get(x, 0) == wb.get(x, 0) for wa, wb in zip(a.weights, b.weights) for x in wa.keys() | wb.keys()
    )


def total_variation(a: FiberedMeasure, b: FiberedMeasure) -> Fraction:
    """Unnormalized L1 distance (a single moved unit of mass costs 2)."""
    out = Fraction(0)
    for wa, wb in zip(a.weights, b.weights):
        for x in set(wa) | set(wb):
            out += abs(wa.get(x, Fraction(0)) - wb.get(x, Fraction(0)))
    return out


def _gather(size: int, masses: Iterable[tuple[int, Point, Fraction]]) -> FiberedMeasure:
    """Sum ``(omega, point, mass)`` contributions into fiber weights.  Every
    point met gets a key, in first-seen order, zero masses included."""
    acc: list[dict[Point, Fraction]] = [{} for _ in range(size)]
    for w, x, v in masses:
        acc[w][x] = acc[w].get(x, Fraction(0)) + v
    return FiberedMeasure(tuple(acc))


def mix(parts: Sequence[tuple[Fraction, FiberedMeasure]]) -> FiberedMeasure:
    """Exact affine combination of measures over one bundle."""
    size = parts[0][1].size
    return _gather(
        size, ((w, x, Fraction(c) * v) for c, mu in parts for w in range(size) for x, v in mu.weights[w].items())
    )


def disintegrate(mu: FiberedMeasure, rds: BundleRDS) -> tuple[dict[Point, Fraction] | None, ...]:
    """Fiber conditionals: weights divided by the base mass, summing to one
    on every fiber of positive base mass.  Fibers with zero base mass get
    ``None`` (flagged, not an error); the measure is reproduced exactly as
    the base-mass-weighted combination of the conditionals."""
    out: list[dict[Point, Fraction] | None] = []
    for w in range(rds.size):
        p = rds.base.prob[w]
        if p == 0:
            out.append(None)
        else:
            out.append({x: v / p for x, v in mu.weights[w].items()})
    return tuple(out)


def skew_pushforward(mu: FiberedMeasure, rds: BundleRDS) -> FiberedMeasure:
    """Image of the measure under one step of the skew map."""
    return _gather(
        rds.size,
        ((rds.base.theta[w], rds.apply(w, x), v) for w in range(rds.size) for x, v in mu.weights[w].items() if v),
    )


def pushforward_measure(pi: FactorMap, mu: FiberedMeasure) -> FiberedMeasure:
    """Transport a measure through a factor map (exact, affine, marginal
    preserving; sends invariant measures to invariant measures)."""
    return _gather(
        pi.source.size,
        ((w, pi.apply(w, y), v) for w in range(pi.source.size) for y, v in mu.weights[w].items() if v),
    )


Membership = tuple[int, tuple[int, Point]]  # (element index, (omega, point))


def _memberships(cover: RandomCover) -> list[Membership]:
    return [(i, (w, x)) for i, e in enumerate(cover.elements) for w, sec in enumerate(e.sections) for x in sec]


def _numerators(mu: FiberedMeasure, *covers: RandomCover) -> tuple[int, dict[tuple[int, Point], int]]:
    """The lcm ``D`` of the weights' denominators, and every stored weight,
    zeros included, as its numerator over ``D`` keyed ``(omega, point)``:
    the only place a ``Fraction`` mass becomes an integer.  A cover of
    ``covers`` over another number of base points than ``mu`` raises
    :class:`PreconditionError`."""
    if any(c.size != mu.size for c in covers):
        raise PreconditionError("measure_size", f"measure spans {mu.size} base points, a cover another number")
    d = math.lcm(*(v.denominator for w in mu.weights for v in w.values()))
    return d, {(w, x): v.numerator * (d // v.denominator) for w, ws in enumerate(mu.weights) for x, v in ws.items()}


def _joint_masses(
    num: Mapping[tuple[int, Point], int], atoms: Iterable[Membership], cells: Iterable[Membership]
) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """The numerator, over the denominator of ``num`` (:func:`_numerators`),
    of the mass of every atom, and of every (atom, cell) intersection keyed
    ``(atom index, cell index)``, those of zero mass left out.  A state
    lying in several atoms or several cells counts once in each of them."""
    cells_at: dict[tuple[int, Point], list[int]] = {}
    for j, state in cells:
        cells_at.setdefault(state, []).append(j)
    atom_mass: dict[int, int] = {}
    joint: dict[tuple[int, int], int] = {}
    for i, state in atoms:
        v = num.get(state, 0)
        if v:
            atom_mass[i] = atom_mass.get(i, 0) + v
            for j in cells_at.get(state, ()):
                joint[i, j] = joint.get((i, j), 0) + v
    return atom_mass, joint


def _entropy(
    d: int, num: Mapping[tuple[int, Point], int], atoms: Sequence[Membership], cells: Sequence[Membership]
) -> float:
    """The atom x cell formula: ``(v/d) * (log(a/d) - log(v/d))`` summed
    left to right in (atom, cell) order, ``v`` a joint and ``a`` its atom's
    numerator over ``d``.  ``int / int`` is correctly rounded, so each float
    is that of the reduced ``Fraction``.  A term whose ``v/d`` rounds to 0.0
    (null, or below 2e-321, far inside ``TOL``) is 0.0."""
    atom_mass, joint = _joint_masses(num, atoms, cells)
    total = 0.0
    for (i, _), v in sorted(joint.items()):
        m = v / d
        if m:
            total += m * (math.log(atom_mass[i] / d) - math.log(m))
    return total


def conditional_entropy(mu: FiberedMeasure, r: RandomCover, s: SigmaAlgebra) -> float:
    """Entropy of the partition ``r`` conditioned on the atoms of ``s``:
    the exact finite formula over joint atom masses, zero-mass cells
    contributing nothing.  Lies in ``[0, log len(r)]``.  Overlaps are not
    rejected: a state in two cells or two atoms counts once in each."""
    return _entropy(*_numerators(mu, r, s.atoms), _memberships(s.atoms), _memberships(r))


@dataclass(frozen=True)
class Filtration:
    """Increasing chain of finite sub-sigma-algebras."""

    stages: tuple[SigmaAlgebra, ...]

    def validate_chain(self) -> bool:
        return all(
            sigma_refines(self.stages[i + 1], self.stages[i]) for i in range(len(self.stages) - 1)
        )


def sigma_backward_compatible(s: SigmaAlgebra, rds: BundleRDS) -> bool:
    """Does the one-step dynamical pullback of the algebra sit inside it?
    Needed for the subadditivity of the conditioned sequence."""
    pulled = pullback(s.atoms, rds, 1)
    return refines(s.atoms, pulled)


def relative_entropy_sequences(
    measures: Sequence[FiberedMeasure],
    r: RandomPartition,
    s: SigmaAlgebra,
    rds: BundleRDS,
    n_max: int,
    budgets: Budgets = DEFAULTS,
) -> list[EntropyEstimate]:
    """Conditional entropies of the depth-n iterates of ``r`` given ``s``,
    with the running-infimum bracket, for every measure of a family: one
    pass over the mask iterates evaluates all measures at each depth.

    Preconditions are verified, not assumed: each measure must be exactly
    invariant under the skew map and the algebra must contain its own
    dynamical pullback; both are needed for subadditivity.

    Each measure becomes its integer numerators (:func:`_numerators`) once
    per sweep, not once per depth.
    """
    if not all(measures_equal(skew_pushforward(mu, rds), mu) for mu in measures):
        raise PreconditionError("invariant_measure", "measure is not skew-invariant")
    if not sigma_backward_compatible(s, rds):
        raise PreconditionError("backward_compatible_algebra", "pullback of the algebra escapes it")
    atoms = _memberships(s.atoms)
    numerators = [_numerators(mu, s.atoms) for mu in measures]
    states = rds.states()
    values: list[list[float]] = [[] for _ in measures]
    for masks in _mask_iterates(r, rds, n_max, budgets):
        # bit i of a packed mask is states[i]: walk the set bits only
        cells = []
        for j, e in enumerate(masks):
            while e:
                cells.append((j, states[(e & -e).bit_length() - 1]))
                e &= e - 1
        for (d, num), seq in zip(numerators, values):
            seq.append(_entropy(d, num, atoms, cells))
    return [EntropyEstimate(values=tuple(seq), requested=n_max) for seq in values]


def relative_entropy_sequence(
    mu: FiberedMeasure,
    r: RandomPartition,
    s: SigmaAlgebra,
    rds: BundleRDS,
    n_max: int,
    budgets: Budgets = DEFAULTS,
) -> EntropyEstimate:
    """:func:`relative_entropy_sequences` for a single measure."""
    return relative_entropy_sequences([mu], r, s, rds, n_max, budgets)[0]


def transformation_relative_entropy_sequence(
    mu: FiberedMeasure,
    s: SigmaAlgebra,
    rds: BundleRDS,
    n_max: int,
    budgets: Budgets = DEFAULTS,
) -> EntropyEstimate:
    """Bracket of the supremum over partitions, evaluated at the state
    partition, which dominates every partition's sequence at each depth on
    finite fibers (refinement monotonicity of conditional entropy)."""
    return relative_entropy_sequence(mu, state_partition(rds), s, rds, n_max, budgets)


@dataclass(frozen=True)
class DefectEstimate:
    """Family surrogate for the upper-semicontinuity defect at a measure.

    ``value`` is floored at zero; ``raw`` keeps the sign.  ``truncated[k]``
    compares the depth-(k+1) terms directly (the finite-depth structure the
    asymptotic defect hides).  When no family member falls in the
    neighborhood, the defect is zero with ``neighborhood_empty`` set.
    """

    value: float
    raw: float
    truncated: tuple[float, ...]
    neighborhood_empty: bool


def defect(
    m: FiberedMeasure,
    s: SigmaAlgebra,
    rds: BundleRDS,
    family: Sequence[FiberedMeasure],
    epsilon: Fraction,
    n_max: int,
    budgets: Budgets = DEFAULTS,
) -> DefectEstimate:
    """Largest entropy excess over ``m`` among family members within
    ``epsilon`` total variation.  All measures must be invariant; the
    sequences of ``m`` and of every member come from one sweep."""
    base_seq, *seqs = relative_entropy_sequences(
        [m, *family], state_partition(rds), s, rds, n_max, budgets
    )
    return defect_from_sequences(m, base_seq, family, seqs, epsilon)


def defect_from_sequences(
    m: FiberedMeasure,
    base_seq: EntropyEstimate,
    family: Sequence[FiberedMeasure],
    seqs: Sequence[EntropyEstimate],
    epsilon: Fraction,
) -> DefectEstimate:
    """:func:`defect` from sequences already swept: ``base_seq`` is the
    state-partition sequence of ``m`` and ``seqs[i]`` that of ``family[i]``."""
    near = [seq for mu, seq in zip(family, seqs) if total_variation(mu, m) <= epsilon]
    if not near:
        return DefectEstimate(
            value=0.0,
            raw=0.0,
            truncated=tuple(0.0 for _ in range(base_seq.requested)),
            neighborhood_empty=True,
        )
    raw = max(seq.value for seq in near) - base_seq.value
    truncated = tuple(
        max(column) - base for column, base in zip(zip(*(seq.ratios for seq in near)), base_seq.ratios)
    )
    return DefectEstimate(value=max(raw, 0.0), raw=raw, truncated=truncated, neighborhood_empty=False)


@dataclass(frozen=True)
class BoundCheck:
    ok: bool
    left: float
    right: float

    @property
    def slack(self) -> float:
        return self.right - self.left


def entropy_count_bound_check(
    mu: FiberedMeasure, r: RandomPartition, q: RandomPartition, rds: BundleRDS
) -> BoundCheck:
    """Conditional entropy of ``r`` given the algebra joining ``q`` with the
    base-point partition never exceeds the integrated log relative count."""
    s = SigmaAlgebra(join(q, fiber_partition(rds)))
    left = conditional_entropy(mu, r, s)
    right = integrated_log_count(rds, r, q, 1)
    return BoundCheck(ok=left <= right + TOL, left=left, right=right)


def two_partition_count_bound_check(
    mu: FiberedMeasure,
    r: RandomPartition,
    q: RandomPartition,
    rds: BundleRDS,
    s: SigmaAlgebra,
) -> BoundCheck:
    """Conditioned comparison of two partitions: the entropy of ``r`` given
    ``s`` is bounded by that of ``q`` plus the integrated log relative count.
    Valid whenever ``s`` contains the base-point algebra."""
    left = conditional_entropy(mu, r, s)
    right = conditional_entropy(mu, q, s) + integrated_log_count(rds, r, q, 1)
    return BoundCheck(ok=left <= right + TOL, left=left, right=right)


@dataclass(frozen=True)
class ContainmentWitness:
    """The exact containment optimum and whether it lies below ``delta``."""

    contained: bool
    # exact optimum of the total symmetric-difference mass over all
    # coarsenings of p matched (with empty-set padding) against q
    best_sum: Fraction


def delta_contains(
    p: RandomPartition,
    q: RandomPartition,
    mu: FiberedMeasure,
    delta: Fraction,
) -> ContainmentWitness:
    """Can some coarsening of ``p``, suitably ordered against ``q``, bring the
    total symmetric-difference mass strictly below ``delta``?

    The optimum is exact.  Because the mass of a merged cell is additive, the
    total over any matching equals ``mass(p) + mass(q) - 2 * (sum of matched
    intersection masses)``, so the best coarsening simply sends each p-element
    to a q-element with which it shares the most mass; no combinatorial
    search is required, and only the optimum is returned.  That additivity
    needs disjoint elements: either argument that is not a partition raises
    :class:`PreconditionError`.
    """
    if not all(isinstance(c, RandomPartition) and c.validate_disjoint() for c in (p, q)):
        raise PreconditionError("partitions", "the containment optimum is exact only for disjoint elements")
    p_cells, q_cells = _memberships(p), _memberships(q)
    d, num = _numerators(mu, p, q)
    p_mass, inter = _joint_masses(num, p_cells, q_cells)
    q_mass, _ = _joint_masses(num, q_cells, ())
    total = sum(p_mass.values()) + sum(q_mass.values())
    gained = sum(max(inter.get((i, j), 0) for j in range(len(q.elements))) for i in range(len(p.elements)))
    best_sum = Fraction(total - 2 * gained, d)
    return ContainmentWitness(contained=best_sum < delta, best_sum=best_sum)


@dataclass(frozen=True)
class ContainmentBound:
    ok: bool
    entropy: float
    bound: float
    # the alternative sign variant, reported alongside for comparison
    bound_plus_variant: float
    delta_in_range: bool
    witness: ContainmentWitness


def containment_entropy_bound_check(
    mu: FiberedMeasure,
    p: RandomPartition,
    q: RandomPartition,
    delta: Fraction,
) -> ContainmentBound:
    """If some coarsening of ``p`` matches ``q`` to within ``delta`` in total
    symmetric-difference mass, the conditional entropy of ``q`` given ``p``
    is at most ``-d log d - (1-d) log(1-d) + d log k`` with ``k = len(q)``.

    The bound envelope is increasing only for ``delta < 1/e``, so
    ``delta_in_range`` gates when ``ok`` is a theorem rather than a numeric
    observation.  The variant with ``+(1-d)log(1-d)`` is reported alongside.
    """
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    witness = delta_contains(p, q, mu, delta)
    if not witness.contained:
        raise PreconditionError("delta_containment", f"best achievable sum {witness.best_sum} >= {delta}")
    d = float(delta)
    k = len(q.elements)
    mixing = -d * math.log(d) - (1 - d) * math.log(1 - d)
    bound = mixing + d * math.log(k)
    bound_plus = -d * math.log(d) + (1 - d) * math.log(1 - d) + d * math.log(k)
    entropy = conditional_entropy(mu, q, SigmaAlgebra(p))
    return ContainmentBound(
        ok=entropy <= bound + TOL,
        entropy=entropy,
        bound=bound,
        bound_plus_variant=bound_plus,
        delta_in_range=float(delta) < 1 / math.e,
        witness=witness,
    )


@dataclass(frozen=True)
class FiltrationCheck:
    ok: bool
    entropies: tuple[float, ...]
    target_entropy: float


def filtration_limit_check(
    mu: FiberedMeasure,
    r: RandomPartition,
    filt: Filtration,
    target: SigmaAlgebra,
) -> FiltrationCheck:
    """Along a refining chain whose last stage generates the target algebra,
    the conditional entropies decrease monotonically to the target value
    (finite chains terminate, so the limit is attained exactly)."""
    if not filt.validate_chain():
        raise PreconditionError("refining_chain", "stages do not refine in order")
    last = filt.stages[-1]
    if not (sigma_refines(last, target) and sigma_refines(target, last)):
        raise PreconditionError("chain_generates_target", "last stage does not generate the target")
    entropies = tuple(conditional_entropy(mu, r, s) for s in filt.stages)
    monotone = all(entropies[i + 1] <= entropies[i] + TOL for i in range(len(entropies) - 1))
    target_entropy = conditional_entropy(mu, r, target)
    ok = monotone and abs(entropies[-1] - target_entropy) <= TOL
    return FiltrationCheck(ok=ok, entropies=entropies, target_entropy=target_entropy)
