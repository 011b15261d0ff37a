"""Exact measures on the bundle with prescribed base marginal, their
disintegration, conditional and relative entropies against finite
sub-sigma-algebras, the upper-semicontinuity defect surrogate, and the
entropy inequalities used by the verification suites.

Masses are exact rationals; sigma-algebras are finite and represented by
their atom partitions, so conditional expectations are exact ratio
computations.  Only logarithms are floating point; every inequality check
carries the module tolerance.  The convention ``0 * log 0 = 0`` applies
throughout.

All measure arithmetic runs in one numerator kernel: a measure enters as
integer numerators over the lcm of its denominators (:func:`_numerators`),
every sum, difference and skew step is integer arithmetic, and a measure
leaves as one reduced ``Fraction(n, d)`` per stored mass (:func:`_measure`).
Every measure built from others (pushforwards, and the Cesaro limits, lifts
and polytope vertices of :mod:`rdstail.invariant`) sums its contributions in
one accumulator, :func:`_gather`, and the invariance defect and the sweeps'
invariance precondition are the integer L1 gap of one skew step
(:func:`_skew_gap`).  A measure over another number of base points than
what it meets, or with a weight that is not an ``int`` or a ``Fraction``,
raises :class:`PreconditionError`.

The entropies and the containment optimum read every mass from one kernel,
:func:`_joint_masses`, over per-state numerators and memberships.  The
sweeps take the cell memberships of ``rds.states()`` from the iterate engine
behind :func:`rdstail.covers.iterate_cover`, ``covers._cell_steps``, and
convert each measure once per sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .budgets import Budgets, DEFAULTS
from .covers import (
    Members,
    RandomCover,
    RandomPartition,
    SigmaAlgebra,
    _cell_steps,
    _check_span,
    _members,
    _skew_table,
    fiber_partition,
    join,
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
        d, num = _numerators(self)
        return Fraction(sum(num.values()), d)

    def validate(self, rds: BundleRDS) -> list[str]:
        if self.size != rds.size:
            return [f"measure spans {self.size} base points, system has {rds.size}"]
        return _violations(*_numerators(self), rds)

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


def _same_size(mu: FiberedMeasure, *spans) -> None:
    """Refuse a measure, system or cover of ``spans`` over another number of
    base points than ``mu``."""
    for o in spans:
        if o.size != mu.size:
            raise PreconditionError("measure_size", f"measure spans {mu.size} base points, another argument {o.size}")


Numerators = dict[tuple[int, Point], int]  # (omega, point) -> numerator over a common denominator


def _scaled(mu: FiberedMeasure, d: int) -> Numerators:
    """Every stored weight, zeros included and in storage order, as its
    numerator over ``d``, a multiple of every weight's denominator."""
    return {(w, x): v.numerator * (d // v.denominator) for w, ws in enumerate(mu.weights) for x, v in ws.items()}


def _denominator(*measures: FiberedMeasure) -> int:
    """The lcm of the denominators of every stored weight.  A weight that is
    not an ``int`` or a ``Fraction`` raises :class:`PreconditionError`."""
    try:
        return math.lcm(*(v.denominator for mu in measures for ws in mu.weights for v in ws.values()))
    except AttributeError:
        for mu in measures:
            for w, ws in enumerate(mu.weights):
                for x, v in ws.items():
                    if not isinstance(v, (int, Fraction)):
                        detail = f"weight {v!r} of {x!r} at omega={w} is not an int or a Fraction"
                        raise PreconditionError("exact_weights", detail)
        raise


def _numerators(mu: FiberedMeasure, *spans) -> tuple[int, Numerators]:
    """Where a measure enters the kernel: its :func:`_denominator` ``D`` and
    :func:`_scaled` over ``D``, after :func:`_same_size`."""
    _same_size(mu, *spans)
    d = _denominator(mu)
    return d, _scaled(mu, d)


def _violations(d: int, num: Numerators, rds: BundleRDS) -> list[str]:
    """:meth:`FiberedMeasure.validate` of numerators over ``d`` on ``rds``."""
    fibers: list[dict[Point, int]] = [{} for _ in range(rds.size)]
    for (w, x), n in num.items():
        fibers[w][x] = n
    out = []
    for w, (ws, p) in enumerate(zip(fibers, rds.base.prob)):
        stray = ws.keys() - rds.fibers[w]
        if stray:
            out.append(f"mass outside the fiber at omega={w}: {sorted(map(repr, stray))}")
        if any(n < 0 for n in ws.values()):
            out.append(f"negative mass at omega={w}")
        if (n := sum(ws.values())) * p.denominator != p.numerator * d:
            out.append(f"marginal violated at omega={w}: {Fraction(n, d)} != {p}")
    return out


def _measure(size: int, d: int, num: Numerators) -> FiberedMeasure:
    """Where a measure leaves the kernel: one ``Fraction(n, d)`` per key,
    each fiber's keys in the order of ``num``."""
    weights: list[dict[Point, Fraction]] = [{} for _ in range(size)]
    for (w, x), n in num.items():
        weights[w][x] = Fraction(n, d)
    return FiberedMeasure(tuple(weights))


def _l1(a: Numerators, b: Numerators) -> int:
    return sum(abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys())


def _push(num: Numerators, rds: BundleRDS) -> Numerators:
    """Numerators moved one step of the skew map, keys in first-seen order.
    Zero masses are skipped, so a stray point of zero mass is never
    applied."""
    out: Numerators = {}
    for (w, x), n in num.items():
        if n:
            key = (rds.base.theta[w], rds.apply(w, x))
            out[key] = out.get(key, 0) + n
    return out


def _skew_gap(num: Numerators, rds: BundleRDS) -> int:
    """Numerator of the L1 distance between a measure and its one-step skew
    image: zero exactly when the measure is invariant."""
    return _l1(_push(num, rds), num)


def total_variation(a: FiberedMeasure, b: FiberedMeasure) -> Fraction:
    """Unnormalized L1 distance (a single moved unit of mass costs 2)."""
    _same_size(a, b)
    d = _denominator(a, b)
    return Fraction(_l1(_scaled(a, d), _scaled(b, d)), d)


def _gather(masses: Iterable[tuple[int, Point, int, int]]) -> tuple[int, Numerators]:
    """Sum ``(omega, point, numerator, denominator)`` contributions as
    integers over the lcm ``d`` of their denominators: ``d`` and the sums.
    Every point met gets a key, in first-seen order, zero masses included."""
    masses = list(masses)
    d = math.lcm(*(q for *_, q in masses))
    num: Numerators = {}
    for w, x, n, q in masses:
        num[w, x] = num.get((w, x), 0) + n * (d // q)
    return d, num


def disintegrate(mu: FiberedMeasure, rds: BundleRDS) -> tuple[dict[Point, Fraction] | None, ...]:
    """Fiber conditionals: weights divided by the base mass, summing to one
    on every fiber of positive base mass.  Fibers with zero base mass get
    ``None`` (flagged, not an error); the measure is reproduced exactly as
    the base-mass-weighted combination of the conditionals."""
    d, num = _numerators(mu, rds)
    out: list[dict[Point, Fraction] | None] = [{} if p else None for p in rds.base.prob]
    for (w, x), n in num.items():
        if out[w] is not None:
            out[w][x] = Fraction(n, d) / rds.base.prob[w]
    return tuple(out)


def skew_pushforward(mu: FiberedMeasure, rds: BundleRDS) -> FiberedMeasure:
    """Image of the measure under one step of the skew map."""
    d, num = _numerators(mu, rds)
    return _measure(rds.size, d, _push(num, rds))


def pushforward_measure(pi: FactorMap, mu: FiberedMeasure) -> FiberedMeasure:
    """Transport a measure through a factor map (exact, affine, marginal
    preserving; sends invariant measures to invariant measures)."""
    d, num = _numerators(mu, pi.source)
    return _measure(pi.source.size, *_gather((w, pi.apply(w, y), n, d) for (w, y), n in num.items() if n))


def _per_state(mu: FiberedMeasure, atoms: RandomCover, cells: RandomCover) -> tuple[int, list[int], Members, Members]:
    """The denominator of ``mu``, its numerator per stored state, and the covers'
    ``covers._members`` over those states, all others in the last, massless slot."""
    d, num = _numerators(mu, cells, atoms)
    index = {state: i for i, state in enumerate(num)}
    return d, [*num.values(), 0], _members(atoms, index, len(index)), _members(cells, index, len(index))


def _joint_masses(mass: list[int], atoms: Members, cells: Members) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Over per-state numerators ``mass`` and memberships: the numerator of
    the mass of every atom, and of every (atom, cell) intersection keyed
    ``(atom index, cell index)``, those of zero mass left out.  A state
    lying in several atoms or several cells counts once in each of them."""
    atom_mass: dict[int, int] = {}
    joint: dict[tuple[int, int], int] = {}
    for v, atoms_of, cells_of in zip(mass, atoms, cells):
        if v:
            for i in atoms_of:
                atom_mass[i] = atom_mass.get(i, 0) + v
                for j in cells_of:
                    joint[i, j] = joint.get((i, j), 0) + v
    return atom_mass, joint


def _entropy(d: int, mass: list[int], atoms: Members, cells: Members) -> float:
    """The atom x cell formula: ``(v/d) * (log(a/d) - log(v/d))`` summed
    left to right in (atom, cell) order, ``v`` a joint and ``a`` its atom's
    numerator over ``d``.  ``int / int`` is correctly rounded, so each float
    is that of the reduced ``Fraction``.  A term whose ``v/d`` rounds to 0.0
    (null, or below 2e-321, far inside ``TOL``) is 0.0."""
    atom_mass, joint = _joint_masses(mass, atoms, cells)
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
    return _entropy(*_per_state(mu, s.atoms, r))


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
    pass of ``covers._cell_steps`` evaluates them at every depth it steps,
    and the depths past its fixed depth repeat the last value.

    Preconditions are verified, not assumed: each measure must be exactly
    invariant under the skew map and every atom's section must map into one
    atom (the algebra holds its pullback); both are needed for subadditivity.

    Each measure becomes its integer numerators (:func:`_numerators`) once
    per sweep, not once per depth; the invariance check reads the same
    numerators through :func:`_skew_gap`, the kernel of
    :func:`rdstail.invariant.invariance_defect`.
    """
    numerators = [_numerators(mu, s.atoms, rds) for mu in measures]
    if any(_skew_gap(num, rds) for _, num in numerators):
        raise PreconditionError("invariant_measure", "measure is not skew-invariant")
    index = {state: i for i, state in enumerate(rds.states())}
    _check_span(rds, s.atoms)
    atoms = _members(s.atoms, index)
    step = _skew_table(rds, index)
    for w, sec in ((w, sec) for e in s.atoms.elements for w, sec in enumerate(e.sections) if sec):
        images = [atoms[step[index[w, x]]] for x in sec]
        if not set(images[0]).intersection(*images):
            raise PreconditionError("backward_compatible_algebra", "pullback of the algebra escapes it")
    masses = [[num.get(state, 0) for state in index] for _, num in numerators]
    values: list[list[float]] = [[] for _ in measures]
    for cells, _ in _cell_steps(r, rds, index, n_max, budgets, step):
        for (d, _), mass, seq in zip(numerators, masses, values):
            seq.append(_entropy(d, mass, atoms, cells))
    return [EntropyEstimate(values=(*seq, *seq[-1:] * (n_max - len(seq))), requested=n_max) for seq in values]


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
    d, mass, q_at, p_at = _per_state(mu, q, p)
    p_mass, inter = _joint_masses(mass, p_at, q_at)
    total = sum(p_mass.values()) + sum(v * len(cells) for v, cells in zip(mass, q_at))
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
    stages: Sequence[SigmaAlgebra],
    target: SigmaAlgebra,
) -> FiltrationCheck:
    """Along a chain of stages, each refining the one before, whose last
    stage generates the target algebra, the conditional entropies decrease
    monotonically to the target value (finite chains terminate, so the limit
    is attained exactly)."""
    if not stages:
        raise ValueError("a filtration needs at least one stage")
    if not all(map(sigma_refines, stages[1:], stages)):
        raise PreconditionError("refining_chain", "stages do not refine in order")
    last = stages[-1]
    if not (sigma_refines(last, target) and sigma_refines(target, last)):
        raise PreconditionError("chain_generates_target", "last stage does not generate the target")
    entropies = tuple(conditional_entropy(mu, r, s) for s in stages)
    monotone = all(b <= a + TOL for a, b in zip(entropies, entropies[1:]))
    target_entropy = conditional_entropy(mu, r, target)
    ok = monotone and abs(entropies[-1] - target_entropy) <= TOL
    return FiltrationCheck(ok=ok, entropies=entropies, target_entropy=target_entropy)
