"""Invariant measures of the skew map: invariance defect, exact Cesaro
limits via cycle structure, invariant lifts along factor maps, polytope
vertex enumeration, Bowen balls, separated-set empirical measures, and the
diagonal pair-measure construction.

The skew map is a function on the finite set of bundle states, so every
forward orbit falls into a cycle; Cesaro averages therefore have exact
limits (each state's mass spreads uniformly over its terminal cycle) and no
numerical limit is ever taken.  The invariant measures with the prescribed
base marginal form a polytope: each skew cycle lies over one base cycle, so
the polytope is a product of one simplex per base cycle of positive mass,
and its vertices pick one skew cycle over each.  They play the role the
extreme (ergodic-like) measures play in general; a north-west-corner peel
over the simplices writes any invariant measure with that marginal as an
exact convex combination of them.

Two points are (n, delta)-separated exactly when one leaves the other's
Bowen ball, so the greedy separated-set scan keeps the ball of each accepted
point and takes the next candidate lying in none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Hashable, Iterable, Sequence

from .budgets import Budgets, DEFAULTS
from .counting import min_cover_size
from .covers import (
    RandomCover,
    RandomPartition,
    SigmaAlgebra,
    _layout,
    _mask_iterate,
    _sections,
    pullback_cover,
    refines,
    state_partition,
)
from .errors import BudgetExceededError, PreconditionError
from .measures import (
    FiberedMeasure,
    _gather,
    measures_equal,
    mix,
    pushforward_measure,
    skew_pushforward,
    total_variation,
    transformation_relative_entropy_sequence,
)
from .model import BundleRDS, FactorMap, Point, ProductSystem, State, pair_system, sort_points
from .tail_entropy import EntropyEstimate


def invariance_defect(mu: FiberedMeasure, rds: BundleRDS) -> Fraction:
    """Exact L1 distance between the measure and its one-step image; zero
    exactly on invariant measures."""
    return total_variation(skew_pushforward(mu, rds), mu)


def terminal_cycles(
    nodes: Iterable[Hashable], step: Callable[[Hashable], Hashable]
) -> tuple[list[list], dict]:
    """Terminal cycles of a map on a finite set, in order of discovery from
    ``nodes``, and for every node reached the index of the cycle its forward
    path falls into."""
    cycles: list[list] = []
    terminal: dict = {}
    for start in nodes:
        if start in terminal:
            continue
        path: list = []
        on_path: dict = {}
        s = start
        while s not in terminal and s not in on_path:
            on_path[s] = len(path)
            path.append(s)
            s = step(s)
        if s in on_path:
            cycles.append(path[on_path[s]:])
            cid = len(cycles) - 1
        else:
            cid = terminal[s]
        for p in path:
            terminal[p] = cid
    return cycles, terminal


def _cycle_structure(rds: BundleRDS) -> tuple[list[list[State]], dict[State, int]]:
    """Terminal cycles of the skew map and, for every state, the index of
    the cycle its orbit falls into."""
    return terminal_cycles(rds.states(), lambda s: (rds.base.theta[s[0]], rds.apply(*s)))


def cesaro_limit(nu: FiberedMeasure, rds: BundleRDS) -> FiberedMeasure:
    """Exact limit of the running averages of the iterated images: each
    state's mass distributes uniformly over its terminal cycle.  The output
    always has invariance defect zero and the same base marginal."""
    cycles, terminal = _cycle_structure(rds)

    def spread():
        for w in range(rds.size):
            for x, v in nu.weights[w].items():
                if v:
                    cycle = cycles[terminal[(w, x)]]
                    share = v / len(cycle)
                    for cw, cx in cycle:
                        yield cw, cx, share

    return _gather(rds.size, spread())


def lift_invariant(pi: FactorMap, mu: FiberedMeasure) -> FiberedMeasure:
    """Invariant preimage measure along a factor map.

    Starts from the lift with uniform conditional weights on every
    point-preimage, then projects onto the invariant set by the exact Cesaro
    limit.  Equivariance makes the projection commute with the pushforward,
    so the result pushes forward to the input exactly; both certificates are
    verified before returning.
    """
    if invariance_defect(mu, pi.target) != 0:
        raise PreconditionError("invariant_measure", "lift needs an invariant input")

    def uniform_lift():
        for w in range(pi.source.size):
            for x, v in mu.weights[w].items():
                if v:
                    pre = sort_points(pi.preimage(w, x))
                    share = v / len(pre)
                    for y in pre:
                        yield w, y, share

    lifted = cesaro_limit(_gather(pi.source.size, uniform_lift()), pi.source)
    if invariance_defect(lifted, pi.source) != 0:
        raise AssertionError("cesaro projection failed to produce an invariant measure")
    if not measures_equal(pushforward_measure(pi, lifted), mu):
        raise AssertionError("lifted measure does not push forward to the input")
    return lifted


@dataclass(frozen=True, eq=False)
class InvariantPolytope:
    """Vertices of the invariant measures with the prescribed marginal.

    ``cycles`` are the terminal cycles of the skew map; every invariant
    measure is a nonnegative combination of the uniform cycle measures.  A
    skew cycle lies over one base cycle B and visits each point of B equally
    often, so the marginal equations on the cycle coefficients split into
    one per base cycle, ``sum of the coefficients over B = mass(B)``: the
    polytope is a product of one simplex per base cycle of positive mass.
    ``vertex_weights[i]`` gives vertex i's cycle coefficients.
    """

    vertices: tuple[FiberedMeasure, ...]
    cycles: tuple[tuple[State, ...], ...]
    vertex_weights: tuple[tuple[Fraction, ...], ...]


def _cycles_by_base(cycles: Sequence[Sequence[State]]) -> list[list[int]]:
    """Indices of the skew cycles grouped by the base cycle they lie over."""
    groups: dict[frozenset[int], list[int]] = {}
    for c, cycle in enumerate(cycles):
        groups.setdefault(frozenset(w for w, _ in cycle), []).append(c)
    return list(groups.values())


def vertex_enumeration(rds: BundleRDS, budgets: Budgets = DEFAULTS) -> InvariantPolytope:
    """Exact vertex list of the invariant-measure polytope.

    A vertex of the product of simplices picks one skew cycle over each base
    cycle of positive mass and gives it the whole mass of that base cycle; a
    base measure that is not invariant leaves the polytope empty.  Vertices
    come in the lexicographic order of their sorted cycle picks, and every
    vertex is checked to be invariant with the right marginal before it is
    returned.
    """
    npoints = sum(len(f) for f in rds.fibers)
    if npoints > budgets.polytope_points:
        raise BudgetExceededError("polytope_points", budgets.polytope_points, npoints)
    cycles, _ = _cycle_structure(rds)
    mass = [sum(rds.base.prob[w] for w in {w for w, _ in cycle}) for cycle in cycles]
    simplices = [group for group in _cycles_by_base(cycles) if mass[group[0]]]
    picks = sorted(tuple(sorted(pick)) for pick in product(*simplices)) if rds.base.is_invariant() else []
    found: list[tuple[tuple[Fraction, ...], FiberedMeasure]] = []
    for pick in picks:
        lam = tuple(mass[c] if c in pick else Fraction(0) for c in range(len(cycles)))
        mu = _gather(rds.size, ((w, x, mass[c] / len(cycles[c])) for c in pick for w, x in cycles[c]))
        if invariance_defect(mu, rds) != 0 or mu.validate(rds):
            raise AssertionError("enumerated vertex fails its own certificates")
        found.append((lam, mu))
    return InvariantPolytope(
        vertices=tuple(v for _, v in found),
        cycles=tuple(tuple(c) for c in cycles),
        vertex_weights=tuple(w for w, _ in found),
    )


def cycle_coefficients(polytope: InvariantPolytope, mu: FiberedMeasure) -> tuple[Fraction, ...] | None:
    """Cycle-coefficient coordinates of an invariant measure, or None when
    the measure is not a combination of uniform cycle measures (i.e., not
    invariant)."""
    coeffs = []
    seen_mass = Fraction(0)
    for cycle in polytope.cycles:
        masses = {mu.get(w, x) for (w, x) in cycle}
        if len(masses) != 1:
            return None
        lam = masses.pop() * len(cycle)
        coeffs.append(lam)
        seen_mass += lam
    if seen_mass != mu.total():
        return None  # mass off the cycles
    return tuple(coeffs)


def hull_certificate(
    polytope: InvariantPolytope, mu: FiberedMeasure
) -> dict[int, Fraction] | None:
    """Exact convex combination of vertices reproducing ``mu`` (an explicit
    feasibility certificate), or None when the measure is not invariant or
    its base marginal differs from the polytope's.

    North-west-corner peel: each simplex's cycle coefficients, divided by
    the mass of its base cycle, are shares stacked in cycle order.  Each step
    takes the vertex that picks every simplex's first cycle with a share
    left, with the smallest of those shares as its weight, and subtracts it
    from all of them, which empties at least one.  The certificate therefore
    has at most ``sum_B |cycles over B| - #B + 1`` vertices, B over the base
    cycles of positive mass.
    """
    lam = cycle_coefficients(polytope, mu)
    if lam is None or not polytope.vertex_weights or min(lam) < 0:
        return None
    mass = polytope.vertex_weights[0]
    stacks = []
    for group in _cycles_by_base(polytope.cycles):
        base_mass = sum(mass[c] for c in group)
        if sum(lam[c] for c in group) != base_mass:
            return None
        if base_mass:
            stacks.append([[c, lam[c] / base_mass] for c in reversed(group) if lam[c]])
    vertex_index = {
        tuple(c for c, v in enumerate(vw) if v): i for i, vw in enumerate(polytope.vertex_weights)
    }
    certificate: dict[int, Fraction] = {}
    while stacks[0]:
        step = min(stack[-1][1] for stack in stacks)
        certificate[vertex_index[tuple(sorted(stack[-1][0] for stack in stacks))]] = step
        for stack in stacks:
            stack[-1][1] -= step
            if not stack[-1][1]:
                stack.pop()
    return certificate


def _per_base(rds: BundleRDS, delta: Fraction | Sequence[Fraction]) -> list[Fraction]:
    """``delta`` as one exact rational per base point; a scalar applies to
    every base point."""
    if isinstance(delta, (Fraction, int)):
        return [Fraction(delta)] * rds.size
    out = [Fraction(d) for d in delta]
    if len(out) != rds.size:
        raise ValueError("need one delta per base point")
    return out


def bowen_ball(
    rds: BundleRDS, omega: int, y: Point, n: int, delta
) -> frozenset:
    """Points staying strictly within the per-step radii of the orbit of
    ``y`` for ``n`` steps (the intersection of pulled-back open balls)."""
    space = rds.requires_metric()
    deltas = _per_base(rds, delta)
    if y not in rds.fibers[omega]:
        raise PreconditionError("center_in_fiber", f"{y!r} not in fiber {omega}")
    ball = []
    for x in rds.fibers[omega]:
        xi, yi, w = x, y, omega
        ok = True
        for _ in range(n):
            if not space.d(xi, yi) < deltas[w]:
                ok = False
                break
            xi, yi, w = rds.apply(w, xi), rds.apply(w, yi), rds.base.theta[w]
        if ok:
            ball.append(x)
    return frozenset(ball)


def lebesgue_number(rds: BundleRDS, cover: RandomCover, omega: int) -> Fraction | None:
    """Largest radius such that every open ball of that radius in the fiber
    lies inside some cover element (exact finite minimax).  ``None`` means
    unconstrained (some element contains the whole fiber)."""
    space = rds.requires_metric()
    best_over_fiber: Fraction | None = None
    for z in rds.fibers[omega]:
        best_here: Fraction | None = Fraction(0)
        for sec in cover.sections(omega):
            outside = rds.fibers[omega] - sec
            if not outside:
                best_here = None
                break
            reach = min(space.d(z, w) for w in outside)
            if best_here is not None and reach > best_here:
                best_here = reach
        if best_here is not None and (best_over_fiber is None or best_here < best_over_fiber):
            best_over_fiber = best_here
    return best_over_fiber


@dataclass(frozen=True, eq=False)
class SeparatedEmpirical:
    """Separated-set empirical construction on the pair system.

    Per base point: the iterated conditioning cover element with the largest
    relative count, a deterministic anchor inside it, and a greedy maximal
    separated subset.  ``mu_n`` is the n-step running average of the pair
    measure that puts the anchor beside every separated point, and
    ``mu_limit`` the exact Cesaro projection standing in for a subsequence
    accumulation point.
    """

    n: int
    deltas: tuple[Fraction, ...]
    chosen: tuple[frozenset, ...]
    anchors: tuple[Point, ...]
    separated: tuple[tuple[Point, ...], ...]
    counts: tuple[int, ...]
    pair: ProductSystem
    mu_n: FiberedMeasure
    mu_n_defect: Fraction
    mu_limit: FiberedMeasure
    support_mass_mu_n: Fraction
    support_mass_limit: Fraction
    lebesgue_ok: bool
    card_ok: bool
    # when the refining cover is a partition: does every section of its
    # depth-n iterate hold at most one separated point?  The entropy-equals-
    # log-cardinality identity for the empirical measure needs this; callers
    # must skip that identity when the flag is False.  None for non-partitions.
    atoms_isolate_separated: bool | None


def _pair_support_mass(mu: FiberedMeasure, q: RandomCover) -> Fraction:
    out = Fraction(0)
    for w in range(mu.size):
        secs = q.sections(w)
        for (x, y), v in mu.weights[w].items():
            if any(x in sec and y in sec for sec in secs):
                out += v
    return out


def separated_empirical(
    rds: BundleRDS,
    p: RandomCover,
    q: RandomCover,
    n: int,
    delta,
    budgets: Budgets = DEFAULTS,
) -> SeparatedEmpirical:
    """Build the pair-system empirical measure witnessing that conditioned
    complexity is captured by measure-theoretic entropy.

    The separated-set cardinality dominates the relative count whenever the
    radii are fiberwise Lebesgue-number witnesses for ``p`` (every small ball
    fits in one element); ``lebesgue_ok`` records whether that gate held and
    ``card_ok`` whether the domination did.
    """
    rds.requires_metric()
    deltas = _per_base(rds, delta)
    pn = _mask_iterate(p, rds, n, budgets)
    qn = _mask_iterate(q, rds, n, budgets)
    pair = pair_system(rds)

    chosen: list[frozenset] = []
    anchors: list[Point] = []
    separated: list[tuple[Point, ...]] = []
    sep_masks: list[int] = []
    counts: list[int] = []
    sigma_weights: list[dict[Point, Fraction]] = [{} for _ in range(rds.size)]
    layout = _layout(rds)
    p_sections = _sections(pn, layout)
    for w, (p_masks, q_masks) in enumerate(zip(p_sections, _sections(qn, layout))):
        # the first q-section with the largest count by the p-sections
        best, best_count = 0, 0
        for t in q_masks:
            if t:
                c = min_cover_size(t, p_masks)
                if c > best_count:
                    best, best_count = t, c
        assert best  # covers have a nonempty section somewhere
        # mask bits follow sort_points, so decoding gives the sorted section
        best_bits = [(1 << k, x) for k, x in enumerate(sort_points(rds.fibers[w])) if best >> k & 1]
        anchor = best_bits[0][1]
        # x is separated from an accepted y exactly when it leaves y's ball
        sep: list[Point] = []
        balls: list[frozenset] = []
        sep_mask = 0
        for bit, x in best_bits:
            if not any(x in ball for ball in balls):
                sep.append(x)
                balls.append(bowen_ball(rds, w, x, n, deltas))
                sep_mask |= bit
        chosen.append(frozenset(x for _, x in best_bits))
        sep_masks.append(sep_mask)
        anchors.append(anchor)
        separated.append(tuple(sep))
        counts.append(best_count)
        share = rds.base.prob[w] / len(sep) if sep else Fraction(0)
        for y in sep:
            sigma_weights[w][(anchor, y)] = share

    sigma = FiberedMeasure(tuple(sigma_weights))
    terms = []
    current = sigma
    for _ in range(n):
        terms.append((Fraction(1, n), current))
        current = skew_pushforward(current, pair.system)
    mu_n = mix(terms)
    mu_limit = cesaro_limit(mu_n, pair.system)

    etas = [lebesgue_number(rds, p, w) for w in range(rds.size)]
    lebesgue_ok = all(eta is None or deltas[w] <= eta for w, eta in enumerate(etas))
    card_ok = all(len(separated[w]) >= counts[w] for w in range(rds.size))
    isolate: bool | None = None
    if isinstance(p, RandomPartition):
        isolate = all((m & sep).bit_count() <= 1 for sep, col in zip(sep_masks, p_sections) for m in col)
    return SeparatedEmpirical(
        n=n,
        deltas=tuple(deltas),
        chosen=tuple(chosen),
        anchors=tuple(anchors),
        separated=tuple(separated),
        counts=tuple(counts),
        pair=pair,
        mu_n=mu_n,
        mu_n_defect=invariance_defect(mu_n, pair.system),
        mu_limit=mu_limit,
        support_mass_mu_n=_pair_support_mass(mu_n, q),
        support_mass_limit=_pair_support_mass(mu_limit, q),
        lebesgue_ok=lebesgue_ok,
        card_ok=card_ok,
        atoms_isolate_separated=isolate,
    )


@dataclass(frozen=True, eq=False)
class DiagonalMeasureResult:
    """Invariant pair measure concentrating on the diagonal.

    ``support_diagonal`` is None when the final chain stage does not have
    vanishing (zero) section diameters, in which case the diagonal claim is
    not asserted.  ``entropy`` is the conditioned sequence against the
    first-coordinate algebra; on diagonal support every term is exactly zero
    because the second coordinate is determined by the first.
    """

    measure: FiberedMeasure
    invariance: Fraction
    support_diagonal: bool | None
    entropy: EntropyEstimate
    entropy_zero: bool


def diagonal_measure(
    rds: BundleRDS,
    cover_chain: Sequence[RandomCover],
    p_chain: Sequence[RandomCover],
    n: int,
    delta,
    entropy_depth: int | None = None,
    budgets: Budgets = DEFAULTS,
) -> DiagonalMeasureResult:
    """Check that the conditioning chain refines in order, then run the
    separated-set construction on its final stage only and take the exact
    finite-model limit.  Earlier stages are never built: the final stage is
    the only one whose measure is used."""
    if len(cover_chain) != len(p_chain) or not cover_chain:
        raise ValueError("need matching nonempty chains")
    for earlier, later in zip(cover_chain, cover_chain[1:]):
        if not refines(later, earlier):
            raise PreconditionError("refining_chain", "conditioning chain must refine in order")
    last = separated_empirical(rds, p_chain[-1], cover_chain[-1], n, delta, budgets)
    m = last.mu_limit
    final_cover = cover_chain[-1]
    vanishing = all(
        len(sec) <= 1 for e in final_cover.elements for sec in e.sections
    )
    support_diagonal: bool | None = None
    if vanishing:
        support_diagonal = all(
            x == y for w in range(m.size) for (x, y), v in m.weights[w].items() if v != 0
        )
    first_algebra = SigmaAlgebra(pullback_cover(last.pair.to_left, state_partition(rds)))
    est = transformation_relative_entropy_sequence(
        m, first_algebra, last.pair.system, entropy_depth or n, budgets
    )
    return DiagonalMeasureResult(
        measure=m,
        invariance=invariance_defect(m, last.pair.system),
        support_diagonal=support_diagonal,
        entropy=est,
        entropy_zero=all(v == 0.0 for v in est.values),
    )
