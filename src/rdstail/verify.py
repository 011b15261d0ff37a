"""Randomized and named verification suites wiring all modules into
executable instances of the count inequalities, the entropy lemmas, and the
theorem-level statements.

Suites are deterministic functions of their seed and budgets: per-trial RNG
streams are derived from the seed, reports carry scenario digests, and
re-running reproduces byte-identical JSON.  Failures carry a reproducible
serialization of the offending scenario.  No suite asserts an approximate
claim without a stated tolerance; integer claims are exact; skips always
carry a reason.

Asymptotic statements on explicit finite systems are verified in their
degenerate exact form: a conditioned entropy sequence that is nonnegative,
subadditive, and bounded (all three computed, the bound structural) has
limit exactly zero, so equalities and inequalities between such limits are
exact statements about certified zeros, while the finite-depth inequality
skeleton behind them is checked term by term.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Iterable, Iterator

from .budgets import Budgets, DEFAULTS
from .counting import count_profiles, relative_count
from .covers import (
    RandomCover,
    RandomPartition,
    RandomSet,
    SigmaAlgebra,
    fiber_sigma,
    join,
    point_partition,
    pullback,
    pullback_cover,
    sigma_join,
    state_partition,
    trivial_cover,
)
from .errors import PreconditionError
from .invariant import (
    cesaro_limit,
    diagonal_measure,
    invariance_defect,
    lift_invariant,
    vertex_enumeration,
)
from .measures import (
    FiberedMeasure,
    conditional_entropy,
    containment_entropy_bound_check,
    defect_from_sequences,
    disintegrate,
    entropy_count_bound_check,
    filtration_limit_check,
    measures_equal,
    pushforward_measure,
    relative_entropy_sequences,
    two_partition_count_bound_check,
)
from .model import (
    BundleRDS,
    DrivingSystem,
    FactorMap,
    MetricSpace,
    identity_factor,
    pair_system,
    product_system,
    sort_points,
    terminal_cycles,
)
from .presets import cycle_system, extend_with_tags, one_point_system, swap_system
from .scenario import canonical_digest, cover_payload, measure_payload, system_payload
from .tail_entropy import (
    EntropyEstimate,
    TOL,
    power_rule_check,
    tail_entropy_estimate,
    tail_entropy_total,
)

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIP = "skip"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    trials: int = 0
    failures: int = 0
    skipped: int = 0
    detail: dict | None = None


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    trials: int
    checks: tuple[CheckResult, ...]
    scenario_digests: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != STATUS_FAIL for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(_jsonable({**asdict(self), "passed": self.passed}), sort_keys=True, indent=2) + "\n"

    def summary(self) -> str:
        width = max((len(c.name) for c in self.checks), default=4)
        lines = [f"suite {self.suite} (seed={self.seed}, trials={self.trials})"]
        for c in self.checks:
            extra = f" trials={c.trials} failures={c.failures}"
            if c.skipped:
                extra += f" skipped={c.skipped}"
            lines.append(f"  {c.name.ljust(width)}  {c.status.upper():4s}{extra}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (frozenset, set)):
        return sorted(repr(v) for v in x)
    return x


class _Prop:
    """Accumulates one property across trials; keeps the first counterexample."""

    def __init__(self, name: str):
        self.name = name
        self.trials = 0
        self.failures = 0
        self.skipped = 0
        self.first_failure: dict | None = None
        self.skip_reason: str | None = None

    def record(self, ok: bool, payload: Callable[[], dict]):
        self.trials += 1
        if not ok:
            self.failures += 1
            if self.first_failure is None:
                self.first_failure = payload()

    def skip(self, reason: str):
        self.trials += 1
        self.skipped += 1
        self.skip_reason = reason

    def result(self) -> CheckResult:
        status = STATUS_FAIL if self.failures else STATUS_PASS
        if self.failures == 0 and self.skipped == self.trials and self.trials > 0:
            status = STATUS_SKIP
        detail: dict | None = None
        if self.first_failure is not None:
            detail = {"counterexample": self.first_failure}
        elif self.skip_reason is not None:
            detail = {"skip_reason": self.skip_reason}
        return CheckResult(self.name, status, self.trials, self.failures, self.skipped, detail)


def _props(*names: str) -> dict[str, _Prop]:
    """One accumulator per check, in report order."""
    return {name: _Prop(name) for name in names}


def _report(
    suite: str, seed: int, trials: int, checks: Iterable[CheckResult], digests: Iterable[str]
) -> SuiteReport:
    """The report of a suite's checks and scenario digests, in order."""
    return SuiteReport(suite, seed, trials, tuple(checks), tuple(digests))


# ---------------------------------------------------------------------------
# deterministic random scenario generation


def _rng(seed: int, trial: int) -> random.Random:
    return random.Random(f"{seed}:{trial}")


def _trial_rngs(seed: int, trials: int) -> Iterator[random.Random]:
    """One random stream per trial of a seeded suite; no trials raise ``ValueError``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return (_rng(seed, t) for t in range(trials))


def random_driving(rng: random.Random, max_size: int = 4) -> DrivingSystem:
    """Random base: mostly permutations, sometimes non-invertible maps.
    Masses are constant along terminal cycles and zero elsewhere, which is
    exactly the invariance condition for a deterministic base map."""
    size = rng.randint(1, max_size)
    if rng.random() < 0.7:
        theta = list(range(size))
        rng.shuffle(theta)
    else:
        theta = [rng.randrange(size) for _ in range(size)]
    weights = [Fraction(0)] * size
    for cyc in terminal_cycles(range(size), theta.__getitem__)[0]:
        w = Fraction(rng.randint(1, 16))
        for i in cyc:
            weights[i] = w
    total = sum(weights)
    prob = tuple(w / total for w in weights)
    return DrivingSystem(prob=prob, theta=tuple(theta))


def random_system(
    rng: random.Random,
    base: DrivingSystem | None = None,
    max_fiber: int = 5,
    with_metric: bool = False,
    pool: int = 7,
) -> BundleRDS:
    base = base if base is not None else random_driving(rng)
    ids = [f"p{i}" for i in range(pool)]
    fibers = tuple(
        frozenset(rng.sample(ids, rng.randint(1, max_fiber))) for _ in range(base.size)
    )
    maps = tuple(
        {x: rng.choice(sort_points(fibers[base.theta[w]])) for x in sort_points(fibers[w])}
        for w in range(base.size)
    )
    space = None
    if with_metric:
        if rng.random() < 0.5:
            space = MetricSpace.discrete(tuple(ids))
        else:
            # all distances in [1, 2]: the triangle inequality is automatic
            dist: dict = {}
            for i, x in enumerate(ids):
                for y in ids[i:]:
                    v = Fraction(0) if x == y else Fraction(rng.randint(8, 16), 8)
                    dist[(x, y)] = v
                    dist[(y, x)] = v
            space = MetricSpace(tuple(ids), dist)
    return BundleRDS(base=base, fibers=fibers, maps=maps, space=space)


def _random_sets(rds: BundleRDS, k: int, members: Callable[[], Iterable[int]]) -> list[RandomSet]:
    """k random sets: each fiber point, base point by base point and in
    sorted order, joins the sets whose indices ``members()`` draws."""
    secs: list[list[set]] = [[set() for _ in range(rds.size)] for _ in range(k)]
    for w in range(rds.size):
        for x in sort_points(rds.fibers[w]):
            for j in members():
                secs[j][w].add(x)
    return [RandomSet(tuple(frozenset(s) for s in row)) for row in secs]


def random_cover(rng: random.Random, rds: BundleRDS) -> RandomCover:
    k = rng.randint(2, 4)
    return RandomCover(tuple(_random_sets(rds, k, lambda: rng.sample(range(k), rng.randint(1, k)))))


def random_partition(rng: random.Random, rds: BundleRDS, max_cells: int = 4) -> RandomPartition:
    k = rng.randint(2, max_cells)
    elems = _random_sets(rds, k, lambda: (rng.randrange(k),))
    kept = [e for e in elems if not e.is_empty()]
    return RandomPartition(tuple(kept if kept else elems[:1]))


def coarsen(rng: random.Random, cover: RandomCover) -> RandomCover:
    """Merge the elements into fewer fiberwise unions; the input refines the
    output with the merged group as uniform witness."""
    k = len(cover.elements)
    groups = rng.randint(1, k)
    assignment = [rng.randrange(groups) for _ in range(k)]
    # an empty group merges nothing; every element joins some group
    merged = [[e for e, a in zip(cover.elements, assignment) if a == g] for g in range(groups)]
    secs = [
        tuple(frozenset().union(*(m.sections[w] for m in members)) for w in range(cover.size))
        for members in merged
        if members
    ]
    cls = RandomPartition if isinstance(cover, RandomPartition) else RandomCover
    return cls(tuple(RandomSet(s) for s in secs))


def random_measure(rng: random.Random, rds: BundleRDS, denom: int = 64) -> FiberedMeasure:
    weights = []
    for w in range(rds.size):
        if rds.base.prob[w] == 0:
            weights.append({})
            continue
        pts = sort_points(rds.fibers[w])
        raw = [rng.randint(0, denom) for _ in pts]
        if sum(raw) == 0:
            raw[rng.randrange(len(raw))] = 1
        total = sum(raw)
        weights.append({x: rds.base.prob[w] * Fraction(r, total) for x, r in zip(pts, raw)})
    return FiberedMeasure(tuple(weights))


def _trial_payload(rds: BundleRDS, **objects) -> Callable[[], dict]:
    def build() -> dict:
        out: dict = {"system": system_payload(rds)}
        for name, obj in objects.items():
            if isinstance(obj, RandomCover):
                out[name] = cover_payload(obj)
            elif isinstance(obj, FiberedMeasure):
                out[name] = measure_payload(obj)
            else:
                out[name] = _jsonable(obj)
        return out

    return build


# ---------------------------------------------------------------------------
# cover-calculus suite


def run_cover_suite(seed: int, trials: int, budgets: Budgets = DEFAULTS) -> SuiteReport:
    """Count inequalities on random scenarios: monotonicity under refinement,
    pullback contraction, join submultiplicativity, matched-depth
    monotonicity, per-base-point orbit subadditivity, and the exact power
    rule identity.  All integer comparisons are exact."""
    props = _props(
        "refinement_monotonicity",
        "pullback_contraction",
        "join_chain_bound",
        "join_product_bound",
        "depth_monotonicity",
        "trivial_conditioning_dominates",
        "orbit_subadditivity",
        "power_rule_identity",
    )
    digests: list[str] = []
    for rng in _trial_rngs(seed, trials):
        rds = random_system(rng)
        theta = rds.base.theta
        r = random_cover(rng, rds)
        q = random_cover(rng, rds)
        u = join(r, random_cover(rng, rds))  # refines r
        v = coarsen(rng, q)  # q refines v
        payload = _trial_payload(rds, r=r, q=q, u=u, v=v)
        digests.append(canonical_digest({"system": system_payload(rds)}))

        # the orientation the orbit-subadditivity derivation needs: counts of
        # pulled-back covers at a base point are bounded by the original
        # counts one base step ahead
        pr, pq = pullback(r, rds, 1), pullback(q, rds, 1)
        ok = all(
            relative_count(pr, pq, w, rds) <= relative_count(r, q, theta[w], rds)
            for w in range(rds.size)
        )
        props["pullback_contraction"].record(ok, payload)

        w_cover = random_cover(rng, rds)
        rq, rw, wv = join(r, q), join(r, w_cover), join(w_cover, v)
        ok = all(
            relative_count(rq, w_cover, w, rds)
            <= relative_count(r, w_cover, w, rds) * relative_count(q, rw, w, rds)
            for w in range(rds.size)
        )
        props["join_chain_bound"].record(ok, payload)

        ok = all(
            relative_count(rq, wv, w, rds)
            <= relative_count(r, w_cover, w, rds) * relative_count(q, v, w, rds)
            for w in range(rds.size)
        )
        props["join_product_bound"].record(ok, payload)

        # depths 1..4 of (r, q) and 1..3 of the others, interleaved depth by
        # depth so that a budget stop names the shallowest offending depth;
        # depth 1 compares (r, q) with (u, v) themselves
        monotone = {}
        dominate_ok = True
        profiles = {}
        for lo, hi, free in zip_longest(
            count_profiles(rds, r, q, 4, budgets),
            count_profiles(rds, u, v, 3, budgets),
            count_profiles(rds, r, trivial_cover(rds), 3, budgets),
        ):
            profiles[lo.depth] = lo.per_omega
            if hi is None:
                continue
            monotone[lo.depth] = all(a <= b for a, b in zip(lo.per_omega, hi.per_omega))
            if any(f < c for f, c in zip(free.per_omega, lo.per_omega)):
                dominate_ok = False
        props["refinement_monotonicity"].record(monotone[1], payload)
        props["depth_monotonicity"].record(all(monotone.values()), payload)
        props["trivial_conditioning_dominates"].record(dominate_ok, payload)

        sub_ok = True
        for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for w in range(rds.size):
                shifted = rds.base.theta_iterate(w, n)
                if profiles[n + m][w] > profiles[n][w] * profiles[m][shifted]:
                    sub_ok = False
        props["orbit_subadditivity"].record(sub_ok, payload)

        pr_check = power_rule_check(rds, r, q, m=2, n=2, budgets=budgets)
        props["power_rule_identity"].record(
            pr_check.ok,
            lambda: {**payload(), "mismatches": _jsonable(pr_check.mismatches)},
        )

    return _report("cover", seed, trials, (p.result() for p in props.values()), digests)


# ---------------------------------------------------------------------------
# entropy-lemma suite


def run_entropy_suite(seed: int, trials: int, budgets: Budgets = DEFAULTS) -> SuiteReport:
    """Measure-theoretic inequalities on random product systems: the
    count bound on conditional entropy, its two-partition consequence, the
    chain rule, the fiber disintegration identity, monotone filtration
    limits, and the containment entropy bound where the containment search
    succeeds.  Slack tolerance 1e-9 throughout."""
    props = _props(
        "entropy_le_log_count",
        "two_partition_count_bound",
        "chain_rule",
        "fiber_disintegration_identity",
        "conditioning_monotonicity",
        "filtration_limit",
        "containment_entropy_bound",
    )
    digests: list[str] = []
    for rng in _trial_rngs(seed, trials):
        base = random_driving(rng)
        left = random_system(rng, base=base, max_fiber=3, pool=4)
        right = random_system(rng, base=base, max_fiber=3, pool=4)
        prod = product_system(left, right)
        h = prod.system
        mu = random_measure(rng, h)
        r = random_partition(rng, h, max_cells=3)
        q = random_partition(rng, h, max_cells=3)
        d_h = SigmaAlgebra(pullback_cover(prod.to_left, state_partition(left)))
        payload = _trial_payload(h, r=r, q=q, mu=mu)
        digests.append(canonical_digest({"system": system_payload(h)}))

        chk = entropy_count_bound_check(mu, r, q, h)
        props["entropy_le_log_count"].record(
            chk.ok, lambda: {**payload(), "left": chk.left, "right": chk.right}
        )

        chk2 = two_partition_count_bound_check(mu, r, q, h, d_h)
        props["two_partition_count_bound"].record(
            chk2.ok, lambda: {**payload(), "left": chk2.left, "right": chk2.right}
        )

        joined = join(r, q)
        assert isinstance(joined, RandomPartition)
        lhs = conditional_entropy(mu, joined, d_h)
        h_r = conditional_entropy(mu, r, d_h)
        rhs = h_r + conditional_entropy(mu, q, sigma_join(SigmaAlgebra(r), d_h))
        props["chain_rule"].record(
            abs(lhs - rhs) <= TOL, lambda: {**payload(), "lhs": lhs, "rhs": rhs}
        )

        fib = conditional_entropy(mu, r, fiber_sigma(h))
        manual = 0.0
        conds = disintegrate(mu, h)
        for w in range(h.size):
            if conds[w] is None:
                continue
            p_w = float(h.base.prob[w])
            for cell in r.elements:
                mass = sum(conds[w].get(x, Fraction(0)) for x in cell.sections[w])
                if mass:
                    manual -= p_w * float(mass) * math.log(float(mass))
        props["fiber_disintegration_identity"].record(
            abs(fib - manual) <= TOL, lambda: {**payload(), "formula": fib, "manual": manual}
        )

        finer = sigma_join(d_h, SigmaAlgebra(q))
        mono_ok = conditional_entropy(mu, r, finer) <= h_r + TOL and lhs + TOL >= h_r
        props["conditioning_monotonicity"].record(mono_ok, payload)

        s1 = SigmaAlgebra(trivial_cover(h))
        s2 = sigma_join(s1, SigmaAlgebra(q))
        s3 = sigma_join(s2, d_h)
        chk3 = filtration_limit_check(mu, r, (s1, s2, s3), s3)
        props["filtration_limit"].record(
            chk3.ok, lambda: {**payload(), "entropies": list(chk3.entropies)}
        )

        target = r if rng.random() < 0.5 else coarsen(rng, r)
        assert isinstance(target, RandomPartition)
        delta = Fraction(1, rng.choice([4, 8, 16]))
        try:
            bound = containment_entropy_bound_check(mu, joined, target, delta)
            props["containment_entropy_bound"].record(
                bound.ok and bound.delta_in_range,
                lambda: {**payload(), "entropy": bound.entropy, "bound": bound.bound},
            )
        except PreconditionError:
            props["containment_entropy_bound"].skip("containment not achievable at this delta")

    return _report("entropy", seed, trials, (p.result() for p in props.values()), digests)


# ---------------------------------------------------------------------------
# certificate helpers shared by the theorem and principal suites


def _verdict(name: str, ok: bool, trials: int, detail: dict | None) -> CheckResult:
    return CheckResult(
        name=name,
        status=STATUS_PASS if ok else STATUS_FAIL,
        trials=trials,
        failures=0 if ok else 1,
        detail=detail,
    )


def _vertex_sequences(
    pi: FactorMap, n_max: int, budgets: Budgets
) -> tuple[tuple[FiberedMeasure, ...], SigmaAlgebra, list[EntropyEstimate]]:
    """The invariant-polytope vertices of the extension, the algebra pulled
    back from the states of its factor, and every vertex's conditioned
    state-partition sequence from one sweep."""
    algebra = SigmaAlgebra(pullback_cover(pi, state_partition(pi.target)))
    vertices = vertex_enumeration(pi.source, budgets).vertices
    seqs = relative_entropy_sequences(
        vertices, state_partition(pi.source), algebra, pi.source, n_max, budgets
    )
    return vertices, algebra, seqs


def _count_mismatch(
    pi: FactorMap, r: RandomCover, q: RandomCover, n_max: int, budgets: Budgets
) -> dict | None:
    """First depth at which the counts of the pulled-back covers upstairs
    differ from the counts downstairs, or ``None`` when all depths agree.
    Every depth is built, matched or not."""
    mismatch = None
    for up, down in zip(
        count_profiles(pi.source, pullback_cover(pi, r), pullback_cover(pi, q), n_max, budgets),
        count_profiles(pi.target, r, q, n_max, budgets),
    ):
        if mismatch is None and up.per_omega != down.per_omega:
            mismatch = {"n": up.depth, "up": list(up.per_omega), "down": list(down.per_omega)}
    return mismatch


# ---------------------------------------------------------------------------
# theorem-level suite


def fiber_entropy_bound(rds: BundleRDS) -> float:
    return math.log(max(len(f) for f in rds.fibers))


def certified_zero_limit(est: EntropyEstimate, bound: float) -> bool:
    """Nonnegative + subadditive + uniformly bounded sequence has limit
    exactly zero (the bound is structural for conditioned entropies against
    algebras separating base points, so finite checks certify the limit)."""
    return est.subadditive_ok and all(v <= bound + TOL for v in est.values)


# the depths of the two named suites
_THEOREM_DEPTH = 6
_PRINCIPAL_DEPTH = 4


def run_theorem_suite(budgets: Budgets = DEFAULTS) -> SuiteReport:
    """Theorem instances on explicit systems, to depth 6.

    (a) degenerate exact forms: the tail entropy over a family containing the
    singleton partition is exactly zero, conditioned entropy sequences are
    certified zero-limit, so the defect inequality and the pair variational
    principle hold as equalities/inequalities of exact zeros; (b) the
    finite-depth inequality skeleton is asserted at every depth; (c) the
    diagonal construction attains the pair maximum.
    """
    swap = swap_system()
    # (name, the driven system whose tail entropy is conditioned on, the
    # second factor of the joint system); the one-point companion makes the
    # joint system degenerate to the original, the classical single-system
    # special case
    scenarios = (
        ("swap-product", swap, swap),
        ("one-point-companion", swap, one_point_system(swap.base)),
        ("cycle-product", cycle_system(), cycle_system()),
    )
    props = _props(
        "tail_entropy_exact_zero",
        "conditioned_sequences_certified_zero",
        "defect_bounded_by_tail",
        "finite_depth_chain",
        "pullback_count_identity",
        "pair_variational_exact",
        "diagonal_attains_maximum",
    )
    digests: list[str] = []
    for name, target, companion in scenarios:
        digests.append(canonical_digest({name: system_payload(target)}))
        prod = product_system(companion, target)
        h = prod.system
        payload = _trial_payload(h)

        families = [point_partition(target), trivial_cover(target)]
        h_star = tail_entropy_total(target, families, families, _THEOREM_DEPTH, budgets)
        props["tail_entropy_exact_zero"].record(h_star == 0.0, payload)

        vertices, d_h, seqs = _vertex_sequences(prod.to_left, _THEOREM_DEPTH, budgets)
        bound = fiber_entropy_bound(h)
        certified = all(certified_zero_limit(s, bound) for s in seqs)
        props["conditioned_sequences_certified_zero"].record(
            certified, lambda: {**payload(), "values": {i: list(s.values) for i, s in enumerate(seqs)}}
        )

        # upper-semicontinuity defect at each vertex over the vertex family:
        # every asymptotic value is a certified zero, so the asymptotic defect
        # is zero and its bound by the (exactly zero) tail entropy is an exact
        # statement; the finite-depth surrogate is reported as diagnostics
        defect_ok = certified and h_star == 0.0
        truncated_diag = [
            list(defect_from_sequences(v, seq, vertices, seqs, Fraction(4)).truncated)
            for v, seq in zip(vertices, seqs)
        ]
        props["defect_bounded_by_tail"].record(
            defect_ok, lambda: {**payload(), "truncated": truncated_diag}
        )

        # finite-depth skeleton: conditioned entropy of the finest partition
        # (the vertex sequences above) is controlled by a pulled-back
        # conditioning partition plus the integrated log count, at every depth
        q_e = coarsen(_rng(0, 0), point_partition(target))
        q_pulled = pullback_cover(prod.to_right, q_e)
        a = tail_entropy_estimate(h, state_partition(h), q_pulled, _THEOREM_DEPTH, budgets).values
        q_seqs = relative_entropy_sequences(vertices, q_pulled, d_h, h, _THEOREM_DEPTH, budgets)
        chain_ok = all(
            lhs <= rhs + a_n + TOL
            for r_seq, q_seq in zip(seqs, q_seqs)
            for lhs, rhs, a_n in zip(r_seq.values, q_seq.values, a)
        )
        props["finite_depth_chain"].record(chain_ok, payload)

        # counts of pulled-back covers match the downstairs counts exactly
        ident_ok = _count_mismatch(prod.to_right, point_partition(target), q_e, _THEOREM_DEPTH, budgets) is None
        props["pullback_count_identity"].record(ident_ok, payload)

        # pair variational principle in its exact degenerate form
        pair = pair_system(target)
        _, _, pair_seqs = _vertex_sequences(pair.to_left, _THEOREM_DEPTH, budgets)
        pair_bound = fiber_entropy_bound(pair.system)
        pair_certified = all(certified_zero_limit(s, pair_bound) for s in pair_seqs)
        props["pair_variational_exact"].record(
            pair_certified and h_star == 0.0, payload
        )

        diag = diagonal_measure(
            target,
            point_partition(target),
            point_partition(target),
            n=2,
            delta=Fraction(1),
            entropy_depth=_THEOREM_DEPTH,
            budgets=budgets,
        )
        attained = (
            diag.invariance == 0
            and diag.entropy_zero
            and certified_zero_limit(diag.entropy, pair_bound)
        )
        props["diagonal_attains_maximum"].record(
            attained, lambda: {**payload(), "entropy_values": list(diag.entropy.values)}
        )

    return _report("theorem", 0, len(scenarios), (p.result() for p in props.values()), digests)


# ---------------------------------------------------------------------------
# principal extensions


def principal_extension_check(pi: FactorMap, budgets: Budgets = DEFAULTS) -> SuiteReport:
    """Certify an extension is principal and conserves the tail entropy at
    desk scale, to depth 4.

    Per polytope vertex of the extension, the conditioned entropy sequence
    against the pulled-back full algebra is computed; a structural bound (log
    of the largest point-preimage) plus subadditivity certifies a zero limit,
    with exact zeros reported where the sequence vanishes identically.  The
    certificate extends to non-vertex invariant measures by convexity: a
    mixture's sequence exceeds the vertex sequences by at most the constant
    mixture entropy, which does not move the limit.  Matched-depth count
    agreement between pulled-back covers upstairs and the originals
    downstairs is asserted exactly, making the two tail entropies agree
    term by term.
    """
    bad = pi.validate()
    checks = [_verdict("factor_map_valid", not bad, 1, {"violations": bad} if bad else None)]
    digests = [canonical_digest({"source": system_payload(pi.source), "target": system_payload(pi.target)})]
    if bad:
        return _report("principal:extension", 0, 1, checks, digests)

    max_preimage = max(
        len(pi.preimage(w, x)) for w in range(pi.target.size) for x in pi.target.fibers[w]
    )
    bound = math.log(max_preimage)
    _, _, seqs = _vertex_sequences(pi, _PRINCIPAL_DEPTH, budgets)
    per_vertex = [
        {
            "values": list(seq.values),
            "all_zero": all(x == 0.0 for x in seq.values),
            "certified_zero_limit": certified_zero_limit(seq, bound),
        }
        for seq in seqs
    ]
    principal_ok = all(v["certified_zero_limit"] for v in per_vertex)
    checks.append(
        _verdict("principality_certified", principal_ok, len(seqs), {"bound": bound, "vertices": per_vertex})
    )

    mismatch = _count_mismatch(pi, point_partition(pi.target), trivial_cover(pi.target), _PRINCIPAL_DEPTH, budgets)
    checks.append(_verdict("matched_depth_counts_agree", mismatch is None, _PRINCIPAL_DEPTH, mismatch))

    fam_down = [point_partition(pi.target), trivial_cover(pi.target)]
    fam_up = [pullback_cover(pi, c) for c in fam_down]
    up_star = tail_entropy_total(pi.source, fam_up, fam_up, _PRINCIPAL_DEPTH, budgets)
    down_star = tail_entropy_total(pi.target, fam_down, fam_down, _PRINCIPAL_DEPTH, budgets)
    checks.append(
        _verdict(
            "tail_entropy_conserved",
            up_star == down_star == 0.0,
            1,
            {"upstairs": up_star, "downstairs": down_star},
        )
    )
    return _report("principal:extension", 0, 1, checks, digests)


def run_principal_suite(budgets: Budgets = DEFAULTS) -> SuiteReport:
    """The three packaged extension examples: the identity, a frozen-tag
    doubling, and a rotating-tag cycle extension, each checked to depth 4."""
    swap = swap_system()
    cases = [
        ("identity", identity_factor(swap)),
        ("static-tags", extend_with_tags(swap, tags=2, rotate=False)),
        ("rotating-cycle", extend_with_tags(swap, tags=4, rotate=True)),
    ]
    checks: list[CheckResult] = []
    digests: list[str] = []
    for name, pi in cases:
        report = principal_extension_check(pi, budgets=budgets)
        digests.extend(report.scenario_digests)
        checks.extend(replace(c, name=f"{name}:{c.name}") for c in report.checks)
    return _report("principal", 0, len(cases), checks, digests)


# ---------------------------------------------------------------------------
# invariant-machinery randomized checks (used by the acceptance suite)


def run_invariant_suite(seed: int, trials: int, budgets: Budgets = DEFAULTS) -> SuiteReport:
    """Cesaro projections land exactly on invariant measures; lifts along
    factor maps return exact certificates; projections commute with
    pushforward."""
    props = _props(
        "cesaro_invariant",
        "cesaro_idempotent",
        "lift_certificates",
        "cesaro_commutes_with_pushforward",
    )
    digests: list[str] = []
    for rng in _trial_rngs(seed, trials):
        rds = random_system(rng)
        nu = random_measure(rng, rds)
        payload = _trial_payload(rds, nu=nu)
        digests.append(canonical_digest({"system": system_payload(rds)}))

        limit = cesaro_limit(nu, rds)
        props["cesaro_invariant"].record(invariance_defect(limit, rds) == 0, payload)
        props["cesaro_idempotent"].record(measures_equal(cesaro_limit(limit, rds), limit), payload)

        pi = extend_with_tags(rds, tags=rng.choice([1, 2, 3]), rotate=rng.random() < 0.5)
        mu = cesaro_limit(random_measure(rng, pi.target), pi.target)
        lifted = lift_invariant(pi, mu)
        props["lift_certificates"].record(
            invariance_defect(lifted, pi.source) == 0
            and measures_equal(pushforward_measure(pi, lifted), mu),
            payload,
        )

        nu_up = random_measure(rng, pi.source)
        left = pushforward_measure(pi, cesaro_limit(nu_up, pi.source))
        right = cesaro_limit(pushforward_measure(pi, nu_up), pi.target)
        props["cesaro_commutes_with_pushforward"].record(measures_equal(left, right), payload)

    return _report("invariant", seed, trials, (p.result() for p in props.values()), digests)


# the one place that names the suites: the seeded ones take a seed and a
# number of trials, the named ones check fixed scenarios and take neither
SUITES: dict[str, Callable[..., SuiteReport]] = {
    "cover": run_cover_suite,
    "entropy": run_entropy_suite,
    "invariant": run_invariant_suite,
}
NAMED_SUITES: dict[str, Callable[..., SuiteReport]] = {
    "theorem": run_theorem_suite,
    "principal": run_principal_suite,
}


def run_suite(name: str, seed: int, trials: int, budgets: Budgets = DEFAULTS) -> SuiteReport:
    """Run a suite by name; a named suite ignores ``seed`` and ``trials``."""
    if name in SUITES:
        return SUITES[name](seed, trials, budgets)
    if name in NAMED_SUITES:
        return NAMED_SUITES[name](budgets)
    raise ValueError(f"unknown suite {name!r}")
