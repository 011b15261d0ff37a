"""Acceptance criteria, one check per stated criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tolerances are pinned here exactly as stated; integer claims
use exact equality.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from rdstail import (
    CylinderCoverSpec,
    DrivingSystem,
    RandomSFT,
    SFTComponent,
    cycle_system,
    diagonal_measure,
    extend_with_tags,
    identity_factor,
    invariance_defect,
    lift_invariant,
    measures_equal,
    min_cover_size,
    point_partition,
    power_rule_check,
    pushforward_measure,
    run_cover_suite,
    run_entropy_suite,
    run_principal_suite,
    run_theorem_suite,
    separated_empirical,
    sft_tail_sequence,
    swap_system,
    vertex_enumeration,
)
from rdstail.invariant import cesaro_limit
from rdstail.verify import _rng, random_cover, random_measure, random_system

TOL = 1e-9


def _report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, criterion


def test_criterion_1_cover_suite():
    start = time.perf_counter()
    rep = run_cover_suite(seed=1, trials=100)
    elapsed = time.perf_counter() - start
    ok = rep.passed and elapsed < 60.0
    _report(
        "1. cover-calculus suite: 100 seeded scenarios, all count inequalities, "
        "orbit subadditivity, exact integers",
        ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_2_power_rule():
    mismatches = 0
    for trial in range(50):
        rds = random_system(_rng(1002, trial))
        r = random_cover(_rng(1003, trial), rds)
        q = random_cover(_rng(1004, trial), rds)
        for m in (1, 2, 3):
            for n in (1, 2):
                if not power_rule_check(rds, r, q, m=m, n=n).ok:
                    mismatches += 1
    _report(
        "2. power-rule count identity exact for m in {1,2,3}, n in {1,2}, 50 scenarios",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def _oracle_min_cover(target: int, masks: list[int]) -> int:
    if target == 0:
        return 1
    for k in range(1, len(masks) + 1):
        for combo in combinations(masks, k):
            acc = 0
            for m in combo:
                acc |= m
            if acc & target == target:
                return k
    raise AssertionError("not coverable")


def test_criterion_3_set_cover_exactness():
    rng = random.Random(1010)
    bad = 0
    for _ in range(200):
        npoints = rng.randint(1, 12)
        universe = (1 << npoints) - 1
        masks = [rng.randint(0, universe) for _ in range(rng.randint(1, 8))]
        acc = 0
        for m in masks:
            acc |= m
        if universe & ~acc:
            masks[rng.randrange(len(masks))] |= universe & ~acc
        target = rng.randint(0, universe)
        if min_cover_size(target, masks) != _oracle_min_cover(target, masks):
            bad += 1
    _report(
        "3. set-cover exactness vs exhaustive oracle on 200 instances "
        "(<=12 points, <=8 elements)",
        bad == 0,
        f"mismatches={bad}",
    )


def test_criterion_4_symbolic_ground_truths():
    still = DrivingSystem((Fraction(1),), (0,))
    full2 = SFTComponent(2, (((1, 1), (1, 1)),))
    golden = SFTComponent(2, (((1, 1), (1, 0)),))

    pairshift = RandomSFT(still, (full2, full2))
    est = sft_tail_sequence(
        pairshift, CylinderCoverSpec(frozenset({0, 1}), 1), CylinderCoverSpec(frozenset({0}), 1), 12
    )
    product_ok = all(abs(r - math.log(2)) <= TOL for r in est.ratios)

    fib = [2, 3]
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])
    gshift = RandomSFT(still, (golden,))
    gest = sft_tail_sequence(
        gshift, CylinderCoverSpec(frozenset({0}), 1), CylinderCoverSpec(frozenset(), 1), 20
    )
    phi = math.log((1 + math.sqrt(5)) / 2)
    golden_ok = abs(gest.ratios[19] - phi) <= 0.02 and abs(
        gest.values[19] - math.log(fib[19])
    ) <= TOL

    spec = CylinderCoverSpec(frozenset({0}), 1)
    zeros = sft_tail_sequence(gshift, spec, spec, 10)
    zero_ok = zeros.values == tuple(0.0 for _ in range(10))

    _report(
        "4. symbolic ground truths: paired full shifts log 2, golden-mean growth "
        "near log phi, matched specs give exact zero",
        product_ok and golden_ok and zero_ok,
        f"a20/20={gest.ratios[19]:.4f}, target {phi:.4f}",
    )


def test_criterion_5_entropy_lemma_suite():
    rep = run_entropy_suite(seed=1, trials=100)
    counted = {c.name: c for c in rep.checks}
    containment = counted["containment_entropy_bound"]
    _report(
        "5. entropy-lemma suite: 100 seeded trials, slack tolerance 1e-9, "
        "containment bound wherever the search succeeds",
        rep.passed,
        f"containment trials={containment.trials}, skipped={containment.skipped}",
    )


def test_criterion_6_invariant_machinery():
    cesaro_ok = True
    for trial in range(100):
        rds = random_system(_rng(1021, trial))
        nu = random_measure(_rng(1022, trial), rds)
        if invariance_defect(cesaro_limit(nu, rds), rds) != 0:
            cesaro_ok = False

    lift_ok = True
    for trial in range(50):
        rng = _rng(1023, trial)
        rds = random_system(rng)
        pi = (
            identity_factor(rds)
            if trial % 10 == 0
            else extend_with_tags(rds, tags=rng.choice([1, 2, 3]), rotate=rng.random() < 0.5)
        )
        mu = cesaro_limit(random_measure(rng, pi.target), pi.target)
        lifted = lift_invariant(pi, mu)
        if invariance_defect(lifted, pi.source) != 0 or not measures_equal(
            pushforward_measure(pi, lifted), mu
        ):
            lift_ok = False

    swap_poly = vertex_enumeration(swap_system())
    swap_ok = len(swap_poly.vertices) == 1 and dict(swap_poly.vertices[0].weights[0]) == {
        "a": Fraction(1, 2)
    } and dict(swap_poly.vertices[0].weights[1]) == {"c": Fraction(1, 2)}
    cyc = cycle_system()
    cyc_poly = vertex_enumeration(cyc)
    cyc_ok = len(cyc_poly.vertices) == 1 and dict(cyc_poly.vertices[0].weights[0]) == {
        p: Fraction(1, 4) for p in cyc.fibers[0]
    }

    _report(
        "6. invariant machinery: 100 Cesaro projections defect exactly 0, "
        "50 lift certificates exact, preset vertex sets match hand derivation",
        cesaro_ok and lift_ok and swap_ok and cyc_ok,
    )


def test_criterion_7_constructions():
    cyc = cycle_system()
    diag = diagonal_measure(
        cyc, point_partition(cyc), point_partition(cyc), n=2, delta=Fraction(1), entropy_depth=4
    )
    diag_ok = (
        diag.invariance == 0
        and diag.support_diagonal is True
        and diag.entropy.values == (0.0, 0.0, 0.0, 0.0)
    )

    gate_passes = 0
    card_ok = True
    for trial in range(50):
        rng = _rng(1031, trial)
        rds = random_system(rng, with_metric=True)
        p = random_cover(_rng(1032, trial), rds)
        q = random_cover(_rng(1033, trial), rds)
        delta = rng.choice([Fraction(1, 100), Fraction(1, 2), Fraction(1)])
        se = separated_empirical(rds, p, q, n=2, delta=delta)
        if se.lebesgue_ok:
            gate_passes += 1
            if not se.card_ok:
                card_ok = False
        if se.support_mass_mu_n != 1:
            card_ok = False
    _report(
        "7. constructions: diagonal measure exactly diagonal with zero sequence; "
        "separated cardinality dominates the count whenever the radius gate passes",
        diag_ok and card_ok and gate_passes > 0,
        f"gate passes={gate_passes}/50",
    )


def test_criterion_8_theorem_instances():
    theorem = run_theorem_suite()
    principal = run_principal_suite()
    names = {c.name for c in theorem.checks}
    required = {
        "finite_depth_chain",
        "tail_entropy_exact_zero",
        "defect_bounded_by_tail",
        "pair_variational_exact",
        "diagonal_attains_maximum",
    }
    _report(
        "8. theorem instances: finite-depth chain to n=6, degenerate exact checks, "
        "principal extensions with exact matched-depth count agreement",
        theorem.passed and principal.passed and required <= names,
    )


def test_criterion_9_determinism():
    a = run_cover_suite(seed=42, trials=25)
    b = run_cover_suite(seed=42, trials=25)
    e1 = run_entropy_suite(seed=9, trials=25)
    e2 = run_entropy_suite(seed=9, trials=25)
    ok = a.to_json() == b.to_json() and e1.to_json() == e2.to_json()
    _report("9. determinism: same seed reproduces byte-identical reports", ok)
