"""Measures: disintegration, conditional entropy, relative entropy
sequences, defect surrogate, entropy bounds, pushforwards."""

import math
from fractions import Fraction

import pytest

from rdstail import (
    BudgetExceededError,
    Budgets,
    BundleRDS,
    DomainError,
    DrivingSystem,
    DefectEstimate,
    EntropyEstimate,
    FiberedMeasure,
    PreconditionError,
    RandomPartition,
    RandomSet,
    SigmaAlgebra,
    cesaro_limit,
    conditional_entropy,
    containment_entropy_bound_check,
    cycle_system,
    defect,
    delta_contains,
    disintegrate,
    entropy_count_bound_check,
    extend_with_tags,
    fiber_sigma,
    filtration_limit_check,
    identity_factor,
    invariance_defect,
    iterate_cover,
    join,
    measures_equal,
    pair_system,
    point_partition,
    product_system,
    pushforward_measure,
    relative_entropy_sequence,
    relative_entropy_sequences,
    sigma_join,
    skew_pushforward,
    state_partition,
    state_sigma,
    swap_system,
    total_variation,
    transformation_relative_entropy_sequence,
    trivial_cover,
    two_partition_count_bound_check,
    vertex_enumeration,
)
from rdstail.covers import RandomCover, pullback, pullback_cover, refines
from rdstail.errors import RdstailError
from rdstail.invariant import _cycle_structure
from rdstail.covers import _cell_steps
from rdstail.measures import (
    ContainmentWitness,
    _gather,
    _measure,
    _numerators,
    _skew_gap,
    defect_from_sequences,
)
from rdstail.verify import (
    _rng,
    coarsen,
    random_cover,
    random_driving,
    random_measure,
    random_partition,
    random_system,
)

from mask_oracles import _mask_iterates, with_escape, with_stray
from measure_oracles import mix

SWAP = swap_system()
TOL = 1e-9


def swap_invariant() -> FiberedMeasure:
    return FiberedMeasure(({"a": Fraction(1, 2)}, {"c": Fraction(1, 2)}))


def partition(*elements) -> RandomPartition:
    return RandomPartition(tuple(RandomSet(tuple(frozenset(s) for s in e)) for e in elements))


def test_validate_and_marginal():
    mu = FiberedMeasure.uniform(SWAP)
    assert mu.validate(SWAP) == []
    bad = FiberedMeasure(({"a": Fraction(1, 2)}, {"c": Fraction(1, 4)}))
    assert any("marginal" in v for v in bad.validate(SWAP))
    stray = FiberedMeasure(({"zzz": Fraction(1, 2)}, {"c": Fraction(1, 2)}))
    assert any("outside the fiber" in v for v in stray.validate(SWAP))


def test_disintegrate_uniform_and_point_mass():
    mu = FiberedMeasure.uniform(SWAP)
    conds = disintegrate(mu, SWAP)
    assert conds[0] == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    point = swap_invariant()
    conds2 = disintegrate(point, SWAP)
    assert conds2[0] == {"a": Fraction(1)}
    # reconstruction: base-mass-weighted conditionals give back total mass one
    total = sum(
        SWAP.base.prob[w] * sum(conds[w].values(), Fraction(0)) for w in range(SWAP.size)
    )
    assert total == 1


def test_disintegrate_flags_zero_mass_fiber():
    from rdstail import BundleRDS, DrivingSystem

    base = DrivingSystem((Fraction(1), Fraction(0)), (0, 1))
    rds = BundleRDS(base=base, fibers=(frozenset({"x"}), frozenset({"y"})), maps=({"x": "x"}, {"y": "y"}))
    mu = FiberedMeasure(({"x": Fraction(1)}, {}))
    assert disintegrate(mu, rds)[1] is None


def _plogq(mass, given):
    """Oracle term on Fractions: mass * log(given / mass), 0 at mass 0."""
    if mass == 0:
        return 0.0
    return float(mass) * (math.log(float(given)) - math.log(float(mass)))


def mass_of_sections(mu, sections):
    """Oracle: the mass of a random set, each point of a section once."""
    return sum(
        (mu.weights[w].get(x, Fraction(0)) for w in range(len(sections)) for x in sections[w]),
        Fraction(0),
    )


def conditional_entropy_by_cells(mu, r, s):
    """Oracle: the atom x cell formula over frozenset intersections that
    the joint masses replaced."""
    total = 0.0
    for atom in s.atoms.elements:
        atom_mass = mass_of_sections(mu, atom.sections)
        if atom_mass == 0:
            continue
        for cell in r.elements:
            joint = mass_of_sections(mu, tuple(a & c for a, c in zip(atom.sections, cell.sections)))
            total += _plogq(joint, atom_mass)
    return total


def delta_contains_by_cells(p, q, mu, delta):
    """Oracle: the containment optimum from frozenset intersections."""
    inter = [
        [mass_of_sections(mu, tuple(ps & qs for ps, qs in zip(pe.sections, qe.sections))) for qe in q.elements]
        for pe in p.elements
    ]
    total_p = sum((mass_of_sections(mu, pe.sections) for pe in p.elements), Fraction(0))
    total_q = sum((mass_of_sections(mu, qe.sections) for qe in q.elements), Fraction(0))
    best_sum = total_p + total_q - 2 * sum((max(row) for row in inter), Fraction(0))
    return ContainmentWitness(contained=best_sum < delta, best_sum=best_sum)


def sigma_backward_compatible(s, rds):
    """Oracle: the algebra contains its one-step dynamical pullback, read
    off the decoded pullback of its atoms."""
    return refines(s.atoms, pullback(s.atoms, rds, 1))


def mask_memberships(cover):
    return [(i, (w, x)) for i, e in enumerate(cover.elements) for w, sec in enumerate(e.sections) for x in sec]


def entropy_by_memberships(d, num, atoms, cells):
    """Oracle: the joint numerators over ``(element index, state)``
    memberships and the atom x cell formula summed in (atom, cell) order."""
    cells_at = {}
    for j, state in cells:
        cells_at.setdefault(state, []).append(j)
    atom_mass, joint = {}, {}
    for i, state in atoms:
        v = num.get(state, 0)
        if v:
            atom_mass[i] = atom_mass.get(i, 0) + v
            for j in cells_at.get(state, ()):
                joint[i, j] = joint.get((i, j), 0) + v
    total = 0.0
    for (i, _), v in sorted(joint.items()):
        m = v / d
        if m:
            total += m * (math.log(atom_mass[i] / d) - math.log(m))
    return total


def sweep_by_masks(measures, r, s, rds, n_max, budgets=Budgets()):
    """Oracle: the family sweep over the packed masks of ``_mask_iterates``,
    every set bit walked back into an ``(element, state)`` membership, with
    the algebra checked through its decoded pullback."""
    numerators = [_numerators(mu, s.atoms, rds) for mu in measures]
    if any(_skew_gap(num, rds) for _, num in numerators):
        raise PreconditionError("invariant_measure", "measure is not skew-invariant")
    if not sigma_backward_compatible(s, rds):
        raise PreconditionError("backward_compatible_algebra", "pullback of the algebra escapes it")
    atoms, states = mask_memberships(s.atoms), rds.states()
    values = [[] for _ in measures]
    for masks in _mask_iterates(r, rds, n_max, budgets):
        cells = [(j, states[k]) for j, e in enumerate(masks) for k in range(e.bit_length()) if e >> k & 1]
        for (d, num), seq in zip(numerators, values):
            seq.append(entropy_by_memberships(d, num, atoms, cells))
    return [EntropyEstimate(values=tuple(seq), requested=n_max) for seq in values]


def test_joint_masses_match_atom_cell_formula():
    # partitions, overlapping covers and their coarsenings, each as the
    # cells and as the atoms: a state in two atoms or cells counts in each.
    # The containment optimum takes partitions only, also when overlapping
    # sections come typed as a partition
    overlapping = 0
    for trial in range(60):
        rng = _rng(95, trial)
        rds = random_system(rng, max_fiber=4)
        mu = random_measure(rng, rds)
        delta = Fraction(rng.randint(1, 8), 8)
        covers = [random_partition(rng, rds), random_cover(rng, rds), coarsen(rng, random_cover(rng, rds))]
        overlaps = sum(len(sec) for e in covers[1].elements for sec in e.sections) > sum(map(len, rds.fibers))
        overlapping += overlaps
        for r in covers:
            for atoms in covers:
                s = SigmaAlgebra(atoms)
                assert conditional_entropy(mu, r, s) == conditional_entropy_by_cells(mu, r, s), trial
                if isinstance(atoms, RandomPartition) and isinstance(r, RandomPartition):
                    assert delta_contains(atoms, r, mu, delta) == delta_contains_by_cells(atoms, r, mu, delta), trial
                else:
                    with pytest.raises(PreconditionError, match="partitions"):
                        delta_contains(atoms, r, mu, delta)
        if overlaps:
            with pytest.raises(PreconditionError, match="partitions"):
                delta_contains(covers[0], RandomPartition(covers[1].elements), mu, delta)
    assert overlapping


def test_family_sweep_matches_atom_cell_formula():
    for trial in range(20):
        rng = _rng(97, trial)
        base = random_driving(rng, 3)
        left = random_system(rng, base=base, max_fiber=3, pool=4)
        prod = product_system(left, random_system(rng, base=base, max_fiber=3, pool=4))
        h = prod.system
        family = [cesaro_limit(random_measure(rng, h), h) for _ in range(rng.randint(1, 3))]
        algebras = [SigmaAlgebra(pullback_cover(prod.to_left, state_partition(left))), fiber_sigma(h), state_sigma(h)]
        # the whole fiber as an extra atom overlaps every other atom and
        # keeps the algebra backward compatible
        whole = trivial_cover(h).elements
        algebras += [SigmaAlgebra(RandomPartition(s.atoms.elements + whole)) for s in algebras]
        for r in (random_partition(rng, h, max_cells=3), random_cover(rng, h)):
            for s in algebras:
                got = [seq.values for seq in relative_entropy_sequences(family, r, s, h, 3)]
                want = [
                    tuple(conditional_entropy_by_cells(mu, iterate_cover(r, h, n), s) for n in (1, 2, 3))
                    for mu in family
                ]
                assert got == want, trial


def test_conditional_entropy_basics():
    mu = FiberedMeasure.uniform(SWAP)
    pts = point_partition(SWAP)
    assert conditional_entropy(mu, pts, SigmaAlgebra(pts)) == 0.0
    # uniform two cells against the trivial algebra
    two = partition([{"a"}, {"c"}], [{"b"}, {"d"}])
    triv = SigmaAlgebra(trivial_cover(SWAP))
    assert abs(conditional_entropy(mu, two, triv) - math.log(2)) <= TOL
    # conditioning on the base point: fiberwise uniform over two points each
    assert abs(conditional_entropy(mu, pts, fiber_sigma(SWAP)) - math.log(2)) <= TOL
    assert conditional_entropy(mu, pts, state_sigma(SWAP)) == 0.0


def test_conditional_entropy_range():
    for trial in range(10):
        rds = random_system(_rng(51, trial))
        mu = random_measure(_rng(52, trial), rds)
        r = random_partition(_rng(53, trial), rds)
        s = SigmaAlgebra(random_partition(_rng(54, trial), rds))
        h = conditional_entropy(mu, r, s)
        assert -TOL <= h <= math.log(len(r.elements)) + TOL


def test_fiber_conditioning_matches_disintegration():
    mu = FiberedMeasure.uniform(SWAP)
    pts = point_partition(SWAP)
    lhs = conditional_entropy(mu, pts, fiber_sigma(SWAP))
    conds = disintegrate(mu, SWAP)
    rhs = 0.0
    for w in range(SWAP.size):
        for x, v in conds[w].items():
            if v:
                rhs -= float(SWAP.base.prob[w]) * float(v) * math.log(float(v))
    assert abs(lhs - rhs) <= TOL


def test_chain_rule_exact():
    for trial in range(10):
        rds = random_system(_rng(61, trial), max_fiber=4)
        mu = random_measure(_rng(62, trial), rds)
        r = random_partition(_rng(63, trial), rds)
        q = random_partition(_rng(64, trial), rds)
        s = SigmaAlgebra(random_partition(_rng(65, trial), rds))
        lhs = conditional_entropy(mu, join(r, q), s)
        rhs = conditional_entropy(mu, r, s) + conditional_entropy(mu, q, sigma_join(SigmaAlgebra(r), s))
        assert abs(lhs - rhs) <= TOL


def test_relative_entropy_sequence_zero_when_measurable():
    mu = swap_invariant()
    two = partition([{"a"}, {"c"}], [{"b"}, {"d"}])
    est = relative_entropy_sequence(mu, two, state_sigma(SWAP), SWAP, 4)
    assert est.values == (0.0, 0.0, 0.0, 0.0)


def test_relative_entropy_sequence_fiber_conditioning():
    mu = swap_invariant()
    est = relative_entropy_sequence(mu, point_partition(SWAP), fiber_sigma(SWAP), SWAP, 5)
    # the invariant measure is a point mass on each fiber: no uncertainty
    assert est.values == tuple(0.0 for _ in range(5))
    assert est.subadditive_ok


def test_relative_entropy_sweeps_reject_depth_zero():
    mu = swap_invariant()
    sweeps = (
        lambda: relative_entropy_sequence(mu, point_partition(SWAP), fiber_sigma(SWAP), SWAP, 0),
        lambda: relative_entropy_sequences([mu, mu], point_partition(SWAP), fiber_sigma(SWAP), SWAP, 0),
        lambda: transformation_relative_entropy_sequence(mu, state_sigma(SWAP), SWAP, 0),
    )
    for sweep in sweeps:
        with pytest.raises(ValueError, match="at least one depth"):
            sweep()


def test_relative_entropy_preconditions():
    mu = FiberedMeasure.uniform(SWAP)  # not invariant
    with pytest.raises(PreconditionError) as err:
        relative_entropy_sequence(mu, point_partition(SWAP), fiber_sigma(SWAP), SWAP, 3)
    assert err.value.name == "invariant_measure"

    cyc = cycle_system()
    halves = SigmaAlgebra(partition([{"p0", "p1"}], [{"p2", "p3"}]))
    inv = FiberedMeasure(({p: Fraction(1, 4) for p in cyc.fibers[0]},))
    with pytest.raises(PreconditionError) as err2:
        relative_entropy_sequence(inv, point_partition(cyc), halves, cyc, 3)
    assert err2.value.name == "backward_compatible_algebra"


def test_relative_entropy_depth_one_is_conditional_entropy():
    mu = swap_invariant()
    two = partition([{"a"}, {"c"}], [{"b"}, {"d"}])
    s = fiber_sigma(SWAP)
    est = relative_entropy_sequence(mu, two, s, SWAP, 1)
    assert abs(est.values[0] - conditional_entropy(mu, two, s)) <= TOL


def relative_entropy_sequence_per_measure(mu, r, s, rds, n_max, budgets=Budgets()):
    """Reference: the checks and the atom x cell formula at every depth for
    one measure alone, as the library ran it before one sweep served a whole
    family."""
    if not measures_equal(skew_pushforward(mu, rds), mu):
        raise PreconditionError("invariant_measure", "measure is not skew-invariant")
    if not sigma_backward_compatible(s, rds):
        raise PreconditionError("backward_compatible_algebra", "pullback of the algebra escapes it")
    values = [conditional_entropy_by_cells(mu, iterate_cover(r, rds, n, budgets), s) for n in range(1, n_max + 1)]
    return EntropyEstimate(values=tuple(values), requested=n_max)


def _outcome(fn):
    try:
        return ("values", fn())
    except PreconditionError as exc:
        return ("precondition", exc.name)
    except BudgetExceededError as exc:
        return ("budget", str(exc))


def test_point_queries_match_the_sweep_at_every_depth():
    # the point query (conditional entropy of the depth-n iterate) and depth
    # n of the sweep read one engine's cells in one order, so they give the
    # same float, as the benchmark's entropy check asserts on one shape
    for trial in range(30):
        rng = _rng(139, trial)
        base = random_driving(rng, 3)
        left = random_system(rng, base=base, max_fiber=3, pool=4)
        prod = product_system(left, random_system(rng, base=base, max_fiber=3, pool=4))
        h = prod.system
        mu = cesaro_limit(random_measure(rng, h), h)
        s = SigmaAlgebra(pullback_cover(prod.to_left, state_partition(left)))
        n_max = rng.randint(1, 5)
        for r in (random_partition(rng, h, max_cells=3), random_cover(rng, h), state_partition(h)):
            (sweep,) = relative_entropy_sequences([mu], r, s, h, n_max)
            points = tuple(conditional_entropy(mu, iterate_cover(r, h, n), s) for n in range(1, n_max + 1))
            assert points == sweep.values, trial


def test_family_sweep_matches_per_measure_sequences():
    seen = set()
    for trial in range(30):
        rng = _rng(91, trial)
        base = random_driving(rng, 3)
        left = random_system(rng, base=base, max_fiber=3, pool=4)
        prod = product_system(left, random_system(rng, base=base, max_fiber=3, pool=4))
        h = prod.system
        family = [cesaro_limit(random_measure(rng, h), h) for _ in range(rng.randint(1, 4))]
        r = random_partition(rng, h, max_cells=3)
        d_h = SigmaAlgebra(pullback_cover(prod.to_left, state_partition(left)))
        # the random partition's algebra is often not backward compatible
        algebras = [d_h, fiber_sigma(h), state_sigma(h), SigmaAlgebra(random_partition(rng, h))]
        cases = [(family, s, budgets) for s in algebras for budgets in (Budgets(), Budgets(cover_elements=6))]
        stray = random_measure(rng, h)
        if not measures_equal(skew_pushforward(stray, h), stray):
            mixed = list(family)
            mixed.insert(rng.randrange(len(mixed) + 1), stray)
            # default budgets only: the family checks every member before it
            # sweeps, so a budget stop no longer comes before the precondition
            cases.append((mixed, d_h, Budgets()))
        for measures, s, budgets in cases:
            got = _outcome(lambda: relative_entropy_sequences(measures, r, s, h, 4, budgets))
            want = _outcome(
                lambda: [relative_entropy_sequence_per_measure(mu, r, s, h, 4, budgets) for mu in measures]
            )
            assert got == want, (trial, got, want)
            seen.add(want if want[0] == "precondition" else want[0])
    assert seen == {
        "values",
        "budget",
        ("precondition", "invariant_measure"),
        ("precondition", "backward_compatible_algebra"),
    }


def _sweep_outcome(fn):
    try:
        return ("values", [seq.values for seq in fn()])
    except (RdstailError, ValueError) as exc:
        return (type(exc).__name__, getattr(exc, "name", None), str(exc), getattr(exc, "depth", None))


def _items_outcome(items):
    out = []
    try:
        for item in items:
            out.append(item)
    except RdstailError as exc:
        return out, (type(exc).__name__, str(exc), getattr(exc, "depth", None))
    return out, None


def cell_step_masks(r, rds, n_max, budgets):
    """The cells of ``_cell_steps`` at every depth as packed masks: bit k
    of cell c is set when state k lies in c.  Past the stepper's fixed
    depth every depth to ``n_max`` repeats the last masks."""
    index = {state: i for i, state in enumerate(rds.states())}
    depth = 0
    for depth, (cells, held) in enumerate(_cell_steps(r, rds, index, n_max, budgets), 1):
        masks = [0] * (1 + max((c for at in cells for c in at), default=-1))
        for k, at in enumerate(cells):
            for c in at:
                masks[c] |= 1 << k
        # the states of each cell are the memberships read cell by cell
        assert masks == [sum(1 << k for k in states) for states in held]
        yield masks
    for _ in range(depth, n_max):
        yield masks


def test_cell_steps_match_mask_sweep():
    # partitions, overlapping covers, overlapping-atom and trivial algebras,
    # escapes, strays, other spans, budgets 1..8 and depth 0: the same
    # floats, or the same error at the same depth, as the mask sweep; the
    # cells at every depth are the mask join's, item for item
    seen, cells_seen = set(), set()
    for trial in range(40):
        rng = _rng(109, trial)
        base = random_driving(rng, 3)
        left = random_system(rng, base=base, max_fiber=3, pool=4)
        prod = product_system(left, random_system(rng, base=base, max_fiber=3, pool=4))
        h = prod.system
        rds = with_escape(rng, h) if rng.random() < 0.3 else h
        family = [cesaro_limit(random_measure(rng, h), h) for _ in range(rng.randint(1, 3))]
        if trial % 8 == 0:
            family.append(random_measure(rng, h))
        algebras = [SigmaAlgebra(pullback_cover(prod.to_left, state_partition(left))), fiber_sigma(h), state_sigma(h)]
        whole = trivial_cover(h).elements
        algebras += [SigmaAlgebra(RandomPartition(s.atoms.elements + whole)) for s in algebras]
        algebras += [SigmaAlgebra(trivial_cover(h)), SigmaAlgebra(random_partition(rng, rds))]
        algebras.append(SigmaAlgebra(with_stray(rng, algebras[0].atoms)))
        part = random_partition(rng, rds, max_cells=3)
        covers = [part, random_cover(rng, rds), coarsen(rng, random_cover(rng, rds)), with_stray(rng, part)]
        covers.append(RandomCover(tuple(RandomSet(e.sections + (frozenset(),)) for e in part.elements)))
        for r in covers:
            for s in algebras:
                n_max = rng.randint(0, 4)
                budgets = Budgets(cover_elements=rng.randint(1, 8)) if rng.random() < 0.5 else Budgets()
                got = _sweep_outcome(lambda: relative_entropy_sequences(family, r, s, rds, n_max, budgets))
                want = _sweep_outcome(lambda: sweep_by_masks(family, r, s, rds, n_max, budgets))
                assert got == want, (trial, got, want)
                seen.add(want[:2] if want[0] != "values" else ("values", rds is h))
            n_max = rng.randint(1, 4)
            budgets = Budgets(cover_elements=1 + trial % 8)
            got = _items_outcome(cell_step_masks(r, rds, n_max, budgets))
            assert got == _items_outcome(_mask_iterates(r, rds, n_max, budgets)), trial
            cells_seen.add(got[1] and got[1][0])
    assert seen == {
        ("values", True),
        ("values", False),
        ("PreconditionError", "invariant_measure"),
        ("PreconditionError", "backward_compatible_algebra"),
        ("BudgetExceededError", None),
        ("DomainError", None),
        ("IncompatibleSystemsError", None),
        ("ValueError", None),
    }
    assert cells_seen == {None, "BudgetExceededError", "DomainError", "IncompatibleSystemsError"}


def test_partition_sweeps_repeating_their_cells_match_the_mask_sweep():
    # on a partition the stepper stops at the first depth that repeats the
    # last one's cells and the sweep repeats its floats: to depth 12, the
    # same floats, bit for bit, as the mask sweep, which steps every depth,
    # and the same cells in the same order at every depth
    repeated = 0
    for trial in range(30):
        rng = _rng(126, trial)
        base = random_driving(rng, 3)
        left = random_system(rng, base=base, max_fiber=3, pool=4)
        prod = product_system(left, random_system(rng, base=base, max_fiber=3, pool=4))
        h = prod.system
        rds = with_escape(rng, h) if rng.random() < 0.3 else h
        family = [cesaro_limit(random_measure(rng, h), h) for _ in range(rng.randint(1, 3))]
        algebras = [SigmaAlgebra(pullback_cover(prod.to_left, state_partition(left))), fiber_sigma(h), state_sigma(h)]
        for r in (random_partition(rng, rds, max_cells=3), point_partition(rds), state_partition(rds)):
            for s in algebras:
                got = _sweep_outcome(lambda: relative_entropy_sequences(family, r, s, rds, 12))
                want = _sweep_outcome(lambda: sweep_by_masks(family, r, s, rds, 12))
                assert got == want and got[0] == "values", (trial, got, want)
                assert [list(map(float.hex, v)) for v in got[1]] == [list(map(float.hex, v)) for v in want[1]]
            want = _items_outcome(_mask_iterates(r, rds, 12))
            assert _items_outcome(cell_step_masks(r, rds, 12, Budgets())) == want
            repeated += any(a == b for a, b in zip(want[0], want[0][1:]))
    assert repeated == 90


def test_entropy_continuous_along_tv_converging_sequences():
    # blend the invariant measure toward a perturbation with geometrically
    # shrinking weight: total variation halves each step and the entropy gap
    # follows it down
    m = swap_invariant()
    other = FiberedMeasure(({"b": Fraction(1, 2)}, {"d": Fraction(1, 2)}))
    pts = point_partition(SWAP)
    s = fiber_sigma(SWAP)
    base = conditional_entropy(m, pts, s)
    gaps = []
    for j in range(1, 16):
        eps = Fraction(1, 2**j)
        mu_j = mix([(1 - eps, m), (eps, other)])
        assert total_variation(mu_j, m) == 2 * eps
        gaps.append(abs(conditional_entropy(mu_j, pts, s) - base))
    assert gaps[-1] < 1e-3
    assert gaps[-1] < gaps[0]
    assert all(b <= a + TOL for a, b in zip(gaps, gaps[1:]))


def test_transformation_relative_entropy_full_algebra_zero():
    mu = swap_invariant()
    assert transformation_relative_entropy_sequence(mu, state_sigma(SWAP), SWAP, 4).value == 0.0


def test_transformation_on_diagonal_pair_measure():
    cyc = cycle_system()
    pair = pair_system(cyc)
    diag = FiberedMeasure(({(p, p): Fraction(1, 4) for p in cyc.fibers[0]},))
    assert diag.validate(pair.system) == []
    first_algebra = SigmaAlgebra(pullback_cover(pair.to_left, state_partition(cyc)))
    est = transformation_relative_entropy_sequence(diag, first_algebra, pair.system, 4)
    assert est.values == tuple(0.0 for _ in range(4))


def test_defect_trivial_and_truncated():
    mu = swap_invariant()
    s = fiber_sigma(SWAP)
    d = defect(mu, s, SWAP, [mu], Fraction(1), 4)
    assert d.value == 0.0 and d.raw == 0.0 and not d.neighborhood_empty
    assert d.truncated == (0.0, 0.0, 0.0, 0.0)
    empty = defect(mu, s, SWAP, [], Fraction(1), 3)
    assert empty.neighborhood_empty and empty.value == 0.0


def defect_per_measure(m, s, rds, family, epsilon, n_max):
    """Reference: the defect from one sequence per measure, near members only."""
    for cand in (m, *family):
        if not measures_equal(skew_pushforward(cand, rds), cand):
            raise PreconditionError("invariant_measure", "defect needs invariant measures")
    base_seq = relative_entropy_sequence_per_measure(m, state_partition(rds), s, rds, n_max)
    near = [mu for mu in family if total_variation(mu, m) <= epsilon]
    if not near:
        return DefectEstimate(value=0.0, raw=0.0, truncated=tuple(0.0 for _ in range(n_max)), neighborhood_empty=True)
    seqs = [relative_entropy_sequence_per_measure(mu, state_partition(rds), s, rds, n_max) for mu in near]
    raw = max(seq.value for seq in seqs) - base_seq.value
    truncated = tuple(max(seq.ratios[k] for seq in seqs) - base_seq.ratios[k] for k in range(n_max))
    return DefectEstimate(value=max(raw, 0.0), raw=raw, truncated=truncated, neighborhood_empty=False)


def test_defect_matches_per_measure_formula():
    near_and_far = 0
    for trial in range(15):
        rng = _rng(93, trial)
        base = random_driving(rng, 3)
        left = random_system(rng, base=base, max_fiber=3, pool=4)
        prod = product_system(left, random_system(rng, base=base, max_fiber=2, pool=4))
        h = prod.system
        d_h = SigmaAlgebra(pullback_cover(prod.to_left, state_partition(left)))
        m, *family = [cesaro_limit(random_measure(rng, h), h) for _ in range(rng.randint(1, 5))]
        distances = sorted(total_variation(mu, m) for mu in family)
        radii = [Fraction(0), Fraction(2)]
        if distances:
            radii.append(distances[len(distances) // 2])  # some members near, some far
        for epsilon in radii:
            got = defect(m, d_h, h, family, epsilon, 4)
            assert got == defect_per_measure(m, d_h, h, family, epsilon, 4), trial
            near_and_far += 0 < sum(d <= epsilon for d in distances) < len(distances)
        assert defect(m, d_h, h, [], Fraction(1), 3) == defect_per_measure(m, d_h, h, [], Fraction(1), 3)
        # the theorem suite's form: every member against the family, from one sweep
        seqs = relative_entropy_sequences(family, state_partition(h), d_h, h, 4)
        for mu, seq in zip(family, seqs):
            got = defect_from_sequences(mu, seq, family, seqs, Fraction(1))
            assert got == defect(mu, d_h, h, family, Fraction(1), 4), trial
    assert near_and_far


def test_defect_diagnostics_ignore_far_members():
    # a far member with the largest ratio at depths 2 and 3, and the largest
    # bracket, reaches neither the truncated defects nor the raw defect
    m = FiberedMeasure.uniform(SWAP)
    far = FiberedMeasure(({"a": Fraction(1, 2)}, {"c": Fraction(1, 2)}))
    assert total_variation(far, m) > 0
    base_seq = EntropyEstimate(values=(0.125, 0.25, 0.375), requested=3)
    near_seq = EntropyEstimate(values=(0.5, 0.25, 0.375), requested=3)  # ratios 1/2, 1/8, 1/8
    far_seq = EntropyEstimate(values=(0.25, 1.0, 0.75), requested=3)  # ratios 1/4, 1/2, 1/4
    got = defect_from_sequences(m, base_seq, [m, far], [near_seq, far_seq], Fraction(0))
    assert got == DefectEstimate(value=0.0, raw=0.0, truncated=(0.375, 0.0, 0.0), neighborhood_empty=False)
    # with the far member inside the radius its columns count
    wide = defect_from_sequences(m, base_seq, [m, far], [near_seq, far_seq], Fraction(2))
    assert wide.truncated == (0.375, 0.375, 0.125) and wide.raw == 0.125


def test_defect_requires_invariance():
    with pytest.raises(PreconditionError):
        defect(FiberedMeasure.uniform(SWAP), fiber_sigma(SWAP), SWAP, [], Fraction(1), 2)


def test_entropy_count_bound():
    mu = FiberedMeasure.uniform(SWAP)
    pts = point_partition(SWAP)
    same = entropy_count_bound_check(mu, pts, pts, SWAP)
    assert same.ok and same.left == 0.0 and same.right == 0.0
    # uniform cells against the trivial conditioning: both sides log 2
    two = partition([{"a"}, {"c"}], [{"b"}, {"d"}])
    triv = RandomPartition((RandomSet((frozenset({"a", "b"}), frozenset({"c", "d"}))),))
    chk = entropy_count_bound_check(mu, two, triv, SWAP)
    assert chk.ok
    assert abs(chk.left - math.log(2)) <= TOL and abs(chk.right - math.log(2)) <= TOL
    mixed = entropy_count_bound_check(mu, pts, two, SWAP)
    assert mixed.ok and mixed.slack >= -TOL


def test_two_partition_count_bound_random():
    for trial in range(10):
        rds = random_system(_rng(71, trial))
        mu = random_measure(_rng(72, trial), rds)
        r = random_partition(_rng(73, trial), rds)
        q = random_partition(_rng(74, trial), rds)
        chk = two_partition_count_bound_check(mu, r, q, rds, fiber_sigma(rds))
        assert chk.ok


def test_containment_bound_cases():
    mu = FiberedMeasure.uniform(SWAP)
    pts = point_partition(SWAP)
    two = partition([{"a"}, {"c"}], [{"b"}, {"d"}])
    res = containment_entropy_bound_check(mu, pts, two, Fraction(1, 8))
    assert res.ok and res.delta_in_range
    assert res.entropy == 0.0
    assert res.witness.best_sum == 0
    # the alternative sign variant is reported and differs
    assert res.bound != res.bound_plus_variant

    far = partition([{"a", "b"}, set()], [set(), {"c", "d"}])
    with pytest.raises(PreconditionError):
        containment_entropy_bound_check(mu, two, far, Fraction(1, 16))
    with pytest.raises(ValueError):
        containment_entropy_bound_check(mu, pts, two, Fraction(2))


def test_filtration_limit():
    mu = FiberedMeasure.uniform(SWAP)
    pts = point_partition(SWAP)
    triv = SigmaAlgebra(trivial_cover(SWAP))
    full = state_sigma(SWAP)
    two_step = (triv, full)
    chk = filtration_limit_check(mu, pts, two_step, full)
    assert chk.ok
    assert abs(chk.entropies[0] - math.log(4)) <= TOL  # four uniform states
    assert chk.entropies[-1] == 0.0

    const = [triv, triv]
    chk2 = filtration_limit_check(mu, pts, const, triv)
    assert chk2.ok and chk2.entropies[0] == chk2.entropies[1]

    mid = sigma_join(triv, fiber_sigma(SWAP))
    three = (triv, mid, full)
    chk3 = filtration_limit_check(mu, pts, three, full)
    assert chk3.ok
    assert chk3.entropies[0] >= chk3.entropies[1] >= chk3.entropies[2]

    bad = (full, triv)
    with pytest.raises(PreconditionError):
        filtration_limit_check(mu, pts, bad, triv)
    assert filtration_limit_check(mu, pts, [full], full).ok
    with pytest.raises(ValueError, match="a filtration needs at least one stage"):
        filtration_limit_check(mu, pts, (), full)


def test_pushforward_identity_affinity_and_collapse():
    ident = identity_factor(SWAP)
    mu = FiberedMeasure.uniform(SWAP)
    assert measures_equal(pushforward_measure(ident, mu), mu)

    pi = extend_with_tags(SWAP, tags=2, rotate=False)
    up1 = random_measure(_rng(81, 0), pi.source)
    up2 = random_measure(_rng(81, 1), pi.source)
    blended = mix([(Fraction(1, 2), up1), (Fraction(1, 2), up2)])
    lhs = pushforward_measure(pi, blended)
    rhs = mix([(Fraction(1, 2), pushforward_measure(pi, up1)), (Fraction(1, 2), pushforward_measure(pi, up2))])
    assert measures_equal(lhs, rhs)

    uniform_up = FiberedMeasure.uniform(pi.source)
    down = pushforward_measure(pi, uniform_up)
    # two preimages per point collapse onto doubled weight
    assert down.get(0, "a") == 2 * uniform_up.get(0, ("a", "t0"))
    assert down.validate(SWAP) == []


def test_pushforward_preserves_invariance():
    pi = extend_with_tags(SWAP, tags=2, rotate=True)
    poly = vertex_enumeration(pi.source)
    for v in poly.vertices:
        image = pushforward_measure(pi, v)
        assert measures_equal(skew_pushforward(image, SWAP), image)


def test_total_variation_convention():
    a = FiberedMeasure(({"a": Fraction(1, 2)}, {"c": Fraction(1, 2)}))
    b = FiberedMeasure(({"b": Fraction(1, 2)}, {"c": Fraction(1, 2)}))
    assert total_variation(a, b) == 1


# Oracles: the per-function accumulation loops that the measures accumulator
# replaced.  The pushforwards skip zero masses; a mixture
# (``measure_oracles.mix``) keeps them.


def skew_pushforward_by_loop(mu, rds):
    acc = [{} for _ in range(rds.size)]
    for w in range(rds.size):
        wn = rds.base.theta[w]
        for x, v in mu.weights[w].items():
            if v == 0:
                continue
            y = rds.apply(w, x)
            acc[wn][y] = acc[wn].get(y, Fraction(0)) + v
    return FiberedMeasure(tuple(acc))


def pushforward_measure_by_loop(pi, mu):
    acc = [{} for _ in range(pi.source.size)]
    for w in range(pi.source.size):
        for y, v in mu.weights[w].items():
            if v == 0:
                continue
            x = pi.apply(w, y)
            acc[w][x] = acc[w].get(x, Fraction(0)) + v
    return FiberedMeasure(tuple(acc))


def measures_equal_by_loop(a, b):
    if a.size != b.size:
        return False
    for wa, wb in zip(a.weights, b.weights):
        for x in set(wa) | set(wb):
            if wa.get(x, Fraction(0)) != wb.get(x, Fraction(0)):
                return False
    return True


def stored(mu):
    """Every stored key with its mass, zeros included, in storage order."""
    return [list(w.items()) for w in mu.weights]


def test_accumulator_matches_per_function_loops():
    zeros_kept = 0
    same_size_verdicts = set()
    for trial in range(100):
        rng = _rng(89, trial)
        rds = random_system(rng, max_fiber=4)
        pi = extend_with_tags(rds, tags=rng.randint(1, 3), rotate=rng.random() < 0.5)
        # small denominators store many zero masses
        mus = [random_measure(rng, rds, denom=2) for _ in range(rng.randint(1, 3))]
        parts = [(Fraction(rng.randint(0, 3), 3), mu) for mu in mus]
        mixed = mix(parts)
        zeros_kept += sum(v == 0 for w in mixed.weights for v in w.values())
        for mu in (*mus, mixed):
            assert stored(skew_pushforward(mu, rds)) == stored(skew_pushforward_by_loop(mu, rds)), trial
        up = mix([(Fraction(1, 2), random_measure(rng, pi.source, denom=2)) for _ in range(2)])
        assert stored(pushforward_measure(pi, up)) == stored(pushforward_measure_by_loop(pi, up)), trial
        nonzero = FiberedMeasure(tuple({x: v for x, v in w.items() if v} for w in mus[0].weights))
        longer = FiberedMeasure((*mus[0].weights, {}))
        for b in (mixed, nonzero, longer, up, skew_pushforward(mus[0], rds)):
            equal = measures_equal(mus[0], b)
            assert equal == measures_equal_by_loop(mus[0], b), trial
            if b.size == mus[0].size:
                same_size_verdicts.add(equal)
        assert measures_equal(mus[0], nonzero) and not measures_equal(mus[0], longer)
    assert zeros_kept  # the mixtures did store zeros
    # the oracle saw equal and unequal measures of one size
    assert same_size_verdicts == {True, False}


# Oracles for the integer mass sums: the Fraction formulas above, and the
# sweep's checks made on a pushed-forward measure.


def _prime_powers():
    """Pairwise coprime denominators past 2**80: the least power of each
    odd prime in turn that exceeds it."""
    q = 2
    while True:
        q += 1
        if all(q % k for k in range(2, math.isqrt(q) + 1)):
            p = q
            while p <= 2**80:
                p *= q
            yield p


def coprime_measure(rng, rds, denominators):
    """A weight ``k/p`` on every state, each with its own denominator ``p``
    from ``denominators``; about one in five is stored as an explicit zero."""
    weights = []
    for w in range(rds.size):
        ws = {}
        for x in sorted(rds.fibers[w]):
            p = next(denominators)
            ws[x] = Fraction(0) if rng.random() < 0.2 else Fraction(rng.randint(1, p - 1), p)
        weights.append(ws)
    return FiberedMeasure(tuple(weights))


def sweep_by_oracle(measures, r, s, rds, n_max):
    """The family sweep from the Fraction oracles: each measure pushed one
    step and compared, then the algebra checked, then the atom x cell
    formula at every depth."""
    for mu in measures:
        if not measures_equal_by_loop(skew_pushforward_by_loop(mu, rds), mu):
            raise PreconditionError("invariant_measure", "measure is not skew-invariant")
    if not sigma_backward_compatible(s, rds):
        raise PreconditionError("backward_compatible_algebra", "pullback of the algebra escapes it")
    return [
        EntropyEstimate(
            values=tuple(conditional_entropy_by_cells(mu, iterate_cover(r, rds, n), s) for n in range(1, n_max + 1)),
            requested=n_max,
        )
        for mu in measures
    ]


def _raised(fn):
    try:
        return ("values", fn())
    except (DomainError, PreconditionError) as exc:
        return (type(exc).__name__, str(exc))


def with_weights(mu, w, extra):
    return FiberedMeasure(tuple({**ws, **extra} if v == w else ws for v, ws in enumerate(mu.weights)))


def test_integer_masses_match_fraction_oracles():
    # three coprime denominators past 2**80 put the common denominator past
    # 2**200; explicit zeros, overlapping covers and overlapping atoms
    denominators = _prime_powers()
    huge = positive = 0
    for trial in range(25):
        rng = _rng(103, trial)
        rds = random_system(rng, max_fiber=4)
        mu = coprime_measure(rng, rds, denominators)
        if sum(v > 0 for ws in mu.weights for v in ws.values()) >= 3:
            assert _numerators(mu)[0] > 2**200, trial
            huge += 1
        delta = Fraction(rng.randint(1, 8), 8)
        part = random_partition(rng, rds)
        covers = [part, coarsen(rng, part), random_partition(rng, rds), random_cover(rng, rds)]
        covers.append(coarsen(rng, covers[-1]))
        for r in covers:
            for atoms in covers:
                s = SigmaAlgebra(atoms)
                assert conditional_entropy(mu, r, s) == conditional_entropy_by_cells(mu, r, s), trial
                if isinstance(atoms, RandomPartition) and isinstance(r, RandomPartition):
                    want = delta_contains_by_cells(atoms, r, mu, delta)
                    assert delta_contains(atoms, r, mu, delta) == want, trial
                    positive += want.best_sum > 0
    assert huge >= 15 and positive


def test_integer_sweep_matches_fraction_oracles():
    denominators = _prime_powers()
    seen, huge = set(), 0
    for trial in range(20):
        rng = _rng(107, trial)
        base = random_driving(rng, 3)
        left = random_system(rng, base=base, max_fiber=3, pool=4)
        prod = product_system(left, random_system(rng, base=base, max_fiber=3, pool=4))
        h = prod.system
        sources = [coprime_measure(rng, h, denominators) for _ in range(rng.randint(1, 3))]
        family = [cesaro_limit(nu, h) for nu in sources]
        mu = family[0]
        w = rng.choice([v for v in range(h.size) if mu.weights[v]])
        x, y = rng.choice(sorted(mu.weights[w])), rng.choice(sorted(h.fibers[w]))
        p = next(denominators)
        moved = dict(mu.weights[w])
        moved[x] -= Fraction(1, p) * moved[x]
        moved[y] = moved.get(y, Fraction(0)) + Fraction(1, p) * mu.weights[w][x]
        perturbed = FiberedMeasure(tuple(moved if v == w else ws for v, ws in enumerate(mu.weights)))
        zeros = FiberedMeasure(tuple({**{z: Fraction(0) for z in h.fibers[v]}, **ws} for v, ws in enumerate(mu.weights)))
        off_zero = with_weights(zeros, w, {"stray": Fraction(0)})
        off_pos = with_weights(mu, w, {"stray": Fraction(1, p), "stray2": Fraction(1, p)})
        if sum(v > 0 for ws in sources[0].weights for v in ws.values()) >= 3:
            assert _numerators(mu)[0] > 2**200, trial
            huge += 1
        families = [
            family,
            [zeros, off_zero, *family[1:]],
            [*family, perturbed],
            [perturbed, off_pos],
            [off_pos, perturbed],
            [mu, off_zero, off_pos],
        ]
        r = random_partition(rng, h, max_cells=3)
        algebras = [SigmaAlgebra(pullback_cover(prod.to_left, state_partition(left))), fiber_sigma(h), state_sigma(h)]
        whole = trivial_cover(h).elements
        algebras += [SigmaAlgebra(RandomPartition(s.atoms.elements + whole)) for s in algebras]
        algebras.append(SigmaAlgebra(random_partition(rng, h)))
        for measures in families:
            for cells in (r, random_cover(rng, h)):
                for s in algebras:
                    got = _raised(lambda: relative_entropy_sequences(measures, cells, s, h, 3))
                    want = _raised(lambda: sweep_by_oracle(measures, cells, s, h, 3))
                    assert got == want, (trial, got, want)
                    seen.add(want[0] if want[0] != "PreconditionError" else want[1])
    assert huge >= 10
    assert seen == {
        "values",
        "DomainError",
        "precondition 'invariant_measure' failed: measure is not skew-invariant",
        "precondition 'backward_compatible_algebra' failed: pullback of the algebra escapes it",
    }


TINY = Fraction(1, 2**1101)  # a positive mass that rounds to 0.0


def test_mass_below_the_smallest_float_adds_nothing():
    assert TINY > 0 and float(TINY) == 0.0
    mu = FiberedMeasure(({"a": Fraction(1, 4), "b": Fraction(1, 4)}, {"c": Fraction(1, 2) - TINY, "d": TINY}))
    # exactly log(2)/2 plus the tiny cell's terms, below 1e-320
    assert abs(conditional_entropy(mu, point_partition(SWAP), fiber_sigma(SWAP)) - math.log(2) / 2) <= TOL
    fixed = BundleRDS(
        base=DrivingSystem((Fraction(1),), (0,)), fibers=(frozenset({"x", "y"}),), maps=({"x": "x", "y": "y"},)
    )
    nearly_point = FiberedMeasure(({"x": 1 - TINY, "y": TINY},))
    est = relative_entropy_sequence(nearly_point, point_partition(fixed), SigmaAlgebra(trivial_cover(fixed)), fixed, 3)
    assert all(abs(v) <= TOL for v in est.values)


def test_measure_over_another_number_of_base_points_is_refused():
    # a measure shorter than the covers was read as zero mass past its end,
    # and a longer one lost its extra fibers
    mu = swap_invariant()
    points, fibers = point_partition(SWAP), fiber_sigma(SWAP)
    pi = extend_with_tags(SWAP, tags=2, rotate=False)
    up = FiberedMeasure.uniform(pi.source)
    calls = (
        lambda m: conditional_entropy(m, points, fibers),
        lambda m: delta_contains(points, points, m, TOL),
        lambda m: total_variation(mu, m),
        lambda m: total_variation(m, mu),
        lambda m: invariance_defect(m, SWAP),
        lambda m: skew_pushforward(m, SWAP),
        lambda m: cesaro_limit(m, SWAP),
        lambda m: disintegrate(m, SWAP),
        lambda m: pushforward_measure(pi, FiberedMeasure((up.weights * 2)[: m.size])),
        lambda m: relative_entropy_sequence(m, points, fibers, SWAP, 1),
    )
    for fn in calls:
        fn(mu)
        for other in (FiberedMeasure(mu.weights[:1]), FiberedMeasure(mu.weights + mu.weights[:1])):
            assert not measures_equal(mu, other)
            with pytest.raises(PreconditionError, match="measure_size"):
                fn(other)
    # the two-point measure against one point was at distance 0, and
    # invariant on a one-point fixed system
    half = Fraction(1, 2)
    two, one = FiberedMeasure(({"x": half}, {"y": half})), FiberedMeasure(({"x": half},))
    fixed = BundleRDS(base=DrivingSystem((Fraction(1),), (0,)), fibers=(frozenset({"x"}),), maps=({"x": "x"},))
    for fn in (lambda: total_variation(two, one), lambda: invariance_defect(two, fixed)):
        with pytest.raises(PreconditionError, match="measure_size"):
            fn()


def test_inexact_weight_is_refused():
    # a float weight ended in AttributeError inside the numerator kernel,
    # and disintegrate divided it into float conditionals
    mu = swap_invariant()
    points, fibers = point_partition(SWAP), fiber_sigma(SWAP)
    pi = identity_factor(SWAP)
    calls = (
        lambda m: total_variation(mu, m),
        lambda m: total_variation(m, mu),
        lambda m: invariance_defect(m, SWAP),
        lambda m: conditional_entropy(m, points, fibers),
        lambda m: pushforward_measure(pi, m),
        lambda m: disintegrate(m, SWAP),
    )
    inexact = FiberedMeasure(({"a": 0.5, "b": Fraction(0)}, dict(mu.weights[1])))
    for fn in calls:
        fn(mu)
        with pytest.raises(PreconditionError, match="exact_weights") as err:
            fn(inexact)
        assert "weight 0.5 of 'a' at omega=0 is not an int or a Fraction" in str(err.value)


# Oracles: the Fraction bodies that the numerator kernel replaced.


def gather_by_loop(size, masses):
    acc = [{} for _ in range(size)]
    for w, x, v in masses:
        acc[w][x] = acc[w].get(x, Fraction(0)) + v
    return FiberedMeasure(tuple(acc))


def total_variation_by_loop(a, b):
    out = Fraction(0)
    for wa, wb in zip(a.weights, b.weights):
        for x in set(wa) | set(wb):
            out += abs(wa.get(x, Fraction(0)) - wb.get(x, Fraction(0)))
    return out


def validate_by_loop(mu, rds):
    out = []
    if mu.size != rds.size:
        return [f"measure spans {mu.size} base points, system has {rds.size}"]
    for w in range(rds.size):
        stray = set(mu.weights[w]) - set(rds.fibers[w])
        if stray:
            out.append(f"mass outside the fiber at omega={w}: {sorted(map(repr, stray))}")
        if any(v < 0 for v in mu.weights[w].values()):
            out.append(f"negative mass at omega={w}")
        fiber_mass = sum(mu.weights[w].values(), Fraction(0))
        if fiber_mass != rds.base.prob[w]:
            out.append(f"marginal violated at omega={w}: {fiber_mass} != {rds.base.prob[w]}")
    return out


def total_by_loop(mu):
    return sum((v for w in mu.weights for v in w.values()), Fraction(0))


def invariance_defect_by_loop(mu, rds):
    return total_variation_by_loop(skew_pushforward_by_loop(mu, rds), mu)


def cesaro_limit_by_loop(nu, rds):
    # the loop divided the stored weight itself, so an int weight gave a
    # float share; the oracle divides its Fraction
    cycles, terminal = _cycle_structure(rds)
    return gather_by_loop(
        rds.size,
        (
            (cw, cx, Fraction(v) / len(cycles[terminal[w, x]]))
            for w in range(rds.size)
            for x, v in nu.weights[w].items()
            if v
            for cw, cx in cycles[terminal[w, x]]
        ),
    )


def all_fractions(mu):
    return all(type(v) is Fraction for w in mu.weights for v in w.values())


def int_measure(rng, rds):
    """Small int weights, some zero and some negative: a signed measure
    that the kernel reads with denominator 1."""
    return FiberedMeasure(tuple({x: rng.randint(-1, 3) for x in sorted(f)} for f in rds.fibers))


def test_numerator_kernel_matches_fraction_loops():
    denominators = _prime_powers()
    seen = set()
    for trial in range(60):
        rng = _rng(109, trial)
        rds = random_system(rng, max_fiber=4)
        kinds = [
            coprime_measure(rng, rds, denominators),
            random_measure(rng, rds, denom=2),
            cesaro_limit(random_measure(rng, rds), rds),
            int_measure(rng, rds),
        ]
        mus = [*kinds, mix([(Fraction(1, 3), kinds[0]), (2, kinds[2])])]
        # the accumulator on raw contributions: repeated keys, zeros, ints
        masses = [
            (w, rng.choice(sorted(rds.fibers[w])), rng.choice([0, 1, 2, Fraction(1, next(denominators)), v]))
            for mu in mus
            for w, ws in enumerate(mu.weights)
            for v in ws.values()
        ]
        rng.shuffle(masses)
        got = _measure(rds.size, *_gather([(w, x, Fraction(v).numerator, Fraction(v).denominator) for w, x, v in masses]))
        want = gather_by_loop(rds.size, masses)
        assert stored(got) == stored(want) and all_fractions(got), trial
        for mu in mus:
            assert mu.validate(rds) == validate_by_loop(mu, rds), trial
            assert mu.total() == total_by_loop(mu) and type(mu.total()) is Fraction, trial
            defect = invariance_defect(mu, rds)
            assert defect == invariance_defect_by_loop(mu, rds) and type(defect) is Fraction, trial
            seen.add(defect == 0)
            pushed = skew_pushforward(mu, rds)
            assert stored(pushed) == stored(skew_pushforward_by_loop(mu, rds)) and all_fractions(pushed), trial
            limit = cesaro_limit(mu, rds)
            assert stored(limit) == stored(cesaro_limit_by_loop(mu, rds)) and all_fractions(limit), trial
            for other in mus:
                tv = total_variation(mu, other)
                assert tv == total_variation_by_loop(mu, other) and type(tv) is Fraction, trial
        seen |= {bool(m) for mu in mus for m in mu.validate(rds)}
    assert seen == {True, False}  # invariant and not; valid and not


def test_kernel_keeps_the_domain_error_of_a_stray_positive_mass():
    for trial in range(20):
        rng = _rng(113, trial)
        rds = random_system(rng, max_fiber=4)
        mu = cesaro_limit(random_measure(rng, rds), rds)
        w = rng.randrange(rds.size)
        zero, positive = with_weights(mu, w, {"stray": Fraction(0)}), with_weights(mu, w, {"stray": Fraction(1, 7)})
        for fn, oracle in (
            (invariance_defect, invariance_defect_by_loop),
            (skew_pushforward, skew_pushforward_by_loop),
        ):
            got, want = _raised(lambda: fn(zero, rds)), _raised(lambda: oracle(zero, rds))
            assert got[0] == want[0] == "values", trial
            with pytest.raises(DomainError) as exc:
                fn(positive, rds)
            assert _raised(lambda: oracle(positive, rds)) == ("DomainError", str(exc.value)), trial
        assert invariance_defect(zero, rds) == 0
        assert zero.validate(rds) == validate_by_loop(zero, rds) != []
        assert positive.validate(rds) == validate_by_loop(positive, rds)
