"""Malformed calls to the library's exports: whichever argument of a
well-formed call is swapped for a malformed one (a cover or measure over a
three-point base, a float weight, a depth of 0 or -1, an empty family or
filtration, no trials or fewer, a cylinder component the subshift lacks),
the call raises an
``RdstailError`` or a ``ValueError`` with one of the messages below, never
a bare ``IndexError`` or a wrong answer.

``hull_certificate`` is left out: for a measure over another base it
returns its documented ``None``."""

import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdstail as rd

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# the ValueErrors that name a malformed argument of the call itself
VALUE_ERRORS = {
    "a filtration needs at least one stage",
    "an estimate needs at least one depth",
    "depth must be >= 1",
    "families must be nonempty",
    "m must be >= 1",
    "pullback steps must be nonnegative",
    "skew steps must be nonnegative",
    "trials must be >= 1",
    "word length must be >= 1",
}

SWAP = rd.swap_system()
POINTS, WHOLE = rd.point_partition(SWAP), rd.trivial_cover(SWAP)
FIBERS = rd.fiber_sigma(SWAP)
MU = rd.cesaro_limit(rd.FiberedMeasure.uniform(SWAP), SWAP)  # invariant
THREE = rd.BundleRDS(
    rd.DrivingSystem((Fraction(1, 3),) * 3, (1, 2, 0)), (frozenset({"a"}),) * 3, ({"a": "a"},) * 3
)
GOLDEN = rd.load_scenario(os.path.join(SCENARIOS, "shifts.json")).sfts["golden"]  # one component
EMPTY_SPEC = rd.CylinderCoverSpec(frozenset())
OVER_THREE = rd.FiberedMeasure.uniform(THREE)
FLOAT_WEIGHT = rd.FiberedMeasure(({"a": 0.25, "b": 0.25}, {"c": 0.25, "d": 0.25}))

# the well-formed value of every argument a call in the table reads
GOOD = {
    "cover": POINTS,
    "measure": MU,
    "depth": 2,
    "steps": 2,
    "family": [POINTS, WHOLE],
    "stages": (rd.SigmaAlgebra(WHOLE), FIBERS),
    "trials": 1,
    "spec": rd.CylinderCoverSpec(frozenset({0})),
    "component": 0,
}

# each malformation swaps the arguments it names
MALFORMED = {
    "cover over three base points": {"cover": rd.point_partition(THREE)},
    "measure over three base points": {"measure": OVER_THREE},
    "float weight": {"measure": FLOAT_WEIGHT},
    "depth 0": {"depth": 0},
    "depth -1": {"depth": -1, "steps": -1},
    "empty family or filtration": {"family": [], "stages": ()},
    "no trials": {"trials": 0},
    "negative trials": {"trials": -3},
    "missing component": {"spec": rd.CylinderCoverSpec(frozenset({1})), "component": 1},
}


# export -> a call of it on the arguments
CALLS = {
    "relative_word_count": lambda a: rd.relative_word_count(GOLDEN, a["spec"], EMPTY_SPEC, a["depth"], 0),
    "sft_tail_sequence": lambda a: rd.sft_tail_sequence(GOLDEN, a["spec"], EMPTY_SPEC, a["depth"]),
    "admissible_word_count": lambda a: rd.admissible_word_count(GOLDEN, a["component"], 0, a["depth"]),
    "relative_count": lambda a: rd.relative_count(a["cover"], WHOLE, 0, SWAP),
    "minimal_subcover": lambda a: rd.minimal_subcover(WHOLE.elements[0], a["cover"], 0, SWAP),
    "lebesgue_number": lambda a: rd.lebesgue_number(SWAP, a["cover"], 0),
    "skew_iterate": lambda a: rd.skew_iterate(SWAP, (0, "a"), a["steps"]),
    "count_profile": lambda a: rd.count_profile(SWAP, a["cover"], WHOLE, a["depth"]),
    "tail_entropy_estimate": lambda a: rd.tail_entropy_estimate(SWAP, a["cover"], WHOLE, a["depth"]),
    "tail_entropy_total": lambda a: rd.tail_entropy_total(SWAP, [a["cover"], WHOLE], a["family"], a["depth"]),
    "iterate_cover": lambda a: rd.iterate_cover(a["cover"], SWAP, a["depth"]),
    "join": lambda a: rd.join(a["cover"], WHOLE),
    "refines": lambda a: rd.refines(a["cover"], WHOLE),
    "pullback": lambda a: rd.pullback(a["cover"], SWAP, a["steps"]),
    "pullback_cover": lambda a: rd.pullback_cover(rd.identity_factor(SWAP), a["cover"]),
    "power_system": lambda a: rd.power_system(SWAP, a["depth"]),
    "conditional_entropy": lambda a: rd.conditional_entropy(a["measure"], a["cover"], FIBERS),
    "relative_entropy_sequence": lambda a: rd.relative_entropy_sequence(
        a["measure"], a["cover"], FIBERS, SWAP, a["depth"]
    ),
    "total_variation": lambda a: rd.total_variation(a["measure"], MU),
    "invariance_defect": lambda a: rd.invariance_defect(a["measure"], SWAP),
    "cesaro_limit": lambda a: rd.cesaro_limit(a["measure"], SWAP),
    "separated_empirical": lambda a: rd.separated_empirical(SWAP, a["cover"], WHOLE, a["depth"], Fraction(1, 2)),
    "filtration_limit_check": lambda a: rd.filtration_limit_check(a["measure"], POINTS, a["stages"], FIBERS),
    "run_cover_suite": lambda a: rd.run_cover_suite(1, a["trials"]),
    "run_entropy_suite": lambda a: rd.run_entropy_suite(1, a["trials"]),
    "run_invariant_suite": lambda a: rd.run_invariant_suite(1, a["trials"]),
}


class _Reads(dict):
    """The arguments of a call, recording which of them it reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _reads(call):
    args = _Reads(GOOD)
    call(args)
    return args.read


def test_well_formed_calls_succeed():
    for name, call in CALLS.items():
        assert _reads(call), name


# (export, malformation) for every malformation that swaps an argument the
# export's call reads
CASES = [
    (name, how)
    for name, call in CALLS.items()
    for how, swapped in MALFORMED.items()
    if _reads(call) & set(swapped)
]


@given(st.sampled_from(CASES))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_malformed_calls_raise_a_library_error(case):
    name, how = case
    args = {**GOOD, **MALFORMED[how]}
    with pytest.raises((rd.RdstailError, ValueError)) as err:
        CALLS[name](args)
    if not isinstance(err.value, rd.RdstailError):
        assert str(err.value) in VALUE_ERRORS, (name, how, err.value)


# Two systems on the metric path that ``validate_system`` reports: on the
# first, every point escapes its image fiber within two steps, so every
# section of the depth-2 iterate is empty; on the second, a fiber point
# lies outside the metric space.  The calls raise a ``DomainError`` naming
# what went wrong, not a bare ``AssertionError`` or ``KeyError``.
BASE = rd.DrivingSystem((Fraction(1, 2),) * 2, (1, 0))
METRIC = rd.MetricSpace.discrete("abcz")
ESCAPING = rd.BundleRDS(BASE, (frozenset("a"), frozenset("bc")), ({"a": "z"}, {"b": "a", "c": "a"}), METRIC)
OUTSIDE = rd.BundleRDS(
    BASE, (frozenset({"a", "out"}), frozenset("bc")), ({"a": "b", "out": "c"}, {"b": "a", "c": "a"}), METRIC
)
HALF = Fraction(1, 2)
METRIC_PATH = {
    "empty iterate": (
        ESCAPING,
        lambda: rd.separated_empirical(ESCAPING, rd.point_partition(ESCAPING), rd.point_partition(ESCAPING), 2, HALF),
        "every section of the depth-2 iterate of q is empty at omega=0",
    ),
    "point outside the metric": (
        OUTSIDE,
        lambda: rd.separated_empirical(OUTSIDE, rd.point_partition(OUTSIDE), rd.trivial_cover(OUTSIDE), 1, HALF),
        "no distance from 'out' to 'a': a point lies outside the metric space",
    ),
    "ball around a point outside the metric": (
        OUTSIDE,
        lambda: rd.bowen_ball(OUTSIDE, 0, "out", 1, HALF),
        "a point lies outside the metric space",
    ),
}


@pytest.mark.parametrize("case", sorted(METRIC_PATH))
def test_systems_off_the_metric_path_raise_a_domain_error(case):
    system, call, message = METRIC_PATH[case]
    assert rd.validate_system(system)
    with pytest.raises(rd.DomainError, match=re.escape(message)):
        call()


# ``THREE`` has no metric and another base than ``SWAP``: a ball on it and
# a product of the two raise an error naming what is missing.
UNMATCHED = {
    "ball without a metric": (
        lambda: rd.bowen_ball(THREE, 0, "a", 1, HALF),
        rd.DomainError,
        "operation requires a metric but the system has none",
    ),
    "product over two bases": (
        lambda: rd.product_system(SWAP, THREE),
        rd.IncompatibleSystemsError,
        "product requires a shared driving system",
    ),
}


@pytest.mark.parametrize("case", sorted(UNMATCHED))
def test_calls_on_systems_lacking_what_they_need_raise(case):
    call, error, message = UNMATCHED[case]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


# A product space has a distance for each pair of its pair points and for
# nothing else, as when it was a table: a pair with one factor point
# outside, a two-character string, which would unpack into a pair of
# points, and keys of another shape raise a ``DomainError`` from ``d`` and
# are not in ``dist``.
PAIRS = rd.pair_system(SWAP).system.space
OFF_PAIRS = {
    "first factor point outside": ("z", "a"),
    "second factor point outside": ("a", "z"),
    "two-character string": "ab",
    "one factor point": "a",
    "three coordinates": ("a", "b", "c"),
    "list of two points": ["a", "b"],
}


@pytest.mark.parametrize("case", sorted(OFF_PAIRS))
def test_product_metric_has_no_distance_off_its_pair_points(case):
    point, inside = OFF_PAIRS[case], ("a", "b")
    assert inside in PAIRS.points and PAIRS.d(inside, ("c", "b")) == 1
    for p, q in ((point, inside), (inside, point)):
        with pytest.raises(rd.DomainError, match=re.escape(f"no distance from {p!r} to {q!r}")):
            PAIRS.d(p, q)
        assert (p, q) not in PAIRS.dist and PAIRS.dist.get((p, q)) is None


# An unhashable point is in no fiber and no metric space, and a radius must
# be exact like a weight: an ``int``, a ``Fraction`` or one of them per base
# point.  A float, a float per base point (which ``Fraction`` would read as
# its binary expansion) and a string raise a ``PreconditionError``, not a
# bare ``TypeError`` or an inexact ball.
UNHASHABLE = {
    "distance from a list": (
        lambda: rd.MetricSpace.discrete("ab").d(["a"], "b"),
        rd.DomainError,
        "no distance from ['a'] to 'b'",
    ),
    "ball around a list": (
        lambda: rd.bowen_ball(SWAP, 0, ["a"], 1, HALF),
        rd.PreconditionError,
        "precondition 'center_in_fiber' failed: ['a'] not in fiber 0",
    ),
}


@pytest.mark.parametrize("case", sorted(UNHASHABLE))
def test_unhashable_points_raise_a_library_error(case):
    call, error, message = UNHASHABLE[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


RADIUS_CALLS = {
    "bowen_ball": lambda delta: rd.bowen_ball(SWAP, 0, "a", 1, delta),
    "separated_empirical": lambda delta: rd.separated_empirical(SWAP, POINTS, WHOLE, 1, delta),
    "diagonal_measure": lambda delta: rd.diagonal_measure(SWAP, WHOLE, POINTS, 1, delta),
}
INEXACT_RADII = [0.5, [0.1, 0.1], "1/2", [HALF, 0.5], None]


# a radius of 0 left a ball without its own center, and a negative one
# passed the Lebesgue-number gate
NONPOSITIVE_RADII = [(0, "radius 0 at omega=0"), (-1, "radius -1 at omega=0"), ([HALF, 0], "radius 0 at omega=1")]


@pytest.mark.parametrize("name", sorted(RADIUS_CALLS))
def test_nonpositive_radii_raise_a_precondition_error(name):
    for delta, radius in NONPOSITIVE_RADII:
        with pytest.raises(rd.PreconditionError, match=re.escape(f"'positive_radii' failed: {radius} is not positive")):
            RADIUS_CALLS[name](delta)


@pytest.mark.parametrize("name", sorted(RADIUS_CALLS))
def test_inexact_radii_raise_a_precondition_error(name):
    for delta in (HALF, 1, [HALF, 1], (1, HALF)):
        RADIUS_CALLS[name](delta)
    for delta in INEXACT_RADII:
        with pytest.raises(rd.PreconditionError, match=re.escape(f"'exact_radii' failed: radius {delta!r} ")):
            RADIUS_CALLS[name](delta)
