"""Differential tests of the state-image stepper against the packed-mask
engine it replaced.

``pullback`` reads the i-step skew image of every state and the elements
holding it, and ``counting._fixed_steps`` steps the maximal fiber sections
of ``r`` and ``q`` over one array of state images.  Their oracles are the
packed-mask pullbacks of ``mask_oracles`` (the i-step item of
``_mask_pullbacks``, read back by ``_decode``) and the zipped ``_section_steps``
of ``r`` and ``q``, stopped at the first depth that repeats the last one's.
Over random systems, systems with an escaping point or with a fiber point
that has no image, covers whose sections leave their fibers, covers over
another base and covers whose whole pullback is empty, both must give equal
covers (class and element order), equal sections at every depth, equal
profiles at depths 0..8 under budgets 1..8, or the same error with the same
message and depth.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdstail import (
    BudgetExceededError,
    Budgets,
    DomainError,
    IncompatibleSystemsError,
    RandomCover,
    RandomSet,
    count_profile,
    count_profiles,
    point_partition,
    pullback,
    state_partition,
)
from rdstail import counting
from rdstail.budgets import DEFAULTS
from rdstail.covers import _check_span
from rdstail.errors import RdstailError
from rdstail.verify import _rng, coarsen, random_cover, random_partition, random_system

from mask_oracles import _decode, _mask_pullbacks, _section_steps, with_escape, with_stray, without_image

seeds = st.integers(min_value=0, max_value=10**6)


def pullback_by_masks(q, rds, i):
    """Oracle: the i-step item of ``_mask_pullbacks``, decoded."""
    if i < 0:
        raise ValueError("pullback steps must be nonnegative")
    _check_span(rds, q)
    if i == 0:
        return q
    return _decode(q, rds, next(islice(_mask_pullbacks(q, rds, i + 1), i, None)))


def fixed_steps_by_masks(r, q, rds, n, budgets):
    """Oracle: the zipped ``_section_steps`` of ``r`` and ``q`` until a depth
    repeats the last one's."""
    last = None
    for sections in zip(_section_steps(r, rds, n, budgets), _section_steps(q, rds, n, budgets)):
        if sections == last:
            return
        yield (last := sections)


def _outcome(run):
    """Every item of ``run()`` until it ends, and the type, message and depth
    of the error it raised, if any."""
    got = []
    try:
        for item in run():
            got.append(item)
    except (RdstailError, ValueError) as exc:
        return got, (type(exc), str(exc), getattr(exc, "depth", None))
    return got, None


def _once(query):
    yield query()


def _kind(outcome, done):
    """``done`` for an outcome without error, else the error's type, a domain
    error split by whether a fiber map or a cover raised it."""
    if outcome[1] is None:
        return done
    kind, message, _ = outcome[1]
    return (kind, "fiber map" in message) if kind is DomainError else kind


def _cover(cover):
    return type(cover), [e.sections for e in cover.elements]


def _only_escape(rds):
    """A one-element cover holding only the escaping point 'out' of
    ``with_escape``: no state maps into it, so its one-step pullback is empty
    on every fiber."""
    return RandomCover((RandomSet(tuple(f & {"out"} for f in rds.fibers)),))


def _case(rng):
    """A random system, plain, with an escaping point or with a fiber point
    that has no image, and two covers drawn from random covers, partitions
    and coarsenings, the state and point partitions, a cover with a section
    leaving its fiber, a cover over another base and covers whose pullback
    is empty on every fiber from step 0 or step 1."""
    rds = random_system(rng, max_fiber=rng.choice([3, 5, 7]), pool=9)
    kind = rng.choice(["plain", "escape", "no image"])
    if kind == "escape":
        rds = with_escape(rng, rds)
    part = random_partition(rng, rds)
    covers = [
        part,
        random_cover(rng, rds),
        coarsen(rng, random_cover(rng, rds)),
        state_partition(rds),
        point_partition(rds),
        with_stray(rng, part),
        RandomCover(tuple(RandomSet(e.sections + (frozenset(),)) for e in part.elements)),
        RandomCover((RandomSet((frozenset(),) * rds.size),)),
    ]
    if kind == "escape":
        covers.append(_only_escape(rds))
    weights = [6, 6, 4, 2, 2, 1, 1, 1, 2][: len(covers)]
    r, q = rng.choices(covers, weights, k=2)
    if kind == "no image":
        rds = without_image(rng, rds)
    return rds, r, q


def _check(rds, r, q):
    """Assert the stepper and the pullback match their oracles on one case;
    return the kinds of outcome seen."""
    kinds = set()
    for c in (r, q):
        for i in range(7):
            want = _outcome(lambda: map(_cover, _once(lambda: pullback_by_masks(c, rds, i))))
            assert _outcome(lambda: map(_cover, _once(lambda: pullback(c, rds, i)))) == want, i
            kinds.add(_kind(want, "cover"))
    for budgets in [DEFAULTS, *(Budgets(cover_elements=k) for k in range(1, 9))]:
        want = _outcome(lambda: map(tuple, fixed_steps_by_masks(r, q, rds, 8, budgets)))
        assert _outcome(lambda: map(tuple, counting._fixed_steps(r, q, rds, 8, budgets))) == want
        kinds.add(_kind(want, "sections"))
        kinds |= {"empty sections" for sides in want[0] for sections in sides if [] in sections}
        runs = [
            (n, lambda n=n: _once(lambda: count_profile(rds, r, q, n, budgets).per_omega)) for n in range(9)
        ] + [(8, lambda: ((p.per_omega, p.depth) for p in count_profiles(rds, r, q, 8, budgets)))]
        for n, run in runs:
            got = _outcome(run)
            with pytest.MonkeyPatch.context() as patched:
                patched.setattr(counting, "_fixed_steps", fixed_steps_by_masks)
                assert got == _outcome(run), n
    return kinds


@given(seeds)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_image_steps_match_packed_masks(seed):
    _check(*_case(_rng(27, seed)))


def test_image_steps_reach_every_outcome():
    kinds = set()
    for trial in range(60):
        kinds |= _check(*_case(_rng(271, trial)))
    assert kinds >= {
        "cover",
        "sections",
        "empty sections",
        ValueError,
        BudgetExceededError,
        (DomainError, False),
        (DomainError, True),
        IncompatibleSystemsError,
    }, kinds


def test_whole_pullback_empty():
    # the escaping point alone pulls back to nothing from step 1 on: the
    # pullback has no element, and its sections are empty on every fiber
    # from depth 2, which counts 1 against any r
    rng = _rng(272, 0)
    rds = with_escape(rng, random_system(rng, max_fiber=5))
    q, r = _only_escape(rds), point_partition(rds)
    want = ([], (ValueError, "a cover needs at least one element", None))
    for run in (pullback, pullback_by_masks):
        assert _outcome(lambda: _once(lambda: run(q, rds, 1))) == want
    got = list(counting._fixed_steps(r, q, rds, 8, DEFAULTS))
    assert [list(s) for s in got] == [list(s) for s in fixed_steps_by_masks(r, q, rds, 8, DEFAULTS)]
    assert got[1][1] == [[]] * rds.size
    assert count_profile(rds, r, q, 8).per_omega == (1,) * rds.size
