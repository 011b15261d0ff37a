"""Small hand-checkable systems used by the tests, demos, and packaged
scenario files.

``swap_system``: two base points exchanged by the base map, fibers {a,b} and
{c,d}; the first fiber map collapses both points onto c, the second sends c
back to a and d to b.  Its skew map has the single cycle (0,a) -> (1,c) ->
(0,a), with b and d transient, which makes invariant-measure questions exact
one-liners.

``cycle_system``: a single base point whose fiber is one four-cycle; the
canonical positive-recurrence example with a unique invariant measure.

``extend_with_tags``: an extension is a product, the input system times a
tag system over the same base, built by :func:`rdstail.model.product_system`
like every other derived pair system; its projection is the product's left
coordinate map.
"""

from __future__ import annotations

from fractions import Fraction

from .model import BundleRDS, DrivingSystem, FactorMap, MetricSpace, product_system


def swap_system() -> BundleRDS:
    base = DrivingSystem(prob=(Fraction(1, 2), Fraction(1, 2)), theta=(1, 0))
    fibers = (frozenset({"a", "b"}), frozenset({"c", "d"}))
    maps = ({"a": "c", "b": "c"}, {"c": "a", "d": "b"})
    return BundleRDS(base=base, fibers=fibers, maps=maps, space=MetricSpace.discrete(("a", "b", "c", "d")))


def cycle_system(length: int = 4) -> BundleRDS:
    base = DrivingSystem(prob=(Fraction(1),), theta=(0,))
    pts = tuple(f"p{i}" for i in range(length))
    fibers = (frozenset(pts),)
    maps = ({pts[i]: pts[(i + 1) % length] for i in range(length)},)
    return BundleRDS(base=base, fibers=fibers, maps=maps, space=MetricSpace.discrete(pts))


def one_point_system(base: DrivingSystem) -> BundleRDS:
    """Single-point fibers over a given base: the unit for products."""
    fibers = tuple(frozenset({"*"}) for _ in range(base.size))
    maps = tuple({"*": "*"} for _ in range(base.size))
    return BundleRDS(base=base, fibers=fibers, maps=maps, space=MetricSpace.discrete(("*",)))


def extend_with_tags(rds: BundleRDS, tags: int, rotate: bool) -> FactorMap:
    """Extension with fibers ``fiber x {t0..t_{tags-1}}``: the product with a
    tag system whose tag is either frozen or cyclically rotated each step,
    under the discrete tag metric.  Returns the projection factor map from
    the extension onto the input system."""
    names = tuple(f"t{i}" for i in range(tags))
    step = {t: names[(i + 1) % tags] if rotate else t for i, t in enumerate(names)}
    tag_system = BundleRDS(
        base=rds.base,
        fibers=tuple(frozenset(names) for _ in range(rds.size)),
        maps=tuple(step for _ in range(rds.size)),
        space=MetricSpace.discrete(names),
    )
    return product_system(rds, tag_system).to_left
