"""Driven bundle systems: base dynamics, fibers, derived systems, factor maps.

Everything here is finite and exact.  A :class:`DrivingSystem` is a finite
probability space with a measure-preserving self-map of the base points; a
:class:`BundleRDS` attaches a nonempty fiber of points to every base point and
a fiber map carrying each fiber into the fiber over the image base point.  The
skew map acts on pairs ``(omega, x)`` by moving the base point and applying
the fiber map.

Probabilities and distances are ``fractions.Fraction`` values so that base
invariance and measure identities are exact equality tests, never tolerance
checks.  All values are immutable after construction and every operation is a
pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Hashable, Iterable, Mapping

from .errors import DomainError, IncompatibleSystemsError

Point = Hashable
State = tuple[int, Point]


def point_key(p: Point) -> str:
    """Deterministic total order on opaque point ids (used for anchors,
    greedy scans, and serialization; tuples and strings mix freely)."""
    return repr(p)


def sort_points(ps: Iterable[Point]) -> list[Point]:
    return sorted(ps, key=point_key)


def terminal_cycles(
    nodes: Iterable[Hashable], step: Callable[[Hashable], Hashable]
) -> tuple[list[list], dict]:
    """Terminal cycles of a map on a finite set, in order of discovery from
    ``nodes``, and for every node reached, in order of discovery, the index
    of the cycle its forward path falls into.  It finds the cycles of both
    the base map and the skew map."""
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


@dataclass(frozen=True)
class DrivingSystem:
    """Finite base probability space with an exactly measure-preserving map.

    ``prob[i]`` is the mass of base point ``i``; ``theta[i]`` its image.
    Structural requirements (exact nonnegative masses summing to one, total
    map) are enforced at construction.  Invariance of the mass under the map
    is a semantic invariant reported by :func:`validate_system`.
    """

    prob: tuple[Fraction, ...]
    theta: tuple[int, ...]

    def __post_init__(self):
        if len(self.prob) != len(self.theta) or not self.prob:
            raise ValueError("prob and theta must be nonempty and equally long")
        if not all(isinstance(p, (int, Fraction)) for p in self.prob):
            raise ValueError("base masses must be int or Fraction")
        if any(p < 0 for p in self.prob):
            raise ValueError("negative base mass")
        if sum(self.prob) != 1:
            raise ValueError("base masses must sum to 1 exactly")
        if any(not 0 <= j < len(self.prob) for j in self.theta):
            raise ValueError("theta image out of range")

    @property
    def size(self) -> int:
        return len(self.prob)

    def check_point(self, omega: int) -> int:
        """``omega`` itself when it is a base point; one out of range,
        negative ones too, raises :class:`DomainError`."""
        if not 0 <= omega < self.size:
            raise DomainError(f"omega={omega} is outside the base of {self.size} points")
        return omega

    def theta_iterate(self, omega: int, n: int) -> int:
        self.check_point(omega)
        for _ in range(n):
            omega = self.theta[omega]
        return omega

    def is_invariant(self) -> bool:
        return all(
            sum((self.prob[i] for i in range(self.size) if self.theta[i] == j), Fraction(0))
            == self.prob[j]
            for j in range(self.size)
        )


@dataclass(frozen=True)
class MetricSpace:
    """Finite metric space on opaque point ids; distances exact rationals."""

    points: tuple[Point, ...]
    dist: Mapping[tuple[Point, Point], Fraction] = field(hash=False)

    @classmethod
    def from_matrix(cls, points: Iterable[Point], matrix: Iterable[Iterable[Fraction]]) -> "MetricSpace":
        pts = tuple(points)
        d: dict[tuple[Point, Point], Fraction] = {}
        for i, row in enumerate(matrix):
            for j, v in enumerate(row):
                d[(pts[i], pts[j])] = Fraction(v)
        return cls(pts, d)

    @classmethod
    def discrete(cls, points: Iterable[Point]) -> "MetricSpace":
        pts = tuple(points)
        d = {(p, q): Fraction(0 if p == q else 1) for p in pts for q in pts}
        return cls(pts, d)

    def d(self, p: Point, q: Point) -> Fraction:
        try:
            return self.dist[(p, q)]
        except (KeyError, TypeError):  # an unhashable point has no distance either
            raise DomainError(f"no distance from {p!r} to {q!r}: a point lies outside the metric space") from None

    def validate(self) -> list[str]:
        """Metric axioms by exhaustive enumeration (pairs and triples).  The
        triangles need every pair, so an undefined distance skips them."""
        out = []
        for p in self.points:
            for q in self.points:
                if (p, q) not in self.dist:
                    out.append(f"distance undefined for ({p!r},{q!r})")
                    continue
                v = self.dist[(p, q)]
                if v < 0:
                    out.append(f"negative distance d({p!r},{q!r})={v}")
                if (v == 0) != (p == q):
                    out.append(f"d({p!r},{q!r})={v} violates identity of indiscernibles")
                if self.dist.get((q, p)) != v:
                    out.append(f"asymmetric distance at ({p!r},{q!r})")
        # the triangles compare integer numerators over one common denominator
        rows = [[self.dist.get((p, q)) for q in self.points] for p in self.points]
        if any(None in row for row in rows):
            return out
        scale = lcm(*(v.denominator for row in rows for v in row))
        rows = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
        for p, from_p in zip(self.points, rows):
            for q, d_pq, from_q in zip(self.points, from_p, rows):
                for r, d_pr, d_qr in zip(self.points, from_p, from_q):
                    if d_pr > d_pq + d_qr:
                        out.append(f"triangle inequality fails at ({p!r},{q!r},{r!r})")
        return out


@dataclass(frozen=True, eq=False)
class BundleRDS:
    """Fibers over a driving system plus fiber maps into the image fibers.

    ``fibers[omega]`` is the (nonempty) set of points over base point
    ``omega``; ``maps[omega]`` sends each of those points into
    ``fibers[theta[omega]]``.  ``space`` is optional and only required by
    metric operations (balls, Lebesgue numbers, separated sets).
    """

    base: DrivingSystem
    fibers: tuple[frozenset, ...]
    maps: tuple[Mapping[Point, Point], ...]
    space: MetricSpace | None = None

    def __post_init__(self):
        if len(self.fibers) != self.base.size or len(self.maps) != self.base.size:
            raise ValueError("fibers/maps length must equal base size")

    @property
    def size(self) -> int:
        return self.base.size

    def apply(self, omega: int, x: Point) -> Point:
        if not 0 <= omega < len(self.maps):
            self.base.check_point(omega)
        try:
            return self.maps[omega][x]
        except KeyError:
            raise DomainError(f"point {x!r} not in the domain of the fiber map at omega={omega}")

    def states(self) -> list[State]:
        """All pairs (omega, x), deterministically ordered."""
        return [(w, x) for w in range(self.size) for x in sort_points(self.fibers[w])]

    def requires_metric(self) -> MetricSpace:
        if self.space is None:
            raise DomainError("operation requires a metric but the system has none")
        return self.space


def validate_system(rds: BundleRDS) -> list[str]:
    """Collect every invariant violation; an empty report means valid.

    Diagnostic only: nothing raises.  Checks base-mass invariance, fiber
    nonemptiness, totality of the fiber maps, closure of images in the
    target fibers, and that the fibers lie in the metric space if there is
    one.  The metric axioms are :meth:`MetricSpace.validate`'s, checked once
    per space when a scenario loads.
    """
    out = []
    base = rds.base
    for j in range(base.size):
        incoming = sum((base.prob[i] for i in range(base.size) if base.theta[i] == j), Fraction(0))
        if incoming != base.prob[j]:
            out.append(
                f"base mass not preserved at {j}: incoming {incoming} != {base.prob[j]}"
            )
    for w in range(rds.size):
        if not rds.fibers[w]:
            out.append(f"empty fiber at omega={w}")
        if set(rds.maps[w].keys()) != set(rds.fibers[w]):
            out.append(f"fiber map at omega={w} is not total on its fiber")
        target = rds.fibers[base.theta[w]]
        for x, y in rds.maps[w].items():
            if y not in target:
                out.append(
                    f"image escape at omega={w}: {x!r} -> {y!r} lies outside the target fiber"
                )
        if rds.space is not None:
            missing = rds.fibers[w] - set(rds.space.points)
            if missing:
                out.append(f"fiber at omega={w} has points outside the metric space: {sorted(map(repr, missing))}")
    return out


def skew_iterate(rds: BundleRDS, state: State, n: int) -> State:
    """n-fold skew map: move the base point n steps, compose fiber maps."""
    if n < 0:
        raise ValueError("skew steps must be nonnegative")
    omega, x = state
    if not 0 <= omega < rds.size or x not in rds.fibers[omega]:
        raise DomainError(f"state {state!r} is not in the bundle")
    for _ in range(n):
        x = rds.apply(omega, x)
        omega = rds.base.theta[omega]
    return (omega, x)


def power_system(rds: BundleRDS, m: int) -> BundleRDS:
    """Materialize the m-step system: base map iterated m times, fiber maps
    composed along the base orbit.  Same fibers, same masses."""
    if m < 1:
        raise ValueError("m must be >= 1")
    base = DrivingSystem(rds.base.prob, tuple(rds.base.theta_iterate(w, m) for w in range(rds.size)))
    maps = tuple(
        {x: skew_iterate(rds, (w, x), m)[1] for x in rds.fibers[w]} for w in range(rds.size)
    )
    return BundleRDS(base=base, fibers=rds.fibers, maps=maps, space=rds.space)


@dataclass(frozen=True, eq=False)
class FactorMap:
    """Fiberwise surjection intertwining two bundle systems.

    ``maps[omega]`` sends the source fiber onto the target fiber;
    equivariance (mapping first and then applying the target dynamics equals
    applying the source dynamics and then mapping) is checked by
    :meth:`validate`.
    """

    source: BundleRDS
    target: BundleRDS
    maps: tuple[Mapping[Point, Point], ...]

    def __post_init__(self):
        if len(self.maps) != self.source.size:
            raise ValueError(f"{len(self.maps)} fiber maps for {self.source.size} base points")

    def apply(self, omega: int, y: Point) -> Point:
        if not 0 <= omega < len(self.maps):
            self.source.base.check_point(omega)
        try:
            return self.maps[omega][y]
        except KeyError:
            raise DomainError(f"point {y!r} not in the factor map domain at omega={omega}")

    def preimage(self, omega: int, x: Point) -> frozenset:
        return frozenset(y for y, v in self.maps[self.source.base.check_point(omega)].items() if v == x)

    def validate(self) -> list[str]:
        out = []
        if self.source.base != self.target.base:
            out.append("source and target have different driving systems")
            return out
        for w in range(self.source.size):
            dom = set(self.maps[w].keys())
            if dom != set(self.source.fibers[w]):
                out.append(f"factor map at omega={w} is not total on the source fiber")
            image = {self.maps[w][y] for y in dom & set(self.source.fibers[w])}
            if image != set(self.target.fibers[w]):
                out.append(f"factor map at omega={w} is not onto the target fiber")
        for w in range(self.source.size):
            wn = self.source.base.theta[w]
            for y in self.source.fibers[w]:
                if y not in self.maps[w]:
                    continue
                image = self.maps[w][y]
                if image not in self.target.fibers[w]:
                    continue  # already reported as not-onto/escape above
                via_source = self.maps[wn].get(self.source.apply(w, y))
                via_target = self.target.apply(w, image)
                if via_source != via_target:
                    out.append(
                        f"equivariance fails at omega={w}, point {y!r}: "
                        f"{via_source!r} != {via_target!r}"
                    )
        return out


def identity_factor(rds: BundleRDS) -> FactorMap:
    return FactorMap(rds, rds, tuple({x: x for x in rds.fibers[w]} for w in range(rds.size)))


class _MaxDistances(Mapping):
    """Max-metric distances on the pair ``points`` of two spaces, each read
    from the factors on demand; the items, order and length are the table's."""

    def __init__(self, points: tuple, left: MetricSpace, right: MetricSpace):
        self.pairs, self.left, self.right = dict.fromkeys(points), left, right

    def __getitem__(self, key):
        try:  # any key but a pair of product points, a 2-character string too, is missing
            p, q = key
            if p in self.pairs and q in self.pairs:
                return max(self.left.dist[p[0], q[0]], self.right.dist[p[1], q[1]])
        except (TypeError, ValueError):
            pass
        raise KeyError(key)

    def __iter__(self):
        return ((p, q) for p in self.pairs for q in self.pairs)

    def __len__(self):
        return len(self.pairs) ** 2


@dataclass(frozen=True, eq=False)
class ProductSystem:
    """Two bundle systems over one base, run side by side on pair fibers;
    the factors are the targets of the two coordinate projections."""

    system: BundleRDS
    to_left: FactorMap
    to_right: FactorMap


def product_system(s: BundleRDS, t: BundleRDS) -> ProductSystem:
    """Joint system with fibers ``left_fiber x right_fiber`` and coordinatewise
    dynamics, together with the two coordinate projections."""
    if s.base != t.base:
        raise IncompatibleSystemsError("product requires a shared driving system")
    fibers = tuple(
        frozenset((y, x) for y in s.fibers[w] for x in t.fibers[w]) for w in range(s.size)
    )
    maps = tuple(
        {(y, x): (s.apply(w, y), t.apply(w, x)) for (y, x) in fibers[w]} for w in range(s.size)
    )
    space = None
    if s.space is not None and t.space is not None:  # the max metric on pairs
        pts = tuple((a, b) for a in s.space.points for b in t.space.points)
        space = MetricSpace(pts, _MaxDistances(pts, s.space, t.space))
    system = BundleRDS(base=s.base, fibers=fibers, maps=maps, space=space)
    to_left = FactorMap(system, s, tuple({(y, x): y for (y, x) in fibers[w]} for w in range(s.size)))
    to_right = FactorMap(system, t, tuple({(y, x): x for (y, x) in fibers[w]} for w in range(s.size)))
    return ProductSystem(system=system, to_left=to_left, to_right=to_right)


def pair_system(t: BundleRDS) -> ProductSystem:
    """Squared system: the product of the system with itself, fibers the
    ordered pairs from one fiber.  The diagonal is forward-invariant."""
    return product_system(t, t)
