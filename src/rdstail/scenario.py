"""Scenario files: a single JSON document declaring named driving systems,
metric spaces, bundle systems, covers/partitions, measures, subshifts, and
factor maps, with exact rationals encoded as strings ("1/2").

Loading resolves every reference and validates every object; any violation
is reported with the object's name and the invariant it breaks.  The format
is versioned (``schema_version``) and documented in ``scenarios/SCHEMA.md``.
Point ids in scenario files are strings; composite points only arise from
derived systems constructed in code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .covers import RandomCover, RandomPartition, RandomSet, validate_cover
from .errors import RdstailError
from .measures import FiberedMeasure
from .model import BundleRDS, DrivingSystem, FactorMap, MetricSpace, point_key, sort_points, validate_system
from .symbolic import RandomSFT, SFTComponent

SCHEMA_VERSION = 1


class ScenarioError(RdstailError):
    """Malformed, dangling, or invalid scenario content."""


def _frac(value: Any, where: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{where}: cannot parse exact rational from {value!r}") from exc


@dataclass
class Scenario:
    driving: dict[str, DrivingSystem] = field(default_factory=dict)
    spaces: dict[str, MetricSpace] = field(default_factory=dict)
    systems: dict[str, BundleRDS] = field(default_factory=dict)
    covers: dict[str, RandomCover] = field(default_factory=dict)
    measures: dict[str, FiberedMeasure] = field(default_factory=dict)
    sfts: dict[str, RandomSFT] = field(default_factory=dict)
    factor_maps: dict[str, FactorMap] = field(default_factory=dict)
    # the system each (kind, name) lives on: a factor map lives on its target
    homes: dict[tuple[str, str], str] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def digest(self) -> str:
        return canonical_digest(self.raw)


def _name(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a name, got {value!r}")
    return value


def _ids(values: Any) -> tuple[str, ...]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise TypeError(f"expected a list of string point ids, got {values!r}")
    return tuple(values)


def _id_map(m: Any) -> dict[str, str]:
    return dict(zip(m, _ids(list(m.values()))))


def _read(spec: Any, key: str, where: str, convert: Callable[[Any], Any] = _name) -> Any:
    """One field of a scenario object through ``convert``: a missing or
    mistyped field fails the load naming the object and the field."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: must be an object")
    if key not in spec:
        raise ScenarioError(f"{where}: missing field {key!r}")
    try:
        return convert(spec[key])
    except (AttributeError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: field {key!r}: {exc}") from None


def _section(doc: dict, key: str, source: str) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ScenarioError(f"{source}: section {key!r} must be an object")
    return section


def _lookup(table: dict, name: str, kind: str, owner: str) -> Any:
    if name not in table:
        raise ScenarioError(f"{owner}: unknown {kind} {name!r}")
    return table[name]


def _checked(where: str, build: Callable[[], Any], violations: Callable[[Any], list[str]] = lambda _: []) -> Any:
    """The object ``build`` makes, once ``violations`` reports none for it:
    a constructor's ``ValueError`` or a non-empty report fails the load
    naming the object."""
    try:
        obj = build()
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    bad = violations(obj)
    if bad:
        raise ScenarioError(f"{where}: " + "; ".join(bad))
    return obj


def loads_scenario(text: str, source: str = "<string>") -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{source}: top level must be an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"{source}: unsupported schema_version {version!r}")
    sc = Scenario(raw=doc)

    for name, spec in _section(doc, "driving_systems", source).items():
        where = f"driving system {name!r}"
        prob = _read(spec, "prob", where, lambda vs: tuple(_frac(v, where) for v in vs))
        theta = _read(spec, "theta", where, lambda vs: tuple(int(v) for v in vs))
        sc.driving[name] = _checked(where, lambda: DrivingSystem(prob=prob, theta=theta))

    for name, spec in _section(doc, "metric_spaces", source).items():
        where = f"metric space {name!r}"
        points = _read(spec, "points", where, _ids)
        matrix = _read(spec, "dist", where, lambda rows: [[_frac(v, where) for v in row] for row in rows])
        if len(matrix) != len(points) or any(len(row) != len(points) for row in matrix):
            raise ScenarioError(f"{where}: dist must be a {len(points)}x{len(points)} matrix in points order")
        sc.spaces[name] = _checked(where, lambda: MetricSpace.from_matrix(points, matrix), MetricSpace.validate)

    for name, spec in _section(doc, "systems", source).items():
        where = f"system {name!r}"
        base = _lookup(sc.driving, _read(spec, "base", where), "driving system", where)
        space = _lookup(sc.spaces, _read(spec, "space", where), "metric space", where) if "space" in spec else None
        fibers = _read(spec, "fibers", where, lambda fs: tuple(frozenset(_ids(f)) for f in fs))
        maps = _read(spec, "maps", where, lambda ms: tuple(_id_map(m) for m in ms))
        sc.systems[name] = _checked(
            where, lambda: BundleRDS(base=base, fibers=fibers, maps=maps, space=space), validate_system
        )

    for name, spec in _section(doc, "covers", source).items():
        where = f"cover {name!r}"
        system_name = _read(spec, "system", where)
        rds = _lookup(sc.systems, system_name, "system", where)
        elements = _read(
            spec, "elements", where,
            lambda es: tuple(RandomSet(tuple(frozenset(_ids(sec)) for sec in elem)) for elem in es),
        )
        cls = RandomPartition if spec.get("partition") else RandomCover
        sc.covers[name] = _checked(where, lambda: cls(elements), lambda cover: validate_cover(cover, rds))
        sc.homes["cover", name] = system_name

    for name, spec in _section(doc, "measures", source).items():
        where = f"measure {name!r}"
        system_name = _read(spec, "system", where)
        rds = _lookup(sc.systems, system_name, "system", where)
        weights = _read(
            spec, "weights", where, lambda ws: tuple({x: _frac(v, where) for x, v in w.items()} for w in ws)
        )
        sc.measures[name] = _checked(where, lambda: FiberedMeasure(weights), lambda mu: mu.validate(rds))
        sc.homes["measure", name] = system_name

    for name, spec in _section(doc, "sfts", source).items():
        where = f"sft {name!r}"
        base = _lookup(sc.driving, _read(spec, "base", where), "driving system", where)
        components = _read(spec, "components", where, list)

        def build() -> RandomSFT:
            comps = tuple(
                SFTComponent(
                    alphabet=_read(c, "alphabet", f"{where} component {i}", int),
                    matrices=_read(
                        c, "matrices", f"{where} component {i}",
                        lambda ms: tuple(tuple(tuple(int(v) for v in row) for row in m) for m in ms),
                    ),
                )
                for i, c in enumerate(components)
            )
            return RandomSFT(base=base, components=comps)

        sc.sfts[name] = _checked(where, build, RandomSFT.validate)

    for name, spec in _section(doc, "factor_maps", source).items():
        where = f"factor map {name!r}"
        source = _lookup(sc.systems, _read(spec, "source", where), "system", where)
        target_name = _read(spec, "target", where)
        target = _lookup(sc.systems, target_name, "system", where)
        maps = _read(spec, "maps", where, lambda ms: tuple(_id_map(m) for m in ms))
        sc.factor_maps[name] = _checked(
            where, lambda: FactorMap(source=source, target=target, maps=maps), FactorMap.validate
        )
        sc.homes["factor map", name] = target_name

    return sc


def load_scenario(path: str) -> Scenario:
    """Read and load a scenario file; a path that cannot be read as UTF-8
    text fails the load like malformed content."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return loads_scenario(text, source=str(path))


# ---------------------------------------------------------------------------
# serialization (round-trips through the same format; also used for digests)


def _point(p) -> str:
    return p if isinstance(p, str) else point_key(p)


def system_payload(rds: BundleRDS) -> dict:
    out: dict[str, Any] = {
        "base": {"prob": [str(p) for p in rds.base.prob], "theta": list(rds.base.theta)},
        "fibers": [[_point(x) for x in sort_points(f)] for f in rds.fibers],
        "maps": [
            {_point(x): _point(m[x]) for x in sort_points(f)}
            for f, m in zip(rds.fibers, rds.maps)
        ],
    }
    if rds.space is not None:
        pts = sort_points(rds.space.points)
        out["space"] = {
            "points": [_point(p) for p in pts],
            "dist": [[str(rds.space.d(p, q)) for q in pts] for p in pts],
        }
    return out


def cover_payload(cover: RandomCover) -> dict:
    return {
        "partition": isinstance(cover, RandomPartition),
        "elements": [
            [[_point(x) for x in sort_points(sec)] for sec in e.sections] for e in cover.elements
        ],
    }


def measure_payload(mu: FiberedMeasure) -> dict:
    return {
        "weights": [
            {_point(x): str(w[x]) for x in sort_points(w)} for w in mu.weights
        ]
    }


def canonical_digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
