"""Seeded generators of the benchmark's inputs, as plain data.

Nothing here imports ``rdstail``: the same plain data feeds the library
(through ``workloads.py``), the scenario files the CLI reads, and the
independent references in ``oracles.py``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def random_maps(rng: random.Random, theta: list, fibers: list) -> list[dict]:
    return [{x: rng.choice(fibers[theta[w]]) for x in fibers[w]} for w in range(len(theta))]


def explicit_system(rng: random.Random, nbase: int, npts: int, prefix: str = "x") -> dict:
    """Random permutation base with uniform mass, ``npts`` points per fiber,
    and random fiber maps (which collapse, as random maps do)."""
    theta = list(range(nbase))
    rng.shuffle(theta)
    fibers = [[f"{prefix}{w}_{i}" for i in range(npts)] for w in range(nbase)]
    return {
        "prob": [Fraction(1, nbase)] * nbase,
        "theta": theta,
        "fibers": fibers,
        "maps": random_maps(rng, theta, fibers),
    }


def bijective_system(rng: random.Random, theta: list, npts: int, prefix: str = "v") -> dict:
    """Uniform mass on a permutation base, ``npts`` points per fiber, and
    fiber maps that are bijections, so every state lies on a cycle."""
    fibers = [[f"{prefix}{w}_{i}" for i in range(npts)] for w in range(len(theta))]
    maps = [dict(zip(fibers[w], rng.sample(fibers[theta[w]], npts))) for w in range(len(theta))]
    return {"prob": [Fraction(1, len(theta))] * len(theta), "theta": list(theta), "fibers": fibers, "maps": maps}


def overlapping_cover(rng: random.Random, system: dict, k: int, overlap: float = 0.3) -> list:
    """k elements; every point lies in one element and in each other element
    with probability ``overlap``."""
    elems = [[[] for _ in system["theta"]] for _ in range(k)]
    for w, fiber in enumerate(system["fibers"]):
        for x in fiber:
            home = rng.randrange(k)
            for j in range(k):
                if j == home or rng.random() < overlap:
                    elems[j][w].append(x)
    return elems


def relabel(rng: random.Random, system: dict, covers: list, perm: list | None = None) -> tuple[dict, list]:
    """An isomorphic copy: base point w becomes ``perm[w]`` (a random
    permutation unless given), point ids are renamed, and fibers and cover
    elements are listed in a new order.  Cover sizes and counts are
    unchanged; the order in which the library meets points and elements is
    not."""
    nbase = len(system["theta"])
    perm = perm or rng.sample(range(nbase), nbase)
    points = [x for fiber in system["fibers"] for x in fiber]
    names = rng.sample(range(16 ** 6), len(points))
    new = {x: f"p{v:06x}" for x, v in zip(points, names)}
    fibers, maps, theta = [None] * nbase, [None] * nbase, [None] * nbase
    for w in range(nbase):
        fiber = [new[x] for x in system["fibers"][w]]
        rng.shuffle(fiber)
        fibers[perm[w]] = fiber
        maps[perm[w]] = {new[x]: new[y] for x, y in system["maps"][w].items()}
        theta[perm[w]] = perm[system["theta"][w]]
    out_covers = []
    for cover in covers:
        elems = [[None] * nbase for _ in cover]
        for j, elem in enumerate(cover):
            for w in range(nbase):
                elems[j][perm[w]] = [new[x] for x in elem[w]]
        rng.shuffle(elems)
        out_covers.append(elems)
    prob = [None] * nbase
    for w in range(nbase):
        prob[perm[w]] = system["prob"][w]
    return {"prob": prob, "theta": theta, "fibers": fibers, "maps": maps}, out_covers


def random_weights(rng: random.Random, system: dict, top: int = 16) -> list[dict]:
    """A measure with the base marginal: random integer weights per fiber,
    scaled to the base mass."""
    out = []
    for w, fiber in enumerate(system["fibers"]):
        raw = [rng.randint(0, top) for _ in fiber]
        if not any(raw):
            raw[0] = 1
        total = sum(raw)
        out.append({x: system["prob"][w] * Fraction(v, total) for x, v in zip(fiber, raw) if v})
    return out


def product_plain(left: dict, right: dict) -> dict:
    """Coordinatewise product over a shared base, points ``(y, x)``."""
    fibers = [[(y, x) for y in left["fibers"][w] for x in right["fibers"][w]] for w in range(len(left["theta"]))]
    maps = [
        {(y, x): (left["maps"][w][y], right["maps"][w][x]) for (y, x) in fibers[w]}
        for w in range(len(left["theta"]))
    ]
    return {"prob": left["prob"], "theta": left["theta"], "fibers": fibers, "maps": maps}


def driven_sft(rng: random.Random, nbase: int, alphabets: tuple[int, ...], density: float = 0.6) -> dict:
    """Permutation base with uniform mass; per component one random 0/1
    matrix per base point with a 1 in every row and column."""
    theta = list(range(nbase))
    rng.shuffle(theta)
    components = []
    for a in alphabets:
        mats = []
        for _ in range(nbase):
            while True:
                m = [[1 if rng.random() < density else 0 for _ in range(a)] for _ in range(a)]
                if all(any(row) for row in m) and all(any(row[j] for row in m) for j in range(a)):
                    break
            mats.append(m)
        components.append(mats)
    return {"prob": [Fraction(1, nbase)] * nbase, "theta": theta, "components": components}


def relabel_sft(rng: random.Random, sft: dict) -> dict:
    """An isomorphic copy of a driven subshift: base points and, per
    component, symbols permuted."""
    nbase = len(sft["theta"])
    perm = rng.sample(range(nbase), nbase)
    theta, prob = [None] * nbase, [None] * nbase
    for w in range(nbase):
        theta[perm[w]] = perm[sft["theta"][w]]
        prob[perm[w]] = sft["prob"][w]
    components = []
    for mats in sft["components"]:
        a = len(mats[0])
        sigma = rng.sample(range(a), a)
        new = [None] * nbase
        for w, m in enumerate(mats):
            out = [[0] * a for _ in range(a)]
            for i in range(a):
                for j in range(a):
                    out[sigma[i]][sigma[j]] = m[i][j]
            new[perm[w]] = out
        components.append(new)
    return {"prob": prob, "theta": theta, "components": components}


GOLDEN = {"prob": [Fraction(1)], "theta": [0], "components": [[[[1, 1], [1, 0]]]]}
PAIRSHIFT = {"prob": [Fraction(1)], "theta": [0], "components": [[[[1, 1], [1, 1]]], [[[1, 1], [1, 1]]]]}


# --- scenario files (see scenarios/SCHEMA.md) -------------------------------


def point_id(x) -> str:
    return x if isinstance(x, str) else "|".join(map(str, x))


def scenario_text(systems=None, covers=None, measures=None, sfts=None) -> str:
    """A scenario document.  ``systems`` maps a name to a plain system;
    ``covers`` a name to ``(system name, elements, partition)``;
    ``measures`` a name to ``(system name, weights)``; ``sfts`` a name to a
    plain driven subshift.  Tuple point ids are written joined by ``|``."""
    doc: dict = {"schema_version": 1, "driving_systems": {}}

    def base(obj) -> str:
        name = f"base{len(doc['driving_systems'])}"
        doc["driving_systems"][name] = {"prob": [str(p) for p in obj["prob"]], "theta": list(obj["theta"])}
        return name

    if systems:
        doc["systems"] = {
            name: {
                "base": base(s),
                "fibers": [[point_id(x) for x in f] for f in s["fibers"]],
                "maps": [{point_id(x): point_id(y) for x, y in m.items()} for m in s["maps"]],
            }
            for name, s in systems.items()
        }
    if covers:
        doc["covers"] = {
            name: {
                "system": sysname,
                "partition": partition,
                "elements": [[[point_id(x) for x in sec] for sec in e] for e in elems],
            }
            for name, (sysname, elems, partition) in covers.items()
        }
    if measures:
        doc["measures"] = {
            name: {"system": sysname, "weights": [{point_id(x): str(v) for x, v in w.items()} for w in weights]}
            for name, (sysname, weights) in measures.items()
        }
    if sfts:
        doc["sfts"] = {
            name: {
                "base": base(s),
                "components": [{"alphabet": len(mats[0]), "matrices": mats} for mats in s["components"]],
            }
            for name, s in sfts.items()
        }
    return json.dumps(doc, sort_keys=True, indent=1)
