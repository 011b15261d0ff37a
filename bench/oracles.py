"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``rdstail``.  Every function works on the plain-data
descriptions that ``shapes.py`` generates (lists, dicts, ``Fraction``), so a
fault in the library cannot hide in the reference as well.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction
from itertools import combinations

TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


# --- explicit bundle systems ------------------------------------------------
#
# A system is a dict with ``prob`` (list of Fraction), ``theta`` (list of int),
# ``fibers`` (list of lists of point ids) and ``maps`` (list of dicts from a
# point of fiber w to a point of fiber theta[w]).  A cover is a list of
# elements; an element is a list of per-base-point lists of point ids.


def _itinerary_sections(system: dict, cover: list, w: int, n: int) -> set[frozenset]:
    """Nonempty sections at ``w`` of the depth-n iterate of ``cover``: the
    points whose orbit visits element j_i at step i, for every itinerary
    (j_0 .. j_{n-1}), found by depth-first search over itineraries."""
    orbit = {}
    for x in system["fibers"][w]:
        path, v, y = [], w, x
        for _ in range(n):
            path.append((v, y))
            y = system["maps"][v][y]
            v = system["theta"][v]
        orbit[x] = path
    member = [[frozenset(e[v]) for e in cover] for v in range(len(system["theta"]))]
    out: set[frozenset] = set()

    def dfs(step: int, alive: frozenset) -> None:
        if step == n:
            out.add(alive)
            return
        for j in range(len(cover)):
            keep = frozenset(x for x in alive if orbit[x][step][1] in member[orbit[x][step][0]][j])
            if keep:
                dfs(step + 1, keep)

    dfs(0, frozenset(system["fibers"][w]))
    return out


def brute_min_cover(target: frozenset, sets: set[frozenset]) -> int:
    """Smallest number of ``sets`` whose union contains ``target`` (1 for
    an empty target), by trying every combination of each size in turn."""
    if not target:
        return 1
    clipped = sorted({s & target for s in sets if s & target}, key=sorted)
    for k in range(1, len(clipped) + 1):
        for combo in combinations(clipped, k):
            if frozenset().union(*combo) >= target:
                return k
    raise ValueError("target not coverable")


def brute_count_profile(system: dict, r: list, q: list, n: int) -> tuple[int, ...]:
    """Relative count of the depth-n iterates at every base point."""
    out = []
    for w in range(len(system["theta"])):
        masks = _itinerary_sections(system, r, w, n)
        targets = _itinerary_sections(system, q, w, n)
        out.append(max([1] + [brute_min_cover(t, masks) for t in targets]))
    return tuple(out)


def integrate(prob: list, counts) -> float:
    """Base-mass-weighted natural log of per-base-point counts."""
    return sum(float(p) * math.log(c) for p, c in zip(prob, counts) if p != 0)


def theta_iterate(theta: list, w: int, n: int) -> int:
    for _ in range(n):
        w = theta[w]
    return w


# --- measures ---------------------------------------------------------------
#
# A measure is a list (one per base point) of dicts from point id to Fraction.


def pushforward(system: dict, mu: list) -> list[dict]:
    out: list[dict] = [{} for _ in mu]
    for w, weights in enumerate(mu):
        wn = system["theta"][w]
        for x, v in weights.items():
            y = system["maps"][w][x]
            out[wn][y] = out[wn].get(y, Fraction(0)) + v
    return out


def same_measure(a: list, b: list) -> bool:
    for wa, wb in zip(a, b):
        for x in set(wa) | set(wb):
            if wa.get(x, 0) != wb.get(x, 0):
                return False
    return len(a) == len(b)


def is_invariant(system: dict, mu: list) -> bool:
    return same_measure(pushforward(system, mu), mu)


def has_marginal(system: dict, mu: list) -> bool:
    return all(
        sum(mu[w].values(), Fraction(0)) == p and set(mu[w]) <= set(system["fibers"][w])
        for w, p in enumerate(system["prob"])
    )


def entropy_given_factor(mu: list, factor) -> float:
    """Conditional entropy of the state partition given the atoms
    ``{(w, factor(x))}``, from the joint-mass formula
    ``sum over atoms A and states s in A of mu(s) * log(mu(A) / mu(s))``."""
    total = 0.0
    for weights in mu:
        atoms: dict = {}
        for x, v in weights.items():
            atoms[factor(x)] = atoms.get(factor(x), Fraction(0)) + v
        for x, v in weights.items():
            if v:
                total += float(v) * (math.log(float(atoms[factor(x)])) - math.log(float(v)))
    return total


def skew_cycles(system: dict) -> list[list[tuple[int, object]]]:
    """Cycles of the skew map on bundle states."""
    nxt = {
        (w, x): (system["theta"][w], system["maps"][w][x])
        for w in range(len(system["theta"]))
        for x in system["fibers"][w]
    }
    cycles, seen = [], set()
    for start in nxt:
        path, pos, s = [], {}, start
        while s not in pos and s not in seen:
            pos[s] = len(path)
            path.append(s)
            s = nxt[s]
        if s in pos:
            cycles.append(path[pos[s]:])
        seen.update(path)
    return cycles


def cesaro(system: dict, nu: list) -> list[dict]:
    """Limit of the running averages of the images of ``nu``: the orbit of
    each state ends in a cycle, over which its mass spreads evenly."""
    out: list[dict] = [{} for _ in nu]
    for w, weights in enumerate(nu):
        for x, v in weights.items():
            if not v:
                continue
            seen, path, s = {}, [], (w, x)
            while s not in seen:
                seen[s] = len(path)
                path.append(s)
                s = (system["theta"][s[0]], system["maps"][s[0]][s[1]])
            cycle = path[seen[s]:]
            for cw, cx in cycle:
                out[cw][cx] = out[cw].get(cx, Fraction(0)) + v / len(cycle)
    return out


def vertex_count(system: dict) -> int:
    """Number of vertices of the invariant-measure polytope when the base
    map is a permutation: one skew cycle is chosen over every base cycle."""
    base_cycle = {}
    for w in range(len(system["theta"])):
        if w not in base_cycle:
            v, members = w, []
            while v not in members:
                members.append(v)
                v = system["theta"][v]
            for m in members:
                base_cycle[m] = min(members)
    per_base: dict[int, int] = {}
    for cycle in skew_cycles(system):
        key = base_cycle[cycle[0][0]]
        per_base[key] = per_base.get(key, 0) + 1
    return math.prod(per_base.values())


# --- driven subshifts -------------------------------------------------------
#
# A component is a list of 0/1 matrices, one per base point.


def word_count(matrices: list, theta: list, w: int, n: int) -> int:
    """Admissible length-n words over ``w``: a row vector of ones carried
    through the n-1 transition matrices along the base orbit."""
    v = [1] * len(matrices[0])
    for _ in range(n - 1):
        m = matrices[w]
        v = [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(v))]
        w = theta[w]
    return sum(v)


def extension_count(matrices: list, theta: list, w: int, steps: int) -> int:
    """Largest number of admissible ``steps``-step continuations of one
    symbol, starting over ``w``: a column vector of ones carried back
    through the matrices."""
    mats = []
    for _ in range(steps):
        mats.append(matrices[w])
        w = theta[w]
    u = [1] * len(matrices[0])
    for m in reversed(mats):
        u = [sum(m[i][j] * u[j] for j in range(len(u))) for i in range(len(u))]
    return max(u)


def fibonacci_list(k: int) -> list[int]:
    """F(0) .. F(k-1), with F(1) = F(2) = 1."""
    out = [0, 1]
    while len(out) < k:
        out.append(out[-1] + out[-2])
    return out[:k]


def driven_sequence(sft: dict, n_max: int) -> list[float]:
    """a_1..a_{n_max} for the benchmark's driven subshifts, with r resolving
    components 0 and 1 at cylinder depth 2 and q resolving component 0 at
    depth 1: component 1 contributes its words of length n+1, component 0
    its one-step extensions from coordinate n-1."""
    theta, comps = sft["theta"], sft["components"]
    rows = []
    for w in range(len(theta)):
        v, x, counts = [1] * len(comps[1][0]), w, []
        for _ in range(n_max):
            # x is theta^(n-1) w here
            m = comps[1][x]
            v = [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(v))]
            counts.append(max(sum(row) for row in comps[0][x]) * sum(v))
            x = theta[x]
        rows.append(counts)
    return [
        sum(float(p) * math.log(rows[w][n]) for w, p in enumerate(sft["prob"]) if p != 0)
        for n in range(n_max)
    ]


# --- CLI artifacts ----------------------------------------------------------


def manifest_problems(out_dir: str) -> list[str]:
    """The manifest's sha256 of every output must match the written bytes."""
    with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
        manifest = json.loads(fh.read())
    problems = []
    for name, digest in manifest["outputs"].items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                problems.append(f"{out_dir}/{name}: sha256 differs from the manifest")
    listed = set(manifest["outputs"]) | {"manifest.json"}
    if set(os.listdir(out_dir)) != listed:
        problems.append(f"{out_dir}: files differ from the manifest list")
    return problems


def same_tree(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True
