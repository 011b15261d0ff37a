"""The four workloads: inputs made from the seed, the timed operations,
and the checks of their outputs.

A workload is three functions.  ``setup(rd, seed, run_dir)`` builds the
inputs (``rd`` is the imported ``rdstail`` package); scenario files go to
``run_dir``, which every pass of a run shares, so that the CLI sees the
same arguments in each pass.  ``ops(rd, inp, out)`` lists the timed
operations in the order they run; CLI artifacts go under ``out``, which is
the pass's own.  ``check(rd, inp, results, out)`` returns the problems
found in the outputs, as strings.

Every operation looks its library function up on the ``rdstail`` modules
when it runs, so a traced pass reaches the wrappers.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles
import shapes

SWEEP, POINT, CLI, DEEP = "sweep", "point", "cli", "deep"


@dataclass
class Op:
    name: str
    fn: Callable[[dict], object]  # receives the results of earlier operations
    kinds: frozenset = frozenset()
    # an exception type that marks the operation failed (the known fault)
    known_fault: type | None = None
    # a result that ran to the end but is incomplete counts as failed
    incomplete: Callable[[object], bool] = field(default=lambda result: False)
    argv: list | None = None


def _short_sweep(est) -> bool:
    return est.n_max < est.requested


def _nonzero_exit(code) -> bool:
    return code != 0


def cli_op(rd, name: str, argv: list, out: str, kinds=()) -> Op:
    full = argv + ["--out", out]
    return Op(
        name,
        lambda res: rd.cli.main(full),
        frozenset({CLI, *kinds}),
        incomplete=_nonzero_exit,
        argv=full,
    )


def check_cli(op: Op, out: str, previous: str | None) -> list[str]:
    """Manifest digests match the bytes, and the same command run by the
    previous pass (another process) wrote identical files."""
    path = op.argv[op.argv.index("--out") + 1]
    problems = oracles.manifest_problems(path)
    if previous is not None:
        earlier = os.path.join(previous, os.path.relpath(path, out))
        if not oracles.same_tree(path, earlier):
            problems.append(f"{op.name}: artifacts differ from the previous pass")
    return problems


def build_system(rd, s: dict):
    base = rd.DrivingSystem(prob=tuple(s["prob"]), theta=tuple(s["theta"]))
    return rd.BundleRDS(base=base, fibers=tuple(frozenset(f) for f in s["fibers"]), maps=tuple(s["maps"]))


def build_cover(rd, elems: list, partition: bool = False):
    cls = rd.RandomPartition if partition else rd.RandomCover
    return cls(tuple(rd.RandomSet(tuple(frozenset(sec) for sec in e)) for e in elems))


def build_sft(rd, s: dict):
    base = rd.DrivingSystem(prob=tuple(s["prob"]), theta=tuple(s["theta"]))
    comps = tuple(
        rd.SFTComponent(alphabet=len(mats[0]), matrices=tuple(tuple(map(tuple, m)) for m in mats))
        for mats in s["components"]
    )
    return rd.RandomSFT(base=base, components=comps)


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# --- tail-explicit ------------------------------------------------------------
#
# Two 6 x 40 systems with a 3-element and a 2-element overlapping cover.
# Their structure comes from the fixed shape seeds below; the run seed draws
# an isomorphic relabelling.  Letting the seed draw the structure as well
# moved the depth-12 sweep time of one system between 0.4 s and 1.9 s, so
# the seed-to-seed spread would hide any change smaller than that.  Shape 1
# reaches 1271 cover elements by depth 12 and shape 5 reaches 719, both
# well inside the default budget of 4096.

TAIL_SHAPES = (1, 5)
TAIL_DEPTH = 12
TAIL_CLI_DEPTH = 8


def tail_setup(rd, seed: int, run_dir: str) -> dict:
    rng = random.Random(f"tail-explicit:{seed}")
    cases = []
    for shape in TAIL_SHAPES:
        srng = random.Random(f"tail-explicit-shape:{shape}")
        system = shapes.explicit_system(srng, 6, 40)
        covers = [shapes.overlapping_cover(srng, system, 3), shapes.overlapping_cover(srng, system, 2)]
        system, (r, q) = shapes.relabel(rng, system, covers)
        cases.append({
            "plain": system, "plain_r": r, "plain_q": q,
            "rds": build_system(rd, system), "r": build_cover(rd, r), "q": build_cover(rd, q),
        })
    # the scaled-down instance for the brute-force reference: structure
    # drawn from the seed, small enough to enumerate
    small_rng = random.Random(f"tail-explicit-small:{seed}")
    small = shapes.explicit_system(small_rng, 3, 7)
    small_covers = (shapes.overlapping_cover(small_rng, small, 3), shapes.overlapping_cover(small_rng, small, 2))
    first = cases[0]
    text = shapes.scenario_text(
        systems={"sys": first["plain"]},
        covers={"r": ("sys", first["plain_r"], False), "q": ("sys", first["plain_q"], False)},
    )
    return {"cases": cases, "small": (small, *small_covers), "scenario": write(os.path.join(run_dir, "tail.json"), text)}


def tail_ops(rd, inp: dict, out: str) -> list[Op]:
    ops = []
    for k, c in enumerate(inp["cases"]):
        ops.append(Op(
            f"sweep{k}",
            lambda res, c=c: rd.tail_entropy_estimate(c["rds"], c["r"], c["q"], TAIL_DEPTH),
            frozenset({SWEEP}),
            incomplete=_short_sweep,
        ))
    for k, c in enumerate(inp["cases"]):
        for n in (TAIL_DEPTH, TAIL_DEPTH // 2):
            ops.append(Op(
                f"point{k}_{n}",
                lambda res, c=c, n=n: rd.count_profile(c["rds"], c["r"], c["q"], n),
                frozenset({POINT}),
            ))
    sc = inp["scenario"]
    covers = ["--scenario", sc, "--r", "r", "--q", "q"]
    ops.append(cli_op(rd, "cli-tail", ["tail", *covers, "--nmax", str(TAIL_CLI_DEPTH)], os.path.join(out, "tail"), {SWEEP}))
    ops.append(cli_op(rd, "cli-count", ["count", *covers, "--n", str(TAIL_DEPTH // 2)], os.path.join(out, "count"), {SWEEP}))
    return ops


def tail_check(rd, inp: dict, res: dict, out: str) -> list[str]:
    problems = []
    small, small_r, small_q = inp["small"]
    rds = build_system(rd, small)
    r, q = build_cover(rd, small_r), build_cover(rd, small_q)
    for n in range(1, 5):
        got = tuple(rd.count_profile(rds, r, q, n).per_omega)
        want = oracles.brute_count_profile(small, small_r, small_q, n)
        if got != want:
            problems.append(f"small instance n={n}: count {got} != brute force {want}")
    half = TAIL_DEPTH // 2
    for k, c in enumerate(inp["cases"]):
        s, est = c["plain"], res[f"sweep{k}"]
        deep, mid = res[f"point{k}_{TAIL_DEPTH}"].per_omega, res[f"point{k}_{half}"].per_omega
        for w in range(len(s["theta"])):
            for prof in (deep, mid):
                if not 1 <= prof[w] <= len(s["fibers"][w]):
                    problems.append(f"case {k}: count {prof[w]} outside [1, |fiber|] at omega={w}")
            if deep[w] > mid[w] * mid[oracles.theta_iterate(s["theta"], w, half)]:
                problems.append(f"case {k}: orbit subadditivity fails at omega={w}")
        for n, prof in ((TAIL_DEPTH, deep), (half, mid)):
            if not oracles.close(est.values[n - 1], oracles.integrate(s["prob"], prof)):
                problems.append(f"case {k}: sweep a_{n} disagrees with the point-query profile")
        v = est.values
        if not est.subadditive_ok or any(
            v[i + j + 1] > v[i] + v[j] + oracles.TOL for i in range(len(v)) for j in range(len(v) - i - 1)
        ):
            problems.append(f"case {k}: sweep is not subadditive")
    with open(os.path.join(out, "tail", "tail.json")) as fh:
        values = json.load(fh)["values"]
    if len(values) != TAIL_CLI_DEPTH or not all(map(oracles.close, values, res["sweep0"].values)):
        problems.append("CLI tail values differ from the library sweep")
    return problems


# --- sft-deep -----------------------------------------------------------------
#
# Golden mean and the paired full shift, plus three driven subshifts.  Each
# driven one has a base of its own size, so no two compare equal: the
# library caches orbit products on equal subshifts, and the point queries,
# the sweeps and the CLI replay must each start cold.  The driven matrices
# come from a fixed shape seed; the run seed permutes base points and
# symbols, which leaves every count unchanged.

SFT_SWEEPS = (("golden", 2000), ("pairshift", 1500), ("driven", 1500))
SFT_POINT_DEPTH = 360  # cold queries at this depth stay below the recursion limit
SFT_DEEP_DEPTH = 5000  # cold queries here raise RecursionError today
SFT_CLI_DEPTH = 600


def _specs(rd, name: str):
    """(r, q) cylinder specs per subshift.  On the driven ones r resolves
    both components at depth 2 and q component 0 at depth 1, so both count
    paths run: extensions of a conditioning word, and plain word counts."""
    spec = rd.CylinderCoverSpec
    if name == "golden":
        return spec(frozenset({0})), spec(frozenset())
    if name == "pairshift":
        return spec(frozenset({0, 1})), spec(frozenset({0}))
    return spec(frozenset({0, 1}), depth=2), spec(frozenset({0}))


def sft_setup(rd, seed: int, run_dir: str) -> dict:
    rng = random.Random(f"sft-deep:{seed}")
    shape = random.Random("sft-deep-shape")
    plain = {
        "golden": shapes.GOLDEN,
        "pairshift": shapes.PAIRSHIFT,
        **{name: shapes.relabel_sft(rng, shapes.driven_sft(shape, nbase, alphabets))
           for name, nbase, alphabets in (("driven", 5, (3, 3)), ("points", 4, (5, 5)), ("cli", 3, (3, 3)))},
    }
    text = shapes.scenario_text(sfts={"driven": plain["cli"]})
    return {
        "plain": plain,
        "sft": {name: build_sft(rd, s) for name, s in plain.items()},
        "scenario": write(os.path.join(run_dir, "sft.json"), text),
    }


def sft_ops(rd, inp: dict, out: str) -> list[Op]:
    sft = inp["sft"]
    ops = []
    deep = {
        "golden": lambda res: rd.admissible_word_count(sft["golden"], 0, 0, SFT_DEEP_DEPTH),
        "pairshift": lambda res: rd.admissible_word_count(sft["pairshift"], 1, 0, SFT_DEEP_DEPTH),
        "golden-rel": lambda res: rd.relative_word_count(sft["golden"], *_specs(rd, "golden"), SFT_DEEP_DEPTH, 0),
        "pairshift-rel": lambda res: rd.relative_word_count(
            sft["pairshift"], *_specs(rd, "pairshift"), SFT_DEEP_DEPTH, 0
        ),
    }
    for name, fn in deep.items():
        ops.append(Op(f"deep-{name}", fn, frozenset({DEEP}), known_fault=RecursionError))
    pts = sft["points"]
    for w in range(pts.base.size):
        ops.append(Op(
            f"point-rel{w}",
            lambda res, w=w: rd.relative_word_count(pts, *_specs(rd, "driven"), SFT_POINT_DEPTH, w),
            frozenset({POINT}),
        ))
        ops.append(Op(
            f"point-words{w}",
            lambda res, w=w: rd.admissible_word_count(pts, 0, w, SFT_POINT_DEPTH),
            frozenset({POINT}),
        ))
    for name, depth in SFT_SWEEPS:
        ops.append(Op(
            f"sweep-{name}",
            lambda res, name=name, depth=depth: rd.sft_tail_sequence(sft[name], *_specs(rd, name), depth),
            frozenset({SWEEP}),
            incomplete=_short_sweep,
        ))
    ops.append(cli_op(rd, "cli-sft-tail", ["sft-tail", "--scenario", inp["scenario"], "--sft", "driven",
                                           "--rspec", "0,1:2", "--qspec", "0:1", "--nmax", str(SFT_CLI_DEPTH)],
                      os.path.join(out, "sft"), {SWEEP}))
    return ops


def sft_check(rd, inp: dict, res: dict, out: str) -> list[str]:
    problems = []
    plain = inp["plain"]
    # the deep queries are checked once they succeed: F(n+2) and 2^n words
    fib_deep, pow_deep = oracles.fibonacci_list(SFT_DEEP_DEPTH + 3)[-1], 2 ** SFT_DEEP_DEPTH
    deep_want = {"golden": fib_deep, "golden-rel": fib_deep, "pairshift": pow_deep, "pairshift-rel": pow_deep}
    for name, want in deep_want.items():
        got = res.get(f"deep-{name}")
        if got is not None and got != want:
            problems.append(f"deep query {name}: wrong count")
    pts = plain["points"]
    n = SFT_POINT_DEPTH
    for w in range(len(pts["theta"])):
        last = oracles.theta_iterate(pts["theta"], w, n - 1)
        want_rel = oracles.extension_count(pts["components"][0], pts["theta"], last, 1) * oracles.word_count(
            pts["components"][1], pts["theta"], w, n + 1
        )
        if res[f"point-rel{w}"] != want_rel:
            problems.append(f"relative_word_count at omega={w} differs from the vector count")
        if res[f"point-words{w}"] != oracles.word_count(pts["components"][0], pts["theta"], w, n):
            problems.append(f"admissible_word_count at omega={w} differs from the vector count")
    golden = res["sweep-golden"].values
    fib = oracles.fibonacci_list(len(golden) + 3)
    if any(not oracles.close(a, math.log(fib[n + 2])) for n, a in enumerate(golden, 1)):
        problems.append("golden-mean sweep differs from log Fibonacci")
    if any(rd.admissible_word_count(inp["sft"]["golden"], 0, 0, n) != fib[n + 2] for n in range(1, 40)):
        problems.append("golden-mean word counts differ from the Fibonacci numbers")
    if any(not oracles.close(r, math.log(2)) for r in res["sweep-pairshift"].ratios):
        problems.append("pairshift ratios differ from log 2")
    driven = res["sweep-driven"].values
    if not all(map(oracles.close, driven, oracles.driven_sequence(plain["driven"], len(driven)))):
        problems.append("driven sweep differs from the vector word counts")
    for name, _ in SFT_SWEEPS:
        if not res[f"sweep-{name}"].subadditive_ok:
            problems.append(f"{name} sweep is not subadditive")
    with open(os.path.join(out, "sft", "sft_tail.json")) as fh:
        values = json.load(fh)["values"]
    if len(values) != SFT_CLI_DEPTH or not all(map(oracles.close, values, oracles.driven_sequence(plain["cli"], SFT_CLI_DEPTH))):
        problems.append("CLI sft-tail values differ from the vector word counts")
    return problems


# --- entropy-family -----------------------------------------------------------
#
# A product of two systems with 6-point fibers over one 4-point base (144
# states), conditioned on the algebra pulled back from the left factor's
# states.  Vertex enumeration runs on a separate 24-point system (the
# polytope_points budget) whose fiber maps are bijections over a base of
# fixed points: 12 skew cycles and 72 vertices.  The maps come from a fixed
# shape seed and the run seed relabels them (see tail-explicit for why); the
# measures' weights come from the run seed.

ENT_BASE, ENT_FIBER = 4, 6
ENT_MEASURES = 3
ENT_DEPTH = 5


def _left(point):
    return point[0]


def entropy_setup(rd, seed: int, run_dir: str) -> dict:
    shape = random.Random("entropy-family-shape")
    left = shapes.explicit_system(shape, ENT_BASE, ENT_FIBER, "y")
    right_fibers = [[f"z{w}_{i}" for i in range(ENT_FIBER)] for w in range(ENT_BASE)]
    right = dict(left, fibers=right_fibers, maps=shapes.random_maps(shape, left["theta"], right_fibers))
    poly = shapes.bijective_system(shape, list(range(ENT_BASE)), ENT_FIBER)
    rng = random.Random(f"entropy-family:{seed}")
    perm = rng.sample(range(ENT_BASE), ENT_BASE)
    left, right = (shapes.relabel(rng, s, [], perm)[0] for s in (left, right))
    poly = shapes.relabel(rng, poly, [])[0]
    prod_plain = shapes.product_plain(left, right)
    raw = [shapes.random_weights(rng, prod_plain) for _ in range(ENT_MEASURES)]
    left_rds = build_system(rd, left)
    prod = rd.product_system(left_rds, build_system(rd, right))
    sigma = rd.SigmaAlgebra(rd.pullback_cover(prod.to_left, rd.state_partition(left_rds)))
    atoms = [
        [[(y, x) for x in right["fibers"][w]] if v == w else [] for v in range(ENT_BASE)]
        for w in range(ENT_BASE)
        for y in left["fibers"][w]
    ]
    text = shapes.scenario_text(
        systems={"prod": prod_plain, "poly": poly},
        covers={"leftatoms": ("prod", atoms, True)},
        measures={"m0": ("prod", oracles.cesaro(prod_plain, raw[0])), "raw0": ("prod", raw[0])},
    )
    return {
        "poly": poly,
        "poly_rds": build_system(rd, poly),
        "prod_plain": prod_plain,
        "raw": raw,
        "prod": prod.system,
        "sigma": sigma,
        "nus": [rd.FiberedMeasure.from_fiber_weights(w) for w in raw],
        "scenario": write(os.path.join(run_dir, "entropy.json"), text),
    }


def entropy_ops(rd, inp: dict, out: str) -> list[Op]:
    prod, sigma = inp["prod"], inp["sigma"]
    ops = [
        Op(f"cesaro{k}", lambda res, k=k: rd.cesaro_limit(inp["nus"][k], prod))
        for k in range(ENT_MEASURES)
    ]
    for k in range(ENT_MEASURES):
        ops.append(Op(
            f"sequence{k}",
            lambda res, k=k: rd.transformation_relative_entropy_sequence(res[f"cesaro{k}"], sigma, prod, ENT_DEPTH),
            frozenset({SWEEP}),
            incomplete=_short_sweep,
        ))
    ops.append(Op(
        "defect",
        lambda res: rd.defect(
            res["cesaro0"], sigma, prod, [res[f"cesaro{k}"] for k in range(1, ENT_MEASURES)], Fraction(2), ENT_DEPTH
        ),
        frozenset({SWEEP}),
    ))
    for k in range(ENT_MEASURES):
        for n in (1, ENT_DEPTH):
            ops.append(Op(
                f"point{k}_{n}",
                lambda res, k=k, n=n: rd.conditional_entropy(
                    res[f"cesaro{k}"], rd.iterate_cover(rd.state_partition(prod), prod, n), sigma
                ),
                frozenset({POINT}),
            ))
    ops.append(Op("vertices", lambda res: rd.vertex_enumeration(inp["poly_rds"])))
    sc = inp["scenario"]
    ops.append(cli_op(rd, "cli-entropy", ["entropy", "--scenario", sc, "--mu", "m0", "--r", "@states",
                                          "--sigma", "leftatoms", "--nmax", str(ENT_DEPTH)],
                      os.path.join(out, "entropy"), {SWEEP}))
    ops.append(cli_op(rd, "cli-cesaro", ["invariant", "--scenario", sc, "--cesaro", "raw0"], os.path.join(out, "cesaro")))
    ops.append(cli_op(rd, "cli-vertices", ["invariant", "--scenario", sc, "--vertices", "--system", "poly"],
                      os.path.join(out, "vertices")))
    return ops


def entropy_check(rd, inp: dict, res: dict, out: str) -> list[str]:
    problems = []
    prod = inp["prod_plain"]
    for k in range(ENT_MEASURES):
        mu = [dict(w) for w in res[f"cesaro{k}"].weights]
        if not (oracles.is_invariant(prod, mu) and oracles.has_marginal(prod, mu)):
            problems.append(f"measure {k} is not invariant with the base marginal")
        if not oracles.same_measure(mu, oracles.cesaro(prod, inp["raw"][k])):
            problems.append(f"measure {k} differs from the cycle-average reference")
        h1 = oracles.entropy_given_factor(mu, _left)
        seq = res[f"sequence{k}"]
        if not (oracles.close(seq.values[0], h1) and oracles.close(res[f"point{k}_1"], h1)):
            problems.append(f"measure {k}: depth-1 conditional entropy differs from the joint-mass formula")
        if not oracles.close(seq.values[-1], res[f"point{k}_{ENT_DEPTH}"]):
            problems.append(f"measure {k}: sequence and point query disagree at depth {ENT_DEPTH}")
        if not seq.subadditive_ok:
            problems.append(f"measure {k}: sequence is not subadditive")
    base, others = res["sequence0"], [res[f"sequence{k}"] for k in range(1, ENT_MEASURES)]
    d = res["defect"]
    want = [max(s.ratios[i] for s in others) - base.ratios[i] for i in range(ENT_DEPTH)]
    if d.neighborhood_empty or not all(map(oracles.close, d.truncated, want)):
        problems.append("defect terms differ from the sequences of the family")
    if not oracles.close(d.value, max(0.0, max(s.value for s in others) - base.value)):
        problems.append("defect value differs from the sequence brackets")
    poly = inp["poly"]
    vertices = res["vertices"].vertices
    if len(vertices) != oracles.vertex_count(poly):
        problems.append(f"{len(vertices)} vertices, reference {oracles.vertex_count(poly)}")
    for v in vertices:
        mu = [dict(w) for w in v.weights]
        if not (oracles.is_invariant(poly, mu) and oracles.has_marginal(poly, mu)):
            problems.append("a vertex is not invariant with the base marginal")
    with open(os.path.join(out, "entropy", "entropy.json")) as fh:
        values = json.load(fh)["values"]
    if len(values) != ENT_DEPTH or not all(map(oracles.close, values, base.values)):
        problems.append("CLI entropy values differ from the library sequence")
    with open(os.path.join(out, "cesaro", "cesaro.json")) as fh:
        weights = [{x: Fraction(v) for x, v in w.items()} for w in json.load(fh)["weights"]]
    flat = [{shapes.point_id(x): v for x, v in w.items()} for w in oracles.cesaro(prod, inp["raw"][0])]
    if not oracles.same_measure(weights, flat):
        problems.append("CLI cesaro measure differs from the cycle-average reference")
    return problems


# --- suites-cli ---------------------------------------------------------------
#
# Many tiny problems: the seeded verification suites, then each command form
# of the README on every packaged scenario it applies to, the README's own
# lines first.  Each command runs once per pass, so none of them meets a
# cache that an earlier command warmed.

# fixed: each suite draws its random scenarios from its own seed, and
# letting the run seed choose them moved run_s by a tenth between seeds
SUITE_SEEDS = (1, 2, 3)
SUITE_TRIALS = 20

README_COMMANDS = (
    ("validate", "--scenario scenarios/swap.json", ()),
    ("count", "--scenario scenarios/swap.json --r points --q whole --n 3", (SWEEP,)),
    ("tail", "--scenario scenarios/swap.json --r points --q whole --nmax 8", (SWEEP,)),
    ("tail-total", "--scenario scenarios/swap.json --qfamily points,whole --rfamily points --nmax 6", (SWEEP,)),
    ("sft-tail", "--scenario scenarios/shifts.json --sft pairshift --rspec 0,1:1 --qspec 0:1 --nmax 12", (SWEEP,)),
    ("entropy", "--scenario scenarios/swap.json --mu uniform --r points --sigma @fibers", (POINT,)),
    ("invariant", "--scenario scenarios/cycle4.json --vertices --system loop", ()),
    ("construct", "--scenario scenarios/cycle4.json --diagonal --p points --q points --n 2 --delta 1", (POINT,)),
    ("verify", "--suite cover --seed 1 --trials 100", ()),
    ("validate", "--scenario scenarios/cycle4.json", ()),
    ("validate", "--scenario scenarios/extension.json", ()),
    ("validate", "--scenario scenarios/shifts.json", ()),
    ("count", "--scenario scenarios/cycle4.json --r points --q halves --n 3", (SWEEP,)),
    ("count", "--scenario scenarios/extension.json --r @points --q @trivial --system doubled --n 3", (SWEEP,)),
    ("tail", "--scenario scenarios/cycle4.json --r points --q halves --nmax 8", (SWEEP,)),
    ("tail", "--scenario scenarios/extension.json --r @points --q @trivial --system doubled --nmax 8", (SWEEP,)),
    ("tail-total", "--scenario scenarios/cycle4.json --qfamily points,halves --rfamily points --nmax 6", (SWEEP,)),
    ("sft-tail", "--scenario scenarios/shifts.json --sft golden --rspec 0:1 --qspec=-:1 --nmax 12", (SWEEP,)),
    ("entropy", "--scenario scenarios/swap.json --mu orbit --r points --sigma @fibers", (POINT,)),
    ("entropy", "--scenario scenarios/cycle4.json --mu spread --r points --sigma @fibers", (POINT,)),
    ("entropy", "--scenario scenarios/cycle4.json --mu corner --r points --sigma halves", (POINT,)),
    ("invariant", "--scenario scenarios/swap.json --vertices --system swap", ()),
    ("invariant", "--scenario scenarios/swap.json --cesaro uniform", ()),
    ("invariant", "--scenario scenarios/extension.json --lift unwrap orbit", ()),
    ("construct", "--scenario scenarios/swap.json --separated --p points --q whole --n 2 --delta 1/2", (POINT,)),
    ("construct", "--scenario scenarios/swap.json --diagonal --p points --q points --n 2 --delta 1", (POINT,)),
    ("construct", "--scenario scenarios/cycle4.json --diagonal --p points --q points --n 8 --delta 1", (POINT,)),
    ("construct", "--scenario scenarios/extension.json --separated --p @points --q @trivial --system doubled "
                  "--n 6 --delta 1/2", (POINT,)),
    ("construct", "--scenario scenarios/extension.json --diagonal --p @points --q @points --system doubled "
                  "--n 4 --delta 1", (POINT,)),
    ("count", "--scenario scenarios/extension.json --r @points --q @trivial --system doubled --n 12", (SWEEP,)),
    ("tail", "--scenario scenarios/extension.json --r @points --q @trivial --system doubled --nmax 24", (SWEEP,)),
)


def suites_setup(rd, seed: int, run_dir: str) -> dict:
    return {}


def suites_ops(rd, inp: dict, out: str) -> list[Op]:
    ops = []
    for s in SUITE_SEEDS:
        for suite in ("cover", "entropy", "invariant"):
            fn = f"run_{suite}_suite"
            ops.append(Op(f"{suite}-{s}", lambda res, fn=fn, s=s: getattr(rd.verify, fn)(s, SUITE_TRIALS)))
    ops.append(Op("theorem", lambda res: rd.verify.run_theorem_suite()))
    ops.append(Op("principal", lambda res: rd.verify.run_principal_suite()))
    for k, (command, args, kinds) in enumerate(README_COMMANDS):
        ops.append(cli_op(rd, f"cli-{k}-{command}", [command, *args.split()], os.path.join(out, f"{k}-{command}"), kinds))
    return ops


def suites_check(rd, inp: dict, res: dict, out: str) -> list[str]:
    return [f"suite {name} did not pass" for name, r in res.items()
            if not name.startswith("cli-") and not r.passed]


WORKLOADS = {
    "tail-explicit": (tail_setup, tail_ops, tail_check),
    "sft-deep": (sft_setup, sft_ops, sft_check),
    "entropy-family": (entropy_setup, entropy_ops, entropy_check),
    "suites-cli": (suites_setup, suites_ops, suites_check),
}
