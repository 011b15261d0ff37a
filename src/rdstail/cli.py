"""Batch command-line surface: load a scenario, dispatch one command, emit
CSV/JSON artifacts plus a run manifest.

Identical (scenario, command, flags, seed) runs produce byte-identical
artifacts; the manifest records the sha256 of every output so reruns can be
verified.  Exit codes: 0 success, 1 a verification check failed, 2 unknown
name or parse/validation error, 3 a budget was exceeded (partial artifacts
are still written).  Budgets come from ``RDSTAIL_BUDGETS`` and can be
overridden per run with ``--budget name=value``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from fractions import Fraction
from typing import Callable, TypeVar

from . import __version__
from .budgets import Budgets, from_env, parse_overrides
from .counting import count_profiles
from .covers import (
    RandomPartition,
    SigmaAlgebra,
    fiber_partition,
    point_partition,
    state_partition,
    trivial_cover,
)
from .errors import BudgetExceededError, RdstailError
from .invariant import cesaro_limit, diagonal_measure, lift_invariant, separated_empirical, vertex_enumeration
from .measures import FiberedMeasure, conditional_entropy, relative_entropy_sequence
from .model import BundleRDS, validate_system
from .scenario import Scenario, ScenarioError, load_scenario, measure_payload
from .symbolic import CylinderCoverSpec, RandomSFT, sft_tail_sequence
from .tail_entropy import EntropyEstimate, tail_entropy_estimate
from .verify import NAMED_SUITES, SUITES, run_suite

T = TypeVar("T")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3

COLUMN_CONVENTION = (
    "every value column header names the producing operation; "
    "rows carry (scenario object names, omega or n index, value)"
)

COMMANDS = ("validate", "count", "tail", "tail-total", "sft-tail", "entropy", "invariant", "construct", "verify")

_BUILTINS = {
    "@points": point_partition,
    "@trivial": trivial_cover,
    "@fibers": fiber_partition,
    "@states": state_partition,
}


class _Run:
    """Collects artifacts, then writes them with a digest manifest."""

    def __init__(self, out_dir: str | None, command: str | None, args: dict, budgets: Budgets | None, scenario_digest: str | None):
        self.out_dir = out_dir
        self.command = command
        self.args = args
        self.budgets = budgets
        self.scenario_digest = scenario_digest
        self.files: dict[str, bytes] = {}
        self.error: str | None = None
        # the budget stop behind partial artifacts; main exits with its code
        self.stop: BudgetExceededError | None = None

    def add_json(self, name: str, payload) -> None:
        self.files[name] = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()

    def add_text(self, name: str, text: str) -> None:
        self.files[name] = text.encode()

    def add_csv(self, name: str, header: list[str], rows: list[list]) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        self.files[name] = buf.getvalue().encode()

    def flush(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        for name, blob in self.files.items():
            with open(os.path.join(self.out_dir, name), "wb") as fh:
                fh.write(blob)
        manifest = {
            "command": self.command,
            "args": self.args,
            "budgets": None if self.budgets is None else {k: getattr(self.budgets, k) for k in vars(self.budgets)},
            "version": __version__,
            "scenario_digest": self.scenario_digest,
            "column_convention": COLUMN_CONVENTION,
            "outputs": {name: hashlib.sha256(blob).hexdigest() for name, blob in self.files.items()},
            "error": self.error,
        }
        with open(os.path.join(self.out_dir, "manifest.json"), "wb") as fh:
            fh.write((json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode())


def _resolve(sc: Scenario, names: list[tuple[str, str]], system: str | None) -> tuple[list, BundleRDS, str]:
    """The ``(kind, name)`` objects named, in order, on one system:
    ``system`` when given, else the system of the first name (a factor map
    lives on its target).  Builtin covers are built on it, and every
    scenario object must live on it."""
    if system is not None and system not in sc.systems:
        raise ScenarioError(f"unknown system {system!r}")
    tables = {"cover": sc.covers, "measure": sc.measures, "factor map": sc.factor_maps}
    objects = []
    for kind, name in names:
        if kind == "cover" and name.startswith("@"):
            if name not in _BUILTINS:
                raise ScenarioError(f"unknown builtin cover {name!r} (have {sorted(_BUILTINS)})")
            if system is None:
                raise ScenarioError(f"builtin cover {name!r} needs --system")
            objects.append(_BUILTINS[name](sc.systems[system]))
            continue
        if name not in tables[kind]:
            raise ScenarioError(f"unknown {kind} {name!r}")
        home = sc.homes[kind, name]
        if system is None:
            system = home
        elif home != system:
            raise ScenarioError("covers live on different systems")
        objects.append(tables[kind][name])
    return objects, sc.systems[system], system


def _add_estimate(run: _Run, stem: str, names: dict[str, str], est: EntropyEstimate, requested: int) -> None:
    """``<stem>.csv`` with one row per depth and ``<stem>.json`` with the
    estimate and the depth asked for on the command line, which exceeds
    ``n_max`` when a budget stopped the sweep."""
    rows = [
        [*names.values(), n, value, ratio, inf]
        for n, (value, ratio, inf) in enumerate(zip(est.values, est.ratios, est.running_inf), 1)
    ]
    run.add_csv(f"{stem}.csv", [*names.keys(), "n", "integrated_log_count", "ratio", "running_inf"], rows)
    run.add_json(
        f"{stem}.json",
        {
            "values": list(est.values),
            "ratios": list(est.ratios),
            "running_inf": list(est.running_inf),
            "n_max": est.n_max,
            "requested": requested,
            "subadditive_ok": est.subadditive_ok,
            "value": est.value,
        },
    )


def _depths(run: _Run, sweep: Callable[[int], T], n: int) -> T:
    """``sweep(n)``, or, when a budget stops it at depth k, ``sweep(k - 1)``
    with the stop recorded on the run, so that the completed depths are
    still written before :func:`main` exits with the budget code.  Depth 1
    is never budget-checked, so a stopped sweep keeps at least one depth."""
    while True:
        try:
            return sweep(n)
        except BudgetExceededError as exc:
            # a shorter sweep may stop earlier on another cover of a family
            run.stop = exc
            n = exc.depth - 1


def _measure_rows(system: str, measures: list[tuple[str, FiberedMeasure]]) -> tuple[list[str], list[list]]:
    """Header and rows of named measures; column ``scenario`` names their system."""
    header = ["scenario", "measure", "omega", "point", "mass"]
    rows = []
    for name, mu in measures:
        for w in range(mu.size):
            for x in sorted(mu.weights[w], key=repr):
                rows.append([system, name, w, repr(x), str(mu.weights[w][x])])
    return header, rows


def _parse_cylinder_spec(text: str, sft: RandomSFT) -> CylinderCoverSpec:
    comps, _, depth = text.partition(":")
    try:
        members = frozenset(int(c) for c in comps.split(",") if c.strip() not in ("", "-"))
        depth = int(depth) if depth else 1
    except ValueError:
        raise ScenarioError(f"cylinder spec {text!r}: components and depth must be integers") from None
    if depth < 1:
        raise ScenarioError(f"cylinder spec {text!r}: depth must be >= 1")
    if not members <= set(range(len(sft.components))):
        raise ScenarioError(f"cylinder spec {text!r}: the sft has components 0..{len(sft.components) - 1}")
    return CylinderCoverSpec(components=members, depth=depth)


class _Parser(argparse.ArgumentParser):
    """Usage errors (a missing flag, an unknown choice, a stray argument)
    print the usage line and raise :class:`ScenarioError` instead of
    exiting, so that :func:`main` writes a manifest for them as for every
    other bad input.  Subcommand parsers are built with the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ScenarioError(message)


def _out_dir(argv: list[str]) -> str:
    """The ``--out`` an argv names, read without the rest of its grammar,
    for the manifest of an argv that does not parse."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--out", default="out")
    try:
        return parser.parse_known_args(argv)[0].out
    except argparse.ArgumentError:
        return "out"


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The grammar of the CLI, or, given one of :data:`COMMANDS`, the same
    grammar with only the subcommand of that name."""
    whole = command is None
    parser = _Parser(prog="rdstail", description="exact desk-scale calculus for driven fiberwise dynamics")
    parser.add_argument("--budget", action="append", default=[], metavar="NAME=VALUE",
                        help="override a budget for this run (repeatable)")
    # the whole grammar's usage line; on the whole grammar a metavar would
    # rename the action in its invalid-choice error
    sub = parser.add_subparsers(dest="command", required=True, metavar=None if whole else "{" + ",".join(COMMANDS) + "}")

    def add(name, help, scenario_required=True):
        # the subcommand's parser with the common flags; None when left out
        if not whole and name != command:
            return None
        p = sub.add_parser(name, help=help)
        p.add_argument("--scenario", required=scenario_required, help="scenario JSON file")
        p.add_argument("--out", default="out", help="artifact directory (default: ./out)")
        p.add_argument("--system", default=None, help="system the named objects live on (default: the first one's)")
        return p

    add("validate", "load and validate a scenario")
    if p := add("count", "relative counts of iterated covers"):
        p.add_argument("--r", required=True)
        p.add_argument("--q", required=True)
        p.add_argument("--n", required=True)
    if p := add("tail", "integrated log-count sequence"):
        p.add_argument("--r", required=True)
        p.add_argument("--q", required=True)
        p.add_argument("--nmax", required=True)
    if p := add("tail-total", "min over conditioning family of max over refining family"):
        p.add_argument("--qfamily", required=True, help="comma-separated cover names")
        p.add_argument("--rfamily", required=True, help="comma-separated cover names")
        p.add_argument("--nmax", required=True)
    if p := add("sft-tail", "cylinder-cover sequence on a driven subshift"):
        p.add_argument("--sft", required=True)
        p.add_argument("--rspec", required=True, help="components:depth, e.g. 0,1:1 (use :1 for trivial)")
        p.add_argument("--qspec", required=True)
        p.add_argument("--nmax", required=True)
    if p := add("entropy", "conditional entropy, or its depth sequence with --nmax"):
        p.add_argument("--mu", required=True)
        p.add_argument("--r", required=True)
        p.add_argument("--sigma", required=True, help="partition name or builtin (@fibers, @states)")
        p.add_argument("--nmax", default=None)
    if p := add("invariant", "invariant-measure machinery"):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--vertices", action="store_true")
        g.add_argument("--cesaro", metavar="MU")
        g.add_argument("--lift", nargs=2, metavar=("PI", "MU"))
    if p := add("construct", "empirical pair-measure constructions"):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--separated", action="store_true")
        g.add_argument("--diagonal", action="store_true")
        p.add_argument("--p", dest="p_cover", help="refining cover")
        p.add_argument("--q", dest="q_cover", help="conditioning cover")
        p.add_argument("--n", required=True)
        p.add_argument("--delta", required=True, help="exact rational radius, e.g. 1/2")
    if p := add("verify", "run a verification suite", scenario_required=False):
        p.add_argument("--suite", required=True, choices=[*SUITES, *NAMED_SUITES])
        p.add_argument("--seed", help="seeded suites only (default: 1)")
        p.add_argument("--trials", help="seeded suites only (default: 100)")
    return parser


def _dispatch(args: argparse.Namespace, budgets: Budgets, run: _Run, sc: Scenario | None) -> int:
    name = args.command
    # integer flags are parsed here, not by argparse, so that a bad value
    # gets a manifest like every other bad input; the manifest records the
    # parsed integer
    for flag in ("n", "nmax", "seed", "trials"):
        text = getattr(args, flag, None)
        if text is None:
            continue
        try:
            value = int(text)
        except ValueError:
            raise ScenarioError(f"--{flag} must be an integer, got {text!r}") from None
        if flag in ("n", "nmax", "trials") and value < 1:
            raise ScenarioError(f"--{flag} must be >= 1, got {value}")
        setattr(args, flag, value)
        run.args[flag] = str(value)
    if name == "validate":
        report = {}
        for sysname, rds in sc.systems.items():
            report[sysname] = validate_system(rds)
        run.add_json("validate.json", {"violations": report, "ok": all(not v for v in report.values())})
        return EXIT_OK

    if name == "count":
        (r, q), rds, sysname = _resolve(sc, [("cover", args.r), ("cover", args.q)], args.system)
        profiles = _depths(run, lambda n: list(count_profiles(rds, r, q, n, budgets)), args.n)
        rows = [
            [sysname, args.r, args.q, w, prof.depth, c] for prof in profiles for w, c in enumerate(prof.per_omega)
        ]
        run.add_csv("count.csv", ["system", "r", "q", "omega", "n", "relative_count"], rows)
        run.add_json("count.json", {"rows": rows})
        return EXIT_OK

    if name == "tail":
        (r, q), rds, sysname = _resolve(sc, [("cover", args.r), ("cover", args.q)], args.system)
        est = _depths(run, lambda n: tail_entropy_estimate(rds, r, q, n, budgets), args.nmax)
        _add_estimate(run, "tail", {"system": sysname, "r": args.r, "q": args.q}, est, args.nmax)
        return EXIT_OK

    if name == "tail-total":
        q_names = [s for s in args.qfamily.split(",") if s]
        r_names = [s for s in args.rfamily.split(",") if s]
        if not q_names or not r_names:
            raise ScenarioError("families must be nonempty")
        covers, rds, sysname = _resolve(sc, [("cover", s) for s in q_names + r_names], args.system)
        q_fam, r_fam = covers[: len(q_names)], covers[len(q_names) :]

        def grid(n: int) -> tuple[int, list[list[float]]]:
            return n, [[tail_entropy_estimate(rds, r, q, n, budgets).value for r in r_fam] for q in q_fam]

        # a budget stop leaves the values of a shallower sweep: n_max is its depth
        n_max, values = _depths(run, grid, args.nmax)
        # the total is the min over q of the max over r of the row values
        rows = [[sysname, qn, rn, n_max, v] for qn, vs in zip(q_names, values) for rn, v in zip(r_names, vs)]
        run.add_csv("tail_total.csv", ["system", "q", "r", "n_max", "tail_estimate"], rows)
        run.add_json("tail_total.json", {"value": min(map(max, values)), "n_max": n_max})
        return EXIT_OK

    if name == "sft-tail":
        if args.sft not in sc.sfts:
            raise ScenarioError(f"unknown sft {args.sft!r}")
        sft = sc.sfts[args.sft]
        est = sft_tail_sequence(sft, _parse_cylinder_spec(args.rspec, sft), _parse_cylinder_spec(args.qspec, sft), args.nmax)
        _add_estimate(run, "sft_tail", {"sft": args.sft, "rspec": args.rspec, "qspec": args.qspec}, est, args.nmax)
        return EXIT_OK

    if name == "entropy":
        (mu, r, atoms), rds, sysname = _resolve(
            sc, [("measure", args.mu), ("cover", args.r), ("cover", args.sigma)], args.system
        )
        if not isinstance(r, RandomPartition):
            raise ScenarioError(f"--r {args.r!r} must be a partition")
        if not isinstance(atoms, RandomPartition):
            raise ScenarioError(f"sigma algebra {args.sigma!r} must come from a partition")
        sigma = SigmaAlgebra(atoms)
        if args.nmax is None:
            value = conditional_entropy(mu, r, sigma)
            run.add_csv(
                "entropy.csv",
                ["system", "mu", "r", "sigma", "conditional_entropy"],
                [[sysname, args.mu, args.r, args.sigma, value]],
            )
            run.add_json("entropy.json", {"conditional_entropy": value})
            return EXIT_OK
        est = _depths(run, lambda n: relative_entropy_sequence(mu, r, sigma, rds, n, budgets), args.nmax)
        names = {"system": sysname, "mu": args.mu, "r": args.r, "sigma": args.sigma}
        _add_estimate(run, "entropy", names, est, args.nmax)
        return EXIT_OK

    if name == "invariant":
        if args.vertices:
            if args.system is None:
                raise ScenarioError("--vertices needs --system NAME")
            _, rds, sysname = _resolve(sc, [], args.system)
            poly = vertex_enumeration(rds, budgets)
            header, rows = _measure_rows(sysname, [(f"vertex{i}", v) for i, v in enumerate(poly.vertices)])
            run.add_csv("vertices.csv", header, rows)
            payloads = [measure_payload(v) for v in poly.vertices]
            run.add_json("vertices.json", {"count": len(poly.vertices), "vertices": payloads})
            return EXIT_OK
        if args.cesaro is not None:
            (mu,), rds, sysname = _resolve(sc, [("measure", args.cesaro)], args.system)
            out = cesaro_limit(mu, rds)
            header, rows = _measure_rows(sysname, [("cesaro", out)])
            run.add_csv("cesaro.csv", header, rows)
            run.add_json("cesaro.json", measure_payload(out))
            return EXIT_OK
        pi_name, mu_name = args.lift
        (pi, mu), _, _ = _resolve(sc, [("factor map", pi_name), ("measure", mu_name)], args.system)
        lifted = lift_invariant(pi, mu)
        # the lifted measure lives on the map's source system
        source = next(s for s, rds in sc.systems.items() if rds is pi.source)
        header, rows = _measure_rows(source, [("lift", lifted)])
        run.add_csv("lift.csv", header, rows)
        run.add_json("lift.json", measure_payload(lifted))
        return EXIT_OK

    if name == "construct":
        try:
            delta = Fraction(args.delta)
        except (ValueError, ZeroDivisionError):
            raise ScenarioError(f"--delta {args.delta!r} is not an exact rational such as 1/2") from None
        if delta <= 0:
            raise ScenarioError(f"--delta {args.delta!r} must be positive")
        if args.p_cover is None or args.q_cover is None:
            raise ScenarioError(f"--{'separated' if args.separated else 'diagonal'} needs --p and --q")
        # the first cover resolved fixes the system: p for --separated, q for --diagonal
        step = 1 if args.separated else -1
        covers, rds, sysname = _resolve(sc, [("cover", args.p_cover), ("cover", args.q_cover)][::step], args.system)
        p, q = covers[::step]
        if args.separated:
            se = separated_empirical(rds, p, q, args.n, delta, budgets)
            run.add_json(
                "separated.json",
                {
                    "counts": list(se.counts),
                    "cardinalities": [len(s) for s in se.separated],
                    "lebesgue_ok": se.lebesgue_ok,
                    "card_ok": se.card_ok,
                    "mu_n_defect": str(se.mu_n_defect),
                    "support_mass_mu_n": str(se.support_mass_mu_n),
                    "support_mass_limit": str(se.support_mass_limit),
                    "measure_limit": measure_payload(se.mu_limit),
                },
            )
            header, rows = _measure_rows(sysname, [("mu_n", se.mu_n)])
            run.add_csv("separated_mu_n.csv", header, rows)
            return EXIT_OK
        diag = diagonal_measure(rds, q, p, args.n, delta, budgets=budgets)
        run.add_json(
            "diagonal.json",
            {
                "invariance_defect": str(diag.invariance),
                "support_diagonal": diag.support_diagonal,
                "entropy_values": list(diag.entropy.values),
                "entropy_zero": diag.entropy_zero,
                "measure": measure_payload(diag.measure),
            },
        )
        header, rows = _measure_rows(sysname, [("diagonal", diag.measure)])
        run.add_csv("diagonal.csv", header, rows)
        return EXIT_OK

    if name == "verify":
        for flag in ("seed", "trials"):
            if args.suite not in SUITES and getattr(args, flag) is not None:
                raise ScenarioError(f"--suite {args.suite} takes no --{flag}")
        report = run_suite(args.suite, args.seed, args.trials, budgets)
        run.add_text("report.json", report.to_json())
        run.add_text("report.txt", report.summary() + "\n")
        return EXIT_OK if report.passed else EXIT_CHECK_FAILED

    raise ScenarioError(f"unknown command {name!r}")


def _budgets(items: list[str]) -> Budgets:
    try:
        overrides = {}
        for item in items:
            overrides.update(parse_overrides(item))
        return from_env().with_overrides(overrides)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a usage error leaves no command, flags or output directory to record
    run = _Run(None, None, {}, None, None)
    sc: Scenario | None = None
    try:
        # a call naming its command first builds that command's grammar alone
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
        if getattr(args, "suite", None) in SUITES:
            args.seed = 1 if args.seed is None else args.seed
            args.trials = 100 if args.trials is None else args.trials
        # the output directory is not semantic: reruns into different
        # directories must stay byte-identical, so it is excluded from the
        # manifest
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "out") and v is not None}
        # budgets stay null in the manifest of a run whose budgets do not parse
        run = _Run(args.out, args.command, {k: str(v) for k, v in flags.items()}, None, None)
        budgets = run.budgets = _budgets(args.budget)
        if getattr(args, "scenario", None):
            sc = load_scenario(args.scenario)
            run.scenario_digest = sc.digest()
        elif args.command != "verify":
            raise ScenarioError("this command needs --scenario")
        code = _dispatch(args, budgets, run, sc)
        if run.stop is not None:
            raise run.stop
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        run.error = str(exc)
        run.flush()
        return EXIT_BUDGET
    except RdstailError as exc:  # ScenarioError among them
        print(f"error: {exc}", file=sys.stderr)
        run.error = str(exc)
        if run.out_dir is None:
            run.out_dir = _out_dir(argv)
        run.flush()
        return EXIT_BAD_INPUT
    run.flush()
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
