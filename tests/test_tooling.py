"""The benchmark still finds every library name it traces, calls or reads,
every name the package exports has a caller outside the tests, every export
and model method that takes a base point checks it, the library imports
only at module level and keeps no memo cache, the CLI looks scenario
objects up in one function, the verification suites are named in one
pair of tables, the explicit sweeps stop stepping at their fixed point,
a CLI call builds the parser of its own subcommand only and a pair
system reads no distance while it is built."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from collections.abc import Mapping
from fractions import Fraction

import pytest

import rdstail
import rdstail.cli  # noqa: F401  (the benchmark calls rd.cli.main)
from rdstail import counting, covers, measures
from rdstail.verify import _rng, random_driving, random_measure, random_system

from test_counting import _tail_explicit_shapes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# loads bench/tracer.py from its path without writing bytecode next to it,
# then installs the tracer over the whole package
INSTALL = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import rdstail, rdstail.cli
tracer.Tracer().install()
for module, names in tracer.TRACED.items():
    for name in names:
        assert hasattr(getattr(sys.modules["rdstail." + module], name), "__wrapped__"), (module, name)
"""


def test_bench_tracer_installs_over_the_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(rdstail.__file__)), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-B", "-c", INSTALL, os.path.join(ROOT, "bench", "tracer.py")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def _rd_chains(path):
    """Every ``rd.<name>[.<name>...]`` attribute chain used in a file."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "rd":
            chains.add(tuple(reversed(names)))
    return chains


def test_bench_names_resolve_on_the_library():
    chains = set()
    for name in ("workloads.py", "bench_pass.py"):
        chains |= _rd_chains(os.path.join(ROOT, "bench", name))
    assert ("iterate_cover",) in chains and ("cli", "main") in chains
    missing = []
    for chain in sorted(chains):
        obj = rdstail
        for attr in chain:
            if not hasattr(obj, attr):
                missing.append("rd." + ".".join(chain))
                break
            obj = getattr(obj, attr)
    assert not missing
    # bench/workloads.py _short_sweep reads the depth an estimate was asked for
    assert "requested" in rdstail.EntropyEstimate.__dataclass_fields__


def _referenced_names(path):
    """Every name a file reads, as an ``ast.Name``, the attribute of an
    ``ast.Attribute`` or an imported name."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def _traced_strings():
    """The module and function names listed in ``bench/tracer.py`` TRACED."""
    path = os.path.join(ROOT, "bench", "tracer.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    (traced,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    return {node.value for node in ast.walk(traced) if isinstance(node, ast.Constant) and type(node.value) is str}


def test_every_export_has_a_non_test_caller():
    package = os.path.dirname(rdstail.__file__)
    with open(os.path.join(package, "__init__.py")) as fh:
        init = ast.parse(fh.read())
    exports = {
        alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert "minimal_subcover" in exports and "_linalg" in exports
    # the other library modules, bench/ and demos/ (tests/ does not count)
    callers = [os.path.join(package, name) for name in os.listdir(package) if name != "__init__.py"]
    for folder in ("bench", "demos"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, folder)):
            callers += [os.path.join(dirpath, name) for name in files]
    referenced = set(_traced_strings())
    for path in callers:
        if path.endswith(".py"):
            referenced |= _referenced_names(path)
    unused = sorted(exports - referenced)
    assert not unused, f"exports with no caller outside the tests: {unused}"


def test_library_imports_are_module_level():
    package = os.path.dirname(rdstail.__file__)
    nested = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {
                    f"{name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                }
    assert not nested, f"imports inside functions: {sorted(nested)}"


def test_cli_reads_scenario_objects_only_in_resolve():
    # which system a named cover, measure or factor map lives on is decided
    # in one place: no other code in cli.py looks the objects up itself
    path = os.path.join(os.path.dirname(rdstail.__file__), "cli.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    tables = {"covers", "measures", "factor_maps", "homes"}
    reads = [
        f"{getattr(top, 'name', '<module>')}:{node.lineno}"
        for top in tree.body
        if getattr(top, "name", None) != "_resolve"
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute)
        and node.attr in tables
        and isinstance(node.value, ast.Name)
        and node.value.id == "sc"
    ]
    assert not reads, f"scenario objects read outside _resolve: {reads}"


def test_library_keeps_no_memo_cache():
    # the library keeps state for one call only: a module-level memo would
    # let one benchmark pass time cache hits on objects an earlier operation
    # built, and keep them alive for the process's lifetime
    memos = {"cache", "lru_cache"}
    package = os.path.dirname(rdstail.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        aliases = {"functools"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {alias.asname or alias.name for alias in node.names if alias.name == "functools"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{name}:{node.lineno}" for alias in node.names if alias.name in memos]
            elif isinstance(node, ast.Attribute) and node.attr in memos:
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    found.append(f"{name}:{node.lineno}")
    assert not found, f"functools memo caches in the library: {found}"


def test_counts_build_no_whole_bundle_iterate():
    # every count and pullback steps state images, and the iterates and the
    # entropy sweeps step state memberships: no library module binds or
    # names the mask join fold, the packed-mask pullbacks or the packed
    # layout, which live on in the tests as oracles only, and fiber bitmasks
    # are built in ``counting`` alone (``min_cover_size`` is also exported)
    whole_bundle = {"_mask_iterate", "_mask_iterates", "_mask_steps"}
    whole_bundle |= {"_mask_pullbacks", "_preimage", "_decode", "_section_steps"}
    whole_bundle |= {"_layout", "_sections", "_iterate_sections", "_iterate_cells"}
    fiber_masks = {"_fiber_index", "_section_masks", "min_cover_size"}
    package = os.path.dirname(rdstail.__file__)
    names = sorted(name[:-3] for name in os.listdir(package) if name.endswith(".py"))
    assert {"covers", "counting", "invariant", "measures"} <= set(names)
    for name in names:
        module = importlib.import_module(f"rdstail.{name}")
        referenced = _referenced_names(module.__file__)
        assert not whole_bundle & set(vars(module)), name
        assert not whole_bundle & referenced, name
        if name == "__init__":
            assert fiber_masks & referenced == {"min_cover_size"}
        elif name != "counting":
            assert not fiber_masks & (set(vars(module)) | referenced), name


def _omega_calls():
    """Per export that takes an ``omega``: the base it indexes and a call of
    it at a given base point, with well-formed other arguments."""
    swap = rdstail.swap_system()
    points, whole = rdstail.point_partition(swap), rdstail.trivial_cover(swap)
    sft = rdstail.load_scenario(os.path.join(ROOT, "scenarios", "shifts.json")).sfts["golden"]
    spec = rdstail.CylinderCoverSpec(frozenset({0}))
    return {
        "minimal_subcover": (swap.base, lambda w: rdstail.minimal_subcover(whole.elements[0], points, w, swap)),
        "relative_count": (swap.base, lambda w: rdstail.relative_count(points, whole, w, swap)),
        "bowen_ball": (swap.base, lambda w: rdstail.bowen_ball(swap, w, "c", 1, Fraction(1))),
        "lebesgue_number": (swap.base, lambda w: rdstail.lebesgue_number(swap, points, w)),
        "admissible_word_count": (sft.base, lambda w: rdstail.admissible_word_count(sft, 0, w, 3)),
        "relative_word_count": (sft.base, lambda w: rdstail.relative_word_count(sft, spec, spec, 3, w)),
    }


def test_every_omega_export_checks_its_base_point():
    # a negative base point wrapped around and one past the end raised
    # IndexError; an export that takes an ``omega`` and is missing from the
    # table fails here until it is covered
    takes_omega = set()
    for name in dir(rdstail):
        obj = getattr(rdstail, name)
        if inspect.isfunction(obj) and "omega" in inspect.signature(obj).parameters:
            takes_omega.add(name)
    calls = _omega_calls()
    assert set(calls) == takes_omega
    for name, (base, call) in calls.items():
        call(base.size - 1)
        for omega in (-1, base.size):
            with pytest.raises(rdstail.DomainError) as err:
                call(omega)
            assert str(err.value) == f"omega={omega} is outside the base of {base.size} points", name


def test_model_methods_check_their_base_point():
    # apply and theta_iterate wrapped a negative base point around to the
    # last one, and one past the end raised IndexError; a method of these
    # classes that takes an ``omega`` is found here by its signature
    swap = rdstail.swap_system()
    pi = rdstail.extend_with_tags(swap, tags=2, rotate=False)
    owners = {rdstail.DrivingSystem: swap.base, rdstail.BundleRDS: swap, rdstail.FactorMap: pi}
    others = {"n": 1, "x": "a", "y": ("a", "t0")}  # well formed at base point 0
    found = set()
    for cls, obj in owners.items():
        for name, fn in inspect.getmembers(cls, inspect.isfunction):
            params = list(inspect.signature(fn).parameters)
            if "omega" not in params:
                continue
            found.add(f"{cls.__name__}.{name}")
            method = getattr(obj, name)
            method(*(0 if p == "omega" else others[p] for p in params[1:]))
            for omega in (-1, swap.size):
                with pytest.raises(rdstail.DomainError) as err:
                    method(*(omega if p == "omega" else others[p] for p in params[1:]))
                assert str(err.value) == f"omega={omega} is outside the base of 2 points", name
    assert {"DrivingSystem.theta_iterate", "BundleRDS.apply", "FactorMap.apply", "FactorMap.preimage"} <= found


def test_suite_tables_name_every_suite_once():
    # the two tables are the one place that names a suite: run_suite and the
    # CLI's --suite choices read them, and only the seeded suites take a
    # seed and a number of trials
    from rdstail import verify

    runners = {fn for name, fn in vars(verify).items() if re.fullmatch(r"run_\w+_suite", name)}
    tabled = [*verify.SUITES.values(), *verify.NAMED_SUITES.values()]
    assert len(tabled) == len(set(tabled)) and set(tabled) == runners
    parser = rdstail.cli.build_parser()
    (sub,) = (a for a in parser._actions if a.dest == "command")
    (suite,) = (a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert suite.choices == [*verify.SUITES, *verify.NAMED_SUITES]
    for fn in verify.SUITES.values():
        assert {"seed", "trials"} <= set(inspect.signature(fn).parameters), fn.__name__
    for fn in verify.NAMED_SUITES.values():
        assert not {"seed", "trials"} & set(inspect.signature(fn).parameters), fn.__name__


def test_sweeps_stop_stepping_at_their_fixed_point(monkeypatch):
    # a cost check with no clock: the two benchmark shapes' sections repeat
    # first at depths 15 and 18, so a depth-400 estimate pulls each side
    # back at most that often; the cells of the state partition of a system
    # with no escape repeat at depth 2, so its entropy sweep steps twice and
    # evaluates one entropy
    pulled, product, entropy = counting._pulled, covers.product, measures._entropy
    sides, calls = {}, {"product": 0, "entropy": 0}

    def counted_pulled(held, *args):
        # keyed by the side's membership table, kept alive so ids stay unique
        sides.setdefault(id(held), [held, 0])[1] += 1
        return pulled(held, *args)

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(counting, "_pulled", counted_pulled)
    for (rds, r, q), limit in zip(_tail_explicit_shapes(monkeypatch), (15, 18)):
        sides.clear()
        rdstail.tail_entropy_estimate(rds, r, q, 400)
        steps = [count for _, count in sides.values()]
        assert len(steps) == 2 and 1 < max(steps) <= limit, steps
    monkeypatch.setattr(covers, "product", counted("product", product))
    monkeypatch.setattr(measures, "_entropy", counted("entropy", entropy))
    rng = _rng(26, 3)
    base = random_driving(rng, 3)
    h = rdstail.product_system(*(random_system(rng, base=base, max_fiber=3, pool=4) for _ in range(2))).system
    mu = rdstail.cesaro_limit(random_measure(rng, h), h)
    sweep = rdstail.transformation_relative_entropy_sequence(mu, rdstail.fiber_sigma(h), h, 50)
    assert len(sweep.values) == 50 and sweep.values[-1] > 0 and len(h.states()) == 12
    assert calls == {"product": 2 * len(h.states()), "entropy": 1}


class _CountedReads(Mapping):
    """A distance table that counts how often it is read."""

    def __init__(self, table):
        self.table, self.reads = table, 0

    def __getitem__(self, key):
        self.reads += 1
        return self.table[key]

    def __iter__(self):
        self.reads += 1
        return iter(self.table)

    def __len__(self):
        self.reads += 1
        return len(self.table)


def test_a_call_pays_only_for_its_own_command(monkeypatch, tmp_path):
    # a cost check with no clock: a README `tail` call builds the top-level
    # parser and its subcommand's, not the other eight; building the pair
    # system of the cycle4 scenario reads no distance of its factor, where
    # a table of the product metric read 2 x 16^2 of them
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    scenarios = os.path.join(ROOT, "scenarios")
    argv = ["tail", "--scenario", os.path.join(scenarios, "swap.json"), "--r", "points", "--q", "whole",
            "--nmax", "8", "--out", str(tmp_path)]
    assert rdstail.cli.main(argv) == 0
    assert len(built) == 2
    loop = rdstail.load_scenario(os.path.join(scenarios, "cycle4.json")).systems["loop"]
    table = _CountedReads(loop.space.dist)
    loop = dataclasses.replace(loop, space=rdstail.MetricSpace(loop.space.points, table))
    pair = rdstail.pair_system(loop)
    assert table.reads == 0 and len(pair.system.space.points) == 16
    assert pair.system.space.d(("p0", "p1"), ("p2", "p1")) == 1 and table.reads == 2
