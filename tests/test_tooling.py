"""The benchmark still finds every library name it traces, calls or reads,
every name the package exports has a caller outside the tests, and the
library imports only at module level."""

import ast
import os
import subprocess
import sys

import rdstail
import rdstail.cli  # noqa: F401  (the benchmark calls rd.cli.main)

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
