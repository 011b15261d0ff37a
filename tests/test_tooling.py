"""The benchmark still finds every library name it traces, calls or reads."""

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
