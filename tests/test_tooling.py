"""The benchmark's tracer still finds every library function it wraps."""

import os
import subprocess
import sys

import rdstail

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
