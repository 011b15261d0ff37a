"""Every demo script runs cleanly."""

import os
import runpy
import subprocess
import sys

import pytest

import rdstail

HERE = os.path.dirname(__file__)
DEMOS = os.path.abspath(os.path.join(HERE, "..", "demos"))
SCRIPTS = sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(script, capsys):
    runpy.run_path(os.path.join(DEMOS, script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


def test_measure_demo_output_does_not_depend_on_the_hash_seed():
    # string point ids hash differently per seed; the printed measures must not
    script = os.path.join(DEMOS, "04_measures_and_entropy_bounds.py")
    src = os.path.dirname(os.path.dirname(rdstail.__file__))
    outputs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-B", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_readme_quickstart_runs():
    with open(os.path.join(HERE, "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    quickstart = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    src = os.path.dirname(os.path.dirname(rdstail.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-B", "-c", quickstart], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
