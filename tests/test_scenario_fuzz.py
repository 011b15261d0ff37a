"""Mutated scenarios through the command line: whatever one field of a
packaged scenario is changed to, ``validate`` and a command on it exit with
a documented code (0, 1, 2 or 3), raise nothing and write a manifest."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from rdstail.cli import main

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# one command per packaged scenario, after its --scenario argument
COMMANDS = {
    "swap": [
        ["count", "--r", "points", "--q", "whole", "--n", "3"],
        ["tail", "--r", "twocell", "--q", "whole", "--nmax", "4"],
        ["entropy", "--mu", "uniform", "--r", "points", "--sigma", "@fibers"],
    ],
    "cycle4": [
        ["count", "--r", "points", "--q", "halves", "--n", "3"],
        ["invariant", "--vertices", "--system", "loop"],
        ["construct", "--separated", "--p", "points", "--q", "halves", "--n", "2", "--delta", "1"],
    ],
    "extension": [
        ["tail-total", "--qfamily", "points,whole", "--rfamily", "twocell", "--nmax", "3"],
        ["entropy", "--mu", "orbit", "--r", "points", "--sigma", "@fibers", "--nmax", "3"],
    ],
    "shifts": [
        ["sft-tail", "--sft", "pairshift", "--rspec", "0,1:1", "--qspec", "0:1", "--nmax", "6"],
        ["sft-tail", "--sft", "golden", "--rspec", "0:1", "--qspec", ":1", "--nmax", "6"],
    ],
}


def _load(name):
    with open(os.path.join(SCENARIOS, f"{name}.json")) as fh:
        return json.load(fh)


def _paths(node, prefix=()):
    """Every key or index path below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = [(name, path) for name in sorted(COMMANDS) for path in _paths(_load(name))]
RETYPES = [None, 0, -1, 2.5, True, "", "x", "1/0", [], {}]


def _mutate(doc, path, how, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    if how == "drop":
        del parent[key]
    elif how == "retype":
        parent[key] = value
    elif how == "shrink" and isinstance(old, list):
        parent[key] = old[: len(old) // 2]
    elif how == "shrink" and isinstance(old, dict):
        parent[key] = dict(list(old.items())[: len(old) // 2])
    else:
        parent[key] = [old]
    return doc


def _run(argv, out):
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", out])
    assert code in (0, 1, 2, 3), (argv, code)
    assert os.path.isfile(os.path.join(out, "manifest.json")), argv


@given(
    st.sampled_from(PATHS),
    st.sampled_from(["drop", "retype", "shrink", "listify"]),
    st.sampled_from(RETYPES),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mutated_scenarios_exit_with_a_documented_code(target, how, value, pick):
    name, path = target
    doc = _mutate(copy.deepcopy(_load(name)), path, how, value)
    commands = COMMANDS[name]
    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "scenario.json")
        with open(scenario, "w") as fh:
            json.dump(doc, fh)
        _run(["validate", "--scenario", scenario], os.path.join(tmp, "validate"))
        command = commands[pick % len(commands)]
        _run([command[0], "--scenario", scenario, *command[1:]], os.path.join(tmp, "command"))
