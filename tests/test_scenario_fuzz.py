"""Mutated scenarios and mutated command lines: whatever one field of a
packaged scenario is changed to, ``validate`` and a command on it exit with
a documented code (0, 1, 2 or 3), raise nothing and write a manifest; so
does every README command line with one flag dropped, duplicated or given a
bad value or path."""

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


def _scenario(name):
    return os.path.join(SCENARIOS, f"{name}.json")


# the README's command lines without --out, the verify suite cut to 3 trials
README_COMMANDS = [
    ["validate", "--scenario", _scenario("swap")],
    ["count", "--scenario", _scenario("swap"), "--r", "points", "--q", "whole", "--n", "3"],
    ["tail", "--scenario", _scenario("swap"), "--r", "points", "--q", "whole", "--nmax", "8"],
    ["tail-total", "--scenario", _scenario("swap"), "--qfamily", "points,whole", "--rfamily", "points",
     "--nmax", "6"],
    ["sft-tail", "--scenario", _scenario("shifts"), "--sft", "pairshift", "--rspec", "0,1:1", "--qspec", "0:1",
     "--nmax", "12"],
    ["entropy", "--scenario", _scenario("swap"), "--mu", "uniform", "--r", "points", "--sigma", "@fibers"],
    ["invariant", "--scenario", _scenario("cycle4"), "--vertices", "--system", "loop"],
    ["construct", "--scenario", _scenario("cycle4"), "--diagonal", "--p", "points", "--q", "points", "--n", "2",
     "--delta", "1"],
    ["verify", "--suite", "cover", "--seed", "1", "--trials", "3"],
]
# bad values; the bracketed ones become paths: absent, a directory, a file
# that is not UTF-8
BAD_VALUES = ["", "0", "-1", "2.5", "abc", "1/0", "@nosuch", "0,1:0", "<absent>", "<directory>", "<latin1>"]


def _flags(argv):
    """(start, end) of every flag with its values in an argv."""
    starts = [k for k, token in enumerate(argv) if token.startswith("--")]
    return list(zip(starts, starts[1:] + [len(argv)]))


@given(
    st.sampled_from(README_COMMANDS),
    st.integers(min_value=0, max_value=7),
    st.sampled_from(["drop", "duplicate", "bad"]),
    st.sampled_from(BAD_VALUES),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mutated_argv_exits_with_a_documented_code(argv, pick, how, value):
    flags = _flags(argv)
    start, end = flags[pick % len(flags)]
    flag = argv[start:end]
    with tempfile.TemporaryDirectory() as tmp:
        latin1 = os.path.join(tmp, "latin1.json")
        with open(latin1, "wb") as fh:
            fh.write('{"schema_version": 1, "note": "café"}'.encode("latin-1"))
        paths = {"<absent>": os.path.join(tmp, "absent.json"), "<directory>": tmp, "<latin1>": latin1}
        replacement = {"drop": [], "duplicate": flag + flag, "bad": [flag[0], paths.get(value, value)]}[how]
        _run(argv[:start] + replacement + argv[end:], os.path.join(tmp, "out"))
