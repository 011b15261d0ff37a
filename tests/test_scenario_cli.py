"""Scenario loading and the command-line surface."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import rdstail
from rdstail import MetricSpace
from rdstail.cli import main
from rdstail.scenario import ScenarioError, load_scenario, loads_scenario

HERE = os.path.dirname(__file__)
SCENARIOS = os.path.join(HERE, "..", "scenarios")


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIOS, f"{name}.json")


def read(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return fh.read()


def test_load_packaged_scenarios():
    for name in ("swap", "cycle4", "shifts", "extension"):
        sc = load_scenario(scenario_path(name))
        assert sc.digest()


def test_load_validates_each_metric_space_once(monkeypatch, tmp_path):
    calls = []
    validate = MetricSpace.validate
    monkeypatch.setattr(MetricSpace, "validate", lambda space: calls.append(space) or validate(space))
    sc = load_scenario(scenario_path("extension"))
    assert len(sc.spaces) == len(calls) == 2
    calls.clear()
    assert main(["validate", "--scenario", scenario_path("extension"), "--out", str(tmp_path)]) == 0
    assert len(calls) == 2


def test_loader_reports_invariance_violation():
    bad = {
        "schema_version": 1,
        "driving_systems": {"skew": {"prob": ["2/3", "1/3"], "theta": [1, 0]}},
        "systems": {
            "s": {
                "base": "skew",
                "fibers": [["x"], ["y"]],
                "maps": [{"x": "y"}, {"y": "x"}],
            }
        },
    }
    with pytest.raises(ScenarioError) as err:
        loads_scenario(json.dumps(bad))
    assert "not preserved" in str(err.value)


def test_loader_reports_dangling_reference():
    bad = {
        "schema_version": 1,
        "driving_systems": {"flip": {"prob": ["1"], "theta": [0]}},
        "systems": {"s": {"base": "nope", "fibers": [["x"]], "maps": [{"x": "x"}]}},
    }
    with pytest.raises(ScenarioError) as err:
        loads_scenario(json.dumps(bad))
    assert "unknown driving system" in str(err.value)


@pytest.mark.parametrize(
    "section,value,message",
    [
        ("driving_systems", {"flip": {"theta": [0]}}, "driving system 'flip': missing field 'prob'"),
        ("driving_systems", {"flip": {"prob": ["1"], "theta": ["x"]}}, "driving system 'flip': field 'theta'"),
        ("driving_systems", {"flip": 5}, "driving system 'flip': must be an object"),
        ("systems", [], "section 'systems' must be an object"),
        ("covers", {"c": {"system": "s", "elements": 5}}, "cover 'c': field 'elements'"),
        ("covers", {"c": {"system": "s", "elements": []}}, "cover 'c': a cover needs at least one element"),
        ("measures", {"m": {"system": "s", "weights": ["x"]}}, "measure 'm': field 'weights'"),
        ("sfts", {"g": {"base": "flip", "components": [{"alphabet": 3, "matrices": [[[1]]]}]}}, "sft 'g': "),
        ("sfts", {"g": {"base": "flip", "components": [{"matrices": [[[1]]]}]}},
         "sft 'g' component 0: missing field 'alphabet'"),
        ("metric_spaces", {"d": {"points": ["x", "y"], "dist": [["0", "1"]]}},
         "metric space 'd': dist must be a 2x2 matrix in points order"),
        ("metric_spaces", {"d": {"points": ["x", "y"], "dist": [["0", "1"], ["1"]]}},
         "metric space 'd': dist must be a 2x2 matrix in points order"),
        ("metric_spaces", {"d": {"points": [["x"]], "dist": [["0"]]}},
         "metric space 'd': field 'points': expected a list of string point ids, got [['x']]"),
        ("systems", {"t": {"base": "flip", "fibers": [["x"]], "maps": [{"x": ["x"]}]}},
         "system 't': field 'maps': expected a list of string point ids"),
        ("systems", {"t": {"base": "flip", "fibers": ["xy"], "maps": [{"x": "x", "y": "y"}]}},
         "system 't': field 'fibers': expected a list of string point ids, got 'xy'"),
        ("factor_maps", {"f": {"source": "s", "target": "s", "maps": [{"x": ["x"]}]}},
         "factor map 'f': field 'maps': expected a list of string point ids"),
        ("factor_maps", {"f": {"source": "s", "target": "s", "maps": []}},
         "factor map 'f': 0 fiber maps for 1 base points"),
    ],
)
def test_loader_names_object_and_field(section, value, message):
    doc = {
        "schema_version": 1,
        "driving_systems": {"flip": {"prob": ["1"], "theta": [0]}},
        "systems": {"s": {"base": "flip", "fibers": [["x"]], "maps": [{"x": "x"}]}},
        section: value,
    }
    with pytest.raises(ScenarioError) as err:
        loads_scenario(json.dumps(doc))
    assert message in str(err.value)


def test_loader_reports_parse_position():
    with pytest.raises(ScenarioError) as err:
        loads_scenario("{not json", source="broken.json")
    assert "broken.json:1:" in str(err.value)


def test_loader_allows_empty_cover_list():
    doc = {
        "schema_version": 1,
        "driving_systems": {"flip": {"prob": ["1"], "theta": [0]}},
        "systems": {"s": {"base": "flip", "fibers": [["x"]], "maps": [{"x": "x"}]}},
        "covers": {},
    }
    sc = loads_scenario(json.dumps(doc))
    assert sc.covers == {}


def test_cli_validate(tmp_path):
    out = tmp_path / "v"
    code = main(["validate", "--scenario", scenario_path("swap"), "--out", str(out)])
    assert code == 0
    doc = json.loads(read(out, "validate.json"))
    assert doc["ok"] is True


def test_cli_tail_matches_module_value(tmp_path):
    out = tmp_path / "t"
    code = main(
        [
            "tail",
            "--scenario",
            scenario_path("swap"),
            "--r",
            "points",
            "--q",
            "whole",
            "--nmax",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(read(out, "tail.json"))
    assert abs(doc["value"] - math.log(2) / 8) <= 1e-9
    lines = read(out, "tail.csv").strip().splitlines()
    assert lines[0].split(",")[:3] == ["system", "r", "q"]
    assert len(lines) == 9


def test_cli_builtin_covers(tmp_path):
    out = tmp_path / "b"
    code = main(
        [
            "tail",
            "--scenario",
            scenario_path("swap"),
            "--r",
            "@points",
            "--q",
            "@trivial",
            "--system",
            "swap",
            "--nmax",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0


def test_cli_sft_tail(tmp_path):
    out = tmp_path / "s"
    code = main(
        [
            "sft-tail",
            "--scenario",
            scenario_path("shifts"),
            "--sft",
            "pairshift",
            "--rspec",
            "0,1:1",
            "--qspec",
            "0:1",
            "--nmax",
            "12",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(read(out, "sft_tail.json"))
    assert all(abs(r - math.log(2)) <= 1e-9 for r in doc["ratios"])
    # ":1" is the trivial spec: two free full shifts give log 4
    trivial = tmp_path / "trivial"
    code = main(["sft-tail", "--scenario", scenario_path("shifts"), "--sft", "pairshift",
                 "--rspec", "0,1:1", "--qspec", ":1", "--nmax", "12", "--out", str(trivial)])
    assert code == 0
    doc = json.loads(read(trivial, "sft_tail.json"))
    assert all(abs(r - math.log(4)) <= 1e-9 for r in doc["ratios"])


def test_cli_entropy_value(tmp_path):
    out = tmp_path / "e"
    code = main(
        [
            "entropy",
            "--scenario",
            scenario_path("swap"),
            "--mu",
            "uniform",
            "--r",
            "points",
            "--sigma",
            "@fibers",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(read(out, "entropy.json"))
    assert abs(doc["conditional_entropy"] - math.log(2)) <= 1e-9


def test_cli_entropy_of_a_mass_below_the_smallest_float(tmp_path):
    # a positive weight that rounds to 0.0 contributes nothing, where
    # math.log(0.0) used to end the command with a traceback
    with open(scenario_path("swap")) as fh:
        doc = json.load(fh)
    tiny = Fraction(1, 2**1101)
    doc["measures"]["tiny"] = {
        "system": "swap",
        "weights": [{"a": "1/4", "b": "1/4"}, {"c": str(Fraction(1, 2) - tiny), "d": str(tiny)}],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "et"
    code = main(["entropy", "--scenario", str(path), "--mu", "tiny", "--r", "points", "--sigma", "@fibers",
                 "--out", str(out)])
    assert code == 0
    # exactly log(2)/2 plus the terms of the tiny cell, below 1e-320
    assert abs(json.loads(read(out, "entropy.json"))["conditional_entropy"] - math.log(2) / 2) <= 1e-9


def test_cli_entropy_sequence(tmp_path):
    out = tmp_path / "es"
    code = main(
        [
            "entropy",
            "--scenario",
            scenario_path("swap"),
            "--mu",
            "orbit",
            "--r",
            "twocell",
            "--sigma",
            "@fibers",
            "--nmax",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(read(out, "entropy.json"))
    assert doc["n_max"] == 4


def test_cli_invariant_vertices(tmp_path):
    out = tmp_path / "iv"
    code = main(
        [
            "invariant",
            "--scenario",
            scenario_path("cycle4"),
            "--vertices",
            "--system",
            "loop",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(read(out, "vertices.json"))
    assert doc["count"] == 1


def test_cli_invariant_cesaro_and_lift(tmp_path):
    out = tmp_path / "ic"
    assert (
        main(
            [
                "invariant",
                "--scenario",
                scenario_path("cycle4"),
                "--cesaro",
                "corner",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    doc = json.loads(read(out, "cesaro.json"))
    assert doc["weights"][0]["p0"] == "1/4"

    out2 = tmp_path / "il"
    assert (
        main(
            [
                "invariant",
                "--scenario",
                scenario_path("extension"),
                "--lift",
                "unwrap",
                "orbit",
                "--out",
                str(out2),
            ]
        )
        == 0
    )
    doc2 = json.loads(read(out2, "lift.json"))
    assert doc2["weights"][0]["a0"] == "1/4"


def test_cli_measure_rows_name_the_system_of_the_measure(tmp_path):
    # a lifted measure lives on the factor map's source, not on the map
    with open(scenario_path("extension")) as fh:
        source = json.load(fh)["factor_maps"]["unwrap"]["source"]
    runs = {
        "lift.csv": (["--scenario", scenario_path("extension"), "--lift", "unwrap", "orbit"], source),
        "vertices.csv": (["--scenario", scenario_path("cycle4"), "--vertices", "--system", "loop"], "loop"),
    }
    for artifact, (argv, system) in runs.items():
        out = tmp_path / artifact
        assert main(["invariant", *argv, "--out", str(out)]) == 0
        header, *rows = read(out, artifact).splitlines()
        assert header == "scenario,measure,omega,point,mass"
        assert rows and {row.split(",")[0] for row in rows} == {system}, artifact


def test_cli_construct_separated_and_diagonal(tmp_path):
    out = tmp_path / "cs"
    code = main(
        [
            "construct",
            "--scenario",
            scenario_path("cycle4"),
            "--separated",
            "--p",
            "points",
            "--q",
            "@trivial",
            "--system",
            "loop",
            "--n",
            "2",
            "--delta",
            "1/2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(read(out, "separated.json"))
    assert doc["card_ok"] is True

    out2 = tmp_path / "cd"
    code = main(
        [
            "construct",
            "--scenario",
            scenario_path("cycle4"),
            "--diagonal",
            "--p",
            "points",
            "--q",
            "points",
            "--n",
            "2",
            "--delta",
            "1",
            "--out",
            str(out2),
        ]
    )
    assert code == 0
    doc2 = json.loads(read(out2, "diagonal.json"))
    assert doc2["support_diagonal"] is True
    assert doc2["entropy_zero"] is True


def test_cli_verify_suite_and_exit_codes(tmp_path):
    out = tmp_path / "vf"
    code = main(["verify", "--suite", "cover", "--seed", "1", "--trials", "20", "--out", str(out)])
    assert code == 0
    doc = json.loads(read(out, "report.json"))
    assert doc["passed"] is True


def test_cli_verify_failure_exits_1(tmp_path, monkeypatch):
    import rdstail.cli as cli_mod
    from rdstail.verify import CheckResult, SuiteReport

    failing = SuiteReport(
        suite="cover",
        seed=1,
        trials=1,
        checks=(CheckResult(name="synthetic", status="fail", trials=1, failures=1),),
        scenario_digests=(),
    )
    monkeypatch.setattr(cli_mod, "run_suite", lambda *a, **k: failing)
    out = tmp_path / "vfail"
    code = main(["verify", "--suite", "cover", "--seed", "1", "--trials", "1", "--out", str(out)])
    assert code == 1
    doc = json.loads(read(out, "report.json"))
    assert doc["passed"] is False


def test_cli_unknown_name_exits_2(tmp_path):
    out = tmp_path / "u"
    code = main(
        [
            "tail",
            "--scenario",
            scenario_path("swap"),
            "--r",
            "missing",
            "--q",
            "whole",
            "--nmax",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    manifest = json.loads(read(out, "manifest.json"))
    assert "unknown cover" in manifest["error"]
    with open(scenario_path("swap")) as fh:
        doc = json.load(fh)
    (base,) = doc["driving_systems"].values()
    del base["prob"]
    no_prob = tmp_path / "no_prob.json"
    no_prob.write_text(json.dumps(doc))
    base.update(prob=["1/2", "1/2"], theta=["x"])
    theta_text = tmp_path / "theta_text.json"
    theta_text.write_text(json.dumps(doc))
    with open(scenario_path("cycle4")) as fh:
        doc = json.load(fh)
    del doc["metric_spaces"]["ring"]["dist"][3]
    short_dist = tmp_path / "short_dist.json"
    short_dist.write_text(json.dumps(doc))
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes('{"schema_version": 1, "note": "café"}'.encode("latin-1"))
    bad_inputs = {
        "scenario-missing-prob": ["validate", "--scenario", str(no_prob)],
        "scenario-theta-text": ["validate", "--scenario", str(theta_text)],
        "scenario-short-dist": ["validate", "--scenario", str(short_dist)],
        "nmax-text": ["tail", "--scenario", scenario_path("swap"), "--r", "points", "--q", "whole",
                      "--nmax", "abc"],
        "n-text": ["count", "--scenario", scenario_path("swap"), "--r", "points", "--q", "whole", "--n", "2.5"],
        "seed-text": ["verify", "--suite", "cover", "--seed", "abc", "--trials", "2"],
        "trials-text": ["verify", "--suite", "cover", "--trials", "x"],
        "trials-zero": ["verify", "--suite", "cover", "--trials", "0"],
        "trials-negative": ["verify", "--suite", "cover", "--trials", "-3"],
        "spec-name": ["sft-tail", "--scenario", scenario_path("shifts"), "--sft", "golden",
                      "--rspec", "a:1", "--qspec", ":1", "--nmax", "3"],
        "spec-depth": ["sft-tail", "--scenario", scenario_path("shifts"), "--sft", "golden",
                       "--rspec", "0:0", "--qspec", ":1", "--nmax", "3"],
        "spec-component": ["sft-tail", "--scenario", scenario_path("shifts"), "--sft", "golden",
                           "--rspec", "5:1", "--qspec", ":1", "--nmax", "3"],
        "empty-family": ["tail-total", "--scenario", scenario_path("swap"), "--qfamily", ",",
                         "--rfamily", "points", "--nmax", "2"],
        "tail-nmax-0": ["tail", "--scenario", scenario_path("swap"), "--r", "points", "--q", "whole",
                        "--nmax", "0"],
        "tail-total-nmax-0": ["tail-total", "--scenario", scenario_path("swap"), "--qfamily", "whole",
                              "--rfamily", "points", "--nmax", "0"],
        "sft-tail-nmax-0": ["sft-tail", "--scenario", scenario_path("shifts"), "--sft", "golden",
                            "--rspec", "0:1", "--qspec", ":1", "--nmax", "0"],
        "entropy-nmax-0": ["entropy", "--scenario", scenario_path("swap"), "--mu", "uniform", "--r", "points",
                           "--sigma", "@fibers", "--nmax", "0"],
        "count-n-0": ["count", "--scenario", scenario_path("swap"), "--r", "points", "--q", "whole",
                      "--n", "0"],
        "construct-n-0": ["construct", "--scenario", scenario_path("cycle4"), "--diagonal", "--p", "points",
                          "--q", "points", "--n", "0", "--delta", "1"],
        "delta-text": ["construct", "--scenario", scenario_path("cycle4"), "--diagonal", "--p", "points",
                       "--q", "points", "--n", "2", "--delta", "abc"],
        "delta-zero-denominator": ["construct", "--scenario", scenario_path("cycle4"), "--diagonal", "--p",
                                   "points", "--q", "points", "--n", "2", "--delta", "1/0"],
        "delta-zero": ["construct", "--scenario", scenario_path("cycle4"), "--diagonal", "--p", "points",
                       "--q", "points", "--n", "2", "--delta", "0"],
        "delta-negative": ["construct", "--scenario", scenario_path("swap"), "--separated", "--p", "points",
                           "--q", "whole", "--n", "2", "--delta", "-1"],
        "separated-no-covers": ["construct", "--scenario", scenario_path("cycle4"), "--separated",
                                "--n", "2", "--delta", "1"],
        "budget-unknown": ["--budget", "bogus=1", "sft-tail", "--scenario", scenario_path("shifts"),
                           "--sft", "golden", "--rspec", "0:1", "--qspec", ":1", "--nmax", "3"],
        "budget-value": ["--budget", "cover_elements=x", "tail", "--scenario", scenario_path("swap"),
                         "--r", "points", "--q", "whole", "--nmax", "3"],
        "budget-malformed": ["--budget", "cover_elements", "tail", "--scenario", scenario_path("swap"),
                             "--r", "points", "--q", "whole", "--nmax", "3"],
        "scenario-absent": ["count", "--scenario", scenario_path("nosuch"), "--r", "points", "--q", "whole",
                            "--n", "3"],
        "scenario-directory": ["count", "--scenario", SCENARIOS, "--r", "points", "--q", "whole", "--n", "3"],
        "scenario-not-utf8": ["count", "--scenario", str(not_utf8), "--r", "points", "--q", "whole", "--n", "3"],
    }
    errors = {}
    for label, argv in bad_inputs.items():
        out = tmp_path / label
        assert main(argv + ["--out", str(out)]) == 2, label
        errors[label] = json.loads(read(out, "manifest.json"))["error"]
        assert errors[label], label
    assert "missing field 'prob'" in errors["scenario-missing-prob"]
    assert "field 'theta'" in errors["scenario-theta-text"]
    assert "metric space 'ring': dist must be a 4x4 matrix" in errors["scenario-short-dist"]
    assert "must be positive" in errors["delta-zero"] and "must be positive" in errors["delta-negative"]
    assert errors["nmax-text"] == "--nmax must be an integer, got 'abc'"
    assert errors["trials-zero"] == "--trials must be >= 1, got 0"
    assert errors["trials-negative"] == "--trials must be >= 1, got -3"
    assert errors["scenario-absent"].endswith("cannot read scenario file: No such file or directory")
    assert errors["scenario-directory"].endswith("cannot read scenario file: Is a directory")
    assert "latin1.json: not UTF-8 text" in errors["scenario-not-utf8"]


def test_malformed_budgets_variable_is_a_cli_error(tmp_path):
    env = dict(os.environ, RDSTAIL_BUDGETS="zzz")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(rdstail.__file__)), env.get("PYTHONPATH", "")]
    )
    imported = subprocess.run([sys.executable, "-c", "import rdstail"], env=env, capture_output=True)
    assert imported.returncode == 0, imported.stderr
    out = tmp_path / "env"
    argv = ["tail", "--scenario", scenario_path("swap"), "--r", "points", "--q", "whole", "--nmax", "3",
            "--out", str(out)]
    run = subprocess.run([sys.executable, "-m", "rdstail.cli", *argv], env=env, capture_output=True)
    assert run.returncode == 2, run.stderr
    assert "malformed budget override 'zzz'" in json.loads(read(out, "manifest.json"))["error"]


def test_cli_budget_exits_3_with_partial_artifacts(tmp_path):
    out = tmp_path / "bg"
    code = main(
        [
            "--budget",
            "cover_elements=3",
            "count",
            "--scenario",
            scenario_path("swap"),
            "--r",
            "points",
            "--q",
            "whole",
            "--n",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 3
    manifest = json.loads(read(out, "manifest.json"))
    assert "cover_elements" in manifest["error"]
    assert manifest["budgets"]["cover_elements"] == 3
    # a stopped count keeps the rows of the depths it finished
    out = tmp_path / "count"
    argv = ["count", "--scenario", scenario_path("cycle4"), "--r", "points", "--q", "halves", "--n", "6"]
    assert main(["--budget", "cover_elements=2", *argv, "--out", str(out)]) == 3
    manifest = json.loads(read(out, "manifest.json"))
    assert "depth n=2" in manifest["error"]
    assert {"count.csv", "count.json"} <= set(manifest["outputs"])
    rows = read(out, "count.csv").splitlines()[1:]
    assert rows and all(row.split(",")[4] == "1" for row in rows)
    assert len(json.loads(read(out, "count.json"))["rows"]) == len(rows)
    # an estimate the budget stops early is partial, not a success
    swap = ["--scenario", scenario_path("swap"), "--nmax", "6"]
    stopped = {
        "tail": (["tail", "--r", "points", "--q", "whole"], "tail.json"),
        "tail-total": (["tail-total", "--qfamily", "whole", "--rfamily", "points"], "tail_total.json"),
    }
    for label, (argv, artifact) in stopped.items():
        out = tmp_path / label
        assert main(["--budget", "cover_elements=1", *argv, *swap, "--out", str(out)]) == 3, label
        manifest = json.loads(read(out, "manifest.json"))
        assert "depth n=2" in manifest["error"], label
        assert artifact in manifest["outputs"], label
    est = json.loads(read(tmp_path / "tail", "tail.json"))
    assert (est["n_max"], est["requested"]) == (1, 6)
    # a stopped tail-total labels its rows with the depth of its values,
    # which are those of an unstopped run to that depth
    family = "points,twocell,whole,@points,@trivial"
    argv = ["tail-total", "--scenario", scenario_path("swap"), "--system", "swap", "--qfamily", family,
            "--rfamily", family]
    assert main(["--budget", "cover_elements=3", *argv, "--nmax", "6", "--out", str(tmp_path / "total")]) == 3
    assert "depth n=2" in json.loads(read(tmp_path / "total", "manifest.json"))["error"]
    assert json.loads(read(tmp_path / "total", "tail_total.json"))["n_max"] == 1
    assert main([*argv, "--nmax", "1", "--out", str(tmp_path / "total1")]) == 0
    for artifact in ("tail_total.csv", "tail_total.json"):
        assert read(tmp_path / "total", artifact) == read(tmp_path / "total1", artifact)
    # a stopped entropy sequence keeps the depths before the offending one
    out = tmp_path / "entropy"
    argv = ["entropy", "--scenario", scenario_path("cycle4"), "--mu", "spread", "--r", "points", "--sigma", "@states"]
    assert main(["--budget", "cover_elements=2", *argv, "--nmax", "6", "--out", str(out)]) == 3
    manifest = json.loads(read(out, "manifest.json"))
    assert "depth n=2" in manifest["error"]
    assert {"entropy.csv", "entropy.json"} <= set(manifest["outputs"])
    est = json.loads(read(out, "entropy.json"))
    assert (est["n_max"], est["requested"]) == (1, 6)
    rows = read(out, "entropy.csv").splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["1"]
    # on an eight-cycle the halves refine to 2n arcs, so 4 elements stop depth 3
    pts = [f"p{i}" for i in range(8)]
    ring = {
        "schema_version": 1,
        "driving_systems": {"still": {"prob": ["1"], "theta": [0]}},
        "systems": {"ring": {"base": "still", "fibers": [pts], "maps": [{x: pts[(i + 1) % 8] for i, x in enumerate(pts)}]}},
        "covers": {"halves": {"system": "ring", "partition": True, "elements": [[pts[:4]], [pts[4:]]]}},
        "measures": {"spread": {"system": "ring", "weights": [{x: "1/8" for x in pts}]}},
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring))
    argv = ["entropy", "--scenario", str(path), "--mu", "spread", "--r", "halves", "--sigma", "@fibers"]
    out = tmp_path / "ring"
    assert main(["--budget", "cover_elements=4", *argv, "--nmax", "6", "--out", str(out)]) == 3
    assert "depth n=3" in json.loads(read(out, "manifest.json"))["error"]
    est = json.loads(read(out, "entropy.json"))
    assert (est["n_max"], est["requested"]) == (2, 6)
    assert main([*argv, "--nmax", "2", "--out", str(tmp_path / "ring2")]) == 0
    assert json.loads(read(tmp_path / "ring2", "entropy.json"))["values"] == est["values"]


def test_cli_rejects_covers_of_two_systems(tmp_path):
    # "back" shares loop's base and fiber and runs the cycle backwards; the
    # system is --system when given (it builds the builtins), else the first
    # cover's, and every scenario cover named must live on it
    with open(scenario_path("cycle4")) as fh:
        data = json.load(fh)
    data["systems"]["back"] = {**data["systems"]["loop"], "maps": [{"p0": "p3", "p1": "p0", "p2": "p1", "p3": "p2"}]}
    path = tmp_path / "two.json"
    path.write_text(json.dumps(data))
    common = ["--scenario", str(path), "--system", "back", "--n", "2"]
    bad = {
        "diagonal": ["construct", "--diagonal", "--p", "points", "--q", "@points", "--delta", "1"],
        "q-chain": ["construct", "--diagonal", "--p", "@points,@points", "--q", "@points,points", "--delta", "1"],
        "separated": ["construct", "--separated", "--p", "@points", "--q", "points", "--delta", "1"],
        "count": ["count", "--r", "@points", "--q", "points"],
        # a scenario cover named first does not override --system
        "count-scenario-first": ["count", "--r", "points", "--q", "@points"],
        "separated-scenario-first": ["construct", "--separated", "--p", "points", "--q", "@points", "--delta", "1"],
    }
    for label, argv in bad.items():
        out = tmp_path / label
        assert main([*argv, *common, "--out", str(out)]) == 2, label
        manifest = json.loads(read(out, "manifest.json"))
        assert manifest["error"] == "covers live on different systems", label
        assert manifest["outputs"] == {}, label
    out = tmp_path / "tail-total"
    argv = ["tail-total", "--scenario", str(path), "--system", "back", "--qfamily", "@points,points"]
    assert main([*argv, "--rfamily", "@points", "--nmax", "2", "--out", str(out)]) == 2
    assert json.loads(read(out, "manifest.json"))["error"] == "covers live on different systems"
    # the same chains run when every name lives on the system the first fixes
    out = tmp_path / "one-system"
    argv = ["construct", "--diagonal", "--p", "@points,points", "--q", "@points,points", "--delta", "1"]
    assert main([*argv, "--scenario", str(path), "--system", "loop", "--n", "2", "--out", str(out)]) == 0
    assert {row.split(",")[0] for row in read(out, "diagonal.csv").splitlines()[1:]} == {"loop"}

    # measures and factor maps follow the same rule; a factor map lives on
    # its target.  "up" lives on the map's source, "dot" on a one-point base
    with open(scenario_path("extension")) as fh:
        data = json.load(fh)
    data["measures"]["up"] = {"system": "doubled", "weights": [{"a0": "1/2"}, {"c0": "1/2"}]}
    data["driving_systems"]["one"] = {"prob": ["1"], "theta": [0]}
    data["systems"]["dot"] = {"base": "one", "fibers": [["a"]], "maps": [{"a": "a"}]}
    data["measures"]["at-dot"] = {"system": "dot", "weights": [{"a": "1"}]}
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps(data))
    unknown = "unknown system 'nosuch'"
    bad = {
        "entropy": (path, ["entropy", "--mu", "corner", "--r", "points", "--sigma", "@fibers", "--system", "back"]),
        "cesaro": (path, ["invariant", "--cesaro", "corner", "--system", "back"]),
        "cesaro-unknown": (path, ["invariant", "--cesaro", "corner", "--system", "nosuch"], unknown),
        "vertices-unknown": (path, ["invariant", "--vertices", "--system", "nosuch"], unknown),
        "lift-source": (ext, ["invariant", "--lift", "unwrap", "up"]),
        "lift-system": (ext, ["invariant", "--lift", "unwrap", "orbit", "--system", "doubled"]),
        "lift-one-point": (ext, ["invariant", "--lift", "unwrap", "at-dot"]),
    }
    for label, (scenario, argv, *error) in bad.items():
        out = tmp_path / label
        assert main([*argv, "--scenario", str(scenario), "--out", str(out)]) == 2, label
        manifest = json.loads(read(out, "manifest.json"))
        assert manifest["error"] == (error[0] if error else "covers live on different systems"), label
        assert manifest["outputs"] == {}, label


def test_cli_reruns_are_byte_identical(tmp_path):
    args = [
        "tail",
        "--scenario",
        scenario_path("swap"),
        "--r",
        "points",
        "--q",
        "whole",
        "--nmax",
        "6",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as f1, open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


# sha256 of the artifacts (the manifest, which names the scenario path, left
# out) of the README and benchmark `entropy` commands and two `construct
# --diagonal` runs, recorded before the measures summed masses as integer
# numerators; the entropy floats must not move by one bit
ARTIFACT_DIGESTS = {
    "entropy --scenario swap --mu uniform --r points --sigma @fibers": {
        "entropy.csv": "3fa7b4118c2073f8031f0ee017758c4af8f97e2fc4b98ebc1831ababab98efe3",
        "entropy.json": "8042fce38e8f2e48d9f641ba3a114cff61abe51a6fcde939e61f83c1efb0352d",
    },
    "entropy --scenario swap --mu orbit --r points --sigma @fibers": {
        "entropy.csv": "f1849e8b5c7b3c2eb6f52b28237e5a2d15400f7d2bed11082467d3def609921d",
        "entropy.json": "0c3010b5feb2a984b643113fb9613e4c9084cf38a0dc3eb5a9d2dc1e747bd31d",
    },
    "entropy --scenario cycle4 --mu spread --r points --sigma @fibers": {
        "entropy.csv": "f56b399458600e422803591a53facc51f3278960d6bb8f6edfac326939abf65c",
        "entropy.json": "3874ede81e448d9059d3a852bca7a0c40388d92e065d7f9c347d07949ecef9ec",
    },
    "entropy --scenario cycle4 --mu corner --r points --sigma halves": {
        "entropy.csv": "3e2cf2a24d2088fe1d2955038e31e0462ed665768683fbe8884af1acb6729423",
        "entropy.json": "0c3010b5feb2a984b643113fb9613e4c9084cf38a0dc3eb5a9d2dc1e747bd31d",
    },
    "entropy --scenario cycle4 --mu spread --r points --sigma @states --nmax 6": {
        "entropy.csv": "33fd0d350cc6217070d59b0720c48da538e761f3cbc9c320511d9725f923bcbb",
        "entropy.json": "924e8a09564e2252a1701727720af05fc3aa1fcd444a45c82484b9ba1bea2800",
    },
    "construct --scenario cycle4 --diagonal --p points --q points --n 8 --delta 1": {
        "diagonal.csv": "dfd4efa23e6cb5d29f62d662f7ae97f4dd70a7e7f8feb99a1ba5127cfe3979c3",
        "diagonal.json": "e1668592bbefbb97a41e9bf57acc52ca6bedbf17d053949861169a34b20b28b7",
    },
    "construct --scenario extension --diagonal --p @points --q @points --system doubled --n 4 --delta 1": {
        "diagonal.csv": "25005f400afc7fc88bf90a89e79f7ba45cde2fd93afafcc7621c0839dc7a09f0",
        "diagonal.json": "ea05a7586acfe676240894257013aa8f6bbf40f8980a80948268eddd7c5e724a",
    },
}


@pytest.mark.parametrize("command", sorted(ARTIFACT_DIGESTS))
def test_entropy_artifacts_are_pinned(tmp_path, command):
    argv = command.split()
    at = argv.index("--scenario") + 1
    argv[at] = scenario_path(argv[at])
    assert main([*argv, "--out", str(tmp_path)]) == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(tmp_path))
        if name != "manifest.json"
    }
    assert got == ARTIFACT_DIGESTS[command]


# a base whose transient points 0 -> 1 fall into the 2-cycle {2, 3}, which
# carries the mass; component 0 is shared with the conditioning family and
# resolved one coordinate deeper by the counted one
PREPERIODIC_SFT = {
    "schema_version": 1,
    "driving_systems": {"tail": {"prob": ["0", "0", "1/2", "1/2"], "theta": [1, 2, 3, 2]}},
    "sfts": {
        "driven": {
            "base": "tail",
            "components": [
                {"alphabet": 2, "matrices": [[[1, 1], [1, 0]], [[0, 1], [1, 1]], [[1, 1], [1, 0]], [[1, 0], [1, 1]]]},
                {
                    "alphabet": 3,
                    "matrices": [
                        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                        [[1, 1, 1], [1, 0, 0], [0, 0, 1]],
                        [[0, 1, 1], [1, 1, 0], [1, 0, 0]],
                        [[1, 0, 1], [0, 1, 1], [1, 1, 0]],
                    ],
                },
            ],
        }
    },
}

# sha256 of sft_tail.csv and sft_tail.json of the two README-form `sft-tail`
# commands on scenarios/shifts.json and of one sweep of PREPERIODIC_SFT,
# recorded before the word counts took powers of the cycle products
SFT_TAIL_DIGESTS = {
    "sft-tail --scenario shifts --sft pairshift --rspec 0,1:1 --qspec 0:1 --nmax 12": {
        "sft_tail.csv": "c9f2042f94acab5a4932ea89310959a050110ccb84a24a92a46a858a35c37bf7",
        "sft_tail.json": "747d05fec3f7ee4709b0b57fc7592eecb4df472e563a511be222600e97ab9cf0",
    },
    "sft-tail --scenario shifts --sft golden --rspec 0:1 --qspec=-:1 --nmax 12": {
        "sft_tail.csv": "ddd675dbb6be1cb85cbab0d2a1afd5871b7482c1079757613d3717e26695aba9",
        "sft_tail.json": "df31e76c75e23fe269e0612db72bfa6eb846c7805249e1b4026e4f3cd534c5e8",
    },
    "sft-tail --scenario preperiodic --sft driven --rspec 0,1:2 --qspec 0:1 --nmax 60": {
        "sft_tail.csv": "3ae06d138652087867a0a693e31628ee707c7ffebeb3625b72b6dcf1645c2621",
        "sft_tail.json": "4106da8ef810f5c38e6fbfddf858b5476d2bad20a90d829e6e19103d57b30e55",
    },
}


@pytest.mark.parametrize("command", sorted(SFT_TAIL_DIGESTS))
def test_sft_tail_artifacts_are_pinned(tmp_path, command):
    argv = command.split()
    at = argv.index("--scenario") + 1
    if argv[at] == "preperiodic":
        argv[at] = str(tmp_path / "preperiodic.json")
        with open(argv[at], "w") as fh:
            json.dump(PREPERIODIC_SFT, fh)
    else:
        argv[at] = scenario_path(argv[at])
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(out))
        if name != "manifest.json"
    }
    assert got == SFT_TAIL_DIGESTS[command]
