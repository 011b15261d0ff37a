"""Verification suites: determinism, passing status, honest reporting."""

import hashlib
import json
import math

import pytest

from rdstail import (
    extend_with_tags,
    identity_factor,
    principal_extension_check,
    run_cover_suite,
    run_entropy_suite,
    run_invariant_suite,
    run_principal_suite,
    run_suite,
    run_theorem_suite,
    swap_system,
)


def test_cover_suite_passes_and_is_deterministic():
    a = run_cover_suite(seed=7, trials=15)
    b = run_cover_suite(seed=7, trials=15)
    assert a.passed
    assert a.to_json() == b.to_json()
    assert a.scenario_digests == b.scenario_digests


def test_different_seeds_change_scenarios():
    a = run_cover_suite(seed=1, trials=5)
    b = run_cover_suite(seed=2, trials=5)
    assert a.scenario_digests != b.scenario_digests


def test_entropy_suite_passes():
    rep = run_entropy_suite(seed=3, trials=25)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert "entropy_le_log_count" in names
    assert "containment_entropy_bound" in names


def test_invariant_suite_passes():
    assert run_invariant_suite(seed=5, trials=25).passed


def test_theorem_suite_passes():
    rep = run_theorem_suite()
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert "finite_depth_chain" in names
    assert "pair_variational_exact" in names
    assert "diagonal_attains_maximum" in names


def test_principal_suite_passes_with_honest_details():
    rep = run_principal_suite()
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    ident = by_name["identity:principality_certified"]
    assert all(v["all_zero"] for v in ident.detail["vertices"])
    static = by_name["static-tags:principality_certified"]
    assert all(v["all_zero"] for v in static.detail["vertices"])
    # the rotating extension mixes tag sheets inside point preimages: its
    # vertex sequences sit at log(2), certified to a zero limit by the
    # structural bound, not by termwise vanishing
    rotating = by_name["rotating-cycle:principality_certified"]
    assert all(not v["all_zero"] for v in rotating.detail["vertices"])
    assert all(v["certified_zero_limit"] for v in rotating.detail["vertices"])
    for v in rotating.detail["vertices"]:
        assert all(abs(x - math.log(2)) <= 1e-9 for x in v["values"])


def test_principal_check_rejects_invalid_factor():
    swap = swap_system()
    pi = extend_with_tags(swap, tags=2, rotate=False)
    broken = type(pi)(source=pi.source, target=pi.target, maps=identity_factor(pi.source).maps)
    rep = principal_extension_check(broken)
    assert not rep.passed
    assert rep.checks[0].name == "factor_map_valid"


def test_reports_serialize_to_valid_json():
    rep = run_cover_suite(seed=11, trials=5)
    doc = json.loads(rep.to_json())
    assert doc["suite"] == "cover"
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(rep.checks)
    assert "PASS" in rep.summary()


def test_run_suite_dispatcher():
    assert run_suite("cover", seed=1, trials=3).passed
    assert run_suite("theorem", seed=0, trials=0).passed
    assert run_suite("principal", seed=0, trials=0).passed
    with pytest.raises(ValueError):
        run_suite("nope", seed=0, trials=0)


# sha256 of run_suite(...).to_json(), recorded on Python 3.11.7 before the
# theorem and principal suites shared one family sweep per polytope
REPORT_DIGESTS = {
    ("theorem", 0, 0): "b10e4fd6ca49cf06ca1d4236b708b0d504af4851f5dc67009d45b57beac4cea3",
    ("principal", 0, 0): "ef40babff7667e84b9f5a7b214c40888706be458892f30e8e014b19fe8e7babd",
    ("cover", 1, 20): "0d6c4120af0bf9e323626b1890207ab314d6b05436707ac26e560a1c134c2322",
    ("entropy", 1, 20): "39e31ae6324bc015e555f24afe72dc5a1d407098f2fde5ff2ef9d5c78bf4b051",
    ("invariant", 1, 20): "28f5e9e1a153d9835fe89739174cebb96cabc77e14c14baaa874ecc0e412e00d",
}


@pytest.mark.parametrize("name,seed,trials", sorted(REPORT_DIGESTS))
def test_suite_reports_are_pinned(name, seed, trials):
    report = run_suite(name, seed=seed, trials=trials).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_DIGESTS[name, seed, trials]


def test_suites_sweep_each_family_once(monkeypatch):
    import rdstail.covers
    import rdstail.measures

    # the sweeps step the one iterate engine of covers through the binding
    # measures imports; iterate_cover and separated_empirical call it from
    # covers and are not counted
    assert rdstail.measures._cell_steps is rdstail.covers._cell_steps
    sweeps = []
    original = rdstail.measures._cell_steps

    def counted(*args, **kwargs):
        sweeps.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(rdstail.measures, "_cell_steps", counted)
    run_theorem_suite()
    # per scenario: the vertex family (whose sequences also give the defect
    # diagnostics), the finite-depth chain's conditioning partition, the pair
    # vertex family and the diagonal measure
    assert len(sweeps) == 12
    sweeps.clear()
    run_principal_suite()
    assert len(sweeps) == 3
