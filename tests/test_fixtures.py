"""The fixture corpus as a regression suite: every stored example keeps its
documented outcome."""

import json
from pathlib import Path

import pytest

from dspkit.cli import main

FIXTURES = Path(__file__).parent.parent / "fixtures"

# (fixture, command, extra argv, path -> expectations on the report)
CASES = [
    ("size11_invariants.json", "invariants", [], {"per_class.0.z": 23, "per_class.0.d": 98}),
    ("hypergeometric_n2.json", "decide", ["--trace"], {"verdict": "solvable", "kappa": 2, "trace.terminal_n": 1}),
    ("odd_family_n3.json", "decide", [], {"verdict": "solvable", "kappa": 2}),
    ("extra_case.json", "decide", ["--trace"], {"verdict": "solvable", "kappa": 2, "trace.terminal_n": 1}),
    ("extra_case.json", "classify", [], {"rigid_family": "extra_case"}),
    ("hypergeometric_n2.json", "classify", [], {"rigid_family": "hypergeometric", "good": True}),
    ("example41_generic.json", "generic", [], {"generic": True, "gcd.d": 4, "gcd.xi_primitive": True}),
    ("example41_nongeneric.json", "generic", [], {"generic": False, "relation.cardinality": 2}),
    ("example41_generic.json", "classify", [], {"weak_kappa0.verdict": "solvable", "kappa": 0}),
    ("example41_nongeneric.json", "classify", [], {"weak_kappa0.verdict": "not_solvable"}),
    ("special_a_k2.json", "classify", [], {"special_case.kind": "special_a", "kappa": 0,
                                           "unipotent_verdicts.dsp": "not_solvable",
                                           "unipotent_verdicts.weak_dsp": "not_solvable"}),
    ("special_b_k2.json", "classify", [], {"special_case.kind": "special_b", "kappa": 0}),
    ("special_c_k2.json", "classify", [], {"special_case.kind": "special_c", "kappa": 0}),
    ("special_d_k2.json", "classify", [], {"special_case.kind": "special_d", "kappa": 0}),
    ("almost_a_k2.json", "classify", [], {"special_case.kind": "almost_a",
                                          "unipotent_verdicts.weak_dsp": "solvable",
                                          "unipotent_verdicts.dsp": "not_solvable"}),
    ("almost_b_k2.json", "classify", [], {"special_case.kind": "almost_b"}),
    ("almost_c_k2.json", "classify", [], {"special_case.kind": "almost_c"}),
    ("almost_d_k2.json", "classify", [], {"special_case.kind": "almost_d"}),
    ("almost_d_k2_mult.json", "classify", [], {"unipotent_verdicts.dsp": "unknown",
                                               "unipotent_verdicts.weak_dsp": "solvable"}),
    ("good_n9.json", "classify", [], {"good": True, "kappa": 2}),
    ("good_n9_assigned.json", "classify", [], {"good": True, "special_diagonal.weak_verdict": "unknown"}),
    ("special_diagonal_n2.json", "classify", [], {"special_diagonal.weak_verdict": "not_solvable",
                                                  "special_diagonal.witness.n1": 2}),
    ("pair_n2.json", "decide", [], {"verdict": "not_solvable"}),
    ("strata_n2.json", "generic", [], {"evs_ok": True, "generic": False}),
]


def dig(report, dotted):
    value = report
    for key in dotted.split("."):
        value = value[int(key)] if key.isdigit() else value[key]
    return value


@pytest.mark.parametrize("fixture,command,extra,expect", CASES,
                         ids=[f"{c[1]}:{c[0]}" for c in CASES])
def test_fixture_regression(capsys, fixture, command, extra, expect):
    code = main([command, str(FIXTURES / fixture), *extra])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    for dotted, want in expect.items():
        assert dig(report, dotted) == want, f"{fixture}: {dotted}"


def test_realize_fixtures(capsys):
    code = main([
        "realize", str(FIXTURES / "strata_n2.json"),
        "--warm-start", str(FIXTURES / "s1_conjugators.json"), "--restarts", "1",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["certified"] and report["residual"] < 1e-12
    assert report["burnside_dim"] < 4 and report["centralizer_nullity"] == 1
    assert report["backend"] == "numpy"

    code = main([
        "realize", str(FIXTURES / "strata_n2.json"),
        "--warm-start", str(FIXTURES / "s0_conjugators.json"), "--restarts", "1",
    ])
    report = json.loads(capsys.readouterr().out)
    assert report["centralizer_nullity"] == 2


def test_nilpotent_strata_fixture(capsys):
    """Triangular triple with a genuine Jordan block: trivial centralizer but
    reducible, realized exactly from its warm start."""
    code = main([
        "realize", str(FIXTURES / "strata_nilpotent_n2.json"),
        "--warm-start", str(FIXTURES / "t1_conjugators.json"), "--restarts", "1",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["certified"] and report["residual"] < 1e-12
    assert report["burnside_dim"] == 3
    assert report["centralizer_nullity"] == 1
    assert report["matrices"][0] == [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def test_strata_relations_are_exactly_the_stated_ones():
    """The 2x2 strata fixture admits exactly the two documented relations."""
    from dspkit.genericity import relation_selection_count
    from dspkit.report import parse_problem

    with open(FIXTURES / "strata_n2.json") as fh:
        specs = parse_problem(json.load(fh)).specs
    assert relation_selection_count(specs, 1) == 2
