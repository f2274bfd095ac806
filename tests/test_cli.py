"""Command-line interface: schemas, exit codes, round-trips, batch mode."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dspkit.cli import main
from dspkit.report import parse_problem

FIXTURES = Path(__file__).parent.parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("DSPKIT_SEED", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    reports = [json.loads(line) for line in out.splitlines() if line]
    return code, reports


class TestInvariants:
    def test_size11(self, capsys):
        code, (report,) = run(capsys, "invariants", str(FIXTURES / "size11_invariants.json"))
        assert code == 0
        assert report["schema_version"] == "1"
        assert report["per_class"][0] == {"z": 23, "d": 98, "r": 8}

    def test_extra_case_kappa(self, capsys):
        code, (report,) = run(capsys, "invariants", str(FIXTURES / "extra_case.json"))
        assert code == 0
        assert report["kappa"] == 2

    def test_malformed_blocks_exit2(self, capsys):
        code = main(["invariants", str(FIXTURES / "invalid_blocks.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "positive" in captured.err


    @pytest.mark.parametrize(
        "mode, eigenvalues, message",
        [
            ("additive", [1, 2], "must be a string"),
            ("additive", ["1/0", "-1/0"], "zero denominator"),
            ("multiplicative", ["{mod: 1, arg: 1/0}", "{mod: 1, arg: 0}"], "zero denominator"),
        ],
    )
    def test_bad_eigenvalue_exit2(self, capsys, tmp_path, mode, eigenvalues, message):
        cls = {"blocks": [[1], [1]], "eigenvalues": eigenvalues}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mode": mode, "classes": [cls] * 3}))
        code = main(["invariants", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err

    def test_boolean_block_size_exit2(self, capsys, tmp_path):
        problem = {"mode": "additive", "classes": [{"blocks": [[True], [1]]}] * 3}
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(problem))
        code = main(["invariants", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "positive integers" in captured.err


class TestDecide:
    def test_hypergeometric_trace(self, capsys):
        code, (report,) = run(
            capsys, "decide", str(FIXTURES / "hypergeometric_n2.json"), "--trace"
        )
        assert code == 0
        assert report["verdict"] == "solvable"
        assert report["trace"]["terminal_n"] == 1
        assert report["kappa"] == 2

    def test_odd_family_two_steps(self, capsys):
        code, (report,) = run(
            capsys, "decide", str(FIXTURES / "odd_family_n3.json"), "--trace"
        )
        assert report["verdict"] == "solvable"
        assert len(report["trace"]["steps"]) == 2

    def test_pair_not_solvable(self, capsys):
        code, (report,) = run(capsys, "decide", str(FIXTURES / "pair_n2.json"))
        assert code == 0
        assert report["verdict"] == "not_solvable"

    def test_weak_needs_distinct_entry(self, capsys):
        code, reports = run(capsys, "decide", str(FIXTURES / "special_a_k2.json"), "--weak")
        assert code == 3
        assert reports[0]["verdict"] == "not_applicable"

    def test_verdicts_carry_provenance(self, capsys):
        _, (report,) = run(capsys, "decide", str(FIXTURES / "hypergeometric_n2.json"))
        assert "criterion" in report["provenance"]


class TestGeneric:
    def test_example41_generic(self, capsys):
        code, (report,) = run(capsys, "generic", str(FIXTURES / "example41_generic.json"))
        assert code == 0
        assert report["generic"] is True
        assert report["gcd"]["xi_primitive"] is True
        assert report["relation"] is None

    def test_example41_nongeneric_witness(self, capsys):
        code, (report,) = run(capsys, "generic", str(FIXTURES / "example41_nongeneric.json"))
        assert report["generic"] is False
        assert report["relation"]["cardinality"] == 2
        assert report["relation"]["selections"] == [[2], [2], [2], [2]]

    @pytest.mark.parametrize(
        "name, pinned",
        [
            ("example41_generic", {
                "n": 4, "p": 3, "evs_ok": True,
                "gcd": {"d": 4, "xi": "{mod: 1, arg: 1/4}", "xi_primitive": True},
                "relation": None, "generic": True, "generalized_beta": True}),
            ("example41_nongeneric", {
                "n": 4, "p": 3, "evs_ok": True,
                "gcd": {"d": 4, "xi": "{mod: 1, arg: 1/2}", "xi_primitive": False},
                "relation": {"cardinality": 2, "selections": [[2], [2], [2], [2]]},
                "generic": False, "generalized_beta": True}),
            ("special_diagonal_n2", {
                "n": 2, "p": 2, "evs_ok": True,
                "gcd": {"d": 2, "xi": "{mod: 1, arg: 0}", "xi_primitive": False},
                "relation": {"cardinality": 1, "selections": [[1], [1], [1]]},
                "generic": False, "generalized_beta": False}),
        ],
    )
    def test_multiplicative_fixtures_pinned(self, capsys, name, pinned):
        path = str(FIXTURES / f"{name}.json")
        code, (report,) = run(capsys, "generic", path)
        assert code == 0
        assert report == {"schema_version": "1", "command": "generic",
                          "input": json.loads((FIXTURES / f"{name}.json").read_text()),
                          **pinned, "input_path": path}

    def test_multiplicative_fixture_without_eigenvalues_exit2(self, capsys):
        assert main(["generic", str(FIXTURES / "almost_d_k2_mult.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: command 'generic' requires an eigenvalue for every slot of every class\n"
        )

    @pytest.mark.parametrize(
        "last, pinned",
        [
            # 2 * 1/2 * 1 = 1 with 1/3 + 1/4 + 5/12 = 1: a relation at k = 1
            ("{mod: 1, arg: 2/3}", {
                "evs_ok": True, "relation": {"cardinality": 1, "selections": [[1, 0], [0, 1], [0, 1]]},
                "generic": False, "generalized_beta": False}),
            # the moduli multiply to 6
            ("{mod: 6, arg: 2/3}", {
                "evs_ok": False, "relation": None, "generic": None, "generalized_beta": None,
                "note": "global product/sum constraint fails; genericity undefined"}),
        ],
    )
    def test_moduli_other_than_one_pinned(self, capsys, tmp_path, last, pinned):
        from dspkit.genericity import check_evs

        from oracles import fraction_check_evs

        problem = {"mode": "multiplicative", "classes": [
            {"blocks": [[1], [1]], "eigenvalues": ["{mod: 2, arg: 1/3}", "{mod: 1/6, arg: 0}"]},
            {"blocks": [[1], [1]], "eigenvalues": ["{mod: 6, arg: 1/3}", "{mod: 1/2, arg: 1/4}"]},
            {"blocks": [[1], [1]], "eigenvalues": [last, "{mod: 1, arg: 5/12}"]},
        ]}
        path = tmp_path / "moduli.json"
        path.write_text(json.dumps(problem))
        code, (report,) = run(capsys, "generic", str(path))
        assert code == 0
        assert report == {"schema_version": "1", "command": "generic", "input": problem,
                          "n": 2, "p": 2, "gcd": {"d": 1, "xi": None, "xi_primitive": None},
                          **pinned, "input_path": str(path)}
        specs = parse_problem(problem).specs
        assert report["evs_ok"] == fraction_check_evs(specs) == check_evs(specs)

    def test_missing_eigenvalues_exit2(self, capsys):
        code = main(["generic", str(FIXTURES / "hypergeometric_n2.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "eigenvalue" in captured.err

    def test_relation_budget_exceeded_exit3(self, capsys, tmp_path):
        # size 17 is over the exact-enumeration cap
        n = 17
        problem = {
            "mode": "additive",
            "classes": [
                {"blocks": [[1]] * n, "eigenvalues": [str(i) for i in range(n)]},
                {"blocks": [[1]] * n, "eigenvalues": [str(-i) for i in range(n)]},
                {"blocks": [[1]] * n,
                 "eigenvalues": [str(i + 20) for i in range(n - 1)] + [str(-sum(range(20, 20 + n - 1)))]},
            ],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(problem))
        code, (report,) = run(capsys, "generic", str(path))
        assert code == 3
        assert report["relation"]["status"] == "resource_exceeded"

    @pytest.mark.parametrize("n, generic", [(12, True), (14, True), (16, False)])
    def test_sampled_hypergeometric_rows(self, capsys, tmp_path, n, generic):
        # the relation search looks complements up in the largest of the
        # three classes and stops at k = n/2; at n = 16 and k = 8 the DP
        # stages of the two 16-slot classes hold 179,714 states, and the fold
        # of one of them with the third class passes the default budget
        from dspkit.classify import RigidFamily, rigid_family_tuple
        from dspkit.genericity import sample_generic
        from dspkit.scalars import format_scalar

        specs = sample_generic(rigid_family_tuple(RigidFamily.HYPERGEOMETRIC, n), "additive", 3)
        classes = [
            {"blocks": [list(p.parts) for p in s.jnf.slots],
             "eigenvalues": [format_scalar(ev) for ev in s.eigenvalues]}
            for s in specs
        ]
        path = tmp_path / f"hypergeometric_n{n}.json"
        path.write_text(json.dumps({"mode": "additive", "classes": classes}))
        code, (report,) = run(capsys, "generic", str(path))
        assert report["evs_ok"] is True and report["generalized_beta"] is True
        if generic:
            assert code == 0
            assert report["generic"] is True and report["relation"] is None
        else:
            assert code == 3
            assert report["generic"] is None
            assert report["relation"]["status"] == "resource_exceeded"
            assert report["relation"]["detail"] == (
                "relation search exceeded its state budget at cardinality k=8: "
                "200001 states used, budget 200000"
            )

    def test_generalized_beta_budget_exceeded_keeps_report(self, capsys, monkeypatch):
        import dspkit.genericity as genericity

        # two eigenvalues per class: 2 sums at k=1, 4 at k=2
        monkeypatch.setattr(genericity, "DEFAULT_STATE_BUDGET", 3)
        path = FIXTURES / "hypergeometric_n2_generic.json"
        code, (report,) = run(capsys, "generic", str(path))
        assert code == 3
        assert report["evs_ok"] is True
        assert report["gcd"] == {"d": 1, "xi": None, "xi_primitive": None}
        assert report["relation"] is None and report["generic"] is True
        assert report["generalized_beta"] == {
            "status": "resource_exceeded",
            "detail": "generalized rank condition exceeded its state budget at "
            "cardinality k=2: 4 states used, budget 3",
        }


class TestClassify:
    def test_special_d(self, capsys):
        _, (report,) = run(capsys, "classify", str(FIXTURES / "special_d_k2.json"))
        assert report["special_case"] == {"kind": "special_d", "k": 2}
        assert report["unipotent_verdicts"]["weak_dsp"] == "not_solvable"
        assert report["kappa"] == 0

    def test_almost_d_modes(self, capsys):
        _, (report,) = run(capsys, "classify", str(FIXTURES / "almost_d_k2.json"))
        assert report["unipotent_verdicts"]["dsp"] == "not_solvable"
        assert report["unipotent_verdicts"]["weak_dsp"] == "solvable"
        _, (report_mult,) = run(capsys, "classify", str(FIXTURES / "almost_d_k2_mult.json"))
        assert report_mult["unipotent_verdicts"]["dsp"] == "unknown"

    def test_good_n9(self, capsys):
        _, (report,) = run(capsys, "classify", str(FIXTURES / "good_n9.json"))
        assert report["good"] is True
        assert report["special_diagonal"] == {"status": "needs_eigenvalues"}

    def test_good_n9_assigned_not_special(self, capsys):
        _, (report,) = run(capsys, "classify", str(FIXTURES / "good_n9_assigned.json"))
        assert report["good"] is True
        assert report["special_diagonal"]["weak_verdict"] == "unknown"
        assert "witness" not in report["special_diagonal"]

    def test_special_diagonal_witness(self, capsys):
        _, (report,) = run(capsys, "classify", str(FIXTURES / "special_diagonal_n2.json"))
        sd = report["special_diagonal"]
        assert sd["weak_verdict"] == "not_solvable"
        assert sd["witness"]["n1"] == 2

    def test_kappa_not_two_reported(self, capsys):
        _, (report,) = run(capsys, "classify", str(FIXTURES / "special_a_k2.json"))
        assert report["special_diagonal"] == {"status": "kappa_not_two"}

    def test_rigid_fixture(self, capsys):
        _, (report,) = run(capsys, "classify", str(FIXTURES / "extra_case.json"))
        assert report["rigid_family"] == "extra_case"

    def test_example41_weak_kappa0(self, capsys):
        _, (report,) = run(capsys, "classify", str(FIXTURES / "example41_generic.json"))
        assert report["weak_kappa0"]["verdict"] == "solvable"
        _, (report2,) = run(capsys, "classify", str(FIXTURES / "example41_nongeneric.json"))
        assert report2["weak_kappa0"]["verdict"] == "not_solvable"


class TestRealize:
    def test_s1_warm_start(self, capsys):
        code, (report,) = run(
            capsys,
            "realize",
            str(FIXTURES / "strata_n2.json"),
            "--warm-start",
            str(FIXTURES / "s1_conjugators.json"),
            "--restarts",
            "1",
        )
        assert code == 0
        assert report["found"] and report["certified"]
        assert report["residual"] < 1e-12
        assert report["burnside_dim"] < 4
        assert report["centralizer_nullity"] == 1

    def test_s0_warm_start(self, capsys):
        code, (report,) = run(
            capsys,
            "realize",
            str(FIXTURES / "strata_n2.json"),
            "--warm-start",
            str(FIXTURES / "s0_conjugators.json"),
            "--restarts",
            "1",
        )
        assert report["centralizer_nullity"] == 2

    def test_pair_found_false_exit0(self, capsys):
        code, (report,) = run(
            capsys,
            "realize",
            str(FIXTURES / "pair_n2.json"),
            "--restarts",
            "3",
            "--iters",
            "40",
        )
        assert code == 0
        assert report["found"] is False

    def test_hypergeometric_certified(self, capsys):
        code, (report,) = run(
            capsys,
            "realize",
            str(FIXTURES / "hypergeometric_n2_generic.json"),
            "--restarts",
            "20",
            "--seed",
            "2",
        )
        assert report["found"] and report["certified"]
        assert report["irreducible"] is True
        assert len(report["matrices"]) == 3
        assert len(report["matrices"][0][0][0]) == 2  # [re, im] pairs

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("DSPKIT_SEED", "123")
        _, (report,) = run(
            capsys,
            "realize",
            str(FIXTURES / "pair_n2.json"),
            "--restarts",
            "1",
            "--iters",
            "5",
            "--seed",
            "7",
        )
        assert report["budget"]["seed"] == 123

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--restarts", "0", "--restarts must be at least 1, got 0"),
            ("--iters", "-1", "--iters must be at least 1, got -1"),
            ("--tol", "-1", "--tol must be positive, got -1.0"),
            ("--jobs", "-3", "--jobs must be at least 1, got -3"),
            ("--seed", "-1", "--seed must be in [0, 2**32), got -1"),
            ("--seed", str(2**32), f"--seed must be in [0, 2**32), got {2**32}"),
        ],
    )
    def test_bad_budget_exit2(self, capsys, flag, value, message):
        code = main(["realize", str(FIXTURES / "pair_n2.json"), flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "env_seed, message",
        [
            ("abc", "DSPKIT_SEED must be an integer, got 'abc'"),
            ("-1", "DSPKIT_SEED must be in [0, 2**32), got -1"),
        ],
    )
    def test_bad_env_seed_exit2(self, capsys, monkeypatch, env_seed, message):
        monkeypatch.setenv("DSPKIT_SEED", env_seed)
        code = main(["realize", str(FIXTURES / "pair_n2.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_env_seed_ignored_by_exact_commands(self, capsys, monkeypatch):
        monkeypatch.setenv("DSPKIT_SEED", "abc")
        code, (report,) = run(capsys, "decide", str(FIXTURES / "pair_n2.json"))
        assert code == 0
        assert report["command"] == "decide"


    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read: No such file or directory"),
            ("{nope", "not valid JSON"),
            ('{"conjugators": 3}', "warm-start file needs a 'conjugators' field"),
            ('{"conjugators": [[[[1, 0], [0]]]]}', "matrix JSON must be rows of [re, im] pairs"),
            (
                '{"conjugators": [[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]'
                ', [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}',
                "warm start must have finite entries",
            ),
        ],
    )
    def test_bad_warm_start_exit2(self, capsys, tmp_path, content, message):
        warm = tmp_path / "qs.json"
        if content is not None:
            warm.write_text(content)
        code = main(["realize", str(FIXTURES / "strata_n2.json"), "--warm-start", str(warm)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("restarts", ["1", "2"])
    def test_singular_warm_start_skipped(self, capsys, tmp_path, restarts):
        zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
        warm = tmp_path / "zeros.json"
        warm.write_text(json.dumps({"conjugators": [zero] * 3}))
        code, (report,) = run(
            capsys,
            "realize",
            str(FIXTURES / "hypergeometric_n2_generic.json"),
            "--warm-start",
            str(warm),
            "--restarts",
            restarts,
        )
        if restarts == "1":
            assert code == 3
            assert report["verdict"] == "not_applicable"
            assert "condition cap" in report["reason"]
        else:
            assert code == 0
            assert report["found"] and report["restart_index"] == 1


class TestEnumerateRigid:
    def test_n2(self, capsys):
        code, (report,) = run(capsys, "enumerate-rigid", "--n", "2", "--p", "2")
        assert code == 0
        assert report["count"] == 1
        assert report["tuples"][0]["rigid_family"] == "hypergeometric"

    def test_n1_trivial(self, capsys):
        _, (report,) = run(capsys, "enumerate-rigid", "--n", "1")
        assert report["count"] == 1
        assert report["tuples"][0]["multiplicities"] == [[1], [1], [1]]

    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-2"), ("--p", "-2")])
    def test_below_one_exit2(self, capsys, flag, value):
        argv = ["enumerate-rigid", "--n", "3", "--p", "2"]
        argv[argv.index(flag) + 1] = value
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{flag} must be at least 1, got {value}" in captured.err

    def test_n6_contains_table_families(self, capsys):
        _, (report,) = run(capsys, "enumerate-rigid", "--n", "6", "--p", "2")
        with_distinct = [
            t for t in report["tuples"] if [1, 1, 1, 1, 1, 1] in t["multiplicities"]
        ]
        families = sorted(t["rigid_family"] for t in with_distinct)
        assert families == ["even_family", "extra_case", "hypergeometric"]


class TestRoundTripAndBatch:
    @pytest.mark.parametrize(
        "name",
        [
            "size11_invariants.json",
            "example41_generic.json",
            "good_n9_assigned.json",
            "strata_n2.json",
        ],
    )
    def test_echo_reparses_identically(self, capsys, name):
        _, (report,) = run(capsys, "invariants", str(FIXTURES / name))
        with open(FIXTURES / name) as fh:
            original = parse_problem(json.load(fh))
        echoed = parse_problem(report["input"])
        assert echoed.tuple == original.tuple
        assert echoed.mode == original.mode
        if original.specs is not None:
            assert echoed.specs == original.specs

    def test_batch_directory(self, capsys, tmp_path):
        for name in ("hypergeometric_n2.json", "extra_case.json", "odd_family_n3.json"):
            (tmp_path / name).write_text((FIXTURES / name).read_text())
        code, reports = run(capsys, "decide", str(tmp_path))
        assert code == 0
        assert len(reports) == 3
        assert all(r["verdict"] == "solvable" for r in reports)
        paths = [r["input_path"] for r in reports]
        assert paths == sorted(paths)

    def test_batch_parallel_same_output(self, capsys, tmp_path):
        for name in ("hypergeometric_n2.json", "extra_case.json"):
            (tmp_path / name).write_text((FIXTURES / name).read_text())
        _, serial = run(capsys, "decide", str(tmp_path))
        _, parallel = run(capsys, "decide", str(tmp_path), "--jobs", "3")
        assert serial == parallel

    def test_batch_mixed_applicability(self, capsys, tmp_path):
        (tmp_path / "a_hyper.json").write_text(
            (FIXTURES / "hypergeometric_n2.json").read_text()
        )
        (tmp_path / "b_special.json").write_text((FIXTURES / "special_a_k2.json").read_text())
        code, reports = run(capsys, "decide", str(tmp_path), "--weak")
        assert code == 3
        assert reports[0]["verdict"] == "solvable"
        assert reports[1]["verdict"] == "not_applicable"
        assert reports[1]["input_path"].endswith("b_special.json")

    def test_batch_not_applicable_line_matches_single_file(self, capsys, tmp_path):
        (tmp_path / "special_a_k2.json").write_text((FIXTURES / "special_a_k2.json").read_text())
        assert main(["decide", str(FIXTURES / "special_a_k2.json"), "--weak"]) == 3
        single = capsys.readouterr().out
        assert main(["decide", str(tmp_path), "--weak"]) == 3
        batch = capsys.readouterr().out
        path = str(tmp_path / "special_a_k2.json")
        assert batch == json.dumps(
            {
                "schema_version": "1",
                "command": "decide",
                "verdict": "not_applicable",
                "reason": "no entry has n distinct eigenvalues",
                "requirement": "one entry must be the distinct-eigenvalue JNF",
                "input_path": path,
            }
        ) + "\n"
        assert json.loads(batch) == dict(json.loads(single), input_path=path)

    @pytest.mark.parametrize("command", ["invariants", "decide", "generic", "classify"])
    def test_jobs_below_one_exit2(self, capsys, command):
        code = main([command, str(FIXTURES), "--jobs", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--jobs must be at least 1, got 0" in captured.err

    def test_empty_batch_exit2(self, capsys, tmp_path):
        code = main(["decide", str(tmp_path)])
        assert code == 2

    def test_not_json_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["decide", str(bad)]) == 2

    def test_missing_file_exit2(self, capsys, tmp_path):
        code = main(["decide", str(tmp_path / "missing.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "missing.json: cannot read: No such file or directory" in captured.err

    def test_batch_keeps_going_past_unreadable_entry(self, capsys, tmp_path):
        for name in ("a.json", "c.json"):
            (tmp_path / name).write_text((FIXTURES / "hypergeometric_n2.json").read_text())
        (tmp_path / "b.json").mkdir()
        (tmp_path / "d.json").write_text("{nope")
        (tmp_path / "e.json").write_text((FIXTURES / "invalid_blocks.json").read_text())
        code = main(["decide", str(tmp_path)])
        captured = capsys.readouterr()
        reports = [json.loads(line) for line in captured.out.splitlines()]
        assert code == 2
        assert [Path(r["input_path"]).name for r in reports] == ["a.json", "c.json"]
        # each line names its file once
        assert captured.err.splitlines() == [
            f"{tmp_path / 'b.json'}: cannot read: Is a directory",
            f"{tmp_path / 'd.json'}: not valid JSON: Expecting property name enclosed "
            "in double quotes: line 1 column 2 (char 1)",
            f"{tmp_path / 'e.json'}: class 0: block sizes must be positive integers",
        ]


def run_python(script: str, *args: str, env: dict) -> dict:
    """Run `script` in a fresh interpreter on ./src; it prints one JSON object."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(env, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


EXACT_THEN_REALIZE = """
import contextlib, io, json, sys
import dspkit, dspkit.cli
fixtures = sys.argv[1]
runs = [[cmd, fixtures] for cmd in ("invariants", "decide", "generic", "classify")]
runs += [["decide", fixtures, "--trace"], ["decide", fixtures + "/extra_case.json", "--trace"]]
runs += [["enumerate-rigid", "--n", "4"]]
out = {}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    out["codes"] = [dspkit.cli.main(argv) for argv in runs]
    out["numpy_after_exact"] = "numpy" in sys.modules
    out["realize_code"] = dspkit.cli.main(
        ["realize", fixtures + "/hypergeometric_n2_generic.json", "--restarts", "2", "--iters", "20"])
    out["numpy_after_realize"] = "numpy" in sys.modules
out["names"] = [dspkit.realize.__name__, dspkit.SearchBudget.__name__,
                dspkit.RealizationResult.__name__]
print(json.dumps(out))
"""

BLAS_AT_NUMPY_IMPORT = """
import contextlib, io, json, os, sys
seen = {}
class Spy:
    # records the BLAS thread variables at the moment numpy is first imported
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
sys.meta_path.insert(0, Spy())
from dspkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["realize", sys.argv[1], "--restarts", "1", "--iters", "5"])
print(json.dumps({"code": code, "at_numpy_import": seen,
                  "after": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


class TestNumpyLoading:
    """Only `realize` loads numpy, and the CLI chooses one BLAS thread first."""

    def test_exact_commands_leave_numpy_unloaded(self):
        out = run_python(EXACT_THEN_REALIZE, str(FIXTURES), env=os.environ)
        # the batch runs over every fixture, the unreadable ones included
        assert out["codes"] == [2, 2, 2, 2, 2, 0, 0]
        assert out["numpy_after_exact"] is False
        assert out["realize_code"] == 0
        assert out["numpy_after_realize"] is True
        assert out["names"] == ["realize", "SearchBudget", "RealizationResult"]

    def test_realize_pins_blas_threads_before_numpy(self):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        out = run_python(BLAS_AT_NUMPY_IMPORT, str(FIXTURES / "pair_n2.json"), env=env)
        assert out["code"] == 0
        assert out["at_numpy_import"] == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }
        assert out["after"] == "1"

    def test_caller_thread_count_wins(self):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["OPENBLAS_NUM_THREADS"] = "2"
        out = run_python(BLAS_AT_NUMPY_IMPORT, str(FIXTURES / "pair_n2.json"), env=env)
        assert out["code"] == 0
        assert out["at_numpy_import"]["OPENBLAS_NUM_THREADS"] == "2"
        assert out["at_numpy_import"]["OMP_NUM_THREADS"] == "1"
        assert out["after"] == "2"
