"""Workload `cli`: `python -m dspkit` process runs, one run per operation.

Each round makes the same runs: single-file `invariants`, `decide --trace`,
`generic`, `classify`, a small `realize`, `realize` on the additive
hypergeometric row at n=5 (which finds no witness at this budget: a known
fault, counted as failed) and `enumerate-rigid`, then batch runs of
`decide --trace` and `generic` over a directory of generated problems.  Problem files are written from --seed into a scratch directory
under .perfbench/ in the checkout, removed when the run ends.  Every report
is parsed, must carry schema_version "1", echo its input so that it reparses
unchanged, and agree with the same library calls made in this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import inputs
import reference as ref
from dspkit import cli as dsp_cli
from dspkit.classify import is_good, match_rigid_family, weak_verdict_kappa0
from dspkit.decide import decide_generic
from dspkit.enumerate import enumerate_rigid_diagonal
from dspkit.genericity import check_evs, find_relation, gcd_reduction
from dspkit.jnf import invariant_summary
from dspkit.report import base_report, decision_json, echo_problem, parse_problem
from dspkit.scalars import parse_scalar
from meter import per_call
from reference import check

NAME = "cli"
WINDOWS_PER_ROUND = 1
ROOT = Path(__file__).resolve().parent.parent
BATCH_SIZE = 24
SMOKE_BATCH_SIZE = 4
REALIZE_ARGS = ["--restarts", "10", "--iters", "60"]
START_SAMPLES = 3
JOBS = min(2, len(os.sched_getaffinity(0)))

LAYER_UNITS = {
    "scalars.parse_us": "us",
    "report.parse_problem_us": "us",
    "report.render_us": "us",
    "cli.python_start_s": "s",
    "cli.import_s": "s",
    "cli.main_inprocess_ms": "ms",
    "cli.batch_problems_per_s": "problems/s",
    "cli.batch_jobs2_problems_per_s": "problems/s",
}


def _format(mode: str, value) -> str:
    """Scalar text syntax, written here rather than by the program."""
    if mode == "additive":
        return str(value[0])
    return f"{{mod: {value[0]}, arg: {value[1]}}}"


def _doc(mode: str, blocks, values=None) -> dict:
    classes = []
    for i, entry in enumerate(blocks):
        cls = {"blocks": [list(part) for part in entry]}
        if values is not None:
            cls["eigenvalues"] = [_format(mode, v) for v in values[i]]
        classes.append(cls)
    return {"mode": mode, "classes": classes}


def _reduction_defined(rng, n_lo: int, n_hi: int, classes: int):
    """A random reduction-defined JNF tuple, as plain int tuples."""
    while True:
        n = rng.randint(n_lo, n_hi)
        entry_pool = [_random_entry(rng, n) for _ in range(classes)]
        tup = tuple(entry_pool)
        alpha, beta, omega = ref.conditions(tup)
        if alpha and beta and not omega:
            return tup


def _random_entry(rng, n: int):
    slots = []
    left = n
    while left:
        total = rng.randint(1, left)
        parts = []
        rest = total
        while rest:
            b = rng.randint(1, rest)
            parts.append(b)
            rest -= b
        slots.append(tuple(sorted(parts, reverse=True)))
        left -= total
    return tuple(sorted(slots, reverse=True))


def reset_caches():
    pass


def setup(seed: int, meter, smoke: bool) -> dict:
    work = ROOT / ".perfbench" / f"cli-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _write_inputs(random.Random(seed), work, smoke)
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise


def _write_inputs(rng, work: Path, smoke: bool) -> dict:
    batch_dir = work / "batch"
    batch_dir.mkdir(parents=True)
    files = {}

    def write(name, doc):
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = (path, doc)

    write("invariants", _doc("additive", _reduction_defined(rng, 6, 9, 4)))
    write("decide", _doc("additive", _reduction_defined(rng, 7, 10, 3)))
    hyper = inputs.rigid_rows(5)["hypergeometric"]
    mode = rng.choice(["additive", "multiplicative"])
    write("generic", _doc(mode, inputs.plain(hyper), inputs.draw_distinct(rng, mode, hyper)))
    d4 = [[2, 2]] * 4
    mode = rng.choice(["additive", "multiplicative"])
    write("classify", _doc(mode, inputs.plain(d4), inputs.draw_distinct(rng, mode, d4)))
    small = [[1, 1, 1]] * 4  # kappa -6, n=3: realizes at the first restart
    mode = rng.choice(["additive", "multiplicative"])
    write("realize", _doc(mode, inputs.plain(small), inputs.generic_values(rng, mode, small)))
    fault_mults, fault_values = inputs.realize_fault()
    write("realize_fault", _doc("additive", inputs.plain(fault_mults), fault_values))
    enum_args = (rng.choice([5, 6]), rng.choice([2, 3]))

    batch = []
    for i in range(SMOKE_BATCH_SIZE if smoke else BATCH_SIZE):
        raw = _reduction_defined(rng, 2, 5, rng.choice([3, 4]))
        mode = ("additive", "multiplicative")[i % 2]
        mults = [[sum(part) for part in entry] for entry in raw]  # slot multiplicities
        doc = _doc(mode, raw, inputs.draw_distinct(rng, mode, mults))
        path = batch_dir / f"p{i:03d}.json"
        path.write_text(json.dumps(doc))
        batch.append((path, doc))
    realize_seed = rng.randrange(1 << 20)
    runs = [  # (input file, command, arguments)
        ("invariants", "invariants", []),
        ("decide", "decide", ["--trace"]),
        ("generic", "generic", []),
        ("classify", "classify", []),
        ("realize", "realize", [*REALIZE_ARGS, "--seed", str(realize_seed)]),
        ("realize_fault", "realize", [*REALIZE_ARGS, "--seed", "0"]),
        (None, "enumerate-rigid", ["--n", str(enum_args[0]), "--p", str(enum_args[1])]),
        ("batch", "decide", ["--trace"]),
        ("batch", "generic", []),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("DSPKIT_SEED", None)
    return {"work": work, "files": files, "batch": batch, "batch_dir": batch_dir,
            "runs": runs, "env": env, "enum": enum_args}


def round_ops(state):
    return state["runs"]


def cleanup(state):
    shutil.rmtree(state["work"], ignore_errors=True)


def _spawn(state, argv):
    return subprocess.run([sys.executable, *argv], env=state["env"], cwd=state["work"],
                          capture_output=True, text=True, timeout=120)


def run_op(state, item, meter) -> bool:
    key, command, args = item
    if key == "batch":
        target, name, units = [str(state["batch_dir"])], "cli.batch", len(state["batch"])
    else:
        target, name, units = [str(state["files"][key][0])] if key else [], "cli.run." + command, 1
    proc = meter.call(name, _spawn, state, ["-m", "dspkit", command, *target, *args], _units=units)
    check(proc.returncode == 0, f"dspkit {command} exited {proc.returncode}: {proc.stderr[-500:]}")
    reports = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    if key is None:
        (report,) = reports
        _check_enumerate(state, report)
        return True
    if key == "batch":
        check(len(reports) == len(state["batch"]), f"batch {command} gave {len(reports)} reports")
        docs = dict((str(p), d) for p, d in state["batch"])
        for report in reports:
            _check_report(command, report, docs[report["input_path"]])
        return True
    (report,) = reports
    if key == "realize_fault" and report.get("found") is False:
        return False
    _check_report(command, report, state["files"][key][1])
    return True


def _check_report(command: str, report: dict, doc: dict) -> None:
    check(report.get("schema_version") == "1", f"{command}: schema_version")
    check(report.get("command") == command, f"{command}: command field")
    echo = report["input"]
    check(echo_problem(parse_problem(echo)) == echo, f"{command}: echo does not reparse unchanged")
    problem = parse_problem(doc)
    check(echo == echo_problem(problem), f"{command}: echo differs from the input")
    for cls, sent in zip(echo["classes"], doc["classes"]):
        if "eigenvalues" in sent:
            got = sorted(parse_scalar(t, doc["mode"]).sort_key() for t in cls["eigenvalues"])
            want = sorted(parse_scalar(t, doc["mode"]).sort_key() for t in sent["eigenvalues"])
            check(got == want, f"{command}: echoed eigenvalues")
    tup = problem.tuple
    raw = tuple(tuple(tuple(s.parts) for s in e.slots) for e in tup.entries)
    check(report["n"] == ref.size(raw[0]) and report["p"] == len(raw) - 1, f"{command}: n, p")
    if command == "invariants":
        summary = invariant_summary(tup)
        check(report["kappa"] == ref.kappa(raw) == summary.kappa, "invariants: kappa")
        want = [{"z": ref.z_of(e), "d": ref.size(e) ** 2 - ref.z_of(e), "r": ref.r_of(e)} for e in raw]
        check(report["per_class"] == want, "invariants: per-class r, d, z")
    elif command == "decide":
        decision = decide_generic(tup)
        check(report["verdict"] == decision.verdict.value, "decide: verdict")
        check(report["verdict"] == ("solvable" if ref.reduction_verdict(raw)[0] else "not_solvable"),
              "decide: verdict against the reference")
        steps = report["trace"]["steps"]
        check(len(steps) == len(decision.trace.steps), "decide: trace length")
        for step in steps:
            step_raw = tuple(tuple(tuple(p) for p in e) for e in step["tuple"])
            check(ref.kappa(step_raw) == report["kappa"], "decide: kappa along the trace")
            check(step["n1"] == sum(ref.r_of(e) for e in step_raw) - step["n"], "decide: n1")
    elif command == "generic":
        specs = problem.require_specs("generic")
        check(report["evs_ok"] == check_evs(specs), "generic: evs_ok")
        check(report["gcd"]["d"] == gcd_reduction(specs).d, "generic: gcd")
        if report["evs_ok"]:
            witness = find_relation(specs)
            check(report["generic"] == (witness is None), "generic: verdict")
            if witness is not None:
                check(report["relation"]["cardinality"] == witness.cardinality, "generic: relation")
    elif command == "classify":
        check(report["kappa"] == ref.kappa(raw), "classify: kappa")
        check(report["rigid_family"] == match_rigid_family(tup).value, "classify: rigid family")
        check(report["good"] == is_good(tup), "classify: good")
        if "weak_kappa0" in report:
            want = weak_verdict_kappa0(problem.specs).value
            check(report["weak_kappa0"]["verdict"] == want, "classify: kappa-0 verdict")
    elif command == "realize":
        check(report["found"] and report["certified"] and report["irreducible"],
              "realize: no certified irreducible witness")
        check(report["centralizer_nullity"] == 1, "realize: centralizer nullity")
        specs = problem.require_specs("realize")
        mode = doc["mode"]
        blocks = [[s.parts for s in spec.jnf.slots] for spec in specs]
        evs = [[ref.to_complex(mode, v) for v in vals] for vals in inputs.specs_values(specs)]
        conj = [_matrix(m) for m in report["conjugators"]]
        mats = [_matrix(m) for m in report["matrices"]]
        got = ref.witness_errors(mode, blocks, evs, conj, mats)
        check(got["residual"] < 1e-6 and got["drift"] < 1e-6, "realize: recomputed residual")
        check(got["eig_excess"] <= 1.0 and got["eig_counts_ok"] and got["nullity"] == 1,
              "realize: recomputed eigenvalues or nullity")
        check(decide_generic(tup).verdict.value == "solvable", "realize: witness for an unsolvable tuple")


def _matrix(rows):
    import numpy as np

    arr = np.array(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _check_enumerate(state, report: dict) -> None:
    n, p = state["enum"]
    check(report.get("schema_version") == "1" and report["n"] == n and report["p"] == p,
          "enumerate-rigid: header")
    library = enumerate_rigid_diagonal(n, p)
    check(report["count"] == len(report["tuples"]) == len(library), "enumerate-rigid: count")
    want = sorted(sorted(tuple(sorted(e.multiplicities(), reverse=True)) for e in t) for t in library)
    got = sorted(sorted(tuple(mv) for mv in t["multiplicities"]) for t in report["tuples"])
    check(got == want, "enumerate-rigid: tuples differ from the library")
    for t in report["tuples"]:
        mults = t["multiplicities"]
        check(len(mults) == p + 1 and all(sum(mv) == n for mv in mults), "enumerate-rigid: sizes")
        check(ref.kappa_from_multiplicities(mults) == 2, f"enumerate-rigid: kappa of {mults}")
        check(ref.reduction_verdict(inputs.plain(mults))[0], f"enumerate-rigid: {mults} not good")


def probe(state, meter) -> None:
    """In-process parsing, rendering and main(); interpreter start and import
    cost; batch throughput with --jobs."""
    docs = [doc for _, doc in state["batch"]]
    problems = [meter.call("report.parse_problem", parse_problem, doc) for doc in docs]
    for doc in docs:
        for cls in doc["classes"]:
            for text in cls.get("eigenvalues", []):
                meter.call("scalars.parse", parse_scalar, text, doc["mode"])
    decisions = [decide_generic(p.tuple) for p in problems]
    for problem, decision in zip(problems, decisions):
        meter.call("report.render", _render, problem, decision)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = meter.call("cli.main_inprocess", dsp_cli.main,
                          ["decide", str(state["batch_dir"]), "--trace"], _units=len(docs))
    check(code == 0 and len(out.getvalue().splitlines()) == len(docs), "in-process batch decide")
    for _ in range(START_SAMPLES):
        meter.call("cli.python_start", _spawn, state, ["-c", "pass"])
        meter.call("cli.import", _spawn, state, ["-c", "import dspkit.cli"])
    for _ in range(2):
        proc = meter.call("cli.batch_jobs2", _spawn, state,
                          ["-m", "dspkit", "decide", str(state["batch_dir"]), "--trace",
                           "--jobs", str(JOBS)], _units=len(docs))
        check(proc.returncode == 0 and len(proc.stdout.splitlines()) == len(docs), "batch --jobs")


def _render(problem, decision) -> str:
    report = base_report("decide", problem)
    report.update(decision_json(decision, "benchmark", True))
    return json.dumps(report)


def layer_metrics(meter, state, rounds: int) -> dict:
    agg = meter.self_times()
    start = per_call(agg, "cli.python_start", 1.0)

    def rate(name):
        total, _, units = agg.get(name, (0.0, 0, 0))
        return units / total if total else 0.0

    return {
        "scalars.parse_us": per_call(agg, "scalars.parse", 1e6),
        "report.parse_problem_us": per_call(agg, "report.parse_problem", 1e6),
        "report.render_us": per_call(agg, "report.render", 1e6),
        "cli.python_start_s": start,
        "cli.import_s": per_call(agg, "cli.import", 1.0) - start,
        "cli.main_inprocess_ms": per_call(agg, "cli.main_inprocess", 1e3),
        "cli.batch_problems_per_s": rate("cli.batch"),
        "cli.batch_jobs2_problems_per_s": rate("cli.batch_jobs2"),
    }
