"""Command-line front end.

Subcommands: invariants, decide, generic, classify, realize, enumerate-rigid.
Each reads one JSON problem per file (or every *.json in a directory for
batch mode), streams one JSON report per problem to stdout and diagnostics to
stderr.  Exit codes: 0 success (including found=false), 2 invalid input,
3 not-applicable or budget-exceeded outcomes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import classify as cls
from .decide import decide_generic, decide_weak_distinct
from .enumerate import enumerate_rigid_diagonal
from .errors import (
    DspkitError,
    IllConditionedError,
    InvalidInputError,
    NotApplicableError,
    ResourceExceededError,
    SamplingExhaustedError,
)
from .genericity import check_evs, check_generalized_beta, find_relation, gcd_reduction
from .jnf import invariant_summary, kappa_of
from .report import (
    SCHEMA_VERSION,
    base_report,
    class_json,
    decision_json,
    matrix_from_json,
    matrix_json,
    parse_problem,
)
from .scalars import format_scalar

_PROVENANCE = {
    "invariants": "centralizer-dimension closed form; rigidity index 2n^2 - sum d_j",
    "decide": "generic-eigenvalue criterion: beta plus block-reduction iteration to omega or size 1",
    "decide_weak": "distinct-eigenvalue criterion: alpha and beta are necessary and sufficient",
    "unipotent": "equal-eigenvalue criterion: omega plus the special/almost-special tables",
    "kappa2": "rigidity-2 obstruction: special-diagonal tuples are not weakly solvable",
    "kappa0": "rigidity-0 criterion: gcd-reduced relation and primitivity of the reduced product",
    "realize": "numerical witness search; certificates recomputed independently",
    "enumerate": "exhaustive diagonal tuples with rigidity index 2 passing the generic criterion",
}


def _cmd_invariants(problem, args) -> tuple[dict, int]:
    report = base_report("invariants", problem)
    summary = invariant_summary(problem.tuple)
    report["per_class"] = [
        {"z": z, "d": d, "r": r} for z, d, r in zip(summary.z, summary.d, summary.r)
    ]
    report["kappa"] = summary.kappa
    report["provenance"] = _PROVENANCE["invariants"]
    return report, 0


def _cmd_decide(problem, args) -> tuple[dict, int]:
    report = base_report("decide", problem)
    if args.weak:
        decision = decide_weak_distinct(problem.tuple)
        report.update(decision_json(decision, _PROVENANCE["decide_weak"], args.trace))
    else:
        decision = decide_generic(problem.tuple)
        report.update(decision_json(decision, _PROVENANCE["decide"], args.trace))
    return report, 0


def _cmd_generic(problem, args) -> tuple[dict, int]:
    specs = problem.require_specs("generic")
    report = base_report("generic", problem)
    evs_ok = check_evs(specs)
    report["evs_ok"] = evs_ok
    red = gcd_reduction(specs)
    report["gcd"] = {
        "d": red.d,
        "xi": format_scalar(red.xi) if red.xi is not None else None,
        "xi_primitive": red.xi_primitive,
    }
    code = 0
    if evs_ok:
        try:
            witness = find_relation(specs)
        except ResourceExceededError as exc:
            report["relation"] = {"status": "resource_exceeded", "detail": str(exc)}
            report["generic"] = None
            code = 3
        else:
            report["relation"] = (
                None
                if witness is None
                else {
                    "cardinality": witness.cardinality,
                    "selections": [list(sel) for sel in witness.selections],
                }
            )
            report["generic"] = witness is None
        try:
            report["generalized_beta"] = check_generalized_beta(specs)
        except ResourceExceededError as exc:
            report["generalized_beta"] = {"status": "resource_exceeded", "detail": str(exc)}
            code = 3
    else:
        report["relation"] = None
        report["generic"] = None
        report["generalized_beta"] = None
        report["note"] = "global product/sum constraint fails; genericity undefined"
    return report, code


def _cmd_classify(problem, args) -> tuple[dict, int]:
    report = base_report("classify", problem)
    report["provenance"] = (
        "table recognizers plus the generic-eigenvalue criterion; "
        "sub-verdicts carry the theorem they apply"
    )
    tup = problem.tuple
    kappa = kappa_of(tup)
    report["kappa"] = kappa
    report["rigid_family"] = cls.match_rigid_family(tup).value
    tag = cls.match_special(tup)
    report["special_case"] = {"kind": tag.kind.value, "k": tag.k}
    report["good"] = cls.is_good(tup)
    if all(e.num_slots == 1 for e in tup.entries):
        report["unipotent_verdicts"] = {
            "provenance": _PROVENANCE["unipotent"],
            "dsp": cls.decide_unipotent_nilpotent(tup, "dsp", problem.mode).value,
            "weak_dsp": cls.decide_unipotent_nilpotent(tup, "weak_dsp", problem.mode).value,
        }
    if kappa == 2:
        if problem.specs is not None:
            verdict, witness = cls.weak_verdict_kappa2(problem.specs)
            entry = {"provenance": _PROVENANCE["kappa2"], "weak_verdict": verdict.value}
            if witness is not None:
                entry["witness"] = {
                    "l": witness.l,
                    "n1": witness.n1,
                    "quotient": [class_json(q.jnf, q.eigenvalues) for q in witness.quotient],
                }
            report["special_diagonal"] = entry
        else:
            report["special_diagonal"] = {"status": "needs_eigenvalues"}
    else:
        report["special_diagonal"] = {"status": "kappa_not_two"}
    if kappa == 0 and problem.specs is not None and check_evs(problem.specs):
        verdict = cls.weak_verdict_kappa0(problem.specs)
        report["weak_kappa0"] = {
            "provenance": _PROVENANCE["kappa0"],
            "verdict": verdict.value,
        }
    return report, 0


def _read_json(path) -> object:
    """The JSON document in a file; a file that cannot be read or parsed is
    invalid input."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"{path}: not valid JSON: {exc}") from exc


def _load_warm_start(path: str):
    data = _read_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("conjugators"), list):
        raise InvalidInputError("warm-start file needs a 'conjugators' field")
    return tuple(matrix_from_json(m) for m in data["conjugators"])


def _realize_seed(args) -> int:
    """DSPKIT_SEED when set, else --seed; it must be an integer in [0, 2**32)."""
    name, seed = "--seed", args.seed
    env_seed = os.environ.get("DSPKIT_SEED")
    if env_seed is not None:
        name = "DSPKIT_SEED"
        try:
            seed = int(env_seed)
        except ValueError:
            raise InvalidInputError(f"DSPKIT_SEED must be an integer, got {env_seed!r}") from None
    if not 0 <= seed < 2**32:
        raise InvalidInputError(f"{name} must be in [0, 2**32), got {seed}")
    return seed


def _check_budget_args(args) -> None:
    """Reject worker counts and realize budgets with which nothing can run."""
    if args.jobs < 1:
        raise InvalidInputError(f"--jobs must be at least 1, got {args.jobs}")
    if args.command == "realize":
        for flag, value in (("--restarts", args.restarts), ("--iters", args.iters)):
            if value < 1:
                raise InvalidInputError(f"{flag} must be at least 1, got {value}")
        if not args.tol > 0:
            raise InvalidInputError(f"--tol must be positive, got {args.tol}")
        _realize_seed(args)


def _cmd_realize(problem, args) -> tuple[dict, int]:
    specs = problem.require_specs("realize")
    # One BLAS thread unless the caller chose a count, set before numpy loads:
    # with one per core, realize ran 10-20x slower next to a busy process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .oracle import SearchBudget, backend_name, realize

    seed = _realize_seed(args)
    warm = _load_warm_start(args.warm_start) if args.warm_start else None
    budget = SearchBudget(
        restarts=args.restarts,
        iters=args.iters,
        seed=seed,
        residual_tol=args.tol,
        jobs=args.jobs,
        warm_start=warm,
    )
    report = base_report("realize", problem)
    report["provenance"] = _PROVENANCE["realize"]
    report["backend"] = backend_name()
    report["budget"] = {
        "restarts": budget.restarts,
        "iters": budget.iters,
        "seed": budget.seed,
        "residual_tol": budget.residual_tol,
        "jobs": budget.jobs,
        "warm_start": args.warm_start,
    }
    result = realize(specs, budget)
    if result is None:
        report["found"] = False
        return report, 0
    report["found"] = True
    report["certified"] = result.certified
    report["residual"] = result.residual
    report["burnside_dim"] = result.burnside_dim
    report["centralizer_nullity"] = result.centralizer_nullity
    report["irreducible"] = result.irreducible
    report["class_membership_ok"] = result.class_membership_ok
    report["restart_index"] = result.restart_index
    report["matrices"] = [matrix_json(m) for m in result.matrices]
    report["conjugators"] = [matrix_json(q) for q in result.conjugators]
    return report, 0


def _cmd_enumerate(args) -> tuple[dict, int]:
    if args.n < 1:
        raise InvalidInputError(f"--n must be at least 1, got {args.n}")
    if args.p < 1:
        raise InvalidInputError(f"--p must be at least 1, got {args.p}")
    report = {"schema_version": SCHEMA_VERSION, "command": "enumerate-rigid"}
    report["n"] = args.n
    report["p"] = args.p
    report["provenance"] = _PROVENANCE["enumerate"]
    found = []
    for tup in enumerate_rigid_diagonal(args.n, args.p):
        found.append(
            {
                "multiplicities": [sorted(e.multiplicities(), reverse=True) for e in tup],
                "rigid_family": cls.match_rigid_family(tup).value,
            }
        )
    report["tuples"] = found
    report["count"] = len(found)
    return report, 0


_HANDLERS = {
    "invariants": _cmd_invariants,
    "decide": _cmd_decide,
    "generic": _cmd_generic,
    "classify": _cmd_classify,
    "realize": _cmd_realize,
}


def _run_one(command: str, path: Path, args) -> tuple[dict, int]:
    problem = parse_problem(_read_json(path))
    report, code = _HANDLERS[command](problem, args)
    report["input_path"] = str(path)
    return report, code


def _dispatch(args) -> int:
    if args.command == "enumerate-rigid":
        report, code = _cmd_enumerate(args)
        print(json.dumps(report))
        return code
    _check_budget_args(args)
    target = Path(args.input)
    if target.is_dir():
        files = sorted(target.glob("*.json"))
        if not files:
            raise InvalidInputError(f"no *.json problems under {target}")
        worst = 0
        for path in files:
            try:
                report, code = _run_one(args.command, path, args)
            except DspkitError as exc:
                code = _code_of(exc)
                message = str(exc)  # a read error already starts with the path
                if not message.startswith(f"{path}: "):
                    message = f"{path}: {message}"
                print(message, file=sys.stderr)
                if code == 3:
                    payload = _not_applicable_report(args.command, exc)
                    payload["input_path"] = str(path)
                    print(json.dumps(payload))
                worst = max(worst, code)
                continue
            print(json.dumps(report))
            worst = max(worst, code)
        return worst
    report, code = _run_one(args.command, target, args)
    print(json.dumps(report))
    return code


# errors reported as a not-applicable outcome with exit code 3
_NOT_APPLICABLE = (
    NotApplicableError,
    ResourceExceededError,
    SamplingExhaustedError,
    IllConditionedError,
)


def _code_of(exc: DspkitError) -> int:
    return 3 if isinstance(exc, _NOT_APPLICABLE) else 2


def _not_applicable_report(command: str, exc: DspkitError) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "verdict": "not_applicable",
        "reason": str(exc),
    }
    requirement = getattr(exc, "requirement", None)
    if requirement:
        report["requirement"] = requirement
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dspkit",
        description="Solvability decisions and numerical realization for matrix "
        "tuples in prescribed conjugacy classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="problem JSON file, or a directory for batch mode")
        p.add_argument("--jobs", type=int, default=1, help="echoed by realize; starts no threads")

    add_input(sub.add_parser("invariants", help="per-class r, d, z and the rigidity index"))

    p_decide = sub.add_parser("decide", help="solvability at generic eigenvalues")
    add_input(p_decide)
    p_decide.add_argument("--weak", action="store_true", help="distinct-eigenvalue weak criterion")
    p_decide.add_argument("--trace", action="store_true", help="include the reduction trace")

    add_input(sub.add_parser("generic", help="eigenvalue constraint, relations, gcd reduction"))
    add_input(sub.add_parser("classify", help="rigid/special recognition and weak verdicts"))

    p_realize = sub.add_parser("realize", help="numerical search for a matrix tuple")
    add_input(p_realize)
    p_realize.add_argument("--restarts", type=int, default=50)
    p_realize.add_argument("--iters", type=int, default=200)
    p_realize.add_argument("--seed", type=int, default=0, help="overridden by DSPKIT_SEED")
    p_realize.add_argument("--tol", type=float, default=1e-8, help="certification residual")
    p_realize.add_argument("--warm-start", help="JSON file with starting conjugators")

    p_enum = sub.add_parser("enumerate-rigid", help="diagonal rigid tuples of a given size")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--p", type=int, default=2)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NOT_APPLICABLE as exc:
        print(json.dumps(_not_applicable_report(args.command, exc)))
        print(f"not applicable: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
