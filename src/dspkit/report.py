"""Report assembly and JSON (de)serialization for the command-line front end.

One problem per input file: a mode plus a list of classes, each class a list
of Jordan block lists (one inner list per eigenvalue slot, weakly decreasing)
with optional exact eigenvalue strings.  Reports echo the input in canonical
form so that reparsing the echo reproduces the identical internal value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .decide import DecisionReport, PsiTrace
from .errors import InvalidInputError
from .genericity import ClassSpec
from .jnf import Jnf, JnfTuple, Partition
from .scalars import format_scalar, parse_scalar

if TYPE_CHECKING:  # numpy is imported only where a matrix is read
    import numpy as np

SCHEMA_VERSION = "1"

__all__ = [
    "SCHEMA_VERSION",
    "ProblemInput",
    "parse_problem",
    "echo_problem",
    "base_report",
    "jnf_json",
    "class_json",
    "tuple_json",
    "trace_json",
    "conditions_json",
    "decision_json",
    "matrix_json",
    "matrix_from_json",
]


class ProblemInput:
    """Parsed input: JNF tuple plus (optionally) full eigenvalue assignments."""

    def __init__(self, mode: str, blocks: list, eigenvalues: list):
        self.mode = mode
        self.tuple = JnfTuple([Jnf(b) for b in blocks])
        if all(evs is not None for evs in eigenvalues):
            self.specs: Optional[list[ClassSpec]] = [
                ClassSpec(list(zip([Partition(p) for p in b], evs)), mode)
                for b, evs in zip(blocks, eigenvalues)
            ]
        else:
            self.specs = None

    def require_specs(self, command: str) -> list[ClassSpec]:
        if self.specs is None:
            raise InvalidInputError(
                f"command {command!r} requires an eigenvalue for every slot of every class"
            )
        return self.specs


def parse_problem(data: dict) -> ProblemInput:
    """Validate and parse one problem document (see module docstring)."""
    if not isinstance(data, dict):
        raise InvalidInputError("input must be a JSON object")
    mode = data.get("mode")
    if mode not in ("additive", "multiplicative"):
        raise InvalidInputError("field 'mode' must be 'additive' or 'multiplicative'")
    classes = data.get("classes")
    if not isinstance(classes, list) or len(classes) < 2:
        raise InvalidInputError("field 'classes' must list at least two classes")
    blocks_per_class = []
    evs_per_class = []
    for idx, cls in enumerate(classes):
        if not isinstance(cls, dict) or "blocks" not in cls:
            raise InvalidInputError(f"class {idx}: expected an object with a 'blocks' field")
        blocks = cls["blocks"]
        if (
            not isinstance(blocks, list)
            or not blocks
            or not all(isinstance(slot, list) and slot for slot in blocks)
        ):
            raise InvalidInputError(f"class {idx}: 'blocks' must be a list of nonempty lists")
        for slot in blocks:
            # JSON true/false arrive as bool, a subclass of int
            if not all(isinstance(b, int) and not isinstance(b, bool) and b >= 1 for b in slot):
                raise InvalidInputError(f"class {idx}: block sizes must be positive integers")
        evs = cls.get("eigenvalues")
        if evs is not None:
            if not isinstance(evs, list) or len(evs) != len(blocks):
                raise InvalidInputError(
                    f"class {idx}: 'eigenvalues' must list one scalar per slot"
                )
            evs = [parse_scalar(t, mode) for t in evs]
        blocks_per_class.append(blocks)
        evs_per_class.append(evs)
    return ProblemInput(mode, blocks_per_class, evs_per_class)


def echo_problem(problem: ProblemInput) -> dict:
    """Canonical echo; reparses to the identical internal value."""
    if problem.specs is not None:
        classes = [class_json(spec.jnf, spec.eigenvalues) for spec in problem.specs]
    else:
        classes = [class_json(entry) for entry in problem.tuple.entries]
    return {"mode": problem.mode, "classes": classes}


def base_report(command: str, problem: Optional[ProblemInput]) -> dict:
    report = {"schema_version": SCHEMA_VERSION, "command": command}
    if problem is not None:
        report["input"] = echo_problem(problem)
        report["n"] = problem.tuple.n
        report["p"] = problem.tuple.p
    return report


def jnf_json(jnf: Jnf) -> list:
    return [list(s.parts) for s in jnf.slots]


def class_json(jnf: Jnf, eigenvalues=None) -> dict:
    """One class in the input format: its block lists, then its eigenvalues
    when it has them."""
    out = {"blocks": jnf_json(jnf)}
    if eigenvalues is not None:
        out["eigenvalues"] = [format_scalar(e) for e in eigenvalues]
    return out


def tuple_json(tup: JnfTuple) -> list:
    return [jnf_json(e) for e in tup.entries]


def conditions_json(c) -> dict:
    return {
        "alpha": c.alpha,
        "alpha_strict": c.alpha_strict,
        "beta": c.beta,
        "omega": c.omega,
        "n": c.n,
    }


def trace_json(trace: PsiTrace) -> dict:
    return {
        "steps": [
            {
                "tuple": tuple_json(s.input),
                "n": s.input.n,
                "chosen_slots": list(s.chosen_slots),
                "n1": s.n1,
            }
            for s in trace.steps
        ],
        "terminal": tuple_json(trace.terminal),
        "terminal_n": trace.terminal.n,
        "termination_reason": trace.termination_reason.value,
    }


def decision_json(report: DecisionReport, provenance: str, with_trace: bool) -> dict:
    out = {
        "verdict": report.verdict.value,
        "provenance": provenance,
        "conditions": conditions_json(report.conditions),
        "kappa": report.kappa,
        "expected_moduli_dimension": report.expected_moduli_dimension,
    }
    if with_trace and report.trace is not None:
        out["trace"] = trace_json(report.trace)
    return out


def matrix_json(mat: np.ndarray) -> list:
    """Row-major nested list of [re, im] pairs."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def matrix_from_json(data) -> np.ndarray:
    import numpy as np

    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows, non-numbers
        raise InvalidInputError("matrix JSON must be rows of [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise InvalidInputError("matrix JSON must be rows of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]
