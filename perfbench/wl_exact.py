"""Workload `exact`: invariants, reduction verdicts with traces, recognizers and
an all-choices reduction sweep, one JNF tuple per operation.

Two populations share each round.  `shared`: every reduction-defined tuple
with n <= 5 and 3-4 entries (5,552 tuples whose reductions pass through the
same few small tuples).  `deep`: seeded `random_psi_defined_tuple` draws
(n <= 12, p <= 4) with little sharing.  Inputs reach the program as plain int
tuples; each operation builds its JnfTuple.
"""

from __future__ import annotations

import itertools
import random

import reference as ref
from reference import check
from dspkit import enumerate as dsp_enumerate
from dspkit import jnf as dsp_jnf
from dspkit.classify import (
    RigidFamily,
    SpecialKind,
    decide_unipotent_nilpotent,
    is_good,
    match_rigid_family,
    match_special,
)
from dspkit.decide import (
    TerminationReason,
    Verdict,
    check_conditions,
    decide_generic,
    maximizer_slots,
    psi_step,
)
from dspkit.enumerate import all_jnfs, random_psi_defined_tuple
from dspkit.jnf import JnfTuple, invariant_summary
from meter import per_call

NAME = "exact"
# throughput windows per round: a round holds ~6,000 shuffled tuples
WINDOWS_PER_ROUND = 8
SHARED_COUNT = 5552
DEEP_COUNT = 800
SMOKE_SHARED_STRIDE = 100
SMOKE_DEEP_COUNT = 20

LAYER_UNITS = {
    "jnf.tuple_build_us": "us",
    "jnf.invariant_summary_us": "us",
    "enumerate.all_jnfs_s": "s",
    "enumerate.random_tuple_us": "us",
    "decide.decide_generic_us.shared": "us",
    "decide.decide_generic_us.deep": "us",
    "decide.psi_step_us": "us",
    "decide.sweep_nodes": "count",
    "decide.reduction_steps": "count",
    "classify.recognize_us": "us",
}

_SPECIAL_ROWS = {SpecialKind.SPECIAL_A, SpecialKind.SPECIAL_B, SpecialKind.SPECIAL_C, SpecialKind.SPECIAL_D}


def plain(tup) -> tuple:
    return tuple(tuple(tuple(s.parts) for s in e.slots) for e in tup.entries)


def reset_caches():
    """Empty the program's memo tables so that every set-up starts cold."""
    for module in (dsp_jnf, dsp_enumerate):
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def setup(seed: int, meter, smoke: bool) -> dict:
    shared = []
    for n in range(2, 6):
        jnfs = meter.call("enumerate.all_jnfs", all_jnfs, n)
        for m in (3, 4):
            for combo in itertools.combinations_with_replacement(jnfs, m):
                tup = tuple(tuple(tuple(s.parts) for s in e.slots) for e in combo)
                alpha, beta, omega = ref.conditions(tup)
                if alpha and beta and not omega:
                    shared.append(tup)
    check(len(shared) == SHARED_COUNT, f"shared population has {len(shared)} tuples")
    rng = random.Random(seed)
    deep = []
    want = SMOKE_DEEP_COUNT if smoke else DEEP_COUNT
    while len(deep) < want:
        tup = meter.call("enumerate.random_tuple", random_psi_defined_tuple, rng, 12, 4)
        if tup is not None:
            deep.append(plain(tup))
    if smoke:
        shared = shared[::SMOKE_SHARED_STRIDE]
    items = [("shared", t) for t in shared] + [("deep", t) for t in deep]
    rng.shuffle(items)
    return {"items": items}


def round_ops(state):
    return state["items"]


def cleanup(state):
    pass


def _sweep(tup, meter, memo) -> bool:
    """Verdict over every choice of maximizer slots; all paths must agree."""
    got = memo.get(tup)
    if got is not None:
        return got
    c = meter.call("decide.check_conditions", check_conditions, tup)
    if tup.n == 1 or c.omega:
        verdict = True
    elif not (c.alpha and c.beta):
        verdict = False
    else:
        choices = []
        for entry in tup.entries:
            slots = meter.call("decide.maximizer_slots", maximizer_slots, entry)
            distinct = {}
            for i in slots:
                distinct.setdefault(entry.slots[i], i)  # equal slots give equal children
            choices.append(list(distinct.values()))
        outcomes = set()
        for choice in itertools.product(*choices):
            child = meter.call("decide.psi_step", psi_step, tup, choice)
            meter.count("decide.sweep_nodes")
            outcomes.add(_sweep(child, meter, memo))
        check(len(outcomes) == 1, f"choice paths disagree on {plain(tup)}")
        verdict = outcomes.pop()
    memo[tup] = verdict
    return verdict


def run_op(state, item, meter) -> bool:
    pop, raw = item
    tup = meter.call("jnf.tuple_build", JnfTuple, raw)
    summary = meter.call("jnf.invariant_summary", invariant_summary, tup)
    report = meter.call("decide.decide_generic." + pop, decide_generic, tup)
    family = meter.call("classify.recognize", match_rigid_family, tup)
    special = meter.call("classify.recognize", match_special, tup)
    good = meter.call("classify.recognize", is_good, tup)
    single_slot = all(len(e) == 1 for e in raw)
    unipotent = None
    if single_slot:
        unipotent = meter.call(
            "classify.recognize", decide_unipotent_nilpotent, tup, "dsp", "additive"
        )
    swept = _sweep(tup, meter, {})
    meter.count("decide.reduction_steps", len(report.trace.steps))

    kappa = ref.kappa(raw)
    n = ref.size(raw[0])
    solvable, _ = ref.reduction_verdict(raw)
    alpha, beta, omega = ref.conditions(raw)
    check(summary.kappa == kappa and report.kappa == kappa, f"kappa of {raw}")
    check(summary.r == tuple(ref.r_of(e) for e in raw), f"r of {raw}")
    check(summary.z == tuple(ref.z_of(e) for e in raw), f"z of {raw}")
    check((report.verdict is Verdict.SOLVABLE) == solvable, f"verdict of {raw}")
    check(swept == solvable, f"sweep verdict of {raw}")
    check(good == solvable, f"is_good of {raw}")
    # the trace: kappa is invariant, every step has n1 = sum r - n, sizes chain
    size = n
    for step in report.trace.steps:
        step_raw = plain(step.input)
        check(ref.size(step_raw[0]) == size, f"trace sizes of {raw}")
        check(ref.kappa(step_raw) == kappa, f"kappa changed along the trace of {raw}")
        check(step.n1 == sum(ref.r_of(e) for e in step_raw) - size, f"n1 of a step of {raw}")
        size = step.n1
    terminal = plain(report.trace.terminal)
    check(ref.size(terminal[0]) == size and ref.kappa(terminal) == kappa, f"terminal of {raw}")
    reason = report.trace.termination_reason
    check(solvable == (reason is not TerminationReason.PSI_UNDEFINED), f"termination of {raw}")
    if any(all(part == (1,) for part in e) and len(e) == n for e in raw):
        check(solvable == (alpha and beta), f"all-distinct entry criterion on {raw}")
    if family is not RigidFamily.NONE:
        check(kappa == 2 and len(raw) == 3 and solvable, f"rigid family {family} on {raw}")
        check(all(all(part == (1,) * len(part) for part in e) for e in raw), f"rigid family {raw}")
    if special.kind is not SpecialKind.NONE:
        check(single_slot, f"special match on multi-slot {raw}")
    if single_slot:
        if not omega or special.kind in _SPECIAL_ROWS:
            check(unipotent is Verdict.NOT_SOLVABLE, f"unipotent verdict of {raw}")
    return True


def probe(state, meter):
    pass


def layer_metrics(meter, state, rounds: int) -> dict:
    agg = meter.self_times()
    setups = max(1, agg.get("setup." + NAME, (0, 0, 0))[1])
    return {
        "jnf.tuple_build_us": per_call(agg, "jnf.tuple_build", 1e6),
        "jnf.invariant_summary_us": per_call(agg, "jnf.invariant_summary", 1e6),
        "enumerate.all_jnfs_s": agg.get("enumerate.all_jnfs", (0.0,))[0] / setups,
        "enumerate.random_tuple_us": per_call(agg, "enumerate.random_tuple", 1e6),
        "decide.decide_generic_us.shared": per_call(agg, "decide.decide_generic.shared", 1e6),
        "decide.decide_generic_us.deep": per_call(agg, "decide.decide_generic.deep", 1e6),
        "decide.psi_step_us": per_call(agg, "decide.psi_step", 1e6),
        "decide.sweep_nodes": meter.counts["decide.sweep_nodes"] / max(1, rounds),
        "decide.reduction_steps": meter.counts["decide.reduction_steps"] / max(1, rounds),
        "classify.recognize_us": per_call(agg, "classify.recognize", 1e6),
    }
