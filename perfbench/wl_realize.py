"""Workload `realize`: `oracle.realize` at a fixed budget, one call per
operation, on seeded solvable instances at n=3-5 with 3-4 classes.

Each round draws fresh instances, a fixed number per stratum (size, class
count, mode): good diagonal tuples with rigidity index at most -6, which
realize at this budget on every seed tried, with generic eigenvalues drawn
here and confirmed generic by brute force.  One more operation per round is
the additive hypergeometric row at n=5 on fixed eigenvalues and a fixed search
seed, for which `realize` finds no witness at this budget (counted as failed).
"""

from __future__ import annotations

import itertools
import os
import random

import numpy as np

import inputs
import reference as ref
from dspkit.decide import Verdict, decide_generic
from dspkit.errors import IllConditionedError
from dspkit.genericity import specs_tuple
from dspkit.oracle import (
    SearchBudget,
    burnside_dim,
    centralizer_nullity,
    class_membership,
    kernel,
    realize,
)
from meter import per_call
from reference import check

NAME = "realize"
# throughput windows per round: whole rounds keep the failed share in each
WINDOWS_PER_ROUND = 1
RESTARTS = 10
ITERS = 60
RESIDUAL_TOL = 1e-8
KAPPA_MAX = -6
FAULT_SEED = 0
JOBS = min(2, len(os.sched_getaffinity(0)))
# (n, classes) -> instances per mode in each round
STRATA = {(3, 4): 2, (4, 4): 3, (5, 3): 3, (5, 4): 4}
SMOKE_STRATA = {(3, 4): 1, (4, 4): 1, (5, 3): 1}
KERNEL_ITERS = 40
KERNEL_STARTS = 3
JOBS_SAMPLE = 6

LAYER_UNITS = {
    **{f"oracle.kernel_ms_per_iter.n{n}.{m}": "ms" for n in (3, 4, 5) for m in ("add", "mult")},
    "oracle.kernel_iters_per_restart": "count",
    "oracle.restarts_per_witness": "count",
    "oracle.certify_ms": "ms",
    "oracle.realize_failed_s": "s",
    "oracle.realize_jobs1_s": "s",
    "oracle.realize_jobs2_s": "s",
}


def _multiplicity_vectors(n: int):
    out = []

    def rec(left, top, acc):
        if left == 0:
            out.append(acc)
            return
        for m in range(min(left, top), 0, -1):
            rec(left - m, m, acc + [m])

    rec(n, n, [])
    return out


def _candidates(n: int, classes: int) -> list:
    """Good diagonal tuples with kappa <= KAPPA_MAX whose multiplicities have
    gcd 1, so that generic eigenvalues exist (reference criterion)."""
    out = []
    for combo in itertools.combinations_with_replacement(_multiplicity_vectors(n), classes):
        mults = [list(mv) for mv in combo]
        if ref.kappa_from_multiplicities(mults) > KAPPA_MAX or ref.multiplicity_gcd(mults) > 1:
            continue
        if ref.reduction_verdict(inputs.plain(mults))[0]:
            out.append(mults)
    return out


def reset_caches():
    pass


def setup(seed: int, meter, smoke: bool) -> dict:
    strata = SMOKE_STRATA if smoke else STRATA
    pools = {key: _candidates(*key) for key in strata}
    mults, values = inputs.realize_fault()
    fault = {"kind": "fault", "mode": "additive", "mults": mults, "values": values,
             "search_seed": FAULT_SEED}
    return {"seed": seed, "round": 0, "strata": strata, "pools": pools, "fault": fault,
            "last": []}


def round_ops(state):
    """Fresh instances every round, a fixed number per stratum and mode."""
    rng = random.Random(state["seed"] * 104729 + state["round"])
    state["round"] += 1
    items = []
    for key, count in state["strata"].items():
        for mode in ("additive", "multiplicative"):
            for _ in range(count):
                mults = rng.choice(state["pools"][key])
                values = inputs.generic_values(rng, mode, mults)
                items.append({"kind": "instance", "mode": mode, "mults": mults,
                              "values": values, "search_seed": rng.randrange(1 << 30)})
    items.append(state["fault"])
    state["last"] = items
    return items


def cleanup(state):
    pass


def _budget(seed: int, jobs: int = 1) -> SearchBudget:
    return SearchBudget(restarts=RESTARTS, iters=ITERS, seed=seed, residual_tol=RESIDUAL_TOL, jobs=jobs)


def run_op(state, item, meter) -> bool:
    mode, mults = item["mode"], item["mults"]
    specs = meter.call("genericity.class_spec", inputs.specs, mode, mults, item["values"])
    name = "oracle.realize_failed" if item["kind"] == "fault" else "oracle.realize"
    try:
        result = meter.call(name, realize, specs, _budget(item["search_seed"]))
    except IllConditionedError:
        if item["kind"] == "fault":
            return False
        raise
    if result is None:
        if item["kind"] == "fault":
            return False
        check(False, f"no witness for {mults} {mode} seed {item['search_seed']}")
    _check_witness(specs, result)
    meter.count("oracle.witnesses")
    meter.count("oracle.restarts", result.restart_index + 1)
    return True


def _check_witness(specs, result) -> None:
    mode = specs[0].mode
    n = specs[0].n
    label = f"{[list(s.multiplicities()) for s in specs]} {mode}"
    check(result.certified and result.class_membership_ok, f"uncertified witness for {label}")
    check(result.burnside_dim == n * n and result.irreducible, f"reducible witness for {label}")
    check(result.centralizer_nullity == 1, f"centralizer nullity of {label}")
    blocks = [[s.parts for s in spec.jnf.slots] for spec in specs]
    evs = [[ref.to_complex(mode, v) for v in vals] for vals in inputs.specs_values(specs)]
    got = ref.witness_errors(mode, blocks, evs, result.conjugators, result.matrices)
    check(got["residual"] < 10 * RESIDUAL_TOL, f"recomputed residual {got['residual']} for {label}")
    check(got["drift"] < 1e-6, f"returned matrices differ from Q G Q^-1 for {label}")
    check(got["eig_excess"] <= 1.0 and got["eig_counts_ok"], f"eigenvalues of {label}")
    check(got["nullity"] == 1, f"recomputed centralizer nullity of {label}")
    verdict = decide_generic(specs_tuple(specs)).verdict
    check(verdict is Verdict.SOLVABLE, f"witness for a tuple decided {verdict} ({label})")


def _start(rng, m: int, n: int) -> np.ndarray:
    """Unit-disc random conjugators with condition number at most 1e4."""
    q = np.empty((m, n, n), dtype=np.complex128)
    for j in range(m):
        while True:
            cand = np.sqrt(rng.uniform(0, 1, (n, n))) * np.exp(2j * np.pi * rng.uniform(0, 1, (n, n)))
            if np.linalg.cond(cand) <= 1e4:
                q[j] = cand
                break
    return q


def probe(state, meter) -> None:
    """Kernel cost per iteration by size and mode, re-certification and
    jobs=1 against jobs=2 on instances of the last round."""
    items = [it for it in state["last"] if it["kind"] == "instance"]
    rng = np.random.default_rng(state["seed"])
    run = kernel()
    for n in (3, 4, 5):
        for mode, tag in (("additive", "add"), ("multiplicative", "mult")):
            mults = _kernel_tuple(state, n)
            values = inputs.generic_values(random.Random(state["seed"] + n), mode, mults)
            specs = inputs.specs(mode, mults, values)
            evs = [[ref.to_complex(mode, v) for v in vals] for vals in inputs.specs_values(specs)]
            g = np.array([ref.jordan([s.parts for s in spec.jnf.slots], ev) for spec, ev in zip(specs, evs)])
            mult = mode == "multiplicative"
            for _ in range(KERNEL_STARTS):
                q0 = _start(rng, len(specs), n)
                _, _, used = meter.call(f"oracle.kernel.n{n}.{tag}", run, g, q0, mult, KERNEL_ITERS, 0.0)
                meter.set_last_units(max(1, used))
                _, _, used = meter.call("oracle.kernel_restart", run, g, _start(rng, len(specs), n),
                                        mult, ITERS, RESIDUAL_TOL * 1e-4)
                meter.count("oracle.kernel_iters", used)
                meter.count("oracle.kernel_restarts")
    for item in items[:JOBS_SAMPLE]:
        specs = inputs.specs(item["mode"], item["mults"], item["values"])
        serial = meter.call("oracle.realize_jobs1", realize, specs, _budget(item["search_seed"]))
        pooled = meter.call("oracle.realize_jobs2", realize, specs, _budget(item["search_seed"], JOBS))
        check(serial is not None and pooled is not None
              and serial.restart_index == pooled.restart_index, "jobs=2 disagrees with jobs=1")
        mats = list(serial.matrices)
        got = meter.call("oracle.certify", _certify, specs, mats)
        check(got == (serial.burnside_dim, serial.centralizer_nullity, True),
              "re-certification disagrees with the search's certificate")


def _kernel_tuple(state, n: int):
    """The first candidate tuple of size n with the fewest classes."""
    key = min(k for k in state["pools"] if k[0] == n)
    return state["pools"][key][0]


def _certify(specs, mats):
    return (
        burnside_dim(mats),
        centralizer_nullity(mats),
        all(class_membership(a, spec) for a, spec in zip(mats, specs)),
    )


def layer_metrics(meter, state, rounds: int) -> dict:
    agg = meter.self_times()
    out = {
        f"oracle.kernel_ms_per_iter.n{n}.{m}": per_call(agg, f"oracle.kernel.n{n}.{m}", 1e3)
        for n in (3, 4, 5)
        for m in ("add", "mult")
    }
    c = meter.counts
    out["oracle.kernel_iters_per_restart"] = c["oracle.kernel_iters"] / max(1, c["oracle.kernel_restarts"])
    out["oracle.restarts_per_witness"] = c["oracle.restarts"] / max(1, c["oracle.witnesses"])
    out["oracle.certify_ms"] = per_call(agg, "oracle.certify", 1e3)
    out["oracle.realize_failed_s"] = per_call(agg, "oracle.realize_failed", 1.0)
    out["oracle.realize_jobs1_s"] = per_call(agg, "oracle.realize_jobs1", 1.0)
    out["oracle.realize_jobs2_s"] = per_call(agg, "oracle.realize_jobs2", 1.0)
    return out
