"""Workload `relations`: eigenvalue sampling and the exact genericity checks,
one eigenvalue assignment per operation.

Each round holds the same assignments:
- generic: `sample_generic` on the rigid rows up to n=8 (additive) and n=4
  (multiplicative) and on a few good non-rigid tuples, then `check_evs`,
  `gcd_reduction`, `find_relation` (which runs every cardinality k),
  `check_generalized_beta` and the weak verdict where kappa is 0 or 2;
- planted: assignments drawn by this benchmark with a relation of known
  smallest cardinality, on which `find_relation` stops early, and kappa-0
  tuples whose multiplicity gcd forces a relation;
- faults: multiplicative `sample_generic` on the hypergeometric and even rows
  at n=6 and the odd row at n=7, which raises SamplingExhaustedError on a
  fixed sampler seed (counted as failed).
Sampler seeds (fresh every round) and planted values derive from --seed;
the faults use a fixed sampler seed.
"""

from __future__ import annotations

import random

import inputs
import reference as ref
from dspkit.classify import weak_verdict_kappa0, weak_verdict_kappa2
from dspkit.decide import Verdict
from dspkit.errors import SamplingExhaustedError
from dspkit.genericity import (
    check_evs,
    check_generalized_beta,
    find_relation,
    gcd_reduction,
    relation_selection_count,
    sample_generic,
)
from dspkit.jnf import JnfTuple
from dspkit.scalars import AdditiveScalar, MultiplicativeScalar
from meter import per_call
from reference import check

NAME = "relations"
# throughput windows per round: whole rounds keep the failed share in each
WINDOWS_PER_ROUND = 1
FAULT_SAMPLE_SEED = 0
MAX_N = 8
# multiplicative sampling fails on some seeds from n=5 on (see the README)
MAX_N_MULT = 4

LAYER_UNITS = {
    "scalars.arith_ns": "ns",
    "classify.weak_kappa0_ms": "ms",
    "classify.weak_kappa2_ms": "ms",
    "genericity.sample_generic_ms": "ms",
    "genericity.sample_failed_ms": "ms",
    **{f"genericity.find_relation_ms.n{k}": "ms" for k in range(2, MAX_N + 1)},
    "genericity.find_relation_ms.planted": "ms",
    "genericity.generalized_beta_ms": "ms",
    "genericity.relation_count_ms": "ms",
}


NON_RIGID = {  # good diagonal tuples with kappa <= 0 and multiplicity gcd 1
    "k0_n2": [[1, 1]] * 4,
    "km2_n3": [[2, 1], [2, 1], [1, 1, 1], [1, 1, 1]],
    "km8_n4": [[2, 1, 1], [2, 1, 1], [2, 2], [1, 1, 1, 1]],
}
FORCED = {  # kappa 0, multiplicity gcd 2: a relation of size n/2 is forced
    "d4_n4": [[2, 2]] * 4,
    "e6_n6": [[2, 2, 2]] * 3,
}


def _item(kind, label, mode, mults, **extra):
    return dict(kind=kind, label=label, mode=mode, mults=mults, raw=inputs.plain(mults), **extra)


def _planted_item(rng, label, mode, mults, k):
    """Redraw until the smallest relation has exactly cardinality k."""
    while True:
        counts = inputs.planted_counts(rng, mults, k)
        values = inputs.draw(rng, mode, mults, counts)
        if inputs.distinct(values) and ref.smallest_relation(mode, values, mults, k + 1) == k:
            return _item("planted", label, mode, mults, values=values, expect=k)


def _forced_item(rng, label, mode, mults, shift=None):
    n = sum(mults[0])
    while True:
        values = inputs.draw(rng, mode, mults, shift=shift)
        if inputs.distinct(values):
            expect = ref.smallest_relation(mode, values, mults, n)
            return _item("planted", label, mode, mults, values=values, expect=expect)


def reset_caches():
    pass


def setup(seed: int, meter, smoke: bool) -> dict:
    rng = random.Random(seed)
    items = []
    sizes = range(2, MAX_N + 1)
    for n in sizes:
        for label, mults in inputs.rigid_rows(n).items():
            items.append(_item("generic", f"{label}_n{n}", "additive", mults))
            if n <= MAX_N_MULT:
                items.append(_item("generic", f"{label}_n{n}", "multiplicative", mults))
    for label, mults in NON_RIGID.items():
        items.append(_item("generic", label, "additive", mults))
        if label == "k0_n2":
            items.append(_item("generic", label, "multiplicative", mults))
    for mode, label, n, k in [
        ("additive", "hypergeometric", 6, 1),
        ("additive", "hypergeometric", 8, 1),
        ("additive", "even", 6, 2),
        ("additive", "hypergeometric", 5, 2),
        ("multiplicative", "hypergeometric", 5, 1),
        ("multiplicative", "odd", 7, 2),
    ]:
        items.append(_planted_item(rng, f"{label}_n{n}_k{k}", mode, inputs.rigid_rows(n)[label], k))
    items.append(_forced_item(rng, "d4_n4", "additive", FORCED["d4_n4"]))
    items.append(_forced_item(rng, "e6_n6", "additive", FORCED["e6_n6"]))
    items.append(_forced_item(rng, "d4_n4_xi1", "multiplicative", FORCED["d4_n4"], shift=0))
    items.append(_forced_item(rng, "d4_n4_xim1", "multiplicative", FORCED["d4_n4"], shift=1))
    for label, n in [("hypergeometric", 6), ("even", 6), ("odd", 7)]:
        items.append(_item("fault", f"{label}_n{n}", "multiplicative", inputs.rigid_rows(n)[label]))
    if smoke:
        keep = {"generic": {"hypergeometric_n3", "odd_n3", "k0_n2", "hypergeometric_n8"},
                "planted": {"hypergeometric_n6_k1", "d4_n4", "d4_n4_xim1"},
                "fault": {"hypergeometric_n6"}}
        items = [it for it in items if it["label"] in keep[it["kind"]]]
        # one generic assignment of every size feeds the per-size figures
        seen = {sum(it["mults"][0]) for it in items if it["kind"] == "generic"}
        for n in sizes:
            if n not in seen:
                mults = inputs.rigid_rows(n)["hypergeometric"]
                items.append(_item("generic", f"hypergeometric_n{n}", "additive", mults))
    return {"items": items, "seed": seed, "round": 0}


def round_ops(state):
    """The round's assignments; generic ones get fresh sampler seeds every
    round, so that a run averages the sampler's retry count over many draws."""
    r = state["round"]
    state["round"] += 1
    seeds = random.Random(state["seed"] * 7919 + r)
    return [
        dict(it, sample_seed=FAULT_SAMPLE_SEED if it["kind"] == "fault" else seeds.randrange(1 << 30))
        for it in state["items"]
    ]


def cleanup(state):
    pass


def run_op(state, item, meter) -> bool:
    mode, mults, raw = item["mode"], item["mults"], item["raw"]
    n = sum(mults[0])
    tup = meter.call("jnf.tuple_build", JnfTuple, raw)
    if item["kind"] == "planted":
        specs = meter.call("genericity.class_spec", inputs.specs, mode, mults, item["values"])
        expect = item["expect"]
    else:
        name = "genericity.sample_" + ("failed" if item["kind"] == "fault" else "generic")
        try:
            specs = meter.call(name, sample_generic, tup, mode, item["sample_seed"])
        except SamplingExhaustedError:
            if item["kind"] == "fault":
                return False
            raise
        expect = None
    evs_ok = meter.call("genericity.check_evs", check_evs, specs)
    red = meter.call("genericity.gcd_reduction", gcd_reduction, specs)
    where = "planted" if expect is not None else f"n{n}"
    witness = meter.call("genericity.find_relation." + where, find_relation, specs)
    gbeta = meter.call("genericity.generalized_beta", check_generalized_beta, specs)
    kappa = ref.kappa(raw)
    weak = None
    if kappa == 2:
        weak = meter.call("classify.weak_kappa2", weak_verdict_kappa2, specs)
    elif kappa == 0:
        weak = meter.call("classify.weak_kappa0", weak_verdict_kappa0, specs)
    count = None
    if expect is not None:
        count = meter.call("genericity.relation_count", relation_selection_count, specs, expect)
    total = meter.call("scalars.arith", _program_total, specs, _units=sum(len(m) for m in mults))

    values = inputs.specs_values(specs)
    spec_mults = [list(s.multiplicities()) for s in specs]
    blocks = [[len(p.parts) for p in s.jnf.slots] for s in specs]
    d = ref.multiplicity_gcd(spec_mults)
    label = f"{item['label']} {mode}"
    check(tuple(tuple(sorted(m, reverse=True)) for m in spec_mults)
          == tuple(tuple(sorted(m, reverse=True)) for m in mults), f"multiplicities of {label}")
    check(evs_ok, f"check_evs on {label}")
    check(ref.selection_value(mode, values, spec_mults) == ref.identity(mode), f"total of {label}")
    check(_plain_total(mode, total) == ref.identity(mode), f"scalar total of {label}")
    check(red.d == d, f"gcd of {label}")
    check(gbeta == ref.generalized_beta(mode, values, blocks, n), f"generalized beta of {label}")
    if expect is None:
        check(witness is None, f"relation found on generic {label}")
        if n <= 5:
            check(ref.smallest_relation(mode, values, spec_mults, n) is None,
                  f"brute force finds a relation on {label}")
    else:
        check(witness is not None and witness.cardinality == expect, f"relation size on {label}")
        for sel, m in zip(witness.selections, spec_mults):
            check(sum(sel) == expect and all(0 <= c <= k for c, k in zip(sel, m)),
                  f"witness selection on {label}")
        check(ref.selection_value(mode, values, witness.selections) == ref.identity(mode),
              f"witness value on {label}")
        check(count == ref.relation_count(mode, values, spec_mults, expect),
              f"relation count on {label}")
    if kappa == 2:
        verdict, sd_witness = weak
        if d == 1:
            check(verdict is Verdict.UNKNOWN and sd_witness is None, f"kappa-2 verdict on {label}")
    elif kappa == 0:
        check(weak is _kappa0_expected(mode, values, spec_mults, d, n), f"kappa-0 verdict on {label}")
    return True


def _kappa0_expected(mode, values, mults, d, n):
    """Weak verdict at kappa 0 from brute-force relation counts (good tuples)."""
    if d <= 1:
        return Verdict.NOT_APPLICABLE
    base = n // d
    reduced = [[m // d for m in mv] for mv in mults]
    xi = ref.selection_value(mode, values, reduced)
    for k in range(1, n):
        expected = 0
        if k % base == 0:
            power = ref.power(mode, xi, k // base)
            expected = 1 if mode == "additive" or power == ref.identity(mode) else 0
        if ref.relation_count(mode, values, mults, k) != expected:
            return Verdict.NOT_APPLICABLE
    if mode == "additive":
        return Verdict.NOT_SOLVABLE
    primitive = xi[0] == 1 and xi[1].denominator == d
    return Verdict.SOLVABLE if primitive else Verdict.NOT_SOLVABLE


def _program_total(specs):
    """The global sum (product) in the program's own scalar arithmetic."""
    if specs[0].mode == "additive":
        total = AdditiveScalar.zero()
        for spec in specs:
            for ev, m in zip(spec.eigenvalues, spec.multiplicities()):
                total = total + ev.scale(m)
        return total
    total = MultiplicativeScalar.one()
    for spec in specs:
        for ev, m in zip(spec.eigenvalues, spec.multiplicities()):
            total = total * ev**m
    return total


def _plain_total(mode, total):
    if mode == "additive":
        return (total.re, total.im)
    return (total.modulus, total.arg)


def probe(state, meter):
    pass


def layer_metrics(meter, state, rounds: int) -> dict:
    agg = meter.self_times()
    out = {
        "scalars.arith_ns": per_call(agg, "scalars.arith", 1e9),
        "classify.weak_kappa0_ms": per_call(agg, "classify.weak_kappa0", 1e3),
        "classify.weak_kappa2_ms": per_call(agg, "classify.weak_kappa2", 1e3),
        "genericity.sample_generic_ms": per_call(agg, "genericity.sample_generic", 1e3),
        "genericity.sample_failed_ms": per_call(agg, "genericity.sample_failed", 1e3),
        "genericity.find_relation_ms.planted": per_call(agg, "genericity.find_relation.planted", 1e3),
        "genericity.generalized_beta_ms": per_call(agg, "genericity.generalized_beta", 1e3),
        "genericity.relation_count_ms": per_call(agg, "genericity.relation_count", 1e3),
    }
    for k in range(2, MAX_N + 1):
        out[f"genericity.find_relation_ms.n{k}"] = per_call(agg, f"genericity.find_relation.n{k}", 1e3)
    return out
