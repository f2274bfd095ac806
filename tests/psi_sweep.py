"""Enumeration for the exhaustive reduction-choice sweeps.

The sweeps run on `dspkit.decide.ReductionEngine`: every entry is interned
through the engine, a state is a sorted tuple of its ids, and the engine's
`verdict` gives the all-choices verdict.  This module only enumerates the
states, and rebuilds one-step children from plain int parts with
`oracles.shrink_plain` and the checked `Jnf` constructor, sharing no code
with the engine's children, so that those can be checked against them.
"""

from __future__ import annotations

import itertools

from dspkit.decide import ReductionEngine
from dspkit.enumerate import all_jnfs
from dspkit.jnf import Jnf, JnfTuple

from oracles import shrink_plain


def children_from_plain_parts(engine: ReductionEngine, tup: JnfTuple) -> set:
    """All one-step children over every choice of maximizer slots, built
    from plain int parts, as sorted id states."""
    plain = [[list(s.parts) for s in e.slots] for e in tup.entries]
    n = sum(sum(parts) for parts in plain[0])
    # r = n - the largest block count; the step shrinks 2n - sum r blocks
    tops = [max(len(parts) for parts in entry) for entry in plain]
    count = 2 * n - sum(n - top for top in tops)
    per_entry = [
        {
            Jnf(shrink_plain(entry, i, count))
            for i, parts in enumerate(entry)
            if len(parts) == top
        }
        for entry, top in zip(plain, tops)
    ]
    return {
        tuple(sorted(engine.intern(j) for j in combo))
        for combo in itertools.product(*per_entry)
    }


def iter_psi_defined_states(engine: ReductionEngine, n: int, entry_count: int):
    """Every size-n multiset of `entry_count` JNFs on which the step is
    defined, as sorted id states.  The yield order does not depend on ids."""
    by_r: dict = {}
    for j in sorted(all_jnfs(n), key=lambda j: tuple(s.parts for s in j.slots)):
        by_r.setdefault(j.r, []).append(engine.intern(j))
    # alpha as a centralizer bound: sum z <= n^2 (m - 2) + 2
    z_budget = n * n * (entry_count - 2) + 2
    for rvec in itertools.combinations_with_replacement(sorted(by_r, reverse=True), entry_count):
        total_r = sum(rvec)
        if total_r >= 2 * n or total_r - max(rvec) < n:
            continue
        groups: dict = {}
        for r in rvec:
            groups[r] = groups.get(r, 0) + 1
        pools = [
            [
                (sum(engine.jnfs[e].z for e in part), part)
                for part in itertools.combinations_with_replacement(by_r[r], c)
            ]
            for r, c in sorted(groups.items())
        ]
        suffix_min = [0] * (len(pools) + 1)
        for i in range(len(pools) - 1, -1, -1):
            suffix_min[i] = suffix_min[i + 1] + min(item[0] for item in pools[i])
        last = len(pools) - 1

        def rec(idx, z_sum, acc):
            bound = z_budget - suffix_min[idx + 1] - z_sum
            if idx == last:
                for z_part, part in pools[idx]:
                    if z_part <= bound:
                        yield tuple(sorted(acc + part))
                return
            for z_part, part in pools[idx]:
                if z_part <= bound:
                    yield from rec(idx + 1, z_sum + z_part, acc + part)

        yield from rec(0, 0, ())
