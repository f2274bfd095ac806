"""Eigenvalue assignments, non-genericity relations and related exact tests.

A non-genericity relation picks the same number k < n of eigenvalue copies
from every entry (respecting multiplicities) so that the selection sums to 0
(additive) or multiplies to 1 (multiplicative).  Eigenvalues are generic when
no such relation exists.  All tests here are exact; enumeration is done by
dynamic programming over achievable partial values with a hard state budget,
never by raw subset enumeration.  The DPs run on integer keys: each
problem's eigenvalues are mapped once to one int mod M per slot, and the sum
of keys mod M is the key of the scalar sum (product), so a DP state is a
plain int, never a Fraction-valued scalar.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from ._record import Record
from .errors import (
    InvalidInputError,
    ResourceExceededError,
    SamplingExhaustedError,
    SlotCollisionError,
    UnsupportedScalarError,
)
from .jnf import Jnf, JnfTuple, Partition, _lazy, r_of
from .scalars import AdditiveScalar, MultiplicativeScalar, Scalar

__all__ = [
    "ClassSpec",
    "Assignment",
    "RelationWitness",
    "GcdReduction",
    "specs_tuple",
    "check_evs",
    "find_relation",
    "relation_selection_count",
    "gcd_reduction",
    "check_generalized_beta",
    "sample_generic",
    "exp_map",
    "MAX_RELATION_SIZE",
    "DEFAULT_STATE_BUDGET",
]

MAX_RELATION_SIZE = 16
DEFAULT_STATE_BUDGET = 200_000


class ClassSpec(Record):
    """A JNF with one exact eigenvalue per slot and a problem mode.

    `slots` is an iterable of (blocks, eigenvalue) pairs, blocks a
    `Partition` or an iterable of int parts.  Slots are kept in the JNF's
    canonical order with eigenvalues aligned; equal partitions are ordered by
    their eigenvalue so equality of specs is structural.  Raises
    InvalidInputError for an unknown mode, for slots that are not an
    iterable of pairs, for blocks that `Partition` rejects, for an eigenvalue
    of the other mode's scalar type, for repeated eigenvalues and for no
    slot at all.
    """

    jnf: Jnf
    eigenvalues: tuple[Scalar, ...]
    mode: str

    def __init__(self, slots: Sequence[tuple], mode: str):
        if mode not in ("additive", "multiplicative"):
            raise InvalidInputError(f"mode must be additive or multiplicative, got {mode!r}")
        want = AdditiveScalar if mode == "additive" else MultiplicativeScalar
        pairs = []
        try:
            for blocks, ev in slots:
                part = blocks if isinstance(blocks, Partition) else Partition(blocks)
                if not isinstance(ev, want):
                    raise InvalidInputError(
                        f"{mode} mode needs {want.__name__} eigenvalues, got {type(ev).__name__}"
                    )
                pairs.append((part, ev))
        except (TypeError, ValueError):  # not iterable, or not a pair
            raise InvalidInputError(
                f"class slots must be (blocks, eigenvalue) pairs, got {slots!r}"
            ) from None
        # each coordinate of `sort_key` as an int over the lcm of that
        # coordinate's denominators in the class: the order and equality of
        # `sort_key` without Fraction comparisons and hashes, and the ints
        # `_integer_keys` starts from
        coords = [ev.sort_key() for _, ev in pairs]
        s0 = math.lcm(*[x.denominator for x, _ in coords])
        s1 = math.lcm(*[y.denominator for _, y in coords])
        ints = [(x.numerator * (s0 // x.denominator), y.numerator * (s1 // y.denominator))
                for x, y in coords]
        if len(set(ints)) != len(ints):
            raise InvalidInputError("eigenvalues within one class must be pairwise distinct")
        order = sorted(range(len(pairs)), key=lambda i: (pairs[i][0].parts, ints[i]), reverse=True)
        evs = tuple(pairs[i][1] for i in order)
        jnf = Jnf([pairs[i][0] for i in order])
        assert jnf.slots == tuple(pairs[i][0] for i in order), "slot order must be stable"
        # `_scaled` is not a field: equality, hashing and repr stay those of the fields
        self.__dict__.update(
            jnf=jnf,
            eigenvalues=evs,
            mode=mode,
            _scaled=((s0, s1), tuple(ints[i] for i in order)),
        )

    @property
    def n(self) -> int:
        return self.jnf.size

    def multiplicities(self) -> tuple[int, ...]:
        return self.jnf.multiplicities()

    def labelled_slots(self) -> dict:
        """Eigenvalue -> partition map (for subordination checks)."""
        return dict(zip(self.eigenvalues, self.jnf.slots))


class RelationWitness(Record):
    """A concrete non-genericity relation: per-entry selection counts per slot."""

    cardinality: int
    selections: tuple[tuple[int, ...], ...]

    def __init__(self, cardinality: int, selections: tuple[tuple[int, ...], ...]):
        self.__dict__.update(cardinality=cardinality, selections=selections)


class GcdReduction(Record):
    """gcd of all eigenvalue multiplicities and the reduced product, if any."""

    d: int
    xi: Optional[MultiplicativeScalar]
    xi_primitive: Optional[bool]

    def __init__(self, d: int, xi: Optional[MultiplicativeScalar], xi_primitive: Optional[bool]):
        self.__dict__.update(d=d, xi=xi, xi_primitive=xi_primitive)


class Assignment(tuple):
    """The classes of one problem, checked once: a tuple of `ClassSpec`s.

    It goes wherever a `Sequence[ClassSpec]` does, and every genericity
    function takes it as it is, so one problem's classes are checked once
    and its integer keys built once.  Raises InvalidInputError unless
    `specs` is an iterable of at least two `ClassSpec`s of one size and one
    mode.  `mode`, `n` and `jnfs` (the classes' `JnfTuple`) are stored on
    the value; `keys` and `constraint_holds` are built on first read.
    """

    def __new__(cls, specs: Iterable[ClassSpec]):
        try:
            self = super().__new__(cls, specs)
        except TypeError:
            raise InvalidInputError(f"classes must be an iterable, got {specs!r}") from None
        if not all(isinstance(s, ClassSpec) for s in self):
            raise InvalidInputError(f"classes must be ClassSpecs, got {list(self)!r}")
        self.jnfs = JnfTuple([s.jnf for s in self])
        modes = {s.mode for s in self}
        if len(modes) != 1:
            raise InvalidInputError(f"mixed modes: {sorted(modes)}")
        self.mode = self[0].mode
        self.n = self.jnfs.n
        return self

    @_lazy
    def keys(self) -> tuple[int, list]:
        """M and one (key mod M, multiplicity) per slot, from
        `_integer_keys`, built on first read."""
        return _integer_keys(self)

    @_lazy
    def constraint_holds(self) -> bool:
        """The global constraint, built on first read: whether the full
        selection's key is 0 mod M."""
        modulus, slots = self.keys
        return sum(key * m for entry in slots for key, m in entry) % modulus == 0


def _assignment(specs: Sequence[ClassSpec]) -> Assignment:
    """`specs` itself when it is an `Assignment`, else one built from it."""
    return specs if isinstance(specs, Assignment) else Assignment(specs)


def specs_tuple(specs: Sequence[ClassSpec]) -> JnfTuple:
    """The JnfTuple of the classes' JNFs; raises InvalidInputError where
    `JnfTuple` does."""
    return JnfTuple([s.jnf for s in specs])


def check_evs(specs: Sequence[ClassSpec]) -> bool:
    """Whether the full eigenvalue product is 1 (resp. the full sum is 0).

    Evaluated on the exact integer keys of the relation DPs: the full
    selection's key is 0 mod M exactly when its value is 0 (resp. 1).  Raises
    InvalidInputError for specs that `Assignment` rejects.
    """
    return _assignment(specs).constraint_holds


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 whose products give every number > 1.

    Two members sharing a factor g are replaced by g and their cofactors
    until none do; each split shrinks the product of all pending numbers.
    """
    base: list[int] = []
    todo = [x for x in numbers if x > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[i]
                todo += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return base


def _valuation(x: int, b: int) -> int:
    e = 0
    while x % b == 0:
        x //= b
        e += 1
    return e


def _integer_keys(specs: Assignment) -> tuple[int, list]:
    """M and, for each class and slot, the (key mod M, multiplicity) of the
    slot's eigenvalue.

    A value's coordinates are, additively, re and im scaled by L, the lcm of
    all re/im denominators, and multiplicatively the modulus's exponents over
    a coprime base of the moduli's numerators and denominators.  They are
    packed in one balanced mixed radix of span F, each digit of width
    2 B + 1 for B the sum of m |coordinate| over every slot, so every
    selection of eigenvalue copies and its inverse packs to a distinct
    integer of |x| <= (F - 1)/2.  The argument, scaled to an int arg*wrap
    by wrap, the lcm of its denominators (wrap is 1 additively), is the
    digit above: key = (packed + arg*wrap * F) mod M with M = wrap * F.

    The key of a sum (product) is the sum of the keys mod M, the key of c
    copies is c * key mod M and that of the negative (inverse) -key mod M.
    The map is injective on every selection of eigenvalue copies and on its
    inverse, so a dict keyed by it sees the hits and misses of one keyed by
    the scalars, in the same order.
    """
    mults = [m for s in specs for m in s.multiplicities()]
    # the classes' own values start from their scaled ints (`ClassSpec._scaled`)
    # and are packed a coordinate column at a time, all slots at once
    if specs.mode == "additive":
        wrap = 1
        scale = math.lcm(*(x for s in specs for x in s._scaled[0]))
        columns: list[list[int]] = [[], []]
        for s in specs:
            (re_scale, im_scale), ints = s._scaled
            f, g = scale // re_scale, scale // im_scale
            columns[0] += [re * f for re, _ in ints]
            columns[1] += [im * g for _, im in ints]
        args = [0] * len(mults)
    else:
        wrap = math.lcm(*(s._scaled[0][1] for s in specs))
        moduli = [ev.modulus for s in specs for ev in s.eigenvalues]
        base = _coprime_base(x for q in moduli for x in (q.numerator, q.denominator))
        columns = [[_valuation(q.numerator, b) - _valuation(q.denominator, b) for q in moduli]
                   for b in base]
        args = []
        for s in specs:
            (_, arg_scale), ints = s._scaled
            f = wrap // arg_scale
            args += [arg * f for _, arg in ints]

    span = 1
    keys = [0] * len(mults)
    for column in columns:
        keys = [key + x * span for key, x in zip(keys, column)]
        span *= 2 * sum(map(operator.mul, mults, map(abs, column))) + 1
    modulus = wrap * span
    keys = iter([(key + arg * span) % modulus for key, arg in zip(keys, args)])
    return modulus, [[(next(keys), m) for m in spec.multiplicities()] for spec in specs]


class _StateBudget:
    """Counts the exact-value DP states of one cardinality k against a cap."""

    def __init__(self, what: str, k: int, limit: int, used: int = 0):
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
            raise InvalidInputError(f"state_budget must be an int >= 1, got {limit!r}")
        self.what = what
        self.k = k
        self.limit = limit
        self.used = used

    def take(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise ResourceExceededError(
                f"{self.what} exceeded its state budget at cardinality k={self.k}: "
                f"{self.used} states used, budget {self.limit}"
            )


def _grow_layers(modulus: int, slots: list, layers: list, k: int, budget: _StateBudget) -> None:
    """Grow one entry's selection DP up to cardinality layer k.

    `slots` holds the entry's (key, multiplicity) pairs from `_integer_keys`
    and `modulus` their M.  layers[t][s] maps the key of each value
    reachable with t eigenvalue copies from the first s slots to [its first
    selection counts, its number of selections].  Layer t at slot s+1 adds
    t - u copies, whose key is (t - u) * key mod M, to layer u at slot s, u
    ascending, so first selections do not depend on how far the DP is grown.
    """
    for t in range(len(layers), k + 1):
        layers.append([{0: [(), 1]} if t == 0 else {}])
        for s, (key, m) in enumerate(slots):
            stage: dict = {}
            for u in range(max(0, t - m), t + 1):
                step = (t - u) * key % modulus
                for value, (selection, number) in layers[u][s].items():
                    nv = (value + step) % modulus
                    hit = stage.get(nv)
                    if hit is None:
                        budget.take()
                        stage[nv] = [selection + (t - u,), number]
                    else:
                        hit[1] += number
            layers[t].append(stage)


def _fold(modulus: int, layers: list, budget: _StateBudget) -> dict:
    """Fold the given layer dicts: map each value of one pick from every dict
    to [the picks' selections, the number of selections]."""
    acc = {0: [(), 1]}
    for layer in layers:
        row = [(v2, w2, c2) for v2, (w2, c2) in layer.items()]
        new_acc: dict = {}
        for v1, (w1, c1) in acc.items():
            for v2, w2, c2 in row:
                nv = (v1 + v2) % modulus
                hit = new_acc.get(nv)
                if hit is None:
                    budget.take()
                    new_acc[nv] = [w1 + (w2,), c1 * c2]
                else:
                    hit[1] += c1 * c2
        acc = new_acc
    return acc


def _relation_pairs(keys: tuple[int, list], per_entry: list, k: int, budget: _StateBudget):
    """Grow every entry's DP to layer k and yield the selections, in entry
    order, and the number of selections of each relation value at k.

    The entries are split in two sides by their layer-k sizes (meet in the
    middle): the largest starts the lookup side, and the others, largest
    first, each join the side whose size product is smaller, the folded side
    on ties.  Each value of the folded side's fold has its complement looked
    up on the other side: in the fold of that side, or, when it holds one
    entry only, in that entry's layer-k dict, which is never folded.  The
    number is the folded side's times the lookup's.
    """
    modulus, slots = keys
    for entry_slots, layers in zip(slots, per_entry):
        _grow_layers(modulus, entry_slots, layers, k, budget)
    sizes = [len(layers[k][-1]) for layers in per_entry]
    order = sorted(range(len(sizes)), key=lambda e: -sizes[e])
    sides: tuple[list, list] = ([order[0]], [])
    products = [sizes[order[0]], 1]
    for e in order[1:]:
        side = 0 if products[0] < products[1] else 1
        sides[side].append(e)
        products[side] *= sizes[e]
    looked_up, folded = sorted(sides[0]), sorted(sides[1])
    single = len(looked_up) == 1
    if single:
        lookup = per_entry[looked_up[0]][k][-1]
    else:
        lookup = _fold(modulus, [per_entry[e][k][-1] for e in looked_up], budget)
    fold = _fold(modulus, [per_entry[e][k][-1] for e in folded], budget)
    placed = folded + looked_up
    for value, (selections, number) in fold.items():
        hit = lookup.get(-value % modulus)
        if hit is not None:
            by_entry = dict(zip(placed, selections + ((hit[0],) if single else hit[0])))
            yield tuple(by_entry[e] for e in range(len(per_entry))), number * hit[1]


def _pairs_by_cardinality(keys: tuple[int, list], what: str, state_budget: int, last: int):
    """Yield k and the `_relation_pairs` of k for k = 1..last from one DP
    grown across k.  The states of layers 0..k-1 start the budget of k, so
    each k is charged, and overruns, exactly as a DP grown from layer 0 up
    to k."""
    per_entry: list[list] = [[] for _ in keys[1]]
    for k in range(1, last + 1):
        grown = sum(len(st) for layers in per_entry for stages in layers for st in stages[1:])
        budget = _StateBudget(what, k, state_budget, used=grown)
        yield k, _relation_pairs(keys, per_entry, k, budget)


def _relation_counts(specs: Sequence[ClassSpec], state_budget: int = DEFAULT_STATE_BUDGET):
    """Yield `relation_selection_count(specs, k, state_budget)` for
    k = 1..n-1 in turn, from one DP grown across k; each k raises the same
    errors as that call."""
    specs = _assignment(specs)
    last = specs.n - 1
    for _, pairs in _pairs_by_cardinality(specs.keys, "relation counting", state_budget, last):
        yield sum(number for _, number in pairs)


def find_relation(
    specs: Sequence[ClassSpec], state_budget: int = DEFAULT_STATE_BUDGET
) -> Optional[RelationWitness]:
    """Smallest-cardinality non-genericity relation, or None when generic.

    Each entry's bounded-knapsack DP over its slot multiplicities grows one
    cardinality layer per k; `_relation_pairs` splits the entries in two
    sides by their layer-k sizes, and the first folded value whose
    complement the other side reaches gives the witness.  k runs up to n-1, or
    up to n/2 when the global constraint holds, since the complement of a
    k-relation is then an (n-k)-relation.  The budget of k counts the DP
    states of layers 0..k and the fold states of k.  Raises
    InvalidInputError for specs that `Assignment` rejects or a
    `state_budget` that is not an int >= 1, and ResourceExceededError above
    size MAX_RELATION_SIZE or past `state_budget`.
    """
    specs = _assignment(specs)
    n = specs.n
    if n > MAX_RELATION_SIZE:
        raise ResourceExceededError(f"relation enumeration capped at size {MAX_RELATION_SIZE}")
    last = n // 2 if specs.constraint_holds else n - 1
    for k, pairs in _pairs_by_cardinality(specs.keys, "relation search", state_budget, last):
        for selections, _ in pairs:
            return RelationWitness(k, selections)
    return None


def relation_selection_count(
    specs: Sequence[ClassSpec], cardinality: int, state_budget: int = DEFAULT_STATE_BUDGET
) -> int:
    """Number of distinct selection-count tuples realizing a relation at `cardinality`.

    Selections are counted at the level of per-slot copy counts (index sets
    with equal counts realize the same equality).  The DP of `find_relation`
    is grown to layer `cardinality` and split in two sides; the count sums
    the folded side's number times the other side's over complementary
    values.  Raises InvalidInputError for specs
    that `Assignment` rejects, a cardinality outside 1..n-1 (bools
    included) or a `state_budget` that is not an int >= 1, and
    ResourceExceededError past `state_budget`.
    """
    specs = _assignment(specs)
    n = specs.n
    if isinstance(cardinality, bool) or not isinstance(cardinality, int) or not 1 <= cardinality < n:
        raise InvalidInputError(f"cardinality must be in 1..{n - 1}, got {cardinality!r}")
    budget = _StateBudget("relation counting", cardinality, state_budget)
    pairs = _relation_pairs(specs.keys, [[] for _ in specs], cardinality, budget)
    return sum(number for _, number in pairs)


def gcd_reduction(specs: Sequence[ClassSpec]) -> GcdReduction:
    """gcd d of all eigenvalue multiplicities, with the d-fold reduced product.

    In multiplicative mode with d > 1 the product taken with multiplicities
    divided by d is some d-th root of unity xi (the full product being 1);
    the reduced selection is a relation exactly when xi is non-primitive.
    In additive mode the reduced sum is automatically 0 and xi is absent.
    Raises InvalidInputError for specs that `Assignment` rejects.
    """
    specs = _assignment(specs)
    mults = [m for s in specs for m in s.multiplicities()]
    d = 0
    for m in mults:
        d = math.gcd(d, m)
    if specs.mode == "additive" or d <= 1:
        return GcdReduction(d, None, None)
    xi = MultiplicativeScalar.one()
    for spec in specs:
        for ev, m in zip(spec.eigenvalues, spec.multiplicities()):
            xi = xi * ev ** (m // d)
    return GcdReduction(d, xi, xi.is_primitive_root(d))


def check_generalized_beta(specs: Sequence[ClassSpec]) -> bool:
    """Eigenvalue-aware rank condition generalizing beta.

    Evaluates min over scalar shifts b_j (product 1, resp. sum 0) of the total
    rank of the shifted matrices, which amounts to maximizing the total Jordan
    block count over per-entry choices of one eigenvalue (or none) under the
    exact constraint; true iff the minimum is >= 2n.  Raises
    InvalidInputError for specs that `Assignment` rejects, and
    ResourceExceededError when one entry's layer of the DP holds more than
    DEFAULT_STATE_BUDGET values.
    """
    specs = _assignment(specs)
    n = specs.n
    max_blocks = [n - r_of(s.jnf) for s in specs]
    # dropping one entry frees the constraint; the rest pick their best slots
    best_proper = sum(max_blocks) - min(max_blocks)
    # full selection: one eigenvalue per entry, constrained product/sum
    modulus, slots = specs.keys
    acc: dict = {0: 0}
    # after j entries the states are selections of k = j eigenvalue copies
    for k, (spec, entry_slots) in enumerate(zip(specs, slots), start=1):
        options = [(key, slot.num_parts) for (key, _), slot in zip(entry_slots, spec.jnf.slots)]
        budget = _StateBudget("generalized rank condition", k, DEFAULT_STATE_BUDGET)
        new_acc: dict = {}
        for value, blocks in acc.items():
            for key, b in options:
                nv = (value + key) % modulus
                got = blocks + b
                old = new_acc.get(nv)
                if old is None:
                    budget.take()
                    new_acc[nv] = got
                elif old < got:
                    new_acc[nv] = got
        acc = new_acc
    best = max(best_proper, acc.get(0, -1))
    min_rank_sum = (len(specs)) * n - best
    return min_rank_sum >= 2 * n


_VALUE_CAP = 12


def _solved_fits(x: int, q: int, mates: list, width: int, spread: int, additive: bool) -> bool:
    """Whether the solved value x/q is tame: |x/q| <= 12 additively, and x/q
    at least width/spread from each value a/p of `mates`, the (a, p) of the
    other slots of its class; multiplicatively the distance is taken on the
    circle.  Compared on integer cross products: |x/q - a/p| < w/c exactly
    when c |x p - a q| < w q p.
    """
    if additive and abs(x) > _VALUE_CAP * q:
        return False
    for a, p in mates:
        d, whole = x * p - a * q, q * p
        if spread * (abs(d) if additive else min(d % whole, -d % whole)) < width * whole:
            return False
    return True


@lru_cache(maxsize=None)
def _primes_above(bound: int, count: int) -> tuple[int, ...]:
    """The `count` smallest primes greater than `bound`, found once per
    (bound, count): every draw for the same size and slot count needs them."""
    primes: list[int] = []
    q = bound
    while len(primes) < count:
        q += 1
        if all(q % d for d in range(2, math.isqrt(q) + 1)):
            primes.append(q)
    return tuple(primes)


def sample_generic(
    tup: JnfTuple, mode: str, seed: int, max_retries: int = 1000
) -> list[ClassSpec]:
    """Seeded generic exact eigenvalue assignment, generic by construction.

    One slot L of largest multiplicity m_L is solved from the global
    constraint.  Every other slot i gets a real value (additive) or a
    modulus-1 argument (multiplicative) x_i = a_i/p_i, with its own prime
    p_i > n^2 not dividing a_i, and x_L = (s - sum m_i x_i)/m_L: s = 0
    additively, and multiplicatively s in 0..m_L-1 is coprime to the gcd g
    of all multiplicities.  In a relation with copy counts c,
    |c_i m_L - c_L m_i| <= n^2 < p_i, so the p_i-adic valuation forces
    c_i m_L = c_L m_i in every slot: c = (j/g) m for some 0 < j < g, with
    value j s/g.  Additively that is a relation whenever g > 1;
    multiplicatively never, since g does not divide j s.

    Free slot j of an entry with S slots lies in the middle half of cell j
    of S equal cells of [-3, 3) (values) or [0, 1) (arguments), so free
    slots of one class are more than 3/S (values) or 1/(2S) (arguments,
    also around the circle) apart.  Only the solved value is checked: it
    must satisfy |x_L| <= 12 additively and keep from every other slot of
    its class a distance of 1/8, or 3/S beyond 24 slots (values), and of
    1/16, or 1/(2S) beyond 8 slots (arguments, on the circle).  A draw
    that fails is redrawn, and `max_retries` bounds those redraws.

    Returns a plain list of `ClassSpec`s.  Raises InvalidInputError for an
    unknown mode, a `tup` that is not a `JnfTuple`, a `seed` that is not
    None, an int, a float, a str, bytes or a bytearray (what
    `random.Random` takes; Python 3.10 hashed any other seed, numpy
    integers included, with a DeprecationWarning) or a `max_retries` that
    is not an int >= 1 (bools included), and SamplingExhaustedError at once
    for additive multiplicities with a common factor g > 1 (every
    assignment then has a relation), or when the solved value of all
    `max_retries` draws fails its check.
    """
    if mode not in ("additive", "multiplicative"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if not isinstance(tup, JnfTuple):
        raise InvalidInputError(f"tup must be a JnfTuple, got {type(tup).__name__}")
    if seed is not None and not isinstance(seed, (int, float, str, bytes, bytearray)):
        raise InvalidInputError(
            "seed must be None, an int, a float, a str, bytes or a bytearray, "
            f"got {type(seed).__name__}"
        )
    if isinstance(max_retries, bool) or not isinstance(max_retries, int) or max_retries < 1:
        raise InvalidInputError(f"max_retries must be an int >= 1, got {max_retries!r}")
    additive = mode == "additive"
    mults = [entry.multiplicities() for entry in tup.entries]
    g = math.gcd(*(m for row in mults for m in row))
    if additive and g > 1:
        raise SamplingExhaustedError(
            f"every multiplicity is divisible by {g}: dividing them by {g} selects a "
            "relation, so no additive assignment is generic"
        )
    slots = [(e, j) for e, row in enumerate(mults) for j in range(len(row))]
    solved = max(slots, key=lambda slot: mults[slot[0]][slot[1]])
    m_solved = mults[solved[0]][solved[1]]
    shifts = [0] if additive else [s for s in range(m_solved) if math.gcd(s, g) == 1]
    origin, width = (-3, 6) if additive else (0, 1)
    free = []  # entry, slot, prime and numerator range of every slot but the solved one
    others = [slot for slot in slots if slot != solved]
    for (e, j), p in zip(others, _primes_above(tup.n**2, len(others))):
        cells = 4 * len(mults[e])
        # the middle half of cell j runs from lo / cells to hi / cells; its
        # numerators over p start at ceil(lo p / cells) and stop before ceil(hi p / cells)
        lo, hi = (origin * cells + width * t for t in (4 * j + 1, 4 * j + 3))
        free.append((e, j, p, -(-lo * p // cells), -(-hi * p // cells)))
    common = math.prod(p for _, _, p, _, _ in free)
    q = common * m_solved  # the solved value's denominator
    mates = [(i, p) for i, (e, _, p, _, _) in enumerate(free) if e == solved[0]]
    # the solved value keeps width/spread from the other slots of its class,
    # the spacing free slots have in a class of max(S, 24) (values) or
    # max(S, 8) (arguments) slots: 1/8 and 1/16 up to those sizes
    spread = 2 * max(len(mults[solved[0]]), 24 if additive else 8)
    rng = random.Random(seed)
    for _ in range(max_retries):
        numerators = []
        total = 0  # sum of m_i x_i, times common
        for e, j, p, first, stop in free:
            a = rng.randrange(first, stop)
            while a % p == 0:
                a = rng.randrange(first, stop)
            numerators.append(a)
            total += mults[e][j] * a * (common // p)
        x = rng.choice(shifts) * common - total  # the solved value is x / q
        if _solved_fits(x, q, [(numerators[i], p) for i, p in mates], width, spread, additive):
            break
    else:
        raise SamplingExhaustedError(f"no well-scaled assignment found in {max_retries} tries")
    scalar = AdditiveScalar if additive else lambda v: MultiplicativeScalar(1, v)
    values: list[list] = [[None] * len(row) for row in mults]
    for (e, j, p, _, _), a in zip(free, numerators):
        values[e][j] = scalar(Fraction(a, p))
    values[solved[0]][solved[1]] = scalar(Fraction(x, q))
    specs = [
        ClassSpec(list(zip(entry.slots, row)), mode) for entry, row in zip(tup.entries, values)
    ]
    assert check_evs(specs), "solved assignment must satisfy the global constraint"
    return specs


def exp_map(spec: ClassSpec) -> ClassSpec:
    """Map an additive class with real rational eigenvalues to modulus-1 scalars.

    lambda goes to exp(2*pi*i*lambda).  Raises InvalidInputError for a
    class that is not additive, UnsupportedScalarError for a non-real
    eigenvalue (its image is not exactly representable), and
    SlotCollisionError for two eigenvalues differing by an integer (their
    images collide).
    """
    if not isinstance(spec, ClassSpec) or spec.mode != "additive":
        raise InvalidInputError("exp_map expects an additive class")
    images = []
    for ev in spec.eigenvalues:
        if ev.im != 0:
            raise UnsupportedScalarError(f"cannot exactly exponentiate {ev} with im != 0")
        images.append(MultiplicativeScalar(1, ev.re))
    if len(set(images)) != len(images):
        raise SlotCollisionError("two eigenvalues map to the same value under exp")
    return ClassSpec(list(zip(spec.jnf.slots, images)), "multiplicative")
