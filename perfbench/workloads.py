"""Seeded workload generators.

Every workload is an endless sequence of passes; a pass is a list of items,
and an item is one `hecke-zero` argv list plus the sizes and checks that go
with it.  Items are drawn from fixed, finite pools, so the payload of every
item the generator can ever emit is recorded in `expected.json`.  The run
seed only chooses which pool entries each pass takes and in what order.

Each pass takes a fixed number of items from every stratum, and the strata
are fixed, so the work in a pass barely depends on the seed: the seed
changes the inputs, not the size of the workload.  Consecutive passes take
different pool entries, so a cache keyed by field or character does not
turn a later pass into a replay of the first.

Nothing here imports the program: characters are named with an independent
implementation of the canonical generators of (Z/q)*, so the inputs stay the
same whatever the program changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from itertools import product

WORKLOADS = ("lvalue", "family", "field-sweep")
# Untraced passes per run, whatever the time.  item_tail_ms is the quantile
# that this many passes still leave ten samples above: p83 for lvalue, p62
# for family, p89 for field-sweep, whose single pass has 88 items and whose
# higher quantiles followed the machine's load more than the program.
MIN_PASSES = {"lvalue": 6, "family": 3, "field-sweep": 1}
POOL_SIZE = 8            # pool entries per lvalue / family stratum
K_DIGITS = ",".join(str(k) for k in range(10))


@dataclass(frozen=True)
class Item:
    argv: tuple[str, ...]
    kind: str                       # which correctness check applies
    size: dict = field(default_factory=dict, compare=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------- arithmetic

def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _squarefree(n: int) -> bool:
    return n > 1 and all(e == 1 for e in _factorize(n).values())


def _phi(n: int) -> int:
    out = n
    for p in _factorize(n):
        out -= out // p
    return out


def _primitive_root(pk: int) -> int:
    phi = _phi(pk)
    for g in range(2, pk):
        if math.gcd(g, pk) == 1 and all(
                pow(g, phi // p, pk) != 1 for p in _factorize(phi)):
            return g
    raise ValueError(f"no primitive root mod {pk}")


def unit_generators(q: int) -> list[tuple[int, int]]:
    """Canonical (generator, order) pairs of (Z/q)*: the smallest primitive
    root at each odd prime power, (-1, 5) at 2^k, each lifted by CRT."""
    gens = []
    for p, k in sorted(_factorize(q).items()):
        pk, rest = p ** k, q // p ** k
        if p == 2:
            if k == 1:
                continue
            local = [(pk - 1, 2)]
            if k > 2:
                local.append((5, 2 ** (k - 2)))
        else:
            local = [(_primitive_root(pk), _phi(pk))]
        for g, n in local:
            if rest > 1:
                g = (g + pk * ((1 - g) * pow(pk, -1, rest) % rest)) % q
            gens.append((g % q, n))
    return gens


def characters(q: int, order: int | None = None) -> list[str]:
    """Identifiers of the nontrivial characters mod q, optionally only
    those of the given order."""
    gens = unit_generators(q)
    out = []
    for exps in product(*(range(n) for _, n in gens)):
        o = 1
        for e, (_, n) in zip(exps, gens):
            o = math.lcm(o, n // math.gcd(e, n))
        if o > 1 and (order is None or o == order):
            out.append(f"q={q};gens=" + ",".join(
                f"{g}:{e}" for e, (g, _) in zip(exps, gens)))
    return out


# ------------------------------------------------------------------ families

FAMILIES = ("yokoi", "rd-n2p1")
H_PLUS_ONE_YOKOI = (1, 3, 5, 7, 13, 17)     # Yokoi members with h = h+ = 1


def family_member(family: str, n: int) -> tuple[int, str, int]:
    """(d, delta as "a,b,c", minus word length) for member n of a family.

    yokoi: d = n^2 + 4, delta = (n + 2 + sqrt d)/2, minus word length n.
    rd-n2p1: d = n^2 + 1, delta = n + 1 + sqrt d, minus word length 2n.
    """
    if family == "yokoi":
        return n * n + 4, f"{n + 2},1,2", n
    return n * n + 1, f"{n + 1},1,1", 2 * n


def members(family: str, n_max: int) -> list[int]:
    """Odd n <= n_max whose field discriminant radicand is squarefree."""
    return [n for n in range(1, n_max + 1, 2)
            if _squarefree(family_member(family, n)[0])]


def lvalue_item(family: str, n: int, chi: str) -> Item:
    d, delta, m = family_member(family, n)
    q = int(chi.split(";")[0][2:])
    return Item(("lvalue", "--d", str(d), "--delta", delta, "--chi", chi),
                "lvalue", {"q": q, "m": m, "cells": q * q})


# ------------------------------------------------------------------- lvalue

# (q, character order, odd n range): prime and composite moduli in 9..29,
# quadratic through order-22 characters, words of length 101..701.  Every
# member has a prime radicand d = n^2 + 4: today the cost of a field grows
# with the largest prime factor of d (trial division on every surd), which
# would otherwise make one stratum's items differ threefold in cost.  The
# longer the words, the smaller the modulus, so that every stratum costs
# about the same (0.3-0.5 s today): the latency quantiles then fall inside
# one group of items rather than between two, and a run of --seconds 30
# makes enough passes to draw most of every pool, so the seed changes the
# inputs but hardly the mix of costs.
LVALUE_STRATA = (
    (9, 6, 601, 701),
    (11, 5, 401, 461),
    (17, 16, 241, 281),
    (19, 6, 221, 261),
    (20, 4, 181, 221),
    (21, 6, 101, 161),
    (23, 22, 101, 161),
    (24, 2, 101, 161),
    (25, 10, 101, 161),
    (29, 4, 101, 131),
)
LVALUE_SMALL = LVALUE_STRATA[:1]


def _lvalue_pool(stratum) -> list[Item]:
    q, order, lo, hi = stratum
    rng = random.Random(f"lvalue-pool/{q}/{order}/{lo}")
    ns = [n for n in range(lo, hi + 1, 2) if len(_factorize(n * n + 4)) == 1]
    pairs = sorted((n, c) for n in ns for c in characters(q, order))
    return [lvalue_item("yokoi", n, c)
            for n, c in rng.sample(pairs, POOL_SIZE)]


# ------------------------------------------------------------------- family

# (families, q, items per pass) of `linearity verify`.  Four of a pass's
# nine items are checks at q = 11, which cost about what `biro search`
# does, so the median and tail items fall inside that group rather than on
# the edge between groups of very different cost.
LINEARITY_STRATA = ((FAMILIES, 5, 1), (FAMILIES, 7, 1),
                    (("yokoi",), 11, 2), (("rd-n2p1",), 11, 2))
# (family, q, r) where linearity verify over k = 0..9 has fewer than three
# admissible samples and exits 2
LINEARITY_EXCLUDED = {("rd-n2p1", 7, 1)}
BIRO_SEARCH = ("biro", "search", "--q-max", "45", "--p-max", "61")
BIRO_RESIDUES = ("biro", "residues", "--family", "yokoi",
                 "--q-max", "7", "--p-max", "13")
ORACLE_Q = (3, 4, 5, 7)


def _linearity_pool(families, q: int) -> list[Item]:
    rng = random.Random(f"linearity-pool/{'+'.join(families)}/{q}")
    combos = [(f, c, r) for f in families for c in characters(q)
              for r in range(q) if (f, q, r) not in LINEARITY_EXCLUDED]
    return [Item(("linearity", "verify", "--family", f, "--chi", c,
                  "--r", str(r), "--k", K_DIGITS),
                 "linearity", {"q": q, "cells": q * q, "k": 10})
            for f, c, r in rng.sample(combos, POOL_SIZE)]


def _family_pools(small: bool) -> list[tuple[list[Item], int]]:
    strata = LINEARITY_STRATA[:1] if small else LINEARITY_STRATA
    pools = [(_linearity_pool(f, q), count) for f, q, count in strata]
    pools.append(([group[-1] for group in _oracle_members()], 1))
    pools.append(([Item(BIRO_SEARCH, "search",
                        {"q_max": 45, "p_max": 61})], 1))
    if not small:
        pools.append(([Item(BIRO_RESIDUES, "residues",
                            {"q_max": 7, "p_max": 13})], 1))
    return pools


# -------------------------------------------------------------- field-sweep

SWEEP_N_MAX = 400
SWEEP_OFFSETS = 12       # passes before the member pool wraps around
SWEEP_Q = (3, 4, 5, 7, 8, 9, 11)


def _member_items(family: str, n: int, q: int) -> list[Item]:
    d, delta, m = family_member(family, n)
    chis = characters(q)
    chi = chis[(n // 2) % len(chis)]
    items = [
        Item(("field", "--d", str(d)), "payload", {"d": d}),
        Item(("cf", "expand", "--d", str(d), "--surd", delta,
              "--kind", "minus"), "payload", {"d": d, "m": m}),
        lvalue_item(family, n, chi),
    ]
    if family == "yokoi" and n in H_PLUS_ONE_YOKOI:
        items.append(Item(("biro", "oracle", "--family", family,
                           "--n", str(n), "--chi", chi), "oracle",
                          {"q": q, "m": m, "cells": q * q}))
    return items


def _sweep_blocks(family: str, small: bool) -> list[list[list[Item]]]:
    """blocks[j][o]: the items of the member at offset o of block j.

    Members sorted by n are cut into consecutive blocks of SWEEP_OFFSETS; a
    pass takes one member from every block, so each pass covers the whole n
    range evenly.  The character modulus is fixed per block, so every pass
    has the same mix of moduli.
    """
    pool = [n for n in members(family, SWEEP_N_MAX)
            if not (family == "yokoi" and n in H_PLUS_ONE_YOKOI)]
    n_blocks = len(pool) // SWEEP_OFFSETS
    if small:
        n_blocks = 2
    return [[_member_items(family, n, SWEEP_Q[j % len(SWEEP_Q)])
             for n in pool[j * SWEEP_OFFSETS:(j + 1) * SWEEP_OFFSETS]]
            for j in range(n_blocks)]


def _oracle_members() -> list[list[Item]]:
    """The items of each h+ = 1 Yokoi member; the last is its biro oracle."""
    return [_member_items("yokoi", n, ORACLE_Q[i % len(ORACLE_Q)])
            for i, n in enumerate(H_PLUS_ONE_YOKOI)]


# ------------------------------------------------------------------- passes

def _cycled(rng: random.Random, pool_len: int):
    """An endless sequence of pool indices: a fresh permutation per cycle."""
    while True:
        yield from rng.sample(range(pool_len), pool_len)


def passes(workload: str, seed: int, small: bool = False):
    """Endless generator of passes (lists of Items) for a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "lvalue":
        pools = [(_lvalue_pool(s), 1) for s in (LVALUE_SMALL if small
                                                else LVALUE_STRATA)]
    elif workload == "family":
        pools = _family_pools(small)
    else:
        blocks = [b for f in FAMILIES for b in _sweep_blocks(f, small)]
        oracle = _oracle_members()
        offsets = _cycled(rng, SWEEP_OFFSETS)
        oracle_idx = _cycled(rng, len(oracle))
        while True:
            # block j gives its member at offset o + j, so a pass mixes low
            # and high offsets rather than taking the larger n of every block
            o = next(offsets)
            groups = [block[(o + j) % SWEEP_OFFSETS]
                      for j, block in enumerate(blocks)]
            groups.append(oracle[next(oracle_idx)])
            rng.shuffle(groups)
            yield [item for group in groups for item in group]
    streams = [(pool, count, _cycled(rng, len(pool))) for pool, count in pools]
    while True:
        items = [pool[next(s)] for pool, count, s in streams
                 for _ in range(count)]
        rng.shuffle(items)
        yield items


def cycle_length(workload: str) -> int:
    """Passes after which every pool has been drawn through once."""
    return SWEEP_OFFSETS if workload == "field-sweep" else POOL_SIZE


def first_passes(workload: str, seed: int, count: int,
                 small: bool = False) -> list[list[Item]]:
    gen = passes(workload, seed, small)
    return [next(gen) for _ in range(count)]


def digest(pass_list: list[list[Item]]) -> str:
    """sha256 over the argv lists, in order."""
    doc = [[list(it.argv) for it in p] for p in pass_list]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def universe(workload: str) -> list[Item]:
    """Every item the generator can emit for a workload, at either size."""
    if workload == "lvalue":
        pools = [_lvalue_pool(s) for s in LVALUE_STRATA]
        items = [it for p in pools for it in p]
    elif workload == "family":
        items = [it for pool, _ in _family_pools(False) for it in pool]
    else:
        items = [it for f in FAMILIES for block in _sweep_blocks(f, False)
                 for group in block for it in group]
        items += [it for group in _oracle_members() for it in group]
    seen, out = set(), []
    for it in items:
        if it.key not in seen:
            seen.add(it.key)
            out.append(it)
    return out
