"""Benchmark inputs and the benchmark's own correctness oracles.

Nothing here imports `rainbowposet`: the references that `fail_ratio` is
measured against must not come from the code under test. A poset is a list
of up-rows (bit y of ``rows[x]`` is set iff x < y), transitively closed.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

# The forcing-random hosts: a fixed pool of random poset structures, each
# relabeled by a permutation drawn from the run's seed. In a trial over 30
# hosts and seeds 1..8, drawing fresh structures per seed made the work swing
# from 233k to 421k copy-kernel calls, which no 25% bound survives;
# relabeling alone kept it within 330k..348k and still changes every input.
POOL_SEED = 20251114
POOL_SIZES = (9, 10) * 25  # 1080 decisions in all, so p99 has 10 beyond it
DENSITY = 0.25  # about a third of the decisions force at this density

# The deletions of o_jk(2,4), by element label (the organ part is unlabeled).
OJK_LABELS = ("0", "1", "2", "b_1", "b_2", "m", "b'_0", "b'_1", "b'_2", "m'_1", "m'_2", "t'_3")

MVALUE_COUNTS = (1, 2, 5, 16, 63, 318, 2045, 16999)  # OEIS A000112, sizes 1..8
MVALUE_BRACKET = (9, 10)


def closed_rows(n, density, rng):
    """Random poset: each pair of a random linear order is a relation with
    probability `density`, then transitively closed."""
    up = [0] * n
    for i in range(n - 1, -1, -1):
        row = 0
        for j in range(i + 1, n):
            if rng.random() < density:
                row |= 1 << j | up[j]
        up[i] = row
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(up, perm)


def relabel(rows, perm):
    """The isomorphic poset in which element x is called perm[x]."""
    out = [0] * len(rows)
    for x, row in enumerate(rows):
        out[perm[x]] = sum(1 << perm[y] for y in range(len(rows)) if row >> y & 1)
    return out


def forcing_hosts(seed):
    """The seeded random hosts of forcing-random, as row lists."""
    pool = random.Random(POOL_SEED)
    structures = [closed_rows(n, DENSITY, pool) for n in POOL_SIZES]
    rng = random.Random(f"forcing-random-{seed}")
    hosts = []
    for rows in structures:
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        hosts.append(relabel(rows, perm))
    return hosts


def named_answers():
    """Known answers for the named forcing-random instances, by case name."""
    answers = {"o_jk(2,4)": True}
    for label in OJK_LABELS:
        # Deleting t'_3 still forces the 4-antichain: a verified fact (the
        # README's criterion 4, an honest failure of the published argument).
        answers[f"o_jk(2,4) minus {label}"] = label == "t'_3"
    answers["organ(4)"] = True
    for k in range(16):
        answers[f"blowup {k}"] = True  # a blow-up forces its pattern
    return answers


def blowup_orders(seed):
    """One seeded insertion order per four-element pattern, for its blow-up."""
    rng = random.Random(f"blowup-{seed}")
    orders = []
    for _ in small_posets(4):
        pi = list(range(4))
        rng.shuffle(pi)
        orders.append(pi)
    return orders


# --- independent poset arithmetic --------------------------------------------


def signature(rows, elems):
    """Isomorphism invariant of the subposet induced on `elems`: the least
    relation code over all orderings of the elements."""
    m = len(elems)
    best = None
    for order in permutations(elems):
        code = 0
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                if rows[a] >> b & 1:
                    code |= 1 << (i * m + j)
        if best is None or code < best:
            best = code
    return best


def small_posets(m):
    """All posets on m elements up to isomorphism, by brute force over every
    relation on m labeled points, sorted by signature."""
    cells = [(a, b) for a in range(m) for b in range(m) if a != b]
    found = {}
    for mask in range(1 << len(cells)):
        rows = [0] * m
        for i, (a, b) in enumerate(cells):
            if mask >> i & 1:
                rows[a] |= 1 << b
        if is_order(rows):
            found.setdefault(signature(rows, range(m)), rows)
    return [found[k] for k in sorted(found)]


def is_order(rows):
    """Irreflexive, antisymmetric and transitive."""
    for x, row in enumerate(rows):
        if row >> x & 1:
            return False
        for y in range(len(rows)):
            if row >> y & 1 and (rows[y] >> x & 1 or rows[y] & ~row):
                return False
    return True


def patterns():
    """The 21 patterns of forcing-random: every poset on 3 and on 4 elements."""
    return small_posets(3) + small_posets(4)


def is_refutation(rows, colors, pattern):
    """True iff `colors` is a proper coloring of the host (comparable
    elements differ) in which no induced copy of `pattern` is rainbow."""
    n = len(rows)
    if colors is None or len(colors) != n:
        return False
    for x in range(n):
        for y in range(n):
            if rows[x] >> y & 1 and colors[x] == colors[y]:
                return False
    m = len(pattern)
    want = signature(pattern, range(m))
    for elems in combinations(range(n), m):
        if len({colors[x] for x in elems}) == m and signature(rows, elems) == want:
            return False
    return True


def all_colorings(n):
    """Every coloring of n elements up to renaming colors, as the rows of an
    int8 array (restricted growth strings: each new color is one above the
    largest so far)."""
    import numpy as np

    out = np.zeros((1, n), np.int8)
    top = np.zeros(1, np.int8)
    for i in range(1, n):
        parts, tops = [], []
        for v in range(i + 1):
            keep = top + 1 >= v
            block = out[keep].copy()
            block[:, i] = v
            parts.append(block)
            tops.append(np.maximum(top[keep], v))
        out, top = np.concatenate(parts), np.concatenate(tops)
    return out


def forcing_oracle(hosts, pats):
    """Prune-free forcing verdicts: for each host, every proper coloring is
    tested for a rainbow induced copy of each pattern. Returns one list of
    booleans per host, in pattern order."""
    import numpy as np

    colorings = {}
    verdicts = []
    for rows in hosts:
        n = len(rows)
        if n not in colorings:
            colorings[n] = all_colorings(n)
        cols = colorings[n]
        proper = np.ones(len(cols), bool)
        for x in range(n):
            for y in range(n):
                if rows[x] >> y & 1:
                    proper &= cols[:, x] != cols[:, y]
        cols = cols[proper]
        copies = {}
        for m in sorted({len(p) for p in pats}):
            for elems in combinations(range(n), m):
                copies.setdefault((m, signature(rows, elems)), []).append(elems)
        row_verdicts = []
        for pat in pats:
            rainbow = np.zeros(len(cols), bool)
            key = (len(pat), signature(pat, range(len(pat))))
            for elems in copies.get(key, ()):
                hit = np.ones(len(cols), bool)
                for a, b in combinations(elems, 2):
                    hit &= cols[:, a] != cols[:, b]
                rainbow |= hit
            row_verdicts.append(bool(rainbow.all()))
        verdicts.append(row_verdicts)
    return verdicts
