"""Canonical keys and the catalog: pinned bytes, and the extension filter
checked against a naive oracle that keys every candidate."""

import hashlib
import random
from itertools import chain, permutations, product

from rainbowposet import (
    Poset,
    antichain,
    canonical_form,
    canonical_key,
    make_poset,
    posets_of_size,
    rank_partition,
)
from rainbowposet import catalog
from rainbowposet.catalog import order_ideals
from rainbowposet.poset import (
    _canonical_search,
    _packed,
    _previous_twins,
    _refined_classes,
    _relabeled,
)

# sha256 digests of the byte streams built below, computed with the plain
# search that keyed every extension and tried every relabeling. The cached
# keys, the extension filter and twin pruning must reproduce them: any change
# to a key, a representative row, the catalog order or a chosen relabeling
# changes them.
CATALOG_DIGEST = "5c18c97f96667e802990c5e940d508e62e07b85eb2fa81f37841b1ac01a457ef"
RANDOM_DIGEST = "3bfc1f078409561c283ae14c3375018108a420b5b539888118fe2a1baaae758b"
# The size-8 layer, which CATALOG_DIGEST does not reach, streamed the same
# way; computed before candidates skipped re-validation and the search its
# one-leaf cases.
SIZE8_DIGEST = "e705a2e9bc29a7504270cc47dbd5daea7abf9c83c99e5ba8aec9884578099c7f"


def _catalog_stream(sizes=range(1, 8), cap=7):
    h = hashlib.sha256()
    for n in sizes:
        for p in posets_of_size(n, cap):
            h.update(canonical_key(p))
            h.update(repr(p._up).encode())
    return h.hexdigest()


def random_labeled_posets(count=1500, seed=20251118, max_n=8):
    """Seeded labeled posets on 1..max_n elements: random arcs along a
    random linear order, closed transitively. Densities run from sparse
    (many antichain twins) to dense (many chains), so twins are common."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 1 + i % max_n
        density = (0.0, 0.05, 0.15, 0.3, 0.5, 0.7, 0.9)[(i // 8) % 7]
        order = list(range(n))
        rng.shuffle(order)
        arcs = [
            (order[a], order[b])
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < density
        ]
        out.append(make_poset(n, arcs))
    return out


def _random_stream():
    h = hashlib.sha256()
    for p in random_labeled_posets():
        h.update(canonical_key(p))
        h.update(repr(canonical_form(p)._up).encode())
        h.update(repr(p._perm).encode())
    return h.hexdigest()


def test_catalog_keys_and_rows_are_pinned():
    assert _catalog_stream() == CATALOG_DIGEST


def test_size8_layer_is_pinned():
    assert _catalog_stream([8], cap=8) == SIZE8_DIGEST


def test_random_keys_forms_and_relabelings_are_pinned():
    assert _random_stream() == RANDOM_DIGEST


def _naive_keys(n):
    """Oracle: extend every representative of size n-1 by every order ideal
    and key every candidate, with no filter."""
    keys = set()
    for q in posets_of_size(n - 1):
        for ideal in order_ideals(q):
            rows = list(q._up) + [0]
            for d in range(n - 1):
                if ideal >> d & 1:
                    rows[d] |= 1 << (n - 1)
            keys.add(canonical_key(Poset(rows)))
    return keys


def test_filtered_extension_matches_naive_oracle():
    # the oracle has neither the invariant filter nor the twin filter
    for n in range(2, 8):
        reps = posets_of_size(n)
        assert {canonical_key(p) for p in reps} == _naive_keys(n)


# Candidates keyed per size by a cold catalog to size 8. Without the twin
# filter these were 2, 6, 21, 90, 448, 2,832 and 22,513.
KEYED = {2: 2, 3: 5, 4: 16, 5: 67, 6: 338, 7: 2207, 8: 18220}


def test_keyed_candidates_are_pinned(monkeypatch):
    keyed = dict.fromkeys(KEYED, 0)

    def counted(p):
        keyed[p.n] += 1
        return canonical_key(p)

    monkeypatch.setattr(catalog, "canonical_key", counted)
    catalog._posets_of_size.cache_clear()
    classes = [len(posets_of_size(n, 8)) for n in range(1, 9)]
    assert classes == [1, 2, 5, 16, 63, 318, 2045, 16999]
    assert keyed == KEYED


def test_representatives_inherit_their_down_rows():
    # no candidate or form recomputes its down rows: each comes from the
    # parent's rows and the ideal, or from a relabeling
    forms = [p for n in range(1, 9) for p in posets_of_size(n, 8)]
    forms += [canonical_form(p) for p in random_labeled_posets(count=400)]
    for p in forms:
        assert p._down == Poset(p._up)._down


def test_cached_keys_match_fresh_keys():
    for n in range(1, 8):
        for p in posets_of_size(n):
            fresh = Poset(p._up)
            assert fresh._key is None
            assert p._key == canonical_key(fresh)
            assert p._perm == fresh._perm == tuple(range(n))
            assert canonical_form(p).same_relation(p)


def test_twins_do_not_blow_up_the_search():
    # 16! relabelings without twin pruning; one per position with it
    for k in (8, 12, 16):
        key = canonical_key(antichain(k))
        assert key == bytes([k]) + bytes((k * (k - 1) + 7) // 8)


def _first_minimum(p, blocks):
    """Brute force: every class-respecting relabeling in product order; a
    later one replaces the best only when its bit string is smaller. The
    bit string of a relabeling holds, for each position i, the bits
    rel(perm[i], perm[d]) and then rel(perm[d], perm[i]) for d < i; each
    i-bit group is built from the related elements alone, which keeps
    sparse posets (the ones with many relabelings) cheap."""
    above = [[y for y in range(p.n) if p.less(x, y)] for x in range(p.n)]
    below = [[y for y in range(p.n) if p.less(y, x)] for x in range(p.n)]
    best = None
    pos = [0] * p.n
    for choice in product(*[permutations(block) for block in blocks]):
        perm = list(chain.from_iterable(choice))
        for i, elem in enumerate(perm):
            pos[elem] = i
        bits = 0
        for i, elem in enumerate(perm):
            group = 0
            for y in above[elem]:
                if pos[y] < i:
                    group |= 1 << (i - 1 - pos[y])
            bits = bits << i | group
            group = 0
            for y in below[elem]:
                if pos[y] < i:
                    group |= 1 << (i - 1 - pos[y])
            bits = bits << i | group
        if best is None or bits < best[0]:
            best = (bits, perm)
    return best


def test_previous_twins_share_rank_and_refined_class():
    # Every twin user scans in index order: the forcing search along the
    # rank order, the catalog's ideals and the canonical search class by
    # class. That holds because a twin and its previous twin share a rank
    # and a refined class, whose members ascend.
    pairs = 0
    for p in random_labeled_posets():
        up, down = p._up, p._down
        twin = _previous_twins(up, down)
        brute = [
            max((y for y in range(x) if (up[y], down[y]) == (up[x], down[x])), default=-1)
            for x in range(p.n)
        ]
        assert twin == brute
        rank = rank_partition(p)
        blocks = _refined_classes(p, twin.count(-1))
        block_of = {x: i for i, block in enumerate(blocks) for x in block}
        assert all(block == sorted(block) for block in blocks)
        for x, t in enumerate(twin):
            if t >= 0:
                assert rank[x] == rank[t] and block_of[x] == block_of[t]
                pairs += 1
    assert pairs > 1000


def test_canonical_search_matches_brute_force():
    kinds = set()
    posets = random_labeled_posets()
    posets += [p for n in range(1, 7) for p in posets_of_size(n)]
    for p in posets:
        twins = len({(p.up_mask(x), p.down_mask(x)) for x in range(p.n)})
        blocks = _refined_classes(p, twins)
        if len(blocks) == p.n:
            kinds.add("discrete")
        else:
            kinds.add("twins" if len(blocks) == twins else "searched")
        bits, perm = _first_minimum(p, blocks)
        assert _canonical_search(p) == (bits, p.n * (p.n - 1), perm)
        if perm != list(chain.from_iterable(blocks)):
            kinds.add("not the first relabeling")
    assert kinds == {"discrete", "twins", "searched", "not the first relabeling"}
    assert _canonical_search(Poset([])) == (0, 0, [])


def _per_pair(p, perm):
    """The relation bit string of a relabeling, one pair at a time: for
    each position i, rel(perm[i], perm[j]) for j < i, then rel(perm[j],
    perm[i]) for each."""
    bits = 0
    for i, x in enumerate(perm):
        for j in range(i):
            bits = bits << 1 | p.less(x, perm[j])
        for j in range(i):
            bits = bits << 1 | p.less(perm[j], x)
    return bits


def test_packed_rows_match_the_per_pair_encoding():
    # up to 13 elements, so that a position's groups cross the 10-bit
    # chunks of the reversal table
    rng = random.Random(24)
    posets = random_labeled_posets(count=260, seed=1324, max_n=13)
    assert max(p.n for p in posets) == 13
    for p in posets:
        perm = list(range(p.n))
        rng.shuffle(perm)
        for order in (range(p.n), perm):
            assert _packed(*_relabeled(p, order)) == _per_pair(p, order)
