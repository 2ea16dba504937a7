"""Tree classification, the downtree embedder and the universal embedder."""

import hashlib
import random
import subprocess
import sys
import tracemalloc

import pytest

from rainbowposet import (
    BadParams,
    Coloring,
    CompleteDowntreeHost,
    NotATreePoset,
    PreconditionViolated,
    antichain,
    chain,
    classify_tree,
    diamond,
    disjoint_sum,
    downtree,
    downtree_fuzz_case,
    dual,
    embed_downtree_on_host,
    embed_universal,
    has_rainbow_copy,
    is_tree_poset,
    make_poset,
    posets_of_size,
    proper_colorings,
    random_downtree_coloring,
    random_proper_coloring,
    rank_partition,
    universal_tree,
    vee,
    verify_certificate,
    wedge,
)
from rainbowposet import treeembed
from rainbowposet.treeembed import EmbeddingCertificate

# sha256 of the certificates of criterion 7's quick order-3 sweep: 100
# seeded colorings of universal_tree(3), each tree poset on 3 elements.
# It pins every image and color the universal-tree embedder picks.
UNIVERSAL_DIGEST = "3ee0ca591d1cf3cf5819a072d23f81aabb965e6190b06793ae77809c058e5e99"

# sha256 over repr(colors) + "\n" of random_downtree_coloring(k, k,
# random.Random(f"color-{k}-{s}")) for k = 1..7, s = 0, 1, 2 (k outer),
# computed with the generator that tracked descendant colors in bitmasks.
# It pins the fuzz hosts' colors themselves, draw for draw.
COLOR_DIGEST = "1dbe29616f1b01d5c7da767e0608a5502a8b10dfd01253d796bb92f83746760d"


def _reference_color_in_subtree(colors, k, v, c):
    """The subtree scan of the reference generator below, unchanged."""
    if v == 0:
        return c in colors
    lo = hi = v
    size = len(colors)
    while lo < size:
        if c in colors[lo : hi + 1]:
            return True
        lo = k * lo + 1
        hi = k * hi + k
    return False


def reference_downtree_coloring(k, h, rng):
    """random_downtree_coloring as it was before each draw read its
    ancestors from path sets: every draw walks all of e's ancestors and
    scans e's whole subtree, e included."""
    size = sum(k**d for d in range(h))
    colors = [-1] * size
    palette = []
    num = 0
    rnd = rng.random
    leaves = size - k ** (h - 1)
    for e in treeembed._shuffled_range(size, rng):
        while True:
            r = int(rnd() * (num + 1))
            if r >= num:
                palette.append(r)
                num += 1
                break
            a = e
            while a:
                a = (a - 1) // k
                if colors[a] == r:
                    break
            else:  # no ancestor has r; a leaf has no subtree to scan
                if e >= leaves or not _reference_color_in_subtree(colors, k, e, r):
                    break
        colors[e] = palette[r]
    return colors


def tree_posets_on(n):
    return [p for p in posets_of_size(n) if is_tree_poset(p)]


def embed_on_downtree(t, unusable, k, coloring):
    """embed_downtree_on_host over the colors of downtree(k, k); that
    builder labels breadth-first, so node v is element v and the
    certificate re-checks on the poset."""
    cert = embed_downtree_on_host(t, unusable, CompleteDowntreeHost(k, coloring.colors))
    assert verify_certificate(downtree(k, k), coloring.colors, t, cert)
    return cert


class TestClassify:
    def test_chain_from_top(self):
        meta = classify_tree(chain(3))
        assert meta.base == 2
        assert meta.dist == (1, 1, 0)
        assert meta.side == ("down", "down", "base")

    def test_vee_sides_and_originator(self):
        meta = classify_tree(vee())  # base is the lower-indexed top
        assert meta.base == 1
        assert meta.dist[0] == 1 and meta.side[0] == "down"
        assert meta.dist[2] == 2 and meta.side[2] == "up"
        assert meta.orig[2] == 0

    def test_parity_matches_side(self):
        for n in range(1, 6):
            for t in tree_posets_on(n):
                meta = classify_tree(t)
                for x in range(t.n):
                    if x == meta.base:
                        continue
                    assert (meta.dist[x] % 2 == 1) == (meta.side[x] == "down")

    def test_blocks_partition(self):
        for n in range(1, 6):
            for t in tree_posets_on(n):
                meta = classify_tree(t)
                covered = sorted(
                    e
                    for owner, blk in meta.blocks.items()
                    for e in blk
                    if e != owner
                ) + [meta.base]
                assert sorted(covered) == list(range(t.n))

    def test_rejects_non_trees(self):
        with pytest.raises(NotATreePoset):
            classify_tree(diamond())


def reference_is_tree_poset(p):
    """The cover-graph test: n - 1 covers, connected over a cover
    adjacency list."""
    n = p.n
    if n == 0:
        return False
    covers = p.cover_pairs()
    if len(covers) != n - 1:
        return False
    adj = [0] * n
    for a, b in covers:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    seen = 1
    frontier = 1
    while frontier:
        new = 0
        for x in range(n):
            if frontier >> x & 1:
                new |= adj[x]
        frontier = new & ~seen
        seen |= new
    return seen == (1 << n) - 1


def reference_classify_tree(t):
    """(base, dist, side, orig, blocks) by a list-based breadth-first search,
    each originator picked by scanning all n elements and sorting the
    candidates one step closer to the base."""
    n = t.n
    base = min(t.maximal_elements())
    dist = [-1] * n
    dist[base] = 0
    frontier = [base]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in range(n):
                if t.comparable(x, y) and dist[y] < 0:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    assert min(dist) >= 0
    rank = rank_partition(t)
    side = tuple("base" if x == base else ("down" if dist[x] % 2 else "up") for x in range(n))
    orig = [None] * n
    for z in range(n):
        if z == base:
            continue
        if side[z] == "up":
            cands = [w for w in range(n) if t.less(w, z) and dist[w] == dist[z] - 1]
            cands.sort(key=lambda w: (-rank[w], w))
        else:
            cands = [w for w in range(n) if t.less(z, w) and dist[w] == dist[z] - 1]
            cands.sort(key=lambda w: (rank[w], w))
        orig[z] = cands[0]
    members = {}
    for z in range(n):
        if z != base:
            members.setdefault(orig[z], []).append(z)
    blocks = {owner: tuple(sorted([owner] + members.get(owner, []))) for owner in range(n)}
    return base, tuple(dist), side, tuple(orig), blocks


def random_labeled_tree(rng, n):
    """A tree poset on n elements: each element after the first joins a
    random earlier one by a cover of random direction, then the labels are
    shuffled, so no index order follows the tree."""
    label = rng.sample(range(n), n)
    covers = []
    for i in range(1, n):
        j = rng.randrange(i)
        covers.append((label[i], label[j]) if rng.random() < 0.5 else (label[j], label[i]))
    return make_poset(n, covers)


def random_labeled_poset(rng, n):
    order = rng.sample(range(n), n)
    covers = [(order[a], order[b]) for b in range(n) for a in range(b) if rng.random() < 0.3]
    return make_poset(n, covers)


def assert_matches_the_references(p):
    assert is_tree_poset(p) == reference_is_tree_poset(p)
    if is_tree_poset(p):
        meta = classify_tree(p)
        got = (meta.base, meta.dist, meta.side, meta.orig, meta.blocks)
        assert got == reference_classify_tree(p)
        assert list(meta.blocks) == list(range(p.n))


class TestClassifyAgainstReference:
    def test_every_catalog_poset_and_its_dual(self):
        trees = 0
        for n in range(1, 8):
            for p in posets_of_size(n):
                for q in (p, dual(p)):
                    assert_matches_the_references(q)
                    trees += is_tree_poset(q)
        assert trees == 2 * (1 + 1 + 3 + 8 + 27 + 91 + 350)  # tree posets on 1..7 elements

    def test_seeded_random_labeled_trees(self):
        rng = random.Random("classify-reference")
        for _ in range(1200):
            t = random_labeled_tree(rng, rng.randint(1, 9))
            assert is_tree_poset(t)
            assert_matches_the_references(t)
            assert_matches_the_references(dual(t))

    def test_seeded_random_labeled_posets(self):
        rng = random.Random("tree-test-reference")
        for _ in range(1500):
            p = random_labeled_poset(rng, rng.randint(0, 9))
            assert_matches_the_references(p)

    def test_universal_tree_is_a_tree(self):
        ut = universal_tree(3)
        assert is_tree_poset(ut.poset) and reference_is_tree_poset(ut.poset)
        # n - 1 covers, but a 4-cycle and an isolated point
        cycle_and_point = disjoint_sum(diamond(), chain(1))
        assert not is_tree_poset(cycle_and_point) and not reference_is_tree_poset(cycle_and_point)


class TestEmbedDowntree:
    def rank_coloring(self, p):
        return Coloring.from_values(rank_partition(p))

    def test_single_element_to_root(self):
        host = downtree(3, 3)
        cert = embed_on_downtree(chain(1), set(), 3, self.rank_coloring(host))
        assert not host.up_mask(cert.mapping[0])  # the root

    def test_single_element_avoiding_root_color(self):
        host = downtree(3, 3)
        coloring = self.rank_coloring(host)
        root_color = coloring.colors[host.maximal_elements()[0]]
        cert = embed_on_downtree(chain(1), {root_color}, 3, coloring)
        ranks = rank_partition(host)
        # highest-ranked element with a usable color
        assert ranks[cert.mapping[0]] == 2

    def test_small_tree_into_rank_colored_host(self):
        host = downtree(3, 3)
        cert = embed_on_downtree(downtree(2, 2), set(), 3, self.rank_coloring(host))
        assert len(set(cert.colors)) == 3

    def test_host_height_below_its_arity(self):
        # the precondition is the slack at the root, h >= |t| + blocked
        # colors, not a host whose height equals its arity
        host = CompleteDowntreeHost(3, [0, 1, 1, 1])
        assert host.h == 2
        cert = embed_downtree_on_host(chain(2), set(), host)
        assert verify_certificate(host, host.colors, chain(2), cert)

    def test_rejects_short_host(self):
        host = downtree(2, 2)
        with pytest.raises(PreconditionViolated):
            embed_on_downtree(downtree(2, 2), {99}, 2, self.rank_coloring(host))

    def test_never_fails_under_precondition(self):
        rng = random.Random(42)
        for _ in range(200):
            tn = rng.randrange(1, 4)
            pattern = make_poset(tn, [(i, rng.randrange(i)) for i in range(1, tn)])
            u_ct = rng.randrange(0, 3)
            k = tn + u_ct
            host = downtree(k, k)
            coloring = random_proper_coloring(host, rng)
            palette = coloring.num_colors
            unusable = set(rng.sample(range(palette), min(u_ct, palette)))
            embed_on_downtree(pattern, unusable, k, coloring)

    def test_certificate_consistent_with_has_rainbow_copy(self):
        rng = random.Random(3)
        host = downtree(3, 3)
        for _ in range(20):
            coloring = random_proper_coloring(host, rng)
            embed_on_downtree(chain(2), set(), 3, coloring)
            assert has_rainbow_copy(host, coloring, chain(2))

    @pytest.mark.parametrize(
        "pattern, k, image",
        [
            # both elements of the 2-chain on the root: not injective
            (chain(2), 2, {1: 0, 0: 0}),
            # the wedge's two lower elements on nodes 1 and 4, a child of
            # node 1: comparable where the pattern has them incomparable
            (wedge(), 3, {2: 0, 0: 1, 1: 4}),
        ],
        ids=["not-injective", "order-broken"],
    )
    def test_a_bad_image_fails_certificate_verification(self, monkeypatch, pattern, k, image):
        # colored by depth, so each image passes check_block_properties and
        # only verify_certificate can reject it
        host = CompleteDowntreeHost(k, [d for d in range(k) for _ in range(k**d)])
        monkeypatch.setattr(treeembed, "_embed_block", lambda *args: dict(image))
        with pytest.raises(AssertionError, match="invalid certificate"):
            embed_downtree_on_host(pattern, set(), host)


class TestVerifyCertificate:
    def test_tampered_colors_rejected(self):
        host = downtree(2, 2)
        coloring = Coloring((0, 1, 1))
        cert = embed_on_downtree(chain(2), set(), 2, coloring)
        bad = EmbeddingCertificate(mapping=cert.mapping, colors=(9, 9))
        assert not verify_certificate(host, coloring.colors, chain(2), bad)

    def test_incomparable_pair_rejected(self):
        host = downtree(2, 2)
        coloring = Coloring((0, 1, 2))
        bad = EmbeddingCertificate(mapping=(1, 2), colors=(1, 2))
        assert not verify_certificate(host, coloring.colors, chain(2), bad)

    def test_non_injective_rejected(self):
        host = downtree(2, 2)
        coloring = Coloring((0, 1, 2))
        bad = EmbeddingCertificate(mapping=(1, 1), colors=(1, 1))
        assert not verify_certificate(host, coloring.colors, antichain(2), bad)

    def test_any_host_with_less_over_its_colors(self):
        # the arithmetic host checks with its own order; images range over
        # the indices of the colors
        host = CompleteDowntreeHost(2, [0, 1, 1])
        good = EmbeddingCertificate(mapping=(1, 0), colors=(1, 0))
        assert verify_certificate(host, host.colors, chain(2), good)
        outside = EmbeddingCertificate(mapping=(3, 0), colors=(1, 0))
        assert not verify_certificate(host, host.colors, chain(2), outside)


class TestArithmeticHost:
    def test_matches_materialized_host_shape(self):
        cols = random_downtree_coloring(3, 3, random.Random(0))
        host = CompleteDowntreeHost(3, cols)
        assert host.size == 13 and host.h == 3
        assert host.rank(0) == 3
        assert host.children(0) == (1, 2, 3)
        assert host.children(4) == ()
        assert host.less(5, 1) and not host.less(1, 5)

    def test_colorings_are_pinned(self):
        digest = hashlib.sha256()
        for k in range(1, 8):
            for s in range(3):
                cols = random_downtree_coloring(k, k, random.Random(f"color-{k}-{s}"))
                digest.update(repr(cols).encode() + b"\n")
        assert digest.hexdigest() == COLOR_DIGEST

    def test_colorings_match_the_reference(self):
        # every depth boundary of the path sets, heights below 4 included:
        # the same colors and the same final rng state, draw for draw
        for k in range(1, 7):
            for h in range(1, 8):
                if sum(k**d for d in range(h)) > 60_000:
                    continue
                for s in range(3):
                    want, got = random.Random(s), random.Random(s)
                    expected = reference_downtree_coloring(k, h, want)
                    assert random_downtree_coloring(k, h, got) == expected, (k, h, s)
                    assert got.getstate() == want.getstate(), (k, h, s)

    def test_colorings_are_proper(self):
        # the host order walks parents on its own; a node's ancestors come
        # before it in breadth-first order
        for k in range(1, 6):
            for s in range(3):
                cols = random_downtree_coloring(k, k, random.Random(f"proper-{k}-{s}"))
                host = CompleteDowntreeHost(k, cols)
                for a in range(host.size):
                    for b in range(a):
                        if host.less(a, b):
                            assert cols[a] != cols[b], (k, s, a, b)

    def test_height_comes_from_the_colors(self):
        for k in (2, 3, 4):
            for h, size in ((1, 1), (2, 1 + k), (3, 1 + k + k * k)):
                assert CompleteDowntreeHost(k, [0] * size).h == h
            for size in (0, 1 + k + 1):
                with pytest.raises(BadParams):
                    CompleteDowntreeHost(k, [0] * size)
        for size in range(1, 7):  # a chain: every positive length fills it
            assert CompleteDowntreeHost(1, [0] * size).h == size
        with pytest.raises(BadParams):
            CompleteDowntreeHost(1, [])
        with pytest.raises(BadParams):
            CompleteDowntreeHost(0, [0])

    def test_shuffle_matches_random_shuffle(self):
        # the inlined shuffle gives random.Random.shuffle's permutation and
        # leaves the generator where shuffle leaves it
        for seed in range(3):
            for size in range(1, 601):
                want, got = random.Random(seed), random.Random(seed)
                order = list(range(size))
                want.shuffle(order)
                assert list(treeembed._shuffled_range(size, got)) == order, (seed, size)
                assert got.getstate() == want.getstate(), (seed, size)

    def test_one_int_object_per_color(self):
        cols = random_downtree_coloring(7, 7, random.Random("one-object"))
        assert len({id(c) for c in cols}) == len(set(cols))

    def test_coloring_memory(self):
        # a k = 7 host (137,257 nodes) holds its colors list and little else:
        # about 1.8 MB traced on Python 3.11, against about 8 MB with a list
        # order and a fresh int per draw
        tracemalloc.start()
        try:
            random_downtree_coloring(7, 7, random.Random("memory"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_blocked_below_counts_the_colors_of_each_subtree(self):
        # every node of small hosts against a walk of its subtree through
        # children; avoid sets hold colors absent from the host too
        rng = random.Random("blocked-below")
        for k in range(1, 4):
            for h in range(1, 5):
                host = CompleteDowntreeHost(k, random_downtree_coloring(k, h, rng))
                palette = max(host.colors) + 1
                avoids = [set(), set(range(palette + 3)), {palette, palette + 5}]
                avoids += [set(rng.sample(range(palette + 3), rng.randint(1, 4))) for _ in range(4)]
                for v in range(host.size):
                    below, stack = set(), [v]
                    while stack:
                        w = stack.pop()
                        below.add(host.colors[w])
                        stack.extend(host.children(w))
                    for avoid in avoids:
                        assert host.blocked_below(v, avoid) == len(avoid & below), (k, h, v)

    def test_coloring_rejects_empty_shapes(self):
        for k, h in ((0, 3), (3, 0)):
            with pytest.raises(BadParams):
                random_downtree_coloring(k, h, random.Random(0))

    def test_fuzz_cases(self):
        for seed in range(250):
            stats = downtree_fuzz_case(seed)
            assert stats["k"] >= stats["pattern_size"] + stats["unusable"]

    def test_fuzz_hits_larger_hosts(self):
        assert downtree_fuzz_case(137)["k"] == 7


class TestBreadthFirstHost:
    """The builders lay trees out as CompleteDowntreeHost reads them:
    breadth-first, children in index order."""

    def test_builders_are_already_breadth_first(self):
        # node v of the arithmetic host is element region[v]: embed_universal
        # reads the core and every region in place on this fact
        cases = []
        for k in range(1, 5):
            host = downtree(k, k)
            cases.append((host, k, tuple(range(host.n)), "down"))
        for k in range(1, 4):
            ut = universal_tree(k)
            cases.append((ut.poset, k, ut.core, "down"))
            for e, region in ut.regions.items():
                cases.append((ut.poset, k, region, "up" if ut.side[e] == "down" else "down"))
        for poset, k, region, orientation in cases:
            size = len(region)
            tree = CompleteDowntreeHost(k, [0] * size)
            for a in range(size):
                for b in range(size):
                    if a == b:
                        continue
                    x, y = region[a], region[b]
                    below = poset.less(x, y) if orientation == "down" else poset.less(y, x)
                    assert tree.less(a, b) == below, (k, region, a, b)

    def test_cli_does_not_import_numpy(self, src_env):
        code = "import sys, rainbowposet.cli; print('numpy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=src_env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestHostAgreement:
    """downtree(k, k) is labeled breadth-first, so a certificate found on
    the arithmetic host over its colors is also one on the poset."""

    def test_same_certificate_on_both_hosts(self):
        rng = random.Random("host-agreement")
        for _ in range(200):
            k = rng.randint(1, 4)
            tn = rng.randint(1, k)
            pattern = make_poset(tn, [(i, rng.randrange(i)) for i in range(1, tn)])
            coloring = Coloring.from_values(random_downtree_coloring(k, k, rng))
            palette = coloring.num_colors
            u_ct = rng.randint(0, k - tn)
            unusable = set(rng.sample(range(palette + 2), min(u_ct, palette + 2)))
            cert = embed_on_downtree(pattern, unusable, k, coloring)
            assert not set(cert.colors) & unusable


class TestEmbedUniversal:
    def test_order2_exhaustive(self):
        ut = universal_tree(2)
        count = 0
        for coloring in proper_colorings(ut.poset):
            cert = embed_universal(chain(2), ut, coloring)
            assert verify_certificate(ut.poset, coloring.colors, chain(2), cert)
            count += 1
        assert count == 203

    def test_vee_under_rank_coloring(self):
        ut = universal_tree(3)
        coloring = Coloring.from_values(rank_partition(ut.poset))
        cert = embed_universal(vee(), ut, coloring)
        assert len(set(cert.colors)) == 3

    def test_order3_sampled(self):
        ut = universal_tree(3)
        trees = tree_posets_on(3)
        assert len(trees) == 3  # the chain, the vee and the wedge
        for i in range(30):
            coloring = random_proper_coloring(ut.poset, random.Random(i))
            for t in trees:
                cert = embed_universal(t, ut, coloring)
                assert verify_certificate(ut.poset, coloring.colors, t, cert)

    def test_order3_sweep_is_pinned(self):
        ut = universal_tree(3)
        trees = tree_posets_on(3)
        certs = []
        for i in range(100):
            coloring = random_proper_coloring(ut.poset, random.Random(f"t3-{i}"))
            certs.extend(embed_universal(t, ut, coloring) for t in trees)
        digest = hashlib.sha256(repr([(c.mapping, c.colors) for c in certs]).encode())
        assert digest.hexdigest() == UNIVERSAL_DIGEST

    def test_every_block_goes_through_the_downtree_embedder(self, monkeypatch):
        # the vee's second block grows up from its bottom element, so it is
        # embedded as its dual; order 3 is the least that fits the vee
        ut = universal_tree(3)
        coloring = random_proper_coloring(ut.poset, random.Random(0))
        meta = classify_tree(vee())
        # one call for the base block, one for every other block of two or more
        expected = [len(b) for z, b in meta.blocks.items() if z == meta.base or len(b) > 1]
        sizes = []
        real = treeembed.embed_downtree_on_host

        def spy(t, unusable, host):
            sizes.append(t.n)
            return real(t, unusable, host)

        monkeypatch.setattr(treeembed, "embed_downtree_on_host", spy)
        cert = embed_universal(vee(), ut, coloring)
        assert sorted(sizes) == sorted(expected) == [2, 2]
        assert verify_certificate(ut.poset, coloring.colors, vee(), cert)

    def test_rejects_oversized_pattern(self):
        with pytest.raises(PreconditionViolated):
            embed_universal(chain(3), universal_tree(2), Coloring((0,) * 7))

    def test_wedge_and_chain(self):
        ut = universal_tree(3)
        rng = random.Random("w")
        coloring = random_proper_coloring(ut.poset, rng)
        for t in (wedge(), chain(3)):
            cert = embed_universal(t, ut, coloring)
            assert verify_certificate(ut.poset, coloring.colors, t, cert)
