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
    downtree,
    downtree_fuzz_case,
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
        # classify_tree raises internally if the blocks fail to partition
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
