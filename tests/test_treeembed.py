"""Tree classification, the downtree embedder and the universal embedder."""

import random
import subprocess
import sys

import pytest

from rainbowposet import (
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
    embed_downtree,
    embed_downtree_on_host,
    embed_universal,
    has_rainbow_copy,
    is_proper,
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
from rainbowposet.treeembed import EmbeddingCertificate, _breadth_first_host


def tree_posets_on(n):
    return [p for p in posets_of_size(n) if is_tree_poset(p)]


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
        with pytest.raises(PreconditionViolated):
            classify_tree(chain(3), base=0)


class TestEmbedDowntree:
    def rank_coloring(self, p):
        return Coloring.from_values(rank_partition(p).rank)

    def test_single_element_to_root(self):
        host = downtree(3, 3)
        cert = embed_downtree(chain(1), set(), host, self.rank_coloring(host))
        assert not host.up_mask(cert.mapping[0])  # the root

    def test_single_element_avoiding_root_color(self):
        host = downtree(3, 3)
        coloring = self.rank_coloring(host)
        root_color = coloring.colors[host.maximal_elements()[0]]
        cert = embed_downtree(chain(1), {root_color}, host, coloring)
        ranks = rank_partition(host).rank
        # highest-ranked element with a usable color
        assert ranks[cert.mapping[0]] == 2

    def test_small_tree_into_rank_colored_host(self):
        host = downtree(3, 3)
        cert = embed_downtree(downtree(2, 2), set(), host, self.rank_coloring(host))
        assert len(set(cert.colors)) == 3

    def test_rejects_short_host(self):
        host = downtree(2, 2)
        with pytest.raises(PreconditionViolated):
            embed_downtree(downtree(2, 2), {99}, host, self.rank_coloring(host))

    def test_rejects_non_complete_host(self):
        host = chain(3)
        with pytest.raises(PreconditionViolated):
            embed_downtree(chain(2), set(), host, Coloring((0, 1, 2)))

    def test_rejects_host_with_shared_children(self):
        # three middles all cover the same three leaves: complete 3-ary by
        # arity and leaf depth, but not a tree
        covers = [(m, 0) for m in (1, 2, 3)]
        covers += [(leaf, m) for m in (1, 2, 3) for leaf in (4, 5, 6)]
        host = make_poset(7, covers)
        coloring = self.rank_coloring(host)
        with pytest.raises(PreconditionViolated, match="host tree is not a downtree"):
            embed_downtree(wedge(), set(), host, coloring)

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
            cert = embed_downtree(pattern, unusable, host, coloring)
            assert verify_certificate(host, coloring, pattern, cert)

    def test_certificate_consistent_with_has_rainbow_copy(self):
        rng = random.Random(3)
        host = downtree(3, 3)
        for _ in range(20):
            coloring = random_proper_coloring(host, rng)
            cert = embed_downtree(chain(2), set(), host, coloring)
            assert verify_certificate(host, coloring, chain(2), cert)
            assert has_rainbow_copy(host, coloring, chain(2))


class TestVerifyCertificate:
    def test_tampered_colors_rejected(self):
        host = downtree(2, 2)
        coloring = Coloring((0, 1, 1))
        cert = embed_downtree(chain(2), set(), host, coloring)
        bad = EmbeddingCertificate(mapping=cert.mapping, colors=(9, 9))
        assert not verify_certificate(host, coloring, chain(2), bad)

    def test_incomparable_pair_rejected(self):
        host = downtree(2, 2)
        coloring = Coloring((0, 1, 2))
        bad = EmbeddingCertificate(mapping=(1, 2), colors=(1, 2))
        assert not verify_certificate(host, coloring, chain(2), bad)

    def test_non_injective_rejected(self):
        host = downtree(2, 2)
        coloring = Coloring((0, 1, 2))
        bad = EmbeddingCertificate(mapping=(1, 1), colors=(1, 1))
        assert not verify_certificate(host, coloring, antichain(2), bad)


class TestArithmeticHost:
    def test_matches_materialized_host_shape(self):
        cols = random_downtree_coloring(3, 3, random.Random(0))
        host = CompleteDowntreeHost(3, 3, cols)
        assert host.size == 13
        assert host.rank(0) == 3
        assert host.children(0) == (1, 2, 3)
        assert host.children(4) == ()
        assert host.less(5, 1) and not host.less(1, 5)

    def test_fuzz_cases(self):
        for seed in range(250):
            stats = downtree_fuzz_case(seed)
            assert stats["k"] >= stats["pattern_size"] + stats["unusable"]

    def test_fuzz_hits_larger_hosts(self):
        assert downtree_fuzz_case(137)["k"] == 7


class TestBreadthFirstHost:
    """A poset host is relabeled breadth-first, children in index order,
    into the layout of CompleteDowntreeHost; node v is element order[v]."""

    def test_builders_are_already_breadth_first(self):
        for k in range(1, 5):
            host = downtree(k, k)
            _, order = _breadth_first_host(host, [0] * host.n)
            assert order == list(range(host.n))
        for k in range(1, 4):
            ut = universal_tree(k)
            regions = [(tuple(sorted(ut.core)), "down")] + [
                (tuple(sorted(r)), "up" if ut.side[e] == "down" else "down")
                for e, r in ut.regions.items()
            ]
            for elems, orientation in regions:
                sub = ut.poset.restrict(elems)
                host, order = _breadth_first_host(sub, [0] * sub.n, orientation, ut.k)
                assert order == list(range(sub.n))
                assert host.k == ut.k and host.size == sub.n

    def test_permuted_host_maps_back(self):
        base = downtree(3, 3)
        rng = random.Random("permuted-host")
        for _ in range(50):
            perm = list(range(base.n))
            rng.shuffle(perm)
            host = make_poset(base.n, [(perm[a], perm[b]) for a, b in base.cover_pairs()])
            tn = rng.randint(1, 3)
            pattern = make_poset(tn, [(i, rng.randrange(i)) for i in range(1, tn)])
            coloring = random_proper_coloring(host, rng)
            palette = coloring.num_colors
            u_ct = rng.randint(0, 3 - tn)
            unusable = set(rng.sample(range(palette + 2), min(u_ct, palette + 2)))
            cert = embed_downtree(pattern, unusable, host, coloring)
            assert verify_certificate(host, coloring, pattern, cert)
            assert not set(cert.colors) & unusable

    def test_rejects_wrong_arity(self):
        with pytest.raises(PreconditionViolated, match="host arity 2 differs from required 3"):
            _breadth_first_host(downtree(2, 2), [0, 1, 1], arity=3)

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
    """downtree(k, k) is labeled breadth-first, so the poset path and the
    arithmetic path over the same colored tree yield the same certificate."""

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
            on_poset = embed_downtree(pattern, unusable, downtree(k, k), coloring)
            on_host = embed_downtree_on_host(
                pattern, unusable, CompleteDowntreeHost(k, k, coloring.colors)
            )
            assert on_poset == on_host


class TestEmbedUniversal:
    def test_order2_exhaustive(self):
        ut = universal_tree(2)
        count = 0
        for coloring in proper_colorings(ut.poset):
            cert = embed_universal(chain(2), ut, coloring)
            assert verify_certificate(ut.poset, coloring, chain(2), cert)
            count += 1
        assert count == 203

    def test_vee_under_rank_coloring(self):
        ut = universal_tree(3)
        coloring = Coloring.from_values(rank_partition(ut.poset).rank)
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
                assert verify_certificate(ut.poset, coloring, t, cert)

    def test_rejects_oversized_pattern(self):
        with pytest.raises(PreconditionViolated):
            embed_universal(chain(3), universal_tree(2), Coloring((0,) * 7))

    def test_wedge_and_chain(self):
        ut = universal_tree(3)
        rng = random.Random("w")
        coloring = random_proper_coloring(ut.poset, rng)
        for t in (wedge(), chain(3)):
            cert = embed_universal(t, ut, coloring)
            assert verify_certificate(ut.poset, coloring, t, cert)
