"""Named poset builders and their structural guarantees."""

import hashlib
import itertools

import pytest

from rainbowposet import (
    BadParams,
    a3_witness,
    antichain,
    are_isomorphic,
    blowup,
    chain,
    complete_multilevel,
    d_jk,
    diamond,
    downtree,
    dual,
    harp,
    height,
    is_tree_poset,
    jay,
    o_jk,
    organ,
    perp_value,
    posets_of_size,
    rank_partition,
    universal_tree,
    uptree,
    vee,
)


def test_chain_antichain():
    assert are_isomorphic(chain(1), antichain(1))
    assert height(chain(3)) == 3
    assert not any(antichain(3).comparable(x, y) for x in range(3) for y in range(3))
    with pytest.raises(BadParams):
        chain(0)


def test_organ_harp_sizes():
    assert are_isomorphic(organ(2), chain(1))  is False
    assert organ(2).n == 3
    assert organ(4).n == 10
    h = harp(2)
    assert h.n == 5
    assert len(h.minimal_elements()) == 1
    assert len(h.maximal_elements()) == 1
    assert harp(3).n == 8


def test_complete_multilevel():
    assert are_isomorphic(complete_multilevel([1, 2, 1]), diamond())
    assert are_isomorphic(complete_multilevel([1, 1, 1]), chain(3))
    k22 = complete_multilevel([2, 2])
    assert height(k22) == 2 and k22.n == 4


def test_vee_jay():
    assert vee().n == 3 and jay().n == 4
    assert len(jay().minimal_elements()) == 1
    assert perp_value(vee()) == 4 == jay().n


class TestBlowup:
    def test_antichain_gives_organ(self):
        for k in range(1, 5):
            for pi in itertools.permutations(range(k)):
                assert are_isomorphic(blowup(antichain(k), pi), organ(k))

    def test_chain_fixed(self):
        for pi in itertools.permutations(range(4)):
            assert are_isomorphic(blowup(chain(4), pi), chain(4))

    def test_vee_gives_jay(self):
        for pi in itertools.permutations(range(3)):
            assert are_isomorphic(blowup(vee(), pi), jay())

    def test_size_is_perp(self):
        for n in range(1, 6):
            for p in posets_of_size(n):
                pv = perp_value(p)
                for pi in itertools.permutations(range(n)):
                    assert blowup(p, pi).n == pv

    def test_one_per_chain_is_a_copy(self):
        # picking one element from every blown-up chain induces the original
        for n in range(1, 5):
            for p in posets_of_size(n):
                for pi in itertools.permutations(range(n)):
                    b = blowup(p, pi)
                    groups = {}
                    for i, lab in enumerate(b.labels):
                        groups.setdefault(int(lab.split(".")[0]), []).append(i)
                    for pick in itertools.product(*groups.values()):
                        assert are_isomorphic(b.restrict(sorted(pick)), p)


def test_downtree_uptree():
    assert are_isomorphic(downtree(2, 2), dual(vee()))
    assert downtree(3, 3).n == 13
    assert downtree(5, 1).n == 1
    assert are_isomorphic(uptree(2, 2), vee())
    assert are_isomorphic(uptree(3, 3), dual(downtree(3, 3)))
    assert len(downtree(2, 3).maximal_elements()) == 1


class TestDjk:
    def test_sizes(self):
        assert d_jk(2, 4).n == 9
        assert o_jk(2, 4).n == 12
        for j, k in [(2, 4), (2, 5), (3, 5), (2, 6), (4, 6)]:
            assert d_jk(j, k).n == 2 * k + 1

    def test_required_covers(self):
        p = d_jk(2, 4)
        idx = {name: i for i, name in enumerate(p.labels)}
        covers = set(p.cover_pairs())
        assert (idx["b'_2"], idx["m"]) in covers
        assert (idx["m"], idx["t'_3"]) in covers
        assert (idx["b_2"], idx["m'_1"]) in covers

    def test_boundary_cover_omitted(self):
        # at j = k-2 the first chain has no top part, so the cover out of
        # the second middle pair has nowhere to go
        p = d_jk(2, 4)
        assert not any(lab and lab.startswith("t_") for lab in p.labels)

    def test_cover_graph_connected_but_cyclic(self):
        # the two chains plus the four cross covers always close a cycle,
        # so these posets are connected yet never tree posets
        for j, k in [(2, 4), (2, 5), (3, 5)]:
            p = d_jk(j, k)
            covers = p.cover_pairs()
            assert len(covers) >= p.n  # a tree would have n - 1
            assert not is_tree_poset(p)
            adj = [0] * p.n
            for a, b in covers:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            seen, frontier = 1, 1
            while frontier:
                new = 0
                rest = frontier
                while rest:
                    low = rest & -rest
                    new |= adj[low.bit_length() - 1]
                    rest ^= low
                frontier = new & ~seen
                seen |= new
            assert seen == (1 << p.n) - 1

    def test_bad_params(self):
        with pytest.raises(BadParams):
            d_jk(1, 4)
        with pytest.raises(BadParams):
            d_jk(3, 4)
        with pytest.raises(BadParams):
            d_jk(2, 3)


def test_a3_witness():
    w = a3_witness()
    assert w.n == 7
    u = w.labels.index("u")
    assert not w.up_mask(u) and not w.down_mask(u)
    assert height(w) == 4


class TestUniversalTree:
    # sha256 of the repr of each part of universal_tree(k), so that a change
    # to the construction that moves an element, a cover arc or a tag shows;
    # k = 4 (26,980,837 elements) is past the 4,096-element POSET_CAP.
    PINS = {
        1: {
            "up": "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633",
            "side": "b3b60dbdd2ae4f573cb0213fd929b3d024c36adf928fbc4a409fd8e6d2ea883c",
            "round_added": "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633",
            "core": "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633",
            "regions": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        },
        2: {
            "up": "4657abd9b400c3170ada181d2b5703d19cea32872f1bf5b2cbe31d07e27aeb94",
            "side": "b2e3747c68cb0d999ba015f3e378ac6a7346f6eaeabe8c810299c9be2e0563f5",
            "round_added": "e2d532ae10acfdc28d0910f583bfb8aaba0c66074506c642febd725e7749a5bd",
            "core": "eae0f06c46ca0f14a374a87039c6d6a96af56215c1d208a1bf5776896e66137f",
            "regions": "8dab71b4f9d0293d4c0e8ebef2626acb2cbd4c5815b422fb5fb9e2795c58abe7",
        },
        3: {
            "up": "bae279567b393640b31535882373a09456feaf4c9e1ae14e78aff31639eab0ef",
            "side": "20bd8601803bb8957b7c9dd29bd6b71a22f4b015c5fdf07dbd28726c52ec3085",
            "round_added": "6ca1145bbe4be52eb67d959c86e6916801f751bc5d0df536cf6823ec081e87ac",
            "core": "d4d6f13d916776d13676b94fde2deed3eb1b0614f47ecf65026cfe0be6a64eea",
            "regions": "6cc8fa201ff758a9aa9b82a5685b9ad418996935ef2dc84bef41c22cce3aef24",
        },
    }

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pinned_structure(self, k):
        ut = universal_tree(k)
        parts = {
            "up": tuple(ut.poset._up),
            "side": ut.side,
            "round_added": ut.round_added,
            "core": ut.core,
            "regions": sorted(ut.regions.items()),
        }
        got = {
            key: hashlib.sha256(repr(value).encode()).hexdigest()
            for key, value in parts.items()
        }
        assert got == self.PINS[k]

    def test_sizes(self):
        assert universal_tree(1).n == 1
        assert universal_tree(2).n == 7
        assert universal_tree(3).n == 1291

    def test_tree_and_height(self):
        for k in (2, 3):
            ut = universal_tree(k)
            assert is_tree_poset(ut.poset)
            assert height(ut.poset) == k

    def test_all_maximal_chains_have_full_length(self):
        # graded criterion: every cover step raises rank by one and every
        # maximal element sits at the top rank
        for k in (2, 3):
            ut = universal_tree(k)
            rank = rank_partition(ut.poset).rank
            for a, b in ut.poset.cover_pairs():
                assert rank[b] == rank[a] + 1
            for x in ut.poset.maximal_elements():
                assert rank[x] == k

    def test_regions_cover_all_but_last_round(self):
        ut = universal_tree(3)
        last = max(ut.round_added)
        for e in range(ut.n):
            if e == ut.center:
                continue
            if ut.round_added[e] < last:
                assert e in ut.regions
                assert ut.regions[e][0] == e
