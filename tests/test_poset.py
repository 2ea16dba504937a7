"""Core poset representation, algebra and search, checked against
brute-force oracles on small instances."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowposet import (
    BadParams,
    CyclicInput,
    Poset,
    SetFamily,
    adjoin_extremum,
    antichain,
    are_isomorphic,
    canonical_form,
    canonical_key,
    chain,
    diamond,
    disjoint_sum,
    dual,
    family_poset,
    height,
    is_tree_poset,
    iter_antichain_families,
    linear_sum,
    make_poset,
    organ,
    perp_value,
    poset_from_text,
    poset_to_text,
    posets_of_size,
    rank_partition,
    vee,
    wedge,
)
from rainbowposet.poset import _SMALL_BITS, _bits, _scan_bits


def test_bits_table_is_the_bit_scan():
    # the table is built by doubling; the scan is the definition
    assert len(_SMALL_BITS) == 1024
    assert all(_SMALL_BITS[m] == _scan_bits(m) for m in range(1024))
    assert _bits(1023) == tuple(range(10)) and _bits(1 << 10 | 5) == (0, 2, 10)


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    covers = []
    for b in range(1, n):
        for a in range(b):
            if draw(st.booleans()):
                covers.append((a, b))
    return make_poset(n, covers)


def brute_longest_chain(p):
    best = 1
    for size in range(1, p.n + 1):
        for sub in itertools.combinations(range(p.n), size):
            if all(p.comparable(x, y) for x, y in itertools.combinations(sub, 2)):
                best = max(best, size)
    return best


def naive_induced_copies(host, pattern):
    out = set()
    for sub in itertools.combinations(range(host.n), pattern.n):
        for bij in itertools.permutations(sub):
            if all(
                pattern.less(i, j) == host.less(bij[i], bij[j])
                for i in range(pattern.n)
                for j in range(pattern.n)
            ):
                out.add(sub)
                break
    return tuple(sorted(out))


def isomorphic_by_bruteforce(p, q):
    """Oracle: bijection search. Only sensible for small n."""
    if p.n != q.n:
        return False
    for perm in itertools.permutations(range(p.n)):
        if all(
            p.less(x, y) == q.less(perm[x], perm[y])
            for x in range(p.n)
            for y in range(p.n)
        ):
            return True
    return False


class TestMakePoset:
    def test_two_chain(self):
        p = make_poset(2, [(0, 1)])
        assert p.less(0, 1) and not p.less(1, 0)

    def test_transitive_closure(self):
        p = make_poset(3, [(0, 1), (1, 2)])
        assert p.less(0, 2)

    def test_cycle_rejected(self):
        with pytest.raises(CyclicInput):
            make_poset(3, [(0, 1), (1, 2), (2, 0)])

    def test_bad_index(self):
        with pytest.raises(BadParams):
            make_poset(2, [(0, 5)])


class TestAlgebra:
    def test_chains_self_dual(self):
        assert are_isomorphic(dual(chain(3)), chain(3))

    def test_dual_swaps_vee_wedge(self):
        assert are_isomorphic(dual(vee()), wedge())

    def test_dual_involution(self):
        assert are_isomorphic(dual(dual(organ(3))), organ(3))
        for n in range(1, 6):
            for p in posets_of_size(n):
                assert are_isomorphic(dual(dual(p)), p)

    def test_disjoint_sum(self):
        assert are_isomorphic(disjoint_sum(chain(1), chain(2)), organ(2))
        assert are_isomorphic(disjoint_sum(antichain(1), antichain(1)), antichain(2))
        assert disjoint_sum(chain(3), organ(2)).n == 6

    def test_linear_sum(self):
        assert are_isomorphic(linear_sum(chain(1), antichain(2)), vee())
        from rainbowposet import harp

        assert are_isomorphic(
            linear_sum(linear_sum(chain(1), organ(2)), chain(1)), harp(2)
        )
        assert are_isomorphic(linear_sum(chain(2), chain(3)), chain(5))

    def test_adjoin(self):
        assert are_isomorphic(adjoin_extremum(antichain(2), "bottom"), vee())
        assert are_isomorphic(
            adjoin_extremum(adjoin_extremum(antichain(2), "bottom"), "top"), diamond()
        )
        assert are_isomorphic(adjoin_extremum(chain(3), "top"), chain(4))


class TestStructure:
    def test_rank_examples(self):
        assert rank_partition(chain(3)) == (1, 2, 3)
        assert rank_partition(antichain(3)) == (1, 1, 1)
        assert rank_partition(diamond()) == (1, 2, 2, 3)

    def test_layers_are_antichains(self):
        for n in range(1, 7):
            for p in posets_of_size(n):
                rank = rank_partition(p)
                for x, y in itertools.combinations(range(p.n), 2):
                    if rank[x] == rank[y]:
                        assert not p.comparable(x, y)

    def test_height_matches_brute_longest_chain(self):
        for n in range(1, 8):
            for p in posets_of_size(n):
                assert height(p) == brute_longest_chain(p)

    def test_perp_examples(self):
        assert perp_value(antichain(3)) == 6
        assert perp_value(antichain(4)) == 10
        assert perp_value(chain(4)) == 4
        assert perp_value(diamond()) == 5

    def test_perp_floor_equality_iff_chain(self):
        for n in range(1, 7):
            for p in posets_of_size(n):
                pv = perp_value(p)
                assert pv >= p.n
                assert (pv == p.n) == are_isomorphic(p, chain(n))

    def test_tree_poset(self):
        assert is_tree_poset(vee())
        assert not is_tree_poset(diamond())
        assert not is_tree_poset(organ(2))



class TestIsomorphism:
    def test_examples(self):
        assert are_isomorphic(organ(2), disjoint_sum(chain(1), chain(2)))
        assert not are_isomorphic(chain(3), vee())

    def test_key_agrees_with_bruteforce(self):
        for n in range(1, 5):
            reps = posets_of_size(n)
            for p, q in itertools.combinations_with_replacement(reps, 2):
                assert are_isomorphic(p, q) == isomorphic_by_bruteforce(p, q)
        reps5 = posets_of_size(5)
        for p, q in zip(reps5, reps5[1:]):
            assert not are_isomorphic(p, q)
            assert not isomorphic_by_bruteforce(p, q)
        for p in reps5:
            shuffled = p.restrict(range(p.n - 1, -1, -1))
            assert isomorphic_by_bruteforce(p, canonical_form(shuffled))
            assert canonical_key(shuffled) == canonical_key(p)

    def test_key_is_label_invariant(self):
        p = make_poset(4, [(0, 1), (1, 3), (2, 3)])
        for perm in itertools.permutations(range(4)):
            relabeled = make_poset(
                4, [(perm[a], perm[b]) for a, b in [(0, 1), (1, 3), (2, 3)]]
            )
            assert canonical_key(relabeled) == canonical_key(p)


class TestTextFormat:
    def test_round_trip_diamond(self):
        d = diamond()
        assert poset_from_text(poset_to_text(d)).same_relation(d)

    def test_comments_and_labels(self):
        text = "poset n=2\n# label 0 bottom\n# a comment\n0 < 1\n"
        p = poset_from_text(text)
        assert p.labels[0] == "bottom"
        assert poset_from_text(poset_to_text(p)).labels == p.labels

    def test_a_label_index_that_is_not_decimal_is_a_comment(self):
        # "²" is a digit but not decimal: int() rejects it; "٠" is decimal
        # but not ASCII, and "0_0" is not a run of digits: int() takes both
        text = "poset n=1\n# label \u00b2 top\n# label x top\n# label \u0660 top\n"
        p = poset_from_text(text + "# label 0_0 top\n")
        assert p.labels is None

    def test_missing_header(self):
        with pytest.raises(BadParams):
            poset_from_text("0 < 1\n")

    @settings(max_examples=60, deadline=None)
    @given(small_posets())
    def test_round_trip_random(self, p):
        back = poset_from_text(poset_to_text(p))
        assert back.same_relation(p)


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_constructor_invariants_random(p):
    # irreflexivity, antisymmetry, transitivity all enforced
    Poset(p._up)  # revalidates
    for x in range(p.n):
        assert not p.less(x, x)
        for y in range(p.n):
            assert not (p.less(x, y) and p.less(y, x))
            for z in range(p.n):
                if p.less(x, y) and p.less(y, z):
                    assert p.less(x, z)


class TestConstructorChecks:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([1], "not irreflexive at 0"),
            ([2, 1], "not antisymmetric at 0"),
            ([2], "row 0 references elements >= n"),
            ([0, 1 << 5], "row 1 references elements >= n"),
            ([2, 4, 0], "not transitive at 0 < 1"),
        ],
    )
    def test_rows_that_are_no_order_are_rejected(self, rows, message):
        with pytest.raises(BadParams, match=message):
            Poset(rows)

    def test_wrong_label_count_is_rejected(self):
        with pytest.raises(BadParams, match="label count"):
            Poset([2, 0], labels=["a"])
        with pytest.raises(BadParams, match="label count"):
            make_poset(2, [(0, 1)], labels=["a", "b", "c"])


@pytest.fixture
def built(monkeypatch):
    """Every poset that `Poset._with_rows` hands out while the test runs:
    the builders that take their rows unchecked."""
    out = []
    with_rows = Poset._with_rows

    def recorded(up, down, rank=None, twins=None, labels=None):
        p = with_rows(up, down, rank, twins, labels)
        out.append(p)
        return p

    monkeypatch.setattr(Poset, "_with_rows", staticmethod(recorded))
    return out


def _random_poset(rng, n):
    """make_poset on random arcs, laid along a random linear extension so
    that the topological order is not the index order."""
    order = rng.sample(range(n), n)
    covers = [(order[a], order[b]) for b in range(n) for a in range(b) if rng.random() < 0.3]
    labels = [f"e{x}" for x in range(n)] if rng.random() < 0.5 else None
    return make_poset(n, covers, labels=labels)


def test_every_unchecked_builder_hands_over_a_valid_order(built):
    # the rows each builder derives are those the checking constructor
    # computes and accepts, as tuples
    rng = random.Random(20261020)
    chain(300)
    for _ in range(60):
        p = _random_poset(rng, rng.randrange(0, 10))
        q = _random_poset(rng, rng.randrange(0, 10))
        p.restrict(rng.sample(range(p.n), rng.randrange(0, p.n + 1)))
        for x in range(p.n):
            p.delete(x)
        dual(p)
        disjoint_sum(p, q)
        linear_sum(p, q)
        adjoin_extremum(p, "top")
        adjoin_extremum(p, "bottom")
        n = rng.randrange(0, 5)
        family_poset(SetFamily.from_masks(n, rng.sample(range(1 << n), rng.randrange(0, 1 << n))))
    iter_antichain_families(3)
    iter_antichain_families(4)
    assert len(built) >= 60 * 9 + 3
    for q in built:
        assert type(q._up) is tuple and type(q._down) is tuple
        assert q.labels is None or type(q.labels) is tuple
        fresh = Poset(q._up, labels=q.labels)
        assert q._down == fresh._down and q.labels == fresh.labels


def test_deep_hosts_build_from_their_covers_quickly():
    start = time.perf_counter()
    deep = chain(4096)
    assert time.perf_counter() - start < 2
    text = poset_to_text(deep)
    start = time.perf_counter()
    read = poset_from_text(text)
    assert time.perf_counter() - start < 2
    assert read._up == deep._up and read._down == deep._down


def test_deep_hosts_write_their_covers_quickly():
    # the dual chain has descending labels, so a peel that walked down the
    # whole chain once per element would take quadratic time here
    for deep in (chain(4096), dual(chain(4096))):
        start = time.perf_counter()
        text = poset_to_text(deep)
        assert time.perf_counter() - start < 2
        assert text.count("<") == 4095


def _pair_test_covers(p):
    """The definition: x < y with no z strictly between them."""
    return tuple(
        (x, y)
        for x in range(p.n)
        for y in range(p.n)
        if p.less(x, y) and not any(p.less(x, z) and p.less(z, y) for z in range(p.n))
    )


def test_cover_pairs_match_the_definition():
    posets = [p for n in range(1, 7) for p in posets_of_size(n)]
    rng = random.Random(20261021)
    posets += [_random_poset(rng, rng.randrange(0, 13)) for _ in range(300)]
    posets += [antichain(5), dual(chain(7)), Poset([])]
    for p in posets:
        assert p.cover_pairs() == _pair_test_covers(p), p._up


@pytest.mark.parametrize("elements", [[0, 5], [-1, 0], [3], [0, 1, 2, 3]])
def test_restrict_rejects_elements_outside_the_poset(elements):
    with pytest.raises(BadParams, match=r"lie in 0\.\.2"):
        chain(3).restrict(elements)
