"""Boolean-lattice set families: masses, chains and extremal searches."""

import pickle
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowposet import (
    BadParams,
    CapExceeded,
    Coloring,
    LaResult,
    SetFamily,
    antichain,
    are_isomorphic,
    chain,
    complete_multilevel,
    family_from_text,
    family_poset,
    family_to_text,
    greedy_pattern_free_family,
    harp,
    has_rainbow_copy,
    height,
    iter_antichain_families,
    la_rainbow_star,
    la_star,
    lubell_mass,
    make_poset,
    max_mass_pattern_free_with_extremes,
    middle_layers,
    minmax_partition,
    organ,
    rainbow_free_layer_check,
    sigma,
    vee,
)

b4_families = st.builds(
    lambda masks: SetFamily.from_masks(4, masks),
    st.sets(st.integers(min_value=0, max_value=15), max_size=16),
)


class TestBasics:
    def test_family_poset_bridge(self):
        assert are_isomorphic(family_poset(middle_layers(4, 1)), antichain(6))
        assert are_isomorphic(
            family_poset(SetFamily.from_sets(3, [[], [1], [1, 2]])), chain(3)
        )
        assert are_isomorphic(
            family_poset(SetFamily.from_sets(3, [[], [1], [2]])), vee()
        )

    def test_masses(self):
        assert lubell_mass(middle_layers(5, 1)) == 1
        assert lubell_mass(SetFamily.from_masks(2, range(4))) == 3
        tight = SetFamily.from_sets(
            4, [[], [1], [2], [1, 2], [1, 2, 3], [1, 2, 4], [1, 2, 3, 4]]
        )
        assert lubell_mass(tight) == Fraction(19, 6)

    def test_mass_is_the_plain_sum_over_sets(self):
        # lubell_mass sums one term per layer; the definition is one term
        # per set
        rng = random.Random("lubell")
        for n in range(9):
            for _ in range(20):
                masks = [m for m in range(1 << n) if rng.random() < rng.random()]
                f = SetFamily.from_masks(n, masks)
                plain = sum(
                    (Fraction(1, comb(n, m.bit_count())) for m in f.sets), Fraction(0)
                )
                assert lubell_mass(f) == plain, (n, f.sets)
            assert lubell_mass(SetFamily.from_masks(n, [])) == 0

    def test_sigma(self):
        assert sigma(4, 1) == 6
        assert sigma(5, 2) == 20
        for n in range(1, 8):
            assert sigma(n, n + 1) == 2**n
        with pytest.raises(BadParams):
            sigma(4, 6)

    def test_distinctness_enforced(self):
        with pytest.raises(BadParams):
            SetFamily(3, (1, 1))

    def test_record_behaviour(self):
        # an immutable record compared, hashed and shown by (n, sets), as a
        # frozen dataclass was; its len is the number of sets
        f = SetFamily(3, (0, 1, 6))
        assert f == SetFamily(n=3, sets=(0, 1, 6)) and f != SetFamily(4, (0, 1, 6))
        assert f != (3, (0, 1, 6)) and hash(f) == hash((3, (0, 1, 6)))
        assert repr(f) == "SetFamily(n=3, sets=(0, 1, 6))"
        assert len(f) == 3 and not SetFamily(2, ())
        assert pickle.loads(pickle.dumps(f)) == f
        with pytest.raises(AttributeError):
            f.sets = ()
        with pytest.raises(AttributeError):
            f.n = 4
        assert (f.n, f.sets) == (3, (0, 1, 6))
        with pytest.raises(BadParams, match="^sets must be sorted and distinct$"):
            SetFamily(2, (3, 1))
        with pytest.raises(BadParams, match="^set mask outside the ground set$"):
            SetFamily(2, (4,))


class TestSperner:
    def test_mass_at_most_height_exhaustive_b4(self):
        # every family of the 4-cube: mass bounded by its longest chain
        from fractions import Fraction
        from math import comb

        weight = [Fraction(1, comb(4, m.bit_count())) for m in range(16)]

        for bits in range(1 << 16):
            masks = []
            rest = bits
            while rest:
                low = rest & -rest
                masks.append(low.bit_length() - 1)
                rest ^= low
            fam = family_poset(SetFamily(4, tuple(masks)))
            assert sum((weight[m] for m in masks), Fraction(0)) <= height(fam)

    def test_antichain_families_are_counted_by_dedekind(self):
        for n, count in enumerate((2, 3, 6, 20, 168)):
            fams = iter_antichain_families(n)
            assert len(fams) == len({f.sets for f in fams}) == count
            for f in fams:
                assert all(a & b not in (a, b) for a in f.sets for b in f.sets if a != b)


class TestMinMax:
    def test_antichain_all_leftover(self):
        rep = minmax_partition(middle_layers(4, 1))
        assert not rep.classes
        assert rep.leftover_count == 24

    def test_extremes_single_class(self):
        f = SetFamily.from_masks(4, [0, 15])
        rep = minmax_partition(f)
        assert set(rep.classes) == {(0, 15)}
        assert rep.classes[(0, 15)] == (24, 48)
        assert rep.leftover_count == 0

    def test_identity_random_b5(self):
        rng = random.Random(1)
        for _ in range(100):
            f = SetFamily.from_masks(5, rng.sample(range(32), rng.randrange(0, 16)))
            assert minmax_partition(f).identity_holds

    @settings(max_examples=80, deadline=None)
    @given(b4_families)
    def test_identity_random_b4(self, f):
        assert minmax_partition(f).identity_holds


class TestExtremalSearches:
    def test_la_star_examples(self):
        cases = ((3, chain(2), 3), (4, chain(3), 10), (3, organ(2), 5))
        for n, pattern, value in cases:
            res = la_star(n, [pattern])
            # an exhaustive search cuts no branch
            assert res.value == res.upper == len(res.witness) == value
        assert sigma(4, 2) == 10

    def test_la_star_witness_is_free_and_lex_least(self):
        res = la_star(3, [chain(2)])
        assert res.witness.sets == (1, 2, 4)

    def test_la_star_cap(self):
        # n = 5 needs a node budget, and no budget reaches n = 6
        with pytest.raises(CapExceeded):
            la_star(5, [chain(2)])
        with pytest.raises(CapExceeded):
            la_star(6, [chain(2)], node_budget=1)

    def test_la_star_bracket(self):
        res = la_star(4, [chain(3)], node_budget=500_000)
        assert res.value == res.upper == 10
        res = la_star(5, [chain(2)], node_budget=300_000)
        assert res.value <= 10 <= res.upper  # the one-layer maximum
        assert len(res.witness) == res.value
        tiny = la_star(4, [chain(3)], node_budget=40)
        assert tiny.value <= 10 <= tiny.upper

    @pytest.mark.parametrize("budget", [float("nan"), -1, -0.5])
    def test_bad_node_budget_is_rejected(self, budget):
        with pytest.raises(BadParams, match="node_budget="):
            la_star(4, [chain(3)], node_budget=budget)

    def test_lar_star_examples(self):
        assert la_rainbow_star(3, antichain(2)).value == 5 == sigma(3, 1) + 2
        assert la_rainbow_star(2, chain(2)).value == 2
        res = la_rainbow_star(4, antichain(2))
        assert res.value == sigma(4, 1) + 2 == 8
        from rainbowposet import is_proper

        p = family_poset(res.witness)
        assert is_proper(p, res.coloring)
        assert not has_rainbow_copy(p, res.coloring, antichain(2))

    def test_la_result_coloring_defaults_to_none(self):
        # la_star leaves the coloring at its default; la_rainbow_star fills
        # it in and keeps the other fields
        res = la_star(3, [chain(2)])
        assert res.coloring is None and res == LaResult(res.value, res.witness, res.upper)
        assert repr(res) == (
            "LaResult(value=3, witness=SetFamily(n=3, sets=(1, 2, 4)), upper=3, coloring=None)"
        )
        lar = la_rainbow_star(3, antichain(2))
        assert isinstance(lar.coloring, Coloring) and len(lar.coloring) == lar.value == 5
        assert lar._replace(coloring=None) == LaResult(5, lar.witness, 5)

    def test_empty_pattern_is_rejected(self):
        # every family holds the empty pattern, so no witness avoids it
        empty = make_poset(0, [])
        with pytest.raises(BadParams):
            la_star(2, [chain(2), empty])
        with pytest.raises(BadParams):
            la_star(4, [empty], node_budget=500_000)
        with pytest.raises(BadParams):
            max_mass_pattern_free_with_extremes(3, empty)
        with pytest.raises(BadParams):
            la_rainbow_star(3, empty)
        with pytest.raises(BadParams):
            greedy_pattern_free_family(3, empty, random.Random(0))

    def test_mass_maximum_with_extremes(self):
        best, witness = max_mass_pattern_free_with_extremes(4, harp(2))
        assert best == Fraction(19, 6)
        assert 0 in witness.sets and 15 in witness.sets

    def test_greedy_families_are_pattern_free(self):
        # one color per set: a rainbow copy is any induced copy
        rng = random.Random(0)
        for _ in range(20):
            fam = greedy_pattern_free_family(4, harp(2), rng)
            distinct = Coloring(tuple(range(len(fam.sets))))
            assert not has_rainbow_copy(family_poset(fam), distinct, harp(2))


class TestLayers:
    def test_middle_layers(self):
        assert middle_layers(4, 1).sets == tuple(
            m for m in range(16) if m.bit_count() == 2
        )
        assert len(middle_layers(6, 2)) == sigma(6, 2)
        with_extremes = middle_layers(6, 2, include_extremes=True)
        assert 0 in with_extremes.sets and 63 in with_extremes.sets

    def test_rainbow_free_checks(self):
        assert rainbow_free_layer_check(4, 1, chain(2))
        assert rainbow_free_layer_check(6, 2, antichain(3), include_extremes=True)
        assert rainbow_free_layer_check(6, 3, antichain(4), include_extremes=True)
        assert rainbow_free_layer_check(6, 4, complete_multilevel([2, 2]))
        assert not rainbow_free_layer_check(4, 2, chain(2))


class TestTextFormat:
    def test_round_trip(self):
        fam = SetFamily.from_sets(4, [[], [1, 3], [1, 2, 3, 4]])
        back = family_from_text(family_to_text(fam))
        assert back == fam

    def test_bad_element(self):
        with pytest.raises(BadParams):
            family_from_text("family n=3\n5\n")

    @pytest.mark.parametrize(
        "text",
        [
            "family\n1\n",
            "family size=3\n1\n",
            "family n=three\n1\n",
            "family n=-1\n",
            "family n=3\n1\nfamily n=4\n4\n",
        ],
    )
    def test_bad_header(self, text):
        with pytest.raises(BadParams):
            family_from_text(text)
