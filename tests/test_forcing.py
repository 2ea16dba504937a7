"""Proper colorings, rainbow copies and the forcing decision procedure."""

import hashlib
import itertools
import math
import pickle
import random
import subprocess
import sys

import pytest

from rainbowposet import (
    BadParams,
    Coloring,
    ForcingTimeout,
    Poset,
    PreconditionViolated,
    SetFamily,
    antichain,
    are_isomorphic,
    blowup,
    canonical_key,
    chain,
    complete_multilevel,
    diamond,
    disjoint_sum,
    dual,
    family_poset,
    harp,
    has_rainbow_copy,
    height,
    is_minimal_forcing,
    is_proper,
    jay,
    m_value,
    make_poset,
    middle_layers,
    o_jk,
    organ,
    perp_value,
    posets_of_size,
    proper_colorings,
    rainbow_forces,
    random_proper_coloring,
    rank_partition,
    refuting_coloring,
    search_M,
    universal_tree,
    vee,
    verify_linear_sum_closure,
)
from rainbowposet._copies import plan_for
from rainbowposet.forcing import ForcingVerdict, MValue, _forces
from rainbowposet.poset import _is_connected, _previous_twins
from test_canonical_keys import random_labeled_posets
from test_copies import PATTERNS
from test_poset import naive_induced_copies

# sha256 of (forces, refutation) from rainbow_forces for 150 seeded random
# labeled posets on 2..8 elements against the 24 patterns on 1..4 elements.
REFUTE_DIGEST = "ba8c284d26d91e6036598a995685e45da01dbf67e127792cc9ddc568406e545a"


def reference_proper_coloring(p, rng):
    """random_proper_coloring as it was before each pick read only the
    colored comparable elements: every color class is tested against e."""
    n = p.n
    order = list(range(n))
    rng.shuffle(order)
    comp = [p.up_mask(x) | p.down_mask(x) for x in range(n)]
    colors = [-1] * n
    class_masks = []
    for e in order:
        feasible = [c for c, m in enumerate(class_masks) if not m & comp[e]]
        pick = rng.randrange(len(feasible) + 1)
        if pick == len(feasible):
            colors[e] = len(class_masks)
            class_masks.append(1 << e)
        else:
            c = feasible[pick]
            colors[e] = c
            class_masks[c] |= 1 << e
    return Coloring.from_values(colors)


@pytest.fixture
def copy_searches(monkeypatch):
    """The copy searches that `forcing` makes from here on, one (anchor,
    whether it found a copy) pair per search, in order."""
    from rainbowposet import forcing

    searches = []
    exists_copy = forcing.exists_copy

    def counted(*args, **kwargs):
        copy = exists_copy(*args, **kwargs)
        searches.append((kwargs.get("anchor"), copy is not None))
        return copy

    monkeypatch.setattr(forcing, "exists_copy", counted)
    return searches


class TestColoring:
    def test_canonical_enforced(self):
        with pytest.raises(PreconditionViolated):
            Coloring((1, 0))
        assert Coloring.from_values(("x", "y", "x")).colors == (0, 1, 0)

    def test_record_behaviour(self):
        # an immutable record compared, hashed and shown by its colors, as
        # a frozen dataclass was; its len is the element count
        a = Coloring((0, 1, 0))
        assert a == Coloring(colors=(0, 1, 0)) and a != Coloring((0, 1, 1))
        assert a != (0, 1, 0) and hash(a) == hash(((0, 1, 0),))
        assert repr(a) == "Coloring(colors=(0, 1, 0))"
        assert len(a) == 3 and a.num_colors == 2 and not Coloring(())
        assert pickle.loads(pickle.dumps(a)) == a
        with pytest.raises(AttributeError):
            a.colors = (0, 0, 0)
        with pytest.raises(AttributeError):
            del a.colors
        assert a.colors == (0, 1, 0)
        with pytest.raises(PreconditionViolated, match="^coloring is not in canonical form$"):
            Coloring((0, 2))

    def test_result_records_are_named_tuples(self):
        verdict = ForcingVerdict(False, Coloring((0, 1)))
        assert repr(verdict) == "ForcingVerdict(forces=False, refutation=Coloring(colors=(0, 1)))"
        assert verdict == ForcingVerdict(forces=False, refutation=Coloring((0, 1)))
        mv = MValue(3, 3, None)
        assert repr(mv) == "MValue(lower=3, upper=3, witness=None)"
        assert mv.exact and mv.value == 3 and MValue(2, 4, None).value is None
        with pytest.raises(AttributeError):
            mv.lower = 1

    def test_is_proper(self):
        assert is_proper(antichain(3), Coloring((0, 0, 0)))
        assert not is_proper(chain(2), Coloring((0, 0)))
        for n in range(1, 6):
            for p in posets_of_size(n):
                layer = Coloring.from_values(rank_partition(p))
                assert is_proper(p, layer)

    def test_is_proper_matches_pairwise_definition(self):
        rng = random.Random(44)
        verdicts = set()
        for p in random_labeled_posets(count=200, seed=44):
            for _ in range(6):
                c = Coloring.from_values([rng.randrange(p.n) for _ in range(p.n)])
                pairwise = all(
                    c.colors[x] != c.colors[y]
                    for x in range(p.n)
                    for y in range(p.n)
                    if p.less(x, y)
                )
                assert is_proper(p, c) == pairwise
                verdicts.add(pairwise)
        assert verdicts == {True, False}
        with pytest.raises(PreconditionViolated, match="does not cover every element"):
            is_proper(chain(3), Coloring((0, 1)))

    def test_random_coloring_proper(self):
        rng = random.Random(5)
        for n in (3, 5, 7):
            for p in posets_of_size(n)[::7]:
                assert is_proper(p, random_proper_coloring(p, rng))

    def test_random_coloring_matches_the_reference(self):
        # the same coloring and the same final rng state, draw for draw
        cases = [(p, 3) for n in range(1, 6) for p in posets_of_size(n)]
        cases += [(universal_tree(2).poset, 5), (universal_tree(3).poset, 3)]
        cases += [(chain(30), 3), (antichain(12), 3)]
        cases += [(family_poset(SetFamily(4, tuple(range(16)))), 3)]
        for p, seeds in cases:
            for s in range(seeds):
                want, got = random.Random(s), random.Random(s)
                expected = reference_proper_coloring(p, want)
                assert random_proper_coloring(p, got) == expected, (p.n, s)
                assert got.getstate() == want.getstate(), (p.n, s)

    def test_enumeration_matches_bruteforce_count(self):
        # every canonical proper coloring once: cross-count via recoloring
        p = vee()
        seen = {c.colors for c in proper_colorings(p)}
        brute = set()
        for assignment in range(3**3):
            cols = [(assignment // 3**i) % 3 for i in range(3)]
            c = Coloring.from_values(cols)
            if is_proper(p, c):
                brute.add(c.colors)
        assert seen == brute


class TestRainbowCopies:
    def test_forced_in_organ2(self):
        o2, a2 = organ(2), antichain(2)
        for c in proper_colorings(o2):
            assert has_rainbow_copy(o2, c, a2) is True

    def test_monochromatic_antichain(self):
        assert has_rainbow_copy(antichain(2), Coloring((0, 0)), antichain(2)) is False

    def test_middle_layers_chain_copy(self):
        fam = middle_layers(4, 2)
        p = family_poset(fam)
        sizes = Coloring.from_values([m.bit_count() for m in fam.sets])
        assert has_rainbow_copy(p, sizes, chain(2))


class TestRefutation:
    def test_organ2_forces(self):
        assert refuting_coloring(organ(2), antichain(2)) is None

    def test_organ2_deletions_refutable(self):
        o2 = organ(2)
        for x in range(3):
            assert refuting_coloring(o2.delete(x), antichain(2)) is not None

    def test_parts_coloring_refutes(self):
        host = complete_multilevel([2, 3])
        r = refuting_coloring(host, antichain(2))
        assert r is not None and is_proper(host, r)
        assert not has_rainbow_copy(host, r, antichain(2))

    def test_verdict_refutation_reverifies(self):
        for host, pattern in [
            (antichain(2), antichain(2)),
            (complete_multilevel([2, 2]), antichain(2)),
            (jay().delete(0), vee()),
        ]:
            v = rainbow_forces(host, pattern)
            assert not v.forces
            assert is_proper(host, v.refutation)
            assert not has_rainbow_copy(host, v.refutation, pattern)

    def test_empty_pattern_is_never_refuted(self):
        empty = make_poset(0, [])
        for host in (empty, vee()):
            assert refuting_coloring(host, empty) is None
            assert rainbow_forces(host, empty).forces
        assert is_minimal_forcing(empty, empty)

    def test_refutation_recheck_survives_optimize(self, src_env):
        # `python -O` strips assert statements; the re-check must still run
        code = (
            "import rainbowposet.forcing as f\n"
            "f.refuting_coloring = lambda host, pattern, budget_s=None: f.Coloring((0, 0))\n"
            "try:\n"
            "    f.rainbow_forces(f.Poset([2, 0]), f.Poset([0]))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=src_env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "refuting coloring is not proper\n"

    def test_budget(self):
        with pytest.raises(ForcingTimeout):
            refuting_coloring(o_jk(2, 5), antichain(5), budget_s=1e-9)

    @pytest.mark.parametrize("budget", [-1, -1e-9, float("nan")])
    def test_bad_budget_is_rejected(self, budget):
        named = "budget_s=nan" if budget != budget else f"budget_s={budget:g}"
        for decide in (refuting_coloring, rainbow_forces, _forces, is_minimal_forcing):
            with pytest.raises(BadParams, match=named):
                decide(o_jk(2, 4), antichain(4), budget)
        # also where the size check or the empty pattern ends the decision
        with pytest.raises(BadParams, match=named):
            _forces(chain(1), antichain(2), budget)
        with pytest.raises(BadParams, match=named):
            refuting_coloring(vee(), make_poset(0, []), budget)

    def test_zero_and_no_budget_are_valid(self):
        for budget in (0, None):
            refutation = refuting_coloring(antichain(2), antichain(2), budget)
            assert refutation.colors == (0, 0)
            assert rainbow_forces(organ(2), antichain(2), budget).forces


class TestForcing:
    def test_harp_forces_diamond(self):
        assert rainbow_forces(harp(2), diamond()).forces

    def test_chains_force_themselves(self):
        for k in range(1, 5):
            assert rainbow_forces(chain(k), chain(k)).forces

    def test_antichain_does_not_force_itself(self):
        v = rainbow_forces(antichain(2), antichain(2))
        assert not v.forces and v.refutation.colors == (0, 0)

    def test_one_forcing_search_per_decision(self, monkeypatch):
        from rainbowposet import forcing

        calls = []

        def counted(host, pattern, budget_s=None):
            calls.append(host.n)
            return refuting_coloring(host, pattern, budget_s)

        monkeypatch.setattr(forcing, "refuting_coloring", counted)
        host = complete_multilevel([2, 2])
        first = rainbow_forces(host, antichain(2))
        assert not first.forces and len(calls) == 1
        again = rainbow_forces(host, antichain(2))
        assert again == first and len(calls) == 2

    def test_bare_decision_matches_the_verdict(self):
        # `_forces` takes the search's verdict without a Coloring, so no
        # other test holds it to the verdict of `rainbow_forces`
        hosts = [h for n in range(1, 7) for h in posets_of_size(n)]
        assert len(hosts) == 405 and len(PATTERNS) == 24
        verdicts = set()
        for host in hosts:
            for pattern in PATTERNS:
                forces = rainbow_forces(host, pattern).forces
                assert _forces(host, pattern) == forces, (host._up, pattern._up)
                verdicts.add(forces)
        assert verdicts == {True, False}

    def test_budget_applies_on_every_call(self):
        # An earlier decision on the same classes must not answer for a
        # later call with a smaller budget.
        host, pattern = o_jk(2, 4), antichain(4)
        rainbow_forces(host, pattern)
        with pytest.raises(ForcingTimeout):
            rainbow_forces(host, pattern, budget_s=1e-9)
        with pytest.raises(ForcingTimeout):
            _forces(host, pattern, budget_s=1e-9)

    def test_deletion_monotonicity_spot_check(self):
        # if a deletion forces, the whole host forces
        patterns = [antichain(2), chain(3), vee()]
        for n in range(2, 6):
            for host in posets_of_size(n)[::5]:
                for pattern in patterns:
                    if any(
                        _forces(host.delete(x), pattern) for x in range(host.n)
                    ):
                        assert _forces(host, pattern)

    def test_refutations_are_pinned(self):
        hosts = [h for h in random_labeled_posets(count=172, seed=1515) if h.n >= 2]
        assert len(hosts) == 150 and len(PATTERNS) == 24
        digest = hashlib.sha256()
        for host in hosts:
            for pattern in PATTERNS:
                v = rainbow_forces(host, pattern)
                refutation = v.refutation and v.refutation.colors
                digest.update(repr((v.forces, refutation)).encode())
        assert digest.hexdigest() == REFUTE_DIGEST

    @pytest.mark.parametrize(
        "deleted, calls, found",
        [(None, 689, 299), ("t'_3", 689, 299), ("b'_0", 28, 8)],
        ids=["o_jk(2,4)", "t'_3-deleted", "b'_0-deleted"],
    )
    def test_search_path_is_pinned(self, copy_searches, deleted, calls, found):
        # The copy searches the forcing search makes, all and those that
        # find a copy: the one unanchored search that finds a copy under
        # the rank coloring (the first leaf, which refutes none of these
        # hosts), then at every loop node the one search under the fresh
        # color, and the jumps and the twin cut decide most colors, which
        # the verdicts alone do not show. A refutation adds the one re-check
        # of `has_rainbow_copy`.
        host = o_jk(2, 4)
        if deleted is not None:
            host = host.delete(host.labels.index(deleted))
        verdict = rainbow_forces(host, antichain(4))
        assert verdict.forces == (deleted != "b'_0")
        assert [len(copy_searches), sum(f for _, f in copy_searches)] == [calls, found]

    def test_matches_brute_force(self):
        # Forcing by its definition: every proper coloring holds a rainbow
        # copy among the element subsets that induce the pattern.
        hosts = [h for h in random_labeled_posets(count=96, seed=77) if 2 <= h.n <= 6]
        verdicts = set()
        for host in hosts:
            colorings = [c.colors for c in proper_colorings(host)]
            for pattern in PATTERNS:
                copies = naive_induced_copies(host, pattern)
                bad = [
                    cols
                    for cols in colorings
                    if not any(len({cols[x] for x in c}) == len(c) for c in copies)
                ]
                v = rainbow_forces(host, pattern)
                assert v.forces == (not bad), (host._up, pattern._up)
                assert v.forces or v.refutation.colors in bad
                verdicts.add(v.forces)
        assert verdicts == {True, False}


class TestMinimality:
    def test_organ_antichain(self):
        for k in (1, 2, 3):
            assert is_minimal_forcing(organ(k), antichain(k))

    def test_isolated_element_breaks_minimality(self):
        host = disjoint_sum(harp(2), chain(1))
        assert rainbow_forces(host, diamond()).forces
        assert not is_minimal_forcing(host, diamond())


class TestSearchM:
    def test_unique_small_forcers(self):
        found = search_M(antichain(2), 6)
        assert len(found) == 1 and are_isomorphic(found[0], organ(2))
        found = search_M(vee(), 6)
        assert len(found) == 1 and are_isomorphic(found[0], jay())
        found = search_M(diamond(), 6)
        assert len(found) == 1 and are_isomorphic(found[0], harp(2))

    def test_label_permutation_invariance(self):
        base = vee()
        relabeled = make_poset(3, [(2, 0), (2, 1)])
        keys = [canonical_key(p) for p in search_M(base, 5)]
        assert keys == [canonical_key(p) for p in search_M(relabeled, 5)]

    @pytest.mark.parametrize(
        "pattern",
        [antichain(2), vee(), chain(2), diamond()],
        ids=["A2", "vee", "chain2", "diamond"],
    )
    def test_matches_class_by_class_minimality(self, pattern):
        catalog = [h for n in range(1, 7) for h in posets_of_size(n)]
        expected = [h for h in catalog if is_minimal_forcing(h, pattern)]
        found = search_M(pattern, 6)
        assert [canonical_key(h) for h in found] == sorted(
            canonical_key(h) for h in expected
        )

    def test_three_antichain_has_several_small_forcers(self):
        from rainbowposet import a3_witness

        found = search_M(antichain(3), 7)
        assert any(are_isomorphic(p, organ(3)) for p in found)
        assert any(are_isomorphic(p, a3_witness()) for p in found)
        assert sorted(p.n for p in found) == [6, 7, 7, 7, 7, 7]


class TestMValue:
    def test_chains(self):
        for k in range(1, 5):
            assert m_value(chain(k)).value == k

    def test_antichains(self):
        assert m_value(antichain(2)).value == 3
        assert m_value(antichain(3)).value == 6

    def test_diamond(self):
        assert m_value(diamond()).value == 5

    def test_bracket_when_window_exceeds_cap(self):
        mv = m_value(antichain(4), cap=7)
        assert not mv.exact
        assert mv.lower == 8 and mv.upper == perp_value(antichain(4)) == 10

    def test_window_small(self):
        for n in range(1, 4):
            for p in posets_of_size(n):
                mv = m_value(p)
                assert n <= mv.lower and mv.upper <= perp_value(p)


class TestLinearSumClosure:
    def test_jay_from_parts(self):
        assert verify_linear_sum_closure(chain(1), chain(1), organ(2), antichain(2))

    def test_harp_from_jay(self):
        assert verify_linear_sum_closure(jay(), vee(), chain(1), chain(1))

    def test_stacked_organs(self):
        assert verify_linear_sum_closure(organ(2), antichain(2), organ(2), antichain(2))


def test_blowup_forces_small():
    import itertools

    for n in range(1, 4):
        for p in posets_of_size(n):
            for pi in itertools.permutations(range(n)):
                assert rainbow_forces(blowup(p, pi), p).forces


def _ranks(host):
    """Per element, the number of elements on a longest chain ending at it
    (rank 1 for the minimal elements), by plain recursion over `less`."""
    rank = {}

    def rank_of(x):
        if x not in rank:
            rank[x] = 1 + max((rank_of(y) for y in range(host.n) if host.less(y, x)), default=0)
        return rank[x]

    return [rank_of(x) for x in range(host.n)]


def _rank_order(host):
    rank = _ranks(host)
    return sorted(range(host.n), key=lambda x: (rank[x], x))


def test_rank_partition_is_the_longest_chain_ending_at_each_element():
    # random labels are not linear extensions, unlike every catalog
    # representative's, so the peel cannot lean on index order
    hosts = random_labeled_posets()
    hosts += [p for n in range(1, 7) for p in posets_of_size(n)]
    hosts.append(chain(300))
    for host in hosts:
        rank = rank_partition(host)
        assert list(rank) == _ranks(host), host._up
        assert height(host) == max(rank)
    assert rank_partition(Poset([])) == () and height(Poset([])) == 0


def test_rank_partition_of_deep_chains():
    # one pass over the elements, so a deep host costs no pass per layer;
    # the dual's labels run down the chain, against index order
    deep = chain(1500)
    assert rank_partition(deep) == tuple(range(1, 1501))
    assert rank_partition(dual(deep)) == tuple(range(1500, 0, -1))


def _first_refutation(host, copies):
    """The first proper coloring with no rainbow copy among `copies`, or
    None: colorings are restricted-growth strings along the rank-then-index
    order, in lexicographic order, and the answer is relabeled in index
    order."""
    n = host.n
    order = _rank_order(host)
    cols = [None] * n

    def first(i, used):
        if i == n:
            if any(len({cols[x] for x in copy}) == len(copy) for copy in copies):
                return None
            names = {}
            return tuple(names.setdefault(c, len(names)) for c in cols)
        x = order[i]
        for c in range(used + 1):
            if all(cols[y] != c for y in order[:i] if host.comparable(x, y)):
                cols[x] = c
                found = first(i + 1, max(used, c + 1))
                if found is not None:
                    return found
        cols[x] = None
        return None

    return first(0, 0)


# six elements on two levels with no twins and no 3-chain
CROWN = make_poset(6, [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)])


class TestFirstRefutation:
    """The search returns the lexicographically first refutation, and the
    jumps and the twin cut of its loop keep it."""

    CASES = [
        (host, pattern)
        for host in random_labeled_posets(count=120, seed=2203)
        if 2 <= host.n <= 7
        for pattern in PATTERNS
        if pattern.n <= host.n
    ] + [
        # two classes of each first refutation are linked only by a
        # comparable pair of elements colored after both classes began: a
        # cut that takes such a pair for one that never links misses these
        # refutations, and it misses none on a host of at most 7 elements
        (Poset(host), Poset(pattern))
        for host, pattern in [
            ((136, 208, 224, 0, 0, 192, 128, 0), (0, 8, 8, 0)),
            ((136, 208, 224, 0, 0, 192, 128, 0), (8, 12, 0, 0)),
            ((144, 252, 0, 224, 0, 0, 128, 0), (0, 12, 0, 0)),
            # the loop jumps past several frames before its first refutation
            ((0, 72, 112, 64, 96, 64, 0), (0, 8, 8, 0)),
            ((4, 120, 0, 64, 96, 64, 0), (0, 8, 8, 0)),
            ((100, 120, 0, 112, 64, 0, 0), (8, 12, 0, 0)),
        ]
    ] + [
        # the crown comes before the 3-chain along the degree order, and a
        # failure past it may not involve it
        (disjoint_sum(CROWN, chain(3)), pattern)
        for pattern in PATTERNS
    ]

    def _decide_all(self, copy_searches):
        """Each case's refutation, or None, and the copy searches made."""
        before = len(copy_searches)
        out = []
        for host, pattern in self.CASES:
            refutation = rainbow_forces(host, pattern).refutation
            out.append(refutation and refutation.colors)
        return out, len(copy_searches) - before

    def test_matches_plain_enumeration(self, copy_searches):
        found, _ = self._decide_all(copy_searches)
        expected = [
            _first_refutation(host, naive_induced_copies(host, pattern))
            for host, pattern in self.CASES
        ]
        assert found == expected
        assert 0 < found.count(None) < len(found)
        # the cases hold refutations of the first leaf (the rank coloring)
        # and of the loop after it
        first_leaf = sum(
            f == Coloring.from_values(_ranks(host)).colors
            for f, (host, _) in zip(found, self.CASES)
        )
        assert 0 < first_leaf < len(found) - found.count(None)

    def test_jumps_keep_every_refutation_when_copies_take_the_later_twin(self, monkeypatch):
        # The kernel returns each copy through the earlier of two twins, so
        # a twin that fails is named by the copies found beside it too. A
        # plain search that prefers larger host images leaves that to the
        # twin's own reason in its frame's conflict mask.
        from rainbowposet import forcing

        def later_first(copies):
            copies = sorted(copies, key=lambda copy: sorted(copy, reverse=True), reverse=True)

            def search(host_up, host_down, plan, *, active=None, colors=None, anchor=None):
                for copy in copies:
                    if (
                        (active is None or all(active >> x & 1 for x in copy))
                        and (anchor is None or anchor in copy)
                        and (colors is None or len({colors[x] for x in copy}) == len(copy))
                    ):
                        if anchor is None:
                            return list(copy)
                        return [anchor, *(x for x in copy if x != anchor)]
                return None

            return search

        # two twin-rich hosts, as up rows (twins 1, 5 and 4, 6; twins 4, 5):
        # without that reason the loop jumps past a previous twin's frame
        # and finds no refutation of the first and a later one of the second
        twin_rich = [
            (Poset(up), antichain(3))
            for up in [(220, 0, 0, 132, 4, 0, 4, 0), (130, 0, 202, 130, 2, 2, 2, 0)]
        ]
        for host, pattern in self.CASES + twin_rich:
            copies = naive_induced_copies(host, pattern)
            monkeypatch.setattr(forcing, "exists_copy", later_first(copies))
            refutation = rainbow_forces(host, pattern).refutation
            assert (refutation and refutation.colors) == _first_refutation(host, copies)

    def test_first_fit_along_the_rank_order_is_rank_minus_one(self):
        # The search's first leaf gives each element its first feasible
        # color along the rank-then-index order, which is rank - 1: the
        # longest chain below an element takes colors 0..rank-2, and no
        # element before it holds color rank - 1 and is comparable to it.
        hosts = (
            random_labeled_posets()
            + [chain(k) for k in range(1, 7)]
            + [antichain(k) for k in range(1, 7)]
            + [o_jk(2, 4)]
        )
        for host in hosts:
            order = _rank_order(host)
            cols = [None] * host.n
            for i, x in enumerate(order):
                taken = {cols[y] for y in order[:i] if host.comparable(x, y)}
                cols[x] = min(set(range(host.n)) - taken)
            assert cols == [r - 1 for r in _ranks(host)], host._up

    def test_first_leaf_takes_at_most_one_copy_search(self, copy_searches):
        # A rank coloring with fewer colors than the pattern has elements
        # refutes with no copy search; otherwise one unanchored search
        # under it decides whether it refutes.
        host = antichain(5)
        assert refuting_coloring(host, chain(2)) == Coloring.from_values(_ranks(host))
        assert copy_searches == []
        host = chain(3)
        assert refuting_coloring(host, vee()) == Coloring.from_values(_ranks(host))
        assert [anchor for anchor, _ in copy_searches] == [None]

    def test_both_cuts_fire_and_keep_every_refutation(self, monkeypatch, copy_searches):
        # the twin cut is switched off by hiding every twin; the jumps have
        # no switch, and `test_a_jump_passes_elements_no_failure_involves`
        # shows them
        from rainbowposet import forcing

        found, calls = self._decide_all(copy_searches)
        with monkeypatch.context() as m:
            m.setattr(forcing, "_previous_twins", lambda up, down: [-1] * len(up))
            no_twins, no_twin_calls = self._decide_all(copy_searches)
        assert no_twins == found
        assert calls < no_twin_calls
        # pinned, so that a weaker cut (a twin floor in place of its twin's
        # one color, or a conflict that names more positions, say) shows
        # although it keeps every answer; the rank coloring refutes most
        # cases with one copy search or none, and each loop node but a
        # twin's makes one search under the fresh color
        assert calls == 3548

    def test_a_jump_passes_elements_no_failure_involves(self, copy_searches):
        # Along the degree order the crown comes first, and it has no
        # 3-chain, so every branch fails inside the 3-chain for reasons
        # among the chain's elements alone: when the chain's first element
        # runs out of colors the search ends, with no return to the crown.
        # Backtracking one element at a time, as the loop did before it
        # jumped, tried every coloring of the crown: 612 copy searches.
        assert _forces(disjoint_sum(CROWN, chain(3)), chain(3))
        assert len(copy_searches) == 18

    def test_loop_state_is_built_once_and_only_when_the_first_leaf_fails(self, monkeypatch):
        # The two refutations below are first leaves, which build no loop
        # state. A search whose first leaf holds a copy builds the twin
        # cut's state once, where its loop starts.
        from rainbowposet import forcing

        setups = []
        previous_twins = forcing._previous_twins

        def counted(up, down):
            setups.append(len(up))
            return previous_twins(up, down)

        monkeypatch.setattr(forcing, "_previous_twins", counted)
        assert refuting_coloring(antichain(4), antichain(2)).colors == (0, 0, 0, 0)
        assert refuting_coloring(chain(3), vee()).colors == (0, 1, 2)
        assert setups == []
        monkeypatch.undo()
        monkeypatch.setattr(forcing, "_previous_twins", counted)
        assert refuting_coloring(organ(2), antichain(2)) is None
        assert setups == [organ(2).n]


def _degree_order(host):
    """Elements by descending number of comparable elements, ties by index."""
    degree = [sum(host.comparable(x, y) for y in range(host.n)) for x in range(host.n)]
    return sorted(range(host.n), key=lambda x: (-degree[x], x))


def _loop_along(host, pattern, order):
    """The colors the forcing loop alone finds along `order`, with no
    first-leaf test and no budget, or None when it proves forcing."""
    from rainbowposet import forcing

    twin = _previous_twins(host._up, host._down)
    return forcing._refuting_colors(host, plan_for(pattern), order, twin, math.inf, None)


KINDS = ("antichain", "connected", "disconnected")


def _kind(pattern):
    """Which of KINDS a pattern is; a one-element pattern is an antichain."""
    if not any(pattern._up):
        return "antichain"
    return "connected" if _is_connected(pattern) else "disconnected"


class TestDecisionOrder:
    """A pattern with a comparable pair, connected or not, is decided along
    the degree order, an antichain along the rank order, and refutations
    stay the first ones along the rank order."""

    def test_verdicts_match_the_rank_order_loop(self):
        hosts = [h for n in range(1, 7) for h in posets_of_size(n)]
        assert len(hosts) == 405 and len(PATTERNS) == 24
        verdicts = set()
        for host in hosts:
            for pattern in PATTERNS:
                forces = _loop_along(host, pattern, _rank_order(host)) is None
                assert _forces(host, pattern) == forces, (host._up, pattern._up)
                verdicts.add((_kind(pattern), forces))
        assert verdicts == {(kind, forces) for kind in KINDS for forces in (True, False)}

    def test_the_six_cube_forces_the_diamond_in_a_few_copy_searches(self, copy_searches):
        # along the rank order this search makes hundreds of thousands of
        # copy searches before it can close a branch; along the degree
        # order the first elements colored already hold every copy
        cube = family_poset(SetFamily(6, tuple(range(64))))
        assert _forces(cube, diamond(), budget_s=5)
        assert len(copy_searches) <= 100

    def test_the_five_cube_forces_the_three_chain_beside_a_point(self, copy_searches):
        # a disconnected pattern with a comparable pair: along the rank
        # order this search makes over 1.5 million copy searches in 20 s
        # without a verdict, since no copy closes a branch before the
        # whole first layer is colored
        cube = family_poset(SetFamily(5, tuple(range(32))))
        assert _forces(cube, make_poset(4, [(1, 2), (2, 3)]), budget_s=5)
        assert len(copy_searches) <= 20_000

    def test_the_six_cube_forces_k22(self, copy_searches):
        # about 10,200 copy searches: a branch fails for reasons among a
        # few cube elements, and the loop jumps back to the deepest of
        # them; backtracking one element at a time made 733,470 (about 14 s)
        cube = family_poset(SetFamily(6, tuple(range(64))))
        assert _forces(cube, complete_multilevel([2, 2]), budget_s=5)
        assert len(copy_searches) <= 20_000

    def test_previous_twins_come_first_along_the_degree_order(self, monkeypatch):
        from rainbowposet import forcing

        loops = []
        loop = forcing._refuting_colors

        def recorded(host, plan, order, twin, deadline, budget_s):
            loops.append((host, order, twin))
            return loop(host, plan, order, twin, deadline, budget_s)

        monkeypatch.setattr(forcing, "_refuting_colors", recorded)
        hosts = random_labeled_posets(count=1500, seed=3407)
        hosts += [
            blowup(p, pi)
            for n in (3, 4)
            for p in posets_of_size(n)
            for pi in itertools.permutations(range(n))
        ]
        twins_checked = 0
        loops_run = dict.fromkeys(KINDS, 0)
        for host in hosts:
            degree_order, rank_order = _degree_order(host), _rank_order(host)
            for pattern in PATTERNS:
                kind = _kind(pattern)
                expected = rank_order if kind == "antichain" else degree_order
                del loops[:]
                _forces(host, pattern)
                for loop_host, order, twin in loops:  # the first leaf runs no loop
                    assert loop_host is host and order == expected, (host._up, pattern._up)
                    loops_run[kind] += 1
                    place = {x: i for i, x in enumerate(order)}
                    for x in range(host.n):
                        if twin[x] >= 0:
                            assert place[twin[x]] < place[x], (host._up, x)
                            twins_checked += 1
        assert min(loops_run.values()) > 500 and twins_checked > 1000

    def test_refutations_past_the_first_leaf_are_the_rank_order_loop_s(self):
        # the first leaf refutes most of TestFirstRefutation's cases, so
        # larger seeded hosts are added
        cases = TestFirstRefutation.CASES + [
            (host, pattern)
            for host in random_labeled_posets(count=1500, seed=3407)
            for pattern in PATTERNS
        ]
        loop_refuted = reordered = disconnected = 0
        for host, pattern in cases:
            leaf = Coloring.from_values(_ranks(host))
            # an antichain is decided along the rank order, and so is a
            # first-leaf refutation
            if _kind(pattern) == "antichain" or not has_rainbow_copy(host, leaf, pattern):
                continue
            refutation = refuting_coloring(host, pattern)
            along_rank = _loop_along(host, pattern, _rank_order(host))
            if along_rank is None:
                assert refutation is None
                continue
            assert refutation == Coloring.from_values(along_rank), (host._up, pattern._up)
            along_degree = _loop_along(host, pattern, _degree_order(host))
            loop_refuted += 1
            reordered += refutation != Coloring.from_values(along_degree)
            disconnected += _kind(pattern) == "disconnected"
        # without the rank-order loop, most of these refutations would change
        assert loop_refuted > 40 and reordered > 20 and disconnected > 20
