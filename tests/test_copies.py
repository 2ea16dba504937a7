"""The copy kernel against a brute force over element subsets and a plain
recursive search along the plan's step orders, in every combination of the
`active`, `colors` and `anchor` filters."""

import io
import keyword
import random
import re
import tokenize

from rainbowposet import (
    antichain,
    chain,
    complete_multilevel,
    harp,
    make_poset,
    posets_of_size,
)
from rainbowposet._copies import _plan_cached, _search_source, exists_copy, plan_for
from rainbowposet.poset import _previous_twins
from test_canonical_keys import random_labeled_posets
from test_poset import naive_induced_copies

PATTERNS = [p for n in range(1, 5) for p in posets_of_size(n)]
# five steps deep: the harp-free family pattern, a chain and an antichain
PATTERNS_5 = [harp(2), chain(5), antichain(5)]
# made of twins: K_{2,3} and K_{1,3}
TWIN_PATTERNS = [complete_multilevel([2, 3]), complete_multilevel([1, 3])]


def _oracle(copies, active, colors):
    """The copies lying inside `active` and, with `colors`, rainbow. Being
    induced depends only on the copy's own elements, so filtering the copies
    of the whole host gives the copies of the active subposet."""
    return [
        c
        for c in copies
        if all(active >> x & 1 for x in c)
        and (colors is None or len({colors[x] for x in c}) == len(c))
    ]


def _reference(host, pattern, plan, active, colors, anchor):
    """(first, copy): the first copy of a depth-first search over host
    elements in index order along plan.orders[first], trying the anchor's
    roles in plan order; (None, None) when there is none."""

    def extend(order, image):
        i = len(image)
        if i == len(order):
            return image
        for x in [anchor] if i == 0 and anchor is not None else range(host.n):
            if (
                active >> x & 1
                and x not in image
                and (colors is None or colors[x] not in {colors[y] for y in image})
                and all(
                    host.less(y, x) == pattern.less(order[j], order[i])
                    and host.less(x, y) == pattern.less(order[i], order[j])
                    for j, y in enumerate(image)
                )
            ):
                found = extend(order, image + [x])
                if found:
                    return found
        return None

    for first in [None] if anchor is None else [v for v, _, _ in plan.roles]:
        copy = extend(plan.orders[first], [])
        if copy:
            return first, copy
    return None, None


def _is_embedding(host, pattern, order, copy, active, colors):
    """Pattern element order[i] -> copy[i] is an injective map into the
    active elements that preserves and reflects the order, and, with
    `colors`, uses pairwise-distinct colors."""
    image = dict(zip(order, copy))
    return (
        sorted(image) == list(range(pattern.n))
        and len(set(copy)) == len(copy)
        and all(active >> x & 1 for x in copy)
        and (colors is None or len({colors[x] for x in copy}) == len(copy))
        and all(
            pattern.less(a, b) == host.less(image[a], image[b])
            for a in range(pattern.n)
            for b in range(pattern.n)
        )
    )


def _twin_images_ascend(pattern, order, copy, anchor):
    """Of two steps whose pattern elements have equal up and down rows, the
    later one's image is the larger, unless the earlier step is the anchor."""
    rows = [(pattern._up[v], pattern._down[v]) for v in order]
    return all(
        copy[i] < copy[k]
        for k in range(len(order))
        for i in range(1 if anchor is not None else 0, k)
        if rows[i] == rows[k]
    )


def _check_against_brute_force(hosts, patterns, seed):
    rng = random.Random(seed)
    checked = found = 0
    for host in hosts:
        n = host.n
        subset = rng.getrandbits(n)
        coloring = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        for pattern in patterns:
            plan = plan_for(pattern)
            copies = naive_induced_copies(host, pattern)
            for active in (None, subset):
                for colors in (None, coloring):
                    mask = (1 << n) - 1 if active is None else active
                    expected = _oracle(copies, mask, colors)
                    for anchor in [None, *range(n)]:
                        want = any(anchor is None or anchor in c for c in expected)
                        got = exists_copy(
                            host._up,
                            host._down,
                            plan,
                            active=active,
                            colors=colors,
                            anchor=anchor,
                        )
                        where = (host._up, pattern._up, active, colors, anchor)
                        assert bool(got) == want, where
                        first, ref = _reference(host, pattern, plan, mask, colors, anchor)
                        assert got == ref, (got, ref, where)
                        if got:
                            # host elements in step order, the anchor first
                            assert tuple(sorted(got)) in expected, (got, where)
                            assert anchor is None or got[0] == anchor, (got, where)
                            order = plan.orders[first]
                            assert _is_embedding(host, pattern, order, got, mask, colors)
                            assert _twin_images_ascend(pattern, order, got, anchor), (got, where)
                        checked += 1
                        found += want
    return checked, found


def test_kernel_matches_brute_force():
    hosts = random_labeled_posets(count=160, seed=404)
    checked, found = _check_against_brute_force(hosts, PATTERNS, 4)
    # Both answers occur often enough for the comparison to mean something.
    assert found > checked // 10 and checked - found > checked // 10


def test_kernel_matches_brute_force_on_five_element_patterns():
    hosts = [h for h in random_labeled_posets(count=160, seed=404) if h.n >= 6]
    checked, found = _check_against_brute_force(hosts, PATTERNS_5, 5)
    # A rainbow 5-element copy in a host of at most 8 elements is rarer.
    assert found > checked // 20 and checked - found > checked // 10


def _layered_posets(count, seed):
    """Seeded posets on 6..8 elements in two levels, each lower element below
    each upper one with probability 0.8, so that copies of K_{s,t} are
    common."""
    rng = random.Random(seed)
    hosts = []
    for i in range(count):
        n = 6 + i % 3
        level = [rng.randrange(2) for _ in range(n)]
        arcs = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if level[a] < level[b] and rng.random() < 0.8
        ]
        hosts.append(make_poset(n, arcs))
    return hosts


def test_kernel_matches_brute_force_on_twin_patterns():
    checked, found = _check_against_brute_force(_layered_posets(60, 29), TWIN_PATTERNS, 6)
    assert found > checked // 10 and checked - found > checked // 10


def test_empty_pattern_is_always_found():
    empty = plan_for(make_poset(0, []))
    for host in random_labeled_posets(count=8, seed=404):
        for anchor in (None, 0):
            found = exists_copy(host._up, host._down, empty, anchor=anchor)
            assert found is True


def _compiled(plan):
    return sum(len(searches) for searches in plan.searches)


def test_searches_compile_on_first_use_only():
    _plan_cached.cache_clear()
    host = chain(6)
    plan = plan_for(make_poset(3, [(0, 1)]))
    assert _compiled(plan) == 0
    colors = list(range(6))
    assert exists_copy(host._up, host._down, plan) is None
    assert exists_copy(host._up, host._down, plan, colors=colors, anchor=2) is None
    # the unanchored uncolored search and the colored search of each role tried
    assert dict(plan.searches[0]).keys() == {None}
    assert dict(plan.searches[1]).keys() <= {v for v, _, _ in plan.roles}
    count = _compiled(plan)
    assert exists_copy(host._up, host._down, plan) is None
    assert _compiled(plan) == count


def test_patterns_on_at_most_one_element_compile_nothing():
    _plan_cached.cache_clear()
    host = antichain(4)
    for pattern in (make_poset(0, []), make_poset(1, [])):
        plan = plan_for(pattern)
        for colors in (None, [0, 0, 1, 1]):
            for anchor in (None, 2):
                for active in (None, 0b1100):
                    got = exists_copy(
                        host._up, host._down, plan, active=active, colors=colors, anchor=anchor
                    )
                    if pattern.n == 0:
                        assert got is True
                    elif anchor is None:
                        assert got == [0 if active is None else 2]
                    else:
                        assert got == [anchor]
        assert _compiled(plan) == 0


def test_an_anchor_is_found_with_a_twin_of_lower_index():
    # the anchor's twin is never ordered against it
    host = antichain(3)
    plan = plan_for(antichain(2))
    assert exists_copy(host._up, host._down, plan, anchor=2) == [2, 0]
    assert exists_copy(host._up, host._down, plan, anchor=2, colors=[0, 1, 2]) == [2, 0]


class _CountingRows(tuple):
    """Host rows that count how often a search reads one of them."""

    reads = 0

    def __getitem__(self, x):
        _CountingRows.reads += 1
        return tuple.__getitem__(self, x)


def _row_reads(host, pattern, **filters):
    _CountingRows.reads = 0
    up, down = _CountingRows(host._up), _CountingRows(host._down)
    found = exists_copy(up, down, plan_for(pattern), **filters)
    return found, _CountingRows.reads


def test_twin_images_ascend_so_a_failing_search_reads_fewer_rows():
    # In 3 colors there is no rainbow copy, so each search runs to its end.
    # It tries each set of twin images once, in ascending order, instead of
    # once per ordering: without that order the three searches read 316, 38
    # and 63 rows. The counts are pinned.
    colors = [x % 3 for x in range(8)]
    host = antichain(8)
    assert _row_reads(host, antichain(4), colors=colors) == (None, 94)
    assert _row_reads(host, antichain(4), colors=colors, anchor=0) == (None, 26)
    host = complete_multilevel([4, 4])
    assert _row_reads(host, complete_multilevel([2, 3]), colors=colors) == (None, 50)


_OWN_NAME = re.compile(r"[xbcpsh]\d+(_\d+)?")
_FIXED_NAMES = {"_search", "up", "down", "avail", "colors", "bit_length"}


def test_search_source_holds_only_its_own_names():
    # patterns on at most one element compile no search (see above)
    for n in range(2, 6):
        for pattern in posets_of_size(n):
            plan = plan_for(pattern)
            twins = _previous_twins(pattern._up, pattern._down)
            for first in [None, *(v for v, _, _ in plan.roles)]:
                for colored in (False, True):
                    source = _search_source(
                        pattern._up,
                        pattern._down,
                        twins,
                        plan.orders[first],
                        first is not None,
                        colored,
                    )
                    compile(source, "<copy search>", "exec")
                    for token in tokenize.generate_tokens(io.StringIO(source).readline):
                        if token.type == tokenize.NAME:
                            name = token.string
                            assert (
                                keyword.iskeyword(name)
                                or name in _FIXED_NAMES
                                or _OWN_NAME.fullmatch(name)
                            ), (name, source)
