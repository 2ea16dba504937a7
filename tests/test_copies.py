"""The copy kernel against a brute force over element subsets and a plain
recursive search along the plan's step orders, in every combination of the
`active`, `colors` and `anchor` filters."""

import random

from rainbowposet import antichain, chain, harp, make_poset, posets_of_size
from rainbowposet._copies import _plan_cached, exists_copy, plan_for
from test_canonical_keys import random_labeled_posets
from test_poset import naive_induced_copies

PATTERNS = [p for n in range(1, 5) for p in posets_of_size(n)]
# five steps deep: the harp-free family pattern, a chain and an antichain
PATTERNS_5 = [harp(2), chain(5), antichain(5)]


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
