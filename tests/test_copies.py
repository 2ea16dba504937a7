"""The copy kernel against a brute force over element subsets, in every
combination of the `active`, `colors` and `anchor` filters."""

import random

from rainbowposet import make_poset, posets_of_size
from rainbowposet._copies import exists_copy, plan_for
from test_canonical_keys import random_labeled_posets
from test_poset import naive_induced_copies

PATTERNS = [p for n in range(1, 5) for p in posets_of_size(n)]


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


def test_kernel_matches_brute_force():
    rng = random.Random(4)
    hosts = random_labeled_posets(count=160, seed=404)
    checked = found = 0
    for host in hosts:
        n = host.n
        subset = rng.getrandbits(n)
        coloring = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        for pattern in PATTERNS:
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
                            n,
                            plan,
                            active=active,
                            colors=colors,
                            anchor=anchor,
                        )
                        where = (host._up, pattern._up, active, colors, anchor)
                        assert bool(got) == want, where
                        if got:
                            # the copy found, as host elements, anchor first
                            assert tuple(sorted(got)) in expected, (got, where)
                            assert anchor is None or got[0] == anchor, (got, where)
                        checked += 1
                        found += want
    # Both answers occur often enough for the comparison to mean something.
    assert found > checked // 10 and checked - found > checked // 10


def test_empty_pattern_is_always_found():
    empty = plan_for(make_poset(0, []))
    for host in random_labeled_posets(count=8, seed=404):
        for anchor in (None, 0):
            found = exists_copy(host._up, host._down, host.n, empty, anchor=anchor)
            assert found is True
