"""Pinned outputs of the family searches: the greedy sampler of criterion 9
and the exhaustive, budgeted and rainbow searches, so that a change to
the copy kernel, to the family representation or to the search order that
alters any chosen family shows."""

import hashlib
import random
from fractions import Fraction

import pytest

from rainbowposet import (
    Coloring,
    antichain,
    chain,
    complete_multilevel,
    diamond,
    family_poset,
    harp,
    has_rainbow_copy,
    organ,
    search_M,
    vee,
    wedge,
)
from rainbowposet.families import (
    greedy_pattern_free_family,
    la_rainbow_star,
    la_star,
    max_mass_pattern_free_with_extremes,
)

# sha256 over repr(family.sets) + "\n" for the 250 seeded greedy families
# random.Random(f"h2-{n}-{i}"), i < 250 (the seeds of criterion 9), computed
# with the growing-family search that kept containment rows per family.
GREEDY_DIGESTS = {
    ("harp", 5): "da175172dfa40156a74400ddfd6fff85675b0e59d0e48e64c357a5569bd0cf20",
    ("harp", 6): "3489fc81529e3edf19183b3abd55f02c36749b431937087da6569bae5d3a26fb",
    ("harp", 7): "1401cadfeeac92f02b501ce0e58b67df604e25e9477def1141697f528142ae95",
    ("harp", 8): "41a058431bcb1c35665024f783b05779a4b94c7fec4f1028d543b0d0505aaca6",
    ("diamond", 5): "0d7c30deca3f8966613e74771765712a17a44e42f63f3015652ac61e008e4b24",
    ("diamond", 6): "133c5dcd788ab9210eeb558b7fcebbdd674574cee5bb33ea45649f9ffe6864b6",
    ("diamond", 7): "274b7adff4efa8cf60f64cef394df752ab3c72d7fffe7a533a484d52418a2efa",
    ("diamond", 8): "00b5c2fec693cd5190292d69e1ff32d909f3884d0803d393fc1516b5c5557693",
}

PATTERNS = {
    "harp": harp(2),
    "diamond": diamond(),
    "chain2": chain(2),
    "chain3": chain(3),
    "organ2": organ(2),
    "vee": vee(),
    "a3": antichain(3),
    "vee+wedge": (vee(), wedge()),
    "a2": antichain(2),
    "wedge": wedge(),
    "k22": complete_multilevel([2, 2]),
}

# (n, patterns) -> (value, witness masks)
LA_STAR = {
    (3, "chain2"): (3, (1, 2, 4)),
    (3, "chain3"): (6, (1, 2, 3, 4, 5, 6)),
    (3, "organ2"): (5, (0, 1, 2, 3, 7)),
    (3, "vee"): (5, (1, 2, 3, 4, 7)),
    (3, "diamond"): (6, (1, 2, 3, 4, 5, 6)),
    (3, "a3"): (6, (0, 1, 2, 3, 5, 7)),
    (3, "vee+wedge"): (4, (0, 1, 3, 7)),
    (4, "chain2"): (6, (3, 5, 6, 9, 10, 12)),
    (4, "chain3"): (10, (1, 2, 3, 4, 5, 6, 8, 9, 10, 12)),
    (4, "organ2"): (8, (0, 3, 5, 6, 9, 10, 12, 15)),
    (4, "vee"): (8, (1, 2, 4, 9, 10, 11, 12, 15)),
    (4, "diamond"): (10, (1, 2, 3, 4, 5, 6, 8, 9, 10, 12)),
    (4, "a3"): (8, (0, 1, 2, 3, 5, 7, 11, 15)),
    (4, "vee+wedge"): (6, (1, 2, 4, 9, 10, 12)),
}

# (n, pattern) -> (value, witness masks, colors of the refuting coloring),
# computed with the sweep over all 2^(2^n) families, which picked the
# smallest bitmask among the largest non-forcing families.
LA_RAINBOW_STAR = {
    (2, "a2"): (4, (0, 1, 2, 3), (0, 1, 1, 2)),
    (3, "a2"): (5, (0, 1, 2, 3, 7), (0, 1, 1, 2, 3)),
    (4, "a2"): (8, (0, 3, 5, 6, 9, 10, 12, 15), (0, 1, 1, 1, 1, 1, 1, 2)),
    (2, "vee"): (4, (0, 1, 2, 3), (0, 1, 1, 2)),
    (3, "vee"): (7, (1, 2, 3, 4, 5, 6, 7), (0, 0, 1, 0, 1, 1, 2)),
    (4, "vee"): (
        11,
        (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15),
        (0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 2),
    ),
    (2, "wedge"): (4, (0, 1, 2, 3), (0, 1, 1, 2)),
    (3, "wedge"): (7, (0, 1, 2, 3, 4, 5, 6), (0, 1, 1, 2, 1, 2, 2)),
    (4, "wedge"): (
        11,
        (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12),
        (0, 1, 1, 2, 1, 2, 2, 1, 2, 2, 2),
    ),
    (2, "chain2"): (2, (1, 2), (0, 0)),
    (3, "chain2"): (3, (1, 2, 4), (0, 0, 0)),
    (4, "chain2"): (6, (3, 5, 6, 9, 10, 12), (0, 0, 0, 0, 0, 0)),
    (2, "a3"): (4, (0, 1, 2, 3), (0, 1, 1, 2)),
    (3, "a3"): (8, (0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 1, 2, 1, 2, 2, 3)),
    (4, "a3"): (
        16,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        (0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4),
    ),
    (2, "k22"): (4, (0, 1, 2, 3), (0, 1, 1, 2)),
    (3, "k22"): (8, (0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 1, 2, 1, 2, 2, 3)),
    (4, "k22"): (
        16,
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        (0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4),
    ),
    (2, "diamond"): (4, (0, 1, 2, 3), (0, 1, 1, 2)),
    (3, "diamond"): (7, (0, 1, 2, 3, 4, 5, 6), (0, 1, 1, 2, 1, 2, 2)),
    (4, "diamond"): (
        14,
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
        (0, 0, 1, 0, 1, 1, 2, 0, 1, 1, 2, 1, 2, 2),
    ),
}


def _patterns(name):
    p = PATTERNS[name]
    return list(p) if isinstance(p, tuple) else [p]


@pytest.mark.parametrize("name,n", sorted(GREEDY_DIGESTS))
def test_greedy_families_are_pinned(name, n):
    h = hashlib.sha256()
    for i in range(250):
        fam = greedy_pattern_free_family(n, PATTERNS[name], random.Random(f"h2-{n}-{i}"))
        h.update(repr(fam.sets).encode() + b"\n")
    assert h.hexdigest() == GREEDY_DIGESTS[name, n]


def test_la_star_witnesses_are_pinned():
    for (n, name), (value, masks) in LA_STAR.items():
        res = la_star(n, _patterns(name))
        assert (res.value, res.witness.sets) == (value, masks), (n, name)


def test_brackets_are_pinned():
    for n, pattern, budget, bounds in (
        (4, chain(3), 500_000, (10, 10)),
        (5, chain(3), 20_000, (11, 31)),
        (5, organ(2), 20_000, (12, 31)),
    ):
        res = la_star(n, [pattern], node_budget=budget)
        assert (res.value, res.upper) == bounds, (n, pattern)


def test_budgeted_witness_is_pinned_and_copy_free():
    res = la_star(5, [chain(3)], node_budget=20_000)
    assert res.witness.sets == (0, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24)
    # under all-distinct colors every induced copy is rainbow, so a family
    # with no rainbow copy has no copy at all
    fam = family_poset(res.witness)
    distinct = Coloring.from_values(range(fam.n))
    assert not has_rainbow_copy(fam, distinct, chain(3))


def test_budgeted_la_star_is_exact_on_the_5_cube():
    # the forcer lists of the sandwich bound La_R^*(5, P) <= La^*(5, M)
    for pattern, masks in (
        (antichain(2), (0, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24, 31)),
        (
            vee(),
            (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22, 24, 25, 26, 28, 31),
        ),
    ):
        res = la_star(5, search_M(pattern, 6), node_budget=10**9)
        assert (res.value, res.upper, res.witness.sets) == (len(masks), len(masks), masks)


def test_mass_maxima_are_pinned():
    mass, witness = max_mass_pattern_free_with_extremes(4, harp(2))
    assert (mass, witness.sets) == (Fraction(19, 6), (0, 1, 2, 3, 7, 11, 15))
    mass, witness = max_mass_pattern_free_with_extremes(4, diamond())
    assert (mass, witness.sets) == (Fraction(8, 3), (0, 1, 3, 7, 15))


def test_la_rainbow_star_results_are_pinned():
    for (n, name), (value, masks, colors) in LA_RAINBOW_STAR.items():
        res = la_rainbow_star(n, PATTERNS[name])
        assert (res.value, res.witness.sets, res.coloring.colors) == (
            value,
            masks,
            colors,
        ), (n, name)
