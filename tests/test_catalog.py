"""Isomorph-free enumeration, cross-checked by independent methods."""

import json
from itertools import permutations

import pytest

from rainbowposet import (
    CapExceeded,
    Poset,
    antichain,
    chain,
    canonical_key,
    dual,
    dump_catalog,
    poset_from_text,
    posets_by_relation_filter,
    posets_by_triangular_filter,
    posets_of_size,
)
from rainbowposet import catalog
from rainbowposet.catalog import order_ideals

EXPECTED = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


def test_counts():
    for n, want in EXPECTED.items():
        assert len(posets_of_size(n)) == want


def test_cap():
    with pytest.raises(CapExceeded):
        posets_of_size(8)
    # the cap is checked outside the cache, so every cap shares one tuple
    assert posets_of_size(5, 6) is posets_of_size(5)
    assert posets_of_size(5, 6) is posets_of_size(5, 8)


def test_no_cap_reaches_past_the_ceiling(monkeypatch):
    # the size-10 layer does not fit in memory, so it is refused before any
    # enumeration starts, whatever the cap
    assert catalog.CATALOG_CEILING == 9

    def enumerate_nothing(n):
        raise AssertionError(f"enumeration of size {n} started")

    monkeypatch.setattr(catalog, "_posets_of_size", enumerate_nothing)
    for n, cap in ((10, 10), (10, 99), (11, 10**6)):
        with pytest.raises(CapExceeded, match=f"n={n} above the ceiling 9"):
            posets_of_size(n, cap)
    with pytest.raises(CapExceeded, match="max_n=10 is above the ceiling 9"):
        catalog.catalog_upto(10, cap=10)


def test_no_duplicates_and_sorted():
    for n in range(1, 8):
        keys = [canonical_key(p) for p in posets_of_size(n)]
        assert keys == sorted(set(keys))


def test_methods_agree():
    for n in range(1, 6):
        a = sorted(canonical_key(p) for p in posets_of_size(n))
        assert a == posets_by_triangular_filter(n)
    for n in range(1, 5):
        a = sorted(canonical_key(p) for p in posets_of_size(n))
        assert a == posets_by_relation_filter(n)


def test_dual_closure():
    for n in range(1, 7):
        keys = {canonical_key(p) for p in posets_of_size(n)}
        assert all(canonical_key(dual(p)) in keys for p in posets_of_size(n))


def _labeled_posets(n):
    """Every labeled poset on n elements: each class under every relabeling.
    Most labelings are no linear extension, so an element can sit below one
    with a smaller index."""
    seen = {}
    for p in posets_of_size(n):
        for perm in permutations(range(n)):  # element x becomes perm[x]
            rows = [0] * n
            for x in range(n):
                rows[perm[x]] = sum(1 << perm[y] for y in range(n) if p.less(x, y))
            seen.setdefault(tuple(rows), Poset(rows))
    return list(seen.values())


def test_order_ideals_downward_closed():
    labeled = {n: _labeled_posets(n) for n in range(1, 6)}
    assert [len(labeled[n]) for n in range(1, 6)] == [1, 3, 19, 219, 4231]  # A001035
    for n, posets in labeled.items():
        for p in posets:
            closed = [
                mask
                for mask in range(1 << n)
                if all(p.down_mask(x) & ~mask == 0 for x in range(n) if mask >> x & 1)
            ]
            assert order_ideals(p) == closed
    for k in range(1, 7):
        assert len(order_ideals(antichain(k))) == 2**k
        assert len(order_ideals(chain(k))) == k + 1


def test_dump_catalog(tmp_path):
    manifest = dump_catalog(str(tmp_path), 3)
    assert manifest["counts"] == {"1": 1, "2": 2, "3": 5}
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh) == manifest
    files = sorted(tmp_path.glob("*.poset"))
    assert len(files) == 8
    for path in files:
        poset_from_text(path.read_text())  # parses and validates
