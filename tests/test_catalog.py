"""Isomorph-free enumeration, cross-checked by independent methods."""

import json

import pytest

from rainbowposet import (
    CapExceeded,
    canonical_key,
    dual,
    dump_catalog,
    poset_from_text,
    posets_by_relation_filter,
    posets_by_triangular_filter,
    posets_of_size,
)
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


def test_order_ideals_downward_closed():
    for p in posets_of_size(4):
        for ideal in order_ideals(p):
            for x in range(p.n):
                if ideal >> x & 1:
                    assert p.down_mask(x) & ~ideal == 0


def test_dump_catalog(tmp_path):
    manifest = dump_catalog(str(tmp_path), 3)
    assert manifest["counts"] == {"1": 1, "2": 2, "3": 5}
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh) == manifest
    files = sorted(tmp_path.glob("*.poset"))
    assert len(files) == 8
    for path in files:
        poset_from_text(path.read_text())  # parses and validates
