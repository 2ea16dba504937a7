"""Isomorph-free enumeration of all posets on up to `cap` elements."""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from itertools import combinations

from .errors import BadParams, CapExceeded
from .poset import Poset, _bits, _previous_twins, canonical_form, canonical_key

DEFAULT_CAP = 7


def order_ideals(p: Poset):
    """All down-closed element subsets of p, as ascending bitmasks (including 0).

    Elements are decided from the highest index down, leaving out before
    taking in, so the ideals come out in ascending order. Taking x in takes
    its down-set with it; x must stay out when an element below it with a
    higher index is already out. Every branch therefore ends in an ideal."""
    ideals = [0]
    for x in range(p.n - 1, -1, -1):
        bit = 1 << x
        down = p._down[x]
        decided_below = down & (-bit << 1)
        grown = []
        for ideal in ideals:
            grown.append(ideal)
            if not (ideal & bit or decided_below & ~ideal):
                grown.append(ideal | bit | down)
        ideals = grown
    return ideals


def posets_of_size(n: int, cap: int = DEFAULT_CAP):
    """One canonical representative per isomorphism class, sorted by key.
    Each representative carries its canonical key. The classes are cached
    by n alone, so every cap shares one tuple per size."""
    if n > cap:
        raise CapExceeded(f"enumeration requested for n={n} above cap {cap}")
    return _posets_of_size(n)


@lru_cache(maxsize=None)
def _posets_of_size(n: int):
    """The classes on n elements, grown by extension: every poset on n
    elements arises from one on n-1 by adding a new maximal element whose
    down-set is an order ideal. A candidate is keyed only if its new
    element n-1 has the largest value, among the maximal elements, of the
    invariant (|down(x)|, sum of |down(y)| over y < x). No class is lost: take a
    maximal element x of the class with the largest invariant. Removing x
    leaves a poset isomorphic to some representative Q, and the isomorphism
    maps down(x) to an order ideal of Q. Removing a maximal element changes
    no other down-set, so the candidate built from Q and that ideal is
    isomorphic to the class with n-1 in the place of x, and it is accepted.

    Twins of Q are elements with equal up and down rows. An ideal takes a
    twin only together with every earlier twin of its class. No class is
    lost here either: permuting the twins within each class is an
    automorphism of Q, so it maps any ideal to one that takes a prefix of
    every class, and the two candidates are isomorphic with the new element
    fixed. The automorphism keeps every |down(y)|, so the new element's
    invariant and those of its rivals, the maximal elements outside the
    ideal, are the same in both, and one candidate is accepted exactly when
    the other is.

    Candidates and forms are built from rows derived together, so no
    constructor recomputes them: a candidate's down rows are Q's plus the
    ideal.
    """
    if n < 1:
        raise CapExceeded("enumeration starts at n=1")
    if n == 1:
        return (canonical_form(Poset([0])),)
    reps = {}
    top = 1 << (n - 1)
    for q in _posets_of_size(n - 1):
        up, down = q._up, q._down
        below = [row.bit_count() for row in down]
        # the maximal elements by invariant, largest first: the first one
        # outside an ideal is the rival its new element must not fall below
        rivals = sorted(
            (((below[m], sum(below[y] for y in _bits(down[m]))), 1 << m)
             for m in q.maximal_elements()),
            reverse=True,
        )
        # (twin, the twin before it in its class), as bits
        twins = [(1 << x, 1 << t) for x, t in enumerate(_previous_twins(up, down)) if t >= 0]
        for ideal in order_ideals(q):
            if twins and any(ideal & x and not ideal & t for x, t in twins):
                continue
            elems = _bits(ideal)
            new = (len(elems), sum(map(below.__getitem__, elems)))
            for inv, bit in rivals:
                if not ideal & bit:
                    break
            else:  # the ideal holds every maximal element
                inv = new
            if new < inv:
                continue
            # q is transitively closed and the new maximal element's down-set
            # is an order ideal, so the candidate is too: no re-validation
            rows = list(up)
            for d in elems:
                rows[d] |= top
            rows.append(0)
            cand = Poset._with_rows(tuple(rows), down + (ideal,))
            key = canonical_key(cand)
            if key not in reps:
                reps[key] = canonical_form(cand)
    return tuple(reps[k] for k in sorted(reps))


def _check_max_n(max_n: int) -> None:
    if max_n < 0:
        raise BadParams(f"catalog size max_n={max_n} is negative")


def catalog_upto(max_n: int, cap: int = DEFAULT_CAP):
    """Map size -> tuple of representatives, for sizes 1..max_n."""
    _check_max_n(max_n)
    return {n: posets_of_size(n, cap) for n in range(1, max_n + 1)}


def posets_by_triangular_filter(n: int):
    """Independent enumeration for cross-checks (n <= 5).

    Every poset, relabeled along a linear extension, is a transitively
    closed relation inside the strict upper triangle; filtering those
    candidates and deduplicating by canonical key reaches every class.
    """
    if n > 5:
        raise CapExceeded("triangular filter enumeration is for n <= 5")
    pairs = list(combinations(range(n), 2))
    keys = set()
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for i, (a, b) in enumerate(pairs):
            if mask >> i & 1:
                rows[a] |= 1 << b
        ok = True
        for x in range(n):
            rest = rows[x]
            while rest:
                low = rest & -rest
                y = low.bit_length() - 1
                rest ^= low
                if rows[y] & ~rows[x]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            keys.add(canonical_key(Poset(rows, validate=False)))
    return sorted(keys)


def posets_by_relation_filter(n: int):
    """Third cross-check for tiny n: filter all labeled off-diagonal relations."""
    if n > 4:
        raise CapExceeded("full relation filter enumeration is for n <= 4")
    cells = [(a, b) for a in range(n) for b in range(n) if a != b]
    keys = set()
    for mask in range(1 << len(cells)):
        rows = [0] * n
        for i, (a, b) in enumerate(cells):
            if mask >> i & 1:
                rows[a] |= 1 << b
        ok = True
        for x in range(n):
            if rows[x] >> x & 1:
                ok = False
                break
            rest = rows[x]
            while rest and ok:
                low = rest & -rest
                y = low.bit_length() - 1
                rest ^= low
                if rows[y] >> x & 1 or rows[y] & ~rows[x]:
                    ok = False
            if not ok:
                break
        if ok:
            keys.add(canonical_key(Poset(rows, validate=False)))
    return sorted(keys)


def dump_catalog(directory: str, max_n: int) -> dict:
    """Write one poset text file per class, named by canonical-key hash,
    plus a manifest listing counts per size. Returns the manifest."""
    from .poset import poset_to_text

    _check_max_n(max_n)
    os.makedirs(directory, exist_ok=True)
    counts = {}
    for n in range(1, max_n + 1):
        reps = posets_of_size(n, max_n)
        counts[str(n)] = len(reps)
        for p in reps:
            digest = hashlib.sha256(canonical_key(p)).hexdigest()[:16]
            path = os.path.join(directory, f"n{n}_{digest}.poset")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(poset_to_text(p))
    manifest = {"schema": 1, "counts": counts}
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
