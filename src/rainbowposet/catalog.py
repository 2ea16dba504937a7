"""Isomorph-free enumeration of all posets on up to `cap` elements."""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations

from .errors import BadParams, CapExceeded
from .poset import Poset, _bits, _previous_twins, canonical_form, canonical_key, poset_to_text

DEFAULT_CAP = 7

# Largest size the catalog enumerates, whatever the cap: its 183,231
# classes take about 127 MB, and the next size does not fit in memory.
CATALOG_CEILING = 9


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
    by n alone, so every cap shares one tuple per size. No cap reaches
    past CATALOG_CEILING."""
    if n > cap:
        raise CapExceeded(f"enumeration requested for n={n} above cap {cap}")
    if n > CATALOG_CEILING:
        raise CapExceeded(f"enumeration requested for n={n} above the ceiling {CATALOG_CEILING}")
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
    ideal. Its ranks and previous twins come from Q's too, with no new
    rank pass or twin scan. A new maximal element changes no other
    element's rank or down row, so every rank stays and the new element's
    is 1 + the largest rank in the ideal. It adds itself to the up rows of
    the ideal's elements only, so two twins of Q stay twins exactly when
    the ideal takes both or neither. The ideal takes a prefix of each twin
    class (the twin filter above), so a class splits at most once, and the
    first element it leaves out loses its previous twin. The new element
    is a twin of each maximal element of Q outside the ideal whose down
    row is the ideal, and its previous twin is the last of those. Each
    form keeps its candidate's ranks, one tuple object per distinct rank
    tuple of the size.
    """
    if n < 1:
        raise CapExceeded("enumeration starts at n=1")
    if n == 1:
        return (canonical_form(Poset([0])),)
    reps = {}
    ranks = {}  # each distinct rank tuple of the forms, kept once
    top = 1 << (n - 1)
    for q in _posets_of_size(n - 1):
        up, down = q._up, q._down
        rank = q._rank  # every form carries its ranks
        twin = _previous_twins(up, down)
        below = [row.bit_count() for row in down]
        # the maximal elements by invariant, largest first: the first one
        # outside an ideal is the rival its new element must not fall below
        rivals = sorted(
            (((below[m], sum(below[y] for y in _bits(down[m]))), 1 << m)
             for m in q.maximal_elements()),
            reverse=True,
        )
        # (twin, the twin before it in its class) as bits, and the twin index
        twins = [(1 << x, 1 << t, x) for x, t in enumerate(twin) if t >= 0]
        # an ideal -> the new element's twin, the last maximal element whose
        # down row it is
        twin_of_ideal = {down[m]: m for m in q.maximal_elements()}
        for ideal in order_ideals(q):
            if twins and any(ideal & x and not ideal & t for x, t, _ in twins):
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
            cand_twin = twin + [twin_of_ideal.get(ideal, -1)]
            for x, t, elem in twins:
                if ideal & t and not ideal & x:
                    cand_twin[elem] = -1
            cand = Poset._with_rows(
                tuple(rows),
                down + (ideal,),
                rank=rank + (1 + max(map(rank.__getitem__, elems), default=0),),
                twins=cand_twin,
            )
            key = canonical_key(cand)
            if key not in reps:
                form = canonical_form(cand)
                form._rank = ranks.setdefault(form._rank, form._rank)
                reps[key] = form
    return tuple(reps[k] for k in sorted(reps))


def _check_max_n(max_n: int) -> None:
    if max_n < 0:
        raise BadParams(f"catalog size max_n={max_n} is negative")
    if max_n > CATALOG_CEILING:
        raise CapExceeded(f"catalog size max_n={max_n} is above the ceiling {CATALOG_CEILING}")


def catalog_upto(max_n: int, cap: int = DEFAULT_CAP):
    """Map size -> tuple of representatives, for sizes 1..max_n."""
    _check_max_n(max_n)
    return {n: posets_of_size(n, cap) for n in range(1, max_n + 1)}


def _filtered_keys(n: int, cells):
    """The sorted canonical keys of the strict orders on n elements whose
    relation pairs (a, b), a below b, all lie in cells: every subset of
    cells is tried, and those that are not strict orders are dropped."""
    keys = set()
    for mask in range(1 << len(cells)):
        rows = [0] * n
        for i, (a, b) in enumerate(cells):
            if mask >> i & 1:
                rows[a] |= 1 << b
        try:
            p = Poset(rows)
        except BadParams:  # not a strict order
            continue
        keys.add(canonical_key(p))
    return sorted(keys)


def posets_by_triangular_filter(n: int):
    """Independent enumeration for cross-checks (n <= 5).

    Every poset, relabeled along a linear extension, is a transitively
    closed relation inside the strict upper triangle; filtering those
    candidates and deduplicating by canonical key reaches every class.
    """
    if n > 5:
        raise CapExceeded("triangular filter enumeration is for n <= 5")
    return _filtered_keys(n, list(combinations(range(n), 2)))


def posets_by_relation_filter(n: int):
    """Third cross-check for tiny n: filter all labeled off-diagonal relations."""
    if n > 4:
        raise CapExceeded("full relation filter enumeration is for n <= 4")
    return _filtered_keys(n, [(a, b) for a in range(n) for b in range(n) if a != b])


def dump_catalog(directory: str, max_n: int) -> dict:
    """Write one poset text file per class, named by canonical-key hash,
    plus a manifest listing counts per size. Returns the manifest."""
    import hashlib  # not at module level: it would slow every import
    import json

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
