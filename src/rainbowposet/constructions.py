"""Deterministic builders for every named poset the toolkit works with."""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadParams
from .poset import (
    Poset,
    adjoin_extremum,
    check_poset_size,
    disjoint_sum,
    dual,
    linear_sum,
    make_poset,
    perp_value,
)


def chain(k: int) -> Poset:
    if k < 1:
        raise BadParams("chain needs k >= 1")
    check_poset_size(k, f"chain({k})")
    return make_poset(k, [(i, i + 1) for i in range(k - 1)])


def antichain(k: int) -> Poset:
    if k < 1:
        raise BadParams("antichain needs k >= 1")
    return make_poset(k, [])


def organ(k: int) -> Poset:
    """Disjoint union of chains of lengths 1..k; size k(k+1)/2."""
    if k < 1:
        raise BadParams("organ needs k >= 1")
    check_poset_size(k * (k + 1) // 2, f"organ({k})")
    p = chain(1)
    for i in range(2, k + 1):
        p = disjoint_sum(p, chain(i))
    return p


def harp(k: int) -> Poset:
    """Organ with one global minimum and one global maximum added; size
    k(k+1)/2 + 2."""
    if k < 1:
        raise BadParams("harp needs k >= 1")
    check_poset_size(k * (k + 1) // 2 + 2, f"harp({k})")
    return adjoin_extremum(adjoin_extremum(organ(k), "bottom"), "top")


def complete_multilevel(sizes) -> Poset:
    """Levels are antichains; every lower-level element is below every
    higher-level element."""
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise BadParams("every level size must be >= 1")
    check_poset_size(sum(sizes), f"complete_multilevel({sizes})")
    p = antichain(sizes[0])
    for s in sizes[1:]:
        p = linear_sum(p, antichain(s))
    return p


def vee() -> Poset:
    """One bottom below two incomparable tops."""
    return linear_sum(chain(1), antichain(2))


def wedge() -> Poset:
    """Two incomparable bottoms below one top."""
    return linear_sum(antichain(2), chain(1))


def jay() -> Poset:
    """One bottom below a disjoint pair C_1, C_2; four elements."""
    return linear_sum(chain(1), organ(2))


def diamond() -> Poset:
    return complete_multilevel([1, 2, 1])


def blowup(p: Poset, pi) -> Poset:
    """Replace element pi[j] with a chain of length
    1 + #{i < j : pi[i] incomparable to pi[j]}; chains inherit the original
    comparabilities elementwise. Total size equals perp_value(p)."""
    pi = list(pi)
    if sorted(pi) != list(range(p.n)):
        raise BadParams("pi must be a permutation of the elements")
    length = [0] * p.n
    for j, e in enumerate(pi):
        length[e] = 1 + sum(1 for i in range(j) if not p.comparable(pi[i], e))
    start = [0] * p.n
    total = 0
    for e in range(p.n):
        start[e] = total
        total += length[e]
    check_poset_size(total, "blowup")
    rows = [0] * total
    labels = [None] * total
    for e in range(p.n):
        for a in range(length[e]):
            labels[start[e] + a] = f"{e}.{a}"
            for b in range(a + 1, length[e]):
                rows[start[e] + a] |= 1 << (start[e] + b)
        for f in range(p.n):
            if p.less(e, f):
                block = ((1 << length[f]) - 1) << start[f]
                for a in range(length[e]):
                    rows[start[e] + a] |= block
    out = Poset(rows, labels=labels)
    if out.n != perp_value(p):
        raise AssertionError("blow-up size differs from perp_value")
    return out


def downtree(k: int, h: int) -> Poset:
    """Tree poset whose cover graph is the complete k-ary tree of height h
    (h = vertices on a root-leaf path), rooted at the unique maximum."""
    return _complete_tree(k, h, "downtree")


def uptree(k: int, h: int) -> Poset:
    return dual(_complete_tree(k, h, "uptree"))


def _complete_tree(k: int, h: int, name: str) -> Poset:
    """downtree(k, h); an error names `name`, the builder called."""
    if k < 1 or h < 1:
        raise BadParams(f"{name} needs k, h >= 1")
    if k == 1:
        return chain(h)
    # With k >= 2, 64 levels already exceed the cap, so a larger h is
    # rejected before k**h grows huge.
    size = (k ** min(h, 64) - 1) // (k - 1)
    check_poset_size(size, f"{name}({k}, {h})")
    covers = []
    for v in range(size):
        first_child = k * v + 1
        if first_child < size:
            covers.extend((k * v + 1 + c, v) for c in range(k))
    return make_poset(size, covers)


def d_jk(j: int, k: int) -> Poset:
    """Two interlocked chains with four extra covers; 2k+1 elements.

    Chain one: b_1 .. b_j, m, t_{j+1} .. t_{k-2}.
    Chain two: b'_0 .. b'_j, m'_1, m'_2, t'_{j+1} .. t'_{k-1}.
    Extras: b'_j < m < t'_{j+1} and b_j < m'_1, m'_2 < t_{j+1}; covers whose
    endpoint does not exist for boundary parameters are simply omitted.
    """
    if k < 4 or not (1 < j < k - 1):
        raise BadParams("d_jk needs k >= 4 and 1 < j < k-1")
    check_poset_size(2 * k + 1, f"d_jk({j}, {k})")
    names = []
    names += [f"b_{i}" for i in range(1, j + 1)]
    names += ["m"]
    names += [f"t_{i}" for i in range(j + 1, k - 1)]
    chain_one = list(range(len(names)))
    base = len(names)
    names += [f"b'_{i}" for i in range(0, j + 1)]
    names += ["m'_1", "m'_2"]
    names += [f"t'_{i}" for i in range(j + 1, k)]
    chain_two = list(range(base, len(names)))
    idx = {name: i for i, name in enumerate(names)}
    covers = []
    covers += [(a, b) for a, b in zip(chain_one, chain_one[1:])]
    covers += [(a, b) for a, b in zip(chain_two, chain_two[1:])]
    extras = [
        (f"b'_{j}", "m"),
        ("m", f"t'_{j + 1}"),
        (f"b_{j}", "m'_1"),
        ("m'_2", f"t_{j + 1}"),
    ]
    for a, b in extras:
        if a in idx and b in idx:
            covers.append((idx[a], idx[b]))
    return make_poset(len(names), covers, labels=names)


def o_jk(j: int, k: int) -> Poset:
    """Organ on k-2 chains disjoint from d_jk(j, k); 2k+1 + (k-2)(k-1)/2 elements."""
    return disjoint_sum(organ(k - 2), d_jk(j, k))


def a3_witness() -> Poset:
    """The 7-element poset with covers v1<v2, v1<w2, w1<v2, w0<w1<w2<w3
    and an isolated element u."""
    names = ["u", "v_1", "v_2", "w_0", "w_1", "w_2", "w_3"]
    idx = {nm: i for i, nm in enumerate(names)}
    covers = [
        (idx["v_1"], idx["v_2"]),
        (idx["v_1"], idx["w_2"]),
        (idx["w_1"], idx["v_2"]),
        (idx["w_0"], idx["w_1"]),
        (idx["w_1"], idx["w_2"]),
        (idx["w_2"], idx["w_3"]),
    ]
    return make_poset(7, covers, labels=names)


# --- the universal tree -----------------------------------------------------


class UniversalTree(NamedTuple):
    """Universal tree host of order k plus the structural tags the embedding
    algorithm navigates by.

    side[e] is "center", "down" or "up"; regions[e] lists the appended
    component rooted at e (uptree above a down element, downtree below an
    up element), with e itself first. core lists the initial downtree.
    """

    poset: Poset
    k: int
    center: int
    side: tuple
    round_added: tuple
    core: tuple
    regions: dict

    @property
    def n(self) -> int:
        return self.poset.n


def universal_tree(k: int) -> UniversalTree:
    """Alternating append construction.

    Start from a complete k-ary downtree of height k whose root is the
    center; all other elements are down. Each round appends, to every
    element created in the previous round, an uptree of height k-r+1 at a
    down element of rank r or a downtree of height r at an up element of
    rank r. After k-1 rounds the comparability-graph radius reaches k.

    Each element's rank is fixed when it is created: k at the center, one
    less than its parent in a downtree, one more in an uptree. An appended
    downtree is exactly as tall as its root's rank, so no append changes an
    existing rank.
    """
    if k < 1:
        raise BadParams("universal_tree needs k >= 1")
    covers = []
    side = []
    round_added = []
    rank = []

    def new_elem(s, rnd, r):
        check_poset_size(len(side) + 1, f"universal_tree({k})")
        side.append(s)
        round_added.append(rnd)
        rank.append(r)
        return len(side) - 1

    center = new_elem("center", 0, k)

    def append_tree(root, height_, rnd, s):
        """Complete k-ary tree of the given height on `root` (already
        present), made of new elements on side s: a downtree whose maximum
        is `root` when s is "down", an uptree whose minimum is `root` when
        s is "up". Returns the new elements."""
        step = -1 if s == "down" else 1
        added = []
        level = [root]
        for _ in range(height_ - 1):
            nxt = []
            for v in level:
                for _c in range(k):
                    w = new_elem(s, rnd, rank[v] + step)
                    covers.append((w, v) if s == "down" else (v, w))
                    nxt.append(w)
                    added.append(w)
            level = nxt
        return added

    frontier = append_tree(center, k, 0, "down")
    core = (center, *frontier)
    regions = {}

    for rnd in range(1, k):
        next_frontier = []
        for e in frontier:
            if side[e] == "down":
                new = append_tree(e, k - rank[e] + 1, rnd, "up")
            else:
                new = append_tree(e, rank[e], rnd, "down")
            regions[e] = (e, *new)
            next_frontier.extend(new)
        frontier = next_frontier

    poset = make_poset(len(side), covers)
    return UniversalTree(
        poset=poset,
        k=k,
        center=center,
        side=tuple(side),
        round_added=tuple(round_added),
        core=core,
        regions=regions,
    )

