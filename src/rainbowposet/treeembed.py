"""Constructive rainbow embeddings of tree posets with checkable certificates.

The downtree embedder places a pattern's root at a highest-ranked host
element with usable color, then walks each child branch downward until the
slack rank(v) - |pattern below| - |blocked colors below v| hits zero on a
usable color; placing there keeps every later branch feasible. The
universal-tree embedder repeats this block by block over the appended
regions of the host, blocking only colors of earlier images that
comparability does not already separate.
"""

from __future__ import annotations

import bisect
import random
from array import array
from dataclasses import dataclass
from typing import Optional

from .constructions import UniversalTree
from .errors import BadParams, NotATreePoset, PreconditionViolated
from .forcing import Coloring, is_proper
from .poset import Poset, _bits, dual, is_tree_poset, make_poset, rank_partition


# --- tree classification -----------------------------------------------------


@dataclass(frozen=True)
class TreeMeta:
    """Distance/side/originator decomposition of a tree poset relative to
    its lowest-indexed maximal element, the base."""

    base: int
    dist: tuple
    side: tuple  # "base" | "down" | "up"
    orig: tuple  # originator element, None for the base
    blocks: dict  # owner element -> tuple(owner, members...) in index order


def classify_tree(t: Poset) -> TreeMeta:
    """Distances are over the comparability graph; odd distance from the
    base makes an element down, even makes it up. The originator of z is
    the extreme-rank neighbor of z one step closer to the base, inside
    z's down-set for up elements and up-set for down elements; on any
    shortest comparability path directions alternate, so the candidate set
    is never empty."""
    if not is_tree_poset(t):
        raise NotATreePoset("classification needs a tree poset")
    n = t.n
    base = min(t.maximal_elements())
    adj = [t.up_mask(x) | t.down_mask(x) for x in range(n)]
    dist = [-1] * n
    dist[base] = 0
    frontier = [base]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in _bits(adj[x]):
                if dist[y] < 0:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    if min(dist) < 0:
        raise NotATreePoset("comparability graph is disconnected")
    rank = rank_partition(t)
    side = tuple(
        "base" if x == base else ("down" if dist[x] % 2 else "up")
        for x in range(n)
    )
    orig = [None] * n
    for z in range(n):
        if z == base:
            continue
        if side[z] == "up":
            cands = [w for w in range(n) if t.less(w, z) and dist[w] == dist[z] - 1]
            cands.sort(key=lambda w: (-rank[w], w))
        else:
            cands = [w for w in range(n) if t.less(z, w) and dist[w] == dist[z] - 1]
            cands.sort(key=lambda w: (rank[w], w))
        if not cands:
            raise NotATreePoset(f"element {z} has no originator candidate")
        orig[z] = cands[0]
    members = {}
    for z in range(n):
        if z != base:
            members.setdefault(orig[z], []).append(z)
    blocks = {
        owner: tuple(sorted([owner] + members.get(owner, [])))
        for owner in range(n)
    }
    seen = [0] * n
    seen[base] += 1
    for owner, blk in blocks.items():
        for e in blk:
            if e != owner:
                seen[e] += 1
    if any(c != 1 for c in seen):
        raise AssertionError("originator blocks do not partition the tree")
    return TreeMeta(base=base, dist=tuple(dist), side=side, orig=tuple(orig), blocks=blocks)


# --- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Injective pattern-to-host map with the colors it consumed."""

    mapping: tuple  # pattern element i -> host element mapping[i]
    colors: tuple  # color of each image, same indexing

    def image(self):
        return tuple(sorted(self.mapping))


def verify_certificate(host, colors, pattern: Poset, cert: EmbeddingCertificate) -> bool:
    """Definitional check, sharing no code with the embedders: injective
    into the host elements 0..len(colors)-1, induced-order-preserving both
    ways under `host.less`, all image colors distinct, and `cert.colors`
    the colors of the images. `colors[v]` is the color of host element v."""
    m = cert.mapping
    if len(m) != pattern.n or len(set(m)) != len(m):
        return False
    if any(not 0 <= v < len(colors) for v in m):
        return False
    for i in range(pattern.n):
        for j in range(pattern.n):
            if i != j and pattern.less(i, j) != host.less(m[i], m[j]):
                return False
    cols = [colors[v] for v in m]
    if len(set(cols)) != len(cols):
        return False
    return tuple(cols) == cert.colors


# --- hosts ---------------------------------------------------------------------


def _blocked_below(host, v: int, avoid) -> int:
    """Number of colors in `avoid` that occur at v or below it."""
    return sum(1 for c in avoid if host.has_color_below(v, c))


class CompleteDowntreeHost:
    """Complete k-ary downtree with colored nodes, in breadth-first layout:
    node 0 is the unique maximum, the children of v are k*v+1 .. k*v+k, and
    the height h is the one whose 1 + k + ... + k^(h-1) nodes the colors
    fill. Layout arithmetic stands in for a Poset, so hosts too large to
    build as one can be fuzzed. `universal_tree` builds its core and every
    region in this layout, so they are read in place.

    This is the tree-host contract the embedders read:
      k, h                   arity and height (vertices on a root-leaf path);
      rank(v)                h minus the depth of v, so the root has rank h;
      children(v)            the nodes v covers, in a fixed order;
      color(v)               the color of v;
      has_color_below(v, c)  whether color c occurs at v or in its subtree;
      max_rank_usable(avoid) a highest-ranked node whose color is not in
                             avoid, or None;
      less(a, b)             a strictly below b in the tree order.
    A subtree covers one contiguous run of nodes on each level, so color
    presence below a node is one scan of a slice per level."""

    def __init__(self, k: int, colors):
        if k < 1:
            raise BadParams("host needs k >= 1")
        offsets = [0]  # offsets[d]: the first node at depth d
        while offsets[-1] < len(colors):
            offsets.append(offsets[-1] * k + 1)
        if not colors or offsets[-1] != len(colors):
            raise BadParams(f"no complete {k}-ary downtree has {len(colors)} nodes")
        self.k = k
        self.h = len(offsets) - 1
        self.size = len(colors)
        self.offsets = offsets
        self.colors = colors

    def depth(self, v: int) -> int:
        return bisect.bisect_right(self.offsets, v) - 1

    def rank(self, v: int) -> int:
        return self.h - self.depth(v)

    def children(self, v: int):
        first = self.k * v + 1
        if first >= self.size:
            return ()
        return tuple(range(first, first + self.k))

    def color(self, v: int):
        return self.colors[v]

    def less(self, a: int, b: int) -> bool:
        """a strictly below b in the downtree order: b is a tree ancestor."""
        while a != 0:
            a = (a - 1) // self.k
            if a == b:
                return True
        return False

    def has_color_below(self, v: int, color) -> bool:
        return _color_in_subtree(self.colors, self.k, v, color)

    def max_rank_usable(self, avoid) -> Optional[int]:
        """The first node in breadth-first order whose color is usable."""
        for v, c in enumerate(self.colors):
            if c not in avoid:
                return v
        return None


def _color_in_subtree(colors, k: int, v: int, c) -> bool:
    """Whether c occurs at v or below it in the breadth-first k-ary downtree
    `colors`. The host stores nothing per node but this list, so the test
    scans it: the run lo..hi that v's subtree covers on each level, one
    slice per level. The root's subtree is the whole list, so the root is
    answered by `c in colors`, with no slice copied."""
    if v == 0:
        return c in colors
    lo = hi = v
    size = len(colors)
    while lo < size:
        if c in colors[lo : hi + 1]:
            return True
        lo = k * lo + 1
        hi = k * hi + k
    return False


def _shuffled_range(size: int, rng) -> array:
    """range(size) as an array('i') of machine ints, in the order that
    rng.shuffle gives a list of it, leaving rng in the same state. This is
    random.Random.shuffle inlined: the same getrandbits draws as its
    rejection sampler, without a Python call per element. i runs down in
    stretches that share the bit length of i + 1, so each stretch draws
    with one bit count."""
    order = array("i", range(size))
    swap = memoryview(order)  # its items are set faster than the array's
    getrandbits = rng.getrandbits
    for bits in range(size.bit_length(), 1, -1):
        # every i with (i + 1).bit_length() == bits, downward
        for i in range(min(size - 1, (1 << bits) - 2), (1 << (bits - 1)) - 2, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            swap[i], swap[j] = swap[j], swap[i]
    return order


def random_downtree_coloring(k: int, h: int, rng):
    """Proper breadth-first coloring of the complete k-ary downtree of
    height h, drawn from the `random.Random` rng: elements in random order
    (the order rng.shuffle gives), color uniform over feasible existing
    colors plus one fresh color, by rejection. A drawn existing color is
    rejected if an ancestor or, for an inner node, its subtree has it.

    The host holds nothing per node but the returned list of colors: the
    shuffled order is an array of machine ints, and every node of color r
    holds palette[r], the one int object of that color."""
    if k < 1 or h < 1:
        raise BadParams("host needs k, h >= 1")
    size = sum(k**d for d in range(h))
    colors = [-1] * size
    palette = []  # palette[r] is color r's one int object
    num = 0
    rnd = rng.random
    leaves = size - k ** (h - 1)
    for e in _shuffled_range(size, rng):
        while True:
            r = int(rnd() * (num + 1))
            if r >= num:
                palette.append(r)
                num += 1
                break
            a = e
            while a:
                a = (a - 1) // k
                if colors[a] == r:
                    break
            else:  # no ancestor has r; a leaf has no subtree to scan
                if e >= leaves or not _color_in_subtree(colors, k, e, r):
                    break
        colors[e] = palette[r]
    return colors


# --- the embedding core ---------------------------------------------------------


def _pattern_downtree(t: Poset):
    """(root, children lists, subtree sizes) of a pattern tree read as a
    downtree. The root is the unique maximum; children[x] lists the elements
    x covers in index order, and every element but the root is covered by
    exactly one element. Callers pass an uptree as its dual."""
    if not is_tree_poset(t):
        raise NotATreePoset("pattern must be a tree poset")
    up, down = t._up, t._down
    roots = [x for x in range(t.n) if not up[x]]
    if len(roots) != 1:
        raise PreconditionViolated("pattern needs a unique extreme element")
    # y is covered by x when nothing lies strictly between them
    kids = [tuple(y for y in _bits(down[x]) if not down[x] & up[y]) for x in range(t.n)]
    if sorted(y for ys in kids for y in ys) != [x for x in range(t.n) if x != roots[0]]:
        raise PreconditionViolated("pattern is not a downtree")
    sizes = [down[x].bit_count() + 1 for x in range(t.n)]
    return roots[0], kids, sizes


def _embed_block(root, children_of, sizes, host, avoid):
    """Place a downtree pattern into the host, growing `avoid` with every
    consumed color. Returns {pattern element: host node}.

    The root goes to a highest-ranked usable element; every other element
    walks down from its assigned entry child until the slack
    rank - size - blocked_below reaches zero at a usable color. Each child
    subtree is completed before its next sibling starts, which keeps every
    entry slack non-negative; a violation raises instead of repairing."""
    image = {}
    x = host.max_rank_usable(avoid)
    if x is None:
        raise PreconditionViolated("no usable color anywhere in the host")
    if host.rank(x) < sizes[root] + _blocked_below(host, x, avoid):
        raise PreconditionViolated("host cannot fit the pattern below its usable top")
    image[root] = x
    avoid.add(host.color(x))

    def place_children(t, z):
        kids = children_of[t]
        if not kids:
            return
        entries = host.children(z)
        if len(kids) > len(entries):
            raise PreconditionViolated("host arity below pattern branching")
        for i, tc in enumerate(kids):
            v = entries[i]
            while True:
                slack = host.rank(v) - sizes[tc] - _blocked_below(host, v, avoid)
                if slack < 0:
                    raise PreconditionViolated("embedding walk lost its slack invariant")
                if slack == 0 and host.color(v) not in avoid:
                    break
                nxt = host.children(v)
                if not nxt:
                    raise PreconditionViolated("embedding walk ran out of height")
                v = nxt[0]
            image[tc] = v
            avoid.add(host.color(v))
            place_children(tc, v)

    place_children(root, x)
    return image


def check_block_properties(host, root, sizes, unusable, image):
    """The three per-certificate guarantees of the downtree embedder:
    (1) the root sits at a highest-ranked host element with usable color,
    (2) no image color is unusable,
    (3) every non-root image z has rank(z) <= |pattern below| + number of
        unusable-or-consumed colors appearing in the host below z; the
        consumed colors are those of the images."""
    best = host.max_rank_usable(set(unusable))
    if host.rank(image[root]) != host.rank(best):
        raise AssertionError("root image is not at the highest usable rank")
    relevant = set(unusable) | {host.color(v) for v in image.values()}
    for t, v in image.items():
        if host.color(v) in unusable:
            raise AssertionError("certificate uses an unusable color")
        if t != root and host.rank(v) > sizes[t] + _blocked_below(host, v, relevant):
            raise AssertionError("rank bound violated at a non-root image")


def embed_downtree_on_host(t: Poset, unusable, host) -> EmbeddingCertificate:
    """Rainbow copy of the downtree t in a CompleteDowntreeHost, avoiding the
    unusable colors; requires the slack at the host's root,
    h >= |t| + (unusable colors in the host). The lemma's hypothesis, an
    arity-k host of height k with k >= |t| + |unusable|, implies it. The
    certificate is verified with the host's own order."""
    unusable = set(unusable)
    blocked = _blocked_below(host, 0, unusable)
    if host.h < t.n + blocked:
        raise PreconditionViolated(
            f"need h >= |t| + blocked colors = {t.n + blocked}, host has h={host.h}"
        )
    root, kids, sizes = _pattern_downtree(t)
    image = _embed_block(root, kids, sizes, host, set(unusable))
    check_block_properties(host, root, sizes, unusable, image)
    mapping = tuple(image[i] for i in range(t.n))
    cert = EmbeddingCertificate(mapping=mapping, colors=tuple(host.colors[v] for v in mapping))
    if not verify_certificate(host, host.colors, t, cert):
        raise AssertionError("downtree embedding produced an invalid certificate")
    return cert


# --- the universal-tree embedder -------------------------------------------------


def check_tree_pattern(t: Poset, k: int) -> TreeMeta:
    """The classification of t, once t is checked to be a tree poset that
    fits the universal tree of order k."""
    if t.n > k:
        raise PreconditionViolated("pattern larger than the universal tree order")
    return classify_tree(t)


def embed_universal(
    t: Poset, ut: UniversalTree, coloring: Coloring
) -> EmbeddingCertificate:
    """Rainbow copy of the tree poset t (|t| <= k) in the universal tree of
    order k under any proper coloring.

    Blocks of t are embedded in distance order: the base's down-set into
    the core downtree, every other block into the appended region at its
    owner's image, blocking exactly the colors of earlier images that
    comparability leaves unconstrained. Any slack violation surfaces as
    PreconditionViolated rather than a wrong certificate."""
    meta = check_tree_pattern(t, ut.k)
    if not is_proper(ut.poset, coloring):
        raise PreconditionViolated("host coloring must be proper")
    host = ut.poset
    mapping = {}

    def embed_region(block, region, upside_down, avoid):
        # universal_tree lists a region breadth-first, children in creation
        # order, so region[v] is node v of a complete k-ary downtree; an
        # uptree block reads as its dual, with the same element indices
        view = CompleteDowntreeHost(ut.k, [coloring.colors[e] for e in region])
        blk = t.restrict(block)
        cert = embed_downtree_on_host(dual(blk) if upside_down else blk, avoid, view)
        return {block[bi]: region[v] for bi, v in enumerate(cert.mapping)}

    got = embed_region(meta.blocks[meta.base], ut.core, False, set())
    if got[meta.base] != ut.center:
        raise AssertionError("base did not land on the universal tree center")
    mapping.update(got)

    for z in sorted(range(t.n), key=lambda z: (meta.dist[z], z)):
        if z == meta.base:
            continue
        block = meta.blocks[z]
        if len(block) == 1:
            continue
        x_z = mapping[z]
        region = ut.regions.get(x_z)
        if region is None:
            raise PreconditionViolated(
                f"no appended region at host element {x_z} for block owner {z}"
            )
        upside_down = meta.side[z] == "down"

        def separated(img):
            if upside_down:
                return host.less(img, x_z) or img == x_z
            return host.less(x_z, img) or img == x_z

        avoid = {
            coloring.colors[img] for img in mapping.values() if not separated(img)
        }
        got = embed_region(block, region, upside_down, avoid)
        if got[z] != mapping[z]:
            raise AssertionError("region embedding moved the block owner")
        for el, img in got.items():
            if el != z:
                mapping[el] = img

    mapping_t = tuple(mapping[i] for i in range(t.n))
    cert = EmbeddingCertificate(
        mapping=mapping_t, colors=tuple(coloring.colors[v] for v in mapping_t)
    )
    if not verify_certificate(host, coloring.colors, t, cert):
        raise AssertionError("universal embedding produced an invalid certificate")
    return cert


# --- fuzzing schedule -------------------------------------------------------------


def downtree_fuzz_case(seed: int) -> dict:
    """One seeded fuzz run of the downtree embedder: a random downtree on
    up to 4 elements, a random unusable set, and a random proper coloring
    of a complete k-ary host, k up to 8. Host sizes grow geometrically with
    k, so the schedule visits k=7 and k=8 on a thin deterministic cadence.

    Raises if the embedding fails or any certificate property breaks;
    returns run statistics otherwise.
    """
    rng = random.Random(f"downtree-fuzz-{seed}")
    tn = rng.randint(1, 4)
    pattern = make_poset(tn, [(i, rng.randrange(i)) for i in range(1, tn)])
    if seed % 2500 == 1249:
        u_ct = min(4, 8 - tn)
        k = 8
    elif seed % 250 == 137:
        u_ct = rng.randrange(0, min(4, 7 - tn) + 1)
        k = 7
    else:
        u_ct = rng.randrange(0, min(4, 6 - tn) + 1)
        k = min(6, tn + u_ct + rng.choice((0, 0, 0, 1, 1, 2)))
    cols = random_downtree_coloring(k, k, rng)
    host = CompleteDowntreeHost(k, cols)
    palette = max(cols) + 1
    unusable = set(rng.sample(range(palette + 2), min(u_ct, palette + 2)))
    cert = embed_downtree_on_host(pattern, unusable, host)
    return {
        "k": k,
        "pattern_size": tn,
        "unusable": len(unusable),
        "host_size": host.size,
        "image": cert.image(),
    }
