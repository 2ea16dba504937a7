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
from typing import NamedTuple, Optional

from .constructions import UniversalTree
from .errors import BadParams, NotATreePoset, PreconditionViolated
from .forcing import Coloring, is_proper
from .poset import Poset, _bits, dual, is_tree_poset, make_poset, rank_partition


# --- tree classification -----------------------------------------------------


class TreeMeta(NamedTuple):
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
    its extreme-rank neighbor in the layer one step closer to the base:
    the highest-ranked in z's down-set for an up element, the lowest-ranked
    in its up-set for a down element, the lowest index among equals. One
    breadth-first pass by layers of bit masks finds them, and each z joins
    its originator's block as it is found.

    The tree test settles what the pass does not check. Every element is
    reached: a tree poset's cover graph is connected, and the comparability
    graph contains it. Every z has a candidate: the base is maximal, so a
    shortest comparability path from it steps down, up, down and so on,
    and z's predecessor on it lies in the set searched. The blocks
    partition the tree: each element but the base joins one block."""
    if not is_tree_poset(t):
        raise NotATreePoset("classification needs a tree poset")
    n = t.n
    up, down = t._up, t._down
    rank = rank_partition(t)
    base = min(t.maximal_elements())
    dist = [0] * n
    side = ["base"] * n
    orig = [None] * n
    block = [1 << x for x in range(n)]  # block[x]: x and the elements it originates
    layer = seen = 1 << base
    d = 0
    while layer:
        d += 1
        nxt = 0
        for x in _bits(layer):
            nxt |= up[x] | down[x]
        nxt &= ~seen
        seen |= nxt
        for z in _bits(nxt):
            dist[z] = d
            if d % 2:
                side[z] = "down"
                orig[z] = min(_bits(layer & up[z]), key=lambda w: (rank[w], w))
            else:
                side[z] = "up"
                orig[z] = min(_bits(layer & down[z]), key=lambda w: (-rank[w], w))
            block[orig[z]] |= 1 << z
        layer = nxt
    blocks = {owner: _bits(members) for owner, members in enumerate(block)}
    return TreeMeta(base=base, dist=tuple(dist), side=tuple(side), orig=tuple(orig), blocks=blocks)


# --- certificates -------------------------------------------------------------


class EmbeddingCertificate(NamedTuple):
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


class CompleteDowntreeHost:
    """Complete k-ary downtree with colored nodes, in breadth-first layout:
    node 0 is the unique maximum, the children of v are k*v+1 .. k*v+k, and
    the height h is the one whose 1 + k + ... + k^(h-1) nodes the colors
    fill. Layout arithmetic stands in for a Poset, so hosts too large to
    build as one can be fuzzed. `universal_tree` builds its core and every
    region in this layout, so they are read in place.

    This is the tree-host contract the embedders read:
      k, h                    arity and height (vertices on a root-leaf path);
      colors                  colors[v] is the color of node v;
      rank(v)                 h minus the depth of v, so the root has rank h;
      children(v)             the nodes v covers, in a fixed order;
      blocked_below(v, avoid) how many colors of avoid occur at v or in its
                              subtree;
      max_rank_usable(avoid)  a highest-ranked node whose color is not in
                              avoid, or None;
      less(a, b)              a strictly below b in the tree order."""

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

    def rank(self, v: int) -> int:
        return self.h + 1 - bisect.bisect_right(self.offsets, v)

    def children(self, v: int):
        first = self.k * v + 1
        if first >= self.size:
            return ()
        return tuple(range(first, first + self.k))

    def less(self, a: int, b: int) -> bool:
        """a strictly below b in the downtree order: b is a tree ancestor."""
        while a != 0:
            a = (a - 1) // self.k
            if a == b:
                return True
        return False

    def blocked_below(self, v: int, avoid) -> int:
        """How many colors of avoid occur at v or in its subtree. The host
        stores nothing per node but its colors, so this scans them: v's
        subtree covers one run lo..hi of nodes on each level. The root's
        subtree is the whole list, so each color there is one `c in colors`,
        with no slice copied. Below the root each level's run is copied once
        and tested for every color not found yet, until all are found or the
        levels run out."""
        colors = self.colors
        if v == 0:
            return sum(1 for c in avoid if c in colors)
        missing = set(avoid)
        total = len(missing)
        lo = hi = v
        while missing and lo < self.size:
            run = colors[lo : hi + 1]
            missing = {c for c in missing if c not in run}
            lo = self.k * lo + 1
            hi = self.k * hi + self.k
        return total - len(missing)

    def max_rank_usable(self, avoid) -> Optional[int]:
        """The first node in breadth-first order whose color is usable."""
        for v, c in enumerate(self.colors):
            if c not in avoid:
                return v
        return None


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

    Each draw is tested against only the colored nodes it can conflict
    with, e's ancestors and, for an inner node, its subtree, with no walk
    of the tree per draw:
      - a node above depth h-3 keeps paths[v], the colors on its root path;
        a color drawn for such a node joins the sets of its subtree's nodes
        above that depth, one index range per level;
      - a leaf tests its parent's color, its grandparent's color and its
        great-grandparent's path set;
      - an inner node tests its parent's color and its grandparent's path
        set at depth h-2, its parent's path set at depth h-3 and its own
        set above, then the colors below it: its k leaves as one slice at
        depth h-2, the whole list at the root (which is uncolored, and no
        slice is copied), else a set built from one slice per level. No
        other node is colored while e draws, so these are read once per
        node.
    A draw is rejected exactly when the ancestor walk and subtree scan
    used to reject it, so the stream of draws, the colors and rng's final
    state are unchanged. colors[size:] and paths[top:] hold three
    uncolored, empty stand-ins for the levels above the root: index
    arithmetic takes the root's parent to -1 and, in a chain, on to -2 and
    -3. The stand-ins of colors are cut off at the end.

    The host holds nothing per node but the returned list of colors: the
    shuffled order is an array of machine ints, and every node of color r
    holds palette[r], the one int object of that color."""
    if k < 1 or h < 1:
        raise BadParams("host needs k, h >= 1")
    first = [0]  # first[d]: the first node at depth d; first[h] is the size
    for _ in range(h):
        first.append(first[-1] * k + 1)
    size, leaves = first[h], first[h - 1]
    mid, top = first[max(h - 2, 0)], first[max(h - 3, 0)]
    colors = [-1] * (size + 3)
    paths = [set() for _ in range(top)] + [frozenset()] * 3
    palette = []  # palette[r] is color r's one int object
    num = 0
    rnd = rng.random
    for e in _shuffled_range(size, rng):
        p = (e - 1) // k
        if e >= leaves:
            g = (p - 1) // k
            up1, up2, s = colors[p], colors[g], paths[(g - 1) // k]
            while True:
                r = int(rnd() * (num + 1))
                if r >= num:
                    palette.append(r)
                    num += 1
                    break
                if r != up1 and r != up2 and r not in s:
                    break
            colors[e] = palette[r]
            continue
        if e >= mid:  # depth h-2
            up1, s = colors[p], paths[(p - 1) // k]
            below = colors[k * e + 1 : k * e + k + 1]
        else:
            up1, s = -1, (paths[p] if e >= top else paths[e])
            if e == 0:
                below = colors
            else:
                below = set()
                lo = k * e + 1
                hi = lo + k
                while lo < size:
                    below.update(colors[lo:hi])
                    lo = k * lo + 1
                    hi = k * hi + 1
        while True:
            r = int(rnd() * (num + 1))
            if r >= num:
                palette.append(r)
                num += 1
                break
            if r != up1 and r not in s and r not in below:
                break
        c = colors[e] = palette[r]
        lo, hi = e, e + 1
        while lo < top:  # c joins the path sets of e's subtree above h-3
            for v in range(lo, hi):
                paths[v].add(c)
            lo = k * lo + 1
            hi = k * hi + 1
    del colors[size:]
    return colors


# --- the embedding core ---------------------------------------------------------


def _pattern_downtree(t: Poset):
    """(root, children lists, subtree sizes) of a pattern tree read as a
    downtree. The root is the unique maximum; children[x] lists the elements
    x covers in index order. Every element but the root is covered by
    exactly one element, as in any tree poset with one maximal element, so
    that needs no check. Callers pass an uptree as its dual."""
    if not is_tree_poset(t):
        raise NotATreePoset("pattern must be a tree poset")
    up, down = t._up, t._down
    roots = [x for x in range(t.n) if not up[x]]
    if len(roots) != 1:
        raise PreconditionViolated("pattern needs a unique extreme element")
    # y is covered by x when nothing lies strictly between them
    kids = [tuple(y for y in _bits(down[x]) if not down[x] & up[y]) for x in range(t.n)]
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
    if host.rank(x) < sizes[root] + host.blocked_below(x, avoid):
        raise PreconditionViolated("host cannot fit the pattern below its usable top")
    image[root] = x
    avoid.add(host.colors[x])

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
                slack = host.rank(v) - sizes[tc] - host.blocked_below(v, avoid)
                if slack < 0:
                    raise PreconditionViolated("embedding walk lost its slack invariant")
                if slack == 0 and host.colors[v] not in avoid:
                    break
                nxt = host.children(v)
                if not nxt:
                    raise PreconditionViolated("embedding walk ran out of height")
                v = nxt[0]
            image[tc] = v
            avoid.add(host.colors[v])
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
    relevant = set(unusable) | {host.colors[v] for v in image.values()}
    for t, v in image.items():
        if host.colors[v] in unusable:
            raise AssertionError("certificate uses an unusable color")
        if t != root and host.rank(v) > sizes[t] + host.blocked_below(v, relevant):
            raise AssertionError("rank bound violated at a non-root image")


def embed_downtree_on_host(t: Poset, unusable, host) -> EmbeddingCertificate:
    """Rainbow copy of the downtree t in a CompleteDowntreeHost, avoiding the
    unusable colors; requires the slack at the host's root,
    h >= |t| + (unusable colors in the host). The lemma's hypothesis, an
    arity-k host of height k with k >= |t| + |unusable|, implies it. The
    certificate is verified with the host's own order."""
    unusable = set(unusable)
    blocked = host.blocked_below(0, unusable)
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

    Blocks of t are embedded in (distance, index) order: the base's block into
    the core downtree, every other block into the appended region at its
    owner's image, blocking exactly the colors of earlier images that
    comparability leaves unconstrained. Any slack violation surfaces as
    PreconditionViolated rather than a wrong certificate."""
    meta = check_tree_pattern(t, ut.k)
    if not is_proper(ut.poset, coloring):
        raise PreconditionViolated("host coloring must be proper")
    host, colors = ut.poset, coloring.colors
    mapping = {}

    def embed_region(block, region, upside_down, avoid):
        # universal_tree lists a region breadth-first, children in creation
        # order, so region[v] is node v of a complete k-ary downtree; an
        # uptree block reads as its dual, with the same element indices
        view = CompleteDowntreeHost(ut.k, [colors[e] for e in region])
        blk = t.restrict(block)
        cert = embed_downtree_on_host(dual(blk) if upside_down else blk, avoid, view)
        return {block[bi]: region[v] for bi, v in enumerate(cert.mapping)}

    for z in sorted(range(t.n), key=lambda z: (meta.dist[z], z)):
        block = meta.blocks[z]
        if len(block) == 1 and z in mapping:
            continue  # z was placed with its originator's block
        region = ut.core if z == meta.base else ut.regions[mapping[z]]
        x_z = region[0]
        upside_down = meta.side[z] == "down"
        # an image past x_z, away from the region, is comparable to all of it
        avoid = {
            colors[img]
            for img in mapping.values()
            if img != x_z and not (host.less(img, x_z) if upside_down else host.less(x_z, img))
        }
        got = embed_region(block, region, upside_down, avoid)
        if got[z] != x_z:
            raise AssertionError(f"block owner {z} did not land on its region's first element")
        mapping.update(got)

    mapping_t = tuple(mapping[i] for i in range(t.n))
    cert = EmbeddingCertificate(
        mapping=mapping_t, colors=tuple(colors[v] for v in mapping_t)
    )
    if not verify_certificate(host, colors, t, cert):
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
