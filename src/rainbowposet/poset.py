"""Finite strict partial orders on dense indices 0..n-1.

The relation is stored as bit rows: bit y of ``up[x]`` is set iff x < y.
All values are immutable and safe to share across threads.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BadParams, CapExceeded, CyclicInput


def _scan_bits(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# Set bit positions of every mask on up to 10 elements (the catalog sizes).
_SMALL_BITS = tuple(_scan_bits(mask) for mask in range(1 << 10))


def _bits(mask: int) -> tuple:
    """Set bit positions of a non-negative mask, ascending."""
    if mask < 1024:
        return _SMALL_BITS[mask]
    return _scan_bits(mask)


class Poset:
    """Immutable strict order. ``less(x, y)`` is True iff x is strictly below y."""

    __slots__ = ("n", "_up", "_down", "labels", "_key", "_perm", "_form_rows")

    def __init__(self, up, labels=None, validate=True):
        up = tuple(up)
        n = len(up)
        down = [0] * n
        for x in range(n):
            for y in _bits(up[x]):
                down[y] |= 1 << x
        self.n = n
        self._up = up
        self._down = tuple(down)
        self.labels = tuple(labels) if labels is not None else None
        self._key = None
        self._perm = None
        self._form_rows = None
        if self.labels is not None and len(self.labels) != n:
            raise BadParams("label count differs from element count")
        if validate:
            self._check_invariants()

    @classmethod
    def _with_rows(cls, up: tuple, down: tuple) -> "Poset":
        """An unlabeled poset on up and down row tuples that the caller has
        derived together from a valid order, taken as given: nothing is
        recomputed or checked."""
        p = cls.__new__(cls)
        p.n = len(up)
        p._up = up
        p._down = down
        p.labels = p._key = p._perm = p._form_rows = None
        return p

    def _check_invariants(self):
        up, down, n = self._up, self._down, self.n
        for x in range(n):
            if up[x] >> x & 1:
                raise BadParams(f"relation is not irreflexive at {x}")
            if up[x] & down[x]:
                raise BadParams(f"relation is not antisymmetric at {x}")
            if up[x] >> n:
                raise BadParams(f"relation row {x} references elements >= n")
            for y in _bits(up[x]):
                if up[y] & ~up[x]:
                    raise BadParams(f"relation is not transitive at {x} < {y}")

    # --- basic queries ---------------------------------------------------

    def less(self, x: int, y: int) -> bool:
        return bool(self._up[x] >> y & 1)

    def comparable(self, x: int, y: int) -> bool:
        return x != y and bool((self._up[x] | self._down[x]) >> y & 1)

    def up_mask(self, x: int) -> int:
        return self._up[x]

    def down_mask(self, x: int) -> int:
        return self._down[x]

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"Poset(n={self.n}, covers={list(self.cover_pairs())})"

    def same_relation(self, other: "Poset") -> bool:
        """Equality as labeled relations (not up to isomorphism)."""
        return self.n == other.n and self._up == other._up

    def cover_pairs(self):
        """Hasse arcs (x, y), x covered by y, sorted."""
        out = []
        for x in range(self.n):
            ux = self._up[x]
            for y in _bits(ux):
                if not ux & self._down[y]:
                    out.append((x, y))
        return tuple(sorted(out))

    def maximal_elements(self):
        return tuple(x for x in range(self.n) if not self._up[x])

    def minimal_elements(self):
        return tuple(x for x in range(self.n) if not self._down[x])

    def restrict(self, elements) -> "Poset":
        """Induced subposet on the given elements (kept in sorted order)."""
        elems = sorted(elements)
        pos = {e: i for i, e in enumerate(elems)}
        if len(pos) != len(elems):
            raise BadParams("duplicate elements in restriction")
        rows = []
        for e in elems:
            row = 0
            for f in _bits(self._up[e]):
                if f in pos:
                    row |= 1 << pos[f]
            rows.append(row)
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[e] for e in elems)
        return Poset(rows, labels=labels, validate=False)

    def delete(self, x: int) -> "Poset":
        return self.restrict([e for e in range(self.n) if e != x])


# --- constructors and algebra --------------------------------------------


# Largest element count of a poset that the builders and the text reader
# accept, checked before anything is allocated. A poset keeps n rows of n
# bits and building it costs about n^3 bit steps, so the cap sits a little
# above the largest poset the toolkit builds (universal_tree(3), 1,291
# elements) rather than at what memory would allow.
POSET_CAP = 4096


def check_poset_size(n: int, what: str) -> None:
    """Raise CapExceeded when `what` would have more than POSET_CAP elements."""
    if n > POSET_CAP:
        raise CapExceeded(f"{what} exceeds the cap of {POSET_CAP} elements")


def make_poset(n: int, covers, labels=None) -> Poset:
    """Poset whose relation is the transitive closure of the given cover arcs.

    Raises CyclicInput if the arcs contain a directed cycle.
    """
    if n < 0:
        raise BadParams("element count must be non-negative")
    check_poset_size(n, f"a poset on {n} elements")
    succ = [0] * n
    for a, b in covers:
        if not (0 <= a < n and 0 <= b < n):
            raise BadParams(f"cover ({a}, {b}) references indices outside 0..{n - 1}")
        if a == b:
            raise CyclicInput(f"cover ({a}, {b}) is a self-loop")
        succ[a] |= 1 << b
    # Kahn topological order over the cover digraph.
    indeg = [0] * n
    for a in range(n):
        for b in _bits(succ[a]):
            indeg[b] += 1
    stack = [x for x in range(n) if indeg[x] == 0]
    topo = []
    while stack:
        x = stack.pop()
        topo.append(x)
        for y in _bits(succ[x]):
            indeg[y] -= 1
            if indeg[y] == 0:
                stack.append(y)
    if len(topo) != n:
        raise CyclicInput("cover arcs contain a directed cycle")
    up = [0] * n
    for x in reversed(topo):
        row = succ[x]
        for y in _bits(succ[x]):
            row |= up[y]
        up[x] = row
    return Poset(up, labels=labels)


def dual(p: Poset) -> Poset:
    return Poset(p._down, labels=p.labels, validate=False)


def disjoint_sum(p: Poset, q: Poset) -> Poset:
    rows = list(p._up) + [row << p.n for row in q._up]
    labels = None
    if p.labels is not None or q.labels is not None:
        pl = p.labels or (None,) * p.n
        ql = q.labels or (None,) * q.n
        labels = pl + ql
    return Poset(rows, labels=labels, validate=False)


def linear_sum(p: Poset, q: Poset) -> Poset:
    """Every element of p strictly below every element of q."""
    above = ((1 << q.n) - 1) << p.n
    rows = [row | above for row in p._up] + [row << p.n for row in q._up]
    return Poset(rows, validate=False)


def adjoin_extremum(p: Poset, side: str) -> Poset:
    """Add one new element above (side='top') or below (side='bottom') all others."""
    if side == "top":
        rows = [row | (1 << p.n) for row in p._up] + [0]
    elif side == "bottom":
        rows = [row << 1 for row in p._up]
        rows.insert(0, ((1 << p.n) - 1) << 1)
    else:
        raise BadParams("side must be 'top' or 'bottom'")
    return Poset(rows, validate=False)


# --- structure -------------------------------------------------------------


def rank_partition(p: Poset) -> tuple:
    """Per element, its 1-based rank: the number of elements on a longest
    chain ending at it. Layer r, the elements of rank r, is peeled off as
    the minimal elements of what the layers below leave."""
    n = p.n
    down = p._down
    rank = [0] * n
    remaining = (1 << n) - 1
    r = 0
    while remaining:
        r += 1
        layer = 0
        for x in _bits(remaining):
            if not down[x] & remaining:
                rank[x] = r
                layer |= 1 << x
        remaining ^= layer
    return tuple(rank)


def height(p: Poset) -> int:
    return max(rank_partition(p), default=0)


def _previous_twins(up, down) -> list:
    """Per element, the last element before it in index order with the same
    up and down rows (its twin), or -1. Twins share their rank and their
    refined class."""
    twin, last = [-1] * len(up), {}
    for x, rows in enumerate(zip(up, down)):
        twin[x] = last.get(rows, -1)
        last[rows] = x
    return twin


def perp_value(p: Poset) -> int:
    """k plus the number of incomparable pairs; each comparable pair is
    counted once, in the up row of its lower element."""
    k = p.n
    return k + k * (k - 1) // 2 - sum(row.bit_count() for row in p._up)


def is_tree_poset(p: Poset) -> bool:
    """True iff the unoriented cover graph is connected and acyclic."""
    n = p.n
    if n == 0:
        return False
    covers = p.cover_pairs()
    if len(covers) != n - 1:
        return False
    adj = [0] * n
    for a, b in covers:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    seen = 1
    frontier = 1
    while frontier:
        new = 0
        for x in _bits(frontier):
            new |= adj[x]
        frontier = new & ~seen
        seen |= new
    return seen == (1 << n) - 1


# --- canonical keys and isomorphism ---------------------------------------


def _refined_classes(p: Poset, twin_classes: int):
    """Partition elements into order-invariant classes, sorted by signature,
    each class ascending.

    Iterates a degree/rank style refinement until stable; used to restrict
    the canonical-key search to class-respecting permutations. Ranks are
    those of `rank_partition`. Twins (equal up and down rows) always share
    a signature, so a partition into `twin_classes` classes, all twins, a
    discrete one among them, cannot split: the loop stops there without a
    round that would only confirm it.
    """
    n = p.n
    up, down = p._up, p._down
    rk = rank_partition(p)
    # (|down|, |up|, rank) as one int with the same order: each is at most n
    m = n + 1
    sig = [(down[x].bit_count() * m + up[x].bit_count()) * m + rk[x] for x in range(n)]
    while True:
        code = {s: i for i, s in enumerate(sorted(set(sig)))}
        if len(code) == twin_classes:
            break
        coded = [code[s] for s in sig].__getitem__
        new = [
            (
                coded(x),
                tuple(sorted(map(coded, _bits(up[x])))),
                tuple(sorted(map(coded, _bits(down[x])))),
            )
            for x in range(n)
        ]
        if len(set(new)) == len(code):
            break
        sig = new
    classes = [[] for _ in code]
    for x, s in enumerate(sig):
        classes[code[s]].append(x)
    return classes


def _reversal_table(width: int) -> tuple:
    """Each `width`-bit value with its bits in reverse order."""
    table = [0] * (1 << width)
    for v in range(1, 1 << width):
        table[v] = table[v >> 1] >> 1 | (v & 1) << (width - 1)
    return tuple(table)


_REVERSED = _reversal_table(10)


def _reversed(v: int, width: int) -> int:
    """The low `width` bits of v (no higher bit set) in reverse order, ten
    bits at a time from the low end."""
    out = 0
    while width > 10:
        out = (out << 10) | _REVERSED[v & 1023]
        v >>= 10
        width -= 10
    return (out << width) | (_REVERSED[v] >> (10 - width))


def _relabeled(p: Poset, perm) -> tuple:
    """The up and down rows of p with element perm[i] moved to position i,
    each row relabeled through one list of position bits."""
    at = [0] * p.n
    for i, elem in enumerate(perm):
        at[elem] = 1 << i
    old_up, old_down = p._up, p._down
    up, down = [], []
    for elem in perm:
        row = 0
        for y in _bits(old_up[elem]):
            row |= at[y]
        up.append(row)
        row = 0
        for y in _bits(old_down[elem]):
            row |= at[y]
        down.append(row)
    return tuple(up), tuple(down)


def _packed(up, down) -> int:
    """The relation bit string of rows already in position order: for each
    position i, rel(i, j) for j = 0..i-1 and then rel(j, i) for each,
    j = 0 taking the highest bit of its group. Reversed, the string is the
    groups in the opposite order with each one's bits ascending in j, so it
    is assembled that way and reversed once."""
    out = 0
    shift = 0
    for i in range(1, len(up)):
        low = (1 << i) - 1
        out |= ((down[i] & low) << i | (up[i] & low)) << shift
        shift += 2 * i
    return _reversed(out, shift)


def _canonical_search(p: Poset):
    """Minimal relation bitstring over class-respecting relabelings.

    Positions are filled class block by class block; at depth i the 2i bits
    rel(i, j), rel(j, i) for j < i are appended, pruning against the best
    prefix so far. Returns (payload_int, total_bits, permutation) where
    permutation[position] = original element.

    Twins (elements with equal up and down rows) are tried only in block
    order: a position takes a twin only once its previous twin, earlier in
    the same block, is placed. Swapping two twins is an automorphism, so a
    skipped subtree holds the same bit strings as a tried one, and the
    first minimal leaf (hence the permutation) is the one the unpruned
    search finds.

    When the search has one leaf, its relabeled rows are the canonical
    form's, and p keeps them for `canonical_form`.
    """
    n = p.n
    up, down = p._up, p._down
    twin = _previous_twins(up, down)
    twin_classes = twin.count(-1)
    slots = _refined_classes(p, twin_classes)
    if len(slots) == twin_classes:
        # every class is twins, a discrete partition among them: the search
        # below visits one leaf, the classes in order
        perm = [elem for block in slots for elem in block]
        p._form_rows = _relabeled(p, perm)
        return _packed(*p._form_rows), n * (n - 1), perm
    # position -> which block it draws from
    owner = []
    for bi, block in enumerate(slots):
        owner.extend([bi] * len(block))
    total_bits = n * (n - 1)
    best_prefix = [None] * (n + 1)
    best_perm = None
    perm = [0] * n
    at = [0] * n  # position bit of each placed element
    move = at.__getitem__

    def rec(i, cur, placed):
        nonlocal best_perm
        if i == n:
            if best_prefix[n] is None or cur < best_prefix[n]:
                acc = cur
                for d in range(n, 0, -1):
                    best_prefix[d] = acc
                    acc >>= 2 * (d - 1)
                best_prefix[0] = 0
                best_perm = perm.copy()
            return
        for elem in slots[owner[i]]:
            if placed >> elem & 1 or (twin[elem] >= 0 and not placed >> twin[elem] & 1):
                continue
            above = sum(map(move, _bits(up[elem] & placed)))
            below = sum(map(move, _bits(down[elem] & placed)))
            nxt = (cur << 2 * i) | _reversed(below << i | above, 2 * i)
            if best_prefix[i + 1] is not None and nxt > best_prefix[i + 1]:
                continue
            perm[i] = elem
            at[elem] = 1 << i
            rec(i + 1, nxt, placed | 1 << elem)
    rec(0, 0, 0)
    return best_prefix[n] or 0, total_bits, best_perm or []


def canonical_key(p: Poset) -> bytes:
    """Total-order key: equal keys iff isomorphic. Leading byte is n."""
    if p._key is None:
        payload, total_bits, perm = _canonical_search(p)
        nbytes = (total_bits + 7) // 8
        p._key = bytes([p.n]) + payload.to_bytes(nbytes, "big")
        p._perm = tuple(perm)
    return p._key


@lru_cache(maxsize=None)
def _identity(n: int) -> tuple:
    return tuple(range(n))


def canonical_form(p: Poset) -> Poset:
    """Relabeled copy realizing the canonical key. It carries that key and
    the identity permutation, which is what its own search would find: its
    refined classes are consecutive index ranges and identity is the first
    relabeling that reproduces its rows."""
    if p._key is None:
        canonical_key(p)
    form = Poset._with_rows(*(p._form_rows or _relabeled(p, p._perm)))
    form._key = p._key
    form._perm = _identity(p.n)
    return form


def are_isomorphic(p: Poset, q: Poset) -> bool:
    return p.n == q.n and canonical_key(p) == canonical_key(q)


# --- text format ------------------------------------------------------------

def poset_to_text(p: Poset) -> str:
    lines = [f"poset n={p.n}"]
    if p.labels is not None:
        for i, name in enumerate(p.labels):
            if name:
                lines.append(f"# label {i} {name}")
    for a, b in p.cover_pairs():
        lines.append(f"{a} < {b}")
    return "\n".join(lines) + "\n"


def _read_header(line: str, kind: str, previous) -> int:
    """The count of a `<kind> n=<count>` header line. `previous` is the
    count of an earlier header of the input, or None; a second header, a
    repeated field, or a missing or non-decimal n raises BadParams."""
    if previous is not None:
        raise BadParams(f"more than one {kind} header in input")
    fields = {}
    for kv in line.split()[1:]:
        if "=" in kv:
            key, value = kv.split("=", 1)
            if key in fields:
                raise BadParams(f"{kind} header {key}= appears more than once")
            fields[key] = value
    if "n" not in fields:
        raise BadParams(f"{kind} header is missing n=<count>")
    if not fields["n"].isdecimal():
        raise BadParams(f"{kind} header n={fields['n']} is not a count")
    return int(fields["n"])


def poset_from_text(text: str) -> Poset:
    n = None
    covers = []
    labels = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split(None, 2)
            if len(parts) == 3 and parts[0] == "label" and parts[1].isdigit():
                labels[int(parts[1])] = parts[2]
            continue
        if line.split()[0] == "poset":
            n = _read_header(line, "poset", n)
            check_poset_size(n, f"poset header n={n}")
            continue
        a, _, b = line.partition("<")
        try:
            covers.append((int(a), int(b)))
        except ValueError:
            raise BadParams(f"poset text line {number}: {line!r} is not a cover 'a < b'") from None
    if n is None:
        raise BadParams("missing poset header")
    label_tuple = None
    if labels:
        label_tuple = tuple(labels.get(i) for i in range(n))
    return make_poset(n, covers, labels=label_tuple)
