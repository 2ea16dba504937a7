"""Compiled kernel for induced copies with active, color and anchor filters.

Hosts are passed as bit rows so the same kernel serves posets and set
families. Patterns are preprocessed once into a plan holding, for every
possible anchor vertex, a static search order, and the up- and down-degree
of every distinct role. The first search from an anchor role, colored or
not, compiles that order into one function of nested loops, one loop per
step; it stops at the first copy, which the kernel returns. Images of twin
pattern elements are taken in ascending order, so a search that finds no
copy tries each set of twin images once.
"""

from __future__ import annotations

from functools import lru_cache

from .poset import _previous_twins


def _order_from(pattern_up, pattern_down, first):
    """Vertex order starting at `first`: breadth-first over the pattern's
    comparability graph, ties broken by higher degree then index."""
    m = len(pattern_up)
    adj = [pattern_up[v] | pattern_down[v] for v in range(m)]
    deg = [adj[v].bit_count() for v in range(m)]
    order = [first] if first is not None else []
    placed = set(order)
    while len(order) < m:
        best = None
        for v in range(m):
            if v in placed:
                continue
            attached = sum(1 for w in order if adj[v] >> w & 1)
            cand = (attached, deg[v], -v)
            if best is None or cand > best[0]:
                best = (cand, v)
        order.append(best[1])
        placed.add(best[1])
    return order


def _search_source(pattern_up, pattern_down, twins, order, anchored, colored):
    """Python source of `_search`, the depth-first search along `order`;
    when `anchored`, step 0 is the anchor x0, which `avail` leaves out.
    `twins` lists each pattern element's previous twin (`_previous_twins`).

    Step i binds the host image x{i} in a loop over the set bits of its
    candidate mask c{i}, lowest first. Every candidate lies in `avail`, so
    it is active and unused; each earlier image x{j} contributes one term
    to it, ANDed in once, in the loop that binds x{j}: up[x{j}] when step i
    lies above step j, down[x{j}] when below, ~(up[x{j}] | down[x{j}] |
    b{j}) when incomparable (b{j} = 1 << x{j}, so the used element is out).
    A term reads its rows inline where it is used, with no name of its
    own: a name would be bound even when the next step's mask turns out
    empty, the common dead end. Masks are shared: p{i}_{j} is step i's
    mask after the terms of steps 0..j, and two steps with the same mask
    share one name, bound before a loop takes bits out of it. With colors,
    s{i} holds the color bits of x0..x{i}, and a candidate whose color is
    taken is skipped.

    The search returns the first complete copy, [x0, ..., x{m-1}], in the
    index order of the images along the steps. Twin images ascend in it:
    swapping two twins' images gives a copy on the same elements, so the
    later image of a first copy is the larger one (unless the earlier is
    the anchor, which the swap would move). So a step whose element has a
    twin at an earlier step j, other than the anchor, starts from c{j}
    after x{j} is taken out: the candidates of step j above x{j}, which
    relate to steps 0..j-1 as step i must. It tries each set of twin
    images once and still returns the same first copy.
    """
    m = len(order)
    lines = [f"def _search(up, down, avail, colors{', x0' if anchored else ''}):"]

    def emit(depth, text):
        lines.append("    " * depth + text)

    # after[i]: the last earlier step whose element is a twin of step i's,
    # other than the anchor, or -1
    root, last, after = [], {}, []
    for v, twin in enumerate(twins):
        root.append(v if twin < 0 else root[twin])
    for i, v in enumerate(order):
        after.append(last.get(root[v], -1))
        if i or not anchored:
            last[root[v]] = i
    masks = ["avail"] * m  # each step's candidate mask so far, as an expression

    def narrow(j, depth, leave):
        """The terms of x{j} on every later step, after x{j} is bound; a
        step with a later twin step than j restarts from that one's mask."""
        # the anchor is not in `avail`, so its own bit needs no clearing
        used = "" if anchored and j == 0 else f" | b{j}"
        texts = {}  # each later step's mask after this step's term
        for k in range(j + 1, m):
            if after[k] == j:
                # what is left of c{j} lies above x{j}, and b{j} is out of it
                texts[k] = f"c{j} & ~(up[x{j}] | down[x{j}])"
            elif after[k] > j:
                continue
            elif pattern_up[order[j]] >> order[k] & 1:
                texts[k] = f"{masks[k]} & up[x{j}]"
            elif pattern_down[order[j]] >> order[k] & 1:
                texts[k] = f"{masks[k]} & down[x{j}]"
            else:
                texts[k] = f"{masks[k]} & ~(up[x{j}] | down[x{j}]{used})"

        k = j + 1
        first = texts[k]
        emit(depth, f"c{k} = {first}")
        if k == m - 1 and not colored:  # any candidate completes the copy
            emit(depth, f"if c{k}:")
            images = ", ".join(f"x{i}" for i in range(k))
            emit(depth + 1, f"return [{images}, (c{k} & -c{k}).bit_length() - 1]")
            return
        emit(depth, f"if not c{k}:")
        emit(depth + 1, leave)
        # c{k} is still whole here: its loop has not taken a bit out yet
        named = {}
        for k, text in texts.items():
            if k == j + 1:
                continue
            if text not in named:
                named[text] = f"p{k}_{j}"
                emit(depth, f"{named[text]} = {f'c{j + 1}' if text == first else text}")
            masks[k] = named[text]
        loop(j + 1, depth)

    def loop(i, depth):
        emit(depth, f"while c{i}:")
        depth += 1
        emit(depth, f"b{i} = c{i} & -c{i}")
        emit(depth, f"c{i} ^= b{i}")
        emit(depth, f"x{i} = b{i}.bit_length() - 1")
        if colored and i == 0:
            emit(depth, "s0 = 1 << colors[x0]")
        elif colored and i == m - 1:
            emit(depth, f"if s{i - 1} >> colors[x{i}] & 1:")
            emit(depth + 1, "continue")
        elif colored:
            emit(depth, f"h{i} = 1 << colors[x{i}]")
            emit(depth, f"if s{i - 1} & h{i}:")
            emit(depth + 1, "continue")
            emit(depth, f"s{i} = s{i - 1} | h{i}")
        if i == m - 1:
            emit(depth, f"return [{', '.join(f'x{j}' for j in range(m))}]")
        else:
            narrow(i, depth, "continue")

    if anchored:
        if colored:
            emit(1, "s0 = 1 << colors[x0]")
        narrow(0, 1, "return None")
    else:
        emit(1, "c0 = avail")
        loop(0, 1)
    return "\n".join(lines) + "\n"


class _Searches(dict):
    """The compiled searches of one plan in one coloring mode, keyed by the
    anchor's role (None: no anchor), each compiled on its first use."""

    __slots__ = ("pattern_up", "pattern_down", "twins", "orders", "colored")

    def __init__(self, pattern_up, pattern_down, twins, orders, colored):
        super().__init__()
        self.pattern_up = pattern_up
        self.pattern_down = pattern_down
        self.twins = twins
        self.orders = orders
        self.colored = colored

    def __missing__(self, first):
        source = _search_source(
            self.pattern_up,
            self.pattern_down,
            self.twins,
            self.orders[first],
            first is not None,
            self.colored,
        )
        # The source holds only fixed identifiers and the integer indices of
        # the plan's steps, never text from outside the program.
        namespace = {}
        exec(compile(source, "<copy search>", "exec"), namespace)
        search = self[first] = namespace["_search"]
        return search


class PatternPlan:
    """Search orders and anchor roles for one pattern poset.

    `orders[first]` lists the pattern element of each step of the search
    from anchor vertex `first` (None: no anchor), so a copy, which lists
    host elements in step order, maps element orders[first][i] to copy[i].
    `roles` holds one (v, |up(v)|, |down(v)|) per distinct (up row, down
    row) pair of the pattern: v is the first element with that pair, the
    one with no previous twin. `searches[colored][first]` is the compiled
    search along `orders[first]`, built when first used. It returns the
    first copy in the index order of the images along the steps, and tries
    the images of twins, found once per plan, in ascending order only; the
    first copy has them so (see `_search_source`).
    """

    __slots__ = ("m", "orders", "roles", "searches")

    def __init__(self, pattern_up, pattern_down):
        self.m = m = len(pattern_up)
        self.orders = {
            first: tuple(_order_from(pattern_up, pattern_down, first))
            for first in [None, *range(m)]
        }
        twins = _previous_twins(pattern_up, pattern_down)
        self.roles = tuple(
            (v, pattern_up[v].bit_count(), pattern_down[v].bit_count())
            for v, twin in enumerate(twins)
            if twin < 0
        )
        self.searches = tuple(
            _Searches(pattern_up, pattern_down, twins, self.orders, colored)
            for colored in (False, True)
        )


@lru_cache(maxsize=512)
def _plan_cached(up, down):
    return PatternPlan(up, down)


def plan_for(pattern):
    return _plan_cached(pattern._up, pattern._down)


def exists_copy(host_up, host_down, plan, *, active=None, colors=None, anchor=None):
    """The first induced copy of the plan's pattern found among the active
    host elements, with pairwise-distinct colors when `colors` is given and
    containing `anchor` when given: a list of host elements in the order of
    the search's steps, the anchor first; None when there is none, and True
    for the empty pattern. The copy is the first of its search in the index
    order of the images along the steps, and the images of twin pattern
    elements ascend in it, except against the anchor.

    An anchored call tries the anchor in each distinct role of the pattern,
    skipping a role whose up- or down-degree exceeds the number of active
    elements above or below the anchor. With no `active` mask every host
    element is active.
    """
    m = plan.m
    if active is None:
        active = (1 << len(host_up)) - 1
    if m > active.bit_count():
        return None
    if m == 0:
        return True
    searches = plan.searches[colors is not None]
    if anchor is None:
        if m == 1:
            return [(active & -active).bit_length() - 1]
        return searches[None](host_up, host_down, active, colors)
    if not active >> anchor & 1:
        return None
    if m == 1:
        return [anchor]
    above = (host_up[anchor] & active).bit_count()
    below = (host_down[anchor] & active).bit_count()
    avail = active ^ (1 << anchor)
    for v, need_above, need_below in plan.roles:
        if need_above <= above and need_below <= below:
            copy = searches[v](host_up, host_down, avail, colors, anchor)
            if copy is not None:
                return copy
    return None
