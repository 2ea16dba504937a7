"""Backtracking kernel for induced copies with active, color and anchor filters.

Hosts are passed as bit rows so the same kernel serves posets and set
families. Patterns are preprocessed once into a plan holding, for every
possible anchor vertex, a static search order with per-step constraints,
and the up- and down-degree of every distinct role. One recursive extender
stops at the first copy, which the kernel returns.
"""

from __future__ import annotations

from functools import lru_cache

_BELOW, _ABOVE, _INCOMP = 0, 1, 2


def _order_from(pattern_up, pattern_down, m, first):
    """Vertex order starting at `first`: breadth-first over the pattern's
    comparability graph, ties broken by higher degree then index."""
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


class PatternPlan:
    """Precomputed search steps and anchor roles for one pattern poset.

    `steps[first]` is the search from anchor vertex `first` (None: no
    anchor); its step i is (constraints, is_last), where the constraints
    list (j, relation) of the image of step i to the image of each earlier
    step j. `roles` holds one (v, |up(v)|, |down(v)|) per distinct
    (up row, down row) pair of the pattern.
    """

    __slots__ = ("m", "steps", "roles")

    def __init__(self, pattern_up, pattern_down, m):
        self.m = m
        self.steps = {}
        for first in [None] + list(range(m)):
            order = _order_from(pattern_up, pattern_down, m, first)
            steps = []
            for i, v in enumerate(order):
                cons = []
                for j in range(i):
                    w = order[j]
                    if pattern_up[w] >> v & 1:
                        cons.append((j, _ABOVE))
                    elif pattern_down[w] >> v & 1:
                        cons.append((j, _BELOW))
                    else:
                        cons.append((j, _INCOMP))
                steps.append((tuple(cons), i == m - 1))
            self.steps[first] = tuple(steps)
        roles = {}
        for v in range(m):
            roles.setdefault(
                (pattern_up[v], pattern_down[v]),
                (v, pattern_up[v].bit_count(), pattern_down[v].bit_count()),
            )
        self.roles = tuple(roles.values())


@lru_cache(maxsize=512)
def _plan_cached(up, down, m):
    return PatternPlan(up, down, m)


def plan_for(pattern):
    return _plan_cached(pattern._up, pattern._down, pattern.n)


def _extend(up, down, steps, image, i, avail, colors, colorbits):
    """Map steps i.. onto `avail` (the active host elements not yet used),
    given the images of steps < i; with `colors`, no color may repeat among
    `colorbits`. Returns True at the first complete copy.

    Every candidate lies in `avail`, so it is active, unused and distinct
    from each earlier image w: "incomparable to w" is ~(up[w] | down[w]).
    """
    cons, last = steps[i]
    cand = avail
    for j, rel in cons:
        w = image[j]
        if rel == _ABOVE:
            cand &= up[w]
        elif rel == _BELOW:
            cand &= down[w]
        else:
            cand &= ~(up[w] | down[w])
        if not cand:
            return False
    while cand:
        low = cand & -cand
        cand ^= low
        x = low.bit_length() - 1
        bits = colorbits
        if colors is not None:
            cbit = 1 << colors[x]
            if bits & cbit:
                continue
            bits |= cbit
        image[i] = x
        if last or _extend(up, down, steps, image, i + 1, avail ^ low, colors, bits):
            return True
    return False


def exists_copy(host_up, host_down, n, plan, *, active=None, colors=None, anchor=None):
    """The first induced copy of the plan's pattern found among the active
    host elements, with pairwise-distinct colors when `colors` is given and
    containing `anchor` when given: a list of host elements, the anchor
    first; None when there is none, and True for the empty pattern.

    An anchored call tries the anchor in each distinct role of the pattern,
    skipping a role whose up- or down-degree exceeds the number of active
    elements above or below the anchor.
    """
    m = plan.m
    if active is None:
        active = (1 << n) - 1
    if m > active.bit_count():
        return None
    if m == 0:
        return True
    if anchor is None:
        image = [0] * m
        if _extend(host_up, host_down, plan.steps[None], image, 0, active, colors, 0):
            return image
        return None
    if not active >> anchor & 1:
        return None
    if m == 1:
        return [anchor]
    above = (host_up[anchor] & active).bit_count()
    below = (host_down[anchor] & active).bit_count()
    avail = active ^ (1 << anchor)
    colorbits = 0 if colors is None else 1 << colors[anchor]
    image = [anchor] * m  # step 0 of every anchored search maps to the anchor
    for v, need_above, need_below in plan.roles:
        if (
            need_above <= above
            and need_below <= below
            and _extend(
                host_up, host_down, plan.steps[v], image, 1, avail, colors, colorbits
            )
        ):
            return image
    return None

