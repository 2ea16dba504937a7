"""Proper colorings, rainbow copies, and the rainbow-forcing decision kernel.

A host Q rainbow-forces a pattern P when every proper coloring of Q contains
an induced copy of P with pairwise-distinct colors. The decision procedure
searches proper colorings in a canonical form that kills color-renaming
symmetry, pruning any branch whose colored prefix already holds a rainbow
copy (copies survive every extension, so the prune is sound) and any branch
that cannot hold the first refuting coloring.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple, Optional

from ._copies import exists_copy, plan_for
from .errors import BadParams, ForcingTimeout, PreconditionViolated
from .poset import (
    Poset,
    _bits,
    _previous_twins,
    canonical_key,
    dual,
    linear_sum,
    perp_value,
    rank_partition,
)
from .catalog import DEFAULT_CAP, posets_of_size

DEFAULT_BUDGET_S = 900.0


class Coloring:
    """Color ids per element, in canonical form: scanning elements in index
    order, each first-seen color id is exactly one more than the maximum
    seen so far (starting at 0). Immutable, compared and hashed by `colors`;
    not a NamedTuple, as its `len` is the element count."""

    __slots__ = ("colors",)

    def __init__(self, colors: tuple):
        seen = -1
        for c in colors:
            if c > seen + 1 or c < 0:
                raise PreconditionViolated("coloring is not in canonical form")
            seen = max(seen, c)
        object.__setattr__(self, "colors", colors)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.colors == other.colors

    def __hash__(self):
        return hash((self.colors,))

    def __repr__(self):
        return f"Coloring(colors={self.colors!r})"

    def __reduce__(self):
        return Coloring, (self.colors,)

    @classmethod
    def from_values(cls, values) -> "Coloring":
        """Relabel arbitrary hashable color values into canonical form."""
        mapping = {}
        out = []
        for v in values:
            if v not in mapping:
                mapping[v] = len(mapping)
            out.append(mapping[v])
        return cls(tuple(out))

    @property
    def num_colors(self) -> int:
        return max(self.colors) + 1 if self.colors else 0

    def __len__(self):
        return len(self.colors)


class ForcingVerdict(NamedTuple):
    forces: bool
    refutation: Optional[Coloring]


def is_proper(p: Poset, coloring: Coloring) -> bool:
    """No two comparable elements share a color: each element's up row
    misses its own color class."""
    cols = coloring.colors
    if len(cols) != p.n:
        raise PreconditionViolated("coloring does not cover every element")
    classes = [0] * coloring.num_colors
    for x, c in enumerate(cols):
        classes[c] |= 1 << x
    for row, c in zip(p._up, cols):
        if row & classes[c]:
            return False
    return True


def has_rainbow_copy(host: Poset, coloring: Coloring, pattern: Poset) -> bool:
    plan = plan_for(pattern)
    found = exists_copy(host._up, host._down, plan, colors=coloring.colors)
    return found is not None


def proper_colorings(p: Poset):
    """All proper colorings in canonical (index-scan) form, lexicographically."""
    n = p.n
    comp = [p.up_mask(x) | p.down_mask(x) for x in range(n)]
    colors = [0] * n
    classes = []  # bitmask of elements per color

    def rec(i):
        if i == n:
            yield Coloring(tuple(colors))
            return
        for c, members in enumerate(classes):
            if not members & comp[i]:
                colors[i] = c
                classes[c] |= 1 << i
                yield from rec(i + 1)
                classes[c] &= ~(1 << i)
        colors[i] = len(classes)
        classes.append(1 << i)
        yield from rec(i + 1)
        classes.pop()

    yield from rec(0)


def random_proper_coloring(p: Poset, rng) -> Coloring:
    """Color elements in random order, choosing uniformly among feasible
    existing colors plus one fresh color.

    An existing color is feasible for e unless a colored element
    comparable to e has it, so each pick reads only those elements,
    comp[e] & colored, not every color class. The count of feasible colors
    is the same, so rng.randrange gets the same argument; stepping over the
    sorted taken colors finds the pick-th feasible color in ascending
    order, the one the list of feasible classes held at that index. So the
    draws, the coloring and rng's final state are unchanged."""
    n = p.n
    order = list(range(n))
    rng.shuffle(order)
    comp = [p.up_mask(x) | p.down_mask(x) for x in range(n)]
    colors = [-1] * n
    colored = num = 0
    for e in order:
        taken = sorted({colors[x] for x in _bits(comp[e] & colored)})
        free = num - len(taken)
        c = rng.randrange(free + 1)
        if c == free:
            c = num
            num += 1
        else:
            for t in taken:
                if t > c:
                    break
                c += 1
        colors[e] = c
        colored |= 1 << e
    return Coloring.from_values(colors)


# --- the forcing search ------------------------------------------------------


def _deadline(budget_s):
    """The monotonic time at which a search with this budget stops, inf
    for no budget (None)."""
    if budget_s is None:
        return math.inf
    if not budget_s >= 0:
        raise BadParams(f"budget_s={budget_s:g} is not a number of seconds >= 0")
    return time.monotonic() + budget_s


def refuting_coloring(
    host: Poset, pattern: Poset, budget_s: Optional[float] = DEFAULT_BUDGET_S
) -> Optional[Coloring]:
    """First (in canonical search order) proper coloring of host without a
    rainbow induced copy of pattern; None when exhaustive search proves the
    host rainbow-forces the pattern. A negative or NaN budget raises
    BadParams; None means no budget. Every coloring holds the empty
    pattern, so nothing refutes it.

    The canonical order is the rank-then-index order, whatever the
    pattern, so the refutation returned does not depend on the order that
    decided: `_decide` takes the verdict along the degree order when the
    pattern has a comparable pair, and when that loop refutes past the
    first leaf, the loop runs again along the rank order, under the same
    deadline, and its refutation is returned. A refutation found along the
    degree order is as valid, but it is another coloring, and the first
    refutation along one fixed order is what every output and re-check is
    written against. The rerun is cheap where it runs: on `forcing-random`
    seed 1 the 78 refutations past the first leaf take 2,678 copy searches
    along the rank order, and the degree-order loop before them 1,171, of
    18,311 in all. A forced verdict needs no rerun, and there the degree
    order saves the most."""
    colors = _decide(host, pattern, budget_s, first=True)
    return None if colors is None else Coloring.from_values(colors)


def _decide(host: Poset, pattern: Poset, budget_s, first: bool) -> Optional[list]:
    """The colors of a refutation per element, or None when host forces
    pattern: the first refutation along the rank-then-index order when
    `first` is set, else the first one along the order that decides.

    The search's first leaf, first fit along the rank order (ranks from
    `rank_partition`, kept on the host: a catalog host reads the ranks the
    catalog gave it), is tested before any loop state is built. It gives
    each element the color rank - 1: the longest chain below an element
    holds colors 0..rank-2, and the elements before it with color rank - 1
    lie in its own layer, an antichain. So when the height is below the pattern's size, or one
    unanchored copy search finds no rainbow copy under this rank coloring,
    it is the first refutation, and no loop runs. This also refutes a host
    with no copy of the pattern at all.

    Otherwise the loop decides, along the degree order (elements by
    descending |up ∪ down|, ties by index) when the pattern has a
    comparable pair, else, for an antichain, along the rank order. A
    comparable pair of the pattern maps to a comparable pair of the host,
    whose elements have different ranks, so every copy of such a pattern
    spans two ranks. Along the rank order it can close a branch only once
    the antichain of rank-1 elements is colored, so every coloring of that
    layer is enumerated first; the most comparable elements first (the
    fail-first rule of Haralick and Elliott, Artificial Intelligence 14,
    1980) close branches after few elements, whether the pattern is
    connected or not. Measured on one CPU, the 6-cube forces K_{2,2} after
    10,209 copy searches in the loop (0.12 s), where the rank order gives
    no verdict in 120 s, and the 5-cube forces the 3-chain beside a point
    after 1,880, against 14,034 along the rank order.
    An antichain's copies can close a branch inside the first layer, and
    it is far slower along the degree order: `organ(5)` against A5 takes
    36.9 million copy searches (154 s) along it and 30,879 (0.24 s) along
    the rank order, and the 6-cube against A4 takes 59 s against 0.3 s.
    So it keeps the rank order, and `m_value(antichain(4))` and every
    `o_jk` decision with it."""
    deadline = _deadline(budget_s)
    if pattern.n == 0:
        return None
    up, down, plan = host._up, host._down, plan_for(pattern)
    rank = rank_partition(host)
    colors = [r - 1 for r in rank]  # the first leaf
    if max(rank, default=0) < pattern.n or exists_copy(up, down, plan, colors=colors) is None:
        return colors
    twin = _previous_twins(up, down)
    by_rank = sorted(range(host.n), key=rank.__getitem__)
    if not any(pattern._up):  # an antichain
        return _refuting_colors(host, plan, by_rank, twin, deadline, budget_s)
    by_degree = sorted(range(host.n), key=lambda x: -(up[x] | down[x]).bit_count())
    colors = _refuting_colors(host, plan, by_degree, twin, deadline, budget_s)
    if colors is not None and first:
        colors = _refuting_colors(host, plan, by_rank, twin, deadline, budget_s)
    return colors


def _refuting_colors(host: Poset, plan, order, twin, deadline, budget_s) -> Optional[list]:
    """The loop behind `_decide`: the colors of the first refutation along
    `order` per element, numbered in order of first use along it, or None.
    `twin` holds each element's previous twin (`_previous_twins`), and
    `order` must put it before the element.

    One loop colors the elements along the order, with one frame per
    colored element on a list, so no host is too deep to search. Each
    element tries the feasible existing colors in ascending order, then
    one fresh color, and a branch dies as soon as a rainbow copy holds the
    element just colored. A copy that is rainbow with an existing color
    stays rainbow with a fresh one, and a copy found with any color stays
    rainbow under every color that its other elements do not use. So one
    copy search with the fresh color decides most colors, and only those
    on the copy it finds get a search of their own. The clock is read at
    every 256th node, against the deadline the caller set.

    Colors are tried in ascending order, so the refutation found is the
    lexicographically first restricted-growth string along the order, and
    a branch may be cut when it holds no first refutation. Two rules do so.
    - Twins (equal up and down rows): giving one twin the other's color
      keeps a refutation, since a copy through one twin maps to a copy
      through the other with the same colors. Giving the twin with the
      larger color the smaller one makes the coloring smaller there: the
      smaller color was first used before the larger one, so before that
      twin. So the first refutation gives twins one color, and a twin
      tries only the color of its previous twin in index order, which the
      order puts before it. This holds along every order `_decide` uses.
    - Jumps (conflict-directed backjumping: Prosser, Computational
      Intelligence 9, 1993): each frame keeps a conflict mask of elements
      colored before its own, the union of why each color of its element
      failed: the other elements of the copy found under the fresh color,
      for every color they do not use; the class members comparable to the
      element, for an improper color; the other elements of a rainbow copy
      found under the color; the previous twin, for a twin's other colors;
      and a failed child's mask without the element itself. No refutation
      whose twins share a color extends a coloring that induces the same
      partition as a reason on its elements and the element colored, and
      the node's mask holds that way for every color of its element at
      once: a class of such a coloring that meets the mask is a color the
      node tried, and one that meets none acts as its fresh color. So when
      a child's mask lacks the element, no other color of it can help: the
      loop pops frames up to the last one whose element the mask names
      (the deepest along the order), merges the mask there and goes on with
      that frame's next color, and an empty mask ends the search. A jump
      skips only subtrees that hold no such refutation, so the verdict and
      the first refutation are the same as without jumps.
    """
    n = host.n
    up, down = host._up, host._down
    comp = [u | d for u, d in zip(up, down)]
    colors = [0] * n
    classes = []  # one bitmask of elements per color
    # per colored element: (element, fresh color, the copy that decided its
    # colors, an iterator over the colors left, the conflict of those tried)
    frames = []
    failed = 0  # the conflict of the child that failed, 0 while going down
    assigned = 0  # the colored elements and the one being colored
    nodes = 0
    while True:
        if failed:  # back to the last colored element the failure names
            while True:
                e, fresh, copy, tried, conflict = frames.pop()
                bit = 1 << e
                classes[colors[e]] ^= bit
                if failed & bit:
                    break
                del classes[fresh:]
                assigned ^= bit
            conflict |= failed ^ bit
        else:
            nodes += 1
            if not nodes & 255 and time.monotonic() > deadline:
                raise ForcingTimeout(f"forcing search exceeded its {budget_s:g}s budget")
            i = len(frames)
            if i == n:
                return colors
            e = order[i]
            bit = 1 << e
            assigned |= bit
            fresh = len(classes)
            if twin[e] >= 0:
                # the first refutation gives twins one color: e tries only its
                # twin's, with a copy search of its own
                copy, tried, conflict = (), iter((colors[twin[e]],)), 1 << twin[e]
            else:
                colors[e] = fresh
                copy = exists_copy(up, down, plan, active=assigned, colors=colors, anchor=e)
                if copy is None:  # no color of e completes a rainbow copy
                    tried, conflict = iter(range(fresh + 1)), 0
                else:  # it stays rainbow under every color its other elements do not use
                    tried = iter(sorted({colors[x] for x in copy[1:]}))
                    conflict = sum(1 << x for x in copy[1:])
        for c in tried:
            if c == fresh:
                classes.append(0)
            elif classes[c] & comp[e]:
                conflict |= classes[c] & comp[e]
                continue
            colors[e] = c
            found = copy is not None and exists_copy(
                up, down, plan, active=assigned, colors=colors, anchor=e
            )
            if not found:
                classes[c] |= bit
                frames.append((e, fresh, copy, tried, conflict))
                failed = 0
                break
            conflict |= sum(1 << x for x in found[1:])
        else:  # no color of e is left
            del classes[fresh:]
            assigned ^= bit
            if not conflict:
                return None
            failed = conflict


def _forces(host: Poset, pattern: Poset, budget_s=DEFAULT_BUDGET_S) -> bool:
    """The bare forcing decision, with no witness: the verdict of `_decide`
    along the order it chooses, taken without building a `Coloring` or
    running the rank-order loop for the first refutation. A host smaller
    than the pattern or without a copy of it needs no separate test, since
    the search's first leaf, the rank coloring, refutes it."""
    return _decide(host, pattern, budget_s, first=False) is None


def rainbow_forces(
    host: Poset, pattern: Poset, budget_s: Optional[float] = DEFAULT_BUDGET_S
) -> ForcingVerdict:
    """Decide forcing; when the answer is no, attach the first refuting
    coloring found in canonical search order (re-verified before returning)."""
    refutation = refuting_coloring(host, pattern, budget_s)
    if refutation is None:
        return ForcingVerdict(forces=True, refutation=None)
    if not is_proper(host, refutation):
        raise AssertionError("refuting coloring is not proper")
    if has_rainbow_copy(host, refutation, pattern):
        raise AssertionError("refuting coloring holds a rainbow copy")
    return ForcingVerdict(forces=False, refutation=refutation)


def is_minimal_forcing(host: Poset, pattern: Poset, budget_s=DEFAULT_BUDGET_S) -> bool:
    """host forces pattern and no single-element deletion does."""
    if not _forces(host, pattern, budget_s):
        return False
    return all(
        not _forces(host.delete(x), pattern, budget_s) for x in range(host.n)
    )


def search_M(pattern: Poset, size_bound: int, budget_s=DEFAULT_BUDGET_S):
    """All posets of size <= size_bound (up to isomorphism) that minimally
    rainbow-force the pattern, in canonical-key order.

    Sizes ascend, so every single-element deletion of a host is a class of
    the previous size that is already decided: a forcer is minimal exactly
    when no deletion's key is among the forcing keys found so far."""
    if pattern.n == 0:
        raise BadParams("every poset rainbow-forces the empty pattern")
    if size_bound < 0:
        raise BadParams(f"size bound size_bound={size_bound} is negative")
    forcing = set()
    out = []
    for n in range(pattern.n, size_bound + 1):
        for host in posets_of_size(n, size_bound):
            if not _forces(host, pattern, budget_s):
                continue
            if not any(canonical_key(host.delete(x)) in forcing for x in range(n)):
                out.append(host)
            forcing.add(canonical_key(host))
    return sorted(out, key=canonical_key)


class MValue(NamedTuple):
    """Exact minimum forcing size when known, else a bracketing interval."""

    lower: int
    upper: int
    witness: Optional[Poset]

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> Optional[int]:
        return self.lower if self.exact else None


def m_value(pattern: Poset, cap: int = DEFAULT_CAP, budget_s=DEFAULT_BUDGET_S) -> MValue:
    """Minimum size of a poset that rainbow-forces the pattern.

    Sizes are searched ascending; a smallest forcing host is automatically
    deletion-minimal. When the window upper end (the blow-up size) exceeds
    the enumeration cap and no forcer was found, a bracket is returned.
    """
    if pattern.n == 0:
        raise BadParams("every poset rainbow-forces the empty pattern")
    if cap < 0:
        raise BadParams(f"enumeration cap cap={cap} is negative")
    hi = perp_value(pattern)
    for n in range(pattern.n, min(hi, cap) + 1):
        for host in posets_of_size(n, cap):
            if _forces(host, pattern, budget_s):
                return MValue(lower=n, upper=n, witness=host)
    if hi <= cap:
        raise AssertionError("blow-up guarantees a forcer within the window")
    return MValue(lower=max(cap + 1, pattern.n), upper=hi, witness=None)


def verify_linear_sum_closure(
    q1: Poset, p1: Poset, q2: Poset, p2: Poset, budget_s=DEFAULT_BUDGET_S
) -> bool:
    """Given q1 minimally forcing p1 and q2 minimally forcing p2 (caller's
    responsibility), check both closure statements: the dual of q1 minimally
    forces the dual of p1, and the linear sum q1^q2 minimally forces p1^p2."""
    return is_minimal_forcing(dual(q1), dual(p1), budget_s) and is_minimal_forcing(
        linear_sum(q1, q2), linear_sum(p1, p2), budget_s
    )
