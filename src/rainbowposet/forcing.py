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
from dataclasses import dataclass
from typing import Optional

from ._copies import exists_copy, plan_for
from .errors import BadParams, ForcingTimeout, PreconditionViolated
from .poset import (
    Poset,
    _previous_twins,
    canonical_key,
    dual,
    linear_sum,
    perp_value,
    rank_partition,
)
from .catalog import DEFAULT_CAP, posets_of_size

DEFAULT_BUDGET_S = 900.0


@dataclass(frozen=True)
class Coloring:
    """Color ids per element, in canonical form: scanning elements in index
    order, each first-seen color id is exactly one more than the maximum
    seen so far (starting at 0)."""

    colors: tuple

    def __post_init__(self):
        seen = -1
        for c in self.colors:
            if c > seen + 1 or c < 0:
                raise PreconditionViolated("coloring is not in canonical form")
            seen = max(seen, c)

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


@dataclass(frozen=True)
class ForcingVerdict:
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
    existing colors plus one fresh color."""
    n = p.n
    order = list(range(n))
    rng.shuffle(order)
    comp = [p.up_mask(x) | p.down_mask(x) for x in range(n)]
    colors = [-1] * n
    class_masks = []
    for e in order:
        feasible = [c for c, m in enumerate(class_masks) if not m & comp[e]]
        pick = rng.randrange(len(feasible) + 1)
        if pick == len(feasible):
            colors[e] = len(class_masks)
            class_masks.append(1 << e)
        else:
            c = feasible[pick]
            colors[e] = c
            class_masks[c] |= 1 << e
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


def _never_linked(classes, reach, comp, free):
    """Whether two color classes A < B have no comparable pair between them
    in any completion of a partial coloring. reach[c] holds the elements
    comparable to a member of class c, and free the uncolored elements. An
    unlinked pair can still be linked by (i) a free element in reach[B] but
    not reach[A], which may join A, (ii) the mirror case, which may join B,
    or (iii) a comparable pair of free elements outside reach[A] and
    reach[B]. Once (i) and (ii) fail, those two sets of free elements are
    one, so (iii) asks for a comparable pair inside it."""
    for b in range(1, len(classes)):
        rb = reach[b]
        for a in range(b):
            ra = reach[a]
            if classes[a] & rb or free & (ra ^ rb):
                continue
            loose = rest = free & ~ra
            while rest:
                low = rest & -rest
                if comp[low.bit_length() - 1] & loose:
                    break
                rest ^= low
            else:
                return True
    return False


def refuting_coloring(
    host: Poset, pattern: Poset, budget_s: Optional[float] = DEFAULT_BUDGET_S
) -> Optional[Coloring]:
    """First (in canonical search order) proper coloring of host without a
    rainbow induced copy of pattern; None when exhaustive search proves the
    host rainbow-forces the pattern. A negative or NaN budget raises
    BadParams; None means no budget. Every coloring holds the empty
    pattern, so nothing refutes it."""
    colors = _refuting_colors(host, pattern, budget_s)
    return None if colors is None else Coloring.from_values(colors)


def _refuting_colors(host: Poset, pattern: Poset, budget_s) -> Optional[list]:
    """The search behind `refuting_coloring`: the colors of the first
    refutation per element, numbered in order of first use along the search
    order, or None.

    One loop colors the elements in rank-then-index order (ranks from
    `rank_partition`), with one frame per colored element on a list, so
    no host is too deep to search. Each element tries the feasible
    existing colors in ascending order, then one fresh color, and a branch
    dies as soon as a rainbow copy holds the element just colored. A copy that is rainbow with an existing color
    stays rainbow with a fresh one, and a copy found with any color stays
    rainbow under every color that its other elements do not use. So one
    copy search with the fresh color decides most colors, and only those on
    the copy it finds get a search of their own. The clock is read at
    every 256th node.

    Colors are tried in ascending order, so the refutation found is the
    lexicographically first restricted-growth string along the order, and
    a branch may be cut when each refutation in it has a smaller one. Two
    cuts do so at every node of the loop. The loop runs only when the
    first leaf holds a copy, so it always backtracks, and the cuts'
    state is built once, where it starts.
    - Merge: if two classes A < B of a refutation have no comparable pair
      between them, merging B into A is still proper and still has no
      rainbow copy (a merge never makes a copy rainbow), and it is smaller
      at B's first element. So the first refutation links every pair of
      classes, and a node where some pair can no longer be linked
      (`_never_linked`) is cut.
    - Twins (equal up and down rows): giving one twin the other's color
      keeps a refutation, since a copy through one twin maps to a copy
      through the other with the same colors. Giving the twin with the
      larger color the smaller one makes the coloring smaller there. So the
      first refutation gives twins one color, and a twin tries only the
      color of its previous twin in index order, which shares its rank and
      so comes before it along the order.

    The search's first leaf, first fit along the order, is tested before
    the loop is set up. It gives each element the color rank - 1: the
    longest chain below an element holds colors 0..rank-2, and the elements
    before it with color rank - 1 lie in its own layer, an antichain. So
    when the height is below the pattern's size, or one unanchored copy
    search finds no rainbow copy under this rank coloring, it is the first
    refutation, and no loop state is built. This also refutes a host with
    no copy of the pattern at all.
    """
    deadline = _deadline(budget_s)
    if pattern.n == 0:
        return None
    n = host.n
    up, down, plan = host._up, host._down, plan_for(pattern)
    rank = rank_partition(host)
    colors = [r - 1 for r in rank]  # the first leaf
    if max(rank, default=0) < pattern.n or exists_copy(up, down, plan, colors=colors) is None:
        return colors
    order = sorted(range(n), key=rank.__getitem__)
    comp = [u | d for u, d in zip(up, down)]
    twin = _previous_twins(up, down)
    everything = (1 << n) - 1
    classes = []  # one bitmask of elements per color
    # per color, the elements comparable to a member; per colored element,
    # its class's reach before it joined
    reach, before = [0] * n, [0] * n
    # per colored element: (element, fresh color, the copy that decided its
    # colors, an iterator over the colors left)
    frames = []
    backtrack = False  # whether the child of the last frame failed
    assigned = 0  # the colored elements and the one being colored
    nodes = 0
    while True:
        if backtrack:  # take back the color under which the child failed
            e, fresh, copy, tried = frames.pop()
            bit = 1 << e
            classes[colors[e]] ^= bit
            reach[colors[e]] = before[e]
        else:
            nodes += 1
            if not nodes & 255 and time.monotonic() > deadline:
                raise ForcingTimeout(f"forcing search exceeded its {budget_s:g}s budget")
            i = len(frames)
            if i == n:
                return colors
            if _never_linked(classes, reach, comp, everything ^ assigned):
                backtrack = True
                continue
            e = order[i]
            bit = 1 << e
            assigned |= bit
            fresh = len(classes)
            if twin[e] >= 0:
                # the first refutation gives twins one color: e tries only its
                # twin's, with a copy search of its own
                copy, tried = (), iter((colors[twin[e]],))
            else:
                colors[e] = fresh
                copy = exists_copy(up, down, plan, active=assigned, colors=colors, anchor=e)
                if copy is None:  # no color of e completes a rainbow copy
                    tried = iter(range(fresh + 1))
                else:  # it stays rainbow under every color its other elements do not use
                    tried = iter(sorted({colors[x] for x in copy[1:]}))
        for c in tried:
            if c == fresh:
                classes.append(0)
            elif classes[c] & comp[e]:
                continue
            colors[e] = c
            if copy is None or not exists_copy(
                up, down, plan, active=assigned, colors=colors, anchor=e
            ):
                classes[c] |= bit
                before[e], reach[c] = reach[c], reach[c] | comp[e]
                frames.append((e, fresh, copy, tried))
                backtrack = False
                break
        else:  # no color of e is left
            del classes[fresh:]
            assigned ^= bit
            if not frames:
                return None
            backtrack = True


def _forces(host: Poset, pattern: Poset, budget_s=DEFAULT_BUDGET_S) -> bool:
    """The bare forcing decision, with no witness: the search's verdict,
    taken without building a `Coloring`. A host smaller than the pattern or
    without a copy of it needs no separate test, since the search's first
    leaf, the rank coloring, refutes it."""
    return _refuting_colors(host, pattern, budget_s) is None


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


@dataclass(frozen=True)
class MValue:
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
