"""Proper colorings, rainbow copies, and the rainbow-forcing decision kernel.

A host Q rainbow-forces a pattern P when every proper coloring of Q contains
an induced copy of P with pairwise-distinct colors. The decision procedure
searches proper colorings in a canonical form that kills color-renaming
symmetry, pruning any branch whose colored prefix already holds a rainbow
copy (copies survive every extension, so the prune is sound).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

from ._copies import exists_copy, plan_for
from .errors import BadParams, CapExceeded, ForcingTimeout, PreconditionViolated
from .poset import Poset, canonical_key, dual, linear_sum, perp_value, rank_partition
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
    cols = coloring.colors
    if len(cols) != p.n:
        raise PreconditionViolated("coloring does not cover every element")
    for x in range(p.n):
        ux = p.up_mask(x)
        while ux:
            low = ux & -ux
            y = low.bit_length() - 1
            ux ^= low
            if cols[x] == cols[y]:
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


def _refute(search, i, assigned, greedy):
    """Color the elements order[i:] so that no rainbow copy arises, given
    the proper coloring `colors` of the elements in `assigned`; True when
    that succeeds, with the first such coloring (in search order) left in
    `colors`.

    Each element tries the feasible existing colors in order, then one
    fresh color, and a branch dies as soon as a rainbow copy holds the
    element just colored. A copy that is rainbow with an existing color
    stays rainbow with a fresh one, and a copy found with any color stays
    rainbow under every color that its other elements do not use. So one
    copy search with the fresh color decides most colors, and only those
    on the copy it finds get a search of their own. `greedy` holds until
    the search first backtracks: until then the first feasible color
    usually completes a refutation, so it is searched first, and a copy
    it holds decides the others in place of the fresh color's.
    """
    up, down, n, plan, order, comp, colors, classes, ticks, deadline, budget_s = search
    if next(ticks) & 255 == 0 and time.monotonic() > deadline:
        raise ForcingTimeout(f"forcing search exceeded its {budget_s:g}s budget")
    if i == n:
        return True
    e = order[i]
    bit = 1 << e
    assigned |= bit
    fresh = len(classes)
    start = 0  # the colors below it are decided
    copy = None
    if greedy:
        for c in range(fresh):
            if not classes[c] & comp[e]:
                start = c + 1
                colors[e] = c
                copy = exists_copy(up, down, plan, active=assigned, colors=colors, anchor=e)
                if copy is None:
                    classes[c] |= bit
                    if _refute(search, i + 1, assigned, True):
                        return True
                    classes[c] ^= bit
                    greedy = False
                break
    if copy is None:
        colors[e] = fresh
        copy = exists_copy(up, down, plan, active=assigned, colors=colors, anchor=e)
    if copy is None:  # no color of e completes a rainbow copy
        tried = range(start, fresh + 1)
    else:  # it stays rainbow under every color its other elements do not use
        tried = sorted({colors[x] for x in copy[1:] if colors[x] >= start})
    for c in tried:
        if c == fresh:
            classes.append(0)
        elif classes[c] & comp[e]:
            continue
        colors[e] = c
        if copy is not None and exists_copy(
            up, down, plan, active=assigned, colors=colors, anchor=e
        ):
            continue
        classes[c] |= bit
        if _refute(search, i + 1, assigned, greedy):
            return True
        classes[c] ^= bit
        greedy = False
    del classes[fresh:]
    return False


def refuting_coloring(
    host: Poset, pattern: Poset, budget_s: Optional[float] = DEFAULT_BUDGET_S
) -> Optional[Coloring]:
    """First (in canonical search order) proper coloring of host without a
    rainbow induced copy of pattern; None when exhaustive search proves the
    host rainbow-forces the pattern.

    Elements are colored in rank-then-index order (see `_refute`), one
    recursion level each, so a host deeper than the interpreter's stack
    raises CapExceeded. A negative or NaN budget raises BadParams; None
    means no budget. Every coloring holds the empty pattern, so nothing
    refutes it.
    """
    deadline = _deadline(budget_s)
    if pattern.n == 0:
        return None
    n = host.n
    rank = rank_partition(host).rank
    order = sorted(range(n), key=lambda x: (rank[x], x))
    comp = [host.up_mask(x) | host.down_mask(x) for x in range(n)]
    colors = [0] * n
    search = (
        host._up,
        host._down,
        n,
        plan_for(pattern),
        order,
        comp,
        colors,
        [],  # one bitmask of elements per color
        itertools.count(1),  # node ticks: the clock is read every 256 nodes
        deadline,
        budget_s,
    )
    try:
        refuted = _refute(search, 0, 0, True)
    except RecursionError:
        raise CapExceeded(f"a {n}-element host is too deep for the forcing search") from None
    return Coloring.from_values(colors) if refuted else None


def _forces(host: Poset, pattern: Poset, budget_s=DEFAULT_BUDGET_S) -> bool:
    """The bare forcing decision, with no witness: a host smaller than the
    pattern or without a copy of it cannot force it, so the coloring search
    runs only after the size check and an unanchored copy search. A bad
    budget is rejected even where no search runs."""
    _deadline(budget_s)
    return (
        pattern.n <= host.n
        and exists_copy(host._up, host._down, plan_for(pattern)) is not None
        and refuting_coloring(host, pattern, budget_s) is None
    )


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


def search_M(
    pattern: Poset,
    size_bound: int,
    cap: int = DEFAULT_CAP,
    budget_s=DEFAULT_BUDGET_S,
):
    """All posets of size <= size_bound (up to isomorphism) that minimally
    rainbow-force the pattern, in canonical-key order.

    Sizes ascend, so every single-element deletion of a host is a class of
    the previous size that is already decided: a forcer is minimal exactly
    when no deletion's key is among the forcing keys found so far."""
    if pattern.n == 0:
        raise BadParams("every poset rainbow-forces the empty pattern")
    if size_bound < 0:
        raise BadParams(f"size bound size_bound={size_bound} is negative")
    if size_bound > cap:
        raise CapExceeded(f"size bound {size_bound} above enumeration cap {cap}")
    forcing = set()
    out = []
    for n in range(pattern.n, size_bound + 1):
        for host in posets_of_size(n, cap):
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
