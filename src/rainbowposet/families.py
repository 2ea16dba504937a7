"""Set families in the Boolean lattice: Lubell mass, chain statistics,
and exact extremal values at tiny ground-set sizes.

Masses are exact rationals throughout; floating point never reaches an
assertion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, lcm
from typing import NamedTuple, Optional

from ._copies import exists_copy, plan_for
from .catalog import order_ideals
from .errors import BadParams, CapExceeded
from .forcing import Coloring, _forces, has_rainbow_copy, is_proper, rainbow_forces
from .poset import Poset, _bits, _number, _read_header

LA_STAR_CAP = 4
MINMAX_CAP = 8


class SetFamily:
    """Distinct subsets of [n], each a bitmask over ground elements 1..n.
    Immutable, compared and hashed by (n, sets); not a NamedTuple, as its
    `len` is the number of sets."""

    __slots__ = ("n", "sets")

    def __init__(self, n: int, sets: tuple):
        if any(m >> n for m in sets):
            raise BadParams("set mask outside the ground set")
        if list(sets) != sorted(set(sets)):
            raise BadParams("sets must be sorted and distinct")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sets", sets)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.sets) == (other.n, other.sets)

    def __hash__(self):
        return hash((self.n, self.sets))

    def __repr__(self):
        return f"SetFamily(n={self.n!r}, sets={self.sets!r})"

    def __reduce__(self):
        return SetFamily, (self.n, self.sets)

    @classmethod
    def from_masks(cls, n, masks) -> "SetFamily":
        return cls(n, tuple(sorted(set(masks))))

    @classmethod
    def from_sets(cls, n, sets_of_elements) -> "SetFamily":
        masks = []
        for s in sets_of_elements:
            m = 0
            for e in s:
                if not 1 <= e <= n:
                    raise BadParams(f"element {e} outside 1..{n}")
                m |= 1 << (e - 1)
            masks.append(m)
        return cls.from_masks(n, masks)

    def members(self):
        return tuple(
            tuple(e + 1 for e in range(self.n) if m >> e & 1) for m in self.sets
        )

    def __len__(self):
        return len(self.sets)


def family_poset(f: SetFamily) -> Poset:
    """Containment order on the family's sets (bridge to the forcing module).
    The sets ascend by mask and a proper superset has the larger mask, so
    each set is compared only with the sets after it."""
    sets = f.sets
    up = [0] * len(sets)
    down = [0] * len(sets)
    for i, a in enumerate(sets):
        for j in range(i + 1, len(sets)):
            if a & sets[j] == a:
                up[i] |= 1 << j
                down[j] |= 1 << i
    return Poset._with_rows(tuple(up), tuple(down))


def lubell_mass(f: SetFamily) -> Fraction:
    """Sum over the family's sets of 1 / C(n, |set|), one term per layer:
    count_s / C(n, s) over the sizes s that occur."""
    counts = [0] * (f.n + 1)
    for m in f.sets:
        counts[m.bit_count()] += 1
    return sum(
        (Fraction(c, comb(f.n, s)) for s, c in enumerate(counts) if c), Fraction(0)
    )


def sigma(n: int, k: int) -> int:
    """Sum of the k largest binomial coefficients of order n. Every sum with
    k >= 1 holds the middle one, C(n, n // 2), and `math.comb` takes
    min(j, n - j) only up to 2**63 - 1, so a larger n // 2 raises BadParams."""
    if n < 0:
        raise BadParams(f"ground set size n={n} is negative")
    if not 0 <= k <= n + 1:
        raise BadParams("sigma needs 0 <= k <= n+1")
    if k and n // 2 >= 2**63:
        raise BadParams(f"ground set size n={n} is too large for sigma: n // 2 exceeds 2**63 - 1")
    base = (n - k) // 2
    return sum(comb(n, base + i) for i in range(1, k + 1))


# --- maximal chains -----------------------------------------------------------


class MinMaxReport(NamedTuple):
    """Min-max classification of all maximal chains of the cube.

    Chains meeting the family in at least two sets are grouped by the
    (smallest, largest) member met; the rest fall into the leftover class.
    The chain-average identity ties the Lubell mass to these statistics.
    """

    n: int
    classes: dict  # (min_mask, max_mask) -> (chain count, total hits)
    leftover_count: int
    mass: Fraction
    average: Fraction

    @property
    def identity_holds(self) -> bool:
        return self.mass == self.average


def minmax_partition(f: SetFamily) -> MinMaxReport:
    n = f.n
    if n > MINMAX_CAP:
        raise CapExceeded(f"minmax partition enumerates n! chains; n <= {MINMAX_CAP}")
    in_family = set(f.sets)
    classes = {}
    leftover_count = 0
    total_hits = 0
    for perm in permutations(range(n)):
        mask = 0
        hits = [0]  # masks of f met, in chain order
        if 0 in in_family:
            hits.append(0)
        for e in perm:
            mask |= 1 << e
            if mask in in_family:
                hits.append(mask)
        met = hits[1:]
        total_hits += len(met)
        if len(met) >= 2:
            key = (met[0], met[-1])
            cnt, tot = classes.get(key, (0, 0))
            classes[key] = (cnt + 1, tot + len(met))
        else:
            leftover_count += 1
    return MinMaxReport(
        n=n,
        classes=classes,
        leftover_count=leftover_count,
        mass=lubell_mass(f),
        average=Fraction(total_hits, factorial(n)),
    )


# --- extremal searches ---------------------------------------------------------


class LaResult(NamedTuple):
    """The first largest family found (`witness`, of size `value`), and the
    largest size a branch cut by the node budget could reach (`upper`, equal
    to `value` when nothing was cut)."""

    value: int
    witness: SetFamily
    upper: int
    coloring: Optional[Coloring] = None


@lru_cache(maxsize=16)
def _cube_rows(n):
    """Containment bit rows of the whole n-cube, indexed by mask: up[a] holds
    the strict supersets of a and down[a] its strict subsets. The family
    searches pass a family to the copy kernel as an `active` mask over these
    rows."""
    cube = family_poset(SetFamily(n, tuple(range(1 << n))))
    return cube._up, cube._down


def _branch_and_bound(candidates, weights, start, admits, node_budget=None):
    """Include-first branch and bound: the first heaviest family that grows
    from the `start` mask by `candidates` (cube masks, tried in the order
    given). `weights[m]` is the integer weight of mask m; `admits(grown,
    new)` tells whether `grown`, which holds `new`, is admissible, and must
    be monotone: every subfamily of an admissible family is admissible. Each
    node spends one unit of `node_budget` (None: no limit); once it is spent,
    the remaining branches are cut. Returns the family mask, its weight and
    an upper bound: the largest weight a cut branch could still reach, or
    the family's own weight if that is larger."""
    suffix = [0] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[candidates[i]]
    start_weight = sum(weights[m] for m in _bits(start))
    best = [start_weight, start]
    budget = float("inf") if node_budget is None else node_budget
    cut = 0

    def rec(i, fam, weight):
        nonlocal budget, cut
        if budget <= 0:
            cut = max(cut, weight + suffix[i])
            return
        budget -= 1
        if weight > best[0]:
            best[0] = weight
            best[1] = fam
        if i == len(candidates) or weight + suffix[i] <= best[0]:
            return
        new = candidates[i]
        grown = fam | 1 << new
        if admits(grown, new):
            rec(i + 1, grown, weight + weights[new])
        rec(i + 1, fam, weight)

    rec(0, start, start_weight)
    return best[1], best[0], max(best[0], cut)


def _pattern_free(n, patterns):
    """Predicate of the pattern-free searches: no induced copy of a pattern
    passes through `new`."""
    if any(p.n == 0 for p in patterns):
        raise BadParams("every family contains the empty pattern")
    plans = [plan_for(p) for p in patterns]
    up, down = _cube_rows(n)

    def admits(grown, new):
        for plan in plans:
            if exists_copy(up, down, plan, active=grown, anchor=new):
                return False
        return True

    return admits


def _refutable(n, pattern):
    """Predicate of the rainbow search: the grown family is refutable."""
    if pattern.n == 0:
        raise BadParams("every family rainbow-forces the empty pattern")

    def admits(grown, new):
        grown_poset = family_poset(SetFamily.from_masks(n, _bits(grown)))
        return not _forces(grown_poset, pattern, None)

    return admits


def _check_ground_set(n: int, search: str, node_budget=None):
    """Reject a negative n, an n above the cap, and a budget that is not >= 0."""
    if n < 0:
        raise BadParams(f"ground set size n={n} is negative")
    budgeted = node_budget is not None
    cap = LA_STAR_CAP + 1 if budgeted else LA_STAR_CAP
    if n > cap:
        kind = "budgeted" if budgeted else "exhaustive"
        raise CapExceeded(f"{kind} {search} is limited to n <= {cap}")
    if budgeted and not node_budget >= 0:
        raise BadParams(f"node_budget={node_budget} is not a node count >= 0")


def _largest_family(n, search, predicate, arg, node_budget=None) -> LaResult:
    """Unit-weight include-first search over every mask of the n-cube. Its
    `predicate(n, arg)` is built only after the cap check: it may build rows."""
    _check_ground_set(n, search, node_budget)
    total = 1 << n
    best, value, upper = _branch_and_bound(
        range(total), [1] * total, 0, predicate(n, arg), node_budget
    )
    return LaResult(value, SetFamily.from_masks(n, _bits(best)), upper)


def la_star(n: int, patterns, node_budget=None) -> LaResult:
    """Largest family avoiding induced copies of every pattern, and the first
    such family in include-first order over increasing masks. Exhaustive for
    n <= 4; a `node_budget` also allows n = 5 and cuts the search after that
    many nodes, leaving `value` and `upper` to bracket the maximum."""
    return _largest_family(n, "la_star", _pattern_free, patterns, node_budget)


def la_rainbow_star(n: int, pattern: Poset) -> LaResult:
    """Exact maximum size of a family whose containment order does not
    rainbow-force the pattern, with the witness and a proper refuting
    coloring of it; n <= 4. A subfamily of a refutable family is refutable,
    so `la_star`'s include-first search applies."""
    res = _largest_family(n, "la_rainbow_star", _refutable, pattern)
    verdict = rainbow_forces(family_poset(res.witness), pattern, None)
    if verdict.forces:
        raise AssertionError("the refutable witness has no refuting coloring")
    return res._replace(coloring=verdict.refutation)


def middle_layers(n: int, k: int, include_extremes: bool = False) -> SetFamily:
    """The k largest layers of the cube; optionally with the empty set and
    the full set added."""
    if not 1 <= k <= n + 1:
        raise CapExceeded("layer count must be within 1..n+1")
    base = (n - k) // 2
    wanted = set(range(base + 1, base + k + 1))
    masks = [m for m in range(1 << n) if m.bit_count() in wanted]
    if include_extremes:
        masks.extend((0, (1 << n) - 1))
    return SetFamily.from_masks(n, masks)


def rainbow_free_layer_check(
    n: int, k: int, pattern: Poset, include_extremes: bool = False
) -> bool:
    """True iff coloring the chosen layers by set size admits no rainbow
    induced copy of the pattern."""
    fam = middle_layers(n, k, include_extremes)
    coloring = Coloring.from_values([m.bit_count() for m in fam.sets])
    p = family_poset(fam)
    if not is_proper(p, coloring):
        raise AssertionError("size coloring must be proper")
    return not has_rainbow_copy(p, coloring, pattern)


# --- pattern-free exploration --------------------------------------------------


def max_mass_pattern_free_with_extremes(n: int, pattern: Poset):
    """Exact maximum Lubell mass over families that contain the empty and
    full sets and avoid induced copies of the pattern; exhaustive branch
    and bound over the remaining masks. Returns (mass, witness)."""
    _check_ground_set(n, "mass maximization")
    total = 1 << n
    # Masses scaled by the lcm of the binomials of order n are integers.
    scale = lcm(*(comb(n, k) for k in range(n + 1)))
    weights = [scale // comb(n, m.bit_count()) for m in range(total)]
    best, weight, _ = _branch_and_bound(
        range(1, total - 1),
        weights,
        1 | 1 << (total - 1),
        _pattern_free(n, [pattern]),
    )
    return Fraction(weight, scale), SetFamily.from_masks(n, _bits(best))


def greedy_pattern_free_family(n: int, pattern: Poset, rng) -> SetFamily:
    """Random-insertion-order maximal pattern-free family. A heuristic
    explorer for mass bounds at sizes beyond the exhaustive cap."""
    admits = _pattern_free(n, [pattern])
    order = list(range(1 << n))
    rng.shuffle(order)
    fam = 0
    for mask in order:
        if admits(fam | 1 << mask, mask):
            fam |= 1 << mask
    return SetFamily.from_masks(n, _bits(fam))


def iter_antichain_families(n: int):
    """All antichain families of the cube (including the empty family), in
    ascending order of their down-closures: an antichain is the set of
    maximal sets of exactly one order ideal of the containment order."""
    up, down = _cube_rows(n)
    return [
        SetFamily.from_masks(n, [m for m in _bits(ideal) if not up[m] & ideal])
        for ideal in order_ideals(Poset._with_rows(up, down))
    ]


# --- text format ----------------------------------------------------------------


def family_to_text(f: SetFamily) -> str:
    lines = [f"family n={f.n}"]
    for m in f.sets:
        if m == 0:
            lines.append("{}")
        else:
            lines.append(",".join(str(e + 1) for e in range(f.n) if m >> e & 1))
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> SetFamily:
    n = None
    masks = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split()[0] == "family":
            n = _read_header(line, "family", n)
            continue
        if line == "{}":
            masks.append(0)
            continue
        what = f"family text line {number}: element"
        elements = [_number(part, what) for part in line.split(",")]
        if None in elements:
            raise BadParams(
                f"family text line {number}: {line!r} is not a set '1,2,...' or '{{}}'"
            )
        mask = 0
        for e in elements:
            if n is None or not 1 <= e <= n:
                raise BadParams(f"family text line {number}: element {e} outside the ground set")
            mask |= 1 << (e - 1)
        masks.append(mask)
    if n is None:
        raise BadParams("missing family header")
    return SetFamily.from_masks(n, masks)
