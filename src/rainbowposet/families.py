"""Set families in the Boolean lattice: Lubell mass, Sperner checks,
chain statistics, and exact extremal values at tiny ground-set sizes.

Masses are exact rationals throughout; floating point never reaches an
assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb
from typing import Optional

from ._copies import exists_copy, plan_for
from .errors import BadParams, CapExceeded, PreconditionViolated
from .forcing import Coloring, has_rainbow_copy, refuting_coloring, is_proper
from .poset import Poset, _bits

LA_STAR_CAP = 4
MINMAX_CAP = 8


@dataclass(frozen=True)
class SetFamily:
    """Distinct subsets of [n], each a bitmask over ground elements 1..n."""

    n: int
    sets: tuple

    def __post_init__(self):
        if any(m >> self.n for m in self.sets):
            raise BadParams("set mask outside the ground set")
        if list(self.sets) != sorted(set(self.sets)):
            raise BadParams("sets must be sorted and distinct")

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
    """Containment order on the family's sets (bridge to the forcing module)."""
    rows = []
    for a in f.sets:
        row = 0
        for j, b in enumerate(f.sets):
            if a != b and a & b == a:
                row |= 1 << j
        rows.append(row)
    return Poset(rows, validate=False)


def lubell_mass(f: SetFamily) -> Fraction:
    return sum(
        (Fraction(1, comb(f.n, m.bit_count())) for m in f.sets), Fraction(0)
    )


def sigma(n: int, k: int) -> int:
    """Sum of the k largest binomial coefficients of order n."""
    if not 0 <= k <= n + 1:
        raise BadParams("sigma needs 0 <= k <= n+1")
    base = (n - k) // 2
    return sum(comb(n, base + i) for i in range(1, k + 1))


def family_height(f: SetFamily) -> int:
    """Longest chain of nested sets in the family."""
    if not f.sets:
        return 0
    order = sorted(range(len(f.sets)), key=lambda i: f.sets[i].bit_count())
    best = [1] * len(f.sets)
    for pos, i in enumerate(order):
        for j in order[:pos]:
            if f.sets[j] != f.sets[i] and f.sets[j] & f.sets[i] == f.sets[j]:
                best[i] = max(best[i], best[j] + 1)
    return max(best)


def is_k_sperner(f: SetFamily, k: int) -> bool:
    return family_height(f) <= k


def check_klym(f: SetFamily, k: int) -> bool:
    """Mass bound for chain-free families: vacuously true unless k-Sperner,
    in which case the Lubell mass must not exceed k."""
    if not is_k_sperner(f, k):
        return True
    return lubell_mass(f) <= k


def check_lubm(f: SetFamily) -> bool:
    """Size is at most mass times the largest binomial coefficient."""
    return len(f.sets) <= lubell_mass(f) * comb(f.n, f.n // 2)


def check_stab(f: SetFamily, k: int, i: int) -> bool:
    """Stability form of the k-Sperner size bound for families holding a
    small set; exact rational comparison."""
    if not is_k_sperner(f, k):
        raise PreconditionViolated("family is not k-Sperner")
    if not any(m.bit_count() == i for m in f.sets):
        raise PreconditionViolated(f"family holds no set of size {i}")
    if not i < f.n / 2:
        raise PreconditionViolated("stability check needs i < n/2")
    n = f.n
    bound = sigma(n, k) - Fraction(comb(n, (n - k) // 2), comb(n, i)) + 1
    return len(f.sets) <= bound


def _o2_pattern() -> Poset:
    from .constructions import organ

    return organ(2)


def is_complete_multipartite(f: SetFamily) -> bool:
    """True iff the containment order has no induced one-chain-plus-one-point
    configuration; cross-checked against direct level-structure detection."""
    p = family_poset(f)
    plan = plan_for(_o2_pattern())
    free = not exists_copy(p._up, p._down, p.n, plan)
    if free != _is_complete_multipartite_structure(p):
        raise AssertionError("multipartite detections disagree")
    return free


def _is_complete_multipartite_structure(p: Poset) -> bool:
    remaining = list(range(p.n))
    while remaining:
        mins = [x for x in remaining if not any(p.less(y, x) for y in remaining)]
        rest = [x for x in remaining if x not in mins]
        for x in mins:
            for y in rest:
                if not p.less(x, y):
                    return False
        remaining = rest
    return True


# --- maximal chains -----------------------------------------------------------


@dataclass(frozen=True)
class MinMaxReport:
    """Min-max classification of all maximal chains of the cube.

    Chains meeting the family in at least two sets are grouped by the
    (smallest, largest) member met; the rest fall into the leftover class.
    The chain-average identity ties the Lubell mass to these statistics.
    """

    n: int
    classes: dict  # (min_mask, max_mask) -> (chain count, total hits)
    leftover_count: int
    leftover_hits: int
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
    leftover = [0, 0]
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
            leftover[0] += 1
            leftover[1] += len(met)
    nfact = 1
    for i in range(2, n + 1):
        nfact *= i
    return MinMaxReport(
        n=n,
        classes=classes,
        leftover_count=leftover[0],
        leftover_hits=leftover[1],
        mass=lubell_mass(f),
        average=Fraction(total_hits, nfact),
    )


# --- extremal searches ---------------------------------------------------------


@dataclass(frozen=True)
class LaResult:
    value: int
    witness: SetFamily
    coloring: Optional[Coloring] = None


@lru_cache(maxsize=16)
def _cube_rows(n):
    """Containment bit rows of the whole n-cube, indexed by mask: up[a] holds
    the strict supersets of a and down[a] its strict subsets. The family
    searches pass a family to the copy kernel as an `active` mask over these
    rows."""
    total = 1 << n
    up = [0] * total
    down = [0] * total
    for a in range(total):
        for b in range(a + 1, total):
            if a & b == a:
                up[a] |= 1 << b
                down[b] |= 1 << a
    return tuple(up), tuple(down)


def _pattern_free_search(n, patterns, node_budget):
    """Include-first branch and bound over the masks of the n-cube in
    increasing order, keeping the first largest family that avoids induced
    copies of every pattern. Each node visited spends one unit of
    `node_budget`; once it is spent, the remaining branches are cut. Returns
    the best family mask and the largest size a cut branch could still
    reach (0 if none was cut)."""
    plans = [plan_for(p) for p in patterns]
    total = 1 << n
    up, down = _cube_rows(n)
    best_size = 0
    best = 0
    budget = node_budget
    cut = 0

    def rec(next_mask, fam):
        nonlocal best_size, best, budget, cut
        size = fam.bit_count()
        if budget <= 0:
            cut = max(cut, size + (total - next_mask))
            return
        budget -= 1
        if size > best_size:
            best_size = size
            best = fam
        if next_mask == total:
            return
        if size + (total - next_mask) <= best_size:
            return
        grown = fam | 1 << next_mask
        if not any(
            exists_copy(up, down, total, pl, active=grown, anchor=next_mask)
            for pl in plans
        ):
            rec(next_mask + 1, grown)
        rec(next_mask + 1, fam)

    rec(0, 0)
    return best, cut


def la_star(n: int, patterns) -> LaResult:
    """Exact maximum size of a family avoiding induced copies of every
    pattern, with the lexicographically least witness. Exhaustive over all
    families of the cube; n <= 4."""
    if n > LA_STAR_CAP:
        raise CapExceeded(f"exhaustive la_star is limited to n <= {LA_STAR_CAP}")
    best, _ = _pattern_free_search(n, patterns, float("inf"))
    return LaResult(value=best.bit_count(), witness=SetFamily.from_masks(n, _bits(best)))


def la_rainbow_star(n: int, pattern: Poset, budget_s=None) -> LaResult:
    """Exact maximum size of a family whose containment order does not
    rainbow-force the pattern, plus the witness family and a proper
    refuting coloring of it. Exhaustive over all 2^(2^n) families; n <= 4.

    Forcing is monotone under adding sets, so a subset-lattice sweep marks
    each family forcing as soon as any one-set-smaller subfamily forces;
    the coloring search runs only on subset-minimal candidates.
    """
    if n > LA_STAR_CAP:
        raise CapExceeded(f"exhaustive la_rainbow_star is limited to n <= {LA_STAR_CAP}")
    total = 1 << n
    forces = bytearray(1 << total)
    best_size = 0
    best_masks = 0  # the empty family never forces
    from .poset import rank_partition

    for fam in range(1, 1 << total):
        rest = fam
        forced = False
        while rest:
            low = rest & -rest
            rest ^= low
            if forces[fam ^ low]:
                forced = True
                break
        if not forced:
            masks = []
            g = fam
            while g:
                low = g & -g
                masks.append(low.bit_length() - 1)
                g ^= low
            f = SetFamily.from_masks(n, masks)
            p = family_poset(f)
            layer = Coloring.from_values(rank_partition(p).rank)
            if has_rainbow_copy(p, layer, pattern):
                forced = refuting_coloring(p, pattern, budget_s) is None
        forces[fam] = forced
        if not forced:
            size = fam.bit_count()
            if size > best_size:
                best_size = size
                best_masks = fam
    masks = tuple(i for i in range(total) if best_masks >> i & 1)
    witness = SetFamily.from_masks(n, masks)
    coloring = refuting_coloring(family_poset(witness), pattern, budget_s)
    assert coloring is not None
    return LaResult(value=best_size, witness=witness, coloring=coloring)


def la_star_bracket(n: int, patterns, node_budget: int = 500_000):
    """Best-effort bracketing of the pattern-free maximum for ground sets
    one past the exhaustive cap: a budgeted include-first search returns
    (lower, upper); the bounds coincide when the budget sufficed."""
    if n > LA_STAR_CAP + 1:
        raise CapExceeded("bracket mode reaches one past the exhaustive cap")
    best, cut = _pattern_free_search(n, patterns, node_budget)
    lower = best.bit_count()
    return lower, max(lower, cut)


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
    if n > 4:
        raise CapExceeded("exhaustive mass maximization is limited to n <= 4")
    plan = plan_for(pattern)
    total = 1 << n
    up, down = _cube_rows(n)
    middles = list(range(1, total - 1))
    weights = [Fraction(1, comb(n, m.bit_count())) for m in middles]
    suffix = [Fraction(0)] * (len(middles) + 1)
    for i in range(len(middles) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]
    extremes = 1 | 1 << (total - 1)
    best = [Fraction(0), extremes]

    def rec(i, fam, mass):
        if mass > best[0]:
            best[0] = mass
            best[1] = fam
        if i == len(middles) or mass + suffix[i] <= best[0]:
            return
        grown = fam | 1 << middles[i]
        if not exists_copy(up, down, total, plan, active=grown, anchor=middles[i]):
            rec(i + 1, grown, mass + weights[i])
        rec(i + 1, fam, mass)

    rec(0, extremes, Fraction(2))
    return best[0], SetFamily.from_masks(n, _bits(best[1]))


def greedy_pattern_free_family(n: int, pattern: Poset, rng) -> SetFamily:
    """Random-insertion-order maximal pattern-free family. A heuristic
    explorer for mass bounds at sizes beyond the exhaustive cap."""
    plan = plan_for(pattern)
    total = 1 << n
    up, down = _cube_rows(n)
    order = list(range(total))
    rng.shuffle(order)
    fam = 0
    for mask in order:
        fam |= 1 << mask
        if exists_copy(up, down, total, plan, active=fam, anchor=mask):
            fam ^= 1 << mask
    return SetFamily.from_masks(n, _bits(fam))


def iter_antichain_families(n: int):
    """All antichain families of the cube (including the empty family)."""
    masks = list(range(1 << n))
    out = []

    def rec(i, chosen):
        if i == len(masks):
            out.append(tuple(chosen))
            return
        m = masks[i]
        if all(m & b != m and m & b != b for b in chosen):
            chosen.append(m)
            rec(i + 1, chosen)
            chosen.pop()
        rec(i + 1, chosen)

    rec(0, [])
    return [SetFamily.from_masks(n, c) for c in out]


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
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("family"):
            if n is not None:
                raise BadParams("more than one family header in input")
            fields = dict(kv.split("=", 1) for kv in line.split()[1:] if "=" in kv)
            if "n" not in fields:
                raise BadParams("family header is missing n=<count>")
            if not fields["n"].isdecimal():
                raise BadParams(f"family header n={fields['n']} is not a count")
            n = int(fields["n"])
            continue
        if line == "{}":
            masks.append(0)
            continue
        mask = 0
        for part in line.split(","):
            e = int(part)
            if n is None or not 1 <= e <= n:
                raise BadParams(f"element {part} outside the ground set")
            mask |= 1 << (e - 1)
        masks.append(mask)
    if n is None:
        raise BadParams("missing family header")
    return SetFamily.from_masks(n, masks)
