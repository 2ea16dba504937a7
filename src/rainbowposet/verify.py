"""Verification suite: every desk-scale claim the toolkit certifies, as
named checks runnable from the CLI and mirrored by the acceptance tests.

Check names describe what is verified. The quick tier trims search depth
(poset size 6, reduced sampling); the full tier runs everything at the
acceptance scope.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction
from itertools import permutations
from math import comb
from typing import NamedTuple

from . import (
    a3_witness,
    antichain,
    are_isomorphic,
    blowup,
    canonical_key,
    chain,
    complete_multilevel,
    diamond,
    embed_universal,
    downtree_fuzz_case,
    greedy_pattern_free_family,
    harp,
    is_minimal_forcing,
    is_tree_poset,
    iter_antichain_families,
    jay,
    la_rainbow_star,
    la_star,
    lubell_mass,
    m_value,
    max_mass_pattern_free_with_extremes,
    minmax_partition,
    o_jk,
    organ,
    perp_value,
    posets_by_relation_filter,
    posets_by_triangular_filter,
    posets_of_size,
    proper_colorings,
    rainbow_forces,
    rainbow_free_layer_check,
    random_proper_coloring,
    search_M,
    sigma,
    universal_tree,
    vee,
    verify_linear_sum_closure,
)
from .families import SetFamily


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float


# Items per chunk. Chunks are dealt out in turn, so small ones spread the
# costly items evenly over the workers.
_SWEEP_CHUNK = 4


def _sweep(fn, items):
    """``[fn(x) for x in items]``: the same values in the same order, computed
    on every CPU in this process's affinity mask.

    With w workers (this process and one forked child per extra CPU),
    worker j computes chunks j, j + w, j + 2w, ... in order, so which items
    run in which process, and what this process allocates, does not depend
    on timing. Children send their results back over a pipe, and the
    results are merged in index order. ``fn`` and ``items`` are inherited
    through fork, so closures work; only results and exceptions are
    pickled. Where the affinity mask or fork is unavailable, no child is
    started and the same loop runs in this process.

    If ``fn`` raises, the sweep raises the exception of the lowest failing
    index, the one the serial loop would raise. A child that ends without
    reporting makes the sweep raise. No child outlives the call.
    """
    import multiprocessing  # not at module level: it would slow every import

    items = list(items)
    try:
        ctx = multiprocessing.get_context("fork")
        workers = len(os.sched_getaffinity(0))
    except (AttributeError, ValueError):  # no affinity mask or no fork here
        ctx, workers = multiprocessing, 1

    def work(j):
        done = []
        for start in range(j * _SWEEP_CHUNK, len(items), workers * _SWEEP_CHUNK):
            chunk = []
            for i in range(start, min(start + _SWEEP_CHUNK, len(items))):
                try:
                    chunk.append(fn(items[i]))
                except Exception as exc:
                    return done, (i, exc)
            done.append((start, chunk))
        return done, None

    def child(j, conn):
        conn.send(work(j))

    procs, conns = [], []
    try:
        for j in range(1, workers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=child, args=(j, writer))
            proc.start()
            writer.close()  # so that a child that dies leaves EOF behind
            procs.append(proc)
            conns.append(reader)
        reports = [work(0)]
        for conn in conns:
            try:
                reports.append(conn.recv())
            except EOFError:
                raise RuntimeError("a sweep worker ended without reporting") from None
    finally:  # also after an error or an interrupt in this process
        for proc in procs:
            proc.terminate()  # a child that has reported has nothing left to do
            proc.join()
        for conn in conns:
            conn.close()
    failures = [failure for _, failure in reports if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for done, _ in reports:
        for start, chunk in done:
            results[start:start + len(chunk)] = chunk
    return results


EXPECTED_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


def check_enumeration_counts(quick: bool = False) -> tuple[bool, str]:
    """Catalog sizes for 1..7 elements, cross-checked by an independent
    second (and, for tiny sizes, third) generation method."""
    top = 6 if quick else 7
    counts = {n: len(posets_of_size(n)) for n in range(1, top + 1)}
    for n, want in EXPECTED_COUNTS.items():
        if n <= top and counts[n] != want:
            return False, f"count at size {n}: got {counts[n]}, want {want}"
    for n in range(1, 6):
        a = sorted(canonical_key(p) for p in posets_of_size(n))
        if a != posets_by_triangular_filter(n):
            return False, f"triangular-filter method disagrees at size {n}"
        if n <= 4 and a != posets_by_relation_filter(n):
            return False, f"relation-filter method disagrees at size {n}"
    return True, f"counts {tuple(counts.values())}, methods agree through size 5"


def check_forcing_size_window(quick: bool = False) -> tuple[bool, str]:
    """For every pattern on up to 4 elements the minimum forcing size sits
    between |P| and the blow-up size (itself at most C(|P|+1,2)); chains hit
    the floor exactly and the 2- and 3-antichains hit their known values."""
    cap = 6 if quick else 7
    checked = 0
    for n in range(1, 5):
        for p in posets_of_size(n):
            mv = m_value(p, cap=cap)
            pv = perp_value(p)
            if pv > comb(n + 1, 2):
                return False, f"perp above the binomial ceiling at size {n}"
            if mv.lower < n or mv.upper > pv:
                return False, f"window violated for a size-{n} pattern: {mv}"
            if are_isomorphic(p, chain(n)) and mv.value != n:
                return False, f"chain on {n} should have minimum forcing size {n}"
            checked += 1
    if m_value(antichain(2), cap=cap).value != 3:
        return False, "2-antichain minimum forcing size is not 3"
    if m_value(antichain(3), cap=cap).value != 6:
        return False, "3-antichain minimum forcing size is not 6"
    return True, f"{checked} patterns inside the window; antichain values exact"


def check_small_minimal_forcers(quick: bool = False) -> tuple[bool, str]:
    """Within size 6 the minimal forcers of the 2-antichain, the vee and the
    diamond are unique; small organs and the seven-element witness minimally
    force their antichains."""
    for pattern, expected, label in (
        (antichain(2), organ(2), "2-antichain"),
        (vee(), jay(), "vee"),
        (diamond(), harp(2), "diamond"),
    ):
        found = search_M(pattern, 6)
        if len(found) != 1 or not are_isomorphic(found[0], expected):
            return False, f"minimal forcers of {label} within size 6: got {len(found)}"
    for k in (1, 2, 3):
        if not is_minimal_forcing(organ(k), antichain(k)):
            return False, f"organ({k}) does not minimally force the {k}-antichain"
    if not is_minimal_forcing(a3_witness(), antichain(3)):
        return False, "7-element witness does not minimally force the 3-antichain"
    return True, "unique small forcers confirmed; organs and witness minimal"


def check_organ_variant_deletions(quick: bool = False) -> tuple[bool, str]:
    """The 12-element organ variant forces the 4-antichain and every
    single-element deletion should admit a refuting coloring, which
    `rainbow_forces` re-verifies before it returns it.

    Known honest failure: the deletion of the top of the long chain still
    forces; the published deletion argument degenerates at these boundary
    parameters (see the repository notes). The check reports the facts."""
    host = o_jk(2, 4)
    a4 = antichain(4)
    if not rainbow_forces(host, a4).forces:
        return False, "the 12-element organ variant does not force the 4-antichain"
    failures = [x for x in range(host.n) if rainbow_forces(host.delete(x), a4).forces]
    if failures:
        labels = [host.labels[x] if host.labels else str(x) for x in failures]
        return False, (
            f"forcing holds, but deletions {labels} still force; "
            f"{host.n - len(failures)}/{host.n} deletions refuted and re-verified"
        )
    return True, "forcing holds and all 12 deletions refuted and re-verified"


def check_blowup_forcing(quick: bool = False) -> tuple[bool, str]:
    """Every blow-up of a pattern on up to 4 elements forces the pattern,
    for every insertion order; blow-up size always equals the
    incomparability count formula (patterns up to 5 elements)."""
    top = 3 if quick else 4
    runs = 0
    for n in range(1, top + 1):
        for p in posets_of_size(n):
            for pi in permutations(range(n)):
                if not rainbow_forces(blowup(p, pi), p).forces:
                    return False, f"blow-up of a size-{n} pattern fails to force"
                runs += 1
    size_top = 4 if quick else 5
    for n in range(1, size_top + 1):
        for p in posets_of_size(n):
            pv = perp_value(p)
            for pi in permutations(range(n)):
                if blowup(p, pi).n != pv:
                    return False, f"blow-up size mismatch at a size-{n} pattern"
    return True, f"{runs} blow-up forcing runs, all sizes match the formula"


def check_linear_sum_minimality(quick: bool = False) -> tuple[bool, str]:
    """Linear-sum closure of minimal forcing on three instances: the
    4-element forcer of the vee, the harp for the diamond, and the stacked
    organ pair for the 2x2 complete bipartite pattern."""
    cases = (
        (chain(1), chain(1), organ(2), antichain(2), "vee from its parts"),
        (jay(), vee(), chain(1), chain(1), "diamond from the vee forcer"),
        (organ(2), antichain(2), organ(2), antichain(2), "2x2 bipartite"),
    )
    for q1, p1, q2, p2, label in cases:
        if not verify_linear_sum_closure(q1, p1, q2, p2):
            return False, f"linear-sum closure failed: {label}"
    return True, "all three linear-sum instances minimally force"


def _tree_posets_on(count: int):
    return [p for p in posets_of_size(count) if is_tree_poset(p)]


def check_tree_embeddings(quick: bool = False) -> tuple[bool, str]:
    """Universal-tree embeddings with verified certificates: exhaustive over
    all proper colorings of the order-2 host, sampled colorings of the
    order-3 host, plus the seeded downtree-embedder fuzz with its
    per-certificate rank-slack guarantees."""
    u2 = universal_tree(2)
    trees2 = _tree_posets_on(2)
    exhaustive = 0
    for coloring in proper_colorings(u2.poset):
        for t in trees2:
            embed_universal(t, u2, coloring)  # verifies internally
        exhaustive += 1
    u3 = universal_tree(3)
    trees3 = _tree_posets_on(3)
    sample_count = 100 if quick else 1000

    def sample(i):
        coloring = random_proper_coloring(u3.poset, random.Random(f"t3-{i}"))
        for t in trees3:
            embed_universal(t, u3, coloring)

    _sweep(sample, range(sample_count))
    seeds = 1000 if quick else 10_000
    ks = {}
    for stats in _sweep(downtree_fuzz_case, range(seeds)):
        ks[stats["k"]] = ks.get(stats["k"], 0) + 1
    return True, (
        f"{exhaustive} exhaustive colorings at order 2, {sample_count} sampled "
        f"at order 3, {seeds} fuzz seeds (hosts per arity: {dict(sorted(ks.items()))})"
    )


def check_antichain_mass_bound(quick: bool = False) -> tuple[bool, str]:
    """All antichain families of the 4-cube have mass at most 1, with
    equality exactly at the 5 full layers."""
    fams = iter_antichain_families(4)
    if len(fams) != 168:
        return False, f"expected 168 antichain families, found {len(fams)}"
    tight = []
    for f in fams:
        mass = lubell_mass(f)
        if mass > 1:
            return False, f"antichain of mass {mass} found"
        if mass == 1:
            tight.append(f)
    layers = {
        tuple(sorted(m for m in range(16) if m.bit_count() == s)) for s in range(5)
    }
    if {f.sets for f in tight} != layers:
        return False, "mass-1 antichains are not exactly the full layers"
    return True, "168 antichains, mass at most 1, equality on the 5 layers"


def check_h2free_mass_maximum(quick: bool = False) -> tuple[bool, str]:
    """Exact mass maximum 19/6 over harp-free families of the 4-cube holding
    both extremes, and sampled harp-free families at ground sizes 5..8 never
    beat it."""
    bound = Fraction(19, 6)
    h2 = harp(2)
    best, witness = max_mass_pattern_free_with_extremes(4, h2)
    if best != bound:
        return False, f"exhaustive maximum is {best}, want {bound}"
    samples = 1000 if quick else 10_000
    seeds = [(n, i) for n in range(5, 9) for i in range(samples)]

    def sample_mass(seed):
        n, i = seed
        return lubell_mass(greedy_pattern_free_family(n, h2, random.Random(f"h2-{n}-{i}")))

    worst = Fraction(0)
    for (n, _), mass in zip(seeds, _sweep(sample_mass, seeds)):
        worst = max(worst, mass)
        if mass > bound:
            return False, f"sampled harp-free family at n={n} has mass {mass}"
    return True, (
        f"exhaustive maximum 19/6 (witness {witness.members()}); "
        f"{4 * samples} samples peak at {worst}"
    )


def check_rainbow_vs_plain_extremal(quick: bool = False) -> tuple[bool, str]:
    """The rainbow extremal number equals the plain extremal number of the
    minimal-forcer list for the 2-antichain and the vee at ground sizes 3
    and 4; the 4-cube value for the 2-antichain is exactly sigma(4,1)+2."""
    values = {}
    for pattern, label in ((antichain(2), "2-antichain"), (vee(), "vee")):
        forcers = search_M(pattern, 6)
        for n in (3, 4):
            rainbow = la_rainbow_star(n, pattern)
            plain = la_star(n, forcers)
            if rainbow.value != plain.value:
                return False, (
                    f"{label} at n={n}: rainbow {rainbow.value} != plain {plain.value}"
                )
            values[label, n] = rainbow.value
    if values["2-antichain", 4] != sigma(4, 1) + 2:
        return False, "4-cube rainbow value for the 2-antichain is not sigma(4,1)+2"
    return True, "rainbow and plain extremal values agree; 4-cube value is 8"


def check_chain_average_identity(quick: bool = False) -> tuple[bool, str]:
    """Mass equals the all-chains average intersection, exactly in rational
    arithmetic, on 100 random families of the 5-cube; antichains meet every
    chain at most once."""
    rng = random.Random("minmax")
    for i in range(100):
        masks = rng.sample(range(32), rng.randrange(0, 14))
        fam = SetFamily.from_masks(5, masks)
        rep = minmax_partition(fam)
        if not rep.identity_holds:
            return False, f"identity failed on sample {i}"
    for f in iter_antichain_families(3):
        rep = minmax_partition(f)
        if rep.classes:
            return False, "an antichain produced a two-hit chain class"
    return True, "identity exact on 100 samples; antichains stay in the leftover class"


def check_layer_family_constructions(quick: bool = False) -> tuple[bool, str]:
    """Size-colored layer families admit no rainbow copies: two middle
    layers of the 6-cube plus both extremes against the 3-antichain, and
    four middle layers against the 2x2 complete bipartite pattern."""
    if not rainbow_free_layer_check(6, 2, antichain(3), include_extremes=True):
        return False, "3-antichain appears rainbow in the extended two-layer family"
    if not rainbow_free_layer_check(6, 4, complete_multilevel([2, 2])):
        return False, "2x2 pattern appears rainbow in the four-layer family"
    return True, "both layer constructions are rainbow-free under size coloring"


CHECKS = (
    ("enumeration-counts", "quick", check_enumeration_counts),
    ("forcing-size-window", "quick", check_forcing_size_window),
    ("small-minimal-forcers", "quick", check_small_minimal_forcers),
    ("organ-variant-deletions", "full", check_organ_variant_deletions),
    ("blowup-forcing", "quick", check_blowup_forcing),
    ("linear-sum-minimality", "quick", check_linear_sum_minimality),
    ("tree-embeddings", "quick", check_tree_embeddings),
    ("antichain-mass-bound", "quick", check_antichain_mass_bound),
    ("h2free-mass-maximum", "quick", check_h2free_mass_maximum),
    ("rainbow-vs-plain-extremal", "quick", check_rainbow_vs_plain_extremal),
    ("chain-average-identity", "quick", check_chain_average_identity),
    ("layer-family-constructions", "quick", check_layer_family_constructions),
)


def run_suite(full: bool = False):
    """Run the registered checks. With full=False, full-tier checks are
    skipped and quick-tier checks run at reduced scope."""
    results = []
    for name, tier, fn in CHECKS:
        if tier == "full" and not full:
            continue
        start = time.monotonic()
        try:
            passed, detail = fn(quick=not full)
        except Exception as exc:  # a crash is a failed check, not a crash of the suite
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            CheckResult(name=name, passed=passed, detail=detail,
                        seconds=time.monotonic() - start)
        )
    return results
