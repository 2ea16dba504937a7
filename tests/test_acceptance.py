"""Acceptance suite: every verifiable desk-scale claim at full scope, one
test per criterion, each with its runtime ceiling.

Known honest failure: criterion 4 (organ-variant deletions). The deletion
of the long-chain top still forces the 4-antichain under the construction
as written; the exhaustive search (cross-checked by a prune-free
enumeration) proves no refuting coloring exists. See the deletion check's
docstring for the boundary analysis pointer.
"""

import time

import pytest

from rainbowposet import verify


def run_timed(fn, cap_seconds):
    start = time.monotonic()
    passed, detail = fn(quick=False)
    elapsed = time.monotonic() - start
    assert elapsed <= cap_seconds, f"exceeded {cap_seconds}s cap: {elapsed:.1f}s"
    assert passed, detail
    return detail


def test_criterion_01_enumeration_counts():
    detail = run_timed(verify.check_enumeration_counts, 60)
    assert "(1, 2, 5, 16, 63, 318, 2045)" in detail


def test_criterion_02_forcing_size_window():
    run_timed(verify.check_forcing_size_window, 600)


def test_criterion_03_small_minimal_forcers():
    run_timed(verify.check_small_minimal_forcers, 1800)


def test_criterion_04_organ_variant_deletions():
    # per-call budgets are enforced inside the forcing searches (15 min)
    start = time.monotonic()
    passed, detail = verify.check_organ_variant_deletions(quick=False)
    elapsed = time.monotonic() - start
    assert elapsed <= 13 * 900, f"exceeded the summed per-call budget: {elapsed:.1f}s"
    assert passed, detail


def test_criterion_04_reports_its_known_failure_exactly():
    # the one deletion that still forces, and the 11 refutations that
    # rainbow_forces re-verified, named in the check's fixed wording
    passed, detail = verify.check_organ_variant_deletions(quick=False)
    assert not passed
    assert detail == (
        "forcing holds, but deletions [\"t'_3\"] still force; "
        "11/12 deletions refuted and re-verified"
    )


def test_criterion_05_blowup_forcing():
    run_timed(verify.check_blowup_forcing, 600)


def test_criterion_06_linear_sum_minimality():
    run_timed(verify.check_linear_sum_minimality, 300)


def test_criterion_07_tree_embeddings():
    detail = run_timed(verify.check_tree_embeddings, 1200)
    assert "10000 fuzz seeds" in detail


def test_criterion_08_antichain_mass_bound():
    run_timed(verify.check_antichain_mass_bound, 1)


def test_criterion_09_h2free_mass_maximum():
    detail = run_timed(verify.check_h2free_mass_maximum, 900)
    assert "19/6" in detail


def test_criterion_10_rainbow_vs_plain_extremal():
    run_timed(verify.check_rainbow_vs_plain_extremal, 1200)


def test_criterion_11_chain_average_identity():
    run_timed(verify.check_chain_average_identity, 60)


def test_criterion_12_layer_family_constructions():
    run_timed(verify.check_layer_family_constructions, 600)


def test_documented_boundary_behavior():
    """The facts behind the criterion-4 failure, each independently checked:
    the 12-element variant forces, eleven deletions are refutable, the
    long-chain-top deletion provably is not (prune-free exhaustion), and
    the next-size variant refutes the analogous deletion as published."""
    from rainbowposet import (
        antichain,
        has_rainbow_copy,
        o_jk,
        proper_colorings,
        rainbow_forces,
    )

    host = o_jk(2, 4)
    a4 = antichain(4)
    assert rainbow_forces(host, a4).forces
    top = host.labels.index("t'_3")
    refutable = [
        x for x in range(host.n) if not rainbow_forces(host.delete(x), a4).forces
    ]
    assert sorted(refutable + [top]) == list(range(host.n))
    # prune-free exhaustion over all canonical proper colorings
    deleted = host.delete(top)
    assert all(has_rainbow_copy(deleted, c, a4) for c in proper_colorings(deleted))
    # one size up, the analogous deletion refutes as published
    host5 = o_jk(2, 5)
    top5 = host5.labels.index("t'_4")
    assert not rainbow_forces(host5.delete(top5), antichain(5)).forces
