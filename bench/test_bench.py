"""Tests of the benchmark itself (not collected by the package's test run).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402


def test_self_time_on_a_nested_span_tree():
    # f(0..10) calls g(1..5), which calls h(2..4), then g again (6..9).
    ticks = iter([0, 1, 2, 4, 5, 6, 9, 10])
    t = tracer.Tracer(clock=lambda: next(ticks))
    h = t.wrap("h", lambda: None)
    g = t.wrap("g", lambda inner: inner and inner())
    f = t.wrap("f", lambda: (g(h), g(None)))
    f()
    assert t.stats == {
        "h": [1, 2, 2],
        "g": [2, (4 - 2) + 3, 4 + 3],
        "f": [1, 10 - (4 + 3), 10],
    }
    assert sum(stat[1] for stat in t.stats.values()) == 10
    assert t.stack == [[10]]


def test_self_time_survives_an_exception():
    ticks = iter([0, 1, 3, 7])
    t = tracer.Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError

    inner = t.wrap("inner", boom)

    def outer_body():
        try:
            inner()
        except ValueError:
            pass

    t.wrap("outer", outer_body)()
    assert t.stats == {"inner": [1, 2, 2], "outer": [1, 5, 7]}


def test_end_to_end_rescales_rounds_to_the_reference_speed():
    # The second round does the same work on a host at half speed.
    ref, slow = speed.REFERENCE_S, 2 * speed.REFERENCE_S
    rounds = [
        {"latencies_ms": [10.0, 30.0], "reference_s": [ref, ref], "peak_rss_mb": 5.0},
        {"latencies_ms": [20.0, 60.0], "reference_s": [slow], "peak_rss_mb": 7.0},
        {"latencies_ms": [12.0, 30.0], "reference_s": [ref], "peak_rss_mb": 6.0},
    ]
    setups = [{"setup_s": 0.4, "setup_reference_s": [slow, slow]}]
    values, samples = run.end_to_end(rounds, setups)
    assert samples == 2
    assert values == {
        "wall_s": (10.0 + 30.0) / 1e3,  # each call at its median over the rounds
        "setup_s": 0.2,
        "peak_rss_mb": 6.0,
        "case_p50_ms": 10.0,
        "case_p99_ms": 30.0,
    }


def test_install_wraps_every_binding():
    code = (
        "import rainbowposet, rainbowposet.cli, rainbowposet.verify as v, "
        "rainbowposet.forcing as f, tracer\n"
        "t = tracer.Tracer()\n"
        "functions, bindings = tracer.install(t)\n"
        "assert bindings > functions > 30, (functions, bindings)\n"
        "assert f.exists_copy is rainbowposet._copies.exists_copy\n"
        "assert hasattr(f.exists_copy, '__wrapped__')\n"
        "assert all(hasattr(fn, '__wrapped__') for _, _, fn in v.CHECKS)\n"
        "rainbowposet.chain(3)\n"
        "assert t.stats['constructions.chain'][0] == 1\n"
        "assert t.stats['poset.make_poset'][0] == 1\n"
    )
    env = {"PYTHONPATH": f"{run.ROOT / 'src'}:{HERE}", "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=HERE)


def test_refutation_check_rejects_a_tampered_coloring():
    import rainbowposet as rp
    host = rp.o_jk(2, 4).delete(3)  # deleting b_1 admits a refutation
    a4 = rp.antichain(4)
    colors = list(rp.rainbow_forces(host, a4).refutation.colors)
    rows = list(host._up)
    assert cases.is_refutation(rows, colors, list(a4._up))

    x = next(x for x in range(host.n) if rows[x])
    y = (rows[x] & -rows[x]).bit_length() - 1
    improper = list(colors)
    improper[y] = improper[x]
    assert not cases.is_refutation(rows, improper, list(a4._up))

    rainbow = list(range(host.n))  # proper, but every copy is rainbow
    assert not cases.is_refutation(rows, rainbow, list(a4._up))
    assert not cases.is_refutation(rows, colors[:-1], list(a4._up))


def test_own_enumeration_and_oracle_on_known_cases():
    assert [len(cases.small_posets(m)) for m in range(1, 5)] == [1, 2, 5, 16]
    a2, c2 = cases.small_posets(2)
    assert (a2, c2) == ([0, 0], [0b10, 0])
    organ2 = [0, 0b100, 0]  # an isolated point beside a 2-chain
    assert cases.forcing_oracle([organ2, a2], [a2, c2]) == [[True, True], [False, False]]


def test_same_seed_same_digest_and_new_seed_new_inputs():
    assert cases.forcing_hosts(1) == cases.forcing_hosts(1)
    assert cases.forcing_hosts(1) != cases.forcing_hosts(2)
    assert cases.blowup_orders(1) != cases.blowup_orders(2)
    first = run.run_child("forcing-random", 1)
    second = run.run_child("forcing-random", 1)
    assert first["digest"] == second["digest"]
    assert run.check_forcing_random(1, first)[1] == []
