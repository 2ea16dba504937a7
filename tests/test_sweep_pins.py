"""The seeded sweeps of criteria 7 and 9 run through `verify._sweep`, which
spreads them over every CPU in the affinity mask. These tests pin what the
sweeps compute, so that the split over processes cannot change a value or
its order, and check the sweep's error paths.

Run as a script (`python tests/test_sweep_pins.py one|all`), this file
prints the digest of a small sweep, on the first CPU only or on all of them.
"""

import hashlib
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from rainbowposet import downtree_fuzz_case, harp
from rainbowposet import verify
from rainbowposet.families import greedy_pattern_free_family
from rainbowposet.verify import _sweep

# sha256 over repr(result) + "\n" per item, computed with plain serial loops
# before the sweeps ran in parallel: downtree_fuzz_case(seed) for seed < 1000;
# greedy harp-free families random.Random(f"h2-{n}-{i}") for n = 5..8 and
# i < 1000 (n outer); and fuzz seeds < 300 followed by n = 5, 6 with i < 200.
FUZZ_DIGEST = "6e4d7f717f12217b4efe77dedbf7d7e415a0293954775039c8df0d6656d85657"
GREEDY_DIGEST = "80d5a42ffe8b3c08ef874fceaeac47d96221ffa0d0f019a1a12adf99b3ec41f3"
SMALL_DIGEST = "fa2fbae55ababfce5a11bca65187a3b36da5a52e8082c119f5bbb8a4becaba6f"

H2 = harp(2)
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="needs two CPUs in the affinity mask")


@pytest.fixture(autouse=True)
def deadline():
    """Turn a sweep that hangs into a failed test, not a hung test run."""

    def expire(signum, frame):
        raise TimeoutError("the sweep did not finish within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _fuzz(seed):
    return repr(downtree_fuzz_case(seed))


def _greedy(seed):
    n, i = seed
    return repr(greedy_pattern_free_family(n, H2, random.Random(f"h2-{n}-{i}")).sets)


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _small_digest():
    seeds = [(n, i) for n in (5, 6) for i in range(200)]
    return _digest(_sweep(_fuzz, range(300)) + _sweep(_greedy, seeds))


def test_sweeps_match_the_serial_pins():
    assert _digest(_sweep(_fuzz, range(1000))) == FUZZ_DIGEST
    seeds = [(n, i) for n in range(5, 9) for i in range(1000)]
    assert _digest(_sweep(_greedy, seeds)) == GREEDY_DIGEST


def test_same_bytes_on_one_cpu_and_on_all_cpus(src_env):
    digests = []
    for cpus, hashseed in (("one", "1"), ("all", "2")):
        proc = subprocess.run(
            [sys.executable, __file__, cpus],
            capture_output=True,
            text=True,
            env={**src_env, "PYTHONHASHSEED": hashseed},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests == [SMALL_DIGEST, SMALL_DIGEST]


def _sleepy_pid(x):
    time.sleep(0.005)
    return x, os.getpid()


@needs_two_cpus
def test_parent_and_children_share_the_work():
    results = _sweep(_sleepy_pid, range(200))
    assert [x for x, _ in results] == list(range(200))
    pids = {pid for _, pid in results}
    assert os.getpid() in pids and len(pids) > 1
    assert multiprocessing.active_children() == []


def _fails_at_37_and_150(i):
    # 37 fails late; with two workers 37 and 150 both fall to the child,
    # which stops at 37 and never runs 150
    time.sleep(0.5 if i == 37 else 0.001)
    if i in (37, 150):
        raise ValueError(i)
    return i


@pytest.mark.parametrize("cpus", ["one", "all"])
def test_raises_the_lowest_failing_index(cpus, monkeypatch):
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(ValueError) as info:
        _sweep(_fails_at_37_and_150, range(200))
    assert info.value.args == (37,)
    assert multiprocessing.active_children() == []


def _fails_at_37_and_40(i):
    # With two workers 37 and 40 fall to different processes, and the slow
    # index 4 holds back the one with 37, so 40 has failed by then.
    time.sleep(0.5 if i == 4 else 0.001)
    if i in (37, 40):
        raise ValueError(i)
    return i


@needs_two_cpus
def test_a_failure_in_one_worker_leaves_a_lower_one_in_another():
    with pytest.raises(ValueError) as info:
        _sweep(_fails_at_37_and_40, range(200))
    assert info.value.args == (37,)
    assert multiprocessing.active_children() == []


@needs_two_cpus
def test_a_check_that_raises_in_a_child_is_a_failed_check(monkeypatch):
    parent = os.getpid()

    def raise_in_child(i):
        time.sleep(0.005)
        if os.getpid() != parent:
            raise ValueError("raised in a child")

    def check(quick):
        _sweep(raise_in_child, range(200))
        return True, "no child raised"

    monkeypatch.setattr(verify, "CHECKS", (("child-raises", "quick", check),))
    (result,) = verify.run_suite()
    assert not result.passed
    assert result.detail == "raised ValueError: raised in a child"
    assert multiprocessing.active_children() == []


@needs_two_cpus
def test_a_child_that_dies_makes_the_sweep_raise():
    parent = os.getpid()

    def die_in_child(i):
        time.sleep(0.005)
        if os.getpid() != parent:
            os._exit(1)
        return i

    with pytest.raises(RuntimeError, match="ended without reporting"):
        _sweep(die_in_child, range(200))
    assert multiprocessing.active_children() == []


def _no_fork(method=None):
    raise ValueError("cannot find context for 'fork'")


@pytest.mark.parametrize("missing", ["affinity", "fork"])
def test_runs_in_this_process_without_affinity_or_fork(missing, monkeypatch):
    if missing == "affinity":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
    assert _sweep(_sleepy_pid, range(40)) == [(x, os.getpid()) for x in range(40)]
    with pytest.raises(ValueError) as info:
        _sweep(_fails_at_37_and_150, range(200))
    assert info.value.args == (37,)


if __name__ == "__main__":
    if sys.argv[1] == "one":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(_small_digest())
