"""One round of a benchmark workload, in a fresh interpreter.

Run by bench/run.py with an empty working directory; prints one JSON line.
Set-up (importing `rainbowposet` and building the inputs) is timed first;
then a single-threaded closed loop makes one call at a time into the
package and times each. With ``--trace 1`` the tracer is installed between
set-up and the timed loop, so set-up is never traced.

Chunks of the host speed reference (bench/speed.py) run before and after
set-up, before and after the loop, and inside the loop from a SIGALRM
handler every REFERENCE_EVERY_S seconds, also in the middle of a call.
Their times are reported beside the call times and are taken out of them
(and, when tracing, out of the self time of the span they interrupted).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import re
import resource
import signal
import sys
import time

import cases
import speed
import tracer

_TIMING = re.compile(r" \(\d+\.\ds\)")
REFERENCE_EVERY_S = 0.5
REFERENCE_CHUNKS = 3  # back to back at each end of set-up and of the loop


def forcing_random(rp, seed):
    """Every random host against all 21 patterns, then the named instances."""
    pats = [rp.Poset(rows) for rows in cases.patterns()]
    calls, named = [], {}
    for i, rows in enumerate(cases.forcing_hosts(seed)):
        host = rp.Poset(rows)
        calls += [(f"random {i} / pattern {k}", host, pat) for k, pat in enumerate(pats)]
    a4 = rp.antichain(4)
    ojk = rp.o_jk(2, 4)
    named["o_jk(2,4)"] = (ojk, a4)
    for x in range(ojk.n):
        named[f"o_jk(2,4) minus {ojk.labels[x] or x}"] = (ojk.delete(x), a4)
    named["organ(4)"] = (rp.organ(4), a4)
    fours = [rp.Poset(rows) for rows in cases.small_posets(4)]
    for k, (pat, pi) in enumerate(zip(fours, cases.blowup_orders(seed))):
        named[f"blowup {k}"] = (rp.blowup(pat, pi), pat)
    calls += [(name, host, pat) for name, (host, pat) in named.items()]

    def decide(host, pat):
        verdict = rp.rainbow_forces(host, pat)
        refutation = verdict.refutation.colors if verdict.refutation else None
        return [verdict.forces, refutation]

    loop = [(name, functools.partial(decide, host, pat)) for name, host, pat in calls]
    extra = {
        "named_rows": {
            name: [list(host._up), list(pat._up)] for name, (host, pat) in named.items()
        }
    }
    return loop, extra


def mvalue_a4(rp, seed):
    """The catalog to size 8, then the minimum forcing size of the 4-antichain."""
    a4 = rp.antichain(4)

    def catalog():
        return [len(reps) for reps in rp.catalog_upto(8, cap=8).values()]

    def m_value():
        mv = rp.m_value(a4, cap=8)
        return [mv.lower, mv.upper, mv.witness is None]

    return [("catalog_upto(8, cap=8)", catalog), ("m_value(antichain(4), cap=8)", m_value)], {}


def verify_quick(rp, seed):
    """`verify-paper --quick` through the CLI entry point, stdout captured.

    The per-check seconds are the program's own CheckResult values, which
    the CLI prints rounded to 0.1 s; they are read from run_suite's return
    value (looked up at call time, so a traced run still traces it). They
    include the reference chunks that ran during the check."""
    import rainbowposet.cli as cli
    import rainbowposet.verify as verify

    checks = {}

    def run_suite(**kwargs):
        results = verify.run_suite(**kwargs)
        checks.update((r.name, r.seconds) for r in results)
        return results

    cli.run_suite = run_suite

    def verify_paper():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify-paper", "--quick"])
        return [code, _TIMING.sub("", out.getvalue())]

    return [("verify-paper --quick", verify_paper)], {"checks": checks}


WORKLOADS = {
    "forcing-random": forcing_random,
    "mvalue-a4": mvalue_a4,
    "verify-quick": verify_quick,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    setup_reference = speed.sample(REFERENCE_CHUNKS)
    start = time.perf_counter()
    import rainbowposet as rp
    import rainbowposet.cli  # noqa: F401  (every module loaded, as for a CLI user)

    loop, extra = WORKLOADS[args.workload](rp, args.seed)
    setup_s = time.perf_counter() - start
    setup_reference += speed.sample(REFERENCE_CHUNKS)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_reference_s": setup_reference}))
        return

    trace = None
    if args.trace:
        trace = tracer.Tracer()
        functions, bindings = tracer.install(trace)
    reference = speed.sample(REFERENCE_CHUNKS)
    ticks = []  # (start, seconds) of each chunk the timer ran

    def tick(signum, frame):
        start = time.perf_counter()
        spent = speed.chunk()
        reference.append(spent)
        ticks.append((start, spent))
        if trace is not None:
            trace.stack[-1][0] += spent  # not self time of the open span

    names, outputs, latencies = [], [], []
    cpu_s = 0.0
    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
    for name, call in loop:
        seen = len(ticks)
        c0, t0 = time.process_time(), time.perf_counter()
        out = call()
        t1 = time.perf_counter()
        spent = sum(s for start, s in ticks[seen:] if t0 <= start < t1)  # ran inside the call
        cpu_s += time.process_time() - c0 - spent
        latencies.append((t1 - t0 - spent) * 1e3)
        names.append(name)
        outputs.append(out)
    signal.setitimer(signal.ITIMER_REAL, 0)
    reference += speed.sample(REFERENCE_CHUNKS)

    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":")).encode()
    result = {
        "setup_s": setup_s,
        "setup_reference_s": setup_reference,
        "wall_s": sum(latencies) / 1e3,
        "cpu_s": cpu_s,
        "reference_s": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies_ms": latencies,
        "names": names,
        "outputs": outputs,
        "digest": hashlib.sha256(blob).hexdigest(),
        **extra,
    }
    if trace is not None:
        result["trace"] = {
            "functions": functions,
            "bindings": bindings,
            "stats": trace.stats,
            "counters": trace.counters,
        }
    json.dump(result, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
