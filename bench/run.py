"""Benchmark of the rainbowposet toolkit: three workloads, end-to-end metrics
and a traced per-layer run.

    python3 bench/run.py --workload forcing-random --seed 1 --seconds 25 --trace 0

Run from the repository root. Every round of a workload runs in a fresh
interpreter (bench/worker.py) inside an empty temporary directory under
bench/.work, so the package's caches start cold as they do for a CLI user.
Rounds repeat while the next one is expected to end within --seconds (at
least one). The outputs are checked against the benchmark's own references
(bench/cases.py and bench/verify_quick.txt), a results file with the run's
metadata is written to bench/results/, and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
one untraced and one traced round and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import speed  # noqa: E402

SETUP_SAMPLES = 5
NPROC = len(os.sched_getaffinity(0))
CHILD_TIMEOUT_S = 170
WORKLOADS = ("forcing-random", "mvalue-a4", "verify-quick")

# Per-layer metrics that must read nonzero on the workload where the layer
# should move; a zero there means the tracer missed the layer.
SHOULD_MOVE = {
    "forcing-random": ("copies.", "forcing.rainbow_forces.", "forcing.refuting_coloring."),
    "mvalue-a4": ("poset.", "catalog."),
    "verify-quick": (
        "copies.",
        "forcing.random_proper_coloring.",
        "forcing.is_proper.",
        "families.",
        "treeembed.",
        "verify.",
    ),
}


class ChildFailed(RuntimeError):
    pass


def run_child(workload, seed, trace=0, setup_only=False):
    """One fresh interpreter in an empty directory; its parsed JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        RAINBOWPOSET_WORKERS=str(NPROC),
    )
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as cwd:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a share q of
    the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --- correctness ---------------------------------------------------------------


def check_forcing_random(seed, result):
    """Failures among the decisions: every random verdict against the
    prune-free oracle, every named verdict against its known answer, every
    refutation by brute force. Returns (attempted, failures)."""
    hosts = cases.forcing_hosts(seed)
    pats = cases.patterns()
    oracle = cases.forcing_oracle(hosts, pats)
    answers = cases.named_answers()
    named_rows = result["named_rows"]
    failures = []
    outputs = dict(zip(result["names"], result["outputs"]))
    expected_names = [
        f"random {i} / pattern {k}" for i in range(len(hosts)) for k in range(len(pats))
    ] + list(answers)
    for name in expected_names:
        if name not in outputs:
            failures.append(f"{name}: missing")
            continue
        forces, refutation = outputs[name]
        if name in answers:
            want = answers[name]
            rows, pat = named_rows[name]
        else:
            i, k = (int(part.split()[-1]) for part in name.split(" / "))
            want, rows, pat = oracle[i][k], hosts[i], pats[k]
        if forces != want:
            failures.append(f"{name}: forces={forces}, reference {want}")
        elif not forces and not cases.is_refutation(rows, refutation, pat):
            failures.append(f"{name}: refutation fails the brute-force check")
    extra = sorted(set(outputs) - set(expected_names))
    failures += [f"{name}: unexpected case" for name in extra]
    return len(expected_names) + len(extra), failures


def check_mvalue_a4(seed, result):
    counts, bracket = result["outputs"]
    failures = [
        f"size {n}: {got} posets, reference {want}"
        for n, (got, want) in enumerate(zip(counts + [None] * 8, cases.MVALUE_COUNTS), 1)
        if got != want
    ]
    if bracket != [*cases.MVALUE_BRACKET, True]:
        failures.append(f"m_value bracket {bracket}, reference [9, 10] without witness")
    return len(cases.MVALUE_COUNTS) + 1, failures


def check_verify_quick(seed, result):
    """Each check line against the pinned reference (timings stripped), and
    the summary line with exit code 0."""
    (code, stdout), = result["outputs"]
    want = (HERE / "verify_quick.txt").read_text(encoding="utf-8").splitlines()
    got = stdout.splitlines()
    failures = [
        f"line {i + 1}: {g!r}, reference {w!r}"
        for i, (g, w) in enumerate(zip(got + [""] * len(want), want))
        if g != w
    ]
    if code != 0:
        failures.append(f"exit code {code}")
    if len(got) > len(want):
        failures.append(f"{len(got) - len(want)} unexpected lines")
    return len(want), failures


CHECKS = {
    "forcing-random": check_forcing_random,
    "mvalue-a4": check_mvalue_a4,
    "verify-quick": check_verify_quick,
}


# --- metrics -------------------------------------------------------------------


def end_to_end(rounds, setups):
    """Each call at its median over the rounds: the timed section's wall
    time and the latency percentiles over the calls. Plus the median set-up.
    All at the reference speed (bench/speed.py). Memory is the median over
    the rounds."""
    scaled = [[ms * speed.scale(r["reference_s"]) for ms in r["latencies_ms"]] for r in rounds]
    calls = [statistics.median(ms) for ms in zip(*scaled)]
    return {
        "wall_s": sum(calls) / 1e3,
        "setup_s": statistics.median(
            s["setup_s"] * speed.scale(s["setup_reference_s"]) for s in setups
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "case_p50_ms": percentile(calls, 0.50),
        "case_p99_ms": percentile(calls, 0.99),
    }, len(calls)


def per_layer(name, plain, traced):
    """Value of one per-layer metric of BENCHMARK.json, from the untraced
    round `plain` and the traced round `traced`."""
    if name == "run.cpu_s":
        return plain["cpu_s"]
    if name == "run.trace_overhead_ratio":
        return (traced["wall_s"] * speed.scale(traced["reference_s"])) / (
            plain["wall_s"] * speed.scale(plain["reference_s"])
        )
    layer, rest = name.split(".", 1)
    if layer == "verify":
        return plain.get("checks", {}).get(rest[: -len(".s")], 0.0)
    function, field = rest.rsplit(".", 1)
    module = "_copies" if layer == "copies" else layer
    stats = traced["trace"]["stats"]
    counters = traced["trace"]["counters"]
    key = f"{module}.{function}"
    calls, self_s, _ = stats.get(key, (0, 0.0, 0.0))
    count = counters.get(key, {})
    if field == "calls":
        return calls
    if field == "self_s":
        return self_s
    if field in ("colored_calls", "anchored_calls"):
        return count.get(field.split("_")[0], 0)
    ratios = {  # numerator, base
        "found_ratio": (count.get("found", 0), calls),
        "refuted_ratio": (count.get("refuted", 0), calls),
        "per_decision": (calls, stats.get("forcing.rainbow_forces", (0,))[0]),
        "kept_ratio": (count.get("kept", 0), count.get("tried", 0)),
    }
    numerator, base = ratios[field]
    return numerator / base if base else 0.0


# --- run metadata --------------------------------------------------------------


def git_commit():
    """HEAD of the checkout read from .git without running git; None when the
    checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata():
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": NPROC,
        "RAINBOWPOSET_WORKERS": str(NPROC),
        "git_commit": git_commit(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


# --- driver --------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rainbowposet" / "__init__.py").is_file():
        print("error: no src/rainbowposet next to bench/; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check = CHECKS[args.workload]
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **metadata()}

    try:
        if args.trace:
            plain = run_child(args.workload, args.seed)
            traced = run_child(args.workload, args.seed, trace=1)
            rounds = [plain, traced]
        else:
            rounds = []
            start = time.perf_counter()
            while True:
                rounds.append(run_child(args.workload, args.seed))
                elapsed = time.perf_counter() - start
                if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                    break
            setups = list(rounds)
            while len(setups) < SETUP_SAMPLES:
                setups.append(run_child(args.workload, args.seed, setup_only=True))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(HERE / ".work", ignore_errors=True)

    attempted, failures = check(args.seed, rounds[0])
    digests = sorted({r["digest"] for r in rounds})
    problems = []
    if len(digests) > 1:
        problems.append("case outputs differ between rounds of the same seed")

    if args.trace:
        metrics = {m["name"]: {"value": per_layer(m["name"], plain, traced), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, metric in metrics.items():
            if name.startswith(SHOULD_MOVE[args.workload]) and metric["value"] == 0:
                problems.append(f"per-layer metric {name} reads 0 on {args.workload}")
        report["trace"] = {
            "functions": traced["trace"]["functions"],
            "bindings": traced["trace"]["bindings"],
            "stats": traced["trace"]["stats"],
        }
    else:
        values, samples = end_to_end(rounds, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        report["case_samples"] = samples
        report["setup_samples"] = [s["setup_s"] for s in setups]
        report["setup_scales"] = [speed.scale(s["setup_reference_s"]) for s in setups]

    report.update(
        rounds=len(rounds),
        round_wall_s=[r["wall_s"] for r in rounds],
        round_scales=[speed.scale(r["reference_s"]) for r in rounds],
        digests=digests,
        attempted=attempted,
        failed=len(failures),
        fail_ratio=len(failures) / attempted,
        failures=failures,
        problems=problems,
        metrics=metrics,
    )
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for line in failures + problems:
        print(f"{args.workload}: {line}", file=sys.stderr)

    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
