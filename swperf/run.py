#!/usr/bin/env python3
"""Build and run the runtime's benchmark from the root of a checkout.

    python3 swperf/run.py --workload g500-shm --seed 1 --seconds 30 --trace 0
    python3 swperf/run.py --selftest
    python3 swperf/run.py --steady 10 --workload bfs-socket

The first two forms build the `swperf` binary and the `swbfs-rankd`
daemon (release profile, offline, into $CARGO_TARGET_DIR or
`.bench_build`) and run one workload or the checker self-test; the last
line of standard output is the run's JSON result. `--steady N` runs one
workload N times in fresh processes, seeds 1..N, for BENCHMARK.json's
`run_seconds` unless `--seconds` is given, and prints each metric's
median, quartiles and spread.

Every run is pinned to one CPU, the highest this process may use, and
the processes it starts (the rank daemons too) inherit the pin. On a
shared 2-vCPU host a hand-off between processes or threads on different
CPUs waits for the host to wake the idle vCPU: unpinned, the socket
fabric ran 30% slower and its speed followed the load on the other CPU.
"""

import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"swperf/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds both binaries; returns their paths."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    for needed in ("Cargo.toml", "crates/core/Cargo.toml", "swperf/Cargo.toml"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the root of a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "swperf/Cargo.toml"],
        # The daemon comes from the repository's own workspace, built
        # exactly as its users build it.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "swbfs-core", "--bin", "swbfs-rankd"],
    ]
    for cmd in steps:
        # Cargo's chatter goes to stderr so stdout stays the result.
        r = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "swperf"), os.path.join(release, "swbfs-rankd")


def run_once(binary, rankd, args, capture=False):
    env = dict(os.environ, SWBFS_RANKD=os.path.abspath(rankd))
    try:
        return subprocess.run([binary] + args, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed", 3)


def steady(binary, rankd, argv):
    """`--steady N`: N fresh processes on one workload, then per-metric
    median, quartiles, (q3 - q1) / median and (max - min) / median."""
    opts = dict(zip(argv[::2], argv[1::2]))
    n = int(opts.pop("--steady"))
    if "--workload" not in opts:
        fail("--steady needs --workload")
    if "--seconds" not in opts:
        with open("BENCHMARK.json") as f:
            opts["--seconds"] = str(json.load(f)["run_seconds"])
    opts.setdefault("--trace", "0")
    results = []
    for seed in range(1, n + 1):
        args = [a for kv in opts.items() for a in kv] + ["--seed", str(seed)]
        r = run_once(binary, rankd, args, capture=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            fail(f"seed {seed} exited {r.returncode}:\n{r.stdout}", 1)
        res = json.loads(lines[-1])
        results.append(res)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{opts['--workload']}: {n} runs, failed share {sorted(shares)}")
    print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>10}{'range/med':>11}")
    for name, first_metric in results[0]["metrics"].items():
        xs = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        rel = (lambda d: d / med if med else float("nan"))
        print(f"{name:<28}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
              f"{rel(q3 - q1):>10.3f}{rel(max(xs) - min(xs)):>11.3f}  {first_metric['unit']}")


def main():
    argv = sys.argv[1:]
    binary, rankd = build()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if "--steady" in argv:
        steady(binary, rankd, argv)
        return
    sys.exit(run_once(binary, rankd, argv).returncode)


if __name__ == "__main__":
    main()
