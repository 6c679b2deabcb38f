#!/usr/bin/env python3
"""End-to-end benchmark of the Cicero simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout.  Builds perfbench_bin (Release) under
$CARGO_TARGET_DIR (default .bench_build), then runs repetitions of the
workload, each in its own process, until S seconds have been spent (at least
one repetition).  Every repetition injects the same seeded flows, so the
deterministic outputs must repeat bit for bit; they are also compared with
earlier runs of the same seed in this checkout.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics, writing the traced
repetition's spans as Chrome trace JSON under the build directory.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Exits 1 when a correctness check fails, 2 when the benchmark cannot run.
NOTES.md describes the workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

WORKLOADS = ["wan", "secure_fabric", "lossy_churn"]
PARALLEL_THREADS = 2
REP_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds perfbench_bin; returns its path."""
    if not (ROOT / "src" / "core" / "deployment.hpp").is_file():
        raise RuntimeError(f"no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError(f"build failed: {' '.join(cmd)}")
    return out / "perfbench_bin"


def run_rep(binary, workload, seed, trace, threads=None, trace_out=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0"]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reps(binary, args, deadline):
    """Repetitions until the deadline.  --trace 0 runs untraced ones.
    --trace 1 first runs one traced repetition on sim::ParallelSim with
    PARALLEL_THREADS threads (the parallel engine's layer metrics and its
    equivalence check), then alternates untraced and traced sequential
    repetitions, at least one of each.  Returns (untraced, traced, parallel)."""
    untraced, traced, parallel = [], [], None
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_out = trace_dir / f"{args.workload}-seed{args.seed}.trace.json"
    if args.trace:
        parallel = run_rep(binary, args.workload, args.seed, True, threads=PARALLEL_THREADS,
                           trace_out=trace_dir / f"{args.workload}-seed{args.seed}-2t.trace.json")
    last = 0.0
    while True:
        want_traced = args.trace and len(traced) < len(untraced)
        t0 = time.monotonic()
        if want_traced:
            traced.append(run_rep(binary, args.workload, args.seed, True, trace_out=trace_out))
        else:
            untraced.append(run_rep(binary, args.workload, args.seed, False))
        last = max(last, time.monotonic() - t0)
        enough = untraced and (traced or not args.trace)
        if enough and time.monotonic() + last > deadline:
            break
    return untraced, traced, parallel


def check(args, binary, reps, parallel, problems):
    """Correctness gate: drained trackers, consistent tables, determinism."""
    for r in reps + ([parallel] if parallel else []):
        if r["pending_updates"] != 0:
            problems.append(f"{r['pending_updates']} updates pending at the horizon "
                            f"({r['threads']} thread(s))")
        if not r["teardown"] and r["violations"] != 0:
            problems.append(f"{r['violations']} consistency violations: {r['first_violation']}")
    base = benchlib.fingerprint(reps[0])
    for r in reps[1:]:
        diff = benchlib.first_difference(base, benchlib.fingerprint(r))
        if diff is not None:
            problems.append(f"repetitions of seed {args.seed} differ in '{diff}'")
            break
    if parallel is not None:
        # The parallel engine must complete the same flows.  Loss draws come
        # from per-shard streams there, so retransmissions (and the updates
        # they re-apply) may differ on a lossy workload.
        keys = ["completed_digest"] + ([] if parallel["lossy"] else ["updates_applied"])
        for key in keys:
            if parallel[key] != reps[0][key]:
                problems.append(f"{key} differs between {parallel['threads']} threads and 1")
    # Earlier runs of this seed with this very binary.
    build_id = hashlib.sha256(Path(binary).read_bytes()).hexdigest()[:16]
    for label, rep in [("", reps[0]), ("-2t", parallel)]:
        if rep is None:
            continue
        fp = benchlib.fingerprint(rep)
        store = build_dir() / "fingerprints" / build_id / f"{args.workload}-seed{args.seed}{label}.json"
        store.parent.mkdir(parents=True, exist_ok=True)
        if store.is_file():
            diff = benchlib.first_difference(json.loads(store.read_text()), fp)
            if diff is not None:
                problems.append(f"{rep['threads']} thread(s): differs from an earlier run of "
                                f"seed {args.seed} in '{diff}'")
        else:
            store.write_text(json.dumps(fp, sort_keys=True))


def end_to_end(reps):
    first = reps[0]
    attempted, failed = benchlib.count_failures(reps)
    tail, pct, n = benchlib.tail_percentile(first["setup_ms"])
    applied = first["updates_applied"]
    values = {
        "setup_s": statistics.median(s for r in reps for s in r["setup_s"]),
        "flows_per_s": statistics.median(r["completed"] / r["run_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "flows_failed_frac": failed / attempted,
        "sim_setup_p50_ms": statistics.median(first["setup_ms"]),
        "sim_setup_tail_ms": tail,
        "cp_msgs_per_update": first["msgs_sent"] / applied,
        "cp_bytes_per_update": first["bytes_sent"] / applied,
    }
    notes = {
        "setup_s": f"median of {sum(len(r['setup_s']) for r in reps)} set-ups",
        "flows_per_s": f"median of {len(reps)} repetitions of {first['flows']} flows",
        "peak_rss_mb": "median VmHWM per repetition process",
        "flows_failed_frac": f"{failed} of {attempted} flows not completed",
        "sim_setup_p50_ms": f"simulated, n={n}",
        "sim_setup_tail_ms": f"simulated p{pct:.2f}, n={n}, 10 samples beyond",
        "cp_msgs_per_update": f"{first['msgs_sent']} messages / {applied} updates applied",
        "cp_bytes_per_update": f"{first['bytes_sent']} bytes / {applied} updates applied",
    }
    return values, notes


def per_layer(untraced, traced, parallel):
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values.update((name, v) for name, v in parallel["layers"].items()
                  if name.startswith("sim.parallel."))
    values["sim.parallel.speedup"] = (
        parallel["completed"] / parallel["run_s"]
        / statistics.median(r["completed"] / r["run_s"] for r in traced))
    values["obs.trace_overhead_frac"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in untraced) - 1.0)
    return values


def print_where(label, traced):
    """A traced run's host-time split (median over its repetitions)."""
    rows = ["ingress.ctrl", "ingress.bft", "ingress.switch", "crypto", "barrier_wait", "residual"]
    cap = statistics.median(r["where"]["capacity_s"] for r in traced)
    print(f"  where the run's host time goes, {label} (thread-seconds {cap:.3f}):")
    for row in rows:
        v = statistics.median(r["where"][row] for r in traced)
        print(f"    {row:16s} {v:9.4f} s  {100 * v / cap:6.2f} %")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError) as e:
        log(f"perfbench: {e}")
        return 2
    if args.self_test:
        import selftest
        return selftest.main(binary)
    if args.workload is None:
        ap.error("--workload is required")

    start = time.monotonic()
    problems = []
    try:
        untraced, traced, parallel = run_reps(binary, args, start + args.seconds)
        e2e, notes = end_to_end(untraced)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    reps = untraced + traced
    check(args, binary, reps, parallel, problems)
    attempted, failed = benchlib.count_failures(reps + ([parallel] if parallel else []))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions in "
          f"{time.monotonic() - start:.1f} s")
    for name, unit in benchlib.END_TO_END:
        print(f"  {name:22s} {e2e[name]:14.6g} {unit:12s} ({notes[name]})")
    if args.trace:
        layers = per_layer(untraced, traced, parallel)
        for name, unit in benchlib.PER_LAYER.items():
            print(f"  {name:36s} {layers[name]:14.6g} {unit}")
        print_where("1 thread", traced)
        print_where(f"{PARALLEL_THREADS} threads", [parallel])
        skipped = traced[-1]["trace_ingress_skipped"]
        print(f"  spans written to {build_dir() / 'traces'} "
              f"({skipped} ingress spans of the last traced repetition left out)")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in benchlib.PER_LAYER.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u}
                   for n, u in benchlib.END_TO_END if n not in benchlib.UNGATED}
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    if not problems:
        print("  checks passed: no pending updates, consistent tables (without teardown), "
              "deterministic across repetitions and earlier runs of this seed")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
