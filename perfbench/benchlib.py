"""Pure helpers for run.py; selftest.py covers them."""

import re

# End-to-end metrics in print order: (name, unit).  BENCHMARK.json gates all
# of them except flows_failed_frac, which is 0 whenever every flow completes
# (failures are reported through the result line's "failed" count instead).
END_TO_END = [
    ("setup_s", "s"),
    ("flows_per_s", "flows/s"),
    ("peak_rss_mb", "MiB"),
    ("flows_failed_frac", "ratio"),
    ("sim_setup_p50_ms", "ms"),
    ("sim_setup_tail_ms", "ms"),
    ("cp_msgs_per_update", "msgs/update"),
    ("cp_bytes_per_update", "B/update"),
]
UNGATED = {"flows_failed_frac"}

# Per-layer metrics (traced run): name -> unit.  Most come from the binary's
# "layers" object; sim.parallel.speedup and obs.trace_overhead_frac compare
# repetitions (run.py).
_CRYPTO_OPS = ["sign", "verify", "partial_sign", "aggregate", "threshold_verify"]
PER_LAYER = {}
for _op in _CRYPTO_OPS:
    PER_LAYER[f"crypto.{_op}_per_update"] = "ops/update"
    PER_LAYER[f"crypto.{_op}_us"] = "us"
    PER_LAYER[f"crypto.{_op}_per_field_mul"] = "ratio"
PER_LAYER.update({
    "crypto.field_mul_ns": "ns",
    "crypto.busy_s_est": "s",
    "crypto.share_est": "ratio",
    "core.ingress.ctrl.busy_s": "s",
    "core.ingress.switch.busy_s": "s",
})
for _tag in ["event", "update", "ack"]:
    PER_LAYER[f"core.ingress.{_tag}.msgs"] = "count"
    PER_LAYER[f"core.ingress.{_tag}.bytes"] = "bytes"
    PER_LAYER[f"core.ingress.{_tag}.busy_s"] = "s"
PER_LAYER.update({
    "core.retransmits_per_update": "ratio",
    "core.sent_per_applied": "ratio",
    "core.events_processed": "count",
    "bft.ingress.busy_s": "s",
    "bft.ingress.msgs": "count",
    "bft.msgs_per_delivery": "ratio",
    "bft.view_changes": "count",
    "net.shortest_path_us": "us",
    "sched.build_us": "us",
    "sched.released_per_update": "ratio",
    "sim.events_per_update": "ratio",
    "sim.cancelled_frac": "ratio",
    "sim.ns_per_event_residual": "ns",
    "sim.net.dropped_frac": "ratio",
    "sim.cpu.tasks_per_update": "ratio",
    "sim.parallel.events_per_window": "ratio",
    "sim.parallel.stall_frac": "ratio",
    "sim.parallel.barrier_wait_frac": "ratio",
    "sim.parallel.posts_per_event": "ratio",
    "sim.parallel.speedup": "ratio",
    "obs.trace_overhead_frac": "ratio",
})

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name):
    """Letters, digits, '_', '.', '-'; starts with a letter or digit; <= 64."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, count) over `samples`; the value is the
    11th-largest sample, so exactly ten lie above it by rank.  Raises
    ValueError when fewer than 11 samples exist.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        raise ValueError(f"tail percentile needs >= 11 samples, got {n}")
    return xs[n - 11], 100.0 * (n - 10) / n, n


def count_failures(reps):
    """(attempted, failed) flows summed over repetition records."""
    attempted = sum(r["flows"] for r in reps)
    failed = sum(r["flows"] - r["completed"] for r in reps)
    return attempted, failed


# Repetition fields that must repeat bit-for-bit for one (workload, seed).
DETERMINISTIC_FIELDS = [
    "flows", "completed", "completed_digest", "setup_ms", "updates_applied",
    "msgs_sent", "bytes_sent", "msgs_dropped", "events", "events_cancelled",
    "pending_updates", "violations", "crypto_ops", "counters",
]


def fingerprint(rep):
    """The deterministic part of a repetition record (plus shard counts)."""
    fp = {k: rep[k] for k in DETERMINISTIC_FIELDS}
    fp["shards"] = {k: v for k, v in rep["shards"].items() if k != "barrier_wait_s"}
    return fp


def first_difference(a, b):
    """Name of the first top-level key whose values differ, or None."""
    for k in sorted(set(a) | set(b)):
        if a.get(k) != b.get(k):
            return k
    return None
