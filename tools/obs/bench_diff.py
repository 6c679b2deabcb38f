#!/usr/bin/env python3
"""Compares two Cicero run reports and flags metric regressions.

The perf gate for the bench pipeline: a fresh ``*.report.json`` (written
by a bench into ``bench/out/``) is diffed against the committed baseline
of the same name under ``bench/baselines/``, metric by metric, with a
relative threshold per metric.

Metrics are flattened into namespaced keys so one threshold table covers
every section of ``cicero-run-report/v1``::

    counter:<name>                      raw counter value
    gauge:<name>                        gauge value
    hist:<name>.count|mean              histogram population / mean
    cdf:<name>.n|p50|p99                CDF population and latency tails
    crit:<slug>.end_to_end.p50_ms       critical-path end-to-end tails
    crit:<slug>.phases.<phase>.total_ms per-phase attributed latency
    crit:<slug>.phases.<phase>.bytes    per-phase control-plane bytes
    crit:<slug>.attributed.min          attribution coverage floor
    shard:<slug>.<shard>.events|windows engine utilization counters

Wall-clock-derived metrics (``wall_sec``, ``*_per_sec``, ``peak_rss``,
``barrier_wait``, speedups) are machine noise and always skipped:
the gate compares *simulated* behaviour, which is deterministic.

Thresholds come from a JSON file (default: ``thresholds.json`` next to
the baseline)::

    {"default_rel": 0.25,
     "overrides": {"cdf:*.p99": 0.5, "counter:*retrans*": 1.0},
     "skip": ["gauge:*.threads"]}

``overrides`` maps fnmatch patterns over the namespaced keys to relative
thresholds; the most specific (longest) matching pattern wins.  A metric
present in the baseline but missing from the current report is always a
violation; brand-new metrics are only noted.

Usage:
    bench_diff.py CURRENT [BASELINE] [--thresholds FILE] [--soft] [-v]
    bench_diff.py --self-test

With no BASELINE, looks for ``bench/baselines/<basename(CURRENT)>``
relative to the repository root.  ``--soft`` prints GitHub Actions
``::warning::`` annotations instead of failing (CI runs the gate soft
until enough baseline history exists).  Exits 0 when clean or soft,
1 on hard violations, 2 on usage/IO errors.  Stdlib only.
"""
import fnmatch
import json
import os
import sys

# Host-dependent measurements: never compared (see module docstring).
ALWAYS_SKIP = (
    "*wall_sec*",
    "*per_sec*",
    "*rss*",
    "*barrier_wait*",
    "*speedup*",
)

DEFAULT_REL = 0.25


def flatten(doc):
    """Run report -> {namespaced key: numeric value}."""
    out = {}
    for name, v in (doc.get("counters") or {}).items():
        if isinstance(v, int):
            out["counter:%s" % name] = v
    for name, v in (doc.get("gauges") or {}).items():
        if isinstance(v, (int, float)):
            out["gauge:%s" % name] = v
    for name, h in (doc.get("histograms") or {}).items():
        if not isinstance(h, dict):
            continue
        if isinstance(h.get("count"), int):
            out["hist:%s.count" % name] = h["count"]
            if h["count"] > 0 and isinstance(h.get("sum"), (int, float)):
                out["hist:%s.mean" % name] = h["sum"] / h["count"]
    for name, c in (doc.get("cdfs") or {}).items():
        if not isinstance(c, dict):
            continue
        for field in ("n", "p50", "p99"):
            if isinstance(c.get(field), (int, float)):
                out["cdf:%s.%s" % (name, field)] = c[field]
    for slug, s in (doc.get("critical_path") or {}).items():
        if not isinstance(s, dict):
            continue
        base = "crit:%s" % slug
        if isinstance(s.get("updates"), int):
            out["%s.updates" % base] = s["updates"]
        for field in ("p50_ms", "p99_ms"):
            v = (s.get("end_to_end") or {}).get(field)
            if isinstance(v, (int, float)):
                out["%s.end_to_end.%s" % (base, field)] = v
        v = (s.get("attributed") or {}).get("min")
        if isinstance(v, (int, float)):
            out["%s.attributed.min" % base] = v
        for phase, p in (s.get("phases") or {}).items():
            if not isinstance(p, dict):
                continue
            for field in ("total_ms", "bytes"):
                if isinstance(p.get(field), (int, float)):
                    out["%s.phases.%s.%s" % (base, phase, field)] = p[field]
    for slug, rows in (doc.get("shards") or {}).items():
        if not isinstance(rows, list):
            continue
        for r in rows:
            if not isinstance(r, dict) or not isinstance(r.get("shard"), int):
                continue
            base = "shard:%s.%d" % (slug, r["shard"])
            for field in ("events", "windows", "stall_windows", "posts_in", "posts_out"):
                if isinstance(r.get(field), int):
                    out["%s.%s" % (base, field)] = r[field]
    return out


def load_thresholds(path):
    if path is None or not os.path.exists(path):
        return DEFAULT_REL, {}, []
    with open(path, "r", encoding="utf-8") as f:
        t = json.load(f)
    return (
        float(t.get("default_rel", DEFAULT_REL)),
        {str(k): float(v) for k, v in (t.get("overrides") or {}).items()},
        [str(p) for p in (t.get("skip") or [])],
    )


def threshold_for(key, default_rel, overrides):
    best, best_len = default_rel, -1
    for pattern, rel in overrides.items():
        if fnmatch.fnmatch(key, pattern) and len(pattern) > best_len:
            best, best_len = rel, len(pattern)
    return best


def diff(current, baseline, default_rel=DEFAULT_REL, overrides=None, skip=()):
    """Returns (violations, notes): lists of human-readable strings."""
    overrides = overrides or {}
    skip = tuple(ALWAYS_SKIP) + tuple(skip)
    violations, notes = [], []
    for key in sorted(set(current) | set(baseline)):
        if any(fnmatch.fnmatch(key, p) for p in skip):
            continue
        if key not in baseline:
            notes.append("new metric %s = %s (no baseline)" % (key, current[key]))
            continue
        if key not in current:
            violations.append("metric %s disappeared (baseline %s)" % (key, baseline[key]))
            continue
        base, cur = baseline[key], current[key]
        rel = threshold_for(key, default_rel, overrides)
        if base == cur:
            continue
        denom = max(abs(base), abs(cur))
        drift = abs(cur - base) / denom if denom > 0 else 0.0
        if drift > rel:
            violations.append(
                "%s: %s -> %s (%+.1f%%, threshold %.0f%%)"
                % (key, fmt(base), fmt(cur), 100.0 * (cur - base) / base
                   if base != 0 else float("inf"), 100.0 * rel))
    return violations, notes


def fmt(v):
    return "%d" % v if isinstance(v, int) else "%.4g" % v


def default_baseline(current_path):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    return os.path.join(root, "bench", "baselines", os.path.basename(current_path))


def self_test():
    base = {
        "counters": {"a.acks": 100, "a.gone": 5},
        "gauges": {"a.wall_sec": 9.0, "a.switches": 320.0},
        "histograms": {"a.lat_ms": {"count": 10, "sum": 50.0}},
        "cdfs": {"a.completion_ms": {"n": 10, "p50": 4.0, "p99": 9.0}},
        "critical_path": {"a": {
            "updates": 10,
            "end_to_end": {"p50_ms": 4.0, "p99_ms": 9.0},
            "attributed": {"min": 1.0},
            "phases": {"sign": {"total_ms": 12.0, "bytes": 4000}},
        }},
        "shards": {"a": [{"shard": 0, "events": 1000, "windows": 5,
                          "stall_windows": 0, "posts_in": 0, "posts_out": 0,
                          "barrier_wait_sec": 0.5}]},
    }
    cur = json.loads(json.dumps(base))
    cur["gauges"]["a.wall_sec"] = 90.0            # skipped: wall clock
    cur["shards"]["a"][0]["barrier_wait_sec"] = 9  # skipped (and not flattened)
    cur["counters"]["a.acks"] = 101                # 1% drift: under threshold
    cur["counters"]["a.new"] = 7                   # new metric: note only
    v, n = diff(flatten(cur), flatten(base))
    assert v == [], v
    assert any("a.new" in x for x in n), n

    cur["cdfs"]["a.completion_ms"]["p99"] = 20.0   # 55% drift: violation
    del cur["counters"]["a.gone"]                  # disappeared: violation
    cur["critical_path"]["a"]["phases"]["sign"]["total_ms"] = 30.0
    v, _ = diff(flatten(cur), flatten(base))
    assert any("cdf:a.completion_ms.p99" in x for x in v), v
    assert any("a.gone disappeared" in x for x in v), v
    assert any("crit:a.phases.sign.total_ms" in x for x in v), v

    # A generous override pattern silences the phase violation.
    v, _ = diff(flatten(cur), flatten(base),
                overrides={"crit:*.phases.*": 2.0, "cdf:*": 2.0})
    assert not any("phases" in x or "cdf:" in x for x in v), v
    # Most specific pattern wins over a loose one.
    assert threshold_for("cdf:a.p99", 0.25, {"cdf:*": 0.1, "cdf:a.*": 0.9}) == 0.9
    print("bench_diff self-test OK")
    return 0


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("-")]
    flags = [a for a in argv[1:] if a.startswith("-")]
    if "--self-test" in flags:
        return self_test()
    soft = "--soft" in flags
    verbose = "-v" in flags or "--verbose" in flags
    thresholds_path = None
    for i, a in enumerate(argv[1:-1]):
        if a == "--thresholds":
            thresholds_path = argv[1:][i + 1]
            args = [x for x in args if x != thresholds_path]
    if not args or len(args) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    current_path = args[0]
    baseline_path = args[1] if len(args) == 2 else default_baseline(current_path)
    if not os.path.exists(baseline_path):
        print("bench_diff: no baseline at %s; nothing to compare" % baseline_path)
        return 0
    if thresholds_path is None:
        candidate = os.path.join(os.path.dirname(baseline_path), "thresholds.json")
        thresholds_path = candidate if os.path.exists(candidate) else None

    try:
        with open(current_path, "r", encoding="utf-8") as f:
            current = flatten(json.load(f))
        with open(baseline_path, "r", encoding="utf-8") as f:
            baseline = flatten(json.load(f))
        default_rel, overrides, skip = load_thresholds(thresholds_path)
    except (OSError, ValueError) as e:
        print("bench_diff: %s" % e, file=sys.stderr)
        return 2

    violations, notes = diff(current, baseline, default_rel, overrides, skip)
    compared = len(set(current) & set(baseline))
    print("bench_diff: %s vs %s (%d metrics compared, threshold %.0f%%)"
          % (os.path.basename(current_path), baseline_path, compared, 100 * default_rel))
    if verbose:
        for n in notes:
            print("  note: %s" % n)
    for v in violations:
        if soft:
            print("::warning title=bench-diff::%s" % v)
        else:
            print("  REGRESSION %s" % v)
    if violations and not soft:
        print("bench_diff: %d violation(s)" % len(violations))
        return 1
    print("bench_diff: OK (%d violation(s)%s, %d new metric(s))"
          % (len(violations), " soft-reported" if soft and violations else "",
             len(notes)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
