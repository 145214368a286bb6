"""Pure helpers of the bgpsim benchmark: statistics, span arithmetic,
the golden-file filter, and the per-layer metric table.

Nothing here starts a process or touches the file system except
`load_spans`, so every function is unit-tested in tests/test_benchlib.py.
"""

import json
import math
import statistics

# Lines of all_figures_paper.txt that are not figure data: cargo's own
# progress lines and what all_figures prints on stderr (the golden was
# captured with stderr mixed in).
NOISE_PREFIXES = (
    "Finished ",
    "Running ",
    "running all figure sweeps",
    "== Figure ",
    "runner: ",
    "all claim checks passed",
)

# Spans of the decomposed pipeline: together they redo what one
# `experiments.run` span (ScenarioSpec::run) does.
DECOMPOSED = (
    "topology.build",
    "sim.run",
    "dataplane.traffic",
    "dataplane.epoch_index",
    "dataplane.replay",
    "metrics.compute",
    "dataplane.census",
)

# Spans around one call into a layer, with nothing of the benchmark's
# own work inside: only these count as covering wall time.
LAYER_LEAVES = DECOMPOSED + (
    "experiments.run",
    "metrics.measure_run",
    "runner.cache_store",
    "runner.cache_lookup",
    "runner.recover",
    "runner.worker_spawn",
    "serve.submit",
    "serve.first_result",
    "serve.stream",
)

# Spans whose wall time the layer spans must cover: one job (a runner job
# of the harness, or one isolated worker process) and one traced round of
# serve requests.
ROOTS = ("bench.job", "bench.round")

# Per-layer metrics of the traced run, with units; every workload reports
# every one of them.
LAYER_UNITS = {
    "topology.build_ms": "ms",
    "sim.run_ms": "ms",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.decisions": "count",
    "sim.updates_sent": "count",
    "sim.max_queue_depth": "count",
    "sim.path_changes": "count",
    "dataplane.traffic_ms": "ms",
    "dataplane.packets": "count",
    "dataplane.epoch_index_ms": "ms",
    "dataplane.epochs": "count",
    "dataplane.epoch_dense": "fraction",
    "dataplane.replay_ms": "ms",
    "dataplane.replay_walks": "count",
    "dataplane.memo_hit_ratio": "fraction",
    "dataplane.replay_ns_per_packet": "ns",
    "dataplane.census_ms": "ms",
    "dataplane.loops": "count",
    "metrics.compute_ms": "ms",
    "metrics.measure_run_ms": "ms",
    "experiments.run_ms": "ms",
    "runner.jobs": "count",
    "runner.executed": "count",
    "runner.cache_hit_ratio": "fraction",
    "runner.sim_ms": "ms",
    "runner.measure_ms": "ms",
    "runner.job_ms": "ms",
    "runner.cache_lookup_us": "us",
    "runner.cache_store_us": "us",
    "runner.recover_ms": "ms",
    "runner.worker_spawn_ms": "ms",
    "bench.trace_overhead_frac": "fraction",
    "bench.unattributed_frac": "fraction",
}


def median(values):
    return statistics.median(values)


def tail_percentile(values, min_beyond=10, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest candidate percentile that has at least `min_beyond`
    samples above it, as `(percentile, value, sample_count)` by nearest
    rank; None when even the median has too few samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in candidates:
        rank = math.ceil(q / 100.0 * n)
        if rank >= 1 and n - rank >= min_beyond:
            return q, ordered[rank - 1], n
    return None


def golden_lines(text):
    """The figure-data lines of an all_figures output (trailing blanks
    dropped, noise lines removed)."""
    out = [line.rstrip() for line in text.splitlines()]
    out = [line for line in out if not line.strip().startswith(NOISE_PREFIXES)]
    while out and not out[-1]:
        out.pop()
    while out and not out[0]:
        out.pop(0)
    return out


def union_length(intervals):
    """Total length covered by a set of half-open intervals."""
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def load_spans(paths):
    """Reads span, counter and error lines written by the harness (or
    the serve client) into `(spans, counters, errors)`; counters are
    summed or maxed across processes as each line says."""
    spans, counters, errors = [], {}, []
    for path in paths:
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                if "span" in rec:
                    spans.append(rec)
                elif "counter" in rec:
                    name, value = rec["counter"], rec["value"]
                    if rec.get("op") == "max":
                        counters[name] = max(counters.get(name, value), value)
                    else:
                        counters[name] = counters.get(name, 0) + value
                elif "error" in rec:
                    errors.append(rec["error"])
    return spans, counters, errors


def _key(span, field="id"):
    return (span["pid"], span[field])


def self_times(spans):
    """Self time of every span, in ns: its duration minus the part of
    it that its child spans cover. Returns {(pid, id): ns}."""
    children = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(_key(s, "parent"), []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        kids = [
            (max(lo, c["start_ns"]), min(hi, c["end_ns"]))
            for c in children.get(_key(s), [])
            if c["end_ns"] > lo and c["start_ns"] < hi
        ]
        out[_key(s)] = (hi - lo) - union_length(kids)
    return out


def self_time_by_name(spans):
    totals = {}
    selfs = self_times(spans)
    for s in spans:
        totals[s["span"]] = totals.get(s["span"], 0) + selfs[_key(s)]
    return totals


def unattributed(spans):
    """`(uncovered_ns, root_ns)`: over every root span (ROOTS), the wall
    time that no layer span (LAYER_LEAVES) descending from it covers.
    Work of the benchmark itself inside a root, such as its comparisons,
    counts as uncovered."""
    by_key = {_key(s): s for s in spans}

    def root_of(s):
        while s is not None:
            if s["span"] in ROOTS:
                return _key(s)
            parent = s.get("parent")
            s = by_key.get((s["pid"], parent)) if parent is not None else None
        return None

    leaves = {}
    for s in spans:
        if s["span"] in LAYER_LEAVES:
            root = root_of(s)
            if root is not None:
                leaves.setdefault(root, []).append(s)
    uncovered = total = 0
    for root in spans:
        if root["span"] not in ROOTS:
            continue
        lo, hi = root["start_ns"], root["end_ns"]
        layer = [
            (max(lo, s["start_ns"]), min(hi, s["end_ns"]))
            for s in leaves.get(_key(root), [])
            if s["end_ns"] > lo and s["start_ns"] < hi
        ]
        total += hi - lo
        uncovered += (hi - lo) - union_length(layer)
    return uncovered, total


def durations(spans, name):
    return [s["end_ns"] - s["start_ns"] for s in spans if s["span"] == name]


def layer_metrics(spans, counters):
    """The per-layer table (LAYER_UNITS) from a traced run's spans and
    counters. `bench.trace_overhead_frac` is the decomposed pipeline's
    wall over the untraced `experiments.run` wall of the same runs,
    minus one; the caller may replace it where the work differs."""

    def total_ms(name):
        return sum(durations(spans, name)) / 1e6

    def median_of(name, scale):
        d = durations(spans, name)
        return median(d) / scale if d else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    c = lambda name: counters.get(name, 0)
    sim_ns = sum(durations(spans, "sim.run"))
    replay_ns = sum(durations(spans, "dataplane.replay"))
    decomposed = sum(sum(durations(spans, n)) for n in DECOMPOSED)
    reference = sum(durations(spans, "experiments.run"))
    uncovered, root = unattributed(spans)
    return {
        "topology.build_ms": total_ms("topology.build"),
        "sim.run_ms": sim_ns / 1e6,
        "sim.events": c("sim.events"),
        "sim.ns_per_event": ratio(sim_ns, c("sim.events")),
        "sim.decisions": c("sim.decisions"),
        "sim.updates_sent": c("sim.updates_sent"),
        "sim.max_queue_depth": c("sim.max_queue_depth"),
        "sim.path_changes": c("sim.path_changes"),
        "dataplane.traffic_ms": total_ms("dataplane.traffic"),
        "dataplane.packets": c("dataplane.packets"),
        "dataplane.epoch_index_ms": total_ms("dataplane.epoch_index"),
        "dataplane.epochs": c("dataplane.epochs"),
        "dataplane.epoch_dense": ratio(c("dataplane.dense_indexes"), c("dataplane.indexes")),
        "dataplane.replay_ms": replay_ns / 1e6,
        "dataplane.replay_walks": c("dataplane.replay_walks"),
        "dataplane.memo_hit_ratio": ratio(c("dataplane.memo_hits"), c("dataplane.packets")),
        "dataplane.replay_ns_per_packet": ratio(replay_ns, c("dataplane.packets")),
        "dataplane.census_ms": total_ms("dataplane.census"),
        "dataplane.loops": c("dataplane.loops"),
        "metrics.compute_ms": total_ms("metrics.compute"),
        "metrics.measure_run_ms": total_ms("metrics.measure_run"),
        "experiments.run_ms": reference / 1e6,
        "runner.jobs": c("runner.jobs"),
        "runner.executed": c("runner.executed"),
        "runner.cache_hit_ratio": ratio(c("runner.cache_hits"), c("runner.jobs")),
        "runner.sim_ms": c("runner.sim_ms"),
        "runner.measure_ms": c("runner.measure_ms"),
        "runner.job_ms": c("runner.job_ms"),
        "runner.cache_lookup_us": median_of("runner.cache_lookup", 1e3),
        "runner.cache_store_us": median_of("runner.cache_store", 1e3),
        "runner.recover_ms": total_ms("runner.recover"),
        "runner.worker_spawn_ms": median_of("runner.worker_spawn", 1e6),
        "bench.trace_overhead_frac": ratio(decomposed, reference) - 1.0 if reference else 0.0,
        "bench.unattributed_frac": ratio(uncovered, root),
    }
