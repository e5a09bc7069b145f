"""Helpers of the repository benchmark: percentiles, answer accounting,
the result digest, span self time and run-to-run spread.

Pure functions over the records tcq_perfbench prints, kept apart from
run.py so test_benchlib.py can check them without building anything.
"""

import hashlib
import math
import statistics


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    sample at or below it. p in (0, 100]; an empty sample gives 0."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def sliced_percentile(values, p, slices=9):
    """Median over `slices` consecutive, near-equal slices of `values` (in
    time order) of each slice's p-th percentile. A stall of the shared
    host that covers fewer than half the slices moves it little; a change
    of the system's speed moves every slice. Falls back to the plain
    percentile when there are fewer values than slices."""
    n = len(values)
    if n < slices:
        return percentile(values, p)
    parts = [values[i * n // slices:(i + 1) * n // slices]
             for i in range(slices)]
    return statistics.median(percentile(part, p) for part in parts)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def shape_geomean(records, value, summary):
    """Geometric mean over query shapes of summary(values of one shape),
    where value(record) picks the measured value. A workload rotates
    through shapes whose values differ by orders of magnitude; the
    geometric mean weighs each shape equally whatever the mix."""
    by_shape = {}
    for r in records:
        by_shape.setdefault(r["shape"], []).append(value(r))
    summaries = [summary(v) for v in by_shape.values()]
    logs = [math.log(s) for s in summaries if s > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def rows(table):
    """{"fields": [...], "rows": [[...]]} -> list of dicts."""
    fields = table["fields"]
    return [dict(zip(fields, row)) for row in table["rows"]]


STATUS_OK = 0
STATUS_REJECTED = 1  # typed admission rejection
STATUS_ERROR = 2


def is_miss(record, rule):
    """Whether one submitted query missed its deadline. A non-OK result
    always counts as a miss. `rule` names what is compared with the
    record's deadline: "elapsed" (the engine's own elapsed time, for the
    simulated timebase) or "latency" (caller-observed latency, measured
    from the due time in an open loop)."""
    if record["status"] != STATUS_OK:
        return True
    if rule == "elapsed":
        return record["elapsed_s"] > record["deadline_s"]
    if rule == "latency":
        return record["latency_s"] > record["deadline_s"]
    raise ValueError("unknown miss rule " + rule)


def accounting(records, rule):
    """Attempted, failed (non-OK), errors (non-OK and not a typed
    rejection) and deadline misses of a run."""
    failed = sum(1 for r in records if r["status"] != STATUS_OK)
    errors = sum(1 for r in records if r["status"] == STATUS_ERROR)
    misses = sum(1 for r in records if is_miss(r, rule))
    return {"attempted": len(records), "failed": failed, "errors": errors,
            "misses": misses}


def answer_problems(record):
    """Reasons one OK answer is malformed: non-finite numbers, negative
    variance, or an interval that does not contain its own estimate."""
    problems = []
    for key in ("estimate", "variance", "ci_lo", "ci_hi"):
        value = record[key]
        if value is None or not math.isfinite(value):
            problems.append(key + " is not finite")
    if problems:
        return problems
    if record["variance"] < 0:
        problems.append("negative variance")
    if not record["ci_lo"] <= record["estimate"] <= record["ci_hi"]:
        problems.append("interval does not contain the estimate")
    return problems


def covers(record):
    return record["ci_lo"] <= record["exact"] <= record["ci_hi"]


def result_digest(seed, records):
    """SHA-256 over (seed, query index, estimate, variance, blocks
    sampled) of each record, floats in exact hex form. Equal digests mean
    bit-identical answers."""
    h = hashlib.sha256()
    for r in records:
        line = "%d,%d,%s,%s,%d\n" % (
            seed, int(r["idx"]), float(r["estimate"]).hex(),
            float(r["variance"]).hex(), int(r["blocks_sampled"]))
        h.update(line.encode())
    return h.hexdigest()


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per-layer self time: each span's duration minus the part of it its
    child spans cover, summed by layer. `spans` are dicts with id, parent,
    layer, start_s and end_s."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    totals = {}
    for s in spans:
        kids = [(c["start_s"], c["end_s"]) for c in children.get(s["id"], [])]
        duration = s["end_s"] - s["start_s"]
        own = duration - covered_length(kids, s["start_s"], s["end_s"])
        totals[s["layer"]] = totals.get(s["layer"], 0.0) + own
    return totals


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles, exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf
