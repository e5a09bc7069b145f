#!/usr/bin/env python3
"""The repository benchmark: builds the library and the benchmark program,
runs one workload for a fixed time, checks every answer against the exact
count and prints every metric by name with its unit.

    python3 perfbench/run.py --workload paper_sim --seed 1 --seconds 10 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list (a separate, instrumented run). Every other line is a
human-readable report. The exit code is 0 only when the run completed
and every answer check passed (1 when a check failed, after the result
line); an attempt whose open-loop generator fell behind is invalid and
runs once more, and when the repeat falls behind too the run exits 3
without a result. Workload parameters live in perfbench/workloads.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import benchlib as bl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "tcq_perfbench"
SHAPES = ["select", "intersect", "join", "union"]
BUILD_TIMEOUT_S = 850
PROGRAM_TIMEOUT_S = 165


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources (src/) not found beside perfbench/")
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", "4",
                 "--target", "tcq_perfbench"]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_program(workload, conf, seed, seconds, trace):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    for key, value in conf["params"].items():
        cmd += ["--" + key, str(value)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=PROGRAM_TIMEOUT_S, check=False)
    if proc.stderr:
        log(proc.stderr[-4000:])
    if proc.returncode != 0:
        raise BenchError("tcq_perfbench exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------
# Metrics


def end_to_end(doc, conf):
    records = bl.rows(doc["queries"])
    ok = [r for r in records if r["status"] == bl.STATUS_OK]
    acct = bl.accounting(records, conf["miss_rule"])
    latencies = [r["latency_s"] for r in ok]
    return {
        "latency_ms_p50": 1e3 * bl.sliced_percentile(latencies, 50),
        "latency_ms_p95": 1e3 * bl.sliced_percentile(latencies, 95),
        "queries_per_s": len(ok) / doc["wall_s"],
        "deadline_miss_pct": 100.0 * acct["misses"] / max(1, len(records)),
        "failed_pct": 100.0 * acct["failed"] / max(1, len(records)),
        "ci_halfwidth_rel_mean": bl.shape_geomean(
            ok, lambda r: (r["ci_hi"] - r["ci_lo"]) / 2 / r["exact"], bl.mean),
        "ci_coverage_pct": 100.0 * sum(bl.covers(r) for r in ok)
                           / max(1, len(ok)),
        "setup_s": statistics.median(doc["setup_s"]),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }


def span_stats(doc):
    """Summed durations of the decomposed drives' spans by name (stage
    execution split by query shape), the drive records, and the per-layer
    self time per drive or, for serve and generator, per served request."""
    spans = bl.rows(doc["spans"])
    drives = bl.rows(doc["drives"])
    shape_of = {int(d["query"]): SHAPES[int(d["shape"])] for d in drives}
    sums = {}
    for s in spans:
        name = s["name"]
        if name == "execute_stage":
            name += "." + shape_of.get(int(s["query"]), "request")
        sums[name] = sums.get(name, 0.0) + s["end_s"] - s["start_s"]
    drive_spans = [s for s in spans if int(s["query"]) in shape_of]
    request_spans = [s for s in spans if int(s["query"]) not in shape_of]
    n_drives = max(1, len(drives))
    n_requests = max(1, sum(1 for s in request_spans if s["parent"] < 0))
    self_ms = {}
    for layer, total in bl.self_times(drive_spans).items():
        self_ms[layer] = 1e3 * total / n_drives
    for layer, total in bl.self_times(request_spans).items():
        if layer in ("serve", "generator"):
            self_ms[layer] = 1e3 * total / n_requests
    return sums, drives, self_ms


def trace_overhead_pct(records):
    """Mean over shapes of the traced / untraced median latency ratio."""
    ratios = []
    for shape in range(len(SHAPES)):
        traced = [r["latency_s"] for r in records
                  if r["shape"] == shape and r["traced"] == 1]
        plain = [r["latency_s"] for r in records
                 if r["shape"] == shape and r["traced"] == 0]
        if traced and plain:
            ratios.append(statistics.median(traced) / statistics.median(plain))
    return 100.0 * (bl.mean(ratios) - 1.0) if ratios else 0.0


def per_layer(doc, conf, e2e):
    records = bl.rows(doc["queries"])
    ok = [r for r in records if r["status"] == bl.STATUS_OK]
    traced = [r for r in ok if r["traced"] == 1]
    stages = bl.rows(doc["stages"])
    sums, drives, self_ms = span_stats(doc)
    drive_stages = sum(d["stages"] for d in drives)
    n_drives = max(1, len(drives))
    drawn = sum(r["blocks_sampled"] + r["blocks_wasted"] for r in ok)
    wall_clock = conf["timebase"] == "wall"
    serve = doc.get("serve")
    cache = doc.get("cache")

    m = {
        "latency_ms_p95": e2e["latency_ms_p95"],
        "deadline_miss_pct": e2e["deadline_miss_pct"],
        "failed_pct": e2e["failed_pct"],
        "ci_halfwidth_rel_mean": e2e["ci_halfwidth_rel_mean"],
        "ci_coverage_pct": e2e["ci_coverage_pct"],
        "samples": len(records),
        "generator_lag_ms_p95":
            1e3 * bl.percentile([r["lag_s"] for r in records], 95)
            if conf["loop"] == "open" else 0.0,
        "ra.parse_expand_us": 1e6 * sums.get("parse_expand", 0.0) / n_drives,
        "ra.terms_per_query": bl.mean([d["terms"] for d in drives]),
        "engine.outside_clock_ms":
            1e3 * bl.mean([r["latency_s"] - r["elapsed_s"] for r in ok])
            if wall_clock else 0.0,
        "engine.overspend_ms": 1e3 * bl.mean([r["overspend_s"] for r in ok]),
        "engine.stages_per_query": bl.mean([r["stages_run"] for r in ok]),
        "engine.wasted_block_pct":
            100.0 * sum(r["blocks_wasted"] for r in ok) / max(1, drawn),
        "engine.plan_us": 1e6 * sums.get("plan", 0.0) / n_drives,
        "timectrl.ssd_probes_per_stage":
            sum(r["ssd_probes"] for r in traced)
            / max(1, sum(r["stages_run"] for r in traced)),
        "cost.stage_rel_err_p50": bl.percentile(
            [abs(s["actual_s"] - s["predicted_s"]) / s["predicted_s"]
             for s in stages if s["predicted_s"] > 0], 50),
        "cost.stage_underpredict_pct":
            100.0 * sum(s["actual_s"] > s["predicted_s"] for s in stages)
            / max(1, len(stages)),
        "sampling.draw_ms": 1e3 * sums.get("draw", 0.0) / n_drives,
        "sampling.blocks_per_query": drawn / max(1, len(ok)),
        "sampling.ns_per_block":
            1e9 * sums.get("draw", 0.0)
            / max(1, sum(d["blocks"] for d in drives)),
        "storage.catalog_build_s": statistics.median(doc["catalog_build_s"]),
        "storage.bytes_per_user_byte":
            doc["catalog_resident_bytes"] / doc["catalog_user_bytes"],
        "exec.ns_per_tuple":
            1e9 * sum(v for k, v in sums.items()
                      if k.startswith("execute_stage."))
            / max(1, sum(d["tuples"] for d in drives)),
        "exec.tuples_scanned_per_query":
            bl.mean([r["tuples_scanned"] for r in traced]),
        "exec.teardown_ms": 1e3 * sums.get("teardown", 0.0) / n_drives,
        "estimator.us_per_stage":
            1e6 * sums.get("estimate", 0.0) / max(1, drive_stages),
        "parallel.speedup":
            sum(s["work_s"] for s in stages)
            / max(1e-12, sum(s["span_s"] for s in stages)),
        "parallel.tasks_per_stage": bl.mean([s["tasks"] for s in stages]),
        "cache.replay_ratio":
            cache["replayed_blocks"] / max(1, drawn) if cache else 0.0,
        "cache.prior_hit_ratio":
            cache["prior_hits"]
            / max(1, cache["prior_hits"] + cache["prior_misses"])
            if cache else 0.0,
        "serve.queue_wait_ms_p95":
            1e3 * bl.percentile([r["queue_wait_s"] for r in ok], 95)
            if serve else 0.0,
        "serve.exec_ms_p50":
            1e3 * bl.percentile([r["serve_latency_s"] - r["queue_wait_s"]
                                 for r in ok], 50) if serve else 0.0,
        "obs.trace_overhead_pct": trace_overhead_pct(ok),
    }
    for i, shape in enumerate(SHAPES):
        shape_stages = sum(d["stages"] for d in drives if d["shape"] == i)
        m["exec.stage_ms." + shape] = (
            1e3 * sums.get("execute_stage." + shape, 0.0)
            / max(1, shape_stages))
    for op in ("block_read", "predicate", "sort_compare", "merge_compare",
               "tuple_move"):
        m["sim.ops." + op] = bl.mean([r["ops_" + op] for r in traced])
    for outcome in ("admitted", "queued", "shrunk", "rejected"):
        m["serve.outcome_pct." + outcome] = (
            100.0 * serve[outcome] / max(1, serve["submitted"])
            if serve else 0.0)
    for layer in ("bench", "ra", "engine", "sampling", "exec", "estimator",
                  "serve", "generator"):
        m["selftime_ms." + layer] = self_ms.get(layer, 0.0)
    return m


# ---------------------------------------------------------------------
# Answer checks


def check(doc, conf, seed):
    """Returns (problems, notes): reasons the run's answers are wrong, and
    report lines (digest, simulated operation totals)."""
    problems = []
    notes = []
    for o in doc["oracle"]:
        if o["expected"] >= 0 and o["exact"] != o["expected"]:
            problems.append("oracle: ExactCount(%s) = %d, generator says %d"
                            % (o["text"], o["exact"], o["expected"]))
    records = bl.rows(doc["queries"])
    ok = [r for r in records if r["status"] == bl.STATUS_OK]
    acct = bl.accounting(records, conf["miss_rule"])
    if acct["errors"]:
        problems.append("%d queries failed with an untyped error"
                        % acct["errors"])
    bad = [(int(r["idx"]), p) for r in ok for p in bl.answer_problems(r)]
    if bad:
        problems.append("%d malformed answers, first: query %d: %s"
                        % (len(bad), bad[0][0], bad[0][1]))
    # Aggregate coverage is gated only where the answers are independent
    # samples; a workload that replays cached samples has no floor.
    floor = conf["coverage_floor_pct"]
    coverage = 100.0 * sum(bl.covers(r) for r in ok) / max(1, len(ok))
    if floor is not None and coverage < floor:
        problems.append("CI coverage %.1f%% below the floor %.1f%%"
                        % (coverage, floor))
    if not ok:
        problems.append("no query answered")
    for error in doc.get("drive_errors", []):
        problems.append("decomposed drive: " + error)
    for d in bl.rows(doc["drives"]) if "drives" in doc else []:
        if d["estimate_checked"] and not d["estimate_match"]:
            problems.append("decomposed drive of query %d disagrees with "
                            "the engine's estimate" % d["idx"])
    serve = doc.get("serve")
    if serve:
        if serve["submitted"] != len(records):
            problems.append("server saw %d submissions, generator sent %d"
                            % (serve["submitted"], len(records)))
        parts = sum(serve[k] for k in ("admitted", "shrunk", "queued",
                                       "rejected"))
        if parts != serve["submitted"]:
            problems.append("admission outcomes do not partition "
                            "submissions")
        rejected = sum(r["status"] == bl.STATUS_REJECTED for r in records)
        if rejected != serve["rejected"]:
            problems.append("%d rejected answers, server counted %d"
                            % (rejected, serve["rejected"]))
    if "digest" in doc:
        digest = bl.rows(doc["digest"])
        timed = {int(r["idx"]): r for r in records}
        for r in digest:
            if r["status"] != bl.STATUS_OK:
                problems.append("determinism pass: query %d failed"
                                % r["idx"])
                continue
            t = timed.get(int(r["idx"]))
            if t is not None and any(
                    t[k] != r[k] for k in ("estimate", "variance", "ci_lo",
                                           "ci_hi", "blocks_sampled",
                                           "elapsed_s", "stages_run")):
                problems.append("query %d is not deterministic" % r["idx"])
        notes.append("result_digest %s over %d queries"
                     % (bl.result_digest(seed, digest), len(digest)))
        for op in ("block_read", "predicate", "sort_compare",
                   "merge_compare", "tuple_move"):
            notes.append("sim.ops.%s total %d" % (
                op, sum(int(r["ops_" + op]) for r in digest)))
    return problems, notes


def generator_lag_problem(doc, conf):
    if conf["loop"] != "open":
        return None
    lag_ms = 1e3 * bl.percentile(
        [r["lag_s"] for r in bl.rows(doc["queries"])], 95)
    if lag_ms > conf["max_generator_lag_ms"]:
        return ("generator fell behind: lag p95 %.3f ms > %.3f ms allowed"
                % (lag_ms, conf["max_generator_lag_ms"]))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        raise BenchError("unknown workload " + args.workload)
    conf = workloads[args.workload]
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")

    build()
    # A stall of the shared host can leave the open-loop generator behind
    # on correct code; such an attempt is not scored and runs once more.
    for attempt in (1, 2):
        doc = run_program(args.workload, conf, args.seed, args.seconds,
                          args.trace)
        lag = generator_lag_problem(doc, conf)
        if not lag:
            break
        print("attempt %d invalid, not scored: %s" % (attempt, lag))
    else:
        return 3

    problems, notes = check(doc, conf, args.seed)
    e2e = end_to_end(doc, conf)
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = per_layer(doc, conf, e2e) if args.trace else e2e
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in bench["per_layer"]})

    records = bl.rows(doc["queries"])
    acct = bl.accounting(records, conf["miss_rule"])
    print("workload %s seed %d trace %d: %d queries, %d failed, %d missed, "
          "%.2f s measured, exact-count oracle %.2f s"
          % (args.workload, args.seed, args.trace, acct["attempted"],
             acct["failed"], acct["misses"], doc["wall_s"], doc["oracle_s"]))
    for note in notes:
        print(note)
    for name, value in e2e.items():
        print("%-32s %14.6g %s" % (name, value, units.get(name, "")))
    if args.trace:
        for name, value in values.items():
            if name not in e2e:
                print("%-32s %14.6g %s" % (name, value, units.get(name, "")))
    for problem in problems:
        print("CHECK FAILED: " + problem)

    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError("metrics not computed: " + ", ".join(missing))
    result = {
        "correct": not problems,
        "attempted": acct["attempted"],
        "failed": acct["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as err:
        log("perfbench: " + str(err))
        sys.exit(2)
