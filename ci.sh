#!/usr/bin/env bash
# CI entry point. Runs the correctness-tooling stages in order and prints
# a summary table; the script exits non-zero iff any stage FAILs.
#
#   ./ci.sh                      # every stage
#   ./ci.sh lint release         # just those stages, in that order
#   ./ci.sh --release            # legacy spelling of "release"
#   ./ci.sh --tsan               # legacy spelling of "tsan"
#
# Stages:
#   lint          tools/tcq_lint.py over the tree + its self-test; archives
#                 per-rule hit counts at build/artifacts/lint_report.json
#   format-check  clang-format --dry-run -Werror (SKIP if tool absent)
#   tidy          clang-tidy with the checked-in .clang-tidy
#                 (SKIP if tool absent)
#   thread-safety clang -Wthread-safety -Werror=thread-safety over every
#                 src/ TU, checking the TCQ_GUARDED_BY/TCQ_REQUIRES
#                 capability annotations (SKIP if clang++ absent; GCC
#                 cannot evaluate the attributes). Reuses the tooling
#                 compile_commands.json emitted for clang-tidy.
#   release       Release build (-Wall -Wextra -Werror) + full ctest
#   trace-smoke   traced quickstart run; validates + archives the Chrome
#                 trace JSON at build/artifacts/trace_smoke.json, then
#                 gates disabled-tracing overhead via bench/trace_overhead
#   warm-bench    cold-vs-warm comparison via bench/warm_start; archives
#                 the JSON at build/artifacts/warm_start.json and gates
#                 the >=20% fresh-draw savings of the warm run
#   serve-bench   4x-overload serving run via bench/serve_load (admission
#                 on vs off); archives build/artifacts/serve_load.json,
#                 refreshes the top-level BENCH_serve.json summary, and
#                 gates the <=5% deadline-miss rate of admitted queries
#                 (and that admission OFF violates it)
#   fault-bench   the same 4x-overload harness with deterministic fault
#                 injection armed (5% transient + 1% permanent) via
#                 bench/fault_tolerance; archives build/artifacts/
#                 fault_tolerance.json, refreshes BENCH_fault.json, and
#                 gates the <=5% miss rate and >=80% exact-count CI
#                 coverage of the degraded answers
#   pred-bench    hybrid-selectivity-predictor comparison on a drifting
#                 join workload via bench/sel_predictor; archives
#                 build/artifacts/sel_predictor.json, refreshes
#                 BENCH_pred.json, and gates the >=10% wasted-draw savings
#                 and lower stage-cost error vs the prior-cache baseline
#   perfbench-smoke
#                 the repository benchmark's unit tests (perfbench/
#                 test_benchlib.py), then a 5 s paper_sim run at seed 1
#                 whose result digest and simulated-operation totals must
#                 equal the baseline in perfbench/workloads.json and whose
#                 peak_rss_mb must not exceed 300 (the resident paper
#                 catalogs, one cell array per block); archives the report at
#                 build/artifacts/perfbench_smoke.txt. Then a 5 s
#                 serve_small run at seed 1, which must check every
#                 served answer correct with none failed; archives its
#                 report at build/artifacts/perfbench_serve_smoke.txt.
#                 Then a 5 s traced wall_deadline run at seed 1, which
#                 must exit 0: its decomposed drives re-run each traced
#                 query serially with no pool, and run.py fails when a
#                 drive's estimate or variance differs from the 4-thread
#                 engine's, so the chunked scan/selection/prefix passes
#                 and the forked sort are checked on 100k-tuple runs;
#                 archives build/artifacts/perfbench_wall_smoke.txt
#   paper-tables  the paper's Tables 5.1-5.3 (bench/table_5_{1,2,3}) and
#                 EXPERIMENTS.md A9 (bench/error_constrained --reps 100),
#                 whose outputs must match bench/paper_tables.sha256 byte
#                 for byte; archives them at build/artifacts/paper_tables/
#   tsan          ThreadSanitizer build + ctest (contracts armed)
#   asan          AddressSanitizer build + ctest (contracts armed)
#   ubsan         UndefinedBehaviorSanitizer build + ctest (contracts armed)
#
# Every sanitizer configuration compiles with TCQ_ENABLE_DCHECKS (see
# CMakeLists.txt), so TCQ_DCHECK / TCQ_CHECK_INVARIANT contracts execute
# under the sanitizers rather than compiling away with NDEBUG.
set -euo pipefail
cd "$(dirname "$0")"

jobs="$(nproc 2>/dev/null || echo 2)"
ALL_STAGES=(lint format-check tidy thread-safety release trace-smoke warm-bench serve-bench fault-bench pred-bench perfbench-smoke paper-tables tsan asan ubsan)

usage() {
  echo "usage: $0 [stage...]   stages: ${ALL_STAGES[*]}" >&2
  exit 2
}

# --- stage implementations -------------------------------------------------
# Each stage_* function runs with `set -e` suspended by the caller and
# returns 0 (PASS), 1 (FAIL), or 77 (SKIP: required tool missing).

cxx_sources() {
  git ls-files -- '*.cc' '*.h' 2>/dev/null \
    || find src bench tests examples tools -name '*.cc' -o -name '*.h'
}

stage_lint() {
  mkdir -p build/artifacts &&
    python3 tools/tcq_lint.py --root . \
      --report-json build/artifacts/lint_report.json &&
    python3 tools/tcq_lint_test.py
}

stage_format_check() {
  command -v clang-format >/dev/null 2>&1 || return 77
  # shellcheck disable=SC2046
  clang-format --dry-run -Werror $(cxx_sources)
}

ensure_compile_db() {
  # One shared tooling build tree: its compile_commands.json (exported by
  # default, see CMakeLists.txt) serves both clang-tidy and the
  # thread-safety pass. TCQ_WERROR=OFF so tooling runs on compilers with
  # newer warning sets are not blocked by the warning-clean gate — the
  # release stage enforces that.
  cmake -B build-tooling -S . -DCMAKE_BUILD_TYPE=Release \
        -DTCQ_WERROR=OFF >/dev/null &&
    [[ -f build-tooling/compile_commands.json ]]
}

stage_tidy() {
  command -v clang-tidy >/dev/null 2>&1 || return 77
  ensure_compile_db &&
    git ls-files -- 'src/*.cc' 'bench/*.cc' 'examples/*.cc' |
      xargs -r clang-tidy -p build-tooling --quiet
}

stage_thread_safety() {
  # clang is the only compiler that evaluates the capability attributes;
  # without it the annotations are inert no-ops and there is nothing to
  # check (the unannotated-guarded-field lint rule still enforces
  # coverage under GCC).
  command -v clang++ >/dev/null 2>&1 || return 77
  ensure_compile_db &&
    python3 - <<'EOF_PY'
import json
import shlex
import subprocess
import sys

with open("build-tooling/compile_commands.json") as f:
    db = json.load(f)

failed = 0
checked = 0
for entry in sorted(db, key=lambda e: e["file"]):
    path = entry["file"]
    if "/src/" not in path or not path.endswith(".cc"):
        continue
    args = shlex.split(entry["command"])[1:]
    # Drop the object output; keep include paths, defines and -std.
    keep = []
    skip_next = False
    for a in args:
        if skip_next:
            skip_next = False
            continue
        if a == "-o":
            skip_next = True
            continue
        if a in ("-c", path):
            continue
        keep.append(a)
    cmd = (["clang++"] + keep +
           ["-fsyntax-only", "-Wno-everything", "-Wthread-safety",
            "-Werror=thread-safety", path])
    proc = subprocess.run(cmd, cwd=entry["directory"])
    checked += 1
    if proc.returncode != 0:
        failed += 1
if failed:
    print(f"thread-safety: {failed}/{checked} TU(s) failed", file=sys.stderr)
    sys.exit(1)
print(f"thread-safety: {checked} src/ TUs clean under "
      "-Werror=thread-safety")
EOF_PY
}

build_and_test() { # <build-dir> <extra cmake args...>
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" &&
    cmake --build "$dir" -j "$jobs" &&
    (cd "$dir" && ctest --output-on-failure -j "$jobs")
}

stage_release() {
  build_and_test build -DCMAKE_BUILD_TYPE=Release
}

stage_trace_smoke() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release &&
    cmake --build build -j "$jobs" --target quickstart trace_overhead &&
    mkdir -p build/artifacts &&
    ./build/examples/quickstart --trace build/artifacts/trace_smoke.json \
      >/dev/null &&
    python3 - <<'EOF' &&
import json
with open("build/artifacts/trace_smoke.json") as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace archived but traceEvents is empty"
phases = {e["ph"] for e in events}
assert "X" in phases, "no complete spans in the smoke trace"
print(f"trace-smoke: {len(events)} events archived at "
      "build/artifacts/trace_smoke.json")
EOF
    ./build/bench/trace_overhead
}

stage_warm_bench() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release &&
    cmake --build build -j "$jobs" --target warm_start &&
    mkdir -p build/artifacts &&
    ./build/bench/warm_start | tee build/artifacts/warm_start.json &&
    python3 - <<'EOF_PY'
import json
with open("build/artifacts/warm_start.json") as f:
    result = json.load(f)
assert result["ok"], "warm_start bench gate failed"
print(f"warm-bench: {result['fresh_savings_pct']:.1f}% fresh-draw savings "
      "archived at build/artifacts/warm_start.json")
EOF_PY
}

stage_serve_bench() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release &&
    cmake --build build -j "$jobs" --target serve_load &&
    mkdir -p build/artifacts &&
    ./build/bench/serve_load | tee build/artifacts/serve_load.json &&
    python3 - <<'EOF_PY'
import json
with open("build/artifacts/serve_load.json") as f:
    result = json.load(f)
assert result["ok"], "serve_load bench gate failed"
on = next(r for r in result["runs"] if r["admission"])
off = next(r for r in result["runs"] if not r["admission"])
summary = {
    "bench": "serve_load",
    "n": result["n"],
    "overload": result["overload"],
    "t_svc_s": result["t_svc_s"],
    "deadline_s": result["deadline_s"],
    "admission_on": {k: on[k] for k in
                     ("qps", "p99_latency_s", "miss_pct", "admitted",
                      "shrunk", "queued", "rejected", "completed")},
    "admission_off": {k: off[k] for k in
                      ("qps", "p99_latency_s", "miss_pct", "admitted",
                       "shrunk", "queued", "rejected", "completed")},
    "ok": result["ok"],
}
with open("BENCH_serve.json", "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
print(f"serve-bench: admission on {on['miss_pct']:.1f}% miss / "
      f"off {off['miss_pct']:.1f}% miss; summary at BENCH_serve.json")
EOF_PY
}

stage_fault_bench() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release &&
    cmake --build build -j "$jobs" --target fault_tolerance &&
    mkdir -p build/artifacts &&
    ./build/bench/fault_tolerance | tee build/artifacts/fault_tolerance.json &&
    python3 - <<'EOF_PY'
import json
with open("build/artifacts/fault_tolerance.json") as f:
    result = json.load(f)
assert result["ok"], "fault_tolerance bench gate failed"
summary = {
    "bench": "fault_tolerance",
    "n": result["n"],
    "overload": result["overload"],
    "t_svc_s": result["t_svc_s"],
    "transient_rate": result["transient_rate"],
    "permanent_rate": result["permanent_rate"],
    "miss_pct": result["miss_pct"],
    "coverage_pct": result["coverage_pct"],
    "mean_rel_err_pct": result["mean_rel_err_pct"],
    "transient_faults": result["transient_faults"],
    "retries": result["retries"],
    "blocks_lost": result["blocks_lost"],
    "degraded": result["degraded"],
    "max_widening": result["max_widening"],
    "breaker_sheds": result["breaker_sheds"],
    "ok": result["ok"],
}
with open("BENCH_fault.json", "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
print(f"fault-bench: {result['miss_pct']:.1f}% miss, "
      f"{result['coverage_pct']:.1f}% CI coverage under faults; "
      "summary at BENCH_fault.json")
EOF_PY
}

stage_pred_bench() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release &&
    cmake --build build -j "$jobs" --target sel_predictor &&
    mkdir -p build/artifacts &&
    ./build/bench/sel_predictor | tee build/artifacts/sel_predictor.json &&
    python3 - <<'EOF_PY'
import json
with open("build/artifacts/sel_predictor.json") as f:
    result = json.load(f)
assert result["ok"], "sel_predictor bench gate failed"
assert result["wasted_savings_pct"] >= result["min_savings_pct"]
assert (result["predictor"]["stage_cost_overrun_err"]
        < result["prior_cache"]["stage_cost_overrun_err"])
summary = {
    "bench": "sel_predictor",
    "wasted_savings_pct": result["wasted_savings_pct"],
    "min_savings_pct": result["min_savings_pct"],
    "overrun_err_predictor": result["predictor"]["stage_cost_overrun_err"],
    "overrun_err_prior_cache": result["prior_cache"]["stage_cost_overrun_err"],
    "stage_cost_err_predictor": result["predictor"]["stage_cost_err"],
    "stage_cost_err_prior_cache": result["prior_cache"]["stage_cost_err"],
    "zero_estimate_runs_predictor": result["predictor"]["zero_estimate_runs"],
    "zero_estimate_runs_prior_cache": result["prior_cache"]["zero_estimate_runs"],
    "ok": result["ok"],
}
with open("BENCH_pred.json", "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
print(f"pred-bench: {result['wasted_savings_pct']:.1f}% wasted-draw savings, "
      f"stage-cost overrun error "
      f"{result['predictor']['stage_cost_overrun_err']:.3f} vs "
      f"{result['prior_cache']['stage_cost_overrun_err']:.3f}; "
      "summary at BENCH_pred.json")
EOF_PY
}

stage_perfbench_smoke() {
  # A pure speed change never moves the simulated work: the first 32
  # paper_sim queries at seed 1 must reproduce the recorded digest and
  # operation totals exactly. The run's peak RSS is dominated by the
  # resident catalogs, one flat cell array per block (about 261 MB), so a
  # block that goes back to one heap allocation per row, or grows a
  # second in-memory copy of its rows, pushes it past 300 MB and fails
  # here too. Then the serve
  # path's answer checks: every answer a short serve_small run serves
  # must pass them, with none failed. Last, a traced wall_deadline run
  # checks the parallel path at paper scale: every decomposed drive
  # (serial, no pool) must reproduce the 4-thread engine's estimate.
  mkdir -p build/artifacts &&
    python3 perfbench/test_benchlib.py &&
    python3 perfbench/run.py --workload paper_sim --seed 1 --seconds 5 \
      --trace 0 | tee build/artifacts/perfbench_smoke.txt &&
    python3 - <<'EOF_PY' &&
import json
import re
with open("perfbench/workloads.json") as f:
    baseline = json.load(f)["workloads"]["paper_sim"]["baseline"][
        "seed_1_first_32_queries"]
with open("build/artifacts/perfbench_smoke.txt") as f:
    report = f.read()
found = {}
m = re.search(r"^result_digest (\S+) over", report, re.M)
if m:
    found["result_digest"] = m.group(1)
for m in re.finditer(r"^(sim\.ops\.\w+) total (\d+)$", report, re.M):
    found[m.group(1)] = int(m.group(2))
diffs = [f"{k}: expected {v}, got {found.get(k)}"
         for k, v in baseline.items() if found.get(k) != v]
PEAK_RSS_LIMIT_MB = 300.0
peak_rss_mb = json.loads(report.strip().splitlines()[-1])["metrics"][
    "peak_rss_mb"]["value"]
if peak_rss_mb > PEAK_RSS_LIMIT_MB:
    diffs.append(f"peak_rss_mb {peak_rss_mb:.1f} above "
                 f"{PEAK_RSS_LIMIT_MB:.0f}")
assert not diffs, "perfbench-smoke: " + "; ".join(diffs)
print(f"perfbench-smoke: digest and {len(baseline) - 1} sim.ops totals "
      f"match the paper_sim baseline; peak_rss_mb {peak_rss_mb:.1f} "
      f"<= {PEAK_RSS_LIMIT_MB:.0f}")
EOF_PY
    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 5 \
      --trace 0 | tee build/artifacts/perfbench_serve_smoke.txt &&
    python3 - <<'EOF_PY' &&
import json
with open("build/artifacts/perfbench_serve_smoke.txt") as f:
    result = json.loads(f.read().strip().splitlines()[-1])
assert result["correct"] is True, \
    "perfbench-smoke: serve_small answers failed their checks"
assert result["failed"] == 0, \
    f"perfbench-smoke: {result['failed']} serve_small queries failed"
print(f"perfbench-smoke: serve_small {result['attempted']} answers checked, "
      "none failed")
EOF_PY
    python3 perfbench/run.py --workload wall_deadline --seed 1 --seconds 5 \
      --trace 1 | tee build/artifacts/perfbench_wall_smoke.txt
}

stage_paper_tables() {
  # The tables are pure functions of the simulator at their fixed seeds,
  # so any change that should not move simulated work keeps them byte
  # for byte. A change that moves it re-measures the tables, updates
  # EXPERIMENTS.md and re-records the digests.
  local out=build/artifacts/paper_tables
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release &&
    cmake --build build -j "$jobs" --target table_5_1_selection \
      table_5_2_intersection table_5_3_join error_constrained &&
    mkdir -p "$out" &&
    ./build/bench/table_5_1_selection >"$out/table_5_1_selection.txt" &&
    ./build/bench/table_5_2_intersection >"$out/table_5_2_intersection.txt" &&
    ./build/bench/table_5_3_join >"$out/table_5_3_join.txt" &&
    ./build/bench/error_constrained --reps 100 >"$out/error_constrained.txt" &&
    (cd "$out" && sha256sum --check ../../../bench/paper_tables.sha256)
}

stage_tsan() {
  # TSan aborts the process on the first race (halt_on_error), so a green
  # ctest run doubles as a no-race assertion.
  TSAN_OPTIONS="halt_on_error=1" \
    build_and_test build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTCQ_SANITIZE=thread
}

stage_asan() {
  build_and_test build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTCQ_SANITIZE=address
}

stage_ubsan() {
  # -fno-sanitize-recover=undefined (set in CMakeLists.txt) turns any UB
  # report into a hard failure.
  build_and_test build-ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTCQ_SANITIZE=undefined
}

# --- stage selection -------------------------------------------------------

stages=()
for arg in "$@"; do
  case "$arg" in
    --release) stages+=(release) ;;
    --tsan) stages+=(tsan) ;;
    -h | --help) usage ;;
    *)
      ok=0
      for s in "${ALL_STAGES[@]}"; do
        [[ "$arg" == "$s" ]] && ok=1
      done
      [[ "$ok" == 1 ]] || { echo "ci.sh: unknown stage '$arg'" >&2; usage; }
      stages+=("$arg")
      ;;
  esac
done
[[ ${#stages[@]} -gt 0 ]] || stages=("${ALL_STAGES[@]}")

# --- runner ----------------------------------------------------------------

declare -A result
failed=0
for stage in "${stages[@]}"; do
  echo
  echo "=== stage: $stage ==="
  fn="stage_${stage//-/_}"
  rc=0
  "$fn" || rc=$?
  case "$rc" in
    0) result[$stage]=PASS ;;
    77)
      result[$stage]=SKIP
      echo "ci.sh: $stage skipped (required tool not installed)"
      ;;
    *)
      result[$stage]=FAIL
      failed=1
      ;;
  esac
done

echo
echo "=== ci.sh summary ==="
for stage in "${stages[@]}"; do
  printf '  %-14s %s\n' "$stage" "${result[$stage]}"
done

if [[ "$failed" != 0 ]]; then
  echo "ci.sh: FAILED"
  exit 1
fi
echo "ci.sh: all requested stages passed or were skipped"
