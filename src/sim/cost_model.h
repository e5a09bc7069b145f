#ifndef TCQ_SIM_COST_MODEL_H_
#define TCQ_SIM_COST_MODEL_H_

namespace tcq {

/// Primitive-action cost constants (seconds) used by the simulated storage
/// and execution engine. Every block access, tuple comparison, etc. charges
/// its constant to the `CostLedger`, which advances the `VirtualClock`.
///
/// The defaults are calibrated to late-1980s workstation magnitudes (the
/// paper's SUN 3/60) so that the paper's time quotas — 10 s for a
/// 2000-block relation scan workload, 2.5 s for a join — are binding and
/// sample only a small fraction of the relations, as in §5 of the paper.
/// The *shape* of the reproduced tables is insensitive to the exact values;
/// they set the overall scale.
struct CostModel {
  /// Random read of one disk block into memory.
  double block_read_s = 0.060;
  /// Write of one output/temporary page to disk.
  double block_write_s = 0.040;
  /// Evaluating one comparison of a selection formula against a tuple.
  double predicate_compare_s = 0.004;
  /// One comparison during an (external) sort.
  double sort_compare_s = 0.00030;
  /// One tuple comparison during a merge (intersect/join/dedup scan).
  double merge_compare_s = 0.00040;
  /// Copying one tuple (to a temporary file buffer or output page).
  double tuple_move_s = 0.00060;
  /// Fixed per-stage overhead: selectivity revision, sample-size search,
  /// drawing random block numbers, estimator recomputation (Figure 3.1
  /// bookkeeping outside operator evaluation).
  double stage_overhead_s = 0.150;
  /// Fixed per-operator setup cost (the paper's constant `C_*` terms).
  double op_setup_s = 0.010;

  /// Timing-noise parameters. A real machine's stage times fluctuate
  /// around the cost formulas — OS scheduling, disk seek variance — and
  /// that fluctuation is exactly what the paper's risk parameter d_β must
  /// absorb. Modelled as (a) a per-stage machine-speed factor
  /// exp(N(0, cv²)) multiplying every charge of the stage, and (b) an
  /// independent uniform ±jitter on each block read. Zero disables noise
  /// (fully deterministic charging).
  double stage_speed_cv = 0.10;
  double block_read_jitter = 0.5;

  /// Cost of re-reading a block retained in a warm-start sample pool,
  /// as a fraction of a cold random read: pooled blocks live in the
  /// sample cache (BlinkDB's materialized-sample assumption), so a
  /// replayed block charges `cached_read_factor · block_read_s` instead
  /// of a full random read. Only consulted when a WarmStartCache is
  /// attached to the run — without one, no draw is ever a replay and the
  /// charging is bit-identical to a cacheless build.
  double cached_read_factor = 0.25;

  /// Execution parallelism of the machine the cost formulas describe: the
  /// worker count W available to one stage, and the fraction of linear
  /// scaling a parallel step realizes (the efficiency coefficient η of the
  /// speedup model S = 1 + η·(W−1); see DESIGN.md "Threading model").
  /// W = 1 means the classic serial machine — the paper's setting and the
  /// simulator's, whose virtual time always charges serial work. The
  /// engine overrides `workers` with its thread count in wall-clock mode;
  /// η is only the starting point and is re-fitted by AdaptiveCostModel
  /// from measured per-stage work/span times.
  int workers = 1;
  double parallel_efficiency = 0.6;

  /// The calibration described above.
  static CostModel Sun360() { return CostModel{}; }

  /// A noise-free variant (unit tests, ablations).
  static CostModel Deterministic() {
    CostModel m;
    m.stage_speed_cv = 0.0;
    m.block_read_jitter = 0.0;
    return m;
  }

  /// Seed values for wall-clock mode on a modern machine with the
  /// relations in memory: these only initialize the adaptive coefficients
  /// (which are re-fitted from real measurements after the first stage),
  /// so order-of-magnitude accuracy suffices.
  static CostModel ModernInMemory() {
    CostModel m;
    m.block_read_s = 2e-6;
    m.block_write_s = 1e-6;
    m.predicate_compare_s = 5e-8;
    m.sort_compare_s = 5e-8;
    m.merge_compare_s = 5e-8;
    m.tuple_move_s = 5e-8;
    m.stage_overhead_s = 2e-4;
    m.op_setup_s = 1e-5;
    m.stage_speed_cv = 0.0;
    m.block_read_jitter = 0.0;
    return m;
  }
};

/// The sort-cost basis n·log2(n+2) of a sort of `n` tuples (eq. 4.3's
/// n·log n shape): the planner prices sorts in these units and the
/// evaluator's stage records count them.
double SortCostUnits(double n);

}  // namespace tcq

#endif  // TCQ_SIM_COST_MODEL_H_
