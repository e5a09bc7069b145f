#ifndef TCQ_OBS_METRIC_NAMES_H_
#define TCQ_OBS_METRIC_NAMES_H_

/// The single registry of metric instrument names. Every string literal
/// passed to Metrics::counter() / gauge() / histogram() anywhere in the
/// tree must appear here — enforced by the tcq_lint rule
/// `metric-name-registry` — so dashboards built against these names can
/// never silently drift from the code. Dynamically composed names
/// (`gauge(base + "_s")`) are exempt from the rule; keep them rare.
///
/// Call sites in the serving/fault/cache/engine layers use the named
/// constants; leaf instruments elsewhere may keep the literal spelling
/// as long as it matches an entry below. Constants are grouped by
/// subsystem prefix and sorted within each group.

namespace tcq::metric_names {

// cache.* — WarmStartCache / sample-pool reuse (engine export section).
inline constexpr char kCacheBlocksFresh[] = "cache.blocks_fresh";
inline constexpr char kCacheBlocksReplayed[] = "cache.blocks_replayed";
inline constexpr char kCachePoolBlocks[] = "cache.pool_blocks";
inline constexpr char kCachePriorEntries[] = "cache.prior_entries";
inline constexpr char kCachePriorHits[] = "cache.prior_hits";
inline constexpr char kCachePriorMisses[] = "cache.prior_misses";

// engine.* — per-run executor telemetry.
inline constexpr char kEngineBlocksDrawn[] = "engine.blocks_drawn";
inline constexpr char kEngineOverspendS[] = "engine.overspend_s";
inline constexpr char kEngineQuotaS[] = "engine.quota_s";
inline constexpr char kEngineSpendS[] = "engine.spend_s";
inline constexpr char kEngineStagesRun[] = "engine.stages_run";
inline constexpr char kEngineTimeLeftS[] = "engine.time_left_s";
inline constexpr char kEngineUtilization[] = "engine.utilization";

// estimator.* — running-estimator diagnostics.
inline constexpr char kEstimatorCombines[] = "estimator.combines";
inline constexpr char kEstimatorEstimate[] = "estimator.estimate";
inline constexpr char kEstimatorStageVariance[] = "estimator.stage_variance";
inline constexpr char kEstimatorVariance[] = "estimator.variance";

// exec.* — operator-level work counts.
inline constexpr char kExecTuplesScanned[] = "exec.tuples_scanned";

// fault.* — injected-fault tallies and recovery overhead.
inline constexpr char kFaultBlocksLost[] = "fault.blocks_lost";
inline constexpr char kFaultDelayS[] = "fault.delay_s";
inline constexpr char kFaultRetries[] = "fault.retries";
inline constexpr char kFaultStragglers[] = "fault.stragglers";
inline constexpr char kFaultTransient[] = "fault.transient";
inline constexpr char kFaultVarianceWidening[] = "fault.variance_widening";

// ledger.* — simulated-cost accounting.
inline constexpr char kLedgerTotalS[] = "ledger.total_s";

// pool.* — ThreadPool scheduling (gauges; scheduling-dependent).
inline constexpr char kPoolBatches[] = "pool.batches";
inline constexpr char kPoolTasksByCallers[] = "pool.tasks_by_callers";
inline constexpr char kPoolTasksByWorkers[] = "pool.tasks_by_workers";
inline constexpr char kPoolWidth[] = "pool.width";
inline constexpr char kPoolWorkers[] = "pool.workers";

// predictor.* — hybrid selectivity predictor (DESIGN.md §12).
inline constexpr char kPredictorAbsError[] = "predictor.abs_error";
inline constexpr char kPredictorEntries[] = "predictor.entries";
inline constexpr char kPredictorHistoryHits[] = "predictor.history_hits";
inline constexpr char kPredictorHistoryMisses[] = "predictor.history_misses";
inline constexpr char kPredictorPredictions[] = "predictor.predictions";
inline constexpr char kPredictorWidthScale[] = "predictor.width_scale";

// sampling.* — block-sampling telemetry.
inline constexpr char kSamplingBlocksDrawn[] = "sampling.blocks_drawn";

// serve.* — admission controller, circuit breaker, server loop.
inline constexpr char kServeActive[] = "serve.active";
inline constexpr char kServeAdmitted[] = "serve.admitted";
inline constexpr char kServeBreakerOpen[] = "serve.breaker_open";
inline constexpr char kServeBreakerProbeAborts[] = "serve.breaker_probe_aborts";
inline constexpr char kServeBreakerProbes[] = "serve.breaker_probes";
inline constexpr char kServeBreakerSheds[] = "serve.breaker_sheds";
inline constexpr char kServeBreakerShrinks[] = "serve.breaker_shrinks";
inline constexpr char kServeBreakerTrips[] = "serve.breaker_trips";
inline constexpr char kServeCompleted[] = "serve.completed";
inline constexpr char kServeDeadlineMissS[] = "serve.deadline_miss_s";
inline constexpr char kServeDeadlineMissed[] = "serve.deadline_missed";
inline constexpr char kServeLatencyS[] = "serve.latency_s";
inline constexpr char kServeOutstandingQuotaS[] = "serve.outstanding_quota_s";
inline constexpr char kServeQueueDepth[] = "serve.queue_depth";
inline constexpr char kServeQueued[] = "serve.queued";
inline constexpr char kServeRejected[] = "serve.rejected";
inline constexpr char kServeShrunk[] = "serve.shrunk";
inline constexpr char kServeSubmitted[] = "serve.submitted";

// session.* — standalone-session configuration echoes.
inline constexpr char kSessionPoolWorkers[] = "session.pool_workers";

// timectrl.* — time-control (Sample-Size-Determine) diagnostics.
inline constexpr char kTimectrlIntersectFallback[] =
    "timectrl.intersect_fallback";
inline constexpr char kTimectrlSelectivity[] = "timectrl.selectivity";
inline constexpr char kTimectrlSsdProbes[] = "timectrl.ssd_probes";

}  // namespace tcq::metric_names

#endif  // TCQ_OBS_METRIC_NAMES_H_
