// The observability schema: every metric and trace-event name the AIC
// pipeline emits, in one place.
//
// Instrumentation sites and consumers (RunReport, tools/aic_report, tests)
// both compile against these constants, so the schema cannot silently
// drift between the writer and the reader. Naming convention:
// `<subsystem>.<noun>` for metrics, with `.seconds`/`.bytes`/`.bps`
// suffixes for units; trace events are (category, name) pairs.
#pragma once

#include <cstdint>
#include <string>

namespace aic::obs::names {

// --- ckpt: the checkpointing core (AsyncCheckpointer / CheckpointChain) ---
inline constexpr const char* kCkptCheckpoints = "ckpt.checkpoints";
inline constexpr const char* kCkptFulls = "ckpt.full_checkpoints";
inline constexpr const char* kCkptPagesWritten = "ckpt.pages_written";
inline constexpr const char* kCkptUncompressedBytes =
    "ckpt.uncompressed_bytes";
inline constexpr const char* kCkptFileBytes = "ckpt.file_bytes";
inline constexpr const char* kCkptCaptureSeconds = "ckpt.capture_wall_seconds";
inline constexpr const char* kCkptCompressSeconds =
    "ckpt.compress_wall_seconds";
// Rewind-window retention (Config::rewind_budget > 0).
inline constexpr const char* kCkptPrunes = "ckpt.prunes";
inline constexpr const char* kCkptPruneBytes = "ckpt.prune_bytes";
/// Prunes whose successor had to be rewritten as a full checkpoint.
inline constexpr const char* kCkptReanchors = "ckpt.reanchors";

// --- delta: the parallel page-delta compression pipeline ---
inline constexpr const char* kDeltaBytesIn = "delta.bytes_in";
inline constexpr const char* kDeltaBytesOut = "delta.bytes_out";
inline constexpr const char* kDeltaPagesDelta = "delta.pages_delta";
inline constexpr const char* kDeltaPagesRaw = "delta.pages_raw";
inline constexpr const char* kDeltaPagesSame = "delta.pages_same";
inline constexpr const char* kDeltaShards = "delta.shards";
inline constexpr const char* kDeltaShardPages = "delta.shard_pages";

// --- xfer: the chunked L2/L3 drain engine ---
inline constexpr const char* kXferChunksSent = "xfer.chunks_sent";
inline constexpr const char* kXferChunksFailed = "xfer.chunks_failed";
inline constexpr const char* kXferRetries = "xfer.retries";
inline constexpr const char* kXferBytesAcked = "xfer.bytes_acked";
inline constexpr const char* kXferBytesWasted = "xfer.bytes_wasted";
inline constexpr const char* kXferCommits = "xfer.commits";
inline constexpr const char* kXferAborts = "xfer.aborts";
inline constexpr const char* kXferInterrupts = "xfer.interrupts";
inline constexpr const char* kXferResumes = "xfer.resumes";
inline constexpr const char* kXferChunkSeconds = "xfer.chunk_seconds";
inline constexpr const char* kXferBackoffSeconds = "xfer.backoff_wait_seconds";
/// Goodput of the most recently committed drain (bytes acked / virtual
/// seconds from submit to commit).
inline constexpr const char* kXferDrainGoodputBps = "xfer.drain_goodput_bps";

// --- predictor: predicted-vs-observed residuals (relative error) ---
inline constexpr const char* kPredictorObservations =
    "predictor.observations";
inline constexpr const char* kPredictorC1RelErr = "predictor.c1.rel_err";
inline constexpr const char* kPredictorDlRelErr = "predictor.dl.rel_err";
inline constexpr const char* kPredictorDsRelErr = "predictor.ds.rel_err";

// --- decider: the Newton–Raphson / EVT work-span search ---
inline constexpr const char* kDeciderEvaluations = "decider.evaluations";
inline constexpr const char* kDeciderNewtonIters = "decider.newton_iters";
/// Searches where a boundary or grid point beat the NR stationary point
/// (the EVT fallback path).
inline constexpr const char* kDeciderBoundaryPicks = "decider.boundary_picks";
inline constexpr const char* kDeciderWStar = "decider.w_star";
inline constexpr const char* kDeciderTakes = "decider.takes";

// --- sim: the end-to-end failure simulator ---
inline constexpr const char* kSimFailuresL1 = "sim.failures.l1";
inline constexpr const char* kSimFailuresL2 = "sim.failures.l2";
inline constexpr const char* kSimFailuresL3 = "sim.failures.l3";
inline constexpr const char* kSimRestores = "sim.restores";
inline constexpr const char* kSimDrainsResumed = "sim.drains_resumed";
inline constexpr const char* kSimCheckpoints = "sim.checkpoints";
inline constexpr const char* kSimNet2 = "sim.net2";
inline constexpr const char* kSimTurnaroundSeconds = "sim.turnaround_seconds";
inline constexpr const char* kSimBaseSeconds = "sim.base_seconds";
/// Elastic resizes applied (core-count reconfigurations mid-run).
inline constexpr const char* kSimResizes = "sim.resizes";
/// Decider re-plans triggered by a resize (replan_on_resize).
inline constexpr const char* kSimReplans = "sim.replans";

// --- fleet: the multi-tenant checkpoint service ---
inline constexpr const char* kFleetJobsAdmitted = "fleet.jobs_admitted";
inline constexpr const char* kFleetJobsQueued = "fleet.jobs_queued";
inline constexpr const char* kFleetJobsRejected = "fleet.jobs_rejected";
inline constexpr const char* kFleetJobsFinished = "fleet.jobs_finished";
inline constexpr const char* kFleetCheckpoints = "fleet.checkpoints";
inline constexpr const char* kFleetCommits = "fleet.commits";
inline constexpr const char* kFleetFailures = "fleet.failures";
inline constexpr const char* kFleetReworkSeconds = "fleet.rework_seconds";
/// Aggregate NET² proxy: every byte the fleet's drains put on the shared
/// channel (acked and wasted alike).
inline constexpr const char* kFleetNet2Bytes = "fleet.net2_bytes";
inline constexpr const char* kFleetGoodputBps = "fleet.goodput_bps";
inline constexpr const char* kFleetTimeToSafeSeconds =
    "fleet.time_to_safe_seconds";
// Rewind-window retention across the fleet (bounded per-job storage).
inline constexpr const char* kFleetRewindLiveBytes = "fleet.rewind.live_bytes";
inline constexpr const char* kFleetRewindDiscards = "fleet.rewind.discards";
/// Worst retained rewind gap across jobs vs. its certified envelope.
inline constexpr const char* kFleetRewindMaxGapSeconds =
    "fleet.rewind.max_gap_seconds";
inline constexpr const char* kFleetRewindGapBoundSeconds =
    "fleet.rewind.gap_bound_seconds";
/// Elastic resizes applied across the fleet.
inline constexpr const char* kFleetResizes = "fleet.resizes";

// Admission-controller head-room (live gauges, updated on every offer /
// resize / release / promotion).
inline constexpr const char* kFleetAdmissionDemandBps =
    "fleet.admission.demand_bps";
inline constexpr const char* kFleetAdmissionBudgetBps =
    "fleet.admission.budget_bps";
inline constexpr const char* kFleetAdmissionQueueDepth =
    "fleet.admission.queue_depth";

// --- fleet.slo: the SLO/burn-rate engine (obs/slo.h) ---
inline constexpr const char* kSloEvaluations = "fleet.slo.evaluations";
inline constexpr const char* kSloEvents = "fleet.slo.events";
inline constexpr const char* kSloBreaches = "fleet.slo.breaches";
inline constexpr const char* kSloBurnAlerts = "fleet.slo.burn_alerts";

// Per-rule gauge fields, namespaced under `fleet.slo.<rule>.` by
// slo_metric() below. `ok` is 1 while the rule holds AND is not burning.
inline constexpr const char* kSloRuleOk = "ok";
inline constexpr const char* kSloRuleValue = "value";
inline constexpr const char* kSloRuleBurnShort = "burn_short";
inline constexpr const char* kSloRuleBurnLong = "burn_long";

/// Builds the per-rule SLO metric name `fleet.slo.<rule>.<field>`.
inline std::string slo_metric(const std::string& rule, const char* field) {
  std::string name = "fleet.slo.";
  name += rule;
  name += '.';
  name += field;
  return name;
}

// Per-tenant metric fields, namespaced under `fleet.tenant.<id>.` by
// tenant_metric() below.
inline constexpr const char* kTenantGoodputBps = "goodput_bps";
inline constexpr const char* kTenantNet2Bytes = "net2_bytes";
inline constexpr const char* kTenantCommits = "commits";
inline constexpr const char* kTenantJobsFinished = "jobs_finished";
inline constexpr const char* kTenantTimeToSafeP99 = "time_to_safe_p99_s";
/// Per-tenant time-to-safe histogram (observed at every commit): the
/// source of the per-tenant windowed p99 series the telemetry plane and
/// aic_top render.
inline constexpr const char* kTenantTimeToSafeSeconds =
    "time_to_safe_seconds";

/// Builds the per-tenant metric name `fleet.tenant.<id>.<field>` — the one
/// dynamic corner of the schema; consumers reconstruct names with the same
/// function, so writer and reader still cannot drift.
inline std::string tenant_metric(std::uint64_t tenant, const char* field) {
  std::string name = "fleet.tenant.";
  name += std::to_string(tenant);
  name += '.';
  name += field;
  return name;
}

// --- trace categories ---
inline constexpr const char* kCatCkpt = "ckpt";
inline constexpr const char* kCatDelta = "delta";
inline constexpr const char* kCatXfer = "xfer";
inline constexpr const char* kCatDecider = "decider";
inline constexpr const char* kCatSim = "sim";
inline constexpr const char* kCatFleet = "fleet";
inline constexpr const char* kCatSlo = "slo";

// --- trace event names ---
inline constexpr const char* kEvInterval = "interval";   // ckpt, span
inline constexpr const char* kEvCapture = "capture";     // ckpt, span (wall)
inline constexpr const char* kEvCompress = "compress";   // ckpt, span (wall)
inline constexpr const char* kEvShard = "shard";         // delta, span (wall)
inline constexpr const char* kEvChunk = "chunk";         // xfer, span
inline constexpr const char* kEvBackoff = "backoff";     // xfer, span
inline constexpr const char* kEvCommit = "commit";       // xfer, instant
inline constexpr const char* kEvAbort = "abort";         // xfer, instant
inline constexpr const char* kEvInterrupt = "interrupt"; // xfer, instant
inline constexpr const char* kEvResume = "resume";       // xfer, instant
inline constexpr const char* kEvDecision = "decision";   // decider, instant
inline constexpr const char* kEvFailure = "failure";     // sim/fleet, instant
inline constexpr const char* kEvAdmit = "admit";         // fleet, instant
inline constexpr const char* kEvQueue = "queue";         // fleet, instant
inline constexpr const char* kEvReject = "reject";       // fleet, instant
inline constexpr const char* kEvJobFinish = "job_finish";  // fleet, instant
inline constexpr const char* kEvRestore = "restore";     // sim, span
inline constexpr const char* kEvResize = "resize";       // sim/fleet, instant
inline constexpr const char* kEvReplan = "replan";       // sim/fleet, instant
inline constexpr const char* kEvPrune = "prune";         // ckpt/fleet, instant
inline constexpr const char* kEvReanchor = "reanchor";   // ckpt, instant
/// Error escaping a subsystem boundary (any category, instant) — the last
/// event a flight-recorder postmortem usually holds.
inline constexpr const char* kEvError = "error";

}  // namespace aic::obs::names
