// Golden outputs of the adaptive job loops. The expected strings below were
// recorded before the failure simulator's transfer-engine and closed-form
// variants were merged into one loop and before the AIC take rule moved
// into a type shared by run_aic and run_coordinated; the refactor must
// leave every one of them unchanged. Doubles are pinned bit-exact (their
// IEEE-754 bits in hex), so a reordered floating-point sum fails here even
// when every relational test elsewhere still passes.
//
//   FailureSimGolden.*  every FailureSimResult field plus an FNV-1a digest
//                       of the hub's deterministic export (virtual-time
//                       trace events, counters, gauges, histograms), for
//                       the closed-form drain model (plain, level-3
//                       heavy, resizes with replan on and off, a rewind
//                       budget) and the transfer engine (plain, slow
//                       remote, a rewind budget, and a lossy remote
//                       channel that dies with a TransferError).
//   AicDecisionGolden.* run_aic's NET^2 and a digest of every
//                       IntervalRecord and DecisionTrace for two
//                       benchmarks, and run_coordinated's NET^2 at 2 and 4
//                       ranks, stagger 0 and 0.5, plus one static (SIC)
//                       run, re-recorded when the SIC probe rank began
//                       feeding its sampler page faults like the real
//                       ranks (it used to plan at JD = 1).
//
// Host-dependent parts of the export are left out of the digest:
// wall-clock trace events and the delta-compression shard counters, which
// follow the worker count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "control/coordinated.h"
#include "control/experiment.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "sim/failure_sim.h"
#include "xfer/transfer.h"

namespace aic {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(std::uint8_t(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(std::uint8_t(c));
  }
  void params(const model::IntervalParams& p) {
    f64(p.c1);
    f64(p.c2);
    f64(p.c3);
    f64(p.r1);
    f64(p.r2);
    f64(p.r3);
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}
std::string bits(double v) { return hex(std::bit_cast<std::uint64_t>(v)); }

bool host_dependent(std::string_view metric) {
  return metric == obs::names::kDeltaShards ||
         metric == obs::names::kDeltaShardPages;
}

/// Digest of everything the hub recorded that is a function of the seeded
/// run alone.
std::uint64_t hub_digest(const obs::Hub& hub) {
  Fnv f;
  for (const obs::TraceEvent& e : hub.trace.snapshot()) {
    if (e.domain != obs::TimeDomain::kVirtual) continue;
    f.str(e.category);
    f.str(e.name);
    f.u64(std::uint64_t(e.phase));
    f.f64(e.start);
    f.f64(e.duration);
    f.u64(e.track);
    f.u64(e.arg_count);
    for (std::size_t i = 0; i < e.arg_count; ++i) {
      f.str(e.args[i].key);
      f.f64(e.args[i].value);
    }
  }
  f.u64(hub.trace.dropped());
  const obs::MetricsSnapshot snap = hub.metrics.snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (host_dependent(name)) continue;
    f.str(name);
    f.u64(value);
  }
  for (const auto& [name, value] : snap.gauges) {
    f.str(name);
    f.f64(value);
  }
  for (const auto& [name, h] : snap.histograms) {
    if (host_dependent(name)) continue;
    f.str(name);
    for (const double b : h.bounds) f.f64(b);
    for (const std::uint64_t c : h.counts) f.u64(c);
    f.u64(h.count);
    f.f64(h.sum);
  }
  return f.h;
}

}  // namespace

namespace sim {
namespace {

std::uint64_t stats_digest(const xfer::Stats& s) {
  Fnv f;
  f.u64(s.chunks_sent);
  f.u64(s.chunks_failed);
  f.u64(s.retries);
  f.u64(s.bytes_acked);
  f.u64(s.bytes_wasted);
  f.f64(s.wire_seconds);
  f.f64(s.backoff_seconds);
  f.u64(s.transfers_committed);
  f.u64(s.transfers_aborted);
  f.u64(s.transfers_interrupted);
  return f.h;
}

/// Every FailureSimResult field and the hub digest, one line.
std::string golden(FailureSimConfig cfg) {
  obs::Hub hub;
  cfg.obs = &hub;
  const FailureSimResult r = run_failure_sim(cfg);
  return "turnaround=" + bits(r.turnaround) + " base=" + bits(r.base_time) +
         " failures=" + std::to_string(r.failures_by_level[0]) + "/" +
         std::to_string(r.failures_by_level[1]) + "/" +
         std::to_string(r.failures_by_level[2]) +
         " checkpoints=" + std::to_string(r.checkpoints) +
         " restores=" + std::to_string(r.restores) +
         " verified=" + std::to_string(int(r.final_state_verified)) +
         " xfer=" + hex(stats_digest(r.xfer_stats)) +
         " resumed=" + std::to_string(r.drains_resumed) +
         " resizes=" + std::to_string(r.resizes_applied) +
         " replans=" + std::to_string(r.replans) +
         " interval=" + bits(r.final_checkpoint_interval) +
         " pruned=" + std::to_string(r.checkpoints_pruned) +
         " hub=" + hex(hub_digest(hub));
}

FailureSimConfig base_config(std::uint64_t seed, double total_rate) {
  FailureSimConfig cfg;
  cfg.benchmark = workload::SpecBenchmark::kBzip2;
  cfg.workload_scale = 0.125;
  cfg.failures = failure::FailureSpec::from_total(total_rate);
  cfg.checkpoint_interval = 10.0;
  cfg.seed = seed;
  return cfg;
}

FailureSimConfig elastic_config(std::uint64_t seed) {
  FailureSimConfig cfg = base_config(seed, 0.02);
  cfg.resizes = {{40.0, 8}, {90.0, 2}};
  cfg.base_cores = 4;
  return cfg;
}

TEST(FailureSimGolden, ClosedFormPlain) {
  EXPECT_EQ(golden(base_config(11, 0.04)),
            "turnaround=406ba2c08798a03a base=4063000000000000 "
            "failures=1/7/4 checkpoints=15 restores=12 verified=1 "
            "xfer=f14b84b8290b8965 resumed=0 resizes=0 replans=0 "
            "interval=4024000000000000 pruned=0 hub=8bb8621ed7daf39b");
}

TEST(FailureSimGolden, ClosedFormLevel3OnSlowRemote) {
  FailureSimConfig cfg = base_config(7, 0.0);
  cfg.failures.lambda = {0.004, 0.008, 0.01};
  cfg.costs.b3_bps = 200.0 * kKB;
  EXPECT_EQ(golden(cfg),
            "turnaround=4067917fbe47aaa5 base=4063000000000000 "
            "failures=0/1/1 checkpoints=15 restores=2 verified=1 "
            "xfer=f14b84b8290b8965 resumed=0 resizes=0 replans=0 "
            "interval=4024000000000000 pruned=0 hub=d495a2b0120f1f65");
}

TEST(FailureSimGolden, ClosedFormResizesReplanOn) {
  EXPECT_EQ(golden(elastic_config(7)),
            "turnaround=4063d7ad5b76c2a1 base=4063000000000000 "
            "failures=0/4/1 checkpoints=113 restores=5 verified=1 "
            "xfer=f14b84b8290b8965 resumed=0 resizes=2 replans=2 "
            "interval=3ff0000000000000 pruned=0 hub=2b94bf3434103237");
}

TEST(FailureSimGolden, ClosedFormResizesReplanOff) {
  FailureSimConfig cfg = elastic_config(5);
  cfg.replan_on_resize = false;
  EXPECT_EQ(golden(cfg),
            "turnaround=4065fe6fe9f4563c base=4063000000000000 "
            "failures=0/3/1 checkpoints=15 restores=4 verified=1 "
            "xfer=f14b84b8290b8965 resumed=0 resizes=2 replans=0 "
            "interval=4024000000000000 pruned=0 hub=10055f56f2356248");
}

TEST(FailureSimGolden, ClosedFormRewindBudget) {
  FailureSimConfig cfg = elastic_config(9);
  cfg.rewind_budget = 4;
  EXPECT_EQ(golden(cfg),
            "turnaround=40643857055c618b base=4063000000000000 "
            "failures=0/3/1 checkpoints=113 restores=4 verified=1 "
            "xfer=f14b84b8290b8965 resumed=0 resizes=2 replans=2 "
            "interval=3ff0000000000000 pruned=110 "
            "hub=0d529f3b31a8d673");
}

TEST(FailureSimGolden, EnginePlain) {
  FailureSimConfig cfg = base_config(22, 0.04);
  cfg.use_transfer_engine = true;
  EXPECT_EQ(golden(cfg),
            "turnaround=40642e1ea4d9cdad base=4063000000000000 "
            "failures=0/5/0 checkpoints=15 restores=5 verified=1 "
            "xfer=fc3b124d1585b22e resumed=0 resizes=0 replans=0 "
            "interval=4024000000000000 pruned=0 hub=c47b02c07562fa07");
}

TEST(FailureSimGolden, EngineSlowRemoteInterruptsDrains) {
  FailureSimConfig cfg = base_config(1, 0.0);
  cfg.failures.lambda = {0.0, 0.02, 0.004};
  cfg.costs.b3_bps = 50.0 * kKB;
  cfg.use_transfer_engine = true;
  EXPECT_EQ(golden(cfg),
            "turnaround=40655fb3cb43fe3d base=4063000000000000 "
            "failures=0/4/0 checkpoints=15 restores=4 verified=1 "
            "xfer=d8bec2b86f679e02 resumed=1 resizes=0 replans=0 "
            "interval=4024000000000000 pruned=0 hub=fa7dc59c3a078418");
}

TEST(FailureSimGolden, EngineRewindBudget) {
  FailureSimConfig cfg = base_config(17, 0.02);
  cfg.use_transfer_engine = true;
  cfg.rewind_budget = 4;
  EXPECT_EQ(golden(cfg),
            "turnaround=40637c2667a50d45 base=4063000000000000 "
            "failures=0/1/0 checkpoints=15 restores=1 verified=1 "
            "xfer=0cf7f9b8ae6d84bc resumed=0 resizes=0 replans=0 "
            "interval=4024000000000000 pruned=12 hub=f406f3e68ef05263");
}

TEST(FailureSimGolden, EngineLossyRemoteDiesWithTransferError) {
  FailureSimConfig cfg = base_config(3, 0.01);
  cfg.use_transfer_engine = true;
  cfg.remote_drop_probability = 0.95;
  cfg.xfer_max_attempts_override = 2;
  obs::Hub hub;
  cfg.obs = &hub;
  std::string what;
  try {
    (void)run_failure_sim(cfg);
  } catch (const xfer::TransferError& e) {
    what = "level=" + std::to_string(e.level()) +
           " offset=" + std::to_string(e.chunk_offset()) + " " + e.what();
  }
  EXPECT_EQ(what + " hub=" + hex(hub_digest(hub)),
            "level=3 offset=0 transfer of ckpt-0 to level 3 aborted "
            "at chunk offset 0 after 2 attempts hub=ee1bc788e0fab33f");
}

}  // namespace
}  // namespace sim

namespace control {
namespace {

ExperimentConfig experiment_config(workload::SpecBenchmark b) {
  ExperimentConfig cfg;
  const auto split = model::split_rate(1e-3);
  cfg.system.lambda = {split[0], split[1], split[2]};
  cfg.workload_scale = 0.125;
  const auto prof = workload::spec_profile(b, cfg.workload_scale);
  cfg.costs = CostModel::paper_scaled(prof.footprint_pages * kPageSize);
  return cfg;
}

/// NET^2, the run totals, every interval and every decision, one line.
std::string aic_golden(workload::SpecBenchmark b) {
  ExperimentConfig cfg = experiment_config(b);
  Fnv decisions;
  cfg.decision_hook = [&](const DecisionTrace& d) {
    decisions.f64(d.time);
    decisions.f64(d.elapsed);
    decisions.f64(d.w_star);
    decisions.f64(d.c3_pred);
    decisions.byte(std::uint8_t(d.span_reached | d.at_dip << 1 |
                                d.starved << 2 | d.core_free << 3 |
                                d.take << 4));
  };
  obs::Hub hub;
  cfg.obs = &hub;
  const ExperimentResult r = run_experiment(Scheme::kAic, b, cfg);
  Fnv intervals;
  for (const IntervalRecord& rec : r.intervals) {
    intervals.f64(rec.start_time);
    intervals.f64(rec.w);
    intervals.params(rec.params);
    intervals.f64(rec.delta_latency);
    intervals.u64(rec.delta_bytes);
    intervals.u64(rec.uncompressed_bytes);
    intervals.u64(rec.dirty_pages);
    intervals.f64(rec.metrics.dirty_pages);
    intervals.f64(rec.metrics.elapsed);
    intervals.f64(rec.metrics.jd);
    intervals.f64(rec.metrics.di);
    intervals.f64(rec.predicted_c3);
  }
  return "net2=" + bits(r.net2) + " exec=" + bits(r.exec_time) +
         " control=" + bits(r.control_overhead) +
         " intervals=" + std::to_string(r.intervals.size()) + ":" +
         hex(intervals.h) + " decisions=" + hex(decisions.h) +
         " hub=" + hex(hub_digest(hub));
}

std::string coordinated_golden(Scheme scheme, int processes,
                               double stagger) {
  CoordinatedConfig cfg;
  const auto split = model::split_rate(2e-4);
  cfg.base.system.lambda = {split[0], split[1], split[2]};
  cfg.base.workload_scale = 0.125;
  const auto prof =
      workload::spec_profile(workload::SpecBenchmark::kMilc, 0.125);
  cfg.base.costs = CostModel::paper_scaled(prof.footprint_pages * kPageSize);
  cfg.processes = processes;
  cfg.stagger_fraction = stagger;
  const CoordinatedResult r =
      run_coordinated(scheme, workload::SpecBenchmark::kMilc, cfg);
  return "net2=" + bits(r.net2) +
         " checkpoints=" + std::to_string(r.checkpoints) +
         " delta=" + bits(r.mean_delta_bytes);
}

TEST(AicDecisionGolden, Bzip2) {
  EXPECT_EQ(aic_golden(workload::SpecBenchmark::kBzip2),
            "net2=3ff0d8bc9f6a21dd exec=40632984d8e4aa87 "
            "control=3fe06fd21ff2e490 intervals=5:2beb3f61c0e0842d "
            "decisions=c35b3ad30828246c hub=080e8c7fa70c5c93");
}

TEST(AicDecisionGolden, Milc) {
  EXPECT_EQ(aic_golden(workload::SpecBenchmark::kMilc),
            "net2=3ff3857637650966 exec=4080b7693d48016d "
            "control=4014f85f06f6942d intervals=5:3712e29ce364b3c8 "
            "decisions=82979fd63d44ec1f hub=d930357dc8f8bb87");
}

TEST(AicDecisionGolden, CoordinatedAligned) {
  EXPECT_EQ(coordinated_golden(Scheme::kAic, 2, 0.0),
            "net2=3ff14b825674c9ba checkpoints=5 "
            "delta=412c4cf800000000");
  EXPECT_EQ(coordinated_golden(Scheme::kAic, 4, 0.0),
            "net2=3ff2ddc058239c16 checkpoints=5 "
            "delta=4140716b80000000");
}

TEST(AicDecisionGolden, CoordinatedStaggered) {
  EXPECT_EQ(coordinated_golden(Scheme::kAic, 2, 0.5),
            "net2=3ff21be9d6904a60 checkpoints=3 "
            "delta=413cc0cc55555555");
  EXPECT_EQ(coordinated_golden(Scheme::kAic, 4, 0.5),
            "net2=3ff4e92563d79de4 checkpoints=3 "
            "delta=41513efaaaaaaaab");
}

TEST(AicDecisionGolden, CoordinatedStatic) {
  EXPECT_EQ(coordinated_golden(Scheme::kSic, 4, 0.5),
            "net2=3ff555e1b947f6a2 checkpoints=3 "
            "delta=415250c7c0000000");
}

}  // namespace
}  // namespace control
}  // namespace aic
