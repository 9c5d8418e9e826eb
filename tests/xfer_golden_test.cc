// Golden timelines for the transfer engine. The constants below were
// recorded from the original full-scan TransferScheduler, before its event
// loop was rebuilt around ordered event queues and per-tenant stream
// counts. They pin absolute values, not relations between runs: the
// shard-identity tests elsewhere compare shard counts with each other, so a
// pricing or ordering change applied consistently everywhere would pass
// them, but it cannot pass these.
//
//   XferGolden.*   a seeded random operation script against the bare
//                  scheduler (2 levels, 4 tenants, one reserved; drops,
//                  stalls past the chunk timeout, partial writes, zero-byte
//                  objects, per-transfer and per-level interrupt/resume,
//                  discards mid-backoff), folded into one FNV-1a digest of
//                  every TransferRecord and scheduler counter.
//   FleetGolden.*  FleetScheduler::digest() of a 1k-job LANL mix with a
//                  gold-reservation tenant at 1, 2 and 4 shards.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/qos_policy.h"
#include "storage/staged_sink.h"
#include "storage/storage.h"
#include "workload/lanl_trace.h"
#include "xfer/scheduler.h"

namespace aic::xfer {
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
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(std::uint8_t(c));
  }
  void stats(const Stats& s) {
    u64(s.chunks_sent);
    u64(s.chunks_failed);
    u64(s.retries);
    u64(s.bytes_acked);
    u64(s.bytes_wasted);
    f64(s.wire_seconds);
    f64(s.backoff_seconds);
    u64(s.transfers_committed);
    u64(s.transfers_aborted);
    u64(s.transfers_interrupted);
  }
  void record(const TransferRecord& r) {
    u64(r.id);
    str(r.key);
    u64(std::uint64_t(r.level));
    u64(r.tenant);
    u64(std::uint64_t(r.state));
    u64(r.total_bytes);
    u64(r.acked_bytes);
    u64(std::uint64_t(r.chunk_attempts));
    f64(r.submit_time);
    f64(r.commit_time);
    u64(r.backoff_history.size());
    for (const double b : r.backoff_history) f64(b);
    stats(r.stats);
    str(r.error);
  }
};

struct ScriptResult {
  std::uint64_t digest = 0;
  Stats stats;
  std::size_t discarded = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;
};

ScriptResult run_script(std::uint64_t seed) {
  storage::RemoteStore target2;
  storage::RemoteStore target3;
  storage::StagedTargetSink sink2{target2};
  storage::StagedTargetSink sink3{target3};

  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 300;
  cfg.retry.max_attempts_per_chunk = 3;
  cfg.retry.initial_backoff_s = 0.05;
  cfg.retry.backoff_multiplier = 2.0;
  cfg.retry.max_backoff_s = 0.4;
  cfg.retry.chunk_timeout_s = 2.0;
  TransferScheduler sched(cfg);
  sched.add_level(2, Channel::Config{4000.0, 0.01}, &sink2);
  sched.add_level(3, Channel::Config{2500.0, 0.02}, &sink3);

  // Tenant 1 holds a reservation on both levels; 2 and 3 are weighted
  // best-effort; 0 is the default tenant.
  sched.set_tenant_qos(2, 1, TenantQos{1.0, 1000.0});
  sched.set_tenant_qos(3, 1, TenantQos{1.0, 600.0});
  sched.set_tenant_qos(2, 2, TenantQos{2.0, 0.0});
  sched.set_tenant_qos(3, 3, TenantQos{0.5, 0.0});

  sched.channel(2).set_drop_probability(0.05, seed ^ 0x22);
  sched.channel(3).set_drop_probability(0.15, seed ^ 0x33);
  // A stall past chunk_timeout_s (a failed attempt costing the timeout), a
  // stall under it, and partial writes the retries must overwrite.
  sched.channel(2).inject(Fault{FaultKind::kStall, 5.0, 0.0});
  sched.channel(2).inject(Fault{FaultKind::kPartialWrite, 0.0, 0.4});
  sched.channel(3).inject(Fault{FaultKind::kStall, 0.5, 0.0});
  sched.channel(3).inject(Fault{FaultKind::kPartialWrite, 0.0, 0.7});

  Rng rng(seed);
  Fnv fnv;
  ScriptResult result;
  std::vector<TransferId> live;
  int next_key = 0;

  auto pick_live = [&]() -> TransferId {
    return live[rng.uniform_u64(live.size())];
  };
  auto forget = [&live](TransferId id) {
    for (auto& x : live) {
      if (x == id) {
        x = live.back();
        live.pop_back();
        return;
      }
    }
  };

  for (int step = 0; step < 600; ++step) {
    const std::uint64_t op = rng.uniform_u64(100);
    const int level = rng.bernoulli(0.5) ? 2 : 3;
    if (op < 25) {
      const std::uint64_t tenant = rng.uniform_u64(4);
      // Every twentieth real submit is a zero-byte object.
      const std::size_t size =
          next_key % 20 == 0 ? 0 : std::size_t(rng.uniform_int(1, 2000));
      Bytes data(size);
      for (std::size_t i = 0; i < size; ++i) {
        data[i] = std::uint8_t(i * 31 + std::size_t(next_key));
      }
      live.push_back(sched.submit(level, "obj-" + std::to_string(next_key++),
                                  std::move(data), tenant));
    } else if (op < 45) {
      const std::uint64_t tenant = rng.uniform_u64(4);
      live.push_back(sched.submit_sized(
          level, "sized-" + std::to_string(next_key++),
          std::uint64_t(rng.uniform_int(1, 3000)), tenant));
    } else if (op < 75) {
      sched.run_until(sched.now() + rng.uniform(0.0, 0.6));
    } else if (op < 82) {
      if (!live.empty()) sched.interrupt(pick_live());
    } else if (op < 88) {
      if (!live.empty()) sched.resume(pick_live());
    } else if (op < 90) {
      sched.interrupt_level(level);
    } else if (op < 93) {
      sched.resume_level(level);
    } else {
      // Discard, preferring a transfer that is backing off after a failed
      // chunk (pending with attempts spent on its current chunk).
      TransferId victim = 0;
      for (const TransferId id : live) {
        const TransferRecord& r = sched.record(id);
        if (r.state == TransferState::kPending && r.chunk_attempts > 0) {
          victim = id;
          break;
        }
      }
      if (victim == 0 && !live.empty() && rng.bernoulli(0.3)) {
        victim = pick_live();
      }
      if (victim != 0) {
        sched.discard(victim);
        forget(victim);
        ++result.discarded;
      }
    }
    fnv.u64(std::uint64_t(step));
    fnv.f64(sched.now());
    fnv.u64(sched.runnable_count());
    fnv.u64(sched.interrupted_count());
    fnv.u64(sched.idle() ? 1 : 0);
  }

  // Drain everything that is left, resuming whatever a failure stopped.
  sched.resume_level(2);
  sched.resume_level(3);
  sched.run_until_idle();
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(sched.interrupted_count(), 0u);

  // Ids are dense from 1, one per submit.
  for (TransferId id = 1; id <= TransferId(next_key); ++id) {
    if (!sched.known(id)) continue;
    const TransferRecord& r = sched.record(id);
    fnv.record(r);
    result.committed += r.state == TransferState::kCommitted;
    result.aborted += r.state == TransferState::kAborted;
  }
  fnv.f64(sched.now());
  result.stats = sched.stats();
  fnv.stats(result.stats);
  fnv.u64(sink2.partial_count());
  fnv.u64(sink3.partial_count());
  result.digest = fnv.h;
  return result;
}

TEST(XferGolden, RandomScriptMatchesRecordedTimeline) {
  const ScriptResult r = run_script(20131);
  // The script must reach every path it claims to pin.
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(r.aborted, 0u);
  EXPECT_GT(r.discarded, 0u);
  EXPECT_GT(r.stats.retries, 0u);
  EXPECT_GT(r.stats.transfers_interrupted, 0u);

  EXPECT_EQ(r.digest, 9360408767987648010ULL);
  EXPECT_EQ(r.stats.chunks_sent, 716u);
  EXPECT_EQ(r.stats.retries, 434u);
  EXPECT_EQ(r.committed, 165u);
}

TEST(XferGolden, SecondSeedMatchesRecordedTimeline) {
  EXPECT_EQ(run_script(7).digest, 1974822425163512170ULL);
}

}  // namespace
}  // namespace aic::xfer

namespace aic::fleet {
namespace {

// The fleet_scale bench's shape at 1k jobs, with the channel cut to 2 MB/s
// per job so drains contend, and a failure rate high enough that failures
// interrupt drains mid-flight; tenant 0 holds a hard reservation for a
// tenth of the channel.
struct GoldRun {
  FleetReport report;
  std::uint64_t interrupts = 0;
};

GoldRun run_gold_fleet(int shards) {
  constexpr std::size_t kJobs = 1000;
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.seed = 42;
  cfg.quantum_s = 5.0;
  cfg.bandwidth_bps = 2.0e6 * double(kJobs);
  cfg.latency_s = 1.0e-3;
  cfg.chunk_bytes = 4 * 1024 * 1024;
  cfg.lambda_total = 5.0e-2;
  cfg.restart_s = 10.0;
  cfg.min_interval_s = 15.0;
  cfg.max_interval_s = 600.0;
  cfg.full_every = 8;
  cfg.max_virtual_s = 86400.0;
  cfg.admission.target_utilization = 0.7;
  cfg.admission.queue_capacity = kJobs;

  workload::FleetMixConfig mix;
  mix.jobs = kJobs;
  mix.tenants = 8;
  mix.seed = 42;
  mix.arrival_horizon_s = 300.0;
  mix.min_work_s = 30.0;
  mix.max_work_s = 90.0;
  mix.pages_per_process = 256;
  const std::vector<workload::FleetJobSpec> jobs =
      workload::lanl_fleet_jobs(mix);

  QosPolicy policy;
  policy.set(Tenant{0, "gold", {1.0, cfg.bandwidth_bps / 10.0}});
  FleetScheduler fleet(cfg, jobs, policy);
  fleet.run();
  GoldRun run;
  run.report = fleet.report();
  EXPECT_EQ(run.report.digest, fleet.digest());
  for (const auto& j : jobs) {
    run.interrupts += fleet.job_stats(j.job_id).interrupts;
  }
  return run;
}

TEST(FleetGolden, GoldReservationMixMatchesRecordedDigest) {
  for (const int shards : {1, 2, 4}) {
    const GoldRun run = run_gold_fleet(shards);
    const FleetReport& r = run.report;
    ASSERT_TRUE(r.complete) << shards << " shards";
    EXPECT_GT(run.interrupts, 0u) << "failures must strike drains mid-flight";
    EXPECT_EQ(r.digest, 5800183545645207210ULL) << shards << " shards";
    EXPECT_EQ(r.checkpoints, 9338u) << shards << " shards";
    EXPECT_EQ(r.failures, 10565u) << shards << " shards";
    EXPECT_EQ(run.interrupts, 14u) << shards << " shards";
  }
}

}  // namespace
}  // namespace aic::fleet
