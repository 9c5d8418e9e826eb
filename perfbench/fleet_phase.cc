// The fleet control plane: the bench/fleet_scale configuration (LANL mix,
// 8 tenants, a gold tenant holding a tenth of the channel, 20 MB/s of
// drain bandwidth per job, 5 s quanta) run to completion, repeatedly, on
// one seeded job mix. No page bytes are touched: the cost is admission,
// the per-shard job passes and xfer::TransferScheduler.
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/qos_policy.h"
#include "obs/export.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "phases.h"
#include "spans.h"
#include "workload/lanl_trace.h"

namespace perfbench {

namespace {

using namespace aic;

constexpr double kPerJobBps = 2.0e7;

fleet::FleetConfig fleet_config(const FleetSpec& spec, std::uint64_t seed,
                                obs::Hub* hub) {
  fleet::FleetConfig cfg;
  cfg.shards = spec.shards;
  cfg.seed = seed;
  cfg.quantum_s = 5.0;
  cfg.bandwidth_bps = kPerJobBps * double(spec.jobs);
  cfg.latency_s = 1.0e-3;
  cfg.chunk_bytes = 4 * 1024 * 1024;
  cfg.lambda_total = 1.0e-3;
  cfg.restart_s = 10.0;
  cfg.min_interval_s = 15.0;
  cfg.max_interval_s = 600.0;
  cfg.full_every = 8;
  cfg.max_virtual_s = 86400.0;
  cfg.admission.target_utilization = 0.7;
  cfg.admission.queue_capacity = spec.jobs;  // queue, never reject
  cfg.obs = hub;
  return cfg;
}

workload::FleetMixConfig mix_config(const FleetSpec& spec,
                                    std::uint64_t seed) {
  workload::FleetMixConfig mix;
  mix.jobs = spec.jobs;
  mix.tenants = 8;
  mix.seed = seed;
  mix.arrival_horizon_s = 300.0;
  mix.min_work_s = 60.0;
  mix.max_work_s = 600.0;
  mix.pages_per_process = 256;
  return mix;
}

struct Rep {
  double mix_s = 0.0;
  double ctor_s = 0.0;
  double run_s = 0.0;
  fleet::FleetReport report;
};

/// One fleet, built and run to completion; every correctness check that
/// fails is charged to the jobs it concerns.
Rep run_rep(const FleetSpec& spec, std::uint64_t seed, obs::Hub* lib_hub,
            const Stopwatch& sw, std::uint64_t id, Tally& tally) {
  Rep rep;
  const fleet::FleetConfig cfg = fleet_config(spec, seed, lib_hub);
  fleet::QosPolicy policy;
  policy.set(fleet::Tenant{0, "gold", {1.0, cfg.bandwidth_bps / 10.0}});
  std::vector<workload::FleetJobSpec> jobs;
  const double t0 = sw.now();
  rep.mix_s = sw.time("fleet.mix", id, [&] {
    jobs = workload::lanl_fleet_jobs(mix_config(spec, seed));
  });
  std::unique_ptr<fleet::FleetScheduler> fleet;
  rep.ctor_s = sw.time("fleet.ctor", id, [&] {
    fleet = std::make_unique<fleet::FleetScheduler>(cfg, std::move(jobs),
                                                    policy);
  });
  rep.run_s = sw.time("fleet.run", id, [&] { fleet->run(); });
  sw.span("fleet", t0, sw.now(), id);
  rep.report = fleet->report();

  const fleet::FleetReport& r = rep.report;
  std::uint64_t aborts = 0;
  for (std::uint64_t job = 1; job <= r.jobs; ++job)
    aborts += fleet->job_stats(job).aborts;
  tally.attempted += r.jobs;
  if (!r.complete) tally.fail(r.jobs - r.finished, "fleet: run incomplete");
  if (r.rejected != 0) tally.fail(r.rejected, "fleet: jobs rejected");
  if (aborts != 0) tally.fail(aborts, "fleet: transfers aborted");
  return rep;
}

/// The job mix of repetition `rep`: the run cycles through spec.mixes
/// distinct mixes drawn from its seed, so the time-to-safe figure is an
/// average over several fleets rather than one mix's tail.
std::uint64_t mix_seed(const FleetSpec& spec, std::uint64_t seed,
                       std::size_t rep) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + rep % spec.mixes;
  return splitmix64(state);
}

class FleetPhase final : public Phase {
 public:
  FleetPhase(const FleetSpec& spec, const PhaseOptions& opt)
      : spec_(spec), opt_(opt) {}

  bool repeat() override {
    const std::size_t i = reps_.size();
    try {
      reps_.push_back(run_rep(spec_, mix_seed(spec_, opt_.seed, i), nullptr,
                              clock_, i, tally_));
    } catch (const std::exception& e) {
      tally_.fail(1, std::string("fleet threw: ") + e.what());
      return false;
    }
    if (i >= spec_.mixes &&
        reps_[i].report.digest != reps_[i % spec_.mixes].report.digest) {
      tally_.fail(1, "fleet: digest differs between repetitions of one mix");
    }
    return true;
  }

  /// Untraced, every mix runs at least twice, so its run time is a median
  /// and the digest check between repetitions always runs.
  std::size_t min_reps() const override {
    return opt_.traced ? 1 : 2 * spec_.mixes;
  }

  PhaseResult finish() override {
    PhaseResult out;
    out.tally = tally_;
    if (reps_.empty()) return out;
    fill_end_to_end(out);
    if (!opt_.traced) return out;
    try {
      fill_per_layer(out);
    } catch (const std::exception& e) {
      out.tally.fail(1, std::string("fleet threw: ") + e.what());
    }
    return out;
  }

 private:
  /// Median run seconds of each mix's repetitions.
  std::vector<double> run_s_per_mix() const {
    std::vector<std::vector<double>> by_mix(spec_.mixes);
    for (std::size_t i = 0; i < reps_.size(); ++i)
      by_mix[i % spec_.mixes].push_back(reps_[i].run_s);
    std::vector<double> out;
    for (const std::vector<double>& runs : by_mix)
      if (!runs.empty()) out.push_back(median(runs));
    return out;
  }

  void fill_end_to_end(PhaseResult& out) const {
    // Checkpoints per second over one pass through the mixes, each mix
    // timed by the median of its repetitions; time-to-safe is the mean of
    // the mixes' p99 (a deterministic figure for a given seed).
    const std::vector<double> runs = run_s_per_mix();
    double ckpts = 0.0, run_s = 0.0, tts = 0.0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ckpts += double(reps_[i].report.checkpoints);
      run_s += runs[i];
      tts += reps_[i].report.tts_p99_s / double(runs.size());
    }
    std::vector<double> setups;
    for (const Rep& r : reps_) setups.push_back(r.mix_s + r.ctor_s);
    out.setup_s = median(setups);
    out.values["fleet_ckpts_per_s"] = ckpts / run_s;
    out.values["fleet_tts_p99_s"] = tts;
    std::ostringstream note;
    note << "fleet: " << spec_.jobs << " jobs, " << spec_.shards
         << " shards, " << reps_.size() << " runs over " << runs.size()
         << " job mixes, " << std::uint64_t(ckpts)
         << " simulated checkpoints per pass, first digest "
         << reps_.front().report.digest;
    out.notes.push_back(note.str());
  }

  /// One traced run of the first mix: the library reports through its
  /// hub (a small trace ring, as the fleet emits per-chunk events) and the
  /// bench spans go to a hub of their own, so none of them is dropped.
  void fill_per_layer(PhaseResult& out) const {
    obs::Hub lib_hub(1 << 16);
    obs::Hub bench_hub;
    const Stopwatch sw(&bench_hub);
    const Rep t = run_rep(spec_, mix_seed(spec_, opt_.seed, 0), &lib_hub, sw,
                          0, out.tally);
    if (t.report.digest != reps_.front().report.digest) {
      out.tally.fail(1, "fleet: traced digest differs from untraced");
    }
    const std::string json = obs::trace_to_chrome_json(bench_hub.trace);
    if (!opt_.trace_path.empty()) write_file(opt_.trace_path, json);
    const Breakdown b = breakdown(json, "fleet");
    const auto self = [&](const char* layer) {
      const auto it = b.self_s.find(layer);
      return it == b.self_s.end() ? 0.0 : it->second;
    };
    namespace on = obs::names;
    const obs::MetricsSnapshot m = lib_hub.metrics.snapshot();
    const auto count = [&](const char* name) {
      return double(m.counter_or_zero(name));
    };
    Values& v = out.values;
    v["fleet.mix_s"] = self("fleet.mix");
    v["fleet.ctor_s"] = self("fleet.ctor");
    v["fleet.run_s"] = self("fleet.run");
    v["fleet.checkpoints"] = count(on::kFleetCheckpoints);
    v["fleet.us_per_ckpt"] =
        v["fleet.checkpoints"] > 0.0
            ? v["fleet.run_s"] / v["fleet.checkpoints"] * 1e6
            : 0.0;
    v["fleet.commits"] = count(on::kFleetCommits);
    v["fleet.queued"] = count(on::kFleetJobsQueued);
    v["fleet.rejected"] = count(on::kFleetJobsRejected);
    v["fleet.failures"] = count(on::kFleetFailures);
    v["fleet.xfer_chunks_sent"] = count(on::kXferChunksSent);
    v["fleet.xfer_retries"] = count(on::kXferRetries);
    v["fleet.xfer_transfers_aborted"] = count(on::kXferAborts);
    v["fleet.trace_overhead_frac"] = t.run_s / run_s_per_mix().front() - 1.0;
    out.dropped_events = bench_hub.trace.dropped();
  }

  FleetSpec spec_;
  PhaseOptions opt_;
  Stopwatch clock_{nullptr};
  std::vector<Rep> reps_;
  Tally tally_;
};

}  // namespace

std::unique_ptr<Phase> make_fleet_phase(const FleetSpec& spec,
                                        const PhaseOptions& opt) {
  return std::make_unique<FleetPhase>(spec, opt);
}

}  // namespace perfbench
