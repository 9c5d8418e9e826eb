// The adaptive loop: control::run_experiment under AIC with the paper's
// scaled costs, timed on the host. It is the only phase that runs the
// hot-page sampler on every fault and the predictor and Newton–Raphson
// decider every decision period; capture is a minority of its time.
//
// run_experiment builds its workload internally, so the phase's set-up
// figure is the same workload's initialisation measured on its own. The
// traced run splits the experiment's time with a replay: the same
// workload's ticks and the same checkpoints (CheckpointChain::capture +
// protect_all) at the instants the experiment took them, without the
// sampler, predictor and decider, whose cost is what remains
// (aic.control_s).
#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpointer.h"
#include "common/units.h"
#include "control/cost_model.h"
#include "control/experiment.h"
#include "model/system_profile.h"
#include "obs/export.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "phases.h"
#include "spans.h"

namespace perfbench {

namespace {

using namespace aic;

control::ExperimentConfig experiment_config(const AicSpec& spec,
                                            obs::Hub* hub) {
  // The Section V testbed: a total failure rate of 1e-3/s split across
  // the three levels with the Coastal shares.
  control::ExperimentConfig cfg;
  const std::array<double, 3> split = model::split_rate(1e-3);
  cfg.system.lambda = {split[0], split[1], split[2]};
  cfg.workload_scale = spec.scale;
  cfg.compress_workers = spec.compress_workers;
  const workload::WorkloadProfile prof =
      workload::spec_profile(spec.benchmark, spec.scale);
  cfg.costs =
      control::CostModel::paper_scaled(prof.footprint_pages * kPageSize);
  cfg.obs = hub;
  return cfg;
}

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  control::ExperimentResult result;
};

Rep run_rep(const AicSpec& spec, obs::Hub* hub, const Stopwatch& sw,
            std::uint64_t id, Tally& tally) {
  Rep rep;
  rep.setup_s = sw.time("aic.setup", id, [&] {
    mem::AddressSpace space;
    workload::make_spec_workload(spec.benchmark, spec.scale)
        ->initialize(space);
  });
  const control::ExperimentConfig cfg = experiment_config(spec, hub);
  const double t0 = sw.now();
  rep.run_s = sw.time("aic.run", id, [&] {
    rep.result = control::run_experiment(control::Scheme::kAic,
                                         spec.benchmark, cfg);
  });
  sw.span("aic", t0, sw.now(), id);
  tally.attempted += 1;
  if (!std::isfinite(rep.result.net2)) tally.fail(1, "aic: NET^2 not finite");
  return rep;
}

struct Replay {
  double step_s = 0.0;     // workload init and ticks
  double capture_s = 0.0;  // checkpoints: capture + protect_all
};

/// The experiment's application work and checkpoints again, in its order:
/// decision periods of tick-sized steps, a checkpoint wherever the
/// experiment ended an interval. Every capture must store the bytes the
/// experiment recorded for that interval.
Replay replay(const AicSpec& spec, const control::ExperimentConfig& cfg,
              const control::ExperimentResult& result, const Stopwatch& sw,
              std::uint64_t id, Tally& tally) {
  Replay r;
  mem::AddressSpace space;
  std::unique_ptr<workload::SyntheticWorkload> w;
  r.step_s += sw.time("aic.step", id, [&] {
    w = workload::make_spec_workload(spec.benchmark, spec.scale);
    w->initialize(space);
  });
  ckpt::CheckpointChain::Config chain_cfg;
  chain_cfg.full_period = cfg.full_period;
  chain_cfg.correcting = cfg.correcting_codec;
  chain_cfg.compress_workers = cfg.compress_workers;
  ckpt::CheckpointChain chain(chain_cfg);
  const auto checkpoint = [&](double now) {
    ckpt::CaptureStats st;
    r.capture_s += sw.time("aic.capture", id, [&] {
      st = chain.capture(space, w->cpu_state(), now);
      space.protect_all();
    });
    return st;
  };
  checkpoint(0.0);

  const double tick = workload::SyntheticWorkload::kTick;
  double now = 0.0;
  std::size_t next = 0;
  bool same = true;
  while (!w->finished()) {
    r.step_s += sw.time("aic.step", id, [&] {
      for (double left = cfg.decision_period; left > 1e-12; left -= tick) {
        w->step(space, std::min(tick, left));
        now += std::min(tick, left);
      }
    });
    if (next < result.intervals.size()) {
      const control::IntervalRecord& rec = result.intervals[next];
      if (std::abs(now - (rec.start_time + rec.w)) < 1e-6) {
        same = same && checkpoint(now).file_bytes == rec.delta_bytes;
        ++next;
      }
    }
  }
  tally.attempted += 1;
  if (!same || next != result.intervals.size()) {
    tally.fail(1, "aic: the replay's checkpoints differ from the experiment's");
  }
  return r;
}

class AicPhase final : public Phase {
 public:
  AicPhase(const AicSpec& spec, const PhaseOptions& opt)
      : spec_(spec), opt_(opt) {}

  bool repeat() override {
    try {
      reps_.push_back(run_rep(spec_, nullptr, clock_, reps_.size(), tally_));
    } catch (const std::exception& e) {
      tally_.fail(1, std::string("aic threw: ") + e.what());
      return false;
    }
    if (reps_.back().result.net2 != reps_.front().result.net2) {
      tally_.fail(1, "aic: NET^2 differs between repetitions");
    }
    return true;
  }

  std::size_t min_reps() const override {
    return opt_.traced ? 1 : spec_.min_reps;
  }

  PhaseResult finish() override {
    PhaseResult out;
    out.tally = tally_;
    if (reps_.empty()) return out;
    std::vector<double> setups;
    for (const Rep& r : reps_) setups.push_back(r.setup_s);
    out.setup_s = median(setups);
    out.values["aic_run_s"] = median_run_s();
    out.values["net2"] = reps_.front().result.net2;
    std::ostringstream note;
    note << "aic: " << workload::to_string(spec_.benchmark) << " at scale "
         << spec_.scale << ", " << reps_.size() << " runs, "
         << reps_.front().result.intervals.size() << " checkpoints, NET^2 "
         << reps_.front().result.net2;
    out.notes.push_back(note.str());
    if (!opt_.traced) return out;
    try {
      fill_per_layer(out);
    } catch (const std::exception& e) {
      out.tally.fail(1, std::string("aic threw: ") + e.what());
    }
    return out;
  }

 private:
  double median_run_s() const {
    std::vector<double> runs;
    for (const Rep& r : reps_) runs.push_back(r.run_s);
    return median(runs);
  }

  void fill_per_layer(PhaseResult& out) const {
    obs::Hub hub;
    const Stopwatch sw(&hub);
    const Rep t = run_rep(spec_, &hub, sw, 0, out.tally);
    if (t.result.net2 != reps_.front().result.net2) {
      out.tally.fail(1, "aic: traced NET^2 differs from untraced");
    }
    const Replay r = replay(spec_, experiment_config(spec_, nullptr),
                            t.result, sw, 1, out.tally);
    if (!opt_.trace_path.empty()) {
      write_file(opt_.trace_path, obs::trace_to_chrome_json(hub.trace));
    }
    namespace on = obs::names;
    const obs::MetricsSnapshot m = hub.metrics.snapshot();
    const auto iters = m.histograms.find(on::kDeciderNewtonIters);
    Values& v = out.values;
    v["aic.intervals"] = double(t.result.intervals.size());
    v["aic.decisions"] = double(m.counter_or_zero(on::kDeciderEvaluations));
    v["aic.capture_s"] = r.capture_s;
    v["aic.step_s"] = r.step_s;
    v["aic.control_s"] = t.run_s - r.step_s - r.capture_s;
    v["aic.newton_iters"] =
        iters == m.histograms.end() ? 0.0 : iters->second.mean();
    v["aic.trace_overhead_frac"] = t.run_s / median_run_s() - 1.0;
    out.dropped_events = hub.trace.dropped();
  }

  AicSpec spec_;
  PhaseOptions opt_;
  Stopwatch clock_{nullptr};
  std::vector<Rep> reps_;
  Tally tally_;
};

}  // namespace

std::unique_ptr<Phase> make_aic_phase(const AicSpec& spec,
                                      const PhaseOptions& opt) {
  return std::make_unique<AicPhase>(spec, opt);
}

}  // namespace perfbench
