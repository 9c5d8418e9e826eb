// aic_perfbench — the repository's end-to-end benchmark.
//
//   aic_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-dir <dir>]
//   aic_perfbench --selftest
//   aic_perfbench --list-metrics
//
// A run is made of three phases (phases.h): checkpoint life, the fleet
// control plane and the adaptive loop. The workload names the checkpoint
// input, which gets most of the run; every workload also runs the same
// fleet and adaptive-loop inputs, so that every end-to-end metric is
// measured on every workload. The last stdout line is the result object;
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. A
// run whose correctness checks fail prints its result with "correct":
// false and exits 1.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/build_info.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "phases.h"

namespace perfbench {
namespace {

using aic::workload::SpecBenchmark;

constexpr double kWarmUpSeconds = 2.5;

/// Shares of a run's measured time; the checkpoint input is what tells the
/// workloads apart.
constexpr double kCkptShare = 0.6;
constexpr double kFleetShare = 0.2;
constexpr double kAicShare = 0.2;

// The fleet and adaptive-loop inputs every workload runs. Nominal costs
// are one repetition's wall seconds on the reference host (4-vCPU Xeon VM,
// gcc 12, RelWithDebInfo); they only size the plan of a run.
//
// 10k LANL jobs on 2 shards: control plane only (admission, shard passes,
// the shared transfer scheduler), whose cost grows faster than linearly
// with the job count. One mix, run at least twice.
constexpr FleetSpec kFleet{
    .jobs = 10000, .shards = 2, .mixes = 1, .nominal_s = 6.6};
// AIC on sjeng: the hot-page sampler on every fault, the predictor and the
// Newton-Raphson decider every decision period; capture is a minority.
constexpr AicSpec kAic{.benchmark = SpecBenchmark::kSjeng,
                       .min_reps = 2,
                       .nominal_s = 2.7};

struct WorkloadDef {
  const char* name;
  CkptSpec ckpt;
  FleetSpec fleet = kFleet;
  AicSpec aic = kAic;
};

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> kWorkloads = {
      // milc: the most bytes per checkpoint, half of them incompressible —
      // codec, CRC, RAID-5 striping and chain replay. One compression
      // worker: with three, the shards' wake-up after each interval made
      // the run-to-run spread of ckpt_p50_ms exceed its bound on the
      // reference host.
      {"dense-greedy",
       {.benchmark = SpecBenchmark::kMilc,
        .compress_workers = 1,
        .checkpoints_per_episode = 32,
        .nominal_s = 1.77}},
      // sphinx3 + correcting coder: a handful of dirty pages out of 8192,
      // so per-capture O(footprint) work (move index, protect_all, live and
      // freed scans) dominates and the codec has almost nothing to do.
      {"sparse-correcting",
       {.benchmark = SpecBenchmark::kSphinx3,
        .correcting = true,
        .checkpoints_per_episode = 20,
        .nominal_s = 1.73}},
  };
  return kWorkloads;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

/// Tiny sizes for the self-test: every phase, seconds-scale in total.
WorkloadDef tiny(WorkloadDef w) {
  w.ckpt.scale = 0.02;
  w.ckpt.checkpoints_per_episode = 4;
  w.ckpt.min_samples = 8;
  w.fleet.jobs = 40;
  w.fleet.mixes = 2;
  w.aic.scale = 0.02;
  w.aic.min_reps = 2;
  return w;
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_dir;
};

struct RunOutcome {
  bool correct = false;
  Tally tally;
  Values values;
  std::vector<std::string> notes;
};

/// Untimed load on every core. On virtualised hosts cores that sat idle
/// for a few seconds run parallel work at a fraction of their speed for
/// the first ~2 s of load (a 4-vCPU VM measured checkpoint captures at
/// 20 ms instead of 8 ms until then); without this the first repetitions
/// would measure the host's wake-up rather than the code.
void warm_up(double seconds) {
  const std::uint64_t t0 = aic::obs::wall_now_ns();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
       ++i) {
    threads.emplace_back([&] {
      volatile std::uint64_t sink = 0;
      while (aic::obs::wall_seconds_since(t0) < seconds)
        for (std::uint64_t k = 0; k < 100000; ++k) sink = sink + k;
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Runs the planned repetitions interleaved in a fixed order: the phase
/// least far through its plan goes next. The sequence of operations depends
/// only on the plan, never on timing; the plan itself comes from the
/// workload, seed and --seconds.
void run_plan(const std::vector<Phase*>& phases,
              const std::vector<std::size_t>& planned) {
  std::vector<std::size_t> done(phases.size(), 0);
  std::vector<bool> live(phases.size(), true);
  for (;;) {
    std::size_t next = phases.size();
    for (std::size_t i = 0; i < phases.size(); ++i) {
      if (!live[i] || done[i] >= planned[i]) continue;
      if (next == phases.size() ||
          double(done[i]) / double(planned[i]) <
              double(done[next]) / double(planned[next]))
        next = i;
    }
    if (next == phases.size()) return;
    live[next] = phases[next]->repeat();
    ++done[next];
  }
}

RunOutcome run_workload(const WorkloadDef& w, const RunConfig& rc,
                        double warm_up_s) {
  const auto options = [&](const char* phase) {
    PhaseOptions o;
    o.seed = rc.seed;
    o.traced = rc.traced;
    if (rc.traced && !rc.trace_dir.empty()) {
      o.trace_path = rc.trace_dir + "/" + w.name + "-" + phase + "-seed" +
                     std::to_string(rc.seed) + ".json";
    }
    return o;
  };
  const std::unique_ptr<Phase> ckpt = make_ckpt_phase(w.ckpt, options("ckpt"));
  const std::unique_ptr<Phase> fleet =
      make_fleet_phase(w.fleet, options("fleet"));
  const std::unique_ptr<Phase> aic = make_aic_phase(w.aic, options("aic"));
  // A traced run spends half of its measured time untraced, as the
  // overhead baseline. All three phases run interleaved over the whole
  // run: the host's speed drifts by tens of percent over seconds to
  // minutes, and a metric sampled across the whole run averages more of
  // that drift than one sampled in a slice.
  const double measured_s = rc.traced ? rc.seconds / 2 : rc.seconds;
  const auto planned = [&](const Phase& phase, double nominal_s,
                           double share) {
    return std::max(phase.min_reps(),
                    std::size_t(measured_s * share / nominal_s + 0.5));
  };
  warm_up(warm_up_s);
  run_plan({ckpt.get(), fleet.get(), aic.get()},
           {planned(*ckpt, w.ckpt.nominal_s, kCkptShare),
            planned(*fleet, w.fleet.nominal_s, kFleetShare),
            planned(*aic, w.aic.nominal_s, kAicShare)});

  RunOutcome out;
  double setup_s = 0.0;
  std::uint64_t dropped = 0;
  for (Phase* phase : {ckpt.get(), fleet.get(), aic.get()}) {
    const PhaseResult p = phase->finish();
    out.values.insert(p.values.begin(), p.values.end());
    out.tally.merge(p.tally);
    out.notes.insert(out.notes.end(), p.notes.begin(), p.notes.end());
    setup_s += p.setup_s;
    dropped += p.dropped_events;
  }
  out.values["setup_s"] = setup_s;
  out.values["trace.dropped_events"] = double(dropped);
  out.correct = out.tally.failed == 0 && out.tally.attempted > 0;
  return out;
}

/// Refuses sanitizer builds: their timings say nothing about the code.
bool sanitized(const aic::obs::BuildInfo& info) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#endif
#endif
  return !info.sanitizer.empty();
}

std::string provenance_json(const RunConfig& rc, const WorkloadDef& w,
                            const aic::obs::BuildInfo& info) {
  using aic::obs::json_escape;
  std::string s = "{\"provenance\": {";
  s += "\"workload\": \"" + json_escape(rc.workload) + "\"";
  s += ", \"seed\": " + std::to_string(rc.seed);
  s += ", \"trace\": " + std::string(rc.traced ? "1" : "0");
  s += ", \"build_type\": \"" + json_escape(info.build_type) + "\"";
  s += ", \"compiler\": \"" + json_escape(info.compiler) + "\"";
  s += ", \"sanitizer\": \"" + json_escape(info.sanitizer) + "\"";
  s += ", \"git_sha\": \"" + json_escape(info.git_sha) + "\"";
  s += ", \"nproc\": " + std::to_string(info.nproc);
  s += ", \"ckpt_workers\": " + std::to_string(w.ckpt.compress_workers);
  s += ", \"aic_workers\": " + std::to_string(w.aic.compress_workers);
  s += ", \"fleet_shards\": " + std::to_string(w.fleet.shards);
  s += ", \"fleet_jobs\": " + std::to_string(w.fleet.jobs);
  s += "}}";
  return s;
}

int run_main(const RunConfig& rc) {
  const WorkloadDef* def = find_workload(rc.workload);
  if (def == nullptr) {
    std::cerr << "unknown workload '" << rc.workload << "'\n";
    return 2;
  }
  const aic::obs::BuildInfo info = aic::obs::current_build_info();
  if (sanitized(info)) {
    std::cerr << "refusing to report timings from a sanitizer build ("
              << info.sanitizer << ")\n";
    return 3;
  }
  const RunOutcome out = run_workload(*def, rc, kWarmUpSeconds);
  std::cout << "perfbench " << rc.workload << " seed " << rc.seed << " ("
            << (rc.traced ? "traced" : "untraced") << ", " << info.build_type
            << ", " << info.compiler << ", nproc " << info.nproc << ")\n";
  for (const std::string& n : out.notes) std::cout << "  " << n << "\n";
  for (const std::string& r : out.tally.reasons)
    std::cerr << "FAILED: " << r << "\n";
  std::cout << provenance_json(rc, *def, info) << "\n";
  std::cout << result_json(out.correct, out.tally, out.values,
                           rc.traced ? Scope::kPerLayer : Scope::kEndToEnd)
            << std::endl;
  return out.correct ? 0 : 1;
}

/// Tiny-size checks that the benchmark's own gates work: the catalog is
/// complete, every workload prints every metric of both scopes, and a
/// corrupted stored record or a wrong restored byte fails the run.
int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };

  std::set<std::string> names;
  bool complete = true;
  for (const MetricDef& d : catalog()) {
    complete = complete && d.unit[0] != '\0' && names.insert(d.name).second;
  }
  expect(complete, "every catalog metric has a unique name and a unit");

  for (const WorkloadDef& def : workloads()) {
    for (const bool traced : {false, true}) {
      RunConfig rc;
      rc.workload = def.name;
      rc.seconds = 0.1;
      rc.traced = traced;
      const RunOutcome out = run_workload(tiny(def), rc, 0.0);
      bool printed = true;
      try {
        (void)result_json(out.correct, out.tally, out.values,
                          traced ? Scope::kPerLayer : Scope::kEndToEnd);
      } catch (const std::exception& e) {
        std::cout << "      " << e.what() << "\n";
        printed = false;
      }
      const std::string run = std::string(def.name) +
                              (traced ? " traced" : " untraced");
      expect(out.correct, run + ": every correctness check passes");
      for (const std::string& r : out.tally.reasons)
        std::cout << "      " << r << "\n";
      expect(printed, run + ": every metric of its scope is printed");
    }
  }

  const WorkloadDef probe = tiny(*find_workload("dense-greedy"));
  for (const Fault fault :
       {Fault::kCorruptStoredRecord, Fault::kWrongRestoredByte}) {
    PhaseOptions o;
    o.fault = fault;
    const std::unique_ptr<Phase> phase = make_ckpt_phase(probe.ckpt, o);
    run_plan({phase.get()}, {phase->min_reps()});
    const PhaseResult r = phase->finish();
    expect(r.tally.failed > 0 && r.tally.attempted > 0,
           fault == Fault::kCorruptStoredRecord
               ? "a corrupted stored record fails the run"
               : "a wrong restored byte fails the run");
  }
  std::cout << (failures == 0 ? "selftest: ok" : "selftest: FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: aic_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n"
               "       aic_perfbench --selftest | --list-metrics\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig rc;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const bool has_value = i + 1 < argc;
      if (a == "--selftest") return selftest();
      if (a == "--list-metrics") {
        std::cout << catalog_json() << std::endl;
        return 0;
      }
      if (a == "--workload" && has_value) {
        rc.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        rc.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        rc.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        const std::string v = argv[++i];
        if (v != "0" && v != "1") return usage();
        rc.traced = v == "1";
      } else if (a == "--trace-dir" && has_value) {
        rc.trace_dir = argv[++i];
      } else {
        return usage();
      }
    }
    if (rc.workload.empty() || !(rc.seconds > 0.0)) return usage();
    return run_main(rc);
  } catch (const std::exception& e) {
    std::cerr << "aic_perfbench: " << e.what() << "\n";
    return 2;
  }
}
