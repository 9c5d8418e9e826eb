// The three phases a benchmark run is made of. Each drives the library
// only through its public calls and fills the catalog metrics it owns:
//
//   checkpoint life — step → snapshot → protect → capture → store
//                     (serialize + CRC inside), then recover → restore
//                     (ckpt_phase.cc)
//   fleet           — the multi-tenant control plane (fleet_phase.cc)
//   adaptive loop   — control::run_experiment under AIC (aic_phase.cc)
//
// A phase is measured in repetitions (an episode of checkpoints, a fleet
// run, an experiment); a run plans how many of each it makes from its
// length and the specs' nominal repetition costs.
// finish() turns the untraced repetitions into the end-to-end metrics;
// traced, it then runs traced repetitions, checks that they reproduce the
// untraced ones, and fills the per-layer metrics. Every correctness check
// that fails is counted in the phase's Tally.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "workload/workload.h"

namespace perfbench {

/// Deliberate faults the self-test injects to prove the gates close.
enum class Fault {
  kNone,
  /// Flip one byte of a stored checkpoint record before verification.
  kCorruptStoredRecord,
  /// Flip one byte of the restored image before the byte-exact compare.
  kWrongRestoredByte,
};

struct PhaseOptions {
  std::uint64_t seed = 1;
  bool traced = false;
  /// Where a traced phase writes its Chrome trace export ("" = nowhere).
  std::string trace_path;
  Fault fault = Fault::kNone;
};

struct PhaseResult {
  Values values;
  Tally tally;
  /// Median set-up seconds (workload init, fleet mix generation).
  double setup_s = 0.0;
  /// Trace events the analysed logs could not hold (traced runs).
  std::uint64_t dropped_events = 0;
  /// Human-readable lines for the log (sample counts, modelled vs
  /// measured costs, the closure check).
  std::vector<std::string> notes;
};

class Phase {
 public:
  virtual ~Phase() = default;
  /// Runs and records one more untraced repetition; false once the phase
  /// cannot go on (a repetition threw, which is counted as a failure).
  virtual bool repeat() = 0;
  /// Fewest repetitions the phase's metrics need.
  virtual std::size_t min_reps() const = 0;
  virtual PhaseResult finish() = 0;
};

struct CkptSpec {
  aic::workload::SpecBenchmark benchmark = aic::workload::SpecBenchmark::kMilc;
  double scale = 1.0;
  bool correcting = false;
  unsigned compress_workers = 3;
  /// Incremental checkpoints per episode (one virtual second apart).
  int checkpoints_per_episode = 32;
  /// Fewest checkpoints an untraced run times, so p95 has >= 10 samples
  /// above it.
  std::size_t min_samples = 200;
  /// Wall seconds of one episode on the reference host (planning only).
  double nominal_s = 1.0;
};

struct FleetSpec {
  std::size_t jobs = 10000;
  int shards = 2;
  /// Distinct seeded job mixes per run (the run repeats them in turn).
  std::size_t mixes = 2;
  /// Wall seconds of one fleet run on the reference host (planning only).
  double nominal_s = 1.0;
};

struct AicSpec {
  aic::workload::SpecBenchmark benchmark =
      aic::workload::SpecBenchmark::kSjeng;
  double scale = 1.0;
  unsigned compress_workers = 3;
  std::size_t min_reps = 2;
  /// Wall seconds of one experiment on the reference host (planning only).
  double nominal_s = 1.0;
};

std::unique_ptr<Phase> make_ckpt_phase(const CkptSpec& spec,
                                       const PhaseOptions& opt);
std::unique_ptr<Phase> make_fleet_phase(const FleetSpec& spec,
                                        const PhaseOptions& opt);
std::unique_ptr<Phase> make_aic_phase(const AicSpec& spec,
                                      const PhaseOptions& opt);

}  // namespace perfbench
