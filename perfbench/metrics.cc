#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"

namespace perfbench {

namespace {
constexpr bool kHigher = true;
constexpr bool kLower = false;
constexpr Scope kE2E = Scope::kEndToEnd;
constexpr Scope kLayer = Scope::kPerLayer;
}  // namespace

const std::vector<MetricDef>& catalog() {
  // Checkpoint-life layer times are per-checkpoint (or per-restart) means
  // of the layer's self time in the exported trace; fleet and AIC layer
  // figures come from one traced run.
  static const std::vector<MetricDef> kCatalog = {
      // End to end (untraced runs).
      {"setup_s", "s", kLower, kE2E},
      {"ckpt_mbps", "MB/s", kHigher, kE2E},
      {"ckpt_p50_ms", "ms", kLower, kE2E},
      {"ckpt_p95_ms", "ms", kLower, kE2E},
      {"restart_ms", "ms", kLower, kE2E},
      {"stored_ratio", "ratio", kLower, kE2E},
      {"fleet_ckpts_per_s", "1/s", kHigher, kE2E},
      {"fleet_tts_p99_s", "s", kLower, kE2E},
      {"aic_run_s", "s", kLower, kE2E},
      {"net2", "ratio", kLower, kE2E},
      // Checkpoint life, one layer at a time (traced runs).
      {"workload.step_ms", "ms", kLower, kLayer},
      {"mem.snapshot_ms", "ms", kLower, kLayer},
      {"mem.protect_ms", "ms", kLower, kLayer},
      // The halt (snapshot + protect_all) as a median over the run's
      // untraced checkpoints. Not an end-to-end metric: on the 8192-page
      // workloads its spread between runs follows the host by up to a
      // third, over the largest bound an end-to-end metric may have
      // (README.md).
      {"halt_p50_ms", "ms", kLower, kLayer},
      {"mem.dirty_pages", "count", kLower, kLayer},
      {"mem.live_pages", "count", kLower, kLayer},
      {"ckpt.capture_ms", "ms", kLower, kLayer},
      {"delta.compress_ms", "ms", kLower, kLayer},
      {"ckpt.fold_ms", "ms", kLower, kLayer},
      {"delta.work_units", "count", kLower, kLayer},
      {"delta.work_units_per_s", "units/s", kHigher, kLayer},
      {"delta.pages_delta", "count", kHigher, kLayer},
      {"delta.pages_raw", "count", kLower, kLayer},
      {"delta.pages_same", "count", kHigher, kLayer},
      {"delta.pages_moved", "count", kHigher, kLayer},
      {"delta.useful_frac", "frac", kHigher, kLayer},
      {"ckpt.serialize_ms", "ms", kLower, kLayer},
      {"ckpt.serialize_mbps", "MB/s", kHigher, kLayer},
      {"ckpt.file_bytes", "B", kLower, kLayer},
      {"storage.put_ms", "ms", kLower, kLayer},
      {"storage.put_mbps", "MB/s", kHigher, kLayer},
      {"storage.raid_s", "s", kLower, kLayer},
      {"storage.remote_s", "s", kLower, kLayer},
      {"xfer.chunks_sent", "count", kLower, kLayer},
      {"xfer.retries", "count", kLower, kLayer},
      {"xfer.transfers_aborted", "count", kLower, kLayer},
      {"storage.recover_ms", "ms", kLower, kLayer},
      {"ckpt.parse_ms", "ms", kLower, kLayer},
      {"ckpt.parse_mbps", "MB/s", kHigher, kLayer},
      {"ckpt.restore_ms", "ms", kLower, kLayer},
      {"ckpt.restore_mbps", "MB/s", kHigher, kLayer},
      {"ckpt.samples", "count", kHigher, kLayer},
      {"ckpt.closure_gap_frac", "frac", kLower, kLayer},
      {"ckpt.trace_overhead_frac", "frac", kLower, kLayer},
      {"model.compress_bps", "units/s", kHigher, kLayer},
      {"model.host_over_model", "ratio", kHigher, kLayer},
      // Fleet control plane.
      {"fleet.mix_s", "s", kLower, kLayer},
      {"fleet.ctor_s", "s", kLower, kLayer},
      {"fleet.run_s", "s", kLower, kLayer},
      {"fleet.us_per_ckpt", "us", kLower, kLayer},
      {"fleet.checkpoints", "count", kHigher, kLayer},
      {"fleet.commits", "count", kHigher, kLayer},
      {"fleet.queued", "count", kLower, kLayer},
      {"fleet.rejected", "count", kLower, kLayer},
      {"fleet.failures", "count", kLower, kLayer},
      {"fleet.xfer_chunks_sent", "count", kLower, kLayer},
      {"fleet.xfer_retries", "count", kLower, kLayer},
      {"fleet.xfer_transfers_aborted", "count", kLower, kLayer},
      {"fleet.trace_overhead_frac", "frac", kLower, kLayer},
      // The adaptive (AIC) loop.
      {"aic.intervals", "count", kLower, kLayer},
      {"aic.decisions", "count", kLower, kLayer},
      {"aic.capture_s", "s", kLower, kLayer},
      {"aic.step_s", "s", kLower, kLayer},
      {"aic.control_s", "s", kLower, kLayer},
      {"aic.newton_iters", "count", kLower, kLayer},
      {"aic.trace_overhead_frac", "frac", kLower, kLayer},
      {"trace.dropped_events", "count", kLower, kLayer},
  };
  return kCatalog;
}

void Tally::fail(std::uint64_t count, std::string reason) {
  failed += count;
  reasons.push_back(std::move(reason));
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  reasons.insert(reasons.end(), other.reasons.begin(), other.reasons.end());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string result_json(bool correct, const Tally& tally, const Values& values,
                        Scope scope) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : catalog()) {
    if (d.scope != scope) continue;
    const auto it = values.find(d.name);
    AIC_CHECK_MSG(it != values.end(), "metric " << d.name << " not measured");
    AIC_CHECK_MSG(std::isfinite(it->second),
                  "metric " << d.name << " is not finite");
    os << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
       << aic::obs::json_number(it->second) << ", \"unit\": \"" << d.unit
       << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string catalog_json() {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const MetricDef& d : catalog()) {
    os << (first ? "" : ", ") << "\"" << d.name << "\": {\"unit\": \""
       << d.unit << "\", \"better\": \""
       << (d.higher_is_better ? "higher" : "lower") << "\", \"scope\": \""
       << (d.scope == Scope::kEndToEnd ? "end_to_end" : "per_layer")
       << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

}  // namespace perfbench
