// Checkpoint life on the host: the AsyncCheckpointer protocol step by step,
// without its worker thread, so each stage is timed around its own call.
//
// An episode builds a fresh workload and takes its initial full checkpoint
// (the set-up: like the paper's testbed, the full image is staged before
// timed execution starts), then repeats `checkpoints_per_episode` times:
// one virtual second of application work, then one checkpoint —
//   snapshot   Snapshot::capture_pages of the dirty set + live_pages  (c1)
//   protect    AddressSpace::protect_all                              (c1)
//   capture    CheckpointChain::capture_pages (freed scan, compress, fold)
//   store      MultiLevelStore::put_checkpoint (serialize + CRC-32C, L1
//              write, L2/L3 drains)
// — and, after the checkpoint's time is taken, CheckpointFile::serialize of
// the same file on its own, which splits the serialize share out of the
// store stage (put_checkpoint serializes internally, and the protocol
// serializes once). An episode ends with a restart: recover(), then
// RestartEngine::restore, checked byte-exact against the live space, plus
// ChainVerifier over the records the store holds. Every episode of a run
// replays the same seeded input, so per-episode counts must agree exactly
// and timings are repeated measurements of one input.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpointer.h"
#include "common/rng.h"
#include "common/units.h"
#include "control/cost_model.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "phases.h"
#include "spans.h"
#include "storage/multilevel_store.h"
#include "verify/chain_verifier.h"

namespace perfbench {

namespace {

using namespace aic;

struct Sample {
  double total_s = 0.0;
  double halt_s = 0.0;
  double serialize_s = 0.0;  // the stand-alone serialize, outside total_s
  std::uint64_t dirty_bytes = 0;
  std::uint64_t serialized_bytes = 0;
};

/// Deterministic outcome of one episode; equal for every episode of a run.
struct Counts {
  std::uint64_t checkpoints = 0;
  std::uint64_t dirty_pages = 0;
  std::uint64_t live_pages = 0;
  std::uint64_t work_units = 0;
  std::uint64_t pages_delta = 0;
  std::uint64_t pages_raw = 0;
  std::uint64_t pages_same = 0;
  std::uint64_t pages_moved = 0;
  std::uint64_t serialized_bytes = 0;
  std::uint64_t chain_bytes = 0;     // every stored record, full included
  std::uint64_t restored_bytes = 0;  // restored image
  double raid_s = 0.0;               // virtual drain seconds
  double remote_s = 0.0;
  std::uint64_t chunks_sent = 0;     // the episode's xfer::Stats
  std::uint64_t retries = 0;
  std::uint64_t transfers_aborted = 0;
  std::uint64_t digest = 0;  // CRC fields of every stored record

  bool operator==(const Counts&) const = default;
};

struct Episode {
  double setup_s = 0.0;
  double restart_s = 0.0;
  std::vector<Sample> samples;
  Counts counts;
};

/// Every episode's input: the benchmark's profile re-seeded from the run
/// seed (the phase schedule stays the benchmark's own).
workload::WorkloadProfile seeded_profile(const CkptSpec& spec,
                                         std::uint64_t seed) {
  workload::WorkloadProfile p = workload::spec_profile(spec.benchmark,
                                                       spec.scale);
  std::uint64_t state = p.seed ^ (seed * 0x9E3779B97F4A7C15ull);
  p.seed = splitmix64(state);
  return p;
}

std::uint64_t stored_crc(const Bytes& record) {
  // Serialized layout: u64 magic, u32 CRC-32C, body.
  std::uint32_t crc = 0;
  if (record.size() >= 12) std::memcpy(&crc, record.data() + 8, sizeof crc);
  return crc;
}

class EpisodeRunner {
 public:
  EpisodeRunner(const CkptSpec& spec, std::uint64_t seed, obs::Hub* hub,
                Fault fault, std::uint64_t& next_id)
      : spec_(spec), seed_(seed), hub_(hub), sw_(hub), fault_(fault),
        next_id_(next_id) {}

  Episode run(Tally& tally);

 private:
  /// One checkpoint through every stage; `setup` marks the initial full
  /// one, whose spans get roots of their own.
  Sample checkpoint(bool setup, Counts& counts);

  const CkptSpec& spec_;
  std::uint64_t seed_;
  obs::Hub* hub_;
  Stopwatch sw_;
  Fault fault_;
  std::uint64_t& next_id_;

  std::unique_ptr<workload::SyntheticWorkload> workload_;
  mem::AddressSpace space_;
  std::unique_ptr<ckpt::CheckpointChain> chain_;
  std::unique_ptr<storage::MultiLevelStore> store_;
  double app_time_ = 0.0;
};

Sample EpisodeRunner::checkpoint(bool setup, Counts& counts) {
  const std::uint64_t id = next_id_++;
  const bool full = chain_->next_capture_is_full();
  mem::Snapshot pages;
  std::vector<mem::PageId> live;
  ckpt::CaptureStats stats;
  Bytes wire;
  storage::PlacementTimes placed;

  const double t0 = sw_.now();
  const double snapshot_s = sw_.time("mem.snapshot", id, [&] {
    pages = full ? mem::Snapshot::capture(space_)
                 : mem::Snapshot::capture_pages(space_, space_.dirty_pages());
    live = space_.live_pages();
  });
  const double protect_s =
      sw_.time("mem.protect", id, [&] { space_.protect_all(); });
  sw_.time("ckpt.capture", id, [&] {
    stats = chain_->capture_pages(pages, live, workload_->cpu_state(),
                                  app_time_);
  });
  sw_.time("storage.put", id,
           [&] { placed = store_->put_checkpoint(chain_->files().back()); });
  const double t1 = sw_.now();
  sw_.span(setup ? "setup.full" : "checkpoint", t0, t1, id);

  Sample s;
  s.serialize_s =
      sw_.time(setup ? "setup.serialize" : "ckpt.serialize", id,
               [&] { wire = chain_->files().back().serialize(); });
  s.total_s = t1 - t0;
  s.halt_s = snapshot_s + protect_s;
  s.dirty_bytes = stats.pages_written * kPageSize;
  s.serialized_bytes = stats.file_bytes;
  counts.chain_bytes += stats.file_bytes;
  counts.digest = counts.digest * 1099511628211ull ^ stored_crc(wire);
  if (!full) {
    ++counts.checkpoints;
    counts.dirty_pages += stats.pages_written;
    counts.live_pages += live.size();
    counts.work_units += stats.delta_work_units;
    counts.pages_delta += stats.pages_delta;
    counts.pages_raw += stats.pages_raw;
    counts.pages_same += stats.pages_same;
    counts.pages_moved += stats.pages_moved;
    counts.serialized_bytes += stats.file_bytes;
    counts.raid_s += placed.raid;
    counts.remote_s += placed.remote;
  }
  return s;
}

Episode EpisodeRunner::run(Tally& tally) {
  Episode ep;
  Counts& counts = ep.counts;

  // Set-up: workload init, chain and store, the initial full checkpoint.
  const double s0 = sw_.now();
  workload_ = std::make_unique<workload::SyntheticWorkload>(
      seeded_profile(spec_, seed_));
  workload_->initialize(space_);
  ckpt::CheckpointChain::Config cfg;
  cfg.full_period = 0;
  cfg.correcting = spec_.correcting;
  cfg.compress_workers = spec_.compress_workers;
  cfg.obs = hub_;
  chain_ = std::make_unique<ckpt::CheckpointChain>(cfg);
  store_ = std::make_unique<storage::MultiLevelStore>();
  const Sample full = checkpoint(true, counts);
  ep.setup_s = sw_.now() - s0 - full.serialize_s;

  for (int i = 0; i < spec_.checkpoints_per_episode; ++i) {
    sw_.time("workload.step", next_id_, [&] {
      workload_->step(space_, 1.0);
      app_time_ += 1.0;
    });
    ep.samples.push_back(checkpoint(false, counts));
    tally.attempted += 1;
  }
  const xfer::Stats xs = store_->xfer().stats();
  counts.chunks_sent = xs.chunks_sent;
  counts.retries = xs.retries;
  counts.transfers_aborted = xs.transfers_aborted;

  // Restart: the newest state the store can recover, restored and compared
  // byte for byte with the live space the chain was captured from.
  tally.attempted += 1;
  {
    const std::uint64_t rid = next_id_++;
    std::optional<storage::MultiLevelStore::Recovery> recovery;
    ckpt::RestartEngine::Restored restored;
    const double r0 = sw_.now();
    sw_.time("storage.recover", rid, [&] { recovery = store_->recover(); });
    if (recovery.has_value()) {
      sw_.time("ckpt.restore", rid, [&] {
        restored = ckpt::RestartEngine::restore(
            recovery->chain, delta::PageAlignedCompressor());
      });
    }
    const double r1 = sw_.now();
    sw_.span("restart", r0, r1, rid);
    ep.restart_s = r1 - r0;
    if (fault_ == Fault::kWrongRestoredByte &&
        restored.memory.page_count() > 0) {
      const mem::PageId first = restored.memory.page_ids().front();
      restored.memory.mutable_page_bytes(first)[0] ^= 0x5A;
    }
    counts.restored_bytes = restored.memory.page_count() * kPageSize;
    if (!recovery.has_value()) {
      tally.fail(1, "restart: the store recovered nothing");
    } else if (recovery->chain.size() != store_->checkpoints_stored() ||
               !restored.memory.equals_space(space_) ||
               restored.cpu_state != workload_->cpu_state()) {
      tally.fail(1, "restart: restored state differs from the live space");
    }
  }
  chain_.reset();  // the store holds everything the checks below read

  // The records the store holds: parsed on their own (the parse stage) and
  // checked by the chain verifier, which must report no error.
  std::vector<Bytes> records;
  for (std::uint64_t k = 0; k < store_->checkpoints_stored(); ++k) {
    std::optional<Bytes> r = store_->local().get("ckpt-" + std::to_string(k));
    if (!r.has_value()) {
      tally.fail(1, "store: record " + std::to_string(k) + " missing");
      return ep;
    }
    records.push_back(std::move(*r));
  }
  const std::uint64_t pid = next_id_++;
  sw_.time("ckpt.parse", pid, [&] {
    for (const Bytes& r : records) (void)ckpt::CheckpointFile::parse(r);
  });
  if (fault_ == Fault::kCorruptStoredRecord) {
    Bytes& victim = records[records.size() / 2];
    victim[victim.size() / 2] ^= 0x01;
  }
  const verify::Report report =
      verify::ChainVerifier().verify_serialized(records);
  if (!report.ok()) {
    tally.fail(report.error_count(), "verify: " + report.summary());
  }
  return ep;
}

struct Pass {
  std::vector<Episode> episodes;
  std::vector<double> totals_s;
  std::vector<double> halts_s;
  std::uint64_t next_id = 1;  // span ids, unique within the pass

  std::size_t samples() const { return totals_s.size(); }

  /// Runs one more episode; false when it threw.
  bool add(const CkptSpec& spec, const PhaseOptions& opt, obs::Hub* hub,
           Tally& tally) {
    Episode ep;
    try {
      ep = EpisodeRunner(spec, opt.seed, hub, opt.fault, next_id).run(tally);
    } catch (const std::exception& e) {
      tally.fail(1, std::string("episode threw: ") + e.what());
      return false;
    }
    if (!episodes.empty() && ep.counts != episodes[0].counts) {
      tally.fail(1, "episode outputs differ between repetitions of one seed");
    }
    for (const Sample& s : ep.samples) {
      totals_s.push_back(s.total_s);
      halts_s.push_back(s.halt_s);
    }
    episodes.push_back(std::move(ep));
    return true;
  }
};

void fill_end_to_end(const Pass& pass, PhaseResult& out) {
  std::uint64_t dirty = 0, serialized = 0;
  double total_s = 0.0;
  std::vector<double> setups, restarts;
  for (const Episode& ep : pass.episodes) {
    for (const Sample& s : ep.samples) {
      dirty += s.dirty_bytes;
      serialized += s.serialized_bytes;
      total_s += s.total_s;
    }
    setups.push_back(ep.setup_s);
    restarts.push_back(ep.restart_s);
  }
  Values& v = out.values;
  v["ckpt_p50_ms"] = median(pass.totals_s) * 1e3;
  v["ckpt_p95_ms"] = quantile(pass.totals_s, 0.95) * 1e3;
  v["halt_p50_ms"] = median(pass.halts_s) * 1e3;  // per-layer (metrics.cc)
  v["ckpt_mbps"] = total_s > 0.0 ? double(dirty) / total_s / 1e6 : 0.0;
  v["restart_ms"] = median(restarts) * 1e3;
  v["stored_ratio"] = dirty > 0 ? double(serialized) / double(dirty) : 0.0;
  out.setup_s = median(setups);
  std::ostringstream note;
  note << "checkpoints timed: " << pass.samples() << " in "
       << pass.episodes.size() << " episodes (p95 has "
       << pass.samples() - std::size_t(0.95 * double(pass.samples()))
       << " samples above it)";
  out.notes.push_back(note.str());
}

/// Mean duration in ms of the root spans a breakdown covers.
double mean_root_ms(const Breakdown& b) {
  return b.root_s / double(std::max<std::size_t>(b.roots, 1)) * 1e3;
}

void fill_per_layer(const Pass& pass, const std::string& chrome_json,
                    double untraced_p50_s, PhaseResult& out) {
  const Counts& c = pass.episodes.front().counts;
  const double n = double(std::max<std::uint64_t>(c.checkpoints, 1));
  const Breakdown ck = breakdown(chrome_json, "checkpoint");
  const double roots = double(std::max<std::size_t>(ck.roots, 1));
  const double episodes = double(pass.episodes.size());
  const Breakdown restart = breakdown(chrome_json, "restart");
  const auto per_ckpt_ms = [&](const char* layer) {
    const auto it = ck.self_s.find(layer);
    return it == ck.self_s.end() ? 0.0 : it->second / roots * 1e3;
  };
  const auto per_restart_ms = [&](const char* layer) {
    const auto it = restart.self_s.find(layer);
    return it == restart.self_s.end() ? 0.0 : it->second / episodes * 1e3;
  };
  const auto mbps = [](double bytes, double ms) {
    return ms > 0.0 ? bytes / (ms * 1e-3) / 1e6 : 0.0;
  };

  Values& v = out.values;
  v["workload.step_ms"] = mean_root_ms(breakdown(chrome_json, "workload.step"));
  v["mem.snapshot_ms"] = per_ckpt_ms("mem.snapshot");
  v["mem.protect_ms"] = per_ckpt_ms("mem.protect");
  v["mem.dirty_pages"] = double(c.dirty_pages) / n;
  v["mem.live_pages"] = double(c.live_pages) / n;
  v["delta.compress_ms"] = per_ckpt_ms("delta.shard");
  v["ckpt.fold_ms"] = per_ckpt_ms("ckpt.capture");
  v["ckpt.capture_ms"] = v["delta.compress_ms"] + v["ckpt.fold_ms"];
  v["delta.work_units"] = double(c.work_units) / n;
  v["delta.work_units_per_s"] =
      v["delta.compress_ms"] > 0.0
          ? v["delta.work_units"] / (v["delta.compress_ms"] * 1e-3)
          : 0.0;
  v["delta.pages_delta"] = double(c.pages_delta) / n;
  v["delta.pages_raw"] = double(c.pages_raw) / n;
  v["delta.pages_same"] = double(c.pages_same) / n;
  v["delta.pages_moved"] = double(c.pages_moved) / n;
  v["delta.useful_frac"] =
      c.dirty_pages > 0 ? double(c.pages_delta + c.pages_same + c.pages_moved) /
                              double(c.dirty_pages)
                        : 0.0;
  // put_checkpoint serializes the file itself; the stand-alone serialize
  // of the same file, timed after the checkpoint, splits that share out.
  v["ckpt.serialize_ms"] =
      mean_root_ms(breakdown(chrome_json, "ckpt.serialize"));
  v["ckpt.file_bytes"] = double(c.serialized_bytes) / n;
  v["ckpt.serialize_mbps"] = mbps(v["ckpt.file_bytes"], v["ckpt.serialize_ms"]);
  v["storage.put_ms"] = per_ckpt_ms("storage.put") - v["ckpt.serialize_ms"];
  v["storage.put_mbps"] = mbps(v["ckpt.file_bytes"], v["storage.put_ms"]);
  v["storage.raid_s"] = c.raid_s / n;
  v["storage.remote_s"] = c.remote_s / n;
  v["xfer.chunks_sent"] = double(c.chunks_sent);
  v["xfer.retries"] = double(c.retries);
  v["xfer.transfers_aborted"] = double(c.transfers_aborted);
  v["storage.recover_ms"] = per_restart_ms("storage.recover");
  v["ckpt.restore_ms"] = per_restart_ms("ckpt.restore");
  v["ckpt.restore_mbps"] = mbps(double(c.restored_bytes), v["ckpt.restore_ms"]);
  v["ckpt.parse_ms"] = mean_root_ms(breakdown(chrome_json, "ckpt.parse"));
  v["ckpt.parse_mbps"] = mbps(double(c.chain_bytes), v["ckpt.parse_ms"]);
  v["ckpt.samples"] = double(ck.roots);
  // Closure: the per-layer ledger, read back from the export, against the
  // checkpoints' mean end-to-end time as the clock took it around the whole
  // checkpoint (Sample::total_s, never exported). A stage left out of the
  // ledger, a span lost or a library span attributed to the wrong layer
  // opens the gap.
  double e2e_ms = 0.0;
  for (const double t : pass.totals_s) e2e_ms += t;
  e2e_ms = e2e_ms / double(std::max<std::size_t>(pass.samples(), 1)) * 1e3;
  const double ledger_ms = v["mem.snapshot_ms"] + v["mem.protect_ms"] +
                           v["delta.compress_ms"] + v["ckpt.fold_ms"] +
                           v["ckpt.serialize_ms"] + v["storage.put_ms"];
  v["ckpt.closure_gap_frac"] =
      e2e_ms > 0.0 ? std::abs(1.0 - ledger_ms / e2e_ms) : 1.0;
  v["ckpt.trace_overhead_frac"] =
      untraced_p50_s > 0.0 ? median(pass.totals_s) / untraced_p50_s - 1.0
                           : 0.0;
  const double model_bps = control::CostModel{}.compress_bps;
  v["model.compress_bps"] = model_bps;
  v["model.host_over_model"] = v["delta.work_units_per_s"] / model_bps;

  std::ostringstream m1, m2;
  m1 << "modelled vs measured: host delta.work_units_per_s = "
     << v["delta.work_units_per_s"]
     << " vs control::CostModel::compress_bps = " << model_bps
     << " (host/model = " << v["model.host_over_model"] << ")";
  m2 << "modelled vs measured: host storage.put_ms = " << v["storage.put_ms"]
     << " per checkpoint vs virtual PlacementTimes raid = "
     << v["storage.raid_s"] << " s, remote = " << v["storage.remote_s"]
     << " s";
  out.notes.push_back(m1.str());
  out.notes.push_back(m2.str());
  std::ostringstream closure;
  closure << "closure: per-layer ledger " << ledger_ms
          << " ms vs end-to-end " << e2e_ms << " ms per checkpoint over "
          << ck.roots << " checkpoints (gap "
          << v["ckpt.closure_gap_frac"] * 100.0 << "%, gate: <= 5%)";
  out.notes.push_back(closure.str());
}

class CkptPhase final : public Phase {
 public:
  CkptPhase(const CkptSpec& spec, const PhaseOptions& opt)
      : spec_(spec), opt_(opt) {}

  /// The first repetition starts with a short warm-up episode whose
  /// timings are dropped: it grows the heap and starts the compression
  /// pool, which would otherwise slow the first measured episode.
  bool repeat() override {
    if (pass_.episodes.empty()) {
      CkptSpec warm = spec_;
      warm.checkpoints_per_episode =
          std::min(warm.checkpoints_per_episode, kWarmUpCheckpoints);
      Pass discarded;
      if (!discarded.add(warm, opt_, nullptr, tally_)) return false;
    }
    return pass_.add(spec_, opt_, nullptr, tally_);
  }

  std::size_t min_reps() const override {
    if (opt_.traced) return 1;
    const std::size_t per = std::size_t(spec_.checkpoints_per_episode);
    return (spec_.min_samples + per - 1) / per;
  }

  PhaseResult finish() override {
    PhaseResult out;
    out.tally = tally_;
    if (pass_.episodes.empty()) return out;
    fill_end_to_end(pass_, out);
    if (!opt_.traced) return out;

    obs::Hub hub;
    Pass traced;
    for (int i = 0; i < kTracedEpisodes; ++i) {
      if (!traced.add(spec_, opt_, &hub, out.tally)) return out;
    }
    if (traced.episodes[0].counts != pass_.episodes[0].counts) {
      out.tally.fail(1, "traced checkpoints differ from untraced ones");
    }
    const std::string json = obs::trace_to_chrome_json(hub.trace);
    if (!opt_.trace_path.empty()) write_file(opt_.trace_path, json);
    fill_per_layer(traced, json, median(pass_.totals_s), out);
    out.dropped_events = hub.trace.dropped();
    if (out.dropped_events > 0) {
      out.tally.fail(1, "trace: the checkpoint log dropped events");
    }
    if (out.values["ckpt.closure_gap_frac"] > kClosureTolerance) {
      out.tally.fail(1, "closure: the per-layer ledger differs from the "
                        "checkpoint time by more than 5%");
    }
    return out;
  }

 private:
  static constexpr int kTracedEpisodes = 2;
  static constexpr int kWarmUpCheckpoints = 4;
  /// ROADMAP's closure rule: the layer times add up to the checkpoint's
  /// end-to-end time within 5%.
  static constexpr double kClosureTolerance = 0.05;

  CkptSpec spec_;
  PhaseOptions opt_;
  Pass pass_;
  Tally tally_;
};

}  // namespace

std::unique_ptr<Phase> make_ckpt_phase(const CkptSpec& spec,
                                       const PhaseOptions& opt) {
  return std::make_unique<CkptPhase>(spec, opt);
}

}  // namespace perfbench
