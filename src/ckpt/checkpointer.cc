#include "ckpt/checkpointer.h"

#include "common/check.h"
#include "common/units.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace aic::ckpt {
namespace {

std::vector<PageId> freed_since(const std::vector<PageId>& prev_live,
                                const mem::AddressSpace& space) {
  std::vector<PageId> freed;
  for (PageId id : prev_live) {
    if (!space.contains(id)) freed.push_back(id);
  }
  return freed;  // prev_live is sorted, so freed is sorted
}

std::vector<std::pair<PageId, ByteSpan>> page_views(
    const mem::AddressSpace& space, const std::vector<PageId>& ids) {
  std::vector<std::pair<PageId, ByteSpan>> out;
  out.reserve(ids.size());
  for (PageId id : ids) out.emplace_back(id, space.page_bytes(id));
  return out;
}

}  // namespace

CheckpointFile Checkpointer::take_full(const mem::AddressSpace& space,
                                       ByteSpan cpu_state,
                                       std::uint64_t sequence, double app_time,
                                       CaptureStats* stats) {
  CheckpointFile f;
  f.kind = CheckpointKind::kFull;
  f.sequence = sequence;
  f.app_time = app_time;
  f.cpu_state.assign(cpu_state.begin(), cpu_state.end());
  const auto live = space.live_pages();
  f.payload = encode_raw_pages(page_views(space, live));
  if (stats) {
    *stats = CaptureStats{};
    stats->kind = f.kind;
    stats->pages_written = live.size();
    stats->pages_raw = live.size();
    stats->uncompressed_bytes = live.size() * kPageSize + cpu_state.size();
    stats->file_bytes = f.serialized_size();
  }
  return f;
}

CheckpointFile Checkpointer::take_incremental(
    const mem::AddressSpace& space, ByteSpan cpu_state, std::uint64_t sequence,
    double app_time, const std::vector<PageId>& prev_live,
    CaptureStats* stats) {
  CheckpointFile f;
  f.kind = CheckpointKind::kIncremental;
  f.sequence = sequence;
  f.app_time = app_time;
  f.cpu_state.assign(cpu_state.begin(), cpu_state.end());
  f.freed_pages = freed_since(prev_live, space);
  const auto dirty = space.dirty_pages();
  f.payload = encode_raw_pages(page_views(space, dirty));
  if (stats) {
    *stats = CaptureStats{};
    stats->kind = f.kind;
    stats->pages_written = dirty.size();
    stats->pages_raw = dirty.size();
    stats->freed_pages = f.freed_pages.size();
    stats->uncompressed_bytes = dirty.size() * kPageSize + cpu_state.size();
    stats->file_bytes = f.serialized_size();
  }
  return f;
}

CheckpointFile Checkpointer::take_incremental_delta(
    const mem::AddressSpace& space, ByteSpan cpu_state, std::uint64_t sequence,
    double app_time, const std::vector<PageId>& prev_live,
    const mem::Snapshot& prev, const delta::PageAlignedCompressor& compressor,
    CaptureStats* stats) {
  CheckpointFile f;
  // The kind follows the compressor's mode: correcting payloads carry
  // cdelta records and need the v3 file magic.
  f.kind = compressor.correcting() ? CheckpointKind::kIncrementalCorrecting
                                   : CheckpointKind::kIncrementalDelta;
  f.sequence = sequence;
  f.app_time = app_time;
  f.cpu_state.assign(cpu_state.begin(), cpu_state.end());
  f.freed_pages = freed_since(prev_live, space);

  const auto dirty_ids = space.dirty_pages();
  std::vector<delta::DirtyPage> dirty;
  dirty.reserve(dirty_ids.size());
  for (PageId id : dirty_ids) dirty.push_back({id, space.page_bytes(id)});
  delta::DeltaResult res = compressor.compress(dirty, prev);
  f.payload = std::move(res.payload);

  if (stats) {
    *stats = CaptureStats{};
    stats->kind = f.kind;
    stats->pages_written = dirty_ids.size();
    stats->freed_pages = f.freed_pages.size();
    stats->uncompressed_bytes = dirty_ids.size() * kPageSize + cpu_state.size();
    stats->file_bytes = f.serialized_size();
    stats->delta_work_units = res.stats.work_units;
    stats->pages_delta = res.pages_delta;
    stats->pages_raw = res.pages_raw;
    stats->pages_same = res.pages_same;
    stats->pages_moved = res.pages_moved;
  }
  return f;
}

RestartEngine::Restored RestartEngine::restore(
    const std::vector<CheckpointFile>& chain,
    const delta::PageAlignedCompressor& compressor, Mode mode) {
  AIC_CHECK_MSG(!chain.empty(), "empty restart chain");
  AIC_CHECK_MSG(chain.front().kind == CheckpointKind::kFull,
                "restart chain must begin with a full checkpoint, got "
                    << to_string(chain.front().kind) << " sequence "
                    << chain.front().sequence);
  Restored out;
  std::uint64_t prev_seq = 0;
  bool first = true;
  for (const CheckpointFile& f : chain) {
    AIC_CHECK_MSG(first || f.sequence > prev_seq,
                  "restart chain sequences must increase: sequence "
                      << f.sequence << " follows " << prev_seq);
    // Captures number checkpoints consecutively, so a sequence jump inside
    // a chain means an incremental is missing — the delta after the gap
    // would silently decode against the wrong accumulated state.
    AIC_CHECK_MSG(first || f.sequence == prev_seq + 1,
                  "restart chain is missing checkpoint(s): sequence "
                      << f.sequence << " follows " << prev_seq);
    first = false;
    prev_seq = f.sequence;

    try {
      switch (f.kind) {
        case CheckpointKind::kFull: {
          out.memory = mem::Snapshot();
          for (auto& [id, bytes] : decode_raw_pages(f.payload))
            out.memory.put_page(id, bytes);
          break;
        }
        case CheckpointKind::kIncremental: {
          for (PageId id : f.freed_pages) out.memory.erase_page(id);
          for (auto& [id, bytes] : decode_raw_pages(f.payload))
            out.memory.put_page(id, bytes);
          break;
        }
        case CheckpointKind::kIncrementalDelta:
        case CheckpointKind::kIncrementalCorrecting: {
          // Deltas reference page versions as of the previous checkpoint,
          // which is exactly the accumulated state before this file — apply
          // the payload first, then the frees (a moved page's source may be
          // freed in the same checkpoint). The two kinds differ only in
          // which record kinds the payload may contain; the decoder
          // dispatches per record either way.
          if (mode == Mode::kInPlace) {
            compressor.decompress_in_place(f.payload, out.memory);
            for (PageId id : f.freed_pages) out.memory.erase_page(id);
          } else {
            mem::Snapshot pages = compressor.decompress(f.payload, out.memory);
            for (PageId id : f.freed_pages) out.memory.erase_page(id);
            pages.overlay_onto(out.memory);
          }
          break;
        }
      }
    } catch (const CheckError& e) {
      throw CheckError("restoring sequence " + std::to_string(f.sequence) +
                       " (" + to_string(f.kind) + "): " + e.what());
    }
    out.cpu_state = f.cpu_state;
    out.app_time = f.app_time;
    out.sequence = f.sequence;
  }
  return out;
}

CheckpointChain::CheckpointChain(Config config)
    : config_(config),
      compressor_(delta::ParallelPageCompressor::Config{
          .page_codec = config.page_codec,
          .correcting = config.correcting,
          .workers = config.compress_workers,
          .obs = config.obs}),
      rewind_(config.rewind_budget) {}

void CheckpointChain::record_capture(const CaptureStats& stats) {
  obs::Hub* hub = config_.obs;
  if (hub == nullptr) return;
  namespace on = obs::names;
  obs::MetricsRegistry& m = hub->metrics;
  m.counter(on::kCkptCheckpoints)->add();
  if (stats.kind == CheckpointKind::kFull) m.counter(on::kCkptFulls)->add();
  m.counter(on::kCkptPagesWritten)->add(stats.pages_written);
  m.counter(on::kCkptUncompressedBytes)->add(stats.uncompressed_bytes);
  m.counter(on::kCkptFileBytes)->add(stats.file_bytes);
}

bool CheckpointChain::next_capture_is_full() const {
  return files_.empty() || (config_.full_period > 0 &&
                            incrementals_since_full_ >= config_.full_period);
}

CaptureStats CheckpointChain::capture_pages(const mem::Snapshot& pages,
                                            const std::vector<PageId>& live_now,
                                            ByteSpan cpu_state,
                                            double app_time) {
  const auto ids = pages.page_ids();
  AIC_CHECK_MSG(!next_capture_is_full() || ids.size() == live_now.size(),
                "full capture needs every live page snapshotted");
  std::vector<delta::DirtyPage> views;
  views.reserve(ids.size());
  for (PageId id : ids) views.push_back({id, pages.page_bytes(id)});
  return capture_views(views, live_now, cpu_state, app_time);
}

CaptureStats CheckpointChain::capture(const mem::AddressSpace& space,
                                      ByteSpan cpu_state, double app_time) {
  const bool full = next_capture_is_full();
  const std::vector<PageId> live = space.live_pages();
  const std::vector<PageId> dirty =
      full ? std::vector<PageId>{} : space.dirty_pages();
  const std::vector<PageId>& ids = full ? live : dirty;
  std::vector<delta::DirtyPage> views;
  views.reserve(ids.size());
  for (PageId id : ids) views.push_back({id, space.page_bytes(id)});
  return capture_views(views, live, cpu_state, app_time);
}

CaptureStats CheckpointChain::capture_views(
    const std::vector<delta::DirtyPage>& pages,
    const std::vector<PageId>& live_now, ByteSpan cpu_state, double app_time) {
  const bool full = next_capture_is_full();
  CheckpointFile file;
  file.sequence = next_sequence_;
  file.app_time = app_time;
  file.cpu_state.assign(cpu_state.begin(), cpu_state.end());
  // Freed pages: live at the previous checkpoint, gone now. Both lists are
  // ascending, so one merge pass finds them.
  if (!full) {
    auto now = live_now.begin();
    for (PageId id : last_live_) {
      while (now != live_now.end() && *now < id) ++now;
      if (now == live_now.end() || *now != id) file.freed_pages.push_back(id);
    }
  }

  CaptureStats stats{};
  stats.pages_written = pages.size();
  stats.freed_pages = file.freed_pages.size();
  stats.uncompressed_bytes = pages.size() * kPageSize + cpu_state.size();
  if (!full && config_.delta_compress) {
    file.kind = compressor_.correcting()
                    ? CheckpointKind::kIncrementalCorrecting
                    : CheckpointKind::kIncrementalDelta;
    delta::DeltaResult res = compressor_.compress(pages, accumulated_, moves_);
    file.payload = std::move(res.payload);
    stats.delta_work_units = res.stats.work_units;
    stats.pages_delta = res.pages_delta;
    stats.pages_raw = res.pages_raw;
    stats.pages_same = res.pages_same;
    stats.pages_moved = res.pages_moved;
  } else {
    file.kind = full ? CheckpointKind::kFull : CheckpointKind::kIncremental;
    std::vector<std::pair<PageId, ByteSpan>> views;
    views.reserve(pages.size());
    for (const delta::DirtyPage& p : pages) views.emplace_back(p.id, p.bytes);
    file.payload = encode_raw_pages(views);
    stats.pages_raw = pages.size();
  }
  stats.kind = file.kind;
  stats.file_bytes = file.serialized_size();
  incrementals_since_full_ = full ? 0 : incrementals_since_full_ + 1;
  ++next_sequence_;

  // Fold this checkpoint into the accumulated state so the *next* delta
  // has the right source pages, and keep the move index in step with it.
  if (full) {
    accumulated_ = mem::Snapshot();
    for (const delta::DirtyPage& p : pages) accumulated_.put_page(p.id, p.bytes);
    rebuild_move_index();
  } else {
    for (PageId id : file.freed_pages) {
      accumulated_.erase_page(id);
      if (tracks_moves()) moves_.erase(id);
    }
    for (const delta::DirtyPage& p : pages) {
      accumulated_.put_page(p.id, p.bytes);
      if (tracks_moves()) moves_.update(p.id, p.bytes);
    }
  }
  last_live_ = live_now;
  files_.push_back(std::move(file));
  record_capture(stats);
  admit_to_rewind();
  return stats;
}

void CheckpointChain::rebuild_move_index() {
  if (tracks_moves()) moves_ = delta::MoveIndex(accumulated_);
}

void CheckpointChain::admit_to_rewind() {
  if (!rewind_.active()) return;
  const CheckpointFile& f = files_.back();
  std::optional<RewindWindow::Entry> victim =
      rewind_.admit(f.sequence, f.app_time, f.serialized_size());
  if (victim.has_value()) prune_sequence(victim->sequence);
}

void CheckpointChain::prune_sequence(std::uint64_t victim_sequence) {
  std::size_t idx = files_.size();
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].sequence == victim_sequence) {
      idx = i;
      break;
    }
  }
  // Tolerate a victim the chain no longer holds (the caller truncated or
  // rolled back under the window); the window's own accounting is already
  // updated.
  if (idx == files_.size()) return;
  AIC_CHECK_MSG(idx + 1 < files_.size(),
                "rewind window must never evict the newest checkpoint");

  PruneEvent ev;
  ev.victim_sequence = victim_sequence;
  ev.victim_bytes = files_[idx].serialized_size();

  CheckpointFile& succ = files_[idx + 1];
  if (succ.kind != CheckpointKind::kFull) {
    // The successor's deltas decode against state that includes the
    // victim, so rebuild that state BEFORE the victim goes away: replay
    // [latest full <= successor .. successor] and rewrite the successor as
    // a full checkpoint. By induction every earlier prune left a full
    // right after its gap, so the replay slice is always contiguous.
    std::size_t start = idx + 2;
    while (start > 0 && files_[start - 1].kind != CheckpointKind::kFull)
      --start;
    AIC_CHECK_MSG(start > 0, "pruned chain lost its full checkpoint");
    const std::int64_t before = std::int64_t(succ.serialized_size());
    std::vector<CheckpointFile> slice(files_.begin() + (start - 1),
                                      files_.begin() + (idx + 2));
    RestartEngine::Restored restored =
        RestartEngine::restore(slice, compressor_.serial());
    std::vector<std::pair<PageId, ByteSpan>> views;
    const auto ids = restored.memory.page_ids();
    views.reserve(ids.size());
    for (PageId id : ids) views.emplace_back(id, restored.memory.page_bytes(id));
    succ.kind = CheckpointKind::kFull;
    succ.payload = encode_raw_pages(views);
    succ.freed_pages.clear();
    ev.reanchored_sequence = succ.sequence;
    ev.reanchor_growth = std::int64_t(succ.serialized_size()) - before;
  }
  files_.erase(files_.begin() + std::ptrdiff_t(idx));

  // A re-anchor may have planted a fresh full closer to the tail; recount
  // so the periodic-full cadence restarts from it.
  incrementals_since_full_ = 0;
  for (auto it = files_.rbegin();
       it != files_.rend() && it->kind != CheckpointKind::kFull; ++it)
    ++incrementals_since_full_;

  if (config_.obs != nullptr) {
    namespace on = obs::names;
    obs::MetricsRegistry& m = config_.obs->metrics;
    m.counter(on::kCkptPrunes)->add();
    m.counter(on::kCkptPruneBytes)->add(ev.victim_bytes);
    if (ev.reanchored_sequence.has_value())
      m.counter(on::kCkptReanchors)->add();
  }
  last_prune_ = ev;
}

RestartEngine::Restored CheckpointChain::restore(
    RestartEngine::Mode mode) const {
  AIC_CHECK_MSG(!files_.empty(), "no checkpoints to restore");
  return restore_at(files_.back().sequence, mode);
}

RestartEngine::Restored CheckpointChain::restore_at(
    std::uint64_t sequence, RestartEngine::Mode mode) const {
  std::size_t end = 0;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].sequence == sequence) {
      end = i + 1;
      break;
    }
  }
  AIC_CHECK_MSG(end > 0, "no retained checkpoint with sequence " << sequence);
  // Find the latest full checkpoint at or before the target and replay
  // from there.
  std::size_t start = end;
  while (start > 0 && files_[start - 1].kind != CheckpointKind::kFull) --start;
  AIC_CHECK_MSG(start > 0, "chain has no full checkpoint");
  std::vector<CheckpointFile> chain(files_.begin() + (start - 1),
                                    files_.begin() + std::ptrdiff_t(end));
  return RestartEngine::restore(chain, compressor_.serial(), mode);
}

void CheckpointChain::rollback_to(std::uint64_t sequence) {
  while (!files_.empty() && files_.back().sequence > sequence)
    files_.pop_back();
  AIC_CHECK_MSG(!files_.empty(), "rollback removed every checkpoint");
  // Rewind derived state to the restore point.
  auto restored = restore();
  accumulated_ = std::move(restored.memory);
  rebuild_move_index();
  last_live_ = accumulated_.page_ids();
  next_sequence_ = files_.back().sequence + 1;
  incrementals_since_full_ = 0;
  for (auto it = files_.rbegin();
       it != files_.rend() && it->kind != CheckpointKind::kFull; ++it)
    ++incrementals_since_full_;
  rewind_.drop_newer_than(sequence);
}

std::uint64_t CheckpointChain::restart_chain_bytes() const {
  std::uint64_t total = 0;
  std::size_t start = files_.size();
  while (start > 0 && files_[start - 1].kind != CheckpointKind::kFull) --start;
  if (start == 0) return 0;
  for (std::size_t i = start - 1; i < files_.size(); ++i)
    total += files_[i].serialized_size();
  return total;
}

std::uint64_t CheckpointChain::truncate_before_last_full() {
  std::size_t start = files_.size();
  while (start > 0 && files_[start - 1].kind != CheckpointKind::kFull) --start;
  if (start <= 1) return 0;  // nothing before the last full (or no full yet)
  std::uint64_t reclaimed = 0;
  for (std::size_t i = 0; i + 1 < start; ++i)
    reclaimed += files_[i].serialized_size();
  files_.erase(files_.begin(), files_.begin() + (start - 1));
  return reclaimed;
}

}  // namespace aic::ckpt
