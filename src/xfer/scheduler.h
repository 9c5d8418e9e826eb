// TransferScheduler — the checkpointing core's drain engine.
//
// Owns one simulated Channel per destination level and drives every
// submitted transfer through the chunked state machine of transfer.h under
// a single discrete-event virtual clock:
//
//   * each chunk is one send attempt on the level's channel, charged at
//     the channel's current per-stream bandwidth share (concurrent drains
//     split capacity — the emergent Fig. 7 sharing factor). With tenant
//     QoS configured (set_tenant_qos), the share is priced per tenant:
//     hard reservations are dedicated lanes, best-effort tenants split the
//     residual bandwidth by weight — the fleet's per-tenant QoS layer,
//     still emergent chunk by chunk;
//   * a failed attempt (drop, partial write, or timeout on a stall)
//     retries after capped exponential backoff; exhausting the per-chunk
//     attempt budget aborts the transfer with a TransferError naming the
//     level and chunk offset;
//   * delivered bytes land in the level's ChunkSink staging area and the
//     object is atomically committed only after the last chunk acks;
//   * interrupt_level() models a failure striking mid-drain: in-flight
//     and queued transfers to that level become kInterrupted resumable
//     partials, and resume_level() re-drains from the last acked chunk.
//
// The clock never runs backwards: run_until(t) processes every event up to
// virtual time t (attempt completions, backoff expiries, commits) and
// leaves attempts that end later than t in flight for the next call, so a
// failure simulator can interleave failures with a drain at any instant.
// Everything is deterministic — no host clocks, no host randomness.
//
// Cost: events are driven from two ordered queues — pending transfers by
// (ready_at, id), in-flight attempts by (attempt_end, id) — and each level
// keeps its per-tenant count of open streams, so starting, pricing and
// finishing a chunk attempt costs O(log n + tenants) in the number n of
// live transfers. The batch due at one instant is processed in ascending
// id, the order faults and the drop RNG are consumed in. Level-wide
// interrupt/resume, stats() and submit()'s duplicate-key check stay O(n).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "xfer/channel.h"
#include "xfer/stats.h"
#include "xfer/transfer.h"

namespace aic::obs {
class Counter;
class Gauge;
class Histogram;
struct Hub;
}  // namespace aic::obs

namespace aic::xfer {

class TransferScheduler {
 public:
  struct Config {
    std::size_t chunk_bytes = 64 * 1024;
    RetryPolicy retry;
    /// Optional observability hub: per-chunk spans, retry/backoff events,
    /// and goodput gauges land here. nullptr = disabled (no overhead
    /// beyond one branch per event site).
    obs::Hub* obs = nullptr;
  };

  TransferScheduler();
  explicit TransferScheduler(Config config);

  /// Registers a destination level with its channel parameters and staging
  /// sink. The sink must outlive the scheduler.
  void add_level(int level, Channel::Config channel, ChunkSink* sink);
  bool has_level(int level) const { return levels_.count(level) > 0; }
  /// The level's channel, for fault injection and inspection.
  Channel& channel(int level);

  /// Registers (or replaces) tenant `tenant`'s QoS on `level`'s channel.
  /// Validates the aggregate: the sum of reserved bandwidth across the
  /// level's tenants (with this entry applied) must not exceed the
  /// channel's capacity — otherwise a ReservationError is thrown and the
  /// QoS table is left unchanged. Weights must be positive, reservations
  /// non-negative and finite.
  void set_tenant_qos(int level, std::uint64_t tenant, TenantQos qos);
  /// The tenant's QoS on `level` (defaults: weight 1, no reservation).
  TenantQos tenant_qos(int level, std::uint64_t tenant) const;

  /// Queues a drain of `data` to `level` under object name `key`; the
  /// transfer starts at the next run_*() call. Keys must be unique among
  /// live (non-discarded) transfers to the same level. `tenant` selects
  /// the QoS lane (see TenantQos); the default tenant 0 reproduces the
  /// pre-QoS equal B/N split.
  TransferId submit(int level, std::string key, Bytes data,
                    std::uint64_t tenant = 0);

  /// Size-only drain for fleet-scale simulation: the transfer carries
  /// `total_bytes` of synthetic (zero) payload that is never materialized —
  /// chunks are staged from a shared scratch buffer, so ten thousand
  /// concurrent multi-GB drains cost chunk_bytes of memory, not the sum of
  /// their footprints. Timing, pricing, interrupt/resume, and commit
  /// semantics are identical to submit(). The caller guarantees key
  /// uniqueness among live transfers (the duplicate scan is skipped — it
  /// is O(live transfers) per call, too dear at fleet scale).
  TransferId submit_sized(int level, std::string key,
                          std::uint64_t total_bytes, std::uint64_t tenant = 0);

  double now() const { return now_; }
  /// True when no transfer is pending or in flight (interrupted and
  /// terminal transfers don't count).
  bool idle() const { return runnable_count() == 0; }

  /// Runs the event loop until idle (commits, aborts, and interrupted
  /// partials only remain).
  void run_until_idle();
  /// Runs the event loop up to virtual time t, then sets now() = t.
  void run_until(double t);

  /// Failure at `level` mid-drain: every pending/in-flight transfer to
  /// that level becomes a resumable kInterrupted partial (the current
  /// chunk attempt is lost; acked bytes are kept). Returns the number of
  /// transfers interrupted.
  std::size_t interrupt_level(int level);
  /// Re-queues interrupted transfers to `level` (fresh per-chunk retry
  /// budget, resuming at the last acked chunk). Returns the count resumed.
  std::size_t resume_level(int level);

  /// Failure striking one job mid-drain: interrupts a single transfer
  /// (acked bytes kept, in-flight chunk lost). Returns false when the
  /// transfer is already terminal or interrupted — an interrupt racing a
  /// commit is a no-op, not an error.
  bool interrupt(TransferId id);
  /// Resumes one interrupted transfer (fresh per-chunk budget, re-drains
  /// from the last acked chunk). Returns false unless it was interrupted.
  bool resume(TransferId id);

  /// Drops a transfer and its staged partial entirely (rollback of a
  /// checkpoint that no longer exists). Terminal records are erased too.
  void discard(TransferId id);

  /// Associates a causal chain (obs/causal.h, id from CausalLog::open)
  /// with a live transfer: the drain-queue / in-flight / backoff / stalled
  /// seconds this transfer accumulates are added to the chain, which is
  /// closed at commit (or closed aborted at abort/discard). Requires an
  /// obs hub with telemetry enabled at that point; without one the
  /// association is dropped silently — attribution is best-effort.
  void annotate(TransferId id, std::uint64_t causal_id);

  const TransferRecord& record(TransferId id) const;
  bool known(TransferId id) const { return entries_.count(id) > 0; }
  /// Throws the transfer's TransferError if it aborted; no-op otherwise.
  void rethrow_if_aborted(TransferId id) const;

  std::size_t runnable_count() const {  // pending + in-flight
    return ready_.size() + in_flight_.size();
  }
  std::size_t interrupted_count() const { return interrupted_; }
  /// Aggregate counters over every transfer this scheduler has seen
  /// (including discarded ones).
  Stats stats() const;

 private:
  struct Level {
    std::unique_ptr<Channel> channel;
    ChunkSink* sink = nullptr;
    /// Per-tenant QoS; absent tenants price as {1.0, 0.0}.
    std::map<std::uint64_t, TenantQos> qos;
    /// Open streams per tenant (zero counts erased): the population
    /// priced_bandwidth() prices against. Changed only through
    /// stream_open/stream_close, together with the channel's own count.
    std::map<std::uint64_t, std::size_t> streams;

    void stream_open(std::uint64_t tenant);
    void stream_close(std::uint64_t tenant);
  };
  struct Entry {
    TransferRecord rec;
    Bytes data;
    /// Size-only transfer (submit_sized): payload is synthetic zeros
    /// staged from the scheduler's scratch buffer, `data` stays empty.
    bool synthetic = false;
    double ready_at = 0.0;  // earliest start of the next chunk attempt
    // One in-flight chunk attempt (outcome fixed at start time).
    bool attempt_active = false;
    double attempt_start = 0.0;
    double attempt_end = 0.0;
    bool attempt_acked = false;
    std::uint64_t attempt_bytes = 0;
    std::uint64_t attempt_delivered = 0;
    // Causal attribution (annotate()): where this transfer's latency went,
    // accumulated as it runs, flushed to the chain when it closes.
    std::uint64_t causal_id = 0;
    double wait_since = 0.0;   // start of the current drain-queue wait
    double stall_since = 0.0;  // interrupt time while kInterrupted
    double seg_drainq_s = 0.0;
    double seg_inflight_s = 0.0;
    double seg_backoff_s = 0.0;
    double seg_stalled_s = 0.0;
  };

  /// (event time, transfer id): the key of both event queues.
  using Event = std::pair<double, TransferId>;

  TransferId add_entry(Entry e);
  Level& level_of(const Entry& e);
  /// Removes every event due by now() from `queue` and returns its
  /// entries in ascending id — the order a batch is processed in.
  std::vector<Entry*> pop_due(std::set<Event>& queue);
  void start_ready_attempts();
  void finish_attempt(Entry& e);
  void commit(Entry& e);
  /// Flushes the entry's accumulated segments into its causal chain and
  /// closes it; no-op without an annotation or telemetry.
  void close_causal(Entry& e, bool aborted);
  void run_events(double limit);
  void interrupt_entry(Entry& e);
  void resume_entry(Entry& e);
  /// Per-stream bandwidth for a starting attempt of `e`, from the level's
  /// open streams (in flight plus the batch starting at this instant, all
  /// opened before any is priced): reserved tenants get reserved_bps split
  /// across their own streams, best-effort tenants share the residual by
  /// weight.
  double priced_bandwidth(const Entry& e) const;

  Config config_;
  // Metric handles resolved once at construction (all null when
  // config_.obs is null; event sites branch on config_.obs).
  obs::Counter* m_chunks_sent_ = nullptr;
  obs::Counter* m_chunks_failed_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_bytes_acked_ = nullptr;
  obs::Counter* m_bytes_wasted_ = nullptr;
  obs::Counter* m_commits_ = nullptr;
  obs::Counter* m_aborts_ = nullptr;
  obs::Counter* m_interrupts_ = nullptr;
  obs::Counter* m_resumes_ = nullptr;
  obs::Histogram* m_chunk_seconds_ = nullptr;
  obs::Histogram* m_backoff_seconds_ = nullptr;
  obs::Gauge* m_goodput_ = nullptr;
  double now_ = 0.0;
  TransferId next_id_ = 1;
  std::map<int, Level> levels_;
  std::map<TransferId, Entry> entries_;
  /// Pending transfers by (ready_at, id) and in-flight attempts by
  /// (attempt_end, id); together they hold exactly the runnable entries.
  std::set<Event> ready_;
  std::set<Event> in_flight_;
  std::size_t interrupted_ = 0;
  /// Zero-filled staging source for synthetic (size-only) transfers; grows
  /// to the largest chunk ever staged and is shared by every such drain.
  Bytes scratch_;
  /// Counters of discarded transfers, folded into stats().
  Stats discarded_stats_;
};

}  // namespace aic::xfer
