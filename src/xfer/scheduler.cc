#include "xfer/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "obs/names.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace aic::xfer {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
namespace on = obs::names;
}  // namespace

const char* to_string(TransferState state) {
  switch (state) {
    case TransferState::kPending:
      return "pending";
    case TransferState::kInFlight:
      return "in-flight";
    case TransferState::kInterrupted:
      return "interrupted";
    case TransferState::kCommitted:
      return "committed";
    case TransferState::kAborted:
      return "aborted";
  }
  return "?";
}

TransferScheduler::TransferScheduler() : TransferScheduler(Config{}) {}

TransferScheduler::TransferScheduler(Config config) : config_(config) {
  AIC_CHECK_MSG(config.chunk_bytes >= 1, "chunk size must be >= 1 byte");
  AIC_CHECK(config.retry.max_attempts_per_chunk >= 1);
  AIC_CHECK(config.retry.initial_backoff_s >= 0.0);
  AIC_CHECK(config.retry.backoff_multiplier >= 1.0);
  AIC_CHECK(config.retry.max_backoff_s >= config.retry.initial_backoff_s);
  AIC_CHECK(config.retry.chunk_timeout_s >= 0.0);
  if (obs::Hub* hub = config_.obs) {
    obs::MetricsRegistry& m = hub->metrics;
    m_chunks_sent_ = m.counter(on::kXferChunksSent);
    m_chunks_failed_ = m.counter(on::kXferChunksFailed);
    m_retries_ = m.counter(on::kXferRetries);
    m_bytes_acked_ = m.counter(on::kXferBytesAcked);
    m_bytes_wasted_ = m.counter(on::kXferBytesWasted);
    m_commits_ = m.counter(on::kXferCommits);
    m_aborts_ = m.counter(on::kXferAborts);
    m_interrupts_ = m.counter(on::kXferInterrupts);
    m_resumes_ = m.counter(on::kXferResumes);
    m_chunk_seconds_ = m.histogram(
        on::kXferChunkSeconds,
        obs::Histogram::exponential_buckets(1e-4, 2.0, 24));
    m_backoff_seconds_ = m.histogram(
        on::kXferBackoffSeconds,
        obs::Histogram::exponential_buckets(1e-3, 2.0, 20));
    m_goodput_ = m.gauge(on::kXferDrainGoodputBps);
  }
}

void TransferScheduler::add_level(int level, Channel::Config channel,
                                  ChunkSink* sink) {
  AIC_CHECK_MSG(sink != nullptr, "level " << level << " needs a sink");
  AIC_CHECK_MSG(levels_.count(level) == 0,
                "level " << level << " already registered");
  levels_[level] = Level{std::make_unique<Channel>(channel), sink, {}, {}};
}

void TransferScheduler::Level::stream_open(std::uint64_t tenant) {
  channel->open_stream();
  ++streams[tenant];
}

void TransferScheduler::Level::stream_close(std::uint64_t tenant) {
  channel->close_stream();
  const auto it = streams.find(tenant);
  AIC_CHECK(it != streams.end());
  if (--it->second == 0) streams.erase(it);
}

Channel& TransferScheduler::channel(int level) {
  auto it = levels_.find(level);
  AIC_CHECK_MSG(it != levels_.end(), "unknown transfer level " << level);
  return *it->second.channel;
}

void TransferScheduler::set_tenant_qos(int level, std::uint64_t tenant,
                                       TenantQos qos) {
  auto it = levels_.find(level);
  AIC_CHECK_MSG(it != levels_.end(),
                "set_tenant_qos on unregistered level " << level);
  AIC_CHECK_MSG(std::isfinite(qos.weight) && qos.weight > 0.0,
                "tenant " << tenant << " weight must be positive, got "
                          << qos.weight);
  AIC_CHECK_MSG(std::isfinite(qos.reserved_bps) && qos.reserved_bps >= 0.0,
                "tenant " << tenant
                          << " reservation must be non-negative, got "
                          << qos.reserved_bps);
  // Aggregate-demand validation: the reservation set with this entry
  // applied must fit the channel. On rejection the table is untouched.
  const double capacity = it->second.channel->bandwidth_bps();
  double reserved = qos.reserved_bps;
  for (const auto& [t, q] : it->second.qos) {
    if (t != tenant) reserved += q.reserved_bps;
  }
  if (reserved > capacity) {
    std::ostringstream os;
    os << "reservation set on level " << level << " demands " << reserved
       << " B/s but the channel provides " << capacity
       << " B/s (adding tenant " << tenant << " at " << qos.reserved_bps
       << " B/s)";
    throw ReservationError(level, reserved, capacity, os.str());
  }
  it->second.qos[tenant] = qos;
}

TenantQos TransferScheduler::tenant_qos(int level, std::uint64_t tenant) const {
  auto it = levels_.find(level);
  AIC_CHECK_MSG(it != levels_.end(),
                "tenant_qos on unregistered level " << level);
  auto q = it->second.qos.find(tenant);
  return q == it->second.qos.end() ? TenantQos{} : q->second;
}

TransferScheduler::Level& TransferScheduler::level_of(const Entry& e) {
  auto it = levels_.find(e.rec.level);
  AIC_CHECK(it != levels_.end());
  return it->second;
}

TransferId TransferScheduler::submit(int level, std::string key, Bytes data,
                                     std::uint64_t tenant) {
  AIC_CHECK_MSG(levels_.count(level) > 0,
                "submit to unregistered level " << level);
  for (const auto& [id, e] : entries_) {
    AIC_CHECK_MSG(e.rec.level != level || e.rec.key != key,
                  "duplicate live transfer of " << key << " to level "
                                                << level);
  }
  Entry e;
  e.rec.key = std::move(key);
  e.rec.level = level;
  e.rec.tenant = tenant;
  e.rec.total_bytes = data.size();
  e.data = std::move(data);
  return add_entry(std::move(e));
}

TransferId TransferScheduler::submit_sized(int level, std::string key,
                                           std::uint64_t total_bytes,
                                           std::uint64_t tenant) {
  AIC_CHECK_MSG(levels_.count(level) > 0,
                "submit to unregistered level " << level);
  AIC_CHECK_MSG(total_bytes > 0, "sized submit of empty object " << key);
  Entry e;
  e.rec.key = std::move(key);
  e.rec.level = level;
  e.rec.tenant = tenant;
  e.rec.total_bytes = total_bytes;
  e.synthetic = true;
  return add_entry(std::move(e));
}

TransferId TransferScheduler::add_entry(Entry e) {
  const TransferId id = next_id_++;
  e.rec.id = id;
  e.rec.submit_time = now_;
  e.ready_at = now_;
  e.wait_since = now_;
  entries_.emplace(id, std::move(e));
  ready_.emplace(now_, id);
  return id;
}

void TransferScheduler::close_causal(Entry& e, bool aborted) {
  if (e.causal_id == 0) return;
  const std::uint64_t id = e.causal_id;
  e.causal_id = 0;
  if (config_.obs == nullptr) return;
  obs::Telemetry* telemetry = config_.obs->telemetry();
  if (telemetry == nullptr) return;
  obs::CausalLog& log = telemetry->causal();
  log.add(id, obs::CausalSegment::kDrainQueue, e.seg_drainq_s);
  log.add(id, obs::CausalSegment::kInFlight, e.seg_inflight_s);
  log.add(id, obs::CausalSegment::kBackoff, e.seg_backoff_s);
  log.add(id, obs::CausalSegment::kStalled, e.seg_stalled_s);
  log.close_at(id, now_, aborted);
}

void TransferScheduler::annotate(TransferId id, std::uint64_t causal_id) {
  auto it = entries_.find(id);
  AIC_CHECK_MSG(it != entries_.end(), "annotate of unknown transfer " << id);
  it->second.causal_id = causal_id;
}

void TransferScheduler::commit(Entry& e) {
  level_of(e).sink->commit(e.rec.key);
  close_causal(e, false);
  e.rec.state = TransferState::kCommitted;
  e.rec.commit_time = now_;
  ++e.rec.stats.transfers_committed;
  if (config_.obs) {
    m_commits_->add();
    const double drain = now_ - e.rec.submit_time;
    if (drain > 0.0) m_goodput_->set(double(e.rec.total_bytes) / drain);
    config_.obs->trace.instant(
        obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvCommit, now_,
        std::uint32_t(e.rec.level),
        {{"bytes", double(e.rec.total_bytes)},
         {"drain_s", drain}});
  }
}

std::vector<TransferScheduler::Entry*> TransferScheduler::pop_due(
    std::set<Event>& queue) {
  std::vector<Entry*> due;
  while (!queue.empty() && queue.begin()->first <= now_) {
    const auto it = entries_.find(queue.begin()->second);
    AIC_CHECK(it != entries_.end());
    due.push_back(&it->second);
    queue.erase(queue.begin());
  }
  std::sort(due.begin(), due.end(), [](const Entry* a, const Entry* b) {
    return a->rec.id < b->rec.id;
  });
  return due;
}

void TransferScheduler::start_ready_attempts() {
  // Two passes so every attempt starting at this instant sees the full
  // concurrent stream count: open all streams first, then price the sends.
  std::vector<Entry*> starting;
  for (Entry* e : pop_due(ready_)) {
    if (e->rec.acked_bytes >= e->rec.total_bytes) {
      // Zero-byte object (or nothing left): publish without touching the
      // wire. Ensure a staged (possibly empty) entry exists to commit.
      level_of(*e).sink->stage(e->rec.key, e->rec.acked_bytes, ByteSpan{});
      commit(*e);
      continue;
    }
    starting.push_back(e);
  }
  for (Entry* e : starting) level_of(*e).stream_open(e->rec.tenant);
  // Price every attempt starting at this instant against the full stream
  // population as of the instant (in-flight + starting) BEFORE any outcome
  // is fixed, so the pricing is order-independent within the batch.
  std::vector<double> bandwidth(starting.size());
  for (std::size_t i = 0; i < starting.size(); ++i) {
    bandwidth[i] = priced_bandwidth(*starting[i]);
  }
  for (std::size_t i = 0; i < starting.size(); ++i) {
    Entry* e = starting[i];
    const std::uint64_t chunk = std::min<std::uint64_t>(
        config_.chunk_bytes, e->rec.total_bytes - e->rec.acked_bytes);
    Channel::SendOutcome out = level_of(*e).channel->send(chunk, bandwidth[i]);
    // A stalled delivery outlasting the chunk timeout is a failed attempt
    // that costs exactly the timeout (the sender stops listening).
    const double timeout = config_.retry.chunk_timeout_s;
    if (timeout > 0.0 && out.seconds > timeout) {
      out.acked = false;
      out.seconds = timeout;
      out.bytes_delivered = 0;
    }
    e->rec.state = TransferState::kInFlight;
    ++e->rec.chunk_attempts;
    e->seg_drainq_s += std::max(0.0, now_ - e->wait_since);
    e->attempt_active = true;
    e->attempt_start = now_;
    e->attempt_end = now_ + out.seconds;
    e->attempt_acked = out.acked;
    e->attempt_bytes = chunk;
    e->attempt_delivered = out.bytes_delivered;
    in_flight_.emplace(e->attempt_end, e->rec.id);
  }
}

double TransferScheduler::priced_bandwidth(const Entry& e) const {
  const auto lit = levels_.find(e.rec.level);
  AIC_CHECK(lit != levels_.end());
  const Level& level = lit->second;
  const std::map<std::uint64_t, std::size_t>& streams = level.streams;

  auto qos_of = [&level](std::uint64_t tenant) {
    const auto it = level.qos.find(tenant);
    return it == level.qos.end() ? TenantQos{} : it->second;
  };

  // Reserved tenants ride their dedicated lanes; best-effort tenants pool
  // their weights over the residual bandwidth. An inactive reserved tenant
  // does not shrink the residual — reservations only bind while the tenant
  // has streams on the wire. The sums are rebuilt in ascending tenant
  // order on every call, never kept running, so each price is the same
  // double no matter how the streams came and went.
  double reserved_active = 0.0;
  double weight_pool = 0.0;
  for (const auto& [tenant, count] : streams) {
    const TenantQos q = qos_of(tenant);
    if (q.reserved_bps > 0.0) {
      reserved_active += q.reserved_bps;
    } else {
      weight_pool += q.weight;
    }
  }

  const TenantQos mine = qos_of(e.rec.tenant);
  const double my_streams = double(streams.at(e.rec.tenant));
  if (mine.reserved_bps > 0.0) return mine.reserved_bps / my_streams;
  const double residual =
      std::max(0.0, level.channel->bandwidth_bps() - reserved_active);
  if (weight_pool <= 0.0) return residual / my_streams;
  return residual * (mine.weight / weight_pool) / my_streams;
}

void TransferScheduler::finish_attempt(Entry& e) {
  Level& level = level_of(e);
  level.stream_close(e.rec.tenant);
  e.attempt_active = false;
  e.rec.stats.wire_seconds += e.attempt_end - e.attempt_start;
  e.seg_inflight_s += e.attempt_end - e.attempt_start;
  if (config_.obs) {
    m_chunk_seconds_->observe(e.attempt_end - e.attempt_start);
    config_.obs->trace.span(
        obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvChunk,
        e.attempt_start, e.attempt_end, std::uint32_t(e.rec.level),
        {{"offset", double(e.rec.acked_bytes)},
         {"bytes", double(e.attempt_bytes)},
         {"ok", e.attempt_acked ? 1.0 : 0.0}});
  }

  if (e.attempt_delivered > 0) {
    // Bytes that physically arrived are staged even when the attempt
    // failed (partial write): the retry overwrites them at the same
    // offset, which is what keeps staging idempotent.
    if (e.synthetic) {
      if (scratch_.size() < e.attempt_delivered) {
        scratch_.assign(e.attempt_delivered, 0);
      }
      level.sink->stage(e.rec.key, e.rec.acked_bytes,
                        ByteSpan(scratch_.data(), e.attempt_delivered));
    } else {
      level.sink->stage(
          e.rec.key, e.rec.acked_bytes,
          ByteSpan(e.data.data() + e.rec.acked_bytes, e.attempt_delivered));
    }
  }

  if (e.attempt_acked) {
    e.rec.acked_bytes += e.attempt_bytes;
    ++e.rec.stats.chunks_sent;
    e.rec.stats.bytes_acked += e.attempt_bytes;
    if (config_.obs) {
      m_chunks_sent_->add();
      m_bytes_acked_->add(e.attempt_bytes);
    }
    e.rec.chunk_attempts = 0;
    e.ready_at = now_;
    e.wait_since = now_;
    if (e.rec.acked_bytes >= e.rec.total_bytes) {
      commit(e);
    } else {
      e.rec.state = TransferState::kPending;
      ready_.emplace(e.ready_at, e.rec.id);
    }
    return;
  }

  // Failed attempt: retry with capped exponential backoff, or abort once
  // the per-chunk budget is exhausted.
  ++e.rec.stats.chunks_failed;
  e.rec.stats.bytes_wasted += e.attempt_bytes;
  if (config_.obs) {
    m_chunks_failed_->add();
    m_bytes_wasted_->add(e.attempt_bytes);
  }
  if (e.rec.chunk_attempts >= config_.retry.max_attempts_per_chunk) {
    std::ostringstream os;
    os << "transfer of " << e.rec.key << " to level " << e.rec.level
       << " aborted at chunk offset " << e.rec.acked_bytes << " after "
       << e.rec.chunk_attempts << " attempts";
    e.rec.error = os.str();
    close_causal(e, true);
    e.rec.state = TransferState::kAborted;
    ++e.rec.stats.transfers_aborted;
    level.sink->discard(e.rec.key);
    if (config_.obs) {
      m_aborts_->add();
      config_.obs->trace.instant(
          obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvAbort, now_,
          std::uint32_t(e.rec.level),
          {{"offset", double(e.rec.acked_bytes)},
           {"attempts", double(e.rec.chunk_attempts)}});
    }
    return;
  }
  const int retry_index = e.rec.chunk_attempts - 1;  // 0 for first retry
  const double backoff = std::min(
      config_.retry.initial_backoff_s *
          std::pow(config_.retry.backoff_multiplier, double(retry_index)),
      config_.retry.max_backoff_s);
  e.rec.backoff_history.push_back(backoff);
  ++e.rec.stats.retries;
  e.rec.stats.backoff_seconds += backoff;
  if (config_.obs) {
    m_retries_->add();
    m_backoff_seconds_->observe(backoff);
    config_.obs->trace.span(
        obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvBackoff, now_,
        now_ + backoff, std::uint32_t(e.rec.level),
        {{"retry", double(retry_index + 1)}});
  }
  e.ready_at = now_ + backoff;
  e.seg_backoff_s += backoff;
  e.wait_since = e.ready_at;
  e.rec.state = TransferState::kPending;
  ready_.emplace(e.ready_at, e.rec.id);
}

void TransferScheduler::run_events(double limit) {
  for (;;) {
    // Every pending transfer due now has started (or committed), so the
    // head of each queue is its next event.
    start_ready_attempts();
    double next = kInf;
    if (!in_flight_.empty()) next = in_flight_.begin()->first;
    if (!ready_.empty()) next = std::min(next, ready_.begin()->first);
    if (next == kInf || next > limit) break;
    now_ = std::max(now_, next);
    for (Entry* e : pop_due(in_flight_)) finish_attempt(*e);
  }
}

void TransferScheduler::run_until_idle() { run_events(kInf); }

void TransferScheduler::run_until(double t) {
  AIC_CHECK_MSG(t >= now_, "virtual clock cannot run backwards (now "
                               << now_ << ", asked " << t << ")");
  run_events(t);
  now_ = t;
}

void TransferScheduler::interrupt_entry(Entry& e) {
  if (e.attempt_active) {
    // The in-flight chunk dies with the failure; charge the wire time
    // actually elapsed, nothing is acked.
    in_flight_.erase({e.attempt_end, e.rec.id});
    level_of(e).stream_close(e.rec.tenant);
    e.rec.stats.wire_seconds += std::max(0.0, now_ - e.attempt_start);
    e.seg_inflight_s += std::max(0.0, now_ - e.attempt_start);
    e.attempt_active = false;
    if (config_.obs) {
      config_.obs->trace.span(
          obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvChunk,
          e.attempt_start, now_, std::uint32_t(e.rec.level),
          {{"offset", double(e.rec.acked_bytes)},
           {"bytes", double(e.attempt_bytes)},
           {"ok", 0.0},
           {"lost", 1.0}});
    }
  } else {
    ready_.erase({e.ready_at, e.rec.id});
    e.seg_drainq_s += std::max(0.0, now_ - e.wait_since);
  }
  e.stall_since = now_;
  e.rec.state = TransferState::kInterrupted;
  ++interrupted_;
  ++e.rec.stats.transfers_interrupted;
  if (config_.obs) {
    m_interrupts_->add();
    config_.obs->trace.instant(
        obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvInterrupt, now_,
        std::uint32_t(e.rec.level), {{"acked", double(e.rec.acked_bytes)}});
  }
}

void TransferScheduler::resume_entry(Entry& e) {
  e.rec.state = TransferState::kPending;
  e.rec.chunk_attempts = 0;  // fresh budget for the resumed drain
  e.ready_at = now_;
  ready_.emplace(now_, e.rec.id);
  --interrupted_;
  e.seg_stalled_s += std::max(0.0, now_ - e.stall_since);
  e.wait_since = now_;
  if (config_.obs) {
    m_resumes_->add();
    config_.obs->trace.instant(
        obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvResume, now_,
        std::uint32_t(e.rec.level),
        {{"acked", double(e.rec.acked_bytes)},
         {"total", double(e.rec.total_bytes)}});
  }
}

std::size_t TransferScheduler::interrupt_level(int level) {
  std::size_t interrupted = 0;
  for (auto& [id, e] : entries_) {
    if (e.rec.level != level) continue;
    if (e.rec.state != TransferState::kPending &&
        e.rec.state != TransferState::kInFlight) {
      continue;
    }
    interrupt_entry(e);
    ++interrupted;
  }
  return interrupted;
}

std::size_t TransferScheduler::resume_level(int level) {
  std::size_t resumed = 0;
  for (auto& [id, e] : entries_) {
    if (e.rec.level != level ||
        e.rec.state != TransferState::kInterrupted) {
      continue;
    }
    resume_entry(e);
    ++resumed;
  }
  return resumed;
}

bool TransferScheduler::interrupt(TransferId id) {
  auto it = entries_.find(id);
  AIC_CHECK_MSG(it != entries_.end(), "interrupt of unknown transfer " << id);
  Entry& e = it->second;
  if (e.rec.state != TransferState::kPending &&
      e.rec.state != TransferState::kInFlight) {
    return false;
  }
  interrupt_entry(e);
  return true;
}

bool TransferScheduler::resume(TransferId id) {
  auto it = entries_.find(id);
  AIC_CHECK_MSG(it != entries_.end(), "resume of unknown transfer " << id);
  Entry& e = it->second;
  if (e.rec.state != TransferState::kInterrupted) return false;
  resume_entry(e);
  return true;
}

void TransferScheduler::discard(TransferId id) {
  auto it = entries_.find(id);
  AIC_CHECK_MSG(it != entries_.end(), "discard of unknown transfer " << id);
  Entry& e = it->second;
  if (e.attempt_active) {
    in_flight_.erase({e.attempt_end, id});
    level_of(e).stream_close(e.rec.tenant);
    e.attempt_active = false;
  } else if (e.rec.state == TransferState::kPending) {
    ready_.erase({e.ready_at, id});
  } else if (e.rec.state == TransferState::kInterrupted) {
    --interrupted_;
  }
  if (!e.rec.terminal()) {
    level_of(e).sink->discard(e.rec.key);
    // Dropping a live drain abandons its checkpoint: close the chain
    // aborted so the attribution ledger balances.
    close_causal(e, true);
  }
  discarded_stats_ += e.rec.stats;
  entries_.erase(it);
}

const TransferRecord& TransferScheduler::record(TransferId id) const {
  auto it = entries_.find(id);
  AIC_CHECK_MSG(it != entries_.end(), "unknown transfer " << id);
  return it->second.rec;
}

void TransferScheduler::rethrow_if_aborted(TransferId id) const {
  const TransferRecord& rec = record(id);
  if (rec.state == TransferState::kAborted) {
    throw TransferError(rec.level, rec.acked_bytes, rec.error);
  }
}

Stats TransferScheduler::stats() const {
  Stats total = discarded_stats_;
  for (const auto& [id, e] : entries_) total += e.rec.stats;
  return total;
}

}  // namespace aic::xfer
