#include "storage/storage.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace aic::storage {

double transfer_seconds(std::uint64_t bytes, double bandwidth_bps,
                        double latency_s) {
  AIC_CHECK_MSG(std::isfinite(bandwidth_bps) && bandwidth_bps > 0.0,
                "bandwidth must be positive and finite, got "
                    << bandwidth_bps);
  AIC_CHECK_MSG(std::isfinite(latency_s) && latency_s >= 0.0,
                "latency must be non-negative and finite, got " << latency_s);
  return latency_s + double(bytes) / bandwidth_bps;
}

// ---------- LocalDisk ----------

void LocalDisk::put(const std::string& key, Bytes data) {
  AIC_CHECK_MSG(!failed_, "write to failed local disk");
  objects_[key] = std::move(data);
}

std::optional<Bytes> LocalDisk::get(const std::string& key) const {
  if (failed_) return std::nullopt;
  auto it = objects_.find(key);
  if (it == objects_.end()) return std::nullopt;
  return it->second;
}

bool LocalDisk::erase(const std::string& key) {
  return objects_.erase(key) > 0;
}

std::uint64_t LocalDisk::stored_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [k, v] : objects_) total += v.size();
  return total;
}

void LocalDisk::replace() {
  failed_ = false;
  objects_.clear();
}

// ---------- Raid5Group ----------

Raid5Group::Raid5Group(std::size_t nodes, std::size_t stripe_unit)
    : stripe_unit_(stripe_unit), node_failed_(nodes, false), shares_(nodes) {
  AIC_CHECK_MSG(nodes >= 3, "RAID-5 needs at least 3 members");
  AIC_CHECK(stripe_unit >= 1);
}

std::size_t Raid5Group::failed_nodes() const {
  return std::size_t(
      std::count(node_failed_.begin(), node_failed_.end(), true));
}

std::size_t Raid5Group::parity_node(std::uint64_t stripe) const {
  const std::size_t n = shares_.size();
  return (n - 1) - std::size_t(stripe % n);
}

void Raid5Group::put(const std::string& key, Bytes data) {
  AIC_CHECK_MSG(available(), "write to degraded-beyond-repair RAID group");
  const std::size_t n = shares_.size();
  const std::size_t data_units = n - 1;
  const std::size_t stripe_bytes = stripe_unit_ * data_units;
  const std::uint64_t stripes =
      data.empty() ? 0 : (data.size() + stripe_bytes - 1) / stripe_bytes;

  // Lay out shares. Each stripe: data_units units + 1 parity unit.
  std::vector<Bytes> node_share(n);
  Bytes unit(stripe_unit_, 0);
  for (std::uint64_t s = 0; s < stripes; ++s) {
    const std::size_t pnode = parity_node(s);
    Bytes parity(stripe_unit_, 0);
    std::size_t unit_idx = 0;
    for (std::size_t node = 0; node < n; ++node) {
      if (node == pnode) continue;
      const std::size_t off = std::size_t(s) * stripe_bytes +
                              unit_idx * stripe_unit_;
      std::fill(unit.begin(), unit.end(), 0);
      if (off < data.size()) {
        const std::size_t len = std::min(stripe_unit_, data.size() - off);
        std::copy(data.begin() + off, data.begin() + off + len, unit.begin());
      }
      for (std::size_t b = 0; b < stripe_unit_; ++b) parity[b] ^= unit[b];
      node_share[node].insert(node_share[node].end(), unit.begin(),
                              unit.end());
      ++unit_idx;
    }
    node_share[pnode].insert(node_share[pnode].end(), parity.begin(),
                             parity.end());
  }
  for (std::size_t node = 0; node < n; ++node) {
    if (node_failed_[node]) continue;  // degraded write skips the dead node
    shares_[node][key] = std::move(node_share[node]);
  }
  meta_[key] = ObjectMeta{data.size(), stripes};
}

std::optional<Bytes> Raid5Group::get(const std::string& key) const {
  if (!available()) return std::nullopt;
  auto mit = meta_.find(key);
  if (mit == meta_.end()) return std::nullopt;
  const ObjectMeta& meta = mit->second;
  const std::size_t n = shares_.size();
  const std::size_t data_units = n - 1;

  // Collect each node's share (empty span if the node is down or the share
  // is missing, e.g. written while that node was down).
  std::vector<const Bytes*> share(n, nullptr);
  std::size_t missing = 0;
  for (std::size_t node = 0; node < n; ++node) {
    if (node_failed_[node]) {
      ++missing;
      continue;
    }
    auto it = shares_[node].find(key);
    if (it == shares_[node].end()) {
      ++missing;
      continue;
    }
    share[node] = &it->second;
  }
  if (missing > 1) return std::nullopt;

  Bytes out;
  out.reserve(meta.size);
  Bytes unit(stripe_unit_, 0);
  for (std::uint64_t s = 0; s < meta.stripes; ++s) {
    const std::size_t pnode = parity_node(s);
    // Per-stripe unit index within each node's concatenated share:
    // every node contributes exactly one unit per stripe.
    const std::size_t share_off = std::size_t(s) * stripe_unit_;
    std::size_t unit_idx = 0;
    for (std::size_t node = 0; node < n; ++node) {
      if (node == pnode) continue;
      if (share[node]) {
        const Bytes& sh = *share[node];
        AIC_CHECK(share_off + stripe_unit_ <= sh.size());
        std::copy(sh.begin() + share_off,
                  sh.begin() + share_off + stripe_unit_, unit.begin());
      } else {
        // Reconstruct the lost data unit: XOR of all surviving units of
        // this stripe (including parity).
        std::fill(unit.begin(), unit.end(), 0);
        for (std::size_t other = 0; other < n; ++other) {
          if (other == node) continue;
          AIC_CHECK_MSG(share[other], "two members missing in one stripe");
          const Bytes& sh = *share[other];
          AIC_CHECK(share_off + stripe_unit_ <= sh.size());
          for (std::size_t b = 0; b < stripe_unit_; ++b)
            unit[b] ^= sh[share_off + b];
        }
      }
      // Append, trimming the final stripe's padding.
      const std::size_t logical_off =
          (std::size_t(s) * data_units + unit_idx) * stripe_unit_;
      if (logical_off < meta.size) {
        const std::size_t len =
            std::min(stripe_unit_, std::size_t(meta.size) - logical_off);
        out.insert(out.end(), unit.begin(), unit.begin() + len);
      }
      ++unit_idx;
    }
  }
  AIC_CHECK(out.size() == meta.size);
  return out;
}

bool Raid5Group::erase(const std::string& key) {
  bool existed = meta_.erase(key) > 0;
  for (auto& node : shares_) node.erase(key);
  return existed;
}

std::uint64_t Raid5Group::stored_bytes() const {
  std::uint64_t total = 0;
  for (const auto& node : shares_)
    for (const auto& [k, v] : node) total += v.size();
  return total;
}

void Raid5Group::fail_node(std::size_t node) {
  AIC_CHECK(node < shares_.size());
  node_failed_[node] = true;
  shares_[node].clear();
}

bool Raid5Group::is_node_failed(std::size_t node) const {
  AIC_CHECK(node < shares_.size());
  return node_failed_[node];
}

std::uint64_t Raid5Group::rebuild_node(std::size_t node) {
  AIC_CHECK(node < shares_.size());
  AIC_CHECK_MSG(node_failed_[node], "rebuilding a healthy node");
  AIC_CHECK_MSG(failed_nodes() == 1,
                "rebuild_node(" << node << ") with another member down — "
                "parity reconstruction needs every other member healthy");
  node_failed_[node] = false;
  std::uint64_t rebuilt = 0;
  const std::size_t n = shares_.size();
  for (const auto& [key, meta] : meta_) {
    Bytes share;
    share.resize(std::size_t(meta.stripes) * stripe_unit_, 0);
    bool have_all = true;
    for (std::uint64_t s = 0; s < meta.stripes && have_all; ++s) {
      const std::size_t off = std::size_t(s) * stripe_unit_;
      for (std::size_t other = 0; other < n; ++other) {
        if (other == node) continue;
        auto it = shares_[other].find(key);
        if (it == shares_[other].end()) {
          have_all = false;
          break;
        }
        const Bytes& sh = it->second;
        AIC_CHECK(off + stripe_unit_ <= sh.size());
        for (std::size_t b = 0; b < stripe_unit_; ++b)
          share[off + b] ^= sh[off + b];
      }
    }
    if (have_all && meta.stripes > 0) {
      rebuilt += share.size();
      shares_[node][key] = std::move(share);
    }
  }
  return rebuilt;
}

// ---------- RemoteStore ----------

void RemoteStore::put(const std::string& key, Bytes data) {
  objects_[key] = std::move(data);
}

std::optional<Bytes> RemoteStore::get(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return std::nullopt;
  return it->second;
}

bool RemoteStore::erase(const std::string& key) {
  return objects_.erase(key) > 0;
}

std::uint64_t RemoteStore::stored_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [k, v] : objects_) total += v.size();
  return total;
}

}  // namespace aic::storage
