// Simulated checkpoint storage targets: in-memory byte stores.
//
// The paper's three levels map onto three targets:
//   L1 — LocalDisk        (node-local disk or RAM disk)
//   L2 — Raid5Group       (main memory of a RAID-5 group of partner nodes;
//                          we implement real striping + parity so a single
//                          node loss is recoverable, matching [11, 18])
//   L3 — RemoteStore      (Lustre-like remote file system; per-node
//                          bandwidth B3 shrinks as the system scales)
//
// Targets store named objects (checkpoint files) in memory and price
// nothing: what a write or read costs is MultiLevelStore's business (it
// owns the level bandwidths) and the transfer engine's (it charges the
// L2/L3 drains chunk by chunk). A target can be failed (unavailable) and,
// for RAID-5, individual member nodes can fail and be rebuilt.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace aic::storage {

/// Seconds to move `bytes` at `bandwidth_bps` plus a fixed setup latency.
/// Throws CheckError for non-positive or non-finite bandwidth and for
/// negative or non-finite latency (the inputs that would otherwise turn
/// every downstream duration into inf/NaN).
double transfer_seconds(std::uint64_t bytes, double bandwidth_bps,
                        double latency_s = 0.0);

class StorageTarget {
 public:
  virtual ~StorageTarget() = default;

  virtual std::string name() const = 0;
  virtual bool available() const = 0;

  /// Stores an object. Throws CheckError if the target is unavailable.
  virtual void put(const std::string& key, Bytes data) = 0;
  /// Fetches an object; returns nullopt if missing or unavailable.
  virtual std::optional<Bytes> get(const std::string& key) const = 0;

  virtual bool erase(const std::string& key) = 0;
  virtual std::uint64_t stored_bytes() const = 0;
};

/// Node-local disk (L1). Lost entirely on a total node failure.
class LocalDisk final : public StorageTarget {
 public:
  std::string name() const override { return "local-disk"; }
  bool available() const override { return !failed_; }

  void put(const std::string& key, Bytes data) override;
  std::optional<Bytes> get(const std::string& key) const override;
  bool erase(const std::string& key) override;
  std::uint64_t stored_bytes() const override;

  /// Total node failure: the disk and its contents become unavailable.
  void fail() { failed_ = true; }
  /// Node replaced: disk back online, contents gone.
  void replace();

 private:
  bool failed_ = false;
  std::map<std::string, Bytes> objects_;
};

/// RAID-5 group of `n` partner-node memories (L2): objects are striped
/// across n-1 data shares plus one rotating parity share; any single member
/// loss is tolerated and repairable.
class Raid5Group final : public StorageTarget {
 public:
  /// `nodes` >= 3; `stripe_unit` is the striping granularity.
  explicit Raid5Group(std::size_t nodes, std::size_t stripe_unit = 64 * 1024);

  std::string name() const override { return "raid5-group"; }
  /// Available while at most one member is down.
  bool available() const override { return failed_nodes() <= 1; }

  void put(const std::string& key, Bytes data) override;
  /// Reconstructs from parity transparently when one member is down.
  std::optional<Bytes> get(const std::string& key) const override;
  bool erase(const std::string& key) override;
  std::uint64_t stored_bytes() const override;

  std::size_t node_count() const { return shares_.size(); }
  std::size_t failed_nodes() const;
  bool is_node_failed(std::size_t node) const;
  void fail_node(std::size_t node);
  /// Rebuilds a replaced member's shares from the surviving members.
  /// Returns the rebuilt byte count. Requires all other members healthy:
  /// throws CheckError if a second member is down (XOR reconstruction
  /// would silently produce garbage shares).
  std::uint64_t rebuild_node(std::size_t node);

 private:
  struct ObjectMeta {
    std::uint64_t size = 0;        // original object size
    std::uint64_t stripes = 0;     // number of stripes
  };
  /// share index layout: for stripe s, parity lives on node
  /// (n-1 - s % n), data units fill the remaining nodes in order.
  std::size_t parity_node(std::uint64_t stripe) const;

  std::size_t stripe_unit_;
  std::vector<bool> node_failed_;
  // shares_[node][key] -> concatenated share units for that object.
  std::vector<std::map<std::string, Bytes>> shares_;
  std::map<std::string, ObjectMeta> meta_;
};

/// Remote parallel file system (L3). Never fails in-model (a level-3
/// failure means everything below it is lost, and L3 is the recovery
/// source), but its per-node bandwidth is the scarce resource.
class RemoteStore final : public StorageTarget {
 public:
  std::string name() const override { return "remote-store"; }
  bool available() const override { return true; }

  void put(const std::string& key, Bytes data) override;
  std::optional<Bytes> get(const std::string& key) const override;
  bool erase(const std::string& key) override;
  std::uint64_t stored_bytes() const override;

 private:
  std::map<std::string, Bytes> objects_;
};

}  // namespace aic::storage
