// Stage timing and tracing for the benchmark.
//
// A Stopwatch times every stage of the benchmark around the public call
// that does it. Untraced, it only reads the host clock. Traced, each timed
// stage is also recorded as a wall-clock span in an obs::Hub's TraceLog
// (category "bench", one lane of its own) with the id of the operation it
// belongs to, so all spans of one checkpoint share an id. The library's own
// spans (the per-shard delta spans) land in the same log when the hub is
// attached to the component.
//
// After a traced run the log is exported with obs::trace_to_chrome_json
// and analysed back from that export: each root span's children and each
// layer's self time (its duration minus the part covered by spans nested
// in it).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace aic::obs {
struct Hub;
}  // namespace aic::obs

namespace perfbench {

class Stopwatch {
 public:
  /// `hub` == nullptr: untraced (clock only).
  explicit Stopwatch(aic::obs::Hub* hub);

  /// Seconds on the run's wall clock (the hub's trace time base when
  /// traced, so bench spans line up with the library's).
  double now() const;
  /// Records [t0, t1] as span `name` of operation `id` (traced only).
  void span(const char* name, double t0, double t1, std::uint64_t id) const;
  /// Times `fn` as span `name` and returns its duration in seconds.
  template <typename Fn>
  double time(const char* name, std::uint64_t id, Fn&& fn) const {
    const double t0 = now();
    fn();
    const double t1 = now();
    span(name, t0, t1, id);
    return t1 - t0;
  }

 private:
  aic::obs::Hub* hub_;
  std::uint64_t origin_ns_;
};

/// Per-root breakdown of an exported trace.
struct Breakdown {
  std::size_t roots = 0;
  double root_s = 0.0;  // summed root durations
  /// Summed self time per child layer. A library span nested in a bench
  /// child is its own layer, named "<category>.<name>" (e.g.
  /// "delta.shard"); overlapping library spans (parallel shards) count
  /// once, as the union of their intervals.
  std::map<std::string, double> self_s;
};

/// Parses a Chrome trace export and breaks down every wall-clock bench
/// span named `root` into the bench spans of the same id it contains.
Breakdown breakdown(const std::string& chrome_json, const std::string& root);

/// Writes `text` to `path`; throws CheckError on failure.
void write_file(const std::string& path, const std::string& text);

}  // namespace perfbench
