#include "spans.h"

#include <algorithm>
#include <fstream>
#include <vector>

#include "common/check.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace perfbench {

namespace {

constexpr const char* kBenchCategory = "bench";
/// A bench lane far above the library's shard/level lanes.
constexpr std::uint32_t kBenchTrack = 1000;
/// Slack for containment tests: exported timestamps are microseconds.
constexpr double kEps = 1e-9;

struct Span {
  std::string cat;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  double id = -1.0;  // bench spans only
};

std::vector<Span> wall_spans(const std::string& chrome_json) {
  using aic::obs::JsonValue;
  const JsonValue doc = aic::obs::json_parse(chrome_json);
  std::vector<Span> out;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    const JsonValue* ph = e.find("ph");
    const JsonValue* pid = e.find("pid");
    if (ph == nullptr || ph->str != "X" || pid == nullptr ||
        pid->as_number() != 2.0)
      continue;
    Span s;
    s.cat = e.at("cat").str;
    s.name = e.at("name").str;
    s.start = e.at("ts").as_number() * 1e-6;
    s.end = s.start + e.at("dur").as_number() * 1e-6;
    if (const JsonValue* args = e.find("args")) {
      if (const JsonValue* id = args->find("id")) s.id = id->as_number();
    }
    out.push_back(std::move(s));
  }
  return out;
}

bool contains(const Span& outer, const Span& inner) {
  return inner.start >= outer.start - kEps && inner.end <= outer.end + kEps;
}

/// Length of the union of `spans` (sorted by start) inside `within`.
double covered(const std::vector<const Span*>& spans, const Span& within) {
  double total = 0.0, cur_lo = 0.0, cur_hi = -1.0;
  for (const Span* s : spans) {
    const double lo = std::max(s->start, within.start);
    const double hi = std::min(s->end, within.end);
    if (hi <= lo) continue;
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

Stopwatch::Stopwatch(aic::obs::Hub* hub)
    : hub_(hub), origin_ns_(aic::obs::wall_now_ns()) {}

double Stopwatch::now() const {
  return hub_ != nullptr ? hub_->trace.wall_seconds()
                         : aic::obs::wall_seconds_since(origin_ns_);
}

void Stopwatch::span(const char* name, double t0, double t1,
                     std::uint64_t id) const {
  if (hub_ == nullptr) return;
  hub_->trace.span(aic::obs::TimeDomain::kWall, kBenchCategory, name, t0, t1,
                   kBenchTrack, {{"id", double(id)}});
}

Breakdown breakdown(const std::string& chrome_json, const std::string& root) {
  const std::vector<Span> spans = wall_spans(chrome_json);
  std::multimap<double, const Span*> bench_by_id;
  std::vector<const Span*> library;
  for (const Span& s : spans) {
    if (s.cat == kBenchCategory) {
      bench_by_id.emplace(s.id, &s);
    } else {
      library.push_back(&s);
    }
  }
  std::sort(library.begin(), library.end(),
            [](const Span* a, const Span* b) { return a->start < b->start; });

  Breakdown b;
  for (const Span& r : spans) {
    if (r.cat != kBenchCategory || r.name != root) continue;
    ++b.roots;
    b.root_s += r.end - r.start;
    const auto [lo, hi] = bench_by_id.equal_range(r.id);
    for (auto it = lo; it != hi; ++it) {
      const Span& c = *it->second;
      if (&c == &r || !contains(r, c)) continue;
      const double dur = c.end - c.start;
      // Library spans nested in this child, grouped by layer.
      std::map<std::string, std::vector<const Span*>> nested;
      const auto first = std::lower_bound(
          library.begin(), library.end(), c.start - kEps,
          [](const Span* s, double t) { return s->start < t; });
      for (auto l = first; l != library.end() && (*l)->start <= c.end + kEps;
           ++l) {
        if (contains(c, **l))
          nested[(*l)->cat + "." + (*l)->name].push_back(*l);
      }
      double nested_s = 0.0;
      for (const auto& [layer, members] : nested) {
        const double cov = covered(members, c);
        b.self_s[layer] += cov;
        nested_s += cov;
      }
      b.self_s[c.name] += dur - nested_s;
    }
  }
  return b;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  AIC_CHECK_MSG(out.good(), "cannot write " << path);
}

}  // namespace perfbench
