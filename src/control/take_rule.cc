#include "control/take_rule.h"

#include <algorithm>

namespace aic::control {
namespace {

constexpr std::size_t kWindow = 40;  // decisions (~seconds), > a phase cycle
constexpr double kDipSlack = 1.1;     // "cheap" = within 10% of the dip
constexpr double kMeanFraction = 0.7;  // ... or clearly below the mean
constexpr int kValleyDeclines = 3;     // declines before an upturn counts
constexpr double kStarvationFactor = 3.0;  // fire anyway past 3x w_L*

}  // namespace

model::IntervalParams estimate_params(const predictor::BaseMetrics& m,
                                      const CostModel& costs) {
  const double dirty_bytes = m.dirty_pages * double(kPageSize);
  const double ds = dirty_bytes * std::max(m.jd, 0.02);
  const double dl = 2.5 * dirty_bytes / costs.compress_bps;
  model::IntervalParams p;
  p.c1 = dirty_bytes / costs.local_bps;
  p.c2 = p.c1 + dl + ds / costs.b2_bps;
  p.c3 = p.c1 + dl + ds / costs.b3_bps;
  p.r1 = p.c1;
  p.r2 = p.c2;
  p.r3 = p.c3;
  return p;
}

model::OptResult optimal_span(const model::SystemProfile& sys,
                              const model::IntervalParams& cur,
                              const model::IntervalParams& prev, double lo,
                              double hi, double x0, model::EvtDiag* diag) {
  return model::extreme_value_minimum(
      [&](double w) { return model::net2_adaptive(sys, w, cur, prev); }, lo,
      hi, x0, diag);
}

TakeRule::Decision TakeRule::decide(const model::SystemProfile& sys,
                                    const model::IntervalParams& cur,
                                    const model::IntervalParams& prev,
                                    double elapsed) {
  Decision d;
  d.w_star = optimal_span(sys, cur, prev, min_w_, max_w_,
                          std::max(elapsed, min_w_), &d.diag)
                 .x;

  c3_window_.push_back(cur.c3);
  if (c3_window_.size() > kWindow) c3_window_.erase(c3_window_.begin());
  const double window_min =
      *std::min_element(c3_window_.begin(), c3_window_.end());
  double window_mean = 0.0;
  for (double v : c3_window_) window_mean += v;
  window_mean /= double(c3_window_.size());

  // Valley detection: the predicted cost declines while a consolidation
  // phase runs and turns back up when the next burst starts; firing on the
  // first upturn after a sustained decline lands within one decision
  // period of the local minimum — even when the minimum's absolute value
  // drifts upward over the interval (scratch accumulates).
  const bool upturn = decline_streak_ >= kValleyDeclines &&
                      prev_c3_ >= 0.0 && cur.c3 > prev_c3_;
  if (prev_c3_ >= 0.0 && cur.c3 < prev_c3_) {
    ++decline_streak_;
  } else if (cur.c3 > prev_c3_) {
    decline_streak_ = 0;
  }
  prev_c3_ = cur.c3;

  d.span_reached = d.w_star <= elapsed;
  d.at_dip = cur.c3 <= kDipSlack * window_min ||
             cur.c3 <= kMeanFraction * window_mean || upturn;
  d.starved = elapsed > kStarvationFactor * d.w_star;
  d.take = d.span_reached && (d.at_dip || d.starved);
  return d;
}

}  // namespace aic::control
