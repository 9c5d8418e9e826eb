// The AIC decider's take rule: when to checkpoint. One instance per job,
// fed once per decision period; shared by the single-process adaptive run
// (run_aic) and the coordinated MPI job (run_coordinated), which differ
// only in how they predict the cost of checkpointing now.
//
// Each decision:
//   1. finds the local-optimal work span w_L* — the Extreme Value search
//      over the adaptive interval model's NET^2, seeded at the elapsed
//      span (optimal_span);
//   2. requires the span condition w_L* <= elapsed;
//   3. then still waits for a *locally cheap* moment (Section II.B's
//      motivation — the desirable point of time is the one with the
//      smallest checkpoint): the predicted c3 is within 10% of the dip of
//      a 40-decision trailing window, at most 0.7x the window's mean, or
//      just past a valley (the first upturn after at least 3 declines);
//   4. unless it has waited so long (elapsed > 3 w_L*) that any moment is
//      better than more exposure.
// The caller adds its own pipelining constraint (no new L1 until the last
// L3 transfer has finished).
#pragma once

#include <vector>

#include "control/cost_model.h"
#include "model/interval_models.h"
#include "model/optimizer.h"
#include "predictor/features.h"

namespace aic::control {

/// First-principles estimate of the checkpoint latency variables from the
/// lightweight metrics alone — AIC's prediction until the stepwise
/// regression model can be trusted, and the per-rank estimate of a
/// coordinated job. The sampler buffers each hot page's pre-write
/// (last-checkpoint) content, so JD is a direct estimate of the per-page
/// delta fraction:
///   ds ~ DP * page * JD,  dl ~ compressor passes over the dirty bytes,
///   c1 ~ dirty bytes / local bandwidth.
model::IntervalParams estimate_params(const predictor::BaseMetrics& m,
                                      const CostModel& costs);

/// The local-optimal work span w_L*: minimizes the adaptive interval
/// model's NET^2 over [lo, hi] from the seed x0, for a checkpoint costing
/// `cur` after one costing `prev`.
model::OptResult optimal_span(const model::SystemProfile& sys,
                              const model::IntervalParams& cur,
                              const model::IntervalParams& prev, double lo,
                              double hi, double x0,
                              model::EvtDiag* diag = nullptr);

class TakeRule {
 public:
  struct Decision {
    double w_star = 0.0;
    model::EvtDiag diag;  // of the w_L* search
    bool span_reached = false;
    bool at_dip = false;
    bool starved = false;
    /// span_reached && (at_dip || starved).
    bool take = false;
  };

  /// [min_w, max_w] bounds the w_L* search.
  TakeRule(double min_w, double max_w) : min_w_(min_w), max_w_(max_w) {}

  /// One decision at `elapsed` seconds into the current interval, with
  /// `cur` the predicted cost of checkpointing now and `prev` the last
  /// checkpoint's cost.
  Decision decide(const model::SystemProfile& sys,
                  const model::IntervalParams& cur,
                  const model::IntervalParams& prev, double elapsed);

 private:
  double min_w_;
  double max_w_;
  /// Trailing predicted-c3 values, oldest first.
  std::vector<double> c3_window_;
  double prev_c3_ = -1.0;
  int decline_streak_ = 0;
};

}  // namespace aic::control
