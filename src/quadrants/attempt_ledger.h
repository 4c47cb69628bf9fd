#ifndef VERO_QUADRANTS_ATTEMPT_LEDGER_H_
#define VERO_QUADRANTS_ATTEMPT_LEDGER_H_

#include <cstdint>
#include <vector>

#include "quadrants/dist_common.h"

namespace vero {

/// What rank 0 recorded over one training attempt.
struct AttemptRecord {
  /// One entry per completed round, in tree order. The round in flight when
  /// an attempt fails was never recorded.
  std::vector<TreeCost> tree_costs;
  std::vector<IterationStats> curve;
  /// Simulated seconds and cluster-wide bytes of the attempt's setup phase.
  double setup_seconds = 0.0;
  uint64_t setup_bytes = 0;
};

/// Goodput ledger of a run that spans several attempts. It holds the
/// committed prefix — rounds proven durable by a checkpoint, or kept by a
/// completed boundary attempt — and the last failed attempt, whose cost
/// stays pending until the next settle step learns how much of it a
/// checkpoint saved. A failed attempt's communication and modeled time
/// count as wasted except for the rounds a later attempt resumes from; its
/// setup is wasted only when none of its rounds was kept.
class AttemptLedger {
 public:
  /// Records a failed attempt that began at tree `start_tree`, replacing
  /// any pending one.
  void Fail(uint32_t start_tree, AttemptRecord attempt);

  /// Settles the pending attempt against the resume point
  /// `trees_recovered`: its rounds the checkpoint covers join the committed
  /// prefix, and the rest is charged to `result`'s wasted bytes and
  /// seconds. Clears the pending attempt.
  void Settle(uint32_t trees_recovered, DistResult* result);

  /// Keeps a completed attempt that began at tree `trees_recovered`: the
  /// committed prefix becomes its first `trees_recovered` rounds followed
  /// by the attempt's rounds.
  void Commit(uint32_t trees_recovered, const AttemptRecord& attempt);

  /// `base` plus the modeled seconds of the committed rounds before tree
  /// `trees`: the simulated clock an attempt resuming there starts from.
  double ClockAt(uint32_t trees, double base) const;

  const std::vector<TreeCost>& tree_costs() const { return tree_costs_; }
  const std::vector<IterationStats>& curve() const { return curve_; }

 private:
  std::vector<TreeCost> tree_costs_;
  std::vector<IterationStats> curve_;
  uint32_t pending_start_ = 0;
  AttemptRecord pending_;
};

}  // namespace vero

#endif  // VERO_QUADRANTS_ATTEMPT_LEDGER_H_
