#include "cluster/fault_injector.h"

#include "common/logging.h"

namespace vero {

const char* CollectiveOpToString(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kAllReduceSum:
      return "AllReduceSum";
    case CollectiveOp::kAllGather:
      return "AllGather";
    case CollectiveOp::kBroadcast:
      return "Broadcast";
    case CollectiveOp::kGather:
      return "Gather";
    case CollectiveOp::kAllToAll:
      return "AllToAll";
    case CollectiveOp::kBarrier:
      return "Barrier";
    case CollectiveOp::kAny:
      return "Any";
  }
  VERO_CHECK(false);  // exhaustive switch above; unreachable
  return "";
}

// The switches below are default-free on purpose: adding a FaultKind /
// FaultPhase / ComputePoint without a string triggers -Wswitch instead of
// silently stringifying as "Unknown".
const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "Crash";
    case FaultKind::kCorrupt:
      return "Corrupt";
    case FaultKind::kTruncate:
      return "Truncate";
    case FaultKind::kDelay:
      return "Delay";
    case FaultKind::kSilentCorrupt:
      return "SilentCorrupt";
    case FaultKind::kPoison:
      return "Poison";
  }
  VERO_CHECK(false);
  return "";
}

const char* FaultPhaseToString(FaultPhase phase) {
  switch (phase) {
    case FaultPhase::kAnyPhase:
      return "AnyPhase";
    case FaultPhase::kSetup:
      return "Setup";
    case FaultPhase::kTrain:
      return "Train";
    case FaultPhase::kRecovery:
      return "Recovery";
  }
  VERO_CHECK(false);
  return "";
}

const char* ComputePointToString(ComputePoint point) {
  switch (point) {
    case ComputePoint::kGradient:
      return "Gradient";
    case ComputePoint::kHistogram:
      return "Histogram";
  }
  VERO_CHECK(false);
  return "";
}

FaultInjector::FaultInjector(const FaultPlan& plan, int num_workers)
    : plan_(plan), counters_(num_workers) {
  for (const FaultEvent& e : plan_.events()) {
    VERO_CHECK(e.rank >= 0 && e.rank < num_workers);
    VERO_CHECK_GE(e.attempts, 0);
    VERO_CHECK_GE(e.delay_seconds, 0.0);
  }
}

FaultDecision FaultInjector::OnCollective(int rank, CollectiveOp op,
                                          FaultPhase phase) {
  RankCounters& c = counters_[rank];
  const int phase_index = static_cast<int>(phase);
  const uint64_t op_index = c.per_op[static_cast<int>(op)]++;
  const uint64_t any_index = c.any++;
  const uint64_t phase_op_index =
      c.phase_per_op[phase_index][static_cast<int>(op)]++;
  const uint64_t phase_any_index = c.phase_any[phase_index]++;
  FaultDecision decision;
  for (const FaultEvent& e : plan_.events()) {
    if (e.rank != rank) continue;
    // kPoison targets compute points, not collectives; it has its own
    // occurrence stream (OnCompute) and must not consume this one.
    if (e.kind == FaultKind::kPoison) continue;
    bool match;
    if (e.phase == FaultPhase::kAnyPhase) {
      match = (e.op == CollectiveOp::kAny && e.occurrence == any_index) ||
              (e.op == op && e.occurrence == op_index);
    } else if (e.phase == phase) {
      match = (e.op == CollectiveOp::kAny && e.occurrence == phase_any_index) ||
              (e.op == op && e.occurrence == phase_op_index);
    } else {
      match = false;
    }
    if (!match) continue;
    switch (e.kind) {
      case FaultKind::kCrash:
        decision.crash = true;
        break;
      case FaultKind::kCorrupt:
      case FaultKind::kTruncate:
        decision.failed_attempts += e.attempts;
        break;
      case FaultKind::kDelay:
        decision.delay_seconds += e.delay_seconds;
        break;
      case FaultKind::kSilentCorrupt:
        decision.silent_corrupt = true;
        decision.corrupt_seed ^= e.seed;
        break;
      case FaultKind::kPoison:
        break;  // filtered above
    }
  }
  return decision;
}

PoisonDecision FaultInjector::OnCompute(int rank, ComputePoint point,
                                        FaultPhase phase) {
  RankCounters& c = counters_[rank];
  const int phase_index = static_cast<int>(phase);
  const int point_index = static_cast<int>(point);
  const uint64_t global_index = c.compute[point_index]++;
  const uint64_t phase_index_count =
      c.phase_compute[phase_index][point_index]++;
  PoisonDecision decision;
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind != FaultKind::kPoison) continue;
    if (e.rank != rank || e.target != point) continue;
    bool match;
    if (e.phase == FaultPhase::kAnyPhase) {
      match = e.occurrence == global_index;
    } else if (e.phase == phase) {
      match = e.occurrence == phase_index_count;
    } else {
      match = false;
    }
    if (!match) continue;
    decision.poison = true;
    decision.inf = decision.inf || e.poison_inf;
    decision.seed ^= e.seed;
  }
  return decision;
}

}  // namespace vero
