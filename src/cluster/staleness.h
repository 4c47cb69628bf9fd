#ifndef VERO_CLUSTER_STALENESS_H_
#define VERO_CLUSTER_STALENESS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace vero {

/// Straggler-mitigation policy of the collectives' mitigation layer
/// (WorkerContext::AllReduceSum / AllToAllSum, set via
/// CollectiveOptions::mitigation, and AllGather, which takes it directly).
/// See docs/straggler_mitigation.md for semantics and accuracy caveats.
enum class MitigationMode {
  /// Fully synchronous: the layer is off and the accounting is
  /// bit-identical to seed.
  kStrict = 0,
  /// Return once W - max_stale_ranks ranks contribute within
  /// deadline_seconds; a late rank's contribution is dropped for the call
  /// (its gradient mass reappears in the next layer's rebuilt histograms)
  /// and its delay moves off the round's critical path.
  kBoundedStaleness = 1,
  /// A rank delayed beyond speculation_threshold_seconds has its share of
  /// the op re-served by a deterministically chosen on-time backup; results
  /// stay exact at the price of duplicated traffic (charged as waste).
  kSpeculative = 2,
};

const char* MitigationModeToString(MitigationMode mode);

/// Per-call knobs for a mitigated collective. The trainers pass
/// DistTrainOptions::mitigation (dist_common.h) unchanged.
struct MitigationOptions {
  MitigationMode mode = MitigationMode::kStrict;
  /// kBoundedStaleness: how long the on-time ranks wait before closing the
  /// aggregation without the stragglers.
  double deadline_seconds = 0.05;
  /// kSpeculative: delay above which a rank's block is re-executed.
  double speculation_threshold_seconds = 0.05;
  /// kBoundedStaleness: max *consecutive* deferrals of one rank. Hitting
  /// the bound forces a full (strict-priced) sync for that rank, so no
  /// contribution is ever more than staleness_bound mitigated calls stale.
  uint32_t staleness_bound = 2;
  /// Max ranks handled (deferred / speculated) per call — the k in "return
  /// once W-k ranks contribute". Late ranks beyond the budget fall back to
  /// strict behavior and pay their delay in full.
  uint32_t max_stale_ranks = 1;

  bool enabled() const { return mode != MitigationMode::kStrict; }
};

/// How one rank was handled in one mitigated collective call.
enum class RankClass : uint8_t {
  kOnTime = 0,
  /// kBoundedStaleness: contribution excluded from this call's result; the
  /// delay is absorbed off the critical path.
  kDeferred = 1,
  /// kBoundedStaleness: late, but its deferral streak hit staleness_bound —
  /// it contributes and pays the full delay (a forced sync).
  kForced = 2,
  /// kSpeculative: a backup re-serves this rank's share; data stays exact.
  kSpeculated = 3,
};

/// What a mitigated collective did, reported to the caller. In strict mode
/// (and for speculative calls) `contributed` is all-ones; in bounded mode a
/// deferred rank's entry is 0 on EVERY rank, so replicated merge logic that
/// skips non-contributors stays deterministic.
struct MitigationOutcome {
  bool self_deferred = false;
  bool self_forced = false;
  bool self_speculated = false;
  int deferred_ranks = 0;
  int speculated_ranks = 0;
  /// contributed[r] == 1 iff rank r's payload is reflected in the result.
  std::vector<uint8_t> contributed;
};

/// Pure, deterministic classification of one mitigated call: given every
/// rank's announced delay and current consecutive-deferral streak, decide
/// who is deferred / force-synced / speculated, and assign each speculated
/// rank a distinct on-time backup (backup_of[r] = serving rank, -1 none).
/// Identical inputs yield identical outputs on every rank, which is what
/// keeps the replicated split decisions consistent. Unit-tested directly.
void ClassifyStragglers(const MitigationOptions& opts,
                        std::span<const double> delays,
                        std::span<const uint32_t> streaks,
                        std::vector<RankClass>* klass,
                        std::vector<int>* backup_of);

}  // namespace vero

#endif  // VERO_CLUSTER_STALENESS_H_
