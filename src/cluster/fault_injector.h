#ifndef VERO_CLUSTER_FAULT_INJECTOR_H_
#define VERO_CLUSTER_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace vero {

/// Collective operations a fault can be scheduled against. The values index
/// per-op occurrence counters; kAny matches every operation type.
enum class CollectiveOp {
  kAllReduceSum = 0,
  kAllGather = 1,
  kBroadcast = 2,
  kGather = 3,
  kAllToAll = 4,
  kBarrier = 5,
  kAny = 6,
};

inline constexpr int kNumCollectiveOps = 6;
static_assert(kNumCollectiveOps == static_cast<int>(CollectiveOp::kAny),
              "kNumCollectiveOps must count every concrete op; update it "
              "when adding CollectiveOp values before kAny");

const char* CollectiveOpToString(CollectiveOp op);

/// What a scheduled fault does to the matched collective call.
enum class FaultKind {
  /// The worker dies before participating: it leaves the barrier group and
  /// every survivor's next rendezvous fails with kUnavailable.
  kCrash,
  /// The payload arrives CRC-damaged `attempts` times; each detected-bad
  /// transfer is retransmitted (bytes recharged) after exponential backoff.
  /// Exceeding RetryPolicy::max_attempts escalates to a crash.
  kCorrupt,
  /// The payload arrives short `attempts` times; handled like kCorrupt
  /// (length framing detects it, transfer is retried).
  kTruncate,
  /// Straggler: the worker's op is charged `delay_seconds` of extra
  /// simulated time before proceeding (data still correct).
  kDelay,
  /// The payload is bit-flipped *after* transport framing/CRC succeeded:
  /// the transfer looks clean to the retry machinery and the damage lands
  /// in the receiver's buffer. Only the IntegrityAuditor's algorithmic
  /// invariants can catch it. Flips are seeded (FaultEvent::seed) and
  /// deterministic.
  kSilentCorrupt,
  /// NaN/Inf written into a compute buffer (gradients or histograms) at a
  /// targeted compute point. Matches FaultInjector::OnCompute calls, never
  /// collectives.
  kPoison,
};

const char* FaultKindToString(FaultKind kind);

/// Compute-side injection points for FaultKind::kPoison. The values index
/// per-point occurrence counters, mirroring CollectiveOp for collectives.
enum class ComputePoint {
  /// Per-instance gradient buffer, right after ComputeGradients.
  kGradient = 0,
  /// A freshly built layer histogram, right after BuildLayerHistograms.
  kHistogram = 1,
};

inline constexpr int kNumComputePoints = 2;
static_assert(kNumComputePoints ==
                  static_cast<int>(ComputePoint::kHistogram) + 1,
              "kNumComputePoints must cover every ComputePoint value");

const char* ComputePointToString(ComputePoint point);

/// Training phase a fault can be restricted to. Workers announce their
/// current phase (WorkerContext::set_fault_phase); an event tagged with a
/// specific phase counts occurrences only among collectives issued while the
/// worker is in that phase. kAnyPhase preserves the original global
/// occurrence counting, so existing plans are unaffected.
enum class FaultPhase {
  kAnyPhase = 0,
  /// Attempt setup: sharding, sketch build, horizontal->vertical transform.
  kSetup = 1,
  /// The boosting round loop.
  kTrain = 2,
  /// Recovery/rejoin rendezvous collectives between attempts.
  kRecovery = 3,
};

inline constexpr int kNumFaultPhases = 4;
static_assert(kNumFaultPhases == static_cast<int>(FaultPhase::kRecovery) + 1,
              "kNumFaultPhases must cover every FaultPhase value");

const char* FaultPhaseToString(FaultPhase phase);

/// One scheduled fault: fires on `rank`'s `occurrence`-th call (0-based)
/// of collective type `op` (kAny counts calls of every type). When `phase`
/// is not kAnyPhase, only calls issued while the worker is in that phase
/// are counted toward `occurrence`.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  int rank = 0;
  CollectiveOp op = CollectiveOp::kAny;
  /// 0-based index into the matching rank's sequence of matching calls.
  uint64_t occurrence = 0;
  /// kDelay: extra simulated seconds charged to the faulted worker.
  double delay_seconds = 0.0;
  /// kCorrupt/kTruncate: number of consecutive bad transfer attempts.
  int attempts = 1;
  /// Phase filter; kAnyPhase matches calls from every phase.
  FaultPhase phase = FaultPhase::kAnyPhase;
  /// kSilentCorrupt/kPoison: seeds the deterministic bit-flip / element
  /// choice so a plan replays the exact same damage.
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// kPoison: which compute buffer the poison lands in.
  ComputePoint target = ComputePoint::kGradient;
  /// kPoison: write +Inf instead of NaN.
  bool poison_inf = false;
};

/// Retry behavior for detected-bad transfers (corruption/truncation).
struct RetryPolicy {
  /// Bad attempts tolerated before the op gives up and the worker is
  /// declared failed (kUnavailable).
  int max_attempts = 3;
  /// Backoff before retry i (0-based) is backoff_seconds * multiplier^i.
  double backoff_seconds = 0.05;
  double backoff_multiplier = 2.0;
};

/// Deterministic schedule of faults for one Cluster. Builder-style:
///
///   FaultPlan plan;
///   plan.Crash(/*rank=*/2, CollectiveOp::kAny, /*occurrence=*/40)
///       .Delay(1, CollectiveOp::kAllReduceSum, 0, /*seconds=*/0.5);
///   cluster.InstallFaultPlan(plan);
///
/// The schedule is positional, not random, so every failure test is exactly
/// reproducible.
class FaultPlan {
 public:
  FaultPlan& Crash(int rank, CollectiveOp op, uint64_t occurrence,
                   FaultPhase phase = FaultPhase::kAnyPhase) {
    events_.push_back(
        {FaultKind::kCrash, rank, op, occurrence, 0.0, 0, phase});
    return *this;
  }
  FaultPlan& Corrupt(int rank, CollectiveOp op, uint64_t occurrence,
                     int attempts = 1,
                     FaultPhase phase = FaultPhase::kAnyPhase) {
    events_.push_back(
        {FaultKind::kCorrupt, rank, op, occurrence, 0.0, attempts, phase});
    return *this;
  }
  FaultPlan& Truncate(int rank, CollectiveOp op, uint64_t occurrence,
                      int attempts = 1,
                      FaultPhase phase = FaultPhase::kAnyPhase) {
    events_.push_back(
        {FaultKind::kTruncate, rank, op, occurrence, 0.0, attempts, phase});
    return *this;
  }
  FaultPlan& Delay(int rank, CollectiveOp op, uint64_t occurrence,
                   double seconds,
                   FaultPhase phase = FaultPhase::kAnyPhase) {
    events_.push_back(
        {FaultKind::kDelay, rank, op, occurrence, seconds, 0, phase});
    return *this;
  }
  /// Bit-flips `rank`'s received payload on its `occurrence`-th matching
  /// call, after transport CRC succeeded (the retry machinery never sees
  /// it). `seed` picks which bytes/elements flip.
  FaultPlan& SilentCorrupt(int rank, CollectiveOp op, uint64_t occurrence,
                           uint64_t seed = 0x9e3779b97f4a7c15ull,
                           FaultPhase phase = FaultPhase::kAnyPhase) {
    FaultEvent e;
    e.kind = FaultKind::kSilentCorrupt;
    e.rank = rank;
    e.op = op;
    e.occurrence = occurrence;
    e.phase = phase;
    e.seed = seed;
    events_.push_back(e);
    return *this;
  }
  /// Writes NaN (or +Inf) into `rank`'s `target` compute buffer on its
  /// `occurrence`-th OnCompute consultation of that point.
  FaultPlan& Poison(int rank, ComputePoint target, uint64_t occurrence,
                    bool inf = false,
                    FaultPhase phase = FaultPhase::kAnyPhase,
                    uint64_t seed = 0x9e3779b97f4a7c15ull) {
    FaultEvent e;
    e.kind = FaultKind::kPoison;
    e.rank = rank;
    e.occurrence = occurrence;
    e.phase = phase;
    e.seed = seed;
    e.target = target;
    e.poison_inf = inf;
    events_.push_back(e);
    return *this;
  }

  FaultPlan& set_retry_policy(const RetryPolicy& policy) {
    retry_ = policy;
    return *this;
  }

  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }
  const RetryPolicy& retry_policy() const { return retry_; }

 private:
  std::vector<FaultEvent> events_;
  RetryPolicy retry_;
};

/// What the injector decided for one (rank, op) call.
struct FaultDecision {
  /// Worker dies before participating in this collective.
  bool crash = false;
  /// Number of detected-bad transfer attempts to simulate (each one
  /// recharges the op's bytes and adds backoff). If this exceeds the retry
  /// policy's max_attempts the op escalates to a failure.
  int failed_attempts = 0;
  /// Extra straggler seconds charged to this worker.
  double delay_seconds = 0.0;
  /// Bit-flip the received payload after the (clean) transfer completes.
  bool silent_corrupt = false;
  /// Seed for the deterministic flip when silent_corrupt is set.
  uint64_t corrupt_seed = 0;
};

/// What the injector decided for one (rank, compute point) consultation.
struct PoisonDecision {
  bool poison = false;
  /// +Inf instead of NaN.
  bool inf = false;
  /// Picks the poisoned element index.
  uint64_t seed = 0;
};

/// Matches FaultEvents against the per-rank stream of collective calls.
/// Occurrence counters are per (rank, op) plus a per-rank any-op counter, so
/// matching is deterministic and race-free: each worker thread only touches
/// its own counters. Phase-tagged events use a separate bank of counters
/// advanced only while the worker is in the matching phase, so a kSetup
/// occurrence index is stable regardless of how much training preceded it.
///
/// An injector may outlive the Cluster it was installed on: elastic
/// recovery shares one injector across successive cluster incarnations so
/// occurrence counters keep advancing and already-fired events never
/// re-fire (Cluster::AdoptFaultInjector).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan, int num_workers);

  /// Called by rank's thread at the top of every collective. Advances the
  /// rank's occurrence counters and returns the combined decision of every
  /// event that fires on this call. `phase` is the worker's announced
  /// current phase.
  FaultDecision OnCollective(int rank, CollectiveOp op,
                             FaultPhase phase = FaultPhase::kAnyPhase);

  /// Called by rank's thread at each compute-side injection point. Advances
  /// the rank's compute-point occurrence counters and returns the combined
  /// decision of every kPoison event that fires on this consultation
  /// (kPoison events never match collectives, and vice versa).
  PoisonDecision OnCompute(int rank, ComputePoint point,
                           FaultPhase phase = FaultPhase::kAnyPhase);

  const RetryPolicy& retry_policy() const { return plan_.retry_policy(); }

  int num_workers() const { return static_cast<int>(counters_.size()); }

  /// Grows the counter bank to at least `num_workers` ranks; new ranks start
  /// with fresh counters. Elastic scale-up admits ranks the original plan
  /// never indexed — events targeting them simply never fire. Must only be
  /// called while no worker threads are running (between incarnations).
  void EnsureWorkers(int num_workers) {
    if (num_workers > static_cast<int>(counters_.size())) {
      counters_.resize(static_cast<size_t>(num_workers));
    }
  }

 private:
  struct RankCounters {
    uint64_t per_op[kNumCollectiveOps] = {};
    uint64_t any = 0;
    /// Occurrence streams restricted to a single phase; [kAnyPhase] is
    /// unused (kAnyPhase events read the global counters above).
    uint64_t phase_per_op[kNumFaultPhases][kNumCollectiveOps] = {};
    uint64_t phase_any[kNumFaultPhases] = {};
    /// Compute-side streams for kPoison (OnCompute), one per ComputePoint,
    /// with the same global / per-phase split as the collective banks.
    uint64_t compute[kNumComputePoints] = {};
    uint64_t phase_compute[kNumFaultPhases][kNumComputePoints] = {};
  };

  FaultPlan plan_;
  std::vector<RankCounters> counters_;
};

}  // namespace vero

#endif  // VERO_CLUSTER_FAULT_INJECTOR_H_
