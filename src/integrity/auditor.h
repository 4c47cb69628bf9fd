#ifndef VERO_INTEGRITY_AUDITOR_H_
#define VERO_INTEGRITY_AUDITOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/communicator.h"

namespace vero {

/// End-to-end integrity auditing of the distributed trainers, selected by
/// DistTrainOptions::integrity.
enum class IntegrityLevel {
  /// No auditing: zero extra collectives, metrics, or spans — bit-identical
  /// to builds that predate the auditor (the default).
  kOff,
  /// End-to-end content checks above the transport CRC: cross-rank digest
  /// agreement over replicated post-collective buffers and mass checksums
  /// over scattered aggregations, with majority-vote blame. Catches silent
  /// transport corruption (FaultKind::kSilentCorrupt).
  kChecksum,
  /// kChecksum plus algorithmic invariants: non-finite scans of gradients,
  /// histograms, split gains, and margins; hessian-mass identities against
  /// the all-reduced gradient sums; and the parent == left + right
  /// subtraction cross-check. Also catches compute-born poison
  /// (FaultKind::kPoison) and triggers targeted layer recompute before
  /// escalating to checkpoint rollback (docs/fault_tolerance.md).
  kFull,
};

/// Relative tolerance of the auditor's floating-point mass identities
/// (digest agreement is exact and does not use it).
inline constexpr double kAuditTolerance = 1e-6;

/// Targeted layer/gradient recomputes attempted per detected violation
/// before escalating to the checkpoint-rollback state machine.
inline constexpr uint32_t kAuditMaxRecomputes = 1;

/// Sentinel for a pairwise audit slot entry with no transfer behind it
/// (e.g. an AllToAll pair that contributed nothing this layer). Pairs where
/// either side is the sentinel are not checked. The bit pattern is a
/// negative quiet NaN, so it can never collide with a finite bit-cast mass,
/// and colliding with a 64-bit FNV digest is a 2^-64 event per slot.
inline constexpr uint64_t kAuditSkip = ~0ull;

/// FNV-1a offset basis: the digest of zero bytes.
inline constexpr uint64_t kAuditDigestSeed = 0xcbf29ce484222325ull;

/// 64-bit FNV-1a over raw bytes. Digest agreement is exact: two replicas of
/// a post-collective buffer must match bit for bit, so a single flipped bit
/// anywhere in the payload changes the digest. Passing a previous digest as
/// `hash` continues it, so digesting segments in turn equals digesting
/// their concatenation.
uint64_t AuditDigestBytes(const void* data, size_t size,
                          uint64_t hash = kAuditDigestSeed);
uint64_t AuditDigestDoubles(std::span<const double> values);
uint64_t AuditDigestWords(std::span<const uint32_t> values);

const char* IntegrityLevelToString(IntegrityLevel level);

/// True if any value in the span is NaN or infinite.
bool HasNonFinite(std::span<const double> values);

/// Per-worker integrity accounting, folded across workers and recovery
/// attempts by the driver into DistResult::integrity / the run report.
struct IntegrityStats {
  /// Audit exchanges evaluated (each covers every slot pushed since the
  /// previous exchange).
  uint64_t checks = 0;
  /// Violated slots observed across all exchanges.
  uint64_t violations = 0;
  /// Targeted recomputes performed in response to violations.
  uint64_t recomputes = 0;
  /// Violations that exhausted the recompute budget (or were not
  /// recomputable) and escalated to the rollback / membership machine.
  uint64_t escalations = 0;
  /// Rank blamed by the most recent violation; -1 if none or unattributed.
  int last_blamed_rank = -1;
  /// Discarded work charged to recomputes (traffic + simulated seconds of
  /// the corrupted exchange that had to be redone).
  uint64_t wasted_bytes = 0;
  double wasted_seconds = 0.0;
};

/// Outcome of one audit exchange.
struct AuditVerdict {
  bool ok = true;
  /// Rank the violated evidence uniquely implicates; -1 when the evidence
  /// is ambiguous (e.g. a 1-vs-1 digest split with no majority).
  int blamed_rank = -1;
  /// "<slot>@<point>" of the first violated slot, for status messages.
  std::string detail;
};

/// Cross-rank invariant auditor. Workers push locally computed evidence
/// (digests of replicated buffers, invariant-violation flags, pairwise
/// transfer digests) between collectives, then rendezvous in Exchange():
/// every rank sees every rank's packet and evaluates the same verdict, so
/// the blame decision is itself replicated. The exchange rides the
/// instrumentation channel — no bytes are charged and the fault injector
/// never sees it, so occurrence streams match across integrity levels and
/// the audited run's fault schedule lines up with the unaudited one.
///
/// The auditor is inert at IntegrityLevel::kOff: no slots, no exchanges, no
/// metric handles — callers must guard push/exchange sites on enabled().
class IntegrityAuditor {
 public:
  IntegrityAuditor(WorkerContext& ctx, IntegrityLevel level);

  bool enabled() const { return level_ != IntegrityLevel::kOff; }
  /// True at kFull: algorithmic invariants on top of kChecksum's digests.
  bool full() const { return level_ == IntegrityLevel::kFull; }

  /// A value that must be bit-identical on every rank (digest of a
  /// replicated post-collective buffer, a merged decision, node counts).
  /// Majority vote blames dissenters; a unique dissenter is the blamed rank.
  void PushReplicated(const char* what, uint64_t word);
  /// PushReplicated of the digest of a replicated buffer of doubles, given
  /// as `len` doubles at each of `parts` in order. The digest continues
  /// across the parts, so it equals AuditDigestDoubles of their
  /// concatenation.
  void PushReplicatedDoubles(const char* what,
                             std::span<const double* const> parts, size_t len);

  /// A locally evaluated invariant flag (nonzero = violated). Any nonzero
  /// rank is a violation; a unique nonzero rank is blamed.
  void PushFlag(const char* what, bool violated);

  /// Pairwise transfer evidence: `sent[d]` summarizes what this rank sent
  /// to rank d, `recv[s]` what it received from rank s (kAuditSkip for
  /// pairs with no transfer). Pair (s, d) is violated when s's sent summary
  /// disagrees with d's received summary; the receiver holds the corrupted
  /// copy, so d is blamed. With exact = false the words are bit-cast
  /// doubles compared within kAuditTolerance instead of exactly.
  void PushPairwise(const char* what, std::span<const uint64_t> sent,
                    std::span<const uint64_t> recv, bool exact);

  /// Per-peer evidence for PushPairwise: payload digests and, at kFull,
  /// bit-cast sums of the payloads' doubles. Peers never recorded keep
  /// kAuditSkip.
  struct PairEvidence {
    explicit PairEvidence(int world_size)
        : digest(world_size, kAuditSkip), mass(world_size, kAuditSkip) {}
    std::vector<uint64_t> digest;
    std::vector<uint64_t> mass;
  };

  /// Records the share exchanged with `peer`, given as `len` doubles at
  /// each of `parts` in order (a WorkerContext::SliceVisitor's view). The
  /// digest continues across the parts and the mass sums their doubles in
  /// order, so both equal those of the parts' concatenation.
  void RecordShare(PairEvidence* evidence, int peer,
                   std::span<const double* const> parts, size_t len) const;

  /// Pushes exact pairwise evidence for an asymmetric Gather to `root`:
  /// every rank attests the digest of what it sent (`mine`); only the root
  /// has receive-side evidence, the digests of `gathered`. All other pairs
  /// carry kAuditSkip.
  void PushGatherPairwise(const char* what, std::span<const uint8_t> mine,
                          const std::vector<std::vector<uint8_t>>& gathered,
                          int root);

  /// Rendezvous: gathers every rank's pending packet, evaluates all slots
  /// identically on all ranks, clears the packet, and returns the verdict
  /// for the first violated slot (all violations are counted). `point`
  /// labels the exchange in verdict details ("gradient", "layer", "round").
  /// The packet schema (slot kinds and widths) must be SPMD-identical; a
  /// diverging packet is itself reported as a violation.
  AuditVerdict Exchange(const char* point);

  /// Charges discarded work from a violation-triggered recompute.
  void RecordRecompute(uint64_t bytes, double seconds);

  /// Terminal handling of a non-recomputable or recompute-exhausted
  /// violation. Self-blame fails this worker (the driver rolls the
  /// survivors back to the last checkpoint); peer blame unwinds with
  /// kUnavailable and lets the blamed rank's own escalation mark it dead;
  /// unattributed violations unwind everywhere with kCorruption, which the
  /// driver surfaces as an unrecoverable (but detected) run failure. All
  /// messages carry the "integrity:" prefix the driver keys rollback
  /// attribution on.
  [[noreturn]] void Escalate(const AuditVerdict& verdict);

  const IntegrityStats& stats() const { return stats_; }

 private:
  enum class SlotKind : uint8_t { kReplicated, kFlag, kPairExact, kPairMass };
  struct Slot {
    SlotKind kind;
    const char* what;
    uint32_t width;  // words this slot occupies in the packet
  };

  void EvaluateReplicated(const Slot& slot, size_t base,
                          const std::vector<std::vector<uint64_t>>& all,
                          const char* point, AuditVerdict* verdict);
  void EvaluateFlag(const Slot& slot, size_t base,
                    const std::vector<std::vector<uint64_t>>& all,
                    const char* point, AuditVerdict* verdict);
  void EvaluatePairwise(const Slot& slot, size_t base,
                        const std::vector<std::vector<uint64_t>>& all,
                        const char* point, AuditVerdict* verdict);
  void RecordViolation(const Slot& slot, const char* point, int blamed,
                       AuditVerdict* verdict);

  WorkerContext& ctx_;
  IntegrityLevel level_;
  IntegrityStats stats_;
  std::vector<Slot> slots_;
  std::vector<uint64_t> words_;
};

}  // namespace vero

#endif  // VERO_INTEGRITY_AUDITOR_H_
