#include "integrity/auditor.h"

#include <bit>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"

namespace vero {

uint64_t AuditDigestBytes(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t AuditDigestDoubles(std::span<const double> values) {
  return AuditDigestBytes(values.data(), values.size() * sizeof(double));
}

uint64_t AuditDigestWords(std::span<const uint32_t> values) {
  return AuditDigestBytes(values.data(), values.size() * sizeof(uint32_t));
}

const char* IntegrityLevelToString(IntegrityLevel level) {
  switch (level) {
    case IntegrityLevel::kOff:
      return "off";
    case IntegrityLevel::kChecksum:
      return "checksum";
    case IntegrityLevel::kFull:
      return "full";
  }
  VERO_CHECK(false);  // exhaustive switch above; unreachable
  return "";
}

bool HasNonFinite(std::span<const double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

IntegrityAuditor::IntegrityAuditor(WorkerContext& ctx, IntegrityLevel level)
    : ctx_(ctx), level_(level) {}

void IntegrityAuditor::PushReplicated(const char* what, uint64_t word) {
  slots_.push_back(Slot{SlotKind::kReplicated, what, 1});
  words_.push_back(word);
}

namespace {

/// FNV continued across `len` doubles at each of `parts`: the digest of
/// their concatenation.
uint64_t DigestParts(std::span<const double* const> parts, size_t len) {
  uint64_t digest = kAuditDigestSeed;
  for (const double* part : parts) {
    digest = AuditDigestBytes(part, len * sizeof(double), digest);
  }
  return digest;
}

}  // namespace

void IntegrityAuditor::PushReplicatedDoubles(
    const char* what, std::span<const double* const> parts, size_t len) {
  PushReplicated(what, DigestParts(parts, len));
}

void IntegrityAuditor::PushFlag(const char* what, bool violated) {
  slots_.push_back(Slot{SlotKind::kFlag, what, 1});
  words_.push_back(violated ? 1 : 0);
}

void IntegrityAuditor::PushPairwise(const char* what,
                                    std::span<const uint64_t> sent,
                                    std::span<const uint64_t> recv,
                                    bool exact) {
  const size_t w = static_cast<size_t>(ctx_.world_size());
  VERO_CHECK_EQ(sent.size(), w);
  VERO_CHECK_EQ(recv.size(), w);
  slots_.push_back(Slot{exact ? SlotKind::kPairExact : SlotKind::kPairMass,
                        what, static_cast<uint32_t>(2 * w)});
  words_.insert(words_.end(), sent.begin(), sent.end());
  words_.insert(words_.end(), recv.begin(), recv.end());
}

void IntegrityAuditor::RecordShare(PairEvidence* evidence, int peer,
                                   std::span<const double* const> parts,
                                   size_t len) const {
  evidence->digest[peer] = DigestParts(parts, len);
  if (full()) {
    double mass = 0.0;
    for (const double* part : parts) {
      for (size_t i = 0; i < len; ++i) mass += part[i];
    }
    evidence->mass[peer] = std::bit_cast<uint64_t>(mass);
  }
}

void IntegrityAuditor::PushGatherPairwise(
    const char* what, std::span<const uint8_t> mine,
    const std::vector<std::vector<uint8_t>>& gathered, int root) {
  const int w = ctx_.world_size();
  std::vector<uint64_t> sent(w, kAuditSkip);
  std::vector<uint64_t> recv(w, kAuditSkip);
  sent[root] = AuditDigestBytes(mine.data(), mine.size());
  if (ctx_.rank() == root) {
    for (int r = 0; r < w; ++r) {
      recv[r] = AuditDigestBytes(gathered[r].data(), gathered[r].size());
    }
  }
  PushPairwise(what, sent, recv, /*exact=*/true);
}

void IntegrityAuditor::RecordViolation(const Slot& slot, const char* point,
                                       int blamed, AuditVerdict* verdict) {
  ++stats_.violations;
  if (verdict->ok) {
    // The first violated slot carries the exchange's verdict (and blame);
    // later slots in the same exchange are usually downstream symptoms of
    // the same corruption and only add to the violation count.
    verdict->ok = false;
    verdict->blamed_rank = blamed;
    verdict->detail = std::string(slot.what) + "@" + point;
    stats_.last_blamed_rank = blamed;
    if (ctx_.rank() == 0) {
      if (obs::MetricsShard* shard = ctx_.metrics_shard()) {
        shard->gauge("integrity.blamed_rank")
            ->Set(static_cast<double>(blamed));
      }
    }
  }
  if (ctx_.rank() == 0) {
    if (obs::MetricsShard* shard = ctx_.metrics_shard()) {
      shard->counter("integrity.violations")->Increment();
    }
  }
}

void IntegrityAuditor::EvaluateReplicated(
    const Slot& slot, size_t base,
    const std::vector<std::vector<uint64_t>>& all, const char* point,
    AuditVerdict* verdict) {
  const int w = ctx_.world_size();
  // Majority value: the value held by the most ranks (ties broken toward
  // the smaller value, which is SPMD-deterministic).
  uint64_t majority = all[0][base];
  int majority_count = 0;
  for (int r = 0; r < w; ++r) {
    const uint64_t candidate = all[r][base];
    int count = 0;
    for (int s = 0; s < w; ++s) {
      if (all[s][base] == candidate) ++count;
    }
    if (count > majority_count ||
        (count == majority_count && candidate < majority)) {
      majority = candidate;
      majority_count = count;
    }
  }
  std::vector<int> dissenters;
  for (int r = 0; r < w; ++r) {
    if (all[r][base] != majority) dissenters.push_back(r);
  }
  if (dissenters.empty()) return;
  // A strict majority pins the blame on a unique dissenter; a 1-vs-1 split
  // (or an even split) is a detected but unattributed violation.
  const bool attributed =
      dissenters.size() == 1 && majority_count * 2 > w;
  RecordViolation(slot, point, attributed ? dissenters[0] : -1, verdict);
}

void IntegrityAuditor::EvaluateFlag(
    const Slot& slot, size_t base,
    const std::vector<std::vector<uint64_t>>& all, const char* point,
    AuditVerdict* verdict) {
  const int w = ctx_.world_size();
  std::vector<int> raised;
  for (int r = 0; r < w; ++r) {
    if (all[r][base] != 0) raised.push_back(r);
  }
  if (raised.empty()) return;
  RecordViolation(slot, point, raised.size() == 1 ? raised[0] : -1, verdict);
}

void IntegrityAuditor::EvaluatePairwise(
    const Slot& slot, size_t base,
    const std::vector<std::vector<uint64_t>>& all, const char* point,
    AuditVerdict* verdict) {
  const int w = ctx_.world_size();
  std::vector<int> blamed_receivers;
  for (int s = 0; s < w; ++s) {
    for (int d = 0; d < w; ++d) {
      if (s == d) continue;
      const uint64_t sent = all[s][base + d];
      const uint64_t recv = all[d][base + w + s];
      if (sent == kAuditSkip || recv == kAuditSkip) continue;
      bool mismatch;
      if (slot.kind == SlotKind::kPairExact) {
        mismatch = sent != recv;
      } else {
        const double a = std::bit_cast<double>(sent);
        const double b = std::bit_cast<double>(recv);
        mismatch = !std::isfinite(a) || !std::isfinite(b) ||
                   std::fabs(a - b) >
                       kAuditTolerance * (std::fabs(a) + std::fabs(b) + 1.0);
      }
      if (!mismatch) continue;
      // The receiver holds the copy that no longer matches what the sender
      // handed to the (CRC-clean) transport, so the corruption happened on
      // the receive side.
      if (blamed_receivers.empty() || blamed_receivers.back() != d) {
        blamed_receivers.push_back(d);
      }
    }
  }
  if (blamed_receivers.empty()) return;
  bool unique = true;
  for (int r : blamed_receivers) {
    if (r != blamed_receivers[0]) unique = false;
  }
  RecordViolation(slot, point, unique ? blamed_receivers[0] : -1, verdict);
}

AuditVerdict IntegrityAuditor::Exchange(const char* point) {
  VERO_CHECK(enabled());
  ++stats_.checks;
  if (ctx_.rank() == 0) {
    if (obs::MetricsShard* shard = ctx_.metrics_shard()) {
      shard->counter("integrity.checks")->Increment();
    }
  }
  const std::vector<Slot> slots = std::move(slots_);
  const std::vector<uint64_t> words = std::move(words_);
  slots_.clear();
  words_.clear();

  std::vector<std::vector<uint64_t>> all;
  if (!ctx_.AuditExchange(words, &all)) {
    throw ClusterAbort(Status::Unavailable(
        std::string("integrity: audit exchange broken at ") + point));
  }

  AuditVerdict verdict;
  // A rank whose packet length diverges from the rest computed a different
  // audit schema — itself evidence of divergent control flow. Blame by
  // majority packet length; evaluation below needs uniform packets.
  const int w = ctx_.world_size();
  std::vector<int> odd_sized;
  for (int r = 0; r < w; ++r) {
    if (all[r].size() != words.size()) odd_sized.push_back(r);
  }
  if (!odd_sized.empty()) {
    int count_mine = w - static_cast<int>(odd_sized.size());
    const Slot schema{SlotKind::kReplicated, "audit-schema", 0};
    const bool attributed = odd_sized.size() == 1 && count_mine * 2 > w;
    RecordViolation(schema, point, attributed ? odd_sized[0] : -1, &verdict);
    return verdict;
  }

  size_t base = 0;
  for (const Slot& slot : slots) {
    switch (slot.kind) {
      case SlotKind::kReplicated:
        EvaluateReplicated(slot, base, all, point, &verdict);
        break;
      case SlotKind::kFlag:
        EvaluateFlag(slot, base, all, point, &verdict);
        break;
      case SlotKind::kPairExact:
      case SlotKind::kPairMass:
        EvaluatePairwise(slot, base, all, point, &verdict);
        break;
    }
    base += slot.width;
  }
  VERO_CHECK_EQ(base, words.size());
  return verdict;
}

void IntegrityAuditor::RecordRecompute(uint64_t bytes, double seconds) {
  ++stats_.recomputes;
  stats_.wasted_bytes += bytes;
  stats_.wasted_seconds += seconds;
  if (ctx_.rank() == 0) {
    if (obs::MetricsShard* shard = ctx_.metrics_shard()) {
      shard->counter("integrity.recomputes")->Increment();
    }
  }
}

void IntegrityAuditor::Escalate(const AuditVerdict& verdict) {
  ++stats_.escalations;
  if (ctx_.rank() == 0) {
    if (obs::MetricsShard* shard = ctx_.metrics_shard()) {
      shard->counter("integrity.escalations")->Increment();
    }
  }
  if (verdict.blamed_rank == ctx_.rank()) {
    // The evidence implicates this worker: fail it so the driver's
    // checkpoint-rollback / membership machine takes over on the survivors.
    throw ClusterAbort(ctx_.FailWorker(Status::Corruption(
        "integrity: " + verdict.detail + " blamed this rank")));
  }
  if (verdict.blamed_rank >= 0) {
    throw ClusterAbort(Status::Unavailable(
        "integrity: " + verdict.detail + " blamed rank " +
        std::to_string(verdict.blamed_rank)));
  }
  // Detected but unattributed: every rank unwinds without dying, which the
  // driver reports as an unrecoverable (but detected) corruption failure.
  throw ClusterAbort(Status::Corruption(
      "integrity: unattributed violation " + verdict.detail));
}

}  // namespace vero
