#include "cluster/communicator.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace vero {

/// Metric handles resolved once at AttachObserver time. Per-op counters are
/// indexed by the CollectiveOp value so the hot path is one array index and
/// one integer add per update.
struct WorkerContext::ObsHandles {
  obs::Counter* op_count[kNumCollectiveOps] = {};
  obs::Counter* op_bytes_sent[kNumCollectiveOps] = {};
  obs::Counter* op_bytes_received[kNumCollectiveOps] = {};
  /// Per-op simulated-latency distributions (comm.<Op>.sim_seconds): the
  /// run-report p50/p99 source for each collective flavor.
  obs::HistogramMetric* op_latency[kNumCollectiveOps] = {};
  obs::Counter* retries = nullptr;
  obs::Counter* retransmitted_bytes = nullptr;
  obs::Counter* watchdog_timeouts = nullptr;
  obs::Counter* rendezvous_broken = nullptr;
  obs::HistogramMetric* straggler_seconds = nullptr;
  obs::HistogramMetric* op_sim_seconds = nullptr;

  /// staleness.* / speculation.* handles, resolved lazily by the first
  /// mitigated collective so strict runs keep exactly the seed's metric
  /// name set (the bit-identical-to-seed contract covers reports too).
  obs::Counter* stale_deferred = nullptr;
  obs::Counter* stale_forced = nullptr;
  obs::HistogramMetric* stale_deferred_seconds = nullptr;
  obs::HistogramMetric* stale_deferred_mass = nullptr;
  obs::HistogramMetric* stale_deadline_wait = nullptr;
  obs::Counter* spec_launched = nullptr;
  obs::Counter* spec_wasted_bytes = nullptr;
  obs::HistogramMetric* spec_wasted_seconds = nullptr;
  obs::HistogramMetric* spec_absorbed_seconds = nullptr;

  /// comm.<Op>.raw_bytes / compressed_bytes + codec.* handles, resolved
  /// lazily by the first codec collective so compression-off runs keep
  /// exactly the seed's metric name set (the bit-identical-to-seed contract
  /// covers reports too).
  obs::Counter* codec_raw[kNumCollectiveOps] = {};
  obs::Counter* codec_wire[kNumCollectiveOps] = {};
  obs::Counter* codec_dense_blocks = nullptr;
  obs::Counter* codec_sparse_blocks = nullptr;
  obs::Counter* codec_quantized_blocks = nullptr;

  void EnsureCodecHandles(obs::MetricsShard* shard) {
    if (codec_dense_blocks != nullptr) return;
    for (int op = 0; op < kNumCollectiveOps; ++op) {
      std::string base = "comm.";
      base += CollectiveOpToString(static_cast<CollectiveOp>(op));
      codec_raw[op] = shard->counter(base + ".raw_bytes");
      codec_wire[op] = shard->counter(base + ".compressed_bytes");
    }
    codec_dense_blocks = shard->counter("codec.blocks_dense");
    codec_sparse_blocks = shard->counter("codec.blocks_sparse");
    codec_quantized_blocks = shard->counter("codec.blocks_quantized");
  }

  void EnsureMitigationHandles(obs::MetricsShard* shard) {
    if (stale_deferred != nullptr) return;
    stale_deferred = shard->counter("staleness.deferred_contributions");
    stale_forced = shard->counter("staleness.forced_syncs");
    stale_deferred_seconds = shard->histogram("staleness.deferred_seconds");
    stale_deferred_mass = shard->histogram("staleness.deferred_mass");
    stale_deadline_wait = shard->histogram("staleness.deadline_wait_seconds");
    spec_launched = shard->counter("speculation.launched");
    spec_wasted_bytes = shard->counter("speculation.wasted_bytes");
    spec_wasted_seconds = shard->histogram("speculation.wasted_seconds");
    spec_absorbed_seconds = shard->histogram("speculation.absorbed_seconds");
  }
};

WorkerContext::WorkerContext(Cluster* cluster, int rank)
    : cluster_(cluster), rank_(rank) {}

WorkerContext::~WorkerContext() = default;

Cluster::Cluster(int num_workers, NetworkModel model)
    : num_workers_(num_workers),
      model_(model),
      dead_flags_(num_workers, 0),
      barrier_(static_cast<size_t>(num_workers)),
      ptrs_(num_workers, nullptr),
      mutable_ptrs_(num_workers, nullptr),
      sizes_(num_workers, 0),
      instrument_slots_(num_workers, 0.0),
      delay_slots_(num_workers, 0.0),
      mit_class_(num_workers, RankClass::kOnTime),
      mit_backup_(num_workers, -1),
      stale_streaks_(num_workers, 0) {
  VERO_CHECK_GT(num_workers, 0);
  contexts_.reserve(num_workers);
  for (int r = 0; r < num_workers; ++r) {
    contexts_.emplace_back(new WorkerContext(this, r));
  }
}

void Cluster::InstallFaultPlan(const FaultPlan& plan) {
  if (plan.empty()) {
    injector_.reset();
  } else {
    injector_ = std::make_shared<FaultInjector>(plan, num_workers_);
  }
}

void Cluster::AdoptFaultInjector(std::shared_ptr<FaultInjector> injector) {
  if (injector != nullptr) {
    VERO_CHECK_GE(injector->num_workers(), num_workers_);
  }
  injector_ = std::move(injector);
}

void Cluster::AttachObserver(obs::RunObserver* observer) {
  if constexpr (!obs::kObsEnabled) return;
  observer_ = observer;
  if (observer == nullptr) return;
  // One attach = one cluster incarnation: recovery / resize rebuilds attach
  // the same observer again, and the bumped generation tags the new workers'
  // trace buffers so the anatomy analyzer can tell incarnations apart.
  observer->BeginIncarnation();
  for (auto& ctx : contexts_) ctx->AttachObs(observer);
}

void WorkerContext::AttachObs(obs::RunObserver* observer) {
  trace_ = observer->trace_enabled()
               ? observer->trace().CreateBuffer(rank_, observer->incarnation())
               : nullptr;
  metrics_ = observer->metrics().CreateShard();
  obs_handles_ = std::make_unique<ObsHandles>();
  op_seq_ = 0;  // Collective sequence numbers restart per incarnation.
  for (int op = 0; op < kNumCollectiveOps; ++op) {
    std::string base = "comm.";
    base += CollectiveOpToString(static_cast<CollectiveOp>(op));
    obs_handles_->op_count[op] = metrics_->counter(base + ".ops");
    obs_handles_->op_bytes_sent[op] = metrics_->counter(base + ".bytes_sent");
    obs_handles_->op_bytes_received[op] =
        metrics_->counter(base + ".bytes_received");
    obs_handles_->op_latency[op] = metrics_->histogram(base + ".sim_seconds");
  }
  obs_handles_->retries = metrics_->counter("comm.retries");
  obs_handles_->retransmitted_bytes =
      metrics_->counter("comm.retransmitted_bytes");
  obs_handles_->watchdog_timeouts = metrics_->counter("comm.watchdog_timeouts");
  obs_handles_->rendezvous_broken = metrics_->counter("comm.rendezvous_broken");
  obs_handles_->straggler_seconds =
      metrics_->histogram("comm.straggler_seconds");
  obs_handles_->op_sim_seconds = metrics_->histogram("comm.op_sim_seconds");
}

void Cluster::MarkDead(int rank) {
  std::lock_guard<std::mutex> lock(dead_mu_);
  dead_flags_[rank] = 1;
}

std::vector<int> Cluster::dead_ranks() const {
  std::lock_guard<std::mutex> lock(dead_mu_);
  std::vector<int> dead;
  for (int r = 0; r < num_workers_; ++r) {
    if (dead_flags_[r]) dead.push_back(r);
  }
  return dead;
}

std::vector<std::exception_ptr> Cluster::RunInternal(
    const std::function<void(WorkerContext&)>& fn) {
  std::vector<std::exception_ptr> errors(num_workers_);
  if (num_workers_ == 1) {
    try {
      ScopedLogRank log_rank(0);
      fn(*contexts_[0]);
    } catch (...) {
      errors[0] = std::current_exception();
    }
    return errors;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_workers_);
  for (int r = 0; r < num_workers_; ++r) {
    threads.emplace_back([this, &fn, r, &errors] {
      ScopedLogRank log_rank(r);
      try {
        fn(*contexts_[r]);
      } catch (...) {
        errors[r] = std::current_exception();
        // A worker that unwinds is gone for good: break the rendezvous group
        // so peers blocked on it fail fast instead of hitting the watchdog.
        barrier_.Break();
      }
    });
  }
  for (auto& t : threads) t.join();
  return errors;
}

void Cluster::Run(const std::function<void(WorkerContext&)>& fn) {
  std::vector<std::exception_ptr> errors = RunInternal(fn);
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<Status> Cluster::TryRun(
    const std::function<void(WorkerContext&)>& fn) {
  std::vector<std::exception_ptr> errors = RunInternal(fn);
  std::vector<Status> statuses(num_workers_);
  for (int r = 0; r < num_workers_; ++r) {
    if (!errors[r]) continue;
    try {
      std::rethrow_exception(errors[r]);
    } catch (const ClusterAbort& abort) {
      statuses[r] = abort.status();
    } catch (const std::exception& e) {
      statuses[r] = Status::Internal(e.what());
    } catch (...) {
      statuses[r] = Status::Internal("unknown exception in worker thread");
    }
  }
  return statuses;
}

const CommStats& Cluster::worker_stats(int rank) const {
  return contexts_[rank]->stats();
}

CommStats Cluster::TotalStats() const {
  CommStats total;
  for (const auto& ctx : contexts_) total += ctx->stats();
  return total;
}

double Cluster::MaxSimSeconds() const {
  double max_s = 0.0;
  for (const auto& ctx : contexts_) {
    max_s = std::max(max_s, ctx->stats().sim_seconds);
  }
  return max_s;
}

void Cluster::ResetStats() {
  for (auto& ctx : contexts_) ctx->stats_ = CommStats{};
}

int WorkerContext::world_size() const { return cluster_->num_workers_; }

void WorkerContext::Charge(CollectiveOp op, uint64_t sent, uint64_t received) {
  stats_.bytes_sent += sent;
  stats_.bytes_received += received;
  stats_.num_ops += 1;
  stats_.sim_seconds += cluster_->model_.OpSeconds(sent, received);
  if constexpr (obs::kObsEnabled) {
    if (obs_handles_ != nullptr) {
      const int i = static_cast<int>(op);
      obs_handles_->op_count[i]->Increment();
      obs_handles_->op_bytes_sent[i]->Add(sent);
      obs_handles_->op_bytes_received[i]->Add(received);
    }
  }
}

void WorkerContext::RecordCodec(CollectiveOp op, uint64_t raw_sent,
                                uint64_t raw_received, uint64_t wire_sent,
                                uint64_t wire_received,
                                const CodecStats& cstats) {
  stats_.codec_raw_bytes += raw_sent + raw_received;
  stats_.codec_wire_bytes += wire_sent + wire_received;
  if constexpr (obs::kObsEnabled) {
    if (obs_handles_ != nullptr) {
      obs_handles_->EnsureCodecHandles(metrics_);
      const int i = static_cast<int>(op);
      obs_handles_->codec_raw[i]->Add(raw_sent + raw_received);
      obs_handles_->codec_wire[i]->Add(wire_sent + wire_received);
      obs_handles_->codec_dense_blocks->Add(cstats.dense_blocks);
      obs_handles_->codec_sparse_blocks->Add(cstats.sparse_blocks);
      obs_handles_->codec_quantized_blocks->Add(cstats.quantized_blocks);
    }
  }
}

void WorkerContext::DebugCheckCodecSymmetry(uint64_t sent, uint64_t received) {
#ifdef NDEBUG
  (void)sent;
  (void)received;
#else
  const int w = world_size();
  cluster_->instrument_slots_[rank_] =
      static_cast<double>(sent) - static_cast<double>(received);
  // Broken rendezvous group: the surrounding collective is about to fail
  // anyway, so skip the check instead of reading torn slots.
  if (!InstrumentRendezvous()) return;
  double sum = 0.0;
  for (int r = 0; r < w; ++r) sum += cluster_->instrument_slots_[r];
  VERO_CHECK_EQ(sum, 0.0)
      << "codec byte accounting asymmetric: cluster-wide sent != received";
  InstrumentRendezvous();
#endif
}

Status WorkerContext::Die(Status status) {
  dead_ = true;
  cluster_->MarkDead(rank_);
  cluster_->barrier_.Break();
  return status;
}

Status WorkerContext::FailWorker(Status status) { return Die(std::move(status)); }

PoisonDecision WorkerContext::ConsultComputeFault(ComputePoint point) {
  if (dead_ || cluster_->injector_ == nullptr) return PoisonDecision{};
  return cluster_->injector_->OnCompute(rank_, point, fault_phase_);
}

namespace {

/// xorshift64: deterministic element choice for silent corruption.
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

/// Where a fired kSilentCorrupt decision lands among received buffers of
/// the given (nonzero) byte sizes: the buffer's index and the offset of the
/// byte whose top bit flips. The byte is the high byte of a word: for
/// payloads of packed little-endian doubles that is a sign bit, giving a
/// deterministic large-magnitude change that end-to-end checksums must
/// catch.
std::pair<size_t, size_t> PickCorruptByte(const FaultDecision& decision,
                                          std::span<const size_t> sizes) {
  uint64_t state =
      decision.corrupt_seed ? decision.corrupt_seed : 0x9e3779b97f4a7c15ull;
  const size_t which = NextRand(&state) % sizes.size();
  const size_t size = sizes[which];
  const size_t offset = size >= 8 ? (NextRand(&state) % (size / 8)) * 8 + 7
                                  : NextRand(&state) % size;
  return {which, offset};
}

}  // namespace

void WorkerContext::MaybeSilentCorrupt(const FaultDecision& decision,
                                       std::span<double* const> parts,
                                       size_t part_len) {
  const size_t n = parts.size() * part_len;
  if (!decision.silent_corrupt || n == 0) return;
  uint64_t state =
      decision.corrupt_seed ? decision.corrupt_seed : 0x9e3779b97f4a7c15ull;
  const size_t idx = NextRand(&state) % n;
  double* const target = parts[idx / part_len] + idx % part_len;
  // Flip the second-highest exponent bit: a large but finite perturbation
  // for any normal-range value (never fabricates NaN/Inf), so only content
  // checks — not finiteness scans — can catch it.
  uint64_t bits;
  std::memcpy(&bits, target, sizeof(bits));
  bits ^= 1ull << 61;
  std::memcpy(target, &bits, sizeof(bits));
}

void WorkerContext::MaybeSilentCorrupt(
    const FaultDecision& decision,
    const std::vector<std::vector<uint8_t>*>& received) {
  if (!decision.silent_corrupt) return;
  std::vector<std::vector<uint8_t>*> candidates;
  std::vector<size_t> sizes;
  for (auto* buf : received) {
    if (buf != nullptr && !buf->empty()) {
      candidates.push_back(buf);
      sizes.push_back(buf->size());
    }
  }
  if (candidates.empty()) return;
  const auto [which, offset] = PickCorruptByte(decision, sizes);
  (*candidates[which])[offset] ^= 0x80;
}

bool WorkerContext::AuditExchange(const std::vector<uint64_t>& mine,
                                  std::vector<std::vector<uint64_t>>* all) {
  const int w = world_size();
  all->assign(w, {});
  if (w == 1) {
    (*all)[0] = mine;
    return true;
  }
  cluster_->ptrs_[rank_] = &mine;
  if (!InstrumentRendezvous()) return false;
  for (int r = 0; r < w; ++r) {
    const auto* src =
        static_cast<const std::vector<uint64_t>*>(cluster_->ptrs_[r]);
    (*all)[r] = *src;
  }
  InstrumentRendezvous();
  return true;
}

Status WorkerContext::Prepare(CollectiveOp op, FaultDecision* decision) {
  if (dead_) {
    return Status::Unavailable("worker " + std::to_string(rank_) +
                               " has failed");
  }
  if constexpr (obs::kObsEnabled) {
    // Open the collective's span: ApplyFaults (the tail of every collective)
    // closes it. Reads only; the accounting below is untouched.
    op_sim_begin_ = stats_.sim_seconds;
    op_bytes_begin_ = stats_.bytes_sent;
    if (trace_ != nullptr) op_wall_begin_us_ = trace_->NowUs();
  }
  if (cluster_->injector_ != nullptr) {
    *decision = cluster_->injector_->OnCollective(rank_, op, fault_phase_);
    if (decision->crash) {
      return Die(Status::Unavailable(
          "worker " + std::to_string(rank_) + " crashed (injected) at " +
          std::string(CollectiveOpToString(op))));
    }
  }
  return Status::OK();
}

Status WorkerContext::Rendezvous(bool* serial) {
  if (serial != nullptr) *serial = false;
  switch (cluster_->barrier_.ArriveAndWaitFor(
      cluster_->collective_timeout_seconds_)) {
    case BarrierWait::kSerial:
      if (serial != nullptr) *serial = true;
      return Status::OK();
    case BarrierWait::kFollower:
      return Status::OK();
    case BarrierWait::kBroken:
      if (obs_handles_ != nullptr) obs_handles_->rendezvous_broken->Increment();
      return Status::Unavailable("worker " + std::to_string(rank_) +
                                 ": rendezvous group broken by a failed peer");
    case BarrierWait::kTimeout:
      if (obs_handles_ != nullptr) obs_handles_->watchdog_timeouts->Increment();
      return Status::DeadlineExceeded(
          "worker " + std::to_string(rank_) +
          ": collective watchdog expired waiting for peers");
  }
  return Status::Internal("unreachable");
}

bool WorkerContext::InstrumentRendezvous() {
  const BarrierWait result = cluster_->barrier_.ArriveAndWaitFor(
      cluster_->collective_timeout_seconds_);
  return result == BarrierWait::kSerial || result == BarrierWait::kFollower;
}

Status WorkerContext::ApplyFaults(CollectiveOp op,
                                  const FaultDecision& decision, uint64_t sent,
                                  uint64_t received) {
  if (decision.delay_seconds > 0.0) {
    // Straggler: only this worker loses time; the cluster-level critical
    // path (MaxSimSeconds / InstrumentMax of per-round costs) propagates the
    // stall to the round as a whole, exactly like a real slow link.
    stats_.sim_seconds += decision.delay_seconds;
    stats_.fault_delay_seconds += decision.delay_seconds;
    if (obs_handles_ != nullptr) {
      obs_handles_->straggler_seconds->Observe(decision.delay_seconds);
    }
  }
  Status status = Status::OK();
  if (decision.failed_attempts > 0) {
    const RetryPolicy& retry = cluster_->injector_->retry_policy();
    const int attempts = std::min(decision.failed_attempts,
                                  retry.max_attempts);
    double backoff = retry.backoff_seconds;
    for (int i = 0; i < attempts; ++i) {
      // A CRC/length-detected bad transfer costs a full retransmission of
      // the op's volume plus the backoff before the retry.
      stats_.bytes_sent += sent;
      stats_.bytes_received += received;
      stats_.retransmitted_bytes += sent > received ? sent : received;
      stats_.num_retries += 1;
      stats_.sim_seconds += backoff + cluster_->model_.OpSeconds(sent,
                                                                received);
      backoff *= retry.backoff_multiplier;
    }
    if (obs_handles_ != nullptr && attempts > 0) {
      const int i = static_cast<int>(op);
      const uint64_t n = static_cast<uint64_t>(attempts);
      obs_handles_->retries->Add(n);
      obs_handles_->retransmitted_bytes->Add(
          n * (sent > received ? sent : received));
      // Mirror the recharged volume into the per-op byte counters so the
      // registry's per-op sums keep adding up to stats().bytes_sent /
      // bytes_received exactly.
      obs_handles_->op_bytes_sent[i]->Add(n * sent);
      obs_handles_->op_bytes_received[i]->Add(n * received);
    }
    if (decision.failed_attempts > retry.max_attempts) {
      status = Die(Status::Unavailable(
          "worker " + std::to_string(rank_) + ": transfer still corrupt after " +
          std::to_string(retry.max_attempts) + " attempts"));
    }
  }
  // Every collective — including one that just killed this worker — ends
  // here, so this is the single place its span gets closed. It is also the
  // single place op_seq_ advances: the SPMD contract keeps the counter in
  // lockstep across ranks, so equal (incarnation, op_id) identifies the
  // same logical collective cluster-wide.
  if constexpr (obs::kObsEnabled) {
    if (obs_handles_ != nullptr) {
      const double op_seconds = stats_.sim_seconds - op_sim_begin_;
      obs_handles_->op_sim_seconds->Observe(op_seconds);
      obs_handles_->op_latency[static_cast<int>(op)]->Observe(op_seconds);
    }
    if (trace_ != nullptr) {
      obs::TraceEvent ev;
      ev.name = CollectiveOpToString(op);
      ev.category = "collective";
      ev.tree = trace_->tree();
      ev.layer = trace_->layer();
      ev.wall_begin_us = op_wall_begin_us_;
      ev.wall_end_us = trace_->NowUs();
      ev.sim_begin_s = op_sim_begin_;
      ev.sim_end_s = stats_.sim_seconds;
      ev.bytes = stats_.bytes_sent - op_bytes_begin_;
      ev.op_id = op_seq_;
      trace_->Record(ev);
    }
    ++op_seq_;
  }
  return status;
}

Status WorkerContext::Barrier() {
  FaultDecision decision;
  VERO_RETURN_IF_ERROR(Prepare(CollectiveOp::kBarrier, &decision));
  if (world_size() > 1) VERO_RETURN_IF_ERROR(Rendezvous());
  return ApplyFaults(CollectiveOp::kBarrier, decision, 0, 0);
}

double WorkerContext::InstrumentMax(double value) {
  const int w = world_size();
  if (w == 1) return value;
  cluster_->instrument_slots_[rank_] = value;
  if (!InstrumentRendezvous()) return value;
  double max_v = cluster_->instrument_slots_[0];
  for (int r = 1; r < w; ++r) {
    max_v = std::max(max_v, cluster_->instrument_slots_[r]);
  }
  InstrumentRendezvous();
  return max_v;
}

double WorkerContext::InstrumentSum(double value) {
  const int w = world_size();
  if (w == 1) return value;
  cluster_->instrument_slots_[rank_] = value;
  if (!InstrumentRendezvous()) return value;
  double sum = 0.0;
  for (int r = 0; r < w; ++r) sum += cluster_->instrument_slots_[r];
  InstrumentRendezvous();
  return sum;
}

size_t WorkerContext::SliceBegin(size_t n, int rank) const {
  const size_t w = cluster_->num_workers_;
  return n * rank / w;
}

size_t WorkerContext::SliceEnd(size_t n, int rank) const {
  const size_t w = cluster_->num_workers_;
  return n * (rank + 1) / w;
}

namespace {

/// Every layered op fills a caller's outcome, so strict callers can merge
/// over `contributed` exactly like mitigated ones.
void ResetOutcome(MitigationOutcome* outcome, int w) {
  if (outcome == nullptr) return;
  *outcome = MitigationOutcome{};
  outcome->contributed.assign(w, 1);
}

/// Sums out[j] = 0.0 + srcs[0][j] + ... + srcs[W-1][j] for j in
/// [begin, end), skipping null sources, in blocks that are read from every
/// source before they are written, so `out` may alias a source. The one
/// rank-order accumulation loop of the summing collectives: lossless
/// codecs give bit-identical sums because every element adds the
/// contributors in this order.
void SumInRankOrder(std::span<const double* const> srcs, size_t begin,
                    size_t end, double* out) {
  constexpr size_t kBlock = 256;
  double acc[kBlock];
  for (size_t b = begin; b < end; b += kBlock) {
    const size_t len = std::min(kBlock, end - b);
    std::fill_n(acc, len, 0.0);
    for (const double* src : srcs) {
      if (src == nullptr) continue;
      for (size_t i = 0; i < len; ++i) acc[i] += src[b + i];
    }
    std::copy_n(acc, len, out + b);
  }
}

/// Calls fn(p, lo, hi) for each piece of elements [begin, end) of a
/// concatenation of parts that are `part_len` long: offsets [lo, hi) of
/// part p, in order.
template <typename Fn>
void ForEachPartSegment(size_t begin, size_t end, size_t part_len, Fn&& fn) {
  for (size_t i = begin; i < end;) {
    const size_t p = i / part_len, lo = i % part_len;
    const size_t hi = std::min(part_len, lo + (end - i));
    fn(p, lo, hi);
    i += hi - lo;
  }
}

}  // namespace

// The three layered collectives share one spine: Prepare -> publish ->
// PlanRendezvous -> transfer -> FinishMitigated (Charge, then ApplyFaults).
// The codec layer (AllReduceSum, AllToAllSum) encodes before publishing,
// decodes on arrival and calls RecordCodec; the mitigation layer publishes
// a delay slot, plans who is deferred or speculated (PlanMitigation) in one
// extra plan rendezvous inside PlanRendezvous, skips the payloads
// call.dropped() names and finishes through FinishMitigated. With both
// layers off no frame is built, no plan state is read, and the rendezvous
// count is the strict one.

Status WorkerContext::AllReduceSum(std::span<double> data,
                                   const CollectiveOptions& opts,
                                   MitigationOutcome* outcome) {
  double* const part = data.data();
  return AllReduceSum({&part, 1}, data.size(), opts, outcome);
}

Status WorkerContext::AllReduceSum(std::span<double* const> parts,
                                   size_t part_len,
                                   const CollectiveOptions& opts,
                                   MitigationOutcome* outcome) {
  const int w = world_size();
  ResetOutcome(outcome, w);
  FaultDecision decision;
  VERO_RETURN_IF_ERROR(Prepare(CollectiveOp::kAllReduceSum, &decision));
  if (w == 1) return ApplyFaults(CollectiveOp::kAllReduceSum, decision, 0, 0);
  const bool coded = opts.codec.enabled();
  const size_t n = parts.size() * part_len;
  CodecStats cstats;
  // The parts this rank publishes. Peers only read slice r of rank r's
  // parts, and only rank r writes it (its reduced slice), so the ranks
  // reduce their slices concurrently without a shared scratch buffer.
  std::span<double* const> published = parts;
  if (coded) {
    // Encode the packed parts, so the frame is byte for byte the one-part
    // call's, then publish the decoded frame cut into the same parts: peers
    // would decode the same bytes, so a lossy codec's reconstruction is
    // what everyone sums.
    sum_.staging.resize(n);
    for (size_t p = 0; p < parts.size(); ++p) {
      std::copy_n(parts[p], part_len, sum_.staging.data() + p * part_len);
    }
    if (sum_.frames.empty()) sum_.frames.resize(1);
    CodecEncode(sum_.staging, opts.codec, &sum_.frames[0], &cstats);
    VERO_CHECK_OK(CodecDecode(sum_.frames[0], &sum_.staging));
    VERO_CHECK_EQ(sum_.staging.size(), n);
    sum_.staging_parts.resize(parts.size());
    for (size_t p = 0; p < parts.size(); ++p) {
      sum_.staging_parts[p] = sum_.staging.data() + p * part_len;
    }
    published = sum_.staging_parts;
    cluster_->ptrs_[rank_] = &sum_.frames[0];
  }
  cluster_->mutable_ptrs_[rank_] = &published;
  cluster_->sizes_[rank_] = n;
  MitigatedCall call;
  VERO_RETURN_IF_ERROR(
      PlanRendezvous(opts.mitigation, decision.delay_seconds, &call, outcome));
  const auto parts_of = [&](int r) {
    return *static_cast<const std::span<double* const>*>(
        cluster_->mutable_ptrs_[r]);
  };
  for (int r = 0; r < w; ++r) {
    VERO_CHECK_EQ(cluster_->sizes_[r], n);
    VERO_CHECK_EQ(parts_of(r).size(), parts.size());
  }
  // The dropped contribution, measured before the reduction overwrites it.
  double deferred_mass = 0.0;
  if (call.my == RankClass::kDeferred) {
    for (const double* part : parts) {
      for (size_t j = 0; j < part_len; ++j) deferred_mass += part[j];
    }
  }

  // Reduce-scatter: this rank sums its slice over the contributors in rank
  // order 0..W-1 starting from 0.0 — the per-element order of a single
  // serial reducer, so lossless codecs give bit-identical sums — and writes
  // it back into its own published parts.
  sum_.sources.resize(w);
  ForEachPartSegment(
      SliceBegin(n, rank_), SliceEnd(n, rank_), part_len,
      [&](size_t p, size_t lo, size_t hi) {
        for (int r = 0; r < w; ++r) {
          sum_.sources[r] = call.dropped(r) ? nullptr : parts_of(r)[p];
        }
        SumInRankOrder(sum_.sources, lo, hi, published[p]);
      });
  VERO_RETURN_IF_ERROR(Rendezvous());

  // All-gather: copy every other owner's reduced slice out of its parts
  // (and, under the codec, this rank's own slice out of its decoded frame).
  for (int r = 0; r < w; ++r) {
    if (r == rank_ && !coded) continue;
    const std::span<double* const> theirs = parts_of(r);
    ForEachPartSegment(SliceBegin(n, r), SliceEnd(n, r), part_len,
                       [&](size_t p, size_t lo, size_t hi) {
                         std::copy(theirs[p] + lo, theirs[p] + hi,
                                   parts[p] + lo);
                       });
  }
  // Every published frame counts toward the ring volume — a deferred rank's
  // frame still crossed the wire, it is just dropped on arrival. Frames were
  // published before the first rendezvous, so this read is race-free and
  // identical on every rank.
  uint64_t total_encoded = 0;
  if (coded) {
    for (int r = 0; r < w; ++r) {
      total_encoded +=
          static_cast<const std::vector<uint8_t>*>(cluster_->ptrs_[r])->size();
    }
  }
  VERO_RETURN_IF_ERROR(Rendezvous());
  // Silent corruption lands in this rank's copy of the aggregate, after the
  // transport (and its CRC/retry machinery) delivered it clean — and after
  // the last rendezvous, so no peer is still copying this rank's slice.
  MaybeSilentCorrupt(decision, parts, part_len);

  // Ring all-reduce volume: each worker sends (and receives) the buffer
  // twice, minus its own 1/W share, in 2*(W-1) pipelined steps. Under the
  // codec the per-rank buffer is the mean encoded frame (the ring moves
  // everyone's data through everyone, so the mean is what each link
  // carries); equal frames reduce exactly to the dense accounting. A late
  // payload is charged like an on-time one.
  const uint64_t raw_wire = 2 * (n * sizeof(double)) * (w - 1) / w;
  const uint64_t wire =
      coded ? 2 * (total_encoded / w) * (w - 1) / w : raw_wire;
  if (coded) {
    RecordCodec(CollectiveOp::kAllReduceSum, raw_wire, raw_wire, wire, wire,
                cstats);
  }
  const uint64_t extra = call.serving_for >= 0 ? wire : 0;
  return FinishMitigated(CollectiveOp::kAllReduceSum, opts.mitigation,
                         decision, call, wire, wire, extra, extra,
                         deferred_mass);
}

Status WorkerContext::AllGather(const std::vector<uint8_t>& mine,
                                std::vector<std::vector<uint8_t>>* all,
                                const MitigationOptions& mitigation,
                                MitigationOutcome* outcome) {
  const int w = world_size();
  ResetOutcome(outcome, w);
  FaultDecision decision;
  VERO_RETURN_IF_ERROR(Prepare(CollectiveOp::kAllGather, &decision));
  all->assign(w, {});
  if (w == 1) {
    (*all)[0] = mine;
    return ApplyFaults(CollectiveOp::kAllGather, decision, 0, 0);
  }
  cluster_->ptrs_[rank_] = &mine;
  MitigatedCall call;
  VERO_RETURN_IF_ERROR(
      PlanRendezvous(mitigation, decision.delay_seconds, &call, outcome));
  const auto payload_of = [&](int r) -> const std::vector<uint8_t>& {
    return *static_cast<const std::vector<uint8_t>*>(cluster_->ptrs_[r]);
  };
  uint64_t received = 0;
  std::vector<std::vector<uint8_t>*> remote;
  for (int r = 0; r < w; ++r) {
    if (r != rank_) received += payload_of(r).size();
    if (call.dropped(r)) continue;  // dropped on arrival, on every rank
    (*all)[r] = payload_of(r);
    if (r != rank_) remote.push_back(&(*all)[r]);
  }
  MaybeSilentCorrupt(decision, remote);
  const uint64_t sent = mine.size() * (w - 1);
  const uint64_t extra_sent =
      call.serving_for >= 0 ? payload_of(call.serving_for).size() * (w - 1)
                            : 0;
  const double deferred_mass =
      call.my == RankClass::kDeferred ? static_cast<double>(mine.size()) : 0.0;
  VERO_RETURN_IF_ERROR(Rendezvous());
  return FinishMitigated(CollectiveOp::kAllGather, mitigation, decision, call,
                         sent, received, extra_sent, 0, deferred_mass);
}

Status WorkerContext::Broadcast(std::vector<uint8_t>* data, int root) {
  FaultDecision decision;
  VERO_RETURN_IF_ERROR(Prepare(CollectiveOp::kBroadcast, &decision));
  const int w = world_size();
  if (w == 1) return ApplyFaults(CollectiveOp::kBroadcast, decision, 0, 0);
  if (rank_ == root) cluster_->ptrs_[root] = data;
  VERO_RETURN_IF_ERROR(Rendezvous());
  const auto* src =
      static_cast<const std::vector<uint8_t>*>(cluster_->ptrs_[root]);
  uint64_t sent = 0, received = 0;
  if (rank_ == root) {
    sent = src->size() * (w - 1);
  } else {
    *data = *src;
    received = src->size();
    MaybeSilentCorrupt(decision, {data});
  }
  VERO_RETURN_IF_ERROR(Rendezvous());
  Charge(CollectiveOp::kBroadcast, sent, received);
  return ApplyFaults(CollectiveOp::kBroadcast, decision, sent, received);
}

Status WorkerContext::Gather(const std::vector<uint8_t>& mine, int root,
                             std::vector<std::vector<uint8_t>>* all) {
  FaultDecision decision;
  VERO_RETURN_IF_ERROR(Prepare(CollectiveOp::kGather, &decision));
  const int w = world_size();
  all->clear();
  if (w == 1) {
    all->push_back(mine);
    return ApplyFaults(CollectiveOp::kGather, decision, 0, 0);
  }
  cluster_->ptrs_[rank_] = &mine;
  VERO_RETURN_IF_ERROR(Rendezvous());
  uint64_t sent = 0, received = 0;
  if (rank_ == root) {
    all->resize(w);
    std::vector<std::vector<uint8_t>*> remote;
    for (int r = 0; r < w; ++r) {
      const auto* src =
          static_cast<const std::vector<uint8_t>*>(cluster_->ptrs_[r]);
      (*all)[r] = *src;
      if (r != rank_) {
        received += src->size();
        remote.push_back(&(*all)[r]);
      }
    }
    MaybeSilentCorrupt(decision, remote);
  } else {
    sent = mine.size();
  }
  VERO_RETURN_IF_ERROR(Rendezvous());
  Charge(CollectiveOp::kGather, sent, received);
  return ApplyFaults(CollectiveOp::kGather, decision, sent, received);
}

Status WorkerContext::AllToAll(std::vector<std::vector<uint8_t>> to_each,
                               std::vector<std::vector<uint8_t>>* from_each) {
  FaultDecision decision;
  VERO_RETURN_IF_ERROR(Prepare(CollectiveOp::kAllToAll, &decision));
  const int w = world_size();
  VERO_CHECK_EQ(static_cast<int>(to_each.size()), w);
  from_each->assign(w, {});
  if (w == 1) {
    (*from_each)[0] = std::move(to_each[0]);
    return ApplyFaults(CollectiveOp::kAllToAll, decision, 0, 0);
  }
  cluster_->ptrs_[rank_] = &to_each;
  VERO_RETURN_IF_ERROR(Rendezvous());
  uint64_t sent = 0, received = 0;
  std::vector<std::vector<uint8_t>*> remote;
  for (int r = 0; r < w; ++r) {
    (*from_each)[r] = (*static_cast<const std::vector<std::vector<uint8_t>>*>(
        cluster_->ptrs_[r]))[rank_];
    if (r != rank_) {
      sent += to_each[r].size();
      received += (*from_each)[r].size();
      remote.push_back(&(*from_each)[r]);
    }
  }
  MaybeSilentCorrupt(decision, remote);
  VERO_RETURN_IF_ERROR(Rendezvous());
  Charge(CollectiveOp::kAllToAll, sent, received);
  return ApplyFaults(CollectiveOp::kAllToAll, decision, sent, received);
}

Status WorkerContext::AllToAllSum(std::span<const double* const> mine,
                                  size_t units, size_t unit_len,
                                  std::span<double* const> out,
                                  const CollectiveOptions& opts,
                                  MitigationOutcome* outcome,
                                  const SliceVisitor* visit) {
  const int w = world_size();
  ResetOutcome(outcome, w);
  FaultDecision decision;
  VERO_RETURN_IF_ERROR(Prepare(CollectiveOp::kAllToAll, &decision));
  const size_t nodes = mine.size();
  VERO_CHECK_EQ(out.size(), nodes);
  // Doubles of one node's share bound for rank g, and where they start.
  const auto share_begin = [&](int g) {
    return SliceBegin(units, g) * unit_len;
  };
  const auto share_len = [&](int g) {
    return (SliceEnd(units, g) - SliceBegin(units, g)) * unit_len;
  };
  const size_t my_begin = share_begin(rank_);
  const size_t my_len = share_len(rank_);
  if (w == 1) {
    for (size_t i = 0; i < nodes; ++i) {
      SumInRankOrder({&mine[i], 1}, 0, my_len, out[i]);
    }
    return ApplyFaults(CollectiveOp::kAllToAll, decision, 0, 0);
  }
  const bool coded = opts.codec.enabled();
  CodecStats cstats;
  if (coded) {
    // One frame per destination, self included, over the packed share:
    // byte for byte the frames the AllToAll of the packed slices sends.
    sum_.frames.resize(w);
    for (int g = 0; g < w; ++g) {
      const size_t b = share_begin(g), len = share_len(g);
      sum_.staging.resize(nodes * len);
      for (size_t i = 0; i < nodes; ++i) {
        std::copy_n(mine[i] + b, len, sum_.staging.data() + i * len);
      }
      CodecEncode(sum_.staging, opts.codec, &sum_.frames[g], &cstats);
    }
    cluster_->ptrs_[rank_] = &sum_.frames;
  } else {
    cluster_->ptrs_[rank_] = &mine;
  }
  cluster_->sizes_[rank_] = nodes;
  MitigatedCall call;
  VERO_RETURN_IF_ERROR(
      PlanRendezvous(opts.mitigation, decision.delay_seconds, &call, outcome));
  for (int r = 0; r < w; ++r) VERO_CHECK_EQ(cluster_->sizes_[r], nodes);
  using Frames = std::vector<std::vector<uint8_t>>;
  const auto frames_of = [&](int r) -> const Frames& {
    return *static_cast<const Frames*>(cluster_->ptrs_[r]);
  };

  // sources[i * W + r]: contributor r's share of node i, read in place from
  // its buffer or from its decoded frame. A deferred rank's shares are
  // dropped everywhere, self-share included, so every rank skips the same
  // contributors.
  const uint64_t share_bytes = nodes * my_len * sizeof(double);
  uint64_t received = 0;
  sum_.sources.assign(nodes * w, nullptr);
  sum_.copies.resize(w);
  for (int r = 0; r < w; ++r) {
    if (r != rank_) {
      received += coded ? frames_of(r)[rank_].size() : share_bytes;
    }
    if (call.dropped(r)) continue;
    if (coded) {
      std::vector<double>& copy = sum_.copies[r];
      VERO_CHECK_OK(CodecDecode(frames_of(r)[rank_], &copy));
      VERO_CHECK_EQ(copy.size(), nodes * my_len);
      for (size_t i = 0; i < nodes; ++i) {
        sum_.sources[i * w + r] = copy.data() + i * my_len;
      }
    } else {
      const auto& theirs =
          *static_cast<const std::span<const double* const>*>(
              cluster_->ptrs_[r]);
      for (size_t i = 0; i < nodes; ++i) {
        sum_.sources[i * w + r] = theirs[i] + my_begin;
      }
    }
  }
  // Silent corruption flips the byte MaybeSilentCorrupt would flip in the
  // received byte buffers, in a copy of the chosen contributor's share.
  if (decision.silent_corrupt && share_bytes > 0) {
    std::vector<int> remote;
    for (int r = 0; r < w; ++r) {
      if (r != rank_ && !call.dropped(r)) remote.push_back(r);
    }
    if (!remote.empty()) {
      const std::vector<size_t> sizes(remote.size(), share_bytes);
      const auto [which, offset] = PickCorruptByte(decision, sizes);
      const int r = remote[which];
      std::vector<double>& copy = sum_.copies[r];
      if (!coded) {
        copy.resize(nodes * my_len);
        for (size_t i = 0; i < nodes; ++i) {
          std::copy_n(sum_.sources[i * w + r], my_len,
                      copy.data() + i * my_len);
          sum_.sources[i * w + r] = copy.data() + i * my_len;
        }
      }
      reinterpret_cast<uint8_t*>(copy.data())[offset] ^= 0x80;
    }
  }
  if (visit != nullptr) {
    sum_.parts.resize(nodes);
    for (int g = 0; g < w; ++g) {
      if (g == rank_) continue;
      const size_t len = share_len(g);
      if (coded) {
        // What rank g reconstructs, lossy codecs included.
        VERO_CHECK_OK(CodecDecode(sum_.frames[g], &sum_.staging));
        for (size_t i = 0; i < nodes; ++i) {
          sum_.parts[i] = sum_.staging.data() + i * len;
        }
      } else {
        for (size_t i = 0; i < nodes; ++i) {
          sum_.parts[i] = mine[i] + share_begin(g);
        }
      }
      (*visit)(/*sent=*/true, g, sum_.parts, len);
    }
    for (int r = 0; r < w; ++r) {
      if (r == rank_ || call.dropped(r)) continue;
      for (size_t i = 0; i < nodes; ++i) {
        sum_.parts[i] = sum_.sources[i * w + r];
      }
      (*visit)(/*sent=*/false, r, sum_.parts, my_len);
    }
  }
  for (size_t i = 0; i < nodes; ++i) {
    SumInRankOrder({sum_.sources.data() + i * w, static_cast<size_t>(w)}, 0,
                   my_len, out[i]);
  }

  uint64_t sent = 0, raw_sent = 0;
  for (int g = 0; g < w; ++g) {
    if (g == rank_) continue;
    const uint64_t raw = nodes * share_len(g) * sizeof(double);
    raw_sent += raw;
    sent += coded ? sum_.frames[g].size() : raw;
  }
  // The dropped contribution: this rank's (g, h) values, as AllReduceSum
  // records it.
  double deferred_mass = 0.0;
  if (call.my == RankClass::kDeferred) {
    for (const double* node : mine) {
      for (size_t j = 0; j < units * unit_len; ++j) deferred_mass += node[j];
    }
  }
  uint64_t extra_sent = 0;
  if (call.serving_for >= 0) {
    for (int g = 0; g < w; ++g) {
      if (g == call.serving_for) continue;
      extra_sent += coded ? frames_of(call.serving_for)[g].size()
                          : nodes * share_len(g) * sizeof(double);
    }
  }
  if (coded) DebugCheckCodecSymmetry(sent, received);
  // Peers stop reading this rank's buffers and frames here.
  VERO_RETURN_IF_ERROR(Rendezvous());
  if (coded) {
    RecordCodec(CollectiveOp::kAllToAll, raw_sent, (w - 1) * share_bytes,
                sent, received, cstats);
  }
  return FinishMitigated(CollectiveOp::kAllToAll, opts.mitigation, decision,
                         call, sent, received, extra_sent, 0, deferred_mass);
}

// ---- Straggler-mitigation layer -------------------------------------------

void Cluster::PlanMitigation(const MitigationOptions& opts) {
  ClassifyStragglers(opts, delay_slots_, stale_streaks_, &mit_class_,
                     &mit_backup_);
  for (int r = 0; r < num_workers_; ++r) {
    if (mit_class_[r] == RankClass::kDeferred) {
      ++stale_streaks_[r];
    } else {
      stale_streaks_[r] = 0;
    }
  }
}

Status WorkerContext::PlanRendezvous(const MitigationOptions& opts,
                                     double delay, MitigatedCall* call,
                                     MitigationOutcome* outcome) {
  if (!opts.enabled()) return Rendezvous();
  cluster_->delay_slots_[rank_] = delay;
  bool serial = false;
  VERO_RETURN_IF_ERROR(Rendezvous(&serial));
  if (serial) cluster_->PlanMitigation(opts);
  VERO_RETURN_IF_ERROR(Rendezvous());
  const std::vector<RankClass>& classes = cluster_->mit_class_;
  call->my = classes[rank_];
  call->classes = classes.data();
  int deferred = 0, speculated = 0;
  for (int r = 0; r < world_size(); ++r) {
    if (classes[r] == RankClass::kDeferred) ++deferred;
    if (classes[r] == RankClass::kSpeculated) ++speculated;
    if (cluster_->mit_backup_[r] == rank_) call->serving_for = r;
  }
  // The deadline only gets paid when the round actually closed without
  // someone; a forced-sync or over-budget straggler makes the round strict
  // (its full delay subsumes the deadline on the critical path).
  call->any_late = deferred > 0;
  if (outcome != nullptr) {
    outcome->self_deferred = call->my == RankClass::kDeferred;
    outcome->self_forced = call->my == RankClass::kForced;
    outcome->self_speculated = call->my == RankClass::kSpeculated;
    outcome->deferred_ranks = deferred;
    outcome->speculated_ranks = speculated;
    for (int r = 0; r < world_size(); ++r) {
      outcome->contributed[r] = call->dropped(r) ? 0 : 1;
    }
  }
  return Status::OK();
}

Status WorkerContext::FinishMitigated(CollectiveOp op,
                                      const MitigationOptions& opts,
                                      FaultDecision decision,
                                      const MitigatedCall& call,
                                      uint64_t sent, uint64_t received,
                                      uint64_t extra_sent,
                                      uint64_t extra_received,
                                      double deferred_mass) {
  Charge(op, sent, received);
  if (!opts.enabled()) return ApplyFaults(op, decision, sent, received);
  ObsHandles* oh = nullptr;
  if constexpr (obs::kObsEnabled) {
    if (obs_handles_ != nullptr) {
      obs_handles_->EnsureMitigationHandles(metrics_);
      oh = obs_handles_.get();
    }
  }
  switch (call.my) {
    case RankClass::kDeferred:
      // This rank's payload was dropped from the aggregate; its delay moves
      // off the critical path (the rank catches up during the next layer's
      // local compute, where its mass re-enters the rebuilt histograms).
      stats_.absorbed_delay_seconds += decision.delay_seconds;
      stats_.deferred_contributions += 1;
      if (oh != nullptr) {
        oh->stale_deferred->Increment();
        oh->stale_deferred_seconds->Observe(decision.delay_seconds);
        oh->stale_deferred_mass->Observe(deferred_mass);
      }
      decision.delay_seconds = 0.0;
      break;
    case RankClass::kSpeculated:
      // A backup re-served this rank's share; the delay is absorbed and the
      // result stays exact.
      stats_.absorbed_delay_seconds += decision.delay_seconds;
      if (oh != nullptr) {
        oh->spec_absorbed_seconds->Observe(decision.delay_seconds);
      }
      decision.delay_seconds = 0.0;
      break;
    case RankClass::kForced:
      // Deferral streak hit the staleness bound: contribute and pay the
      // delay in full (ApplyFaults below charges it).
      if (oh != nullptr) oh->stale_forced->Increment();
      break;
    case RankClass::kOnTime:
      if (opts.mode == MitigationMode::kBoundedStaleness && call.any_late) {
        // On-time ranks wait out the deadline before the round closes.
        stats_.sim_seconds += opts.deadline_seconds;
        stats_.deadline_wait_seconds += opts.deadline_seconds;
        if (oh != nullptr) {
          oh->stale_deadline_wait->Observe(opts.deadline_seconds);
        }
      }
      break;
  }
  if (call.serving_for >= 0) {
    // Speculative backup duty: re-serve the slow rank's transfer share. The
    // duplicated volume crossed the wire, so it lands in bytes_sent /
    // bytes_received (and the per-op counters, keeping the registry's per-op
    // sums exact) and is isolated as speculative waste.
    stats_.bytes_sent += extra_sent;
    stats_.bytes_received += extra_received;
    stats_.speculative_bytes +=
        extra_sent > extra_received ? extra_sent : extra_received;
    const double spec_seconds =
        cluster_->model_.OpSeconds(extra_sent, extra_received);
    stats_.sim_seconds += spec_seconds;
    stats_.speculative_seconds += spec_seconds;
    if (oh != nullptr) {
      oh->spec_launched->Increment();
      oh->spec_wasted_bytes->Add(extra_sent > extra_received ? extra_sent
                                                             : extra_received);
      oh->spec_wasted_seconds->Observe(spec_seconds);
      const int i = static_cast<int>(op);
      oh->op_bytes_sent[i]->Add(extra_sent);
      oh->op_bytes_received[i]->Add(extra_received);
    }
  }
  return ApplyFaults(op, decision, sent, received);
}

}  // namespace vero
