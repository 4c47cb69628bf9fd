#ifndef VERO_CLUSTER_COMMUNICATOR_H_
#define VERO_CLUSTER_COMMUNICATOR_H_

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/codec.h"
#include "cluster/fault_injector.h"
#include "cluster/network_model.h"
#include "cluster/staleness.h"
#include "common/status.h"
#include "common/threading.h"

namespace vero {

namespace obs {
class MetricsShard;
class RunObserver;
class TraceBuffer;
}  // namespace obs

class Cluster;

/// Exception used to unwind an SPMD function when a collective fails.
/// Cluster::TryRun converts it back into the worker's Status; Cluster::Run
/// rethrows it on the caller thread. Thrown by the VERO_COMM_OK macro below.
class ClusterAbort : public std::exception {
 public:
  explicit ClusterAbort(Status status)
      : status_(std::move(status)), what_(status_.ToString()) {}
  const Status& status() const { return status_; }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  Status status_;
  std::string what_;
};

/// Aborts the calling SPMD function by throwing ClusterAbort when a
/// collective returns a non-OK Status. Use at call sites inside trainers
/// where there is no sensible local recovery; the status surfaces through
/// Cluster::TryRun.
#define VERO_COMM_OK(expr)                                        \
  do {                                                            \
    ::vero::Status _vero_comm_status = (expr);                    \
    if (!_vero_comm_status.ok())                                  \
      throw ::vero::ClusterAbort(std::move(_vero_comm_status));   \
  } while (0)

/// Per-call layers of the histogram collectives, AllReduceSum and
/// AllToAllSum, whose payloads are packed doubles; AllGather carries only
/// the mitigation layer and the other byte collectives neither, so a
/// serialized struct never passes through the codec. Both default to off,
/// which is the plain strict collective (bit-identical to seed, including
/// the metric name set).
///
/// - `codec`: payloads are encoded (CodecEncode) before they cross the
///   simulated wire and decoded on arrival; the network model prices the
///   encoded frames. See docs/wire_formats.md.
/// - `mitigation`: straggler handling (bounded staleness or speculative
///   re-execution). See docs/straggler_mitigation.md.
///
/// Either layer reports the SAME CollectiveOp to the fault injector,
/// metrics and traces, so one FaultPlan replays with identical occurrence
/// matching (op-id lockstep) across every combination.
struct CollectiveOptions {
  // The `= {}` lets call sites name one layer ({.mitigation = m}) without
  // tripping -Wmissing-field-initializers.
  CodecSpec codec = {};
  MitigationOptions mitigation = {};
};

/// Per-worker handle to the simulated cluster: rank, collectives, and
/// communication accounting. All collectives are SPMD — every worker of the
/// cluster must call the same operation in the same order (like MPI).
///
/// Byte accounting charges each worker the volume an efficient real
/// implementation would move (ring all-reduce, flat broadcast/gather), and
/// simulated time follows the cluster's NetworkModel; the data itself moves
/// through shared memory so results are exact.
///
/// Failure semantics: every collective returns a Status instead of
/// deadlocking. kUnavailable means a participant (possibly this worker, via
/// an injected fault) has failed and the cluster's rendezvous group is
/// permanently broken; kDeadlineExceeded means this worker's watchdog
/// expired waiting for a peer (SPMD violation or hung worker). After either,
/// all further collectives on this cluster fail fast.
class WorkerContext {
 public:
  // Out-of-line: the unique_ptr<ObsHandles> member needs the complete type.
  ~WorkerContext();

  int rank() const { return rank_; }
  int world_size() const;

  // ---- Layered collectives ------------------------------------------------
  // AllReduceSum and AllToAllSum take both layers, AllGather only
  // mitigation. `outcome`, when given, is always filled: `contributed` is
  // all-ones unless bounded-staleness mitigation deferred a rank (W=1 and
  // strict calls never defer). Mitigation: ranks whose announced delay exceeds
  // deadline_seconds (at most max_stale_ranks, never past a rank's
  // staleness_bound streak) are dropped from the result on EVERY rank while
  // their delay is absorbed off the critical path and the on-time ranks pay
  // the deadline; a deferred payload still crosses the wire and is charged.
  // Speculative mode has a backup re-serve the slow rank's share (charged
  // as waste) and keeps the result exact. Codec: raw-vs-wire volume lands
  // in CommStats codec_raw_bytes / codec_wire_bytes and the lazily created
  // comm.<Op>.raw_bytes / compressed_bytes counters.

  /// In-place element-wise sum across workers; everyone ends with the total.
  /// The one-part call of the segmented form below.
  Status AllReduceSum(std::span<double> data,
                      const CollectiveOptions& opts = {},
                      MitigationOutcome* outcome = nullptr);

  /// In-place element-wise sum of the n = parts.size() * part_len doubles
  /// of the concatenation of `parts` (each `part_len` long); every rank
  /// passes the same part count and length. Runs as the ring it is charged
  /// as: a reduce-scatter (rank r sums slice [SliceBegin(n, r),
  /// SliceEnd(n, r)) of the concatenation straight out of every
  /// contributor's parts into its own) followed by an all-gather that
  /// copies the other owners' reduced slices out of their parts. Peers read
  /// `parts` in place until the call returns, so the caller must not write
  /// or free them before then. Every element adds the contributors in rank
  /// order 0..W-1 starting from 0.0, so lossless codecs give bit-identical
  /// sums and kQuantized the same reconstructed aggregate on every rank
  /// (each rank publishes its decoded frame, cut into the same parts).
  /// Accounting: ring all-reduce, 2 * bytes * (W-1)/W sent per worker; with
  /// the codec on, bytes is the mean encoded frame of the packed parts. W=1
  /// returns the parts untouched. After a failed call the parts are
  /// unspecified (possibly partly reduced); recovery restarts from a
  /// checkpoint.
  Status AllReduceSum(std::span<double* const> parts, size_t part_len,
                      const CollectiveOptions& opts = {},
                      MitigationOutcome* outcome = nullptr);

  /// Contiguous, near-equal slice boundaries of an n-element buffer (the
  /// reduce-scatter slices of AllReduceSum and AllToAllSum).
  size_t SliceBegin(size_t n, int rank) const;
  size_t SliceEnd(size_t n, int rank) const;

  /// Sees one share of an AllToAllSum while it crosses the wire: `len`
  /// doubles at each of `parts`, in node order. `sent` shares go from this
  /// rank to `peer` (as the receiver reconstructs them, so decoded under a
  /// lossy codec); received shares come from contributor `peer` exactly as
  /// they were summed (after any silent corruption). The parts are valid
  /// only during the call.
  using SliceVisitor =
      std::function<void(bool sent, int peer,
                         std::span<const double* const> parts, size_t len)>;

  /// Feature-sliced reduce-scatter (QD2's layer exchange), summed in place
  /// out of the contributors' own buffers. `mine` holds one pointer per
  /// node to `units * unit_len` doubles; every rank passes the same node
  /// count. Rank r receives units [SliceBegin(units, r), SliceEnd(units, r))
  /// of every node from every contributor and writes their sum, in rank
  /// order 0..W-1 starting from 0.0, to out[i]. Peers read `mine` in place
  /// until the call returns, so the caller must not write or free it
  /// before then.
  ///
  /// Reported exactly as the AllToAll of the packed slices would be: same
  /// CollectiveOp (kAllToAll), bytes, rendezvous count and span, so fault
  /// plans replay op for op. A deferred contributor is skipped on every
  /// rank. With the codec on, each destination's packed slice is encoded
  /// into its own frame and every rank decodes every frame it sums, its own
  /// included. `visit`, when given, sees every share this rank sends to
  /// and sums from a peer, before the op's last rendezvous.
  Status AllToAllSum(std::span<const double* const> mine, size_t units,
                     size_t unit_len, std::span<double* const> out,
                     const CollectiveOptions& opts = {},
                     MitigationOutcome* outcome = nullptr,
                     const SliceVisitor* visit = nullptr);

  /// Every worker contributes `mine`; all receive all contributions indexed
  /// by rank. Accounting: each worker sends its buffer to W-1 peers. A
  /// deferred rank's slot stays empty on every rank.
  Status AllGather(const std::vector<uint8_t>& mine,
                   std::vector<std::vector<uint8_t>>* all,
                   const MitigationOptions& mitigation = {},
                   MitigationOutcome* outcome = nullptr);

  // ---- Plain byte collectives ---------------------------------------------

  /// Root's `data` is copied to everyone. Accounting: root sends
  /// bytes * (W-1); others receive bytes.
  Status Broadcast(std::vector<uint8_t>* data, int root);

  /// Every worker sends `mine` to root; root receives all (indexed by rank),
  /// others get an empty vector.
  Status Gather(const std::vector<uint8_t>& mine, int root,
                std::vector<std::vector<uint8_t>>* all);

  /// Personalized all-to-all: `to_each[r]` goes to worker r; returns
  /// `from_each[s]` = buffer sent by worker s to this worker.
  /// to_each must have world_size entries (self-entry is delivered free).
  Status AllToAll(std::vector<std::vector<uint8_t>> to_each,
                  std::vector<std::vector<uint8_t>>* from_each);

  /// Pure synchronization (no bytes charged).
  Status Barrier();

  /// Instrumentation-only reductions: rendezvous like a collective but
  /// charge no bytes or simulated time, and are invisible to the fault
  /// injector's occurrence counting. If the rendezvous group is broken they
  /// degrade to returning the local value instead of failing, so
  /// measurement code needs no error handling.
  double InstrumentMax(double value);
  double InstrumentSum(double value);

  /// Audit-channel exchange: every rank contributes a small word packet and
  /// receives all packets indexed by rank. Rides the instrument channel —
  /// no bytes or simulated time charged, invisible to the fault injector —
  /// modeling integrity digests piggybacked on existing collective frames.
  /// Packets may have different lengths per rank. Returns false when the
  /// rendezvous group is broken (the caller's collectives will fail anyway).
  bool AuditExchange(const std::vector<uint64_t>& mine,
                     std::vector<std::vector<uint64_t>>* all);

  /// Consults the fault injector's compute-side schedule (kPoison events) at
  /// one of the trainer's compute points. Returns an empty decision when no
  /// injector is installed. Advances only the compute-point occurrence
  /// streams — collective occurrence matching is unaffected.
  PoisonDecision ConsultComputeFault(ComputePoint point);

  /// Marks this worker failed with `status`, breaks the rendezvous group so
  /// peers fail fast, and returns `status` for the caller to throw. Public
  /// escalation path for integrity-audit blame (the retry-exhaustion
  /// counterpart lives inside ApplyFaults).
  Status FailWorker(Status status);

  /// Communication counters accumulated by this worker so far.
  const CommStats& stats() const { return stats_; }

  /// Observability handles, null unless an observer is attached to the
  /// cluster (and tracing enabled, for the buffer). Trainers record phase
  /// spans into the buffer and custom metrics into the shard; the
  /// communicator itself records per-collective spans and counters.
  obs::TraceBuffer* trace_buffer() const { return trace_; }
  obs::MetricsShard* metrics_shard() const { return metrics_; }

  /// True once this worker has failed (injected crash or retry exhaustion).
  /// All subsequent collectives return kUnavailable without rendezvousing.
  bool failed() const { return dead_; }

  /// Announces the phase this worker is in; phase-tagged FaultEvents count
  /// occurrences only among collectives issued under the matching phase.
  /// Purely a fault-injection label — no accounting effect.
  void set_fault_phase(FaultPhase phase) { fault_phase_ = phase; }
  FaultPhase fault_phase() const { return fault_phase_; }

 private:
  friend class Cluster;
  WorkerContext(Cluster* cluster, int rank);

  /// Connects this worker to the run's observer: creates its trace buffer /
  /// metrics shard and pre-resolves the per-collective-op counter handles so
  /// the hot path never does a name lookup.
  void AttachObs(obs::RunObserver* observer);

  void Charge(CollectiveOp op, uint64_t sent, uint64_t received);

  /// Codec accounting: raw (uncompressed-equivalent) vs wire (encoded)
  /// volume of one codec collective, plus the encoder's per-block tallies.
  /// Resolves the comm.<Op>.raw_bytes / compressed_bytes handles lazily so
  /// compression-off runs keep exactly the seed's metric name set.
  void RecordCodec(CollectiveOp op, uint64_t raw_sent, uint64_t raw_received,
                   uint64_t wire_sent, uint64_t wire_received,
                   const CodecStats& cstats);

  /// Debug-build cluster-wide invariant: the bytes every sender Charge()d
  /// equal the bytes receivers were charged for, i.e. sum over ranks of
  /// (sent - received) is exactly zero for this op. Checked by the codec
  /// layer of AllToAllSum (W > 1), where per-destination frames differ (the
  /// ring all-reduce charges every rank sent == received by construction).
  /// Rides the instrument channel (no bytes, invisible to the fault
  /// injector); compiled out under NDEBUG.
  void DebugCheckCodecSymmetry(uint64_t sent, uint64_t received);

  /// Consults the fault injector (if any) at the top of a collective.
  /// Returns non-OK if this worker is already dead or crashes now.
  Status Prepare(CollectiveOp op, FaultDecision* decision);

  /// One failure-aware barrier phase. On success sets *serial (when given)
  /// for exactly one participant per cycle; on breakage/timeout returns
  /// kUnavailable / kDeadlineExceeded.
  Status Rendezvous(bool* serial = nullptr);

  /// Instrument-channel rendezvous: true on success, false when the group
  /// is broken (caller degrades to its local value).
  bool InstrumentRendezvous();

  /// Applies the post-transfer part of a fault decision: straggler delay and
  /// detected-bad-transfer retries (each retry recharges the op's bytes and
  /// backs off exponentially). Escalates to worker failure when the decision
  /// exceeds the plan's retry budget. Also closes the collective's trace
  /// span (every successful collective ends here).
  Status ApplyFaults(CollectiveOp op, const FaultDecision& decision,
                     uint64_t sent, uint64_t received);

  /// Marks this worker dead, records it with the cluster, and breaks the
  /// rendezvous group so peers fail fast instead of hanging.
  Status Die(Status status);

  /// Applies a kSilentCorrupt decision to doubles this rank just received
  /// from the transport (post-CRC), the concatenation of `parts` (each
  /// `part_len` long): flips a high exponent bit of one deterministically
  /// chosen element. No-op unless the decision fired.
  void MaybeSilentCorrupt(const FaultDecision& decision,
                          std::span<double* const> parts, size_t part_len);
  /// Byte-buffer flavor: flips the sign/exponent-carrying top bit of one
  /// word-aligned byte across the given received buffers (buffers this rank
  /// did not author — its own slots must not be passed).
  void MaybeSilentCorrupt(const FaultDecision& decision,
                          const std::vector<std::vector<uint8_t>*>& received);

  /// This rank's view of one layered call's mitigation plan. On a strict
  /// call it is the default: on time, serving nobody, dropping nobody.
  struct MitigatedCall {
    RankClass my = RankClass::kOnTime;
    /// Rank this worker re-serves as a speculative backup, -1 if none.
    int serving_for = -1;
    /// True when any rank was late this call (bounded mode charges the
    /// on-time ranks the deadline only in that case).
    bool any_late = false;
    /// The cluster's per-rank classes (valid until the op's last
    /// rendezvous); null on a strict call.
    const RankClass* classes = nullptr;

    /// True iff rank r's payload is dropped from this call's result, on
    /// every rank.
    bool dropped(int r) const {
      return classes != nullptr && classes[r] == RankClass::kDeferred;
    }
  };

  /// The plan step of the layered collectives: the rendezvous after which
  /// every rank's published payload is readable. With mitigation on, this
  /// rank first publishes its injected `delay` and one extra plan
  /// rendezvous lets the serial participant run PlanMitigation; *call and
  /// *outcome are then read from the shared plan. Strict calls rendezvous
  /// once and leave *call at its default.
  Status PlanRendezvous(const MitigationOptions& opts, double delay,
                        MitigatedCall* call, MitigationOutcome* outcome);

  /// Epilogue of the layered collectives: charges the op's `sent` /
  /// `received`, then with mitigation off is plain ApplyFaults (no
  /// staleness.* / speculation.* metrics are created). Otherwise it routes
  /// this rank's injected delay to sim_seconds or absorbed_delay_seconds per
  /// its RankClass, charges deadline waits and speculative duplicate volume
  /// (mirrored into the per-op byte counters so exact accounting holds),
  /// records the staleness.* / speculation.* metrics, then finishes via
  /// ApplyFaults with the possibly-neutralized decision.
  Status FinishMitigated(CollectiveOp op, const MitigationOptions& opts,
                         FaultDecision decision, const MitigatedCall& call,
                         uint64_t sent, uint64_t received,
                         uint64_t extra_sent, uint64_t extra_received,
                         double deferred_mass);

  Cluster* cluster_;
  int rank_;
  bool dead_ = false;
  FaultPhase fault_phase_ = FaultPhase::kAnyPhase;
  CommStats stats_;

  /// Pre-resolved metric handles (one lookup at attach time, plain adds on
  /// the hot path). Indexed by CollectiveOp value for the per-op counters.
  struct ObsHandles;
  obs::TraceBuffer* trace_ = nullptr;
  obs::MetricsShard* metrics_ = nullptr;
  std::unique_ptr<ObsHandles> obs_handles_;
  /// Scratch of the summing collectives, kept across calls so a warm call,
  /// strict or coded, allocates nothing.
  struct SumScratch {
    /// AllToAllSum: sources[i * W + r] is contributor r's share of node i.
    /// AllReduceSum: sources[r] is contributor r's part being summed. Null
    /// for a deferred contributor.
    std::vector<const double*> sources;
    /// Codec: one destination's packed slice (AllReduceSum: the packed
    /// parts) before encoding, then the decoded frame a visitor sees
    /// (AllReduceSum: this rank's decoded frame, which it publishes).
    std::vector<double> staging;
    /// AllReduceSum under the codec: `staging` cut into the caller's parts.
    std::vector<double*> staging_parts;
    /// Codec: this rank's encoded frame per destination (AllReduceSum:
    /// frames[0] is its one frame).
    std::vector<std::vector<uint8_t>> frames;
    /// Per contributor: its decoded frame (codec), or the copy of its share
    /// that a silent corruption lands in.
    std::vector<std::vector<double>> copies;
    /// A visitor's view of one share.
    std::vector<const double*> parts;
  };
  SumScratch sum_;
  /// Span-in-flight state set by Prepare, consumed by ApplyFaults.
  double op_sim_begin_ = 0.0;
  int64_t op_wall_begin_us_ = 0;
  uint64_t op_bytes_begin_ = 0;
  /// Monotone per-rank collective sequence number within this cluster
  /// incarnation. The SPMD contract (same collectives, same order, on every
  /// rank) makes it a cross-rank join key: collective spans stamped with the
  /// same (incarnation, op_id) are the same logical operation, which is what
  /// the anatomy analyzer uses for happens-before edges. Incremented at the
  /// single point every collective — strict, mitigated, W==1 shortcut, or
  /// one that just killed this worker — closes its span (ApplyFaults).
  int64_t op_seq_ = 0;
};

/// Simulated W-worker cluster. Each Run() spawns one thread per worker and
/// executes the given SPMD function; collectives rendezvous through shared
/// state owned here.
///
/// A cluster whose rendezvous group has been broken by a failure cannot be
/// reused for further collectives; recovery paths build a fresh Cluster over
/// the surviving workers.
class Cluster {
 public:
  Cluster(int num_workers, NetworkModel model = NetworkModel::Lab1Gbps());

  int num_workers() const { return num_workers_; }
  const NetworkModel& network_model() const { return model_; }

  /// Runs fn(context) on every worker; blocks until all finish. Contexts
  /// (and their stats) persist across Run calls. An exception escaping a
  /// worker thread is captured and rethrown here on the caller thread (the
  /// first one in rank order; others are dropped).
  void Run(const std::function<void(WorkerContext&)>& fn);

  /// Like Run, but converts per-worker outcomes into Statuses instead of
  /// rethrowing: OK for a clean return, the carried Status for ClusterAbort,
  /// kInternal for any other exception. Never throws.
  std::vector<Status> TryRun(const std::function<void(WorkerContext&)>& fn);

  /// Installs a deterministic fault schedule consulted at every collective.
  /// An empty plan uninstalls (the fault hooks are then zero-cost and the
  /// byte/time accounting is bit-identical to a cluster without faults).
  void InstallFaultPlan(const FaultPlan& plan);

  /// Shares an existing injector (occurrence counters included) with this
  /// cluster. Elastic recovery uses this so a plan installed on the original
  /// cluster keeps matching — and never re-fires already-fired events —
  /// across the rebuilt cluster incarnations. The injector must have been
  /// created for at least this many workers. Null detaches.
  void AdoptFaultInjector(std::shared_ptr<FaultInjector> injector);

  /// The installed injector (counters and all), for handing to a successor
  /// cluster via AdoptFaultInjector. Null when no plan is installed.
  std::shared_ptr<FaultInjector> shared_fault_injector() const {
    return injector_;
  }

  /// Attaches a run observer: every worker gets a metrics shard (and, when
  /// the observer has tracing enabled, a trace buffer), and the collectives
  /// start recording per-op spans / counters. Must be called before Run;
  /// the observer must outlive the cluster. Recording never changes the
  /// byte / simulated-time accounting, and a cluster without an observer is
  /// bit-identical to one that never had the hooks. Compiled to a no-op
  /// under VERO_OBS_DISABLED.
  void AttachObserver(obs::RunObserver* observer);
  obs::RunObserver* observer() const { return observer_; }

  /// Watchdog for collective rendezvous: a worker waiting longer than this
  /// for its peers fails with kDeadlineExceeded (and breaks the group).
  /// <= 0 disables the watchdog. Default 60 simulated-wall seconds.
  void set_collective_timeout_seconds(double seconds) {
    collective_timeout_seconds_ = seconds;
  }
  double collective_timeout_seconds() const {
    return collective_timeout_seconds_;
  }

  /// Ranks that have failed (injected crash or retry exhaustion), in
  /// increasing order. Survivors = all other ranks.
  std::vector<int> dead_ranks() const;

  /// Stats of one worker / summed over workers.
  const CommStats& worker_stats(int rank) const;
  CommStats TotalStats() const;
  /// Maximum simulated comm seconds across workers (the cluster-level
  /// critical path used in time breakdowns).
  double MaxSimSeconds() const;

  void ResetStats();

 private:
  friend class WorkerContext;

  void MarkDead(int rank);
  std::vector<std::exception_ptr> RunInternal(
      const std::function<void(WorkerContext&)>& fn);

  /// Serial-section step of a mitigated collective: classifies stragglers
  /// from the delays published in delay_slots_ and updates the per-rank
  /// consecutive-deferral streaks. Runs on the serial participant of the
  /// collective's plan rendezvous, while every other rank is parked before
  /// the next one.
  void PlanMitigation(const MitigationOptions& opts);

  const int num_workers_;
  const NetworkModel model_;
  std::vector<std::unique_ptr<WorkerContext>> contexts_;
  std::shared_ptr<FaultInjector> injector_;
  obs::RunObserver* observer_ = nullptr;
  double collective_timeout_seconds_ = 60.0;

  mutable std::mutex dead_mu_;
  std::vector<uint8_t> dead_flags_;

  // Rendezvous state for collectives.
  Barrier barrier_;
  std::vector<const void*> ptrs_;
  std::vector<void*> mutable_ptrs_;
  std::vector<size_t> sizes_;
  std::vector<double> instrument_slots_;

  // Mitigated-collective plan state: each rank publishes its injected delay
  // into delay_slots_, the serial participant fills mit_class_ / mit_backup_
  // via PlanMitigation, everyone reads them (PlanRendezvous) before the
  // final rendezvous. stale_streaks_ tracks consecutive deferrals per rank
  // and is only touched by mitigated calls (strict runs never see it).
  std::vector<double> delay_slots_;
  std::vector<RankClass> mit_class_;
  std::vector<int> mit_backup_;
  std::vector<uint32_t> stale_streaks_;
};

}  // namespace vero

#endif  // VERO_CLUSTER_COMMUNICATOR_H_
