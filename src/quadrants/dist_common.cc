#include "quadrants/dist_common.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/bitmap.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "common/timer.h"
#include "core/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vero {

TreeCostSummary SummarizeTreeCosts(const std::vector<TreeCost>& costs) {
  TreeCostSummary summary;
  if (costs.empty()) return summary;
  const double n = static_cast<double>(costs.size());
  for (const TreeCost& c : costs) summary.mean += c;
  summary.mean.gradient_seconds /= n;
  summary.mean.hist_seconds /= n;
  summary.mean.find_split_seconds /= n;
  summary.mean.node_split_seconds /= n;
  summary.mean.other_seconds /= n;
  summary.mean.comm_seconds /= n;
  summary.mean.bytes_sent /= costs.size();
  if (costs.size() > 1) {
    double comp_var = 0.0, comm_var = 0.0;
    for (const TreeCost& c : costs) {
      const double dc = c.comp_seconds() - summary.mean.comp_seconds();
      const double dm = c.comm_seconds - summary.mean.comm_seconds;
      comp_var += dc * dc;
      comm_var += dm * dm;
    }
    summary.comp_std = std::sqrt(comp_var / (costs.size() - 1));
    summary.comm_std = std::sqrt(comm_var / (costs.size() - 1));
  }
  return summary;
}

std::vector<uint8_t> SerializeSplits(
    const std::vector<SplitCandidate>& splits) {
  ByteWriter writer;
  writer.WriteU32(static_cast<uint32_t>(splits.size()));
  for (const SplitCandidate& s : splits) s.SerializeTo(&writer);
  return writer.TakeData();
}

std::vector<SplitCandidate> DeserializeSplits(
    const std::vector<uint8_t>& data) {
  ByteReader reader(data);
  uint32_t n = 0;
  VERO_CHECK_OK(reader.ReadU32(&n));
  std::vector<SplitCandidate> splits(n);
  for (SplitCandidate& s : splits) {
    VERO_CHECK_OK(SplitCandidate::Deserialize(&reader, &s));
  }
  return splits;
}

Status DistTrainOptions::Validate() const {
  VERO_RETURN_IF_ERROR(params.Validate());
  // Reference-trainer extensions: no quadrant implements them, so a
  // distributed run would silently train a different model than asked for.
  if (params.growth != GrowthPolicy::kLevelWise) {
    return Status::InvalidArgument(
        "params.growth: quadrants grow level-wise only");
  }
  if (params.max_leaves != 0) {
    return Status::InvalidArgument(
        "params.max_leaves: quadrants grow level-wise only");
  }
  if (params.row_subsample != 1.0) {
    return Status::InvalidArgument(
        "params.row_subsample: quadrants do not subsample rows");
  }
  if (params.column_subsample != 1.0) {
    return Status::InvalidArgument(
        "params.column_subsample: quadrants do not subsample columns");
  }
  if (mitigation.deadline_seconds <= 0.0) {
    return Status::InvalidArgument("mitigation.deadline_seconds <= 0");
  }
  if (mitigation.speculation_threshold_seconds <= 0.0) {
    return Status::InvalidArgument(
        "mitigation.speculation_threshold_seconds <= 0");
  }
  if (mitigation.staleness_bound == 0) {
    return Status::InvalidArgument("mitigation.staleness_bound == 0");
  }
  if (mitigation.max_stale_ranks == 0) {
    return Status::InvalidArgument("mitigation.max_stale_ranks == 0");
  }
  if (elastic_resize_after_trees > 0) {
    if (elastic_resize_delta == 0) {
      return Status::InvalidArgument(
          "elastic_resize_delta == 0 with a scheduled resize");
    }
    if (elastic_resize_after_trees >= params.num_trees) {
      return Status::InvalidArgument(
          "elastic_resize_after_trees >= num_trees");
    }
  } else if (elastic_resize_delta != 0) {
    return Status::InvalidArgument(
        "elastic_resize_delta set without elastic_resize_after_trees");
  }
  return Status::OK();
}

void MergeBestSplits(const std::vector<SplitCandidate>& candidates,
                     std::vector<SplitCandidate>* best) {
  if (best->empty()) {
    *best = candidates;
    return;
  }
  VERO_CHECK_EQ(candidates.size(), best->size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].IsBetterThan((*best)[i])) {
      (*best)[i] = candidates[i];
    }
  }
}

DistTrainerBase::DistTrainerBase(WorkerContext& ctx,
                                 const DistTrainOptions& options, Task task,
                                 uint32_t num_classes,
                                 const CandidateSplits& splits,
                                 std::vector<float> labels,
                                 uint32_t num_global_instances)
    : ctx_(ctx),
      options_(options),
      task_(task),
      num_classes_(num_classes),
      dims_(task == Task::kMultiClass ? num_classes : 1),
      loss_(MakeLossForTask(task, num_classes)),
      finder_(options.params.reg_lambda, options.params.reg_gamma,
              options.params.min_split_gain),
      splits_(splits),
      codec_{.mode = options.compression,
             .block_values = static_cast<uint64_t>(
                                 options.params.num_candidate_splits) *
                             dims_ * 2},
      auditor_(ctx, options.integrity),
      model_(task, num_classes, options.params.learning_rate),
      builder_(options.params.num_threads),
      labels_(std::move(labels)),
      num_global_instances_(num_global_instances) {
  margins_.assign(static_cast<size_t>(num_rows()) * dims_, 0.0);
  grads_ = GradientBuffer(num_rows(), dims_);
}

void DistTrainerBase::InitFromCheckpoint(const GbdtModel& model,
                                         std::span<const double> margins) {
  VERO_CHECK_EQ(margins.size(), margins_.size());
  model_ = model;
  std::copy(margins.begin(), margins.end(), margins_.begin());
}

GradStats DistTrainerBase::ComputeGradients() {
  ComputeGradientsParallel(*loss_, labels_, margins_, num_rows(),
                           options_.params.num_threads, &grads_);
  GradStats total = grads_.Total();
  // Workers holding every row recompute all gradients (replicated work,
  // zero communication — the vertical trade-off of §2.2.1); a row shard
  // needs the tiny all-reduce of the 2C root sums.
  if (OwnsAllRows()) return total;
  std::vector<double> raw(2 * dims_);
  for (uint32_t k = 0; k < dims_; ++k) {
    raw[2 * k] = total[k].g;
    raw[2 * k + 1] = total[k].h;
  }
  VERO_COMM_OK(ctx_.AllReduceSum(raw));
  for (uint32_t k = 0; k < dims_; ++k) {
    total[k].g = raw[2 * k];
    total[k].h = raw[2 * k + 1];
  }
  return total;
}

std::vector<SplitCandidate> DistTrainerBase::LocalBestSplits(
    const std::vector<NodeId>& frontier) {
  std::vector<SplitCandidate> local(frontier.size());
  for (size_t i = 0; i < frontier.size(); ++i) {
    const Histogram* hist = pool_.Get(frontier[i]);
    VERO_CHECK(hist != nullptr);
    local[i] = finder_.FindBest(*hist, node_stats_[frontier[i]],
                                HistGlobalIds(), splits_);
  }
  return local;
}

std::vector<SplitCandidate> DistTrainerBase::AllGatherBestSplits(
    const std::vector<SplitCandidate>& local) {
  std::vector<std::vector<uint8_t>> all;
  MitigationOutcome outcome;
  VERO_COMM_OK(ctx_.AllGather(SerializeSplits(local), &all,
                              options_.mitigation, &outcome));
  std::vector<SplitCandidate> best;
  for (int r = 0; r < ctx_.world_size(); ++r) {
    if (!outcome.contributed[r]) continue;
    MergeBestSplits(DeserializeSplits(all[r]), &best);
  }
  return best;
}

void DistTrainerBase::ReduceChildCounts(std::span<double> counts,
                                        std::vector<uint32_t>* child_counts) {
  // Global child counts drive the shared subtraction schema (the "master
  // collects instance counts" step of §4.2.2).
  if (!OwnsAllRows()) VERO_COMM_OK(ctx_.AllReduceSum(counts));
  child_counts->resize(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    (*child_counts)[i] = static_cast<uint32_t>(counts[i] + 0.5);
  }
}

void DistTrainerBase::SplitRowStore(const BinnedRowStore& store,
                                    const std::vector<NodeId>& nodes,
                                    const std::vector<SplitCandidate>& splits,
                                    std::vector<uint32_t>* child_counts) {
  std::vector<double> counts(2 * nodes.size(), 0.0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const SplitCandidate& s = splits[i];
    auto instances = partition_.Instances(nodes[i]);
    Bitmap go_left(instances.size());
    store.FillGoLeft(instances, s.feature, s.split_bin, s.default_left,
                     &go_left);
    partition_.Split(nodes[i], go_left);
    counts[2 * i] = partition_.Count(LeftChild(nodes[i]));
    counts[2 * i + 1] = partition_.Count(RightChild(nodes[i]));
  }
  ReduceChildCounts(counts, child_counts);
}

void DistTrainerBase::BuildRowLayer(const BinnedRowStore& store,
                                    const RowPartition& partition,
                                    const std::vector<BuildTask>& tasks,
                                    uint32_t feature_begin,
                                    uint32_t feature_end,
                                    uint32_t store_num_features) {
  const uint32_t q = options_.params.num_candidate_splits;
  std::vector<HistogramBuilder::NodeRows> build;
  build.reserve(tasks.size());
  for (const BuildTask& task : tasks) {
    build.push_back(
        {pool_.Acquire(task.build_node, HistFeatureCount(), q, dims_),
         partition.Instances(task.build_node)});
  }
  builder_.BuildRowStoreLayer(
      store, grads_, std::span<const HistogramBuilder::NodeRows>(build),
      feature_begin, feature_end, store_num_features);
  ApplySubtractions(tasks);
}

void DistTrainerBase::UpdateMargins(const Tree& tree) {
  const double lr = options_.params.learning_rate;
  for (NodeId node = 0; node < static_cast<NodeId>(tree.max_nodes());
       ++node) {
    if (!partition_.Has(node)) continue;
    const std::vector<float>& w = tree.node(node).leaf_values;
    for (InstanceId i : partition_.Instances(node)) {
      for (uint32_t k = 0; k < dims_; ++k) {
        margins_[static_cast<size_t>(i) * dims_ + k] += lr * w[k];
      }
    }
  }
}

void DistTrainerBase::Train(const Dataset* valid,
                            std::vector<TreeCost>* tree_costs,
                            std::vector<IterationStats>* curve,
                            double setup_sim_seconds) {
  const GbdtParams& params = options_.params;
  const uint32_t num_layers = params.num_layers;
  const uint32_t max_nodes = (1u << num_layers) - 1;
  tree_costs->clear();
  if (curve != nullptr) curve->clear();

  // Resuming from a checkpointed prefix: keep its trees, continue the count.
  const uint32_t start_tree = static_cast<uint32_t>(model_.num_trees());

  std::vector<double> valid_margins;
  if (valid != nullptr && ctx_.rank() == 0) {
    if (start_tree > 0) {
      valid_margins = model_.PredictDatasetMargins(*valid);
    } else {
      valid_margins.assign(
          static_cast<size_t>(valid->num_instances()) * dims_, 0.0);
    }
  }
  double elapsed = setup_sim_seconds;
  double best_metric = 0.0;
  bool best_metric_set = false;
  uint32_t rounds_since_best = 0;

  // Null unless an observer with tracing is attached; PhaseSpan measures
  // either way, so the cost accounting below is identical in both modes.
  obs::TraceBuffer* tb = ctx_.trace_buffer();
  const double* sim_clock = &ctx_.stats().sim_seconds;

  for (uint32_t t = start_tree; t < params.num_trees; ++t) {
    const double tree_sim_start = ctx_.stats().sim_seconds;
    const uint64_t tree_bytes_start = ctx_.stats().bytes_sent;
    if (tb != nullptr) tb->SetContext(static_cast<int32_t>(t), -1);
    TreeCost local;  // Thread-CPU seconds of this worker's phases.

    // ---- Gradients ----
    {
      obs::PhaseSpan span(tb, "gradient", sim_clock);
      GradStats root_stats = ComputeGradients();
      ApplyGradientPoison();
      if (auditor_.enabled()) AuditGradients(&root_stats);
      local.gradient_seconds = span.Close();

      InitTreeIndexes();
      node_stats_.assign(max_nodes, GradStats{});
      node_counts_.assign(max_nodes, 0);
      node_stats_[0] = root_stats;
    }

    VERO_CHECK_GT(num_global_instances_, 0u);
    node_counts_[0] = num_global_instances_;

    Tree tree(num_layers, dims_);
    std::vector<NodeId> frontier = {0};
    std::vector<std::pair<NodeId, NodeId>> pairs;
    const bool subtraction =
        UsesSubtraction() && params.histogram_subtraction;

    for (uint32_t depth = 0; depth < num_layers && !frontier.empty();
         ++depth) {
      const bool last_layer = (depth + 1 == num_layers);
      if (tb != nullptr) {
        tb->SetContext(static_cast<int32_t>(t), static_cast<int32_t>(depth));
      }
      // ---- Histogram construction ----
      // Nodes on the last layer become leaves unconditionally, so their
      // histograms are never consulted; skip building them.
      obs::PhaseSpan hist_span(tb, "hist-build", sim_clock);
      if (!last_layer) {
        std::vector<BuildTask> tasks;
        if (depth == 0) {
          tasks.push_back(BuildTask{0, kInvalidNode, kInvalidNode});
        } else {
          for (const auto& [left, right] : pairs) {
            const NodeId parent = Parent(left);
            if (subtraction) {
              const NodeId smaller =
                  node_counts_[left] <= node_counts_[right] ? left : right;
              tasks.push_back(BuildTask{smaller, Sibling(smaller), parent});
            } else {
              tasks.push_back(BuildTask{left, kInvalidNode, parent});
              tasks.push_back(BuildTask{right, kInvalidNode, parent});
            }
          }
        }
        BuildLayerHistograms(tasks);
        ApplyHistogramPoison(tasks);
        if (auditor_.full()) {
          layer_hist_nonfinite_ = ScanBuiltHistograms(tasks);
        }
        // Parents are no longer needed once children histograms exist.
        for (const BuildTask& task : tasks) {
          if (task.parent != kInvalidNode) pool_.Release(task.parent);
        }
        // Kernel wall time + threads of the layer's builder pass. Written
        // from this worker thread only (shards are single-writer); values
        // are wall-clock, which the cross-run determinism check ignores.
        if (obs::MetricsShard* shard = ctx_.metrics_shard()) {
          shard->histogram("hist.build_seconds")
              ->Observe(builder_.last_build_seconds());
          shard->gauge("hist.threads")
              ->Set(static_cast<double>(builder_.last_threads_used()));
        }
      }
      local.hist_seconds += hist_span.Close();

      // ---- Split finding ----
      obs::PhaseSpan find_span(tb, "find-split", sim_clock);
      std::vector<SplitCandidate> best;
      if (!last_layer) {
        best = FindLayerSplits(frontier);
        VERO_CHECK_EQ(best.size(), frontier.size());
        if (auditor_.enabled()) AuditLayer(frontier, &best);
      } else {
        best.resize(frontier.size());
      }
      std::vector<NodeId> split_nodes;
      std::vector<SplitCandidate> split_decisions;
      for (size_t i = 0; i < frontier.size(); ++i) {
        const NodeId node = frontier[i];
        const bool can_split =
            best[i].valid &&
            node_counts_[node] >= 2 * params.min_child_instances;
        if (can_split) {
          split_nodes.push_back(node);
          split_decisions.push_back(std::move(best[i]));
        } else {
          tree.SetLeaf(node, finder_.LeafWeights(node_stats_[node]));
          pool_.Release(node);
        }
      }
      local.find_split_seconds += find_span.Close();

      // ---- Node splitting ----
      obs::PhaseSpan split_span(tb, "node-split", sim_clock);
      pairs.clear();
      std::vector<NodeId> next_frontier;
      if (!split_nodes.empty()) {
        for (size_t i = 0; i < split_nodes.size(); ++i) {
          const SplitCandidate& s = split_decisions[i];
          tree.SetSplit(split_nodes[i], s.feature, s.split_value, s.split_bin,
                        s.default_left, s.gain);
        }
        std::vector<uint32_t> child_counts;
        ApplyLayerSplits(split_nodes, split_decisions, &child_counts);
        VERO_CHECK_EQ(child_counts.size(), 2 * split_nodes.size());
        for (size_t i = 0; i < split_nodes.size(); ++i) {
          const NodeId l = LeftChild(split_nodes[i]);
          const NodeId r = RightChild(split_nodes[i]);
          node_stats_[l] = split_decisions[i].left_stats;
          node_stats_[r] = split_decisions[i].right_stats;
          node_counts_[l] = child_counts[2 * i];
          node_counts_[r] = child_counts[2 * i + 1];
          pairs.emplace_back(l, r);
          next_frontier.push_back(l);
          next_frontier.push_back(r);
        }
        if (auditor_.enabled()) AuditChildCounts(child_counts);
        if (!subtraction) {
          // No subtraction: parents' histograms are dead immediately.
          for (NodeId node : split_nodes) pool_.Release(node);
        }
      }
      local.node_split_seconds += split_span.Close();
      frontier = std::move(next_frontier);
    }
    if (tb != nullptr) tb->SetContext(static_cast<int32_t>(t), -1);
    for (NodeId node = 0; node < static_cast<NodeId>(max_nodes); ++node) {
      pool_.Release(node);
    }

    // ---- Margin update ----
    {
      obs::PhaseSpan span(tb, "margin-update", sim_clock);
      UpdateMargins(tree);
      local.other_seconds = span.Close();
    }

    if (auditor_.enabled()) AuditRound();

    model_.AddTree(std::move(tree));

    // ---- Cluster-level cost of this round ----
    const double my_comm = ctx_.stats().sim_seconds - tree_sim_start;
    const double my_bytes =
        static_cast<double>(ctx_.stats().bytes_sent - tree_bytes_start);
    TreeCost cost;
    cost.gradient_seconds = ctx_.InstrumentMax(local.gradient_seconds);
    cost.hist_seconds = ctx_.InstrumentMax(local.hist_seconds);
    cost.find_split_seconds = ctx_.InstrumentMax(local.find_split_seconds);
    cost.node_split_seconds = ctx_.InstrumentMax(local.node_split_seconds);
    cost.other_seconds = ctx_.InstrumentMax(local.other_seconds);
    cost.comm_seconds = ctx_.InstrumentMax(my_comm);
    cost.bytes_sent =
        static_cast<uint64_t>(std::llround(ctx_.InstrumentSum(my_bytes)));
    tree_costs->push_back(cost);
    elapsed += cost.total_seconds();

    // ---- Curve recording (rank 0) ----
    if (curve != nullptr) {
      const uint32_t my_rows = static_cast<uint32_t>(labels_.size());
      const double my_loss_sum =
          loss_->ComputeLoss(labels_, margins_, 0, my_rows) * my_rows;
      // Vertical quadrants replicate all rows; horizontal ones own a shard.
      const double loss_sum = OwnsAllRows()
                                  ? my_loss_sum
                                  : ctx_.InstrumentSum(my_loss_sum);
      IterationStats stats;
      stats.tree_index = t;
      stats.train_loss = loss_sum / num_global_instances_;
      stats.elapsed_seconds = elapsed;
      if (valid != nullptr && ctx_.rank() == 0) {
        const Tree& last = model_.tree(model_.num_trees() - 1);
        const CsrMatrix& vm = valid->matrix();
        for (InstanceId i = 0; i < valid->num_instances(); ++i) {
          last.PredictInto(vm.RowFeatures(i), vm.RowValues(i),
                           params.learning_rate,
                           valid_margins.data() +
                               static_cast<size_t>(i) * dims_);
        }
        const MetricValue metric =
            EvaluateMargins(valid->task(), valid->num_classes(),
                            valid->labels(), valid_margins);
        stats.valid_metric = metric.value;
        stats.has_valid_metric = true;
        const bool improved =
            !best_metric_set ||
            (metric.higher_is_better ? metric.value > best_metric
                                     : metric.value < best_metric);
        if (improved) {
          best_metric = metric.value;
          best_metric_set = true;
          rounds_since_best = 0;
        } else {
          ++rounds_since_best;
        }
      }
      curve->push_back(stats);
    }

    // ---- Checkpoint (rank 0 only, no collectives) ----
    // Sits after the cost/curve recording so a checkpoint's trees_done never
    // exceeds the number of recorded cost entries, which the recovery path
    // relies on when stitching the pre-failure prefix.
    const bool interval_hit = checkpoint_interval_ > 0 &&
                              (t + 1 - start_tree) % checkpoint_interval_ == 0;
    // checkpoint_final_ guarantees a checkpoint at exactly the last tree of
    // a boundary-clamped attempt (resize rendezvous resume point) even when
    // the interval does not land there.
    const bool final_hit = checkpoint_final_ && t + 1 == params.num_trees;
    if (checkpoint_sink_ && ctx_.rank() == 0 && (interval_hit || final_hit)) {
      obs::PhaseSpan span(tb, checkpoint_span_name_, sim_clock);
      checkpoint_sink_(model_, t + 1);
    }

    // Early stopping: rank 0 owns the validation metric; every worker must
    // take the same branch, so the decision travels over the
    // instrumentation channel.
    if (params.early_stopping_rounds > 0 && valid != nullptr) {
      const double stop_flag =
          (ctx_.rank() == 0 &&
           rounds_since_best >= params.early_stopping_rounds)
              ? 1.0
              : 0.0;
      if (ctx_.InstrumentMax(stop_flag) > 0.5) break;
    }
  }
  if (tb != nullptr) tb->SetContext(-1, -1);
}

// ---------------------------------------------------------------------------
// Integrity: compute-fault (poison) application.
// ---------------------------------------------------------------------------

namespace {

// xorshift64 matching the transport-corruption PRNG: deterministic poison
// placement from the fault event's seed alone.
uint64_t PoisonRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

double PoisonValue(bool inf) {
  return inf ? std::numeric_limits<double>::infinity()
             : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

void DistTrainerBase::ApplyGradientPoison() {
  const PoisonDecision d = ctx_.ConsultComputeFault(ComputePoint::kGradient);
  if (!d.poison) return;
  const uint32_t n = grads_.num_instances();
  const uint32_t dims = grads_.num_dims();
  if (n == 0 || dims == 0) return;
  uint64_t state = d.seed != 0 ? d.seed : 0x9e3779b97f4a7c15ull;
  const uint32_t row = static_cast<uint32_t>(PoisonRand(&state) % n);
  const uint32_t dim = static_cast<uint32_t>(PoisonRand(&state) % dims);
  grads_.at(row, dim).g = PoisonValue(d.inf);
}

void DistTrainerBase::ApplyHistogramPoison(
    const std::vector<BuildTask>& tasks) {
  if (tasks.empty()) return;
  const PoisonDecision d = ctx_.ConsultComputeFault(ComputePoint::kHistogram);
  if (!d.poison) return;
  uint64_t state = d.seed != 0 ? d.seed : 0x9e3779b97f4a7c15ull;
  const BuildTask& task = tasks[PoisonRand(&state) % tasks.size()];
  Histogram* hist = pool_.Get(task.build_node);
  if (hist == nullptr || hist->raw_size() == 0) return;
  hist->raw_data()[PoisonRand(&state) % hist->raw_size()] =
      PoisonValue(d.inf);
}

// ---------------------------------------------------------------------------
// Integrity: local invariant scans (evidence for the audit flags).
// ---------------------------------------------------------------------------

bool DistTrainerBase::ScanBuiltHistograms(
    const std::vector<BuildTask>& tasks) const {
  for (const BuildTask& task : tasks) {
    for (NodeId node : {task.build_node, task.subtract_node}) {
      if (node == kInvalidNode) continue;
      const Histogram* hist = pool_.Get(node);
      if (hist == nullptr) continue;
      if (HasNonFinite({hist->raw_data(), hist->raw_size()})) return true;
    }
  }
  return false;
}

bool DistTrainerBase::HistMassViolated(
    const std::vector<NodeId>& frontier) const {
  // The supported losses all have h >= 0, so the present hessian mass of
  // any feature column is within [0, node hessian] — whether the histogram
  // at hand is a local shard contribution (horizontal, pre-aggregation), a
  // full-mass owned column (vertical), or the aggregated global column
  // (QD1, where at the root this IS the "root-histogram mass equals the
  // all-reduced gradient sums" identity).
  const uint32_t features = HistFeatureCount();
  for (NodeId node : frontier) {
    const Histogram* hist = pool_.Get(node);
    if (hist == nullptr) continue;
    const GradStats& stats = node_stats_[node];
    for (uint32_t f = 0; f < features; ++f) {
      const GradStats present = hist->FeatureTotal(f);
      for (uint32_t k = 0; k < dims_; ++k) {
        const double h = present[k].h;
        const double node_h = stats[k].h;
        if (!std::isfinite(h) || !std::isfinite(node_h)) return true;
        const double slack = kAuditTolerance * (std::fabs(node_h) + 1.0);
        if (h < -slack || h > node_h + slack) return true;
      }
    }
  }
  return false;
}

bool DistTrainerBase::GradsNonFinite() const {
  const uint32_t n = grads_.num_instances();
  const uint32_t dims = grads_.num_dims();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t k = 0; k < dims; ++k) {
      const GradPair& p = grads_.at(i, k);
      if (!std::isfinite(p.g) || !std::isfinite(p.h)) return true;
    }
  }
  return false;
}

bool DistTrainerBase::SplitsNonFinite(
    const std::vector<SplitCandidate>& splits) {
  for (const SplitCandidate& s : splits) {
    if (!s.valid) continue;
    if (!std::isfinite(s.gain) || !std::isfinite(s.split_value)) return true;
    for (const GradPair& p : s.left_stats) {
      if (!std::isfinite(p.g) || !std::isfinite(p.h)) return true;
    }
    for (const GradPair& p : s.right_stats) {
      if (!std::isfinite(p.g) || !std::isfinite(p.h)) return true;
    }
  }
  return false;
}

uint64_t DistTrainerBase::CountsDigest(
    const std::vector<NodeId>& nodes) const {
  std::vector<uint32_t> counts;
  counts.reserve(nodes.size());
  for (NodeId node : nodes) counts.push_back(node_counts_[node]);
  return AuditDigestWords(counts);
}

// ---------------------------------------------------------------------------
// Integrity: audit points and the recompute loops.
// ---------------------------------------------------------------------------

void DistTrainerBase::AuditGradients(GradStats* root_stats) {
  for (uint32_t attempt = 0;; ++attempt) {
    auditor_.PushReplicated(
        "root-stats",
        AuditDigestBytes(root_stats->data(),
                         root_stats->size() * sizeof(GradPair)));
    if (auditor_.full()) {
      auditor_.PushFlag("gradient-nonfinite", GradsNonFinite());
    }
    const AuditVerdict verdict = auditor_.Exchange("gradient");
    if (verdict.ok) return;
    if (attempt >= kAuditMaxRecomputes) {
      auditor_.Escalate(verdict);
    }
    // Recompute gradients and redo the root all-reduce; the occurrence
    // streams have advanced past the injected event, so the retry is clean
    // (a repeat injection re-trips the audit and eventually escalates).
    const uint64_t bytes_before = ctx_.stats().bytes_sent;
    const double sim_before = ctx_.stats().sim_seconds;
    *root_stats = ComputeGradients();
    ApplyGradientPoison();
    auditor_.RecordRecompute(ctx_.stats().bytes_sent - bytes_before,
                             ctx_.stats().sim_seconds - sim_before);
  }
}

void DistTrainerBase::AuditLayer(const std::vector<NodeId>& frontier,
                                 std::vector<SplitCandidate>* best) {
  for (uint32_t attempt = 0;; ++attempt) {
    // Quadrant transport digests for this round were already pushed inside
    // FindLayerSplits; layer-level evidence goes on top of them.
    const std::vector<uint8_t> decision = SerializeSplits(*best);
    auditor_.PushReplicated(
        "layer-decision",
        AuditDigestBytes(decision.data(), decision.size()));
    auditor_.PushReplicated("layer-counts", CountsDigest(frontier));
    if (auditor_.full()) {
      auditor_.PushFlag("hist-built-nonfinite", layer_hist_nonfinite_);
      auditor_.PushFlag("hist-mass", HistMassViolated(frontier));
      auditor_.PushFlag("split-nonfinite", SplitsNonFinite(*best));
    }
    const AuditVerdict verdict = auditor_.Exchange("layer");
    if (verdict.ok) return;
    if (attempt >= kAuditMaxRecomputes) {
      auditor_.Escalate(verdict);
    }
    const uint64_t bytes_before = ctx_.stats().bytes_sent;
    const double sim_before = ctx_.stats().sim_seconds;
    RecomputeLayer(frontier);
    *best = FindLayerSplits(frontier);
    auditor_.RecordRecompute(ctx_.stats().bytes_sent - bytes_before,
                             ctx_.stats().sim_seconds - sim_before);
  }
}

void DistTrainerBase::AuditChildCounts(
    const std::vector<uint32_t>& child_counts) {
  auditor_.PushReplicated(
      "child-counts",
      AuditDigestWords({child_counts.data(), child_counts.size()}));
  const AuditVerdict verdict = auditor_.Exchange("counts");
  // The counts were produced by (and alongside) the instance placement that
  // ApplyLayerSplits already committed, so there is nothing retained to
  // recompute them from; a violation escalates straight to rollback before
  // the divergent frontier can desynchronize the next layer's collectives.
  if (!verdict.ok) auditor_.Escalate(verdict);
}

void DistTrainerBase::AuditRound() {
  auditor_.PushReplicated(
      "round-counts",
      AuditDigestWords({node_counts_.data(), node_counts_.size()}));
  if (auditor_.full()) {
    auditor_.PushFlag("margin-nonfinite", HasNonFinite(margins_));
  }
  const AuditVerdict verdict = auditor_.Exchange("round");
  // Instance placement (and the margins derived from it) cannot be rebuilt
  // from retained state, so a violation here escalates straight to the
  // rollback / membership machine.
  if (!verdict.ok) auditor_.Escalate(verdict);
}

void DistTrainerBase::RecomputeLayer(const std::vector<NodeId>& frontier) {
  // Discard the (possibly corrupted) layer state wholesale: every frontier
  // histogram is rebuilt from this worker's own data without subtraction
  // (parents were already released), after which the caller re-runs the
  // quadrant's split exchange.
  std::vector<BuildTask> tasks;
  tasks.reserve(frontier.size());
  for (NodeId node : frontier) {
    pool_.Release(node);
    tasks.push_back(BuildTask{node, kInvalidNode, kInvalidNode});
  }
  BuildLayerHistograms(tasks);
  ApplyHistogramPoison(tasks);
  if (auditor_.full()) {
    layer_hist_nonfinite_ = ScanBuiltHistograms(tasks);
  }
}

}  // namespace vero
