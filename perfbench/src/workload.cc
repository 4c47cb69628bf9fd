#include "workload.h"

#include <malloc.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>

#include "common/random.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "integrity/auditor.h"
#include "serve/batch_predictor.h"

namespace perfbench {

using vero::CsrMatrix;
using vero::Dataset;
using vero::GbdtModel;
using vero::Quadrant;

const std::vector<WorkloadSpec>& Workloads() {
  // Why each workload exists is recorded in BENCHMARK.json and README.md.
  static const std::vector<WorkloadSpec> kWorkloads = {
      // RCV1 stand-in: N = 20 000, D = 12 000, ~75 nonzeros per row.
      // Its trees isolate the few rows holding a rare feature, so their
      // shape, and the widest layer's histogram memory, vary by dataset.
      {"rcv1-qd1", Quadrant::kQD1, "rcv1", 20000, 12000, 75.0 / 12000.0,
       true, 2, 4, 0.08, 0.72, 0.12, 0.08},
      {"rcv1-qd2", Quadrant::kQD2, "rcv1", 20000, 12000, 75.0 / 12000.0,
       true, 2, 4, 0.08, 0.72, 0.12, 0.08},
      // Higgs stand-in: N = 300 000, D = 28, dense. How evenly the vertical
      // split spreads its trees' work over the workers, and with it the
      // modeled clock, varies by dataset.
      {"higgs-vero", Quadrant::kQD4, "higgs", 300000, 28, 1.0, false, 4, 3,
       0.12, 0.68, 0.12, 0.08},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

// SplitMix64 finalizer: decorrelates the per-purpose seeds derived from the
// one --seed argument.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t DeriveSeed(uint64_t seed, const char* purpose) {
  return Mix(seed ^ vero::AuditDigestBytes(purpose, std::strlen(purpose)));
}

// A full depth-L tree (every slot used), so each routed row costs exactly
// L - 1 node probes. Thresholds cover the generator's [0, 1) value range.
vero::Tree MakeFullTree(vero::Rng& rng, uint32_t num_features) {
  vero::Tree tree(kLayers, 1);
  for (vero::NodeId id = 0; static_cast<uint32_t>(id) < tree.max_nodes();
       ++id) {
    if (static_cast<uint32_t>(vero::RightChild(id)) >= tree.max_nodes()) {
      break;
    }
    tree.SetSplit(id, static_cast<vero::FeatureId>(rng.Uniform(num_features)),
                  static_cast<float>(rng.NextDouble()),
                  static_cast<vero::BinId>(rng.Uniform(kBins)),
                  rng.Bernoulli(0.5), 1.0);
  }
  for (vero::NodeId id = 0; static_cast<uint32_t>(id) < tree.max_nodes();
       ++id) {
    if (tree.node(id).state != vero::TreeNode::State::kLeaf) continue;
    tree.SetLeaf(id, {static_cast<float>(rng.UniformDouble(-1.0, 1.0))});
  }
  return tree;
}

uint32_t WholeBulkBatches(uint32_t rows) {
  return std::max<uint32_t>(1, rows / kBulkBatch) * kBulkBatch;
}

uint32_t Scaled(uint32_t rows, double scale) {
  return static_cast<uint32_t>(std::lround(rows * scale));
}

}  // namespace

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double scale) {
  vero::SyntheticConfig config;
  const uint32_t train_rows =
      std::max<uint32_t>(400, Scaled(spec.train_rows, scale));
  config.num_instances = train_rows + train_rows / 4;  // 20% validation tail
  config.num_features = spec.features;
  config.num_classes = 2;
  config.density = spec.density;
  if (spec.sparse_profile) {
    // Same recipe as the RCV1 profile in data/synthetic.cc.
    config.informative_ratio = 0.2;
    config.informative_draw_fraction = 0.35;
    config.label_noise = 0.1;
  } else {
    // Every feature carries signal, as in the LD profiles: the task's
    // difficulty, and so valid_auc, then varies little from seed to seed.
    config.informative_ratio = 1.0;
  }

  Inputs in;
  for (uint32_t k = 0; k < spec.datasets; ++k) {
    // Set 0 keeps the plain dataset tag, so its rows (and the pinned
    // models) do not depend on how many sets a workload generates.
    std::string tag = spec.dataset;
    if (k > 0) tag.append("#").append(std::to_string(k));
    config.seed = DeriveSeed(seed, tag.c_str());
    const Dataset all = vero::GenerateSynthetic(config);
    TrainingSet& set = in.sets.emplace_back();
    std::tie(set.train, set.valid) = all.SplitTail(0.2);
    const uint32_t n = set.train.num_instances();
    for (int r = 0; r < kWorkers; ++r) {
      const auto [begin, end] = vero::HorizontalRange(n, kWorkers, r);
      set.shards.emplace_back(
          set.train.matrix().SliceRows(begin, end),
          std::vector<float>(set.train.labels().begin() + begin,
                             set.train.labels().begin() + end),
          set.train.task(), set.train.num_classes());
    }
  }

  vero::Rng rng(DeriveSeed(seed, "forest"));
  in.forest = GbdtModel(vero::Task::kBinary, 2, 0.1);
  for (int t = 0; t < kServeTrees; ++t) {
    in.forest.AddTree(MakeFullTree(rng, kServeFeatures));
  }
  vero::SyntheticConfig rows;
  rows.num_instances = WholeBulkBatches(Scaled(kServeRows, scale));
  rows.num_features = kServeFeatures;
  rows.num_classes = 2;
  rows.density = kServeDensity;
  rows.informative_ratio = 1.0;
  rows.seed = DeriveSeed(seed, "serve");
  in.serve_rows = vero::GenerateSynthetic(rows).matrix();
  return in;
}

SetupKind SetupOf(Quadrant quadrant) {
  return quadrant == Quadrant::kQD3 || quadrant == Quadrant::kQD4
             ? SetupKind::kTransform
             : SetupKind::kCandidateSplits;
}

SetupRun RunSetup(SetupKind kind, const std::vector<Dataset>& shards) {
  vero::Cluster cluster(kWorkers);
  SetupRun run;
  run.stats.resize(kWorkers);
  vero::TransformOptions transform;
  transform.num_candidate_splits = kBins;
  const double start = NowSeconds();
  const std::vector<vero::Status> statuses =
      cluster.TryRun([&](vero::WorkerContext& ctx) {
        const int rank = ctx.rank();
        if (kind == SetupKind::kTransform) {
          vero::VerticalShard shard =
              vero::HorizontalToVertical(ctx, shards[rank], transform);
          run.stats[rank] = shard.stats;
          if (rank == 0) run.vertical = std::move(shard);
        } else {
          vero::CandidateSplits splits = vero::BuildDistributedCandidateSplits(
              ctx, shards[rank], kBins, transform.sketch_entries, nullptr);
          if (rank == 0) run.splits = std::move(splits);
        }
      });
  run.wall_s = NowSeconds() - start;
  run.ok = true;
  for (const vero::Status& s : statuses) run.ok = run.ok && s.ok();
  return run;
}

vero::DistTrainOptions TrainOptions(const WorkloadSpec& spec) {
  vero::DistTrainOptions options;
  options.params.num_trees = spec.trees_per_call;
  options.params.num_layers = kLayers;
  options.params.num_candidate_splits = kBins;
  options.params.learning_rate = 0.1;
  // Phase seconds are calling-thread CPU, exact only at one thread.
  options.params.num_threads = 1;
  return options;
}

TrainCall RunTraining(const WorkloadSpec& spec, const TrainingSet& data,
                      vero::obs::RunObserver* observer) {
  // Each Cluster::Run spawns fresh worker threads, which scatter freed
  // memory over malloc arenas. Trimming first makes every call start from
  // the same heap, like a fresh training job, so its peak RSS and page
  // faults do not depend on what earlier calls left behind.
  malloc_trim(0);
  ResetPeakRss();
  vero::Cluster cluster(kWorkers);
  if (observer != nullptr) cluster.AttachObserver(observer);
  TrainCall call;
  const ClockSample before = ClockSample::Now();
  call.result = vero::TrainDistributed(cluster, data.train, spec.quadrant,
                                       TrainOptions(spec));
  call.cost = ClockSample::Now() - before;
  if (call.result.status.ok()) {
    const std::string text = vero::ModelToText(call.result.model);
    call.digest = vero::AuditDigestBytes(text.data(), text.size());
  }
  return call;
}

std::vector<double> ReferenceMargins(const GbdtModel& model,
                                     const CsrMatrix& rows) {
  std::vector<double> out(rows.num_rows(), 0.0);
  for (vero::InstanceId i = 0; i < rows.num_rows(); ++i) {
    for (const vero::Tree& tree : model.trees()) {
      tree.PredictInto(rows.RowFeatures(i), rows.RowValues(i),
                       model.learning_rate(), &out[i]);
    }
  }
  return out;
}

ServeRun RunServing(const vero::serve::FlatForest& forest,
                    const CsrMatrix& rows, const std::vector<double>& reference,
                    uint32_t threads, uint32_t batch, size_t min_calls,
                    double budget_s) {
  vero::serve::ServeOptions options;
  options.num_threads = threads;
  const vero::serve::BatchPredictor predictor(&forest, options);
  std::vector<double> out(batch);
  ServeRun run;
  const uint32_t windows = rows.num_rows() / batch;
  const double start = NowSeconds();
  for (size_t call = 0;
       call < min_calls || NowSeconds() - start < budget_s; ++call) {
    const vero::InstanceId begin =
        static_cast<vero::InstanceId>((call % windows) * batch);
    const double t0 = NowSeconds();
    predictor.PredictCsrMargins(rows, begin, begin + batch, out.data());
    run.seconds.push_back(NowSeconds() - t0);
    ++run.attempted;
    if (std::memcmp(out.data(), reference.data() + begin,
                    batch * sizeof(double)) != 0) {
      ++run.failed;
    }
  }
  return run;
}

}  // namespace perfbench
