// Command-line trainer: train a GBDT from a LIBSVM file (or a built-in
// synthetic profile), evaluate, and save the model — the "downstream user"
// entry point.
//
// Usage:
//   vero_train_cli --data <file.libsvm> [--task binary|multiclass|regression]
//                  [--valid-fraction 0.2] [--trees 100] [--layers 8]
//                  [--bins 20] [--learning-rate 0.1] [--leaf-wise]
//                  [--max-leaves N] [--row-subsample F] [--col-subsample F]
//                  [--early-stopping R] [--workers W] [--quadrant qd1..qd4]
//                  [--compression off|sparse|sparse_delta|quantized]
//                  [--model out.bin] [--importance]
//   vero_train_cli --profile RCV1 ...   (synthetic stand-in instead of file)
//
// Serving mode (no training): score a LIBSVM file with a saved model
// through the flat-forest batched predictor (src/serve/):
//   vero_train_cli --predict --model model.bin --data test.libsvm
//                  [--out preds.txt] [--margins] [--batch 8192] [--threads N]

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "cluster/communicator.h"
#include "common/timer.h"
#include "core/metrics.h"
#include "core/model_io.h"
#include "core/trainer.h"
#include "data/libsvm_io.h"
#include "data/synthetic.h"
#include "quadrants/train_distributed.h"
#include "serve/batch_predictor.h"
#include "serve/flat_forest.h"

namespace {

using namespace vero;

struct CliOptions {
  std::string data_path;
  std::string profile;
  std::string task = "binary";
  std::string model_path;
  std::string out_path;
  std::string quadrant;  // empty = single-process reference trainer
  double valid_fraction = 0.2;
  int workers = 4;
  bool importance = false;
  bool predict = false;  // Serving mode: score --data with --model.
  bool margins = false;
  uint32_t batch = 8192;
  uint32_t serve_threads = 1;
  GbdtParams params;
  // Distributed runs only: the reference trainer has no collectives.
  std::optional<CollectiveCompression> compression;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: vero_train_cli (--data <file.libsvm> | --profile <name>)\n"
      "  [--task binary|multiclass|regression] [--valid-fraction F]\n"
      "  [--trees T] [--layers L] [--bins q] [--learning-rate eta]\n"
      "  [--lambda L2] [--gamma G] [--leaf-wise] [--max-leaves N]\n"
      "  [--row-subsample F] [--col-subsample F] [--early-stopping R]\n"
      "  [--quadrant qd1|qd2|qd3|qd4] [--workers W]\n"
      "  [--compression off|sparse|sparse_delta|quantized] (with --quadrant)\n"
      "  [--model out.bin] [--importance]\n"
      "profiles: SUSY Higgs Criteo Epsilon RCV1 Synthesis RCV1-multi\n"
      "          Synthesis-multi Gender Age Taste\n"
      "serving: vero_train_cli --predict --model model.bin --data f.libsvm\n"
      "  [--out preds.txt] [--margins] [--batch 8192] [--threads N]\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* opt) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--data" && (v = need_value(i))) {
      opt->data_path = v;
    } else if (arg == "--profile" && (v = need_value(i))) {
      opt->profile = v;
    } else if (arg == "--task" && (v = need_value(i))) {
      opt->task = v;
    } else if (arg == "--valid-fraction" && (v = need_value(i))) {
      opt->valid_fraction = std::atof(v);
    } else if (arg == "--trees" && (v = need_value(i))) {
      opt->params.num_trees = std::atoi(v);
    } else if (arg == "--layers" && (v = need_value(i))) {
      opt->params.num_layers = std::atoi(v);
    } else if (arg == "--bins" && (v = need_value(i))) {
      opt->params.num_candidate_splits = std::atoi(v);
    } else if (arg == "--learning-rate" && (v = need_value(i))) {
      opt->params.learning_rate = std::atof(v);
    } else if (arg == "--lambda" && (v = need_value(i))) {
      opt->params.reg_lambda = std::atof(v);
    } else if (arg == "--gamma" && (v = need_value(i))) {
      opt->params.reg_gamma = std::atof(v);
    } else if (arg == "--leaf-wise") {
      opt->params.growth = GrowthPolicy::kLeafWise;
    } else if (arg == "--max-leaves" && (v = need_value(i))) {
      opt->params.max_leaves = std::atoi(v);
    } else if (arg == "--row-subsample" && (v = need_value(i))) {
      opt->params.row_subsample = std::atof(v);
    } else if (arg == "--col-subsample" && (v = need_value(i))) {
      opt->params.column_subsample = std::atof(v);
    } else if (arg == "--early-stopping" && (v = need_value(i))) {
      opt->params.early_stopping_rounds = std::atoi(v);
    } else if (arg == "--compression" && (v = need_value(i))) {
      const std::string mode = v;
      if (mode == "off") {
        opt->compression = CollectiveCompression::kOff;
      } else if (mode == "sparse") {
        opt->compression = CollectiveCompression::kSparse;
      } else if (mode == "sparse_delta") {
        opt->compression = CollectiveCompression::kSparseDelta;
      } else if (mode == "quantized") {
        opt->compression = CollectiveCompression::kQuantized;
      } else {
        std::fprintf(stderr, "unknown --compression mode: %s\n", v);
        return false;
      }
    } else if (arg == "--quadrant" && (v = need_value(i))) {
      opt->quadrant = v;
    } else if (arg == "--workers" && (v = need_value(i))) {
      opt->workers = std::atoi(v);
    } else if (arg == "--model" && (v = need_value(i))) {
      opt->model_path = v;
    } else if (arg == "--out" && (v = need_value(i))) {
      opt->out_path = v;
    } else if (arg == "--importance") {
      opt->importance = true;
    } else if (arg == "--predict") {
      opt->predict = true;
    } else if (arg == "--margins") {
      opt->margins = true;
    } else if (arg == "--batch" && (v = need_value(i))) {
      opt->batch = std::atoi(v);
    } else if (arg == "--threads" && (v = need_value(i))) {
      opt->serve_threads = std::atoi(v);
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (opt->predict) {
    if (opt->model_path.empty() || opt->data_path.empty()) {
      std::fprintf(stderr, "--predict requires --model and --data\n");
      return false;
    }
    return true;
  }
  if (opt->data_path.empty() == opt->profile.empty()) {
    std::fprintf(stderr,
                 "exactly one of --data or --profile is required\n");
    return false;
  }
  if (opt->compression.has_value() && opt->quadrant.empty()) {
    std::fprintf(stderr, "--compression requires --quadrant\n");
    return false;
  }
  return true;
}

StatusOr<Dataset> LoadData(const CliOptions& opt) {
  if (!opt.profile.empty()) {
    return GenerateFromProfile(FindProfile(opt.profile), 1.0);
  }
  LibsvmReadOptions read;
  if (opt.task == "multiclass") {
    read.task = Task::kMultiClass;
  } else if (opt.task == "regression") {
    read.task = Task::kRegression;
  } else {
    read.task = Task::kBinary;
  }
  return ReadLibsvmFile(opt.data_path, read);
}

// --predict: compile the saved model into a FlatForest and score the file
// in batches through the cache-tiled predictor (bit-identical to the
// per-row path; see docs/serving.md).
int RunPredict(const CliOptions& opt) {
  auto model_or = LoadModel(opt.model_path);
  if (!model_or.ok()) {
    std::fprintf(stderr, "failed to load model: %s\n",
                 model_or.status().ToString().c_str());
    return 1;
  }
  const GbdtModel& model = model_or.value();

  LibsvmReadOptions read;
  read.task = model.task();
  if (model.task() == Task::kMultiClass) {
    read.num_classes = model.num_classes();
  }
  auto data_or = ReadLibsvmFile(opt.data_path, read);
  if (!data_or.ok()) {
    std::fprintf(stderr, "failed to load data: %s\n",
                 data_or.status().ToString().c_str());
    return 1;
  }
  const Dataset& data = data_or.value();

  auto forest_or = serve::FlatForest::FromModel(model);
  if (!forest_or.ok()) {
    std::fprintf(stderr, "model rejected by serving compiler: %s\n",
                 forest_or.status().ToString().c_str());
    return 1;
  }
  const serve::FlatForest& forest = forest_or.value();

  serve::ServeOptions serve_options;
  serve_options.num_threads = std::max(1u, opt.serve_threads);
  if (!serve_options.Validate().ok()) {
    std::fprintf(stderr, "bad serving options (--threads in [1,256])\n");
    return 2;
  }
  const serve::BatchPredictor predictor(&forest, serve_options);

  FILE* out = stdout;
  if (!opt.out_path.empty()) {
    out = std::fopen(opt.out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opt.out_path.c_str());
      return 1;
    }
  }

  const uint32_t dims = forest.num_dims();
  const uint32_t batch = std::max(1u, opt.batch);
  const CsrMatrix& m = data.matrix();
  std::vector<double> buffer(static_cast<size_t>(batch) * dims);
  const bool raw = opt.margins || model.task() == Task::kRegression;
  WallTimer timer;
  double score_seconds = 0.0;
  for (InstanceId b = 0; b < data.num_instances(); b += batch) {
    const InstanceId e = std::min<InstanceId>(b + batch,
                                              data.num_instances());
    WallTimer block_timer;
    if (raw) {
      predictor.PredictCsrMargins(m, b, e, buffer.data());
    } else {
      predictor.PredictCsrProba(m, b, e, buffer.data());
    }
    block_timer.Stop();
    score_seconds += block_timer.Seconds();
    for (InstanceId i = b; i < e; ++i) {
      const double* row = buffer.data() + static_cast<size_t>(i - b) * dims;
      for (uint32_t k = 0; k < dims; ++k) {
        std::fprintf(out, k + 1 == dims ? "%.6g\n" : "%.6g ", row[k]);
      }
    }
  }
  timer.Stop();
  if (out != stdout) std::fclose(out);

  std::fprintf(stderr,
               "scored %u rows with %zu trees (%u internal nodes): "
               "%.0f rows/s scoring, %.2fs total (batch=%u threads=%u)\n",
               data.num_instances(), model.num_trees(),
               forest.num_internal_nodes(),
               data.num_instances() / std::max(score_seconds, 1e-9),
               timer.Seconds(), batch, serve_options.num_threads);
  const MetricValue metric = EvaluateModel(model, data);
  std::fprintf(stderr, "%s on %u instances: %.5f\n", metric.name.c_str(),
               data.num_instances(), metric.value);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!ParseArgs(argc, argv, &opt)) {
    PrintUsage();
    return 2;
  }
  if (opt.predict) return RunPredict(opt);
  auto data_or = LoadData(opt);
  if (!data_or.ok()) {
    std::fprintf(stderr, "failed to load data: %s\n",
                 data_or.status().ToString().c_str());
    return 1;
  }
  const Dataset& data = data_or.value();
  std::printf("data: %u instances, %u features, %u classes, task=%s\n",
              data.num_instances(), data.num_features(), data.num_classes(),
              TaskToString(data.task()));

  Dataset train_storage, valid_storage;
  const Dataset* train = &data;
  const Dataset* valid = nullptr;
  if (opt.valid_fraction > 0.0 && opt.valid_fraction < 1.0 &&
      data.num_instances() >= 10) {
    auto split = data.SplitTail(opt.valid_fraction);
    train_storage = std::move(split.first);
    valid_storage = std::move(split.second);
    train = &train_storage;
    valid = &valid_storage;
  }

  GbdtModel model;
  if (opt.quadrant.empty()) {
    Trainer trainer(opt.params);
    auto model_or =
        trainer.Train(*train, valid, [](const IterationStats& it) {
          if ((it.tree_index + 1) % 10 == 0 || it.tree_index == 0) {
            std::printf("  round %3u  train-loss %.5f", it.tree_index + 1,
                        it.train_loss);
            if (it.has_valid_metric) {
              std::printf("  valid %.5f", it.valid_metric);
            }
            std::printf("\n");
          }
        });
    if (!model_or.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   model_or.status().ToString().c_str());
      return 1;
    }
    model = std::move(model_or).value();
    std::printf("trained %zu trees in %.2fs (best round %u)\n",
                model.num_trees(), trainer.report().total_seconds,
                trainer.report().best_iteration + 1);
  } else {
    Quadrant quadrant;
    if (opt.quadrant == "qd1") {
      quadrant = Quadrant::kQD1;
    } else if (opt.quadrant == "qd2") {
      quadrant = Quadrant::kQD2;
    } else if (opt.quadrant == "qd3") {
      quadrant = Quadrant::kQD3;
    } else if (opt.quadrant == "qd4") {
      quadrant = Quadrant::kQD4;
    } else {
      std::fprintf(stderr, "unknown quadrant: %s\n", opt.quadrant.c_str());
      return 2;
    }
    Cluster cluster(opt.workers);
    DistTrainOptions options;
    options.params = opt.params;
    options.compression =
        opt.compression.value_or(CollectiveCompression::kOff);
    const DistResult result =
        TrainDistributed(cluster, *train, quadrant, options, valid);
    if (!result.status.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   result.status.ToString().c_str());
      return 1;
    }
    model = result.model;
    std::printf(
        "trained %zu trees on %d simulated workers (%s): modeled %.2fs "
        "(comp %.2fs, comm %.2fs), %.2f MB moved\n",
        model.num_trees(), opt.workers, QuadrantToString(quadrant),
        result.TrainSeconds(), result.TotalCompSeconds(),
        result.TotalCommSeconds(), result.train_bytes_sent / 1e6);
  }

  const MetricValue train_metric = EvaluateModel(model, *train);
  std::printf("train %s: %.5f\n", train_metric.name.c_str(),
              train_metric.value);
  if (valid != nullptr) {
    const MetricValue valid_metric = EvaluateModel(model, *valid);
    std::printf("valid %s: %.5f\n", valid_metric.name.c_str(),
                valid_metric.value);
  }

  if (opt.importance) {
    std::vector<double> gain = model.FeatureImportance(
        data.num_features(), GbdtModel::ImportanceType::kGain);
    std::printf("top features by gain:\n");
    for (int rank = 0; rank < 10; ++rank) {
      uint32_t best = 0;
      double best_gain = -1.0;
      for (uint32_t f = 0; f < gain.size(); ++f) {
        if (gain[f] > best_gain) {
          best_gain = gain[f];
          best = f;
        }
      }
      if (best_gain <= 0) break;
      std::printf("  f%-6u %.4f\n", best, best_gain);
      gain[best] = -1.0;
    }
  }

  if (!opt.model_path.empty()) {
    const Status status = SaveModel(model, opt.model_path);
    if (!status.ok()) {
      std::fprintf(stderr, "failed to save model: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("model saved to %s\n", opt.model_path.c_str());
  }
  return 0;
}
