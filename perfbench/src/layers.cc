#include "layers.h"

#include <cstring>
#include <limits>
#include <numeric>
#include <span>

#include "core/binned.h"
#include "core/hist_builder.h"
#include "core/loss.h"
#include "core/split.h"

namespace perfbench {

using vero::obs::TraceEvent;

namespace {

// Collective ops the trainers issue, by their CollectiveOpToString names.
const char* const kOps[] = {"AllReduceSum", "AllToAll", "AllGather",
                            "Broadcast", "Gather"};

// The depth-4 layer every histogram replay builds: 16 frontier nodes.
constexpr vero::NodeId kMidFirstNode = 15;
constexpr uint32_t kMidNodes = 16;

std::vector<LayerMetric> BuildTable() {
  std::vector<LayerMetric> t = {
      {"quadrants.phase_cpu_s_per_tree.gradient", "s",
       "modeled_s_per_tree on higgs-vero"},
      {"quadrants.phase_cpu_s_per_tree.hist", "s",
       "modeled_s_per_tree on higgs-vero"},
      {"quadrants.phase_cpu_s_per_tree.find_split", "s",
       "modeled_s_per_tree on rcv1-*"},
      {"quadrants.phase_cpu_s_per_tree.node_split", "s",
       "modeled_s_per_tree on higgs-vero"},
      {"quadrants.phase_cpu_s_per_tree.other", "s",
       "modeled_s_per_tree on all training workloads"},
      {"quadrants.comm_share", "ratio", "modeled_s_per_tree on rcv1-*"},
  };
  static const char* const kFields[][2] = {{"calls_per_tree", "count"},
                                           {"mb_per_tree", "MB"},
                                           {"wall_ms_per_tree", "ms"},
                                           {"wait_ms_per_tree", "ms"}};
  for (const char* op : kOps) {
    const char* moves =
        std::strcmp(op, "AllReduceSum") == 0
            ? "train_s_per_tree, cpu_s_per_tree on rcv1-qd1"
        : std::strcmp(op, "AllToAll") == 0
            ? "train_s_per_tree, cpu_s_per_tree on rcv1-qd2"
            : "train_s_per_tree; no change on higgs-vero";
    for (const auto& field : kFields) {
      t.push_back({std::string("cluster.") + op + "." + field[0], field[1],
                   moves});
    }
  }
  const std::vector<LayerMetric> rest = {
      {"cluster.allreduce_ms_per_mb", "ms/MB", "train_s_per_tree on rcv1-qd1"},
      {"cluster.alltoall_ms_per_mb", "ms/MB", "train_s_per_tree on rcv1-qd2"},
      {"cluster.modeled_comm_s_per_tree", "s", "modeled_s_per_tree on rcv1-*"},
      {"cluster.retries", "count", "must stay 0 on every workload"},
      {"cluster.wasted_mb", "MB", "must stay 0 on every workload"},
      {"core.hist.layer_ms.root", "ms",
       "train_s_per_tree on higgs-vero (row store), rcv1-qd1 (column sweep)"},
      {"core.hist.layer_ms.mid", "ms",
       "train_s_per_tree on higgs-vero (row store), rcv1-qd1 (column sweep)"},
      {"core.hist.entries_per_s", "1/s",
       "train_s_per_tree on higgs-vero, rcv1-qd1"},
      {"core.split_ms_per_layer", "ms", "train_s_per_tree on rcv1-*"},
      {"core.gradient_ms_per_tree", "ms", "train_s_per_tree on higgs-vero"},
      {"core.hist.peak_pool_mb", "MB", "peak_rss_mb on rcv1-*"},
      {"sketch.candidate_splits_s", "s", "setup_s on rcv1-*"},
      {"partition.transform_s", "s", "setup_s on higgs-vero"},
      {"partition.sketch_cpu_s", "s", "setup_s on higgs-vero"},
      {"partition.encode_cpu_s", "s", "setup_s on higgs-vero"},
      {"partition.decode_cpu_s", "s", "setup_s on higgs-vero"},
      {"partition.repartition_mb", "MB", "setup_s on higgs-vero"},
      {"data.store_mb", "MB", "peak_rss_mb on higgs-vero"},
      {"serve.compile_ms", "ms",
       "none: paid once before serving, on every workload"},
      {"serve.ns_per_row_tree.b64", "ns",
       "serve_b64_ms_p50, serve_b64_ms_p99 on every workload"},
      {"serve.ns_per_row_tree.bulk", "ns",
       "serve_bulk_rows_per_s on every workload"},
      {"serve.threads_gain_b64", "ratio",
       "none: 64-row calls gain from 4 threads only if it exceeds 1"},
      {"proc.minor_faults_per_tree", "count",
       "cpu_s_per_tree on rcv1-qd2; no change on higgs-vero"},
      {"proc.user_s_per_tree", "s",
       "cpu_s_per_tree on rcv1-qd2; no change on higgs-vero"},
      {"proc.sys_s_per_tree", "s",
       "cpu_s_per_tree on rcv1-qd2; no change on higgs-vero"},
      {"obs.trace_overhead_pct", "%",
       "none: traced vs untraced train_s_per_tree"},
  };
  t.insert(t.end(), rest.begin(), rest.end());
  return t;
}

// Median wall seconds of `fn()` over at least `min_reps` runs and
// `budget_s` seconds. `prepare()` runs untimed before each rep.
template <typename Prepare, typename Fn>
double MedianSeconds(double budget_s, int min_reps, const Prepare& prepare,
                     const Fn& fn) {
  std::vector<double> samples;
  const double start = NowSeconds();
  while (static_cast<int>(samples.size()) < min_reps ||
         NowSeconds() - start < budget_s) {
    prepare();
    const double t0 = NowSeconds();
    fn();
    samples.push_back(NowSeconds() - t0);
  }
  return Median(samples);
}

// Per-rank seconds of one collective call, median over a closed loop on a
// fresh cluster. Every rank issues the same op sequence (SPMD); a barrier
// lines the ranks up before each call and rank 0 times it.
double ReplayCollective(const char* op, size_t payload_bytes,
                        double budget_s) {
  constexpr int kCallsPerRun = 4;
  vero::Cluster cluster(kWorkers);
  std::vector<double> samples;
  const bool reduce = std::strcmp(op, "AllReduceSum") == 0;
  const double start = NowSeconds();
  while (samples.size() < 8 || NowSeconds() - start < budget_s) {
    cluster.Run([&](vero::WorkerContext& ctx) {
      std::vector<double> data(reduce ? payload_bytes / sizeof(double) : 0,
                               1.0);
      const size_t each = payload_bytes / (kWorkers - 1);
      std::vector<std::vector<uint8_t>> from_each;
      for (int k = 0; k < kCallsPerRun; ++k) {
        std::vector<std::vector<uint8_t>> to_each(
            reduce ? 0 : kWorkers, std::vector<uint8_t>(each, 1));
        VERO_COMM_OK(ctx.Barrier());
        const double t0 = NowSeconds();
        if (reduce) {
          VERO_COMM_OK(ctx.AllReduceSum(data));
        } else {
          VERO_COMM_OK(ctx.AllToAll(std::move(to_each), &from_each));
        }
        if (ctx.rank() == 0) samples.push_back(NowSeconds() - t0);
      }
    });
  }
  return Median(samples);
}

// Rows of each depth-4 node: a fixed hash of the row id, so the layout is
// identical on every run and the nodes are evenly and irregularly filled.
std::vector<std::vector<vero::InstanceId>> MidLayerRows(uint32_t n) {
  std::vector<std::vector<vero::InstanceId>> rows(kMidNodes);
  for (vero::InstanceId i = 0; i < n; ++i) {
    rows[(i * 2654435761u >> 7) % kMidNodes].push_back(i);
  }
  return rows;
}

vero::GradStats SumGrads(const vero::GradientBuffer& grads,
                         std::span<const vero::InstanceId> rows) {
  vero::GradStats total(1);
  for (const vero::InstanceId i : rows) total[0] += *grads.row(i);
  return total;
}

// Row-store replay: the root layer builds one node over all rows, the mid
// layer builds the smaller child of each of the 8 sibling pairs (the
// subtraction schema the row-store quadrants use).
template <typename Store>
void ReplayRowStore(const Store& store, uint32_t num_features, uint32_t n,
                    const vero::GradientBuffer& grads, double budget_s,
                    std::vector<vero::Histogram>* mid, Values* out,
                    double* entries_per_s) {
  vero::HistogramBuilder builder(1);
  std::vector<vero::InstanceId> all(n);
  std::iota(all.begin(), all.end(), 0);
  const auto node_rows = MidLayerRows(n);
  vero::Histogram root(num_features, kBins, 1);
  mid->assign(kMidNodes / 2, vero::Histogram(num_features, kBins, 1));
  std::vector<vero::HistogramBuilder::NodeRows> root_task = {{&root, all}};
  std::vector<vero::HistogramBuilder::NodeRows> mid_tasks;
  uint64_t root_entries = 0;
  uint64_t mid_entries = 0;
  for (const vero::InstanceId i : all) {
    root_entries += store.RowFeatures(i).size();
  }
  for (uint32_t j = 0; j < kMidNodes / 2; ++j) {
    mid_tasks.push_back({&(*mid)[j], node_rows[2 * j]});
    for (const vero::InstanceId i : node_rows[2 * j]) {
      mid_entries += store.RowFeatures(i).size();
    }
  }
  const double root_s = MedianSeconds(
      budget_s / 2, 5, [&] { root.Clear(); },
      [&] {
        builder.BuildRowStoreLayer(
            store, grads,
            std::span<const vero::HistogramBuilder::NodeRows>(root_task), 0,
            num_features, num_features);
      });
  const double mid_s = MedianSeconds(
      budget_s / 2, 5, [&] { for (auto& h : *mid) h.Clear(); },
      [&] {
        builder.BuildRowStoreLayer(
            store, grads,
            std::span<const vero::HistogramBuilder::NodeRows>(mid_tasks), 0,
            num_features, num_features);
      });
  (*out)["core.hist.layer_ms.root"] = root_s * 1e3;
  (*out)["core.hist.layer_ms.mid"] = mid_s * 1e3;
  *entries_per_s = (root_entries + mid_entries) / (root_s + mid_s);
}

}  // namespace

const std::vector<LayerMetric>& LayerTable() {
  static const std::vector<LayerMetric>* table =
      new std::vector<LayerMetric>(BuildTable());
  return *table;
}

Values TracedCallMetrics(const TrainCall& call,
                         const vero::obs::RunObserver& observer,
                         uint32_t trees) {
  const vero::DistResult& r = call.result;
  const vero::obs::RunReport::Phases& p = r.report.phases;
  Values v;
  v["quadrants.phase_cpu_s_per_tree.gradient"] = p.gradient / trees;
  v["quadrants.phase_cpu_s_per_tree.hist"] = p.hist / trees;
  v["quadrants.phase_cpu_s_per_tree.find_split"] = p.find_split / trees;
  v["quadrants.phase_cpu_s_per_tree.node_split"] = p.node_split / trees;
  v["quadrants.phase_cpu_s_per_tree.other"] = p.other / trees;
  v["quadrants.comm_share"] = r.TotalCommSeconds() / r.TrainSeconds();
  v["cluster.modeled_comm_s_per_tree"] = r.TotalCommSeconds() / trees;
  v["cluster.retries"] =
      static_cast<double>(r.report.metrics.CounterValue("comm.retries"));
  v["cluster.wasted_mb"] = r.wasted_bytes / 1e6;
  v["core.hist.peak_pool_mb"] = r.peak_histogram_bytes / 1e6;
  v["data.store_mb"] = r.data_bytes / 1e6;

  // One logical collective = the spans of every rank sharing
  // (incarnation, op_id). Set-up collectives (tree -1) are excluded.
  struct Group {
    const char* name = "";
    int64_t first_begin = std::numeric_limits<int64_t>::max();
    int64_t last_begin = std::numeric_limits<int64_t>::min();
    int64_t longest = 0;
    uint64_t bytes = 0;
  };
  std::map<std::pair<int32_t, int64_t>, Group> groups;
  for (const TraceEvent& e : observer.trace().MergedEvents()) {
    if (std::strcmp(e.category, "collective") != 0 || e.tree < 0) continue;
    Group& g = groups[{e.incarnation, e.op_id}];
    g.name = e.name;
    g.first_begin = std::min(g.first_begin, e.wall_begin_us);
    g.last_begin = std::max(g.last_begin, e.wall_begin_us);
    g.longest = std::max(g.longest, e.wall_end_us - e.wall_begin_us);
    g.bytes += e.bytes;
  }
  double all_calls = 0.0;
  double all_bytes = 0.0;
  for (const char* op : kOps) {
    double calls = 0.0, bytes = 0.0, wall_us = 0.0, wait_us = 0.0;
    for (const auto& [key, g] : groups) {
      if (std::strcmp(g.name, op) != 0) continue;
      calls += 1.0;
      bytes += static_cast<double>(g.bytes);
      wall_us += static_cast<double>(g.longest);
      wait_us += static_cast<double>(g.last_begin - g.first_begin);
    }
    const std::string base = std::string("cluster.") + op + ".";
    v[base + "calls_per_tree"] = calls / trees;
    v[base + "mb_per_tree"] = bytes / 1e6 / trees;
    v[base + "wall_ms_per_tree"] = wall_us / 1e3 / trees;
    v[base + "wait_ms_per_tree"] = wait_us / 1e3 / trees;
    // Bytes one rank sends per call; converted to the op's payload below.
    v[std::string("replay.") + op + "_sent_bytes"] =
        calls > 0 ? bytes / calls / kWorkers : 0.0;
    all_calls += calls;
    all_bytes += bytes;
  }
  // Payload one rank hands the op. A ring all-reduce charges 2(W-1)/W of
  // the buffer; an all-to-all sends W-1 equal buffers. An op the workload
  // never issues is replayed at the mean bytes per rank of all its calls.
  constexpr double kW = kWorkers;
  const double fallback = all_calls > 0 ? all_bytes / all_calls / kW : 1e6;
  const double reduce_sent = v["replay.AllReduceSum_sent_bytes"];
  const double a2a_sent = v["replay.AllToAll_sent_bytes"];
  v["replay.allreduce_payload_bytes"] =
      reduce_sent > 0 ? reduce_sent * kW / (2 * (kW - 1)) : fallback;
  v["replay.alltoall_payload_bytes"] = a2a_sent > 0 ? a2a_sent : fallback;
  return v;
}

Values CollectiveReplays(const Values& traced, double budget_s) {
  Values v;
  const auto replay = [&](const char* op, const char* payload_key,
                          const char* out_key) {
    // Whole doubles / whole per-peer buffers, at least one of each.
    size_t bytes = static_cast<size_t>(traced.at(payload_key));
    bytes = std::max<size_t>(bytes, 8 * (kWorkers - 1));
    bytes -= bytes % (8 * (kWorkers - 1));
    const double s = ReplayCollective(op, bytes, budget_s);
    v[out_key] = s * 1e3 / (bytes / 1e6);
  };
  replay("AllReduceSum", "replay.allreduce_payload_bytes",
         "cluster.allreduce_ms_per_mb");
  replay("AllToAll", "replay.alltoall_payload_bytes",
         "cluster.alltoall_ms_per_mb");
  return v;
}

Values CoreReplays(const WorkloadSpec& spec, const TrainingSet& data,
                   const SetupRun& candidate, const SetupRun& transform,
                   double budget_s) {
  Values v;
  const bool vertical = SetupOf(spec.quadrant) == SetupKind::kTransform;
  // Rows one worker owns: its shard (horizontal) or every row (vertical).
  const vero::Dataset& rank0 = data.shards[0];
  const std::vector<float>& labels =
      vertical ? data.train.labels() : rank0.labels();
  const uint32_t n = static_cast<uint32_t>(labels.size());

  const vero::LogisticLoss loss;
  const std::vector<double> margins(n, 0.0);
  vero::GradientBuffer grads(n, 1);
  v["core.gradient_ms_per_tree"] =
      1e3 * MedianSeconds(budget_s * 0.1, 5, [] {}, [&] {
        vero::ComputeGradientsParallel(loss, labels, margins, n, 1, &grads);
      });

  // Histograms of the depth-4 layer, for the split replay.
  std::vector<vero::Histogram> mid;
  std::vector<vero::FeatureId> global_ids;
  double entries_per_s = 0.0;
  const double hist_budget = budget_s * 0.6;
  if (vertical) {
    const vero::VerticalShard& shard = transform.vertical;
    global_ids = shard.owned_features;
    ReplayRowStore(shard.data, static_cast<uint32_t>(global_ids.size()), n,
                   grads, hist_budget, &mid, &v, &entries_per_s);
  } else if (spec.quadrant == vero::Quadrant::kQD1) {
    // Column store, one sweep per layer over every column, driven by the
    // instance-to-node index (no subtraction in QD1).
    const vero::BinnedColumnStore store =
        vero::BinnedColumnStore::FromCsr(rank0.matrix(), candidate.splits);
    const uint32_t d = store.num_features();
    global_ids.resize(d);
    std::iota(global_ids.begin(), global_ids.end(), 0);
    vero::HistogramBuilder builder(1);
    vero::InstanceToNode node_of;
    node_of.Init(n);
    std::vector<vero::Histogram*> hist_of_node(kMidFirstNode + kMidNodes,
                                               nullptr);
    vero::Histogram root(d, kBins, 1);
    hist_of_node[0] = &root;
    const double root_s = MedianSeconds(
        hist_budget / 2, 5, [&] { root.Clear(); },
        [&] { builder.BuildColumnStoreSweep(store, grads, node_of,
                                            hist_of_node); });
    hist_of_node[0] = nullptr;
    mid.assign(kMidNodes, vero::Histogram(d, kBins, 1));
    const auto node_rows = MidLayerRows(n);
    for (uint32_t j = 0; j < kMidNodes; ++j) {
      hist_of_node[kMidFirstNode + j] = &mid[j];
      for (const vero::InstanceId i : node_rows[j]) {
        node_of.Set(i, kMidFirstNode + static_cast<vero::NodeId>(j));
      }
    }
    const double mid_s = MedianSeconds(
        hist_budget / 2, 5, [&] { for (auto& h : mid) h.Clear(); },
        [&] { builder.BuildColumnStoreSweep(store, grads, node_of,
                                            hist_of_node); });
    v["core.hist.layer_ms.root"] = root_s * 1e3;
    v["core.hist.layer_ms.mid"] = mid_s * 1e3;
    entries_per_s = 2.0 * store.num_entries() / (root_s + mid_s);
  } else {
    const vero::BinnedRowStore store =
        vero::BinnedRowStore::FromCsr(rank0.matrix(), candidate.splits);
    global_ids.resize(store.num_features());
    std::iota(global_ids.begin(), global_ids.end(), 0);
    ReplayRowStore(store, store.num_features(), n, grads, hist_budget, &mid,
                   &v, &entries_per_s);
  }
  v["core.hist.entries_per_s"] = entries_per_s;

  // One 16-node layer of split finding. Row-store replays built only the
  // 8 smaller children; their siblings' scans cost the same, so each built
  // histogram is searched twice.
  const vero::CandidateSplits& splits =
      vertical ? transform.vertical.splits : candidate.splits;
  const auto node_rows = MidLayerRows(n);
  std::vector<vero::GradStats> stats;
  for (uint32_t j = 0; j < kMidNodes; ++j) {
    stats.push_back(SumGrads(grads, node_rows[j]));
  }
  const vero::SplitFinder finder(1.0, 0.0, 0.0);
  v["core.split_ms_per_layer"] =
      1e3 * MedianSeconds(budget_s * 0.3, 5, [] {}, [&] {
        for (uint32_t j = 0; j < kMidNodes; ++j) {
          finder.FindBest(mid[j % mid.size()], stats[j], global_ids, splits);
        }
      });
  return v;
}

}  // namespace perfbench
