// Compressed-communication sweep: goodput vs histogram density under the
// CollectiveCompression codec (docs/wire_formats.md). For each dataset
// density x quadrant cell the same workload is trained under all four
// compression modes; because compression=off delegates straight to the
// uncompressed collectives and the lossless modes reconstruct bit-exact
// payloads, every lossless cell trains the identical model — only the bytes
// on the wire (and therefore the modeled network seconds) change.
//
// Reported per run: modeled train/comm seconds, total bytes on the wire,
// the codec's raw-vs-encoded histogram volume (comm.<Op>.raw_bytes /
// comm.<Op>.compressed_bytes), block-shape counters, the model digest, and
// goodput = useful (uncompressed-equivalent) histogram bytes delivered per
// modeled network second — the numerator is mode-independent within a
// cell, so goodput ratios compare transport efficiency, not payload
// accounting.
//
// Run with [--json out.json] [--report out.json]; scripts/check_bench_comm.py
// validates the emitted "vero.comm_bench.v1" file (the check_bench_comm
// ctest runs it at a tiny scale).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/json_writer.h"

namespace vero {
namespace bench {
namespace {

const char* QuadrantTag(Quadrant quadrant) {
  return quadrant == Quadrant::kQD1 ? "qd1" : "qd2";
}

uint64_t Counter(const DistResult& result, const std::string& name) {
  return result.report.enabled ? result.report.metrics.CounterValue(name) : 0;
}

// Sums comm.<Op>.raw_bytes / comm.<Op>.compressed_bytes over all ops.
uint64_t SumOpCounters(const DistResult& result, const char* suffix) {
  uint64_t total = 0;
  for (int op = 0; op < kNumCollectiveOps; ++op) {
    const std::string name =
        std::string("comm.") +
        CollectiveOpToString(static_cast<CollectiveOp>(op)) + "." + suffix;
    total += Counter(result, name);
  }
  return total;
}

struct Row {
  std::string label;
  const char* quadrant;
  const char* mode;
  double density = 0.0;
  int workers = 0;
  double train_seconds = 0.0;
  double comm_seconds = 0.0;
  uint64_t bytes_on_wire = 0;
  uint64_t hist_raw_bytes = 0;
  uint64_t hist_wire_bytes = 0;
  uint64_t blocks_dense = 0;
  uint64_t blocks_sparse = 0;
  uint64_t blocks_quantized = 0;
  uint64_t model_digest = 0;
  double goodput = 0.0;  // filled once the cell's raw reference is known
};

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "comm_sweep: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  obs::JsonWriter w(os);
  w.BeginObject();
  w.Key("schema");
  w.String("vero.comm_bench.v1");
  w.Key("scale");
  w.Double(Scale());
  w.Key("runs");
  w.BeginArray();
  for (const Row& row : rows) {
    w.BeginObject();
    w.Key("label");
    w.String(row.label);
    w.Key("quadrant");
    w.String(row.quadrant);
    w.Key("mode");
    w.String(row.mode);
    w.Key("density");
    w.Double(row.density);
    w.Key("workers");
    w.Int(row.workers);
    w.Key("train_seconds");
    w.Double(row.train_seconds);
    w.Key("comm_seconds");
    w.Double(row.comm_seconds);
    w.Key("bytes_on_wire");
    w.UInt(row.bytes_on_wire);
    w.Key("hist_raw_bytes");
    w.UInt(row.hist_raw_bytes);
    w.Key("hist_wire_bytes");
    w.UInt(row.hist_wire_bytes);
    w.Key("blocks_dense");
    w.UInt(row.blocks_dense);
    w.Key("blocks_sparse");
    w.UInt(row.blocks_sparse);
    w.Key("blocks_quantized");
    w.UInt(row.blocks_quantized);
    w.Key("model_digest");
    w.UInt(row.model_digest);
    w.Key("goodput");
    w.Double(row.goodput);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << "\n";
}

void Main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }

  PrintHeader(
      "Comm sweep: compressed histogram exchange (QD1/QD2, W=4)",
      "Fu et al., VLDB'19, SS4.3 communication-cost discussion; sparse / "
      "quantized gradient-histogram compression literature (see "
      "docs/wire_formats.md)",
      "at low density the sparse codecs cut bytes on the wire by the bin "
      "occupancy ratio with bit-identical models; at full density the "
      "dense fallback keeps the overhead (and goodput regression) within "
      "a few percent");

  const double kDensities[] = {0.02, 0.05, 0.1, 0.5, 1.0};
  const Quadrant kQuadrants[] = {Quadrant::kQD1, Quadrant::kQD2};
  const CollectiveCompression kModes[] = {
      CollectiveCompression::kOff,
      CollectiveCompression::kSparse,
      CollectiveCompression::kSparseDelta,
      CollectiveCompression::kQuantized,
  };

  std::vector<Row> rows;
  std::printf("\n%-26s %9s %9s %12s %12s %8s\n", "cell", "train(s)",
              "comm(s)", "hist_raw", "hist_wire", "ratio");
  for (double density : kDensities) {
    const Dataset train = MakeWorkload(ScaledN(2400), 40, 2, density,
                                       /*seed=*/31);
    for (Quadrant quadrant : kQuadrants) {
      const size_t cell_begin = rows.size();
      for (CollectiveCompression mode : kModes) {
        BenchRunSpec spec;
        spec.workers = 4;
        spec.options.params = PaperParams(6);
        spec.options.params.num_candidate_splits = 32;
        spec.options.compression = mode;
        spec.force_observe = true;
        char tag[64];
        std::snprintf(tag, sizeof(tag), "cs-d%.2f-%s", density,
                      CollectiveCompressionToString(mode));
        spec.label = tag;
        const DistResult result = RunQuadrantSpec(train, quadrant, spec);
        if (!result.status.ok()) {
          std::printf("%-26s FAILED: %s\n", tag,
                      result.status.ToString().c_str());
          std::exit(1);
        }
        Row row;
        row.label = std::string(QuadrantTag(quadrant)) + "-" + tag;
        row.quadrant = QuadrantTag(quadrant);
        row.mode = CollectiveCompressionToString(mode);
        row.density = density;
        row.workers = spec.workers;
        row.train_seconds = result.TrainSeconds();
        row.comm_seconds = result.TotalCommSeconds();
        row.bytes_on_wire = result.train_bytes_sent;
        row.hist_raw_bytes = SumOpCounters(result, "raw_bytes");
        row.hist_wire_bytes = SumOpCounters(result, "compressed_bytes");
        row.blocks_dense = Counter(result, "codec.blocks_dense");
        row.blocks_sparse = Counter(result, "codec.blocks_sparse");
        row.blocks_quantized = Counter(result, "codec.blocks_quantized");
        row.model_digest = result.report.model_digest;
        rows.push_back(row);
        std::printf("%-26s %9.4f %9.4f %12llu %12llu %7.2fx\n",
                    row.label.c_str(), row.train_seconds, row.comm_seconds,
                    static_cast<unsigned long long>(row.hist_raw_bytes),
                    static_cast<unsigned long long>(row.hist_wire_bytes),
                    row.hist_wire_bytes > 0
                        ? static_cast<double>(row.hist_raw_bytes) /
                              static_cast<double>(row.hist_wire_bytes)
                        : 1.0);
      }
      // Goodput: uncompressed-equivalent histogram bytes delivered per
      // modeled *network* second (the codec's encode/decode CPU shows up in
      // the reported train_seconds, not here). The numerator is the cell's
      // raw histogram volume — identical across modes (same op stream, same
      // logical payloads), and read from the codec runs because the off run
      // records no codec counters by design.
      uint64_t raw_ref = 0;
      for (size_t i = cell_begin; i < rows.size(); ++i) {
        raw_ref = std::max(raw_ref, rows[i].hist_raw_bytes);
      }
      for (size_t i = cell_begin; i < rows.size(); ++i) {
        rows[i].goodput =
            rows[i].comm_seconds > 0.0
                ? static_cast<double>(raw_ref) / rows[i].comm_seconds
                : 0.0;
      }
    }
  }

  if (!json_path.empty()) {
    WriteJson(json_path, rows);
    std::printf("\ncomm sweep report: %s (%zu runs)\n", json_path.c_str(),
                rows.size());
  }
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  vero::bench::Main(argc, argv);
  return 0;
}
