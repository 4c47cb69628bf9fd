#include "partition/transform.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "sketch/quantile_summary.h"

namespace vero {
namespace {

// Emulated per-row serialization overhead (object headers etc.) charged to
// the non-blockified encodings; blockify exists precisely to amortize this
// across whole arrays (§4.2.3, Table 5).
constexpr uint32_t kPerRowObjectOverhead = 16;

// Bytes needed to address values in [0, n): the dlog(p) / dlog(q) encoding
// of §4.2.1 step 3.
uint32_t BytesForRange(uint64_t n) {
  uint32_t bits = 1;
  while ((uint64_t{1} << bits) < n && bits < 63) ++bits;
  return (bits + 7) / 8;
}

// Column-group entry fields are little-endian like ByteWriter's fixed-width
// writes and 1-4 bytes wide (BytesForRange of a u32 count). The width is
// the same for every entry of a block, so the switch predicts perfectly.
void StoreField(uint8_t* dst, uint32_t value, uint32_t width) {
  switch (width) {
    case 1:
      *dst = static_cast<uint8_t>(value);
      return;
    case 2:
      std::memcpy(dst, &value, 2);
      return;
    case 3:
      std::memcpy(dst, &value, 3);
      return;
    default:
      std::memcpy(dst, &value, 4);
  }
}

uint32_t LoadField(const uint8_t* src, uint32_t width) {
  uint32_t value = 0;
  switch (width) {
    case 1:
      return *src;
    case 2:
      std::memcpy(&value, src, 2);
      return value;
    case 3:
      std::memcpy(&value, src, 3);
      return value;
    default:
      std::memcpy(&value, src, 4);
      return value;
  }
}

// Calls fn(id_width, bin_width) with each width as a compile-time constant
// when both are 1 or 2 bytes (groups of up to 65536 features, tables of up
// to 65536 splits), so the decode loops run on fixed-width loads; other
// widths pass as plain values.
template <typename Fn>
auto WithFieldWidths(uint32_t id_width, uint32_t bin_width, Fn&& fn) {
  using One = std::integral_constant<uint32_t, 1>;
  using Two = std::integral_constant<uint32_t, 2>;
  if (id_width == 1) {
    if (bin_width == 1) return fn(One{}, One{});
    if (bin_width == 2) return fn(One{}, Two{});
  } else if (id_width == 2) {
    if (bin_width == 1) return fn(Two{}, One{});
    if (bin_width == 2) return fn(Two{}, Two{});
  }
  return fn(id_width, bin_width);
}

// Stores one (local feature id, bin) entry at `dst`; returns the byte after
// it.
uint8_t* StoreEntry(uint8_t* dst, uint32_t id, uint32_t id_width,
                    uint32_t bin, uint32_t bin_width) {
  StoreField(dst, id, id_width);
  StoreField(dst + id_width, bin, bin_width);
  return dst + id_width + bin_width;
}

}  // namespace

const char* TransformEncodingToString(TransformEncoding e) {
  switch (e) {
    case TransformEncoding::kNaive:
      return "naive";
    case TransformEncoding::kCompressed:
      return "compressed";
    case TransformEncoding::kBlockified:
      return "blockified";
  }
  return "?";
}

std::pair<uint32_t, uint32_t> HorizontalRange(uint32_t num_instances,
                                              int world_size, int rank) {
  const uint64_t n = num_instances;
  const uint32_t begin = static_cast<uint32_t>(n * rank / world_size);
  const uint32_t end = static_cast<uint32_t>(n * (rank + 1) / world_size);
  return {begin, end};
}

CandidateSplits BuildDistributedCandidateSplits(
    WorkerContext& ctx, const Dataset& shard, uint32_t q,
    uint32_t sketch_entries, std::vector<uint64_t>* feature_counts,
    double* sketch_seconds) {
  const int w = ctx.world_size();
  const int rank = ctx.rank();
  const uint32_t d = shard.num_features();
  ThreadCpuTimer cpu;
  // Setup-pipeline span (closed on return); tree/layer stay -1 so round
  // accounting is unaffected. PhaseSpan measures whether or not a trace
  // buffer is attached, keeping accounting identical in both modes.
  obs::PhaseSpan sketch_span(ctx.trace_buffer(), "sketch-build",
                             &ctx.stats().sim_seconds);

  // Step 1a: every feature's summary of this worker's rows, built in one
  // grouped pass. Step 1b: repartition them so feature f's summaries meet
  // on worker f % W.
  std::vector<std::vector<uint8_t>> to_dest(w);
  {
    const CsrMatrix& m = shard.matrix();
    ShardSummaryBuilder summaries(m.features(), m.values(), d,
                                  sketch_entries);
    // Each message is sized once: a u32 id, the u64 entry count and the
    // entries per summary.
    std::vector<size_t> bound(w, 0);
    for (uint32_t f = 0; f < d; ++f) {
      if (summaries.count(f) == 0) continue;
      bound[f % w] += sizeof(uint32_t) + sizeof(uint64_t) +
                      summaries.MaxEntries(f) * sizeof(SummaryEntry);
    }
    std::vector<ByteWriter> writers(w);
    for (int g = 0; g < w; ++g) writers[g].Reserve(bound[g]);
    for (uint32_t f = 0; f < d; ++f) {
      if (summaries.count(f) == 0) continue;
      ByteWriter& writer = writers[f % w];
      writer.WriteU32(f);
      summaries.Summarize(f).SerializeTo(&writer);
    }
    for (int g = 0; g < w; ++g) to_dest[g] = writers[g].TakeData();
  }

  cpu.Stop();
  std::vector<std::vector<uint8_t>> from_src;
  VERO_COMM_OK(ctx.AllToAll(std::move(to_dest), &from_src));
  cpu.Resume();

  // Step 1c: merge each owned feature's summaries in source order. Each
  // source's records ascend by feature, so one look-ahead record per source
  // meets them in step; all scratch is reused across features.
  std::vector<ByteReader> readers;
  readers.reserve(w);
  for (int src = 0; src < w; ++src) readers.emplace_back(from_src[src]);
  std::vector<uint32_t> next(w, d);  // d: the source has no record left
  std::vector<QuantileSummary> pending(w);
  auto advance = [&](int src) {
    const uint32_t min_feature = next[src] == d ? 0 : next[src] + 1;
    next[src] = d;
    if (readers[src].AtEnd()) return;
    const Status status = ReadSketchRecord(&readers[src], d, w, rank,
                                           min_feature, &next[src],
                                           &pending[src]);
    VERO_CHECK(status.ok()) << "sketch summaries from rank " << src << ": "
                            << status.ToString();
  };
  for (int src = 0; src < w; ++src) advance(src);

  // Step 2a: candidate splits for owned features.
  ByteWriter owned_writer;
  QuantileSummary merged, scratch, pruned;
  for (uint32_t f = rank; f < d; f += w) {
    bool seen = false;
    for (int src = 0; src < w; ++src) {
      if (next[src] != f) continue;
      if (!seen) {
        std::swap(merged, pending[src]);
      } else {
        QuantileSummary::MergeInto(merged, pending[src], &scratch);
        std::swap(merged, scratch);
      }
      seen = true;
      advance(src);
    }
    if (!seen) continue;
    merged.PruneInto(sketch_entries, &pruned);
    owned_writer.WriteU32(f);
    owned_writer.WriteU64(static_cast<uint64_t>(pruned.total_weight() + 0.5));
    owned_writer.WriteVector(pruned.ProposeSplits(q));
  }

  // Step 2b: master collects and broadcasts the full split table (plus the
  // per-feature counts that drive load-balanced grouping).
  cpu.Stop();
  std::vector<std::vector<uint8_t>> gathered;
  VERO_COMM_OK(ctx.Gather(owned_writer.data(), /*root=*/0, &gathered));
  cpu.Resume();

  std::vector<uint8_t> full_table;
  if (rank == 0) {
    std::vector<std::vector<float>> all_splits(d);
    std::vector<uint64_t> counts(d, 0);
    for (int src = 0; src < w; ++src) {
      ByteReader reader(gathered[src]);
      uint32_t min_feature = 0;
      while (!reader.AtEnd()) {
        uint32_t f = 0;
        uint64_t count = 0;
        std::vector<float> feature_splits;
        const Status status = ReadSplitRecord(&reader, d, w, src, min_feature,
                                              &f, &count, &feature_splits);
        VERO_CHECK(status.ok()) << "split table from rank " << src << ": "
                                << status.ToString();
        all_splits[f] = std::move(feature_splits);
        counts[f] = count;
        min_feature = f + 1;
      }
    }
    CandidateSplits splits(q, std::move(all_splits));
    ByteWriter writer;
    splits.SerializeTo(&writer);
    writer.WriteVector(counts);
    full_table = writer.TakeData();
  }
  cpu.Stop();
  VERO_COMM_OK(ctx.Broadcast(&full_table, /*root=*/0));
  cpu.Resume();

  ByteReader reader(full_table);
  CandidateSplits splits;
  VERO_CHECK_OK(CandidateSplits::Deserialize(&reader, &splits));
  std::vector<uint64_t> counts;
  VERO_CHECK_OK(reader.ReadVector(&counts));
  if (feature_counts != nullptr) *feature_counts = std::move(counts);
  cpu.Stop();
  if (sketch_seconds != nullptr) *sketch_seconds = cpu.Seconds();
  return splits;
}

namespace {

// Checks a feature id read from a step-1b or step-2a record that `owner`
// sent or should own.
Status CheckRecordFeature(uint32_t f, uint32_t num_features, int world_size,
                          int owner, uint32_t min_feature) {
  const std::string id = "feature id " + std::to_string(f);
  if (f >= num_features) {
    return Status::Corruption(id + " is not below " +
                              std::to_string(num_features));
  }
  if (static_cast<int>(f % world_size) != owner) {
    return Status::Corruption(id + " is not owned by rank " +
                              std::to_string(owner));
  }
  if (f < min_feature) {
    return Status::Corruption(id + " does not ascend");
  }
  return Status::OK();
}

}  // namespace

Status ReadSketchRecord(ByteReader* reader, uint32_t num_features,
                        int world_size, int rank, uint32_t min_feature,
                        uint32_t* feature, QuantileSummary* summary) {
  uint32_t f = 0;
  if (!reader->ReadU32(&f).ok()) {
    return Status::Corruption("sketch record: short feature id");
  }
  VERO_RETURN_IF_ERROR(
      CheckRecordFeature(f, num_features, world_size, rank, min_feature));
  const Status status = QuantileSummary::Deserialize(reader, summary);
  if (!status.ok()) {
    return Status::Corruption("feature " + std::to_string(f) + ": " +
                              status.message());
  }
  *feature = f;
  return Status::OK();
}

Status ReadSplitRecord(ByteReader* reader, uint32_t num_features,
                       int world_size, int src, uint32_t min_feature,
                       uint32_t* feature, uint64_t* count,
                       std::vector<float>* splits) {
  uint32_t f = 0;
  if (!reader->ReadU32(&f).ok()) {
    return Status::Corruption("split record: short feature id");
  }
  VERO_RETURN_IF_ERROR(
      CheckRecordFeature(f, num_features, world_size, src, min_feature));
  if (!reader->ReadU64(count).ok() || !reader->ReadVector(splits).ok()) {
    return Status::Corruption("feature " + std::to_string(f) +
                              ": split record runs past the message");
  }
  *feature = f;
  return Status::OK();
}

Status DecodeBlockifiedGroup(const std::vector<uint8_t>& message,
                             uint32_t rows, uint32_t num_features,
                             uint32_t num_candidate_splits,
                             BinnedRowStore::Block* block) {
  auto corrupt = [](const std::string& why) {
    return Status::Corruption("blockified column group: " + why);
  };
  ByteReader reader(message);
  uint32_t header_rows = 0;
  uint64_t num_lens = 0;
  if (!reader.ReadU32(&header_rows).ok() || !reader.ReadU64(&num_lens).ok()) {
    return corrupt("short header");
  }
  if (header_rows != rows) {
    return corrupt("header holds " + std::to_string(header_rows) +
                   " rows, want " + std::to_string(rows));
  }
  if (num_lens != rows) {
    return corrupt(std::to_string(num_lens) + " row lengths for " +
                   std::to_string(rows) + " rows");
  }
  const uint8_t* lens = reader.current();
  uint64_t payload_size = 0;
  if (!reader.Skip(size_t{rows} * sizeof(uint32_t)).ok() ||
      !reader.ReadU64(&payload_size).ok()) {
    return corrupt("short header");
  }
  auto len_of = [lens](uint32_t r) {
    uint32_t len = 0;
    std::memcpy(&len, lens + size_t{r} * sizeof(len), sizeof(len));
    return len;
  };
  uint64_t entries = 0;
  bool full = num_features > 0;
  for (uint32_t r = 0; r < rows; ++r) {
    const uint32_t len = len_of(r);
    entries += len;
    full = full && len == num_features;
  }
  const uint32_t id_bytes = BytesForRange(num_features);
  const uint32_t bin_bytes = BytesForRange(num_candidate_splits);
  const uint32_t entry_bytes = id_bytes + bin_bytes;
  if (payload_size != entries * entry_bytes) {
    return corrupt("payload of " + std::to_string(payload_size) +
                   " bytes for " + std::to_string(entries) + " entries of " +
                   std::to_string(entry_bytes) + " bytes");
  }
  if (reader.remaining() != payload_size) {
    return corrupt("payload of " + std::to_string(payload_size) +
                   " bytes, message holds " +
                   std::to_string(reader.remaining()));
  }
  const uint8_t* p = reader.current();
  // The histogram builders index features[k] * q + bins[k], so an id at or
  // past the group's width or a bin at or past q would land outside the
  // histogram. One flag per block for each.
  struct Flags {
    bool ids;
    bool bins;
  };
  const std::string bin_too_high =
      "a bin is not below " + std::to_string(num_candidate_splits);
  if (full) {
    // Every row holds ids 0..w-1 in order.
    std::vector<BinId> bins(entries);
    const Flags bad = WithFieldWidths(
        id_bytes, bin_bytes, [&](auto id_width, auto bin_width) {
          const uint32_t step = id_width + bin_width;
          uint32_t ids = 0;
          bool high = false;
          BinId* out = bins.data();
          for (uint32_t r = 0; r < rows; ++r) {
            for (uint32_t k = 0; k < num_features; ++k, p += step) {
              ids |= LoadField(p, id_width) ^ k;
              const uint32_t bin = LoadField(p + id_width, bin_width);
              high |= bin >= num_candidate_splits;
              *out++ = static_cast<BinId>(bin);
            }
          }
          return Flags{ids != 0, high};
        });
    if (bad.ids) return corrupt("a full row's ids are not 0..w-1");
    if (bad.bins) return corrupt(bin_too_high);
    *block = BinnedRowStore::Block::Dense(block->row_offset, num_features,
                                         std::move(bins));
    return Status::OK();
  }
  block->dense_width = 0;
  block->row_ptr.resize(size_t{rows} + 1);
  block->features.resize(entries);
  block->bins.resize(entries);
  const Flags bad = WithFieldWidths(
      id_bytes, bin_bytes, [&](auto id_width, auto bin_width) {
        const uint32_t step = id_width + bin_width;
        uint32_t* row_ptr = block->row_ptr.data();
        uint32_t* features = block->features.data();
        BinId* bins = block->bins.data();
        bool wide = false;
        bool high = false;
        uint32_t e = 0;
        row_ptr[0] = 0;
        for (uint32_t r = 0; r < rows; ++r) {
          for (const uint32_t end = e + len_of(r); e < end; ++e, p += step) {
            features[e] = LoadField(p, id_width);
            wide |= features[e] >= num_features;
            const uint32_t bin = LoadField(p + id_width, bin_width);
            high |= bin >= num_candidate_splits;
            bins[e] = static_cast<BinId>(bin);
          }
          row_ptr[r + 1] = e;
        }
        return Flags{wide, high};
      });
  if (bad.ids) {
    return corrupt("a local feature id is not below " +
                   std::to_string(num_features));
  }
  if (bad.bins) return corrupt(bin_too_high);
  return Status::OK();
}

VerticalShard HorizontalToVertical(WorkerContext& ctx, const Dataset& shard,
                                   const TransformOptions& options) {
  const int w = ctx.world_size();
  const int rank = ctx.rank();
  const uint32_t d = shard.num_features();
  VerticalShard result;
  result.num_features = d;
  const CommStats comm_before = ctx.stats();

  // Row offsets of every worker's shard (tiny exchange so each worker can
  // place received blocks in global instance space).
  std::vector<uint32_t> shard_rows(w, 0);
  {
    ByteWriter writer;
    writer.WriteU32(shard.num_instances());
    std::vector<std::vector<uint8_t>> all;
    VERO_COMM_OK(ctx.AllGather(writer.data(), &all));
    for (int r = 0; r < w; ++r) {
      ByteReader reader(all[r]);
      VERO_CHECK_OK(reader.ReadU32(&shard_rows[r]));
    }
  }
  std::vector<uint32_t> row_offsets(w + 1, 0);
  for (int r = 0; r < w; ++r) row_offsets[r + 1] = row_offsets[r] + shard_rows[r];
  result.num_instances = row_offsets[w];

  // Steps 1-2: global candidate splits + per-feature counts. A checkpoint
  // recovery supplies the split table directly; only the per-feature nonzero
  // counts (the grouping signal) then need a small exchange.
  std::vector<uint64_t> feature_counts;
  if (options.precomputed_splits != nullptr) {
    result.splits = *options.precomputed_splits;
    std::vector<double> counts(d, 0.0);
    const CsrMatrix& local = shard.matrix();
    for (InstanceId i = 0; i < shard.num_instances(); ++i) {
      for (FeatureId f : local.RowFeatures(i)) counts[f] += 1.0;
    }
    VERO_COMM_OK(ctx.AllReduceSum(counts));
    feature_counts.resize(d);
    for (uint32_t f = 0; f < d; ++f) {
      feature_counts[f] = static_cast<uint64_t>(counts[f] + 0.5);
    }
  } else {
    result.splits = BuildDistributedCandidateSplits(
        ctx, shard, options.num_candidate_splits, options.sketch_entries,
        &feature_counts, &result.stats.sketch_seconds);
  }

  ThreadCpuTimer cpu;
  obs::TraceBuffer* tb = ctx.trace_buffer();
  const double* sim_clock = &ctx.stats().sim_seconds;
  obs::PhaseSpan encode_span(tb, "transform-encode", sim_clock);

  // Step 3a: column grouping (deterministic given the gathered counts, so
  // every worker computes the same assignment locally).
  result.feature_owner =
      AssignFeatureGroups(feature_counts, w, options.grouping);
  std::vector<uint32_t> local_id_of(d, 0);
  std::vector<uint32_t> dest_feature_count(w, 0);
  for (uint32_t f = 0; f < d; ++f) {
    local_id_of[f] = dest_feature_count[result.feature_owner[f]]++;
    if (result.feature_owner[f] == rank) result.owned_features.push_back(f);
  }
  const uint32_t bin_bytes = BytesForRange(options.num_candidate_splits);
  std::vector<uint32_t> id_bytes(w);
  for (int g = 0; g < w; ++g) {
    id_bytes[g] = BytesForRange(dest_feature_count[g]);
  }

  // Step 3b: re-encode local rows into per-destination column groups.
  const CsrMatrix& m = shard.matrix();
  const uint32_t rows = shard.num_instances();
  std::vector<std::vector<uint8_t>> to_dest(w);
  if (options.encoding == TransformEncoding::kBlockified) {
    // Pass 1: entries per destination and row; owner lookups only.
    std::vector<std::vector<uint32_t>> lens(w, std::vector<uint32_t>(rows, 0));
    for (InstanceId i = 0; i < rows; ++i) {
      for (FeatureId f : m.RowFeatures(i)) ++lens[result.feature_owner[f]][i];
    }
    // Each message is sized once: u32 rows, the row lengths, then the
    // u64-prefixed entry array, which pass 2 fills through a cursor.
    std::vector<uint8_t*> cursor(w);
    for (int g = 0; g < w; ++g) {
      uint64_t entries = 0;
      for (uint32_t len : lens[g]) entries += len;
      const uint64_t payload = entries * (id_bytes[g] + bin_bytes);
      ByteWriter writer;
      writer.Reserve(sizeof(uint32_t) + 2 * sizeof(uint64_t) +
                     size_t{rows} * sizeof(uint32_t) + payload);
      writer.WriteU32(rows);
      writer.WriteVector(lens[g]);
      writer.WriteU64(payload);
      to_dest[g] = writer.TakeData();
      const size_t header = to_dest[g].size();
      to_dest[g].resize(header + payload);
      cursor[g] = to_dest[g].data() + header;
    }
    // Pass 2: bin each entry and store it in its destination's message.
    for (InstanceId i = 0; i < rows; ++i) {
      auto row_features = m.RowFeatures(i);
      auto row_values = m.RowValues(i);
      for (size_t k = 0; k < row_features.size(); ++k) {
        const FeatureId f = row_features[k];
        const int g = result.feature_owner[f];
        cursor[g] = StoreEntry(cursor[g], local_id_of[f], id_bytes[g],
                               result.splits.BinForValue(f, row_values[k]),
                               bin_bytes);
      }
    }
    for (int g = 0; g < w; ++g) {
      VERO_DCHECK(cursor[g] == to_dest[g].data() + to_dest[g].size());
    }
  } else {
    // One framed message per row per destination.
    const bool naive = options.encoding == TransformEncoding::kNaive;
    std::vector<ByteWriter> writers(w);
    for (int g = 0; g < w; ++g) writers[g].WriteU32(rows);
    for (InstanceId i = 0; i < rows; ++i) {
      auto row_features = m.RowFeatures(i);
      auto row_values = m.RowValues(i);
      // Per-row length prefix for each destination, written lazily: count
      // entries per destination first.
      std::vector<uint32_t> counts(w, 0);
      for (FeatureId f : row_features) ++counts[result.feature_owner[f]];
      for (int g = 0; g < w; ++g) {
        writers[g].WriteU32(counts[g]);
        for (uint32_t pad = 0; pad < kPerRowObjectOverhead; ++pad) {
          writers[g].WriteU8(0);
        }
      }
      for (size_t k = 0; k < row_features.size(); ++k) {
        const FeatureId f = row_features[k];
        const int g = result.feature_owner[f];
        if (naive) {
          writers[g].WriteU32(f);
          writers[g].WriteF64(row_values[k]);
        } else {
          uint8_t entry[2 * sizeof(uint32_t)];
          const uint8_t* end =
              StoreEntry(entry, local_id_of[f], id_bytes[g],
                         result.splits.BinForValue(f, row_values[k]),
                         bin_bytes);
          writers[g].WriteRaw(entry, static_cast<size_t>(end - entry));
        }
      }
    }
    for (int g = 0; g < w; ++g) to_dest[g] = writers[g].TakeData();
  }
  cpu.Stop();
  result.stats.encode_seconds = cpu.Seconds();
  encode_span.Close();
  cpu.Restart();
  cpu.Stop();

  // Step 4: repartition the column groups.
  const uint64_t bytes_before = ctx.stats().bytes_sent;
  const double sim_before_repart = ctx.stats().sim_seconds;
  std::vector<std::vector<uint8_t>> from_src;
  VERO_COMM_OK(ctx.AllToAll(std::move(to_dest), &from_src));
  result.stats.repartition_bytes_sent = ctx.stats().bytes_sent - bytes_before;
  result.stats.repartition_sim_seconds =
      ctx.stats().sim_seconds - sim_before_repart;
  cpu.Resume();
  obs::PhaseSpan decode_span(tb, "transform-decode", sim_clock);

  // Decode: one block per source worker, ordered by source rank so the
  // blocks tile [0, N) in order (step 4's sort by original worker id). A
  // block whose every row holds all of this worker's features is stored
  // dense (bins only); rows arrive sorted by local feature id, so such a
  // row's ids are exactly 0..w-1.
  const uint32_t my_features = dest_feature_count[rank];
  const uint32_t entry_bytes = id_bytes[rank] + bin_bytes;
  result.data = BinnedRowStore(my_features);
  for (int src = 0; src < w; ++src) {
    BinnedRowStore::Block block;
    block.row_offset = row_offsets[src];
    if (options.encoding == TransformEncoding::kBlockified) {
      const Status status =
          DecodeBlockifiedGroup(from_src[src], shard_rows[src], my_features,
                                options.num_candidate_splits, &block);
      VERO_CHECK(status.ok()) << "column group from rank " << src << ": "
                              << status.ToString();
      result.data.AppendBlock(std::move(block));
      continue;
    }
    ByteReader reader(from_src[src]);
    uint32_t rows = 0;
    VERO_CHECK_OK(reader.ReadU32(&rows));
    VERO_CHECK_EQ(rows, shard_rows[src]);
    const bool naive = options.encoding == TransformEncoding::kNaive;
    bool dense = my_features > 0;
    for (uint32_t r = 0; r < rows; ++r) {
      uint32_t len = 0;
      VERO_CHECK_OK(reader.ReadU32(&len));
      VERO_CHECK_OK(reader.Skip(kPerRowObjectOverhead));
      dense = dense && len == my_features;
      // Per-row staging vector: the small-object churn blockify avoids.
      std::vector<std::pair<uint32_t, BinId>> row;
      row.reserve(len);
      if (naive) {
        for (uint32_t k = 0; k < len; ++k) {
          uint32_t f = 0;
          double v = 0.0;
          VERO_CHECK_OK(reader.ReadU32(&f));
          VERO_CHECK_OK(reader.ReadF64(&v));
          row.emplace_back(local_id_of[f],
                           result.splits.BinForValue(f, static_cast<float>(v)));
        }
      } else {
        // One bounds check per row, then fixed-width loads.
        const uint8_t* p = reader.current();
        VERO_CHECK_OK(reader.Skip(size_t{len} * entry_bytes));
        for (uint32_t k = 0; k < len; ++k, p += entry_bytes) {
          row.emplace_back(
              LoadField(p, id_bytes[rank]),
              static_cast<BinId>(LoadField(p + id_bytes[rank], bin_bytes)));
        }
      }
      for (const auto& [lf, bin] : row) {
        block.features.push_back(lf);
        block.bins.push_back(bin);
      }
      block.row_ptr.push_back(static_cast<uint32_t>(block.features.size()));
    }
    if (dense) {
      for (size_t e = 0; e < block.features.size(); e += my_features) {
        for (uint32_t k = 0; k < my_features; ++k) {
          VERO_CHECK_EQ(block.features[e + k], k);
        }
      }
      block = BinnedRowStore::Block::Dense(block.row_offset, my_features,
                                           std::move(block.bins));
    }
    result.data.AppendBlock(std::move(block));
  }
  result.data.MergeBlocks(options.max_blocks);
  cpu.Stop();
  result.stats.decode_seconds = cpu.Seconds();
  decode_span.Close();

  // Step 5: broadcast instance labels (master collects, then broadcasts).
  obs::PhaseSpan label_span(tb, "label-broadcast", sim_clock);
  const double sim_before_labels = ctx.stats().sim_seconds;
  {
    ByteWriter writer;
    writer.WriteVector(shard.labels());
    std::vector<std::vector<uint8_t>> gathered;
    VERO_COMM_OK(ctx.Gather(writer.data(), /*root=*/0, &gathered));
    std::vector<uint8_t> all_labels;
    if (rank == 0) {
      std::vector<float> labels;
      labels.reserve(result.num_instances);
      for (const auto& buf : gathered) {
        ByteReader reader(buf);
        std::vector<float> part;
        VERO_CHECK_OK(reader.ReadVector(&part));
        labels.insert(labels.end(), part.begin(), part.end());
      }
      ByteWriter out;
      out.WriteVector(labels);
      all_labels = out.TakeData();
    }
    VERO_COMM_OK(ctx.Broadcast(&all_labels, /*root=*/0));
    ByteReader reader(all_labels);
    VERO_CHECK_OK(reader.ReadVector(&result.labels));
  }
  result.stats.label_broadcast_sim_seconds =
      ctx.stats().sim_seconds - sim_before_labels;
  result.stats.sim_comm_seconds =
      ctx.stats().sim_seconds - comm_before.sim_seconds;
  VERO_CHECK_EQ(result.labels.size(), result.num_instances);
  return result;
}

}  // namespace vero
