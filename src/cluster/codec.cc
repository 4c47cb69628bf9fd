#include "cluster/codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/serialize.h"

namespace vero {
namespace {

// Frame layout (see docs/wire_formats.md):
//   u8 magic (kCodecMagic)
//   u8 mode  (CollectiveCompression, 1..3)
//   varint total_values
//   varint block_values (the per-block split actually used)
//   per block: u8 tag + tag-specific body
//   u32 crc32 over everything above
constexpr uint8_t kCodecMagic = 0xC5;

// Per-block tags. Decode accepts any tag under any mode; encode only emits
// tags consistent with the mode, so the tag stream doubles as documentation
// of which path each block took.
constexpr uint8_t kTagDenseRaw = 0;    // block_len raw f64
constexpr uint8_t kTagSparseAbs = 1;   // nnz, absolute varint indices, raw f64
constexpr uint8_t kTagSparseDelta = 2;  // nnz, gap-coded indices, raw f64
constexpr uint8_t kTagDenseQuant = 3;  // offset, scale, block_len u16 codes
constexpr uint8_t kTagSparseQuant = 4;  // nnz, offset, scale, gaps, u16 codes

constexpr uint64_t kQuantLevels = 65535;  // u16 code range [0, 65535]

// Nonzero test on the bit pattern, not the value: -0.0 must be shipped (its
// pattern is not all-zero) and a skipped value must reconstruct as exactly
// +0.0, so lossless modes stay bit-exact for every input.
inline bool BitNonzero(double v) {
  return std::bit_cast<uint64_t>(v) != 0;
}

struct BlockScan {
  uint64_t nnz = 0;
  bool all_finite = true;
  double min = 0.0;
  double max = 0.0;
};

BlockScan ScanBlock(const double* v, uint64_t n) {
  BlockScan scan;
  bool first = true;
  for (uint64_t i = 0; i < n; ++i) {
    if (BitNonzero(v[i])) ++scan.nnz;
    if (!std::isfinite(v[i])) {
      scan.all_finite = false;
      continue;
    }
    if (first) {
      scan.min = scan.max = v[i];
      first = false;
    } else {
      scan.min = std::min(scan.min, v[i]);
      scan.max = std::max(scan.max, v[i]);
    }
  }
  // Quantization codes every value (zeros included) in dense layout, so the
  // range must cover 0.0 when any value is zero.
  if (scan.nnz < n && !first) {
    scan.min = std::min(scan.min, 0.0);
    scan.max = std::max(scan.max, 0.0);
  }
  if (first) scan.min = scan.max = 0.0;
  return scan;
}

/// Writes the indices of the nonzero values among v[0, n), in order:
/// absolute, or with `delta` the first index then each gap minus one.
void WriteNonzeroIndices(ByteWriter* w, const double* v, uint64_t n,
                         bool delta) {
  bool first = true;
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (!BitNonzero(v[i])) continue;
    // Strictly increasing, so the gap is >= 1; store gap-1 to keep
    // adjacent nonzeros at one byte each.
    w->WriteVarint64(!delta || first ? i : i - prev - 1);
    first = false;
    prev = i;
  }
}

/// Reads a sparse block's `nnz` indices, rejecting any out of range or out
/// of order, and calls fn(index) on each in order.
template <typename Fn>
Status ForEachIndex(ByteReader* r, uint64_t nnz, uint64_t block_len,
                    bool delta, Fn&& fn) {
  uint64_t prev = 0;
  for (uint64_t k = 0; k < nnz; ++k) {
    uint64_t raw = 0;
    VERO_RETURN_IF_ERROR(r->ReadVarint64(&raw));
    uint64_t index;
    if (!delta || k == 0) {
      index = raw;
    } else {
      if (raw >= block_len || prev + raw + 1 < prev) {
        return Status::Corruption("codec frame: sparse index gap overflow");
      }
      index = prev + raw + 1;
    }
    if (index >= block_len || (k > 0 && index <= prev)) {
      return Status::Corruption("codec frame: sparse index out of order");
    }
    prev = index;
    VERO_RETURN_IF_ERROR(fn(index));
  }
  return Status::OK();
}

/// Decodes a sparse block into out[0, block_len): zeros, except that each
/// index gets the value read_value(values, &out[index]) reads from the
/// value section that follows the indices. A first pass validates the
/// indices and finds where the values start, so nothing is allocated.
template <typename ReadValue>
Status DecodeSparse(ByteReader* r, uint64_t nnz, uint64_t block_len,
                    bool delta, double* out, ReadValue&& read_value) {
  ByteReader values = *r;
  VERO_RETURN_IF_ERROR(ForEachIndex(&values, nnz, block_len, delta,
                                    [](uint64_t) { return Status::OK(); }));
  std::memset(out, 0, block_len * sizeof(double));
  VERO_RETURN_IF_ERROR(
      ForEachIndex(r, nnz, block_len, delta, [&](uint64_t index) {
        return read_value(&values, &out[index]);
      }));
  *r = values;
  return Status::OK();
}

uint16_t QuantizeValue(double v, double offset, double inv_scale) {
  const double code = std::nearbyint((v - offset) * inv_scale);
  if (code <= 0.0) return 0;
  if (code >= static_cast<double>(kQuantLevels)) {
    return static_cast<uint16_t>(kQuantLevels);
  }
  return static_cast<uint16_t>(code);
}

void EncodeBlock(const double* v, uint64_t n, const CodecSpec& spec,
                 ByteWriter* w, CodecStats* stats) {
  const BlockScan scan = ScanBlock(v, n);
  const bool sparse =
      static_cast<double>(scan.nnz) <=
      spec.density_threshold * static_cast<double>(n);

  if (spec.mode == CollectiveCompression::kQuantized && scan.all_finite) {
    const double offset = scan.min;
    const double scale =
        (scan.max - scan.min) / static_cast<double>(kQuantLevels);
    const double inv_scale = scale > 0.0 ? 1.0 / scale : 0.0;
    if (sparse) {
      w->WriteU8(kTagSparseQuant);
      w->WriteVarint64(scan.nnz);
      w->WriteF64(offset);
      w->WriteF64(scale);
      WriteNonzeroIndices(w, v, n, /*delta=*/true);
      for (uint64_t i = 0; i < n; ++i) {
        if (BitNonzero(v[i])) {
          w->WriteU16(QuantizeValue(v[i], offset, inv_scale));
        }
      }
    } else {
      w->WriteU8(kTagDenseQuant);
      w->WriteF64(offset);
      w->WriteF64(scale);
      for (uint64_t i = 0; i < n; ++i) {
        w->WriteU16(QuantizeValue(v[i], offset, inv_scale));
      }
    }
    if (stats != nullptr) ++stats->quantized_blocks;
    return;
  }

  const bool delta = spec.mode != CollectiveCompression::kSparse;
  if (sparse && spec.mode != CollectiveCompression::kQuantized) {
    w->WriteU8(delta ? kTagSparseDelta : kTagSparseAbs);
    w->WriteVarint64(scan.nnz);
    WriteNonzeroIndices(w, v, n, delta);
    for (uint64_t i = 0; i < n; ++i) {
      if (BitNonzero(v[i])) w->WriteF64(v[i]);
    }
    if (stats != nullptr) ++stats->sparse_blocks;
    return;
  }

  // Dense-raw: the dense side of the density switch for the lossless modes,
  // and the lossless fallback for quantized blocks holding non-finite
  // values (so NaN poison and Inf overflow propagate byte-exactly).
  w->WriteU8(kTagDenseRaw);
  w->WriteRaw(v, n * sizeof(double));
  if (stats != nullptr) ++stats->dense_blocks;
}

Status DecodeBlock(ByteReader* r, uint64_t block_len, double* out) {
  uint8_t tag = 0;
  VERO_RETURN_IF_ERROR(r->ReadU8(&tag));
  switch (tag) {
    case kTagDenseRaw:
      return r->ReadRaw(out, block_len * sizeof(double));
    case kTagSparseAbs:
    case kTagSparseDelta: {
      uint64_t nnz = 0;
      VERO_RETURN_IF_ERROR(r->ReadVarint64(&nnz));
      if (nnz > block_len) {
        return Status::Corruption("codec frame: nnz exceeds block length");
      }
      return DecodeSparse(r, nnz, block_len, tag == kTagSparseDelta, out,
                          [](ByteReader* values, double* value) {
                            return values->ReadF64(value);
                          });
    }
    case kTagDenseQuant: {
      double offset = 0.0, scale = 0.0;
      VERO_RETURN_IF_ERROR(r->ReadF64(&offset));
      VERO_RETURN_IF_ERROR(r->ReadF64(&scale));
      for (uint64_t i = 0; i < block_len; ++i) {
        uint16_t code = 0;
        VERO_RETURN_IF_ERROR(r->ReadU16(&code));
        out[i] = offset + static_cast<double>(code) * scale;
      }
      return Status::OK();
    }
    case kTagSparseQuant: {
      uint64_t nnz = 0;
      VERO_RETURN_IF_ERROR(r->ReadVarint64(&nnz));
      if (nnz > block_len) {
        return Status::Corruption("codec frame: nnz exceeds block length");
      }
      double offset = 0.0, scale = 0.0;
      VERO_RETURN_IF_ERROR(r->ReadF64(&offset));
      VERO_RETURN_IF_ERROR(r->ReadF64(&scale));
      return DecodeSparse(r, nnz, block_len, /*delta=*/true, out,
                          [&](ByteReader* values, double* value) {
                            uint16_t code = 0;
                            VERO_RETURN_IF_ERROR(values->ReadU16(&code));
                            *value = offset + static_cast<double>(code) * scale;
                            return Status::OK();
                          });
    }
    default:
      return Status::Corruption("codec frame: unknown block tag");
  }
}

}  // namespace

const char* CollectiveCompressionToString(CollectiveCompression mode) {
  switch (mode) {
    case CollectiveCompression::kOff:
      return "off";
    case CollectiveCompression::kSparse:
      return "sparse";
    case CollectiveCompression::kSparseDelta:
      return "sparse_delta";
    case CollectiveCompression::kQuantized:
      return "quantized";
  }
  return "unknown";
}

void CodecEncode(std::span<const double> values, const CodecSpec& spec,
                 std::vector<uint8_t>* frame, CodecStats* stats) {
  VERO_CHECK(spec.enabled()) << "CodecEncode called with compression off";
  const uint64_t total = values.size();
  uint64_t block = spec.block_values;
  if (block == 0 || block > total) block = std::max<uint64_t>(total, 1);

  // Reuses the frame's storage, so a caller that keeps its frame across
  // calls encodes without allocating.
  ByteWriter w(std::move(*frame));
  w.Reserve(values.size() * sizeof(double) / 4 + 64);
  w.WriteU8(kCodecMagic);
  w.WriteU8(static_cast<uint8_t>(spec.mode));
  w.WriteVarint64(total);
  w.WriteVarint64(block);
  for (uint64_t start = 0; start < total; start += block) {
    const uint64_t n = std::min(block, total - start);
    EncodeBlock(values.data() + start, n, spec, &w, stats);
  }
  w.WriteU32(Crc32(w.data().data(), w.size()));
  *frame = w.TakeData();
  if (stats != nullptr) {
    stats->raw_bytes += total * sizeof(double);
    stats->encoded_bytes += frame->size();
  }
}

Status CodecDecode(std::span<const uint8_t> frame,
                   std::vector<double>* values) {
  if (frame.size() < sizeof(uint32_t) + 2) {
    return Status::Corruption("codec frame: too short");
  }
  const size_t body = frame.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, frame.data() + body, sizeof(stored_crc));
  if (Crc32(frame.data(), body) != stored_crc) {
    return Status::Corruption("codec frame: checksum mismatch");
  }

  ByteReader r(frame.data(), body);
  uint8_t magic = 0, mode = 0;
  VERO_RETURN_IF_ERROR(r.ReadU8(&magic));
  VERO_RETURN_IF_ERROR(r.ReadU8(&mode));
  if (magic != kCodecMagic) {
    return Status::Corruption("codec frame: bad magic");
  }
  if (mode < static_cast<uint8_t>(CollectiveCompression::kSparse) ||
      mode > static_cast<uint8_t>(CollectiveCompression::kQuantized)) {
    return Status::Corruption("codec frame: bad mode byte");
  }
  uint64_t total = 0, block = 0;
  VERO_RETURN_IF_ERROR(r.ReadVarint64(&total));
  VERO_RETURN_IF_ERROR(r.ReadVarint64(&block));
  if (block == 0 || (total > 0 && block > total)) {
    return Status::Corruption("codec frame: bad block length");
  }
  // An adversarial total can't over-allocate: each block must still consume
  // body bytes, and the cheapest possible block (all-zero sparse) is 2
  // bytes, so cap total by what the body could plausibly hold.
  if (total > 0 && (total - 1) / block + 1 > body) {
    return Status::Corruption("codec frame: value count exceeds frame");
  }
  values->assign(total, 0.0);
  for (uint64_t start = 0; start < total; start += block) {
    const uint64_t n = std::min(block, total - start);
    VERO_RETURN_IF_ERROR(DecodeBlock(&r, n, values->data() + start));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("codec frame: trailing bytes");
  }
  return Status::OK();
}

}  // namespace vero
