#ifndef VERO_CLUSTER_CODEC_H_
#define VERO_CLUSTER_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace vero {

/// Histogram-payload compression applied underneath the histogram
/// collectives (the codec layer of WorkerContext::AllReduceSum and
/// AllToAllSum, set via CollectiveOptions::codec); the byte collectives never
/// carry it. `kOff` skips the layer and stays bit-identical to seed; the two
/// sparse modes are lossless (raw f64 bit patterns are preserved, including
/// -0.0, denormals, and NaN payloads); `kQuantized` trades a documented
/// per-block error bound for 16-bit values on the wire. See
/// docs/wire_formats.md for the frame layout.
enum class CollectiveCompression {
  kOff = 0,
  /// Per-block dense/sparse switch; sparse blocks store absolute bin
  /// indices as varints plus the raw nonzero doubles.
  kSparse = 1,
  /// Like kSparse, but bin indices are gap-encoded (first index, then
  /// successive deltas minus one) before varint packing, so clustered
  /// nonzeros cost ~1 byte of index each.
  kSparseDelta = 2,
  /// Delta-indexed sparse layout with 16-bit linear quantization of the
  /// values: per block offset/scale doubles plus one u16 code per value.
  /// Lossy; max abs error <= (max-min)/65535/2 per block. Blocks holding
  /// non-finite values fall back to lossless dense-raw so injected NaN
  /// poison still propagates byte-exactly.
  kQuantized = 3,
};

const char* CollectiveCompressionToString(CollectiveCompression mode);

/// Per-call codec policy, built by DistTrainerBase from
/// DistTrainOptions::compression (dist_common.h) and passed by the trainers
/// in CollectiveOptions::codec. Mirrors the MitigationOptions pattern:
/// `enabled() == false` leaves the collective uncompressed with
/// bit-identical accounting.
struct CodecSpec {
  CollectiveCompression mode = CollectiveCompression::kOff;
  /// Values per independently-encoded block; the trainers pass one
  /// histogram feature's worth (q * dims * 2) so the dense/sparse switch
  /// tracks per-feature density. 0 = encode the whole payload as one block.
  uint64_t block_values = 0;
  /// A block is encoded sparse iff nnz / block_len <= density_threshold.
  double density_threshold = 0.5;

  bool enabled() const { return mode != CollectiveCompression::kOff; }
};

/// Per-encode accounting, accumulated into the comm.<Op>.raw_bytes /
/// compressed_bytes metric counters by the communicator.
struct CodecStats {
  uint64_t raw_bytes = 0;      ///< sizeof(double) * values encoded
  uint64_t encoded_bytes = 0;  ///< frame bytes produced (what the wire sees)
  uint64_t dense_blocks = 0;
  uint64_t sparse_blocks = 0;
  uint64_t quantized_blocks = 0;
};

/// Encodes `values` into a self-describing CRC-framed byte frame. The spec
/// must be enabled. Deterministic: equal inputs yield equal frames on every
/// rank, which the op-id-lockstep replay tests rely on.
void CodecEncode(std::span<const double> values, const CodecSpec& spec,
                 std::vector<uint8_t>* frame, CodecStats* stats = nullptr);

/// Decodes a frame produced by CodecEncode. Rejects (kDataLoss /
/// kOutOfRange) truncated frames, bad magic/mode/tag bytes, out-of-order or
/// out-of-range sparse indices, trailing garbage, and CRC mismatches — a
/// corrupted frame never decodes to plausible data silently.
Status CodecDecode(std::span<const uint8_t> frame, std::vector<double>* values);

}  // namespace vero

#endif  // VERO_CLUSTER_CODEC_H_
