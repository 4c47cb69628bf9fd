#ifndef VERO_COMMON_BITMAP_H_
#define VERO_COMMON_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vero {

/// Dense bitset used to encode instance placement (left/right child) after a
/// node split. A bitmap over n instances serializes to ceil(n/8) bytes —
/// the 32x reduction over 4-byte-per-instance encoding that §4.2.2 of the
/// paper relies on.
class Bitmap {
 public:
  Bitmap() = default;
  /// All bits initialized to zero.
  explicit Bitmap(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  /// Number of bytes in the wire representation.
  size_t SerializedBytes() const { return (num_bits_ + 7) / 8; }

  void Set(size_t i) { words_[i >> 6] |= (uint64_t{1} << (i & 63)); }
  void Clear(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  void Assign(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Clear(i);
    }
  }
  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  /// Sets bit j to pred(j) for every j < size(), calling pred once per bit
  /// in ascending j. Bits gather in a local word that is stored every 64
  /// bits (plus once for the tail), so there is no per-bit read-modify-write
  /// or data-dependent branch; bits past size() stay zero.
  template <typename Pred>
  void Fill(Pred pred) {
    const size_t full = num_bits_ >> 6;
    for (size_t k = 0; k < full; ++k) {
      words_[k] = PackBits(pred, k << 6, 64);
    }
    if (const size_t tail = num_bits_ & 63; tail != 0) {
      words_[full] = PackBits(pred, full << 6, tail);
    }
  }

  /// Number of set bits.
  size_t Count() const;

  /// Sets all bits to zero without changing size.
  void Reset();

  /// Appends the packed little-endian byte representation to `out`.
  void SerializeTo(std::vector<uint8_t>* out) const;

  /// Reconstructs a bitmap of `num_bits` bits from `bytes`; returns false if
  /// `num_bytes` is too small.
  static bool Deserialize(const uint8_t* bytes, size_t num_bytes,
                          size_t num_bits, Bitmap* out);

  bool operator==(const Bitmap& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

 private:
  template <typename Pred>
  static uint64_t PackBits(Pred& pred, size_t base, size_t count) {
    uint64_t word = 0;
    for (size_t b = 0; b < count; ++b) {
      word |= static_cast<uint64_t>(pred(base + b)) << b;
    }
    return word;
  }

  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace vero

#endif  // VERO_COMMON_BITMAP_H_
