#ifndef VERO_COMMON_SERIALIZE_H_
#define VERO_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace vero {

/// A varint64 never needs more than ceil(64 / 7) = 10 bytes.
inline constexpr size_t kMaxVarint64Bytes = 10;

/// Encodes `v` as a base-128 LEB128 varint (7 payload bits per byte, MSB set
/// on all but the last byte) into `dst`, which must hold at least
/// kMaxVarint64Bytes. Returns the number of bytes written (1-10). Small
/// values dominate histogram bin-index streams, so most encodings are a
/// single byte.
inline size_t PutVarint64(uint8_t* dst, uint64_t v) {
  size_t n = 0;
  while (v >= 0x80) {
    dst[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  dst[n++] = static_cast<uint8_t>(v);
  return n;
}

/// Decodes a varint written by PutVarint64 from `src[0..size)`. On success
/// stores the value in `*v` and the encoded length in `*consumed`. Fails on
/// truncation and on encodings longer than 10 bytes (which cannot come from
/// PutVarint64 and would silently drop bits).
inline Status GetVarint64(const uint8_t* src, size_t size, uint64_t* v,
                          size_t* consumed) {
  uint64_t result = 0;
  for (size_t n = 0; n < size && n < kMaxVarint64Bytes; ++n) {
    const uint64_t byte = src[n];
    result |= (byte & 0x7f) << (7 * n);
    if ((byte & 0x80) == 0) {
      // The 10th byte carries bits 63.. only; more than one payload bit
      // there means the encoding overflows 64 bits.
      if (n == kMaxVarint64Bytes - 1 && byte > 1) {
        return Status::OutOfRange("varint64 overflow");
      }
      *v = result;
      *consumed = n + 1;
      return Status::OK();
    }
  }
  if (size >= kMaxVarint64Bytes) {
    return Status::OutOfRange("varint64 overflow");
  }
  return Status::OutOfRange("byte buffer truncated");
}

/// ZigZag maps signed integers to unsigned so that values of small magnitude
/// (either sign) get short varint encodings: 0,-1,1,-2,... -> 0,1,2,3,...
inline uint64_t ZigZagEncode64(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode64(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Append-only little-endian byte buffer used to encode messages exchanged
/// through the simulated cluster. The byte counts produced here are exactly
/// what the network cost model charges, so encoders should be as compact as
/// the real system would be (e.g. bitmaps, dlog(q)-byte bin indices).
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Writes into `buffer`'s storage: clears it but keeps its capacity, so a
  /// writer over a reused buffer allocates nothing until it outgrows it.
  explicit ByteWriter(std::vector<uint8_t> buffer) : data_(std::move(buffer)) {
    data_.clear();
  }

  const std::vector<uint8_t>& data() const { return data_; }
  std::vector<uint8_t> TakeData() { return std::move(data_); }
  size_t size() const { return data_.size(); }
  void Reserve(size_t n) { data_.reserve(n); }

  void WriteU8(uint8_t v) { data_.push_back(v); }
  void WriteU16(uint16_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteF32(float v) { AppendRaw(&v, sizeof(v)); }
  void WriteF64(double v) { AppendRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  /// Length-prefixed string.
  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    AppendRaw(s.data(), s.size());
  }

  /// Length-prefixed vector of a trivially copyable element type.
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(v.size());
    AppendRaw(v.data(), v.size() * sizeof(T));
  }

  /// Raw bytes with no length prefix (caller manages framing).
  void WriteRaw(const void* src, size_t n) { AppendRaw(src, n); }

  /// LEB128 varint (1-10 bytes); see PutVarint64 below.
  void WriteVarint64(uint64_t v) {
    uint8_t buf[kMaxVarint64Bytes];
    AppendRaw(buf, PutVarint64(buf, v));
  }

 private:
  void AppendRaw(const void* src, size_t n) {
    const size_t offset = data_.size();
    data_.resize(offset + n);
    if (n > 0) std::memcpy(data_.data() + offset, src, n);
  }

  std::vector<uint8_t> data_;
};

/// Sequential reader over a byte span written by ByteWriter. All reads are
/// bounds-checked and return Status on truncation.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& data)
      : ByteReader(data.data(), data.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

  Status ReadU8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadU16(uint16_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadI32(int32_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadI64(int64_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadF32(float* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadF64(double* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadBool(bool* v) {
    uint8_t b = 0;
    VERO_RETURN_IF_ERROR(ReadU8(&b));
    *v = (b != 0);
    return Status::OK();
  }

  Status ReadString(std::string* s) {
    uint32_t n = 0;
    VERO_RETURN_IF_ERROR(ReadU32(&n));
    if (n > remaining()) return Truncated();
    s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

  template <typename T>
  Status ReadVector(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    VERO_RETURN_IF_ERROR(ReadU64(&n));
    // Divide instead of multiplying: n * sizeof(T) can wrap for adversarial
    // length prefixes, which would pass the check and then over-allocate.
    if (n > remaining() / sizeof(T)) return Truncated();
    v->resize(n);
    if (n > 0) {
      std::memcpy(v->data(), data_ + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return Status::OK();
  }

  Status ReadRaw(void* dst, size_t n) {
    if (n > remaining()) return Truncated();
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// LEB128 varint written by ByteWriter::WriteVarint64 / PutVarint64.
  Status ReadVarint64(uint64_t* v) {
    size_t consumed = 0;
    VERO_RETURN_IF_ERROR(GetVarint64(data_ + pos_, remaining(), v, &consumed));
    pos_ += consumed;
    return Status::OK();
  }

  /// Advances past n bytes without copying.
  Status Skip(size_t n) {
    if (n > remaining()) return Truncated();
    pos_ += n;
    return Status::OK();
  }

  /// Pointer to the current position (valid for `remaining()` bytes).
  const uint8_t* current() const { return data_ + pos_; }

 private:
  static Status Truncated() {
    return Status::OutOfRange("byte buffer truncated");
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace vero

#endif  // VERO_COMMON_SERIALIZE_H_
