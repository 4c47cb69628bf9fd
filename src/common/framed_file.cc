#include "common/framed_file.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/crc32.h"

namespace vero {

std::vector<uint8_t> WriteFrame(
    uint32_t magic, uint32_t version,
    const std::function<void(ByteWriter*)>& payload) {
  ByteWriter writer;
  writer.WriteU32(magic);
  writer.WriteU32(version);
  payload(&writer);
  writer.WriteU32(Crc32(writer.data().data(), writer.size()));
  return writer.TakeData();
}

Status ReadFrame(const std::vector<uint8_t>& data, uint32_t magic,
                 std::initializer_list<uint32_t> versions,
                 const std::string& what, const FramePayloadReader& payload) {
  if (data.size() < 3 * sizeof(uint32_t)) {
    return Status::Corruption(what + " too short");
  }
  const size_t payload_end = data.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data.data() + payload_end, sizeof(stored_crc));
  if (Crc32(data.data(), payload_end) != stored_crc) {
    return Status::Corruption("CRC mismatch in " + what);
  }
  ByteReader reader(data.data(), payload_end);
  uint32_t stored_magic = 0, version = 0;
  VERO_RETURN_IF_ERROR(reader.ReadU32(&stored_magic));
  VERO_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (stored_magic != magic) return Status::Corruption("bad magic in " + what);
  if (std::find(versions.begin(), versions.end(), version) == versions.end()) {
    return Status::Corruption("unsupported version in " + what);
  }
  return ReadFramePayload(&reader, version, what, payload);
}

Status ReadFramePayload(ByteReader* reader, uint32_t version,
                        const std::string& what,
                        const FramePayloadReader& payload) {
  Status s = payload(reader, version);
  // A short read means the record lied about its own length: corruption,
  // not a range error.
  if (s.code() == StatusCode::kOutOfRange) {
    return Status::Corruption("truncated " + what);
  }
  if (s.ok() && !reader->AtEnd()) {
    return Status::Corruption("trailing bytes in " + what);
  }
  return s;
}

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path,
                       const std::vector<uint8_t>& data) {
  const std::string tmp = path + kAtomicWriteTmpSuffix;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp + " for writing");
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    out.close();
    if (!out) return Status::IOError("write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("rename " + tmp + " -> " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace vero
