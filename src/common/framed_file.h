#ifndef VERO_COMMON_FRAMED_FILE_H_
#define VERO_COMMON_FRAMED_FILE_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace vero {

// The one envelope of every persisted record (docs/wire_formats.md):
//
//     u32 magic, u32 version, payload, u32 CRC-32 over everything before it
//
// Model files ("VERO"), checkpoints ("VCKP"), delta checkpoints ("VCKD") and
// the checkpoint manifest ("VCKM") supply only their magic, versions and
// payload body.

/// Returns the framed record: magic, version, what `payload` writes, CRC.
std::vector<uint8_t> WriteFrame(
    uint32_t magic, uint32_t version,
    const std::function<void(ByteWriter*)>& payload);

/// Parses a payload; the second argument is the record's version.
using FramePayloadReader = std::function<Status(ByteReader*, uint32_t)>;

/// Checks the length, CRC trailer, magic and version (one of `versions`) of
/// a record written by WriteFrame, then runs ReadFramePayload on the bytes
/// between header and trailer. Every framing fault is kCorruption naming
/// `what`; malformed input never crashes.
Status ReadFrame(const std::vector<uint8_t>& data, uint32_t magic,
                 std::initializer_list<uint32_t> versions,
                 const std::string& what, const FramePayloadReader& payload);

/// The payload half of ReadFrame, also used alone by the one legacy format
/// without a trailer: runs `payload`, maps a short read (kOutOfRange) to
/// kCorruption, and rejects bytes the payload leaves unread.
Status ReadFramePayload(ByteReader* reader, uint32_t version,
                        const std::string& what,
                        const FramePayloadReader& payload);

/// Reads the whole file at `path` into `out` (kIOError if it cannot open).
Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);

/// AtomicWriteFile's temp file is `path + kAtomicWriteTmpSuffix`.
inline constexpr const char* kAtomicWriteTmpSuffix = ".tmp";

/// Writes a temp file, then renames it over `path`: a crash mid-write leaves
/// `path` untouched (and maybe a stray temp file later writes overwrite).
Status AtomicWriteFile(const std::string& path,
                       const std::vector<uint8_t>& data);

}  // namespace vero

#endif  // VERO_COMMON_FRAMED_FILE_H_
