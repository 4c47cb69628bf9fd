#ifndef VERO_CORE_MODEL_IO_H_
#define VERO_CORE_MODEL_IO_H_

#include <string>

#include "common/status.h"
#include "core/tree.h"

namespace vero {

/// Writes a model to `path` as a framed record (common/framed_file.h: magic
/// "VERO", version 2) via temp file + rename, so a failed save leaves the
/// file already at `path` intact.
Status SaveModel(const GbdtModel& model, const std::string& path);

/// Reads a model written by SaveModel (or a CRC-less version-1 file).
StatusOr<GbdtModel> LoadModel(const std::string& path);

/// Human-readable dump of the forest (one line per node), for debugging and
/// golden tests.
std::string ModelToText(const GbdtModel& model);

}  // namespace vero

#endif  // VERO_CORE_MODEL_IO_H_
