#include "core/model_io.h"

#include <cstdint>
#include <sstream>
#include <vector>

#include "common/framed_file.h"

namespace vero {
namespace {

constexpr uint32_t kMagic = 0x5645524fu;  // "VERO"
// Version 2 is framed with a CRC-32 trailer; version 1 (no trailer) is
// still readable.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kLegacyVersion = 1;

}  // namespace

Status SaveModel(const GbdtModel& model, const std::string& path) {
  return AtomicWriteFile(
      path, WriteFrame(kMagic, kVersion,
                       [&model](ByteWriter* w) { model.SerializeTo(w); }));
}

StatusOr<GbdtModel> LoadModel(const std::string& path) {
  std::vector<uint8_t> data;
  VERO_RETURN_IF_ERROR(ReadFileBytes(path, &data));
  GbdtModel model;
  const auto parse = [&model](ByteReader* r, uint32_t) {
    return GbdtModel::Deserialize(r, &model);
  };
  const std::string what = "model file " + path;
  // Version 1 predates the envelope's CRC trailer: magic, version, payload.
  ByteReader legacy(data);
  uint32_t magic = 0, version = 0;
  if (legacy.ReadU32(&magic).ok() && legacy.ReadU32(&version).ok() &&
      magic == kMagic && version == kLegacyVersion) {
    VERO_RETURN_IF_ERROR(ReadFramePayload(&legacy, version, what, parse));
  } else {
    VERO_RETURN_IF_ERROR(ReadFrame(data, kMagic, {kVersion}, what, parse));
  }
  return model;
}

std::string ModelToText(const GbdtModel& model) {
  std::ostringstream out;
  out << "task=" << TaskToString(model.task())
      << " classes=" << model.num_classes()
      << " learning_rate=" << model.learning_rate()
      << " trees=" << model.num_trees() << "\n";
  for (size_t t = 0; t < model.num_trees(); ++t) {
    const Tree& tree = model.tree(t);
    out << "tree " << t << " (leaves=" << tree.NumLeaves() << ")\n";
    for (NodeId id = 0; id < static_cast<NodeId>(tree.max_nodes()); ++id) {
      if (!tree.Exists(id)) continue;
      const TreeNode& n = tree.node(id);
      out << "  node " << id << ": ";
      if (n.state == TreeNode::State::kInternal) {
        out << "split f" << n.feature << " <= " << n.split_value << " (bin "
            << n.split_bin << ", default "
            << (n.default_left ? "left" : "right") << ", gain " << n.gain
            << ")";
      } else {
        out << "leaf [";
        for (size_t k = 0; k < n.leaf_values.size(); ++k) {
          if (k > 0) out << ", ";
          out << n.leaf_values[k];
        }
        out << "]";
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace vero
