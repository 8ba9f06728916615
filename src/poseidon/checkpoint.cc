#include "src/poseidon/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

namespace poseidon {
namespace {

constexpr uint32_t kMagic = 0x5053444Eu;  // "PSDN"
constexpr uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

bool WriteBytes(std::FILE* f, const void* data, size_t bytes) {
  return std::fwrite(data, 1, bytes, f) == bytes;
}

bool ReadBytes(std::FILE* f, void* data, size_t bytes) {
  return std::fread(data, 1, bytes, f) == bytes;
}

template <typename T>
bool WritePod(std::FILE* f, const T& value) {
  return WriteBytes(f, &value, sizeof(T));
}

template <typename T>
bool ReadPod(std::FILE* f, T* value) {
  return ReadBytes(f, value, sizeof(T));
}

}  // namespace

std::FILE* CreateFreshFile(const std::string& path) {
  // Unlink, then create: truncating an existing file to zero and rewriting
  // it makes ext4 (auto_da_alloc, the default) force the new blocks to disk
  // on close, tens of milliseconds even for a small file, and replacing it
  // by rename flushes too. A new inode written after the unlink is not
  // flushed.
  std::remove(path.c_str());
  return std::fopen(path.c_str(), "wb");
}

Status SaveCheckpoint(Network& net, int64_t next_iter, const std::string& path) {
  FileHandle file(CreateFreshFile(path));
  if (file == nullptr) {
    return UnavailableError("cannot open " + path + " for writing");
  }
  std::FILE* f = file.get();

  std::vector<ParamBlock> all;
  for (auto& layer_params : net.LayerParams()) {
    for (ParamBlock& p : layer_params) {
      all.push_back(p);
    }
  }
  const uint64_t count = all.size();
  if (!WritePod(f, kMagic) || !WritePod(f, kVersion) || !WritePod(f, next_iter) ||
      !WritePod(f, count)) {
    return UnavailableError("short write to " + path);
  }
  for (const ParamBlock& p : all) {
    const uint64_t name_len = p.name.size();
    const uint64_t floats = static_cast<uint64_t>(p.value->size());
    if (!WritePod(f, name_len) || !WriteBytes(f, p.name.data(), p.name.size()) ||
        !WritePod(f, floats) ||
        !WriteBytes(f, p.value->data(), sizeof(float) * floats)) {
      return UnavailableError("short write to " + path);
    }
  }
  return Status::Ok();
}

StatusOr<int64_t> LoadCheckpoint(const std::string& path, Network* net) {
  CHECK_NOTNULL(net);
  FileHandle file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return NotFoundError("cannot open " + path);
  }
  std::FILE* f = file.get();

  uint32_t magic = 0;
  uint32_t version = 0;
  int64_t next_iter = 0;
  uint64_t count = 0;
  if (!ReadPod(f, &magic) || !ReadPod(f, &version) || !ReadPod(f, &next_iter) ||
      !ReadPod(f, &count)) {
    return InvalidArgumentError(path + ": truncated header");
  }
  if (magic != kMagic) {
    return InvalidArgumentError(path + ": not a Poseidon checkpoint");
  }
  if (version != kVersion) {
    return InvalidArgumentError(path + ": unsupported version " + std::to_string(version));
  }

  std::vector<ParamBlock> all;
  for (auto& layer_params : net->LayerParams()) {
    for (ParamBlock& p : layer_params) {
      all.push_back(p);
    }
  }
  if (count != all.size()) {
    return InvalidArgumentError(path + ": parameter count mismatch (" +
                                std::to_string(count) + " vs " +
                                std::to_string(all.size()) + ")");
  }
  for (ParamBlock& p : all) {
    uint64_t name_len = 0;
    if (!ReadPod(f, &name_len) || name_len > 4096) {
      return InvalidArgumentError(path + ": corrupt entry");
    }
    std::string name(name_len, '\0');
    uint64_t floats = 0;
    if (!ReadBytes(f, name.data(), name_len) || !ReadPod(f, &floats)) {
      return InvalidArgumentError(path + ": corrupt entry");
    }
    if (name != p.name) {
      return InvalidArgumentError(path + ": expected parameter " + p.name + ", found " +
                                  name);
    }
    if (floats != static_cast<uint64_t>(p.value->size())) {
      return InvalidArgumentError(path + ": shape mismatch for " + name);
    }
    if (!ReadBytes(f, p.value->data(), sizeof(float) * floats)) {
      return InvalidArgumentError(path + ": truncated payload for " + name);
    }
  }
  return next_iter;
}

}  // namespace poseidon
