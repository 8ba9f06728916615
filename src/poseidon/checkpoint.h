/// \file
/// Parameter checkpointing (paper §4.1: the KV store "will regularly
/// checkpoint current parameter states for fault tolerance").
///
/// Under BSP every replica holds the full, current model between iterations,
/// so a checkpoint is one worker's parameter set plus the iteration cursor.
/// The format is a small self-describing binary: per parameter tensor its
/// name and raw float payload, so a restored run resumes on the exact sample
/// stream position with the exact parameters (optimizer velocities restart at
/// zero, like Caffe's plain snapshots).
#ifndef POSEIDON_SRC_POSEIDON_CHECKPOINT_H_
#define POSEIDON_SRC_POSEIDON_CHECKPOINT_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/common/status.h"
#include "src/nn/network.h"

namespace poseidon {

/// Opens `path` for binary writing as a new file: an existing file there is
/// unlinked first, never truncated in place (see checkpoint.cc for why).
/// Null when the file cannot be created. No reader of `path` may overlap
/// the write: between the unlink and the close it is missing or partial.
std::FILE* CreateFreshFile(const std::string& path);

/// Writes all of `net`'s parameters and the iteration cursor to `path`
/// (replacing any file there through CreateFreshFile).
Status SaveCheckpoint(Network& net, int64_t next_iter, const std::string& path);

/// Loads a checkpoint into `net` (names and shapes must match) and returns
/// the stored iteration cursor.
StatusOr<int64_t> LoadCheckpoint(const std::string& path, Network* net);

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_CHECKPOINT_H_
