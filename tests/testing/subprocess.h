/// \file
/// Subprocess helpers for the multi-process suites: temp run directories,
/// spawning the poseidon_launch binary (with reap-or-kill timeouts and
/// stderr capture on failure), and parsing the artifacts a cluster writes
/// (hexfloat loss logs, final checkpoints).
#ifndef POSEIDON_TESTS_TESTING_SUBPROCESS_H_
#define POSEIDON_TESTS_TESTING_SUBPROCESS_H_

#include <string>
#include <utility>
#include <vector>

#include "tests/testing/harness.h"

namespace poseidon {
namespace testing {

/// A fresh private directory under TEST_TMPDIR (or /tmp) for one cluster
/// run. CHECK-fails when mkdtemp fails.
std::string MakeTempDir(const std::string& tag);

/// One poseidon_launch run.
struct LaunchRun {
  int exit_code = -1;
  /// The launcher's stderr tail plus every child's stderr tail — attach to
  /// assertion messages so a red run tells the whole story.
  std::string log;
};

/// Runs $POSEIDON_LAUNCH_BIN with `args` (the test adds --out itself), reaps
/// with a timeout, kills on a wedge. `out_dir` is where child stderr files
/// land and must match the --out argument. Skips gracefully: CHECK-fails
/// when POSEIDON_LAUNCH_BIN is unset (CMake sets it for this suite).
LaunchRun RunPoseidonLaunch(const std::string& out_dir,
                            const std::vector<std::string>& args,
                            int timeout_ms = 180000);

/// Parses worker_<w>_losses.txt (hexfloat `iter loss acc` lines) back into
/// (loss, accuracy) doubles, bit-exact.
std::vector<std::pair<double, double>> ReadWorkerLosses(const std::string& path);

/// Reassembles the per-iteration mean training loss over all workers from a
/// cluster run directory, using the same summation order as
/// PoseidonTrainer::Train (worker 0 first), so the result is bitwise
/// comparable to the in-process Trajectory.
std::vector<double> MeanLossesFromRun(const std::string& dir, int workers,
                                      int iterations);

/// Loads worker `w`'s final checkpoint from a run directory into a fresh
/// canonical replica and flattens it (harness AllParams order).
std::vector<float> FinalParamsFromRun(const std::string& dir, int worker,
                                      int hidden_layers = 2);

}  // namespace testing
}  // namespace poseidon

#endif  // POSEIDON_TESTS_TESTING_SUBPROCESS_H_
