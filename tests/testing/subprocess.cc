#include "tests/testing/subprocess.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/logging.h"
#include "src/poseidon/checkpoint.h"
#include "src/poseidon/workloads.h"
#include "src/transport/cluster_launcher.h"

namespace poseidon {
namespace testing {

std::string MakeTempDir(const std::string& tag) {
  const char* base = std::getenv("TEST_TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") + "/poseidon_" +
                     tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  CHECK(::mkdtemp(buf.data()) != nullptr) << "mkdtemp " << tmpl;
  return std::string(buf.data());
}

LaunchRun RunPoseidonLaunch(const std::string& out_dir,
                            const std::vector<std::string>& args,
                            int timeout_ms) {
  const char* binary = std::getenv("POSEIDON_LAUNCH_BIN");
  CHECK(binary != nullptr && binary[0] != '\0')
      << "POSEIDON_LAUNCH_BIN not set; run through ctest (CMake exports the "
         "poseidon_launch target path)";
  const std::string launcher_log = out_dir + "/launcher.stderr";
  StatusOr<ChildProcess> child = SpawnChild(binary, args, launcher_log);
  CHECK(child.ok()) << child.status().ToString();

  LaunchRun run;
  StatusOr<int> exit_code = WaitChild(*child, timeout_ms);
  if (!exit_code.ok()) {
    KillChild(*child);
    run.exit_code = -1;
    run.log = "launcher wedged: " + exit_code.status().ToString() + "\n";
  } else {
    run.exit_code = *exit_code;
  }
  run.log += "---- launcher ----\n" + ReadFileTail(launcher_log);
  // Child logs, if the launcher got far enough to create them.
  for (int p = 1; p < 64; ++p) {
    const std::string path = out_dir + "/process_" + std::to_string(p) + ".stderr";
    const std::string tail = ReadFileTail(path);
    if (tail.empty() && p > 8) break;
    if (!tail.empty()) {
      run.log += "\n---- process " + std::to_string(p) + " ----\n" + tail;
    }
  }
  return run;
}

std::vector<std::pair<double, double>> ReadWorkerLosses(const std::string& path) {
  std::vector<std::pair<double, double>> out;
  FILE* f = std::fopen(path.c_str(), "r");
  CHECK(f != nullptr) << "missing loss log " << path;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    // `iter loss acc`, doubles in %a hexfloat (strtod round-trips exactly).
    char* at = line;
    (void)std::strtoll(at, &at, 10);
    const double loss = std::strtod(at, &at);
    const double acc = std::strtod(at, &at);
    out.emplace_back(loss, acc);
  }
  std::fclose(f);
  return out;
}

std::vector<double> MeanLossesFromRun(const std::string& dir, int workers,
                                      int iterations) {
  std::vector<double> mean(static_cast<size_t>(iterations), 0.0);
  for (int w = 0; w < workers; ++w) {
    const auto losses =
        ReadWorkerLosses(dir + "/worker_" + std::to_string(w) + "_losses.txt");
    CHECK_EQ(static_cast<int>(losses.size()), iterations)
        << "worker " << w << " trained a different window";
    for (int i = 0; i < iterations; ++i) {
      // Same accumulation order as PoseidonTrainer::Train: workers ascending,
      // then one divide — keeps the mean bitwise comparable.
      mean[static_cast<size_t>(i)] += losses[static_cast<size_t>(i)].first;
    }
  }
  for (double& m : mean) {
    m /= workers;
  }
  return mean;
}

std::vector<float> FinalParamsFromRun(const std::string& dir, int worker,
                                      int hidden_layers) {
  std::unique_ptr<Network> net = workloads::TinyMlpFactory(hidden_layers)();
  const std::string path = dir + "/worker_" + std::to_string(worker) + ".ckpt";
  StatusOr<int64_t> cursor = LoadCheckpoint(path, net.get());
  CHECK(cursor.ok()) << path << ": " << cursor.status().ToString();
  return AllParams(*net);
}

}  // namespace testing
}  // namespace poseidon
