// Extension experiment: low-precision + top-k sparse wire codecs on the PS
// path, chosen per layer by the CommPlanner's byte-basis joint search
// (docs/COMPRESSION.md).
//
// Part 1 extends Table 1 with the compressed-PS byte rows and self-verifies
// every printed value against the closed-form per-direction costs (to 1e-6):
//   PS bytes = floats/2 * (PushBytesPerFloat + PullBytesPerFloat),
// then shows what the joint search over the hybrid-collective menu (PS at
// every codec, SFB, ring, tree) picks for each layer class.
// Expected shape: big conv layers leave raw PS for a compressed PS row (the
// quantized round trip undercuts even ring allreduce); layers under the
// 64K-float gate stay raw.
//
// Part 2 is the bytes-vs-final-loss ablation on the threaded runtime: a real
// seeded training run per codec (and per top-k density), with the bus's
// measured egress bytes. Expected shape: every codec lands within noise of
// the raw final loss (error feedback), int8 cuts bytes ~2.4x end to end on
// this tiny model (frame headers dilute the asymptotic 2.66x), and sparser
// top-k trades bytes against convergence speed.
//
// Part 3 sweeps the protocol simulator over codec x bandwidth on VGG19:
// compression pays on starved fabrics and must never hurt where WFBP already
// hides the wire.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/models/comm_cost.h"
#include "src/models/zoo.h"
#include "src/planner/comm_planner.h"
#include "src/stats/bench_record.h"
#include "src/stats/report.h"

namespace poseidon {
namespace {

void CheckClose(double got, double want, const char* what) {
  const double scale = std::max(1.0, std::abs(want));
  CHECK_LT(std::abs(got - want) / scale, 1e-6)
      << what << ": got " << got << ", want " << want;
}

struct CostRow {
  const char* label;
  LayerSpec layer;
};

void CostTablePart(const std::vector<int>& workers, double density) {
  std::printf("Compressed-PS byte rows: per-worker wire MB per iteration,\n");
  std::printf("PS row split per direction (push codec + binary16 pull), top-k "
              "density %.2f.\n",
              density);
  std::printf("best = CommPlanner joint choice on the byte basis.\n\n");

  const std::vector<CostRow> rows = {
      {"fc 4096x4096", FcLayer("fc7", 4096, 4096)},
      {"fc 4096x25088", FcLayer("fc6", 4096, 25088)},
      {"conv 2.36M", ConvLayer("res5", 512, 512, 3, 7)},
      {"conv 36K", ConvLayer("conv2", 64, 64, 3, 56)},
  };
  const int64_t batch_k = 32;

  TextTable table({"layer", "P", "PS.raw", "PS.int8", "PS.topk", "best"});
  for (const CostRow& row : rows) {
    for (int p : workers) {
      if (p < 2) {
        continue;
      }
      CommCostQuery q;
      q.m = row.layer.type == LayerType::kFC ? row.layer.fc_m : row.layer.params;
      q.n = row.layer.type == LayerType::kFC ? row.layer.fc_n : 1;
      q.batch_k = batch_k;
      q.num_workers = p;
      q.num_servers = p;

      std::vector<std::string> cells = {row.label, std::to_string(p)};
      const double raw_floats =
          SchemeWireBytes(PlannedScheme::kPS, GradCompression::kNone, q, density) / 4.0;
      for (GradCompression codec :
           {GradCompression::kNone, GradCompression::kInt8, GradCompression::kTopK}) {
        const double bytes = SchemeWireBytes(PlannedScheme::kPS, codec, q, density);
        // Self-verify against the closed form: the float row splits exactly
        // in half per direction, each half at its direction's byte cost.
        CheckClose(bytes,
                   raw_floats / 2.0 *
                       (PushBytesPerFloat(codec, density) + PullBytesPerFloat(codec)),
                   "per-direction byte row");
        cells.push_back(TextTable::Num(bytes / 1e6, 2));
      }
      PlanRequest request =
          LayerRequest(row.layer, batch_k, p, PlanPolicy::kAuto);
      request.codec = PlanCodecPolicy::kAuto;
      request.topk_density = density;
      request.joint = true;
      const PlanLayerChoice best = PlanComm(request).layers.front();
      std::string best_label = PlannedSchemeName(best.scheme);
      if (best.compression != GradCompression::kNone) {
        best_label += std::string("+") + GradCompressionName(best.compression);
      }
      cells.push_back(best_label);
      table.AddRow(cells);
    }
  }
  std::printf("%s\n", table.ToString().c_str());
}

void RuntimeAblationPart(int iters, const std::vector<double>& densities,
                         BenchRecord* record) {
  std::printf("Threaded-runtime ablation: seeded 2-worker MLP, %d iterations,\n", iters);
  std::printf("bus egress bytes measured per iteration (framing included).\n\n");

  const CompressionAblationPoint raw =
      RunCompressionAblation(PlanCodecPolicy::kNone, /*topk_density=*/0.25, iters);
  const double raw_gain = raw.first_loss - raw.final_loss;
  record->Append("raw_bytes_per_iter", raw.wire_bytes_per_iter);
  record->Append("raw_final_loss", raw.final_loss);

  TextTable table({"codec", "density", "B/iter", "reduction", "final loss", "matched"});
  table.AddRow({"raw", "-", TextTable::Num(raw.wire_bytes_per_iter, 0), "1.00x",
                TextTable::Num(raw.final_loss, 4), "yes"});
  auto add_point = [&](const char* name, PlanCodecPolicy policy, double density) {
    const CompressionAblationPoint point =
        RunCompressionAblation(policy, density, iters);
    const double reduction = raw.wire_bytes_per_iter / point.wire_bytes_per_iter;
    const bool matched = raw.first_loss - point.final_loss >= 0.9 * raw_gain;
    record->Append(std::string(name) + "_bytes_per_iter", point.wire_bytes_per_iter);
    record->Append(std::string(name) + "_final_loss", point.final_loss);
    record->Append(std::string(name) + "_reduction", reduction);
    char reduction_label[32];
    std::snprintf(reduction_label, sizeof(reduction_label), "%.2fx", reduction);
    table.AddRow({name, policy == PlanCodecPolicy::kTopK
                            ? TextTable::Num(density, 2)
                            : std::string("-"),
                  TextTable::Num(point.wire_bytes_per_iter, 0), reduction_label,
                  TextTable::Num(point.final_loss, 4), matched ? "yes" : "NO"});
  };
  add_point("int8", PlanCodecPolicy::kInt8, 0.25);
  for (double density : densities) {
    char name[32];
    std::snprintf(name, sizeof(name), "topk%02d",
                  static_cast<int>(std::lround(density * 100)));
    add_point(name, PlanCodecPolicy::kTopK, density);
  }
  std::printf("%s\n", table.ToString().c_str());
}

void SimSweepPart(const BenchArgs& args, const std::vector<int>& nodes,
                  const std::vector<double>& bandwidths) {
  std::vector<SystemConfig> systems = {
      CaffePlusWfbp(),
      CompressedPsSystem(PlanCodecPolicy::kInt8),
      CompressedPsSystem(PlanCodecPolicy::kTopK, /*topk_density=*/0.01),
      CompressedPsSystem(PlanCodecPolicy::kAuto, /*topk_density=*/0.01),
  };
  const ModelSpec model = ModelByName("vgg19").value();
  for (double gbps : bandwidths) {
    // --plan=auto|fixed: the planner's joint scheme+codec choice replaces
    // the fixed per-codec system list above.
    const auto results =
        RunPlannedScalingSweep(args, model, systems, nodes, gbps, Engine::kCaffe);
    char title[160];
    std::snprintf(title, sizeof(title),
                  "Compressed-PS extension: %s @ %.0f GbE (Caffe engine)",
                  model.name.c_str(), gbps);
    std::printf("%s\n", FormatSpeedupTable(title, results).c_str());

    TextTable traffic({"system", "nodes", "tx Gb/iter/node"});
    for (const SweepResult& result : results) {
      if (result.nodes != nodes.back()) {
        continue;
      }
      double total = 0.0;
      for (double gbits : result.sim.tx_gbits_per_iter) {
        total += gbits;
      }
      traffic.AddRow({result.system, std::to_string(result.nodes),
                      TextTable::Num(total / result.nodes, 3)});
    }
    std::printf("%s\n", traffic.ToString().c_str());
  }
  const std::string plan_summary =
      FormatPlanSummary(args, model, nodes.back(), bandwidths.front());
  if (!plan_summary.empty()) {
    std::printf("%s\n", plan_summary.c_str());
  }
}

}  // namespace
}  // namespace poseidon

int main(int argc, char** argv) {
  const poseidon::BenchArgs args = poseidon::ParseBenchArgs(argc, argv);
  const std::vector<int> nodes = args.NodesOr({4, 8, 16});
  const std::vector<double> bandwidths = args.GbpsOr({10.0, 40.0});
  const int iters = args.ItersOr(/*normal=*/24, /*fast_iters=*/8);
  const std::vector<double> densities =
      args.fast ? std::vector<double>{0.25} : std::vector<double>{0.05, 0.25, 0.5};
  poseidon::InitBenchTelemetry(args);
  poseidon::BenchRecord record("ext_compression");
  record.SetMeta("iters", static_cast<double>(iters));
  poseidon::CostTablePart(nodes, /*density=*/0.05);
  poseidon::RuntimeAblationPart(iters, densities, &record);
  poseidon::SimSweepPart(args, nodes, bandwidths);
  poseidon::FinishBenchTelemetry(args, &record);
  return 0;
}
