#include "src/stats/report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/nn/builders.h"
#include "src/planner/comm_planner.h"
#include "src/poseidon/trainer.h"

namespace poseidon {
namespace {

double Mean(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) {
    total += x;
  }
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

}  // namespace

std::vector<SweepResult> RunScalingSweep(const ModelSpec& model,
                                         const std::vector<SystemConfig>& systems,
                                         const std::vector<int>& node_counts, double gbps,
                                         Engine engine) {
  std::vector<SweepResult> results;
  for (const SystemConfig& system : systems) {
    for (int nodes : node_counts) {
      ClusterSpec cluster;
      cluster.num_nodes = nodes;
      cluster.nic_gbps = gbps;
      SweepResult result;
      result.system = system.name;
      result.nodes = nodes;
      result.gbps = gbps;
      result.sim = RunProtocolSimulation(model, system, cluster, engine);
      results.push_back(std::move(result));
    }
  }
  return results;
}

std::shared_ptr<const CommPlan> PlanForBench(const BenchArgs& args, const ModelSpec& model,
                                             int nodes, double gbps) {
  if (args.AutoPlan()) {
    return std::make_shared<const CommPlan>(
        PlanComm(JointAutoRequest(model, nodes, gbps, kMaxAutoShards)));
  }
  if (args.FixedPlan()) {
    return std::make_shared<const CommPlan>(LoadFixedPlanOrExit(args));
  }
  return nullptr;
}

CommPlan LoadFixedPlanOrExit(const BenchArgs& args) {
  StatusOr<CommPlan> loaded = CommPlan::LoadFromFile(args.FixedPlanPath());
  if (!loaded.ok()) {
    std::fprintf(stderr, "--plan=%s: %s\n", args.plan.c_str(),
                 loaded.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(loaded).value();
}

std::vector<SweepResult> RunPlannedScalingSweep(const BenchArgs& args, const ModelSpec& model,
                                                const std::vector<SystemConfig>& paper_systems,
                                                const std::vector<int>& node_counts,
                                                double gbps, Engine engine) {
  if (!args.AutoPlan() && !args.FixedPlan()) {
    return RunScalingSweep(model, paper_systems, node_counts, gbps, engine);
  }
  // The plan depends on the cluster shape, so each node count gets its own
  // plan; a fixed plan is simply the same file at every point, and prices
  // only the model it was made for.
  std::vector<SweepResult> results;
  for (int nodes : node_counts) {
    std::shared_ptr<const CommPlan> plan = PlanForBench(args, model, nodes, gbps);
    if (plan->model != model.name) {
      std::printf("Skipping %s: --plan=%s is a plan for %s\n", model.name.c_str(),
                  args.plan.c_str(), plan->model.c_str());
      break;
    }
    const auto point =
        RunScalingSweep(model, {PlannedSystem(std::move(plan))}, {nodes}, gbps, engine);
    results.insert(results.end(), point.begin(), point.end());
  }
  return results;
}

std::string FormatPlanSummary(const BenchArgs& args, const ModelSpec& model, int nodes,
                              double gbps) {
  const std::shared_ptr<const CommPlan> plan = PlanForBench(args, model, nodes, gbps);
  if (plan == nullptr || plan->model != model.name) {
    return std::string();
  }
  std::ostringstream out;
  out << "Plan (" << args.plan << ") for " << model.name << " on " << nodes
      << " nodes @ " << gbps << " GbE:\n"
      << plan->Summary();
  return out.str();
}

std::string FormatSpeedupTable(const std::string& title,
                               const std::vector<SweepResult>& results) {
  if (results.empty()) {
    return std::string();  // e.g. a sweep that skipped a foreign fixed plan
  }
  // Preserve first-appearance order of systems and node counts.
  std::vector<std::string> systems;
  std::vector<int> nodes;
  std::map<std::pair<std::string, int>, double> speedup;
  for (const SweepResult& r : results) {
    if (std::find(systems.begin(), systems.end(), r.system) == systems.end()) {
      systems.push_back(r.system);
    }
    if (std::find(nodes.begin(), nodes.end(), r.nodes) == nodes.end()) {
      nodes.push_back(r.nodes);
    }
    speedup[{r.system, r.nodes}] = r.sim.speedup;
  }

  std::vector<std::string> header = {"nodes", "linear"};
  for (const std::string& system : systems) {
    header.push_back(system);
  }
  TextTable table(std::move(header));
  for (int n : nodes) {
    std::vector<std::string> row = {std::to_string(n), std::to_string(n)};
    for (const std::string& system : systems) {
      auto it = speedup.find({system, n});
      row.push_back(it == speedup.end() ? "-" : TextTable::Num(it->second, 1));
    }
    table.AddRow(std::move(row));
  }

  std::ostringstream out;
  out << "== " << title << " ==\n" << table.ToString();
  return out.str();
}

std::string FormatBatchAblation(const std::string& title, const ModelSpec& model,
                                SystemConfig system, const std::vector<int>& node_counts,
                                double gbps, Engine engine) {
  TextTable table({"nodes", "msgs/iter", "msgs/iter(batched)", "reduction", "tx gbit/iter",
                   "tx gbit/iter(batched)"});
  for (int nodes : node_counts) {
    ClusterSpec cluster;
    cluster.num_nodes = nodes;
    cluster.nic_gbps = gbps;
    system.request.batch_egress = false;
    const SimResult plain = RunProtocolSimulation(model, system, cluster, engine);
    system.request.batch_egress = true;
    const SimResult batched = RunProtocolSimulation(model, system, cluster, engine);

    const double plain_msgs = Mean(plain.wire_msgs_per_iter);
    const double batched_msgs = Mean(batched.wire_msgs_per_iter);
    table.AddRow({std::to_string(nodes), TextTable::Num(plain_msgs, 1),
                  TextTable::Num(batched_msgs, 1),
                  TextTable::Num(batched_msgs > 0.0 ? plain_msgs / batched_msgs : 0.0, 2),
                  TextTable::Num(Mean(plain.tx_gbits_per_iter), 4),
                  TextTable::Num(Mean(batched.tx_gbits_per_iter), 4)});
  }
  std::ostringstream out;
  out << title << " (" << system.name << ", per-node averages)\n" << table.ToString();
  return out.str();
}

std::string FormatLossAblation(const std::string& title, const ModelSpec& model,
                               SystemConfig system, int nodes, double gbps, Engine engine,
                               const std::vector<double>& loss_rates) {
  ClusterSpec cluster;
  cluster.num_nodes = nodes;
  cluster.nic_gbps = gbps;

  system.loss_rate = 0.0;
  const SimResult clean = RunProtocolSimulation(model, system, cluster, engine);

  TextTable table({"loss", "iter_ms", "vs clean", "E[tx/msg]", "tx gbit/iter"});
  for (double loss : loss_rates) {
    system.loss_rate = loss;
    const SimResult result = loss == 0.0 ? clean
                                         : RunProtocolSimulation(model, system, cluster,
                                                                 engine);
    table.AddRow({TextTable::Num(loss, 4), TextTable::Num(result.iter_time_s * 1e3, 2),
                  TextTable::Num(result.iter_time_s / clean.iter_time_s, 3),
                  TextTable::Num(result.expected_transmissions, 3),
                  TextTable::Num(Mean(result.tx_gbits_per_iter), 4)});
  }
  std::ostringstream out;
  out << title << " (" << system.name << ", " << nodes << " nodes @ " << gbps
      << " GbE)\n"
      << table.ToString();
  return out.str();
}

CompressionAblationPoint RunCompressionAblation(PlanCodecPolicy policy,
                                                double topk_density, int iters) {
  DatasetConfig data;
  data.num_classes = 3;
  data.channels = 1;
  data.height = 8;
  data.width = 8;
  data.train_size = 96;
  data.seed = 7;
  SyntheticDataset dataset(data);
  NetworkFactory factory = [] {
    Rng rng(13);
    return BuildMlp(/*input_dim=*/64, /*hidden_dim=*/24, /*hidden_layers=*/2,
                    /*classes=*/3, rng);
  };
  TrainerOptions options;
  options.num_workers = 2;
  options.num_servers = 2;
  options.batch_per_worker = 4;
  options.fc_policy = PlanPolicy::kDense;  // every layer on the PS path
  options.kv_pair_bytes = 1024;
  options.ps_compression = policy;
  options.topk_density = topk_density;
  options.compression_min_floats = 1;  // the tiny MLP sits under the gate
  PoseidonTrainer trainer(factory, options);

  trainer.bus().FlushEgress();
  trainer.bus().ResetTraffic();
  const std::vector<IterationStats> stats = trainer.Train(dataset, iters);
  trainer.bus().FlushEgress();

  CompressionAblationPoint point;
  for (int64_t bytes : trainer.bus().TxBytes()) {
    point.wire_bytes_per_iter += static_cast<double>(bytes) / iters;
  }
  point.first_loss = stats.front().mean_loss;
  point.final_loss = stats.back().mean_loss;
  return point;
}

}  // namespace poseidon
