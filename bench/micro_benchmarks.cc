// Micro-benchmarks (google-benchmark) for the building blocks: GEMM, the
// communication codecs, the event queue / network fabric, and the in-process
// transport. These are the knobs that determine how fast the convergence
// experiments and protocol simulations run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/common/rng.h"
#include "src/simd/vec.h"
#include "src/stats/bench_record.h"
#include "src/stats/report.h"
#include "src/stats/stopwatch.h"
#include "src/stats/trace.h"
#include "src/models/zoo.h"
#include "src/nn/builders.h"
#include "src/nn/layers.h"
#include "src/planner/comm_planner.h"
#include "src/poseidon/trainer.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"
#include "src/tensor/onebit.h"
#include "src/tensor/ops.h"
#include "src/tensor/sufficient_factor.h"
#include "src/transport/bus.h"
#include "src/transport/codec.h"
#include "src/transport/socket_bench.h"

namespace poseidon {
namespace {

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::RandomUniform({n, n}, -1.0f, 1.0f, rng);
  Tensor b = Tensor::RandomUniform({n, n}, -1.0f, 1.0f, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    Gemm(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_OneBitEncode(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  Tensor grad = Tensor::RandomUniform({n, n}, -1.0f, 1.0f, rng);
  OneBitQuantizer quantizer;
  for (auto _ : state) {
    OneBitEncoded encoded = quantizer.Encode(grad);
    benchmark::DoNotOptimize(encoded.bits.data());
  }
  state.SetBytesProcessed(state.iterations() * n * n * 4);
}
BENCHMARK(BM_OneBitEncode)->Arg(128)->Arg(512);

void BM_OneBitDecode(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  Tensor grad = Tensor::RandomUniform({n, n}, -1.0f, 1.0f, rng);
  OneBitQuantizer quantizer;
  const OneBitEncoded encoded = quantizer.Encode(grad);
  for (auto _ : state) {
    Tensor decoded = OneBitQuantizer::Decode(encoded);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetBytesProcessed(state.iterations() * n * n * 4);
}
BENCHMARK(BM_OneBitDecode)->Arg(128)->Arg(512);

void BM_SfReconstruct(benchmark::State& state) {
  const int64_t k = state.range(0);
  Rng rng(4);
  Tensor errors = Tensor::RandomUniform({k, 256}, -1.0f, 1.0f, rng);
  Tensor inputs = Tensor::RandomUniform({k, 512}, -1.0f, 1.0f, rng);
  const SufficientFactors factors = MakeSufficientFactors(errors, inputs);
  Tensor out({256, 512});
  for (auto _ : state) {
    ReconstructGradient(factors, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 256 * 512 * k);
}
BENCHMARK(BM_SfReconstruct)->Arg(8)->Arg(32);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(static_cast<double>((i * 7919) % 1000), [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurn);

void BM_FabricAllToAll(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    FabricConfig config;
    config.egress_bytes_per_sec = 5e9;
    config.ingress_bytes_per_sec = 5e9;
    NetworkFabric fabric(&sim, nodes, config);
    int delivered = 0;
    for (int s = 0; s < nodes; ++s) {
      for (int d = 0; d < nodes; ++d) {
        fabric.Send(s, d, 8 * 1024 * 1024, [&delivered] { ++delivered; });
      }
    }
    sim.Run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * nodes * nodes);
}
BENCHMARK(BM_FabricAllToAll)->Arg(8)->Arg(32);

void BM_BusRoundTrip(benchmark::State& state) {
  MessageBus bus(2);
  auto server = bus.Register(Address{1, kServerPort});
  auto client = bus.Register(Address{0, kSyncerPortBase});
  Payload grads = Payload::Allocate(1024);
  for (auto _ : state) {
    Message m;
    m.type = MessageType::kGradPush;
    m.from = Address{0, kSyncerPortBase};
    m.to = Address{1, kServerPort};
    m.chunks.push_back({0, grads.View()});
    benchmark::DoNotOptimize(bus.Send(std::move(m)));
    auto received = server->Pop();
    Message reply;
    reply.type = MessageType::kParamReply;
    reply.from = Address{1, kServerPort};
    reply.to = Address{0, kSyncerPortBase};
    reply.chunks = received->chunks;  // zero-copy: same slab back
    benchmark::DoNotOptimize(bus.Send(std::move(reply)));
    benchmark::DoNotOptimize(client->Pop());
  }
  state.SetBytesProcessed(state.iterations() * 1024 * 4 * 2);
}
BENCHMARK(BM_BusRoundTrip);

// ------------------------------------------------------------- wire path ----
//
// End-to-end accounting for the zero-copy wire layer: floats staged, staging
// copies, and wire messages per training iteration, per scheme, with and
// without egress batching (arg 1 = batched). Counters:
//   floats/iter   measured staging-copy floats per iteration (WireCopyStats)
//   copies/iter   measured staging-copy operations per iteration
//   msgs/iter     wire frames per iteration (a delivered batch counts once)
//   logical/iter  pre-batching message count per iteration
//   before_floats pre-refactor copy model for the same run (see below)
//   copy_reduction before_floats / floats-per-iter
//
// Pre-refactor PS copy model: per iteration the old wire path staged each of
// the W workers' T layer floats (1) into a host buffer, (2) into per-pair
// chunk vectors, and (3) into the server's pending buffers, then built one
// reply payload (T) and scattered it on each worker (W*T): (4W+1)*T floats.
// The zero-copy path keeps only the two end staging moves (gather+scatter,
// 2WT), so the modeled reduction is (4W+1)/(2W) ≈ 2.25x at W=2 — the ≥2x
// acceptance bar for this refactor.

struct WirePathCounters {
  double floats_per_iter = 0.0;
  double copies_per_iter = 0.0;
  double msgs_per_iter = 0.0;
  double logical_per_iter = 0.0;
  double model_floats = 0.0;  // total trainable floats, from the model itself
};

WirePathCounters RunWirePath(PlanPolicy policy, int workers, int hidden_layers,
                             bool batch, int iters) {
  DatasetConfig data;
  data.num_classes = 3;
  data.channels = 1;
  data.height = 8;
  data.width = 8;
  data.train_size = 96;
  data.seed = 7;
  SyntheticDataset dataset(data);
  NetworkFactory factory = [hidden_layers] {
    Rng rng(13);
    return BuildMlp(/*input_dim=*/64, /*hidden_dim=*/24, hidden_layers, /*classes=*/3,
                    rng);
  };
  TrainerOptions options;
  options.num_workers = workers;
  options.num_servers = 2;
  options.batch_per_worker = 4;
  options.fc_policy = policy;
  options.kv_pair_bytes = 1024;
  options.batch_egress = batch;
  PoseidonTrainer trainer(factory, options);

  trainer.Train(dataset, 2);  // warm up staging slabs
  trainer.bus().FlushEgress();
  WireCopyStats::Reset();
  trainer.bus().ResetTraffic();
  trainer.Train(dataset, iters);
  trainer.bus().FlushEgress();

  WirePathCounters counters;
  for (auto& layer_params : trainer.worker_net(0).LayerParams()) {
    for (ParamBlock& p : layer_params) {
      counters.model_floats += static_cast<double>(p.value->size());
    }
  }
  counters.floats_per_iter = static_cast<double>(WireCopyStats::Floats()) / iters;
  counters.copies_per_iter = static_cast<double>(WireCopyStats::Copies()) / iters;
  for (int64_t m : trainer.bus().TxMessages()) {
    counters.msgs_per_iter += static_cast<double>(m) / iters;
  }
  for (int64_t e : trainer.bus().TxEntries()) {
    counters.logical_per_iter += static_cast<double>(e) / iters;
  }
  return counters;
}

void WirePathBench(benchmark::State& state, PlanPolicy policy, int hidden_layers) {
  const bool batch = state.range(0) != 0;
  const int workers = 2;
  WirePathCounters counters;
  for (auto _ : state) {
    counters = RunWirePath(policy, workers, hidden_layers, batch, /*iters=*/4);
  }
  state.counters["floats/iter"] = counters.floats_per_iter;
  state.counters["copies/iter"] = counters.copies_per_iter;
  state.counters["msgs/iter"] = counters.msgs_per_iter;
  state.counters["logical/iter"] = counters.logical_per_iter;
  if (policy == PlanPolicy::kDense) {
    // Pre-refactor model (see comment above), anchored on the model's own
    // parameter count T so the ratio is a real measurement: the old path
    // staged (4W+1)T floats per iteration; the measured counter should be
    // the two end moves, 2WT. A regression that adds staging copies shows
    // up as a falling copy_reduction.
    const double before = (4.0 * workers + 1.0) * counters.model_floats;
    state.counters["before_floats"] = before;
    state.counters["copy_reduction"] = before / counters.floats_per_iter;
  }
}

// 20-layer MLP on the PS path: the batcher's headline case.
void BM_WirePathPs20Layer(benchmark::State& state) {
  WirePathBench(state, PlanPolicy::kDense, /*hidden_layers=*/18);
}
BENCHMARK(BM_WirePathPs20Layer)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_WirePathSfb(benchmark::State& state) {
  WirePathBench(state, PlanPolicy::kSfb, /*hidden_layers=*/2);
}
BENCHMARK(BM_WirePathSfb)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_WirePathOneBit(benchmark::State& state) {
  WirePathBench(state, PlanPolicy::kOneBit, /*hidden_layers=*/2);
}
BENCHMARK(BM_WirePathOneBit)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Codec round trips in isolation (encode + decode, no trainer).
void BM_CodecSfRoundTrip(benchmark::State& state) {
  Rng rng(5);
  Tensor errors = Tensor::RandomUniform({32, 256}, -1.0f, 1.0f, rng);
  Tensor inputs = Tensor::RandomUniform({32, 512}, -1.0f, 1.0f, rng);
  const SufficientFactors factors = MakeSufficientFactors(errors, inputs);
  Tensor out({256, 512});
  for (auto _ : state) {
    Payload frame = SufficientFactorCodec::Encode(factors, nullptr, 0);
    benchmark::DoNotOptimize(SufficientFactorCodec::DecodeReconstruct(frame.View(), &out));
  }
  state.SetBytesProcessed(state.iterations() * 256 * 512 * 4);
}
BENCHMARK(BM_CodecSfRoundTrip);

void BM_CodecOneBitRoundTrip(benchmark::State& state) {
  Rng rng(6);
  Tensor grad = Tensor::RandomUniform({256, 256}, -1.0f, 1.0f, rng);
  OneBitQuantizer quantizer;
  Tensor out;
  for (auto _ : state) {
    Payload frame = OneBitCodec::Encode(grad, &quantizer, nullptr, 0);
    benchmark::DoNotOptimize(OneBitCodec::DecodeDense(frame.View(), &out));
  }
  state.SetBytesProcessed(state.iterations() * 256 * 256 * 4);
}
BENCHMARK(BM_CodecOneBitRoundTrip);

// ---------------- recorded perf trajectory + telemetry self-check ----------
//
// Beyond the google-benchmark suite above, this binary emits a machine-
// readable BenchRecord (--json-out; CI commits it as BENCH_micro.json) with
// the numbers the project tracks release-over-release: floats/s through each
// codec, staging-copy counts on the wire path, and the measured cost of a
// disabled TraceSpan. The self-check section runs BEFORE --trace-out arms the
// tracer, because the <2% budget is about the *disabled* instrumentation cost
// on the hot path (and re-enabling the tracer resets its clock epoch).

// Runs `fn` in small batches until ~20ms have elapsed; returns ns per call.
// A ~2ms untimed warmup runs first: the first calls through a fresh slab
// fault in pages and miss cold caches, which used to put ~2x run-to-run
// variance on the short raw-encode series. Warming until the allocator's
// slab pages are touched makes the timed section measure steady state.
template <typename Fn>
double NsPerCall(Fn&& fn) {
  {
    Stopwatch warmup;
    do {
      fn();
    } while (warmup.ElapsedNs() < 2 * 1000 * 1000);
  }
  Stopwatch watch;
  int64_t calls = 0;
  do {
    for (int i = 0; i < 8; ++i) {
      fn();
    }
    calls += 8;
  } while (watch.ElapsedNs() < 20 * 1000 * 1000);
  return static_cast<double>(watch.ElapsedNs()) / static_cast<double>(calls);
}

// ------------------------------------------------------------- roofline ----
//
// SIMD roofline section (docs/PERFORMANCE.md): the same hot kernels timed
// under pinned scalar dispatch and under the best available SIMD level, plus
// a streaming memory-bandwidth measurement that bounds what any bandwidth-
// limited kernel can reach. Emitted series:
//   ring_reduce_floats_per_s_{scalar,simd}        collective accumulate loop
//   gemm_trans_b_{conv,fc}_floats_per_s_{scalar,simd}
//                                                 GemmTransB multiply-add terms
//                                                 (m*k*n) per second on a
//                                                 column-lane and an FC
//                                                 forward shape
//   conv_layer_floats_per_s_{scalar,simd}         Conv2dLayer::Forward
//                                                 multiply-add terms per second
//                                                 on CIFAR conv2 at batch 16
//   mem_bw_gbps                                   large-buffer copy bandwidth
// When the host has no SIMD backend (meta simd_available = 0) the _simd
// series repeat the scalar numbers so the required-series contract holds;
// the CI ratio gates skip themselves in that case (tools/check_bench_json.py).
void RecordRoofline(BenchRecord* record) {
  const simd::Level best = simd::BestLevel();
  const bool simd_available = best != simd::Level::kScalar;
  record->SetMeta("simd_available", simd_available ? 1.0 : 0.0);
  record->SetMeta("simd_best_level", simd::LevelName(best));

  Rng rng(17);
  // Ring reduce working set: one collective chunk's worth of floats, sized
  // to live in cache so the scalar/simd contrast measures compute, not DRAM.
  const int64_t reduce_n = 64 * 1024;
  std::vector<float> reduce_dst(static_cast<size_t>(reduce_n), 0.5f);
  std::vector<float> reduce_src(static_cast<size_t>(reduce_n), 0.25f);

  // GemmTransB shapes as m x k x n. "conv" is CIFAR conv2's im2col product
  // at batch 16: the conv forward no longer runs GemmTransB (conv_layer
  // below times it), but the shape still drives the column-lane path that SF
  // reconstruction runs, and keeps the series' history comparable. "fc" is
  // a VGG fc forward at batch 8 (row lanes).
  struct GemmShape {
    const char* name;
    int64_t m, k, n;
  };
  const GemmShape gemm_shapes[] = {{"conv", 4096, 800, 32}, {"fc", 8, 1024, 2048}};

  for (const bool use_simd : {false, true}) {
    const simd::ScopedLevel pinned(use_simd ? best : simd::Level::kScalar);
    const char* suffix = use_simd ? "simd" : "scalar";
    for (const GemmShape& shape : gemm_shapes) {
      Tensor a = Tensor::RandomUniform({shape.m, shape.k}, -1.0f, 1.0f, rng);
      Tensor b = Tensor::RandomUniform({shape.n, shape.k}, -1.0f, 1.0f, rng);
      Tensor out({shape.m, shape.n});
      const double terms = static_cast<double>(shape.m * shape.k * shape.n);
      for (int rep = 0; rep < 3; ++rep) {
        const double gemm_ns = NsPerCall([&] {
          GemmTransB(a, b, &out);
          benchmark::DoNotOptimize(out.data());
          benchmark::ClobberMemory();
        });
        record->Append(std::string("gemm_trans_b_") + shape.name + "_floats_per_s_" +
                           suffix,
                       1e9 * terms / gemm_ns);
      }
    }
    {
      // CIFAR conv2 at batch 16: 32 -> 32 channels, 5x5, pad 2, 16x16 pixels.
      Rng conv_rng(29);
      Conv2dLayer conv("conv2", 32, 32, 5, 1, 2, conv_rng);
      const Tensor in = Tensor::RandomUniform({16, 32, 16, 16}, -1.0f, 1.0f, rng);
      Tensor out;
      const double terms = 16.0 * 16 * 16 * 32 * (32 * 5 * 5);
      for (int rep = 0; rep < 3; ++rep) {
        const double conv_ns = NsPerCall([&] {
          conv.Forward(in, &out);
          benchmark::DoNotOptimize(out.data());
          benchmark::ClobberMemory();
        });
        record->Append(std::string("conv_layer_floats_per_s_") + suffix, 1e9 * terms / conv_ns);
      }
    }
    for (int rep = 0; rep < 3; ++rep) {
      const double reduce_ns = NsPerCall([&] {
        simd::ReduceAdd(reduce_dst.data(), reduce_src.data(), reduce_n);
        benchmark::DoNotOptimize(reduce_dst.data());
      });
      record->Append(std::string("ring_reduce_floats_per_s_") + suffix,
                     1e9 * static_cast<double>(reduce_n) / reduce_ns);
    }
  }

  // Streaming bandwidth: copy a buffer much larger than the last-level
  // cache; each call moves the bytes twice (read + write).
  const int64_t bw_floats = 16 * 1024 * 1024;
  std::vector<float> bw_src(static_cast<size_t>(bw_floats), 1.0f);
  std::vector<float> bw_dst(static_cast<size_t>(bw_floats), 0.0f);
  for (int rep = 0; rep < 3; ++rep) {
    const double copy_ns = NsPerCall([&] {
      std::memcpy(bw_dst.data(), bw_src.data(),
                  static_cast<size_t>(bw_floats) * sizeof(float));
      benchmark::DoNotOptimize(bw_dst.data());
    });
    record->Append("mem_bw_gbps",
                   8.0 * 2.0 * static_cast<double>(bw_floats) * 4.0 / copy_ns);
  }

  const double scalar = record->Series("ring_reduce_floats_per_s_scalar").front();
  const double vec = record->Series("ring_reduce_floats_per_s_simd").front();
  std::printf("roofline: ring_reduce %s %.0fM floats/s vs scalar %.0fM floats/s "
              "(%.1fx), mem_bw %.1f Gb/s\n",
              simd::LevelName(best), vec / 1e6, scalar / 1e6, vec / scalar,
              record->Series("mem_bw_gbps").front());
  for (const GemmShape& shape : gemm_shapes) {
    const std::string series = std::string("gemm_trans_b_") + shape.name + "_floats_per_s_";
    const double gemm_scalar = record->Series(series + "scalar").front();
    const double gemm_vec = record->Series(series + "simd").front();
    std::printf("roofline: gemm_trans_b %s %s %.0fM terms/s vs scalar %.0fM (%.1fx)\n",
                shape.name, simd::LevelName(best), gemm_vec / 1e6, gemm_scalar / 1e6,
                gemm_vec / gemm_scalar);
  }
  const double conv_scalar = record->Series("conv_layer_floats_per_s_scalar").front();
  const double conv_vec = record->Series("conv_layer_floats_per_s_simd").front();
  std::printf("roofline: conv_layer %s %.0fM terms/s vs scalar %.0fM (%.1fx)\n",
              simd::LevelName(best), conv_vec / 1e6, conv_scalar / 1e6, conv_vec / conv_scalar);
}

void RecordWirePath(const char* prefix, PlanPolicy policy, int hidden_layers,
                    BenchRecord* record) {
  const int workers = 2;
  const WirePathCounters counters =
      RunWirePath(policy, workers, hidden_layers, /*batch=*/true, /*iters=*/4);
  const std::string p(prefix);
  record->Append(p + "_floats_per_iter", counters.floats_per_iter);
  record->Append(p + "_copies_per_iter", counters.copies_per_iter);
  record->Append(p + "_msgs_per_iter", counters.msgs_per_iter);
  if (policy == PlanPolicy::kDense) {
    // Same pre-refactor copy model as BM_WirePathPs20Layer above.
    const double before = (4.0 * workers + 1.0) * counters.model_floats;
    record->Append(p + "_copy_reduction", before / counters.floats_per_iter);
  }
}

// ------------------------------------------------- compression trajectory ----
//
// Bytes-vs-final-loss point for each PS wire codec (docs/COMPRESSION.md),
// measured on a real seeded training run through the bus. Recorded series:
//   ext_compression_{raw,int8,topk}_bytes_per_iter   bus egress bytes
//   ext_compression_{raw,int8,topk}_final_loss       after 16 iters
//   ext_compression_best_matched_reduction                see below
// The headline number is the best byte reduction among codecs whose run is
// "matched": it recovers at least 90% of the raw run's loss improvement.
// The acceptance bar — and the CI gate in tools/check_bench_json.py — is a
// >= 2x reduction at matched loss. bench_ext_compression sweeps the wider
// grid; this section pins the tracked trajectory.
bool RecordCompressionAblation(BenchRecord* record) {
  const int iters = 16;
  const double density = 0.25;
  const CompressionAblationPoint raw =
      RunCompressionAblation(PlanCodecPolicy::kNone, density, iters);
  record->Append("ext_compression_raw_bytes_per_iter", raw.wire_bytes_per_iter);
  record->Append("ext_compression_raw_final_loss", raw.final_loss);
  const double raw_gain = raw.first_loss - raw.final_loss;

  double best_matched = 0.0;
  const struct {
    const char* name;
    PlanCodecPolicy policy;
  } codecs[] = {{"int8", PlanCodecPolicy::kInt8}, {"topk", PlanCodecPolicy::kTopK}};
  for (const auto& codec : codecs) {
    const CompressionAblationPoint point =
        RunCompressionAblation(codec.policy, density, iters);
    const double reduction = raw.wire_bytes_per_iter / point.wire_bytes_per_iter;
    const bool matched = raw.first_loss - point.final_loss >= 0.9 * raw_gain;
    record->Append(std::string("ext_compression_") + codec.name + "_bytes_per_iter",
                   point.wire_bytes_per_iter);
    record->Append(std::string("ext_compression_") + codec.name + "_final_loss",
                   point.final_loss);
    if (matched) {
      best_matched = std::max(best_matched, reduction);
    }
    std::printf("ext_compression %s: %.0f B/iter (%.2fx vs raw), final loss %.4f "
                "(raw %.4f)%s\n",
                codec.name, point.wire_bytes_per_iter, reduction, point.final_loss,
                raw.final_loss, matched ? "" : " [NOT loss-matched]");
  }
  record->Append("ext_compression_best_matched_reduction", best_matched);
  if (best_matched < 2.0) {
    std::fprintf(stderr,
                 "FAIL: best loss-matched wire-byte reduction %.2fx is below the "
                 "2x acceptance bar\n",
                 best_matched);
    return false;
  }
  return true;
}

// ------------------------------------------------------ planner trajectory ----
//
// CommPlanner cost trajectory (docs/PLANNER.md). Recorded series:
//   planner_cold_search_us      full joint search, vgg19 @ 16 nodes
//   planner_default_bytes_per_iter   paper-default predicted wire bytes
//   planner_planned_bytes_per_iter   joint-plan predicted wire bytes
//   planner_bytes_ratio              default / planned, >= 1: the joint
//                                    search may never predict more traffic
//                                    than the hand-picked configuration
bool RecordPlanner(BenchRecord* record) {
  const ModelSpec model = ModelByName("vgg19").value();
  const int nodes = 16;
  const PlanRequest joint = JointAutoRequest(model, nodes, /*nic_gbps=*/40.0,
                                             /*max_shards=*/8);

  double cold_us = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double cold_ns = NsPerCall([&] {
      CommPlan plan = PlanComm(joint);
      benchmark::DoNotOptimize(&plan);
    });
    record->Append("planner_cold_search_us", cold_ns / 1e3);
    cold_us = cold_ns / 1e3;
  }

  const CommPlan planned = PlanComm(JointAutoRequest(model, nodes, /*nic_gbps=*/0.0,
                                                     /*max_shards=*/8));
  const CommPlan fallback = PlanComm(PaperDefaultRequest(model, nodes));
  const double ratio = fallback.predicted_wire_bytes / planned.predicted_wire_bytes;
  record->Append("planner_default_bytes_per_iter", fallback.predicted_wire_bytes);
  record->Append("planner_planned_bytes_per_iter", planned.predicted_wire_bytes);
  record->Append("planner_bytes_ratio", ratio);

  std::printf("planner: cold search %.1f us, "
              "planned %.1f MB/iter vs default %.1f MB/iter (%.2fx)\n",
              cold_us, planned.predicted_wire_bytes / 1e6,
              fallback.predicted_wire_bytes / 1e6, ratio);
  if (ratio < 1.0) {
    std::fprintf(stderr,
                 "FAIL: joint plan predicts %.2fx the default's wire bytes; the "
                 "search must never lose to the hand-picked configuration\n",
                 1.0 / ratio);
    return false;
  }
  return true;
}

bool SelfCheckAndRecord(BenchRecord* record) {
  record->SetMeta("wire_workers", 2.0);
  record->SetMeta("wire_iters", 4.0);
  record->SetMeta("overhead_bound", 0.02);

  // Per-codec throughput trajectory: three repeats each, floats per second.
  // Raw is encode-only (the staging copy); SF and one-bit are round trips,
  // credited with the dense floats they transport.
  Rng rng(11);
  Tensor dense = Tensor::RandomUniform({256, 512}, -1.0f, 1.0f, rng);
  Tensor errors = Tensor::RandomUniform({32, 256}, -1.0f, 1.0f, rng);
  Tensor inputs = Tensor::RandomUniform({32, 512}, -1.0f, 1.0f, rng);
  const SufficientFactors factors = MakeSufficientFactors(errors, inputs);
  Tensor sf_out({256, 512});
  OneBitQuantizer quantizer;
  Tensor onebit_grad = Tensor::RandomUniform({256, 256}, -1.0f, 1.0f, rng);
  Tensor onebit_out;
  for (int rep = 0; rep < 3; ++rep) {
    const double raw_ns = NsPerCall([&] {
      Payload frame = RawFloatCodec::Encode(dense.data(), dense.size());
      benchmark::DoNotOptimize(frame);
    });
    record->Append("raw_encode_floats_per_s", 1e9 * dense.size() / raw_ns);
    const double sf_ns = NsPerCall([&] {
      Payload frame = SufficientFactorCodec::Encode(factors, nullptr, 0);
      benchmark::DoNotOptimize(SufficientFactorCodec::DecodeReconstruct(frame.View(), &sf_out));
    });
    record->Append("sf_roundtrip_floats_per_s", 1e9 * (256.0 * 512.0) / sf_ns);
    const double onebit_ns = NsPerCall([&] {
      Payload frame = OneBitCodec::Encode(onebit_grad, &quantizer, nullptr, 0);
      benchmark::DoNotOptimize(OneBitCodec::DecodeDense(frame.View(), &onebit_out));
    });
    record->Append("onebit_roundtrip_floats_per_s", 1e9 * (256.0 * 256.0) / onebit_ns);
  }

  // SIMD roofline: scalar-vs-dispatched kernel throughput + memory bandwidth.
  RecordRoofline(record);

  // Wire-path staging-copy counts per training iteration, per scheme.
  RecordWirePath("wire_ps", PlanPolicy::kDense, /*hidden_layers=*/18, record);
  RecordWirePath("wire_sfb", PlanPolicy::kSfb, /*hidden_layers=*/2, record);
  RecordWirePath("wire_onebit", PlanPolicy::kOneBit, /*hidden_layers=*/2, record);

  // Compressed-PS bytes-vs-loss trajectory and its 2x matched-loss gate.
  if (!RecordCompressionAblation(record)) {
    return false;
  }

  // CommPlanner search cost and the bytes-never-worse gate.
  if (!RecordPlanner(record)) {
    return false;
  }

  // Real-network datapoint: payload Gb/s through the socket transport on
  // loopback TCP and a Unix-domain socket (the multi-process cluster's data
  // path, wire frames and all). A regression here is a socket-path
  // serialization or egress-carrier problem, not a codec one.
  for (const bool unix_sockets : {false, true}) {
    SocketBandwidthOptions options;
    options.unix_sockets = unix_sockets;
    const StatusOr<SocketBandwidthResult> measured = MeasureSocketBandwidth(options);
    const char* series = unix_sockets ? "socket_unix_gbps" : "socket_tcp_gbps";
    if (!measured.ok()) {
      std::fprintf(stderr, "FAIL: %s probe: %s\n", series,
                   measured.status().ToString().c_str());
      return false;
    }
    record->Append(series, measured->payload_gbps);
    std::printf("%s: %.2f Gb/s payload (%.2f Gb/s on the stream)\n", series,
                measured->payload_gbps, measured->wire_gbps);
  }

  // Disabled-overhead budget: a TraceSpan while tracing is off costs one
  // relaxed atomic load at construction and a flag test at destruction. The
  // densest instrumentation on the wire path is one span per codec call, so
  // the bound compared here is span cost over the cheapest traced encode (a
  // small 16 KiB raw staging copy) — the worst realistic ratio.
  if (Tracer::enabled()) {
    std::fprintf(stderr,
                 "self-check: tracer unexpectedly enabled; overhead measurement "
                 "reflects the ENABLED cost\n");
  }
  const double span_ns = NsPerCall([&] {
    TraceSpan span("selfcheck.noop", "bench");
    benchmark::DoNotOptimize(&span);
  });
  Tensor small = Tensor::RandomUniform({64, 64}, -1.0f, 1.0f, rng);
  const double small_encode_ns = NsPerCall([&] {
    Payload frame = RawFloatCodec::Encode(small.data(), small.size());
    benchmark::DoNotOptimize(frame);
  });
  const double overhead_frac = span_ns / small_encode_ns;
  record->Append("disabled_span_ns", span_ns);
  record->Append("telemetry_overhead_frac", overhead_frac);
  std::printf("telemetry self-check: disabled span %.2f ns, %.0f ns/16KiB encode, "
              "overhead %.4f%% (budget 2%%)\n",
              span_ns, small_encode_ns, 100.0 * overhead_frac);
  if (overhead_frac >= 0.02) {
    std::fprintf(stderr,
                 "FAIL: disabled tracing overhead %.3f%% exceeds the 2%% budget\n",
                 100.0 * overhead_frac);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace poseidon

int main(int argc, char** argv) {
  // Split argv: the shared telemetry flags are ours; everything else goes to
  // google-benchmark untouched (--benchmark_filter and friends still work).
  poseidon::BenchArgs args;
  std::vector<char*> bench_args;
  bench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> std::string {
      std::string v = arg.substr(std::strlen(prefix));
      if (!v.empty() && v[0] == '=') {
        return v.substr(1);
      }
      if (v.empty() && i + 1 < argc) {
        return argv[++i];
      }
      return v;
    };
    if (arg.rfind("--simd", 0) == 0) {
      args.simd = value_of("--simd");
      if (!poseidon::simd::SetLevelFromString(args.simd)) {
        std::fprintf(stderr, "invalid --simd value: '%s' (auto|avx2|neon|scalar)\n",
                     args.simd.c_str());
        return 2;
      }
    } else if (arg.rfind("--json-out", 0) == 0) {
      args.json_out = value_of("--json-out");
    } else if (arg.rfind("--trace-out", 0) == 0) {
      args.trace_out = value_of("--trace-out");
    } else if (arg.rfind("--metrics-json", 0) == 0) {
      args.metrics_json = value_of("--metrics-json");
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_args.size());

  poseidon::BenchRecord record("micro_benchmarks");
  const bool overhead_ok = poseidon::SelfCheckAndRecord(&record);

  poseidon::InitBenchTelemetry(args);
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  poseidon::FinishBenchTelemetry(args, &record);
  return overhead_ok ? 0 : 1;
}
