#include "src/poseidon/kv_store.h"

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"
#include "src/poseidon/flat_params.h"
#include "src/simd/vec.h"
#include "src/stats/trace.h"
#include "src/tensor/ops.h"

namespace poseidon {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

KvShard::KvShard(int server_id, int shard_id, int64_t first_iter,
                 const Coordinator& coordinator, const CommPlan& plan, Network& init_net,
                 MessageBus* bus, const SgdConfig& sgd)
    : server_(server_id),
      shard_(shard_id),
      staleness_(coordinator.cluster().staleness),
      coordinator_(coordinator),
      layers_(plan.layers),
      bus_(bus),
      optimizer_(sgd) {
  CHECK_EQ(layers_.size(), static_cast<size_t>(coordinator.num_layers()));
  CHECK_NOTNULL(bus);
  CHECK_LT(shard_id, kMaxShardsPerServer);
  ssp_stall_hist_ = MetricsRegistry::Default().GetHistogram("kv.ssp_stall_ns");
  mailbox_ = bus_->Register(coordinator_.cluster().ShardAddress(server_, shard_));

  for (int l = 0; l < coordinator_.num_layers(); ++l) {
    const PlannedScheme scheme = layers_[static_cast<size_t>(l)].scheme;
    if (scheme == PlannedScheme::kPS) {
      std::vector<KvPairInfo> owned = coordinator_.PairsOnShard(l, server_, shard_);
      if (owned.empty()) {
        continue;
      }
      FlatParamView view(init_net.layer(l).Params());
      DenseLayerState state;
      state.pairs.reserve(owned.size());
      int64_t total = 0;
      for (const KvPairInfo& info : owned) {
        total += info.length;
      }
      state.params = Payload::Allocate(total);
      int64_t slab_offset = 0;
      for (const KvPairInfo& info : owned) {
        PairState pair;
        pair.info = info;
        pair.slab_offset = slab_offset;
        view.GatherValueSlice(info.offset, state.params.data() + slab_offset, info.length);
        slab_offset += info.length;
        state.pairs.push_back(pair);
      }
      state.applied_clock = first_iter - 1;
      dense_layers_[l] = std::move(state);
    } else if (scheme == PlannedScheme::kOneBit &&
               coordinator_.OneBitOwnerServer(l) == server_ &&
               coordinator_.OneBitOwnerShard(l) == shard_) {
      const LayerInfo& info = coordinator_.layer(l);
      CHECK_GT(info.fc_m, 0) << "1-bit layers must be FC";
      OneBitLayerState state;
      FlatParamView view(init_net.layer(l).Params());
      state.value = Payload::Allocate(view.size());
      view.GatherValueSlice(0, state.value.data(), view.size());
      state.rows = info.fc_m;
      state.cols = info.fc_n;
      state.applied_clock = first_iter - 1;
      onebit_layers_[l] = std::move(state);
    }
  }
}

KvShard::~KvShard() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

void KvShard::Start() {
  CHECK(!thread_.joinable());
  thread_ = std::thread([this] { ServiceLoop(); });
}

void KvShard::Join() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

void KvShard::ServiceLoop() {
  while (true) {
    std::optional<Message> message = mailbox_->Pop();
    if (!message.has_value() || message->type == MessageType::kShutdown) {
      return;
    }
    switch (message->type) {
      case MessageType::kGradPush:
        HandleGradPush(*message);
        break;
      case MessageType::kOneBitPush:
        HandleOneBitPush(*message);
        break;
      default:
        LOG(Fatal) << "server " << server_ << " shard " << shard_
                   << ": unexpected message type";
    }
  }
}

GradCompression KvShard::layer_compression(int layer) const {
  return layers_[static_cast<size_t>(layer)].compression;
}

WireCodec KvShard::ExpectedPushCodec(GradCompression compression) {
  switch (compression) {
    case GradCompression::kNone:
      return WireCodec::kRawFloat;
    case GradCompression::kFp16:
      return WireCodec::kFp16;
    case GradCompression::kInt8:
      return WireCodec::kInt8;
    case GradCompression::kTopK:
      return WireCodec::kTopK;
  }
  return WireCodec::kRawFloat;
}

void KvShard::HandleGradPush(const Message& message) {
  ++pushes_processed_;
  auto it = dense_layers_.find(message.layer);
  CHECK(it != dense_layers_.end()) << "server " << server_ << " shard " << shard_
                                   << " owns no pairs of layer " << message.layer;
  DenseLayerState& state = it->second;
  const GradCompression compression = layer_compression(message.layer);
  if (compression == GradCompression::kNone) {
    CHECK(message.codec == WireCodec::kRawFloat);
  } else {
    // A compressed frame is sized by the sender, so treat it as wire input:
    // a codec mismatch or a frame that fails validation (or expands to the
    // wrong dense count) drops the push whole — no buffering, no reply —
    // instead of crashing the server or poisoning the clock's aggregate.
    const WireCodec expected = ExpectedPushCodec(compression);
    const Codec& codec = CodecRegistry::Get(expected);
    bool well_formed =
        message.codec == expected && message.chunks.size() == state.pairs.size();
    for (size_t p = 0; well_formed && p < state.pairs.size(); ++p) {
      const WireChunk& chunk = message.chunks[p];
      const StatusOr<int64_t> dense_count = codec.Validate(chunk.view);
      well_formed = chunk.offset == state.pairs[p].info.offset && dense_count.ok() &&
                    *dense_count == state.pairs[p].info.length;
    }
    if (!well_formed) {
      ++rejected_pushes_;
      LOG(Warning) << "server " << server_ << " shard " << shard_
                   << ": dropping malformed " << WireCodecName(message.codec)
                   << " push for layer " << message.layer << " from worker "
                   << message.worker << " (expected " << WireCodecName(expected) << ")";
      return;
    }
  }
  CHECK_EQ(message.chunks.size(), state.pairs.size());
  const int num_workers = coordinator_.cluster().num_workers;
  const int w = message.worker;
  const int64_t clock = message.iter;

  // Reconciliation: a replayed push (recovery, or an at-least-once link)
  // must never contribute to an aggregate twice. A clock at or below the
  // applied cursor buffers nothing; a filled per-worker slot keeps its first
  // contribution. Either way the (worker, clock) read is queued at most once
  // and released under the normal SSP gate, so the restarted worker still
  // gets its parameters.
  bool fresh = clock > state.applied_clock;
  if (fresh) {
    auto& per_worker = state.pending[clock];
    if (per_worker.empty()) {
      per_worker.resize(static_cast<size_t>(num_workers));
    }
    if (!per_worker[static_cast<size_t>(w)].empty()) {
      fresh = false;  // duplicate of a buffered contribution
    } else {
      max_push_lead_ = std::max(max_push_lead_, clock - state.applied_clock);
      // Buffer the sender's views zero-copy until this clock's aggregate is
      // applied; the sender will not overwrite its staging slab while a view
      // is live (see Syncer::MoveOut).
      std::vector<PayloadView> contribution;
      contribution.reserve(state.pairs.size());
      for (size_t p = 0; p < state.pairs.size(); ++p) {
        const WireChunk& chunk = message.chunks[p];
        CHECK_EQ(chunk.offset, state.pairs[p].info.offset);
        if (compression == GradCompression::kNone) {
          CHECK_EQ(chunk.view.size(), state.pairs[p].info.length);
        }
        contribution.push_back(chunk.view);
      }
      per_worker[static_cast<size_t>(w)] = std::move(contribution);
      ++state.push_count[clock];
    }
  }
  if (!fresh) {
    ++reconciled_pushes_;
  }
  AddWaitingRead(&state.waiting_reads, w, clock);

  // Apply strictly in clock order; a clock is complete once all workers'
  // pushes arrived. (A later clock can be complete early only under s > 0.)
  while (true) {
    auto next = state.push_count.find(state.applied_clock + 1);
    if (next == state.push_count.end() || next->second != num_workers) {
      break;
    }
    ApplyDense(message.layer, state.applied_clock + 1);
  }
  ReleaseDenseReads(message.layer);
}

void KvShard::ApplyDense(int layer, int64_t clock) {
  TraceSpan apply_span("kv.apply", "server", layer);
  const int num_workers = coordinator_.cluster().num_workers;
  DenseLayerState& state = dense_layers_[layer];
  const GradCompression compression = layer_compression(layer);
  const Codec* codec = compression == GradCompression::kNone
                           ? nullptr
                           : &CodecRegistry::Get(ExpectedPushCodec(compression));
  const auto pending = state.pending.find(clock);
  CHECK(pending != state.pending.end());
  Tensor decoded;
  for (size_t p = 0; p < state.pairs.size(); ++p) {
    PairState& pair = state.pairs[p];
    // Reduce in worker order for bit-deterministic results, reading each
    // contribution straight from the sender's slab (compressed frames are
    // expanded first; they were validated on arrival).
    std::vector<float> grad(static_cast<size_t>(pair.info.length), 0.0f);
    for (int w = 0; w < num_workers; ++w) {
      const PayloadView& contribution = pending->second[static_cast<size_t>(w)][p];
      if (codec == nullptr) {
        CHECK_EQ(contribution.size(), static_cast<int64_t>(grad.size()));
        simd::ReduceAdd(grad.data(), contribution.data(), pair.info.length);
      } else {
        const Status status = codec->Decode(contribution, &decoded, nullptr);
        CHECK(status.ok()) << status.ToString();
        CHECK_EQ(decoded.size(), pair.info.length);
        simd::ReduceAdd(grad.data(), decoded.data(), pair.info.length);
      }
    }
    const float inv = 1.0f / static_cast<float>(num_workers);
    simd::Scale(grad.data(), inv, pair.info.length);
    const std::string key =
        "l" + std::to_string(layer) + ".c" + std::to_string(pair.info.chunk);
    optimizer_.StepSlice(key, grad.data(), state.params.data() + pair.slab_offset,
                         pair.info.length);
  }
  state.pending.erase(pending);
  state.push_count.erase(clock);
  state.applied_clock = clock;
  ++applies_;
}

void KvShard::AddWaitingRead(std::vector<WaitingRead>* reads, int worker, int64_t clock) {
  for (const WaitingRead& read : *reads) {
    if (read.worker == worker && read.clock == clock) {
      return;  // a replayed push keeps the one pending reply it already has
    }
  }
  WaitingRead read;
  read.worker = worker;
  read.clock = clock;
  read.enqueue_ns = SteadyNowNs();
  reads->push_back(read);
}

void KvShard::RecordSspStall(const WaitingRead& read) {
  if (!read.deferred) {
    return;  // answered in the pass that queued it: never gated
  }
  const int64_t stall_ns = std::max<int64_t>(0, SteadyNowNs() - read.enqueue_ns);
  ssp_stall_ns_.fetch_add(stall_ns, std::memory_order_relaxed);
  ssp_stall_hist_->Record(stall_ns);
  if (Tracer::enabled()) {
    // Retroactive complete event: the stall started before this call stack.
    Tracer::Complete("kv.ssp_stall", "server", Tracer::NowNs() - stall_ns, stall_ns,
                     read.worker);
  }
}

void KvShard::SendReply(int layer, int worker, int64_t clock,
                        std::vector<WireChunk> chunks, WireCodec codec) {
  Message reply;
  reply.type = MessageType::kParamReply;
  reply.from = coordinator_.cluster().ShardAddress(server_, shard_);
  reply.to = Address{worker, kSyncerPortBase + layer};
  reply.layer = layer;
  reply.iter = clock;
  reply.codec = codec;
  reply.chunks = std::move(chunks);
  const Status status = bus_->Send(std::move(reply));
  if (status.code() == StatusCode::kNotFound ||
      status.code() == StatusCode::kUnavailable) {
    // The worker's endpoint died between push and release (crash window).
    // Its restarted incarnation will replay the push and earn a fresh reply.
    ++replies_dropped_;
    return;
  }
  CHECK(status.ok()) << status.ToString();
}

void KvShard::ReleaseDenseReads(int layer) {
  DenseLayerState& state = dense_layers_[layer];
  const GradCompression compression = layer_compression(layer);
  // One shared payload for every read released in this pass: the freshest
  // applied values. Under BSP the reply chunks alias the live parameter
  // slab (no copy): the next apply needs every worker's next push, which
  // happens only after each worker consumed its reply. Under SSP a later
  // clock can be applied while a stale reader is still scattering, so the
  // pass snapshots the slab instead. Compressed layers instead encode each
  // pair into a fresh binary16 round-to-nearest frame (stateless, so no
  // residual; the frame is a snapshot either way, hence SSP-safe).
  std::vector<WireChunk> reply_chunks;
  std::vector<WaitingRead> still_waiting;
  for (WaitingRead& read : state.waiting_reads) {
    if (state.applied_clock < read.clock - staleness_) {
      read.deferred = true;
      still_waiting.push_back(read);
      continue;
    }
    if (reply_chunks.empty()) {
      reply_chunks.reserve(state.pairs.size());
      if (compression != GradCompression::kNone) {
        for (const PairState& pair : state.pairs) {
          Payload frame = Fp16Codec::EncodeRn(state.params.data() + pair.slab_offset,
                                              pair.info.length, nullptr, 0);
          reply_chunks.push_back({pair.info.offset, frame.View()});
        }
      } else {
        Payload source = state.params;
        if (staleness_ > 0) {
          source = Payload::Allocate(state.params.size());
          std::copy(state.params.data(), state.params.data() + state.params.size(),
                    source.data());
          WireCopyStats::Add(state.params.size());
        }
        for (const PairState& pair : state.pairs) {
          reply_chunks.push_back(
              {pair.info.offset, source.View(pair.slab_offset, pair.info.length)});
        }
      }
    }
    max_reply_gap_ = std::max(max_reply_gap_,
                              std::max<int64_t>(0, read.clock - state.applied_clock));
    RecordSspStall(read);
    SendReply(layer, read.worker, read.clock, reply_chunks,
              compression == GradCompression::kNone ? WireCodec::kRawFloat
                                                    : WireCodec::kFp16);
  }
  state.waiting_reads = std::move(still_waiting);
}

void KvShard::HandleOneBitPush(const Message& message) {
  ++pushes_processed_;
  auto it = onebit_layers_.find(message.layer);
  CHECK(it != onebit_layers_.end());
  OneBitLayerState& state = it->second;
  CHECK(message.codec == WireCodec::kOneBit);
  CHECK_EQ(message.chunks.size(), 1u);
  const int num_workers = coordinator_.cluster().num_workers;
  const int w = message.worker;
  const int64_t clock = message.iter;

  // Same reconciliation as the dense path (see HandleGradPush).
  bool fresh = clock > state.applied_clock;
  if (fresh) {
    auto& frames = state.pending[clock];
    if (frames.empty()) {
      frames.resize(static_cast<size_t>(num_workers));
    }
    if (frames[static_cast<size_t>(w)].valid()) {
      fresh = false;
    } else {
      max_push_lead_ = std::max(max_push_lead_, clock - state.applied_clock);
      frames[static_cast<size_t>(w)] = message.chunks[0].view;
      ++state.push_count[clock];
    }
  }
  if (!fresh) {
    ++reconciled_pushes_;
  }
  AddWaitingRead(&state.waiting_reads, w, clock);

  while (true) {
    auto next = state.push_count.find(state.applied_clock + 1);
    if (next == state.push_count.end() || next->second != num_workers) {
      break;
    }
    ApplyOneBit(message.layer, state.applied_clock + 1);
  }
  ReleaseOneBitReads(message.layer);
}

void KvShard::ApplyOneBit(int layer, int64_t clock) {
  TraceSpan apply_span("kv.apply", "server", layer);
  const int num_workers = coordinator_.cluster().num_workers;
  OneBitLayerState& state = onebit_layers_[layer];
  const int64_t weight_floats = state.rows * state.cols;
  const auto pending = state.pending.find(clock);
  CHECK(pending != state.pending.end());

  // Decode and average the quantized weight gradients in worker order, then
  // the dense bias gradients, straight from the buffered frames.
  Tensor agg = Tensor::Zeros({state.rows, state.cols});
  std::vector<float> bias_agg(static_cast<size_t>(state.rows), 0.0f);
  Tensor dense;
  for (int w = 0; w < num_workers; ++w) {
    const PayloadView& frame = pending->second[static_cast<size_t>(w)];
    CHECK(frame.valid());
    const Status decoded = OneBitCodec::DecodeDense(frame, &dense);
    CHECK(decoded.ok()) << decoded.ToString();
    CHECK_EQ(dense.size(), weight_floats);
    Axpy(1.0f, dense, &agg);
    StatusOr<OneBitCodec::Frame> parsed = OneBitCodec::Parse(frame);
    CHECK(parsed.ok()) << parsed.status().ToString();
    CHECK_EQ(parsed->bias.size(), static_cast<int64_t>(bias_agg.size()));
    simd::ReduceAdd(bias_agg.data(), parsed->bias.data(), state.rows);
  }
  const float inv = 1.0f / static_cast<float>(num_workers);
  Scale(inv, &agg);
  simd::Scale(bias_agg.data(), inv, state.rows);
  const std::string key = "l" + std::to_string(layer);
  optimizer_.StepSlice(key + ".w", agg.data(), state.value.data(), weight_floats);
  optimizer_.StepSlice(key + ".b", bias_agg.data(), state.value.data() + weight_floats,
                       state.rows);
  state.pending.erase(pending);
  state.push_count.erase(clock);
  state.applied_clock = clock;
  ++applies_;
}

void KvShard::ReleaseOneBitReads(int layer) {
  OneBitLayerState& state = onebit_layers_[layer];
  std::vector<WireChunk> reply_chunks;
  std::vector<WaitingRead> still_waiting;
  for (WaitingRead& read : state.waiting_reads) {
    if (state.applied_clock < read.clock - staleness_) {
      read.deferred = true;
      still_waiting.push_back(read);
      continue;
    }
    if (reply_chunks.empty()) {
      // As on the dense path: alias the live slab under BSP, snapshot under
      // SSP (a later apply may overlap a stale reader).
      Payload source = state.value;
      if (staleness_ > 0) {
        source = Payload::Allocate(state.value.size());
        std::copy(state.value.data(), state.value.data() + state.value.size(),
                  source.data());
        WireCopyStats::Add(state.value.size());
      }
      reply_chunks.push_back({0, source.View()});
    }
    max_reply_gap_ = std::max(max_reply_gap_,
                              std::max<int64_t>(0, read.clock - state.applied_clock));
    RecordSspStall(read);
    SendReply(layer, read.worker, read.clock, reply_chunks);
  }
  state.waiting_reads = std::move(still_waiting);
}

KvServer::KvServer(int server_id, int64_t first_iter, const Coordinator& coordinator,
                   const CommPlan& plan, Network& init_net, MessageBus* bus,
                   const SgdConfig& sgd)
    : id_(server_id) {
  const int shards = coordinator.cluster().shards_per_server;
  shards_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<KvShard>(server_id, s, first_iter, coordinator,
                                                plan, init_net, bus, sgd));
  }
}

void KvServer::Start() {
  for (auto& shard : shards_) {
    shard->Start();
  }
}

void KvServer::Join() {
  for (auto& shard : shards_) {
    shard->Join();
  }
}

int64_t KvServer::pushes_processed() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->pushes_processed();
  }
  return total;
}

int64_t KvServer::applies() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->applies();
  }
  return total;
}

int64_t KvServer::reconciled_pushes() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->reconciled_pushes();
  }
  return total;
}

int64_t KvServer::rejected_pushes() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->rejected_pushes();
  }
  return total;
}

int64_t KvServer::replies_dropped() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->replies_dropped();
  }
  return total;
}

int KvServer::owned_layers() const {
  int total = 0;
  for (const auto& shard : shards_) {
    total += shard->owned_layers();
  }
  return total;
}

int64_t KvServer::max_push_lead() const {
  int64_t lead = 0;
  for (const auto& shard : shards_) {
    lead = std::max(lead, shard->max_push_lead());
  }
  return lead;
}

int64_t KvServer::max_reply_gap() const {
  int64_t gap = 0;
  for (const auto& shard : shards_) {
    gap = std::max(gap, shard->max_reply_gap());
  }
  return gap;
}

int64_t KvServer::SspStallNs() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->ssp_stall_ns();
  }
  return total;
}

}  // namespace poseidon
