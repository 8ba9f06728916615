#include "src/poseidon/kv_store.h"

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"
#include "src/poseidon/flat_params.h"
#include "src/simd/vec.h"
#include "src/stats/trace.h"

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
      bus_(bus),
      optimizer_(sgd) {
  CHECK_EQ(plan.layers.size(), static_cast<size_t>(coordinator.num_layers()));
  CHECK_LT(shard_id, kMaxShardsPerServer);
  ssp_stall_hist_ = MetricsRegistry::Default().GetHistogram("kv.ssp_stall_ns");
  if (bus_ != nullptr) {
    mailbox_ = bus_->Register(coordinator_.cluster().ShardAddress(server_, shard_));
  }

  for (int l = 0; l < coordinator_.num_layers(); ++l) {
    const PlanLayerChoice& choice = plan.layers[static_cast<size_t>(l)];
    std::vector<KvPairInfo> owned =
        coordinator_.PairsOnShard(l, choice, server_, shard_);
    if (owned.empty()) {
      continue;
    }
    FlatParamView view(init_net.layer(l).Params());
    LayerState state;
    state.codecs = KvWireCodecs(choice);
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
    layers_[l] = std::move(state);
  }
}

KvShard::~KvShard() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

void KvShard::Start() {
  CHECK(!thread_.joinable());
  CHECK_NOTNULL(mailbox_.get()) << "a shard built without a bus has no service thread";
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
    for (Message& reply : Handle(*message)) {
      const Status status = bus_->Send(std::move(reply));
      if (status.code() == StatusCode::kNotFound ||
          status.code() == StatusCode::kUnavailable) {
        // The worker's endpoint died between push and release (crash
        // window). Its restarted incarnation will replay the push and earn a
        // fresh reply.
        ++replies_dropped_;
        continue;
      }
      CHECK(status.ok()) << status.ToString();
    }
  }
}

bool KvShard::WellFormed(const LayerState& state, const Message& message) {
  if (message.codec != state.codecs.push || message.chunks.size() != state.pairs.size()) {
    return false;
  }
  const Codec& codec = CodecRegistry::Get(state.codecs.push);
  for (size_t p = 0; p < state.pairs.size(); ++p) {
    const WireChunk& chunk = message.chunks[p];
    const KvPairInfo& pair = state.pairs[p].info;
    const StatusOr<int64_t> floats = codec.Validate(chunk.view);
    if (chunk.offset != pair.offset || !floats.ok() || *floats != pair.length) {
      return false;
    }
  }
  return true;
}

std::vector<Message> KvShard::Handle(const Message& message) {
  if (message.type != MessageType::kGradPush && message.type != MessageType::kOneBitPush) {
    LOG(Fatal) << "server " << server_ << " shard " << shard_
               << ": unexpected message type";
  }
  ++pushes_processed_;
  auto it = layers_.find(message.layer);
  CHECK(it != layers_.end()) << "server " << server_ << " shard " << shard_
                             << " owns no pairs of layer " << message.layer;
  LayerState& state = it->second;
  std::vector<Message> replies;
  // A push is sized by its sender, so treat it as wire input: a codec
  // mismatch or a frame that fails validation (or expands to the wrong
  // count) drops the push whole — no buffering, no reply — instead of
  // crashing the server or poisoning the clock's aggregate.
  if (!WellFormed(state, message)) {
    ++rejected_pushes_;
    LOG(Warning) << "server " << server_ << " shard " << shard_ << ": dropping malformed "
                 << WireCodecName(message.codec) << " push for layer " << message.layer
                 << " from worker " << message.worker << " (expected "
                 << WireCodecName(state.codecs.push) << ")";
    return replies;
  }
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
      // applied; the sender will not overwrite its slab while a view is live
      // (see Syncer::MoveOut).
      std::vector<PayloadView>& contribution = per_worker[static_cast<size_t>(w)];
      contribution.reserve(message.chunks.size());
      for (const WireChunk& chunk : message.chunks) {
        contribution.push_back(chunk.view);
      }
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
    Apply(message.layer, &state, state.applied_clock + 1);
  }
  Release(message.layer, &state, &replies);
  return replies;
}

void KvShard::Apply(int layer, LayerState* state, int64_t clock) {
  TraceSpan apply_span("kv.apply", "server", layer);
  const int num_workers = coordinator_.cluster().num_workers;
  const bool raw = state->codecs.push == WireCodec::kRawFloat;
  const Codec& codec = CodecRegistry::Get(state->codecs.push);
  const auto pending = state->pending.find(clock);
  CHECK(pending != state->pending.end());
  Tensor dense;
  std::vector<float> bias;
  for (size_t p = 0; p < state->pairs.size(); ++p) {
    PairState& pair = state->pairs[p];
    // Reduce in worker order for bit-deterministic results. Raw frames are
    // read straight from the sender's slab; any other frame (validated on
    // arrival) decodes to its dense gradient then its bias trailer, the
    // order of the pair's values — a 1-bit frame's weight then bias.
    std::vector<float> grad(static_cast<size_t>(pair.info.length), 0.0f);
    for (int w = 0; w < num_workers; ++w) {
      const PayloadView& frame = pending->second[static_cast<size_t>(w)][p];
      if (raw) {
        simd::ReduceAdd(grad.data(), frame.data(), pair.info.length);
        continue;
      }
      const Status status = codec.Decode(frame, &dense, &bias);
      CHECK(status.ok()) << status.ToString();
      CHECK_EQ(dense.size() + static_cast<int64_t>(bias.size()), pair.info.length);
      simd::ReduceAdd(grad.data(), dense.data(), dense.size());
      if (!bias.empty()) {
        simd::ReduceAdd(grad.data() + dense.size(), bias.data(),
                        static_cast<int64_t>(bias.size()));
      }
    }
    const float inv = 1.0f / static_cast<float>(num_workers);
    simd::Scale(grad.data(), inv, pair.info.length);
    const std::string key =
        "l" + std::to_string(layer) + ".c" + std::to_string(pair.info.chunk);
    optimizer_.StepSlice(key, grad.data(), state->params.data() + pair.slab_offset,
                         pair.info.length);
  }
  state->pending.erase(pending);
  state->push_count.erase(clock);
  state->applied_clock = clock;
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

void KvShard::Release(int layer, LayerState* state, std::vector<Message>* replies) {
  // One shared payload for every read released in this pass: the freshest
  // applied values. Under BSP raw reply chunks alias the live parameter
  // slab (no copy): the next apply needs every worker's next push, which
  // happens only after each worker consumed its reply. Under SSP a later
  // clock can be applied while a stale reader is still scattering, so the
  // pass snapshots the slab instead. fp16 replies instead encode each pair
  // into a fresh binary16 round-to-nearest frame (stateless, so no
  // residual; the frame is a snapshot either way, hence SSP-safe).
  std::vector<WireChunk> reply_chunks;
  std::vector<WaitingRead> still_waiting;
  for (WaitingRead& read : state->waiting_reads) {
    if (state->applied_clock < read.clock - staleness_) {
      read.deferred = true;
      still_waiting.push_back(read);
      continue;
    }
    if (reply_chunks.empty()) {
      reply_chunks.reserve(state->pairs.size());
      if (state->codecs.reply == WireCodec::kFp16) {
        for (const PairState& pair : state->pairs) {
          Payload frame =
              Fp16Codec::EncodeRn(state->params.data() + pair.slab_offset, pair.info.length);
          reply_chunks.push_back({pair.info.offset, frame.View()});
        }
      } else {
        Payload source = state->params;
        if (staleness_ > 0) {
          source = Payload::Allocate(state->params.size());
          std::copy(state->params.data(), state->params.data() + state->params.size(),
                    source.data());
          WireCopyStats::Add(state->params.size());
        }
        for (const PairState& pair : state->pairs) {
          reply_chunks.push_back(
              {pair.info.offset, source.View(pair.slab_offset, pair.info.length)});
        }
      }
    }
    max_reply_gap_ = std::max(max_reply_gap_,
                              std::max<int64_t>(0, read.clock - state->applied_clock));
    RecordSspStall(read);
    Message reply;
    reply.type = MessageType::kParamReply;
    reply.from = coordinator_.cluster().ShardAddress(server_, shard_);
    reply.to = Address{read.worker, kSyncerPortBase + layer};
    reply.layer = layer;
    reply.iter = read.clock;
    reply.codec = state->codecs.reply;
    reply.chunks = reply_chunks;
    replies->push_back(std::move(reply));
  }
  state->waiting_reads = std::move(still_waiting);
}

KvServer::KvServer(int server_id, int64_t first_iter, const Coordinator& coordinator,
                   const CommPlan& plan, Network& init_net, MessageBus* bus,
                   const SgdConfig& sgd)
    : id_(server_id), coordinator_(coordinator), bus_(bus) {
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

void KvServer::Stop() {
  for (const auto& shard : shards_) {
    Message shutdown;
    shutdown.type = MessageType::kShutdown;
    // From the server's own node: a stop never crosses the NIC, so it is
    // delivered inline and never queues behind another node's egress.
    shutdown.to = coordinator_.cluster().ShardAddress(id_, shard->shard());
    shutdown.from = Address{shutdown.to.node, kSyncerPortBase};
    const Status status = bus_->Send(std::move(shutdown));
    CHECK(status.ok()) << status.ToString();
  }
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
