#include "src/poseidon/syncer.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/simd/vec.h"
#include "src/stats/trace.h"
#include "src/tensor/ops.h"

namespace poseidon {

Syncer::Syncer(int worker, int layer_index, const CommPlan& plan,
               const Coordinator& coordinator, MessageBus* bus, Layer* layer,
               SgdOptimizer* local_optimizer)
    : worker_(worker),
      layer_index_(layer_index),
      scheme_(plan.layers[static_cast<size_t>(layer_index)].scheme),
      compression_(scheme_ == PlannedScheme::kPS
                       ? plan.layers[static_cast<size_t>(layer_index)].compression
                       : GradCompression::kNone),
      topk_density_(plan.topk_density),
      coordinator_(coordinator),
      bus_(bus),
      layer_(layer),
      fc_(dynamic_cast<FullyConnectedLayer*>(layer)),
      local_optimizer_(local_optimizer),
      view_(layer->Params()) {
  CHECK_NOTNULL(bus);
  if (compression_ == GradCompression::kTopK) {
    CHECK_GT(topk_density_, 0.0);
    CHECK_LE(topk_density_, 1.0);
  }
  if (compression_ != GradCompression::kNone) {
    // The error-feedback residual: zero-initialized (Payload::Allocate), one
    // float per parameter, carried across iterations.
    residual_ = Payload::Allocate(view_.size());
    quant_ = Payload::Allocate(view_.size());
  }
  mailbox_ = bus_->Register(Address{worker_, kSyncerPortBase + layer_index_});
  if (scheme_ == PlannedScheme::kPS) {
    const int num_servers = coordinator_.cluster().num_servers;
    const int num_shards = coordinator_.cluster().shards_per_server;
    for (int s = 0; s < num_servers; ++s) {
      for (int shard = 0; shard < num_shards; ++shard) {
        std::vector<KvPairInfo> pairs = coordinator_.PairsOnShard(layer_index_, s, shard);
        if (pairs.empty()) {
          continue;
        }
        total_pairs_ += static_cast<int>(pairs.size());
        pairs_by_shard_.push_back(
            {coordinator_.cluster().ShardAddress(s, shard), std::move(pairs)});
      }
    }
  }
  if (scheme_ == PlannedScheme::kSFB || scheme_ == PlannedScheme::kOneBit) {
    CHECK_NOTNULL(fc_) << layer->name() << ": SFB/1-bit requires an FC layer";
  }
  if (scheme_ == PlannedScheme::kSFB) {
    CHECK_NOTNULL(local_optimizer_);
  }
  if (scheme_ == PlannedScheme::kRing || scheme_ == PlannedScheme::kTree) {
    const CollectiveAlgo algo =
        scheme_ == PlannedScheme::kRing ? CollectiveAlgo::kRing : CollectiveAlgo::kTree;
    collective_ = std::make_unique<CollectiveSyncer>(worker_, layer_index_, algo,
                                                     coordinator_, bus_, layer_,
                                                     local_optimizer_);
  }
}

void Syncer::MoveOut() {
  TraceSpan span("sync.move_out", "syncer", layer_index_);
  switch (scheme_) {
    case PlannedScheme::kNone:
      break;
    case PlannedScheme::kPS:
      // Stage straight into the wire slab; downstream the same slab is
      // referenced by every push chunk. Reuse is safe only while no receiver
      // holds a view (always true under BSP once the reply arrived; under
      // SSP a shard may still buffer last iteration's views).
      if (!staged_.valid() || staged_.size() != view_.size() || staged_.use_count() > 1) {
        staged_ = Payload::Allocate(view_.size());
      }
      view_.GatherGradSlice(0, staged_.data(), staged_.size());
      WireCopyStats::Add(staged_.size());
      break;
    case PlannedScheme::kSFB: {
      std::vector<ParamBlock> params = layer_->Params();
      CHECK_EQ(params.size(), 2u);  // weight, bias
      const Tensor& bias_grad = *params[1].grad;
      sf_frame_ = SufficientFactorCodec::Encode(fc_->LastSufficientFactors(),
                                                bias_grad.data(), bias_grad.size());
      break;
    }
    case PlannedScheme::kOneBit: {
      std::vector<ParamBlock> params = layer_->Params();
      const Tensor& bias_grad = *params[1].grad;
      onebit_frame_ = OneBitCodec::Encode(fc_->weight_grad(), &quantizer_,
                                          bias_grad.data(), bias_grad.size());
      break;
    }
    case PlannedScheme::kRing:
    case PlannedScheme::kTree:
      collective_->MoveOut();
      break;
  }
}

void Syncer::Send(int64_t iter) {
  TraceSpan span("sync.send", "syncer", layer_index_);
  switch (scheme_) {
    case PlannedScheme::kNone:
      break;
    case PlannedScheme::kPS:
      SendPs(iter);
      break;
    case PlannedScheme::kSFB:
      SendSfb(iter);
      break;
    case PlannedScheme::kOneBit:
      SendOneBit(iter);
      break;
    case PlannedScheme::kRing:
    case PlannedScheme::kTree:
      collective_->Send(iter);
      break;
  }
}

void Syncer::SendPs(int64_t iter) {
  WireCodec codec = WireCodec::kRawFloat;
  if (compression_ != GradCompression::kNone) {
    // Error feedback: quantize grad + residual, and let each pair's encoder
    // fold its slice's rounding error back into the residual. The hash seed
    // is a pure function of (layer, clock) — identical on every worker — and
    // each pair passes its flat layer offset as base_index, so the encoding
    // never depends on how the layer is striped across shards.
    simd::ReduceAdd(residual_.data(), staged_.data(), view_.size());
    std::swap(quant_, residual_);  // quant_ now holds grad + residual
    const uint32_t seed = QuantSeed(layer_index_, iter);
    push_frames_.clear();
    push_frames_.reserve(static_cast<size_t>(total_pairs_));
    for (const ShardDest& dest : pairs_by_shard_) {
      for (const KvPairInfo& pair : dest.pairs) {
        const float* q = quant_.data() + pair.offset;
        float* r = residual_.data() + pair.offset;
        switch (compression_) {
          case GradCompression::kFp16:
            codec = WireCodec::kFp16;
            push_frames_.push_back(
                Fp16Codec::EncodeSr(q, pair.length, seed, pair.offset, r, nullptr, 0));
            break;
          case GradCompression::kInt8:
            codec = WireCodec::kInt8;
            push_frames_.push_back(
                Int8Codec::EncodeSr(q, pair.length, seed, pair.offset, r, nullptr, 0));
            break;
          case GradCompression::kTopK: {
            codec = WireCodec::kTopK;
            const int64_t k = std::max<int64_t>(
                1, std::min<int64_t>(pair.length,
                                     static_cast<int64_t>(topk_density_ *
                                                          static_cast<double>(pair.length))));
            push_frames_.push_back(TopKCodec::Encode(q, pair.length, k, r, nullptr, 0));
            break;
          }
          case GradCompression::kNone:
            break;
        }
      }
    }
  }
  size_t frame = 0;
  for (const ShardDest& dest : pairs_by_shard_) {
    Message push;
    push.type = MessageType::kGradPush;
    push.from = Address{worker_, kSyncerPortBase + layer_index_};
    push.to = dest.address;
    push.layer = layer_index_;
    push.worker = worker_;
    push.iter = iter;
    push.codec = codec;
    push.chunks.reserve(dest.pairs.size());
    for (const KvPairInfo& pair : dest.pairs) {
      if (compression_ == GradCompression::kNone) {
        // Zero-copy: the chunk is a view into the staging slab.
        push.chunks.push_back({pair.offset, staged_.View(pair.offset, pair.length)});
      } else {
        push.chunks.push_back({pair.offset, push_frames_[frame++].View()});
      }
    }
    const Status status = bus_->Send(std::move(push));
    CHECK(status.ok()) << status.ToString();
  }
}

void Syncer::SendSfb(int64_t iter) {
  const int num_workers = coordinator_.cluster().num_workers;
  for (int peer = 0; peer < num_workers; ++peer) {
    if (peer == worker_) {
      continue;
    }
    Message sf;
    sf.type = MessageType::kSfBroadcast;
    sf.from = Address{worker_, kSyncerPortBase + layer_index_};
    sf.to = Address{peer, kSyncerPortBase + layer_index_};
    sf.layer = layer_index_;
    sf.worker = worker_;
    sf.iter = iter;
    sf.codec = WireCodec::kSufficientFactor;
    // Every peer's view references the one encoded frame: a P-1-way
    // broadcast of one slab.
    sf.chunks.push_back({0, sf_frame_.View()});
    const Status status = bus_->Send(std::move(sf));
    CHECK(status.ok()) << status.ToString();
  }
}

void Syncer::SendOneBit(int64_t iter) {
  Message push;
  push.type = MessageType::kOneBitPush;
  push.from = Address{worker_, kSyncerPortBase + layer_index_};
  push.to = coordinator_.cluster().ShardAddress(
      coordinator_.OneBitOwnerServer(layer_index_),
      coordinator_.OneBitOwnerShard(layer_index_));
  push.layer = layer_index_;
  push.worker = worker_;
  push.iter = iter;
  push.codec = WireCodec::kOneBit;
  push.chunks.push_back({0, onebit_frame_.View()});
  const Status status = bus_->Send(std::move(push));
  CHECK(status.ok()) << status.ToString();
}

void Syncer::Receive(int64_t iter) {
  TraceSpan span("sync.receive", "syncer", layer_index_);
  switch (scheme_) {
    case PlannedScheme::kNone:
      break;
    case PlannedScheme::kPS:
      ReceivePs();
      break;
    case PlannedScheme::kSFB:
      ReceiveSfb(iter);
      break;
    case PlannedScheme::kOneBit:
      ReceiveOneBit();
      break;
    case PlannedScheme::kRing:
    case PlannedScheme::kTree:
      collective_->Receive(iter);
      break;
  }
}

void Syncer::ReceivePs() {
  int received = 0;
  while (received < total_pairs_) {
    std::optional<Message> message = mailbox_->Pop();
    if (!message.has_value()) {
      // Endpoint closed mid-iteration: this worker is being crash-simulated
      // (MessageBus::CloseEndpoints). Abandon the sync so the zombie job can
      // drain; the restarted incarnation replays this clock.
      LOG(Warning) << "worker " << worker_ << " layer " << layer_index_
                   << ": syncer mailbox closed mid-iteration; abandoning sync";
      return;
    }
    CHECK(message->type == MessageType::kParamReply);
    if (compression_ == GradCompression::kNone) {
      CHECK(message->codec == WireCodec::kRawFloat);
      for (const WireChunk& chunk : message->chunks) {
        // Move(CPU2GPU): the one staging copy on the receive side.
        view_.ScatterValueSlice(chunk.offset, chunk.view.data(), chunk.view.size());
        WireCopyStats::Add(chunk.view.size());
        ++received;
      }
    } else {
      // Compressed layers get binary16 round-to-nearest replies regardless
      // of the push codec (the reply is stateless; see docs/COMPRESSION.md).
      CHECK(message->codec == WireCodec::kFp16);
      Tensor dense;
      for (const WireChunk& chunk : message->chunks) {
        const Status decoded = Fp16Codec::DecodeDense(chunk.view, &dense);
        CHECK(decoded.ok()) << decoded.ToString();
        view_.ScatterValueSlice(chunk.offset, dense.data(), dense.size());
        ++received;
      }
    }
  }
}

void Syncer::ReceiveSfb(int64_t iter) {
  const int num_workers = coordinator_.cluster().num_workers;
  std::vector<PayloadView> frames(static_cast<size_t>(num_workers));
  frames[static_cast<size_t>(worker_)] = sf_frame_.View();
  int have = 1;

  auto frame_of = [](const Message& message) {
    CHECK(message.type == MessageType::kSfBroadcast);
    CHECK(message.codec == WireCodec::kSufficientFactor);
    CHECK_EQ(message.chunks.size(), 1u);
    return message.chunks[0].view;
  };

  // First drain anything deferred from a previous Receive that belongs to
  // this iteration (a peer may run at most one iteration ahead under BSP).
  std::vector<Message> still_deferred;
  for (Message& message : deferred_) {
    if (message.iter == iter) {
      frames[static_cast<size_t>(message.worker)] = frame_of(message);
      ++have;
    } else {
      still_deferred.push_back(std::move(message));
    }
  }
  deferred_ = std::move(still_deferred);

  while (have < num_workers) {
    std::optional<Message> message = mailbox_->Pop();
    if (!message.has_value()) {
      LOG(Warning) << "worker " << worker_ << " layer " << layer_index_
                   << ": syncer mailbox closed mid-iteration; abandoning sync";
      return;
    }
    if (message->iter != iter) {
      CHECK_GT(message->iter, iter) << "stale SF broadcast";
      deferred_.push_back(std::move(*message));
      continue;
    }
    frames[static_cast<size_t>(message->worker)] = frame_of(*message);
    ++have;
  }

  // Reconstruct the aggregate weight gradient in worker order (identical FP
  // operation order on every replica keeps parameters bitwise in sync).
  // Each worker's gradient is materialized separately and then added, which
  // matches the KV store's reduction of pre-summed dense pushes bit for bit
  // — so switching a layer between PS and SFB never changes the trajectory.
  std::vector<ParamBlock> params = layer_->Params();
  Tensor& weight = *params[0].value;
  Tensor& bias = *params[1].value;
  Tensor agg = Tensor::Zeros(weight.shape());
  Tensor scratch = Tensor::Zeros(weight.shape());
  std::vector<float> bias_agg(static_cast<size_t>(bias.size()), 0.0f);
  for (int w = 0; w < num_workers; ++w) {
    const PayloadView& frame = frames[static_cast<size_t>(w)];
    CHECK(frame.valid());
    const Status reconstructed = SufficientFactorCodec::DecodeReconstruct(frame, &scratch);
    CHECK(reconstructed.ok()) << reconstructed.ToString();
    Axpy(1.0f, scratch, &agg);
    StatusOr<SufficientFactorCodec::Frame> parsed = SufficientFactorCodec::Parse(frame);
    CHECK(parsed.ok()) << parsed.status().ToString();
    CHECK_EQ(parsed->bias.size(), static_cast<int64_t>(bias_agg.size()));
    const float* b = parsed->bias.data();
    for (size_t i = 0; i < bias_agg.size(); ++i) {
      bias_agg[i] += b[i];
    }
  }
  const float inv = 1.0f / static_cast<float>(num_workers);
  Scale(inv, &agg);
  for (float& b : bias_agg) {
    b *= inv;
  }
  const std::string key = "l" + std::to_string(layer_index_);
  local_optimizer_->Step(key + ".w", agg, &weight);
  local_optimizer_->StepSlice(key + ".b", bias_agg.data(), bias.data(), bias.size());
}

void Syncer::ReceiveOneBit() {
  std::optional<Message> message = mailbox_->Pop();
  if (!message.has_value()) {
    LOG(Warning) << "worker " << worker_ << " layer " << layer_index_
                 << ": syncer mailbox closed mid-iteration; abandoning sync";
    return;
  }
  CHECK(message->type == MessageType::kParamReply);
  CHECK(message->codec == WireCodec::kRawFloat);
  CHECK_EQ(message->chunks.size(), 1u);
  const PayloadView& values = message->chunks[0].view;
  CHECK_EQ(values.size(), view_.size());
  view_.ScatterValueSlice(0, values.data(), values.size());
  WireCopyStats::Add(values.size());
}

}  // namespace poseidon
