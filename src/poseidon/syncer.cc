#include "src/poseidon/syncer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/simd/vec.h"
#include "src/stats/trace.h"

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
      codecs_(KvWireCodecs(plan.layers[static_cast<size_t>(layer_index)])),
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
  if (scheme_ == PlannedScheme::kPS || scheme_ == PlannedScheme::kOneBit) {
    const int num_servers = coordinator_.cluster().num_servers;
    const int num_shards = coordinator_.cluster().shards_per_server;
    for (int s = 0; s < num_servers; ++s) {
      for (int shard = 0; shard < num_shards; ++shard) {
        std::vector<KvPairInfo> pairs =
            coordinator_.PairsOnShard(layer_index_, scheme_, s, shard);
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
  if (scheme_ == PlannedScheme::kRing || scheme_ == PlannedScheme::kTree) {
    CHECK_GT(view_.size(), 0) << layer->name() << ": collective sync of a stateless layer";
    comm_ = std::make_unique<CollectiveComm>(bus_, worker_, coordinator_.cluster().num_workers,
                                             layer_index_);
  }
  if (scheme_ == PlannedScheme::kSFB || comm_ != nullptr) {
    CHECK_NOTNULL(local_optimizer_);
  }
}

void Syncer::MoveOut() {
  TraceSpan span("sync.move_out", "syncer", layer_index_);
  switch (scheme_) {
    case PlannedScheme::kNone:
      break;
    case PlannedScheme::kPS:
      // Stage straight into the wire slab; downstream the same slab is
      // referenced by every raw push chunk. Under BSP every shard read of
      // it happened before the replies that let this iteration start, so it
      // is reused once no shard holds a view. Under SSP a reply can precede
      // the apply that reads it, and a view count of one orders nothing
      // (use_count is a relaxed load), so raw pushes stage into a fresh slab.
      if (!staged_.valid() || staged_.size() != view_.size() || staged_.use_count() > 1 ||
          (coordinator_.cluster().staleness > 0 && codecs_.push == WireCodec::kRawFloat)) {
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
      // The layer's one whole-layer pair: weight then bias, the order of
      // the shard's value slab.
      std::vector<ParamBlock> params = layer_->Params();
      const Tensor& bias_grad = *params[1].grad;
      push_frames_.assign(1, OneBitCodec::Encode(fc_->weight_grad(), &quantizer_,
                                                 bias_grad.data(), bias_grad.size()));
      break;
    }
    case PlannedScheme::kRing:
    case PlannedScheme::kTree:
      comm_grads_.resize(static_cast<size_t>(view_.size()));
      view_.GatherGradSlice(0, &comm_grads_);
      WireCopyStats::Add(view_.size());
      break;
  }
}

bool Syncer::Send(int64_t iter) {
  {
    TraceSpan span("sync.send", "syncer", layer_index_);
    iter_ = iter;
    received_ = 0;
    switch (scheme_) {
      case PlannedScheme::kNone:
        break;
      case PlannedScheme::kPS:
      case PlannedScheme::kOneBit:
        SendPs(iter);
        break;
      case PlannedScheme::kSFB:
        sf_frames_.assign(static_cast<size_t>(coordinator_.cluster().num_workers),
                          PayloadView());
        sf_frames_[static_cast<size_t>(worker_)] = sf_frame_.View();
        SendSfb(iter);
        break;
      case PlannedScheme::kRing:
        comm_->Start(CollectiveAlgo::kRing, iter, &comm_grads_);
        break;
      case PlannedScheme::kTree:
        comm_->Start(CollectiveAlgo::kTree, iter, &comm_grads_);
        break;
    }
  }
  bool done = Complete();
  if (done) {
    Apply();  // a lone worker waits for no message
  }
  // Messages a peer sent before this iteration opened here; Handle defers
  // again whatever is still early.
  std::vector<Message> early;
  early.swap(deferred_);
  for (const Message& message : early) {
    done = Handle(message) || done;
  }
  return done;
}

void Syncer::SendPs(int64_t iter) {
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
            push_frames_.push_back(
                Fp16Codec::EncodeSr(q, pair.length, seed, pair.offset, r, nullptr, 0));
            break;
          case GradCompression::kInt8:
            push_frames_.push_back(
                Int8Codec::EncodeSr(q, pair.length, seed, pair.offset, r, nullptr, 0));
            break;
          case GradCompression::kTopK: {
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
    // 1-bit pushes keep their own wire type; the shard serves both alike.
    push.type = codecs_.push == WireCodec::kOneBit ? MessageType::kOneBitPush
                                                   : MessageType::kGradPush;
    push.from = Address{worker_, kSyncerPortBase + layer_index_};
    push.to = dest.address;
    push.layer = layer_index_;
    push.worker = worker_;
    push.iter = iter;
    push.codec = codecs_.push;
    push.chunks.reserve(dest.pairs.size());
    for (const KvPairInfo& pair : dest.pairs) {
      if (codecs_.push == WireCodec::kRawFloat) {
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

bool Syncer::Handle(const Message& message) {
  TraceSpan span("sync.receive", "syncer", layer_index_);
  if (message.iter > iter_) {
    // A peer may run at most one iteration ahead under BSP: its SF broadcast
    // or first hop waits for this layer's Send of that iteration. A reply
    // never precedes its own push, so the PS path never defers.
    deferred_.push_back(message);
    return false;
  }
  switch (scheme_) {
    case PlannedScheme::kNone:
      LOG(Fatal) << "layer " << layer_index_ << " has no synchronization to receive";
      break;
    case PlannedScheme::kPS:
    case PlannedScheme::kOneBit: {
      CHECK(message.type == MessageType::kParamReply);
      CHECK(message.codec == codecs_.reply);
      Tensor dense;
      for (const WireChunk& chunk : message.chunks) {
        if (codecs_.reply == WireCodec::kRawFloat) {
          // Move(CPU2GPU): the one staging copy on the receive side.
          view_.ScatterValueSlice(chunk.offset, chunk.view.data(), chunk.view.size());
          WireCopyStats::Add(chunk.view.size());
        } else {
          // Compressed layers get binary16 round-to-nearest replies
          // regardless of the push codec (the reply is stateless; see
          // docs/COMPRESSION.md).
          const Status decoded = Fp16Codec::DecodeDense(chunk.view, &dense);
          CHECK(decoded.ok()) << decoded.ToString();
          view_.ScatterValueSlice(chunk.offset, dense.data(), dense.size());
        }
        ++received_;
      }
      break;
    }
    case PlannedScheme::kSFB: {
      CHECK(message.type == MessageType::kSfBroadcast);
      CHECK(message.codec == WireCodec::kSufficientFactor);
      CHECK_EQ(message.chunks.size(), 1u);
      CHECK_EQ(message.iter, iter_) << "stale SF broadcast";
      CHECK(message.worker >= 0 && message.worker < static_cast<int>(sf_frames_.size()))
          << "SF broadcast from unknown worker " << message.worker;
      PayloadView& frame = sf_frames_[static_cast<size_t>(message.worker)];
      CHECK(!frame.valid()) << "duplicate SF broadcast from worker " << message.worker;
      frame = message.chunks[0].view;
      ++received_;
      break;
    }
    case PlannedScheme::kRing:
    case PlannedScheme::kTree:
      comm_->Handle(message);
      break;
  }
  if (!Complete()) {
    return false;
  }
  Apply();
  return true;
}

bool Syncer::Complete() const {
  if (comm_ != nullptr) {
    return !comm_->pending();
  }
  return received_ ==
         (scheme_ == PlannedScheme::kSFB ? coordinator_.cluster().num_workers - 1 : total_pairs_);
}

void Syncer::Apply() {
  std::vector<ParamBlock> params = layer_->Params();
  std::vector<float*> sums;  // each parameter block's summed gradient
  if (scheme_ == PlannedScheme::kSFB) {
    // Reconstruct the aggregate weight gradient in worker order (identical
    // FP operation order on every replica keeps parameters bitwise in
    // sync). Each worker's U V^T element is summed in full before it is
    // added to the aggregate (agg = agg + dot), which matches the KV
    // store's reduction of pre-summed dense pushes bit for bit — so
    // switching a layer between PS and SFB never changes the trajectory.
    const Tensor& weight = *params[0].value;
    if (sf_agg_.SameShape(weight)) {
      sf_agg_.SetZero();
    } else {
      sf_agg_ = Tensor::Zeros(weight.shape());
    }
    sf_bias_agg_.assign(static_cast<size_t>(params[1].value->size()), 0.0f);
    for (const PayloadView& frame : sf_frames_) {
      CHECK(frame.valid());
      StatusOr<SufficientFactorCodec::Frame> parsed = SufficientFactorCodec::Parse(frame);
      CHECK(parsed.ok()) << parsed.status().ToString();
      const Status reconstructed =
          SufficientFactorCodec::AccumulateReconstruct(*parsed, &sf_agg_);
      CHECK(reconstructed.ok()) << reconstructed.ToString();
      CHECK_EQ(parsed->bias.size(), static_cast<int64_t>(sf_bias_agg_.size()));
      const float* b = parsed->bias.data();
      for (size_t i = 0; i < sf_bias_agg_.size(); ++i) {
        sf_bias_agg_[i] += b[i];
      }
    }
    sf_frames_.clear();  // release the peers' frames
    sums = {sf_agg_.data(), sf_bias_agg_.data()};
  } else if (comm_ != nullptr) {
    // The flat sum holds the blocks in declaration order, concatenated.
    float* next = comm_grads_.data();
    for (const ParamBlock& block : params) {
      sums.push_back(next);
      next += block.value->size();
    }
  } else {
    return;  // PS / 1-bit replies were scattered as they arrived
  }
  // Every replica averages the identical sum and steps it through an
  // identical local optimizer, so replicas never diverge.
  const float inv = 1.0f / static_cast<float>(coordinator_.cluster().num_workers);
  for (size_t b = 0; b < params.size(); ++b) {
    Tensor& value = *params[b].value;
    simd::Scale(sums[b], inv, value.size());
    local_optimizer_->StepSlice("l" + std::to_string(layer_index_) + ".p" + std::to_string(b),
                                sums[b], value.data(), value.size());
  }
}

}  // namespace poseidon
