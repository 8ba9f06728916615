#include "src/collective/collective.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/simd/vec.h"
#include "src/stats/trace.h"

namespace poseidon {

const char* CollectiveAlgoName(CollectiveAlgo algo) {
  switch (algo) {
    case CollectiveAlgo::kRing:
      return "ring";
    case CollectiveAlgo::kTree:
      return "tree";
  }
  return "?";
}

CollectiveComm::CollectiveComm(MessageBus* bus, int rank, int world, int tag)
    : bus_(bus), rank_(rank), world_(world), tag_(tag), children_(TreeChildren(rank, world)) {
  CHECK_NOTNULL(bus);
  CHECK_GE(rank, 0);
  CHECK_LT(rank, world);
  mailbox_ = bus_->Register(Address{rank_, kCollectivePortBase + tag_});
}

void CollectiveComm::SendHop(int to, int step, int64_t offset, const float* data,
                             int64_t len) {
  TraceSpan span("collective.send_hop", "collective", step);
  Message hop;
  hop.type = MessageType::kCollective;
  hop.from = Address{rank_, kCollectivePortBase + tag_};
  hop.to = Address{to, kCollectivePortBase + tag_};
  hop.layer = tag_;
  hop.worker = rank_;
  hop.iter = seq_;
  hop.step = step;
  hop.codec = WireCodec::kRawFloat;
  // Collective hops copy into a fresh slab: the staging buffer is mutated
  // in place across hops, so aliasing it across ranks would race (see
  // docs/WIRE_FORMAT.md aliasing rules).
  hop.chunks.push_back({offset, RawFloatCodec::Encode(data, len).View()});
  ++messages_sent_;
  floats_sent_ += len;
  const Status status = bus_->Send(std::move(hop));
  CHECK(status.ok()) << status.ToString();
}

void CollectiveComm::Start(CollectiveAlgo algo, int64_t seq, std::vector<float>* data) {
  CHECK(!pending_) << "previous collective not finished";
  CHECK_NOTNULL(data);
  algo_ = algo;
  seq_ = seq;
  data_ = data;
  ring_step_ = 0;
  child_sums_.assign(children_.size(), PayloadView());
  children_reduced_ = 0;
  if (world_ == 1) {
    return;
  }
  pending_ = true;
  switch (algo_) {
    case CollectiveAlgo::kRing: {
      // Step 0 of reduce-scatter: every rank sends its own chunk downstream.
      const ChunkRange own = CollectiveChunk(static_cast<int64_t>(data->size()), world_, rank_);
      SendHop(RingNext(rank_, world_), /*step=*/0, own.offset, data->data() + own.offset,
              own.length);
      break;
    }
    case CollectiveAlgo::kTree:
      // Leaves push their contribution immediately; internal ranks must wait
      // for their children, so their first send happens in Handle.
      if (children_.empty()) {
        SendHop(TreeParent(rank_), kTreeReduceStep, 0, data->data(),
                static_cast<int64_t>(data->size()));
      }
      break;
  }
}

bool CollectiveComm::Handle(const Message& message) {
  TraceSpan span("collective.recv_hop", "collective", message.step);
  CHECK(pending_) << "rank " << rank_ << " tag " << tag_ << ": hop with no collective in flight";
  CHECK(message.type == MessageType::kCollective)
      << "rank " << rank_ << " tag " << tag_ << ": unexpected message type";
  CHECK_EQ(message.iter, seq_) << "collective sequence mismatch (peer ran ahead?)";
  CHECK(message.codec == WireCodec::kRawFloat);
  CHECK_EQ(message.chunks.size(), 1u);
  const bool done =
      algo_ == CollectiveAlgo::kRing ? HandleRing(message) : HandleTree(message);
  if (done) {
    pending_ = false;
    data_ = nullptr;
  }
  return done;
}

bool CollectiveComm::HandleRing(const Message& message) {
  // The chunk arriving at step s is (rank - s - 1) mod world: reduce-scatter
  // partial sums for s < world-1, fully reduced chunks afterwards.
  const int s = ring_step_++;
  CHECK_EQ(message.step, s);
  CHECK_EQ(message.worker, RingPrev(rank_, world_));
  const int chunk_index = ((rank_ - s - 1) % world_ + world_) % world_;
  const ChunkRange range =
      CollectiveChunk(static_cast<int64_t>(data_->size()), world_, chunk_index);
  const WireChunk& payload = message.chunks[0];
  CHECK_EQ(payload.offset, range.offset);
  CHECK_EQ(payload.view.size(), range.length);
  const float* incoming = payload.view.data();
  float* local = data_->data() + range.offset;
  if (s < world_ - 1) {
    // Reduce-scatter: fold the incoming partial sum with the local chunk.
    // The accumulation for chunk c runs along the ring starting at rank c,
    // so every rank observes the identical association order.
    simd::ReduceAdd(local, incoming, range.length);
  } else {
    // All-gather: adopt the fully reduced chunk.
    std::copy(incoming, incoming + range.length, local);
    WireCopyStats::Add(range.length);
  }
  if (s == 2 * world_ - 3) {
    return true;
  }
  SendHop(RingNext(rank_, world_), s + 1, range.offset, local, range.length);
  return false;
}

bool CollectiveComm::HandleTree(const Message& message) {
  std::vector<float>& data = *data_;
  const int64_t total = static_cast<int64_t>(data.size());
  const PayloadView& view = message.chunks[0].view;
  CHECK_EQ(view.size(), total);
  if (message.step == kTreeReduceStep) {
    // Reduce phase. Children are distinct senders, so their subtree sums may
    // arrive in either order: buffer by sender, then fold in child order
    // (lower rank first), giving a deterministic association.
    const auto child_it = std::find(children_.begin(), children_.end(), message.worker);
    CHECK(child_it != children_.end())
        << "rank " << rank_ << ": reduce message from non-child " << message.worker;
    PayloadView& slot = child_sums_[static_cast<size_t>(child_it - children_.begin())];
    CHECK(!slot.valid()) << "duplicate reduce message";
    slot = view;
    if (++children_reduced_ < children_.size()) {
      return false;
    }
    for (PayloadView& sum : child_sums_) {
      simd::ReduceAdd(data.data(), sum.data(), total);
      sum = PayloadView();
    }
    if (rank_ != 0) {
      SendHop(TreeParent(rank_), kTreeReduceStep, 0, data.data(), total);
      return false;
    }
    // The root now holds the global sum.
  } else {
    // Broadcast phase: adopt the parent's copy of the global sum.
    CHECK_EQ(message.step, kTreeBroadcastStep);
    CHECK_EQ(message.worker, TreeParent(rank_));
    CHECK_EQ(children_reduced_, children_.size()) << "broadcast before the subtree reduced";
    std::copy(view.data(), view.data() + total, data.begin());
    WireCopyStats::Add(total);
  }
  for (int child : children_) {
    SendHop(child, kTreeBroadcastStep, 0, data.data(), total);
  }
  return true;
}

void CollectiveComm::Allreduce(CollectiveAlgo algo, int64_t seq, std::vector<float>* data) {
  Start(algo, seq, data);
  while (pending_) {
    std::optional<Message> message = mailbox_->Pop();
    CHECK(message.has_value()) << "collective mailbox closed mid-operation";
    Handle(*message);
  }
}

}  // namespace poseidon
