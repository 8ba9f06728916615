#include "src/transport/sequencer.h"

#include <string>
#include <utility>

namespace poseidon {

int64_t StreamSequencer::NextSeq(const Address& from, const Address& to) {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_[StreamKey{from, to}]++;
}

Status ReorderBuffer::Admit(Message message, std::vector<Message>* out) {
  if (message.seq < 0) {
    out->push_back(std::move(message));  // unsequenced traffic passes through
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  StreamState& stream = streams_[StreamKey{message.from, message.to}];
  if (message.seq < stream.next_expected || stream.parked.count(message.seq) > 0) {
    if (counters_ != nullptr) {
      counters_->AddDeduped();
    }
    return Status::Ok();  // duplicate: already released or already parked
  }
  if (message.seq > stream.next_expected) {
    if (static_cast<int64_t>(stream.parked.size()) >= max_buffered_) {
      if (counters_ != nullptr) {
        counters_->AddOverflow();
      }
      return OutOfRangeError(
          "reorder buffer overflow on stream " + std::to_string(message.from.node) + ":" +
          std::to_string(message.from.port) + " -> " + std::to_string(message.to.node) + ":" +
          std::to_string(message.to.port) + " (next expected " +
          std::to_string(stream.next_expected) + ", got " + std::to_string(message.seq) +
          ")");
    }
    if (counters_ != nullptr) {
      counters_->AddReordered();
    }
    stream.parked.emplace(message.seq, std::move(message));
    return Status::Ok();  // gap: wait for the missing seq (retransmit guarantees arrival)
  }
  // In order: release it plus any parked run it unblocks.
  out->push_back(std::move(message));
  ++stream.next_expected;
  auto it = stream.parked.begin();
  while (it != stream.parked.end() && it->first == stream.next_expected) {
    out->push_back(std::move(it->second));
    it = stream.parked.erase(it);
    ++stream.next_expected;
  }
  return Status::Ok();
}

int64_t ReorderBuffer::buffered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total = 0;
  for (const auto& [key, stream] : streams_) {
    total += static_cast<int64_t>(stream.parked.size());
  }
  return total;
}

}  // namespace poseidon
