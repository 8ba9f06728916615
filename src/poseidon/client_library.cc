#include "src/poseidon/client_library.h"

#include "src/common/logging.h"

namespace poseidon {

ClientLibrary::ClientLibrary(int worker, const Coordinator& coordinator,
                             const CommPlan& plan, Network* net, MessageBus* bus,
                             const SgdConfig& sgd, int num_threads)
    : worker_(worker), local_optimizer_(sgd) {
  CHECK_NOTNULL(net);
  CHECK_EQ(static_cast<int>(plan.layers.size()), net->num_layers());
  CHECK_GT(num_threads, 0);
  for (int t = 0; t < num_threads; ++t) {
    mailboxes_.push_back(std::make_shared<MessageBus::Mailbox>());
  }
  syncers_.reserve(plan.layers.size());
  for (int l = 0; l < net->num_layers(); ++l) {
    if (plan.layers[static_cast<size_t>(l)].scheme != PlannedScheme::kNone) {
      // Bound before the syncer exists: a collective registers its port and
      // must find this mailbox there.
      const auto& mailbox = mailboxes_[static_cast<size_t>(l % num_threads)];
      bus->Bind(Address{worker, kSyncerPortBase + l}, mailbox);
      bus->Bind(Address{worker, kCollectivePortBase + l}, mailbox);
      ++num_sync_layers_;
    }
    syncers_.push_back(std::make_unique<Syncer>(worker, l, plan, coordinator, bus,
                                                &net->layer(l), &local_optimizer_));
  }
  completion_.assign(plan.layers.size(), false);
  for (int t = 0; t < num_threads; ++t) {
    loops_.emplace_back([this, t] { Loop(t); });
  }
}

ClientLibrary::~ClientLibrary() {
  for (auto& mailbox : mailboxes_) {
    mailbox->Close();
  }
  for (std::thread& loop : loops_) {
    loop.join();
  }
}

void ClientLibrary::StartIteration(int64_t iter) {
  std::lock_guard<std::mutex> lock(mutex_);
  CHECK_EQ(completed_, 0) << "previous iteration still in flight";
  std::fill(completion_.begin(), completion_.end(), false);
  iter_ = iter;
}

void ClientLibrary::ScheduleSync(int l) {
  if (syncers_[static_cast<size_t>(l)]->scheme() == PlannedScheme::kNone) {
    return;
  }
  Message ready;
  ready.type = MessageType::kLayerReady;
  ready.to = Address{worker_, kSyncerPortBase + l};
  ready.iter = iter_;
  // Refused only once the mailbox is closed: the worker is being fenced.
  mailboxes_[static_cast<size_t>(l) % mailboxes_.size()]->Push(std::move(ready));
}

void ClientLibrary::Loop(int thread) {
  MessageBus::Mailbox& mailbox = *mailboxes_[static_cast<size_t>(thread)];
  while (std::optional<Message> message = mailbox.Pop()) {
    // The port a message arrived on names its layer: only the ports of this
    // loop's layers are bound to its mailbox.
    const int port = message->to.port;
    const int l = port - (port >= kCollectivePortBase ? kCollectivePortBase : kSyncerPortBase);
    Syncer& syncer = *syncers_[static_cast<size_t>(l)];
    bool done = false;
    if (message->type == MessageType::kLayerReady) {
      syncer.MoveOut();                   // Move(GPU2CPU)
      done = syncer.Send(message->iter);  // non-blocking push
    } else {
      done = syncer.Handle(*message);  // includes Move(CPU2GPU) / local apply
    }
    if (!done) {
      continue;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    CHECK(!completion_[static_cast<size_t>(l)]) << "layer synced twice in one iteration";
    completion_[static_cast<size_t>(l)] = true;
    ++completed_;
    if (completed_ == num_sync_layers_) {
      done_cv_.notify_all();
    }
  }
}

void ClientLibrary::WaitAll() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return completed_ == num_sync_layers_; });
  completed_ = 0;
}

}  // namespace poseidon
