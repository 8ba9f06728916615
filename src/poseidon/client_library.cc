#include "src/poseidon/client_library.h"

#include "src/common/logging.h"

namespace poseidon {

ClientLibrary::ClientLibrary(int worker, const Coordinator& coordinator,
                             const CommPlan& plan, Network* net, MessageBus* bus,
                             const SgdConfig& sgd, int num_threads)
    : worker_(worker), local_optimizer_(sgd), pool_(num_threads) {
  CHECK_NOTNULL(net);
  CHECK_EQ(static_cast<int>(plan.layers.size()), net->num_layers());
  syncers_.reserve(plan.layers.size());
  for (int l = 0; l < net->num_layers(); ++l) {
    syncers_.push_back(std::make_unique<Syncer>(worker, l, plan, coordinator, bus,
                                                &net->layer(l), &local_optimizer_));
    if (syncers_.back()->scheme() != PlannedScheme::kNone) {
      ++num_sync_layers_;
    }
  }
  completion_.assign(plan.layers.size(), false);
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
  const int64_t iter = iter_;
  pool_.Schedule([this, l, iter] {
    Syncer& syncer = *syncers_[static_cast<size_t>(l)];
    syncer.MoveOut();      // Move(GPU2CPU)
    syncer.Send(iter);     // non-blocking push
    syncer.Receive(iter);  // blocks; includes Move(CPU2GPU) / local apply
    {
      std::lock_guard<std::mutex> lock(mutex_);
      CHECK(!completion_[static_cast<size_t>(l)]) << "layer synced twice in one iteration";
      completion_[static_cast<size_t>(l)] = true;
      ++completed_;
      if (completed_ == num_sync_layers_) {
        done_cv_.notify_all();
      }
    }
  });
}

void ClientLibrary::WaitAll() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return completed_ == num_sync_layers_; });
  completed_ = 0;
}

}  // namespace poseidon
