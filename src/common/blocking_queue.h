/// \file
/// Unbounded MPMC blocking queue used by the transport and the runtime's
/// service loops.
///
/// Close() wakes all waiters; Pop() returns std::nullopt once the queue is
/// closed and drained, which is the shutdown signal for consumer threads.
#ifndef POSEIDON_SRC_COMMON_BLOCKING_QUEUE_H_
#define POSEIDON_SRC_COMMON_BLOCKING_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace poseidon {

template <typename T>
class BlockingQueue {
 public:
  BlockingQueue() = default;

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  // Returns false if the queue is already closed (the item is dropped).
  bool Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) {
        return false;
      }
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and empty.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Bounded-wait variant: blocks at most `timeout`, then returns nullopt if
  // no item arrived (also nullopt when the queue closed empty). Consumers
  // that must interleave queue service with time-based work — the failure
  // detector's deadline scan — use this instead of polling TryPop.
  std::optional<T> PopFor(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, timeout, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Non-blocking variant; returns nullopt when no item is ready.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_COMMON_BLOCKING_QUEUE_H_
