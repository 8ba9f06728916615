/// \file
/// Token-bucket egress limiter (wall-clock) that never blocks. Reserve(bytes)
/// charges a frame to the bucket and says when it may leave, so the one
/// carrier thread that drains a node's egress queue can wait for it while
/// every sender goes on: a NIC that serializes a node's outgoing traffic at a
/// fixed rate.
#ifndef POSEIDON_SRC_TRANSPORT_RATE_LIMITER_H_
#define POSEIDON_SRC_TRANSPORT_RATE_LIMITER_H_

#include <chrono>
#include <cstdint>

namespace poseidon {

/// Not thread-safe: a node's limiter is charged by its carrier alone.
class RateLimiter {
 public:
  using Clock = std::chrono::steady_clock;

  // bytes_per_sec > 0; burst_bytes bounds how much can leave back-to-back.
  RateLimiter(double bytes_per_sec, double burst_bytes = 256 * 1024.0);

  // Consumes `bytes` tokens, borrowing against future refill when the bucket
  // runs short, and returns the time at which the frame may leave: now when
  // the bucket covered it, otherwise when the refill has repaid the debt.
  Clock::time_point Reserve(int64_t bytes);

  double bytes_per_sec() const { return bytes_per_sec_; }

 private:
  const double bytes_per_sec_;
  const double burst_bytes_;
  double tokens_;  // negative: debt the refill repays before the next frame
  Clock::time_point last_refill_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_RATE_LIMITER_H_
