#include "src/transport/rate_limiter.h"

#include <algorithm>

#include "src/common/logging.h"

namespace poseidon {

RateLimiter::RateLimiter(double bytes_per_sec, double burst_bytes)
    : bytes_per_sec_(bytes_per_sec),
      burst_bytes_(burst_bytes),
      tokens_(burst_bytes),
      last_refill_(Clock::now()) {
  CHECK_GT(bytes_per_sec, 0.0);
  CHECK_GT(burst_bytes, 0.0);
}

RateLimiter::Clock::time_point RateLimiter::Reserve(int64_t bytes) {
  CHECK_GE(bytes, 0);
  const auto now = Clock::now();
  const double elapsed = std::chrono::duration<double>(now - last_refill_).count();
  last_refill_ = now;
  tokens_ = std::min(burst_bytes_, tokens_ + elapsed * bytes_per_sec_);
  tokens_ -= static_cast<double>(bytes);
  if (tokens_ >= 0.0) {
    return now;
  }
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(-tokens_ / bytes_per_sec_));
}

}  // namespace poseidon
