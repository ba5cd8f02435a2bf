#include "obs/writer_ring.hpp"

namespace worms::obs {

const char* to_string(TraceClock clock) noexcept {
  switch (clock) {
    case TraceClock::Wall: return "wall";
    case TraceClock::Synthetic: return "synthetic";
  }
  return "unknown";
}

std::chrono::steady_clock::time_point wall_origin() noexcept {
  static const std::chrono::steady_clock::time_point origin = std::chrono::steady_clock::now();
  return origin;
}

namespace detail {

std::size_t normalize_capacity(std::size_t n) noexcept {
  std::size_t cap = 64;
  while (cap < n && cap < (std::size_t{1} << 30)) cap <<= 1;
  return cap;
}

std::uint64_t next_ring_set_epoch() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace worms::obs
