#include "util/telemetry.h"

#include <chrono>

namespace hacc::util {

namespace {
std::chrono::steady_clock::time_point process_epoch() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// Force epoch initialization at static-init time so the first now_ns() call
// on any thread is just a clock read and a subtraction.
const auto g_epoch_init = process_epoch();
}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - process_epoch())
          .count());
}

}  // namespace hacc::util
