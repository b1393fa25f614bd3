// Message envelope and per-rank mailbox for the SimMPI runtime.
//
// SimMPI reproduces the MPI programming model (paper runs HACC with one MPI
// rank per core) inside one process: each rank is a thread, each thread owns
// a mailbox, and sends enqueue byte payloads into the destination mailbox
// ("eager"/buffered semantics). Receives block until a message matching
// (context, source, tag) arrives. Communicator contexts isolate traffic the
// way MPI communicators do, so a library FFT and user code can't intercept
// each other's messages.
//
// Fault-tolerance hooks: receives may carry a deadline (receive_for returns
// nullopt on expiry instead of hanging forever — the caller turns that into
// a stuck-rank report), aborts carry the *cause* (the failing rank's error
// message) so surviving ranks die with a diagnosis instead of a generic
// shutdown, and messages may carry a payload checksum for end-to-end
// corruption detection.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/fnv1a.h"

namespace hacc::comm {

/// Thrown out of blocking receives when the machine is shutting down because
/// another rank failed; prevents surviving ranks from blocking forever. The
/// what() string names the failing rank and its error when known.
class Aborted : public std::runtime_error {
 public:
  Aborted() : std::runtime_error("SimMPI machine aborted by a failing rank") {}
  explicit Aborted(const std::string& cause) : std::runtime_error(cause) {}
};

/// A delivered message: payload plus matching metadata.
struct Message {
  std::uint64_t context = 0;  ///< communicator context id
  int source = 0;             ///< sender's rank *within that communicator*
  int tag = 0;
  /// End-to-end payload checksum (FNV-1a 64), computed at the send site
  /// when MachineOptions::verify_payloads is on; 0x0/false otherwise.
  std::uint64_t checksum = 0;
  bool checksummed = false;
  std::vector<std::byte> payload;
};

/// The end-to-end payload checksum: 64-bit FNV-1a over the byte span.
inline std::uint64_t payload_checksum(const std::byte* data,
                                      std::size_t n) noexcept {
  return fnv1a(data, n);
}

/// Thread-safe mailbox with (context, source, tag) matching.
class Mailbox {
 public:
  void deliver(Message msg) {
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(std::move(msg));
    }
    cv_.notify_all();
  }

  /// Block until a message matching (context, source, tag) is available and
  /// return it. FIFO per matching triple (MPI non-overtaking rule).
  /// Throws Aborted (carrying the machine's failure cause) if the machine
  /// is shut down while waiting.
  Message receive(std::uint64_t context, int source, int tag) {
    std::unique_lock lock(mutex_);
    for (;;) {
      if (auto msg = match(context, source, tag)) return std::move(*msg);
      if (aborted_) throw Aborted{cause_};
      cv_.wait(lock);
    }
  }

  /// Like receive(), but gives up after `timeout_s` seconds: returns
  /// nullopt on expiry (the caller owns the stuck-rank diagnosis). Still
  /// throws Aborted on machine shutdown.
  std::optional<Message> receive_for(std::uint64_t context, int source,
                                     int tag, double timeout_s) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(timeout_s));
    std::unique_lock lock(mutex_);
    for (;;) {
      if (auto msg = match(context, source, tag)) return msg;
      if (aborted_) throw Aborted{cause_};
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        // One final probe: the message may have raced the timeout.
        if (auto msg = match(context, source, tag)) return msg;
        if (aborted_) throw Aborted{cause_};
        return std::nullopt;
      }
    }
  }

  /// Wake any blocked receiver with an Aborted exception carrying `cause`
  /// (machine teardown after a rank failure).
  void abort(const std::string& cause) {
    {
      std::lock_guard lock(mutex_);
      aborted_ = true;
      if (cause_.empty()) cause_ = cause;
    }
    cv_.notify_all();
  }
  void abort() { abort("SimMPI machine aborted by a failing rank"); }

  /// Non-blocking probe: true if a matching message is queued.
  bool probe(std::uint64_t context, int source, int tag) const {
    std::lock_guard lock(mutex_);
    for (const auto& m : queue_) {
      if (m.context == context && m.source == source && m.tag == tag)
        return true;
    }
    return false;
  }

  std::size_t pending() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

 private:
  /// Pop the first matching queued message (mutex_ must be held).
  std::optional<Message> match(std::uint64_t context, int source, int tag) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->context == context && it->source == source && it->tag == tag) {
        Message msg = std::move(*it);
        queue_.erase(it);
        return msg;
      }
    }
    return std::nullopt;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool aborted_ = false;
  std::string cause_;
};

}  // namespace hacc::comm
