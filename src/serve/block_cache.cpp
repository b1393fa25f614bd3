#include "serve/block_cache.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/error.h"
#include "util/rng.h"

namespace hacc::serve {

namespace {

// Cache traffic feeds the standard counter taxonomy so a served run's
// ledger/trace shows read-path behavior next to everything else. No-ops
// unless the calling thread has an obs::Binding (bench and server threads
// bind the server's registry).
const NameId kCtrHits = obs::counter_id("serve.cache.hits");
const NameId kCtrMisses = obs::counter_id("serve.cache.misses");
const NameId kCtrEvictions = obs::counter_id("serve.cache.evictions");
const NameId kGaugeBytes = obs::gauge_id("serve.cache.bytes");

/// Exact packed form of a CacheKey; doubles as the map key. The field
/// widths are far above anything a container-scale store produces and are
/// asserted at insert time.
std::uint64_t pack(const CacheKey& k) noexcept {
  return (static_cast<std::uint64_t>(k.file) << 40) |
         (static_cast<std::uint64_t>(k.block) << 16) |
         static_cast<std::uint64_t>(k.var);
}

}  // namespace

BlockCache::BlockCache(std::size_t capacity_bytes, std::size_t shards)
    : shards_(std::max<std::size_t>(shards, 1)) {
  const std::size_t per_shard =
      std::max<std::size_t>(capacity_bytes / shards_.size(), 1);
  for (auto& s : shards_) s.capacity = per_shard;
}

std::uint64_t BlockCache::hash_key(const CacheKey& key) noexcept {
  return splitmix64(pack(key));
}

CacheBlock BlockCache::get_or_load(
    const CacheKey& key, const std::function<std::vector<std::byte>()>& load) {
  HACC_ASSERT(key.file < (1u << 24) && key.block < (1u << 24) &&
              key.var < (1u << 16));
  const std::uint64_t packed = pack(key);
  Shard& sh = shard_of(splitmix64(packed));
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.map.find(packed);
    if (it != sh.map.end()) {
      // Hit: move to the LRU front and hand out the shared bytes.
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      obs::add_counter(kCtrHits, 1);
      return it->second->data;
    }
  }
  // Miss: load outside the lock (the CRC-verified read is the slow part and
  // must not serialize the shard). A concurrent loader of the same key may
  // get here too; the insert below adopts whichever entry landed first.
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs::add_counter(kCtrMisses, 1);
  auto data = std::make_shared<const std::vector<std::byte>>(load());
  const std::size_t cost = data->size();

  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.map.find(packed);
  if (it != sh.map.end()) {
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    return it->second->data;
  }
  if (cost > sh.capacity) return data;  // would evict the whole shard: skip
  sh.lru.push_front(Entry{key, data});
  sh.map.emplace(packed, sh.lru.begin());
  sh.bytes += cost;
  while (sh.bytes > sh.capacity && sh.lru.size() > 1) {
    const Entry& victim = sh.lru.back();
    sh.bytes -= victim.data->size();
    sh.map.erase(pack(victim.key));
    sh.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::add_counter(kCtrEvictions, 1);
  }
  return data;
}

CacheBlock BlockCache::peek(const CacheKey& key) const {
  const std::uint64_t packed = pack(key);
  Shard& sh = shard_of(splitmix64(packed));
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.map.find(packed);
  return it != sh.map.end() ? it->second->data : nullptr;
}

CacheStats BlockCache::stats() const {
  CacheStats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    st.bytes += sh.bytes;
    st.entries += sh.lru.size();
    st.capacity_bytes += sh.capacity;
  }
  obs::set_gauge(kGaugeBytes, st.bytes);
  return st;
}

void BlockCache::clear() {
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.lru.clear();
    sh.map.clear();
    sh.bytes = 0;
  }
}

}  // namespace hacc::serve
