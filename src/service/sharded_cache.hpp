// Sharded LRU result cache: N independently-locked LRU shards, the shard
// picked by a prefix (top bits) of the permutation-invariant canonical
// instance hash. Each shard is a fixed-capacity list-plus-index LRU map:
// most-recently-used entries at the front, O(1) get/put through an index
// map, the least-recently-used entry evicted when a put overflows it.
//
// Why sharding: the service used to guard one LRU map with the same
// mutex that ordered admission and the counters, so every concurrent
// connection serialized on one lock even when all traffic was cache hits.
// Each shard owns its own mutex and its own recency list; two requests
// whose instance hashes differ in the top bits never contend. Recency is
// therefore per-shard — the capacity contract becomes "at most
// ceil(capacity / shards) entries per shard", which callers that pin
// exact global LRU behavior (deterministic eviction tests, benches that
// count hits against a sized working set) preserve by configuring one
// shard.
//
// The hash is passed in alongside the string key rather than re-derived:
// the service already computes the canonical instance hash to build the
// key, and the shard index must come from the *instance* hash (stable
// under job permutation), not from a hash of the composed key string.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace calisched {

template <typename Key, typename Value>
class ShardedLruCache {
 public:
  /// `capacity` is the total entry budget, split evenly (rounded up)
  /// across `shards`; capacity 0 disables caching entirely. A shard count
  /// of 0 or 1 degenerates to one LRU map behind one mutex — byte-for-
  /// byte the pre-sharding semantics.
  ShardedLruCache(std::size_t capacity, std::size_t shards)
      : capacity_(capacity) {
    if (shards == 0) shards = 1;
    const std::size_t per_shard =
        capacity == 0 ? 0 : (capacity + shards - 1) / shards;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(per_shard));
    }
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Which shard a canonical hash lands in (top-bit prefix, modulo the
  /// shard count so any count works, not only powers of two). Exposed so
  /// tests can pin the prefix routing.
  [[nodiscard]] std::size_t shard_index(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash >> 48) % shards_.size();
  }

  /// Copies the cached value out under the shard lock (promoting the
  /// entry to most-recently-used), or returns false on a miss. A copy,
  /// not a pointer: with per-shard locks a stable reference would race
  /// the next put.
  [[nodiscard]] bool get(std::uint64_t hash, const Key& key, Value* out) {
    Shard& shard = *shards_[shard_index(hash)];
    std::scoped_lock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
    *out = it->second->second;
    return true;
  }

  /// Inserts or overwrites; the entry becomes most-recently-used and the
  /// shard's least-recently-used entry is evicted when over capacity.
  void put(std::uint64_t hash, const Key& key, Value value) {
    if (capacity_ == 0) return;
    Shard& shard = *shards_[shard_index(hash)];
    std::scoped_lock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
      return;
    }
    shard.entries.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.entries.begin());
    if (shard.entries.size() > shard.capacity) {
      shard.index.erase(shard.entries.back().first);
      shard.entries.pop_back();
    }
  }

  /// Total entries across shards. Each shard is locked in turn, so the
  /// sum is a consistent snapshot only once the service has quiesced —
  /// exactly when the stats contracts sample it.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      std::scoped_lock lock(shard->mutex);
      total += shard->entries.size();
    }
    return total;
  }

 private:
  struct Shard {
    explicit Shard(std::size_t per_shard) : capacity(per_shard) {}
    mutable std::mutex mutex;
    std::size_t capacity;
    std::list<std::pair<Key, Value>> entries;  ///< most recent first
    std::unordered_map<Key,
                       typename std::list<std::pair<Key, Value>>::iterator>
        index;
  };

  std::size_t capacity_;
  /// unique_ptr per shard: the mutexes must not move when the vector is
  /// built, and padding each shard to its own allocation keeps two hot
  /// shard locks off one cache line.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace calisched
