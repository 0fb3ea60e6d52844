// ShardedLruCache: a reusable, thread-safe, byte-capacity-bounded LRU cache.
//
// One cache class backs all four caching levels of the serving stack
// (see DESIGN.md §10 and §16):
//
//   * the InvertedIndex token-occurrence cache (multi-word phrase lookups),
//   * the PrecisEngine result-schema cache,
//   * the PrecisEngine full-answer cache,
//   * the PrecisEngine rendered-body cache.
//
// Design:
//
//   * The key space is split across N shards (default 8), each with its own
//     mutex, entry map and LRU list, so concurrent queries on different keys
//     rarely contend on the same lock (the same idea as LevelDB's
//     ShardedLRUCache).
//   * Capacity is expressed in *bytes*: every entry carries a caller-supplied
//     charge (an estimate of its footprint). Each shard owns
//     capacity / num_shards bytes and evicts from its own LRU tail when over
//     budget, so the cache never grows without bound — the fix for PR 1's
//     unbounded schema-cache map.
//   * Values are held as std::shared_ptr<const V>: a hit hands out a shared
//     reference to an immutable value, so move-only payloads (a PrecisAnswer
//     holds a Database) are cacheable without copies, and an entry evicted
//     while a reader still holds it stays alive until the last reader drops
//     it.
//   * Admission on second sight (TinyLFU's doorkeeper, Einziger, Friedman
//     and Manes, arXiv:1512.00727): each shard records, in a FlatKeySet,
//     the 64-bit hash of every key Put while not held. A key's first Put
//     records its hash and stores nothing; a Put whose hash is recorded
//     stores the entry. So a key asked for once — the long tail of a query
//     stream — never takes budget or evicts an entry that is asked for
//     again. The doorkeeper empties itself once it holds a window of
//     max(64, shard budget / 1024) hashes, so its memory is bounded by the
//     budget too.
//   * Hit / miss / insert / rejection / eviction counters are kept per shard
//     under the shard mutex and aggregated on demand; Clear() drops entries
//     and the doorkeeper but keeps the counters (callers rely on cumulative
//     ratios across clears).
//
// Thread-safety: all public methods may be called concurrently. Stats are a
// consistent per-shard snapshot (shards are read one at a time, so the
// aggregate may be mid-flight by a few operations — fine for metrics).

#ifndef PRECIS_COMMON_LRU_CACHE_H_
#define PRECIS_COMMON_LRU_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/flat_key_set.h"

namespace precis {

/// \brief Aggregated counters of one cache (or one cache level).
struct LruCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;   // entries stored (new or replaced)
  uint64_t rejected = 0;  // Puts turned away at the door: a key's first sight
  uint64_t evictions = 0;
  size_t entries = 0;           // live entries right now
  size_t charge_bytes = 0;      // sum of live entry charges
  size_t doorkeeper_bytes = 0;  // the doorkeepers' arrays, from capacity

  /// Hits over lookups; 0 when nothing was looked up yet.
  double hit_rate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }

  LruCacheStats& operator+=(const LruCacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    inserts += o.inserts;
    rejected += o.rejected;
    evictions += o.evictions;
    entries += o.entries;
    charge_bytes += o.charge_bytes;
    doorkeeper_bytes += o.doorkeeper_bytes;
    return *this;
  }
};

/// \brief Sharded, mutex-per-shard LRU cache bounded by total byte charge.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  /// \param capacity_bytes total byte budget across all shards (>= 1).
  /// \param num_shards number of independently locked shards (>= 1).
  explicit ShardedLruCache(size_t capacity_bytes, size_t num_shards = 8)
      : shards_(num_shards == 0 ? 1 : num_shards) {
    if (capacity_bytes == 0) capacity_bytes = 1;
    capacity_bytes_ = capacity_bytes;
    size_t per_shard = capacity_bytes / shards_.size();
    if (per_shard == 0) per_shard = 1;
    doorkeeper_window_ = std::max<size_t>(64, per_shard / 1024);
    for (Shard& shard : shards_) shard.capacity = per_shard;
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Looks up `key`; a hit promotes the entry to most-recently-used and
  /// returns a shared reference to the immutable value. nullptr on miss.
  std::shared_ptr<const Value> Get(const Key& key) {
    Shard& shard = ShardFor(Hash()(key));
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.stats.misses;
      return nullptr;
    }
    ++shard.stats.hits;
    // Promote to front (most recently used).
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }

  /// Inserts (or replaces) `key` with `value`, charged `charge` bytes
  /// against the shard budget; evicts least-recently-used entries as needed.
  /// A key not held is stored only when its hash is in the doorkeeper; its
  /// first Put records the hash and stores nothing (counted as rejected).
  /// An entry whose charge alone exceeds the shard budget is evicted
  /// immediately (counted as insert + eviction) — the cache never holds it.
  void Put(const Key& key, std::shared_ptr<const Value> value,
           size_t charge) {
    if (charge == 0) charge = 1;
    const uint64_t hash = Hash()(key);
    Shard& shard = ShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end() && !shard.doorkeeper.Contains(hash)) {
      if (shard.doorkeeper.size() >= doorkeeper_window_) {
        shard.doorkeeper.Clear();
      }
      shard.doorkeeper.Insert(hash);
      ++shard.stats.rejected;
      return;
    }
    if (it != shard.index.end()) {
      shard.charge -= it->second->charge;
      it->second->value = std::move(value);
      it->second->charge = charge;
      shard.charge += charge;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(value), charge});
      shard.index.emplace(key, shard.lru.begin());
      shard.charge += charge;
    }
    ++shard.stats.inserts;
    while (shard.charge > shard.capacity && !shard.lru.empty()) {
      const Entry& victim = shard.lru.back();
      shard.charge -= victim.charge;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++shard.stats.evictions;
    }
  }

  /// Removes `key` if present. Returns true if an entry was removed.
  bool Erase(const Key& key) {
    Shard& shard = ShardFor(Hash()(key));
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    shard.charge -= it->second->charge;
    shard.lru.erase(it->second);
    shard.index.erase(it);
    return true;
  }

  /// Drops every entry and every hash the doorkeepers recorded, so each
  /// key needs two Puts again; the counters are preserved.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.lru.clear();
      shard.index.clear();
      shard.charge = 0;
      shard.doorkeeper.Clear();
    }
  }

  /// Aggregated counters across all shards.
  LruCacheStats stats() const {
    LruCacheStats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.stats;
      total.entries += shard.index.size();
      total.charge_bytes += shard.charge;
      total.doorkeeper_bytes += shard.doorkeeper.bytes();
    }
    return total;
  }

  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_shards() const { return shards_.size(); }
  /// Hashes one shard's doorkeeper holds before it empties itself.
  size_t doorkeeper_window() const { return doorkeeper_window_; }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
    size_t charge;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator> index;
    FlatKeySet doorkeeper;  // hashes of keys Put while not held
    size_t capacity = 0;
    size_t charge = 0;
    LruCacheStats stats;  // entries/charge_bytes/doorkeeper_bytes derived
  };

  Shard& ShardFor(size_t h) {
    // Mix the hash so clustered low bits still spread across shards.
    h ^= h >> 17;
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return shards_[h % shards_.size()];
  }

  std::vector<Shard> shards_;
  size_t capacity_bytes_ = 0;
  size_t doorkeeper_window_ = 0;
};

}  // namespace precis

#endif  // PRECIS_COMMON_LRU_CACHE_H_
