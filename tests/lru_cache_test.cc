#include "common/lru_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"

namespace precis {
namespace {

using Cache = ShardedLruCache<std::string, int>;

std::shared_ptr<const int> Boxed(int v) {
  return std::make_shared<const int>(v);
}

/// Puts `key` twice: the doorkeeper turns its first sight away, and the
/// second stores it.
void Admit(Cache* cache, const std::string& key, int v, size_t charge) {
  cache->Put(key, Boxed(v), charge);
  cache->Put(key, Boxed(v), charge);
}

TEST(LruCacheTest, MissThenHit) {
  Cache cache(1024, /*num_shards=*/1);
  EXPECT_EQ(cache.Get("a"), nullptr);
  Admit(&cache, "a", 7, 10);
  auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 7);
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.charge_bytes, 10u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(LruCacheTest, FirstPutStoresNothingAndSecondStores) {
  Cache cache(1024, /*num_shards=*/1);
  cache.Put("a", Boxed(1), 10);
  EXPECT_EQ(cache.Get("a"), nullptr);
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.charge_bytes, 0u);
  EXPECT_GT(stats.doorkeeper_bytes, 0u);

  cache.Put("a", Boxed(2), 10);
  auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 2);
  stats = cache.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.charge_bytes, 10u);
}

TEST(LruCacheTest, StreamOfDistinctKeysStoresNothing) {
  // A cold stream: every key is asked once. Nothing is stored, nothing is
  // evicted, and the doorkeepers stay within their windows.
  constexpr size_t kCapacity = 64 << 20;
  constexpr size_t kShards = 8;
  Cache cache(kCapacity, kShards);
  EXPECT_EQ(cache.doorkeeper_window(), kCapacity / kShards / 1024);
  constexpr int kKeys = 1000000;
  for (int i = 0; i < kKeys; ++i) {
    cache.Put("k" + std::to_string(i), Boxed(i), 100);
  }
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.charge_bytes, 0u);
  EXPECT_EQ(stats.rejected, static_cast<uint64_t>(kKeys));
  // Each shard's set holds at most a window of hashes, so its array is at
  // most the hash table a window needs.
  EXPECT_GT(stats.doorkeeper_bytes, 0u);
  EXPECT_LE(stats.doorkeeper_bytes,
            kShards * FlatKeySet::HashSlots(cache.doorkeeper_window()) *
                sizeof(uint64_t));
}

TEST(LruCacheTest, DoorkeeperWindowHasAFloor) {
  EXPECT_EQ(Cache(64, 1).doorkeeper_window(), 64u);
  EXPECT_EQ(Cache(1 << 20, 1).doorkeeper_window(), 1024u);
}

TEST(LruCacheTest, ClearEmptiesTheDoorkeeper) {
  Cache cache(1024, 4);
  cache.Put("a", Boxed(1), 10);  // recorded, not stored
  cache.Clear();
  cache.Put("a", Boxed(1), 10);  // a first sight again
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", Boxed(1), 10);
  EXPECT_NE(cache.Get("a"), nullptr);
}

TEST(LruCacheTest, ConcurrentFirstPutsOfOneKeyHoldItOnce) {
  Cache cache(8192, 8);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] { cache.Put("k", Boxed(t), 16); });
  }
  for (std::thread& t : threads) t.join();
  // The first Put to take the shard lock is turned away; every later one
  // stores or replaces the one entry.
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.inserts, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.charge_bytes, 16u);
  EXPECT_NE(cache.Get("k"), nullptr);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedFirst) {
  // One shard so the LRU order is global and deterministic.
  Cache cache(100, /*num_shards=*/1);
  Admit(&cache, "a", 1, 40);
  Admit(&cache, "b", 2, 40);
  ASSERT_NE(cache.Get("a"), nullptr);  // promotes "a" over "b"
  Admit(&cache, "c", 3, 40);           // 120 > 100: evicts the tail = "b"
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.charge_bytes, 100u);
}

TEST(LruCacheTest, ReplacingAKeyUpdatesValueAndCharge) {
  Cache cache(1024, 1);
  cache.Put("a", Boxed(1), 100);  // turned away at the door
  cache.Put("a", Boxed(1), 100);
  cache.Put("a", Boxed(2), 30);
  auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 2);
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.charge_bytes, 30u);
  EXPECT_EQ(stats.inserts, 2u);
}

TEST(LruCacheTest, OversizedEntryIsNeverHeld) {
  Cache cache(64, 1);
  Admit(&cache, "huge", 1, 1000);
  EXPECT_EQ(cache.Get("huge"), nullptr);
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.charge_bytes, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(LruCacheTest, ZeroChargeIsClampedToOne) {
  Cache cache(4, 1);
  for (int i = 0; i < 8; ++i) Admit(&cache, "k" + std::to_string(i), i, 0);
  // 8 one-byte entries against a 4-byte budget: half must have evicted.
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.charge_bytes, 4u);
  EXPECT_EQ(stats.evictions, 4u);
}

TEST(LruCacheTest, EraseRemovesOnlyThatKey) {
  Cache cache(1024, 1);
  Admit(&cache, "a", 1, 10);
  Admit(&cache, "b", 2, 10);
  EXPECT_TRUE(cache.Erase("a"));
  EXPECT_FALSE(cache.Erase("a"));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.stats().charge_bytes, 10u);
}

TEST(LruCacheTest, ClearDropsEntriesButKeepsCounters) {
  Cache cache(1024, 4);
  Admit(&cache, "a", 1, 10);
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("missing"), nullptr);
  cache.Clear();
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.charge_bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);    // preserved across Clear
  EXPECT_EQ(stats.misses, 1u);  // preserved across Clear
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(LruCacheTest, SharedValueSurvivesEviction) {
  Cache cache(50, 1);
  Admit(&cache, "a", 42, 40);
  auto held = cache.Get("a");
  ASSERT_NE(held, nullptr);
  Admit(&cache, "b", 2, 40);  // evicts "a" while `held` is live
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(*held, 42);  // the reader's reference stays valid
}

TEST(LruCacheTest, ChargeStaysWithinBudgetUnderRandomLoad) {
  const size_t kCapacity = 4096;
  Cache cache(kCapacity, 8);
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    std::string key = "k" + std::to_string(rng.Index(200));
    cache.Put(key, Boxed(i), 1 + rng.Index(64));
    if (i % 3 == 0) cache.Get("k" + std::to_string(rng.Index(200)));
  }
  // Per-shard budgets sum to at most the total budget.
  EXPECT_LE(cache.stats().charge_bytes, kCapacity);
}

TEST(LruCacheTest, ConcurrentMixedWorkloadIsCrashFreeAndAccounted) {
  Cache cache(8192, 8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<uint64_t> gets{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &gets, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "k" + std::to_string(rng.Index(64));
        switch (rng.Index(4)) {
          case 0:
            cache.Put(key, std::make_shared<const int>(i), 1 + rng.Index(32));
            break;
          case 3:
            cache.Erase(key);
            break;
          default: {
            auto hit = cache.Get(key);
            if (hit != nullptr) {
              volatile int v = *hit;  // touch the shared value
              (void)v;
            }
            gets.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LruCacheStats stats = cache.stats();
  // Every Get counted exactly once, as a hit or a miss.
  EXPECT_EQ(stats.hits + stats.misses, gets.load());
  EXPECT_LE(stats.charge_bytes, cache.capacity_bytes());
  EXPECT_GT(stats.hits, 0u);  // a 64-key space over 8k gets must hit
}

}  // namespace
}  // namespace precis
