#include "common/symbol_table.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace precis {
namespace {

constexpr uint32_t kShards = SymbolTable::kNumShards;

uint32_t ShardOf(std::string_view s) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(s) &
                               (kShards - 1));
}

/// Distinct strings of exactly `length` bytes that land in `shard`.
std::vector<std::string> StringsInShard(uint32_t shard, size_t count,
                                        size_t length,
                                        const std::string& prefix) {
  std::vector<std::string> out;
  for (int i = 0; out.size() < count; ++i) {
    std::string s = prefix + std::to_string(i);
    s.resize(length, '.');
    if (ShardOf(s) == shard) out.push_back(std::move(s));
  }
  return out;
}

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  SymbolId a = table.Intern("Woody Allen");
  SymbolId b = table.Intern("Woody Allen");
  SymbolId c = table.Intern("Diane Keaton");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(table.str(a), "Woody Allen");
  EXPECT_EQ(table.str(c), "Diane Keaton");
}

TEST(SymbolTableTest, EmptyStringInterns) {
  SymbolTable table;
  SymbolId id = table.Intern("");
  EXPECT_EQ(table.str(id), "");
  EXPECT_EQ(table.Intern(""), id);
}

TEST(SymbolTableTest, HashMatchesStdHashOfBytes) {
  // Value::Hash() depends on this equivalence byte-for-byte: the memoized
  // hash must be exactly std::hash<std::string> of the interned bytes.
  SymbolTable table;
  for (const char* s : {"", "a", "Woody Allen", "sci-fi", "1977"}) {
    SymbolId id = table.Intern(s);
    EXPECT_EQ(table.hash(id), std::hash<std::string>{}(std::string(s))) << s;
  }
}

TEST(SymbolTableTest, StrReferenceIsStableAcrossGrowth) {
  SymbolTable table;
  SymbolId first = table.Intern("stable");
  const char* before = table.str(first).data();
  // Force many entry blocks, slabs and id-table doublings.
  for (int i = 0; i < 50000; ++i) table.Intern("sym" + std::to_string(i));
  EXPECT_EQ(table.str(first).data(), before);
  EXPECT_EQ(table.str(first), "stable");
}

TEST(SymbolTableTest, StatsCountSymbolsAndBytes) {
  SymbolTable table;
  table.Intern("abc");
  table.Intern("defgh");
  table.Intern("abc");  // hit: counts as an intern, not a new symbol
  SymbolTableStats s = table.stats();
  EXPECT_EQ(s.symbols, 2u);
  EXPECT_EQ(s.bytes, 8u);
  EXPECT_EQ(s.interns, 3u);
  EXPECT_GE(s.blocks, 1u);
  EXPECT_GE(s.reserved_bytes, s.bytes);
}

TEST(SymbolTableTest, GlobalIsSingleton) {
  EXPECT_EQ(SymbolTable::Global(), SymbolTable::Global());
}

TEST(SymbolTableTest, IdsFollowTheShardLayout) {
  // The k-th new symbol of shard s is k * 16 + s, with s = hash & 15:
  // index layouts and cache keys depend on it.
  SymbolTable table;
  std::array<uint32_t, kShards> next{};
  std::vector<SymbolId> ids;
  for (int i = 0; i < 20000; ++i) {
    const std::string s = "layout" + std::to_string(i);
    const uint32_t shard = ShardOf(s);
    const SymbolId id = table.Intern(s);
    EXPECT_EQ(id, next[shard]++ * kShards + shard) << s;
    ids.push_back(id);
  }
  for (int i = 0; i < 20000; ++i) {
    EXPECT_EQ(table.Intern("layout" + std::to_string(i)), ids[i]);
  }
}

TEST(SymbolTableTest, SlabFilledExactlyRollsOver) {
  // Fill one shard's first slab to its last byte, then intern one more
  // string there: an empty one or a short one. Either must start a new
  // slab rather than an offset one past the full slab.
  const uint32_t shard = ShardOf("");
  const size_t kLength = 64;
  static_assert(SymbolTable::kSlabBytes % 64 == 0);
  const std::vector<std::string> fill = StringsInShard(
      shard, SymbolTable::kSlabBytes / kLength + 1, kLength, "fill");
  for (const std::string& last : {std::string(), fill.back()}) {
    SymbolTable table;
    std::vector<SymbolId> ids;
    for (size_t i = 0; i + 1 < fill.size(); ++i) {
      ids.push_back(table.Intern(fill[i]));
    }
    // One entry block and one slab, packed to its last byte.
    EXPECT_EQ(table.stats().blocks, 2u);
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(table.str(ids[i]).data(),
                table.str(ids[0]).data() + i * kLength);
    }
    const SymbolId next = table.Intern(last);
    EXPECT_EQ(table.stats().blocks, 3u);
    EXPECT_EQ(table.str(next), last);
    EXPECT_EQ(table.hash(next), std::hash<std::string>{}(last));
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(table.str(ids[i]), fill[i]);
    }
    const SymbolTableStats stats = table.stats();
    EXPECT_EQ(stats.symbols, fill.size());
    EXPECT_GE(stats.reserved_bytes, 2u * SymbolTable::kSlabBytes);
  }
}

TEST(SymbolTableTest, StringLongerThanASlabGetsContiguousBytes) {
  SymbolTable table;
  std::string exact(SymbolTable::kSlabBytes, 'e');
  std::string longer(2 * SymbolTable::kSlabBytes + 5, 'x');
  for (size_t i = 0; i < longer.size(); i += 97) {
    longer[i] = static_cast<char>('a' + i % 26);
  }
  const SymbolId before = table.Intern("before");
  const SymbolId exact_id = table.Intern(exact);
  const SymbolId long_id = table.Intern(longer);
  // Small strings interned after it in its shard still resolve.
  const std::vector<std::string> after =
      StringsInShard(ShardOf(longer), 100, 20, "after");
  std::vector<SymbolId> after_ids;
  for (const std::string& s : after) after_ids.push_back(table.Intern(s));

  EXPECT_EQ(table.str(before), "before");
  EXPECT_EQ(table.str(exact_id), exact);
  EXPECT_EQ(table.str(long_id), longer);
  EXPECT_EQ(table.hash(long_id), std::hash<std::string>{}(longer));
  EXPECT_EQ(table.Intern(longer), long_id);
  EXPECT_EQ(table.Find(longer), long_id);
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(table.str(after_ids[i]), after[i]);
  }
  const SymbolTableStats stats = table.stats();
  EXPECT_EQ(stats.bytes, 6 + exact.size() + longer.size() + 100 * 20);
  EXPECT_GE(stats.reserved_bytes, stats.bytes);
}

TEST(SymbolTableTest, FindOfUnseenStringLeavesStatsUnchanged) {
  SymbolTable table;
  const SymbolId id = table.Intern("seen");
  const SymbolTableStats before = table.stats();
  EXPECT_EQ(table.Find("never interned"), std::nullopt);
  EXPECT_EQ(table.Find("seen"), id);
  const SymbolTableStats after = table.stats();
  EXPECT_EQ(after.symbols, before.symbols);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.blocks, before.blocks);
  EXPECT_EQ(after.interns, before.interns);
  EXPECT_EQ(after.reserved_bytes, before.reserved_bytes);
  EXPECT_EQ(SymbolTable().Find(""), std::nullopt);  // an empty table
}

// Run under TSan (ci.sh leg 5) and ASan+UBSan (leg 6): concurrent
// interners racing on the same and different strings while readers
// resolve ids through str()/hash(). Sized so that every shard rolls over
// to a second slab and doubles its id table several times.
TEST(SymbolTableTest, ConcurrentInternAndLookup) {
  SymbolTable table;
  constexpr int kThreads = 8;
  constexpr int kStrings = 4000;
  const std::string pad(40, '.');
  auto make = [&pad](int t, int i) {
    // Half the keys are shared across threads (contended), half are
    // thread-private — covers both the hit and the miss-insert path.
    std::string s = (i % 2 == 0) ? std::string("shared")
                                 : std::to_string(t) + "_private";
    s += std::to_string(i);
    s += pad;
    return s;
  };
  std::array<uint64_t, kShards> shard_bytes{};
  std::array<uint64_t, kShards> shard_symbols{};
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kStrings; ++i) {
      if (i % 2 == 0 && t > 0) continue;  // count a shared key once
      const std::string s = make(t, i);
      shard_bytes[ShardOf(s)] += s.size();
      ++shard_symbols[ShardOf(s)];
    }
  }
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_GT(shard_bytes[s], SymbolTable::kSlabBytes) << "shard " << s;
    ASSERT_GT(shard_symbols[s], 512u) << "shard " << s;
  }

  std::vector<std::thread> threads;
  std::vector<std::vector<SymbolId>> ids(kThreads,
                                         std::vector<SymbolId>(kStrings));
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &ids, &make, t] {
      for (int i = 0; i < kStrings; ++i) {
        const std::string s = make(t, i);
        SymbolId id = table.Intern(s);
        ids[t][i] = id;
        // Read back through the wait-free path immediately.
        EXPECT_EQ(table.str(id), s);
        EXPECT_EQ(table.hash(id), std::hash<std::string>{}(s));
      }
    });
  }
  for (auto& th : threads) th.join();
  // Shared keys resolved to one id everywhere.
  for (int i = 0; i < kStrings; i += 2) {
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t][i], ids[0][i]);
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kStrings; ++i) {
      EXPECT_EQ(table.str(ids[t][i]), make(t, i));
    }
  }
  SymbolTableStats s = table.stats();
  // kStrings/2 shared + kThreads * kStrings/2 private distinct symbols.
  EXPECT_EQ(s.symbols, uint64_t(kStrings / 2 + kThreads * (kStrings / 2)));
  EXPECT_EQ(s.interns, uint64_t(kThreads) * kStrings);
  // Per shard: one entry block and at least two slabs.
  EXPECT_GE(s.blocks, 3u * kShards);
}

}  // namespace
}  // namespace precis
