#include "storage/columnar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/execution_context.h"
#include "common/flat_key_set.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace precis {
namespace {

// --- Column ---

TEST(ColumnTest, RoundTripsEveryTypeAndNull) {
  Column ints(DataType::kInt64);
  ints.Append(Value(int64_t{-7}));
  ints.Append(Value());
  ints.Append(Value(int64_t{42}));
  EXPECT_EQ(ints.GetValue(0), Value(int64_t{-7}));
  EXPECT_TRUE(ints.GetValue(1).is_null());
  EXPECT_TRUE(ints.IsNull(1));
  EXPECT_FALSE(ints.IsNull(2));
  EXPECT_EQ(ints.GetValue(2), Value(int64_t{42}));

  Column strs(DataType::kString);
  strs.Append(Value("Woody Allen"));
  strs.Append(Value(""));
  EXPECT_EQ(strs.GetValue(0).AsString(), "Woody Allen");
  EXPECT_EQ(strs.GetValue(1).AsString(), "");
}

TEST(ColumnTest, DoubleRoundTripIsBitExact) {
  Column col(DataType::kDouble);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  col.Append(Value(-0.0));
  col.Append(Value(nan));
  col.Append(Value(1.5));
  // -0.0 is stored as -0.0 (bit-exact), even though it *compares* equal
  // to +0.0 — canonicalization happens at index time, not storage time.
  EXPECT_TRUE(std::signbit(col.GetValue(0).AsDouble()));
  EXPECT_TRUE(std::isnan(col.GetValue(1).AsDouble()));
  EXPECT_EQ(col.GetValue(2), Value(1.5));
}

TEST(ColumnTest, NullBitmapSpansWords) {
  Column col(DataType::kInt64);
  for (int i = 0; i < 200; ++i) {
    col.Append(i % 3 == 0 ? Value() : Value(int64_t{i}));
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(col.IsNull(i), i % 3 == 0) << i;
  }
}

TEST(ColumnTest, CanonicalBitsNormalizesZeroAndDropsNaN) {
  const uint64_t pos_zero = std::bit_cast<uint64_t>(0.0);
  const uint64_t neg_zero = std::bit_cast<uint64_t>(-0.0);
  EXPECT_NE(pos_zero, neg_zero);
  EXPECT_EQ(Column::CanonicalBits(neg_zero, DataType::kDouble), pos_zero);
  EXPECT_EQ(Column::CanonicalBits(pos_zero, DataType::kDouble), pos_zero);
  const uint64_t nan_bits =
      std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(Column::CanonicalBits(nan_bits, DataType::kDouble).has_value());
  // Non-double payloads pass through untouched.
  EXPECT_EQ(Column::CanonicalBits(neg_zero, DataType::kInt64), neg_zero);
}

TEST(ColumnTest, KeyBitsRejectsNullCrossTypeAndNaN) {
  EXPECT_FALSE(Column::KeyBits(Value(), DataType::kInt64).has_value());
  EXPECT_FALSE(Column::KeyBits(Value("x"), DataType::kInt64).has_value());
  EXPECT_FALSE(Column::KeyBits(Value(int64_t{1}), DataType::kString).has_value());
  EXPECT_FALSE(
      Column::KeyBits(Value(std::numeric_limits<double>::quiet_NaN()),
                      DataType::kDouble)
          .has_value());
  // Matching keys canonicalize: -0.0 key hits +0.0 storage.
  EXPECT_EQ(Column::KeyBits(Value(-0.0), DataType::kDouble),
            Column::KeyBits(Value(0.0), DataType::kDouble));
  // Equal strings produce equal symbol bits.
  EXPECT_EQ(Column::KeyBits(Value("abc"), DataType::kString),
            Column::KeyBits(Value(std::string("abc")), DataType::kString));
}

// --- ColumnIndex ---

std::vector<Tid> ToVector(std::span<const Tid> tids) {
  return std::vector<Tid>(tids.begin(), tids.end());
}

TEST(ColumnIndexTest, InsertAndLookupWithGrowth) {
  ColumnIndex index(DataType::kInt64);
  // Enough keys to force several Grow() rehashes from the initial 16.
  for (int64_t k = 0; k < 500; ++k) {
    index.Insert(Value(k % 100), static_cast<Tid>(k));
  }
  for (int64_t k = 0; k < 100; ++k) {
    const std::vector<Tid> tids = ToVector(index.Lookup(Value(k)));
    ASSERT_EQ(tids.size(), 5u) << k;
    for (size_t i = 0; i < tids.size(); ++i) {
      EXPECT_EQ(tids[i], static_cast<Tid>(k + 100 * static_cast<int64_t>(i)));
    }
  }
  EXPECT_TRUE(index.Lookup(Value(int64_t{100})).empty());
  EXPECT_EQ(index.num_keys(), 100u);
}

TEST(ColumnIndexTest, NullKeysGetTheirOwnBucket) {
  ColumnIndex index(DataType::kString);
  index.Insert(Value("a"), 0);
  index.Insert(Value(), 1);
  index.Insert(Value(), 2);
  EXPECT_EQ(ToVector(index.Lookup(Value())), (std::vector<Tid>{1, 2}));
  EXPECT_EQ(ToVector(index.Lookup(Value("a"))), (std::vector<Tid>{0}));
  EXPECT_EQ(index.num_keys(), 2u);
}

TEST(ColumnIndexTest, NaNIsUnmatchable) {
  ColumnIndex index(DataType::kDouble);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  index.Insert(Value(nan), 0);
  index.Insert(Value(1.0), 1);
  EXPECT_TRUE(index.Lookup(Value(nan)).empty());
  EXPECT_EQ(ToVector(index.Lookup(Value(1.0))), (std::vector<Tid>{1}));
}

TEST(ColumnIndexTest, SignedZerosShareAPosting) {
  ColumnIndex index(DataType::kDouble);
  index.Insert(Value(0.0), 0);
  index.Insert(Value(-0.0), 1);
  EXPECT_EQ(ToVector(index.Lookup(Value(0.0))), (std::vector<Tid>{0, 1}));
  EXPECT_EQ(ToVector(index.Lookup(Value(-0.0))), (std::vector<Tid>{0, 1}));
}

TEST(ColumnIndexTest, CrossTypeLookupIsEmpty) {
  ColumnIndex index(DataType::kInt64);
  index.Insert(Value(int64_t{7}), 0);
  EXPECT_TRUE(index.Lookup(Value(7.0)).empty());
  EXPECT_TRUE(index.Lookup(Value("7")).empty());
}

// --- ColumnIndex against a scan ---
//
// Relation::LookupEquals through an index must return what a scan of an
// unindexed copy of the same rows returns, for every distinct value and
// for an absent value, NULL, NaN, both zeros and cross-type keys: first
// over the bulk-built index, then every 50 inserts of a seeded
// interleaving that adds new keys, grows built runs, NULLs and NaNs.

RelationSchema DifferentialSchema() {
  return RelationSchema("D", {{"count", DataType::kInt64},
                              {"score", DataType::kDouble},
                              {"label", DataType::kString}});
}

/// A seeded row: ints from a small range (heavy repeats), doubles with
/// signed zeros, NaN and NULL, strings with NULL. Every `fresh_every`-th
/// cell of a column draws a value no earlier row can hold (`fresh`).
Tuple DifferentialRow(std::mt19937_64* rng, int64_t fresh,
                      uint64_t fresh_every) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto pick = [&] { return (*rng)() % 8; };
  Tuple row;
  if ((*rng)() % fresh_every == 0) {
    row.push_back(Value(1000 + fresh));
  } else {
    row.push_back(pick() == 0 ? Value() : Value(int64_t((*rng)() % 40)));
  }
  if ((*rng)() % fresh_every == 0) {
    row.push_back(Value(1000.5 + double(fresh)));
  } else {
    static const double kScores[] = {0.0, -0.0, 1.5, -2.25, 1e300};
    const uint64_t p = pick();
    row.push_back(p == 0   ? Value()
                  : p == 1 ? Value(nan)
                           : Value(kScores[(*rng)() % 5]));
  }
  if ((*rng)() % fresh_every == 0) {
    row.push_back(Value("fresh" + std::to_string(fresh)));
  } else {
    row.push_back(pick() == 0 ? Value()
                              : Value("s" + std::to_string((*rng)() % 30)));
  }
  return row;
}

/// Checks every probe key of every attribute: the indexed relation's
/// tids equal the scan's and ascend strictly.
void ExpectIndexMatchesScan(const Relation& indexed, const Relation& scanned) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NULL, NaN, both zeros, absent values of each type, and keys that are
  // cross-type for two of the three columns.
  const std::vector<Value> extra = {
      Value(),      Value(nan),          Value(0.0),
      Value(-0.0),  Value(int64_t{-7}),  Value(int64_t{0}),
      Value(-99.5), Value("absent"),     Value("s3"),
      Value(7.0),   Value(int64_t{1000})};
  for (size_t a = 0; a < indexed.schema().num_attributes(); ++a) {
    const std::string& attr = indexed.schema().attribute(a).name;
    ASSERT_TRUE(indexed.HasIndex(attr));
    ASSERT_FALSE(scanned.HasIndex(attr));
    auto keys = scanned.DistinctValues(attr);
    ASSERT_TRUE(keys.ok());
    keys->insert(keys->end(), extra.begin(), extra.end());
    for (const Value& key : *keys) {
      auto probe = indexed.LookupEquals(attr, key);
      auto scan = scanned.LookupEquals(attr, key);
      ASSERT_TRUE(probe.ok());
      ASSERT_TRUE(scan.ok());
      ASSERT_EQ(*probe, *scan) << attr << " = " << key.ToString();
      EXPECT_TRUE(std::adjacent_find(probe->begin(), probe->end(),
                                     std::greater_equal<Tid>()) ==
                  probe->end())
          << attr << " = " << key.ToString();
    }
  }
}

TEST(ColumnIndexDifferentialTest, BuiltIndexAndLaterInsertsMatchAScan) {
  for (uint32_t seed : {1u, 7u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Relation indexed(DifferentialSchema());
    Relation scanned(DifferentialSchema());
    int64_t fresh = 0;
    for (int i = 0; i < 600; ++i) {
      const Tuple row = DifferentialRow(&rng, fresh++, 25);
      ASSERT_TRUE(indexed.Insert(row).ok());
      ASSERT_TRUE(scanned.Insert(row).ok());
    }
    for (size_t a = 0; a < indexed.schema().num_attributes(); ++a) {
      ASSERT_TRUE(indexed.CreateIndex(indexed.schema().attribute(a).name).ok());
    }
    ExpectIndexMatchesScan(indexed, scanned);
    if (HasFatalFailure()) return;
    for (int i = 1; i <= 1000; ++i) {
      const Tuple row = DifferentialRow(&rng, fresh++, 5);
      ASSERT_TRUE(indexed.Insert(row).ok());
      ASSERT_TRUE(scanned.Insert(row).ok());
      if (i % 50 == 0) {
        SCOPED_TRACE("after " + std::to_string(i) + " inserts");
        ExpectIndexMatchesScan(indexed, scanned);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// --- FlatKeySet ---

TEST(FlatKeySetTest, InsertReportsNewKeysAndContainsFindsThem) {
  FlatKeySet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(0));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_TRUE(set.Insert(42));
  EXPECT_FALSE(set.Insert(0));
  EXPECT_FALSE(set.Insert(42));
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(42));
  EXPECT_FALSE(set.Contains(7));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatKeySetTest, EmptySlotKeyIsAnOrdinaryKey) {
  // ~0 marks empty slots inside the table; as a key it lives in a flag.
  constexpr uint64_t kAllOnes = ~uint64_t{0};
  FlatKeySet set;
  EXPECT_FALSE(set.Contains(kAllOnes));
  EXPECT_TRUE(set.Insert(kAllOnes));
  EXPECT_FALSE(set.Insert(kAllOnes));
  EXPECT_TRUE(set.Contains(kAllOnes));
  EXPECT_EQ(set.size(), 1u);
  // Neighbours of the sentinel are stored in the table, not the flag.
  EXPECT_FALSE(set.Contains(kAllOnes - 1));
  EXPECT_TRUE(set.Insert(kAllOnes - 1));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_EQ(set.size(), 3u);
  for (uint64_t k = 1; k < 1000; ++k) set.Insert(k);  // rehashes
  EXPECT_TRUE(set.Contains(kAllOnes));
  EXPECT_TRUE(set.Contains(kAllOnes - 1));
  EXPECT_EQ(set.size(), 1002u);
}

TEST(FlatKeySetTest, KeysSurviveSeveralRehashes) {
  FlatKeySet set;
  // From the 16-slot minimum at load 1/2, 5000 keys take ~9 doublings.
  for (uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(set.Insert(k * 0x10001)) << k;
    ASSERT_EQ(set.size(), k + 1);
  }
  for (uint64_t k = 0; k < 5000; ++k) {
    EXPECT_TRUE(set.Contains(k * 0x10001)) << k;
    EXPECT_FALSE(set.Insert(k * 0x10001)) << k;
    EXPECT_FALSE(set.Contains(k * 0x10001 + 1)) << k;
  }
  EXPECT_EQ(set.size(), 5000u);
}

TEST(FlatKeySetTest, ReserveKeepsKeysAndMembership) {
  FlatKeySet set;
  set.Reserve(0);
  EXPECT_FALSE(set.Contains(3));
  for (uint64_t k = 0; k < 10; ++k) set.Insert(k);
  set.Reserve(3000);  // grows a populated table
  set.Reserve(5);     // never shrinks
  for (uint64_t k = 0; k < 10; ++k) EXPECT_TRUE(set.Contains(k)) << k;
  for (uint64_t k = 10; k < 3000; ++k) EXPECT_TRUE(set.Insert(k)) << k;
  EXPECT_EQ(set.size(), 3000u);
  EXPECT_FALSE(set.Contains(3000));
}

TEST(FlatKeySetTest, MatchesUnorderedSetOnSeededRandomKeys) {
  for (uint32_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    // Keys from a small range collide often; full-width keys (the sentinel
    // included) exercise the whole bit range.
    std::uniform_int_distribution<uint64_t> narrow(0, 4095);
    FlatKeySet set;
    std::unordered_set<uint64_t> expect;
    for (int op = 0; op < 20000; ++op) {
      uint64_t key = (op % 3 == 0) ? rng() : narrow(rng);
      if (op % 997 == 0) key = ~uint64_t{0};
      if (rng() % 2 == 0) {
        ASSERT_EQ(set.Insert(key), expect.insert(key).second) << key;
      } else {
        ASSERT_EQ(set.Contains(key), expect.count(key) > 0) << key;
      }
      ASSERT_EQ(set.size(), expect.size());
    }
  }
}

// --- FlatKeySet layouts against std::unordered_set ---
//
// Each stream inserts its keys one by one, checking every Insert's answer
// and the size against an unordered_set, then probes every key, its
// neighbours and the extremes. The streams drive the set through both
// layouts and the switches between them.

constexpr uint64_t kAllOnes = ~uint64_t{0};

uint64_t Bits(int64_t v) { return static_cast<uint64_t>(v); }

void ExpectSameMembers(const FlatKeySet& set,
                       const std::unordered_set<uint64_t>& expect,
                       const std::vector<uint64_t>& keys) {
  ASSERT_EQ(set.size(), expect.size());
  std::vector<uint64_t> probes = {0,
                                  1,
                                  kAllOnes,
                                  kAllOnes - 1,
                                  Bits(std::numeric_limits<int64_t>::min()),
                                  Bits(std::numeric_limits<int64_t>::max())};
  for (uint64_t key : keys) {
    probes.push_back(key);
    probes.push_back(key - 1);
    probes.push_back(key + 1);
    probes.push_back(key + 64);
    probes.push_back(key - 64);
  }
  for (uint64_t key : probes) {
    ASSERT_EQ(set.Contains(key), expect.count(key) > 0)
        << key << " (bitmap=" << set.bitmap() << ")";
  }
}

/// Inserts `keys` into both sets, checking each answer as it goes.
void InsertStream(FlatKeySet* set, std::unordered_set<uint64_t>* expect,
                  const std::vector<uint64_t>& keys) {
  for (uint64_t key : keys) {
    ASSERT_EQ(set->Insert(key), expect->insert(key).second)
        << key << " (bitmap=" << set->bitmap() << ")";
    ASSERT_EQ(set->size(), expect->size());
  }
}

std::vector<uint64_t> Range(int64_t from, int64_t count, int64_t stride = 1) {
  std::vector<uint64_t> keys;
  for (int64_t i = 0; i < count; ++i) keys.push_back(Bits(from + i * stride));
  return keys;
}

TEST(FlatKeySetTest, DenseAscendingKeysBecomeABitmap) {
  FlatKeySet set;
  std::unordered_set<uint64_t> expect;
  const std::vector<uint64_t> keys = Range(1000, 20000);
  InsertStream(&set, &expect, keys);
  ExpectSameMembers(set, expect, keys);
  EXPECT_TRUE(set.bitmap());
  // 20,000 keys in about a bit each, where the hash table takes 32,768
  // 8-byte slots.
  EXPECT_LE(set.bytes(), 2 * 20000 / 8 + 64);
  InsertStream(&set, &expect, keys);  // every repeat is refused
  ExpectSameMembers(set, expect, keys);
}

TEST(FlatKeySetTest, DenseShuffledAndDescendingKeysMatch) {
  for (uint32_t seed : {1u, 7u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::vector<uint64_t> keys = Range(-5000, 12000);
    std::shuffle(keys.begin(), keys.end(), std::mt19937_64(seed));
    FlatKeySet set;
    std::unordered_set<uint64_t> expect;
    InsertStream(&set, &expect, keys);
    ExpectSameMembers(set, expect, keys);
    EXPECT_TRUE(set.bitmap());
  }
  // Descending keys grow the window downward.
  std::vector<uint64_t> keys = Range(100000, 9000, -1);
  FlatKeySet set;
  std::unordered_set<uint64_t> expect;
  InsertStream(&set, &expect, keys);
  ExpectSameMembers(set, expect, keys);
  EXPECT_TRUE(set.bitmap());
  EXPECT_LE(set.bytes(), 2 * 9000 / 8 + 64);
}

TEST(FlatKeySetTest, SparseKeysStayHashed) {
  FlatKeySet set;
  std::unordered_set<uint64_t> expect;
  const std::vector<uint64_t> keys = Range(7, 5000, 1000003);
  InsertStream(&set, &expect, keys);
  ExpectSameMembers(set, expect, keys);
  EXPECT_FALSE(set.bitmap());
  EXPECT_EQ(set.bytes(), FlatKeySet::HashSlots(5000) * sizeof(uint64_t));
}

TEST(FlatKeySetTest, DenseThenSparseThenDenseAgain) {
  FlatKeySet set;
  std::unordered_set<uint64_t> expect;
  std::vector<uint64_t> all;
  auto stream = [&](const std::vector<uint64_t>& keys) {
    InsertStream(&set, &expect, keys);
    all.insert(all.end(), keys.begin(), keys.end());
    ExpectSameMembers(set, expect, all);
  };
  stream(Range(0, 3000));
  if (HasFatalFailure()) return;
  EXPECT_TRUE(set.bitmap());
  // A few far keys do not outweigh 3,000 dense ones: the window stretches
  // as long as it stays no larger than the hash table.
  stream(Range(200000, 3, 100000));
  if (HasFatalFailure()) return;
  EXPECT_TRUE(set.bitmap());
  // Scattered keys over the whole 64-bit range switch it to the hash table.
  std::mt19937_64 rng(42);
  std::vector<uint64_t> scattered;
  for (int i = 0; i < 2000; ++i) scattered.push_back(rng());
  stream(scattered);
  if (HasFatalFailure()) return;
  EXPECT_FALSE(set.bitmap());
  // More dense keys never bring the bitmap back while the scattered ones
  // span the range; they grow the hash table and stay members.
  stream(Range(-40000, 40000));
  if (HasFatalFailure()) return;
  EXPECT_FALSE(set.bitmap());
}

TEST(FlatKeySetTest, HashedKeysTurnIntoABitmapWhenTheTableGrows) {
  // Keys 0, 64, 128, ... take a word each: denser than the hash table's
  // two to four slots a key, so its first growth picks the bitmap.
  FlatKeySet set;
  std::unordered_set<uint64_t> expect;
  set.Reserve(100);  // a hash table for 100 keys, before any key
  EXPECT_FALSE(set.bitmap());
  std::vector<uint64_t> keys = Range(0, 100, 64);
  InsertStream(&set, &expect, keys);
  ExpectSameMembers(set, expect, keys);
  EXPECT_FALSE(set.bitmap());  // within the reservation: no growth yet
  const std::vector<uint64_t> more = Range(6400, 200, 64);
  InsertStream(&set, &expect, more);
  keys.insert(keys.end(), more.begin(), more.end());
  ExpectSameMembers(set, expect, keys);
  EXPECT_TRUE(set.bitmap());
  // Reserve after the switch keeps the bitmap and every key.
  const size_t bytes = set.bytes();
  set.Reserve(100000);
  EXPECT_TRUE(set.bitmap());
  EXPECT_EQ(set.bytes(), bytes);
  ExpectSameMembers(set, expect, keys);
  // Keys inside the window still insert without growth.
  const std::vector<uint64_t> inside = Range(1, 300, 64);
  InsertStream(&set, &expect, inside);
  keys.insert(keys.end(), inside.begin(), inside.end());
  ExpectSameMembers(set, expect, keys);
  EXPECT_EQ(set.bytes(), bytes);
}

TEST(FlatKeySetTest, KeysStraddlingZeroAreDense) {
  // -3 .. 3 as signed numbers sit next to each other, though their bit
  // patterns are the two ends of the unsigned range.
  FlatKeySet set;
  std::unordered_set<uint64_t> expect;
  std::vector<uint64_t> keys;
  for (int64_t i = 0; i < 4000; ++i) {
    keys.push_back(Bits(i % 2 == 0 ? i / 2 : -(i / 2) - 1));
  }
  InsertStream(&set, &expect, keys);
  ExpectSameMembers(set, expect, keys);
  EXPECT_TRUE(set.bitmap());
  EXPECT_TRUE(set.Contains(kAllOnes));  // -1 is a bit like any other
}

TEST(FlatKeySetTest, ExtremeKeysAndTheAllOnesKey) {
  const uint64_t min = Bits(std::numeric_limits<int64_t>::min());
  const uint64_t max = Bits(std::numeric_limits<int64_t>::max());
  // The extremes next to dense keys: the range spans all 64 bits, so the
  // set hashes, with the all-ones key in its flag.
  FlatKeySet set;
  std::unordered_set<uint64_t> expect;
  std::vector<uint64_t> keys = Range(-20, 40);
  keys.push_back(min);
  keys.push_back(max);
  keys.push_back(min + 1);
  keys.push_back(max - 1);
  InsertStream(&set, &expect, keys);
  ExpectSameMembers(set, expect, keys);
  EXPECT_FALSE(set.bitmap());
  // Each extreme alone with its neighbours is dense: a bitmap at the
  // bottom and at the top of the signed range, no overflow at either end.
  for (uint64_t edge : {min, max}) {
    SCOPED_TRACE("edge=" + std::to_string(edge));
    FlatKeySet dense;
    std::unordered_set<uint64_t> dense_expect;
    std::vector<uint64_t> near;
    for (uint64_t i = 0; i < 500; ++i) {
      near.push_back(edge == min ? edge + i : edge - i);
    }
    InsertStream(&dense, &dense_expect, near);
    ExpectSameMembers(dense, dense_expect, near);
    EXPECT_TRUE(dense.bitmap());
  }
  // The all-ones key first, alone, then beside dense keys and far ones.
  FlatKeySet ones;
  std::unordered_set<uint64_t> ones_expect;
  std::vector<uint64_t> stream = {kAllOnes, kAllOnes, 0, 5, kAllOnes - 1};
  InsertStream(&ones, &ones_expect, stream);
  ExpectSameMembers(ones, ones_expect, stream);
  const std::vector<uint64_t> dense = Range(-500, 1000);
  InsertStream(&ones, &ones_expect, dense);
  stream.insert(stream.end(), dense.begin(), dense.end());
  ExpectSameMembers(ones, ones_expect, stream);
  EXPECT_TRUE(ones.bitmap());
  const std::vector<uint64_t> far = Range(1LL << 40, 3000, 1LL << 20);
  InsertStream(&ones, &ones_expect, far);
  stream.insert(stream.end(), far.begin(), far.end());
  ExpectSameMembers(ones, ones_expect, stream);
  EXPECT_FALSE(ones.bitmap());
  EXPECT_TRUE(ones.Contains(kAllOnes));
}

// --- ColumnIndex layouts against a column scan ---
//
// A ColumnIndex built from a column and then given the same appends as the
// column must return, for every key, the tids a scan of the column
// returns: through Lookup and through LookupBatch. A dense-key column
// takes the direct layout and a sparse one the slot table; inserts inside
// the range grow owned runs, and inserts outside it make the index choose
// its layout again.

/// What a scan of `column` returns for `key` (NULL matches NULL).
std::vector<Tid> ScanColumn(const Column& column, const Value& key) {
  std::vector<Tid> out;
  if (key.is_null()) {
    for (Tid t = 0; t < column.size(); ++t) {
      if (column.IsNull(t)) out.push_back(t);
    }
  } else if (auto bits = Column::KeyBits(key, column.type())) {
    column.ScanEqualsScalar(*bits, &out);
  }
  return out;
}

void ExpectIndexMatchesColumn(const ColumnIndex& index, const Column& column,
                              std::vector<Value> keys) {
  for (Tid t = 0; t < column.size(); ++t) keys.push_back(column.GetValue(t));
  keys.push_back(Value());
  keys.push_back(Value(std::numeric_limits<double>::quiet_NaN()));
  keys.push_back(Value(0.0));
  keys.push_back(Value(-0.0));
  keys.push_back(Value("cross-type"));
  std::vector<std::span<const Tid>> batched(keys.size());
  index.LookupBatch(keys.data(), keys.size(), batched.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::vector<Tid> scan = ScanColumn(column, keys[i]);
    ASSERT_EQ(ToVector(index.Lookup(keys[i])), scan)
        << keys[i].ToString() << " (direct=" << index.direct() << ")";
    ASSERT_EQ(ToVector(batched[i]), scan) << keys[i].ToString();
  }
}

/// Appends `key` to both the column and the index, as Relation::Insert does.
void Append(Column* column, ColumnIndex* index, const Value& key) {
  index->Insert(key, column->size());
  column->Append(key);
}

TEST(ColumnIndexDifferentialTest, DenseKeysAreDirectAndChooseAgainOutside) {
  // int64 keys 100..399, each twice or three times, with NULLs; doubles
  // whose bit patterns are 1..300 (the subnormals next to +0.0), with
  // signed zeros and NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Column ints(DataType::kInt64);
  Column doubles(DataType::kDouble);
  for (int64_t i = 0; i < 900; ++i) {
    ints.Append(i % 17 == 0 ? Value() : Value(int64_t{100 + i % 300}));
    const uint64_t sub = static_cast<uint64_t>(1 + i % 300);
    doubles.Append(i % 13 == 0   ? Value()
                   : i % 11 == 0 ? Value(nan)
                   : i % 7 == 0  ? Value(i % 2 == 0 ? 0.0 : -0.0)
                                 : Value(std::bit_cast<double>(sub)));
  }
  auto int_index = ColumnIndex::Build(ints);
  auto double_index = ColumnIndex::Build(doubles);
  ASSERT_TRUE(int_index.ok());
  ASSERT_TRUE(double_index.ok());
  EXPECT_TRUE(int_index->direct());
  EXPECT_TRUE(double_index->direct());
  EXPECT_EQ(int_index->entry_bytes(), 300 * 8u);
  const std::vector<Value> absent = {Value(int64_t{99}), Value(int64_t{400}),
                                     Value(int64_t{-1}), Value(1e300)};
  ExpectIndexMatchesColumn(*int_index, ints, absent);
  ExpectIndexMatchesColumn(*double_index, doubles, absent);
  if (HasFatalFailure()) return;

  // Inside the range: built runs move out and grow, NULLs and NaN append.
  for (int64_t i = 0; i < 200; ++i) {
    Append(&ints, &*int_index, i % 9 == 0 ? Value() : Value(int64_t{150 + i}));
    Append(&doubles, &*double_index,
           i % 9 == 0   ? Value(nan)
           : i % 5 == 0 ? Value(-0.0)
                        : Value(std::bit_cast<double>(uint64_t{1} + i)));
  }
  EXPECT_TRUE(int_index->direct());
  EXPECT_GT(int_index->owned_bytes(), 0u);
  ExpectIndexMatchesColumn(*int_index, ints, absent);
  ExpectIndexMatchesColumn(*double_index, doubles, absent);
  if (HasFatalFailure()) return;

  // Just outside: the window grows and stays direct, below and above.
  for (int64_t k : {99, 98, 400, 401, 64, 700}) {
    Append(&ints, &*int_index, Value(k));
  }
  EXPECT_TRUE(int_index->direct());
  ExpectIndexMatchesColumn(*int_index, ints, absent);
  if (HasFatalFailure()) return;

  // Far outside: the range outgrows the slot table, so it hashes; a double
  // far from the subnormals does the same.
  Append(&ints, &*int_index, Value(int64_t{1} << 40));
  Append(&ints, &*int_index, Value(std::numeric_limits<int64_t>::min()));
  Append(&doubles, &*double_index, Value(1e300));
  EXPECT_FALSE(int_index->direct());
  EXPECT_FALSE(double_index->direct());
  ExpectIndexMatchesColumn(*int_index, ints, absent);
  ExpectIndexMatchesColumn(*double_index, doubles, absent);
}

TEST(ColumnIndexDifferentialTest, SparseKeysAreHashedAndChooseAgainOutside) {
  // Keys 1,000,003 apart, and doubles spread over their bit range.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr int64_t kStride = 1000003;
  Column ints(DataType::kInt64);
  Column doubles(DataType::kDouble);
  for (int64_t i = 0; i < 900; ++i) {
    ints.Append(i % 17 == 0 ? Value() : Value((i % 300) * kStride - 5));
    doubles.Append(i % 13 == 0   ? Value()
                   : i % 11 == 0 ? Value(nan)
                   : i % 7 == 0  ? Value(i % 2 == 0 ? 0.0 : -0.0)
                                 : Value(1.5 * double(i % 300) - 200.25));
  }
  auto int_index = ColumnIndex::Build(ints);
  auto double_index = ColumnIndex::Build(doubles);
  ASSERT_TRUE(int_index.ok());
  ASSERT_TRUE(double_index.ok());
  EXPECT_FALSE(int_index->direct());
  EXPECT_FALSE(double_index->direct());
  EXPECT_EQ(int_index->entry_bytes(),
            ColumnIndex::SlotCapacity(300) * 16u);
  const std::vector<Value> absent = {Value(int64_t{0}), Value(kStride),
                                     Value(-200.0), Value(1e300)};
  ExpectIndexMatchesColumn(*int_index, ints, absent);
  ExpectIndexMatchesColumn(*double_index, doubles, absent);
  if (HasFatalFailure()) return;

  // Inside the range: repeats own their runs, new keys between old ones.
  for (int64_t i = 0; i < 200; ++i) {
    Append(&ints, &*int_index,
           i % 9 == 0   ? Value()
           : i % 2 == 0 ? Value((i % 300) * kStride - 5)
                        : Value((i % 299) * kStride + 7));
    Append(&doubles, &*double_index,
           i % 9 == 0   ? Value(nan)
           : i % 5 == 0 ? Value(0.0)
                        : Value(1.5 * double(i) - 200.25));
  }
  EXPECT_GT(int_index->owned_bytes(), 0u);
  ExpectIndexMatchesColumn(*int_index, ints, absent);
  ExpectIndexMatchesColumn(*double_index, doubles, absent);
  if (HasFatalFailure()) return;

  // Outside the range: the slot table grows and stays hashed.
  for (int64_t i = 0; i < 300; ++i) {
    Append(&ints, &*int_index, Value((1000 + i) * kStride));
    Append(&ints, &*int_index, Value(-(1000 + i) * kStride));
  }
  EXPECT_FALSE(int_index->direct());
  ExpectIndexMatchesColumn(*int_index, ints, absent);
}

// --- Relation reads vs the inserted rows ---
//
// The columns are a relation's only copy of its tuples, so every read
// (ProjectRows, ColumnValue, Get, tuple) is checked against the rows the
// fixture inserted, not against another read of the same columns.

struct KernelFixture {
  Relation rel;
  std::vector<Tuple> rows;  // as inserted, in tid order
};

KernelFixture MakeFixture() {
  RelationSchema schema("T", {{"id", DataType::kInt64},
                              {"name", DataType::kString},
                              {"score", DataType::kDouble}});
  EXPECT_TRUE(schema.SetPrimaryKey("id").ok());
  KernelFixture f{Relation(schema), {}};
  for (int64_t i = 0; i < 97; ++i) {
    Tuple t;
    t.push_back(Value(i));
    t.push_back(i % 7 == 0 ? Value() : Value("name" + std::to_string(i % 13)));
    t.push_back(i % 5 == 0 ? Value(-0.0) : Value(i * 0.25));
    EXPECT_TRUE(f.rel.Insert(t).ok());
    f.rows.push_back(std::move(t));
  }
  return f;
}

/// Value equality, except that doubles compare bit for bit: a -0.0 read
/// back as +0.0 fails.
bool SameBits(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double()) {
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  }
  return a == b;
}

TEST(RelationKernelTest, ProjectRowsMatchesRowPathAndChargesBulk) {
  KernelFixture f = MakeFixture();
  std::vector<Tid> tids;
  for (Tid t = 0; t < f.rel.num_tuples(); t += 3) tids.push_back(t);
  const std::vector<size_t> projection = {2, 0};  // out of order on purpose

  ExecutionContext ctx;
  std::vector<Value> out(tids.size() * projection.size());
  f.rel.ProjectRows(tids.data(), tids.size(), projection, out.data(), &ctx);

  for (size_t i = 0; i < tids.size(); ++i) {
    const Tuple& row = f.rows[tids[i]];
    EXPECT_TRUE(SameBits(out[i * 2 + 0], row[2])) << tids[i];
    EXPECT_TRUE(SameBits(out[i * 2 + 1], row[0])) << tids[i];
  }
  // Bulk charge equivalence: exactly one fetch per projected row.
  EXPECT_EQ(ctx.stats().tuple_fetches.load(), tids.size());
}

TEST(RelationKernelTest, ProjectRowsIdentityMatchesInsertedRows) {
  KernelFixture f = MakeFixture();
  std::vector<Tid> tids = f.rel.AllTids();
  const std::vector<size_t> identity = {0, 1, 2};
  const size_t width = identity.size();
  std::vector<Value> out(tids.size() * width);
  f.rel.ProjectRows(tids.data(), tids.size(), identity, out.data());
  for (size_t i = 0; i < tids.size(); ++i) {
    for (size_t j = 0; j < width; ++j) {
      EXPECT_TRUE(SameBits(out[i * width + j], f.rows[i][j]))
          << "tid=" << i << " attr=" << j;
    }
  }
}

TEST(RelationKernelTest, ColumnValueMatchesTupleCells) {
  KernelFixture f = MakeFixture();
  for (Tid t = 0; t < f.rel.num_tuples(); ++t) {
    for (size_t a = 0; a < f.rows[t].size(); ++a) {
      EXPECT_TRUE(SameBits(f.rel.ColumnValue(t, a), f.rows[t][a]))
          << "tid=" << t << " attr=" << a;
    }
  }
}

TEST(RelationKernelTest, GetAndTupleMaterializeInsertedRows) {
  KernelFixture f = MakeFixture();
  ExecutionContext ctx;
  for (Tid t = 0; t < f.rel.num_tuples(); ++t) {
    auto got = f.rel.Get(t, &ctx);
    ASSERT_TRUE(got.ok());
    const Tuple row = f.rel.tuple(t);
    ASSERT_EQ(got->size(), f.rows[t].size());
    ASSERT_EQ(row.size(), f.rows[t].size());
    for (size_t a = 0; a < f.rows[t].size(); ++a) {
      EXPECT_TRUE(SameBits((*got)[a], f.rows[t][a]))
          << "tid=" << t << " attr=" << a;
      EXPECT_TRUE(SameBits(row[a], f.rows[t][a]))
          << "tid=" << t << " attr=" << a;
    }
  }
  EXPECT_TRUE(std::signbit(f.rel.tuple(0)[2].AsDouble()));  // -0.0 kept
  // One charged fetch per Get; tuple() is uncharged.
  EXPECT_EQ(ctx.stats().tuple_fetches.load(), f.rel.num_tuples());
  EXPECT_TRUE(f.rel.Get(f.rel.num_tuples(), &ctx).status().IsOutOfRange());
  EXPECT_EQ(ctx.stats().tuple_fetches.load(), f.rel.num_tuples());
}

TEST(RelationKernelTest, LookupEqualsIndexedAndScanAgree) {
  Relation rel = MakeFixture().rel;
  // Scan path first (no index), then indexed path; results must agree.
  auto scan = rel.LookupEquals("name", Value("name3"));
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(rel.CreateIndex("name").ok());
  auto indexed = rel.LookupEquals("name", Value("name3"));
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(*scan, *indexed);
  EXPECT_FALSE(scan->empty());

  // NULL key: rows whose name is NULL (every 7th).
  auto nulls_scan = rel.LookupEquals("score", Value());
  ASSERT_TRUE(nulls_scan.ok());
  EXPECT_TRUE(nulls_scan->empty());  // score column has no NULLs
  auto name_nulls = rel.LookupEquals("name", Value());
  ASSERT_TRUE(name_nulls.ok());
  EXPECT_EQ(name_nulls->size(), (97 + 6) / 7u);

  // Signed zero through the indexed double path.
  ASSERT_TRUE(rel.CreateIndex("score").ok());
  auto zeros = rel.LookupEquals("score", Value(0.0));
  ASSERT_TRUE(zeros.ok());
  EXPECT_EQ(zeros->size(), 20u);  // the -0.0 rows: i % 5 == 0 for i in [0, 97)
}

}  // namespace
}  // namespace precis
