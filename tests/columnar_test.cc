#include "storage/columnar.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/execution_context.h"
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

TEST(ColumnIndexTest, InsertAndLookupWithGrowth) {
  ColumnIndex index(DataType::kInt64);
  // Enough keys to force several Grow() rehashes from the initial 16.
  for (int64_t k = 0; k < 500; ++k) {
    index.Insert(Value(k % 100), static_cast<Tid>(k));
  }
  for (int64_t k = 0; k < 100; ++k) {
    const std::vector<Tid>& tids = index.Lookup(Value(k));
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
  EXPECT_EQ(index.Lookup(Value()), (std::vector<Tid>{1, 2}));
  EXPECT_EQ(index.Lookup(Value("a")), (std::vector<Tid>{0}));
  EXPECT_EQ(index.num_keys(), 2u);
}

TEST(ColumnIndexTest, NaNIsUnmatchable) {
  ColumnIndex index(DataType::kDouble);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  index.Insert(Value(nan), 0);
  index.Insert(Value(1.0), 1);
  EXPECT_TRUE(index.Lookup(Value(nan)).empty());
  EXPECT_EQ(index.Lookup(Value(1.0)), (std::vector<Tid>{1}));
}

TEST(ColumnIndexTest, SignedZerosShareAPosting) {
  ColumnIndex index(DataType::kDouble);
  index.Insert(Value(0.0), 0);
  index.Insert(Value(-0.0), 1);
  EXPECT_EQ(index.Lookup(Value(0.0)), (std::vector<Tid>{0, 1}));
  EXPECT_EQ(index.Lookup(Value(-0.0)), (std::vector<Tid>{0, 1}));
}

TEST(ColumnIndexTest, CrossTypeLookupIsEmpty) {
  ColumnIndex index(DataType::kInt64);
  index.Insert(Value(int64_t{7}), 0);
  EXPECT_TRUE(index.Lookup(Value(7.0)).empty());
  EXPECT_TRUE(index.Lookup(Value("7")).empty());
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
