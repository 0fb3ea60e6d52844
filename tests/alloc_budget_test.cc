// Allocation budgets (DESIGN.md §13): a cold result-database generation —
// the Fig. 5 planner and its FK checks — allocates per query, relation
// and edge, never per accepted tuple; an index build
// allocates per index, never per distinct key; a primary-key set
// allocates per doubling of its table, never per key; and the symbol
// table allocates per slab, entry block and id-table doubling, never per
// symbol.
//
// This executable replaces global operator new with one that counts the
// calling thread's allocations. An inline Generate (parallelism 1, no
// pool) runs every task on the calling thread, so the count covers the
// whole generation. It is not built under PRECIS_SANITIZE, whose runtimes
// bring their own allocator.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/flat_key_set.h"
#include "common/symbol_table.h"
#include "datagen/movies_dataset.h"
#include "precis/constraints.h"
#include "precis/database_generator.h"
#include "precis/schema_generator.h"
#include "storage/relation.h"

namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace precis {
namespace {

struct Census {
  uint64_t allocations = 0;
  size_t tuples = 0;
};

class AllocBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MoviesConfig config;
    config.num_movies = 6000;
    auto ds = MoviesDataset::Create(config);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<MoviesDataset>(std::move(*ds));

    // A GENRE token: the heavy tail of the cold serving mix.
    auto genre = dataset_->db().GetRelation("GENRE");
    ASSERT_TRUE(genre.ok());
    auto comedy = (*genre)->LookupEquals("genre", Value("Comedy"));
    ASSERT_TRUE(comedy.ok());
    seeds_[*dataset_->graph().RelationId("GENRE")] = *comedy;

    ResultSchemaGenerator schema_gen(&dataset_->graph());
    auto schema =
        schema_gen.Generate({std::string("GENRE")}, *MinPathWeight(0.5));
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<ResultSchema>(std::move(*schema));
  }

  /// Allocations made by one inline Generate at `c` tuples per relation.
  Census Run(size_t c) {
    ResultDatabaseGenerator gen(&dataset_->db());
    auto cardinality = MaxTuplesPerRelation(c);
    ExecutionContext ctx;
    const DbGenOptions options;  // parallelism 1: every task inline
    const uint64_t before = t_allocations;
    auto result = gen.Generate(*schema_, seeds_, *cardinality, options, &ctx);
    Census census;
    census.allocations = t_allocations - before;
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) census.tuples = result->TotalTuples();
    return census;
  }

  std::unique_ptr<MoviesDataset> dataset_;
  SeedTids seeds_;
  std::unique_ptr<ResultSchema> schema_;
};

TEST_F(AllocBudgetTest, ColdGenerationAllocatesPerQueryNotPerTuple) {
  Run(50);  // warm-up: one-time allocations stay out of the census
  const Census small = Run(50);
  const Census large = Run(1000);
  ASSERT_GT(large.tuples, small.tuples + 500)
      << "the token must accept many more tuples at the larger c";
  const uint64_t extra_allocations =
      large.allocations > small.allocations
          ? large.allocations - small.allocations
          : 0;
  const size_t extra_tuples = large.tuples - small.tuples;
  // Fewer than one allocation per ten extra accepted tuples. A node per
  // accepted tid, primary key or FK parent key would cost three per tuple.
  EXPECT_LT(10 * extra_allocations, extra_tuples)
      << "c=50: " << small.allocations << " allocations for " << small.tuples
      << " tuples; c=1000: " << large.allocations << " allocations for "
      << large.tuples << " tuples";
  // The counts themselves, as measured (225 and 3,500 tuples): a change
  // that allocates more per query shows here first.
  EXPECT_LE(small.allocations, 157u);
  EXPECT_LE(large.allocations, 211u);
}

TEST_F(AllocBudgetTest, IndexBuildAllocatesPerIndexNotPerKey) {
  auto movie = dataset_->db().GetRelation("MOVIE");
  ASSERT_TRUE(movie.ok());
  auto keys = (*movie)->DistinctValues("mid");
  ASSERT_TRUE(keys.ok());
  ASSERT_GE(keys->size(), 6000u);
  const uint64_t before = t_allocations;
  const Status rebuilt = (*movie)->CreateIndex("mid");
  const uint64_t allocations = t_allocations - before;
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.ToString();
  // The dense keys take the direct table: its entries, the tid array and
  // the index object, where the slot table took eleven doublings more and
  // a vector per distinct key would cost one allocation per key.
  EXPECT_LE(allocations, 3u) << keys->size() << " keys";
}

TEST_F(AllocBudgetTest, PrimaryKeySetsAllocatePerDoublingNotPerKey) {
  // Replays what the dataset build does to each relation's primary-key
  // set: every key's canonical bits, inserted in tid order.
  const Database& db = dataset_->db();
  uint64_t allocations = 0;
  size_t keys = 0;
  for (const std::string& name : db.RelationNames()) {
    const Relation& rel = **db.GetRelation(name);
    ASSERT_TRUE(rel.schema().primary_key().has_value()) << name;
    const Column& column = rel.column(*rel.schema().primary_key());
    FlatKeySet set;
    const uint64_t before = t_allocations;
    for (Tid tid = 0; tid < column.size(); ++tid) {
      set.Insert(*Column::CanonicalBits(column.raw_bits(tid), column.type()));
    }
    allocations += t_allocations - before;
    keys += set.size();
    EXPECT_TRUE(set.bitmap()) << name;
    EXPECT_EQ(set.bytes(), rel.primary_key_set().bytes()) << name;
  }
  ASSERT_GE(keys, 6000u * 8);
  // Each set starts as a 16-slot table and turns into a bitmap whose
  // window doubles as the keys climb: 62 allocations for the 11 sets, where
  // hash tables doubling from 16 slots took 106.
  EXPECT_LE(allocations, 62u) << keys << " keys";
}

TEST_F(AllocBudgetTest, InterningAllocatesPerSlabNotPerSymbol) {
  // As many distinct strings as the 34k-film build interns, 8 to 30
  // bytes long (a mean of 19).
  std::vector<std::string> strings;
  for (int i = 0; i < 58920; ++i) {
    std::string s = std::to_string(i);
    s.resize(8 + (i * 7) % 23, static_cast<char>('a' + i % 26));
    strings.push_back(std::move(s));
  }
  SymbolTable table;
  const uint64_t fixed_bytes = table.stats().reserved_bytes;
  const uint64_t before = t_allocations;
  for (const std::string& s : strings) table.Intern(s);
  const uint64_t allocations = t_allocations - before;
  const SymbolTableStats stats = table.stats();
  ASSERT_EQ(stats.symbols, strings.size());
  // Per shard: one 4096-entry block, three 32 KiB slabs and ten id-table
  // doublings (16 to 8192 slots). A map node or a string copy per symbol
  // would cost tens of thousands.
  EXPECT_LE(allocations, 224u) << stats.symbols << " symbols";
  // Bytes reserved per symbol, the fixed per-shard arrays aside: about 27
  // of slab (19 of them string), 18 of entry and 9 of id table.
  EXPECT_LE(stats.reserved_bytes - fixed_bytes, 55 * stats.symbols)
      << stats.bytes << " string bytes";
}

}  // namespace
}  // namespace precis
