#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/symbol_table.h"
#include "datagen/movies_dataset.h"
#include "datagen/workload.h"
#include "graph/weight_profile.h"
#include "precis/engine.h"

namespace precis {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MoviesConfig config;
    config.num_movies = 50;
    auto ds = MoviesDataset::Create(config);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<MoviesDataset>(std::move(*ds));
    auto engine = PrecisEngine::Create(&dataset_->db(), &dataset_->graph());
    ASSERT_TRUE(engine.ok());
    engine_ = std::make_unique<PrecisEngine>(std::move(*engine));
  }

  std::unique_ptr<MoviesDataset> dataset_;
  std::unique_ptr<PrecisEngine> engine_;
};

TEST_F(EngineTest, CreateRejectsNullInputs) {
  EXPECT_TRUE(PrecisEngine::Create(nullptr, &dataset_->graph())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(PrecisEngine::Create(&dataset_->db(), nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(EngineTest, WoodyAllenEndToEnd) {
  auto answer = engine_->Answer(PrecisQuery{{"Woody Allen"}},
                                *MinPathWeight(0.9), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->empty());
  ASSERT_EQ(answer->matches.size(), 1u);
  // Homonym: found as both an actor and a director.
  std::set<std::string> relations;
  for (const TokenOccurrence& occ : answer->matches[0].occurrences()) {
    relations.insert(occ.relation);
  }
  EXPECT_EQ(relations, (std::set<std::string>{"ACTOR", "DIRECTOR"}));

  // Fig. 4 schema and a three-movie database.
  EXPECT_TRUE(answer->schema.ContainsRelation("MOVIE"));
  EXPECT_TRUE(answer->schema.ContainsRelation("GENRE"));
  auto movie = answer->database.GetRelation("MOVIE");
  ASSERT_TRUE(movie.ok());
  EXPECT_EQ((*movie)->num_tuples(), 3u);
  // The result database is a real database: constraints validated.
  EXPECT_TRUE(answer->database.ValidateForeignKeys().ok());
}

TEST_F(EngineTest, UnknownTokenGivesEmptyAnswer) {
  auto answer = engine_->Answer(PrecisQuery{{"zzz-no-such-token"}},
                                *MinPathWeight(0.9), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->empty());
  EXPECT_EQ(answer->database.TotalTuples(), 0u);
  EXPECT_TRUE(answer->schema.relations().empty());
}

TEST_F(EngineTest, EmptyQueryGivesEmptyAnswer) {
  auto answer = engine_->Answer(PrecisQuery{{}}, *MinPathWeight(0.9),
                                *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->empty());
}

TEST_F(EngineTest, MultiTokenQueryCombinesSeedRelations) {
  auto answer =
      engine_->Answer(PrecisQuery{{"Woody Allen", "Match Point"}},
                      *MinPathWeight(0.9), *MaxTuplesPerRelation(10));
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->matches.size(), 2u);
  EXPECT_FALSE(answer->matches[1].occurrences().empty());
  // MOVIE is now a token relation itself.
  bool movie_is_token = false;
  for (RelationNodeId rel : answer->schema.token_relations()) {
    if (answer->schema.graph().relation_name(rel) == "MOVIE") {
      movie_is_token = true;
    }
  }
  EXPECT_TRUE(movie_is_token);
}

TEST_F(EngineTest, MixedKnownAndUnknownTokens) {
  auto answer =
      engine_->Answer(PrecisQuery{{"no-such-thing", "Woody Allen"}},
                      *MinPathWeight(0.9), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->empty());
  EXPECT_TRUE(answer->matches[0].occurrences().empty());
  EXPECT_FALSE(answer->matches[1].occurrences().empty());
}

TEST_F(EngineTest, TighterDegreeYieldsSmallerSchema) {
  auto wide = engine_->Answer(PrecisQuery{{"Woody Allen"}},
                              *MinPathWeight(0.5), *MaxTuplesPerRelation(3));
  auto narrow = engine_->Answer(PrecisQuery{{"Woody Allen"}},
                                *MinPathWeight(0.95), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(wide.ok());
  ASSERT_TRUE(narrow.ok());
  EXPECT_GE(wide->schema.TotalProjectedAttributes(),
            narrow->schema.TotalProjectedAttributes());
  EXPECT_GE(wide->schema.relations().size(),
            narrow->schema.relations().size());
}

TEST_F(EngineTest, AnswerIsDeterministic) {
  auto a = engine_->Answer(PrecisQuery{{"Comedy"}}, *MinPathWeight(0.8),
                           *MaxTuplesPerRelation(5));
  auto b = engine_->Answer(PrecisQuery{{"Comedy"}}, *MinPathWeight(0.8),
                           *MaxTuplesPerRelation(5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->database.DescribeSchema(), b->database.DescribeSchema());
  EXPECT_EQ(a->schema.ToString(), b->schema.ToString());
}

TEST_F(EngineTest, UnseenWordQueriesNeverGrowTheSymbolTable) {
  engine_->set_caches_enabled(true);
  auto d = MinPathWeight(0.9);
  auto c = MaxTuplesPerRelation(3);
  ASSERT_TRUE(engine_
                  ->AnswerSharedRendered(
                      PrecisQuery{{"Woody Allen", "warmup qzvx"}}, *d, *c)
                  .ok());
  const uint64_t before = SymbolTable::Global()->stats().symbols;
  for (int i = 0; i < 1000; ++i) {
    const std::string n = std::to_string(i);
    // A phrase of two unseen words (the level-1 cache path) and a single
    // unseen word.
    PrecisQuery query{{"zqxw" + n + " vwkq" + n, "unseenword" + n}};
    auto rendered = engine_->AnswerSharedRendered(query, *d, *c);
    ASSERT_TRUE(rendered.ok());
    EXPECT_TRUE(rendered->answer->empty());
  }
  EXPECT_EQ(SymbolTable::Global()->stats().symbols, before);
}

// The seed-assembly loop AssembleSeedsAndSchema replaced, kept as its
// reference: every tid of every occurrence goes through a per-relation
// hash set, in match order.
void ReferenceSeeds(const SchemaGraph& graph,
                    const std::vector<TokenMatch>& matches,
                    std::vector<RelationNodeId>* token_relations,
                    SeedTids* seeds) {
  std::unordered_map<RelationNodeId, std::unordered_set<Tid>> seen_tids;
  for (const TokenMatch& match : matches) {
    for (const TokenOccurrence& occ : match.occurrences()) {
      const RelationNodeId rel = *graph.RelationId(occ.relation);
      if (std::find(token_relations->begin(), token_relations->end(), rel) ==
          token_relations->end()) {
        token_relations->push_back(rel);
      }
      std::vector<Tid>& tids = (*seeds)[rel];
      std::unordered_set<Tid>& seen = seen_tids[rel];
      for (Tid tid : occ.tids) {
        if (seen.insert(tid).second) tids.push_back(tid);
      }
    }
  }
}

TokenMatch HandMatch(const std::string& token,
                     std::vector<TokenOccurrence> occurrences) {
  return TokenMatch{token, token,
                    std::make_shared<const std::vector<TokenOccurrence>>(
                        std::move(occurrences))};
}

TEST_F(EngineTest, SeedAssemblyMatchesHashSetReference) {
  std::vector<std::vector<TokenMatch>> inputs = {
      // A homonym in two attributes of one relation.
      {HandMatch("allen", {{"ACTOR", "aname", {1, 4, 9}},
                           {"ACTOR", "blocation", {0, 4, 7, 9}}})},
      // Two tokens with overlapping tids in one relation.
      {HandMatch("comedy", {{"GENRE", "genre", {2, 5, 8, 11}}}),
       HandMatch("drama", {{"GENRE", "genre", {1, 5, 11, 12}},
                           {"MOVIE", "title", {3}}})},
      // An empty occurrence, then the same relation again.
      {HandMatch("x", {{"DIRECTOR", "dname", {}}}),
       HandMatch("y", {{"DIRECTOR", "dname", {6, 2}}})},
      // Unsorted tids with repeats, whole and after an ascending prefix.
      {HandMatch("u", {{"MOVIE", "title", {9, 3, 3, 7, 9, 1}},
                       {"GENRE", "genre", {5, 5}}})},
      {HandMatch("v", {{"MOVIE", "title", {1, 4, 8, 2, 8, 9, 1, 3}}}),
       HandMatch("w", {{"MOVIE", "title", {3, 10}}})},
  };
  // And matches straight from the index.
  for (const std::vector<std::string>& tokens :
       std::vector<std::vector<std::string>>{
           {"Woody Allen"}, {"Comedy", "Drama"}, {"Allen", "Woody Allen"}}) {
    std::vector<TokenMatch> matches;
    for (const std::string& token : tokens) {
      matches.push_back(TokenMatch{token, token, engine_->index().Lookup(token)});
    }
    inputs.push_back(std::move(matches));
  }

  auto degree = MinPathWeight(0.9);
  for (size_t i = 0; i < inputs.size(); ++i) {
    SeedTids seeds;
    auto schema = AssembleSeedsAndSchema(&dataset_->graph(), inputs[i],
                                         *degree, nullptr, nullptr, &seeds);
    ASSERT_TRUE(schema.ok()) << "input " << i;
    std::vector<RelationNodeId> want_relations;
    SeedTids want_seeds;
    ReferenceSeeds(dataset_->graph(), inputs[i], &want_relations, &want_seeds);
    EXPECT_EQ(seeds, want_seeds) << "input " << i;
    EXPECT_EQ(schema->token_relations(), want_relations) << "input " << i;
  }
}

// ===== Query-model properties (§3.3, conditions 1-4) under random weights =====

struct PropertyCase {
  uint64_t weight_seed;
  double threshold;
  size_t tuples_per_relation;
};

class QueryModelPropertyTest
    : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(QueryModelPropertyTest, ResultIsAValidSubDatabase) {
  const PropertyCase& param = GetParam();
  MoviesConfig config;
  config.num_movies = 60;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  Rng rng(param.weight_seed);
  ASSERT_TRUE(RandomizeWeights(&ds->graph(), &rng).ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(engine.ok());

  auto answer = engine->Answer(
      PrecisQuery{{"Woody Allen"}}, *MinPathWeight(param.threshold),
      *MaxTuplesPerRelation(param.tuples_per_relation));
  ASSERT_TRUE(answer.ok());

  // Condition 1: result relation names are a subset of the source's.
  for (const std::string& name : answer->database.RelationNames()) {
    EXPECT_TRUE(ds->db().HasRelation(name));
  }

  for (const std::string& name : answer->database.RelationNames()) {
    auto out_rel = answer->database.GetRelation(name);
    auto src_rel = ds->db().GetRelation(name);
    ASSERT_TRUE(out_rel.ok());
    ASSERT_TRUE(src_rel.ok());

    // Condition 2: attributes are a subset of the source relation's.
    std::vector<size_t> src_indices;
    for (const AttributeSchema& attr : (*out_rel)->schema().attributes()) {
      auto idx = (*src_rel)->schema().AttributeIndex(attr.name);
      ASSERT_TRUE(idx.ok()) << name << "." << attr.name;
      src_indices.push_back(*idx);
    }

    // Condition 3: every result tuple is a source tuple projected on the
    // surviving attributes.
    EXPECT_LE((*out_rel)->num_tuples(), (*src_rel)->num_tuples());
    for (Tid tid = 0; tid < (*out_rel)->num_tuples(); ++tid) {
      const Tuple& out_tuple = (*out_rel)->tuple(tid);
      bool found = false;
      for (Tid src = 0; src < (*src_rel)->num_tuples() && !found; ++src) {
        const Tuple& src_tuple = (*src_rel)->tuple(src);
        bool same = true;
        for (size_t i = 0; i < src_indices.size(); ++i) {
          if (!(out_tuple[i] == src_tuple[src_indices[i]])) {
            same = false;
            break;
          }
        }
        found = same;
      }
      EXPECT_TRUE(found) << "tuple " << tid << " of " << name
                         << " is not a projection of any source tuple";
    }

    // Cardinality constraint held per relation.
    EXPECT_LE((*out_rel)->num_tuples(), param.tuples_per_relation);
  }

  // Condition 4 (+constraints): the declared foreign keys hold.
  EXPECT_TRUE(answer->database.ValidateForeignKeys().ok());
}

INSTANTIATE_TEST_SUITE_P(
    RandomWeightSweep, QueryModelPropertyTest,
    ::testing::Values(PropertyCase{1, 0.9, 3}, PropertyCase{2, 0.7, 5},
                      PropertyCase{3, 0.5, 2}, PropertyCase{4, 0.3, 8},
                      PropertyCase{5, 0.8, 1}, PropertyCase{6, 0.6, 4},
                      PropertyCase{7, 0.2, 10}, PropertyCase{8, 0.95, 6},
                      PropertyCase{9, 0.4, 7}, PropertyCase{10, 0.1, 3}));

// Cardinality monotonicity: a larger per-relation budget never yields fewer
// tuples anywhere.
class CardinalityMonotonicityTest
    : public ::testing::TestWithParam<size_t> {};

TEST_P(CardinalityMonotonicityTest, LargerBudgetLargerResult) {
  MoviesConfig config;
  config.num_movies = 40;
  auto ds = MoviesDataset::Create(config);
  ASSERT_TRUE(ds.ok());
  auto engine = PrecisEngine::Create(&ds->db(), &ds->graph());
  ASSERT_TRUE(engine.ok());
  size_t c = GetParam();
  auto small = engine->Answer(PrecisQuery{{"Woody Allen"}},
                              *MinPathWeight(0.8), *MaxTuplesPerRelation(c));
  auto large = engine->Answer(PrecisQuery{{"Woody Allen"}},
                              *MinPathWeight(0.8),
                              *MaxTuplesPerRelation(c + 3));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  for (const std::string& name : small->database.RelationNames()) {
    auto s = small->database.GetRelation(name);
    auto l = large->database.GetRelation(name);
    ASSERT_TRUE(l.ok());
    EXPECT_GE((*l)->num_tuples(), (*s)->num_tuples()) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, CardinalityMonotonicityTest,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 20));

}  // namespace
}  // namespace precis
