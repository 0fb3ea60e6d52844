#include <gtest/gtest.h>

#include <memory>

#include "datagen/movies_dataset.h"
#include "materialized.h"
#include "precis/engine.h"
#include "text/synonyms.h"

namespace precis {
namespace {

// --- SynonymTable ---

TEST(SynonymTableTest, UnmappedTokenPassesThrough) {
  SynonymTable table;
  EXPECT_EQ(table.Canonicalize("Woody Allen"), "Woody Allen");
  EXPECT_EQ(table.size(), 0u);
}

TEST(SynonymTableTest, BasicMapping) {
  SynonymTable table;
  ASSERT_TRUE(table.AddSynonym("W. Allen", "Woody Allen").ok());
  EXPECT_EQ(table.Canonicalize("W. Allen"), "Woody Allen");
  EXPECT_EQ(table.size(), 1u);
}

TEST(SynonymTableTest, MatchingIsCaseAndPunctuationInsensitive) {
  SynonymTable table;
  ASSERT_TRUE(table.AddSynonym("W. Allen", "Woody Allen").ok());
  EXPECT_EQ(table.Canonicalize("w allen"), "Woody Allen");
  EXPECT_EQ(table.Canonicalize("W  ALLEN!"), "Woody Allen");
}

TEST(SynonymTableTest, ChainsResolveTransitively) {
  SynonymTable table;
  ASSERT_TRUE(table.AddSynonym("WA", "W. Allen").ok());
  ASSERT_TRUE(table.AddSynonym("W. Allen", "Woody Allen").ok());
  EXPECT_EQ(table.Canonicalize("WA"), "Woody Allen");
}

TEST(SynonymTableTest, CyclesRejected) {
  SynonymTable table;
  ASSERT_TRUE(table.AddSynonym("a", "b").ok());
  ASSERT_TRUE(table.AddSynonym("b", "c").ok());
  EXPECT_TRUE(table.AddSynonym("c", "a").IsInvalidArgument());
  EXPECT_TRUE(table.AddSynonym("b", "a").IsInvalidArgument());
}

TEST(SynonymTableTest, SelfAndEmptyRejected) {
  SynonymTable table;
  EXPECT_TRUE(table.AddSynonym("x", "X!").IsInvalidArgument());  // same token
  EXPECT_TRUE(table.AddSynonym("", "y").IsInvalidArgument());
  EXPECT_TRUE(table.AddSynonym("y", "...").IsInvalidArgument());
}

TEST(SynonymTableTest, RemappingOverwrites) {
  SynonymTable table;
  ASSERT_TRUE(table.AddSynonym("WA", "Wrong Person").ok());
  ASSERT_TRUE(table.AddSynonym("WA", "Woody Allen").ok());
  EXPECT_EQ(table.Canonicalize("WA"), "Woody Allen");
}

// --- Engine integration ---

class SynonymEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MoviesConfig config;
    config.num_movies = 20;
    auto ds = MoviesDataset::Create(config);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<MoviesDataset>(std::move(*ds));
    auto engine = PrecisEngine::Create(&dataset_->db(), &dataset_->graph());
    ASSERT_TRUE(engine.ok());
    engine_ = std::make_unique<PrecisEngine>(std::move(*engine));
    ASSERT_TRUE(synonyms_.AddSynonym("W. Allen", "Woody Allen").ok());
  }

  std::unique_ptr<MoviesDataset> dataset_;
  std::unique_ptr<PrecisEngine> engine_;
  SynonymTable synonyms_;
};

TEST_F(SynonymEngineTest, VariantSpellingFindsNothingWithoutTable) {
  auto answer = engine_->Answer(PrecisQuery{{"W. Allen"}},
                                *MinPathWeight(0.9), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->empty());
}

TEST_F(SynonymEngineTest, VariantSpellingResolvesWithTable) {
  engine_->set_synonyms(&synonyms_);
  auto answer = engine_->Answer(PrecisQuery{{"W. Allen"}},
                                *MinPathWeight(0.9), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->empty());
  ASSERT_EQ(answer->matches.size(), 1u);
  EXPECT_EQ(answer->matches[0].token, "W. Allen");
  EXPECT_EQ(answer->matches[0].resolved_token, "Woody Allen");
  ASSERT_NE(answer->database.relation("MOVIE"), nullptr);
  EXPECT_EQ(answer->database.relation("MOVIE")->num_tuples(), 3u);
}

TEST_F(SynonymEngineTest, TableCanBeRemoved) {
  engine_->set_synonyms(&synonyms_);
  engine_->set_synonyms(nullptr);
  auto answer = engine_->Answer(PrecisQuery{{"W. Allen"}},
                                *MinPathWeight(0.9), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->empty());
}

// --- Homonyms: one answer per occurrence ---

TEST_F(SynonymEngineTest, AnswerPerOccurrenceSplitsHomonyms) {
  auto answers = engine_->AnswerPerOccurrence(
      PrecisQuery{{"Woody Allen"}}, *MinPathWeight(0.9),
      *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answers.ok());
  // Woody Allen is an ACTOR and a DIRECTOR: two separate answers.
  ASSERT_EQ(answers->size(), 2u);
  std::set<std::string> roots;
  for (const PrecisAnswer& a : *answers) {
    ASSERT_EQ(a.matches.size(), 1u);
    ASSERT_EQ(a.matches[0].occurrences().size(), 1u);
    roots.insert(a.matches[0].occurrences()[0].relation);
    // Each answer is seeded by exactly one relation.
    EXPECT_EQ(a.schema.token_relations().size(), 1u);
  }
  EXPECT_EQ(roots, (std::set<std::string>{"ACTOR", "DIRECTOR"}));
}

TEST_F(SynonymEngineTest, PerOccurrenceAnswersDifferInShape) {
  auto answers = engine_->AnswerPerOccurrence(
      PrecisQuery{{"Woody Allen"}}, *MinPathWeight(0.9),
      *MaxTuplesPerRelation(10));
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 2u);
  // The director-rooted answer contains DIRECTOR data; the actor-rooted one
  // reaches MOVIE through CAST. Both are valid sub-databases.
  for (const PrecisAnswer& a : *answers) {
    EXPECT_TRUE(Materialized(a.database).ValidateForeignKeys().ok());
    EXPECT_NE(a.database.relation("MOVIE"), nullptr);
  }
}

TEST_F(SynonymEngineTest, AnswerPerOccurrenceOnUnknownTokenIsEmpty) {
  auto answers = engine_->AnswerPerOccurrence(
      PrecisQuery{{"nobody-here"}}, *MinPathWeight(0.9),
      *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->empty());
}

TEST_F(SynonymEngineTest, SingleOccurrenceMatchesCombinedAnswer) {
  // "Match Point" occurs only in MOVIE.title: per-occurrence equals the
  // combined answer.
  auto combined = engine_->Answer(PrecisQuery{{"Match Point"}},
                                  *MinPathWeight(0.9),
                                  *MaxTuplesPerRelation(5));
  auto split = engine_->AnswerPerOccurrence(PrecisQuery{{"Match Point"}},
                                            *MinPathWeight(0.9),
                                            *MaxTuplesPerRelation(5));
  ASSERT_TRUE(combined.ok());
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split->size(), 1u);
  EXPECT_EQ(Materialized((*split)[0].database).DescribeSchema(),
            Materialized(combined->database).DescribeSchema());
}

}  // namespace
}  // namespace precis
