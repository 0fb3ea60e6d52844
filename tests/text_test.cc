#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <set>

#include "common/random.h"
#include "datagen/movies_dataset.h"
#include "storage/database.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"

namespace precis {
namespace {

// --- Tokenizer ---

TEST(TokenizerTest, LowercasesAndSplits) {
  EXPECT_EQ(TokenizeWords("Woody Allen"),
            (std::vector<std::string>{"woody", "allen"}));
}

TEST(TokenizerTest, StripsPunctuation) {
  EXPECT_EQ(TokenizeWords("Match Point (2005)!"),
            (std::vector<std::string>{"match", "point", "2005"}));
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(TokenizeWords("").empty());
  EXPECT_TRUE(TokenizeWords("  \t\n -- ").empty());
}

TEST(TokenizerTest, DigitsAreWords) {
  EXPECT_EQ(TokenizeWords("2005"), (std::vector<std::string>{"2005"}));
}

TEST(TokenizerTest, ContainsPhraseMatchesContiguous) {
  EXPECT_TRUE(ContainsPhrase("Woody Allen", {"woody", "allen"}));
  EXPECT_TRUE(ContainsPhrase("the great Woody Allen movie",
                             {"woody", "allen"}));
  EXPECT_FALSE(ContainsPhrase("Allen Woody", {"woody", "allen"}));
  EXPECT_FALSE(ContainsPhrase("Woody x Allen", {"woody", "allen"}));
}

TEST(TokenizerTest, ContainsPhraseEmptyNeverMatches) {
  EXPECT_FALSE(ContainsPhrase("anything", {}));
}

TEST(TokenizerTest, ContainsPhraseCaseAndPunctuationInsensitive) {
  EXPECT_TRUE(ContainsPhrase("WOODY ALLEN!", {"woody", "allen"}));
}

TEST(TokenizerTest, ContainsPhraseSymbolsAgreesWithContainsPhrase) {
  struct Case {
    std::string text;
    std::string phrase;
    bool expected;
  };
  const std::vector<Case> cases = {
      {"Woody Allen", "woody allen", true},
      {"wOoDy ALLEN", "Woody Allen", true},            // mixed case
      {"Allen, Woody (1935-)", "allen woody", true},    // punctuation
      {"--Woody...Allen!!", "WOODY, allen", true},
      {"Allen Woody", "woody allen", false},           // reordered
      {"Woody x Allen", "woody allen", false},         // not contiguous
      {"New York, New York", "new york new york", true},  // repeated words
      {"New York, New York", "york york", false},
      {"New York, New York", "new new", false},
      {"Tora! Tora! Tora!", "tora tora", true},
      {"Tora! Tora! Tora!", "tora tora tora tora", false},
      {"Match Point (2005)", "point 2005", true},
      {"Match Point (2005)", "match point 2005 match", false},
      {"", "woody", false},
      {"Woody", "woody allen", false},
  };
  for (const Case& c : cases) {
    const bool by_string = ContainsPhrase(c.text, TokenizeWords(c.phrase));
    EXPECT_EQ(by_string, c.expected) << c.text << " / " << c.phrase;
    EXPECT_EQ(ContainsPhraseSymbols(c.text, TokenizeWordSymbols(c.phrase)),
              by_string)
        << c.text << " / " << c.phrase;
  }
  EXPECT_FALSE(ContainsPhraseSymbols("anything", {}));
}

// --- InvertedIndex ---

class InvertedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RelationSchema director("DIRECTOR", {{"did", DataType::kInt64},
                                         {"dname", DataType::kString}});
    ASSERT_TRUE(director.SetPrimaryKey("did").ok());
    ASSERT_TRUE(db_.CreateRelation(std::move(director)).ok());
    RelationSchema actor("ACTOR", {{"aid", DataType::kInt64},
                                   {"aname", DataType::kString},
                                   {"bio", DataType::kString}});
    ASSERT_TRUE(actor.SetPrimaryKey("aid").ok());
    ASSERT_TRUE(db_.CreateRelation(std::move(actor)).ok());

    auto director_rel = db_.GetRelation("DIRECTOR");
    ASSERT_TRUE((*director_rel)->Insert({int64_t{1}, "Woody Allen"}).ok());
    ASSERT_TRUE((*director_rel)->Insert({int64_t{2}, "Spike Jonze"}).ok());
    ASSERT_TRUE((*director_rel)->Insert({int64_t{3}, "Allen Hughes"}).ok());
    auto actor_rel = db_.GetRelation("ACTOR");
    ASSERT_TRUE((*actor_rel)
                    ->Insert({int64_t{1}, "Woody Allen",
                              "Director and actor Woody Allen"})
                    .ok());
    ASSERT_TRUE(
        (*actor_rel)->Insert({int64_t{2}, "Tim Allen", Value::Null()}).ok());

    auto index = InvertedIndex::Build(db_);
    ASSERT_TRUE(index.ok());
    index_ = std::make_unique<InvertedIndex>(std::move(*index));
  }

  Database db_;
  std::unique_ptr<InvertedIndex> index_;
};

TEST_F(InvertedIndexTest, SingleWordFindsAllOccurrences) {
  auto occ = *index_->Lookup("allen");
  // Grouped by (relation, attribute): ACTOR.aname {0,1}, ACTOR.bio {0},
  // DIRECTOR.dname {0,2}.
  ASSERT_EQ(occ.size(), 3u);
  EXPECT_EQ(occ[0].relation, "ACTOR");
  EXPECT_EQ(occ[0].attribute, "aname");
  EXPECT_EQ(occ[0].tids, (std::vector<Tid>{0, 1}));
  EXPECT_EQ(occ[1].relation, "ACTOR");
  EXPECT_EQ(occ[1].attribute, "bio");
  EXPECT_EQ(occ[2].relation, "DIRECTOR");
  EXPECT_EQ(occ[2].tids, (std::vector<Tid>{0, 2}));
}

TEST_F(InvertedIndexTest, PhraseRequiresContiguousOrder) {
  auto occ = *index_->Lookup("Woody Allen");
  ASSERT_EQ(occ.size(), 3u);  // ACTOR.aname, ACTOR.bio, DIRECTOR.dname
  for (const auto& o : occ) {
    if (o.relation == "DIRECTOR") {
      EXPECT_EQ(o.tids, (std::vector<Tid>{0}));  // not "Allen Hughes"
    }
  }
  // "Allen Woody" never appears in that order.
  EXPECT_TRUE(index_->Lookup("Allen Woody")->empty());
}

TEST_F(InvertedIndexTest, LookupIsCaseInsensitive) {
  EXPECT_EQ(index_->Lookup("WOODY ALLEN")->size(),
            index_->Lookup("woody allen")->size());
}

TEST_F(InvertedIndexTest, UnknownTokenIsEmpty) {
  EXPECT_TRUE(index_->Lookup("scorsese")->empty());
  EXPECT_TRUE(index_->Lookup("")->empty());
}

TEST_F(InvertedIndexTest, PartiallyUnknownPhraseIsEmpty) {
  EXPECT_TRUE(index_->Lookup("woody scorsese")->empty());
}

TEST_F(InvertedIndexTest, LookupAllPreservesQueryOrder) {
  auto all = index_->LookupAll({"jonze", "nosuchtoken", "woody"});
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->size(), 1u);
  EXPECT_TRUE(all[1]->empty());
  EXPECT_FALSE(all[2]->empty());
}

TEST_F(InvertedIndexTest, NumWordsAndPostings) {
  EXPECT_GT(index_->num_words(), 0u);
  EXPECT_GT(index_->num_postings(), index_->num_words() / 2);
}

TEST_F(InvertedIndexTest, WordRepeatedInOneValueIndexedOnce) {
  // "Woody Allen" appears twice in the bio value; the posting must hold the
  // location once (lookup result tid lists stay duplicate-free).
  auto occ = *index_->Lookup("woody");
  for (const auto& o : occ) {
    std::set<Tid> dedup(o.tids.begin(), o.tids.end());
    EXPECT_EQ(dedup.size(), o.tids.size());
  }
}

TEST_F(InvertedIndexTest, PostingsCostFourBytesPerTid) {
  // Build trims every run to size, so a posting is one 32-bit tid.
  EXPECT_EQ(index_->posting_bytes(), 4 * index_->num_postings());
  MoviesConfig config;
  config.num_movies = 6000;
  auto dataset = MoviesDataset::Create(config);
  ASSERT_TRUE(dataset.ok());
  auto index = InvertedIndex::Build(dataset->db());
  ASSERT_TRUE(index.ok());
  EXPECT_GT(index->num_postings(), 100000u);
  EXPECT_EQ(index->posting_bytes(), 4 * index->num_postings());
}

TEST(InvertedIndexChargeTest, NamesCountOnlyPastTheirInlineBuffer) {
  // Every name of the movie schema fits a string's inline buffer: the
  // charge is the occurrence array and the tid arrays, nothing more.
  const std::vector<TokenOccurrence> inline_names = {
      {"MOVIE", "title", {1, 2, 3}}, {"GENRE", "genre", {4}}};
  EXPECT_EQ(EstimateOccurrencesCharge(inline_names),
            sizeof(std::vector<TokenOccurrence>) +
                2 * sizeof(TokenOccurrence) + 4 * sizeof(Tid));
  // A name past the inline buffer adds its heap buffer and terminator.
  const std::string long_name(40, 'R');
  const std::vector<TokenOccurrence> heap_name = {{long_name, "title", {1}}};
  EXPECT_EQ(EstimateOccurrencesCharge(heap_name),
            sizeof(std::vector<TokenOccurrence>) + sizeof(TokenOccurrence) +
                heap_name[0].relation.capacity() + 1 + sizeof(Tid));
}

TEST(InvertedIndexEdgeTest, NonStringAttributesIgnored) {
  Database db;
  RelationSchema nums("NUMS", {{"id", DataType::kInt64},
                               {"v", DataType::kDouble}});
  ASSERT_TRUE(db.CreateRelation(std::move(nums)).ok());
  auto rel = db.GetRelation("NUMS");
  ASSERT_TRUE((*rel)->Insert({int64_t{1}, 2.5}).ok());
  auto index = InvertedIndex::Build(db);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_words(), 0u);
  EXPECT_TRUE(index->Lookup("1")->empty());
}

// --- Lookup against a brute-force reference ---

// Every non-null string cell whose value contains the token's words as a
// contiguous phrase, grouped in RelationNames() order, then attribute
// order, then tid order — what Lookup promises, computed without the
// index.
std::vector<TokenOccurrence> ReferenceLookup(const Database& db,
                                             const std::string& token) {
  std::vector<TokenOccurrence> out;
  const std::vector<std::string> words = TokenizeWords(token);
  for (const std::string& name : db.RelationNames()) {
    const Relation* rel = *db.GetRelation(name);
    const RelationSchema& schema = rel->schema();
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (schema.attribute(a).type != DataType::kString) continue;
      TokenOccurrence occ{name, schema.attribute(a).name, {}};
      for (Tid tid = 0; tid < rel->num_tuples(); ++tid) {
        const Value v = rel->ColumnValue(tid, a);
        if (!v.is_null() && ContainsPhrase(v.AsString(), words)) {
          occ.tids.push_back(tid);
        }
      }
      if (!occ.tids.empty()) out.push_back(std::move(occ));
    }
  }
  return out;
}

// Tokens drawn from every string attribute: whole values, single words, 2-
// and 3-word sub-phrases, reversed phrases, a repeated word, upper-case
// and punctuated spellings; plus every genre and some unknown words.
std::vector<std::string> SampleTokens(const Database& db, Rng* rng) {
  std::vector<std::string> tokens;
  for (const std::string& name : db.RelationNames()) {
    const Relation* rel = *db.GetRelation(name);
    const RelationSchema& schema = rel->schema();
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (schema.attribute(a).type != DataType::kString) continue;
      for (int draw = 0; draw < 3 && rel->num_tuples() > 0; ++draw) {
        const Value v = rel->ColumnValue(rng->Index(rel->num_tuples()), a);
        if (v.is_null()) continue;
        const std::string text(v.AsString());
        const std::vector<std::string> words = TokenizeWords(text);
        if (words.empty()) continue;
        tokens.push_back(text);
        const size_t i = rng->Index(words.size());
        tokens.push_back(words[i]);
        tokens.push_back(words[i] + " " + words[i]);
        if (i + 1 < words.size()) {
          tokens.push_back(words[i] + " " + words[i + 1]);
          tokens.push_back(words[i + 1] + " " + words[i]);
        }
        if (i + 2 < words.size()) {
          tokens.push_back(words[i] + " " + words[i + 1] + " " +
                           words[i + 2]);
        }
        std::string upper = text;
        for (char& c : upper) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
        tokens.push_back(upper);
        std::string punctuated = "(";
        for (const std::string& word : words) punctuated += word + ", ";
        tokens.push_back(punctuated + "!)");
      }
    }
  }
  const Relation* genre = *db.GetRelation("GENRE");
  const size_t genre_attr = *genre->schema().AttributeIndex("genre");
  std::set<std::string> genres;
  for (Tid tid = 0; tid < genre->num_tuples(); ++tid) {
    genres.emplace(genre->ColumnValue(tid, genre_attr).AsString());
  }
  tokens.insert(tokens.end(), genres.begin(), genres.end());
  tokens.push_back("qzxvkw");
  tokens.push_back("qzxvkw wvkxzq");
  tokens.push_back(*genres.begin() + " qzxvkw");
  return tokens;
}

TEST(InvertedIndexReferenceTest, LookupMatchesBruteForceScan) {
  MoviesConfig config;
  config.num_movies = 2000;
  auto dataset = MoviesDataset::Create(config);
  ASSERT_TRUE(dataset.ok());
  const Database& db = dataset->db();
  auto index = InvertedIndex::Build(db);
  ASSERT_TRUE(index.ok());
  Rng rng(20060403);
  const std::vector<std::string> tokens = SampleTokens(db, &rng);
  ASSERT_GE(tokens.size(), 200u);

  size_t matched = 0;
  for (const std::string& token : tokens) {
    const std::vector<TokenOccurrence> expected = ReferenceLookup(db, token);
    if (!expected.empty()) ++matched;
    // Cache off, then on: a miss turned away at the door, a miss that
    // fills it, then a hit.
    for (int pass = 0; pass < 4; ++pass) {
      index->set_lookup_cache_enabled(pass > 0);
      const OccurrenceList list = index->Lookup(token);
      const std::vector<TokenOccurrence>& got = *list;
      ASSERT_EQ(got.size(), expected.size()) << token << " pass " << pass;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].relation, expected[i].relation) << token;
        EXPECT_EQ(got[i].attribute, expected[i].attribute) << token;
        EXPECT_EQ(got[i].tids, expected[i].tids) << token;
      }
    }
  }
  EXPECT_GT(index->lookup_cache_stats().hits, 0u);
  // Most sampled tokens occur somewhere; the reversed and unknown ones
  // mostly do not.
  EXPECT_GT(matched, tokens.size() / 2);
}

TEST(InvertedIndexEdgeTest, EmptyDatabase) {
  Database db;
  auto index = InvertedIndex::Build(db);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->Lookup("anything")->empty());
}

}  // namespace
}  // namespace precis
