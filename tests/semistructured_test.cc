#include <gtest/gtest.h>

#include <memory>

#include "materialized.h"
#include "precis/engine.h"
#include "semistructured/document.h"
#include "semistructured/shredder.h"

namespace precis {
namespace {

constexpr const char* kCleanLibraryDoc = R"(
<!-- a small data-centric document -->
<library name="City Library">
  <section genre="fiction">
    <book isbn="111" year="1961">
      <title>Catch-22</title>
      <author>Joseph Heller</author>
    </book>
    <book isbn="222" year="1979">
      <title>Invisible Cities</title>
      <author>Italo Calvino</author>
    </book>
  </section>
  <section genre="science">
    <book isbn="333" year="1988">
      <title>A Brief History of Time</title>
      <author>Stephen Hawking</author>
    </book>
  </section>
</library>
)";

// --- Parser ---

TEST(DocumentParserTest, ParsesNestedStructure) {
  auto doc = ParseDocument(kCleanLibraryDoc);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->tag, "library");
  EXPECT_EQ((*doc)->attributes.at("name"), "City Library");
  ASSERT_EQ((*doc)->children.size(), 2u);
  EXPECT_EQ((*doc)->children[0]->tag, "section");
  EXPECT_EQ((*doc)->children[0]->attributes.at("genre"), "fiction");
  EXPECT_EQ((*doc)->children[0]->children.size(), 2u);
  const DocumentNode& book = *(*doc)->children[0]->children[0];
  EXPECT_EQ(book.attributes.at("isbn"), "111");
  EXPECT_EQ(book.children[0]->text, "Catch-22");
  EXPECT_EQ((*doc)->SubtreeSize(), 1 + 2 + 3 + 6u);
}

TEST(DocumentParserTest, SelfClosingAndEntities) {
  auto doc = ParseDocument(
      "<a x=\"1 &amp; 2\"> text &lt;tag&gt; <b/> more </a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->attributes.at("x"), "1 & 2");
  EXPECT_EQ((*doc)->text, "text <tag>  more");
  ASSERT_EQ((*doc)->children.size(), 1u);
  EXPECT_TRUE((*doc)->children[0]->children.empty());
}

TEST(DocumentParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseDocument("").ok());
  EXPECT_FALSE(ParseDocument("plain text").ok());
  EXPECT_FALSE(ParseDocument("<a>").ok());                  // unterminated
  EXPECT_FALSE(ParseDocument("<a></b>").ok());              // mismatch
  EXPECT_FALSE(ParseDocument("<a x=1></a>").ok());          // unquoted attr
  EXPECT_FALSE(ParseDocument("<a x=\"1\" x=\"2\"></a>").ok());  // dup attr
  EXPECT_FALSE(ParseDocument("<a>&apos;</a>").ok());        // bad entity
  EXPECT_FALSE(ParseDocument("<a/><b/>").ok());             // two roots
}

TEST(DocumentParserTest, ToXmlRoundTrips) {
  auto doc = ParseDocument(kCleanLibraryDoc);
  ASSERT_TRUE(doc.ok());
  auto again = ParseDocument((*doc)->ToXml());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ((*again)->ToXml(), (*doc)->ToXml());
}

// --- Shredder ---

class ShredderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = ParseDocument(kCleanLibraryDoc);
    ASSERT_TRUE(doc.ok());
    doc_ = std::move(*doc);
    auto shredded = ShreddedDocument::Shred(*doc_);
    ASSERT_TRUE(shredded.ok()) << shredded.status();
    shredded_ = std::make_unique<ShreddedDocument>(std::move(*shredded));
  }

  std::unique_ptr<DocumentNode> doc_;
  std::unique_ptr<ShreddedDocument> shredded_;
};

TEST_F(ShredderTest, OneRelationPerTag) {
  const Database& db = shredded_->db();
  EXPECT_EQ(db.RelationNames(),
            (std::vector<std::string>{"author", "book", "library", "section",
                                      "title"}));
  EXPECT_EQ((*db.GetRelation("book"))->num_tuples(), 3u);
  EXPECT_EQ((*db.GetRelation("section"))->num_tuples(), 2u);
  EXPECT_EQ((*db.GetRelation("library"))->num_tuples(), 1u);
}

TEST_F(ShredderTest, ColumnsReflectAttributesAndText) {
  const RelationSchema& book =
      (*shredded_->db().GetRelation("book"))->schema();
  EXPECT_TRUE(book.HasAttribute("id"));
  EXPECT_TRUE(book.HasAttribute("parent"));
  EXPECT_TRUE(book.HasAttribute("isbn"));
  EXPECT_TRUE(book.HasAttribute("year"));
  EXPECT_FALSE(book.HasAttribute("content"));  // books carry no direct text
  const RelationSchema& title =
      (*shredded_->db().GetRelation("title"))->schema();
  EXPECT_TRUE(title.HasAttribute("content"));
}

TEST_F(ShredderTest, ParentForeignKeysHold) {
  EXPECT_TRUE(shredded_->db().ValidateForeignKeys().ok());
  EXPECT_EQ(shredded_->db().foreign_keys().size(), 4u);
}

TEST_F(ShredderTest, GraphEdgesFollowContainment) {
  const SchemaGraph& g = shredded_->graph();
  EXPECT_DOUBLE_EQ(*g.JoinWeight("book", "section"), 1.0);
  EXPECT_DOUBLE_EQ(*g.JoinWeight("section", "book"), 0.8);
  EXPECT_DOUBLE_EQ(*g.JoinWeight("title", "book"), 1.0);
  EXPECT_TRUE(g.JoinWeight("library", "book").status().IsNotFound());
}

TEST_F(ShredderTest, RejectsRecursiveAndMultiParentTags) {
  auto recursive = ParseDocument("<a><a/></a>");
  ASSERT_TRUE(recursive.ok());
  EXPECT_TRUE(ShreddedDocument::Shred(**recursive)
                  .status()
                  .IsInvalidArgument());

  auto multi = ParseDocument("<r><a><x/></a><b><x/></b></r>");
  ASSERT_TRUE(multi.ok());
  EXPECT_TRUE(
      ShreddedDocument::Shred(**multi).status().IsInvalidArgument());
}

TEST_F(ShredderTest, RejectsReservedAttributeNames) {
  auto doc = ParseDocument("<r><a id=\"7\"/></r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(ShreddedDocument::Shred(**doc).status().IsInvalidArgument());
}

TEST_F(ShredderTest, PrecisQueryOverShreddedDocument) {
  auto engine = PrecisEngine::Create(&shredded_->db(), &shredded_->graph());
  ASSERT_TRUE(engine.ok());
  auto answer = engine->Answer(PrecisQuery{{"Italo Calvino"}},
                               *MinPathWeight(0.5),
                               *MaxTuplesPerRelation(5));
  ASSERT_TRUE(answer.ok());
  ASSERT_FALSE(answer->empty());
  // The précis of an author reaches its book (context) and onwards to the
  // section and title: a sub-database carved from the document.
  EXPECT_TRUE(answer->schema.ContainsRelation("author"));
  EXPECT_TRUE(answer->schema.ContainsRelation("book"));
  EXPECT_TRUE(answer->schema.ContainsRelation("section"));
  EXPECT_TRUE(Materialized(answer->database).ValidateForeignKeys().ok());
  const ResultRelation* book = answer->database.relation("book");
  ASSERT_NE(book, nullptr);
  ASSERT_EQ(book->num_tuples(), 1u);
  auto isbn = book->schema.AttributeIndex("isbn");
  ASSERT_TRUE(isbn.ok());
  EXPECT_EQ(book->Cell(0, *isbn).AsString(), "222");
}

TEST_F(ShredderTest, WeightOptionsValidated) {
  ShredOptions bad;
  bad.parent_to_child_weight = 1.5;
  EXPECT_TRUE(
      ShreddedDocument::Shred(*doc_, bad).status().IsInvalidArgument());
}

}  // namespace
}  // namespace precis
