// Précis over semi-structured data.
//
// "Our approach is applicable to other types of (semi-)structured data as
//  well. However, for presentation reasons, we focus on relational data
//  here." — this example makes the claim concrete: parse an XML-like
// document, shred it into relations + a weighted schema graph, and run the
// unchanged précis engine over it.

#include <cstdio>
#include <iostream>

#include "precis/engine.h"
#include "semistructured/document.h"
#include "semistructured/shredder.h"

namespace {

constexpr const char* kCatalog = R"(
<catalog name="Criterion Shelf">
  <director name="Woody Allen" born="1935">
    <film year="2005" runtime="124">
      <title>Match Point</title>
      <note>shot in London</note>
    </film>
    <film year="2003" runtime="108">
      <title>Anything Else</title>
    </film>
  </director>
  <director name="Agnes Varda" born="1928">
    <film year="1962" runtime="90">
      <title>Cleo from 5 to 7</title>
      <note>real-time narrative</note>
    </film>
  </director>
</catalog>
)";

}  // namespace

int main() {
  using namespace precis;

  auto doc = ParseDocument(kCatalog);
  if (!doc.ok()) {
    std::cerr << doc.status() << "\n";
    return 1;
  }
  std::printf("Document (%zu elements):\n%s\n\n", (*doc)->SubtreeSize(),
              (*doc)->ToXml().c_str());

  auto shredded = ShreddedDocument::Shred(**doc);
  if (!shredded.ok()) {
    std::cerr << shredded.status() << "\n";
    return 1;
  }
  std::printf("Shredded into:\n%s\n",
              shredded->db().DescribeSchema().c_str());

  auto engine = PrecisEngine::Create(&shredded->db(), &shredded->graph());
  if (!engine.ok()) {
    std::cerr << engine.status() << "\n";
    return 1;
  }

  for (const char* token : {"Match Point", "Agnes Varda"}) {
    auto answer = engine->Answer(PrecisQuery{{token}}, *MinPathWeight(0.5),
                                 *MaxTuplesPerRelation(10));
    if (!answer.ok()) {
      std::cerr << answer.status() << "\n";
      return 1;
    }
    std::printf("précis of {\"%s\"}:\n%s\n", token,
                answer->database.Materialize()->DescribeSchema().c_str());
  }
  return 0;
}
