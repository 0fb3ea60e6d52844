// Result Database Translator (paper §5.3): renders the relational answer of
// a précis query as a natural-language synthesis of results.
//
// "The translation is realized separately for every occurrence of a token.
//  ... the analysis of the query result graph starts from the relation that
//  contains the input token. The labels of the projection edges ... are
//  evaluated first. ... After having constructed the clause for the relation
//  that contains the input token, we compose additional clauses that combine
//  information from more than one relation by using foreign key
//  relationships. ... The procedure ends when the traversal of the database
//  graph is complete."

#ifndef PRECIS_TRANSLATOR_TRANSLATOR_H_
#define PRECIS_TRANSLATOR_TRANSLATOR_H_

#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/result.h"
#include "precis/engine.h"
#include "translator/catalog.h"

namespace precis {

/// \brief Renders PrecisAnswers to text through a TemplateCatalog.
class Translator {
 public:
  explicit Translator(const TemplateCatalog* catalog) : catalog_(catalog) {}

  /// Renders the whole answer: one paragraph per token occurrence (the
  /// paper's homonym handling — "the answer of the précis query comprises
  /// one part for each token occurrence"), paragraphs separated by blank
  /// lines. An empty answer renders to an empty string.
  ///
  /// When `ctx` is given, the render is recorded as a "translate" trace
  /// span and stops between occurrences once the context says to; the
  /// paragraphs produced so far are returned (rendering reads the
  /// answer's accepted tuples from the source uncharged, so it charges no
  /// storage accesses).
  Result<std::string> Render(const PrecisAnswer& answer,
                             ExecutionContext* ctx = nullptr) const;

  /// Renders the paragraphs for one token occurrence: one paragraph per
  /// subject tuple of the occurrence's relation that contains the token.
  /// Stops between subject tuples once `ctx` says to.
  Result<std::vector<std::string>> RenderOccurrence(
      const PrecisAnswer& answer, const std::string& token,
      const TokenOccurrence& occurrence,
      ExecutionContext* ctx = nullptr) const;

 private:
  const TemplateCatalog* catalog_;
};

}  // namespace precis

#endif  // PRECIS_TRANSLATOR_TRANSLATOR_H_
