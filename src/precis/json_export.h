// JSON export of précis answers.
//
// Web front-ends are the paper's motivating deployment ("web accessible
// databases ... as libraries, museums, and other organizations publish
// their electronic contents on the Web"); this module gives them a
// machine-readable answer format. Hand-rolled emitter, no dependencies;
// output is deterministic (relation and attribute order follow the schema).

#ifndef PRECIS_PRECIS_JSON_EXPORT_H_
#define PRECIS_PRECIS_JSON_EXPORT_H_

#include <string>
#include <string_view>

#include "precis/engine.h"

namespace precis {

/// \brief Appends `raw` to `*out`, escaped for inclusion in a JSON string
/// literal (quotes, backslashes, control characters). Runs of bytes that
/// need no escape are copied with one append each.
void AppendJsonEscaped(std::string* out, std::string_view raw);

/// \brief AppendJsonEscaped into a fresh string.
std::string JsonEscape(const std::string& raw);

/// \brief One value as a JSON scalar: null, number, or string.
std::string ValueToJson(const Value& v);

/// \brief A full précis answer: token matches, the result schema D'
/// (relations, projected attributes, join edges, in-degrees), the result
/// database, and the generation report:
/// {"matches": [{"token", "resolved_token", "occurrences": [{"relation",
/// "attribute", "matched_tuples"}]}], "schema": ..., "database": {"name",
/// "relations": [{"name", "attributes": [{"name","type","primary_key"}],
/// "tuples": [[...]]}], "foreign_keys": [{"child", "child_attribute",
/// "parent", "parent_attribute"}]}, "report": ...}
/// The database's cells are read from the source by tid.
/// An occurrence renders how many tuples matched, not their tids: tids are
/// storage row ids no reader of the body can resolve, and the matched
/// tuples that made the cardinality cut are already in "database".
std::string AnswerToJson(const PrecisAnswer& answer);

}  // namespace precis

#endif  // PRECIS_PRECIS_JSON_EXPORT_H_
