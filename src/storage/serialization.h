// Text serialization of databases.
//
// The paper's second use case (§1) — deriving small test databases from
// production ones — only pays off if the derived database can leave the
// process. This module round-trips a Database (schema, primary/foreign
// keys, indexes, data) through a line-oriented text format:
//
//   PRECISDB 1
//   DATABASE <name>
//   RELATION <name> <num_attributes>
//   ATTR <name> <INT64|DOUBLE|STRING> [PK]
//   INDEX <relation> <attribute>
//   FK <child_rel> <child_attr> <parent_rel> <parent_attr>
//   DATA <relation> <num_tuples>
//   <tab-separated values, one tuple per line>
//
// Values are TSV-escaped (\t, \n, \r, \\); NULL is the unescaped token \N.
// Loading re-validates everything the way live inserts do (types, arity,
// primary-key uniqueness) and rebuilds the declared indexes once the data
// is in, each in bulk.

#ifndef PRECIS_STORAGE_SERIALIZATION_H_
#define PRECIS_STORAGE_SERIALIZATION_H_

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/database.h"

namespace precis {

/// \brief Writes the full database (schema + constraints + data) to `out`.
Status SaveDatabase(const Database& db, std::ostream* out);

/// \brief SaveDatabase to a file path (overwrites).
Status SaveDatabaseToFile(const Database& db, const std::string& path);

/// \brief Reads a database previously written by SaveDatabase.
Result<Database> LoadDatabase(std::istream* in);

/// \brief LoadDatabase from a file path.
Result<Database> LoadDatabaseFromFile(const std::string& path);

/// \brief Escapes one value for a TSV field (exposed for tests).
std::string EscapeTsvField(const std::string& raw);

/// \brief Reverses EscapeTsvField (exposed for tests).
Result<std::string> UnescapeTsvField(const std::string& escaped);

}  // namespace precis

#endif  // PRECIS_STORAGE_SERIALIZATION_H_
