#include "storage/serialization.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace precis {

namespace {

constexpr char kMagic[] = "PRECISDB";
constexpr int kVersion = 1;
constexpr char kNullToken[] = "\\N";

std::string FieldOf(const Value& v) {
  if (v.is_null()) return kNullToken;
  if (v.is_double()) {
    // Value::ToString() uses display precision; round-tripping needs full
    // precision.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
    return buf;
  }
  return EscapeTsvField(v.ToString());
}

Result<Value> ValueFromField(const std::string& field, DataType type) {
  if (field == kNullToken) return Value::Null();
  auto raw = UnescapeTsvField(field);
  if (!raw.ok()) return raw.status();
  switch (type) {
    case DataType::kInt64: {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(raw->c_str(), &end, 10);
      if (errno != 0 || end == raw->c_str() || *end != '\0') {
        return Status::InvalidArgument("bad INT64 literal '" + *raw + "'");
      }
      return Value(static_cast<int64_t>(v));
    }
    case DataType::kDouble: {
      errno = 0;
      char* end = nullptr;
      double v = std::strtod(raw->c_str(), &end);
      if (errno != 0 || end == raw->c_str() || *end != '\0') {
        return Status::InvalidArgument("bad DOUBLE literal '" + *raw + "'");
      }
      return Value(v);
    }
    case DataType::kString:
      return Value(std::move(*raw));
  }
  return Status::Internal("unhandled data type");
}

/// Non-throwing unsigned count parser (std::stoull throws on garbage,
/// which a loader fed untrusted input must not).
Result<size_t> ParseCount(const std::string& s) {
  if (s.empty()) return Status::InvalidArgument("empty count");
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad count '" + s + "'");
  }
  return static_cast<size_t>(v);
}

Result<DataType> DataTypeFromString(const std::string& s) {
  if (s == "INT64") return DataType::kInt64;
  if (s == "DOUBLE") return DataType::kDouble;
  if (s == "STRING") return DataType::kString;
  return Status::InvalidArgument("unknown data type '" + s + "'");
}

/// Reads the next line; false at EOF.
bool NextLine(std::istream* in, std::string* line) {
  return static_cast<bool>(std::getline(*in, *line));
}

}  // namespace

std::string EscapeTsvField(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Result<std::string> UnescapeTsvField(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    char c = escaped[i];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (i + 1 >= escaped.size()) {
      return Status::InvalidArgument("dangling escape in TSV field");
    }
    char next = escaped[++i];
    switch (next) {
      case 't':
        out.push_back('\t');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case '\\':
        out.push_back('\\');
        break;
      default:
        return Status::InvalidArgument(
            std::string("unknown escape '\\") + next + "' in TSV field");
    }
  }
  return out;
}

Status SaveDatabase(const Database& db, std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null output stream");
  *out << kMagic << " " << kVersion << "\n";
  *out << "DATABASE " << EscapeTsvField(db.name()) << "\n";

  for (const std::string& name : db.RelationNames()) {
    auto rel = db.GetRelation(name);
    if (!rel.ok()) return rel.status();
    const RelationSchema& schema = (*rel)->schema();
    *out << "RELATION " << name << " " << schema.num_attributes() << "\n";
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      const AttributeSchema& attr = schema.attribute(i);
      *out << "ATTR " << attr.name << " " << DataTypeToString(attr.type);
      if (schema.primary_key() && *schema.primary_key() == i) *out << " PK";
      *out << "\n";
    }
  }
  for (const std::string& name : db.RelationNames()) {
    auto rel = db.GetRelation(name);
    for (const std::string& attr : (*rel)->IndexedAttributes()) {
      *out << "INDEX " << name << " " << attr << "\n";
    }
  }
  for (const ForeignKey& fk : db.foreign_keys()) {
    *out << "FK " << fk.child_relation << " " << fk.child_attribute << " "
         << fk.parent_relation << " " << fk.parent_attribute << "\n";
  }
  for (const std::string& name : db.RelationNames()) {
    auto rel = db.GetRelation(name);
    *out << "DATA " << name << " " << (*rel)->num_tuples() << "\n";
    for (Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
      for (size_t i = 0; i < (*rel)->schema().num_attributes(); ++i) {
        if (i > 0) *out << '\t';
        *out << FieldOf((*rel)->ColumnValue(tid, i));
      }
      *out << "\n";
    }
  }
  if (!out->good()) return Status::Internal("write failure while saving");
  return Status::OK();
}

Status SaveDatabaseToFile(const Database& db, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  return SaveDatabase(db, &out);
}

Result<Database> LoadDatabase(std::istream* in) {
  if (in == nullptr) return Status::InvalidArgument("null input stream");
  std::string line;
  if (!NextLine(in, &line)) {
    return Status::InvalidArgument("empty input");
  }
  {
    std::vector<std::string> header = Split(line, ' ');
    if (header.size() != 2 || header[0] != kMagic) {
      return Status::InvalidArgument("bad header: '" + line + "'");
    }
    if (header[1] != std::to_string(kVersion)) {
      return Status::InvalidArgument("unsupported version '" + header[1] +
                                     "'");
    }
  }
  if (!NextLine(in, &line) || !StartsWith(line, "DATABASE ")) {
    return Status::InvalidArgument("expected DATABASE line");
  }
  auto db_name = UnescapeTsvField(line.substr(9));
  if (!db_name.ok()) return db_name.status();
  Database db(*db_name);

  // Pending relation schema being assembled.
  std::string pending_name;
  size_t pending_attrs = 0;
  std::vector<AttributeSchema> attrs;
  std::string pending_pk;

  auto flush_relation = [&]() -> Status {
    if (pending_name.empty()) return Status::OK();
    if (attrs.size() != pending_attrs) {
      return Status::InvalidArgument(
          "relation '" + pending_name + "' declared " +
          std::to_string(pending_attrs) + " attributes but listed " +
          std::to_string(attrs.size()));
    }
    RelationSchema schema(pending_name, std::move(attrs));
    if (!pending_pk.empty()) {
      PRECIS_RETURN_NOT_OK(schema.SetPrimaryKey(pending_pk));
    }
    PRECIS_RETURN_NOT_OK(db.CreateRelation(std::move(schema)));
    pending_name.clear();
    pending_attrs = 0;
    attrs = {};
    pending_pk.clear();
    return Status::OK();
  };

  // SaveDatabase writes every INDEX line before any DATA section; the
  // indexes are built once the rows are in.
  std::vector<std::pair<Relation*, std::string>> deferred_indexes;

  while (NextLine(in, &line)) {
    if (line.empty()) continue;
    std::vector<std::string> parts = Split(line, ' ');
    const std::string& kind = parts[0];

    if (kind == "RELATION") {
      PRECIS_RETURN_NOT_OK(flush_relation());
      if (parts.size() != 3) {
        return Status::InvalidArgument("bad RELATION line: " + line);
      }
      pending_name = parts[1];
      auto count = ParseCount(parts[2]);
      if (!count.ok()) return count.status();
      pending_attrs = *count;
    } else if (kind == "ATTR") {
      if (pending_name.empty()) {
        return Status::InvalidArgument("ATTR outside RELATION: " + line);
      }
      if (parts.size() != 3 && !(parts.size() == 4 && parts[3] == "PK")) {
        return Status::InvalidArgument("bad ATTR line: " + line);
      }
      auto type = DataTypeFromString(parts[2]);
      if (!type.ok()) return type.status();
      attrs.push_back(AttributeSchema{parts[1], *type});
      if (parts.size() == 4) pending_pk = parts[1];
    } else if (kind == "INDEX") {
      PRECIS_RETURN_NOT_OK(flush_relation());
      if (parts.size() != 3) {
        return Status::InvalidArgument("bad INDEX line: " + line);
      }
      auto rel = db.GetRelation(parts[1]);
      if (!rel.ok()) return rel.status();
      auto attr = (*rel)->schema().AttributeIndex(parts[2]);
      if (!attr.ok()) return attr.status();
      deferred_indexes.emplace_back(*rel, parts[2]);
    } else if (kind == "FK") {
      PRECIS_RETURN_NOT_OK(flush_relation());
      if (parts.size() != 5) {
        return Status::InvalidArgument("bad FK line: " + line);
      }
      PRECIS_RETURN_NOT_OK(
          db.AddForeignKey({parts[1], parts[2], parts[3], parts[4]}));
    } else if (kind == "DATA") {
      PRECIS_RETURN_NOT_OK(flush_relation());
      if (parts.size() != 3) {
        return Status::InvalidArgument("bad DATA line: " + line);
      }
      auto rel = db.GetRelation(parts[1]);
      if (!rel.ok()) return rel.status();
      const RelationSchema& schema = (*rel)->schema();
      auto count = ParseCount(parts[2]);
      if (!count.ok()) return count.status();
      size_t n = *count;
      for (size_t row = 0; row < n; ++row) {
        if (!NextLine(in, &line)) {
          return Status::InvalidArgument("truncated DATA section for '" +
                                         parts[1] + "'");
        }
        std::vector<std::string> fields = Split(line, '\t');
        if (fields.size() != schema.num_attributes()) {
          return Status::InvalidArgument(
              "row arity mismatch in '" + parts[1] + "': " + line);
        }
        Tuple tuple;
        tuple.reserve(fields.size());
        for (size_t i = 0; i < fields.size(); ++i) {
          auto value = ValueFromField(fields[i], schema.attribute(i).type);
          if (!value.ok()) return value.status();
          tuple.push_back(std::move(*value));
        }
        auto tid = (*rel)->Insert(std::move(tuple));
        if (!tid.ok()) return tid.status();
      }
    } else {
      return Status::InvalidArgument("unknown line kind '" + kind + "'");
    }
  }
  PRECIS_RETURN_NOT_OK(flush_relation());
  for (const auto& [rel, attr] : deferred_indexes) {
    PRECIS_RETURN_NOT_OK(rel->CreateIndex(attr));
  }
  return db;
}

Result<Database> LoadDatabaseFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::InvalidArgument("cannot open '" + path + "' for reading");
  }
  return LoadDatabase(&in);
}

}  // namespace precis
