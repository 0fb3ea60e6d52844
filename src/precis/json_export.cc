#include "precis/json_export.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace precis {

namespace {

// The serializers below append into one pre-sized std::string instead of
// an ostringstream: AnswerToJson sits on the serving hot path (its output
// is what the body cache memoizes, DESIGN.md §16), and streaming through
// ostringstream costs a locale-aware formatting layer plus a final copy
// out of the stream. Byte-for-byte output is unchanged — integers format
// through std::to_chars into a stack buffer (the same digits std::to_string
// gives, without a temporary string per number), doubles keep their
// snprintf patterns.

// Appends the decimal digits of `v`; 24 bytes hold any 64-bit integer.
template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

void AppendUint(std::string* out, uint64_t v) { AppendInt(out, v); }

/// Appends a JSON array of strings.
void AppendStringArray(std::string* out,
                       const std::vector<std::string>& items) {
  *out += "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) *out += ",";
    *out += "\"";
    AppendJsonEscaped(out, items[i]);
    *out += "\"";
  }
  *out += "]";
}

void AppendValueJson(std::string* out, const Value& v) {
  if (v.is_null()) {
    *out += "null";
    return;
  }
  if (v.is_int64()) {
    AppendInt(out, v.AsInt64());
    return;
  }
  if (v.is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
    *out += buf;
    return;
  }
  *out += "\"";
  AppendJsonEscaped(out, v.AsString());
  *out += "\"";
}

/// Rough per-relation output size used to reserve the destination buffer
/// up front: schema boilerplate plus a conservative per-cell estimate.
/// Short numeric cells stay well under this; long strings overflow into
/// the string's normal growth, so the estimate only needs to be close.
size_t EstimateRelationJsonBytes(const Relation& relation) {
  const size_t cells =
      relation.num_tuples() * relation.schema().num_attributes();
  return 96 + 64 * relation.schema().num_attributes() + 8 * cells +
         relation.num_tuples() * 4;
}

void AppendRelation(std::string* out, const Relation& relation) {
  const RelationSchema& schema = relation.schema();
  *out += "{\"name\":\"";
  AppendJsonEscaped(out, schema.name());
  *out += "\",\"attributes\":[";
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) *out += ",";
    const AttributeSchema& attr = schema.attribute(i);
    *out += "{\"name\":\"";
    AppendJsonEscaped(out, attr.name);
    *out += "\",\"type\":\"";
    *out += DataTypeToString(attr.type);
    *out += "\",\"primary_key\":";
    *out += (schema.primary_key() && *schema.primary_key() == i) ? "true"
                                                                 : "false";
    *out += "}";
  }
  *out += "],\"tuples\":[";
  for (Tid tid = 0; tid < relation.num_tuples(); ++tid) {
    if (tid > 0) *out += ",";
    *out += "[";
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      if (i > 0) *out += ",";
      AppendValueJson(out, relation.ColumnValue(tid, i));
    }
    *out += "]";
  }
  *out += "]}";
}

void AppendDatabaseJson(std::string* out, const Database& db) {
  *out += "{\"name\":\"";
  AppendJsonEscaped(out, db.name());
  *out += "\",\"relations\":[";
  bool first = true;
  for (const std::string& name : db.RelationNames()) {
    auto rel = db.GetRelation(name);
    if (!rel.ok()) continue;
    if (!first) *out += ",";
    first = false;
    AppendRelation(out, **rel);
  }
  *out += "],\"foreign_keys\":[";
  for (size_t i = 0; i < db.foreign_keys().size(); ++i) {
    if (i > 0) *out += ",";
    const ForeignKey& fk = db.foreign_keys()[i];
    *out += "{\"child\":\"";
    AppendJsonEscaped(out, fk.child_relation);
    *out += "\",\"child_attribute\":\"";
    AppendJsonEscaped(out, fk.child_attribute);
    *out += "\",\"parent\":\"";
    AppendJsonEscaped(out, fk.parent_relation);
    *out += "\",\"parent_attribute\":\"";
    AppendJsonEscaped(out, fk.parent_attribute);
    *out += "\"}";
  }
  *out += "]}";
}

size_t EstimateDatabaseJsonBytes(const Database& db) {
  size_t bytes = 64 + 96 * db.foreign_keys().size();
  for (const std::string& name : db.RelationNames()) {
    auto rel = db.GetRelation(name);
    if (rel.ok()) bytes += EstimateRelationJsonBytes(**rel);
  }
  return bytes;
}

}  // namespace

void AppendJsonEscaped(std::string* out, std::string_view raw) {
  // Bytes that need no escape are copied a run at a time.
  size_t run = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(raw[i]);
    const char* escaped;
    switch (c) {
      case '"':
        escaped = "\\\"";
        break;
      case '\\':
        escaped = "\\\\";
        break;
      case '\n':
        escaped = "\\n";
        break;
      case '\r':
        escaped = "\\r";
        break;
      case '\t':
        escaped = "\\t";
        break;
      default:
        if (c >= 0x20) continue;
        escaped = nullptr;
    }
    out->append(raw.data() + run, i - run);
    run = i + 1;
    if (escaped != nullptr) {
      out->append(escaped);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    }
  }
  out->append(raw.data() + run, raw.size() - run);
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  AppendJsonEscaped(&out, raw);
  return out;
}

std::string ValueToJson(const Value& v) {
  std::string out;
  AppendValueJson(&out, v);
  return out;
}

std::string DatabaseToJson(const Database& db) {
  std::string out;
  out.reserve(EstimateDatabaseJsonBytes(db));
  AppendDatabaseJson(&out, db);
  return out;
}

std::string AnswerToJson(const PrecisAnswer& answer) {
  std::string out;
  {
    // Size the buffer once from the answer's own counts so the append
    // loops below almost never reallocate (satellite of DESIGN.md §16).
    size_t estimate = 512 + EstimateDatabaseJsonBytes(answer.database);
    for (const TokenMatch& match : answer.matches) {
      estimate += 96 + match.token.size() + match.resolved_token.size();
      for (const TokenOccurrence& occ : match.occurrences()) {
        estimate += 64 + occ.relation.size() + occ.attribute.size();
      }
    }
    estimate += 128 * answer.schema.relations().size() +
                160 * answer.schema.join_edges().size() +
                96 * answer.report.degradation.relations.size() +
                32 * (answer.report.executed_edges.size() +
                      answer.report.truncated_relations.size() +
                      answer.report.dropped_foreign_keys.size());
    out.reserve(estimate);
  }
  out += "{\"matches\":[";
  for (size_t m = 0; m < answer.matches.size(); ++m) {
    if (m > 0) out += ",";
    const TokenMatch& match = answer.matches[m];
    out += "{\"token\":\"";
    AppendJsonEscaped(&out, match.token);
    out += "\",\"resolved_token\":\"";
    AppendJsonEscaped(&out, match.resolved_token);
    out += "\",\"occurrences\":[";
    for (size_t o = 0; o < match.occurrences().size(); ++o) {
      if (o > 0) out += ",";
      const TokenOccurrence& occ = match.occurrences()[o];
      out += "{\"relation\":\"";
      AppendJsonEscaped(&out, occ.relation);
      out += "\",\"attribute\":\"";
      AppendJsonEscaped(&out, occ.attribute);
      out += "\",\"matched_tuples\":";
      AppendUint(&out, occ.tids.size());
      out += "}";
    }
    out += "]}";
  }
  out += "],\"schema\":{\"relations\":[";
  const SchemaGraph& graph = answer.schema.graph();
  bool first = true;
  for (RelationNodeId rel : answer.schema.relations()) {
    if (!first) out += ",";
    first = false;
    const RelationSchema& rel_schema = graph.relation_schema(rel);
    bool is_token =
        std::find(answer.schema.token_relations().begin(),
                  answer.schema.token_relations().end(),
                  rel) != answer.schema.token_relations().end();
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, rel_schema.name());
    out += "\",\"token_relation\":";
    out += is_token ? "true" : "false";
    out += ",\"in_degree\":";
    AppendUint(&out, answer.schema.in_degree(rel));
    out += ",\"projected_attributes\":";
    std::vector<std::string> attrs;
    for (uint32_t a : answer.schema.projected_attributes(rel)) {
      attrs.push_back(rel_schema.attribute(a).name);
    }
    AppendStringArray(&out, attrs);
    out += "}";
  }
  out += "],\"join_edges\":[";
  for (size_t i = 0; i < answer.schema.join_edges().size(); ++i) {
    if (i > 0) out += ",";
    const JoinEdge* e = answer.schema.join_edges()[i];
    out += "{\"from\":\"";
    AppendJsonEscaped(&out, graph.relation_name(e->from));
    out += "\",\"to\":\"";
    AppendJsonEscaped(&out, graph.relation_name(e->to));
    out += "\",\"from_attribute\":\"";
    AppendJsonEscaped(&out, e->from_attribute);
    out += "\",\"to_attribute\":\"";
    AppendJsonEscaped(&out, e->to_attribute);
    out += "\",\"weight\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", e->weight);
    out += buf;
    out += "}";
  }
  out += "]},\"database\":";
  AppendDatabaseJson(&out, answer.database);
  out += ",\"report\":{\"total_tuples\":";
  AppendUint(&out, answer.report.total_tuples);
  out += ",\"executed_edges\":";
  AppendStringArray(&out, answer.report.executed_edges);
  out += ",\"truncated_relations\":";
  AppendStringArray(&out, answer.report.truncated_relations);
  out += ",\"dropped_foreign_keys\":";
  AppendStringArray(&out, answer.report.dropped_foreign_keys);
  // Execution outcome (DESIGN.md §12): why generation stopped early and
  // what injected faults cost the answer, per relation. A web front end
  // needs these to caption a partial or degraded précis honestly.
  out += ",\"stop_reason\":\"";
  out += StopReasonToString(answer.report.stop_reason);
  out += "\",\"fault_tainted\":";
  out += answer.report.fault_tainted ? "true" : "false";
  out += ",\"degradation\":[";
  bool first_entry = true;
  for (const RelationDegradation& d : answer.report.degradation.relations) {
    if (!first_entry) out += ",";
    first_entry = false;
    out += "{\"relation\":\"";
    AppendJsonEscaped(&out, d.relation);
    out += "\",\"dropped_tuples\":";
    AppendUint(&out, d.dropped_tuples);
    out += ",\"failed_lookups\":";
    AppendUint(&out, d.failed_lookups);
    out += ",\"retries\":";
    AppendUint(&out, d.retries);
    if (d.unavailable_tuples > 0) {
      // Only shard outages produce these; omitting the zero keeps every
      // pre-existing report byte-identical (DESIGN.md §17 taint rules).
      out += ",\"unavailable_tuples\":";
      AppendUint(&out, d.unavailable_tuples);
    }
    out += "}";
  }
  out += "]";
  if (!answer.report.degradation.shards_skipped.empty()) {
    // Shard-outage block (DESIGN.md §17), emitted only when shards were
    // actually skipped so clean answers keep their exact bytes.
    out += ",\"shards_skipped\":[";
    const auto& skipped = answer.report.degradation.shards_skipped;
    for (size_t i = 0; i < skipped.size(); ++i) {
      if (i > 0) out += ",";
      AppendUint(&out, skipped[i]);
    }
    out += "],\"shards_total\":";
    AppendUint(&out, answer.report.degradation.shards_total);
  }
  out += "}}";
  return out;
}

}  // namespace precis
