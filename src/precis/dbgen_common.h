// Helpers shared by the Fig. 5 planner (database_generator.cc) and the
// sequential-walk test oracle (tests/sequential_walk.cc).
//
// The planner's determinism guarantee ("byte-identical output to the
// classic walk") rests on the two computing the same emitted attribute
// sets, the same SQL trace text and the same degradation-report order from
// the same inputs, so both use these. FK-holds verdicts are deliberately
// not shared: the planner checks the accepted tuples' keys in the source
// columns, while the oracle runs Database::CheckForeignKey over the copy
// it builds, so each checks the other.

#ifndef PRECIS_PRECIS_DBGEN_COMMON_H_
#define PRECIS_PRECIS_DBGEN_COMMON_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "precis/database_generator.h"
#include "precis/result_schema.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace precis {
namespace dbgen_internal {

/// True when fault checks can fire for this query. Generation branches on
/// this once so the fault-free hot path stays a direct call.
inline bool FaultsArmed(const ExecutionContext* ctx) {
  return ctx != nullptr && ctx->fault_injector() != nullptr &&
         ctx->fault_injector()->armed();
}

/// Find-or-append accessor for the per-relation degradation entry; first
/// degradation event determines report order (deterministic per seed).
inline RelationDegradation& DegradationFor(DegradationReport& report,
                                           const std::string& relation) {
  for (RelationDegradation& r : report.relations) {
    if (r.relation == relation) return r;
  }
  report.relations.push_back(RelationDegradation{relation});
  return report.relations.back();
}

/// The attribute indices a result relation exposes: the projections of G'
/// plus (optionally) the join attributes of its incident edges.
inline std::vector<size_t> EmittedAttributeIndices(
    const ResultSchema& schema, RelationNodeId rel,
    bool include_join_attributes) {
  const RelationSchema& src_schema = schema.graph().relation_schema(rel);
  std::set<uint32_t> attrs = schema.projected_attributes(rel);
  if (include_join_attributes) {
    for (const JoinEdge* e : schema.join_edges()) {
      if (e->from == rel) {
        auto idx = src_schema.AttributeIndex(e->from_attribute);
        if (idx.ok()) attrs.insert(static_cast<uint32_t>(*idx));
      }
      if (e->to == rel) {
        auto idx = src_schema.AttributeIndex(e->to_attribute);
        if (idx.ok()) attrs.insert(static_cast<uint32_t>(*idx));
      }
    }
  }
  return std::vector<size_t>(attrs.begin(), attrs.end());
}

/// Renders the sigma_Tids seed query as SQL text for the trace.
inline std::string RenderSeedSql(const RelationSchema& schema,
                                 const std::vector<size_t>& projection,
                                 const std::vector<Tid>& tids) {
  std::string sql = "SELECT ";
  if (projection.empty()) {
    sql += "*";
  } else {
    for (size_t i = 0; i < projection.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += schema.attribute(projection[i]).name;
    }
  }
  sql += " FROM " + schema.name() + " WHERE rowid IN (";
  for (size_t i = 0; i < tids.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += std::to_string(tids[i]);
  }
  sql += ")";
  return sql;
}

/// Renders the sigma_{A in Ids} join query as SQL text for the trace, e.g.
/// "SELECT title, year FROM MOVIE WHERE did IN (3, 17)", with NaiveQ's cap
/// as "AND RowNum <= k".
inline std::string RenderInListSql(const RelationSchema& schema,
                                   const std::string& attribute,
                                   const std::vector<Value>& keys,
                                   const std::vector<size_t>& projection,
                                   std::optional<size_t> limit) {
  std::string sql = "SELECT ";
  for (size_t i = 0; i < projection.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += schema.attribute(projection[i]).name;
  }
  if (projection.empty()) sql += "*";
  sql += " FROM " + schema.name() + " WHERE " + attribute + " IN (";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) sql += ", ";
    if (keys[i].is_string()) {
      sql += "'" + keys[i].ToString() + "'";
    } else {
      sql += keys[i].ToString();
    }
  }
  sql += ")";
  if (limit) sql += " AND RowNum <= " + std::to_string(*limit);
  return sql;
}

/// True if the join edge is to-1: its destination attribute is the
/// destination relation's primary key, so each source tuple joins with at
/// most one destination tuple.
inline bool IsToOne(const JoinEdge& edge, const RelationSchema& to_schema) {
  if (!to_schema.primary_key()) return false;
  auto idx = to_schema.AttributeIndex(edge.to_attribute);
  if (!idx.ok()) return false;
  return *idx == *to_schema.primary_key();
}

}  // namespace dbgen_internal
}  // namespace precis

#endif  // PRECIS_PRECIS_DBGEN_COMMON_H_
