// Helpers shared by the Fig. 5 planner (database_generator.cc) and the
// sequential-walk test oracle (tests/sequential_walk.cc).
//
// The planner's determinism guarantee ("byte-identical output to the
// classic walk") rests on the two computing the same emitted attribute
// sets, the same SQL trace text, the same FK-holds verdicts and the same
// degradation-report order from the same inputs, so both use these.

#ifndef PRECIS_PRECIS_DBGEN_COMMON_H_
#define PRECIS_PRECIS_DBGEN_COMMON_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_set>
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

/// True if `fk` holds on the (already emitted) data of `db`: every non-NULL
/// child value appears among the parent values.
inline bool ForeignKeyHolds(const Database& db, const ForeignKey& fk) {
  auto child = db.GetRelation(fk.child_relation);
  auto parent = db.GetRelation(fk.parent_relation);
  if (!child.ok() || !parent.ok()) return false;
  auto child_idx = (*child)->schema().AttributeIndex(fk.child_attribute);
  auto parent_idx = (*parent)->schema().AttributeIndex(fk.parent_attribute);
  if (!child_idx.ok() || !parent_idx.ok()) return false;
  const Column& child_col = (*child)->column(*child_idx);
  const Column& parent_col = (*parent)->column(*parent_idx);
  if (child_col.type() == parent_col.type()) {
    // Same-type columns: compare canonical 64-bit key bits straight off the
    // columnar payload instead of hashing 40-byte Values. Semantics match
    // Value equality exactly: NULLs are skipped on the child side and
    // contribute nothing on the parent side; a NaN child value equals
    // nothing (CanonicalBits -> nullopt, like NaN self-inequality under
    // Value::operator==); a NaN parent value can never be matched, so
    // skipping its insert is unobservable; -0.0 canonicalizes to +0.0 on
    // both sides.
    const DataType type = child_col.type();
    std::unordered_set<uint64_t> parent_bits;
    parent_bits.reserve(parent_col.size());
    for (Tid tid = 0; tid < parent_col.size(); ++tid) {
      if (parent_col.IsNull(tid)) continue;
      auto bits = Column::CanonicalBits(parent_col.raw_bits(tid), type);
      if (bits) parent_bits.insert(*bits);
    }
    for (Tid tid = 0; tid < child_col.size(); ++tid) {
      if (child_col.IsNull(tid)) continue;
      auto bits = Column::CanonicalBits(child_col.raw_bits(tid), type);
      if (!bits || parent_bits.count(*bits) == 0) return false;
    }
    return true;
  }
  std::unordered_set<Value, ValueHash> parent_values;
  for (Tid tid = 0; tid < (*parent)->num_tuples(); ++tid) {
    parent_values.insert((*parent)->tuple(tid)[*parent_idx]);
  }
  for (Tid tid = 0; tid < (*child)->num_tuples(); ++tid) {
    const Value& v = (*child)->tuple(tid)[*child_idx];
    if (v.is_null()) continue;
    if (parent_values.count(v) == 0) return false;
  }
  return true;
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
