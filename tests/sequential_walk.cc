#include "sequential_walk.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/retry.h"
#include "oracle_scans.h"
#include "precis/dbgen_common.h"

namespace precis {

using dbgen_internal::DegradationFor;
using dbgen_internal::EmittedAttributeIndices;
using dbgen_internal::FaultsArmed;
using dbgen_internal::IsToOne;
using dbgen_internal::RenderInListSql;
using dbgen_internal::RenderSeedSql;

namespace {

std::vector<size_t> IdentityProjection(const RelationSchema& schema) {
  std::vector<size_t> out(schema.num_attributes());
  for (size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

/// Tuples collected so far for one result relation.
struct Collected {
  std::vector<Row> rows;          // in retrieval order (full source tuples)
  std::unordered_set<Tid> seen;   // duplicate elimination by rowid
  /// Arrival tags per tuple (path-aware propagation): the G' join edges
  /// that delivered the tuple, nullptr meaning "seeded by the query
  /// tokens". A tuple reached over several edges carries every tag.
  std::unordered_map<Tid, std::vector<const JoinEdge*>> arrivals;

  void Tag(Tid tid, const JoinEdge* arrival) {
    std::vector<const JoinEdge*>& tags = arrivals[tid];
    for (const JoinEdge* t : tags) {
      if (t == arrival) return;
    }
    tags.push_back(arrival);
  }
};

/// Ordered distinct non-NULL values of `attribute` over the collected rows —
/// the IN-list for the next join query. The order follows the order in which
/// the source tuples were collected, which is what gives NaiveQ its
/// "prefix of the source tuples" behaviour on truncation.
Result<std::vector<Value>> JoinKeys(
    const Collected& collected, const RelationSchema& schema,
    const std::string& attribute,
    const std::set<const JoinEdge*>* allowed_arrivals) {
  auto idx = schema.AttributeIndex(attribute);
  if (!idx.ok()) return idx.status();
  std::vector<Value> keys;
  std::unordered_set<Value, ValueHash> dedup;
  for (const Row& row : collected.rows) {
    if (allowed_arrivals != nullptr) {
      auto tags = collected.arrivals.find(row.tid);
      bool feeds = false;
      if (tags != collected.arrivals.end()) {
        for (const JoinEdge* t : tags->second) {
          if (allowed_arrivals->count(t) > 0) {
            feeds = true;
            break;
          }
        }
      }
      if (!feeds) continue;
    }
    const Value& v = row.values[*idx];
    if (v.is_null()) continue;
    if (dedup.insert(v).second) keys.push_back(v);
  }
  return keys;
}

}  // namespace

Result<Database> SequentialWalk(const Database& db,
                                const ResultSchema& schema,
                                const SeedTids& seeds,
                                const CardinalityConstraint& c,
                                const DbGenOptions& options,
                                ExecutionContext* ctx, DbGenReport* report,
                                std::map<RelationNodeId, std::vector<Tid>>*
                                    accepted) {
  *report = DbGenReport{};
  const SchemaGraph& graph = schema.graph();

  // Per-query arena for scratch tid vectors (ordered seeds, ranked
  // candidates): bump-allocated, freed wholesale with the context (or at
  // the end of this call when no context is attached).
  Arena local_arena;
  Arena* arena = ctx != nullptr ? &ctx->arena() : &local_arena;

  // Per-query stop check (deadline / access budget / cancellation). On
  // stop, fetching ends wherever it is and the algorithm falls through to
  // the emit steps, so the caller always receives a well-formed database.
  auto stopped = [&] { return ctx != nullptr && ctx->ShouldStop(); };

  // Fault injection (DESIGN.md §12): when the context carries an armed
  // injector, every storage access below retries transient faults with the
  // context's RetryPolicy; exhausted retries *degrade* the answer (dropped
  // tuple / failed lookup, accounted per relation) instead of failing the
  // run. The taint bit is set whenever the injector is armed — even if no
  // fault fires — so the engine's caches never store an answer produced
  // under fault conditions.
  const bool faults = FaultsArmed(ctx);
  report->fault_tainted = faults;
  auto degradation_for = [&](RelationNodeId rel) -> RelationDegradation& {
    return DegradationFor(report->degradation, graph.relation_name(rel));
  };
  // One counted tuple fetch, retried under faults (retries are accounted
  // before the caller sees the outcome).
  auto fetch = [&](RelationNodeId rel, const Relation& relation,
                   Tid tid) -> Result<Tuple> {
    if (!faults) return relation.Get(tid, ctx);
    uint64_t r = 0;
    auto t = RetryWithBackoff(ctx->retry_policy(), ctx, FaultSite::kTupleFetch,
                              [&] { return relation.Get(tid, ctx); }, &r);
    if (r > 0) degradation_for(rel).retries += r;
    return t;
  };

  // Resolve source relations once.
  std::map<RelationNodeId, const Relation*> source_relations;
  for (RelationNodeId rel : schema.relations()) {
    auto r = db.GetRelation(graph.relation_name(rel));
    if (!r.ok()) return r.status();
    source_relations[rel] = *r;
  }

  std::map<RelationNodeId, Collected> collected;
  for (RelationNodeId rel : schema.relations()) collected[rel];
  size_t total = 0;

  auto mark_truncated = [&](RelationNodeId rel) {
    const std::string& name = graph.relation_name(rel);
    auto& t = report->truncated_relations;
    if (std::find(t.begin(), t.end(), name) == t.end()) t.push_back(name);
  };

  // Step 1: D' <- tuples involving query tokens (sigma_Tids queries), each
  // relation's subset limited NaiveQ-style by the cardinality budget.
  for (const auto& [rel, tids] : seeds) {
    if (schema.relations().count(rel) == 0) {
      return Status::InvalidArgument("seed relation '" +
                                     graph.relation_name(rel) +
                                     "' is not part of the result schema");
    }
    if (stopped()) {
      mark_truncated(rel);
      continue;
    }
    const Relation& source = *source_relations[rel];
    source.CountStatement(ctx);  // one sigma_Tids query per seed relation
    if (options.trace_sql) {
      report->sql_trace.push_back(RenderSeedSql(
          source.schema(),
          EmittedAttributeIndices(schema, rel,
                                  options.include_join_attributes),
          tids));
    }
    Collected& col = collected[rel];
    ArenaVector<Tid> ordered_tids{ArenaAllocator<Tid>(arena)};
    ordered_tids.assign(tids.begin(), tids.end());
    if (options.tuple_weights != nullptr) {
      const std::string& rel_name = graph.relation_name(rel);
      std::stable_sort(ordered_tids.begin(), ordered_tids.end(),
                       [&](Tid a, Tid b) {
                         return options.tuple_weights->Weight(rel_name, a) >
                                options.tuple_weights->Weight(rel_name, b);
                       });
    }
    for (Tid tid : ordered_tids) {
      if (col.seen.count(tid) > 0) continue;
      if (stopped()) {
        mark_truncated(rel);
        break;
      }
      std::optional<size_t> budget = c.Budget(col.rows.size(), total);
      if (budget.has_value() && *budget == 0) {
        mark_truncated(rel);
        break;
      }
      auto tuple = fetch(rel, source, tid);
      if (!tuple.ok()) {
        if (tuple.status().IsUnavailable()) {
          // Retries exhausted: this seed tuple is lost, not the query.
          ++degradation_for(rel).dropped_tuples;
          continue;
        }
        return tuple.status();
      }
      col.seen.insert(tid);
      col.rows.push_back(Row{tid, std::move(*tuple)});
      col.Tag(tid, nullptr);
      ++total;
    }
  }

  // Path-aware propagation: for each G' edge, the arrival tags that may
  // drive it — nullptr (seed) when a P_d path starts with the edge, and
  // every edge that immediately precedes it on some P_d path.
  std::map<const JoinEdge*, std::set<const JoinEdge*>> feeders;
  if (options.path_aware_propagation) {
    for (const Path& path : schema.projection_paths()) {
      const std::vector<const JoinEdge*>& joins = path.joins();
      for (size_t i = 0; i < joins.size(); ++i) {
        feeders[joins[i]].insert(i == 0 ? nullptr : joins[i - 1]);
      }
    }
  }

  // Step 2: loop over the join edges of G'. An edge is preferably executed
  // only when every join arriving at its source relation has already been
  // executed (in-degree postponement); among applicable edges the one with
  // the highest weight precedes. If postponement ever blocks all remaining
  // edges (a cycle among G' relations), the best remaining edge runs anyway
  // so the algorithm always terminates.
  std::map<RelationNodeId, int> pending;
  for (RelationNodeId rel : schema.relations()) {
    pending[rel] = schema.in_degree(rel);
  }
  std::unordered_set<const JoinEdge*> executed;

  while (!stopped() && executed.size() < schema.join_edges().size()) {
    const JoinEdge* next = nullptr;
    bool next_applicable = false;
    for (const JoinEdge* e : schema.join_edges()) {
      if (executed.count(e) > 0) continue;
      bool applicable = pending[e->from] == 0;
      bool better;
      if (next == nullptr) {
        better = true;
      } else if (applicable != next_applicable) {
        better = applicable;
      } else {
        better = e->weight > next->weight;
      }
      if (better) {
        next = e;
        next_applicable = applicable;
      }
    }
    // next != nullptr by the loop condition.
    const JoinEdge& edge = *next;
    const Relation& to_relation = *source_relations[edge.to];
    const RelationSchema& from_schema =
        graph.relation_schema(edge.from);
    const RelationSchema& to_schema = graph.relation_schema(edge.to);

    const std::set<const JoinEdge*>* allowed = nullptr;
    if (options.path_aware_propagation) {
      allowed = &feeders[&edge];
    }
    auto keys = JoinKeys(collected[edge.from], from_schema,
                         edge.from_attribute, allowed);
    if (!keys.ok()) return keys.status();

    SubsetStrategy strategy = options.strategy;
    if (strategy == SubsetStrategy::kAuto) {
      strategy = IsToOne(edge, to_schema) ? SubsetStrategy::kNaiveQ
                                          : SubsetStrategy::kRoundRobin;
    }

    Collected& col = collected[edge.to];
    std::vector<size_t> projection = IdentityProjection(to_schema);

    if (options.trace_sql) {
      std::vector<size_t> display = EmittedAttributeIndices(
          schema, edge.to, options.include_join_attributes);
      if (strategy == SubsetStrategy::kRoundRobin &&
          options.tuple_weights == nullptr) {
        // One cursor per probe value.
        for (const Value& key : *keys) {
          report->sql_trace.push_back(RenderInListSql(
              to_schema, edge.to_attribute, {key}, display, std::nullopt));
        }
      } else {
        std::optional<size_t> limit;
        std::optional<size_t> budget = c.Budget(col.rows.size(), total);
        if (strategy == SubsetStrategy::kNaiveQ &&
            options.tuple_weights == nullptr && budget.has_value()) {
          limit = budget;  // NaiveQ pushes the cap down as RowNum
        }
        report->sql_trace.push_back(RenderInListSql(
            to_schema, edge.to_attribute, *keys, display, limit));
      }
    }

    auto try_add = [&](Row row) -> bool {
      // Returns false when the budget is exhausted. Duplicates are skipped
      // without consuming budget (but still gain this edge's arrival tag).
      if (col.seen.count(row.tid) > 0) {
        col.Tag(row.tid, &edge);
        return true;
      }
      if (stopped()) {
        mark_truncated(edge.to);
        return false;
      }
      std::optional<size_t> budget = c.Budget(col.rows.size(), total);
      if (budget.has_value() && *budget == 0) {
        mark_truncated(edge.to);
        return false;
      }
      col.Tag(row.tid, &edge);
      col.seen.insert(row.tid);
      col.rows.push_back(std::move(row));
      ++total;
      return true;
    };

    // The per-join-key lookup as one retriable unit under faults: the
    // kJoinValueLookup gate plus the probe/scan behind it (which consults
    // kIndexProbe or kRelationScan inside Relation::LookupEquals).
    auto lookup = [&](const Value& key) -> Result<std::vector<Tid>> {
      if (!faults) return to_relation.LookupEquals(edge.to_attribute, key, ctx);
      uint64_t r = 0;
      auto t = RetryWithBackoff(
          ctx->retry_policy(), ctx, FaultSite::kJoinValueLookup,
          [&]() -> Result<std::vector<Tid>> {
            PRECIS_RETURN_NOT_OK(ctx->CheckFault(FaultSite::kJoinValueLookup));
            return to_relation.LookupEquals(edge.to_attribute, key, ctx);
          },
          &r);
      if (r > 0) degradation_for(edge.to).retries += r;
      return t;
    };

    if (options.tuple_weights != nullptr) {
      // Ranked selection (§7's data-value weights): collect all joining
      // candidates, order by tuple weight (heaviest first), then fetch up
      // to the budget.
      const std::string& to_name = graph.relation_name(edge.to);
      to_relation.CountStatement(ctx);
      ArenaVector<Tid> candidates{ArenaAllocator<Tid>(arena)};
      std::unordered_set<Tid> candidate_seen;
      for (const Value& key : *keys) {
        if (stopped()) break;
        auto tids = lookup(key);
        if (!tids.ok()) {
          if (tids.status().IsUnavailable()) {
            // This key's joining tuples are lost; the other keys survive.
            ++degradation_for(edge.to).failed_lookups;
            continue;
          }
          return tids.status();
        }
        for (Tid tid : *tids) {
          if (col.seen.count(tid) > 0) continue;
          if (candidate_seen.insert(tid).second) candidates.push_back(tid);
        }
      }
      std::stable_sort(candidates.begin(), candidates.end(),
                       [&](Tid a, Tid b) {
                         return options.tuple_weights->Weight(to_name, a) >
                                options.tuple_weights->Weight(to_name, b);
                       });
      for (Tid tid : candidates) {
        auto tuple = fetch(edge.to, to_relation, tid);
        if (!tuple.ok()) {
          if (tuple.status().IsUnavailable()) {
            ++degradation_for(edge.to).dropped_tuples;
            continue;
          }
          return tuple.status();
        }
        if (!try_add(Row{tid, std::move(*tuple)})) break;
      }
    } else if (strategy == SubsetStrategy::kNaiveQ) {
      // One IN-list query, kept up to the budget in retrieval order.
      to_relation.CountStatement(ctx);
      bool budget_open = true;
      for (const Value& key : *keys) {
        if (!budget_open) break;
        auto tids = lookup(key);
        if (!tids.ok()) {
          if (tids.status().IsUnavailable()) {
            ++degradation_for(edge.to).failed_lookups;
            continue;
          }
          return tids.status();
        }
        for (Tid tid : *tids) {
          auto tuple = fetch(edge.to, to_relation, tid);
          if (!tuple.ok()) {
            if (tuple.status().IsUnavailable()) {
              ++degradation_for(edge.to).dropped_tuples;
              continue;
            }
            return tuple.status();
          }
          if (!try_add(Row{tid, std::move(*tuple)})) {
            budget_open = false;
            break;
          }
        }
      }
    } else {
      // RoundRobin: one scan per key; one joining tuple per open scan per
      // round, while the cardinality constraint holds.
      auto scans = PerValueScanSet::Open(to_relation, edge.to_attribute,
                                         *keys, projection, ctx);
      if (!scans.ok()) return scans.status();
      bool budget_open = true;
      while (budget_open && !scans->AllClosed()) {
        for (size_t i = 0; i < scans->num_scans(); ++i) {
          std::optional<Row> row = scans->Next(i);
          if (!row.has_value()) continue;
          if (!try_add(std::move(*row))) {
            budget_open = false;
            break;
          }
        }
      }
      // The scan set retried/degraded internally (failed opens become
      // drained scans, failed fetches drop single tuples); fold its
      // counters into the report once, after the edge drains.
      if (faults) {
        const uint64_t r = scans->retries();
        const uint64_t f = scans->failed_opens();
        const uint64_t d = scans->dropped_fetches();
        if (r > 0 || f > 0 || d > 0) {
          RelationDegradation& deg = degradation_for(edge.to);
          deg.retries += r;
          deg.failed_lookups += f;
          deg.dropped_tuples += d;
        }
      }
    }

    --pending[edge.to];
    executed.insert(&edge);
    report->executed_edges.push_back(graph.relation_name(edge.from) + " -> " +
                                     graph.relation_name(edge.to));
  }

  // Step 3: emit the result database.
  Database result("precis_result");
  for (RelationNodeId rel : schema.relations()) {
    const RelationSchema& src_schema = graph.relation_schema(rel);
    std::vector<size_t> ordered = EmittedAttributeIndices(
        schema, rel, options.include_join_attributes);

    std::vector<AttributeSchema> out_attrs;
    out_attrs.reserve(ordered.size());
    for (size_t idx : ordered) out_attrs.push_back(src_schema.attribute(idx));
    RelationSchema out_schema(src_schema.name(), std::move(out_attrs));
    if (src_schema.primary_key()) {
      const std::string& pk_name =
          src_schema.attribute(*src_schema.primary_key()).name;
      if (out_schema.HasAttribute(pk_name)) {
        PRECIS_RETURN_NOT_OK(out_schema.SetPrimaryKey(pk_name));
      }
    }
    PRECIS_RETURN_NOT_OK(result.CreateRelation(std::move(out_schema)));

    auto out_relation = result.GetRelation(src_schema.name());
    if (!out_relation.ok()) return out_relation.status();
    for (const Row& row : collected[rel].rows) {
      Tuple projected = ProjectTuple(row.values, ordered);
      auto tid = (*out_relation)->Insert(std::move(projected));
      if (!tid.ok()) return tid.status();
      if (accepted != nullptr) (*accepted)[rel].push_back(row.tid);
    }
  }

  // Step 4: carry over the source foreign keys that are applicable to the
  // result schema and actually hold on the emitted data (a cardinality cut
  // may have removed referenced parents; such constraints are reported and
  // omitted rather than declared falsely).
  for (const ForeignKey& fk : db.foreign_keys()) {
    if (!result.HasRelation(fk.child_relation) ||
        !result.HasRelation(fk.parent_relation)) {
      continue;
    }
    auto child = result.GetRelation(fk.child_relation);
    auto parent = result.GetRelation(fk.parent_relation);
    if (!(*child)->schema().HasAttribute(fk.child_attribute) ||
        !(*parent)->schema().HasAttribute(fk.parent_attribute)) {
      continue;
    }
    if (result.CheckForeignKey(fk).ok()) {
      PRECIS_RETURN_NOT_OK(result.AddForeignKey(fk));
    } else {
      report->dropped_foreign_keys.push_back(fk.ToString());
    }
  }

  report->total_tuples = result.TotalTuples();
  if (ctx != nullptr) report->stop_reason = ctx->stop_reason();
  return result;
}

Result<PrecisAnswer> OracleAnswer(const Database& db,
                                  const SchemaGraph& graph,
                                  const InvertedIndex& index,
                                  const PrecisQuery& query,
                                  const DegreeConstraint& degree,
                                  const CardinalityConstraint& cardinality,
                                  const DbGenOptions& options,
                                  ExecutionContext* ctx) {
  std::vector<TokenMatch> matches;
  for (const std::string& token : query.tokens) {
    matches.push_back(TokenMatch{token, token, index.Lookup(token)});
  }
  SeedTids seeds;
  auto schema =
      AssembleSeedsAndSchema(&graph, matches, degree, nullptr, ctx, &seeds);
  if (!schema.ok()) return schema.status();
  DbGenReport report;
  std::map<RelationNodeId, std::vector<Tid>> accepted;
  auto database = SequentialWalk(db, *schema, seeds, cardinality, options,
                                 ctx, &report, &accepted);
  if (!database.ok()) return database.status();

  // The walk's accepted tids and FK verdicts, as a view over `db`.
  std::vector<ResultRelation> relations;
  for (RelationNodeId rel : schema->relations()) {
    const std::string& name = graph.relation_name(rel);
    auto source = db.GetRelation(name);
    if (!source.ok()) return source.status();
    auto copy = database->GetRelation(name);
    if (!copy.ok()) return copy.status();
    relations.push_back(ResultRelation{
        *source, (*copy)->schema(),
        EmittedAttributeIndices(*schema, rel, options.include_join_attributes),
        std::move(accepted[rel])});
  }
  ResultDatabase view(std::move(relations));
  for (const ForeignKey& fk : database->foreign_keys()) view.AddForeignKey(fk);
  return PrecisAnswer{std::move(matches), std::move(*schema), std::move(view),
                      std::move(report)};
}

}  // namespace precis
