#include "precis/engine.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "precis/json_export.h"

namespace precis {

namespace {

/// Approximate heap footprint of a cached ResultSchema. Schemas are small
/// (sets of node ids, paths of edge pointers); the estimate only needs to
/// keep the byte budget meaningful, not be exact.
size_t EstimateSchemaCharge(const ResultSchema& schema) {
  return 256 + schema.relations().size() * 64 +
         schema.projection_paths().size() * 160 +
         schema.join_edges().size() * 24 +
         schema.TotalProjectedAttributes() * 16;
}

}  // namespace

size_t EstimateAnswerCharge(const PrecisAnswer& answer) {
  size_t charge = sizeof(PrecisAnswer) + 512;
  for (const TokenMatch& m : answer.matches) {
    charge += StringHeapBytes(m.token) + StringHeapBytes(m.resolved_token) +
              EstimateOccurrencesCharge(m.occurrences());
  }
  // The result database is a view over the source: per relation, its
  // accepted tids, its emitted attribute indices and its output schema
  // (a name and a type per attribute); per FK that holds, four names.
  // A string past its inline buffer adds its heap bytes.
  const ResultDatabase& db = answer.database;
  charge += db.relations().capacity() * sizeof(ResultRelation) +
            db.foreign_keys().capacity() * sizeof(ForeignKey);
  for (const ResultRelation& r : db.relations()) {
    charge += r.tids.capacity() * sizeof(Tid) +
              r.attributes.capacity() * sizeof(size_t) +
              r.schema.attributes().capacity() * sizeof(AttributeSchema) +
              StringHeapBytes(r.schema.name());
    for (const AttributeSchema& a : r.schema.attributes()) {
      charge += StringHeapBytes(a.name);
    }
  }
  charge += EstimateSchemaCharge(answer.schema);
  return charge;
}

Result<PrecisEngine> PrecisEngine::Create(const Database* db,
                                          const SchemaGraph* graph,
                                          size_t partitions,
                                          bool with_replicas) {
  if (db == nullptr || graph == nullptr) {
    return Status::InvalidArgument("database and graph must be non-null");
  }
  if (partitions > kMaxPartitions) {
    return Status::InvalidArgument(
        "at most " + std::to_string(kMaxPartitions) + " partitions, not " +
        std::to_string(partitions));
  }
  if (with_replicas && partitions < 2) {
    return Status::InvalidArgument(
        "hedged sub-queries (replicas) need at least 2 partitions");
  }
  auto index = InvertedIndex::Build(*db);
  if (!index.ok()) return index.status();
  PrecisEngine engine(db, graph, std::move(*index));
  if (partitions <= 1) return engine;
  engine.partitions_ = std::make_unique<SourcePartitions>(db, partitions);
  engine.health_ = std::make_unique<ShardHealthTracker>(partitions);
  engine.hedging_ = with_replicas;
  return engine;
}

std::optional<ShardQueryFaultPlan> PrecisEngine::DecidePlan(
    ExecutionContext* ctx) const {
  if (partitions_ == nullptr) return std::nullopt;
  return DecideShardFaultPlan(num_partitions(), health_.get(), ctx,
                              hedging_);
}

std::vector<TokenMatch> PrecisEngine::MatchTokens(
    const PrecisQuery& query, const ShardQueryFaultPlan* plan) const {
  // Step 1: inverted index — k_i -> {(R_j, A_lj, Tids_lj)} — after synonym
  // canonicalization where a table is installed.
  std::vector<TokenMatch> matches;
  matches.reserve(query.tokens.size());
  for (const std::string& token : query.tokens) {
    std::string resolved =
        synonyms_ != nullptr ? synonyms_->Canonicalize(token) : token;
    OccurrenceList found = index_.Lookup(resolved);
    if (plan != nullptr && plan->any_skipped()) {
      // Partitions the fault plan skipped contribute no seed tuples: what
      // they own is part of what the outage costs the answer (DESIGN.md
      // §17).
      auto kept = std::make_shared<std::vector<TokenOccurrence>>();
      const ShardRouter& router = partitions_->router();
      for (const TokenOccurrence& occ : *found) {
        const uint64_t seed = ShardRouter::RelationSeed(occ.relation);
        TokenOccurrence live{occ.relation, occ.attribute, {}};
        for (Tid tid : occ.tids) {
          if (plan->live[router.ShardOf(seed, tid)] != 0) {
            live.tids.push_back(tid);
          }
        }
        if (!live.tids.empty()) kept->push_back(std::move(live));
      }
      found = std::move(kept);
    }
    matches.push_back(TokenMatch{token, std::move(resolved), std::move(found)});
  }
  return matches;
}

Result<ResultSchema> AssembleSeedsAndSchema(
    const SchemaGraph* graph, const std::vector<TokenMatch>& matches,
    const DegreeConstraint& degree, SchemaCache* schema_cache,
    ExecutionContext* ctx, SeedTids* seeds) {
  // Input relations (deduplicated, in match order) and seed tuple ids.
  // Relation dedup stays a linear std::find (a handful of entries). A
  // relation's first occurrence is copied in bulk as far as its tids
  // strictly ascend (index lookups always do, and so does what a skipped
  // partition leaves of one), since such a run holds no repeats. Only what
  // follows — a second occurrence reaching the same relation, or an
  // unsorted tail — goes through a per-relation hash set, built then from
  // the seeds so far: a GENRE token seeds tens of thousands of tuples, and
  // a std::find over the growing list would be quadratic in them.
  // Insertion order is match order.
  std::vector<RelationNodeId> token_relations;
  std::unordered_map<RelationNodeId, std::unordered_set<Tid>> seen_tids;
  for (const TokenMatch& match : matches) {
    for (const TokenOccurrence& occ : match.occurrences()) {
      auto rel = graph->RelationId(occ.relation);
      if (!rel.ok()) return rel.status();
      if (std::find(token_relations.begin(), token_relations.end(), *rel) ==
          token_relations.end()) {
        token_relations.push_back(*rel);
      }
      std::vector<Tid>& tids = (*seeds)[*rel];
      auto rest = occ.tids.begin();
      if (tids.empty()) {
        rest = std::adjacent_find(occ.tids.begin(), occ.tids.end(),
                                  std::greater_equal<Tid>());
        if (rest != occ.tids.end()) ++rest;
        tids.assign(occ.tids.begin(), rest);
        if (rest == occ.tids.end()) continue;
      }
      auto [it, fresh] = seen_tids.try_emplace(*rel);
      std::unordered_set<Tid>& seen = it->second;
      if (fresh) seen.insert(tids.begin(), tids.end());
      for (; rest != occ.tids.end(); ++rest) {
        if (seen.insert(*rest).second) tids.push_back(*rest);
      }
    }
  }

  // Result schema generation (optionally cached by token-relation set,
  // degree constraint and graph weight epoch — see DESIGN.md §10).
  ScopedSpan span(ctx, "schema_gen");
  ResultSchemaGenerator schema_generator(graph);
  if (schema_cache == nullptr) {
    return schema_generator.Generate(token_relations, degree, ctx);
  }
  std::vector<RelationNodeId> sorted = token_relations;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  key.reserve(32 + sorted.size() * 4);
  for (RelationNodeId rel : sorted) {
    key += std::to_string(rel);
    key += ',';
  }
  key += '|';
  key += degree.ToString();
  key += '|';
  key += std::to_string(graph->weight_epoch());
  if (std::shared_ptr<const ResultSchema> hit = schema_cache->Get(key)) {
    return *hit;  // copy out of the immutable cached value
  }
  auto generated = schema_generator.Generate(token_relations, degree, ctx);
  if (!generated.ok()) return generated.status();
  const bool partial = ctx != nullptr && ctx->ShouldStop();
  // Fault taint (DESIGN.md §12): a schema generated while a fault injector
  // is armed may silently reflect injected failures.
  const bool tainted = ctx != nullptr && ctx->fault_injector() != nullptr &&
                       ctx->fault_injector()->armed();
  if (!partial && !tainted) {
    schema_cache->Put(key, std::make_shared<const ResultSchema>(*generated),
                      EstimateSchemaCharge(*generated));
  }
  return generated;
}

Result<PrecisAnswer> PrecisEngine::AnswerFromMatches(
    std::vector<TokenMatch> matches, const DegreeConstraint& degree,
    const CardinalityConstraint& cardinality, const DbGenOptions& options,
    ExecutionContext* ctx, const ShardQueryFaultPlan* plan,
    ShardQueryStats* shard_stats) const {
  SeedTids seeds;
  auto schema = AssembleSeedsAndSchema(
      graph_, matches, degree,
      caches_enabled() ? &caches_->schema : nullptr,
      ctx, &seeds);
  if (!schema.ok()) return schema.status();

  // The one Fig. 5 planner over the database in place: directly at one
  // partition, and under this query's fault plan at N >= 2.
  ShardQueryStats stats;
  if (plan != nullptr) {
    stats = {plan->skipped, plan->probe_retries, plan->breaker_rejects};
  }
  ResultDatabaseGenerator db_generator(db_);
  Result<ResultDatabase> database = [&] {
    ScopedSpan span(ctx, "db_gen");
    return db_generator.Generate(
        *schema, seeds, cardinality, options, ctx,
        PartitionedQuery{partitions_.get(), plan, &stats});
  }();
  if (!database.ok()) return database.status();
  if (plan != nullptr && shard_stats != nullptr) {
    *shard_stats = std::move(stats);
  }

  return PrecisAnswer{std::move(matches), std::move(*schema),
                      std::move(*database), db_generator.last_report()};
}

Result<PrecisAnswer> PrecisEngine::Answer(
    const PrecisQuery& query, const DegreeConstraint& degree,
    const CardinalityConstraint& cardinality, const DbGenOptions& options,
    ExecutionContext* ctx, ShardQueryStats* shard_stats) const {
  std::optional<ShardQueryFaultPlan> plan = DecidePlan(ctx);
  const ShardQueryFaultPlan* plan_ptr = plan ? &*plan : nullptr;
  std::vector<TokenMatch> matches;
  {
    ScopedSpan span(ctx, "match_tokens");
    matches = MatchTokens(query, plan_ptr);
  }
  return AnswerFromMatches(std::move(matches), degree, cardinality, options,
                           ctx, plan_ptr, shard_stats);
}

std::string AnswerFingerprintBase(const PrecisQuery& query,
                                  const SynonymTable* synonyms,
                                  const DegreeConstraint& degree,
                                  const CardinalityConstraint& cardinality,
                                  const DbGenOptions& options) {
  std::string key;
  key.reserve(96 + query.tokens.size() * 24);
  // Token sequence, synonym-canonicalized. The raw spelling is included
  // next to the canonical form because the cached answer's TokenMatch
  // entries carry the original token text: "W. Allen" and "Woody Allen"
  // produce equal databases but textually different match metadata, so
  // they fingerprint separately (conservative, never wrong).
  for (const std::string& token : query.tokens) {
    key += token;
    key += '\x1e';
    key += synonyms != nullptr ? synonyms->Canonicalize(token) : token;
    key += '\x1f';
  }
  key += '|';
  key += degree.ToString();
  key += '|';
  key += cardinality.ToString();
  key += '|';
  key += SubsetStrategyToString(options.strategy);
  key += '|';
  key += options.include_join_attributes ? '1' : '0';
  key += options.path_aware_propagation ? '1' : '0';
  key += '|';
  key += std::to_string(options.statement_overhead_ns);
  // Deliberately NOT part of the key: parallelism, pool and
  // simulated_access_latency_ns. Generation is byte-identical inline and
  // pooled (DESIGN.md §11) and the latency knob is timing-only, so
  // answers produced under any of those settings are interchangeable —
  // fingerprinting them would only fragment the cache.
  return key;
}

std::string PrecisEngine::EpochKey() const {
  std::string key = std::to_string(db_->epoch());
  key += '|';
  key += std::to_string(graph_->weight_epoch());
  key += '|';
  return key;
}

Result<std::shared_ptr<const PrecisAnswer>> PrecisEngine::AnswerShared(
    const PrecisQuery& query, const DegreeConstraint& degree,
    const CardinalityConstraint& cardinality, const DbGenOptions& options,
    ExecutionContext* ctx, ShardQueryStats* shard_stats) const {
  return AnswerSharedImpl(query, degree, cardinality, options, ctx,
                          shard_stats, /*body_out=*/nullptr);
}

Result<RenderedAnswer> PrecisEngine::AnswerSharedRendered(
    const PrecisQuery& query, const DegreeConstraint& degree,
    const CardinalityConstraint& cardinality, const DbGenOptions& options,
    ExecutionContext* ctx, ShardQueryStats* shard_stats) const {
  std::shared_ptr<const std::string> body;
  auto answer = AnswerSharedImpl(query, degree, cardinality, options, ctx,
                                 shard_stats, &body);
  if (!answer.ok()) return answer.status();
  return RenderedAnswer{std::move(*answer), std::move(body)};
}

Result<std::shared_ptr<const PrecisAnswer>> PrecisEngine::AnswerSharedImpl(
    const PrecisQuery& query, const DegreeConstraint& degree,
    const CardinalityConstraint& cardinality, const DbGenOptions& options,
    ExecutionContext* ctx, ShardQueryStats* shard_stats,
    std::shared_ptr<const std::string>* body_out) const {
  // Options that make answers non-reusable bypass the caches entirely:
  // a traced run must re-execute to produce its SQL trace, and per-tuple
  // weight stores can change between calls without an epoch to observe.
  const bool reusable =
      options.tuple_weights == nullptr && !options.trace_sql;
  const bool cacheable = caches_enabled() && reusable;
  const bool body_cacheable = body_out != nullptr && cacheable;

  std::string epochs;
  std::string key;
  if (cacheable) {
    // Epochs are read BEFORE the lookup/build. If a mutation lands during
    // the build, the re-read below differs and the answer is not inserted.
    epochs = EpochKey();
    key = epochs + AnswerFingerprintBase(query, synonyms_, degree,
                                         cardinality, options);
  }
  if (cacheable) {
    ScopedSpan span(ctx, "answer_cache");
    if (std::shared_ptr<const PrecisAnswer> hit =
            caches_->answer->Get(key)) {
      if (body_out != nullptr) {
        // A cached answer is clean and complete by construction, so a
        // memoized render of it (or a fresh one, inserted here) is always
        // servable next to it.
        std::shared_ptr<const std::string> body;
        if (body_cacheable) body = caches_->body->Get(key);
        if (body == nullptr) {
          body = std::make_shared<const std::string>(AnswerToJson(*hit));
          if (body_cacheable) {
            caches_->body->Put(key, body, body->size() + 64);
          }
        }
        *body_out = std::move(body);
      }
      return hit;
    }
  }

  auto answer = Answer(query, degree, cardinality, options, ctx, shard_stats);
  if (!answer.ok()) return answer.status();
  auto shared = std::make_shared<const PrecisAnswer>(std::move(*answer));

  // Never cache partial answers: a deadline / budget / cancellation
  // stop reflects this query's limits, not the data (PR 1's
  // schema-cache rule, applied at the answer level). Never cache
  // fault-tainted or degraded answers: the taint bit is set whenever the
  // run executed with an armed injector (fingerprint-independent — the
  // fingerprint cannot see the injector), so a cache hit always means a
  // clean, complete answer (DESIGN.md §12).
  const bool clean = !shared->report.partial() &&
                     (ctx == nullptr || !ctx->ShouldStop()) &&
                     !shared->report.fault_tainted &&
                     !shared->report.degraded();
  // Epochs unchanged across the build: the answer saw one consistent
  // database + weight state.
  const bool epochs_stable = cacheable && EpochKey() == epochs;
  if (cacheable && clean && epochs_stable) {
    caches_->answer->Put(key, shared, EstimateAnswerCharge(*shared));
  }
  if (body_out != nullptr) {
    // The body is always rendered from the answer actually returned (never
    // pulled from the cache on a rebuild), so headers derived from the
    // answer and the served bytes can never disagree — even for partial or
    // degraded runs, whose renders simply skip the insert.
    auto body = std::make_shared<const std::string>(AnswerToJson(*shared));
    if (body_cacheable && clean && epochs_stable) {
      caches_->body->Put(key, body, body->size() + 64);
    }
    *body_out = std::move(body);
  }
  return shared;
}

Result<std::vector<PrecisAnswer>> PrecisEngine::AnswerPerOccurrence(
    const PrecisQuery& query, const DegreeConstraint& degree,
    const CardinalityConstraint& cardinality, const DbGenOptions& options,
    ExecutionContext* ctx) const {
  std::optional<ShardQueryFaultPlan> plan = DecidePlan(ctx);
  const ShardQueryFaultPlan* plan_ptr = plan ? &*plan : nullptr;
  std::vector<TokenMatch> matches;
  {
    ScopedSpan span(ctx, "match_tokens");
    matches = MatchTokens(query, plan_ptr);
  }
  std::vector<PrecisAnswer> answers;
  for (const TokenMatch& match : matches) {
    for (const TokenOccurrence& occ : match.occurrences()) {
      std::vector<TokenMatch> single = {TokenMatch{
          match.token, match.resolved_token,
          std::make_shared<const std::vector<TokenOccurrence>>(
              std::vector<TokenOccurrence>{occ})}};
      auto answer = AnswerFromMatches(std::move(single), degree, cardinality,
                                      options, ctx, plan_ptr,
                                      /*shard_stats=*/nullptr);
      if (!answer.ok()) return answer.status();
      answers.push_back(std::move(*answer));
    }
  }
  return answers;
}

}  // namespace precis
