#include "shard/sharded_engine.h"

#include <optional>
#include <utility>

#include "common/task_pool.h"
#include "precis/json_export.h"

namespace precis {

Result<std::unique_ptr<ShardedPrecisEngine>> ShardedPrecisEngine::Create(
    const Database& source, const SchemaGraph* graph, size_t num_shards,
    bool with_replicas) {
  if (graph == nullptr) {
    return Status::InvalidArgument("graph must be non-null");
  }
  auto sharded = ShardedDatabase::Partition(source, num_shards, with_replicas);
  if (!sharded.ok()) return sharded.status();
  auto engine = std::unique_ptr<ShardedPrecisEngine>(
      new ShardedPrecisEngine(std::move(*sharded), graph));
  engine->health_ = std::make_unique<ShardHealthTracker>(num_shards);
  for (size_t s = 0; s < engine->sharded_.num_shards(); ++s) {
    auto shard_engine = PrecisEngine::Create(&engine->sharded_.shard(s), graph);
    if (!shard_engine.ok()) return shard_engine.status();
    engine->shard_engines_.push_back(
        std::make_unique<PrecisEngine>(std::move(*shard_engine)));
    engine->caches_->partial.push_back(
        std::make_unique<PartialCache>(4 << 20));
  }
  uint32_t order = 0;
  for (const std::string& name : engine->sharded_.RelationNames()) {
    engine->relation_order_.emplace(name, order++);
  }
  return engine;
}

ShardedPrecisEngine::ShardedPrecisEngine(ShardedDatabase sharded,
                                         const SchemaGraph* graph)
    : sharded_(std::move(sharded)), graph_(graph) {}

void ShardedPrecisEngine::set_synonyms(const SynonymTable* synonyms) {
  synonyms_ = synonyms;
  for (auto& engine : shard_engines_) engine->set_synonyms(synonyms);
}

void ShardedPrecisEngine::set_caches_enabled(bool enabled) {
  caches_enabled_.store(enabled, std::memory_order_relaxed);
  if (!enabled) {
    caches_->schema.Clear();
    caches_->answer.Clear();
    caches_->body.Clear();
    for (auto& partial : caches_->partial) partial->Clear();
  }
  if (num_shards() == 1) {
    // The one-shard configuration delegates whole queries to the shard
    // engine; its caches are the ones that matter there.
    shard_engines_[0]->set_caches_enabled(enabled);
  }
}

LruCacheStats ShardedPrecisEngine::shard_partial_cache_stats(
    size_t shard) const {
  if (num_shards() == 1) return shard_engines_[0]->token_cache_stats();
  return caches_->partial[shard]->stats();
}

std::shared_ptr<const std::vector<TokenOccurrence>>
ShardedPrecisEngine::ShardOccurrences(size_t shard,
                                      const std::string& resolved) const {
  const bool cached = caches_enabled_.load(std::memory_order_relaxed);
  std::string key;
  if (cached) {
    // Keyed on *this shard's* epoch only: an insert routed elsewhere
    // leaves this shard's translated postings perfectly reusable.
    key = std::to_string(sharded_.shard_epoch(shard));
    key += '|';
    key += resolved;
    if (std::shared_ptr<const std::vector<TokenOccurrence>> hit =
            caches_->partial[shard]->Get(key)) {
      return hit;
    }
  }
  OccurrenceList local = shard_engines_[shard]->index().Lookup(resolved);
  auto translated = std::make_shared<std::vector<TokenOccurrence>>();
  translated->reserve(local->size());
  for (const TokenOccurrence& occ : *local) {
    auto view = sharded_.GetView(occ.relation);
    if (!view.ok()) continue;  // unreachable: every shard relation has a view
    TokenOccurrence out{occ.relation, occ.attribute, {}};
    out.tids.reserve(occ.tids.size());
    for (Tid local_tid : occ.tids) {
      out.tids.push_back((*view)->GlobalOf(shard, local_tid));
    }
    translated->push_back(std::move(out));
  }
  std::shared_ptr<const std::vector<TokenOccurrence>> result =
      std::move(translated);
  if (cached) {
    caches_->partial[shard]->Put(key, result,
                                 EstimateOccurrencesCharge(*result));
  }
  return result;
}

std::vector<TokenMatch> ShardedPrecisEngine::MatchTokens(
    const PrecisQuery& query, const ShardQueryFaultPlan* plan) const {
  const size_t num_tokens = query.tokens.size();
  const size_t shards = num_shards();
  static const auto kNoOccurrences =
      std::make_shared<const std::vector<TokenOccurrence>>();

  std::vector<std::string> resolved(num_tokens);
  for (size_t t = 0; t < num_tokens; ++t) {
    resolved[t] = synonyms_ != nullptr
                      ? synonyms_->Canonicalize(query.tokens[t])
                      : query.tokens[t];
  }

  // Scatter: one task per shard looks up every token against that shard's
  // inverted index (through the shard's partial cache). Lookups are
  // read-only against immutable postings; the partial caches are
  // internally locked.
  std::vector<std::vector<std::shared_ptr<const std::vector<TokenOccurrence>>>>
      per_token(num_tokens);
  for (auto& row : per_token) row.resize(shards);
  TaskPool::Group scatter(TaskPool::Shared());
  for (size_t s = 0; s < shards; ++s) {
    if (plan != nullptr && plan->live[s] == 0) {
      // Skipped shard (open circuit / failed probe): it contributes no
      // occurrences; the merge completes without it (DESIGN.md §17).
      for (size_t t = 0; t < num_tokens; ++t) {
        per_token[t][s] = kNoOccurrences;
      }
      continue;
    }
    scatter.Run([&, s] {
      for (size_t t = 0; t < num_tokens; ++t) {
        per_token[t][s] = ShardOccurrences(s, resolved[t]);
      }
    });
  }
  scatter.Wait();

  // Gather: merge each token's per-shard occurrence lists into the
  // single-engine result. InvertedIndex emits groups ordered by (sorted
  // relation index, attribute index) with ascending tids; keying the merge
  // map the same way — relation_order_ is built from the same sorted
  // names, and every shard holds every relation so the orders agree —
  // reproduces both the grouping and the order, and the ascending k-way
  // tid merge restores the global posting order.
  std::vector<TokenMatch> matches;
  matches.reserve(num_tokens);
  for (size_t t = 0; t < num_tokens; ++t) {
    struct Group {
      const TokenOccurrence* proto = nullptr;
      std::vector<std::vector<Tid>> lists;
    };
    std::map<std::pair<uint32_t, uint32_t>, Group> groups;
    for (size_t s = 0; s < shards; ++s) {
      for (const TokenOccurrence& occ : *per_token[t][s]) {
        auto view = sharded_.GetView(occ.relation);
        if (!view.ok()) continue;
        auto attr = (*view)->schema().AttributeIndex(occ.attribute);
        if (!attr.ok()) continue;
        Group& group = groups[{relation_order_.at(occ.relation),
                               static_cast<uint32_t>(*attr)}];
        if (group.proto == nullptr) group.proto = &occ;
        group.lists.push_back(occ.tids);
      }
    }
    auto merged = std::make_shared<std::vector<TokenOccurrence>>();
    merged->reserve(groups.size());
    for (auto& [key, group] : groups) {
      merged->push_back(TokenOccurrence{
          group.proto->relation, group.proto->attribute,
          MergeAscendingTids(std::move(group.lists))});
    }
    matches.push_back(TokenMatch{query.tokens[t], resolved[t],
                                 std::move(merged)});
  }
  return matches;
}

Result<PrecisAnswer> ShardedPrecisEngine::AnswerFromMatches(
    std::vector<TokenMatch> matches, const DegreeConstraint& degree,
    const CardinalityConstraint& cardinality, const DbGenOptions& options,
    ExecutionContext* ctx, ShardQueryStats* shard_stats,
    const ShardQueryFaultPlan* plan) const {
  // Seed assembly and the coordinator-cached result schema: the same
  // helper, cache key scheme and insertion order as PrecisEngine (schemas
  // depend on the graph, not the partitioning).
  SeedTids seeds;
  auto schema = AssembleSeedsAndSchema(
      graph_, matches, degree,
      caches_enabled_.load(std::memory_order_relaxed) ? &caches_->schema
                                                      : nullptr,
      ctx, &seeds);
  if (!schema.ok()) return schema.status();

  // Result database generation: the one Fig. 5 planner over this query's
  // sharded source, which carries the fault plan and the stats ledger.
  ShardedSource source(&sharded_, plan);
  ResultDatabaseGenerator db_generator(&source);
  Result<Database> database = [&] {
    ScopedSpan span(ctx, "db_gen");
    return db_generator.Generate(*schema, seeds, cardinality, options, ctx);
  }();
  if (!database.ok()) return database.status();
  if (shard_stats != nullptr) {
    source.CollectStats(ctx != nullptr ? ctx->access_budget() : 0,
                        shard_stats);
  }

  return PrecisAnswer{std::move(matches), std::move(*schema),
                      std::move(*database), db_generator.last_report()};
}

Result<PrecisAnswer> ShardedPrecisEngine::Answer(
    const PrecisQuery& query, const DegreeConstraint& degree,
    const CardinalityConstraint& cardinality, const DbGenOptions& options,
    ExecutionContext* ctx, ShardQueryStats* shard_stats) const {
  // The query's fault-domain decision, made once up front on this thread:
  // which shards participate, which stall, whether hedging can fire
  // (DESIGN.md §17). Shard fault domains need >= 2 shards — the one-shard
  // configuration is served by the delegating cached path, which never has
  // a second fault domain to fail over from.
  std::optional<ShardQueryFaultPlan> plan;
  if (num_shards() >= 2) {
    plan = DecideShardFaultPlan(num_shards(), health_.get(), ctx,
                                sharded_.has_replicas());
  }
  const ShardQueryFaultPlan* plan_ptr = plan ? &*plan : nullptr;
  std::vector<TokenMatch> matches;
  {
    ScopedSpan span(ctx, "match_tokens");
    matches = MatchTokens(query, plan_ptr);
  }
  return AnswerFromMatches(std::move(matches), degree, cardinality, options,
                           ctx, shard_stats, plan_ptr);
}

Result<std::shared_ptr<const PrecisAnswer>> ShardedPrecisEngine::AnswerShared(
    const PrecisQuery& query, const DegreeConstraint& degree,
    const CardinalityConstraint& cardinality, const DbGenOptions& options,
    ExecutionContext* ctx, ShardQueryStats* shard_stats) const {
  return AnswerSharedImpl(query, degree, cardinality, options, ctx,
                          shard_stats, /*body_out=*/nullptr);
}

Result<RenderedAnswer> ShardedPrecisEngine::AnswerSharedRendered(
    const PrecisQuery& query, const DegreeConstraint& degree,
    const CardinalityConstraint& cardinality, const DbGenOptions& options,
    ExecutionContext* ctx, ShardQueryStats* shard_stats) const {
  std::shared_ptr<const std::string> body;
  auto answer = AnswerSharedImpl(query, degree, cardinality, options, ctx,
                                 shard_stats, &body);
  if (!answer.ok()) return answer.status();
  return RenderedAnswer{std::move(*answer), std::move(body)};
}

Result<std::shared_ptr<const PrecisAnswer>>
ShardedPrecisEngine::AnswerSharedImpl(
    const PrecisQuery& query, const DegreeConstraint& degree,
    const CardinalityConstraint& cardinality, const DbGenOptions& options,
    ExecutionContext* ctx, ShardQueryStats* shard_stats,
    std::shared_ptr<const std::string>* body_out) const {
  if (num_shards() == 1) {
    // One shard holds a faithful full copy (foreign keys included): the
    // plain engine pipeline is byte-equivalent and skips the mirror
    // bookkeeping entirely, so delegate — this is also what makes the
    // shards=1 arm of the scaling bench an honest single-engine baseline.
    if (shard_stats != nullptr) shard_stats->Resize(1);
    if (body_out == nullptr) {
      return shard_engines_[0]->AnswerShared(query, degree, cardinality,
                                             options, ctx);
    }
    auto rendered = shard_engines_[0]->AnswerSharedRendered(
        query, degree, cardinality, options, ctx);
    if (!rendered.ok()) return rendered.status();
    *body_out = std::move(rendered->body_json);
    return std::move(rendered->answer);
  }

  const bool reusable =
      options.tuple_weights == nullptr && !options.trace_sql;
  const bool cacheable =
      caches_enabled_.load(std::memory_order_relaxed) && reusable;
  // Sharded caching is governed by the one caches_enabled_ switch, so the
  // body cache participates exactly when the answer cache does.
  const bool body_cacheable = body_out != nullptr && cacheable;

  std::string key;
  std::vector<uint64_t> epochs;
  uint64_t weight_epoch = 0;
  if (cacheable) {
    // Epochs (one per shard, read BEFORE the lookup/build) extend the
    // single-engine fingerprint: any shard's mutation makes prior full
    // answers unreachable, exactly like the monolithic db epoch.
    epochs.reserve(num_shards());
    for (size_t s = 0; s < num_shards(); ++s) {
      epochs.push_back(sharded_.shard_epoch(s));
    }
    weight_epoch = graph_->weight_epoch();
    key = "s";
    key += std::to_string(num_shards());
    for (uint64_t epoch : epochs) {
      key += '|';
      key += std::to_string(epoch);
    }
    key += "|w";
    key += std::to_string(weight_epoch);
    key += '|';
    key += AnswerFingerprintBase(query, synonyms_, degree, cardinality,
                                 options);
    ScopedSpan span(ctx, "answer_cache");
    if (std::shared_ptr<const PrecisAnswer> hit = caches_->answer.Get(key)) {
      if (shard_stats != nullptr) shard_stats->Resize(num_shards());
      if (body_out != nullptr) {
        // A cached answer is clean and complete by construction, so its
        // memoized render (or a fresh one, inserted here) is servable.
        std::shared_ptr<const std::string> body;
        if (body_cacheable) body = caches_->body.Get(key);
        if (body == nullptr) {
          body = std::make_shared<const std::string>(AnswerToJson(*hit));
          if (body_cacheable) caches_->body.Put(key, body, body->size() + 64);
        }
        *body_out = std::move(body);
      }
      return hit;
    }
  }

  auto answer =
      Answer(query, degree, cardinality, options, ctx, shard_stats);
  if (!answer.ok()) return answer.status();
  auto shared = std::make_shared<const PrecisAnswer>(std::move(*answer));

  const bool clean = !shared->report.partial() &&
                     (ctx == nullptr || !ctx->ShouldStop()) &&
                     !shared->report.fault_tainted &&
                     !shared->report.degraded();
  bool epochs_stable = cacheable && graph_->weight_epoch() == weight_epoch;
  if (epochs_stable) {
    for (size_t s = 0; s < num_shards(); ++s) {
      if (sharded_.shard_epoch(s) != epochs[s]) {
        epochs_stable = false;
        break;
      }
    }
  }
  if (cacheable && clean && epochs_stable) {
    caches_->answer.Put(key, shared, EstimateAnswerCharge(*shared));
  }
  if (body_out != nullptr) {
    // Rendered from the answer actually returned, never the cache, so the
    // served bytes always agree with the answer's own metadata.
    auto body = std::make_shared<const std::string>(AnswerToJson(*shared));
    if (body_cacheable && clean && epochs_stable) {
      caches_->body.Put(key, body, body->size() + 64);
    }
    *body_out = std::move(body);
  }
  return shared;
}

}  // namespace precis
