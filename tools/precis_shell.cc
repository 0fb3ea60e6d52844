// precis_shell — an interactive précis console.
//
// A line-oriented front end over the whole library: load or generate a
// database, tune edge weights and constraints at query time (§3.1's
// interactive exploration), ask précis queries, inspect the SQL the
// generator submits, and export answers (text narrative, JSON, DOT, or a
// serialized sub-database).
//
//   $ precis_shell
//   precis> dataset movies 1000
//   precis> set min-weight 0.9
//   precis> query Woody Allen
//   precis> set join MOVIE GENRE 0.3
//   precis> query Woody Allen
//   precis> json
//   precis> save /tmp/answer.pdb
//   precis> quit
//
// Also scriptable: `precis_shell < commands.txt`.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/net_util.h"
#include "common/string_util.h"
#include "common/symbol_table.h"
#include "common/task_pool.h"
#include "datagen/bibliography_dataset.h"
#include "datagen/movies_dataset.h"
#include "datagen/movies_templates.h"
#include "graph/weight_profile.h"
#include "precis/dot_export.h"
#include "precis/engine.h"
#include "precis/json_export.h"
#include "semistructured/document.h"
#include "semistructured/shredder.h"
#include "storage/serialization.h"
#include "translator/translator.h"

namespace precis {
namespace {

constexpr const char* kHelp = R"(commands:
  dataset movies N         build the movies dataset with N synthetic movies
  dataset bibliography N   build the bibliography dataset with N papers
  load FILE                load a serialized database (graph derived from FKs)
  shred FILE               load an XML-like document and shred it
  query TOKEN...           answer a precis query with the current settings
  set min-weight W         degree constraint: path weight >= W (default 0.9)
  set max-attrs R          degree constraint: top-R projections
  set tuples C             cardinality: at most C tuples per relation
  set strategy S           auto | naiveq | roundrobin
  set join FROM TO W       override a join-edge weight
  set proj REL ATTR W      override a projection-edge weight
  set trace on|off         record the SQL statements of each query
  set cache on|off         enable the token / schema / answer / body caches
  set faults SITE MODE P   arm deterministic fault injection at SITE
                           (probe|fetch|join|scan|catalog). MODE P is one of:
                           prob P | every N | steps I,J,K; an optional
                           trailing kind is transient (default) | permanent
                           | latency. Faulted queries degrade gracefully
                           and are never cached.
  set faults SITE off      disarm one site
  set faults seed N        reseed the injector (counters cleared)
  set faults off           disarm everything
  set parallelism N        intra-query parallel generation on N-way task
                           pool fan-out (1 = inline); output is
                           byte-identical at any setting
  set shards N             split the dataset into N >= 2 hash partitions:
                           fault domains over the one copy of it
                           (DESIGN.md §15, §17); 1 reads it as one
                           partition; answers are byte-identical at any
                           setting
  deadline MS              per-query wall-clock deadline in ms (0 = off);
                           an expired query returns its partial answer
  budget N                 per-query access budget: max index probes + tuple
                           fetches + scans (0 = unbounded)
  stats                    access counters of the last query + global totals
                           + the database's bytes by structure and the
                           layout of its key tables
                           (+ per-level cache ratios when caching is on,
                           + retry / degradation / injector counters when
                           faults are armed)
  trace                    per-stage trace spans of the last query
  show schema              print the source database schema
  show graph               print the schema graph with weights
  show settings            print the current query settings
  text                     render the last answer as a narrative (movies only)
  json                     print the last answer as JSON
  dot FILE                 write the last answer's result schema as DOT
  save FILE                serialize the last answer's database to FILE
  help                     this text
  quit                     exit)";

/// Everything the shell holds between commands.
struct ShellState {
  std::unique_ptr<Database> db;
  std::unique_ptr<SchemaGraph> graph;
  std::unique_ptr<PrecisEngine> engine;
  std::unique_ptr<TemplateCatalog> catalog;  // set for the movies dataset

  double min_weight = 0.9;
  long max_attrs = -1;  // -1: use min_weight instead
  size_t tuples_per_relation = 5;
  SubsetStrategy strategy = SubsetStrategy::kAuto;
  size_t parallelism = 1;  // >= 2: parallel db generation (DESIGN.md §11)
  size_t shards = 1;       // >= 2: partitioned engine (DESIGN.md §15)
  bool trace_sql = false;
  bool caches_enabled = false;  // token + schema + answer + body caches
  double deadline_ms = 0.0;     // 0 = no deadline
  uint64_t access_budget = 0;   // 0 = unbounded

  /// Deterministic fault injection (DESIGN.md §12). Attached to a query's
  /// context only while armed, so 'set faults off' restores the exact
  /// pre-fault fast path (no injector pointer in the context at all).
  FaultInjector injector{42};

  /// Shared because a cache hit returns the engine's stored answer; the
  /// shell keeps it alive for 'text' / 'json' / 'dot' / 'save'.
  std::shared_ptr<const PrecisAnswer> last_answer;
  /// The context the last query ran under (for 'stats' and 'trace').
  std::unique_ptr<ExecutionContext> last_context;
  /// Fault-domain telemetry of the last partitioned query (for 'stats').
  ShardQueryStats last_shard_stats;

  /// Replaces the engine; a failed Create keeps the current one.
  Status RebuildEngine() {
    auto result = PrecisEngine::Create(db.get(), graph.get(), shards);
    if (!result.ok()) return result.status();
    last_answer.reset();
    engine = std::make_unique<PrecisEngine>(std::move(*result));
    // A fresh engine starts with empty caches; re-apply the setting.
    engine->set_caches_enabled(caches_enabled);
    return Status::OK();
  }
};

Status CmdDataset(ShellState* state, const std::vector<std::string>& args) {
  if (args.size() != 2) {
    return Status::InvalidArgument("usage: dataset movies|bibliography N");
  }
  size_t n = static_cast<size_t>(std::atol(args[1].c_str()));
  if (args[0] == "movies") {
    MoviesConfig config;
    config.num_movies = n;
    auto ds = MoviesDataset::Create(config);
    if (!ds.ok()) return ds.status();
    state->db = std::make_unique<Database>(std::move(ds->db()));
    state->graph = std::make_unique<SchemaGraph>(std::move(ds->graph()));
    auto catalog = BuildMoviesTemplateCatalog();
    if (!catalog.ok()) return catalog.status();
    state->catalog = std::make_unique<TemplateCatalog>(std::move(*catalog));
  } else if (args[0] == "bibliography") {
    BibliographyConfig config;
    config.num_papers = n;
    auto ds = BibliographyDataset::Create(config);
    if (!ds.ok()) return ds.status();
    state->db = std::make_unique<Database>(std::move(ds->db()));
    state->graph = std::make_unique<SchemaGraph>(std::move(ds->graph()));
    auto catalog = BuildBibliographyTemplateCatalog();
    if (!catalog.ok()) return catalog.status();
    state->catalog = std::make_unique<TemplateCatalog>(std::move(*catalog));
  } else {
    return Status::InvalidArgument("unknown dataset '" + args[0] + "'");
  }
  PRECIS_RETURN_NOT_OK(state->RebuildEngine());
  std::printf("dataset ready: %zu relations, %zu tuples\n",
              state->db->num_relations(), state->db->TotalTuples());
  return Status::OK();
}

Status CmdLoad(ShellState* state, const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: load FILE");
  auto db = LoadDatabaseFromFile(args[0]);
  if (!db.ok()) return db.status();
  auto graph = DeriveGraphFromForeignKeys(*db);
  if (!graph.ok()) return graph.status();
  state->db = std::make_unique<Database>(std::move(*db));
  state->graph = std::make_unique<SchemaGraph>(std::move(*graph));
  state->catalog.reset();
  PRECIS_RETURN_NOT_OK(state->RebuildEngine());
  std::printf("loaded %zu relations, %zu tuples; graph derived from %zu "
              "foreign keys\n",
              state->db->num_relations(), state->db->TotalTuples(),
              state->db->foreign_keys().size());
  return Status::OK();
}

Status CmdShred(ShellState* state, const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: shred FILE");
  std::ifstream in(args[0]);
  if (!in.is_open()) {
    return Status::InvalidArgument("cannot open '" + args[0] + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto doc = ParseDocument(buffer.str());
  if (!doc.ok()) return doc.status();
  auto shredded = ShreddedDocument::Shred(**doc);
  if (!shredded.ok()) return shredded.status();
  state->db = std::make_unique<Database>(std::move(shredded->db()));
  state->graph = std::make_unique<SchemaGraph>(std::move(shredded->graph()));
  state->catalog.reset();
  PRECIS_RETURN_NOT_OK(state->RebuildEngine());
  std::printf("shredded %zu elements into %zu relations\n",
              (*doc)->SubtreeSize(), state->db->num_relations());
  return Status::OK();
}

/// `set faults ...` — everything after the "faults" keyword is in `args`.
Status CmdSetFaults(ShellState* state, const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument(
        "usage: set faults off | seed N | SITE off|prob P|every N|steps "
        "I,J,K [transient|permanent|latency]");
  }
  if (args[0] == "off" && args.size() == 1) {
    state->injector.Reset();
    std::printf("faults: off\n");
    return Status::OK();
  }
  if (args[0] == "seed") {
    if (args.size() != 2) {
      return Status::InvalidArgument("usage: set faults seed N");
    }
    state->injector.Reseed(
        static_cast<uint64_t>(std::atoll(args[1].c_str())));
    std::printf("faults: seed=%llu (counters cleared)\n",
                static_cast<unsigned long long>(state->injector.seed()));
    return Status::OK();
  }

  auto site = ParseFaultSite(args[0]);
  if (!site.ok()) return site.status();
  if (args.size() < 2) {
    return Status::InvalidArgument(
        "usage: set faults SITE off|prob P|every N|steps I,J,K [kind]");
  }

  const std::string& mode = args[1];
  if (mode == "off") {
    state->injector.SetSchedule(*site, FaultSchedule::Off());
    std::printf("faults: %s off\n", FaultSiteToString(*site));
    return Status::OK();
  }

  // Optional trailing kind (args[3] when present).
  FaultKind kind = FaultKind::kTransientError;
  if (args.size() >= 4) {
    if (args[3] == "transient") {
      kind = FaultKind::kTransientError;
    } else if (args[3] == "permanent") {
      kind = FaultKind::kPermanentError;
    } else if (args[3] == "latency") {
      kind = FaultKind::kLatencySpike;
    } else {
      return Status::InvalidArgument(
          "unknown fault kind '" + args[3] +
          "' (transient | permanent | latency)");
    }
  }

  if (mode == "prob" && args.size() >= 3) {
    double p = std::atof(args[2].c_str());
    if (p < 0.0 || p > 1.0) {
      return Status::InvalidArgument("probability must be in [0, 1]");
    }
    state->injector.SetSchedule(*site, FaultSchedule::Probability(p, kind));
  } else if (mode == "every" && args.size() >= 3) {
    long n = std::atol(args[2].c_str());
    if (n < 1) return Status::InvalidArgument("period must be >= 1");
    state->injector.SetSchedule(
        *site, FaultSchedule::EveryNth(static_cast<uint64_t>(n), kind));
  } else if (mode == "steps" && args.size() >= 3) {
    std::vector<uint64_t> steps;
    for (const std::string& part : Split(args[2], ',')) {
      long step = std::atol(part.c_str());
      if (step < 1) {
        return Status::InvalidArgument("steps are 1-based check indices");
      }
      steps.push_back(static_cast<uint64_t>(step));
    }
    if (steps.empty()) {
      return Status::InvalidArgument("usage: set faults SITE steps I,J,K");
    }
    state->injector.SetSchedule(*site,
                                FaultSchedule::Steps(std::move(steps), kind));
  } else {
    return Status::InvalidArgument(
        "unknown fault mode '" + mode + "' (off | prob P | every N | steps "
        "I,J,K)");
  }
  std::printf("faults armed:\n%s",
              state->injector.DescribeSchedules().c_str());
  return Status::OK();
}

Status CmdSet(ShellState* state, const std::vector<std::string>& args) {
  if (args.empty()) return Status::InvalidArgument("usage: set KEY VALUE...");
  const std::string& key = args[0];
  if (key == "min-weight" && args.size() == 2) {
    state->min_weight = std::atof(args[1].c_str());
    state->max_attrs = -1;
  } else if (key == "max-attrs" && args.size() == 2) {
    state->max_attrs = std::atol(args[1].c_str());
  } else if (key == "tuples" && args.size() == 2) {
    state->tuples_per_relation =
        static_cast<size_t>(std::atol(args[1].c_str()));
  } else if (key == "strategy" && args.size() == 2) {
    if (args[1] == "auto") {
      state->strategy = SubsetStrategy::kAuto;
    } else if (args[1] == "naiveq") {
      state->strategy = SubsetStrategy::kNaiveQ;
    } else if (args[1] == "roundrobin") {
      state->strategy = SubsetStrategy::kRoundRobin;
    } else {
      return Status::InvalidArgument("unknown strategy '" + args[1] + "'");
    }
  } else if (key == "parallelism" && args.size() == 2) {
    long n = std::atol(args[1].c_str());
    if (n < 1) return Status::InvalidArgument("parallelism must be >= 1");
    state->parallelism = static_cast<size_t>(n);
  } else if (key == "shards" && args.size() == 2) {
    long n = std::atol(args[1].c_str());
    if (n < 1) return Status::InvalidArgument("shards must be >= 1");
    const size_t previous = state->shards;
    state->shards = static_cast<size_t>(n);
    if (state->db != nullptr) {
      // Repartition now; answers stay byte-identical across shard counts.
      Status rebuilt = state->RebuildEngine();
      if (!rebuilt.ok()) {
        state->shards = previous;
        return rebuilt;
      }
    }
    if (state->shards >= 2) {
      std::printf("shards: %zu (fault domains over the dataset)\n",
                  state->shards);
    } else {
      std::printf("shards: 1 (dataset read in place)\n");
    }
  } else if (key == "trace" && args.size() == 2) {
    state->trace_sql = (args[1] == "on");
  } else if (key == "faults") {
    return CmdSetFaults(state,
                        std::vector<std::string>(args.begin() + 1, args.end()));
  } else if (key == "cache" && args.size() == 2) {
    state->caches_enabled = (args[1] == "on");
    if (state->engine != nullptr) {
      state->engine->set_caches_enabled(state->caches_enabled);
    }
  } else if (key == "join" && args.size() == 4) {
    if (state->graph == nullptr) {
      return Status::InvalidArgument("no dataset loaded");
    }
    // Cached schemas and answers carry the graph's weight epoch, which the
    // re-weighting bumps: nothing cached under the old weight is reachable.
    PRECIS_RETURN_NOT_OK(state->graph->SetJoinWeight(
        args[1], args[2], std::atof(args[3].c_str())));
  } else if (key == "proj" && args.size() == 4) {
    if (state->graph == nullptr) {
      return Status::InvalidArgument("no dataset loaded");
    }
    PRECIS_RETURN_NOT_OK(state->graph->SetProjectionWeight(
        args[1], args[2], std::atof(args[3].c_str())));
  } else {
    return Status::InvalidArgument("unknown setting; see help");
  }
  return Status::OK();
}

Status CmdQuery(ShellState* state, const std::vector<std::string>& args) {
  if (state->engine == nullptr) {
    return Status::InvalidArgument("no dataset loaded; use 'dataset' first");
  }
  if (args.empty()) {
    return Status::InvalidArgument("usage: query TOKEN...");
  }
  // The whole argument list is one token (multi-word values are common);
  // separate several tokens with '/'.
  std::vector<std::string> tokens;
  std::string current;
  for (const std::string& arg : args) {
    if (arg == "/") {
      if (!current.empty()) tokens.push_back(current);
      current.clear();
      continue;
    }
    if (!current.empty()) current += " ";
    current += arg;
  }
  if (!current.empty()) tokens.push_back(current);

  std::unique_ptr<DegreeConstraint> degree =
      state->max_attrs >= 0
          ? MaxProjections(static_cast<size_t>(state->max_attrs))
          : MinPathWeight(state->min_weight);
  auto cardinality = MaxTuplesPerRelation(state->tuples_per_relation);
  DbGenOptions options;
  options.strategy = state->strategy;
  options.trace_sql = state->trace_sql;
  options.parallelism = state->parallelism;  // shared pool; see DESIGN §11

  auto ctx = std::make_unique<ExecutionContext>();
  if (state->deadline_ms > 0) {
    ctx->SetDeadlineAfter(state->deadline_ms / 1e3);
  }
  if (state->access_budget > 0) ctx->SetAccessBudget(state->access_budget);
  // Attach the injector only while armed: an armed context taints the
  // caches (DESIGN.md §12), so an idle injector must stay invisible.
  if (state->injector.armed()) ctx->SetFaultInjector(&state->injector);

  // AnswerShared serves from the full-answer cache when 'set cache on' is
  // active (trace runs bypass it); otherwise it builds a fresh answer. A
  // partitioned engine also reports the query's skips and hedges.
  state->last_shard_stats = ShardQueryStats();
  auto result = state->engine->AnswerShared(PrecisQuery{tokens}, *degree,
                                            *cardinality, options, ctx.get(),
                                            &state->last_shard_stats);
  state->last_context = std::move(ctx);
  if (!result.ok()) return result.status();
  std::shared_ptr<const PrecisAnswer> answer = std::move(*result);
  if (answer->report.partial()) {
    std::printf("partial answer (%s)\n",
                StopReasonToString(answer->report.stop_reason));
  }
  if (answer->report.degraded()) {
    std::printf("degraded answer (dropped=%llu lookups_failed=%llu "
                "retries=%llu):\n%s",
                static_cast<unsigned long long>(
                    answer->report.degradation.total_dropped_tuples()),
                static_cast<unsigned long long>(
                    answer->report.degradation.total_failed_lookups()),
                static_cast<unsigned long long>(
                    answer->report.degradation.total_retries()),
                answer->report.degradation.ToString().c_str());
  }
  if (answer->empty()) {
    std::printf("no occurrences.\n");
    state->last_answer.reset();
    return Status::OK();
  }
  auto materialized = answer->database.Materialize();
  if (!materialized.ok()) return materialized.status();
  std::printf("result schema:\n%s\nresult database:\n%s",
              answer->schema.ToString().c_str(),
              materialized->DescribeSchema().c_str());
  if (state->trace_sql) {
    std::printf("statements:\n");
    for (const std::string& sql : answer->report.sql_trace) {
      std::printf("  %s;\n", sql.c_str());
    }
  }
  state->last_answer = std::move(answer);
  return Status::OK();
}

Status CmdDeadline(ShellState* state, const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: deadline MS");
  double ms = 0.0;
  if (!ParseNonNegativeDouble(args[0], &ms)) {
    return Status::InvalidArgument(
        "deadline takes a finite number >= 0, not '" + args[0] + "'");
  }
  state->deadline_ms = ms;
  if (ms > 0) {
    std::printf("deadline: %g ms per query\n", ms);
  } else {
    std::printf("deadline: off\n");
  }
  return Status::OK();
}

Status CmdBudget(ShellState* state, const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("usage: budget N");
  long n = std::atol(args[0].c_str());
  if (n < 0) return Status::InvalidArgument("budget must be >= 0");
  state->access_budget = static_cast<uint64_t>(n);
  if (n > 0) {
    std::printf("budget: %ld accesses per query\n", n);
  } else {
    std::printf("budget: unbounded\n");
  }
  return Status::OK();
}

Status CmdStats(ShellState* state) {
  if (state->db == nullptr) return Status::InvalidArgument("no dataset loaded");
  if (state->last_context != nullptr) {
    const AccessStats& s = state->last_context->stats();
    std::printf("last query: probes=%llu fetches=%llu scans=%llu "
                "statements=%llu stop=%s\n",
                static_cast<unsigned long long>(
                    s.index_probes.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    s.tuple_fetches.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    s.sequential_scans.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    s.statements.load(std::memory_order_relaxed)),
                StopReasonToString(state->last_context->stop_reason()));
  } else {
    std::printf("last query: none yet\n");
  }
  const AccessStats& g = state->db->stats();
  std::printf("global:     probes=%llu fetches=%llu scans=%llu "
              "statements=%llu\n",
              static_cast<unsigned long long>(
                  g.index_probes.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(
                  g.tuple_fetches.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(
                  g.sequential_scans.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(
                  g.statements.load(std::memory_order_relaxed)));
  if (state->caches_enabled && state->engine != nullptr) {
    auto print_cache = [](const char* level, const LruCacheStats& s) {
      std::printf("cache %-7s hits=%llu misses=%llu evictions=%llu "
                  "entries=%llu bytes=%llu rejected=%llu "
                  "doorkeeper-bytes=%llu hit-rate=%.2f\n",
                  level, static_cast<unsigned long long>(s.hits),
                  static_cast<unsigned long long>(s.misses),
                  static_cast<unsigned long long>(s.evictions),
                  static_cast<unsigned long long>(s.entries),
                  static_cast<unsigned long long>(s.charge_bytes),
                  static_cast<unsigned long long>(s.rejected),
                  static_cast<unsigned long long>(s.doorkeeper_bytes),
                  s.hit_rate());
    };
    print_cache("token:", state->engine->token_cache_stats());
    print_cache("schema:", state->engine->schema_cache_stats());
    print_cache("answer:", state->engine->answer_cache_stats());
    print_cache("body:", state->engine->body_cache_stats());
  }
  const ShardHealthTracker* health =
      state->engine != nullptr ? state->engine->health() : nullptr;
  if (health != nullptr) {
    // The tuples each partition owns.
    const PrecisEngine& engine = *state->engine;
    const ShardQueryStats& sq = state->last_shard_stats;
    for (size_t s = 0; s < engine.num_partitions(); ++s) {
      std::printf("shard %zu:    tuples=%llu\n", s,
                  static_cast<unsigned long long>(
                      engine.partitions()->TuplesOn(s)));
    }
    // Fault-domain health (DESIGN.md §17): per-shard breaker snapshot and
    // the engine-lifetime hedge/skip ledger.
    for (size_t s = 0; s < engine.num_partitions(); ++s) {
      CircuitBreakerStats b = health->breaker(s).stats();
      std::printf(
          "breaker %zu:  state=%s failures=%llu opened=%llu rejected=%llu "
          "half-open-probes=%llu\n",
          s, BreakerStateToString(b.state),
          static_cast<unsigned long long>(b.failures_total),
          static_cast<unsigned long long>(b.opened_total),
          static_cast<unsigned long long>(b.rejected_total),
          static_cast<unsigned long long>(b.half_open_probes));
    }
    std::printf(
        "health:     hedged=%llu hedge-wins=%llu shard-skips=%llu\n",
        static_cast<unsigned long long>(
            health->hedged_subqueries.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            health->hedge_wins.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            health->shard_skips.load(std::memory_order_relaxed)));
    if (!sq.shards_skipped.empty()) {
      std::printf("last query: skipped shards");
      for (uint32_t s : sq.shards_skipped) std::printf(" %u", s);
      std::printf(" (probe-retries=%llu breaker-rejects=%llu)\n",
                  static_cast<unsigned long long>(sq.shard_probe_retries),
                  static_cast<unsigned long long>(sq.breaker_rejects));
    }
  }
  // Data-layout footprint (DESIGN.md §13): the source database's stored
  // structures by kind and the layout each key table chose, the
  // process-wide interner and the last query's arena high-water mark.
  const StorageBytes bytes = state->db->bytes();
  std::printf("storage:    columns=%zu primary-keys=%zu index-entries=%zu "
              "index-tids=%zu owned-runs=%zu total=%zu\n",
              bytes.columns, bytes.primary_keys, bytes.index_entries,
              bytes.index_tids, bytes.owned_runs, bytes.total());
  size_t key_sets = 0, bitmaps = 0, indexes = 0, direct = 0;
  for (const std::string& name : state->db->RelationNames()) {
    const Relation& rel = **state->db->GetRelation(name);
    if (rel.schema().primary_key()) {
      ++key_sets;
      if (rel.primary_key_set().bitmap()) ++bitmaps;
    }
    for (const std::string& attr : rel.IndexedAttributes()) {
      ++indexes;
      if (rel.GetIndex(attr)->direct()) ++direct;
    }
  }
  std::printf(
      "key tables: primary-key bitmaps=%zu/%zu direct indexes=%zu/%zu\n",
      bitmaps, key_sets, direct, indexes);
  SymbolTableStats sym = SymbolTable::Global()->stats();
  std::printf(
      "symbols:    count=%llu bytes=%llu reserved=%llu blocks=%llu "
      "interns=%llu\n",
      static_cast<unsigned long long>(sym.symbols),
      static_cast<unsigned long long>(sym.bytes),
      static_cast<unsigned long long>(sym.reserved_bytes),
      static_cast<unsigned long long>(sym.blocks),
      static_cast<unsigned long long>(sym.interns));
  if (state->last_context != nullptr) {
    ArenaStats arena = state->last_context->arena_stats();
    std::printf("arena:      peak=%llu reserved=%llu slabs=%llu\n",
                static_cast<unsigned long long>(arena.peak_used_bytes),
                static_cast<unsigned long long>(arena.reserved_bytes),
                static_cast<unsigned long long>(arena.slabs));
  }
  if (state->injector.armed()) {
    std::printf("faults seed=%llu injected=%llu\n",
                static_cast<unsigned long long>(state->injector.seed()),
                static_cast<unsigned long long>(
                    state->injector.total_injected()));
    for (size_t i = 0; i < kNumFaultSites; ++i) {
      FaultSite site = static_cast<FaultSite>(i);
      FaultSiteStats fs = state->injector.site_stats(site);
      if (fs.checks == 0) continue;
      std::printf("  %-18s checks=%llu injected=%llu latency_spikes=%llu\n",
                  FaultSiteToString(site),
                  static_cast<unsigned long long>(fs.checks),
                  static_cast<unsigned long long>(fs.injected),
                  static_cast<unsigned long long>(fs.latency_spikes));
    }
    if (state->last_answer != nullptr) {
      const DegradationReport& deg = state->last_answer->report.degradation;
      std::printf("last answer: degraded=%s retries=%llu dropped=%llu "
                  "lookups_failed=%llu\n",
                  deg.degraded() ? "yes" : "no",
                  static_cast<unsigned long long>(deg.total_retries()),
                  static_cast<unsigned long long>(deg.total_dropped_tuples()),
                  static_cast<unsigned long long>(deg.total_failed_lookups()));
    }
  }
  return Status::OK();
}

Status CmdTrace(ShellState* state) {
  if (state->last_context == nullptr) {
    return Status::InvalidArgument("no query traced yet; run 'query' first");
  }
  std::vector<TraceSpan> spans = state->last_context->spans();
  if (spans.empty()) {
    std::printf("no spans recorded\n");
    return Status::OK();
  }
  for (const TraceSpan& span : spans) {
    std::printf("%-14s %9.3f ms  probes=%llu fetches=%llu scans=%llu "
                "statements=%llu\n",
                span.name.c_str(), span.seconds * 1e3,
                static_cast<unsigned long long>(span.index_probes),
                static_cast<unsigned long long>(span.tuple_fetches),
                static_cast<unsigned long long>(span.sequential_scans),
                static_cast<unsigned long long>(span.statements));
  }
  return Status::OK();
}

Status NeedAnswer(const ShellState& state) {
  if (state.last_answer == nullptr) {
    return Status::InvalidArgument("no answer yet; run 'query' first");
  }
  return Status::OK();
}

Status CmdText(ShellState* state) {
  PRECIS_RETURN_NOT_OK(NeedAnswer(*state));
  if (state->catalog == nullptr) {
    return Status::InvalidArgument(
        "no template catalog for this dataset; 'text' works for generated "
        "datasets");
  }
  Translator translator(state->catalog.get());
  auto text = translator.Render(*state->last_answer);
  if (!text.ok()) return text.status();
  std::printf("%s\n", text->c_str());
  return Status::OK();
}

Status CmdJson(ShellState* state) {
  PRECIS_RETURN_NOT_OK(NeedAnswer(*state));
  std::printf("%s\n", AnswerToJson(*state->last_answer).c_str());
  return Status::OK();
}

Status CmdDot(ShellState* state, const std::vector<std::string>& args) {
  PRECIS_RETURN_NOT_OK(NeedAnswer(*state));
  if (args.size() != 1) return Status::InvalidArgument("usage: dot FILE");
  std::ofstream out(args[0], std::ios::trunc);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open '" + args[0] + "'");
  }
  out << ResultSchemaToDot(state->last_answer->schema);
  std::printf("wrote %s\n", args[0].c_str());
  return Status::OK();
}

Status CmdSave(ShellState* state, const std::vector<std::string>& args) {
  PRECIS_RETURN_NOT_OK(NeedAnswer(*state));
  if (args.size() != 1) return Status::InvalidArgument("usage: save FILE");
  auto materialized = state->last_answer->database.Materialize();
  if (!materialized.ok()) return materialized.status();
  PRECIS_RETURN_NOT_OK(SaveDatabaseToFile(*materialized, args[0]));
  std::printf("wrote %s (%zu tuples)\n", args[0].c_str(),
              state->last_answer->database.TotalTuples());
  return Status::OK();
}

int RunShell(std::istream& in, bool interactive) {
  ShellState state;
  std::string line;
  if (interactive) std::printf("precis shell; 'help' lists commands.\n");
  while (true) {
    if (interactive) {
      std::printf("precis> ");
      std::fflush(stdout);
    }
    if (!std::getline(in, line)) {
      // SIGINT/SIGTERM interrupt the blocking read (the handler installs
      // without SA_RESTART); fall through to the same clean exit 'quit'
      // takes so TSan/ASan runs see an orderly teardown, not a kill.
      if (ShutdownRequested() && interactive) std::printf("\ninterrupted\n");
      break;
    }
    std::vector<std::string> words;
    for (const std::string& w : Split(Trim(line), ' ')) {
      if (!w.empty()) words.push_back(w);
    }
    if (words.empty()) continue;
    std::string cmd = words[0];
    std::vector<std::string> args(words.begin() + 1, words.end());

    Status status = Status::OK();
    if (cmd == "quit" || cmd == "exit") {
      break;
    } else if (cmd == "help") {
      std::printf("%s\n", kHelp);
    } else if (cmd == "dataset") {
      status = CmdDataset(&state, args);
    } else if (cmd == "load") {
      status = CmdLoad(&state, args);
    } else if (cmd == "shred") {
      status = CmdShred(&state, args);
    } else if (cmd == "set") {
      status = CmdSet(&state, args);
    } else if (cmd == "query") {
      status = CmdQuery(&state, args);
    } else if (cmd == "deadline") {
      status = CmdDeadline(&state, args);
    } else if (cmd == "budget") {
      status = CmdBudget(&state, args);
    } else if (cmd == "stats") {
      status = CmdStats(&state);
    } else if (cmd == "trace" && args.empty()) {
      status = CmdTrace(&state);
    } else if (cmd == "show") {
      if (state.db == nullptr) {
        status = Status::InvalidArgument("no dataset loaded");
      } else if (!args.empty() && args[0] == "graph") {
        std::printf("%s", state.graph->ToString().c_str());
      } else if (!args.empty() && args[0] == "settings") {
        std::printf("min-weight=%.2f max-attrs=%ld tuples=%zu strategy=%s "
                    "parallelism=%zu shards=%zu trace=%s cache=%s "
                    "deadline-ms=%.1f budget=%llu\n",
                    state.min_weight, state.max_attrs,
                    state.tuples_per_relation,
                    SubsetStrategyToString(state.strategy), state.parallelism,
                    state.shards, state.trace_sql ? "on" : "off",
                    state.caches_enabled ? "on" : "off", state.deadline_ms,
                    static_cast<unsigned long long>(state.access_budget));
        if (state.injector.armed()) {
          std::printf("faults (seed=%llu):\n%s",
                      static_cast<unsigned long long>(state.injector.seed()),
                      state.injector.DescribeSchedules().c_str());
        } else {
          std::printf("faults: off\n");
        }
      } else {
        std::printf("%s", state.db->DescribeSchema().c_str());
      }
    } else if (cmd == "text") {
      status = CmdText(&state);
    } else if (cmd == "json") {
      status = CmdJson(&state);
    } else if (cmd == "dot") {
      status = CmdDot(&state, args);
    } else if (cmd == "save") {
      status = CmdSave(&state, args);
    } else {
      status = Status::InvalidArgument("unknown command '" + cmd +
                                       "'; try 'help'");
    }
    if (!status.ok()) std::printf("error: %s\n", status.ToString().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace precis

int main() {
  precis::InstallShutdownHandler();
  // Interactive iff stdin looks like a terminal; piped scripts skip the
  // prompt noise. isatty is POSIX-only, which this project already assumes.
  bool interactive = isatty(fileno(stdin)) != 0;
  int rc = precis::RunShell(std::cin, interactive);
  std::fflush(stdout);
  // Join the shared pool's workers (queries with parallelism >= 2 started
  // it) so a sanitizer run ends with zero live threads.
  precis::TaskPool::Shared()->Shutdown();
  return rc;
}
