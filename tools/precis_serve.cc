// precis_serve: the précis answering service as a network daemon.
//
// Builds the deterministic movies dataset, stands a PrecisEngine +
// PrecisService behind the HTTP front end (src/server), prints the bound
// address, and runs until SIGINT/SIGTERM. Shutdown is graceful: stop
// accepting, drain in-flight queries, flush, exit 0 — so CI can `kill
// -TERM` the daemon and gate on its exit code.
//
//   precis_serve --port 8080 --movies 2000 --workers 4 --queue-depth 64
//   curl -s localhost:8080/query -d '{"tokens":["Woody Allen"]}'

#include <poll.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common/fault_injection.h"
#include "common/net_util.h"
#include "common/task_pool.h"
#include "datagen/movies_dataset.h"
#include "precis/engine.h"
#include "server/http_server.h"
#include "service/precis_service.h"

namespace precis {
namespace {

struct ServeFlags {
  std::string address = "127.0.0.1";
  int port = 0;  // 0 = ephemeral, printed at startup
  size_t movies = 2000;
  size_t workers = 4;
  size_t io_threads = 2;
  size_t queue_depth = 64;
  double deadline_ms = 0.0;
  size_t parallelism = 0;
  bool cache = true;
  /// Partitions of the engine (DESIGN.md §15): the dataset is read in
  /// place at every count; N >= 2 splits its tids into N fault domains.
  /// 0 and 1 are one partition. Answers are byte-identical either way.
  size_t shards = 0;
  /// Hedge stalled partition reads: re-issue them against the same
  /// source from a second task (DESIGN.md §17); needs shards >= 2.
  bool replicas = false;
  /// When set, that shard is fault-scheduled permanently dead (latched
  /// kShardSubquery fault) — the chaos-drill shape ci.sh gates on.
  std::optional<size_t> kill_shard;
  /// Seed for the fault injector backing --kill-shard.
  uint64_t fault_seed = 42;
  /// Socket-level chaos spec, forwarded to HttpServer (the
  /// PRECIS_SERVER_CHAOS environment variable also works).
  std::string chaos;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--address A] [--port N] [--movies N] [--workers N]\n"
      "          [--io-threads N] [--queue-depth N] [--deadline-ms MS]\n"
      "          [--parallelism N] [--cache on|off] [--shards N]\n"
      "          [--replicas on|off] [--kill-shard N] [--fault-seed N]\n"
      "          [--chaos SPEC]\n"
      "Serves POST /query, GET /metrics, GET /healthz until SIGINT/SIGTERM.\n"
      "--port 0 picks an ephemeral port (printed on stdout at startup).\n"
      "--queue-depth bounds the admission queue (excess -> HTTP 503).\n"
      "--shards N >= 2 splits the dataset into N hash partitions: fault\n"
      "  domains over the one copy, read in place (answers stay\n"
      "  byte-identical). 0 or 1 is one partition.\n"
      "--replicas on hedges stalled partition reads: a hedge re-reads the\n"
      "  source from a second task, first answer wins (no copy is made;\n"
      "  needs --shards >= 2).\n"
      "--kill-shard N fault-schedules shard N permanently dead: queries\n"
      "  answer degraded from the surviving shards (needs --shards >= 2).\n"
      "--chaos 'seed=7,read=0.01,write=0.01,short=0.2' injects seeded\n"
      "  socket-level errors (PRECIS_SERVER_CHAOS works too).\n",
      argv0);
}

/// A non-negative decimal integer: digits only, no sign, nothing after.
bool ParseCount(const std::string& text, size_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

bool ParseFlags(int argc, char** argv, ServeFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    if (arg == "--address") {
      flags->address = value;
    } else if (arg == "--port") {
      flags->port = std::atoi(value.c_str());
    } else if (arg == "--movies") {
      flags->movies = static_cast<size_t>(std::atol(value.c_str()));
    } else if (arg == "--workers") {
      flags->workers = static_cast<size_t>(std::atol(value.c_str()));
    } else if (arg == "--io-threads") {
      flags->io_threads = static_cast<size_t>(std::atol(value.c_str()));
    } else if (arg == "--queue-depth") {
      flags->queue_depth = static_cast<size_t>(std::atol(value.c_str()));
    } else if (arg == "--deadline-ms") {
      flags->deadline_ms = std::atof(value.c_str());
    } else if (arg == "--parallelism") {
      flags->parallelism = static_cast<size_t>(std::atol(value.c_str()));
    } else if (arg == "--cache") {
      flags->cache = value != "off" && value != "0" && value != "false";
    } else if (arg == "--shards") {
      if (!ParseCount(value, &flags->shards)) {
        std::fprintf(stderr, "--shards takes a count, not '%s'\n",
                     value.c_str());
        return false;
      }
    } else if (arg == "--replicas") {
      flags->replicas = value != "off" && value != "0" && value != "false";
    } else if (arg == "--kill-shard") {
      size_t shard = 0;
      if (!ParseCount(value, &shard)) {
        std::fprintf(stderr, "--kill-shard takes a shard id, not '%s'\n",
                     value.c_str());
        return false;
      }
      flags->kill_shard = shard;
    } else if (arg == "--fault-seed") {
      flags->fault_seed =
          static_cast<uint64_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (arg == "--chaos") {
      flags->chaos = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  if (flags->port < 0 || flags->port > 65535) {
    std::fprintf(stderr, "--port must be in [0, 65535]\n");
    return false;
  }
  if (flags->shards > PrecisEngine::kMaxPartitions) {
    std::fprintf(stderr, "--shards must be at most %zu\n",
                 PrecisEngine::kMaxPartitions);
    return false;
  }
  if (flags->kill_shard &&
      (flags->shards < 2 || *flags->kill_shard >= flags->shards)) {
    std::fprintf(stderr,
                 "--kill-shard needs --shards >= 2 and a shard id < N\n");
    return false;
  }
  if (flags->replicas && flags->shards < 2) {
    std::fprintf(stderr, "--replicas on needs --shards >= 2\n");
    return false;
  }
  return true;
}

int ServeMain(int argc, char** argv) {
  ServeFlags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    Usage(argv[0]);
    return 2;
  }

  // Install before the (potentially slow) dataset build so Ctrl-C during
  // startup also exits promptly.
  InstallShutdownHandler();

  std::fprintf(stderr, "building movies dataset (%zu movies)...\n",
               flags.movies);
  MoviesConfig config;
  config.num_movies = flags.movies;
  auto ds = MoviesDataset::Create(config);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  MoviesDataset dataset = std::move(*ds);
  if (ShutdownRequested()) return 0;

  PrecisService::Options service_options;
  service_options.num_workers = flags.workers;
  service_options.default_deadline_seconds = flags.deadline_ms / 1e3;
  service_options.dbgen_parallelism = flags.parallelism;
  service_options.max_queue_depth = flags.queue_depth;

  // --kill-shard: a latched permanent kShardSubquery fault scoped to the
  // one shard's domain. Every query's fault plan then excludes that shard
  // and answers from the others (DESIGN.md §17) — the drill ci.sh's chaos
  // leg gates on.
  std::unique_ptr<FaultInjector> injector;
  if (flags.kill_shard) {
    injector = std::make_unique<FaultInjector>(flags.fault_seed);
    FaultSchedule dead =
        FaultSchedule::Steps({1}, FaultKind::kPermanentError);
    dead.domains = {static_cast<uint32_t>(*flags.kill_shard)};
    injector->SetSchedule(FaultSite::kShardSubquery, dead);
    service_options.fault_injector = injector.get();
    std::fprintf(stderr,
                 "fault schedule: shard %zu permanently dead (seed %llu)\n",
                 *flags.kill_shard,
                 static_cast<unsigned long long>(flags.fault_seed));
  }

  auto engine = PrecisEngine::Create(&dataset.db(), &dataset.graph(),
                                     flags.shards, flags.replicas);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  engine->set_caches_enabled(flags.cache);
  if (engine->num_partitions() >= 2) {
    std::fprintf(stderr, "partitioned execution: %zu partitions%s\n",
                 engine->num_partitions(),
                 flags.replicas ? " (hedged share reads)" : "");
  }
  auto service = PrecisService::Create(&*engine, service_options);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  HttpServer::Options server_options;
  server_options.bind_address = flags.address;
  server_options.port = static_cast<uint16_t>(flags.port);
  server_options.io_threads = flags.io_threads;
  server_options.chaos_spec = flags.chaos;
  auto server = HttpServer::Create({{"default", service->get()}},
                                   server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return 1;
  }

  // The machine-readable line CI and the load generator scrape for the
  // ephemeral port. Flushed immediately: the scraper polls this output.
  std::printf("precis_serve listening on %s:%u\n", flags.address.c_str(),
              static_cast<unsigned>((*server)->port()));
  std::fflush(stdout);

  // Park until SIGINT/SIGTERM; the servers run on their own threads.
  while (!ShutdownRequested()) {
    pollfd pfd = {ShutdownWakeupFd(), POLLIN, 0};
    (void)poll(&pfd, 1, -1);
  }

  // Graceful drain first: /healthz flips to 503 + Connection: close so a
  // load balancer pulls the instance, then we log progress while the open
  // connections run dry (briefly — Stop() force-drains stragglers anyway).
  std::fprintf(stderr, "draining (healthz now 503)...\n");
  (*server)->BeginDrain();
  for (int tick = 0; tick < 10; ++tick) {
    uint64_t open = (*server)->metrics().connections_open;
    std::fprintf(stderr, "drain: %llu connections open\n",
                 static_cast<unsigned long long>(open));
    if (open == 0) break;
    (void)poll(nullptr, 0, 50);
  }
  std::fprintf(stderr, "shutting down...\n");
  (*server)->Stop();        // stop accepting, drain in-flight responses
  (*service)->Shutdown();   // then stop the query workers
  HttpServer::Metrics m = (*server)->metrics();
  std::fprintf(stderr,
               "served %llu requests (%llu 2xx, %llu 4xx, %llu shed, "
               "%llu 504, %llu 5xx) over %llu connections\n",
               static_cast<unsigned long long>(m.requests_total),
               static_cast<unsigned long long>(m.responses_2xx),
               static_cast<unsigned long long>(m.responses_4xx),
               static_cast<unsigned long long>(m.responses_503),
               static_cast<unsigned long long>(m.responses_504),
               static_cast<unsigned long long>(m.responses_5xx),
               static_cast<unsigned long long>(m.connections_accepted));
  // Join the shared pool's workers (queries with parallelism >= 2 used it)
  // so sanitizer runs end with zero live threads.
  TaskPool::Shared()->Shutdown();
  return 0;
}

}  // namespace
}  // namespace precis

int main(int argc, char** argv) { return precis::ServeMain(argc, argv); }
