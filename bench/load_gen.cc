// Open-loop load generator for the HTTP front end (DESIGN.md §14).
//
// Drives a running precis_serve (PRECIS_BENCH_TARGET=host:port) at several
// offered QPS levels with a Zipf-popular token workload drawn from the same
// seeded movies vocabulary the server built, and reports achieved QPS,
// open-loop latency percentiles (completion minus *scheduled* send time, so
// queueing delay is not hidden), and the shed rate at each level.
//
// Open-loop means the arrival schedule is fixed up front at the target rate
// and never slows down when the server does — the honest way to measure a
// service under load (closed-loop clients self-throttle and flatter p99).
//
// After the sweep, a hit/miss split pass (DESIGN.md §16) measures the
// cache-to-wire fast path: a hit pass repeats one popular body (the body
// cache stores it on its second sight, and every later response is served
// from the memoized render),
// and a miss pass gives every request a distinct fingerprint (a unique
// tiny min_path_weight per body — far below any real edge weight, so the
// answer bytes are unchanged but the cache key never repeats).
//
// Gates (non-zero exit):
//   1. Byte identity: the body served for a fixed query must equal the
//      in-process answer byte for byte (same parse path, same engine).
//   2. No unexpected errors: every response is 200, 503 (deliberate
//      shedding), or 504 (deadline partial); transport errors and other
//      5xx fail the run.
//   3. Full mode only: the hit-path p99 must be at least 1.5x faster than
//      the miss-path p99 at the same offered load (smoke runs are too
//      short to time percentiles meaningfully, so they only report).
//
// Env knobs: PRECIS_BENCH_TARGET (required, host:port), PRECIS_BENCH_MOVIES
// (must match the server's --movies), PRECIS_BENCH_QPS (comma-separated
// offered loads), PRECIS_BENCH_DURATION_S, PRECIS_BENCH_CONNECTIONS,
// PRECIS_BENCH_OUT (default BENCH_server.json), PRECIS_BENCH_SMOKE.
//
// `--shards N` (or PRECIS_BENCH_SHARDS) records that the target runs
// `precis_serve --shards N`, so BENCH_server.json rows are comparable
// across serving shapes. The byte-identity reference stays the in-process
// single engine on purpose: sharded answers are byte-identical by design
// (DESIGN.md §15), so the gate then also checks that guarantee end to end.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "datagen/movies_dataset.h"
#include "datagen/workload.h"
#include "precis/engine.h"
#include "precis/json_export.h"
#include "server/http_client.h"
#include "server/request_parse.h"
#include "service/precis_service.h"

namespace precis {
namespace {

using Clock = std::chrono::steady_clock;

struct Target {
  std::string host;
  uint16_t port = 0;
};

bool ParseTarget(const std::string& spec, Target* out) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) return false;
  out->host = spec.substr(0, colon);
  long port = std::atol(spec.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return false;
  out->port = static_cast<uint16_t>(port);
  return true;
}

std::vector<double> ParseQpsList(const std::string& spec) {
  std::vector<double> out;
  std::istringstream is(spec);
  std::string item;
  while (std::getline(is, item, ',')) {
    double qps = std::atof(item.c_str());
    if (qps > 0) out.push_back(qps);
  }
  return out;
}

/// Per-worker tallies, merged after the run.
struct WorkerStats {
  std::vector<double> latencies_ms;  // 200 responses only
  uint64_t ok = 0;
  uint64_t shed = 0;       // 503
  uint64_t deadline = 0;   // 504 (partial answer)
  uint64_t rejected = 0;   // 400/404 (workload bug)
  uint64_t errors = 0;     // other 5xx
  uint64_t transport = 0;  // connect/read/write failures
  /// 200s carrying X-Precis-Degraded: true (the chaos pass gates on
  /// these — a killed shard must taint every answer it cost tuples).
  uint64_t degraded = 0;
};

struct PointResult {
  double offered_qps = 0;
  double achieved_qps = 0;
  double wall_seconds = 0;
  uint64_t requests = 0;
  WorkerStats totals;
  double p50_ms = 0;
  double p99_ms = 0;
  double shed_rate = 0;
};

/// One offered-load point: a fixed schedule at `qps` for `duration_s`,
/// executed by `connections` workers each owning one keep-alive connection.
PointResult RunPoint(const Target& target, const std::vector<std::string>& bodies,
                     double qps, double duration_s, size_t connections) {
  const size_t total = static_cast<size_t>(qps * duration_s);
  std::vector<Clock::duration> offsets;
  offsets.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    offsets.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(static_cast<double>(i) / qps)));
  }

  std::atomic<size_t> next{0};
  std::vector<WorkerStats> stats(connections);
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);

  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (size_t w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      WorkerStats& s = stats[w];
      HttpClient client;
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= offsets.size()) break;
        Clock::time_point scheduled = start + offsets[i];
        std::this_thread::sleep_until(scheduled);
        if (!client.connected()) {
          auto connected = HttpClient::Connect(target.host, target.port);
          if (!connected.ok()) {
            ++s.transport;
            continue;
          }
          client = std::move(*connected);
        }
        auto response = client.Post("/query", bodies[i % bodies.size()]);
        Clock::time_point done = Clock::now();
        if (!response.ok()) {
          ++s.transport;
          continue;  // next request reconnects
        }
        switch (response->status) {
          case 200: {
            ++s.ok;
            const std::string* flag = response->FindHeader("X-Precis-Degraded");
            if (flag != nullptr && *flag == "true") ++s.degraded;
            s.latencies_ms.push_back(
                std::chrono::duration<double, std::milli>(done - scheduled)
                    .count());
            break;
          }
          case 503:
            ++s.shed;
            break;
          case 504:
            ++s.deadline;
            break;
          case 400:
          case 404:
            ++s.rejected;
            break;
          default:
            ++s.errors;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  Clock::time_point end = Clock::now();

  PointResult result;
  result.offered_qps = qps;
  result.requests = total;
  result.wall_seconds = std::chrono::duration<double>(end - start).count();
  for (const WorkerStats& s : stats) {
    result.totals.ok += s.ok;
    result.totals.shed += s.shed;
    result.totals.deadline += s.deadline;
    result.totals.rejected += s.rejected;
    result.totals.errors += s.errors;
    result.totals.transport += s.transport;
    result.totals.degraded += s.degraded;
    result.totals.latencies_ms.insert(result.totals.latencies_ms.end(),
                                      s.latencies_ms.begin(),
                                      s.latencies_ms.end());
  }
  uint64_t answered = result.totals.ok + result.totals.deadline;
  result.achieved_qps =
      result.wall_seconds > 0 ? static_cast<double>(answered) / result.wall_seconds : 0;
  result.p50_ms = bench::Percentile(result.totals.latencies_ms, 0.50);
  result.p99_ms = bench::Percentile(result.totals.latencies_ms, 0.99);
  result.shed_rate =
      total > 0 ? static_cast<double>(result.totals.shed) / total : 0;
  return result;
}

/// FNV-1a 64 over the probe body: a stable fingerprint ci.sh compares
/// across two chaos runs with the same fault seed (the cross-process half
/// of the determinism gate — the in-run half re-POSTs the probe).
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The chaos pass (DESIGN.md §17): the target is a precis_serve with a
/// fault-scheduled dead shard (`--shards N --kill-shard K`). The healthy
/// byte-identity and hit-path gates do not apply — degraded answers
/// legitimately differ from the single-engine answer and are never cached
/// (fault taint) — so this pass gates on what outage handling promises
/// instead: availability (>= 99% of requests answered 200), honesty (those
/// 200s carry X-Precis-Degraded: true), determinism (re-POSTing the probe
/// returns byte-identical bodies), and bounded latency (p99 within 3x of
/// the healthy baseline when PRECIS_BENCH_BASELINE_P99_MS is given).
int ChaosRun(const Target& target, const std::string& target_spec,
             const std::vector<std::string>& pool,
             const std::vector<std::string>& bodies, double duration_s,
             size_t connections, const std::vector<double>& qps_points,
             const std::string& out_path, size_t shards) {
  const std::string probe_body = "{\"tokens\":[\"" + JsonEscape(pool[0]) +
                                 "\"],\"tuples_per_relation\":5}";
  std::string probe_answer;
  bool probe_degraded = false;
  for (int i = 0; i < 3; ++i) {
    auto client = HttpClient::Connect(target.host, target.port);
    if (!client.ok()) {
      std::fprintf(stderr, "cannot connect to %s: %s\n", target_spec.c_str(),
                   client.status().ToString().c_str());
      return 1;
    }
    auto served = client->Post("/query", probe_body);
    if (!served.ok() || served->status != 200) {
      std::fprintf(stderr, "chaos probe failed (status %d)\n",
                   served.ok() ? served->status : -1);
      return 1;
    }
    if (i == 0) {
      probe_answer = served->body;
      const std::string* flag = served->FindHeader("X-Precis-Degraded");
      probe_degraded = flag != nullptr && *flag == "true";
    } else if (served->body != probe_answer) {
      std::fprintf(stderr,
                   "DETERMINISM GATE FAILED: re-POSTing the probe returned a "
                   "different body (%zu vs %zu bytes)\n",
                   served->body.size(), probe_answer.size());
      return 1;
    }
  }
  if (!probe_degraded) {
    std::fprintf(stderr,
                 "DEGRADED GATE FAILED: probe answered 200 without "
                 "X-Precis-Degraded: true (is --kill-shard active?)\n");
    return 1;
  }
  const uint64_t probe_hash = Fnv1a64(probe_answer);
  std::fprintf(stderr,
               "chaos probe passed: %zu bytes, degraded, fingerprint "
               "%016llx\n",
               probe_answer.size(),
               static_cast<unsigned long long>(probe_hash));

  std::vector<PointResult> points;
  for (double qps : qps_points) {
    PointResult r = RunPoint(target, bodies, qps, duration_s, connections);
    std::fprintf(stderr,
                 "chaos %.0f qps: achieved %.1f qps, p50 %.2f ms, p99 %.2f "
                 "ms (%llu ok / %llu degraded / %llu shed / %llu 504 / %llu "
                 "err / %llu transport)\n",
                 r.offered_qps, r.achieved_qps, r.p50_ms, r.p99_ms,
                 static_cast<unsigned long long>(r.totals.ok),
                 static_cast<unsigned long long>(r.totals.degraded),
                 static_cast<unsigned long long>(r.totals.shed),
                 static_cast<unsigned long long>(r.totals.deadline),
                 static_cast<unsigned long long>(r.totals.errors),
                 static_cast<unsigned long long>(r.totals.transport));
    points.push_back(std::move(r));
  }

  uint64_t requests = 0, ok = 0, degraded = 0;
  double max_p99 = 0;
  for (const PointResult& r : points) {
    requests += r.requests;
    ok += r.totals.ok;
    degraded += r.totals.degraded;
    max_p99 = std::max(max_p99, r.p99_ms);
  }
  const double availability =
      requests > 0 ? static_cast<double>(ok) / static_cast<double>(requests)
                   : 0;
  const double degraded_rate =
      ok > 0 ? static_cast<double>(degraded) / static_cast<double>(ok) : 0;
  const double baseline_p99 =
      std::atof(bench::EnvString("PRECIS_BENCH_BASELINE_P99_MS", "0").c_str());
  const double p99_ratio = baseline_p99 > 0 ? max_p99 / baseline_p99 : 0;

  std::ostringstream os;
  os << "{\n  \"bench\": \"server_chaos\",\n  \"target\": \"" << target_spec
     << "\",\n  \"movies\": " << bench::BenchMovieCount()
     << ",\n  \"shards\": " << shards
     << ",\n  \"connections\": " << connections
     << ",\n  \"duration_seconds\": " << duration_s
     << ",\n  \"probe_bytes\": " << probe_answer.size()
     << ",\n  \"probe_fingerprint\": \"";
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(probe_hash));
  os << hex << "\",\n  \"availability\": " << availability
     << ",\n  \"degraded_rate\": " << degraded_rate
     << ",\n  \"max_p99_ms\": " << max_p99
     << ",\n  \"baseline_p99_ms\": " << baseline_p99
     << ",\n  \"p99_ratio\": " << p99_ratio << ",\n  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const PointResult& r = points[i];
    os << "    {\"offered_qps\": " << r.offered_qps
       << ", \"achieved_qps\": " << r.achieved_qps
       << ", \"requests\": " << r.requests << ", \"ok\": " << r.totals.ok
       << ", \"degraded\": " << r.totals.degraded
       << ", \"shed\": " << r.totals.shed
       << ", \"deadline_504\": " << r.totals.deadline
       << ", \"rejected\": " << r.totals.rejected
       << ", \"errors\": " << r.totals.errors
       << ", \"transport_errors\": " << r.totals.transport
       << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::ofstream out(out_path);
  out << os.str();
  out.close();
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());

  if (availability < 0.99) {
    std::fprintf(stderr,
                 "AVAILABILITY GATE FAILED: only %.2f%% of requests answered "
                 "200 (need >= 99%%)\n",
                 availability * 100);
    return 1;
  }
  if (degraded_rate < 0.99) {
    std::fprintf(stderr,
                 "DEGRADED GATE FAILED: only %.2f%% of 200s carried "
                 "X-Precis-Degraded: true (need >= 99%%)\n",
                 degraded_rate * 100);
    return 1;
  }
  if (baseline_p99 > 0 && max_p99 > 3.0 * baseline_p99) {
    std::fprintf(stderr,
                 "LATENCY GATE FAILED: chaos p99 %.2f ms is %.2fx the "
                 "healthy baseline %.2f ms (need <= 3x)\n",
                 max_p99, p99_ratio, baseline_p99);
    return 1;
  }
  std::fprintf(stderr,
               "chaos gates passed: availability %.2f%%, degraded %.2f%%, "
               "p99 %.2f ms%s\n",
               availability * 100, degraded_rate * 100, max_p99,
               baseline_p99 > 0 ? "" : " (no baseline given)");
  return 0;
}

int LoadGenMain(int argc, char** argv) {
  const bool smoke = std::getenv("PRECIS_BENCH_SMOKE") != nullptr;
  bool chaos = std::getenv("PRECIS_BENCH_CHAOS") != nullptr;
  size_t shards = bench::EnvSize("PRECIS_BENCH_SHARDS", 0);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      shards = static_cast<size_t>(std::atol(arg.c_str() + 9));
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<size_t>(std::atol(argv[++i]));
    } else if (arg == "--chaos") {
      chaos = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (--shards N, --chaos)\n",
                   arg.c_str());
      return 2;
    }
  }
  const std::string target_spec = bench::EnvString("PRECIS_BENCH_TARGET", "");
  Target target;
  if (!ParseTarget(target_spec, &target)) {
    std::fprintf(stderr,
                 "PRECIS_BENCH_TARGET must be host:port of a running "
                 "precis_serve (got '%s')\n",
                 target_spec.c_str());
    return 2;
  }
  const double duration_s =
      smoke ? 0.7 : static_cast<double>(bench::EnvSize("PRECIS_BENCH_DURATION_S", 5));
  const size_t connections = bench::EnvSize("PRECIS_BENCH_CONNECTIONS", 8);
  const std::vector<double> qps_points = ParseQpsList(bench::EnvString(
      "PRECIS_BENCH_QPS", smoke ? "5,10,20" : "10,40,160"));
  const std::string out_path = bench::EnvString(
      "PRECIS_BENCH_OUT", chaos ? "BENCH_chaos.json" : "BENCH_server.json");
  if (!chaos && qps_points.size() < 3) {
    std::fprintf(stderr, "need at least 3 offered-load points\n");
    return 2;
  }
  if (qps_points.empty()) {
    std::fprintf(stderr, "need at least 1 offered-load point\n");
    return 2;
  }

  // The same seeded dataset the server built: its vocabulary *is* the
  // workload's, and its engine answers the byte-identity probe.
  const MoviesDataset& dataset = bench::SharedDataset();
  auto created = PrecisEngine::Create(&dataset.db(), &dataset.graph());
  if (!created.ok()) {
    std::fprintf(stderr, "engine: %s\n", created.status().ToString().c_str());
    return 1;
  }
  PrecisEngine engine = std::move(*created);

  // Liveness first: fail fast with a readable message if the target is
  // not a precis_serve.
  {
    auto client = HttpClient::Connect(target.host, target.port);
    if (!client.ok()) {
      std::fprintf(stderr, "cannot connect to %s: %s\n", target_spec.c_str(),
                   client.status().ToString().c_str());
      return 1;
    }
    auto health = client->Get("/healthz");
    if (!health.ok() || health->status != 200) {
      std::fprintf(stderr, "healthz probe failed\n");
      return 1;
    }
  }

  // Zipf-popular token pool (multi-word director names exercise the phrase
  // path; the skew makes the server's caches meaningful under load).
  std::vector<std::string> pool;
  Rng rng(17);
  for (int i = 0; i < 32; ++i) {
    auto token = RandomToken(dataset.db(), "DIRECTOR", "dname", &rng);
    if (!token.ok()) std::abort();
    pool.push_back(std::move(*token));
  }
  ZipfSampler zipf(pool.size(), 1.2);
  const size_t body_pool = 256;
  std::vector<std::string> bodies;
  bodies.reserve(body_pool);
  for (size_t i = 0; i < body_pool; ++i) {
    bodies.push_back("{\"tokens\":[\"" + JsonEscape(pool[zipf.Sample(&rng)]) +
                     "\"],\"tuples_per_relation\":5}");
  }

  if (chaos) {
    return ChaosRun(target, target_spec, pool, bodies, duration_s,
                    connections, qps_points, out_path, shards);
  }

  // Gate 1: byte identity. The served body must equal the in-process
  // answer for the *same* request JSON routed through the same parser.
  {
    const std::string probe_body =
        "{\"tokens\":[\"" + JsonEscape(pool[0]) +
        "\"],\"tuples_per_relation\":5}";
    auto parsed = ParseQueryRequest(probe_body);
    if (!parsed.ok()) {
      std::fprintf(stderr, "probe parse: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    auto service = PrecisService::Create(&engine);
    if (!service.ok()) return 1;
    ServiceResponse local = (*service)->Execute(std::move(parsed->request));
    if (!local.status.ok()) {
      std::fprintf(stderr, "local probe failed: %s\n",
                   local.status.ToString().c_str());
      return 1;
    }
    std::string expected = AnswerToJson(*local.answer);
    auto client = HttpClient::Connect(target.host, target.port);
    if (!client.ok()) return 1;
    auto served = client->Post("/query", probe_body);
    if (!served.ok() || served->status != 200) {
      std::fprintf(stderr, "served probe failed (status %d)\n",
                   served.ok() ? served->status : -1);
      return 1;
    }
    if (served->body != expected) {
      std::fprintf(stderr,
                   "BYTE-IDENTITY GATE FAILED: served answer differs from "
                   "in-process answer (%zu vs %zu bytes)\n",
                   served->body.size(), expected.size());
      return 1;
    }
    std::fprintf(stderr, "byte-identity gate passed (%zu bytes)\n",
                 expected.size());
  }

  // The offered-load sweep.
  std::vector<PointResult> points;
  for (double qps : qps_points) {
    PointResult r = RunPoint(target, bodies, qps, duration_s, connections);
    std::fprintf(stderr,
                 "offered %.0f qps: achieved %.1f qps, p50 %.2f ms, p99 "
                 "%.2f ms, shed %.1f%% (%llu ok / %llu shed / %llu 504 / "
                 "%llu err / %llu transport)\n",
                 r.offered_qps, r.achieved_qps, r.p50_ms, r.p99_ms,
                 r.shed_rate * 100,
                 static_cast<unsigned long long>(r.totals.ok),
                 static_cast<unsigned long long>(r.totals.shed),
                 static_cast<unsigned long long>(r.totals.deadline),
                 static_cast<unsigned long long>(r.totals.errors),
                 static_cast<unsigned long long>(r.totals.transport));
    points.push_back(std::move(r));
  }

  // Hit/miss split pass at one moderate offered load. The byte-identity
  // probe and the sweep already sent this body (pool[0] heads the Zipf
  // mix), so the body cache, which stores a body on its second sight,
  // holds it: virtually every 200 is served straight from the memoized
  // render.
  const double hm_qps = smoke ? 20 : 80;
  const std::string hit_body = "{\"tokens\":[\"" + JsonEscape(pool[0]) +
                               "\"],\"tuples_per_relation\":5}";
  PointResult hit_point =
      RunPoint(target, {hit_body}, hm_qps, duration_s, connections);
  std::vector<std::string> miss_bodies;
  const size_t miss_total = static_cast<size_t>(hm_qps * duration_s) + 1;
  miss_bodies.reserve(miss_total);
  for (size_t i = 0; i < miss_total; ++i) {
    char weight[40];
    std::snprintf(weight, sizeof(weight), "%.12g",
                  1e-9 * static_cast<double>(i + 1));
    miss_bodies.push_back("{\"tokens\":[\"" + JsonEscape(pool[0]) +
                          "\"],\"tuples_per_relation\":5,"
                          "\"min_path_weight\":" +
                          weight + "}");
  }
  PointResult miss_point =
      RunPoint(target, miss_bodies, hm_qps, duration_s, connections);
  const double hit_speedup_p99 =
      hit_point.p99_ms > 0 ? miss_point.p99_ms / hit_point.p99_ms : 0;
  std::fprintf(stderr,
               "hit/miss split @ %.0f qps: hit p50 %.3f ms p99 %.3f ms, "
               "miss p50 %.3f ms p99 %.3f ms, p99 speedup %.2fx\n",
               hm_qps, hit_point.p50_ms, hit_point.p99_ms, miss_point.p50_ms,
               miss_point.p99_ms, hit_speedup_p99);

  std::ostringstream os;
  os << "{\n  \"bench\": \"server_load\",\n  \"target\": \"" << target_spec
     << "\",\n  \"movies\": " << bench::BenchMovieCount()
     << ",\n  \"shards\": " << shards
     << ",\n  \"connections\": " << connections
     << ",\n  \"duration_seconds\": " << duration_s << ",\n  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const PointResult& r = points[i];
    os << "    {\"offered_qps\": " << r.offered_qps
       << ", \"achieved_qps\": " << r.achieved_qps
       << ", \"requests\": " << r.requests << ", \"ok\": " << r.totals.ok
       << ", \"shed\": " << r.totals.shed
       << ", \"deadline_504\": " << r.totals.deadline
       << ", \"rejected\": " << r.totals.rejected
       << ", \"errors\": " << r.totals.errors
       << ", \"transport_errors\": " << r.totals.transport
       << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
       << ", \"shed_rate\": " << r.shed_rate << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"hit_miss\": {\"offered_qps\": " << hm_qps
     << ", \"hit_ok\": " << hit_point.totals.ok
     << ", \"hit_p50_ms\": " << hit_point.p50_ms
     << ", \"hit_p99_ms\": " << hit_point.p99_ms
     << ", \"miss_ok\": " << miss_point.totals.ok
     << ", \"miss_p50_ms\": " << miss_point.p50_ms
     << ", \"miss_p99_ms\": " << miss_point.p99_ms
     << ", \"p99_speedup\": " << hit_speedup_p99 << "}\n}\n";
  std::ofstream out(out_path);
  out << os.str();
  out.close();
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());

  // Gate 2: nothing but deliberate outcomes. 503/504 are the designed
  // backpressure; anything else is a server defect.
  uint64_t bad = 0;
  uint64_t answered = 0;
  for (const PointResult& r : points) {
    bad += r.totals.errors + r.totals.transport + r.totals.rejected;
    answered += r.totals.ok;
  }
  bad += hit_point.totals.errors + hit_point.totals.transport +
         hit_point.totals.rejected + miss_point.totals.errors +
         miss_point.totals.transport + miss_point.totals.rejected;
  answered += hit_point.totals.ok + miss_point.totals.ok;
  if (bad > 0) {
    std::fprintf(stderr,
                 "ERROR GATE FAILED: %llu unexpected outcomes (5xx, 4xx, or "
                 "transport errors)\n",
                 static_cast<unsigned long long>(bad));
    return 1;
  }
  if (answered == 0) {
    std::fprintf(stderr, "ERROR GATE FAILED: no successful answers at all\n");
    return 1;
  }

  // Gate 3: the memoized fast path must actually pay for itself. Smoke
  // runs only report (sub-second passes make p99 a coin flip).
  if (!smoke && hit_speedup_p99 < 1.5) {
    std::fprintf(stderr,
                 "HIT-PATH GATE FAILED: hit p99 only %.2fx faster than miss "
                 "p99 (need >= 1.5x)\n",
                 hit_speedup_p99);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace precis

int main(int argc, char** argv) { return precis::LoadGenMain(argc, argv); }
