// perfbench: one workload of the end-to-end benchmark against a freshly
// launched precis_serve (see README.md in this directory).
//
// --trace 0 measures the end-to-end metrics that gate a change: set-up
// time, memory and CPU per query at the nominal rate. --trace 1 measures
// the per-layer metrics: the traced in-process replay, the service's queue
// wait, the server's own instruments (response headers, GET /metrics,
// /proc) over the nominal phase, and latency and the capacity ramp, which
// vary with host scheduling noise too much to gate anything. The last line
// of stdout is the JSON result; a run with any failed request exits 1.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "datagen/movies_dataset.h"
#include "loadgen.h"
#include "precis/engine.h"
#include "proc.h"
#include "server/json_lite.h"
#include "server/request_parse.h"
#include "stats.h"
#include "stream.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Server launches per run: as many as fit in about kSetupBudgetSeconds,
/// within [kMinSetupLaunches, kMaxSetupLaunches]; setup_s is their median.
constexpr double kSetupBudgetSeconds = 5;
constexpr int kMinSetupLaunches = 3;
constexpr int kMaxSetupLaunches = 7;
constexpr double kLaunchTimeoutSeconds = 120;
/// Requests per timed p99: enough for ten beyond it, with margin.
constexpr size_t kMinTimedRequests = 1100;
/// Ramp: x1.25 coarse steps bracket the knee, four bisections narrow it
/// to about 1.4%; a step lasts 0.15 x --seconds or longer.
constexpr double kRampGrowth = 1.25;
constexpr int kRampRefinements = 4;
constexpr int kRampMaxSteps = 10;
constexpr double kRampStepShare = 0.15;
/// Ramp steps last between one and 2.5 step shares, aiming at 1100
/// requests.
constexpr double kRampMaxStepShares = 2.5;
/// A step whose generator sent more than 1% of its requests later than
/// this share of the latency limit (with a connection idle) fell behind
/// on its own: that lateness alone would decide the limit check.
constexpr double kLateShareOfLimit = 0.5;
/// The nominal phase runs as this many back-to-back windows; CPU per query
/// is the median over them, so one burst of host noise moves one window.
constexpr size_t kNominalWindows = 5;
/// Cold warm-up: half-second chunks at twice the nominal rate until the
/// answer cache evicts, but no more than this many.
constexpr int kMaxWarmUpChunks = 30;
/// In-process traced replay: at most this many nominal-stream requests.
constexpr size_t kMaxReplayRequests = 2000;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t movies = 0;
  std::string mix;
  double nominal_qps = 0;
  double limit_ms = 0;
  double ramp_start_qps = 0;
  std::vector<std::string> serve;  // precis_serve path, then its flags
  std::string trace_out;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    const double number = std::atof(value.c_str());
    const uint64_t count = std::strtoull(value.c_str(), nullptr, 10);
    if (key == "--workload") f->workload = value;
    else if (key == "--seed") f->seed = count;
    else if (key == "--seconds") f->seconds = number;
    else if (key == "--trace") f->trace = value == "1";
    else if (key == "--movies") f->movies = count;
    else if (key == "--mix") f->mix = value;
    else if (key == "--nominal-qps") f->nominal_qps = number;
    else if (key == "--limit-ms") f->limit_ms = number;
    else if (key == "--ramp-start-qps") f->ramp_start_qps = number;
    else if (key == "--serve" || key == "--serve-arg")
      f->serve.push_back(value);
    else if (key == "--trace-out") f->trace_out = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0 || f->workload.empty() || f->movies == 0 ||
      f->seconds <= 0 || f->nominal_qps <= 0 || f->limit_ms <= 0 ||
      f->ramp_start_qps <= 0 || f->serve.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --movies N --mix hot|cold --nominal-qps Q "
                 "--limit-ms L --ramp-start-qps R --serve PRECIS_SERVE "
                 "[--serve-arg FLAG]... [--trace-out DIR]\n");
    return false;
  }
  return true;
}

/// Where the numbers come from: threads, CPU model, SIMD path, compiler.
std::string MachineLine() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, model = "unknown cpu";
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
#if defined(__AVX2__)
  const char* simd = "avx2";
#elif defined(__SSE4_2__)
  const char* simd = "sse4.2";
#else
  const char* simd = "scalar";
#endif
  return std::to_string(std::thread::hardware_concurrency()) + " threads, " +
         model + ", " + simd + ", g++ " + __VERSION__;
}

/// Load-generator connections and oracle threads: one per core, at most 4.
size_t WorkerThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The metrics of one run, printed by name with units and as the JSON
/// result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, value, unit);
  }
  /// A percentile metric; a sample too small to support it fails the run.
  void AddPercentile(const std::string& name, const std::vector<double>& v,
                     double p, const std::string& unit) {
    std::optional<double> value = Percentile(v, p);
    if (!value) {
      std::fprintf(stderr, "%s: %zu samples cannot support p%g\n",
                   name.c_str(), v.size(), p * 100);
      valid_ = false;
      value = 0;
    }
    Add(name, *value, unit);
  }
  /// The median over consecutive windows of at least kMinTimedRequests
  /// samples of each window's percentile: a burst of host noise moves one
  /// window, not the metric.
  void AddWindowed(const std::string& name, const std::vector<double>& v,
                   double p, const std::string& unit) {
    const size_t windows = std::max<size_t>(1, v.size() / kMinTimedRequests);
    std::vector<double> values;
    for (size_t w = 0; w < windows; ++w) {
      std::optional<double> value = Percentile(
          std::vector<double>(v.begin() + w * v.size() / windows,
                              v.begin() + (w + 1) * v.size() / windows),
          p);
      if (value) values.push_back(*value);
    }
    if (values.size() < windows) {
      std::fprintf(stderr, "%s: %zu samples cannot support p%g\n",
                   name.c_str(), v.size(), p * 100);
      valid_ = false;
    }
    Add(name, Median(values), unit);
  }
  void Invalidate() { valid_ = false; }

  void Print(uint64_t attempted, uint64_t failed) const {
    for (const auto& [name, value, unit] : metrics_) {
      std::printf("  %-28s %14.6g %s\n", name.c_str(), value, unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                valid_ && failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(), Number(value).c_str(),
                  unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
  bool valid() const { return valid_; }

 private:
  /// Shortest text that reads back as the same double: every digit kept.
  static std::string Number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    return std::string(buf, end);
  }

  std::vector<std::tuple<std::string, double, std::string>> metrics_;
  bool valid_ = true;
};

/// Cache counters of the default profile from GET /metrics.
struct CacheCounters {
  double hits = 0, misses = 0, evictions = 0, bytes = 0;
};
using CacheSnapshot = std::map<std::string, CacheCounters>;
constexpr const char* kCacheLevels[] = {"token", "schema", "answer", "body"};

precis::Result<CacheSnapshot> ScrapeCaches(LoadGenerator* load) {
  auto body = load->Get("/metrics");
  if (!body.ok()) return body.status();
  auto json = precis::ParseJson(*body);
  if (!json.ok()) return json.status();
  const precis::JsonValue* caches = nullptr;
  if (const auto* profiles = json->Find("profiles")) {
    const precis::JsonValue* def = profiles->Find("default");
    if (def != nullptr) caches = def->Find("caches");
  }
  if (caches == nullptr) {
    return precis::Status::Internal("no caches in /metrics");
  }
  CacheSnapshot out;
  for (const char* level : kCacheLevels) {
    const precis::JsonValue* c = caches->Find(level);
    if (c == nullptr) {
      return precis::Status::Internal("no cache level in /metrics");
    }
    auto num = [c](const char* key) {
      const precis::JsonValue* v = c->Find(key);
      return v != nullptr && v->is_number() ? v->number : 0.0;
    };
    out[level] = {num("hits"), num("misses"), num("evictions"), num("bytes")};
  }
  return out;
}

/// Launches, phases and checks against the oracle, with failure tallies.
class Session {
 public:
  Session(const Flags& flags, Oracle* oracle, bool cold)
      : flags_(flags), oracle_(oracle), cold_(cold) {}

  /// Launches precis_serve `min_launches` times or more (see
  /// kSetupBudgetSeconds), keeping the last one running; returns the
  /// launch-to-listening times.
  precis::Result<std::vector<double>> Launch(int min_launches) {
    std::vector<double> setup;
    int launches = min_launches;
    for (int i = 0; i < launches; ++i) {
      server_.reset();
      double seconds = 0;
      auto server =
          ServerProcess::Launch(flags_.serve, kLaunchTimeoutSeconds, &seconds);
      if (!server.ok()) return server.status();
      server_ = std::move(*server);
      setup.push_back(seconds);
      if (i == 0 && min_launches > 1) {
        launches = std::clamp(static_cast<int>(kSetupBudgetSeconds / seconds),
                              min_launches, kMaxSetupLaunches);
      }
      if (i + 1 < launches) {
        precis::Status stopped = server_->Stop();
        if (!stopped.ok()) return stopped;
      }
    }
    load_ = std::make_unique<LoadGenerator>(server_->host(), server_->port(),
                                            WorkerThreads());
    return setup;
  }

  /// One checked open-loop phase. The oracle answers every body before the
  /// phase starts and the bytes are compared after it ends. When given,
  /// `server_cpu_seconds` receives the server's CPU time during the phase.
  Phase Run(const std::vector<std::string>& bodies, double qps,
            double* server_cpu_seconds = nullptr) {
    oracle_->Prepare(bodies);
    const double cpu_before = ProcessCpuSeconds(server_->pid());
    Phase phase = load_->Run(bodies, qps);
    if (server_cpu_seconds != nullptr) {
      *server_cpu_seconds = ProcessCpuSeconds(server_->pid()) - cpu_before;
    }
    attempted_ += bodies.size();
    failed_ += CountFailures(bodies, phase, *oracle_);
    if (cold_) oracle_->Clear();
    return phase;
  }

  /// Stops the server; false when it had already exited or did not drain
  /// cleanly.
  bool Stop() {
    precis::Status stopped = server_->Stop();
    if (!stopped.ok()) {
      std::fprintf(stderr, "precis_serve: %s\n", stopped.ToString().c_str());
    }
    return stopped.ok();
  }

  ServerProcess& server() { return *server_; }
  LoadGenerator& load() { return *load_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  const Flags& flags_;
  Oracle* oracle_;
  bool cold_;
  std::unique_ptr<ServerProcess> server_;
  std::unique_ptr<LoadGenerator> load_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Brings a fresh server to steady state: the hot set once, or cold
/// traffic until the answer cache has started to evict.
bool WarmUp(Session* session, StreamGenerator* stream, const Flags& flags,
            bool cold) {
  if (!cold) {
    session->Run(stream->hot_set(), flags.nominal_qps);
    return true;
  }
  const double qps = 2 * flags.nominal_qps;
  const size_t chunk = static_cast<size_t>(qps / 2);  // half a second
  for (int i = 0; i < kMaxWarmUpChunks; ++i) {
    session->Run(stream->Next(chunk), qps);
    auto caches = ScrapeCaches(&session->load());
    if (!caches.ok()) return false;
    if ((*caches)["answer"].evictions > 0) return true;
  }
  std::fprintf(stderr, "warm-up: the answer cache never evicted\n");
  return true;
}

int RunMain(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  auto mix = ParseMix(flags.mix);
  if (!mix.ok()) {
    std::fprintf(stderr, "%s\n", mix.status().ToString().c_str());
    return 2;
  }
  const bool cold = *mix == Mix::kCold;

  std::printf("perfbench %s seed %llu: %zu films, %s mix, nominal %.0f qps, "
              "limit %.0f ms, %s\n",
              flags.workload.c_str(),
              static_cast<unsigned long long>(flags.seed),
              flags.movies, flags.mix.c_str(), flags.nominal_qps,
              flags.limit_ms, flags.trace ? "traced" : "untraced");
  std::printf("machine: %s\n", MachineLine().c_str());

  // The benchmark's own dataset, index and oracle: built before anything
  // is timed, so they never overlap a timed window.
  const double rss0 = ProcessMemoryMb("self", "VmRSS");
  Clock::time_point t = Clock::now();
  precis::MoviesConfig config;
  config.num_movies = flags.movies;
  auto dataset = precis::MoviesDataset::Create(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const double dataset_s = SecondsSince(t);
  const double rss1 = ProcessMemoryMb("self", "VmRSS");
  t = Clock::now();
  auto engine = precis::PrecisEngine::Create(&dataset->db(), &dataset->graph());
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  const double index_s = SecondsSince(t);
  const double rss2 = ProcessMemoryMb("self", "VmRSS");
  auto oracle = Oracle::Create(&*engine, WorkerThreads());
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle: %s\n", oracle.status().ToString().c_str());
    return 1;
  }

  StreamGenerator stream(&dataset->db(), *mix, flags.seed);
  const double nominal_s =
      std::max(flags.seconds, kMinTimedRequests / flags.nominal_qps);
  const std::vector<std::string> nominal_bodies =
      stream.Next(static_cast<size_t>(nominal_s * flags.nominal_qps));

  Report report;
  if (flags.trace) {
    report.Add("setup.dataset_s", dataset_s, "s");
    report.Add("setup.index_s", index_s, "s");
    report.Add("mem.dataset_mb", rss1 - rss0, "MB");
    report.Add("mem.index_mb", rss2 - rss1, "MB");

    // Traced replay of the nominal stream, composed layer by layer.
    const std::vector<std::string> replay(
        nominal_bodies.begin(),
        nominal_bodies.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(nominal_bodies.size(), kMaxReplayRequests)));
    SpanRecorder spans;
    LayerSamples layers =
        TracedReplay(*engine, dataset->db(), dataset->graph(), replay, &spans);
    if (layers.mismatches > 0) {
      std::fprintf(stderr, "traced composition differs from the engine on "
                           "%zu requests\n", layers.mismatches);
      report.Invalidate();
    }
    const double overhead =
        layers.untraced_seconds > 0
            ? layers.traced_seconds / layers.untraced_seconds - 1
            : 0;
    report.AddPercentile("server.parse_us", layers.parse_us, 0.5, "us");
    report.AddPercentile("text.lookup_p50_us", layers.lookup_us, 0.5, "us");
    report.AddPercentile("text.lookup_p99_us", layers.lookup_us, 0.99, "us");
    report.Add("text.seed_tids", Mean(layers.seed_tids), "count");
    report.AddPercentile("schema_gen.p50_us", layers.schema_us, 0.5, "us");
    report.AddPercentile("db_gen.p50_ms", layers.dbgen_ms, 0.5, "ms");
    report.AddPercentile("db_gen.p99_ms", layers.dbgen_ms, 0.99, "ms");
    report.Add("db_gen.index_probes", Mean(layers.index_probes), "count");
    report.Add("db_gen.tuple_fetches", Mean(layers.tuple_fetches), "count");
    report.Add("db_gen.statements", Mean(layers.statements), "count");
    report.Add("db_gen.tuples_out", Mean(layers.tuples_out), "count");
    report.AddPercentile("render.p50_us", layers.render_us, 0.5, "us");
    report.AddPercentile("render.p99_us", layers.render_us, 0.99, "us");
    report.AddPercentile("engine.glue_p50_ms", layers.glue_ms, 0.5, "ms");
    report.AddPercentile("engine.glue_p99_ms", layers.glue_ms, 0.99, "ms");
    report.Add("trace.overhead_frac", overhead, "ratio");

    // Self-time table: each span's duration minus its children's.
    std::map<std::string, double> self = spans.SelfTimesMs();
    double total = 0;
    for (const auto& [name, ms] : self) total += ms;
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [name, ms] : self) rows.emplace_back(ms, name);
    std::sort(rows.rbegin(), rows.rend());
    std::printf("self time, %s, %zu requests traced:\n",
                flags.workload.c_str(), replay.size());
    for (const auto& [ms, name] : rows) {
      std::printf("  %-20s %10.2f ms %6.1f%% %10.1f us/request\n",
                  name.c_str(), ms, total > 0 ? 100 * ms / total : 0,
                  1e3 * ms / static_cast<double>(replay.size()));
    }
    std::printf("  trace.overhead_frac %.4f (traced %.3f s, untraced %.3f s)\n",
                overhead, layers.traced_seconds, layers.untraced_seconds);
    if (!flags.trace_out.empty()) {
      std::filesystem::create_directories(flags.trace_out);
      const std::string path = flags.trace_out + "/" + flags.workload +
                               "-seed" + std::to_string(flags.seed) + ".jsonl";
      precis::Status written = spans.WriteJsonLines(path, flags.workload);
      if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.ToString().c_str());
        report.Invalidate();
      } else {
        std::printf("spans: %s\n", path.c_str());
      }
    }

    // Queue wait in front of the service's workers at the nominal rate,
    // with the serving defaults (four cache levels, precis_serve's worker
    // count and queue bound).
    engine->set_caches_enabled(true);
    {
      precis::PrecisService::Options options;
      options.num_workers = 4;
      options.max_queue_depth = 64;
      auto service = precis::PrecisService::Create(&*engine, options);
      if (!service.ok()) return 1;
      for (const std::string& body : stream.hot_set()) {
        auto parsed = precis::ParseQueryRequest(body);
        if (parsed.ok()) (*service)->Execute(std::move(parsed->request));
      }
      size_t shed = 0;
      std::vector<double> waits = QueueWaitsMs(
          service->get(), nominal_bodies, flags.nominal_qps, &shed);
      report.AddPercentile("service.queue_p99_ms", waits, 0.99, "ms");
      if (shed > 0) {
        std::fprintf(stderr, "queue wait: %zu submissions refused\n", shed);
      }
    }
    engine->set_caches_enabled(false);
  }

  Session session(flags, oracle->get(), cold);
  auto setup = session.Launch(flags.trace ? 1 : kMinSetupLaunches);
  if (!setup.ok()) {
    std::fprintf(stderr, "precis_serve: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  if (!WarmUp(&session, &stream, flags, cold)) {
    std::fprintf(stderr, "warm-up: cannot read /metrics\n");
    return 1;
  }

  // Nominal phase, in windows.
  auto caches_before = ScrapeCaches(&session.load());
  const HostCpu host_before = ReadHostCpu();
  Phase nominal;
  std::vector<double> cpu_ms_per_query;
  const size_t n = nominal_bodies.size();
  auto window_start = [&](size_t w) {
    return nominal_bodies.begin() +
           static_cast<std::ptrdiff_t>(w * n / kNominalWindows);
  };
  for (size_t w = 0; w < kNominalWindows; ++w) {
    const std::vector<std::string> bodies(window_start(w),
                                          window_start(w + 1));
    double cpu_seconds = 0;
    Phase phase = session.Run(bodies, flags.nominal_qps, &cpu_seconds);
    if (phase.answered() > 0) {
      cpu_ms_per_query.push_back(cpu_seconds * 1e3 /
                                 static_cast<double>(phase.answered()));
    }
    nominal.wall_seconds += phase.wall_seconds;
    std::move(phase.outcomes.begin(), phase.outcomes.end(),
              std::back_inserter(nominal.outcomes));
  }
  const HostCpu host_after = ReadHostCpu();
  auto caches_after = ScrapeCaches(&session.load());
  const double answered = static_cast<double>(nominal.answered());
  const double late_p99 = Percentile(nominal.LatenessMs(), 0.99).value_or(
      std::numeric_limits<double>::quiet_NaN());
  const double steal = StealFraction(host_before, host_after);

  std::vector<double> overhead_us, service_ms;
  double body_bytes = 0;
  for (const Outcome& o : nominal.outcomes) {
    if (o.status != 200 || o.service_us < 0) continue;
    overhead_us.push_back(o.roundtrip_us - o.service_us);
    service_ms.push_back(o.service_us / 1e3);
    body_bytes += static_cast<double>(o.body.size());
  }

  if (flags.trace) {
    report.AddPercentile("server.overhead_p50_us", overhead_us, 0.5, "us");
    report.Add("server.body_kb",
               service_ms.empty() ? 0 : body_bytes / service_ms.size() / 1024,
               "KB");
    report.AddPercentile("service.exec_p50_ms", service_ms, 0.5, "ms");
    report.AddPercentile("service.exec_p99_ms", service_ms, 0.99, "ms");
    if (!caches_before.ok() || !caches_after.ok()) {
      std::fprintf(stderr, "cannot read /metrics\n");
      return 1;
    }
    double evictions = 0, bytes = 0;
    for (const char* level : kCacheLevels) {
      const CacheCounters& b = (*caches_before)[level];
      const CacheCounters& a = (*caches_after)[level];
      const double lookups = a.hits - b.hits + a.misses - b.misses;
      report.Add(std::string("cache.") + level + ".hit_frac",
                 lookups > 0 ? (a.hits - b.hits) / lookups : 0, "ratio");
      evictions += a.evictions - b.evictions;
      bytes += a.bytes;
    }
    report.Add("cache.evictions_per_query",
               answered > 0 ? evictions / answered : 0, "count");
    report.Add("cache.mb", bytes / (1 << 20), "MB");
    report.AddPercentile("loadgen.late_p99_ms", nominal.LatenessMs(), 0.99,
                         "ms");
    report.Add("loadgen.steal_frac", steal, "ratio");
    report.AddWindowed("p50_ms", nominal.LatenciesMs(), 0.5, "ms");
    report.AddWindowed("p99_ms", nominal.LatenciesMs(), 0.99, "ms");

    // Capacity: open-loop ramp until p99 breaks the limit or a backlog
    // builds; failed requests count as over the limit.
    const double step_s = kRampStepShare * flags.seconds;
    auto run_step = [&](double qps) {
      const double step_seconds =
          std::clamp(kMinTimedRequests / qps, step_s,
                     kRampMaxStepShares * step_s);
      const size_t n = static_cast<size_t>(qps * step_seconds);
      const std::vector<std::string> bodies = stream.Next(n);
      const uint64_t failed_before = session.failed();
      Phase phase = session.Run(bodies, qps);
      const double failed =
          static_cast<double>(session.failed() - failed_before);
      size_t over = 0, late = 0;
      for (const Outcome& o : phase.outcomes) {
        over += o.status == 200 && o.latency_ms > flags.limit_ms;
        late += o.late_ms > kLateShareOfLimit * flags.limit_ms;
      }
      // A growing backlog shows as the last tenth of the step waiting
      // longer than the first tenth did, by more than a quarter of the
      // limit (or past the limit itself).
      auto tenth_median = [&](size_t begin) {
        std::vector<double> v;
        for (size_t i = begin; i < begin + n / 10; ++i) {
          const Outcome& o = phase.outcomes[i];
          v.push_back(o.status == 200 ? o.latency_ms : HUGE_VAL);
        }
        return Median(v);
      };
      const double head = tenth_median(0);
      const double tail = tenth_median(n - n / 10);
      RampStep step;
      step.achieved_qps =
          static_cast<double>(phase.answered()) / phase.wall_seconds;
      step.within_limit = static_cast<double>(over) + failed <= 0.01 * n &&
                          tail <= flags.limit_ms &&
                          tail - head <= flags.limit_ms / 4;
      step.generator_behind = static_cast<double>(late) > 0.01 * n;
      std::printf("  ramp %8.0f qps: achieved %8.1f, p99 %8.3f ms, "
                  "late %zu/%zu%s\n",
                  qps, step.achieved_qps,
                  Percentile(phase.LatenciesMs(), 0.99).value_or(NAN), late, n,
                  step.generator_behind ? " (generator behind, not counted)"
                  : step.within_limit   ? ""
                                        : " (over limit)");
      return step;
    };
    CapacityResult capacity = SearchCapacity(
        flags.ramp_start_qps, kRampGrowth, kRampRefinements, kRampMaxSteps,
        run_step);

    report.Add("capacity_qps", capacity.capacity_qps, "qps");
    if (capacity.capacity_qps <= 0) {
      std::fprintf(stderr, "no ramp step met the latency limit\n");
    }
  } else {
    report.Add("setup_s", Median(*setup), "s");
    report.Add("rss_mb", ProcessMemoryMb(std::to_string(session.server().pid()),
                                         "VmHWM"),
               "MB");
    report.Add("cpu_ms_per_query", Median(cpu_ms_per_query), "ms");
    // Latency at the nominal rate spreads with the host's scheduling
    // noise more than any bound a comparison could use, so untraced runs
    // only print it; traced runs report it.
    std::printf("  %-28s %14.6g ms (not in the result)\n", "p50_ms",
                Percentile(nominal.LatenciesMs(), 0.5).value_or(NAN));
    std::printf("  %-28s %14.6g ms (not in the result)\n", "p99_ms",
                Percentile(nominal.LatenciesMs(), 0.99).value_or(NAN));
  }

  if (!session.Stop()) report.Invalidate();
  const uint64_t attempted = session.attempted();
  const uint64_t failed = session.failed();
  std::printf("  %-28s %14.6g ratio (%llu of %llu requests)\n", "failed_frac",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  %-28s %14.6g ms\n  %-28s %14.6g ratio\n",
              "loadgen.late_p99_ms", late_p99, "loadgen.steal_frac", steal);
  report.Print(attempted, failed);
  return report.valid() && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::RunMain(argc, argv); }
