// Open-loop load over keep-alive loopback connections, and the in-process
// oracle every served body is checked against.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "precis/engine.h"
#include "server/http_client.h"
#include "service/precis_service.h"

namespace perfbench {

/// What happened to one scheduled request.
struct Outcome {
  /// HTTP status; -1 for a connect, write or read failure.
  int status = -1;
  /// Completion minus the *scheduled* send time, so a stall also counts
  /// against every request queued behind it.
  double latency_ms = 0;
  /// Completion minus the actual send time.
  double roundtrip_us = 0;
  /// The server's X-Precis-Latency-Us header (time inside the service);
  /// -1 when absent.
  double service_us = -1;
  /// Actual minus scheduled send time when a connection was idle before
  /// the request fell due, i.e. lateness that is the generator's own;
  /// -1 when every connection was still busy (the server's backlog).
  double late_ms = -1;
  std::string body;
};

/// One open-loop phase: request i is due at start + i / qps.
struct Phase {
  std::vector<Outcome> outcomes;
  double wall_seconds = 0;

  size_t answered() const;
  /// Latencies of answered (200) requests.
  std::vector<double> LatenciesMs() const;
  /// Generator lateness samples (late_ms >= 0).
  std::vector<double> LatenessMs() const;
};

/// Drives the server from at most `connections` threads, one blocking
/// keep-alive connection each (no pipelining, so the server never holds
/// more than `connections` requests of ours).
class LoadGenerator {
 public:
  LoadGenerator(std::string host, uint16_t port, size_t connections);

  Phase Run(const std::vector<std::string>& bodies, double qps);

  /// GET on the first connection, between phases (e.g. /metrics).
  precis::Result<std::string> Get(const std::string& target);

 private:
  std::string host_;
  uint16_t port_;
  std::vector<precis::HttpClient> clients_;
};

/// Sequential (parallelism 1), unsharded engine with every cache off:
/// the bytes a correct server must send for each body.
class Oracle {
 public:
  /// `engine` must have its caches off and outlive the oracle; `threads`
  /// service workers compute answers for independent bodies concurrently.
  static precis::Result<std::unique_ptr<Oracle>> Create(
      const precis::PrecisEngine* engine, size_t threads);

  /// Computes the expected bytes of every body not seen yet.
  void Prepare(const std::vector<std::string>& bodies);

  /// Expected bytes of a prepared body; nullptr when the oracle could not
  /// answer it (an unparseable body), which no response can match.
  const std::string* Expected(const std::string& body) const;

  /// Forgets prepared answers (cold streams never repeat a body).
  void Clear() { expected_.clear(); }

 private:
  explicit Oracle(std::unique_ptr<precis::PrecisService> service)
      : service_(std::move(service)) {}

  std::unique_ptr<precis::PrecisService> service_;
  std::unordered_map<std::string, std::shared_ptr<const std::string>>
      expected_;
};

/// Requests of `phase` (sent from `bodies`, in order) that were not
/// answered 200 with exactly the oracle's bytes.
size_t CountFailures(const std::vector<std::string>& bodies,
                     const Phase& phase, const Oracle& oracle);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
