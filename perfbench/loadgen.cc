#include "loadgen.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "server/request_parse.h"

namespace perfbench {

using precis::Result;
using precis::Status;

namespace {

using Clock = std::chrono::steady_clock;

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

size_t Phase::answered() const {
  size_t n = 0;
  for (const Outcome& o : outcomes) n += o.status == 200;
  return n;
}

std::vector<double> Phase::LatenciesMs() const {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const Outcome& o : outcomes) {
    if (o.status == 200) out.push_back(o.latency_ms);
  }
  return out;
}

std::vector<double> Phase::LatenessMs() const {
  std::vector<double> out;
  for (const Outcome& o : outcomes) {
    if (o.late_ms >= 0) out.push_back(o.late_ms);
  }
  return out;
}

LoadGenerator::LoadGenerator(std::string host, uint16_t port,
                             size_t connections)
    : host_(std::move(host)), port_(port), clients_(connections) {}

Phase LoadGenerator::Run(const std::vector<std::string>& bodies, double qps) {
  Phase phase;
  phase.outcomes.resize(bodies.size());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) /
                                                     qps));
  };

  std::vector<std::thread> workers;
  for (precis::HttpClient& client : clients_) {
    workers.emplace_back([&, client_ptr = &client] {
      precis::HttpClient& c = *client_ptr;
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= bodies.size()) return;
        Outcome& out = phase.outcomes[i];
        const Clock::time_point scheduled = due(i);
        const bool idle_before_due = Clock::now() <= scheduled;
        std::this_thread::sleep_until(scheduled);
        const Clock::time_point sent = Clock::now();
        if (idle_before_due) out.late_ms = Millis(sent - scheduled);
        if (!c.connected()) {
          auto connected = precis::HttpClient::Connect(host_, port_);
          if (!connected.ok()) {
            out.latency_ms = Millis(Clock::now() - scheduled);
            continue;
          }
          c = std::move(*connected);
        }
        auto response = c.Post("/query", bodies[i]);
        const Clock::time_point done = Clock::now();
        out.latency_ms = Millis(done - scheduled);
        out.roundtrip_us = Millis(done - sent) * 1e3;
        if (!response.ok()) continue;  // status stays -1; next send reconnects
        out.status = response->status;
        const std::string* us = response->FindHeader("X-Precis-Latency-Us");
        if (us != nullptr) out.service_us = std::strtod(us->c_str(), nullptr);
        out.body = std::move(response->body);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  phase.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return phase;
}

Result<std::string> LoadGenerator::Get(const std::string& target) {
  precis::HttpClient& c = clients_.front();
  if (!c.connected()) {
    auto connected = precis::HttpClient::Connect(host_, port_);
    if (!connected.ok()) return connected.status();
    c = std::move(*connected);
  }
  auto response = c.Get(target);
  if (!response.ok()) return response.status();
  if (response->status != 200) {
    return Status::Internal("GET " + target + " answered " +
                            std::to_string(response->status));
  }
  return std::move(response->body);
}

Result<std::unique_ptr<Oracle>> Oracle::Create(
    const precis::PrecisEngine* engine, size_t threads) {
  if (engine == nullptr || engine->answer_cache_enabled() ||
      engine->body_cache_enabled()) {
    return Status::InvalidArgument("the oracle needs a cache-off engine");
  }
  precis::PrecisService::Options options;
  options.num_workers = threads;
  auto service = precis::PrecisService::Create(engine, options);
  if (!service.ok()) return service.status();
  return std::unique_ptr<Oracle>(new Oracle(std::move(*service)));
}

void Oracle::Prepare(const std::vector<std::string>& bodies) {
  std::vector<const std::string*> pending;
  std::vector<precis::ServiceRequest> requests;
  for (const std::string& body : bodies) {
    if (expected_.count(body) != 0) continue;
    expected_[body] = nullptr;  // also dedupes repeats within `bodies`
    auto parsed = precis::ParseQueryRequest(body);
    if (!parsed.ok()) continue;
    parsed->request.render_body = true;
    pending.push_back(&body);
    requests.push_back(std::move(parsed->request));
  }
  auto futures = service_->SubmitBatch(std::move(requests));
  for (size_t i = 0; i < futures.size(); ++i) {
    precis::ServiceResponse response = futures[i].get();
    if (response.status.ok() && !response.partial()) {
      expected_[*pending[i]] = std::move(response.body_json);
    }
  }
}

const std::string* Oracle::Expected(const std::string& body) const {
  auto it = expected_.find(body);
  return it == expected_.end() ? nullptr : it->second.get();
}

size_t CountFailures(const std::vector<std::string>& bodies,
                     const Phase& phase, const Oracle& oracle) {
  size_t failed = 0;
  for (size_t i = 0; i < bodies.size(); ++i) {
    const Outcome& out = phase.outcomes[i];
    const std::string* expected = oracle.Expected(bodies[i]);
    if (out.status != 200 || expected == nullptr || out.body != *expected) {
      ++failed;
    }
  }
  return failed;
}

}  // namespace perfbench
