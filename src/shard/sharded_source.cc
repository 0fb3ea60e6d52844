#include "shard/sharded_source.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <forward_list>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "common/task_pool.h"

namespace precis {

SourcePartitions::SourcePartitions(const Database* db, size_t num_partitions)
    : db_(db), router_(num_partitions) {
  for (const std::string& name : db->RelationNames()) {
    Counted& counted = counted_[name];
    counted.tuples = (*db->GetRelation(name))->num_tuples();
    counted.owned.assign(num_partitions, 0);
    const uint64_t seed = ShardRouter::RelationSeed(name);
    for (Tid tid = 0; tid < counted.tuples; ++tid) {
      ++counted.owned[router_.ShardOf(seed, tid)];
    }
  }
}

uint64_t SourcePartitions::TuplesOn(const std::string& relation,
                                    size_t partition) const {
  auto found = db_->GetRelation(relation);
  if (!found.ok()) return 0;
  uint64_t owned = 0;
  Tid counted_to = 0;
  if (auto it = counted_.find(relation); it != counted_.end()) {
    owned = it->second.owned[partition];
    counted_to = it->second.tuples;
  }
  const uint64_t seed = ShardRouter::RelationSeed(relation);
  for (Tid tid = counted_to; tid < (*found)->num_tuples(); ++tid) {
    owned += router_.ShardOf(seed, tid) == partition ? 1 : 0;
  }
  return owned;
}

uint64_t SourcePartitions::TuplesOn(size_t partition) const {
  uint64_t owned = 0;
  for (const std::string& name : db_->RelationNames()) {
    owned += TuplesOn(name, partition);
  }
  return owned;
}

namespace {

/// True when the plan neither skips nor stalls a partition: the query then
/// reads the one-partition relations themselves.
bool Healthy(const ShardQueryFaultPlan* plan) {
  return plan == nullptr ||
         (!plan->any_skipped() &&
          std::all_of(plan->stall_ns.begin(), plan->stall_ns.end(),
                      [](uint64_t ns) { return ns == 0; }));
}

/// One join edge's lookups under a fault plan: the in-place lookups, minus
/// the tids of skipped partitions, opened once every stalled partition has
/// delivered its share of the edge.
class FaultDomainLookup final : public KeyLookup {
 public:
  FaultDomainLookup(const SourceRelation& in_place,
                    const std::string& attribute,
                    const std::vector<Value>& keys, const ShardRouter& router,
                    const ShardQueryFaultPlan& plan, ShardQueryStats* stats,
                    TaskPool* pool)
      : lookup_(in_place.LookupKeys(attribute, keys, pool)),
        router_(router),
        seed_(ShardRouter::RelationSeed(in_place.schema().name())),
        plan_(plan) {
    AwaitStalledShares(in_place, attribute, keys, stats, pool);
  }

  // The in-place lookup makes the unpartitioned charge and fault checks;
  // only then are the skipped partitions' tids dropped, into a buffer of
  // this key's own that stays put.
  Result<std::span<const Tid>> Lookup(size_t k,
                                      ExecutionContext* ctx) override {
    auto tids = lookup_->Lookup(k, ctx);
    if (!tids.ok() || !plan_.any_skipped()) return tids;
    std::vector<Tid>& live = live_.emplace_front();
    for (Tid tid : *tids) {
      if (plan_.live[router_.ShardOf(seed_, tid)] != 0) live.push_back(tid);
    }
    return std::span<const Tid>(live);
  }

 private:
  // A stalled partition's share of the edge is its read of the edge's keys
  // from the source (uncharged, no fault checks), made after its stall.
  // The tids it reads are the ones the in-place lookups return anyway, so
  // the share decides only when the edge opens. With hedging, a share that
  // outlives the partition's hedging delay is read again from a second
  // task; the first read to finish wins, and a stalled primary that lost
  // stops sleeping within a millisecond.
  void AwaitStalledShares(const SourceRelation& in_place,
                          const std::string& attribute,
                          const std::vector<Value>& keys,
                          ShardQueryStats* stats, TaskPool* pool) {
    std::vector<size_t> stalled;
    for (size_t s = 0; s < plan_.stall_ns.size(); ++s) {
      if (plan_.live[s] != 0 && plan_.stall_ns[s] > 0) stalled.push_back(s);
    }
    if (stalled.empty()) return;
    ShardHealthTracker* health = plan_.health;
    const bool hedging = pool != nullptr && plan_.hedging && health != nullptr;
    const auto start = std::chrono::steady_clock::now();

    auto read_share = [&] {
      std::unique_ptr<KeyLookup> share =
          in_place.LookupKeys(attribute, keys, nullptr);
      for (size_t k = 0; k < keys.size(); ++k) (void)share->Lookup(k, nullptr);
    };
    struct Share {
      std::atomic<int> winner{-1};  // -1 pending, 0 primary, 1 hedge
      std::atomic<bool> cancel_primary{false};
    };
    std::unique_ptr<Share[]> shares(new Share[plan_.stall_ns.size()]);
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::vector<uint8_t> done(plan_.stall_ns.size(), 0);
    auto finish = [&](size_t s, int who) {
      int expected = -1;
      if (!shares[s].winner.compare_exchange_strong(
              expected, who, std::memory_order_acq_rel)) {
        return;
      }
      if (who == 1) {
        shares[s].cancel_primary.store(true, std::memory_order_release);
      }
      if (health != nullptr) {
        health->RecordLatency(
            s, static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count()));
      }
      {
        std::lock_guard<std::mutex> lock(done_mu);
        done[s] = 1;
      }
      done_cv.notify_all();
    };

    // Shares run on the pool, or right here when the query is inline.
    std::optional<TaskPool::Group> tasks;
    if (pool != nullptr) tasks.emplace(pool);
    auto spawn = [&](std::function<void()> fn) {
      if (tasks) {
        tasks->Run(std::move(fn));
      } else {
        fn();
      }
    };
    for (size_t s : stalled) {
      const uint64_t stall = plan_.stall_ns[s];
      spawn([&, s, stall] {
        for (uint64_t slept = 0; slept < stall;) {
          if (shares[s].cancel_primary.load(std::memory_order_acquire)) {
            return;  // the hedge won
          }
          const uint64_t slice = std::min<uint64_t>(1'000'000, stall - slept);
          std::this_thread::sleep_for(std::chrono::nanoseconds(slice));
          slept += slice;
        }
        read_share();
        finish(s, 0);
      });
    }

    for (size_t s : stalled) {
      std::unique_lock<std::mutex> lock(done_mu);
      if (hedging && !done[s] &&
          !done_cv.wait_for(lock,
                            std::chrono::nanoseconds(health->HedgeDelayNs(s)),
                            [&] { return done[s] != 0; })) {
        lock.unlock();
        ++stats->hedged_subqueries;
        health->hedged_subqueries.fetch_add(1, std::memory_order_relaxed);
        spawn([&, s] {
          read_share();
          finish(s, 1);
        });
        lock.lock();
      }
      done_cv.wait(lock, [&] { return done[s] != 0; });
      if (shares[s].winner.load(std::memory_order_acquire) == 1) {
        ++stats->hedge_wins;
        health->hedge_wins.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (tasks) tasks->Wait();  // drains the losers
  }

  std::unique_ptr<KeyLookup> lookup_;
  const ShardRouter& router_;
  const uint64_t seed_;
  const ShardQueryFaultPlan& plan_;
  std::forward_list<std::vector<Tid>> live_;  // one per lookup, never moved
};

/// One relation of a query whose plan skipped or stalled a partition: the
/// in-place relation, with its lookups under the plan.
class FaultDomainRelation final : public SourceRelation {
 public:
  FaultDomainRelation(std::unique_ptr<SourceRelation> in_place,
                      const SourcePartitions& partitions,
                      const ShardQueryFaultPlan& plan, ShardQueryStats* stats)
      : in_place_(std::move(in_place)),
        partitions_(partitions),
        plan_(plan),
        stats_(stats) {}

  const RelationSchema& schema() const override {
    return in_place_->schema();
  }
  size_t num_tuples() const override { return in_place_->num_tuples(); }
  Value ColumnValue(Tid tid, size_t attribute) const override {
    return in_place_->ColumnValue(tid, attribute);
  }
  void CountStatement(ExecutionContext* ctx) const override {
    in_place_->CountStatement(ctx);
  }
  void ProjectRows(const Tid* tids, size_t n,
                   const std::vector<size_t>& projection, Value* out,
                   ExecutionContext* ctx) const override {
    in_place_->ProjectRows(tids, n, projection, out, ctx);
  }
  std::unique_ptr<KeyLookup> LookupKeys(const std::string& attribute,
                                        const std::vector<Value>& keys,
                                        TaskPool* pool) const override {
    return std::make_unique<FaultDomainLookup>(*in_place_, attribute, keys,
                                               partitions_.router(), plan_,
                                               stats_, pool);
  }
  uint64_t unavailable_tuples() const override {
    uint64_t unavailable = 0;
    for (uint32_t s : plan_.skipped) {
      unavailable += partitions_.TuplesOn(schema().name(), s);
    }
    return unavailable;
  }

 private:
  std::unique_ptr<SourceRelation> in_place_;
  const SourcePartitions& partitions_;
  const ShardQueryFaultPlan& plan_;
  ShardQueryStats* stats_;
};

}  // namespace

ShardedSource::ShardedSource(const PartitionSource* in_place,
                             const SourcePartitions* partitions,
                             const ShardQueryFaultPlan* plan)
    : in_place_(in_place), partitions_(partitions), plan_(plan) {
  if (plan == nullptr) return;
  stats_.shards_skipped = plan->skipped;
  stats_.shard_probe_retries = plan->probe_retries;
  stats_.breaker_rejects = plan->breaker_rejects;
}

Result<std::unique_ptr<SourceRelation>> ShardedSource::OpenRelation(
    const std::string& name) const {
  auto relation = in_place_->OpenRelation(name);
  if (!relation.ok() || Healthy(plan_)) return relation;
  return std::unique_ptr<SourceRelation>(new FaultDomainRelation(
      std::move(*relation), *partitions_, *plan_, &stats_));
}

std::vector<uint32_t> ShardedSource::skipped_partitions() const {
  return plan_ != nullptr ? plan_->skipped : std::vector<uint32_t>{};
}

}  // namespace precis
