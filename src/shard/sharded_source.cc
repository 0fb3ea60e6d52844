#include "shard/sharded_source.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/task_pool.h"

namespace precis {

/// The per-query ledger. The edge scatter runs on the planner thread and
/// writes `stats` directly (subqueries and charges count its lookups);
/// projection runs in chunk tasks, which count into atomic cells.
struct ShardedSource::Ledger {
  explicit Ledger(size_t shards)
      : fetches(new std::atomic<uint64_t>[shards]),
        chunks(new std::atomic<uint64_t>[shards]) {
    stats.Resize(shards);
    for (size_t s = 0; s < shards; ++s) {
      fetches[s].store(0, std::memory_order_relaxed);
      chunks[s].store(0, std::memory_order_relaxed);
    }
  }

  ShardQueryStats stats;
  std::unique_ptr<std::atomic<uint64_t>[]> fetches;
  std::unique_ptr<std::atomic<uint64_t>[]> chunks;
};

namespace {

/// Keys per parallel ascending-merge segment.
constexpr size_t kMergeSegmentKeys = 64;

bool Live(const ShardQueryFaultPlan* plan, size_t shard) {
  return plan == nullptr || plan->live[shard] != 0;
}

/// One join edge's lookups over the shards: the scatter (with stalls and
/// hedging) and the ascending merge run up front; Lookup then replays each
/// key's unpartitioned charge/fault sequence against the merged result.
class ShardedKeyLookup final : public KeyLookup {
 public:
  ShardedKeyLookup(const ShardedRelation& view, const std::string& attribute,
                   const std::vector<Value>& keys,
                   const ShardQueryFaultPlan* plan,
                   ShardedSource::Ledger* ledger, TaskPool* pool)
      : view_(view), attribute_(attribute), merged_(keys.size()) {
    Prefetch(keys, plan, ledger, pool);
  }

  // The merged list is only consumed on the successful attempt, so a
  // retried lookup re-delivers it intact.
  Result<std::vector<Tid>> Lookup(size_t k, ExecutionContext* ctx) override {
    PRECIS_RETURN_NOT_OK(view_.MirrorLookupCharges(attribute_, ctx));
    PRECIS_RETURN_NOT_OK(status_);
    return std::move(merged_[k]);
  }

 private:
  // Shard-local lookups carry no context (no fault checks, no query
  // charges); per-key lists then k-way merge into the exact ascending
  // global posting order Relation::LookupEquals would return. Keys the
  // planner never reaches (stop mid-edge) were looked up anyway — that
  // inflates shard-side physical stats, never the query's charges.
  void Prefetch(const std::vector<Value>& keys,
                const ShardQueryFaultPlan* plan,
                ShardedSource::Ledger* ledger, TaskPool* pool) {
    const size_t num_shards = view_.num_shards();
    const auto merge_start = std::chrono::steady_clock::now();
    ShardHealthTracker* health = plan != nullptr ? plan->health : nullptr;
    const bool hedging = pool != nullptr && plan != nullptr &&
                         plan->use_replicas && health != nullptr &&
                         view_.has_replicas();
    auto elapsed_ns = [&] {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - merge_start)
              .count());
    };

    // Per-shard hedged fetch state: the primary and the (optional) hedged
    // replica sub-query race for the winner CAS; the loser's buffers are
    // never read. A stalled primary sleeps in ~1ms slices and checks
    // cancel_primary so a replica win unblocks the pool thread quickly.
    struct ShardFetch {
      std::vector<std::vector<Tid>> primary;
      std::vector<std::vector<Tid>> replica;
      Status primary_status;
      Status replica_status;
      std::atomic<int> winner{-1};  // -1 pending, 0 primary, 1 replica
      std::atomic<bool> cancel_primary{false};
    };
    std::unique_ptr<ShardFetch[]> fetches(new ShardFetch[num_shards]);
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::vector<uint8_t> done(num_shards, 0);
    auto mark_done = [&](size_t s) {
      {
        std::lock_guard<std::mutex> lock(done_mu);
        done[s] = 1;
      }
      done_cv.notify_all();
    };

    // Sub-queries run on the pool, or right here when the query is inline.
    std::optional<TaskPool::Group> scatter;
    if (pool != nullptr) scatter.emplace(pool);
    auto spawn = [&](std::function<void()> fn) {
      if (scatter) {
        scatter->Run(std::move(fn));
      } else {
        fn();
      }
    };

    std::vector<std::vector<std::vector<Tid>>> per_shard(num_shards);
    std::vector<Status> shard_status(num_shards, Status::OK());
    for (size_t s = 0; s < num_shards; ++s) {
      per_shard[s].resize(keys.size());
      if (!Live(plan, s)) continue;  // skipped shard: no sub-query
      const uint64_t stall = plan != nullptr ? plan->stall_ns[s] : 0;
      ShardFetch* fetch = &fetches[s];
      spawn([&, s, stall, fetch] {
        uint64_t slept = 0;
        while (slept < stall) {
          if (fetch->cancel_primary.load(std::memory_order_acquire)) {
            return;  // lost the hedge; buffers never read
          }
          const uint64_t slice = std::min<uint64_t>(1'000'000, stall - slept);
          std::this_thread::sleep_for(std::chrono::nanoseconds(slice));
          slept += slice;
        }
        fetch->primary.resize(keys.size());
        for (size_t k = 0; k < keys.size(); ++k) {
          auto r = view_.ShardLookupGlobal(s, attribute_, keys[k]);
          if (!r.ok()) {
            fetch->primary_status = r.status();
            break;
          }
          fetch->primary[k] = std::move(*r);
        }
        int expected = -1;
        if (fetch->winner.compare_exchange_strong(expected, 0,
                                                  std::memory_order_acq_rel)) {
          if (health != nullptr) health->RecordLatency(s, elapsed_ns());
          mark_done(s);
        }
      });
    }

    // Gather, shard by shard: a live shard that outlives its hedging delay
    // gets the identical sub-query re-issued against its replica (exact
    // copy: same bytes either way), first response wins.
    for (size_t s = 0; s < num_shards; ++s) {
      if (!Live(plan, s)) continue;
      ShardFetch* fetch = &fetches[s];
      std::unique_lock<std::mutex> lock(done_mu);
      if (hedging && !done[s]) {
        const uint64_t delay = health->HedgeDelayNs(s);
        const bool finished =
            done_cv.wait_for(lock, std::chrono::nanoseconds(delay),
                             [&] { return done[s] != 0; });
        if (!finished) {
          lock.unlock();
          ++ledger->stats.hedged_subqueries;
          health->hedged_subqueries.fetch_add(1, std::memory_order_relaxed);
          spawn([&, s, fetch] {
            fetch->replica.resize(keys.size());
            for (size_t k = 0; k < keys.size(); ++k) {
              auto r = view_.ShardLookupGlobal(s, attribute_, keys[k],
                                               /*replica=*/true);
              if (!r.ok()) {
                fetch->replica_status = r.status();
                break;
              }
              fetch->replica[k] = std::move(*r);
            }
            int expected = -1;
            if (fetch->winner.compare_exchange_strong(
                    expected, 1, std::memory_order_acq_rel)) {
              fetch->cancel_primary.store(true, std::memory_order_release);
              health->RecordLatency(s, elapsed_ns());
              mark_done(s);
            }
          });
          lock.lock();
        }
      }
      done_cv.wait(lock, [&] { return done[s] != 0; });
      lock.unlock();
      if (fetch->winner.load(std::memory_order_acquire) == 1) {
        ++ledger->stats.hedge_wins;
        health->hedge_wins.fetch_add(1, std::memory_order_relaxed);
        per_shard[s] = std::move(fetch->replica);
        shard_status[s] = fetch->replica_status;
      } else {
        per_shard[s] = std::move(fetch->primary);
        shard_status[s] = fetch->primary_status;
      }
    }
    if (scatter) scatter->Wait();  // drains hedged losers

    for (size_t s = 0; s < num_shards; ++s) {
      if (!Live(plan, s)) continue;
      ShardQueryStats& stats = ledger->stats;
      stats.charges[s] += keys.size();
      stats.subqueries[s] += 1;
      uint64_t bytes = 0;
      for (const std::vector<Tid>& list : per_shard[s]) {
        bytes += list.size() * sizeof(Tid);
      }
      stats.scratch_bytes[s] = std::max(stats.scratch_bytes[s], bytes);
      if (status_.ok() && !shard_status[s].ok()) status_ = shard_status[s];
    }
    if (status_.ok()) {
      auto merge_keys = [&](size_t k_begin, size_t k_end) {
        for (size_t k = k_begin; k < k_end; ++k) {
          std::vector<std::vector<Tid>> lists(num_shards);
          for (size_t s = 0; s < num_shards; ++s) {
            lists[s] = std::move(per_shard[s][k]);
          }
          merged_[k] = MergeAscendingTids(std::move(lists));
        }
      };
      if (pool != nullptr && keys.size() > kMergeSegmentKeys) {
        TaskPool::Group merging(pool);
        for (size_t b = 0; b < keys.size(); b += kMergeSegmentKeys) {
          const size_t e = std::min(keys.size(), b + kMergeSegmentKeys);
          merging.Run([&merge_keys, b, e] { merge_keys(b, e); });
        }
        merging.Wait();
      } else {
        merge_keys(0, keys.size());
      }
    }
    ledger->stats.merge_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      merge_start)
            .count();
    ledger->stats.merge_events += 1;
  }

  const ShardedRelation& view_;
  const std::string attribute_;
  std::vector<std::vector<Tid>> merged_;
  Status status_ = Status::OK();
};

/// One relation of a sharded query.
class ShardedSourceRelation final : public SourceRelation {
 public:
  ShardedSourceRelation(const ShardedRelation* view,
                        const ShardQueryFaultPlan* plan,
                        ShardedSource::Ledger* ledger)
      : view_(view), plan_(plan), ledger_(ledger) {}

  const RelationSchema& schema() const override { return view_->schema(); }
  size_t num_tuples() const override { return view_->num_tuples(); }
  Value ColumnValue(Tid tid, size_t attribute) const override {
    return view_->ColumnValue(tid, attribute);
  }
  void CountStatement(ExecutionContext* ctx) const override {
    view_->CountStatement(ctx);
  }
  void ProjectRows(const Tid* tids, size_t n,
                   const std::vector<size_t>& projection, Value* out,
                   ExecutionContext* ctx) const override {
    std::vector<uint64_t> fetches(view_->num_shards(), 0);
    view_->ProjectRowsScatter(tids, n, projection, out, ctx, &fetches);
    for (size_t s = 0; s < fetches.size(); ++s) {
      if (fetches[s] == 0) continue;
      ledger_->fetches[s].fetch_add(fetches[s], std::memory_order_relaxed);
      ledger_->chunks[s].fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::unique_ptr<KeyLookup> LookupKeys(const std::string& attribute,
                                        const std::vector<Value>& keys,
                                        TaskPool* pool) const override {
    return std::make_unique<ShardedKeyLookup>(*view_, attribute, keys, plan_,
                                              ledger_, pool);
  }
  uint64_t unavailable_tuples() const override {
    uint64_t unavailable = 0;
    if (plan_ != nullptr) {
      for (uint32_t s : plan_->skipped) unavailable += view_->shard_tuples(s);
    }
    return unavailable;
  }

 private:
  const ShardedRelation* view_;
  const ShardQueryFaultPlan* plan_;
  ShardedSource::Ledger* ledger_;
};

}  // namespace

ShardedSource::ShardedSource(const ShardedDatabase* sharded,
                             const ShardQueryFaultPlan* plan)
    : sharded_(sharded),
      plan_(plan),
      ledger_(std::make_unique<Ledger>(sharded->num_shards())) {}

ShardedSource::~ShardedSource() = default;

Result<std::unique_ptr<SourceRelation>> ShardedSource::OpenRelation(
    const std::string& name) const {
  auto view = sharded_->GetView(name);
  if (!view.ok()) return view.status();
  return std::unique_ptr<SourceRelation>(
      new ShardedSourceRelation(*view, plan_, ledger_.get()));
}

std::vector<uint32_t> ShardedSource::skipped_partitions() const {
  return plan_ != nullptr ? plan_->skipped : std::vector<uint32_t>{};
}

void ShardedSource::CollectStats(uint64_t budget,
                                 ShardQueryStats* stats) const {
  const size_t num_shards = sharded_->num_shards();
  *stats = ledger_->stats;
  if (plan_ != nullptr) {
    stats->shards_skipped = plan_->skipped;
    stats->shard_probe_retries = plan_->probe_retries;
    stats->breaker_rejects = plan_->breaker_rejects;
  }
  stats->budget_total = budget;
  stats->budget_slice = num_shards > 0 ? budget / num_shards : 0;
  for (size_t s = 0; s < num_shards; ++s) {
    stats->subqueries[s] += ledger_->chunks[s].load(std::memory_order_relaxed);
    stats->charges[s] += ledger_->fetches[s].load(std::memory_order_relaxed);
    if (budget > 0 && stats->charges[s] > stats->budget_slice) {
      stats->rebalanced_charges += stats->charges[s] - stats->budget_slice;
    }
  }
}

}  // namespace precis
