#include "common/task_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace precis {

namespace {

/// Per-thread pool affinity: which pool's worker this thread is (if any),
/// its deque index, and how many task frames deep it currently is.
struct ThreadState {
  TaskPool* pool = nullptr;
  size_t index = 0;
  int depth = 0;
};

thread_local ThreadState tls;

/// Beyond this many nested task frames, Group::Run executes inline and
/// Group::Wait stops helping (blocks instead). Ordinary fan-out is 2-3
/// frames deep; the cap only exists to bound pathological recursion.
constexpr int kInlineDepthCap = 96;

size_t SharedPoolSize() {
  const char* env = std::getenv("PRECIS_TASK_POOL_THREADS");
  if (env != nullptr) {
    long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return std::max<size_t>(2, hw);
}

}  // namespace

TaskPool::TaskPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  queues_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskPool::~TaskPool() { Shutdown(); }

void TaskPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    shutting_down_ = true;
  }
  park_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

TaskPool* TaskPool::Shared() {
  // Intentionally leaked: the shared pool must outlive every
  // statically-destroyed user (services, caches, test fixtures).
  static TaskPool* pool = new TaskPool(SharedPoolSize());
  return pool;
}

void TaskPool::WorkerLoop(size_t index) {
  tls.pool = this;
  tls.index = index;
  for (;;) {
    Task task;
    if (TryAcquire(index, &task)) {
      Execute(std::move(task));
      continue;
    }
    std::unique_lock<std::mutex> lock(park_mutex_);
    if (shutting_down_) {
      // Drain: only exit once every deque is verifiably empty. A final
      // TryAcquire outside the lock rechecks; tasks submitted during
      // shutdown (nested fan-out of in-flight work) still run.
      lock.unlock();
      if (TryAcquire(index, &task)) {
        Execute(std::move(task));
        continue;
      }
      return;
    }
    ++num_parked_;
    park_cv_.wait(lock, [this] {
      return shutting_down_ || num_queued_.load(std::memory_order_acquire) > 0;
    });
    --num_parked_;
  }
}

bool TaskPool::TryAcquire(size_t home, Task* out) {
  const size_t n = queues_.size();
  // Own deque: LIFO (back).
  if (home < n) {
    WorkerQueue& own = *queues_[home];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      *out = std::move(own.tasks.back());
      own.tasks.pop_back();
      num_queued_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  // Steal sweep: FIFO (front) from each victim in rotation; take half.
  size_t start = next_queue_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    size_t v = (start + i) % n;
    if (v == home) continue;
    std::vector<Task> stolen;
    {
      WorkerQueue& victim = *queues_[v];
      std::lock_guard<std::mutex> lock(victim.mutex);
      size_t avail = victim.tasks.size();
      if (avail == 0) continue;
      // Steal half (at least one); external helpers (home >= n) have no
      // deque to park the surplus in, so they take exactly one.
      size_t take = home < n ? (avail + 1) / 2 : 1;
      stolen.reserve(take);
      for (size_t k = 0; k < take; ++k) {
        stolen.push_back(std::move(victim.tasks.front()));
        victim.tasks.pop_front();
      }
    }
    *out = std::move(stolen.front());
    num_queued_.fetch_sub(1, std::memory_order_acq_rel);
    if (stolen.size() > 1) {
      // Re-home the surplus to our own deque (oldest stays oldest).
      WorkerQueue& own = *queues_[home];
      std::lock_guard<std::mutex> lock(own.mutex);
      for (size_t k = stolen.size(); k > 1; --k) {
        own.tasks.push_front(std::move(stolen[k - 1]));
      }
    }
    return true;
  }
  return false;
}

void TaskPool::Enqueue(Task task) {
  size_t target;
  if (tls.pool == this) {
    target = tls.index;  // worker thread: own deque (LIFO locality)
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  }
  {
    WorkerQueue& queue = *queues_[target];
    std::lock_guard<std::mutex> lock(queue.mutex);
    queue.tasks.push_back(std::move(task));
  }
  num_queued_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    if (num_parked_ == 0) return;
  }
  park_cv_.notify_one();
}

void TaskPool::Execute(Task task) noexcept {
  ++tls.depth;
  try {
    task.fn();
  } catch (...) {
    task.group->CaptureException();
  }
  --tls.depth;
  task.group->TaskDone();
}

// --- Group --------------------------------------------------------------

TaskPool::Group::~Group() {
  try {
    Wait();
  } catch (...) {
    // Destructor swallows; callers who care call Wait() themselves.
  }
}

void TaskPool::Group::Run(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  if (tls.depth >= kInlineDepthCap) {
    // Depth-capped inline execution: a pathologically deep fan-out runs
    // its children synchronously instead of flooding the queues (and
    // instead of risking every worker blocking in Wait on work that only
    // queued deeper).
    Task task{std::move(fn), this};
    pool_->Execute(std::move(task));
    return;
  }
  pool_->Enqueue(Task{std::move(fn), this});
}

void TaskPool::Group::Wait() {
  const size_t helper_home =
      tls.pool == pool_ ? tls.index : pool_->queues_.size();
  for (;;) {
    if (pending_.load(std::memory_order_acquire) == 0) break;
    if (tls.depth < kInlineDepthCap) {
      Task task;
      if (pool_->TryAcquire(helper_home, &task)) {
        // Help: execute pool work (not necessarily ours — any progress
        // eventually drains this group too) instead of sleeping.
        pool_->Execute(std::move(task));
        continue;
      }
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (pending_.load(std::memory_order_acquire) == 0) break;
    // Timed wait: queues were empty a moment ago, but an in-flight task
    // may fan out new work this thread could help with.
    done_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (error_ != nullptr) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void TaskPool::Group::TaskDone() noexcept {
  // Decrement and notify under the mutex. Wait() returns only after it
  // observed pending_ == 0 *and* then acquired this mutex, so once the
  // last task's decrement is visible the waiter blocks until this thread
  // is done touching the group — the caller may destroy a stack Group the
  // moment Wait() returns. (Decrementing first and locking afterwards left
  // a window in which Wait() returned and the group's storage was reused
  // while this thread still locked its mutex.) The notify under the lock
  // also keeps a waiter between its pending check and cv wait from
  // missing the signal.
  std::lock_guard<std::mutex> lock(mutex_);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    done_cv_.notify_all();
  }
}

void TaskPool::Group::CaptureException() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  if (error_ == nullptr) error_ = std::current_exception();
}

}  // namespace precis
