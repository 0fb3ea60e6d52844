#include "common/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

namespace precis {
namespace {

using Clock = std::chrono::steady_clock;

/// Spin-waits (with tiny sleeps so single-core machines make progress)
/// until `pred` holds or ~5 seconds pass. Returns whether `pred` held.
bool WaitFor(const std::function<bool()>& pred) {
  auto deadline = Clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

TEST(TaskPoolTest, RunsEverySubmittedTask) {
  TaskPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  TaskPool::Group group(&pool);
  for (int i = 0; i < 128; ++i) {
    group.Run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 128);
}

TEST(TaskPoolTest, SingleThreadPoolStillCompletes) {
  TaskPool pool(1);
  std::atomic<int> count{0};
  TaskPool::Group group(&pool);
  for (int i = 0; i < 64; ++i) {
    group.Run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 64);
}

TEST(TaskPoolTest, ZeroThreadsClampsToOne) {
  TaskPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  TaskPool::Group group(&pool);
  group.Run([&count] { ++count; });
  group.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(TaskPoolTest, NestedSubmissionIsCoveredByWait) {
  // A task fans out more tasks into its own group — the intended subtree
  // shape. Wait() must cover grandchildren submitted while it blocks.
  TaskPool pool(4);
  std::atomic<int> leaves{0};
  TaskPool::Group group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Run([&group, &leaves] {
      for (int j = 0; j < 8; ++j) {
        group.Run([&group, &leaves] {
          for (int k = 0; k < 4; ++k) {
            group.Run(
                [&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); });
          }
        });
      }
    });
  }
  group.Wait();
  EXPECT_EQ(leaves.load(), 8 * 8 * 4);
}

TEST(TaskPoolTest, DeepRecursiveFanOutRunsInlinePastDepthCap) {
  // Pathological chain: each task spawns its successor. Past the per-thread
  // depth cap the pool must execute inline (bounded queues, no deadlock)
  // and still complete the whole chain.
  TaskPool pool(2);
  std::atomic<int> depth_reached{0};
  TaskPool::Group group(&pool);
  std::function<void(int)> descend = [&](int depth) {
    depth_reached.fetch_add(1, std::memory_order_relaxed);
    if (depth < 300) {
      group.Run([&descend, depth] { descend(depth + 1); });
    }
  };
  group.Run([&descend] { descend(0); });
  group.Wait();
  EXPECT_EQ(depth_reached.load(), 301);
}

TEST(TaskPoolTest, IdleWorkersStealQueuedWork) {
  // Tasks submitted from inside a worker task land on that worker's own
  // deque (LIFO affinity). The submitting task then spins — without
  // helping — until both children ran, which can only happen if the other
  // worker steals them.
  TaskPool pool(2);
  std::atomic<int> children_done{0};
  std::set<std::thread::id> child_threads;
  std::mutex ids_mutex;
  bool children_completed = false;
  TaskPool::Group group(&pool);
  group.Run([&] {
    TaskPool::Group children(&pool);
    for (int i = 0; i < 2; ++i) {
      children.Run([&] {
        {
          std::lock_guard<std::mutex> lock(ids_mutex);
          child_threads.insert(std::this_thread::get_id());
        }
        children_done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Spin (no helping) so this worker stays busy and the children must be
    // stolen by the other worker.
    children_completed = WaitFor([&] { return children_done.load() == 2; });
    children.Wait();
  });
  group.Wait();
  EXPECT_TRUE(children_completed) << "children were never stolen";
  // Both children ran on the OTHER worker (the submitter was spinning), so
  // at least one distinct thief thread executed them.
  EXPECT_GE(child_threads.size(), 1u);
}

TEST(TaskPoolTest, ExternalWaiterHelpsExecuteTasks) {
  // A thread blocked in Wait() lends itself to the pool: even a 1-thread
  // pool whose worker is busy finishes promptly because the waiter helps.
  TaskPool pool(1);
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> blocker_done{false};
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  TaskPool::Group blocker(&pool);
  blocker.Run([&] {
    blocker_started.store(true);
    WaitFor([&] { return release.load(); });
    blocker_done.store(true);
  });
  // Only submit the help-work once the lone worker is verifiably inside
  // the blocker — otherwise this thread's helping Wait() below could
  // steal the blocker itself.
  ASSERT_TRUE(WaitFor([&] { return blocker_started.load(); }));
  TaskPool::Group group(&pool);
  for (int i = 0; i < 16; ++i) {
    group.Run([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  // The lone worker is stuck in `blocker`; Wait() must execute the 16
  // tasks on this (external) thread.
  group.Wait();
  EXPECT_EQ(done.load(), 16);
  EXPECT_FALSE(blocker_done.load());
  release.store(true);
  blocker.Wait();
  EXPECT_TRUE(blocker_done.load());
}

TEST(TaskPoolTest, ExceptionPropagatesToWait) {
  TaskPool pool(2);
  TaskPool::Group group(&pool);
  std::atomic<int> survivors{0};
  for (int i = 0; i < 8; ++i) {
    group.Run([&survivors, i] {
      if (i == 3) throw std::runtime_error("boom");
      survivors.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // The failure is contained to the group: the pool still works.
  TaskPool::Group after(&pool);
  std::atomic<int> ok{0};
  after.Run([&ok] { ++ok; });
  after.Wait();
  EXPECT_EQ(ok.load(), 1);
}

TEST(TaskPoolTest, ExceptionInNestedTaskPropagates) {
  TaskPool pool(2);
  TaskPool::Group group(&pool);
  group.Run([&group] {
    group.Run([] { throw std::runtime_error("nested boom"); });
  });
  EXPECT_THROW(group.Wait(), std::runtime_error);
}

TEST(TaskPoolTest, GroupDestructorWaitsAndSwallowsException) {
  TaskPool pool(2);
  std::atomic<int> done{0};
  {
    TaskPool::Group group(&pool);
    for (int i = 0; i < 16; ++i) {
      group.Run([&done, i] {
        if (i == 7) throw std::runtime_error("swallowed");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No Wait(): the destructor must block for stragglers and swallow the
    // captured exception.
  }
  EXPECT_EQ(done.load(), 15);
}

TEST(TaskPoolTest, ShutdownWhileBusyDrainsEveryTask) {
  // Destroy the pool while tasks are still queued/running; every accepted
  // task must have executed by the time the destructor returns.
  std::atomic<int> done{0};
  constexpr int kTasks = 64;
  {
    TaskPool pool(2);
    TaskPool::Group group(&pool);
    for (int i = 0; i < kTasks; ++i) {
      group.Run([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Group dtor waits, then the pool dtor joins the workers.
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(TaskPoolTest, ManyConcurrentGroupsShareOnePool) {
  // The service shape: several external threads each drive their own group
  // on the shared pool.
  TaskPool pool(4);
  constexpr int kClients = 6;
  constexpr int kTasksPerClient = 32;
  std::atomic<int> done{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&pool, &done] {
      TaskPool::Group group(&pool);
      for (int i = 0; i < kTasksPerClient; ++i) {
        group.Run([&done] { done.fetch_add(1, std::memory_order_relaxed); });
      }
      group.Wait();
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(done.load(), kClients * kTasksPerClient);
}

TEST(TaskPoolTest, ShortLivedStackGroupsOutliveNoWorker) {
  // A group's last TaskDone must be finished with the group before Wait()
  // can return: otherwise the caller destroys the stack group (and the next
  // iteration reuses its slot) while the worker still locks its mutex and
  // notifies its condition variable. TSan flags the old ordering within
  // the first iterations; a plain build can abort on the freed mutex.
  TaskPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 20000; ++i) {
    TaskPool::Group group(&pool);
    group.Run([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    group.Wait();
  }
  EXPECT_EQ(done.load(), 20000);
}

TEST(TaskPoolTest, SharedPoolIsASingleton) {
  TaskPool* a = TaskPool::Shared();
  TaskPool* b = TaskPool::Shared();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_GE(a->num_threads(), 2u);
  std::atomic<int> done{0};
  TaskPool::Group group(a);
  for (int i = 0; i < 8; ++i) {
    group.Run([&done] { ++done; });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 8);
}

}  // namespace
}  // namespace precis
