#include "common/execution_context.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>

namespace precis {
namespace {

TEST(ExecutionContextTest, DefaultsAreUnbounded) {
  ExecutionContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.RemainingSeconds().has_value());
  EXPECT_EQ(ctx.access_budget(), 0u);
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kNone);
}

TEST(ExecutionContextTest, DeadlineExpires) {
  ExecutionContext ctx;
  ctx.SetDeadlineAfter(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(ctx.has_deadline());
  ASSERT_TRUE(ctx.RemainingSeconds().has_value());
  EXPECT_LT(*ctx.RemainingSeconds(), 0.0);
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadlineExceeded);
}

TEST(ExecutionContextTest, NonPositiveDeadlineClears) {
  // So does a span the clock cannot represent: 1e10 s is past the int64
  // nanosecond range (~9.2e9 s), and infinity and NaN name no instant.
  for (double seconds : {0.0, 1e10, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(seconds);
    ExecutionContext ctx;
    ctx.SetDeadlineAfter(10.0);
    EXPECT_TRUE(ctx.has_deadline());
    ctx.SetDeadlineAfter(seconds);
    EXPECT_FALSE(ctx.has_deadline());
    EXPECT_FALSE(ctx.ShouldStop());
  }
}

TEST(ExecutionContextTest, GenerousDeadlineDoesNotStop) {
  // 1e9 s is near the end of the clock's range and still representable.
  for (double seconds : {3600.0, 1e9}) {
    ExecutionContext ctx;
    ctx.SetDeadlineAfter(seconds);
    EXPECT_FALSE(ctx.ShouldStop());
    ASSERT_TRUE(ctx.RemainingSeconds().has_value());
    EXPECT_GT(*ctx.RemainingSeconds(), 0.0);
  }
}

TEST(ExecutionContextTest, BudgetExhaustionStops) {
  ExecutionContext ctx;
  ctx.SetAccessBudget(3);
  ctx.ChargeIndexProbe();
  ctx.ChargeTupleFetch();
  EXPECT_FALSE(ctx.ShouldStop());
  ctx.ChargeSequentialScan();
  EXPECT_EQ(ctx.accesses_charged(), 3u);
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kAccessBudgetExhausted);
}

TEST(ExecutionContextTest, StatementsAreAttributedButNotBudgetCharged) {
  ExecutionContext ctx;
  ctx.SetAccessBudget(1);
  for (int i = 0; i < 100; ++i) ctx.ChargeStatement();
  // Formula 1 counts only I/O (index probes + tuple accesses), so
  // statements never exhaust the budget.
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_EQ(ctx.accesses_charged(), 0u);
  EXPECT_EQ(ctx.stats().statements.load(std::memory_order_relaxed), 100u);
}

TEST(ExecutionContextTest, ChargesMirrorIntoStats) {
  ExecutionContext ctx;
  ctx.ChargeIndexProbe();
  ctx.ChargeIndexProbe();
  ctx.ChargeTupleFetch();
  ctx.ChargeSequentialScan();
  const AccessStats& stats = ctx.stats();
  EXPECT_EQ(stats.index_probes.load(std::memory_order_relaxed), 2u);
  EXPECT_EQ(stats.tuple_fetches.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(stats.sequential_scans.load(std::memory_order_relaxed), 1u);
}

TEST(ExecutionContextTest, FirstStopCauseIsLatched) {
  ExecutionContext ctx;
  ctx.Cancel();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
  // A later, different stop cause does not overwrite the first one.
  ctx.SetAccessBudget(1);
  ctx.ChargeIndexProbe();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
}

TEST(ExecutionContextTest, CancelFromAnotherThreadIsObserved) {
  ExecutionContext ctx;
  std::thread other([&ctx] { ctx.Cancel(); });
  other.join();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
}

TEST(ExecutionContextTest, FormulaThreeDerivesBudget) {
  ExecutionContext ctx;
  CostParameters params;
  params.index_time_seconds = 0.001;
  params.tuple_time_seconds = 0.001;
  // 10 ms buys 10ms / 2ms = 5 tuples; each tuple is one probe + one fetch.
  ASSERT_TRUE(ctx.SetBudgetFromResponseTime(params, 0.010).ok());
  EXPECT_EQ(ctx.access_budget(), 10u);
}

TEST(ExecutionContextTest, FormulaThreeRejectsBadInputs) {
  ExecutionContext ctx;
  CostParameters zero;
  EXPECT_FALSE(ctx.SetBudgetFromResponseTime(zero, 1.0).ok());
  CostParameters params;
  params.index_time_seconds = 0.001;
  params.tuple_time_seconds = 0.001;
  EXPECT_FALSE(ctx.SetBudgetFromResponseTime(params, -1.0).ok());
}

TEST(ExecutionContextTest, ScopedSpanRecordsCounterDeltas) {
  ExecutionContext ctx;
  ctx.ChargeIndexProbe();  // pre-span activity must not leak into the delta
  {
    ScopedSpan span(&ctx, "stage_a");
    ctx.ChargeIndexProbe();
    ctx.ChargeIndexProbe();
    ctx.ChargeTupleFetch();
    ctx.ChargeStatement();
  }
  std::vector<TraceSpan> spans = ctx.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "stage_a");
  EXPECT_GE(spans[0].seconds, 0.0);
  EXPECT_EQ(spans[0].index_probes, 2u);
  EXPECT_EQ(spans[0].tuple_fetches, 1u);
  EXPECT_EQ(spans[0].sequential_scans, 0u);
  EXPECT_EQ(spans[0].statements, 1u);
}

TEST(ExecutionContextTest, ScopedSpanCloseIsIdempotent) {
  ExecutionContext ctx;
  ScopedSpan span(&ctx, "once");
  span.Close();
  span.Close();  // destructor will close a third time
  EXPECT_EQ(ctx.spans().size(), 1u);
}

TEST(ExecutionContextTest, ScopedSpanOnNullContextIsInert) {
  ScopedSpan span(nullptr, "ignored");
  span.Close();  // no crash, nothing recorded anywhere
}

TEST(ExecutionContextTest, SpansAccumulateInCompletionOrder) {
  ExecutionContext ctx;
  { ScopedSpan a(&ctx, "first"); }
  { ScopedSpan b(&ctx, "second"); }
  std::vector<TraceSpan> spans = ctx.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "first");
  EXPECT_EQ(spans[1].name, "second");
}

}  // namespace
}  // namespace precis
