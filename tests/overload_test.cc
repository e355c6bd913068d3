// Overload-protection suite: end-to-end deadlines, cooperative
// cancellation, and admission control across every subsystem.
//
// Covers, in order:
//   * Deadline / CancelToken / ScopedRequestContext semantics,
//   * AdmissionController water lines,
//   * ThreadPool tasks adopting the submitter's request context,
//   * GeoStore chunked queries under a deadline (the acceptance test: a
//     1 ms-deadline query against a workload that takes orders of
//     magnitude longer serially returns DeadlineExceeded promptly with
//     every chunk worker stopped), cancellation and the memory budget,
//   * federation deadline propagation + admission shedding,
//   * scheduler ready-queue shedding and cancel-drain,
//   * ingestion backlog shedding and cancellation,
//   * distributed training and HopsFS transactions under a deadline.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/admission.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/query_profile.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "dfs/hopsfs.h"
#include "fed/federation.h"
#include "ml/distributed.h"
#include "ml/network.h"
#include "platform/ingestion.h"
#include "platform/scheduler.h"
#include "raster/dataset.h"
#include "rdf/query.h"
#include "sim/cluster.h"
#include "strabon/geostore.h"
#include "strabon/workload.h"

namespace exearth {
namespace {

using Clock = std::chrono::steady_clock;

int64_t UsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               t0)
      .count();
}

// --- Deadline ----------------------------------------------------------

TEST(DeadlineTest, InfiniteNeverExpires) {
  common::Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_us(), std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(common::Deadline::Infinite().is_infinite());
}

TEST(DeadlineTest, ZeroAndNegativeAreAlreadyExpired) {
  EXPECT_TRUE(common::Deadline::FromNowUs(0).expired());
  EXPECT_TRUE(common::Deadline::FromNowUs(-50).expired());
  EXPECT_LE(common::Deadline::FromNowUs(-50).remaining_us(), 0);
}

TEST(DeadlineTest, FutureDeadlineCountsDown) {
  common::Deadline d = common::Deadline::FromNowUs(1000000);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  int64_t rem = d.remaining_us();
  EXPECT_GT(rem, 0);
  EXPECT_LE(rem, 1000000);
}

TEST(DeadlineTest, MinPicksTheTighterDeadline) {
  common::Deadline inf;
  common::Deadline soon = common::Deadline::FromNowUs(1000);
  common::Deadline later = common::Deadline::FromNowUs(60 * 1000 * 1000);
  EXPECT_EQ(common::Deadline::Min(inf, soon).when(), soon.when());
  EXPECT_EQ(common::Deadline::Min(soon, inf).when(), soon.when());
  EXPECT_EQ(common::Deadline::Min(soon, later).when(), soon.when());
  EXPECT_TRUE(common::Deadline::Min(inf, inf).is_infinite());
}

// --- CancelToken / RequestContext --------------------------------------

TEST(CancelTest, DefaultTokenCanNeverFire) {
  common::CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.cancelled());
}

TEST(CancelTest, SourceFiresAllItsTokens) {
  common::CancelSource src;
  common::CancelToken a = src.token();
  common::CancelToken b = src.token();
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(a.cancelled());
  src.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_TRUE(src.cancelled());
}

TEST(CancelTest, CheckReportsWhoAndCancelledBeatsDeadline) {
  common::RequestContext ctx;
  EXPECT_TRUE(ctx.unconstrained());
  EXPECT_TRUE(ctx.Check("nobody").ok());

  ctx.deadline = common::Deadline::FromNowUs(0);
  EXPECT_FALSE(ctx.unconstrained());
  common::Status s = ctx.Check("geostore");
  EXPECT_TRUE(s.IsDeadlineExceeded());
  EXPECT_NE(s.message().find("geostore"), std::string::npos);

  // An explicit caller cancel wins over the clock.
  common::CancelSource src;
  src.Cancel();
  ctx.cancel = src.token();
  EXPECT_TRUE(ctx.Check("geostore").IsCancelled());
}

TEST(ScopedRequestContextTest, NestingTightensDeadlineAndInheritsToken) {
  EXPECT_TRUE(common::CurrentRequestContext().unconstrained());

  common::CancelSource src;
  common::RequestContext outer;
  outer.deadline = common::Deadline::FromNowUs(60 * 1000 * 1000);
  outer.cancel = src.token();
  {
    common::ScopedRequestContext outer_scope(outer);
    // Inner scope without its own token inherits the outer one; its
    // tighter deadline wins.
    common::RequestContext inner;
    inner.deadline = common::Deadline::FromNowUs(0);
    {
      common::ScopedRequestContext inner_scope(inner);
      common::RequestContext seen = common::CurrentRequestContext();
      EXPECT_TRUE(seen.deadline.expired());
      EXPECT_TRUE(seen.cancel.valid());
      EXPECT_TRUE(seen.Check("inner").IsDeadlineExceeded());
      src.Cancel();
      EXPECT_TRUE(seen.Check("inner").IsCancelled());
    }
    // Back in the outer scope: the long deadline is restored.
    EXPECT_FALSE(common::CurrentRequestContext().deadline.expired());
  }
  EXPECT_TRUE(common::CurrentRequestContext().unconstrained());
}

TEST(ScopedRequestContextTest, InnerScopeCannotLoosenTheDeadline) {
  common::RequestContext outer;
  outer.deadline = common::Deadline::FromNowUs(0);
  common::ScopedRequestContext outer_scope(outer);
  common::RequestContext inner;  // infinite deadline
  common::ScopedRequestContext inner_scope(inner);
  // Work only gets more constrained down the stack.
  EXPECT_TRUE(
      common::CurrentRequestContext().Check("inner").IsDeadlineExceeded());
}

// --- AdmissionController ------------------------------------------------

TEST(AdmissionControllerTest, PriorityWaterLines) {
  common::AdmissionOptions opt;
  opt.max_depth = 8;
  opt.batch_fraction = 0.5;
  opt.best_effort_fraction = 0.25;
  common::AdmissionController ctrl("test.waterlines", opt);
  EXPECT_EQ(ctrl.DepthLimit(common::Priority::kInteractive), 8u);
  EXPECT_EQ(ctrl.DepthLimit(common::Priority::kBatch), 4u);
  EXPECT_EQ(ctrl.DepthLimit(common::Priority::kBestEffort), 2u);

  // Best-effort fills its 2 slots, then sheds.
  ASSERT_TRUE(ctrl.TryAdmit(common::Priority::kBestEffort).ok());
  ASSERT_TRUE(ctrl.TryAdmit(common::Priority::kBestEffort).ok());
  common::Status s = ctrl.TryAdmit(common::Priority::kBestEffort);
  EXPECT_TRUE(s.IsResourceExhausted());
  // Batch still has room up to 4 total...
  ASSERT_TRUE(ctrl.TryAdmit(common::Priority::kBatch).ok());
  ASSERT_TRUE(ctrl.TryAdmit(common::Priority::kBatch).ok());
  EXPECT_TRUE(ctrl.TryAdmit(common::Priority::kBatch).IsResourceExhausted());
  // ...and interactive up to the full queue.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ctrl.TryAdmit(common::Priority::kInteractive).ok());
  }
  EXPECT_EQ(ctrl.depth(), 8u);
  EXPECT_TRUE(
      ctrl.TryAdmit(common::Priority::kInteractive).IsResourceExhausted());

  // Releasing a slot re-opens the interactive line only.
  ctrl.Finish();
  EXPECT_TRUE(ctrl.TryAdmit(common::Priority::kBestEffort)
                  .IsResourceExhausted());
  EXPECT_TRUE(ctrl.TryAdmit(common::Priority::kInteractive).ok());
  EXPECT_EQ(ctrl.admitted(), 9u);
  EXPECT_EQ(ctrl.shed(), 4u);
}

TEST(AdmissionControllerTest, TinyQueueLeavesLowClassesWithZeroSlots) {
  common::AdmissionOptions opt;
  opt.max_depth = 1;
  opt.best_effort_fraction = 0.5;  // floors to zero slots
  common::AdmissionController ctrl("test.tiny", opt);
  EXPECT_EQ(ctrl.DepthLimit(common::Priority::kBestEffort), 0u);
  EXPECT_TRUE(
      ctrl.TryAdmit(common::Priority::kBestEffort).IsResourceExhausted());
  EXPECT_TRUE(ctrl.TryAdmit(common::Priority::kInteractive).ok());
  ctrl.Finish();
}

TEST(AdmissionTicketTest, ReleasesOnDestructionAndMove) {
  common::AdmissionOptions opt;
  opt.max_depth = 2;
  common::AdmissionController ctrl("test.ticket", opt);
  ASSERT_TRUE(ctrl.TryAdmit(common::Priority::kInteractive).ok());
  {
    common::AdmissionTicket ticket(&ctrl);
    EXPECT_EQ(ctrl.depth(), 1u);
    common::AdmissionTicket moved(std::move(ticket));
    EXPECT_EQ(ctrl.depth(), 1u);  // move does not double-release
  }
  EXPECT_EQ(ctrl.depth(), 0u);
}

// --- ThreadPool ---------------------------------------------------------

TEST(ThreadPoolOverloadTest, SubmitCapturesTheRequestContext) {
  common::ThreadPool pool(1);
  common::Status seen;
  std::future<void> done;
  {
    common::RequestContext ctx;
    ctx.deadline = common::Deadline::FromNowUs(0);
    common::ScopedRequestContext scope(ctx);
    done = pool.Submit(
        [&] { seen = common::CurrentRequestContext().Check("worker"); });
  }
  done.wait();
  EXPECT_TRUE(seen.IsDeadlineExceeded()) << seen;
}

// --- GeoStore: deadlines, cancellation, memory budget -------------------

// One shared workload: dense multipolygons (every feature overlaps the
// world center) with enough vertices that exact refinement takes orders
// of magnitude longer than the 1 ms deadline used below.
class GeoStoreOverloadTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    strabon::GeoWorkloadOptions opt;
    opt.num_features = 20000;
    opt.kind = strabon::GeoWorkloadOptions::GeometryKind::kMultiPolygon;
    opt.vertices_per_ring = 80;
    opt.polygons_per_multi = 3;
    opt.feature_size = 250.0;
    opt.world_size = 300.0;
    opt.with_thematic = false;
    opt.seed = 11;
    store_ = new strabon::GeoStore(strabon::MakeGeoWorkload(opt));
  }
  static void TearDownTestSuite() {
    delete store_;
    store_ = nullptr;
  }
  // Smaller than every feature envelope, so no candidate resolves by
  // envelope containment alone: each one pays the exact geometry test.
  static geo::Box CenterBox() { return geo::Box::Of(140, 140, 160, 160); }

  static strabon::GeoStore* store_;
};
strabon::GeoStore* GeoStoreOverloadTest::store_ = nullptr;

TEST_F(GeoStoreOverloadTest, OneMsDeadlineCutsSerialQueryShort) {
  store_->set_num_threads(1);
  // Baseline: the full serial scan, unconstrained.
  strabon::SpatialQueryStats base;
  Clock::time_point t0 = Clock::now();
  auto all = store_->SpatialSelect(CenterBox(),
                                   strabon::SpatialRelation::kIntersects,
                                   /*use_index=*/false, &base);
  const int64_t baseline_us = UsSince(t0);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(base.candidates, 20000u);
  ASSERT_EQ(base.chunks_cancelled, 0u);

  auto* deadline_ctr = common::MetricsRegistry::Default().GetCounter(
      "strabon.geostore.deadline_exceeded");
  const uint64_t ctr_before = deadline_ctr->value();

  common::RequestContext ctx;
  ctx.deadline = common::Deadline::FromNowUs(1000);
  common::ScopedRequestContext scope(ctx);
  strabon::SpatialQueryStats stats;
  t0 = Clock::now();
  auto cut = store_->SpatialSelect(CenterBox(),
                                   strabon::SpatialRelation::kIntersects,
                                   /*use_index=*/false, &stats);
  const int64_t cut_us = UsSince(t0);

  ASSERT_FALSE(cut.ok());
  EXPECT_TRUE(cut.status().IsDeadlineExceeded()) << cut.status();
  // Partial-work accounting: the single serial chunk stopped early.
  EXPECT_EQ(stats.threads_used, 1u);
  EXPECT_EQ(stats.chunks_cancelled, stats.threads_used);
  EXPECT_GT(deadline_ctr->value(), ctr_before);
  // The abort is prompt: overshoot is bounded by one 64-item poll
  // stride, far below the serial runtime.
  EXPECT_LT(cut_us, 10000) << "deadline overshoot too large";
  if (baseline_us >= 20000) {
    EXPECT_LT(cut_us * 5, baseline_us)
        << "1 ms deadline barely beat the " << baseline_us
        << " us serial scan";
  }
}

TEST_F(GeoStoreOverloadTest, DeadlineStopsEveryParallelChunkWorker) {
  store_->set_num_threads(4);
  common::RequestContext ctx;
  ctx.deadline = common::Deadline::FromNowUs(1000);
  common::ScopedRequestContext scope(ctx);
  strabon::SpatialQueryStats stats;
  Clock::time_point t0 = Clock::now();
  auto cut = store_->SpatialSelect(CenterBox(),
                                   strabon::SpatialRelation::kIntersects,
                                   /*use_index=*/false, &stats);
  const int64_t cut_us = UsSince(t0);
  store_->set_num_threads(1);

  ASSERT_FALSE(cut.ok());
  EXPECT_TRUE(cut.status().IsDeadlineExceeded()) << cut.status();
  // Every chunk worker observed the abort and stopped.
  EXPECT_EQ(stats.threads_used, 4u);
  EXPECT_EQ(stats.chunks_cancelled, stats.threads_used);
  EXPECT_LT(cut_us, 10000) << "deadline overshoot too large";
}

TEST_F(GeoStoreOverloadTest, PreCancelledQueryFailsAtEntry) {
  common::CancelSource src;
  src.Cancel();
  common::RequestContext ctx;
  ctx.cancel = src.token();
  common::ScopedRequestContext scope(ctx);
  strabon::SpatialQueryStats stats;
  auto r = store_->SpatialSelect(CenterBox(),
                                 strabon::SpatialRelation::kIntersects,
                                 /*use_index=*/true, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();
  EXPECT_EQ(stats.geometry_tests, 0u);
}

TEST_F(GeoStoreOverloadTest, MidQueryCancellationAborts) {
  store_->set_num_threads(1);
  common::CancelSource src;
  common::RequestContext ctx;
  ctx.cancel = src.token();
  common::ScopedRequestContext scope(ctx);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    src.Cancel();
  });
  strabon::SpatialQueryStats stats;
  auto r = store_->SpatialSelect(CenterBox(),
                                 strabon::SpatialRelation::kIntersects,
                                 /*use_index=*/false, &stats);
  killer.join();
  ASSERT_FALSE(r.ok()) << "scan finished before the cancel landed";
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();
  EXPECT_EQ(stats.chunks_cancelled, 1u);
}

TEST_F(GeoStoreOverloadTest, MemoryBudgetBoundsTheResultSet) {
  store_->set_num_threads(1);
  store_->set_memory_budget_bytes(256);  // room for ~32 result ids
  strabon::SpatialQueryStats stats;
  auto r = store_->SpatialSelect(CenterBox(),
                                 strabon::SpatialRelation::kIntersects,
                                 /*use_index=*/true, &stats);
  // The budget bounds every refined member of a batch as well.
  auto* budget_ctr = common::MetricsRegistry::Default().GetCounter(
      "strabon.geostore.memory_budget_exceeded");
  const uint64_t before = budget_ctr->value();
  auto batch = store_->SpatialSelectBatch(
      {{CenterBox(), strabon::SpatialRelation::kIntersects},
       {geo::Box::Of(100, 100, 120, 120),
        strabon::SpatialRelation::kIntersects}});
  const uint64_t batch_aborts = budget_ctr->value() - before;
  store_->set_memory_budget_bytes(0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  EXPECT_GE(stats.chunks_cancelled, 1u);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsResourceExhausted()) << batch.status();
  EXPECT_EQ(batch_aborts, 1u);
}

TEST_F(GeoStoreOverloadTest, BatchRefusedAtEntryCountsTheAbort) {
  const std::vector<strabon::BatchSelectQuery> batch = {
      {CenterBox(), strabon::SpatialRelation::kIntersects}};
  auto& reg = common::MetricsRegistry::Default();
  {
    auto* ctr = reg.GetCounter("strabon.geostore.deadline_exceeded");
    common::RequestContext ctx;
    ctx.deadline = common::Deadline::FromNowUs(0);
    common::ScopedRequestContext scope(ctx);
    const uint64_t before = ctr->value();
    auto r = store_->SpatialSelectBatch(batch);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
    EXPECT_EQ(ctr->value() - before, 1u);
  }
  {
    auto* ctr = reg.GetCounter("strabon.geostore.cancelled");
    common::CancelSource src;
    src.Cancel();
    common::RequestContext ctx;
    ctx.cancel = src.token();
    common::ScopedRequestContext scope(ctx);
    const uint64_t before = ctr->value();
    auto r = store_->SpatialSelectBatch(batch);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCancelled()) << r.status();
    EXPECT_EQ(ctr->value() - before, 1u);
  }
}

TEST_F(GeoStoreOverloadTest, SpatialJoinChecksTheDeadlineAtEntry) {
  common::RequestContext ctx;
  ctx.deadline = common::Deadline::FromNowUs(0);
  common::ScopedRequestContext scope(ctx);
  strabon::SpatialQueryStats stats;
  auto r = store_->SpatialJoin("http://x/A", "http://x/B",
                               strabon::SpatialRelation::kIntersects,
                               /*use_index=*/true, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
}

// --- Federation ---------------------------------------------------------

class FederationOverloadTest : public testing::Test {
 protected:
  FederationOverloadTest() {
    rdf::TripleStore crops;
    for (int i = 0; i < 40; ++i) {
      std::string field = common::StrFormat("http://x/field/%d", i);
      crops.Add(rdf::Term::Iri(field), rdf::Term::Iri("http://x/cropType"),
                rdf::Term::Literal(i % 2 == 0 ? "wheat" : "maize"));
    }
    crop_endpoint_ = std::make_unique<fed::Endpoint>("crops",
                                                     std::move(crops));
    engine_.Register(crop_endpoint_.get());
  }
  ~FederationOverloadTest() override {
    common::FaultInjector::Default().Reset();
  }

  rdf::Query WheatQuery() {
    rdf::Query q;
    q.where.push_back(rdf::TriplePattern{
        rdf::PatternSlot::Var("f"), rdf::PatternSlot::Iri("http://x/cropType"),
        rdf::PatternSlot::Of(rdf::Term::Literal("wheat"))});
    return q;
  }

  std::unique_ptr<fed::Endpoint> crop_endpoint_;
  fed::FederationEngine engine_;
};

TEST_F(FederationOverloadTest, ExpiredDeadlineFailsBeforeAnyEndpointCall) {
  common::RequestContext ctx;
  ctx.deadline = common::Deadline::FromNowUs(0);
  common::ScopedRequestContext scope(ctx);
  fed::FederationOptions opt;
  fed::FederationStats stats;
  auto rows = engine_.Execute(WheatQuery(), opt, {}, nullptr, &stats);
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsDeadlineExceeded()) << rows.status();
  EXPECT_EQ(stats.subqueries_sent, 0u);
}

TEST_F(FederationOverloadTest, RequestDeadlineCapsSlowEndpointsEvenPartialOk) {
  // Every endpoint call takes an injected 20 ms; the request has 2 ms.
  // The per-endpoint deadline is capped by the remaining request budget,
  // so the call is counted as failed and — because the *request* is out
  // of time, not just one endpoint — partial_ok cannot rescue the query.
  auto& inj = common::FaultInjector::Default();
  inj.Reset();
  inj.set_seed(7);
  ASSERT_TRUE(inj.ProgramSpec("fed.endpoint.call:1.0@20ms=ok").ok());

  common::RequestContext ctx;
  ctx.deadline = common::Deadline::FromNowUs(2000);
  common::ScopedRequestContext scope(ctx);
  fed::FederationOptions opt;
  opt.partial_ok = true;
  Clock::time_point t0 = Clock::now();
  auto rows = engine_.Execute(WheatQuery(), opt);
  const int64_t elapsed_us = UsSince(t0);
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsDeadlineExceeded()) << rows.status();
  // One slow call plus bounded retries, not a full retry storm.
  EXPECT_LT(elapsed_us, 1000000);
}

TEST_F(FederationOverloadTest, AdmissionShedsWhenTheQueueIsFull) {
  common::AdmissionOptions adm;
  adm.max_depth = 1;
  engine_.ConfigureAdmission(adm);
  common::AdmissionController* ctrl = engine_.admission();
  ASSERT_NE(ctrl, nullptr);

  ASSERT_TRUE(ctrl->TryAdmit(common::Priority::kInteractive).ok());
  {
    common::AdmissionTicket held(ctrl);
    fed::FederationOptions opt;
    auto rows = engine_.Execute(WheatQuery(), opt);
    ASSERT_FALSE(rows.ok());
    EXPECT_TRUE(rows.status().IsResourceExhausted()) << rows.status();
  }
  // Slot released: the same query is admitted and succeeds.
  fed::FederationOptions opt;
  auto rows = engine_.Execute(WheatQuery(), opt);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 20u);
}

TEST_F(FederationOverloadTest, LowPriorityShedsFirstUnderLoad) {
  common::AdmissionOptions adm;
  adm.max_depth = 2;
  adm.best_effort_fraction = 0.5;  // best-effort line: 1 slot
  engine_.ConfigureAdmission(adm);
  common::AdmissionController* ctrl = engine_.admission();
  ASSERT_TRUE(ctrl->TryAdmit(common::Priority::kInteractive).ok());
  common::AdmissionTicket held(ctrl);

  fed::FederationOptions best_effort;
  best_effort.priority = common::Priority::kBestEffort;
  auto shed = engine_.Execute(WheatQuery(), best_effort);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted()) << shed.status();

  fed::FederationOptions interactive;  // default kInteractive
  auto rows = engine_.Execute(WheatQuery(), interactive);
  ASSERT_TRUE(rows.ok()) << rows.status();
}

// --- Scheduler ----------------------------------------------------------

sim::Cluster TwoNodeCluster() {
  return sim::Cluster(2, sim::NodeSpec{}, sim::NetworkSpec{});
}

TEST(SchedulerOverloadTest, ReadyQueueBoundShedsAndPoisonsDependents) {
  std::vector<platform::JobSpec> jobs(7);
  for (int i = 0; i < 6; ++i) {
    jobs[i].name = common::StrFormat("root%d", i);
    jobs[i].compute_seconds = 1.0;
  }
  jobs[6].name = "child_of_shed";
  jobs[6].compute_seconds = 1.0;
  jobs[6].dependencies = {5};

  platform::ScheduleOptions opt;
  opt.max_ready_queue_depth = 2;
  auto r = platform::ScheduleJobs(jobs, TwoNodeCluster(), opt);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->interrupted.ok());
  // Roots are enqueued in index order: 0 and 1 fill the queue, 2..5
  // shed. Job 5's shed cascade makes job 6 ready while the queue is
  // still full, so it is shed too — every job lands in exactly one
  // bucket and none is lost.
  EXPECT_EQ(r->tasks_shed, 5u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(r->jobs[i].failed) << i;
    EXPECT_FALSE(r->jobs[i].shed) << i;
  }
  for (int i = 2; i < 7; ++i) {
    EXPECT_TRUE(r->jobs[i].shed) << i;
    EXPECT_TRUE(r->jobs[i].failed) << i;
  }
  // The dependent of a shed job was never attempted.
  EXPECT_EQ(r->jobs[6].attempts, 0);
}

TEST(SchedulerOverloadTest, CancelDrainsRemainingJobsWithoutFalseCycle) {
  std::vector<platform::JobSpec> jobs(5);
  for (int i = 0; i < 5; ++i) {
    jobs[i].name = common::StrFormat("stage%d", i);
    jobs[i].compute_seconds = 1.0;
    if (i > 0) jobs[i].dependencies = {i - 1};
  }
  common::RequestContext ctx;
  ctx.deadline = common::Deadline::FromNowUs(0);
  common::ScopedRequestContext scope(ctx);
  platform::ScheduleOptions opt;
  auto r = platform::ScheduleJobs(jobs, TwoNodeCluster(), opt);
  // A cancelled run is still a (partial) schedule, not an error — and
  // the drain must not be mistaken for a dependency cycle.
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->interrupted.IsDeadlineExceeded()) << r->interrupted;
  EXPECT_EQ(r->tasks_cancelled, 5u);
  for (const auto& j : r->jobs) {
    EXPECT_TRUE(j.cancelled) << j.name;
    EXPECT_TRUE(j.failed) << j.name;
    EXPECT_EQ(j.attempts, 0) << j.name;
  }
}

TEST(SchedulerOverloadTest, CyclicGraphStillRejectedWithQueueBound) {
  std::vector<platform::JobSpec> jobs(2);
  jobs[0].name = "a";
  jobs[0].dependencies = {1};
  jobs[1].name = "b";
  jobs[1].dependencies = {0};
  platform::ScheduleOptions opt;
  opt.max_ready_queue_depth = 1;
  auto r = platform::ScheduleJobs(jobs, TwoNodeCluster(), opt);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
}

// --- Ingestion ----------------------------------------------------------

TEST(IngestionOverloadTest, BacklogBoundShedsArrivals) {
  platform::IngestionOptions opt;
  opt.products_per_day = 200.0;
  opt.mean_product_gb = 4.0;
  opt.processing_gb_per_day = 100.0;  // far below the ~800 GB/day offered
  opt.days = 1.0;
  opt.seed = 3;
  opt.max_backlog_gb = 20.0;
  auto r = platform::SimulateIngestion(opt);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->interrupted.ok());
  EXPECT_GT(r->products_shed, 0u);
  EXPECT_GT(r->products_ingested, 0u);
  // Shed-at-arrival keeps the backlog at or under the bound, always.
  EXPECT_LE(r->max_processing_backlog_gb, opt.max_backlog_gb + 1e-9);
}

TEST(IngestionOverloadTest, ExpiredDeadlineCancelsTheRun) {
  common::RequestContext ctx;
  ctx.deadline = common::Deadline::FromNowUs(0);
  common::ScopedRequestContext scope(ctx);
  platform::IngestionOptions opt;
  opt.products_per_day = 50.0;
  opt.days = 1.0;
  auto r = platform::SimulateIngestion(opt);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->interrupted.IsDeadlineExceeded()) << r->interrupted;
  EXPECT_EQ(r->products_ingested, 0u);
}

// --- Distributed training -----------------------------------------------

TEST(MlOverloadTest, ExpiredDeadlineStopsTrainingAtAStepBoundary) {
  raster::EurosatOptions eopt;
  eopt.num_samples = 64;
  eopt.patch_size = 4;
  raster::Dataset ds = raster::MakeEurosatLike(eopt, 99);
  ds.Standardize();
  sim::Cluster cluster(4, sim::NodeSpec{}, sim::NetworkSpec{});
  ml::Network net = ml::BuildMlp(ds.feature_dim, {8}, ds.num_classes, 5);
  ml::DistributedOptions dopt;
  dopt.num_workers = 4;
  dopt.per_worker_batch = 8;
  ml::DataParallelTrainer trainer(&net, &cluster, dopt);

  common::RequestContext ctx;
  ctx.deadline = common::Deadline::FromNowUs(0);
  common::ScopedRequestContext scope(ctx);
  ml::DistributedEpochStats stats = trainer.TrainEpoch(&ds);
  EXPECT_EQ(stats.steps, 0);
  EXPECT_TRUE(stats.interrupted.IsDeadlineExceeded()) << stats.interrupted;
  // Fit gives up after the first interrupted epoch instead of burning
  // the remaining epoch budget on a dead request.
  auto epochs = trainer.Fit(&ds, 3);
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_FALSE(epochs[0].interrupted.ok());
}

// --- HopsFS -------------------------------------------------------------

TEST(DfsOverloadTest, TransactionsObserveTheRequestDeadline) {
  dfs::HopsFsCluster cluster(dfs::HopsFsCluster::Options{});
  dfs::HopsFsNameNode nn(&cluster);
  ASSERT_TRUE(nn.Mkdir("/before").ok());
  {
    common::RequestContext ctx;
    ctx.deadline = common::Deadline::FromNowUs(0);
    common::ScopedRequestContext scope(ctx);
    common::Status s = nn.Mkdir("/during");
    EXPECT_TRUE(s.IsDeadlineExceeded()) << s;
  }
  // The context is scoped: once it unwinds, transactions run again.
  EXPECT_TRUE(nn.Mkdir("/after").ok());
}

}  // namespace
}  // namespace exearth
