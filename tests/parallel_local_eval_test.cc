// Morsel-driven parallel evaluation suite (ctest label "parallel").
//
// The contract under test (docs/parallelism.md): for every join path and
// aggregation mode of the local GMDJ evaluator, the result table is
// *byte-identical* — serialized wire form, including row order — no matter
// how many lanes evaluate the morsels, because the morsel grid and the
// partial-fold order depend only on the relation sizes and morsel_rows,
// never on the lane count. The suite also exercises the shared ThreadPool
// directly (including nested ParallelFor, the site-dispatch-over-morsel-
// scan composition), the site waves a query's lane quota fans out, and a
// fault-injected distributed run with both levels fanned out.
//
// Built as its own binary so the label can run in isolation under
// -DSKALLA_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "dist/fault_tolerance.h"
#include "engine/operators.h"
#include "expr/parser.h"
#include "gmdj/local_eval.h"
#include "net/fault_injector.h"
#include "obs/metrics.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "storage/serializer.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

ExprPtr MustParse(const std::string& text) {
  auto result = ParseExpr(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

/// Serialized wire form: byte-exact equality, including row order.
std::string TableBytes(const Table& table) {
  return Serializer::SerializeTable(table);
}

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForRunsEveryItemExactlyOnce) {
  ThreadPool pool(3);
  constexpr int64_t kItems = 10000;
  std::vector<std::atomic<int>> hits(kItems);
  pool.ParallelFor(kItems, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWorksWithZeroWorkers) {
  ThreadPool pool(0);  // caller-only degenerate pool
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // A pool task running ParallelFor on the *same* pool must not deadlock:
  // this is exactly the site-dispatch-over-morsel-scan composition.
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, [&](int64_t) {
    pool.ParallelFor(64, [&](int64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8 * 64);
}

TEST(ThreadPoolTest, SharedPoolIsASingleton) {
  ThreadPool* a = &ThreadPool::Shared();
  ThreadPool* b = &ThreadPool::Shared();
  EXPECT_EQ(a, b);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

// ---------------------------------------------------------------------------
// Lane-count independence of EvalGmdjOp, per join path and mode.
// ---------------------------------------------------------------------------

class ParallelEvalTest : public ::testing::Test {
 protected:
  static Table MakeDetail() {
    TpcConfig config;
    config.num_rows = 30000;
    config.num_customers = 400;
    config.seed = 7;
    return GenerateTpcr(config);
  }

  /// Evaluates with `threads` lanes and a deliberately tiny morsel so the
  /// 30k-row scan splits into ~60 morsels even in a unit test.
  static std::string EvalBytes(const Table& base, const Table& detail,
                               const GmdjOp& op, LocalGmdjOptions options,
                               int threads) {
    options.num_threads = threads;
    options.morsel_rows = 512;
    auto result = EvalGmdjOp(base, detail, op, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return TableBytes(*result);
  }

  /// Asserts threads ∈ {2, 8} reproduce the sequential bytes exactly.
  static void ExpectLaneIndependent(const Table& base, const Table& detail,
                                    const GmdjOp& op,
                                    const LocalGmdjOptions& options) {
    const std::string sequential = EvalBytes(base, detail, op, options, 1);
    EXPECT_EQ(EvalBytes(base, detail, op, options, 2), sequential);
    EXPECT_EQ(EvalBytes(base, detail, op, options, 8), sequential);
  }
};

TEST_F(ParallelEvalTest, HashPathIsLaneCountIndependent) {
  const Table detail = MakeDetail();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"CustKey"}));
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(GmdjBlock{
      {AggSpec::Count("cnt"), AggSpec::Sum("Quantity", "sq"),
       AggSpec::Avg("Quantity", "aq"), AggSpec::Min("Quantity", "lo"),
       AggSpec::Max("Quantity", "hi")},
      MustParse("B.CustKey = R.CustKey")});
  ExpectLaneIndependent(base, detail, op, LocalGmdjOptions());
}

TEST_F(ParallelEvalTest, HashPathWithResidualIsLaneCountIndependent) {
  const Table detail = MakeDetail();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"CustKey"}));
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(
      GmdjBlock{{AggSpec::Count("cnt"), AggSpec::Var("Quantity", "vq")},
                MustParse("B.CustKey = R.CustKey && R.Quantity >= 25")});
  ExpectLaneIndependent(base, detail, op, LocalGmdjOptions());
}

TEST_F(ParallelEvalTest, SortMergePathIsLaneCountIndependent) {
  const Table detail = MakeDetail();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"CustKey"}));
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(GmdjBlock{
      {AggSpec::Count("cnt"), AggSpec::Avg("Quantity", "aq")},
      MustParse("B.CustKey = R.CustKey")});
  LocalGmdjOptions options;
  options.join = JoinStrategy::kSortMerge;
  ExpectLaneIndependent(base, detail, op, options);
}

TEST_F(ParallelEvalTest, NestedLoopPathIsLaneCountIndependent) {
  const Table detail = MakeDetail();
  // Overlapping thresholds: no equi-conjunct, forcing the nested loop.
  Table base(MakeSchema({{"threshold", ValueType::kInt64}}));
  for (int64_t t = 0; t < 16; ++t) base.AddRow({Value(t * 3)});
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(GmdjBlock{{AggSpec::Count("cnt")},
                                MustParse("R.Quantity >= B.threshold")});
  ExpectLaneIndependent(base, detail, op, LocalGmdjOptions());
}

TEST_F(ParallelEvalTest, TouchedOnlyAndSubModeAreLaneCountIndependent) {
  const Table detail = MakeDetail();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"CustKey"}));
  // A row no detail tuple matches, so touched_only actually filters.
  base.AddRow({Value(int64_t{1} << 40)});
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(
      GmdjBlock{{AggSpec::Count("cnt"), AggSpec::Avg("Quantity", "aq"),
                 AggSpec::StdDev("Quantity", "sd")},
                MustParse("B.CustKey = R.CustKey")});
  LocalGmdjOptions options;
  options.mode = AggMode::kSub;
  options.touched_only = true;
  ExpectLaneIndependent(base, detail, op, options);
}

TEST_F(ParallelEvalTest, MultiBlockOpIsLaneCountIndependent) {
  const Table detail = MakeDetail();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"CustKey"}));
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(GmdjBlock{{AggSpec::Count("all")},
                                MustParse("B.CustKey = R.CustKey")});
  op.blocks.push_back(
      GmdjBlock{{AggSpec::Sum("Quantity", "big")},
                MustParse("B.CustKey = R.CustKey && R.Quantity >= 40")});
  ExpectLaneIndependent(base, detail, op, LocalGmdjOptions());
}

// ---------------------------------------------------------------------------
// Site waves on the lane quota (docs/parallelism.md §3): a wave fans out
// over the shared pool only when the query's quota is above 1 and the wave
// scans at least one morsel (kDefaultMorselRows) of rows. Results, bytes
// and errors never depend on it.
// ---------------------------------------------------------------------------

/// The lane count WaveLanes gives a wave over `table` on every site of `wh`.
int FullWaveLanes(Warehouse* wh, int quota, const std::string& table) {
  std::vector<Site*> sites;
  std::vector<int> participants;
  for (int i = 0; i < wh->num_sites(); ++i) {
    sites.push_back(&wh->site(i));
    participants.push_back(i);
  }
  SiteRoster roster(sites, {});
  return WaveLanes(quota, roster, participants, {table});
}

uint64_t PoolTasks() {
  return obs::GetCounter("skalla_pool_tasks_total").Value();
}

/// A TPC-R relation whose full wave holds more than one morsel of rows
/// (the default 70,000 rows).
Table WaveSizedTpcr(uint64_t seed,
                    int64_t num_rows = kDefaultMorselRows + 4464) {
  TpcConfig config;
  config.num_rows = num_rows;
  config.num_customers = 700;
  config.seed = seed;
  return GenerateTpcr(config);
}

TEST(ParallelSitesTest, IdenticalResultsAndTraffic) {
  const Table tpcr = WaveSizedTpcr(1);
  Warehouse sequential(8);
  ASSERT_OK(sequential.LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                                   {"CustKey"}));
  sequential.set_local_threads(1);
  Warehouse parallel(8);
  ASSERT_OK(parallel.LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                                 {"CustKey"}));
  parallel.set_local_threads(4);
  ASSERT_EQ(FullWaveLanes(&parallel, 4, "TPCR"), 4);

  for (const auto& [name, query] :
       std::vector<std::pair<std::string, GmdjExpr>>{
           {"group", queries::GroupReductionQuery("CustKey")},
           {"combined", queries::CombinedQuery("CustKey")}}) {
    SCOPED_TRACE(name);
    for (const auto& options :
         {OptimizerOptions::None(), OptimizerOptions::All()}) {
      ASSERT_OK_AND_ASSIGN(QueryResult a, sequential.Execute(query, options));
      ASSERT_OK_AND_ASSIGN(QueryResult b, parallel.Execute(query, options));
      EXPECT_EQ(TableBytes(b.table), TableBytes(a.table));
      EXPECT_EQ(a.metrics.TotalBytes(), b.metrics.TotalBytes());
      EXPECT_EQ(a.metrics.GroupsToCoord(), b.metrics.GroupsToCoord());
    }
  }
}

TEST(ParallelSitesTest, ErrorsPropagateFromWorkerThreads) {
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", WaveSizedTpcr(2, 100000), "NationKey", 0,
                           24));
  wh.set_local_threads(4);
  // Drop the relation from one site after loading: that site's round must
  // fail and the failure must surface through the fanned-out wave (the
  // other three sites still hold more than one morsel of rows).
  wh.site(1).catalog().DropTable("TPCR");
  ASSERT_EQ(FullWaveLanes(&wh, 4, "TPCR"), 4);
  auto result = wh.Execute(queries::GroupReductionQuery("CustKey"),
                           OptimizerOptions::None());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ParallelSitesTest, SingleSiteUsesSequentialPath) {
  Warehouse wh(1);
  TpcConfig config;
  config.num_rows = 300;
  Table tpcr = GenerateTpcr(config);
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 24));
  wh.set_local_threads(4);
  EXPECT_EQ(FullWaveLanes(&wh, 4, "TPCR"), 1);
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       wh.Execute(queries::CoalescingQuery("ClerkKey"),
                                  OptimizerOptions::All()));
  ASSERT_OK_AND_ASSIGN(
      Table expected,
      wh.ExecuteCentralized(queries::CoalescingQuery("ClerkKey")));
  ExpectSameRows(result.table, expected);
}

// The quota and the morsel grain gate the fan-out: a quota-1 query adds no
// pool task; a default-quota query adds some exactly when its waves scan at
// least one morsel. Every site here holds under one morsel, so its own
// scan never submits a task — any task comes from the wave.
TEST(ParallelSitesTest, QuotaAndGrainGatePoolTasks) {
  obs::EnableMetrics(true);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  Warehouse big(8);
  ASSERT_OK(big.LoadByRange("TPCR", WaveSizedTpcr(3), "NationKey", 0, 24,
                            {"CustKey"}));
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       big.Plan(query, OptimizerOptions::None()));

  ExecHooks one_lane;
  one_lane.local_threads = 1;
  uint64_t before = PoolTasks();
  ASSERT_OK_AND_ASSIGN(QueryResult sequential, big.ExecutePlan(plan, one_lane));
  EXPECT_EQ(PoolTasks(), before);

  before = PoolTasks();
  ASSERT_OK_AND_ASSIGN(QueryResult fanned, big.ExecutePlan(plan));
  if (ThreadPool::DefaultThreadCount() > 1) {
    EXPECT_GT(PoolTasks(), before);
  } else {
    EXPECT_EQ(PoolTasks(), before);  // the default quota is 1 lane here
  }
  EXPECT_EQ(TableBytes(fanned.table), TableBytes(sequential.table));
  EXPECT_EQ(fanned.metrics.TotalBytes(), sequential.metrics.TotalBytes());
  // Every round records the wall time of its site waves.
  for (const RoundMetrics& rm : fanned.metrics.rounds) {
    EXPECT_GT(rm.wave_wall_sec, 0.0) << rm.label;
  }

  // Under one morsel of rows in the whole wave: the sequential site loop.
  TpcConfig config;
  config.num_rows = 20000;
  config.num_customers = 700;
  Warehouse small(8);
  ASSERT_OK(small.LoadByRange("TPCR", GenerateTpcr(config), "NationKey", 0,
                              24, {"CustKey"}));
  ASSERT_OK_AND_ASSIGN(DistributedPlan small_plan,
                       small.Plan(query, OptimizerOptions::None()));
  before = PoolTasks();
  ASSERT_OK(small.ExecutePlan(small_plan).status());
  EXPECT_EQ(PoolTasks(), before);
}

// ---------------------------------------------------------------------------
// Distributed composition: fanned-out site waves, multi-lane local scans,
// injected faults — still byte-identical to the sequential clean run.
// ---------------------------------------------------------------------------

TEST(ParallelDistributedTest, FaultedParallelRunMatchesSequentialCleanRun) {
  TpcConfig config;
  config.num_rows = kDefaultMorselRows + 4464;  // the wave fans out
  config.num_customers = 300;
  config.seed = 11;
  const Table tpcr = GenerateTpcr(config);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");

  Warehouse sequential(4);
  ASSERT_OK(sequential.LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                                   {"CustKey"}));
  sequential.set_local_threads(1);
  ASSERT_OK_AND_ASSIGN(QueryResult clean,
                       sequential.Execute(query, OptimizerOptions::None()));

  Warehouse parallel(4);
  ASSERT_OK(parallel.LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                                 {"CustKey"}));
  parallel.set_local_threads(8);
  ASSERT_EQ(FullWaveLanes(&parallel, 8, "TPCR"), 8);
  FaultInjector injector;
  injector.DropOnce(/*site=*/1, /*round=*/2,
                    TransferDirection::kToCoordinator);
  injector.DropOnce(/*site=*/2, /*round=*/2, TransferDirection::kToSite);
  parallel.set_fault_injector(&injector);
  ASSERT_OK_AND_ASSIGN(QueryResult faulted,
                       parallel.Execute(query, OptimizerOptions::None()));

  EXPECT_EQ(TableBytes(faulted.table), TableBytes(clean.table));
  EXPECT_GE(faulted.metrics.Retries(), 2);

  // And the tree coordinator composes the same way.
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       sequential.Plan(query, OptimizerOptions::None()));
  ASSERT_OK_AND_ASSIGN(QueryResult clean_tree,
                       sequential.ExecutePlanTree(plan, 2));
  ASSERT_OK_AND_ASSIGN(QueryResult faulted_tree,
                       parallel.ExecutePlanTree(plan, 2));
  EXPECT_EQ(TableBytes(faulted_tree.table), TableBytes(clean_tree.table));
}

}  // namespace
}  // namespace skalla
