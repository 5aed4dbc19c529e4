#include "dist/tree_topology.h"

#include <gtest/gtest.h>

#include "expr/parser.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "test_util.h"
#include "storage/serializer.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

TEST(TreeTopologyTest, SingleSiteIsRootOnly) {
  const TreeTopology tree = TreeTopology::Build(1, 2);
  EXPECT_EQ(tree.nodes.size(), 1u);
  EXPECT_EQ(tree.root, 0);
  EXPECT_EQ(tree.num_levels, 1);
}

TEST(TreeTopologyTest, BinaryTreeOverEight) {
  const TreeTopology tree = TreeTopology::Build(8, 2);
  // 8 leaves + 4 + 2 + 1 = 15 nodes, 4 levels.
  EXPECT_EQ(tree.nodes.size(), 15u);
  EXPECT_EQ(tree.num_levels, 4);
  EXPECT_EQ(tree.NodesAtLevel(0).size(), 8u);
  EXPECT_EQ(tree.NodesAtLevel(1).size(), 4u);
  EXPECT_EQ(tree.NodesAtLevel(3).size(), 1u);
  // Every non-root node has a parent; the root has none.
  for (const TreeTopology::Node& node : tree.nodes) {
    if (node.id == tree.root) {
      EXPECT_EQ(node.parent, -1);
    } else {
      ASSERT_GE(node.parent, 0);
      const auto& siblings =
          tree.nodes[static_cast<size_t>(node.parent)].children;
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), node.id),
                siblings.end());
    }
  }
}

TEST(TreeTopologyTest, UnevenFanIn) {
  const TreeTopology tree = TreeTopology::Build(5, 3);
  // 5 leaves → level1: 2 parents (3+2) → root. 5+2+1 = 8 nodes.
  EXPECT_EQ(tree.nodes.size(), 8u);
  EXPECT_EQ(tree.num_levels, 3);
}

TEST(TreeTopologyTest, WideFanInCollapsesToTwoLevels) {
  const TreeTopology tree = TreeTopology::Build(6, 8);
  EXPECT_EQ(tree.num_levels, 2);
  EXPECT_EQ(tree.NodesAtLevel(1).size(), 1u);
}

TEST(TreeTopologyTest, ToStringListsInternalNodes) {
  const TreeTopology tree = TreeTopology::Build(4, 2);
  const std::string s = tree.ToString();
  EXPECT_NE(s.find("tree with 3 level(s)"), std::string::npos);
}

class TreeExecutionTest : public ::testing::Test {
 protected:
  void Load(Warehouse* wh, uint64_t seed = 31) {
    TpcConfig config;
    config.num_rows = 3000;
    config.num_customers = 250;
    config.seed = seed;
    Table tpcr = GenerateTpcr(config);
    ASSERT_OK(wh->LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                              {"CustKey"}));
  }
};

TEST_F(TreeExecutionTest, MatchesFlatCoordinatorAcrossQueriesAndFanIns) {
  Warehouse wh(8);
  Load(&wh);
  for (const auto& [name, query] :
       std::vector<std::pair<std::string, GmdjExpr>>{
           {"group", queries::GroupReductionQuery("CustKey")},
           {"coalesce", queries::CoalescingQuery("ClerkKey")},
           {"sync", queries::SyncReductionQuery("CustKey")},
           {"combined", queries::CombinedQuery("CustKey")}}) {
    for (const auto& options :
         {OptimizerOptions::None(), OptimizerOptions::All()}) {
      ASSERT_OK_AND_ASSIGN(DistributedPlan plan, wh.Plan(query, options));
      ASSERT_OK_AND_ASSIGN(QueryResult flat, wh.ExecutePlan(plan));
      for (int fan_in : {2, 3, 8}) {
        ASSERT_OK_AND_ASSIGN(QueryResult tree,
                             wh.ExecutePlanTree(plan, fan_in));
        ExpectSameRows(tree.table, flat.table);
      }
    }
  }
}

TEST_F(TreeExecutionTest, SingleSiteTree) {
  Warehouse wh(1);
  Load(&wh);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::None()));
  ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, 2));
  ASSERT_OK_AND_ASSIGN(Table expected, wh.ExecuteCentralized(query));
  ExpectSameRows(tree.table, expected);
}

TEST_F(TreeExecutionTest, TreeReducesRootInboundGroups) {
  // With 8 sites and a binary tree, the root receives 2 combined
  // relations instead of 8 per round; total upward groups still include
  // intermediate hops, but the *bytes on any single link* shrink. We
  // check the observable aggregate: upward groups for the flat
  // coordinator count every site's full H, while the tree's root level
  // carries at most 2 combined relations whose union is the group set.
  Warehouse wh(8);
  Load(&wh);
  const GmdjExpr query = queries::SyncReductionQuery("CustKey");
  OptimizerOptions options;
  options.sync_reduction = true;
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan, wh.Plan(query, options));
  ASSERT_OK_AND_ASSIGN(QueryResult flat, wh.ExecutePlan(plan));
  ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, 2));
  ExpectSameRows(tree.table, flat.table);
  // Same single logical round.
  EXPECT_EQ(tree.metrics.NumRounds(), flat.metrics.NumRounds());
}

TEST_F(TreeExecutionTest, PartialParticipationMatchesFlatAndCentralized) {
  // Only low nations feed the base query and the θ, so the optimizer
  // excludes the sites whose NationKey range lies above 10 from the GMDJ
  // round (site exclusion), and the base query may skip them too. Each
  // round then runs over the tree of its participating sites.
  Warehouse wh(8);
  TpcConfig config;
  config.num_rows = 3000;
  config.num_customers = 250;
  config.seed = 31;
  ASSERT_OK(wh.LoadByRange("TPCR", GenerateTpcr(config), "NationKey", 0, 24,
                           {"CustKey", "NationKey"}));
  GmdjExpr query;
  query.base.source_table = "TPCR";
  query.base.project_cols = {"CustKey"};
  ASSERT_OK_AND_ASSIGN(query.base.filter, ParseExpr("NationKey <= 10"));
  GmdjOp op;
  op.detail_table = "TPCR";
  GmdjBlock block;
  block.aggs = {AggSpec::Count("low_cnt"), AggSpec::Sum("Quantity", "low_sq")};
  ASSERT_OK_AND_ASSIGN(
      block.theta, ParseExpr("B.CustKey = R.CustKey && R.NationKey <= 10"));
  op.blocks.push_back(block);
  query.ops.push_back(op);

  OptimizerOptions options;
  options.aware_group_reduction = true;
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan, wh.Plan(query, options));
  ASSERT_EQ(plan.rounds.size(), 1u);
  const std::vector<int> participants = plan.rounds[0].participating_sites;
  ASSERT_GE(participants.size(), 3u);
  ASSERT_LT(participants.size(), 8u);
  plan.base_sites = participants;

  ASSERT_OK_AND_ASSIGN(Table expected, wh.ExecuteCentralized(query));
  ASSERT_OK_AND_ASSIGN(QueryResult flat, wh.ExecutePlan(plan));
  ExpectSameRows(flat.table, expected);
  for (int fan_in : {2, 3}) {
    SCOPED_TRACE(fan_in);
    ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, fan_in));
    EXPECT_EQ(Serializer::SerializeTable(tree.table),
              Serializer::SerializeTable(flat.table));
    ExpectSameRows(tree.table, expected);
    for (const RoundMetrics& round : tree.metrics.rounds) {
      EXPECT_EQ(round.sites, static_cast<int>(participants.size()));
    }
  }
}

TEST_F(TreeExecutionTest, HighLatencyFavorsFlatLowLatencyBandwidthBoundFavorsTree) {
  // Sanity of the cost model: with per-message latency dominating, extra
  // hops hurt; with bandwidth dominating and many sites, the tree's
  // parallel sibling transfers help the X broadcast.
  Warehouse wh(8);
  Load(&wh);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::None()));

  NetworkConfig slow_links;
  slow_links.bandwidth_bytes_per_sec = 256 * 1024;
  slow_links.latency_sec = 0.0001;
  wh.set_network_config(slow_links);
  ASSERT_OK_AND_ASSIGN(QueryResult flat, wh.ExecutePlan(plan));
  ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, 2));
  ExpectSameRows(tree.table, flat.table);
  EXPECT_LT(tree.metrics.CommSeconds(), flat.metrics.CommSeconds());
}

}  // namespace
}  // namespace skalla
