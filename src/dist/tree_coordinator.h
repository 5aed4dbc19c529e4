#ifndef SKALLA_DIST_TREE_COORDINATOR_H_
#define SKALLA_DIST_TREE_COORDINATOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/metrics.h"
#include "dist/plan.h"
#include "dist/rebalance.h"
#include "dist/site.h"
#include "net/cost_model.h"
#include "net/sim_network.h"

namespace skalla {

/// \brief A k-ary aggregation tree over the warehouse sites.
///
/// The paper's conclusions name "multi-tiered coordinator architectures or
/// spanning-tree networks" as future work; this topology realizes it.
/// Leaves are the Skalla sites; internal nodes are aggregator instances
/// that merge their children's sub-results (Theorem 1 composes, so merging
/// is correct at any level) before forwarding a single combined relation
/// upward. Each node has its own network link, so sibling subtrees
/// transfer in parallel — trading extra hops (latency) for a root link
/// that carries one relation per child instead of one per site.
struct TreeTopology {
  struct Node {
    int id = -1;
    int parent = -1;
    std::vector<int> children;  ///< empty for leaves
    int site_index = -1;        ///< leaf only: index into the site vector
    int level = 0;              ///< 0 = leaves, increasing upward
  };

  std::vector<Node> nodes;
  int root = -1;
  int num_levels = 0;  ///< levels of nodes (1 = degenerate single node)

  /// Builds a bottom-up k-ary tree over `num_sites` leaves.
  /// Requires num_sites >= 1 and fan_in >= 2.
  static TreeTopology Build(int num_sites, int fan_in);

  /// Nodes at a level, bottom-up.
  std::vector<int> NodesAtLevel(int level) const;

  std::string ToString() const;
};

/// \brief Executes distributed plans over a multi-tier aggregation tree.
///
/// Supports the same plans as the flat Coordinator except per-site
/// distribution-aware ship predicates (an aggregator would need the union
/// of its subtree's predicates; rounds with aware_group_reduction are
/// executed without it). Results are identical to the flat coordinator;
/// only the cost profile differs.
class TreeCoordinator {
 public:
  TreeCoordinator(std::vector<Site*> sites, int fan_in,
                  NetworkConfig config = NetworkConfig());

  /// Executes the plan, filling `metrics` when non-null.
  Result<Table> Execute(const DistributedPlan& plan,
                        ExecutionMetrics* metrics);

  const TreeTopology& topology() const { return topology_; }

  /// The simulated network all tree traffic is recorded on. Leaf edges
  /// (site endpoints) are subject to an attached FaultInjector and retried
  /// per NetworkConfig::retry; aggregator-internal hops are assumed
  /// reliable (they are encoded with EncodeAggregatorId endpoints).
  SimNetwork& network() { return network_; }

  /// Registers a failover replica for leaf site `site_id`; see
  /// Coordinator::AddReplica.
  void AddReplica(int site_id, Site* replica) {
    replicas_[site_id] = replica;
  }

  /// The query's lane quota, bounding both the leaf waves' fan-out and
  /// each leaf's morsel-driven local evaluation; see
  /// Coordinator::set_local_threads.
  void set_local_threads(int num_threads) { local_threads_ = num_threads; }

  /// Attaches a skew detector; see Coordinator::set_skew_detector. A split
  /// straggler's helper replies to the straggler's own tree parent, and
  /// the two H fragments are pre-combined (CombineSubResults) before the
  /// upward propagation, so aggregators above see exactly one table per
  /// leaf — byte-identical to the unsplit round.
  void set_skew_detector(SkewDetector* detector) { skew_detector_ = detector; }

 private:
  std::vector<Site*> sites_;
  std::map<int, Site*> replicas_;
  TreeTopology topology_;
  SimNetwork network_;
  int local_threads_ = 0;
  SkewDetector* skew_detector_ = nullptr;
};

}  // namespace skalla

#endif  // SKALLA_DIST_TREE_COORDINATOR_H_
