#ifndef SKALLA_DIST_TREE_TOPOLOGY_H_
#define SKALLA_DIST_TREE_TOPOLOGY_H_

#include <string>
#include <vector>

namespace skalla {

/// \brief A k-ary aggregation tree over the warehouse sites.
///
/// The paper's conclusions name "multi-tiered coordinator architectures or
/// spanning-tree networks" as future work; this topology realizes it.
/// Leaves are the Skalla sites; internal nodes are aggregator instances
/// that merge their children's sub-results (Theorem 1 composes, so merging
/// is correct at any level) before forwarding a single combined relation
/// upward. The root is the coordinator itself. Each node has its own
/// network link, so sibling subtrees transfer in parallel — trading extra
/// hops (latency) for a root link that carries one relation per child
/// instead of one per site. The flat coordinator is the depth-1 case,
/// Build(n, fan_in >= n): every leaf is a child of the root.
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

}  // namespace skalla

#endif  // SKALLA_DIST_TREE_TOPOLOGY_H_
