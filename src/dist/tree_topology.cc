#include "dist/tree_topology.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace skalla {

TreeTopology TreeTopology::Build(int num_sites, int fan_in) {
  SKALLA_CHECK(num_sites >= 1);
  SKALLA_CHECK(fan_in >= 2);
  TreeTopology tree;
  std::vector<int> current_level;
  for (int s = 0; s < num_sites; ++s) {
    Node leaf;
    leaf.id = static_cast<int>(tree.nodes.size());
    leaf.site_index = s;
    leaf.level = 0;
    current_level.push_back(leaf.id);
    tree.nodes.push_back(std::move(leaf));
  }
  int level = 0;
  while (current_level.size() > 1) {
    ++level;
    std::vector<int> next_level;
    for (size_t i = 0; i < current_level.size();
         i += static_cast<size_t>(fan_in)) {
      Node parent;
      parent.id = static_cast<int>(tree.nodes.size());
      parent.level = level;
      const size_t end =
          std::min(current_level.size(), i + static_cast<size_t>(fan_in));
      for (size_t c = i; c < end; ++c) {
        parent.children.push_back(current_level[c]);
        tree.nodes[static_cast<size_t>(current_level[c])].parent = parent.id;
      }
      next_level.push_back(parent.id);
      tree.nodes.push_back(std::move(parent));
    }
    current_level = std::move(next_level);
  }
  tree.root = current_level[0];
  tree.num_levels = level + 1;
  return tree;
}

std::vector<int> TreeTopology::NodesAtLevel(int level) const {
  std::vector<int> out;
  for (const Node& node : nodes) {
    if (node.level == level) out.push_back(node.id);
  }
  return out;
}

std::string TreeTopology::ToString() const {
  std::ostringstream os;
  os << "tree with " << num_levels << " level(s), root " << root << "\n";
  for (const Node& node : nodes) {
    if (node.children.empty()) continue;
    os << "  node " << node.id << " (level " << node.level << ") <- [";
    for (size_t i = 0; i < node.children.size(); ++i) {
      if (i) os << ", ";
      os << node.children[i];
    }
    os << "]\n";
  }
  return os.str();
}

}  // namespace skalla
