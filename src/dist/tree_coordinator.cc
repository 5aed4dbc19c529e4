#include "dist/tree_coordinator.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "dist/coordinator.h"
#include "dist/fault_tolerance.h"
#include "dist/sync.h"
#include "engine/operators.h"
#include "expr/evaluator.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "storage/hash_index.h"
#include "storage/serializer.h"
#include "storage/wire_format.h"

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

TreeCoordinator::TreeCoordinator(std::vector<Site*> sites, int fan_in,
                                 NetworkConfig config)
    : sites_(std::move(sites)),
      topology_(TreeTopology::Build(
          std::max<int>(1, static_cast<int>(sites_.size())), fan_in)),
      network_(config) {}

Result<Table> TreeCoordinator::Execute(const DistributedPlan& plan,
                                       ExecutionMetrics* metrics) {
  if (sites_.empty()) {
    return Status::InvalidArgument("tree coordinator has no sites");
  }
  if (!plan.base_sites.empty()) {
    return Status::NotImplemented(
        "tree coordinator requires full site participation");
  }
  for (const PlanRound& round : plan.rounds) {
    if (!round.participating_sites.empty()) {
      return Status::NotImplemented(
          "tree coordinator requires full site participation");
    }
  }
  obs::ScopedSpan query_span("query.execute.tree", obs::kTrackCoordinator);
  if (query_span.armed()) {
    query_span.set_detail(std::to_string(plan.rounds.size()) +
                          " gmdj round(s), " + std::to_string(sites_.size()) +
                          " site(s), " + std::to_string(topology_.num_levels) +
                          " level(s)");
  }
  network_.Reset();
  ExecutionMetrics local_metrics;
  SiteRoster roster(sites_, replicas_);
  const RetryPolicy& retry = network_.config().retry;
  const WireFormat wire_format = network_.config().wire_format;
  const bool delta_enabled = network_.config().delta_shipping &&
                             wire_format == WireFormat::kSkl2;
  // The broadcast is one shared view for every leaf, so one cached copy of
  // the last shipped X backs all delta encoding. Aggregators apply the
  // delta to the same cache, so they can serve a retried leaf the full
  // payload without re-charging the internal edges.
  std::optional<Table> broadcast_cache;

  // Schema map via a throwaway flat coordinator helper.
  Coordinator schema_helper(sites_, network_.config());
  SKALLA_ASSIGN_OR_RETURN(SchemaMap schemas,
                          schema_helper.CollectSchemas(plan));
  const GmdjExpr expr = plan.ToExpr();
  SKALLA_RETURN_NOT_OK(ValidateGmdjExpr(expr, schemas));

  const int num_key = static_cast<int>(plan.key_attrs.size());
  std::vector<int> key_cols(static_cast<size_t>(num_key));
  std::iota(key_cols.begin(), key_cols.end(), 0);

  SKALLA_ASSIGN_OR_RETURN(SchemaPtr x_schema,
                          BaseResultSchema(expr, schemas, 0));
  Table x(x_schema);

  // The tree endpoint each leaf exchanges with: its parent aggregator, or
  // the coordinator itself in a single-node tree.
  std::vector<int> participants(sites_.size());
  std::iota(participants.begin(), participants.end(), 0);
  std::vector<int> leaf_parent(sites_.size(), kCoordinatorId);
  for (const TreeTopology::Node& node : topology_.nodes) {
    if (node.site_index >= 0 && node.parent >= 0) {
      leaf_parent[static_cast<size_t>(node.site_index)] =
          EncodeAggregatorId(node.parent);
    }
  }

  // Charges one message of `bytes` down every aggregator-internal edge
  // (sender level >= 2); leaf edges are driven fault-aware by the wave
  // driver instead. Sibling subtrees transfer in parallel, so a level
  // costs the max over senders of their serialized outbound volume.
  // `baseline_bytes` is the SKL1 full-ship equivalent per edge (0 = count
  // the actual bytes); `saved_bytes` is what delta encoding saved per edge.
  auto broadcast_internal = [&](size_t bytes, int64_t rows,
                                const std::string& label, RoundMetrics* rm,
                                size_t baseline_bytes = 0,
                                size_t saved_bytes = 0) {
    for (int level = topology_.num_levels - 1; level >= 2; --level) {
      double level_comm = 0;
      for (int node_id : topology_.NodesAtLevel(level)) {
        const TreeTopology::Node& node =
            topology_.nodes[static_cast<size_t>(node_id)];
        double outbound = 0;
        for (int child : node.children) {
          const TransferOutcome out = network_.Transfer(
              EncodeAggregatorId(node_id), EncodeAggregatorId(child), bytes,
              rows, label, 0, TransferDirection::kToSite);
          rm->bytes_to_sites += bytes;
          rm->groups_to_sites += rows;
          rm->bytes_baseline_skl1 +=
              baseline_bytes > 0 ? baseline_bytes : bytes;
          rm->bytes_saved_by_delta += saved_bytes;
          outbound += out.seconds;
        }
        level_comm = std::max(level_comm, outbound);
      }
      rm->comm_sec += level_comm;
    }
  };

  // Runs the fault-tolerant leaf exchange of one round: ships each slot's
  // down message from its parent, evaluates (fanned out over the wave's
  // lanes, sized by WaveLanes on the leaves' copies of `scanned`), and
  // collects the replies at the parents, retrying per RetryPolicy.
  // `slot_ids` normally names the leaves; a skew-rebalanced round appends
  // a helper slot replying to the straggler's parent.
  auto drive_leaves = [&](const std::vector<int>& slot_ids,
                          const std::vector<int>& reply_to,
                          const std::vector<DownMessage>& down,
                          const std::string& reply_label,
                          const std::vector<std::string>& scanned,
                          const SiteEvalFn& eval,
                          RoundMetrics* rm) -> Result<std::vector<Table>> {
    const int lanes =
        WaveLanes(local_threads_, roster, participants, scanned);
    SKALLA_ASSIGN_OR_RETURN(
        std::vector<std::string> replies,
        DriveRoundWithRetries(&network_, retry, rm, &roster, slot_ids,
                              down, reply_to, reply_label, eval, lanes,
                              LinkModel::kPerParentLinks, wire_format));
    std::vector<Table> tables(replies.size());
    for (size_t s = 0; s < replies.size(); ++s) {
      SKALLA_ASSIGN_OR_RETURN(tables[s],
                              Serializer::DeserializeTable(replies[s]));
    }
    return tables;
  };
  std::vector<int> leaf_reply_to(sites_.size());
  for (size_t s = 0; s < sites_.size(); ++s) leaf_reply_to[s] = leaf_parent[s];

  // Propagates per-leaf tables up the tree, combining at each internal
  // node, and returns the root's table. Leaf->parent hops were already
  // transferred (and charged, possibly with retries) by the wave driver;
  // internal hops are charged here (per level: max over parents of the
  // serialized inbound volume) along with merge CPU.
  auto propagate_up =
      [&](std::vector<Table> leaf_tables, RoundMetrics* rm,
          const std::string& label,
          const std::function<Result<Table>(
              const std::vector<const Table*>&)>& combine) -> Result<Table> {
    obs::ScopedSpan up_span("round.propagate_up", obs::kTrackCoordinator);
    std::vector<Table> by_node(topology_.nodes.size());
    for (const TreeTopology::Node& node : topology_.nodes) {
      if (node.site_index >= 0) {
        by_node[static_cast<size_t>(node.id)] =
            std::move(leaf_tables[static_cast<size_t>(node.site_index)]);
      }
    }
    for (int level = 1; level < topology_.num_levels; ++level) {
      double level_comm = 0;
      double level_merge_cpu = 0;
      for (int node_id : topology_.NodesAtLevel(level)) {
        const TreeTopology::Node& node =
            topology_.nodes[static_cast<size_t>(node_id)];
        double inbound = 0;
        std::vector<Table> received;
        for (int child : node.children) {
          Table& child_table = by_node[static_cast<size_t>(child)];
          if (topology_.nodes[static_cast<size_t>(child)].site_index >= 0) {
            received.push_back(std::move(child_table));
            continue;
          }
          const std::string payload =
              Serializer::SerializeTable(child_table, wire_format);
          const TransferOutcome out = network_.Transfer(
              EncodeAggregatorId(child), EncodeAggregatorId(node_id),
              payload.size(), child_table.num_rows(), label, 0,
              TransferDirection::kToCoordinator);
          inbound += out.seconds;
          rm->bytes_to_coord += payload.size();
          rm->groups_to_coord += child_table.num_rows();
          rm->bytes_baseline_skl1 +=
              Serializer::WireSize(child_table, WireFormat::kSkl1);
          SKALLA_ASSIGN_OR_RETURN(Table decoded,
                                  Serializer::DeserializeTable(payload));
          received.push_back(std::move(decoded));
        }
        Stopwatch merge_sw;
        std::vector<const Table*> ptrs;
        ptrs.reserve(received.size());
        for (const Table& t : received) ptrs.push_back(&t);
        int64_t merged_rows = 0;
        for (const Table& t : received) merged_rows += t.num_rows();
        SKALLA_ASSIGN_OR_RETURN(Table combined, combine(ptrs));
        by_node[static_cast<size_t>(node_id)] = std::move(combined);
        const double merge_sec = merge_sw.ElapsedSeconds();
        if (obs::JournalEnabled()) {
          obs::JournalRecord jr;
          jr.event = obs::JournalEvent::kSyncMerge;
          jr.round = network_.current_round();
          jr.site = EncodeAggregatorId(node_id);
          jr.rows = merged_rows;
          jr.seconds = merge_sec;
          jr.label = "tree";
          obs::JournalAppend(std::move(jr));
        }
        level_merge_cpu = std::max(level_merge_cpu, merge_sec);
        level_comm = std::max(level_comm, inbound);
      }
      rm->comm_sec += level_comm;
      rm->coord_cpu_sec += level_merge_cpu;
    }
    return std::move(by_node[static_cast<size_t>(topology_.root)]);
  };

  // ---- Base round. ----
  if (!plan.fuse_base) {
    network_.BeginRound("base (tree)");
    obs::ScopedSpan round_span("round.base", obs::kTrackCoordinator);
    RoundMetrics rm;
    rm.label = "base query (tree)";
    rm.streaming = network_.config().streaming_sync;
    rm.sites = static_cast<int>(sites_.size());
    // The plan travels down the tree (one control message per edge).
    broadcast_internal(kQueryPlanBytes, 0, "base query plan", &rm);
    std::vector<DownMessage> down(sites_.size());
    for (size_t s = 0; s < sites_.size(); ++s) {
      down[s] = DownMessage{leaf_parent[s], kQueryPlanBytes, 0,
                            "base query plan"};
    }
    auto eval = [&plan](int /*p*/, Site* site, double* cpu) {
      return site->EvalBase(plan.base, cpu);
    };
    SKALLA_ASSIGN_OR_RETURN(
        std::vector<Table> leaf_results,
        drive_leaves(participants, leaf_reply_to, down, "B_i",
                     {plan.base.source_table}, eval, &rm));
    SKALLA_ASSIGN_OR_RETURN(
        Table merged,
        propagate_up(std::move(leaf_results), &rm, "B_i", DistinctUnion));
    Stopwatch apply_sw;
    x = Table(x_schema);
    for (const Row& row : merged.rows()) x.AddRow(row);
    rm.coord_cpu_sec += apply_sw.ElapsedSeconds();
    local_metrics.rounds.push_back(std::move(rm));
  }

  // ---- GMDJ rounds. ----
  for (size_t r = 0; r < plan.rounds.size(); ++r) {
    const PlanRound& round = plan.rounds[r];
    const bool fused_base_round = plan.fuse_base && r == 0;
    network_.BeginRound("gmdj round " + std::to_string(r + 1) + " (tree)");
    obs::ScopedSpan round_span("round.gmdj", obs::kTrackCoordinator);
    if (round_span.armed()) {
      round_span.set_detail("round " + std::to_string(r + 1) + " (tree)");
    }
    RoundMetrics rm;
    rm.label = "gmdj round " + std::to_string(r + 1) + " (tree)";
    rm.streaming = network_.config().streaming_sync;
    rm.sites = static_cast<int>(sites_.size());

    int sub_width = 0;
    SKALLA_ASSIGN_OR_RETURN(std::vector<SubSlot> slots,
                            BuildSubSlots(round.ops, schemas, &sub_width));

    // Column pruning: the leaves only need the key attributes plus the θ
    // references; the same narrowed relation travels every hop.
    Table shipped_x;
    const Table* x_for_leaves = &x;
    std::vector<DownMessage> down(sites_.size());
    if (!fused_base_round) {
      if (!round.ship_cols.empty() &&
          static_cast<int>(round.ship_cols.size()) < x.schema().num_fields()) {
        SKALLA_ASSIGN_OR_RETURN(shipped_x, Project(x, round.ship_cols));
        x_for_leaves = &shipped_x;
      }
      std::string full_payload =
          Serializer::SerializeTable(*x_for_leaves, wire_format);
      const size_t baseline =
          Serializer::WireSize(*x_for_leaves, WireFormat::kSkl1);
      std::string payload;
      size_t fallback = 0;
      std::string label = "X broadcast";
      if (delta_enabled && broadcast_cache.has_value()) {
        std::string delta =
            Serializer::SerializeDelta(*broadcast_cache, *x_for_leaves);
        if (delta.size() < full_payload.size()) {
          payload = std::move(delta);
          fallback = full_payload.size();
          label = "X delta broadcast";
        }
      }
      if (fallback == 0) payload = std::move(full_payload);
      const size_t saved = fallback > 0 ? fallback - payload.size() : 0;
      if (obs::JournalEnabled()) {
        // One broadcast view serves every leaf: site -1 marks it shared.
        obs::JournalRecord jr;
        jr.event = obs::JournalEvent::kBaseShipped;
        jr.round = network_.current_round();
        jr.site = -1;
        jr.bytes = payload.size();
        jr.rows = x_for_leaves->num_rows();
        jr.label = fallback > 0 ? "SKLD" : WireFormatName(wire_format);
        obs::JournalAppend(std::move(jr));
      }
      // Every leaf sees the decode of the shipped bytes (against the
      // shared cache for a delta); the cache advances to that view.
      SKALLA_ASSIGN_OR_RETURN(
          shipped_x,
          Serializer::DecodeShipment(
              broadcast_cache ? &*broadcast_cache : nullptr, payload));
      x_for_leaves = &shipped_x;
      broadcast_cache = shipped_x;
      broadcast_internal(payload.size(), x_for_leaves->num_rows(), label,
                         &rm, baseline, saved);
      for (size_t s = 0; s < sites_.size(); ++s) {
        down[s] = DownMessage{leaf_parent[s], payload.size(),
                              x_for_leaves->num_rows(), label, fallback,
                              baseline};
      }
    } else {
      // The fused plan itself travels down the tree, one control message
      // per edge, mirroring the flat coordinator's accounting.
      broadcast_internal(kQueryPlanBytes, 0, "fused plan", &rm);
      for (size_t s = 0; s < sites_.size(); ++s) {
        down[s] = DownMessage{leaf_parent[s], kQueryPlanBytes, 0,
                              "fused plan"};
      }
    }

    // ---- Skew rebalancing (docs/skew.md): split a predicted straggler
    //      leaf's detail scan with its φ-twin replica. The helper replies
    //      to the straggler's own tree parent; its H fragment is
    //      pre-combined below so the upward propagation is unchanged. ----
    std::vector<int> drive_participants = participants;
    std::vector<int> drive_reply_to = leaf_reply_to;
    std::vector<std::pair<int64_t, int64_t>> ranges(sites_.size(), {0, -1});
    std::vector<int64_t> assigned_rows(sites_.size(), 0);
    int hot_leaf = -1;
    const bool splittable = skew_detector_ != nullptr && !fused_base_round &&
                            round.ops.size() == 1;
    if (splittable) {
      std::vector<int64_t> rows(sites_.size(), 0);
      for (size_t s = 0; s < sites_.size(); ++s) {
        Result<std::shared_ptr<const Table>> detail =
            roster.active(static_cast<int>(s))
                ->catalog()
                .GetTable(round.ops[0].detail_table);
        if (detail.ok()) rows[s] = (*detail)->num_rows();
      }
      assigned_rows = rows;
      const RebalanceDecision decision =
          skew_detector_->PlanRound(participants, rows);
      auto replica_it = replicas_.end();
      if (decision.split() && !roster.failed_over(decision.hot_slot)) {
        replica_it = replicas_.find(decision.hot_slot);
      }
      if (replica_it != replicas_.end() &&
          CoversPartition(replica_it->second->partition_info(),
                          roster.active(decision.hot_slot)
                              ->partition_info())) {
        hot_leaf = decision.hot_slot;
        const int helper_sid = roster.AddHelperSlot(
            replica_it->second, roster.active(hot_leaf));
        drive_participants.push_back(helper_sid);
        drive_reply_to.push_back(leaf_parent[static_cast<size_t>(hot_leaf)]);
        // The helper holds no broadcast cache, so it always receives the
        // full standalone payload (the delta's fallback size when the
        // round broadcast a delta).
        const DownMessage& hot_msg = down[static_cast<size_t>(hot_leaf)];
        DownMessage helper_msg{
            leaf_parent[static_cast<size_t>(hot_leaf)],
            hot_msg.fallback_bytes > 0 ? hot_msg.fallback_bytes
                                       : hot_msg.bytes,
            hot_msg.rows, hot_msg.label + " (rebalance)", 0,
            hot_msg.baseline_bytes};
        helper_msg.rebalance = true;
        down.push_back(std::move(helper_msg));
        ranges[static_cast<size_t>(hot_leaf)] = {0, decision.split_at};
        ranges.push_back({decision.split_at, -1});
        assigned_rows[static_cast<size_t>(hot_leaf)] = decision.split_at;
        rm.rebalance_splits++;
      }
    }

    auto eval = [&](int p, Site* site, double* cpu) {
      SiteRoundInput input;
      input.x = fused_base_round ? nullptr : x_for_leaves;
      input.base = fused_base_round ? &plan.base : nullptr;
      input.ops = &round.ops;
      input.key_attrs = &plan.key_attrs;
      input.touched_only = round.flags.independent_group_reduction;
      input.num_threads = local_threads_;
      input.detail_lo = ranges[static_cast<size_t>(p)].first;
      input.detail_hi = ranges[static_cast<size_t>(p)].second;
      return site->EvalRound(input, cpu);
    };
    SKALLA_ASSIGN_OR_RETURN(
        std::vector<Table> leaf_results,
        drive_leaves(drive_participants, drive_reply_to, down, "H_i",
                     round.DetailTables(), eval, &rm));

    // Feed the measured per-leaf wall times back to the detector (primary
    // leaves only; a helper's timing reflects the replica's hardware).
    if (splittable) {
      for (size_t s = 0; s < sites_.size(); ++s) {
        if (s < rm.site_seconds.size()) {
          skew_detector_->ObserveRound(static_cast<int>(s),
                                       rm.site_seconds[s], assigned_rows[s]);
        }
      }
    }

    // Pre-combine the helper's H fragment into the straggler leaf's table
    // (Theorem 1 merge; byte-identical to the unsplit leaf's reply) so the
    // propagation sees exactly one table per leaf.
    if (hot_leaf >= 0) {
      std::vector<const Table*> fragments{
          &leaf_results[static_cast<size_t>(hot_leaf)],
          &leaf_results.back()};
      SKALLA_ASSIGN_OR_RETURN(Table combined,
                              CombineSubResults(fragments, num_key, slots));
      leaf_results[static_cast<size_t>(hot_leaf)] = std::move(combined);
      leaf_results.pop_back();
    }

    SKALLA_ASSIGN_OR_RETURN(
        Table h, propagate_up(
                     std::move(leaf_results), &rm, "H_i",
                     [&](const std::vector<const Table*>& inputs) {
                       return CombineSubResults(inputs, num_key, slots);
                     }));

    // ---- Apply the combined sub-results to X at the root. ----
    obs::ScopedSpan apply_span("round.apply", obs::kTrackCoordinator);
    Stopwatch apply_sw;
    std::vector<Field> new_fields = x.schema().fields();
    for (const SubSlot& slot : slots) new_fields.push_back(slot.final_field);
    Table new_x(MakeSchema(std::move(new_fields)));

    HashIndex h_index;
    h_index.Build(h, key_cols);
    auto finalize_from = [&](const Row* h_row, Row* out_row) {
      for (const SubSlot& slot : slots) {
        if (h_row == nullptr) {
          std::vector<Value> init(static_cast<size_t>(slot.arity));
          InitSubValues(slot.func, init.data());
          out_row->push_back(FinalizeSubValues(slot.func, init.data()));
        } else {
          out_row->push_back(FinalizeSubValues(
              slot.func,
              &(*h_row)[static_cast<size_t>(num_key + slot.offset)]));
        }
      }
    };
    if (fused_base_round) {
      // X is assembled from the combined H itself.
      new_x.Reserve(h.num_rows());
      for (const Row& h_row : h.rows()) {
        Row row(h_row.begin(), h_row.begin() + num_key);
        finalize_from(&h_row, &row);
        new_x.AddRow(std::move(row));
      }
    } else {
      new_x.Reserve(x.num_rows());
      for (int64_t i = 0; i < x.num_rows(); ++i) {
        Row row = x.row(i);
        const std::vector<int64_t>* match = h_index.Lookup(row, key_cols);
        finalize_from(match == nullptr ? nullptr : &h.row(match->front()),
                      &row);
        new_x.AddRow(std::move(row));
      }
    }
    x = std::move(new_x);
    rm.coord_cpu_sec += apply_sw.ElapsedSeconds();
    local_metrics.rounds.push_back(std::move(rm));
  }


  // ---- HAVING: final coordinator-side filter over the finished X. ----
  if (plan.having != nullptr) {
    Stopwatch having_sw;
    SKALLA_ASSIGN_OR_RETURN(
        CompiledExpr having,
        CompiledExpr::Compile(plan.having, &x.schema(), nullptr));
    Table filtered(x.schema_ptr());
    for (const Row& row : x.rows()) {
      if (having.EvalBool(&row, nullptr)) filtered.AddRow(row);
    }
    x = std::move(filtered);
    if (!local_metrics.rounds.empty()) {
      local_metrics.rounds.back().coord_cpu_sec += having_sw.ElapsedSeconds();
    }
  }

  // ---- Presentation: ORDER BY / LIMIT on the finished relation. ----
  if (!plan.order_by.empty()) {
    SKALLA_ASSIGN_OR_RETURN(x, SortedByKeys(x, plan.order_by));
  }
  if (plan.limit >= 0) {
    x = Limit(x, plan.limit);
  }

  if (metrics != nullptr) *metrics = std::move(local_metrics);
  return x;
}

}  // namespace skalla
