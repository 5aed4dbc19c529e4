#include "dist/coordinator.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "dist/fault_tolerance.h"
#include "dist/sync.h"
#include "dist/tree_topology.h"
#include "engine/operators.h"
#include "expr/evaluator.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "storage/hash_index.h"
#include "storage/serializer.h"
#include "storage/wire_format.h"

namespace skalla {

namespace {

/// One round's aggregation tree over its participating site slots: leaf
/// node p serves slot participants[p], and the root is the coordinator.
struct RoundTree {
  RoundTree(int num_leaves, int fan_in)
      : topo(TreeTopology::Build(num_leaves, fan_in)),
        leaf_parent(static_cast<size_t>(num_leaves)) {
    for (size_t p = 0; p < leaf_parent.size(); ++p) {
      leaf_parent[p] = Endpoint(topo.nodes[p].parent);
    }
  }

  /// The network endpoint of node `id`: the root (and the missing parent
  /// of a lone leaf, id -1) is the coordinator, other nodes aggregators.
  int Endpoint(int id) const {
    return id < 0 || id == topo.root ? kCoordinatorId : EncodeAggregatorId(id);
  }

  TreeTopology topo;
  std::vector<int> leaf_parent;  ///< per leaf: the endpoint it talks to
};

/// Charges `msg` down every aggregator-internal edge: the root's edges to
/// aggregator children and the edges between aggregators (the wave driver
/// carries the site edges, fault-aware). Sibling subtrees transfer in
/// parallel, so a level costs the max over senders of their serialized
/// outbound volume.
void ChargeInternalDown(SimNetwork* net, const RoundTree& tree,
                        const DownMessage& msg, RoundMetrics* rm) {
  for (int level = tree.topo.num_levels - 1; level >= 2; --level) {
    double level_comm = 0;
    for (int node_id : tree.topo.NodesAtLevel(level)) {
      double outbound = 0;
      for (int child : tree.topo.nodes[static_cast<size_t>(node_id)].children) {
        outbound += net->Transfer(tree.Endpoint(node_id),
                                  EncodeAggregatorId(child), msg.bytes,
                                  msg.rows, msg.label, 0,
                                  TransferDirection::kToSite)
                        .seconds;
        rm->bytes_to_sites += msg.bytes;
        rm->groups_to_sites += msg.rows;
        rm->bytes_baseline_skl1 +=
            msg.baseline_bytes > 0 ? msg.baseline_bytes : msg.bytes;
        // A delta ships only when smaller than its full fallback.
        rm->bytes_saved_by_delta +=
            msg.fallback_bytes > 0 ? msg.fallback_bytes - msg.bytes : 0;
      }
      level_comm = std::max(level_comm, outbound);
    }
    rm->comm_sec += level_comm;
  }
}

/// Appends one coordinator-side journal record when the journal is on.
void Journal(obs::JournalEvent event, int round, int site, int64_t rows,
             std::string label = "", size_t bytes = 0,
             int64_t rows_before = 0, double seconds = 0) {
  if (!obs::JournalEnabled()) return;
  obs::JournalRecord jr;
  jr.event = event;
  jr.round = round;
  jr.site = site;
  jr.rows = rows;
  jr.label = std::move(label);
  jr.bytes = bytes;
  jr.rows_before = rows_before;
  jr.seconds = seconds;
  obs::JournalAppend(std::move(jr));
}

}  // namespace

Status Coordinator::CheckCancelled() const {
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled by client");
  }
  return Status::OK();
}

Result<SchemaPtr> Coordinator::FindSchema(const std::string& table_name) const {
  for (const Site* site : sites_) {
    if (site->catalog().HasTable(table_name)) {
      SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> t,
                              site->catalog().GetTable(table_name));
      return t->schema_ptr();
    }
  }
  return Status::NotFound("no site holds a partition of '" + table_name + "'");
}

Result<SchemaMap> Coordinator::CollectSchemas(
    const DistributedPlan& plan) const {
  SchemaMap schemas;
  SKALLA_ASSIGN_OR_RETURN(schemas[plan.base.source_table],
                          FindSchema(plan.base.source_table));
  for (const PlanRound& round : plan.rounds) {
    for (const GmdjOp& op : round.ops) {
      if (schemas.count(op.detail_table)) continue;
      SKALLA_ASSIGN_OR_RETURN(schemas[op.detail_table],
                              FindSchema(op.detail_table));
    }
  }
  return schemas;
}

Result<Table> Coordinator::Execute(const DistributedPlan& plan,
                                   ExecutionMetrics* metrics) {
  if (sites_.empty()) {
    return Status::InvalidArgument("coordinator has no sites");
  }
  obs::ScopedSpan query_span("query.execute", obs::kTrackCoordinator);
  if (query_span.armed()) {
    query_span.set_detail(std::to_string(plan.rounds.size()) +
                          " gmdj round(s), " + std::to_string(sites_.size()) +
                          " site(s), fan-in " + std::to_string(fan_in_));
  }
  network_.Reset();
  ExecutionMetrics local_metrics;
  // Which physical site serves each slot; failover swaps are sticky for
  // the rest of the query.
  SiteRoster roster(sites_, replicas_);
  const RetryPolicy& retry = network_.config().retry;
  const WireFormat wire_format = network_.config().wire_format;
  // Delta shipping needs the columnar codec for its sections; with SKL1
  // selected every ship is a full payload.
  const bool delta_enabled = network_.config().delta_shipping &&
                             wire_format == WireFormat::kSkl2;
  // What each site slot last received of X as a child of the coordinator
  // (fused rounds ship only a plan and leave the cache untouched). Deltas
  // in later rounds are encoded against this, mirroring the site's cached
  // copy. With an attached external cache the mirror survives the query,
  // so the next query's first ship can already go out as a delta.
  std::vector<std::optional<Table>> private_ship_cache;
  std::vector<std::optional<Table>>& ship_cache =
      external_ship_cache_ != nullptr ? *external_ship_cache_
                                      : private_ship_cache;
  ship_cache.resize(sites_.size());
  // Sites under an aggregator all receive one broadcast view of X, so one
  // cached copy backs its delta encoding; aggregators apply the delta to
  // the same cache, so they can serve a retried site the full payload
  // without re-charging the internal edges. `holds_broadcast` marks the
  // slots whose copy is current.
  std::optional<Table> broadcast_cache;
  std::vector<bool> holds_broadcast(sites_.size(), false);

  SKALLA_ASSIGN_OR_RETURN(SchemaMap schemas, CollectSchemas(plan));
  const GmdjExpr expr = plan.ToExpr();
  SKALLA_RETURN_NOT_OK(ValidateGmdjExpr(expr, schemas));

  const int num_key = static_cast<int>(plan.key_attrs.size());
  std::vector<int> key_cols(static_cast<size_t>(num_key));
  std::iota(key_cols.begin(), key_cols.end(), 0);

  SKALLA_RETURN_NOT_OK(CheckCancelled());

  // Resuming from a cached prefix: the first `resume_rounds_` plan rounds
  // (and the base round) are skipped and X is seeded from the cached
  // structure, after validating it against the schema a fresh execution
  // would hold at that point.
  const bool resuming = resume_x_ != nullptr && resume_rounds_ >= 1;
  size_t ops_done = 0;
  if (resuming) {
    if (resume_rounds_ > plan.rounds.size()) {
      return Status::InvalidArgument(
          "resume point beyond the plan's round count");
    }
    for (size_t r = 0; r < resume_rounds_; ++r) {
      ops_done += plan.rounds[r].ops.size();
    }
    SKALLA_ASSIGN_OR_RETURN(SchemaPtr resume_schema,
                            BaseResultSchema(expr, schemas, ops_done));
    if (resume_x_->schema().FieldNames() != resume_schema->FieldNames()) {
      return Status::InvalidArgument(
          "resume structure schema does not match the plan prefix");
    }
  }

  // The base-result structure X (visible/finalized form) plus its key index.
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr x_schema,
                          BaseResultSchema(expr, schemas, ops_done));
  Table x(x_schema);
  if (resuming) x = *resume_x_;
  HashIndex x_index;
  x_index.Build(x, key_cols);

  // Round -1 is the base-values query, skipped when it is fused into the
  // first GMDJ round (Prop. 2) or when resuming.
  const int64_t first_round = resuming ? static_cast<int64_t>(resume_rounds_)
                              : plan.fuse_base ? 0
                                               : -1;
  for (int64_t r = first_round; r < static_cast<int64_t>(plan.rounds.size());
       ++r) {
    const bool base_round = r < 0;
    const bool fused_base_round = plan.fuse_base && r == 0;
    // Plan-only rounds ship a query plan instead of X.
    const bool plan_only = base_round || fused_base_round;
    const PlanRound* round =
        base_round ? nullptr : &plan.rounds[static_cast<size_t>(r)];
    SKALLA_RETURN_NOT_OK(CheckCancelled());
    const std::string name =
        base_round ? "base" : "gmdj round " + std::to_string(r + 1);
    network_.BeginRound(name);
    obs::ScopedSpan round_span(base_round ? "round.base" : "round.gmdj",
                               obs::kTrackCoordinator);
    if (round_span.armed() && !base_round) {
      round_span.set_detail("round " + std::to_string(r + 1));
    }
    RoundMetrics rm;
    rm.streaming = network_.config().streaming_sync;
    rm.label = base_round ? "base query" : name;
    if (!base_round && round->ops.size() > 1) {
      rm.label += " (chain of " + std::to_string(round->ops.size()) + ")";
    }
    std::vector<int> participants =
        base_round ? plan.base_sites : round->participating_sites;
    if (participants.empty()) {  // empty = every site
      participants.resize(sites_.size());
      std::iota(participants.begin(), participants.end(), 0);
    }
    const size_t m = participants.size();
    rm.sites = static_cast<int>(m);
    // This round's aggregation tree over its participating sites; leaf p
    // serves slot participants[p]. A fan-in of 0 makes it depth 1 (flat).
    const RoundTree tree(static_cast<int>(m),
                         fan_in_ >= 2 ? fan_in_ : std::max<int>(2, rm.sites));

    // Sub-aggregate layout of this round's H relations.
    int sub_width = 0;
    std::vector<SubSlot> slots;
    if (!base_round) {
      SKALLA_ASSIGN_OR_RETURN(slots,
                              BuildSubSlots(round->ops, schemas, &sub_width));
    }
    // Per-X-row sub-aggregate accumulators, initialized to the identities.
    auto init_acc_row = [&slots, sub_width]() {
      std::vector<Value> row(static_cast<size_t>(sub_width));
      for (const SubSlot& slot : slots) {
        InitSubValues(slot.func, &row[static_cast<size_t>(slot.offset)]);
      }
      return row;
    };
    std::vector<std::vector<Value>> acc(static_cast<size_t>(x.num_rows()));
    for (auto& row : acc) row = init_acc_row();

    // Per-site ship predicates ¬ψ_i when aware group reduction is on.
    const std::vector<ExprPtr>* ship_preds =
        !base_round && round->flags.aware_group_reduction &&
                static_cast<size_t>(r) < plan.ship_predicates.size()
            ? &plan.ship_predicates[static_cast<size_t>(r)]
            : nullptr;

    double coord_cpu = 0;

    // ---- Phase A (coordinator): prepare each site's down message. A
    //      child of the coordinator gets its own reduced, pruned view of X
    //      with its own SKLD cache; sites under aggregators share one
    //      pruned, unreduced broadcast (an aggregator would need the union
    //      of its subtree's ψ predicates). Shipping — and any re-shipping
    //      under faults — is the retry driver's job; a retried attempt
    //      re-sends the identical fragment, which is what makes rounds
    //      idempotent. ----
    std::vector<DownMessage> down(m);
    // Each slot's decoded view of X (null on plan-only rounds).
    std::vector<const Table*> views(m, nullptr);
    if (plan_only) {
      const DownMessage plan_msg{kCoordinatorId, kQueryPlanBytes, 0,
                                 base_round ? "base query plan"
                                            : "fused plan"};
      ChargeInternalDown(&network_, tree, plan_msg, &rm);
      for (size_t p = 0; p < m; ++p) {
        down[p] = plan_msg;
        down[p].from = tree.leaf_parent[p];
      }
    } else {
      obs::ScopedSpan prepare_span("round.prepare", obs::kTrackCoordinator);
      if (prepare_span.armed()) {
        prepare_span.set_detail(std::to_string(m) + " site(s)");
      }
      Stopwatch prepare_sw;
      const bool prune =
          !round->ship_cols.empty() &&
          static_cast<int>(round->ship_cols.size()) < x.schema().num_fields();
      // Encodes `to_ship` for a receiver whose cached copy is `*cache`: an
      // SKLD delta when that is strictly smaller, with the full payload
      // attached as the fallback the retry driver sends on re-ship
      // (docs/wire-format.md). The cache advances to what the shipped
      // bytes decode to — the receiver's view.
      auto ship = [&](const Table& to_ship, std::optional<Table>* cache,
                      int journal_site, const char* full_label,
                      const char* delta_label) -> Result<DownMessage> {
        std::string payload = Serializer::SerializeTable(to_ship, wire_format);
        DownMessage msg{kCoordinatorId, payload.size(), to_ship.num_rows(),
                        full_label, 0,
                        Serializer::WireSize(to_ship, WireFormat::kSkl1)};
        if (delta_enabled && cache->has_value()) {
          std::string delta = Serializer::SerializeDelta(**cache, to_ship);
          if (delta.size() < payload.size()) {
            msg.fallback_bytes = payload.size();
            msg.bytes = delta.size();
            msg.label = delta_label;
            payload = std::move(delta);
          }
        }
        Journal(obs::JournalEvent::kBaseShipped, network_.current_round(),
                journal_site, to_ship.num_rows(),
                msg.fallback_bytes > 0 ? "SKLD" : WireFormatName(wire_format),
                payload.size());
        SKALLA_ASSIGN_OR_RETURN(
            Table view, Serializer::DecodeShipment(
                            cache->has_value() ? &**cache : nullptr, payload));
        *cache = std::move(view);
        return msg;
      };
      std::vector<size_t> under_aggregator;
      for (size_t p = 0; p < m; ++p) {
        const size_t sid = static_cast<size_t>(participants[p]);
        if (tree.leaf_parent[p] != kCoordinatorId) {
          under_aggregator.push_back(p);
          continue;
        }
        // Coordinator-side group reduction (row filtering per Theorem 4)
        // and column pruning.
        const Table* to_ship = &x;
        Table reduced;
        if (ship_preds != nullptr && sid < ship_preds->size() &&
            (*ship_preds)[sid] != nullptr) {
          SKALLA_ASSIGN_OR_RETURN(
              CompiledExpr pred,
              CompiledExpr::Compile((*ship_preds)[sid], &x.schema(), nullptr));
          reduced = Table(x.schema_ptr());
          for (const Row& row : x.rows()) {
            if (pred.EvalBool(&row, nullptr)) reduced.AddRow(row);
          }
          to_ship = &reduced;
          Journal(obs::JournalEvent::kReduction, network_.current_round(),
                  participants[p], reduced.num_rows(), "", 0, x.num_rows());
        }
        Table pruned;
        if (prune) {
          SKALLA_ASSIGN_OR_RETURN(pruned, Project(*to_ship, round->ship_cols));
          to_ship = &pruned;
        }
        SKALLA_ASSIGN_OR_RETURN(down[p], ship(*to_ship, &ship_cache[sid],
                                              participants[p], "X fragment",
                                              "X delta"));
        views[p] = &*ship_cache[sid];
        holds_broadcast[sid] = false;
      }
      if (!under_aggregator.empty()) {
        Table pruned;
        if (prune) {
          SKALLA_ASSIGN_OR_RETURN(pruned, Project(x, round->ship_cols));
        }
        // A delta is only valid when every receiver holds the last
        // broadcast (partial participation can change the receivers).
        for (size_t p : under_aggregator) {
          if (!holds_broadcast[static_cast<size_t>(participants[p])]) {
            broadcast_cache.reset();
          }
        }
        // One shared view serves every site under an aggregator: journal
        // site -1 marks it.
        SKALLA_ASSIGN_OR_RETURN(
            const DownMessage msg,
            ship(prune ? pruned : x, &broadcast_cache, -1, "X broadcast",
                 "X delta broadcast"));
        ChargeInternalDown(&network_, tree, msg, &rm);
        for (size_t p : under_aggregator) {
          const size_t sid = static_cast<size_t>(participants[p]);
          down[p] = msg;
          down[p].from = tree.leaf_parent[p];
          views[p] = &*broadcast_cache;
          holds_broadcast[sid] = true;
          ship_cache[sid].reset();
        }
      }
      coord_cpu += prepare_sw.ElapsedSeconds();
    }

    // ---- Skew rebalancing (docs/skew.md): when the detector predicts a
    //      straggler for this round and its φ-twin replica is available,
    //      the replica joins the wave as a helper slot evaluating the
    //      straggler's upper detail fragment, replying to the straggler's
    //      tree parent. The split is legal for single-operator, non-fused
    //      rounds only: the two H fragments are disjoint scan covers of
    //      the same detail relation, so merging both through the Theorem 1
    //      fold below is byte-identical to the unsplit round (DESIGN.md
    //      invariant 12). ----
    std::vector<int> slot_ids = participants;
    std::vector<int> reply_to = tree.leaf_parent;
    // Per-slot detail scan windows ([0, -1) = everything) and assigned row
    // counts (for the detector's per-row feedback normalization).
    std::vector<std::pair<int64_t, int64_t>> ranges(m, {0, -1});
    std::vector<int64_t> assigned_rows(m, 0);
    int hot = -1;  // leaf index of the split straggler
    const bool splittable =
        skew_detector_ != nullptr && !plan_only && round->ops.size() == 1;
    if (splittable) {
      std::vector<int64_t> rows(m, 0);
      for (size_t p = 0; p < rows.size(); ++p) {
        Result<std::shared_ptr<const Table>> detail =
            roster.active(participants[p])
                ->catalog()
                .GetTable(round->ops[0].detail_table);
        if (detail.ok()) rows[p] = (*detail)->num_rows();
      }
      assigned_rows = rows;
      const RebalanceDecision decision =
          skew_detector_->PlanRound(participants, rows);
      const size_t hot_at = static_cast<size_t>(
          std::find(participants.begin(), participants.end(),
                    decision.hot_slot) -
          participants.begin());
      auto replica_it = replicas_.end();
      if (decision.split() && hot_at < m &&
          !roster.failed_over(decision.hot_slot)) {
        replica_it = replicas_.find(decision.hot_slot);
      }
      if (replica_it != replicas_.end() &&
          CoversPartition(replica_it->second->partition_info(),
                          roster.active(decision.hot_slot)
                              ->partition_info())) {
        const size_t p_hot = hot_at;
        hot = static_cast<int>(p_hot);
        slot_ids.push_back(roster.AddHelperSlot(
            replica_it->second, roster.active(decision.hot_slot)));
        reply_to.push_back(tree.leaf_parent[p_hot]);
        // The helper holds no cached X, so it receives the full standalone
        // payload (the delta's fallback size when the straggler got a
        // delta), flagged so its traffic lands in the rebalance surcharge
        // counters.
        const DownMessage& hot_msg = down[p_hot];
        DownMessage helper_msg{
            tree.leaf_parent[p_hot],
            hot_msg.fallback_bytes > 0 ? hot_msg.fallback_bytes
                                       : hot_msg.bytes,
            hot_msg.rows, "X fragment (rebalance)", 0, hot_msg.baseline_bytes};
        helper_msg.rebalance = true;
        down.push_back(std::move(helper_msg));
        views.push_back(views[p_hot]);
        ranges[p_hot] = {0, decision.split_at};
        ranges.push_back({decision.split_at, -1});
        assigned_rows[p_hot] = decision.split_at;
        assigned_rows.push_back(decision.rows - decision.split_at);
        rm.rebalance_splits++;
        Journal(obs::JournalEvent::kReduction, network_.current_round(),
                decision.hot_slot, decision.split_at, "rebalance split", 0,
                decision.rows);
      }
    }

    // ---- Phase B: fault-tolerant per-site exchange (ship, evaluate —
    //      fanned out over the wave's lanes — reply), retried per
    //      RetryPolicy. The lane count is sized on the unsplit
    //      participants: a helper slot rescans part of its straggler's
    //      rows, not new ones. ----
    auto eval = [&](int p, Site* site, double* cpu) -> Result<Table> {
      if (base_round) return site->EvalBase(plan.base, cpu);
      SiteRoundInput input;
      input.x = views[static_cast<size_t>(p)];
      input.base = fused_base_round ? &plan.base : nullptr;
      input.ops = &round->ops;
      input.key_attrs = &plan.key_attrs;
      input.touched_only = round->flags.independent_group_reduction;
      input.num_threads = local_threads_;
      input.detail_lo = ranges[static_cast<size_t>(p)].first;
      input.detail_hi = ranges[static_cast<size_t>(p)].second;
      return site->EvalRound(input, cpu);
    };
    const int lanes = WaveLanes(
        local_threads_, roster, participants,
        base_round ? std::vector<std::string>{plan.base.source_table}
                   : round->DetailTables());
    const char* reply_label = base_round ? "B_i" : "H_i";
    SKALLA_ASSIGN_OR_RETURN(
        std::vector<std::string> replies,
        DriveRoundWithRetries(&network_, retry, &rm, &roster, slot_ids, down,
                              reply_to, reply_label, eval, lanes,
                              wire_format));

    // Feed the measured per-slot wall times back to the detector (primary
    // slots only — a helper's timing belongs to the replica's hardware,
    // not the straggler being modelled).
    for (size_t p = 0; splittable && p < m; ++p) {
      skew_detector_->ObserveRound(participants[p], rm.site_seconds[p],
                                   assigned_rows[p]);
    }

    // ---- Phase C: merge up the tree in deterministic order. Aggregators
    //      combine their children's relations (Theorem 1, or the distinct
    //      union of the base round) and forward the encoded result; the
    //      aggregators of one level run in parallel, so a level charges
    //      the max of their decode + combine + encode seconds. The root
    //      folds its inbound relations into X in slot order and charges
    //      all of it. ----
    {
      obs::ScopedSpan sync_span("round.sync", obs::kTrackCoordinator);
      auto combine = [&](const std::vector<const Table*>& inputs) {
        return base_round ? DistinctUnion(inputs)
                          : CombineSubResults(inputs, num_key, slots);
      };
      // The encoded relation each node sends its parent — site replies
      // from the wave driver, aggregator results encoded below — and each
      // node's serialized inbound link time from aggregator children.
      std::vector<std::string> up(tree.topo.nodes.size());
      std::vector<double> inbound_sec(tree.topo.nodes.size(), 0.0);
      for (size_t p = 0; p < m; ++p) up[p] = std::move(replies[p]);
      // Decodes child `c` at its aggregator; a split straggler's helper
      // fragment is pre-combined into it, so the levels above see exactly
      // one relation per site.
      auto receive = [&](int c) -> Result<Table> {
        SKALLA_ASSIGN_OR_RETURN(
            Table t, Serializer::DeserializeTable(up[static_cast<size_t>(c)]));
        if (c != hot) return t;
        SKALLA_ASSIGN_OR_RETURN(Table helper,
                                Serializer::DeserializeTable(replies.back()));
        return combine({&t, &helper});
      };
      for (int level = 1; level < tree.topo.num_levels; ++level) {
        double level_comm = 0;
        double level_cpu = 0;
        for (int node_id : tree.topo.NodesAtLevel(level)) {
          const size_t ni = static_cast<size_t>(node_id);
          level_comm = std::max(level_comm, inbound_sec[ni]);
          if (node_id == tree.topo.root) continue;
          Stopwatch combine_sw;
          std::vector<Table> received;
          std::vector<const Table*> inputs;
          int64_t merged_rows = 0;
          for (int c : tree.topo.nodes[ni].children) {
            SKALLA_ASSIGN_OR_RETURN(Table t, receive(c));
            merged_rows += t.num_rows();
            received.push_back(std::move(t));
          }
          for (const Table& t : received) inputs.push_back(&t);
          SKALLA_ASSIGN_OR_RETURN(Table combined, combine(inputs));
          up[ni] = Serializer::SerializeTable(combined, wire_format);
          const double combine_sec = combine_sw.ElapsedSeconds();
          Journal(obs::JournalEvent::kSyncMerge, network_.current_round(),
                  EncodeAggregatorId(node_id), merged_rows, "tree", 0, 0,
                  combine_sec);
          level_cpu = std::max(level_cpu, combine_sec);
          // The hop up to the parent (aggregator hops are reliable; the
          // parent's level pays its inbound volume).
          const int parent = tree.topo.nodes[ni].parent;
          inbound_sec[static_cast<size_t>(parent)] +=
              network_
                  .Transfer(EncodeAggregatorId(node_id), tree.Endpoint(parent),
                            up[ni].size(), combined.num_rows(), reply_label, 0,
                            TransferDirection::kToCoordinator)
                  .seconds;
          rm.bytes_to_coord += up[ni].size();
          rm.groups_to_coord += combined.num_rows();
          rm.bytes_baseline_skl1 +=
              Serializer::WireSize(combined, WireFormat::kSkl1);
        }
        rm.comm_sec += level_comm;
        coord_cpu += level_cpu;
      }

      // The root's inbound relations: its children (a lone leaf is the
      // root itself) in slot order, then the helper fragment of a
      // straggler that is itself a root child.
      const std::vector<int>& children =
          tree.topo.nodes[static_cast<size_t>(tree.topo.root)].children;
      std::vector<std::pair<const std::string*, int>> inbound;
      for (int c : children.empty() ? std::vector<int>{0} : children) {
        inbound.emplace_back(&up[static_cast<size_t>(c)],
                             c < rm.sites ? participants[static_cast<size_t>(c)]
                                          : EncodeAggregatorId(c));
      }
      if (hot >= 0 &&
          tree.leaf_parent[static_cast<size_t>(hot)] == kCoordinatorId) {
        inbound.emplace_back(&replies.back(), slot_ids.back());
      }
      for (const auto& [payload, source] : inbound) {
        Stopwatch merge_sw;
        SKALLA_ASSIGN_OR_RETURN(Table h,
                                Serializer::DeserializeTable(*payload));
        for (const Row& h_row : h.rows()) {
          const std::vector<int64_t>* match = x_index.Lookup(h_row, key_cols);
          if (base_round) {  // incremental distinct union into X
            if (match == nullptr) {
              x.AddRow(h_row);
              x_index.Insert(x, x.num_rows() - 1);
            }
            continue;
          }
          int64_t row_id;
          if (match == nullptr) {
            if (!fused_base_round) {
              return Status::Internal(
                  (source >= 0 ? "site " : "aggregator endpoint ") +
                  std::to_string(source) +
                  " returned a group missing from the base-result structure");
            }
            x.AddRow(Row(h_row.begin(), h_row.begin() + num_key));
            row_id = x.num_rows() - 1;
            x_index.Insert(x, row_id);
            acc.push_back(init_acc_row());
          } else {
            row_id = match->front();
          }
          std::vector<Value>& acc_row = acc[static_cast<size_t>(row_id)];
          for (const SubSlot& slot : slots) {
            MergeSubValues(
                slot.func,
                &h_row[static_cast<size_t>(num_key + slot.offset)],
                &acc_row[static_cast<size_t>(slot.offset)]);
          }
        }
        const double merge_sec = merge_sw.ElapsedSeconds();
        coord_cpu += merge_sec;
        Journal(obs::JournalEvent::kSyncMerge, network_.current_round(), source,
                h.num_rows(), "", 0, 0, merge_sec);
      }
    }

    // ---- Finalize this round's aggregates into new X columns. ----
    if (!base_round) {
      obs::ScopedSpan finalize_span("round.finalize", obs::kTrackCoordinator);
      Stopwatch finalize_sw;
      std::vector<Field> new_fields = x.schema().fields();
      for (const SubSlot& slot : slots) new_fields.push_back(slot.final_field);
      Table new_x(MakeSchema(std::move(new_fields)));
      new_x.Reserve(x.num_rows());
      for (int64_t i = 0; i < x.num_rows(); ++i) {
        Row row = x.row(i);
        const std::vector<Value>& acc_row = acc[static_cast<size_t>(i)];
        for (const SubSlot& slot : slots) {
          row.push_back(FinalizeSubValues(
              slot.func, &acc_row[static_cast<size_t>(slot.offset)]));
        }
        new_x.AddRow(std::move(row));
      }
      x = std::move(new_x);
      x_index.Build(x, key_cols);
      coord_cpu += finalize_sw.ElapsedSeconds();
    }

    rm.coord_cpu_sec = coord_cpu;
    local_metrics.rounds.push_back(std::move(rm));
    if (!base_round) {
      ops_done += round->ops.size();
      if (round_observer_) round_observer_(ops_done, x);
    }
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

int64_t TheoremTwoGroupBound(const DistributedPlan& plan, int num_sites,
                             int64_t q_rows) {
  const int64_t s0 = plan.base_sites.empty()
                         ? num_sites
                         : static_cast<int64_t>(plan.base_sites.size());
  int64_t bound = plan.fuse_base ? 0 : s0 * q_rows;
  for (const PlanRound& round : plan.rounds) {
    const int64_t si = round.participating_sites.empty()
                           ? num_sites
                           : static_cast<int64_t>(
                                 round.participating_sites.size());
    // Each operator in the round costs at most one X shipment out and one
    // H shipment back per site; a k-op chain still ships once, so charging
    // per round keeps the bound valid (and tight for 1-op rounds).
    bound += 2 * si * q_rows;
  }
  return bound;
}

}  // namespace skalla
