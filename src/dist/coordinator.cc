#include "dist/coordinator.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/logging.h"
#include "common/stopwatch.h"
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

namespace {

std::vector<int> AllSiteIds(const std::vector<Site*>& sites) {
  std::vector<int> ids(sites.size());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
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
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr base_schema,
                          FindSchema(plan.base.source_table));
  schemas[plan.base.source_table] = base_schema;
  for (const PlanRound& round : plan.rounds) {
    for (const GmdjOp& op : round.ops) {
      if (schemas.count(op.detail_table)) continue;
      SKALLA_ASSIGN_OR_RETURN(SchemaPtr s, FindSchema(op.detail_table));
      schemas[op.detail_table] = s;
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
                          " site(s)");
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
  // What each site slot last received of X (fused rounds ship only a plan
  // and leave the cache untouched). Deltas in later rounds are encoded
  // against this, mirroring the site's cached copy. With an attached
  // external cache the mirror survives the query, so the next query's
  // first ship can already go out as a delta.
  std::vector<std::optional<Table>> private_ship_cache;
  if (external_ship_cache_ != nullptr) {
    external_ship_cache_->resize(sites_.size());
  } else {
    private_ship_cache.resize(sites_.size());
  }
  std::vector<std::optional<Table>>& ship_cache =
      external_ship_cache_ != nullptr ? *external_ship_cache_
                                      : private_ship_cache;

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

  // ---- Round 0: base-values query (unless fused per Prop. 2). ----
  if (!plan.fuse_base && !resuming) {
    network_.BeginRound("base");
    obs::ScopedSpan round_span("round.base", obs::kTrackCoordinator);
    RoundMetrics rm;
    rm.label = "base query";
    rm.streaming = network_.config().streaming_sync;
    const std::vector<int> base_sites =
        plan.base_sites.empty() ? AllSiteIds(sites_) : plan.base_sites;
    rm.sites = static_cast<int>(base_sites.size());
    const std::vector<DownMessage> down(
        base_sites.size(),
        DownMessage{kCoordinatorId, kQueryPlanBytes, 0, "base query plan"});
    const std::vector<int> reply_to(base_sites.size(), kCoordinatorId);
    auto eval = [&plan](int /*p*/, Site* site, double* cpu) {
      return site->EvalBase(plan.base, cpu);
    };
    const int lanes = WaveLanes(local_threads_, roster, base_sites,
                                {plan.base.source_table});
    SKALLA_ASSIGN_OR_RETURN(
        std::vector<std::string> replies,
        DriveRoundWithRetries(&network_, retry, &rm, &roster, base_sites,
                              down, reply_to, "B_i", eval, lanes,
                              LinkModel::kSharedLink, wire_format));
    double coord_cpu = 0;
    for (size_t p = 0; p < replies.size(); ++p) {
      const std::string& payload = replies[p];
      Stopwatch sw;
      SKALLA_ASSIGN_OR_RETURN(Table received,
                              Serializer::DeserializeTable(payload));
      // Incremental distinct union into X.
      for (const Row& row : received.rows()) {
        if (x_index.Lookup(row, key_cols) == nullptr) {
          x.AddRow(row);
          x_index.Insert(x, x.num_rows() - 1);
        }
      }
      const double merge_sec = sw.ElapsedSeconds();
      coord_cpu += merge_sec;
      if (obs::JournalEnabled()) {
        obs::JournalRecord jr;
        jr.event = obs::JournalEvent::kSyncMerge;
        jr.round = network_.current_round();
        jr.site = base_sites[p];
        jr.rows = received.num_rows();
        jr.seconds = merge_sec;
        obs::JournalAppend(std::move(jr));
      }
    }
    rm.coord_cpu_sec = coord_cpu;
    local_metrics.rounds.push_back(std::move(rm));
  }

  // ---- GMDJ rounds. ----
  for (size_t r = resuming ? resume_rounds_ : 0; r < plan.rounds.size();
       ++r) {
    const PlanRound& round = plan.rounds[r];
    SKALLA_RETURN_NOT_OK(CheckCancelled());
    network_.BeginRound("gmdj round " + std::to_string(r + 1));
    obs::ScopedSpan round_span("round.gmdj", obs::kTrackCoordinator);
    if (round_span.armed()) {
      round_span.set_detail("round " + std::to_string(r + 1));
    }
    RoundMetrics rm;
    rm.streaming = network_.config().streaming_sync;
    rm.label = round.ops.size() == 1
                   ? "gmdj round " + std::to_string(r + 1)
                   : "gmdj round " + std::to_string(r + 1) + " (chain of " +
                         std::to_string(round.ops.size()) + ")";
    const std::vector<int> participants = round.participating_sites.empty()
                                              ? AllSiteIds(sites_)
                                              : round.participating_sites;
    rm.sites = static_cast<int>(participants.size());
    const bool fused_base_round = plan.fuse_base && r == 0;

    // Sub-aggregate layout of this round's H relations.
    int sub_width = 0;
    SKALLA_ASSIGN_OR_RETURN(std::vector<SubSlot> slots,
                            BuildSubSlots(round.ops, schemas, &sub_width));

    // Per-X-row sub-aggregate accumulators, initialized to the identities.
    std::vector<std::vector<Value>> acc(static_cast<size_t>(x.num_rows()));
    auto init_acc_row = [&slots, sub_width]() {
      std::vector<Value> row(static_cast<size_t>(sub_width));
      for (const SubSlot& slot : slots) {
        InitSubValues(slot.func, &row[static_cast<size_t>(slot.offset)]);
      }
      return row;
    };
    for (auto& row : acc) row = init_acc_row();

    // Compile per-site ship predicates when aware group reduction is on.
    std::vector<std::optional<CompiledExpr>> ship(sites_.size());
    if (round.flags.aware_group_reduction && r < plan.ship_predicates.size()) {
      for (size_t s = 0;
           s < plan.ship_predicates[r].size() && s < sites_.size(); ++s) {
        const ExprPtr& pred = plan.ship_predicates[r][s];
        if (pred == nullptr) continue;
        SKALLA_ASSIGN_OR_RETURN(
            CompiledExpr compiled,
            CompiledExpr::Compile(pred, &x.schema(), nullptr));
        ship[s] = std::move(compiled);
      }
    }

    double coord_cpu = 0;

    // ---- Phase A (coordinator): reduce, prune, and serialize each site's
    //      view of X. Shipping — and any re-shipping under faults — is the
    //      retry driver's job; a retried attempt re-sends the identical
    //      fragment, which is what makes rounds idempotent. ----
    std::optional<obs::ScopedSpan> prepare_span;
    if (!fused_base_round) {
      prepare_span.emplace("round.prepare", obs::kTrackCoordinator);
    }
    std::vector<Table> site_views(participants.size());
    std::vector<DownMessage> down(participants.size());
    for (size_t p = 0; p < participants.size(); ++p) {
      const int sid = participants[p];
      if (fused_base_round) {
        down[p] = DownMessage{kCoordinatorId, kQueryPlanBytes, 0,
                              "fused plan"};
        continue;
      }
      // Coordinator-side group reduction (row filtering per Theorem 4)
      // and column pruning.
      Stopwatch filter_sw;
      const Table* to_ship = &x;
      Table reduced;
      if (ship[static_cast<size_t>(sid)].has_value()) {
        const CompiledExpr& pred = *ship[static_cast<size_t>(sid)];
        reduced = Table(x.schema_ptr());
        for (const Row& row : x.rows()) {
          if (pred.EvalBool(&row, nullptr)) reduced.AddRow(row);
        }
        to_ship = &reduced;
        if (obs::JournalEnabled()) {
          obs::JournalRecord jr;
          jr.event = obs::JournalEvent::kReduction;
          jr.round = network_.current_round();
          jr.site = sid;
          jr.rows_before = x.num_rows();
          jr.rows = reduced.num_rows();
          obs::JournalAppend(std::move(jr));
        }
      }
      Table pruned;
      if (!round.ship_cols.empty() &&
          static_cast<int>(round.ship_cols.size()) < x.schema().num_fields()) {
        SKALLA_ASSIGN_OR_RETURN(pruned, Project(*to_ship, round.ship_cols));
        to_ship = &pruned;
      }
      const int64_t shipped_rows = to_ship->num_rows();
      std::string full_payload =
          Serializer::SerializeTable(*to_ship, wire_format);
      const size_t baseline =
          Serializer::WireSize(*to_ship, WireFormat::kSkl1);
      std::optional<Table>& cached = ship_cache[static_cast<size_t>(sid)];
      // Ship an SKLD delta against what the site already holds whenever it
      // is strictly smaller; the full payload stays attached as the
      // fallback the retry driver sends on re-ship (docs/wire-format.md).
      std::string payload;
      size_t fallback = 0;
      std::string label = "X fragment";
      if (delta_enabled && cached.has_value()) {
        std::string delta = Serializer::SerializeDelta(*cached, *to_ship);
        if (delta.size() < full_payload.size()) {
          payload = std::move(delta);
          fallback = full_payload.size();
          label = "X delta";
        }
      }
      if (fallback == 0) payload = std::move(full_payload);
      if (obs::JournalEnabled()) {
        obs::JournalRecord jr;
        jr.event = obs::JournalEvent::kBaseShipped;
        jr.round = network_.current_round();
        jr.site = sid;
        jr.bytes = payload.size();
        jr.rows = shipped_rows;
        jr.label = fallback > 0 ? "SKLD" : WireFormatName(wire_format);
        obs::JournalAppend(std::move(jr));
      }
      down[p] = DownMessage{kCoordinatorId, payload.size(), shipped_rows,
                            std::move(label), fallback, baseline};
      // The site's view is what the shipped bytes decode to — against its
      // cache for a delta, standalone otherwise.
      SKALLA_ASSIGN_OR_RETURN(
          site_views[p],
          Serializer::DecodeShipment(cached ? &*cached : nullptr, payload));
      cached = site_views[p];
      coord_cpu += filter_sw.ElapsedSeconds();
    }
    if (prepare_span.has_value()) {
      if (prepare_span->armed()) {
        prepare_span->set_detail(std::to_string(participants.size()) +
                                 " fragment(s)");
      }
      prepare_span.reset();
    }

    // ---- Skew rebalancing (docs/skew.md): when the detector predicts a
    //      straggler for this round and its φ-twin replica is available,
    //      the replica joins the wave as a helper slot evaluating the
    //      straggler's upper detail fragment. The split is legal for
    //      single-operator, non-fused rounds only: the two H fragments are
    //      disjoint scan covers of the same detail relation, so merging
    //      both through the Theorem 1 fold below is byte-identical to the
    //      unsplit round (DESIGN.md invariant 12). ----
    std::vector<int> drive_participants = participants;
    // Per-slot detail scan windows ([0, -1) = everything) and assigned row
    // counts (for the detector's per-row feedback normalization).
    std::vector<std::pair<int64_t, int64_t>> ranges(participants.size(),
                                                    {0, -1});
    std::vector<int64_t> assigned_rows(participants.size(), 0);
    const bool splittable = skew_detector_ != nullptr && !fused_base_round &&
                            round.ops.size() == 1;
    if (splittable) {
      std::vector<int64_t> rows(participants.size(), 0);
      for (size_t p = 0; p < participants.size(); ++p) {
        Result<std::shared_ptr<const Table>> detail =
            roster.active(participants[p])
                ->catalog()
                .GetTable(round.ops[0].detail_table);
        if (detail.ok()) rows[p] = (*detail)->num_rows();
      }
      assigned_rows = rows;
      const RebalanceDecision decision =
          skew_detector_->PlanRound(participants, rows);
      const auto hot_at = decision.split()
                              ? std::find(participants.begin(),
                                          participants.end(),
                                          decision.hot_slot) -
                                    participants.begin()
                              : static_cast<std::ptrdiff_t>(0);
      auto replica_it = replicas_.end();
      if (decision.split() &&
          hot_at < static_cast<std::ptrdiff_t>(participants.size()) &&
          !roster.failed_over(decision.hot_slot)) {
        replica_it = replicas_.find(decision.hot_slot);
      }
      if (replica_it != replicas_.end() &&
          CoversPartition(replica_it->second->partition_info(),
                          roster.active(decision.hot_slot)
                              ->partition_info())) {
        const size_t p_hot = static_cast<size_t>(hot_at);
        const int helper_sid = roster.AddHelperSlot(
            replica_it->second, roster.active(decision.hot_slot));
        drive_participants.push_back(helper_sid);
        // The helper gets its own full (never delta — it holds no cached
        // X) copy of the straggler's fragment, flagged so its traffic
        // lands in the rebalance surcharge counters.
        std::string helper_payload =
            Serializer::SerializeTable(site_views[p_hot], wire_format);
        DownMessage helper_msg{
            kCoordinatorId, helper_payload.size(),
            site_views[p_hot].num_rows(), "X fragment (rebalance)", 0,
            Serializer::WireSize(site_views[p_hot], WireFormat::kSkl1)};
        helper_msg.rebalance = true;
        down.push_back(std::move(helper_msg));
        site_views.push_back(site_views[p_hot]);
        ranges[p_hot] = {0, decision.split_at};
        ranges.push_back({decision.split_at, -1});
        assigned_rows[p_hot] = decision.split_at;
        assigned_rows.push_back(decision.rows - decision.split_at);
        rm.rebalance_splits++;
        if (obs::JournalEnabled()) {
          obs::JournalRecord jr;
          jr.event = obs::JournalEvent::kReduction;
          jr.round = network_.current_round();
          jr.site = decision.hot_slot;
          jr.rows_before = decision.rows;
          jr.rows = decision.split_at;
          jr.label = "rebalance split";
          obs::JournalAppend(std::move(jr));
        }
      }
    }

    // ---- Phase B: fault-tolerant per-site exchange (ship, evaluate —
    //      fanned out over the wave's lanes — reply), retried per
    //      RetryPolicy. The lane count is sized on the unsplit
    //      participants: a helper slot rescans part of its straggler's
    //      rows, not new ones. ----
    const std::vector<int> reply_to(drive_participants.size(),
                                    kCoordinatorId);
    auto eval = [&](int p, Site* site, double* cpu) {
      SiteRoundInput input;
      input.x = fused_base_round ? nullptr
                                 : &site_views[static_cast<size_t>(p)];
      input.base = fused_base_round ? &plan.base : nullptr;
      input.ops = &round.ops;
      input.key_attrs = &plan.key_attrs;
      input.touched_only = round.flags.independent_group_reduction;
      input.num_threads = local_threads_;
      input.detail_lo = ranges[static_cast<size_t>(p)].first;
      input.detail_hi = ranges[static_cast<size_t>(p)].second;
      return site->EvalRound(input, cpu);
    };
    const int lanes = WaveLanes(local_threads_, roster, participants,
                                round.DetailTables());
    SKALLA_ASSIGN_OR_RETURN(
        std::vector<std::string> replies,
        DriveRoundWithRetries(&network_, retry, &rm, &roster,
                              drive_participants, down, reply_to, "H_i",
                              eval, lanes, LinkModel::kSharedLink,
                              wire_format));

    // Feed the measured per-slot wall times back to the detector (primary
    // slots only — a helper's timing belongs to the replica's hardware,
    // not the straggler being modelled).
    if (splittable) {
      for (size_t p = 0; p < participants.size(); ++p) {
        if (p < rm.site_seconds.size()) {
          skew_detector_->ObserveRound(participants[p], rm.site_seconds[p],
                                       assigned_rows[p]);
        }
      }
    }

    // ---- Phase C (coordinator): synchronize (Theorem 1) in
    //      deterministic site order. ----
    std::optional<obs::ScopedSpan> sync_span;
    sync_span.emplace("round.sync", obs::kTrackCoordinator);
    for (size_t p = 0; p < drive_participants.size(); ++p) {
      const int sid = drive_participants[p];
      Stopwatch merge_sw;
      SKALLA_ASSIGN_OR_RETURN(Table h,
                              Serializer::DeserializeTable(replies[p]));
      for (const Row& h_row : h.rows()) {
        const std::vector<int64_t>* match = x_index.Lookup(h_row, key_cols);
        int64_t row_id;
        if (match == nullptr) {
          if (!fused_base_round) {
            return Status::Internal(
                "site " + std::to_string(sid) +
                " returned a group missing from the base-result structure");
          }
          Row key_row(h_row.begin(), h_row.begin() + num_key);
          x.AddRow(std::move(key_row));
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
      if (obs::JournalEnabled()) {
        obs::JournalRecord jr;
        jr.event = obs::JournalEvent::kSyncMerge;
        jr.round = network_.current_round();
        jr.site = sid;
        jr.rows = h.num_rows();
        jr.seconds = merge_sec;
        obs::JournalAppend(std::move(jr));
      }
    }
    sync_span.reset();

    // ---- Finalize this round's aggregates into new X columns. ----
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

    rm.coord_cpu_sec = coord_cpu;
    local_metrics.rounds.push_back(std::move(rm));

    ops_done += round.ops.size();
    if (round_observer_) round_observer_(ops_done, x);
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
