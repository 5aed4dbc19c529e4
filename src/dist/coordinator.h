#ifndef SKALLA_DIST_COORDINATOR_H_
#define SKALLA_DIST_COORDINATOR_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "dist/metrics.h"
#include "dist/plan.h"
#include "dist/rebalance.h"
#include "dist/site.h"
#include "net/sim_network.h"

namespace skalla {

/// Nominal wire size of a shipped query plan (control message).
inline constexpr size_t kQueryPlanBytes = 512;

/// \brief The Skalla coordinator: drives Alg. GMDJDistribEval.
///
/// One round engine serves every topology. The coordinator owns the
/// simulated network and the base-result structure X, and is the root of
/// each round's aggregation tree (dist/tree_topology.h) over the round's
/// participating sites. For each round it ships X down the tree, the sites
/// evaluate their sub-aggregate relations H_i, aggregators merge their
/// children's relations (Theorem 1 composes at every level), and the root
/// synchronizes its inbound relations into X via the super-aggregates. The
/// merge is O(|H|) thanks to a hash index on the key attributes K.
///
/// With the default fan-in (0) the tree has depth 1 — the flat
/// coordinator of the paper: every site exchanges directly with the
/// coordinator and receives its own group-reduced view of X (Theorem 4).
/// With a fan-in of at least 2 that is smaller than a round's site count,
/// aggregators sit between the sites and the root; they receive the
/// unreduced X, encoded once and forwarded down each internal edge.
/// Results are identical for every fan-in; only the cost profile differs.
///
/// Sites are borrowed, not owned; they must outlive the coordinator.
class Coordinator {
 public:
  /// `fan_in` is the aggregation tree's fan-in: 0 = flat, as is any
  /// fan-in below 2 or of at least a round's site count.
  Coordinator(std::vector<Site*> sites, NetworkConfig config = NetworkConfig(),
              int fan_in = 0)
      : sites_(std::move(sites)), network_(config), fan_in_(fan_in) {}

  /// Executes a distributed plan and returns the finalized base-result
  /// structure (= the query answer). Fills `metrics` when non-null.
  Result<Table> Execute(const DistributedPlan& plan,
                        ExecutionMetrics* metrics);

  /// The simulated network all traffic is recorded on. Site edges are
  /// subject to an attached FaultInjector and retried per
  /// NetworkConfig::retry; aggregator-internal hops are assumed reliable
  /// (they carry EncodeAggregatorId endpoints).
  SimNetwork& network() { return network_; }

  /// Registers `replica` as the failover target for primary slot
  /// `site_id`. When the primary exhausts its retry budget during a query,
  /// the slot fails over (at most once) to the replica — provided the
  /// replica's partition predicate covers the primary's (see
  /// CoversPartition); otherwise the query returns kUnavailable. The
  /// replica is borrowed and must outlive the coordinator.
  void AddReplica(int site_id, Site* replica) {
    replicas_[site_id] = replica;
  }

  /// The query's lane quota: 0 = the SKALLA_THREADS default, 1 = fully
  /// sequential. One quota bounds both levels of parallelism on the shared
  /// pool (common/thread_pool.h): a round's site waves fan out over at most
  /// this many lanes when they scan at least one morsel of rows (WaveLanes
  /// in dist/fault_tolerance.h), and each site's morsel-driven local GMDJ
  /// evaluation (SiteRoundInput::num_threads) passes the same cap. Results
  /// and bytes are identical for every quota (docs/parallelism.md).
  void set_local_threads(int num_threads) { local_threads_ = num_threads; }

  /// Cooperative per-query cancellation (borrowed flag, may be null): the
  /// coordinator polls it at round boundaries and aborts the query with a
  /// typed kCancelled status when it is set. In-flight site work of the
  /// current round is never interrupted — rounds stay atomic, so a
  /// cancelled query leaves no partial state anywhere.
  void set_cancel_flag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Observer invoked after each GMDJ round finalizes, with the number of
  /// *operators* evaluated so far and the base-result structure X at that
  /// point (before HAVING / presentation). The server's cross-query cache
  /// uses this to capture prefix results (src/server/result_cache.h).
  /// Called on the coordinator thread; must not mutate the table.
  using RoundObserver = std::function<void(size_t ops_done, const Table& x)>;
  void set_round_observer(RoundObserver observer) {
    round_observer_ = std::move(observer);
  }

  /// Resumes evaluation from a cached base-result structure instead of
  /// computing the base query and the first `rounds_done` plan rounds:
  /// `x` (borrowed; must outlive Execute) is exactly the X a fresh
  /// execution of this plan would hold after those rounds. Because every
  /// round is a deterministic function of the incoming X and the site
  /// partitions, the resumed execution is byte-identical to a full one
  /// (docs/server.md). The X schema is validated against the plan before
  /// use. Pass nullptr / 0 to clear.
  void set_resume(const Table* x, size_t rounds_done) {
    resume_x_ = x;
    resume_rounds_ = rounds_done;
  }

  /// Shares the SKLD delta-base cache across queries (borrowed; may be
  /// null to keep the default per-query cache). The cache mirrors what
  /// each site slot last received of X as a child of the coordinator (a
  /// site under an aggregator drops its entry: it holds the tree's
  /// broadcast view, whose delta base is per query); with delta shipping
  /// enabled, consecutive queries over slowly-changing base structures
  /// then ship deltas from the first round instead of re-priming per
  /// query. Query
  /// *results* are unaffected — the decoded site view always equals the
  /// shipped fragment, delta or full (DESIGN.md invariant 10) — only
  /// bytes on the wire change. The caller owns synchronization: the cache
  /// must not be used by two executions at once, and must be cleared when
  /// site data mutates under a different coordinator.
  void set_ship_cache(std::vector<std::optional<Table>>* cache) {
    external_ship_cache_ = cache;
  }

  /// Attaches a skew detector (borrowed, may be null to disable): before
  /// each eligible GMDJ round the coordinator asks it to plan a
  /// rebalancing split over the per-slot detail row counts, and after each
  /// round feeds back the measured per-slot wall timings. When the
  /// detector proposes a split and the hot slot has a φ-covering replica
  /// registered (AddReplica), the replica joins the round as a helper slot
  /// evaluating the straggler's upper detail fragment; the two H
  /// fragments merge through the same Theorem 1 fold, byte-identical to
  /// the unsplit round (DESIGN.md invariant 12, docs/skew.md). Only
  /// single-operator, non-fused rounds are split. A helper replies to its
  /// straggler's tree parent; an aggregator pre-combines the two fragments
  /// (CombineSubResults), so the levels above see one relation per site.
  void set_skew_detector(SkewDetector* detector) { skew_detector_ = detector; }

  /// Looks up a relation schema from the first site that holds a partition
  /// of it (all sites share global relation schemas).
  Result<SchemaPtr> FindSchema(const std::string& table_name) const;

  /// Builds the schema map for a plan's relations (base source + details).
  Result<SchemaMap> CollectSchemas(const DistributedPlan& plan) const;

 private:
  /// kCancelled when the attached cancel flag is set.
  Status CheckCancelled() const;

  std::vector<Site*> sites_;
  std::map<int, Site*> replicas_;
  SimNetwork network_;
  int fan_in_ = 0;  ///< aggregation-tree fan-in; 0 = flat (depth 1)
  int local_threads_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;
  RoundObserver round_observer_;
  const Table* resume_x_ = nullptr;
  size_t resume_rounds_ = 0;
  std::vector<std::optional<Table>>* external_ship_cache_ = nullptr;
  SkewDetector* skew_detector_ = nullptr;
};

/// Theorem 2's bound on groups transferred by Alg. GMDJDistribEval:
/// Σ_rounds (2 · s_i · |Q|) + s_0 · |Q|, with |Q| = `q_rows` result rows.
/// Any execution's GroupsToSites()+GroupsToCoord() must not exceed it.
int64_t TheoremTwoGroupBound(const DistributedPlan& plan, int num_sites,
                             int64_t q_rows);

}  // namespace skalla

#endif  // SKALLA_DIST_COORDINATOR_H_
