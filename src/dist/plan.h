#ifndef SKALLA_DIST_PLAN_H_
#define SKALLA_DIST_PLAN_H_

#include <string>
#include <vector>

#include "gmdj/gmdj.h"

namespace skalla {

/// Per-round optimization switches.
struct RoundFlags {
  /// Distribution-independent group reduction (Proposition 1): each site
  /// returns only groups with |RNG| > 0 over the round's θ-disjunction.
  bool independent_group_reduction = false;

  /// Distribution-aware group reduction (Theorem 4): the coordinator ships
  /// to site i only σ_{¬ψ_i}(X); the ¬ψ_i predicates live in
  /// DistributedPlan::ship_predicates.
  bool aware_group_reduction = false;
};

/// \brief One synchronization round of Alg. GMDJDistribEval.
///
/// Normally a round evaluates one GMDJ operator. Under synchronization
/// reduction (Theorem 5 / Corollary 1) a round carries several consecutive
/// operators that the sites chain locally, shipping sub-aggregates for all
/// of them in a single message.
struct PlanRound {
  std::vector<GmdjOp> ops;
  RoundFlags flags;
  /// Sites participating in this round (S_MDk); empty means all sites.
  std::vector<int> participating_sites;
  /// Column pruning: the only X columns this round's sites need — the key
  /// attributes plus every base-side column referenced by the round's θs.
  /// Empty means "ship the full structure". Populated by the optimizer
  /// when column pruning is enabled; coordinators project X onto these
  /// columns (after any ship-predicate filtering) before shipping.
  std::vector<std::string> ship_cols;

  /// The detail relation each operator scans, in operator order (one entry
  /// per operator, so a chain over one relation lists it per scan).
  std::vector<std::string> DetailTables() const;
};

/// \brief A distributed evaluation plan for a GMDJ expression.
struct DistributedPlan {
  BaseQuery base;
  /// Key attributes K of the base-result structure (the base projection).
  std::vector<std::string> key_attrs;

  /// Proposition 2: when true, the base query is not synchronized as its
  /// own round — each site derives its local B_i and immediately evaluates
  /// the first round's operators on it. New keys are inserted into the
  /// base-result structure during the first round's merge.
  bool fuse_base = false;

  std::vector<PlanRound> rounds;

  /// Optional HAVING predicate over the finalized base-result structure,
  /// applied by the coordinator after the last round.
  ExprPtr having;

  /// Presentation (ORDER BY / LIMIT) applied after HAVING.
  std::vector<SortKey> order_by;
  int64_t limit = -1;

  /// ship_predicates[round][site]: the ¬ψ_i base-side predicate used to
  /// filter X before shipping to that site (null → ship everything). Only
  /// consulted when the round's aware_group_reduction flag is set.
  std::vector<std::vector<ExprPtr>> ship_predicates;

  /// Sites participating in the base-query computation (S_B); empty → all.
  std::vector<int> base_sites;

  /// Total number of GMDJ operators across rounds.
  size_t NumOps() const;

  /// Reconstructs the (coalesced) GMDJ expression this plan evaluates;
  /// useful for schema computation and for correctness cross-checks.
  GmdjExpr ToExpr() const;

  /// Human-readable plan rendering (rounds, flags, ship predicates).
  std::string Explain() const;
};

/// Builds the unoptimized plan: one round per GMDJ operator, a synchronized
/// base round, no reductions (the paper's baseline Alg. GMDJDistribEval).
DistributedPlan MakeNaivePlan(const GmdjExpr& expr);

}  // namespace skalla

#endif  // SKALLA_DIST_PLAN_H_
