#include "dist/plan.h"

#include <sstream>

#include "common/string_util.h"

namespace skalla {

std::vector<std::string> PlanRound::DetailTables() const {
  std::vector<std::string> tables;
  tables.reserve(ops.size());
  for (const GmdjOp& op : ops) tables.push_back(op.detail_table);
  return tables;
}

size_t DistributedPlan::NumOps() const {
  size_t n = 0;
  for (const PlanRound& round : rounds) n += round.ops.size();
  return n;
}

GmdjExpr DistributedPlan::ToExpr() const {
  GmdjExpr expr;
  expr.base = base;
  expr.having = having;
  expr.order_by = order_by;
  expr.limit = limit;
  for (const PlanRound& round : rounds) {
    expr.ops.insert(expr.ops.end(), round.ops.begin(), round.ops.end());
  }
  return expr;
}

std::string DistributedPlan::Explain() const {
  std::ostringstream os;
  os << "DistributedPlan\n";
  os << "  base: pi_{" << Join(key_attrs, ",") << "}(" << base.source_table
     << ")";
  if (base.filter != nullptr) {
    os << " where " << base.filter->ToString();
  }
  os << (fuse_base ? "  [fused into round 1, Prop. 2]" : "  [synchronized]")
     << "\n";
  for (size_t r = 0; r < rounds.size(); ++r) {
    const PlanRound& round = rounds[r];
    os << "  round " << (r + 1) << ": " << round.ops.size() << " GMDJ op"
       << (round.ops.size() == 1 ? "" : "s (sync-reduced chain)");
    std::vector<std::string> flags;
    if (round.flags.independent_group_reduction) {
      flags.push_back("indep-group-reduction");
    }
    if (round.flags.aware_group_reduction) {
      flags.push_back("aware-group-reduction");
    }
    if (!flags.empty()) os << "  [" << Join(flags, ", ") << "]";
    os << "\n";
    for (const GmdjOp& op : round.ops) {
      os << "    MD over " << op.detail_table << " with " << op.blocks.size()
         << " block(s):";
      for (const GmdjBlock& block : op.blocks) {
        std::vector<std::string> aggs;
        for (const AggSpec& spec : block.aggs) aggs.push_back(spec.ToString());
        os << "\n      (" << Join(aggs, ", ") << ") when "
           << block.theta->ToString();
      }
      os << "\n";
    }
    if (r < ship_predicates.size()) {
      for (size_t s = 0; s < ship_predicates[r].size(); ++s) {
        if (ship_predicates[r][s] != nullptr) {
          os << "    ship to site " << s << " only when "
             << ship_predicates[r][s]->ToString() << "\n";
        }
      }
    }
  }
  return os.str();
}

DistributedPlan MakeNaivePlan(const GmdjExpr& expr) {
  DistributedPlan plan;
  plan.base = expr.base;
  plan.having = expr.having;
  plan.order_by = expr.order_by;
  plan.limit = expr.limit;
  plan.key_attrs = expr.base.project_cols;
  plan.fuse_base = false;
  for (const GmdjOp& op : expr.ops) {
    PlanRound round;
    round.ops.push_back(op);
    plan.rounds.push_back(std::move(round));
  }
  return plan;
}

}  // namespace skalla
