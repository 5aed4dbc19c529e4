#include "gmdj/central_eval.h"

#include "engine/operators.h"
#include "expr/evaluator.h"
#include "gmdj/local_eval.h"

namespace skalla {

Result<Table> EvalBaseQuery(const BaseQuery& base, const Table& source) {
  if (base.filter == nullptr) {
    return base.distinct ? DistinctProject(source, base.project_cols)
                         : Project(source, base.project_cols);
  }
  // The filtered relation is transient: the typed δπ would snapshot all of
  // its columns only to read the key columns once.
  SKALLA_ASSIGN_OR_RETURN(Table filtered, Filter(source, base.filter));
  return base.distinct ? DistinctProjectRowPath(filtered, base.project_cols)
                       : Project(filtered, base.project_cols);
}

Result<Table> EvalGmdjExprCentralized(const GmdjExpr& expr,
                                      const Catalog& catalog,
                                      int num_threads) {
  SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> source,
                          catalog.GetTable(expr.base.source_table));
  SKALLA_ASSIGN_OR_RETURN(Table x, EvalBaseQuery(expr.base, *source));
  for (const GmdjOp& op : expr.ops) {
    SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> detail,
                            catalog.GetTable(op.detail_table));
    LocalGmdjOptions options;
    options.mode = AggMode::kFinal;
    options.num_threads = num_threads;
    SKALLA_ASSIGN_OR_RETURN(x, EvalGmdjOp(x, *detail, op, options));
  }
  if (expr.having != nullptr) {
    SKALLA_ASSIGN_OR_RETURN(
        CompiledExpr having,
        CompiledExpr::Compile(expr.having, &x.schema(), nullptr));
    Table filtered(x.schema_ptr());
    for (const Row& row : x.rows()) {
      if (having.EvalBool(&row, nullptr)) filtered.AddRow(row);
    }
    x = std::move(filtered);
  }
  if (!expr.order_by.empty()) {
    SKALLA_ASSIGN_OR_RETURN(x, SortedByKeys(x, expr.order_by));
  }
  if (expr.limit >= 0) {
    x = Limit(x, expr.limit);
  }
  return x;
}

}  // namespace skalla
