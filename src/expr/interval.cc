#include "expr/interval.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "expr/analyzer.h"

namespace skalla {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Interval Interval::All() { return Interval{-kInf, kInf}; }

Interval Interval::Negate() const { return Interval{-hi, -lo}; }

Interval Interval::Add(const Interval& other) const {
  return Interval{lo + other.lo, hi + other.hi};
}

Interval Interval::Sub(const Interval& other) const {
  return Interval{lo - other.hi, hi - other.lo};
}

Interval Interval::Mul(const Interval& other) const {
  const double candidates[] = {lo * other.lo, lo * other.hi, hi * other.lo,
                               hi * other.hi};
  double out_lo = kInf;
  double out_hi = -kInf;
  for (double c : candidates) {
    if (std::isnan(c)) {
      // 0 * inf; treat conservatively as unbounded.
      return All();
    }
    out_lo = std::min(out_lo, c);
    out_hi = std::max(out_hi, c);
  }
  return Interval{out_lo, out_hi};
}

Interval Interval::Div(const Interval& other) const {
  if (other.Contains(0.0)) return All();
  const double candidates[] = {lo / other.lo, lo / other.hi, hi / other.lo,
                               hi / other.hi};
  double out_lo = kInf;
  double out_hi = -kInf;
  for (double c : candidates) {
    if (std::isnan(c)) return All();
    out_lo = std::min(out_lo, c);
    out_hi = std::max(out_hi, c);
  }
  return Interval{out_lo, out_hi};
}

std::string Interval::ToString() const {
  return StrFormat("[%g, %g]", lo, hi);
}

std::optional<Interval> DetailInterval(const ExprPtr& expr,
                                       const PartitionInfo& site) {
  switch (expr->kind()) {
    case ExprKind::kColumn: {
      const auto& col = static_cast<const ColumnExpr&>(*expr);
      if (col.side() != Side::kDetail) return std::nullopt;
      double lo = 0;
      double hi = 0;
      if (!site.Domain(col.name()).NumericBounds(&lo, &hi)) {
        return std::nullopt;
      }
      return Interval{lo, hi};
    }
    case ExprKind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(*expr);
      if (!lit.value().is_numeric()) return std::nullopt;
      return Interval::Point(lit.value().ToDouble());
    }
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(*expr);
      if (un.op() != UnaryOp::kNeg) return std::nullopt;
      auto operand = DetailInterval(un.operand(), site);
      if (!operand) return std::nullopt;
      return operand->Negate();
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(*expr);
      if (!IsArithmetic(bin.op())) return std::nullopt;
      auto l = DetailInterval(bin.left(), site);
      auto r = DetailInterval(bin.right(), site);
      if (!l || !r) return std::nullopt;
      switch (bin.op()) {
        case BinaryOp::kAdd:
          return l->Add(*r);
        case BinaryOp::kSub:
          return l->Sub(*r);
        case BinaryOp::kMul:
          return l->Mul(*r);
        case BinaryOp::kDiv:
          return l->Div(*r);
        default:
          return std::nullopt;  // kMod: no interval rule implemented
      }
    }
  }
  return std::nullopt;
}

namespace {

/// Finite interval endpoints become literals; infinite sides are dropped by
/// the caller.
ExprPtr NumLit(double v) {
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    return Lit(Value(static_cast<int64_t>(v)));
  }
  return Lit(Value(v));
}

/// Maximum value-set size expanded into an explicit membership disjunction
/// (beyond this, the range relaxation is used).
constexpr size_t kMaxInlineSet = 16;

/// Relaxes an atom cmp(base_expr, detail_interval) into a base-only bound.
ExprPtr RelaxComparison(BinaryOp op, const ExprPtr& base_expr,
                        const Interval& iv) {
  std::vector<ExprPtr> bounds;
  switch (op) {
    case BinaryOp::kEq:
      if (iv.lo != -kInf) bounds.push_back(Ge(base_expr, NumLit(iv.lo)));
      if (iv.hi != kInf) bounds.push_back(Le(base_expr, NumLit(iv.hi)));
      break;
    case BinaryOp::kLt:
      if (iv.hi != kInf) bounds.push_back(Lt(base_expr, NumLit(iv.hi)));
      break;
    case BinaryOp::kLe:
      if (iv.hi != kInf) bounds.push_back(Le(base_expr, NumLit(iv.hi)));
      break;
    case BinaryOp::kGt:
      if (iv.lo != -kInf) bounds.push_back(Gt(base_expr, NumLit(iv.lo)));
      break;
    case BinaryOp::kGe:
      if (iv.lo != -kInf) bounds.push_back(Ge(base_expr, NumLit(iv.lo)));
      break;
    case BinaryOp::kNe:
    default:
      break;
  }
  return AndAll(bounds);
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // kEq / kNe symmetric
  }
}

/// True if the pure-detail comparison atom is refutable under φ: no detail
/// tuple at the site can satisfy it.
bool RefutablePureDetail(BinaryOp op, const Interval& l, const Interval& r) {
  switch (op) {
    case BinaryOp::kEq:
      return l.hi < r.lo || r.hi < l.lo;
    case BinaryOp::kLt:
      return l.lo >= r.hi;
    case BinaryOp::kLe:
      return l.lo > r.hi;
    case BinaryOp::kGt:
      return l.hi <= r.lo;
    case BinaryOp::kGe:
      return l.hi < r.lo;
    default:
      return false;
  }
}

class Relaxer {
 public:
  explicit Relaxer(const PartitionInfo& site) : site_(site) {}

  /// Returns a base-only over-approximation of ∃r(φ ∧ expr(b, r)).
  ExprPtr Relax(const ExprPtr& expr) {
    if (expr->kind() == ExprKind::kBinary) {
      const auto& bin = static_cast<const BinaryExpr&>(*expr);
      if (bin.op() == BinaryOp::kAnd) {
        return And(Relax(bin.left()), Relax(bin.right()));
      }
      if (bin.op() == BinaryOp::kOr) {
        return Or(Relax(bin.left()), Relax(bin.right()));
      }
      if (IsComparison(bin.op())) {
        return RelaxAtom(bin);
      }
    }
    // Pure-base subformulas pass through unchanged.
    if (!ReferencesSide(expr, Side::kDetail)) return expr;
    return True();
  }

 private:
  ExprPtr RelaxAtom(const BinaryExpr& atom) {
    const ExprPtr& l = atom.left();
    const ExprPtr& r = atom.right();
    const bool l_has_detail = ReferencesSide(l, Side::kDetail);
    const bool r_has_detail = ReferencesSide(r, Side::kDetail);

    // Pure-base atom: keep.
    if (!l_has_detail && !r_has_detail) {
      return std::make_shared<BinaryExpr>(atom.op(), l, r);
    }

    // Pure-detail atom: refute if possible, else unconstrained.
    const bool l_has_base = ReferencesSide(l, Side::kBase);
    const bool r_has_base = ReferencesSide(r, Side::kBase);
    if (!l_has_base && !r_has_base) {
      auto li = DetailInterval(l, site_);
      auto ri = DetailInterval(r, site_);
      if (li && ri && RefutablePureDetail(atom.op(), *li, *ri)) {
        return False();
      }
      return True();
    }

    // Mixed sides within one operand: give up on this atom.
    if ((l_has_base && l_has_detail) || (r_has_base && r_has_detail)) {
      return True();
    }

    // Exactly one operand is pure-base, the other pure-detail.
    const ExprPtr& base_expr = l_has_detail ? r : l;
    const ExprPtr& detail_expr = l_has_detail ? l : r;
    const BinaryOp op =
        l_has_detail ? FlipComparison(atom.op()) : atom.op();

    // Special case: `B.x = R.y` against a small finite value set becomes an
    // exact membership disjunction (tighter than the range hull).
    if (op == BinaryOp::kEq &&
        detail_expr->kind() == ExprKind::kColumn) {
      const auto& col = static_cast<const ColumnExpr&>(*detail_expr);
      const AttrDomain& domain = site_.Domain(col.name());
      if (domain.kind == AttrDomain::Kind::kValueSet &&
          domain.values.size() <= kMaxInlineSet) {
        std::vector<ExprPtr> members;
        members.reserve(domain.values.size());
        for (const Value& v : domain.values) {
          members.push_back(Eq(base_expr, Lit(v)));
        }
        return OrAll(members);
      }
    }

    auto iv = DetailInterval(detail_expr, site_);
    if (!iv) return True();
    return RelaxComparison(op, base_expr, *iv);
  }

  const PartitionInfo& site_;
};

}  // namespace

ExprPtr DeriveShipPredicate(const std::vector<ExprPtr>& thetas,
                            const PartitionInfo& site) {
  Relaxer relaxer(site);
  std::vector<ExprPtr> relaxed;
  relaxed.reserve(thetas.size());
  for (const ExprPtr& theta : thetas) {
    relaxed.push_back(relaxer.Relax(theta));
  }
  return OrAll(relaxed);
}

}  // namespace skalla
