#include "sql/planner.h"

#include <algorithm>

namespace datacell::sql {

namespace {

void FlattenConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bop == BinaryOp::kAnd) {
    FlattenConjuncts(e->children[0], out);
    FlattenConjuncts(e->children[1], out);
    return;
  }
  out->push_back(e);
}

}  // namespace

Result<EquiJoinPlan> ExtractEquiJoin(
    const ExprPtr& where_combined, const std::vector<std::string>& left_columns,
    const std::map<std::string, std::string>& combined_to_right) {
  EquiJoinPlan plan;
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(where_combined, &conjuncts);

  auto side = [&](const std::string& combined_name) -> int {
    // 0 = left, 1 = right, -1 = unknown.
    if (combined_to_right.count(combined_name) > 0) return 1;
    if (std::find(left_columns.begin(), left_columns.end(), combined_name) !=
        left_columns.end()) {
      return 0;
    }
    return -1;
  };

  for (const ExprPtr& c : conjuncts) {
    bool is_key = false;
    if (c->kind == ExprKind::kBinary && c->bop == BinaryOp::kEq &&
        c->children[0]->kind == ExprKind::kColumnRef &&
        c->children[1]->kind == ExprKind::kColumnRef) {
      const std::string& a = c->children[0]->column;
      const std::string& b = c->children[1]->column;
      const int sa = side(a);
      const int sb = side(b);
      if (sa == 0 && sb == 1) {
        plan.keys.push_back({a, combined_to_right.at(b)});
        is_key = true;
      } else if (sa == 1 && sb == 0) {
        plan.keys.push_back({b, combined_to_right.at(a)});
        is_key = true;
      }
    }
    if (!is_key) {
      plan.residual = Expr::AndMaybe(plan.residual, c);
    }
  }
  return plan;
}

}  // namespace datacell::sql
