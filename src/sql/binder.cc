#include "sql/binder.h"

#include "core/basket.h"

namespace datacell::sql {

void NameScope::AddSource(
    const std::string& alias,
    std::vector<std::pair<std::string, std::string>> visible) {
  sources_.push_back({alias, std::move(visible)});
}

Result<std::string> NameScope::Resolve(const std::string& name) const {
  const size_t dot = name.find('.');
  if (dot != std::string::npos) {
    const std::string qualifier = name.substr(0, dot);
    const std::string column = name.substr(dot + 1);
    for (const Source& s : sources_) {
      if (s.alias != qualifier) continue;
      for (const auto& [vis, actual] : s.visible) {
        if (vis == column) return actual;
      }
      return Status::BindError("no column '" + column + "' in source '" +
                               qualifier + "'");
    }
    return Status::BindError("unknown source alias '" + qualifier + "'");
  }
  const std::string* found = nullptr;
  for (const Source& s : sources_) {
    for (const auto& [vis, actual] : s.visible) {
      if (vis != name) continue;
      if (found != nullptr && *found != actual) {
        return Status::BindError("ambiguous column '" + name + "'");
      }
      found = &actual;
    }
  }
  if (found == nullptr) {
    return Status::BindError("unknown column '" + name + "'");
  }
  return *found;
}

bool NameScope::Contains(const std::string& name) const {
  return Resolve(name).ok();
}

bool NameScope::IsAmbiguous(const std::string& name) const {
  if (name.find('.') != std::string::npos) return false;
  const std::string* found = nullptr;
  for (const Source& s : sources_) {
    for (const auto& [vis, actual] : s.visible) {
      if (vis != name) continue;
      if (found != nullptr && *found != actual) return true;
      found = &actual;
    }
  }
  return false;
}

Result<std::vector<std::pair<std::string, std::string>>>
NameScope::StarColumns(const std::string& qualifier) const {
  std::vector<std::pair<std::string, std::string>> out;
  bool matched = false;
  for (const Source& s : sources_) {
    if (!qualifier.empty() && s.alias != qualifier) continue;
    matched = true;
    for (const auto& [vis, actual] : s.visible) {
      if (vis == core::kArrivalColumn) continue;  // internal column
      out.emplace_back(vis, actual);
    }
  }
  if (!qualifier.empty() && !matched) {
    return Status::BindError("unknown source alias '" + qualifier + "'");
  }
  return out;
}

Result<ExprPtr> ResolveColumns(const ExprPtr& expr, const NameScope& scope,
                               bool allow_unresolved) {
  if (expr == nullptr) return ExprPtr(nullptr);
  if (expr->kind == ExprKind::kColumnRef) {
    if (expr->column == "*") return expr;  // count(*) argument marker
    Result<std::string> actual = scope.Resolve(expr->column);
    if (actual.ok()) return Expr::Col(*actual);
    if (allow_unresolved && expr->column.find('.') == std::string::npos &&
        !scope.IsAmbiguous(expr->column)) {
      return expr;  // may be a session variable
    }
    return actual.status();
  }
  if (expr->children.empty()) return expr;
  auto clone = std::make_shared<Expr>(*expr);
  for (ExprPtr& child : clone->children) {
    ASSIGN_OR_RETURN(child, ResolveColumns(child, scope, allow_unresolved));
  }
  return ExprPtr(std::move(clone));
}

bool IsAggregateFunction(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max";
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kCall && IsAggregateFunction(expr.func)) {
    return true;
  }
  for (const ExprPtr& c : expr.children) {
    if (c != nullptr && ContainsAggregate(*c)) return true;
  }
  return false;
}

Result<ExprPtr> ExtractAggregates(const ExprPtr& expr,
                                  std::vector<ops::AggItem>* aggs) {
  if (expr == nullptr) return ExprPtr(nullptr);
  if (expr->kind == ExprKind::kCall && IsAggregateFunction(expr->func)) {
    if (expr->children.size() != 1) {
      return Status::BindError("aggregate '" + expr->func +
                               "' takes exactly one argument");
    }
    const ExprPtr& arg = expr->children[0];
    if (arg != nullptr && ContainsAggregate(*arg)) {
      return Status::BindError("nested aggregates are not allowed");
    }
    const bool star =
        arg != nullptr && arg->kind == ExprKind::kColumnRef && arg->column == "*";
    ASSIGN_OR_RETURN(ops::AggFunc func, ops::AggFuncFromName(expr->func, star));
    // An identical call (same function over the same bound argument) reuses
    // the aggregate already extracted instead of folding the column again.
    const ExprPtr bound = star ? nullptr : arg;
    for (const ops::AggItem& a : *aggs) {
      if (a.func == func && (a.arg == nullptr) == (bound == nullptr) &&
          (bound == nullptr || a.arg->ToString() == bound->ToString())) {
        return Expr::Col(a.name);
      }
    }
    const std::string name = "_agg" + std::to_string(aggs->size());
    aggs->push_back({func, bound, name});
    return Expr::Col(name);
  }
  if (expr->children.empty()) return expr;
  auto clone = std::make_shared<Expr>(*expr);
  for (ExprPtr& child : clone->children) {
    ASSIGN_OR_RETURN(child, ExtractAggregates(child, aggs));
  }
  return ExprPtr(std::move(clone));
}

ExprPtr SubstituteGroupExprs(const ExprPtr& expr,
                             const std::vector<ExprPtr>& group_exprs) {
  if (expr == nullptr) return nullptr;
  const std::string text = expr->ToString();
  for (size_t i = 0; i < group_exprs.size(); ++i) {
    if (group_exprs[i]->ToString() == text) {
      return Expr::Col("_g" + std::to_string(i));
    }
  }
  if (expr->children.empty()) return expr;
  auto clone = std::make_shared<Expr>(*expr);
  for (ExprPtr& child : clone->children) {
    child = SubstituteGroupExprs(child, group_exprs);
  }
  return clone;
}

}  // namespace datacell::sql
