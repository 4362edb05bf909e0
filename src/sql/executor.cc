#include "sql/executor.h"

#include <algorithm>

#include "core/basket.h"
#include "core/basket_expression.h"
#include "expr/eval.h"
#include "obs/metrics.h"
#include "obs/tables.h"
#include "obs/trace.h"
#include "ops/aggregate.h"
#include "ops/join.h"
#include "ops/project.h"
#include "ops/sort.h"
#include "sql/binder.h"
#include "sql/planner.h"
#include "storage/ingest_log.h"
#include "storage/pager.h"
#include "util/logging.h"

namespace datacell::sql {

namespace {

// Output column name for a select item: explicit alias, else the base name
// of a plain column reference, else a positional name.
std::string ItemName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr && item.expr->kind == ExprKind::kColumnRef) {
    const std::string& c = item.expr->column;
    const size_t dot = c.find('.');
    return dot == std::string::npos ? c : c.substr(dot + 1);
  }
  return "col" + std::to_string(index);
}

// Converts `src` to exactly `target` (positional): identical types copy,
// int widens to double; anything else is a type error.
Result<Table> ConvertTableTo(const Schema& target, const Table& src) {
  if (src.num_columns() != target.num_fields()) {
    return Status::TypeMismatch(
        "source arity " + std::to_string(src.num_columns()) +
        " does not match target " + target.ToString());
  }
  Table out(target);
  for (size_t c = 0; c < target.num_fields(); ++c) {
    const Column& in = src.column(c);
    Column& dst = out.column(c);
    const DataType want = target.field(c).type;
    if (in.type() == want ||
        (IsIntegerPhysical(in.type()) && IsIntegerPhysical(want))) {
      if (in.type() == want) {
        RETURN_NOT_OK(dst.AppendColumn(in));
      } else {
        // int <-> timestamp: same physical representation.
        for (size_t i = 0; i < in.size(); ++i) {
          if (!in.IsValid(i)) {
            dst.AppendNull();
          } else {
            dst.AppendInt(in.ints()[i]);
          }
        }
      }
      continue;
    }
    if (want == DataType::kDouble && IsIntegerPhysical(in.type())) {
      for (size_t i = 0; i < in.size(); ++i) {
        if (!in.IsValid(i)) {
          dst.AppendNull();
        } else {
          dst.AppendDouble(static_cast<double>(in.ints()[i]));
        }
      }
      continue;
    }
    return Status::TypeMismatch("cannot insert " +
                                std::string(DataTypeName(in.type())) +
                                " into column '" + target.field(c).name +
                                "' of type " + DataTypeName(want));
  }
  return out;
}

// Makes projection output names unique: a second "id" becomes "id_2", etc.
// (self-joins and unaliased duplicate expressions).
void DedupeNames(std::vector<ops::ProjectionItem>* items) {
  std::map<std::string, int> seen;
  for (ops::ProjectionItem& item : *items) {
    int& n = seen[item.name];
    ++n;
    if (n > 1) item.name += "_" + std::to_string(n);
  }
}

// True if every column reference in `e` binds against `scope` (full name
// or unqualified base name). Names matching nothing are assumed to be
// session variables and do not veto.
bool BindsAgainst(const Expr& e, const NameScope& scope,
                  const NameScope& other) {
  if (e.kind == ExprKind::kColumnRef) {
    if (scope.Contains(e.column)) return true;
    const size_t dot = e.column.find('.');
    if (dot != std::string::npos &&
        scope.Contains(e.column.substr(dot + 1))) {
      return true;
    }
    // A name the other scope knows is a real column we cannot see; a name
    // neither scope knows is (at worst) a session variable.
    const bool other_knows =
        other.Contains(e.column) ||
        (dot != std::string::npos && other.Contains(e.column.substr(dot + 1)));
    return !other_knows;
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr && !BindsAgainst(*c, scope, other)) return false;
  }
  return true;
}

// Resolves column refs against a query's *output* schema (ORDER BY after
// projection): tries the full name, then the unqualified base name (the
// qualifier refers to a FROM alias that no longer exists post-projection),
// and finally leaves the name alone (session variables).
ExprPtr ResolveAgainstOutput(const ExprPtr& expr, const NameScope& out_scope) {
  if (expr == nullptr) return nullptr;
  if (expr->kind == ExprKind::kColumnRef) {
    if (out_scope.Contains(expr->column)) return expr;
    const size_t dot = expr->column.find('.');
    if (dot != std::string::npos) {
      std::string base = expr->column.substr(dot + 1);
      if (out_scope.Contains(base)) return Expr::Col(std::move(base));
    }
    return expr;
  }
  if (expr->children.empty()) return expr;
  auto clone = std::make_shared<Expr>(*expr);
  for (ExprPtr& child : clone->children) {
    child = ResolveAgainstOutput(child, out_scope);
  }
  return clone;
}

// Visible (source name, actual name) pairs for a plain table source.
std::vector<std::pair<std::string, std::string>> VisibleSelf(
    const Schema& schema) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) out.emplace_back(f.name, f.name);
  return out;
}

Schema SchemaFromColumns(
    const std::vector<std::pair<std::string, std::string>>& columns,
    Status* status) {
  Schema schema;
  for (const auto& [name, type_name] : columns) {
    Result<DataType> type = DataTypeFromName(type_name);
    if (!type.ok()) {
      *status = type.status();
      return schema;
    }
    Status st = schema.AddField({name, *type});
    if (!st.ok()) {
      *status = st;
      return schema;
    }
  }
  *status = Status::OK();
  return schema;
}

}  // namespace

void Executor::BindTemp(const std::string& name, Table table) {
  temps_[name] = std::move(table);
}

void Executor::UnbindTemp(const std::string& name) { temps_.erase(name); }

EvalContext Executor::MakeEvalContext() {
  vars_snapshot_ = engine_->VariablesSnapshot();
  EvalContext ctx;
  ctx.now = engine_->Now();
  ctx.variables = &vars_snapshot_;
  return ctx;
}

Result<Table> Executor::Execute(const Statement& stmt) {
  return ExecStatement(stmt, &stmt.subqueries);
}

Result<Table> Executor::ExecStatement(const Statement& stmt,
                                      const Subqueries* subs) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return ExecSelect(*stmt.select, subs);
    case Statement::Kind::kInsert:
      return ExecInsert(*stmt.insert, subs);
    case Statement::Kind::kCreate:
      return ExecCreate(*stmt.create);
    case Statement::Kind::kDrop:
      return ExecDrop(*stmt.drop);
    case Statement::Kind::kDeclare:
      engine_->SetVariable(stmt.declare->name, Value::Null());
      return Table();
    case Statement::Kind::kSet:
      return ExecSet(*stmt.set, subs);
    case Statement::Kind::kWithBlock:
      return ExecWithBlock(*stmt.with_block, subs);
    case Statement::Kind::kExplain:
      // The plan surface lives in the session (it owns the multi-query
      // optimizer whose sharing decisions EXPLAIN reports); a bare
      // executor has no standing-query set to explain against.
      return Status::Unsupported(
          "EXPLAIN is only available through a Session");
  }
  return Status::Internal("unknown statement kind");
}

Result<ExprPtr> Executor::InlineSubqueries(const ExprPtr& expr,
                                           const Subqueries* subs) {
  if (expr == nullptr) return ExprPtr(nullptr);
  if (expr->kind == ExprKind::kCall && expr->func == "__subquery") {
    const int64_t index = expr->children[0]->literal.int_value();
    if (subs == nullptr || index < 0 ||
        static_cast<size_t>(index) >= subs->size()) {
      return Status::Internal("dangling scalar subquery reference");
    }
    ASSIGN_OR_RETURN(Table result, ExecSelect(*(*subs)[index], subs));
    if (result.num_columns() != 1) {
      return Status::BindError("scalar subquery must produce one column");
    }
    if (result.num_rows() > 1) {
      return Status::InvalidArgument("scalar subquery produced " +
                                     std::to_string(result.num_rows()) +
                                     " rows");
    }
    Value v = result.num_rows() == 0 ? Value::Null()
                                     : result.column(0).GetValue(0);
    return Expr::Lit(std::move(v));
  }
  if (expr->children.empty()) return expr;
  auto clone = std::make_shared<Expr>(*expr);
  for (ExprPtr& child : clone->children) {
    ASSIGN_OR_RETURN(child, InlineSubqueries(child, subs));
  }
  return ExprPtr(std::move(clone));
}

Result<Executor::Source> Executor::EvalFromItem(const FromItem& item,
                                                const Subqueries* subs) {
  if (item.kind == FromItem::Kind::kBasketExpr) {
    ASSIGN_OR_RETURN(Table t, EvalBasketExpr(*item.basket_query, subs));
    return Source{std::move(t), item.alias};
  }
  const std::string& name = item.relation;
  const std::string alias = item.alias.empty() ? name : item.alias;
  // Resolution order: WITH-block temp, basket (peek), catalog table,
  // dc_* observability virtual table (so a user relation shadows it).
  if (auto it = temps_.find(name); it != temps_.end()) {
    return Source{it->second, alias};
  }
  if (engine_->HasBasket(name)) {
    ASSIGN_OR_RETURN(core::BasketPtr b, engine_->GetBasket(name));
    // A basket inspected outside a basket expression behaves as a
    // temporary table: tuples are not removed (§3.4). Peek is a zero-copy
    // COW snapshot, so the rest of the query runs over a stable view
    // without copying the stream or holding the basket lock.
    return Source{b->Peek(), alias};
  }
  if (!engine_->catalog().HasTable(name) && obs::IsVirtualTable(name)) {
    // Each SELECT materializes a fresh snapshot of the engine's metrics /
    // trace state — the R-GMA pattern of monitoring-as-relations.
    ASSIGN_OR_RETURN(Table t, obs::VirtualTable(engine_, name));
    return Source{std::move(t), alias};
  }
  ASSIGN_OR_RETURN(auto table, engine_->catalog().GetTable(name));
  return Source{*table, alias};
}

Result<Table> Executor::EvalBasketExpr(const SelectStmt& stmt,
                                       const Subqueries* subs) {
  if (stmt.from.empty() || stmt.from.size() > 2) {
    return Status::BindError(
        "a basket expression must read one or two baskets");
  }
  for (const FromItem& f : stmt.from) {
    if (f.kind != FromItem::Kind::kRelation) {
      return Status::BindError("nested basket expressions are not supported");
    }
    if (!engine_->HasBasket(f.relation)) {
      return Status::BindError("'" + f.relation +
                               "' is not a basket (basket expressions read "
                               "streams only)");
    }
  }
  if (stmt.distinct || !stmt.group_by.empty() || stmt.having != nullptr) {
    return Status::BindError(
        "DISTINCT/GROUP BY/HAVING are not allowed inside a basket "
        "expression; aggregate in the enclosing query");
  }
  EvalContext ctx = MakeEvalContext();

  if (stmt.from.size() == 1) {
    ASSIGN_OR_RETURN(core::BasketPtr basket,
                     engine_->GetBasket(stmt.from[0].relation));
    const std::string alias = stmt.from[0].alias.empty()
                                  ? stmt.from[0].relation
                                  : stmt.from[0].alias;
    NameScope scope;
    scope.AddSource(alias, VisibleSelf(basket->schema()));

    core::BasketExpression be(basket);
    if (stmt.where != nullptr) {
      ASSIGN_OR_RETURN(ExprPtr w, InlineSubqueries(stmt.where, subs));
      ASSIGN_OR_RETURN(w, ResolveColumns(w, scope, /*allow_unresolved=*/true));
      be.Where(std::move(w));
    }
    if (!stmt.order_by.empty()) {
      std::vector<ops::SortKey> keys;
      for (const OrderItem& o : stmt.order_by) {
        ASSIGN_OR_RETURN(ExprPtr e, InlineSubqueries(o.expr, subs));
        ASSIGN_OR_RETURN(e, ResolveColumns(e, scope, true));
        keys.push_back({std::move(e), o.ascending});
      }
      be.OrderBy(std::move(keys));
    }
    if (stmt.top_n.has_value()) be.Top(*stmt.top_n);
    ASSIGN_OR_RETURN(Table window, be.Evaluate(ctx));

    // Inner projection. A plain `select *` keeps the full window (including
    // the arrival column, so enclosing queries can window on it).
    const bool plain_star = stmt.items.size() == 1 && stmt.items[0].star &&
                            stmt.items[0].star_qualifier.empty();
    if (plain_star) return window;
    std::vector<ops::ProjectionItem> proj;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.star) {
        ASSIGN_OR_RETURN(auto cols, scope.StarColumns(item.star_qualifier));
        for (const auto& [vis, actual] : cols) {
          proj.push_back({Expr::Col(actual), vis});
        }
        continue;
      }
      ASSIGN_OR_RETURN(ExprPtr e, InlineSubqueries(item.expr, subs));
      ASSIGN_OR_RETURN(e, ResolveColumns(e, scope, true));
      proj.push_back({std::move(e), ItemName(item, i)});
    }
    return ops::Project(window, proj, ctx);
  }

  // Two-basket merge (§5 split & merge): delete-on-match join semantics.
  if (stmt.top_n.has_value() || !stmt.order_by.empty()) {
    return Status::BindError(
        "TOP/ORDER BY are not supported in a two-basket merge expression");
  }
  ASSIGN_OR_RETURN(core::BasketPtr left, engine_->GetBasket(stmt.from[0].relation));
  ASSIGN_OR_RETURN(core::BasketPtr right, engine_->GetBasket(stmt.from[1].relation));
  const std::string lalias =
      stmt.from[0].alias.empty() ? stmt.from[0].relation : stmt.from[0].alias;
  const std::string ralias =
      stmt.from[1].alias.empty() ? stmt.from[1].relation : stmt.from[1].alias;

  // Lock both baskets for the whole read-join-delete sequence: the matched
  // row indices computed against the snapshots below must still describe
  // the baskets when the deletes run. The snapshots themselves are
  // zero-copy, so holding the locks costs contention, not copying. The
  // locks are taken in ascending address order — the canonical basket-lock
  // order (Factory::Fire) — so two sessions merging the same pair with
  // opposite FROM orders cannot deadlock.
  core::Basket* const lo = std::min(left.get(), right.get());
  core::Basket* const hi = std::max(left.get(), right.get());
  core::BasketLock lock_lo(lo);
  core::BasketLock lock_hi(hi);
  Table ltab = left->Peek();
  Table rtab = right->Peek();

  // Combined-name mapping (right columns renamed on collision, as in
  // MaterializeJoin).
  std::map<std::string, std::string> combined_to_right;
  std::vector<std::pair<std::string, std::string>> rvisible;
  for (const Field& f : rtab.schema().fields()) {
    std::string actual = f.name;
    if (ltab.schema().FindField(actual) >= 0) actual = "r_" + actual;
    combined_to_right[actual] = f.name;
    rvisible.emplace_back(f.name, actual);
  }
  NameScope scope;
  scope.AddSource(lalias, VisibleSelf(ltab.schema()));
  scope.AddSource(ralias, std::move(rvisible));

  if (stmt.where == nullptr) {
    return Status::BindError("a two-basket merge requires a join predicate");
  }
  ASSIGN_OR_RETURN(ExprPtr w, InlineSubqueries(stmt.where, subs));
  ASSIGN_OR_RETURN(w, ResolveColumns(w, scope, true));
  ASSIGN_OR_RETURN(EquiJoinPlan plan,
                   ExtractEquiJoin(w, ltab.schema(), combined_to_right));
  if (plan.keys.empty()) {
    return Status::BindError(
        "a two-basket merge requires at least one equality predicate");
  }
  std::vector<ops::JoinKey> keys;
  for (const ops::JoinKey& k : plan.keys) {
    keys.push_back({k.left, k.right});
  }
  ASSIGN_OR_RETURN(ops::JoinMatches matches,
                   ops::HashJoinIndices(ltab, rtab, keys));
  ASSIGN_OR_RETURN(Table combined, ops::MaterializeJoin(ltab, rtab, matches));
  SelVector surviving(combined.num_rows());
  for (size_t i = 0; i < surviving.size(); ++i) {
    surviving[i] = static_cast<uint32_t>(i);
  }
  if (plan.residual != nullptr) {
    ASSIGN_OR_RETURN(surviving, EvalPredicate(combined, *plan.residual, ctx));
  }
  Table result = combined.Take(surviving);

  // Consume exactly the matched tuples on both sides (non-matching tuples
  // remain, waiting for delayed arrivals).
  auto erase_side = [&](core::Basket* basket, const SelVector& match_rows) {
    SelVector rows;
    rows.reserve(surviving.size());
    for (uint32_t s : surviving) rows.push_back(match_rows[s]);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return basket->EraseRows(rows);
  };
  RETURN_NOT_OK(erase_side(left.get(), matches.left));
  RETURN_NOT_OK(erase_side(right.get(), matches.right));

  // Inner projection over the combined result.
  std::vector<ops::ProjectionItem> proj;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.star) {
      ASSIGN_OR_RETURN(auto cols, scope.StarColumns(item.star_qualifier));
      for (const auto& [vis, actual] : cols) {
        // Collapse duplicate output names from the two sides.
        bool dup = false;
        for (const auto& p : proj) {
          if (p.name == vis) dup = true;
        }
        proj.push_back({Expr::Col(actual), dup ? "r_" + vis : vis});
      }
      continue;
    }
    ASSIGN_OR_RETURN(ExprPtr e, InlineSubqueries(item.expr, subs));
    ASSIGN_OR_RETURN(e, ResolveColumns(e, scope, true));
    proj.push_back({std::move(e), ItemName(item, i)});
  }
  return ops::Project(result, proj, ctx);
}

Result<Table> Executor::ExecSelect(const SelectStmt& stmt,
                                   const Subqueries* subs) {
  EvalContext ctx = MakeEvalContext();

  // --- FROM ---------------------------------------------------------------
  std::vector<Source> sources;
  for (const FromItem& f : stmt.from) {
    ASSIGN_OR_RETURN(Source s, EvalFromItem(f, subs));
    sources.push_back(std::move(s));
  }
  if (sources.size() > 2) {
    return Status::Unsupported("more than two FROM sources");
  }

  Table combined;
  NameScope scope;
  ExprPtr where_pending;  // still to apply after FROM
  if (stmt.where != nullptr) {
    ASSIGN_OR_RETURN(where_pending, InlineSubqueries(stmt.where, subs));
  }

  if (sources.empty()) {
    // SELECT with no FROM: one synthetic row.
    Table dummy(Schema({{"_one", DataType::kInt64}}));
    RETURN_NOT_OK(dummy.AppendRow({Value(1)}));
    combined = std::move(dummy);
  } else if (sources.size() == 1) {
    scope.AddSource(sources[0].alias, VisibleSelf(sources[0].table.schema()));
    combined = std::move(sources[0].table);
    if (where_pending != nullptr) {
      ASSIGN_OR_RETURN(ExprPtr w, ResolveColumns(where_pending, scope, true));
      ASSIGN_OR_RETURN(SelVector sel, EvalPredicate(combined, *w, ctx));
      combined = combined.Take(sel);
      where_pending = nullptr;
    }
  } else {
    const Table& ltab = sources[0].table;
    const Table& rtab = sources[1].table;
    std::map<std::string, std::string> combined_to_right;
    std::vector<std::pair<std::string, std::string>> rvisible;
    for (const Field& f : rtab.schema().fields()) {
      std::string actual = f.name;
      if (ltab.schema().FindField(actual) >= 0) actual = "r_" + actual;
      combined_to_right[actual] = f.name;
      rvisible.emplace_back(f.name, actual);
    }
    scope.AddSource(sources[0].alias, VisibleSelf(ltab.schema()));
    scope.AddSource(sources[1].alias, std::move(rvisible));

    if (where_pending == nullptr) {
      // Cross product via nested loop with a TRUE predicate.
      ASSIGN_OR_RETURN(
          ops::JoinMatches matches,
          ops::NestedLoopJoin(ltab, rtab, *Expr::Lit(Value(true)), ctx));
      ASSIGN_OR_RETURN(combined, ops::MaterializeJoin(ltab, rtab, matches));
    } else {
      ASSIGN_OR_RETURN(ExprPtr w, ResolveColumns(where_pending, scope, true));
      ASSIGN_OR_RETURN(EquiJoinPlan plan,
                       ExtractEquiJoin(w, ltab.schema(), combined_to_right));
      if (!plan.keys.empty()) {
        ASSIGN_OR_RETURN(ops::JoinMatches matches,
                         ops::HashJoinIndices(ltab, rtab, plan.keys));
        ASSIGN_OR_RETURN(combined, ops::MaterializeJoin(ltab, rtab, matches));
        if (plan.residual != nullptr) {
          ASSIGN_OR_RETURN(SelVector sel,
                           EvalPredicate(combined, *plan.residual, ctx));
          combined = combined.Take(sel);
        }
      } else {
        ASSIGN_OR_RETURN(ops::JoinMatches matches,
                         ops::NestedLoopJoin(ltab, rtab, *w, ctx));
        ASSIGN_OR_RETURN(combined, ops::MaterializeJoin(ltab, rtab, matches));
      }
      where_pending = nullptr;
    }
  }
  if (where_pending != nullptr) {
    // No-FROM select with a WHERE (rare): evaluate over the dummy row.
    ASSIGN_OR_RETURN(SelVector sel, EvalPredicate(combined, *where_pending, ctx));
    combined = combined.Take(sel);
  }

  // --- aggregation detection ----------------------------------------------
  bool aggregated = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.items) {
    if (!item.star && item.expr != nullptr && ContainsAggregate(*item.expr)) {
      aggregated = true;
    }
  }
  if (stmt.having != nullptr) aggregated = true;

  Table projected;
  bool presorted = false;
  if (aggregated) {
    // Resolve group expressions.
    std::vector<ExprPtr> group_resolved;
    std::vector<ops::GroupItem> groups;
    for (size_t g = 0; g < stmt.group_by.size(); ++g) {
      ASSIGN_OR_RETURN(ExprPtr e, InlineSubqueries(stmt.group_by[g], subs));
      ASSIGN_OR_RETURN(e, ResolveColumns(e, scope, true));
      group_resolved.push_back(e);
      groups.push_back({e, "_g" + std::to_string(g)});
    }
    // Rewrite select items and having over the aggregation output.
    std::vector<ops::AggItem> aggs;
    std::vector<ops::ProjectionItem> proj;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.star) {
        return Status::BindError("SELECT * is not valid in an aggregate query");
      }
      ASSIGN_OR_RETURN(ExprPtr e, InlineSubqueries(item.expr, subs));
      ASSIGN_OR_RETURN(e, ResolveColumns(e, scope, true));
      e = SubstituteGroupExprs(e, group_resolved);
      ASSIGN_OR_RETURN(e, ExtractAggregates(e, &aggs));
      proj.push_back({std::move(e), ItemName(item, i)});
    }
    ExprPtr having;
    if (stmt.having != nullptr) {
      ASSIGN_OR_RETURN(having, InlineSubqueries(stmt.having, subs));
      ASSIGN_OR_RETURN(having, ResolveColumns(having, scope, true));
      having = SubstituteGroupExprs(having, group_resolved);
      ASSIGN_OR_RETURN(having, ExtractAggregates(having, &aggs));
    }
    ASSIGN_OR_RETURN(Table intermediate,
                     ops::Aggregate(combined, groups, aggs, ctx));
    if (having != nullptr) {
      ASSIGN_OR_RETURN(SelVector sel, EvalPredicate(intermediate, *having, ctx));
      intermediate = intermediate.Take(sel);
    }
    DedupeNames(&proj);
    ASSIGN_OR_RETURN(projected, ops::Project(intermediate, proj, ctx));
  } else {
    std::vector<ops::ProjectionItem> proj;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.star) {
        if (sources.empty()) {
          return Status::BindError("SELECT * requires a FROM clause");
        }
        ASSIGN_OR_RETURN(auto cols, scope.StarColumns(item.star_qualifier));
        for (const auto& [vis, actual] : cols) {
          bool dup = false;
          for (const auto& p : proj) {
            if (p.name == vis) dup = true;
          }
          proj.push_back({Expr::Col(actual), dup ? "r_" + vis : vis});
        }
        continue;
      }
      ASSIGN_OR_RETURN(ExprPtr e, InlineSubqueries(item.expr, subs));
      ASSIGN_OR_RETURN(e, ResolveColumns(e, scope, true));
      proj.push_back({std::move(e), ItemName(item, i)});
    }
    DedupeNames(&proj);
    // ORDER BY keys referencing input columns dropped by the projection
    // (standard SQL allows this) sort the combined input *before*
    // projecting; keys binding to the output sort afterwards (handled by
    // the common block below).
    if (!stmt.order_by.empty()) {
      NameScope out_scope;
      std::vector<std::pair<std::string, std::string>> out_names;
      for (const ops::ProjectionItem& p : proj) {
        out_names.emplace_back(p.name, p.name);
      }
      out_scope.AddSource("", std::move(out_names));
      bool all_bind_output = true;
      for (const OrderItem& o : stmt.order_by) {
        if (!BindsAgainst(*o.expr, out_scope, scope)) all_bind_output = false;
      }
      if (!all_bind_output) {
        std::vector<ops::SortKey> keys;
        for (const OrderItem& o : stmt.order_by) {
          ASSIGN_OR_RETURN(ExprPtr e, InlineSubqueries(o.expr, subs));
          ASSIGN_OR_RETURN(e, ResolveColumns(e, scope, true));
          keys.push_back({std::move(e), o.ascending});
        }
        ASSIGN_OR_RETURN(combined, ops::SortTable(combined, keys, ctx));
        presorted = true;
      }
    }
    ASSIGN_OR_RETURN(projected, ops::Project(combined, proj, ctx));
  }

  // --- DISTINCT -------------------------------------------------------------
  if (stmt.distinct) {
    std::vector<ops::GroupItem> groups;
    for (const Field& f : projected.schema().fields()) {
      groups.push_back({Expr::Col(f.name), f.name});
    }
    ASSIGN_OR_RETURN(projected, ops::Aggregate(projected, groups, {}, ctx));
  }

  // --- ORDER BY / LIMIT ------------------------------------------------------
  if (!stmt.order_by.empty() && !presorted) {
    NameScope out_scope;
    out_scope.AddSource("", VisibleSelf(projected.schema()));
    std::vector<ops::SortKey> keys;
    for (const OrderItem& o : stmt.order_by) {
      ASSIGN_OR_RETURN(ExprPtr e, InlineSubqueries(o.expr, subs));
      e = ResolveAgainstOutput(e, out_scope);
      keys.push_back({std::move(e), o.ascending});
    }
    ASSIGN_OR_RETURN(projected, ops::SortTable(projected, keys, ctx));
  }
  if (stmt.top_n.has_value() && projected.num_rows() > *stmt.top_n) {
    SelVector prefix(*stmt.top_n);
    for (size_t i = 0; i < prefix.size(); ++i) {
      prefix[i] = static_cast<uint32_t>(i);
    }
    projected = projected.Take(prefix);
  }
  return projected;
}

Result<Table> Executor::ExecInsert(const InsertStmt& stmt,
                                   const Subqueries* subs) {
  EvalContext ctx = MakeEvalContext();

  // Materialize the source rows.
  Table source;
  if (!stmt.values.empty()) {
    // Infer a schema from the first evaluated row.
    std::vector<Row> rows;
    for (const auto& exprs : stmt.values) {
      Row row;
      for (const ExprPtr& e : exprs) {
        ASSIGN_OR_RETURN(ExprPtr inlined, InlineSubqueries(e, subs));
        ASSIGN_OR_RETURN(Value v, EvalConst(*inlined, ctx));
        row.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
    }
    if (rows.empty()) return Table();
    Schema schema;
    for (size_t c = 0; c < rows[0].size(); ++c) {
      DataType t = DataType::kInt64;
      // Find the first non-null value in this position for typing.
      for (const Row& r : rows) {
        if (c < r.size() && !r[c].is_null()) {
          if (r[c].is_double()) t = DataType::kDouble;
          if (r[c].is_bool()) t = DataType::kBool;
          if (r[c].is_string()) t = DataType::kString;
          break;
        }
      }
      RETURN_NOT_OK(schema.AddField({"v" + std::to_string(c), t}));
    }
    source = Table(schema);
    for (const Row& r : rows) {
      RETURN_NOT_OK(source.AppendRow(r));
    }
  } else if (stmt.select != nullptr) {
    ASSIGN_OR_RETURN(source, ExecSelect(*stmt.select, subs));
  } else {
    return Status::InvalidArgument("INSERT without VALUES or SELECT");
  }

  // Resolve the target.
  const bool is_basket = engine_->HasBasket(stmt.target);
  Schema target_user_schema;
  if (is_basket) {
    ASSIGN_OR_RETURN(core::BasketPtr b, engine_->GetBasket(stmt.target));
    std::vector<Field> fields(b->schema().fields());
    if (b->has_arrival_column()) fields.pop_back();
    target_user_schema = Schema(std::move(fields));
  } else {
    ASSIGN_OR_RETURN(auto t, engine_->catalog().GetTable(stmt.target));
    target_user_schema = t->schema();
  }

  // Optional explicit column list: scatter source columns into place,
  // filling the rest with NULLs.
  if (!stmt.columns.empty()) {
    if (stmt.columns.size() != source.num_columns()) {
      return Status::InvalidArgument(
          "INSERT column list arity does not match source");
    }
    Table widened(target_user_schema);
    std::vector<int> positions;
    for (const std::string& col : stmt.columns) {
      int idx = target_user_schema.FindField(col);
      if (idx < 0) {
        return Status::BindError("no column '" + col + "' in '" +
                                 stmt.target + "'");
      }
      positions.push_back(idx);
    }
    for (size_t r = 0; r < source.num_rows(); ++r) {
      Row row(target_user_schema.num_fields(), Value::Null());
      for (size_t c = 0; c < positions.size(); ++c) {
        row[static_cast<size_t>(positions[c])] = source.column(c).GetValue(r);
      }
      RETURN_NOT_OK(widened.AppendRow(row));
    }
    source = std::move(widened);
  } else if (source.num_columns() == target_user_schema.num_fields() + 1) {
    // A full-schema stream row (including dc_arrival) forwarded into a
    // basket/table without that column: drop the arrival column by name.
    int idx = source.schema().FindField(core::kArrivalColumn);
    if (idx >= 0) {
      Schema trimmed;
      std::vector<size_t> keep;
      for (size_t c = 0; c < source.num_columns(); ++c) {
        if (static_cast<int>(c) == idx) continue;
        RETURN_NOT_OK(trimmed.AddField(source.schema().field(c)));
        keep.push_back(c);
      }
      Table t(trimmed);
      for (size_t k = 0; k < keep.size(); ++k) {
        RETURN_NOT_OK(t.column(k).AppendColumn(source.column(keep[k])));
      }
      source = std::move(t);
    }
  }

  ASSIGN_OR_RETURN(Table aligned, ConvertTableTo(target_user_schema, source));
  if (is_basket) {
    ASSIGN_OR_RETURN(core::BasketPtr b, engine_->GetBasket(stmt.target));
    ASSIGN_OR_RETURN(size_t n, b->Append(aligned, engine_->Now()));
    (void)n;
  } else {
    ASSIGN_OR_RETURN(auto t, engine_->catalog().GetTable(stmt.target));
    RETURN_NOT_OK(t->AppendTable(aligned));
  }
  return Table();
}

Result<Table> Executor::ExecCreate(const CreateStmt& stmt) {
  Status st;
  Schema schema = SchemaFromColumns(stmt.columns, &st);
  RETURN_NOT_OK(st);
  if (stmt.is_basket) {
    ASSIGN_OR_RETURN(auto b, engine_->CreateBasket(stmt.name, schema));
    // CHECK constraints resolve against the basket's full schema and act
    // as the §3.2 silent filter.
    NameScope scope;
    scope.AddSource(stmt.name, VisibleSelf(b->schema()));
    for (const ExprPtr& check : stmt.checks) {
      ASSIGN_OR_RETURN(ExprPtr resolved, ResolveColumns(check, scope, true));
      b->AddConstraint(std::move(resolved));
    }
  } else {
    if (engine_->HasBasket(stmt.name)) {
      return Status::AlreadyExists("a basket named '" + stmt.name + "' exists");
    }
    ASSIGN_OR_RETURN(auto t, engine_->catalog().CreateTable(stmt.name, schema));
    (void)t;
  }
  return Table();
}

Result<Table> Executor::ExecDrop(const DropStmt& stmt) {
  if (stmt.is_basket) {
    RETURN_NOT_OK(engine_->DropBasket(stmt.name));
  } else {
    RETURN_NOT_OK(engine_->catalog().DropTable(stmt.name));
  }
  return Table();
}

Result<Table> Executor::ExecSet(const SetStmt& stmt, const Subqueries* subs) {
  EvalContext ctx = MakeEvalContext();
  ASSIGN_OR_RETURN(ExprPtr e, InlineSubqueries(stmt.value, subs));
  ASSIGN_OR_RETURN(Value v, EvalConst(*e, ctx));
  // Observability toggles ride the SET statement: `SET dc_trace = 1`
  // starts capturing firing events into the dc_trace ring, `SET
  // dc_metrics = 0` turns off the optional hot-path instrumentation.
  // The variable is still stored, so `SELECT` of it reflects the toggle.
  if (stmt.name == "dc_trace" || stmt.name == "dc_metrics") {
    bool on = false;
    if (v.is_int()) {
      on = v.int_value() != 0;
    } else if (v.is_bool()) {
      on = v.bool_value();
    } else {
      return Status::InvalidArgument("SET " + stmt.name +
                                     " expects 0/1 or a boolean");
    }
    if (stmt.name == "dc_trace") {
      obs::TraceLog::Global().set_enabled(on);
    } else {
      obs::MetricsRegistry::set_enabled(on);
    }
  }
  // Durability knobs: `SET dc_spill = 0/1` opens/closes the basket spill
  // gate, `SET dc_fsync = 'none'|'batch'|'always'` retunes every open
  // ingest log's fsync policy.
  if (stmt.name == "dc_spill") {
    bool on = false;
    if (v.is_int()) {
      on = v.int_value() != 0;
    } else if (v.is_bool()) {
      on = v.bool_value();
    } else {
      return Status::InvalidArgument("SET dc_spill expects 0/1 or a boolean");
    }
    storage::SetSpillEnabled(on);
  }
  if (stmt.name == "dc_fsync") {
    if (!v.is_string()) {
      return Status::InvalidArgument(
          "SET dc_fsync expects 'none', 'batch' or 'always'");
    }
    storage::FsyncPolicy policy;
    const std::string& p = v.string_value();
    if (p == "none") {
      policy = storage::FsyncPolicy::kNone;
    } else if (p == "batch") {
      policy = storage::FsyncPolicy::kBatch;
    } else if (p == "always") {
      policy = storage::FsyncPolicy::kAlways;
    } else {
      return Status::InvalidArgument(
          "SET dc_fsync expects 'none', 'batch' or 'always', got '" + p + "'");
    }
    for (storage::IngestLog* log : storage::StorageRegistry::Global().Logs()) {
      log->set_policy(policy);
    }
  }
  // Sharding knob: `SET dc_shards = N` records how many ingress partitions
  // plan::BuildPartitionedChain should instantiate (read at wiring time by
  // plan::ResolvePartitions; a running gateway keeps its shard count).
  if (stmt.name == "dc_shards") {
    if (!v.is_int() || v.int_value() < 1) {
      return Status::InvalidArgument("SET dc_shards expects an integer >= 1");
    }
  }
  engine_->SetVariable(stmt.name, std::move(v));
  return Table();
}

Result<Table> Executor::ExecWithBlock(const WithBlockStmt& stmt,
                                      const Subqueries* subs) {
  ASSIGN_OR_RETURN(Table bound, EvalBasketExpr(*stmt.basket_query, subs));
  BindTemp(stmt.binding, std::move(bound));
  Status st;
  for (const StatementPtr& body : stmt.body) {
    Result<Table> r = ExecStatement(*body, subs);
    if (!r.ok()) {
      st = r.status();
      break;
    }
  }
  UnbindTemp(stmt.binding);
  RETURN_NOT_OK(st);
  return Table();
}

}  // namespace datacell::sql
