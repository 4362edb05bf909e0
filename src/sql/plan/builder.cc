#include "sql/plan/builder.h"

#include <utility>

#include "core/basket.h"
#include "sql/binder.h"
#include "sql/plan/rewrite.h"

namespace datacell::sql::plan {

namespace {

// The statement's SELECT body, or null for statements with no relational
// plan (CREATE, SET, ...). INSERT .. VALUES has no body either.
const SelectStmt* BodySelect(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return stmt.select.get();
    case Statement::Kind::kInsert:
      return stmt.insert ? stmt.insert->select.get() : nullptr;
    default:
      return nullptr;
  }
}

SelectStmt* MutableBodySelect(Statement& stmt) {
  return const_cast<SelectStmt*>(BodySelect(stmt));
}

std::vector<std::pair<std::string, std::string>> VisibleSelf(
    const Schema& schema) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) out.emplace_back(f.name, f.name);
  return out;
}

// The name column references bind to: the explicit alias, else the
// relation name (matches the executor's scoping).
std::string BindingName(const FromItem& item) {
  return item.alias.empty() ? item.relation : item.alias;
}

struct ClassifiedConjunct {
  ExprPtr original;    // as parsed (the leaf rewrite keeps these)
  ExprPtr normalized;  // resolved + canonically normalized
  std::string fp;
  bool shareable = false;
};

// Splits, resolves, normalizes and fingerprints a WHERE clause against a
// single-source scope.
Result<std::vector<ClassifiedConjunct>> ClassifyConjuncts(
    const ExprPtr& where, const std::string& binding, const Schema& schema) {
  std::vector<ClassifiedConjunct> out;
  std::vector<ExprPtr> split;
  SplitConjuncts(where, &split);
  NameScope scope;
  scope.AddSource(binding, VisibleSelf(schema));
  for (const ExprPtr& c : split) {
    ClassifiedConjunct cc;
    cc.original = c;
    ASSIGN_OR_RETURN(ExprPtr resolved,
                     ResolveColumns(c, scope, /*allow_unresolved=*/true));
    cc.normalized = NormalizePredicate(resolved);
    cc.fp = FingerprintHex(cc.normalized->ToString());
    if (IsStreamStatic(*cc.normalized)) {
      // Shareable only when the stage can evaluate it standalone: every
      // name resolves against the source schema and the result is boolean.
      Result<DataType> t = InferExprType(schema, *cc.normalized);
      cc.shareable = t.ok() && *t == DataType::kBool;
    }
    out.push_back(std::move(cc));
  }
  return out;
}

std::vector<Conjunct> ToConjuncts(const std::vector<ClassifiedConjunct>& ccs,
                                  const CostModel& cost) {
  std::vector<Conjunct> out;
  out.reserve(ccs.size());
  for (const ClassifiedConjunct& cc : ccs) {
    Conjunct c;
    c.expr = cc.normalized;
    c.fp = cc.fp;
    c.est_sel = cost.EstimateSelectivity(*cc.normalized, cc.fp);
    c.shareable = cc.shareable;
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

Result<CompiledQuery> CompileContinuous(core::Engine* engine,
                                        const std::string& name,
                                        std::shared_ptr<Statement> stmt,
                                        const CostModel& cost) {
  const SelectStmt* body = BodySelect(*stmt);
  if (body == nullptr) {
    return Status::Unsupported("not a SELECT / INSERT .. SELECT statement");
  }
  if (!stmt->subqueries.empty()) {
    return Status::Unsupported("scalar subqueries are not plannable");
  }
  if (stmt->kind == Statement::Kind::kInsert) {
    const std::string& target = stmt->insert->target;
    // A direct factory resolves a missing target once a firing finds it
    // created; the shared path needs the schema up front, so it runs direct.
    if (!engine->HasBasket(target) && !engine->catalog().HasTable(target)) {
      return Status::Unsupported("insert target does not exist yet: " +
                                 target);
    }
  }
  if (body->from.size() != 1 ||
      body->from[0].kind != FromItem::Kind::kBasketExpr ||
      body->from[0].basket_query == nullptr) {
    return Status::Unsupported(
        "plannable queries read exactly one basket expression");
  }
  const SelectStmt& inner = *body->from[0].basket_query;
  if (inner.from.size() != 1 ||
      inner.from[0].kind != FromItem::Kind::kRelation) {
    return Status::Unsupported("basket expression must name one basket");
  }
  const std::string& source = inner.from[0].relation;
  if (!engine->HasBasket(source)) {
    return Status::Unsupported("source is not a basket: " + source);
  }
  const bool plain_star = inner.items.size() == 1 && inner.items[0].star &&
                          inner.items[0].star_qualifier.empty();
  if (!plain_star || inner.distinct || !inner.group_by.empty() ||
      inner.having != nullptr) {
    return Status::Unsupported("basket expression must be a plain select *");
  }
  ASSIGN_OR_RETURN(core::BasketPtr basket, engine->GetBasket(source));
  const Schema& schema = basket->schema();

  CompiledQuery q;
  q.name = name;
  q.source_basket = source;
  q.stmt = std::move(stmt);
  q.window_trivial = !inner.top_n.has_value() && inner.order_by.empty();
  q.min_tuples = inner.top_n.value_or(1);

  ASSIGN_OR_RETURN(
      std::vector<ClassifiedConjunct> inner_cc,
      ClassifyConjuncts(inner.where, BindingName(inner.from[0]), schema));
  // The outer scope sees the window under the basket expression's alias; a
  // plain-star window exposes the full source schema.
  ASSIGN_OR_RETURN(
      std::vector<ClassifiedConjunct> outer_cc,
      ClassifyConjuncts(body->where, body->from[0].alias, schema));

  for (Conjunct& c : ToConjuncts(inner_cc, cost)) {
    (c.shareable ? q.shared : q.residual).push_back(std::move(c));
  }
  for (Conjunct& c : ToConjuncts(outer_cc, cost)) {
    // Outer conjuncts may only cross a non-trivial window if it cannot
    // change their input set — i.e. never. With a trivial (pass-through)
    // window pushing them down is safe.
    (q.window_trivial && c.shareable ? q.shared : q.residual)
        .push_back(std::move(c));
  }
  return q;
}

Result<std::shared_ptr<Statement>> MakeLeafStatement(
    core::Engine* engine, const CompiledQuery& q,
    const std::string& leaf_basket, const std::set<std::string>& strip_fps) {
  std::shared_ptr<Statement> clone = CloneStatement(*q.stmt);
  SelectStmt* body = MutableBodySelect(*clone);
  if (body == nullptr || body->from.size() != 1 ||
      body->from[0].basket_query == nullptr) {
    return Status::Internal("leaf rewrite on a non-plannable statement");
  }
  SelectStmt& inner = *body->from[0].basket_query;
  const std::string binding = BindingName(inner.from[0]);
  ASSIGN_OR_RETURN(core::BasketPtr basket, engine->GetBasket(q.source_basket));
  const Schema& schema = basket->schema();

  // Drop every conjunct the shared trie already evaluated upstream.
  // Fingerprints are recomputed through the same resolve+normalize path
  // CompileContinuous used, so they match exactly.
  auto strip = [&](const ExprPtr& where,
                   const std::string& scope_binding) -> Result<ExprPtr> {
    ASSIGN_OR_RETURN(std::vector<ClassifiedConjunct> ccs,
                     ClassifyConjuncts(where, scope_binding, schema));
    std::vector<ExprPtr> keep;
    for (const ClassifiedConjunct& cc : ccs) {
      if (strip_fps.count(cc.fp) == 0) keep.push_back(cc.original);
    }
    return AndAll(keep);
  };
  ASSIGN_OR_RETURN(inner.where, strip(inner.where, binding));
  ASSIGN_OR_RETURN(body->where, strip(body->where, body->from[0].alias));

  // Redirect the consume to the shared leaf basket; keeping the original
  // binding name means every remaining column reference still resolves.
  inner.from[0].alias = binding;
  RetargetLeaf(clone.get(), leaf_basket);
  return clone;
}

bool PassThroughLeaf(const Statement& leaf) {
  if (leaf.kind != Statement::Kind::kSelect) return false;
  const SelectStmt& inner = *BodySelect(leaf)->from[0].basket_query;
  return inner.where == nullptr && inner.order_by.empty() &&
         !inner.top_n.has_value();
}

void RetargetLeaf(Statement* leaf, const std::string& leaf_basket) {
  MutableBodySelect(*leaf)->from[0].basket_query->from[0].relation =
      leaf_basket;
}

namespace {

void RedirectSelect(SelectStmt* stmt,
                    const std::map<std::string, std::string>& leaf_of,
                    bool inside_basket_expr) {
  for (FromItem& f : stmt->from) {
    if (f.kind == FromItem::Kind::kBasketExpr && f.basket_query != nullptr) {
      RedirectSelect(f.basket_query.get(), leaf_of, true);
    } else if (inside_basket_expr) {
      auto it = leaf_of.find(f.relation);
      if (it == leaf_of.end()) continue;
      f.alias = BindingName(f);
      f.relation = it->second;
    }
  }
}

void RedirectStatement(Statement* stmt,
                       const std::map<std::string, std::string>& leaf_of) {
  if (SelectStmt* body = MutableBodySelect(*stmt); body != nullptr) {
    RedirectSelect(body, leaf_of, false);
  }
  if (stmt->kind == Statement::Kind::kWithBlock) {
    RedirectSelect(stmt->with_block->basket_query.get(), leaf_of, true);
    for (StatementPtr& s : stmt->with_block->body) {
      RedirectStatement(s.get(), leaf_of);
    }
  }
  for (auto& sub : stmt->subqueries) {
    if (sub != nullptr) RedirectSelect(sub.get(), leaf_of, false);
  }
}

}  // namespace

std::shared_ptr<Statement> RedirectBasketSources(
    const Statement& stmt, const std::map<std::string, std::string>& leaf_of) {
  std::shared_ptr<Statement> clone = CloneStatement(stmt);
  RedirectStatement(clone.get(), leaf_of);
  return clone;
}

}  // namespace datacell::sql::plan
