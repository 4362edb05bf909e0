#include "sql/executor.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

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

// --- The prepared form -------------------------------------------------------
//
// Prepare builds each SELECT body, and each INSERT, as a chain: a flat list
// of operators held by value. Each owns its bound expressions (their column
// references name actual columns of the table it runs over) and its state;
// its Run takes the previous operator's table, and its Describe is its
// segment of the EXPLAIN chain.
//
// Scalar subqueries stay in place as Call("__subquery", i) until a run
// substitutes their values. Each unit evaluates the ones it references at
// one place: a window before it reads its baskets, VALUES before its rows, a
// select after its FROM (at Chain::from, or in its join between reading the
// sources and joining them). Only an operator whose own expressions
// reference one copies them to substitute the values.

struct PreparedStmt;

namespace {

using Subqueries = std::vector<std::unique_ptr<SelectStmt>>;
using SubqueryValues = std::map<size_t, Value>;

constexpr const char* kThen = " → ";

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

// Aligns `src` to `target`: source column c fills target column
// positions[c] (c itself when `positions` is empty, none when -1), the
// rest are NULL. Identical types copy, int converts to timestamp and back
// and widens to double; anything else is a type error.
Result<Table> Align(const Schema& target, const Table& src,
                    const std::vector<int>& positions) {
  if (positions.empty() && src.num_columns() != target.num_fields()) {
    return Status::TypeMismatch(
        "source arity " + std::to_string(src.num_columns()) +
        " does not match target " + target.ToString());
  }
  std::vector<int> from(target.num_fields(), -1);
  for (size_t c = 0; c < src.num_columns(); ++c) {
    const int t = positions.empty() ? static_cast<int>(c) : positions[c];
    if (t >= 0) from[static_cast<size_t>(t)] = static_cast<int>(c);
  }
  Table out(target);
  for (size_t t = 0; t < target.num_fields(); ++t) {
    Column& dst = out.column(t);
    if (from[t] < 0) {
      for (size_t i = 0; i < src.num_rows(); ++i) dst.AppendNull();
      continue;
    }
    const Column& in = src.column(static_cast<size_t>(from[t]));
    const DataType want = target.field(t).type;
    if (in.type() == want) {
      RETURN_NOT_OK(dst.AppendColumn(in));
    } else if (IsIntegerPhysical(in.type()) &&
               (IsIntegerPhysical(want) || want == DataType::kDouble)) {
      for (size_t i = 0; i < in.size(); ++i) {
        RETURN_NOT_OK(dst.AppendValue(in.GetValue(i)));
      }
    } else {
      return Status::TypeMismatch("cannot insert " +
                                  std::string(DataTypeName(in.type())) +
                                  " into column '" + target.field(t).name +
                                  "' of type " + DataTypeName(want));
    }
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

// Visible (source name, actual name) pairs for a source whose columns keep
// their names.
std::vector<std::pair<std::string, std::string>> VisibleSelf(
    const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(names.size());
  for (const std::string& n : names) out.emplace_back(n, n);
  return out;
}

// The scope over a two-source FROM. The combined table renames a right
// column the left side also has to r_<name>, as MaterializeJoin does;
// `combined_to_right` maps those names back for ExtractEquiJoin.
NameScope JoinScope(const std::string& lalias,
                    const std::vector<std::string>& lnames,
                    const std::string& ralias,
                    const std::vector<std::string>& rnames,
                    std::map<std::string, std::string>* combined_to_right) {
  std::vector<std::pair<std::string, std::string>> rvisible;
  for (const std::string& name : rnames) {
    std::string actual = name;
    if (std::find(lnames.begin(), lnames.end(), name) != lnames.end()) {
      actual = "r_" + name;
    }
    (*combined_to_right)[actual] = name;
    rvisible.emplace_back(name, std::move(actual));
  }
  NameScope scope;
  scope.AddSource(lalias, VisibleSelf(lnames));
  scope.AddSource(ralias, std::move(rvisible));
  return scope;
}

// The names of a schema's fields or of projection items.
template <typename T>
std::vector<std::string> Names(const std::vector<T>& items) {
  std::vector<std::string> out;
  out.reserve(items.size());
  for (const T& item : items) out.push_back(item.name);
  return out;
}

bool IsSubquery(const Expr& e) {
  return e.kind == ExprKind::kCall && e.func == "__subquery";
}

// Replaces the scalar-subquery references in `e` by their values, cloning
// only the paths that hold one.
ExprPtr Substitute(const ExprPtr& e, const SubqueryValues& values) {
  if (e == nullptr) return e;
  if (IsSubquery(*e)) {
    return Expr::Lit(values.at(
        static_cast<size_t>(e->children[0]->literal.int_value())));
  }
  std::shared_ptr<Expr> clone;
  for (size_t i = 0; i < e->children.size(); ++i) {
    ExprPtr c = Substitute(e->children[i], values);
    if (c == e->children[i]) continue;
    if (clone == nullptr) clone = std::make_shared<Expr>(*e);
    clone->children[i] = std::move(c);
  }
  return clone == nullptr ? e : ExprPtr(std::move(clone));
}

// Calls `f` on each expression of an operator's item list (or on one
// expression).
template <typename T, typename F>
void ForEachExpr(T& x, F&& f) {
  if constexpr (std::is_same_v<std::remove_const_t<T>, ExprPtr>) {
    f(x);
  } else {
    for (auto& item : x) {
      if constexpr (std::is_same_v<std::decay_t<decltype(item)>,
                                   ops::AggItem>) {
        f(item.arg);
      } else {
        f(item.expr);
      }
    }
  }
}

bool HasSubquery(const ExprPtr& e) {
  if (e == nullptr) return false;
  if (IsSubquery(*e)) return true;
  return std::any_of(e->children.begin(), e->children.end(),
                     [](const ExprPtr& c) { return HasSubquery(c); });
}

// The texts of `items`, separated by `sep`.
template <typename T, typename F>
std::string Joined(const std::vector<T>& items, const char* sep, F&& text) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out += sep;
    out += text(item);
  }
  return out;
}

std::string KeysText(const std::vector<ops::SortKey>& keys) {
  return Joined(keys, ", ", [](const ops::SortKey& k) {
    return k.expr->ToString() + (k.ascending ? "" : " desc");
  });
}

std::string KeysText(const std::vector<ops::JoinKey>& keys) {
  return Joined(keys, " and ", [](const ops::JoinKey& k) {
    return k.left + " = " + k.right;
  });
}

std::string AggText(const ops::AggItem& a) {
  switch (a.func) {
    case ops::AggFunc::kCountStar: return "count(*)";
    case ops::AggFunc::kCount: return "count(" + a.arg->ToString() + ")";
    case ops::AggFunc::kSum: return "sum(" + a.arg->ToString() + ")";
    case ops::AggFunc::kAvg: return "avg(" + a.arg->ToString() + ")";
    case ops::AggFunc::kMin: return "min(" + a.arg->ToString() + ")";
    case ops::AggFunc::kMax: return "max(" + a.arg->ToString() + ")";
  }
  return "?";
}

struct Chain;

// One run of a prepared statement: one EvalContext (now() is the run's
// `now`), the session variables when some bound expression may name one,
// and the scalar subqueries' values.
struct Runner {
  Runner(core::Engine* e, const PreparedStatement* prepared, Micros now);

  Result<Table> Stmt(const PreparedStmt& s);

  // Passes a table down the chain, each operator taking the previous one's.
  Result<Table> Run(const Chain& chain);
  // Passes the rows of `in` that `sel` selects (all when null) down the
  // chain's operators from `first` on. The first operator reads the
  // selection itself when it can (kReadsSelection); else they are gathered
  // for it.
  Result<Table> Run(const Chain& chain, size_t first, const Table& in,
                    const SelVector* sel);

  // Evaluates the scalar subqueries `ids` into `values`.
  Status Subqueries(const std::vector<size_t>& ids);

  // `x` as an operator evaluates it: its prepared expressions, or a copy in
  // `*copy` with the values substituted when they reference a subquery.
  template <typename T>
  const T& Bound(const T& x, T* copy) const {
    bool refs = false;
    if (!values.empty()) {
      ForEachExpr(x, [&](const ExprPtr& e) { refs = refs || HasSubquery(e); });
    }
    if (!refs) return x;
    *copy = x;
    ForEachExpr(*copy, [&](ExprPtr& e) { e = Substitute(e, values); });
    return *copy;
  }

  core::Engine* engine;
  const PreparedStatement* p;
  std::map<std::string, Value> vars;
  EvalContext eval;
  SubqueryValues values;
};

// --- Operators ---------------------------------------------------------------

// A one-basket window (§3.4): `take b where .. order by .. top n`.
struct TakeOp {
  core::BasketExpression window;
  std::vector<size_t> subqueries;  // the window's

  Result<Table> Run(const Table&, Runner& r) const {
    if (subqueries.empty()) return window.Evaluate(r.eval);
    RETURN_NOT_OK(r.Subqueries(subqueries));
    ExprPtr where;
    std::vector<ops::SortKey> order_by;
    core::BasketExpression bound = window;
    bound.Where(r.Bound(window.predicate(), &where))
        .OrderBy(r.Bound(window.order_by(), &order_by));
    return bound.Evaluate(r.eval);
  }
  std::string Describe() const {
    const ExprPtr& where = window.predicate();
    const std::optional<size_t> top_n = window.top_n();
    std::string out = "take " + window.source()->name();
    if (where != nullptr) out += " where " + where->ToString();
    if (!window.order_by().empty()) {
      out += " order by " + KeysText(window.order_by());
    }
    if (top_n.has_value()) out += " top " + std::to_string(*top_n);
    return out;
  }
};

// A two-basket merge (§5 split & merge): a hash join of the two baskets
// that consumes exactly the matched tuples.
struct MergeOp {
  core::BasketPtr left;
  core::BasketPtr right;
  std::vector<ops::JoinKey> keys;
  ExprPtr residual;  // what the hash keys leave
  std::vector<size_t> subqueries;  // the window's

  Result<Table> Run(const Table&, Runner& r) const {
    RETURN_NOT_OK(r.Subqueries(subqueries));
    // Lock both baskets for the whole read-join-delete sequence, so the
    // matched row indices computed against the zero-copy snapshots below
    // still describe the baskets when the deletes run. Ascending address
    // order is the canonical basket-lock order (Factory::Fire), so two
    // sessions merging the same pair in opposite FROM orders cannot
    // deadlock.
    core::Basket* const lo = std::min(left.get(), right.get());
    core::Basket* const hi = std::max(left.get(), right.get());
    core::BasketLock lock_lo(lo);
    core::BasketLock lock_hi(hi);
    Table ltab = left->Peek();
    Table rtab = right->Peek();

    ASSIGN_OR_RETURN(ops::JoinMatches matches,
                     ops::HashJoinIndices(ltab, rtab, keys));
    ASSIGN_OR_RETURN(Table combined, ops::MaterializeJoin(ltab, rtab, matches));
    SelVector surviving(combined.num_rows());
    std::iota(surviving.begin(), surviving.end(), 0u);
    if (residual != nullptr) {
      ExprPtr copy;
      ASSIGN_OR_RETURN(surviving, EvalPredicate(combined,
                                                *r.Bound(residual, &copy),
                                                r.eval));
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
    return result;
  }
  std::string Describe() const {
    std::string out = "merge " + left->name() + ", " + right->name() +
                      " on " + KeysText(keys);
    if (residual != nullptr) out += " where " + residual->ToString();
    return out;
  }
};

// A basket read outside a basket expression: a zero-copy COW snapshot, so
// the rest of the query runs over a stable view without copying the stream
// or holding the basket lock, and nothing is consumed.
struct PeekOp {
  core::BasketPtr basket;

  Result<Table> Run(const Table&, Runner&) const { return basket->Peek(); }
  std::string Describe() const { return "peek " + basket->name(); }
};

// A WITH binding, from the slot its window fills on each run.
struct ReadOp {
  std::string name;
  std::shared_ptr<Table> slot;

  Result<Table> Run(const Table&, Runner&) const { return *slot; }
  std::string Describe() const { return "read " + name; }
};

// A catalog table or, with no `table`, a dc_* table: each run materializes
// a fresh snapshot of the engine's metrics / trace state — the R-GMA
// pattern of monitoring-as-relations.
struct ScanOp {
  std::string name;
  std::shared_ptr<Table> table;

  Result<Table> Run(const Table&, Runner& r) const {
    if (table == nullptr) return obs::VirtualTable(r.engine, name);
    return *table;
  }
  std::string Describe() const { return "scan " + name; }
};

// The one row a no-FROM select runs over.
struct RowOp {
  Table row;

  Result<Table> Run(const Table&, Runner&) const { return row; }
  std::string Describe() const { return "row"; }
};

// INSERT .. VALUES rows, appended straight into a table of the columns they
// fill: it takes NULL in any column and widens int to double.
struct ValuesOp {
  std::vector<std::vector<ExprPtr>> rows;
  Schema schema;
  std::vector<size_t> subqueries;

  Result<Table> Run(const Table&, Runner& r) const {
    RETURN_NOT_OK(r.Subqueries(subqueries));
    Table out(schema);
    for (const std::vector<ExprPtr>& exprs : rows) {
      Row row;
      for (const ExprPtr& e : exprs) {
        ExprPtr copy;
        ASSIGN_OR_RETURN(Value v, EvalConst(*r.Bound(e, &copy), r.eval));
        row.push_back(std::move(v));
      }
      RETURN_NOT_OK(out.AppendRow(row));
    }
    return out;
  }
  std::string Describe() const { return "values"; }
};

// A two-source FROM: a hash join on `keys` with `pred` as residual, or
// (no keys) a nested-loop join on `pred`.
struct JoinOp {
  std::vector<Chain> sources;  // left, right
  std::vector<ops::JoinKey> keys;
  ExprPtr pred;
  std::vector<size_t> subqueries;  // the select's

  Result<Table> Run(const Table&, Runner& r) const;
  std::string Describe() const;
};

// WHERE, or HAVING over the aggregation output.
struct FilterOp {
  ExprPtr pred;
  bool having = false;

  Result<Table> Run(const Table& in, const SelVector* sel, Runner& r) const {
    ExprPtr copy;
    SelVector kept;
    RETURN_NOT_OK(
        EvalPredicateInto(in, *r.Bound(pred, &copy), sel, r.eval, &kept));
    return in.Take(kept);
  }
  std::string Describe() const {
    return having ? "having" : "filter " + pred->ToString();
  }
};

// The working storage of `state` and `ProjectOp::state` lasts across
// runs: a prepared statement runs on one thread at a time (Executor).
struct AggregateOp {
  std::vector<ops::GroupItem> groups;
  std::vector<ops::AggItem> aggs;
  mutable ops::AggregateState state = {};

  Result<Table> Run(const Table& in, const SelVector* sel, Runner& r) const {
    std::vector<ops::GroupItem> g;
    std::vector<ops::AggItem> a;
    return ops::Aggregate(in, r.Bound(groups, &g), r.Bound(aggs, &a), r.eval,
                          sel, &state);
  }
  std::string Describe() const {
    std::string out = "aggregate";
    if (!groups.empty()) {
      out += " group by " + Joined(groups, ", ", [](const ops::GroupItem& g) {
               return g.expr->ToString();
             });
    }
    if (!aggs.empty()) out += " [" + Joined(aggs, ", ", AggText) + "]";
    return out;
  }
};

struct SortOp {
  std::vector<ops::SortKey> keys;

  Result<Table> Run(const Table& in, Runner& r) const {
    std::vector<ops::SortKey> copy;
    return ops::SortTable(in, r.Bound(keys, &copy), r.eval);
  }
  std::string Describe() const { return "sort by " + KeysText(keys); }
};

struct ProjectOp {
  std::vector<ops::ProjectionItem> items;
  mutable ops::ProjectState state = {};

  Result<Table> Run(const Table& in, const SelVector* sel, Runner& r) const {
    std::vector<ops::ProjectionItem> copy;
    return ops::Project(in, r.Bound(items, &copy), r.eval, sel, &state);
  }
  std::string Describe() const { return "project"; }
};

struct DistinctOp {
  std::vector<ops::GroupItem> groups;  // every output column

  Result<Table> Run(const Table& in, Runner& r) const {
    return ops::Aggregate(in, groups, {}, r.eval);
  }
  std::string Describe() const { return "distinct"; }
};

// An outer TOP / LIMIT: a plain prefix.
struct TopOp {
  size_t n = 0;

  Result<Table> Run(const Table& in, Runner&) const {
    if (in.num_rows() <= n) return in;
    SelVector prefix(n);
    std::iota(prefix.begin(), prefix.end(), 0u);
    return in.Take(prefix);
  }
  std::string Describe() const { return "top " + std::to_string(n); }
};

// Appends its input to a basket or table. Without either, the target did
// not exist at prepare and the insert fails (the statement prepares again
// on its next run).
struct InsertOp {
  std::string target;
  core::BasketPtr basket;
  std::shared_ptr<Table> table;
  Schema schema;  // user columns (no arrival column)
  // The target column each input column fills (-1: a forwarded arrival
  // column the target lacks); empty when they match one for one.
  std::vector<int> positions;

  Result<Table> Run(const Table& in, Runner& r) const {
    if (basket == nullptr && table == nullptr) {
      return r.engine->catalog().GetTable(target).status();
    }
    ASSIGN_OR_RETURN(Table aligned, Align(schema, in, positions));
    if (basket != nullptr) {
      RETURN_NOT_OK(basket->Append(aligned, r.eval.now).status());
    } else {
      RETURN_NOT_OK(table->AppendTable(aligned));
    }
    return Table();
  }
  std::string Describe() const { return "insert into " + target; }
};

using Op = std::variant<TakeOp, MergeOp, PeekOp, ReadOp, ScanOp, RowOp,
                        ValuesOp, JoinOp, FilterOp, AggregateOp, SortOp,
                        ProjectOp, DistinctOp, TopOp, InsertOp>;

// Whether operator type O reads a selection over its input itself.
template <typename O>
constexpr bool kReadsSelection =
    requires(const O& op, const Table& in, const SelVector* sel, Runner& r) {
      op.Run(in, sel, r);
    };

struct Chain {
  std::vector<Op> ops;
  // A select's scalar subqueries, evaluated once its first `from`
  // operators (its FROM) ran.
  size_t from = 0;
  std::vector<size_t> subqueries;

  // Its operators from `first` on, joined with " → ".
  std::string Describe(size_t first = 0) const {
    std::string out;
    for (size_t i = first; i < ops.size(); ++i) {
      if (!out.empty()) out += kThen;
      out += std::visit([](const auto& o) { return o.Describe(); }, ops[i]);
    }
    return out;
  }
};

Result<Table> JoinOp::Run(const Table&, Runner& r) const {
  ASSIGN_OR_RETURN(Table ltab, r.Run(sources[0]));
  ASSIGN_OR_RETURN(Table rtab, r.Run(sources[1]));
  // The select's scalar subqueries run after its FROM: a consuming source
  // acts first.
  RETURN_NOT_OK(r.Subqueries(subqueries));
  ExprPtr copy;
  const ExprPtr& p = r.Bound(pred, &copy);
  ops::JoinMatches matches;
  if (!keys.empty()) {
    ASSIGN_OR_RETURN(matches, ops::HashJoinIndices(ltab, rtab, keys));
  } else {
    ASSIGN_OR_RETURN(matches, ops::NestedLoopJoin(ltab, rtab, *p, r.eval));
  }
  ASSIGN_OR_RETURN(Table combined, ops::MaterializeJoin(ltab, rtab, matches));
  if (!keys.empty() && p != nullptr) {
    ASSIGN_OR_RETURN(SelVector sel, EvalPredicate(combined, *p, r.eval));
    combined = combined.Take(sel);
  }
  return combined;
}

std::string JoinOp::Describe() const {
  std::string out = "(" + sources[0].Describe() + "), (" +
                    sources[1].Describe() + ")" + kThen;
  if (keys.empty()) return out + "nested-loop join on " + pred->ToString();
  out += "hash join on " + KeysText(keys);
  if (pred != nullptr) out += " where " + pred->ToString();
  return out;
}

}  // namespace

struct PreparedStmt {
  const Statement* ast = nullptr;
  Chain chain;  // SELECT and INSERT; a WITH block's binding window
  // SET: the value and its scalar subqueries.
  ExprPtr value;
  std::vector<size_t> subqueries;
  // WITH: the binding's window fills `slot`, which body sources read.
  std::shared_ptr<Table> slot;
  std::vector<PreparedStmt> body;
};

struct PreparedStatement {
  const Statement* ast = nullptr;
  PreparedStmt root;
  std::vector<Chain> subqueries;  // by index; no operators = unreferenced
  FactoryPlaces places;
  // Some bound expression holds a name that is no column: only such a
  // name can be a session variable, so only then does a run snapshot them.
  bool needs_vars = false;
  // Reads a catalog table (or a dc_* table a new one could shadow), or
  // inserts into a table or a target that does not exist yet: a run
  // re-prepares when the catalog changed since `catalog_generation`.
  bool reads_catalog = false;
  uint64_t catalog_generation = 0;
  // Inserts into a target that did not exist: a run prepares again first,
  // until one finds it.
  bool pending_target = false;
};

namespace {

// CREATE TABLE / CREATE BASKET.
Result<Table> ExecCreate(core::Engine* engine, const CreateStmt& stmt) {
  Schema schema;
  for (const auto& [name, type_name] : stmt.columns) {
    ASSIGN_OR_RETURN(DataType type, DataTypeFromName(type_name));
    RETURN_NOT_OK(schema.AddField({name, type}));
  }
  if (stmt.is_basket) {
    ASSIGN_OR_RETURN(auto b, engine->CreateBasket(stmt.name, schema));
    // CHECK constraints resolve against the basket's full schema and act
    // as the §3.2 silent filter.
    NameScope scope;
    scope.AddSource(stmt.name, VisibleSelf(Names(b->schema().fields())));
    for (const ExprPtr& check : stmt.checks) {
      ASSIGN_OR_RETURN(ExprPtr resolved, ResolveColumns(check, scope, true));
      b->AddConstraint(std::move(resolved));
    }
  } else {
    if (engine->HasBasket(stmt.name)) {
      return Status::AlreadyExists("a basket named '" + stmt.name + "' exists");
    }
    RETURN_NOT_OK(engine->catalog().CreateTable(stmt.name, schema).status());
  }
  return Table();
}

// A knob's 0/1 or boolean value.
Result<bool> KnobSwitch(const std::string& name, const Value& v) {
  if (v.is_int()) return v.int_value() != 0;
  if (v.is_bool()) return v.bool_value();
  return Status::InvalidArgument("SET " + name + " expects 0/1 or a boolean");
}

// Applies the side effects of the observability, durability and sharding
// knobs that ride the SET statement.
Status ApplyKnob(const std::string& name, const Value& v) {
  // Observability toggles: `SET dc_trace = 1` starts capturing firing
  // events into the dc_trace ring, `SET dc_metrics = 0` turns off the
  // optional hot-path instrumentation. The variable is still stored, so
  // `SELECT` of it reflects the toggle.
  if (name == "dc_trace" || name == "dc_metrics") {
    ASSIGN_OR_RETURN(bool on, KnobSwitch(name, v));
    if (name == "dc_trace") {
      obs::TraceLog::Global().set_enabled(on);
    } else {
      obs::MetricsRegistry::set_enabled(on);
    }
  }
  // Durability knobs: `SET dc_spill = 0/1` opens/closes the basket spill
  // gate, `SET dc_fsync = 'none'|'batch'|'always'` retunes every open
  // ingest log's fsync policy.
  if (name == "dc_spill") {
    ASSIGN_OR_RETURN(bool on, KnobSwitch(name, v));
    storage::SetSpillEnabled(on);
  }
  if (name == "dc_fsync") {
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
  if (name == "dc_shards") {
    if (!v.is_int() || v.int_value() < 1) {
      return Status::InvalidArgument("SET dc_shards expects an integer >= 1");
    }
  }
  return Status::OK();
}

// --- Prepare -----------------------------------------------------------------

class Binder {
 public:
  Binder(core::Engine* engine, PreparedStatement* out, const Subqueries* asts)
      : engine_(engine), out_(out), asts_(asts) {}

  Result<PreparedStmt> Stmt(const Statement& stmt);

 private:
  // Each appends the operators of one select, basket expression or FROM
  // item to `chain` and the columns they produce to `names`.
  Status Select(const SelectStmt& stmt, Chain* chain,
                std::vector<std::string>* names);
  Status Window(const SelectStmt& stmt, Chain* chain,
                std::vector<std::string>* names);
  // Returns the binding name the FROM scope uses.
  Result<std::string> Source(const FromItem& item, Chain* chain,
                             std::vector<std::string>* names);
  // Binds a select list without aggregates over `scope`. A star expands
  // to the scope's columns; a name both sides of a join produce gets an r_
  // prefix on its second occurrence.
  Status Items(const SelectStmt& stmt, const NameScope& scope,
               std::vector<size_t>* subs,
               std::vector<ops::ProjectionItem>* proj);
  Status Insert(const InsertStmt& ins, PreparedStmt* s);

  // Records a basket the statement consumes, keeping its largest threshold.
  void Consume(const core::BasketPtr& basket, size_t min_tuples);

  // Resolves `e` against `scope`. Notes a name that resolves to no column
  // (a session variable) and prepares the scalar subqueries `e` references,
  // listing them in `subs`.
  Result<ExprPtr> Bind(const ExprPtr& e, const NameScope& scope,
                       std::vector<size_t>* subs);
  // Binds an ORDER BY key against a select's output columns.
  Result<ExprPtr> BindOutput(const ExprPtr& e, const NameScope& out_scope,
                             std::vector<size_t>* subs);
  // An expression evaluated without an input table (VALUES, SET, a no-FROM
  // WHERE): every column name in it is a session variable.
  Result<ExprPtr> BindConst(const ExprPtr& e, std::vector<size_t>* subs);
  Status NoteSubqueries(const Expr& e, std::vector<size_t>* subs);
  void NoteVariables(const Expr& e, const NameScope& scope);

  core::Engine* engine_;
  PreparedStatement* out_;
  const Subqueries* asts_;
  // WITH bindings visible to the statement being prepared.
  struct Temp {
    std::shared_ptr<Table> slot;
    std::vector<std::string> names;
  };
  std::map<std::string, Temp> temps_;
};

void Binder::Consume(const core::BasketPtr& basket, size_t min_tuples) {
  std::vector<PreparedInput>& inputs = out_->places.inputs;
  auto it = std::find_if(inputs.begin(), inputs.end(), [&](const auto& in) {
    return in.basket->name() >= basket->name();
  });
  if (it == inputs.end() || it->basket != basket) {
    inputs.insert(it, PreparedInput{basket, min_tuples});
  } else {
    it->min_tuples = std::max(it->min_tuples, min_tuples);
  }
}

Status Binder::NoteSubqueries(const Expr& e, std::vector<size_t>* subs) {
  if (IsSubquery(e)) {
    const int64_t index = e.children[0]->literal.int_value();
    if (index < 0 || static_cast<size_t>(index) >= asts_->size() ||
        (*asts_)[index] == nullptr) {
      return Status::Internal("dangling scalar subquery reference");
    }
    const size_t i = static_cast<size_t>(index);
    if (std::find(subs->begin(), subs->end(), i) == subs->end()) {
      subs->push_back(i);
    }
    if (out_->subqueries[i].ops.empty()) {
      Chain chain;
      std::vector<std::string> names;
      RETURN_NOT_OK(Select(*(*asts_)[i], &chain, &names));
      if (names.size() != 1) {
        return Status::BindError("scalar subquery must produce one column");
      }
      out_->subqueries[i] = std::move(chain);
    }
    return Status::OK();
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr) RETURN_NOT_OK(NoteSubqueries(*c, subs));
  }
  return Status::OK();
}

void Binder::NoteVariables(const Expr& e, const NameScope& scope) {
  if (e.kind == ExprKind::kColumnRef) {
    if (e.column != "*" && !scope.Contains(e.column)) out_->needs_vars = true;
    return;
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr) NoteVariables(*c, scope);
  }
}

Result<ExprPtr> Binder::Bind(const ExprPtr& e, const NameScope& scope,
                             std::vector<size_t>* subs) {
  if (e == nullptr) return e;
  ASSIGN_OR_RETURN(ExprPtr bound,
                   ResolveColumns(e, scope, /*allow_unresolved=*/true));
  RETURN_NOT_OK(NoteSubqueries(*e, subs));
  NoteVariables(*e, scope);
  return bound;
}

Result<ExprPtr> Binder::BindOutput(const ExprPtr& e, const NameScope& out_scope,
                                   std::vector<size_t>* subs) {
  RETURN_NOT_OK(NoteSubqueries(*e, subs));
  ExprPtr bound = ResolveAgainstOutput(e, out_scope);
  NoteVariables(*bound, out_scope);
  return bound;
}

Result<ExprPtr> Binder::BindConst(const ExprPtr& e, std::vector<size_t>* subs) {
  if (e == nullptr) return e;
  RETURN_NOT_OK(NoteSubqueries(*e, subs));
  NoteVariables(*e, NameScope());
  return e;
}


Status Binder::Items(const SelectStmt& stmt, const NameScope& scope,
                     std::vector<size_t>* subs,
                     std::vector<ops::ProjectionItem>* proj) {
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (!item.star) {
      ASSIGN_OR_RETURN(ExprPtr e, Bind(item.expr, scope, subs));
      proj->push_back({std::move(e), ItemName(item, i)});
      continue;
    }
    if (stmt.from.empty()) {
      return Status::BindError("SELECT * requires a FROM clause");
    }
    ASSIGN_OR_RETURN(auto cols, scope.StarColumns(item.star_qualifier));
    for (const auto& [vis, actual] : cols) {
      const bool dup =
          std::any_of(proj->begin(), proj->end(),
                      [&](const auto& p) { return p.name == vis; });
      proj->push_back({Expr::Col(actual), dup ? "r_" + vis : vis});
    }
  }
  return Status::OK();
}

Status Binder::Window(const SelectStmt& stmt, Chain* chain,
                      std::vector<std::string>* names) {
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
  auto alias_of = [](const FromItem& f) {
    return f.alias.empty() ? f.relation : f.alias;
  };
  std::vector<size_t> subs;
  std::vector<ops::ProjectionItem> proj;

  if (stmt.from.size() == 1) {
    ASSIGN_OR_RETURN(core::BasketPtr basket,
                     engine_->GetBasket(stmt.from[0].relation));
    std::vector<std::string> columns = Names(basket->schema().fields());
    NameScope scope;
    scope.AddSource(alias_of(stmt.from[0]), VisibleSelf(columns));
    ASSIGN_OR_RETURN(ExprPtr where, Bind(stmt.where, scope, &subs));
    std::vector<ops::SortKey> order_by;
    for (const OrderItem& o : stmt.order_by) {
      ASSIGN_OR_RETURN(ExprPtr e, Bind(o.expr, scope, &subs));
      order_by.push_back({std::move(e), o.ascending});
    }
    // Inner projection. A plain `select *` keeps the full window (including
    // the arrival column, so enclosing queries can window on it).
    const bool plain_star = stmt.items.size() == 1 && stmt.items[0].star &&
                            stmt.items[0].star_qualifier.empty();
    if (!plain_star) RETURN_NOT_OK(Items(stmt, scope, &subs, &proj));
    // A single-source `top n` window needs n tuples before it can produce
    // output (§4.1 batch/window control).
    Consume(basket, stmt.top_n.value_or(1));
    core::BasketExpression window(std::move(basket));
    window.Where(std::move(where)).OrderBy(std::move(order_by));
    if (stmt.top_n.has_value()) window.Top(*stmt.top_n);
    chain->ops.push_back(TakeOp{std::move(window), std::move(subs)});
    *names = plain_star ? std::move(columns) : Names(proj);
    if (!plain_star) chain->ops.push_back(ProjectOp{std::move(proj)});
    return Status::OK();
  }

  // Two-basket merge (§5 split & merge): delete-on-match join semantics.
  if (stmt.top_n.has_value() || !stmt.order_by.empty()) {
    return Status::BindError(
        "TOP/ORDER BY are not supported in a two-basket merge expression");
  }
  if (stmt.where == nullptr) {
    return Status::BindError("a two-basket merge requires a join predicate");
  }
  MergeOp merge;
  ASSIGN_OR_RETURN(merge.left, engine_->GetBasket(stmt.from[0].relation));
  ASSIGN_OR_RETURN(merge.right, engine_->GetBasket(stmt.from[1].relation));
  const std::vector<std::string> lnames = Names(merge.left->schema().fields());
  std::map<std::string, std::string> combined_to_right;
  const NameScope scope =
      JoinScope(alias_of(stmt.from[0]), lnames, alias_of(stmt.from[1]),
                Names(merge.right->schema().fields()), &combined_to_right);

  ASSIGN_OR_RETURN(ExprPtr where, Bind(stmt.where, scope, &subs));
  ASSIGN_OR_RETURN(EquiJoinPlan plan,
                   ExtractEquiJoin(where, lnames, combined_to_right));
  if (plan.keys.empty()) {
    return Status::BindError(
        "a two-basket merge requires at least one equality predicate");
  }
  merge.keys = std::move(plan.keys);
  merge.residual = std::move(plan.residual);
  // Inner projection over the combined result.
  RETURN_NOT_OK(Items(stmt, scope, &subs, &proj));
  *names = Names(proj);
  Consume(merge.left, 1);
  Consume(merge.right, 1);
  merge.subqueries = std::move(subs);
  chain->ops.push_back(std::move(merge));
  chain->ops.push_back(ProjectOp{std::move(proj)});
  return Status::OK();
}

Result<std::string> Binder::Source(const FromItem& item, Chain* chain,
                                   std::vector<std::string>* names) {
  if (item.kind == FromItem::Kind::kBasketExpr) {
    RETURN_NOT_OK(Window(*item.basket_query, chain, names));
    return item.alias;
  }
  const std::string& name = item.relation;
  // Resolution order: WITH binding, basket (peek), catalog table, dc_*
  // observability virtual table (so a user relation shadows it).
  if (auto it = temps_.find(name); it != temps_.end()) {
    *names = it->second.names;
    chain->ops.push_back(ReadOp{name, it->second.slot});
  } else if (engine_->HasBasket(name)) {
    // A basket inspected outside a basket expression behaves as a
    // temporary table: tuples are not removed (§3.4).
    ASSIGN_OR_RETURN(core::BasketPtr basket, engine_->GetBasket(name));
    *names = Names(basket->schema().fields());
    chain->ops.push_back(PeekOp{std::move(basket)});
  } else {
    out_->reads_catalog = true;
    std::shared_ptr<Table> table;
    if (!engine_->catalog().HasTable(name) && obs::IsVirtualTable(name)) {
      ASSIGN_OR_RETURN(Table t, obs::VirtualTable(engine_, name));
      *names = Names(t.schema().fields());
    } else {
      ASSIGN_OR_RETURN(table, engine_->catalog().GetTable(name));
      *names = Names(table->schema().fields());
    }
    chain->ops.push_back(ScanOp{name, std::move(table)});
  }
  return item.alias.empty() ? name : item.alias;
}

Status Binder::Select(const SelectStmt& stmt, Chain* chain,
                      std::vector<std::string>* out_names) {
  if (stmt.from.size() > 2) {
    return Status::Unsupported("more than two FROM sources");
  }
  std::vector<size_t> subs;

  // --- FROM scope -----------------------------------------------------------
  NameScope scope;
  ExprPtr where;
  JoinOp join;
  if (stmt.from.empty()) {
    // SELECT with no FROM: one synthetic row.
    Table row(Schema({{"_one", DataType::kInt64}}));
    RETURN_NOT_OK(row.AppendRow({Value(1)}));
    chain->ops.push_back(RowOp{std::move(row)});
    ASSIGN_OR_RETURN(where, BindConst(stmt.where, &subs));
  } else if (stmt.from.size() == 1) {
    std::vector<std::string> names;
    ASSIGN_OR_RETURN(std::string alias, Source(stmt.from[0], chain, &names));
    scope.AddSource(alias, VisibleSelf(names));
    ASSIGN_OR_RETURN(where, Bind(stmt.where, scope, &subs));
  } else {
    join.sources.resize(2);
    std::vector<std::string> lnames;
    std::vector<std::string> rnames;
    ASSIGN_OR_RETURN(std::string lalias,
                     Source(stmt.from[0], &join.sources[0], &lnames));
    ASSIGN_OR_RETURN(std::string ralias,
                     Source(stmt.from[1], &join.sources[1], &rnames));
    std::map<std::string, std::string> combined_to_right;
    scope = JoinScope(lalias, lnames, ralias, rnames, &combined_to_right);
    if (stmt.where == nullptr) {
      // Cross product via nested loop with a TRUE predicate.
      join.pred = Expr::Lit(Value(true));
    } else {
      ASSIGN_OR_RETURN(ExprPtr w, Bind(stmt.where, scope, &subs));
      ASSIGN_OR_RETURN(EquiJoinPlan plan,
                       ExtractEquiJoin(w, lnames, combined_to_right));
      join.keys = std::move(plan.keys);
      join.pred = join.keys.empty() ? w : plan.residual;
    }
  }

  // --- aggregation ------------------------------------------------------------
  const bool aggregated =
      !stmt.group_by.empty() || stmt.having != nullptr ||
      std::any_of(stmt.items.begin(), stmt.items.end(), [](const auto& item) {
        return !item.star && item.expr != nullptr &&
               ContainsAggregate(*item.expr);
      });
  AggregateOp aggregate;
  ExprPtr having;
  std::vector<ops::ProjectionItem> proj;
  std::vector<ops::SortKey> pre_sort;   // ORDER BY over the input
  std::vector<ops::SortKey> post_sort;  // ORDER BY over the output
  if (aggregated) {
    std::vector<ExprPtr> group_resolved;
    for (size_t g = 0; g < stmt.group_by.size(); ++g) {
      ASSIGN_OR_RETURN(ExprPtr e, Bind(stmt.group_by[g], scope, &subs));
      group_resolved.push_back(e);
      aggregate.groups.push_back({e, "_g" + std::to_string(g)});
    }
    // Rewrite select items and having over the aggregation output.
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.star) {
        return Status::BindError("SELECT * is not valid in an aggregate query");
      }
      ASSIGN_OR_RETURN(ExprPtr e, Bind(item.expr, scope, &subs));
      e = SubstituteGroupExprs(e, group_resolved);
      ASSIGN_OR_RETURN(e, ExtractAggregates(e, &aggregate.aggs));
      proj.push_back({std::move(e), ItemName(item, i)});
    }
    if (stmt.having != nullptr) {
      ASSIGN_OR_RETURN(ExprPtr h, Bind(stmt.having, scope, &subs));
      h = SubstituteGroupExprs(h, group_resolved);
      ASSIGN_OR_RETURN(having, ExtractAggregates(h, &aggregate.aggs));
    }
    DedupeNames(&proj);
  } else {
    RETURN_NOT_OK(Items(stmt, scope, &subs, &proj));
    DedupeNames(&proj);
    // ORDER BY keys referencing input columns dropped by the projection
    // (standard SQL allows this) sort the combined input *before*
    // projecting; keys binding to the output sort afterwards.
    if (!stmt.order_by.empty()) {
      NameScope out_scope;
      out_scope.AddSource("", VisibleSelf(Names(proj)));
      bool all_bind_output = true;
      for (const OrderItem& o : stmt.order_by) {
        if (!BindsAgainst(*o.expr, out_scope, scope)) all_bind_output = false;
      }
      if (!all_bind_output) {
        for (const OrderItem& o : stmt.order_by) {
          ASSIGN_OR_RETURN(ExprPtr e, Bind(o.expr, scope, &subs));
          pre_sort.push_back({std::move(e), o.ascending});
        }
      }
    }
  }
  *out_names = Names(proj);

  // --- DISTINCT, ORDER BY, LIMIT -------------------------------------------------
  if (!stmt.order_by.empty() && pre_sort.empty()) {
    NameScope out_scope;
    out_scope.AddSource("", VisibleSelf(*out_names));
    for (const OrderItem& o : stmt.order_by) {
      ASSIGN_OR_RETURN(ExprPtr e, BindOutput(o.expr, out_scope, &subs));
      post_sort.push_back({std::move(e), o.ascending});
    }
  }

  // --- the chain ------------------------------------------------------------
  if (join.sources.empty()) {
    chain->from = chain->ops.size();
    chain->subqueries = std::move(subs);
  } else {
    join.subqueries = std::move(subs);
    chain->ops.push_back(std::move(join));
  }
  if (where != nullptr) chain->ops.push_back(FilterOp{std::move(where)});
  if (aggregated) {
    chain->ops.push_back(std::move(aggregate));
    if (having != nullptr) {
      chain->ops.push_back(FilterOp{std::move(having), /*having=*/true});
    }
  }
  if (!pre_sort.empty()) chain->ops.push_back(SortOp{std::move(pre_sort)});
  chain->ops.push_back(ProjectOp{std::move(proj)});
  if (stmt.distinct) {
    DistinctOp distinct;
    for (const std::string& name : *out_names) {
      distinct.groups.push_back({Expr::Col(name), name});
    }
    chain->ops.push_back(std::move(distinct));
  }
  if (!post_sort.empty()) chain->ops.push_back(SortOp{std::move(post_sort)});
  if (stmt.top_n.has_value()) chain->ops.push_back(TopOp{*stmt.top_n});
  return Status::OK();
}

Status Binder::Insert(const InsertStmt& ins, PreparedStmt* s) {
  ValuesOp values;
  std::vector<std::string> names;  // a SELECT source's columns
  if (ins.select != nullptr) {
    RETURN_NOT_OK(Select(*ins.select, &s->chain, &names));
  } else if (ins.values.empty()) {
    return Status::InvalidArgument("INSERT without VALUES or SELECT");
  }
  for (const auto& row : ins.values) {
    std::vector<ExprPtr> bound;
    for (const ExprPtr& e : row) {
      ASSIGN_OR_RETURN(ExprPtr b, BindConst(e, &values.subqueries));
      bound.push_back(std::move(b));
    }
    values.rows.push_back(std::move(bound));
  }
  const size_t arity =
      ins.select != nullptr ? names.size() : ins.values[0].size();
  InsertOp insert;
  insert.target = ins.target;
  if (engine_->HasBasket(ins.target)) {
    ASSIGN_OR_RETURN(insert.basket, engine_->GetBasket(ins.target));
    std::vector<Field> fields(insert.basket->schema().fields());
    if (insert.basket->has_arrival_column()) fields.pop_back();
    insert.schema = Schema(std::move(fields));
    out_->places.outputs.push_back(insert.basket);
  } else if (engine_->catalog().HasTable(ins.target)) {
    ASSIGN_OR_RETURN(insert.table, engine_->catalog().GetTable(ins.target));
    insert.schema = insert.table->schema();
  } else {
    // Nothing to type VALUES rows by: the insert fails on its target until
    // a run finds it.
    out_->pending_target = true;
    values.rows.clear();
  }
  // A table target (or one created later) is a catalog dependency.
  if (insert.basket == nullptr) out_->reads_catalog = true;
  const bool resolved = insert.basket != nullptr || insert.table != nullptr;
  std::vector<Field> filled;  // the columns a VALUES row fills
  if (!ins.columns.empty() && resolved) {
    // Scatter the source columns into place, filling the rest with NULLs.
    if (ins.columns.size() != arity) {
      return Status::InvalidArgument(
          "INSERT column list arity does not match source");
    }
    for (const std::string& col : ins.columns) {
      const int idx = insert.schema.FindField(col);
      if (idx < 0) {
        return Status::BindError("no column '" + col + "' in '" + ins.target +
                                 "'");
      }
      insert.positions.push_back(idx);
      filled.push_back(insert.schema.field(idx));
    }
  } else if (resolved && ins.select != nullptr &&
             arity == insert.schema.num_fields() + 1) {
    // A full-schema stream row (including dc_arrival) forwarded into a
    // basket/table without that column: drop the arrival column by name.
    auto it = std::find(names.begin(), names.end(), core::kArrivalColumn);
    const int trim = static_cast<int>(it - names.begin());
    for (int c = 0; it != names.end() && c < static_cast<int>(arity); ++c) {
      insert.positions.push_back(c < trim ? c : c == trim ? -1 : c - 1);
    }
  }
  if (ins.select == nullptr) {
    values.schema = filled.empty() ? insert.schema : Schema(std::move(filled));
    s->chain.ops.push_back(std::move(values));
  }
  s->chain.ops.push_back(std::move(insert));
  return Status::OK();
}

Result<PreparedStmt> Binder::Stmt(const Statement& stmt) {
  PreparedStmt s;
  s.ast = &stmt;
  std::vector<std::string> names;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      RETURN_NOT_OK(Select(*stmt.select, &s.chain, &names));
      break;
    case Statement::Kind::kInsert:
      RETURN_NOT_OK(Insert(*stmt.insert, &s));
      break;
    case Statement::Kind::kSet: {
      ASSIGN_OR_RETURN(s.value, BindConst(stmt.set->value, &s.subqueries));
      break;
    }
    case Statement::Kind::kWithBlock: {
      const WithBlockStmt& with = *stmt.with_block;
      RETURN_NOT_OK(Window(*with.basket_query, &s.chain, &names));
      s.slot = std::make_shared<Table>();
      // Body statements bind against the binding's output columns.
      const std::map<std::string, Temp> outer = temps_;
      temps_[with.binding] = Temp{s.slot, std::move(names)};
      for (const StatementPtr& body : with.body) {
        Result<PreparedStmt> b = Stmt(*body);
        if (!b.ok()) return b.status();
        s.body.push_back(std::move(*b));
      }
      temps_ = outer;
      break;
    }
    case Statement::Kind::kExplain:
      // The plan surface lives in the session (it owns the multi-query
      // optimizer whose sharing decisions EXPLAIN reports); a bare
      // executor has no standing-query set to explain against.
      return Status::Unsupported(
          "EXPLAIN is only available through a Session");
    case Statement::Kind::kCreate:
    case Statement::Kind::kDrop:
    case Statement::Kind::kDeclare:
      break;  // nothing to bind: they only act when run
  }
  return s;
}

// --- Run ---------------------------------------------------------------------

Runner::Runner(core::Engine* e, const PreparedStatement* prepared,
               Micros now)
    : engine(e), p(prepared) {
  eval.now = now;
  if (p->needs_vars) {
    vars = engine->VariablesSnapshot();
    eval.variables = &vars;
  }
}

Result<Table> Runner::Run(const Chain& chain) {
  return Run(chain, 0, Table(), nullptr);
}

Result<Table> Runner::Run(const Chain& chain, size_t first, const Table& in,
                          const SelVector* sel) {
  if (first >= chain.ops.size()) return sel == nullptr ? in : in.Take(*sel);
  const Table* cur = &in;
  Table t;
  for (size_t i = first; i < chain.ops.size(); ++i) {
    // Scalar subqueries run after FROM: a consuming FROM acts first.
    if (i == chain.from) RETURN_NOT_OK(Subqueries(chain.subqueries));
    Result<Table> out = std::visit(
        [&](const auto& op) -> Result<Table> {
          if constexpr (kReadsSelection<std::decay_t<decltype(op)>>) {
            return op.Run(*cur, sel, *this);
          } else {
            if (sel == nullptr) return op.Run(*cur, *this);
            return op.Run(cur->Take(*sel), *this);
          }
        },
        chain.ops[i]);
    if (!out.ok()) return out.status();
    t = std::move(*out);
    cur = &t;
    sel = nullptr;
  }
  return t;
}

Status Runner::Subqueries(const std::vector<size_t>& ids) {
  for (size_t i : ids) {
    ASSIGN_OR_RETURN(Table result, Run(p->subqueries[i]));
    if (result.num_rows() > 1) {
      return Status::InvalidArgument("scalar subquery produced " +
                                     std::to_string(result.num_rows()) +
                                     " rows");
    }
    values[i] = result.num_rows() == 0 ? Value::Null()
                                        : result.column(0).GetValue(0);
  }
  return Status::OK();
}

Result<Table> Runner::Stmt(const PreparedStmt& s) {
  const Statement& stmt = *s.ast;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
    case Statement::Kind::kInsert:
      return Run(s.chain);
    case Statement::Kind::kCreate:
      return ExecCreate(engine, *stmt.create);
    case Statement::Kind::kDrop:
      RETURN_NOT_OK(stmt.drop->is_basket
                        ? engine->DropBasket(stmt.drop->name)
                        : engine->catalog().DropTable(stmt.drop->name));
      return Table();
    case Statement::Kind::kDeclare:
      engine->SetVariable(stmt.declare->name, Value::Null());
      // Later statements of this run see the new value.
      if (p->needs_vars) vars = engine->VariablesSnapshot();
      return Table();
    case Statement::Kind::kSet: {
      RETURN_NOT_OK(Subqueries(s.subqueries));
      ExprPtr copy;
      ASSIGN_OR_RETURN(Value v, EvalConst(*Bound(s.value, &copy), eval));
      RETURN_NOT_OK(ApplyKnob(stmt.set->name, v));
      engine->SetVariable(stmt.set->name, std::move(v));
      if (p->needs_vars) vars = engine->VariablesSnapshot();
      return Table();
    }
    case Statement::Kind::kWithBlock: {
      ASSIGN_OR_RETURN(*s.slot, Run(s.chain));
      Status st;
      for (const PreparedStmt& body : s.body) {
        st = Stmt(body).status();
        if (!st.ok()) break;
      }
      *s.slot = Table();
      RETURN_NOT_OK(st);
      return Table();
    }
    case Statement::Kind::kExplain:
      break;  // Prepare rejects it
  }
  return Status::Internal("unknown statement kind");
}

std::string DescribeStmt(const PreparedStmt& s) {
  const Statement& stmt = *s.ast;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
    case Statement::Kind::kInsert:
      return s.chain.Describe();
    case Statement::Kind::kSet:
      return "set " + stmt.set->name;
    case Statement::Kind::kWithBlock:
      return "with " + stmt.with_block->binding + " = " + s.chain.Describe() +
             kThen + "{ " + Joined(s.body, "; ", DescribeStmt) + " }";
    case Statement::Kind::kCreate:
      return "create " + stmt.create->name;
    case Statement::Kind::kDrop:
      return "drop " + stmt.drop->name;
    case Statement::Kind::kDeclare:
      return "declare " + stmt.declare->name;
    case Statement::Kind::kExplain:
      break;
  }
  return "?";
}

}  // namespace

Result<Table> Executor::Execute(const Statement& stmt) const {
  ASSIGN_OR_RETURN(PreparedPtr prepared, Prepare(stmt));
  return Run(*prepared);
}

Result<PreparedPtr> Executor::Prepare(const Statement& stmt) const {
  auto p = std::make_shared<PreparedStatement>();
  p->ast = &stmt;
  p->catalog_generation = engine_->catalog().generation();
  p->subqueries.resize(stmt.subqueries.size());
  Binder binder(engine_, p.get(), &stmt.subqueries);
  ASSIGN_OR_RETURN(p->root, binder.Stmt(stmt));
  return p;
}

Result<Table> Executor::Run(PreparedStatement& prepared) const {
  if (prepared.pending_target ||
      (prepared.reads_catalog &&
       engine_->catalog().generation() != prepared.catalog_generation)) {
    // A table was created or dropped since binding, or an INSERT target
    // was missing: bind again, so a recreated table (possibly with
    // reordered columns) is read afresh and a new target is found.
    ASSIGN_OR_RETURN(PreparedPtr fresh, Prepare(*prepared.ast));
    prepared = std::move(*fresh);
  }
  Runner runner(engine_, &prepared, engine_->Now());
  return runner.Stmt(prepared.root);
}

bool Executor::PassThrough(const PreparedStatement& prepared) {
  if (prepared.ast->kind != Statement::Kind::kSelect ||
      prepared.reads_catalog || prepared.pending_target ||
      prepared.places.inputs.size() != 1 ||
      prepared.places.inputs[0].min_tuples != 1) {
    return false;
  }
  const std::vector<Op>& ops = prepared.root.chain.ops;
  const TakeOp* take = ops.empty() ? nullptr : std::get_if<TakeOp>(&ops[0]);
  return take != nullptr && take->subqueries.empty() &&
         take->window.predicate() == nullptr &&
         take->window.order_by().empty() && !take->window.top_n().has_value();
}

Result<Table> Executor::RunOver(const PreparedStatement& prepared,
                                const Table& rows, const SelVector* sel,
                                Micros now) const {
  Runner runner(engine_, &prepared, now);
  return runner.Run(prepared.root.chain, 1, rows, sel);
}

std::string Executor::Describe(const PreparedStatement& prepared) {
  return DescribeStmt(prepared.root);
}

std::string Executor::DescribeOver(const PreparedStatement& prepared) {
  return prepared.root.chain.Describe(1);
}

const FactoryPlaces& Executor::Places(const PreparedStatement& prepared) {
  return prepared.places;
}

}  // namespace datacell::sql
