#include "sql/executor.h"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <utility>
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
// Every expression below is bound: its column references name actual
// columns of the table it runs over. Scalar subqueries stay in place as
// Call("__subquery", i) until a run substitutes their values; the indices
// a unit references are listed in its `subqueries`, so units without any
// never copy an expression.

// The expressions of one basket expression, kept apart from its baskets so
// that a run with scalar subqueries substitutes into a copy of only these.
struct WindowExprs {
  ExprPtr where;                       // one basket: the window predicate
  std::vector<ops::SortKey> order_by;  // one basket
  ExprPtr residual;                    // merge: what the hash keys leave
  std::vector<ops::ProjectionItem> proj;  // empty for a plain `select *`

  template <typename F>
  void ForEach(F&& f) {
    f(where);
    for (ops::SortKey& k : order_by) f(k.expr);
    f(residual);
    for (ops::ProjectionItem& p : proj) f(p.expr);
  }
};

// A bracketed basket expression (§3.4) bound to its baskets.
struct PreparedWindow {
  core::BasketPtr left;   // the basket read (the left side of a merge)
  core::BasketPtr right;  // a two-basket merge; null otherwise
  std::optional<size_t> top_n;
  std::vector<ops::JoinKey> keys;  // merge
  bool plain_star = false;
  WindowExprs exprs;
  // The one-basket window, built once; a run with scalar subqueries builds
  // its own from the substituted expressions.
  std::optional<core::BasketExpression> window;
  std::vector<size_t> subqueries;
  std::vector<std::string> out_names;
};

// One FROM item.
struct PreparedSource {
  enum class Kind { kWindow, kTemp, kBasket, kTable, kVirtual };
  Kind kind = Kind::kTable;
  std::string name;   // the relation (kTemp/kBasket/kTable/kVirtual)
  std::string alias;  // the binding name the scope uses
  std::unique_ptr<PreparedWindow> window;  // kWindow
  std::shared_ptr<Table> temp;             // kTemp: the WITH binding's slot
  core::BasketPtr basket;                  // kBasket: read without consuming
  std::shared_ptr<Table> table;            // kTable
  std::vector<std::string> names;          // the columns the scope binds
};

// Every expression one SELECT evaluates (see WindowExprs).
struct SelectExprs {
  ExprPtr where;  // over the single source, or over the no-FROM row
  ExprPtr join;   // two sources: the hash join's residual, else the
                  // nested-loop predicate
  std::vector<ops::GroupItem> groups;
  std::vector<ops::AggItem> aggs;
  ExprPtr having;
  std::vector<ops::ProjectionItem> proj;
  std::vector<ops::SortKey> pre_sort;   // ORDER BY over the input
  std::vector<ops::SortKey> post_sort;  // ORDER BY over the output

  template <typename F>
  void ForEach(F&& f) {
    f(where);
    f(join);
    for (ops::GroupItem& g : groups) f(g.expr);
    for (ops::AggItem& a : aggs) f(a.arg);
    f(having);
    for (ops::ProjectionItem& p : proj) f(p.expr);
    for (ops::SortKey& k : pre_sort) f(k.expr);
    for (ops::SortKey& k : post_sort) f(k.expr);
  }
};

struct PreparedSelect {
  std::vector<PreparedSource> sources;
  Table dummy;                         // the one row of a no-FROM select
  std::vector<ops::JoinKey> join_keys;  // two sources; empty = nested loop
  bool aggregated = false;
  bool distinct = false;
  std::vector<ops::GroupItem> distinct_groups;
  std::optional<size_t> top_n;
  SelectExprs exprs;
  std::vector<size_t> subqueries;
  std::vector<std::string> out_names;
};

struct PreparedStmt {
  const Statement* ast = nullptr;
  std::unique_ptr<PreparedSelect> select;  // SELECT, INSERT .. SELECT
  // INSERT .. VALUES rows, and the SET value.
  std::vector<std::vector<ExprPtr>> values;
  ExprPtr value;
  // INSERT target. One that does not exist at prepare resolves on a run.
  bool target_resolved = false;
  core::BasketPtr target_basket;
  std::shared_ptr<Table> target_table;
  Schema target_schema;        // user columns (no arrival column)
  std::vector<int> positions;  // explicit column list, into target_schema
  int trim_column = -1;        // source arrival column the target lacks
  // WITH: the binding's window fills `slot`, which body sources read.
  std::unique_ptr<PreparedWindow> binding;
  std::shared_ptr<Table> slot;
  std::vector<PreparedStmt> body;
  std::vector<size_t> subqueries;  // VALUES / SET
};

struct PreparedStatement {
  const Statement* ast = nullptr;
  PreparedStmt root;
  std::vector<std::unique_ptr<PreparedSelect>> subqueries;  // by index
  // Some bound expression holds a name that is no column: only such a
  // name can be a session variable, so only then does a run snapshot them.
  bool needs_vars = false;
  // Reads a catalog table (or a dc_* table a new one could shadow), or
  // inserts into a target that does not exist yet: a run re-prepares when
  // the catalog changed since `catalog_generation`.
  bool reads_catalog = false;
  uint64_t catalog_generation = 0;
};

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

// Visible (source name, actual name) pairs for a source whose columns keep
// their names.
std::vector<std::pair<std::string, std::string>> VisibleSelf(
    const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(names.size());
  for (const std::string& n : names) out.emplace_back(n, n);
  return out;
}

std::vector<std::string> FieldNames(const Schema& schema) {
  std::vector<std::string> out;
  out.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) out.push_back(f.name);
  return out;
}

std::vector<std::string> ItemNames(
    const std::vector<ops::ProjectionItem>& items) {
  std::vector<std::string> out;
  out.reserve(items.size());
  for (const ops::ProjectionItem& p : items) out.push_back(p.name);
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

// CREATE TABLE / CREATE BASKET.
Result<Table> ExecCreate(core::Engine* engine, const CreateStmt& stmt) {
  Status st;
  Schema schema = SchemaFromColumns(stmt.columns, &st);
  RETURN_NOT_OK(st);
  if (stmt.is_basket) {
    ASSIGN_OR_RETURN(auto b, engine->CreateBasket(stmt.name, schema));
    // CHECK constraints resolve against the basket's full schema and act
    // as the §3.2 silent filter.
    NameScope scope;
    scope.AddSource(stmt.name, VisibleSelf(FieldNames(b->schema())));
    for (const ExprPtr& check : stmt.checks) {
      ASSIGN_OR_RETURN(ExprPtr resolved, ResolveColumns(check, scope, true));
      b->AddConstraint(std::move(resolved));
    }
  } else {
    if (engine->HasBasket(stmt.name)) {
      return Status::AlreadyExists("a basket named '" + stmt.name + "' exists");
    }
    ASSIGN_OR_RETURN(auto t, engine->catalog().CreateTable(stmt.name, schema));
    (void)t;
  }
  return Table();
}

Result<Table> ExecDrop(core::Engine* engine, const DropStmt& stmt) {
  if (stmt.is_basket) {
    RETURN_NOT_OK(engine->DropBasket(stmt.name));
  } else {
    RETURN_NOT_OK(engine->catalog().DropTable(stmt.name));
  }
  return Table();
}

// Applies the side effects of the observability, durability and sharding
// knobs that ride the SET statement.
Status ApplyKnob(const std::string& name, const Value& v) {
  // Observability toggles: `SET dc_trace = 1` starts capturing firing
  // events into the dc_trace ring, `SET dc_metrics = 0` turns off the
  // optional hot-path instrumentation. The variable is still stored, so
  // `SELECT` of it reflects the toggle.
  if (name == "dc_trace" || name == "dc_metrics") {
    bool on = false;
    if (v.is_int()) {
      on = v.int_value() != 0;
    } else if (v.is_bool()) {
      on = v.bool_value();
    } else {
      return Status::InvalidArgument("SET " + name +
                                     " expects 0/1 or a boolean");
    }
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

// Resolves an INSERT target: its user schema, the explicit column list's
// positions and the arrival column a forwarded stream row must drop.
Status ResolveInsertTarget(core::Engine* engine, PreparedStmt* s) {
  const InsertStmt& stmt = *s->ast->insert;
  if (engine->HasBasket(stmt.target)) {
    ASSIGN_OR_RETURN(s->target_basket, engine->GetBasket(stmt.target));
    std::vector<Field> fields(s->target_basket->schema().fields());
    if (s->target_basket->has_arrival_column()) fields.pop_back();
    s->target_schema = Schema(std::move(fields));
  } else {
    ASSIGN_OR_RETURN(s->target_table, engine->catalog().GetTable(stmt.target));
    s->target_schema = s->target_table->schema();
  }
  const size_t arity = s->select != nullptr ? s->select->out_names.size()
                                            : s->values[0].size();
  if (!stmt.columns.empty()) {
    // Scatter the source columns into place, filling the rest with NULLs.
    if (stmt.columns.size() != arity) {
      return Status::InvalidArgument(
          "INSERT column list arity does not match source");
    }
    s->positions.clear();
    for (const std::string& col : stmt.columns) {
      const int idx = s->target_schema.FindField(col);
      if (idx < 0) {
        return Status::BindError("no column '" + col + "' in '" +
                                 stmt.target + "'");
      }
      s->positions.push_back(idx);
    }
  } else if (s->select != nullptr &&
             arity == s->target_schema.num_fields() + 1) {
    // A full-schema stream row (including dc_arrival) forwarded into a
    // basket/table without that column: drop the arrival column by name.
    const std::vector<std::string>& names = s->select->out_names;
    auto it = std::find(names.begin(), names.end(), core::kArrivalColumn);
    s->trim_column = it == names.end() ? -1 : static_cast<int>(it - names.begin());
  }
  s->target_resolved = true;
  return Status::OK();
}

// --- Prepare -----------------------------------------------------------------

class Binder {
 public:
  Binder(core::Engine* engine, PreparedStatement* out, const Subqueries* asts)
      : engine_(engine), out_(out), asts_(asts) {}

  Result<PreparedStmt> Stmt(const Statement& stmt);

 private:
  Result<std::unique_ptr<PreparedSelect>> Select(const SelectStmt& stmt);
  Result<std::unique_ptr<PreparedWindow>> Window(const SelectStmt& stmt);
  Result<PreparedSource> Source(const FromItem& item);

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
    if (out_->subqueries[i] == nullptr) {
      ASSIGN_OR_RETURN(out_->subqueries[i], Select(*(*asts_)[i]));
      if (out_->subqueries[i]->out_names.size() != 1) {
        return Status::BindError("scalar subquery must produce one column");
      }
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

Result<std::unique_ptr<PreparedWindow>> Binder::Window(const SelectStmt& stmt) {
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
  auto w = std::make_unique<PreparedWindow>();
  auto alias_of = [](const FromItem& f) {
    return f.alias.empty() ? f.relation : f.alias;
  };

  if (stmt.from.size() == 1) {
    ASSIGN_OR_RETURN(w->left, engine_->GetBasket(stmt.from[0].relation));
    const std::vector<std::string> names = FieldNames(w->left->schema());
    NameScope scope;
    scope.AddSource(alias_of(stmt.from[0]), VisibleSelf(names));
    ASSIGN_OR_RETURN(w->exprs.where, Bind(stmt.where, scope, &w->subqueries));
    for (const OrderItem& o : stmt.order_by) {
      ASSIGN_OR_RETURN(ExprPtr e, Bind(o.expr, scope, &w->subqueries));
      w->exprs.order_by.push_back({std::move(e), o.ascending});
    }
    w->top_n = stmt.top_n;
    // Inner projection. A plain `select *` keeps the full window (including
    // the arrival column, so enclosing queries can window on it).
    w->plain_star = stmt.items.size() == 1 && stmt.items[0].star &&
                    stmt.items[0].star_qualifier.empty();
    if (w->plain_star) {
      w->out_names = names;
    } else {
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        const SelectItem& item = stmt.items[i];
        if (item.star) {
          ASSIGN_OR_RETURN(auto cols, scope.StarColumns(item.star_qualifier));
          for (const auto& [vis, actual] : cols) {
            w->exprs.proj.push_back({Expr::Col(actual), vis});
          }
          continue;
        }
        ASSIGN_OR_RETURN(ExprPtr e, Bind(item.expr, scope, &w->subqueries));
        w->exprs.proj.push_back({std::move(e), ItemName(item, i)});
      }
      w->out_names = ItemNames(w->exprs.proj);
    }
    if (w->subqueries.empty()) {
      w->window.emplace(w->left);
      w->window->Where(w->exprs.where).OrderBy(w->exprs.order_by);
      if (w->top_n.has_value()) w->window->Top(*w->top_n);
    }
    return w;
  }

  // Two-basket merge (§5 split & merge): delete-on-match join semantics.
  if (stmt.top_n.has_value() || !stmt.order_by.empty()) {
    return Status::BindError(
        "TOP/ORDER BY are not supported in a two-basket merge expression");
  }
  if (stmt.where == nullptr) {
    return Status::BindError("a two-basket merge requires a join predicate");
  }
  ASSIGN_OR_RETURN(w->left, engine_->GetBasket(stmt.from[0].relation));
  ASSIGN_OR_RETURN(w->right, engine_->GetBasket(stmt.from[1].relation));
  const std::vector<std::string> lnames = FieldNames(w->left->schema());

  // Combined-name mapping (right columns renamed on collision, as in
  // MaterializeJoin).
  std::map<std::string, std::string> combined_to_right;
  std::vector<std::pair<std::string, std::string>> rvisible;
  for (const Field& f : w->right->schema().fields()) {
    std::string actual = f.name;
    if (w->left->schema().FindField(actual) >= 0) actual = "r_" + actual;
    combined_to_right[actual] = f.name;
    rvisible.emplace_back(f.name, actual);
  }
  NameScope scope;
  scope.AddSource(alias_of(stmt.from[0]), VisibleSelf(lnames));
  scope.AddSource(alias_of(stmt.from[1]), std::move(rvisible));

  ASSIGN_OR_RETURN(ExprPtr where, Bind(stmt.where, scope, &w->subqueries));
  ASSIGN_OR_RETURN(EquiJoinPlan plan,
                   ExtractEquiJoin(where, lnames, combined_to_right));
  if (plan.keys.empty()) {
    return Status::BindError(
        "a two-basket merge requires at least one equality predicate");
  }
  w->keys = std::move(plan.keys);
  w->exprs.residual = std::move(plan.residual);

  // Inner projection over the combined result.
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.star) {
      ASSIGN_OR_RETURN(auto cols, scope.StarColumns(item.star_qualifier));
      for (const auto& [vis, actual] : cols) {
        // Collapse duplicate output names from the two sides.
        bool dup = false;
        for (const auto& p : w->exprs.proj) {
          if (p.name == vis) dup = true;
        }
        w->exprs.proj.push_back({Expr::Col(actual), dup ? "r_" + vis : vis});
      }
      continue;
    }
    ASSIGN_OR_RETURN(ExprPtr e, Bind(item.expr, scope, &w->subqueries));
    w->exprs.proj.push_back({std::move(e), ItemName(item, i)});
  }
  w->out_names = ItemNames(w->exprs.proj);
  return w;
}

Result<PreparedSource> Binder::Source(const FromItem& item) {
  PreparedSource src;
  if (item.kind == FromItem::Kind::kBasketExpr) {
    src.kind = PreparedSource::Kind::kWindow;
    src.alias = item.alias;
    ASSIGN_OR_RETURN(src.window, Window(*item.basket_query));
    src.names = src.window->out_names;
    return src;
  }
  src.name = item.relation;
  src.alias = item.alias.empty() ? item.relation : item.alias;
  // Resolution order: WITH binding, basket (peek), catalog table, dc_*
  // observability virtual table (so a user relation shadows it).
  if (auto it = temps_.find(src.name); it != temps_.end()) {
    src.kind = PreparedSource::Kind::kTemp;
    src.temp = it->second.slot;
    src.names = it->second.names;
    return src;
  }
  if (engine_->HasBasket(src.name)) {
    // A basket inspected outside a basket expression behaves as a
    // temporary table: tuples are not removed (§3.4).
    src.kind = PreparedSource::Kind::kBasket;
    ASSIGN_OR_RETURN(src.basket, engine_->GetBasket(src.name));
    src.names = FieldNames(src.basket->schema());
    return src;
  }
  out_->reads_catalog = true;
  if (!engine_->catalog().HasTable(src.name) &&
      obs::IsVirtualTable(src.name)) {
    src.kind = PreparedSource::Kind::kVirtual;
    ASSIGN_OR_RETURN(Table t, obs::VirtualTable(engine_, src.name));
    src.names = FieldNames(t.schema());
    return src;
  }
  src.kind = PreparedSource::Kind::kTable;
  ASSIGN_OR_RETURN(src.table, engine_->catalog().GetTable(src.name));
  src.names = FieldNames(src.table->schema());
  return src;
}

Result<std::unique_ptr<PreparedSelect>> Binder::Select(const SelectStmt& stmt) {
  auto s = std::make_unique<PreparedSelect>();
  for (const FromItem& f : stmt.from) {
    ASSIGN_OR_RETURN(PreparedSource src, Source(f));
    s->sources.push_back(std::move(src));
  }
  if (s->sources.size() > 2) {
    return Status::Unsupported("more than two FROM sources");
  }
  SelectExprs& ex = s->exprs;
  std::vector<size_t>* subs = &s->subqueries;

  // --- FROM scope -----------------------------------------------------------
  NameScope scope;
  if (s->sources.empty()) {
    // SELECT with no FROM: one synthetic row.
    s->dummy = Table(Schema({{"_one", DataType::kInt64}}));
    RETURN_NOT_OK(s->dummy.AppendRow({Value(1)}));
    ASSIGN_OR_RETURN(ex.where, BindConst(stmt.where, subs));
  } else if (s->sources.size() == 1) {
    scope.AddSource(s->sources[0].alias, VisibleSelf(s->sources[0].names));
    ASSIGN_OR_RETURN(ex.where, Bind(stmt.where, scope, subs));
  } else {
    const std::vector<std::string>& lnames = s->sources[0].names;
    std::map<std::string, std::string> combined_to_right;
    std::vector<std::pair<std::string, std::string>> rvisible;
    for (const std::string& name : s->sources[1].names) {
      std::string actual = name;
      if (std::find(lnames.begin(), lnames.end(), actual) != lnames.end()) {
        actual = "r_" + actual;
      }
      combined_to_right[actual] = name;
      rvisible.emplace_back(name, actual);
    }
    scope.AddSource(s->sources[0].alias, VisibleSelf(lnames));
    scope.AddSource(s->sources[1].alias, std::move(rvisible));
    if (stmt.where == nullptr) {
      // Cross product via nested loop with a TRUE predicate.
      ex.join = Expr::Lit(Value(true));
    } else {
      ASSIGN_OR_RETURN(ExprPtr w, Bind(stmt.where, scope, subs));
      ASSIGN_OR_RETURN(EquiJoinPlan plan,
                       ExtractEquiJoin(w, lnames, combined_to_right));
      s->join_keys = std::move(plan.keys);
      ex.join = s->join_keys.empty() ? w : plan.residual;
    }
  }

  // --- aggregation ------------------------------------------------------------
  s->aggregated = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const SelectItem& item : stmt.items) {
    if (!item.star && item.expr != nullptr && ContainsAggregate(*item.expr)) {
      s->aggregated = true;
    }
  }

  if (s->aggregated) {
    std::vector<ExprPtr> group_resolved;
    for (size_t g = 0; g < stmt.group_by.size(); ++g) {
      ASSIGN_OR_RETURN(ExprPtr e, Bind(stmt.group_by[g], scope, subs));
      group_resolved.push_back(e);
      ex.groups.push_back({e, "_g" + std::to_string(g)});
    }
    // Rewrite select items and having over the aggregation output.
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.star) {
        return Status::BindError("SELECT * is not valid in an aggregate query");
      }
      ASSIGN_OR_RETURN(ExprPtr e, Bind(item.expr, scope, subs));
      e = SubstituteGroupExprs(e, group_resolved);
      ASSIGN_OR_RETURN(e, ExtractAggregates(e, &ex.aggs));
      ex.proj.push_back({std::move(e), ItemName(item, i)});
    }
    if (stmt.having != nullptr) {
      ASSIGN_OR_RETURN(ExprPtr h, Bind(stmt.having, scope, subs));
      h = SubstituteGroupExprs(h, group_resolved);
      ASSIGN_OR_RETURN(ex.having, ExtractAggregates(h, &ex.aggs));
    }
    DedupeNames(&ex.proj);
  } else {
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.star) {
        if (s->sources.empty()) {
          return Status::BindError("SELECT * requires a FROM clause");
        }
        ASSIGN_OR_RETURN(auto cols, scope.StarColumns(item.star_qualifier));
        for (const auto& [vis, actual] : cols) {
          bool dup = false;
          for (const auto& p : ex.proj) {
            if (p.name == vis) dup = true;
          }
          ex.proj.push_back({Expr::Col(actual), dup ? "r_" + vis : vis});
        }
        continue;
      }
      ASSIGN_OR_RETURN(ExprPtr e, Bind(item.expr, scope, subs));
      ex.proj.push_back({std::move(e), ItemName(item, i)});
    }
    DedupeNames(&ex.proj);
    // ORDER BY keys referencing input columns dropped by the projection
    // (standard SQL allows this) sort the combined input *before*
    // projecting; keys binding to the output sort afterwards.
    if (!stmt.order_by.empty()) {
      NameScope out_scope;
      out_scope.AddSource("", VisibleSelf(ItemNames(ex.proj)));
      bool all_bind_output = true;
      for (const OrderItem& o : stmt.order_by) {
        if (!BindsAgainst(*o.expr, out_scope, scope)) all_bind_output = false;
      }
      if (!all_bind_output) {
        for (const OrderItem& o : stmt.order_by) {
          ASSIGN_OR_RETURN(ExprPtr e, Bind(o.expr, scope, subs));
          ex.pre_sort.push_back({std::move(e), o.ascending});
        }
      }
    }
  }
  s->out_names = ItemNames(ex.proj);

  // --- DISTINCT, ORDER BY, LIMIT -------------------------------------------------
  s->distinct = stmt.distinct;
  if (s->distinct) {
    for (const std::string& name : s->out_names) {
      s->distinct_groups.push_back({Expr::Col(name), name});
    }
  }
  if (!stmt.order_by.empty() && ex.pre_sort.empty()) {
    NameScope out_scope;
    out_scope.AddSource("", VisibleSelf(s->out_names));
    for (const OrderItem& o : stmt.order_by) {
      ASSIGN_OR_RETURN(ExprPtr e, BindOutput(o.expr, out_scope, subs));
      ex.post_sort.push_back({std::move(e), o.ascending});
    }
  }
  s->top_n = stmt.top_n;
  return s;
}

Result<PreparedStmt> Binder::Stmt(const Statement& stmt) {
  PreparedStmt s;
  s.ast = &stmt;
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      ASSIGN_OR_RETURN(s.select, Select(*stmt.select));
      break;
    }
    case Statement::Kind::kInsert: {
      const InsertStmt& ins = *stmt.insert;
      if (!ins.values.empty()) {
        for (const auto& row : ins.values) {
          std::vector<ExprPtr> bound;
          for (const ExprPtr& e : row) {
            ASSIGN_OR_RETURN(ExprPtr b, BindConst(e, &s.subqueries));
            bound.push_back(std::move(b));
          }
          s.values.push_back(std::move(bound));
        }
      } else if (ins.select != nullptr) {
        ASSIGN_OR_RETURN(s.select, Select(*ins.select));
      } else {
        return Status::InvalidArgument("INSERT without VALUES or SELECT");
      }
      if (engine_->HasBasket(ins.target) ||
          engine_->catalog().HasTable(ins.target)) {
        RETURN_NOT_OK(ResolveInsertTarget(engine_, &s));
      }
      // A table target (or one created later) is a catalog dependency.
      if (s.target_basket == nullptr) out_->reads_catalog = true;
      break;
    }
    case Statement::Kind::kSet: {
      ASSIGN_OR_RETURN(s.value, BindConst(stmt.set->value, &s.subqueries));
      break;
    }
    case Statement::Kind::kWithBlock: {
      const WithBlockStmt& with = *stmt.with_block;
      ASSIGN_OR_RETURN(s.binding, Window(*with.basket_query));
      s.slot = std::make_shared<Table>();
      // Body statements bind against the binding's output columns.
      const std::map<std::string, Temp> outer = temps_;
      temps_[with.binding] = Temp{s.slot, s.binding->out_names};
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

class Runner {
 public:
  Runner(core::Engine* engine, PreparedStatement* p) : engine_(engine), p_(p) {
    ctx_.now = engine_->Now();
    if (p_->needs_vars) {
      vars_ = engine_->VariablesSnapshot();
      ctx_.variables = &vars_;
    }
  }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  Result<Table> Stmt(PreparedStmt& s);

 private:
  Result<Table> Select(const PreparedSelect& s);
  Result<Table> Window(const PreparedWindow& w);
  Result<Table> Merge(const PreparedWindow& w, const WindowExprs& ex);
  Result<Table> Source(const PreparedSource& src);
  Result<Table> Insert(PreparedStmt& s);
  Result<SubqueryValues> Subqueries(const std::vector<size_t>& ids);
  // A SET or DECLARE ran: later statements of this run see the new value.
  void RefreshVariables() {
    if (p_->needs_vars) vars_ = engine_->VariablesSnapshot();
  }

  core::Engine* engine_;
  PreparedStatement* p_;
  std::map<std::string, Value> vars_;
  EvalContext ctx_;
};

Result<SubqueryValues> Runner::Subqueries(const std::vector<size_t>& ids) {
  SubqueryValues values;
  for (size_t i : ids) {
    ASSIGN_OR_RETURN(Table result, Select(*p_->subqueries[i]));
    if (result.num_rows() > 1) {
      return Status::InvalidArgument("scalar subquery produced " +
                                     std::to_string(result.num_rows()) +
                                     " rows");
    }
    values[i] = result.num_rows() == 0 ? Value::Null()
                                       : result.column(0).GetValue(0);
  }
  return values;
}

Result<Table> Runner::Source(const PreparedSource& src) {
  switch (src.kind) {
    case PreparedSource::Kind::kWindow:
      return Window(*src.window);
    case PreparedSource::Kind::kTemp:
      return *src.temp;
    case PreparedSource::Kind::kBasket:
      // Peek is a zero-copy COW snapshot, so the rest of the query runs
      // over a stable view without copying the stream or holding the
      // basket lock.
      return src.basket->Peek();
    case PreparedSource::Kind::kTable:
      return *src.table;
    case PreparedSource::Kind::kVirtual:
      // Each SELECT materializes a fresh snapshot of the engine's metrics /
      // trace state — the R-GMA pattern of monitoring-as-relations.
      return obs::VirtualTable(engine_, src.name);
  }
  return Status::Internal("unknown source kind");
}

Result<Table> Runner::Window(const PreparedWindow& w) {
  WindowExprs substituted;
  const WindowExprs* ex = &w.exprs;
  if (!w.subqueries.empty()) {
    ASSIGN_OR_RETURN(SubqueryValues values, Subqueries(w.subqueries));
    substituted = w.exprs;
    substituted.ForEach([&](ExprPtr& e) { e = Substitute(e, values); });
    ex = &substituted;
  }
  if (w.right != nullptr) return Merge(w, *ex);
  Table window;
  if (w.window.has_value()) {
    ASSIGN_OR_RETURN(window, w.window->Evaluate(ctx_));
  } else {
    core::BasketExpression be(w.left);
    be.Where(ex->where).OrderBy(ex->order_by);
    if (w.top_n.has_value()) be.Top(*w.top_n);
    ASSIGN_OR_RETURN(window, be.Evaluate(ctx_));
  }
  if (w.plain_star) return window;
  return ops::Project(window, ex->proj, ctx_);
}

Result<Table> Runner::Merge(const PreparedWindow& w, const WindowExprs& ex) {
  // Lock both baskets for the whole read-join-delete sequence: the matched
  // row indices computed against the snapshots below must still describe
  // the baskets when the deletes run. The snapshots themselves are
  // zero-copy, so holding the locks costs contention, not copying. The
  // locks are taken in ascending address order — the canonical basket-lock
  // order (Factory::Fire) — so two sessions merging the same pair with
  // opposite FROM orders cannot deadlock.
  core::Basket* const lo = std::min(w.left.get(), w.right.get());
  core::Basket* const hi = std::max(w.left.get(), w.right.get());
  core::BasketLock lock_lo(lo);
  core::BasketLock lock_hi(hi);
  Table ltab = w.left->Peek();
  Table rtab = w.right->Peek();

  ASSIGN_OR_RETURN(ops::JoinMatches matches,
                   ops::HashJoinIndices(ltab, rtab, w.keys));
  ASSIGN_OR_RETURN(Table combined, ops::MaterializeJoin(ltab, rtab, matches));
  SelVector surviving(combined.num_rows());
  for (size_t i = 0; i < surviving.size(); ++i) {
    surviving[i] = static_cast<uint32_t>(i);
  }
  if (ex.residual != nullptr) {
    ASSIGN_OR_RETURN(surviving, EvalPredicate(combined, *ex.residual, ctx_));
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
  RETURN_NOT_OK(erase_side(w.left.get(), matches.left));
  RETURN_NOT_OK(erase_side(w.right.get(), matches.right));
  return ops::Project(result, ex.proj, ctx_);
}

Result<Table> Runner::Select(const PreparedSelect& s) {
  // FROM reads at most two sources (Prepare rejects more).
  DC_DCHECK(s.sources.size() <= 2);
  std::array<Table, 2> inputs;
  for (size_t i = 0; i < s.sources.size(); ++i) {
    ASSIGN_OR_RETURN(inputs[i], Source(s.sources[i]));
  }
  // Scalar subqueries run after FROM: a consuming FROM acts first.
  SelectExprs substituted;
  const SelectExprs* ex = &s.exprs;
  if (!s.subqueries.empty()) {
    ASSIGN_OR_RETURN(SubqueryValues values, Subqueries(s.subqueries));
    substituted = s.exprs;
    substituted.ForEach([&](ExprPtr& e) { e = Substitute(e, values); });
    ex = &substituted;
  }

  Table combined;
  if (s.sources.empty()) {
    combined = s.dummy;
  } else if (s.sources.size() == 1) {
    combined = std::move(inputs[0]);
  } else {
    const Table& ltab = inputs[0];
    const Table& rtab = inputs[1];
    ops::JoinMatches matches;
    if (!s.join_keys.empty()) {
      ASSIGN_OR_RETURN(matches, ops::HashJoinIndices(ltab, rtab, s.join_keys));
    } else {
      ASSIGN_OR_RETURN(matches, ops::NestedLoopJoin(ltab, rtab, *ex->join, ctx_));
    }
    ASSIGN_OR_RETURN(combined, ops::MaterializeJoin(ltab, rtab, matches));
    if (!s.join_keys.empty() && ex->join != nullptr) {
      ASSIGN_OR_RETURN(SelVector sel, EvalPredicate(combined, *ex->join, ctx_));
      combined = combined.Take(sel);
    }
  }
  if (ex->where != nullptr) {
    ASSIGN_OR_RETURN(SelVector sel, EvalPredicate(combined, *ex->where, ctx_));
    combined = combined.Take(sel);
  }

  Table projected;
  if (s.aggregated) {
    ASSIGN_OR_RETURN(Table intermediate,
                     ops::Aggregate(combined, ex->groups, ex->aggs, ctx_));
    if (ex->having != nullptr) {
      ASSIGN_OR_RETURN(SelVector sel,
                       EvalPredicate(intermediate, *ex->having, ctx_));
      intermediate = intermediate.Take(sel);
    }
    ASSIGN_OR_RETURN(projected, ops::Project(intermediate, ex->proj, ctx_));
  } else {
    if (!ex->pre_sort.empty()) {
      ASSIGN_OR_RETURN(combined, ops::SortTable(combined, ex->pre_sort, ctx_));
    }
    ASSIGN_OR_RETURN(projected, ops::Project(combined, ex->proj, ctx_));
  }
  if (s.distinct) {
    ASSIGN_OR_RETURN(projected,
                     ops::Aggregate(projected, s.distinct_groups, {}, ctx_));
  }
  if (!ex->post_sort.empty()) {
    ASSIGN_OR_RETURN(projected, ops::SortTable(projected, ex->post_sort, ctx_));
  }
  if (s.top_n.has_value() && projected.num_rows() > *s.top_n) {
    SelVector prefix(*s.top_n);
    for (size_t i = 0; i < prefix.size(); ++i) {
      prefix[i] = static_cast<uint32_t>(i);
    }
    projected = projected.Take(prefix);
  }
  return projected;
}

Result<Table> Runner::Insert(PreparedStmt& s) {
  // Materialize the source rows.
  Table source;
  if (!s.values.empty()) {
    SubqueryValues values;
    if (!s.subqueries.empty()) {
      ASSIGN_OR_RETURN(values, Subqueries(s.subqueries));
    }
    std::vector<Row> rows;
    for (const auto& exprs : s.values) {
      Row row;
      for (const ExprPtr& e : exprs) {
        ASSIGN_OR_RETURN(Value v, EvalConst(*Substitute(e, values), ctx_));
        row.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
    }
    // Infer a schema from the first non-null value in each position.
    std::vector<Field> fields;
    fields.reserve(rows[0].size());
    for (size_t c = 0; c < rows[0].size(); ++c) {
      DataType t = DataType::kInt64;
      for (const Row& r : rows) {
        if (c < r.size() && !r[c].is_null()) {
          if (r[c].is_double()) t = DataType::kDouble;
          if (r[c].is_bool()) t = DataType::kBool;
          if (r[c].is_string()) t = DataType::kString;
          break;
        }
      }
      fields.push_back({"v" + std::to_string(c), t});
    }
    source = Table(Schema(std::move(fields)));
    for (const Row& r : rows) {
      RETURN_NOT_OK(source.AppendRow(r));
    }
  } else {
    ASSIGN_OR_RETURN(source, Select(*s.select));
  }

  if (!s.target_resolved) RETURN_NOT_OK(ResolveInsertTarget(engine_, &s));
  if (!s.positions.empty()) {
    Table widened(s.target_schema);
    for (size_t r = 0; r < source.num_rows(); ++r) {
      Row row(s.target_schema.num_fields(), Value::Null());
      for (size_t c = 0; c < s.positions.size(); ++c) {
        row[static_cast<size_t>(s.positions[c])] = source.column(c).GetValue(r);
      }
      RETURN_NOT_OK(widened.AppendRow(row));
    }
    source = std::move(widened);
  } else if (s.trim_column >= 0) {
    std::vector<Field> fields;
    std::vector<Column> columns;
    for (size_t c = 0; c < source.num_columns(); ++c) {
      if (static_cast<int>(c) == s.trim_column) continue;
      fields.push_back(source.schema().field(c));
      columns.push_back(source.column(c));
    }
    ASSIGN_OR_RETURN(Schema trimmed, Schema::Make(std::move(fields)));
    source = Table(std::move(trimmed), std::move(columns));
  }

  ASSIGN_OR_RETURN(Table aligned, ConvertTableTo(s.target_schema, source));
  if (s.target_basket != nullptr) {
    ASSIGN_OR_RETURN(size_t n, s.target_basket->Append(aligned, ctx_.now));
    (void)n;
  } else {
    RETURN_NOT_OK(s.target_table->AppendTable(aligned));
  }
  return Table();
}

Result<Table> Runner::Stmt(PreparedStmt& s) {
  const Statement& stmt = *s.ast;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return Select(*s.select);
    case Statement::Kind::kInsert:
      return Insert(s);
    case Statement::Kind::kCreate:
      return ExecCreate(engine_, *stmt.create);
    case Statement::Kind::kDrop:
      return ExecDrop(engine_, *stmt.drop);
    case Statement::Kind::kDeclare:
      engine_->SetVariable(stmt.declare->name, Value::Null());
      RefreshVariables();
      return Table();
    case Statement::Kind::kSet: {
      SubqueryValues values;
      if (!s.subqueries.empty()) {
        ASSIGN_OR_RETURN(values, Subqueries(s.subqueries));
      }
      ASSIGN_OR_RETURN(Value v, EvalConst(*Substitute(s.value, values), ctx_));
      RETURN_NOT_OK(ApplyKnob(stmt.set->name, v));
      engine_->SetVariable(stmt.set->name, std::move(v));
      RefreshVariables();
      return Table();
    }
    case Statement::Kind::kWithBlock: {
      ASSIGN_OR_RETURN(*s.slot, Window(*s.binding));
      Status st;
      for (PreparedStmt& body : s.body) {
        Result<Table> r = Stmt(body);
        if (!r.ok()) {
          st = r.status();
          break;
        }
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

// --- Describe ----------------------------------------------------------------

std::string Joined(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string KeysText(const std::vector<ops::SortKey>& keys) {
  std::vector<std::string> parts;
  parts.reserve(keys.size());
  for (const ops::SortKey& k : keys) {
    parts.push_back(k.expr->ToString() + (k.ascending ? "" : " desc"));
  }
  return Joined(parts, ", ");
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

std::string DescribeWindow(const PreparedWindow& w) {
  const WindowExprs& ex = w.exprs;
  std::string out;
  if (w.right != nullptr) {
    std::vector<std::string> keys;
    keys.reserve(w.keys.size());
    for (const ops::JoinKey& k : w.keys) keys.push_back(k.left + " = " + k.right);
    out = "merge " + w.left->name() + ", " + w.right->name() + " on " +
          Joined(keys, " and ");
    if (ex.residual != nullptr) out += " where " + ex.residual->ToString();
  } else {
    out = "take " + w.left->name();
    if (ex.where != nullptr) out += " where " + ex.where->ToString();
    if (!ex.order_by.empty()) out += " order by " + KeysText(ex.order_by);
    if (w.top_n.has_value()) out += " top " + std::to_string(*w.top_n);
  }
  if (!w.plain_star) out += std::string(kThen) + "project";
  return out;
}

std::string DescribeSource(const PreparedSource& src) {
  switch (src.kind) {
    case PreparedSource::Kind::kWindow:
      return DescribeWindow(*src.window);
    case PreparedSource::Kind::kTemp:
      return "read " + src.name;
    case PreparedSource::Kind::kBasket:
      return "peek " + src.name;
    case PreparedSource::Kind::kTable:
    case PreparedSource::Kind::kVirtual:
      return "scan " + src.name;
  }
  return "?";
}

std::string DescribeSelect(const PreparedSelect& s) {
  const SelectExprs& ex = s.exprs;
  std::string out;
  if (s.sources.empty()) {
    out = "row";
  } else if (s.sources.size() == 1) {
    out = DescribeSource(s.sources[0]);
  } else {
    out = "(" + DescribeSource(s.sources[0]) + "), (" +
          DescribeSource(s.sources[1]) + ")" + kThen;
    if (!s.join_keys.empty()) {
      std::vector<std::string> keys;
      keys.reserve(s.join_keys.size());
      for (const ops::JoinKey& k : s.join_keys) {
        keys.push_back(k.left + " = " + k.right);
      }
      out += "hash join on " + Joined(keys, " and ");
      if (ex.join != nullptr) out += " where " + ex.join->ToString();
    } else {
      out += "nested-loop join on " + ex.join->ToString();
    }
  }
  if (ex.where != nullptr) out += std::string(kThen) + "filter " + ex.where->ToString();
  if (s.aggregated) {
    out += std::string(kThen) + "aggregate";
    std::vector<std::string> groups;
    std::vector<std::string> aggs;
    groups.reserve(ex.groups.size());
    aggs.reserve(ex.aggs.size());
    for (const ops::GroupItem& g : ex.groups) groups.push_back(g.expr->ToString());
    for (const ops::AggItem& a : ex.aggs) aggs.push_back(AggText(a));
    if (!groups.empty()) out += " group by " + Joined(groups, ", ");
    if (!aggs.empty()) out += " [" + Joined(aggs, ", ") + "]";
    if (ex.having != nullptr) out += std::string(kThen) + "having";
  }
  if (!ex.pre_sort.empty()) out += std::string(kThen) + "sort by " + KeysText(ex.pre_sort);
  out += std::string(kThen) + "project";
  if (s.distinct) out += std::string(kThen) + "distinct";
  if (!ex.post_sort.empty()) out += std::string(kThen) + "sort by " + KeysText(ex.post_sort);
  if (s.top_n.has_value()) out += std::string(kThen) + "top " + std::to_string(*s.top_n);
  return out;
}

std::string DescribeStmt(const PreparedStmt& s) {
  const Statement& stmt = *s.ast;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return DescribeSelect(*s.select);
    case Statement::Kind::kInsert:
      return (s.select != nullptr ? DescribeSelect(*s.select) : "values") +
             kThen + "insert into " + stmt.insert->target;
    case Statement::Kind::kSet:
      return "set " + stmt.set->name;
    case Statement::Kind::kWithBlock: {
      std::vector<std::string> body;
      body.reserve(s.body.size());
      for (const PreparedStmt& b : s.body) body.push_back(DescribeStmt(b));
      return "with " + stmt.with_block->binding + " = " +
             DescribeWindow(*s.binding) + kThen + "{ " + Joined(body, "; ") +
             " }";
    }
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
  if (prepared.reads_catalog &&
      engine_->catalog().generation() != prepared.catalog_generation) {
    // A table was created or dropped since binding: bind again, so a
    // recreated table (possibly with reordered columns) is read afresh.
    ASSIGN_OR_RETURN(PreparedPtr fresh, Prepare(*prepared.ast));
    prepared = std::move(*fresh);
  }
  Runner runner(engine_, &prepared);
  return runner.Stmt(prepared.root);
}

std::string Executor::Describe(const PreparedStatement& prepared) {
  return DescribeStmt(prepared.root);
}

}  // namespace datacell::sql
