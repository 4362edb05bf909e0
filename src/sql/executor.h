#ifndef DATACELL_SQL_EXECUTOR_H_
#define DATACELL_SQL_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sql/ast.h"
#include "util/status.h"

namespace datacell::sql {

/// A statement bound against the engine once: its baskets, tables and WITH
/// bindings are looked up, every name is resolved, aggregates are
/// extracted, ORDER BY is placed, joins are planned, and each SELECT body
/// is one list of operators. Opaque outside the executor.
struct PreparedStatement;
using PreparedPtr = std::shared_ptr<PreparedStatement>;

/// A basket a statement consumes through a basket expression, with the
/// number of tuples a firing waits for: n for a one-basket `top n` window
/// (§4.1), else 1.
struct PreparedInput {
  core::BasketPtr basket;
  size_t min_tuples = 1;
};

/// Where a continuous statement's factory sits in the Petri net, as Prepare
/// resolved it: its consumed baskets (by name, each with its largest
/// threshold) and the existing baskets it inserts into (statement order).
struct FactoryPlaces {
  std::vector<PreparedInput> inputs;
  std::vector<core::BasketPtr> outputs;
};

/// Runs SQL statements against a core::Engine in two steps.
///
/// Prepare does all binding once. Run only evaluates kernels over the
/// current contents: it builds one EvalContext (one clock read), snapshots
/// the session variables only when a bound expression holds a name that
/// is no column, and performs the basket expressions' consumption side
/// effects. Execute is Prepare + Run, so one-time queries and continuous
/// queries share one executor; a continuous query's factory prepares at
/// registration and runs on every firing (DESIGN.md §11, "Prepare and
/// run").
///
/// The executor itself holds no per-statement state, so one executor may
/// run different prepared statements concurrently. A prepared statement is
/// run by one thread at a time (a factory never fires concurrently with
/// itself, nor a fused transition whose walk runs an inlined leaf's
/// chain). Its operators rely on that: a projection keeps its resolved
/// columns and output schema, and an aggregation its working storage and
/// output schema, from one run to the next (ops::ProjectState,
/// ops::AggregateState).
class Executor {
 public:
  explicit Executor(core::Engine* engine) : engine_(engine) {}

  /// Prepares and runs one statement. SELECT returns its result table;
  /// other statements return an empty zero-column table.
  Result<Table> Execute(const Statement& stmt) const;

  /// Binds `stmt`. Binding errors (unknown or ambiguous columns, `*` in an
  /// aggregate query, a basket expression over a table, ...) surface here.
  /// `stmt` must outlive the result: a run re-prepares from it when a
  /// catalog table was created or dropped since.
  Result<PreparedPtr> Prepare(const Statement& stmt) const;

  /// Runs a prepared statement once.
  Result<Table> Run(PreparedStatement& prepared) const;

  /// Whether the prepared statement keeps no state across runs: a SELECT
  /// whose first operator is a pass-through `take` of one basket (no
  /// predicate, ORDER BY or top n, at a threshold of 1), and which never
  /// prepares again (it reads no catalog table and its targets exist).
  /// Such a take consumes whatever its basket holds, so the rest of the
  /// chain may run over any rows handed over in the basket's place.
  static bool PassThrough(const PreparedStatement& prepared);

  /// Runs a PassThrough statement's operators after its `take` over the
  /// rows of `rows` that `sel` selects (every row when null), which stand
  /// in for what the take would consume. Its first operator (a filter,
  /// aggregation or projection) reads the selection itself and gathers
  /// only the columns it reads. `now` is the value of now(): a
  /// caller running several statements in one firing passes the firing's
  /// time to each. Like Run, one thread at a time per prepared statement.
  Result<Table> RunOver(const PreparedStatement& prepared, const Table& rows,
                        const SelVector* sel, Micros now) const;

  /// The operator chain the prepared statement runs, for example
  /// "take s → aggregate group by k [count(*)] → project": each operator's
  /// own description, joined with " → ".
  static std::string Describe(const PreparedStatement& prepared);

  /// The operators RunOver runs, rendered as Describe renders them.
  static std::string DescribeOver(const PreparedStatement& prepared);

  /// The factory places the prepared statement recorded while binding.
  static const FactoryPlaces& Places(const PreparedStatement& prepared);

 private:
  core::Engine* engine_;
};

}  // namespace datacell::sql

#endif  // DATACELL_SQL_EXECUTOR_H_
