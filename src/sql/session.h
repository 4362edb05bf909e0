#ifndef DATACELL_SQL_SESSION_H_
#define DATACELL_SQL_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/factory.h"
#include "core/receptor.h"
#include "sql/ast.h"
#include "sql/executor.h"
#include "sql/plan/optimizer.h"
#include "util/status.h"

namespace datacell::sql {

/// The SQL entry point of the DataCell: parses scripts, executes one-time
/// statements immediately, and registers statements containing basket
/// expressions as continuous queries. Registration goes through the
/// multi-query optimizer (sql/plan/optimizer.h): with sharing disabled
/// (the default) every query gets one direct factory; with
/// set_sharing_enabled(true) queries inside the plannable subset compile
/// into one shared subnet per source basket: a fused trie walk feeding
/// per-query leaves, most of which it runs inline. Destroying the session
/// takes its queries down with it.
class Session {
 public:
  explicit Session(core::Engine* engine)
      : engine_(engine),
        executor_(engine),
        optimizer_(engine,
                   [this](const std::string& name,
                          std::shared_ptr<Statement> stmt,
                          core::Emitter::Sink sink, bool inline_leaf) {
                     return BuildFactory(name, std::move(stmt),
                                         std::move(sink), inline_leaf);
                   }) {}

  core::Engine* engine() const { return engine_; }

  /// Parses and executes a script of ';'-separated statements one-time.
  /// Returns the result of the last SELECT (empty table if none).
  Result<Table> Execute(const std::string& sql);

  /// Registers a continuous query: the statement must contain at least one
  /// basket expression. Its basket-expression sources become the factory's
  /// Petri-net inputs (a single-source `top n` window raises that input's
  /// firing threshold to n); INSERT targets that are baskets become its
  /// outputs. The statement is prepared here, so binding errors fail the
  /// registration; each firing runs the prepared statement. The factory is
  /// registered with the engine's scheduler before being returned.
  Result<core::FactoryPtr> RegisterContinuousQuery(const std::string& name,
                                                   const std::string& sql);

  /// Continuous SELECT variant: each firing's non-empty result is handed to
  /// `sink` (e.g. a net::TcpEgress sink, or an output basket appender).
  Result<core::FactoryPtr> RegisterContinuousSelect(const std::string& name,
                                                    const std::string& sql,
                                                    core::Emitter::Sink sink);

  /// Drops a standing continuous query by registration name: its
  /// transitions are unregistered (in-flight firings complete first) and,
  /// when it was part of a shared subnet, the net's fused transition is
  /// rebuilt for the remaining queries without disturbing their result
  /// streams.
  Status UnregisterContinuousQuery(const std::string& name) {
    return optimizer_.RemoveQuery(name);
  }

  /// Opt-in multi-query sharing for subsequently registered queries (see
  /// the class comment; default off keeps one direct factory per query).
  void set_sharing_enabled(bool on) { optimizer_.set_sharing_enabled(on); }
  bool sharing_enabled() const { return optimizer_.sharing_enabled(); }

  /// Feeds observed selectivities into the cost model and re-plans any
  /// shared subnet whose as-built estimates drifted. Returns the number of
  /// subnets rebuilt.
  Result<size_t> Reoptimize() { return optimizer_.Reoptimize(); }

  /// Direct access for embedding scenarios and tests.
  Executor& executor() { return executor_; }
  plan::QuerySetOptimizer& optimizer() { return optimizer_; }

 private:
  /// Builds (without registering) the factory of one continuous statement
  /// — the optimizer's direct path and the leaf of a shared subnet. The
  /// statement is prepared here; each firing runs it and hands a SELECT's
  /// non-empty result to `sink`. With `inline_leaf` (a
  /// plan::PassThroughLeaf statement) it gets only its chain after the
  /// `take`, which the fused transition runs.
  Result<plan::BuiltQuery> BuildFactory(const std::string& name,
                                        std::shared_ptr<Statement> stmt,
                                        core::Emitter::Sink sink,
                                        bool inline_leaf);

  /// Renders EXPLAIN output for a parsed target statement, one line per
  /// row in a single-column table. A header names the plan's shape; for a
  /// query in the plannable subset, one line per conjunct (shareable ones
  /// with their standing counts, then residual ones) and the sharing mode
  /// follow. The last line is the operator chain the statement prepares
  /// to (Executor::Describe): in shared mode, the chain of the leaf the
  /// query would run, reading its source basket, or for a leaf the fused
  /// transition would run inline, the operators after its `take`. Binding
  /// errors surface as they do from Execute; nothing is run or registered.
  Result<Table> RenderPlan(const Statement& target);

  core::Engine* engine_;
  Executor executor_;
  plan::QuerySetOptimizer optimizer_;
};

}  // namespace datacell::sql

#endif  // DATACELL_SQL_SESSION_H_
