#include "sql/session.h"

#include <cstdio>
#include <set>

#include "sql/parser.h"
#include "sql/plan/builder.h"
#include "sql/plan/rewrite.h"
#include "util/logging.h"

namespace datacell::sql {

Result<Table> Session::Execute(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<StatementPtr> stmts, Parse(sql));
  Table last;
  for (const StatementPtr& stmt : stmts) {
    if (stmt->kind == Statement::Kind::kExplain) {
      ASSIGN_OR_RETURN(last, RenderPlan(*stmt->explain_target));
      continue;
    }
    ASSIGN_OR_RETURN(Table result, executor_.Execute(*stmt));
    if (stmt->kind == Statement::Kind::kSelect) last = std::move(result);
  }
  return last;
}

Result<Table> Session::RenderPlan(const Statement& target) {
  std::string text;
  // The statement whose prepared chain the last line renders: the target
  // itself, or in shared mode the leaf a plannable query would run.
  std::shared_ptr<Statement> chain_of;
  Result<plan::CompiledQuery> cq = plan::CompileContinuous(
      engine_, "explain", CloneStatement(target), optimizer_.cost());
  if (cq.ok()) {
    // The optimizer's view: the shareable conjuncts in evaluation order,
    // each with how many standing queries on the basket share it, then
    // the conjuncts the query's own chain keeps evaluating.
    text += "continuous plan (source basket '" + cq->source_basket +
            "', fires at >= " + std::to_string(cq->min_tuples) +
            " tuple(s))\n";
    plan::OrderBySelectivity(&cq->shared);
    plan::OrderBySelectivity(&cq->residual);
    auto line = [](const char* what, const plan::Conjunct& c) {
      char sel[32];
      std::snprintf(sel, sizeof(sel), "%.2f", c.est_sel);
      return std::string("  ") + what + " " + c.expr->ToString() + " [fp " +
             c.fp + "] sel " + sel;
    };
    std::set<std::string> strip;
    for (const plan::Conjunct& c : cq->shared) {
      text += line("shareable", c) + " standing=" +
              std::to_string(optimizer_.SharedCount(cq->source_basket, c.fp)) +
              "\n";
      if (optimizer_.factoring_enabled()) strip.insert(c.fp);
    }
    for (const plan::Conjunct& c : cq->residual) {
      text += line("residual", c) + "\n";
    }
    text += std::string("sharing: ") +
            (optimizer_.sharing_enabled() ? "on" : "off") + "\n";
    if (optimizer_.sharing_enabled()) {
      ASSIGN_OR_RETURN(chain_of,
                       plan::MakeLeafStatement(engine_, *cq,
                                               cq->source_basket, strip));
    }
  }
  ASSIGN_OR_RETURN(PreparedPtr prepared,
                   executor_.Prepare(chain_of != nullptr ? *chain_of : target));
  if (!cq.ok()) {
    // A statement that consumes no basket is a one-time one; else a direct
    // factory is wired with the inputs Prepare found.
    const std::vector<PreparedInput>& inputs =
        Executor::Places(*prepared).inputs;
    text += inputs.empty() ? "one-time plan\n" : "continuous plan (direct)\n";
    for (const PreparedInput& in : inputs) {
      text += "  input basket '" + in.basket->name() + "' (fires at >= " +
              std::to_string(in.min_tuples) + " tuple(s))\n";
    }
  }
  if (chain_of != nullptr && plan::PassThroughLeaf(*chain_of)) {
    text += "  chain (inlined): " + Executor::DescribeOver(*prepared) + "\n";
  } else {
    text += "  chain: " + Executor::Describe(*prepared) + "\n";
  }

  Table out(Schema({{"plan", DataType::kString}}));
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    RETURN_NOT_OK(out.AppendRow({Value(text.substr(start, end - start))}));
    start = end + 1;
  }
  return out;
}

Result<plan::BuiltQuery> Session::BuildFactory(const std::string& name,
                                               std::shared_ptr<Statement> stmt,
                                               core::Emitter::Sink sink,
                                               bool inline_leaf) {
  if (!IsContinuous(*stmt)) {
    return Status::InvalidArgument(
        "statement contains no basket expression; it is a one-time query "
        "(wrap stream reads in [...])");
  }
  // All binding happens here, once; each firing only runs the prepared
  // statement's kernels and hands the result to the sink.
  ASSIGN_OR_RETURN(PreparedPtr prepared, executor_.Prepare(*stmt));
  plan::BuiltQuery built;
  // plan::PassThroughLeaf chose to inline the statement; its prepared
  // chain must agree, or RunOver would skip a take that keeps state.
  if (inline_leaf && !Executor::PassThrough(*prepared)) {
    return Status::Internal("leaf of '" + name + "' keeps state: " +
                            Executor::Describe(*prepared));
  }
  built.pipeline = inline_leaf ? Executor::DescribeOver(*prepared)
                               : Executor::Describe(*prepared);
  if (sink != nullptr) built.pipeline += " → sink";
  if (inline_leaf) {
    built.run = std::make_shared<const plan::LeafRun>(
        [exec = executor_, stmt, prepared, sink](
            const Table& rows, const SelVector* sel,
            Micros now) -> Result<size_t> {
          ASSIGN_OR_RETURN(Table result,
                           exec.RunOver(*prepared, rows, sel, now));
          if (sink != nullptr && result.num_rows() > 0) {
            RETURN_NOT_OK(sink(result));
          }
          return result.num_rows();
        });
    return built;
  }
  built.factory = std::make_shared<core::Factory>(
      name, [exec = executor_, stmt, prepared,
             sink](core::FactoryContext&) -> Status {
        ASSIGN_OR_RETURN(Table result, exec.Run(*prepared));
        if (sink != nullptr && result.num_rows() > 0) {
          RETURN_NOT_OK(sink(result));
        }
        return Status::OK();
      });

  // The places Prepare resolved: the baskets its basket expressions
  // consume, and the baskets it inserts into.
  const FactoryPlaces& places = Executor::Places(*prepared);
  for (const PreparedInput& in : places.inputs) {
    built.factory->AddInput(in.basket, in.min_tuples);
  }
  for (const core::BasketPtr& out : places.outputs) {
    built.factory->AddOutput(out);
  }
  return built;
}

Result<core::FactoryPtr> Session::RegisterContinuousQuery(
    const std::string& name, const std::string& sql) {
  ASSIGN_OR_RETURN(StatementPtr stmt, ParseOne(sql));
  return optimizer_.AddQuery(
      name, std::shared_ptr<Statement>(std::move(stmt)), nullptr);
}

Result<core::FactoryPtr> Session::RegisterContinuousSelect(
    const std::string& name, const std::string& sql,
    core::Emitter::Sink sink) {
  ASSIGN_OR_RETURN(StatementPtr stmt, ParseOne(sql));
  if (stmt->kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument(
        "RegisterContinuousSelect requires a SELECT statement");
  }
  return optimizer_.AddQuery(
      name, std::shared_ptr<Statement>(std::move(stmt)), std::move(sink));
}

}  // namespace datacell::sql
