#include "sql/session.h"

#include <cstdio>
#include <map>
#include <set>

#include "sql/parser.h"
#include "sql/plan/builder.h"
#include "sql/plan/rewrite.h"
#include "util/logging.h"

namespace datacell::sql {

namespace {

void CollectThresholds(const SelectStmt& stmt,
                       std::map<std::string, size_t>* out);

// Adds the source baskets of one basket expression with their firing
// thresholds: a single-source `top n` window needs n tuples before it can
// produce output (§4.1 batch/window control); every other source fires at
// one tuple.
void CollectBasketExpr(const SelectStmt& basket_expr,
                       std::map<std::string, size_t>* out) {
  const size_t need =
      basket_expr.from.size() == 1 ? basket_expr.top_n.value_or(1) : 1;
  for (const FromItem& src : basket_expr.from) {
    if (src.kind == FromItem::Kind::kRelation) {
      size_t& cur = (*out)[src.relation];
      cur = std::max(cur, need);
    }
  }
  CollectThresholds(basket_expr, out);
}

// Walks a SELECT's FROM list for basket expressions.
void CollectThresholds(const SelectStmt& stmt,
                       std::map<std::string, size_t>* out) {
  for (const FromItem& f : stmt.from) {
    if (f.kind == FromItem::Kind::kBasketExpr && f.basket_query != nullptr) {
      CollectBasketExpr(*f.basket_query, out);
    }
  }
}

// Computes, per basket-expression source basket, the firing threshold the
// statement's factory is wired with.
void CollectThresholds(const Statement& stmt,
                       std::map<std::string, size_t>* out) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      CollectThresholds(*stmt.select, out);
      break;
    case Statement::Kind::kInsert:
      if (stmt.insert->select != nullptr) {
        CollectThresholds(*stmt.insert->select, out);
      }
      break;
    case Statement::Kind::kWithBlock:
      CollectBasketExpr(*stmt.with_block->basket_query, out);
      for (const StatementPtr& body : stmt.with_block->body) {
        CollectThresholds(*body, out);
      }
      break;
    default:
      break;
  }
  for (const auto& sub : stmt.subqueries) {
    if (sub != nullptr) CollectThresholds(*sub, out);
  }
}

// Collects INSERT targets that are baskets (the factory's output places).
void CollectBasketTargets(const Statement& stmt, core::Engine* engine,
                          std::vector<std::string>* out) {
  switch (stmt.kind) {
    case Statement::Kind::kInsert:
      if (engine->HasBasket(stmt.insert->target)) {
        out->push_back(stmt.insert->target);
      }
      break;
    case Statement::Kind::kWithBlock:
      for (const StatementPtr& body : stmt.with_block->body) {
        CollectBasketTargets(*body, engine, out);
      }
      break;
    default:
      break;
  }
}

}  // namespace

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
  } else if (IsContinuous(target)) {
    text += "continuous plan (direct)\n";
    std::map<std::string, size_t> thresholds;
    CollectThresholds(target, &thresholds);
    for (const auto& [basket, min_tuples] : thresholds) {
      text += "  input basket '" + basket + "' (fires at >= " +
              std::to_string(min_tuples) + " tuple(s))\n";
    }
  } else {
    text += "one-time plan\n";
  }
  ASSIGN_OR_RETURN(PreparedPtr prepared,
                   executor_.Prepare(chain_of != nullptr ? *chain_of : target));
  text += "  chain: " + Executor::Describe(*prepared) + "\n";

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
                                               core::Emitter::Sink sink) {
  if (!IsContinuous(*stmt)) {
    return Status::InvalidArgument(
        "statement contains no basket expression; it is a one-time query "
        "(wrap stream reads in [...])");
  }
  std::map<std::string, size_t> thresholds;
  CollectThresholds(*stmt, &thresholds);

  // All binding happens here, once; each firing only runs the prepared
  // statement's kernels and hands the result to the sink.
  PreparedEntry& entry = prepared_[stmt.get()];
  PreparedPtr prepared = entry.prepared.lock();
  if (prepared == nullptr) {
    ASSIGN_OR_RETURN(prepared, executor_.Prepare(*stmt));
    entry = PreparedEntry{prepared, Executor::Describe(*prepared)};
    std::erase_if(prepared_, [](const auto& e) {
      return e.second.prepared.expired();
    });
  }
  plan::BuiltQuery built;
  built.pipeline = entry.pipeline;
  if (sink != nullptr) built.pipeline += " → sink";
  built.factory = std::make_shared<core::Factory>(
      name, [exec = executor_, stmt, prepared,
             sink](core::FactoryContext&) -> Status {
        ASSIGN_OR_RETURN(Table result, exec.Run(*prepared));
        if (sink != nullptr && result.num_rows() > 0) {
          RETURN_NOT_OK(sink(result));
        }
        return Status::OK();
      });

  for (const auto& [basket_name, min_tuples] : thresholds) {
    ASSIGN_OR_RETURN(core::BasketPtr b, engine_->GetBasket(basket_name));
    built.factory->AddInput(b, min_tuples);
  }
  std::vector<std::string> targets;
  CollectBasketTargets(*stmt, engine_, &targets);
  for (const std::string& target : targets) {
    ASSIGN_OR_RETURN(core::BasketPtr b, engine_->GetBasket(target));
    built.factory->AddOutput(b);
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
