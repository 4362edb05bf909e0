#ifndef DATACELL_CORE_BASKET_EXPRESSION_H_
#define DATACELL_CORE_BASKET_EXPRESSION_H_

#include <optional>
#include <vector>

#include "core/basket.h"
#include "ops/sort.h"
#include "util/status.h"

namespace datacell::core {

/// What a basket expression deletes from its source basket when evaluated.
enum class ConsumePolicy : uint8_t {
  /// Delete exactly the tuples the expression returned — the paper's
  /// default: "all tuples referenced in a basket expression are removed
  /// from their underlying store automatically", leaving a partially
  /// emptied basket behind (predicate windows, merge joins, partial
  /// deletes).
  kMatched,
  /// Delete every tuple present at evaluation time, whether or not it
  /// qualified (classic consume-the-batch continuous query; avoids
  /// unbounded growth of never-matching tuples).
  kBatch,
};

/// A compiled basket expression (§3.4): the bracketed sub-query
/// `[select ... from basket where ... order by ... top n]` that defines a
/// predicate window over a stream with consumption side effects.
class BasketExpression {
 public:
  explicit BasketExpression(BasketPtr source) : source_(std::move(source)) {}

  /// Window predicate; null means all tuples.
  BasketExpression& Where(ExprPtr predicate) {
    predicate_ = std::move(predicate);
    return *this;
  }
  /// `order by` keys applied to the window before `top n`.
  BasketExpression& OrderBy(std::vector<ops::SortKey> keys) {
    order_by_ = std::move(keys);
    return *this;
  }
  /// `top n`: the result must hold exactly n tuples; evaluation returns an
  /// empty table (and consumes nothing) until the basket can fill the
  /// window.
  BasketExpression& Top(size_t n) {
    top_n_ = n;
    return *this;
  }
  BasketExpression& Consume(ConsumePolicy policy) {
    consume_ = policy;
    return *this;
  }

  const BasketPtr& source() const { return source_; }
  const ExprPtr& predicate() const { return predicate_; }
  const std::vector<ops::SortKey>& order_by() const { return order_by_; }
  ConsumePolicy consume() const { return consume_; }
  std::optional<size_t> top_n() const { return top_n_; }

  /// Evaluates the window over the current basket contents, applies the
  /// consumption side effect, and returns the window as a table (full
  /// basket schema, including the arrival column). Atomic with respect to
  /// the basket lock.
  Result<Table> Evaluate(const EvalContext& ctx) const;

  /// The minimum number of tuples the source basket must hold before this
  /// expression can produce output (Petri-net firing threshold): top_n when
  /// set, else 1.
  size_t MinTuples() const { return top_n_.value_or(1); }

 private:
  // Window evaluation + consumption over an immutable snapshot of the
  // basket (steps shared by both locking disciplines in Evaluate). For
  // kMatched the caller holds the basket lock so the snapshot indices stay
  // valid against the live basket.
  Result<Table> EvaluateSnapshot(const Table& data, const EvalContext& ctx) const;

  BasketPtr source_;
  ExprPtr predicate_;
  std::vector<ops::SortKey> order_by_;
  std::optional<size_t> top_n_;
  ConsumePolicy consume_ = ConsumePolicy::kMatched;
};

}  // namespace datacell::core

#endif  // DATACELL_CORE_BASKET_EXPRESSION_H_
