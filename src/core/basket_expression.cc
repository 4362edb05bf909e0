#include "core/basket_expression.h"

#include <algorithm>

#include "expr/eval.h"
#include "util/logging.h"

namespace datacell::core {

Result<Table> BasketExpression::Evaluate(const EvalContext& ctx) const {
  // A pass-through window (no predicate, ORDER BY or TOP) returns and
  // consumes everything, whichever the policy: one TakeAll, which also
  // brings spilled rows back and counts them as consumed.
  if (predicate_ == nullptr && order_by_.empty() && !top_n_.has_value()) {
    return source_->TakeAll();
  }
  // Snapshot the basket under its lock. The snapshot shares the basket's
  // column buffers copy-on-write, so it costs O(#columns), and it stays
  // immutable no matter what producers append afterwards:
  //   * kBatch consumes exactly the snapshot, so we Clear() up front (O(1);
  //     the snapshot keeps the rows) and release the lock before the
  //     (possibly expensive) window evaluation — except under `top n`,
  //     which must consume nothing when the window cannot be filled yet,
  //     so it keeps the lock like kMatched;
  //   * kMatched erases rows by index into the snapshot, so the basket
  //     must not change between snapshot and erase: hold the lock.
  // The two branches keep the lock state balanced on every path, which is
  // what the thread-safety analysis can follow.
  const bool consume_upfront =
      consume_ == ConsumePolicy::kBatch && !top_n_.has_value();
  if (consume_upfront) {
    Table data;
    {
      BasketLock lock(source_.get());
      data = source_->Peek();
      source_->Clear();
    }
    return EvaluateSnapshot(data, ctx);
  }
  BasketLock lock(source_.get());
  Table data = source_->Peek();
  return EvaluateSnapshot(data, ctx);
}

Result<Table> BasketExpression::EvaluateSnapshot(const Table& data,
                                                const EvalContext& ctx) const {
  const bool consume_upfront =
      consume_ == ConsumePolicy::kBatch && !top_n_.has_value();

  // 1. Window predicate.
  SelVector window;
  if (predicate_ != nullptr) {
    ASSIGN_OR_RETURN(window, EvalPredicate(data, *predicate_, ctx));
  } else {
    window.resize(data.num_rows());
    for (size_t i = 0; i < window.size(); ++i) {
      window[i] = static_cast<uint32_t>(i);
    }
  }

  // 2. order by / top n over the window.
  SelVector selected = window;
  if (!order_by_.empty() || top_n_.has_value()) {
    Table window_tab = data.Take(window);
    if (top_n_.has_value()) {
      // A `top n` window is exact: wait until it can be filled.
      if (window_tab.num_rows() < *top_n_) {
        return Table(data.schema());
      }
      ASSIGN_OR_RETURN(SelVector local,
                       ops::TopNIndices(window_tab, order_by_, *top_n_, ctx));
      selected.clear();
      selected.reserve(local.size());
      for (uint32_t l : local) selected.push_back(window[l]);
    } else {
      ASSIGN_OR_RETURN(SelVector local,
                       ops::SortIndices(window_tab, order_by_, ctx));
      selected.clear();
      selected.reserve(local.size());
      for (uint32_t l : local) selected.push_back(window[l]);
    }
  }

  // 3. Materialize the result before mutating the basket. A window that
  // keeps every row in arrival order is the snapshot itself: share it
  // instead of gathering a copy.
  const bool whole = order_by_.empty() && !top_n_.has_value() &&
                     selected.size() == data.num_rows();
  Table result = whole ? data : data.Take(selected);

  // 4. Consumption side effect (indices refer to the snapshot; for kMatched
  // the lock held by Evaluate since the snapshot keeps them valid against
  // the basket).
  switch (consume_) {
    case ConsumePolicy::kBatch:
      if (!consume_upfront) source_->Clear();
      break;
    case ConsumePolicy::kMatched: {
      SelVector to_erase = selected;
      std::sort(to_erase.begin(), to_erase.end());
      to_erase.erase(std::unique(to_erase.begin(), to_erase.end()),
                     to_erase.end());
      RETURN_NOT_OK(source_->EraseRows(to_erase));
      break;
    }
  }
  return result;
}

}  // namespace datacell::core
