#ifndef DATACELL_SQL_PLAN_COST_H_
#define DATACELL_SQL_PLAN_COST_H_

#include <cstdint>
#include <map>
#include <string>

#include "expr/expr.h"

/// Cost model for the plan layer. Two inputs:
///  * static heuristics over the predicate shape (equality is selective,
///    inequality barely filters, ranges sit in between) — the cold-start
///    estimates;
///  * live observations: per-conjunct rows_in / rows_out counters, keyed
///    by conjunct fingerprint, that the fused trie walk of each shared
///    subnet maintains (QuerySetOptimizer::Reoptimize feeds them in), which
///    override the heuristics once a conjunct has seen enough tuples.
///
/// Thread-model: owned by the QuerySetOptimizer and touched only on the
/// registration/re-optimization path (the same single-driver discipline as
/// Session registration). Nothing here takes a lock; the live feed reads
/// relaxed counters.
namespace datacell::sql::plan {

class CostModel {
 public:
  /// Observations below this many input rows keep the heuristic estimate
  /// (too noisy to trust).
  static constexpr uint64_t kMinSample = 256;
  /// Re-optimization triggers when observed and estimated selectivity
  /// disagree by more than this factor either way.
  static constexpr double kDriftRatio = 4.0;

  /// Estimated fraction of rows satisfying the (normalized) predicate:
  /// the recorded observation for `fp` when sampled enough, else the
  /// shape heuristic.
  double EstimateSelectivity(const Expr& expr, const std::string& fp) const;

  /// Pure shape heuristic (no observation lookup).
  static double HeuristicSelectivity(const Expr& expr);

  /// Feeds an observation for conjunct `fp`: `rows_in` tuples reached the
  /// conjunct, `rows_out` survived it. Cumulative counters —
  /// callers pass the latest totals, not deltas.
  void RecordObserved(const std::string& fp, uint64_t rows_in,
                      uint64_t rows_out);

  /// True when the sampled observation for `fp` contradicts `est_used` —
  /// the selectivity the current net was built with — by more than
  /// kDriftRatio. The re-optimization trigger: comparing against the
  /// as-built estimate (not the heuristic) makes the check self-clearing
  /// once a rebuild adopts the observed value.
  bool Drifted(double est_used, const std::string& fp) const;

  /// Observed selectivity for `fp` if sampled enough, else -1.
  double ObservedSelectivity(const std::string& fp) const;

 private:
  struct Observation {
    uint64_t rows_in = 0;
    uint64_t rows_out = 0;
  };
  std::map<std::string, Observation> observed_;
};

}  // namespace datacell::sql::plan

#endif  // DATACELL_SQL_PLAN_COST_H_
