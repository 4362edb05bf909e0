#ifndef DATACELL_SQL_PLAN_OPTIMIZER_H_
#define DATACELL_SQL_PLAN_OPTIMIZER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/factory.h"
#include "core/receptor.h"
#include "obs/plans.h"
#include "sql/ast.h"
#include "sql/plan/builder.h"
#include "sql/plan/cost.h"
#include "util/status.h"

/// The multi-query optimizer: owns the standing-query set and compiles it
/// into a shared Petri net. Queries whose shape the plan compiler accepts
/// are decomposed into
///
///   source basket -> one fused transition walking a trie of normalized
///   conjunct fingerprints (common prefixes factored into one node) ->
///   per-query leaf basket -> leaf factory (the original statement with the
///   shared conjuncts stripped and FROM redirected to the leaf).
///
/// Everything else — and everything while sharing is disabled, the default
/// — runs "direct": one factory per query, built by the injected factory
/// builder. With sharing disabled that is byte-for-byte the seed behavior
/// (including competing consumption when several queries read one basket).
/// Shared mode replicates tuples so every query sees the full stream, which
/// is the semantics the sharing ablation measures: a direct query in shared
/// mode reads, in place of each basket its basket expressions read, a
/// replica leaf "mqo.q.<name>.<basket>" attached to the root of that
/// basket's trie.
///
/// Thread-model: registration, removal and re-optimization happen on one
/// driver thread (the same discipline as sql::Session); the built net is
/// what scheduler workers execute. A rebuild builds the whole new net
/// first and only then unregisters the old one (the scheduler waits out
/// in-flight firings) and registers the new: a failed build leaves the old
/// net running. Only the source and the leaf baskets hold rows between
/// firings, and both carry over, so no tuple is lost, duplicated or
/// reordered across a rebuild.
namespace datacell::sql::plan {

/// What the factory builder returns: the (unregistered) factory that runs a
/// statement each firing, and the operator chain it runs (dc_plans).
struct BuiltQuery {
  core::FactoryPtr factory;
  std::string pipeline;
};

class QuerySetOptimizer {
 public:
  /// Builds (without registering) the factory of one statement — injected
  /// by the session so this layer needs no executor dependency.
  using FactoryBuilder = std::function<Result<BuiltQuery>(
      const std::string& name, std::shared_ptr<Statement> stmt,
      core::Emitter::Sink sink)>;

  QuerySetOptimizer(core::Engine* engine, FactoryBuilder builder);

  /// Sharing is opt-in per session: off (default) keeps every query on the
  /// direct path.
  void set_sharing_enabled(bool on) { sharing_enabled_ = on; }
  bool sharing_enabled() const { return sharing_enabled_; }

  /// With factoring off (but sharing on) the shared net still replicates
  /// the stream to per-query leaf baskets but factors nothing — every leaf
  /// evaluates its full predicate. The sharing ablation's baseline: same
  /// delivery semantics, none of the shared work.
  void set_factoring_enabled(bool on) { factoring_enabled_ = on; }
  bool factoring_enabled() const { return factoring_enabled_; }

  /// Registers a continuous query. Returns the transition that carries the
  /// query's name: the direct factory, or the leaf factory of its shared
  /// subnet. kAlreadyExists if the name is taken.
  Result<core::FactoryPtr> AddQuery(const std::string& name,
                                    std::shared_ptr<Statement> stmt,
                                    core::Emitter::Sink sink);

  /// Unregisters one query. In a shared subnet the remaining queries'
  /// trie is rebuilt, so their result streams are unaffected.
  Status RemoveQuery(const std::string& name);

  bool HasQuery(const std::string& name) const {
    return queries_.count(name) > 0;
  }
  size_t num_queries() const { return queries_.size(); }

  /// Feeds observed per-conjunct selectivities into the cost model and
  /// rebuilds every subnet whose as-built estimates have drifted past
  /// CostModel::kDriftRatio. Returns the number of subnets rebuilt.
  Result<size_t> Reoptimize();

  /// Standing queries on `basket` sharing conjunct `fp` (EXPLAIN's
  /// standing count).
  size_t SharedCount(const std::string& basket, const std::string& fp) const;

  /// High-water mark of rows resident in optimizer-owned (leaf and
  /// replica) baskets: the sharing ablation's memory metric.
  uint64_t PeakResidentRows() const;

  const CostModel& cost() const { return cost_; }

 private:
  struct QueryInfo {
    CompiledQuery cq;  // meaningful only when !direct
    std::shared_ptr<Statement> stmt;
    core::Emitter::Sink sink;
    bool direct = true;
    core::FactoryPtr factory;  // direct factory or current leaf factory
    std::string pipeline;      // the operator chain `factory` runs
    core::BasketPtr leaf;      // shared mode: engine basket "mqo.q.<name>"
    /// Shared mode: the statement the leaf factory runs and the conjuncts
    /// stripped from it. A rebuild that strips the same set hands the same
    /// statement to the builder, which then reuses its binding.
    std::shared_ptr<Statement> leaf_stmt;
    std::set<std::string> leaf_cum;
    /// Shared mode, direct query: source basket -> its replica leaf.
    std::map<std::string, core::BasketPtr> replicas;
  };

  /// One node of a source basket's shared-predicate trie: a conjunct run
  /// evaluated once per delivery over its parent's survivors.
  struct TrieNode {
    std::string name;   // mqo.<basket>.root, else mqo.<basket>.s<hash>
    size_t parent = 0;  // the root is its own parent
    size_t level = 0;
    std::vector<Conjunct> conjuncts;
    std::set<std::string> cum;  // conjunct fps evaluated at or above it
    std::vector<std::string> attached;    // queries whose leaf it feeds
    std::vector<core::BasketPtr> leaves;  // the attached queries' leaves
    size_t shared_by = 0;                 // queries fed from here or below
    /// Live feeds the walk bumps: one per conjunct, and the node's own.
    std::vector<std::shared_ptr<obs::PlanCounters>> conjunct_counters;
    std::shared_ptr<obs::PlanCounters> counters;
  };

  struct Subnet {
    /// Level order: index 0 is the root, each level is contiguous and
    /// parents precede children.
    std::vector<TrieNode> nodes;
    /// The fused transition (named after the root), then the leaves.
    std::vector<core::FactoryPtr> transitions;
  };

  Status AddDirect(const std::string& name, QueryInfo info);
  Status AddShared(const std::string& name, QueryInfo info);
  /// Shared mode, outside the plannable subset: a direct factory over
  /// replica leaves of every basket the query's basket expressions read.
  Status AddReplicated(const std::string& name, QueryInfo info);
  /// Rebuilds each of `baskets`' nets; on a failure, rebuilds the ones
  /// already done again (for the restored query set) and returns it.
  Status RebuildSubnets(const std::vector<std::string>& baskets,
                        const std::function<void()>& restore);

  /// Builds the net for `basket`'s standing shared queries (trie, leaf
  /// factories, fused transition), then swaps it in for the current one.
  /// Nothing is unregistered until the new net is complete. The only
  /// mutation path for subnets_.
  Status RebuildSubnet(const std::string& basket);
  /// Lays out `members`' trie. With `open_root` the root evaluates no
  /// conjunct (replica leaves hang off it and take every row).
  void BuildTrie(const std::string& basket,
                 const std::vector<std::string>& members, bool open_root,
                 Subnet* out);
  void PublishPlans(const Subnet& net);
  static void PublishDirect(const std::string& name,
                            const std::string& pipeline);

  /// The fused transition's body: one walk of `nodes` (Subnet order) over
  /// everything the source holds.
  /// Per-node working state one fused transition keeps across firings:
  /// slot i is written only by node i's evaluation, so a level's nodes can
  /// run on the pool side by side. Sized on the first firing, emptied of
  /// tables after every firing; between firings small selections keep
  /// their capacity and large ones are parked in the column kernel's
  /// recycler (column/recycler.h).
  struct WalkScratch {
    std::vector<Table> out;      // node i's survivors
    std::vector<SelVector> sel;  // node i's selections: 2i and 2i + 1
  };
  static Status Walk(const std::vector<TrieNode>& nodes, WalkScratch* scratch,
                     core::FactoryContext& ctx);
  /// Evaluates one node's conjunct run over its parent's survivors `in`,
  /// ping-ponging between the selections `a` and `b`; leaves `*out` empty
  /// when no row survives.
  static Status EvalNode(const TrieNode& node, const Table& in,
                         const EvalContext& ectx, SelVector* a, SelVector* b,
                         Table* out);

  core::Engine* engine_;
  FactoryBuilder build_factory_;
  bool sharing_enabled_ = false;
  bool factoring_enabled_ = true;
  CostModel cost_;

  std::map<std::string, QueryInfo> queries_;
  std::map<std::string, Subnet> subnets_;  // by source basket
  /// Live per-conjunct selectivity feed, keyed by conjunct fingerprint.
  std::map<std::string, std::shared_ptr<obs::PlanCounters>>
      conjunct_counters_;
  /// Live per-node row counts (dc_plans), keyed by node name so they
  /// survive rebuilds that keep the node.
  std::map<std::string, std::shared_ptr<obs::PlanCounters>> node_counters_;
  /// Peak rows of dropped queries' leaf baskets, for PeakResidentRows.
  uint64_t peak_retired_ = 0;
};

}  // namespace datacell::sql::plan

#endif  // DATACELL_SQL_PLAN_OPTIMIZER_H_
